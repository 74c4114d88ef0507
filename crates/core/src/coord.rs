//! Driving the coordinated baselines through the mobile network.
//!
//! The coordinated protocols ([`cic::coordinated`]) are host-local
//! [`cic::protocol::Protocol`] state machines like every other; this module
//! gives their rounds time, location lookups, wireless/wired latencies and
//! disconnection handling, without knowing which protocol runs:
//!
//! * a round timer starts each round at a rotating initiator;
//! * every control message must first **locate** its mobile destination
//!   (one directory search — the cost the paper holds against coordinated
//!   protocols in mobile settings);
//! * control messages addressed to a **disconnected** host are buffered and
//!   delivered at reconnection — which is exactly why "connections and
//!   disconnections may significantly increase the completion time of the
//!   construction of a consistent global checkpoint". The measured
//!   round-completion latencies of snapshot rounds quantify that;
//! * every marker/request is charged to the wireless channel and the energy
//!   ledger like any other message.

use std::collections::HashMap;

use causality::trace::CkptKind;
use cic::coordinated::{ControlMsg, CoordAction};
use mobnet::MhId;
use simkit::prelude::*;

use crate::config::SimConfig;
use crate::simulation::{Ev, Simulation, CONTROL_BYTES};

/// Round bookkeeping of a run. It stays empty, and allocates nothing, in
/// runs without coordination rounds.
#[derive(Clone, Default)]
pub(crate) struct Rounds {
    /// Rounds started so far (the latest round's number).
    round: u64,
    /// Start time per round not yet seen complete, for the
    /// completion-latency measurement.
    started: HashMap<u64, f64>,
    /// Completed-round latencies, in completion order.
    pub(crate) latencies: Vec<f64>,
    /// Control messages buffered per disconnected host: one list per host
    /// in coordinated runs, none otherwise.
    buffered: Vec<Vec<(MhId, ControlMsg)>>,
}

impl Rounds {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let hosts = if cfg.protocol.interval().is_some() { cfg.n_mhs } else { 0 };
        Rounds {
            buffered: vec![Vec::new(); hosts],
            ..Rounds::default()
        }
    }
}

impl Simulation {
    /// Starts a coordination round at a connected initiator (rotating).
    pub(crate) fn on_coord_round(&mut self, sched: &mut Scheduler<Ev>, now: SimTime) {
        let n = self.config().n_mhs;
        self.rounds.round += 1;
        let round = self.rounds.round;
        // Rotate to the next connected initiator that no unfinished blocking
        // session holds; skip the round if there is none.
        let start = self.coord_rng.index(n);
        if let Some(init) = (0..n)
            .map(|k| MhId((start + k) % n))
            .find(|&m| self.is_connected(m) && !self.protos[m.idx()].is_blocked())
        {
            self.rounds.started.insert(round, now.as_f64());
            let action = self.protos[init.idx()].initiate(round);
            self.apply_coord_action(sched, now, init, action);
        }
        let interval = self.config().protocol.interval();
        sched.schedule_in(interval.expect("rounds run only with an interval"), Ev::CoordRound);
    }

    /// Delivers a control message at `to` (or buffers it while offline).
    pub(crate) fn on_deliver_ctl(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        to: MhId,
        from: MhId,
        msg: ControlMsg,
    ) {
        if !self.is_connected(to) {
            self.rounds.buffered[to.idx()].push((from, msg));
            return;
        }
        // Downlink delivery of the control message.
        self.metrics.charge_wireless(to, CONTROL_BYTES);
        let action = self.protos[to.idx()].on_control(from.idx(), &msg);
        // Round completion check: all processes done? Guarded so the O(n)
        // scan runs only when it could matter — the receiving process is
        // part of `all`, so an incomplete receiver decides the conjunction
        // by itself, and once the round's latency is recorded (`started`
        // entry consumed) the scan is moot.
        let round = msg.round();
        if self.protos[to.idx()].round_complete(round)
            && self.rounds.started.contains_key(&round)
            && self.protos.iter().all(|p| p.round_complete(round))
        {
            let t0 = self.rounds.started.remove(&round).expect("guard checked the key");
            self.rounds.latencies.push(now.as_f64() - t0);
        }
        self.apply_coord_action(sched, now, to, action);
    }

    /// Executes the checkpoint and message fan-out of a coordination step.
    fn apply_coord_action(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        actor: MhId,
        action: CoordAction,
    ) {
        if let Some(index) = action.checkpoint {
            self.take_checkpoint(now, actor, index, CkptKind::Coordinated, false);
        }
        for (dest, msg) in action.send {
            self.route_ctl(sched, actor, MhId(dest), msg);
        }
    }

    /// Routes one control message from `from` to `to` with full cost
    /// accounting (search + wireless uplink + wired hop).
    fn route_ctl(&mut self, sched: &mut Scheduler<Ev>, from: MhId, to: MhId, msg: ControlMsg) {
        self.metrics.control_msgs += 1;
        self.metrics.charge_wireless(from, CONTROL_BYTES);
        // Locating a mobile destination costs a directory search per message
        // — the paper's point (1) against coordinated protocols.
        let dst_mss = self.locate(to);
        let src_mss = self
            .cell_of(from)
            .expect("control messages originate at connected hosts");
        let mut latency = 2.0 * self.topology().wireless_latency();
        if src_mss != dst_mss {
            latency += self.topology().wired_latency(src_mss, dst_mss);
            self.metrics.wired_hops += 1;
        }
        sched.schedule_in(latency, Ev::DeliverCtl { to, from, msg });
    }

    /// Re-injects control messages buffered while `mh` was disconnected.
    pub(crate) fn coord_flush_buffered(&mut self, sched: &mut Scheduler<Ev>, mh: MhId) {
        let Some(buffered) = self.rounds.buffered.get_mut(mh.idx()) else {
            return; // no coordination rounds in this run
        };
        let drained = std::mem::take(buffered);
        let wireless = self.topology().wireless_latency();
        for (from, msg) in drained {
            sched.schedule_in(wireless, Ev::DeliverCtl { to: mh, from, msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cic::piggyback::{PbCodec, Piggyback};
    use cic::protocol::Protocol;

    use crate::config::ProtocolChoice;

    const CHOICES: [ProtocolChoice; 7] = ProtocolChoice::all(7.5);

    /// Host `me` of a 10-host world.
    fn host(choice: ProtocolChoice, me: usize) -> Box<dyn Protocol> {
        choice.instantiate(me, 10, 0, PbCodec::Dense)
    }

    fn cfg(protocol: ProtocolChoice) -> SimConfig {
        SimConfig {
            protocol,
            ..Default::default()
        }
    }

    #[test]
    fn driver_matches_protocol_choice() {
        for choice in CHOICES {
            assert_eq!(host(choice, 0).name(), choice.name());
            // Only coordinated runs hold per-host control-message buffers.
            let buffers = Rounds::new(&cfg(choice)).buffered.len();
            assert_eq!(buffers, if choice.interval().is_some() { 10 } else { 0 });
        }
    }

    #[test]
    fn interval_only_for_coordinated() {
        let intervals: Vec<Option<f64>> = CHOICES.iter().map(|c| c.interval()).collect();
        assert_eq!(intervals[..4], [None; 4]);
        assert_eq!(intervals[4..], [Some(7.5); 3]);
    }

    #[test]
    fn only_kt_blocks() {
        for choice in CHOICES {
            let (mut p0, mut p1) = (host(choice, 0), host(choice, 1));
            // A session with dependencies blocks the initiator until acked.
            p0.on_receive(1, &p1.on_send(0));
            assert!(!p0.is_blocked());
            p0.initiate(1);
            assert_eq!(p0.is_blocked(), choice.name() == "KT", "{}", choice.name());
            assert!(!p1.is_blocked());
        }
    }

    #[test]
    fn ps_and_kt_piggyback_depsets() {
        for choice in CHOICES {
            let pb = host(choice, 0).on_send(1);
            let depset = matches!(pb, Piggyback::DepSet { ref deps } if deps.len() == 10);
            assert_eq!(depset, matches!(choice.name(), "PS" | "KT"), "{}", choice.name());
            if choice.name() == "CL" {
                assert_eq!(pb, Piggyback::None);
            }
        }
    }

    #[test]
    fn round_latencies_only_from_cl() {
        for choice in CHOICES {
            let r = Simulation::run(SimConfig {
                horizon: 200.0,
                p_switch: 1.0,
                ..cfg(choice)
            });
            let timed = !r.coord_round_latencies.is_empty();
            assert_eq!(timed, choice.name() == "CL", "{}", choice.name());
        }
    }
}
