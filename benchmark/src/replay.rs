//! Traced-run instruments: the benchmark's own event loop over a world, and
//! replays of a run's recorded stream through fresh instances of each
//! layer's public types. Nothing here changes program code; every time is
//! the cost of a public call on exactly the inputs the workload gave it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use causality::trace::ProcId;
use cic::piggyback::Piggyback;
use cic::protocol::{BasicReason, Protocol};
use cic::CicKind;
use faultsim::{HostSituation, RecoveryParams};
use mck::prelude::{Instrumentation, ProtocolChoice, RunReport, SimConfig, Simulation};
use mck::simulation::Ev;
use mobnet::{CkptStore, LocationService, Mailboxes, MhId, MssId, PacketId, Queued};
use relog::{MessageLog, ReplayPlan};
use simkit::driver::Model;
use simkit::metrics::MetricsRegistry;
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::trace::{CkptClass, TraceEvent, TraceRecord, Tracer};

use crate::layers::Layers;

/// The handler bucket an event's dispatch is booked to.
fn handler_metric(ev: &Ev) -> &'static str {
    match ev {
        Ev::Activity { .. } => "core.activity_s",
        Ev::Deliver { .. } => "core.deliver_s",
        Ev::Mobility { .. } | Ev::Reconnect { .. } => "core.mobility_s",
        Ev::Periodic { .. } | Ev::CoordRound | Ev::DeliverCtl { .. } => "core.coord_s",
        Ev::Crash { .. } | Ev::MssCrash { .. } | Ev::Recovered { .. } => "core.failure_s",
    }
}

/// What the benchmark's own event loop counted over one world.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopCounts {
    /// Events dispatched.
    pub events: u64,
    /// Crash events dispatched (host and station).
    pub crashes: u64,
}

/// Builds `cfg`'s world and runs it to the horizon with the same loop as
/// `simkit::driver::run_until`, timing `peek_time` + `pop` apart from
/// `Model::handle` (split by event kind). `metrics` attaches the registry
/// the way a metrics-on run (`mck serve`) does.
pub fn event_loop(cfg: &SimConfig, metrics: bool, layers: &mut Layers) -> LoopCounts {
    let t = Instant::now();
    let (mut sim, mut sched) = Simulation::new(cfg.clone());
    layers.add("core.world_build_s", t.elapsed().as_secs_f64());
    if metrics {
        sim.attach(Instrumentation {
            metrics: true,
            ..Instrumentation::off()
        });
    }
    let horizon = SimTime::new(cfg.horizon);
    let mut counts = LoopCounts::default();
    let (mut pop, mut peak) = (0.0, sched.len());
    let mut handler = [0.0f64; 5];
    const BUCKETS: [&str; 5] = [
        "core.activity_s",
        "core.deliver_s",
        "core.mobility_s",
        "core.coord_s",
        "core.failure_s",
    ];
    loop {
        let t0 = Instant::now();
        match sched.peek_time() {
            Some(at) if at < horizon => {}
            _ => break,
        }
        let fired = sched.pop().expect("peeked event exists");
        let t1 = Instant::now();
        pop += (t1 - t0).as_secs_f64();
        counts.events += 1;
        let metric = handler_metric(&fired.event);
        if metric == "core.failure_s" && !matches!(fired.event, Ev::Recovered { .. }) {
            counts.crashes += 1;
        }
        sim.handle(&mut sched, fired);
        let bucket = BUCKETS
            .iter()
            .position(|b| *b == metric)
            .expect("known bucket");
        handler[bucket] += t1.elapsed().as_secs_f64();
        peak = peak.max(sched.len());
    }
    layers.add("simkit.pop_s", pop);
    layers.add("simkit.events", counts.events as f64);
    layers.max("simkit.pending_peak", peak as f64);
    for (name, secs) in BUCKETS.iter().zip(handler) {
        layers.add(name, secs);
    }
    counts
}

/// Runs `cfg` with an unbounded in-memory trace stream attached (and the
/// metrics registry when `metrics`), for the replays below.
pub fn recorded_run(cfg: &SimConfig, metrics: bool) -> RunReport {
    Simulation::run_with(
        cfg.clone(),
        Instrumentation {
            tracer: Tracer::disabled().with_memory(usize::MAX),
            metrics,
            ..Instrumentation::off()
        },
    )
}

/// The recorded stream of a [`recorded_run`] report.
pub fn records(report: &RunReport) -> Vec<&TraceRecord> {
    report
        .trace_events
        .as_ref()
        .map(|sink| sink.records().collect())
        .unwrap_or_default()
}

/// Each host's initial cell, drawn exactly as `Simulation::new` draws it:
/// the configured mobility model over the root seed's placement stream.
pub fn initial_cells(cfg: &SimConfig) -> Vec<usize> {
    let mut env = cfg
        .env
        .build(&cfg.env_params())
        .expect("a validated environment builds");
    let mut rng = SimRng::new(cfg.seed).fork(1);
    (0..cfg.n_mhs)
        .map(|i| env.mobility.initial_cell(i, &mut rng))
        .collect()
}

/// Replays the stream's sends, receives, basic checkpoints and relocations
/// through fresh protocol instances; returns the forced checkpoints the
/// replay decided.
pub fn replay_cic(cfg: &SimConfig, stream: &[&TraceRecord], layers: &mut Layers) -> u64 {
    let n = cfg.n_mhs;
    let cells = initial_cells(cfg);
    // Coordinated runs keep a bare counter protocol per host for the basic
    // checkpoints; their application traffic goes through the coordinator.
    let (kind, app) = match cfg.protocol {
        ProtocolChoice::Cic(kind) => (kind, true),
        _ => (CicKind::Uncoordinated, false),
    };
    let mut protos: Vec<Box<dyn Protocol>> = (0..n)
        .map(|i| match app {
            true => kind.instantiate_with(i, n, cells[i] as u32, cfg.pb_codec),
            false => kind.instantiate(i, n, cells[i] as u32),
        })
        .collect();
    let mut in_flight: HashMap<u64, Piggyback> = HashMap::new();
    let (mut send, mut receive, mut basic) = (0.0, 0.0, 0.0);
    let (mut forced, mut pb_bytes) = (0u64, 0u64);
    for r in stream {
        let t = Instant::now();
        match r.event {
            TraceEvent::Send { msg, from, to, .. } if app => {
                let pb = protos[from].on_send(to);
                send += t.elapsed().as_secs_f64();
                pb_bytes += pb.wire_bytes() as u64;
                in_flight.insert(msg, pb);
            }
            TraceEvent::Deliver { msg, from, to } if app => {
                let pb = in_flight
                    .remove(&msg)
                    .expect("a delivered message was sent");
                let t = Instant::now();
                let out = protos[to].on_receive(from, &pb);
                receive += t.elapsed().as_secs_f64();
                forced += u64::from(out.forced.is_some());
            }
            TraceEvent::Checkpoint { mh, class, .. } => {
                let reason = match class {
                    CkptClass::CellSwitch => BasicReason::CellSwitch,
                    CkptClass::Disconnect => BasicReason::Disconnect,
                    CkptClass::Periodic => BasicReason::Periodic,
                    CkptClass::Forced | CkptClass::Coordinated => continue,
                };
                black_box(protos[mh].on_basic(reason));
                basic += t.elapsed().as_secs_f64();
            }
            TraceEvent::Handoff {
                mh, to_cell: cell, ..
            }
            | TraceEvent::Reconnect { mh, cell } => {
                protos[mh].on_relocate(cell as u32);
                basic += t.elapsed().as_secs_f64();
            }
            _ => {}
        }
    }
    layers.add("cic.send_s", send);
    layers.add("cic.receive_s", receive);
    layers.add("cic.basic_s", basic);
    layers.add("cic.forced", forced as f64);
    layers.add("cic.pb_bytes", pb_bytes as f64);
    forced
}

/// Replays the stream through the network substrate: a location lookup and
/// a mailbox enqueue per send, a mailbox pop per delivery, directory update
/// and mailbox relocation per move, a stable-storage transfer per
/// checkpoint.
pub fn replay_mobnet(cfg: &SimConfig, stream: &[&TraceRecord], layers: &mut Layers) {
    let mut cell: Vec<MssId> = initial_cells(cfg).into_iter().map(MssId).collect();
    let mut loc = LocationService::new(cell.clone());
    let mut boxes: Mailboxes<()> = Mailboxes::new(&cell);
    let mut store = CkptStore::new(cfg.n_mhs, cfg.incremental);
    let (mut location, mut mailbox, mut storage) = (0.0, 0.0, 0.0);
    for r in stream {
        let t = Instant::now();
        match r.event {
            TraceEvent::Send { msg, from, to, .. } => {
                black_box(loc.lookup(MhId(to)));
                let t1 = Instant::now();
                location += (t1 - t).as_secs_f64();
                boxes.enqueue(
                    MhId(to),
                    Queued {
                        packet: PacketId(msg),
                        from: MhId(from),
                        payload: (),
                    },
                );
                mailbox += t1.elapsed().as_secs_f64();
            }
            TraceEvent::Deliver { to, .. } => {
                black_box(boxes.pop(MhId(to)));
                mailbox += t.elapsed().as_secs_f64();
            }
            TraceEvent::Handoff {
                mh, to_cell: to, ..
            }
            | TraceEvent::Reconnect { mh, cell: to } => {
                loc.update(MhId(mh), MssId(to));
                let t1 = Instant::now();
                location += (t1 - t).as_secs_f64();
                black_box(boxes.relocate(MhId(mh), MssId(to)));
                mailbox += t1.elapsed().as_secs_f64();
                cell[mh] = MssId(to);
            }
            TraceEvent::Checkpoint { mh, .. } => {
                black_box(store.checkpoint(MhId(mh), cell[mh], r.time.as_f64()));
                storage += t.elapsed().as_secs_f64();
            }
            _ => {}
        }
    }
    layers.add("mobnet.location_s", location);
    layers.add("mobnet.mailbox_s", mailbox);
    layers.add("mobnet.store_s", storage);
}

/// Registers, sets and snapshots the names a metrics-on run registers at
/// its end (`finalize_metrics`): the run-level counters and gauges, then
/// four series per host, with the values the run reported.
pub fn replay_registry(cfg: &SimConfig, report: &RunReport, layers: &mut Layers) {
    let run_level: Vec<(&str, u64)> = report
        .metrics
        .counters_with_prefix("")
        .filter(|(name, _)| !name.starts_with("mh."))
        .collect();
    let gauges = [
        "run.end_time",
        "channel.mean_utilization",
        "channel.total_queueing_delay",
        "mailbox.pending_at_end",
    ];
    let energy = mobnet::EnergyModel::default();
    let t = Instant::now();
    let mut reg = MetricsRegistry::new();
    let depth = reg.gauge("mailbox.max_depth");
    reg.set_max(depth, 1.0);
    for (name, value) in run_level {
        let id = reg.counter(name);
        reg.add(id, value);
    }
    for name in gauges {
        let id = reg.gauge(name);
        reg.set(id, 1.0);
    }
    for i in 0..cfg.n_mhs {
        let series = [
            (format!("mh.{i}.ckpts"), report.per_mh_ckpts[i]),
            (
                format!("mh.{i}.wireless_transmissions"),
                report.net.per_mh_wireless[i],
            ),
            (format!("mh.{i}.wireless_bytes"), report.net.per_mh_bytes[i]),
        ];
        for (name, value) in series {
            let id = reg.counter(&name);
            reg.add(id, value);
        }
        let g = reg.gauge(&format!("mh.{i}.energy"));
        reg.set(g, report.net.energy_of(MhId(i), energy));
    }
    black_box(reg.snapshot());
    layers.add("simkit.registry_s", t.elapsed().as_secs_f64());
}

/// One clone of the end-of-run causality trace — the snapshot a crash pays
/// at full history — plus the trace's size in events.
pub fn clone_trace(report: &RunReport, layers: &mut Layers) {
    let Some(trace) = &report.trace else { return };
    black_box(layers.time("causality.clone_s", || trace.clone()));
    layers.add(
        "causality.trace_events",
        (trace.total_checkpoints() + trace.messages().len()) as f64,
    );
}

/// One replay plan and one priced recovery of host 0 failing at the end of
/// the run, over the end-of-run trace and message log.
pub fn plan_failure(cfg: &SimConfig, report: &RunReport, layers: &mut Layers) {
    let Some(trace) = &report.trace else { return };
    let empty = MessageLog::new(cfg.n_mhs);
    let log = report.message_log.as_ref().unwrap_or(&empty);
    let failed = [ProcId(0)];
    black_box(layers.time("relog.plan_s", || {
        ReplayPlan::for_failure(trace, log, &failed, report.end_time)
    }));
    let host = HostSituation {
        proc: ProcId(0),
        attached_mss: 0,
        ckpt_mss: Some(0),
        log_mss: Some(0),
        log_bytes: 0,
    };
    let params = RecoveryParams {
        n_mss: cfg.n_mss,
        ..RecoveryParams::default()
    };
    black_box(layers.time("faultsim.plan_s", || {
        faultsim::plan_recovery(trace, log, &[host], report.end_time, &params)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::same_count;

    fn cfg(protocol: CicKind) -> SimConfig {
        SimConfig {
            protocol: ProtocolChoice::Cic(protocol),
            horizon: 600.0,
            t_switch: 100.0,
            p_switch: 0.8,
            ..SimConfig::default()
        }
    }

    #[test]
    fn own_event_loop_counts_what_the_run_reports() {
        for protocol in [CicKind::Tp, CicKind::Bcs, CicKind::Qbc] {
            let mut layers = Layers::default();
            let counts = event_loop(&cfg(protocol), false, &mut layers);
            let report = Simulation::run(cfg(protocol));
            assert!(same_count("events", counts.events, report.events).is_empty());
            assert!(same_count("events", counts.events + 1, report.events).len() == 1);
        }
    }

    #[test]
    fn stream_replay_decides_the_runs_forced_checkpoints() {
        for protocol in [CicKind::Tp, CicKind::Bcs, CicKind::Qbc] {
            let c = cfg(protocol);
            let report = recorded_run(&c, false);
            let stream = records(&report);
            assert!(
                report.ckpts.forced > 0,
                "{}: nothing to decide",
                protocol.name()
            );
            let forced = replay_cic(&c, &stream, &mut Layers::default());
            assert!(
                same_count("cic.forced", forced, report.ckpts.forced).is_empty(),
                "{}",
                protocol.name()
            );
            // A flipped forced decision: the run and the replay disagree by one.
            assert_eq!(
                same_count("cic.forced", forced, report.ckpts.forced - 1).len(),
                1
            );
            // A stream cut in half decides fewer forced checkpoints.
            let half = replay_cic(&c, &stream[..stream.len() / 2], &mut Layers::default());
            assert_eq!(same_count("cic.forced", half, report.ckpts.forced).len(), 1);
        }
    }

    #[test]
    fn initial_cells_match_the_run_placement() {
        // Every host's first move leaves the cell it was placed in.
        let c = cfg(CicKind::Qbc);
        let cells = initial_cells(&c);
        let report = recorded_run(&c, false);
        let mut seen = vec![false; c.n_mhs];
        for r in records(&report) {
            let (mh, left) = match r.event {
                TraceEvent::Handoff { mh, from_cell, .. } => (mh, from_cell),
                TraceEvent::Disconnect { mh, cell } => (mh, cell),
                TraceEvent::Reconnect { mh, .. } => {
                    seen[mh] = true;
                    continue;
                }
                _ => continue,
            };
            if !std::mem::replace(&mut seen[mh], true) {
                assert_eq!(cells[mh], left, "host {mh}");
            }
        }
    }
}
