//! End-to-end smoke tests of the composed simulator.

use mck::prelude::*;

fn base_cfg(kind: CicKind) -> SimConfig {
    SimConfig {
        protocol: ProtocolChoice::Cic(kind),
        t_switch: 200.0,
        p_switch: 0.8,
        horizon: 1000.0,
        seed: 9,
        ..Default::default()
    }
}

#[test]
fn every_protocol_runs_to_horizon() {
    for kind in CicKind::ALL {
        let r = Simulation::run(base_cfg(kind));
        assert!(r.end_time <= 1000.0);
        assert!(r.events > 1000, "{kind}: suspiciously few events");
        assert!(r.n_tot() > 0, "{kind}: no checkpoints at all");
        assert!(r.msgs_sent > 0 && r.msgs_delivered > 0, "{kind}: no traffic");
        assert!(r.handoffs > 0, "{kind}: nobody moved");
        assert_eq!(r.per_mh_ckpts.len(), 10);
        assert_eq!(r.per_mh_ckpts.iter().sum::<u64>(), r.n_tot());
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = Simulation::run(base_cfg(CicKind::Qbc));
    let b = Simulation::run(base_cfg(CicKind::Qbc));
    assert_eq!(a.n_tot(), b.n_tot());
    assert_eq!(a.msgs_sent, b.msgs_sent);
    assert_eq!(a.events, b.events);
    assert_eq!(a.per_mh_ckpts, b.per_mh_ckpts);
    assert_eq!(a.net.wireless_transmissions, b.net.wireless_transmissions);

    let mut cfg = base_cfg(CicKind::Qbc);
    cfg.seed = 10;
    let c = Simulation::run(cfg);
    assert!(
        c.events != a.events || c.n_tot() != a.n_tot(),
        "different seeds should diverge"
    );
}

#[test]
fn disconnections_only_when_p_switch_below_one() {
    let mut cfg = base_cfg(CicKind::Bcs);
    cfg.p_switch = 1.0;
    let r = Simulation::run(cfg);
    assert_eq!(r.disconnects, 0);
    assert_eq!(r.ckpts.disconnect, 0);

    let mut cfg = base_cfg(CicKind::Bcs);
    cfg.p_switch = 0.5;
    cfg.horizon = 2000.0;
    let r = Simulation::run(cfg);
    assert!(r.disconnects > 0, "P_switch=0.5 must disconnect sometimes");
    assert!(r.reconnects <= r.disconnects);
    assert_eq!(r.ckpts.disconnect, r.disconnects);
}

#[test]
fn handoffs_match_cell_switch_checkpoints() {
    let r = Simulation::run(base_cfg(CicKind::Qbc));
    assert_eq!(r.ckpts.cell_switch, r.handoffs);
}

#[test]
fn messages_are_conserved() {
    let r = Simulation::run(base_cfg(CicKind::Bcs));
    // Deliveries never exceed sends; with a receive-capable workload most
    // messages get through within the horizon.
    assert!(r.msgs_delivered <= r.msgs_sent);
    assert!(
        r.msgs_delivered as f64 >= 0.5 * r.msgs_sent as f64,
        "{} of {} delivered",
        r.msgs_delivered,
        r.msgs_sent
    );
}

#[test]
fn piggyback_overhead_ranks_tp_highest() {
    let tp = Simulation::run(base_cfg(CicKind::Tp));
    let bcs = Simulation::run(base_cfg(CicKind::Bcs));
    let un = Simulation::run(base_cfg(CicKind::Uncoordinated));
    // Per sent message: TP = 2n ints (80 B at n=10), BCS = 1 int, UNCOORD = 0.
    let per_sent = |r: &mck::report::RunReport| r.net.piggyback_bytes as f64 / r.msgs_sent as f64;
    assert!(per_sent(&tp) > per_sent(&bcs));
    assert_eq!(un.net.piggyback_bytes, 0);
    assert!((per_sent(&tp) - 80.0).abs() < 1e-9);
    assert!((per_sent(&bcs) - 4.0).abs() < 1e-9);
}

#[test]
fn at_least_once_duplicates_are_invisible_to_the_application() {
    let mut with_dups = base_cfg(CicKind::Qbc);
    with_dups.dup_prob = 0.3;
    let r = Simulation::run(with_dups);
    assert!(r.net.duplicates_injected > 0, "dup_prob=0.3 must duplicate");
    assert!(r.net.duplicates_suppressed <= r.net.duplicates_injected);
    // Deliveries never exceed unique sends.
    assert!(r.msgs_delivered <= r.msgs_sent);
}

#[test]
fn checkpoint_storage_accounts_every_checkpoint() {
    let r = Simulation::run(base_cfg(CicKind::Bcs));
    // Every checkpoint shipped bytes to stable storage.
    assert!(r.net.ckpt_wireless_bytes > 0);
    // Cell switches force cross-MSS base fetches eventually.
    assert!(r.net.ckpt_fetch_bytes > 0);
}

#[test]
fn energy_ledger_is_populated() {
    let r = Simulation::run(base_cfg(CicKind::Qbc));
    let total = r.net.total_energy(Default::default());
    assert!(total > 0.0);
    for i in 0..10 {
        assert!(r.net.per_mh_wireless[i] > 0, "host {i} never transmitted");
    }
}

#[test]
fn trace_recording_matches_counters() {
    let mut cfg = base_cfg(CicKind::Qbc);
    cfg.record_trace = true;
    let r = Simulation::run(cfg);
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(trace.total_checkpoints() as u64, r.n_tot());
    let delivered = trace.messages().iter().filter(|m| m.delivered()).count();
    assert_eq!(delivered as u64, r.msgs_delivered);
    assert_eq!(trace.messages().len() as u64, r.msgs_sent);
}

#[test]
fn checkpoint_duration_slows_but_does_not_change_shape() {
    // The paper: a non-negligible checkpoint time has no remarkable impact
    // on the number of checkpoints.
    let fast = Simulation::run(base_cfg(CicKind::Bcs));
    let mut cfg = base_cfg(CicKind::Bcs);
    cfg.ckpt_duration = 0.5;
    let slow = Simulation::run(cfg);
    let (a, b) = (fast.n_tot() as f64, slow.n_tot() as f64);
    assert!(
        (a - b).abs() / a < 0.25,
        "ckpt duration changed N_tot too much: {a} vs {b}"
    );
}

#[test]
fn channel_contention_slows_but_preserves_guarantees() {
    // Pure-latency model: no utilization reported.
    let free = Simulation::run(base_cfg(CicKind::Bcs));
    assert_eq!(free.channel_utilization, 0.0);
    assert_eq!(free.channel_queueing_delay, 0.0);

    // Finite bandwidth: channels are occupied and queueing appears.
    let mut cfg = base_cfg(CicKind::Bcs);
    cfg.wireless_bandwidth = 20_000.0;
    let tight = Simulation::run(cfg);
    assert!(tight.channel_utilization > 0.0);
    assert!(tight.channel_utilization <= 1.0);
    assert!(tight.channel_queueing_delay > 0.0);
    // Messages still flow and checkpoints still happen.
    assert!(tight.msgs_delivered > 0);
    assert!(tight.n_tot() > 0);
}

#[test]
fn tp_contends_for_the_channel_more_than_index_protocols() {
    let run = |kind| {
        let mut cfg = base_cfg(kind);
        cfg.wireless_bandwidth = 20_000.0;
        cfg.horizon = 2000.0;
        Simulation::run(cfg)
    };
    let tp = run(CicKind::Tp);
    let qbc = run(CicKind::Qbc);
    assert!(
        tp.channel_utilization > qbc.channel_utilization,
        "TP util {} should exceed QBC util {}",
        tp.channel_utilization,
        qbc.channel_utilization
    );
}

/// The run's event log is the tracer's bounded memory sink.
#[test]
fn event_log_records_checkpoints_and_mobility() {
    let instr = Instrumentation {
        tracer: simkit::trace::Tracer::disabled().with_memory(50_000),
        ..Instrumentation::off()
    };
    let r = Simulation::run_with(base_cfg(CicKind::Qbc), instr);
    let log = r.trace_events.as_ref().expect("memory sink attached");
    assert_eq!(log.dropped(), 0, "the ring was big enough");
    let count = |kind: &str| log.records().filter(|rec| rec.event.kind() == kind).count() as u64;
    // Every checkpoint produced one record.
    assert_eq!(count("checkpoint"), r.n_tot());
    assert_eq!(
        count("handoff") + count("disconnect"),
        r.handoffs + r.disconnects
    );
    // Timestamps are non-decreasing.
    let times: Vec<f64> = log.records().map(|rec| rec.time.as_f64()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    // Disabled by default.
    let silent = Simulation::run(base_cfg(CicKind::Qbc));
    assert!(silent.trace_events.is_none());
}
