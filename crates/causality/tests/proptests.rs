//! Property-style tests over randomly generated computation traces.
//!
//! Cases are generated deterministically with `SimRng` (an internal
//! dev-dependency), so the suite is reproducible and dependency-free.

use causality::cut::{
    is_consistent, is_consistent_bruteforce, latest_recovery_line, max_consistent_cut_below,
    max_consistent_cut_containing, Cut,
};
use causality::recovery::{recovery_line_after_failure, rollback_cost, volatile_cut};
use causality::rgraph::RGraph;
use causality::trace::{CkptKind, MsgId, ProcId, Trace, TraceBuilder};
use causality::zpath::ZigzagGraph;
use simkit::prelude::SimRng;

const CASES: u64 = 64;

/// A random-trace action: either a checkpoint or a message hop.
#[derive(Debug, Clone)]
enum Action {
    Ckpt { proc: usize },
    Msg { from: usize, to: usize },
}

/// Deterministic random action list with 1..len entries.
fn gen_actions(gen: &mut SimRng, n_procs: usize, len: usize) -> Vec<Action> {
    let n = 1 + gen.index(len - 1);
    (0..n)
        .map(|_| {
            if gen.bernoulli(0.5) {
                Action::Ckpt { proc: gen.index(n_procs) }
            } else {
                let from = gen.index(n_procs);
                let to = gen.index_excluding(n_procs, from);
                Action::Msg { from, to }
            }
        })
        .collect()
}

/// Materializes a trace: messages are delivered after a short delay, so the
/// receive lands wherever later checkpoints put it. Sends and receives are
/// interleaved deterministically from the action list.
fn build_trace(n_procs: usize, acts: &[Action]) -> Trace {
    let mut b = TraceBuilder::new(n_procs);
    let mut time = 1.0;
    let mut next_msg = 0u64;
    let mut in_flight: Vec<(MsgId, usize)> = Vec::new(); // (id, deliver_after_k_actions)
    for (step, act) in acts.iter().enumerate() {
        // Deliver messages whose delay elapsed (2 actions later).
        let mut still = Vec::new();
        for (id, due) in in_flight.drain(..) {
            if step >= due {
                b.recv(id, time);
                time += 0.25;
            } else {
                still.push((id, due));
            }
        }
        in_flight = still;
        match *act {
            Action::Ckpt { proc } => {
                let idx = b.n_checkpoints(ProcId(proc)) as u64;
                b.checkpoint(ProcId(proc), time, idx, CkptKind::Periodic);
            }
            Action::Msg { from, to } => {
                next_msg += 1;
                b.send(MsgId(next_msg), ProcId(from), ProcId(to), time);
                in_flight.push((MsgId(next_msg), step + 2));
            }
        }
        time += 0.25;
    }
    // Deliver stragglers.
    for (id, _) in in_flight {
        b.recv(id, time);
        time += 0.25;
    }
    b.finish()
}

/// The rollback-propagation fixpoint always produces a consistent cut,
/// dominated by its starting point.
#[test]
fn fixpoint_is_consistent_and_dominated() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0001 ^ case);
        let acts = gen_actions(&mut gen, 4, 60);
        let t = build_trace(4, &acts);
        let start = Cut::latest(&t);
        let line = max_consistent_cut_below(&t, &start);
        assert!(line.dominated_by(&start));
        assert!(is_consistent(&t, &line));
        assert!(is_consistent_bruteforce(&t, &line));
    }
}

/// The fixpoint is MAXIMAL: raising any single component by one breaks
/// consistency (or exceeds the starting bound).
#[test]
fn fixpoint_is_maximal() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0002 ^ case);
        let acts = gen_actions(&mut gen, 3, 50);
        let t = build_trace(3, &acts);
        let start = Cut::latest(&t);
        let line = max_consistent_cut_below(&t, &start);
        for p in t.procs() {
            let cur = line.ordinal(p);
            if cur < start.ordinal(p) {
                let mut bumped: Vec<usize> = line.ordinals().to_vec();
                bumped[p.idx()] += 1;
                let bumped = Cut::new(bumped);
                assert!(
                    !is_consistent(&t, &bumped),
                    "bumping {p} from {cur} kept consistency — line was not maximal"
                );
            }
        }
    }
}

/// Netzer–Xu: a checkpoint belongs to no consistent global checkpoint iff
/// it is on a Z-cycle. Cross-validates two independent analyses.
#[test]
fn z_cycle_iff_useless() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0003 ^ case);
        let acts = gen_actions(&mut gen, 3, 40);
        let t = build_trace(3, &acts);
        let g = ZigzagGraph::build(&t);
        for p in t.procs() {
            for c in t.checkpoints(p) {
                let by_cycle = g.on_z_cycle(p, c.ordinal);
                let by_fixpoint = max_consistent_cut_containing(&t, p, c.ordinal).is_none();
                assert_eq!(
                    by_cycle, by_fixpoint,
                    "Netzer–Xu disagreement at ({}, ord {})",
                    p, c.ordinal
                );
            }
        }
    }
}

/// The all-volatile cut is always consistent (every delivered message's
/// send survives), and recovery after any failure yields a consistent line
/// dominated by the volatile cut.
#[test]
fn recovery_line_is_consistent() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0004 ^ case);
        let acts = gen_actions(&mut gen, 4, 60);
        let failed = gen.index(4);
        let t = build_trace(4, &acts);
        assert!(is_consistent(&t, &volatile_cut(&t)));
        let line = recovery_line_after_failure(&t, &[ProcId(failed)]);
        assert!(is_consistent(&t, &line));
        assert!(line.dominated_by(&volatile_cut(&t)));
        // The failed process can never keep volatile state.
        assert!(line.ordinal(ProcId(failed)) < t.checkpoints(ProcId(failed)).len());
        // Costs are well-formed.
        let cost = rollback_cost(&t, &line, 1e6);
        assert!(cost.total_time_undone() >= 0.0);
        assert_eq!(cost.time_undone.len(), 4);
    }
}

/// The R-graph reachability formulation and the rollback-propagation
/// fixpoint compute the SAME recovery line after any failure — two
/// independent algorithms validating each other.
#[test]
fn rgraph_agrees_with_fixpoint() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0005 ^ case);
        let acts = gen_actions(&mut gen, 4, 60);
        let failed = gen.index(4);
        let t = build_trace(4, &acts);
        let g = RGraph::build(&t);
        let via_graph = g.recovery_line_after_failure(&[ProcId(failed)]);
        let via_fixpoint = recovery_line_after_failure(&t, &[ProcId(failed)]);
        assert_eq!(via_graph.ordinals(), via_fixpoint.ordinals());
        // And for multi-failures.
        let all: Vec<ProcId> = t.procs().collect();
        let g_all = g.recovery_line_after_failure(&all);
        let f_all = recovery_line_after_failure(&t, &all);
        assert_eq!(g_all.ordinals(), f_all.ordinals());
    }
}

/// latest_recovery_line equals the fixpoint from the latest stable cut.
#[test]
fn latest_line_definition() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0008 ^ case);
        let acts = gen_actions(&mut gen, 3, 50);
        let t = build_trace(3, &acts);
        let a = latest_recovery_line(&t);
        let b = max_consistent_cut_below(&t, &Cut::latest(&t));
        assert_eq!(a.ordinals(), b.ordinals());
    }
}

/// Consistency is monotone under intersection-like lattice meet: the
/// componentwise minimum of two consistent cuts is consistent.
/// (Consistent cuts form a lattice.)
#[test]
fn consistent_cuts_closed_under_min() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xCA_0009 ^ case);
        let acts = gen_actions(&mut gen, 3, 50);
        let seed_a = gen.index(3);
        let seed_b = gen.index(3);
        let t = build_trace(3, &acts);
        // Derive two consistent cuts by pinning different processes' last
        // checkpoints and fixpointing.
        let mut start_a = Cut::latest(&t);
        start_a.set_ordinal(ProcId(seed_a), t.checkpoints(ProcId(seed_a)).len() - 1);
        let a = max_consistent_cut_below(&t, &start_a);
        let mut start_b = Cut::latest(&t);
        start_b.set_ordinal(ProcId(seed_b), 0);
        let b = max_consistent_cut_below(&t, &start_b);
        let meet = Cut::new(
            a.ordinals()
                .iter()
                .zip(b.ordinals())
                .map(|(x, y)| *x.min(y))
                .collect(),
        );
        assert!(is_consistent(&t, &meet), "meet of consistent cuts must be consistent");
    }
}
