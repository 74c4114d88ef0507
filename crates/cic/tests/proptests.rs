//! Property-style tests: protocol executions vs. the causality oracle.
//!
//! A miniature zero-latency multi-host harness drives each protocol through
//! random schedules of sends, receives and basic checkpoints, records a
//! `causality::Trace`, and then checks the protocols' correctness theorems
//! against the protocol-agnostic consistency machinery:
//!
//! * **BCS/QBC**: every same-index recovery line is consistent;
//! * **TP/BCS/QBC**: every checkpoint taken belongs to some consistent
//!   global checkpoint (no useless checkpoints / no Z-cycles);
//! * **QBC**: a checkpoint flagged as *replacing its predecessor* really is
//!   equivalent — substituting it into the recovery line keeps consistency.
//!
//! Random cases are generated deterministically with `SimRng` (no external
//! test dependencies).

use causality::cut::{is_consistent, max_consistent_cut_containing, Cut};
use causality::trace::{CkptKind, MsgId, ProcId, Trace, TraceBuilder};
use cic::prelude::*;
use cic::recovery::{all_index_lines, max_index};
use simkit::prelude::SimRng;

#[derive(Debug, Clone)]
enum Step {
    /// Host takes a basic checkpoint (cell switch or disconnect).
    Basic { host: usize, disconnect: bool },
    /// Host sends an application message to another host (delivered after
    /// `delay` further steps, FIFO per pair).
    Send { from: usize, to_offset: usize, delay: usize },
}

/// Deterministic random schedule of at most `len - 1` steps.
fn gen_steps(gen: &mut SimRng, n_hosts: usize, len: usize) -> Vec<Step> {
    let n = 1 + gen.index(len - 1);
    (0..n)
        .map(|_| {
            if gen.bernoulli(0.5) {
                Step::Basic {
                    host: gen.index(n_hosts),
                    disconnect: gen.bernoulli(0.5),
                }
            } else {
                Step::Send {
                    from: gen.index(n_hosts),
                    to_offset: 1 + gen.index(n_hosts - 1),
                    delay: gen.index(3),
                }
            }
        })
        .collect()
}

/// Runs a schedule against a set of protocol instances, recording the trace.
/// Each host's QBC "replacement" flags are returned alongside.
struct HarnessOut {
    trace: Trace,
    /// (host, ordinal, index) of checkpoints flagged replaces_predecessor.
    replacements: Vec<(usize, usize, u64)>,
    total_ckpts: usize,
}

fn run_schedule(mut protos: Vec<Box<dyn Protocol>>, schedule: &[Step]) -> HarnessOut {
    let n = protos.len();
    let mut b = TraceBuilder::new(n);
    let mut time = 1.0;
    let mut next_id = 0u64;
    let mut replacements = Vec::new();
    let mut total = 0usize;
    // In-flight: (due_step, MsgId, from, to, piggyback). Sorted by insertion;
    // delivery scans in order → FIFO per pair.
    let mut in_flight: Vec<(usize, MsgId, usize, usize, Piggyback)> = Vec::new();

    for (step_no, step) in schedule.iter().enumerate() {
        // Deliver everything due.
        let mut keep = Vec::new();
        for (due, id, from, to, pb) in in_flight.drain(..) {
            if due <= step_no {
                let out = protos[to].on_receive(from, &pb);
                if let Some(idx) = out.forced {
                    b.checkpoint(ProcId(to), time, idx, CkptKind::Forced);
                    total += 1;
                    time += 0.25;
                }
                b.recv(id, time);
                time += 0.25;
            } else {
                keep.push((due, id, from, to, pb));
            }
        }
        in_flight = keep;

        match *step {
            Step::Basic { host, disconnect } => {
                let reason = if disconnect {
                    BasicReason::Disconnect
                } else {
                    BasicReason::CellSwitch
                };
                let c = protos[host].on_basic(reason);
                let ordinal = b.checkpoint(ProcId(host), time, c.index, reason.kind());
                total += 1;
                if c.replaces_predecessor {
                    replacements.push((host, ordinal, c.index));
                }
                time += 0.25;
            }
            Step::Send { from, to_offset, delay } => {
                let to = (from + to_offset) % n;
                debug_assert_ne!(from, to);
                let pb = protos[from].on_send(to);
                next_id += 1;
                b.send(MsgId(next_id), ProcId(from), ProcId(to), time);
                in_flight.push((step_no + delay, MsgId(next_id), from, to, pb));
                time += 0.25;
            }
        }
    }
    // Flush stragglers in order.
    in_flight.sort_by_key(|(due, id, ..)| (*due, id.0));
    for (_, id, from, to, pb) in in_flight {
        let out = protos[to].on_receive(from, &pb);
        if let Some(idx) = out.forced {
            b.checkpoint(ProcId(to), time, idx, CkptKind::Forced);
            total += 1;
            time += 0.25;
        }
        b.recv(id, time);
        time += 0.25;
    }

    HarnessOut {
        trace: b.finish(),
        replacements,
        total_ckpts: total,
    }
}

fn make_protocols(kind: CicKind, n: usize) -> Vec<Box<dyn Protocol>> {
    (0..n).map(|i| kind.instantiate(i, n, 0)).collect()
}

const N_HOSTS: usize = 4;
const CASES: u64 = 48;

/// BCS theorem: every same-index line is a consistent global checkpoint.
#[test]
fn bcs_index_lines_consistent() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0001 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 80);
        let out = run_schedule(make_protocols(CicKind::Bcs, N_HOSTS), &schedule);
        for (k, line) in all_index_lines(&out.trace) {
            assert!(
                is_consistent(&out.trace, &line),
                "BCS line k={k} inconsistent: {:?}",
                line.ordinals()
            );
        }
    }
}

/// QBC inherits the BCS consistency rule.
#[test]
fn qbc_index_lines_consistent() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0002 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 80);
        let out = run_schedule(make_protocols(CicKind::Qbc, N_HOSTS), &schedule);
        for (k, line) in all_index_lines(&out.trace) {
            assert!(
                is_consistent(&out.trace, &line),
                "QBC line k={k} inconsistent: {:?}",
                line.ordinals()
            );
        }
    }
}

/// QBC's refinement: selecting the LAST checkpoint of each index (the
/// replacement survivor) instead of the first also yields consistent lines —
/// the equivalence relation of [6,14] in action.
#[test]
fn qbc_replacement_lines_consistent() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0003 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 80);
        let out = run_schedule(make_protocols(CicKind::Qbc, N_HOSTS), &schedule);
        let t = &out.trace;
        for k in 0..=max_index(t) {
            let line = Cut::new(
                t.procs()
                    .map(|p| {
                        let ckpts = t.checkpoints(p);
                        // Last checkpoint with index == k, else first with
                        // index >= k, else volatile.
                        ckpts
                            .iter()
                            .filter(|c| c.index == k)
                            .map(|c| c.ordinal)
                            .next_back()
                            .or_else(|| ckpts.iter().find(|c| c.index >= k).map(|c| c.ordinal))
                            .unwrap_or(ckpts.len())
                    })
                    .collect(),
            );
            assert!(
                is_consistent(t, &line),
                "QBC replacement line k={k} inconsistent: {:?}",
                line.ordinals()
            );
        }
    }
}

/// `index_line` edge behaviour over random BCS executions: a host that
/// never reached index `k` contributes its volatile state (ordinal =
/// checkpoint count), every line — including one past `max_index`, where
/// every host is volatile — is consistent under `causality::cut`, and the
/// line's ordinal really selects the first checkpoint with index `>= k`.
#[test]
fn index_line_handles_hosts_that_never_reach_k() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0007 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 80);
        let out = run_schedule(make_protocols(CicKind::Bcs, N_HOSTS), &schedule);
        let t = &out.trace;
        for k in 0..=max_index(t) + 1 {
            let line = cic::recovery::index_line(t, k);
            assert!(
                is_consistent(t, &line),
                "case {case}: line k={k} inconsistent: {:?}",
                line.ordinals()
            );
            for p in t.procs() {
                let ckpts = t.checkpoints(p);
                match ckpts.iter().find(|c| c.index >= k) {
                    Some(c) => assert_eq!(line.ordinal(p), c.ordinal),
                    None => assert_eq!(
                        line.ordinal(p),
                        ckpts.len(),
                        "case {case}: {p} never reached k={k}, must stay volatile"
                    ),
                }
            }
        }
        // One past the maximum: the fully volatile cut.
        let beyond = cic::recovery::index_line(t, max_index(t) + 1);
        for p in t.procs() {
            assert_eq!(beyond.ordinal(p), t.checkpoints(p).len());
        }
    }
}

/// No protocol ever takes a useless checkpoint: each one belongs to some
/// consistent global checkpoint (allowing volatile completions).
#[test]
fn no_useless_checkpoints() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0004 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 60);
        let kind = CicKind::PAPER[gen.index(CicKind::PAPER.len())];
        let out = run_schedule(make_protocols(kind, N_HOSTS), &schedule);
        let t = &out.trace;
        for p in t.procs() {
            for c in t.checkpoints(p) {
                assert!(
                    max_consistent_cut_containing(t, p, c.ordinal).is_some(),
                    "{kind}: checkpoint ({p}, ord {}) is useless",
                    c.ordinal
                );
            }
        }
    }
}

/// QBC replacement flags are truthful: the flagged checkpoint has the same
/// index as its predecessor-in-index, and swapping it into the line
/// preserves consistency (tested via qbc_replacement_lines too; here we
/// check the flag-index agreement).
#[test]
fn qbc_replacement_flags_truthful() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0005 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 80);
        let out = run_schedule(make_protocols(CicKind::Qbc, N_HOSTS), &schedule);
        let t = &out.trace;
        for (host, ordinal, index) in &out.replacements {
            let ckpts = t.checkpoints(ProcId(*host));
            let me = &ckpts[*ordinal];
            assert_eq!(me.index, *index);
            // Some earlier checkpoint of the same host carries the same
            // index (the one being replaced; ordinal 0 carries index 0).
            assert!(
                ckpts[..*ordinal].iter().any(|c| c.index == *index),
                "replacement at ({host}, {ordinal}) has no predecessor with index {index}"
            );
        }
    }
}

/// The number of checkpoints in the trace equals the harness count —
/// nothing lost, nothing double-recorded (meta-check of the harness).
#[test]
fn trace_checkpoint_accounting() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0006 ^ case);
        let schedule = gen_steps(&mut gen, N_HOSTS, 60);
        let kind = CicKind::ALL[gen.index(CicKind::ALL.len())];
        let out = run_schedule(make_protocols(kind, N_HOSTS), &schedule);
        assert_eq!(out.trace.total_checkpoints(), out.total_ckpts);
    }
}

/// On send-free schedules all protocols take exactly the basic checkpoints
/// (no communication ⇒ nothing induced).
#[test]
fn no_communication_no_forced() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0xC1C_0007 ^ case);
        let n = 1 + gen.index(39);
        let schedule: Vec<Step> = (0..n)
            .map(|_| Step::Basic {
                host: gen.index(N_HOSTS),
                disconnect: false,
            })
            .collect();
        for kind in CicKind::PAPER {
            let out = run_schedule(make_protocols(kind, N_HOSTS), &schedule);
            assert_eq!(out.trace.total_checkpoints(), schedule.len(), "{kind}");
        }
    }
}

/// Koo–Toueg liveness: for any dependency pattern and any delivery order of
/// its control messages, every session terminates with all participants
/// unblocked and exactly one checkpoint per participant.
#[test]
fn koo_toueg_sessions_always_terminate() {
    for case in 0..256u64 {
        let mut gen = SimRng::new(0xC1C_0008 ^ case);
        let n = 5;
        let n_msgs = gen.index(25);
        let initiator = gen.index(n);
        let mut procs: Vec<KooToueg> = (0..n).map(|i| KooToueg::new(i, n)).collect();
        // Build random transitive dependencies from an app-message pattern.
        for _ in 0..n_msgs {
            let from = gen.index(n);
            let to = (from + 1 + gen.index(n - 1)) % n;
            let pb = procs[from].on_send(to);
            procs[to].on_receive(from, &pb);
        }
        // Initiate one session and pump its control messages to quiescence,
        // choosing the next delivery pseudo-randomly.
        let mut pending: Vec<(usize, usize, ControlMsg)> = Vec::new(); // (from, to, msg)
        let act0 = procs[initiator].initiate(1);
        let mut ckpts = u64::from(act0.checkpoint.is_some());
        for (to, m) in act0.send {
            pending.push((initiator, to, m));
        }
        let mut steps = 0;
        while !pending.is_empty() {
            steps += 1;
            assert!(steps < 10_000, "session did not quiesce");
            let idx = gen.index(pending.len());
            let (from, to, msg) = pending.swap_remove(idx);
            let action = procs[to].on_control(from, &msg);
            ckpts += u64::from(action.checkpoint.is_some());
            for (dest, m) in action.send {
                pending.push((to, dest, m));
            }
        }
        // Liveness: nobody remains blocked.
        for (i, p) in procs.iter().enumerate() {
            assert!(!p.is_blocked(), "process {i} still blocked");
        }
        // Each participant checkpointed exactly once this session.
        let participated = procs.iter().filter(|p| p.current_index() > 0).count() as u64;
        assert_eq!(ckpts, participated);
        assert!(ckpts >= 1, "at least the initiator checkpoints");
    }
}
