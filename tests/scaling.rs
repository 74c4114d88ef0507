//! Scaling checks as correctness: each subsystem's cost must grow linearly
//! with its input, so a quadratic path fails here instead of hiding until
//! a large horizon or a large world.
//!
//! Every check times the same work at size `n` and `4n` (best of 5, to
//! shed scheduler noise) and asserts the larger case costs at most 8× the
//! smaller. Linear code takes about 4×; a quadratic path takes about 16×.
//! The checks take turns, so they never time each other, and a check that
//! misses the bound measures again, up to three times: a slow stretch of a
//! shared host passes, a quadratic path misses every time. Sizes keep
//! each linear case to a few milliseconds in a debug build.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use causality::trace::{CkptKind, MsgId, ProcId, TraceBuilder};
use mck::prelude::*;
use mobnet::topology::AdjacencyGraph;
use mobnet::{LocationService, Mailboxes, MhId, MssId, PacketId, Queued};
use simkit::event::Scheduler;
use simkit::metrics::MetricsRegistry;
use simkit::rng::SimRng;

const GROWTH: usize = 4;
const MAX_RATIO: f64 = 8.0;
const ATTEMPTS: usize = 3;

static TURN: Mutex<()> = Mutex::new(());

/// Best of 5 at `n` and at `GROWTH * n`, the samples interleaved so a
/// slow stretch of the host hits both sizes alike.
fn best_of_5(n: usize, mut work: impl FnMut(usize)) -> (Duration, Duration) {
    let mut time = |size| {
        let t0 = Instant::now();
        work(size);
        t0.elapsed()
    };
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        small = small.min(time(n));
        large = large.min(time(GROWTH * n));
    }
    (small, large)
}

fn assert_linear(what: &str, n: usize, mut work: impl FnMut(usize)) {
    // A failed check poisons the lock; the guarded value is `()`, so the
    // other checks still take their turn.
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut seen = Vec::new();
    for _ in 0..ATTEMPTS {
        let (small, large) = best_of_5(n, &mut work);
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        if ratio <= MAX_RATIO {
            return;
        }
        seen.push(format!("{ratio:.1}x ({small:?} -> {large:?})"));
    }
    panic!(
        "{what}: {GROWTH}x the input took {}; linear code takes about {GROWTH}x",
        seen.join(", ")
    );
}

#[test]
fn trace_recording_is_linear_in_messages() {
    const PROCS: usize = 8;
    assert_linear("TraceBuilder send+recv", 5_000, |n| {
        let mut b = TraceBuilder::new(PROCS);
        for i in 0..n {
            let t = i as f64;
            let (from, to) = (ProcId(i % PROCS), ProcId((i + 1) % PROCS));
            b.send(MsgId(i as u64), from, to, t);
            b.recv(MsgId(i as u64), t);
            if i % 16 == 0 {
                b.checkpoint(to, t, i as u64, CkptKind::Forced);
            }
        }
        black_box(b.finish());
    });
}

#[test]
fn metrics_registration_and_snapshot_are_linear_in_names() {
    let names: Vec<String> = (0..GROWTH * 4_000)
        .map(|i| format!("mh.{i}.ckpts"))
        .collect();
    assert_linear("MetricsRegistry counter+snapshot", 4_000, |n| {
        let mut r = MetricsRegistry::new();
        for (v, name) in names[..n].iter().enumerate() {
            let id = r.counter(name);
            r.add(id, v as u64);
        }
        black_box(r.snapshot());
    });
}

#[test]
fn ring_validation_is_linear_in_cells() {
    assert_linear("AdjacencyGraph::custom ring", 1_500, |cells| {
        let ring: Vec<Vec<usize>> = (0..cells)
            .map(|i| vec![(i + cells - 1) % cells, (i + 1) % cells])
            .collect();
        black_box(AdjacencyGraph::custom(ring).expect("a ring is strongly connected"));
    });
}

/// Mailboxes under the delivery path's operation mix: `n` messages to 16
/// hosts, a hand-off of the receiver every 8th message (forwarding its
/// whole queue) and a receive every other message. Queues grow with `n`,
/// so a forward or pop that walks the queue is quadratic.
#[test]
fn mailboxes_are_linear_in_messages() {
    const HOSTS: usize = 16;
    const CELLS: usize = 8;
    let initial: Vec<MssId> = (0..HOSTS).map(|i| MssId(i % CELLS)).collect();
    assert_linear("Mailboxes enqueue+relocate+pop", 20_000, |n| {
        let mut boxes = Mailboxes::new(&initial);
        for i in 0..n {
            let to = MhId(i % HOSTS);
            let from = MhId((i + 1) % HOSTS);
            boxes.enqueue(
                to,
                Queued {
                    packet: PacketId(i as u64),
                    from,
                    payload: (),
                },
            );
            if i % 8 == 0 {
                let next = MssId((boxes.holder(to).idx() + 1) % CELLS);
                black_box(boxes.relocate(to, next));
            }
            if i % 2 == 0 {
                black_box(boxes.pop(MhId(i / 2 % HOSTS)));
            }
        }
        black_box(boxes.enqueued());
    });
}

/// The location directory over `n` hosts: four rounds of one update (a
/// hand-off) and one lookup (a send) per host.
#[test]
fn location_service_is_linear_in_hosts() {
    const CELLS: usize = 8;
    assert_linear("LocationService update+lookup", 20_000, |n| {
        let mut loc = LocationService::new((0..n).map(|i| MssId(i % CELLS)).collect());
        for round in 0..4 {
            for i in 0..n {
                loc.update(MhId(i), MssId((i + round + 1) % CELLS));
                black_box(loc.lookup(MhId((i * 7 + round) % n)));
            }
        }
        black_box(loc.lookups());
    });
}

/// The pending-event set under the simulator's steady state: `n` pending
/// events, then `n` hold operations (pop, reschedule at an exponential
/// offset). The heap is O(log n) per operation, about 4.5x at 4n; a
/// linear scan per pop takes about 16x.
#[test]
fn scheduler_hold_is_n_log_n_in_pending_events() {
    assert_linear("Scheduler fill+hold", 16_384, |n| {
        let mut rng = SimRng::new(1);
        let mut s = Scheduler::new();
        for i in 0..n {
            s.schedule_in(rng.exp(1.0), i);
        }
        for _ in 0..n {
            let fired = s.pop().expect("n events stay pending");
            s.schedule_in(rng.exp(1.0), fired.event);
        }
        black_box(s.now());
    });
}

/// A coordinated run over its horizon: Chandy–Lamport at the class
/// comparison's point with a round every 25. Each host takes part in every
/// round, so per-host work that rescans all rounds joined so far (as the
/// deleted channel-state recording did on every receive) is quadratic.
#[test]
fn coordinated_run_is_linear_in_horizon() {
    let choice = ProtocolChoice::ChandyLamport { interval: 25.0 };
    assert_linear("Chandy-Lamport run", 4_000, |horizon| {
        let mut cfg = SimConfig::paper(choice, 1000.0, 0.8, 0.0);
        cfg.horizon = horizon as f64;
        black_box(Simulation::run(cfg));
    });
}
