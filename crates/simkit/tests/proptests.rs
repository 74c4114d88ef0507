//! Property-style tests for the simkit engine invariants.
//!
//! These were originally `proptest` properties; they are now expressed as
//! plain tests iterating over deterministically generated random cases (the
//! generator is `SimRng` itself, so the whole suite stays dependency-free and
//! exactly reproducible).

use simkit::prelude::*;

/// Number of random cases per property.
const CASES: u64 = 64;

/// Events are always popped in non-decreasing time order, regardless of the
/// insertion order, and FIFO within equal timestamps.
#[test]
fn scheduler_orders_events() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0x5EED_0001 ^ case);
        let n = 1 + gen.index(200);
        let times: Vec<f64> = (0..n).map(|_| gen.uniform_in(0.0, 1000.0)).collect();
        let mut sched = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            sched.schedule_at(SimTime::new(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = vec![];
        while let Some(f) = sched.pop() {
            assert!(f.time >= last_time, "time went backwards");
            if f.time > last_time {
                seen_at_time.clear();
            }
            // FIFO within ties: insertion indices at equal time are increasing.
            if let Some(&prev) = seen_at_time.last() {
                if f.time == last_time {
                    assert!(f.event > prev, "tie broken out of FIFO order");
                }
            }
            seen_at_time.push(f.event);
            last_time = f.time;
        }
    }
}

/// The exponential sampler is non-negative and scales with its mean.
#[test]
fn exponential_scales() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0x5EED_0003 ^ case);
        let seed = gen.next_u64();
        let mean = gen.uniform_in(0.001, 1000.0);
        let mut rng = SimRng::new(seed);
        let n = 2000;
        let sum: f64 = (0..n)
            .map(|_| {
                let x = rng.exp(mean);
                assert!(x >= 0.0);
                x
            })
            .sum();
        let sample_mean = sum / n as f64;
        // Loose 5-sigma bound: sd of the mean is mean/sqrt(n).
        assert!(
            (sample_mean - mean).abs() < 5.0 * mean / (n as f64).sqrt() + 1e-9,
            "sample mean {sample_mean} for mean {mean} (case {case})"
        );
    }
}

/// Forked substreams are reproducible and order-independent.
#[test]
fn fork_reproducibility() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0x5EED_0004 ^ case);
        let seed = gen.next_u64();
        let n = 1 + gen.index(10);
        let streams: Vec<u64> = (0..n).map(|_| gen.next_u64()).collect();
        let root = SimRng::new(seed);
        let first: Vec<Vec<u64>> = streams
            .iter()
            .map(|&s| {
                let mut r = root.fork(s);
                (0..10).map(|_| r.next_u64()).collect()
            })
            .collect();
        // Re-fork in reverse order; identical streams must match.
        for (i, &s) in streams.iter().enumerate().rev() {
            let mut r = root.fork(s);
            let again: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
            assert_eq!(again, first[i]);
        }
    }
}

/// index_excluding is a bijection-respecting remap: never the excluded
/// index, always in range.
#[test]
fn index_excluding_in_range() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0x5EED_0006 ^ case);
        let seed = gen.next_u64();
        let n = 2 + gen.index(48);
        let not = gen.index(n);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let i = rng.index_excluding(n, not);
            assert!(i < n);
            assert_ne!(i, not);
        }
    }
}

/// A deterministic end-to-end check: two identical models with the same seed
/// produce identical event counts and end times.
#[test]
fn runs_are_deterministic() {
    struct M {
        rng: SimRng,
        hops: u64,
    }
    impl Model for M {
        type Event = u32;
        fn handle(&mut self, sched: &mut Scheduler<u32>, fired: Fired<u32>) -> Control {
            self.hops = self.hops.wrapping_mul(31).wrapping_add(fired.event as u64);
            if self.rng.bernoulli(0.7) {
                sched.schedule_in(self.rng.exp(1.0), fired.event.wrapping_add(1));
            }
            if self.rng.bernoulli(0.5) {
                sched.schedule_in(self.rng.exp(2.0), fired.event.wrapping_mul(3));
            }
            Control::Continue
        }
    }

    let run = |seed: u64| {
        let mut m = M {
            rng: SimRng::new(seed),
            hops: 0,
        };
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::new(i as f64 * 0.1), i);
        }
        let out = run_until(&mut m, &mut s, SimTime::new(50.0));
        (m.hops, out.events_handled, out.end_time)
    };

    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, run(100).0);
}

/// Linear-scan reference pending-event set: `pop` removes the minimum
/// `(time, insertion index)` of a `Vec`.
struct Reference {
    pending: Vec<(SimTime, u64, u64)>,
    inserted: u64,
    popped: u64,
    now: SimTime,
}

impl Reference {
    fn schedule_at(&mut self, at: SimTime, id: u64) {
        self.pending.push((at, self.inserted, id));
        self.inserted += 1;
    }

    /// Position of the minimum `(time, insertion index)`.
    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&k| (self.pending[k].0, self.pending[k].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|k| self.pending[k].0)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (time, _, id) = self.pending.swap_remove(self.head()?);
        self.now = time;
        self.popped += 1;
        Some((time, id))
    }
}

/// Two pending-event backends, the heap `Scheduler` and the linear-scan
/// reference, pop exactly the same events under the simulator's real
/// operation mix: bursts of schedules (long-tail exponential offsets, exact
/// ties), interleaved `peek_time`, and fill/drain waves that grow the set to
/// hundreds of events and drain it back down.
#[test]
fn scheduler_backends_agree_under_real_mix() {
    for case in 0..CASES {
        let mut gen = SimRng::new(0x5EED_0008 ^ case);
        let mut heap = Scheduler::new();
        let mut reference = Reference {
            pending: vec![],
            inserted: 0,
            popped: 0,
            now: SimTime::ZERO,
        };
        let mut next_id = 0u64;
        // Three waves: grow (schedule-heavy), churn (balanced), drain
        // (pop-heavy).
        for &(p_sched, ops) in &[(0.85, 400usize), (0.45, 300), (0.10, 500)] {
            for _ in 0..ops {
                if gen.uniform_in(0.0, 1.0) < p_sched {
                    // Ties are common in the simulator (zero-latency hops),
                    // so schedule exact duplicates with probability 1/4.
                    let dt = if gen.bernoulli(0.25) {
                        0.0
                    } else {
                        let mean = gen.uniform_in(0.01, 200.0);
                        gen.exp(mean)
                    };
                    let at = SimTime::new(heap.now().as_f64() + dt);
                    next_id += 1;
                    heap.schedule_at(at, next_id);
                    reference.schedule_at(at, next_id);
                } else {
                    if gen.bernoulli(0.3) {
                        assert_eq!(heap.peek_time(), reference.peek_time());
                    }
                    let got = heap.pop().map(|f| (f.time, f.event));
                    assert_eq!(got, reference.pop(), "pop diverged (case {case})");
                }
            }
            assert_eq!(heap.len(), reference.pending.len(), "case {case}");
        }
        // Drain both to the end.
        loop {
            let got = heap.pop().map(|f| (f.time, f.event));
            assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
        assert_eq!(heap.popped(), reference.popped);
        assert_eq!(heap.scheduled(), reference.inserted);
        assert_eq!(heap.now(), reference.now);
    }
}
