//! Microbenchmarks of the discrete-event engine.

use mck_bench::{black_box, Bench};
use simkit::prelude::*;

/// Schedule/pop churn with a bounded pending set (the simulator's steady
/// state: every popped event schedules a successor).
fn bench_scheduler(b: &mut Bench) {
    for &pending in &[64usize, 1024, 16384] {
        b.bench(&format!("scheduler/hold_churn/{pending}"), move || {
            let mut s = Scheduler::new();
            let mut rng = SimRng::new(1);
            for i in 0..pending {
                s.schedule_in(rng.exp(1.0), i as u64);
            }
            // 10k hold operations.
            for _ in 0..10_000 {
                let ev = s.pop().expect("non-empty");
                s.schedule_in(rng.exp(1.0), ev.event + 1);
            }
            black_box(s.now())
        });
    }
}

fn bench_rng(b: &mut Bench) {
    let mut rng = SimRng::new(7);
    b.bench("rng/exp", move || black_box(rng.exp(1.0)));
    let mut rng = SimRng::new(7);
    b.bench("rng/bernoulli", move || black_box(rng.bernoulli(0.4)));
    let mut rng = SimRng::new(7);
    b.bench("rng/index_excluding", move || {
        black_box(rng.index_excluding(10, 3))
    });
}

fn bench_stats(b: &mut Bench) {
    b.bench("stats/tally_record_1k", || {
        let mut t = Tally::new();
        for i in 0..1000 {
            t.record(i as f64 * 0.001);
        }
        black_box(t.mean())
    });
}

fn main() {
    let mut b = Bench::from_args("engine");
    bench_scheduler(&mut b);
    bench_rng(&mut b);
    bench_stats(&mut b);
    b.finish();
}
