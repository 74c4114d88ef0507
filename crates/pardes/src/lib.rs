//! Conservative cell-partitioned parallel execution of one simulation run.
//!
//! The serial engine processes one global time-ordered event queue. This
//! backend splits the same run across OS threads by *MSS cell*: partition of
//! cell `c` is `c % workers`, each worker owns the cells of its partition
//! plus the hosts they are responsible for, and runs the unmodified
//! event-handling code over lookahead-bounded time windows.
//!
//! # Why it is exact
//!
//! Every interaction between two hosts takes at least one wireless hop
//! (latency `L = cfg.latencies.wireless > 0`): a message sent at time `t`
//! cannot be delivered before `t + L`. So if every worker has processed all
//! its events up to some global time `t0` (the minimum next-event time
//! across workers), each may safely process *all* of its events strictly
//! before `w_end = min(t0 + L, horizon)` without hearing from the others —
//! the classic conservative time-window scheme. At the window barrier the
//! workers exchange:
//!
//! * **cross sends** — a send to a host another partition owns is priced
//!   up to the uplink by the sender and resolved (wired leg, delivery
//!   scheduling) by the owner, reproducing byte-for-byte what the serial
//!   directory lookup would have produced at the send instant;
//! * **migrations** — a host whose responsible cell moved into another
//!   partition hands over its full private state (protocol, RNG
//!   substreams, mailbox queue, stored checkpoint, pending events).
//!
//! Ownership changes only at barriers: a host roaming into a foreign cell
//! mid-window stays with its old owner until the window ends, which is
//! observationally equivalent because — under the compatibility gate (CIC
//! protocols, unlimited bandwidth, no failures/logging/duplication) —
//! nothing any other host observes depends on which replica fires its
//! events. End-of-run artifacts are byte-identical to the serial run; the
//! cross-backend parity tests enforce this.
//!
//! Configurations outside the gate (or `workers <= 1`) fall back to the
//! serial engine, so `run` is always safe to call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mck::config::SimConfig;
use mck::report::RunReport;
use mck::simulation::{CrossSend, Ev, Instrumentation, Migration, Simulation};
use simkit::prelude::*;
use simkit::span::intern_name;

/// A sense-reversing spin barrier.
///
/// Windows are short (often a handful of events), so the per-window
/// synchronization cost is the scheme's overhead floor; parking threads in
/// the kernel on every window would dominate it. Waiters spin briefly, then
/// interleave `yield_now` so oversubscribed hosts still make progress.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier { n, count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// What one worker publishes at a window barrier.
#[derive(Default)]
struct WindowSlot {
    outbox: Vec<CrossSend>,
    migs: Vec<Migration>,
}

/// A finished worker's state, handed to the orchestrator thread.
struct WorkerOut {
    sim: Simulation,
    now: f64,
    events: u64,
    hit_horizon: bool,
    mailbox_peak: f64,
    profile: EngineProfile,
    spans: Option<SpanSnapshot>,
}

/// One-shot cross-thread transfer cell for a finished worker's state.
///
/// SAFETY: `Simulation` is `!Send` only because of single-thread
/// instrumentation handles (the `Rc`-based span profiler, trace sinks).
/// Each `SendOut` is written exactly once by the worker thread that owns
/// every live clone of those handles, and read only after `thread::scope`
/// has joined that worker: the join synchronizes-with the read, and from
/// then on the wrapped value — including every remaining `Rc` clone, all of
/// which live *inside* it — is owned by a single thread again.
struct SendOut(WorkerOut);
unsafe impl Send for SendOut {}

/// The `u64` encoding of a worker's next-event time: IEEE-754 bits, with
/// `u64::MAX` as the "queue drained" sentinel (event times are finite and
/// non-negative, so the sentinel cannot collide).
fn encode_peek(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, |t| t.as_f64().to_bits())
}

/// Runs `cfg` to its horizon across `workers` threads and returns the
/// report — byte-identical to [`Simulation::run_with`] for every
/// parallel-compatible configuration.
///
/// Falls back to the serial engine when `workers <= 1` (after clamping to
/// the cell count — more workers than cells would idle), when the
/// configuration is outside [`Simulation::parallel_compatible`], or when a
/// trace stream is attached (subscribers would interleave event streams
/// from different threads).
pub fn run(cfg: SimConfig, workers: usize, instr: Instrumentation) -> RunReport {
    let n_parts = workers.min(cfg.n_mss);
    if n_parts <= 1 || !Simulation::parallel_compatible(&cfg) || instr.tracer.is_active() {
        return Simulation::run_with(cfg, instr);
    }
    let protocol = cfg.protocol.name().to_string();
    let seed = cfg.seed;
    let horizon = cfg.horizon;
    let lookahead = cfg.latencies.wireless;
    let want_metrics = instr.metrics;
    let want_profile = instr.profile;
    let want_spans = instr.spans;
    let instrumented = want_profile || want_spans;

    let peeks: Vec<AtomicU64> = (0..n_parts).map(|_| AtomicU64::new(u64::MAX)).collect();
    let barrier = SpinBarrier::new(n_parts);
    let slots: Vec<Mutex<WindowSlot>> =
        (0..n_parts).map(|_| Mutex::new(WindowSlot::default())).collect();
    let outs: Vec<Mutex<Option<SendOut>>> = (0..n_parts).map(|_| Mutex::new(None)).collect();

    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..n_parts {
            let worker_cfg = cfg.clone();
            let (peeks, barrier, slots, outs) = (&peeks, &barrier, &slots, &outs);
            scope.spawn(move || {
                // Each worker bootstraps an identical full replica, then
                // strips the events it does not own. Identical replicas are
                // what make the barrier exchanges cheap: only host-private
                // state ever needs to move.
                let (mut sim, mut sched) = Simulation::new(worker_cfg);
                sim.attach(Instrumentation {
                    metrics: want_metrics,
                    spans: want_spans,
                    ..Instrumentation::off()
                });
                sim.par_install(&mut sched, w as u32, n_parts as u32);
                let spans = sim.spans();
                let worker_span = spans.enter(intern_name(&format!("worker{w}")));
                let mut profile = EngineProfile::new();
                let mut events = 0u64;
                let hit_horizon;
                loop {
                    peeks[w].store(encode_peek(sched.peek_time()), Ordering::Release);
                    {
                        let _g = spans.scope("barrier_wait");
                        barrier.wait();
                    }
                    // Every worker computes the same window from the same
                    // published peeks, so termination below is unanimous —
                    // no worker can be left waiting at a barrier.
                    let t0 = peeks
                        .iter()
                        .map(|p| p.load(Ordering::Acquire))
                        .filter(|&bits| bits != u64::MAX)
                        .map(f64::from_bits)
                        .fold(f64::INFINITY, f64::min);
                    if t0 == f64::INFINITY {
                        hit_horizon = false; // every queue drained
                        break;
                    }
                    if t0 >= horizon {
                        hit_horizon = true;
                        break;
                    }
                    let w_end = SimTime::new((t0 + lookahead).min(horizon));
                    let out = if instrumented {
                        let (out, p) = run_until_spanned(
                            &mut sim,
                            &mut sched,
                            w_end,
                            &spans,
                            Ev::span_name,
                            None,
                        );
                        profile.dispatch_ns.merge(&p.dispatch_ns);
                        profile.queue_depth.merge(&p.queue_depth);
                        profile.wall_ns += p.wall_ns;
                        out
                    } else {
                        run_until(&mut sim, &mut sched, w_end)
                    };
                    events += out.events_handled;
                    let outbox = sim.par_take_outbox();
                    let migs = sim.par_migrations(&mut sched);
                    *slots[w].lock().unwrap() = WindowSlot { outbox, migs };
                    {
                        let _g = spans.scope("barrier_wait");
                        barrier.wait();
                    }
                    {
                        // Apply phase: ownership updates and slices first
                        // (a migrated-in host's movement history is needed
                        // to resolve this window's cross sends), then the
                        // outboxes, always in worker order so scheduling
                        // order — hence the run — is deterministic.
                        let _g = spans.scope("exchange");
                        for s in slots.iter().take(n_parts) {
                            let mut slot = s.lock().unwrap();
                            sim.par_apply_migrations(&mut sched, &mut slot.migs);
                        }
                        for s in slots.iter().take(n_parts) {
                            let slot = s.lock().unwrap();
                            sim.par_resolve(&mut sched, &slot.outbox);
                        }
                    }
                    sim.par_end_window();
                    {
                        // Third barrier: nobody republishes a slot before
                        // every peer has read the previous window's.
                        let _g = spans.scope("barrier_wait");
                        barrier.wait();
                    }
                }
                profile.events_handled = events;
                spans.exit(worker_span);
                let snapshot = spans.is_enabled().then(|| spans.snapshot());
                let mailbox_peak = sim.par_mailbox_peak();
                let now = sched.now().as_f64();
                drop(spans);
                *outs[w].lock().unwrap() = Some(SendOut(WorkerOut {
                    sim,
                    now,
                    events,
                    hit_horizon,
                    mailbox_peak,
                    profile,
                    spans: snapshot,
                }));
            });
        }
    });
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    // All workers joined: drain their slots and fold everything into the
    // first replica, which then produces the report exactly as a serial run
    // would.
    let mut taken: Vec<WorkerOut> = outs
        .iter()
        .map(|m| m.lock().unwrap().take().expect("every worker stores its result").0)
        .collect();
    let first = taken.remove(0);
    let mut base = first.sim;
    let hit_horizon = first.hit_horizon;
    let mut events = first.events;
    let mut end_time = first.now;
    let mut mailbox_peak = first.mailbox_peak;
    let mut merged_profile = first.profile;
    let mut merged_spans = first.spans;
    for mut other in taken {
        base.par_absorb(&mut other.sim);
        events += other.events;
        end_time = end_time.max(other.now);
        mailbox_peak = mailbox_peak.max(other.mailbox_peak);
        merged_profile.merge(&other.profile);
        if let (Some(a), Some(b)) = (&mut merged_spans, &other.spans) {
            a.merge(b);
        }
    }
    // Workers overlap in wall time; their merged (max) per-thread wall
    // would overstate throughput. Report the measured wall of the whole
    // parallel section so `events_per_sec` is honest end-to-end speed.
    merged_profile.wall_ns = wall_ns;
    let out = RunOutcome {
        events_handled: events,
        end_time: SimTime::new(end_time),
        hit_horizon,
    };
    let mut report = base.par_finish(
        protocol,
        seed,
        out,
        want_profile.then_some(merged_profile),
        want_metrics,
        mailbox_peak,
    );
    if want_spans {
        report.spans = merged_spans;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::prelude::*;

    fn cfg(n_mhs: usize, n_mss: usize, seed: u64) -> SimConfig {
        SimConfig {
            n_mhs,
            n_mss,
            protocol: ProtocolChoice::Cic(CicKind::Qbc),
            t_switch: 50.0,
            horizon: 300.0,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let b = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=50usize {
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        assert_eq!(counter.load(Ordering::SeqCst), 4 * round);
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn peek_encoding_orders_and_reserves_sentinel() {
        assert_eq!(encode_peek(None), u64::MAX);
        let a = encode_peek(Some(SimTime::new(0.5)));
        let b = encode_peek(Some(SimTime::new(2.0)));
        assert!(f64::from_bits(a) < f64::from_bits(b));
        assert!(a != u64::MAX && b != u64::MAX);
    }

    #[test]
    fn parallel_matches_serial_smoke() {
        let c = cfg(12, 4, 7);
        let serial = Simulation::run(c.clone());
        let par = run(c, 4, Instrumentation::off());
        assert_eq!(serial.ckpts.total(), par.ckpts.total());
        assert_eq!(serial.msgs_delivered, par.msgs_delivered);
        assert_eq!(serial.events, par.events);
        assert!((serial.end_time - par.end_time).abs() == 0.0);
    }
}
