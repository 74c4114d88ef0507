//! Generic simulation driver.
//!
//! A simulation is a [`Model`] (the state and event-handling logic) plus a
//! [`Scheduler`] (the pending-event set). [`run_until`] executes the standard
//! event loop: pop, dispatch, repeat, stopping at a time horizon or when the
//! event set drains. Models can also stop early by returning
//! [`Control::Stop`].

use std::time::Instant;

use crate::event::{Fired, Scheduler};
use crate::span::SpanProfiler;
use crate::stats::{LogHistogram, Tally};
use crate::time::SimTime;

/// Whether the event loop should continue after handling an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep processing events.
    Continue,
    /// Terminate the run immediately.
    Stop,
}

/// A discrete-event model: owns state, reacts to events, schedules more.
pub trait Model {
    /// The event payload type this model understands.
    type Event;

    /// Handles one fired event, scheduling any follow-ups on `sched`.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, fired: Fired<Self::Event>)
        -> Control;
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Number of events dispatched to the model.
    pub events_handled: u64,
    /// Simulation clock when the loop exited.
    pub end_time: SimTime,
    /// True when the loop exited because the horizon was reached (an event
    /// beyond the horizon remained pending), as opposed to draining or an
    /// explicit stop.
    pub hit_horizon: bool,
}

/// Runs the event loop until `horizon` (exclusive), the event set drains, or
/// the model requests a stop.
///
/// Events timestamped exactly at the horizon are *not* processed, matching
/// the usual "simulate T time units" convention: the measurement window is
/// `[0, T)`.
pub fn run_until<M: Model>(
    model: &mut M,
    sched: &mut Scheduler<M::Event>,
    horizon: SimTime,
) -> RunOutcome {
    let mut handled = 0;
    loop {
        match sched.peek_time() {
            None => {
                return RunOutcome {
                    events_handled: handled,
                    end_time: sched.now(),
                    hit_horizon: false,
                }
            }
            Some(t) if t >= horizon => {
                return RunOutcome {
                    events_handled: handled,
                    end_time: sched.now(),
                    hit_horizon: true,
                }
            }
            Some(_) => {}
        }
        let fired = sched.pop().expect("peeked event exists");
        handled += 1;
        if model.handle(sched, fired) == Control::Stop {
            return RunOutcome {
                events_handled: handled,
                end_time: sched.now(),
                hit_horizon: false,
            };
        }
    }
}

/// Wall-clock profile of the event loop, collected by
/// [`run_until_spanned`].
///
/// Everything here is measured on the host clock and therefore varies from
/// run to run; it is reported *alongside* the deterministic simulation
/// outputs and never feeds back into them (in particular, profile data is
/// kept out of trace streams, which must stay byte-identical across
/// same-seed runs).
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Per-event dispatch latency in nanoseconds (pop + model handling).
    /// Geometric bins from 16 ns, ×2 per bin.
    pub dispatch_ns: LogHistogram,
    /// Pending-event-set size sampled before each dispatch.
    pub queue_depth: Tally,
    /// Events dispatched to the model.
    pub events_handled: u64,
    /// Total wall-clock time of the loop in nanoseconds.
    pub wall_ns: u64,
}

impl Default for EngineProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineProfile {
    /// An empty profile with the standard dispatch-latency bin shape.
    pub fn new() -> Self {
        EngineProfile {
            dispatch_ns: LogHistogram::new(16.0, 2.0, 32),
            queue_depth: Tally::new(),
            events_handled: 0,
            wall_ns: 0,
        }
    }

    /// Average dispatch throughput over the whole run.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events_handled as f64 / (self.wall_ns as f64 * 1e-9)
    }
}

/// Throttled live progress reporting to stderr.
///
/// Purely observational: it reads the loop's counters and clocks and writes
/// to stderr, so enabling it cannot perturb the simulation, its RNG, or any
/// artifact byte. Reports are throttled twice over — an event-count mask
/// keeps the hot path to integer ops, and a one-second wall-clock gate keeps
/// the terminal readable on slow and fast runs alike.
#[derive(Debug)]
pub struct Progress {
    label: String,
    started: Instant,
    last_report: Instant,
}

impl Progress {
    /// Events between throttle checks (a power of two minus one, used as a
    /// mask).
    const EVENT_MASK: u64 = 0xFFF;

    /// Creates a reporter; `label` prefixes every line.
    pub fn new(label: &str) -> Self {
        let now = Instant::now();
        Progress {
            label: label.to_string(),
            started: now,
            last_report: now,
        }
    }

    /// Reports if enough events and wall time have passed; the driver calls
    /// this once per dispatched event with an `Instant` it already read.
    pub fn maybe_report(&mut self, events: u64, now_sim: SimTime, at: Instant) {
        if events & Self::EVENT_MASK != 0 {
            return;
        }
        if at.duration_since(self.last_report).as_secs_f64() < 1.0 {
            return;
        }
        self.last_report = at;
        self.report(events, now_sim, at);
    }

    /// Writes one final summary line unconditionally.
    pub fn finish(&self, events: u64, now_sim: SimTime) {
        self.report(events, now_sim, Instant::now());
    }

    fn report(&self, events: u64, now_sim: SimTime, at: Instant) {
        let secs = at.duration_since(self.started).as_secs_f64();
        let rate = if secs > 0.0 { events as f64 / secs } else { 0.0 };
        eprintln!(
            "{}: {events} events, t={:.1}, {rate:.0} events/sec",
            self.label,
            now_sim.as_f64()
        );
    }
}

/// [`run_until`] with span attribution, wall-clock profiling, and optional
/// live progress.
///
/// It runs [`run_until`] itself over a [`Spanned`] adapter, so the pop
/// order, horizon rule and stop handling are the plain loop's by
/// construction. On top it:
///
/// * opens one span per dispatched event, named by `classify(&event)`, on
///   `spans` (nested spans opened by the model during handling attach
///   beneath it — share the profiler with the model by cloning the handle);
/// * chains the spans gap-free: the `Instant` that closes event *n* opens
///   event *n*+1, so per-event-type span totals tile the loop's wall time
///   (whole-run coverage is within one scheduler peek of 100%);
/// * records an [`EngineProfile`] (here `dispatch_ns` covers the full
///   per-event loop slice: peek + pop + handle);
/// * drives the optional [`Progress`] reporter off clocks it already read.
///
/// With a disabled profiler and no progress reporter the added cost is two
/// `Instant` reads per event.
pub fn run_until_spanned<M: Model>(
    model: &mut M,
    sched: &mut Scheduler<M::Event>,
    horizon: SimTime,
    spans: &SpanProfiler,
    classify: fn(&M::Event) -> &'static str,
    progress: Option<&mut Progress>,
) -> (RunOutcome, EngineProfile) {
    let started = Instant::now();
    let mut spanned = Spanned {
        inner: model,
        spans,
        classify,
        progress,
        profile: EngineProfile::new(),
        mark: started,
    };
    let outcome = run_until(&mut spanned, sched, horizon);
    let mut profile = spanned.profile;
    profile.wall_ns = started.elapsed().as_nanos() as u64;
    if let Some(p) = spanned.progress {
        p.finish(outcome.events_handled, outcome.end_time);
    }
    (outcome, profile)
}

/// The observer [`run_until_spanned`] wraps around a model: it does the
/// per-event span, profile and progress bookkeeping around the inner
/// model's `handle`.
struct Spanned<'a, M: Model> {
    inner: &'a mut M,
    spans: &'a SpanProfiler,
    classify: fn(&M::Event) -> &'static str,
    progress: Option<&'a mut Progress>,
    profile: EngineProfile,
    /// When the previous event's span closed (the loop start for the
    /// first event).
    mark: Instant,
}

impl<M: Model> Model for Spanned<'_, M> {
    type Event = M::Event;

    fn handle(&mut self, sched: &mut Scheduler<M::Event>, fired: Fired<M::Event>) -> Control {
        // `run_until` has just popped `fired`: add it back for the
        // pending-set size before the pop.
        self.profile.queue_depth.record((sched.len() + 1) as f64);
        let tok = self
            .spans
            .enter_at((self.classify)(&fired.event), self.mark);
        let control = self.inner.handle(sched, fired);
        let now = Instant::now();
        self.spans.exit_at(tok, now);
        self.profile
            .dispatch_ns
            .record(now.duration_since(self.mark).as_nanos() as f64);
        self.profile.events_handled += 1;
        if let Some(p) = self.progress.as_deref_mut() {
            p.maybe_report(self.profile.events_handled, sched.now(), now);
        }
        self.mark = now;
        control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that spawns a chain of `n` events spaced 1.0 apart.
    struct Chain {
        remaining: u32,
        stop_at: Option<u32>,
        seen: Vec<f64>,
    }

    impl Model for Chain {
        type Event = ();

        fn handle(&mut self, sched: &mut Scheduler<()>, fired: Fired<()>) -> Control {
            self.seen.push(fired.time.as_f64());
            if let Some(s) = self.stop_at {
                if self.seen.len() as u32 >= s {
                    return Control::Stop;
                }
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(1.0, ());
            }
            Control::Continue
        }
    }

    #[test]
    fn drains_when_no_more_events() {
        let mut m = Chain {
            remaining: 4,
            stop_at: None,
            seen: vec![],
        };
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::ZERO, ());
        let out = run_until(&mut m, &mut s, SimTime::new(100.0));
        assert_eq!(out.events_handled, 5);
        assert!(!out.hit_horizon);
        assert_eq!(m.seen, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut m = Chain {
            remaining: u32::MAX,
            stop_at: None,
            seen: vec![],
        };
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::ZERO, ());
        let out = run_until(&mut m, &mut s, SimTime::new(3.0));
        assert!(out.hit_horizon);
        // Events at 0,1,2 run; the one at 3.0 does not.
        assert_eq!(m.seen, vec![0.0, 1.0, 2.0]);
        assert_eq!(out.end_time, SimTime::new(2.0));
    }

    #[test]
    fn model_can_stop_early() {
        let mut m = Chain {
            remaining: u32::MAX,
            stop_at: Some(2),
            seen: vec![],
        };
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::ZERO, ());
        let out = run_until(&mut m, &mut s, SimTime::new(100.0));
        assert_eq!(out.events_handled, 2);
        assert!(!out.hit_horizon);
    }

    #[test]
    fn spanned_run_matches_plain_run_and_tiles_wall_time() {
        let mk = || Chain {
            remaining: 200,
            stop_at: None,
            seen: vec![],
        };
        let mut m1 = mk();
        let mut s1 = Scheduler::new();
        s1.schedule_at(SimTime::ZERO, ());
        let plain = run_until(&mut m1, &mut s1, SimTime::new(150.5));

        let spans = SpanProfiler::enabled();
        let mut m2 = mk();
        let mut s2 = Scheduler::new();
        s2.schedule_at(SimTime::ZERO, ());
        let (spanned, profile) =
            run_until_spanned(&mut m2, &mut s2, SimTime::new(150.5), &spans, |_| "tick", None);

        assert_eq!(plain, spanned);
        assert_eq!(m1.seen, m2.seen);
        assert_eq!(profile.events_handled, plain.events_handled);
        assert_eq!(profile.dispatch_ns.count(), plain.events_handled);

        let snap = spans.snapshot();
        assert_eq!(snap.row("tick").unwrap().count, plain.events_handled);
        // Gap-free chaining: the per-event spans cover (almost) the whole
        // loop. Allow generous slack for the final peek and clock noise.
        assert!(
            snap.top_level_wall_ns() as f64 >= 0.5 * profile.wall_ns as f64
                || profile.wall_ns < 10_000
        );
    }

    /// A model whose pending set grows and shrinks: the `k`-th event
    /// schedules `k % 3` follow-ups until `budget` runs out.
    struct Fan {
        k: u32,
        budget: u32,
    }

    impl Model for Fan {
        type Event = ();

        fn handle(&mut self, sched: &mut Scheduler<()>, _: Fired<()>) -> Control {
            self.k += 1;
            for i in 0..self.k % 3 {
                if self.budget > 0 {
                    self.budget -= 1;
                    sched.schedule_in(1.0 + i as f64, ());
                }
            }
            Control::Continue
        }
    }

    #[test]
    fn spanned_queue_depth_is_the_plain_loops_pre_pop_length() {
        let horizon = SimTime::new(40.5);
        let seed = |s: &mut Scheduler<()>| {
            for t in [0.0, 0.0, 0.5, 3.0] {
                s.schedule_at(SimTime::new(t), ());
            }
        };
        // A hand-written plain loop, sampling the length before each pop.
        let mut plain = Tally::new();
        let mut m1 = Fan { k: 0, budget: 120 };
        let mut s1 = Scheduler::new();
        seed(&mut s1);
        while s1.peek_time().is_some_and(|t| t < horizon) {
            plain.record(s1.len() as f64);
            let fired = s1.pop().expect("peeked event exists");
            m1.handle(&mut s1, fired);
        }

        let mut m2 = Fan { k: 0, budget: 120 };
        let mut s2 = Scheduler::new();
        seed(&mut s2);
        let (out, profile) = run_until_spanned(
            &mut m2,
            &mut s2,
            horizon,
            &SpanProfiler::disabled(),
            |_| "fan",
            None,
        );
        let depth = &profile.queue_depth;
        assert!(plain.max() > Some(1.0), "the pending set must vary");
        assert_eq!(out.events_handled, plain.count());
        assert_eq!(depth.count(), plain.count());
        assert_eq!(depth.sum(), plain.sum());
        assert_eq!(depth.min(), plain.min());
        assert_eq!(depth.max(), plain.max());
    }

    #[test]
    fn disabled_spans_and_no_progress_change_nothing() {
        let mk = || Chain {
            remaining: 30,
            stop_at: None,
            seen: vec![],
        };
        let mut m1 = mk();
        let mut s1 = Scheduler::new();
        s1.schedule_at(SimTime::ZERO, ());
        let plain = run_until(&mut m1, &mut s1, SimTime::new(20.5));

        let spans = SpanProfiler::disabled();
        let mut m2 = mk();
        let mut s2 = Scheduler::new();
        s2.schedule_at(SimTime::ZERO, ());
        let (spanned, _) =
            run_until_spanned(&mut m2, &mut s2, SimTime::new(20.5), &spans, |_| "tick", None);
        assert_eq!(plain, spanned);
        assert!(spans.snapshot().is_empty());
    }

    #[test]
    fn empty_schedule_returns_immediately() {
        let mut m = Chain {
            remaining: 0,
            stop_at: None,
            seen: vec![],
        };
        let mut s = Scheduler::new();
        let out = run_until(&mut m, &mut s, SimTime::new(10.0));
        assert_eq!(out.events_handled, 0);
        assert_eq!(out.end_time, SimTime::ZERO);
    }
}
