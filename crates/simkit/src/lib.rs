//! `simkit` — a small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the `mck` mobile-checkpointing simulator.
//! It provides:
//!
//! * [`time::SimTime`] — totally ordered simulation time;
//! * [`event::Scheduler`] — the pending-event set, a binary heap with
//!   deterministic FIFO tie-breaking;
//! * [`driver`] — the generic pop/dispatch event loop;
//! * [`pool::run`] — a bounded scoped-thread job queue that runs
//!   independent jobs (whole simulation replications) across cores with
//!   panic capture and deterministic, submission-ordered results;
//! * [`rng::SimRng`] — a self-contained xoshiro256++ RNG with
//!   order-independent substreams and the distributions the paper's model
//!   needs (exponential, Bernoulli, discrete uniform);
//! * [`stats`] — Welford tallies, log-binned histograms, and Student-t
//!   confidence intervals for replication summaries;
//! * [`metrics`] — a named counter/gauge/histogram registry, near-zero
//!   cost when disabled, snapshotable to JSON;
//! * [`span`] — a hierarchical span profiler attributing wall-clock time,
//!   counts, and bytes to per-event-type and per-phase spans, with
//!   deterministic (host-independent) aggregation kept apart from timing;
//! * [`trace`] — a typed, deterministic event stream with pluggable sinks
//!   (bounded memory ring, JSON Lines);
//! * [`json`] — a dependency-free JSON value type, writer, and parser with
//!   deterministic output, used by metrics snapshots, trace streams, and
//!   experiment artifacts.
//!
//! Everything is `forbid(unsafe_code)`, allocation-light, and exactly
//! reproducible given a seed.
//!
//! # Example
//!
//! ```
//! use simkit::prelude::*;
//!
//! // A Poisson arrival counter: count arrivals for 100 t.u.
//! struct Arrivals {
//!     rng: SimRng,
//!     count: u64,
//! }
//!
//! impl Model for Arrivals {
//!     type Event = ();
//!     fn handle(&mut self, sched: &mut Scheduler<()>, _fired: Fired<()>) -> Control {
//!         self.count += 1;
//!         let gap = self.rng.exp(2.0);
//!         sched.schedule_in(gap, ());
//!         Control::Continue
//!     }
//! }
//!
//! let mut model = Arrivals { rng: SimRng::new(1), count: 0 };
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO, ());
//! let out = run_until(&mut model, &mut sched, SimTime::new(100.0));
//! assert!(out.hit_horizon);
//! assert!(model.count > 20); // ~50 expected
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod event;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::driver::{
        run_until, run_until_spanned, Control, EngineProfile, Model, Progress, RunOutcome,
    };
    pub use crate::event::{Fired, Scheduler};
    pub use crate::json::Json;
    pub use crate::metrics::{MetricsRegistry, MetricsSnapshot};
    pub use crate::pool::{Job, JobPanic};
    pub use crate::rng::SimRng;
    pub use crate::span::{SpanProfiler, SpanRow, SpanScope, SpanSnapshot, SpanToken};
    pub use crate::stats::{Estimate, LogHistogram, Tally};
    pub use crate::time::SimTime;
    pub use crate::trace::{
        CkptClass, JsonlSink, MemorySink, TraceEvent, TraceRecord, TraceSink, Tracer,
    };
}
