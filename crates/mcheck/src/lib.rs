//! `mcheck` — bounded exhaustive model checking of the checkpointing
//! protocols.
//!
//! The seeded simulator samples *one* schedule per seed: events fire in
//! `(time, seq)` order, so a safety bug that needs an unlucky interleaving
//! of deliveries and hand-offs can hide behind every seed we happen to try.
//! This crate removes the schedule from the trust base for tiny
//! configurations: starting from the same `Simulation::new` world the
//! seeded runs use, it explores **every** ordering of enabled events up to
//! a bounded horizon, asserting the protocols' safety invariants in each
//! reached state.
//!
//! * **Same model, different driver.** The checker reuses the production
//!   [`mck::simulation::Simulation`] — its `Clone` forks world states, the
//!   choice API (`enabled_choices` / `apply_choice`) fires *any* pending
//!   event instead of the earliest, and `fingerprint` hashes the live state
//!   for deduplication. Nothing in the model is reimplemented, so what is
//!   checked is what runs.
//! * **Breadth-first, so counterexamples are minimal.** States are expanded
//!   in depth order; the first violating schedule found therefore has the
//!   fewest possible events, which keeps counterexamples readable.
//! * **Live-state abstraction.** Two schedules that merely commute
//!   independent events reach the same fingerprint and are explored once.
//!   Event *times* are history, not live state; safety here is about
//!   orderings, and invariants are asserted on every state before merging.
//! * **Mutation mode closes the loop.** `--mutate` wraps every host's
//!   protocol in [`mutate::BrokenForced`], which silently drops forced
//!   checkpoints. The checker must then find a violation and emit its
//!   minimal schedule — evidence that the invariants actually bite.
//!
//! Invariants checked in every explored state (see [`invariant`]):
//!
//! 1. **No useless checkpoints** — no checkpoint lies on a Z-cycle
//!    (`causality::zpath`), for every CIC protocol;
//! 2. **Consistent index lines** — every BCS/QBC recovery line
//!    (`cic::recovery::index_line`) is consistent;
//! 3. **Orphan-free replay plans** — `relog::ReplayPlan` recovery for every
//!    single-host failure (and all-fail) verifies clean.
//!
//! Entry point: [`explore::check`] with a [`CheckConfig`];
//! [`explore::replay`] re-runs a recorded counterexample schedule
//! deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cic::CicKind;
use mck::prelude::{ProtocolChoice, SimConfig};

pub mod explore;
pub mod invariant;
pub mod mutate;

pub use explore::{check, replay, CheckOutcome, Counterexample, ReplayOutcome, Schedule, Step};
pub use invariant::Violation;

/// Parameters of one model-checking run.
///
/// Deliberately a tiny subset of [`SimConfig`]: exhaustive exploration is
/// only tractable for small host counts and short horizons, and the
/// checker pins every stochastic knob the paper's measurements vary
/// (failures off, duplication off, infinite bandwidth) so that the state
/// space is exactly "orderings of protocol-relevant events".
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Protocol under test.
    pub protocol: CicKind,
    /// Number of mobile hosts (keep at 2–3).
    pub n_mhs: usize,
    /// Number of support stations.
    pub n_mss: usize,
    /// Exploration horizon: only events scheduled strictly before this are
    /// fired, exactly like the seeded runner's bound.
    pub horizon: f64,
    /// Mean cell-permanence time; small values put hand-off checkpoints
    /// inside the horizon.
    pub t_switch: f64,
    /// Master seed of the root world. Exploration covers all orderings of
    /// the root's event structure; different seeds give different
    /// structures (send targets, dwell draws) to cover.
    pub seed: u64,
    /// State budget: exploration stops (incomplete) after this many
    /// distinct states.
    pub max_states: usize,
    /// Wrap every protocol instance in the deliberately broken
    /// forced-checkpoint predicate ([`mutate::BrokenForced`]).
    pub mutate: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            protocol: CicKind::Bcs,
            n_mhs: 2,
            n_mss: 2,
            horizon: 3.0,
            t_switch: 1.0,
            seed: 1,
            max_states: 100_000,
            mutate: false,
        }
    }
}

impl CheckConfig {
    /// The full simulator configuration of the root world: the checker's
    /// scalar knobs over a deterministic, failure-free, trace-recording
    /// base. Every stochastic extension the checker does not explore is
    /// pinned off so the enabled set stays protocol-relevant.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            n_mhs: self.n_mhs,
            n_mss: self.n_mss,
            protocol: ProtocolChoice::Cic(self.protocol),
            horizon: self.horizon,
            t_switch: self.t_switch,
            seed: self.seed,
            // Always roam, never disconnect: reconnections would add an
            // event class whose orderings explode the space without adding
            // protocol-relevant nondeterminism (a disconnected host is
            // simply idle).
            p_switch: 1.0,
            record_trace: true,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_config_is_checker_shaped() {
        let cfg = CheckConfig::default().sim_config();
        cfg.validate();
        assert!(cfg.record_trace);
        assert!(!cfg.failures_enabled());
        assert_eq!(cfg.dup_prob, 0.0);
        assert_eq!(cfg.p_switch, 1.0);
        assert_eq!(cfg.wireless_bandwidth, f64::INFINITY);
        assert_eq!(cfg.ckpt_duration, 0.0);
    }
}
