//! Multi-replication experiment runner.
//!
//! The paper reports each point as the aggregate of "several simulation
//! runs with different seeds" (results within 4 % of each other). The
//! runner executes independent replications with [`simkit::pool::run`]
//! (a bounded set of workers sharing one job queue, never one OS thread
//! per run), and summarizes any scalar output with a mean and a 95 %
//! Student-t confidence interval.
//!
//! **Determinism contract**: every job owns its full configuration
//! (including the seed) and shares no mutable state; results are collected
//! in submission (= seed) order. The same config therefore produces
//! byte-identical reports whether it runs on 1 worker or 64.
//!
//! The worker count resolves as: programmatic [`set_jobs`] override
//! (the CLI's `--jobs N`) → the `MCK_JOBS` environment variable → the
//! host's [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

use simkit::pool::{default_workers, Job};
use simkit::stats::{Estimate, Tally};

use crate::config::SimConfig;
use crate::report::RunReport;
use crate::simulation::Simulation;

/// Process-wide worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for all subsequent experiment runs (the CLI's
/// `--jobs N`). Passing 0 clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Resolved worker count: [`set_jobs`] override, else `MCK_JOBS`, else
/// [`std::thread::available_parallelism`].
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("MCK_JOBS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    default_workers()
}

/// Context label identifying one run in panic reports.
pub(crate) fn job_context(cfg: &SimConfig) -> String {
    format!(
        "{} t_switch={} seed={}",
        cfg.protocol.name(),
        cfg.t_switch,
        cfg.seed
    )
}

/// Runs a batch of fully specified configurations on [`jobs`] workers,
/// returning the reports in input order.
///
/// If any run panics, every captured failure is reported to stderr with
/// its protocol/`t_switch`/seed context before the first one is propagated
/// — a full-grid sweep thus names the exact configuration that failed
/// instead of dying with an anonymous `join()` error.
pub fn run_configs(configs: Vec<SimConfig>) -> Vec<RunReport> {
    let work: Vec<Job<'_, RunReport>> = configs
        .into_iter()
        .map(|c| Job::new(job_context(&c), move || Simulation::run(c)))
        .collect();
    match simkit::pool::run(jobs(), work) {
        Ok(reports) => reports,
        Err(panics) => {
            for p in &panics {
                eprintln!("error: {p}");
            }
            let first = panics.into_iter().next().expect("at least one panic");
            panic!("{first}");
        }
    }
}

/// Runs `replications` copies of `cfg` with seeds `base_seed..` on
/// [`jobs`] workers, returning the reports in seed order.
pub fn run_replications(cfg: &SimConfig, base_seed: u64, replications: usize) -> Vec<RunReport> {
    assert!(replications > 0, "need at least one replication");
    let configs: Vec<SimConfig> = (0..replications)
        .map(|r| {
            let mut c = cfg.clone();
            c.seed = base_seed + r as u64;
            c
        })
        .collect();
    run_configs(configs)
}

/// Summary of one experimental point: per-metric estimates over seeds.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// Protocol name.
    pub protocol: String,
    /// `N_tot` over replications.
    pub n_tot: Estimate,
    /// Basic checkpoints.
    pub n_basic: Estimate,
    /// Forced checkpoints.
    pub n_forced: Estimate,
    /// Piggybacked control bytes.
    pub piggyback_bytes: Estimate,
    /// Messages delivered.
    pub msgs_delivered: Estimate,
    /// Raw reports (for further analysis).
    pub reports: Vec<RunReport>,
}

/// Summarizes already-computed replication reports into a point summary.
/// All five estimates are accumulated in one pass over the reports.
pub fn summarize_reports(protocol: String, reports: Vec<RunReport>) -> PointSummary {
    let mut n_tot = Tally::new();
    let mut n_basic = Tally::new();
    let mut n_forced = Tally::new();
    let mut piggyback_bytes = Tally::new();
    let mut msgs_delivered = Tally::new();
    for r in &reports {
        n_tot.record(r.n_tot() as f64);
        n_basic.record(r.ckpts.basic() as f64);
        n_forced.record(r.ckpts.forced as f64);
        piggyback_bytes.record(r.net.piggyback_bytes as f64);
        msgs_delivered.record(r.msgs_delivered as f64);
    }
    PointSummary {
        protocol,
        n_tot: Estimate::from_tally(&n_tot),
        n_basic: Estimate::from_tally(&n_basic),
        n_forced: Estimate::from_tally(&n_forced),
        piggyback_bytes: Estimate::from_tally(&piggyback_bytes),
        msgs_delivered: Estimate::from_tally(&msgs_delivered),
        reports,
    }
}

/// Runs and summarizes one experimental point.
pub fn summarize_point(cfg: &SimConfig, base_seed: u64, replications: usize) -> PointSummary {
    let reports = run_replications(cfg, base_seed, replications);
    summarize_reports(cfg.protocol.name().to_string(), reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolChoice;
    use cic::CicKind;

    fn small_cfg() -> SimConfig {
        SimConfig {
            horizon: 200.0,
            t_switch: 50.0,
            protocol: ProtocolChoice::Cic(CicKind::Bcs),
            ..Default::default()
        }
    }

    #[test]
    fn replications_use_distinct_seeds() {
        let reports = run_replications(&small_cfg(), 10, 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].seed, 10);
        assert_eq!(reports[2].seed, 12);
        // Different seeds ⇒ (almost surely) different trajectories.
        assert_ne!(reports[0].msgs_sent, 0);
        assert!(
            reports[0].n_tot() != reports[1].n_tot()
                || reports[0].msgs_sent != reports[1].msgs_sent
        );
    }

    #[test]
    fn replications_are_reproducible() {
        let a = run_replications(&small_cfg(), 42, 2);
        let b = run_replications(&small_cfg(), 42, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.n_tot(), y.n_tot());
            assert_eq!(x.msgs_sent, y.msgs_sent);
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn summary_aggregates() {
        let s = summarize_point(&small_cfg(), 1, 4);
        assert_eq!(s.reports.len(), 4);
        assert_eq!(s.n_tot.n, 4);
        assert!(s.n_tot.mean > 0.0);
        assert_eq!(s.protocol, "BCS");
    }

    #[test]
    fn one_pass_summary_matches_from_samples() {
        let s = summarize_point(&small_cfg(), 1, 4);
        let expected = Estimate::from_samples(
            &s.reports.iter().map(|r| r.n_tot() as f64).collect::<Vec<_>>(),
        );
        assert_eq!(s.n_tot, expected);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        run_replications(&small_cfg(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "seed=33")]
    fn failing_run_is_identified_by_seed() {
        // An invalid config makes the simulation panic inside the job; the
        // propagated panic must name the failing seed/config.
        let mut bad = small_cfg();
        bad.n_mhs = 1; // validate() rejects this inside the worker
        run_replications(&bad, 33, 1);
    }

    #[test]
    fn jobs_resolution_prefers_override() {
        // Not parallel-safe with other tests mutating the override; keep
        // the sequence self-contained and restore the default at the end.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
