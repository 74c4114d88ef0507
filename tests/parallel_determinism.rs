//! End-to-end determinism of the parallel sweep executor: the same seeds
//! must produce byte-identical results regardless of the worker count
//! (`--jobs`).

use mck::artifact::run_artifact;
use mck::prelude::*;

fn base_cfg() -> SimConfig {
    SimConfig {
        protocol: ProtocolChoice::Cic(CicKind::Qbc),
        t_switch: 200.0,
        horizon: 800.0,
        ..Default::default()
    }
}

/// Serializes a report (config + outcome + metrics) so "identical" means
/// every field the simulator can observe, not a cherry-picked subset.
fn fingerprint(cfg: &SimConfig, r: &RunReport) -> String {
    run_artifact(cfg, r).to_pretty()
}

#[test]
fn jobs_one_and_many_produce_identical_reports() {
    let cfg = base_cfg();
    set_jobs(1);
    let sequential = run_replications(&cfg, 7, 6);
    set_jobs(4);
    let parallel = run_replications(&cfg, 7, 6);
    set_jobs(0);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.seed, p.seed, "reports must come back in seed order");
        assert_eq!(
            fingerprint(&cfg, s),
            fingerprint(&cfg, p),
            "seed {} diverged between --jobs 1 and --jobs 4",
            s.seed
        );
    }
}

#[test]
fn flattened_sweep_is_jobs_invariant() {
    let cfg = base_cfg();
    let ts = [100.0, 300.0];
    set_jobs(1);
    let seq = mck::experiments::run_sweep(&cfg, &ts, 3, 3);
    set_jobs(3);
    let par = mck::experiments::run_sweep(&cfg, &ts, 3, 3);
    set_jobs(0);
    assert_eq!(seq.len(), par.len());
    for ((t_a, a), (t_b, b)) in seq.iter().zip(&par) {
        assert_eq!(t_a, t_b);
        assert_eq!(a.n_tot, b.n_tot);
        assert_eq!(a.n_basic, b.n_basic);
        assert_eq!(a.n_forced, b.n_forced);
        assert_eq!(a.piggyback_bytes, b.piggyback_bytes);
        assert_eq!(a.msgs_delivered, b.msgs_delivered);
    }
}
