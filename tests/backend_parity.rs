//! Cross-backend parity: the serial engine and the conservative parallel
//! backend must produce *byte-identical* deterministic artifacts (`mck.run/v1`: config, outcome counters, metrics
//! snapshot) for every parallel-compatible configuration.
//!
//! The configurations are generated property-style from a seeded RNG so the
//! sweep covers protocol kinds, world sizes, mobility tempos and worker
//! counts without hand-picking lucky cases — any divergence in any counter
//! of any run fails with the offending config's description.

use mck::artifact::run_artifact;
use mck::prelude::*;
use pardes as par;
use simkit::rng::SimRng;

/// Serializes everything the simulator can observe about a run.
fn fingerprint(cfg: &SimConfig, r: &RunReport) -> String {
    run_artifact(cfg, r).to_pretty()
}

fn serial(cfg: &SimConfig) -> String {
    fingerprint(cfg, &Simulation::run(cfg.clone()))
}

fn parallel_with(cfg: &SimConfig, workers: usize) -> String {
    let report = par::run(cfg.clone(), workers, Instrumentation::off());
    fingerprint(cfg, &report)
}

/// One random, parallel-compatible configuration.
fn random_cfg(rng: &mut SimRng) -> SimConfig {
    let kinds = [CicKind::Qbc, CicKind::Bcs, CicKind::Tp, CicKind::Uncoordinated];
    SimConfig {
        n_mhs: 4 + (rng.uniform() * 16.0) as usize,
        n_mss: 2 + (rng.uniform() * 6.0) as usize,
        p_send: 0.2 + rng.uniform() * 0.6,
        // Fast mobility so windows see hand-offs, disconnections and
        // cross-partition migrations, not just sends.
        t_switch: 20.0 + rng.uniform() * 300.0,
        p_switch: 0.5 + rng.uniform() * 0.5,
        reconnect_mean: 50.0 + rng.uniform() * 200.0,
        heterogeneity: if rng.bernoulli(0.5) { 0.3 } else { 0.0 },
        protocol: ProtocolChoice::Cic(kinds[(rng.uniform() * 4.0) as usize % 4]),
        horizon: 200.0 + rng.uniform() * 400.0,
        seed: (rng.uniform() * 1e9) as u64,
        ..Default::default()
    }
}

#[test]
fn randomized_configs_agree_across_all_backends() {
    let mut rng = SimRng::new(0xBAC0);
    for case in 0..12 {
        let cfg = random_cfg(&mut rng);
        assert!(
            Simulation::parallel_compatible(&cfg),
            "case {case}: generator must stay inside the parallel gate"
        );
        let serial = serial(&cfg);
        let workers = 2 + case % 3;
        let parallel = parallel_with(&cfg, workers);
        assert_eq!(
            serial, parallel,
            "case {case}: serial vs parallel({workers}) diverged for {:?} \
             (n_mhs={}, n_mss={}, t_switch={}, seed={})",
            cfg.protocol, cfg.n_mhs, cfg.n_mss, cfg.t_switch, cfg.seed
        );
    }
}

#[test]
fn issue_sizes_and_seeds_are_byte_identical() {
    // The acceptance matrix: N in {10, 100, 1000} hosts, three seeds each,
    // serial vs 4-worker parallel.
    for &n in &[10usize, 100, 1000] {
        for seed in [1u64, 2, 3] {
            let cfg = SimConfig {
                n_mhs: n,
                n_mss: 8,
                t_switch: 200.0,
                horizon: if n >= 1000 { 50.0 } else { 400.0 },
                seed,
                ..Default::default()
            };
            let serial = serial(&cfg);
            let parallel = parallel_with(&cfg, 4);
            assert_eq!(serial, parallel, "n={n} seed={seed} diverged");
        }
    }
}

#[test]
fn parity_holds_with_metrics_registry_attached() {
    // The metrics snapshot is part of the artifact: the merged registry
    // (counter values *and* registration order) must match the serial one.
    let cfg = SimConfig {
        n_mhs: 20,
        n_mss: 6,
        t_switch: 100.0,
        horizon: 500.0,
        seed: 11,
        ..Default::default()
    };
    let serial = {
        let mut instr = Instrumentation::off();
        instr.metrics = true;
        let report = Simulation::run_with(cfg.clone(), instr);
        fingerprint(&cfg, &report)
    };
    let parallel = {
        let mut instr = Instrumentation::off();
        instr.metrics = true;
        let report = par::run(cfg.clone(), 3, instr);
        fingerprint(&cfg, &report)
    };
    assert_eq!(serial, parallel);
}

#[test]
fn incompatible_configs_fall_back_to_serial() {
    // Finite bandwidth is outside the gate; `pardes::run` must still
    // produce the exact serial result by falling back.
    let cfg = SimConfig {
        n_mhs: 8,
        n_mss: 4,
        wireless_bandwidth: 10_000.0,
        t_switch: 100.0,
        horizon: 300.0,
        seed: 5,
        ..Default::default()
    };
    assert!(!Simulation::parallel_compatible(&cfg));
    let serial = serial(&cfg);
    let fallback = parallel_with(&cfg, 4);
    assert_eq!(serial, fallback);
}
