//! The paper's comparative results, checked qualitatively.
//!
//! Absolute numbers depend on the substrate, but the *shape* of the results
//! must hold: who wins, in which environments, and how the curves move with
//! `T_switch`. These tests use reduced horizons/replications so the full
//! suite stays fast; `mck fig all` reproduces the full-scale figures.

use mck::prelude::*;

fn n_tot_mean(kind: CicKind, t_switch: f64, p_switch: f64, h: f64, horizon: f64) -> f64 {
    let cfg = SimConfig {
        protocol: ProtocolChoice::Cic(kind),
        t_switch,
        p_switch,
        heterogeneity: h,
        horizon,
        ..Default::default()
    };
    let s = summarize_point(&cfg, 21, 3);
    s.n_tot.mean
}

#[test]
fn index_protocols_beat_tp_everywhere() {
    // Figures 1-6: TP is worst at every sweep point.
    for &(p_switch, h) in &[(1.0, 0.0), (0.8, 0.0), (0.8, 0.3)] {
        for &t in &[100.0, 1000.0] {
            let tp = n_tot_mean(CicKind::Tp, t, p_switch, h, 2000.0);
            let bcs = n_tot_mean(CicKind::Bcs, t, p_switch, h, 2000.0);
            let qbc = n_tot_mean(CicKind::Qbc, t, p_switch, h, 2000.0);
            assert!(
                tp > bcs && tp > qbc,
                "TP={tp} must exceed BCS={bcs} and QBC={qbc} at T={t}, P={p_switch}, H={h}"
            );
        }
    }
}

#[test]
fn qbc_never_worse_than_bcs_in_aggregate() {
    // QBC <= BCS on every paper configuration (statistically; the paper
    // reports gains of 0-23%).
    for &(p_switch, h) in &[(1.0, 0.0), (0.8, 0.0), (1.0, 0.3), (0.8, 0.3)] {
        for &t in &[100.0, 500.0] {
            let bcs = n_tot_mean(CicKind::Bcs, t, p_switch, h, 2000.0);
            let qbc = n_tot_mean(CicKind::Qbc, t, p_switch, h, 2000.0);
            assert!(
                qbc <= bcs * 1.02, // tiny tolerance for stochastic noise
                "QBC={qbc} should not exceed BCS={bcs} at T={t}, P={p_switch}, H={h}"
            );
        }
    }
}

#[test]
fn tp_gain_grows_with_t_switch() {
    // Fig 1: the index protocols' advantage over TP grows as mobility slows
    // (TP's forced checkpoints depend on traffic, not mobility).
    let gain = |t: f64| {
        let tp = n_tot_mean(CicKind::Tp, t, 1.0, 0.0, 3000.0);
        let bcs = n_tot_mean(CicKind::Bcs, t, 1.0, 0.0, 3000.0);
        (tp - bcs) / tp
    };
    let g_small = gain(100.0);
    let g_large = gain(3000.0);
    assert!(
        g_large > g_small,
        "gain should grow with T_switch: {g_small:.2} -> {g_large:.2}"
    );
    assert!(g_large > 0.9, "large-T gain should reach ~90%+: {g_large:.2}");
}

#[test]
fn index_protocol_checkpoints_decrease_with_t_switch() {
    // Figs 1-2: BCS/QBC N_tot falls monotonically in T_switch.
    for kind in [CicKind::Bcs, CicKind::Qbc] {
        let a = n_tot_mean(kind, 100.0, 1.0, 0.0, 3000.0);
        let b = n_tot_mean(kind, 1000.0, 1.0, 0.0, 3000.0);
        let c = n_tot_mean(kind, 3000.0, 1.0, 0.0, 3000.0);
        assert!(a > b && b > c, "{kind}: expected decreasing series, got {a}, {b}, {c}");
    }
}

#[test]
fn qbc_gain_materializes_with_disconnections() {
    // Fig 2 claim: QBC's gain over BCS appears in disconnecting
    // environments (up to ~15%); at fast mobility the effect is strongest.
    let bcs = n_tot_mean(CicKind::Bcs, 100.0, 0.8, 0.0, 4000.0);
    let qbc = n_tot_mean(CicKind::Qbc, 100.0, 0.8, 0.0, 4000.0);
    let gain = (bcs - qbc) / bcs;
    assert!(
        gain > 0.05,
        "expected a material QBC gain with disconnections, got {:.1}%",
        gain * 100.0
    );
}

#[test]
fn heterogeneity_amplifies_qbc_gain() {
    // Figs 3-6 claim: heterogeneous environments push BCS sequence numbers
    // apart, amplifying QBC's advantage relative to the homogeneous case.
    let gain_at = |h: f64| {
        let bcs = n_tot_mean(CicKind::Bcs, 1000.0, 0.8, h, 4000.0);
        let qbc = n_tot_mean(CicKind::Qbc, 1000.0, 0.8, h, 4000.0);
        (bcs - qbc) / bcs
    };
    let homo = gain_at(0.0);
    let hetero = gain_at(0.3);
    assert!(
        hetero >= homo - 0.01,
        "heterogeneity should not shrink the QBC gain: H=0 {:.3} vs H=30% {:.3}",
        homo,
        hetero
    );
    assert!(hetero > 0.03, "expected a visible QBC gain at H=30%: {hetero:.3}");
}

#[test]
fn basic_checkpoints_scale_with_mobility() {
    // More switching ⇒ more basic checkpoints, independent of protocol.
    let fast = SimConfig {
        protocol: ProtocolChoice::Cic(CicKind::Bcs),
        t_switch: 100.0,
        horizon: 2000.0,
        ..Default::default()
    };
    let slow = SimConfig {
        t_switch: 1000.0,
        ..fast.clone()
    };
    let f = Simulation::run(fast);
    let s = Simulation::run(slow);
    assert!(
        f.ckpts.basic() > 3 * s.ckpts.basic(),
        "10x mobility should multiply basic checkpoints: {} vs {}",
        f.ckpts.basic(),
        s.ckpts.basic()
    );
}

#[test]
fn figure_pipeline_end_to_end() {
    // A miniature figure run through the real experiment pipeline.
    let mut spec = mck::experiments::figure(2);
    spec.t_switch_values = vec![100.0, 1000.0];
    let res = mck::experiments::run_figure(&spec, 31, 2);
    assert_eq!(res.points.len(), 2);
    // TP worst at both points.
    for p in &res.points {
        let tp = p.of("TP").unwrap().mean;
        let bcs = p.of("BCS").unwrap().mean;
        let qbc = p.of("QBC").unwrap().mean;
        assert!(tp > bcs && tp > qbc);
    }
    let table = res.table();
    assert_eq!(table.len(), 2);
    assert!(res.max_gain("BCS", "TP") > 0.5);
}
