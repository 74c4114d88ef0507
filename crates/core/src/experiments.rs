//! The paper's experiments, reproducible end to end.
//!
//! Figures 1–6 all plot `N_tot` (total checkpoints over a run) against
//! `T_switch` (mean cell-permanence time of the slow hosts) for the three
//! protocols, across `(P_switch, H)` combinations:
//!
//! | Figure | `P_switch` | `H` |
//! |--------|-----------|-----|
//! | 1 | 1.0 (no disconnections) | 0 % |
//! | 2 | 0.8 | 0 % |
//! | 3 | 1.0 | 50 % |
//! | 4 | 0.8 | 50 % |
//! | 5 | 1.0 | 30 % |
//! | 6 | 0.8 | 30 % |
//!
//! The in-text claims (TP gain, QBC-vs-BCS gains) are checked by
//! [`claims`], and the extension experiments ([`ablation_ckpt_time`],
//! [`ext_control_bytes`], [`ext_classes`], [`ext_rollback`]) cover the
//! paper's §2 discussion and future work.

use cic::CicKind;
use scenario::Scenario;
use simkit::stats::Estimate;

use crate::config::{LoggingMode, ProtocolChoice, SimConfig};
use crate::failure::{
    rollback_logging_summary, rollback_summary, LoggingRollbackSummary, RollbackSummary,
};
use crate::report::RunReport;
use crate::runner::{run_configs, summarize_point, summarize_reports, PointSummary};
use crate::table::{fmt_estimate, Table};

/// The `T_switch` sweep used for every figure (the figures' x-axis runs
/// from 100 to 10000 time units on a log-ish scale).
pub const T_SWITCH_SWEEP: [f64; 7] = [100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10_000.0];

/// Default replications per point (the paper: "several runs with different
/// seeds", results within 4 %).
pub const DEFAULT_REPLICATIONS: usize = 5;

/// Specification of one figure.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure number (1–6).
    pub id: usize,
    /// Roaming probability.
    pub p_switch: f64,
    /// Heterogeneity fraction.
    pub heterogeneity: f64,
    /// x-axis sweep.
    pub t_switch_values: Vec<f64>,
    /// Protocols plotted.
    pub protocols: Vec<CicKind>,
}

impl FigureSpec {
    /// Human-readable caption matching the paper.
    pub fn caption(&self) -> String {
        format!(
            "Fig. {}: N_tot vs T_switch, Ps=0.4, Pswitch={}, H={}%",
            self.id,
            self.p_switch,
            (self.heterogeneity * 100.0).round()
        )
    }
}

/// The spec of paper figure `n` (1–6).
pub fn figure(n: usize) -> FigureSpec {
    let (p_switch, h) = match n {
        1 => (1.0, 0.0),
        2 => (0.8, 0.0),
        3 => (1.0, 0.5),
        4 => (0.8, 0.5),
        5 => (1.0, 0.3),
        6 => (0.8, 0.3),
        _ => panic!("the paper has figures 1–6, asked for {n}"),
    };
    FigureSpec {
        id: n,
        p_switch,
        heterogeneity: h,
        t_switch_values: T_SWITCH_SWEEP.to_vec(),
        protocols: CicKind::PAPER.to_vec(),
    }
}

/// One x-axis point of a figure: `N_tot` per protocol.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// The swept `T_switch` value.
    pub t_switch: f64,
    /// `(protocol name, N_tot estimate)` in spec order.
    pub n_tot: Vec<(String, Estimate)>,
}

impl SeriesPoint {
    /// The estimate for a protocol by name.
    pub fn of(&self, name: &str) -> Option<&Estimate> {
        self.n_tot.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }
}

/// A fully computed figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// What was run.
    pub spec: FigureSpec,
    /// One entry per swept `T_switch`.
    pub points: Vec<SeriesPoint>,
}

impl FigureResult {
    /// Relative gain of `a` over `b` at a sweep point: `(b − a) / b`
    /// (positive = `a` takes fewer checkpoints).
    pub fn gain_at(&self, t_switch: f64, a: &str, b: &str) -> Option<f64> {
        let p = self
            .points
            .iter()
            .find(|p| (p.t_switch - t_switch).abs() < 1e-9)?;
        let ea = p.of(a)?.mean;
        let eb = p.of(b)?.mean;
        (eb > 0.0).then(|| (eb - ea) / eb)
    }

    /// The maximum gain of `a` over `b` across the sweep.
    pub fn max_gain(&self, a: &str, b: &str) -> f64 {
        self.points
            .iter()
            .filter_map(|p| self.gain_at(p.t_switch, a, b))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the figure as a log-log terminal plot, like the paper's.
    pub fn plot(&self) -> String {
        let mut plot = crate::plot::AsciiPlot::new(64, 18).labels("T_switch", "N_tot");
        for proto in &self.spec.protocols {
            let pts: Vec<(f64, f64)> = self
                .points
                .iter()
                .filter_map(|p| {
                    let e = p.of(proto.name())?;
                    (e.mean > 0.0).then_some((p.t_switch, e.mean))
                })
                .collect();
            if !pts.is_empty() {
                plot.add_series(proto.name(), pts);
            }
        }
        plot.render()
    }

    /// Renders the figure as the table of series the paper plots.
    pub fn table(&self) -> Table {
        let mut headers = vec!["T_switch".to_string()];
        headers.extend(self.spec.protocols.iter().map(|p| p.name().to_string()));
        headers.push("gain BCS/TP".into());
        headers.push("gain QBC/BCS".into());
        let mut t = Table::new(headers);
        for p in &self.points {
            let mut row = vec![format!("{:.0}", p.t_switch)];
            for proto in &self.spec.protocols {
                let e = p.of(proto.name()).expect("series present");
                row.push(fmt_estimate(e.mean, e.ci95));
            }
            let g1 = self
                .gain_at(p.t_switch, "BCS", "TP")
                .map_or("-".into(), |g| format!("{:.0}%", g * 100.0));
            let g2 = self
                .gain_at(p.t_switch, "QBC", "BCS")
                .map_or("-".into(), |g| format!("{:.0}%", g * 100.0));
            row.push(g1);
            row.push(g2);
            t.push_row(row);
        }
        t
    }
}

/// Runs a figure spec with `replications` seeds per point.
pub fn run_figure(spec: &FigureSpec, base_seed: u64, replications: usize) -> FigureResult {
    run_figures(std::slice::from_ref(spec), base_seed, replications)
        .into_iter()
        .next()
        .expect("one spec in, one result out")
}

/// Runs several figure specs as **one flattened job list** across the job
/// pool: every `(figure, T_switch, protocol, replication)` combination
/// becomes an independent job, so `mck fig --all` keeps every worker busy
/// to the end instead of paying a join barrier per point.
///
/// Results are regrouped in spec order with the same per-point seeds the
/// sequential path used (`base_seed..base_seed+replications` at every
/// point), so the output is byte-identical to running each figure alone.
pub fn run_figures(specs: &[FigureSpec], base_seed: u64, replications: usize) -> Vec<FigureResult> {
    run_figures_scenario(specs, base_seed, replications, None)
}

/// [`run_figures`] under an optional scenario: the scenario's environment
/// and overrides are applied first, then each figure's own axes
/// (`protocol`, `t_switch`, `p_switch`, `heterogeneity`, seed) are pinned
/// on top — the figure defines what is swept, the scenario defines the
/// world it is swept in. With `None` this is exactly [`run_figures`].
pub fn run_figures_scenario(
    specs: &[FigureSpec],
    base_seed: u64,
    replications: usize,
    scenario: Option<&Scenario>,
) -> Vec<FigureResult> {
    assert!(replications > 0, "need at least one replication");
    let mut configs = Vec::new();
    for spec in specs {
        for &t_switch in &spec.t_switch_values {
            for &proto in &spec.protocols {
                for r in 0..replications {
                    let mut c = SimConfig::default();
                    if let Some(sc) = scenario {
                        c.apply_scenario(sc);
                    }
                    c.protocol = ProtocolChoice::Cic(proto);
                    c.t_switch = t_switch;
                    c.p_switch = spec.p_switch;
                    c.heterogeneity = spec.heterogeneity;
                    c.seed = base_seed + r as u64;
                    configs.push(c);
                }
            }
        }
    }
    let mut reports = run_configs(configs).into_iter();
    specs
        .iter()
        .map(|spec| {
            let points = spec
                .t_switch_values
                .iter()
                .map(|&t_switch| {
                    let n_tot = spec
                        .protocols
                        .iter()
                        .map(|&proto| {
                            let reps: Vec<RunReport> = (0..replications)
                                .map(|_| reports.next().expect("one report per job"))
                                .collect();
                            let s = summarize_reports(proto.name().to_string(), reps);
                            (proto.name().to_string(), s.n_tot)
                        })
                        .collect();
                    SeriesPoint { t_switch, n_tot }
                })
                .collect();
            FigureResult {
                spec: spec.clone(),
                points,
            }
        })
        .collect()
}

/// Runs one protocol across a `T_switch` sweep as a single flattened job
/// list (every point × replication in one pool submission). Returns
/// `(t_switch, summary)` per point, with the same seeds per point as
/// calling [`summarize_point`] point by point.
pub fn run_sweep(
    cfg: &SimConfig,
    t_switches: &[f64],
    base_seed: u64,
    replications: usize,
) -> Vec<(f64, PointSummary)> {
    assert!(replications > 0, "need at least one replication");
    let mut configs = Vec::new();
    for &t in t_switches {
        for r in 0..replications {
            let mut c = cfg.clone();
            c.t_switch = t;
            c.seed = base_seed + r as u64;
            configs.push(c);
        }
    }
    let mut reports = run_configs(configs).into_iter();
    t_switches
        .iter()
        .map(|&t| {
            let reps: Vec<RunReport> = (0..replications)
                .map(|_| reports.next().expect("one report per job"))
                .collect();
            (t, summarize_reports(cfg.protocol.name().to_string(), reps))
        })
        .collect()
}

/// A checked in-text claim of the paper.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Claim id (C1–C3).
    pub id: &'static str,
    /// What the paper states.
    pub paper: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the qualitative direction holds.
    pub holds: bool,
}

/// Evaluates the paper's quantitative in-text claims from figure results.
///
/// * C1: index-based protocols gain up to ~90 % over TP at large
///   `T_switch` (Figs. 1–2);
/// * C2: QBC gains up to ~15 % over BCS with disconnections, H=0 %
///   (Fig. 2);
/// * C3: heterogeneity amplifies QBC's gain over BCS (the paper reports a
///   maximum of ~23 % in heterogeneous environments vs. ~15 % homogeneous);
///   we check that the best heterogeneous gain meets or beats the best
///   homogeneous one.
///
/// Pass whatever subset of figures was run; claims that need a missing
/// figure are skipped.
pub fn claims(figures: &[FigureResult]) -> Vec<Claim> {
    let by_id = |id: usize| figures.iter().find(|f| f.spec.id == id);
    let mut out = Vec::new();

    let homo: Vec<&FigureResult> =
        figures.iter().filter(|f| f.spec.heterogeneity == 0.0).collect();
    let hetero: Vec<&FigureResult> =
        figures.iter().filter(|f| f.spec.heterogeneity > 0.0).collect();

    if !homo.is_empty() {
        let c1_gain = figures
            .iter()
            .map(|f| f.max_gain("BCS", "TP"))
            .fold(f64::NEG_INFINITY, f64::max);
        out.push(Claim {
            id: "C1",
            paper: "BCS/QBC gain over TP up to ~90% at T_switch=10000",
            measured: format!("max BCS gain over TP = {:.0}%", c1_gain * 100.0),
            holds: c1_gain > 0.5,
        });
    }
    if let Some(fig2) = by_id(2) {
        let c2_gain = fig2.max_gain("QBC", "BCS");
        out.push(Claim {
            id: "C2",
            paper: "QBC gains up to ~15% over BCS with disconnections (H=0%)",
            measured: format!("max QBC gain over BCS (fig2) = {:.0}%", c2_gain * 100.0),
            holds: c2_gain > 0.02,
        });
    }
    if !homo.is_empty() && !hetero.is_empty() {
        let best = |set: &[&FigureResult]| {
            set.iter()
                .map(|f| f.max_gain("QBC", "BCS"))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let homo_gain = best(&homo);
        let hetero_gain = best(&hetero);
        out.push(Claim {
            id: "C3",
            paper: "heterogeneity amplifies QBC's gain over BCS (paper max ~23%)",
            measured: format!(
                "max QBC gain: heterogeneous {:.0}% vs homogeneous {:.0}%",
                hetero_gain * 100.0,
                homo_gain * 100.0
            ),
            holds: hetero_gain >= homo_gain,
        });
    }
    out
}

/// Claim C4 ablation: a non-negligible checkpoint duration has no
/// remarkable impact on `N_tot` (paper §5.1). Returns
/// `(duration, N_tot estimate)` per protocol.
pub fn ablation_ckpt_time(
    base_seed: u64,
    replications: usize,
    durations: &[f64],
) -> Vec<(f64, Vec<(String, Estimate)>)> {
    durations
        .iter()
        .map(|&d| {
            let per_proto = CicKind::PAPER
                .iter()
                .map(|&proto| {
                    let mut cfg = SimConfig::paper(
                        ProtocolChoice::Cic(proto),
                        1000.0,
                        0.8,
                        0.0,
                    );
                    cfg.ckpt_duration = d;
                    let s = summarize_point(&cfg, base_seed, replications);
                    (proto.name().to_string(), s.n_tot)
                })
                .collect();
            (d, per_proto)
        })
        .collect()
}

/// Extension E1: control-information scalability. Sweeps the number of
/// hosts and reports mean piggybacked bytes per delivered message — TP's
/// 2·n-integer vectors against the index protocols' single integer.
pub fn ext_control_bytes(
    base_seed: u64,
    replications: usize,
    host_counts: &[usize],
) -> Vec<(usize, Vec<(String, f64)>)> {
    host_counts
        .iter()
        .map(|&n| {
            let per_proto = CicKind::PAPER
                .iter()
                .map(|&proto| {
                    let mut cfg =
                        SimConfig::paper(ProtocolChoice::Cic(proto), 1000.0, 1.0, 0.0);
                    cfg.n_mhs = n;
                    cfg.horizon = 2000.0;
                    let s = summarize_point(&cfg, base_seed, replications);
                    let per_msg = s.reports.iter().map(|r| r.net.piggyback_per_message());
                    let mean = per_msg.clone().sum::<f64>() / s.reports.len() as f64;
                    (proto.name().to_string(), mean)
                })
                .collect();
            (n, per_proto)
        })
        .collect()
}

/// Extension E3: protocol-class comparison — checkpoints, control messages
/// and searches for a CIC protocol vs. coordinated baselines vs.
/// uncoordinated.
#[derive(Debug, Clone)]
pub struct ClassRow {
    /// Protocol name.
    pub protocol: String,
    /// Mean `N_tot`.
    pub n_tot: f64,
    /// Mean control messages.
    pub control_msgs: f64,
    /// Mean location searches.
    pub searches: f64,
    /// Mean piggyback bytes.
    pub piggyback_bytes: f64,
    /// Mean application sends suppressed by blocking coordination.
    pub blocked_sends: f64,
}

/// Runs the class comparison at the paper's base point.
pub fn ext_classes(base_seed: u64, replications: usize) -> Vec<ClassRow> {
    let coord_interval = 100.0;
    ProtocolChoice::all(coord_interval)
        .into_iter()
        .map(|protocol| {
            let mut cfg = SimConfig::paper(protocol, 1000.0, 0.8, 0.0);
            cfg.periodic_mean = coord_interval;
            let s = summarize_point(&cfg, base_seed, replications);
            let mean = |f: &dyn Fn(&crate::report::RunReport) -> f64| {
                s.reports.iter().map(f).sum::<f64>() / s.reports.len() as f64
            };
            ClassRow {
                protocol: protocol.name().to_string(),
                n_tot: mean(&|r| r.n_tot() as f64),
                control_msgs: mean(&|r| r.net.control_msgs as f64),
                searches: mean(&|r| r.net.searches as f64),
                piggyback_bytes: mean(&|r| r.net.piggyback_bytes as f64),
                blocked_sends: mean(&|r| r.blocked_sends as f64),
            }
        })
        .collect()
}

/// Extension E4: stable-storage occupancy under garbage collection.
///
/// Runs each protocol with trace recording and replays the trace through
/// the GC analysis ([`crate::gc`]): how many checkpoints must stay on the
/// MSSs' stable storage over time? QBC's equal-index collapse is applied to
/// QBC runs only.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// Protocol name.
    pub protocol: String,
    /// Mean checkpoints taken per run.
    pub taken: f64,
    /// Mean of the time-averaged retention.
    pub mean_retained: f64,
    /// Mean of the per-run maximum retention.
    pub max_retained: f64,
}

/// Runs the storage-occupancy comparison.
pub fn ext_storage(base_seed: u64, replications: usize) -> Vec<StorageRow> {
    [
        ProtocolChoice::Cic(CicKind::Qbc),
        ProtocolChoice::Cic(CicKind::Bcs),
        ProtocolChoice::Cic(CicKind::Tp),
        ProtocolChoice::Cic(CicKind::Uncoordinated),
    ]
    .iter()
    .map(|&protocol| {
        let mut cfg = SimConfig::paper(protocol, 300.0, 0.8, 0.0);
        cfg.horizon = 2000.0;
        cfg.periodic_mean = 100.0;
        cfg.record_trace = true;
        let reports = crate::runner::run_replications(&cfg, base_seed, replications);
        let collapse = matches!(protocol, ProtocolChoice::Cic(CicKind::Qbc));
        let mut taken = 0.0;
        let mut mean_ret = 0.0;
        let mut max_ret = 0.0;
        for r in &reports {
            let trace = r.trace.as_ref().expect("trace recorded");
            let occ = crate::gc::occupancy_series(trace, r.end_time, 16, collapse);
            taken += occ.total_taken as f64;
            mean_ret += occ.mean_retained;
            max_ret += occ.max_retained as f64;
        }
        let n = reports.len() as f64;
        StorageRow {
            protocol: protocol.name().to_string(),
            taken: taken / n,
            mean_retained: mean_ret / n,
            max_retained: max_ret / n,
        }
    })
    .collect()
}

/// Extension E5: recovery-time estimate per protocol (the other half of
/// the paper's future work: "evaluation of the recovery time").
#[derive(Debug, Clone)]
pub struct RecoveryTimeRow {
    /// Protocol name.
    pub protocol: String,
    /// Mean fetch waves (1 = line consistent on the first try).
    pub mean_waves: f64,
    /// Worst waves observed.
    pub max_waves: usize,
    /// Mean recovery latency (simulated time units).
    pub mean_latency: f64,
    /// Mean wired control messages.
    pub mean_msgs: f64,
    /// Mean checkpoint bytes fetched.
    pub mean_bytes: f64,
}

/// Runs the recovery-time comparison: fail each host at the end of each
/// replication and estimate the line-collection cost. TP is credited its
/// `LOC[]` vectors (direct checkpoint pointers, no query broadcast).
pub fn ext_recovery_time(base_seed: u64, replications: usize) -> Vec<RecoveryTimeRow> {
    use crate::failure::{recovery_time, RecoveryCostModel};
    [
        ProtocolChoice::Cic(CicKind::Qbc),
        ProtocolChoice::Cic(CicKind::Bcs),
        ProtocolChoice::Cic(CicKind::Tp),
        ProtocolChoice::Cic(CicKind::Uncoordinated),
    ]
    .iter()
    .map(|&protocol| {
        let mut cfg = SimConfig::paper(protocol, 500.0, 0.8, 0.0);
        cfg.horizon = 2000.0;
        cfg.periodic_mean = 100.0;
        cfg.record_trace = true;
        let reports = crate::runner::run_replications(&cfg, base_seed, replications);
        let model = RecoveryCostModel {
            ckpt_bytes: cfg.incremental.full_bytes,
            n_mss: cfg.n_mss,
            wired_latency: cfg.latencies.wired,
            wireless_latency: cfg.latencies.wireless,
            ..Default::default()
        };
        let has_vectors = matches!(protocol, ProtocolChoice::Cic(CicKind::Tp));
        let mut waves = 0.0;
        let mut max_waves = 0usize;
        let mut lat = 0.0;
        let mut msgs = 0.0;
        let mut bytes = 0.0;
        let mut scenarios = 0usize;
        for r in &reports {
            let trace = r.trace.as_ref().expect("trace recorded");
            for failed in trace.procs() {
                let rt = recovery_time(trace, failed, &model, has_vectors);
                waves += rt.waves as f64;
                max_waves = max_waves.max(rt.waves);
                lat += rt.latency;
                msgs += rt.control_messages as f64;
                bytes += rt.bytes_fetched as f64;
                scenarios += 1;
            }
        }
        let n = scenarios as f64;
        RecoveryTimeRow {
            protocol: protocol.name().to_string(),
            mean_waves: waves / n,
            max_waves,
            mean_latency: lat / n,
            mean_msgs: msgs / n,
            mean_bytes: bytes / n,
        }
    })
    .collect()
}

/// Extension E6: mobility-topology ablation. The paper's complete cell
/// graph lets a host jump anywhere; rings and grids constrain hand-offs to
/// geographic neighbours. The protocol ranking should be robust to the
/// graph shape (it depends on checkpoint/communication *rates*, not on
/// which cell is entered), while substrate costs (checkpoint base fetches)
/// do shift.
pub fn ext_topologies(base_seed: u64, replications: usize) -> Vec<TopologyRow> {
    use scenario::TopologySpec;
    let graphs: [(&'static str, TopologySpec, usize); 3] = [
        ("complete r=6", TopologySpec::Complete, 6),
        ("ring r=6", TopologySpec::Ring, 6),
        ("grid 2x3", TopologySpec::Grid { cols: 3 }, 6),
    ];
    graphs
        .iter()
        .map(|(name, graph, n_mss)| {
            let (name, n_mss) = (*name, *n_mss);
            let mut n_tot = Vec::new();
            let mut fetches = 0.0;
            let mut forwarded = 0.0;
            for &proto in &CicKind::PAPER {
                let mut cfg = SimConfig::paper(ProtocolChoice::Cic(proto), 500.0, 0.8, 0.0);
                cfg.env.topology = graph.clone();
                cfg.n_mss = n_mss;
                cfg.horizon = 4000.0;
                let s = summarize_point(&cfg, base_seed, replications);
                if proto == CicKind::Qbc {
                    fetches = s.reports.iter().map(|r| r.net.ckpt_fetches as f64).sum::<f64>()
                        / s.reports.len() as f64;
                    forwarded = s.reports.iter().map(|r| r.net.wired_hops as f64).sum::<f64>()
                        / s.reports.len() as f64;
                }
                n_tot.push((proto.name().to_string(), s.n_tot));
            }
            TopologyRow {
                graph: name,
                n_tot,
                qbc_ckpt_fetches: fetches,
                qbc_wired_hops: forwarded,
            }
        })
        .collect()
}

/// One row of the topology ablation.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// Cell-graph label.
    pub graph: &'static str,
    /// `N_tot` per protocol.
    pub n_tot: Vec<(String, Estimate)>,
    /// Mean cross-MSS checkpoint base fetches under QBC (substrate cost
    /// that *does* depend on the graph).
    pub qbc_ckpt_fetches: f64,
    /// Mean wired hops under QBC.
    pub qbc_wired_hops: f64,
}

/// Extension E7: wireless channel contention (paper point (b)). With a
/// finite per-cell bandwidth, application bytes (payload + piggyback) and
/// checkpoint increments occupy the channel; the experiment reports mean
/// utilization and total queueing delay per protocol.
#[derive(Debug, Clone)]
pub struct ContentionRow {
    /// Protocol name.
    pub protocol: String,
    /// Mean `N_tot`.
    pub n_tot: f64,
    /// Mean channel utilization across cells.
    pub utilization: f64,
    /// Mean total queueing delay (t.u.).
    pub queueing_delay: f64,
    /// Mean checkpoint bytes shipped over wireless.
    pub ckpt_mib: f64,
}

/// Runs the channel-contention comparison at a finite bandwidth.
pub fn ext_contention(base_seed: u64, replications: usize) -> Vec<ContentionRow> {
    CicKind::PAPER
        .iter()
        .map(|&proto| {
            let mut cfg = SimConfig::paper(ProtocolChoice::Cic(proto), 1000.0, 0.8, 0.0);
            cfg.horizon = 4000.0;
            cfg.wireless_bandwidth = 50_000.0; // bytes per time unit
            let s = summarize_point(&cfg, base_seed, replications);
            let mean = |f: &dyn Fn(&crate::report::RunReport) -> f64| {
                s.reports.iter().map(f).sum::<f64>() / s.reports.len() as f64
            };
            ContentionRow {
                protocol: proto.name().to_string(),
                n_tot: mean(&|r| r.n_tot() as f64),
                utilization: mean(&|r| r.channel_utilization),
                queueing_delay: mean(&|r| r.channel_queueing_delay),
                ckpt_mib: mean(&|r| r.net.ckpt_wireless_bytes as f64) / (1 << 20) as f64,
            }
        })
        .collect()
}

/// Extension E2: rollback after failure, per protocol (the paper's future
/// work). Uses a reduced horizon — trace recording is memory-hungry.
pub fn ext_rollback(base_seed: u64, replications: usize) -> Vec<RollbackSummary> {
    [
        ProtocolChoice::Cic(CicKind::Qbc),
        ProtocolChoice::Cic(CicKind::Bcs),
        ProtocolChoice::Cic(CicKind::Tp),
        ProtocolChoice::Cic(CicKind::Uncoordinated),
    ]
    .iter()
    .map(|&protocol| {
        let mut cfg = SimConfig::paper(protocol, 500.0, 0.8, 0.0);
        cfg.horizon = 2000.0;
        cfg.periodic_mean = 100.0;
        rollback_summary(&cfg, base_seed, replications)
    })
    .collect()
}

/// Extension E8: undone work with vs. without pessimistic message logging,
/// per protocol, on the same trajectories as [`ext_rollback`] (logging
/// never perturbs a run, so the comparison is paired per seed).
pub fn ext_rollback_logging(base_seed: u64, replications: usize) -> Vec<LoggingRollbackSummary> {
    [
        ProtocolChoice::Cic(CicKind::Qbc),
        ProtocolChoice::Cic(CicKind::Bcs),
        ProtocolChoice::Cic(CicKind::Tp),
        ProtocolChoice::Cic(CicKind::Uncoordinated),
    ]
    .iter()
    .map(|&protocol| {
        let mut cfg = SimConfig::paper(protocol, 500.0, 0.8, 0.0);
        cfg.horizon = 2000.0;
        cfg.periodic_mean = 100.0;
        rollback_logging_summary(&cfg, base_seed, replications)
    })
    .collect()
}

/// Mean log-occupancy statistics for one protocol at one sweep point
/// (pessimistic logging enabled).
#[derive(Debug, Clone, Copy)]
pub struct LogSizeStats {
    /// Mean peak live log bytes across the stations.
    pub mean_peak_bytes: f64,
    /// Mean live log bytes at the end of the run.
    pub mean_live_bytes: f64,
    /// Mean entries appended over the run.
    pub mean_appended_entries: f64,
    /// Mean entries reclaimed by checkpoint-driven GC.
    pub mean_gc_entries: f64,
}

/// One `T_switch` point of the log-size sweep.
#[derive(Debug, Clone)]
pub struct LogSizeRow {
    /// The swept `T_switch` value.
    pub t_switch: f64,
    /// `(protocol name, stats)` in [`LOG_SIZE_PROTOCOLS`] order.
    pub series: Vec<(String, LogSizeStats)>,
}

/// Protocols compared by the log-size sweep.
pub const LOG_SIZE_PROTOCOLS: [CicKind; 4] = [
    CicKind::Tp,
    CicKind::Bcs,
    CicKind::Qbc,
    CicKind::Uncoordinated,
];

/// Log-size figures (ROADMAP item): sweeps `T_switch` under pessimistic
/// logging and reports peak live log bytes per protocol. The GC rule ties
/// log occupancy to checkpoint rate, so protocols that checkpoint less
/// (larger `T_switch`, laziness of the index protocols) hold more live
/// log — the curves mirror figures 1–6 inverted.
pub fn ext_log_size(
    base_seed: u64,
    replications: usize,
    t_switches: &[f64],
) -> Vec<LogSizeRow> {
    assert!(replications > 0, "need at least one replication");
    let mut configs = Vec::new();
    for &t in t_switches {
        for &proto in &LOG_SIZE_PROTOCOLS {
            for r in 0..replications {
                let mut cfg = SimConfig::paper(ProtocolChoice::Cic(proto), t, 0.8, 0.0);
                cfg.logging = LoggingMode::Pessimistic;
                cfg.horizon = 4000.0;
                cfg.seed = base_seed + r as u64;
                configs.push(cfg);
            }
        }
    }
    let mut reports = run_configs(configs).into_iter();
    t_switches
        .iter()
        .map(|&t| {
            let series = LOG_SIZE_PROTOCOLS
                .iter()
                .map(|&proto| {
                    let reps: Vec<RunReport> = (0..replications)
                        .map(|_| reports.next().expect("one report per job"))
                        .collect();
                    let n = reps.len() as f64;
                    let mean_of = |f: fn(&mobnet::LogStoreStats) -> u64| {
                        reps.iter()
                            .map(|r| {
                                f(r.log_stats.as_ref().expect("logging enabled")) as f64
                            })
                            .sum::<f64>()
                            / n
                    };
                    let stats = LogSizeStats {
                        mean_peak_bytes: mean_of(|s| s.peak_bytes),
                        mean_live_bytes: mean_of(|s| s.live_bytes),
                        mean_appended_entries: mean_of(|s| s.appended_entries),
                        mean_gc_entries: mean_of(|s| s.gc_entries),
                    };
                    (proto.name().to_string(), stats)
                })
                .collect();
            LogSizeRow { t_switch: t, series }
        })
        .collect()
}

/// Mean failure/recovery outcomes of one protocol at one E10 sweep point,
/// for one logging mode.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Mean executed crash events per run (MH + MSS).
    pub crashes: f64,
    /// Mean per-recovery wall-clock downtime (simulated t.u.).
    pub mean_downtime: f64,
    /// Mean host-time availability (`1 − downtime / (n × horizon)`).
    pub availability: f64,
    /// Mean simulated time truly lost per run (undone work, orphan
    /// rollbacks of survivors included).
    pub undone_time: f64,
    /// Mean logged receives re-delivered during replays per run.
    pub replayed_receives: f64,
    /// Mean receives lost inside the optimistic flush window per run
    /// (always 0 for pessimistic logging).
    pub unstable_lost: f64,
}

impl RecoveryPoint {
    fn from_reports(reps: &[RunReport]) -> RecoveryPoint {
        let n = reps.len() as f64;
        let mean_of = |f: &dyn Fn(&RunReport, &faultsim::RecoveryStats) -> f64| {
            reps.iter()
                .map(|r| f(r, r.recovery.as_ref().expect("failure injection enabled")))
                .sum::<f64>()
                / n
        };
        RecoveryPoint {
            crashes: mean_of(&|_, s| (s.mh_crashes + s.mss_crashes) as f64),
            mean_downtime: mean_of(&|_, s| s.mean_downtime()),
            availability: mean_of(&|r, s| s.availability(r.per_mh_ckpts.len(), r.end_time)),
            undone_time: mean_of(&|_, s| s.total_undone_time),
            replayed_receives: mean_of(&|_, s| s.replayed_receives as f64),
            unstable_lost: mean_of(&|_, s| s.unstable_lost as f64),
        }
    }
}

/// One `(T_switch, MTBF)` cell of the E10 grid.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// The swept `T_switch` value.
    pub t_switch: f64,
    /// The mean time between failures per host.
    pub mtbf: f64,
    /// `(protocol name, pessimistic, optimistic)` in
    /// [`RECOVERY_PROTOCOLS`] order.
    pub series: Vec<(String, RecoveryPoint, RecoveryPoint)>,
}

/// Protocols compared by E10 (the paper's three index-based protocols;
/// TP's `LOC[]` vectors are credited in the recovery-line query phase).
pub const RECOVERY_PROTOCOLS: [CicKind; 3] = [CicKind::Tp, CicKind::Bcs, CicKind::Qbc];

/// Per-host crash MTBFs E10 sweeps (frequent and rare failures relative
/// to the 2000-t.u. horizon).
pub const RECOVERY_MTBFS: [f64; 2] = [500.0, 2000.0];

/// Flush window E10 gives the optimistic runs (the pessimistic arm is the
/// `flush_latency = 0` degenerate case by construction).
pub const RECOVERY_FLUSH_LATENCY: f64 = 5.0;

/// Extension E10: live fault injection. Crashes arrive per host as a
/// Poisson process; each one *executes* a recovery inside the simulation
/// (recovery-line query, backbone fetches of checkpoint and log, wireless
/// restart push, per-entry replay), so downtime and availability are
/// measured, not modeled — closing the loop that E5 only estimated from
/// end-of-run traces. The optimistic arm trades stable-storage writes for
/// receives lost inside the flush window.
pub fn ext_recovery(base_seed: u64, replications: usize, t_switches: &[f64]) -> Vec<RecoveryRow> {
    assert!(replications > 0, "need at least one replication");
    const MODES: [LoggingMode; 2] = [LoggingMode::Pessimistic, LoggingMode::Optimistic];
    let mut configs = Vec::new();
    for &t in t_switches {
        for &mtbf in &RECOVERY_MTBFS {
            for &proto in &RECOVERY_PROTOCOLS {
                for mode in MODES {
                    for r in 0..replications {
                        let mut cfg = SimConfig::paper(ProtocolChoice::Cic(proto), t, 0.8, 0.0);
                        cfg.logging = mode;
                        cfg.flush_latency = match mode {
                            LoggingMode::Optimistic => RECOVERY_FLUSH_LATENCY,
                            _ => 0.0,
                        };
                        cfg.fail_mtbf = mtbf;
                        cfg.horizon = 2000.0; // failure runs always trace
                        cfg.seed = base_seed + r as u64;
                        configs.push(cfg);
                    }
                }
            }
        }
    }
    let mut reports = run_configs(configs).into_iter();
    let mut take_point = |_proto: CicKind| {
        let reps: Vec<RunReport> = (0..replications)
            .map(|_| reports.next().expect("one report per job"))
            .collect();
        RecoveryPoint::from_reports(&reps)
    };
    t_switches
        .iter()
        .flat_map(|&t| RECOVERY_MTBFS.iter().map(move |&mtbf| (t, mtbf)))
        .map(|(t, mtbf)| {
            let series = RECOVERY_PROTOCOLS
                .iter()
                .map(|&proto| {
                    let pessimistic = take_point(proto);
                    let optimistic = take_point(proto);
                    (proto.name().to_string(), pessimistic, optimistic)
                })
                .collect();
            RecoveryRow { t_switch: t, mtbf, series }
        })
        .collect()
}

/// One environment row of the E9 scenario comparison.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Environment label.
    pub env: &'static str,
    /// `N_tot` per protocol.
    pub n_tot: Vec<(String, Estimate)>,
    /// Mean hand-offs per run, averaged over the protocols.
    pub mean_handoffs: f64,
    /// Mean disconnections per run, averaged over the protocols.
    pub mean_disconnects: f64,
}

/// The two environments E9 compares, both on a 2×3 grid of 6 cells: the
/// paper's uniform-hand-off mobility against a biased Markov walk whose
/// transition matrix funnels hosts along the grid's middle column and
/// whose dwell means differ per cell.
pub fn e9_envs() -> Vec<(&'static str, scenario::EnvSpec, usize)> {
    use scenario::{EnvSpec, MobilitySpec, TopologySpec};
    let grid = TopologySpec::Grid { cols: 3 };
    let paper_env = EnvSpec {
        topology: grid.clone(),
        ..EnvSpec::default()
    };
    // Row-stochastic over the grid edges (cells 0 1 2 / 3 4 5), biased
    // toward the middle column (cells 1 and 4).
    let matrix = vec![
        vec![0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
        vec![0.3, 0.0, 0.3, 0.0, 0.4, 0.0],
        vec![0.0, 0.5, 0.0, 0.0, 0.0, 0.5],
        vec![0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
        vec![0.0, 0.3, 0.0, 0.3, 0.0, 0.4],
        vec![0.0, 0.0, 0.4, 0.0, 0.6, 0.0],
    ];
    let markov_env = EnvSpec {
        topology: grid,
        mobility: MobilitySpec::Markov {
            matrix,
            cell_dwell_means: Some(vec![250.0, 500.0, 250.0, 750.0, 500.0, 750.0]),
            p_disconnect: 0.2,
        },
        ..EnvSpec::default()
    };
    vec![
        ("paper mobility, grid 2x3", paper_env, 6),
        ("markov mobility, grid 2x3", markov_env, 6),
    ]
}

/// Extension E9: protocol comparison under Markov vs. paper mobility on
/// the same grid topology. The protocol *ranking* should be robust to the
/// mobility structure (it depends on checkpoint and communication rates),
/// while the absolute `N_tot` and the hand-off/disconnect mix shift with
/// the movement model.
pub fn ext_scenarios(base_seed: u64, replications: usize) -> Vec<ScenarioRow> {
    e9_envs()
        .into_iter()
        .map(|(name, env, n_mss)| {
            let mut n_tot = Vec::new();
            let mut handoffs = 0.0;
            let mut disconnects = 0.0;
            for &proto in &CicKind::PAPER {
                let mut cfg = SimConfig::paper(ProtocolChoice::Cic(proto), 500.0, 0.8, 0.0);
                cfg.n_mss = n_mss;
                cfg.env = env.clone();
                cfg.horizon = 4000.0;
                let s = summarize_point(&cfg, base_seed, replications);
                let per_run = s.reports.len() as f64;
                handoffs += s.reports.iter().map(|r| r.handoffs as f64).sum::<f64>() / per_run;
                disconnects +=
                    s.reports.iter().map(|r| r.disconnects as f64).sum::<f64>() / per_run;
                n_tot.push((proto.name().to_string(), s.n_tot));
            }
            let protos = CicKind::PAPER.len() as f64;
            ScenarioRow {
                env: name,
                n_tot,
                mean_handoffs: handoffs / protos,
                mean_disconnects: disconnects / protos,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_match_paper() {
        assert_eq!(figure(1).p_switch, 1.0);
        assert_eq!(figure(1).heterogeneity, 0.0);
        assert_eq!(figure(4).p_switch, 0.8);
        assert_eq!(figure(4).heterogeneity, 0.5);
        assert_eq!(figure(6).heterogeneity, 0.3);
        assert_eq!(figure(2).protocols, CicKind::PAPER.to_vec());
        assert!(figure(3).caption().contains("H=50%"));
    }

    #[test]
    #[should_panic(expected = "figures 1–6")]
    fn unknown_figure_rejected() {
        figure(7);
    }

    #[test]
    fn tiny_figure_run_produces_series() {
        let spec = FigureSpec {
            id: 1,
            p_switch: 1.0,
            heterogeneity: 0.0,
            t_switch_values: vec![100.0, 1000.0],
            protocols: vec![CicKind::Bcs, CicKind::Qbc],
        };
        let mut small = spec.clone();
        small.t_switch_values = vec![100.0];
        let res = run_figure(&small, 1, 2);
        assert_eq!(res.points.len(), 1);
        let p = &res.points[0];
        assert!(p.of("BCS").unwrap().mean > 0.0);
        assert!(p.of("QBC").unwrap().mean > 0.0);
        assert!(p.of("TP").is_none());
        let table = res.table();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn log_size_sweep_reports_pessimistic_log_occupancy() {
        let rows = ext_log_size(5, 1, &[200.0]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].series.len(), LOG_SIZE_PROTOCOLS.len());
        for (name, s) in &rows[0].series {
            assert!(!name.is_empty());
            assert!(s.mean_peak_bytes >= s.mean_live_bytes);
            assert!(s.mean_appended_entries > 0.0);
        }
    }

    #[test]
    fn recovery_sweep_executes_crashes_in_both_modes() {
        let rows = ext_recovery(9, 1, &[500.0]);
        // One T_switch × both MTBFs.
        assert_eq!(rows.len(), RECOVERY_MTBFS.len());
        for row in &rows {
            assert_eq!(row.series.len(), RECOVERY_PROTOCOLS.len());
            for (name, pess, opt) in &row.series {
                assert!(!name.is_empty());
                // MTBF ≤ horizon with 10 hosts: crashes must have fired.
                assert!(pess.crashes > 0.0 && opt.crashes > 0.0);
                assert!(pess.mean_downtime > 0.0);
                assert!(pess.availability > 0.0 && pess.availability <= 1.0);
                // Pessimistic logging has no flush window to lose.
                assert_eq!(pess.unstable_lost, 0.0);
            }
        }
    }

    #[test]
    fn scenario_comparison_covers_both_environments() {
        let rows = ext_scenarios(11, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.n_tot.len(), CicKind::PAPER.len());
            assert!(row.mean_handoffs > 0.0);
            for (_, e) in &row.n_tot {
                assert!(e.mean > 0.0);
            }
        }
    }

    #[test]
    fn batched_figures_match_individual_runs() {
        let mut a = figure(1);
        a.t_switch_values = vec![100.0];
        a.protocols = vec![CicKind::Bcs, CicKind::Qbc];
        let mut b = figure(2);
        b.t_switch_values = vec![100.0, 200.0];
        b.protocols = vec![CicKind::Bcs];
        let batched = run_figures(&[a.clone(), b.clone()], 7, 2);
        let solo_a = run_figure(&a, 7, 2);
        let solo_b = run_figure(&b, 7, 2);
        assert_eq!(batched.len(), 2);
        for (batch, solo) in batched.iter().zip([&solo_a, &solo_b]) {
            assert_eq!(batch.points.len(), solo.points.len());
            for (bp, sp) in batch.points.iter().zip(&solo.points) {
                assert_eq!(bp.t_switch, sp.t_switch);
                assert_eq!(bp.n_tot, sp.n_tot);
            }
        }
    }

    #[test]
    fn flattened_sweep_matches_pointwise_summaries() {
        let cfg = SimConfig {
            horizon: 200.0,
            protocol: ProtocolChoice::Cic(CicKind::Qbc),
            ..Default::default()
        };
        let swept = run_sweep(&cfg, &[50.0, 100.0], 3, 2);
        assert_eq!(swept.len(), 2);
        for (t, summary) in &swept {
            let mut c = cfg.clone();
            c.t_switch = *t;
            let expected = summarize_point(&c, 3, 2);
            assert_eq!(summary.n_tot, expected.n_tot);
            assert_eq!(summary.msgs_delivered, expected.msgs_delivered);
            assert_eq!(summary.protocol, expected.protocol);
        }
    }

    #[test]
    fn gains_computed_from_means() {
        let res = FigureResult {
            spec: figure(1),
            points: vec![SeriesPoint {
                t_switch: 100.0,
                n_tot: vec![
                    ("TP".into(), Estimate { mean: 100.0, ci95: 0.0, n: 1 }),
                    ("BCS".into(), Estimate { mean: 40.0, ci95: 0.0, n: 1 }),
                    ("QBC".into(), Estimate { mean: 30.0, ci95: 0.0, n: 1 }),
                ],
            }],
        };
        assert!((res.gain_at(100.0, "BCS", "TP").unwrap() - 0.6).abs() < 1e-12);
        assert!((res.max_gain("QBC", "BCS") - 0.25).abs() < 1e-12);
        assert_eq!(res.gain_at(999.0, "BCS", "TP"), None);
    }
}
