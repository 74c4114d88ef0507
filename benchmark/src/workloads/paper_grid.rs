//! `paper-grid`: Figures 1–6 (6 figures × 7 `T_switch` values × TP/BCS/QBC,
//! 10 MHs, 5 MSSs, horizon 10⁴, one replication) plus the protocol-class
//! rows at `T_switch` 1000, one run after another on one thread — what
//! every reproduction of the paper waits on. One operation (and one timed
//! step) is one simulation run.

use std::hint::black_box;

use mck::prelude::{experiments, CicKind, ProtocolChoice, RunReport, SimConfig, Simulation};

use super::{Outcome, Workload};
use crate::checks::{self, FigurePoint, RunFacts};
use crate::layers::Layers;
use crate::replay;

/// Mean interval of the coordinated baselines' rounds and of the
/// uncoordinated baseline's periodic checkpoints (as `mck classes`).
const CLASS_INTERVAL: f64 = 100.0;

struct GridRun {
    cfg: SimConfig,
    /// Figure number, `None` for a protocol-class row.
    figure: Option<usize>,
    label: String,
}

/// What the checks read from one run's report.
struct GridFacts {
    counts: RunFacts,
    n_tot: u64,
    blocked_sends: u64,
}

pub struct PaperGrid {
    runs: Vec<GridRun>,
    /// This round's facts, in run order.
    facts: Vec<GridFacts>,
}

/// The seed of every run at figure point `point` (a figure and one
/// `T_switch`; 0 for the class rows). The protocols at a point share it, so
/// they are compared on the same random streams, as in one replication of
/// `mck fig`. Unlike `mck fig`, the points draw independent seeds: the
/// round's peak heap is set by its largest runs (TP at frequent switching),
/// and with one seed for the whole grid those runs share one draw, which
/// moved the peak by 11 % (coefficient of variation) from seed to seed.
fn point_seed(seed: u64, point: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(point)
}

fn facts(run: &GridRun, r: &RunReport) -> GridFacts {
    GridFacts {
        counts: RunFacts::of(run.label.clone(), r),
        n_tot: r.n_tot(),
        blocked_sends: r.blocked_sends,
    }
}

impl PaperGrid {
    /// Every run of the grid, configured as `experiments::run_figures` and
    /// `experiments::ext_classes` do, with seeds from [`point_seed`].
    pub fn prepare(seed: u64) -> PaperGrid {
        let mut runs = Vec::new();
        let mut point = 0;
        for id in 1..=6 {
            let spec = experiments::figure(id);
            for &t_switch in &spec.t_switch_values {
                point += 1;
                for &proto in &spec.protocols {
                    runs.push(GridRun {
                        cfg: SimConfig {
                            protocol: ProtocolChoice::Cic(proto),
                            t_switch,
                            p_switch: spec.p_switch,
                            heterogeneity: spec.heterogeneity,
                            seed: point_seed(seed, point),
                            ..SimConfig::default()
                        },
                        figure: Some(id),
                        label: format!("fig {id} {} T_switch {t_switch}", proto.name()),
                    });
                }
            }
        }
        let interval = CLASS_INTERVAL;
        for protocol in [
            ProtocolChoice::Cic(CicKind::Uncoordinated),
            ProtocolChoice::ChandyLamport { interval },
            ProtocolChoice::PrakashSinghal { interval },
            ProtocolChoice::KooToueg { interval },
        ] {
            let mut cfg = SimConfig::paper(protocol, 1000.0, 0.8, 0.0);
            cfg.periodic_mean = CLASS_INTERVAL;
            cfg.seed = point_seed(seed, 0);
            runs.push(GridRun {
                cfg,
                figure: None,
                label: format!("classes {}", protocol.name()),
            });
        }
        // Warm-up: Figure 1's runs, untimed.
        for run in runs.iter().filter(|r| r.figure == Some(1)) {
            black_box(Simulation::run(run.cfg.clone()));
        }
        PaperGrid {
            runs,
            facts: Vec::new(),
        }
    }

    fn check(&self, facts: &[GridFacts]) -> Vec<String> {
        let mut problems: Vec<String> = facts
            .iter()
            .flat_map(|f| checks::run_counts(&f.counts))
            .collect();
        for id in 1..=6 {
            let n_tot = |t: f64, k: CicKind| {
                self.runs
                    .iter()
                    .zip(facts)
                    .find(|(run, _)| {
                        run.figure == Some(id)
                            && run.cfg.t_switch == t
                            && run.cfg.protocol.name() == k.name()
                    })
                    .map(|(_, f)| f.n_tot)
                    .expect("every figure point has a run per protocol")
            };
            let points: Vec<FigurePoint> = experiments::figure(id)
                .t_switch_values
                .iter()
                .map(|&t| FigurePoint {
                    t_switch: t,
                    tp: n_tot(t, CicKind::Tp),
                    bcs: n_tot(t, CicKind::Bcs),
                    qbc: n_tot(t, CicKind::Qbc),
                })
                .collect();
            problems.extend(checks::figure_orderings(id, &points));
        }
        let classes: Vec<(String, u64)> = self
            .runs
            .iter()
            .zip(facts)
            .filter(|(run, _)| run.figure.is_none())
            .map(|(run, f)| (run.cfg.protocol.name().to_string(), f.blocked_sends))
            .collect();
        problems.extend(checks::only_koo_toueg_blocks(&classes));
        problems
    }
}

impl Workload for PaperGrid {
    fn steps(&self) -> usize {
        self.runs.len()
    }

    fn step(&mut self, i: usize) {
        let report = Simulation::run(self.runs[i].cfg.clone());
        self.facts.push(facts(&self.runs[i], &report));
    }

    fn finish(&mut self) -> Outcome {
        let facts = std::mem::take(&mut self.facts);
        Outcome {
            attempted: self.runs.len() as u64,
            failed: 0,
            problems: self.check(&facts),
        }
    }

    fn traced_round(&mut self, layers: &mut Layers) -> Outcome {
        let mut all = Vec::with_capacity(self.runs.len());
        let (mut events, mut forced) = (0, 0);
        let (mut reported_events, mut reported_forced) = (0, 0);
        for run in &self.runs {
            events += replay::event_loop(&run.cfg, false, layers).events;
            let report = replay::recorded_run(&run.cfg, false);
            let stream = replay::records(&report);
            forced += replay::replay_cic(&run.cfg, &stream, layers);
            replay::replay_mobnet(&run.cfg, &stream, layers);
            reported_events += report.events;
            reported_forced += report.ckpts.forced;
            all.push(facts(run, &report));
        }
        let mut problems = self.check(&all);
        problems.extend(checks::same_count("simkit.events", events, reported_events));
        problems.extend(checks::same_count("cic.forced", forced, reported_forced));
        Outcome {
            attempted: self.runs.len() as u64,
            failed: 0,
            problems,
        }
    }
}
