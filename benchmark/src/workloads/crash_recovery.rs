//! `crash-recovery`: E10-shaped runs at N=100 hosts over 3 cells — per-host
//! MTBF 2000, `T_switch` 500, `P_switch` 0.8 — for QBC and TP, each with
//! pessimistic logging, optimistic logging (flush 5) and optimistic logging
//! with flush 0, one run after another on one thread. Failure injection
//! turns on trace recording, whose cost dominates the runs; the horizon
//! keeps each run near 10 ms and its recorded trace small, so a run of the
//! benchmark times every one of them several times. One operation is one
//! run.

use std::hint::black_box;

use faultsim::RecoveryStats;
use mck::prelude::{CicKind, LoggingMode, ProtocolChoice, RunReport, SimConfig, Simulation};

use super::{Outcome, Workload};
use crate::checks::{self, RunFacts};
use crate::layers::Layers;
use crate::replay;

const HOSTS: usize = 100;
const CELLS: usize = 3;
const MTBF: f64 = 2000.0;
const T_SWITCH: f64 = 500.0;
const P_SWITCH: f64 = 0.8;
const HORIZON: f64 = 100.0;
const FLUSH: f64 = 5.0;
/// Independent worlds per protocol and round: one world's run time swings
/// with its seed (19 % coefficient of variation at horizon 100), a sum over
/// 32 by 3.4 %.
const WORLDS: u64 = 32;
const PROTOCOLS: [CicKind; 2] = [CicKind::Qbc, CicKind::Tp];
/// The three logging arms of each world, in run order.
const ARMS: [(LoggingMode, f64, &str); 3] = [
    (LoggingMode::Pessimistic, 0.0, "pessimistic"),
    (LoggingMode::Optimistic, FLUSH, "optimistic flush 5"),
    (LoggingMode::Optimistic, 0.0, "optimistic flush 0"),
];

pub struct CrashRecovery {
    /// `ARMS.len()` consecutive configurations per (world, protocol).
    configs: Vec<SimConfig>,
    /// This round's recovery statistics, in configuration order.
    stats: Vec<RecoveryStats>,
    /// This round's broken properties.
    problems: Vec<String>,
}

fn label(cfg: &SimConfig, arm: usize) -> String {
    format!(
        "crash {} seed {} {}",
        cfg.protocol.name(),
        cfg.seed,
        ARMS[arm].2
    )
}

impl CrashRecovery {
    pub fn prepare(seed: u64) -> CrashRecovery {
        let mut configs = Vec::new();
        for world in 0..WORLDS {
            for proto in PROTOCOLS {
                for (logging, flush_latency, _) in ARMS {
                    configs.push(SimConfig {
                        n_mhs: HOSTS,
                        n_mss: CELLS,
                        logging,
                        flush_latency,
                        fail_mtbf: MTBF,
                        horizon: HORIZON,
                        seed: seed.wrapping_mul(WORLDS).wrapping_add(world),
                        ..SimConfig::paper(ProtocolChoice::Cic(proto), T_SWITCH, P_SWITCH, 0.0)
                    });
                }
            }
        }
        // Warm-up: the first world's runs, untimed.
        for cfg in &configs[..PROTOCOLS.len() * ARMS.len()] {
            black_box(Simulation::run(cfg.clone()));
        }
        CrashRecovery {
            configs,
            stats: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Checks run `i` as soon as it ends, so no report outlives its step;
    /// the last arm of a world also checks the arms against each other.
    fn check(&mut self, i: usize, r: &RunReport) {
        let cfg = &self.configs[i];
        let arm = i % ARMS.len();
        let name = label(cfg, arm);
        let stats = r.recovery.expect("failure injection is enabled");
        self.problems
            .extend(checks::run_counts(&RunFacts::of(name.clone(), r)));
        self.problems
            .extend(checks::recoveries_follow_crashes(&name, &stats));
        if arm < 2 {
            // The flush-0 arm's trace is the pessimistic arm's.
            let tp = cfg.protocol.name() == CicKind::Tp.name();
            let trace = r
                .trace
                .as_ref()
                .expect("failure injection records the trace");
            self.problems
                .extend(checks::recovery_lines(&name, tp, trace));
        }
        self.stats.push(stats);
        if arm == ARMS.len() - 1 {
            let arms = &self.stats[self.stats.len() - ARMS.len()..];
            let first = &self.configs[i + 1 - ARMS.len()];
            self.problems
                .extend(checks::pessimistic_recovery(&label(first, 0), &arms[0]));
            self.problems
                .extend(checks::zero_flush_twin(&name, &arms[0], &arms[2]));
        }
    }

    fn close(&mut self) -> Outcome {
        self.stats.clear();
        Outcome {
            attempted: self.configs.len() as u64,
            failed: 0,
            problems: std::mem::take(&mut self.problems),
        }
    }
}

impl Workload for CrashRecovery {
    fn steps(&self) -> usize {
        self.configs.len()
    }

    fn step(&mut self, i: usize) {
        let report = Simulation::run(self.configs[i].clone());
        self.check(i, &report);
    }

    fn finish(&mut self) -> Outcome {
        self.close()
    }

    fn traced_round(&mut self, layers: &mut Layers) -> Outcome {
        let (mut events, mut forced) = (0, 0);
        let (mut reported_events, mut reported_forced) = (0, 0);
        for i in 0..self.configs.len() {
            let cfg = self.configs[i].clone();
            let counts = replay::event_loop(&cfg, false, layers);
            events += counts.events;
            layers.add("faultsim.crashes", counts.crashes as f64);
            let mut report = replay::recorded_run(&cfg, false);
            let stream = replay::records(&report);
            forced += replay::replay_cic(&cfg, &stream, layers);
            replay::replay_mobnet(&cfg, &stream, layers);
            report.trace_events = None;
            replay::clone_trace(&report, layers);
            replay::plan_failure(&cfg, &report, layers);
            reported_events += report.events;
            reported_forced += report.ckpts.forced;
            self.check(i, &report);
        }
        let mut out = self.close();
        out.problems
            .extend(checks::same_count("simkit.events", events, reported_events));
        out.problems
            .extend(checks::same_count("cic.forced", forced, reported_forced));
        out
    }
}
