//! `model-check`: `mcheck::check` of BCS, QBC and TP on 2 MHs × 2 MSSs to
//! horizon 3, QBC to horizon 4, and the mutated BCS world. One operation is
//! one exhaustive check.
//!
//! The worlds are pinned at world seed 1: across world seeds 1–10 the BCS
//! state space ranges from 143 to 52,330 states, so a world drawn from
//! `--seed` would make the run time measure the seed. `--seed` orders the
//! checks within a round.

use std::collections::HashSet;

use cic::CicKind;
use mcheck::mutate::BrokenForced;
use mcheck::CheckConfig;
use mck::prelude::Simulation;
use mck::simulation::Choice;
use simkit::event::Scheduler;
use simkit::rng::SimRng;
use simkit::time::SimTime;

use super::{Outcome, Workload};
use crate::checks;
use crate::layers::Layers;

pub struct ModelCheck {
    worlds: Vec<CheckConfig>,
    /// This round's broken properties.
    problems: Vec<String>,
}

fn label(cfg: &CheckConfig) -> String {
    let mutated = if cfg.mutate { " mutated" } else { "" };
    format!(
        "check {} horizon {}{mutated}",
        cfg.protocol.name(),
        cfg.horizon
    )
}

fn world(protocol: CicKind, horizon: f64, mutate: bool) -> CheckConfig {
    CheckConfig {
        protocol,
        horizon,
        mutate,
        ..CheckConfig::default()
    }
}

impl ModelCheck {
    pub fn prepare(seed: u64) -> ModelCheck {
        let mut worlds = vec![
            world(CicKind::Bcs, 3.0, false),
            world(CicKind::Qbc, 3.0, false),
            world(CicKind::Tp, 3.0, false),
            world(CicKind::Qbc, 4.0, false),
            world(CicKind::Bcs, 3.0, true),
        ];
        let mut rng = SimRng::new(seed);
        for i in (1..worlds.len()).rev() {
            worlds.swap(i, rng.index(i + 1));
        }
        // Warm-up: the smallest check, untimed.
        std::hint::black_box(mcheck::check(&world(CicKind::Qbc, 3.0, false)));
        ModelCheck {
            worlds,
            problems: Vec::new(),
        }
    }
}

fn verdict(cfg: &CheckConfig, out: &mcheck::CheckOutcome) -> Vec<String> {
    if cfg.mutate {
        checks::reproduced_counterexample(&label(cfg), cfg, out)
    } else {
        checks::clean_check(&label(cfg), out)
    }
}

/// The handler bucket of a choice, from its stable label.
fn choice_metric(c: &Choice) -> &'static str {
    let kind = c.label.split('(').next().unwrap_or("");
    match kind {
        "activity" => "core.activity_s",
        "deliver" => "core.deliver_s",
        "mobility" | "reconnect" => "core.mobility_s",
        "crash" | "mss_crash" | "recovered" => "core.failure_s",
        _ => "core.coord_s",
    }
}

fn apply(
    sim: &mut Simulation,
    sched: &mut Scheduler<mck::simulation::Ev>,
    c: &Choice,
    layers: &mut Layers,
) {
    layers.time(choice_metric(c), || sim.apply_choice(sched, c.seq));
    layers.add("simkit.events", 1.0);
}

fn violates(cfg: &CheckConfig, sim: &Simulation, layers: &mut Layers) -> bool {
    let trace = layers.time("causality.clone_s", || {
        sim.trace_snapshot().expect("checker worlds record traces")
    });
    layers
        .time("mcheck.invariant_s", || {
            mcheck::invariant::check_state(cfg.protocol, &trace, cfg.horizon)
        })
        .is_some()
}

/// The benchmark's own breadth-first walk of `cfg`'s world, in the order
/// `mcheck::check` explores it, timing each public call; returns the
/// distinct and deduplicated state counts.
fn walk(cfg: &CheckConfig, layers: &mut Layers) -> (usize, usize) {
    let horizon = SimTime::new(cfg.horizon);
    let mut root = layers.time("core.world_build_s", || Simulation::new(cfg.sim_config()));
    if cfg.mutate {
        root.0.map_protocols(|p| Box::new(BrokenForced::new(p)));
    }
    let mut seen = HashSet::new();
    seen.insert(layers.time("mcheck.fingerprint_s", || root.0.fingerprint(&root.1)));
    let (mut states, mut deduped) = (1usize, 0usize);
    if violates(cfg, &root.0, layers) {
        return (states, deduped);
    }
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    'bfs: while !frontier.is_empty() {
        let mut next = Vec::new();
        for prefix in &frontier {
            let (mut sim, mut sched) =
                layers.time("mcheck.clone_s", || (root.0.clone(), root.1.clone()));
            for &i in prefix {
                let choices = layers.time("mcheck.enabled_s", || {
                    Simulation::enabled_choices(&sched, horizon)
                });
                apply(&mut sim, &mut sched, &choices[i], layers);
            }
            let choices = layers.time("mcheck.enabled_s", || {
                Simulation::enabled_choices(&sched, horizon)
            });
            for (i, c) in choices.iter().enumerate() {
                let (mut fork, mut fork_sched) =
                    layers.time("mcheck.clone_s", || (sim.clone(), sched.clone()));
                apply(&mut fork, &mut fork_sched, c, layers);
                let fp = layers.time("mcheck.fingerprint_s", || fork.fingerprint(&fork_sched));
                if !seen.insert(fp) {
                    deduped += 1;
                    continue;
                }
                states += 1;
                if violates(cfg, &fork, layers) || states >= cfg.max_states {
                    break 'bfs;
                }
                let mut child = prefix.clone();
                child.push(i);
                next.push(child);
            }
        }
        frontier = next;
    }
    (states, deduped)
}

impl Workload for ModelCheck {
    fn steps(&self) -> usize {
        self.worlds.len()
    }

    fn step(&mut self, i: usize) {
        let cfg = &self.worlds[i];
        let found = verdict(cfg, &mcheck::check(cfg));
        self.problems.extend(found);
    }

    fn finish(&mut self) -> Outcome {
        Outcome {
            attempted: self.worlds.len() as u64,
            failed: 0,
            problems: std::mem::take(&mut self.problems),
        }
    }

    fn traced_round(&mut self, layers: &mut Layers) -> Outcome {
        let mut problems = Vec::new();
        for cfg in &self.worlds {
            let out = mcheck::check(cfg);
            problems.extend(verdict(cfg, &out));
            layers.add("mcheck.states", out.states_explored as f64);
            layers.add("mcheck.deduped", out.states_deduped as f64);
            let (states, deduped) = walk(cfg, layers);
            let label = label(cfg);
            problems.extend(checks::same_count(
                &format!("{label} states"),
                states as u64,
                out.states_explored as u64,
            ));
            problems.extend(checks::same_count(
                &format!("{label} deduped"),
                deduped as u64,
                out.states_deduped as u64,
            ));
        }
        Outcome {
            attempted: self.worlds.len() as u64,
            failed: 0,
            problems,
        }
    }
}
