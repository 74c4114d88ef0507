//! Breadth-first exploration of the schedule space.
//!
//! A *state* is a forked [`Simulation`] plus its pending-event scheduler; a
//! *schedule* is the sequence of enabled-set indices chosen from the root.
//! The explorer expands states in depth order (BFS), so the first violating
//! schedule it reports is one of minimum length — the most readable
//! counterexample the bound admits.
//!
//! Memory discipline: the frontier stores compact index prefixes, not
//! forked worlds. Each expansion re-derives its state by replaying the
//! prefix from the root — O(depth) event firings against worlds of a few
//! hosts — trading a little CPU for a frontier that never holds more than
//! integers. Deduplication is by [`Simulation::fingerprint`] over a
//! [`HashSet`]: a child whose live state was already reached through a
//! commuted schedule is merged (counted, not re-expanded). Invariants are
//! asserted on every state *before* merging, so the abstraction never
//! hides a violation reachable within the bound.

use std::collections::HashSet;

use mck::simulation::{Ev, Simulation};
use simkit::event::Scheduler;
use simkit::time::SimTime;

use crate::invariant::{self, Violation};
use crate::mutate::BrokenForced;
use crate::CheckConfig;

/// One step of a counterexample schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Index into the enabled set (`Simulation::enabled_choices`) at the
    /// moment of the choice — the replayable coordinate.
    pub choice: usize,
    /// Human-readable event description, e.g. `deliver(mh1<-mh0)`.
    pub label: String,
    /// Scheduled firing time of the chosen event.
    pub time: f64,
}

/// A schedule: choice indices from the root, with labels for humans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// The steps in order.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// The raw choice indices (what replay needs).
    pub fn indices(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.choice).collect()
    }

    /// `label@time` per step, the display form.
    pub fn labels(&self) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| format!("{}@{:.3}", s.label, s.time))
            .collect()
    }
}

/// A violation together with the (minimal-depth) schedule reaching it.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// What broke.
    pub violation: Violation,
    /// How to get there from the root.
    pub schedule: Schedule,
}

/// Result of one exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Distinct states reached and invariant-checked (root included).
    pub states_explored: usize,
    /// Children merged into an already-seen fingerprint.
    pub states_deduped: usize,
    /// Deepest schedule length reached.
    pub max_depth: usize,
    /// True when the frontier drained within the state budget: every
    /// schedule within the horizon was covered (up to live-state
    /// equivalence). False when the budget cut exploration short or a
    /// violation stopped it.
    pub complete: bool,
    /// The first (minimal-depth) violation found, if any.
    pub counterexample: Option<Counterexample>,
}

/// Result of replaying a recorded schedule ([`replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// First violation along the schedule (a counterexample replay must
    /// reproduce its recorded violation here).
    pub violation: Option<Violation>,
    /// The steps actually replayed (stops at the first violation).
    pub schedule: Schedule,
}

fn make_root(cfg: &CheckConfig) -> (Simulation, Scheduler<Ev>) {
    let sim_cfg = cfg.sim_config();
    sim_cfg.validate();
    let (mut sim, sched) = Simulation::new(sim_cfg);
    if cfg.mutate {
        sim.map_protocols(|p| Box::new(BrokenForced::new(p)));
    }
    (sim, sched)
}

fn check_trace(cfg: &CheckConfig, sim: &Simulation) -> Option<Violation> {
    let trace = sim.trace().expect("checker configs record traces");
    invariant::check_state(cfg.protocol, trace, cfg.horizon)
}

/// Replays `prefix` from a fresh root clone, returning the reached world.
fn replay_prefix(
    root: &(Simulation, Scheduler<Ev>),
    prefix: &[usize],
    horizon: SimTime,
) -> (Simulation, Scheduler<Ev>) {
    let (mut sim, mut sched) = (root.0.clone(), root.1.clone());
    for &i in prefix {
        let choices = Simulation::enabled_choices(&sched, horizon);
        let c = choices
            .get(i)
            .unwrap_or_else(|| panic!("prefix index {i} out of {} enabled", choices.len()));
        let seq = c.seq;
        sim.apply_choice(&mut sched, seq);
    }
    (sim, sched)
}

/// Replays `prefix` recording each step's label and time.
fn record_schedule(
    root: &(Simulation, Scheduler<Ev>),
    prefix: &[usize],
    horizon: SimTime,
) -> Schedule {
    let (mut sim, mut sched) = (root.0.clone(), root.1.clone());
    let mut steps = Vec::with_capacity(prefix.len());
    for &i in prefix {
        let choices = Simulation::enabled_choices(&sched, horizon);
        let c = choices[i].clone();
        sim.apply_choice(&mut sched, c.seq);
        steps.push(Step {
            choice: i,
            label: c.label,
            time: c.time,
        });
    }
    Schedule { steps }
}

/// Exhaustively explores every schedule of `cfg`'s root world up to the
/// horizon, checking the safety invariants in each distinct state.
///
/// Stops at the first violation (reporting its minimal-depth schedule) or
/// when the state budget is exhausted; otherwise runs the frontier dry and
/// reports `complete`.
pub fn check(cfg: &CheckConfig) -> CheckOutcome {
    let horizon = SimTime::new(cfg.horizon);
    let root = make_root(cfg);
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(root.0.fingerprint(&root.1));
    let mut states_explored = 1usize;
    let mut states_deduped = 0usize;
    let mut max_depth = 0usize;
    if let Some(violation) = check_trace(cfg, &root.0) {
        // The root itself violates (possible only under pathological
        // mutations): the empty schedule is the counterexample.
        return CheckOutcome {
            states_explored,
            states_deduped,
            max_depth,
            complete: false,
            counterexample: Some(Counterexample {
                violation,
                schedule: Schedule::default(),
            }),
        };
    }
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut exhausted = false;
    'bfs: while !frontier.is_empty() {
        let mut next: Vec<Vec<usize>> = Vec::new();
        for prefix in &frontier {
            let (sim, sched) = replay_prefix(&root, prefix, horizon);
            let choices = Simulation::enabled_choices(&sched, horizon);
            for (i, c) in choices.iter().enumerate() {
                let mut fork = sim.clone();
                let mut fork_sched = sched.clone();
                fork.apply_choice(&mut fork_sched, c.seq);
                if !seen.insert(fork.fingerprint(&fork_sched)) {
                    states_deduped += 1;
                    continue;
                }
                states_explored += 1;
                max_depth = max_depth.max(prefix.len() + 1);
                if let Some(violation) = check_trace(cfg, &fork) {
                    let mut schedule = record_schedule(&root, prefix, horizon);
                    schedule.steps.push(Step {
                        choice: i,
                        label: c.label.clone(),
                        time: c.time,
                    });
                    return CheckOutcome {
                        states_explored,
                        states_deduped,
                        max_depth,
                        complete: false,
                        counterexample: Some(Counterexample { violation, schedule }),
                    };
                }
                if states_explored >= cfg.max_states {
                    exhausted = true;
                    break 'bfs;
                }
                let mut child = prefix.clone();
                child.push(i);
                next.push(child);
            }
        }
        frontier = next;
    }
    CheckOutcome {
        states_explored,
        states_deduped,
        max_depth,
        complete: !exhausted,
        counterexample: None,
    }
}

/// Deterministically replays a recorded schedule from the root world,
/// checking invariants after every step.
///
/// Stops at the first violation; a valid counterexample artifact replays to
/// exactly its recorded violation on its final step.
///
/// # Panics
/// Panics if a step index exceeds the enabled set — the schedule does not
/// belong to this configuration.
pub fn replay(cfg: &CheckConfig, indices: &[usize]) -> ReplayOutcome {
    let horizon = SimTime::new(cfg.horizon);
    let (mut sim, mut sched) = make_root(cfg);
    let mut steps = Vec::with_capacity(indices.len());
    let mut violation = check_trace(cfg, &sim);
    for &i in indices {
        if violation.is_some() {
            break;
        }
        let choices = Simulation::enabled_choices(&sched, horizon);
        let c = choices
            .get(i)
            .unwrap_or_else(|| {
                panic!("replay step {i} out of range: only {} events enabled", choices.len())
            })
            .clone();
        sim.apply_choice(&mut sched, c.seq);
        steps.push(Step {
            choice: i,
            label: c.label,
            time: c.time,
        });
        violation = check_trace(cfg, &sim);
    }
    ReplayOutcome {
        violation,
        schedule: Schedule { steps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cic::CicKind;

    fn tiny(protocol: CicKind, horizon: f64, mutate: bool) -> CheckConfig {
        CheckConfig {
            protocol,
            horizon,
            mutate,
            ..CheckConfig::default()
        }
    }

    #[test]
    fn bcs_2x2_exhaustive_is_clean() {
        let out = check(&tiny(CicKind::Bcs, 2.0, false));
        assert!(out.complete, "budget too small: {out:?}");
        assert!(out.counterexample.is_none(), "{out:?}");
        assert!(out.states_explored > 10, "trivial space: {out:?}");
        assert!(out.states_deduped > 0, "commuting schedules should merge");
    }

    #[test]
    fn mutated_bcs_yields_minimal_replayable_counterexample() {
        let cfg = tiny(CicKind::Bcs, 3.0, true);
        let out = check(&cfg);
        let cx = out.counterexample.expect("mutation must be caught");
        assert!(!cx.schedule.steps.is_empty());
        // BFS order means no shorter schedule violates: spot-check that
        // every strict prefix of the counterexample is clean.
        let indices = cx.schedule.indices();
        for cut in 0..indices.len() {
            let prefix_out = replay(&cfg, &indices[..cut]);
            assert_eq!(prefix_out.violation, None, "shorter schedule violates");
        }
        // The recorded schedule replays deterministically to the same
        // violation, labels included.
        let replayed = replay(&cfg, &indices);
        assert_eq!(replayed.violation, Some(cx.violation.clone()));
        assert_eq!(replayed.schedule, cx.schedule);
        // The planted bug breaks the clean run's guarantee, not the model:
        // the unmutated configuration stays clean on the same horizon.
        let clean = check(&tiny(CicKind::Bcs, 3.0, false));
        assert!(clean.counterexample.is_none());
    }

    #[test]
    fn budget_cuts_exploration_short_but_honestly() {
        let out = check(&CheckConfig {
            max_states: 5,
            ..CheckConfig::default()
        });
        assert!(!out.complete);
        assert_eq!(out.states_explored, 5);
        assert!(out.counterexample.is_none());
    }

    #[test]
    fn replay_of_empty_schedule_is_clean_root() {
        let out = replay(&CheckConfig::default(), &[]);
        assert_eq!(out.violation, None);
        assert!(out.schedule.steps.is_empty());
    }
}
