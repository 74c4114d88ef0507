//! The four workloads. Each is a closed loop from this one process: a round
//! runs every operation of the workload once, then checks the outputs.

mod crash_recovery;
mod model_check;
mod paper_grid;
mod serve_large_world;

use crate::layers::Layers;

/// What one round did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed outright (no result to check).
    pub failed: u64,
    /// Broken output properties.
    pub problems: Vec<String>,
}

/// A workload after set-up. A round is `steps()` timed steps followed by
/// [`Workload::finish`]; together they run every operation once and check
/// the outputs.
pub trait Workload {
    /// Timed steps per round (the same in every round).
    fn steps(&self) -> usize;

    /// Runs step `i` of the current round, keeping its outputs.
    fn step(&mut self, i: usize);

    /// Checks the round's outputs and clears them for the next round.
    fn finish(&mut self) -> Outcome;

    /// The same operations, timed through the benchmark's own calls into
    /// each layer; per-layer totals go to `layers`.
    fn traced_round(&mut self, layers: &mut Layers) -> Outcome;
}

/// Sets up the named workload from `seed`: derives its inputs, builds what
/// the checks compare against, and runs an untimed warm-up.
pub fn prepare(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    // At most one job worker: results do not depend on it, and a single
    // worker keeps the measurement off the second vCPU's neighbours.
    mck::runner::set_jobs(1);
    Ok(match name {
        "paper-grid" => Box::new(paper_grid::PaperGrid::prepare(seed)),
        "serve-large-world" => Box::new(serve_large_world::ServeLargeWorld::prepare(seed)?),
        "crash-recovery" => Box::new(crash_recovery::CrashRecovery::prepare(seed)),
        "model-check" => Box::new(model_check::ModelCheck::prepare(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}
