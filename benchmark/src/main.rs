//! The mck benchmark: one named workload per call, run through the
//! library's public API (the code behind `mck fig`, `mck crash`, `mck serve`
//! and `mck check`), with its outputs checked against properties the method
//! must have.
//!
//! ```text
//! mck-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones (`scaled_cpu_s`,
//! `peak_heap_mib`, `setup_s`); with `--trace 1` they are the per-layer
//! totals of a traced round, median over the run's traced rounds (see
//! `layers::PER_LAYER`).

mod alloc;
mod checks;
mod cpu;
mod layers;
mod replay;
mod workloads;
mod yardstick;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Layers, PER_LAYER};
use workloads::{Outcome, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: mck-benchmark --workload paper-grid|serve-large-world|crash-recovery|model-check \
--seed N --seconds S --trace 0|1";

/// Checked command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {s} is outside (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
        })
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Tallies whole rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, out: Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.problems.extend(out.problems);
    }
}

/// How often, at most, the yardstick is timed between a round's steps.
const YARDSTICK_EVERY: Duration = Duration::from_millis(50);

/// The cost of each step, and of the closing check, across rounds: CPU
/// seconds of the whole process (every thread) divided by the yardstick's
/// fastest time in the same round.
struct StepCosts {
    /// Per step, its cost in each round so far.
    steps: Vec<Vec<f64>>,
    /// This round's CPU seconds per step, before scaling.
    round: Vec<f64>,
    /// The yardstick's fastest time in each round so far.
    yardstick: Vec<f64>,
}

impl StepCosts {
    fn new(w: &dyn Workload) -> StepCosts {
        StepCosts {
            steps: vec![Vec::new(); w.steps() + 1],
            round: vec![0.0; w.steps() + 1],
            yardstick: Vec::new(),
        }
    }

    /// The round's cost as the sum of each step's smallest cost across the
    /// rounds so far: contention only ever slows a step down, so the
    /// smallest cost is the one least disturbed by contention that the
    /// yardstick did not feel.
    fn round_estimate(&self) -> f64 {
        self.steps
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// What one untraced round measured.
struct Round {
    wall: f64,
    heap: alloc::HeapWindow,
}

/// One untraced round with its steps' costs; the yardstick is timed before
/// the first step, between steps at most every [`YARDSTICK_EVERY`], and
/// after the closing check, always outside the steps' timings.
fn timed_round(w: &mut dyn Workload, costs: &mut StepCosts, tally: &mut Tally) -> Round {
    alloc::reset();
    let start = Instant::now();
    let mut fastest = yardstick::time(8);
    let mut last = Instant::now();
    let n = w.steps();
    for i in 0..=n {
        if last.elapsed() >= YARDSTICK_EVERY {
            fastest = fastest.min(yardstick::time(2));
            last = Instant::now();
        }
        let t = cpu::now();
        if i < n {
            w.step(i);
        } else {
            tally.record(w.finish());
        }
        costs.round[i] = (cpu::now() - t).as_secs_f64();
    }
    let heap = alloc::window();
    fastest = fastest.min(yardstick::time(8));
    for (step, cpu) in costs.steps.iter_mut().zip(&costs.round) {
        step.push(cpu / fastest);
    }
    costs.yardstick.push(fastest);
    Round {
        wall: start.elapsed().as_secs_f64(),
        heap,
    }
}

/// One untraced round timed as a whole, in wall seconds.
fn plain_round(w: &mut dyn Workload, tally: &mut Tally) -> Round {
    alloc::reset();
    let start = Instant::now();
    for i in 0..w.steps() {
        w.step(i);
    }
    tally.record(w.finish());
    Round {
        wall: start.elapsed().as_secs_f64(),
        heap: alloc::window(),
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Untraced: whole rounds until one more as long as the longest so far
/// would overrun `seconds`. `scaled_cpu_s` is the round estimate and
/// `setup_s` the set-up's CPU seconds, both scaled to the yardstick's
/// reference speed (the set-up by the first round's yardstick time);
/// `peak_heap_mib` is the median of the rounds' peak live heap.
fn measure(w: &mut dyn Workload, seconds: f64, setup_cpu: f64, tally: &mut Tally) -> Vec<String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut costs = StepCosts::new(w);
    let (mut peaks, mut longest) = (Vec::new(), 0.0f64);
    loop {
        let round = timed_round(w, &mut costs, tally);
        peaks.push(alloc::mib(round.heap.peak));
        longest = longest.max(round.wall);
        if start.elapsed() + Duration::from_secs_f64(longest) > budget {
            break;
        }
    }
    let ys = &costs.yardstick;
    eprintln!(
        "unscaled: set-up {setup_cpu:.4} s CPU; yardstick {:.1}-{:.1} us over {} rounds",
        ys.iter().copied().fold(f64::INFINITY, f64::min) * 1e6,
        ys.iter().copied().fold(0.0, f64::max) * 1e6,
        ys.len()
    );
    vec![
        metric(
            "scaled_cpu_s",
            costs.round_estimate() * yardstick::REFERENCE_S,
            "s",
        ),
        metric("peak_heap_mib", median(&peaks), "MiB"),
        metric("setup_s", setup_cpu * yardstick::REFERENCE_S / ys[0], "s"),
    ]
}

/// Traced: pairs of one untraced and one traced round until one more pair
/// as long as the longest so far would overrun `seconds`; each per-layer
/// metric is the median over the traced rounds, and the tracing overhead
/// is the difference of the two rounds' median wall times.
fn measure_layers(w: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Vec<String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut walls, mut traced, mut heaps, mut runs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut longest: f64 = 0.0;
    loop {
        let round = plain_round(w, tally);
        walls.push(round.wall);
        heaps.push(round.heap);
        let mut layers = Layers::default();
        let t = Instant::now();
        let out = w.traced_round(&mut layers);
        traced.push(t.elapsed().as_secs_f64());
        tally.record(out);
        runs.push(layers);
        longest = longest.max(round.wall + traced[traced.len() - 1]);
        if start.elapsed() + Duration::from_secs_f64(longest) > budget {
            break;
        }
    }
    let overhead = median(&traced) - median(&walls);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "heap.alloc_mib" => median(
                    &heaps
                        .iter()
                        .map(|h| alloc::mib(h.allocated))
                        .collect::<Vec<_>>(),
                ),
                "heap.allocs" => median(&heaps.iter().map(|h| h.allocs as f64).collect::<Vec<_>>()),
                "bench.trace_overhead_s" => overhead,
                _ => median(&runs.iter().map(|l| l.get(name)).collect::<Vec<_>>()),
            };
            metric(name, value, unit)
        })
        .collect()
}

/// Set-up and measurement. Runs on a spawned thread, as a `--jobs 1` pool
/// worker does: on the main thread, which allocates from glibc's main
/// arena, the same crash-recovery runs took 40 % longer.
fn run(args: Args) -> ExitCode {
    let mut workload = match workloads::prepare(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The process's CPU clock starts at its creation, so this is the
    // cold set-up from the process's start.
    let setup_cpu = cpu::now().as_secs_f64();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        measure_layers(workload.as_mut(), args.seconds, &mut tally)
    } else {
        measure(workload.as_mut(), args.seconds, setup_cpu, &mut tally)
    };
    // Stops the workload's servers and removes its scratch directories
    // before the result is printed.
    drop(workload);
    for p in &tally.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty(),
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let worker = std::thread::Builder::new()
        .name("bench".into())
        .spawn(move || run(args))
        .expect("spawning the benchmark thread");
    worker.join().unwrap_or(ExitCode::FAILURE)
}
