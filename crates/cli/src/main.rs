//! `mck` — command-line front end for the mobile-checkpointing simulator.
//!
//! `mck <command> [flags]`; [`usage`] lists every command with the flags it
//! reads, and [`COMMANDS`] holds those lists. Every table the paper and
//! EXPERIMENTS.md report has exactly one command that prints it (`--csv`
//! for machine-readable output); the benchmark commands live in [`bench`].
//! `run`, `profile`, `sweep`, and `fig` also take `--scenario FILE`: a
//! `mck.scenario/v1` JSON file (see `scenarios/`) that swaps the cell
//! topology, mobility model, and traffic model and may override scalar
//! parameters. Explicit flags still win over the scenario. Every command
//! takes `--jobs N` and rejects any other flag it does not read.

mod args;
mod bench;

use args::{ArgError, Args};
use mck::experiments::{self, FigureSpec, T_SWITCH_SWEEP};
use mck::prelude::*;
use mck::table::{fmt_estimate, Table};
use simkit::json::Json;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> &'static str {
    "usage:
  mck run     [--protocol P] [--mh N] [--mss M] [--t-switch T] [--p-switch P] [--h H] [--horizon T] [--seed S] [--ps P] [--dup P]
              [--logging off|pessimistic|optimistic] [--flush-latency T]
              [--fail-mtbf T] [--fail-mss-mtbf T]
              [--trace trace.jsonl] [--metrics artifact.json] [--profile] [--progress]
  mck profile [run flags] [--out PROFILE.json] [--folded out.folded] [--prom out.prom]
  mck sweep   [--protocol P] [--mh N] [--mss M] [--t-switch-list a,b,c] [--p-switch P] [--h H] [--reps R] [--seed S] [--csv] [--out-dir DIR]
  mck fig N   [--reps R] [--seed S] [--csv] [--plot] [--out-dir DIR]      (N in 1..6, or 'all')
  mck claims|ablation|control-bytes|classes|storage|recovery-time|topologies|contention|scenarios [--reps R] [--seed S] [--csv]
  mck rollback [--reps R] [--seed S] [--csv] [--logging off|pessimistic|optimistic] [--out-dir DIR]
  mck crash   [--reps R] [--seed S] [--csv] [--t-switch-list a,b,c] [--out-dir DIR]
  mck log-size [--reps R] [--seed S] [--csv] [--out-dir DIR]
  mck check   [--protocol P] [--mh N] [--mss M] [--horizon T] [--t-switch T] [--seed S]
              [--max-states K] [--mutate] [--out MC.json] | --replay MC.json
  mck inspect <artifact.json|scenario.json|cache-dir> [--deterministic]
  mck serve   [--addr HOST] [--port N] [--cache-dir DIR] [--max-entries N] [--queue-depth N] [--max-requests N]
  mck list
benchmarks (each writes BENCH_<x>.json into --out-dir DIR, default the working directory):
  mck sweep-bench [--reps R] [--seed S]
  mck serve-bench [--warm N] [--min-speedup X]
  mck mc-bench    [--seed S] [--csv]
  mck par-bench   [--n-list a,b,c] [--horizon T] [--mss-ratio R] [--par-workers N] [--seed S] [--csv]
                  [--check-regression] [--min-speedup X]
  mck scale       [--n-list a,b,c] [--horizon T] [--mss-ratio R] [--seed S] [--csv] [--check-regression]
every command: --jobs N (worker threads; default MCK_JOBS or all cores)
run/fig: --cache-dir DIR (content-addressed result cache; warm requests replay
                          stored artifact bytes verbatim)
run/profile: --par-workers N (N conservative cell-partitioned workers; results
                              are identical to the serial run)
run/profile/sweep: --pb-codec dense|rle (TP vector piggyback wire codec; trajectory is identical)
run/profile/sweep/fig: --scenario FILE (mck.scenario/v1 environment + parameter overrides;
                                        explicit flags still win)
a command rejects every flag it does not read
protocols: TP, BCS, QBC, UNCOORD"
}

/// Flags that take no value.
const BOOLEAN: &[&str] = &[
    "csv",
    "plot",
    "profile",
    "progress",
    "deterministic",
    "mutate",
    "check-regression",
];

/// The run-configuration flags [`config_of`] reads, except `--t-switch`,
/// which `sweep` replaces with `--t-switch-list`.
const CONFIG: &[&str] = &[
    "scenario",
    "protocol",
    "pb-codec",
    "logging",
    "mh",
    "mss",
    "p-switch",
    "h",
    "horizon",
    "seed",
    "ps",
    "dup",
    "flush-latency",
    "fail-mtbf",
    "fail-mss-mtbf",
];

type Handler = fn(&Args) -> Result<String, ArgError>;

/// The flags every experiment table command reads.
const EXPERIMENT: &[&str] = &["reps", "seed", "csv"];

/// Every command: its name, what it does (for `mck list`), its handler,
/// whether it reads the run-configuration flags in [`CONFIG`], and the
/// other flags it reads. The lists are exact: a flag a command does not
/// read is rejected instead of silently ignored.
type Command = (&'static str, &'static str, Handler, bool, &'static [&'static str]);

const COMMANDS: &[Command] = &[
    (
        "run",
        "one simulation run (--metrics: mck.run/v1, --trace: event stream)",
        cmd_run,
        true,
        &["t-switch", "trace", "metrics", "profile", "progress", "par-workers", "cache-dir"],
    ),
    (
        "profile",
        "instrumented run: mck.profile/v1 span attribution, folded stacks, Prometheus text",
        cmd_profile,
        true,
        &["t-switch", "out", "folded", "prom", "progress", "par-workers"],
    ),
    (
        "sweep",
        "one protocol over a T_switch sweep (mck.sweep/v1)",
        cmd_sweep,
        true,
        &["t-switch-list", "reps", "csv", "out-dir"],
    ),
    (
        "fig",
        "figures 1-6 with their gain columns (mck.figure/v1; --plot draws them)",
        cmd_fig,
        false,
        &["reps", "seed", "csv", "plot", "out-dir", "cache-dir", "scenario"],
    ),
    ("claims", "C1-C3: the in-text quantitative claims", cmd_claims, false, EXPERIMENT),
    ("ablation", "C4: N_tot vs checkpoint duration", cmd_ablation, false, EXPERIMENT),
    (
        "control-bytes",
        "E1: piggybacked control bytes per message vs number of hosts",
        cmd_control_bytes,
        false,
        EXPERIMENT,
    ),
    (
        "rollback",
        "E2: rollback after a failure; --logging pessimistic: E8, replay recovery",
        cmd_rollback,
        false,
        &["reps", "seed", "csv", "logging", "out-dir"],
    ),
    (
        "classes",
        "E3: uncoordinated / coordinated / communication-induced classes",
        cmd_classes,
        false,
        EXPERIMENT,
    ),
    ("storage", "E4: stable-storage occupancy after GC", cmd_storage, false, EXPERIMENT),
    (
        "recovery-time",
        "E5: recovery-line collection cost",
        cmd_recovery_time,
        false,
        EXPERIMENT,
    ),
    ("topologies", "E6: cell-adjacency graph ablation", cmd_topologies, false, EXPERIMENT),
    (
        "contention",
        "E7: wireless channel contention at finite bandwidth",
        cmd_contention,
        false,
        EXPERIMENT,
    ),
    ("scenarios", "E9: paper vs. Markov mobility", cmd_scenarios, false, EXPERIMENT),
    (
        "crash",
        "E10: live crashes, pessimistic vs. optimistic logging (mck.recovery/v1)",
        cmd_crash,
        false,
        &["reps", "seed", "csv", "t-switch-list", "out-dir"],
    ),
    (
        "log-size",
        "peak live message-log bytes vs T_switch (mck.log_size/v1)",
        cmd_log_size,
        false,
        &["reps", "seed", "csv", "out-dir"],
    ),
    (
        "check",
        "exhaustive model check of a tiny world (mck.mc/v1; --mutate, --replay)",
        cmd_check,
        false,
        &[
            "protocol", "mh", "mss", "horizon", "t-switch", "seed", "max-states", "mutate", "out",
            "replay",
        ],
    ),
    (
        "inspect",
        "validate and summarize an artifact, a scenario file or a cache directory",
        cmd_inspect,
        false,
        &["deterministic"],
    ),
    (
        "serve",
        "HTTP service with a content-addressed result cache",
        cmd_serve,
        false,
        &["addr", "port", "cache-dir", "max-entries", "queue-depth", "max-requests"],
    ),
    ("list", "this list", |_| Ok(cmd_list()), false, &[]),
    (
        "sweep-bench",
        "figure-grid throughput at 1 and N jobs (BENCH_sweep.json)",
        bench::sweep_bench,
        false,
        &["reps", "seed", "out-dir"],
    ),
    (
        "serve-bench",
        "cold vs. warm serve latency (BENCH_serve.json)",
        bench::serve_bench,
        false,
        &["warm", "min-speedup", "out-dir"],
    ),
    (
        "mc-bench",
        "model-checker throughput and safety gate (BENCH_mc.json)",
        bench::mc_bench,
        false,
        &["seed", "csv", "out-dir"],
    ),
    (
        "par-bench",
        "serial vs. parallel backend, byte parity and speedup (BENCH_par.json)",
        bench::par_bench,
        false,
        &[
            "n-list",
            "horizon",
            "mss-ratio",
            "par-workers",
            "seed",
            "csv",
            "out-dir",
            "check-regression",
            "min-speedup",
        ],
    ),
    (
        "scale",
        "throughput and bytes/host across host counts (BENCH_scale.json)",
        bench::scale,
        false,
        &["n-list", "horizon", "mss-ratio", "seed", "csv", "out-dir", "check-regression"],
    ),
];

/// A command's handler and every flag it reads, the global `--jobs`
/// included; `None` for an unknown command.
fn command(name: &str) -> Option<(Handler, Vec<&'static str>)> {
    let &(_, _, handler, config, own) = COMMANDS.iter().find(|c| c.0 == name)?;
    let mut flags = if config { CONFIG.to_vec() } else { Vec::new() };
    flags.extend_from_slice(own);
    flags.push("jobs");
    Some((handler, flags))
}

/// Parses a command line (the command comes first), rejecting any flag
/// the command does not read with an error that names both.
fn parse(raw: &[String]) -> Result<(Handler, Args), ArgError> {
    let name = raw.first().ok_or_else(|| ArgError("no command given".into()))?;
    let (handler, reads) =
        command(name).ok_or_else(|| ArgError(format!("unknown command '{name}'")))?;
    let keys = raw.iter().filter_map(|a| a.strip_prefix("--"));
    let mut keys = keys.map(|k| k.split_once('=').map_or(k, |(k, _)| k));
    if let Some(key) = keys.find(|k| !reads.contains(k)) {
        return Err(ArgError(format!(
            "{name} does not read --{key} (it reads --{})",
            reads.join(", --")
        )));
    }
    Ok((handler, Args::parse(raw, &reads, BOOLEAN)?))
}

/// Routes a raw command line to a handler, returning its printable output.
fn dispatch(raw: &[String]) -> Result<String, ArgError> {
    let (handler, args) = parse(raw)?;
    // --jobs applies to every experiment command; 0 (the default) keeps the
    // MCK_JOBS / available-parallelism resolution.
    set_jobs(args.get_usize("jobs", 0)?);
    handler(&args)
}

fn protocol_of(args: &Args) -> Result<ProtocolChoice, ArgError> {
    let name = args.get("protocol").unwrap_or("QBC");
    CicKind::parse(name)
        .map(ProtocolChoice::Cic)
        .ok_or_else(|| ArgError(format!("unknown protocol '{name}'")))
}

/// `--par-workers N` selects the conservative cell-partitioned backend
/// with `N` workers (run and profile only); without it the run is serial.
/// The backends are byte-identical by construction, so cached artifacts
/// are shared between them.
fn parallel_of(args: &Args) -> Result<Option<usize>, ArgError> {
    if args.get("par-workers").is_none() {
        return Ok(None);
    }
    match args.get_usize("par-workers", 0)? {
        0 => Err(ArgError("--par-workers must be at least 1".into())),
        n => Ok(Some(n)),
    }
}

fn logging_of(args: &Args) -> Result<LoggingMode, ArgError> {
    LoggingMode::parse(args.get("logging").unwrap_or("off")).map_err(ArgError)
}

/// Loads the `--scenario` file, if given.
fn scenario_of(args: &Args) -> Result<Option<Scenario>, ArgError> {
    match args.get("scenario") {
        None => Ok(None),
        Some(path) => Scenario::load(std::path::Path::new(path))
            .map(Some)
            .map_err(|e| ArgError(format!("--scenario {path}: {e}"))),
    }
}

fn pb_codec_of(args: &Args) -> Result<PbCodec, ArgError> {
    match args.get("pb-codec") {
        None => Ok(PbCodec::default()),
        Some(name) => PbCodec::parse(name)
            .ok_or_else(|| ArgError(format!("unknown piggyback codec '{name}' (dense|rle)"))),
    }
}

fn config_of(args: &Args) -> Result<SimConfig, ArgError> {
    // Precedence: defaults, then the scenario file, then explicit flags.
    let mut cfg = SimConfig::default();
    if let Some(sc) = scenario_of(args)? {
        cfg.apply_scenario(&sc);
    }
    cfg.protocol = protocol_of(args)?;
    cfg.pb_codec = pb_codec_of(args)?;
    cfg.logging = logging_of(args)?;
    cfg.n_mhs = args.get_usize("mh", cfg.n_mhs)?;
    cfg.n_mss = args.get_usize("mss", cfg.n_mss)?;
    cfg.t_switch = args.get_f64("t-switch", cfg.t_switch)?;
    cfg.p_switch = args.get_f64("p-switch", cfg.p_switch)?;
    cfg.heterogeneity = args.get_f64("h", cfg.heterogeneity)?;
    cfg.horizon = args.get_f64("horizon", cfg.horizon)?;
    cfg.seed = args.get_u64("seed", cfg.seed)?;
    cfg.p_send = args.get_f64("ps", cfg.p_send)?;
    cfg.dup_prob = args.get_f64("dup", cfg.dup_prob)?;
    cfg.flush_latency = args.get_f64("flush-latency", cfg.flush_latency)?;
    cfg.fail_mtbf = args.get_f64("fail-mtbf", cfg.fail_mtbf)?;
    cfg.fail_mss_mtbf = args.get_f64("fail-mss-mtbf", cfg.fail_mss_mtbf)?;
    // Typed validation up front: the CLI reports bad inputs as errors
    // instead of tripping the panicking guard inside the simulation.
    cfg.check().map_err(|e| ArgError(e.to_string()))?;
    Ok(cfg)
}

fn cmd_run(args: &Args) -> Result<String, ArgError> {
    if let Some(dir) = args.get("cache-dir") {
        return cmd_run_cached(args, dir);
    }
    let cfg = config_of(args)?;
    let trace_path = args.get("trace").map(std::path::PathBuf::from);
    let metrics_path = args.get("metrics").map(std::path::PathBuf::from);

    let mut instr = Instrumentation::off();
    if let Some(path) = &trace_path {
        let sink = simkit::trace::JsonlSink::create(path)
            .map_err(|e| ArgError(format!("--trace {}: {e}", path.display())))?;
        instr.tracer = simkit::trace::Tracer::disabled().with_jsonl(sink);
    }
    if metrics_path.is_some() {
        instr.metrics = true;
    }
    // Observation-only overlays: none of these change a single byte of the
    // report or any artifact (CI pins this).
    instr.profile = args.flag("profile");
    instr.progress = args.flag("progress");

    let r = match parallel_of(args)? {
        Some(workers) => pardes::run(cfg.clone(), workers, instr),
        None => Simulation::run_with(cfg.clone(), instr),
    };
    let mut out = r.summary_table().render();
    if let Some(path) = &metrics_path {
        let art = mck::artifact::run_artifact(&cfg, &r);
        mck::artifact::write(path, &art)
            .map_err(|e| ArgError(format!("--metrics {}: {e}", path.display())))?;
        out += &format!("metrics artifact -> {}\n", path.display());
    }
    if let Some(path) = &trace_path {
        out += &format!("trace ({} events) -> {}\n", r.trace_emitted, path.display());
    }
    // Wall-clock timing goes to stderr so stdout stays deterministic.
    if let Some(timing) = r.timing_summary() {
        eprintln!("profile: {timing}");
    }
    Ok(out)
}

/// `mck run --cache-dir DIR`: the content-addressed path. The run's
/// `mck.run/v1` artifact is stored under its canonical key and replayed
/// byte-for-byte on the next identical request, so stdout (the artifact
/// summary) is the same cold or warm; the hit/miss disposition — host-local
/// state, like wall-clock — goes to stderr.
fn cmd_run_cached(args: &Args, dir: &str) -> Result<String, ArgError> {
    if args.get("trace").is_some() {
        return Err(ArgError(
            "--trace cannot be combined with --cache-dir (a cache hit executes no events to trace)"
                .into(),
        ));
    }
    let cfg = config_of(args)?;
    let mut cache = servekit::cache::RunCache::open(std::path::Path::new(dir), 4096)
        .map_err(|e| ArgError(format!("--cache-dir {dir}: {e}")))?;
    let key = servekit::key::run_key(&cfg);
    let (bytes, disposition) = match cache.get(&key) {
        Some(bytes) => (bytes, "hit"),
        None => {
            // Canonical artifact instrumentation: the same metrics-on run the
            // server performs, so CLI and service share cache entries.
            let instr = Instrumentation {
                metrics: true,
                profile: args.flag("profile"),
                progress: args.flag("progress"),
                ..Instrumentation::off()
            };
            let r = match parallel_of(args)? {
                Some(workers) => pardes::run(cfg.clone(), workers, instr),
                None => Simulation::run_with(cfg.clone(), instr),
            };
            let bytes =
                servekit::server::artifact_bytes(&mck::artifact::run_artifact(&cfg, &r));
            cache
                .put(&key, mck::artifact::RUN_SCHEMA, &bytes)
                .map_err(|e| ArgError(format!("--cache-dir {dir}: {e}")))?;
            (bytes, "miss")
        }
    };
    eprintln!("cache {disposition} {key} ({dir})");
    let v = simkit::json::parse(&bytes)
        .map_err(|e| ArgError(format!("cached artifact {key}: {e}")))?;
    let mut out = mck::artifact::describe(&v).map_err(ArgError)?;
    if let Some(path) = args.get("metrics") {
        // The stored bytes verbatim — identical to what `mck run --metrics`
        // writes without the cache.
        std::fs::write(path, &bytes).map_err(|e| ArgError(format!("--metrics {path}: {e}")))?;
        out += &format!("metrics artifact -> {path}\n");
    }
    Ok(out)
}

/// `mck profile`: one instrumented run emitting the `mck.profile/v1`
/// artifact — per-event-type and per-phase span attribution with every
/// wall-clock quantity quarantined under `timing` — plus optional
/// folded-stack (`--folded`, flamegraph-ready) and Prometheus text
/// (`--prom`) renditions.
fn cmd_profile(args: &Args) -> Result<String, ArgError> {
    let cfg = config_of(args)?;
    let out_path = std::path::PathBuf::from(args.get("out").unwrap_or("PROFILE.json"));
    let instr = Instrumentation {
        metrics: true,
        profile: true,
        spans: true,
        progress: args.flag("progress"),
        ..Instrumentation::off()
    };
    let r = match parallel_of(args)? {
        Some(workers) => pardes::run(cfg.clone(), workers, instr),
        None => Simulation::run_with(cfg.clone(), instr),
    };
    let art = mck::artifact::profile_artifact(&cfg, &r);
    mck::artifact::write(&out_path, &art)
        .map_err(|e| ArgError(format!("--out {}: {e}", out_path.display())))?;
    let mut out = format!("profile artifact -> {}\n", out_path.display());
    let spans = r.spans.as_ref().expect("profiled run has spans");
    if let Some(path) = args.get("folded") {
        std::fs::write(path, spans.to_folded())
            .map_err(|e| ArgError(format!("--folded {path}: {e}")))?;
        out += &format!("folded stacks -> {path}\n");
    }
    if let Some(path) = args.get("prom") {
        std::fs::write(path, r.metrics.to_prometheus())
            .map_err(|e| ArgError(format!("--prom {path}: {e}")))?;
        out += &format!("prometheus exposition -> {path}\n");
    }
    if let Some(timing) = r.timing_summary() {
        eprintln!("profile: {timing}");
    }
    Ok(out)
}

fn cmd_inspect(args: &Args) -> Result<String, ArgError> {
    let arg = args
        .positional(1)
        .ok_or_else(|| ArgError("inspect needs an artifact path".into()))?;
    let mut path = std::path::PathBuf::from(arg);
    if path.is_dir() {
        // A cache directory: inspect its index file.
        path = servekit::cache::RunCache::index_path(&path);
    }
    let v = mck::artifact::read(&path).map_err(ArgError)?;
    if args.flag("deterministic") {
        // The separation-rule view: the artifact with every `timing` member
        // removed, byte-stable across hosts for a given config + seed. CI
        // diffs this directly instead of stripping fields by hand.
        mck::artifact::validate(&v).map_err(ArgError)?;
        return Ok(format!("{}\n", mck::artifact::deterministic_view(&v).to_pretty()));
    }
    let schema = mck::artifact::validate(&v).map_err(ArgError)?;
    if schema == mck::artifact::CACHE_INDEX_SCHEMA {
        // The CLI view adds an age column from the object files' mtimes —
        // filesystem state the deterministic core describe can't touch.
        return describe_cache_index(&path, &v);
    }
    let mut out = String::new();
    if let Some(header) = cache_entry_header(&path) {
        out += &header;
    }
    out += &mck::artifact::describe(&v).map_err(ArgError)?;
    Ok(out)
}

/// Renders a `mck.cache_index/v1` with one row per entry: key prefix,
/// artifact kind, byte size, and age (from the object file's mtime).
fn describe_cache_index(index_path: &std::path::Path, v: &Json) -> Result<String, ArgError> {
    let dir = index_path.parent().unwrap_or(std::path::Path::new("."));
    let entries = v
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| ArgError("cache index has no entries array".into()))?;
    let total: u64 = entries
        .iter()
        .filter_map(|e| e.get("bytes").and_then(Json::as_u64))
        .sum();
    let mut out = format!(
        "mck.cache_index/v1: {} entries, {} bytes ({})\n",
        entries.len(),
        total,
        dir.display()
    );
    let mut table = Table::new(vec!["key", "kind", "bytes", "age"]);
    for e in entries {
        let key = e.get("key").and_then(Json::as_str).unwrap_or("?");
        let kind = e.get("kind").and_then(Json::as_str).unwrap_or("?");
        let bytes = e.get("bytes").and_then(Json::as_u64).unwrap_or(0);
        let object = dir.join("objects").join(format!("{key}.json"));
        table.push_row(vec![
            key.chars().take(16).collect(),
            kind.to_string(),
            bytes.to_string(),
            file_age(&object).unwrap_or_else(|| "?".into()),
        ]);
    }
    out += &table.render();
    Ok(out)
}

/// For a file inside a cache's `objects/` directory, a one-line header
/// giving its key, byte size, and age before the ordinary describe output.
fn cache_entry_header(path: &std::path::Path) -> Option<String> {
    let parent = path.parent()?;
    if parent.file_name()? != "objects" {
        return None;
    }
    let key = path.file_stem()?.to_str()?;
    let bytes = std::fs::metadata(path).ok()?.len();
    let age = file_age(path).unwrap_or_else(|| "?".into());
    Some(format!("cache entry {key} ({bytes} bytes, age {age})\n"))
}

/// Humanized time since a file's mtime: `42s`, `7m`, `3h`, `2d`.
fn file_age(path: &std::path::Path) -> Option<String> {
    let mtime = std::fs::metadata(path).ok()?.modified().ok()?;
    let secs = std::time::SystemTime::now()
        .duration_since(mtime)
        .unwrap_or_default()
        .as_secs();
    Some(match secs {
        0..=59 => format!("{secs}s"),
        60..=3599 => format!("{}m", secs / 60),
        3600..=86399 => format!("{}h", secs / 3600),
        _ => format!("{}d", secs / 86400),
    })
}

/// `mck serve`: binds the servekit HTTP server and blocks in its accept
/// loop until `POST /shutdown` (or `--max-requests` for bounded smokes).
/// The bound address prints and flushes before blocking so scripts can
/// parse it even with `--port 0`.
fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    let host = args.get("addr").unwrap_or("127.0.0.1");
    let port = args.get_u64("port", 7199)?;
    let max_entries = args.get_usize("max-entries", 4096)?;
    if max_entries == 0 {
        return Err(ArgError("--max-entries must be at least 1".into()));
    }
    let queue_depth = args.get_usize("queue-depth", 4)?;
    if queue_depth == 0 {
        return Err(ArgError("--queue-depth must be at least 1".into()));
    }
    let opts = servekit::server::ServeOptions {
        addr: format!("{host}:{port}"),
        cache_dir: std::path::PathBuf::from(args.get("cache-dir").unwrap_or(".mck-cache")),
        max_entries,
        queue_depth,
        max_requests: match args.get_u64("max-requests", 0)? {
            0 => None,
            n => Some(n),
        },
        ..servekit::server::ServeOptions::default()
    };
    let server = servekit::server::Server::bind(&opts)
        .map_err(|e| ArgError(format!("serve: bind {}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| ArgError(format!("serve: {e}")))?;
    println!("mck serve listening on http://{addr}");
    println!(
        "cache {} ({} max entries, queue depth {})",
        opts.cache_dir.display(),
        opts.max_entries,
        opts.queue_depth
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let s = server.run().map_err(|e| ArgError(format!("serve: {e}")))?;
    Ok(format!(
        "drained: {} requests ({} hits, {} misses, {} coalesced, {} rejected)\n",
        s.requests, s.hits, s.misses, s.coalesced, s.rejected
    ))
}

fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let ts = args.get_list("t-switch-list", &T_SWITCH_SWEEP)?;
    let base = config_of(args)?;
    // The whole grid (points × replications) runs as one flattened job
    // list across the pool; the wall clock therefore measures real sweep
    // throughput and lands in the artifact.
    let t0 = std::time::Instant::now();
    let points = experiments::run_sweep(&base, &ts, seed, reps);
    let timing = mck::artifact::SweepTiming {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        runs: (ts.len() * reps) as u64,
        jobs: jobs(),
    };
    let mut table = Table::new(vec!["T_switch", "N_tot", "basic", "forced"]);
    for (t, s) in &points {
        table.push_row(vec![
            format!("{t:.0}"),
            fmt_estimate(s.n_tot.mean, s.n_tot.ci95),
            fmt_estimate(s.n_basic.mean, s.n_basic.ci95),
            fmt_estimate(s.n_forced.mean, s.n_forced.ci95),
        ]);
    }
    let mut out = render(args, &table, &format!("{} sweep", base.protocol.name()));
    if let Some(dir) = args.get("out-dir") {
        let name = format!("SWEEP_{}.json", base.protocol.name());
        let art = mck::artifact::sweep_artifact(&base, seed, reps, &points, Some(timing));
        out += &write_artifact(dir, &name, "sweep", &art)?;
    }
    Ok(out)
}

/// A figure fixes its own protocols, parameter grid and world; only a
/// `--scenario` file changes them. `--plot` adds a log-log terminal chart
/// under each table.
fn cmd_fig(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 5)?;
    let seed = args.get_u64("seed", 1)?;
    let which = args
        .positional(1)
        .ok_or_else(|| ArgError("fig needs a figure number (1-6) or 'all'".into()))?;
    let ids: Vec<usize> = if which == "all" {
        (1..=6).collect()
    } else {
        vec![which
            .parse()
            .map_err(|_| ArgError(format!("'{which}' is not a figure number")))?]
    };
    for &id in &ids {
        if !(1..=6).contains(&id) {
            return Err(ArgError(format!("the paper has figures 1-6, not {id}")));
        }
    }
    if let Some(dir) = args.get("cache-dir") {
        if args.flag("plot") {
            return Err(ArgError("fig reads --plot only without --cache-dir".into()));
        }
        return cmd_fig_cached(args, &ids, dir);
    }
    // All requested figures execute as one flattened job list, so `fig all`
    // keeps every worker busy across figure boundaries.
    let specs: Vec<FigureSpec> = ids.iter().map(|&id| experiments::figure(id)).collect();
    let scenario = scenario_of(args)?;
    let results = experiments::run_figures_scenario(&specs, seed, reps, scenario.as_ref());
    let mut out = String::new();
    for (id, res) in ids.iter().copied().zip(results) {
        out += &render(args, &res.table(), &res.spec.caption());
        if args.flag("plot") {
            out += &format!("\n{}\n", res.plot());
        }
        if let Some(dir) = args.get("out-dir") {
            let art = mck::artifact::figure_artifact(&res, seed, reps);
            out += &write_artifact(dir, &format!("FIG{id}.json"), "figure", &art)?;
        }
        out += "\n";
    }
    Ok(out)
}

/// `mck fig --cache-dir DIR`: figures are cached one entry per figure, so
/// `fig all` can be partially warm. Cold figures compute individually
/// (losing the cross-figure job batching — the price of per-figure keys),
/// and stdout is the artifact summary, identical cold or warm.
fn cmd_fig_cached(args: &Args, ids: &[usize], dir: &str) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 5)?;
    let seed = args.get_u64("seed", 1)?;
    let scenario = scenario_of(args)?;
    let mut cache = servekit::cache::RunCache::open(std::path::Path::new(dir), 4096)
        .map_err(|e| ArgError(format!("--cache-dir {dir}: {e}")))?;
    let mut out = String::new();
    for &id in ids {
        let key = servekit::key::figure_key(id, seed, reps, scenario.as_ref());
        let (bytes, disposition) = match cache.get(&key) {
            Some(bytes) => (bytes, "hit"),
            None => {
                let spec = experiments::figure(id);
                let res = experiments::run_figures_scenario(&[spec], seed, reps, scenario.as_ref())
                    .pop()
                    .expect("one result per requested figure");
                let bytes = servekit::server::artifact_bytes(&mck::artifact::figure_artifact(
                    &res, seed, reps,
                ));
                cache
                    .put(&key, mck::artifact::FIGURE_SCHEMA, &bytes)
                    .map_err(|e| ArgError(format!("--cache-dir {dir}: {e}")))?;
                (bytes, "miss")
            }
        };
        eprintln!("cache {disposition} {key} ({dir})");
        let v = simkit::json::parse(&bytes)
            .map_err(|e| ArgError(format!("cached artifact {key}: {e}")))?;
        out += &mck::artifact::describe(&v).map_err(ArgError)?;
        if let Some(odir) = args.get("out-dir") {
            let path = std::path::Path::new(odir).join(format!("FIG{id}.json"));
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ArgError(format!("--out-dir {}: {e}", path.display())))?;
            }
            std::fs::write(&path, &bytes)
                .map_err(|e| ArgError(format!("--out-dir {}: {e}", path.display())))?;
            out += &format!("figure artifact -> {}\n", path.display());
        }
        out += "\n";
    }
    Ok(out)
}

fn cmd_claims(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 5)?;
    let seed = args.get_u64("seed", 1)?;
    // One flattened batch across all four claim figures.
    let specs: Vec<FigureSpec> = [1, 2, 5, 6].iter().map(|&n| experiments::figure(n)).collect();
    let figs = experiments::run_figures(&specs, seed, reps);
    let mut table = Table::new(vec!["claim", "paper statement", "measured", "holds"]);
    for c in experiments::claims(&figs) {
        table.push_row(vec![
            c.id.to_string(),
            c.paper.to_string(),
            c.measured,
            if c.holds { "yes" } else { "NO" }.to_string(),
        ]);
    }
    Ok(render(args, &table, "In-text claims"))
}

fn cmd_ablation(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 5)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ablation_ckpt_time(seed, reps, &[0.0, 0.1, 0.5, 1.0]);
    let mut table = Table::new(vec!["ckpt duration", "TP", "BCS", "QBC"]);
    for (d, per_proto) in rows {
        let mut row = vec![format!("{d}")];
        for (_, e) in per_proto {
            row.push(fmt_estimate(e.mean, e.ci95));
        }
        table.push_row(row);
    }
    let title = "Ablation C4: N_tot vs checkpoint duration (T_switch=1000, P_switch=0.8)";
    Ok(render(args, &table, title))
}

fn cmd_control_bytes(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_control_bytes(seed, reps, &[5, 10, 20, 40]);
    let mut table = Table::new(vec!["hosts", "TP B/msg", "BCS B/msg", "QBC B/msg"]);
    for (n, per_proto) in rows {
        let mut row = vec![n.to_string()];
        for (_, bytes) in per_proto {
            row.push(format!("{bytes:.1}"));
        }
        table.push_row(row);
    }
    let title = "Extension E1: piggybacked control bytes per message vs number of hosts";
    Ok(render(args, &table, title))
}

fn cmd_classes(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_classes(seed, reps);
    let mut table = Table::new(vec![
        "protocol",
        "N_tot",
        "ctl msgs",
        "searches",
        "piggyback B",
        "blocked sends",
    ]);
    for r in rows {
        table.push_row(vec![
            r.protocol,
            format!("{:.0}", r.n_tot),
            format!("{:.0}", r.control_msgs),
            format!("{:.0}", r.searches),
            format!("{:.0}", r.piggyback_bytes),
            format!("{:.0}", r.blocked_sends),
        ]);
    }
    let title =
        "Extension E3: protocol classes (T_switch=1000, P_switch=0.8, rounds every 100)";
    Ok(render(args, &table, title))
}

fn cmd_storage(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_storage(seed, reps);
    let mut table = Table::new(vec!["protocol", "ckpts taken", "mean retained", "max retained"]);
    for r in rows {
        table.push_row(vec![
            r.protocol,
            format!("{:.0}", r.taken),
            format!("{:.1}", r.mean_retained),
            format!("{:.0}", r.max_retained),
        ]);
    }
    let title = "Extension E4: stable-storage occupancy after GC (T_switch=300, P_switch=0.8)";
    Ok(render(args, &table, title))
}

fn cmd_recovery_time(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 2)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_recovery_time(seed, reps);
    let mut table = Table::new(vec![
        "protocol",
        "mean waves",
        "max waves",
        "latency (t.u.)",
        "ctl msgs",
        "MiB fetched",
    ]);
    for r in rows {
        table.push_row(vec![
            r.protocol,
            format!("{:.2}", r.mean_waves),
            r.max_waves.to_string(),
            format!("{:.4}", r.mean_latency),
            format!("{:.0}", r.mean_msgs),
            format!("{:.1}", r.mean_bytes / (1 << 20) as f64),
        ]);
    }
    let title = "Extension E5: recovery-line collection cost (T_switch=500, P_switch=0.8)";
    Ok(render(args, &table, title))
}

fn cmd_contention(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_contention(seed, reps);
    let mut table = Table::new(vec![
        "protocol",
        "N_tot",
        "channel util",
        "queueing (t.u.)",
        "ckpt MiB",
    ]);
    for r in rows {
        table.push_row(vec![
            r.protocol,
            format!("{:.0}", r.n_tot),
            format!("{:.1}%", r.utilization * 100.0),
            format!("{:.1}", r.queueing_delay),
            format!("{:.1}", r.ckpt_mib),
        ]);
    }
    let title = "Extension E7: channel contention at 50 kB/t.u. (T_switch=1000, P_switch=0.8)";
    Ok(render(args, &table, title))
}

fn cmd_topologies(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_topologies(seed, reps);
    let mut table = Table::new(vec![
        "cell graph",
        "TP",
        "BCS",
        "QBC",
        "QBC fetches",
        "QBC wired hops",
    ]);
    for r in rows {
        let mut row = vec![r.graph.to_string()];
        for (_, e) in &r.n_tot {
            row.push(fmt_estimate(e.mean, e.ci95));
        }
        row.push(format!("{:.0}", r.qbc_ckpt_fetches));
        row.push(format!("{:.0}", r.qbc_wired_hops));
        table.push_row(row);
    }
    let title = "Extension E6: N_tot per cell-adjacency graph (T_switch=500, P_switch=0.8)";
    Ok(render(args, &table, title))
}

fn cmd_rollback(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 2)?;
    let seed = args.get_u64("seed", 1)?;
    if logging_of(args)?.is_enabled() {
        return cmd_rollback_logging(args, seed, reps);
    }
    if args.get("out-dir").is_some() {
        return Err(ArgError("rollback reads --out-dir only with --logging".into()));
    }
    let rows = experiments::ext_rollback(seed, reps);
    let mut table = Table::new(vec![
        "protocol",
        "mean undone (t.u.)",
        "mean max undone",
        "ckpts discarded",
        "worst",
    ]);
    for r in rows {
        table.push_row(vec![
            r.protocol,
            format!("{:.1}", r.mean_total_undone),
            format!("{:.1}", r.mean_max_undone),
            format!("{:.1}", r.mean_ckpts_undone),
            format!("{:.1}", r.worst_total_undone),
        ]);
    }
    let title = "Extension E2: rollback after a single-host failure (horizon 2000)";
    Ok(render(args, &table, title))
}

/// The logging variant of `rollback` (E8): undone work under
/// checkpoint-only recovery vs. replay recovery over the MSS message logs,
/// per protocol, on identical trajectories (logging never perturbs a run).
fn cmd_rollback_logging(args: &Args, seed: u64, reps: usize) -> Result<String, ArgError> {
    let rows = experiments::ext_rollback_logging(seed, reps);
    let mut table = Table::new(vec![
        "protocol",
        "undone w/o log",
        "undone w/ log",
        "replayed (t.u.)",
        "replayed msgs",
        "log peak (KiB)",
        "log writes (KiB)",
    ]);
    for r in &rows {
        table.push_row(vec![
            r.protocol.clone(),
            format!("{:.1}", r.mean_undone_off),
            format!("{:.1}", r.mean_undone_logged),
            format!("{:.1}", r.mean_replayed_time),
            format!("{:.1}", r.mean_replayed_receives),
            format!("{:.1}", r.mean_log_peak_bytes / 1024.0),
            format!("{:.1}", r.mean_stable_write_bytes / 1024.0),
        ]);
    }
    let title = "Extension E8: undone work with vs. without pessimistic message logging \
                 (horizon 2000)";
    let mut out = render(args, &table, title);
    if let Some(dir) = args.get("out-dir") {
        let art = mck::artifact::rollback_logging_artifact(seed, reps, &rows);
        out += &write_artifact(dir, "ROLLBACK_LOGGING.json", "rollback-logging", &art)?;
    }
    Ok(out)
}

/// `mck crash`: live failure injection (E10). Crashes strike mid-run,
/// recovery executes inside the simulation, and the table compares
/// pessimistic vs. optimistic logging per protocol: wall-clock downtime,
/// availability, and receives lost from unflushed optimistic buffers.
fn cmd_crash(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 2)?;
    let seed = args.get_u64("seed", 1)?;
    let ts = args.get_list("t-switch-list", &[500.0, 2000.0])?;
    let rows = experiments::ext_recovery(seed, reps, &ts);
    let mut table = Table::new(vec![
        "T_switch",
        "MTBF",
        "protocol",
        "crashes",
        "downtime pess|opt",
        "avail pess|opt",
        "undone pess|opt",
        "unstable lost",
    ]);
    for r in &rows {
        for (name, pess, opt) in &r.series {
            table.push_row(vec![
                format!("{:.0}", r.t_switch),
                format!("{:.0}", r.mtbf),
                name.clone(),
                format!("{:.1}", pess.crashes),
                format!("{:.3}|{:.3}", pess.mean_downtime, opt.mean_downtime),
                format!("{:.4}|{:.4}", pess.availability, opt.availability),
                format!("{:.1}|{:.1}", pess.undone_time, opt.undone_time),
                format!("{:.1}", opt.unstable_lost),
            ]);
        }
    }
    let title = "Extension E10: downtime and availability under live crashes (horizon 2000)";
    let mut out = render(args, &table, title);
    if let Some(dir) = args.get("out-dir") {
        let art = mck::artifact::recovery_artifact(seed, reps, &rows);
        out += &write_artifact(dir, "RECOVERY.json", "recovery", &art)?;
    }
    Ok(out)
}

/// `mck log-size`: peak live MSS log bytes per protocol across the
/// `T_switch` sweep under pessimistic logging; `--out-dir` also writes the
/// `mck.log_size/v1` artifact `BENCH_log_size.json`.
fn cmd_log_size(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_log_size(seed, reps, &T_SWITCH_SWEEP);
    let mut table = Table::new(vec![
        "T_switch",
        "TP peak KiB",
        "BCS peak KiB",
        "QBC peak KiB",
        "UNCOORD peak KiB",
    ]);
    for row in &rows {
        let mut cells = vec![format!("{:.0}", row.t_switch)];
        for (_, s) in &row.series {
            cells.push(format!("{:.1}", s.mean_peak_bytes / 1024.0));
        }
        table.push_row(cells);
    }
    let title =
        "Log-size figures: peak live MSS log bytes vs T_switch (P_switch=0.8, horizon 4000)";
    let mut out = render(args, &table, title);
    if let Some(dir) = args.get("out-dir") {
        let art = mck::artifact::log_size_artifact(seed, reps, &rows);
        out += &write_artifact(dir, "BENCH_log_size.json", "log-size", &art)?;
    }
    Ok(out)
}

fn cmd_scenarios(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 3)?;
    let seed = args.get_u64("seed", 1)?;
    let rows = experiments::ext_scenarios(seed, reps);
    let mut table = Table::new(vec![
        "environment",
        "TP",
        "BCS",
        "QBC",
        "handoffs/run",
        "disconnects/run",
    ]);
    for r in &rows {
        let mut cells = vec![r.env.to_string()];
        for (_, e) in &r.n_tot {
            cells.push(fmt_estimate(e.mean, e.ci95));
        }
        cells.push(format!("{:.0}", r.mean_handoffs));
        cells.push(format!("{:.0}", r.mean_disconnects));
        table.push_row(cells);
    }
    let title = "Extension E9: N_tot under paper vs. Markov mobility (grid 2x3, T_switch=500)";
    Ok(render(args, &table, title))
}

/// Builds a [`mcheck::CheckConfig`] from `mck check` flags. Defaults come
/// from `CheckConfig::default()` — a 2 MH x 2 MSS world with horizon 3,
/// empirically the largest space that explores exhaustively in seconds.
fn check_config_of(args: &Args) -> Result<mcheck::CheckConfig, ArgError> {
    let base = mcheck::CheckConfig::default();
    let name = args.get("protocol").unwrap_or(base.protocol.name());
    let protocol =
        CicKind::parse(name).ok_or_else(|| ArgError(format!("unknown protocol '{name}'")))?;
    let cfg = mcheck::CheckConfig {
        protocol,
        n_mhs: args.get_usize("mh", base.n_mhs)?,
        n_mss: args.get_usize("mss", base.n_mss)?,
        horizon: args.get_f64("horizon", base.horizon)?,
        t_switch: args.get_f64("t-switch", base.t_switch)?,
        seed: args.get_u64("seed", base.seed)?,
        max_states: args.get_usize("max-states", base.max_states)?,
        mutate: args.flag("mutate"),
    };
    cfg.sim_config().check().map_err(|e| ArgError(e.to_string()))?;
    Ok(cfg)
}

fn mc_schedule_json(schedule: &mcheck::Schedule) -> Json {
    Json::Arr(
        schedule
            .steps
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("index".into(), Json::uint(s.choice as u64)),
                    ("label".into(), Json::str(s.label.as_str())),
                    ("time".into(), Json::Num(s.time)),
                ])
            })
            .collect(),
    )
}

/// The `mck.mc/v1` document: self-contained — `params` rebuild the exact
/// root world, so the recorded schedule replays deterministically.
fn mc_artifact(cfg: &mcheck::CheckConfig, out: &mcheck::CheckOutcome) -> Json {
    let counterexample = match &out.counterexample {
        None => Json::Null,
        Some(cx) => Json::Obj(vec![
            (
                "violation".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::str(cx.violation.kind())),
                    ("message".into(), Json::str(cx.violation.to_string())),
                ]),
            ),
            ("schedule".into(), mc_schedule_json(&cx.schedule)),
        ]),
    };
    Json::Obj(vec![
        ("schema".into(), Json::str(mck::artifact::MC_SCHEMA)),
        ("version".into(), Json::str(mck::artifact::version())),
        (
            "params".into(),
            Json::Obj(vec![
                ("protocol".into(), Json::str(cfg.protocol.name())),
                ("mh".into(), Json::uint(cfg.n_mhs as u64)),
                ("mss".into(), Json::uint(cfg.n_mss as u64)),
                ("horizon".into(), Json::Num(cfg.horizon)),
                ("t_switch".into(), Json::Num(cfg.t_switch)),
                ("seed".into(), Json::uint(cfg.seed)),
                ("max_states".into(), Json::uint(cfg.max_states as u64)),
                ("mutate".into(), Json::Bool(cfg.mutate)),
            ]),
        ),
        (
            "result".into(),
            Json::Obj(vec![
                ("states_explored".into(), Json::uint(out.states_explored as u64)),
                ("states_deduped".into(), Json::uint(out.states_deduped as u64)),
                ("max_depth".into(), Json::uint(out.max_depth as u64)),
                ("complete".into(), Json::Bool(out.complete)),
            ]),
        ),
        ("counterexample".into(), counterexample),
    ])
}

fn mc_summary(cfg: &mcheck::CheckConfig, out: &mcheck::CheckOutcome) -> String {
    let mut text = format!(
        "model check: {} {} MH x {} MSS, horizon {}, seed {}{}\n",
        cfg.protocol.name(),
        cfg.n_mhs,
        cfg.n_mss,
        cfg.horizon,
        cfg.seed,
        if cfg.mutate { " (mutated)" } else { "" },
    );
    text += &format!(
        "states   {} explored, {} deduped, depth {}, complete: {}\n",
        out.states_explored, out.states_deduped, out.max_depth, out.complete,
    );
    match &out.counterexample {
        None if out.complete => {
            text += "verdict  no violation in any schedule within the bound\n";
        }
        None => {
            text += "verdict  no violation found (state budget exhausted — raise --max-states)\n";
        }
        Some(cx) => {
            text += &format!("VIOLATION {}\n", cx.violation);
            text += &format!("minimal schedule ({} steps):\n", cx.schedule.steps.len());
            for (i, label) in cx.schedule.labels().iter().enumerate() {
                text += &format!("  {:>3}. {label}\n", i + 1);
            }
        }
    }
    text
}

/// `mck check --replay MC.json`: rebuilds the recorded root world and
/// re-fires the counterexample schedule, verifying it reproduces exactly
/// the recorded violation.
fn cmd_replay(path: &str) -> Result<String, ArgError> {
    let doc = mck::artifact::read(std::path::Path::new(path)).map_err(ArgError)?;
    let schema = mck::artifact::validate(&doc).map_err(|e| ArgError(format!("{path}: {e}")))?;
    if schema != mck::artifact::MC_SCHEMA {
        return Err(ArgError(format!(
            "{path}: schema '{schema}' is not {}",
            mck::artifact::MC_SCHEMA
        )));
    }
    let params = doc.get("params").expect("validated");
    let get = |k: &str| params.get(k).ok_or_else(|| ArgError(format!("{path}: params.{k} missing")));
    let name = get("protocol")?.as_str().unwrap_or("?");
    let protocol =
        CicKind::parse(name).ok_or_else(|| ArgError(format!("unknown protocol '{name}'")))?;
    let cfg = mcheck::CheckConfig {
        protocol,
        n_mhs: get("mh")?.as_u64().unwrap_or(2) as usize,
        n_mss: get("mss")?.as_u64().unwrap_or(2) as usize,
        horizon: get("horizon")?.as_f64().unwrap_or(3.0),
        t_switch: get("t_switch")?.as_f64().unwrap_or(1.0),
        seed: get("seed")?.as_u64().unwrap_or(1),
        max_states: get("max_states")?.as_u64().unwrap_or(100_000) as usize,
        mutate: get("mutate")?.as_bool().unwrap_or(false),
    };
    let cx = match doc.get("counterexample") {
        Some(cx) if !matches!(cx, Json::Null) => cx,
        _ => {
            return Err(ArgError(format!(
                "{path}: artifact records no counterexample to replay"
            )))
        }
    };
    let recorded = cx
        .get("violation")
        .and_then(|w| w.get("message"))
        .and_then(Json::as_str)
        .expect("validated");
    let indices: Vec<usize> = cx
        .get("schedule")
        .and_then(Json::as_arr)
        .expect("validated")
        .iter()
        .map(|s| s.get("index").and_then(Json::as_u64).expect("validated") as usize)
        .collect();
    let replayed = mcheck::replay(&cfg, &indices);
    let mut text = format!(
        "replaying {} steps against {} {} MH x {} MSS, seed {}{}\n",
        indices.len(),
        cfg.protocol.name(),
        cfg.n_mhs,
        cfg.n_mss,
        cfg.seed,
        if cfg.mutate { " (mutated)" } else { "" },
    );
    match replayed.violation {
        Some(v) if v.to_string() == recorded && replayed.schedule.steps.len() == indices.len() => {
            text += &format!("reproduced: {v}\n");
            Ok(text)
        }
        Some(v) => Err(ArgError(format!(
            "replay diverged: reached \"{v}\" after {} steps, artifact records \"{recorded}\"",
            replayed.schedule.steps.len(),
        ))),
        None => Err(ArgError(format!(
            "replay did not reproduce the violation: schedule ran clean, artifact records \"{recorded}\""
        ))),
    }
}

fn cmd_check(args: &Args) -> Result<String, ArgError> {
    if let Some(path) = args.get("replay") {
        // The artifact's params rebuild the world; nothing else applies.
        let world = ["protocol", "mh", "mss", "horizon", "t-switch", "seed", "max-states"];
        if let Some(flag) = world.iter().chain(&["mutate", "out"]).find(|f| args.flag(f)) {
            return Err(ArgError(format!("check --replay does not read --{flag}")));
        }
        return cmd_replay(path);
    }
    let cfg = check_config_of(args)?;
    let out = mcheck::check(&cfg);
    let mut text = mc_summary(&cfg, &out);
    if let Some(path) = args.get("out") {
        let path = std::path::Path::new(path);
        mck::artifact::write(path, &mc_artifact(&cfg, &out))
            .map_err(|e| ArgError(format!("--out {}: {e}", path.display())))?;
        text += &format!("mc artifact -> {}\n", path.display());
    }
    // Exit status is the verdict, so CI needs no output scraping: an
    // unmutated model must check clean, and a mutated one must not —
    // a checker that misses the planted bug is checking nothing.
    match (&out.counterexample, cfg.mutate) {
        (Some(cx), false) => {
            print!("{text}");
            Err(ArgError(format!("model check found a violation: {}", cx.violation)))
        }
        (None, true) => {
            print!("{text}");
            Err(ArgError(
                "mutated model checked clean: the planted bug was not caught".into(),
            ))
        }
        _ => Ok(text),
    }
}

fn cmd_list() -> String {
    let mut out = String::from("paper figures (mck fig N):\n");
    for n in 1..=6 {
        out += &format!("  fig {n}: {}\n", experiments::figure(n).caption());
    }
    out += "commands:\n";
    for (name, about, ..) in COMMANDS {
        out += &format!("  {name:<14} {about}\n");
    }
    out += "scenarios: pass --scenario FILE (mck.scenario/v1) to run/profile/sweep/fig to swap\n";
    out += "           the cell topology, mobility model, and traffic model; see scenarios/\n";
    out
}

fn render(args: &Args, table: &Table, title: &str) -> String {
    let body = if args.flag("csv") {
        table.to_csv()
    } else {
        table.render()
    };
    if title.is_empty() {
        body
    } else {
        format!("{title}\n{body}")
    }
}

/// Writes `art` as `dir/name` and returns the line that reports it.
fn write_artifact(dir: &str, name: &str, what: &str, art: &Json) -> Result<String, ArgError> {
    let path = std::path::Path::new(dir).join(name);
    mck::artifact::write(&path, art)
        .map_err(|e| ArgError(format!("--out-dir {}: {e}", path.display())))?;
    Ok(format!("{what} artifact -> {}\n", path.display()))
}

/// `out` when a gate passed; when it failed, prints `out` first so the
/// table and artifact line still reach stdout, then returns the failure.
fn gated(out: String, verdict: Result<(), ArgError>) -> Result<String, ArgError> {
    if verdict.is_err() {
        print!("{out}");
    }
    verdict.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_shows_all_figures() {
        let out = cmd_list();
        for n in 1..=6 {
            assert!(out.contains(&format!("fig {n}")));
        }
    }

    #[test]
    fn run_produces_report() {
        let out = dispatch(&raw(&[
            "run",
            "--protocol",
            "BCS",
            "--horizon",
            "300",
            "--t-switch",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("N_tot"));
        assert!(out.contains("BCS"));
    }

    #[test]
    fn sweep_renders_table_and_csv() {
        let base = raw(&[
            "sweep",
            "--protocol",
            "QBC",
            "--t-switch-list",
            "100,200",
            "--horizon",
            "200",
            "--reps",
            "2",
        ]);
        let txt = dispatch(&base).unwrap();
        assert!(txt.contains("T_switch"));
        let mut csv = base.clone();
        csv.push("--csv".into());
        let csv_out = dispatch(&csv).unwrap();
        assert!(csv_out.contains("T_switch,N_tot"));
    }

    #[test]
    fn check_small_world_is_clean() {
        let out = dispatch(&raw(&["check", "--protocol", "BCS", "--horizon", "2"])).unwrap();
        assert!(out.contains("no violation"), "{out}");
        assert!(out.contains("complete: true"), "{out}");
    }

    #[test]
    fn check_mutate_writes_replayable_artifact() {
        let path = std::env::temp_dir().join("mck_cli_test_mc.json");
        let out = dispatch(&raw(&[
            "check",
            "--protocol",
            "BCS",
            "--mutate",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("VIOLATION"), "{out}");
        assert!(out.contains("minimal schedule"), "{out}");
        let doc = mck::artifact::read(&path).unwrap();
        assert_eq!(mck::artifact::validate(&doc).unwrap(), mck::artifact::MC_SCHEMA);
        let described = mck::artifact::describe(&doc).unwrap();
        assert!(described.contains("VIOLATION"), "{described}");
        let replayed = dispatch(&raw(&["check", "--replay", path.to_str().unwrap()])).unwrap();
        assert!(replayed.contains("reproduced:"), "{replayed}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_replay_rejects_clean_artifact() {
        let path = std::env::temp_dir().join("mck_cli_test_mc_clean.json");
        dispatch(&raw(&[
            "check",
            "--protocol",
            "QBC",
            "--horizon",
            "2",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = dispatch(&raw(&["check", "--replay", path.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("no counterexample"), "{}", err.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&raw(&["frobnicate"])).is_err());
        assert!(dispatch(&raw(&[])).is_err());
        assert!(dispatch(&raw(&["run", "--protocol", "XXX"])).is_err());
        assert!(dispatch(&raw(&["run", "--queue", "heap"])).is_err());
        assert!(dispatch(&raw(&["run", "--par-workers", "0"])).is_err());
        assert!(dispatch(&raw(&["sweep", "--par-workers", "2"])).is_err());
        assert!(dispatch(&raw(&["run", "--pb-codec", "huffman"])).is_err());
        assert!(dispatch(&raw(&["run", "--logging", "eager"])).is_err());
        assert!(dispatch(&raw(&["run", "--fail-mtbf", "-5"])).is_err());
        // MSS crashes need a message log to recover from.
        assert!(dispatch(&raw(&["run", "--fail-mss-mtbf", "500"])).is_err());
        // Flags a mode of a command does not read.
        assert!(dispatch(&raw(&["check", "--replay", "MC.json", "--mh", "3"])).is_err());
        assert!(dispatch(&raw(&["rollback", "--out-dir", "/nonexistent"])).is_err());
    }

    #[test]
    fn rle_codec_changes_tp_wire_bytes_only() {
        let base = ["run", "--protocol", "TP", "--horizon", "500"];
        let dense = dispatch(&raw(&base)).unwrap();
        let mut rle_args = raw(&base);
        rle_args.extend(raw(&["--pb-codec", "rle"]));
        let rle = dispatch(&rle_args).unwrap();
        // Same checkpoints/messages (the codec never perturbs the
        // trajectory), but the summaries differ where wire bytes show up.
        assert_ne!(dense, rle, "RLE must shrink TP's modelled piggyback bytes");
        let ckpt_lines = |s: &str| {
            s.lines()
                .filter(|l| l.contains("ckpt") || l.contains("N_tot"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(ckpt_lines(&dense), ckpt_lines(&rle));
    }

    #[test]
    fn failure_injection_run_reports_recovery() {
        let out = dispatch(&raw(&[
            "run",
            "--protocol",
            "QBC",
            "--horizon",
            "2000",
            "--t-switch",
            "200",
            "--logging",
            "optimistic",
            "--flush-latency",
            "5",
            "--fail-mtbf",
            "300",
        ]))
        .unwrap();
        assert!(out.contains("crashes"), "{out}");
        assert!(out.contains("availability"), "{out}");
    }

    #[test]
    fn crash_command_renders_and_writes_artifact() {
        let dir = std::env::temp_dir().join("mck_cli_test_crash");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&raw(&[
            "crash",
            "--reps",
            "1",
            "--t-switch-list",
            "500",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("downtime pess|opt"), "{out}");
        let art = dir.join("RECOVERY.json");
        let inspected = dispatch(&raw(&["inspect", art.to_str().unwrap()])).unwrap();
        assert!(inspected.contains("mck.recovery/v1"), "{inspected}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logged_run_reports_log_accounting_without_changing_results() {
        let base = &[
            "run",
            "--protocol",
            "TP",
            "--horizon",
            "300",
            "--t-switch",
            "100",
        ];
        let off = dispatch(&raw(base)).unwrap();
        assert!(!off.contains("log entries"));
        let mut logged = raw(base);
        logged.extend(raw(&["--logging", "pessimistic"]));
        let on = dispatch(&logged).unwrap();
        assert!(on.contains("log entries"), "{on}");
        assert!(on.contains("log bytes"), "{on}");
        // Logging must not perturb the trajectory: every row the plain run
        // printed appears in the logged run's report (modulo the column
        // padding, which the extra log rows widen).
        let norm = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let on_rows: Vec<String> = on.lines().map(norm).collect();
        for line in off.lines() {
            if line.trim().chars().all(|c| c == '-') {
                continue; // separator rule, width differs with the log rows
            }
            assert!(
                on_rows.contains(&norm(line)),
                "missing {line:?} in logged output"
            );
        }
    }

    #[test]
    fn jobs_and_par_workers_flags_leave_results_unchanged() {
        let base = &[
            "run",
            "--protocol",
            "QBC",
            "--horizon",
            "400",
            "--t-switch",
            "100",
        ];
        let serial = dispatch(&raw(base)).unwrap();
        let mut with_flags = raw(base);
        with_flags.extend(raw(&["--par-workers", "2", "--jobs", "2"]));
        let parallel = dispatch(&with_flags).unwrap();
        set_jobs(0); // restore for other tests
        assert_eq!(
            serial, parallel,
            "the parallel backend must not change results"
        );
    }

    #[test]
    fn run_writes_artifacts_and_inspect_reads_them() {
        let dir = std::env::temp_dir();
        let metrics = dir.join("mck_cli_test_metrics.json");
        let trace = dir.join("mck_cli_test_trace.jsonl");
        let out = dispatch(&raw(&[
            "run",
            "--protocol",
            "QBC",
            "--horizon",
            "300",
            "--t-switch",
            "100",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics artifact ->"));
        assert!(out.contains("trace ("));

        // The metrics artifact parses and inspects.
        let inspected = dispatch(&raw(&["inspect", metrics.to_str().unwrap()])).unwrap();
        assert!(inspected.contains("mck.run/v1"));
        assert!(inspected.contains("n_tot"));

        // The trace stream is non-empty JSONL.
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().count() > 0);
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn inspect_rejects_missing_file() {
        assert!(dispatch(&raw(&["inspect"])).is_err());
        assert!(dispatch(&raw(&["inspect", "/nonexistent/x.json"])).is_err());
    }

    /// Path to a bundled scenario file, resolved relative to the workspace.
    fn bundled(name: &str) -> String {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(name)
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn paper_scenario_is_a_no_op() {
        let base = &["run", "--protocol", "QBC", "--horizon", "400", "--t-switch", "100"];
        let plain = dispatch(&raw(base)).unwrap();
        let mut with = raw(base);
        with.extend(raw(&["--scenario", &bundled("paper.json")]));
        let scenario = dispatch(&with).unwrap();
        assert_eq!(plain, scenario, "paper scenario must not change results");
    }

    #[test]
    fn markov_scenario_runs_and_flags_override_it() {
        let base = raw(&[
            "run",
            "--scenario",
            &bundled("markov_grid.json"),
            "--horizon",
            "400",
            "--t-switch",
            "100",
        ]);
        let out = dispatch(&base).unwrap();
        assert!(out.contains("N_tot"), "{out}");
        // Same scenario, same flags -> identical output (determinism).
        assert_eq!(out, dispatch(&base).unwrap());
        // A different seed flag overrides the scenario-applied config.
        let mut reseeded = base.clone();
        reseeded.extend(raw(&["--seed", "7"]));
        assert_ne!(out, dispatch(&reseeded).unwrap());
    }

    #[test]
    fn scenario_errors_are_reported() {
        assert!(dispatch(&raw(&["run", "--scenario", "/nonexistent.json"])).is_err());
        let dir = std::env::temp_dir();
        let bad = dir.join("mck_cli_bad_scenario.json");
        std::fs::write(&bad, r#"{"schema":"mck.scenario/v1","params":{"t_switch":-5}}"#).unwrap();
        let err = dispatch(&raw(&["run", "--scenario", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("t_switch"), "{}", err.0);
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn inspect_reads_scenario_files() {
        let out = dispatch(&raw(&["inspect", &bundled("hotspot.json")])).unwrap();
        assert!(out.contains("mck.scenario/v1"), "{out}");
        assert!(out.contains("hotspot"), "{out}");
    }

    #[test]
    fn profile_command_writes_all_three_renditions() {
        let dir = std::env::temp_dir().join("mck_cli_test_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let art = dir.join("PROFILE.json");
        let folded = dir.join("out.folded");
        let prom = dir.join("out.prom");
        let out = dispatch(&raw(&[
            "profile",
            "--protocol",
            "QBC",
            "--horizon",
            "300",
            "--t-switch",
            "100",
            "--out",
            art.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
            "--prom",
            prom.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profile artifact ->"), "{out}");
        let inspected = dispatch(&raw(&["inspect", art.to_str().unwrap()])).unwrap();
        assert!(inspected.contains("mck.profile/v1"), "{inspected}");
        assert!(inspected.contains("span coverage"), "{inspected}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(stacks.lines().any(|l| l.starts_with("activity ")), "{stacks}");
        let metrics = std::fs::read_to_string(&prom).unwrap();
        assert!(metrics.contains("# TYPE ckpt_total counter"), "{metrics}");

        // The deterministic view is identical across same-seed profile runs
        // even though the timing members differ.
        let det_a = dispatch(&raw(&["inspect", art.to_str().unwrap(), "--deterministic"])).unwrap();
        assert!(!det_a.contains("\"timing\""), "{det_a}");
        dispatch(&raw(&[
            "profile",
            "--protocol",
            "QBC",
            "--horizon",
            "300",
            "--t-switch",
            "100",
            "--out",
            art.to_str().unwrap(),
        ]))
        .unwrap();
        let det_b = dispatch(&raw(&["inspect", art.to_str().unwrap(), "--deterministic"])).unwrap();
        assert_eq!(det_a, det_b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_size_flags_reach_the_run() {
        let base = raw(&["run", "--horizon", "100"]);
        let mut sized = base.clone();
        sized.extend(raw(&["--mh", "500", "--mss", "20"]));
        let cfg = config_of(&parse(&sized).unwrap().1).unwrap();
        assert_eq!((cfg.n_mhs, cfg.n_mss), (500, 20));
        assert_ne!(dispatch(&base).unwrap(), dispatch(&sized).unwrap());
        assert!(dispatch(&raw(&["run", "--mh", "1"])).is_err());
    }

    #[test]
    fn profile_and_progress_flags_leave_run_output_unchanged() {
        let base = &[
            "run",
            "--protocol",
            "QBC",
            "--horizon",
            "300",
            "--t-switch",
            "100",
        ];
        let plain = dispatch(&raw(base)).unwrap();
        let mut overlaid = raw(base);
        overlaid.extend(raw(&["--profile", "--progress"]));
        assert_eq!(plain, dispatch(&overlaid).unwrap());
    }

    #[test]
    fn fig_validates_number() {
        assert!(dispatch(&raw(&["fig"])).is_err());
        assert!(dispatch(&raw(&["fig", "9"])).is_err());
        assert!(dispatch(&raw(&["fig", "two"])).is_err());
        assert!(dispatch(&raw(&["fig", "1", "--mh", "500"])).is_err());
        for (flag, value) in [("--horizon", "100"), ("--protocol", "TP")] {
            let err = dispatch(&raw(&["fig", "1", flag, value])).unwrap_err();
            assert!(
                err.0.contains(flag) && err.0.contains("--scenario"),
                "{err}"
            );
        }
    }

    #[test]
    fn every_command_rejects_the_flags_it_does_not_read() {
        let names = COMMANDS.iter().map(|c| c.0);
        let mut every: Vec<&str> = names.clone().flat_map(|n| command(n).unwrap().1).collect();
        every.extend(["queue", "nope", "json", "workers"]);
        for name in names {
            let reads = command(name).unwrap().1;
            assert!(reads.contains(&"jobs"), "{name}");
            for flag in &every {
                let mut line = raw(&[name, &format!("--{flag}")]);
                if !BOOLEAN.contains(flag) {
                    line.push("1".into());
                }
                match parse(&line) {
                    Ok((_, args)) => {
                        assert!(reads.contains(flag), "{name} accepted --{flag}");
                        assert!(args.flag(flag));
                    }
                    Err(e) => {
                        assert!(!reads.contains(flag), "{name} rejected --{flag}: {e}");
                        let (cmd, f) = (format!("{name} does not"), format!("--{flag} "));
                        assert!(e.0.contains(&cmd) && e.0.contains(&f), "{e}");
                    }
                }
            }
        }
        assert!(command("frobnicate").is_none());
    }

    #[test]
    fn list_names_every_command() {
        let out = cmd_list();
        for (name, ..) in COMMANDS {
            assert!(out.contains(&format!("\n  {name} ")), "mck list misses {name}:\n{out}");
        }
    }

    /// Runs `line` twice, as a table and with `--csv`, and checks that both
    /// open with `title` and carry the header `columns`.
    fn assert_table_and_csv(line: &[&str], title: &str, columns: &[&str]) -> String {
        let out = dispatch(&raw(line)).unwrap();
        assert!(out.starts_with(&format!("{title}\n")), "{out}");
        let header = out.lines().nth(1).unwrap();
        for col in columns {
            assert!(header.contains(col), "{header}");
        }
        let mut csv = raw(line);
        csv.push("--csv".into());
        let csv_out = dispatch(&csv).unwrap();
        assert!(csv_out.starts_with(&format!("{title}\n{}\n", columns.join(","))), "{csv_out}");
        out
    }

    #[test]
    fn ablation_prints_c4_table() {
        assert_table_and_csv(
            &["ablation", "--reps", "1"],
            "Ablation C4: N_tot vs checkpoint duration (T_switch=1000, P_switch=0.8)",
            &["ckpt duration", "TP", "BCS", "QBC"],
        );
    }

    #[test]
    fn control_bytes_prints_e1_table() {
        let out = assert_table_and_csv(
            &["control-bytes", "--reps", "1"],
            "Extension E1: piggybacked control bytes per message vs number of hosts",
            &["hosts", "TP B/msg", "BCS B/msg", "QBC B/msg"],
        );
        assert_eq!(out.lines().count(), 3 + 4, "one row per host count: {out}");
    }

    #[test]
    fn scenarios_prints_e9_table() {
        assert_table_and_csv(
            &["scenarios", "--reps", "1"],
            "Extension E9: N_tot under paper vs. Markov mobility (grid 2x3, T_switch=500)",
            &["environment", "TP", "BCS", "QBC", "handoffs/run", "disconnects/run"],
        );
    }

    #[test]
    fn log_size_prints_table_and_writes_artifact() {
        let dir = std::env::temp_dir().join("mck_cli_test_log_size");
        std::fs::remove_dir_all(&dir).ok();
        let out = assert_table_and_csv(
            &["log-size", "--reps", "1", "--out-dir", dir.to_str().unwrap()],
            "Log-size figures: peak live MSS log bytes vs T_switch (P_switch=0.8, horizon 4000)",
            &["T_switch", "TP peak KiB", "BCS peak KiB", "QBC peak KiB", "UNCOORD peak KiB"],
        );
        assert!(out.contains("log-size artifact ->"), "{out}");
        let doc = mck::artifact::read(&dir.join("BENCH_log_size.json")).unwrap();
        assert_eq!(mck::artifact::validate(&doc).unwrap(), mck::artifact::LOG_SIZE_SCHEMA);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_write_under_a_regular_file_fails() {
        let file = std::env::temp_dir().join("mck_cli_test_not_a_dir");
        std::fs::write(&file, "x").unwrap();
        let dir = file.join("x");
        let art = Json::Obj(vec![]);
        let err = write_artifact(dir.to_str().unwrap(), "A.json", "test", &art).unwrap_err();
        assert!(err.0.contains("--out-dir"), "{err}");
        let line = ["sweep", "--t-switch-list", "100", "--horizon", "50", "--reps", "1"];
        let mut sweep = raw(&line);
        sweep.extend(raw(&["--out-dir", dir.to_str().unwrap()]));
        assert!(dispatch(&sweep).is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cached_run_is_byte_identical_and_inspectable() {
        let dir = std::env::temp_dir().join("mck_cli_test_cache_run");
        std::fs::remove_dir_all(&dir).ok();
        let base = raw(&[
            "run",
            "--protocol",
            "QBC",
            "--horizon",
            "300",
            "--t-switch",
            "100",
            "--cache-dir",
            dir.to_str().unwrap(),
        ]);
        let cold = dispatch(&base).unwrap();
        let warm = dispatch(&base).unwrap();
        assert_eq!(cold, warm, "warm stdout must be byte-identical");
        assert!(cold.contains("mck.run/v1"), "{cold}");

        // A different seed is a different key, not a stale hit.
        let mut reseeded = base.clone();
        reseeded.extend(raw(&["--seed", "9"]));
        assert_ne!(cold, dispatch(&reseeded).unwrap());

        // The cache directory inspects as an index table with both entries.
        let index = dispatch(&raw(&["inspect", dir.to_str().unwrap()])).unwrap();
        assert!(index.contains("mck.cache_index/v1: 2 entries"), "{index}");
        assert!(index.contains("mck.run/v1"), "{index}");
        assert!(index.contains("age"), "{index}");

        // Individual entries inspect with a cache-entry header.
        let objects = dir.join("objects");
        let entry = std::fs::read_dir(&objects).unwrap().next().unwrap().unwrap();
        let inspected = dispatch(&raw(&["inspect", entry.path().to_str().unwrap()])).unwrap();
        assert!(inspected.contains("cache entry "), "{inspected}");
        assert!(inspected.contains("mck.run/v1"), "{inspected}");

        // --metrics on a warm request writes the stored bytes verbatim.
        let copy = dir.join("copy.json");
        let mut with_metrics = base.clone();
        with_metrics.extend(raw(&["--metrics", copy.to_str().unwrap()]));
        dispatch(&with_metrics).unwrap();
        let written = std::fs::read_to_string(&copy).unwrap();
        let key = servekit::key::run_key(&config_of(&parse(&base).unwrap().1).unwrap());
        let stored = std::fs::read_to_string(objects.join(format!("{key}.json"))).unwrap();
        assert_eq!(written, stored);

        // --trace is meaningless against a cache and is rejected.
        let mut traced = base.clone();
        traced.extend(raw(&["--trace", "/tmp/x.jsonl"]));
        assert!(dispatch(&traced).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_fig_hits_per_figure() {
        let dir = std::env::temp_dir().join("mck_cli_test_cache_fig");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A short-horizon scenario keeps the cold computation cheap and
        // exercises the scenario's participation in the cache key.
        let sc = dir.join("short.json");
        std::fs::write(&sc, r#"{"schema":"mck.scenario/v1","params":{"horizon":400}}"#).unwrap();
        let base = raw(&[
            "fig",
            "1",
            "--reps",
            "1",
            "--scenario",
            sc.to_str().unwrap(),
            "--cache-dir",
            dir.to_str().unwrap(),
        ]);
        let cold = dispatch(&base).unwrap();
        let warm = dispatch(&base).unwrap();
        assert_eq!(cold, warm);
        assert!(cold.contains("mck.figure/v1"), "{cold}");
        let index = dispatch(&raw(&["inspect", dir.to_str().unwrap()])).unwrap();
        assert!(index.contains("mck.cache_index/v1: 1 entries"), "{index}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_flags_are_validated() {
        assert!(dispatch(&raw(&["serve", "--max-entries", "0"])).is_err());
        assert!(dispatch(&raw(&["serve", "--queue-depth", "0"])).is_err());
        assert!(dispatch(&raw(&["serve", "--port", "x"])).is_err());
    }
}
