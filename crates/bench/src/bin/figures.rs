//! Regenerates every figure and quantitative claim of the paper, plus the
//! extension experiments.
//!
//! ```text
//! cargo run --release -p mck-bench --bin figures -- all          # figures 1-6
//! cargo run --release -p mck-bench --bin figures -- fig 2
//! cargo run --release -p mck-bench --bin figures -- claims
//! cargo run --release -p mck-bench --bin figures -- ablation
//! cargo run --release -p mck-bench --bin figures -- control-bytes
//! cargo run --release -p mck-bench --bin figures -- classes
//! cargo run --release -p mck-bench --bin figures -- rollback
//! cargo run --release -p mck-bench --bin figures -- logging
//! cargo run --release -p mck-bench --bin figures -- storage
//! cargo run --release -p mck-bench --bin figures -- recovery-time
//! cargo run --release -p mck-bench --bin figures -- topologies
//! cargo run --release -p mck-bench --bin figures -- contention
//! cargo run --release -p mck-bench --bin figures -- sweep-bench
//! cargo run --release -p mck-bench --bin figures -- serve-bench --min-speedup 100
//! cargo run --release -p mck-bench --bin figures -- mc-bench
//! cargo run --release -p mck-bench --bin figures -- par-bench --workers 4
//! cargo run --release -p mck-bench --bin figures -- scale --n-list 10,100,1000
//! cargo run --release -p mck-bench --bin figures -- log-size
//! cargo run --release -p mck-bench --bin figures -- recovery
//! cargo run --release -p mck-bench --bin figures -- scenarios
//! cargo run --release -p mck-bench --bin figures -- scenario scenarios/markov_grid.json
//! cargo run --release -p mck-bench --bin figures -- everything  # the lot
//! ```
//!
//! Options: `--reps N` (default 5), `--seed S` (default 1), `--csv`,
//! `--plot` (render each figure as a log-log terminal chart too),
//! `--jobs N` (worker threads for the parallel sweep executor),
//! `--json PATH` (additionally write a machine-readable
//! `mck.bench_figures/v1` artifact — conventionally `BENCH_figures.json` —
//! with per-protocol `N_tot` estimates and wall-clock timings; applies to
//! the figure commands),
//! `--scenario FILE` (apply a `mck.scenario/v1` environment to the figure
//! commands; the figure axes `T_switch`/`P_switch`/`H` stay pinned),
//! `--out-dir DIR` (where `log-size` and `scenario` write their artifacts;
//! default the working directory).
//! `log-size` sweeps `T_switch` under pessimistic logging and writes the
//! peak live log bytes per protocol as a `mck.log_size/v1` artifact
//! (`BENCH_log_size.json`). `recovery` injects live crashes over a
//! `T_switch` × MTBF grid and writes per-protocol downtime/availability
//! curves for pessimistic vs. optimistic logging as a `mck.recovery/v1`
//! artifact (`BENCH_recovery.json`). `scenarios` compares the protocols under
//! Markov vs. paper mobility (extension E9). `scenario FILE...` runs a full
//! `T_switch` sweep per protocol inside each scenario file's environment
//! and writes one `mck.sweep/v1` artifact per protocol.
//! `sweep-bench` times the full figure grid at 1 worker and at full
//! parallelism and writes a `mck.bench_sweep/v1` artifact (default
//! `BENCH_sweep.json`) with runs-per-second and per-protocol wall-clock.
//! `serve-bench` boots the `mck serve` stack in-process, measures one cold
//! `POST /run` against `--warm N` cache hits (default 20), asserts warm
//! responses are byte-identical and execute zero simulation events, and
//! writes a `mck.serve_bench/v1` artifact (`BENCH_serve.json`);
//! `--min-speedup X` exits nonzero below a cold/warm floor.
//! `mc-bench` runs the exhaustive model checker (`mck check`) over a grid
//! of protocols and world sizes and writes states explored, dedup hit-rate,
//! and states/sec as a `mck.bench_mc/v1` artifact (`BENCH_mc.json`); every
//! configuration must check clean and complete within its state budget.
//! `par-bench` races the serial heap scheduler against the conservative
//! cell-partitioned parallel backend (`--workers N`, default 4) over the
//! `--n-list` host populations, asserts both produce byte-identical
//! `mck.run/v1` artifacts at every point, and writes a `mck.bench_par/v1`
//! artifact (`BENCH_par.json`); `--check-regression` exits nonzero when the
//! speedup at the largest N falls below `--min-speedup` (default 2.0) —
//! skipped with a note when the host lacks the cores to achieve the floor.
//! `scale` sweeps the host population (`--n-list a,b,c`, default
//! 10,100,1000,10000, with `--horizon T`, default 500, and `--mss-ratio R`
//! hosts per cell, default 32) through spanned + profiled runs and writes a
//! `mck.bench_scale/v1` artifact (`BENCH_scale.json`) with events/sec,
//! per-host wireless bytes, TP piggyback bytes under both wire codecs, and
//! the span breakdown vs. N; `--check-regression` exits nonzero when
//! throughput at the largest N falls more than 5x below the smallest.
//! Output shape matches the paper: one row per `T_switch`, one column per
//! protocol, with the derived gain columns the text quotes.

use std::path::PathBuf;
use std::time::Instant;

use mck::artifact;
use mck::config::{ProtocolChoice, SimConfig};
use mck::experiments::{
    ablation_ckpt_time, claims, ext_classes, ext_contention, ext_control_bytes, ext_log_size,
    ext_recovery, ext_recovery_time, ext_rollback,
    ext_rollback_logging, ext_scenarios, ext_storage,
    ext_topologies,
    figure,
    run_figure, run_figures, run_figures_scenario, run_sweep, FigureResult, FigureSpec,
    T_SWITCH_SWEEP,
};
use mck::prelude::{CicKind, PbCodec};
use mck::scenario::Scenario;
use mck::simulation::{Instrumentation, Simulation};
use mck::table::{fmt_estimate, Table};
use simkit::json::Json;
use simkit::span::SpanSnapshot;

struct Opts {
    reps: usize,
    seed: u64,
    csv: bool,
    plot: bool,
    json: Option<PathBuf>,
    jobs: Option<usize>,
    scenario: Option<Scenario>,
    out_dir: PathBuf,
    n_list: Vec<u64>,
    horizon: Option<f64>,
    mss_ratio: u64,
    check_regression: bool,
    warm: u64,
    min_speedup: Option<f64>,
    workers: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        reps: 5,
        seed: 1,
        csv: false,
        plot: false,
        json: None,
        jobs: None,
        scenario: None,
        out_dir: PathBuf::from("."),
        n_list: vec![10, 100, 1000, 10_000],
        horizon: None,
        mss_ratio: 32,
        check_regression: false,
        warm: 20,
        min_speedup: None,
        workers: 4,
    };
    let mut cmd: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => opts.reps = it.next().expect("--reps N").parse().expect("number"),
            "--seed" => opts.seed = it.next().expect("--seed S").parse().expect("number"),
            "--csv" => opts.csv = true,
            "--plot" => opts.plot = true,
            "--json" => opts.json = Some(PathBuf::from(it.next().expect("--json PATH"))),
            "--jobs" => {
                opts.jobs = Some(it.next().expect("--jobs N").parse().expect("number"));
            }
            "--scenario" => {
                let path = it.next().expect("--scenario FILE");
                opts.scenario = Some(load_scenario(path));
            }
            "--out-dir" => opts.out_dir = PathBuf::from(it.next().expect("--out-dir DIR")),
            "--n-list" => {
                opts.n_list = it
                    .next()
                    .expect("--n-list a,b,c")
                    .split(',')
                    .map(|s| s.trim().parse().expect("host count"))
                    .collect();
            }
            "--horizon" => {
                opts.horizon = Some(it.next().expect("--horizon T").parse().expect("number"));
            }
            "--mss-ratio" => {
                opts.mss_ratio = it.next().expect("--mss-ratio R").parse().expect("number");
                assert!(opts.mss_ratio > 0, "--mss-ratio must be positive");
            }
            "--check-regression" => opts.check_regression = true,
            "--warm" => {
                opts.warm = it.next().expect("--warm N").parse().expect("number");
                assert!(opts.warm > 0, "--warm must be positive");
            }
            "--min-speedup" => {
                opts.min_speedup =
                    Some(it.next().expect("--min-speedup X").parse().expect("number"));
            }
            "--workers" => {
                opts.workers = it.next().expect("--workers N").parse().expect("number");
                assert!(opts.workers > 0, "--workers must be positive");
            }
            other => cmd.push(other.to_string()),
        }
    }
    if let Some(j) = opts.jobs {
        mck::runner::set_jobs(j);
    }
    let cmd: Vec<&str> = cmd.iter().map(String::as_str).collect();
    match cmd.as_slice() {
        [] | ["all"] => figures(&opts, &[1, 2, 3, 4, 5, 6]),
        ["fig", n] => figures(&opts, &[n.parse().expect("figure number")]),
        ["sweep-bench"] => sweep_bench(&opts),
        ["serve-bench"] => serve_bench(&opts),
        ["mc-bench"] => mc_bench(&opts),
        ["par-bench"] => par_bench(&opts),
        ["scale"] => scale(&opts),
        ["claims"] => print_claims(&opts),
        ["ablation"] => ablation(&opts),
        ["control-bytes"] => control_bytes(&opts),
        ["classes"] => classes(&opts),
        ["rollback"] => rollback(&opts),
        ["logging"] => logging_rollback(&opts),
        ["storage"] => storage(&opts),
        ["recovery-time"] => recovery_time_cmd(&opts),
        ["topologies"] => topologies(&opts),
        ["contention"] => contention(&opts),
        ["log-size"] => log_size(&opts),
        ["recovery"] => recovery_cmd(&opts),
        ["scenarios"] => scenarios_cmd(&opts),
        ["scenario", files @ ..] if !files.is_empty() => scenario_sweeps(&opts, files),
        ["everything"] => {
            figures(&opts, &[1, 2, 3, 4, 5, 6]);
            print_claims(&opts);
            ablation(&opts);
            control_bytes(&opts);
            classes(&opts);
            rollback(&opts);
            logging_rollback(&opts);
            storage(&opts);
            recovery_time_cmd(&opts);
            topologies(&opts);
            contention(&opts);
            log_size(&opts);
            recovery_cmd(&opts);
            scenarios_cmd(&opts);
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs");
            std::process::exit(2);
        }
    }
}

fn load_scenario(path: &str) -> Scenario {
    match Scenario::load(std::path::Path::new(path)) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("scenario {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn emit(opts: &Opts, t: &Table) {
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    println!();
}

fn figures(opts: &Opts, ids: &[usize]) {
    let mut fig_entries: Vec<Json> = Vec::new();
    if let Some(sc) = &opts.scenario {
        eprintln!("figures under scenario '{}' (figure axes stay pinned)", sc.name);
    }
    for &id in ids {
        let spec = figure(id);
        eprintln!("running {} ({} reps/point)...", spec.caption(), opts.reps);
        let t0 = Instant::now();
        let res = run_figures_scenario(
            std::slice::from_ref(&spec),
            opts.seed,
            opts.reps,
            opts.scenario.as_ref(),
        )
        .pop()
        .expect("one result per spec");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{}", spec.caption());
        emit(opts, &res.table());
        if opts.plot {
            println!("{}", res.plot());
        }
        if opts.json.is_some() {
            fig_entries.push(figure_entry(opts, &spec, &res, wall_ms));
        }
    }
    if let Some(path) = &opts.json {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(artifact::BENCH_SCHEMA)),
            ("version".into(), Json::str(artifact::version())),
            ("base_seed".into(), Json::uint(opts.seed)),
            ("replications".into(), Json::uint(opts.reps as u64)),
            ("figures".into(), Json::Arr(fig_entries)),
        ]);
        match artifact::write(path, &doc) {
            Ok(()) => eprintln!("bench artifact -> {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Times the full figure grid (`fig all`: every figure × `T_switch` ×
/// protocol × replication as one flattened job list) at 1 worker and at
/// full parallelism, and writes a `mck.bench_sweep/v1` artifact with
/// wall-clock, runs-per-second, the jobs-1-vs-N speedup, and a
/// per-protocol profiled single run.
fn sweep_bench(opts: &Opts) {
    let host = simkit::pool::default_workers();
    let parallel = opts.jobs.unwrap_or(host).max(1);
    let settings: Vec<usize> = if parallel > 1 { vec![1, parallel] } else { vec![1] };
    let specs: Vec<FigureSpec> = (1..=6).map(figure).collect();
    let total_runs: u64 = specs
        .iter()
        .map(|s| (s.t_switch_values.len() * s.protocols.len() * opts.reps) as u64)
        .sum();

    let mut sweeps: Vec<Json> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    for &n in &settings {
        mck::runner::set_jobs(n);
        eprintln!("sweep-bench: figure grid ({total_runs} runs, {n} job(s))...");
        let t0 = Instant::now();
        let results = run_figures(&specs, opts.seed, opts.reps);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(results.len(), specs.len());
        let timing = artifact::SweepTiming {
            wall_ms,
            runs: total_runs,
            jobs: n,
        };
        eprintln!(
            "sweep-bench: {n} job(s): {wall_ms:.0} ms, {:.1} runs/sec",
            timing.runs_per_sec()
        );
        walls.push(wall_ms);
        sweeps.push(Json::Obj(vec![
            ("label".into(), Json::str("figures 1-6 grid")),
            ("timing".into(), timing.to_json()),
        ]));
    }
    mck::runner::set_jobs(opts.jobs.unwrap_or(0));

    // Per-protocol single-run wall clock at the paper's base point, so the
    // artifact also answers "which protocol dominates the grid's runtime".
    let mut seen: Vec<&str> = Vec::new();
    let mut protocols: Vec<Json> = Vec::new();
    for spec in &specs {
        for &proto in &spec.protocols {
            if seen.contains(&proto.name()) {
                continue;
            }
            seen.push(proto.name());
            let cfg = SimConfig::paper(ProtocolChoice::Cic(proto), 1000.0, 0.8, 0.0);
            let report = Simulation::run_with(
                cfg,
                Instrumentation {
                    profile: true,
                    ..Instrumentation::off()
                },
            );
            let p = report.profile.as_ref().expect("profiled run");
            protocols.push(Json::Obj(vec![
                ("protocol".into(), Json::str(proto.name())),
                ("wall_ms".into(), Json::Num(p.wall_ns as f64 / 1e6)),
                ("events".into(), Json::uint(report.events)),
                ("events_per_sec".into(), Json::Num(p.events_per_sec())),
            ]));
        }
    }

    let speedup = walls[0] / walls.last().copied().unwrap_or(walls[0]).max(1e-9);
    let mut members = vec![
        ("schema".into(), Json::str(artifact::BENCH_SWEEP_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("host_parallelism".into(), Json::uint(host as u64)),
        ("base_seed".into(), Json::uint(opts.seed)),
        ("replications".into(), Json::uint(opts.reps as u64)),
        ("sweeps".into(), Json::Arr(sweeps)),
        ("protocols".into(), Json::Arr(protocols)),
    ];
    if settings.len() > 1 {
        members.push(("speedup".into(), Json::Num(speedup)));
    }
    let doc = Json::Obj(members);
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_sweep.json"));
    match artifact::write(&path, &doc) {
        Ok(()) => eprintln!("sweep-bench artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Cold-vs-warm serving benchmark (`figures serve-bench`): boots the
/// `mck serve` stack in-process on an ephemeral port with a fresh cache,
/// issues one cold `POST /run` on the paper's default configuration and
/// `--warm N` (default 20) warm repeats, and writes a `mck.serve_bench/v1`
/// artifact (default `BENCH_serve.json`). The warm path must (a) return
/// bytes identical to the cold response and (b) execute zero simulation
/// events — both asserted here against the service counters, not inferred.
/// `--min-speedup X` exits nonzero when cold/warm-min falls below X (the
/// CI gate for "a hit never recomputes").
fn serve_bench(opts: &Opts) {
    use servekit::http::{client_request, header_value};
    use servekit::server::{ServeOptions, Server};
    use std::sync::atomic::Ordering;

    let cache_dir = std::env::temp_dir().join(format!("mck_serve_bench_{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok(); // guarantee the first request is cold
    let serve_opts = ServeOptions {
        cache_dir: cache_dir.clone(),
        ..ServeOptions::default()
    };
    let server = Server::bind(&serve_opts).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let service = server.service();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    eprintln!("serve-bench: server on http://{addr}, cache {}", cache_dir.display());

    // The paper's default configuration: an empty request body takes every
    // default, exactly like `mck run` with no flags.
    let body = b"{}";
    let t0 = Instant::now();
    let (status, headers, cold_body) =
        client_request(&addr, "POST", "/run", body).expect("cold request");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "cold request failed: {}", String::from_utf8_lossy(&cold_body));
    assert_eq!(header_value(&headers, "x-mck-cache"), Some("miss"));
    let key = header_value(&headers, "x-mck-key").unwrap_or("?").to_string();

    let events_before_warm = service.metrics.sim_events.load(Ordering::SeqCst);
    let mut warm_ms: Vec<f64> = Vec::with_capacity(opts.warm as usize);
    let mut byte_identical = true;
    for _ in 0..opts.warm {
        let t0 = Instant::now();
        let (status, headers, warm_body) =
            client_request(&addr, "POST", "/run", body).expect("warm request");
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200);
        assert_eq!(header_value(&headers, "x-mck-cache"), Some("hit"));
        byte_identical &= warm_body == cold_body;
    }
    let warm_events = service.metrics.sim_events.load(Ordering::SeqCst) - events_before_warm;
    assert_eq!(warm_events, 0, "warm requests must execute zero simulation events");
    assert_eq!(service.metrics.sim_runs.load(Ordering::SeqCst), 1);
    assert!(byte_identical, "warm responses must be byte-identical to the cold one");

    client_request(&addr, "POST", "/shutdown", b"").expect("shutdown");
    let summary = handle.join().expect("server thread");
    std::fs::remove_dir_all(&cache_dir).ok();

    let warm_ms_mean = warm_ms.iter().sum::<f64>() / warm_ms.len().max(1) as f64;
    let warm_ms_min = warm_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let speedup = cold_ms / warm_ms_min.max(1e-9);
    eprintln!(
        "serve-bench: cold {cold_ms:.1} ms, warm mean {warm_ms_mean:.3} ms \
         (min {warm_ms_min:.3}), speedup {speedup:.0}x, {} hits / {} misses",
        summary.hits, summary.misses
    );

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::SERVE_BENCH_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        (
            "config".into(),
            servekit::key::normalized_config_json(&SimConfig::default()),
        ),
        ("key".into(), Json::str(key)),
        ("warm_requests".into(), Json::uint(opts.warm)),
        ("byte_identical".into(), Json::Bool(byte_identical)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(summary.hits)),
                ("misses".into(), Json::uint(summary.misses)),
            ]),
        ),
        (
            "timing".into(),
            Json::Obj(vec![
                ("cold_ms".into(), Json::Num(cold_ms)),
                ("warm_ms_mean".into(), Json::Num(warm_ms_mean)),
                ("warm_ms_min".into(), Json::Num(warm_ms_min)),
                ("speedup".into(), Json::Num(speedup)),
            ]),
        ),
    ]);
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("BENCH_serve.json"));
    match artifact::write(&path, &doc) {
        Ok(()) => eprintln!("serve-bench artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    if let Some(min) = opts.min_speedup {
        if speedup < min {
            eprintln!("serve-bench REGRESSION: speedup {speedup:.0}x below the {min:.0}x floor");
            std::process::exit(1);
        }
        eprintln!("serve-bench speedup check: {speedup:.0}x >= {min:.0}x — ok");
    }
}

/// Model-checker throughput (`figures mc-bench`): exhaustive exploration of
/// a grid of protocols and world sizes, reporting states explored, dedup
/// hit-rate, and states/sec as a `mck.bench_mc/v1` artifact
/// (`BENCH_mc.json`). Doubles as a safety gate: every configuration must
/// check clean and run its frontier dry within the state budget, so a
/// protocol regression that introduces an orphan or Z-cycle on *any*
/// schedule of these worlds fails the bench, not just the one seeded
/// trajectory the unit tests sample.
fn mc_bench(opts: &Opts) {
    use cic::CicKind;
    // (mh, mss, horizon): the 2x2 world explores ~3k-20k states at horizon
    // 3; the 3-host world blows up past horizon 2. Both fit the budget.
    let grid: &[(usize, usize, f64)] = &[(2, 2, 3.0), (3, 2, 2.0)];
    let protocols = [CicKind::Bcs, CicKind::Qbc, CicKind::Tp, CicKind::Uncoordinated];
    let mut table = Table::new(vec![
        "protocol", "MH", "MSS", "horizon", "states", "deduped", "dedup%", "depth", "states/s",
    ]);
    let mut points: Vec<Json> = Vec::new();
    for &(mh, mss, horizon) in grid {
        for proto in protocols {
            let cfg = mcheck::CheckConfig {
                protocol: proto,
                n_mhs: mh,
                n_mss: mss,
                horizon,
                seed: opts.seed,
                ..mcheck::CheckConfig::default()
            };
            let t0 = Instant::now();
            let out = mcheck::check(&cfg);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(cx) = &out.counterexample {
                eprintln!(
                    "mc-bench: {} {mh}x{mss} h={horizon} VIOLATION: {}",
                    proto.name(),
                    cx.violation
                );
                std::process::exit(1);
            }
            if !out.complete {
                eprintln!(
                    "mc-bench: {} {mh}x{mss} h={horizon} blew the {}-state budget",
                    proto.name(),
                    cfg.max_states
                );
                std::process::exit(1);
            }
            let children = out.states_explored + out.states_deduped;
            let dedup_rate = out.states_deduped as f64 / children.max(1) as f64;
            let states_per_sec = out.states_explored as f64 / (wall_ms / 1e3).max(1e-9);
            eprintln!(
                "mc-bench: {} {mh}x{mss} h={horizon}: {} states in {wall_ms:.0} ms \
                 ({states_per_sec:.0}/s, {:.1}% dedup)",
                proto.name(),
                out.states_explored,
                dedup_rate * 100.0
            );
            table.push_row(vec![
                proto.name().into(),
                mh.to_string(),
                mss.to_string(),
                format!("{horizon:.1}"),
                out.states_explored.to_string(),
                out.states_deduped.to_string(),
                format!("{:.1}", dedup_rate * 100.0),
                out.max_depth.to_string(),
                format!("{states_per_sec:.0}"),
            ]);
            points.push(Json::Obj(vec![
                ("protocol".into(), Json::str(proto.name())),
                ("mh".into(), Json::uint(mh as u64)),
                ("mss".into(), Json::uint(mss as u64)),
                ("horizon".into(), Json::Num(horizon)),
                ("seed".into(), Json::uint(opts.seed)),
                ("states_explored".into(), Json::uint(out.states_explored as u64)),
                ("states_deduped".into(), Json::uint(out.states_deduped as u64)),
                ("dedup_rate".into(), Json::Num(dedup_rate)),
                ("max_depth".into(), Json::uint(out.max_depth as u64)),
                ("complete".into(), Json::Bool(out.complete)),
                (
                    "timing".into(),
                    Json::Obj(vec![
                        ("wall_ms".into(), Json::Num(wall_ms)),
                        ("states_per_sec".into(), Json::Num(states_per_sec)),
                    ]),
                ),
            ]));
        }
    }
    emit(opts, &table);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_MC_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("base_seed".into(), Json::uint(opts.seed)),
        ("points".into(), Json::Arr(points)),
    ]);
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("BENCH_mc.json"));
    match artifact::write(&path, &doc) {
        Ok(()) => eprintln!("mc-bench artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Scale telemetry (`figures scale`): one spanned + profiled run per host
/// population, sweeping `n_mh` (with `n_mss = max(2, n_mh / mss_ratio)`;
/// `--mss-ratio`, default 32 hosts per cell) and recording how event
/// throughput, per-host wireless bytes, and the span breakdown move
/// with N. Each point also runs TP under both piggyback codecs at a capped
/// horizon and records the per-host / per-message control-byte cost, so the
/// artifact demonstrates the dense-O(n) vs RLE-O(runs) wire-size split.
/// Writes a `mck.bench_scale/v1` artifact (default `BENCH_scale.json`)
/// whose wall-clock columns live under `timing` members per the artifact
/// separation rule. With `--check-regression`, exits nonzero when
/// events/sec at the largest N degrades more than 5x below the smallest N
/// (the O(n)-scan tripwire CI runs).
/// `par-bench`: the serial heap scheduler against the conservative
/// cell-partitioned parallel backend at each `--n-list` population. Both
/// runs must produce byte-identical `mck.run/v1` artifacts (the backend's
/// exactness contract — the bench aborts on any divergence); the artifact
/// records the wall-clock comparison with every host-dependent quantity
/// quarantined under `timing`.
fn par_bench(opts: &Opts) {
    let horizon = opts.horizon.unwrap_or(25.0);
    let workers = opts.workers;
    let proto = CicKind::Qbc;
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut points: Vec<Json> = Vec::new();
    let mut gate_point: Option<(u64, f64)> = None;
    let mut table = Table::new(vec![
        "n_mh",
        "n_mss",
        "events",
        "serial ev/s",
        "parallel ev/s",
        "speedup",
    ]);
    for &n in &opts.n_list {
        let n_mss = (n / opts.mss_ratio).max(2);
        let cfg = SimConfig {
            protocol: ProtocolChoice::Cic(proto),
            n_mhs: n as usize,
            n_mss: n_mss as usize,
            horizon,
            seed: opts.seed,
            ..SimConfig::default()
        };
        let instr = || Instrumentation {
            metrics: true,
            profile: true,
            ..Instrumentation::off()
        };
        eprintln!(
            "par-bench: {} at n_mh={n}, n_mss={n_mss}, horizon={horizon}: serial...",
            proto.name()
        );
        let t0 = Instant::now();
        let serial = Simulation::run_with(cfg.clone(), instr());
        let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!("par-bench: parallel x{workers}...");
        let t1 = Instant::now();
        let parallel = pardes::run(cfg.clone(), workers, instr());
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
        let serial_fp = artifact::run_artifact(&cfg, &serial).to_pretty();
        let parallel_fp = artifact::run_artifact(&cfg, &parallel).to_pretty();
        assert!(
            serial_fp == parallel_fp,
            "par-bench: serial and parallel artifacts diverged at n_mh={n} (seed {})",
            opts.seed
        );
        let serial_eps = serial.profile.as_ref().expect("profiled run").events_per_sec();
        let parallel_eps = parallel.profile.as_ref().expect("profiled run").events_per_sec();
        let speedup = parallel_eps / serial_eps.max(1e-9);
        if gate_point.is_none_or(|(m, _)| n >= m) {
            gate_point = Some((n, speedup));
        }
        table.push_row(vec![
            n.to_string(),
            n_mss.to_string(),
            serial.events.to_string(),
            format!("{serial_eps:.0}"),
            format!("{parallel_eps:.0}"),
            format!("{speedup:.2}"),
        ]);
        points.push(Json::Obj(vec![
            ("n_mh".into(), Json::uint(n)),
            ("n_mss".into(), Json::uint(n_mss)),
            ("workers".into(), Json::uint(workers as u64)),
            ("events".into(), Json::uint(serial.events)),
            ("n_tot".into(), Json::uint(serial.n_tot())),
            (
                "timing".into(),
                Json::Obj(vec![
                    ("serial_wall_ms".into(), Json::Num(serial_ms)),
                    ("parallel_wall_ms".into(), Json::Num(parallel_ms)),
                    ("serial_events_per_sec".into(), Json::Num(serial_eps)),
                    ("parallel_events_per_sec".into(), Json::Num(parallel_eps)),
                    ("speedup".into(), Json::Num(speedup)),
                ]),
            ),
        ]));
    }
    emit(opts, &table);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_PAR_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("protocol".into(), Json::str(proto.name())),
        ("base_seed".into(), Json::uint(opts.seed)),
        ("horizon".into(), Json::Num(horizon)),
        ("mss_ratio".into(), Json::uint(opts.mss_ratio)),
        ("workers".into(), Json::uint(workers as u64)),
        ("byte_identical".into(), Json::Bool(true)),
        ("points".into(), Json::Arr(points)),
        (
            "timing".into(),
            Json::Obj(vec![("cores".into(), Json::uint(cores as u64))]),
        ),
    ]);
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("BENCH_par.json"));
    match artifact::write(&path, &doc) {
        Ok(()) => eprintln!("par-bench artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    if opts.check_regression {
        check_par_regression(gate_point, workers, cores, opts.min_speedup.unwrap_or(2.0));
    }
}

/// Enforces the parallel-backend speedup floor at the largest measured N.
/// The floor only makes sense when the host can physically achieve it: a
/// 4-worker run on a single core can never beat serial, so the check is
/// reported and skipped (not failed) when `min(workers, cores)` is below
/// the floor.
fn check_par_regression(point: Option<(u64, f64)>, workers: usize, cores: usize, min: f64) {
    let Some((n, speedup)) = point else {
        eprintln!("par-bench: --check-regression needs at least one point");
        return;
    };
    if (workers.min(cores) as f64) < min {
        eprintln!(
            "par-bench regression check SKIPPED: host has {cores} core(s) for {workers} \
             worker(s); a {min:.1}x speedup is not achievable here (measured {speedup:.2}x)"
        );
        return;
    }
    if speedup < min {
        eprintln!(
            "par-bench REGRESSION: parallel speedup at N={n} is {speedup:.2}x; floor is {min:.1}x"
        );
        std::process::exit(1);
    }
    eprintln!("par-bench regression check: {speedup:.2}x at N={n} (floor {min:.1}x) — ok");
}

fn scale(opts: &Opts) {
    let horizon = opts.horizon.unwrap_or(500.0);
    let proto = CicKind::Qbc;
    let mut points: Vec<Json> = Vec::new();
    let mut merged = SpanSnapshot::default();
    let mut throughputs: Vec<(u64, f64)> = Vec::new();
    let mut table = Table::new(vec![
        "n_mh",
        "n_mss",
        "events",
        "bytes/host",
        "events/sec",
        "TP pb B/msg dense",
        "TP pb B/msg rle",
    ]);
    for &n in &opts.n_list {
        let n_mss = (n / opts.mss_ratio).max(2);
        let mut cfg = SimConfig {
            protocol: ProtocolChoice::Cic(proto),
            horizon,
            seed: opts.seed,
            ..SimConfig::default()
        };
        cfg.n_mhs = n as usize;
        cfg.n_mss = n_mss as usize;
        eprintln!("scale: {} at n_mh={n}, n_mss={n_mss}, horizon={horizon}...", proto.name());
        let t0 = Instant::now();
        let report = Simulation::run_with(
            cfg,
            Instrumentation {
                metrics: true,
                profile: true,
                spans: true,
                ..Instrumentation::off()
            },
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let p = report.profile.as_ref().expect("profiled run");
        let spans = report.spans.clone().expect("spanned run");
        let bytes_per_host = report.net.per_mh_bytes.iter().sum::<u64>() as f64 / n as f64;
        merged.merge(&spans);
        throughputs.push((n, p.events_per_sec()));

        // TP piggyback-codec comparison over a short fixed window, the
        // same for every N. Two reasons: (a) TP's dense merge is O(n) per
        // receive, so the comparison must not run the full horizon at
        // large N; (b) dependency vectors saturate epidemically — the
        // number of distinct entries roughly doubles per receive — so a
        // window that grows with the run would measure the saturated
        // steady state at small N and the sparse transient at large N.
        // A fixed window keeps messages/host constant across N and the
        // bytes/host comparison meaningful (dense bytes/msg is exactly
        // 2n integers regardless of the window).
        let pb_horizon = horizon.min(20.0);
        let tp = tp_codec_stats(opts, n, n_mss, pb_horizon);
        table.push_row(vec![
            n.to_string(),
            n_mss.to_string(),
            report.events.to_string(),
            format!("{bytes_per_host:.0}"),
            format!("{:.0}", p.events_per_sec()),
            format!("{:.0}", tp[0].bytes_per_msg),
            format!("{:.0}", tp[1].bytes_per_msg),
        ]);
        points.push(Json::Obj(vec![
            ("n_mh".into(), Json::uint(n)),
            ("n_mss".into(), Json::uint(n_mss)),
            ("events".into(), Json::uint(report.events)),
            ("n_tot".into(), Json::uint(report.n_tot())),
            ("msgs_sent".into(), Json::uint(report.msgs_sent)),
            ("bytes_per_host".into(), Json::Num(bytes_per_host)),
            (
                "tp_piggyback".into(),
                Json::Arr(tp.iter().map(TpCodecStats::to_json).collect()),
            ),
            ("spans".into(), spans.deterministic_json()),
            (
                "timing".into(),
                Json::Obj(vec![
                    ("wall_ms".into(), Json::Num(wall_ms)),
                    ("events_per_sec".into(), Json::Num(p.events_per_sec())),
                    ("wall_ns".into(), Json::uint(p.wall_ns)),
                ]),
            ),
        ]));
    }
    emit(opts, &table);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_SCALE_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("protocol".into(), Json::str(proto.name())),
        ("base_seed".into(), Json::uint(opts.seed)),
        ("horizon".into(), Json::Num(horizon)),
        ("mss_ratio".into(), Json::uint(opts.mss_ratio)),
        ("points".into(), Json::Arr(points)),
        ("spans".into(), merged.deterministic_json()),
        (
            "timing".into(),
            Json::Obj(vec![("spans".into(), merged.timing_json())]),
        ),
    ]);
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("BENCH_scale.json"));
    match artifact::write(&path, &doc) {
        Ok(()) => eprintln!("scale artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    if opts.check_regression {
        check_scale_regression(&throughputs);
    }
}

/// Fails the process when dispatch throughput collapses with N — the
/// guard against reintroducing an O(total-hosts) scan on a hot path.
/// Tolerates up to 5x degradation between the smallest and largest
/// population; a linear-in-N per-event cost blows far past that.
fn check_scale_regression(throughputs: &[(u64, f64)]) {
    let Some((&(n_small, eps_small), &(n_large, eps_large))) =
        throughputs.first().zip(throughputs.last())
    else {
        return;
    };
    if n_small == n_large {
        eprintln!("scale: --check-regression needs at least two distinct N");
        return;
    }
    let ratio = eps_small / eps_large.max(1e-9);
    if ratio > 5.0 {
        eprintln!(
            "scale REGRESSION: events/sec fell {ratio:.1}x from N={n_small} \
             ({eps_small:.0}/s) to N={n_large} ({eps_large:.0}/s); budget is 5x"
        );
        std::process::exit(1);
    }
    eprintln!(
        "scale regression check: N={n_small} -> N={n_large} throughput ratio \
         {ratio:.2}x (budget 5x) — ok"
    );
}

/// One TP codec measurement at a scale point.
struct TpCodecStats {
    codec: &'static str,
    horizon: f64,
    msgs_sent: u64,
    pb_bytes: u64,
    bytes_per_host: f64,
    bytes_per_msg: f64,
}

impl TpCodecStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("codec".into(), Json::str(self.codec)),
            ("horizon".into(), Json::Num(self.horizon)),
            ("msgs_sent".into(), Json::uint(self.msgs_sent)),
            ("pb_bytes".into(), Json::uint(self.pb_bytes)),
            ("pb_bytes_per_host".into(), Json::Num(self.bytes_per_host)),
            ("pb_bytes_per_msg".into(), Json::Num(self.bytes_per_msg)),
        ])
    }
}

/// Runs TP once per piggyback codec (dense first, then RLE) and returns
/// the modelled control-byte cost of each. The two runs share the seed and
/// differ only in wire coding, so message counts match exactly.
fn tp_codec_stats(opts: &Opts, n: u64, n_mss: u64, horizon: f64) -> [TpCodecStats; 2] {
    [PbCodec::Dense, PbCodec::Rle].map(|codec| {
        let mut cfg = SimConfig {
            protocol: ProtocolChoice::Cic(CicKind::Tp),
            horizon,
            seed: opts.seed,
            pb_codec: codec,
            ..SimConfig::default()
        };
        cfg.n_mhs = n as usize;
        cfg.n_mss = n_mss as usize;
        eprintln!("scale: TP/{} at n_mh={n}, horizon={horizon}...", codec.name());
        let report = Simulation::run(cfg);
        let pb = report.net.piggyback_bytes;
        TpCodecStats {
            codec: codec.name(),
            horizon,
            msgs_sent: report.msgs_sent,
            pb_bytes: pb,
            bytes_per_host: pb as f64 / n as f64,
            bytes_per_msg: pb as f64 / report.msgs_sent.max(1) as f64,
        }
    })
}

/// One figure's entry of the bench artifact: the full `mck.figure/v1`
/// result, the figure's total wall time, and a per-protocol profiled run at
/// the figure's middle `T_switch` point (wall clock, dispatch throughput,
/// `N_tot` of that single run).
fn figure_entry(opts: &Opts, spec: &FigureSpec, res: &FigureResult, wall_ms: f64) -> Json {
    let t_switch = spec.t_switch_values[spec.t_switch_values.len() / 2];
    let timings: Vec<Json> = spec
        .protocols
        .iter()
        .map(|&proto| {
            let cfg = SimConfig::paper(
                ProtocolChoice::Cic(proto),
                t_switch,
                spec.p_switch,
                spec.heterogeneity,
            );
            let report = Simulation::run_with(
                cfg,
                Instrumentation {
                    profile: true,
                    ..Instrumentation::off()
                },
            );
            let p = report.profile.as_ref().expect("profiled run");
            Json::Obj(vec![
                ("protocol".into(), Json::str(proto.name())),
                ("t_switch".into(), Json::Num(t_switch)),
                ("n_tot".into(), Json::uint(report.n_tot())),
                ("events".into(), Json::uint(report.events)),
                ("wall_ms".into(), Json::Num(p.wall_ns as f64 / 1e6)),
                ("events_per_sec".into(), Json::Num(p.events_per_sec())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("id".into(), Json::uint(spec.id as u64)),
        ("caption".into(), Json::str(spec.caption())),
        ("wall_ms".into(), Json::Num(wall_ms)),
        ("result".into(), artifact::figure_artifact(res, opts.seed, opts.reps)),
        ("timings".into(), Json::Arr(timings)),
    ])
}

fn print_claims(opts: &Opts) {
    eprintln!("running figures 1, 2, 5, 6 for the claim checks...");
    let figs: Vec<_> = [1, 2, 5, 6]
        .iter()
        .map(|&n| run_figure(&figure(n), opts.seed, opts.reps))
        .collect();
    let mut t = Table::new(vec!["claim", "paper statement", "measured", "holds"]);
    for c in claims(&figs) {
        t.push_row(vec![
            c.id.to_string(),
            c.paper.to_string(),
            c.measured,
            if c.holds { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("In-text claims");
    emit(opts, &t);
}

fn ablation(opts: &Opts) {
    eprintln!("running checkpoint-duration ablation (claim C4)...");
    let rows = ablation_ckpt_time(opts.seed, opts.reps, &[0.0, 0.1, 0.5, 1.0]);
    let mut t = Table::new(vec!["ckpt duration", "TP", "BCS", "QBC"]);
    for (d, per_proto) in rows {
        let mut row = vec![format!("{d}")];
        for (_, e) in per_proto {
            row.push(fmt_estimate(e.mean, e.ci95));
        }
        t.push_row(row);
    }
    println!("Ablation C4: N_tot vs checkpoint duration (T_switch=1000, P_switch=0.8)");
    emit(opts, &t);
}

fn control_bytes(opts: &Opts) {
    eprintln!("running control-byte scalability sweep (extension E1)...");
    let rows = ext_control_bytes(opts.seed, opts.reps.min(3), &[5, 10, 20, 40]);
    let mut t = Table::new(vec!["hosts", "TP B/msg", "BCS B/msg", "QBC B/msg"]);
    for (n, per_proto) in rows {
        let mut row = vec![n.to_string()];
        for (_, bytes) in per_proto {
            row.push(format!("{bytes:.1}"));
        }
        t.push_row(row);
    }
    println!("Extension E1: piggybacked control bytes per message vs number of hosts");
    emit(opts, &t);
}

fn classes(opts: &Opts) {
    eprintln!("running protocol-class comparison (extension E3)...");
    let rows = ext_classes(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
        "protocol",
        "N_tot",
        "ctl msgs",
        "searches",
        "piggyback B",
        "blocked sends",
    ]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.0}", r.n_tot),
            format!("{:.0}", r.control_msgs),
            format!("{:.0}", r.searches),
            format!("{:.0}", r.piggyback_bytes),
            format!("{:.0}", r.blocked_sends),
        ]);
    }
    println!("Extension E3: protocol classes (T_switch=1000, P_switch=0.8, rounds every 100)");
    emit(opts, &t);
}

fn rollback(opts: &Opts) {
    eprintln!("running rollback analysis (extension E2, paper future work)...");
    let rows = ext_rollback(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
        "protocol",
        "mean undone (t.u.)",
        "mean max undone",
        "ckpts discarded",
        "worst",
    ]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.1}", r.mean_total_undone),
            format!("{:.1}", r.mean_max_undone),
            format!("{:.1}", r.mean_ckpts_undone),
            format!("{:.1}", r.worst_total_undone),
        ]);
    }
    println!("Extension E2: rollback after a single-host failure (horizon 2000)");
    emit(opts, &t);
}

fn logging_rollback(opts: &Opts) {
    eprintln!("running replay-recovery analysis (extension E8, pessimistic logging)...");
    let rows = ext_rollback_logging(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
        "protocol",
        "undone w/o log",
        "undone w/ log",
        "replayed (t.u.)",
        "replayed msgs",
        "log peak (KiB)",
        "log writes (KiB)",
    ]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.1}", r.mean_undone_off),
            format!("{:.1}", r.mean_undone_logged),
            format!("{:.1}", r.mean_replayed_time),
            format!("{:.1}", r.mean_replayed_receives),
            format!("{:.1}", r.mean_log_peak_bytes / 1024.0),
            format!("{:.1}", r.mean_stable_write_bytes / 1024.0),
        ]);
    }
    println!("Extension E8: undone work with vs. without pessimistic message logging (horizon 2000)");
    emit(opts, &t);
}

fn storage(opts: &Opts) {
    eprintln!("running stable-storage occupancy analysis (extension E4)...");
    let rows = ext_storage(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec!["protocol", "ckpts taken", "mean retained", "max retained"]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.0}", r.taken),
            format!("{:.1}", r.mean_retained),
            format!("{:.0}", r.max_retained),
        ]);
    }
    println!("Extension E4: stable-storage occupancy after GC (T_switch=300, P_switch=0.8)");
    emit(opts, &t);
}

fn recovery_time_cmd(opts: &Opts) {
    eprintln!("running recovery-time analysis (extension E5)...");
    let rows = ext_recovery_time(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
        "protocol",
        "mean waves",
        "max waves",
        "latency (t.u.)",
        "ctl msgs",
        "MiB fetched",
    ]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.2}", r.mean_waves),
            r.max_waves.to_string(),
            format!("{:.4}", r.mean_latency),
            format!("{:.0}", r.mean_msgs),
            format!("{:.1}", r.mean_bytes / (1 << 20) as f64),
        ]);
    }
    println!("Extension E5: recovery-line collection cost (T_switch=500, P_switch=0.8)");
    emit(opts, &t);
}

fn topologies(opts: &Opts) {
    eprintln!("running cell-topology ablation (extension E6)...");
    let rows = ext_topologies(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
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
        t.push_row(row);
    }
    println!("Extension E6: N_tot per cell-adjacency graph (T_switch=500, P_switch=0.8)");
    emit(opts, &t);
}

fn contention(opts: &Opts) {
    eprintln!("running wireless channel-contention analysis (extension E7)...");
    let rows = ext_contention(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
        "protocol",
        "N_tot",
        "channel util",
        "queueing (t.u.)",
        "ckpt MiB",
    ]);
    for r in rows {
        t.push_row(vec![
            r.protocol,
            format!("{:.0}", r.n_tot),
            format!("{:.1}%", r.utilization * 100.0),
            format!("{:.1}", r.queueing_delay),
            format!("{:.1}", r.ckpt_mib),
        ]);
    }
    println!("Extension E7: channel contention at 50 kB/t.u. (T_switch=1000, P_switch=0.8)");
    emit(opts, &t);
}

fn log_size(opts: &Opts) {
    eprintln!("running log-size sweep (pessimistic logging, peak live log per protocol)...");
    let rows = ext_log_size(opts.seed, opts.reps.min(3), &T_SWITCH_SWEEP);
    let mut t = Table::new(vec![
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
        t.push_row(cells);
    }
    println!("Log-size figures: peak live MSS log bytes vs T_switch (P_switch=0.8, horizon 4000)");
    emit(opts, &t);
    let path = opts.out_dir.join("BENCH_log_size.json");
    let art = artifact::log_size_artifact(opts.seed, opts.reps.min(3), &rows);
    match artifact::write(&path, &art) {
        Ok(()) => eprintln!("log-size artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Extension E10: live failure injection. Crashes strike mid-run per the
/// seeded MTBF, recovery executes inside the simulation (recovery-line
/// query, backbone fetches, replay), and the figure plots per-protocol
/// wall-clock downtime and availability over `T_switch` × MTBF for
/// pessimistic vs. optimistic logging.
fn recovery_cmd(opts: &Opts) {
    eprintln!("running live failure-injection analysis (extension E10)...");
    let ts = [200.0, 500.0, 1000.0, 2000.0];
    let rows = ext_recovery(opts.seed, opts.reps.min(3), &ts);
    let mut t = Table::new(vec![
        "T_switch",
        "MTBF",
        "protocol",
        "crashes",
        "downtime pess|opt",
        "avail pess|opt",
        "undone pess|opt",
        "unstable lost",
    ]);
    for row in &rows {
        for (name, pess, opt) in &row.series {
            t.push_row(vec![
                format!("{:.0}", row.t_switch),
                format!("{:.0}", row.mtbf),
                name.clone(),
                format!("{:.1}", pess.crashes),
                format!("{:.3}|{:.3}", pess.mean_downtime, opt.mean_downtime),
                format!("{:.4}|{:.4}", pess.availability, opt.availability),
                format!("{:.1}|{:.1}", pess.undone_time, opt.undone_time),
                format!("{:.1}", opt.unstable_lost),
            ]);
        }
    }
    println!("Extension E10: downtime and availability under live crashes (horizon 2000)");
    emit(opts, &t);
    let path = opts.out_dir.join("BENCH_recovery.json");
    let art = artifact::recovery_artifact(opts.seed, opts.reps.min(3), &rows);
    match artifact::write(&path, &art) {
        Ok(()) => eprintln!("recovery artifact -> {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn scenarios_cmd(opts: &Opts) {
    eprintln!("running mobility-scenario comparison (extension E9)...");
    let rows = ext_scenarios(opts.seed, opts.reps.min(3));
    let mut t = Table::new(vec![
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
        t.push_row(cells);
    }
    println!("Extension E9: N_tot under paper vs. Markov mobility (grid 2x3, T_switch=500)");
    emit(opts, &t);
}

/// Runs the full `T_switch` sweep per CIC protocol inside each scenario
/// file's environment, and writes one `mck.sweep/v1` artifact per
/// protocol (`SWEEP_<scenario>_<protocol>.json`).
fn scenario_sweeps(opts: &Opts, files: &[&str]) {
    for path in files {
        let sc = load_scenario(path);
        eprintln!("scenario '{}' sweep ({} reps/point)...", sc.name, opts.reps);
        for proto in cic::CicKind::PAPER {
            let mut cfg = SimConfig::default();
            cfg.apply_scenario(&sc);
            cfg.protocol = ProtocolChoice::Cic(proto);
            if let Err(e) = cfg.check() {
                eprintln!("scenario {path}: {e}");
                std::process::exit(2);
            }
            let t0 = Instant::now();
            let points = run_sweep(&cfg, &T_SWITCH_SWEEP, opts.seed, opts.reps);
            let timing = artifact::SweepTiming {
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                runs: (T_SWITCH_SWEEP.len() * opts.reps) as u64,
                jobs: mck::runner::jobs(),
            };
            let mut t = Table::new(vec!["T_switch", "N_tot", "basic", "forced"]);
            for (ts, s) in &points {
                t.push_row(vec![
                    format!("{ts:.0}"),
                    fmt_estimate(s.n_tot.mean, s.n_tot.ci95),
                    fmt_estimate(s.n_basic.mean, s.n_basic.ci95),
                    fmt_estimate(s.n_forced.mean, s.n_forced.ci95),
                ]);
            }
            println!("scenario '{}': {} sweep", sc.name, proto.name());
            emit(opts, &t);
            let out = opts
                .out_dir
                .join(format!("SWEEP_{}_{}.json", sc.name, proto.name()));
            let art = artifact::sweep_artifact(&cfg, opts.seed, opts.reps, &points, Some(timing));
            match artifact::write(&out, &art) {
                Ok(()) => eprintln!("sweep artifact -> {}", out.display()),
                Err(e) => eprintln!("failed to write {}: {e}", out.display()),
            }
        }
    }
}
