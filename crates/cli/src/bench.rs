//! The benchmark commands: `sweep-bench`, `serve-bench`, `mc-bench`,
//! `par-bench` and `scale`. Each writes one `BENCH_<x>.json` artifact into
//! `--out-dir` (default the working directory) whose host-dependent
//! quantities live under `timing` members, so `mck inspect --deterministic`
//! of two same-seed runs is byte-identical. Progress goes to stderr; a
//! failed gate prints the table and artifact line, then exits non-zero.

use std::time::Instant;

use mck::artifact;
use mck::experiments::{figure, run_figures, FigureSpec};
use mck::prelude::*;
use mck::table::Table;
use simkit::json::Json;
use simkit::span::SpanSnapshot;

use crate::args::{ArgError, Args};
use crate::{gated, parallel_of, render, write_artifact};

/// Writes a bench artifact as `--out-dir`/`name`.
fn write_bench(args: &Args, name: &str, what: &str, doc: &Json) -> Result<String, ArgError> {
    write_artifact(args.get("out-dir").unwrap_or("."), name, what, doc)
}

/// `--n-list a,b,c`: the host populations `scale` and `par-bench` sweep.
fn n_list_of(args: &Args) -> Result<Vec<u64>, ArgError> {
    args.get_list("n-list", &[10, 100, 1000, 10_000])
}

/// `--mss-ratio R`: hosts per cell, so a population of `n` runs over
/// `max(2, n / R)` cells.
fn mss_ratio_of(args: &Args) -> Result<u64, ArgError> {
    match args.get_u64("mss-ratio", 32)? {
        0 => Err(ArgError("--mss-ratio must be positive".into())),
        r => Ok(r),
    }
}

/// `mck sweep-bench`: times the full figure grid (`fig all`: every figure
/// × `T_switch` × protocol × replication as one flattened job list) at 1
/// worker and at full parallelism (`--jobs`, default every core), and
/// writes a `mck.bench_sweep/v1` artifact with wall-clock, runs-per-second,
/// the jobs-1-vs-N speedup, and a per-protocol profiled single run.
pub fn sweep_bench(args: &Args) -> Result<String, ArgError> {
    let reps = args.get_usize("reps", 5)?;
    let seed = args.get_u64("seed", 1)?;
    let jobs_flag = args.get_usize("jobs", 0)?;
    let host = simkit::pool::default_workers();
    let parallel = if jobs_flag == 0 { host } else { jobs_flag };
    let settings: Vec<usize> = if parallel > 1 { vec![1, parallel] } else { vec![1] };
    let specs: Vec<FigureSpec> = (1..=6).map(figure).collect();
    let total_runs: u64 = specs
        .iter()
        .map(|s| (s.t_switch_values.len() * s.protocols.len() * reps) as u64)
        .sum();

    let mut sweeps: Vec<Json> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    for &n in &settings {
        set_jobs(n);
        eprintln!("sweep-bench: figure grid ({total_runs} runs, {n} job(s))...");
        let t0 = Instant::now();
        let results = run_figures(&specs, seed, reps);
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
    set_jobs(jobs_flag);

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
        ("base_seed".into(), Json::uint(seed)),
        ("replications".into(), Json::uint(reps as u64)),
        ("sweeps".into(), Json::Arr(sweeps)),
        ("protocols".into(), Json::Arr(protocols)),
    ];
    if settings.len() > 1 {
        members.push(("speedup".into(), Json::Num(speedup)));
    }
    write_bench(args, "BENCH_sweep.json", "sweep-bench", &Json::Obj(members))
}

/// `mck serve-bench`: boots the `mck serve` stack in-process on an
/// ephemeral port with a fresh cache, issues one cold `POST /run` on the
/// paper's default configuration and `--warm N` (default 20) warm repeats,
/// and writes a `mck.serve_bench/v1` artifact. The warm path must (a)
/// return bytes identical to the cold response and (b) execute zero
/// simulation events — both asserted here against the service counters,
/// not inferred. `--min-speedup X` fails when cold/warm-min falls below X
/// (the CI gate for "a hit never recomputes").
pub fn serve_bench(args: &Args) -> Result<String, ArgError> {
    use servekit::http::{client_request, header_value};
    use servekit::server::{ServeOptions, Server};
    use std::sync::atomic::Ordering;

    let warm = args.get_u64("warm", 20)?;
    if warm == 0 {
        return Err(ArgError("--warm must be positive".into()));
    }
    let min_speedup = match args.get("min-speedup") {
        None => None,
        Some(_) => Some(args.get_f64("min-speedup", 0.0)?),
    };
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
    let mut warm_ms: Vec<f64> = Vec::with_capacity(warm as usize);
    let mut byte_identical = true;
    for _ in 0..warm {
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
        ("warm_requests".into(), Json::uint(warm)),
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
    let out = write_bench(args, "BENCH_serve.json", "serve-bench", &doc)?;
    let verdict = match min_speedup {
        Some(min) if speedup < min => Err(ArgError(format!(
            "serve-bench REGRESSION: speedup {speedup:.0}x below the {min:.0}x floor"
        ))),
        Some(min) => {
            eprintln!("serve-bench speedup check: {speedup:.0}x >= {min:.0}x — ok");
            Ok(())
        }
        None => Ok(()),
    };
    gated(out, verdict)
}

/// `mck mc-bench`: exhaustive exploration of a grid of protocols and world
/// sizes, reporting states explored, dedup hit-rate, and states/sec as a
/// `mck.bench_mc/v1` artifact. Doubles as a safety gate: every
/// configuration must check clean and run its frontier dry within the
/// state budget, so a protocol regression that introduces an orphan or
/// Z-cycle on *any* schedule of these worlds fails the bench, not just the
/// one seeded trajectory the unit tests sample.
pub fn mc_bench(args: &Args) -> Result<String, ArgError> {
    let seed = args.get_u64("seed", 1)?;
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
                seed,
                ..mcheck::CheckConfig::default()
            };
            let t0 = Instant::now();
            let out = mcheck::check(&cfg);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(cx) = &out.counterexample {
                return Err(ArgError(format!(
                    "mc-bench: {} {mh}x{mss} h={horizon} VIOLATION: {}",
                    proto.name(),
                    cx.violation
                )));
            }
            if !out.complete {
                return Err(ArgError(format!(
                    "mc-bench: {} {mh}x{mss} h={horizon} blew the {}-state budget",
                    proto.name(),
                    cfg.max_states
                )));
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
                ("seed".into(), Json::uint(seed)),
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
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_MC_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("base_seed".into(), Json::uint(seed)),
        ("points".into(), Json::Arr(points)),
    ]);
    Ok(render(args, &table, "") + &write_bench(args, "BENCH_mc.json", "mc-bench", &doc)?)
}

/// `mck par-bench`: the serial heap scheduler against the conservative
/// cell-partitioned parallel backend (`--par-workers N`, default 4) at each
/// `--n-list` population. Both runs must produce byte-identical
/// `mck.run/v1` artifacts (the backend's exactness contract — the bench
/// aborts on any divergence); the `mck.bench_par/v1` artifact records the
/// wall-clock comparison with every host-dependent quantity quarantined
/// under `timing`. `--check-regression` fails when the speedup at the
/// largest N falls below `--min-speedup` (default 2.0).
pub fn par_bench(args: &Args) -> Result<String, ArgError> {
    let seed = args.get_u64("seed", 1)?;
    let horizon = args.get_f64("horizon", 25.0)?;
    let mss_ratio = mss_ratio_of(args)?;
    let workers = parallel_of(args)?.unwrap_or(4);
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
    for n in n_list_of(args)? {
        let n_mss = (n / mss_ratio).max(2);
        let cfg = SimConfig {
            protocol: ProtocolChoice::Cic(proto),
            n_mhs: n as usize,
            n_mss: n_mss as usize,
            horizon,
            seed,
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
            "par-bench: serial and parallel artifacts diverged at n_mh={n} (seed {seed})"
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
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_PAR_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("protocol".into(), Json::str(proto.name())),
        ("base_seed".into(), Json::uint(seed)),
        ("horizon".into(), Json::Num(horizon)),
        ("mss_ratio".into(), Json::uint(mss_ratio)),
        ("workers".into(), Json::uint(workers as u64)),
        ("byte_identical".into(), Json::Bool(true)),
        ("points".into(), Json::Arr(points)),
        (
            "timing".into(),
            Json::Obj(vec![("cores".into(), Json::uint(cores as u64))]),
        ),
    ]);
    let out = render(args, &table, "") + &write_bench(args, "BENCH_par.json", "par-bench", &doc)?;
    let verdict = if args.flag("check-regression") {
        let min = args.get_f64("min-speedup", 2.0)?;
        check_par_regression(gate_point, workers, cores, min)
    } else {
        Ok(())
    };
    gated(out, verdict)
}

/// Enforces the parallel-backend speedup floor at the largest measured N.
/// The floor only makes sense when the host can physically achieve it: a
/// 4-worker run on a single core can never beat serial, so the check is
/// reported and skipped (not failed) when `min(workers, cores)` is below
/// the floor.
fn check_par_regression(
    point: Option<(u64, f64)>,
    workers: usize,
    cores: usize,
    min: f64,
) -> Result<(), ArgError> {
    let Some((n, speedup)) = point else {
        eprintln!("par-bench: --check-regression needs at least one point");
        return Ok(());
    };
    if (workers.min(cores) as f64) < min {
        eprintln!(
            "par-bench regression check SKIPPED: host has {cores} core(s) for {workers} \
             worker(s); a {min:.1}x speedup is not achievable here (measured {speedup:.2}x)"
        );
        return Ok(());
    }
    if speedup < min {
        return Err(ArgError(format!(
            "par-bench REGRESSION: parallel speedup at N={n} is {speedup:.2}x; floor is {min:.1}x"
        )));
    }
    eprintln!("par-bench regression check: {speedup:.2}x at N={n} (floor {min:.1}x) — ok");
    Ok(())
}

/// `mck scale`: one spanned + profiled run per host population, sweeping
/// `n_mh` over `--n-list` (with `n_mss = max(2, n_mh / mss_ratio)`) and
/// recording how event throughput, per-host wireless bytes, and the span
/// breakdown move with N. Each point also runs TP under both piggyback
/// codecs at a capped horizon and records the per-host / per-message
/// control-byte cost, so the artifact demonstrates the dense-O(n) vs
/// RLE-O(runs) wire-size split. Writes a `mck.bench_scale/v1` artifact.
/// With `--check-regression`, fails when events/sec at the largest N
/// degrades more than 5x below the smallest N (the O(n)-scan tripwire CI
/// runs).
pub fn scale(args: &Args) -> Result<String, ArgError> {
    let seed = args.get_u64("seed", 1)?;
    let horizon = args.get_f64("horizon", 500.0)?;
    let mss_ratio = mss_ratio_of(args)?;
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
    for n in n_list_of(args)? {
        let n_mss = (n / mss_ratio).max(2);
        let mut cfg = SimConfig {
            protocol: ProtocolChoice::Cic(proto),
            horizon,
            seed,
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
        let tp = tp_codec_stats(seed, n, n_mss, pb_horizon);
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
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(artifact::BENCH_SCALE_SCHEMA)),
        ("version".into(), Json::str(artifact::version())),
        ("protocol".into(), Json::str(proto.name())),
        ("base_seed".into(), Json::uint(seed)),
        ("horizon".into(), Json::Num(horizon)),
        ("mss_ratio".into(), Json::uint(mss_ratio)),
        ("points".into(), Json::Arr(points)),
        ("spans".into(), merged.deterministic_json()),
        (
            "timing".into(),
            Json::Obj(vec![("spans".into(), merged.timing_json())]),
        ),
    ]);
    let out = render(args, &table, "") + &write_bench(args, "BENCH_scale.json", "scale", &doc)?;
    let verdict = if args.flag("check-regression") {
        check_scale_regression(&throughputs)
    } else {
        Ok(())
    };
    gated(out, verdict)
}

/// Fails when dispatch throughput collapses with N — the guard against
/// reintroducing an O(total-hosts) scan on a hot path. Tolerates up to 5x
/// degradation between the smallest and largest population; a
/// linear-in-N per-event cost blows far past that.
fn check_scale_regression(throughputs: &[(u64, f64)]) -> Result<(), ArgError> {
    let Some((&(n_small, eps_small), &(n_large, eps_large))) =
        throughputs.first().zip(throughputs.last())
    else {
        return Ok(());
    };
    if n_small == n_large {
        eprintln!("scale: --check-regression needs at least two distinct N");
        return Ok(());
    }
    let ratio = eps_small / eps_large.max(1e-9);
    if ratio > 5.0 {
        return Err(ArgError(format!(
            "scale REGRESSION: events/sec fell {ratio:.1}x from N={n_small} \
             ({eps_small:.0}/s) to N={n_large} ({eps_large:.0}/s); budget is 5x"
        )));
    }
    eprintln!(
        "scale regression check: N={n_small} -> N={n_large} throughput ratio \
         {ratio:.2}x (budget 5x) — ok"
    );
    Ok(())
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
fn tp_codec_stats(seed: u64, n: u64, n_mss: u64, horizon: f64) -> [TpCodecStats; 2] {
    [PbCodec::Dense, PbCodec::Rle].map(|codec| {
        let mut cfg = SimConfig {
            protocol: ProtocolChoice::Cic(CicKind::Tp),
            horizon,
            seed,
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
