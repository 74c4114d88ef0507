//! Machine-readable experiment artifacts.
//!
//! Every artifact is a self-describing JSON document: a `schema` tag, the
//! `mck` version that produced it, the full configuration (including seeds),
//! and the results — metric snapshots for single runs, per-point means with
//! 95 % confidence intervals for sweeps and figures. `mck inspect` and
//! `scripts/ci.sh` consume these; so can any external plotting tool.
//!
//! Schemas (the leading path segment identifies the document kind):
//!
//! * `mck.run/v1` — one simulation run ([`run_artifact`]);
//! * `mck.sweep/v1` — a `T_switch` sweep of one protocol
//!   ([`sweep_artifact`]);
//! * `mck.figure/v1` — one of the paper's figures ([`figure_artifact`]);
//! * `mck.bench_sweep/v1` — the parallel-sweep throughput benchmark
//!   (written by `mck sweep-bench`): wall-clock and runs-per-second of
//!   the full figure grid at each worker count, with per-protocol timings;
//! * `mck.rollback_logging/v1` — undone work with vs. without pessimistic
//!   message logging, per protocol ([`rollback_logging_artifact`]);
//! * `mck.log_size/v1` — live log occupancy per protocol across a
//!   `T_switch` sweep under pessimistic logging ([`log_size_artifact`]);
//! * `mck.recovery/v1` — live fault injection: per-protocol downtime,
//!   availability and undone/replayed work over a `(T_switch, MTBF)` grid
//!   for both logging modes ([`recovery_artifact`]);
//! * `mck.profile/v1` — span-profiler attribution of one run
//!   ([`profile_artifact`], written by `mck profile`);
//! * `mck.bench_scale/v1` — events/sec and bytes/host across host counts
//!   (written by `mck scale`);
//! * `mck.mc/v1` — one exhaustive model-checking run (written by
//!   `mck check --out`): exploration counters plus, on violation, the
//!   minimal counterexample schedule, replayable via `mck check --replay`;
//! * `mck.bench_mc/v1` — model-checker throughput across configurations
//!   (written by `mck mc-bench`).
//!
//! Scenario files (`mck.scenario/v1`, see the `scenario` crate) share the
//! self-describing envelope, so `mck inspect` understands them too.
//!
//! **Artifact separation rule.** Host wall-clock data (wall times,
//! events/sec, dispatch quantiles, span wall columns) appears *only* inside
//! members named `timing`; every other member is a pure function of the
//! configuration and seed. Tooling that checks determinism diffs
//! [`deterministic_view`] (the document minus its `timing` members) instead
//! of maintaining per-schema field strip-lists.

use std::io::Write as _;
use std::path::Path;

use simkit::json::{self, Json};
use simkit::stats::Estimate;

use crate::config::SimConfig;
use crate::experiments::FigureResult;
use crate::report::RunReport;
use crate::runner::PointSummary;

/// Schema tag of single-run artifacts.
pub const RUN_SCHEMA: &str = "mck.run/v1";
/// Schema tag of sweep artifacts.
pub const SWEEP_SCHEMA: &str = "mck.sweep/v1";
/// Schema tag of figure artifacts.
pub const FIGURE_SCHEMA: &str = "mck.figure/v1";
/// Schema tag of the parallel-sweep throughput artifact
/// (`mck sweep-bench`, conventionally `BENCH_sweep.json`).
pub const BENCH_SWEEP_SCHEMA: &str = "mck.bench_sweep/v1";
/// Schema tag of the logging-vs-checkpoint-only rollback artifact
/// (`mck rollback --logging pessimistic`).
pub const ROLLBACK_LOGGING_SCHEMA: &str = "mck.rollback_logging/v1";
/// Schema tag of the log-size sweep artifact
/// (`mck log-size`, conventionally `BENCH_log_size.json`).
pub const LOG_SIZE_SCHEMA: &str = "mck.log_size/v1";
/// Schema tag of the fault-injection recovery artifact
/// (`mck crash`, conventionally `RECOVERY.json`).
pub const RECOVERY_SCHEMA: &str = "mck.recovery/v1";
/// Schema tag of the span-profile artifact (`mck profile`, conventionally
/// `PROFILE.json`).
pub const PROFILE_SCHEMA: &str = "mck.profile/v1";
/// Schema tag of the host-count scaling benchmark (`mck scale`,
/// conventionally `BENCH_scale.json`).
pub const BENCH_SCALE_SCHEMA: &str = "mck.bench_scale/v1";
/// Schema tag of the content-addressed result cache's index file
/// (`servekit`; `<cache-dir>/index.json`).
pub const CACHE_INDEX_SCHEMA: &str = "mck.cache_index/v1";
/// Schema tag of the cold-vs-warm serving benchmark
/// (`mck serve-bench`, conventionally `BENCH_serve.json`).
pub const SERVE_BENCH_SCHEMA: &str = "mck.serve_bench/v1";
/// Schema tag of a model-checking run (`mck check`): exploration summary
/// and, on violation, the minimal counterexample schedule. The document is
/// self-contained — its `params` rebuild the exact root world, so
/// `mck check --replay FILE` reproduces the violation deterministically.
pub const MC_SCHEMA: &str = "mck.mc/v1";
/// Schema tag of the model-checking throughput benchmark
/// (`mck mc-bench`, conventionally `BENCH_mc.json`).
pub const BENCH_MC_SCHEMA: &str = "mck.bench_mc/v1";
/// Schema tag of the serial-vs-parallel backend benchmark
/// (`mck par-bench`, conventionally `BENCH_par.json`): per-N wall
/// clock and events/sec for the heap scheduler against the conservative
/// cell-partitioned backend, plus the byte-identity verdict.
pub const BENCH_PAR_SCHEMA: &str = "mck.bench_par/v1";

/// The simulator version stamped into every artifact.
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

fn header(schema: &str) -> Vec<(String, Json)> {
    vec![
        ("schema".into(), Json::str(schema)),
        ("version".into(), Json::str(version())),
    ]
}

/// Serializes the full configuration of a run.
pub fn config_json(cfg: &SimConfig) -> Json {
    let mut members = vec![("protocol".into(), Json::str(cfg.protocol.name()))];
    // Only the coordinated baselines run rounds; the CIC protocols' config
    // stays as it always was.
    if let Some(interval) = cfg.protocol.interval() {
        members.push(("round_interval".into(), Json::Num(interval)));
    }
    members.extend([
        ("n_mhs".into(), Json::uint(cfg.n_mhs as u64)),
        ("n_mss".into(), Json::uint(cfg.n_mss as u64)),
        ("p_send".into(), Json::Num(cfg.p_send)),
        ("internal_mean".into(), Json::Num(cfg.internal_mean)),
        ("p_switch".into(), Json::Num(cfg.p_switch)),
        ("t_switch".into(), Json::Num(cfg.t_switch)),
        ("heterogeneity".into(), Json::Num(cfg.heterogeneity)),
        ("fast_factor".into(), Json::Num(cfg.fast_factor)),
        ("disc_divisor".into(), Json::Num(cfg.disc_divisor)),
        ("reconnect_mean".into(), Json::Num(cfg.reconnect_mean)),
        ("wireless_latency".into(), Json::Num(cfg.latencies.wireless)),
        ("wired_latency".into(), Json::Num(cfg.latencies.wired)),
        ("wireless_bandwidth".into(), Json::Num(cfg.wireless_bandwidth)),
        ("ckpt_duration".into(), Json::Num(cfg.ckpt_duration)),
        ("dup_prob".into(), Json::Num(cfg.dup_prob)),
        ("periodic_mean".into(), Json::Num(cfg.periodic_mean)),
        ("payload_bytes".into(), Json::uint(cfg.payload_bytes)),
        ("horizon".into(), Json::Num(cfg.horizon)),
        ("seed".into(), Json::uint(cfg.seed)),
        ("record_trace".into(), Json::Bool(cfg.record_trace)),
        ("logging".into(), Json::str(cfg.logging.name())),
        ("flush_latency".into(), Json::Num(cfg.flush_latency)),
        ("fail_mtbf".into(), Json::Num(cfg.fail_mtbf)),
        ("fail_mss_mtbf".into(), Json::Num(cfg.fail_mss_mtbf)),
        ("topology".into(), cfg.env.topology.to_json()),
        ("mobility".into(), cfg.env.mobility.to_json()),
        ("traffic".into(), cfg.env.traffic.to_json()),
    ]);
    Json::Obj(members)
}

fn estimate_json(e: &Estimate) -> Json {
    Json::Obj(vec![
        ("mean".into(), Json::Num(e.mean)),
        ("ci95".into(), Json::Num(e.ci95)),
        ("n".into(), Json::uint(e.n)),
    ])
}

/// The single-run artifact: configuration, outcome, and metric snapshot.
///
/// Deliberately **fully deterministic**: a run artifact is a pure function
/// of the configuration and seed, so same-seed artifacts are byte-identical
/// whatever instrumentation was attached. Wall-clock data (the engine
/// profile, span timings) goes to the separate `mck.profile/v1` document
/// ([`profile_artifact`]) instead.
pub fn run_artifact(cfg: &SimConfig, report: &RunReport) -> Json {
    let mut members = header(RUN_SCHEMA);
    members.push(("config".into(), config_json(cfg)));
    members.push((
        "outcome".into(),
        Json::Obj(vec![
            ("n_tot".into(), Json::uint(report.n_tot())),
            ("ckpt_cell_switch".into(), Json::uint(report.ckpts.cell_switch)),
            ("ckpt_disconnect".into(), Json::uint(report.ckpts.disconnect)),
            ("ckpt_forced".into(), Json::uint(report.ckpts.forced)),
            ("ckpt_periodic".into(), Json::uint(report.ckpts.periodic)),
            ("ckpt_coordinated".into(), Json::uint(report.ckpts.coordinated)),
            ("replacements".into(), Json::uint(report.replacements)),
            ("handoffs".into(), Json::uint(report.handoffs)),
            ("disconnects".into(), Json::uint(report.disconnects)),
            ("reconnects".into(), Json::uint(report.reconnects)),
            ("msgs_sent".into(), Json::uint(report.msgs_sent)),
            ("msgs_delivered".into(), Json::uint(report.msgs_delivered)),
            ("events".into(), Json::uint(report.events)),
            ("end_time".into(), Json::Num(report.end_time)),
            ("trace_emitted".into(), Json::uint(report.trace_emitted)),
        ]),
    ));
    members.push(("metrics".into(), report.metrics.to_json()));
    Json::Obj(members)
}

/// The span-profile artifact (`mck.profile/v1`): configuration, the
/// deterministic span dimensions (paths, counts, bytes) and metric
/// snapshot, with every host-clock quantity — engine totals, dispatch
/// quantiles, and the span wall-clock column — quarantined under the
/// top-level `timing` member per the artifact separation rule.
pub fn profile_artifact(cfg: &SimConfig, report: &RunReport) -> Json {
    let spans = report.spans.clone().unwrap_or_default();
    let mut members = header(PROFILE_SCHEMA);
    members.push(("config".into(), config_json(cfg)));
    members.push(("events".into(), Json::uint(report.events)));
    members.push(("spans".into(), spans.deterministic_json()));
    members.push(("metrics".into(), report.metrics.to_json()));
    let mut timing: Vec<(String, Json)> = Vec::new();
    if let Some(p) = &report.profile {
        let coverage = if p.wall_ns == 0 {
            0.0
        } else {
            spans.top_level_wall_ns() as f64 / p.wall_ns as f64
        };
        timing.push(("wall_ns".into(), Json::uint(p.wall_ns)));
        timing.push(("events_per_sec".into(), Json::Num(p.events_per_sec())));
        timing.push(("dispatch_p50_ns".into(), Json::Num(p.dispatch_ns.quantile(0.5))));
        timing.push(("dispatch_p99_ns".into(), Json::Num(p.dispatch_ns.quantile(0.99))));
        timing.push(("mean_queue_depth".into(), Json::Num(p.queue_depth.mean())));
        timing.push(("span_coverage".into(), Json::Num(coverage)));
    }
    timing.push(("spans".into(), spans.timing_json()));
    members.push(("timing".into(), Json::Obj(timing)));
    Json::Obj(members)
}

/// The document with every object member named `timing` removed,
/// recursively — the deterministic view the separation rule promises:
/// same-seed artifacts agree byte-for-byte on this view no matter the host.
/// `mck inspect --deterministic` prints it for CI diffs.
pub fn deterministic_view(v: &Json) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(name, _)| name != "timing")
                .map(|(name, val)| (name.clone(), deterministic_view(val)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(deterministic_view).collect()),
        other => other.clone(),
    }
}

/// The rollback-logging artifact: per protocol, mean undone work under
/// checkpoint-only recovery versus replay recovery over the MSS message
/// logs, with the replay and storage costs the logging trades for it.
pub fn rollback_logging_artifact(
    base_seed: u64,
    replications: usize,
    rows: &[crate::failure::LoggingRollbackSummary],
) -> Json {
    let mut members = header(ROLLBACK_LOGGING_SCHEMA);
    members.push(("base_seed".into(), Json::uint(base_seed)));
    members.push(("replications".into(), Json::uint(replications as u64)));
    members.push((
        "protocols".into(),
        Json::Arr(
            rows.iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("protocol".into(), Json::str(&s.protocol)),
                        ("mean_undone_off".into(), Json::Num(s.mean_undone_off)),
                        ("mean_undone_logged".into(), Json::Num(s.mean_undone_logged)),
                        ("worst_undone_logged".into(), Json::Num(s.worst_undone_logged)),
                        ("mean_replayed_time".into(), Json::Num(s.mean_replayed_time)),
                        (
                            "mean_replayed_receives".into(),
                            Json::Num(s.mean_replayed_receives),
                        ),
                        ("mean_log_peak_bytes".into(), Json::Num(s.mean_log_peak_bytes)),
                        (
                            "mean_stable_write_bytes".into(),
                            Json::Num(s.mean_stable_write_bytes),
                        ),
                        ("scenarios".into(), Json::uint(s.scenarios as u64)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// The log-size artifact: per swept `T_switch`, the mean peak and final
/// live log bytes per protocol under pessimistic logging, with append/GC
/// entry counts for context.
pub fn log_size_artifact(
    base_seed: u64,
    replications: usize,
    rows: &[crate::experiments::LogSizeRow],
) -> Json {
    let mut members = header(LOG_SIZE_SCHEMA);
    members.push(("base_seed".into(), Json::uint(base_seed)));
    members.push(("replications".into(), Json::uint(replications as u64)));
    members.push((
        "points".into(),
        Json::Arr(
            rows.iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("t_switch".into(), Json::Num(row.t_switch)),
                        (
                            "series".into(),
                            Json::Obj(
                                row.series
                                    .iter()
                                    .map(|(name, s)| {
                                        (
                                            name.clone(),
                                            Json::Obj(vec![
                                                (
                                                    "mean_peak_bytes".into(),
                                                    Json::Num(s.mean_peak_bytes),
                                                ),
                                                (
                                                    "mean_live_bytes".into(),
                                                    Json::Num(s.mean_live_bytes),
                                                ),
                                                (
                                                    "mean_appended_entries".into(),
                                                    Json::Num(s.mean_appended_entries),
                                                ),
                                                (
                                                    "mean_gc_entries".into(),
                                                    Json::Num(s.mean_gc_entries),
                                                ),
                                            ]),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// The fault-injection artifact: for every `(T_switch, MTBF)` grid cell,
/// the measured downtime, availability and undone/replayed work of each
/// protocol, side by side for pessimistic and optimistic logging.
pub fn recovery_artifact(
    base_seed: u64,
    replications: usize,
    rows: &[crate::experiments::RecoveryRow],
) -> Json {
    use crate::experiments::RecoveryPoint;
    let point_json = |p: &RecoveryPoint| {
        Json::Obj(vec![
            ("crashes".into(), Json::Num(p.crashes)),
            ("mean_downtime".into(), Json::Num(p.mean_downtime)),
            ("availability".into(), Json::Num(p.availability)),
            ("undone_time".into(), Json::Num(p.undone_time)),
            ("replayed_receives".into(), Json::Num(p.replayed_receives)),
            ("unstable_lost".into(), Json::Num(p.unstable_lost)),
        ])
    };
    let mut members = header(RECOVERY_SCHEMA);
    members.push(("base_seed".into(), Json::uint(base_seed)));
    members.push(("replications".into(), Json::uint(replications as u64)));
    members.push((
        "flush_latency".into(),
        Json::Num(crate::experiments::RECOVERY_FLUSH_LATENCY),
    ));
    members.push((
        "points".into(),
        Json::Arr(
            rows.iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("t_switch".into(), Json::Num(row.t_switch)),
                        ("mtbf".into(), Json::Num(row.mtbf)),
                        (
                            "series".into(),
                            Json::Obj(
                                row.series
                                    .iter()
                                    .map(|(name, pess, opt)| {
                                        (
                                            name.clone(),
                                            Json::Obj(vec![
                                                ("pessimistic".into(), point_json(pess)),
                                                ("optimistic".into(), point_json(opt)),
                                            ]),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// Wall-clock timing of one sweep execution, recorded alongside the
/// results so artifacts double as throughput measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTiming {
    /// Total wall-clock time of the sweep in milliseconds.
    pub wall_ms: f64,
    /// Number of simulation runs executed (points × replications).
    pub runs: u64,
    /// Worker count the job pool ran with.
    pub jobs: usize,
}

impl SweepTiming {
    /// Simulation runs completed per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.runs as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// JSON member for embedding in sweep/bench artifacts.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wall_ms".into(), Json::Num(self.wall_ms)),
            ("runs".into(), Json::uint(self.runs)),
            ("runs_per_sec".into(), Json::Num(self.runs_per_sec())),
            ("jobs".into(), Json::uint(self.jobs as u64)),
        ])
    }
}

/// The sweep artifact: one protocol, `N_tot`/basic/forced estimates per
/// swept `T_switch` value, plus (when measured) the sweep's wall-clock
/// timing.
pub fn sweep_artifact(
    cfg: &SimConfig,
    base_seed: u64,
    replications: usize,
    points: &[(f64, PointSummary)],
    timing: Option<SweepTiming>,
) -> Json {
    let mut members = header(SWEEP_SCHEMA);
    members.push(("config".into(), config_json(cfg)));
    members.push(("base_seed".into(), Json::uint(base_seed)));
    members.push(("replications".into(), Json::uint(replications as u64)));
    if let Some(t) = timing {
        members.push(("timing".into(), t.to_json()));
    }
    members.push((
        "points".into(),
        Json::Arr(
            points
                .iter()
                .map(|(t_switch, s)| {
                    Json::Obj(vec![
                        ("t_switch".into(), Json::Num(*t_switch)),
                        ("n_tot".into(), estimate_json(&s.n_tot)),
                        ("n_basic".into(), estimate_json(&s.n_basic)),
                        ("n_forced".into(), estimate_json(&s.n_forced)),
                        ("piggyback_bytes".into(), estimate_json(&s.piggyback_bytes)),
                        ("msgs_delivered".into(), estimate_json(&s.msgs_delivered)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// The figure artifact: the paper-figure spec plus per-point, per-protocol
/// `N_tot` estimates with confidence intervals.
pub fn figure_artifact(res: &FigureResult, base_seed: u64, replications: usize) -> Json {
    let mut members = header(FIGURE_SCHEMA);
    members.push(("figure".into(), Json::uint(res.spec.id as u64)));
    members.push(("caption".into(), Json::str(res.spec.caption())));
    members.push(("p_switch".into(), Json::Num(res.spec.p_switch)));
    members.push(("heterogeneity".into(), Json::Num(res.spec.heterogeneity)));
    members.push(("base_seed".into(), Json::uint(base_seed)));
    members.push(("replications".into(), Json::uint(replications as u64)));
    members.push((
        "points".into(),
        Json::Arr(
            res.points
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("t_switch".into(), Json::Num(p.t_switch)),
                        (
                            "n_tot".into(),
                            Json::Obj(
                                p.n_tot
                                    .iter()
                                    .map(|(name, e)| (name.clone(), estimate_json(e)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// Writes an artifact as pretty-printed JSON with a trailing newline.
pub fn write(path: &Path, artifact: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(artifact.to_pretty().as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

/// Reads and parses an artifact file.
pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Validates the self-describing envelope; returns the schema tag.
pub fn validate(v: &Json) -> Result<&str, String> {
    let schema = v
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema' field")?;
    // Scenario files are authored by hand; they carry no producer version.
    if schema != scenario::SCENARIO_SCHEMA {
        v.get("version")
            .and_then(Json::as_str)
            .ok_or("missing 'version' field")?;
    }
    match schema {
        RUN_SCHEMA => {
            for key in ["config", "outcome", "metrics"] {
                v.get(key).ok_or_else(|| format!("run artifact missing '{key}'"))?;
            }
            v.get("outcome")
                .and_then(|o| o.get("n_tot"))
                .and_then(Json::as_u64)
                .ok_or("run artifact missing outcome.n_tot")?;
        }
        SWEEP_SCHEMA | FIGURE_SCHEMA => {
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("artifact has no points".into());
            }
        }
        BENCH_SWEEP_SCHEMA => {
            let sweeps = v
                .get("sweeps")
                .and_then(Json::as_arr)
                .ok_or("bench sweep artifact missing 'sweeps' array")?;
            if sweeps.is_empty() {
                return Err("bench sweep artifact has no sweeps".into());
            }
            for s in sweeps {
                s.get("timing")
                    .and_then(|t| t.get("runs_per_sec"))
                    .and_then(Json::as_f64)
                    .ok_or("bench sweep entry missing timing.runs_per_sec")?;
            }
        }
        ROLLBACK_LOGGING_SCHEMA => {
            let rows = v
                .get("protocols")
                .and_then(Json::as_arr)
                .ok_or("rollback-logging artifact missing 'protocols' array")?;
            if rows.is_empty() {
                return Err("rollback-logging artifact has no protocols".into());
            }
            for r in rows {
                for key in ["mean_undone_off", "mean_undone_logged", "mean_replayed_time"] {
                    r.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("rollback-logging entry missing '{key}'"))?;
                }
            }
        }
        LOG_SIZE_SCHEMA => {
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("log-size artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("log-size artifact has no points".into());
            }
            for p in points {
                p.get("t_switch")
                    .and_then(Json::as_f64)
                    .ok_or("log-size point missing 't_switch'")?;
                let series = p
                    .get("series")
                    .and_then(Json::as_obj)
                    .ok_or("log-size point missing 'series' object")?;
                for (name, s) in series {
                    s.get("mean_peak_bytes")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("series '{name}' missing mean_peak_bytes"))?;
                }
            }
        }
        RECOVERY_SCHEMA => {
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("recovery artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("recovery artifact has no points".into());
            }
            for p in points {
                for key in ["t_switch", "mtbf"] {
                    p.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("recovery point missing '{key}'"))?;
                }
                let series = p
                    .get("series")
                    .and_then(Json::as_obj)
                    .ok_or("recovery point missing 'series' object")?;
                for (name, s) in series {
                    for mode in ["pessimistic", "optimistic"] {
                        s.get(mode)
                            .and_then(|m| m.get("mean_downtime"))
                            .and_then(Json::as_f64)
                            .ok_or_else(|| {
                                format!("series '{name}' missing {mode}.mean_downtime")
                            })?;
                    }
                }
            }
        }
        PROFILE_SCHEMA => {
            for key in ["config", "spans", "timing"] {
                v.get(key)
                    .ok_or_else(|| format!("profile artifact missing '{key}'"))?;
            }
            v.get("spans")
                .and_then(Json::as_arr)
                .ok_or("profile artifact 'spans' is not an array")?;
        }
        BENCH_SCALE_SCHEMA => {
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("scale artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("scale artifact has no points".into());
            }
            for p in points {
                p.get("n_mh")
                    .and_then(Json::as_u64)
                    .ok_or("scale point missing 'n_mh'")?;
                p.get("timing")
                    .and_then(|t| t.get("events_per_sec"))
                    .and_then(Json::as_f64)
                    .ok_or("scale point missing timing.events_per_sec")?;
            }
        }
        CACHE_INDEX_SCHEMA => {
            let entries = v
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or("cache index missing 'entries' array")?;
            for e in entries {
                for key in ["key", "kind"] {
                    e.get(key)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("cache index entry missing '{key}'"))?;
                }
                e.get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or("cache index entry missing 'bytes'")?;
            }
        }
        SERVE_BENCH_SCHEMA => {
            v.get("byte_identical")
                .and_then(Json::as_bool)
                .ok_or("serve bench missing 'byte_identical'")?;
            v.get("warm_requests")
                .and_then(Json::as_u64)
                .ok_or("serve bench missing 'warm_requests'")?;
            v.get("timing")
                .and_then(|t| t.get("speedup"))
                .and_then(Json::as_f64)
                .ok_or("serve bench missing timing.speedup")?;
        }
        MC_SCHEMA => {
            v.get("params")
                .and_then(Json::as_obj)
                .ok_or("mc artifact missing 'params' object")?;
            let result = v.get("result").ok_or("mc artifact missing 'result'")?;
            result
                .get("states_explored")
                .and_then(Json::as_u64)
                .ok_or("mc artifact missing result.states_explored")?;
            result
                .get("complete")
                .and_then(Json::as_bool)
                .ok_or("mc artifact missing result.complete")?;
            if let Some(cx) = v.get("counterexample") {
                if !matches!(cx, Json::Null) {
                    let steps = cx
                        .get("schedule")
                        .and_then(Json::as_arr)
                        .ok_or("mc counterexample missing 'schedule' array")?;
                    for s in steps {
                        s.get("index")
                            .and_then(Json::as_u64)
                            .ok_or("mc schedule step missing 'index'")?;
                    }
                    cx.get("violation")
                        .and_then(|w| w.get("kind"))
                        .and_then(Json::as_str)
                        .ok_or("mc counterexample missing violation.kind")?;
                }
            }
        }
        BENCH_PAR_SCHEMA => {
            v.get("byte_identical")
                .and_then(Json::as_bool)
                .ok_or("par bench missing 'byte_identical'")?;
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("par bench artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("par bench artifact has no points".into());
            }
            for p in points {
                p.get("n_mh")
                    .and_then(Json::as_u64)
                    .ok_or("par bench point missing 'n_mh'")?;
                p.get("workers")
                    .and_then(Json::as_u64)
                    .ok_or("par bench point missing 'workers'")?;
                p.get("timing")
                    .and_then(|t| t.get("speedup"))
                    .and_then(Json::as_f64)
                    .ok_or("par bench point missing timing.speedup")?;
            }
        }
        BENCH_MC_SCHEMA => {
            let points = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("mc bench artifact missing 'points' array")?;
            if points.is_empty() {
                return Err("mc bench artifact has no points".into());
            }
            for p in points {
                p.get("states_explored")
                    .and_then(Json::as_u64)
                    .ok_or("mc bench point missing 'states_explored'")?;
                p.get("timing")
                    .and_then(|t| t.get("states_per_sec"))
                    .and_then(Json::as_f64)
                    .ok_or("mc bench point missing timing.states_per_sec")?;
            }
        }
        scenario::SCENARIO_SCHEMA => {
            scenario::Scenario::from_json(v).map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown schema '{other}'")),
    }
    Ok(schema)
}

/// Renders a human summary of an artifact (the `mck inspect` view).
pub fn describe(v: &Json) -> Result<String, String> {
    let schema = validate(v)?;
    let version = v.get("version").and_then(Json::as_str).unwrap_or("?");
    let mut out = format!("schema   {schema}\nversion  {version}\n");
    match schema {
        RUN_SCHEMA => {
            let cfg = v.get("config").expect("validated");
            let outcome = v.get("outcome").expect("validated");
            let s = |j: &Json, k: &str| j.get(k).map(|x| x.to_compact()).unwrap_or_default();
            out += &format!(
                "protocol {}\nseed     {}\n",
                cfg.get("protocol").and_then(Json::as_str).unwrap_or("?"),
                s(cfg, "seed"),
            );
            let mut t = crate::table::Table::new(vec!["outcome", "value"]);
            if let Some(members) = outcome.as_obj() {
                for (k, val) in members {
                    t.push_row(vec![k.clone(), val.to_compact()]);
                }
            }
            out += &t.render();
            if let Some(counters) = v.get("metrics").and_then(|m| m.get("counters")).and_then(Json::as_obj)
            {
                out += &format!("metrics  {} counters", counters.len());
                if let Some(gauges) = v.get("metrics").and_then(|m| m.get("gauges")).and_then(Json::as_obj) {
                    out += &format!(", {} gauges", gauges.len());
                }
                out.push('\n');
            }
        }
        SWEEP_SCHEMA | FIGURE_SCHEMA => {
            if let Some(caption) = v.get("caption").and_then(Json::as_str) {
                out += &format!("caption  {caption}\n");
            }
            if let Some(t) = v.get("timing") {
                out += &format!(
                    "timing   {} runs in {:.0} ms ({:.1} runs/sec, {} jobs)\n",
                    t.get("runs").and_then(Json::as_u64).unwrap_or(0),
                    t.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
                    t.get("runs_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                    t.get("jobs").and_then(Json::as_u64).unwrap_or(0),
                );
            }
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec!["t_switch", "n_tot (mean ± ci95)"]);
            for p in points {
                let ts = p
                    .get("t_switch")
                    .and_then(Json::as_f64)
                    .map(|x| format!("{x:.0}"))
                    .unwrap_or_else(|| "?".into());
                let cell = match p.get("n_tot") {
                    // A sweep point's n_tot is itself an estimate object;
                    // a figure point's is a per-protocol map of estimates.
                    Some(e) if e.get("mean").is_some() => crate::table::fmt_estimate(
                        e.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                        e.get("ci95").and_then(Json::as_f64).unwrap_or(0.0),
                    ),
                    Some(Json::Obj(series)) => series
                        .iter()
                        .map(|(name, e)| {
                            format!(
                                "{name}={}",
                                crate::table::fmt_estimate(
                                    e.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                                    e.get("ci95").and_then(Json::as_f64).unwrap_or(0.0),
                                )
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                    Some(e) => crate::table::fmt_estimate(
                        e.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                        e.get("ci95").and_then(Json::as_f64).unwrap_or(0.0),
                    ),
                    None => "?".into(),
                };
                t.push_row(vec![ts, cell]);
            }
            out += &t.render();
        }
        BENCH_SWEEP_SCHEMA => {
            if let Some(host) = v.get("host_parallelism").and_then(Json::as_u64) {
                out += &format!("host     {host} hardware threads\n");
            }
            let sweeps = v.get("sweeps").and_then(Json::as_arr).expect("validated");
            let mut t =
                crate::table::Table::new(vec!["jobs", "runs", "wall (ms)", "runs/sec"]);
            for s in sweeps {
                let timing = s.get("timing").expect("validated");
                let num = |j: &Json, k: &str| {
                    j.get(k)
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.1}"))
                        .unwrap_or_else(|| "?".into())
                };
                t.push_row(vec![
                    timing
                        .get("jobs")
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into()),
                    timing
                        .get("runs")
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into()),
                    num(timing, "wall_ms"),
                    num(timing, "runs_per_sec"),
                ]);
            }
            out += &t.render();
            if let Some(speedup) = v.get("speedup").and_then(Json::as_f64) {
                out += &format!("speedup  {speedup:.2}x (max jobs vs 1)\n");
            }
        }
        ROLLBACK_LOGGING_SCHEMA => {
            let rows = v.get("protocols").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec![
                "protocol",
                "undone (off)",
                "undone (logged)",
                "replayed",
                "log peak (KiB)",
            ]);
            for r in rows {
                let num = |k: &str| {
                    r.get(k)
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.2}"))
                        .unwrap_or_else(|| "?".into())
                };
                t.push_row(vec![
                    r.get("protocol").and_then(Json::as_str).unwrap_or("?").into(),
                    num("mean_undone_off"),
                    num("mean_undone_logged"),
                    num("mean_replayed_time"),
                    r.get("mean_log_peak_bytes")
                        .and_then(Json::as_f64)
                        .map(|x| format!("{:.1}", x / 1024.0))
                        .unwrap_or_else(|| "?".into()),
                ]);
            }
            out += &t.render();
        }
        LOG_SIZE_SCHEMA => {
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec!["t_switch", "peak live log (KiB)"]);
            for p in points {
                let ts = p
                    .get("t_switch")
                    .and_then(Json::as_f64)
                    .map(|x| format!("{x:.0}"))
                    .unwrap_or_else(|| "?".into());
                let cell = p
                    .get("series")
                    .and_then(Json::as_obj)
                    .map_or_else(String::new, |series| {
                        series
                            .iter()
                            .map(|(name, s)| {
                                format!(
                                    "{name}={:.1}",
                                    s.get("mean_peak_bytes")
                                        .and_then(Json::as_f64)
                                        .unwrap_or(0.0)
                                        / 1024.0
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(" ")
                    });
                t.push_row(vec![ts, cell]);
            }
            out += &t.render();
        }
        RECOVERY_SCHEMA => {
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec![
                "t_switch",
                "mtbf",
                "mean downtime (pess | opt)",
            ]);
            for p in points {
                let num = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .unwrap_or_else(|| "?".into())
                };
                let cell = p
                    .get("series")
                    .and_then(Json::as_obj)
                    .map_or_else(String::new, |series| {
                        series
                            .iter()
                            .map(|(name, s)| {
                                let dt = |mode: &str| {
                                    s.get(mode)
                                        .and_then(|m| m.get("mean_downtime"))
                                        .and_then(Json::as_f64)
                                        .unwrap_or(0.0)
                                };
                                format!(
                                    "{name}={:.3}|{:.3}",
                                    dt("pessimistic"),
                                    dt("optimistic")
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(" ")
                    });
                t.push_row(vec![num("t_switch"), num("mtbf"), cell]);
            }
            out += &t.render();
        }
        PROFILE_SCHEMA => {
            let cfg = v.get("config").expect("validated");
            out += &format!(
                "protocol {}\nevents   {}\n",
                cfg.get("protocol").and_then(Json::as_str).unwrap_or("?"),
                v.get("events").and_then(Json::as_u64).unwrap_or(0),
            );
            if let Some(t) = v.get("timing") {
                out += &format!(
                    "timing   {:.1} ms wall, {:.0} events/sec, span coverage {:.1}%\n",
                    t.get("wall_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                    t.get("events_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                    t.get("span_coverage").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                );
            }
            let spans = v.get("spans").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec!["span", "count", "bytes"]);
            for s in spans {
                t.push_row(vec![
                    s.get("path").and_then(Json::as_str).unwrap_or("?").into(),
                    s.get("count").and_then(Json::as_u64).unwrap_or(0).to_string(),
                    s.get("bytes").and_then(Json::as_u64).unwrap_or(0).to_string(),
                ]);
            }
            out += &t.render();
        }
        BENCH_SCALE_SCHEMA => {
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec![
                "n_mh", "n_mss", "events", "bytes/host", "events/sec",
            ]);
            for p in points {
                let uint = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into())
                };
                t.push_row(vec![
                    uint("n_mh"),
                    uint("n_mss"),
                    uint("events"),
                    p.get("bytes_per_host")
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .unwrap_or_else(|| "?".into()),
                    p.get("timing")
                        .and_then(|t| t.get("events_per_sec"))
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .unwrap_or_else(|| "?".into()),
                ]);
            }
            out += &t.render();
        }
        CACHE_INDEX_SCHEMA => {
            let entries = v.get("entries").and_then(Json::as_arr).expect("validated");
            out += &format!("entries  {}\n", entries.len());
            let total: u64 = entries
                .iter()
                .filter_map(|e| e.get("bytes").and_then(Json::as_u64))
                .sum();
            out += &format!("bytes    {total}\n");
            let mut t = crate::table::Table::new(vec!["key", "kind", "bytes"]);
            for e in entries {
                let key = e.get("key").and_then(Json::as_str).unwrap_or("?");
                t.push_row(vec![
                    key.chars().take(16).collect(),
                    e.get("kind").and_then(Json::as_str).unwrap_or("?").into(),
                    e.get("bytes")
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into()),
                ]);
            }
            out += &t.render();
        }
        SERVE_BENCH_SCHEMA => {
            if let Some(cfg) = v.get("config") {
                out += &format!(
                    "protocol {}\nhorizon  {}\n",
                    cfg.get("protocol").and_then(Json::as_str).unwrap_or("?"),
                    cfg.get("horizon")
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .unwrap_or_else(|| "?".into()),
                );
            }
            out += &format!(
                "warm     {} requests, byte-identical: {}\n",
                v.get("warm_requests").and_then(Json::as_u64).unwrap_or(0),
                v.get("byte_identical").and_then(Json::as_bool).unwrap_or(false),
            );
            if let Some(t) = v.get("timing") {
                let num = |k: &str| t.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                out += &format!(
                    "timing   cold {:.1} ms, warm {:.3} ms (min {:.3}), speedup {:.0}x\n",
                    num("cold_ms"),
                    num("warm_ms_mean"),
                    num("warm_ms_min"),
                    num("speedup"),
                );
            }
        }
        MC_SCHEMA => {
            let params = v.get("params").expect("validated");
            let s = |k: &str| {
                params
                    .get(k)
                    .map(|x| match x.as_str() {
                        Some(t) => t.to_string(),
                        None => x.to_compact(),
                    })
                    .unwrap_or_else(|| "?".into())
            };
            out += &format!(
                "protocol {}\nworld    {} MH x {} MSS, horizon {}, seed {}\nmutate   {}\n",
                s("protocol"),
                s("mh"),
                s("mss"),
                s("horizon"),
                s("seed"),
                s("mutate"),
            );
            let result = v.get("result").expect("validated");
            out += &format!(
                "states   {} explored, {} deduped, depth {}, complete: {}\n",
                result.get("states_explored").and_then(Json::as_u64).unwrap_or(0),
                result.get("states_deduped").and_then(Json::as_u64).unwrap_or(0),
                result.get("max_depth").and_then(Json::as_u64).unwrap_or(0),
                result.get("complete").and_then(Json::as_bool).unwrap_or(false),
            );
            match v.get("counterexample") {
                Some(cx) if !matches!(cx, Json::Null) => {
                    out += &format!(
                        "VIOLATION {}\n",
                        cx.get("violation")
                            .and_then(|w| w.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or("?"),
                    );
                    let steps = cx.get("schedule").and_then(Json::as_arr).expect("validated");
                    let mut t = crate::table::Table::new(vec!["#", "choice", "event", "time"]);
                    for (i, step) in steps.iter().enumerate() {
                        t.push_row(vec![
                            (i + 1).to_string(),
                            step.get("index")
                                .and_then(Json::as_u64)
                                .map(|x| x.to_string())
                                .unwrap_or_else(|| "?".into()),
                            step.get("label").and_then(Json::as_str).unwrap_or("?").into(),
                            step.get("time")
                                .and_then(Json::as_f64)
                                .map(|x| format!("{x:.3}"))
                                .unwrap_or_else(|| "?".into()),
                        ]);
                    }
                    out += &t.render();
                }
                _ => out += "verdict  no violation within the bound\n",
            }
        }
        BENCH_PAR_SCHEMA => {
            out += &format!(
                "workers  {}\nbyte-identical: {}\n",
                v.get("workers").and_then(Json::as_u64).unwrap_or(0),
                v.get("byte_identical").and_then(Json::as_bool).unwrap_or(false),
            );
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec![
                "n_mh", "n_mss", "events", "serial ev/s", "parallel ev/s", "speedup",
            ]);
            for p in points {
                let uint = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into())
                };
                let timing = |k: &str, prec: usize| {
                    p.get("timing")
                        .and_then(|t| t.get(k))
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.prec$}"))
                        .unwrap_or_else(|| "?".into())
                };
                t.push_row(vec![
                    uint("n_mh"),
                    uint("n_mss"),
                    uint("events"),
                    timing("serial_events_per_sec", 0),
                    timing("parallel_events_per_sec", 0),
                    timing("speedup", 2),
                ]);
            }
            out += &t.render();
        }
        BENCH_MC_SCHEMA => {
            let points = v.get("points").and_then(Json::as_arr).expect("validated");
            let mut t = crate::table::Table::new(vec![
                "protocol", "mh", "horizon", "states", "dedup%", "complete", "states/s",
            ]);
            for p in points {
                let uint = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_u64)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".into())
                };
                t.push_row(vec![
                    p.get("protocol").and_then(Json::as_str).unwrap_or("?").into(),
                    uint("mh"),
                    p.get("horizon")
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.1}"))
                        .unwrap_or_else(|| "?".into()),
                    uint("states_explored"),
                    p.get("dedup_rate")
                        .and_then(Json::as_f64)
                        .map(|x| format!("{:.1}", x * 100.0))
                        .unwrap_or_else(|| "?".into()),
                    p.get("complete")
                        .and_then(Json::as_bool)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "?".into()),
                    p.get("timing")
                        .and_then(|t| t.get("states_per_sec"))
                        .and_then(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .unwrap_or_else(|| "?".into()),
                ]);
            }
            out += &t.render();
        }
        scenario::SCENARIO_SCHEMA => {
            let sc = scenario::Scenario::from_json(v).expect("validated");
            out += &format!("name     {}\n", sc.name);
            if !sc.description.is_empty() {
                out += &format!("about    {}\n", sc.description);
            }
            out += &format!(
                "topology {}\nmobility {}\ntraffic  {}\n",
                sc.env.topology.to_json().to_compact(),
                sc.env.mobility.to_json().to_compact(),
                sc.env.traffic.to_json().to_compact(),
            );
        }
        _ => unreachable!("validate admits only known schemas"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolChoice;
    use crate::simulation::{Instrumentation, Simulation};
    use cic::CicKind;

    fn small_cfg() -> SimConfig {
        SimConfig {
            protocol: ProtocolChoice::Cic(CicKind::Qbc),
            t_switch: 100.0,
            horizon: 300.0,
            ..Default::default()
        }
    }

    #[test]
    fn run_artifact_validates_and_describes() {
        let cfg = small_cfg();
        let report = Simulation::run_with(
            cfg.clone(),
            Instrumentation {
                metrics: true,
                profile: true,
                ..Instrumentation::off()
            },
        );
        let art = run_artifact(&cfg, &report);
        assert_eq!(validate(&art).unwrap(), RUN_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(text.contains("QBC"));
        assert!(text.contains("n_tot"));
        // Round trip through the serialized form.
        let parsed = json::parse(&art.to_pretty()).unwrap();
        assert_eq!(validate(&parsed).unwrap(), RUN_SCHEMA);
        assert_eq!(
            parsed.get("outcome").and_then(|o| o.get("n_tot")).and_then(Json::as_u64),
            Some(report.n_tot()),
        );
        // The metric snapshot made it into the artifact intact.
        let metrics = simkit::metrics::MetricsSnapshot::from_json(parsed.get("metrics").unwrap());
        assert_eq!(metrics.unwrap().counter("ckpt.total"), Some(report.n_tot()));
    }

    #[test]
    fn profile_artifact_validates_and_quarantines_timing() {
        let cfg = small_cfg();
        let report = Simulation::run_with(
            cfg.clone(),
            Instrumentation {
                metrics: true,
                profile: true,
                spans: true,
                ..Instrumentation::off()
            },
        );
        let art = profile_artifact(&cfg, &report);
        assert_eq!(validate(&art).unwrap(), PROFILE_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(text.contains("span coverage"));
        assert!(text.contains("activity"));
        // Every wall-clock quantity lives under `timing`; the deterministic
        // view must therefore be identical across same-seed runs.
        let report2 = Simulation::run_with(
            cfg.clone(),
            Instrumentation {
                metrics: true,
                profile: true,
                spans: true,
                ..Instrumentation::off()
            },
        );
        let art2 = profile_artifact(&cfg, &report2);
        assert_eq!(
            deterministic_view(&art).to_pretty(),
            deterministic_view(&art2).to_pretty(),
        );
        assert!(art.get("timing").is_some());
        assert!(deterministic_view(&art).get("timing").is_none());
    }

    #[test]
    fn deterministic_view_strips_timing_recursively() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("x")),
            ("timing".into(), Json::uint(1)),
            (
                "points".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("n_mh".into(), Json::uint(10)),
                    ("timing".into(), Json::Obj(vec![("wall_ms".into(), Json::Num(3.5))])),
                ])]),
            ),
        ]);
        let view = deterministic_view(&doc);
        assert!(view.get("timing").is_none());
        let point = &view.get("points").and_then(Json::as_arr).unwrap()[0];
        assert!(point.get("timing").is_none());
        assert_eq!(point.get("n_mh").and_then(Json::as_u64), Some(10));
    }

    #[test]
    fn figure_artifact_carries_cis() {
        use crate::experiments::{run_figure, FigureSpec};
        let spec = FigureSpec {
            id: 2,
            p_switch: 0.8,
            heterogeneity: 0.0,
            t_switch_values: vec![100.0],
            protocols: vec![CicKind::Bcs, CicKind::Qbc],
        };
        let res = run_figure(&spec, 1, 2);
        let art = figure_artifact(&res, 1, 2);
        assert_eq!(validate(&art).unwrap(), FIGURE_SCHEMA);
        let point = &art.get("points").and_then(Json::as_arr).unwrap()[0];
        let bcs = point.get("n_tot").and_then(|n| n.get("BCS")).unwrap();
        assert!(bcs.get("mean").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(bcs.get("n").and_then(Json::as_u64), Some(2));
        assert!(describe(&art).unwrap().contains("BCS="));
    }

    #[test]
    fn write_and_read_round_trip() {
        let cfg = small_cfg();
        let report = Simulation::run(cfg.clone());
        let art = run_artifact(&cfg, &report);
        let path = std::env::temp_dir().join("mck_artifact_test.json");
        write(&path, &art).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(validate(&back).unwrap(), RUN_SCHEMA);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_artifact_describe_shows_estimates() {
        use crate::runner::summarize_point;
        let mut cfg = small_cfg();
        let mut points = Vec::new();
        for t_switch in [100.0, 200.0] {
            cfg.t_switch = t_switch;
            points.push((t_switch, summarize_point(&cfg, 1, 2)));
        }
        let timing = SweepTiming {
            wall_ms: 250.0,
            runs: 4,
            jobs: 2,
        };
        assert_eq!(timing.runs_per_sec(), 16.0);
        let art = sweep_artifact(&cfg, 1, 2, &points, Some(timing));
        assert_eq!(validate(&art).unwrap(), SWEEP_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(
            text.contains("4 runs in 250 ms (16.0 runs/sec, 2 jobs)"),
            "describe must surface the sweep timing: {text}"
        );
        // The estimate must surface with its real mean, not a zeroed
        // rendering (the sweep's n_tot is an estimate object, not a
        // per-protocol map).
        let e = &points[0].1.n_tot;
        assert!(e.mean > 0.0);
        assert!(
            text.contains(&crate::table::fmt_estimate(e.mean, e.ci95)),
            "describe must show the sweep estimate: {text}"
        );
        assert!(!text.contains("mean=0.0 ci95=0.0"));
    }

    #[test]
    fn bench_sweep_artifact_validates_and_describes() {
        let entry = |jobs: u64, wall_ms: f64| {
            Json::Obj(vec![(
                "timing".into(),
                SweepTiming {
                    wall_ms,
                    runs: 60,
                    jobs: jobs as usize,
                }
                .to_json(),
            )])
        };
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str(BENCH_SWEEP_SCHEMA)),
            ("version".into(), Json::str(version())),
            ("host_parallelism".into(), Json::uint(8)),
            ("sweeps".into(), Json::Arr(vec![entry(1, 1000.0), entry(8, 200.0)])),
            ("speedup".into(), Json::Num(5.0)),
        ]);
        assert_eq!(validate(&doc).unwrap(), BENCH_SWEEP_SCHEMA);
        let text = describe(&doc).unwrap();
        assert!(text.contains("8 hardware threads"), "{text}");
        assert!(text.contains("runs/sec"), "{text}");
        assert!(text.contains("speedup  5.00x"), "{text}");
        // An entry without timing.runs_per_sec is rejected.
        let bad = Json::Obj(vec![
            ("schema".into(), Json::str(BENCH_SWEEP_SCHEMA)),
            ("version".into(), Json::str(version())),
            ("sweeps".into(), Json::Arr(vec![Json::Obj(vec![])])),
        ]);
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn rollback_logging_artifact_validates_and_describes() {
        use crate::failure::LoggingRollbackSummary;
        let rows = vec![LoggingRollbackSummary {
            protocol: "QBC".into(),
            mean_undone_off: 12.5,
            mean_undone_logged: 0.0,
            worst_undone_logged: 0.0,
            mean_replayed_time: 42.0,
            mean_replayed_receives: 7.5,
            mean_log_peak_bytes: 2048.0,
            mean_stable_write_bytes: 8192.0,
            scenarios: 20,
        }];
        let art = rollback_logging_artifact(11, 2, &rows);
        assert_eq!(validate(&art).unwrap(), ROLLBACK_LOGGING_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(text.contains("QBC"), "{text}");
        assert!(text.contains("undone (logged)"), "{text}");
        assert!(text.contains("2.0"), "log peak KiB must render: {text}");
        // Round trip through the serialized form.
        let parsed = json::parse(&art.to_pretty()).unwrap();
        assert_eq!(validate(&parsed).unwrap(), ROLLBACK_LOGGING_SCHEMA);
        // An empty protocol list is rejected.
        let empty = Json::Obj(vec![
            ("schema".into(), Json::str(ROLLBACK_LOGGING_SCHEMA)),
            ("version".into(), Json::str(version())),
            ("protocols".into(), Json::Arr(vec![])),
        ]);
        assert!(validate(&empty).is_err());
    }

    #[test]
    fn log_size_artifact_validates_and_describes() {
        use crate::experiments::{LogSizeRow, LogSizeStats};
        let rows = vec![LogSizeRow {
            t_switch: 200.0,
            series: vec![(
                "TP".into(),
                LogSizeStats {
                    mean_peak_bytes: 4096.0,
                    mean_live_bytes: 1024.0,
                    mean_appended_entries: 100.0,
                    mean_gc_entries: 80.0,
                },
            )],
        }];
        let art = log_size_artifact(3, 2, &rows);
        assert_eq!(validate(&art).unwrap(), LOG_SIZE_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(text.contains("TP=4.0"), "peak KiB must render: {text}");
        let parsed = json::parse(&art.to_pretty()).unwrap();
        assert_eq!(validate(&parsed).unwrap(), LOG_SIZE_SCHEMA);
        // An empty point list is rejected.
        let empty = Json::Obj(vec![
            ("schema".into(), Json::str(LOG_SIZE_SCHEMA)),
            ("version".into(), Json::str(version())),
            ("points".into(), Json::Arr(vec![])),
        ]);
        assert!(validate(&empty).is_err());
    }

    #[test]
    fn recovery_artifact_validates_and_describes() {
        use crate::experiments::{RecoveryPoint, RecoveryRow};
        let point = |downtime: f64, lost: f64| RecoveryPoint {
            crashes: 4.0,
            mean_downtime: downtime,
            availability: 0.999,
            undone_time: 1.5,
            replayed_receives: 12.0,
            unstable_lost: lost,
        };
        let rows = vec![RecoveryRow {
            t_switch: 500.0,
            mtbf: 2000.0,
            series: vec![("QBC".into(), point(0.25, 0.0), point(0.125, 3.0))],
        }];
        let art = recovery_artifact(7, 2, &rows);
        assert_eq!(validate(&art).unwrap(), RECOVERY_SCHEMA);
        let text = describe(&art).unwrap();
        assert!(text.contains("QBC=0.250|0.125"), "{text}");
        assert!(text.contains("mtbf"), "{text}");
        let parsed = json::parse(&art.to_pretty()).unwrap();
        assert_eq!(validate(&parsed).unwrap(), RECOVERY_SCHEMA);
        // An empty grid is rejected, as is a series missing a mode.
        let empty = Json::Obj(vec![
            ("schema".into(), Json::str(RECOVERY_SCHEMA)),
            ("version".into(), Json::str(version())),
            ("points".into(), Json::Arr(vec![])),
        ]);
        assert!(validate(&empty).is_err());
    }

    #[test]
    fn scenario_files_inspect_through_the_same_envelope() {
        let text = r#"{"schema":"mck.scenario/v1","name":"demo","topology":{"kind":"ring"}}"#;
        let v = json::parse(text).unwrap();
        assert_eq!(validate(&v).unwrap(), scenario::SCENARIO_SCHEMA);
        let out = describe(&v).unwrap();
        assert!(out.contains("demo"), "{out}");
        assert!(out.contains("ring"), "{out}");
        // A structurally broken scenario is rejected with its typed error.
        let bad = json::parse(r#"{"schema":"mck.scenario/v1","params":{"bogus":1}}"#).unwrap();
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn run_artifact_records_the_environment() {
        let cfg = small_cfg();
        let j = config_json(&cfg);
        assert_eq!(
            j.get("topology").and_then(|t| t.get("kind")).and_then(Json::as_str),
            Some("complete"),
        );
        assert_eq!(
            j.get("mobility").and_then(|t| t.get("kind")).and_then(Json::as_str),
            Some("paper"),
        );
        assert_eq!(
            j.get("traffic").and_then(|t| t.get("kind")).and_then(Json::as_str),
            Some("uniform"),
        );
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate(&Json::Null).is_err());
        let bad = Json::Obj(vec![
            ("schema".into(), Json::str("mck.nope/v9")),
            ("version".into(), Json::str("0")),
        ]);
        assert!(validate(&bad).is_err());
        let empty_sweep = Json::Obj(vec![
            ("schema".into(), Json::str(SWEEP_SCHEMA)),
            ("version".into(), Json::str("0")),
            ("points".into(), Json::Arr(vec![])),
        ]);
        assert!(validate(&empty_sweep).is_err());
    }
}
