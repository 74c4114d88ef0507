//! Cache-key derivation: from a request to a content address.
//!
//! A run is a pure function of `(normalized SimConfig, scenario, seed,
//! artifact schema)` — the determinism contract the whole repo pins in CI —
//! so that tuple, canonically hashed, is a sound content address for the
//! artifact it produces. Normalization has two jobs:
//!
//! * **include** every knob that can change a single artifact byte.
//!   [`mck::artifact::config_json`] covers most of them (seed and the
//!   scenario-derived environment included), but omits the piggyback wire
//!   codec and the incremental-checkpoint model, both of which shape the
//!   modelled byte counts — [`normalized_config_json`] adds them;
//! * **exclude** host-local execution choices that are pinned byte-neutral:
//!   the parallel backend's worker count (`--par-workers`) and the job-pool
//!   size (`--jobs`) never move an artifact byte and are not part of
//!   [`SimConfig`], so runs executed under any of them share cache entries.
//!
//! The artifact schema tag (`mck.run/v1`, …) is hashed in, so a schema
//! version bump invalidates every entry of that kind instead of serving
//! stale shapes.

use mck::prelude::*;
use simkit::json::Json;

use crate::hash;

/// The full semantic configuration of a run: [`mck::artifact::config_json`]
/// plus the modelling knobs it omits.
pub fn normalized_config_json(cfg: &SimConfig) -> Json {
    let mut members = match mck::artifact::config_json(cfg) {
        Json::Obj(members) => members,
        _ => unreachable!("config_json returns an object"),
    };
    members.push(("pb_codec".into(), Json::str(cfg.pb_codec.name())));
    members.push((
        "incremental_full_bytes".into(),
        Json::uint(cfg.incremental.full_bytes),
    ));
    members.push(("incremental_tau".into(), Json::Num(cfg.incremental.tau)));
    Json::Obj(members)
}

/// Content address of an arbitrary request: the request kind, the artifact
/// schema tag it will produce (hashed in so a version bump invalidates),
/// and the canonicalized payload members.
pub fn key_of(kind: &str, artifact_schema: &str, mut payload: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("kind".into(), Json::str(kind)),
        ("artifact_schema".into(), Json::str(artifact_schema)),
    ];
    members.append(&mut payload);
    hash::digest_json(&Json::Obj(members))
}

/// Content address of a single-run artifact (`mck.run/v1`).
pub fn run_key(cfg: &SimConfig) -> String {
    key_of(
        "run",
        mck::artifact::RUN_SCHEMA,
        vec![("config".into(), normalized_config_json(cfg))],
    )
}

/// Content address of a sweep artifact (`mck.sweep/v1`): the base
/// configuration plus the swept `T_switch` grid, base seed, and
/// replication count.
pub fn sweep_key(cfg: &SimConfig, t_switch_list: &[f64], base_seed: u64, reps: usize) -> String {
    key_of(
        "sweep",
        mck::artifact::SWEEP_SCHEMA,
        vec![
            ("config".into(), normalized_config_json(cfg)),
            (
                "t_switch_list".into(),
                Json::Arr(t_switch_list.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("base_seed".into(), Json::uint(base_seed)),
            ("replications".into(), Json::uint(reps as u64)),
        ],
    )
}

/// Content address of a paper-figure artifact (`mck.figure/v1`): figure id,
/// seeds, replications, and the scenario document (or `null` for the
/// paper's default environment).
pub fn figure_key(id: usize, base_seed: u64, reps: usize, scenario: Option<&Scenario>) -> String {
    key_of(
        "figure",
        mck::artifact::FIGURE_SCHEMA,
        vec![
            ("figure".into(), Json::uint(id as u64)),
            ("base_seed".into(), Json::uint(base_seed)),
            ("replications".into(), Json::uint(reps as u64)),
            (
                "scenario".into(),
                scenario.map_or(Json::Null, Scenario::to_json),
            ),
        ],
    )
}

fn num(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("'{what}' must be a number"))
}

fn uint(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("'{what}' must be a non-negative integer"))
}

fn count(v: &Json, what: &str) -> Result<usize, String> {
    usize::try_from(uint(v, what)?).map_err(|_| format!("'{what}' is too large"))
}

/// Builds a checked [`SimConfig`] from a request body.
///
/// Same precedence as the CLI: defaults, then the embedded `scenario`
/// document, then explicit members. Unknown members are rejected — a typoed
/// knob must not silently hash to a fresh cache key.
pub fn config_from_json(body: &Json) -> Result<SimConfig, String> {
    let members = body
        .as_obj()
        .ok_or_else(|| "request body must be a JSON object".to_string())?;
    let mut cfg = SimConfig::default();
    if let Some(sc) = body.get("scenario") {
        let sc = Scenario::from_json(sc).map_err(|e| format!("scenario: {e}"))?;
        cfg.apply_scenario(&sc);
    }
    for (name, v) in members {
        match name.as_str() {
            "scenario" => {} // applied above, before the explicit members
            "protocol" => {
                let s = v.as_str().ok_or("'protocol' must be a string")?;
                cfg.protocol = CicKind::parse(s)
                    .map(ProtocolChoice::Cic)
                    .ok_or_else(|| format!("unknown protocol '{s}'"))?;
            }
            "pb_codec" => {
                let s = v.as_str().ok_or("'pb_codec' must be a string")?;
                cfg.pb_codec =
                    PbCodec::parse(s).ok_or_else(|| format!("unknown piggyback codec '{s}'"))?;
            }
            "logging" => {
                let s = v.as_str().ok_or("'logging' must be a string")?;
                cfg.logging = LoggingMode::parse(s)?;
            }
            "n_mhs" => cfg.n_mhs = count(v, name)?,
            "n_mss" => cfg.n_mss = count(v, name)?,
            "t_switch" => cfg.t_switch = num(v, name)?,
            "p_switch" => cfg.p_switch = num(v, name)?,
            "heterogeneity" | "h" => cfg.heterogeneity = num(v, name)?,
            "horizon" => cfg.horizon = num(v, name)?,
            "seed" => cfg.seed = uint(v, name)?,
            "p_send" | "ps" => cfg.p_send = num(v, name)?,
            "dup_prob" | "dup" => cfg.dup_prob = num(v, name)?,
            "flush_latency" => cfg.flush_latency = num(v, name)?,
            "fail_mtbf" => cfg.fail_mtbf = num(v, name)?,
            "fail_mss_mtbf" => cfg.fail_mss_mtbf = num(v, name)?,
            other => return Err(format!("unknown config member '{other}'")),
        }
    }
    cfg.check().map_err(|e| e.to_string())?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::parse;

    #[test]
    fn run_key_ignores_host_local_knobs() {
        let base = SimConfig::default();
        // Worker counts (`--jobs`, `--par-workers`) are byte-neutral and
        // live outside `SimConfig`, so equal configs share one entry.
        assert_eq!(run_key(&base), run_key(&base.clone()));
        let mut rle = base.clone();
        rle.pb_codec = PbCodec::Rle;
        // The wire codec changes modelled byte counts: distinct address.
        assert_ne!(run_key(&base), run_key(&rle));
    }

    #[test]
    fn config_from_json_applies_precedence_and_rejects_unknowns() {
        let body = parse(
            r#"{"protocol":"TP","t_switch":250,"seed":9,
                "scenario":{"schema":"mck.scenario/v1","name":"t","params":{"t_switch":999,"p_send":0.7}}}"#,
        )
        .unwrap();
        let cfg = config_from_json(&body).unwrap();
        // Explicit member beats the scenario override, which beats defaults.
        assert_eq!(cfg.t_switch, 250.0);
        assert_eq!(cfg.p_send, 0.7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.protocol.name(), "TP");

        let bad = parse(r#"{"t_swich":250}"#).unwrap();
        assert!(config_from_json(&bad).unwrap_err().contains("t_swich"));
        let invalid = parse(r#"{"t_switch":-4}"#).unwrap();
        assert!(config_from_json(&invalid).is_err());
        assert!(config_from_json(&Json::Num(3.0)).is_err());
    }

    #[test]
    fn world_size_members_key_like_scenario_params() {
        let direct = config_from_json(
            &parse(r#"{"protocol":"QBC","n_mhs":500,"n_mss":20,"horizon":100}"#).unwrap(),
        )
        .unwrap();
        let via_scenario = config_from_json(
            &parse(
                r#"{"protocol":"QBC","horizon":100,
                    "scenario":{"schema":"mck.scenario/v1","params":{"n_mhs":500,"n_mss":20}}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!((direct.n_mhs, direct.n_mss), (500, 20));
        assert_eq!(run_key(&direct), run_key(&via_scenario));
        let default_world =
            config_from_json(&parse(r#"{"protocol":"QBC","horizon":100}"#).unwrap()).unwrap();
        assert_ne!(run_key(&direct), run_key(&default_world));
        assert!(config_from_json(&parse(r#"{"n_mhs":1}"#).unwrap()).is_err());
        assert!(config_from_json(&parse(r#"{"n_mss":-3}"#).unwrap())
            .unwrap_err()
            .contains("n_mss"));
    }

    #[test]
    fn round_interval_distinguishes_coordinated_configs() {
        let cl = |interval| SimConfig {
            protocol: ProtocolChoice::ChandyLamport { interval },
            ..SimConfig::default()
        };
        let (every_100, every_300) = (cl(100.0), cl(300.0));
        let config = |cfg: &SimConfig| mck::artifact::config_json(cfg).to_pretty();
        assert_ne!(config(&every_100), config(&every_300));
        assert!(config(&every_100).contains("\"round_interval\": 100"));
        assert_ne!(run_key(&every_100), run_key(&every_300));
        // The CIC protocols run no rounds and carry no such member.
        assert!(!config(&SimConfig::default()).contains("round_interval"));
    }

    #[test]
    fn request_member_order_never_changes_the_key() {
        let a = config_from_json(&parse(r#"{"t_switch":500,"seed":3,"protocol":"QBC"}"#).unwrap())
            .unwrap();
        let b = config_from_json(&parse(r#"{"protocol":"QBC","seed":3,"t_switch":500}"#).unwrap())
            .unwrap();
        assert_eq!(run_key(&a), run_key(&b));
    }
}
