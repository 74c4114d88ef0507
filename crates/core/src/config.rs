//! Simulation configuration.
//!
//! [`SimConfig`] captures every parameter of the paper's simulation model
//! (Section 5.1), with the paper's values as defaults:
//!
//! * 10 mobile hosts, 5 support stations;
//! * internal-event execution time ~ Exp(mean 1.0);
//! * a communicating host sends with probability `P_s = 0.4`, receives
//!   otherwise;
//! * message destinations uniform over the other hosts;
//! * 0.01 time units per wireless hop and per MSS–MSS transfer;
//! * upon entering a cell, the host will *switch* again with probability
//!   `P_switch` after Exp(`T_switch`) time, or *disconnect* with probability
//!   `1 − P_switch` after Exp(`T_switch / 3`);
//! * disconnection lasts Exp(1000);
//! * heterogeneity `H`: that fraction of the hosts is "fast", with
//!   permanence time `T_switch / 10`;
//! * hand-off = 2 control messages, disconnection = 1.

use cic::coordinated::{ChandyLamport, KooToueg, PrakashSinghal};
use cic::piggyback::PbCodec;
use cic::protocol::Protocol;
use cic::CicKind;
use mobnet::{IncrementalModel, Latencies};
use scenario::{EnvParams, EnvSpec, Scenario, ScenarioError};

/// A parameter of [`SimConfig`] outside its valid domain, reported by
/// [`SimConfig::check`] instead of simulating garbage.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Fewer than two mobile hosts: nobody to communicate with.
    TooFewHosts(usize),
    /// A probability parameter outside `[0, 1]`.
    Probability {
        /// Parameter name (e.g. `"p_switch"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A duration / rate parameter that must be strictly positive.
    NonPositive {
        /// Parameter name (e.g. `"t_switch"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A parameter that must be non-negative (`ckpt_duration`).
    Negative {
        /// Parameter name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `fast_factor` below 1 would make "fast" hosts slower than slow ones.
    FastFactor(f64),
    /// Wireless bandwidth must be positive (infinity = paper model).
    Bandwidth(f64),
    /// The environment spec (topology / mobility / traffic) is invalid —
    /// includes empty or disconnected topology graphs.
    Scenario(ScenarioError),
    /// A mean-time-between-failures knob is negative or NaN (0 disables
    /// that failure class; a positive value is a Poisson rate's mean).
    Mtbf {
        /// Parameter name (`"fail_mtbf"` or `"fail_mss_mtbf"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The optimistic flush latency is negative or NaN.
    FlushLatency(f64),
    /// MSS crashes were requested without message logging: a crashed
    /// station loses the undelivered messages it proxies, so recovery is
    /// only defined when receives are logged.
    MssCrashWithoutLogging,
}

impl From<ScenarioError> for ConfigError {
    fn from(e: ScenarioError) -> Self {
        ConfigError::Scenario(e)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewHosts(n) => {
                write!(f, "need at least two hosts to communicate (got {n})")
            }
            ConfigError::Probability { field, value } => {
                write!(f, "{field} out of range [0,1] (got {value})")
            }
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive (got {value})")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative (got {value})")
            }
            ConfigError::FastFactor(v) => {
                write!(f, "fast_factor must be at least 1 (got {v})")
            }
            ConfigError::Bandwidth(v) => write!(f, "bandwidth must be positive (got {v})"),
            ConfigError::Scenario(e) => write!(f, "{e}"),
            ConfigError::Mtbf { field, value } => {
                write!(f, "{field} must be non-negative (got {value}; 0 disables failures)")
            }
            ConfigError::FlushLatency(v) => {
                write!(f, "flush_latency must be non-negative (got {v})")
            }
            ConfigError::MssCrashWithoutLogging => {
                write!(
                    f,
                    "MSS crashes require message logging (--logging pessimistic|optimistic): \
                     a crashed station loses the receives it proxies"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which checkpointing protocol a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolChoice {
    /// A communication-induced protocol (TP / BCS / QBC) or the
    /// uncoordinated baseline.
    Cic(CicKind),
    /// Chandy–Lamport coordinated snapshots initiated every `interval` time
    /// units by a rotating initiator.
    ChandyLamport {
        /// Mean time between snapshot rounds.
        interval: f64,
    },
    /// Prakash–Singhal-style minimal-process coordination every `interval`.
    PrakashSinghal {
        /// Mean time between coordination rounds.
        interval: f64,
    },
    /// Koo–Toueg blocking minimal-process coordination every `interval`.
    KooToueg {
        /// Mean time between coordination rounds.
        interval: f64,
    },
}

impl ProtocolChoice {
    /// Every protocol, in the class comparison's row order; the coordinated
    /// ones run a round every `interval`.
    pub const fn all(interval: f64) -> [ProtocolChoice; 7] {
        [
            ProtocolChoice::Cic(CicKind::Qbc),
            ProtocolChoice::Cic(CicKind::Bcs),
            ProtocolChoice::Cic(CicKind::Tp),
            ProtocolChoice::Cic(CicKind::Uncoordinated),
            ProtocolChoice::ChandyLamport { interval },
            ProtocolChoice::PrakashSinghal { interval },
            ProtocolChoice::KooToueg { interval },
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolChoice::Cic(k) => k.name(),
            ProtocolChoice::ChandyLamport { .. } => "CL",
            ProtocolChoice::PrakashSinghal { .. } => "PS",
            ProtocolChoice::KooToueg { .. } => "KT",
        }
    }

    /// The protocol instance for host `me` of `n`, initially at MSS `mss`;
    /// `codec` selects TP's vector wire codec and is ignored by the others.
    pub fn instantiate(self, me: usize, n: usize, mss: u32, codec: PbCodec) -> Box<dyn Protocol> {
        match self {
            ProtocolChoice::Cic(kind) => kind.instantiate_with(me, n, mss, codec),
            ProtocolChoice::ChandyLamport { .. } => Box::new(ChandyLamport::new(me, n)),
            ProtocolChoice::PrakashSinghal { .. } => Box::new(PrakashSinghal::new(me, n)),
            ProtocolChoice::KooToueg { .. } => Box::new(KooToueg::new(me, n)),
        }
    }

    /// Time between coordination rounds, or `None` for the protocols that
    /// run no rounds.
    pub fn interval(self) -> Option<f64> {
        match self {
            ProtocolChoice::Cic(_) => None,
            ProtocolChoice::ChandyLamport { interval }
            | ProtocolChoice::PrakashSinghal { interval }
            | ProtocolChoice::KooToueg { interval } => Some(interval),
        }
    }
}

/// Message-logging discipline of a run.
///
/// Logging is an *overlay*: it adds stable-storage writes at the stations
/// but never schedules events or consumes randomness, so a run's event
/// trajectory (and hence its trace, counters and figures) is byte-identical
/// with logging on or off. Only the log-accounting fields of the report
/// differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LoggingMode {
    /// No message logging (the paper's model).
    #[default]
    Off,
    /// Pessimistic receiver-side logging at the MSS: every message is
    /// synchronously logged to the responsible station's stable storage
    /// before delivery to the mobile host (the MSS-proxy scheme).
    Pessimistic,
    /// Optimistic receiver-side logging: the MSS buffers log entries in
    /// volatile memory and flushes them asynchronously. An entry becomes
    /// stable `flush_latency` after delivery, or immediately when a flush
    /// barrier (hand-off or checkpoint of the receiver) runs first. With
    /// `flush_latency = 0` this degenerates to pessimistic logging.
    Optimistic,
}

impl LoggingMode {
    /// Display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            LoggingMode::Off => "off",
            LoggingMode::Pessimistic => "pessimistic",
            LoggingMode::Optimistic => "optimistic",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(LoggingMode::Off),
            "pessimistic" => Ok(LoggingMode::Pessimistic),
            "optimistic" => Ok(LoggingMode::Optimistic),
            other => Err(format!(
                "unknown logging mode '{other}' (off|pessimistic|optimistic)"
            )),
        }
    }

    /// Whether any logging machinery should be instantiated.
    pub fn is_enabled(self) -> bool {
        self != LoggingMode::Off
    }

    /// Whether log entries become stable asynchronously.
    pub fn is_optimistic(self) -> bool {
        self == LoggingMode::Optimistic
    }
}

/// Full parameter set of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of mobile hosts (`n`).
    pub n_mhs: usize,
    /// Number of support stations / cells (`r`).
    pub n_mss: usize,
    /// Probability that a communication operation is a send (`P_s`).
    pub p_send: f64,
    /// Mean execution time of an internal event.
    pub internal_mean: f64,
    /// Probability that a host entering a cell roams onward rather than
    /// disconnecting (`P_switch`).
    pub p_switch: f64,
    /// Mean permanence time in a cell for the *slow* hosts (`T_switch`).
    pub t_switch: f64,
    /// Heterogeneity: fraction of hosts that are fast (`H`).
    pub heterogeneity: f64,
    /// Fast hosts' permanence time is `t_switch / fast_factor` (paper: 10).
    pub fast_factor: f64,
    /// Dwell time before a disconnection is `Exp(t_switch / disc_divisor)`
    /// (paper: 3).
    pub disc_divisor: f64,
    /// Mean disconnection duration (paper: 1000).
    pub reconnect_mean: f64,
    /// Network latencies.
    pub latencies: Latencies,
    /// Environment specification: cell topology, mobility model, and
    /// traffic model. Defaults to the paper's environment (complete graph,
    /// exponential dwells with uniform hand-off, uniform traffic).
    pub env: EnvSpec,
    /// Wireless channel bandwidth in bytes per time unit; infinity (the
    /// default) reproduces the paper's pure-latency model, a finite value
    /// serializes same-cell transmissions (paper point (b): channel
    /// contention).
    pub wireless_bandwidth: f64,
    /// Time to take a checkpoint (0 = instantaneous, the paper's default;
    /// the paper reports a non-negligible value has no remarkable impact).
    pub ckpt_duration: f64,
    /// Probability that the transport duplicates a delivered message
    /// (exercises the at-least-once assumption; 0 by default).
    pub dup_prob: f64,
    /// Incremental-checkpoint state model.
    pub incremental: IncrementalModel,
    /// Mean period of the periodic checkpoints taken by the uncoordinated
    /// baseline (ignored by the CIC protocols).
    pub periodic_mean: f64,
    /// The protocol under test.
    pub protocol: ProtocolChoice,
    /// Simulated horizon (the paper's "each run simulates N time units").
    pub horizon: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Record a full causality trace (needed for recovery analysis; costs
    /// memory proportional to events).
    pub record_trace: bool,
    /// Message-logging discipline (off by default; pessimistic logging adds
    /// MSS-side stable writes without perturbing the trajectory).
    pub logging: LoggingMode,
    /// Mean time between crashes of each mobile host (Poisson process,
    /// independent per host). 0 — the default — disables MH crashes; only
    /// then is the trajectory byte-identical to a failure-free run.
    pub fail_mtbf: f64,
    /// Mean time between crashes of each support station (Poisson process,
    /// independent per station). A station crash fail-stops every host
    /// attached to it. 0 — the default — disables MSS crashes; a positive
    /// value requires message logging.
    pub fail_mss_mtbf: f64,
    /// Optimistic logging only: time after delivery until an entry's
    /// asynchronous flush reaches stable storage (hand-off / checkpoint
    /// barriers force it earlier). 0 matches pessimistic stability.
    pub flush_latency: f64,
    /// Application payload size in bytes (for channel/energy accounting).
    pub payload_bytes: u64,
    /// Wire codec for TP's vector piggybacks (other protocols' piggybacks
    /// are already O(1) and ignore this). `Dense` — the byte-identical
    /// default — carries the paper's two flat `n`-integer vectors; `Rle`
    /// run-length codes them, changing only the modelled wire bytes, never
    /// the checkpoint trajectory.
    pub pb_codec: PbCodec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_mhs: 10,
            n_mss: 5,
            p_send: 0.4,
            internal_mean: 1.0,
            p_switch: 1.0,
            t_switch: 1000.0,
            heterogeneity: 0.0,
            fast_factor: 10.0,
            disc_divisor: 3.0,
            reconnect_mean: 1000.0,
            latencies: Latencies::default(),
            env: EnvSpec::default(),
            wireless_bandwidth: f64::INFINITY,
            ckpt_duration: 0.0,
            dup_prob: 0.0,
            incremental: IncrementalModel::default(),
            periodic_mean: 100.0,
            protocol: ProtocolChoice::Cic(CicKind::Qbc),
            horizon: 10_000.0,
            seed: 1,
            record_trace: false,
            logging: LoggingMode::default(),
            fail_mtbf: 0.0,
            fail_mss_mtbf: 0.0,
            flush_latency: 0.0,
            payload_bytes: 256,
            pb_codec: PbCodec::default(),
        }
    }
}

impl SimConfig {
    /// The paper's base configuration for a given figure point.
    pub fn paper(protocol: ProtocolChoice, t_switch: f64, p_switch: f64, h: f64) -> Self {
        SimConfig {
            protocol,
            t_switch,
            p_switch,
            heterogeneity: h,
            ..Default::default()
        }
    }

    /// Mean cell-permanence time of host `i` under heterogeneity `H`: the
    /// first `⌈H·n⌉` hosts are fast (`t_switch / fast_factor`), the rest are
    /// slow (`t_switch`). Which hosts are fast is immaterial because
    /// destinations are uniform.
    pub fn t_switch_of(&self, i: usize) -> f64 {
        if i < self.n_fast() {
            self.t_switch / self.fast_factor
        } else {
            self.t_switch
        }
    }

    /// Number of fast hosts implied by `heterogeneity`.
    pub fn n_fast(&self) -> usize {
        (self.heterogeneity * self.n_mhs as f64).round() as usize
    }

    /// The environment parameters scenario models consume, derived from
    /// the scalar configuration (per-host dwell means already include the
    /// fast-host split).
    pub fn env_params(&self) -> EnvParams {
        EnvParams {
            n_hosts: self.n_mhs,
            n_cells: self.n_mss,
            p_switch: self.p_switch,
            dwell_means: (0..self.n_mhs).map(|i| self.t_switch_of(i)).collect(),
            disc_divisor: self.disc_divisor,
            reconnect_mean: self.reconnect_mean,
            p_send: self.p_send,
        }
    }

    /// Applies a scenario: the environment spec replaces the config's, and
    /// any scalar overrides the scenario sets are copied in. Callers that
    /// also take explicit flags should apply them *after* this, so flags
    /// win over the file.
    pub fn apply_scenario(&mut self, sc: &Scenario) {
        self.env = sc.env.clone();
        let o = &sc.overrides;
        if let Some(v) = o.n_mhs {
            self.n_mhs = v;
        }
        if let Some(v) = o.n_mss {
            self.n_mss = v;
        }
        if let Some(v) = o.p_send {
            self.p_send = v;
        }
        if let Some(v) = o.p_switch {
            self.p_switch = v;
        }
        if let Some(v) = o.t_switch {
            self.t_switch = v;
        }
        if let Some(v) = o.heterogeneity {
            self.heterogeneity = v;
        }
        if let Some(v) = o.reconnect_mean {
            self.reconnect_mean = v;
        }
        if let Some(v) = o.horizon {
            self.horizon = v;
        }
        if let Some(v) = o.fail_mtbf {
            self.fail_mtbf = v;
        }
        if let Some(v) = o.flush_latency {
            self.flush_latency = v;
        }
    }

    /// Whether this run injects crashes (any failure class enabled). Only
    /// a failure-free run is byte-identical to the classic trajectory.
    pub fn failures_enabled(&self) -> bool {
        self.fail_mtbf > 0.0 || self.fail_mss_mtbf > 0.0
    }

    /// Checks every parameter against its valid domain, including the
    /// environment spec (topology connectivity, matrix/trace shape, ...).
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.n_mhs < 2 {
            return Err(ConfigError::TooFewHosts(self.n_mhs));
        }
        for (field, value) in [
            ("p_send", self.p_send),
            ("p_switch", self.p_switch),
            ("heterogeneity", self.heterogeneity),
            ("dup_prob", self.dup_prob),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::Probability { field, value });
            }
        }
        for (field, value) in [
            ("t_switch", self.t_switch),
            ("internal_mean", self.internal_mean),
            ("disc_divisor", self.disc_divisor),
            ("reconnect_mean", self.reconnect_mean),
            ("horizon", self.horizon),
            ("periodic_mean", self.periodic_mean),
        ] {
            if value <= 0.0 || value.is_nan() {
                return Err(ConfigError::NonPositive { field, value });
            }
        }
        if self.fast_factor < 1.0 {
            return Err(ConfigError::FastFactor(self.fast_factor));
        }
        if self.ckpt_duration < 0.0 {
            return Err(ConfigError::Negative {
                field: "ckpt_duration",
                value: self.ckpt_duration,
            });
        }
        if self.wireless_bandwidth <= 0.0 || self.wireless_bandwidth.is_nan() {
            return Err(ConfigError::Bandwidth(self.wireless_bandwidth));
        }
        for (field, value) in [
            ("fail_mtbf", self.fail_mtbf),
            ("fail_mss_mtbf", self.fail_mss_mtbf),
        ] {
            if value < 0.0 || value.is_nan() {
                return Err(ConfigError::Mtbf { field, value });
            }
        }
        if self.flush_latency < 0.0 || self.flush_latency.is_nan() {
            return Err(ConfigError::FlushLatency(self.flush_latency));
        }
        if self.fail_mss_mtbf > 0.0 && !self.logging.is_enabled() {
            return Err(ConfigError::MssCrashWithoutLogging);
        }
        self.env.validate(&self.env_params())?;
        Ok(())
    }

    /// Panics if any parameter is out of its valid domain. Prefer
    /// [`SimConfig::check`] where an error can be reported.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid config: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.n_mhs, 10);
        assert_eq!(c.n_mss, 5);
        assert_eq!(c.p_send, 0.4);
        assert_eq!(c.internal_mean, 1.0);
        assert_eq!(c.reconnect_mean, 1000.0);
        assert_eq!(c.latencies.wireless, 0.01);
        assert_eq!(c.fast_factor, 10.0);
        assert_eq!(c.disc_divisor, 3.0);
        c.validate();
    }

    #[test]
    fn check_rejects_out_of_range_probabilities() {
        for (field, value) in [("p_switch", -0.1), ("p_switch", 1.5), ("p_send", 2.0)] {
            let mut c = SimConfig::default();
            match field {
                "p_switch" => c.p_switch = value,
                _ => c.p_send = value,
            }
            match c.check() {
                Err(ConfigError::Probability { field: f, value: v }) => {
                    assert_eq!(f, field);
                    assert_eq!(v, value);
                }
                other => panic!("expected Probability error for {field}={value}, got {other:?}"),
            }
        }
    }

    #[test]
    fn check_rejects_non_positive_durations() {
        for t_switch in [0.0, -5.0, f64::NAN] {
            let c = SimConfig {
                t_switch,
                ..Default::default()
            };
            match c.check() {
                Err(ConfigError::NonPositive { field, .. }) => assert_eq!(field, "t_switch"),
                other => panic!("expected NonPositive for t_switch={t_switch}, got {other:?}"),
            }
        }
    }

    #[test]
    fn check_rejects_too_few_hosts() {
        let c = SimConfig {
            n_mhs: 1,
            ..Default::default()
        };
        assert!(matches!(c.check(), Err(ConfigError::TooFewHosts(1))));
    }

    #[test]
    fn check_rejects_empty_and_disconnected_topologies() {
        use scenario::TopologySpec;
        // An empty adjacency list: zero cells.
        let mut c = SimConfig::default();
        c.env.topology = TopologySpec::Custom { adjacency: vec![] };
        match c.check() {
            Err(ConfigError::Scenario(e)) => {
                let msg = e.to_string();
                assert!(msg.contains("adjacency"), "unexpected message: {msg}");
            }
            other => panic!("expected Scenario error for empty topology, got {other:?}"),
        }
        // Two weakly-linked islands: 0↔1 and 2↔3 with no bridge.
        let mut c = SimConfig {
            n_mss: 4,
            ..Default::default()
        };
        c.env.topology = TopologySpec::Custom {
            adjacency: vec![vec![1], vec![0], vec![3], vec![2]],
        };
        match c.check() {
            Err(ConfigError::Scenario(e)) => {
                let msg = e.to_string();
                assert!(msg.contains("unreachable") || msg.contains("reach"), "{msg}");
            }
            other => panic!("expected Scenario error for split topology, got {other:?}"),
        }
    }

    #[test]
    fn check_rejects_malformed_markov_models() {
        use scenario::MobilitySpec;
        // Row sums must be 1: this row leaks mass.
        let mut c = SimConfig {
            n_mss: 2,
            ..Default::default()
        };
        c.env.mobility = MobilitySpec::Markov {
            matrix: vec![vec![0.0, 0.5], vec![1.0, 0.0]],
            cell_dwell_means: None,
            p_disconnect: 0.0,
        };
        assert!(matches!(c.check(), Err(ConfigError::Scenario(_))));
        // p_disconnect is a probability.
        let mut c = SimConfig {
            n_mss: 2,
            ..Default::default()
        };
        c.env.mobility = MobilitySpec::Markov {
            matrix: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            cell_dwell_means: None,
            p_disconnect: 1.5,
        };
        assert!(matches!(c.check(), Err(ConfigError::Scenario(_))));
    }

    #[test]
    fn check_accepts_the_defaults_and_bundled_shapes() {
        assert!(SimConfig::default().check().is_ok());
        let mut c = SimConfig {
            n_mss: 6,
            ..Default::default()
        };
        c.env.topology = scenario::TopologySpec::Grid { cols: 3 };
        assert!(c.check().is_ok());
    }

    #[test]
    fn heterogeneity_splits_hosts() {
        let c = SimConfig {
            heterogeneity: 0.3,
            t_switch: 1000.0,
            ..Default::default()
        };
        assert_eq!(c.n_fast(), 3);
        assert_eq!(c.t_switch_of(0), 100.0);
        assert_eq!(c.t_switch_of(2), 100.0);
        assert_eq!(c.t_switch_of(3), 1000.0);
        assert_eq!(c.t_switch_of(9), 1000.0);
    }

    #[test]
    fn homogeneous_has_no_fast_hosts() {
        let c = SimConfig::default();
        assert_eq!(c.n_fast(), 0);
        assert_eq!(c.t_switch_of(0), c.t_switch);
    }

    #[test]
    fn paper_constructor_sets_point() {
        let c = SimConfig::paper(ProtocolChoice::Cic(CicKind::Bcs), 500.0, 0.8, 0.5);
        assert_eq!(c.t_switch, 500.0);
        assert_eq!(c.p_switch, 0.8);
        assert_eq!(c.heterogeneity, 0.5);
        assert_eq!(c.protocol.name(), "BCS");
        c.validate();
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolChoice::Cic(CicKind::Tp).name(), "TP");
        assert_eq!(ProtocolChoice::ChandyLamport { interval: 100.0 }.name(), "CL");
        assert_eq!(ProtocolChoice::PrakashSinghal { interval: 100.0 }.name(), "PS");
    }

    #[test]
    fn logging_mode_names_round_trip() {
        assert_eq!(LoggingMode::default(), LoggingMode::Off);
        assert!(!LoggingMode::Off.is_enabled());
        assert!(LoggingMode::Pessimistic.is_enabled());
        assert!(LoggingMode::Optimistic.is_enabled());
        assert!(LoggingMode::Optimistic.is_optimistic());
        assert!(!LoggingMode::Pessimistic.is_optimistic());
        for mode in [
            LoggingMode::Off,
            LoggingMode::Pessimistic,
            LoggingMode::Optimistic,
        ] {
            assert_eq!(LoggingMode::parse(mode.name()), Ok(mode));
        }
        assert!(LoggingMode::parse("eager").is_err());
    }

    #[test]
    fn check_rejects_negative_mtbf() {
        for value in [-1.0, f64::NAN] {
            let c = SimConfig {
                fail_mtbf: value,
                ..Default::default()
            };
            match c.check() {
                Err(ConfigError::Mtbf { field, .. }) => assert_eq!(field, "fail_mtbf"),
                other => panic!("expected Mtbf error for fail_mtbf={value}, got {other:?}"),
            }
        }
        let c = SimConfig {
            fail_mss_mtbf: -3.0,
            logging: LoggingMode::Pessimistic,
            ..Default::default()
        };
        assert!(matches!(
            c.check(),
            Err(ConfigError::Mtbf { field: "fail_mss_mtbf", .. })
        ));
    }

    #[test]
    fn check_rejects_negative_flush_latency() {
        let c = SimConfig {
            logging: LoggingMode::Optimistic,
            flush_latency: -0.5,
            ..Default::default()
        };
        assert!(matches!(c.check(), Err(ConfigError::FlushLatency(v)) if v == -0.5));
    }

    #[test]
    fn check_rejects_mss_crashes_without_logging() {
        let c = SimConfig {
            fail_mss_mtbf: 5000.0,
            logging: LoggingMode::Off,
            ..Default::default()
        };
        assert!(matches!(c.check(), Err(ConfigError::MssCrashWithoutLogging)));
        // With logging enabled, the same knob is accepted.
        let c = SimConfig {
            fail_mss_mtbf: 5000.0,
            logging: LoggingMode::Optimistic,
            ..Default::default()
        };
        assert!(c.check().is_ok());
        assert!(c.failures_enabled());
        assert!(!SimConfig::default().failures_enabled());
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn validate_rejects_single_host() {
        let c = SimConfig {
            n_mhs: 1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "p_send out of range")]
    fn validate_rejects_bad_probability() {
        let c = SimConfig {
            p_send: 1.5,
            ..Default::default()
        };
        c.validate();
    }
}
