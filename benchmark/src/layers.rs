//! The per-layer metrics of a traced run: one total per name, filled by the
//! benchmark's own timed calls into each module's public functions.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order. A layer that a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simkit.pop_s", "s"),
    ("simkit.events", "count"),
    ("simkit.pending_peak", "count"),
    ("simkit.registry_s", "s"),
    ("core.world_build_s", "s"),
    ("core.activity_s", "s"),
    ("core.deliver_s", "s"),
    ("core.mobility_s", "s"),
    ("core.coord_s", "s"),
    ("core.failure_s", "s"),
    ("core.artifact_s", "s"),
    ("core.artifact_kib", "KiB"),
    ("cic.send_s", "s"),
    ("cic.receive_s", "s"),
    ("cic.basic_s", "s"),
    ("cic.forced", "count"),
    ("cic.pb_bytes", "bytes"),
    ("mobnet.location_s", "s"),
    ("mobnet.mailbox_s", "s"),
    ("mobnet.store_s", "s"),
    ("causality.clone_s", "s"),
    ("causality.trace_events", "count"),
    ("relog.plan_s", "s"),
    ("faultsim.plan_s", "s"),
    ("faultsim.crashes", "count"),
    ("servekit.key_s", "s"),
    ("servekit.put_s", "s"),
    ("servekit.get_s", "s"),
    ("servekit.cold_s", "s"),
    ("servekit.warm_s", "s"),
    ("mcheck.states", "count"),
    ("mcheck.deduped", "count"),
    ("mcheck.clone_s", "s"),
    ("mcheck.fingerprint_s", "s"),
    ("mcheck.enabled_s", "s"),
    ("mcheck.invariant_s", "s"),
    ("heap.alloc_mib", "MiB"),
    ("heap.allocs", "count"),
    ("bench.trace_overhead_s", "s"),
];

/// Totals of one traced round, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to the total of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Raises `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Runs `f`, adding its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// The total of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}
