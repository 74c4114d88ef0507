//! Named-metric registry.
//!
//! A [`MetricsRegistry`] is the single place a simulation reports its
//! accounting: monotone **counters** (checkpoints, messages, bytes),
//! last-value **gauges** (queue depths, channel occupancy) and log-scale
//! **histograms** (latencies, dispatch times). Components register a metric
//! once by static name and keep the returned typed handle; the hot-path
//! update through a handle is an array index — and on a *disabled* registry
//! registration returns a sentinel handle whose updates are a branch and a
//! return, so instrumentation can stay compiled in unconditionally.
//!
//! A registry can be frozen into a [`MetricsSnapshot`] — a plain, sorted,
//! serializable view used by reports, artifacts and the CLI's table views.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::LogHistogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

const DISABLED: usize = usize::MAX;

/// The metrics of one kind: a sorted name index into a slot vector.
///
/// Registration is one ordered-map lookup, updates index the vector, and
/// a snapshot walks the names in order, so nothing is ever sorted.
#[derive(Debug, Clone)]
struct Family<T> {
    slots: BTreeMap<String, usize>,
    values: Vec<T>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family {
            slots: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T> Family<T> {
    /// The slot of `name`, registering it with `init()` when new.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> T) -> usize {
        if let Some(&i) = self.slots.get(name) {
            return i;
        }
        let i = self.values.len();
        self.slots.insert(name.to_string(), i);
        self.values.push(init());
        i
    }

    /// `f(name, value)` in name order, moving the names.
    fn into_sorted<U>(self, mut f: impl FnMut(String, &T) -> U) -> Vec<U> {
        let values = self.values;
        self.slots
            .into_iter()
            .map(|(n, i)| f(n, &values[i]))
            .collect()
    }
}

/// Registry of named counters, gauges and log-scale histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Family<u64>,
    gauges: Family<f64>,
    histograms: Family<LogHistogram>,
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            ..Default::default()
        }
    }

    /// A disabled registry: registration hands out sentinel handles and all
    /// updates are near-zero-cost no-ops.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-fetches) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId(DISABLED);
        }
        CounterId(self.counters.slot(name, || 0))
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if id.0 == DISABLED {
            return;
        }
        self.counters.values[id.0] += n;
    }

    /// Adds one to a counter.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter (0 on a disabled registry).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        if id.0 == DISABLED {
            0
        } else {
            self.counters.values[id.0]
        }
    }

    /// Registers (or re-fetches) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if !self.enabled {
            return GaugeId(DISABLED);
        }
        GaugeId(self.gauges.slot(name, || 0.0))
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        if id.0 == DISABLED {
            return;
        }
        self.gauges.values[id.0] = value;
    }

    /// Sets a gauge to `value` if it exceeds the current reading (high-water
    /// mark tracking).
    #[inline]
    pub fn set_max(&mut self, id: GaugeId, value: f64) {
        if id.0 == DISABLED {
            return;
        }
        let g = &mut self.gauges.values[id.0];
        if value > *g {
            *g = value;
        }
    }

    /// Current value of a gauge (0 on a disabled registry).
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        if id.0 == DISABLED {
            0.0
        } else {
            self.gauges.values[id.0]
        }
    }

    /// Registers (or re-fetches) a log-scale histogram by name.
    pub fn histogram(&mut self, name: &str, first_edge: f64, growth: f64, bins: usize) -> HistogramId {
        if !self.enabled {
            return HistogramId(DISABLED);
        }
        HistogramId(
            self.histograms
                .slot(name, || LogHistogram::new(first_edge, growth, bins)),
        )
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        if id.0 == DISABLED {
            return;
        }
        self.histograms.values[id.0].record(x);
    }

    /// Freezes the current state into a sorted, serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.clone().into_snapshot()
    }

    /// Like [`MetricsRegistry::snapshot`], but consumes the registry and
    /// moves its names into the snapshot instead of cloning them.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.into_sorted(|n, &v| (n, v)),
            gauges: self.gauges.into_sorted(|n, &v| (n, v)),
            histograms: self.histograms.into_sorted(HistogramSnapshot::of),
        }
    }
}

/// One histogram frozen for reporting: quantiles plus non-empty bins.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Approximate median (a bin upper edge).
    pub p50: f64,
    /// Approximate 99th percentile (a bin upper edge).
    pub p99: f64,
    /// `(upper_edge, count)` for bins with at least one observation.
    pub bins: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    fn of(name: String, h: &LogHistogram) -> Self {
        HistogramSnapshot {
            name,
            count: h.count(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            bins: h.iter().filter(|(_, c)| *c > 0).collect(),
        }
    }
}

/// An immutable, name-sorted view of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::uint(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&h.name)),
                                ("count".into(), Json::uint(h.count)),
                                ("p50".into(), Json::Num(h.p50)),
                                ("p99".into(), Json::Num(h.p99)),
                                (
                                    "bins".into(),
                                    Json::Arr(
                                        h.bins
                                            .iter()
                                            .map(|(edge, c)| {
                                                Json::Arr(vec![
                                                    Json::Num(*edge),
                                                    Json::uint(*c),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Counters become `counter` families, gauges `gauge` families, and each
    /// histogram contributes a `_count` plus quantile gauges (`quantile`
    /// label, matching summary conventions). Metric names are sanitized to
    /// the Prometheus charset: every character outside `[a-zA-Z0-9_:]` maps
    /// to `_` (so `ckpt.total` exports as `ckpt_total`). This is the
    /// telemetry surface a future `mck serve` endpoint would expose.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = sanitize(&h.name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            out.push_str(&format!("{n}{{quantile=\"0.5\"}} {}\n", h.p50));
            out.push_str(&format!("{n}{{quantile=\"0.99\"}} {}\n", h.p99));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }

    /// Rebuilds a snapshot from its [`MetricsSnapshot::to_json`] form.
    pub fn from_json(v: &Json) -> Option<MetricsSnapshot> {
        let counters = v
            .get("counters")?
            .as_obj()?
            .iter()
            .map(|(n, val)| Some((n.clone(), val.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        let gauges = v
            .get("gauges")?
            .as_obj()?
            .iter()
            .map(|(n, val)| Some((n.clone(), val.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        let histograms = v
            .get("histograms")?
            .as_arr()?
            .iter()
            .map(|h| {
                Some(HistogramSnapshot {
                    name: h.get("name")?.as_str()?.to_string(),
                    count: h.get("count")?.as_u64()?,
                    p50: h.get("p50")?.as_f64()?,
                    p99: h.get("p99")?.as_f64()?,
                    bins: h
                        .get("bins")?
                        .as_arr()?
                        .iter()
                        .map(|b| {
                            let pair = b.as_arr()?;
                            Some((pair.first()?.as_f64()?, pair.get(1)?.as_u64()?))
                        })
                        .collect::<Option<Vec<_>>>()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_arithmetic() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("ckpt.total");
        let b = r.counter("msgs.sent");
        r.incr(a);
        r.add(a, 4);
        r.incr(b);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counter_value(b), 1);
        // Re-registration returns the same handle and value.
        let a2 = r.counter("ckpt.total");
        assert_eq!(a, a2);
        assert_eq!(r.counter_value(a2), 5);
    }

    #[test]
    fn gauge_set_and_max() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("queue.depth");
        r.set(g, 3.0);
        assert_eq!(r.gauge_value(g), 3.0);
        r.set_max(g, 2.0);
        assert_eq!(r.gauge_value(g), 3.0);
        r.set_max(g, 7.5);
        assert_eq!(r.gauge_value(g), 7.5);
    }

    #[test]
    fn histogram_bucketing() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", 1.0, 2.0, 8);
        for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
            r.observe(h, x);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.p50, 4.0);
        let total: u64 = hs.bins.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn disabled_registry_is_noop() {
        let mut r = MetricsRegistry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        let g = r.gauge("y");
        let h = r.histogram("z", 1.0, 2.0, 4);
        r.incr(c);
        r.set(g, 9.0);
        r.set_max(g, 10.0);
        r.observe(h, 1.0);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.gauge_value(g), 0.0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut r = MetricsRegistry::new();
        let z = r.counter("zz");
        let a = r.counter("aa");
        r.add(z, 2);
        r.incr(a);
        let g = r.gauge("gg");
        r.set(g, 1.25);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "aa");
        assert_eq!(snap.counters[1].0, "zz");
        assert_eq!(snap.counter("zz"), Some(2));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("gg"), Some(1.25));
        assert!(!snap.is_empty());
    }

    #[test]
    fn consuming_snapshot_matches_borrowed_one() {
        let mut r = MetricsRegistry::new();
        for name in ["mh.10.ckpts", "mh.2.ckpts", "ckpt.total"] {
            let c = r.counter(name);
            r.add(c, name.len() as u64);
        }
        let g = r.gauge("run.end_time");
        r.set(g, 9.5);
        let h = r.histogram("lat", 1.0, 2.0, 4);
        r.observe(h, 3.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["ckpt.total", "mh.10.ckpts", "mh.2.ckpts"]);
        assert_eq!(r.into_snapshot(), snap);
    }

    #[test]
    fn prefix_queries() {
        let mut r = MetricsRegistry::new();
        for (name, n) in [("mh.0.ckpts", 3), ("mh.1.ckpts", 5), ("net.bytes", 7)] {
            let c = r.counter(name);
            r.add(c, n);
        }
        let snap = r.snapshot();
        let per_mh: Vec<_> = snap.counters_with_prefix("mh.").collect();
        assert_eq!(per_mh, vec![("mh.0.ckpts", 3), ("mh.1.ckpts", 5)]);
    }

    #[test]
    fn prometheus_exposition_sanitizes_and_types() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("ckpt.total");
        r.add(c, 12);
        let g = r.gauge("mailbox.max_depth");
        r.set(g, 3.0);
        let h = r.histogram("dispatch.ns", 16.0, 2.0, 8);
        r.observe(h, 40.0);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ckpt_total counter\nckpt_total 12\n"));
        assert!(text.contains("# TYPE mailbox_max_depth gauge\nmailbox_max_depth 3\n"));
        assert!(text.contains("# TYPE dispatch_ns summary\n"));
        assert!(text.contains("dispatch_ns{quantile=\"0.5\"} 64\n"));
        assert!(text.contains("dispatch_ns_count 1\n"));
        // No unsanitized dots survive in metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitized name: {name}");
        }
    }

    #[test]
    fn snapshot_json_round_trip() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("n_tot");
        r.add(c, 42);
        let g = r.gauge("occupancy");
        r.set(g, 0.75);
        let h = r.histogram("lat", 1.0, 2.0, 6);
        r.observe(h, 2.5);
        r.observe(h, 40.0);
        let snap = r.snapshot();
        let back = MetricsSnapshot::from_json(&crate::json::parse(&snap.to_json().to_compact()).unwrap())
            .unwrap();
        assert_eq!(back, snap);
    }
}
