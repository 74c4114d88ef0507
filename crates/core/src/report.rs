//! Per-run results.
//!
//! [`RunReport`] is what one simulation run produces: the paper's `N_tot`
//! with its basic/forced breakdown, mobility and network counters, and
//! (optionally) the full causality trace for recovery analysis.

use causality::trace::Trace;
use faultsim::RecoveryStats;
use mobnet::{LogStoreStats, NetMetrics};
use relog::MessageLog;
use simkit::driver::EngineProfile;
use simkit::metrics::MetricsSnapshot;
use simkit::span::SpanSnapshot;
use simkit::trace::MemorySink;

use crate::table::Table;

/// Checkpoint counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptBreakdown {
    /// Basic checkpoints on cell switches.
    pub cell_switch: u64,
    /// Basic checkpoints on voluntary disconnections.
    pub disconnect: u64,
    /// Protocol-forced checkpoints on message receipt.
    pub forced: u64,
    /// Timer-driven checkpoints (uncoordinated baseline).
    pub periodic: u64,
    /// Coordination-round checkpoints (coordinated baselines).
    pub coordinated: u64,
}

impl CkptBreakdown {
    /// Total checkpoints — the paper's `N_tot`.
    pub fn total(&self) -> u64 {
        self.cell_switch + self.disconnect + self.forced + self.periodic + self.coordinated
    }

    /// Mobility-mandated (basic) checkpoints.
    pub fn basic(&self) -> u64 {
        self.cell_switch + self.disconnect
    }
}

/// The complete outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol name (as in the figures).
    pub protocol: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Checkpoint counts.
    pub ckpts: CkptBreakdown,
    /// Per-host checkpoint totals.
    pub per_mh_ckpts: Vec<u64>,
    /// QBC checkpoints that replaced their predecessor in the recovery line
    /// (stable-storage slots that could be reclaimed).
    pub replacements: u64,
    /// Hand-offs performed.
    pub handoffs: u64,
    /// Voluntary disconnections.
    pub disconnects: u64,
    /// Reconnections.
    pub reconnects: u64,
    /// Application messages sent.
    pub msgs_sent: u64,
    /// Application messages delivered (received by hosts).
    pub msgs_delivered: u64,
    /// Network / energy counters.
    pub net: NetMetrics,
    /// Events the engine dispatched.
    pub events: u64,
    /// Simulated time actually covered.
    pub end_time: f64,
    /// Completion latencies of coordinated snapshot rounds (Chandy–Lamport
    /// runs only; disconnections inflate these, which is the paper's
    /// "global checkpoint collection latency" issue).
    pub coord_round_latencies: Vec<f64>,
    /// Application sends suppressed while a blocking coordination session
    /// (Koo–Toueg) was in progress.
    pub blocked_sends: u64,
    /// Mean wireless-channel utilization across cells (0 when the
    /// pure-latency channel model is in use).
    pub channel_utilization: f64,
    /// Total time transmissions spent queueing for cell channels.
    pub channel_queueing_delay: f64,
    /// Stable-storage accounting of the MSS message logs (present when
    /// message logging was enabled).
    pub log_stats: Option<LogStoreStats>,
    /// Failure-injection outcome: crashes executed, downtime, work lost
    /// and replayed (present when failure injection was enabled).
    pub recovery: Option<RecoveryStats>,
    /// The surviving (post-GC) message log, for replay-based recovery
    /// analysis (present when message logging was enabled).
    pub message_log: Option<MessageLog>,
    /// Full causality trace, when recording was enabled.
    pub trace: Option<Trace>,
    /// Named metric snapshot (empty unless the run was instrumented with a
    /// metrics registry — see `Instrumentation`).
    pub metrics: MetricsSnapshot,
    /// Wall-clock engine profile (present only for profiled runs). Host
    /// timing lives here and in [`RunReport::spans`], never in the
    /// deterministic rows above; `mck run` prints it to stderr and the
    /// `mck.run/v1` artifact omits it entirely — profile data belongs to
    /// the separate `mck.profile/v1` artifact.
    pub profile: Option<EngineProfile>,
    /// Per-event-type / per-phase span attribution (present only when span
    /// profiling was attached).
    pub spans: Option<SpanSnapshot>,
    /// Retained trace records, when a memory sink was attached.
    pub trace_events: Option<MemorySink>,
    /// Total structured trace events emitted (0 when tracing was off).
    pub trace_emitted: u64,
}

impl RunReport {
    /// The paper's headline metric.
    pub fn n_tot(&self) -> u64 {
        self.ckpts.total()
    }

    /// Checkpoints per simulated time unit.
    pub fn ckpt_rate(&self) -> f64 {
        if self.end_time == 0.0 {
            0.0
        } else {
            self.n_tot() as f64 / self.end_time
        }
    }

    /// Forced-to-total ratio: how much of the overhead the protocol itself
    /// induced (as opposed to mobility-mandated checkpoints).
    pub fn forced_fraction(&self) -> f64 {
        let total = self.n_tot();
        if total == 0 {
            0.0
        } else {
            self.ckpts.forced as f64 / total as f64
        }
    }

    /// The run's headline numbers as a two-column table (the `mck run`
    /// output view).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "value"]);
        let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
        row("protocol", self.protocol.clone());
        row("seed", self.seed.to_string());
        row("N_tot", self.n_tot().to_string());
        row("  cell-switch", self.ckpts.cell_switch.to_string());
        row("  disconnect", self.ckpts.disconnect.to_string());
        row("  forced", self.ckpts.forced.to_string());
        if self.ckpts.periodic > 0 {
            row("  periodic", self.ckpts.periodic.to_string());
        }
        if self.ckpts.coordinated > 0 {
            row("  coordinated", self.ckpts.coordinated.to_string());
        }
        row("replacements", self.replacements.to_string());
        row("handoffs", self.handoffs.to_string());
        row("disconnects", self.disconnects.to_string());
        row(
            "msgs sent/dlv",
            format!("{}/{}", self.msgs_sent, self.msgs_delivered),
        );
        row("piggyback bytes", self.net.piggyback_bytes.to_string());
        row("searches", self.net.searches.to_string());
        row("ckpt bytes (wl)", self.net.ckpt_wireless_bytes.to_string());
        row(
            "ckpt fetches",
            format!("{} ({} bytes)", self.net.ckpt_fetches, self.net.ckpt_fetch_bytes),
        );
        row("events", self.events.to_string());
        if let Some(s) = &self.log_stats {
            row(
                "log entries",
                format!("{} ({} gc'd)", s.appended_entries, s.gc_entries),
            );
            row(
                "log bytes",
                format!("{} live / {} peak", s.live_bytes, s.peak_bytes),
            );
            row(
                "log migrations",
                format!("{} ({} bytes)", s.migrations, s.migration_bytes),
            );
        }
        if let Some(rec) = &self.recovery {
            row(
                "crashes",
                format!(
                    "{} MH / {} MSS ({} skipped)",
                    rec.mh_crashes, rec.mss_crashes, rec.skipped_crashes
                ),
            );
            row(
                "downtime",
                format!(
                    "{:.3} total / {:.3} mean / {:.3} max",
                    rec.total_downtime,
                    rec.mean_downtime(),
                    rec.max_downtime
                ),
            );
            row(
                "availability",
                format!(
                    "{:.6}",
                    rec.availability(self.per_mh_ckpts.len(), self.end_time)
                ),
            );
            row(
                "work undone/replayed",
                format!("{:.3}/{:.3}", rec.total_undone_time, rec.replayed_time),
            );
            row(
                "replayed receives",
                format!("{} ({} unstable lost)", rec.replayed_receives, rec.unstable_lost),
            );
        }
        if self.trace_emitted > 0 {
            row("trace events", self.trace_emitted.to_string());
        }
        t
    }

    /// The wall-clock profile as a short human-readable block, or `None` for
    /// unprofiled runs. Kept out of [`RunReport::summary_table`] so stdout
    /// (and anything diffing it) stays deterministic; `mck run` prints this
    /// to stderr instead.
    pub fn timing_summary(&self) -> Option<String> {
        let p = self.profile.as_ref()?;
        Some(format!(
            "wall time {:.1} ms, {:.0} events/sec, dispatch p50/p99 {:.0}/{:.0} ns, mean queue depth {:.1}",
            p.wall_ns as f64 / 1e6,
            p.events_per_sec(),
            p.dispatch_ns.quantile(0.5),
            p.dispatch_ns.quantile(0.99),
            p.queue_depth.mean(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> CkptBreakdown {
        CkptBreakdown {
            cell_switch: 10,
            disconnect: 2,
            forced: 8,
            periodic: 0,
            coordinated: 0,
        }
    }

    #[test]
    fn totals_add_up() {
        let b = breakdown();
        assert_eq!(b.total(), 20);
        assert_eq!(b.basic(), 12);
    }

    #[test]
    fn report_derived_metrics() {
        let r = RunReport {
            protocol: "QBC".into(),
            seed: 1,
            ckpts: breakdown(),
            per_mh_ckpts: vec![2; 10],
            replacements: 3,
            handoffs: 10,
            disconnects: 2,
            reconnects: 2,
            msgs_sent: 100,
            msgs_delivered: 95,
            net: NetMetrics::new(10),
            events: 1000,
            end_time: 100.0,
            coord_round_latencies: vec![],
            blocked_sends: 0,
            channel_utilization: 0.0,
            channel_queueing_delay: 0.0,
            log_stats: None,
            recovery: None,
            message_log: None,
            trace: None,
            metrics: MetricsSnapshot::default(),
            profile: None,
            spans: None,
            trace_events: None,
            trace_emitted: 0,
        };
        assert_eq!(r.n_tot(), 20);
        assert!((r.ckpt_rate() - 0.2).abs() < 1e-12);
        assert!((r.forced_fraction() - 0.4).abs() < 1e-12);
        let table = r.summary_table();
        assert!(table.render().contains("N_tot"));
    }

    #[test]
    fn zero_time_rate_is_zero() {
        let r = RunReport {
            protocol: "BCS".into(),
            seed: 0,
            ckpts: CkptBreakdown::default(),
            per_mh_ckpts: vec![],
            replacements: 0,
            handoffs: 0,
            disconnects: 0,
            reconnects: 0,
            msgs_sent: 0,
            msgs_delivered: 0,
            net: NetMetrics::new(0),
            events: 0,
            end_time: 0.0,
            coord_round_latencies: vec![],
            blocked_sends: 0,
            channel_utilization: 0.0,
            channel_queueing_delay: 0.0,
            log_stats: None,
            recovery: None,
            message_log: None,
            trace: None,
            metrics: MetricsSnapshot::default(),
            profile: None,
            spans: None,
            trace_events: None,
            trace_emitted: 0,
        };
        assert_eq!(r.ckpt_rate(), 0.0);
        assert_eq!(r.forced_fraction(), 0.0);
    }
}
