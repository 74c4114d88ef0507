//! The composed mobile-checkpointing simulation.
//!
//! One [`Simulation`] run wires together the full stack:
//!
//! * **workload** — each connected host alternates internal computation
//!   (Exp-distributed) with communication operations: a send whose timing
//!   and destination come from the configured [`scenario::TrafficModel`]
//!   (the paper's default: probability `P_s`, uniform destination),
//!   otherwise a receive that pops the oldest message queued at its MSS;
//! * **mobility** — movement decisions come from the configured
//!   [`scenario::MobilityModel`] over the configured topology graph (the
//!   paper's default: on entering a cell the host commits to either
//!   roaming with probability `P_switch` after `Exp(T_switch_i)`, or
//!   disconnecting after `Exp(T_switch_i / 3)` for `Exp(1000)` offline),
//!   taking the mandatory *basic* checkpoint at each transition;
//! * **network** — messages hop MH→MSS (wireless), MSS→MSS (wired),
//!   MSS→MH (wireless) at the configured latencies; the location directory
//!   is consulted per send; the at-least-once transport may duplicate, the
//!   receiver deduplicates;
//! * **protocol** — one [`cic::protocol::Protocol`] instance per host
//!   decides piggybacks and forced checkpoints; the internal `coord`
//!   module times the coordinated baselines' rounds and routes their
//!   control messages without knowing which protocol runs;
//! * **storage** — every checkpoint is shipped (incrementally) to the
//!   current MSS's stable storage, fetching the base across the backbone
//!   after a cell switch.
//!
//! The run optionally records a full [`causality::Trace`] so the recovery
//! analyses can verify protocol guarantees and measure rollback costs.

use causality::trace::{CkptKind, MsgId, ProcId, Trace, TraceBuilder};
use cic::coordinated::ControlMsg;
use faultsim::{FailureModel, HostSituation, RecoveryParams, RecoveryStats};
use cic::piggyback::Piggyback;
use cic::protocol::{BasicReason, Protocol};
use mobnet::{
    AdjacencyGraph, AttachmentTable, CellChannels, CkptStore, Dedup, LocationService, LogStore,
    Mailboxes, MhId, MssId, NetMetrics, PacketId, Queued, Topology,
};
use relog::MessageLog;
use scenario::{BuiltEnv, MobilityModel, TrafficModel};
use simkit::metrics::GaugeId;
use simkit::prelude::*;
use simkit::trace::CkptClass;

use crate::config::{ProtocolChoice, SimConfig};
use crate::coord::Rounds;
use crate::report::{CkptBreakdown, RunReport};

/// Wire size charged for a mobility/coordination control message.
pub(crate) const CONTROL_BYTES: u64 = 16;

/// Per-entry stable-storage overhead of a logged message (ids, receive
/// timestamp, piggyback framing) on top of the payload bytes.
pub(crate) const LOG_ENTRY_HEADER_BYTES: u64 = 32;

/// Observability attachments for one run: a structured trace stream, the
/// metrics registry, wall-clock profiling, span attribution, and live
/// progress reporting.
///
/// The default is fully off — [`Simulation::run`] behaves exactly as before
/// observability existed, with near-zero overhead on the hot path. Every
/// attachment is a pure overlay: enabling any combination changes no byte
/// of the run's deterministic outputs (report rows, artifacts, traces).
#[derive(Default)]
pub struct Instrumentation {
    /// Trace stream subscriber(s); an inert tracer disables tracing.
    pub tracer: Tracer,
    /// Enable the named metrics registry.
    pub metrics: bool,
    /// Profile the event loop (wall-clock dispatch histogram, queue depth).
    pub profile: bool,
    /// Attribute wall time, counts and bytes to per-event-type and
    /// per-phase spans ([`simkit::span`]).
    pub spans: bool,
    /// Report live progress (events, sim-time, events/sec) to stderr.
    pub progress: bool,
}

impl Instrumentation {
    /// Everything off (the behavior of a plain [`Simulation::run`]).
    pub fn off() -> Self {
        Instrumentation::default()
    }

    /// Maps a causality-trace checkpoint kind onto the trace-stream class.
    fn class_of(kind: CkptKind) -> CkptClass {
        match kind {
            CkptKind::CellSwitch => CkptClass::CellSwitch,
            CkptKind::Disconnect => CkptClass::Disconnect,
            CkptKind::Forced => CkptClass::Forced,
            CkptKind::Periodic => CkptClass::Periodic,
            CkptKind::Coordinated => CkptClass::Coordinated,
            CkptKind::Initial => unreachable!("initial checkpoints are implicit"),
        }
    }
}

/// Payload carried by an application message.
#[derive(Debug, Clone)]
pub struct AppPayload {
    /// Checkpointing control information.
    pub(crate) pb: Piggyback,
}

/// Simulation events.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A host finishes an internal-computation step and communicates.
    Activity {
        /// The acting host.
        mh: MhId,
        /// Workload generation (stale events from before a disconnection
        /// carry an old generation and are ignored).
        gen: u32,
    },
    /// An application message reaches the destination host's MSS.
    Deliver {
        /// Destination host.
        to: MhId,
        /// The queued message.
        q: Queued<AppPayload>,
    },
    /// A host's cell dwell expires (decision fixed at cell entry).
    Mobility {
        /// The moving host.
        mh: MhId,
        /// `true` = switch cells, `false` = disconnect.
        switch: bool,
    },
    /// A disconnected host reconnects.
    Reconnect {
        /// The reconnecting host.
        mh: MhId,
    },
    /// Periodic checkpoint timer (uncoordinated baseline).
    Periodic {
        /// The checkpointing host.
        mh: MhId,
    },
    /// A coordination round starts (coordinated baselines).
    CoordRound,
    /// A coordination control message reaches a host.
    DeliverCtl {
        /// Destination host.
        to: MhId,
        /// Sending host.
        from: MhId,
        /// The marker / request.
        msg: ControlMsg,
    },
    /// A mobile host fail-stops (failure injection enabled).
    Crash {
        /// The crashing host.
        mh: MhId,
    },
    /// A support station fail-stops, taking down every attached host.
    MssCrash {
        /// The crashing station.
        mss: MssId,
    },
    /// A crashed host completes its recovery procedure and resumes.
    Recovered {
        /// The recovered host.
        mh: MhId,
    },
}

impl Ev {
    /// Stable span name for this event type; the driver opens one span per
    /// dispatched event under this name, so the span tree's top level is the
    /// per-event-type cost breakdown.
    pub fn span_name(&self) -> &'static str {
        match self {
            Ev::Activity { .. } => "activity",
            Ev::Deliver { .. } => "deliver",
            Ev::Mobility { .. } => "mobility",
            Ev::Reconnect { .. } => "reconnect",
            Ev::Periodic { .. } => "periodic",
            Ev::CoordRound => "coord_round",
            Ev::DeliverCtl { .. } => "deliver_ctl",
            Ev::Crash { .. } => "crash",
            Ev::MssCrash { .. } => "mss_crash",
            Ev::Recovered { .. } => "recovered",
        }
    }
}

/// Live failure-injection state, present iff the configuration enables at
/// least one crash class. Unlike logging, failure injection is *allowed*
/// to perturb the trajectory — but only when enabled: the model's RNG
/// substreams are forked lazily per crash class, so a run with failures
/// off is byte-identical to one built before this subsystem existed.
#[derive(Clone)]
struct FaultState {
    model: FailureModel,
    params: RecoveryParams,
    stats: RecoveryStats,
    /// Hosts currently crashed (recovering).
    down: Vec<bool>,
    /// Hosts whose scheduled dwell expiry fired (and was voided) while they
    /// were down; the mobility chain restarts at recovery.
    mobility_lost: Vec<bool>,
}

/// The full simulation state (the `simkit` model).
pub struct Simulation {
    cfg: SimConfig,
    topo: Topology,
    attach: AttachmentTable,
    mailboxes: Mailboxes<AppPayload>,
    dedup: Dedup,
    loc: LocationService,
    store: CkptStore,
    // Pessimistic message logging (both `Some` iff `cfg.logging` is
    // enabled). Pure station-side accounting: appends, migrations and GC
    // never schedule events or consume randomness, so the trajectory is
    // byte-identical with logging on or off.
    log_store: Option<LogStore>,
    msg_log: Option<MessageLog>,
    channels: CellChannels,
    fault: Option<FaultState>,
    pub(crate) metrics: NetMetrics,
    pub(crate) protos: Vec<Box<dyn Protocol>>,
    pub(crate) rounds: Rounds,
    trace: Option<TraceBuilder>,
    tracer: Tracer,
    registry: MetricsRegistry,
    mailbox_depth: GaugeId,
    /// Span profiler handle; disabled by default. `run_with` clones it into
    /// the driver loop so per-event spans and the nested phase spans opened
    /// here land in one shared tree.
    spans: SpanProfiler,
    // Hand-off neighbor-scan accounting (always on: two integer adds per
    // hand-off), surfaced through the metrics registry when enabled.
    neighbor_scans: u64,
    neighbors_scanned: u64,
    // Latest checkpoint index per host and their minimum, for emitting
    // recovery-line-advance trace events.
    ckpt_line: Vec<u64>,
    ckpt_line_min: u64,
    /// How many hosts currently sit exactly at `ckpt_line_min`; the line
    /// rescan only runs when this reaches zero.
    ckpt_line_at_min: usize,
    // Per-host RNG substreams keep runs insensitive to event interleaving
    // details of other hosts.
    workload_rng: Vec<SimRng>,
    mobility_rng: Vec<SimRng>,
    net_rng: SimRng,
    pub(crate) coord_rng: SimRng,
    activity_gen: Vec<u32>,
    /// The validated cell-adjacency graph hand-offs roam over.
    graph: AdjacencyGraph,
    /// Mobility model deciding placement, dwells, hand-off targets and
    /// reconnection cells (the paper's model by default).
    mobility: Box<dyn MobilityModel>,
    /// Traffic model deciding send occurrence and destinations.
    traffic: Box<dyn TrafficModel>,
    pub(crate) ckpts: CkptBreakdown,
    per_mh_ckpts: Vec<u64>,
    replacements: u64,
    next_packet: u64,
    msgs_sent: u64,
    msgs_delivered: u64,
    blocked_sends: u64,
}

impl Simulation {
    /// Builds the initial state and schedules the bootstrap events.
    pub fn new(cfg: SimConfig) -> (Simulation, Scheduler<Ev>) {
        cfg.validate();
        let BuiltEnv { graph, mut mobility, traffic } = cfg
            .env
            .build(&cfg.env_params())
            .expect("validate() checked the environment");
        let root = SimRng::new(cfg.seed);
        let n = cfg.n_mhs;
        let mut placement_rng = root.fork(1);
        let initial: Vec<MssId> = (0..n)
            .map(|i| MssId(mobility.initial_cell(i, &mut placement_rng)))
            .collect();

        let protos: Vec<Box<dyn Protocol>> = (0..n)
            .map(|i| cfg.protocol.instantiate(i, n, initial[i].idx() as u32, cfg.pb_codec))
            .collect();
        let rounds = Rounds::new(&cfg);

        let mut sim = Simulation {
            topo: Topology::with_latencies(cfg.n_mss, cfg.latencies),
            attach: AttachmentTable::new(initial.clone()),
            mailboxes: Mailboxes::new(&initial),
            // A transport that cannot duplicate needs no per-delivery
            // packet-id tracking (the paper's default configuration).
            dedup: if cfg.dup_prob > 0.0 {
                Dedup::new(n)
            } else {
                Dedup::passthrough()
            },
            loc: LocationService::new(initial),
            store: CkptStore::new(n, cfg.incremental),
            log_store: cfg.logging.is_enabled().then(|| LogStore::new(n)),
            msg_log: cfg.logging.is_enabled().then(|| MessageLog::new(n)),
            channels: CellChannels::new(cfg.n_mss, cfg.wireless_bandwidth),
            fault: cfg.failures_enabled().then(|| FaultState {
                model: FailureModel::new(
                    cfg.fail_mtbf,
                    cfg.fail_mss_mtbf,
                    &root.fork(5000),
                    n,
                    cfg.n_mss,
                ),
                params: RecoveryParams {
                    wired_latency: cfg.latencies.wired,
                    wireless_latency: cfg.latencies.wireless,
                    ckpt_bytes: cfg.incremental.full_bytes,
                    wireless_bandwidth: cfg.wireless_bandwidth,
                    // Re-delivering one logged receive costs a downlink hop.
                    replay_entry_cost: cfg.latencies.wireless,
                    n_mss: cfg.n_mss,
                    has_location_vectors: cfg.protocol == ProtocolChoice::Cic(cic::CicKind::Tp),
                    ..RecoveryParams::default()
                },
                stats: RecoveryStats::default(),
                down: vec![false; n],
                mobility_lost: vec![false; n],
            }),
            metrics: NetMetrics::new(n),
            protos,
            rounds,
            // Recovery planning needs the causality trace, so failure
            // injection forces it on even when the caller did not ask.
            trace: (cfg.record_trace || cfg.failures_enabled()).then(|| TraceBuilder::new(n)),
            tracer: Tracer::disabled(),
            registry: MetricsRegistry::disabled(),
            mailbox_depth: MetricsRegistry::disabled().gauge("mailbox.max_depth"),
            spans: SpanProfiler::disabled(),
            neighbor_scans: 0,
            neighbors_scanned: 0,
            ckpt_line: vec![0; n],
            ckpt_line_min: 0,
            ckpt_line_at_min: n,
            workload_rng: (0..n).map(|i| root.fork(1000 + i as u64)).collect(),
            mobility_rng: (0..n).map(|i| root.fork(2000 + i as u64)).collect(),
            net_rng: root.fork(3000),
            coord_rng: root.fork(4000),
            activity_gen: vec![0; n],
            graph,
            mobility,
            traffic,
            ckpts: CkptBreakdown::default(),
            per_mh_ckpts: vec![0; n],
            replacements: 0,
            next_packet: 0,
            msgs_sent: 0,
            msgs_delivered: 0,
            blocked_sends: 0,
            cfg,
        };

        let mut sched = Scheduler::new();
        for i in 0..n {
            let mh = MhId(i);
            let first = sim.workload_rng[i].exp(sim.cfg.internal_mean);
            sched.schedule_in(first, Ev::Activity { mh, gen: 0 });
            sim.enter_cell(&mut sched, mh);
            if matches!(sim.cfg.protocol, ProtocolChoice::Cic(cic::CicKind::Uncoordinated)) {
                let d = sim.mobility_rng[i].exp(sim.cfg.periodic_mean);
                sched.schedule_in(d, Ev::Periodic { mh });
            }
        }
        if let Some(interval) = sim.cfg.protocol.interval() {
            sched.schedule_in(interval, Ev::CoordRound);
        }
        if let Some(f) = &mut sim.fault {
            for i in 0..n {
                if let Some(t) = f.model.next_mh_crash(i, 0.0) {
                    sched.schedule_in(t, Ev::Crash { mh: MhId(i) });
                }
            }
            for j in 0..sim.cfg.n_mss {
                if let Some(t) = f.model.next_mss_crash(j, 0.0) {
                    sched.schedule_in(t, Ev::MssCrash { mss: MssId(j) });
                }
            }
        }
        (sim, sched)
    }

    /// Runs to the configured horizon and produces the report
    /// (observability off).
    pub fn run(cfg: SimConfig) -> RunReport {
        Simulation::run_with(cfg, Instrumentation::off())
    }

    /// Runs with the given observability attachments.
    pub fn run_with(cfg: SimConfig, instr: Instrumentation) -> RunReport {
        let horizon = SimTime::new(cfg.horizon);
        let seed = cfg.seed;
        let protocol = cfg.protocol.name().to_string();
        let keep_profile = instr.profile;
        let instrumented = instr.profile || instr.spans || instr.progress;
        let want_progress = instr.progress;
        let (mut sim, mut sched) = Simulation::new(cfg);
        sim.attach(instr);
        if instrumented {
            // One loop serves profile, spans and progress; every observer
            // is a pure overlay, so the trajectory matches `run_until`.
            let spans = sim.spans.clone();
            let mut progress = want_progress.then(|| Progress::new("mck: progress"));
            let (out, prof) = run_until_spanned(
                &mut sim,
                &mut sched,
                horizon,
                &spans,
                Ev::span_name,
                progress.as_mut(),
            );
            // The wall-clock profile is reported only when asked for:
            // `--progress` alone must leave the report (and any artifact
            // built from it) untouched.
            sim.into_report(protocol, seed, out, keep_profile.then_some(prof))
        } else {
            let out = run_until(&mut sim, &mut sched, horizon);
            sim.into_report(protocol, seed, out, None)
        }
    }

    /// Installs the trace stream, metrics registry and span profiler (call
    /// before running).
    pub fn attach(&mut self, instr: Instrumentation) {
        self.tracer = instr.tracer;
        if instr.metrics {
            self.registry = MetricsRegistry::new();
            self.mailbox_depth = self.registry.gauge("mailbox.max_depth");
        }
        if instr.spans {
            self.spans = SpanProfiler::enabled();
        }
    }

    fn into_report(
        mut self,
        protocol: String,
        seed: u64,
        out: RunOutcome,
        profile: Option<EngineProfile>,
    ) -> RunReport {
        let coord_round_latencies = std::mem::take(&mut self.rounds.latencies);
        // Optimistic flushes whose window closed before the horizon
        // completed during the run; account them before reading the
        // stores (entries still inside the window stay pending — they
        // were never written).
        if self.cfg.logging.is_optimistic() {
            for i in 0..self.cfg.n_mhs {
                self.settle_log(out.end_time, MhId(i), false);
            }
        }
        let horizon = out.end_time.as_f64().max(f64::MIN_POSITIVE);
        let channel_utilization = if self.channels.is_unlimited() {
            0.0
        } else {
            self.channels.mean_utilization(horizon)
        };
        let channel_queueing_delay = self.channels.total_queueing_delay();
        self.finalize_metrics(&out, channel_utilization, channel_queueing_delay);
        let metrics = std::mem::take(&mut self.registry).into_snapshot();
        let spans = self.spans.is_enabled().then(|| self.spans.snapshot());
        let tracer = std::mem::take(&mut self.tracer);
        let trace_emitted = tracer.emitted();
        let (trace_events, _jsonl) = tracer.finish();
        RunReport {
            protocol,
            seed,
            ckpts: self.ckpts,
            per_mh_ckpts: self.per_mh_ckpts,
            replacements: self.replacements,
            handoffs: self.attach.handoffs(),
            disconnects: self.attach.disconnects(),
            reconnects: self.attach.reconnects(),
            msgs_sent: self.msgs_sent,
            msgs_delivered: self.msgs_delivered,
            net: self.metrics,
            events: out.events_handled,
            end_time: out.end_time.as_f64(),
            coord_round_latencies,
            blocked_sends: self.blocked_sends,
            channel_utilization,
            channel_queueing_delay,
            log_stats: self.log_store.as_ref().map(LogStore::stats),
            recovery: self.fault.as_ref().map(|f| f.stats),
            message_log: self.msg_log,
            trace: self.trace.map(TraceBuilder::finish),
            metrics,
            profile,
            spans,
            trace_events,
            trace_emitted,
        }
    }

    /// Reports the run's aggregate counters into the metrics registry so the
    /// snapshot is a complete, named view of the run. No-op when metrics are
    /// disabled.
    fn finalize_metrics(&mut self, out: &RunOutcome, channel_util: f64, channel_queueing: f64) {
        if !self.registry.is_enabled() {
            return;
        }
        let counters: [(&str, u64); 28] = [
            ("ckpt.cell_switch", self.ckpts.cell_switch),
            ("ckpt.disconnect", self.ckpts.disconnect),
            ("ckpt.forced", self.ckpts.forced),
            ("ckpt.periodic", self.ckpts.periodic),
            ("ckpt.coordinated", self.ckpts.coordinated),
            ("ckpt.total", self.ckpts.total()),
            ("ckpt.basic", self.ckpts.basic()),
            ("ckpt.replaced", self.replacements),
            ("run.events", out.events_handled),
            ("run.handoffs", self.attach.handoffs()),
            ("run.disconnects", self.attach.disconnects()),
            ("run.reconnects", self.attach.reconnects()),
            ("run.blocked_sends", self.blocked_sends),
            ("msg.sent", self.msgs_sent),
            ("msg.delivered", self.msgs_delivered),
            ("net.control_msgs", self.metrics.control_msgs),
            ("net.wireless_transmissions", self.metrics.wireless_transmissions),
            ("net.wired_hops", self.metrics.wired_hops),
            ("net.payload_bytes", self.metrics.payload_bytes),
            ("net.piggyback_bytes", self.metrics.piggyback_bytes),
            ("net.ckpt_wireless_bytes", self.metrics.ckpt_wireless_bytes),
            ("net.ckpt_fetch_bytes", self.metrics.ckpt_fetch_bytes),
            ("net.ckpt_fetches", self.metrics.ckpt_fetches),
            ("net.searches", self.metrics.searches),
            ("mailbox.enqueued", self.mailboxes.enqueued()),
            ("mailbox.forwarded", self.mailboxes.forwarded_msgs()),
            ("topo.neighbor_scans", self.neighbor_scans),
            ("topo.neighbors_scanned", self.neighbors_scanned),
        ];
        for (name, value) in counters {
            let id = self.registry.counter(name);
            self.registry.add(id, value);
        }
        if let Some(stats) = self.log_store.as_ref().map(LogStore::stats) {
            let log_counters: [(&str, u64); 7] = [
                ("log.appended_entries", stats.appended_entries),
                ("log.stable_write_bytes", stats.stable_write_bytes),
                ("log.migrations", stats.migrations),
                ("log.migration_bytes", stats.migration_bytes),
                ("log.gc_entries", stats.gc_entries),
                ("log.live_bytes", stats.live_bytes),
                ("log.peak_bytes", stats.peak_bytes),
            ];
            for (name, value) in log_counters {
                let id = self.registry.counter(name);
                self.registry.add(id, value);
            }
        }
        if let Some(f) = &self.fault {
            let s = f.stats;
            let fail_counters: [(&str, u64); 6] = [
                ("fail.mh_crashes", s.mh_crashes),
                ("fail.mss_crashes", s.mss_crashes),
                ("fail.skipped", s.skipped_crashes),
                ("fail.recoveries", s.recoveries),
                ("fail.replayed_receives", s.replayed_receives),
                ("fail.unstable_lost", s.unstable_lost),
            ];
            for (name, value) in fail_counters {
                let id = self.registry.counter(name);
                self.registry.add(id, value);
            }
            let fail_gauges: [(&str, f64); 3] = [
                ("fail.total_downtime", s.total_downtime),
                ("fail.total_undone_time", s.total_undone_time),
                (
                    "fail.availability",
                    s.availability(self.cfg.n_mhs, out.end_time.as_f64()),
                ),
            ];
            for (name, value) in fail_gauges {
                let id = self.registry.gauge(name);
                self.registry.set(id, value);
            }
        }
        let gauges: [(&str, f64); 4] = [
            ("run.end_time", out.end_time.as_f64()),
            ("channel.mean_utilization", channel_util),
            ("channel.total_queueing_delay", channel_queueing),
            // Undrained inbound messages at the horizon, deepest queue.
            ("mailbox.pending_at_end", self.mailboxes.max_pending() as f64),
        ];
        for (name, value) in gauges {
            let id = self.registry.gauge(name);
            self.registry.set(id, value);
        }
        let energy = mobnet::EnergyModel::default();
        for i in 0..self.cfg.n_mhs {
            let mh = MhId(i);
            let pairs: [(String, u64); 3] = [
                (format!("mh.{i}.ckpts"), self.per_mh_ckpts[i]),
                (
                    format!("mh.{i}.wireless_transmissions"),
                    self.metrics.per_mh_wireless[i],
                ),
                (format!("mh.{i}.wireless_bytes"), self.metrics.per_mh_bytes[i]),
            ];
            for (name, value) in pairs {
                let id = self.registry.counter(&name);
                self.registry.add(id, value);
            }
            let g = self.registry.gauge(&format!("mh.{i}.energy"));
            self.registry.set(g, self.metrics.energy_of(mh, energy));
        }
    }

    /// Emits a checkpoint trace event and, when the globally consistent
    /// recovery line advanced, a recovery-line event too.
    fn trace_checkpoint(&mut self, now: SimTime, mh: MhId, index: u64, kind: CkptKind, replaced: bool) {
        self.tracer.emit(
            now,
            TraceEvent::Checkpoint {
                mh: mh.idx(),
                index,
                class: Instrumentation::class_of(kind),
                replaced,
            },
        );
        let i = mh.idx();
        if index > self.ckpt_line[i] {
            let was_at_min = self.ckpt_line[i] == self.ckpt_line_min;
            self.ckpt_line[i] = index;
            // O(1) per checkpoint: the global minimum can only advance when
            // the last host sitting at it advances, so we count those hosts
            // and rescan only on that (rare) transition.
            if was_at_min {
                self.ckpt_line_at_min -= 1;
                if self.ckpt_line_at_min == 0 {
                    let min = *self.ckpt_line.iter().min().expect("at least one host");
                    self.ckpt_line_at_min =
                        self.ckpt_line.iter().filter(|&&v| v == min).count();
                    self.ckpt_line_min = min;
                    self.tracer.emit(now, TraceEvent::RecoveryLine { index: min });
                }
            }
        }
    }

    // -- checkpoint bookkeeping ---------------------------------------------

    /// Takes one checkpoint of `mh` right now: counts it, records it in the
    /// trace and ships it to the responsible MSS's stable storage.
    pub(crate) fn take_checkpoint(
        &mut self,
        now: SimTime,
        mh: MhId,
        index: u64,
        kind: CkptKind,
        replaces: bool,
    ) {
        // Span covers the whole checkpoint phase: counting, trace, the
        // stable-storage transfer and the log GC below; nested `log.*`
        // spans break out the logging share.
        let ckpt_span = self.spans.scope("checkpoint");
        match kind {
            CkptKind::CellSwitch => self.ckpts.cell_switch += 1,
            CkptKind::Disconnect => self.ckpts.disconnect += 1,
            CkptKind::Forced => self.ckpts.forced += 1,
            CkptKind::Periodic => self.ckpts.periodic += 1,
            CkptKind::Coordinated => self.ckpts.coordinated += 1,
            CkptKind::Initial => unreachable!("initial checkpoints are implicit"),
        }
        self.per_mh_ckpts[mh.idx()] += 1;
        if replaces {
            self.replacements += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.checkpoint(ProcId(mh.idx()), now.as_f64(), index, kind);
        }
        if self.tracer.is_active() {
            self.trace_checkpoint(now, mh, index, kind, replaces);
        }
        let mss = self.attach.attachment(mh).responsible_mss();
        let transfer = self.store.checkpoint(mh, mss, now.as_f64());
        ckpt_span.add_bytes(transfer.wireless_bytes);
        // Shipping the checkpoint increment occupies the cell channel.
        self.channels.admit(mss, transfer.wireless_bytes, now.as_f64());
        self.metrics.ckpt_wireless_bytes += transfer.wireless_bytes;
        self.metrics.ckpt_fetch_bytes += transfer.wired_fetch_bytes;
        self.metrics.charge_wireless(mh, transfer.wireless_bytes);
        if transfer.fetched_from.is_some() {
            self.metrics.wired_hops += 1;
            self.metrics.ckpt_fetches += 1;
        }
        // Optimistic logging: entries whose asynchronous flush window
        // elapsed were written in the background — account those stable
        // writes before the GC below decides what is reclaimed from stable
        // storage versus what was never written at all.
        self.settle_log(now, mh, false);
        // The new stable checkpoint advances this host's recovery point:
        // log entries strictly older than it can never be replayed again
        // (logging keeps the host at or above its latest stable
        // checkpoint), so reclaim the stable ones and drop still-buffered
        // ones outright — the optimistic mode's avoided writes.
        if let Some(log) = &mut self.msg_log {
            let gc_span = self.spans.scope("log.gc");
            let (entries, bytes) = log.gc_before(ProcId(mh.idx()), now.as_f64());
            if entries > 0 {
                gc_span.add_bytes(bytes);
                self.log_store
                    .as_mut()
                    .expect("log stores are created together")
                    .gc(mh, entries as u64, bytes);
            }
        }
        // The checkpoint hand-off is a flush barrier: anything still
        // buffered (received at the checkpoint instant itself) goes to
        // stable storage together with the checkpoint.
        self.settle_log(now, mh, true);
    }

    /// Promotes a host's buffered optimistic log entries to stable — the
    /// ones whose flush window elapsed by `now`, or all of them when
    /// `force` is set (flush barrier) — and accounts the batched write at
    /// its responsible station. No-op outside optimistic logging.
    fn settle_log(&mut self, now: SimTime, mh: MhId, force: bool) {
        if !self.cfg.logging.is_optimistic() {
            return;
        }
        let Some(log) = &mut self.msg_log else { return };
        let settle_span = self.spans.scope("log.settle");
        let p = ProcId(mh.idx());
        let (entries, bytes) = if force { log.flush(p) } else { log.settle(p, now.as_f64()) };
        if entries > 0 {
            settle_span.add_bytes(bytes);
            let mss = self.attach.attachment(mh).responsible_mss();
            self.log_store
                .as_mut()
                .expect("log stores are created together")
                .append_batch(mh, mss, entries as u64, bytes);
        }
    }

    fn basic_checkpoint(&mut self, now: SimTime, mh: MhId, reason: BasicReason) {
        let c = self.protos[mh.idx()].on_basic(reason);
        self.take_checkpoint(now, mh, c.index, reason.kind(), c.replaces_predecessor);
    }

    // -- failure injection ----------------------------------------------------

    /// Whether `mh` is currently crashed (always false with failures off).
    fn is_down(&self, mh: MhId) -> bool {
        self.fault.as_ref().is_some_and(|f| f.down[mh.idx()])
    }

    /// Re-arms host `mh`'s Poisson crash process from `now`.
    fn arm_mh_crash(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId) {
        if let Some(f) = &mut self.fault {
            if let Some(t) = f.model.next_mh_crash(mh.idx(), now.as_f64()) {
                sched.schedule_in(t - now.as_f64(), Ev::Crash { mh });
            }
        }
    }

    /// Re-arms station `mss`'s Poisson crash process from `now`.
    fn arm_mss_crash(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mss: MssId) {
        if let Some(f) = &mut self.fault {
            if let Some(t) = f.model.next_mss_crash(mss.idx(), now.as_f64()) {
                sched.schedule_in(t - now.as_f64(), Ev::MssCrash { mss });
            }
        }
    }

    fn on_crash(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId) {
        // The process is memoryless: re-arm regardless of the outcome.
        self.arm_mh_crash(sched, now, mh);
        let f = self.fault.as_mut().expect("crash events exist only with failures enabled");
        if f.down[mh.idx()] || !self.attach.attachment(mh).is_connected() {
            // Already down, or disconnected (a crash while voluntarily
            // offline has nothing to interrupt): skip, stay armed.
            f.stats.skipped_crashes += 1;
            return;
        }
        f.stats.mh_crashes += 1;
        self.execute_crash(sched, now, vec![mh]);
    }

    fn on_mss_crash(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mss: MssId) {
        self.arm_mss_crash(sched, now, mss);
        // A station failure fail-stops every connected host attached to it
        // (config validation guarantees logging is on, so the receives the
        // station proxied are recoverable up to log stability).
        let down = &self.fault.as_ref().expect("mss-crash events need failures enabled").down;
        // Cell-local: only the crashed station's residents are candidates.
        // The resident list's order is churn-dependent, so sort back to the
        // ascending host order the recovery fixpoint (and the byte-identical
        // artifacts) expect.
        let mut victims: Vec<MhId> = self
            .attach
            .residents(mss)
            .iter()
            .copied()
            .filter(|&m| !down[m.idx()])
            .collect();
        victims.sort_unstable_by_key(|m| m.idx());
        let f = self.fault.as_mut().expect("checked above");
        if victims.is_empty() {
            f.stats.skipped_crashes += 1;
            return;
        }
        f.stats.mss_crashes += 1;
        self.execute_crash(sched, now, victims);
    }

    /// Fail-stops `victims` at `now` and executes their recovery inside
    /// the simulation: the restart line and the undone/replayed split come
    /// from the orphan-free fixpoint over the live trace and the *stable*
    /// log; the priced downtime pauses each victim until its scheduled
    /// [`Ev::Recovered`]. Survivors' orphan rollbacks are accounted in the
    /// stats (the DES models time and bytes, not application state, so
    /// nothing is rewound).
    fn execute_crash(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, victims: Vec<MhId>) {
        // Stability at crash time must be exact for the fixpoint: promote
        // every host's passively-flushed entries first.
        if self.cfg.logging.is_optimistic() {
            for i in 0..self.cfg.n_mhs {
                self.settle_log(now, MhId(i), false);
            }
        }
        // Receives still inside a victim's flush window are lost with the
        // crash: invisible to the stable log, the fixpoint below turns
        // them (and everything after them) into undone work.
        let unstable: u64 = self.msg_log.as_ref().map_or(0, |log| {
            victims.iter().map(|&m| log.n_pending(ProcId(m.idx())) as u64).sum()
        });
        let situations: Vec<HostSituation> = victims
            .iter()
            .map(|&m| HostSituation {
                proc: ProcId(m.idx()),
                attached_mss: self.attach.cell_of(m).expect("victims are connected").idx(),
                ckpt_mss: self.store.latest(m).map(|s| s.mss.idx()),
                log_mss: self
                    .log_store
                    .as_ref()
                    .and_then(|ls| ls.residence(m))
                    .map(MssId::idx),
                log_bytes: self.log_store.as_ref().map_or(0, |ls| ls.bytes_of(m)),
            })
            .collect();
        let trace = self
            .trace
            .as_ref()
            .expect("failure injection forces tracing on")
            .view();
        let empty_log;
        let log = match &self.msg_log {
            Some(l) => l,
            None => {
                empty_log = MessageLog::new(self.cfg.n_mhs);
                &empty_log
            }
        };
        let plan_span = self.spans.scope("recovery.plan");
        let f = self.fault.as_mut().expect("execute_crash runs only with failures enabled");
        let outcome = faultsim::plan_recovery(trace, log, &situations, now.as_f64(), &f.params);
        drop(plan_span);
        f.stats.unstable_lost += unstable;
        f.stats.record(&outcome);
        for h in &outcome.per_host {
            f.down[h.proc.0] = true;
            // Outstanding workload events become stale; mobility events are
            // voided in `on_mobility` while down.
            self.activity_gen[h.proc.0] += 1;
            sched.schedule_in(h.downtime, Ev::Recovered { mh: MhId(h.proc.0) });
        }
    }

    fn on_recovered(&mut self, sched: &mut Scheduler<Ev>, mh: MhId) {
        let i = mh.idx();
        let relaunch_mobility = {
            let f = self.fault.as_mut().expect("recovery events need failures enabled");
            debug_assert!(f.down[i], "Recovered fired for a host that is not down");
            f.down[i] = false;
            std::mem::take(&mut f.mobility_lost[i])
        };
        // Resume the workload under the fresh generation bumped at crash.
        let gen = self.activity_gen[i];
        let next = self.workload_rng[i].exp(self.cfg.internal_mean);
        sched.schedule_in(next, Ev::Activity { mh, gen });
        // If the dwell expiry fired during the downtime, restart the
        // mobility chain by re-entering the current cell.
        if relaunch_mobility {
            self.enter_cell(sched, mh);
        }
    }

    // -- mobility ------------------------------------------------------------

    /// On entering a cell: ask the mobility model for the dwell outcome and
    /// schedule it.
    fn enter_cell(&mut self, sched: &mut Scheduler<Ev>, mh: MhId) {
        let i = mh.idx();
        let cell = self
            .attach
            .cell_of(mh)
            .expect("entering host is connected");
        let d = self
            .mobility
            .on_enter_cell(i, cell.idx(), &mut self.mobility_rng[i]);
        sched.schedule_in(d.dwell, Ev::Mobility { mh, switch: d.switch });
    }

    fn on_mobility(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId, switch: bool) {
        if self.is_down(mh) {
            // A crashed host neither roams nor disconnects; its pending
            // dwell expiry is void. Remember to restart the chain when the
            // recovery completes.
            if let Some(f) = &mut self.fault {
                f.mobility_lost[mh.idx()] = true;
            }
            return;
        }
        if switch {
            // Basic checkpoint, then hand off to a uniformly chosen other cell.
            self.basic_checkpoint(now, mh, BasicReason::CellSwitch);
            let cur = self
                .attach
                .cell_of(mh)
                .expect("mobility fires only while connected");
            // Picking the hand-off target scans the current cell's
            // adjacency row; the per-scan degree is the O(deg) work a
            // larger topology pays per hand-off.
            self.neighbor_scans += 1;
            self.neighbors_scanned += self.graph.neighbors(cur).len() as u64;
            let new_cell = MssId(self.mobility.handoff_target(
                mh.idx(),
                cur.idx(),
                &self.graph,
                &mut self.mobility_rng[mh.idx()],
            ));
            if self.tracer.is_active() {
                self.tracer.emit(
                    now,
                    TraceEvent::Handoff {
                        mh: mh.idx(),
                        from_cell: cur.idx(),
                        to_cell: new_cell.idx(),
                    },
                );
            }
            let handoff = self.attach.handoff(mh, new_cell);
            // Two wireless control messages (old MSS, new MSS).
            self.metrics.control_msgs += u64::from(handoff.control_msgs);
            for _ in 0..handoff.control_msgs {
                self.metrics.charge_wireless(mh, CONTROL_BYTES);
            }
            self.loc.update(mh, new_cell);
            self.metrics.wired_hops += self.mailboxes.relocate(mh, new_cell);
            // The surviving log follows the host so a later failure finds
            // it at the responsible station (accounted in LogStoreStats,
            // not NetMetrics, to keep counters identical across modes).
            if let Some(ls) = &mut self.log_store {
                ls.ensure_at(mh, new_cell);
            }
            self.protos[mh.idx()].on_relocate(new_cell.idx() as u32);
            self.enter_cell(sched, mh);
        } else {
            // Basic checkpoint, then voluntary disconnection.
            self.basic_checkpoint(now, mh, BasicReason::Disconnect);
            if self.tracer.is_active() {
                let cell = self.attach.cell_of(mh).expect("disconnecting host is connected");
                self.tracer.emit(
                    now,
                    TraceEvent::Disconnect {
                        mh: mh.idx(),
                        cell: cell.idx(),
                    },
                );
            }
            self.attach.disconnect(mh);
            self.metrics.control_msgs += 1;
            self.metrics.charge_wireless(mh, CONTROL_BYTES);
            // Pause the workload: outstanding activities become stale.
            self.activity_gen[mh.idx()] += 1;
            let off = self
                .mobility
                .offline_duration(mh.idx(), &mut self.mobility_rng[mh.idx()]);
            sched.schedule_in(off, Ev::Reconnect { mh });
        }
    }

    fn on_reconnect(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId) {
        let i = mh.idx();
        let cell = MssId(self.mobility.reconnect_cell(i, &mut self.mobility_rng[i]));
        if self.tracer.is_active() {
            self.tracer.emit(
                now,
                TraceEvent::Reconnect {
                    mh: i,
                    cell: cell.idx(),
                },
            );
        }
        let was_buffering = self.attach.reconnect(mh, cell);
        self.metrics.control_msgs += 1;
        self.metrics.charge_wireless(mh, CONTROL_BYTES);
        self.loc.update(mh, cell);
        if was_buffering != cell {
            self.metrics.wired_hops += self.mailboxes.relocate(mh, cell);
        }
        if let Some(ls) = &mut self.log_store {
            ls.ensure_at(mh, cell);
        }
        self.protos[i].on_relocate(cell.idx() as u32);
        // Resume the workload under a fresh generation.
        let gen = self.activity_gen[i];
        let next = self.workload_rng[i].exp(self.cfg.internal_mean);
        sched.schedule_in(next, Ev::Activity { mh, gen });
        // Flush buffered coordination traffic (see coord module).
        self.coord_flush_buffered(sched, mh);
        self.enter_cell(sched, mh);
    }

    // -- workload -------------------------------------------------------------

    fn on_activity(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId, gen: u32) {
        let i = mh.idx();
        if gen != self.activity_gen[i] || !self.attach.attachment(mh).is_connected() {
            return; // stale event from before a disconnection
        }
        let send = self.traffic.is_send(i, &mut self.workload_rng[i]);
        let mut ckpt_pause = 0.0;
        if send {
            if self.protos[i].is_blocked() {
                // A blocking coordination session (Koo-Toueg) suppresses
                // application sends until commit.
                self.blocked_sends += 1;
            } else {
                self.do_send(sched, now, mh);
            }
        } else if self.do_receive(now, mh) {
            ckpt_pause = self.cfg.ckpt_duration;
        }
        let next = self.workload_rng[i].exp(self.cfg.internal_mean) + ckpt_pause;
        sched.schedule_in(next, Ev::Activity { mh, gen });
    }

    fn do_send(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, mh: MhId) {
        let i = mh.idx();
        let dest = MhId(self.traffic.destination(i, &mut self.workload_rng[i]));
        // Building the piggyback is the per-send protocol cost the paper's
        // scalability argument is about (TP's O(n) vectors vs. one index):
        // span it, attributing the modelled wire bytes.
        let pb = {
            let _enc_span = self.spans.scope("piggyback.encode");
            let pb = self.protos[i].on_send(dest.idx());
            // Attribute the wire bytes to a child named after the control-
            // information shape (index vs. vectors ...), the axis the
            // paper's scalability argument varies.
            self.spans.scope(pb.kind_name()).add_bytes(pb.wire_bytes() as u64);
            pb
        };
        self.next_packet += 1;
        let packet = PacketId(self.next_packet);
        self.msgs_sent += 1;
        self.metrics.app_msgs_sent += 1;

        let bytes = self.cfg.payload_bytes + pb.wire_bytes() as u64;
        self.metrics.payload_bytes += self.cfg.payload_bytes;
        self.metrics.piggyback_bytes += pb.wire_bytes() as u64;
        // Uplink: MH → current MSS.
        self.metrics.charge_wireless(mh, bytes);

        if let Some(trace) = &mut self.trace {
            trace.send(MsgId(packet.0), ProcId(i), ProcId(dest.idx()), now.as_f64());
        }
        if self.tracer.is_active() {
            self.tracer.emit(
                now,
                TraceEvent::Send {
                    msg: packet.0,
                    from: i,
                    to: dest.idx(),
                    bytes,
                },
            );
        }

        // The current MSS locates the recipient, then forwards.
        let src_mss = self.attach.cell_of(mh).expect("sender is connected");
        let dst_mss = self.loc.lookup(dest);
        self.metrics.searches += 1;
        // Uplink airtime: the cell channel serializes same-cell senders
        // when a finite wireless bandwidth is configured.
        let admission = self.channels.admit(src_mss, bytes, now.as_f64());
        let q = Queued {
            packet,
            from: mh,
            payload: AppPayload { pb },
        };
        let mut latency = self.topo.wireless_latency() + admission.completion_delay;
        if src_mss != dst_mss {
            latency += self.topo.wired_latency(src_mss, dst_mss);
            self.metrics.wired_hops += 1;
        }
        // At-least-once: the transport may deliver twice.
        if self.cfg.dup_prob > 0.0 && self.net_rng.bernoulli(self.cfg.dup_prob) {
            self.metrics.duplicates_injected += 1;
            sched.schedule_in(
                latency + self.topo.wired_latency(src_mss, dst_mss).max(self.topo.wireless_latency()),
                Ev::Deliver {
                    to: dest,
                    q: q.clone(),
                },
            );
        }
        sched.schedule_in(latency, Ev::Deliver { to: dest, q });
    }

    /// Executes a receive operation; returns `true` if a forced checkpoint
    /// was taken.
    fn do_receive(&mut self, now: SimTime, mh: MhId) -> bool {
        // The MSS filters duplicates server-side; the receive operation
        // consumes the first fresh message, if any.
        loop {
            let Some(q) = self.mailboxes.pop(mh) else {
                return false; // nothing pending: the operation is a no-op
            };
            if !self.dedup.accept(mh, q.packet) {
                self.metrics.duplicates_suppressed += 1;
                if self.tracer.is_active() {
                    self.tracer.emit(
                        now,
                        TraceEvent::Dedup {
                            msg: q.packet.0,
                            to: mh.idx(),
                        },
                    );
                }
                continue;
            }
            // Downlink: MSS → MH.
            let bytes = self.cfg.payload_bytes + q.payload.pb.wire_bytes() as u64;
            self.metrics.charge_wireless(mh, bytes);
            self.msgs_delivered += 1;
            self.metrics.app_msgs_delivered += 1;

            // Decoding the piggyback (dependency-vector merge, index
            // comparison) is the per-receive protocol cost; the forced
            // checkpoint it may trigger is spanned separately inside
            // `take_checkpoint`.
            let out = {
                let _dec_span = self.spans.scope("piggyback.decode");
                let kind_span = self.spans.scope(q.payload.pb.kind_name());
                kind_span.add_bytes(q.payload.pb.wire_bytes() as u64);
                self.protos[mh.idx()].on_receive(q.from.idx(), &q.payload.pb)
            };
            if let Some(index) = out.forced {
                // Forced checkpoint precedes delivery.
                self.take_checkpoint(now, mh, index, CkptKind::Forced, false);
            }
            // Message logging at the MSS. Pessimistic: a synchronous
            // stable write precedes delivery. Optimistic: the station
            // buffers the entry in volatile memory and acknowledges
            // immediately; the write becomes stable only after the
            // asynchronous flush window (or at the next flush barrier).
            // Either way this runs after any forced checkpoint so that
            // checkpoint's GC (strictly earlier entries only) cannot
            // reclaim the fresh entry.
            if let Some(log) = &mut self.msg_log {
                let append_span = self.spans.scope("log.append");
                let entry_bytes = bytes + LOG_ENTRY_HEADER_BYTES;
                append_span.add_bytes(entry_bytes);
                if self.cfg.logging.is_optimistic() {
                    log.append_pending(
                        ProcId(mh.idx()),
                        MsgId(q.packet.0),
                        now.as_f64(),
                        entry_bytes,
                        now.as_f64() + self.cfg.flush_latency,
                    );
                } else {
                    let mss = self.attach.attachment(mh).responsible_mss();
                    log.append(ProcId(mh.idx()), MsgId(q.packet.0), now.as_f64(), entry_bytes);
                    self.log_store
                        .as_mut()
                        .expect("log stores are created together")
                        .append(mh, mss, entry_bytes);
                }
            }
            if let Some(trace) = &mut self.trace {
                trace.recv(MsgId(q.packet.0), now.as_f64());
            }
            if self.tracer.is_active() {
                self.tracer.emit(
                    now,
                    TraceEvent::Deliver {
                        msg: q.packet.0,
                        from: q.from.idx(),
                        to: mh.idx(),
                    },
                );
            }
            return out.forced.is_some();
        }
    }

    // -- accessors used by tests and the coord module -------------------------

    /// Simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub(crate) fn is_connected(&self, mh: MhId) -> bool {
        self.attach.attachment(mh).is_connected()
    }

    pub(crate) fn cell_of(&self, mh: MhId) -> Option<MssId> {
        self.attach.cell_of(mh)
    }

    pub(crate) fn locate(&mut self, mh: MhId) -> MssId {
        self.metrics.searches += 1;
        self.loc.lookup(mh)
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }
}

// -- model-checking support ---------------------------------------------------
//
// The exhaustive checker (`crates/mcheck`) forks the world on every enabled
// event instead of draining the queue in time order. Everything it needs
// lives here, next to the state it abstracts: a deep `Clone`, a state
// fingerprint for deduplication, and the choice (enabled-set) API that the
// seeded simulator's `run_until` loop provably refines (see the
// `earliest_choice_stream_matches_run_until` test).

impl Clone for Simulation {
    /// Deep-copies the world state for checker forks.
    ///
    /// Instrumentation handles (tracer, metrics registry, span profiler)
    /// are *not* shared with the clone — each fork gets inert, disabled
    /// instances, exactly like a fresh `Simulation::new`. The checker never
    /// instruments forks, and sharing the parent's sinks would interleave
    /// streams from diverging worlds.
    fn clone(&self) -> Self {
        Simulation {
            cfg: self.cfg.clone(),
            topo: self.topo.clone(),
            attach: self.attach.clone(),
            mailboxes: self.mailboxes.clone(),
            dedup: self.dedup.clone(),
            loc: self.loc.clone(),
            store: self.store.clone(),
            log_store: self.log_store.clone(),
            msg_log: self.msg_log.clone(),
            channels: self.channels.clone(),
            fault: self.fault.clone(),
            metrics: self.metrics.clone(),
            protos: self.protos.clone(),
            rounds: self.rounds.clone(),
            trace: self.trace.clone(),
            tracer: Tracer::disabled(),
            registry: MetricsRegistry::disabled(),
            mailbox_depth: MetricsRegistry::disabled().gauge("mailbox.max_depth"),
            spans: SpanProfiler::disabled(),
            neighbor_scans: self.neighbor_scans,
            neighbors_scanned: self.neighbors_scanned,
            ckpt_line: self.ckpt_line.clone(),
            ckpt_line_min: self.ckpt_line_min,
            ckpt_line_at_min: self.ckpt_line_at_min,
            workload_rng: self.workload_rng.clone(),
            mobility_rng: self.mobility_rng.clone(),
            net_rng: self.net_rng.clone(),
            coord_rng: self.coord_rng.clone(),
            activity_gen: self.activity_gen.clone(),
            graph: self.graph.clone(),
            mobility: self.mobility.clone(),
            traffic: self.traffic.clone(),
            ckpts: self.ckpts,
            per_mh_ckpts: self.per_mh_ckpts.clone(),
            replacements: self.replacements,
            next_packet: self.next_packet,
            msgs_sent: self.msgs_sent,
            msgs_delivered: self.msgs_delivered,
            blocked_sends: self.blocked_sends,
        }
    }
}

/// One enabled scheduling choice: a live pending event the checker may fire
/// next. `seq` keys [`Simulation::apply_choice`]; `label` is a stable
/// human-readable description used in counterexample schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Scheduler sequence number of the pending event.
    pub seq: u64,
    /// Scheduled firing time.
    pub time: f64,
    /// Stable description, e.g. `activity(mh0)` or `deliver(mh1<-mh0)`.
    pub label: String,
}

/// FNV-1a over 64-bit words: the checker's state-hash accumulator. Not
/// cryptographic — collisions would merge distinct states — but 64 bits
/// over the checker's bounded state counts (≤ millions) keeps the collision
/// probability negligible, matching what dslab-mp-style checkers use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds a piggyback's logical content into the hash. Variant-tagged, so
/// `Index { sn: 0 }` and `None` cannot collide.
fn pb_sig(pb: &Piggyback, h: &mut Fnv) {
    match pb {
        Piggyback::None => h.word(0),
        Piggyback::Index { sn } => {
            h.word(1);
            h.word(*sn);
        }
        Piggyback::Vectors { ckpt, loc } => {
            h.word(2);
            for &c in ckpt.iter() {
                h.word(c);
            }
            for &l in loc.iter() {
                h.word(u64::from(l));
            }
        }
        Piggyback::VectorsRle { runs } => {
            h.word(3);
            for r in runs.iter() {
                h.word(u64::from(r.len));
                h.word(r.ckpt);
                h.word(u64::from(r.loc));
            }
        }
        Piggyback::DepSet { deps } => {
            h.word(4);
            for &d in deps {
                h.word(u64::from(d));
            }
        }
    }
}

/// Folds one pending event's *content* into the hash: kind tag, actors and
/// payload signature — deliberately excluding the scheduled time, the
/// scheduler sequence number and transport packet ids, so that commuted
/// independent events lead back to one merged state (see
/// [`Simulation::fingerprint`] for the abstraction argument).
fn ev_sig(ev: &Ev, h: &mut Fnv) {
    match ev {
        Ev::Activity { mh, gen } => {
            h.word(1);
            h.word(mh.idx() as u64);
            h.word(u64::from(*gen));
        }
        Ev::Deliver { to, q } => {
            h.word(2);
            h.word(to.idx() as u64);
            h.word(q.from.idx() as u64);
            pb_sig(&q.payload.pb, h);
        }
        Ev::Mobility { mh, switch } => {
            h.word(3);
            h.word(mh.idx() as u64);
            h.word(u64::from(*switch));
        }
        Ev::Reconnect { mh } => {
            h.word(4);
            h.word(mh.idx() as u64);
        }
        Ev::Periodic { mh } => {
            h.word(5);
            h.word(mh.idx() as u64);
        }
        Ev::CoordRound => h.word(6),
        Ev::DeliverCtl { to, from, msg } => {
            h.word(7);
            h.word(to.idx() as u64);
            h.word(from.idx() as u64);
            // Control messages are rare (coordinated baselines only) and
            // carry small enums; their debug form is a stable content key.
            h.bytes(format!("{msg:?}").as_bytes());
        }
        Ev::Crash { mh } => {
            h.word(8);
            h.word(mh.idx() as u64);
        }
        Ev::MssCrash { mss } => {
            h.word(9);
            h.word(mss.idx() as u64);
        }
        Ev::Recovered { mh } => {
            h.word(10);
            h.word(mh.idx() as u64);
        }
    }
}

/// Stable description of a pending event for counterexample schedules.
fn ev_label(ev: &Ev) -> String {
    match ev {
        Ev::Activity { mh, gen } => format!("activity(mh{},gen{gen})", mh.idx()),
        Ev::Deliver { to, q } => format!("deliver(mh{}<-mh{})", to.idx(), q.from.idx()),
        Ev::Mobility { mh, switch } => {
            let what = if *switch { "switch" } else { "disconnect" };
            format!("mobility(mh{},{what})", mh.idx())
        }
        Ev::Reconnect { mh } => format!("reconnect(mh{})", mh.idx()),
        Ev::Periodic { mh } => format!("periodic(mh{})", mh.idx()),
        Ev::CoordRound => "coord_round".to_string(),
        Ev::DeliverCtl { to, from, .. } => {
            format!("deliver_ctl(mh{}<-mh{})", to.idx(), from.idx())
        }
        Ev::Crash { mh } => format!("crash(mh{})", mh.idx()),
        Ev::MssCrash { mss } => format!("mss_crash(mss{})", mss.idx()),
        Ev::Recovered { mh } => format!("recovered(mh{})", mh.idx()),
    }
}

impl Simulation {
    /// The *enabled set*: every live pending event scheduled strictly
    /// before `horizon`, in `(time, seq)` order. The seeded simulator
    /// always fires the first entry; the checker may fire any of them.
    pub fn enabled_choices(sched: &Scheduler<Ev>, horizon: SimTime) -> Vec<Choice> {
        sched
            .pending()
            .into_iter()
            .filter(|&(_, t, _)| t < horizon)
            .map(|(seq, t, ev)| Choice {
                seq,
                time: t.as_f64(),
                label: ev_label(ev),
            })
            .collect()
    }

    /// Fires the chosen pending event (by scheduler sequence number) and
    /// dispatches it through the same `Model::handle` as the seeded run.
    /// The clock advances monotonically to `max(now, event time)`; firing
    /// the earliest enabled choice is therefore exactly one `run_until`
    /// step.
    ///
    /// # Panics
    /// Panics if `seq` does not name a live pending event.
    pub fn apply_choice(&mut self, sched: &mut Scheduler<Ev>, seq: u64) {
        let fired = sched
            .take(seq)
            .expect("apply_choice: seq must name a live pending event");
        let _ = self.handle(sched, fired);
    }

    /// Hashes the live world state for the checker's seen-set.
    ///
    /// **Abstraction:** the hash covers everything that determines *future
    /// behaviour* — per-host protocol state, attachment, location entries,
    /// workload generations, RNG substream positions, queued mailbox
    /// contents, and the pending-event multiset keyed by event *content*.
    /// It deliberately excludes event times, scheduler sequence numbers,
    /// packet ids, accumulated metrics and the recorded trace: those are
    /// history, not live state, so two schedules that commute independent
    /// events merge into one explored state (the standard live-state
    /// abstraction of message-passing model checkers). Safety invariants
    /// are asserted on every state *before* merging, so a violation on any
    /// schedule within the bound is still found; per-schedule artifacts
    /// (exact timestamps, byte counters) are not distinguished.
    pub fn fingerprint(&self, sched: &Scheduler<Ev>) -> u64 {
        let mut h = Fnv::new();
        let mut words: Vec<u64> = Vec::with_capacity(16);
        for i in 0..self.cfg.n_mhs {
            let mh = MhId(i);
            words.clear();
            self.protos[i].state_sig(&mut words);
            for &w in &words {
                h.word(w);
            }
            match self.attach.attachment(mh) {
                mobnet::Attachment::Connected(mss) => {
                    h.word(1);
                    h.word(mss.idx() as u64);
                }
                mobnet::Attachment::Disconnected { last } => {
                    h.word(2);
                    h.word(last.idx() as u64);
                }
            }
            h.word(self.loc.peek(mh).idx() as u64);
            h.word(u64::from(self.activity_gen[i]));
            for w in self.workload_rng[i].state_words() {
                h.word(w);
            }
            for w in self.mobility_rng[i].state_words() {
                h.word(w);
            }
            h.word(self.mailboxes.pending(mh) as u64);
            for q in self.mailboxes.queued(mh) {
                h.word(q.from.idx() as u64);
                pb_sig(&q.payload.pb, &mut h);
            }
            if let Some(f) = &self.fault {
                h.word(u64::from(f.down[i]));
                h.word(u64::from(f.mobility_lost[i]));
            }
        }
        for w in self.net_rng.state_words() {
            h.word(w);
        }
        for w in self.coord_rng.state_words() {
            h.word(w);
        }
        // Pending events as a canonical (sorted) multiset of content
        // hashes: the enabled set minus ordering accidents.
        let mut pend: Vec<u64> = sched
            .pending()
            .iter()
            .map(|(_, _, ev)| {
                let mut eh = Fnv::new();
                ev_sig(ev, &mut eh);
                eh.0
            })
            .collect();
        pend.sort_unstable();
        h.word(pend.len() as u64);
        for p in pend {
            h.word(p);
        }
        h.0
    }

    /// The causality trace recorded so far, borrowed (`None` unless the
    /// run records one: `record_trace` or failure injection). The checker
    /// asserts its safety invariants against this after every applied
    /// choice.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref().map(TraceBuilder::view)
    }

    /// An owned copy of [`Simulation::trace`], for callers that keep it
    /// past the next step.
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.trace().cloned()
    }

    /// Replaces each host's protocol instance with `wrap(old)`.
    ///
    /// This is the mutation-testing hook: the checker wraps the real
    /// protocol in a deliberately broken forced-checkpoint predicate and
    /// proves it finds (and minimizes) the resulting counterexample.
    /// Call before any event has fired.
    pub fn map_protocols(&mut self, wrap: impl FnMut(Box<dyn Protocol>) -> Box<dyn Protocol>) {
        let protos = std::mem::take(&mut self.protos);
        self.protos = protos.into_iter().map(wrap).collect();
    }
}

impl Model for Simulation {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, fired: Fired<Ev>) -> Control {
        let now = fired.time;
        match fired.event {
            Ev::Activity { mh, gen } => self.on_activity(sched, now, mh, gen),
            Ev::Deliver { to, q } => {
                self.mailboxes.enqueue(to, q);
                if self.registry.is_enabled() {
                    let depth = self.mailboxes.pending(to) as f64;
                    let id = self.mailbox_depth;
                    self.registry.set_max(id, depth);
                }
            }
            Ev::Mobility { mh, switch } => self.on_mobility(sched, now, mh, switch),
            Ev::Reconnect { mh } => self.on_reconnect(sched, now, mh),
            Ev::Periodic { mh } => {
                if self.attach.attachment(mh).is_connected() && !self.is_down(mh) {
                    self.basic_checkpoint(now, mh, BasicReason::Periodic);
                }
                let d = self.mobility_rng[mh.idx()].exp(self.cfg.periodic_mean);
                sched.schedule_in(d, Ev::Periodic { mh });
            }
            Ev::CoordRound => self.on_coord_round(sched, now),
            Ev::DeliverCtl { to, from, msg } => self.on_deliver_ctl(sched, now, to, from, msg),
            Ev::Crash { mh } => self.on_crash(sched, now, mh),
            Ev::MssCrash { mss } => self.on_mss_crash(sched, now, mss),
            Ev::Recovered { mh } => self.on_recovered(sched, mh),
        }
        Control::Continue
    }
}
