//! Structured run tracing.
//!
//! This module carries **typed** events — checkpoints, message lifecycle,
//! mobility, recovery-line updates — each stamped with simulation time and a
//! monotonically increasing sequence number. Events flow through a
//! [`Tracer`] to any number of subscribed [`TraceSink`]s:
//!
//! * [`MemorySink`] — a bounded in-memory ring;
//! * [`JsonlSink`] — streams one JSON object per line to any writer, the
//!   machine-readable form consumed by `mck inspect` and external tooling.
//!
//! Because events carry only simulation-derived data (no wall clock), a
//! trace stream is a pure function of the configuration and seed: two runs
//! with the same seed produce byte-identical JSONL.

use std::io::Write;

use crate::json::Json;
use crate::time::SimTime;

/// Why a checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptClass {
    /// Basic checkpoint on a cell switch (hand-off).
    CellSwitch,
    /// Basic checkpoint on a voluntary disconnection.
    Disconnect,
    /// Forced (communication-induced) checkpoint.
    Forced,
    /// Timer-driven periodic checkpoint (uncoordinated baseline).
    Periodic,
    /// Coordinated-session checkpoint (Koo–Toueg / Chandy–Lamport style).
    Coordinated,
}

impl CkptClass {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CkptClass::CellSwitch => "cell_switch",
            CkptClass::Disconnect => "disconnect",
            CkptClass::Forced => "forced",
            CkptClass::Periodic => "periodic",
            CkptClass::Coordinated => "coordinated",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "cell_switch" => CkptClass::CellSwitch,
            "disconnect" => CkptClass::Disconnect,
            "forced" => CkptClass::Forced,
            "periodic" => CkptClass::Periodic,
            "coordinated" => CkptClass::Coordinated,
            _ => return None,
        })
    }

    /// True for the basic (mobility-driven) classes.
    pub fn is_basic(self) -> bool {
        matches!(self, CkptClass::CellSwitch | CkptClass::Disconnect)
    }
}

/// One typed simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A mobile host took checkpoint number `index`.
    Checkpoint {
        /// Host that checkpointed.
        mh: usize,
        /// Protocol checkpoint index (sequence number).
        index: u64,
        /// Why it was taken.
        class: CkptClass,
        /// True when this checkpoint replaces its predecessor (QBC).
        replaced: bool,
    },
    /// Application message handed to the network.
    Send {
        /// Unique message id.
        msg: u64,
        /// Sender host.
        from: usize,
        /// Destination host.
        to: usize,
        /// Payload plus piggyback size.
        bytes: u64,
    },
    /// Application message delivered to its destination.
    Deliver {
        /// Unique message id.
        msg: u64,
        /// Sender host.
        from: usize,
        /// Destination host.
        to: usize,
    },
    /// A duplicate delivery was suppressed.
    Dedup {
        /// Unique message id.
        msg: u64,
        /// Destination host.
        to: usize,
    },
    /// A host switched cells.
    Handoff {
        /// Moving host.
        mh: usize,
        /// Cell left.
        from_cell: usize,
        /// Cell entered.
        to_cell: usize,
    },
    /// A host disconnected from its cell.
    Disconnect {
        /// Disconnecting host.
        mh: usize,
        /// Cell it left.
        cell: usize,
    },
    /// A host reconnected to a cell.
    Reconnect {
        /// Reconnecting host.
        mh: usize,
        /// Cell it joined.
        cell: usize,
    },
    /// The globally consistent recovery line advanced to `index`.
    RecoveryLine {
        /// Smallest checkpoint index reached by all hosts.
        index: u64,
    },
}

impl TraceEvent {
    /// Stable wire/tag name of the event type.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Dedup { .. } => "dedup",
            TraceEvent::Handoff { .. } => "handoff",
            TraceEvent::Disconnect { .. } => "disconnect",
            TraceEvent::Reconnect { .. } => "reconnect",
            TraceEvent::RecoveryLine { .. } => "recovery_line",
        }
    }

    /// Short human rendering, one line per event.
    pub fn describe(&self) -> String {
        match self {
            TraceEvent::Checkpoint {
                mh,
                index,
                class,
                replaced,
            } => format!(
                "MH{mh} ckpt #{index} ({}{})",
                class.name(),
                if *replaced { ", replaces predecessor" } else { "" }
            ),
            TraceEvent::Send { msg, from, to, bytes } => {
                format!("msg {msg}: MH{from} -> MH{to} ({bytes} B)")
            }
            TraceEvent::Deliver { msg, from, to } => {
                format!("msg {msg}: delivered MH{from} -> MH{to}")
            }
            TraceEvent::Dedup { msg, to } => format!("msg {msg}: duplicate dropped at MH{to}"),
            TraceEvent::Handoff { mh, from_cell, to_cell } => {
                format!("MH{mh} hand-off cell {from_cell} -> {to_cell}")
            }
            TraceEvent::Disconnect { mh, cell } => format!("MH{mh} disconnected from cell {cell}"),
            TraceEvent::Reconnect { mh, cell } => format!("MH{mh} reconnected to cell {cell}"),
            TraceEvent::RecoveryLine { index } => format!("recovery line advanced to index {index}"),
        }
    }
}

/// A [`TraceEvent`] stamped with sequence number and simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 0-based position in the run's event stream.
    pub seq: u64,
    /// Simulation time of the event.
    pub time: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Serializes to the JSONL wire form.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("seq".into(), Json::uint(self.seq)),
            ("t".into(), Json::Num(self.time.as_f64())),
            ("ev".into(), Json::str(self.event.kind())),
        ];
        match &self.event {
            TraceEvent::Checkpoint {
                mh,
                index,
                class,
                replaced,
            } => {
                members.push(("mh".into(), Json::uint(*mh as u64)));
                members.push(("index".into(), Json::uint(*index)));
                members.push(("class".into(), Json::str(class.name())));
                members.push(("replaced".into(), Json::Bool(*replaced)));
            }
            TraceEvent::Send { msg, from, to, bytes } => {
                members.push(("msg".into(), Json::uint(*msg)));
                members.push(("from".into(), Json::uint(*from as u64)));
                members.push(("to".into(), Json::uint(*to as u64)));
                members.push(("bytes".into(), Json::uint(*bytes)));
            }
            TraceEvent::Deliver { msg, from, to } => {
                members.push(("msg".into(), Json::uint(*msg)));
                members.push(("from".into(), Json::uint(*from as u64)));
                members.push(("to".into(), Json::uint(*to as u64)));
            }
            TraceEvent::Dedup { msg, to } => {
                members.push(("msg".into(), Json::uint(*msg)));
                members.push(("to".into(), Json::uint(*to as u64)));
            }
            TraceEvent::Handoff { mh, from_cell, to_cell } => {
                members.push(("mh".into(), Json::uint(*mh as u64)));
                members.push(("from_cell".into(), Json::uint(*from_cell as u64)));
                members.push(("to_cell".into(), Json::uint(*to_cell as u64)));
            }
            TraceEvent::Disconnect { mh, cell } | TraceEvent::Reconnect { mh, cell } => {
                members.push(("mh".into(), Json::uint(*mh as u64)));
                members.push(("cell".into(), Json::uint(*cell as u64)));
            }
            TraceEvent::RecoveryLine { index } => {
                members.push(("index".into(), Json::uint(*index)));
            }
        }
        Json::Obj(members)
    }

    /// Parses the JSONL wire form back into a record.
    pub fn from_json(v: &Json) -> Option<TraceRecord> {
        let seq = v.get("seq")?.as_u64()?;
        let time = SimTime::new(v.get("t")?.as_f64()?);
        let usize_of = |key: &str| v.get(key).and_then(Json::as_u64).map(|x| x as usize);
        let event = match v.get("ev")?.as_str()? {
            "checkpoint" => TraceEvent::Checkpoint {
                mh: usize_of("mh")?,
                index: v.get("index")?.as_u64()?,
                class: CkptClass::from_name(v.get("class")?.as_str()?)?,
                replaced: v.get("replaced")?.as_bool()?,
            },
            "send" => TraceEvent::Send {
                msg: v.get("msg")?.as_u64()?,
                from: usize_of("from")?,
                to: usize_of("to")?,
                bytes: v.get("bytes")?.as_u64()?,
            },
            "deliver" => TraceEvent::Deliver {
                msg: v.get("msg")?.as_u64()?,
                from: usize_of("from")?,
                to: usize_of("to")?,
            },
            "dedup" => TraceEvent::Dedup {
                msg: v.get("msg")?.as_u64()?,
                to: usize_of("to")?,
            },
            "handoff" => TraceEvent::Handoff {
                mh: usize_of("mh")?,
                from_cell: usize_of("from_cell")?,
                to_cell: usize_of("to_cell")?,
            },
            "disconnect" => TraceEvent::Disconnect {
                mh: usize_of("mh")?,
                cell: usize_of("cell")?,
            },
            "reconnect" => TraceEvent::Reconnect {
                mh: usize_of("mh")?,
                cell: usize_of("cell")?,
            },
            "recovery_line" => TraceEvent::RecoveryLine {
                index: v.get("index")?.as_u64()?,
            },
            _ => return None,
        };
        Some(TraceRecord { seq, time, event })
    }
}

/// A subscriber to the trace stream.
pub trait TraceSink: Send {
    /// Called once per emitted event, in sequence order.
    fn on_record(&mut self, rec: &TraceRecord);

    /// Called when the run finishes (flush buffers, write trailers).
    fn finish(&mut self) {}
}

/// Bounded in-memory ring of [`TraceRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: std::collections::VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl MemorySink {
    /// A ring retaining at most `capacity` records (0 disables retention).
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            records: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full (or capacity was 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for MemorySink {
    fn on_record(&mut self, rec: &TraceRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec.clone());
    }
}

/// Streams records as JSON Lines to any writer.
pub struct JsonlSink {
    out: std::io::BufWriter<Box<dyn Write + Send>>,
    written: u64,
    io_error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Wraps a writer (file, stdout, `Vec<u8>` buffer, ...).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: std::io::BufWriter::new(out),
            written: 0,
            io_error: None,
        }
    }

    /// Opens (truncates) a file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error hit while writing, if any (writing stops at the
    /// first failure; simulation correctness never depends on the sink).
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.io_error.as_ref()
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .field("io_error", &self.io_error)
            .finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn on_record(&mut self, rec: &TraceRecord) {
        if self.io_error.is_some() {
            return;
        }
        let line = rec.to_json().to_compact();
        if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|_| self.out.write_all(b"\n"))
        {
            self.io_error = Some(e);
            return;
        }
        self.written += 1;
    }

    fn finish(&mut self) {
        if let Err(e) = self.out.flush() {
            self.io_error.get_or_insert(e);
        }
    }
}

/// Fan-out point of the trace stream.
///
/// A `Tracer` with no sinks is inert: [`Tracer::is_active`] lets call sites
/// skip even constructing event payloads. The two built-in sinks
/// ([`MemorySink`], [`JsonlSink`]) occupy dedicated slots so they can be
/// retrieved after the run; arbitrary additional subscribers attach as boxed
/// [`TraceSink`]s.
#[derive(Default)]
pub struct Tracer {
    seq: u64,
    memory: Option<MemorySink>,
    jsonl: Option<JsonlSink>,
    extra: Vec<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("seq", &self.seq)
            .field("memory", &self.memory)
            .field("jsonl", &self.jsonl)
            .field("extra_sinks", &self.extra.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no subscribers (all emits are no-ops).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Attaches a bounded in-memory ring sink.
    pub fn with_memory(mut self, capacity: usize) -> Self {
        self.memory = Some(MemorySink::new(capacity));
        self
    }

    /// Attaches a JSONL sink.
    pub fn with_jsonl(mut self, sink: JsonlSink) -> Self {
        self.jsonl = Some(sink);
        self
    }

    /// Attaches an arbitrary subscriber.
    pub fn attach(&mut self, sink: Box<dyn TraceSink>) {
        self.extra.push(sink);
    }

    /// True when at least one sink is subscribed.
    pub fn is_active(&self) -> bool {
        self.memory.is_some() || self.jsonl.is_some() || !self.extra.is_empty()
    }

    /// Events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Stamps and broadcasts one event. No-op when no sink is subscribed.
    pub fn emit(&mut self, time: SimTime, event: TraceEvent) {
        if !self.is_active() {
            return;
        }
        let rec = TraceRecord {
            seq: self.seq,
            time,
            event,
        };
        self.seq += 1;
        if let Some(m) = &mut self.memory {
            m.on_record(&rec);
        }
        if let Some(j) = &mut self.jsonl {
            j.on_record(&rec);
        }
        for s in &mut self.extra {
            s.on_record(&rec);
        }
    }

    /// Flushes every sink and returns the retrievable ones
    /// `(memory, jsonl)`.
    pub fn finish(mut self) -> (Option<MemorySink>, Option<JsonlSink>) {
        if let Some(m) = &mut self.memory {
            TraceSink::finish(m);
        }
        if let Some(j) = &mut self.jsonl {
            TraceSink::finish(j);
        }
        for s in &mut self.extra {
            s.finish();
        }
        (self.memory, self.jsonl)
    }

    /// Read access to the memory sink, if attached.
    pub fn memory(&self) -> Option<&MemorySink> {
        self.memory.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Checkpoint {
                mh: 3,
                index: 7,
                class: CkptClass::Forced,
                replaced: false,
            },
            TraceEvent::Checkpoint {
                mh: 0,
                index: 2,
                class: CkptClass::Disconnect,
                replaced: true,
            },
            TraceEvent::Send {
                msg: 11,
                from: 1,
                to: 2,
                bytes: 1040,
            },
            TraceEvent::Deliver { msg: 11, from: 1, to: 2 },
            TraceEvent::Dedup { msg: 11, to: 2 },
            TraceEvent::Handoff {
                mh: 4,
                from_cell: 0,
                to_cell: 3,
            },
            TraceEvent::Disconnect { mh: 5, cell: 2 },
            TraceEvent::Reconnect { mh: 5, cell: 1 },
            TraceEvent::RecoveryLine { index: 9 },
        ]
    }

    #[test]
    fn records_round_trip_through_json() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let rec = TraceRecord {
                seq: i as u64,
                time: t(1.5 * i as f64),
                event,
            };
            let json = crate::json::parse(&rec.to_json().to_compact()).unwrap();
            assert_eq!(TraceRecord::from_json(&json), Some(rec));
        }
    }

    #[test]
    fn inactive_tracer_is_noop() {
        let mut tr = Tracer::disabled();
        assert!(!tr.is_active());
        tr.emit(t(1.0), TraceEvent::RecoveryLine { index: 1 });
        assert_eq!(tr.emitted(), 0);
    }

    #[test]
    fn memory_sink_bounds_and_counts_drops() {
        let mut tr = Tracer::disabled().with_memory(2);
        assert!(tr.is_active());
        for i in 0..5 {
            tr.emit(t(i as f64), TraceEvent::RecoveryLine { index: i });
        }
        let (mem, _) = tr.finish();
        let mem = mem.unwrap();
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.dropped(), 3);
        let seqs: Vec<u64> = mem.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn memory_sink_capacity_zero_drops_everything() {
        let mut sink = MemorySink::new(0);
        sink.on_record(&TraceRecord {
            seq: 0,
            time: t(0.0),
            event: TraceEvent::RecoveryLine { index: 0 },
        });
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("simkit_trace_test.jsonl");
        let mut tr = Tracer::disabled().with_jsonl(JsonlSink::create(&path).unwrap());
        let events = sample_events();
        for (i, e) in events.iter().enumerate() {
            tr.emit(t(i as f64), e.clone());
        }
        let (_, jsonl) = tr.finish();
        assert_eq!(jsonl.unwrap().written(), events.len() as u64);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<TraceRecord> = text
            .lines()
            .map(|l| TraceRecord::from_json(&crate::json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(parsed.len(), events.len());
        for (i, rec) in parsed.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(&rec.event, &events[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn custom_sinks_receive_events() {
        struct CountSink(std::sync::Arc<std::sync::atomic::AtomicU64>);
        impl TraceSink for CountSink {
            fn on_record(&mut self, _rec: &TraceRecord) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let n = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut tr = Tracer::disabled();
        tr.attach(Box::new(CountSink(n.clone())));
        tr.emit(t(0.0), TraceEvent::RecoveryLine { index: 0 });
        tr.emit(t(1.0), TraceEvent::RecoveryLine { index: 1 });
        tr.finish();
        assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let mut tr = Tracer::disabled().with_memory(100);
        for i in 0..10 {
            tr.emit(t(i as f64), TraceEvent::RecoveryLine { index: i });
        }
        let (mem, _) = tr.finish();
        let seqs: Vec<u64> = mem.unwrap().records().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }
}
