//! Distributed computation traces.
//!
//! A [`Trace`] is the complete causal record of one run: for each process,
//! the ordered sequence of its local checkpoints, and for each application
//! message, the checkpoint *intervals* in which it was sent and received.
//! (Interval `k` of a process is the span between its `k`-th and `k+1`-th
//! checkpoints; every process has an implicit initial checkpoint, ordinal 0,
//! at time zero, as usual in the checkpointing literature.)
//!
//! Traces are produced live by the simulator and synthetically by tests, and
//! consumed by the consistency, recovery-line and Z-path analyses.

use std::collections::HashMap;
use std::fmt;

/// Identifies a process (a mobile host, in the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

impl ProcId {
    /// Index into per-process arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies an application message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// Why a checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CkptKind {
    /// The implicit initial checkpoint every process starts with.
    Initial,
    /// Basic checkpoint on a cell switch (hand-off).
    CellSwitch,
    /// Basic checkpoint on voluntary disconnection.
    Disconnect,
    /// Checkpoint forced by the protocol on a message receipt.
    Forced,
    /// Periodic checkpoint (uncoordinated baseline).
    Periodic,
    /// Checkpoint induced by an explicit coordination round (coordinated
    /// baselines).
    Coordinated,
}

impl CkptKind {
    /// True for the mobility-mandated checkpoints the paper calls *basic*.
    pub fn is_basic(self) -> bool {
        matches!(self, CkptKind::CellSwitch | CkptKind::Disconnect)
    }
}

/// One local checkpoint in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptRecord {
    /// Position in the process's checkpoint sequence (0 = initial).
    pub ordinal: usize,
    /// Simulation time at which it was taken.
    pub time: f64,
    /// Protocol-assigned index (e.g. the BCS/QBC sequence number). For
    /// protocols without indices this mirrors the ordinal.
    pub index: u64,
    /// Why it was taken.
    pub kind: CkptKind,
}

/// One application message in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgRecord {
    /// Message identity.
    pub id: MsgId,
    /// Sender process.
    pub from: ProcId,
    /// Receiver process.
    pub to: ProcId,
    /// Sender's checkpoint interval at the send event.
    pub send_interval: usize,
    /// Send time.
    pub send_time: f64,
    /// Receiver's checkpoint interval at the receive event, or `None` if the
    /// message was still in transit when the trace ended.
    pub recv_interval: Option<usize>,
    /// Receive time, if delivered.
    pub recv_time: Option<f64>,
}

impl MsgRecord {
    /// True if the message was delivered within the traced window.
    pub fn delivered(&self) -> bool {
        self.recv_interval.is_some()
    }
}

/// Incrementally records events during a run; finalize with
/// [`TraceBuilder::finish`], or borrow what has been recorded so far with
/// [`TraceBuilder::view`].
///
/// Every recorded message keeps its slot in an id map, so rejecting a
/// reused id on send and an unknown or repeated receive are one hash
/// lookup each, whatever the length of the history.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
    slots: HashMap<MsgId, usize>,
    last_time: Vec<f64>,
}

impl TraceBuilder {
    /// Starts a trace over `n` processes, each with its implicit initial
    /// checkpoint (ordinal 0, time 0, index 0).
    pub fn new(n: usize) -> Self {
        let ckpts = (0..n)
            .map(|_| {
                vec![CkptRecord {
                    ordinal: 0,
                    time: 0.0,
                    index: 0,
                    kind: CkptKind::Initial,
                }]
            })
            .collect();
        TraceBuilder {
            trace: Trace {
                ckpts,
                msgs: Vec::new(),
            },
            slots: HashMap::new(),
            last_time: vec![0.0; n],
        }
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.trace.n_procs()
    }

    fn check_time(&mut self, p: ProcId, time: f64) {
        assert!(
            time >= self.last_time[p.idx()],
            "events of {p} must be recorded in time order ({time} < {})",
            self.last_time[p.idx()]
        );
        self.last_time[p.idx()] = time;
    }

    /// Records a checkpoint of `p` and returns its ordinal.
    pub fn checkpoint(&mut self, p: ProcId, time: f64, index: u64, kind: CkptKind) -> usize {
        self.check_time(p, time);
        let seq = &mut self.trace.ckpts[p.idx()];
        let ordinal = seq.len();
        seq.push(CkptRecord {
            ordinal,
            time,
            index,
            kind,
        });
        ordinal
    }

    /// Records that `from` sent message `id` to `to`.
    pub fn send(&mut self, id: MsgId, from: ProcId, to: ProcId, time: f64) {
        self.check_time(from, time);
        let slot = self.trace.msgs.len();
        assert!(
            self.slots.insert(id, slot).is_none(),
            "duplicate message id {id:?}"
        );
        let send_interval = self.trace.ckpts[from.idx()].len() - 1;
        self.trace.msgs.push(MsgRecord {
            id,
            from,
            to,
            send_interval,
            send_time: time,
            recv_interval: None,
            recv_time: None,
        });
    }

    /// Records that message `id` was received (must have been sent first).
    pub fn recv(&mut self, id: MsgId, time: f64) {
        let slot = self
            .slots
            .get(&id)
            .copied()
            .filter(|&s| self.trace.msgs[s].recv_interval.is_none())
            .unwrap_or_else(|| panic!("receive of unknown or already-received message {id:?}"));
        let to = self.trace.msgs[slot].to;
        self.check_time(to, time);
        let recv_interval = self.trace.ckpts[to.idx()].len() - 1;
        let m = &mut self.trace.msgs[slot];
        m.recv_interval = Some(recv_interval);
        m.recv_time = Some(time);
    }

    /// Number of checkpoints recorded so far for `p` (including the initial
    /// one).
    pub fn n_checkpoints(&self, p: ProcId) -> usize {
        self.trace.ckpts[p.idx()].len()
    }

    /// Everything recorded so far, borrowed for mid-run analyses (e.g.
    /// planning recovery at a crash while the simulation continues). The
    /// builder keeps recording once the borrow ends.
    pub fn view(&self) -> &Trace {
        &self.trace
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// An immutable, fully recorded computation trace.
#[derive(Debug, Clone)]
pub struct Trace {
    ckpts: Vec<Vec<CkptRecord>>,
    msgs: Vec<MsgRecord>,
}

impl Trace {
    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.ckpts.len()
    }

    /// The checkpoint sequence of process `p` (ordinal order, initial first).
    pub fn checkpoints(&self, p: ProcId) -> &[CkptRecord] {
        &self.ckpts[p.idx()]
    }

    /// All message records.
    pub fn messages(&self) -> &[MsgRecord] {
        &self.msgs
    }

    /// All process ids.
    pub fn procs(&self) -> impl Iterator<Item = ProcId> {
        (0..self.n_procs()).map(ProcId)
    }

    /// Total checkpoints across processes, excluding the implicit initial
    /// ones (this is the paper's `N_tot`).
    pub fn total_checkpoints(&self) -> usize {
        self.ckpts.iter().map(|c| c.len() - 1).sum()
    }

    /// Looks up the latest checkpoint of `p` with protocol index `>= index`
    /// — the BCS/QBC recovery-line member rule ("if there is a jump in the
    /// sequence number, the first checkpoint with greater sequence number
    /// must be included"). Returns its ordinal.
    pub fn first_ckpt_with_index_at_least(&self, p: ProcId, index: u64) -> Option<usize> {
        self.ckpts[p.idx()]
            .iter()
            .find(|c| c.index >= index)
            .map(|c| c.ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_proc_trace() -> Trace {
        // p0: C0 --- send m1 --- C1
        // p1: C0 ----------- recv m1 --- C1
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.checkpoint(ProcId(0), 2.0, 1, CkptKind::CellSwitch);
        b.recv(MsgId(1), 3.0);
        b.checkpoint(ProcId(1), 4.0, 1, CkptKind::Forced);
        b.finish()
    }

    #[test]
    fn implicit_initial_checkpoints() {
        let t = TraceBuilder::new(3).finish();
        for p in t.procs() {
            assert_eq!(t.checkpoints(p).len(), 1);
            assert_eq!(t.checkpoints(p)[0].kind, CkptKind::Initial);
        }
        assert_eq!(t.total_checkpoints(), 0);
    }

    #[test]
    fn intervals_are_assigned_correctly() {
        let t = two_proc_trace();
        let m = &t.messages()[0];
        assert_eq!(m.send_interval, 0); // sent before p0's first real ckpt
        assert_eq!(m.recv_interval, Some(0));
        assert!(m.delivered());
        assert_eq!(t.total_checkpoints(), 2);
    }

    #[test]
    fn undelivered_message_stays_open() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(9), ProcId(0), ProcId(1), 1.0);
        let t = b.finish();
        assert!(!t.messages()[0].delivered());
    }

    #[test]
    fn checkpoint_ordinals_increase() {
        let mut b = TraceBuilder::new(1);
        assert_eq!(b.checkpoint(ProcId(0), 1.0, 1, CkptKind::CellSwitch), 1);
        assert_eq!(b.checkpoint(ProcId(0), 2.0, 2, CkptKind::Disconnect), 2);
        assert_eq!(b.n_checkpoints(ProcId(0)), 3);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_rejected() {
        let mut b = TraceBuilder::new(1);
        b.checkpoint(ProcId(0), 5.0, 1, CkptKind::CellSwitch);
        b.checkpoint(ProcId(0), 4.0, 2, CkptKind::CellSwitch);
    }

    #[test]
    #[should_panic(expected = "duplicate message id")]
    fn duplicate_send_rejected() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.send(MsgId(1), ProcId(0), ProcId(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "duplicate message id")]
    fn resend_of_received_id_rejected() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.recv(MsgId(1), 2.0);
        b.send(MsgId(1), ProcId(0), ProcId(1), 3.0);
    }

    #[test]
    #[should_panic(expected = "unknown or already-received")]
    fn receive_of_unknown_id_rejected() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.recv(MsgId(2), 2.0);
    }

    #[test]
    fn view_borrows_what_was_recorded_so_far() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        assert_eq!(b.view().messages().len(), 1);
        assert!(!b.view().messages()[0].delivered());
        b.recv(MsgId(1), 2.0);
        b.checkpoint(ProcId(1), 3.0, 1, CkptKind::Forced);
        let seen = b.view().clone();
        assert!(seen.messages()[0].delivered());
        assert_eq!(seen.total_checkpoints(), 1);
        let t = b.finish();
        assert_eq!(t.messages(), seen.messages());
        assert_eq!(t.checkpoints(ProcId(1)), seen.checkpoints(ProcId(1)));
    }

    #[test]
    #[should_panic(expected = "unknown or already-received")]
    fn double_receive_rejected() {
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.recv(MsgId(1), 2.0);
        b.recv(MsgId(1), 3.0);
    }

    #[test]
    fn index_lookup_handles_jumps() {
        let mut b = TraceBuilder::new(1);
        b.checkpoint(ProcId(0), 1.0, 2, CkptKind::Forced); // jump: 0 → 2
        b.checkpoint(ProcId(0), 2.0, 5, CkptKind::Forced);
        let t = b.finish();
        let p = ProcId(0);
        assert_eq!(t.first_ckpt_with_index_at_least(p, 0), Some(0));
        assert_eq!(t.first_ckpt_with_index_at_least(p, 1), Some(1));
        assert_eq!(t.first_ckpt_with_index_at_least(p, 2), Some(1));
        assert_eq!(t.first_ckpt_with_index_at_least(p, 3), Some(2));
        assert_eq!(t.first_ckpt_with_index_at_least(p, 6), None);
    }

    #[test]
    fn basic_kind_classification() {
        assert!(CkptKind::CellSwitch.is_basic());
        assert!(CkptKind::Disconnect.is_basic());
        assert!(!CkptKind::Forced.is_basic());
        assert!(!CkptKind::Initial.is_basic());
        assert!(!CkptKind::Periodic.is_basic());
        assert!(!CkptKind::Coordinated.is_basic());
    }
}
