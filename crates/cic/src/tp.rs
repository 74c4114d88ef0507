//! The two-phase-based protocol TP (Acharya–Badrinath).
//!
//! TP adapts Russell's protocol to mobile systems. Each host keeps a
//! `phase` flag:
//!
//! * **send**: `phase := SEND`;
//! * **receive**: if `phase = SEND`, take a *forced* checkpoint (before
//!   delivery) and set `phase := RECV`.
//!
//! A checkpoint therefore separates every "burst of sends" from the next
//! receive, which is exactly the pattern that prevents orphan messages:
//! no message can be received in a state that causally precedes its send's
//! checkpoint interval.
//!
//! To associate each checkpoint with a consistent global checkpoint on the
//! fly, TP piggybacks two vectors of `n` integers on **every** application
//! message (Acharya and Badrinath prove the vector is necessary for this
//! protocol):
//!
//! * `CKPT[]` — transitive dependency vector over checkpoint indices:
//!   `CKPT_i[j] = p` means the current state of `h_i` depends on the `p`-th
//!   checkpoint of `h_j`;
//! * `LOC[]`  — `LOC_i[j] = q` means that checkpoint is stored at MSS `q`,
//!   enabling efficient retrieval over the wired network.
//!
//! The vector piggyback is TP's scalability weakness: control information
//! grows linearly with the number of hosts (the paper's point (3)/(f)).

use std::sync::Arc;

use crate::piggyback::{rle_encode, rle_encode_into, PbCodec, Piggyback, VecRun, INT_BYTES};
use crate::protocol::{BasicCkpt, BasicReason, Protocol, ReceiveOutcome};

/// The two phases of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The host has sent since its last checkpoint/receive: the next receive
    /// forces a checkpoint.
    Send,
    /// Safe to receive without checkpointing.
    Recv,
}

/// The frozen on-the-wire form of `(ckpt, loc)`: cheaply cloneable shared
/// slices handed to every outgoing message.
type WireVectors = (Arc<[u64]>, Arc<[u32]>);

/// Per-host TP state.
#[derive(Debug, Clone)]
pub struct Tp {
    /// This host's flat index.
    me: usize,
    phase: Phase,
    /// Checkpoints taken so far (the index of the latest checkpoint);
    /// doubles as `ckpt[me]`.
    count: u64,
    /// Transitive dependency vector on checkpoint indices.
    ckpt: Vec<u64>,
    /// MSS locations of the checkpoints in `ckpt`.
    loc: Vec<u32>,
    /// Current MSS of this host.
    here: u32,
    /// Frozen copy of `(ckpt, loc)` for the wire, shared by every send
    /// until a checkpoint or merge changes the vectors (copy-on-write:
    /// sends are far more frequent than checkpoints, so most sends are two
    /// refcount bumps instead of two `Vec` clones). A stale cache is
    /// *overwritten in place* when no message still holds a clone —
    /// dropping and reallocating two `n`-integer slices per refresh is
    /// allocator churn that dominates large-N runs.
    wire: Option<WireVectors>,
    /// Whether the wire caches lag the live vectors and must be refreshed
    /// before the next send. One flag covers both caches: `codec` is fixed
    /// per instance, so only the matching cache is ever populated.
    wire_dirty: bool,
    /// Frozen RLE wire form, cached and reused in place under the same
    /// policy as `wire` (the `Vec`'s capacity survives re-encoding).
    wire_rle: Option<Arc<Vec<VecRun>>>,
    /// Dense encodings still referenced by in-flight messages at refresh
    /// time, parked for recycling once their last clone drains. Without
    /// this, every refresh that races an undelivered message allocates
    /// (and later frees) two `n`-integer slices — allocator churn that
    /// dominates wall time at large `n`.
    retired: Vec<WireVectors>,
    /// Same recycling pool for the RLE wire form.
    retired_rle: Vec<Arc<Vec<VecRun>>>,
    /// Which wire form `on_send` emits.
    codec: PbCodec,
}

/// Bound on retired wire encodings parked per host for recycling; an
/// overflow entry is dropped instead (and frees once its in-flight clones
/// drain). Sized to the usual number of undelivered messages per host.
const RETIRED_CAP: usize = 4;

impl Tp {
    /// A fresh instance for host `me` of `n` hosts, currently at MSS `mss`.
    /// A basic checkpoint keeps the phase, as in the paper's pseudo-code:
    /// only a receive resets it.
    pub fn new(me: usize, n: usize, mss: u32) -> Self {
        assert!(me < n, "host index {me} out of range for {n} hosts");
        let mut loc = vec![0; n];
        loc[me] = mss;
        Tp {
            me,
            phase: Phase::Recv, // the paper's init: phase := RECV
            count: 0,
            ckpt: vec![0; n],
            loc,
            here: mss,
            wire: None,
            wire_dirty: false,
            wire_rle: None,
            retired: Vec::new(),
            retired_rle: Vec::new(),
            codec: PbCodec::Dense,
        }
    }

    /// Like [`Tp::new`], emitting the given wire codec on sends. The
    /// protocol state and the forced-checkpoint behaviour are identical
    /// under every codec; only the wire form (and its modelled byte cost)
    /// changes.
    pub fn with_codec(me: usize, n: usize, mss: u32, codec: PbCodec) -> Self {
        Tp {
            codec,
            ..Self::new(me, n, mss)
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Number of checkpoints taken (index of the latest one).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The transitive dependency vector (`CKPT[]`).
    pub fn ckpt_vector(&self) -> &[u64] {
        &self.ckpt
    }

    /// The location vector (`LOC[]`).
    pub fn loc_vector(&self) -> &[u32] {
        &self.loc
    }

    fn take_checkpoint(&mut self) -> u64 {
        self.count += 1;
        self.ckpt[self.me] = self.count;
        self.loc[self.me] = self.here;
        self.wire_dirty = true;
        self.count
    }

    /// Merges an incoming message's dependency vectors (after any forced
    /// checkpoint; the checkpoint snapshots the pre-merge vectors, exactly
    /// as recording them on stable storage *at checkpoint time* requires).
    fn merge(&mut self, ckpt: &[u64], loc: &[u32]) {
        assert_eq!(ckpt.len(), self.ckpt.len(), "CKPT vector width mismatch");
        assert_eq!(loc.len(), self.loc.len(), "LOC vector width mismatch");
        for j in 0..self.ckpt.len() {
            if j != self.me && ckpt[j] > self.ckpt[j] {
                self.ckpt[j] = ckpt[j];
                self.loc[j] = loc[j];
                self.wire_dirty = true;
            }
        }
    }

    /// Merges an RLE-coded message without expanding it: whole runs of
    /// zero entries (the bulk of the wire form at large `n`) are skipped
    /// outright, because the merge needs `incoming > own` and own entries
    /// are never negative. Equivalent to decode-then-[`Tp::merge`] — the
    /// parity proptests pin that.
    fn merge_runs(&mut self, runs: &[VecRun]) {
        let mut j = 0usize;
        for r in runs {
            let end = j + r.len as usize;
            assert!(end <= self.ckpt.len(), "CKPT vector width mismatch");
            if r.ckpt > 0 {
                for k in j..end {
                    if k != self.me && r.ckpt > self.ckpt[k] {
                        self.ckpt[k] = r.ckpt;
                        self.loc[k] = r.loc;
                        self.wire_dirty = true;
                    }
                }
            }
            j = end;
        }
        assert_eq!(j, self.ckpt.len(), "CKPT vector width mismatch");
    }

    /// Brings the dense wire cache up to date with the live vectors,
    /// recycling allocations wherever possible: overwrite in place when no
    /// clone is in flight, else revive a drained pool entry, else (and
    /// only then) allocate.
    fn refresh_dense_wire(&mut self) {
        if let Some((ckpt, loc)) = &mut self.wire {
            if let (Some(c), Some(l)) = (Arc::get_mut(ckpt), Arc::get_mut(loc)) {
                c.copy_from_slice(&self.ckpt);
                l.copy_from_slice(&self.loc);
                return;
            }
        }
        if let Some(old) = self.wire.take() {
            self.retired.push(old);
        }
        let drained = (0..self.retired.len()).find(|&i| {
            let (c, l) = &self.retired[i];
            Arc::strong_count(c) == 1 && Arc::strong_count(l) == 1
        });
        self.wire = Some(match drained {
            Some(i) => {
                let (mut c, mut l) = self.retired.swap_remove(i);
                Arc::get_mut(&mut c)
                    .expect("drained entry has a sole owner")
                    .copy_from_slice(&self.ckpt);
                Arc::get_mut(&mut l)
                    .expect("drained entry has a sole owner")
                    .copy_from_slice(&self.loc);
                (c, l)
            }
            None => (self.ckpt.as_slice().into(), self.loc.as_slice().into()),
        });
        // Keep the pool no deeper than the usual in-flight depth; an
        // overflow entry frees once its last clone drains.
        if self.retired.len() > RETIRED_CAP {
            self.retired.remove(0);
        }
    }

    /// [`Tp::refresh_dense_wire`] for the RLE form: re-encoding into a
    /// retained `Vec` reuses its capacity, so steady-state refreshes are
    /// allocation-free even though run counts vary.
    fn refresh_rle_wire(&mut self) {
        if let Some(runs) = &mut self.wire_rle {
            if let Some(buf) = Arc::get_mut(runs) {
                rle_encode_into(&self.ckpt, &self.loc, buf);
                return;
            }
        }
        if let Some(old) = self.wire_rle.take() {
            self.retired_rle.push(old);
        }
        let drained =
            (0..self.retired_rle.len()).find(|&i| Arc::strong_count(&self.retired_rle[i]) == 1);
        self.wire_rle = Some(match drained {
            Some(i) => {
                let mut runs = self.retired_rle.swap_remove(i);
                let buf = Arc::get_mut(&mut runs).expect("drained entry has a sole owner");
                rle_encode_into(&self.ckpt, &self.loc, buf);
                runs
            }
            None => Arc::new(rle_encode(&self.ckpt, &self.loc)),
        });
        if self.retired_rle.len() > RETIRED_CAP {
            self.retired_rle.remove(0);
        }
    }
}

impl Protocol for Tp {
    fn name(&self) -> &'static str {
        "TP"
    }

    fn on_send(&mut self, _to: usize) -> Piggyback {
        self.phase = Phase::Send;
        match self.codec {
            PbCodec::Dense => {
                if self.wire_dirty || self.wire.is_none() {
                    self.refresh_dense_wire();
                    self.wire_dirty = false;
                }
                let (ckpt, loc) = self.wire.as_ref().expect("cache just refreshed");
                Piggyback::Vectors {
                    ckpt: Arc::clone(ckpt),
                    loc: Arc::clone(loc),
                }
            }
            PbCodec::Rle => {
                if self.wire_dirty || self.wire_rle.is_none() {
                    self.refresh_rle_wire();
                    self.wire_dirty = false;
                }
                Piggyback::VectorsRle {
                    runs: Arc::clone(self.wire_rle.as_ref().expect("cache just refreshed")),
                }
            }
        }
    }

    fn on_receive(&mut self, _from: usize, pb: &Piggyback) -> ReceiveOutcome {
        let outcome = if self.phase == Phase::Send {
            let idx = self.take_checkpoint();
            self.phase = Phase::Recv;
            ReceiveOutcome::forced(idx)
        } else {
            ReceiveOutcome::NONE
        };
        // Either wire form merges; a mixed-codec population is legal.
        match pb {
            Piggyback::Vectors { ckpt, loc } => self.merge(ckpt, loc),
            Piggyback::VectorsRle { runs } => self.merge_runs(runs),
            _ => panic!("TP requires Vectors piggybacks on all messages"),
        }
        outcome
    }

    fn on_basic(&mut self, _reason: BasicReason) -> BasicCkpt {
        let index = self.take_checkpoint();
        BasicCkpt {
            index,
            replaces_predecessor: false,
        }
    }

    fn on_relocate(&mut self, mss: u32) {
        self.here = mss;
    }

    fn piggyback_bytes(&self) -> usize {
        match self.codec {
            PbCodec::Dense => 2 * self.ckpt.len() * INT_BYTES,
            // Reporting path (not per-event): encode afresh rather than
            // holding a cache borrow through a `&self` accessor.
            PbCodec::Rle => (1 + 3 * rle_encode(&self.ckpt, &self.loc).len()) * INT_BYTES,
        }
    }

    fn current_index(&self) -> u64 {
        self.count
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn state_sig(&self, out: &mut Vec<u64>) {
        out.push(match self.phase {
            Phase::Send => 1,
            Phase::Recv => 0,
        });
        out.push(self.count);
        out.extend_from_slice(&self.ckpt);
        out.extend(self.loc.iter().map(|&l| u64::from(l)));
        out.push(u64::from(self.here));
        // The wire caches, retire pools and dirty flag are derived from the
        // vectors above and deliberately excluded: states that differ only
        // in cache freshness behave identically.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pb(ckpt: Vec<u64>, loc: Vec<u32>) -> Piggyback {
        Piggyback::Vectors {
            ckpt: ckpt.into(),
            loc: loc.into(),
        }
    }

    #[test]
    fn initial_phase_is_recv() {
        let t = Tp::new(0, 3, 7);
        assert_eq!(t.phase(), Phase::Recv);
        assert_eq!(t.count(), 0);
        assert_eq!(t.loc_vector()[0], 7);
        assert_eq!(t.name(), "TP");
    }

    #[test]
    fn receive_in_recv_phase_takes_no_checkpoint() {
        let mut t = Tp::new(0, 2, 0);
        let out = t.on_receive(1, &pb(vec![0, 0], vec![0, 0]));
        assert_eq!(out.forced, None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn receive_after_send_forces_checkpoint() {
        let mut t = Tp::new(0, 2, 0);
        t.on_send(1);
        assert_eq!(t.phase(), Phase::Send);
        let out = t.on_receive(1, &pb(vec![0, 0], vec![0, 0]));
        assert_eq!(out.forced, Some(1));
        assert_eq!(t.phase(), Phase::Recv);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn send_burst_costs_one_checkpoint() {
        let mut t = Tp::new(0, 2, 0);
        for _ in 0..5 {
            t.on_send(1);
        }
        let out = t.on_receive(1, &pb(vec![0, 0], vec![0, 0]));
        assert_eq!(out.forced, Some(1));
        // Next receive without intervening send: free.
        let out2 = t.on_receive(1, &pb(vec![0, 0], vec![0, 0]));
        assert_eq!(out2.forced, None);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn basic_checkpoint_keeps_send_phase_by_default() {
        // Paper-faithful behaviour: only a receive resets the phase, so the
        // receive after the basic checkpoint still forces one.
        let mut t = Tp::new(0, 2, 0);
        t.on_send(1);
        let c = t.on_basic(BasicReason::CellSwitch);
        assert_eq!(c.index, 1);
        assert!(!c.replaces_predecessor);
        assert_eq!(t.phase(), Phase::Send);
        assert_eq!(
            t.on_receive(1, &pb(vec![0, 0], vec![0, 0])).forced,
            Some(2)
        );
    }

    #[test]
    fn vectors_track_own_checkpoints_and_location() {
        let mut t = Tp::new(1, 3, 4);
        t.on_relocate(9);
        t.on_basic(BasicReason::CellSwitch);
        assert_eq!(t.ckpt_vector(), &[0, 1, 0]);
        assert_eq!(t.loc_vector()[1], 9);
    }

    #[test]
    fn merge_takes_componentwise_max_with_locations() {
        let mut t = Tp::new(0, 3, 0);
        t.on_receive(1, &pb(vec![5, 2, 7], vec![11, 12, 13]));
        // Own component (index 0) is never overwritten by a merge.
        assert_eq!(t.ckpt_vector(), &[0, 2, 7]);
        assert_eq!(t.loc_vector(), &[0, 12, 13]);
        // A later message with smaller entries changes nothing.
        t.on_receive(2, &pb(vec![9, 1, 3], vec![21, 22, 23]));
        assert_eq!(t.ckpt_vector(), &[0, 2, 7]);
        assert_eq!(t.loc_vector(), &[0, 12, 13]);
    }

    #[test]
    fn forced_checkpoint_snapshots_before_merge() {
        // The forced checkpoint belongs to the state BEFORE the incoming
        // message is delivered, so the message's dependencies must not leak
        // into it. We can observe this through the outcome index (1) while
        // the merge still happens for the post-delivery state.
        let mut t = Tp::new(0, 2, 0);
        t.on_send(1);
        let out = t.on_receive(1, &pb(vec![0, 3], vec![0, 8]));
        assert_eq!(out.forced, Some(1));
        assert_eq!(t.ckpt_vector(), &[1, 3]); // post-delivery state depends on both
    }

    #[test]
    fn piggyback_scales_with_n() {
        assert_eq!(Tp::new(0, 10, 0).piggyback_bytes(), 80);
        assert_eq!(Tp::new(0, 50, 0).piggyback_bytes(), 400);
    }

    #[test]
    fn send_piggybacks_current_vectors() {
        let mut t = Tp::new(0, 2, 3);
        t.on_basic(BasicReason::CellSwitch);
        match t.on_send(1) {
            Piggyback::Vectors { ckpt, loc } => {
                assert_eq!(&ckpt[..], &[1, 0]);
                assert_eq!(loc[0], 3);
            }
            other => panic!("expected vectors, got {other:?}"),
        }
    }

    #[test]
    fn repeated_sends_share_wire_vectors() {
        let mut t = Tp::new(0, 4, 0);
        let (a, b) = match (t.on_send(1), t.on_send(2)) {
            (Piggyback::Vectors { ckpt: a, .. }, Piggyback::Vectors { ckpt: b, .. }) => (a, b),
            other => panic!("expected vectors, got {other:?}"),
        };
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "sends between checkpoints must share one frozen copy"
        );
        // A checkpoint changes the vectors, so the cache must refresh.
        t.on_basic(BasicReason::CellSwitch);
        let c = match t.on_send(1) {
            Piggyback::Vectors { ckpt, .. } => ckpt,
            other => panic!("expected vectors, got {other:?}"),
        };
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(&c[..], &[1, 0, 0, 0]);
        // A receive (forced checkpoint + merge) must refresh the wire copy.
        t.on_receive(1, &pb(vec![0, 5, 0, 0], vec![0, 9, 0, 0]));
        let e = match t.on_send(1) {
            Piggyback::Vectors { ckpt, .. } => ckpt,
            other => panic!("expected vectors, got {other:?}"),
        };
        assert_eq!(&e[..], &[2, 5, 0, 0]);
    }

    #[test]
    fn rle_codec_emits_compressed_vectors() {
        let mut t = Tp::with_codec(0, 100, 3, PbCodec::Rle);
        t.on_basic(BasicReason::CellSwitch);
        match t.on_send(1) {
            Piggyback::VectorsRle { runs } => {
                // [me: 1@3][99 zero entries] = 2 runs = 7 integers.
                assert_eq!(runs.len(), 2);
                let (ckpt, loc) = crate::piggyback::rle_decode(&runs);
                assert_eq!(ckpt[0], 1);
                assert_eq!(loc[0], 3);
                assert!(ckpt[1..].iter().all(|&c| c == 0));
            }
            other => panic!("expected RLE vectors, got {other:?}"),
        }
        assert_eq!(t.piggyback_bytes(), 7 * INT_BYTES);
    }

    #[test]
    fn rle_sends_share_the_frozen_encoding() {
        let mut t = Tp::with_codec(0, 8, 0, PbCodec::Rle);
        let (a, b) = match (t.on_send(1), t.on_send(2)) {
            (Piggyback::VectorsRle { runs: a }, Piggyback::VectorsRle { runs: b }) => (a, b),
            other => panic!("expected RLE vectors, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&a, &b), "sends between changes share one encoding");
        t.on_basic(BasicReason::CellSwitch);
        let c = match t.on_send(1) {
            Piggyback::VectorsRle { runs } => runs,
            other => panic!("expected RLE vectors, got {other:?}"),
        };
        assert!(!Arc::ptr_eq(&a, &c), "a checkpoint refreshes the encoding");
    }

    #[test]
    fn wire_caches_are_reused_in_place_once_clones_drop() {
        // Dense: when no message still holds the previous encoding, a
        // refresh overwrites the same allocation instead of replacing it.
        let mut t = Tp::new(0, 16, 0);
        let dense_ptr = match t.on_send(1) {
            Piggyback::Vectors { ckpt, .. } => Arc::as_ptr(&ckpt),
            other => panic!("expected dense vectors, got {other:?}"),
        };
        t.on_basic(BasicReason::CellSwitch);
        match t.on_send(1) {
            Piggyback::Vectors { ckpt, .. } => {
                assert_eq!(Arc::as_ptr(&ckpt), dense_ptr, "dense cache must be reused");
                assert_eq!(ckpt[0], 1, "reused cache must carry the fresh vectors");
            }
            other => panic!("expected dense vectors, got {other:?}"),
        }

        // RLE: same policy; the Vec's buffer is re-encoded in place.
        let mut t = Tp::with_codec(0, 16, 0, PbCodec::Rle);
        let rle_ptr = match t.on_send(1) {
            Piggyback::VectorsRle { runs } => Arc::as_ptr(&runs),
            other => panic!("expected RLE vectors, got {other:?}"),
        };
        t.on_basic(BasicReason::CellSwitch);
        match t.on_send(1) {
            Piggyback::VectorsRle { runs } => {
                assert_eq!(Arc::as_ptr(&runs), rle_ptr, "RLE cache must be reused");
                assert_eq!(runs[0].ckpt, 1, "reused cache must carry the fresh runs");
            }
            other => panic!("expected RLE vectors, got {other:?}"),
        }
    }

    #[test]
    fn mixed_codec_receive_merges_identically() {
        let ckpt = vec![0, 4, 0, 9];
        let loc = vec![0, 2, 0, 5];
        let mut dense_rx = Tp::new(0, 4, 0);
        dense_rx.on_receive(1, &pb(ckpt.clone(), loc.clone()));
        let mut rle_rx = Tp::new(0, 4, 0);
        rle_rx.on_receive(
            1,
            &Piggyback::VectorsRle { runs: Arc::new(crate::piggyback::rle_encode(&ckpt, &loc)) },
        );
        assert_eq!(dense_rx.ckpt_vector(), rle_rx.ckpt_vector());
        assert_eq!(dense_rx.loc_vector(), rle_rx.loc_vector());
    }

    #[test]
    fn run_merge_never_overwrites_own_component() {
        // A single run covering everyone (including me) with a huge index:
        // my own entry must survive.
        let mut t = Tp::with_codec(1, 5, 0, PbCodec::Rle);
        t.on_basic(BasicReason::CellSwitch);
        t.on_receive(
            0,
            &Piggyback::VectorsRle {
                runs: Arc::new(crate::piggyback::rle_encode(&[9; 5], &[7; 5])),
            },
        );
        assert_eq!(t.ckpt_vector(), &[9, 1, 9, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn run_merge_rejects_wrong_width() {
        let runs = Arc::new(crate::piggyback::rle_encode(&[0, 0, 0], &[0, 0, 0]));
        Tp::new(0, 2, 0).on_receive(1, &Piggyback::VectorsRle { runs });
    }

    #[test]
    #[should_panic(expected = "Vectors piggybacks")]
    fn rejects_wrong_piggyback() {
        Tp::new(0, 2, 0).on_receive(1, &Piggyback::Index { sn: 1 });
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        Tp::new(0, 2, 0).on_receive(1, &pb(vec![0, 0, 0], vec![0, 0, 0]));
    }
}
