//! Message buffering and the at-least-once transport.
//!
//! The paper assumes "a reliable communication subsystem that ensures an
//! at-least-once message delivery semantic". We model it end to end:
//!
//! * [`Mailboxes`] — per-host inbound queues held by the host's responsible
//!   MSS (the client–server structure of mobile algorithms: as much work as
//!   possible happens on the wired side). When a host hands off or
//!   reconnects elsewhere, its queued messages are forwarded to the new
//!   station (a wired transfer the metrics charge for).
//! * [`Dedup`] — at-least-once means duplicates can arrive; the receiver
//!   suppresses them by packet id so the application (and the checkpointing
//!   protocol!) sees each message exactly once. Tests verify protocol
//!   correctness is preserved under duplication.

use std::collections::{HashSet, VecDeque};

use crate::ids::{MhId, MssId, PacketId};

/// One queued inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Queued<P> {
    /// Transport identity (dedup key).
    pub packet: PacketId,
    /// Sending host.
    pub from: MhId,
    /// Opaque payload (application data + protocol piggyback).
    pub payload: P,
}

/// Per-host inbound queues, each held at the host's responsible MSS.
///
/// Struct-of-arrays layout: the holder stations and the queues live in
/// parallel `Vec`s. The hot paths touch exactly one of the two — `holder`
/// checks during delivery routing never pull a `VecDeque`'s three pointers
/// into cache, and queue operations never load the station id — so each
/// array stays dense for its own access pattern.
#[derive(Debug, Clone)]
pub struct Mailboxes<P> {
    /// For each host, the station currently holding its queue.
    holders: Vec<MssId>,
    /// For each host, the pending inbound messages.
    queues: Vec<VecDeque<Queued<P>>>,
    forwarded_msgs: u64,
    enqueued: u64,
}

impl<P> Mailboxes<P> {
    /// Creates mailboxes for `n` hosts at their initial stations.
    pub fn new(initial: &[MssId]) -> Self {
        Mailboxes {
            holders: initial.to_vec(),
            queues: initial.iter().map(|_| VecDeque::new()).collect(),
            forwarded_msgs: 0,
            enqueued: 0,
        }
    }

    /// Enqueues an inbound message for `to` (held at its responsible MSS).
    pub fn enqueue(&mut self, to: MhId, msg: Queued<P>) {
        self.queues[to.idx()].push_back(msg);
        self.enqueued += 1;
    }

    /// The host's queue moved to a new responsible station (hand-off or
    /// reconnection elsewhere); pending messages are forwarded over the
    /// wired network. Returns how many messages were forwarded.
    pub fn relocate(&mut self, mh: MhId, new_mss: MssId) -> u64 {
        if self.holders[mh.idx()] == new_mss {
            return 0;
        }
        self.holders[mh.idx()] = new_mss;
        let n = self.queues[mh.idx()].len() as u64;
        self.forwarded_msgs += n;
        n
    }

    /// Pops the oldest pending message for `mh`, if any (the host's receive
    /// operation).
    pub fn pop(&mut self, mh: MhId) -> Option<Queued<P>> {
        self.queues[mh.idx()].pop_front()
    }

    /// Pending-message count for `mh`.
    pub fn pending(&self, mh: MhId) -> usize {
        self.queues[mh.idx()].len()
    }

    /// Iterates `mh`'s pending messages in queue (delivery) order, without
    /// consuming them. The model checker folds these into its state hash:
    /// two worlds whose queues differ must never be merged.
    pub fn queued(&self, mh: MhId) -> impl Iterator<Item = &Queued<P>> {
        self.queues[mh.idx()].iter()
    }

    /// Station currently holding `mh`'s queue.
    pub fn holder(&self, mh: MhId) -> MssId {
        self.holders[mh.idx()]
    }

    /// Total messages forwarded between stations due to mobility.
    pub fn forwarded_msgs(&self) -> u64 {
        self.forwarded_msgs
    }

    /// Total messages ever enqueued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Deepest inbound queue right now, across all hosts — the queue-depth
    /// gauge the metrics registry samples at end of run.
    pub fn max_pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).max().unwrap_or(0)
    }
}

/// Receiver-side duplicate suppression for the at-least-once transport.
///
/// When the transport is configured so it *cannot* duplicate (duplicate
/// probability zero — the paper's default), tracking every packet id ever
/// delivered is pure overhead: one hash insert per delivery and memory
/// that grows with the message count. [`Dedup::passthrough`] elides both
/// while keeping the delivery path uniform.
#[derive(Debug, Clone)]
pub struct Dedup {
    /// `None` in passthrough mode: the transport never duplicates, so every
    /// packet is trivially fresh.
    seen: Option<Vec<HashSet<PacketId>>>,
    dropped: u64,
}

impl Dedup {
    /// Creates suppression state for `n` hosts.
    pub fn new(n: usize) -> Self {
        Dedup {
            seen: Some(vec![HashSet::new(); n]),
            dropped: 0,
        }
    }

    /// Suppression for a transport that never duplicates: `accept` is a
    /// constant `true` with no per-delivery hashing or memory growth.
    pub fn passthrough() -> Self {
        Dedup {
            seen: None,
            dropped: 0,
        }
    }

    /// `true` when this instance actually tracks packet ids.
    pub fn is_tracking(&self) -> bool {
        self.seen.is_some()
    }

    /// Returns `true` if `pkt` is fresh for `mh` (deliver it) and records
    /// it; `false` for a duplicate (drop it).
    #[inline]
    pub fn accept(&mut self, mh: MhId, pkt: PacketId) -> bool {
        let Some(seen) = &mut self.seen else {
            return true;
        };
        let fresh = seen[mh.idx()].insert(pkt);
        if !fresh {
            self.dropped += 1;
        }
        fresh
    }

    /// Duplicates suppressed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, from: usize) -> Queued<&'static str> {
        Queued {
            packet: PacketId(id),
            from: MhId(from),
            payload: "m",
        }
    }

    #[test]
    fn fifo_per_host() {
        let mut mb = Mailboxes::new(&[MssId(0), MssId(1)]);
        mb.enqueue(MhId(0), q(1, 1));
        mb.enqueue(MhId(0), q(2, 1));
        assert_eq!(mb.pending(MhId(0)), 2);
        assert_eq!(mb.pop(MhId(0)).unwrap().packet, PacketId(1));
        assert_eq!(mb.pop(MhId(0)).unwrap().packet, PacketId(2));
        assert!(mb.pop(MhId(0)).is_none());
        assert_eq!(mb.enqueued(), 2);
    }

    #[test]
    fn queues_are_per_host() {
        let mut mb = Mailboxes::new(&[MssId(0), MssId(1)]);
        mb.enqueue(MhId(1), q(5, 0));
        assert_eq!(mb.pending(MhId(0)), 0);
        assert_eq!(mb.pending(MhId(1)), 1);
        assert_eq!(mb.max_pending(), 1);
        mb.pop(MhId(1));
        assert_eq!(mb.max_pending(), 0);
    }

    #[test]
    fn relocation_forwards_pending() {
        let mut mb = Mailboxes::new(&[MssId(0)]);
        mb.enqueue(MhId(0), q(1, 0));
        mb.enqueue(MhId(0), q(2, 0));
        let fwd = mb.relocate(MhId(0), MssId(3));
        assert_eq!(fwd, 2);
        assert_eq!(mb.holder(MhId(0)), MssId(3));
        assert_eq!(mb.forwarded_msgs(), 2);
        // Messages survive the move, order intact.
        assert_eq!(mb.pop(MhId(0)).unwrap().packet, PacketId(1));
    }

    #[test]
    fn relocation_to_same_station_is_free() {
        let mut mb = Mailboxes::new(&[MssId(2)]);
        mb.enqueue(MhId(0), q(1, 0));
        assert_eq!(mb.relocate(MhId(0), MssId(2)), 0);
        assert_eq!(mb.forwarded_msgs(), 0);
    }

    #[test]
    fn dedup_suppresses_duplicates() {
        let mut d = Dedup::new(2);
        assert!(d.accept(MhId(0), PacketId(1)));
        assert!(!d.accept(MhId(0), PacketId(1)));
        assert!(!d.accept(MhId(0), PacketId(1)));
        assert_eq!(d.dropped(), 2);
        // Same packet id at another host is independent.
        assert!(d.accept(MhId(1), PacketId(1)));
        assert!(d.is_tracking());
    }

    #[test]
    fn passthrough_accepts_everything_without_tracking() {
        let mut d = Dedup::passthrough();
        assert!(!d.is_tracking());
        assert!(d.accept(MhId(0), PacketId(1)));
        assert!(d.accept(MhId(0), PacketId(1)));
        assert_eq!(d.dropped(), 0);
    }
}
