//! Pending-event set.
//!
//! [`Scheduler`] is the heart of the discrete-event engine: a priority queue
//! of `(time, payload)` pairs with three guarantees the rest of the system
//! relies on:
//!
//! 1. **Monotonicity** — events are popped in non-decreasing time order and
//!    the simulation clock never moves backwards.
//! 2. **Determinism** — simultaneous events are popped in the order they were
//!    scheduled (FIFO tie-breaking by an insertion sequence number), so a run
//!    is a pure function of its inputs and RNG seed.
//! 3. **No past scheduling** — scheduling an event before the current clock
//!    panics; time travel is always a model bug.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A `(time, payload)` pair as returned by [`Scheduler::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<E> {
    /// When the event fired; equal to the scheduler clock at pop time.
    pub time: SimTime,
    /// The scheduled payload.
    pub event: E,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, seq) first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic pending-event set: one binary heap ordered by
/// `(time, seq)`.
#[derive(Clone)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` after a non-negative `delay` from the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        self.schedule_at(self.now + delay, event)
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    ///
    /// Returns `None` when the event set is exhausted.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap produced out-of-order event");
        self.now = entry.time;
        self.popped += 1;
        Some(Fired {
            time: entry.time,
            event: entry.event,
        })
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lists the pending events as `(seq, time, payload)` triples, sorted
    /// by `(time, seq)` — the order `pop` would drain them.
    ///
    /// This is the *enabled set* used by the model checker: any listed
    /// event may be selected to fire next via [`take`]. Cost is
    /// O(n log n); the checker only runs on tiny configs where n is a
    /// handful.
    ///
    /// [`take`]: Scheduler::take
    pub fn pending(&self) -> Vec<(u64, SimTime, &E)> {
        let mut out: Vec<_> = self
            .heap
            .iter()
            .map(|e| (e.seq, e.time, &e.event))
            .collect();
        out.sort_by_key(|&(seq, time, _)| (time, seq));
        out
    }

    /// Removes and fires a specific pending event by its schedule sequence
    /// number, advancing the clock monotonically to `max(now, time)`.
    ///
    /// This is the model checker's out-of-order firing primitive: unlike
    /// [`pop`], the selected event need not be the earliest, so the clock
    /// is *clamped* rather than assigned, and the returned [`Fired::time`]
    /// is the clamped clock — an event fired "late" happens *now* (time
    /// never moves backwards; per-entity event sequences observed by the
    /// model stay monotone, and relative `schedule_in` delays from the
    /// fired handler stay valid). When the taken event is the earliest
    /// pending one the clamp is a no-op and the result is byte-identical
    /// to `pop`; the seeded simulator never calls this.
    ///
    /// Returns `None` if no pending entry has that sequence number.
    ///
    /// [`pop`]: Scheduler::pop
    pub fn take(&mut self, seq: u64) -> Option<Fired<E>> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let taken = entries
            .iter()
            .position(|e| e.seq == seq)
            .map(|p| entries.swap_remove(p));
        self.heap = BinaryHeap::from(entries);
        let entry = taken?;
        if entry.time > self.now {
            self.now = entry.time;
        }
        self.popped += 1;
        Some(Fired {
            time: self.now,
            event: entry.event,
        })
    }

    /// Total events popped so far (a throughput counter for benchmarks).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total events ever scheduled (each one took the next sequence
    /// number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::new(3.0), "c");
        s.schedule_at(SimTime::new(1.0), "a");
        s.schedule_at(SimTime::new(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::new(3.0));
    }

    #[test]
    fn fifo_within_ties() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::new(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.event).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_in(1.5, ());
        s.schedule_in(0.5, ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::new(0.5));
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::new(1.5));
        assert!(s.pop().is_none());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_in(1.0, "first");
        s.pop().unwrap();
        s.schedule_in(1.0, "second");
        let fired = s.pop().unwrap();
        assert_eq!(fired.time, SimTime::new(2.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::new(2.0), ());
        s.pop().unwrap();
        s.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Scheduler::new();
        s.schedule_in(1.0, ());
        s.schedule_in(2.0, ());
        s.pop();
        assert_eq!(s.scheduled(), 2);
        assert_eq!(s.popped(), 1);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_scheduler_behaves() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert!(s.pop().is_none());
    }

    #[test]
    fn pending_lists_live_events_in_pop_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::new(2.0), "b");
        s.schedule_at(SimTime::new(1.0), "a");
        s.schedule_at(SimTime::new(2.0), "b2");
        let pend = s.pending();
        let evs: Vec<_> = pend.iter().map(|&(_, t, e)| (t, *e)).collect();
        assert_eq!(
            evs,
            vec![
                (SimTime::new(1.0), "a"),
                (SimTime::new(2.0), "b"),
                (SimTime::new(2.0), "b2"),
            ]
        );
        // FIFO tie: the seq of "b" precedes the seq of "b2".
        assert!(pend[1].0 < pend[2].0);
    }

    #[test]
    fn take_fires_out_of_order_and_clamps_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::new(1.0), "early");
        let early_seq = s.pending()[0].0;
        s.schedule_at(SimTime::new(3.0), "late");
        let late_seq = s.pending()[1].0;
        // Fire the *late* event first: clock jumps to 3.0.
        let fired = s.take(late_seq).unwrap();
        assert_eq!(fired.event, "late");
        assert_eq!(s.now(), SimTime::new(3.0));
        // Firing the earlier event afterwards must not rewind the clock:
        // the late-fired event happens *now*, not at its stale timestamp.
        let fired = s.take(early_seq).unwrap();
        assert_eq!(fired.event, "early");
        assert_eq!(fired.time, SimTime::new(3.0));
        assert_eq!(s.now(), SimTime::new(3.0));
        assert!(s.is_empty());
        assert_eq!(s.popped(), 2);
        // Unknown / already-fired seqs return None and leave the set intact.
        assert!(s.take(early_seq).is_none());
        s.schedule_at(SimTime::new(4.0), "still-there");
        assert!(s.take(99).is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().unwrap().event, "still-there");
    }

    #[test]
    fn cloned_scheduler_diverges_independently() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::new(1.0), "a");
        s.schedule_at(SimTime::new(2.0), "b");
        let mut fork = s.clone();
        assert_eq!(s.pop().unwrap().event, "a");
        assert_eq!(fork.pending().len(), 2);
        assert_eq!(fork.pop().unwrap().event, "a");
        assert_eq!(fork.pop().unwrap().event, "b");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn peek_and_mid_schedule_keep_fifo_order() {
        let mut s = Scheduler::new();
        // Ties, peek, reschedule after pop.
        s.schedule_at(SimTime::new(2.0), "b1");
        s.schedule_at(SimTime::new(2.0), "b2");
        s.schedule_at(SimTime::new(3.0), "c");
        assert_eq!(s.peek_time(), Some(SimTime::new(2.0)));
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop().unwrap().event, "b1");
        assert_eq!(s.now(), SimTime::new(2.0));
        // Scheduling between now and the next pending event must work
        // after a peek.
        s.schedule_at(SimTime::new(2.5), "mid");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.event).collect();
        assert_eq!(order, vec!["b2", "mid", "c"]);
    }
}
