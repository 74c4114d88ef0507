//! Stable-storage checkpoint store with incremental checkpointing.
//!
//! MH local storage is limited and vulnerable (paper point (a)), so every
//! checkpoint is transferred to the current MSS's stable storage. The
//! transfer itself is expensive — battery and wireless channel (points (b)
//! and (e)) — which motivates **incremental checkpointing** (paper §2.2):
//! only the state that changed since the last checkpoint crosses the
//! wireless link; the MSS reconstructs the full checkpoint by patching its
//! stored copy. If, because of a cell switch, the previous checkpoint lives
//! at a *different* MSS, the current MSS first fetches it over the wired
//! network.
//!
//! The dirty-state model is exponential saturation: after `dt` time units
//! of computation, `full_bytes × (1 − exp(−dt/tau))` bytes have changed.
//! Short checkpoint intervals therefore ship small increments; long
//! intervals degrade to (almost) full transfers, exactly the qualitative
//! behaviour incremental checkpointing is designed around.

use crate::ids::{MhId, MssId};

/// Parameters of the per-host state-dirtying model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalModel {
    /// Full process-state size in bytes.
    pub full_bytes: u64,
    /// Time constant of state dirtying: after `tau` time units roughly 63 %
    /// of the state has changed.
    pub tau: f64,
}

impl Default for IncrementalModel {
    /// 1 MiB of state dirtying with a 100-time-unit constant.
    fn default() -> Self {
        IncrementalModel {
            full_bytes: 1 << 20,
            tau: 100.0,
        }
    }
}

impl IncrementalModel {
    /// Bytes that changed after `dt` time units since the last checkpoint.
    pub fn dirty_bytes(&self, dt: f64) -> u64 {
        assert!(dt >= 0.0, "negative interval");
        assert!(self.tau > 0.0, "tau must be positive");
        let frac = 1.0 - (-dt / self.tau).exp();
        (self.full_bytes as f64 * frac).round() as u64
    }
}

/// Metadata of the latest stored checkpoint of one host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredCkpt {
    /// Station whose stable storage holds it.
    pub mss: MssId,
    /// When it was taken.
    pub time: f64,
    /// How many checkpoints this host has stored in total (1-based ordinal).
    pub ordinal: u64,
}

/// Byte accounting for one checkpoint operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptTransfer {
    /// Bytes shipped MH → MSS over the wireless link (the increment, or the
    /// full state for a first checkpoint).
    pub wireless_bytes: u64,
    /// Bytes fetched MSS ← MSS over the wired network to migrate the
    /// previous checkpoint (0 when it was already local).
    pub wired_fetch_bytes: u64,
    /// The station the previous checkpoint was fetched from, if any.
    pub fetched_from: Option<MssId>,
}

/// The distributed checkpoint store (one stable storage per MSS, viewed
/// globally for accounting).
#[derive(Debug, Clone)]
pub struct CkptStore {
    model: IncrementalModel,
    last: Vec<Option<StoredCkpt>>,
    total_wireless_bytes: u64,
    total_fetch_bytes: u64,
    fetches: u64,
    stored: u64,
}

impl CkptStore {
    /// A store for `n` hosts under the given incremental model.
    pub fn new(n: usize, model: IncrementalModel) -> Self {
        CkptStore {
            model,
            last: vec![None; n],
            total_wireless_bytes: 0,
            total_fetch_bytes: 0,
            fetches: 0,
            stored: 0,
        }
    }

    /// Records a checkpoint of `mh` taken at `mss` at time `now`, returning
    /// the transfer costs.
    pub fn checkpoint(&mut self, mh: MhId, mss: MssId, now: f64) -> CkptTransfer {
        let slot = &mut self.last[mh.idx()];
        let transfer = match slot {
            None => CkptTransfer {
                // First checkpoint: the whole state crosses the wireless link.
                wireless_bytes: self.model.full_bytes,
                wired_fetch_bytes: 0,
                fetched_from: None,
            },
            Some(prev) => {
                let increment = self.model.dirty_bytes(now - prev.time);
                if prev.mss == mss {
                    CkptTransfer {
                        wireless_bytes: increment,
                        wired_fetch_bytes: 0,
                        fetched_from: None,
                    }
                } else {
                    // The base checkpoint lives elsewhere: the current MSS
                    // fetches it (full size) over the wired network first.
                    CkptTransfer {
                        wireless_bytes: increment,
                        wired_fetch_bytes: self.model.full_bytes,
                        fetched_from: Some(prev.mss),
                    }
                }
            }
        };
        let ordinal = slot.map_or(1, |p| p.ordinal + 1);
        *slot = Some(StoredCkpt {
            mss,
            time: now,
            ordinal,
        });
        self.total_wireless_bytes += transfer.wireless_bytes;
        self.total_fetch_bytes += transfer.wired_fetch_bytes;
        if transfer.fetched_from.is_some() {
            self.fetches += 1;
        }
        self.stored += 1;
        transfer
    }

    /// Latest stored checkpoint of `mh`.
    pub fn latest(&self, mh: MhId) -> Option<StoredCkpt> {
        self.last[mh.idx()]
    }

    /// Total bytes shipped over wireless links for checkpointing.
    pub fn total_wireless_bytes(&self) -> u64 {
        self.total_wireless_bytes
    }

    /// Total bytes moved between stations to migrate base checkpoints.
    pub fn total_fetch_bytes(&self) -> u64 {
        self.total_fetch_bytes
    }

    /// Number of cross-MSS base fetches.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Total checkpoints stored.
    pub fn stored(&self) -> u64 {
        self.stored
    }
}

/// Accounting snapshot of the message-log storage (see [`LogStore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStoreStats {
    /// Log entries ever appended.
    pub appended_entries: u64,
    /// Bytes synchronously written to MSS stable storage by appends.
    pub stable_write_bytes: u64,
    /// Hand-offs that moved a non-empty log between stations.
    pub migrations: u64,
    /// Bytes moved MSS → MSS over the wired network by those hand-offs.
    pub migration_bytes: u64,
    /// Entries reclaimed by garbage collection.
    pub gc_entries: u64,
    /// Bytes reclaimed by garbage collection.
    pub gc_bytes: u64,
    /// Entries currently live across stations.
    pub live_entries: u64,
    /// Bytes currently live across stations.
    pub live_bytes: u64,
    /// Peak live bytes ever held across stations.
    pub peak_bytes: u64,
}

/// One host's log residence.
#[derive(Debug, Clone, Copy)]
struct HostLog {
    mss: Option<MssId>,
    entries: u64,
    bytes: u64,
}

/// Byte accounting for MSS-resident message logs (pessimistic
/// receiver-side logging).
///
/// Every message delivered to a mobile host is synchronously written to the
/// stable storage of the MSS it is attached to, *before* delivery; like
/// checkpoint state, the accumulated log follows the host across hand-offs
/// over the wired network. This store tracks only the byte flows — which
/// receives are logged, and the replay semantics, live in the `relog`
/// crate.
#[derive(Debug, Clone)]
pub struct LogStore {
    per_host: Vec<HostLog>,
    stats: LogStoreStats,
}

impl LogStore {
    /// An empty log store for `n` hosts.
    pub fn new(n: usize) -> Self {
        LogStore {
            per_host: vec![
                HostLog {
                    mss: None,
                    entries: 0,
                    bytes: 0,
                };
                n
            ],
            stats: LogStoreStats::default(),
        }
    }

    /// Ensures `mh`'s log resides at `mss`, migrating it over the wired
    /// network if it currently lives elsewhere (the hand-off path).
    /// Returns the bytes moved.
    pub fn ensure_at(&mut self, mh: MhId, mss: MssId) -> u64 {
        let h = &mut self.per_host[mh.idx()];
        let moved = match h.mss {
            Some(cur) if cur != mss && h.bytes > 0 => {
                self.stats.migrations += 1;
                self.stats.migration_bytes += h.bytes;
                h.bytes
            }
            _ => 0,
        };
        h.mss = Some(mss);
        moved
    }

    /// Records the synchronous stable-storage write of one log entry for
    /// `mh` at `mss` (migrating the log there first if needed).
    pub fn append(&mut self, mh: MhId, mss: MssId, bytes: u64) {
        self.append_batch(mh, mss, 1, bytes);
    }

    /// Records a batched flush of `entries`/`bytes` for `mh` at `mss`
    /// (optimistic logging writes several buffered entries in one flush).
    pub fn append_batch(&mut self, mh: MhId, mss: MssId, entries: u64, bytes: u64) {
        if entries == 0 {
            return;
        }
        self.ensure_at(mh, mss);
        let h = &mut self.per_host[mh.idx()];
        h.entries += entries;
        h.bytes += bytes;
        self.stats.appended_entries += entries;
        self.stats.stable_write_bytes += bytes;
        self.stats.live_entries += entries;
        self.stats.live_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
    }

    /// Records that garbage collection reclaimed `entries`/`bytes` of
    /// `mh`'s log (the recovery line advanced past them).
    pub fn gc(&mut self, mh: MhId, entries: u64, bytes: u64) {
        let h = &mut self.per_host[mh.idx()];
        assert!(
            entries <= h.entries && bytes <= h.bytes,
            "GC reclaimed more than is stored"
        );
        h.entries -= entries;
        h.bytes -= bytes;
        self.stats.gc_entries += entries;
        self.stats.gc_bytes += bytes;
        self.stats.live_entries -= entries;
        self.stats.live_bytes -= bytes;
    }

    /// Station currently holding `mh`'s log, if any entry was ever written.
    pub fn residence(&self, mh: MhId) -> Option<MssId> {
        self.per_host[mh.idx()].mss
    }

    /// Live log bytes held for `mh`.
    pub fn bytes_of(&self, mh: MhId) -> u64 {
        self.per_host[mh.idx()].bytes
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> LogStoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IncrementalModel {
        IncrementalModel {
            full_bytes: 1000,
            tau: 10.0,
        }
    }

    #[test]
    fn dirty_bytes_saturate() {
        let m = model();
        assert_eq!(m.dirty_bytes(0.0), 0);
        let short = m.dirty_bytes(1.0);
        let long = m.dirty_bytes(100.0);
        assert!(short < long);
        assert!(long <= 1000);
        assert!(long >= 999, "after 10·tau the state is essentially all dirty");
    }

    #[test]
    fn first_checkpoint_ships_full_state() {
        let mut s = CkptStore::new(1, model());
        let t = s.checkpoint(MhId(0), MssId(0), 5.0);
        assert_eq!(t.wireless_bytes, 1000);
        assert_eq!(t.wired_fetch_bytes, 0);
        assert_eq!(s.latest(MhId(0)).unwrap().ordinal, 1);
    }

    #[test]
    fn same_station_increment_is_small() {
        let mut s = CkptStore::new(1, model());
        s.checkpoint(MhId(0), MssId(0), 0.0);
        let t = s.checkpoint(MhId(0), MssId(0), 1.0);
        assert!(t.wireless_bytes < 1000 / 2, "short interval ⇒ small delta");
        assert_eq!(t.fetched_from, None);
        assert_eq!(s.fetches(), 0);
    }

    #[test]
    fn cross_station_checkpoint_fetches_base() {
        let mut s = CkptStore::new(1, model());
        s.checkpoint(MhId(0), MssId(0), 0.0);
        let t = s.checkpoint(MhId(0), MssId(2), 1.0);
        assert_eq!(t.fetched_from, Some(MssId(0)));
        assert_eq!(t.wired_fetch_bytes, 1000);
        assert!(t.wireless_bytes < 1000);
        assert_eq!(s.fetches(), 1);
        // The base now lives at MSS 2: a further checkpoint there is local.
        let t2 = s.checkpoint(MhId(0), MssId(2), 2.0);
        assert_eq!(t2.fetched_from, None);
    }

    #[test]
    fn accounting_accumulates() {
        let mut s = CkptStore::new(2, model());
        s.checkpoint(MhId(0), MssId(0), 0.0);
        s.checkpoint(MhId(1), MssId(1), 0.0);
        s.checkpoint(MhId(0), MssId(1), 50.0);
        assert_eq!(s.stored(), 3);
        assert!(s.total_wireless_bytes() >= 2000);
        assert_eq!(s.total_fetch_bytes(), 1000);
    }

    #[test]
    fn long_interval_degenerates_to_full_transfer() {
        let mut s = CkptStore::new(1, model());
        s.checkpoint(MhId(0), MssId(0), 0.0);
        let t = s.checkpoint(MhId(0), MssId(0), 1000.0);
        assert_eq!(t.wireless_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "negative interval")]
    fn negative_interval_rejected() {
        model().dirty_bytes(-1.0);
    }

    #[test]
    fn log_appends_accumulate_and_track_peak() {
        let mut s = LogStore::new(2);
        s.append(MhId(0), MssId(0), 100);
        s.append(MhId(0), MssId(0), 50);
        s.append(MhId(1), MssId(1), 30);
        let st = s.stats();
        assert_eq!(st.appended_entries, 3);
        assert_eq!(st.stable_write_bytes, 180);
        assert_eq!(st.live_bytes, 180);
        assert_eq!(st.peak_bytes, 180);
        assert_eq!(s.bytes_of(MhId(0)), 150);
        assert_eq!(s.residence(MhId(0)), Some(MssId(0)));
    }

    #[test]
    fn handoff_migrates_log_over_wired() {
        let mut s = LogStore::new(1);
        s.append(MhId(0), MssId(0), 100);
        let moved = s.ensure_at(MhId(0), MssId(2));
        assert_eq!(moved, 100);
        assert_eq!(s.stats().migrations, 1);
        assert_eq!(s.stats().migration_bytes, 100);
        assert_eq!(s.residence(MhId(0)), Some(MssId(2)));
        // Already local: no further movement.
        assert_eq!(s.ensure_at(MhId(0), MssId(2)), 0);
        assert_eq!(s.stats().migrations, 1);
        // Appending at a third station migrates implicitly.
        s.append(MhId(0), MssId(1), 10);
        assert_eq!(s.stats().migrations, 2);
        assert_eq!(s.stats().migration_bytes, 200);
    }

    #[test]
    fn empty_log_handoff_moves_nothing() {
        let mut s = LogStore::new(1);
        assert_eq!(s.ensure_at(MhId(0), MssId(1)), 0);
        assert_eq!(s.stats().migrations, 0);
    }

    #[test]
    fn gc_shrinks_live_but_not_peak() {
        let mut s = LogStore::new(1);
        s.append(MhId(0), MssId(0), 100);
        s.append(MhId(0), MssId(0), 60);
        s.gc(MhId(0), 1, 100);
        let st = s.stats();
        assert_eq!(st.live_bytes, 60);
        assert_eq!(st.live_entries, 1);
        assert_eq!(st.gc_bytes, 100);
        assert_eq!(st.peak_bytes, 160);
        // GC'd state no longer pays for hand-offs.
        assert_eq!(s.ensure_at(MhId(0), MssId(1)), 60);
    }

    #[test]
    #[should_panic(expected = "more than is stored")]
    fn overdrawn_gc_rejected() {
        let mut s = LogStore::new(1);
        s.append(MhId(0), MssId(0), 10);
        s.gc(MhId(0), 2, 10);
    }
}
