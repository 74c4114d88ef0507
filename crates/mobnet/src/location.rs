//! Location management.
//!
//! "Each message sent by an MH passes through its current MSS that provides,
//! first, to *locate* the recipient of the message, then to forward the
//! message to the current MSS of the recipient." Locating a mobile host has
//! a cost — the paper's point (d) — which protocols that send per-host
//! control messages (e.g. coordinated checkpointing markers) pay once per
//! destination.
//!
//! [`LocationService`] is a directory over the wired network mapping each
//! host to its responsible station. Every lookup is counted (and can be
//! charged a wired round-trip by the caller); updates happen on hand-off,
//! disconnection and reconnection.

use crate::ids::{MhId, MssId};

/// A wired-side directory of host locations.
#[derive(Debug, Clone)]
pub struct LocationService {
    dir: Vec<MssId>,
    lookups: u64,
    updates: u64,
}

impl LocationService {
    /// Creates the directory with the hosts' initial stations.
    pub fn new(initial: Vec<MssId>) -> Self {
        LocationService {
            dir: initial,
            lookups: 0,
            updates: 0,
        }
    }

    /// Looks up the station currently responsible for `mh` (its current MSS
    /// while connected, the buffering MSS while disconnected). Counted as
    /// one search operation.
    pub fn lookup(&mut self, mh: MhId) -> MssId {
        self.lookups += 1;
        self.dir[mh.idx()]
    }

    /// Reads the directory without charging a search (used by the simulator
    /// for assertions and reporting).
    pub fn peek(&self, mh: MhId) -> MssId {
        self.dir[mh.idx()]
    }

    /// Records that `mh` is now the responsibility of `mss`.
    pub fn update(&mut self, mh: MhId, mss: MssId) {
        self.dir[mh.idx()] = mss;
        self.updates += 1;
    }

    /// Total searches performed (paper's location cost).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total directory updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_and_counts() {
        let mut l = LocationService::new(vec![MssId(0), MssId(2)]);
        assert_eq!(l.lookup(MhId(1)), MssId(2));
        assert_eq!(l.lookup(MhId(0)), MssId(0));
        assert_eq!(l.lookups(), 2);
    }

    #[test]
    fn update_changes_responsibility() {
        let mut l = LocationService::new(vec![MssId(0)]);
        l.update(MhId(0), MssId(4));
        assert_eq!(l.peek(MhId(0)), MssId(4));
        assert_eq!(l.updates(), 1);
        assert_eq!(l.lookups(), 0, "peek is not a search");
    }
}
