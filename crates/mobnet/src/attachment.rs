//! Mobile-host attachment state and the hand-off / disconnection protocols.
//!
//! At any instant an MH is logically attached to exactly one cell (its
//! *current MSS*) or voluntarily disconnected. The transitions follow the
//! paper:
//!
//! * **hand-off** (cell switch): the MH notifies the MSS it is leaving and
//!   the MSS it is joining — *two* control messages;
//! * **disconnection**: the MH notifies its current MSS — *one* control
//!   message; while disconnected it is unreachable and its inbound messages
//!   are buffered;
//! * **reconnection**: the MH attaches to a (possibly different) cell.
//!
//! [`AttachmentTable`] tracks the states and counts the control messages so
//! the energy/channel models can charge them.

use crate::ids::{MhId, MssId};

/// Where a mobile host currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Connected to the given station's cell.
    Connected(MssId),
    /// Voluntarily disconnected; the field records the last station, which
    /// buffers inbound traffic for the host.
    Disconnected {
        /// The MSS the host disconnected from.
        last: MssId,
    },
}

impl Attachment {
    /// The station responsible for this host right now (current if
    /// connected, last if disconnected).
    pub fn responsible_mss(self) -> MssId {
        match self {
            Attachment::Connected(m) => m,
            Attachment::Disconnected { last } => last,
        }
    }

    /// True when connected.
    pub fn is_connected(self) -> bool {
        matches!(self, Attachment::Connected(_))
    }
}

/// Result of a hand-off: the control messages implied by the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// Station left.
    pub from: MssId,
    /// Station joined.
    pub to: MssId,
    /// Control messages sent over the wireless link (2: deregister + register).
    pub control_msgs: u32,
}

/// Tracks every host's attachment and tallies mobility control traffic.
///
/// Besides the per-host state array, the table maintains the inverse map:
/// a resident list per cell, updated in O(1) on every transition
/// (swap-remove on leave, push on join). Cell-scoped operations — station
/// crashes, broadcasts, occupancy queries — walk one cell's residents
/// instead of scanning every host. Invariant: `mh` appears in
/// `residents[c]` iff `state[mh] == Connected(c)`, at position `pos[mh]`.
#[derive(Debug, Clone)]
pub struct AttachmentTable {
    state: Vec<Attachment>,
    /// Connected hosts per cell, in arbitrary order (swap-remove perturbs
    /// it; callers needing a canonical order must sort).
    residents: Vec<Vec<MhId>>,
    /// For each connected host, its index within its cell's resident list.
    pos: Vec<usize>,
    connected: usize,
    handoffs: u64,
    disconnects: u64,
    reconnects: u64,
    control_msgs: u64,
}

impl AttachmentTable {
    /// Creates a table for `n` hosts with the given initial cells.
    pub fn new(initial: Vec<MssId>) -> Self {
        let n = initial.len();
        let n_cells = initial.iter().map(|m| m.idx() + 1).max().unwrap_or(0);
        let mut residents: Vec<Vec<MhId>> = vec![Vec::new(); n_cells];
        let mut pos = vec![0; n];
        for (i, &cell) in initial.iter().enumerate() {
            pos[i] = residents[cell.idx()].len();
            residents[cell.idx()].push(MhId(i));
        }
        AttachmentTable {
            state: initial.into_iter().map(Attachment::Connected).collect(),
            residents,
            pos,
            connected: n,
            handoffs: 0,
            disconnects: 0,
            reconnects: 0,
            control_msgs: 0,
        }
    }

    /// Removes `mh` from its cell's resident list (swap-remove; O(1)).
    fn leave_cell(&mut self, mh: MhId, cell: MssId) {
        let list = &mut self.residents[cell.idx()];
        let i = self.pos[mh.idx()];
        debug_assert_eq!(list[i], mh, "resident-list invariant broken");
        list.swap_remove(i);
        if let Some(&moved) = list.get(i) {
            self.pos[moved.idx()] = i;
        }
    }

    /// Appends `mh` to `cell`'s resident list, growing the per-cell index
    /// on demand (cells are open-ended: topologies may name any station).
    fn join_cell(&mut self, mh: MhId, cell: MssId) {
        if cell.idx() >= self.residents.len() {
            self.residents.resize_with(cell.idx() + 1, Vec::new);
        }
        self.pos[mh.idx()] = self.residents[cell.idx()].len();
        self.residents[cell.idx()].push(mh);
    }

    /// Number of hosts tracked.
    pub fn n_hosts(&self) -> usize {
        self.state.len()
    }

    /// Current attachment of `mh`.
    pub fn attachment(&self, mh: MhId) -> Attachment {
        self.state[mh.idx()]
    }

    /// The current cell of `mh`, or `None` while disconnected.
    pub fn cell_of(&self, mh: MhId) -> Option<MssId> {
        match self.state[mh.idx()] {
            Attachment::Connected(m) => Some(m),
            Attachment::Disconnected { .. } => None,
        }
    }

    /// Performs a hand-off of `mh` to `new_cell`.
    ///
    /// # Panics
    /// Panics if the host is disconnected or already in `new_cell` — both
    /// are model bugs.
    pub fn handoff(&mut self, mh: MhId, new_cell: MssId) -> Handoff {
        let Attachment::Connected(old) = self.state[mh.idx()] else {
            panic!("{mh} cannot hand off while disconnected");
        };
        assert_ne!(old, new_cell, "{mh} hand-off to its own cell");
        self.leave_cell(mh, old);
        self.join_cell(mh, new_cell);
        self.state[mh.idx()] = Attachment::Connected(new_cell);
        self.handoffs += 1;
        // Two control messages: one to the old MSS, one to the new.
        self.control_msgs += 2;
        Handoff {
            from: old,
            to: new_cell,
            control_msgs: 2,
        }
    }

    /// Voluntarily disconnects `mh` (one control message to its MSS).
    ///
    /// # Panics
    /// Panics if already disconnected.
    pub fn disconnect(&mut self, mh: MhId) -> MssId {
        let Attachment::Connected(cur) = self.state[mh.idx()] else {
            panic!("{mh} is already disconnected");
        };
        self.leave_cell(mh, cur);
        self.connected -= 1;
        self.state[mh.idx()] = Attachment::Disconnected { last: cur };
        self.disconnects += 1;
        self.control_msgs += 1;
        cur
    }

    /// Reconnects `mh` in `cell` and returns the station that was buffering
    /// for it.
    ///
    /// # Panics
    /// Panics if the host is connected.
    pub fn reconnect(&mut self, mh: MhId, cell: MssId) -> MssId {
        let Attachment::Disconnected { last } = self.state[mh.idx()] else {
            panic!("{mh} is not disconnected");
        };
        self.join_cell(mh, cell);
        self.connected += 1;
        self.state[mh.idx()] = Attachment::Connected(cell);
        self.reconnects += 1;
        self.control_msgs += 1; // registration at the new cell
        last
    }

    /// Hosts currently connected (O(1): maintained on every transition).
    pub fn connected_count(&self) -> usize {
        self.connected
    }

    /// Connected hosts currently in `cell`, in **arbitrary** order (hand-off
    /// churn perturbs it; sort for a canonical order). Empty for cells no
    /// host ever visited.
    pub fn residents(&self, cell: MssId) -> &[MhId] {
        self.residents
            .get(cell.idx())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total hand-offs performed.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Total voluntary disconnections.
    pub fn disconnects(&self) -> u64 {
        self.disconnects
    }

    /// Total reconnections.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Total mobility control messages (2 per hand-off, 1 per disconnect,
    /// 1 per reconnect).
    pub fn control_msgs(&self) -> u64 {
        self.control_msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AttachmentTable {
        AttachmentTable::new(vec![MssId(0), MssId(1)])
    }

    #[test]
    fn initial_attachment() {
        let t = table();
        assert_eq!(t.cell_of(MhId(0)), Some(MssId(0)));
        assert_eq!(t.attachment(MhId(1)), Attachment::Connected(MssId(1)));
        assert_eq!(t.connected_count(), 2);
        assert_eq!(t.n_hosts(), 2);
    }

    #[test]
    fn handoff_moves_and_counts() {
        let mut t = table();
        let h = t.handoff(MhId(0), MssId(2));
        assert_eq!(h.from, MssId(0));
        assert_eq!(h.to, MssId(2));
        assert_eq!(h.control_msgs, 2);
        assert_eq!(t.cell_of(MhId(0)), Some(MssId(2)));
        assert_eq!(t.handoffs(), 1);
        assert_eq!(t.control_msgs(), 2);
    }

    #[test]
    fn disconnect_reconnect_cycle() {
        let mut t = table();
        let last = t.disconnect(MhId(0));
        assert_eq!(last, MssId(0));
        assert_eq!(t.cell_of(MhId(0)), None);
        assert!(!t.attachment(MhId(0)).is_connected());
        assert_eq!(t.attachment(MhId(0)).responsible_mss(), MssId(0));
        assert_eq!(t.connected_count(), 1);

        let buffered_at = t.reconnect(MhId(0), MssId(3));
        assert_eq!(buffered_at, MssId(0));
        assert_eq!(t.cell_of(MhId(0)), Some(MssId(3)));
        assert_eq!(t.disconnects(), 1);
        assert_eq!(t.reconnects(), 1);
        assert_eq!(t.control_msgs(), 2); // 1 disconnect + 1 reconnect
    }

    #[test]
    fn resident_lists_track_every_transition() {
        let mut t = AttachmentTable::new(vec![MssId(0), MssId(0), MssId(1)]);
        assert_eq!(t.residents(MssId(0)), &[MhId(0), MhId(1)]);
        assert_eq!(t.residents(MssId(1)), &[MhId(2)]);

        // Hand-off moves the host between lists (swap-remove keeps the
        // remaining residents valid).
        t.handoff(MhId(0), MssId(1));
        assert_eq!(t.residents(MssId(0)), &[MhId(1)]);
        let mut c1: Vec<MhId> = t.residents(MssId(1)).to_vec();
        c1.sort_by_key(|m| m.idx());
        assert_eq!(c1, &[MhId(0), MhId(2)]);

        // Disconnection removes from the list; reconnection elsewhere joins
        // the new cell.
        t.disconnect(MhId(1));
        assert!(t.residents(MssId(0)).is_empty());
        t.reconnect(MhId(1), MssId(3));
        assert_eq!(t.residents(MssId(3)), &[MhId(1)]);
        // A never-visited cell is empty, not a panic.
        assert!(t.residents(MssId(9)).is_empty());
        assert_eq!(t.connected_count(), 3);
    }

    #[test]
    fn residency_invariant_survives_churn() {
        // Deterministic pseudo-random churn over a few cells; after every
        // step, each connected host appears exactly once in exactly its own
        // cell's list.
        let mut t = AttachmentTable::new((0..7).map(|i| MssId(i % 3)).collect());
        let mut x: u64 = 42;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mh = MhId((x >> 33) as usize % 7);
            match t.attachment(mh) {
                Attachment::Connected(cur) => {
                    if x.is_multiple_of(3) {
                        t.disconnect(mh);
                    } else {
                        let target = MssId((cur.idx() + 1 + (x as usize % 4)) % 5);
                        if target != cur {
                            t.handoff(mh, target);
                        }
                    }
                }
                Attachment::Disconnected { .. } => {
                    t.reconnect(mh, MssId(x as usize % 5));
                }
            }
            let listed: usize = (0..6).map(|c| t.residents(MssId(c)).len()).sum();
            assert_eq!(listed, t.connected_count());
            for c in 0..6 {
                for &m in t.residents(MssId(c)) {
                    assert_eq!(t.cell_of(m), Some(MssId(c)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hand off")]
    fn handoff_while_disconnected_panics() {
        let mut t = table();
        t.disconnect(MhId(0));
        t.handoff(MhId(0), MssId(2));
    }

    #[test]
    #[should_panic(expected = "own cell")]
    fn handoff_to_same_cell_panics() {
        let mut t = table();
        t.handoff(MhId(0), MssId(0));
    }

    #[test]
    #[should_panic(expected = "already disconnected")]
    fn double_disconnect_panics() {
        let mut t = table();
        t.disconnect(MhId(0));
        t.disconnect(MhId(0));
    }

    #[test]
    #[should_panic(expected = "not disconnected")]
    fn reconnect_when_connected_panics() {
        let mut t = table();
        t.reconnect(MhId(0), MssId(1));
    }
}
