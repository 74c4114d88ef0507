//! The protocol interface.
//!
//! Each mobile host runs one [`Protocol`] instance — a purely local state
//! machine driven by four kinds of events:
//!
//! * the host **sends** an application message ([`Protocol::on_send`]
//!   returns the control information to piggyback);
//! * an application message **arrives** ([`Protocol::on_receive`] decides,
//!   *before* delivery, whether a **forced** checkpoint must be taken);
//! * the host takes a mobility-mandated **basic** checkpoint — cell switch
//!   or voluntary disconnection ([`Protocol::on_basic`]);
//! * the host moves to a new MSS ([`Protocol::on_relocate`]; only TP cares,
//!   for its `LOC[]` vector).
//!
//! The coordinated baselines ([`crate::coordinated`]) use four more hooks,
//! whose defaults suit every other protocol: a round starts at an initiator
//! ([`Protocol::initiate`]), a control message arrives
//! ([`Protocol::on_control`]), a blocking session holds back application
//! sends ([`Protocol::is_blocked`]), and a host's part of a snapshot round
//! is done ([`Protocol::round_complete`]). The simulator never starts a
//! round or routes a control message in a communication-induced run.
//!
//! The contract mirrors the paper's pseudo-code exactly; the surrounding
//! simulator supplies timing, routing and storage.

use causality::trace::CkptKind;

use crate::coordinated::{ControlMsg, CoordAction};
use crate::piggyback::Piggyback;

/// Which mobility event mandated a basic checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasicReason {
    /// The host is leaving its current cell (hand-off).
    CellSwitch,
    /// The host is voluntarily disconnecting from the network.
    Disconnect,
    /// Timer-driven checkpoint (uncoordinated baseline only).
    Periodic,
}

impl BasicReason {
    /// The trace record kind for a checkpoint taken for this reason.
    pub fn kind(self) -> CkptKind {
        match self {
            BasicReason::CellSwitch => CkptKind::CellSwitch,
            BasicReason::Disconnect => CkptKind::Disconnect,
            BasicReason::Periodic => CkptKind::Periodic,
        }
    }
}

/// Outcome of a basic checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicCkpt {
    /// Protocol index assigned to the checkpoint (e.g. the BCS/QBC sequence
    /// number).
    pub index: u64,
    /// True when the checkpoint is *equivalent* to its predecessor in the
    /// recovery line and replaces it (QBC's optimization): the previous
    /// checkpoint with the same index may be discarded from stable storage.
    pub replaces_predecessor: bool,
}

/// Outcome of a message arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveOutcome {
    /// `Some(index)` when the protocol forces a checkpoint (to be taken
    /// *before* the message is delivered to the application), with the
    /// protocol index to assign to it.
    pub forced: Option<u64>,
}

impl ReceiveOutcome {
    /// No forced checkpoint.
    pub const NONE: ReceiveOutcome = ReceiveOutcome { forced: None };

    /// Forced checkpoint with the given index.
    pub fn forced(index: u64) -> Self {
        ReceiveOutcome {
            forced: Some(index),
        }
    }
}

/// A communication-induced checkpointing protocol instance for one host.
pub trait Protocol {
    /// Short protocol name as used in the paper's figures ("TP", "BCS",
    /// "QBC", …).
    fn name(&self) -> &'static str;

    /// The host is sending an application message to host `to` (a flat
    /// index). Returns the control information to piggyback.
    fn on_send(&mut self, to: usize) -> Piggyback;

    /// An application message from host `from` with piggyback `pb` arrived.
    /// Called before delivery; the caller must take the forced checkpoint
    /// (if any) before processing the message.
    fn on_receive(&mut self, from: usize, pb: &Piggyback) -> ReceiveOutcome;

    /// A basic (mobility-mandated) checkpoint is being taken.
    fn on_basic(&mut self, reason: BasicReason) -> BasicCkpt;

    /// The host relocated to MSS `mss` (default: ignored).
    fn on_relocate(&mut self, mss: u32) {
        let _ = mss;
    }

    /// Wire bytes this protocol currently piggybacks per message (for the
    /// control-information scalability experiment).
    fn piggyback_bytes(&self) -> usize;

    /// The protocol index the *next* checkpoint would carry (diagnostic).
    fn current_index(&self) -> u64;

    /// Clones this protocol instance behind a fresh box.
    ///
    /// The model checker forks world states on every enabled event, which
    /// requires duplicating the per-host protocol state machines; trait
    /// objects cannot derive `Clone`, so each implementation provides it.
    fn clone_box(&self) -> Box<dyn Protocol>;

    /// Appends the protocol's complete logical state to `out` as words.
    ///
    /// Two instances that push identical words must behave identically on
    /// all future inputs — this feeds the model checker's state-hash
    /// deduplication. Derived caches (e.g. TP's encoded wire vectors) must
    /// be excluded; logical state (sequence numbers, vectors, phases) must
    /// all be included.
    fn state_sig(&self, out: &mut Vec<u64>);

    /// This host initiates coordination round `round` (default: nothing to
    /// do). Returns the checkpoint to take and the control messages to send.
    fn initiate(&mut self, round: u64) -> CoordAction {
        let _ = round;
        CoordAction::default()
    }

    /// A control message from host `from` arrived (default: ignored).
    fn on_control(&mut self, from: usize, msg: &ControlMsg) -> CoordAction {
        let _ = (from, msg);
        CoordAction::default()
    }

    /// True while the host must not send application messages (a blocking
    /// coordination session is open; default: never).
    fn is_blocked(&self) -> bool {
        false
    }

    /// True once this host has finished its part of snapshot `round`
    /// (default: never; only rounds that can complete are timed).
    fn round_complete(&self, round: u64) -> bool {
        let _ = round;
        false
    }
}

impl Clone for Box<dyn Protocol> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_reason_maps_to_kind() {
        assert_eq!(BasicReason::CellSwitch.kind(), CkptKind::CellSwitch);
        assert_eq!(BasicReason::Disconnect.kind(), CkptKind::Disconnect);
        assert_eq!(BasicReason::Periodic.kind(), CkptKind::Periodic);
    }

    #[test]
    fn receive_outcome_constructors() {
        assert_eq!(ReceiveOutcome::NONE.forced, None);
        assert_eq!(ReceiveOutcome::forced(3).forced, Some(3));
    }
}
