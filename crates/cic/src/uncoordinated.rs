//! Uncoordinated (independent) checkpointing baseline.
//!
//! Processes checkpoint whenever they like — here periodically, plus the
//! mobility-mandated basic checkpoints — with **no** coordination and no
//! piggybacked control information. This is the paper's first protocol
//! class, included as a baseline: it minimizes checkpointing overhead but
//! offers no guarantee that a checkpoint belongs to any consistent global
//! checkpoint, so a failure can trigger the **domino effect** and unbounded
//! rollback. The class-comparison experiment quantifies exactly that
//! trade-off.

use crate::piggyback::Piggyback;
use crate::protocol::{BasicCkpt, BasicReason, Protocol, ReceiveOutcome};

/// Per-host uncoordinated-checkpointing state (just a counter).
#[derive(Debug, Clone, Default)]
pub struct Uncoordinated {
    count: u64,
}

impl Uncoordinated {
    /// A fresh instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Protocol for Uncoordinated {
    fn name(&self) -> &'static str {
        "UNCOORD"
    }

    fn on_send(&mut self, _to: usize) -> Piggyback {
        Piggyback::None
    }

    fn on_receive(&mut self, _from: usize, _pb: &Piggyback) -> ReceiveOutcome {
        ReceiveOutcome::NONE
    }

    fn on_basic(&mut self, _reason: BasicReason) -> BasicCkpt {
        self.count += 1;
        BasicCkpt {
            index: self.count,
            replaces_predecessor: false,
        }
    }

    fn piggyback_bytes(&self) -> usize {
        0
    }

    fn current_index(&self) -> u64 {
        self.count
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn state_sig(&self, out: &mut Vec<u64>) {
        out.push(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_forces_checkpoints() {
        let mut u = Uncoordinated::new();
        for _ in 0..10 {
            u.on_send(1);
            assert_eq!(u.on_receive(0, &Piggyback::None).forced, None);
        }
        assert_eq!(u.current_index(), 0);
    }

    #[test]
    fn counts_basic_checkpoints() {
        let mut u = Uncoordinated::new();
        assert_eq!(u.on_basic(BasicReason::Periodic).index, 1);
        assert_eq!(u.on_basic(BasicReason::CellSwitch).index, 2);
        assert_eq!(u.current_index(), 2);
    }

    #[test]
    fn zero_control_overhead() {
        let mut u = Uncoordinated::new();
        assert_eq!(u.piggyback_bytes(), 0);
        assert_eq!(u.on_send(0).wire_bytes(), 0);
        assert_eq!(u.name(), "UNCOORD");
    }
}
