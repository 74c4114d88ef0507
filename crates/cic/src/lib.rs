//! `cic` — checkpointing protocols for distributed systems with mobile hosts.
//!
//! This crate implements, as host-local state machines, every checkpointing
//! protocol the paper evaluates or discusses:
//!
//! | Type | Protocol | Class | Piggyback |
//! |------|----------|-------|-----------|
//! | [`tp::Tp`] | Acharya–Badrinath two-phase | communication-induced | 2·n integers |
//! | [`bcs::Bcs`] | Briatico–Ciuffoletti–Simoncini | communication-induced | 1 integer |
//! | [`qbc::Qbc`] | Quaglia–Baldoni–Ciciani | communication-induced | 1 integer |
//! | [`uncoordinated::Uncoordinated`] | independent/periodic | uncoordinated | none |
//! | [`coordinated::ChandyLamport`] | distributed snapshot | coordinated | markers |
//! | [`coordinated::PrakashSinghal`] | minimal-process | coordinated | n bits + requests |
//! | [`coordinated::KooToueg`] | blocking minimal-process | coordinated | n bits + 2-phase requests |
//!
//! All seven implement the common [`protocol::Protocol`] trait (the
//! paper's mobile-host event hooks). The coordinated baselines also use
//! its round hooks: `initiate`, `on_control`, `is_blocked` and
//! `round_complete`, whose defaults make them no-ops for the others.
//!
//! [`recovery`] builds the per-protocol recovery lines ("consistent global
//! checkpoints on the fly"); their consistency is independently verified
//! against the `causality` crate in the workspace test-suite.
//!
//! # Example: the QBC rules in five lines
//!
//! ```
//! use cic::prelude::*;
//!
//! let mut q = Qbc::new();
//! assert_eq!(q.on_send(1), Piggyback::Index { sn: 0 });
//! // Receiving a higher index forces a checkpoint before delivery:
//! assert_eq!(q.on_receive(0, &Piggyback::Index { sn: 3 }).forced, Some(3));
//! // A basic checkpoint advances the index only when rn == sn:
//! assert!(!q.on_basic(BasicReason::CellSwitch).replaces_predecessor);
//! assert_eq!(q.sn(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcs;
pub mod coordinated;
pub mod piggyback;
pub mod protocol;
pub mod qbc;
pub mod recovery;
pub mod tp;
pub mod uncoordinated;

use protocol::Protocol;

/// The communication-induced protocols under comparison, as named in the
/// paper's figures, plus the uncoordinated baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CicKind {
    /// Acharya–Badrinath two-phase protocol.
    Tp,
    /// Briatico–Ciuffoletti–Simoncini index-based protocol.
    Bcs,
    /// Quaglia–Baldoni–Ciciani optimized index-based protocol.
    Qbc,
    /// Uncoordinated baseline (no induced checkpoints).
    Uncoordinated,
}

impl CicKind {
    /// All trait-based protocols.
    pub const ALL: [CicKind; 4] =
        [CicKind::Tp, CicKind::Bcs, CicKind::Qbc, CicKind::Uncoordinated];

    /// The three protocols the paper's figures compare, in figure order.
    pub const PAPER: [CicKind; 3] = [CicKind::Tp, CicKind::Bcs, CicKind::Qbc];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            CicKind::Tp => "TP",
            CicKind::Bcs => "BCS",
            CicKind::Qbc => "QBC",
            CicKind::Uncoordinated => "UNCOORD",
        }
    }

    /// Parses a protocol name (case-insensitive).
    pub fn parse(s: &str) -> Option<CicKind> {
        match s.to_ascii_uppercase().as_str() {
            "TP" => Some(CicKind::Tp),
            "BCS" => Some(CicKind::Bcs),
            "QBC" => Some(CicKind::Qbc),
            "UNCOORD" | "UNCOORDINATED" | "NONE" => Some(CicKind::Uncoordinated),
            _ => None,
        }
    }

    /// Instantiates the protocol for host `me` of `n`, initially at MSS
    /// `mss`.
    pub fn instantiate(self, me: usize, n: usize, mss: u32) -> Box<dyn Protocol> {
        self.instantiate_with(me, n, mss, piggyback::PbCodec::Dense)
    }

    /// Like [`CicKind::instantiate`], selecting the wire codec for vector
    /// piggybacks. Only TP carries vectors; the other protocols ignore the
    /// codec (their piggybacks are already O(1)).
    pub fn instantiate_with(
        self,
        me: usize,
        n: usize,
        mss: u32,
        codec: piggyback::PbCodec,
    ) -> Box<dyn Protocol> {
        match self {
            CicKind::Tp => Box::new(tp::Tp::with_codec(me, n, mss, codec)),
            CicKind::Bcs => Box::new(bcs::Bcs::new()),
            CicKind::Qbc => Box::new(qbc::Qbc::new()),
            CicKind::Uncoordinated => Box::new(uncoordinated::Uncoordinated::new()),
        }
    }
}

impl std::fmt::Display for CicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bcs::Bcs;
    pub use crate::coordinated::{ChandyLamport, ControlMsg, CoordAction, KooToueg, PrakashSinghal};
    pub use crate::piggyback::{PbCodec, Piggyback};
    pub use crate::protocol::{BasicCkpt, BasicReason, Protocol, ReceiveOutcome};
    pub use crate::qbc::Qbc;
    pub use crate::tp::{Phase, Tp};
    pub use crate::uncoordinated::Uncoordinated;
    pub use crate::CicKind;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(CicKind::Tp.name(), "TP");
        assert_eq!(CicKind::Bcs.name(), "BCS");
        assert_eq!(CicKind::Qbc.name(), "QBC");
        assert_eq!(format!("{}", CicKind::Qbc), "QBC");
    }

    #[test]
    fn parse_round_trips() {
        for k in CicKind::ALL {
            assert_eq!(CicKind::parse(k.name()), Some(k));
            assert_eq!(CicKind::parse(&k.name().to_lowercase()), Some(k));
        }
        assert_eq!(CicKind::parse("nope"), None);
    }

    #[test]
    fn instantiate_produces_named_protocols() {
        for k in CicKind::ALL {
            let p = k.instantiate(0, 5, 2);
            assert_eq!(p.name(), k.name());
        }
    }
}
