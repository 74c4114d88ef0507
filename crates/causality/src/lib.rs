//! `causality` — happened-before machinery for checkpointing analysis.
//!
//! The paper defines consistency of a global checkpoint through Lamport's
//! happened-before relation and the absence of *orphan messages*. This crate
//! provides that machinery independently of any particular protocol, so the
//! protocol implementations in the `cic` crate can be **verified** against
//! it rather than trusted:
//!
//! * [`trace`] — recorded computation traces (checkpoints + message
//!   intervals);
//! * [`cut`] — global checkpoints, orphan detection, consistency, and the
//!   rollback-propagation fixpoint that computes maximal consistent cuts;
//! * [`recovery`] — recovery lines after failures and rollback-cost
//!   measurement (the paper's "future work", implemented as an extension);
//! * [`zpath`] — Z-paths, Z-cycles and useless-checkpoint detection
//!   (Netzer–Xu), cross-validating the cut-based analyses.
//!
//! # Example
//!
//! ```
//! use causality::trace::{TraceBuilder, ProcId, MsgId, CkptKind};
//! use causality::cut::{Cut, is_consistent, latest_recovery_line};
//!
//! let mut b = TraceBuilder::new(2);
//! b.checkpoint(ProcId(0), 1.0, 1, CkptKind::CellSwitch);
//! b.send(MsgId(1), ProcId(0), ProcId(1), 2.0);
//! b.recv(MsgId(1), 3.0);
//! b.checkpoint(ProcId(1), 4.0, 1, CkptKind::Forced);
//! let trace = b.finish();
//!
//! // Taking both latest checkpoints is inconsistent: the message would be
//! // orphan (received but never sent). The maximal consistent line rolls
//! // the receiver back.
//! assert!(!is_consistent(&trace, &Cut::new(vec![1, 1])));
//! assert_eq!(latest_recovery_line(&trace).ordinals(), &[1, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cut;
pub mod recovery;
pub mod rgraph;
pub mod trace;
pub mod zpath;

pub use cut::{
    is_consistent, latest_recovery_line, max_consistent_cut_below,
    max_consistent_cut_containing, orphans, Cut,
};
pub use recovery::{recovery_line_after_failure, rollback_cost, RollbackCost};
pub use rgraph::RGraph;
pub use trace::{CkptKind, CkptRecord, MsgId, MsgRecord, ProcId, Trace, TraceBuilder};
pub use zpath::ZigzagGraph;
