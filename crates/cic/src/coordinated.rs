//! Coordinated checkpointing baselines.
//!
//! The paper's Section 2 discusses the coordinated class; three
//! representatives are implemented here as host-local [`Protocol`] state
//! machines:
//!
//! * [`ChandyLamport`] — the classic distributed-snapshot protocol: an
//!   initiator checkpoints and floods *markers*; every process checkpoints
//!   on its first marker of a round and relays markers on all its outgoing
//!   channels. Simple, but in a mobile setting every marker is a control
//!   message that must *locate* a mobile host, drains batteries and
//!   contends for the wireless channel, and every process checkpoints
//!   whether it needs to or not. The states of the channels are not
//!   recorded: the simulator models time and bytes, not application
//!   state, so nothing would read them.
//!
//! * [`PrakashSinghal`] — minimal-process coordination: only processes that
//!   acquired causal dependencies since the last round are asked to
//!   checkpoint. Dependencies are tracked with a piggybacked bit-vector
//!   (which is precisely the O(n) data structure the paper holds against
//!   it).
//!
//! * [`KooToueg`] — the blocking two-phase variant of minimal-process
//!   coordination, with the same piggybacked bit-vector.
//!
//! Unlike the communication-induced protocols, these exchange *control
//! messages*: [`Protocol::initiate`] and [`Protocol::on_control`] return a
//! [`CoordAction`], the checkpoint to take and the messages the simulator
//! routes and charges. Application messages only carry the dependency sets
//! and never force a checkpoint; basic checkpoints are numbered apart from
//! the coordinated ones.

use std::collections::{BTreeMap, BTreeSet};

use crate::piggyback::Piggyback;
use crate::protocol::{BasicCkpt, BasicReason, Protocol, ReceiveOutcome};

/// A coordination control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Chandy–Lamport channel marker for a snapshot round.
    Marker {
        /// Snapshot round number.
        round: u64,
    },
    /// Prakash–Singhal checkpoint request for a round.
    CkptRequest {
        /// Coordination round number.
        round: u64,
    },
    /// Koo–Toueg checkpoint request (tentative phase).
    KtRequest {
        /// Coordination round number.
        round: u64,
    },
    /// Koo–Toueg acknowledgement, carrying the subtree's participant set.
    KtAck {
        /// Coordination round number.
        round: u64,
        /// Every process that took a tentative checkpoint in the sender's
        /// request subtree (including the sender).
        participants: Vec<usize>,
    },
    /// Koo–Toueg commit: tentative checkpoints become permanent, blocking
    /// ends.
    KtCommit {
        /// Coordination round number.
        round: u64,
    },
}

impl ControlMsg {
    /// The coordination round the message belongs to.
    pub fn round(&self) -> u64 {
        match self {
            ControlMsg::Marker { round }
            | ControlMsg::CkptRequest { round }
            | ControlMsg::KtRequest { round }
            | ControlMsg::KtAck { round, .. }
            | ControlMsg::KtCommit { round } => *round,
        }
    }
}

/// What a coordination event asks the host/simulator to do.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoordAction {
    /// Take a (coordinated) checkpoint now, with this protocol index.
    pub checkpoint: Option<u64>,
    /// Control messages to send: `(destination, message)`.
    pub send: Vec<(usize, ControlMsg)>,
}

/// Numbers a mobility-mandated basic checkpoint with `counter`, which each
/// protocol keeps apart from its coordinated count.
fn next_basic(counter: &mut u64) -> BasicCkpt {
    *counter += 1;
    BasicCkpt {
        index: *counter,
        replaces_predecessor: false,
    }
}

/// State signature words from the derived `Debug` form, which prints every
/// field: the coordination state (round sets, sessions) has no natural word
/// layout, and only the model checker reads signatures.
fn debug_sig(state: &impl std::fmt::Debug, out: &mut Vec<u64>) {
    out.extend(format!("{state:?}").bytes().map(u64::from));
}

// ---------------------------------------------------------------------------
// Chandy–Lamport
// ---------------------------------------------------------------------------

/// Per-process Chandy–Lamport snapshot state.
///
/// Channels are the ordered process pairs of a fully connected network. The
/// mobile substrate delivers same-pair messages in FIFO order (constant hop
/// latencies), satisfying the protocol's channel assumption.
#[derive(Debug, Clone)]
pub struct ChandyLamport {
    me: usize,
    n: usize,
    /// Rounds for which this process has already checkpointed.
    taken: BTreeSet<u64>,
    /// Per round, the channels (peer ids) whose marker has arrived.
    markers_seen: BTreeMap<u64, BTreeSet<usize>>,
    /// Coordinated checkpoints taken so far (protocol index).
    count: u64,
    /// Basic checkpoints taken so far.
    basic: u64,
}

impl ChandyLamport {
    /// A fresh instance for process `me` of `n`.
    pub fn new(me: usize, n: usize) -> Self {
        assert!(me < n);
        ChandyLamport {
            me,
            n,
            taken: BTreeSet::new(),
            markers_seen: BTreeMap::new(),
            count: 0,
            basic: 0,
        }
    }

    fn snapshot_now(&mut self, round: u64) -> CoordAction {
        self.taken.insert(round);
        self.count += 1;
        CoordAction {
            checkpoint: Some(self.count),
            send: (0..self.n)
                .filter(|&j| j != self.me)
                .map(|j| (j, ControlMsg::Marker { round }))
                .collect(),
        }
    }
}

impl Protocol for ChandyLamport {
    fn name(&self) -> &'static str {
        "CL"
    }

    fn on_send(&mut self, _to: usize) -> Piggyback {
        Piggyback::None
    }

    fn on_receive(&mut self, _from: usize, _pb: &Piggyback) -> ReceiveOutcome {
        ReceiveOutcome::NONE
    }

    fn on_basic(&mut self, _reason: BasicReason) -> BasicCkpt {
        next_basic(&mut self.basic)
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
        debug_sig(self, out);
    }

    /// This process initiates snapshot `round`: checkpoint and send markers
    /// on every outgoing channel.
    fn initiate(&mut self, round: u64) -> CoordAction {
        assert!(
            !self.taken.contains(&round),
            "round {round} already initiated or joined"
        );
        self.snapshot_now(round)
    }

    /// A marker for `round` arrived on the channel from `from`.
    fn on_control(&mut self, from: usize, msg: &ControlMsg) -> CoordAction {
        let ControlMsg::Marker { round } = *msg else {
            panic!("CL runs route only markers, got {msg:?}");
        };
        // A duplicate marker (at-least-once transport) is idempotent; the
        // first marker of a round checkpoints and relays.
        let fresh = self.markers_seen.entry(round).or_default().insert(from);
        if fresh && !self.taken.contains(&round) {
            self.snapshot_now(round)
        } else {
            CoordAction::default()
        }
    }

    /// True when all n−1 markers for `round` have arrived (local snapshot
    /// complete).
    fn round_complete(&self, round: u64) -> bool {
        self.taken.contains(&round)
            && self
                .markers_seen
                .get(&round)
                .is_some_and(|s| s.len() == self.n - 1)
    }
}

// ---------------------------------------------------------------------------
// Dependency tracking shared by the minimal-process protocols
// ---------------------------------------------------------------------------

/// Transitive dependency set since the last coordinated checkpoint: bit `j`
/// means the current interval causally depends on process `j`. This is the
/// O(n) bit-vector Prakash–Singhal and Koo–Toueg piggyback on every
/// application message.
#[derive(Debug, Clone)]
struct Deps {
    me: usize,
    bits: Vec<bool>,
}

impl Deps {
    fn new(me: usize, n: usize) -> Self {
        assert!(me < n);
        Deps {
            me,
            bits: vec![false; n],
        }
    }

    fn piggyback(&self) -> Piggyback {
        Piggyback::DepSet {
            deps: self.bits.clone(),
        }
    }

    /// An application message from `from` carrying the sender's dependency
    /// set arrived: merge it and add the direct dependency.
    fn merge(&mut self, from: usize, pb: &Piggyback) {
        let Piggyback::DepSet { deps } = pb else {
            panic!("minimal-process runs piggyback DepSet on app messages, got {pb:?}");
        };
        assert_eq!(deps.len(), self.bits.len(), "dep vector width");
        for (mine, theirs) in self.bits.iter_mut().zip(deps) {
            *mine |= *theirs;
        }
        self.bits[from] = true;
    }

    /// The processes we depend on, other than ourselves and `exclude`, and
    /// a reset: the checkpoint the caller takes closes the interval.
    fn take_targets(&mut self, exclude: Option<usize>) -> Vec<usize> {
        let targets = self
            .bits
            .iter()
            .enumerate()
            .filter(|&(j, &d)| d && j != self.me && Some(j) != exclude)
            .map(|(j, _)| j)
            .collect();
        self.bits.iter_mut().for_each(|d| *d = false);
        targets
    }
}

// ---------------------------------------------------------------------------
// Prakash–Singhal-style minimal coordination
// ---------------------------------------------------------------------------

/// Per-process minimal-coordination state.
#[derive(Debug, Clone)]
pub struct PrakashSinghal {
    deps: Deps,
    /// Rounds already checkpointed.
    taken: BTreeSet<u64>,
    count: u64,
    basic: u64,
}

impl PrakashSinghal {
    /// A fresh instance for process `me` of `n`.
    pub fn new(me: usize, n: usize) -> Self {
        PrakashSinghal {
            deps: Deps::new(me, n),
            taken: BTreeSet::new(),
            count: 0,
            basic: 0,
        }
    }

    /// Checkpoint and ask exactly the processes we causally depend on to do
    /// the same (transitively).
    fn checkpoint_and_fan_out(&mut self, round: u64) -> CoordAction {
        self.taken.insert(round);
        self.count += 1;
        let targets = self.deps.take_targets(None).into_iter();
        CoordAction {
            checkpoint: Some(self.count),
            send: targets.map(|j| (j, ControlMsg::CkptRequest { round })).collect(),
        }
    }
}

impl Protocol for PrakashSinghal {
    fn name(&self) -> &'static str {
        "PS"
    }

    fn on_send(&mut self, _to: usize) -> Piggyback {
        self.deps.piggyback()
    }

    fn on_receive(&mut self, from: usize, pb: &Piggyback) -> ReceiveOutcome {
        self.deps.merge(from, pb);
        ReceiveOutcome::NONE
    }

    fn on_basic(&mut self, _reason: BasicReason) -> BasicCkpt {
        next_basic(&mut self.basic)
    }

    fn piggyback_bytes(&self) -> usize {
        self.deps.bits.len().div_ceil(8)
    }

    fn current_index(&self) -> u64 {
        self.count
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn state_sig(&self, out: &mut Vec<u64>) {
        debug_sig(self, out);
    }

    fn initiate(&mut self, round: u64) -> CoordAction {
        assert!(!self.taken.contains(&round), "round {round} already run");
        self.checkpoint_and_fan_out(round)
    }

    fn on_control(&mut self, _from: usize, msg: &ControlMsg) -> CoordAction {
        let ControlMsg::CkptRequest { round } = *msg else {
            panic!("PS runs route only checkpoint requests, got {msg:?}");
        };
        if self.taken.contains(&round) {
            CoordAction::default() // idempotent under duplicates/cycles
        } else {
            self.checkpoint_and_fan_out(round)
        }
    }
}

// ---------------------------------------------------------------------------
// Koo–Toueg blocking minimal coordination
// ---------------------------------------------------------------------------

/// Per-round Koo–Toueg session state.
#[derive(Debug, Clone)]
struct KtRound {
    /// Who asked us to join (None at the initiator).
    parent: Option<usize>,
    /// Children we are still waiting on.
    waiting: BTreeSet<usize>,
    /// Participants gathered from acked subtrees (plus ourselves).
    participants: BTreeSet<usize>,
    /// Tentative checkpoint committed?
    committed: bool,
}

/// Koo–Toueg two-phase **blocking** minimal-process coordination.
///
/// The initiator takes a *tentative* checkpoint, blocks its application
/// sends, and asks the processes it causally depends on to do the same;
/// requests propagate transitively (a tree), acknowledgements flow back up
/// carrying the participant sets, and the initiator finally *commits*,
/// unblocking everyone. Blocking is the price of its simplicity — the
/// simulator measures the sends suppressed while blocked, the cost the
/// paper's non-blocking alternatives avoid.
#[derive(Debug, Clone)]
pub struct KooToueg {
    deps: Deps,
    rounds: BTreeMap<u64, KtRound>,
    /// How many of `rounds` are still uncommitted, so that the per-send
    /// blocking check does not scan every session ever joined.
    open: usize,
    /// Checkpoints taken (tentative ones count; we model no aborts).
    count: u64,
    basic: u64,
}

impl KooToueg {
    /// A fresh instance for process `me` of `n`.
    pub fn new(me: usize, n: usize) -> Self {
        KooToueg {
            deps: Deps::new(me, n),
            rounds: BTreeMap::new(),
            open: 0,
            count: 0,
            basic: 0,
        }
    }

    /// Takes the tentative checkpoint of `round` and opens its session.
    /// Returns the checkpoint index and the requests' targets.
    fn join(&mut self, round: u64, parent: Option<usize>) -> (u64, Vec<usize>) {
        self.count += 1;
        let targets = self.deps.take_targets(parent);
        // An initiator with nobody to wait for is trivially committed.
        let committed = parent.is_none() && targets.is_empty();
        self.open += usize::from(!committed);
        self.rounds.insert(
            round,
            KtRound {
                parent,
                waiting: targets.iter().copied().collect(),
                participants: BTreeSet::from([self.deps.me]),
                committed,
            },
        );
        (self.count, targets)
    }

    /// A request arrived from `from`.
    fn on_request(&mut self, from: usize, round: u64) -> CoordAction {
        // Already participating (cycle in the dependency graph): ack
        // immediately without a second tentative checkpoint.
        let (checkpoint, targets, participants) = if self.rounds.contains_key(&round) {
            (None, Vec::new(), Vec::new())
        } else {
            let (index, targets) = self.join(round, Some(from));
            (Some(index), targets, vec![self.deps.me])
        };
        // A leaf acks its parent straight away; the others ask their own
        // dependencies first.
        let send = if targets.is_empty() {
            vec![(from, ControlMsg::KtAck { round, participants })]
        } else {
            targets.into_iter().map(|j| (j, ControlMsg::KtRequest { round })).collect()
        };
        CoordAction { checkpoint, send }
    }

    /// A child's acknowledgement arrived.
    fn on_ack(&mut self, from: usize, round: u64, participants: &[usize]) -> CoordAction {
        let Some(state) = self.rounds.get_mut(&round) else {
            return CoordAction::default(); // stale ack after commit
        };
        state.waiting.remove(&from);
        state.participants.extend(participants.iter().copied());
        if !state.waiting.is_empty() {
            return CoordAction::default();
        }
        let send = match state.parent {
            // Phase 2 at the initiator: commit to every participant
            // (except ourselves).
            None => {
                if !std::mem::replace(&mut state.committed, true) {
                    self.open -= 1;
                }
                let me = self.deps.me;
                state
                    .participants
                    .iter()
                    .filter(|&&j| j != me)
                    .map(|&j| (j, ControlMsg::KtCommit { round }))
                    .collect()
            }
            // Subtree complete: ack our parent with the gathered set.
            Some(parent) => vec![(
                parent,
                ControlMsg::KtAck {
                    round,
                    participants: state.participants.iter().copied().collect(),
                },
            )],
        };
        CoordAction {
            checkpoint: None,
            send,
        }
    }
}

impl Protocol for KooToueg {
    fn name(&self) -> &'static str {
        "KT"
    }

    fn on_send(&mut self, _to: usize) -> Piggyback {
        self.deps.piggyback()
    }

    fn on_receive(&mut self, from: usize, pb: &Piggyback) -> ReceiveOutcome {
        self.deps.merge(from, pb);
        ReceiveOutcome::NONE
    }

    fn on_basic(&mut self, _reason: BasicReason) -> BasicCkpt {
        next_basic(&mut self.basic)
    }

    fn piggyback_bytes(&self) -> usize {
        self.deps.bits.len().div_ceil(8)
    }

    fn current_index(&self) -> u64 {
        self.count
    }

    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn state_sig(&self, out: &mut Vec<u64>) {
        debug_sig(self, out);
    }

    /// Start a session: tentative checkpoint, block, fan out requests.
    fn initiate(&mut self, round: u64) -> CoordAction {
        assert!(!self.rounds.contains_key(&round), "round {round} already run");
        let (index, targets) = self.join(round, None);
        let send = targets.into_iter().map(|j| (j, ControlMsg::KtRequest { round }));
        CoordAction {
            checkpoint: Some(index),
            send: send.collect(),
        }
    }

    fn on_control(&mut self, from: usize, msg: &ControlMsg) -> CoordAction {
        match msg {
            ControlMsg::KtRequest { round } => self.on_request(from, *round),
            ControlMsg::KtAck {
                round,
                participants,
            } => self.on_ack(from, *round, participants),
            // The initiator's commit: unblock.
            ControlMsg::KtCommit { round } => {
                if let Some(state) = self.rounds.get_mut(round) {
                    if !std::mem::replace(&mut state.committed, true) {
                        self.open -= 1;
                    }
                }
                CoordAction::default()
            }
            other => panic!("KT runs route only KT messages, got {other:?}"),
        }
    }

    /// True while some session holds a tentative, uncommitted checkpoint:
    /// the process must not send application messages.
    fn is_blocked(&self) -> bool {
        self.open > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(round: u64) -> ControlMsg {
        ControlMsg::Marker { round }
    }

    fn ack(round: u64, participants: &[usize]) -> ControlMsg {
        ControlMsg::KtAck {
            round,
            participants: participants.to_vec(),
        }
    }

    /// A dependency-set piggyback with bits set for `on`, `n` wide.
    fn deps(n: usize, on: &[usize]) -> Piggyback {
        Piggyback::DepSet {
            deps: (0..n).map(|j| on.contains(&j)).collect(),
        }
    }

    fn targets(a: &CoordAction) -> Vec<usize> {
        let mut t: Vec<usize> = a.send.iter().map(|(j, _)| *j).collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn cl_initiator_checkpoints_and_floods() {
        let mut p = ChandyLamport::new(0, 4);
        let a = p.initiate(1);
        assert_eq!(a.checkpoint, Some(1));
        assert_eq!(a.send.len(), 3);
        assert!(a.send.iter().all(|(_, m)| *m == marker(1)));
    }

    #[test]
    fn cl_first_marker_checkpoints_and_relays() {
        let mut p = ChandyLamport::new(1, 3);
        let a = p.on_control(0, &marker(1));
        assert_eq!(a.checkpoint, Some(1));
        assert_eq!(a.send.len(), 2); // relays to 0 and 2
        let b = p.on_control(2, &marker(1));
        assert_eq!(b.checkpoint, None);
        assert!(b.send.is_empty());
        assert!(p.round_complete(1));
    }

    #[test]
    fn cl_duplicate_marker_is_idempotent() {
        let mut p = ChandyLamport::new(1, 3);
        p.on_control(0, &marker(1));
        let dup = p.on_control(0, &marker(1));
        assert_eq!(dup, CoordAction::default());
        assert_eq!(p.current_index(), 1);
        assert!(!p.round_complete(1));
    }

    #[test]
    fn cl_rounds_are_independent() {
        let mut p = ChandyLamport::new(0, 2);
        p.initiate(1);
        p.initiate(2);
        assert_eq!(p.current_index(), 2);
        assert!(!p.round_complete(1));
        p.on_control(1, &marker(1));
        assert!(p.round_complete(1));
        assert!(!p.round_complete(2));
    }

    #[test]
    fn coordinated_basic_checkpoints_count_apart() {
        let mut protos: [Box<dyn Protocol>; 3] = [
            Box::new(ChandyLamport::new(0, 3)),
            Box::new(PrakashSinghal::new(0, 3)),
            Box::new(KooToueg::new(0, 3)),
        ];
        for p in &mut protos {
            assert_eq!(p.on_basic(BasicReason::CellSwitch).index, 1);
            assert_eq!(p.initiate(1).checkpoint, Some(1), "{}", p.name());
            let b = p.on_basic(BasicReason::Disconnect);
            assert_eq!((b.index, b.replaces_predecessor), (2, false));
            assert_eq!(p.current_index(), 1);
            assert_eq!(p.on_receive(1, &p.clone_box().on_send(1)), ReceiveOutcome::NONE);
        }
    }

    #[test]
    fn ps_initiator_without_deps_checkpoints_alone() {
        let mut p = PrakashSinghal::new(0, 4);
        let a = p.initiate(1);
        assert_eq!(a.checkpoint, Some(1));
        assert!(a.send.is_empty(), "no dependencies ⇒ nobody else asked");
    }

    #[test]
    fn ps_requests_exactly_the_dependency_set() {
        let mut p = PrakashSinghal::new(0, 4);
        p.on_receive(2, &deps(4, &[]));
        p.on_receive(3, &deps(4, &[1])); // 3 depends on 1
        assert_eq!(p.on_send(1), deps(4, &[1, 2, 3]));
        let a = p.initiate(1);
        assert_eq!(targets(&a), vec![1, 2, 3]);
        // Dependencies cleared by the checkpoint.
        assert_eq!(p.on_send(1), deps(4, &[]));
    }

    #[test]
    fn ps_request_is_idempotent_per_round() {
        let mut p = PrakashSinghal::new(1, 3);
        let req = ControlMsg::CkptRequest { round: 7 };
        let a = p.on_control(0, &req);
        assert_eq!(a.checkpoint, Some(1));
        let b = p.on_control(2, &req);
        assert_eq!(b, CoordAction::default());
        assert_eq!(p.current_index(), 1);
    }

    #[test]
    fn ps_transitive_fan_out() {
        // p1 depends on p2; when p1 gets a request it forwards to p2.
        let mut p1 = PrakashSinghal::new(1, 3);
        p1.on_receive(2, &deps(3, &[]));
        let a = p1.on_control(0, &ControlMsg::CkptRequest { round: 1 });
        assert_eq!(a.send, vec![(2, ControlMsg::CkptRequest { round: 1 })]);
    }

    #[test]
    fn ps_own_bit_is_ignored_in_dependency_set() {
        let mut p = PrakashSinghal::new(0, 2);
        // A message whose dep vector claims dependency on ourselves.
        p.on_receive(1, &deps(2, &[0]));
        assert_eq!(targets(&p.initiate(1)), vec![1]);
    }

    // -- Koo–Toueg ----------------------------------------------------------

    #[test]
    fn kt_lonely_initiator_commits_immediately() {
        let mut p = KooToueg::new(0, 3);
        let a = p.initiate(1);
        assert_eq!(a.checkpoint, Some(1));
        assert!(a.send.is_empty());
        assert!(!p.is_blocked(), "no participants ⇒ nothing to wait for");
    }

    #[test]
    fn kt_initiator_blocks_until_all_acks() {
        let mut p = KooToueg::new(0, 3);
        p.on_receive(1, &deps(3, &[]));
        p.on_receive(2, &deps(3, &[]));
        let a = p.initiate(1);
        assert_eq!(a.send.len(), 2);
        assert!(p.is_blocked());
        p.on_control(1, &ack(1, &[1]));
        assert!(p.is_blocked(), "still waiting for 2");
        let fin = p.on_control(2, &ack(1, &[2]));
        assert!(!p.is_blocked());
        // Commit goes to both participants.
        assert_eq!(targets(&fin), vec![1, 2]);
        assert!(fin
            .send
            .iter()
            .all(|(_, m)| *m == ControlMsg::KtCommit { round: 1 }));
    }

    #[test]
    fn kt_leaf_acks_parent_and_blocks_until_commit() {
        let mut p = KooToueg::new(1, 3);
        let a = p.on_control(0, &ControlMsg::KtRequest { round: 7 });
        assert_eq!(a.checkpoint, Some(1));
        assert_eq!(a.send, vec![(0, ack(7, &[1]))]);
        assert!(p.is_blocked());
        p.on_control(0, &ControlMsg::KtCommit { round: 7 });
        assert!(!p.is_blocked());
    }

    #[test]
    fn kt_transitive_tree_gathers_participants() {
        // 0 depends on 1; 1 depends on 2. Requests flow 0→1→2, acks 2→1→0.
        let mut p1 = KooToueg::new(1, 3);
        p1.on_receive(2, &deps(3, &[]));
        let a = p1.on_control(0, &ControlMsg::KtRequest { round: 1 });
        assert_eq!(a.checkpoint, Some(1));
        assert_eq!(a.send, vec![(2, ControlMsg::KtRequest { round: 1 })]);
        // p2 (leaf) acks p1; p1 then acks p0 with {1, 2}.
        let up = p1.on_control(2, &ack(1, &[2]));
        match &up.send[..] {
            [(0, ControlMsg::KtAck { round: 1, participants })] => {
                let mut ps = participants.clone();
                ps.sort_unstable();
                assert_eq!(ps, vec![1, 2]);
            }
            other => panic!("unexpected ack {other:?}"),
        }
    }

    #[test]
    fn kt_cycle_acks_without_second_checkpoint() {
        let mut p = KooToueg::new(1, 3);
        p.on_control(0, &ControlMsg::KtRequest { round: 1 });
        assert_eq!(p.current_index(), 1);
        let again = p.on_control(2, &ControlMsg::KtRequest { round: 1 });
        assert_eq!(again.checkpoint, None);
        assert_eq!(p.current_index(), 1);
        assert_eq!(again.send, vec![(2, ack(1, &[]))]);
    }

    #[test]
    fn kt_stale_ack_is_ignored() {
        let mut p = KooToueg::new(0, 2);
        assert_eq!(p.on_control(1, &ack(99, &[1])), CoordAction::default());
    }

    #[test]
    fn kt_dependencies_reset_after_checkpoint() {
        let mut p = KooToueg::new(0, 3);
        p.on_receive(1, &deps(3, &[]));
        p.initiate(1);
        // New session sees a clean slate.
        p.on_control(1, &ack(1, &[1]));
        let a2 = p.initiate(2);
        assert!(a2.send.is_empty(), "dependencies were reset");
    }

    #[test]
    fn control_messages_name_their_round() {
        let (req, commit) = (ControlMsg::KtRequest { round: 3 }, ControlMsg::KtCommit { round: 5 });
        let msgs = [marker(1), ControlMsg::CkptRequest { round: 2 }, req, ack(4, &[0]), commit];
        assert_eq!(msgs.map(|m| m.round()), [1, 2, 3, 4, 5]);
    }
}
