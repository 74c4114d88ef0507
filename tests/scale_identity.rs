//! Byte-identity pinning for the large-N hot-path work and the protocol
//! interface.
//!
//! The SoA host-state layout, the cell-local iteration refactor and the
//! move of the coordinated baselines behind `cic::Protocol` are pure
//! reorganizations: they must not move a single modelled quantity. This
//! test pins the full deterministic `mck.run/v1` artifact (every counter,
//! gauge and per-host series the run can observe, `timing` members
//! stripped) for the paper configuration of all seven protocols to hashes
//! captured before each refactor. Any trajectory change — an RNG drawn in
//! a different order, a victim list in a different order, a counter
//! drifting — shows up here as a hash mismatch.
//!
//! The default (dense) piggyback codec is part of the pin: `--pb-codec rle`
//! is opt-in precisely so this artifact stays byte-identical.

use cic::CicKind;
use mck::artifact::{deterministic_view, run_artifact};
use mck::prelude::*;

/// FNV-1a 64-bit, hand-rolled (no external hash dependencies).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic artifact text for the paper configuration of
/// `protocol` (T_switch = 1000, P_switch = 0.8, H = 0, seed 1, horizon
/// 10000). The coordinated baselines run at the class-comparison point
/// (periodic timer every 100, like their rounds) with the metrics registry
/// on, so the control messages, searches, blocked sends and coordinated
/// checkpoints are pinned too, followed by the completed rounds' latencies.
fn artifact_text(protocol: ProtocolChoice) -> String {
    let mut cfg = SimConfig::paper(protocol, 1000.0, 0.8, 0.0);
    let coordinated = protocol.interval().is_some();
    if coordinated {
        cfg.periodic_mean = 100.0;
    }
    let instr = Instrumentation {
        metrics: coordinated,
        ..Instrumentation::off()
    };
    let report = Simulation::run_with(cfg.clone(), instr);
    let mut text = deterministic_view(&run_artifact(&cfg, &report)).to_pretty();
    if coordinated {
        text += &format!("coord_round_latencies {:?}\n", report.coord_round_latencies);
    }
    text
}

/// (protocol, artifact byte length, FNV-1a 64 of the artifact): the four
/// trait-based rows captured on the tree *before* the SoA + cell-local
/// refactor landed, the three coordinated rows on the tree before
/// Chandy–Lamport, Prakash–Singhal and Koo–Toueg moved behind
/// `cic::Protocol`.
const GOLDEN: [(ProtocolChoice, usize, u64); 7] = [
    (ProtocolChoice::Cic(CicKind::Tp), 1263, 0x853ce57be2519116),
    (ProtocolChoice::Cic(CicKind::Bcs), 1260, 0x969701d1cd827ccd),
    (ProtocolChoice::Cic(CicKind::Qbc), 1260, 0x0651c514152f5ac4),
    (ProtocolChoice::Cic(CicKind::Uncoordinated), 1264, 0x9339fe364dd04836),
    (ProtocolChoice::ChandyLamport { interval: 100.0 }, 5454, 0x1b3d11794e0fd746),
    (ProtocolChoice::PrakashSinghal { interval: 100.0 }, 3751, 0x63dc39380be8c12a),
    (ProtocolChoice::KooToueg { interval: 100.0 }, 3740, 0xe6aa4cb3e32f768d),
];

#[test]
fn paper_config_artifacts_are_byte_identical_to_pre_refactor_tree() {
    let mut drift = String::new();
    for (protocol, len, hash) in GOLDEN {
        let text = artifact_text(protocol);
        if (text.len(), fnv1a64(text.as_bytes())) != (len, hash) {
            drift += &format!(
                "    ({}: expected len {len} hash {hash:#018x}, \
                 actual len {} hash {:#018x})\n",
                protocol.name(),
                text.len(),
                fnv1a64(text.as_bytes()),
            );
        }
    }
    assert!(
        drift.is_empty(),
        "deterministic mck.run/v1 artifacts drifted from the pre-refactor goldens:\n{drift}"
    );
}

#[test]
fn artifact_text_is_stable_within_one_build() {
    // Meta-check: two runs of the same config produce the same text, so a
    // golden mismatch above means drift, not flakiness.
    for protocol in [
        ProtocolChoice::Cic(CicKind::Tp),
        ProtocolChoice::ChandyLamport { interval: 100.0 },
    ] {
        assert_eq!(artifact_text(protocol), artifact_text(protocol));
    }
}
