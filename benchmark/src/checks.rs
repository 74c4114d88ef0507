//! Output checks. Each one is a property the method must have or a
//! comparison against an independent path, never a stored golden copy, and
//! each returns the problems it found (empty = pass) so a round can report
//! every broken property at once.

use causality::cut::{is_consistent, Cut};
use causality::trace::{ProcId, Trace};
use faultsim::RecoveryStats;
use mcheck::{CheckConfig, CheckOutcome};
use mck::prelude::RunReport;
use simkit::json::Json;

/// The counters of one simulation run that the run-level checks read.
#[derive(Debug, Clone)]
pub struct RunFacts {
    /// What the run was, for messages.
    pub label: String,
    /// Checkpoints taken on a cell switch.
    pub cell_switch_ckpts: u64,
    /// Hand-offs counted by the attachment table.
    pub handoffs: u64,
    /// Checkpoints taken on a voluntary disconnection.
    pub disconnect_ckpts: u64,
    /// Disconnections counted by the attachment table.
    pub disconnects: u64,
    /// Application messages sent.
    pub sent: u64,
    /// Application messages delivered.
    pub delivered: u64,
}

impl RunFacts {
    /// Reads the facts off a report.
    pub fn of(label: String, r: &RunReport) -> RunFacts {
        RunFacts {
            label,
            cell_switch_ckpts: r.ckpts.cell_switch,
            handoffs: r.handoffs,
            disconnect_ckpts: r.ckpts.disconnect,
            disconnects: r.disconnects,
            sent: r.msgs_sent,
            delivered: r.msgs_delivered,
        }
    }
}

/// Every hand-off and every disconnection takes exactly one basic
/// checkpoint, and no message is delivered that was not sent.
pub fn run_counts(f: &RunFacts) -> Vec<String> {
    let mut out = Vec::new();
    if f.cell_switch_ckpts != f.handoffs {
        out.push(format!(
            "{}: {} hand-off checkpoints for {} hand-offs",
            f.label, f.cell_switch_ckpts, f.handoffs
        ));
    }
    if f.disconnect_ckpts != f.disconnects {
        out.push(format!(
            "{}: {} disconnection checkpoints for {} disconnections",
            f.label, f.disconnect_ckpts, f.disconnects
        ));
    }
    if f.delivered > f.sent {
        out.push(format!(
            "{}: {} deliveries exceed {} sends",
            f.label, f.delivered, f.sent
        ));
    }
    out
}

/// `N_tot` of the three paper protocols at one `T_switch` of a figure.
#[derive(Debug, Clone, Copy)]
pub struct FigurePoint {
    /// The swept `T_switch`.
    pub t_switch: f64,
    /// TP's total checkpoints.
    pub tp: u64,
    /// BCS's total checkpoints.
    pub bcs: u64,
    /// QBC's total checkpoints.
    pub qbc: u64,
}

/// The paper's orderings within one figure: BCS and QBC below TP at every
/// `T_switch`, QBC's total at most BCS's, and a best BCS-over-TP gain of at
/// least 90 %.
pub fn figure_orderings(figure: usize, points: &[FigurePoint]) -> Vec<String> {
    let mut out = Vec::new();
    for p in points {
        if p.bcs >= p.tp || p.qbc >= p.tp {
            out.push(format!(
                "fig {figure} T_switch {}: TP {} is not above BCS {} and QBC {}",
                p.t_switch, p.tp, p.bcs, p.qbc
            ));
        }
    }
    let bcs: u64 = points.iter().map(|p| p.bcs).sum();
    let qbc: u64 = points.iter().map(|p| p.qbc).sum();
    if qbc > bcs {
        out.push(format!(
            "fig {figure}: QBC total {qbc} exceeds BCS total {bcs}"
        ));
    }
    let best_gain = points
        .iter()
        .filter(|p| p.tp > 0)
        .map(|p| (p.tp as f64 - p.bcs as f64) / p.tp as f64)
        .fold(f64::NEG_INFINITY, f64::max);
    if best_gain < 0.9 {
        out.push(format!(
            "fig {figure}: best BCS-over-TP gain {best_gain:.3} is below 0.9"
        ));
    }
    out
}

/// Among the protocol-class rows, exactly the Koo–Toueg run (`KT`) blocks
/// sends.
pub fn only_koo_toueg_blocks(rows: &[(String, u64)]) -> Vec<String> {
    rows.iter()
        .filter_map(|(name, blocked)| {
            let koo_toueg = name == "KT";
            match (koo_toueg, *blocked > 0) {
                (true, false) => Some(format!("{name}: a blocking protocol never blocked a send")),
                (false, true) => Some(format!(
                    "{name}: {blocked} sends blocked by a non-blocking protocol"
                )),
                _ => None,
            }
        })
        .collect()
}

/// A cold request must be computed: 200 and a cache miss.
pub fn cold_reply(label: &str, status: u16, disposition: Option<&str>) -> Vec<String> {
    if status == 200 && disposition == Some("miss") {
        Vec::new()
    } else {
        vec![format!(
            "{label}: cold reply {status} {disposition:?}, expected 200 miss"
        )]
    }
}

/// A warm request must be a 200 hit whose body is byte-identical to the
/// cold reply, and it must run no simulation event.
pub fn warm_reply(
    label: &str,
    status: u16,
    disposition: Option<&str>,
    body: &[u8],
    cold_body: &[u8],
    events_run: u64,
) -> Vec<String> {
    let mut out = Vec::new();
    if status != 200 || disposition != Some("hit") {
        out.push(format!(
            "{label}: warm reply {status} {disposition:?}, expected 200 hit"
        ));
    }
    if body != cold_body {
        out.push(format!("{label}: warm body differs from the cold body"));
    }
    if events_run != 0 {
        out.push(format!(
            "{label}: a warm request ran {events_run} simulation events"
        ));
    }
    out
}

/// A served artifact must validate as `mck.run/v1`, and its `n_tot` and
/// `events` must equal those of a direct in-process run of its config.
pub fn served_artifact(label: &str, body: &[u8], n_tot: u64, events: u64) -> Vec<String> {
    let doc = match std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(|text| simkit::json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{label}: reply is not JSON: {e}")],
    };
    let mut out = Vec::new();
    match mck::artifact::validate(&doc) {
        Ok(mck::artifact::RUN_SCHEMA) => {}
        Ok(other) => out.push(format!("{label}: artifact schema {other}, expected a run")),
        Err(e) => out.push(format!("{label}: artifact does not validate: {e}")),
    }
    let outcome = |name: &str| {
        doc.get("outcome")
            .and_then(|o| o.get(name))
            .and_then(Json::as_u64)
    };
    if outcome("n_tot") != Some(n_tot) || outcome("events") != Some(events) {
        out.push(format!(
            "{label}: artifact n_tot/events {:?}/{:?}, direct run {n_tot}/{events}",
            outcome("n_tot"),
            outcome("events")
        ));
    }
    out
}

/// Pessimistic logging loses no work: zero undone time and zero receives
/// lost before they were stable.
pub fn pessimistic_recovery(label: &str, s: &RecoveryStats) -> Vec<String> {
    let mut out = Vec::new();
    if s.total_undone_time != 0.0 {
        out.push(format!(
            "{label}: pessimistic run undid {} time units",
            s.total_undone_time
        ));
    }
    if s.unstable_lost != 0 {
        out.push(format!(
            "{label}: pessimistic run lost {} unstable receives",
            s.unstable_lost
        ));
    }
    out
}

/// Optimistic logging with a zero flush window is pessimistic logging: the
/// recovery statistics of the two twins are equal.
pub fn zero_flush_twin(
    label: &str,
    pessimistic: &RecoveryStats,
    flush0: &RecoveryStats,
) -> Vec<String> {
    if pessimistic == flush0 {
        Vec::new()
    } else {
        vec![format!(
            "{label}: flush-0 recovery {flush0:?} differs from pessimistic {pessimistic:?}"
        )]
    }
}

/// Every recovery follows a crash.
pub fn recoveries_follow_crashes(label: &str, s: &RecoveryStats) -> Vec<String> {
    let crashes = s.mh_crashes + s.mss_crashes;
    if s.recoveries > crashes {
        vec![format!(
            "{label}: {} recoveries for {crashes} crashes",
            s.recoveries
        )]
    } else {
        Vec::new()
    }
}

/// The recovery line a protocol restores after host `p` fails, on the final
/// trace: the index line of `p`'s last checkpoint for the index-based
/// protocols, TP's maximal consistent cut containing it otherwise (`None`
/// when TP left that checkpoint useless).
fn recovery_line(tp: bool, trace: &Trace, p: ProcId) -> Option<Cut> {
    let last = trace.checkpoints(p).len() - 1;
    if tp {
        cic::recovery::tp_line(trace, p, last)
    } else {
        Some(cic::recovery::index_line(
            trace,
            trace.checkpoints(p)[last].index,
        ))
    }
}

/// The line must exist and be consistent: no message received inside it
/// was sent outside it.
pub fn consistent_line(label: &str, trace: &Trace, p: ProcId, line: Option<&Cut>) -> Vec<String> {
    match line {
        Some(cut) if is_consistent(trace, cut) => Vec::new(),
        Some(cut) => vec![format!(
            "{label}: recovery line after {p:?} fails, {:?}, is inconsistent",
            cut.ordinals()
        )],
        None => vec![format!(
            "{label}: no recovery line contains the last checkpoint of {p:?}"
        )],
    }
}

/// The recovery line after each host's failure is consistent.
pub fn recovery_lines(label: &str, tp: bool, trace: &Trace) -> Vec<String> {
    trace
        .procs()
        .flat_map(|p| consistent_line(label, trace, p, recovery_line(tp, trace, p).as_ref()))
        .collect()
}

/// An unmutated world explores completely and finds nothing.
pub fn clean_check(label: &str, out: &CheckOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if !out.complete {
        problems.push(format!(
            "{label}: exploration incomplete after {} states",
            out.states_explored
        ));
    }
    if let Some(cx) = &out.counterexample {
        problems.push(format!(
            "{label}: violation {:?} in a correct protocol",
            cx.violation
        ));
    }
    problems
}

/// A mutated world yields a counterexample, and replaying its schedule from
/// the root reproduces the same violation.
pub fn reproduced_counterexample(
    label: &str,
    cfg: &CheckConfig,
    out: &CheckOutcome,
) -> Vec<String> {
    let Some(cx) = &out.counterexample else {
        return vec![format!("{label}: the planted bug was not caught")];
    };
    let replayed = mcheck::replay(cfg, &cx.schedule.indices());
    if replayed.violation.as_ref() == Some(&cx.violation) {
        Vec::new()
    } else {
        vec![format!(
            "{label}: replay gave {:?}, the check found {:?}",
            replayed.violation, cx.violation
        )]
    }
}

/// A traced-run cross-check: two independent counts of one thing agree.
pub fn same_count(what: &str, traced: u64, reported: u64) -> Vec<String> {
    if traced == reported {
        Vec::new()
    } else {
        vec![format!("{what}: traced {traced}, reported {reported}")]
    }
}

#[cfg(test)]
mod tests {
    //! Every check must pass its honest input and reject a corrupted one,
    //! so that none passes by construction.

    use super::*;
    use causality::trace::{CkptKind, MsgId, TraceBuilder};
    use mck::prelude::{
        CicKind, Instrumentation, LoggingMode, ProtocolChoice, SimConfig, Simulation,
    };

    fn small(protocol: CicKind) -> SimConfig {
        SimConfig {
            protocol: ProtocolChoice::Cic(protocol),
            horizon: 400.0,
            t_switch: 100.0,
            p_switch: 0.8,
            ..SimConfig::default()
        }
    }

    #[test]
    fn run_counts_reject_mismatched_counters() {
        let r = Simulation::run(small(CicKind::Qbc));
        let honest = RunFacts::of("qbc".into(), &r);
        assert!(
            honest.handoffs > 0 && honest.disconnects > 0,
            "the run must move: {honest:?}"
        );
        assert!(run_counts(&honest).is_empty());
        let mut f = honest.clone();
        f.cell_switch_ckpts += 1;
        assert_eq!(run_counts(&f).len(), 1);
        let mut f = honest.clone();
        f.disconnects -= 1;
        assert_eq!(run_counts(&f).len(), 1);
        let mut f = honest;
        f.delivered = f.sent + 1;
        assert_eq!(run_counts(&f).len(), 1);
    }

    fn point(t_switch: f64, tp: u64, bcs: u64, qbc: u64) -> FigurePoint {
        FigurePoint {
            t_switch,
            tp,
            bcs,
            qbc,
        }
    }

    #[test]
    fn figure_orderings_reject_each_broken_ordering() {
        let good = [point(100.0, 1000, 50, 40), point(1000.0, 900, 200, 150)];
        assert!(figure_orderings(1, &good).is_empty());
        let tp_not_above = [point(100.0, 1000, 50, 40), point(1000.0, 150, 200, 150)];
        assert!(!figure_orderings(1, &tp_not_above).is_empty());
        let qbc_above_bcs = [point(100.0, 1000, 50, 60), point(1000.0, 900, 200, 210)];
        assert!(!figure_orderings(1, &qbc_above_bcs).is_empty());
        let small_gain = [point(100.0, 1000, 150, 140), point(1000.0, 900, 200, 150)];
        assert!(!figure_orderings(1, &small_gain).is_empty());
    }

    #[test]
    fn blocking_check_rejects_a_blocking_non_blocker_and_a_silent_blocker() {
        let rows = |kt: u64, cl: u64| {
            vec![
                ("KT".to_string(), kt),
                ("CL".to_string(), cl),
                ("UNCOORD".to_string(), 0),
            ]
        };
        assert!(only_koo_toueg_blocks(&rows(12, 0)).is_empty());
        assert_eq!(only_koo_toueg_blocks(&rows(0, 0)).len(), 1);
        assert_eq!(only_koo_toueg_blocks(&rows(12, 3)).len(), 1);
    }

    #[test]
    fn reply_checks_reject_wrong_status_disposition_body_or_work() {
        assert!(cold_reply("w", 200, Some("miss")).is_empty());
        assert!(!cold_reply("w", 200, Some("hit")).is_empty());
        assert!(!cold_reply("w", 429, None).is_empty());
        let cold = b"{\"n_tot\": 7}\n".to_vec();
        assert!(warm_reply("w", 200, Some("hit"), &cold, &cold, 0).is_empty());
        let mut altered = cold.clone();
        altered[10] = b'8';
        assert_eq!(
            warm_reply("w", 200, Some("hit"), &altered, &cold, 0).len(),
            1
        );
        assert_eq!(warm_reply("w", 200, Some("miss"), &cold, &cold, 0).len(), 1);
        assert_eq!(warm_reply("w", 200, Some("hit"), &cold, &cold, 12).len(), 1);
    }

    #[test]
    fn served_artifact_check_rejects_a_tampered_or_foreign_body() {
        let cfg = small(CicKind::Bcs);
        let report = Simulation::run_with(
            cfg.clone(),
            Instrumentation {
                metrics: true,
                ..Instrumentation::off()
            },
        );
        let body = servekit::server::artifact_bytes(&mck::artifact::run_artifact(&cfg, &report));
        let (n_tot, events) = (report.n_tot(), report.events);
        assert!(served_artifact("w", body.as_bytes(), n_tot, events).is_empty());
        let tampered = body.replacen(
            &format!("\"n_tot\": {n_tot}"),
            &format!("\"n_tot\": {}", n_tot + 1),
            1,
        );
        assert_ne!(tampered, body);
        assert!(!served_artifact("w", tampered.as_bytes(), n_tot, events).is_empty());
        assert!(!served_artifact("w", b"<html>", n_tot, events).is_empty());
        let foreign = body.replacen("mck.run/v1", "mck.nothing/v1", 1);
        assert!(!served_artifact("w", foreign.as_bytes(), n_tot, events).is_empty());
    }

    #[test]
    fn recovery_stat_checks_reject_lost_work_divergent_twins_and_extra_recoveries() {
        let crashing = |logging: LoggingMode, flush_latency: f64| SimConfig {
            n_mhs: 20,
            n_mss: 3,
            logging,
            flush_latency,
            fail_mtbf: 500.0,
            horizon: 400.0,
            ..small(CicKind::Qbc)
        };
        let pess = Simulation::run(crashing(LoggingMode::Pessimistic, 0.0))
            .recovery
            .unwrap();
        let flush0 = Simulation::run(crashing(LoggingMode::Optimistic, 0.0))
            .recovery
            .unwrap();
        assert!(pess.mh_crashes > 0, "the run must crash: {pess:?}");
        assert!(pessimistic_recovery("p", &pess).is_empty());
        assert!(zero_flush_twin("p", &pess, &flush0).is_empty());
        assert!(recoveries_follow_crashes("p", &pess).is_empty());

        let mut undone = pess;
        undone.total_undone_time = 3.5;
        assert_eq!(pessimistic_recovery("p", &undone).len(), 1);
        let mut lost = pess;
        lost.unstable_lost = 1;
        assert_eq!(pessimistic_recovery("p", &lost).len(), 1);
        let mut diverged = flush0;
        diverged.replayed_receives += 1;
        assert_eq!(zero_flush_twin("p", &pess, &diverged).len(), 1);
        let mut extra = pess;
        extra.recoveries = extra.mh_crashes + extra.mss_crashes + 1;
        assert_eq!(recoveries_follow_crashes("p", &extra).len(), 1);
    }

    #[test]
    fn recovery_lines_of_real_runs_are_consistent() {
        for (protocol, tp) in [
            (CicKind::Qbc, false),
            (CicKind::Bcs, false),
            (CicKind::Tp, true),
        ] {
            let cfg = SimConfig {
                record_trace: true,
                ..small(protocol)
            };
            let trace = Simulation::run(cfg).trace.unwrap();
            assert!(
                recovery_lines(protocol.name(), tp, &trace).is_empty(),
                "{}",
                protocol.name()
            );
        }
    }

    #[test]
    fn line_check_rejects_an_inconsistent_cut_and_a_missing_line() {
        // p0 sends m before its first checkpoint; p1 receives it, then
        // checkpoints. Keeping p1's checkpoint without p0's makes m an
        // orphan.
        let mut b = TraceBuilder::new(2);
        b.send(MsgId(1), ProcId(0), ProcId(1), 1.0);
        b.recv(MsgId(1), 2.0);
        b.checkpoint(ProcId(1), 3.0, 1, CkptKind::Forced);
        let trace = b.finish();
        assert!(consistent_line("t", &trace, ProcId(1), Some(&Cut::new(vec![0, 0]))).is_empty());
        assert_eq!(
            consistent_line("t", &trace, ProcId(1), Some(&Cut::new(vec![0, 1]))).len(),
            1
        );
        assert_eq!(consistent_line("t", &trace, ProcId(1), None).len(), 1);
    }

    fn tiny(protocol: CicKind, horizon: f64, mutate: bool) -> CheckConfig {
        CheckConfig {
            protocol,
            horizon,
            mutate,
            ..CheckConfig::default()
        }
    }

    #[test]
    fn model_check_verdicts_reject_the_wrong_world() {
        let clean_cfg = tiny(CicKind::Bcs, 3.0, false);
        let buggy_cfg = tiny(CicKind::Bcs, 3.0, true);
        let clean = mcheck::check(&clean_cfg);
        let buggy = mcheck::check(&buggy_cfg);
        assert!(clean_check("c", &clean).is_empty());
        assert!(reproduced_counterexample("b", &buggy_cfg, &buggy).is_empty());
        // A clean world where a counterexample is expected, and the reverse.
        assert_eq!(reproduced_counterexample("c", &clean_cfg, &clean).len(), 1);
        assert!(!clean_check("b", &buggy).is_empty());
        // An exploration cut short by its budget is not a proof.
        let cut_short = mcheck::check(&CheckConfig {
            max_states: 5,
            ..clean_cfg.clone()
        });
        assert_eq!(clean_check("c", &cut_short).len(), 1);
        // A counterexample whose schedule does not lead to its violation.
        let mut forged = buggy.clone();
        forged.counterexample.as_mut().unwrap().schedule.steps.pop();
        assert_eq!(reproduced_counterexample("b", &buggy_cfg, &forged).len(), 1);
    }

    #[test]
    fn same_count_rejects_a_difference() {
        assert!(same_count("x", 4, 4).is_empty());
        assert_eq!(same_count("x", 4, 5).len(), 1);
    }
}
