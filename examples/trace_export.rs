//! Trace export and offline analysis round trip.
//!
//! ```text
//! cargo run --release -p mck-suite --example trace_export
//! ```
//!
//! Runs a short QBC simulation with trace recording and an in-memory trace
//! stream, exports the causality trace to the v1 text format (the interface
//! for external analysis tools), parses it back, and shows that the
//! reconstructed trace supports the same analyses. Also prints the first
//! few records of the trace stream — the simulator's flight recorder.

use causality::cut::latest_recovery_line;
use causality::textio::{from_text, to_text};
use mck::prelude::*;
use simkit::trace::Tracer;

fn main() {
    let cfg = SimConfig {
        protocol: ProtocolChoice::Cic(CicKind::Qbc),
        t_switch: 100.0,
        p_switch: 0.8,
        horizon: 200.0,
        record_trace: true,
        seed: 21,
        ..Default::default()
    };
    let instr = Instrumentation {
        tracer: Tracer::disabled().with_memory(10_000),
        ..Instrumentation::off()
    };
    let report = Simulation::run_with(cfg, instr);
    let trace = report.trace.as_ref().expect("trace recorded");

    let text = to_text(trace);
    println!(
        "exported trace: {} checkpoints, {} messages, {} bytes of text\n",
        trace.total_checkpoints(),
        trace.messages().len(),
        text.len()
    );
    println!("first lines of the export:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }

    let back = from_text(&text).expect("the export parses back");
    let line_a = latest_recovery_line(trace);
    let line_b = latest_recovery_line(&back);
    assert_eq!(line_a.ordinals(), line_b.ordinals());
    println!(
        "\nrecovery line from original and re-imported trace agree: {:?}",
        line_a.ordinals()
    );

    println!("\ntrace-stream excerpt (the simulator's flight recorder):");
    let stream = report.trace_events.as_ref().expect("memory sink attached");
    for rec in stream.records().take(8) {
        println!(
            "  [{:>8.3}] {:<10} {}",
            rec.time.as_f64(),
            rec.event.kind(),
            rec.event.describe()
        );
    }
    println!("  ... {} records total", stream.len());
}
