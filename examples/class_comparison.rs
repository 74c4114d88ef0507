//! Protocol-class comparison: uncoordinated vs. coordinated vs.
//! communication-induced (the paper's Section 2 discussion, quantified).
//!
//! ```text
//! cargo run --release -p mck-suite --example class_comparison
//! ```
//!
//! Runs the same mobile workload under all seven protocols and contrasts the
//! costs the paper argues about: checkpoints, dedicated control messages,
//! location searches (each marker must find a mobile host!) and piggybacked
//! bytes. Chandy–Lamport round-completion latency shows how disconnections
//! stall global-checkpoint collection.

use mck::experiments::ext_classes;
use mck::prelude::*;
use mck::table::Table;

fn main() {
    println!("Class comparison at T_switch=1000, P_switch=0.8 (coordination every 100 t.u.)\n");
    let rows = ext_classes(11, 3);
    let mut table = Table::new(vec![
        "protocol",
        "N_tot",
        "control msgs",
        "searches",
        "piggyback B",
    ]);
    for row in &rows {
        table.push_row(vec![
            row.protocol.clone(),
            format!("{:.0}", row.n_tot),
            format!("{:.0}", row.control_msgs),
            format!("{:.0}", row.searches),
            format!("{:.0}", row.piggyback_bytes),
        ]);
    }
    println!("{}", table.render());

    // Show the CL round latency under disconnections.
    let cfg = SimConfig {
        protocol: ProtocolChoice::ChandyLamport { interval: 200.0 },
        t_switch: 1000.0,
        p_switch: 0.8,
        seed: 5,
        ..Default::default()
    };
    let r = Simulation::run(cfg);
    if !r.coord_round_latencies.is_empty() {
        let n = r.coord_round_latencies.len();
        let mean: f64 = r.coord_round_latencies.iter().sum::<f64>() / n as f64;
        let max = r.coord_round_latencies.iter().cloned().fold(0.0, f64::max);
        println!("Chandy-Lamport rounds completed: {n}, mean latency {mean:.2} t.u., worst {max:.2}");
        println!("(a marker aimed at a disconnected host waits out the whole");
        println!("disconnection - the paper's global-checkpoint-latency issue)");
    }
}
