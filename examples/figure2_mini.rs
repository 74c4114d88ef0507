//! Miniature reproduction of the paper's Figure 2, with a terminal plot.
//!
//! ```text
//! cargo run --release -p mck-suite --example figure2_mini
//! ```
//!
//! Figure 2 is the disconnecting homogeneous environment
//! (`P_switch = 0.8`, `H = 0 %`): `N_tot` against `T_switch` for TP, BCS
//! and QBC. This example runs a reduced sweep (fewer seeds than the full
//! harness) and renders both the table and the log-log chart the paper
//! shows. For the full-scale version use
//! `cargo run --release -p mck-cli -- fig 2 --plot`.

use mck::experiments::{figure, run_figure};

fn main() {
    let mut spec = figure(2);
    // Trim the sweep so the example finishes in seconds.
    spec.t_switch_values = vec![100.0, 500.0, 2000.0, 10_000.0];
    println!("{} (reduced sweep, 3 seeds/point)\n", spec.caption());

    let result = run_figure(&spec, 1, 3);
    println!("{}", result.table().render());
    println!("{}", result.plot());

    let tp_gain = result.max_gain("BCS", "TP");
    let qbc_gain = result.max_gain("QBC", "BCS");
    println!("max gain of BCS over TP:  {:.0}%", tp_gain * 100.0);
    println!("max gain of QBC over BCS: {:.0}%  (the paper quotes up to ~15%)", qbc_gain * 100.0);
}
