//! End-to-end cost of regenerating each paper figure's data points.
//!
//! One benchmark per figure (1–6) runs a reduced version of the figure's
//! sweep — two `T_switch` points, one seed, all three protocols — so
//! `cargo bench` exercises the exact code path behind every figure. The
//! full-scale series are produced by `mck fig`.

use mck::experiments::{figure, run_figure, FigureSpec};
use mck_bench::{black_box, Bench};

fn reduced(spec: &FigureSpec) -> FigureSpec {
    let mut s = spec.clone();
    s.t_switch_values = vec![100.0, 1000.0];
    s
}

fn bench_figures(b: &mut Bench) {
    for id in 1..=6usize {
        let spec = reduced(&figure(id));
        b.bench(&format!("figure/{id}"), move || {
            black_box(run_figure(&spec, 1, 1))
        });
    }
}

/// Single full-horizon run per protocol at the paper's base point — the
/// unit of work every figure point multiplies.
fn bench_single_runs(b: &mut Bench) {
    use mck::prelude::*;
    for kind in CicKind::PAPER {
        b.bench(&format!("single_run/{}", kind.name()), move || {
            let cfg = SimConfig {
                protocol: ProtocolChoice::Cic(kind),
                t_switch: 1000.0,
                p_switch: 0.8,
                horizon: 10_000.0,
                ..Default::default()
            };
            black_box(Simulation::run(cfg))
        });
    }
}

fn main() {
    let mut b = Bench::from_args("figures");
    bench_figures(&mut b);
    bench_single_runs(&mut b);
    b.finish();
}
