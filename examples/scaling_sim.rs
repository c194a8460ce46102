//! Virtual strong-scaling study with the discrete-event simulator.
//!
//! ```text
//! cargo run --release --example scaling_sim [n] [max_ranks]
//! ```
//!
//! Compiles a structured sweep problem once per rank count and
//! simulates one S4 sweep iteration on a Tianhe-II-class machine model
//! from 1 rank up to `max_ranks`, printing the virtual time, speedup,
//! parallel efficiency and time breakdown — a miniature Fig. 12.

use jsweep::prelude::*;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|s| s.parse().unwrap()).unwrap_or(32);
    let max_ranks: usize = args.next().map(|s| s.parse().unwrap()).unwrap_or(32);

    let mesh = Arc::new(StructuredMesh::unit(n, n, n));
    let quad = QuadratureSet::sn(4);
    println!(
        "{n}³ cells × {} angles = {} sweep vertices per iteration\n",
        quad.len(),
        n * n * n * quad.len()
    );
    println!(
        "{:>6} {:>6} {:>12} {:>9} {:>8}  {:>7} {:>7} {:>7}",
        "ranks", "cores", "virt_time_s", "speedup", "par_eff", "kern%", "ovhd%", "idle%"
    );

    let mut base: Option<f64> = None;
    let mut ranks = 1;
    while ranks <= max_ranks {
        let patches = decompose_structured(&mesh, (8, 8, 8), ranks);
        let problem = SweepProblem::build(
            mesh.as_ref(),
            patches,
            &quad,
            &ProblemOptions {
                share_octant_dags: true,
                ..Default::default()
            },
        );
        let machine = MachineModel::cluster(ranks, 11);
        let result = simulate(&problem, &machine, &SimOptions { grain: 256 });
        let t0 = *base.get_or_insert(result.time);
        let speedup = t0 / result.time;
        let eff = speedup / ranks as f64;
        let total = result.breakdown.total();
        println!(
            "{:>6} {:>6} {:>12.5} {:>9.2} {:>7.1}%  {:>6.1}% {:>6.1}% {:>6.1}%",
            ranks,
            machine.cores(),
            result.time,
            speedup,
            100.0 * eff,
            100.0 * result.breakdown.kernel / total,
            100.0
                * (result.breakdown.graph_op
                    + result.breakdown.pack_unpack
                    + result.breakdown.comm)
                / total,
            100.0 * result.breakdown.idle / total,
        );
        ranks *= 2;
    }
}
