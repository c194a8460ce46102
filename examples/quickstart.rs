//! Quickstart: sweep a small structured mesh with the JSweep runtime.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 16³ mesh, decomposes it into 4³-cell patches over two
//! simulated MPI ranks, solves a one-group fixed-source transport
//! problem with S2 ordinates, and prints the flux profile along the
//! cube diagonal plus the runtime's time breakdown — including the
//! §V-E effect: every iteration replays the coarsened task graph
//! compiled before the first, and against a solve on the fine DAG the
//! graph-op (scheduling) share of worker time shrinks accordingly.

use jsweep::prelude::*;
use jsweep_core::stats::Category;
use std::sync::Arc;

fn main() {
    let n = 16;
    let ranks = 2;
    let mesh = Arc::new(StructuredMesh::unit(n, n, n));
    let patches = decompose_structured(&mesh, (4, 4, 4), ranks);
    println!(
        "mesh: {n}³ cells, {} patches over {ranks} ranks",
        patches.num_patches()
    );

    let quad = QuadratureSet::sn(2);
    let materials = Arc::new(MaterialSet::homogeneous(
        mesh.num_cells(),
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));

    let config = SnConfig {
        max_iterations: 20,
        tolerance: 1e-8,
        grain: 64,
        workers_per_rank: 2,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let solution = solve_parallel(
        mesh.clone(),
        problem.clone(),
        &quad,
        materials.clone(),
        &config,
    );
    println!(
        "converged in {} source iterations (residual {:.2e}) in {:.2}s",
        solution.iterations,
        solution.residual,
        t0.elapsed().as_secs_f64()
    );

    println!("\nscalar flux along the main diagonal:");
    for i in 0..n {
        let c = mesh.cell_id(i, i, i);
        println!("  cell ({i:2},{i:2},{i:2})  phi = {:.6}", solution.phi[c]);
    }

    if let Some(stats) = solution.stats.last() {
        let w = stats.workers_merged();
        println!("\nlast-iteration worker time breakdown (all ranks):");
        for cat in [
            Category::Kernel,
            Category::GraphOp,
            Category::Input,
            Category::Output,
            Category::Idle,
        ] {
            println!("  {:>9}: {:.4}s", cat.name(), w.get(cat));
        }
        println!(
            "  streams: {} local, {} cross-rank ({} bytes)",
            stats.streams_local, stats.streams_sent, stats.bytes_sent
        );
    }

    // §V-E coarse-graph replay: the plan is compiled before iteration
    // 1 and every iteration replays it. Against the same solve on the
    // fine DAG the graph-op (scheduling) category shrinks; the flux is
    // identical bit for bit.
    let fine_config = SnConfig {
        coarsen: false,
        ..config
    };
    let fine = solve_parallel(mesh, problem, &quad, materials, &fine_config);
    assert_eq!(fine.phi, solution.phi, "replay must not change the flux");
    let (fine_last, replay_last) = (fine.stats.last(), solution.stats.last());
    if let (Some(fine_last), Some(replay_last)) = (fine_last, replay_last) {
        println!("\ncoarse-graph replay (§V-E):");
        println!(
            "  plan build: {:.4}s (one-off, before iteration 1)",
            solution.coarse_build_seconds
        );
        println!(
            "  last iteration, fine DAG:      graph-op {:.4}s, {} compute calls",
            fine_last.category_seconds(Category::GraphOp),
            fine_last.compute_calls
        );
        println!(
            "  last iteration, coarse replay: graph-op {:.4}s, {} compute calls",
            replay_last.category_seconds(Category::GraphOp),
            replay_last.compute_calls
        );
    }
}
