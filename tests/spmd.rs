//! True multi-process SPMD solve over the UNIX-socket transport.
//!
//! The parent test re-executes this test binary four times (one child
//! process per rank, selected with `--exact spmd_worker_entry`); each
//! child rendezvouses through [`SocketUniverse::connect`], runs
//! [`solve_parallel_spmd`] on its rank, and writes its converged scalar
//! flux to disk. The parent then compares every child's flux
//! byte-for-byte against an in-process thread-backend
//! [`solve_parallel`] run — the cross-transport, cross-process
//! determinism pin of `docs/transport.md`. It does so on the fine path
//! and with coarse replay, where every process compiles the same plan.

use jsweep::comm::socket::SocketUniverse;
use jsweep::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const ENV_RANK: &str = "JSWEEP_SPMD_RANK";
const ENV_DIR: &str = "JSWEEP_SPMD_DIR";
const ENV_N: &str = "JSWEEP_SPMD_N";
const ENV_COARSEN: &str = "JSWEEP_SPMD_COARSEN";
const RANKS: usize = 4;

/// The shared problem: 16³ cells, 4×4×4 patches over 4 ranks, S2.
/// Parent and children must build byte-identical worlds from this.
fn build_world() -> (Arc<StructuredMesh>, Arc<SweepProblem>, QuadratureSet) {
    let mesh = Arc::new(StructuredMesh::unit(16, 16, 16));
    let quad = QuadratureSet::sn(2);
    let patches = decompose_structured(&mesh, (4, 4, 4), RANKS);
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    (mesh, problem, quad)
}

fn spmd_materials() -> Arc<MaterialSet> {
    Arc::new(MaterialSet::homogeneous(
        16 * 16 * 16,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ))
}

/// Fixed-iteration config so parent and children make identical
/// convergence decisions.
fn spmd_config(coarsen: bool) -> SnConfig {
    SnConfig {
        grain: 16,
        max_iterations: 3,
        tolerance: 1e-14,
        workers_per_rank: 2,
        coarsen,
        ..Default::default()
    }
}

fn phi_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("phi-{rank}.bin"))
}

/// Child-process entry point: a no-op under a normal `cargo test` run,
/// a full SPMD rank when launched by the parent with the rendezvous
/// environment set.
#[test]
fn spmd_worker_entry() {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: usize = rank.parse().expect("rank env");
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("rendezvous dir env"));
    let n: usize = std::env::var(ENV_N)
        .expect("world size env")
        .parse()
        .unwrap();
    let coarsen = std::env::var(ENV_COARSEN).expect("coarsen env") == "1";

    let comm = SocketUniverse::connect(&dir, rank, n, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: rendezvous failed: {e}"));
    let (mesh, problem, quad) = build_world();
    let config = spmd_config(coarsen);
    let solution = solve_parallel_spmd(mesh, problem, &quad, spmd_materials(), &config, comm);

    let mut bytes = Vec::with_capacity(solution.phi.len() * 8);
    for v in &solution.phi {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(phi_path(&dir, rank), bytes).expect("write flux");
}

/// Four ranks as four OS processes over UNIX sockets must produce a
/// scalar flux bit-identical to the single-process thread-backend
/// solve, with coarse replay off and on.
#[test]
fn four_process_socket_solve_matches_thread_backend() {
    for coarsen in [false, true] {
        four_process_solve(coarsen);
    }
}

fn four_process_solve(coarsen: bool) {
    // In-process golden over the default thread fabric.
    let (mesh, problem, quad) = build_world();
    let config = spmd_config(coarsen);
    let golden = solve_parallel(mesh, problem, &quad, spmd_materials(), &config);
    assert_eq!(golden.iterations, 3);

    let dir = std::env::temp_dir().join(format!(
        "jsweep-spmd-{}-{}",
        std::process::id(),
        u8::from(coarsen)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = (0..RANKS)
        .map(|rank| {
            std::process::Command::new(&exe)
                .arg("--exact")
                .arg("spmd_worker_entry")
                .env(ENV_RANK, rank.to_string())
                .env(ENV_DIR, &dir)
                .env(ENV_N, RANKS.to_string())
                .env(ENV_COARSEN, if coarsen { "1" } else { "0" })
                .spawn()
                .expect("spawn rank process")
        })
        .collect();
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("join rank process");
        assert!(
            status.success(),
            "rank {rank} process failed (coarsen {coarsen}): {status}"
        );
    }

    // Every rank converged on the same global flux, and it matches the
    // thread-backend golden byte for byte.
    let mut golden_bytes = Vec::with_capacity(golden.phi.len() * 8);
    for v in &golden.phi {
        golden_bytes.extend_from_slice(&v.to_le_bytes());
    }
    for rank in 0..RANKS {
        let got = std::fs::read(phi_path(&dir, rank)).expect("rank flux written");
        assert_eq!(
            got, golden_bytes,
            "rank {rank}: socket-process flux diverges from thread-backend golden (coarsen {coarsen})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
