//! The named workloads.
//!
//! Everything about a workload except its materials is fixed here:
//! mesh, decomposition, ranks × workers, quadrature, group count,
//! kernel, grain, scheduling path, transport and iteration counts. The
//! seed only draws the per-block material map and source strengths
//! (see [`crate::inputs`]), so every seed does the same amount of work
//! and timings are comparable across seeds.

use jsweep_core::TransportKind;
use jsweep_transport::KernelKind;

/// Mesh family and decomposition of a workload.
#[derive(Debug, Clone, Copy)]
pub enum MeshKind {
    /// `n³` unit-cube hexahedra in `patch³`-cell block patches.
    Hex {
        /// Cells per edge.
        n: usize,
        /// Patch edge in cells.
        patch: usize,
    },
    /// Kuhn-tetrahedralised cube of `n³` voxels (6n³ tets) in greedy
    /// BFS patches of about `cells_per_patch` cells.
    Tet {
        /// Voxels per edge.
        n: usize,
        /// Target patch size in cells.
        cells_per_patch: usize,
    },
}

/// Which public entry point a workload's measured operations go
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One operation = one whole `solve_parallel` call.
    Solver,
    /// One operation = one `SolverSession` request, submit → `wait()`,
    /// from `clients` closed-loop client threads (one campaign and one
    /// outstanding request each).
    Session {
        /// Concurrent closed-loop clients.
        clients: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line rationale, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Mesh and decomposition.
    pub mesh: MeshKind,
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Worker threads per rank (each rank adds one master thread).
    pub workers: usize,
    /// Sn order (S4 = 24 angles, S2 = 8).
    pub sn: u32,
    /// Energy groups.
    pub groups: usize,
    /// Cell kernel.
    pub kernel: KernelKind,
    /// Vertex clustering grain.
    pub grain: usize,
    /// Coarse-graph replay for iterations ≥ 2.
    pub coarsen: bool,
    /// Rank-to-rank fabric.
    pub transport: TransportKind,
    /// Forced source iterations per operation (`tolerance = -1`).
    pub iterations: usize,
    /// Entry point of the measured operations.
    pub mode: Mode,
}

impl Spec {
    /// Runtime threads while an operation runs: masters + workers,
    /// plus the session driver and its clients.
    pub fn runtime_threads(&self) -> usize {
        let runtime = self.ranks * (1 + self.workers);
        match self.mode {
            Mode::Solver => runtime,
            Mode::Session { clients } => runtime + 1 + clients,
        }
    }
}

/// The four workloads, full size or shrunk for `--smoke`.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        Spec {
            name: "hex24_g1_replay",
            why: "structured S4 G=1 replay over 2 thread ranks: the kernel is a minor share of wall, so core routing, graph replay and cross-rank hops decide the time",
            mesh: MeshKind::Hex { n: pick(24, 8), patch: pick(6, 4) },
            ranks: 2,
            workers: 1,
            sn: 4,
            groups: 1,
            kernel: KernelKind::Step,
            grain: 64,
            coarsen: true,
            transport: TransportKind::Thread,
            iterations: pick(12, 3),
            mode: Mode::Solver,
        },
        Spec {
            name: "hex16_g32_dd_solo",
            why: "1 rank x 1 worker, so one master hands work to one worker and comm sends nothing; G=32 diamond difference: kernel and memory traffic dominate; a runtime or comm gain predicts no change",
            mesh: MeshKind::Hex { n: pick(16, 8), patch: pick(8, 4) },
            ranks: 1,
            workers: 1,
            sn: 4,
            groups: 32,
            kernel: KernelKind::DiamondDifference,
            grain: 256,
            coarsen: true,
            transport: TransportKind::Thread,
            iterations: pick(8, 3),
            mode: Mode::Solver,
        },
        Spec {
            name: "tet10_g8_fine_socket",
            why: "unstructured tets, replay off, socket wire: graph runs the per-vertex path every iteration and comm frames cross a real socket; a replay-only or thread-channel gain predicts no change",
            mesh: MeshKind::Tet { n: pick(10, 4), cells_per_patch: pick(500, 100) },
            ranks: 2,
            workers: 1,
            sn: 4,
            groups: 8,
            kernel: KernelKind::Step,
            grain: 64,
            coarsen: false,
            transport: TransportKind::Socket,
            iterations: pick(8, 3),
            mode: Mode::Solver,
        },
        Spec {
            name: "session_hex12_mix",
            why: "SolverSession, 2 closed-loop campaigns of 4-iteration requests on 12^3 S2: epochs are a few ms, so fence, hop latency, admission and program reset dominate and the kernel does almost nothing",
            mesh: MeshKind::Hex { n: pick(12, 8), patch: 4 },
            ranks: 2,
            workers: 1,
            sn: 2,
            groups: 1,
            kernel: KernelKind::Step,
            grain: 16,
            coarsen: true,
            transport: TransportKind::Thread,
            iterations: 4,
            mode: Mode::Session { clients: 2 },
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str, smoke: bool) -> Option<Spec> {
    specs(smoke).into_iter().find(|s| s.name == name)
}
