//! Shared experiment setups: meshes, decompositions, machine models.

use jsweep_des::{MachineModel, ProblemOptions, SweepProblem};
use jsweep_graph::PriorityStrategy;
use jsweep_mesh::{partition, StructuredMesh, TetMesh};
use jsweep_quadrature::QuadratureSet;

/// Tianhe-II-style machine: 1 master + 11 workers per 12-core process.
pub fn tianhe(ranks: usize) -> MachineModel {
    MachineModel::cluster(ranks, 11)
}

/// Simulated cores of a Tianhe-style allocation.
pub fn cores(ranks: usize) -> usize {
    ranks * 12
}

/// Priority pair in the paper's "patch+vertex" notation.
#[derive(Debug, Clone, Copy)]
pub struct Strategies {
    /// Patch-level priority strategy (the first name in "X+Y").
    pub patch: PriorityStrategy,
    /// Vertex-level priority strategy (the second name).
    pub vertex: PriorityStrategy,
}

impl Strategies {
    /// The paper's "patch+vertex" display name, e.g. `SLBD+SLBD`.
    pub fn name(&self) -> String {
        format!("{}+{}", self.patch.name(), self.vertex.name())
    }

    /// The paper's default pair: SLBD at both levels.
    pub const SLBD2: Strategies = Strategies {
        patch: PriorityStrategy::Slbd,
        vertex: PriorityStrategy::Slbd,
    };
}

/// Compile a structured problem: `n³` cells, `patch³` block patches,
/// Hilbert rank distribution.
pub fn structured_problem(
    n: usize,
    patch: usize,
    ranks: usize,
    quad: &QuadratureSet,
    strat: Strategies,
) -> SweepProblem {
    let mesh = StructuredMesh::unit(n, n, n);
    let ps = partition::decompose_structured(&mesh, (patch, patch, patch), ranks);
    SweepProblem::build(
        &mesh,
        ps,
        quad,
        &ProblemOptions {
            vertex_strategy: strat.vertex,
            patch_strategy: strat.patch,
            share_octant_dags: true,
            check_cycles: false,
        },
    )
}

/// Compile an unstructured problem from a tet mesh.
pub fn unstructured_problem(
    mesh: &TetMesh,
    cells_per_patch: usize,
    ranks: usize,
    quad: &QuadratureSet,
    strat: Strategies,
) -> SweepProblem {
    let ps = partition::decompose_unstructured(mesh, cells_per_patch, ranks);
    SweepProblem::build(
        mesh,
        ps,
        quad,
        &ProblemOptions {
            vertex_strategy: strat.vertex,
            patch_strategy: strat.patch,
            share_octant_dags: false,
            check_cycles: false,
        },
    )
}

/// The shared fine-vs-coarse replay scenario (§V-E) used by both the
/// `coarse_replay` bench and the `cg_replay` figures experiment:
/// `n³` cells in `patch³` block patches over `ranks` ranks, S2, one
/// group with scattering, grain fine enough that per-vertex scheduling
/// is a visible share of iteration time. Keeping it in one place keeps
/// the committed bench baseline and the figures table in lockstep.
pub struct ReplayScenario {
    /// The mesh.
    pub mesh: std::sync::Arc<StructuredMesh>,
    /// Compiled problem (octant-shared DAGs).
    pub problem: std::sync::Arc<jsweep_graph::SweepProblem>,
    /// One-group scattering material everywhere.
    pub materials: std::sync::Arc<jsweep_transport::MaterialSet>,
    /// S2 ordinates.
    pub quad: QuadratureSet,
    /// Solver config template (`tolerance` is negative so every
    /// iteration runs in both variants; set `coarsen` per run).
    pub config: jsweep_transport::SnConfig,
}

/// Build the replay scenario. `iterations` is the exact sweep count
/// each variant performs (all fine, or all replayed).
pub fn replay_scenario(
    n: usize,
    patch: usize,
    ranks: usize,
    iterations: usize,
    grain: usize,
) -> ReplayScenario {
    use jsweep_mesh::SweepTopology;
    let mesh = std::sync::Arc::new(StructuredMesh::unit(n, n, n));
    let ps = partition::decompose_structured(&mesh, (patch, patch, patch), ranks);
    let quad = QuadratureSet::sn(2);
    let materials = std::sync::Arc::new(jsweep_transport::MaterialSet::homogeneous(
        mesh.num_cells(),
        jsweep_transport::Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let problem = std::sync::Arc::new(jsweep_graph::SweepProblem::build(
        mesh.as_ref(),
        ps,
        &quad,
        &jsweep_graph::ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    let config = jsweep_transport::SnConfig {
        max_iterations: iterations,
        tolerance: -1.0,
        grain,
        workers_per_rank: 2,
        ..Default::default()
    };
    ReplayScenario {
        mesh,
        problem,
        materials,
        quad,
        config,
    }
}

/// Mean of `f` over the steady iterations (every iteration after the
/// first, which also pays its programs' first arming and buffer
/// allocation) — the single definition of the per-iteration
/// metric the `coarse_replay` bench baseline and the `cg_replay`
/// figures table both report.
pub fn replay_tail_mean(
    stats: &[jsweep_core::RunStats],
    f: impl Fn(&jsweep_core::RunStats) -> f64,
) -> f64 {
    let tail = &stats[1..];
    tail.iter().map(&f).sum::<f64>() / tail.len() as f64
}

impl ReplayScenario {
    /// Solve with the given coarsening mode.
    pub fn solve(&self, coarsen: bool) -> jsweep_transport::SnSolution {
        let mut config = self.config.clone();
        config.coarsen = coarsen;
        jsweep_transport::solve_parallel(
            self.mesh.clone(),
            self.problem.clone(),
            &self.quad,
            self.materials.clone(),
            &config,
        )
    }

    /// Solve with coarsening through a cross-solve [`jsweep_transport::PlanCache`]:
    /// the first call compiles the plan, every later call replays the
    /// cached one. Used by the `plan_cache` multi-solve bench.
    pub fn solve_cached(
        &self,
        cache: &jsweep_transport::PlanCache,
    ) -> jsweep_transport::SnSolution {
        jsweep_transport::solve_parallel_cached(
            self.mesh.clone(),
            self.problem.clone(),
            &self.quad,
            self.materials.clone(),
            &self.config,
            cache,
        )
    }

    /// The cache key of this scenario's plan (for memory reporting).
    pub fn plan_key(&self) -> jsweep_transport::PlanKey {
        jsweep_transport::plan_key(&self.problem, self.config.grain)
    }
}

/// Machine for a `groups`-group JSNT-U-style run (groups only affect
/// message volume in the simulator).
pub fn machine_with_groups(ranks: usize, groups: usize) -> MachineModel {
    let mut m = tianhe(ranks);
    m.bytes_per_item = 8.0 * groups as f64 + 8.0;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tianhe_core_count() {
        assert_eq!(cores(8), 96);
        assert_eq!(tianhe(8).cores(), 96);
    }

    #[test]
    fn strategies_name() {
        assert_eq!(Strategies::SLBD2.name(), "SLBD+SLBD");
    }

    #[test]
    fn structured_setup_builds() {
        let q = QuadratureSet::sn(2);
        let p = structured_problem(8, 4, 2, &q, Strategies::SLBD2);
        assert_eq!(p.num_patches(), 8);
        assert_eq!(p.patches.num_ranks(), 2);
    }
}
