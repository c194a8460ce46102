//! Workload inputs: the fixed problem shape and the seeded materials.
//!
//! The program under test receives only what is built here — a mesh,
//! a compiled [`SweepProblem`], a quadrature set, an [`SnConfig`] and a
//! [`MaterialSet`]; it never sees the seed or the workload name.

use crate::spans::Recorder;
use crate::spec::{MeshKind, Spec};
use jsweep_graph::{ProblemOptions, SweepProblem};
use jsweep_mesh::stats::{partition_stats, PartitionStats};
use jsweep_mesh::{partition, tetgen, StructuredMesh, SweepTopology, TetMesh};
use jsweep_quadrature::QuadratureSet;
use jsweep_transport::{Material, MaterialSet, SnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Material blocks per cube edge: the seed draws one of
/// [`MATERIAL_KINDS`] materials for each of `BLOCKS³` blocks.
const BLOCKS: usize = 4;
/// Distinct materials a seed draws.
const MATERIAL_KINDS: usize = 4;

/// A mesh family the harness can build: the two concrete types behind
/// [`MeshKind`].
pub trait BenchMesh: SweepTopology + Send + Sync + Sized + 'static {
    /// Build the mesh of `kind` (panics on the other family's kind).
    fn build(kind: MeshKind) -> Self;
    /// Decompose into patches over `ranks` ranks.
    fn decompose(&self, kind: MeshKind, ranks: usize) -> jsweep_mesh::PatchSet;
    /// Whether every angle of an octant shares one DAG.
    const SHARE_OCTANT_DAGS: bool;
}

impl BenchMesh for StructuredMesh {
    fn build(kind: MeshKind) -> Self {
        match kind {
            MeshKind::Hex { n, .. } => StructuredMesh::unit(n, n, n),
            MeshKind::Tet { .. } => unreachable!("tet kind on a structured mesh"),
        }
    }
    fn decompose(&self, kind: MeshKind, ranks: usize) -> jsweep_mesh::PatchSet {
        match kind {
            MeshKind::Hex { patch, .. } => {
                partition::decompose_structured(self, (patch, patch, patch), ranks)
            }
            MeshKind::Tet { .. } => unreachable!("tet kind on a structured mesh"),
        }
    }
    const SHARE_OCTANT_DAGS: bool = true;
}

impl BenchMesh for TetMesh {
    fn build(kind: MeshKind) -> Self {
        match kind {
            MeshKind::Tet { n, .. } => tetgen::cube(n, 1.0),
            MeshKind::Hex { .. } => unreachable!("hex kind on a tet mesh"),
        }
    }
    fn decompose(&self, kind: MeshKind, ranks: usize) -> jsweep_mesh::PatchSet {
        match kind {
            MeshKind::Tet {
                cells_per_patch, ..
            } => partition::decompose_unstructured(self, cells_per_patch, ranks),
            MeshKind::Hex { .. } => unreachable!("hex kind on a tet mesh"),
        }
    }
    const SHARE_OCTANT_DAGS: bool = false;
}

/// Wall seconds of the three set-up stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    /// Mesh construction.
    pub mesh_build: f64,
    /// Patch decomposition + rank distribution.
    pub partition: f64,
    /// `SweepProblem::build` (subgraphs, priorities, fingerprint).
    pub problem_build: f64,
}

impl StageSeconds {
    /// Sum of the stages.
    pub fn total(&self) -> f64 {
        self.mesh_build + self.partition + self.problem_build
    }
}

/// The built problem shape of a workload.
pub struct Case<T: BenchMesh> {
    /// The workload this case was built for.
    pub spec: Spec,
    /// The mesh.
    pub mesh: Arc<T>,
    /// Compiled sweep problem.
    pub problem: Arc<SweepProblem>,
    /// Quadrature set.
    pub quad: QuadratureSet,
    /// Solver configuration (`tolerance = -1`: every iteration runs).
    pub config: SnConfig,
    /// Decomposition quality.
    pub partition: PartitionStats,
    /// Stage timings of this build.
    pub stages: StageSeconds,
}

impl<T: BenchMesh> Case<T> {
    /// Build the problem shape of `spec`, one span and one timing per
    /// stage.
    pub fn build(spec: &Spec, rec: &mut Recorder) -> Case<T> {
        let (mesh, mesh_build) = rec.scope("mesh.build", "mesh", |_| {
            let t0 = Instant::now();
            let mesh = Arc::new(T::build(spec.mesh));
            (mesh, t0.elapsed().as_secs_f64())
        });
        let (patches, partition_s) = rec.scope("mesh.partition", "mesh", |_| {
            let t0 = Instant::now();
            let patches = mesh.decompose(spec.mesh, spec.ranks);
            (patches, t0.elapsed().as_secs_f64())
        });
        let partition = partition_stats(&patches, mesh.as_ref());

        let quad = QuadratureSet::sn(spec.sn);
        let (problem, problem_build) = rec.scope("SweepProblem::build", "graph", |_| {
            let t0 = Instant::now();
            let problem = Arc::new(SweepProblem::build(
                mesh.as_ref(),
                patches,
                &quad,
                &ProblemOptions {
                    share_octant_dags: T::SHARE_OCTANT_DAGS,
                    ..Default::default()
                },
            ));
            (problem, t0.elapsed().as_secs_f64())
        });

        let config = SnConfig {
            grain: spec.grain,
            max_iterations: spec.iterations,
            tolerance: -1.0,
            kernel: spec.kernel,
            workers_per_rank: spec.workers,
            coarsen: spec.coarsen,
            transport: spec.transport,
            ..Default::default()
        };
        Case {
            spec: spec.clone(),
            mesh,
            problem,
            quad,
            config,
            partition,
            stages: StageSeconds {
                mesh_build,
                partition: partition_s,
                problem_build,
            },
        }
    }

    /// Cell·angle·group updates of one source iteration.
    pub fn updates_per_iteration(&self) -> f64 {
        (self.mesh.num_cells() * self.quad.len() * self.spec.groups) as f64
    }

    /// The seeded materials of `campaign` (solver workloads use
    /// campaign 0): [`MATERIAL_KINDS`] materials with per-group total
    /// cross section in `[0.5, 2)`, scattering ratio in `[0.1, 0.8)`
    /// and source in `[0.1, 2)`, assigned block-wise over a `BLOCKS³`
    /// grid of the unit cube.
    pub fn materials(&self, seed: u64, campaign: u64) -> Arc<MaterialSet> {
        let mut rng = StdRng::seed_from_u64(seed ^ campaign.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let groups = self.spec.groups;
        let kinds: Vec<Material> = (0..MATERIAL_KINDS)
            .map(|_| {
                let sigma_t: Vec<f64> = (0..groups).map(|_| rng.gen_range(0.5..2.0)).collect();
                let sigma_s = sigma_t
                    .iter()
                    .map(|t| t * rng.gen_range(0.1..0.8))
                    .collect();
                let source = (0..groups).map(|_| rng.gen_range(0.1..2.0)).collect();
                Material {
                    sigma_t,
                    sigma_s,
                    source,
                }
            })
            .collect();
        let block_kind: Vec<u16> = (0..BLOCKS * BLOCKS * BLOCKS)
            .map(|_| rng.gen_range(0..MATERIAL_KINDS) as u16)
            .collect();
        let axis = |x: f64| ((x * BLOCKS as f64) as usize).min(BLOCKS - 1);
        let cell_material = (0..self.mesh.num_cells())
            .map(|c| {
                let [x, y, z] = self.mesh.cell_centroid(c);
                block_kind[(axis(z) * BLOCKS + axis(y)) * BLOCKS + axis(x)]
            })
            .collect();
        Arc::new(MaterialSet::new(kinds, cell_material))
    }
}
