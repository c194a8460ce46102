//! KBA (Koch–Baker–Alcouffe) wavefront sweep for structured meshes.
//!
//! KBA decomposes the 3-D mesh in a 2-D columnar fashion: ranks form a
//! `Px × Py` grid, each owning a full-z column split into z-chunks.
//! A sweep of one octant starts at a corner rank and pipelines across
//! the rank grid plane by plane; successive angles of the octant (and
//! then successive octants) flow through the same pipeline back to
//! back.
//!
//! Rather than re-deriving the classic analytic pipeline formula, we
//! *schedule* KBA through the same discrete-event machinery as JSweep:
//! the columnar decomposition with z-chunk patches and angle-major
//! LDCP priorities reproduces the KBA schedule exactly (each (chunk,
//! angle) block computes when its x/y/z predecessors are done), so the
//! efficiency we report contains the true fill/drain bubbles.

use jsweep_des::{simulate, DesResult, MachineModel, ProblemOptions, SimOptions, SweepProblem};
use jsweep_graph::PriorityStrategy;
use jsweep_mesh::{partition, PatchSet, StructuredMesh};
use jsweep_quadrature::QuadratureSet;

/// KBA layout: a `px × py` rank grid over an `nx × ny × nz` mesh with
/// `chunk_z` planes per pipeline stage.
#[derive(Debug, Clone)]
pub struct KbaLayout {
    /// Rank-grid extent along x.
    pub px: usize,
    /// Rank-grid extent along y.
    pub py: usize,
    /// Mesh planes per pipeline stage along the sweep axis z.
    pub chunk_z: usize,
}

impl KbaLayout {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.px * self.py
    }
}

/// Build the KBA decomposition of a structured mesh: block patches of
/// `(nx/px, ny/py, chunk_z)` cells, all patches of a column on the
/// same rank.
pub fn kba_patches(mesh: &StructuredMesh, layout: &KbaLayout) -> PatchSet {
    let (nx, ny, nz) = mesh.dims();
    assert!(
        nx % layout.px == 0 && ny % layout.py == 0,
        "KBA needs an even split"
    );
    let bx = nx / layout.px;
    let by = ny / layout.py;
    let bz = layout.chunk_z.min(nz);
    let (mut ps, coords) = partition::structured_blocks(mesh, (bx, by, bz));
    // Column (i, j) -> rank j*px + i.
    let rank_of: Vec<u32> = coords
        .iter()
        .map(|&(i, j, _k)| (j as usize * layout.px + i as usize) as u32)
        .collect();
    ps.distribute(rank_of, layout.ranks());
    ps
}

/// Simulate one KBA sweep iteration.
///
/// `workers_per_rank` models the threaded variant (classic KBA uses
/// one core per rank: pass 1).
pub fn simulate_kba(
    mesh: &StructuredMesh,
    quadrature: &QuadratureSet,
    layout: &KbaLayout,
    machine_template: &MachineModel,
) -> DesResult {
    let ps = kba_patches(mesh, layout);
    let prob = SweepProblem::build(
        mesh,
        ps,
        quadrature,
        &ProblemOptions {
            vertex_strategy: PriorityStrategy::Ldcp,
            patch_strategy: PriorityStrategy::Ldcp,
            share_octant_dags: true,
            check_cycles: false,
        },
    );
    let mut machine = machine_template.clone();
    machine.ranks = layout.ranks();
    // KBA computes a whole block per message round: the clustering
    // grain is the block size.
    let (nx, ny, _) = mesh.dims();
    let block = (nx / layout.px) * (ny / layout.py) * layout.chunk_z;
    simulate(
        &prob,
        &machine,
        &SimOptions {
            grain: block.max(1),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kba_patches_form_columns() {
        let m = StructuredMesh::unit(8, 8, 8);
        let layout = KbaLayout {
            px: 2,
            py: 2,
            chunk_z: 2,
        };
        let ps = kba_patches(&m, &layout);
        assert_eq!(ps.num_ranks(), 4);
        // 2x2 columns x 4 z-chunks = 16 patches, 4 per rank.
        assert_eq!(ps.num_patches(), 16);
        for r in 0..4 {
            assert_eq!(ps.patches_on_rank(r).len(), 4, "rank {r}");
        }
    }

    #[test]
    fn kba_completes_sweep() {
        let m = StructuredMesh::unit(8, 8, 8);
        let q = QuadratureSet::sn(2);
        let layout = KbaLayout {
            px: 2,
            py: 2,
            chunk_z: 2,
        };
        let r = simulate_kba(&m, &q, &layout, &MachineModel::cluster(4, 1));
        assert_eq!(r.vertices, (512 * 8) as u64);
        assert!(r.time > 0.0);
    }

    #[test]
    fn kba_scales_with_rank_grid() {
        // Strong scaling 1x1 -> 4x4 must speed the sweep up.
        let m = StructuredMesh::unit(16, 16, 16);
        let q = QuadratureSet::sn(2);
        let small = simulate_kba(
            &m,
            &q,
            &KbaLayout {
                px: 1,
                py: 1,
                chunk_z: 4,
            },
            &MachineModel::cluster(1, 1),
        );
        let large = simulate_kba(
            &m,
            &q,
            &KbaLayout {
                px: 4,
                py: 4,
                chunk_z: 4,
            },
            &MachineModel::cluster(1, 1),
        );
        assert!(
            large.time < small.time,
            "16 ranks ({}) not faster than 1 ({})",
            large.time,
            small.time
        );
    }

    #[test]
    #[should_panic(expected = "even split")]
    fn uneven_split_rejected() {
        let m = StructuredMesh::unit(7, 8, 8);
        kba_patches(
            &m,
            &KbaLayout {
                px: 2,
                py: 2,
                chunk_z: 2,
            },
        );
    }
}
