//! Problem setup for the simulator: mesh + decomposition + quadrature
//! compiled into per-(patch, angle) subgraphs and priorities, plus the
//! mesh's geometry classes.

use crate::priority::{patch_priorities, vertex_priorities, TwoLevelPriority};
use crate::subgraph::PatchLinks;
use crate::{cycles, PriorityStrategy, Subgraph};
use jsweep_mesh::{GeomClasses, PatchSet, SweepTopology};
use jsweep_quadrature::QuadratureSet;
use std::collections::HashSet;
use std::sync::Arc;

/// Construction options for [`SweepProblem::build`].
#[derive(Debug, Clone)]
pub struct ProblemOptions {
    /// Vertex-level priority strategy (the second name in the paper's
    /// "X+Y" notation, e.g. the second SLBD of "SLBD+SLBD").
    pub vertex_strategy: PriorityStrategy,
    /// Patch-level priority strategy (the first name).
    pub patch_strategy: PriorityStrategy,
    /// On axis-aligned structured meshes every angle of an octant
    /// induces the same DAG; sharing cuts memory 8/num_angles-fold.
    /// Must be `false` for unstructured or deformed meshes —
    /// [`SweepProblem::build`] asserts every face normal is
    /// axis-aligned when this is set.
    pub share_octant_dags: bool,
    /// Run the cycle detector per direction and break cyclic
    /// dependencies (needed for deformed meshes; Kuhn tet meshes and
    /// structured meshes are cycle-free).
    pub check_cycles: bool,
}

impl Default for ProblemOptions {
    fn default() -> Self {
        ProblemOptions {
            vertex_strategy: PriorityStrategy::Slbd,
            patch_strategy: PriorityStrategy::Slbd,
            share_octant_dags: false,
            check_cycles: false,
        }
    }
}

/// A fully compiled sweep problem: everything the simulator (and the
/// baselines) need, with octant-level sharing of immutable data.
pub struct SweepProblem {
    /// The decomposition (cells → patches → ranks).
    pub patches: PatchSet,
    /// Number of sweep angles.
    pub num_angles: usize,
    /// `subs[angle][patch]`: induced subgraphs (Arc-shared per octant
    /// when enabled).
    pub subs: Vec<Arc<Vec<Subgraph>>>,
    /// `vprio[angle][patch]`: vertex priorities (shared like `subs`).
    pub vprio: Vec<Arc<Vec<Arc<Vec<i64>>>>>,
    /// `pprio[angle][patch]`: two-level program priorities.
    pub pprio: Vec<Vec<i64>>,
    /// `broken[angle]`: cycle-breaker edge set `(src_cell, dst_cell)`
    /// (empty unless [`ProblemOptions::check_cycles`] found cycles).
    pub broken: Vec<Arc<HashSet<(u32, u32)>>>,
    /// Total `(cell, angle)` vertices.
    pub total_vertices: u64,
    /// `canon[angle]`: the canonical angle whose subgraphs this angle
    /// shares (`canon[a] == a` when the angle owns its own DAG). With
    /// [`ProblemOptions::share_octant_dags`] this is the first angle of
    /// each octant; replay plans record and compile one trace per
    /// canonical angle and share it with every member.
    pub canon: Vec<usize>,
    /// Generation stamp of the mesh this problem was compiled from
    /// (see [`jsweep_mesh::SweepTopology::generation`]). Plan caches
    /// key compiled scheduling state on it: a refined or rebuilt mesh
    /// carries a fresh stamp, so its plans can never collide with ours.
    pub mesh_generation: u64,
    /// FNV-1a digest of the compiled scheduling structure: the
    /// decomposition (patch cell lists + rank map), every canonical
    /// angle's subgraph edges, the octant-sharing layout and the
    /// cycle-breaker sets. Computed once here (a single pass over data
    /// `build` just produced) so plan-cache keys are O(1) per solve.
    /// Priorities and physics are deliberately excluded — they do not
    /// affect replay validity.
    pub dag_fingerprint: u64,
    /// The mesh's geometry classes: a transport kernel compiles its
    /// per-(cell, angle) geometry once per class and angle from these.
    pub geom_classes: GeomClasses,
}

impl SweepProblem {
    /// Compile a problem from a mesh, a distributed patch set and a
    /// quadrature set.
    pub fn build<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: PatchSet,
        quadrature: &QuadratureSet,
        opts: &ProblemOptions,
    ) -> SweepProblem {
        let num_angles = quadrature.len();
        let num_patches = patches.num_patches();
        if opts.share_octant_dags {
            assert_axis_aligned(mesh);
        }
        let mut subs: Vec<Arc<Vec<Subgraph>>> = Vec::with_capacity(num_angles);
        let mut vprio: Vec<Arc<Vec<Arc<Vec<i64>>>>> = Vec::with_capacity(num_angles);
        let mut patch_prio_per_angle: Vec<Vec<i64>> = Vec::with_capacity(num_angles);
        let mut broken_per_angle: Vec<Arc<HashSet<(u32, u32)>>> = Vec::with_capacity(num_angles);

        // The direction-independent face adjacency, walked off the mesh
        // once; every canonical angle below only orients it.
        let links: Vec<PatchLinks> = patches
            .patches()
            .map(|p| PatchLinks::new(mesh, &patches, p))
            .collect();
        let geom_classes = GeomClasses::new(mesh);

        // Octant sharing: remember the first angle of each octant.
        let mut octant_cache: [Option<usize>; 8] = [None; 8];
        let mut canon: Vec<usize> = Vec::with_capacity(num_angles);

        for (a, ord) in quadrature.iter() {
            let share_from = if opts.share_octant_dags {
                octant_cache[ord.octant().index()]
            } else {
                None
            };
            match share_from {
                Some(src) => {
                    subs.push(subs[src].clone());
                    vprio.push(vprio[src].clone());
                    patch_prio_per_angle.push(patch_prio_per_angle[src].clone());
                    broken_per_angle.push(broken_per_angle[src].clone());
                    canon.push(src);
                }
                None => {
                    let broken = if opts.check_cycles {
                        cycles::broken_edges_for_direction(mesh, ord.dir)
                    } else {
                        HashSet::new()
                    };
                    let angle_subs = Subgraph::orient_all(&links, mesh, a, ord.dir, &broken);
                    let prios: Vec<Arc<Vec<i64>>> = angle_subs
                        .iter()
                        .map(|s| Arc::new(vertex_priorities(s, opts.vertex_strategy)))
                        .collect();
                    let pp = patch_priorities(&angle_subs, &patches, opts.patch_strategy);
                    subs.push(Arc::new(angle_subs));
                    vprio.push(Arc::new(prios));
                    patch_prio_per_angle.push(pp);
                    broken_per_angle.push(Arc::new(broken));
                    canon.push(a.index());
                    if opts.share_octant_dags {
                        octant_cache[ord.octant().index()] = Some(a.index());
                    }
                }
            }
        }

        // Two-level composition: prior(p,a) = prior(a)*C + prior(p).
        let c = TwoLevelPriority::DEFAULT_C;
        let pprio: Vec<Vec<i64>> = patch_prio_per_angle
            .iter()
            .enumerate()
            .map(|(a, pp)| {
                let prior_a = -(a as i64);
                pp.iter().map(|&p| prior_a * c + p).collect()
            })
            .collect();

        let total_vertices = (mesh.num_cells() * num_angles) as u64;
        let _ = num_patches;
        let dag_fingerprint =
            dag_fingerprint(&patches, num_angles, &canon, &subs, &broken_per_angle);
        SweepProblem {
            patches,
            num_angles,
            subs,
            vprio,
            pprio,
            broken: broken_per_angle,
            total_vertices,
            canon,
            mesh_generation: mesh.generation(),
            dag_fingerprint,
            geom_classes,
        }
    }

    /// The canonical angle whose DAG (and replay trace) angle `a`
    /// shares; `a` itself when the angle owns its DAG.
    #[inline]
    pub fn canonical_angle(&self, a: usize) -> usize {
        self.canon[a]
    }

    /// Angles that own their DAG (one per octant under
    /// [`ProblemOptions::share_octant_dags`], every angle otherwise).
    pub fn canonical_angles(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_angles).filter(move |&a| self.canon[a] == a)
    }

    /// Number of patches.
    pub fn num_patches(&self) -> usize {
        self.patches.num_patches()
    }

    /// Task id of `(patch, angle)`.
    #[inline]
    pub fn tid(&self, patch: usize, angle: usize) -> usize {
        angle * self.num_patches() + patch
    }

    /// Inverse of [`SweepProblem::tid`].
    #[inline]
    pub fn patch_angle(&self, tid: usize) -> (usize, usize) {
        (tid % self.num_patches(), tid / self.num_patches())
    }

    /// Total `(patch, angle)` tasks.
    pub fn num_tasks(&self) -> usize {
        self.num_patches() * self.num_angles
    }
}

/// FNV-1a accumulation step.
#[inline]
fn fnv(h: &mut u64, x: u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in x.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(PRIME);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest the compiled scheduling structure (see
/// [`SweepProblem::dag_fingerprint`]). One pass over the subgraphs of
/// every canonical angle, run once at build time.
fn dag_fingerprint(
    patches: &PatchSet,
    num_angles: usize,
    canon: &[usize],
    subs: &[Arc<Vec<Subgraph>>],
    broken: &[Arc<HashSet<(u32, u32)>>],
) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, num_angles as u64);
    fnv(&mut h, patches.num_patches() as u64);
    fnv(&mut h, patches.num_ranks() as u64);
    for &c in canon {
        fnv(&mut h, c as u64);
    }
    for p in patches.patches() {
        fnv(&mut h, patches.rank_of(p) as u64);
    }
    for a in (0..num_angles).filter(|&a| canon[a] == a) {
        for sub in subs[a].iter() {
            fnv(&mut h, sub.num_vertices() as u64);
            for &cell in &sub.cells {
                fnv(&mut h, cell as u64);
            }
            for &d in &sub.int_dst {
                fnv(&mut h, d as u64);
            }
            for &o in &sub.int_off {
                fnv(&mut h, o as u64);
            }
            for re in &sub.rem_dst {
                fnv(&mut h, ((re.patch.0 as u64) << 32) | re.cell as u64);
            }
            for &o in &sub.rem_off {
                fnv(&mut h, o as u64);
            }
        }
        // Order-independent digest: HashSet iteration order is not
        // deterministic, so XOR per-element hashes.
        let mut broken_digest = 0u64;
        for &(s, d) in broken[a].iter() {
            let mut eh = FNV_OFFSET;
            fnv(&mut eh, ((s as u64) << 32) | d as u64);
            broken_digest ^= eh;
        }
        fnv(&mut h, broken_digest);
    }
    h
}

/// Enforce the [`ProblemOptions::share_octant_dags`] precondition:
/// every face normal must be axis-aligned, which is exactly what makes
/// all directions of one octant induce the same DAG (the flow sign
/// through `±e_axis` depends only on the direction component's sign).
/// Deformed or unstructured meshes fail here instead of silently
/// sharing subgraphs whose edges disagree with the member angle's
/// geometry — downstream, octant-canonical replay traces rely on the
/// shared DAG being exact, not approximate.
fn assert_axis_aligned<T: SweepTopology + ?Sized>(mesh: &T) {
    for c in 0..mesh.num_cells() {
        for f in 0..mesh.num_faces(c) {
            let n = mesh.face(c, f).normal;
            let aligned = n
                .iter()
                .all(|&x| x.abs() < 1e-12 || (x.abs() - 1.0).abs() < 1e-12);
            assert!(
                aligned,
                "share_octant_dags requires an axis-aligned mesh, but cell {c} face {f} \
                 has normal {n:?}; build with share_octant_dags: false"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::{partition, StructuredMesh};

    #[test]
    fn build_structured_with_octant_sharing() {
        let m = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&m, (3, 3, 3), 2);
        let q = QuadratureSet::sn(4); // 24 angles, 3 per octant
        let opts = ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        };
        let prob = SweepProblem::build(&m, ps, &q, &opts);
        assert_eq!(prob.num_angles, 24);
        assert_eq!(prob.total_vertices, 216 * 24);
        // Angles of the same octant share the same subgraph allocation.
        let groups: std::collections::HashSet<*const Vec<Subgraph>> =
            prob.subs.iter().map(Arc::as_ptr).collect();
        assert_eq!(groups.len(), 8, "one DAG per octant");
    }

    #[test]
    fn build_unstructured_without_sharing() {
        let m = jsweep_mesh::tetgen::ball(3, 1.0);
        let ps = partition::decompose_unstructured(&m, 50, 2);
        let q = QuadratureSet::sn(2);
        let prob = SweepProblem::build(&m, ps, &q, &ProblemOptions::default());
        let groups: std::collections::HashSet<*const Vec<Subgraph>> =
            prob.subs.iter().map(Arc::as_ptr).collect();
        assert_eq!(groups.len(), 8, "no sharing requested");
    }

    #[test]
    fn canonical_angles_follow_octant_sharing() {
        let m = StructuredMesh::unit(4, 4, 4);
        let q = QuadratureSet::sn(4); // 24 angles, 3 per octant
        let shared = SweepProblem::build(
            &m,
            partition::decompose_structured(&m, (2, 2, 2), 2),
            &q,
            &ProblemOptions {
                share_octant_dags: true,
                ..Default::default()
            },
        );
        assert_eq!(shared.canonical_angles().count(), 8);
        for a in 0..shared.num_angles {
            let c = shared.canonical_angle(a);
            assert!(c <= a, "canonical angle must come first");
            // Sharing is by allocation identity, so canon must agree
            // with the Arc pointers.
            assert!(Arc::ptr_eq(&shared.subs[a], &shared.subs[c]));
        }
        assert_eq!(shared.mesh_generation, m.generation());

        let owned = SweepProblem::build(
            &m,
            partition::decompose_structured(&m, (2, 2, 2), 2),
            &q,
            &ProblemOptions::default(),
        );
        assert_eq!(owned.canonical_angles().count(), owned.num_angles);
    }

    #[test]
    fn tid_roundtrip() {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = QuadratureSet::sn(2);
        let prob = SweepProblem::build(&m, ps, &q, &ProblemOptions::default());
        for t in 0..prob.num_tasks() {
            let (p, a) = prob.patch_angle(t);
            assert_eq!(prob.tid(p, a), t);
        }
    }

    #[test]
    fn broken_sets_are_shared_per_octant() {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = QuadratureSet::sn(4);
        let prob = SweepProblem::build(
            &m,
            ps,
            &q,
            &ProblemOptions {
                share_octant_dags: true,
                check_cycles: true,
                ..Default::default()
            },
        );
        // Structured meshes never produce cycles.
        assert!(prob.broken.iter().all(|b| b.is_empty()));
        // Shared allocations per octant.
        let uniq: std::collections::HashSet<*const HashSet<(u32, u32)>> =
            prob.broken.iter().map(Arc::as_ptr).collect();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    #[should_panic(expected = "share_octant_dags requires an axis-aligned mesh")]
    fn octant_sharing_rejects_non_axis_aligned_meshes() {
        use jsweep_mesh::deformed::DeformedMesh;
        let m = DeformedMesh::jittered(3, 3, 3, 0.3, 7);
        let ps = partition::rcb(&m, 2);
        let q = QuadratureSet::sn(2);
        let _ = SweepProblem::build(
            &m,
            ps,
            &q,
            &ProblemOptions {
                share_octant_dags: true,
                ..Default::default()
            },
        );
    }

    #[test]
    fn deformed_mesh_problem_builds_with_cycle_checking() {
        use jsweep_mesh::deformed::DeformedMesh;
        let m = DeformedMesh::jittered(4, 4, 4, 0.3, 5);
        let ps = partition::rcb(&m, 4);
        let q = QuadratureSet::sn(2);
        let prob = SweepProblem::build(
            &m,
            ps,
            &q,
            &ProblemOptions {
                check_cycles: true,
                ..Default::default()
            },
        );
        assert_eq!(prob.broken.len(), 8);
        // Every angle's subgraphs stay acyclic after breaking.
        for subs in &prob.subs {
            for sub in subs.iter() {
                assert!(crate::dag::is_acyclic(&sub.internal_csr()));
            }
        }
    }

    #[test]
    fn program_priorities_are_angle_major() {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = QuadratureSet::sn(2);
        let prob = SweepProblem::build(&m, ps, &q, &ProblemOptions::default());
        for p in 0..prob.num_patches() {
            for p2 in 0..prob.num_patches() {
                assert!(prob.pprio[0][p] > prob.pprio[1][p2]);
            }
        }
    }
}
