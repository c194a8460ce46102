//! Priority strategies (paper §V-D).
//!
//! JSweep prioritises at two levels:
//!
//! * **(patch, angle) priority** steers which patch-program a worker
//!   runs next: `prior(p, a) = prior(a)·C + prior(p)` with `C` large, so
//!   programs of the same angle are scheduled consecutively and their
//!   streams flow to nearby patches quickly.
//! * **Vertex priority** orders the ready queue inside one
//!   patch-program (the `PriorityQueue Q` of Listing 1).
//!
//! Three strategies are provided at both levels:
//!
//! * `BFS` — breadth-first level from the sweep sources (favours wide
//!   fronts → more parallelism);
//! * `LDCP` — longest distance on the critical path (classic
//!   critical-path-first scheduling; the paper recommends it for
//!   structured meshes);
//! * `SLBD` — shortest local boundary distance: prefer vertices (or
//!   patches) closest to data that other patches (or ranks) are waiting
//!   on, so streams are emitted as early as possible. The paper finds
//!   SLBD+SLBD consistently best.
//!
//! Higher priority value = scheduled earlier.

use crate::dag::{bfs_levels, distance_to_targets, height_to_sinks, Csr};
use crate::subgraph::Subgraph;
use jsweep_mesh::{PatchId, PatchSet};
use jsweep_quadrature::AngleId;

/// A priority heuristic, applicable at the vertex or patch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityStrategy {
    /// Breadth-first level from sweep sources.
    Bfs,
    /// Longest distance on critical path.
    Ldcp,
    /// Shortest local boundary distance.
    Slbd,
}

impl PriorityStrategy {
    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PriorityStrategy::Bfs => "BFS",
            PriorityStrategy::Ldcp => "LDCP",
            PriorityStrategy::Slbd => "SLBD",
        }
    }
}

/// Saturating conversion of a (possibly unreachable) distance.
fn finite(d: u32) -> i64 {
    if d == u32::MAX {
        1 << 30
    } else {
        d as i64
    }
}

/// Per-vertex priorities for one subgraph under the given strategy.
///
/// Priorities are computed once per `(patch, angle)` and reused across
/// sweep iterations (the DAG is constant while the mesh is).
pub fn vertex_priorities(sub: &Subgraph, strategy: PriorityStrategy) -> Vec<i64> {
    let csr = sub.internal_csr();
    match strategy {
        PriorityStrategy::Bfs => {
            let sources: Vec<u32> = sub
                .internal_in_degrees()
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d == 0)
                .map(|(v, _)| v as u32)
                .collect();
            bfs_levels(&csr, &sources)
                .into_iter()
                .map(|l| -finite(l))
                .collect()
        }
        PriorityStrategy::Ldcp => height_to_sinks(&csr)
            .into_iter()
            .map(|h| h as i64)
            .collect(),
        PriorityStrategy::Slbd => {
            let exits = sub.exit_vertices();
            if exits.is_empty() {
                // Terminal patch of the sweep: no stream ever leaves it;
                // fall back to critical-path order.
                return height_to_sinks(&csr)
                    .into_iter()
                    .map(|h| h as i64)
                    .collect();
            }
            distance_to_targets(&csr, &exits)
                .into_iter()
                .map(|d| -finite(d))
                .collect()
        }
    }
}

/// The patch-level dependency graph of one angle: an edge `p → q` when
/// any vertex of `G_{p,t}` has a remote downwind edge into patch `q`.
pub fn patch_graph(subs: &[Subgraph], num_patches: usize) -> Csr {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for sub in subs {
        let mut targets: Vec<u32> = sub.rem_dst.iter().map(|re| re.patch.0).collect();
        targets.sort_unstable();
        targets.dedup();
        for q in targets {
            edges.push((sub.patch.0, q));
        }
    }
    Csr::from_edges(num_patches, &edges)
}

/// Per-patch priorities for one angle under the given strategy.
///
/// The patch graph of a single angle may itself contain 2-cycles
/// (patch A feeds B *and* B feeds A — the interleaved dependency of
/// Fig. 4), so BFS/SLBD use plain breadth-first distances and LDCP
/// falls back to BFS depth on cyclic patch graphs.
pub fn patch_priorities(
    subs: &[Subgraph],
    patches: &PatchSet,
    strategy: PriorityStrategy,
) -> Vec<i64> {
    let n = patches.num_patches();
    let g = patch_graph(subs, n);
    match strategy {
        PriorityStrategy::Bfs => {
            let deg = g.in_degrees();
            let sources: Vec<u32> = (0..n as u32).filter(|&p| deg[p as usize] == 0).collect();
            bfs_levels(&g, &sources)
                .into_iter()
                .map(|l| -finite(l))
                .collect()
        }
        PriorityStrategy::Ldcp => {
            if crate::dag::is_acyclic(&g) {
                height_to_sinks(&g).into_iter().map(|h| h as i64).collect()
            } else {
                // Cyclic patch graph: approximate the critical path by
                // reverse BFS depth from the sink patches.
                let sinks: Vec<u32> = (0..n as u32).filter(|&p| g.succ(p).is_empty()).collect();
                distance_to_targets(&g, &sinks)
                    .into_iter()
                    .map(|d| {
                        let d = finite(d);
                        if d >= 1 << 30 {
                            0
                        } else {
                            d
                        }
                    })
                    .collect()
            }
        }
        PriorityStrategy::Slbd => {
            // Patches adjacent (downwind) to a patch on another rank.
            let targets: Vec<u32> = (0..n as u32)
                .filter(|&p| {
                    g.succ(p)
                        .iter()
                        .any(|&q| patches.rank_of(PatchId(q)) != patches.rank_of(PatchId(p)))
                })
                .collect();
            if targets.is_empty() {
                return vec![0; n];
            }
            distance_to_targets(&g, &targets)
                .into_iter()
                .map(|d| -finite(d))
                .collect()
        }
    }
}

/// The two-level `prior(p, a) = prior(a)·C + prior(p)` composition.
///
/// `prior(a)` decreases with the angle id so that all patch-programs of
/// angle 0 outrank those of angle 1 and so on — the paper's requirement
/// that "patch-programs with the same angle are continuously scheduled".
#[derive(Debug, Clone)]
pub struct TwoLevelPriority {
    /// `priors[angle][patch]` patch-level priorities.
    priors: Vec<Vec<i64>>,
    /// The constant factor `C`.
    c: i64,
}

impl TwoLevelPriority {
    /// The paper's constant factor `C`; any value larger than the spread
    /// of patch priorities works. Patch priorities are BFS/LDCP/SLBD
    /// values bounded by `±2^30`, so `2^32` keeps angles strictly
    /// dominant.
    pub const DEFAULT_C: i64 = 1 << 32;

    /// Compute patch priorities for every angle.
    ///
    /// `subs_by_angle[a]` holds the subgraphs of every patch for angle
    /// `a` (as produced by [`Subgraph::build_all`]).
    pub fn compute(
        subs_by_angle: &[Vec<Subgraph>],
        patches: &PatchSet,
        strategy: PriorityStrategy,
    ) -> TwoLevelPriority {
        let priors = subs_by_angle
            .iter()
            .map(|subs| patch_priorities(subs, patches, strategy))
            .collect();
        TwoLevelPriority {
            priors,
            c: Self::DEFAULT_C,
        }
    }

    /// Uniform (all-zero patch term) priority — scheduling degenerates
    /// to angle-major order. Useful as an ablation baseline.
    pub fn uniform(num_angles: usize, num_patches: usize) -> TwoLevelPriority {
        TwoLevelPriority {
            priors: vec![vec![0; num_patches]; num_angles],
            c: Self::DEFAULT_C,
        }
    }

    /// Scheduling priority of patch-program `(p, a)`.
    #[inline]
    pub fn program_priority(&self, p: PatchId, a: AngleId) -> i64 {
        let prior_a = -(a.0 as i64);
        prior_a * self.c + self.priors[a.index()][p.index()]
    }

    /// Number of angles covered.
    pub fn num_angles(&self) -> usize {
        self.priors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::{partition, StructuredMesh, SweepTopology};
    use std::collections::HashSet;

    fn subgraphs() -> (StructuredMesh, PatchSet, Vec<Subgraph>) {
        let m = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&m, (3, 3, 3), 2);
        let subs = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new());
        (m, ps, subs)
    }

    #[test]
    fn bfs_sources_have_top_priority() {
        let (_, _, subs) = subgraphs();
        let sub = &subs[0];
        let prio = vertex_priorities(sub, PriorityStrategy::Bfs);
        let deg = sub.internal_in_degrees();
        let max = *prio.iter().max().unwrap();
        for (v, &d) in deg.iter().enumerate() {
            if d == 0 {
                assert_eq!(prio[v], max, "source vertex {v} not at max priority");
            }
        }
    }

    #[test]
    fn ldcp_decreases_along_edges() {
        let (_, _, subs) = subgraphs();
        for sub in &subs {
            let prio = vertex_priorities(sub, PriorityStrategy::Ldcp);
            for v in 0..sub.num_vertices() as u32 {
                for &d in sub.internal_succ(v) {
                    assert!(
                        prio[v as usize] > prio[d as usize],
                        "LDCP must strictly decrease along internal edges"
                    );
                }
            }
        }
    }

    #[test]
    fn slbd_peaks_at_exit_vertices() {
        let (_, _, subs) = subgraphs();
        for sub in &subs {
            let exits = sub.exit_vertices();
            if exits.is_empty() {
                continue;
            }
            let prio = vertex_priorities(sub, PriorityStrategy::Slbd);
            let max = *prio.iter().max().unwrap();
            for &e in &exits {
                assert_eq!(prio[e as usize], max);
            }
        }
    }

    #[test]
    fn slbd_without_exits_falls_back_to_ldcp() {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = PatchSet::single(m.num_cells());
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new())
            .swap_remove(0);
        assert_eq!(
            vertex_priorities(&sub, PriorityStrategy::Slbd),
            vertex_priorities(&sub, PriorityStrategy::Ldcp)
        );
    }

    #[test]
    fn patch_graph_follows_sweep_direction() {
        let (_, ps, subs) = subgraphs();
        let g = patch_graph(&subs, ps.num_patches());
        // For the (1,1,1) direction on a 2x2x2 patch lattice, patch
        // (0,0,0) feeds three neighbours and the far corner feeds none.
        assert!(g.num_edges() > 0);
        assert!(crate::dag::is_acyclic(&g));
    }

    #[test]
    fn two_level_priority_orders_angles_first() {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = jsweep_quadrature::QuadratureSet::sn(2);
        let subs_by_angle: Vec<Vec<Subgraph>> = q
            .iter()
            .map(|(a, o)| Subgraph::build_all(&m, &ps, a, o.dir, &HashSet::new()))
            .collect();
        let tl = TwoLevelPriority::compute(&subs_by_angle, &ps, PriorityStrategy::Slbd);
        for p in ps.patches() {
            for q_ in ps.patches() {
                assert!(
                    tl.program_priority(p, AngleId(0)) > tl.program_priority(q_, AngleId(1)),
                    "angle 0 must outrank angle 1 for all patches"
                );
            }
        }
    }

    #[test]
    fn uniform_priority_is_angle_major_only() {
        let tl = TwoLevelPriority::uniform(3, 5);
        assert_eq!(
            tl.program_priority(PatchId(0), AngleId(1)),
            tl.program_priority(PatchId(4), AngleId(1))
        );
        assert!(
            tl.program_priority(PatchId(0), AngleId(0))
                > tl.program_priority(PatchId(0), AngleId(2))
        );
    }

    #[test]
    fn patch_priorities_all_strategies_cover_all_patches() {
        let (_, ps, subs) = subgraphs();
        for s in [
            PriorityStrategy::Bfs,
            PriorityStrategy::Ldcp,
            PriorityStrategy::Slbd,
        ] {
            let prio = patch_priorities(&subs, &ps, s);
            assert_eq!(prio.len(), ps.num_patches());
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(PriorityStrategy::Bfs.name(), "BFS");
        assert_eq!(PriorityStrategy::Ldcp.name(), "LDCP");
        assert_eq!(PriorityStrategy::Slbd.name(), "SLBD");
    }
}
