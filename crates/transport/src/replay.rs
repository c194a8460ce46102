//! The compiled coarse-graph replay plan and its lifecycle (paper
//! §V-E). See `docs/replay.md` for the end-to-end story.
//!
//! Before a solve's first epoch,
//! [`jsweep_graph::coarse::simulate_clusters`] runs the sweep scheduler
//! single-threaded and deterministically and returns, per
//! `(patch, angle)` task, the vertex clusters its `compute()` calls form
//! ([`ClusterTrace`]). Because the mesh — and hence every sweep DAG — is
//! constant across source iterations, those clusters can be compiled
//! into a **coarsened task graph** and replayed verbatim by every
//! iteration: each coarse vertex executes its vertex list in order, and
//! each outgoing coarse edge becomes exactly one stream, so no iteration
//! pays per-vertex in-degree bookkeeping or priority recomputation.
//!
//! The plan has a real lifecycle, not just a per-solve existence:
//!
//! * **Simulate** — one [`ClusterTrace`] per *canonical* angle (under
//!   `share_octant_dags` all member angles of an octant share one DAG,
//!   so one trace per octant is simulated and replayed for every
//!   member, cutting plan memory and build time `num_angles/8`-fold).
//!   The traces depend only on the problem and the grain, so every
//!   process of an SPMD solve compiles the same plan;
//! * **Compile** — [`build_plan`] runs
//!   [`jsweep_graph::coarse::build_coarse`] per canonical angle (the
//!   Theorem-1 acyclicity check), whose coarse-edge items `P(ce)` are
//!   indices into the source subgraph's remote CSR — staging position
//!   and destination slot in one number — and pre-packs every coarse
//!   edge's stream prefix from them. A solve whose replay keeps
//!   in-cluster edges in the worker's scratch (`crate::program`: `G ≥
//!   GROUP_BLOCK`) also compiles every task's slot layout here
//!   ([`CoarsePlan::compile_replay_layouts`]);
//! * **Cache** — a [`PlanCache`] keyed by [`PlanKey`] (mesh generation
//!   stamp + a structural fingerprint of the compiled problem + grain)
//!   carries plans across `solve_parallel_cached` calls, so multi-solve
//!   workloads compile once;
//! * **Invalidate** — every mesh carries a process-unique
//!   [`generation stamp`](jsweep_mesh::SweepTopology::generation)
//!   bumped by refinement (any topology-producing operation draws a
//!   fresh stamp). The stamp is part of the cache key *and* stored in
//!   the plan, so a stale plan is rebuilt, never replayed — and
//!   [`PlanCache::retain_generations`], which a refinement loop calls
//!   after each refinement, drops it once it is unreachable.

use crate::program::put_prefix;
use bytes::Bytes;
use jsweep_graph::coarse::{build_coarse, ClusterTrace, CoarseRemoteEdge, CoarsenedTask};
use jsweep_graph::SweepProblem;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The replayable form of one `(patch, angle)` task: the coarsened
/// task graph plus the pre-packed prefix of every stream it emits.
/// Under octant sharing all member angles of an octant hold the same
/// `Arc`.
#[derive(Debug, Clone)]
pub struct ReplayTask {
    /// The coarsened task (clusters, coarse in-degrees, internal and
    /// remote coarse edges) driving
    /// [`jsweep_graph::coarse::CoarseSweepState`]. Finishing coarse
    /// vertex `cv` emits one stream per edge of `coarse.remote[cv]`.
    pub coarse: CoarsenedTask,
    /// `skeletons[cv][j]`: the constant prefix of the stream along
    /// `coarse.remote[cv][j]` — destination cluster, item count and
    /// destination slots (`crate::program`'s payload format) — packed
    /// once here, so replay-side packing is one `memcpy` of it followed
    /// by the flux writes. The flux block is groups-dependent
    /// (physics), so the prefix stops before it: one plan stays valid
    /// for any group count.
    pub skeletons: Vec<Vec<Bytes>>,
}

impl ReplayTask {
    /// Estimated heap footprint of this task's plan data.
    fn memory_bytes(&self) -> usize {
        let skeletons: usize = self
            .skeletons
            .iter()
            .map(|per_cv| {
                per_cv.len() * std::mem::size_of::<Bytes>()
                    + per_cv.iter().map(Bytes::len).sum::<usize>()
            })
            .sum();
        self.coarse.memory_bytes()
            + self.skeletons.len() * std::mem::size_of::<Vec<Bytes>>()
            + skeletons
    }
}

/// The full coarse-graph replay plan of a sweep problem, built once
/// before a solve's first iteration and shared by all its iterations —
/// and, through a [`PlanCache`], by all later solves of the same
/// problem shape.
#[derive(Debug)]
pub struct CoarsePlan {
    /// `tasks[angle][patch]`; octant members share `Arc`s with their
    /// canonical angle.
    pub tasks: Vec<Vec<Arc<ReplayTask>>>,
    /// Generation stamp of the mesh the plan was compiled for (see
    /// [`jsweep_mesh::SweepTopology::generation`]). A plan whose stamp
    /// differs from the problem's mesh is stale and must be rebuilt,
    /// never replayed.
    pub mesh_generation: u64,
}

impl CoarsePlan {
    /// Total coarse vertices across all tasks (octant-shared tasks are
    /// counted once per member angle — this is the scheduling workload,
    /// not the memory footprint).
    pub fn num_coarse_vertices(&self) -> usize {
        self.tasks
            .iter()
            .flat_map(|per_patch| per_patch.iter())
            .map(|t| t.coarse.num_clusters())
            .sum()
    }

    /// Number of distinct compiled [`ReplayTask`] allocations — with
    /// octant sharing, `num_patches * num_octants` instead of
    /// `num_patches * num_angles`.
    pub fn num_distinct_tasks(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for per_patch in &self.tasks {
            for t in per_patch {
                seen.insert(Arc::as_ptr(t));
            }
        }
        seen.len()
    }

    /// Compile every task's replay slot layout
    /// ([`CoarsenedTask::replay_layout`]) that is not compiled yet.
    pub fn compile_replay_layouts(&self, problem: &SweepProblem) {
        for a in problem.canonical_angles() {
            for (task, sub) in self.tasks[a].iter().zip(problem.subs[a].iter()) {
                task.coarse.replay_layout(sub);
            }
        }
    }

    /// Estimated heap footprint of the plan, compiled slot layouts
    /// included. Shared (octant-canonical) tasks are counted once, so
    /// this is what caching the plan actually costs.
    pub fn memory_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = std::mem::size_of::<CoarsePlan>();
        for per_patch in &self.tasks {
            total += per_patch.len() * std::mem::size_of::<Arc<ReplayTask>>();
            for t in per_patch {
                if seen.insert(Arc::as_ptr(t)) {
                    total += std::mem::size_of::<ReplayTask>() + t.memory_bytes();
                }
            }
        }
        total
    }
}

/// Compile the coarse-graph replay plan from the traces of one
/// execution (`traces[angle][patch]`, as
/// [`jsweep_graph::coarse::simulate_clusters`] returns them; only
/// canonical-angle entries are read — octant members replay their
/// canonical angle's trace, which is valid because they share the same
/// DAG).
///
/// Runs the Theorem-1 topological check once per canonical angle (via
/// [`build_coarse`], which panics on a cyclic coarse graph — a
/// scheduler bug) and pre-packs each coarse edge's stream prefix from
/// the subgraph's compiled routes.
pub fn build_plan(problem: &SweepProblem, traces: &[Vec<ClusterTrace>]) -> CoarsePlan {
    assert_eq!(traces.len(), problem.num_angles);
    let mut tasks: Vec<Vec<Arc<ReplayTask>>> = Vec::with_capacity(problem.num_angles);
    for (a, angle_traces) in traces.iter().enumerate() {
        let c = problem.canonical_angle(a);
        if c < a {
            // Octant member: share the canonical angle's compiled tasks.
            let shared = tasks[c].clone();
            tasks.push(shared);
            continue;
        }
        let subs = &problem.subs[a];
        let per_patch: Vec<Arc<ReplayTask>> = build_coarse(subs, angle_traces)
            .into_iter()
            .zip(subs.iter())
            .map(|(coarse, sub)| {
                let skeleton = |e: &CoarseRemoteEdge| {
                    let mut buf = Vec::with_capacity(8 + 4 * e.items.len());
                    put_prefix(&mut buf, e.cluster, sub, &e.items);
                    Bytes::from(buf)
                };
                let skeletons = coarse
                    .remote
                    .iter()
                    .map(|edges| edges.iter().map(skeleton).collect())
                    .collect();
                Arc::new(ReplayTask { coarse, skeletons })
            })
            .collect();
        tasks.push(per_patch);
    }
    CoarsePlan {
        tasks,
        mesh_generation: problem.mesh_generation,
    }
}

/// Identity of a compiled plan: everything replay validity depends on.
///
/// * `mesh_generation` — the topology stamp (process-unique; refinement
///   always yields a fresh one, so stale plans can never be looked up);
/// * `fingerprint` — the problem's
///   [`dag_fingerprint`](SweepProblem::dag_fingerprint): an FNV-1a
///   digest of the compiled structure (decomposition,
///   per-canonical-angle subgraph edges, octant-sharing layout,
///   cycle-breaker sets), computed once at `SweepProblem::build` time,
///   which distinguishes different problems built over the *same*
///   mesh;
/// * `grain` — the clustering grain the clusters were formed at.
///
/// Materials, sources and kernels deliberately do not appear: the plan
/// is pure scheduling state, valid for any physics on the same DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    mesh_generation: u64,
    fingerprint: u64,
    grain: u32,
}

/// The [`PlanKey`] of a compiled problem at a clustering grain. O(1):
/// both identity components were digested at `SweepProblem::build`
/// time, so solve hot paths pay no per-solve DAG traversal for cache
/// lookups.
pub fn plan_key(problem: &SweepProblem, grain: usize) -> PlanKey {
    PlanKey {
        mesh_generation: problem.mesh_generation,
        fingerprint: problem.dag_fingerprint,
        grain: grain as u32,
    }
}

impl PlanKey {
    /// The mesh generation stamp this key binds to.
    pub fn mesh_generation(&self) -> u64 {
        self.mesh_generation
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    plans: HashMap<PlanKey, Arc<CoarsePlan>>,
    /// `get` calls that found their plan.
    hits: u64,
    /// `get` calls that found nothing (each typically buys a plan
    /// compile downstream).
    misses: u64,
}

/// Cross-solve cache of compiled [`CoarsePlan`]s: one plan per
/// [`PlanKey`].
///
/// Hand one to `solve_parallel_cached` and multi-solve workloads (time
/// steps, eigenvalue iterations, many material sets) pay the plan
/// compile once: every later solve of the same problem shape replays
/// the cached plan. A refined or rebuilt mesh carries a fresh
/// generation stamp, so its solves miss the cache and compile afresh —
/// stale plans are structurally unreachable.
///
/// **Growth contract:** unreachable is not freed. The cache holds one
/// plan per shape ever solved until told which mesh generations are
/// still live: refinement loops call [`PlanCache::retain_generations`]
/// (or [`PlanCache::clear`]) after each refinement. A `SolverSession`
/// serves one shape, so its cache holds one plan.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look up a compiled plan (counted as a hit or a miss).
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CoarsePlan>> {
        let mut inner = self.inner.lock();
        let found = inner.plans.get(key).cloned();
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Store a compiled plan, replacing the one under the same key.
    pub fn insert(&self, key: PlanKey, plan: Arc<CoarsePlan>) {
        self.inner.lock().plans.insert(key, plan);
    }

    /// [`PlanCache::get`] calls that found their plan, since
    /// construction.
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// [`PlanCache::get`] calls that found nothing, since construction.
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().plans.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().plans.is_empty()
    }

    /// Estimated heap footprint of every cached plan (shared tasks
    /// counted once per plan).
    pub fn memory_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner.plans.values().map(|p| p.memory_bytes()).sum()
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        self.inner.lock().plans.clear();
    }

    /// Keep only plans compiled for the given mesh generations; returns
    /// the number of plans dropped. After building a refined mesh, pass
    /// the generations of every mesh still in use and the superseded
    /// plans go (their stamps can never be looked up again — see the
    /// growth contract above).
    pub fn retain_generations(&self, live: &[u64]) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.plans.len();
        inner.plans.retain(|k, _| live.contains(&k.mesh_generation));
        before - inner.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_core::engine::CLAIM_BATCH;
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_quadrature::QuadratureSet;

    fn build_problem(share: bool) -> (jsweep_mesh::StructuredMesh, SweepProblem) {
        let m = jsweep_mesh::StructuredMesh::unit(4, 4, 4);
        let ps = jsweep_mesh::partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = QuadratureSet::sn(4);
        let prob = SweepProblem::build(
            &m,
            ps,
            &q,
            &ProblemOptions {
                share_octant_dags: share,
                ..Default::default()
            },
        );
        (m, prob)
    }

    /// (in-cluster in-edges, internal in-edges, all in-edges) over the
    /// canonical tasks of the plan the solver compiles for `n³` hexes in
    /// `patch³` patches on `ranks` ranks, S`sn`, at `grain` — and the
    /// bytes compiling their replay layouts added to the plan.
    fn in_cluster_share(
        n: usize,
        patch: usize,
        ranks: usize,
        sn: u32,
        grain: usize,
    ) -> ((usize, usize, usize), usize) {
        let m = jsweep_mesh::StructuredMesh::unit(n, n, n);
        let ps = jsweep_mesh::partition::decompose_structured(&m, (patch, patch, patch), ranks);
        let opts = ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        };
        let prob = SweepProblem::build(&m, ps, &QuadratureSet::sn(sn), &opts);
        let traces = jsweep_graph::coarse::simulate_clusters(&prob, grain, CLAIM_BATCH);
        let plan = build_plan(&prob, &traces);
        let before = plan.memory_bytes();
        plan.compile_replay_layouts(&prob);
        let (mut in_cluster, mut internal, mut slots) = (0, 0, 0);
        for a in prob.canonical_angles() {
            for (task, sub) in plan.tasks[a].iter().zip(prob.subs[a].iter()) {
                let layout = task.coarse.replay_layout(sub);
                in_cluster += sub.num_slots() - layout.persistent_slots();
                internal += sub.int_dst.len();
                slots += sub.num_slots();
            }
        }
        ((in_cluster, internal, slots), plan.memory_bytes() - before)
    }

    /// The share of in-edges replay keeps in scratch on the shape of the
    /// ledger's `hex16_g32_dd_solo` (1 rank, S4, grain 256, 8³-cell
    /// patches): the face-flux bytes its layout saves. At smoke size
    /// (4³ patches of 8³ cells) every task is one cluster, so every
    /// internal in-edge is in-cluster; at full size (16³) 89.7 % of them
    /// are, 83.8 % of all in-edges. The layout costs 4 B per in-edge and
    /// per internal edge, plus its box.
    #[test]
    fn hex16_shaped_plan_keeps_most_in_edges_in_cluster() {
        // 8 patches × 8 canonical angles, one boxed layout each.
        let boxes = 64 * std::mem::size_of::<jsweep_graph::coarse::ReplayLayout>();
        assert_eq!(
            in_cluster_share(8, 4, 1, 4, 256),
            ((9216, 9216, 10752), 4 * (10752 + 9216) + boxes)
        );
        assert_eq!(
            in_cluster_share(16, 8, 1, 4, 256),
            ((77186, 86016, 92160), 4 * (92160 + 86016) + boxes)
        );
    }

    #[test]
    fn plan_key_is_stable_and_grain_sensitive() {
        let (_, prob) = build_problem(true);
        let a = plan_key(&prob, 16);
        let b = plan_key(&prob, 16);
        assert_eq!(a, b, "same problem, same grain, same key");
        assert_ne!(a, plan_key(&prob, 32), "grain is part of the key");
    }

    #[test]
    fn plan_key_distinguishes_mesh_generations() {
        let (_, p1) = build_problem(true);
        let (_, p2) = build_problem(true);
        // Identical shape, but independently built meshes never share a
        // generation stamp — conservative, and what makes refinement
        // invalidation structurally sound.
        assert_ne!(plan_key(&p1, 16), plan_key(&p2, 16));
        assert_eq!(plan_key(&p1, 16).mesh_generation(), p1.mesh_generation);
    }

    fn dummy_plan(generation: u64) -> Arc<CoarsePlan> {
        Arc::new(CoarsePlan {
            tasks: Vec::new(),
            mesh_generation: generation,
        })
    }

    #[test]
    fn retain_generations_drops_exactly_the_superseded_plans() {
        // Two independently built problems: strictly increasing
        // generation stamps.
        let (_, old) = build_problem(true);
        let (_, new) = build_problem(true);
        assert!(new.mesh_generation > old.mesh_generation);
        let cache = PlanCache::new();
        cache.insert(plan_key(&old, 8), dummy_plan(old.mesh_generation));
        cache.insert(plan_key(&old, 16), dummy_plan(old.mesh_generation));
        cache.insert(plan_key(&new, 16), dummy_plan(new.mesh_generation));
        assert_eq!(cache.retain_generations(&[new.mesh_generation]), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&plan_key(&new, 16)).is_some());
        assert!(cache.get(&plan_key(&old, 16)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.retain_generations(&[]), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_round_trips_plans() {
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        let (_, prob) = build_problem(true);
        let key = plan_key(&prob, 16);
        assert!(cache.get(&key).is_none());
        let plan = Arc::new(CoarsePlan {
            tasks: Vec::new(),
            mesh_generation: prob.mesh_generation,
        });
        cache.insert(key, plan.clone());
        assert_eq!(cache.len(), 1);
        let got = cache.get(&key).expect("cached plan");
        assert!(Arc::ptr_eq(&got, &plan));
        cache.clear();
        assert!(cache.is_empty());
    }
}
