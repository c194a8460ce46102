//! The compiled coarse-graph replay plan and its lifecycle (paper
//! §V-E). See `docs/replay.md` for the end-to-end story.
//!
//! The first fine-grained (DAG-driven) sweep iteration records, per
//! `(patch, angle)` task, the vertex clusters its `compute()` calls
//! formed ([`ClusterTrace`]). Because the mesh — and hence every sweep
//! DAG — is constant across source iterations, those clusters can be
//! cached as a **coarsened task graph** and replayed verbatim from the
//! second iteration on: each coarse vertex executes its recorded vertex
//! list in order, and each outgoing coarse edge becomes exactly one
//! stream, so iterations ≥ 2 pay no per-vertex in-degree bookkeeping
//! and no priority recomputation.
//!
//! The plan has a real lifecycle, not just a per-solve existence:
//!
//! * **Record** — one [`ClusterTrace`] per *canonical* angle (under
//!   `share_octant_dags` all member angles of an octant share one DAG,
//!   so one trace per octant is recorded and replayed for every
//!   member, cutting plan memory and build time `num_angles/8`-fold);
//! * **Compile** — [`build_plan`] runs
//!   [`jsweep_graph::coarse::build_coarse`] per canonical angle (the
//!   Theorem-1 acyclicity check on the *real* solver traces), whose
//!   coarse-edge items `P(ce)` are indices into the source subgraph's
//!   remote CSR — staging position and destination slot in one number
//!   — and pre-packs every coarse edge's stream prefix from them;
//! * **Cache** — a [`PlanCache`] keyed by [`PlanKey`] (mesh generation
//!   stamp + a structural fingerprint of the compiled problem + grain)
//!   carries plans across `solve_parallel_cached` calls, so multi-solve
//!   workloads record once and replay from iteration 1 afterwards;
//! * **Invalidate** — every mesh carries a process-unique
//!   [`generation stamp`](jsweep_mesh::SweepTopology::generation)
//!   bumped by refinement (any topology-producing operation draws a
//!   fresh stamp). The stamp is part of the cache key *and* stored in
//!   the plan, so a stale plan is rebuilt, never replayed.

use crate::program::put_prefix;
use bytes::Bytes;
use jsweep_graph::coarse::{build_coarse, ClusterTrace, CoarseRemoteEdge, CoarsenedTask};
use jsweep_graph::SweepProblem;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-task trace bins filled during the recording iteration, indexed
/// by [`SweepProblem::tid`] (`angle * num_patches + patch`). A slot is
/// `None` until its `(patch, angle)` program completes and deposits;
/// only canonical-angle tasks record (octant members share the
/// canonical trace), so non-canonical slots stay `None`.
pub type TraceBins = Vec<Mutex<Option<ClusterTrace>>>;

/// Allocate empty trace bins for every `(patch, angle)` task.
pub fn new_trace_bins(num_tasks: usize) -> TraceBins {
    (0..num_tasks).map(|_| Mutex::new(None)).collect()
}

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
/// after the recording iteration and shared by all later iterations —
/// and, through a [`PlanCache`], by all later solves of the same
/// problem shape.
#[derive(Debug)]
pub struct CoarsePlan {
    /// `tasks[angle][patch]`; octant members share `Arc`s with their
    /// canonical angle.
    pub tasks: Vec<Vec<Arc<ReplayTask>>>,
    /// Generation stamp of the mesh the traces were recorded on (see
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

    /// Estimated heap footprint of the plan. Shared (octant-canonical)
    /// tasks are counted once, so this is what caching the plan
    /// actually costs.
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

/// Drain the recorded traces out of `bins` into `traces[angle][patch]`
/// order (the layout [`build_plan`] consumes). Only canonical angles
/// record, so non-canonical entries come back empty; [`build_plan`]
/// reads the canonical entry for every octant member. Tasks that never
/// deposited (empty patches) yield an empty trace.
pub fn collect_traces(problem: &SweepProblem, bins: &TraceBins) -> Vec<Vec<ClusterTrace>> {
    (0..problem.num_angles)
        .map(|a| {
            (0..problem.num_patches())
                .map(|p| {
                    if problem.canonical_angle(a) == a {
                        bins[problem.tid(p, a)].lock().take().unwrap_or_default()
                    } else {
                        ClusterTrace::default()
                    }
                })
                .collect()
        })
        .collect()
}

/// Compile the coarse-graph replay plan from the recording iteration's
/// traces (`traces[angle][patch]`; only canonical-angle entries are
/// read — octant members replay their canonical angle's trace, which is
/// valid because they share the same DAG).
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
/// * `grain` — the clustering grain the trace was recorded at.
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

/// Automatic eviction policy of a [`PlanCache`].
///
/// Because generation stamps are process-unique and never reused, a
/// plan whose mesh has been refined away can never be looked up again,
/// yet it still occupies memory — long AMR-style runs need *some*
/// bound. The automatic policies make such runs safe by default;
/// [`PlanCache::retain_generations`] remains the precise manual hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Never evict automatically (the pre-existing behaviour): callers
    /// manage growth with [`PlanCache::retain_generations`] /
    /// [`PlanCache::clear`], watching [`PlanCache::memory_bytes`].
    #[default]
    Manual,
    /// Bound the cache by estimated plan bytes
    /// ([`CoarsePlan::memory_bytes`], shared tasks counted once per
    /// plan): on every insert, least-recently-*used* plans are evicted
    /// *before* the new plan enters, until it fits. The cache is never
    /// observed holding both the victims and the new plan, and the
    /// most recently inserted plan always survives, even if it alone
    /// exceeds the bound.
    LruBytes {
        /// Total estimated footprint to keep the cache under.
        max_bytes: usize,
    },
    /// Keep only plans recorded on the newest `keep` distinct mesh
    /// generations. The natural policy for refinement loops: each
    /// refinement's plans supersede the previous mesh's, which can
    /// never be looked up again.
    NewestGenerations {
        /// Number of distinct (newest) mesh generations to retain.
        keep: usize,
    },
}

#[derive(Debug)]
struct CacheEntry {
    plan: Arc<CoarsePlan>,
    /// `plan.memory_bytes()`, computed once at insert.
    bytes: usize,
    /// Logical access clock value of the last `get`/`insert` touch.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    plans: HashMap<PlanKey, CacheEntry>,
    /// Logical access clock (bumped on every touch).
    tick: u64,
    /// Plans dropped by the automatic policy since construction.
    evicted: u64,
    /// `get` calls that found their plan.
    hits: u64,
    /// `get` calls that found nothing (each typically buys a recording
    /// iteration plus a plan compile downstream).
    misses: u64,
}

/// Cross-solve cache of compiled [`CoarsePlan`]s, keyed by [`PlanKey`].
///
/// Hand one to `solve_parallel_cached` and multi-solve workloads (time
/// steps, eigenvalue iterations, many material sets) pay the recording
/// iteration and plan compile once: every later solve of the same
/// problem shape starts replaying from iteration 1. A refined or
/// rebuilt mesh carries a fresh generation stamp, so its solves miss
/// the cache and record fresh — stale plans are structurally
/// unreachable.
///
/// **Growth contract:** by default ([`EvictionPolicy::Manual`]) the
/// cache never evicts on its own and refinement loops should call
/// [`PlanCache::retain_generations`] (or [`PlanCache::clear`]) after
/// each refinement, watching [`PlanCache::memory_bytes`]. Construct
/// with [`PlanCache::with_policy`] for an automatic bound — LRU by
/// bytes, or keep-newest-N-generations.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    policy: EvictionPolicy,
}

impl PlanCache {
    /// An empty cache that never evicts automatically
    /// ([`EvictionPolicy::Manual`]).
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// An empty cache governed by the given automatic eviction policy
    /// (enforced after every [`PlanCache::insert`]).
    ///
    /// Panics on `NewestGenerations { keep: 0 }`: a cache that may
    /// keep nothing is a configuration error, not a policy.
    pub fn with_policy(policy: EvictionPolicy) -> PlanCache {
        if let EvictionPolicy::NewestGenerations { keep } = policy {
            assert!(keep >= 1, "NewestGenerations must keep at least one");
        }
        PlanCache {
            inner: Mutex::new(CacheInner::default()),
            policy,
        }
    }

    /// The eviction policy this cache was built with.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Look up a compiled plan (touches it for LRU purposes and the
    /// hit/miss counters).
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CoarsePlan>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.plans.get_mut(key).map(|e| {
            e.last_used = tick;
            e.plan.clone()
        });
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Store a compiled plan, enforcing the eviction policy
    /// **atomically with the insertion** (one lock acquisition): under
    /// [`EvictionPolicy::LruBytes`] the victims are evicted *before*
    /// the new plan enters, so no concurrent [`PlanCache::get`] /
    /// [`PlanCache::memory_bytes`] can observe the cache holding both
    /// — insertion can never transiently exceed the byte bound. The
    /// plan just inserted counts as most recently used and is never
    /// the one evicted (a sole plan survives even a zero budget).
    pub fn insert(&self, key: PlanKey, plan: Arc<CoarsePlan>) {
        self.store(key, plan, false);
    }

    /// [`PlanCache::insert`] that refuses to evict: the plan is stored
    /// only if the policy admits it without dropping any other entry
    /// (same-key replacement is always allowed). Returns whether the
    /// plan was stored. This is the right call for opportunistic
    /// inserts — e.g. a plan compiled on a solve's final iteration,
    /// which the solve itself will never replay: caching it is a bet
    /// on a future solve, and that bet must not thrash plans other
    /// requests are actively hitting out of an at-capacity
    /// [`EvictionPolicy::LruBytes`] cache.
    pub fn insert_opportunistic(&self, key: PlanKey, plan: Arc<CoarsePlan>) -> bool {
        self.store(key, plan, true)
    }

    fn store(&self, key: PlanKey, plan: Arc<CoarsePlan>, opportunistic: bool) -> bool {
        let bytes = plan.memory_bytes();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        // Same-key replacement frees its own bytes first and never
        // needs headroom beyond the size delta.
        let replaced = inner.plans.remove(&key);
        if let EvictionPolicy::LruBytes { max_bytes } = self.policy {
            let mut total: usize = inner.plans.values().map(|e| e.bytes).sum();
            if opportunistic && total + bytes > max_bytes {
                // Would need an eviction (or exceed the budget while
                // alone): decline and keep the cache exactly as found.
                if let Some(e) = replaced {
                    inner.plans.insert(key, e);
                }
                return false;
            }
            // Evict-before-insert: least-recently-used entries leave
            // until the newcomer fits, stopping (at the latest) when it
            // would be alone.
            while total + bytes > max_bytes && !inner.plans.is_empty() {
                let oldest = inner
                    .plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("non-empty cache");
                let e = inner.plans.remove(&oldest).expect("key just observed");
                total -= e.bytes;
                inner.evicted += 1;
            }
        }
        inner.plans.insert(
            key,
            CacheEntry {
                plan,
                bytes,
                last_used,
            },
        );
        if let EvictionPolicy::NewestGenerations { keep } = self.policy {
            // Superseded generations are structurally unreachable, so
            // dropping them is hygiene, not thrash — the opportunistic
            // path applies it too.
            let mut gens: Vec<u64> = inner.plans.keys().map(|k| k.mesh_generation).collect();
            gens.sort_unstable();
            gens.dedup();
            if gens.len() > keep {
                let cutoff = gens[gens.len() - keep];
                let before = inner.plans.len();
                inner.plans.retain(|k, _| k.mesh_generation >= cutoff);
                inner.evicted += (before - inner.plans.len()) as u64;
            }
        }
        true
    }

    /// Plans dropped by the automatic policy so far (manual
    /// [`PlanCache::retain_generations`]/[`PlanCache::clear`] drops are
    /// not counted).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evicted
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
    /// counted once per plan; per-plan sizes are snapshotted at
    /// insert).
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().plans.values().map(|e| e.bytes).sum()
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        self.inner.lock().plans.clear();
    }

    /// Keep only plans recorded on the given mesh generations; returns
    /// the number of plans evicted. The manual eviction hook for
    /// refinement loops: after building a refined mesh, pass the
    /// generations of every mesh still in use and the superseded plans
    /// are dropped (their stamps can never be looked up again — see
    /// the growth contract above). Works under any policy.
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

    #[test]
    fn empty_bins_collect_to_default_traces() {
        let (_, prob) = build_problem(false);
        let bins = new_trace_bins(prob.num_tasks());
        let traces = collect_traces(&prob, &bins);
        assert_eq!(traces.len(), prob.num_angles);
        assert!(traces
            .iter()
            .all(|per_patch| per_patch.iter().all(|t| t.clusters.is_empty())));
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
    fn lru_bytes_policy_evicts_least_recently_used() {
        let (_, prob) = build_problem(true);
        let unit = dummy_plan(prob.mesh_generation).memory_bytes();
        let cache = PlanCache::with_policy(EvictionPolicy::LruBytes {
            max_bytes: 2 * unit,
        });
        let keys = [plan_key(&prob, 8), plan_key(&prob, 16), plan_key(&prob, 32)];
        cache.insert(keys[0], dummy_plan(prob.mesh_generation));
        cache.insert(keys[1], dummy_plan(prob.mesh_generation));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[2], dummy_plan(prob.mesh_generation));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&keys[0]).is_some(), "recently used survives");
        assert!(cache.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.get(&keys[2]).is_some(), "fresh insert survives");
        assert!(cache.memory_bytes() <= 2 * unit);
    }

    #[test]
    fn lru_bytes_never_evicts_the_only_plan() {
        let (_, prob) = build_problem(true);
        let cache = PlanCache::with_policy(EvictionPolicy::LruBytes { max_bytes: 0 });
        cache.insert(plan_key(&prob, 16), dummy_plan(prob.mesh_generation));
        assert_eq!(cache.len(), 1, "sole plan survives a zero budget");
    }

    #[test]
    fn opportunistic_insert_declines_instead_of_evicting() {
        let (_, prob) = build_problem(true);
        let unit = dummy_plan(prob.mesh_generation).memory_bytes();
        let cache = PlanCache::with_policy(EvictionPolicy::LruBytes { max_bytes: unit });
        let hot = plan_key(&prob, 8);
        cache.insert(hot, dummy_plan(prob.mesh_generation));
        // No headroom: the opportunistic insert must leave the
        // resident plan alone rather than thrash it.
        assert!(!cache.insert_opportunistic(plan_key(&prob, 16), dummy_plan(prob.mesh_generation)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(&hot).is_some(), "resident plan untouched");
        // Same-key replacement is always admitted.
        assert!(cache.insert_opportunistic(hot, dummy_plan(prob.mesh_generation)));
        assert_eq!(cache.len(), 1);
        // With headroom, the opportunistic insert stores normally.
        let roomy = PlanCache::with_policy(EvictionPolicy::LruBytes {
            max_bytes: 2 * unit,
        });
        roomy.insert(hot, dummy_plan(prob.mesh_generation));
        assert!(roomy.insert_opportunistic(plan_key(&prob, 16), dummy_plan(prob.mesh_generation)));
        assert_eq!(roomy.len(), 2);
        // Under Manual policy it is a plain insert.
        let manual = PlanCache::new();
        assert!(manual.insert_opportunistic(hot, dummy_plan(prob.mesh_generation)));
        assert_eq!(manual.len(), 1);
    }

    #[test]
    fn insert_never_exceeds_budget_even_transiently() {
        // Evict-before-insert means the byte total observed through
        // the public API is <= max_bytes after every mutation (sole
        // oversized plan excepted) — including a same-key replacement
        // that grows.
        let (_, prob) = build_problem(true);
        let unit = dummy_plan(prob.mesh_generation).memory_bytes();
        let cache = PlanCache::with_policy(EvictionPolicy::LruBytes {
            max_bytes: 3 * unit,
        });
        for (i, grain) in [8usize, 16, 32].iter().enumerate() {
            cache.insert(plan_key(&prob, *grain), dummy_plan(prob.mesh_generation));
            assert_eq!(cache.len(), i + 1);
            assert!(cache.memory_bytes() <= 3 * unit);
        }
        // A fourth distinct key evicts exactly one victim first.
        cache.insert(plan_key(&prob, 64), dummy_plan(prob.mesh_generation));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.memory_bytes() <= 3 * unit);
        // Same-key replacement does not count its own old bytes
        // against the headroom.
        cache.insert(plan_key(&prob, 64), dummy_plan(prob.mesh_generation));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1, "replacement evicts nothing");
    }

    #[test]
    fn newest_generations_policy_drops_superseded_meshes() {
        // Two independently built problems: strictly increasing
        // generation stamps.
        let (_, old) = build_problem(true);
        let (_, new) = build_problem(true);
        assert!(new.mesh_generation > old.mesh_generation);
        let cache = PlanCache::with_policy(EvictionPolicy::NewestGenerations { keep: 1 });
        cache.insert(plan_key(&old, 8), dummy_plan(old.mesh_generation));
        cache.insert(plan_key(&old, 16), dummy_plan(old.mesh_generation));
        assert_eq!(cache.len(), 2, "same generation: nothing to evict");
        cache.insert(plan_key(&new, 16), dummy_plan(new.mesh_generation));
        assert_eq!(cache.len(), 1, "old generation dropped wholesale");
        assert!(cache.get(&plan_key(&new, 16)).is_some());
        assert_eq!(cache.evictions(), 2);
        // The manual hook still works under a policy.
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
