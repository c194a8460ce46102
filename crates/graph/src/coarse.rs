//! The coarsened graph (paper §V-E).
//!
//! Mesh structure — and hence the sweep DAG — is constant across most
//! or all sweep iterations, so the vertex clusters a DAG-driven sweep
//! forms can be cached and reused: each cluster becomes a coarse vertex
//! `cv` with property `P(cv)` = its vertex list in execution order, and
//! cluster-to-cluster data flow becomes a coarse edge carrying the
//! combined face data. Iterations sweep the much smaller coarsened graph
//! `CG`, skipping per-vertex scheduling.
//!
//! The paper takes the clusters from the first iteration's live run.
//! [`simulate_clusters`] takes them from a deterministic, single-threaded
//! execution of the same scheduler ([`crate::SweepState::pop_cluster`]
//! at the solver's grain, the runtime's claim batch and priorities,
//! through [`crate::sim`]) before any iteration runs, so the plan is a
//! pure function of the problem and the grain.
//!
//! **Theorem 1** (paper): if `G` is acyclic, the derived `CG` is
//! acyclic. The proof carries over to the clusters of any valid
//! execution, simulated or live: order clusters by their completion
//! step; every coarse edge points from an earlier-completing cluster to
//! a later one (internal edges because clusters of one patch-program
//! form sequentially, remote edges because a stream is emitted only when
//! its source cluster finishes). [`build_coarse`] checks this by
//! topological sort and panics on violation — which would indicate a
//! scheduler bug.
//!
//! **Replay slot layout.** A coarse vertex's cell list is fixed, and
//! replay solves it in one call, so an internal edge whose two ends sit
//! in the same coarse vertex is written and read inside that call — the
//! cluster is in pop (topological) order, so its source runs first.
//! [`ReplayLayout`] says where each fine slot ([`Subgraph::num_slots`])
//! of a task lives when replay keeps such edges out of persistent
//! storage: an in-cluster edge's slot is an entry of a per-call scratch,
//! numbered per cluster in cluster order; every other slot — remote
//! in-edges and internal edges between coarse vertices — keeps a
//! persistent slot, numbered in ascending fine order. A task compiles
//! its layout once, on first request ([`CoarsenedTask::replay_layout`]),
//! so a plan that never replays that way carries none.

use crate::dag::{is_acyclic, Csr};
use crate::sim::{SimPool, SimTasks};
use crate::subgraph::Subgraph;
use crate::SweepProblem;
use jsweep_mesh::PatchId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Clustering trace of one `(patch, angle)` task: the clusters formed
/// by successive `compute()` calls, in formation order.
#[derive(Debug, Clone, Default)]
pub struct ClusterTrace {
    /// `clusters[k]` = local vertices of the `k`-th compute call, in pop
    /// (topological) order.
    pub clusters: Vec<Vec<u32>>,
}

impl ClusterTrace {
    /// Record one compute call's cluster.
    ///
    /// **Contract:** empty clusters are silently dropped — a `compute`
    /// call that found no ready vertex forms no coarse vertex. Replay
    /// code relies on this: every cluster of a [`CoarsenedTask`] is
    /// non-empty, so a coarse-replay program may assert it never
    /// executes (or emits the coarse edges of) an empty compute
    /// cluster.
    pub fn record(&mut self, cluster: Vec<u32>) {
        if !cluster.is_empty() {
            self.clusters.push(cluster);
        }
    }

    /// Total vertices across all clusters.
    pub fn num_vertices(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).sum()
    }
}

/// A coarse remote edge: combined original edges from one source
/// cluster into one remote target cluster.
#[derive(Debug, Clone)]
pub struct CoarseRemoteEdge {
    /// Patch owning the target cluster.
    pub patch: PatchId,
    /// Target cluster index within that patch's coarsened task.
    pub cluster: u32,
    /// Combined items — the property `P(ce)` of the paper — as indices
    /// into the source subgraph's remote CSR, ascending: edge `k` knows
    /// its source face, destination slot and staging position.
    pub items: Vec<u32>,
}

/// The coarsened task of one `(patch, angle)`: what the patch-program
/// executes from the second sweep iteration on.
#[derive(Debug, Clone)]
pub struct CoarsenedTask {
    /// `P(cv)`: original local vertices per coarse vertex.
    pub clusters: Vec<Vec<u32>>,
    /// Coarse in-degree (internal + remote incoming coarse edges).
    pub in_degree: Vec<u32>,
    /// Internal coarse edges, CSR offsets (indexing [`Self::int_dst`]).
    pub int_off: Vec<u32>,
    /// Internal coarse edges, CSR destination vertices.
    pub int_dst: Vec<u32>,
    /// Outgoing remote coarse edges per coarse vertex.
    pub remote: Vec<Vec<CoarseRemoteEdge>>,
    /// The replay slot layout, compiled on first request (boxed: most
    /// plans never compile one).
    layout: OnceLock<Box<ReplayLayout>>,
}

impl CoarsenedTask {
    /// The task's replay slot layout (module docs) over `sub`, its
    /// subgraph: compiled by the first call, shared by every later one.
    pub fn replay_layout(&self, sub: &Subgraph) -> &ReplayLayout {
        self.layout.get_or_init(|| {
            assert_eq!(
                sub.num_vertices(),
                self.num_vertices(),
                "replay layout against another task's subgraph"
            );
            Box::new(ReplayLayout::new(sub, &self.clusters))
        })
    }

    /// Number of coarse vertices.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Internal coarse successors of cluster `cv`.
    pub fn internal_succ(&self, cv: u32) -> &[u32] {
        &self.int_dst[self.int_off[cv as usize] as usize..self.int_off[cv as usize + 1] as usize]
    }

    /// Total original vertices.
    pub fn num_vertices(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).sum()
    }

    /// Estimated heap footprint of this coarsened task — what caching
    /// it across iterations (and, with a plan cache, across solves)
    /// costs. Used to report the octant-sharing memory saving.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.clusters.len() * size_of::<Vec<u32>>()
            + self.num_vertices() * size_of::<u32>()
            + self.in_degree.len() * size_of::<u32>()
            + self.int_off.len() * size_of::<u32>()
            + self.int_dst.len() * size_of::<u32>()
            + self.remote.len() * size_of::<Vec<CoarseRemoteEdge>>()
            + self
                .remote
                .iter()
                .flat_map(|edges| edges.iter())
                .map(|e| size_of::<CoarseRemoteEdge>() + e.items.len() * size_of::<u32>())
                .sum::<usize>()
            + self
                .layout
                .get()
                .map_or(0, |l| size_of::<ReplayLayout>() + l.memory_bytes())
    }
}

/// Tag of a scratch entry in [`ReplayLayout`]'s address words.
const SCRATCH: u32 = 1 << 31;

/// Where a fine face-flux slot lives while a coarsened task replays
/// with its [`ReplayLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotAddr {
    /// Slot of the task's persistent storage, which outlives a compute
    /// call: written by a remote stream or by another coarse vertex.
    Persistent(usize),
    /// Entry of the running coarse vertex's scratch, written and read
    /// within the one compute call that solves it.
    Scratch(usize),
}

impl SlotAddr {
    #[inline(always)]
    fn decode(word: u32) -> SlotAddr {
        if word & SCRATCH == 0 {
            SlotAddr::Persistent(word as usize)
        } else {
            SlotAddr::Scratch((word & !SCRATCH) as usize)
        }
    }
}

/// The replay slot layout of one coarsened task (module docs).
#[derive(Debug, Clone)]
pub struct ReplayLayout {
    /// Per fine slot: its persistent slot, or [`SCRATCH`] plus its
    /// scratch entry.
    slot_addr: Vec<u32>,
    /// Per internal edge `k` of the subgraph, `slot_addr[int_dslot[k]]`:
    /// the kernel's scatter reads one word, not two.
    int_addr: Vec<u32>,
    /// Persistent slots: one per remote in-edge and per internal edge
    /// between coarse vertices.
    persistent_slots: usize,
    /// The most scratch entries one coarse vertex needs.
    scratch_slots: usize,
}

impl ReplayLayout {
    fn new(sub: &Subgraph, clusters: &[Vec<u32>]) -> ReplayLayout {
        let mut cluster_of = vec![0u32; sub.num_vertices()];
        for (c, cluster) in clusters.iter().enumerate() {
            for &v in cluster {
                cluster_of[v as usize] = c as u32;
            }
        }
        // Mark the slots in-cluster edges land in, then number the rest
        // in ascending fine order.
        let mut slot_addr = vec![0u32; sub.num_slots()];
        for v in 0..sub.num_vertices() as u32 {
            for k in sub.int_range(v) {
                if cluster_of[v as usize] == cluster_of[sub.int_dst[k] as usize] {
                    slot_addr[sub.int_dslot[k] as usize] = SCRATCH;
                }
            }
        }
        let mut persistent_slots = 0u32;
        for a in slot_addr.iter_mut().filter(|a| **a != SCRATCH) {
            *a = persistent_slots;
            persistent_slots += 1;
        }
        assert!(persistent_slots < SCRATCH, "persistent slot exceeds 2^31");
        // Scratch entries per cluster, in the order the kernel gathers.
        let mut scratch_slots = 0;
        for cluster in clusters {
            let mut next = 0u32;
            for s in cluster.iter().flat_map(|&v| sub.in_slots(v)) {
                if slot_addr[s] == SCRATCH {
                    slot_addr[s] |= next;
                    next += 1;
                }
            }
            scratch_slots = scratch_slots.max(next as usize);
        }
        let int_addr = sub
            .int_dslot
            .iter()
            .map(|&s| slot_addr[s as usize])
            .collect();
        ReplayLayout {
            slot_addr,
            int_addr,
            persistent_slots: persistent_slots as usize,
            scratch_slots,
        }
    }

    /// Where fine slot `slot` ([`Subgraph::in_slots`]) lives.
    #[inline(always)]
    pub fn slot(&self, slot: usize) -> SlotAddr {
        SlotAddr::decode(self.slot_addr[slot])
    }

    /// Where internal edge `k` of the subgraph ([`Subgraph::int_dslot`])
    /// writes: [`ReplayLayout::slot`] of its destination slot.
    #[inline(always)]
    pub fn int_edge(&self, k: usize) -> SlotAddr {
        SlotAddr::decode(self.int_addr[k])
    }

    /// Persistent slots: one per remote in-edge and per internal edge
    /// between coarse vertices.
    pub fn persistent_slots(&self) -> usize {
        self.persistent_slots
    }

    /// Scratch entries the largest coarse vertex needs: one per internal
    /// edge with both ends in it.
    pub fn scratch_slots(&self) -> usize {
        self.scratch_slots
    }

    /// Heap footprint of the layout.
    pub fn memory_bytes(&self) -> usize {
        (self.slot_addr.len() + self.int_addr.len()) * std::mem::size_of::<u32>()
    }
}

/// The clusters of one deterministic execution of the runtime's
/// scheduler over `problem` at clustering grain `grain`, as
/// `traces[angle][patch]` — the layout plan compilation reads. Only
/// canonical angles ([`SweepProblem::canonical_angles`]) are executed;
/// an octant member's entries stay empty, because it replays its
/// canonical angle's clusters over the shared DAG.
///
/// The execution is the pool's ([`SimPool`] over fine [`SimTasks`]),
/// with ranks taking turns instead of running concurrently:
///
/// * every task starts active, in its rank's ready heap, ordered by its
///   two-level priority (ties to the lowest task id);
/// * in its turn a rank claims up to `claim_batch` tasks at a time (the
///   runtime's claim batch) and pops one cluster from each, until
///   nothing on the rank is ready;
/// * receives between tasks of one rank land after each claim batch,
///   as a worker delivers its batch's same-rank streams; receives bound
///   for another rank land at the start of that rank's next turn — a
///   cross-rank hop (master route, frame, the peer master's poll)
///   outlasts many compute calls, so its streams arrive together;
/// * a task returns to its heap while it has ready vertices, and
///   rejoins it when a receive makes a vertex ready.
///
/// No clock and no cost model: the result depends on nothing but its
/// arguments. Panics if a task does not complete (a scheduler bug).
pub fn simulate_clusters(
    problem: &SweepProblem,
    grain: usize,
    claim_batch: usize,
) -> Vec<Vec<ClusterTrace>> {
    assert!(claim_batch > 0, "claim batch must be positive");
    let ranks = problem.patches.num_ranks();
    let mut tasks = SimTasks::fine(problem, |a| problem.canonical_angle(a) == a);
    let mut pool = SimPool::new(&tasks);
    // Receives in flight, as (task, local vertex): `inbox[rank]` holds
    // those bound for `rank` from other ranks, `local` the claim batch's
    // same-rank ones.
    let mut inbox: Vec<Vec<(usize, u32)>> = vec![Vec::new(); ranks];
    let mut local: Vec<(usize, u32)> = Vec::new();
    let mut claimed: Vec<usize> = Vec::with_capacity(claim_batch);
    let mut traces = vec![vec![ClusterTrace::default(); problem.num_patches()]; problem.num_angles];
    loop {
        let mut progressed = false;
        for rank in 0..ranks {
            for (tid, v) in inbox[rank].drain(..) {
                tasks.receive(tid, v);
                pool.wake(tid, tasks.has_ready(tid));
            }
            loop {
                claimed.extend(std::iter::from_fn(|| pool.claim(rank)).take(claim_batch));
                if claimed.is_empty() {
                    break;
                }
                progressed = true;
                for &tid in &claimed {
                    let cluster = tasks.pop(tid, grain, |dst, v, _| match pool.rank_of(dst) {
                        r if r == rank => local.push((dst, v)),
                        r => inbox[r].push((dst, v)),
                    });
                    let (p, a) = problem.patch_angle(tid);
                    traces[a][p].record(cluster);
                }
                for tid in claimed.drain(..) {
                    pool.finish(tid, tasks.has_ready(tid));
                }
                for (tid, v) in local.drain(..) {
                    tasks.receive(tid, v);
                    pool.wake(tid, tasks.has_ready(tid));
                }
            }
        }
        if !progressed {
            break;
        }
    }
    tasks.assert_complete();
    traces
}

/// Build the coarsened tasks of every patch for one angle from the
/// clusters of one execution ([`simulate_clusters`]).
///
/// `subs[p]` and `traces[p]` are indexed by patch. Panics if a trace
/// does not cover its subgraph exactly or if the resulting coarse graph
/// is cyclic (Theorem 1 violation — a scheduler bug).
pub fn build_coarse(subs: &[Subgraph], traces: &[ClusterTrace]) -> Vec<CoarsenedTask> {
    assert_eq!(subs.len(), traces.len());
    // cluster_of[p][local vertex] = cluster index.
    let mut cluster_of: Vec<Vec<u32>> = Vec::with_capacity(subs.len());
    for (sub, trace) in subs.iter().zip(traces) {
        assert_eq!(
            trace.num_vertices(),
            sub.num_vertices(),
            "trace of patch {} covers {} of {} vertices",
            sub.patch.0,
            trace.num_vertices(),
            sub.num_vertices()
        );
        let mut map = vec![u32::MAX; sub.num_vertices()];
        for (k, cluster) in trace.clusters.iter().enumerate() {
            for &v in cluster {
                assert!(map[v as usize] == u32::MAX, "vertex {v} in two clusters");
                map[v as usize] = k as u32;
            }
        }
        cluster_of.push(map);
    }

    // Patch id -> slice index (patches may be a subset in tests).
    let patch_slot: HashMap<u32, u32> = subs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.patch.0, i as u32))
        .collect();

    let mut tasks: Vec<CoarsenedTask> = traces
        .iter()
        .map(|t| CoarsenedTask {
            clusters: t.clusters.clone(),
            in_degree: vec![0; t.clusters.len()],
            int_off: Vec::new(),
            int_dst: Vec::new(),
            remote: vec![Vec::new(); t.clusters.len()],
            layout: OnceLock::new(),
        })
        .collect();

    // Gather coarse edges.
    for (pi, sub) in subs.iter().enumerate() {
        let nclust = tasks[pi].num_clusters();
        let mut int_edges: std::collections::HashSet<(u32, u32)> = Default::default();
        // (src cluster, dst patch slot, dst cluster) -> items.
        let mut rem_edges: HashMap<(u32, u32, u32), Vec<u32>> = HashMap::new();
        for v in 0..sub.num_vertices() as u32 {
            let cu = cluster_of[pi][v as usize];
            for &w in sub.internal_succ(v) {
                let cv = cluster_of[pi][w as usize];
                if cu != cv {
                    int_edges.insert((cu, cv));
                }
            }
            for k in sub.rem_range(v) {
                let &qslot = patch_slot
                    .get(&sub.rem_dst[k].patch.0)
                    .expect("remote edge target outside the provided patch set");
                let lw = subs[qslot as usize].slot_vertex(sub.rem_dslot[k]);
                let cv = cluster_of[qslot as usize][lw as usize];
                // Vertices and their CSR ranges are walked in order:
                // every item list comes out ascending.
                rem_edges.entry((cu, qslot, cv)).or_default().push(k as u32);
            }
        }
        // Internal CSR + in-degrees.
        let mut edges: Vec<(u32, u32)> = int_edges.into_iter().collect();
        edges.sort_unstable();
        let csr = Csr::from_edges(nclust, &edges);
        for &(_, d) in &edges {
            tasks[pi].in_degree[d as usize] += 1;
        }
        tasks[pi].int_off = csr.off;
        tasks[pi].int_dst = csr.dst;
        // Remote edges: attach to source task, bump target in-degree.
        let mut rem: Vec<((u32, u32, u32), Vec<u32>)> = rem_edges.into_iter().collect();
        rem.sort_by_key(|&(k, _)| k);
        for ((cu, qslot, cv), items) in rem {
            tasks[qslot as usize].in_degree[cv as usize] += 1;
            let dst_patch = subs[qslot as usize].patch;
            tasks[pi].remote[cu as usize].push(CoarseRemoteEdge {
                patch: dst_patch,
                cluster: cv,
                items,
            });
        }
    }

    // Theorem 1: the global coarse graph must be acyclic.
    assert!(
        coarse_graph_is_acyclic(subs, &tasks, &patch_slot),
        "coarsened graph is cyclic: Theorem 1 violated (scheduler bug)"
    );
    tasks
}

/// Check global acyclicity of the coarse graph spanning all patches.
fn coarse_graph_is_acyclic(
    subs: &[Subgraph],
    tasks: &[CoarsenedTask],
    patch_slot: &HashMap<u32, u32>,
) -> bool {
    // Global coarse vertex id = offset[patch slot] + cluster.
    let mut offset = vec![0u32; tasks.len() + 1];
    for (i, t) in tasks.iter().enumerate() {
        offset[i + 1] = offset[i] + t.num_clusters() as u32;
    }
    let n = offset[tasks.len()] as usize;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (pi, t) in tasks.iter().enumerate() {
        for cv in 0..t.num_clusters() as u32 {
            for &d in t.internal_succ(cv) {
                edges.push((offset[pi] + cv, offset[pi] + d));
            }
            for re in &t.remote[cv as usize] {
                let q = patch_slot[&re.patch.0] as usize;
                edges.push((offset[pi] + cv, offset[q] + re.cluster));
            }
        }
    }
    let _ = subs;
    is_acyclic(&Csr::from_edges(n, &edges))
}

/// Scheduling state for replaying a coarsened task: the cluster-level
/// analogue of [`crate::SweepState`].
#[derive(Debug, Clone)]
pub struct CoarseSweepState {
    counts: Vec<u32>,
    /// Ready clusters, lowest trace index first (trace order is a valid
    /// priority: it reflects the original priority-driven execution).
    ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    executed: u32,
}

impl CoarseSweepState {
    /// Initialise from a coarsened task; source clusters become ready.
    pub fn new(task: &CoarsenedTask) -> CoarseSweepState {
        let counts = task.in_degree.clone();
        let mut ready = std::collections::BinaryHeap::new();
        for (cv, &c) in counts.iter().enumerate() {
            if c == 0 {
                ready.push(std::cmp::Reverse(cv as u32));
            }
        }
        CoarseSweepState {
            counts,
            ready,
            executed: 0,
        }
    }

    /// Re-arm this state for another replay of the same coarsened
    /// task, reusing its allocations in place (the persistent-universe
    /// counterpart of [`CoarseSweepState::new`]): counts re-copied
    /// from the coarse in-degrees, ready heap rebuilt, executed tally
    /// restarted.
    pub fn reset(&mut self, task: &CoarsenedTask) {
        assert_eq!(
            self.counts.len(),
            task.in_degree.len(),
            "reset against a different coarsened task"
        );
        self.counts.copy_from_slice(&task.in_degree);
        self.ready.clear();
        for (cv, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                self.ready.push(std::cmp::Reverse(cv as u32));
            }
        }
        self.executed = 0;
    }

    /// A remote coarse edge into cluster `cv` was satisfied.
    ///
    /// Panics when `cv` has no unsatisfied edge left: the count comes
    /// off the wire, and a wrapped counter would park the cluster for
    /// good or release it before its real upwind flux arrived.
    pub fn receive(&mut self, cv: u32) {
        let c = &mut self.counts[cv as usize];
        assert!(
            *c > 0,
            "cluster {cv} received more streams than its in-degree"
        );
        *c -= 1;
        if *c == 0 {
            self.ready.push(std::cmp::Reverse(cv));
        }
    }

    /// True while some cluster is ready to execute.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Clusters not yet executed.
    pub fn remaining(&self) -> u64 {
        self.counts.len() as u64 - self.executed as u64
    }

    /// True when every cluster has executed.
    pub fn is_complete(&self) -> bool {
        self.executed as usize == self.counts.len()
    }

    /// Execute the next ready cluster: returns its index and satisfies
    /// internal coarse edges. The caller runs the kernel over
    /// `task.clusters[cv]` and forwards `task.remote[cv]` as streams.
    pub fn pop(&mut self, task: &CoarsenedTask) -> Option<u32> {
        let std::cmp::Reverse(cv) = self.ready.pop()?;
        self.executed += 1;
        for &d in task.internal_succ(cv) {
            let c = &mut self.counts[d as usize];
            assert!(*c > 0, "internal coarse edge into satisfied cluster {d}");
            *c -= 1;
            if *c == 0 {
                self.ready.push(std::cmp::Reverse(d));
            }
        }
        Some(cv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{vertex_priorities, PriorityStrategy};
    use crate::sweep_state::SweepState;
    use jsweep_mesh::{partition, PatchSet, StructuredMesh, SweepTopology};
    use jsweep_quadrature::{AngleId, QuadratureSet};
    use std::collections::HashSet;

    /// Run a serial multi-patch sweep recording traces, with the given
    /// clustering grain; returns (subgraphs, traces).
    fn trace_sweep(
        mesh: &impl SweepTopology,
        ps: &PatchSet,
        dir: [f64; 3],
        grain: usize,
    ) -> (Vec<Subgraph>, Vec<ClusterTrace>) {
        let subs = Subgraph::build_all(mesh, ps, AngleId(0), dir, &HashSet::new());
        let mut states: Vec<SweepState> = subs
            .iter()
            .map(|s| SweepState::with_priorities(s, &vertex_priorities(s, PriorityStrategy::Slbd)))
            .collect();
        let mut traces = vec![ClusterTrace::default(); subs.len()];
        // Pending remote notifications: (patch slot, local vertex).
        let cell_local: std::collections::HashMap<u32, (usize, u32)> = subs
            .iter()
            .enumerate()
            .flat_map(|(pi, s)| {
                s.cells
                    .iter()
                    .enumerate()
                    .map(move |(li, &c)| (c, (pi, li as u32)))
            })
            .collect();
        loop {
            let mut progressed = false;
            for pi in 0..subs.len() {
                while states[pi].has_ready() {
                    let mut remote = Vec::new();
                    let cluster = states[pi].pop_cluster(&subs[pi], grain, |v, re| {
                        remote.push((v, re));
                    });
                    traces[pi].record(cluster);
                    progressed = true;
                    for (_, re) in remote {
                        let (qi, lv) = cell_local[&re.cell];
                        states[qi].receive(lv);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for st in &states {
            assert!(st.is_complete(), "sweep deadlocked");
        }
        (subs, traces)
    }

    #[test]
    fn coarse_build_covers_all_vertices() {
        let m = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&m, (3, 3, 3), 2);
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, 1.0, 1.0], 10);
        let tasks = build_coarse(&subs, &traces);
        let total: usize = tasks.iter().map(|t| t.num_vertices()).sum();
        assert_eq!(total, m.num_cells());
    }

    #[test]
    fn coarse_graph_is_acyclic_for_many_directions() {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let q = QuadratureSet::sn(2);
        for (_, o) in q.iter() {
            // build_coarse asserts acyclicity internally (Theorem 1).
            let (subs, traces) = trace_sweep(&m, &ps, o.dir, 5);
            let _ = build_coarse(&subs, &traces);
        }
    }

    #[test]
    fn coarse_replay_matches_fine_execution() {
        let m = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&m, (2, 2, 3), 2);
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, -1.0, 0.5], 8);
        let tasks = build_coarse(&subs, &traces);

        // Replay at cluster level: every original vertex must execute
        // exactly once, and cluster order must respect coarse edges.
        let mut states: Vec<CoarseSweepState> = tasks.iter().map(CoarseSweepState::new).collect();
        let slot: std::collections::HashMap<u32, usize> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.patch.0, i))
            .collect();
        let mut seen = vec![false; m.num_cells()];
        loop {
            let mut progressed = false;
            for pi in 0..tasks.len() {
                while let Some(cv) = states[pi].pop(&tasks[pi]) {
                    progressed = true;
                    for &v in &tasks[pi].clusters[cv as usize] {
                        let cell = subs[pi].cells[v as usize] as usize;
                        assert!(!seen[cell], "cell {cell} replayed twice");
                        seen[cell] = true;
                    }
                    let remotes = tasks[pi].remote[cv as usize].clone();
                    for re in remotes {
                        states[slot[&re.patch.0]].receive(re.cluster);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(seen.iter().all(|&s| s), "coarse replay missed cells");
        for st in &states {
            assert!(st.is_complete());
        }
    }

    #[test]
    #[should_panic(expected = "received more streams than its in-degree")]
    fn receive_beyond_the_coarse_in_degree_panics_in_every_build() {
        let m = StructuredMesh::unit(4, 2, 2);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, 0.0, 0.0], 100);
        let tasks = build_coarse(&subs, &traces);
        // The downwind patch's one cluster waits for one stream.
        let (task, cv) = tasks
            .iter()
            .find_map(|t| Some((t, t.in_degree.iter().position(|&d| d == 1)?)))
            .expect("a cluster fed by exactly one coarse edge");
        let mut st = CoarseSweepState::new(task);
        st.receive(cv as u32);
        st.receive(cv as u32);
    }

    #[test]
    fn coarse_is_smaller_than_fine() {
        let m = StructuredMesh::unit(8, 8, 8);
        let ps = partition::decompose_structured(&m, (4, 4, 4), 2);
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, 1.0, 1.0], 32);
        let tasks = build_coarse(&subs, &traces);
        let coarse_vertices: usize = tasks.iter().map(|t| t.num_clusters()).sum();
        assert!(
            coarse_vertices * 4 <= m.num_cells(),
            "coarsening achieved only {}/{} reduction",
            coarse_vertices,
            m.num_cells()
        );
    }

    #[test]
    fn remote_items_preserved_in_coarse_edges() {
        let m = StructuredMesh::unit(4, 2, 2);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, 0.0, 0.0], 100);
        let tasks = build_coarse(&subs, &traces);
        let fine_remote: usize = subs.iter().map(|s| s.rem_dst.len()).sum();
        let coarse_items: usize = tasks
            .iter()
            .flat_map(|t| t.remote.iter())
            .flat_map(|edges| edges.iter())
            .map(|e| e.items.len())
            .sum();
        assert_eq!(fine_remote, coarse_items);
    }

    fn clusters(traces: &[Vec<ClusterTrace>]) -> Vec<Vec<Vec<Vec<u32>>>> {
        traces
            .iter()
            .map(|per_patch| per_patch.iter().map(|t| t.clusters.clone()).collect())
            .collect()
    }

    #[test]
    fn simulate_clusters_is_deterministic_and_covers_canonical_tasks_only() {
        let m = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&m, (3, 3, 2), 2);
        let opts = crate::ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        };
        let prob = SweepProblem::build(&m, ps, &QuadratureSet::sn(4), &opts);
        let traces = simulate_clusters(&prob, 16, 8);
        assert_eq!(
            clusters(&traces),
            clusters(&simulate_clusters(&prob, 16, 8)),
            "same problem, same grain: same clusters"
        );
        for (a, per_patch) in traces.iter().enumerate() {
            for (sub, t) in prob.subs[a].iter().zip(per_patch) {
                let want = if prob.canonical_angle(a) == a {
                    sub.num_vertices()
                } else {
                    0
                };
                assert_eq!(t.num_vertices(), want, "angle {a} patch {}", sub.patch.0);
                assert!(t.clusters.iter().all(|c| !c.is_empty() && c.len() <= 16));
            }
        }
        for a in prob.canonical_angles() {
            build_coarse(&prob.subs[a], &traces[a]);
        }
    }

    /// The replay layout of every task of one direction, against the
    /// subgraphs it was compiled from: persistent + in-cluster slots
    /// cover every in-edge once; an in-cluster edge's source runs before
    /// its destination in their cluster; remote in-edges and edges
    /// between clusters are persistent, numbered densely in ascending
    /// fine order; scratch entries are dense per cluster, at most
    /// `len × faces` of them; an edge's precomposed address is its
    /// slot's. Returns (in-cluster, internal) in-edges.
    fn check_replay_layout(subs: &[Subgraph], tasks: &[CoarsenedTask]) -> (usize, usize) {
        let (mut in_cluster, mut internal) = (0, 0);
        let mut remote_in: Vec<Vec<u32>> = vec![Vec::new(); subs.len()];
        for sub in subs {
            for (re, &s) in sub.rem_dst.iter().zip(&sub.rem_dslot) {
                remote_in[re.patch.index()].push(s);
            }
        }
        for ((sub, task), remote_in) in subs.iter().zip(tasks).zip(&remote_in) {
            let layout = task.replay_layout(sub);
            // (cluster, position in it) per local vertex.
            let mut at = vec![(0, 0); sub.num_vertices()];
            for (c, cluster) in task.clusters.iter().enumerate() {
                for (i, &v) in cluster.iter().enumerate() {
                    at[v as usize] = (c, i);
                }
            }
            let mut scratch_of = vec![0; task.num_clusters()];
            for v in 0..sub.num_vertices() as u32 {
                for k in sub.int_range(v) {
                    internal += 1;
                    let (from, to) = (at[v as usize], at[sub.int_dst[k] as usize]);
                    let addr = layout.slot(sub.int_dslot[k] as usize);
                    assert_eq!(layout.int_edge(k), addr);
                    if from.0 == to.0 {
                        in_cluster += 1;
                        assert!(from.1 < to.1, "in-cluster edge against cluster order");
                        assert!(matches!(addr, SlotAddr::Scratch(_)));
                        scratch_of[to.0] += 1;
                    } else {
                        assert!(matches!(addr, SlotAddr::Persistent(_)));
                    }
                }
            }
            for &s in remote_in {
                assert!(matches!(layout.slot(s as usize), SlotAddr::Persistent(_)));
            }
            let in_edges: u32 = sub.in_degree.iter().sum();
            let scratch: usize = scratch_of.iter().sum();
            assert_eq!(layout.persistent_slots() + scratch, in_edges as usize);
            let persistent = (0..sub.num_slots()).filter_map(|s| match layout.slot(s) {
                SlotAddr::Persistent(p) => Some(p),
                SlotAddr::Scratch(_) => None,
            });
            assert!(persistent.eq(0..layout.persistent_slots()));
            for (c, cluster) in task.clusters.iter().enumerate() {
                let mut entries: Vec<usize> = cluster
                    .iter()
                    .flat_map(|&v| sub.in_slots(v))
                    .filter_map(|s| match layout.slot(s) {
                        SlotAddr::Scratch(i) => Some(i),
                        SlotAddr::Persistent(_) => None,
                    })
                    .collect();
                entries.sort_unstable();
                assert!(
                    entries.iter().copied().eq(0..scratch_of[c]),
                    "scratch not dense"
                );
                assert!(scratch_of[c] <= cluster.len() * sub.faces_per_cell());
            }
            assert_eq!(
                layout.scratch_slots(),
                scratch_of.iter().copied().max().unwrap_or(0)
            );
            assert!(
                std::ptr::eq(layout, task.replay_layout(sub)),
                "compiled once"
            );
        }
        (in_cluster, internal)
    }

    #[test]
    fn replay_layout_invariants_hold_on_every_family() {
        use jsweep_mesh::deformed::DeformedMesh;
        let hex = StructuredMesh::unit(6, 6, 6);
        let tet = jsweep_mesh::tetgen::ball(3, 1.0);
        let def = DeformedMesh::jittered(4, 4, 4, 0.3, 5);
        let cycles = crate::ProblemOptions {
            check_cycles: true,
            ..Default::default()
        };
        let q = QuadratureSet::sn(4);
        let problems = [
            SweepProblem::build(
                &hex,
                partition::decompose_structured(&hex, (3, 3, 3), 2),
                &q,
                &Default::default(),
            ),
            SweepProblem::build(
                &tet,
                partition::decompose_unstructured(&tet, 40, 2),
                &q,
                &Default::default(),
            ),
            SweepProblem::build(&def, partition::rcb(&def, 4), &q, &cycles),
        ];
        for prob in &problems {
            for grain in [1, 8, 64] {
                let traces = simulate_clusters(prob, grain, 8);
                let (mut in_cluster, mut internal) = (0, 0);
                for a in prob.canonical_angles() {
                    let tasks = build_coarse(&prob.subs[a], &traces[a]);
                    let before: usize = tasks.iter().map(CoarsenedTask::memory_bytes).sum();
                    let (i, n) = check_replay_layout(&prob.subs[a], &tasks);
                    let after: usize = tasks.iter().map(CoarsenedTask::memory_bytes).sum();
                    let slots: usize = prob.subs[a]
                        .iter()
                        .map(|s| s.num_slots() + s.int_dst.len())
                        .sum();
                    let boxes = tasks.len() * std::mem::size_of::<ReplayLayout>();
                    assert_eq!(
                        after - before,
                        4 * slots + boxes,
                        "the layout's bytes are counted"
                    );
                    in_cluster += i;
                    internal += n;
                }
                assert!(internal > 0);
                assert_eq!(in_cluster == 0, grain == 1, "grain {grain}");
            }
        }
    }

    #[test]
    fn grain_one_coarse_equals_fine() {
        let m = StructuredMesh::unit(3, 3, 1);
        let ps = PatchSet::single(m.num_cells());
        let (subs, traces) = trace_sweep(&m, &ps, [1.0, 1.0, 0.0], 1);
        let tasks = build_coarse(&subs, &traces);
        assert_eq!(tasks[0].num_clusters(), subs[0].num_vertices());
    }
}
