//! The discrete-event simulation core.
//!
//! Events are processed in virtual-time order from a binary heap. The
//! simulated resources per rank are `W` interchangeable workers and one
//! master thread (a serial resource whose queueing delay is modelled by
//! a "free from" clock). Scheduling decisions — which task a freed
//! worker picks, which vertices a compute call pops — are made by the
//! *real* scheduler code ([`jsweep_graph::SweepState`] + the two-level
//! priorities), so contention, pipeline fill and idle time emerge
//! rather than being assumed.

use crate::machine::MachineModel;
use jsweep_graph::coarse::{CoarseSweepState, CoarsenedTask};
use jsweep_graph::problem::SweepProblem;
use jsweep_graph::SweepState;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Vertex clustering grain `N` (paper §V-C).
    pub grain: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { grain: 64 }
    }
}

/// Core-seconds per activity class (the data of Fig. 16).
#[derive(Debug, Clone, Default)]
pub struct DesBreakdown {
    /// Numerical kernel time (workers).
    pub kernel: f64,
    /// DAG bookkeeping + scheduling overhead (workers).
    pub graph_op: f64,
    /// Stream pack/unpack time (masters).
    pub pack_unpack: f64,
    /// Stream routing/handling time (masters).
    pub comm: f64,
    /// Idle core time (workers waiting + masters between streams).
    pub idle: f64,
}

impl DesBreakdown {
    /// Total core-seconds.
    pub fn total(&self) -> f64 {
        self.kernel + self.graph_op + self.pack_unpack + self.comm + self.idle
    }
}

/// Result of one simulated sweep iteration.
#[derive(Debug, Clone, Default)]
pub struct DesResult {
    /// Virtual wall-clock of the sweep (seconds).
    pub time: f64,
    /// Vertices computed.
    pub vertices: u64,
    /// Compute calls (patch-program executions).
    pub compute_calls: u64,
    /// Inter-rank messages.
    pub messages: u64,
    /// Inter-rank bytes.
    pub bytes: f64,
    /// Core-seconds breakdown.
    pub breakdown: DesBreakdown,
}

impl DesResult {
    /// Parallel efficiency versus a reference point:
    /// `(t_ref · cores_ref) / (t · cores)`.
    pub fn efficiency_vs(&self, reference: &DesResult, cores: usize, cores_ref: usize) -> f64 {
        (reference.time * cores_ref as f64) / (self.time * cores as f64)
    }
}

/// One outgoing stream group of a compute call.
struct OutGroup {
    dst_tid: usize,
    /// Receive keys at the target (fine: local vertex ids; coarse: the
    /// target cluster, once).
    keys: Vec<u32>,
    /// Face-data items carried (for message sizing).
    items: usize,
}

/// What the simulator needs from a task collection. Implemented by the
/// fine (per-vertex) and coarse (per-cluster) models.
trait TaskModel {
    fn num_tasks(&self) -> usize;
    fn rank_of(&self, tid: usize) -> usize;
    fn priority(&self, tid: usize) -> i64;
    /// Execute one compute call; returns (work units popped, outputs).
    fn pop(&mut self, tid: usize, grain: usize) -> (u64, Vec<OutGroup>);
    fn receive(&mut self, tid: usize, keys: &[u32]);
    fn has_ready(&self, tid: usize) -> bool;
    fn verify_complete(&self) -> Result<(), String>;
    /// DAG-bookkeeping units charged for a compute call that popped
    /// `work` vertices: the fine model updates one counter set per
    /// vertex; the coarse model touches only cluster-level counters
    /// (the §V-E saving), so it charges a single unit per call.
    fn graph_units(&self, work: u64) -> f64 {
        work as f64
    }
}

/// Fine (DAG) model: one `SweepState` per (patch, angle).
struct FineModel<'a> {
    prob: &'a SweepProblem,
    states: Vec<SweepState>,
    /// Scratch: group buffer reused across pops.
    groups: std::collections::HashMap<usize, Vec<u32>>,
}

impl<'a> FineModel<'a> {
    fn new(prob: &'a SweepProblem) -> FineModel<'a> {
        let mut states = Vec::with_capacity(prob.num_tasks());
        for a in 0..prob.num_angles {
            let subs = &prob.subs[a];
            let prios = &prob.vprio[a];
            for p in 0..prob.num_patches() {
                states.push(SweepState::new(&subs[p], prios[p].clone()));
            }
        }
        FineModel {
            prob,
            states,
            groups: Default::default(),
        }
    }
}

impl TaskModel for FineModel<'_> {
    fn num_tasks(&self) -> usize {
        self.prob.num_tasks()
    }

    fn rank_of(&self, tid: usize) -> usize {
        let (p, _) = self.prob.patch_angle(tid);
        self.prob.patches.rank_of(jsweep_mesh::PatchId(p as u32))
    }

    fn priority(&self, tid: usize) -> i64 {
        let (p, a) = self.prob.patch_angle(tid);
        self.prob.pprio[a][p]
    }

    fn pop(&mut self, tid: usize, grain: usize) -> (u64, Vec<OutGroup>) {
        let (p, a) = self.prob.patch_angle(tid);
        let sub = &self.prob.subs[a][p];
        let patches = &self.prob.patches;
        self.groups.clear();
        let groups = &mut self.groups;
        let cluster = self.states[tid].pop_cluster(sub, grain, |_v, re| {
            let dst_local = patches.local_index(re.cell as usize) as u32;
            groups.entry(re.patch.index()).or_default().push(dst_local);
        });
        let mut out: Vec<OutGroup> = groups
            .drain()
            .map(|(dst_patch, keys)| OutGroup {
                dst_tid: self.prob.tid(dst_patch, a),
                items: keys.len(),
                keys,
            })
            .collect();
        out.sort_by_key(|g| g.dst_tid);
        (cluster.len() as u64, out)
    }

    fn receive(&mut self, tid: usize, keys: &[u32]) {
        for &k in keys {
            self.states[tid].receive(k);
        }
    }

    fn has_ready(&self, tid: usize) -> bool {
        self.states[tid].has_ready()
    }

    fn verify_complete(&self) -> Result<(), String> {
        for (tid, st) in self.states.iter().enumerate() {
            if !st.is_complete() {
                let (p, a) = self.prob.patch_angle(tid);
                return Err(format!(
                    "deadlock: task (patch {p}, angle {a}) has {} vertices left",
                    st.remaining()
                ));
            }
        }
        Ok(())
    }
}

/// Coarse (CG) model: one `CoarseSweepState` per (patch, angle).
struct CoarseModel<'a> {
    prob: &'a SweepProblem,
    /// `tasks[angle][patch]`.
    tasks: &'a [Vec<CoarsenedTask>],
    states: Vec<CoarseSweepState>,
}

impl<'a> CoarseModel<'a> {
    fn new(prob: &'a SweepProblem, tasks: &'a [Vec<CoarsenedTask>]) -> CoarseModel<'a> {
        assert_eq!(tasks.len(), prob.num_angles);
        let mut states = Vec::with_capacity(prob.num_tasks());
        for at in tasks {
            assert_eq!(at.len(), prob.num_patches());
            for t in at {
                states.push(CoarseSweepState::new(t));
            }
        }
        CoarseModel {
            prob,
            tasks,
            states,
        }
    }
}

impl TaskModel for CoarseModel<'_> {
    fn num_tasks(&self) -> usize {
        self.prob.num_tasks()
    }

    fn rank_of(&self, tid: usize) -> usize {
        let (p, _) = self.prob.patch_angle(tid);
        self.prob.patches.rank_of(jsweep_mesh::PatchId(p as u32))
    }

    fn priority(&self, tid: usize) -> i64 {
        let (p, a) = self.prob.patch_angle(tid);
        self.prob.pprio[a][p]
    }

    fn pop(&mut self, tid: usize, _grain: usize) -> (u64, Vec<OutGroup>) {
        let (p, a) = self.prob.patch_angle(tid);
        let task = &self.tasks[a][p];
        let Some(cv) = self.states[tid].pop(task) else {
            return (0, Vec::new());
        };
        let work = task.clusters[cv as usize].len() as u64;
        // One stream per target patch-program: coarse edges to several
        // clusters of the same program travel together.
        let mut grouped: std::collections::HashMap<usize, (Vec<u32>, usize)> = Default::default();
        for re in &task.remote[cv as usize] {
            let e = grouped.entry(re.patch.index()).or_default();
            e.0.push(re.cluster);
            e.1 += re.items.len();
        }
        let mut out: Vec<OutGroup> = grouped
            .into_iter()
            .map(|(dst_patch, (keys, items))| OutGroup {
                dst_tid: self.prob.tid(dst_patch, a),
                keys,
                items,
            })
            .collect();
        out.sort_by_key(|g| g.dst_tid);
        (work, out)
    }

    fn receive(&mut self, tid: usize, keys: &[u32]) {
        for &k in keys {
            self.states[tid].receive(k);
        }
    }

    fn has_ready(&self, tid: usize) -> bool {
        self.states[tid].has_ready()
    }

    fn verify_complete(&self) -> Result<(), String> {
        for (tid, st) in self.states.iter().enumerate() {
            if !st.is_complete() {
                let (p, a) = self.prob.patch_angle(tid);
                return Err(format!(
                    "deadlock: coarse task (patch {p}, angle {a}) has {} clusters left",
                    st.remaining()
                ));
            }
        }
        Ok(())
    }

    fn graph_units(&self, _work: u64) -> f64 {
        1.0
    }
}

/// Event payloads.
enum EventKind {
    /// A worker finished a compute call.
    Complete {
        rank: usize,
        tid: usize,
        out: Vec<OutGroup>,
    },
    /// A remote message reached the destination rank's NIC.
    Arrive {
        rank: usize,
        tid: usize,
        keys: Vec<u32>,
        bytes: f64,
    },
    /// The destination master handed the stream to the pool.
    Deliver { tid: usize, keys: Vec<u32> },
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via Reverse at the call site; order by (time, seq).
        self.time
            .partial_cmp(&other.time)
            .expect("non-finite event time")
            .then(self.seq.cmp(&other.seq))
    }
}

/// The generic simulator core.
struct Sim<'m, M: TaskModel> {
    model: M,
    machine: &'m MachineModel,
    grain: usize,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Ready-task queues per rank (max-heap on priority, tie → lowest tid).
    queues: Vec<BinaryHeap<(i64, Reverse<usize>)>>,
    /// Idle workers per rank (count; all free ≤ current time).
    idle_workers: Vec<usize>,
    /// Task active flags (queued or running).
    active: Vec<bool>,
    /// Master "free from" clocks.
    master_free: Vec<f64>,
    /// Stats.
    result: DesResult,
    busy_worker_seconds: f64,
}

impl<'m, M: TaskModel> Sim<'m, M> {
    fn new(model: M, machine: &'m MachineModel, grain: usize) -> Sim<'m, M> {
        let ranks = machine.ranks;
        Sim {
            model,
            machine,
            grain,
            events: BinaryHeap::new(),
            seq: 0,
            queues: (0..ranks).map(|_| BinaryHeap::new()).collect(),
            idle_workers: vec![machine.workers_per_rank; ranks],
            active: Vec::new(),
            master_free: vec![0.0; ranks],
            result: DesResult::default(),
            busy_worker_seconds: 0.0,
        }
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    fn dispatch(&mut self, rank: usize, now: f64) {
        while self.idle_workers[rank] > 0 {
            let Some((_, Reverse(tid))) = self.queues[rank].pop() else {
                break;
            };
            self.idle_workers[rank] -= 1;
            let (work, out) = self.model.pop(tid, self.grain);
            let m = self.machine;
            let graph_units = self.model.graph_units(work);
            let dur = m.t_sched + work as f64 * m.t_vertex + graph_units * m.t_graph;
            self.result.vertices += work;
            self.result.compute_calls += 1;
            self.result.breakdown.kernel += work as f64 * m.t_vertex;
            self.result.breakdown.graph_op += graph_units * m.t_graph + m.t_sched;
            self.busy_worker_seconds += dur;
            self.push_event(now + dur, EventKind::Complete { rank, tid, out });
        }
    }

    /// Route one stream group from `src_rank` at time `t`.
    fn route(&mut self, t: f64, src_rank: usize, group: OutGroup) {
        let dst_rank = self.model.rank_of(group.dst_tid);
        let m = self.machine;
        let bytes = m.message_bytes(group.items);
        if dst_rank == src_rank {
            // Local stream: master routes without pack/unpack.
            let handle = m.t_route;
            let done = self.master_free[src_rank].max(t) + handle;
            self.master_free[src_rank] = done;
            self.result.breakdown.comm += handle;
            self.push_event(
                done,
                EventKind::Deliver {
                    tid: group.dst_tid,
                    keys: group.keys,
                },
            );
        } else {
            let pack = bytes * m.t_pack_per_byte;
            let handle = m.t_route + pack;
            let sent = self.master_free[src_rank].max(t) + handle;
            self.master_free[src_rank] = sent;
            self.result.breakdown.comm += m.t_route;
            self.result.breakdown.pack_unpack += pack;
            self.result.messages += 1;
            self.result.bytes += bytes;
            let arrive = sent + m.latency + bytes / m.bandwidth;
            self.push_event(
                arrive,
                EventKind::Arrive {
                    rank: dst_rank,
                    tid: group.dst_tid,
                    keys: group.keys,
                    bytes,
                },
            );
        }
    }

    fn run(mut self) -> Result<DesResult, String> {
        // All tasks start active (§III-A) and are queued on their rank.
        let n = self.model.num_tasks();
        self.active = vec![true; n];
        for tid in 0..n {
            let rank = self.model.rank_of(tid);
            let prio = self.model.priority(tid);
            self.queues[rank].push((prio, Reverse(tid)));
        }
        let mut end_time = 0.0f64;
        for rank in 0..self.machine.ranks {
            self.dispatch(rank, 0.0);
        }

        while let Some(Reverse(ev)) = self.events.pop() {
            end_time = end_time.max(ev.time);
            match ev.kind {
                EventKind::Complete { rank, tid, out } => {
                    for group in out {
                        self.route(ev.time, rank, group);
                    }
                    if self.model.has_ready(tid) {
                        let prio = self.model.priority(tid);
                        self.queues[rank].push((prio, Reverse(tid)));
                    } else {
                        self.active[tid] = false;
                    }
                    self.idle_workers[rank] += 1;
                    self.dispatch(rank, ev.time);
                }
                EventKind::Arrive {
                    rank,
                    tid,
                    keys,
                    bytes,
                } => {
                    let m = self.machine;
                    let unpack = bytes * m.t_pack_per_byte;
                    let handle = m.t_route + unpack;
                    let done = self.master_free[rank].max(ev.time) + handle;
                    self.master_free[rank] = done;
                    self.result.breakdown.comm += m.t_route;
                    self.result.breakdown.pack_unpack += unpack;
                    self.push_event(done, EventKind::Deliver { tid, keys });
                }
                EventKind::Deliver { tid, keys } => {
                    self.model.receive(tid, &keys);
                    if !self.active[tid] && self.model.has_ready(tid) {
                        self.active[tid] = true;
                        let rank = self.model.rank_of(tid);
                        let prio = self.model.priority(tid);
                        self.queues[rank].push((prio, Reverse(tid)));
                        self.dispatch(rank, ev.time);
                    }
                }
            }
        }

        self.model.verify_complete()?;
        self.result.time = end_time;
        // Idle = total core-seconds − busy (workers) − master handling.
        let worker_cores = (self.machine.ranks * self.machine.workers_per_rank) as f64;
        let master_cores = self.machine.ranks as f64;
        let master_busy = self.result.breakdown.comm + self.result.breakdown.pack_unpack;
        self.result.breakdown.idle = (worker_cores * end_time - self.busy_worker_seconds)
            + (master_cores * end_time - master_busy).max(0.0);
        Ok(self.result)
    }
}

/// Simulate one DAG-driven sweep iteration of `problem` on `machine`.
pub fn simulate(problem: &SweepProblem, machine: &MachineModel, opts: &SimOptions) -> DesResult {
    assert_eq!(
        machine.ranks,
        problem.patches.num_ranks(),
        "machine rank count must match the patch distribution"
    );
    let model = FineModel::new(problem);
    let sim = Sim::new(model, machine, opts.grain);
    sim.run().expect("sweep simulation deadlocked")
}

/// Simulate one coarsened-graph sweep iteration (§V-E): the clusters of
/// `tasks` (built from [`jsweep_graph::coarse::simulate_clusters`]
/// traces) execute as units.
pub fn simulate_coarse(
    problem: &SweepProblem,
    tasks: &[Vec<CoarsenedTask>],
    machine: &MachineModel,
    grain: usize,
) -> DesResult {
    let model = CoarseModel::new(problem, tasks);
    let sim = Sim::new(model, machine, grain);
    sim.run().expect("coarse sweep simulation deadlocked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_mesh::{partition, StructuredMesh};
    use jsweep_quadrature::QuadratureSet;

    fn small_problem(ranks: usize) -> SweepProblem {
        let m = StructuredMesh::unit(8, 8, 8);
        let ps = partition::decompose_structured(&m, (4, 4, 4), ranks);
        let q = QuadratureSet::sn(2);
        SweepProblem::build(
            &m,
            ps,
            &q,
            &ProblemOptions {
                share_octant_dags: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn simulation_computes_every_vertex() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 3);
        let r = simulate(&prob, &machine, &SimOptions::default());
        assert_eq!(r.vertices, prob.total_vertices);
        assert!(r.time > 0.0);
        assert!(r.compute_calls > 0);
    }

    #[test]
    fn more_workers_is_not_slower() {
        let prob = small_problem(2);
        let slow = simulate(&prob, &MachineModel::cluster(2, 1), &SimOptions::default());
        let fast = simulate(&prob, &MachineModel::cluster(2, 8), &SimOptions::default());
        assert!(
            fast.time <= slow.time * 1.05,
            "8 workers ({}) slower than 1 ({})",
            fast.time,
            slow.time
        );
    }

    #[test]
    fn determinism() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 3);
        let a = simulate(&prob, &machine, &SimOptions::default());
        let b = simulate(&prob, &machine, &SimOptions::default());
        assert_eq!(a.time, b.time);
        assert_eq!(a.compute_calls, b.compute_calls);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn breakdown_accounts_all_core_time() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 3);
        let r = simulate(&prob, &machine, &SimOptions::default());
        let total_core_seconds = machine.cores() as f64 * r.time;
        assert!((r.breakdown.total() - total_core_seconds).abs() < 1e-9 * total_core_seconds);
    }

    #[test]
    fn larger_grain_fewer_compute_calls() {
        let prob = small_problem(1);
        let machine = MachineModel::cluster(1, 2);
        let small = simulate(&prob, &machine, &SimOptions { grain: 1 });
        let large = simulate(&prob, &machine, &SimOptions { grain: 512 });
        assert!(large.compute_calls < small.compute_calls / 4);
    }

    #[test]
    fn messages_flow_between_ranks() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 2);
        let r = simulate(&prob, &machine, &SimOptions::default());
        assert!(r.messages > 0);
        assert!(r.bytes > 0.0);
    }

    #[test]
    fn efficiency_vs_reference() {
        let a = DesResult {
            time: 10.0,
            ..Default::default()
        };
        let b = DesResult {
            time: 2.0,
            ..Default::default()
        };
        // 5x speedup on 8x the cores = 62.5% efficiency.
        assert!((b.efficiency_vs(&a, 8, 1) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn deformed_mesh_simulates_with_cycle_breaking() {
        use jsweep_graph::problem::ProblemOptions as PO;
        let m = jsweep_mesh::deformed::DeformedMesh::jittered(6, 6, 6, 0.3, 21);
        let ps = jsweep_mesh::partition::rcb(&m, 4);
        let mut ps = ps;
        ps.distribute(vec![0, 0, 1, 1], 2);
        let q = jsweep_quadrature::QuadratureSet::sn(2);
        let prob = SweepProblem::build(
            &m,
            ps,
            &q,
            &PO {
                check_cycles: true,
                ..Default::default()
            },
        );
        let machine = MachineModel::cluster(2, 3);
        let r = simulate(&prob, &machine, &SimOptions::default());
        assert_eq!(r.vertices, prob.total_vertices);
    }

    #[test]
    fn coarse_replay_matches_vertex_count_and_is_cheaper() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 3);
        let fine = simulate(&prob, &machine, &SimOptions { grain: 32 });
        let traces = jsweep_graph::coarse::simulate_clusters(&prob, 32, 8);
        let tasks: Vec<Vec<CoarsenedTask>> = (0..prob.num_angles)
            .map(|a| {
                let c = prob.canonical_angle(a);
                jsweep_graph::coarse::build_coarse(&prob.subs[c], &traces[c])
            })
            .collect();
        let coarse = simulate_coarse(&prob, &tasks, &machine, 32);
        assert_eq!(coarse.vertices, fine.vertices);
        // The §V-E claim: cluster-level scheduling removes the
        // per-vertex DAG bookkeeping.
        assert!(
            coarse.breakdown.graph_op < fine.breakdown.graph_op,
            "coarse graph-op {} should undercut fine {}",
            coarse.breakdown.graph_op,
            fine.breakdown.graph_op
        );
        // The plan fixes the replay's work units and messages whatever
        // order the DES runs them in: one compute call per coarse
        // vertex, plus one empty call per task that starts active with
        // no source cluster; and one message per coarse vertex per
        // destination patch on another rank (its coarse edges to that
        // patch travel together).
        let rank = |p: usize| prob.patches.rank_of(jsweep_mesh::PatchId(p as u32));
        let (mut calls, mut cross) = (0, 0);
        for at in &tasks {
            for (p, t) in at.iter().enumerate() {
                calls += t.num_clusters() as u64;
                calls += u64::from(t.in_degree.iter().all(|&d| d > 0));
                for edges in &t.remote {
                    let mut dst: Vec<usize> = edges
                        .iter()
                        .map(|re| re.patch.index())
                        .filter(|&d| rank(d) != rank(p))
                        .collect();
                    dst.sort_unstable();
                    dst.dedup();
                    cross += dst.len() as u64;
                }
            }
        }
        assert_eq!(coarse.compute_calls, calls);
        assert!(cross > 0, "the problem has cross-rank coarse edges");
        assert_eq!(coarse.messages, cross);
    }
}
