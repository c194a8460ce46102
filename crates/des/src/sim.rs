//! The discrete-event simulation core.
//!
//! Events are processed in virtual-time order from a binary heap. The
//! simulated resources per rank are `W` interchangeable workers and one
//! master thread (a serial resource whose queueing delay is modelled by
//! a "free from" clock). Scheduling decisions — which task a freed
//! worker picks, which vertices a compute call pops — are made by the
//! *real* scheduler code: the task set and ready pool of
//! [`jsweep_graph::sim`] (Listing-1 states, two-level priorities), the
//! same ones the plan compiler runs. This module adds only the clock,
//! so contention, pipeline fill and idle time emerge rather than being
//! assumed.

use crate::machine::MachineModel;
use jsweep_graph::coarse::CoarsenedTask;
use jsweep_graph::problem::SweepProblem;
use jsweep_graph::sim::{SimPool, SimTasks};
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

/// A remote edge a compute call emitted: `(dst_tid, key, items)` (see
/// [`SimTasks::pop`]).
type Edge = (usize, u32, usize);

/// Event payloads.
enum EventKind {
    /// A worker finished a compute call; `out` holds its remote edges,
    /// sorted by destination task.
    Complete {
        rank: usize,
        tid: usize,
        out: Vec<Edge>,
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

/// The DES clock over the shared task set and pool: an event queue in
/// virtual time, per-rank idle workers and master clocks.
struct Sim<'a> {
    tasks: SimTasks<'a>,
    pool: SimPool<'a>,
    machine: &'a MachineModel,
    grain: usize,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Idle workers per rank (count; all free ≤ current time).
    idle_workers: Vec<usize>,
    /// Master "free from" clocks.
    master_free: Vec<f64>,
    /// Stats.
    result: DesResult,
    busy_worker_seconds: f64,
}

impl<'a> Sim<'a> {
    fn new(tasks: SimTasks<'a>, machine: &'a MachineModel, grain: usize) -> Sim<'a> {
        assert_eq!(
            machine.ranks,
            tasks.problem().patches.num_ranks(),
            "machine rank count must match the patch distribution"
        );
        let ranks = machine.ranks;
        Sim {
            pool: SimPool::new(&tasks),
            tasks,
            machine,
            grain,
            events: BinaryHeap::new(),
            seq: 0,
            idle_workers: vec![machine.workers_per_rank; ranks],
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
            let Some(tid) = self.pool.claim(rank) else {
                break;
            };
            self.idle_workers[rank] -= 1;
            let mut out: Vec<Edge> = Vec::new();
            let cluster = self.tasks.pop(tid, self.grain, |dst, key, items| {
                out.push((dst, key, items));
            });
            let work = cluster.len() as u64;
            // One stream per destination task, in task order.
            out.sort_by_key(|e| e.0);
            let m = self.machine;
            // DAG-bookkeeping units: a fine pop updates one counter set
            // per vertex; a coarse replay touches only cluster-level
            // counters (the §V-E saving), one unit per call.
            let graph_units = if self.tasks.is_coarse() {
                1.0
            } else {
                work as f64
            };
            let dur = m.t_sched + work as f64 * m.t_vertex + graph_units * m.t_graph;
            self.result.vertices += work;
            self.result.compute_calls += 1;
            self.result.breakdown.kernel += work as f64 * m.t_vertex;
            self.result.breakdown.graph_op += graph_units * m.t_graph + m.t_sched;
            self.busy_worker_seconds += dur;
            self.push_event(now + dur, EventKind::Complete { rank, tid, out });
        }
    }

    /// Route one stream — the `edges` of a compute call bound for one
    /// task — from `src_rank` at time `t`.
    fn route(&mut self, t: f64, src_rank: usize, edges: &[Edge]) {
        let tid = edges[0].0;
        let keys = edges.iter().map(|e| e.1).collect();
        let dst_rank = self.pool.rank_of(tid);
        let m = self.machine;
        let bytes = m.message_bytes(edges.iter().map(|e| e.2).sum());
        if dst_rank == src_rank {
            // Local stream: master routes without pack/unpack.
            let handle = m.t_route;
            let done = self.master_free[src_rank].max(t) + handle;
            self.master_free[src_rank] = done;
            self.result.breakdown.comm += handle;
            self.push_event(done, EventKind::Deliver { tid, keys });
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
            let event = EventKind::Arrive {
                rank: dst_rank,
                tid,
                keys,
                bytes,
            };
            self.push_event(arrive, event);
        }
    }

    fn run(mut self) -> DesResult {
        let mut end_time = 0.0f64;
        for rank in 0..self.machine.ranks {
            self.dispatch(rank, 0.0);
        }

        while let Some(Reverse(ev)) = self.events.pop() {
            end_time = end_time.max(ev.time);
            match ev.kind {
                EventKind::Complete { rank, tid, out } => {
                    for stream in out.chunk_by(|x, y| x.0 == y.0) {
                        self.route(ev.time, rank, stream);
                    }
                    self.pool.finish(tid, self.tasks.has_ready(tid));
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
                    for key in keys {
                        self.tasks.receive(tid, key);
                    }
                    if self.pool.wake(tid, self.tasks.has_ready(tid)) {
                        self.dispatch(self.pool.rank_of(tid), ev.time);
                    }
                }
            }
        }

        self.tasks.assert_complete();
        self.result.time = end_time;
        // Idle = total core-seconds − busy (workers) − master handling.
        let worker_cores = (self.machine.ranks * self.machine.workers_per_rank) as f64;
        let master_cores = self.machine.ranks as f64;
        let master_busy = self.result.breakdown.comm + self.result.breakdown.pack_unpack;
        self.result.breakdown.idle = (worker_cores * end_time - self.busy_worker_seconds)
            + (master_cores * end_time - master_busy).max(0.0);
        self.result
    }
}

/// Simulate one DAG-driven sweep iteration of `problem` on `machine`.
/// Panics unless `machine` has the problem's rank count.
pub fn simulate(problem: &SweepProblem, machine: &MachineModel, opts: &SimOptions) -> DesResult {
    Sim::new(SimTasks::fine(problem, |_| true), machine, opts.grain).run()
}

/// Simulate one coarsened-graph sweep iteration (§V-E): the clusters of
/// `tasks` (built from [`jsweep_graph::coarse::simulate_clusters`]
/// traces) execute as units, one coarse vertex per compute call.
/// Panics unless `machine` has the problem's rank count.
pub fn simulate_coarse(
    problem: &SweepProblem,
    tasks: &[Vec<CoarsenedTask>],
    machine: &MachineModel,
) -> DesResult {
    // A replay pops whole coarse vertices: the grain is never read.
    Sim::new(SimTasks::coarse(problem, tasks), machine, 1).run()
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

    /// The §V-E plan of every angle, from clusters simulated at `grain`.
    fn coarse_tasks(prob: &SweepProblem, grain: usize) -> Vec<Vec<CoarsenedTask>> {
        let traces = jsweep_graph::coarse::simulate_clusters(prob, grain, 8);
        (0..prob.num_angles)
            .map(|a| {
                let c = prob.canonical_angle(a);
                jsweep_graph::coarse::build_coarse(&prob.subs[c], &traces[c])
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "machine rank count")]
    fn simulate_rejects_a_machine_of_another_rank_count() {
        simulate(
            &small_problem(2),
            &MachineModel::cluster(1, 3),
            &SimOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "machine rank count")]
    fn simulate_coarse_rejects_a_machine_of_another_rank_count() {
        // Four ranks for a two-rank problem once ran, counting the idle
        // cores of two ranks that own no patch.
        let prob = small_problem(2);
        simulate_coarse(
            &prob,
            &coarse_tasks(&prob, 32),
            &MachineModel::cluster(4, 3),
        );
    }

    #[test]
    fn coarse_replay_matches_vertex_count_and_is_cheaper() {
        let prob = small_problem(2);
        let machine = MachineModel::cluster(2, 3);
        let fine = simulate(&prob, &machine, &SimOptions { grain: 32 });
        let tasks = coarse_tasks(&prob, 32);
        let coarse = simulate_coarse(&prob, &tasks, &machine);
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
