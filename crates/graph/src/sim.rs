//! The simulated scheduler: the task set and the ready pool that every
//! simulated execution of the Listing-1 scheduler shares — the plan
//! compiler ([`crate::coarse::simulate_clusters`]), the discrete-event
//! simulator (`jsweep_des`) and the BSP baseline (`jsweep_baselines`).
//!
//! * [`SimTasks`] holds one scheduling state per `(patch, angle)` task:
//!   per vertex ([`SweepState`]) or per coarse vertex of a §V-E plan
//!   ([`CoarseSweepState`]). It routes each remote edge a pop emits to
//!   the task and receive key it lands on.
//! * [`SimPool`] is the runtime pool's task life cycle over one ready
//!   heap per rank: a task is Idle, Queued or Running, is queued at
//!   most once, and a freed worker claims the rank's highest-priority
//!   queued task (two-level priority, ties to the lowest task id).
//!
//! Neither keeps time. Each caller owns its clock: rank turns in
//! `simulate_clusters`, a virtual-time event queue in the DES,
//! supersteps in the BSP baseline.

use crate::coarse::{CoarseSweepState, CoarsenedTask};
use crate::{SweepProblem, SweepState};
use jsweep_mesh::PatchId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduling states of a problem's tasks, indexed by task id
/// ([`SweepProblem::tid`]).
pub struct SimTasks<'a> {
    problem: &'a SweepProblem,
    states: States<'a>,
}

enum States<'a> {
    /// Per task, `None` for a task the filter left out.
    Fine(Vec<Option<SweepState>>),
    /// `tasks[angle][patch]` and one state per task.
    Coarse(&'a [Vec<CoarsenedTask>], Vec<CoarseSweepState>),
}

impl<'a> SimTasks<'a> {
    /// Per-vertex states for every task whose angle `keep` accepts.
    pub fn fine(problem: &'a SweepProblem, keep: impl Fn(usize) -> bool) -> SimTasks<'a> {
        let states = (0..problem.num_tasks())
            .map(|tid| {
                let (p, a) = problem.patch_angle(tid);
                keep(a).then(|| SweepState::new(&problem.subs[a][p], problem.vprio[a][p].clone()))
            })
            .collect();
        SimTasks {
            problem,
            states: States::Fine(states),
        }
    }

    /// Per-cluster states replaying `tasks[angle][patch]`, a plan of
    /// every task of `problem`.
    pub fn coarse(problem: &'a SweepProblem, tasks: &'a [Vec<CoarsenedTask>]) -> SimTasks<'a> {
        assert_eq!(tasks.len(), problem.num_angles, "a plan per angle");
        let states = tasks
            .iter()
            .flat_map(|per_patch| {
                assert_eq!(per_patch.len(), problem.num_patches(), "a plan per patch");
                per_patch.iter().map(CoarseSweepState::new)
            })
            .collect();
        SimTasks {
            problem,
            states: States::Coarse(tasks, states),
        }
    }

    /// The problem the tasks belong to.
    pub fn problem(&self) -> &'a SweepProblem {
        self.problem
    }

    /// True when the tasks replay a coarse plan.
    pub fn is_coarse(&self) -> bool {
        matches!(self.states, States::Coarse(..))
    }

    /// True when task `tid` is simulated (the fine filter kept it).
    fn is_live(&self, tid: usize) -> bool {
        match &self.states {
            States::Fine(states) => states[tid].is_some(),
            States::Coarse(..) => true,
        }
    }

    /// One `compute()` of task `tid`: pops up to `grain` ready vertices
    /// (fine) or the next ready cluster (coarse; `grain` is unused, a
    /// replay pops whole coarse vertices) and returns the vertices
    /// popped, in execution order — empty when nothing was ready.
    ///
    /// Each remote edge goes to `emit(dst_tid, key, items)`: the key is
    /// what the destination [`SimTasks::receive`]s (a local vertex, or a
    /// cluster), `items` the face data it carries (1 per fine edge, the
    /// combined count of a coarse edge).
    pub fn pop(
        &mut self,
        tid: usize,
        grain: usize,
        mut emit: impl FnMut(usize, u32, usize),
    ) -> Vec<u32> {
        let problem = self.problem;
        let (p, a) = problem.patch_angle(tid);
        match &mut self.states {
            States::Fine(states) => {
                let st = states[tid].as_mut().expect("pop of a simulated task");
                st.pop_cluster(&problem.subs[a][p], grain, |_, re| {
                    let key = problem.patches.local_index(re.cell as usize) as u32;
                    emit(problem.tid(re.patch.index(), a), key, 1);
                })
            }
            States::Coarse(tasks, states) => {
                let task = &tasks[a][p];
                let Some(cv) = states[tid].pop(task) else {
                    return Vec::new();
                };
                for re in &task.remote[cv as usize] {
                    emit(problem.tid(re.patch.index(), a), re.cluster, re.items.len());
                }
                task.clusters[cv as usize].clone()
            }
        }
    }

    /// One upwind datum for key `key` of task `tid`.
    pub fn receive(&mut self, tid: usize, key: u32) {
        match &mut self.states {
            States::Fine(states) => states[tid]
                .as_mut()
                .expect("receive for a simulated task")
                .receive(key),
            States::Coarse(_, states) => states[tid].receive(key),
        }
    }

    /// True while task `tid` has ready work.
    pub fn has_ready(&self, tid: usize) -> bool {
        match &self.states {
            States::Fine(states) => states[tid].as_ref().is_some_and(SweepState::has_ready),
            States::Coarse(_, states) => states[tid].has_ready(),
        }
    }

    /// Panics unless every simulated task ran to completion (a stall
    /// is a scheduler bug).
    pub fn assert_complete(&self) {
        for tid in 0..self.problem.num_tasks() {
            let (left, unit) = match &self.states {
                States::Fine(states) => match &states[tid] {
                    Some(st) => (st.remaining(), "vertices"),
                    None => continue,
                },
                States::Coarse(_, states) => (states[tid].remaining(), "clusters"),
            };
            let (p, a) = self.problem.patch_angle(tid);
            assert!(
                left == 0,
                "simulated sweep deadlocked: task (patch {p}, angle {a}) has {left} {unit} left"
            );
        }
    }
}

/// Where a task is in the pool's life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not in a heap, not running: waits for a receive.
    Idle,
    /// In its rank's ready heap.
    Queued,
    /// Claimed by a worker.
    Running,
}

/// The runtime pool's task phases over one ready heap per rank.
pub struct SimPool<'a> {
    problem: &'a SweepProblem,
    phase: Vec<Phase>,
    /// Per rank, queued tasks as (two-level priority, lowest tid first).
    ready: Vec<BinaryHeap<(i64, Reverse<usize>)>>,
}

impl<'a> SimPool<'a> {
    /// Every live task of `tasks` queued, as the runtime's pool starts
    /// an epoch (§III-A: every task starts active).
    pub fn new(tasks: &SimTasks<'a>) -> SimPool<'a> {
        let problem = tasks.problem();
        let mut pool = SimPool {
            problem,
            phase: vec![Phase::Idle; problem.num_tasks()],
            ready: vec![BinaryHeap::new(); problem.patches.num_ranks()],
        };
        for tid in (0..problem.num_tasks()).filter(|&tid| tasks.is_live(tid)) {
            pool.push(tid);
        }
        pool
    }

    /// The rank that owns task `tid`.
    pub fn rank_of(&self, tid: usize) -> usize {
        let (p, _) = self.problem.patch_angle(tid);
        self.problem.patches.rank_of(PatchId(p as u32))
    }

    fn push(&mut self, tid: usize) {
        let (p, a) = self.problem.patch_angle(tid);
        let rank = self.rank_of(tid);
        self.ready[rank].push((self.problem.pprio[a][p], Reverse(tid)));
        self.phase[tid] = Phase::Queued;
    }

    /// A worker of `rank` claims its highest-priority queued task.
    pub fn claim(&mut self, rank: usize) -> Option<usize> {
        let (_, Reverse(tid)) = self.ready[rank].pop()?;
        self.phase[tid] = Phase::Running;
        Some(tid)
    }

    /// Running task `tid` finished a compute call: queued again while it
    /// `has_ready` work, idle otherwise.
    pub fn finish(&mut self, tid: usize, has_ready: bool) {
        assert_eq!(
            self.phase[tid],
            Phase::Running,
            "task {tid} finished unclaimed"
        );
        if has_ready {
            self.push(tid);
        } else {
            self.phase[tid] = Phase::Idle;
        }
    }

    /// Task `tid` received data: an idle task that `has_ready` work is
    /// queued, and the call returns true. A queued task stays queued
    /// once; a running one is re-queued by [`SimPool::finish`].
    pub fn wake(&mut self, tid: usize, has_ready: bool) -> bool {
        let woke = has_ready && self.phase[tid] == Phase::Idle;
        if woke {
            self.push(tid);
        }
        woke
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProblemOptions;
    use jsweep_mesh::{partition, StructuredMesh};
    use jsweep_quadrature::QuadratureSet;

    /// 8 patches on one rank, S2: 64 tasks.
    fn problem() -> SweepProblem {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 1);
        SweepProblem::build(&m, ps, &QuadratureSet::sn(2), &ProblemOptions::default())
    }

    fn drain(pool: &mut SimPool) -> Vec<usize> {
        std::iter::from_fn(|| pool.claim(0)).collect()
    }

    #[test]
    fn ties_go_to_the_lowest_tid_after_priority() {
        let mut prob = problem();
        for per_patch in &mut prob.pprio {
            per_patch.fill(7);
        }
        prob.pprio[1][3] = 9;
        let tasks = SimTasks::fine(&prob, |_| true);
        let mut pool = SimPool::new(&tasks);
        let first = prob.tid(3, 1);
        let mut want = vec![first];
        want.extend((0..prob.num_tasks()).filter(|&t| t != first));
        assert_eq!(drain(&mut pool), want);
    }

    #[test]
    fn a_task_that_receives_while_running_is_queued_once() {
        let prob = problem();
        let tasks = SimTasks::fine(&prob, |_| true);
        let mut pool = SimPool::new(&tasks);
        let tid = pool.claim(0).unwrap();
        assert!(!pool.wake(tid, true), "a running task is not woken");
        assert!(!pool.wake(tid, true));
        pool.finish(tid, true);
        assert!(!pool.wake(tid, true), "a queued task is not queued again");
        let claims = drain(&mut pool);
        assert_eq!(claims.iter().filter(|&&t| t == tid).count(), 1);
        assert_eq!(claims.len(), prob.num_tasks());
    }

    #[test]
    fn finish_requeues_only_a_task_with_ready_work() {
        let prob = problem();
        let tasks = SimTasks::fine(&prob, |_| true);
        let mut pool = SimPool::new(&tasks);
        let (a, b) = (pool.claim(0).unwrap(), pool.claim(0).unwrap());
        pool.finish(a, false);
        pool.finish(b, true);
        let claims = drain(&mut pool);
        assert!(!claims.contains(&a) && claims.contains(&b));
        assert!(!pool.wake(a, false), "no ready work, no wake");
        assert!(pool.wake(a, true), "an idle task with ready work wakes");
        assert_eq!(drain(&mut pool), [a]);
    }

    #[test]
    #[should_panic(expected = "finished unclaimed")]
    fn finish_of_a_queued_task_panics() {
        let prob = problem();
        let tasks = SimTasks::fine(&prob, |_| true);
        SimPool::new(&tasks).finish(0, true);
    }

    #[test]
    fn the_filter_leaves_tasks_out_of_the_pool() {
        let prob = problem();
        let tasks = SimTasks::fine(&prob, |a| a == 0);
        let mut pool = SimPool::new(&tasks);
        assert_eq!(drain(&mut pool).len(), prob.num_patches());
        assert!(!tasks.has_ready(prob.tid(0, 1)));
    }
}
