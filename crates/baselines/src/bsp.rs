//! BSP-superstep data-driven sweep: the JAxMIN baseline of Fig. 17.
//!
//! JAxMIN executes components in bulk-synchronous supersteps (§II-B):
//! within a superstep every patch computes with the data it has, then
//! all patches exchange halos and synchronise. For a sweep this means
//! each superstep advances every `(patch, angle)` task by exactly the
//! vertices that were ready at the superstep boundary; dependency
//! chains crossing `k` patches need `k` supersteps, and every superstep
//! pays a global barrier plus the *maximum* per-rank compute time —
//! the structural inefficiency JSweep's asynchronous streams remove.

use jsweep_des::{DesResult, MachineModel, SweepProblem};
use jsweep_graph::sim::SimTasks;
use jsweep_mesh::PatchId;

/// Simulate one BSP sweep iteration of `problem` on `machine`.
///
/// Within a superstep each rank's work is its total ready-vertex
/// compute time divided across its workers (JAxMIN threads the patch
/// loop); the superstep ends with a halo exchange modelled as
/// latency + volume/bandwidth + per-stream handling, then a barrier.
pub fn simulate_bsp(problem: &SweepProblem, machine: &MachineModel) -> DesResult {
    assert_eq!(machine.ranks, problem.patches.num_ranks());
    let ranks = machine.ranks;
    // Per-task scheduling state (same Listing-1 core as JSweep).
    let mut tasks = SimTasks::fine(problem, |_| true);
    let rank_of_task = |tid: usize| {
        let (p, _) = problem.patch_angle(tid);
        problem.patches.rank_of(PatchId(p as u32))
    };

    let mut result = DesResult::default();
    let mut time = 0.0f64;
    // Remote edges of one compute call, as (dst_tid, key, items).
    let mut edges: Vec<(usize, u32, usize)> = Vec::new();

    loop {
        // Compute phase: every task drains its currently-ready set.
        let mut rank_compute = vec![0.0f64; ranks];
        let mut rank_msgs = vec![0u64; ranks];
        let mut rank_bytes = vec![0.0f64; ranks];
        // Deliveries deferred to the exchange phase: (tid, local vertex).
        let mut deliveries: Vec<(usize, u32)> = Vec::new();

        let calls = result.compute_calls;

        for tid in 0..problem.num_tasks() {
            if !tasks.has_ready(tid) {
                continue;
            }
            let rank = rank_of_task(tid);
            // One compute call per task per superstep (the BSP patch
            // visit), draining all ready vertices. Messages aggregate
            // per target patch as in the halo exchange.
            edges.clear();
            let cluster = tasks.pop(tid, usize::MAX >> 1, |dst, key, items| {
                edges.push((dst, key, items));
            });
            let k = cluster.len() as f64;
            rank_compute[rank] += machine.t_sched + k * (machine.t_vertex + machine.t_graph);
            result.vertices += cluster.len() as u64;
            result.compute_calls += 1;
            result.breakdown.kernel += k * machine.t_vertex;
            result.breakdown.graph_op += k * machine.t_graph + machine.t_sched;
            edges.sort_by_key(|e| e.0);
            for stream in edges.chunk_by(|x, y| x.0 == y.0) {
                let dst_tid = stream[0].0;
                let bytes = machine.message_bytes(stream.len());
                if rank_of_task(dst_tid) != rank {
                    rank_msgs[rank] += 1;
                    rank_bytes[rank] += bytes;
                    result.messages += 1;
                    result.bytes += bytes;
                    let pack = 2.0 * bytes * machine.t_pack_per_byte;
                    result.breakdown.pack_unpack += pack;
                }
                result.breakdown.comm += 2.0 * machine.t_route;
                deliveries.extend(stream.iter().map(|&(_, key, _)| (dst_tid, key)));
            }
        }

        if result.compute_calls == calls {
            break;
        }

        // Superstep wall time: slowest rank's threaded compute + its
        // halo exchange, then a barrier (log(ranks) latency).
        let workers = machine.workers_per_rank as f64;
        let compute_max = rank_compute
            .iter()
            .fold(0.0f64, |acc, &x| acc.max(x / workers));
        let comm_max = (0..ranks)
            .map(|r| rank_msgs[r] as f64 * machine.latency + rank_bytes[r] / machine.bandwidth)
            .fold(0.0f64, f64::max);
        let barrier = machine.latency * (ranks as f64).log2().max(1.0);
        time += compute_max + comm_max + barrier;

        // Exchange phase: all deliveries land.
        for (tid, key) in deliveries {
            tasks.receive(tid, key);
        }
    }

    tasks.assert_complete();
    result.time = time;
    // Idle accounting: all cores for the whole run minus busy time.
    let cores = machine.cores() as f64;
    result.breakdown.idle = (cores * time
        - result.breakdown.kernel
        - result.breakdown.graph_op
        - result.breakdown.pack_unpack
        - result.breakdown.comm)
        .max(0.0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_des::{simulate, ProblemOptions, SimOptions};
    use jsweep_mesh::{partition, StructuredMesh};
    use jsweep_quadrature::QuadratureSet;

    fn problem(ranks: usize) -> SweepProblem {
        let m = StructuredMesh::unit(12, 12, 12);
        let ps = partition::decompose_structured(&m, (3, 3, 3), ranks);
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
    fn bsp_computes_every_vertex() {
        let prob = problem(4);
        let machine = MachineModel::cluster(4, 3);
        let r = simulate_bsp(&prob, &machine);
        assert_eq!(r.vertices, prob.total_vertices);
        assert!(r.time > 0.0);
    }

    #[test]
    fn bsp_is_slower_than_jsweep_at_scale() {
        // The motivating claim: barrier-synchronised partial waves cost
        // more wall-clock than asynchronous streams on many ranks.
        let prob = problem(8);
        let machine = MachineModel::cluster(8, 3);
        let bsp = simulate_bsp(&prob, &machine);
        let jsweep = simulate(&prob, &machine, &SimOptions::default());
        assert_eq!(bsp.vertices, jsweep.vertices);
        assert!(
            bsp.time > jsweep.time,
            "BSP ({}) should exceed JSweep ({})",
            bsp.time,
            jsweep.time
        );
    }

    #[test]
    fn bsp_deterministic() {
        let prob = problem(2);
        let machine = MachineModel::cluster(2, 2);
        let a = simulate_bsp(&prob, &machine);
        let b = simulate_bsp(&prob, &machine);
        assert_eq!(a.time, b.time);
        assert_eq!(a.messages, b.messages);
    }
}
