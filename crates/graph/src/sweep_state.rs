//! The reentrant scheduling core of a sweep patch-program (Listing 1).
//!
//! [`SweepState`] is the "local context" of the paper's
//! `SweepPatchProgram`: the per-vertex counter array, the ready priority
//! queue `Q`, and the computed-vertex tally. It implements the three
//! state-changing primitives —
//!
//! * `init` (construction): counters ← upwind degree, sources → `Q`;
//! * `input` ([`SweepState::receive`]): a remote upwind datum arrived,
//!   decrement, enqueue when zero;
//! * `compute` ([`SweepState::pop_cluster`]): dequeue up to *grain*
//!   ready vertices (vertex clustering, §V-C), decrementing internal
//!   downwind counters inline — so a chain that becomes ready mid-pop
//!   joins the same cluster — and reporting remote downwind edges to
//!   the caller for stream aggregation.
//!
//! The struct is physics-free: the threaded runtime, the discrete-event
//! simulator and the BSP baseline all drive the *same* code, which is
//! what makes their schedules comparable.

use crate::subgraph::{RemoteEdge, Subgraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Scheduling state of one `(patch, angle)` sweep task.
#[derive(Debug, Clone)]
pub struct SweepState {
    /// Unfinished-upwind counters, one per local vertex.
    counts: Vec<u32>,
    /// Ready vertices, ordered by `(priority, lowest id)` — a max-heap
    /// on priority with deterministic tie-breaking.
    ready: BinaryHeap<(i64, Reverse<u32>)>,
    /// Vertex priorities (fixed for the lifetime of the state; shared
    /// across states and iterations — the DAG is constant, §V-E).
    prio: Arc<Vec<i64>>,
    /// Number of vertices computed so far.
    computed: u32,
}

impl SweepState {
    /// `init()`: counters from the subgraph's in-degrees; source
    /// vertices enter the ready queue immediately.
    pub fn new(sub: &Subgraph, prio: Arc<Vec<i64>>) -> SweepState {
        assert_eq!(prio.len(), sub.num_vertices(), "priority length mismatch");
        let counts = sub.in_degree.clone();
        let mut ready = BinaryHeap::new();
        for (v, &c) in counts.iter().enumerate() {
            if c == 0 {
                ready.push((prio[v], Reverse(v as u32)));
            }
        }
        SweepState {
            counts,
            ready,
            prio,
            computed: 0,
        }
    }

    /// Convenience constructor copying a priority slice (tests, small
    /// problems).
    pub fn with_priorities(sub: &Subgraph, prio: &[i64]) -> SweepState {
        SweepState::new(sub, Arc::new(prio.to_vec()))
    }

    /// Re-arm this state for another sweep of the same subgraph,
    /// reusing its allocations in place: counters are re-copied from
    /// the in-degrees, the ready queue is rebuilt with the shared
    /// priorities, the computed tally restarts. The persistent-universe
    /// counterpart of [`SweepState::new`] — no reallocation.
    pub fn reset(&mut self, sub: &Subgraph) {
        assert_eq!(
            self.counts.len(),
            sub.num_vertices(),
            "reset against a different subgraph"
        );
        self.counts.copy_from_slice(&sub.in_degree);
        self.ready.clear();
        for (v, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                self.ready.push((self.prio[v], Reverse(v as u32)));
            }
        }
        self.computed = 0;
    }

    /// `input()`: one upwind datum for local vertex `v` arrived from a
    /// remote patch.
    ///
    /// Panics when `v` has no unsatisfied upwind face left: the datum
    /// comes off the wire, and a wrapped counter would park the vertex
    /// for good or release it before its real upwind flux arrived.
    pub fn receive(&mut self, v: u32) {
        let c = &mut self.counts[v as usize];
        assert!(*c > 0, "vertex {v} received more data than its in-degree");
        *c -= 1;
        if *c == 0 {
            self.ready.push((self.prio[v as usize], Reverse(v)));
        }
    }

    /// `vote_to_halt()` is true when no ready work remains.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Vertices not yet computed.
    pub fn remaining(&self) -> u64 {
        self.counts.len() as u64 - self.computed as u64
    }

    /// True when every local vertex has been computed.
    pub fn is_complete(&self) -> bool {
        self.computed as usize == self.counts.len()
    }

    /// `compute()`: pop up to `grain` ready vertices (grain = the vertex
    /// clustering grain `N`), propagate internal readiness inline, and
    /// report each remote downwind edge via `on_remote(src_vertex, edge)`.
    ///
    /// Returns the popped cluster in execution (topological) order.
    pub fn pop_cluster(
        &mut self,
        sub: &Subgraph,
        grain: usize,
        mut on_remote: impl FnMut(u32, RemoteEdge),
    ) -> Vec<u32> {
        assert!(grain > 0, "clustering grain must be positive");
        let mut cluster = Vec::with_capacity(grain.min(16));
        while cluster.len() < grain {
            let Some((_, Reverse(v))) = self.ready.pop() else {
                break;
            };
            cluster.push(v);
            self.computed += 1;
            for &w in sub.internal_succ(v) {
                let c = &mut self.counts[w as usize];
                assert!(*c > 0, "internal edge to satisfied vertex {w}");
                *c -= 1;
                if *c == 0 {
                    self.ready.push((self.prio[w as usize], Reverse(w)));
                }
            }
            for &re in sub.remote_succ(v) {
                on_remote(v, re);
            }
        }
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::{PatchSet, StructuredMesh, SweepTopology};
    use jsweep_quadrature::AngleId;
    use std::collections::HashSet;

    fn line_subgraph(n: usize) -> Subgraph {
        let m = StructuredMesh::unit(n, 1, 1);
        let ps = PatchSet::single(m.num_cells());
        Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.0, 0.0], &HashSet::new()).swap_remove(0)
    }

    #[test]
    fn chain_completes_in_one_cluster_with_large_grain() {
        let sub = line_subgraph(8);
        let mut st = SweepState::with_priorities(&sub, &[0; 8]);
        let cluster = st.pop_cluster(&sub, 1000, |_, _| panic!("no remote edges"));
        assert_eq!(cluster.len(), 8);
        assert!(st.is_complete());
        // Chain order is forced by dependencies.
        assert_eq!(cluster, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn grain_one_needs_n_calls() {
        let sub = line_subgraph(5);
        let mut st = SweepState::with_priorities(&sub, &[0; 5]);
        let mut calls = 0;
        while !st.is_complete() {
            let c = st.pop_cluster(&sub, 1, |_, _| {});
            assert_eq!(c.len(), 1);
            calls += 1;
        }
        assert_eq!(calls, 5);
    }

    #[test]
    fn remaining_counts_down() {
        let sub = line_subgraph(4);
        let mut st = SweepState::with_priorities(&sub, &[0; 4]);
        assert_eq!(st.remaining(), 4);
        st.pop_cluster(&sub, 2, |_, _| {});
        assert_eq!(st.remaining(), 2);
        st.pop_cluster(&sub, 2, |_, _| {});
        assert_eq!(st.remaining(), 0);
    }

    #[test]
    fn receive_unblocks_vertex() {
        // Two patches of a 2-cell line: patch 1's cell waits for remote
        // data.
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::from_assignment(vec![0, 1], 2);
        let sub1 = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.0, 0.0], &HashSet::new())
            .swap_remove(1);
        let mut st = SweepState::with_priorities(&sub1, &[0]);
        assert!(!st.has_ready());
        st.receive(0);
        assert!(st.has_ready());
        let c = st.pop_cluster(&sub1, 10, |_, _| {});
        assert_eq!(c, vec![0]);
        assert!(st.is_complete());
    }

    #[test]
    #[should_panic(expected = "vertex 0 received more data than its in-degree")]
    fn receive_beyond_the_in_degree_panics_in_every_build() {
        // Off the wire: a duplicated stream item must not wrap the
        // counter (release builds compile `debug_assert!` out).
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::from_assignment(vec![0, 1], 2);
        let sub1 = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.0, 0.0], &HashSet::new())
            .swap_remove(1);
        let mut st = SweepState::with_priorities(&sub1, &[0]);
        st.receive(0);
        st.receive(0);
    }

    #[test]
    fn priority_orders_ready_queue() {
        // 2x1x1 split into two independent cells (direction along y means
        // no x-dependency).
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::single(2);
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [0.0, 1.0, 0.0], &HashSet::new())
            .swap_remove(0);
        // Both cells are sources; give cell 1 higher priority.
        let mut st = SweepState::with_priorities(&sub, &[5, 10]);
        let c = st.pop_cluster(&sub, 1, |_, _| {});
        assert_eq!(c, vec![1]);
    }

    #[test]
    fn tie_break_is_lowest_vertex_id() {
        let m = StructuredMesh::unit(3, 1, 1);
        let ps = PatchSet::single(3);
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [0.0, 0.0, 1.0], &HashSet::new())
            .swap_remove(0);
        let mut st = SweepState::with_priorities(&sub, &[7, 7, 7]);
        let c = st.pop_cluster(&sub, 3, |_, _| {});
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn remote_edges_reported_with_source() {
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::from_assignment(vec![0, 1], 2);
        let sub0 = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.0, 0.0], &HashSet::new())
            .swap_remove(0);
        let mut st = SweepState::with_priorities(&sub0, &[0]);
        let mut remotes = Vec::new();
        st.pop_cluster(&sub0, 10, |v, re| remotes.push((v, re)));
        assert_eq!(remotes.len(), 1);
        assert_eq!(remotes[0].0, 0);
        assert_eq!(remotes[0].1.patch, jsweep_mesh::PatchId(1));
        assert_eq!(remotes[0].1.cell, 1);
    }

    #[test]
    fn full_mesh_all_angles_complete_serially() {
        // Single patch, any direction: repeated pops must visit every
        // vertex exactly once.
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = PatchSet::single(m.num_cells());
        let q = jsweep_quadrature::QuadratureSet::sn(2);
        for (a, o) in q.iter() {
            let sub = Subgraph::build_all(&m, &ps, a, o.dir, &HashSet::new()).swap_remove(0);
            let prio = crate::priority::vertex_priorities(&sub, crate::PriorityStrategy::Slbd);
            let mut st = SweepState::with_priorities(&sub, &prio);
            let mut seen = vec![false; m.num_cells()];
            while !st.is_complete() {
                let cluster = st.pop_cluster(&sub, 7, |_, _| {});
                assert!(!cluster.is_empty(), "stalled with work remaining");
                for v in cluster {
                    assert!(!seen[v as usize], "vertex {v} computed twice");
                    seen[v as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    #[should_panic(expected = "grain must be positive")]
    fn zero_grain_rejected() {
        let sub = line_subgraph(2);
        let mut st = SweepState::with_priorities(&sub, &[0, 0]);
        st.pop_cluster(&sub, 0, |_, _| {});
    }
}
