//! Generic DAG utilities over CSR adjacency.
//!
//! Used by priority computation (level/height sweeps over `G_{p,t}`),
//! the coarsened-graph acyclicity check, and the cycle breaker.

/// Compressed sparse row adjacency for a directed graph on `0..n`.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// Offsets, length `n + 1`.
    pub off: Vec<u32>,
    /// Concatenated successor lists.
    pub dst: Vec<u32>,
}

impl Csr {
    /// Build from an edge list over `0..n` vertices.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut counts = vec![0u32; n];
        for &(s, _) in edges {
            counts[s as usize] += 1;
        }
        let mut off = vec![0u32; n + 1];
        for v in 0..n {
            off[v + 1] = off[v] + counts[v];
        }
        let mut dst = vec![0u32; edges.len()];
        let mut cursor = off[..n].to_vec();
        for &(s, d) in edges {
            dst[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        Csr { off, dst }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.off.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.dst.len()
    }

    /// Successors of `v`.
    #[inline]
    pub fn succ(&self, v: u32) -> &[u32] {
        &self.dst[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices()];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Reverse graph.
    pub fn reversed(&self) -> Csr {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.num_edges());
        for v in 0..n as u32 {
            for &d in self.succ(v) {
                edges.push((d, v));
            }
        }
        Csr::from_edges(n, &edges)
    }
}

/// Kahn topological sort. Returns the order, or `Err(remaining)` with
/// the set of vertices on or downstream of a cycle.
pub fn topo_sort(g: &Csr) -> Result<Vec<u32>, Vec<u32>> {
    let n = g.num_vertices();
    let mut deg = g.in_degrees();
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<u32> = (0..n as u32).filter(|&v| deg[v as usize] == 0).collect();
    while let Some(v) = stack.pop() {
        order.push(v);
        for &d in g.succ(v) {
            deg[d as usize] -= 1;
            if deg[d as usize] == 0 {
                stack.push(d);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err((0..n as u32).filter(|&v| deg[v as usize] > 0).collect())
    }
}

/// True when the graph has no directed cycle.
pub fn is_acyclic(g: &Csr) -> bool {
    topo_sort(g).is_ok()
}

/// Longest path length (in edges) from each vertex to any sink — the
/// "height" used by LDCP. The graph must be acyclic.
pub fn height_to_sinks(g: &Csr) -> Vec<u32> {
    let order = topo_sort(g).expect("height_to_sinks requires a DAG");
    let mut h = vec![0u32; g.num_vertices()];
    for &v in order.iter().rev() {
        for &d in g.succ(v) {
            h[v as usize] = h[v as usize].max(h[d as usize] + 1);
        }
    }
    h
}

/// BFS level (shortest distance in edges) from the source set to each
/// vertex; unreachable vertices get `u32::MAX`.
pub fn bfs_levels(g: &Csr, sources: &[u32]) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        if level[s as usize] == u32::MAX {
            level[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &d in g.succ(v) {
            if level[d as usize] == u32::MAX {
                level[d as usize] = level[v as usize] + 1;
                queue.push_back(d);
            }
        }
    }
    level
}

/// Multi-source BFS on the *reverse* graph: shortest downwind distance
/// from each vertex to the target set (vertices from which a target is
/// reachable get finite distance). Unreachable vertices get `u32::MAX`.
pub fn distance_to_targets(g: &Csr, targets: &[u32]) -> Vec<u32> {
    bfs_levels(&g.reversed(), targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
    fn diamond() -> Csr {
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_roundtrip() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.succ(0), &[1, 2]);
        assert_eq!(g.succ(3), &[] as &[u32]);
    }

    #[test]
    fn in_degrees_of_diamond() {
        assert_eq!(diamond().in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn reverse_twice_is_identity_up_to_order() {
        let g = diamond();
        let rr = g.reversed().reversed();
        for v in 0..4u32 {
            let mut a = g.succ(v).to_vec();
            let mut b = rr.succ(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn topo_sort_respects_edges() {
        let g = diamond();
        let order = topo_sort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for v in 0..4u32 {
            for &d in g.succ(v) {
                assert!(pos[v as usize] < pos[d as usize]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!is_acyclic(&g));
        let remaining = topo_sort(&g).unwrap_err();
        assert_eq!(remaining.len(), 3);
    }

    #[test]
    fn partial_cycle_reports_cycle_members_only_downstream() {
        // 0 -> 1 <-> 2 (cycle between 1 and 2), 3 isolated.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 1)]);
        let remaining = topo_sort(&g).unwrap_err();
        assert!(remaining.contains(&1) && remaining.contains(&2));
        assert!(!remaining.contains(&0) && !remaining.contains(&3));
    }

    #[test]
    fn height_on_diamond() {
        let g = diamond();
        assert_eq!(height_to_sinks(&g), vec![2, 1, 1, 0]);
    }

    #[test]
    fn bfs_levels_from_source() {
        let g = diamond();
        assert_eq!(bfs_levels(&g, &[0]), vec![0, 1, 1, 2]);
    }

    #[test]
    fn distance_to_targets_is_reverse_bfs() {
        let g = diamond();
        assert_eq!(distance_to_targets(&g, &[3]), vec![2, 1, 1, 0]);
        let d = distance_to_targets(&g, &[1]);
        assert_eq!(d[0], 1);
        assert_eq!(d[1], 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert!(topo_sort(&g).unwrap().is_empty());
    }

    #[test]
    fn chain_height() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(height_to_sinks(&g), vec![4, 3, 2, 1, 0]);
    }
}
