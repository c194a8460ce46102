//! Construction of the per-(patch, angle) induced subgraph `G_{p,t}`.
//!
//! Vertices are the patch's local cells (for one sweep direction); an
//! edge `(u, v)` means `v` consumes `u`'s outgoing face flux. Edges
//! internal to the patch are stored as a CSR list over local indices;
//! edges leaving the patch are stored as [`RemoteEdge`]s addressed by
//! `(target patch, target global cell)` — at run time they become
//! stream items. The in-degree counter of a vertex counts *all* upwind
//! interior faces, local and remote alike, exactly matching what the
//! Listing-1 `init`/`input`/`compute` functions decrement.
//!
//! The subgraph is also the task's compiled **data plane**, and the
//! only module that knows how a face flux is addressed. Every upwind
//! face of every local cell owns one *slot* of the task's incoming
//! face-flux storage ([`Subgraph::num_slots`] of them; a cell's slots
//! are contiguous from [`Subgraph::first_slot`], one per face). Every
//! CSR edge carries the face of the source cell it leaves through and
//! the slot it lands in: [`Subgraph::int_dslot`] in this task's own
//! storage, [`Subgraph::rem_dslot`] in the storage of the same-angle
//! task on the destination patch — the number a stream ships, which the
//! receiver maps back to the vertex it feeds with
//! [`Subgraph::slot_vertex`]. The patches the task sends to are
//! numbered once ([`Subgraph::nbrs`], ascending) and every remote edge
//! names its destination by that ordinal ([`Subgraph::rem_nbr`]), so
//! the sweep hot loop moves face fluxes by iterating the two CSR ranges
//! of a solved cell: no adjacency query, no map, no address arithmetic
//! outside this file.

use jsweep_mesh::{face_toward, PatchId, PatchSet, SweepTopology};
use jsweep_quadrature::AngleId;
use std::collections::HashSet;

/// A downwind dependency crossing the patch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteEdge {
    /// Patch owning the consumer cell.
    pub patch: PatchId,
    /// Consumer cell (global id).
    pub cell: u32,
}

/// The induced subgraph of one `(patch, angle)` sweep task.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The patch this subgraph belongs to.
    pub patch: PatchId,
    /// The sweep angle (task tag).
    pub angle: AngleId,
    /// Global cell id of each local vertex.
    pub cells: Vec<u32>,
    /// Number of upwind interior faces per local vertex (local + remote).
    pub in_degree: Vec<u32>,
    /// CSR offsets of internal downwind edges.
    pub int_off: Vec<u32>,
    /// Internal downwind targets (local vertex indices), in ascending
    /// source-face order per vertex.
    pub int_dst: Vec<u32>,
    /// Per internal edge: the source cell's face it leaves through.
    pub int_sface: Vec<u8>,
    /// Per internal edge: the face-flux slot of this task it lands in
    /// (the slot of `int_dst[k]`'s face `face_toward(dst, src)`).
    pub int_dslot: Vec<u32>,
    /// CSR offsets of remote downwind edges.
    pub rem_off: Vec<u32>,
    /// Remote downwind targets, in ascending source-face order per
    /// vertex.
    pub rem_dst: Vec<RemoteEdge>,
    /// Per remote edge: the source cell's face it leaves through.
    pub rem_sface: Vec<u8>,
    /// Per remote edge: the face-flux slot it lands in, in the storage
    /// of the same-angle task on `rem_dst[k].patch`.
    pub rem_dslot: Vec<u32>,
    /// Per remote edge: the position of `rem_dst[k].patch` in
    /// [`Subgraph::nbrs`].
    pub rem_nbr: Vec<u32>,
    /// The patches this task has remote edges to, strictly ascending.
    pub nbrs: Vec<PatchId>,
    /// Faces — and so slots — per cell.
    faces: u32,
}

/// Boundary marker of a [`FaceLink`].
const NO_NEIGHBOR: u32 = u32::MAX;

/// Where one face of a patch cell leads — everything about the face
/// that does not depend on the sweep direction.
#[derive(Debug, Clone, Copy)]
struct FaceLink {
    /// Global id of the cell across the face ([`NO_NEIGHBOR`] on the
    /// domain boundary).
    cell: u32,
    /// Patch owning that cell.
    patch: PatchId,
    /// Its local index there.
    local: u32,
    /// The slot a flux through this face lands in on that patch: the
    /// one `local` owns for its face leading back here (`face_toward`).
    slot: u32,
}

/// The direction-independent half of a patch's subgraphs: per
/// `(local cell, face)`, the neighbour and the slot a flux sent across
/// lands in. Walked off the mesh once per patch;
/// [`Subgraph::from_links`] then orients it for each sweep direction
/// with one flow sign per face and no further adjacency queries.
#[derive(Debug, Clone)]
pub struct PatchLinks {
    patch: PatchId,
    cells: Vec<u32>,
    /// Faces per cell: `links` holds one row of `faces` per local cell.
    faces: u32,
    links: Vec<FaceLink>,
}

impl PatchLinks {
    /// Walk the faces of patch `patch`.
    ///
    /// Panics on a mixed-element mesh: slots stride by one per-cell
    /// face count, shared by the patch and every patch it touches.
    pub fn new<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: &PatchSet,
        patch: PatchId,
    ) -> PatchLinks {
        let cells: Vec<u32> = patches.cells(patch).to_vec();
        let nf = cells.first().map_or(0, |&c| mesh.num_faces(c as usize));
        assert!(nf <= 256, "{nf} faces per cell do not index with a u8");
        let uniform = |c: usize| {
            assert!(
                mesh.num_faces(c) == nf,
                "mixed-element mesh: cell {c} has {} faces, its neighbourhood {nf}",
                mesh.num_faces(c)
            );
        };
        let mut links = Vec::with_capacity(cells.len() * nf);
        for &cell in &cells {
            uniform(cell as usize);
            for f in 0..nf {
                links.push(match mesh.face(cell as usize, f).neighbor.cell() {
                    Some(nb) => FaceLink {
                        cell: nb as u32,
                        patch: patches.patch_of(nb),
                        local: patches.local_index(nb) as u32,
                        slot: 0, // filled below
                    },
                    None => FaceLink {
                        cell: NO_NEIGHBOR,
                        patch,
                        local: 0,
                        slot: 0,
                    },
                });
            }
        }

        // Reciprocal faces: an in-patch neighbour's own row already
        // holds the answer (first match, as `face_toward` scans); only
        // faces on the patch surface ask the mesh.
        for (li, &cell) in cells.iter().enumerate() {
            for k in li * nf..(li + 1) * nf {
                let link = links[k];
                if link.cell == NO_NEIGHBOR {
                    continue;
                }
                let back = if link.patch == patch {
                    let row = link.local as usize * nf;
                    links[row..row + nf].iter().position(|l| l.cell == cell)
                } else {
                    uniform(link.cell as usize);
                    face_toward(mesh, link.cell as usize, cell as usize)
                };
                let back = back.expect("neighbour without reciprocal face");
                links[k].slot = u32::try_from(link.local as usize * nf + back)
                    .expect("face-flux slot exceeds u32");
            }
        }
        PatchLinks {
            patch,
            cells,
            faces: nf as u32,
            links,
        }
    }
}

impl Subgraph {
    /// Build `G_{p,t}` for patch `p` and direction `dir`.
    ///
    /// `broken` lists `(src_cell, dst_cell)` global pairs removed by the
    /// cycle breaker; pass an empty set for ordinary meshes.
    pub fn build<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: &PatchSet,
        patch: PatchId,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Subgraph {
        Subgraph::from_links(
            &PatchLinks::new(mesh, patches, patch),
            mesh,
            angle,
            dir,
            broken,
        )
    }

    /// Orient a patch's [`PatchLinks`] for direction `dir`: every face
    /// with outflow becomes a CSR edge carrying its source face and its
    /// destination slot, every face with inflow a unit of in-degree.
    pub fn from_links<T: SweepTopology + ?Sized>(
        links: &PatchLinks,
        mesh: &T,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Subgraph {
        let patch = links.patch;
        let cells = links.cells.clone();
        let n = cells.len();
        let nf = links.faces as usize;
        let mut in_degree = vec![0u32; n];
        let mut int_off = vec![0u32; n + 1];
        let mut rem_off = vec![0u32; n + 1];
        // For a generic direction half the faces carry outflow, nearly
        // all of them internal: one allocation instead of regrowth.
        let cap = links.links.len() / 2;
        let (mut int_dst, mut int_sface, mut int_dslot) = (
            Vec::with_capacity(cap),
            Vec::with_capacity(cap),
            Vec::with_capacity(cap),
        );
        let (mut rem_dst, mut rem_sface, mut rem_dslot) = (Vec::new(), Vec::new(), Vec::new());

        // Cells are walked in local order and faces in ascending order,
        // so the edge lists come out CSR-packed as they are pushed.
        for (li, &cell) in cells.iter().enumerate() {
            for (f, link) in links.links[li * nf..(li + 1) * nf].iter().enumerate() {
                if link.cell == NO_NEIGHBOR {
                    continue;
                }
                let flow = mesh.face(cell as usize, f).flow(dir);
                if flow < 0.0 {
                    // Upwind interior face feeds this vertex — unless the
                    // cycle breaker removed the (nb -> c) edge.
                    if !broken.contains(&(link.cell, cell)) {
                        in_degree[li] += 1;
                    }
                } else if flow > 0.0 {
                    if broken.contains(&(cell, link.cell)) {
                        continue;
                    }
                    if link.patch == patch {
                        int_dst.push(link.local);
                        int_sface.push(f as u8);
                        int_dslot.push(link.slot);
                    } else {
                        rem_dst.push(RemoteEdge {
                            patch: link.patch,
                            cell: link.cell,
                        });
                        rem_sface.push(f as u8);
                        rem_dslot.push(link.slot);
                    }
                }
                // flow == 0: the face is parallel to the direction; no
                // dependency either way.
            }
            int_off[li + 1] = int_dst.len() as u32;
            rem_off[li + 1] = rem_dst.len() as u32;
        }

        let mut nbrs: Vec<PatchId> = rem_dst.iter().map(|re| re.patch).collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        let rem_nbr = rem_dst
            .iter()
            .map(|re| nbrs.binary_search(&re.patch).expect("collected above") as u32)
            .collect();

        Subgraph {
            patch,
            angle,
            cells,
            in_degree,
            int_off,
            int_dst,
            int_sface,
            int_dslot,
            rem_off,
            rem_dst,
            rem_sface,
            rem_dslot,
            rem_nbr,
            nbrs,
            faces: links.faces,
        }
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.cells.len()
    }

    /// Faces per cell: the number of face-flux slots each vertex owns.
    pub fn faces_per_cell(&self) -> usize {
        self.faces as usize
    }

    /// Slots of this task's incoming face-flux storage: one per face of
    /// every local cell.
    pub fn num_slots(&self) -> usize {
        self.cells.len() * self.faces as usize
    }

    /// The first slot of local vertex `v`; its face `f` owns slot
    /// `first_slot(v) + f`.
    #[inline]
    pub fn first_slot(&self, v: u32) -> usize {
        v as usize * self.faces as usize
    }

    /// The local vertex that reads `slot`.
    #[inline]
    pub fn slot_vertex(&self, slot: u32) -> u32 {
        slot / self.faces
    }

    /// Index range into `int_dst` for local vertex `v`'s internal edges.
    #[inline]
    pub fn int_range(&self, v: u32) -> std::ops::Range<usize> {
        self.int_off[v as usize] as usize..self.int_off[v as usize + 1] as usize
    }

    /// Internal downwind targets of local vertex `v`.
    #[inline]
    pub fn internal_succ(&self, v: u32) -> &[u32] {
        &self.int_dst[self.int_range(v)]
    }

    /// Index range into `rem_dst` for local vertex `v`'s remote edges.
    #[inline]
    pub fn rem_range(&self, v: u32) -> std::ops::Range<usize> {
        self.rem_off[v as usize] as usize..self.rem_off[v as usize + 1] as usize
    }

    /// Remote downwind targets of local vertex `v`.
    #[inline]
    pub fn remote_succ(&self, v: u32) -> &[RemoteEdge] {
        &self.rem_dst[self.rem_range(v)]
    }

    /// Local vertices with at least one remote downwind edge (the patch
    /// "exit" vertices SLBD steers towards).
    pub fn exit_vertices(&self) -> Vec<u32> {
        (0..self.num_vertices() as u32)
            .filter(|&v| !self.remote_succ(v).is_empty())
            .collect()
    }

    /// Total internal + remote edges.
    pub fn num_edges(&self) -> usize {
        self.int_dst.len() + self.rem_dst.len()
    }

    /// The internal-edge graph as a generic CSR (for priority sweeps).
    pub fn internal_csr(&self) -> crate::dag::Csr {
        crate::dag::Csr {
            off: self.int_off.clone(),
            dst: self.int_dst.clone(),
        }
    }

    /// In-degree counting only internal edges (sources of the *local*
    /// DAG, used by priority computations that ignore remote inputs).
    pub fn internal_in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices()];
        for &d in &self.int_dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Build the subgraphs of *all* patches for one direction.
    /// (Several directions over one decomposition: walk the
    /// [`PatchLinks`] once and call [`Subgraph::from_links`] per
    /// direction, as `SweepProblem::build` does.)
    pub fn build_all<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: &PatchSet,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Vec<Subgraph> {
        patches
            .patches()
            .map(|p| Subgraph::build(mesh, patches, p, angle, dir, broken))
            .collect()
    }
}

/// Sanity invariant used by tests and property checks: summed over all
/// patches of one direction, every internal+remote edge is matched by
/// exactly one unit of in-degree on its target.
pub fn check_edge_degree_balance(subs: &[Subgraph]) -> Result<(), String> {
    use std::collections::HashMap;
    // (patch index, local vertex) -> expected in-degree from edges.
    let mut incoming: HashMap<(u32, u32), u32> = HashMap::new();
    let mut local_of_cell: HashMap<u32, (u32, u32)> = HashMap::new();
    for sub in subs {
        for (li, &cell) in sub.cells.iter().enumerate() {
            local_of_cell.insert(cell, (sub.patch.0, li as u32));
        }
    }
    for sub in subs {
        for v in 0..sub.num_vertices() as u32 {
            for &d in sub.internal_succ(v) {
                *incoming.entry((sub.patch.0, d)).or_default() += 1;
            }
            for re in sub.remote_succ(v) {
                let &(p, lv) = local_of_cell
                    .get(&re.cell)
                    .ok_or_else(|| format!("remote edge to unknown cell {}", re.cell))?;
                if p != re.patch.0 {
                    return Err(format!(
                        "remote edge patch mismatch: cell {} is in patch {p}, edge says {}",
                        re.cell, re.patch.0
                    ));
                }
                *incoming.entry((p, lv)).or_default() += 1;
            }
        }
    }
    for sub in subs {
        for v in 0..sub.num_vertices() as u32 {
            let expect = incoming.get(&(sub.patch.0, v)).copied().unwrap_or(0);
            if expect != sub.in_degree[v as usize] {
                return Err(format!(
                    "patch {} vertex {v}: in_degree {} but {} incoming edges",
                    sub.patch.0, sub.in_degree[v as usize], expect
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::{partition, StructuredMesh};
    use jsweep_quadrature::QuadratureSet;

    fn setup() -> (StructuredMesh, PatchSet) {
        let m = StructuredMesh::unit(4, 4, 4);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        (m, ps)
    }

    #[test]
    fn corner_sources_have_zero_in_degree() {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = PatchSet::single(m.num_cells());
        let sub = Subgraph::build(
            &m,
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        // Only the (0,0,0) cell has no upwind interior faces.
        let sources: Vec<u32> = (0..sub.num_vertices() as u32)
            .filter(|&v| sub.in_degree[v as usize] == 0)
            .collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sub.cells[sources[0] as usize], m.cell_id(0, 0, 0) as u32);
    }

    #[test]
    fn single_patch_has_no_remote_edges() {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = PatchSet::single(m.num_cells());
        let sub = Subgraph::build(
            &m,
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 0.5, 0.25],
            &HashSet::new(),
        );
        assert!(sub.rem_dst.is_empty());
        assert_eq!(
            sub.int_dst.len(),
            sub.in_degree.iter().map(|&d| d as usize).sum::<usize>()
        );
    }

    #[test]
    fn edge_degree_balance_across_patches() {
        let (m, ps) = setup();
        let q = QuadratureSet::sn(2);
        for (a, o) in q.iter() {
            let subs = Subgraph::build_all(&m, &ps, a, o.dir, &HashSet::new());
            check_edge_degree_balance(&subs).unwrap();
        }
    }

    #[test]
    fn opposite_directions_swap_degrees() {
        let (m, ps) = setup();
        let subs_fwd = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new());
        let subs_bwd =
            Subgraph::build_all(&m, &ps, AngleId(1), [-1.0, -1.0, -1.0], &HashSet::new());
        let total_edges_fwd: usize = subs_fwd.iter().map(|s| s.num_edges()).sum();
        let total_edges_bwd: usize = subs_bwd.iter().map(|s| s.num_edges()).sum();
        assert_eq!(total_edges_fwd, total_edges_bwd);
    }

    #[test]
    fn exit_vertices_touch_patch_boundary() {
        let (m, ps) = setup();
        let subs = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new());
        for sub in &subs {
            for v in sub.exit_vertices() {
                assert!(!sub.remote_succ(v).is_empty());
            }
        }
        // The overall last patch in the sweep direction has no exits on
        // its far corner; at least one patch must have exits.
        assert!(subs.iter().any(|s| !s.exit_vertices().is_empty()));
    }

    #[test]
    fn broken_edges_are_skipped_on_both_sides() {
        let m = StructuredMesh::unit(2, 1, 1);
        let ps = PatchSet::single(2);
        let mut broken = HashSet::new();
        broken.insert((0u32, 1u32));
        let sub = Subgraph::build(&m, &ps, PatchId(0), AngleId(0), [1.0, 0.0, 0.0], &broken);
        assert_eq!(sub.in_degree, vec![0, 0]);
        assert!(sub.int_dst.is_empty());
    }

    #[test]
    fn internal_csr_matches_edges() {
        let (m, ps) = setup();
        let sub = Subgraph::build(
            &m,
            &ps,
            PatchId(0),
            AngleId(0),
            [1.0, 1.0, 1.0],
            &HashSet::new(),
        );
        let csr = sub.internal_csr();
        assert_eq!(csr.num_edges(), sub.int_dst.len());
        assert!(crate::dag::is_acyclic(&csr));
    }

    /// The routing-table contract, edge by edge, against the mesh.
    fn check_routes<T: SweepTopology>(
        mesh: &T,
        ps: &PatchSet,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) {
        let subs = Subgraph::build_all(mesh, ps, AngleId(0), dir, broken);
        check_edge_degree_balance(&subs).unwrap();
        for sub in &subs {
            let nf = mesh.num_faces(0);
            assert_eq!(sub.faces_per_cell(), nf);
            assert_eq!(sub.num_slots(), sub.num_vertices() * nf);
            assert!(sub.nbrs.windows(2).all(|w| w[0] < w[1]), "nbrs ascending");
            let mut nbrs_used = vec![false; sub.nbrs.len()];
            for v in 0..sub.num_vertices() as u32 {
                let src = sub.cells[v as usize];
                assert_eq!(sub.first_slot(v), v as usize * nf);
                // (destination cell, source face, destination slot)
                let internal = sub.int_range(v).map(|k| {
                    let dst = sub.cells[sub.int_dst[k] as usize];
                    assert_eq!(ps.patch_of(dst as usize), sub.patch);
                    assert_eq!(sub.slot_vertex(sub.int_dslot[k]), sub.int_dst[k]);
                    (dst, sub.int_sface[k], sub.int_dslot[k])
                });
                let remote = sub.rem_range(v).map(|k| {
                    let re = sub.rem_dst[k];
                    assert_ne!(re.patch, sub.patch);
                    assert_eq!(ps.patch_of(re.cell as usize), re.patch);
                    assert_eq!(sub.nbrs[sub.rem_nbr[k] as usize], re.patch);
                    nbrs_used[sub.rem_nbr[k] as usize] = true;
                    let there = &subs[re.patch.index()];
                    let lv = there.slot_vertex(sub.rem_dslot[k]);
                    assert_eq!(there.cells[lv as usize], re.cell);
                    (re.cell, sub.rem_sface[k], sub.rem_dslot[k])
                });
                let edges: Vec<(u32, u8, u32)> = internal.chain(remote).collect();
                for &(dst, sface, dslot) in &edges {
                    let face = mesh.face(src as usize, sface as usize);
                    assert_eq!(face.neighbor.cell(), Some(dst as usize));
                    assert!(face.flow(dir) > 0.0, "edge through a non-outflow face");
                    assert!(!broken.contains(&(src, dst)), "broken edge kept");
                    let dface = face_toward(mesh, dst as usize, src as usize).unwrap();
                    assert_eq!(
                        dslot as usize,
                        ps.local_index(dst as usize) * nf + dface,
                        "slot = local_index(dst) * F + face_toward(dst, src)"
                    );
                }
                assert!(sub.int_sface[sub.int_range(v)]
                    .windows(2)
                    .all(|w| w[0] < w[1]));
                assert!(sub.rem_sface[sub.rem_range(v)]
                    .windows(2)
                    .all(|w| w[0] < w[1]));
                // No face missed: as many edges as a brute-force walk finds.
                let expect = (0..mesh.num_faces(src as usize))
                    .filter(|&f| {
                        let face = mesh.face(src as usize, f);
                        face.flow(dir) > 0.0
                            && face
                                .neighbor
                                .cell()
                                .is_some_and(|nb| !broken.contains(&(src, nb as u32)))
                    })
                    .count();
                assert_eq!(edges.len(), expect);
            }
            assert!(nbrs_used.iter().all(|&u| u), "a neighbour no edge names");
        }
    }

    #[test]
    fn routes_match_the_mesh_on_every_mesh_family_and_angle() {
        use jsweep_mesh::deformed::DeformedMesh;
        let hex = StructuredMesh::unit(5, 4, 3);
        let hex_ps = partition::decompose_structured(&hex, (2, 2, 2), 2);
        let tet = jsweep_mesh::tetgen::ball(3, 1.0);
        let tet_ps = partition::decompose_unstructured(&tet, 40, 2);
        let def = DeformedMesh::jittered(4, 4, 4, 0.3, 5);
        let def_ps = partition::rcb(&def, 4);
        for (_, o) in QuadratureSet::sn(4).iter() {
            check_routes(&hex, &hex_ps, o.dir, &HashSet::new());
            check_routes(&tet, &tet_ps, o.dir, &HashSet::new());
            // Cycle-broken: whatever the breaker removes, plus one
            // forced cut per direction so the path is always taken.
            let mut broken = crate::cycles::broken_edges_for_direction(&def, o.dir);
            let c = def.num_cells() / 2;
            broken.extend(
                def.downwind_neighbors(c, o.dir)
                    .first()
                    .map(|&nb| (c as u32, nb as u32)),
            );
            check_routes(&def, &def_ps, o.dir, &broken);
        }
    }

    #[test]
    fn tet_subgraphs_balance() {
        let m = jsweep_mesh::tetgen::ball(3, 1.0);
        let ps = partition::decompose_unstructured(&m, 40, 2);
        let q = QuadratureSet::sn(2);
        for (a, o) in q.iter().take(3) {
            let subs = Subgraph::build_all(&m, &ps, a, o.dir, &HashSet::new());
            check_edge_degree_balance(&subs).unwrap();
            for sub in &subs {
                assert!(crate::dag::is_acyclic(&sub.internal_csr()));
            }
        }
    }
}
