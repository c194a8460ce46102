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
//! only module that knows how a face flux is addressed. Every edge
//! *into* a local cell owns one *slot* of the task's incoming face-flux
//! storage, so [`Subgraph::num_slots`] is `Σ in_degree`: a cell's slots
//! are contiguous ([`Subgraph::in_slots`], offsets the prefix sum of
//! `in_degree`) and hold its inflow faces in ascending face order
//! ([`Subgraph::slot_face`]). Boundary-inflow, cycle-broken, flow-0
//! and downwind faces have no edge into the cell and so no storage —
//! the kernel reads them as vacuum. Every CSR edge carries the face of
//! the source cell it leaves through and the slot it lands in:
//! [`Subgraph::int_dslot`] in this task's own storage,
//! [`Subgraph::rem_dslot`] in the storage of the same-angle task on the
//! destination patch — the number a stream ships, which the receiver
//! maps back to the vertex it feeds with [`Subgraph::slot_vertex`].
//! A remote slot is numbered by the destination patch, so the
//! subgraphs of one direction are built together
//! ([`Subgraph::build_all`], `SweepProblem::build`): every patch is
//! oriented first, then every remote edge is resolved against its
//! destination's slots. The patches the task sends to are numbered once
//! ([`Subgraph::nbrs`], ascending) and every remote edge names its
//! destination by that ordinal ([`Subgraph::rem_nbr`]), so the sweep
//! hot loop moves face fluxes by iterating the two CSR ranges of a
//! solved cell: no adjacency query, no map, no address arithmetic
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
    /// Faces per cell.
    faces: u32,
    /// Slot offsets: vertex `v` owns slots `slot_off[v]..slot_off[v + 1]`
    /// (the prefix sum of `in_degree`).
    slot_off: Vec<u32>,
    /// Per slot: the face of its vertex the flux enters through.
    slot_face: Vec<u8>,
    /// Per slot: the vertex that reads it.
    slot_owner: Vec<u32>,
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
    /// Its face leading back here (`face_toward`): the face a flux
    /// sent across enters through.
    back: u8,
}

/// The direction-independent half of a patch's subgraphs: per
/// `(local cell, face)`, the neighbour and the face a flux sent across
/// enters it through. Walked off the mesh once per patch;
/// [`Subgraph::orient_all`] then orients the patches of a
/// decomposition for each sweep direction with one flow sign per face
/// and no further adjacency queries.
#[derive(Debug, Clone)]
pub(crate) struct PatchLinks {
    patch: PatchId,
    cells: Vec<u32>,
    /// Faces per cell: `links` holds one row of `faces` per local cell.
    faces: u32,
    links: Vec<FaceLink>,
}

impl PatchLinks {
    /// Walk the faces of patch `patch`.
    ///
    /// Panics on a mixed-element mesh: the kernel's per-cell face
    /// count is shared by the patch and every patch it touches.
    pub(crate) fn new<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: &PatchSet,
        patch: PatchId,
    ) -> PatchLinks {
        let cells: Vec<u32> = patches.cells(patch).to_vec();
        let nf = cells.first().map_or(0, |&c| mesh.num_faces(c as usize));
        assert!(nf <= 64, "{nf} faces per cell do not fit a u64 face mask");
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
                        back: 0, // filled below
                    },
                    None => FaceLink {
                        cell: NO_NEIGHBOR,
                        patch,
                        local: 0,
                        back: 0,
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
                links[k].back = back.expect("neighbour without reciprocal face") as u8;
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

/// One patch oriented for one direction, its remote slots not yet
/// resolved — private to [`Subgraph::orient_all`], so no caller sees a
/// subgraph in that state.
struct Oriented {
    /// The subgraph, `rem_dslot` still empty.
    sub: Subgraph,
    /// Per local cell, the faces an edge enters it by (bit `f` = face
    /// `f`).
    in_mask: Vec<u64>,
    /// Per remote edge, the `(local vertex, entry face)` it lands on in
    /// the destination patch.
    rem_entry: Vec<(u32, u8)>,
}

/// The slot of local vertex `v`'s in-edge through face `face`: `v`'s
/// first slot plus its in-edges through lower faces. Panics when no
/// edge enters `v` by that face — the edge and its destination disagree
/// on the face's flow sign.
fn slot_in(slot_off: &[u32], in_mask: &[u64], v: u32, face: u8) -> u32 {
    let m = in_mask[v as usize];
    assert!(
        m >> face & 1 == 1,
        "edge into a face its cell does not count as inflow"
    );
    slot_off[v as usize] + (m & ((1u64 << face) - 1)).count_ones()
}

/// The faces set in a face mask, ascending.
fn mask_faces(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let f = m.trailing_zeros() as usize;
            m &= m - 1;
            f
        })
    })
}

impl Subgraph {
    /// Orient every patch of a decomposition for direction `dir`
    /// (`links[i]` walks patch `i`), then resolve each remote edge's
    /// slot against its destination patch's numbering — so no subgraph
    /// leaves here with a remote slot unresolved.
    ///
    /// `broken` lists `(src_cell, dst_cell)` global pairs removed by the
    /// cycle breaker; pass an empty set for ordinary meshes.
    pub(crate) fn orient_all<T: SweepTopology + ?Sized>(
        links: &[PatchLinks],
        mesh: &T,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Vec<Subgraph> {
        let oriented: Vec<Oriented> = links
            .iter()
            .enumerate()
            .map(|(i, l)| {
                assert_eq!(l.patch.index(), i, "links out of patch order");
                Subgraph::orient(l, mesh, angle, dir, broken)
            })
            .collect();
        let rem_dslot: Vec<Vec<u32>> = oriented
            .iter()
            .map(|o| {
                o.sub
                    .rem_dst
                    .iter()
                    .zip(&o.rem_entry)
                    .map(|(re, &(local, back))| {
                        let there = &oriented[re.patch.index()];
                        slot_in(&there.sub.slot_off, &there.in_mask, local, back)
                    })
                    .collect()
            })
            .collect();
        oriented
            .into_iter()
            .zip(rem_dslot)
            .map(|(o, rem_dslot)| Subgraph { rem_dslot, ..o.sub })
            .collect()
    }

    /// Orient one patch's [`PatchLinks`] for direction `dir`: every
    /// face with outflow becomes a CSR edge carrying its source face,
    /// every face with inflow a unit of in-degree and a slot. Internal
    /// edges get their slot here; remote ones come back as the
    /// `(local vertex, entry face)` they land on, for
    /// [`Subgraph::orient_all`] to resolve.
    fn orient<T: SweepTopology + ?Sized>(
        links: &PatchLinks,
        mesh: &T,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Oriented {
        let patch = links.patch;
        let cells = links.cells.clone();
        let n = cells.len();
        let nf = links.faces as usize;

        // One flow sign per face, once: per cell, the faces an edge
        // enters by and the faces one leaves by. A face parallel to the
        // direction (flow 0) or whose edge the cycle breaker removed is
        // neither.
        let mut in_mask = vec![0u64; n];
        let mut out_mask = vec![0u64; n];
        for (li, &cell) in cells.iter().enumerate() {
            for (f, link) in links.links[li * nf..(li + 1) * nf].iter().enumerate() {
                if link.cell == NO_NEIGHBOR {
                    continue;
                }
                let flow = mesh.face(cell as usize, f).flow(dir);
                if flow < 0.0 && !broken.contains(&(link.cell, cell)) {
                    in_mask[li] |= 1 << f;
                } else if flow > 0.0 && !broken.contains(&(cell, link.cell)) {
                    out_mask[li] |= 1 << f;
                }
            }
        }

        // Slots: one per in-edge, a cell's contiguous in ascending face
        // order.
        let in_degree: Vec<u32> = in_mask.iter().map(|m| m.count_ones()).collect();
        let mut slot_off = Vec::with_capacity(n + 1);
        let mut num_slots = 0u32;
        slot_off.push(num_slots);
        for &d in &in_degree {
            num_slots = num_slots
                .checked_add(d)
                .expect("face-flux slot exceeds u32");
            slot_off.push(num_slots);
        }
        let num_slots = num_slots as usize;
        let (mut slot_face, mut slot_owner) =
            (Vec::with_capacity(num_slots), Vec::with_capacity(num_slots));
        for (li, &m) in in_mask.iter().enumerate() {
            for f in mask_faces(m) {
                slot_face.push(f as u8);
                slot_owner.push(li as u32);
            }
        }

        // Edges: cells in local order and faces ascending, so the lists
        // come out CSR-packed as they are pushed. Internal edges land in
        // this patch's slots: at most as many of them as slots.
        let mut int_off = vec![0u32; n + 1];
        let mut rem_off = vec![0u32; n + 1];
        let (mut int_dst, mut int_sface, mut int_dslot) = (
            Vec::with_capacity(num_slots),
            Vec::with_capacity(num_slots),
            Vec::with_capacity(num_slots),
        );
        let (mut rem_dst, mut rem_sface, mut rem_entry) = (Vec::new(), Vec::new(), Vec::new());
        for (li, &m) in out_mask.iter().enumerate() {
            for f in mask_faces(m) {
                let link = links.links[li * nf + f];
                if link.patch == patch {
                    int_dst.push(link.local);
                    int_sface.push(f as u8);
                    int_dslot.push(slot_in(&slot_off, &in_mask, link.local, link.back));
                } else {
                    rem_dst.push(RemoteEdge {
                        patch: link.patch,
                        cell: link.cell,
                    });
                    rem_sface.push(f as u8);
                    rem_entry.push((link.local, link.back));
                }
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

        Oriented {
            sub: Subgraph {
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
                rem_dslot: Vec::new(),
                rem_nbr,
                nbrs,
                faces: links.faces,
                slot_off,
                slot_face,
                slot_owner,
            },
            in_mask,
            rem_entry,
        }
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.cells.len()
    }

    /// Faces per cell.
    pub fn faces_per_cell(&self) -> usize {
        self.faces as usize
    }

    /// Slots of this task's incoming face-flux storage: one per edge
    /// into a local cell (`Σ in_degree`).
    pub fn num_slots(&self) -> usize {
        self.slot_face.len()
    }

    /// The slots local vertex `v` reads, one per inflow face in
    /// ascending face order.
    #[inline]
    pub fn in_slots(&self, v: u32) -> std::ops::Range<usize> {
        self.slot_off[v as usize] as usize..self.slot_off[v as usize + 1] as usize
    }

    /// The face of its vertex the flux in `slot` enters through.
    #[inline]
    pub fn slot_face(&self, slot: usize) -> usize {
        self.slot_face[slot] as usize
    }

    /// The local vertex that reads `slot`.
    #[inline]
    pub fn slot_vertex(&self, slot: u32) -> u32 {
        self.slot_owner[slot as usize]
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

    /// Build `G_{p,t}` for every patch `p` of `patches` and direction
    /// `dir`, indexed by patch. (Several directions over one
    /// decomposition: `SweepProblem::build` walks the face adjacency
    /// once and orients it per direction.)
    ///
    /// `broken` lists `(src_cell, dst_cell)` global pairs removed by the
    /// cycle breaker; pass an empty set for ordinary meshes.
    pub fn build_all<T: SweepTopology + ?Sized>(
        mesh: &T,
        patches: &PatchSet,
        angle: AngleId,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Vec<Subgraph> {
        let links: Vec<PatchLinks> = patches
            .patches()
            .map(|p| PatchLinks::new(mesh, patches, p))
            .collect();
        Subgraph::orient_all(&links, mesh, angle, dir, broken)
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
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new())
            .swap_remove(0);
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
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.5, 0.25], &HashSet::new())
            .swap_remove(0);
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
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 0.0, 0.0], &broken).swap_remove(0);
        assert_eq!(sub.in_degree, vec![0, 0]);
        assert!(sub.int_dst.is_empty());
    }

    #[test]
    fn internal_csr_matches_edges() {
        let (m, ps) = setup();
        let sub = Subgraph::build_all(&m, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new())
            .swap_remove(0);
        let csr = sub.internal_csr();
        assert_eq!(csr.num_edges(), sub.int_dst.len());
        assert!(crate::dag::is_acyclic(&csr));
    }

    /// The routing-table and slot contract, edge by edge and slot by
    /// slot, against the mesh.
    fn check_routes<T: SweepTopology>(
        mesh: &T,
        ps: &PatchSet,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) {
        let subs = Subgraph::build_all(mesh, ps, AngleId(0), dir, broken);
        check_edge_degree_balance(&subs).unwrap();
        // Writers per slot of every patch: its own internal edges and
        // its neighbours' remote edges.
        let mut writers: Vec<Vec<u32>> = subs.iter().map(|s| vec![0; s.num_slots()]).collect();
        for sub in &subs {
            for &s in &sub.int_dslot {
                writers[sub.patch.index()][s as usize] += 1;
            }
            for (re, &s) in sub.rem_dst.iter().zip(&sub.rem_dslot) {
                writers[re.patch.index()][s as usize] += 1;
            }
        }
        for sub in &subs {
            let nf = mesh.num_faces(0);
            assert_eq!(sub.faces_per_cell(), nf);
            let in_edges: u32 = sub.in_degree.iter().sum();
            assert_eq!(sub.num_slots(), in_edges as usize, "one slot per in-edge");
            assert!(
                writers[sub.patch.index()].iter().all(|&w| w == 1),
                "a slot without exactly one writer"
            );
            assert!(sub.nbrs.windows(2).all(|w| w[0] < w[1]), "nbrs ascending");
            let mut nbrs_used = vec![false; sub.nbrs.len()];
            let mut next_slot = 0;
            for v in 0..sub.num_vertices() as u32 {
                let src = sub.cells[v as usize];
                // Contiguous, in vertex order, one per in-edge, faces
                // ascending.
                let slots = sub.in_slots(v);
                assert_eq!(slots.start, next_slot, "slots of consecutive vertices abut");
                assert_eq!(slots.len(), sub.in_degree[v as usize] as usize);
                assert!(slots.clone().all(|s| sub.slot_vertex(s as u32) == v));
                assert!(sub.slot_face[slots.clone()].windows(2).all(|w| w[0] < w[1]));
                next_slot = slots.end;
                // (destination cell, source face, destination slot, the
                // subgraph owning that slot)
                let internal = sub.int_range(v).map(|k| {
                    let dst = sub.cells[sub.int_dst[k] as usize];
                    assert_eq!(ps.patch_of(dst as usize), sub.patch);
                    (dst, sub.int_sface[k], sub.int_dslot[k], sub)
                });
                let remote = sub.rem_range(v).map(|k| {
                    let re = sub.rem_dst[k];
                    assert_ne!(re.patch, sub.patch);
                    assert_eq!(ps.patch_of(re.cell as usize), re.patch);
                    assert_eq!(sub.nbrs[sub.rem_nbr[k] as usize], re.patch);
                    nbrs_used[sub.rem_nbr[k] as usize] = true;
                    (
                        re.cell,
                        sub.rem_sface[k],
                        sub.rem_dslot[k],
                        &subs[re.patch.index()],
                    )
                });
                let edges: Vec<(u32, u8, u32, &Subgraph)> = internal.chain(remote).collect();
                for &(dst, sface, dslot, there) in &edges {
                    let face = mesh.face(src as usize, sface as usize);
                    assert_eq!(face.neighbor.cell(), Some(dst as usize));
                    assert!(face.flow(dir) > 0.0, "edge through a non-outflow face");
                    assert!(!broken.contains(&(src, dst)), "broken edge kept");
                    // The slot maps back to (dst, face_toward(dst, src)).
                    let lv = there.slot_vertex(dslot);
                    assert_eq!(there.cells[lv as usize], dst, "slot read by another cell");
                    assert_eq!(
                        Some(there.slot_face(dslot as usize)),
                        face_toward(mesh, dst as usize, src as usize),
                        "slot entered through another face"
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
            assert_eq!(next_slot, sub.num_slots(), "slots past the last vertex");
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
