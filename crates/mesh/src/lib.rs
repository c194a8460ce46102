//! Mesh substrate for JSweep: patch-based structured and unstructured
//! meshes, in the spirit of the JAxMIN infrastructure the paper builds on.
//!
//! The computational domain is discretised into **cells**; contiguous
//! groups of cells form **patches** ([`patch::PatchSet`]); patches are
//! distributed over ranks by the decomposers in [`partition`]. Sweep
//! scheduling consumes meshes only through the [`SweepTopology`] trait,
//! which exposes per-cell face geometry (outward normals, areas,
//! neighbours) — the single piece of information a sweep direction needs
//! to orient its dependency DAG.
//!
//! Three mesh families are provided:
//!
//! * [`structured::StructuredMesh`] — regular axis-aligned hexahedral
//!   grids (JSNT-S / Kobayashi territory), with implicit geometry;
//! * [`deformed::DeformedMesh`] — structured connectivity with jittered
//!   vertex positions, producing the irregular dependencies the paper
//!   cites as motivation ("deforming structured meshes");
//! * [`tet::TetMesh`] — unstructured tetrahedral meshes (JSNT-U
//!   territory) with generators in [`tetgen`] for the ball and reactor
//!   shapes of Fig. 11 and uniform red refinement in [`refine`] for the
//!   weak-scaling study of Fig. 15.

#![deny(missing_docs)]

pub mod deformed;
pub mod partition;
pub mod patch;
pub mod refine;
pub mod sfc;
pub mod stats;
pub mod structured;
pub mod tet;
pub mod tetgen;

pub use patch::{PatchId, PatchSet};
pub use structured::StructuredMesh;
pub use tet::TetMesh;

/// Process-wide monotonic source of mesh generation stamps.
///
/// Starts at 1 so a stamp of 0 can never name a live mesh (useful as a
/// "no mesh" sentinel in caches).
static MESH_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Draw a fresh, process-unique generation stamp.
///
/// Every topology-constructing operation — `StructuredMesh::new`,
/// `TetMesh::new`, `DeformedMesh::jittered`, and therefore every
/// [`refine`] call — draws one, so two meshes share a stamp only when
/// one is a `clone()` of the other (identical topology by
/// construction). Downstream caches (the coarse-replay
/// `PlanCache` of `jsweep-transport`) key compiled scheduling state on
/// the stamp: any refinement or rebuild yields a stamp never seen
/// before, so stale plans can never be replayed.
pub fn next_generation() -> u64 {
    MESH_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Identifier a boundary face carries instead of a neighbouring cell.
///
/// Transport solvers map boundary ids to boundary conditions (vacuum,
/// reflective, prescribed incoming flux).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundaryId(pub u16);

/// What lies on the far side of a cell face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighbor {
    /// Another cell of the same mesh.
    Interior(usize),
    /// The domain boundary, tagged for boundary-condition lookup.
    Boundary(BoundaryId),
}

impl Neighbor {
    /// The interior neighbour, if any.
    #[inline]
    pub fn cell(self) -> Option<usize> {
        match self {
            Neighbor::Interior(c) => Some(c),
            Neighbor::Boundary(_) => None,
        }
    }

    /// True when the face lies on the domain boundary.
    #[inline]
    pub fn is_boundary(self) -> bool {
        matches!(self, Neighbor::Boundary(_))
    }
}

/// Geometry and connectivity of one face of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceInfo {
    /// What lies across the face.
    pub neighbor: Neighbor,
    /// Outward unit normal.
    pub normal: [f64; 3],
    /// Face area.
    pub area: f64,
}

impl FaceInfo {
    /// Signed flow rate `Ω·n A` of a sweep direction through this face;
    /// positive means outflow (the face is *downwind*), negative inflow
    /// (the face is *upwind*).
    #[inline]
    pub fn flow(&self, dir: [f64; 3]) -> f64 {
        (dir[0] * self.normal[0] + dir[1] * self.normal[1] + dir[2] * self.normal[2]) * self.area
    }
}

/// The face-level view of a mesh consumed by sweep-DAG construction and
/// transport kernels.
///
/// Implementations must present a *consistent* topology: if face `f` of
/// cell `a` reports `Neighbor::Interior(b)`, then exactly one face of `b`
/// reports `Neighbor::Interior(a)`, with an opposite normal and equal
/// area (up to floating-point tolerance).
pub trait SweepTopology: Sync {
    /// Total number of cells.
    fn num_cells(&self) -> usize;

    /// The mesh's topology generation stamp (see [`next_generation`]).
    ///
    /// Contract: two meshes with the same stamp have identical
    /// topology; any operation that produces a different topology
    /// (refinement, rebuild from scratch) produces a mesh with a fresh,
    /// strictly larger stamp. `clone()` keeps the stamp — the clone
    /// *is* the same topology. Sweep-plan caches use the stamp to
    /// invalidate compiled scheduling state.
    fn generation(&self) -> u64;

    /// Number of faces of cell `c` (6 for hexahedra, 4 for tetrahedra).
    fn num_faces(&self, c: usize) -> usize;

    /// Geometry/connectivity of face `f` of cell `c`.
    fn face(&self, c: usize, f: usize) -> FaceInfo;

    /// Cell volume.
    fn cell_volume(&self, c: usize) -> f64;

    /// Cell centroid.
    fn cell_centroid(&self, c: usize) -> [f64; 3];

    /// Interior neighbours of a cell, in face order.
    fn neighbors(&self, c: usize) -> Vec<usize> {
        (0..self.num_faces(c))
            .filter_map(|f| self.face(c, f).neighbor.cell())
            .collect()
    }

    /// Upwind interior neighbours of `c` for sweep direction `dir`
    /// (cells whose data `c` consumes).
    fn upwind_neighbors(&self, c: usize, dir: [f64; 3]) -> Vec<usize> {
        (0..self.num_faces(c))
            .filter_map(|f| {
                let face = self.face(c, f);
                if face.flow(dir) < 0.0 {
                    face.neighbor.cell()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Downwind interior neighbours of `c` for sweep direction `dir`
    /// (cells that consume `c`'s data).
    fn downwind_neighbors(&self, c: usize, dir: [f64; 3]) -> Vec<usize> {
        (0..self.num_faces(c))
            .filter_map(|f| {
                let face = self.face(c, f);
                if face.flow(dir) > 0.0 {
                    face.neighbor.cell()
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Index of the face of `cell` that touches interior neighbour
/// `neighbor`, or `None` when the two cells are not adjacent.
///
/// The single definition of face-toward-neighbour lookup shared by the
/// transport stack (fine stream ingest, the kernel's local downwind
/// write, and the replay plan compiler): their face-slot arithmetic
/// must agree exactly, because the replay wire format ships
/// sender-resolved slots the receiver indexes with.
pub fn face_toward<T: SweepTopology + ?Sized>(
    mesh: &T,
    cell: usize,
    neighbor: usize,
) -> Option<usize> {
    (0..mesh.num_faces(cell)).find(|&f| mesh.face(cell, f).neighbor == Neighbor::Interior(neighbor))
}

/// Cells partitioned into **geometry classes**: cells whose face count,
/// volume and every face's area and normal are bit-identical. Anything
/// computed from those alone for a direction (a transport kernel's
/// face flows, its upwind pairing) is then bit-identical across a
/// class, so it can be computed once per class and direction from the
/// class's representative instead of once per cell.
///
/// A uniform [`StructuredMesh`] is one class; a Kuhn-subdivided tet cube
/// has a few hundred (rounding in the generated coordinates splits the
/// six tet shapes); a jittered mesh has one class per cell, the worst
/// case.
#[derive(Debug, Clone)]
pub struct GeomClasses {
    /// Class index of every cell.
    pub class_of: Vec<u32>,
    /// Representative cell of every class: its lowest-numbered member.
    /// Classes are numbered in the order their representatives appear.
    pub reps: Vec<u32>,
}

impl GeomClasses {
    /// One hashing pass over the mesh. A cell shaped like the one before
    /// it (every cell of a uniform structured mesh) skips the hash.
    pub fn new<T: SweepTopology + ?Sized>(mesh: &T) -> GeomClasses {
        let n = mesh.num_cells();
        let mut index: std::collections::HashMap<Vec<u64>, u32> = Default::default();
        let mut class_of = Vec::with_capacity(n);
        let mut reps = Vec::new();
        let (mut key, mut prev) = (Vec::new(), Vec::new());
        for c in 0..n {
            key.clear();
            let nf = mesh.num_faces(c);
            key.extend([nf as u64, mesh.cell_volume(c).to_bits()]);
            for f in 0..nf {
                let face = mesh.face(c, f);
                key.extend(face.normal.map(f64::to_bits));
                key.push(face.area.to_bits());
            }
            let class = if c > 0 && key == prev {
                class_of[c - 1]
            } else if let Some(&class) = index.get(key.as_slice()) {
                class
            } else {
                let class = reps.len() as u32;
                index.insert(key.clone(), class);
                reps.push(c as u32);
                class
            };
            class_of.push(class);
            std::mem::swap(&mut key, &mut prev);
        }
        GeomClasses { class_of, reps }
    }
}

/// Check the symmetry contract of [`SweepTopology`] on a whole mesh;
/// used by tests and available to downstream validation.
///
/// Returns a human-readable description of the first violation found.
pub fn validate_topology<T: SweepTopology + ?Sized>(mesh: &T) -> Result<(), String> {
    for c in 0..mesh.num_cells() {
        let vol = mesh.cell_volume(c);
        if !(vol.is_finite() && vol > 0.0) {
            return Err(format!("cell {c} has non-positive volume {vol}"));
        }
        for f in 0..mesh.num_faces(c) {
            let face = mesh.face(c, f);
            let n2: f64 = face.normal.iter().map(|x| x * x).sum();
            if (n2 - 1.0).abs() > 1e-9 {
                return Err(format!("cell {c} face {f}: normal not unit ({n2})"));
            }
            if !(face.area.is_finite() && face.area > 0.0) {
                return Err(format!("cell {c} face {f}: bad area {}", face.area));
            }
            if let Neighbor::Interior(nb) = face.neighbor {
                if nb >= mesh.num_cells() {
                    return Err(format!("cell {c} face {f}: neighbor {nb} out of range"));
                }
                if nb == c {
                    return Err(format!("cell {c} face {f}: self-neighbor"));
                }
                // Find the reciprocal face.
                let mut found = false;
                for g in 0..mesh.num_faces(nb) {
                    let back = mesh.face(nb, g);
                    if back.neighbor == Neighbor::Interior(c) {
                        let dot: f64 = (0..3).map(|i| back.normal[i] * face.normal[i]).sum();
                        if dot > -1.0 + 1e-6 {
                            return Err(format!(
                                "cells {c}/{nb}: reciprocal normals not opposite (dot {dot})"
                            ));
                        }
                        if (back.area - face.area).abs() > 1e-9 * face.area.max(1.0) {
                            return Err(format!(
                                "cells {c}/{nb}: reciprocal areas differ ({} vs {})",
                                face.area, back.area
                            ));
                        }
                        found = true;
                        break;
                    }
                }
                if !found {
                    return Err(format!("cell {c} face {f}: neighbor {nb} lacks back-face"));
                }
            }
        }
    }
    Ok(())
}

/// Divergence-theorem check: for every closed cell, `∑ n·A` over the
/// faces must vanish. Returns the worst residual norm over the mesh.
pub fn max_face_closure_residual<T: SweepTopology + ?Sized>(mesh: &T) -> f64 {
    let mut worst = 0f64;
    for c in 0..mesh.num_cells() {
        let mut acc = [0f64; 3];
        for f in 0..mesh.num_faces(c) {
            let face = mesh.face(c, f);
            for (a, n) in acc.iter_mut().zip(&face.normal) {
                *a += n * face.area;
            }
        }
        let norm = (acc[0] * acc[0] + acc[1] * acc[1] + acc[2] * acc[2]).sqrt();
        worst = worst.max(norm);
    }
    worst
}
