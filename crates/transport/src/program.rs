//! `SweepPatchProgram` — paper Listing 1, with real physics attached.
//!
//! A program is one `(patch, angle)` sweep task. Its local context is
//! the scheduling state plus the physics state: incoming face-flux
//! storage for the edges into local cells whose flux outlives a compute
//! call and the per-angle scalar-flux contribution. The scheduling
//! state comes in two flavours, fixed for the life of the program by
//! whether [`SweepSetup::plan`] holds a compiled replay plan:
//!
//! * **Fine** ([`jsweep_graph::SweepState`]: per-vertex counters +
//!   ready priority queue) — the DAG-driven sweep, every iteration of a
//!   solve with coarsening off;
//! * **Coarse** ([`jsweep_graph::coarse::CoarseSweepState`] over a
//!   [`ReplayTask`]) — the §V-E replay, every iteration of a solve with
//!   coarsening on: `compute()` pops one whole coarse vertex, executes
//!   its compiled vertex list in order, and emits exactly one stream per
//!   outgoing coarse edge, with no per-vertex bookkeeping.
//!
//! The data plane is compiled, not derived: the task's [`Subgraph`]
//! carries, per CSR edge, the source face and the destination
//! face-flux *slot*, and numbers the patches the task sends to. How a
//! slot maps to storage is the subgraph's business alone: one slot per
//! edge into a cell, a cell's slots contiguous in ascending face order.
//! This module gathers a cell's upwind block from
//! [`Subgraph::in_slots`] / [`Subgraph::slot_face`] into the kernel's
//! dense face-major view and writes wherever an edge's `*_dslot` says
//! (the mesh-walking derivation survives only in `solve_serial` and in
//! this module's test oracle).
//!
//! Where a slot's flux *lives* is the one thing `kernel_cluster`'s
//! single body is parameterised by (`SlotLayout`):
//!
//! * **every slot stored** (`StoredSlots`): `face_flux` holds
//!   [`Subgraph::num_slots`] (`Σ in_degree`) × `groups` values. Fine
//!   mode always runs this way, and so does replay below
//!   [`GROUP_BLOCK`] groups;
//! * **in-cluster edges in scratch** ([`ReplayLayout`], replay at
//!   `groups ≥ GROUP_BLOCK`): a coarse vertex is solved in one call, so
//!   an edge with both ends in it is written and read within that call
//!   (the cluster is in topological order). Such a slot lives in the
//!   worker thread's cluster scratch — `groups` values per in-cluster
//!   slot of the running cluster, addressed like a `face_flux` slot,
//!   overwritten by the next call, shared by every program the thread
//!   runs — and only the other slots (remote in-edges, edges between
//!   coarse vertices) are stored: `face_flux` holds the layout's
//!   [`ReplayLayout::persistent_slots`] × `groups` values. Below a full
//!   group block the layout's per-slot address word costs more time
//!   than its bytes save, so `replay_uses_cluster_scratch` keeps it
//!   to `groups ≥ GROUP_BLOCK` (measurements in `docs/replay.md`).
//!
//! Cell geometry is compiled too. [`SweepFactory::new`] builds one
//! [`CellGeom`] per geometry class ([`jsweep_mesh::GeomClasses`], found
//! by [`SweepProblem::build`]) and angle, one table per angle shared by
//! that angle's programs. `kernel_cluster` reads a cell's entry
//! through `class_of`, so no iteration asks the mesh anything: a
//! program holds no mesh at all.
//!
//! **One stream payload** serves both modes (`jsweep_comm::pack`
//! little-endian words): `u32 head`, `u32 n`, `n × u32 slot`
//! ([`Subgraph::rem_dslot`] of the sender's edges, i.e. slots of the
//! *receiving* task's subgraph), `n × groups × f64` flux. `head` is the
//! destination cluster in replay — one `receive(head)` covers the
//! whole stream — and the `PER_SLOT` sentinel in fine mode, where
//! every slot feeds the vertex that owns it
//! ([`Subgraph::slot_vertex`]). `put_prefix` writes the constant part
//! (`head`, `n`, slots), `Physics::emit` appends the flux, and
//! [`SweepProgram`]'s `input` is the one decoder: it checks the whole
//! payload — length, every slot (in range, and stored by the armed
//! layout), the counters — before it writes anything, then stores each
//! slot's flux where the armed layout keeps it. Replay pre-packs each
//! coarse edge's prefix at plan-compile time
//! ([`crate::replay::ReplayTask::skeletons`]), so packing a replay
//! stream is one memcpy plus the flux writes; fine mode sorts a
//! cluster's remote edges into one index list per destination
//! ([`Subgraph::rem_nbr`]) and packs each list the same way.
//!
//! Under a persistent universe (`jsweep_core::Universe`) the programs
//! stay resident for the whole solve, each source iteration one epoch
//! whose [`SweepEpoch`] (emission density, materials) is all that
//! changes. The replay plan is a pure function of the problem and the
//! grain, so it is *shape*: the factory builds a program's ids,
//! geometry, routing, the scheduling state of its setup's one schedule
//! and the buffers that state sizes. `reset` installs the epoch's data,
//! re-arms the state in place, takes the accumulator back and zeroes
//! nothing. No `face_flux` slot needs it: each is the target of exactly
//! one edge (an [`Subgraph::int_dslot`] of this task or a
//! [`Subgraph::rem_dslot`] of a neighbour's), whose one write per epoch
//! the sweep DAG orders before the slot's one read, and a scratch entry
//! is written before it is read within its call. A face with no edge
//! into its cell (boundary inflow, cycle-broken, downwind) has no slot:
//! `kernel_cluster` reads the vacuum `0.0` of its zeroed stack gather.
//! Nor does `phi_part`: each vertex is computed once per epoch and
//! `kernel_cluster` stores all its groups. A completing program lends
//! the accumulator to its [`TaskSlot`] in the world's [`EpochSink`], the
//! driver folds the slots from `+0.0`, and the next `reset` takes it back.

use crate::kernel::{solve_cell_block_geom, CellGeom, KernelKind, GROUP_BLOCK, KERNEL_MAX_FACES};
use crate::replay::{CoarsePlan, ReplayTask};
use crate::xs::MaterialSet;
use bytes::Bytes;
use jsweep_comm::pack::Writer;
use jsweep_core::{
    ComputeCtx, EpochInput, PatchProgram, ProgramFactory, ProgramId, Stream, TaskTag,
};
use jsweep_graph::coarse::{CoarseSweepState, ReplayLayout, SlotAddr};
use jsweep_graph::{Subgraph, SweepProblem, SweepState};
use jsweep_mesh::{PatchId, SweepTopology};
use jsweep_quadrature::{AngleId, QuadratureSet};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::Arc;

/// What one `(patch, angle)` task leaves behind for the driver when its
/// sweep state completes. (ROADMAP item 6's lagged-flux side vector
/// becomes one more field here.)
#[derive(Default)]
pub struct TaskSlot {
    /// `w_a · ψ̄` per local cell × group. Empty until the task hands it
    /// over in its one `finish_task`, and again once the task's program
    /// has taken the buffer back in its next `reset` — one accumulator
    /// per task for the life of a universe, so replay epochs allocate
    /// none.
    pub phi_part: Vec<f64>,
}

/// The world-owned output of an epoch: one [`TaskSlot`] per task,
/// indexed by [`SweepProblem::tid`]. The shape is fixed by the problem,
/// so nothing is pooled or searched: a program writes its own slot once
/// per epoch and the driver reads every slot after the epoch. A sink
/// never outlives the universe that wrote it
/// (`EpochWorld::retire` installs a fresh one), so what a
/// faulted epoch left in some slots cannot reach a later fold.
pub struct EpochSink {
    slots: Vec<Mutex<TaskSlot>>,
}

impl EpochSink {
    /// Empty slots for `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> EpochSink {
        EpochSink {
            slots: (0..num_tasks).map(|_| Mutex::default()).collect(),
        }
    }

    /// Task `tid`'s slot.
    pub fn slot(&self, tid: usize) -> MutexGuard<'_, TaskSlot> {
        self.slots[tid].lock()
    }

    /// Sum the finished epoch's contributions into `φ_new`, patch by
    /// patch and in angle order within a patch, so the floating-point
    /// result is independent of scheduling order. The buffers stay in
    /// their slots for their programs to take back. Tasks that handed
    /// nothing over (another process's patches under SPMD, empty
    /// patches) contribute nothing.
    pub fn fold(&self, problem: &SweepProblem, groups: usize) -> Vec<f64> {
        let mut phi_new = vec![0.0; problem.patches.num_cells() * groups];
        for p in problem.patches.patches() {
            let cells = problem.patches.cells(p);
            for a in 0..problem.num_angles {
                let slot = self.slot(problem.tid(p.index(), a));
                let part = &slot.phi_part;
                if part.is_empty() {
                    continue;
                }
                assert_eq!(part.len(), cells.len() * groups);
                for (li, &cell) in cells.iter().enumerate() {
                    for g in 0..groups {
                        phi_new[cell as usize * groups + g] += part[li * groups + g];
                    }
                }
            }
        }
        phi_new
    }
}

/// Per-epoch input of a sweep universe: everything that changes
/// between source iterations. Handed to
/// `jsweep_core::Universe::run_epoch`; every [`SweepProgram`]
/// downcasts it in its [`PatchProgram::reset`].
pub struct SweepEpoch {
    /// This iteration's emission density `(σ_s φ + Q)/4π` per
    /// `cell * groups + g`.
    pub emission: Arc<Vec<f64>>,
    /// This iteration's cross sections (same mesh, same group count —
    /// the buffer shapes are fixed by [`SweepSetup::groups`]). Riding
    /// in the epoch is what lets one resident session universe serve
    /// solve requests with different material sets.
    pub materials: Arc<MaterialSet>,
}

/// The shape every sweep program of a universe shares: what stays
/// fixed across its epochs.
pub struct SweepSetup<T: SweepTopology + Send + Sync + 'static> {
    /// The mesh.
    pub mesh: Arc<T>,
    /// Compiled subgraphs + priorities.
    pub problem: Arc<SweepProblem>,
    /// Quadrature set (directions + weights).
    pub quadrature: QuadratureSet,
    /// Energy groups: the stride of every per-cell buffer.
    pub groups: usize,
    /// Cell kernel.
    pub kernel: KernelKind,
    /// Vertex clustering grain `N`.
    pub grain: usize,
    /// The §V-E replay plan every program replays, compiled before the
    /// first epoch; `None` runs the fine DAG-driven sweep.
    pub plan: Option<Arc<CoarsePlan>>,
    /// Where every task leaves its epoch output.
    pub sink: Arc<EpochSink>,
}

/// The factory handed to the JSweep runtime: one program per
/// `(patch, angle)`.
pub struct SweepFactory<T: SweepTopology + Send + Sync + 'static> {
    setup: SweepSetup<T>,
    /// `geoms[angle][class]`: the [`CellGeom`] of every cell of that
    /// geometry class for that angle; each program shares its angle's.
    geoms: Vec<Arc<Vec<CellGeom>>>,
}

impl<T: SweepTopology + Send + Sync + 'static> SweepFactory<T> {
    /// Wrap a setup and compile its geometry table. (A mixed-element
    /// mesh never gets this far: `SweepProblem::build` rejects it.)
    /// Panics here, not mid-epoch, on cells with more faces than
    /// [`KERNEL_MAX_FACES`] and on diamond difference over non-hex cells.
    pub fn new(setup: SweepSetup<T>) -> SweepFactory<T> {
        assert!(setup.grain > 0 && setup.groups > 0);
        let (mesh, classes) = (setup.mesh.as_ref(), &setup.problem.geom_classes);
        let geoms: Vec<Arc<Vec<CellGeom>>> = (0..setup.problem.num_angles)
            .map(|a| {
                let dir = setup.quadrature.direction(AngleId(a as u32));
                Arc::new(CellGeom::per_class(mesh, classes, dir))
            })
            .collect();
        if setup.kernel == KernelKind::DiamondDifference {
            assert!(
                geoms[0].iter().all(|g| g.nf == 6),
                "diamond difference needs hexahedral cells"
            );
        }
        SweepFactory { setup, geoms }
    }
}

/// `head` of a fine-mode stream: every slot feeds the vertex that owns
/// it. (Replay streams carry their destination cluster there.)
pub(crate) const PER_SLOT: u32 = u32::MAX;

/// Append the constant part of a stream payload to `buf`: `head`, the
/// item count and, for every remote-CSR edge of `sub` listed in `rem`,
/// the slot it lands in on the receiving task.
pub(crate) fn put_prefix(buf: &mut Vec<u8>, head: u32, sub: &Subgraph, rem: &[u32]) {
    buf.extend_from_slice(&head.to_le_bytes());
    buf.extend_from_slice(&(rem.len() as u32).to_le_bytes());
    for &k in rem {
        buf.extend_from_slice(&sub.rem_dslot[k as usize].to_le_bytes());
    }
}

/// Where a compute call finds its task's face-flux slots (module docs):
/// `face_flux`, or the worker's cluster scratch.
trait SlotLayout {
    /// Where fine slot `slot` lives.
    fn slot(&self, slot: usize) -> SlotAddr;
    /// Where internal edge `k` of `sub` writes.
    fn int_edge(&self, sub: &Subgraph, k: usize) -> SlotAddr;
}

/// Every slot in `face_flux`, at its fine slot.
struct StoredSlots;

impl SlotLayout for StoredSlots {
    #[inline(always)]
    fn slot(&self, slot: usize) -> SlotAddr {
        SlotAddr::Persistent(slot)
    }

    #[inline(always)]
    fn int_edge(&self, sub: &Subgraph, k: usize) -> SlotAddr {
        SlotAddr::Persistent(sub.int_dslot[k] as usize)
    }
}

impl SlotLayout for ReplayLayout {
    #[inline(always)]
    fn slot(&self, slot: usize) -> SlotAddr {
        ReplayLayout::slot(self, slot)
    }

    #[inline(always)]
    fn int_edge(&self, _: &Subgraph, k: usize) -> SlotAddr {
        ReplayLayout::int_edge(self, k)
    }
}

/// Whether replay at `groups` energy groups keeps in-cluster edges in
/// the worker's cluster scratch ([`ReplayLayout`]): only when a slot
/// holds at least one full group block. Below that, the layout's
/// address word per slot access costs more time than its bytes save.
pub(crate) fn replay_uses_cluster_scratch(groups: usize) -> bool {
    groups >= GROUP_BLOCK
}

/// The layout a coarse program replaying `task` at `groups` groups
/// arms: its compiled [`ReplayLayout`], or `None` for [`StoredSlots`].
fn armed_layout<'t>(
    task: &'t ReplayTask,
    sub: &Subgraph,
    groups: usize,
) -> Option<&'t ReplayLayout> {
    replay_uses_cluster_scratch(groups).then(|| task.coarse.replay_layout(sub))
}

/// Where `layout` (`None`: [`StoredSlots`]) stores fine slot `slot` in
/// `face_flux`; `None` for a slot it keeps in the cluster scratch.
fn stored_slot(layout: Option<&ReplayLayout>, slot: usize) -> Option<usize> {
    match layout.map_or(SlotAddr::Persistent(slot), |l| l.slot(slot)) {
        SlotAddr::Persistent(p) => Some(p),
        SlotAddr::Scratch(_) => None,
    }
}

thread_local! {
    /// The calling worker's scratch for the running coarse vertex's
    /// in-cluster slots, `groups` values each, addressed like a
    /// `face_flux` slot. Written before it is read within one compute
    /// call, so one buffer per worker thread serves every program the
    /// thread runs (module docs).
    static CLUSTER_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` over the calling thread's cluster scratch, `entries` slots
/// of `groups` values long.
fn with_cluster_scratch<R>(entries: usize, groups: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    CLUSTER_SCRATCH.with_borrow_mut(|scratch| {
        let len = entries * groups;
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch[..len])
    })
}

/// The little-endian `u32` words of `bytes`.
fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
}

/// Per-program scheduling state, built by the factory for the
/// schedule its setup names and re-armed in place by every `reset`.
/// Each schedule owns what only it uses, so its compute and its stream
/// decode see exactly their own state and the shared [`Physics`].
enum Sched {
    Fine(Fine),
    Coarse(Coarse),
}

/// DAG-driven execution and its stream assembly.
struct Fine {
    state: SweepState,
    /// Vertex clustering grain `N`.
    grain: usize,
    /// Per destination (indexed like [`Subgraph::nbrs`]) the remote-CSR
    /// edges of the cluster in flight; every list is emitted and
    /// emptied within the compute call that filled it.
    per_nbr: Vec<Vec<u32>>,
    /// The prefix of the stream being packed.
    prefix: Vec<u8>,
}

/// Coarse replay over the compiled task. `vertices_left` tracks the
/// remaining workload in vertex units (the unit counting termination
/// accounts in), not clusters.
struct Coarse {
    state: CoarseSweepState,
    task: Arc<ReplayTask>,
    vertices_left: u64,
}

/// The physics half of a program: everything the numerical kernel
/// reads and writes. Kept apart from the scheduling half so `compute`
/// borrows the two side by side — the subgraph, the geometry table and
/// the compiled task are borrowed, never `Arc`-cloned, per call.
struct Physics {
    /// The compiled problem: vertex priorities for fine arming and the
    /// geometry class of every cell.
    problem: Arc<SweepProblem>,
    materials: Arc<MaterialSet>,
    emission: Arc<Vec<f64>>,
    /// The angle's subgraphs (Arc-shared per octant); this program's
    /// own — its routing table — is `subs[patch]`.
    subs: Arc<Vec<Subgraph>>,
    /// The angle's geometry table, indexed by geometry class.
    geoms: Arc<Vec<CellGeom>>,
    patch: usize,
    kernel: KernelKind,
    groups: usize,
    weight: f64,
    /// Incoming face flux, `groups` values per slot the armed layout
    /// stores: every in-edge of the subgraph ([`StoredSlots`]), or the
    /// [`ReplayLayout`]'s persistent slots. No reset writes it.
    face_flux: Vec<f64>,
    /// Scalar flux per `local_cell * groups` (w_a · ψ̄), stored once an
    /// epoch; lent to the task's [`TaskSlot`] until the next reset.
    phi_part: Vec<f64>,
    /// Outgoing remote face-flux staging per
    /// `fine_remote_edge * groups`, addressed by the subgraph's remote
    /// CSR in both scheduling modes: the kernel writes it one group
    /// block at a time and [`Physics::emit`] packs streams from it.
    remote_vals: Vec<f64>,
}

impl Physics {
    /// Pack one outgoing stream for the same-angle task on `dst`:
    /// `prefix` (a [`put_prefix`] over `rem`) followed by the staged
    /// flux of every remote-CSR edge in `rem`. The only encoder, for
    /// both scheduling modes.
    fn emit(&self, src: ProgramId, dst: PatchId, prefix: &[u8], rem: &[u32]) -> Stream {
        let groups = self.groups;
        debug_assert_eq!(prefix.len(), 8 + 4 * rem.len());
        let mut w = Writer::with_capacity(prefix.len() + rem.len() * 8 * groups);
        w.put_bytes(prefix);
        for &k in rem {
            for &x in &self.remote_vals[k as usize * groups..][..groups] {
                w.put_f64(x);
            }
        }
        Stream {
            src,
            dst: ProgramId::new(dst, src.task),
            payload: w.finish(),
        }
    }

    /// Run the numerical kernel over `cluster` (in order): solve every
    /// cell, store the angular-weighted scalar flux, write local
    /// downwind face fluxes in place and stage remote ones in
    /// `remote_vals` (CSR-addressed, consumed by the fine stream
    /// assembly or the coarse emissions). Identical physics in both
    /// scheduling modes — which is what makes the coarse replay
    /// bit-identical to the fine path.
    ///
    /// Mesh-free and cell-major: the cluster is walked once, in its
    /// (topological) order, and each cell runs its
    /// [`GROUP_BLOCK`]-wide group blocks back to back, so every row it
    /// touches (emission, `phi_part`, slots, `remote_vals`) is touched
    /// once, in one contiguous run. A cell reads its [`CellGeom`] from the
    /// angle's table by geometry class, gathers each block of its slots
    /// ([`Subgraph::in_slots`]) into the kernel's face-major incoming
    /// block and, once solved, routes by walking its two CSR ranges of
    /// the subgraph — internal edge `k` copies `out[int_sface[k]]` to
    /// slot `int_dslot[k]`, remote edge `k` copies `out[rem_sface[k]]`
    /// to `remote_vals[k]`. Upwind, flow-0, boundary and cycle-broken
    /// faces have no edge and so write nothing. An upwind cell of the
    /// cluster has written every group of a slot before its downwind
    /// cell reads it, and each (cell, group) pair runs the same
    /// arithmetic in any loop order, so the flux does not depend on it.
    ///
    /// `layout` says where each slot lives: a persistent slot is
    /// `groups` values of `face_flux`, a scratch entry `groups` values
    /// of `scratch` at the same `slot * groups` address (at least
    /// `groups` × [`ReplayLayout::scratch_slots`] values; empty for
    /// [`StoredSlots`]), which the call writes before it reads it.
    ///
    /// Each layout's kernel is a function of its own with the cell solve
    /// inlined: left to the inliner, the stored-slots one lost the solve
    /// to an out-of-line clone once the scratch one existed, and G = 1
    /// replay ran 10 % slower.
    #[inline(never)]
    fn kernel_cluster<L: SlotLayout>(&mut self, cluster: &[u32], layout: &L, scratch: &mut [f64]) {
        let sub = &self.subs[self.patch];
        let class_of = &self.problem.geom_classes.class_of;
        let groups = self.groups;

        // The block buffers live on the stack, face-major and
        // GROUP_BLOCK-strided even for the tail block, and serve every
        // block of the call. The incoming one holds the vacuum 0.0 on
        // every face but those in `filled` (bit `f` = face `f`), which
        // hold the last gathered block's flux. The kernel writes the
        // lanes of `psi` and of every outflow face of `out` the block
        // reads back — a route leaves through an outflow face — so
        // neither needs zeroing between blocks.
        let mut inc = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
        let mut filled = 0u64;
        let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
        let mut psi = [0.0f64; GROUP_BLOCK];
        for &v in cluster {
            let cell = sub.cells[v as usize] as usize;
            let geom = &self.geoms[class_of[cell] as usize];
            let mat = self.materials.material(cell);
            let mut g0 = 0;
            while g0 < groups {
                let b = GROUP_BLOCK.min(groups - g0);
                // Gather the block of the cell's slots — earlier cells
                // of the cluster have already written all their groups
                // — and return the faces only the previous cell filled
                // to 0.0: a face without a slot (boundary inflow,
                // cycle-broken, flow-0, downwind) reads the vacuum.
                let previous = std::mem::take(&mut filled);
                for s in sub.in_slots(v) {
                    let f = sub.slot_face(s);
                    let (buf, i) = match layout.slot(s) {
                        SlotAddr::Persistent(p) => (&self.face_flux[..], p),
                        SlotAddr::Scratch(i) => (&scratch[..], i),
                    };
                    copy_block(&mut inc[f * GROUP_BLOCK..], &buf[i * groups + g0..], b);
                    filled |= 1 << f;
                }
                let mut stale = previous & !filled;
                while stale != 0 {
                    let f = stale.trailing_zeros() as usize;
                    inc[f * GROUP_BLOCK..][..GROUP_BLOCK].fill(0.0);
                    stale &= stale - 1;
                }
                let q_base = cell * groups + g0;
                solve_cell_block_geom(
                    geom,
                    self.kernel,
                    &mat.sigma_t[g0..g0 + b],
                    &self.emission[q_base..q_base + b],
                    &inc,
                    GROUP_BLOCK,
                    &mut out,
                    GROUP_BLOCK,
                    &mut psi,
                );
                // Store the angular-weighted cell flux (once per
                // epoch: nothing of the last one survives).
                let phi_base = v as usize * groups + g0;
                let phi = &mut self.phi_part[phi_base..phi_base + b];
                for (p, &x) in phi.iter_mut().zip(psi.iter()) {
                    *p = self.weight * x;
                }
                // Route the outgoing face-flux blocks along the CSR.
                for k in sub.int_range(v) {
                    let blk = &out[sub.int_sface[k] as usize * GROUP_BLOCK..];
                    let (buf, i) = match layout.int_edge(sub, k) {
                        SlotAddr::Persistent(p) => (&mut self.face_flux[..], p),
                        SlotAddr::Scratch(i) => (&mut scratch[..], i),
                    };
                    copy_block(&mut buf[i * groups + g0..], blk, b);
                }
                for k in sub.rem_range(v) {
                    let blk = &out[sub.rem_sface[k] as usize * GROUP_BLOCK..];
                    copy_block(&mut self.remote_vals[k * groups + g0..], blk, b);
                }
                g0 += b;
            }
        }
    }
}

/// `dst[..b] = src[..b]` for one group block of `b ≤ GROUP_BLOCK`
/// lanes: a fixed-width move for a full block and lane by lane for the
/// tail, like the kernel's own blocks — a slice copy of runtime length
/// is a `memcpy` call, which costs more than the few lanes it moves.
#[inline(always)]
#[allow(clippy::manual_memcpy)]
fn copy_block(dst: &mut [f64], src: &[f64], b: usize) {
    if b == GROUP_BLOCK {
        dst[..GROUP_BLOCK].copy_from_slice(&src[..GROUP_BLOCK]);
    } else {
        for j in 0..b {
            dst[j] = src[j];
        }
    }
}

impl Fine {
    /// Fine-mode `compute()`: pop a cluster of ready vertices, run the
    /// kernel, emit one stream per target patch (clustering aggregates
    /// messages, §V-C benefit 2). True once the last vertex ran.
    fn compute(&mut self, id: ProgramId, phys: &mut Physics, ctx: &mut ComputeCtx) -> bool {
        // DAG bookkeeping: pop a cluster of ready vertices.
        let sub = &phys.subs[phys.patch];
        let cluster = self.state.pop_cluster(sub, self.grain, |_, _| {});
        if cluster.is_empty() {
            return false;
        }
        ctx.work_done = cluster.len() as u64;

        let (per_nbr, prefix) = (&mut self.per_nbr, &mut self.prefix);
        ctx.kernel(|out| {
            phys.kernel_cluster(&cluster, &StoredSlots, &mut []);
            // Sort the cluster's remote edges by destination, in
            // (vertex, remote-CSR) order within each, then pack one
            // stream per destination that got any, in `nbrs` order
            // (ascending patch id).
            let sub = &phys.subs[phys.patch];
            for &v in &cluster {
                for k in sub.rem_range(v) {
                    per_nbr[sub.rem_nbr[k] as usize].push(k as u32);
                }
            }
            for (rem, &dst) in per_nbr.iter_mut().zip(&sub.nbrs) {
                if !rem.is_empty() {
                    prefix.clear();
                    put_prefix(prefix, PER_SLOT, sub, rem);
                    out.push(phys.emit(id, dst, prefix, rem));
                    rem.clear();
                }
            }
        });
        self.state.is_complete()
    }
}

impl Coarse {
    /// Coarse-mode `compute()` (§V-E replay): pop one whole coarse
    /// vertex, execute its compiled vertex list in order, and emit
    /// exactly one stream per outgoing coarse edge — no per-vertex
    /// in-degree bookkeeping, no priority recomputation. True once the
    /// last coarse vertex ran.
    fn compute(&mut self, id: ProgramId, phys: &mut Physics, ctx: &mut ComputeCtx) -> bool {
        let task = &self.task;
        let Some(cv) = self.state.pop(&task.coarse) else {
            return false;
        };
        let cluster = &task.coarse.clusters[cv as usize];
        self.vertices_left -= cluster.len() as u64;
        // ClusterTrace::record drops empty clusters, so a compiled
        // coarse vertex is never empty; executing one would emit its
        // coarse edges without computing anything.
        assert!(
            !cluster.is_empty(),
            "coarse replay scheduled an empty compute cluster (trace contract violated)"
        );
        ctx.work_done = cluster.len() as u64;

        // Packing happens inside the kernel closure in both modes,
        // which keeps their Kernel/GraphOp split comparable.
        ctx.kernel(|out| {
            match armed_layout(task, &phys.subs[phys.patch], phys.groups) {
                Some(layout) => {
                    with_cluster_scratch(layout.scratch_slots(), phys.groups, |scratch| {
                        phys.kernel_cluster(cluster, layout, scratch)
                    })
                }
                None => phys.kernel_cluster(cluster, &StoredSlots, &mut []),
            }
            // One stream per outgoing coarse edge: its pre-packed
            // prefix, then the flux its items staged.
            for (edge, skeleton) in task.coarse.remote[cv as usize]
                .iter()
                .zip(&task.skeletons[cv as usize])
            {
                out.push(phys.emit(id, edge.patch, skeleton, &edge.items));
            }
        });
        self.state.is_complete()
    }
}

/// The patch-program of one `(patch, angle)` sweep task.
pub struct SweepProgram {
    id: ProgramId,
    sink: Arc<EpochSink>,
    /// This task's slot in `sink`.
    tid: usize,
    /// Scheduling state (fine counters + ready queue, or coarse replay).
    sched: Sched,
    /// Kernel inputs and the numeric buffers.
    phys: Physics,
}

impl SweepProgram {
    /// The sweep state completed: hand the task's scalar-flux
    /// contribution to its slot — the one place it leaves the program.
    /// The accumulator comes back at the next epoch's reset.
    fn finish_task(&mut self) {
        self.sink.slot(self.tid).phi_part = std::mem::take(&mut self.phys.phi_part);
    }
}

impl PatchProgram for SweepProgram {
    fn init(&mut self) {
        // Shape comes from `create`, state from `reset`.
    }

    /// The one decoder of the stream payload (module docs). Total:
    /// the payload comes off the wire, so its length, every slot and
    /// the counters it decrements are checked — a violation panics,
    /// which the worker turns into an epoch fault — before the first
    /// flux value is written.
    fn input(&mut self, _src: ProgramId, payload: Bytes) {
        let phys = &mut self.phys;
        let (sub, groups) = (&phys.subs[phys.patch], phys.groups);
        assert!(payload.len() >= 8, "stream payload shorter than its header");
        let (header, body) = payload.split_at(8);
        let mut header = words(header);
        let (head, n) = (header.next().expect("head"), header.next().expect("n"));
        assert_eq!(
            body.len() as u64,
            u64::from(n) * (4 + 8 * groups as u64),
            "stream payload length does not match its {n} items"
        );
        let (slots, flux) = body.split_at(4 * n as usize);
        // Every slot must be one of the subgraph's that the armed layout
        // stores: a slot replay keeps in the cluster scratch has no
        // storage to land in.
        let check = |layout: Option<&ReplayLayout>| {
            let num_slots = sub.num_slots();
            if let Some(s) = words(slots).find(|&s| s as usize >= num_slots) {
                panic!("stream slot {s} out of range of {num_slots}");
            }
            let in_cluster =
                |s: u32| matches!(layout?.slot(s as usize), SlotAddr::Scratch(_)).then_some(s);
            if let Some(s) = words(slots).find_map(in_cluster) {
                panic!("stream slot {s} is an in-cluster slot, kept in the cluster scratch");
            }
        };
        let layout = match &mut self.sched {
            // One coarse edge per stream: a single in-degree decrement
            // on the target coarse vertex.
            Sched::Coarse(coarse) => {
                let layout = armed_layout(&coarse.task, sub, groups);
                check(layout);
                coarse.state.receive(head);
                layout
            }
            Sched::Fine(fine) => {
                check(None);
                assert_eq!(head, PER_SLOT, "replay stream for a fine-mode program");
                words(slots).for_each(|s| fine.state.receive(sub.slot_vertex(s)));
                None
            }
        };
        for (slot, vals) in words(slots).zip(flux.chunks_exact(8 * groups)) {
            let p = stored_slot(layout, slot as usize).expect("checked above");
            let dst = &mut phys.face_flux[p * groups..][..groups];
            for (x, v) in dst.iter_mut().zip(vals.chunks_exact(8)) {
                *x = f64::from_le_bytes(v.try_into().expect("8-byte chunk"));
            }
        }
    }

    fn compute(&mut self, ctx: &mut ComputeCtx) {
        let complete = match &mut self.sched {
            Sched::Fine(fine) => fine.compute(self.id, &mut self.phys, ctx),
            Sched::Coarse(coarse) => coarse.compute(self.id, &mut self.phys, ctx),
        };
        if complete {
            self.finish_task();
        }
    }

    fn vote_to_halt(&self) -> bool {
        match &self.sched {
            Sched::Fine(fine) => !fine.state.has_ready(),
            Sched::Coarse(coarse) => !coarse.state.has_ready(),
        }
    }

    fn remaining_work(&self) -> u64 {
        match &self.sched {
            Sched::Fine(fine) => fine.state.remaining(),
            Sched::Coarse(coarse) => coarse.vertices_left,
        }
    }

    /// Arm this program for a source iteration (one epoch): install
    /// the epoch's emission density and materials, re-arm the
    /// scheduling state in place and take the flux accumulator back
    /// from the task's slot. Only a program's first reset allocates
    /// (the accumulator); nothing is zeroed (module docs).
    fn reset(&mut self, epoch: &EpochInput) {
        let e = epoch
            .downcast_ref::<SweepEpoch>()
            .expect("SweepProgram reset with a non-SweepEpoch input");
        let phys = &mut self.phys;
        let (groups, num_cells) = (phys.groups, phys.problem.patches.num_cells());
        assert_eq!(
            e.emission.len(),
            num_cells * groups,
            "epoch emission density has the wrong shape"
        );
        phys.emission = e.emission.clone();
        assert_eq!(
            e.materials.num_cells(),
            num_cells,
            "epoch materials must cover the mesh"
        );
        assert_eq!(
            e.materials.num_groups(),
            groups,
            "epoch materials cannot change the group count of a program"
        );
        phys.materials = e.materials.clone();
        let sub = &phys.subs[phys.patch];
        match &mut self.sched {
            Sched::Fine(fine) => fine.state.reset(sub),
            Sched::Coarse(coarse) => {
                coarse.state.reset(&coarse.task.coarse);
                coarse.vertices_left = coarse.task.coarse.num_vertices() as u64;
            }
        }
        phys.phi_part = std::mem::take(&mut self.sink.slot(self.tid).phi_part);
        phys.phi_part.resize(sub.num_vertices() * groups, 0.0);
    }
}

impl<T: SweepTopology + Send + Sync + 'static> ProgramFactory for SweepFactory<T> {
    type Program = SweepProgram;

    fn create(&self, id: ProgramId) -> SweepProgram {
        // Shape, the scheduling state included; the epoch's data comes
        // with the `reset` the runtime follows every `create` with.
        let s = &self.setup;
        let (p, a) = (id.patch.index(), id.task.0 as usize);
        let subs = s.problem.subs[a].clone();
        let sub = &subs[p];
        let (sched, slots) = match &s.plan {
            Some(plan) => {
                let task = plan.tasks[a][p].clone();
                let slots = armed_layout(&task, sub, s.groups)
                    .map_or(sub.num_slots(), ReplayLayout::persistent_slots);
                let sched = Sched::Coarse(Coarse {
                    state: CoarseSweepState::new(&task.coarse),
                    vertices_left: task.coarse.num_vertices() as u64,
                    task,
                });
                (sched, slots)
            }
            None => {
                let fine = Fine {
                    state: SweepState::new(sub, s.problem.vprio[a][p].clone()),
                    grain: s.grain,
                    per_nbr: vec![Vec::new(); sub.nbrs.len()],
                    prefix: Vec::new(),
                };
                (Sched::Fine(fine), sub.num_slots())
            }
        };
        let remote = sub.rem_dst.len();
        SweepProgram {
            id,
            sink: s.sink.clone(),
            tid: s.problem.tid(p, a),
            sched,
            phys: Physics {
                problem: s.problem.clone(),
                materials: Arc::default(),
                emission: Arc::default(),
                subs,
                geoms: self.geoms[a].clone(),
                patch: p,
                kernel: s.kernel,
                groups: s.groups,
                weight: s.quadrature.ordinate(AngleId(id.task.0)).weight,
                face_flux: vec![0.0; slots * s.groups],
                phi_part: Vec::new(),
                remote_vals: vec![0.0; remote * s.groups],
            },
        }
    }

    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
        let s = &self.setup;
        let mut ids = Vec::new();
        for p in s.problem.patches.patches_on_rank(rank) {
            for a in 0..s.problem.num_angles {
                ids.push(ProgramId::new(p, TaskTag(a as u32)));
            }
        }
        ids
    }

    fn rank_of(&self, id: ProgramId) -> usize {
        self.setup.problem.patches.rank_of(id.patch)
    }

    fn priority(&self, id: ProgramId) -> i64 {
        self.setup.problem.pprio[id.task.0 as usize][id.patch.index()]
    }

    fn initial_workload(&self, id: ProgramId) -> u64 {
        let (p, a) = (id.patch.index(), id.task.0 as usize);
        self.setup.problem.subs[a][p].num_vertices() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::geom_bits;
    use crate::replay::build_plan;
    use crate::xs::{Material, MaterialSet};
    use jsweep_core::engine::CLAIM_BATCH;
    use jsweep_graph::coarse::{simulate_clusters, ClusterTrace, SlotAddr};
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_mesh::deformed::DeformedMesh;
    use jsweep_mesh::{face_toward, partition, GeomClasses, PatchSet, StructuredMesh, TetMesh};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Where a cluster cell's face sends its outgoing flux.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Route {
        /// Upwind, flow-0, boundary or cycle-broken face.
        Skip,
        /// `face_flux` slot of this task.
        Local(usize),
        /// Staging index into the remote CSR, the patch it is bound
        /// for and the `face_flux` slot it lands in there.
        Remote(usize, PatchId, usize),
    }

    /// Whether face `f` of `cell` carries an edge into `cell`: interior,
    /// inflow for `dir`, and not cut by the cycle breaker.
    fn is_in_edge<T: SweepTopology>(
        mesh: &T,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
        cell: usize,
        f: usize,
    ) -> bool {
        let face = mesh.face(cell, f);
        face.flow(dir) < 0.0
            && face
                .neighbor
                .cell()
                .is_some_and(|nb| !broken.contains(&(nb as u32, cell as u32)))
    }

    /// The slot numbering spelled out against the mesh: per global
    /// cell, the first slot it owns in its patch's storage — one slot
    /// per in-edge of every cell before it in the patch's local order.
    fn mesh_walk_first_slots<T: SweepTopology>(
        mesh: &T,
        patches: &PatchSet,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
    ) -> Vec<usize> {
        let mut first = vec![0; mesh.num_cells()];
        for p in patches.patches() {
            let mut next = 0;
            for &c in patches.cells(p) {
                first[c as usize] = next;
                let c = c as usize;
                next += (0..mesh.num_faces(c))
                    .filter(|&f| is_in_edge(mesh, dir, broken, c, f))
                    .count();
            }
        }
        first
    }

    /// The oracle: the per-cluster route derivation `kernel_cluster` ran
    /// every iteration before routes were compiled into the subgraph —
    /// walk the mesh faces, skip broken edges, resolve the reciprocal
    /// face with `face_toward`, number remote faces in visit order —
    /// with the destination slot counted off the mesh: the
    /// destination's first slot (`first_slots`) plus its in-edges
    /// through lower faces than the one the flux enters by.
    #[allow(clippy::too_many_arguments)]
    fn mesh_walk_routes<T: SweepTopology>(
        mesh: &T,
        patches: &PatchSet,
        sub: &Subgraph,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
        first_slots: &[usize],
        cluster: &[u32],
        mf: usize,
    ) -> Vec<Route> {
        let mut routes = vec![Route::Skip; cluster.len() * mf];
        for (i, &v) in cluster.iter().enumerate() {
            let cell = sub.cells[v as usize] as usize;
            let mut rem_seen = 0;
            for f in 0..mesh.num_faces(cell) {
                let face = mesh.face(cell, f);
                let Some(nb) = face.neighbor.cell().filter(|_| face.flow(dir) > 0.0) else {
                    continue;
                };
                if broken.contains(&(cell as u32, nb as u32)) {
                    continue;
                }
                let back = face_toward(mesh, nb, cell).unwrap();
                assert!(is_in_edge(mesh, dir, broken, nb, back));
                let slot = first_slots[nb]
                    + (0..back)
                        .filter(|&g| is_in_edge(mesh, dir, broken, nb, g))
                        .count();
                routes[i * mf + f] = if patches.patch_of(nb) == sub.patch {
                    Route::Local(slot)
                } else {
                    let k = sub.rem_off[v as usize] as usize + rem_seen;
                    rem_seen += 1;
                    Route::Remote(k, patches.patch_of(nb), slot)
                };
            }
        }
        routes
    }

    /// The same table read off the subgraph's CSR, as `kernel_cluster`
    /// and the stream prefix route now.
    fn csr_routes(sub: &Subgraph, cluster: &[u32], mf: usize) -> Vec<Route> {
        let mut routes = vec![Route::Skip; cluster.len() * mf];
        for (i, &v) in cluster.iter().enumerate() {
            for k in sub.int_range(v) {
                routes[i * mf + sub.int_sface[k] as usize] =
                    Route::Local(sub.int_dslot[k] as usize);
            }
            for k in sub.rem_range(v) {
                routes[i * mf + sub.rem_sface[k] as usize] = Route::Remote(
                    k,
                    sub.nbrs[sub.rem_nbr[k] as usize],
                    sub.rem_dslot[k] as usize,
                );
            }
        }
        routes
    }

    /// An S2 problem and the clusters the solver compiles its plan from
    /// at grain 8, `traces[angle][patch]`.
    struct Traced<T: SweepTopology + Send + Sync + 'static> {
        mesh: Arc<T>,
        quad: QuadratureSet,
        problem: Arc<SweepProblem>,
        traces: Vec<Vec<ClusterTrace>>,
    }

    impl<T: SweepTopology + Send + Sync + 'static> Traced<T> {
        fn new(mesh: T, patches: PatchSet, opts: ProblemOptions) -> Traced<T> {
            let quad = QuadratureSet::sn(2);
            let problem = SweepProblem::build(&mesh, patches, &quad, &opts);
            Traced::of(mesh, quad, problem)
        }

        fn of(mesh: T, quad: QuadratureSet, problem: SweepProblem) -> Traced<T> {
            let traces = simulate_clusters(&problem, 8, CLAIM_BATCH);
            Traced {
                mesh: Arc::new(mesh),
                quad,
                problem: Arc::new(problem),
                traces,
            }
        }

        /// Programs of `kernel` at `groups` groups: replaying the plan
        /// compiled from `traces`, or on the fine path.
        fn factory(&self, kernel: KernelKind, groups: usize, replay: bool) -> SweepFactory<T> {
            SweepFactory::new(SweepSetup {
                mesh: self.mesh.clone(),
                problem: self.problem.clone(),
                quadrature: self.quad.clone(),
                groups,
                kernel,
                grain: 8,
                plan: replay.then(|| Arc::new(build_plan(&self.problem, &self.traces))),
                sink: Arc::new(EpochSink::new(self.problem.num_tasks())),
            })
        }
    }

    /// The three mesh families: structured hexes, tets, and deformed
    /// hexes with cut edges — whatever the cycle breaker removes plus
    /// one forced cut per direction, so the broken path is always
    /// taken.
    fn families() -> (
        Traced<StructuredMesh>,
        Traced<TetMesh>,
        Traced<DeformedMesh>,
    ) {
        let hex = StructuredMesh::unit(6, 6, 6);
        let hex_ps = partition::decompose_structured(&hex, (3, 3, 3), 2);
        let tet = jsweep_mesh::tetgen::ball(3, 1.0);
        let tet_ps = partition::decompose_unstructured(&tet, 40, 2);
        let def = DeformedMesh::jittered(4, 4, 4, 0.3, 5);
        let quad = QuadratureSet::sn(2);
        let cycles = ProblemOptions {
            check_cycles: true,
            ..Default::default()
        };
        let mut problem = SweepProblem::build(&def, partition::rcb(&def, 4), &quad, &cycles);
        for (a, o) in quad.iter() {
            let mut broken = (*problem.broken[a.index()]).clone();
            let c = def.num_cells() / 2;
            broken.insert((c as u32, def.downwind_neighbors(c, o.dir)[0] as u32));
            let subs = Subgraph::build_all(&def, &problem.patches, a, o.dir, &broken);
            problem.subs[a.index()] = Arc::new(subs);
            problem.broken[a.index()] = Arc::new(broken);
        }
        (
            Traced::new(hex, hex_ps, ProblemOptions::default()),
            Traced::new(tet, tet_ps, ProblemOptions::default()),
            Traced::of(def, quad, problem),
        )
    }

    fn assert_routes_agree<T: SweepTopology + Send + Sync + 'static>(rec: &Traced<T>) {
        let (mesh, problem) = (rec.mesh.as_ref(), &rec.problem);
        let mf = mesh.num_faces(0);
        let mut clusters = 0;
        for (a, o) in rec.quad.iter() {
            let broken = &problem.broken[a.index()];
            let first_slots = mesh_walk_first_slots(mesh, &problem.patches, o.dir, broken);
            for (sub, trace) in problem.subs[a.index()].iter().zip(&rec.traces[a.index()]) {
                assert!(sub.nbrs.windows(2).all(|w| w[0] < w[1]));
                for cluster in &trace.clusters {
                    let oracle = mesh_walk_routes(
                        mesh,
                        &problem.patches,
                        sub,
                        o.dir,
                        broken,
                        &first_slots,
                        cluster,
                        mf,
                    );
                    assert_eq!(csr_routes(sub, cluster, mf), oracle);
                    clusters += 1;
                }
            }
        }
        assert!(clusters > 0, "the simulated execution formed no clusters");
    }

    #[test]
    fn csr_routes_equal_the_mesh_walk_on_simulated_clusters() {
        let (hex, tet, def) = families();
        assert_routes_agree(&hex);
        assert_routes_agree(&tet);
        assert_routes_agree(&def);
    }

    /// The reference for [`Physics::kernel_cluster`]: the cluster,
    /// walked block-major (once per group block, where the kernel walks
    /// it once, cell by cell), over a dense `cell × face` incoming
    /// buffer (`dense[(v * F + f) * groups + g]`), read in place by the
    /// kernel with stride `groups` and written at `(dst,
    /// face_toward(dst, src))` — the program storage before slots were
    /// numbered per in-edge, where a face no edge enters held the 0.0
    /// it was allocated with — with each cell's geometry derived off
    /// the mesh, not read from the class table.
    fn dense_kernel_cluster<T: SweepTopology>(
        phys: &Physics,
        mesh: &T,
        dir: [f64; 3],
        dense: &mut [f64],
        phi: &mut [f64],
        remote: &mut [f64],
        cluster: &[u32],
    ) {
        let (sub, groups) = (&phys.subs[phys.patch], phys.groups);
        let mf = sub.faces_per_cell();
        let mut g0 = 0;
        while g0 < groups {
            let b = GROUP_BLOCK.min(groups - g0);
            for &v in cluster {
                let cell = sub.cells[v as usize] as usize;
                let geom = CellGeom::new(mesh, cell, dir);
                let mat = phys.materials.material(cell);
                let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
                let mut psi = [0.0f64; GROUP_BLOCK];
                solve_cell_block_geom(
                    &geom,
                    phys.kernel,
                    &mat.sigma_t[g0..g0 + b],
                    &phys.emission[cell * groups + g0..][..b],
                    &dense[v as usize * mf * groups + g0..],
                    groups,
                    &mut out,
                    GROUP_BLOCK,
                    &mut psi,
                );
                for (p, &x) in phi[v as usize * groups + g0..][..b].iter_mut().zip(&psi) {
                    *p += phys.weight * x;
                }
                for k in sub.int_range(v) {
                    let dst = sub.int_dst[k] as usize;
                    let face = face_toward(mesh, sub.cells[dst] as usize, cell).unwrap();
                    dense[(dst * mf + face) * groups + g0..][..b]
                        .copy_from_slice(&out[sub.int_sface[k] as usize * GROUP_BLOCK..][..b]);
                }
                for k in sub.rem_range(v) {
                    remote[k * groups + g0..][..b]
                        .copy_from_slice(&out[sub.rem_sface[k] as usize * GROUP_BLOCK..][..b]);
                }
            }
            g0 += b;
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The replay layout `prog` has armed, if it keeps in-cluster edges
    /// in the cluster scratch.
    fn armed(prog: &SweepProgram) -> Option<&ReplayLayout> {
        match &prog.sched {
            Sched::Coarse(Coarse { task, .. }) => {
                armed_layout(task, &prog.phys.subs[prog.phys.patch], prog.phys.groups)
            }
            _ => None,
        }
    }

    /// `kernel_cluster` over `cluster` as `compute` runs it in the
    /// program's armed layout, with NaN in the thread's cluster scratch
    /// before the call: a scratch read before its write would reach the
    /// flux.
    fn run_cluster(prog: &mut SweepProgram, cluster: &[u32]) {
        let SweepProgram { sched, phys, .. } = prog;
        let layout = match sched {
            Sched::Coarse(Coarse { task, .. }) => {
                armed_layout(task, &phys.subs[phys.patch], phys.groups)
            }
            _ => None,
        };
        match layout {
            Some(layout) => {
                poison_cluster_scratch(layout.scratch_slots(), phys.groups);
                with_cluster_scratch(layout.scratch_slots(), phys.groups, |scratch| {
                    phys.kernel_cluster(cluster, layout, scratch)
                });
            }
            None => phys.kernel_cluster(cluster, &StoredSlots, &mut []),
        }
    }

    /// Fill the calling thread's cluster scratch, at least `entries`
    /// slots of `groups` values of it, with NaN.
    fn poison_cluster_scratch(entries: usize, groups: usize) {
        CLUSTER_SCRATCH.with_borrow_mut(|s| {
            let len = s.len().max(entries * groups);
            s.resize(len, f64::NAN);
            s.fill(f64::NAN);
        });
    }

    /// Where each fine slot of `prog`'s task lives in its armed layout.
    fn slot_addrs(prog: &SweepProgram) -> Vec<SlotAddr> {
        let sub = &prog.phys.subs[prog.phys.patch];
        let layout = armed(prog);
        (0..sub.num_slots())
            .map(|s| layout.map_or(SlotAddr::Persistent(s), |l| l.slot(s)))
            .collect()
    }

    /// Run `kernel_cluster` over every cluster of every task of `rec` in
    /// the armed slot layout — fine over the simulated clusters, or
    /// replay over the compiled plan's — and [`dense_kernel_cluster`]
    /// beside it on the same seeded inputs (remote-written slots hold
    /// their seed in both), and demand `phi_part`, every stored slot and
    /// `remote_vals` bit-identical — and no dense write landing on a
    /// face without a slot. Returns the in-cluster slots replay kept out
    /// of `face_flux`.
    fn assert_layouts_agree<T: SweepTopology + Send + Sync + 'static>(
        rec: &Traced<T>,
        kernel: KernelKind,
        groups: usize,
        replay: bool,
    ) -> usize {
        let n = rec.mesh.num_cells();
        // Thin to thick groups, so diamond difference's fixup fires for
        // some lanes of a block and not others.
        let material = Material {
            sigma_t: (0..groups).map(|g| 0.2 + 2.5 * g as f64).collect(),
            sigma_s: vec![0.0; groups],
            source: vec![1.0; groups],
        };
        let epoch = SweepEpoch {
            emission: Arc::new(
                (0..n * groups)
                    .map(|i| 0.05 + 0.1 * (i % 17) as f64)
                    .collect(),
            ),
            materials: Arc::new(MaterialSet::homogeneous(n, material)),
        };
        let factory = rec.factory(kernel, groups, replay);
        let mesh = rec.mesh.as_ref();
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let mut in_cluster = 0;
        for a in 0..rec.problem.num_angles {
            let dir = rec.quad.direction(AngleId(a as u32));
            for p in rec.problem.patches.patches() {
                let mut prog = factory.create(ProgramId::new(p, TaskTag(a as u32)));
                prog.reset(&epoch);
                let sub = prog.phys.subs[p.index()].clone();
                let clusters = match &prog.sched {
                    Sched::Coarse(Coarse { task, .. }) => task.coarse.clusters.clone(),
                    _ => rec.traces[a][p.index()].clusters.clone(),
                };
                let addr = slot_addrs(&prog);
                let stored = addr
                    .iter()
                    .filter(|a| matches!(a, SlotAddr::Persistent(_)))
                    .count();
                in_cluster += sub.num_slots() - stored;
                assert_eq!(prog.phys.face_flux.len(), stored * groups);
                let mf = sub.faces_per_cell();
                let at = |s: usize| {
                    (sub.slot_vertex(s as u32) as usize * mf + sub.slot_face(s)) * groups
                };
                let mut dense = vec![0.0; sub.num_vertices() * mf * groups];
                let mut slotted = vec![false; dense.len()];
                for (s, &addr) in addr.iter().enumerate() {
                    for g in 0..groups {
                        let x = rng.below(1000) as f64 * 1e-3;
                        if let SlotAddr::Persistent(q) = addr {
                            prog.phys.face_flux[q * groups + g] = x;
                        }
                        dense[at(s) + g] = x;
                        slotted[at(s) + g] = true;
                    }
                }
                let mut phi = vec![0.0; sub.num_vertices() * groups];
                let mut remote = vec![0.0; sub.rem_dst.len() * groups];
                for cluster in &clusters {
                    run_cluster(&mut prog, cluster);
                    dense_kernel_cluster(
                        &prog.phys,
                        mesh,
                        dir,
                        &mut dense,
                        &mut phi,
                        &mut remote,
                        cluster,
                    );
                }
                let phys = &prog.phys;
                let what = format!(
                    "{kernel:?} G={groups} replay={replay} angle {a} patch {}",
                    p.index()
                );
                assert_eq!(bits(&phys.phi_part), bits(&phi), "{what}: phi_part");
                assert_eq!(
                    bits(&phys.remote_vals),
                    bits(&remote),
                    "{what}: remote_vals"
                );
                for (s, &addr) in addr.iter().enumerate() {
                    if let SlotAddr::Persistent(q) = addr {
                        assert_eq!(
                            bits(&phys.face_flux[q * groups..][..groups]),
                            bits(&dense[at(s)..][..groups]),
                            "{what}: slot {s}"
                        );
                    }
                }
                assert!(
                    dense
                        .iter()
                        .zip(&slotted)
                        .all(|(x, &s)| s || x.to_bits() == 0),
                    "{what}: a dense write to a face without a slot"
                );
            }
        }
        in_cluster
    }

    #[test]
    fn kernel_cluster_over_slots_matches_the_dense_face_layout() {
        let (hex, tet, def) = families();
        for groups in [1, 3, 8, 11, 19, 32] {
            for kernel in [KernelKind::Step, KernelKind::DiamondDifference] {
                assert_eq!(assert_layouts_agree(&hex, kernel, groups, false), 0);
                assert_eq!(assert_layouts_agree(&def, kernel, groups, false), 0);
            }
            assert_eq!(
                assert_layouts_agree(&tet, KernelKind::Step, groups, false),
                0
            );
        }
    }

    /// Replay over the compiled plan's clusters: below a full group
    /// block every slot stays in `face_flux`, from one on the in-cluster
    /// ones go through the (NaN-filled) cluster scratch.
    #[test]
    fn kernel_cluster_over_replay_slots_matches_the_dense_face_layout() {
        let (hex, tet, def) = families();
        for groups in [1, 3, 8, 11, 19, 32] {
            let scratch = replay_uses_cluster_scratch(groups);
            for kernel in [KernelKind::Step, KernelKind::DiamondDifference] {
                assert_eq!(
                    assert_layouts_agree(&hex, kernel, groups, true) > 0,
                    scratch
                );
                assert_eq!(
                    assert_layouts_agree(&def, kernel, groups, true) > 0,
                    scratch
                );
            }
            let tet_in_cluster = assert_layouts_agree(&tet, KernelKind::Step, groups, true);
            assert_eq!(tet_in_cluster > 0, scratch);
        }
    }

    /// Every (cell, angle) entry the factory's table hands
    /// `kernel_cluster` is bit-identical to `CellGeom::new` of that very
    /// cell, and every class's representative is its lowest-numbered
    /// member. Returns the class count.
    fn assert_geom_table_exact<T: SweepTopology + Send + Sync + 'static>(rec: &Traced<T>) -> usize {
        let (mesh, classes) = (rec.mesh.as_ref(), &rec.problem.geom_classes);
        assert!(classes.reps.windows(2).all(|w| w[0] < w[1]));
        for (k, &rep) in classes.reps.iter().enumerate() {
            assert_eq!(classes.class_of[rep as usize], k as u32);
        }
        for (c, &k) in classes.class_of.iter().enumerate() {
            assert!(classes.reps[k as usize] as usize <= c);
        }
        let factory = rec.factory(KernelKind::Step, 1, false);
        assert_eq!(factory.geoms.len(), rec.problem.num_angles);
        for (a, table) in factory.geoms.iter().enumerate() {
            assert_eq!(table.len(), classes.reps.len());
            let dir = rec.quad.direction(AngleId(a as u32));
            for c in 0..mesh.num_cells() {
                assert_eq!(
                    geom_bits(&table[classes.class_of[c] as usize]),
                    geom_bits(&CellGeom::new(mesh, c, dir)),
                    "angle {a} cell {c}"
                );
            }
        }
        classes.reps.len()
    }

    #[test]
    fn geom_table_matches_cell_geom_new_on_every_family() {
        let (hex, tet, def) = families();
        assert_eq!(assert_geom_table_exact(&hex), 1);
        assert!(assert_geom_table_exact(&tet) > 1);
        assert_eq!(assert_geom_table_exact(&def), def.mesh.num_cells());
        // The class counts the table's memory is sized by.
        let classes = |mesh: &dyn SweepTopology| GeomClasses::new(mesh).reps.len();
        assert_eq!(classes(&StructuredMesh::unit(24, 24, 24)), 1);
        assert_eq!(classes(&jsweep_mesh::tetgen::cube(10, 1.0)), 384);
        let def = DeformedMesh::jittered(5, 4, 3, 0.3, 11);
        assert_eq!(classes(&def), def.num_cells());
    }

    #[test]
    #[should_panic(expected = "diamond difference needs hexahedral cells")]
    fn diamond_difference_over_tets_fails_at_factory_construction() {
        let tet = jsweep_mesh::tetgen::cube(1, 1.0);
        let ps = partition::decompose_unstructured(&tet, 3, 2);
        Traced::new(tet, ps, ProblemOptions::default()).factory(
            KernelKind::DiamondDifference,
            1,
            false,
        );
    }

    /// Group counts the pair tests run at: below a full group block
    /// (every slot stored) and above it (in-cluster slots in scratch).
    const PAIR_GROUPS: [usize; 2] = [2, GROUP_BLOCK + 1];

    /// Two patches along x under one all-positive direction: every
    /// stream of the `up` program goes to `down`, whose remote inputs
    /// all come from `up`.
    struct Pair {
        groups: usize,
        up: ProgramId,
        down: ProgramId,
        /// The problem's one epoch.
        epoch: SweepEpoch,
        /// A fine-path and a replay factory of the same problem, with a
        /// sink each.
        modes: [(&'static str, SweepFactory<StructuredMesh>); 2],
    }

    type Program = SweepProgram;

    impl Pair {
        fn new(groups: usize) -> Pair {
            let mesh = Arc::new(StructuredMesh::unit(4, 3, 2));
            let n = mesh.num_cells();
            let ps = partition::decompose_structured(&mesh, (2, 3, 2), 2);
            assert_eq!(ps.num_patches(), 2);
            let quad = QuadratureSet::sn(2);
            let problem = Arc::new(SweepProblem::build(
                mesh.as_ref(),
                ps,
                &quad,
                &ProblemOptions::default(),
            ));
            let materials = Arc::new(MaterialSet::homogeneous(
                n,
                Material::uniform(groups, 1.0, 0.5, 1.0),
            ));
            let grain = 4;
            let plan = Arc::new(build_plan(
                &problem,
                &simulate_clusters(&problem, grain, CLAIM_BATCH),
            ));
            let epoch = SweepEpoch {
                emission: Arc::new((0..n * groups).map(|i| 1.0 + 0.01 * i as f64).collect()),
                materials,
            };
            let (angle, _) = quad
                .iter()
                .find(|(_, o)| o.dir.iter().all(|&x| x > 0.0))
                .expect("an all-positive ordinate");
            let task = TaskTag(angle.index() as u32);
            let up = problem.patches.patch_of(mesh.cell_id(0, 0, 0));
            let down = problem.patches.patch_of(mesh.cell_id(3, 0, 0));
            let factory = |plan| {
                SweepFactory::new(SweepSetup {
                    mesh: mesh.clone(),
                    problem: problem.clone(),
                    quadrature: quad.clone(),
                    groups,
                    kernel: KernelKind::Step,
                    grain,
                    plan,
                    sink: Arc::new(EpochSink::new(problem.num_tasks())),
                })
            };
            Pair {
                groups,
                up: ProgramId::new(up, task),
                down: ProgramId::new(down, task),
                epoch,
                modes: [("fine", factory(None)), ("replay", factory(Some(plan)))],
            }
        }

        /// A program of `factory` as the runtime hands it its first
        /// stream: created, then armed by `reset`.
        fn armed(&self, factory: &SweepFactory<StructuredMesh>, id: ProgramId) -> Program {
            let mut p = factory.create(id);
            p.reset(&self.epoch);
            p
        }

        /// Whether `mode`'s epochs keep in-cluster slots in scratch.
        fn scratch(&self, mode: &str) -> bool {
            mode == "replay" && replay_uses_cluster_scratch(self.groups)
        }
    }

    /// Compute until nothing is ready, with NaN in the thread's cluster
    /// scratch before every compute; the streams that produced.
    fn drain(p: &mut Program) -> Vec<Stream> {
        let mut out = Vec::new();
        while !p.vote_to_halt() {
            if let Some(layout) = armed(p) {
                poison_cluster_scratch(layout.scratch_slots(), p.phys.groups);
            }
            let mut ctx = ComputeCtx::default();
            p.compute(&mut ctx);
            out.append(&mut ctx.out);
        }
        out
    }

    fn word(payload: &[u8], i: usize) -> u32 {
        words(&payload[4 * i..4 * i + 4]).next().unwrap()
    }

    #[test]
    fn emit_ingest_round_trip_in_both_modes() {
        for groups in PAIR_GROUPS {
            let pair = Pair::new(groups);
            let g = groups;
            for (mode, factory) in &pair.modes {
                let mut up = pair.armed(factory, pair.up);
                let mut down = pair.armed(factory, pair.down);
                let streams = drain(&mut up);
                assert_eq!(up.remaining_work(), 0, "{mode}: `up` waits for nobody");
                assert!(streams.len() > 1, "{mode}: grain 4 splits the patch face");
                let mut items = 0;
                for s in &streams {
                    assert_eq!((s.src, s.dst), (pair.up, pair.down));
                    let (head, n) = (word(&s.payload, 0), word(&s.payload, 1) as usize);
                    assert_eq!(head == PER_SLOT, *mode == "fine", "{mode}: head {head}");
                    assert_eq!(s.payload.len(), 8 + n * (4 + 8 * g));
                    down.input(s.src, s.payload.clone());
                    items += n;
                }
                // Every remote edge travelled once and landed in its
                // stored slot.
                let sub = &up.phys.subs[up.phys.patch];
                assert_eq!(items, sub.rem_dst.len());
                let addrs = slot_addrs(&down);
                for (k, &slot) in sub.rem_dslot.iter().enumerate() {
                    let sent = &up.phys.remote_vals[k * g..][..g];
                    assert!(sent.iter().all(|&x| x > 0.0));
                    let SlotAddr::Persistent(q) = addrs[slot as usize] else {
                        panic!("{mode}: remote in-edge {k} in scratch");
                    };
                    assert_eq!(&down.phys.face_flux[q * g..][..g], sent);
                }
                // ... and released what it feeds: `down` finishes alone.
                assert!(drain(&mut down).is_empty());
                assert_eq!(down.remaining_work(), 0, "{mode}");
            }
        }
    }

    /// `reset` leaves `face_flux` as the last epoch wrote it. Every
    /// stored slot has a writer, so poison (NaN) in every one of them —
    /// and in the worker's cluster scratch before every compute, which
    /// `drain` fills — must be overwritten before anything reads it: the
    /// next epoch's flux is bit-identical, in every layout. One pair of
    /// programs per factory, fine path first: replay must reproduce its
    /// flux bit for bit too.
    #[test]
    fn nan_poisoned_face_flux_never_reaches_the_next_epoch() {
        for groups in PAIR_GROUPS {
            let pair = Pair::new(groups);
            let g = groups;
            let mut fine_flux = None;
            for (mode, factory) in &pair.modes {
                let mut up = pair.armed(factory, pair.up);
                let mut down = pair.armed(factory, pair.down);
                let sink = factory.setup.sink.clone();
                let run = |up: &mut Program, down: &mut Program| {
                    for s in drain(up) {
                        down.input(s.src, s.payload);
                    }
                    assert!(drain(down).is_empty());
                    [up.tid, down.tid].map(|tid| {
                        let phi = sink.slot(tid).phi_part.clone();
                        assert!(!phi.is_empty(), "the task completed");
                        phi.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                    })
                };
                // Sweep in the mode's layout once.
                let first = run(&mut up, &mut down);
                assert_eq!(&first, fine_flux.get_or_insert(first.clone()), "{mode}");
                let subs = up.phys.subs.clone();
                let (up_sub, down_sub) = (&subs[up.phys.patch], &subs[down.phys.patch]);
                // The stored slots of `p`'s armed layout that `slots` land in.
                let stored = |p: &Program, slots: &[u32]| -> HashSet<usize> {
                    let addrs = slot_addrs(p);
                    slots
                        .iter()
                        .filter_map(|&s| match addrs[s as usize] {
                            SlotAddr::Persistent(q) => Some(q),
                            SlotAddr::Scratch(_) => None,
                        })
                        .collect()
                };
                // `up` is written by its own internal edges only; `down`
                // also by every remote edge of `up`, which it stores.
                let up_writers = stored(&up, &up_sub.int_dslot);
                let mut down_writers = stored(&down, &up_sub.rem_dslot);
                assert_eq!(down_writers.len(), up_sub.rem_dslot.len(), "{mode}");
                down_writers.extend(stored(&down, &down_sub.int_dslot));
                assert!(!up_writers.is_empty() && down_writers.len() > up_sub.rem_dslot.len());
                for (p, writers, sub) in
                    [(&up, &up_writers, up_sub), (&down, &down_writers, down_sub)]
                {
                    // The slot count the layout stores, with a writer
                    // each.
                    assert_eq!(
                        writers.len() * g,
                        p.phys.face_flux.len(),
                        "{mode} G={g}: a slot without a writer"
                    );
                    assert_eq!(
                        p.phys.face_flux.len() < sub.num_slots() * g,
                        pair.scratch(mode),
                        "{mode} G={g}: in-cluster slots kept out of face_flux"
                    );
                }
                for (p, writers) in [(&mut up, &up_writers), (&mut down, &down_writers)] {
                    for &slot in writers {
                        p.phys.face_flux[slot * g..][..g].fill(f64::NAN);
                    }
                    p.reset(&pair.epoch);
                    assert!(
                        p.phys.face_flux.iter().filter(|x| x.is_nan()).count() == writers.len() * g,
                        "{mode} G={g}: reset wrote face_flux"
                    );
                }
                assert_eq!(
                    run(&mut up, &mut down),
                    first,
                    "{mode} G={g}: stale flux was read"
                );
            }
        }
    }

    /// xorshift64: the mutation test's only randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A stream payload is bytes off a wire. Whatever arrives in place
    /// of a well-formed one, `input` must panic (the worker turns that
    /// into an epoch fault) before it writes a single flux value — and
    /// a duplicate it cannot tell from the original on arrival must
    /// still not let the sweep finish. Release builds included: run
    /// with `--release` this fails wherever a check is a
    /// `debug_assert!`.
    #[test]
    fn mutated_payloads_panic_before_any_flux_is_written() {
        for groups in PAIR_GROUPS {
            let pair = Pair::new(groups);
            mutate_payloads(&pair);
        }
    }

    fn mutate_payloads(pair: &Pair) {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for (mode, factory) in &pair.modes {
            let streams = drain(&mut pair.armed(factory, pair.up));
            let down = pair.armed(factory, pair.down);
            let num_slots = down.phys.subs[down.phys.patch].num_slots();
            // The slots of the subgraph the armed layout keeps in the
            // cluster scratch: in range, yet with no storage to land in.
            let in_cluster: Vec<usize> = (slot_addrs(&down).into_iter().enumerate())
                .filter_map(|(s, a)| matches!(a, SlotAddr::Scratch(_)).then_some(s))
                .collect();
            assert_eq!(!in_cluster.is_empty(), pair.scratch(mode), "{mode}");
            for round in 0..250 {
                let s = &streams[rng.below(streams.len())];
                let good = s.payload.to_vec();
                let n = word(&good, 1) as usize;
                let mut down = pair.armed(factory, pair.down);
                let kind = round % 5;
                let bad = match kind {
                    // Truncated anywhere, the header included.
                    0 => good[..rng.below(good.len())].to_vec(),
                    // Extended by stray bytes.
                    1 => {
                        let extra = 1 + rng.below(16);
                        let mut b = good.clone();
                        b.extend((0..extra).map(|_| rng.below(256) as u8));
                        b
                    }
                    // One slot the receiver does not store: past its
                    // subgraph's, or — when the layout keeps in-cluster
                    // slots in scratch — one of those.
                    2 => {
                        let past = match in_cluster.len() {
                            0 => num_slots + rng.below(1000),
                            m => in_cluster[rng.below(m)],
                        };
                        let i = rng.below(n);
                        let mut b = good.clone();
                        b[8 + 4 * i..][..4].copy_from_slice(&(past as u32).to_le_bytes());
                        b
                    }
                    // An item count the length does not bear out.
                    3 => {
                        let wrong = (n + 1 + rng.below(2 * n + 1)) % (2 * n + 2);
                        assert_ne!(wrong, n);
                        let mut b = good.clone();
                        b[4..8].copy_from_slice(&(wrong as u32).to_le_bytes());
                        b
                    }
                    // The same stream again, after everything it fed
                    // has run: no counter has room for it.
                    _ => {
                        for s in &streams {
                            down.input(s.src, s.payload.clone());
                        }
                        drain(&mut down);
                        good.clone()
                    }
                };
                let before = down.phys.face_flux.clone();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    down.input(s.src, Bytes::from(bad));
                }));
                let g = pair.groups;
                assert!(
                    outcome.is_err(),
                    "{mode} G={g}: mutation {kind} (round {round}) was accepted"
                );
                assert!(
                    down.phys.face_flux == before,
                    "{mode} G={g}: mutation {kind} (round {round}) wrote flux before failing"
                );
            }
            // The same stream again while counters still have room may
            // pass `input` — then the flux it displaced is missed when
            // the real one arrives, or when the internal edge it
            // pre-empted fires.
            for dup in &streams {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut down = pair.armed(factory, pair.down);
                    down.input(dup.src, dup.payload.clone());
                    for s in &streams {
                        down.input(s.src, s.payload.clone());
                    }
                    drain(&mut down);
                }));
                assert!(
                    outcome.is_err(),
                    "{mode}: a duplicated stream went unnoticed"
                );
            }
        }
    }
}
