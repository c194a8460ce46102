//! `SweepPatchProgram` — paper Listing 1, with real physics attached.
//!
//! A program is one `(patch, angle)` sweep task. Its local context is
//! the scheduling state plus the physics state: incoming face-flux
//! storage for every local cell and the per-angle scalar-flux
//! contribution. The scheduling state comes in two flavours, selected
//! per source iteration by [`SweepMode`]:
//!
//! * **Fine** ([`jsweep_graph::SweepState`]: per-vertex counters +
//!   ready priority queue) — the DAG-driven first iteration, which can
//!   record a [`ClusterTrace`] of the clusters its `compute()` calls
//!   form;
//! * **Coarse** ([`jsweep_graph::coarse::CoarseSweepState`] over a
//!   [`ReplayTask`]) — the §V-E replay used from the second iteration
//!   on: `compute()` pops one whole coarse vertex, executes its
//!   recorded vertex list in order, and emits exactly one stream per
//!   outgoing coarse edge, with no per-vertex bookkeeping.
//!
//! Face routing is compiled, not derived: the task's [`Subgraph`]
//! carries, per CSR edge, the source face and the destination face, so
//! neither the kernel loop nor the wire ever asks the mesh for
//! adjacency (the mesh-walking derivation survives only in
//! `solve_serial` and in this module's test oracle).
//!
//! Stream payload formats (see `jsweep_comm::pack`): fine streams are
//! `u32 item_count` then per item `u32 dst_cell`, `u32 dst_face`
//! ([`Subgraph::rem_dface`], resolved by the sender's subgraph),
//! `groups × f64` face flux values. Coarse streams are fully
//! pre-resolved at plan-build time: `u32 dst_cluster`, `u32 item_count`,
//! then `item_count × u32 dst_slot` (`local_cell * max_faces + face` on
//! the receiver — written straight into `face_flux`, no adjacency
//! scan), then `item_count × groups × f64` flux values. The constant
//! prefix (header + slot block) is pre-packed per coarse edge at
//! plan-compile time ([`crate::replay::ReplayEmit::skeleton`]), so
//! replay packing is one memcpy plus the flux writes, and the receiver
//! issues one `receive()` per stream instead of one per item.
//!
//! Under a persistent universe (`jsweep_core::Universe`) the programs
//! stay resident for the whole solve: each source iteration is one
//! epoch, and its [`SweepEpoch`] input is the only carrier of what
//! changes between iterations. The factory builds a program's *shape*
//! (ids, geometry, routing); [`SweepProgram`]'s `reset` arms it for an
//! epoch — the first like every later one — by installing the epoch's
//! emission density, materials and [`SweepMode`], building or
//! re-arming the scheduling state ([`SweepState`]/[`CoarseSweepState`]
//! reset in place) and shaping or zeroing `face_flux` in place: no
//! per-iteration reallocation of the big buffers.

use crate::kernel::{solve_cell_block_geom, CellGeom, KernelKind, GROUP_BLOCK, KERNEL_MAX_FACES};
use crate::replay::{CoarsePlan, ReplayTask, TraceBins};
use crate::xs::MaterialSet;
use bytes::Bytes;
use jsweep_comm::pack::{Reader, Writer};
use jsweep_core::{
    ComputeCtx, EpochInput, PatchProgram, ProgramFactory, ProgramId, Stream, TaskTag,
};
use jsweep_graph::coarse::{ClusterTrace, CoarseSweepState};
use jsweep_graph::{Subgraph, SweepProblem, SweepState};
use jsweep_mesh::{PatchId, SweepTopology};
use jsweep_quadrature::QuadratureSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One patch's bin: the epoch-in-flight deposits plus the free list of
/// recycled accumulator buffers.
#[derive(Default)]
struct PatchBin {
    /// `(angle, w_a · ψ̄ per local cell × group)` contributions of the
    /// epoch in flight.
    deposits: Vec<(u32, Vec<f64>)>,
    /// Recycled buffers awaiting [`FluxBins::acquire`].
    free: Vec<Vec<f64>>,
}

/// Per-patch collection bins for scalar-flux contributions, with a
/// buffer pool that makes resident epochs allocation-free.
///
/// Each `(patch, angle)` program deposits `w_a · ψ̄` for its local
/// cells; the solver folds the bins in angle order after the sweep so
/// the floating-point result is independent of scheduling order.
/// Folding (and scrubbing) *recycles* every deposited buffer into the
/// patch's free list, and programs re-arm their `phi_part` accumulator
/// through [`FluxBins::acquire`] — so from the second epoch of a
/// resident universe on, the flux round-trip allocates nothing.
/// [`FluxBins::fresh_allocations`] counts pool misses, pinned by a
/// regression test so the round-trip cannot silently re-allocate.
pub struct FluxBins {
    bins: Vec<Mutex<PatchBin>>,
    fresh: AtomicU64,
}

impl FluxBins {
    /// Empty bins (and empty pools) for `num_patches` patches.
    pub fn new(num_patches: usize) -> FluxBins {
        FluxBins {
            bins: (0..num_patches)
                .map(|_| Mutex::new(PatchBin::default()))
                .collect(),
            fresh: AtomicU64::new(0),
        }
    }

    /// Number of patches covered.
    pub fn num_patches(&self) -> usize {
        self.bins.len()
    }

    /// Deposit one finished `(patch, angle)` contribution.
    pub fn deposit(&self, patch: usize, angle: u32, part: Vec<f64>) {
        self.bins[patch].lock().deposits.push((angle, part));
    }

    /// Take a zeroed accumulator of `len` for `patch`, reusing a
    /// recycled buffer when one with sufficient capacity is pooled.
    /// Undersized pool entries (the group count changed between
    /// universes) are dropped; a pool miss allocates fresh and bumps
    /// [`FluxBins::fresh_allocations`].
    pub fn acquire(&self, patch: usize, len: usize) -> Vec<f64> {
        let recycled = {
            let mut bin = self.bins[patch].lock();
            loop {
                match bin.free.pop() {
                    Some(b) if b.capacity() >= len => break Some(b),
                    Some(_) => continue,
                    None => break None,
                }
            }
        };
        match recycled {
            Some(mut b) => {
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Fold (and drain) the deposits into `φ_new`, in angle order per
    /// patch so the floating-point result is independent of scheduling
    /// order. Every drained buffer is recycled into its patch's pool,
    /// ready for the next epoch's [`FluxBins::acquire`].
    pub fn fold(&self, problem: &SweepProblem, n: usize, groups: usize) -> Vec<f64> {
        let mut phi_new = vec![0.0; n * groups];
        for p in problem.patches.patches() {
            let mut bin = self.bins[p.index()].lock();
            let bin = &mut *bin;
            bin.deposits.sort_by_key(|(angle, _)| *angle);
            let cells = problem.patches.cells(p);
            for (_, part) in bin.deposits.iter() {
                assert_eq!(part.len(), cells.len() * groups);
                for (li, &cell) in cells.iter().enumerate() {
                    for g in 0..groups {
                        phi_new[cell as usize * groups + g] += part[li * groups + g];
                    }
                }
            }
            bin.free
                .extend(bin.deposits.drain(..).map(|(_, part)| part));
        }
        phi_new
    }

    /// Drop all pending deposits, recycling their buffers. Used to
    /// scrub partial contributions after a faulted epoch — the buffers
    /// themselves stay reusable.
    pub fn clear(&self) {
        for bin in &self.bins {
            let mut bin = bin.lock();
            let bin = &mut *bin;
            bin.free
                .extend(bin.deposits.drain(..).map(|(_, part)| part));
        }
    }

    /// Accumulator buffers allocated fresh (pool misses) since
    /// construction. Steady state for a resident universe is one per
    /// `(patch, angle)` program, all paid on the first epoch.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }
}

/// Which scheduling mode the sweep programs of one iteration run in.
#[derive(Clone)]
pub enum SweepMode {
    /// Per-vertex DAG-driven sweep. With `trace_bins` set, every task
    /// records its [`ClusterTrace`] and deposits it on completion —
    /// the recording pass of §V-E.
    Fine {
        /// Trace sink, indexed by [`SweepProblem::tid`].
        trace_bins: Option<Arc<TraceBins>>,
    },
    /// Coarse-graph replay of a previously compiled [`CoarsePlan`].
    Coarse {
        /// The plan built from the recording iteration's traces.
        plan: Arc<CoarsePlan>,
    },
}

/// Per-epoch input of a sweep universe: everything that changes
/// between source iterations. Handed to
/// `jsweep_core::Universe::run_epoch`; every [`SweepProgram`]
/// downcasts it in its [`PatchProgram::reset`].
pub struct SweepEpoch {
    /// This iteration's emission density `(σ_s φ + Q)/4π` per
    /// `cell * groups + g`.
    pub emission: Arc<Vec<f64>>,
    /// This iteration's scheduling mode (fine/record vs replay).
    pub mode: SweepMode,
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
    /// Scalar-flux bins, indexed by patch.
    pub flux_bins: Arc<FluxBins>,
}

/// The factory handed to the JSweep runtime: one program per
/// `(patch, angle)`.
pub struct SweepFactory<T: SweepTopology + Send + Sync + 'static> {
    setup: SweepSetup<T>,
    /// Faces per cell — one count for the whole mesh (checked in
    /// [`SweepFactory::new`]): the stride of every `face_flux` slot.
    max_faces: usize,
}

impl<T: SweepTopology + Send + Sync + 'static> SweepFactory<T> {
    /// Wrap a setup. Panics on a mixed-element mesh: `face_flux` and
    /// the replay wire slots index with a single per-cell face count.
    pub fn new(setup: SweepSetup<T>) -> SweepFactory<T> {
        assert!(setup.grain > 0 && setup.groups > 0);
        let max_faces = setup.mesh.num_faces(0);
        assert!(
            max_faces <= KERNEL_MAX_FACES,
            "cells with {max_faces} faces exceed KERNEL_MAX_FACES"
        );
        assert!(
            (0..setup.mesh.num_cells()).all(|c| setup.mesh.num_faces(c) == max_faces),
            "mixed-element mesh: every cell must have {max_faces} faces"
        );
        SweepFactory { setup, max_faces }
    }
}

/// Per-program scheduling state: the fine/coarse counterpart of the
/// shared [`SweepMode`].
enum Sched {
    /// Created, not yet armed: `reset` builds the epoch's state.
    Unarmed,
    /// DAG-driven execution; `trace` is `Some` while recording.
    Fine {
        state: SweepState,
        trace: Option<(ClusterTrace, Arc<TraceBins>)>,
    },
    /// Coarse replay over the compiled task. `vertices_left` tracks the
    /// remaining workload in vertex units (the unit counting
    /// termination accounts in), not clusters.
    Coarse {
        state: CoarseSweepState,
        task: Arc<ReplayTask>,
        vertices_left: u64,
    },
}

/// The physics half of a program: everything the numerical kernel
/// reads and writes. Kept apart from the scheduling half so `compute`
/// borrows the two side by side — the subgraph, the mesh and the
/// compiled task are borrowed, never `Arc`-cloned, per call.
struct Physics<T> {
    mesh: Arc<T>,
    materials: Arc<MaterialSet>,
    emission: Arc<Vec<f64>>,
    /// The angle's subgraphs (Arc-shared per octant); this program's
    /// own — its routing table — is `subs[patch]`.
    subs: Arc<Vec<Subgraph>>,
    patch: usize,
    kernel: KernelKind,
    groups: usize,
    weight: f64,
    dir: [f64; 3],
    max_faces: usize,
    /// Incoming face flux per `local_cell * max_faces * groups`
    /// (shaped by the first reset, zeroed in place by later ones —
    /// never reallocated).
    face_flux: Vec<f64>,
    /// Scalar-flux accumulation per `local_cell * groups` (w_a · ψ̄).
    /// Handed to the flux bin on completion (the one buffer that is
    /// given away per epoch by design).
    phi_part: Vec<f64>,
    /// Outgoing remote face-flux staging per
    /// `fine_remote_edge * groups`, addressed by the subgraph's remote
    /// CSR in both scheduling modes: the group-block kernel passes
    /// write block sub-slices here, then fine mode assembles stream
    /// items from it post-hoc and coarse mode's pre-resolved
    /// [`ReplayTask`] emissions read it directly.
    remote_vals: Vec<f64>,
    /// Per-cluster hoisted cell geometry (phase 0 of
    /// [`Physics::kernel_cluster`]; reused across calls).
    geom_scratch: Vec<CellGeom>,
}

impl<T: SweepTopology> Physics<T> {
    /// Write one stream item's `groups` flux values into incoming
    /// face-flux slot `slot` (`local_cell * max_faces + face`).
    fn ingest(&mut self, slot: usize, r: &mut Reader) {
        for x in &mut self.face_flux[slot * self.groups..(slot + 1) * self.groups] {
            *x = r.get_f64();
        }
    }

    /// Run the numerical kernel over `cluster` (in order): solve every
    /// cell, accumulate the angular-weighted scalar flux, write local
    /// downwind face fluxes in place and stage remote ones in
    /// `remote_vals` (CSR-addressed, consumed by the fine stream
    /// assembly or the coarse emissions). Identical physics in both
    /// scheduling modes — which is what makes the coarse replay
    /// bit-identical to the fine path.
    ///
    /// Topology-free: phase 0 hoists only the per-cell geometry
    /// ([`CellGeom`]); phase 1 streams the cell list once per
    /// [`GROUP_BLOCK`]-wide group block and routes each solved cell by
    /// walking its two CSR ranges of the subgraph — internal edge `k`
    /// copies `out[int_sface[k]]` to `face_flux` slot
    /// `int_dst[k] * max_faces + int_dface[k]`, remote edge `k` copies
    /// `out[rem_sface[k]]` to `remote_vals[k]`. Upwind, flow-0,
    /// boundary and cycle-broken faces have no edge and so write
    /// nothing. Each pass touches contiguous block sub-slices and walks
    /// the cluster in its (topological) order, which preserves
    /// in-cluster upwind/downwind dependencies per block exactly as
    /// the scalar path did per group.
    fn kernel_cluster(&mut self, cluster: &[u32]) {
        let sub = &self.subs[self.patch];
        let (groups, mf) = (self.groups, self.max_faces);

        self.geom_scratch.clear();
        self.geom_scratch.extend(
            cluster.iter().map(|&v| {
                CellGeom::new(self.mesh.as_ref(), sub.cells[v as usize] as usize, self.dir)
            }),
        );

        let mut g0 = 0;
        while g0 < groups {
            let b = GROUP_BLOCK.min(groups - g0);
            for (geom, &v) in self.geom_scratch.iter().zip(cluster) {
                let cell = sub.cells[v as usize] as usize;
                let mat = self.materials.material(cell);
                // Outgoing block scratch lives on the stack
                // (GROUP_BLOCK-strided even for the tail block); the
                // incoming view reads `face_flux` directly — earlier
                // cells of this pass have already written this cell's
                // upwind slots for the block's groups.
                let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
                let mut psi = [0.0f64; GROUP_BLOCK];
                let in_base = (v as usize * mf) * groups + g0;
                let q_base = cell * groups + g0;
                solve_cell_block_geom(
                    geom,
                    self.kernel,
                    &mat.sigma_t[g0..g0 + b],
                    &self.emission[q_base..q_base + b],
                    &self.face_flux[in_base..],
                    groups,
                    &mut out,
                    GROUP_BLOCK,
                    &mut psi,
                );
                // Accumulate the angular-weighted cell flux.
                let phi_base = v as usize * groups + g0;
                let phi = &mut self.phi_part[phi_base..phi_base + b];
                for (p, &x) in phi.iter_mut().zip(psi.iter()) {
                    *p += self.weight * x;
                }
                // Route the outgoing face-flux blocks along the CSR.
                for k in sub.int_range(v) {
                    let blk = &out[sub.int_sface[k] as usize * GROUP_BLOCK..][..b];
                    let slot = sub.int_dst[k] as usize * mf + sub.int_dface[k] as usize;
                    self.face_flux[slot * groups + g0..][..b].copy_from_slice(blk);
                }
                for k in sub.rem_range(v) {
                    let blk = &out[sub.rem_sface[k] as usize * GROUP_BLOCK..][..b];
                    self.remote_vals[k * groups + g0..][..b].copy_from_slice(blk);
                }
            }
            g0 += b;
        }
    }
}

/// The patch-program of one `(patch, angle)` sweep task.
pub struct SweepProgram<T: SweepTopology + Send + Sync + 'static> {
    id: ProgramId,
    problem: Arc<SweepProblem>,
    flux_bins: Arc<FluxBins>,
    grain: usize,
    /// Scheduling state (fine counters + ready queue, or coarse replay).
    sched: Sched,
    /// Kernel inputs and the numeric buffers.
    phys: Physics<T>,
    /// Fine-path per-destination stream writers, persistent across
    /// compute calls and epochs (entries keep their map slot; buffers
    /// are frozen into payloads per flush).
    stream_writers: HashMap<PatchId, Writer>,
    /// Item counts matching [`SweepProgram::stream_writers`].
    stream_counts: HashMap<PatchId, u32>,
    /// Coarse-path ingest scratch: the slot block of the stream being
    /// consumed (reused across inputs).
    slot_scratch: Vec<u32>,
}

impl<T: SweepTopology + Send + Sync + 'static> SweepProgram<T> {
    /// Fine-mode `compute()`: pop a cluster of ready vertices
    /// (recording it when tracing), run the kernel, emit one stream per
    /// target patch (clustering aggregates messages, §V-C benefit 2).
    fn compute_fine(&mut self, ctx: &mut ComputeCtx) {
        let Sched::Fine { state, trace } = &mut self.sched else {
            unreachable!("compute_fine on a coarse program");
        };
        let phys = &mut self.phys;
        // DAG bookkeeping: pop a cluster of ready vertices.
        let cluster = state.pop_cluster(&phys.subs[phys.patch], self.grain, |_, _| {});
        if cluster.is_empty() {
            return;
        }
        if let Some((t, _)) = trace {
            t.record(cluster.clone());
        }
        ctx.work_done = cluster.len() as u64;

        // Numerical kernel + stream assembly (writers/counts are
        // program-resident: map slots persist across compute calls and
        // epochs).
        let (writers, counts) = (&mut self.stream_writers, &mut self.stream_counts);
        ctx.kernel(|| {
            phys.kernel_cluster(&cluster);
            // Phase 2 — assemble the per-patch stream items from the
            // staged remote values, in (vertex, remote-CSR) order:
            // the CSR is packed in face order, so the items are in
            // exactly the order per-cell streaming produced. Each item
            // names its landing slot (`dst_cell`, `dst_face`) straight
            // from the subgraph. Writers are persistent (reused
            // across compute calls and epochs): an empty one starts a
            // fresh payload with the count placeholder patched at
            // emission.
            let sub = &phys.subs[phys.patch];
            for &v in &cluster {
                for k in sub.rem_range(v) {
                    let dst = sub.rem_dst[k];
                    let w = writers.entry(dst.patch).or_default();
                    if w.is_empty() {
                        w.put_u32(0); // patched below
                    }
                    w.put_u32(dst.cell);
                    w.put_u32(u32::from(sub.rem_dface[k]));
                    for &x in &phys.remote_vals[k * phys.groups..(k + 1) * phys.groups] {
                        w.put_f64(x);
                    }
                    *counts.entry(dst.patch).or_default() += 1;
                }
            }
        });

        let mut targets: Vec<PatchId> = counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(p, _)| *p)
            .collect();
        targets.sort_unstable();
        for patch in targets {
            let w = writers.get_mut(&patch).expect("counted patch has a writer");
            let mut bytes = w.take().to_vec();
            bytes[..4].copy_from_slice(&counts[&patch].to_le_bytes());
            counts.insert(patch, 0);
            ctx.send(Stream {
                src: self.id,
                dst: ProgramId::new(patch, self.id.task),
                payload: Bytes::from(bytes),
            });
        }

        // On completion, deposit the scalar-flux contribution and, when
        // recording, the cluster trace.
        if state.is_complete() {
            if let Some((t, bins)) = trace.take() {
                let tid = self
                    .problem
                    .tid(self.id.patch.index(), self.id.task.0 as usize);
                *bins[tid].lock() = Some(t);
            }
            self.deposit_flux();
        }
    }

    /// Coarse-mode `compute()` (§V-E replay): pop one whole coarse
    /// vertex, execute its recorded vertex list in order, and emit
    /// exactly one stream per outgoing coarse edge — no per-vertex
    /// in-degree bookkeeping, no priority recomputation.
    fn compute_coarse(&mut self, ctx: &mut ComputeCtx) {
        let Sched::Coarse {
            state,
            task,
            vertices_left,
        } = &mut self.sched
        else {
            unreachable!("compute_coarse on a fine program");
        };
        let Some(cv) = state.pop(&task.coarse) else {
            return;
        };
        let cluster = &task.coarse.clusters[cv as usize];
        *vertices_left -= cluster.len() as u64;
        // ClusterTrace::record drops empty clusters, so a compiled
        // coarse vertex is never empty; executing one would emit its
        // coarse edges without computing anything.
        assert!(
            !cluster.is_empty(),
            "coarse replay scheduled an empty compute cluster (trace contract violated)"
        );
        ctx.work_done = cluster.len() as u64;

        let (id, phys) = (self.id, &mut self.phys);
        let groups = phys.groups;
        // Serialization happens inside the kernel closure, exactly as
        // the fine path packs its stream items there — keeping the
        // Kernel/GraphOp split comparable between the two modes. The
        // closure pushes straight onto the context's output list.
        let mut out = std::mem::take(&mut ctx.out);
        ctx.kernel(|| {
            phys.kernel_cluster(cluster);
            // One stream per outgoing coarse edge, items pre-resolved
            // against the same remote-CSR staging the kernel wrote.
            for emit in &task.emits[cv as usize] {
                // Stream size is exactly known at plan-build time:
                // the pre-packed skeleton (header + slot block,
                // one memcpy) followed by the flux block.
                let mut w =
                    Writer::with_capacity(emit.skeleton.len() + emit.items.len() * 8 * groups);
                w.put_bytes(&emit.skeleton);
                for item in &emit.items {
                    let k = item.rem_idx as usize;
                    for &x in &phys.remote_vals[k * groups..(k + 1) * groups] {
                        w.put_f64(x);
                    }
                }
                out.push(Stream {
                    src: id,
                    dst: ProgramId::new(emit.patch, id.task),
                    payload: w.finish(),
                });
            }
        });
        ctx.out = out;

        if state.is_complete() {
            self.deposit_flux();
        }
    }

    /// Deposit the finished scalar-flux contribution into the patch
    /// bin. The buffer comes back through [`FluxBins::acquire`] at the
    /// next epoch's reset — the flux round-trip.
    fn deposit_flux(&mut self) {
        let part = std::mem::take(&mut self.phys.phi_part);
        self.flux_bins
            .deposit(self.id.patch.index(), self.id.task.0, part);
    }
}

impl<T: SweepTopology + Send + Sync + 'static> PatchProgram for SweepProgram<T> {
    fn init(&mut self) {
        // Shape comes from `create`, state from `reset`; nothing
        // further.
    }

    fn input(&mut self, _src: ProgramId, payload: Bytes) {
        let mut r = Reader::new(payload);
        match &mut self.sched {
            Sched::Coarse { state, .. } => {
                // One coarse edge per stream: the pre-packed slot
                // block, the flux block, then a single in-degree
                // decrement on the target coarse vertex. Slots are
                // plan-resolved face-flux indices, so ingestion is a
                // direct write.
                let cv = r.get_u32();
                let n = r.get_u32() as usize;
                self.slot_scratch.clear();
                self.slot_scratch.extend((0..n).map(|_| r.get_u32()));
                for &slot in &self.slot_scratch {
                    self.phys.ingest(slot as usize, &mut r);
                }
                state.receive(cv);
            }
            Sched::Fine { state, .. } => {
                // Fine items name their landing slot themselves:
                // `dst_cell`, then the sender-resolved `dst_face`.
                for _ in 0..r.get_u32() {
                    let li = self.problem.patches.local_index(r.get_u32() as usize);
                    let face = r.get_u32() as usize;
                    assert!(face < self.phys.max_faces, "stream item face out of range");
                    self.phys.ingest(li * self.phys.max_faces + face, &mut r);
                    state.receive(li as u32);
                }
            }
            Sched::Unarmed => unreachable!("input before reset"),
        }
    }

    fn compute(&mut self, ctx: &mut ComputeCtx) {
        match self.sched {
            Sched::Coarse { .. } => self.compute_coarse(ctx),
            Sched::Fine { .. } => self.compute_fine(ctx),
            Sched::Unarmed => unreachable!("compute before reset"),
        }
    }

    fn vote_to_halt(&self) -> bool {
        match &self.sched {
            Sched::Fine { state, .. } => !state.has_ready(),
            Sched::Coarse { state, .. } => !state.has_ready(),
            Sched::Unarmed => unreachable!("vote before reset"),
        }
    }

    fn remaining_work(&self) -> u64 {
        match &self.sched {
            Sched::Fine { state, .. } => state.remaining(),
            Sched::Coarse { vertices_left, .. } => *vertices_left,
            Sched::Unarmed => unreachable!("workload query before reset"),
        }
    }

    /// Arm this program for a source iteration (one epoch): install
    /// the epoch's emission density, materials and scheduling mode,
    /// reset the scheduling state in place (same-mode epochs reuse the
    /// existing [`SweepState`]/[`CoarseSweepState`] allocations; the
    /// first epoch or a mode switch builds the state once), bring
    /// `face_flux` to the vacuum condition and restore the flux
    /// accumulator. The big buffers are shaped by the first reset and
    /// never reallocated across same-mode epochs.
    fn reset(&mut self, epoch: &EpochInput) {
        let e = epoch
            .downcast_ref::<SweepEpoch>()
            .expect("SweepProgram reset with a non-SweepEpoch input");
        let phys = &mut self.phys;
        let groups = phys.groups;
        assert_eq!(
            e.emission.len(),
            phys.mesh.num_cells() * groups,
            "epoch emission density has the wrong shape"
        );
        phys.emission = e.emission.clone();
        assert_eq!(
            e.materials.num_cells(),
            phys.mesh.num_cells(),
            "epoch materials must cover the mesh"
        );
        assert_eq!(
            e.materials.num_groups(),
            groups,
            "epoch materials cannot change the group count of a program"
        );
        phys.materials = e.materials.clone();
        let problem = &self.problem;
        let (p, a) = (self.id.patch.index(), self.id.task.0 as usize);
        let sub = &phys.subs[p];
        match (&mut self.sched, &e.mode) {
            (Sched::Fine { state, .. }, SweepMode::Fine { .. }) => state.reset(sub),
            (
                Sched::Coarse {
                    state,
                    task,
                    vertices_left,
                },
                SweepMode::Coarse { plan },
            ) if Arc::ptr_eq(task, &plan.tasks[a][p]) => {
                // Same compiled task: pure in-place re-arm.
                state.reset(&task.coarse);
                *vertices_left = task.coarse.num_vertices() as u64;
            }
            (sched, SweepMode::Coarse { plan }) => {
                // First arming, fine → coarse transition or a
                // recompiled plan: adopt the task; later epochs reset
                // it in place.
                let task = plan.tasks[a][p].clone();
                *sched = Sched::Coarse {
                    state: CoarseSweepState::new(&task.coarse),
                    vertices_left: task.coarse.num_vertices() as u64,
                    task,
                };
            }
            (sched, SweepMode::Fine { .. }) => {
                // First arming, or a coarse → fine transition
                // (coarsening disabled mid-solve): build the fine state.
                let prio = problem.vprio[a][p].clone();
                *sched = Sched::Fine {
                    state: SweepState::new(sub, prio),
                    trace: None,
                };
            }
        }
        if let (Sched::Fine { trace, .. }, SweepMode::Fine { trace_bins }) =
            (&mut self.sched, &e.mode)
        {
            // Only canonical angles record: octant members share the
            // canonical DAG, so one trace per octant serves every
            // member at replay time.
            *trace = trace_bins
                .as_ref()
                .filter(|_| problem.canonical_angle(a) == a)
                .map(|bins| (ClusterTrace::default(), bins.clone()));
        }
        // Buffer hygiene: incoming face flux at the vacuum boundary
        // condition — allocated zeroed by the first reset, zeroed in
        // place by later ones; the flux accumulator (handed to the bin
        // last epoch) re-acquired from the pool — the buffer some
        // program of this patch deposited last epoch, so resident
        // epochs allocate nothing; remote staging sized to the
        // subgraph's remote CSR (values are written before read within
        // each compute, so no zeroing needed beyond sizing).
        let n = sub.num_vertices();
        if phys.face_flux.len() == n * phys.max_faces * groups {
            phys.face_flux.fill(0.0);
        } else {
            phys.face_flux = vec![0.0; n * phys.max_faces * groups];
        }
        if phys.phi_part.capacity() < n * groups {
            // Deposited (or never shaped): round-trip via the pool.
            phys.phi_part = self.flux_bins.acquire(p, n * groups);
        } else {
            // Never deposited (e.g. the last epoch faulted before this
            // program completed): re-zero in place.
            phys.phi_part.clear();
            phys.phi_part.resize(n * groups, 0.0);
        }
        phys.remote_vals.resize(sub.rem_dst.len() * groups, 0.0);
        debug_assert!(
            self.stream_counts.values().all(|&c| c == 0),
            "unsent stream items at epoch boundary"
        );
    }
}

impl<T: SweepTopology + Send + Sync + 'static> ProgramFactory for SweepFactory<T> {
    type Program = SweepProgram<T>;

    fn create(&self, id: ProgramId) -> SweepProgram<T> {
        // Shape only: the epoch's data, the scheduling state and the
        // epoch-sized buffers are installed by the `reset` the runtime
        // follows every `create` with.
        let s = &self.setup;
        let (p, a) = (id.patch.index(), id.task.0 as usize);
        let angle = jsweep_quadrature::AngleId(id.task.0);
        SweepProgram {
            id,
            problem: s.problem.clone(),
            flux_bins: s.flux_bins.clone(),
            grain: s.grain,
            sched: Sched::Unarmed,
            phys: Physics {
                mesh: s.mesh.clone(),
                materials: Arc::default(),
                emission: Arc::default(),
                subs: s.problem.subs[a].clone(),
                patch: p,
                kernel: s.kernel,
                groups: s.groups,
                weight: s.quadrature.ordinate(angle).weight,
                dir: s.quadrature.direction(angle),
                max_faces: self.max_faces,
                face_flux: Vec::new(),
                phi_part: Vec::new(),
                remote_vals: Vec::new(),
                geom_scratch: Vec::new(),
            },
            stream_writers: HashMap::new(),
            stream_counts: HashMap::new(),
            slot_scratch: Vec::new(),
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
    use crate::solver::{record_cluster_traces, SnConfig};
    use crate::xs::{Material, MaterialSet};
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_graph::{Subgraph, SweepProblem};
    use jsweep_mesh::deformed::DeformedMesh;
    use jsweep_mesh::{face_toward, partition, PatchSet, StructuredMesh, SweepTopology};
    use jsweep_quadrature::QuadratureSet;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Where a cluster cell's face sends its outgoing flux.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Route {
        /// Upwind, flow-0, boundary or cycle-broken face.
        Skip,
        /// `face_flux` slot `neighbour_local * max_faces + neighbour_face`.
        Local(usize),
        /// Staging index into the remote CSR.
        Remote(usize),
    }

    /// The oracle: the per-cluster route derivation `kernel_cluster` ran
    /// every iteration before routes were compiled into the subgraph —
    /// walk the mesh faces, skip broken edges, resolve the reciprocal
    /// face with `face_toward`, number remote faces in visit order.
    fn mesh_walk_routes<T: SweepTopology>(
        mesh: &T,
        patches: &PatchSet,
        sub: &Subgraph,
        dir: [f64; 3],
        broken: &HashSet<(u32, u32)>,
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
                routes[i * mf + f] = if patches.patch_of(nb) == sub.patch {
                    let nface = face_toward(mesh, nb, cell).unwrap();
                    Route::Local(patches.local_index(nb) * mf + nface)
                } else {
                    let k = sub.rem_off[v as usize] as usize + rem_seen;
                    rem_seen += 1;
                    Route::Remote(k)
                };
            }
        }
        routes
    }

    /// The same table read off the subgraph's CSR, as `kernel_cluster`
    /// routes now.
    fn csr_routes(sub: &Subgraph, cluster: &[u32], mf: usize) -> Vec<Route> {
        let mut routes = vec![Route::Skip; cluster.len() * mf];
        for (i, &v) in cluster.iter().enumerate() {
            for k in sub.int_range(v) {
                routes[i * mf + sub.int_sface[k] as usize] =
                    Route::Local(sub.int_dst[k] as usize * mf + sub.int_dface[k] as usize);
            }
            for k in sub.rem_range(v) {
                routes[i * mf + sub.rem_sface[k] as usize] = Route::Remote(k);
            }
        }
        routes
    }

    fn assert_routes_agree<T: SweepTopology + Send + Sync + 'static>(
        mesh: T,
        patches: PatchSet,
        opts: ProblemOptions,
    ) {
        let quad = QuadratureSet::sn(2);
        let mesh = Arc::new(mesh);
        let problem = Arc::new(SweepProblem::build(mesh.as_ref(), patches, &quad, &opts));
        let mats = MaterialSet::homogeneous(mesh.num_cells(), Material::uniform(1, 1.0, 0.5, 1.0));
        let config = SnConfig {
            grain: 8,
            ..Default::default()
        };
        let traces = record_cluster_traces(
            mesh.clone(),
            problem.clone(),
            &quad,
            Arc::new(mats),
            &config,
        );
        let mf = mesh.num_faces(0);
        let mut clusters = 0;
        for (a, o) in quad.iter() {
            for (sub, trace) in problem.subs[a.index()].iter().zip(&traces[a.index()]) {
                for cluster in &trace.clusters {
                    let oracle = mesh_walk_routes(
                        mesh.as_ref(),
                        &problem.patches,
                        sub,
                        o.dir,
                        &problem.broken[a.index()],
                        cluster,
                        mf,
                    );
                    assert_eq!(csr_routes(sub, cluster, mf), oracle);
                    clusters += 1;
                }
            }
        }
        assert!(clusters > 0, "the recording pass produced no clusters");
    }

    #[test]
    fn csr_routes_equal_the_mesh_walk_on_recorded_clusters() {
        let hex = StructuredMesh::unit(6, 6, 6);
        let ps = partition::decompose_structured(&hex, (3, 3, 3), 2);
        assert_routes_agree(hex, ps, ProblemOptions::default());
        let tet = jsweep_mesh::tetgen::ball(3, 1.0);
        let ps = partition::decompose_unstructured(&tet, 40, 2);
        assert_routes_agree(tet, ps, ProblemOptions::default());
        let def = DeformedMesh::jittered(4, 4, 4, 0.3, 5);
        let ps = partition::rcb(&def, 4);
        let opts = ProblemOptions {
            check_cycles: true,
            ..Default::default()
        };
        assert_routes_agree(def, ps, opts);
    }
}
