//! Per-layer probes: each times one crate's public functions from
//! outside, on the workload's own mesh and problem where the layer
//! depends on them, single-threaded unless the thing measured is a
//! hand-off between threads.
//!
//! A probe repeats its unit of work until its share of the time budget
//! is spent (and at least a minimum count), and reports the median, so
//! a preempted repetition does not move the number.

use crate::inputs::{BenchMesh, Case};
use crate::numeric::median;
use bytes::Bytes;
use jsweep_comm::socket::SocketUniverse;
use jsweep_comm::Comm;
use jsweep_core::pool::{FinishEntry, Pool};
use jsweep_core::{
    fabric_for, pack_frame, unpack_frame, ComputeCtx, EpochInput, PatchProgram, ProgramFactory,
    ProgramId, RuntimeConfig, Stream, TaskTag, TransportKind, Universe,
};
use jsweep_graph::coarse::{build_coarse, CoarseSweepState, CoarsenedTask};
use jsweep_graph::SweepState;
use jsweep_mesh::PatchId;
use jsweep_transport::kernel::{
    solve_cell, solve_cell_block_geom, CellGeom, GROUP_BLOCK, KERNEL_MAX_FACES,
};
use jsweep_transport::solver::record_cluster_traces;
use jsweep_transport::MaterialSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeat `unit` (which returns the seconds it measured) until
/// `budget` is spent and `min` repetitions ran; the median.
fn repeat(budget: Duration, min: usize, mut unit: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || t0.elapsed() < budget {
        samples.push(unit());
    }
    median(&samples)
}

// ------------------------------------------------------------- graph

/// What the graph probes measured.
pub struct GraphProbe {
    /// Fine scheduling cost per `(cell, angle)` vertex.
    pub fine_ns_per_vertex: f64,
    /// Coarse replay scheduling cost per original vertex.
    pub coarse_ns_per_vertex: f64,
    /// `build_coarse` over every canonical angle.
    pub coarse_build_ms: f64,
    /// Mean recorded cluster size.
    pub vertices_per_cluster: f64,
}

/// Drive the fine and the coarse scheduling state of every
/// `(patch, angle)` task through a whole sweep with no kernel attached.
pub fn graph<T: BenchMesh>(
    case: &Case<T>,
    materials: &Arc<MaterialSet>,
    budget: Duration,
) -> GraphProbe {
    let problem = &case.problem;
    let patches = &problem.patches;
    let np = problem.num_patches();
    let vertices = (case.mesh.num_cells() * problem.num_angles) as f64;

    // Fine path: reset + receive/pop_cluster, patches served round-robin.
    let mut states: Vec<Vec<SweepState>> = (0..problem.num_angles)
        .map(|a| {
            (0..np)
                .map(|p| SweepState::new(&problem.subs[a][p], problem.vprio[a][p].clone()))
                .collect()
        })
        .collect();
    let mut remote = Vec::new();
    let fine_s = repeat(budget / 3, 2, || {
        let t0 = Instant::now();
        for (a, angle_states) in states.iter_mut().enumerate() {
            let subs = &problem.subs[a];
            for (st, sub) in angle_states.iter_mut().zip(subs.iter()) {
                st.reset(sub);
            }
            loop {
                let mut progressed = false;
                for p in 0..np {
                    while angle_states[p].has_ready() {
                        progressed = true;
                        let cluster =
                            angle_states[p]
                                .pop_cluster(&subs[p], case.spec.grain, |_, re| remote.push(re));
                        black_box(cluster);
                        for re in remote.drain(..) {
                            let lv = patches.local_index(re.cell as usize) as u32;
                            angle_states[re.patch.index()].receive(lv);
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            assert!(
                angle_states.iter().all(SweepState::is_complete),
                "fine scheduling probe deadlocked"
            );
        }
        t0.elapsed().as_secs_f64()
    });

    // The workload's own clusters: one real recording iteration.
    let traces = record_cluster_traces(
        case.mesh.clone(),
        problem.clone(),
        &case.quad,
        materials.clone(),
        &case.config,
    );
    let mut tasks: Vec<Option<Vec<CoarsenedTask>>> = vec![None; problem.num_angles];
    let mut clusters = 0usize;
    let mut clustered_vertices = 0usize;
    let t0 = Instant::now();
    for a in problem.canonical_angles() {
        tasks[a] = Some(build_coarse(&problem.subs[a], &traces[a]));
    }
    let coarse_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    for a in problem.canonical_angles() {
        for t in &traces[a] {
            clusters += t.clusters.len();
            clustered_vertices += t.num_vertices();
        }
    }

    // Coarse path: reset + receive/pop over the compiled tasks.
    let mut coarse_states: Vec<Vec<CoarseSweepState>> = (0..problem.num_angles)
        .map(|a| {
            let own = tasks[problem.canonical_angle(a)].as_ref().expect("built");
            own.iter().map(CoarseSweepState::new).collect()
        })
        .collect();
    let coarse_s = repeat(budget / 3, 2, || {
        let t0 = Instant::now();
        for (a, angle_states) in coarse_states.iter_mut().enumerate() {
            let own = tasks[problem.canonical_angle(a)].as_ref().expect("built");
            for (st, task) in angle_states.iter_mut().zip(own) {
                st.reset(task);
            }
            loop {
                let mut progressed = false;
                for p in 0..np {
                    while let Some(cv) = angle_states[p].pop(&own[p]) {
                        progressed = true;
                        for e in &own[p].remote[cv as usize] {
                            angle_states[e.patch.index()].receive(e.cluster);
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            assert!(
                angle_states.iter().all(CoarseSweepState::is_complete),
                "coarse scheduling probe deadlocked"
            );
        }
        t0.elapsed().as_secs_f64()
    });

    GraphProbe {
        fine_ns_per_vertex: fine_s * 1e9 / vertices,
        coarse_ns_per_vertex: coarse_s * 1e9 / vertices,
        coarse_build_ms,
        vertices_per_cluster: clustered_vertices as f64 / clusters.max(1) as f64,
    }
}

// -------------------------------------------------------------- comm

const TAG_BALL: u32 = 1;
const TAG_STOP: u32 = 2;
/// Round trips (or frames, or barriers) per timed batch.
const COMM_BATCH: usize = 100;

/// Rank 1 of a two-endpoint world, echoing until told to stop.
fn echo_until_stopped(mut comm: Comm) {
    loop {
        let m = comm.recv().expect("probe peer alive");
        if m.tag == TAG_STOP {
            return;
        }
        comm.send(0, TAG_BALL, m.payload).expect("probe peer alive");
    }
}

/// Microseconds per 16-byte round trip between two `Comm` endpoints.
pub fn pingpong_us(mut world: Vec<Comm>, budget: Duration) -> f64 {
    let peer = world.pop().expect("two endpoints");
    let mut me = world.pop().expect("two endpoints");
    let ball = Bytes::from(vec![7u8; 16]);
    std::thread::scope(|scope| {
        scope.spawn(move || echo_until_stopped(peer));
        let batch_s = repeat(budget, 3, || {
            let t0 = Instant::now();
            for _ in 0..COMM_BATCH {
                me.send(1, TAG_BALL, ball.clone())
                    .expect("probe peer alive");
                black_box(me.recv().expect("probe peer alive"));
            }
            t0.elapsed().as_secs_f64()
        });
        me.send(1, TAG_STOP, Bytes::new())
            .expect("probe peer alive");
        batch_s * 1e6 / COMM_BATCH as f64
    })
}

/// One-way throughput of 64 KiB frames over the socket backend, MB/s
/// (payload bytes; the receiver acknowledges each batch).
pub fn socket_mb_per_s(budget: Duration) -> f64 {
    const FRAME: usize = 64 * 1024;
    let mut world = SocketUniverse::endpoints(2);
    let mut peer = world.pop().expect("two endpoints");
    let mut me = world.pop().expect("two endpoints");
    let frame = Bytes::from(vec![3u8; FRAME]);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut seen = 0usize;
            loop {
                let m = peer.recv().expect("probe peer alive");
                if m.tag == TAG_STOP {
                    return;
                }
                seen += 1;
                if seen.is_multiple_of(COMM_BATCH) {
                    peer.send(0, TAG_BALL, Bytes::new())
                        .expect("probe peer alive");
                }
            }
        });
        let batch_s = repeat(budget, 3, || {
            let t0 = Instant::now();
            for _ in 0..COMM_BATCH {
                me.send(1, TAG_BALL, frame.clone())
                    .expect("probe peer alive");
            }
            black_box(me.recv().expect("probe peer alive"));
            t0.elapsed().as_secs_f64()
        });
        me.send(1, TAG_STOP, Bytes::new())
            .expect("probe peer alive");
        (COMM_BATCH * FRAME) as f64 / 1e6 / batch_s
    })
}

/// Microseconds per `Comm::barrier` over two thread ranks.
pub fn barrier_us(budget: Duration) -> f64 {
    let mut world = jsweep_comm::Universe::endpoints(2);
    let mut peer = world.pop().expect("two endpoints");
    let mut me = world.pop().expect("two endpoints");
    // Both ranks must run the same number of barriers: rank 0 decides
    // after each batch and tells rank 1 whether another follows.
    std::thread::scope(|scope| {
        scope.spawn(move || loop {
            for _ in 0..COMM_BATCH {
                peer.barrier().expect("probe peer alive");
            }
            if peer
                .recv_match(TAG_BALL)
                .expect("probe peer alive")
                .payload
                .is_empty()
            {
                return;
            }
        });
        let t_all = Instant::now();
        let mut samples = Vec::new();
        loop {
            let t0 = Instant::now();
            for _ in 0..COMM_BATCH {
                me.barrier().expect("probe peer alive");
            }
            samples.push(t0.elapsed().as_secs_f64());
            let more = samples.len() < 3 || t_all.elapsed() < budget;
            let word = if more {
                Bytes::copy_from_slice(b"m")
            } else {
                Bytes::new()
            };
            me.send(1, TAG_BALL, word).expect("probe peer alive");
            if !more {
                break;
            }
        }
        median(&samples) * 1e6 / COMM_BATCH as f64
    })
}

// -------------------------------------------------------------- core

const BALL_A: ProgramId = ProgramId {
    patch: PatchId(0),
    task: TaskTag(0),
};
const BALL_B: ProgramId = ProgramId {
    patch: PatchId(1),
    task: TaskTag(0),
};

/// One end of a two-program ping-pong: `A` serves, both return every
/// ball they receive until `trips` round trips are done.
struct Ponger {
    me: ProgramId,
    ball: Bytes,
    trips: u64,
    left: u64,
    inbox: u64,
    served: bool,
}

impl PatchProgram for Ponger {
    fn init(&mut self) {}
    fn input(&mut self, _src: ProgramId, _payload: Bytes) {
        self.inbox += 1;
    }
    fn compute(&mut self, ctx: &mut ComputeCtx) {
        let (serves, peer) = if self.me == BALL_A {
            (true, BALL_B)
        } else {
            (false, BALL_A)
        };
        let ball = |p: &Ponger| Stream {
            src: p.me,
            dst: peer,
            payload: p.ball.clone(),
        };
        if serves && !self.served {
            self.served = true;
            ctx.send(ball(self));
        }
        while self.inbox > 0 {
            self.inbox -= 1;
            self.left -= 1;
            ctx.work_done += 1;
            if !(serves && self.left == 0) {
                ctx.send(ball(self));
            }
        }
    }
    fn vote_to_halt(&self) -> bool {
        self.inbox == 0
    }
    fn remaining_work(&self) -> u64 {
        self.left
    }
    fn reset(&mut self, _epoch: &EpochInput) {
        self.left = self.trips;
        self.inbox = 0;
        self.served = false;
    }
}

/// Places the two ping-pong programs on one rank or on two.
struct PingPong {
    remote: bool,
    trips: u64,
}

impl ProgramFactory for PingPong {
    type Program = Ponger;
    fn create(&self, id: ProgramId) -> Ponger {
        Ponger {
            me: id,
            ball: Bytes::from(vec![0u8; 16]),
            trips: self.trips,
            left: self.trips,
            inbox: 0,
            served: false,
        }
    }
    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
        match (self.remote, rank) {
            (false, 0) => vec![BALL_A, BALL_B],
            (true, 0) => vec![BALL_A],
            (true, 1) => vec![BALL_B],
            _ => Vec::new(),
        }
    }
    fn rank_of(&self, id: ProgramId) -> usize {
        if self.remote {
            id.patch.0 as usize
        } else {
            0
        }
    }
    fn priority(&self, _id: ProgramId) -> i64 {
        0
    }
    fn initial_workload(&self, _id: ProgramId) -> u64 {
        self.trips
    }
}

fn one_worker() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 1,
        ..Default::default()
    }
}

/// Microseconds per stream hop between two patch-programs: `trips`
/// round trips per epoch through `Universe::run_epoch`, epoch wall over
/// `2 × trips`. `fabric = None` puts both programs on one rank.
pub fn hop_us(fabric: Option<TransportKind>, trips: u64, budget: Duration) -> f64 {
    let factory = Arc::new(PingPong {
        remote: fabric.is_some(),
        trips,
    });
    let mut u = match fabric {
        None => Universe::launch(1, factory, one_worker()),
        Some(kind) => Universe::launch_with_fabric(2, factory, one_worker(), fabric_for(kind)),
    };
    let epoch = |u: &mut Universe| {
        let stats = u.run_epoch(Arc::new(())).expect("ping-pong epoch");
        assert_eq!(
            stats.iter().map(|s| s.work_done).sum::<u64>(),
            2 * trips,
            "ping-pong lost a ball"
        );
        stats.iter().map(|s| s.wall_seconds).fold(0.0, f64::max)
    };
    // The first epoch creates the programs.
    epoch(&mut u);
    let epoch_s = repeat(budget, 2, || epoch(&mut u));
    u.shutdown();
    epoch_s * 1e6 / (2 * trips) as f64
}

/// Completes its unit of work on its first compute call.
struct Nop {
    fired: bool,
}

impl PatchProgram for Nop {
    fn init(&mut self) {}
    fn input(&mut self, _src: ProgramId, _payload: Bytes) {}
    fn compute(&mut self, ctx: &mut ComputeCtx) {
        if !self.fired {
            self.fired = true;
            ctx.work_done = 1;
        }
    }
    fn vote_to_halt(&self) -> bool {
        true
    }
    fn remaining_work(&self) -> u64 {
        u64::from(!self.fired)
    }
    fn reset(&mut self, _epoch: &EpochInput) {
        self.fired = false;
    }
}

/// `PER_RANK` no-op programs on each rank.
struct NopFactory;
const NOPS_PER_RANK: u32 = 4;

impl ProgramFactory for NopFactory {
    type Program = Nop;
    fn create(&self, _id: ProgramId) -> Nop {
        Nop { fired: false }
    }
    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
        (0..NOPS_PER_RANK)
            .map(|k| ProgramId::new(PatchId(rank as u32 * NOPS_PER_RANK + k), TaskTag(0)))
            .collect()
    }
    fn rank_of(&self, id: ProgramId) -> usize {
        (id.patch.0 / NOPS_PER_RANK) as usize
    }
    fn priority(&self, _id: ProgramId) -> i64 {
        0
    }
    fn initial_workload(&self, _id: ProgramId) -> u64 {
        1
    }
}

/// `(noop_epoch_us, universe_launch_ms)`: the wall of one no-op epoch
/// of a resident 2-rank universe (fence + termination floor), and of
/// launching and shutting such a universe down.
pub fn noop_universe(budget: Duration) -> (f64, f64) {
    let launch_s = repeat(budget / 4, 3, || {
        let t0 = Instant::now();
        let mut u = Universe::launch(2, Arc::new(NopFactory), one_worker());
        u.shutdown();
        t0.elapsed().as_secs_f64()
    });
    let mut u = Universe::launch(2, Arc::new(NopFactory), one_worker());
    u.run_epoch(Arc::new(())).expect("no-op epoch");
    let epoch_s = repeat(budget, 20, || {
        let t0 = Instant::now();
        black_box(u.run_epoch(Arc::new(())).expect("no-op epoch"));
        t0.elapsed().as_secs_f64()
    });
    u.shutdown();
    (epoch_s * 1e6, launch_s * 1e3)
}

/// Streams per batch in the pool and codec probes.
const STREAM_BATCH: usize = 64;

fn probe_streams(payload_bytes: usize) -> Vec<Stream> {
    let payload = Bytes::from(vec![1u8; payload_bytes]);
    (0..STREAM_BATCH as u32)
        .map(|k| Stream {
            src: ProgramId::new(PatchId(u32::MAX), TaskTag(0)),
            dst: ProgramId::new(PatchId(k), TaskTag(0)),
            payload: payload.clone(),
        })
        .collect()
}

/// Nanoseconds per stream through `Pool::deliver_batch` →
/// `try_take_batch` → `finish_batch`, one thread, one shard.
pub fn pool_ns_per_stream(budget: Duration) -> f64 {
    const ROUNDS: usize = 200;
    let pool = Pool::new(1);
    let streams = probe_streams(8);
    let mut claims = Vec::new();
    let mut finishes = Vec::new();
    let round_s = repeat(budget, 3, || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            pool.deliver_batch(streams.iter().map(|s| (s.clone(), 0)));
            while pool.try_take_batch(0, 8, &mut claims) > 0 {
                for claim in claims.drain(..) {
                    let mut scratch = claim.pending;
                    scratch.clear();
                    finishes.push(FinishEntry {
                        id: claim.id,
                        program: claim
                            .program
                            .unwrap_or_else(|| Box::new(Nop { fired: true })),
                        halted: true,
                        scratch,
                    });
                }
                pool.finish_batch(&mut finishes);
            }
        }
        t0.elapsed().as_secs_f64()
    });
    round_s * 1e9 / (ROUNDS * STREAM_BATCH) as f64
}

/// `(pack, unpack)` nanoseconds per stream for a 64-stream frame of
/// `8 × groups`-byte payloads.
pub fn frame_codec_ns_per_stream(groups: usize, budget: Duration) -> (f64, f64) {
    const ROUNDS: usize = 500;
    let streams = probe_streams(8 * groups);
    let per_stream = |s: f64| s * 1e9 / (ROUNDS * STREAM_BATCH) as f64;
    let pack_s = repeat(budget / 2, 3, || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            black_box(pack_frame(black_box(&streams)));
        }
        t0.elapsed().as_secs_f64()
    });
    let frame = pack_frame(&streams);
    let unpack_s = repeat(budget / 2, 3, || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            black_box(unpack_frame(black_box(frame.clone())));
        }
        t0.elapsed().as_secs_f64()
    });
    (per_stream(pack_s), per_stream(unpack_s))
}

// --------------------------------------------------------- transport

/// What the kernel probes measured.
pub struct KernelProbe {
    /// Production path per cell·angle·group.
    pub blocked_ns_per_update: f64,
    /// Scalar oracle per cell·angle·group.
    pub scalar_ns_per_update: f64,
    /// `CellGeom::new` per cell·angle.
    pub geom_ns_per_cell_angle: f64,
    /// Bytes touched per update, from array sizes.
    pub bytes_per_update_computed: f64,
}

/// Cells per blocked chunk: a typical cluster, so group blocks
/// re-stream a cache-resident cell list as the cluster path does.
const KERNEL_CHUNK: usize = 32;

/// One pass of each kernel path over every cell of the workload's mesh
/// for one ordinate, with the workload's kernel, group count and
/// seeded cross sections.
pub fn kernel<T: BenchMesh>(
    case: &Case<T>,
    materials: &MaterialSet,
    budget: Duration,
) -> KernelProbe {
    let mesh = case.mesh.as_ref();
    let kind = case.spec.kernel;
    let groups = case.spec.groups;
    let n = mesh.num_cells();
    let mf = mesh.num_faces(0);
    let dir = case.quad.ordinates()[0].dir;
    let weight = case.quad.ordinates()[0].weight;
    let q: Vec<f64> = (0..n)
        .flat_map(|c| materials.material(c).source.iter().map(|s| s * 0.1))
        .collect();
    // Pseudo-random incoming face fluxes in the program's layout,
    // `(cell * max_faces + face) * groups + g`.
    let flux: Vec<f64> = (0..n * mf * groups)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f64 * 1e-3)
        .collect();
    let mut phi = vec![0.0; n * groups];

    let blocked_s = repeat(budget / 3, 3, || {
        let mut geoms: Vec<CellGeom> = Vec::with_capacity(KERNEL_CHUNK);
        let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
        let mut psi = [0.0f64; GROUP_BLOCK];
        let t0 = Instant::now();
        let mut start = 0;
        while start < n {
            let end = (start + KERNEL_CHUNK).min(n);
            geoms.clear();
            geoms.extend((start..end).map(|c| CellGeom::new(mesh, c, dir)));
            let mut g0 = 0;
            while g0 < groups {
                let b = GROUP_BLOCK.min(groups - g0);
                for (i, geom) in geoms.iter().enumerate() {
                    let c = start + i;
                    solve_cell_block_geom(
                        geom,
                        kind,
                        &materials.material(c).sigma_t[g0..g0 + b],
                        &q[c * groups + g0..c * groups + g0 + b],
                        &flux[c * mf * groups + g0..],
                        groups,
                        &mut out,
                        GROUP_BLOCK,
                        &mut psi[..b],
                    );
                    let base = c * groups + g0;
                    for (p, &x) in phi[base..base + b].iter_mut().zip(&psi[..b]) {
                        *p += weight * x;
                    }
                }
                g0 += b;
            }
            start = end;
        }
        black_box(&mut phi);
        t0.elapsed().as_secs_f64()
    });

    let scalar_s = repeat(budget / 3, 3, || {
        let mut out = vec![0.0; mf * groups];
        let mut psi = vec![0.0; groups];
        let t0 = Instant::now();
        for c in 0..n {
            let nf = mesh.num_faces(c);
            let base = c * mf * groups;
            solve_cell(
                mesh,
                c,
                dir,
                kind,
                &materials.material(c).sigma_t,
                &q[c * groups..(c + 1) * groups],
                &flux[base..base + nf * groups],
                &mut out[..nf * groups],
                &mut psi,
            );
            for (p, &x) in phi[c * groups..(c + 1) * groups].iter_mut().zip(&psi) {
                *p += weight * x;
            }
        }
        black_box(&mut phi);
        t0.elapsed().as_secs_f64()
    });

    let geom_s = repeat(budget / 3, 3, || {
        let t0 = Instant::now();
        for c in 0..n {
            black_box(CellGeom::new(mesh, black_box(c), dir));
        }
        t0.elapsed().as_secs_f64()
    });

    // Per cell·angle: incoming and outgoing face fluxes (nf × G each),
    // σt, q and ψ (G each), the φ read-modify-write (2 G), all f64,
    // plus the hoisted geometry once.
    let per_cell_angle =
        8.0 * (2 * mf * groups + 5 * groups) as f64 + std::mem::size_of::<CellGeom>() as f64;
    let updates = (n * groups) as f64;
    KernelProbe {
        blocked_ns_per_update: blocked_s * 1e9 / updates,
        scalar_ns_per_update: scalar_s * 1e9 / updates,
        geom_ns_per_cell_angle: geom_s * 1e9 / n as f64,
        bytes_per_update_computed: per_cell_angle / groups as f64,
    }
}
