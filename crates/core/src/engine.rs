//! The per-rank runtime engine: master thread + worker threads (Fig. 8).
//!
//! The master owns the rank's [`Comm`] endpoint and runs the stream
//! router and progress tracker; workers execute patch-programs from the
//! shared [`Pool`]. A [`Rank`] is one resident rank: it keeps its
//! master state (frame writers) and its worker threads alive across
//! epochs, and each [`Rank::run_epoch`] runs activation → data-driven
//! execution → distributed termination → quiescence.
//! [`crate::Universe`] hosts a whole simulated MPI world of them (one
//! launch per *solve*, one epoch per iteration; a one-shot run is a
//! universe of one epoch).
//!
//! The data plane is **batched end-to-end** (the paper's §II
//! "communication aggregation", profiled in Fig. 16) and the
//! [`ProgramFactory`] is its only route table. Unlike the paper's §IV
//! master, which routes every stream, this one sees cross-rank streams
//! only:
//!
//! * a worker hands each claim batch's same-rank streams to the pool
//!   as one [`Pool::deliver_batch`] call *before* it finishes the
//!   batch: the producers still count as running, so the pool cannot
//!   look quiet with a local stream in a worker's hands;
//! * what the master must *act on* — cross-rank streams to route, work
//!   to count, a fault — accumulates into one `Report` per flush
//!   (every `REPORT_FLUSH_STREAMS` streams produced, and eagerly
//!   before a worker would block); a batch that produced none of those
//!   sends nothing;
//! * the master coalesces all outbound streams per destination rank
//!   per drain round into a single multi-stream frame built in a
//!   reusable per-destination writer ([`crate::program::frame_push`]);
//! * incoming frames are unpacked zero-copy and handed to the pool as
//!   one [`Pool::deliver_batch`] call.
//!
//! Worker time takes the other path, and the only one: each worker
//! posts its stopwatch's breakdown, its compute-call and same-rank
//! stream counts and an activity stamp to its slot of the pool's books
//! once per claim batch, *before* [`Pool::finish_batch`]. A program is active until finished,
//! so a quiet pool has complete books, and [`Rank::run_epoch`] closes
//! with one read: wait for quiet, sweep the report channel once for
//! residue, take every worker's books into [`RunStats`].
//!
//! The master has **one wake source**, its rank's [`Doorbell`]. The
//! fabric rings it when a message arrives (on sockets a readable
//! connection wakes the same `poll`), the pool when a worker hands a
//! report over and when it goes quiet. With nothing to do the master
//! parks in one [`Comm::wait`]: unbounded while the pool is quiet, and
//! only until the watchdog deadline while it is busy. A parked master
//! takes no timed wake-ups, and a cross-rank hop costs the fabric's
//! latency, not a timer's.

use crate::fault::{panic_message, EpochFault, FaultKind, FaultPlan};
use crate::pool::Pool;
use crate::program::{frame_push, unpack_frame, ComputeCtx, EpochInput, ProgramFactory, Stream};
use crate::stats::{Category, RunStats, Stopwatch};
use crate::telemetry::{EventKind, TelemetryHandle};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use jsweep_comm::pack::Writer;
use jsweep_comm::termination::{Counting, Safra, Verdict};
use jsweep_comm::{Comm, CommError, Doorbell};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which termination detector the runtime uses (§IV-C: "we support
/// both").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationKind {
    /// Workload counting — the fast path for known-total algorithms.
    Counting,
    /// Dijkstra–Safra token ring — the general protocol.
    Safra,
}

/// Runtime configuration of one rank.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads per rank (the paper reserves one core for the
    /// master and uses the rest as workers). Also the number of
    /// ready-queue shards in the [`Pool`].
    pub num_workers: usize,
    /// Termination detector.
    pub termination: TerminationKind,
    /// Epoch watchdog deadline, default 60 s. When set, a rank whose
    /// pool holds active work but shows no progress (no worker report
    /// or finished claim batch, no network traffic) for this long
    /// declares the epoch stalled: the hang becomes an [`EpochFault`]
    /// of kind [`FaultKind::Stall`] instead of blocking forever. The
    /// deadline must exceed the longest legitimate single compute call
    /// — a worker deep in one kernel shows nothing until it finishes.
    pub watchdog: Option<Duration>,
    /// Deterministic fault-injection plan (chaos testing only),
    /// default none. Inert unless the `fault-inject` cargo feature is
    /// enabled; see [`FaultPlan`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Telemetry attachment, default detached. Inert unless the
    /// `telemetry` cargo feature is enabled *and* the attached
    /// recorder is armed; see [`TelemetryHandle`].
    pub telemetry: TelemetryHandle,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_workers: 2,
            termination: TerminationKind::Counting,
            watchdog: Some(Duration::from_secs(60)),
            fault_plan: None,
            telemetry: TelemetryHandle::default(),
        }
    }
}

/// Multi-stream frames travel under this tag.
const TAG_FRAME: u32 = 0;

/// Map a transport failure observed by `origin_rank` into the fault
/// taxonomy: the fault is blamed on the *vanished peer* (that is the
/// rank that died), not on the rank that noticed, so session-tier
/// quarantine and retry accounting target the right rank.
fn comm_fault(origin_rank: usize, e: CommError) -> EpochFault {
    let peer = match e {
        CommError::PeerClosed { peer } => peer,
        // Every peer left gracefully: no single rank is to blame, so
        // the fault names the rank left waiting.
        CommError::AllPeersClosed => origin_rank,
    };
    peer_fault(origin_rank, peer, &e.to_string())
}

/// The same blame for a peer whose bytes do not decode: a rank that
/// writes a malformed message is as lost to the epoch as one that
/// hung up.
fn peer_fault(origin_rank: usize, peer: usize, what: &str) -> EpochFault {
    EpochFault {
        rank: peer,
        worker: 0,
        program: None,
        payload: format!("transport failure observed on rank {origin_rank}: {what}"),
        kind: FaultKind::RankDeath,
    }
}

/// Epoch-abort broadcasts travel under this tag: when a rank faults
/// it packs the [`EpochFault`] and sends it to every peer, which
/// breaks out of the epoch with the same fault. A user-space tag —
/// faulted epochs never reach the epoch fence, and a faulted
/// universe's comm world is discarded wholesale with it, so abort
/// residue can never leak into a healthy epoch.
const TAG_ABORT: u32 = 1;

/// What a worker sends the master after one or more compute rounds:
/// the cross-rank streams to route, the work to count and any fault.
/// Same-rank streams and worker *time* do not travel here (module
/// docs).
#[derive(Default)]
struct Report {
    outputs: Vec<Stream>,
    /// Streams produced since the last flush, the same-rank ones (not
    /// in `outputs`) included: what `REPORT_FLUSH_STREAMS` bounds.
    produced: usize,
    work_done: u64,
    /// Contained program panics caught at the claim site.
    faults: Vec<EpochFault>,
    /// Whether the report has content. Content registers in
    /// [`Pool::hold_report`] as it arrives and until flushed, so the
    /// pool can never look quiet with streams, work or a fault still
    /// in flight to the master.
    held: bool,
}

impl Report {
    /// Register as held on the first content — before the program
    /// that produced it is finished or discarded.
    fn hold(&mut self, pool: &Pool) {
        if !self.held {
            pool.hold_report();
            self.held = true;
        }
    }
}

/// Send the accumulated report to the master (no-op without content).
fn flush_report(pool: &Pool, to_master: &Sender<Report>, batch: &mut Report, sw: &mut Stopwatch) {
    if !batch.held {
        return;
    }
    let report = std::mem::take(batch);
    // The hand-off itself is posted with the worker's next batch.
    sw.timed(Category::Output, || {
        let _ = to_master.send(report);
    });
    // Rings the master's bell: it has the report to read.
    pool.release_report();
}

/// Program claims a worker takes per pool round-trip. Only
/// already-ready programs are batched, so sparse workloads still flow
/// one at a time — which is why 8 measured fine for both fine-grained
/// compute storms and few-large-compute replay iterations (2 / 8 / 16
/// were within noise on the replay scenario). The sweep solver's
/// simulated execution (`jsweep_graph::coarse::simulate_clusters`)
/// claims in batches of this size too.
pub const CLAIM_BATCH: usize = 8;

/// Max output streams a worker produces across compute calls —
/// same-rank ones, already delivered, included — before flushing a
/// report to the master. Batches are always flushed before a worker
/// blocks, so this trades master-channel traffic against cross-rank
/// stream latency. One value serves every epoch: against 32, 64 is
/// worth ~6% of `iter_ms` on the replayed `session_hex12_mix` ledger
/// workload (10/10 pairs) and the fine path cannot tell the two apart
/// (`tet10_g8_fine_socket`, 5/10; pairs in CHANGES.md, PR 16).
const REPORT_FLUSH_STREAMS: usize = 64;

fn worker_loop<F: ProgramFactory>(
    rank: usize,
    worker: usize,
    pool: Arc<Pool>,
    factory: Arc<F>,
    to_master: Sender<Report>,
    inject: Option<Arc<FaultPlan>>,
    mut sw: Stopwatch,
) {
    let mut batch = Report::default();
    // The claim batch's same-rank streams and their targets' priorities.
    let mut local: Vec<(Stream, i64)> = Vec::new();
    let mut claims: Vec<crate::pool::Claim> = Vec::new();
    let mut finishes: Vec<crate::pool::FinishEntry> = Vec::new();
    loop {
        // Flush the batch before blocking, never while work is ready:
        // streams keep moving, and quiescence stays honest.
        if pool.try_take_batch(worker, CLAIM_BATCH, &mut claims) == 0 {
            flush_report(&pool, &to_master, &mut batch, &mut sw);
            // The blocking wait is this worker starving for work. The
            // final wait, ended by `Pool::stop`, is booked nowhere: no
            // batch follows to post it.
            sw.start();
            if pool.take_batch(worker, CLAIM_BATCH, &mut claims) == 0 {
                break;
            }
            sw.lap(Category::Idle);
        }
        if let Some(plan) = &inject {
            if let Some(d) = plan.stall_for(rank, worker) {
                // Injected stall: sleep while holding the claims so
                // the pool stays un-quiet and the epoch watchdog can
                // observe a stuck rank.
                std::thread::sleep(d);
            }
        }
        let mut compute_calls = 0;
        for claim in claims.drain(..) {
            let id = claim.id;
            // Contain program panics at the claim site: everything a
            // program's own code can run — create/reset, init, input,
            // compute, vote — executes under `catch_unwind`, so a
            // panicking patch poisons the *epoch* (reported as an
            // `EpochFault` below), never this thread. Unwind safety is
            // asserted because the poisoned program is discarded
            // wholesale — its possibly-torn state is never observed
            // again — and `sw` only accumulates timing slop.
            //
            // One claim is one stopwatch chain: (create, init,) input,
            // compute and output share their boundary readings.
            sw.start();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut program = match claim.program {
                    Some(p) => p,
                    None => {
                        let mut p = Box::new(factory.create(claim.id))
                            as Box<dyn crate::program::PatchProgram>;
                        // The factory describes shape only: arm the
                        // new program with the current epoch's input,
                        // exactly as the resident programs were at the
                        // epoch boundary, then init it (once: it stays
                        // resident from here on).
                        p.reset(&*pool.epoch_input());
                        p.init();
                        sw.lap(Category::Other);
                        p
                    }
                };
                let mut pending = claim.pending;
                for (src, payload) in pending.drain(..) {
                    program.input(src, payload);
                }
                sw.lap(Category::Input);
                if let Some(plan) = &inject {
                    if plan.should_panic(id) {
                        panic!(
                            "injected fault: compute of patch {} task {}",
                            id.patch.0, id.task.0
                        );
                    }
                }
                let mut ctx = ComputeCtx::default();
                program.compute(&mut ctx);
                sw.lap_compute(ctx.kernel_seconds, id.patch.0, id.task.0);
                let halted = program.vote_to_halt();
                (program, pending, ctx, halted)
            }));
            let (program, pending, mut ctx, halted) = match outcome {
                Ok(round) => round,
                Err(payload) => {
                    // The program (and any outputs of the poisoned
                    // round) died with the unwind. Report the fault —
                    // held like any other content until flushed — and
                    // poison the slot so the pool stays consistent and
                    // can still quiesce around the loss.
                    batch.hold(&pool);
                    sw.rec.instant(
                        EventKind::Fault,
                        u64::from(id.patch.0),
                        u64::from(id.task.0),
                    );
                    batch.faults.push(EpochFault {
                        rank,
                        worker,
                        program: Some(id),
                        payload: panic_message(payload.as_ref()),
                        kind: FaultKind::Panic,
                    });
                    pool.discard(id);
                    continue;
                }
            };
            compute_calls += 1;
            if !ctx.out.is_empty() || ctx.work_done > 0 {
                batch.produced += ctx.out.len();
                for stream in ctx.out.drain(..) {
                    if factory.rank_of(stream.dst) == rank {
                        let prio = factory.priority(stream.dst);
                        local.push((stream, prio));
                    } else {
                        batch.outputs.push(stream);
                    }
                }
                batch.work_done += ctx.work_done;
                sw.lap(Category::Output);
            }
            finishes.push(crate::pool::FinishEntry {
                id: claim.id,
                program,
                halted,
                scratch: pending,
            });
        }
        // Held, delivered and posted before finished: once these
        // programs stop counting as active, whoever sees the pool
        // quiet must find nothing of this batch in the worker's hands.
        if !batch.outputs.is_empty() || batch.work_done > 0 {
            batch.hold(&pool);
        }
        let streams_local = local.len() as u64;
        if streams_local > 0 {
            // Another worker may report what a delivery sets off
            // before this report leaves. Counting termination waits for
            // the work a report carries, and so for its streams; with
            // no work, the streams go first or may miss the epoch.
            if batch.work_done == 0 {
                flush_report(&pool, &to_master, &mut batch, &mut sw);
            }
            sw.timed(Category::Output, || pool.deliver_batch(local.drain(..)));
        }
        // The gap between the stamp and the epoch's close is the
        // worker's drain tail (`RunStats::worker_drain_seconds`).
        pool.books(worker)
            .post(&sw.take(), compute_calls, streams_local);
        // One lock per same-shard run instead of one per program.
        pool.finish_batch(&mut finishes);
        // Faults flush eagerly: the master should learn of a poisoned
        // epoch at the first opportunity, not a batch boundary later.
        if !batch.faults.is_empty() || batch.produced >= REPORT_FLUSH_STREAMS {
            flush_report(&pool, &to_master, &mut batch, &mut sw);
        }
    }
    flush_report(&pool, &to_master, &mut batch, &mut sw);
}

/// Most streams packed into one outbound frame: a destination's frame
/// is sent mid-round once it fills; otherwise frames flush at the end
/// of each master drain round.
const MAX_FRAME_STREAMS: u64 = 256;

/// One outbound frame under construction (writer reused across
/// flushes; see [`jsweep_comm::pack::Writer::take`]).
struct FrameSlot {
    w: Writer,
    count: u64,
}

/// Master-side routing state of one rank: per-destination outbound
/// frames, and the stats/timing they feed.
///
/// The frame writers are **persistent** — they survive epoch
/// boundaries of a resident [`Rank`] — while the accounting half
/// (stats, Safra counters, progress) is re-armed per epoch by
/// [`Master::begin_epoch`]; the stopwatch's breakdown is taken into
/// each epoch's stats as it closes.
struct Master<F: ProgramFactory> {
    rank: usize,
    size: usize,
    factory: Arc<F>,
    frames: Vec<FrameSlot>,
    /// Destination ranks with a non-empty frame (pushed on the 0→1
    /// stream transition; duplicates are benign, `flush_one` skips
    /// empty frames).
    dirty: Vec<usize>,
    stats: RunStats,
    /// This master thread's stopwatch (trace lane 0 of the rank).
    sw: Stopwatch,
    safra: Safra,
    work_done: u64,
    /// First transport failure seen while routing this epoch (sends
    /// happen deep in the routing hot path, where returning `Result`
    /// through every layer would be noise; the main loop checks this
    /// once per drain round instead).
    dead: Option<CommError>,
}

impl<F: ProgramFactory> Master<F> {
    fn new(rank: usize, size: usize, factory: Arc<F>, config: &RuntimeConfig) -> Master<F> {
        Master {
            rank,
            size,
            factory,
            frames: (0..size)
                .map(|_| FrameSlot {
                    w: Writer::new(),
                    count: 0,
                })
                .collect(),
            dirty: Vec::new(),
            stats: RunStats::default(),
            sw: Stopwatch::new(config.telemetry.recorder(rank as u32, 0)),
            safra: Safra::new(rank, size),
            work_done: 0,
            dead: None,
        }
    }

    /// Re-arm the per-epoch accounting state; frame writers persist.
    fn begin_epoch(&mut self) {
        debug_assert!(self.dirty.is_empty(), "frames leaked across epochs");
        self.stats = RunStats {
            rank: self.rank,
            ..Default::default()
        };
        self.safra = Safra::new(self.rank, self.size);
        self.work_done = 0;
        self.dead = None;
    }

    /// Route one worker report: its streams — cross-rank, every one —
    /// are appended to their destination frames (sent by
    /// [`Master::flush_frames`], or mid-round when a frame fills).
    fn route_report(&mut self, comm: &Comm, report: Report) {
        self.work_done += report.work_done;
        self.stats.work_done += report.work_done;
        if report.outputs.is_empty() {
            return;
        }
        // One chain: routing runs up to each stream's `frame_push`,
        // which is the Pack region; a mid-round flush books its own
        // send and hands the chain back.
        self.sw.start();
        for stream in report.outputs {
            let dst = self.factory.rank_of(stream.dst);
            debug_assert_ne!(dst, self.rank, "same-rank stream reached the master");
            self.sw.lap(Category::Route);
            let slot = &mut self.frames[dst];
            frame_push(&mut slot.w, &stream);
            slot.count += 1;
            let count = slot.count;
            self.sw.lap(Category::Pack);
            if count == 1 {
                self.dirty.push(dst);
            }
            if count >= MAX_FRAME_STREAMS {
                self.flush_one(comm, dst);
            }
        }
        self.sw.lap(Category::Route);
    }

    /// Send `dst`'s frame if it has content. The send is a Comm
    /// region; the stopwatch is left open at its end.
    fn flush_one(&mut self, comm: &Comm, dst: usize) {
        let slot = &mut self.frames[dst];
        if slot.count == 0 {
            return;
        }
        let payload = slot.w.take();
        let frame_bytes = payload.len();
        self.stats.streams_sent += slot.count;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        slot.count = 0;
        let sent = self
            .sw
            .timed(Category::Comm, || comm.send(dst, TAG_FRAME, payload));
        self.sw
            .rec
            .instant(EventKind::Send, dst as u64, frame_bytes as u64);
        match sent {
            Ok(()) => self.safra.on_send(),
            // The destination rank is gone. Record the diagnosis for
            // the main loop's per-round check; dropping the frame is
            // sound because the epoch is already doomed.
            Err(e) => {
                self.dead.get_or_insert(e);
            }
        }
    }

    /// Send every pending frame (end of a drain round).
    fn flush_frames(&mut self, comm: &Comm) {
        while let Some(dst) = self.dirty.pop() {
            self.flush_one(comm, dst);
        }
    }

    /// An incoming frame: unpack zero-copy, deliver as one pool batch.
    /// `Err` blames `src` for bytes that are not a frame.
    fn recv_frame(&mut self, pool: &Pool, src: usize, payload: Bytes) -> Result<(), EpochFault> {
        self.sw
            .rec
            .instant(EventKind::Recv, src as u64, payload.len() as u64);
        self.safra.on_receive();
        self.stats.frames_received += 1;
        let streams = self
            .sw
            .timed(Category::Unpack, || unpack_frame(payload))
            .ok_or_else(|| peer_fault(self.rank, src, "malformed frame"))?;
        self.stats.streams_received += streams.len() as u64;
        pool.deliver_batch(streams.into_iter().map(|s| {
            let prio = self.factory.priority(s.dst);
            (s, prio)
        }));
        self.sw.lap(Category::Route);
        Ok(())
    }
}

/// The local half of Safra's idle test, in this order: a worker
/// releases its held report only after the channel send, so a pool
/// seen quiet has every report in the channel — but a channel seen
/// empty *before* that may have gained one since, and the white
/// zero-count token would overtake the frame those streams become.
fn nothing_in_flight(pool: &Pool, from_workers: &Receiver<Report>) -> bool {
    pool.is_quiet() && from_workers.is_empty()
}

/// An epoch-ending fault, by origin. A local fault — a worker-reported
/// panic, a watchdog stall, a transport failure this rank observed —
/// is broadcast to every peer; a peer's abort is relayed to the caller
/// but never re-broadcast (each origin broadcasts exactly once, so
/// abort storms cannot loop).
enum Abort {
    Local(EpochFault),
    Relayed(EpochFault),
}

/// One resident rank: the master state, the shared program pool and
/// the live worker threads, launched once and driven through
/// [`Rank::run_epoch`] once per epoch.
///
/// A [`crate::Universe`] hosts one per rank thread and harvests faults
/// centrally. Callers that own a real process boundary instead — one
/// OS process per rank over a connected [`Comm`], typically a socket
/// world — launch a `Rank` directly; transport failures and contained
/// faults then surface as [`EpochFault`]s in each process
/// independently.
pub struct Rank<F: ProgramFactory> {
    comm: Comm,
    pool: Arc<Pool>,
    config: RuntimeConfig,
    from_workers: Receiver<Report>,
    /// The rank's wake source, shared with `comm` and `pool`.
    bell: Arc<Doorbell>,
    workers: Vec<JoinHandle<()>>,
    m: Master<F>,
    epochs_run: u64,
}

impl<F: ProgramFactory> Rank<F> {
    /// Spawn this rank's workers and build its master state over
    /// `comm`; no epoch runs yet.
    pub fn launch(comm: Comm, factory: Arc<F>, config: &RuntimeConfig) -> Rank<F> {
        assert!(config.num_workers > 0, "need at least one worker");
        let rank = comm.rank();
        let size = comm.size();
        let bell = comm.doorbell();
        let pool = Arc::new(Pool::with_bell(config.num_workers, bell.clone()));
        let m = Master::new(rank, size, factory.clone(), config);
        let (to_master, from_workers): (Sender<Report>, Receiver<Report>) = unbounded();
        let mut workers = Vec::with_capacity(config.num_workers);
        for w in 0..config.num_workers {
            let pool = pool.clone();
            let factory = factory.clone();
            let tx = to_master.clone();
            let inject = config.fault_plan.clone();
            // Lane 0 is the master; worker `w` records on lane `w + 1`.
            let sw = Stopwatch::new(config.telemetry.recorder(rank as u32, (w + 1) as u32));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}-worker-{w}"))
                    .spawn(move || worker_loop(rank, w, pool, factory, tx, inject, sw))
                    .expect("spawn worker"),
            );
        }
        drop(to_master);
        Rank {
            comm,
            pool,
            config: config.clone(),
            from_workers,
            bell,
            workers,
            m,
            epochs_run: 0,
        }
    }

    /// The rank's comm endpoint, for out-of-epoch collectives
    /// (reductions between solver iterations).
    pub fn comm_mut(&mut self) -> &mut Comm {
        &mut self.comm
    }

    /// Synchronise all ranks at an epoch boundary and discard any
    /// stale residue of the previous epoch.
    ///
    /// Two barriers bracket a drain: after the first barrier every
    /// rank has terminated the previous epoch (so any *user* message
    /// in the receive queue is residue — termination guarantees needed
    /// streams were delivered); the second barrier ensures no rank has
    /// started the next epoch while others still drain, so new-epoch
    /// frames can never be mistaken for residue. The drain is
    /// tag-aware ([`Comm::drain_user`]): a faster peer may already
    /// have sent its second-barrier message, which must survive.
    fn epoch_fence(&mut self) -> Result<(), CommError> {
        self.comm.barrier()?;
        self.comm.drain_user()?;
        self.comm.barrier()
    }

    /// Run one epoch to global termination and return this rank's
    /// stats. `input` is handed to the
    /// [`crate::PatchProgram::reset`] of every program that runs in
    /// the epoch: resident ones at the fence, new ones right after
    /// their `create`. `span` is stamped on the epoch's `Epoch` trace
    /// event (see [`crate::Universe::run_epoch_tuned`]; `0` = none).
    ///
    /// `Err` means the epoch was poisoned — a contained program
    /// panic, a watchdog-detected stall, a lost or garbled peer, or an
    /// abort broadcast from a faulted peer. A faulted rank must not
    /// run further epochs (its pool holds poisoned state and its
    /// peers' epochs diverged); its owner shuts it down and launches
    /// a fresh one instead.
    pub fn run_epoch(
        &mut self,
        input: &Arc<EpochInput>,
        span: u64,
    ) -> Result<RunStats, EpochFault> {
        let t_start = self.m.sw.start();
        let epoch_index = self.epochs_run;
        self.epochs_run += 1;
        self.m.begin_epoch();
        // Published before activation: a program created this epoch
        // is reset with it (see `worker_loop`).
        self.pool.set_epoch_input(input.clone());
        // Every exit closes the epoch on one reading: the `Epoch` span
        // and (on success) `wall_seconds`.
        let close_epoch = |m: &mut Master<F>| {
            let t_end = m.sw.start();
            m.sw.rec
                .span(EventKind::Epoch, t_start, t_end, epoch_index, span);
            (t_end - t_start).as_secs_f64()
        };

        // Inter-epoch synchronisation (booked as master idle time).
        // The first epoch has no predecessor to fence off, so a
        // single-epoch run pays no barrier at all.
        if epoch_index > 0 {
            let t_fence = self.m.sw.start();
            let fence = self.epoch_fence();
            let t_synced = self.m.sw.lap(Category::Idle);
            if let Err(e) = fence {
                // A peer died between epochs. No abort broadcast: the
                // peers will observe the same death through their own
                // fences or drain loops.
                self.m
                    .sw
                    .rec
                    .span(EventKind::Fence, t_fence, t_synced, 0, 0);
                close_epoch(&mut self.m);
                return Err(comm_fault(self.m.rank, e));
            }
            // Re-arm resident programs for this epoch; the pool drops
            // stale heap entries in the same pass.
            let inp: &EpochInput = &**input;
            self.pool.reset_epoch(|_, p| p.reset(inp));
            let t_reset = self.m.sw.lap(Category::Other);
            self.m.sw.rec.span(EventKind::Fence, t_fence, t_reset, 0, 0);
        }
        let rank = self.m.rank;

        // Injected rank death (chaos testing): panic the whole rank
        // thread after the fence, with peers mid-epoch, so they learn
        // of the death only through the transport — a raw EOF on a
        // socket fabric, a failed send on the thread fabric.
        if let Some(plan) = &self.config.fault_plan {
            if plan.should_kill_rank(rank) {
                panic!("injected fault: rank {rank} death");
            }
        }

        // Progress tracking: local committed workload (re-evaluated
        // per epoch — constant for sweeps, but the factory may vary
        // it).
        let local_ids = self.m.factory.programs_on_rank(rank);
        let total_work: u64 = local_ids
            .iter()
            .map(|&id| self.m.factory.initial_workload(id))
            .sum();

        // All patch-programs start active (§III-A).
        for &id in &local_ids {
            self.pool.activate(id, self.m.factory.priority(id));
        }

        let driven = self.drive(total_work);
        let (m, pool, comm, from_workers, bell) = (
            &mut self.m,
            &self.pool,
            &mut self.comm,
            &self.from_workers,
            &self.bell,
        );

        // A poisoned epoch ends here: tell every peer (local origin
        // only) and skip the quiesce drain, which a stuck worker could
        // wedge forever. Outstanding claims and held reports are
        // abandoned with the pool itself when the universe shuts down.
        if let Err(abort) = driven {
            let fault = match abort {
                Abort::Local(fault) => {
                    // Best-effort: a peer that already died (the very
                    // thing some faults report) cannot be told about it.
                    let payload = fault.pack();
                    for peer in (0..m.size).filter(|&p| p != rank) {
                        let _ = comm.send(peer, TAG_ABORT, payload.clone());
                    }
                    fault
                }
                Abort::Relayed(fault) => fault,
            };
            m.sw.rec
                .instant(EventKind::Fault, fault.rank as u64, fault.worker as u64);
            close_epoch(m);
            return Err(fault);
        }

        // Quiesce the local pool before closing the epoch: global
        // termination (counting in particular) can be declared while a
        // worker still holds a claim whose compute is a no-op — all
        // committed work is done, but the program is still `Running`.
        // A held report is released only after its channel send and
        // books are posted before their batch is finished, so once the
        // pool is quiet every report is in the channel and every
        // worker's books are complete: one sweep, one read. The pool
        // rings the bell as it goes quiet.
        m.sw.start();
        while !pool.is_quiet() {
            bell.wait(None);
        }
        let mut late_fault = None;
        while let Ok(mut report) = from_workers.try_recv() {
            debug_assert!(
                report.outputs.is_empty(),
                "stream-bearing worker report after termination"
            );
            m.stats.work_done += report.work_done;
            if let Some(f) = report.faults.pop() {
                late_fault.get_or_insert(f);
            }
        }
        let close = m.sw.lap(Category::Idle);
        // A program that panicked after termination poisoned this
        // rank's pool all the same. The peers have left the epoch, so
        // there is nobody to tell: the fault is this rank's alone.
        if let Some(fault) = late_fault {
            m.sw.rec
                .instant(EventKind::Fault, fault.rank as u64, fault.worker as u64);
            close_epoch(m);
            return Err(fault);
        }
        for w in 0..self.config.num_workers {
            let mut books = pool.books(w);
            m.stats.workers.push(std::mem::take(&mut books.bd));
            m.stats.compute_calls += std::mem::take(&mut books.compute_calls);
            m.stats.streams_local += std::mem::take(&mut books.streams_local);
            // The drain tail, clamped to the epoch: a worker that never
            // posted in it drained for all of it.
            let last = books.last_activity.map_or(t_start, |t| t.max(t_start));
            let tail = close.saturating_duration_since(last);
            m.stats.worker_drain_seconds.push(tail.as_secs_f64());
        }

        let mut stats = std::mem::take(&mut m.stats);
        stats.master = m.sw.take();
        stats.wall_seconds = close_epoch(m);
        Ok(stats)
    }

    /// The epoch's main loop: route worker reports, receive frames and
    /// protocol traffic, and consult the termination detector until it
    /// declares global termination (`Ok`) or the first fault seen ends
    /// the epoch.
    fn drive(&mut self, total_work: u64) -> Result<(), Abort> {
        let Rank {
            m,
            pool,
            comm,
            from_workers,
            config,
            ..
        } = self;
        let rank = m.rank;
        let lost = |e: CommError| Abort::Local(comm_fault(rank, e));
        let mut counting = Counting::new(rank, m.size);
        let mut last_progress = Instant::now();

        loop {
            let mut progress = false;

            // Drain worker reports: route streams, track progress.
            let mut worker_fault = None;
            loop {
                let mut report = match from_workers.try_recv() {
                    Ok(report) => report,
                    Err(TryRecvError::Empty) => break,
                    // Workers only exit on `Pool::stop`; death here is
                    // an engine bug, but it is still contained as a
                    // fault rather than a process abort.
                    Err(TryRecvError::Disconnected) => {
                        worker_fault.get_or_insert(EpochFault {
                            rank,
                            worker: 0,
                            program: None,
                            payload: "all worker threads died mid-epoch".to_string(),
                            kind: FaultKind::RankDeath,
                        });
                        break;
                    }
                };
                progress = true;
                if let Some(f) = report.faults.pop() {
                    worker_fault.get_or_insert(f);
                }
                m.route_report(comm, report);
            }
            // One frame per destination per drain round.
            m.flush_frames(comm);
            if let Some(f) = worker_fault {
                return Err(Abort::Local(f));
            }
            // A routing send may have diagnosed a dead peer.
            if let Some(e) = m.dead.take() {
                return Err(lost(e));
            }

            // Drain network messages: incoming frames + protocol traffic.
            while let Some(msg) =
                m.sw.timed(Category::Comm, || comm.try_recv())
                    .map_err(lost)?
            {
                progress = true;
                match msg.tag {
                    TAG_FRAME => m
                        .recv_frame(pool, msg.src, msg.payload)
                        .map_err(Abort::Local)?,
                    TAG_ABORT => {
                        return Err(match EpochFault::unpack(&msg.payload) {
                            Some(fault) => Abort::Relayed(fault),
                            None => Abort::Local(peer_fault(rank, msg.src, "malformed abort")),
                        })
                    }
                    _ => {
                        let v = match config.termination {
                            TerminationKind::Counting => counting.on_message(&msg, comm),
                            TerminationKind::Safra => m.safra.on_message(&msg, comm),
                        };
                        if v.map_err(lost)? == Verdict::Terminated {
                            return Ok(());
                        }
                    }
                }
            }

            // Termination detection.
            let verdict = match config.termination {
                TerminationKind::Counting => {
                    debug_assert!(
                        m.work_done <= total_work,
                        "programs over-reported work ({} > committed {total_work})",
                        m.work_done
                    );
                    let remaining = total_work.saturating_sub(m.work_done);
                    counting.maybe_report(remaining, comm)
                }
                TerminationKind::Safra => {
                    debug_assert!(m.dirty.is_empty(), "unflushed frames at idle check");
                    let idle = !progress && nothing_in_flight(pool, from_workers);
                    m.safra.maybe_advance(idle, comm)
                }
            };
            if verdict.map_err(lost)? == Verdict::Terminated {
                return Ok(());
            }

            if progress {
                last_progress = Instant::now();
                continue;
            }
            // Watchdog: active local work with no progress for the
            // deadline means a worker (or the program it runs) is
            // stuck — convert the hang into a fault. A *quiet* pool is
            // exempt: a rank legitimately waits arbitrarily long for
            // remote traffic, and the genuinely stalled rank is the
            // one whose own pool stays busy. Only the master turns a
            // quiet pool busy, so a park that starts quiet needs no
            // deadline.
            let mut timeout = None;
            if let (Some(deadline), false) = (config.watchdog, pool.is_quiet()) {
                if last_progress.elapsed() >= deadline {
                    // A worker fed by its own deliveries may report
                    // nothing for that long: its per-batch stamp (older
                    // than `last_progress` if from an earlier epoch) is
                    // progress too.
                    let stamp = |w: usize| pool.books(w).last_activity;
                    let workers = 0..config.num_workers;
                    last_progress = workers
                        .clone()
                        .filter_map(stamp)
                        .fold(last_progress, Instant::max);
                    if last_progress.elapsed() >= deadline {
                        return Err(Abort::Local(EpochFault {
                            rank,
                            worker: workers.min_by_key(|&w| stamp(w)).unwrap_or(0),
                            program: None,
                            payload: format!(
                                "watchdog: no progress for {deadline:?} with active work"
                            ),
                            kind: FaultKind::Stall,
                        }));
                    }
                }
                timeout = Some(deadline.saturating_sub(last_progress.elapsed()));
            }
            // Nothing to do right now: park on the rank's one wake
            // source (module docs).
            m.sw.timed(Category::Idle, || comm.wait(timeout));
        }
    }

    /// Stop the pool, join the workers and close the endpoint
    /// gracefully.
    ///
    /// Worker threads contain program panics, so a join failure here
    /// is an engine bug; it aborts with the worker's identity and
    /// panic payload rather than a bare expect.
    pub fn shutdown(mut self) {
        self.pool.stop();
        let rank = self.m.rank;
        for (w, h) in self.workers.drain(..).enumerate() {
            if let Err(e) = h.join() {
                panic!(
                    "rank {rank} worker {w} thread panicked: {}",
                    panic_message(e.as_ref())
                );
            }
        }
        // Tell peers the silence that follows is intentional, so a
        // process-grade transport does not read this rank's exit as a
        // death.
        self.comm.close();
    }
}

impl<F: ProgramFactory> Drop for Rank<F> {
    fn drop(&mut self) {
        // A rank abandoned without `shutdown` — an injected rank death,
        // or an engine panic unwinding through `run_epoch` — must still
        // release its workers, or they would block forever on an empty
        // pool and (joined by nobody) leak. `Pool::stop` is idempotent,
        // so the normal shutdown path is unaffected. The comm endpoint
        // is deliberately *not* closed here: its own drop logic
        // distinguishes clean teardown from a mid-panic unwind, which
        // is exactly how peers detect the death.
        self.pool.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PatchProgram, ProgramId, TaskTag, STREAM_WIRE_OVERHEAD};
    use crate::Universe;
    use jsweep_mesh::PatchId;
    use parking_lot::Mutex;

    /// Launch a universe, run one epoch with no input, shut it down.
    fn one_epoch<F: ProgramFactory>(
        ranks: usize,
        factory: Arc<F>,
        config: RuntimeConfig,
    ) -> Vec<RunStats> {
        let mut universe = Universe::launch(ranks, factory, config);
        let stats = universe.run_epoch(Arc::new(())).expect("epoch faulted");
        universe.shutdown();
        stats
    }

    /// A chain of programs 0..n: program k waits for a token from k-1,
    /// increments it, forwards to k+1. Program 0 starts with the token.
    struct ChainProgram {
        id: ProgramId,
        n: u32,
        token: Option<u64>,
        done: bool,
        log: Arc<Mutex<Vec<(u32, u64)>>>,
    }

    impl PatchProgram for ChainProgram {
        fn init(&mut self) {
            if self.id.patch.0 == 0 {
                self.token = Some(0);
            }
        }
        fn input(&mut self, _src: ProgramId, payload: Bytes) {
            self.token = Some(u64::from_le_bytes(payload[..8].try_into().unwrap()));
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.done {
                return;
            }
            let Some(tok) = self.token.take() else {
                return;
            };
            self.log.lock().push((self.id.patch.0, tok));
            self.done = true;
            ctx.work_done = 1;
            if self.id.patch.0 + 1 < self.n {
                ctx.send(Stream {
                    src: self.id,
                    dst: ProgramId::new(PatchId(self.id.patch.0 + 1), TaskTag(0)),
                    payload: Bytes::copy_from_slice(&(tok + 1).to_le_bytes()),
                });
            }
        }
        fn vote_to_halt(&self) -> bool {
            self.token.is_none()
        }
        fn remaining_work(&self) -> u64 {
            u64::from(!self.done)
        }
        fn reset(&mut self, _epoch: &EpochInput) {
            // Re-arm for another epoch: program 0 re-seeds the token
            // in `init`-equivalent fashion.
            self.done = false;
            self.token = (self.id.patch.0 == 0).then_some(0);
        }
    }

    struct ChainFactory {
        n: u32,
        ranks: usize,
        log: Arc<Mutex<Vec<(u32, u64)>>>,
    }

    impl ProgramFactory for ChainFactory {
        type Program = ChainProgram;
        fn create(&self, id: ProgramId) -> ChainProgram {
            ChainProgram {
                id,
                n: self.n,
                token: (id.patch.0 == 0).then_some(0),
                done: false,
                log: self.log.clone(),
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            (0..self.n)
                .filter(|p| (*p as usize) % self.ranks == rank)
                .map(|p| ProgramId::new(PatchId(p), TaskTag(0)))
                .collect()
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            id.patch.0 as usize % self.ranks
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            1
        }
    }

    fn run_chain(n: u32, ranks: usize, workers: usize, term: TerminationKind) -> Vec<(u32, u64)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory = Arc::new(ChainFactory {
            n,
            ranks,
            log: log.clone(),
        });
        let stats = one_epoch(
            ranks,
            factory,
            RuntimeConfig {
                num_workers: workers,
                termination: term,
                ..Default::default()
            },
        );
        let total_work: u64 = stats.iter().map(|s| s.work_done).sum();
        assert_eq!(total_work, n as u64);
        let mut out = log.lock().clone();
        out.sort_unstable();
        out
    }

    #[test]
    fn chain_single_rank_counting() {
        let log = run_chain(10, 1, 2, TerminationKind::Counting);
        assert_eq!(log, (0..10).map(|k| (k, k as u64)).collect::<Vec<_>>());
    }

    #[test]
    fn chain_multi_rank_counting() {
        let log = run_chain(20, 3, 2, TerminationKind::Counting);
        assert_eq!(log, (0..20).map(|k| (k, k as u64)).collect::<Vec<_>>());
    }

    #[test]
    fn chain_multi_rank_safra() {
        let log = run_chain(12, 2, 2, TerminationKind::Safra);
        assert_eq!(log, (0..12).map(|k| (k, k as u64)).collect::<Vec<_>>());
    }

    #[test]
    fn chain_single_worker() {
        let log = run_chain(8, 2, 1, TerminationKind::Counting);
        assert_eq!(log.len(), 8);
    }

    #[test]
    fn stats_track_streams_and_frames() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory = Arc::new(ChainFactory {
            n: 6,
            ranks: 2,
            log,
        });
        let stats = one_epoch(2, factory, RuntimeConfig::default());
        // Round-robin placement of a chain: every hop crosses ranks.
        let sent: u64 = stats.iter().map(|s| s.streams_sent).sum();
        let received: u64 = stats.iter().map(|s| s.streams_received).sum();
        assert_eq!(sent, 5);
        assert_eq!(received, 5);
        // A chain is latency-bound: every frame carries one stream.
        let frames: u64 = stats.iter().map(|s| s.frames_sent).sum();
        let frames_in: u64 = stats.iter().map(|s| s.frames_received).sum();
        assert_eq!(frames, 5);
        assert_eq!(frames_in, 5);
        let calls: u64 = stats.iter().map(|s| s.compute_calls).sum();
        assert!(calls >= 6);
        // Exact wire accounting: 20-byte record header + 8-byte token.
        let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        assert_eq!(bytes, 5 * (STREAM_WIRE_OVERHEAD as u64 + 8));
    }

    /// One program on rank 0 fans a burst of streams out to rank 1 in a
    /// single compute call: aggregation must pack the burst into fewer
    /// frames than streams, with byte accounting still exact.
    struct Burst {
        id: ProgramId,
        fan: u32,
        fired: bool,
        pending: u64,
        received: Arc<Mutex<u32>>,
    }

    impl PatchProgram for Burst {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {
            *self.received.lock() += 1;
            self.pending += 1;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.id.patch.0 == 0 {
                if !self.fired {
                    self.fired = true;
                    ctx.work_done = 1;
                    for k in 0..self.fan {
                        ctx.send(Stream {
                            src: self.id,
                            dst: ProgramId::new(PatchId(1 + k), TaskTag(0)),
                            payload: Bytes::copy_from_slice(&u64::from(k).to_le_bytes()),
                        });
                    }
                }
            } else {
                // Work = inputs consumed, so accounting is exact no
                // matter how activation and delivery interleave.
                ctx.work_done = self.pending;
                self.pending = 0;
            }
        }
        fn vote_to_halt(&self) -> bool {
            self.pending == 0
        }
        fn remaining_work(&self) -> u64 {
            self.pending
        }
    }

    struct BurstFactory {
        fan: u32,
        received: Arc<Mutex<u32>>,
    }

    impl ProgramFactory for BurstFactory {
        type Program = Burst;
        fn create(&self, id: ProgramId) -> Burst {
            Burst {
                id,
                fan: self.fan,
                fired: false,
                pending: 0,
                received: self.received.clone(),
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            if rank == 0 {
                vec![ProgramId::new(PatchId(0), TaskTag(0))]
            } else {
                (0..self.fan)
                    .map(|k| ProgramId::new(PatchId(1 + k), TaskTag(0)))
                    .collect()
            }
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            usize::from(id.patch.0 != 0)
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            // Source: the one firing compute. Receivers: the one
            // stream each will consume.
            1
        }
    }

    #[test]
    fn burst_aggregates_into_fewer_frames() {
        let fan = 8u32;
        let received = Arc::new(Mutex::new(0));
        let factory = Arc::new(BurstFactory {
            fan,
            received: received.clone(),
        });
        let stats = one_epoch(2, factory, RuntimeConfig::default());
        assert_eq!(*received.lock(), fan);
        let r0 = &stats[0];
        assert_eq!(r0.streams_sent, u64::from(fan));
        // The whole burst leaves one compute call and one drain round:
        // strictly fewer frames than streams (1, with default knobs).
        assert!(
            r0.frames_sent < r0.streams_sent,
            "burst was not aggregated: {} frames for {} streams",
            r0.frames_sent,
            r0.streams_sent
        );
        assert_eq!(r0.frames_sent, 1);
        // Byte accounting is framing-independent and exact.
        assert_eq!(
            r0.bytes_sent,
            u64::from(fan) * (STREAM_WIRE_OVERHEAD as u64 + 8)
        );
        let r1 = &stats[1];
        assert_eq!(r1.streams_received, u64::from(fan));
        assert_eq!(r1.frames_received, r0.frames_sent);
    }

    /// Two programs that ping-pong a fixed number of times exercise
    /// reentrancy (partial computation) and reactivation.
    struct PingPong {
        id: ProgramId,
        rounds: u32,
        sent: u32,
        received: u32,
        pending: u32,
    }

    impl PatchProgram for PingPong {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {
            self.received += 1;
            self.pending += 1;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            let can_start = self.id.patch.0 == 0 && self.sent == 0;
            if can_start || self.pending > 0 {
                if self.pending > 0 {
                    self.pending -= 1;
                    ctx.work_done = 1;
                }
                if self.sent < self.rounds {
                    self.sent += 1;
                    ctx.send(Stream {
                        src: self.id,
                        dst: ProgramId::new(PatchId(1 - self.id.patch.0), TaskTag(0)),
                        payload: Bytes::new(),
                    });
                }
            }
        }
        fn vote_to_halt(&self) -> bool {
            self.pending == 0
        }
        fn remaining_work(&self) -> u64 {
            (self.rounds - self.received) as u64
        }
        fn reset(&mut self, _epoch: &EpochInput) {
            self.sent = 0;
            self.received = 0;
            self.pending = 0;
        }
    }

    struct PingPongFactory {
        rounds: u32,
    }

    impl ProgramFactory for PingPongFactory {
        type Program = PingPong;
        fn create(&self, id: ProgramId) -> PingPong {
            PingPong {
                id,
                rounds: self.rounds,
                sent: 0,
                received: 0,
                pending: 0,
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            vec![ProgramId::new(PatchId(rank as u32), TaskTag(0))]
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            id.patch.0 as usize
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            self.rounds as u64
        }
    }

    #[test]
    fn ping_pong_reentrancy() {
        for term in [TerminationKind::Counting, TerminationKind::Safra] {
            let factory = Arc::new(PingPongFactory { rounds: 25 });
            let stats = one_epoch(
                2,
                factory,
                RuntimeConfig {
                    num_workers: 1,
                    termination: term,
                    ..Default::default()
                },
            );
            let total: u64 = stats.iter().map(|s| s.work_done).sum();
            assert_eq!(total, 50, "termination {term:?}");
        }
    }

    #[test]
    fn ping_pong_accounting_is_exact_across_ranks() {
        let factory = Arc::new(PingPongFactory { rounds: 25 });
        let stats = one_epoch(2, factory, RuntimeConfig::default());
        for s in &stats {
            // Every stream crosses ranks with an empty payload.
            assert_eq!(s.streams_sent, 25);
            assert_eq!(s.bytes_sent, 25 * STREAM_WIRE_OVERHEAD as u64);
            assert!(s.frames_sent >= 1);
            assert!(s.frames_sent <= s.streams_sent);
        }
        // Per-direction conservation: everything sent was received.
        assert_eq!(stats[0].streams_sent, stats[1].streams_received);
        assert_eq!(stats[1].streams_sent, stats[0].streams_received);
        assert_eq!(stats[0].frames_sent, stats[1].frames_received);
        assert_eq!(stats[1].frames_sent, stats[0].frames_received);
    }

    #[test]
    fn wall_time_recorded() {
        let factory = Arc::new(PingPongFactory { rounds: 2 });
        let stats = one_epoch(2, factory, RuntimeConfig::default());
        for s in &stats {
            assert!(s.wall_seconds > 0.0);
            assert_eq!(s.workers.len(), 2);
        }
    }

    /// Regression: a worker can send a stream-bearing report, release
    /// it and finish its batch between the master's drain of the
    /// channel and its idle check — a quiet pool with streams still in
    /// the channel. Calling that idle let Safra's white zero-count
    /// token overtake the frame those streams were about to become.
    #[test]
    fn a_quiet_pool_with_a_report_in_the_channel_is_not_idle() {
        let pool = Pool::new(1);
        let (to_master, from_workers) = unbounded::<Report>();
        assert!(nothing_in_flight(&pool, &from_workers));
        let staged = Report {
            outputs: vec![Stream {
                src: ProgramId::new(PatchId(0), TaskTag(0)),
                dst: ProgramId::new(PatchId(1), TaskTag(0)),
                payload: Bytes::new(),
            }],
            ..Default::default()
        };
        assert!(to_master.send(staged).is_ok());
        assert!(pool.is_quiet(), "the report was released: nothing is held");
        assert!(!nothing_in_flight(&pool, &from_workers));
        assert!(from_workers.try_recv().is_ok());
        assert!(nothing_in_flight(&pool, &from_workers));
    }

    /// Rank 0's program commits the epoch's only work and streams to
    /// rank 1's, whose workload is zero: Counting terminates as soon as
    /// rank 0's report lands, and the frame reaches rank 1 just ahead
    /// of the termination broadcast. Rank 1's program then panics in a
    /// work-less compute, after a pause that puts its report well past
    /// termination.
    struct LateFault {
        id: ProgramId,
        fired: bool,
        pending: bool,
    }

    impl PatchProgram for LateFault {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {
            self.pending = true;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.id.patch.0 == 0 && !self.fired {
                self.fired = true;
                ctx.work_done = 1;
                ctx.send(Stream {
                    src: self.id,
                    dst: ProgramId::new(PatchId(1), TaskTag(0)),
                    payload: Bytes::new(),
                });
            } else if self.pending {
                std::thread::sleep(Duration::from_millis(50));
                panic!("late fault after termination");
            }
        }
        fn vote_to_halt(&self) -> bool {
            !self.pending
        }
        fn remaining_work(&self) -> u64 {
            u64::from(self.id.patch.0 == 0 && !self.fired)
        }
    }

    struct LateFaultFactory;

    impl ProgramFactory for LateFaultFactory {
        type Program = LateFault;
        fn create(&self, id: ProgramId) -> LateFault {
            LateFault {
                id,
                fired: false,
                pending: false,
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            vec![ProgramId::new(PatchId(rank as u32), TaskTag(0))]
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            id.patch.0 as usize
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, id: ProgramId) -> u64 {
            u64::from(id.patch.0 == 0)
        }
    }

    /// Regression: the close's residue sweep used to add a late
    /// report's work and drop its fault, so an epoch whose program
    /// panicked after Counting terminated came back `Ok`.
    #[test]
    fn a_fault_reported_after_termination_fails_the_epoch() {
        let mut u = Universe::launch(
            2,
            Arc::new(LateFaultFactory),
            RuntimeConfig {
                num_workers: 1,
                ..Default::default()
            },
        );
        let fault = u
            .run_epoch(Arc::new(()))
            .expect_err("the late panic must fail the epoch");
        assert_eq!(fault.kind, FaultKind::Panic);
        assert_eq!(fault.rank, 1);
        assert_eq!(fault.program, Some(ProgramId::new(PatchId(1), TaskTag(0))));
        assert!(
            fault.payload.contains("late fault"),
            "payload: {}",
            fault.payload
        );
        u.shutdown();
    }

    /// Bytes off the wire that do not decode poison the epoch with a
    /// `RankDeath` blaming the rank that wrote them — the master never
    /// indexes them unchecked.
    #[test]
    fn garbled_frame_or_abort_faults_the_epoch_blaming_the_sender() {
        for (tag, what) in [
            (TAG_FRAME, "malformed frame"),
            (TAG_ABORT, "malformed abort"),
        ] {
            let mut world = jsweep_comm::Universe::endpoints(2);
            let peer = world.pop().expect("rank 1");
            let comm = world.pop().expect("rank 0");
            // Rank 0's ping-pong partner never answers; it writes 7
            // bytes — short of any record or abort header — instead.
            peer.send(0, tag, Bytes::from(vec![0xff; 7])).expect("send");
            let factory = Arc::new(PingPongFactory { rounds: 1 });
            let mut rank = Rank::launch(comm, factory, &RuntimeConfig::default());
            let fault = rank
                .run_epoch(&(Arc::new(()) as Arc<EpochInput>), 0)
                .expect_err("garbled bytes must poison the epoch");
            assert_eq!(fault.kind, FaultKind::RankDeath);
            assert_eq!(fault.rank, 1, "the sender is blamed, not the observer");
            assert!(fault.payload.contains(what), "payload: {}", fault.payload);
            rank.shutdown();
        }
    }
}
