//! The persistent sweep universe: a resident runtime that lives for a
//! whole multi-epoch computation.
//!
//! Iterative workloads (source iterations, time steps, eigenvalue
//! loops, AMR cycles) run the *same* program topology dozens of times
//! with only the input data changing, so building rank threads, worker
//! threads, pools and every patch-program per iteration is pure
//! overhead. A [`Universe`] is the one way an epoch runs — a
//! single sweep is a universe of one epoch — and it keeps the whole
//! world resident:
//!
//! * **launch** — rank threads, workers, pools and master routing
//!   state are created once ([`Universe::launch`]);
//! * **epoch** — each [`Universe::run_epoch`] call re-activates every
//!   program, runs the data-driven computation to distributed
//!   termination (either detector) and returns per-rank [`RunStats`];
//!   the factory describes the programs' shape only, and the caller's
//!   opaque epoch input is the sole carrier of per-epoch state: every
//!   program adopts it through
//!   [`PatchProgram::reset`](crate::PatchProgram::reset) — resident
//!   programs in place at the epoch boundary (no reallocation of their
//!   buffers), new ones right after `create` — in the first epoch as
//!   in every later one;
//! * **shutdown** — [`Universe::shutdown`] (or drop) stops the pools
//!   and joins every thread. A faulted universe is recovered the same
//!   way: shut it down and launch a fresh one.
//!
//! Epochs are separated by a two-barrier fence on the simulated MPI
//! world, so termination of epoch `k` is globally observed before any
//! rank starts epoch `k+1` — streams can never bleed between epochs.

use crate::engine::{Rank, RuntimeConfig};
use crate::fault::{panic_message, EpochFault};
use crate::program::{EpochInput, ProgramFactory};
use crate::stats::RunStats;
use crossbeam::channel::{unbounded, Receiver, Sender};
use jsweep_comm::socket::SocketUniverse;
use jsweep_comm::{Comm, TransportKind, Universe as CommUniverse};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Builds the connected [`Comm`] world a universe launches its ranks
/// over, in rank order. Called once per launch: the universe that
/// replaces a faulted one must get fresh endpoints (a socket world's
/// old connections carry death residue), which is why the fabric is a
/// factory rather than a `Vec<Comm>`.
pub type CommFabric = Arc<dyn Fn(usize) -> Vec<Comm> + Send + Sync>;

/// The [`CommFabric`] for a built-in transport: crossbeam channels for
/// [`TransportKind::Thread`], a UNIX-domain-socket world (still one
/// process here — rank *processes* use [`Rank`] + `SocketUniverse::
/// connect` instead) for [`TransportKind::Socket`].
pub fn fabric_for(kind: TransportKind) -> CommFabric {
    match kind {
        TransportKind::Thread => Arc::new(CommUniverse::endpoints),
        TransportKind::Socket => Arc::new(SocketUniverse::endpoints),
    }
}

enum Cmd {
    /// Run one epoch; the `u64` is its span id (see
    /// [`Universe::run_epoch_tuned`]).
    Epoch(Arc<EpochInput>, u64),
    Shutdown,
}

struct RankHandle {
    cmd: Sender<Cmd>,
    stats: Receiver<Result<RunStats, EpochFault>>,
    join: Option<JoinHandle<()>>,
}

/// A resident simulated-MPI world: `num_ranks` rank threads (each with
/// its master state and worker threads) that stay alive across any
/// number of epochs. See the [module docs](self) for the lifecycle.
pub struct Universe {
    ranks: Vec<RankHandle>,
    epochs_run: u64,
    /// Set when an epoch faulted; the universe refuses further epochs.
    faulted: Option<EpochFault>,
}

impl Universe {
    /// Spawn a resident world of `num_ranks` ranks sharing `factory`.
    pub fn launch<F: ProgramFactory>(
        num_ranks: usize,
        factory: Arc<F>,
        config: RuntimeConfig,
    ) -> Universe {
        Universe::launch_with_fabric(
            num_ranks,
            factory,
            config,
            fabric_for(TransportKind::Thread),
        )
    }

    /// [`Universe::launch`] over an explicit transport fabric.
    pub fn launch_with_fabric<F: ProgramFactory>(
        num_ranks: usize,
        factory: Arc<F>,
        config: RuntimeConfig,
        fabric: CommFabric,
    ) -> Universe {
        let endpoints = fabric(num_ranks);
        assert_eq!(endpoints.len(), num_ranks, "fabric world size mismatch");
        let ranks = endpoints
            .into_iter()
            .map(|comm| {
                let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
                let (stats_tx, stats_rx) = unbounded::<Result<RunStats, EpochFault>>();
                let factory = factory.clone();
                let config = config.clone();
                let rank_id = comm.rank();
                let join = std::thread::Builder::new()
                    .name(format!("universe-rank-{rank_id}"))
                    .spawn(move || {
                        let mut rank = Rank::launch(comm, factory, &config);
                        while let Ok(cmd) = cmd_rx.recv() {
                            match cmd {
                                Cmd::Epoch(input, span) => {
                                    // A faulted epoch sends `Err` and
                                    // keeps the thread alive: the rank
                                    // still answers `Shutdown`; it just
                                    // never runs another epoch.
                                    let result = rank.run_epoch(&input, span);
                                    if stats_tx.send(result).is_err() {
                                        break;
                                    }
                                }
                                Cmd::Shutdown => break,
                            }
                        }
                        rank.shutdown();
                    })
                    .expect("spawn universe rank thread");
                RankHandle {
                    cmd: cmd_tx,
                    stats: stats_rx,
                    join: Some(join),
                }
            })
            .collect();
        Universe {
            ranks,
            epochs_run: 0,
            faulted: None,
        }
    }

    /// Number of resident ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// The fault that poisoned this universe, if any. Once set,
    /// [`Universe::run_epoch`] returns this fault without running.
    pub fn fault(&self) -> Option<&EpochFault> {
        self.faulted.as_ref()
    }

    /// Run one epoch to global termination on every rank; returns the
    /// per-rank [`RunStats`] in rank order.
    ///
    /// `input` is shared with every rank and handed to the
    /// [`PatchProgram::reset`](crate::PatchProgram::reset) of every
    /// program that runs in the epoch, before its first `input` or
    /// `compute` of the epoch. Epochs with no input use `Arc::new(())`.
    ///
    /// `Err` means the epoch was poisoned — a contained program panic,
    /// a watchdog stall, or a rank-thread death — and the universe is
    /// now faulted: further `run_epoch` calls return the same fault
    /// without running. Recover by shutting it down and launching a
    /// fresh one.
    pub fn run_epoch(&mut self, input: Arc<EpochInput>) -> Result<Vec<RunStats>, EpochFault> {
        self.run_epoch_tuned(input, 0)
    }

    /// [`Universe::run_epoch`] with the span id stamped on this
    /// epoch's `Epoch` trace events (`0` = none). A session driver
    /// assigns each request a span id and passes it down here, so a
    /// ticket's epochs can be located in an exported Chrome trace.
    /// Inert unless the `telemetry` feature is on and recording is
    /// armed.
    pub fn run_epoch_tuned(
        &mut self,
        input: Arc<EpochInput>,
        span: u64,
    ) -> Result<Vec<RunStats>, EpochFault> {
        if let Some(f) = &self.faulted {
            return Err(f.clone());
        }
        for i in 0..self.ranks.len() {
            if self.ranks[i]
                .cmd
                .send(Cmd::Epoch(input.clone(), span))
                .is_err()
            {
                // The rank thread is gone before shutdown — an engine
                // bug, contained as a fault with the thread's panic
                // payload (joining a vanished thread is immediate).
                let fault = self.rank_death(i, "exited before shutdown");
                self.faulted = Some(fault.clone());
                return Err(fault);
            }
        }
        let raw: Vec<Option<Result<RunStats, EpochFault>>> =
            self.ranks.iter().map(|r| r.stats.recv().ok()).collect();
        let mut results: Vec<Result<RunStats, EpochFault>> = Vec::with_capacity(raw.len());
        for (i, recvd) in raw.into_iter().enumerate() {
            results.push(match recvd {
                Some(result) => result,
                None => Err(self.rank_death(i, "died during the epoch")),
            });
        }
        // Deterministic fault choice when several ranks report one
        // (the origin's broadcast means its peers usually return the
        // *same* fault): the lowest-ranked error wins.
        if let Some(fault) = results.iter().filter_map(|r| r.as_ref().err()).next() {
            let fault = fault.clone();
            self.faulted = Some(fault.clone());
            return Err(fault);
        }
        self.epochs_run += 1;
        Ok(results.into_iter().map(|r| r.expect("no errs")).collect())
    }

    /// Describe rank `i`'s thread death as a fault, harvesting its
    /// panic payload (the thread is already gone, so the join cannot
    /// block).
    fn rank_death(&mut self, i: usize, what: &str) -> EpochFault {
        let payload = match self.ranks[i].join.take().map(|j| j.join()) {
            Some(Err(e)) => format!("rank thread {what}: {}", panic_message(e.as_ref())),
            _ => format!("rank thread {what}"),
        };
        EpochFault {
            rank: i,
            worker: 0,
            program: None,
            payload,
            kind: crate::fault::FaultKind::RankDeath,
        }
    }

    /// Stop every rank: pools stop, workers and rank threads join.
    /// Idempotent; also invoked on drop, so an explicit call is only
    /// needed to observe thread panics eagerly.
    ///
    /// # Panics
    ///
    /// If a rank thread itself panicked (an engine bug — program
    /// panics are contained as epoch faults and do not kill rank
    /// threads), this panics with the rank id, the universe's epoch
    /// count and the thread's panic payload — after joining the
    /// remaining ranks, so no thread is leaked behind the abort.
    pub fn shutdown(&mut self) {
        let epoch = self.epochs_run;
        let failures: Vec<String> = self
            .stop_ranks()
            .iter()
            .map(|(i, why)| format!("rank {i} panicked (universe at epoch {epoch}): {why}"))
            .collect();
        if !failures.is_empty() {
            panic!("universe shutdown: {}", failures.join("; "));
        }
    }

    /// Send every rank `Shutdown` (a closed channel means the rank
    /// already exited) and join its thread; returns the rendered panic
    /// payloads of the rank threads that panicked, by rank.
    fn stop_ranks(&mut self) -> Vec<(usize, String)> {
        for r in &self.ranks {
            let _ = r.cmd.send(Cmd::Shutdown);
        }
        self.ranks
            .iter_mut()
            .enumerate()
            .filter_map(|(i, r)| Some((i, panic_message(&*r.join.take()?.join().err()?))))
            .collect()
    }
}

impl Drop for Universe {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Already unwinding: shut down without risking a double
            // panic. Rank threads still get a `Shutdown` and a join —
            // their panic payloads (if any) are swallowed here, since
            // the unwind in progress is the error being reported — so
            // dropping mid-unwind leaks no threads.
            self.stop_ranks();
        } else {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ComputeCtx, PatchProgram, ProgramId, Stream, TaskTag};
    use crate::TerminationKind;
    use bytes::Bytes;
    use jsweep_mesh::PatchId;
    use parking_lot::Mutex;

    /// Epoch-aware accumulator ring: each epoch, every program adds the
    /// epoch's offset (the downcast epoch input) to a running sum and
    /// forwards a token around the ring once. Exercises reset, the
    /// fence, and per-epoch stats isolation.
    struct RingProgram {
        id: ProgramId,
        n: u32,
        offset: u64,
        token: Option<u64>,
        fired: bool,
        sums: Arc<Mutex<Vec<u64>>>,
    }

    impl PatchProgram for RingProgram {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, payload: Bytes) {
            self.token = Some(u64::from_le_bytes(payload[..8].try_into().unwrap()));
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            let starts = self.id.patch.0 == 0 && !self.fired;
            if starts {
                self.token = Some(0);
            }
            let Some(tok) = self.token.take() else {
                return;
            };
            if self.fired {
                return;
            }
            self.fired = true;
            ctx.work_done = 1;
            self.sums.lock()[self.id.patch.0 as usize] += tok + self.offset;
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
            u64::from(!self.fired)
        }
        fn reset(&mut self, epoch: &crate::EpochInput) {
            let &offset = epoch.downcast_ref::<u64>().expect("ring epoch input");
            self.offset = offset;
            self.fired = false;
            self.token = None;
        }
    }

    struct RingFactory {
        n: u32,
        ranks: usize,
        sums: Arc<Mutex<Vec<u64>>>,
    }

    impl ProgramFactory for RingFactory {
        type Program = RingProgram;
        fn create(&self, id: ProgramId) -> RingProgram {
            RingProgram {
                id,
                n: self.n,
                offset: 0,
                token: None,
                fired: false,
                sums: self.sums.clone(),
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

    fn run_ring_epochs(n: u32, ranks: usize, term: TerminationKind, offsets: &[u64]) -> Vec<u64> {
        let sums = Arc::new(Mutex::new(vec![0u64; n as usize]));
        let factory = Arc::new(RingFactory {
            n,
            ranks,
            sums: sums.clone(),
        });
        let mut u = Universe::launch(
            ranks,
            factory,
            RuntimeConfig {
                num_workers: 2,
                termination: term,
                ..Default::default()
            },
        );
        assert_eq!(u.num_ranks(), ranks);
        for (k, &off) in offsets.iter().enumerate() {
            let stats = u.run_epoch(Arc::new(off)).expect("epoch");
            assert_eq!(stats.len(), ranks);
            let work: u64 = stats.iter().map(|s| s.work_done).sum();
            assert_eq!(work, n as u64, "epoch {k} work accounting");
            // Per-epoch stream accounting: the token crosses n-1 hops,
            // every epoch, from a cold counter.
            let moved: u64 = stats.iter().map(|s| s.streams_sent + s.streams_local).sum();
            assert_eq!(moved, (n - 1) as u64, "epoch {k} stream accounting");
        }
        assert_eq!(u.epochs_run(), offsets.len() as u64);
        u.shutdown();
        let out = sums.lock().clone();
        out
    }

    #[test]
    fn resident_ring_runs_many_epochs_counting() {
        // Every epoch adds its downcast offset — the first included.
        // Program k accumulates k per epoch plus the epoch offsets:
        // check exact sums.
        let offsets = [1, 10, 100];
        let sums = run_ring_epochs(6, 2, TerminationKind::Counting, &offsets);
        for (k, &s) in sums.iter().enumerate() {
            let expect = 3 * k as u64 + offsets.iter().sum::<u64>();
            assert_eq!(s, expect, "program {k}");
        }
    }

    #[test]
    fn resident_ring_runs_many_epochs_safra() {
        let offsets = [3, 7];
        let sums = run_ring_epochs(5, 3, TerminationKind::Safra, &offsets);
        for (k, &s) in sums.iter().enumerate() {
            assert_eq!(s, 2 * k as u64 + 10, "program {k}");
        }
    }

    /// The ring laid out in segments of `seg` consecutive programs,
    /// alternating between two ranks: long same-rank chains joined by
    /// single cross-rank hops.
    struct SegmentFactory {
        inner: RingFactory,
        seg: u32,
    }

    impl ProgramFactory for SegmentFactory {
        type Program = RingProgram;
        fn create(&self, id: ProgramId) -> RingProgram {
            self.inner.create(id)
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            (0..self.inner.n)
                .map(|p| ProgramId::new(PatchId(p), TaskTag(0)))
                .filter(|&id| self.rank_of(id) == rank)
                .collect()
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            (id.patch.0 / self.seg) as usize % 2
        }
        fn priority(&self, id: ProgramId) -> i64 {
            self.inner.priority(id)
        }
        fn initial_workload(&self, id: ProgramId) -> u64 {
            self.inner.initial_workload(id)
        }
    }

    /// Safra soak of worker-side delivery: the token runs three
    /// same-rank segments (rank 0, rank 1, rank 0) per epoch, so each
    /// rank in turn sits quiet while the other works through streams
    /// the master never sees, and each hand-over is one cross-rank
    /// stream behind a long local chain. Every epoch must count all
    /// the work and every hop — a termination declared early loses
    /// some — with the master asserting (debug builds) that no
    /// same-rank stream reaches it.
    #[test]
    fn safra_soak_of_same_rank_chains_with_cross_rank_handovers() {
        let (seg, epochs) = (40u32, 200u64);
        let n = 3 * seg;
        let sums = Arc::new(Mutex::new(vec![0u64; n as usize]));
        let factory = Arc::new(SegmentFactory {
            inner: RingFactory {
                n,
                ranks: 2,
                sums: sums.clone(),
            },
            seg,
        });
        let mut u = Universe::launch(
            2,
            factory,
            RuntimeConfig {
                num_workers: 2,
                termination: TerminationKind::Safra,
                ..Default::default()
            },
        );
        for epoch in 0..epochs {
            let stats = u.run_epoch(Arc::new(epoch)).expect("epoch");
            let work: u64 = stats.iter().map(|s| s.work_done).sum();
            assert_eq!(work, u64::from(n), "epoch {epoch} work accounting");
            let local: Vec<u64> = stats.iter().map(|s| s.streams_local).collect();
            let sent: Vec<u64> = stats.iter().map(|s| s.streams_sent).collect();
            let seg = u64::from(seg);
            assert_eq!(local, [2 * (seg - 1), seg - 1], "epoch {epoch} local hops");
            assert_eq!(sent, [1, 1], "epoch {epoch} cross-rank hops");
        }
        u.shutdown();
        // Program k saw token k and the epoch's offset, every epoch.
        let offsets: u64 = (0..epochs).sum();
        for (k, &s) in sums.lock().iter().enumerate() {
            assert_eq!(s, epochs * k as u64 + offsets, "program {k}");
        }
    }

    /// A program that only materialises mid-epoch (it is not listed by
    /// the factory; a listed program streams to it lazily) must be
    /// reset with the current epoch input right after creation. It
    /// logs `(received payload, epoch value it was armed with)`.
    struct LazyTarget {
        epoch: Option<u64>,
        got: Arc<Mutex<Vec<(u64, u64)>>>,
    }

    struct LazySource {
        id: ProgramId,
        fire: bool,
        epoch: u64,
    }

    enum LazyProgram {
        Source(LazySource),
        Target(LazyTarget),
    }

    impl PatchProgram for LazyProgram {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, payload: Bytes) {
            match self {
                LazyProgram::Target(t) => {
                    let armed = t.epoch.expect("lazy program ran un-reset");
                    let sent = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    t.got.lock().push((sent, armed));
                }
                LazyProgram::Source(_) => {}
            }
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if let LazyProgram::Source(s) = self {
                if s.fire {
                    s.fire = false;
                    ctx.work_done = 1;
                    // Only odd epoch values target the hidden program.
                    if s.epoch % 2 == 1 {
                        ctx.send(Stream {
                            src: s.id,
                            dst: ProgramId::new(PatchId(99), TaskTag(0)),
                            payload: Bytes::copy_from_slice(&s.epoch.to_le_bytes()),
                        });
                    }
                }
            }
        }
        fn vote_to_halt(&self) -> bool {
            match self {
                LazyProgram::Source(s) => !s.fire,
                LazyProgram::Target(_) => true,
            }
        }
        fn remaining_work(&self) -> u64 {
            match self {
                LazyProgram::Source(s) => u64::from(s.fire),
                LazyProgram::Target(_) => 0,
            }
        }
        fn reset(&mut self, epoch: &crate::EpochInput) {
            let &e = epoch.downcast_ref::<u64>().expect("lazy epoch input");
            match self {
                LazyProgram::Source(s) => {
                    s.fire = true;
                    s.epoch = e;
                }
                LazyProgram::Target(t) => t.epoch = Some(e),
            }
        }
    }

    struct LazyFactory {
        got: Arc<Mutex<Vec<(u64, u64)>>>,
    }

    impl ProgramFactory for LazyFactory {
        type Program = LazyProgram;
        fn create(&self, id: ProgramId) -> LazyProgram {
            if id.patch.0 == 99 {
                LazyProgram::Target(LazyTarget {
                    epoch: None,
                    got: self.got.clone(),
                })
            } else {
                LazyProgram::Source(LazySource {
                    id,
                    fire: true,
                    epoch: 0,
                })
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            if rank == 0 {
                vec![ProgramId::new(PatchId(0), TaskTag(0))]
            } else {
                Vec::new()
            }
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            // The hidden target lives on rank 1.
            usize::from(id.patch.0 == 99)
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            1
        }
    }

    /// Seconds of virtual kernel time the straggler books per epoch —
    /// a constant marker, so per-epoch attribution is exactly testable.
    const STRAGGLER_MARKER: f64 = 42.0;
    const STRAGGLER_SLEEP: std::time::Duration = std::time::Duration::from_millis(40);

    /// Two programs across two ranks engineered so counting
    /// termination is declared while a worker still runs a compute:
    /// P0 (rank 0) fires the token (its only committed work); P1
    /// (rank 1) consumes it, echoes a stream back, and defers its own
    /// work commitment by one claim cycle (a self-stream). The echo
    /// frame therefore leaves a full claim + report + counting round
    /// ahead of the report that completes the committed-work total, so
    /// P0's worker has reliably claimed the zero-work echo compute —
    /// which sleeps — by the time the epoch terminates around it. Its
    /// stat-only report can only reach the epoch through the
    /// end-of-epoch quiesce drain.
    struct EchoStraggler {
        id: ProgramId,
        fired: bool,
        consumed: bool,
        token_pending: bool,
        commit_pending: bool,
        echo_pending: bool,
    }

    impl PatchProgram for EchoStraggler {
        fn init(&mut self) {}
        fn input(&mut self, src: ProgramId, _payload: Bytes) {
            if self.id.patch.0 == 0 {
                self.echo_pending = true;
            } else if src == self.id {
                self.commit_pending = true;
            } else {
                self.token_pending = true;
            }
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.id.patch.0 == 0 {
                if !self.fired {
                    self.fired = true;
                    ctx.work_done = 1;
                    ctx.send(Stream {
                        src: self.id,
                        dst: ProgramId::new(PatchId(1), TaskTag(0)),
                        payload: Bytes::new(),
                    });
                } else if self.echo_pending {
                    // The straggler: all committed work is already
                    // done. Hold the claim long enough that global
                    // termination beats this compute's report, and book
                    // a marker the epoch's stats must still contain.
                    self.echo_pending = false;
                    std::thread::sleep(STRAGGLER_SLEEP);
                    ctx.kernel_seconds = STRAGGLER_MARKER;
                }
            } else if self.token_pending {
                self.token_pending = false;
                ctx.send(Stream {
                    src: self.id,
                    dst: ProgramId::new(PatchId(0), TaskTag(0)),
                    payload: Bytes::new(),
                });
                ctx.send(Stream {
                    src: self.id,
                    dst: self.id,
                    payload: Bytes::new(),
                });
            } else if self.commit_pending {
                self.commit_pending = false;
                self.consumed = true;
                ctx.work_done = 1;
            }
        }
        fn vote_to_halt(&self) -> bool {
            if self.id.patch.0 == 0 {
                self.fired && !self.echo_pending
            } else {
                !self.token_pending && !self.commit_pending
            }
        }
        fn remaining_work(&self) -> u64 {
            if self.id.patch.0 == 0 {
                u64::from(!self.fired)
            } else {
                u64::from(!self.consumed)
            }
        }
        fn reset(&mut self, _epoch: &crate::EpochInput) {
            self.fired = false;
            self.consumed = false;
            self.token_pending = false;
            self.commit_pending = false;
            self.echo_pending = false;
        }
    }

    struct EchoFactory;

    impl ProgramFactory for EchoFactory {
        type Program = EchoStraggler;
        fn create(&self, id: ProgramId) -> EchoStraggler {
            EchoStraggler {
                id,
                fired: false,
                consumed: false,
                token_pending: false,
                commit_pending: false,
                echo_pending: false,
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
            1
        }
    }

    /// Regression (this PR): per-epoch `RunStats` deltas must stay
    /// exact when an epoch terminates while its quiesce drain is still
    /// collecting a straggling compute — and the next epoch is
    /// submitted immediately after. The straggler's stat-only report
    /// (a `STRAGGLER_MARKER` of virtual kernel seconds) must land in
    /// the epoch that ran it, every epoch; any cross-epoch bleed shows
    /// up as a 0 / 2× marker split between adjacent epochs. This is
    /// exactly the race the quiesce drain's post-quiet sweep closes: a
    /// worker releases its held report after the channel send, so the
    /// final report can land just as the master observes quiet.
    #[test]
    fn quiesce_drain_keeps_straggler_stats_in_their_epoch() {
        let mut u = Universe::launch(
            2,
            Arc::new(EchoFactory),
            RuntimeConfig {
                num_workers: 2,
                termination: TerminationKind::Counting,
                ..Default::default()
            },
        );
        for epoch in 0..3 {
            let stats = u.run_epoch(Arc::new(())).expect("epoch");
            let work: u64 = stats.iter().map(|s| s.work_done).sum();
            assert_eq!(work, 2, "epoch {epoch} work accounting");
            let moved: u64 = stats.iter().map(|s| s.streams_sent + s.streams_local).sum();
            assert_eq!(moved, 3, "epoch {epoch} stream accounting");
            // The marker is virtual time: booked exactly once per
            // epoch, by the straggler. The quiesce drain waits for
            // ready-but-unclaimed programs too (`active` covers them),
            // so the echo compute always runs inside its epoch — the
            // only way this assert fails is its report crossing the
            // fence.
            let kernel: f64 = stats
                .iter()
                .map(|s| s.workers_merged().get(crate::stats::Category::Kernel))
                .sum();
            assert_eq!(
                kernel, STRAGGLER_MARKER,
                "epoch {epoch}: straggler report bled across the fence"
            );
            // While the straggler slept, rank 0's other worker (or the
            // straggler's own earlier hand-off) sat in the drain tail:
            // the per-epoch drain stamps must see a tail of the same
            // order as the sleep.
            let max_drain = stats[0]
                .worker_drain_seconds
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            assert!(
                max_drain >= STRAGGLER_SLEEP.as_secs_f64() * 0.25,
                "epoch {epoch}: drain tail {max_drain}s lost the straggler window"
            );
        }
        u.shutdown();
    }

    /// Per-epoch worker-drain stamps on a plain 2-rank ring: every
    /// rank reports one entry per worker, bounded by the epoch wall,
    /// and the worker that carried the token drains for less than the
    /// whole epoch.
    #[test]
    fn worker_drain_stamps_cover_every_worker_each_epoch() {
        let sums = Arc::new(Mutex::new(vec![0u64; 6]));
        let factory = Arc::new(RingFactory {
            n: 6,
            ranks: 2,
            sums,
        });
        let mut u = Universe::launch(
            2,
            factory,
            RuntimeConfig {
                num_workers: 2,
                ..Default::default()
            },
        );
        for epoch in 0..3u64 {
            let stats = u.run_epoch(Arc::new(epoch)).expect("epoch");
            for s in &stats {
                assert_eq!(
                    s.worker_drain_seconds.len(),
                    2,
                    "rank {} epoch {epoch}: one stamp per worker",
                    s.rank
                );
                for &d in &s.worker_drain_seconds {
                    assert!(d.is_finite() && d >= 0.0);
                    assert!(
                        d <= s.wall_seconds,
                        "rank {} epoch {epoch}: drain {d}s exceeds wall {}s",
                        s.rank,
                        s.wall_seconds
                    );
                }
                // Both ranks hold ring programs, so some worker on each
                // rank acted this epoch and its tail is a strict
                // sub-interval of the epoch.
                let min = s
                    .worker_drain_seconds
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    min < s.wall_seconds,
                    "rank {} epoch {epoch}: no worker was ever active",
                    s.rank
                );
            }
        }
        u.shutdown();
    }

    /// The same resident ring over a socket fabric: epochs run, and a
    /// second launch after shutdown gets a *fresh* socket world (stale
    /// connections from the first incarnation must not leak into the
    /// second).
    #[test]
    fn socket_fabric_runs_epochs_and_a_fresh_launch_serves() {
        let n = 4u32;
        let sums = Arc::new(Mutex::new(vec![0u64; n as usize]));
        let factory = Arc::new(RingFactory {
            n,
            ranks: 2,
            sums: sums.clone(),
        });
        let launch = || {
            Universe::launch_with_fabric(
                2,
                factory.clone(),
                RuntimeConfig::default(),
                super::fabric_for(jsweep_comm::TransportKind::Socket),
            )
        };
        let mut u = launch();
        u.run_epoch(Arc::new(1u64)).expect("epoch 1");
        u.run_epoch(Arc::new(10u64)).expect("epoch 2");
        u.shutdown();
        let mut u = launch();
        u.run_epoch(Arc::new(100u64)).expect("second incarnation");
        u.shutdown();
        // Program k sees the ring token k three times plus every
        // epoch's offset.
        for (k, &s) in sums.lock().iter().enumerate() {
            assert_eq!(s, 3 * k as u64 + 111, "program {k}");
        }
    }

    /// Regression: the first epoch of a universe honours its input.
    /// Two ranks; the source on rank 0 is created at activation, the
    /// hidden target on rank 1 by the source's incoming stream. Both
    /// must have been armed with the epoch's value before they ran.
    #[test]
    fn first_epoch_input_reaches_every_program() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let factory = Arc::new(LazyFactory { got: got.clone() });
        let mut u = Universe::launch(2, factory, RuntimeConfig::default());
        u.run_epoch(Arc::new(7u64)).expect("epoch");
        u.shutdown();
        assert_eq!(got.lock().clone(), vec![(7, 7)]);
    }

    #[test]
    fn lazily_created_program_is_reset_to_current_epoch() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let factory = Arc::new(LazyFactory { got: got.clone() });
        let mut u = Universe::launch(
            2,
            factory,
            RuntimeConfig {
                termination: TerminationKind::Safra,
                ..Default::default()
            },
        );
        u.run_epoch(Arc::new(0u64)).expect("epoch");
        u.run_epoch(Arc::new(1u64)).expect("epoch");
        u.shutdown();
        assert_eq!(got.lock().clone(), vec![(1, 1)]);
    }

    /// A ring program that panics mid-compute when the epoch input
    /// asks for it (`u64::MAX` offset). Exercises the containment
    /// path without any injection machinery.
    struct FaultyRing {
        inner: RingProgram,
        panic_now: bool,
    }

    impl PatchProgram for FaultyRing {
        fn init(&mut self) {
            self.inner.init()
        }
        fn input(&mut self, src: ProgramId, payload: Bytes) {
            self.inner.input(src, payload)
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.panic_now && self.inner.id.patch.0 == 1 {
                panic!("faulty ring program blew up");
            }
            self.inner.compute(ctx)
        }
        fn vote_to_halt(&self) -> bool {
            self.inner.vote_to_halt()
        }
        fn remaining_work(&self) -> u64 {
            self.inner.remaining_work()
        }
        fn reset(&mut self, epoch: &crate::EpochInput) {
            let &offset = epoch.downcast_ref::<u64>().expect("ring epoch input");
            self.panic_now = offset == u64::MAX;
            self.inner
                .reset(&(if self.panic_now { 0u64 } else { offset }));
        }
    }

    struct FaultyRingFactory {
        inner: RingFactory,
    }

    impl ProgramFactory for FaultyRingFactory {
        type Program = FaultyRing;
        fn create(&self, id: ProgramId) -> FaultyRing {
            FaultyRing {
                inner: self.inner.create(id),
                panic_now: false,
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            self.inner.programs_on_rank(rank)
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            self.inner.rank_of(id)
        }
        fn priority(&self, id: ProgramId) -> i64 {
            self.inner.priority(id)
        }
        fn initial_workload(&self, id: ProgramId) -> u64 {
            self.inner.initial_workload(id)
        }
    }

    /// A program panic must poison the epoch (not the process) and
    /// mark the universe faulted — across both ranks, through the
    /// abort broadcast; shutting it down and launching a fresh
    /// universe from the same factory must restore full service.
    #[test]
    fn program_panic_faults_epoch_and_a_fresh_launch_recovers() {
        let n = 6u32;
        let sums = Arc::new(Mutex::new(vec![0u64; n as usize]));
        let factory = Arc::new(FaultyRingFactory {
            inner: RingFactory {
                n,
                ranks: 2,
                sums: sums.clone(),
            },
        });
        let mut u = Universe::launch(2, factory.clone(), RuntimeConfig::default());
        // Healthy first epoch.
        u.run_epoch(Arc::new(0u64)).expect("healthy epoch");
        // Poisoned second epoch: program 1 (rank 1) panics.
        let fault = u.run_epoch(Arc::new(u64::MAX)).expect_err("poisoned epoch");
        assert_eq!(fault.kind, crate::fault::FaultKind::Panic);
        assert_eq!(fault.rank, 1);
        assert_eq!(fault.program.map(|id| id.patch.0), Some(1));
        assert!(
            fault.payload.contains("blew up"),
            "payload: {}",
            fault.payload
        );
        // The universe is now faulted: epochs are refused, cheaply.
        assert!(u.fault().is_some());
        let again = u.run_epoch(Arc::new(0u64)).expect_err("still faulted");
        assert_eq!(again, fault);
        // Shutdown + launch restores service.
        u.shutdown();
        let mut u = Universe::launch(2, factory, RuntimeConfig::default());
        assert!(u.fault().is_none());
        let stats = u.run_epoch(Arc::new(0u64)).expect("post-fault epoch");
        let work: u64 = stats.iter().map(|s| s.work_done).sum();
        assert_eq!(work, n as u64);
        u.shutdown();
    }

    /// A compute that sleeps far past the watchdog deadline while
    /// holding its claim: the watchdog must convert the hang into a
    /// `Stall` fault instead of blocking the epoch forever.
    struct Sleeper;

    impl PatchProgram for Sleeper {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {}
        fn compute(&mut self, _ctx: &mut ComputeCtx) {
            std::thread::sleep(std::time::Duration::from_millis(600));
        }
        fn vote_to_halt(&self) -> bool {
            // Never halts and never commits work: with the claim held
            // by the sleep, the master sees active work and no
            // progress — the watchdog's exact trigger.
            false
        }
        fn remaining_work(&self) -> u64 {
            1
        }
    }

    struct SleeperFactory;

    impl ProgramFactory for SleeperFactory {
        type Program = Sleeper;
        fn create(&self, _id: ProgramId) -> Sleeper {
            Sleeper
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            if rank == 0 {
                vec![ProgramId::new(PatchId(0), TaskTag(0))]
            } else {
                Vec::new()
            }
        }
        fn rank_of(&self, _id: ProgramId) -> usize {
            0
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            1
        }
    }

    #[test]
    fn watchdog_converts_stall_into_fault() {
        let mut u = Universe::launch(
            1,
            Arc::new(SleeperFactory),
            RuntimeConfig {
                num_workers: 1,
                watchdog: Some(std::time::Duration::from_millis(100)),
                ..Default::default()
            },
        );
        let t0 = std::time::Instant::now();
        let fault = u.run_epoch(Arc::new(())).expect_err("stalled epoch");
        assert_eq!(fault.kind, crate::fault::FaultKind::Stall);
        assert_eq!(fault.rank, 0);
        assert!(
            fault.payload.contains("watchdog"),
            "payload: {}",
            fault.payload
        );
        // The fault surfaces well before the sleeping compute ends —
        // that is the whole point of the watchdog.
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(550),
            "watchdog fired too late: {:?}",
            t0.elapsed()
        );
        u.shutdown();
    }

    /// A program that re-activates itself with a self-stream `left`
    /// times, ~1 ms of compute per round on a single worker: the
    /// worker delivers the stream itself and never runs dry, so a
    /// report — work only — reaches the master, parked, once per
    /// report-flush window of rounds.
    struct Ticker {
        id: ProgramId,
        left: u32,
        pending: bool,
    }

    impl PatchProgram for Ticker {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {
            self.pending = true;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if !std::mem::take(&mut self.pending) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.left -= 1;
            ctx.work_done = 1;
            if self.left > 0 {
                ctx.send(Stream {
                    src: self.id,
                    dst: self.id,
                    payload: Bytes::new(),
                });
            }
        }
        fn vote_to_halt(&self) -> bool {
            !self.pending
        }
        fn remaining_work(&self) -> u64 {
            u64::from(self.left)
        }
    }

    struct TickerFactory {
        rounds: u32,
    }

    impl ProgramFactory for TickerFactory {
        type Program = Ticker;
        fn create(&self, id: ProgramId) -> Ticker {
            Ticker {
                id,
                left: self.rounds,
                pending: true,
            }
        }
        fn programs_on_rank(&self, _rank: usize) -> Vec<ProgramId> {
            vec![ProgramId::new(PatchId(0), TaskTag(0))]
        }
        fn rank_of(&self, _id: ProgramId) -> usize {
            0
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            u64::from(self.rounds)
        }
    }

    /// A program that takes `left` rounds of ~1 ms to halt and never
    /// tells the master anything: no stream, no work, no report.
    struct Mute {
        left: u32,
    }

    impl PatchProgram for Mute {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {}
        fn compute(&mut self, _ctx: &mut ComputeCtx) {
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.left -= 1;
        }
        fn vote_to_halt(&self) -> bool {
            self.left == 0
        }
        fn remaining_work(&self) -> u64 {
            0
        }
    }

    struct MuteFactory {
        rounds: u32,
    }

    impl ProgramFactory for MuteFactory {
        type Program = Mute;
        fn create(&self, _id: ProgramId) -> Mute {
            Mute { left: self.rounds }
        }
        fn programs_on_rank(&self, _rank: usize) -> Vec<ProgramId> {
            vec![ProgramId::new(PatchId(0), TaskTag(0))]
        }
        fn rank_of(&self, _id: ProgramId) -> usize {
            0
        }
        fn priority(&self, _id: ProgramId) -> i64 {
            0
        }
        fn initial_workload(&self, _id: ProgramId) -> u64 {
            0
        }
    }

    /// Regression: a worker that finishes claim batches is making
    /// progress whether or not anything reaches the master. Three
    /// deadlines of computes that report nothing — what a worker fed
    /// by its own same-rank deliveries looks like from the master —
    /// must finish, not be declared stalled.
    #[test]
    fn watchdog_counts_finished_claim_batches_as_progress() {
        let deadline = std::time::Duration::from_millis(250);
        let rounds = 800;
        let mut u = Universe::launch(
            1,
            Arc::new(MuteFactory { rounds }),
            RuntimeConfig {
                num_workers: 1,
                // Safra: with no work to count, counting would declare
                // termination at once and leave the drive loop — and
                // its watchdog — for the quiesce wait.
                termination: TerminationKind::Safra,
                watchdog: Some(deadline),
                ..Default::default()
            },
        );
        let t0 = std::time::Instant::now();
        let stats = u
            .run_epoch(Arc::new(()))
            .expect("a worker that keeps finishing batches is not stalled");
        assert!(t0.elapsed() >= 3 * deadline, "epoch too short to tell");
        assert_eq!(stats[0].compute_calls, u64::from(rounds));
        u.shutdown();
    }

    /// Regression: a report the master receives while parked is
    /// progress. A fleet that reports steadily for three deadlines —
    /// no compute call anywhere near one — must finish, not be
    /// declared stalled.
    #[test]
    fn watchdog_counts_reports_received_while_parked_as_progress() {
        let deadline = std::time::Duration::from_millis(250);
        let rounds = 800;
        let mut u = Universe::launch(
            1,
            Arc::new(TickerFactory { rounds }),
            RuntimeConfig {
                num_workers: 1,
                watchdog: Some(deadline),
                ..Default::default()
            },
        );
        let t0 = std::time::Instant::now();
        let stats = u
            .run_epoch(Arc::new(()))
            .expect("steady reports must not trip the watchdog");
        assert!(t0.elapsed() >= 3 * deadline, "epoch too short to tell");
        assert_eq!(stats[0].work_done, u64::from(rounds));
        u.shutdown();
    }
}
