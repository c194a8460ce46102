//! Stress and robustness tests: message storms through the simulated
//! MPI fabric, pool contention, termination under adversarial timing,
//! and machine-model sanity for the simulator.

use bytes::Bytes;
use jsweep::comm::termination::{Safra, Verdict};
use jsweep::comm::Universe;
use jsweep::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Launch a universe, run one epoch with no input, shut it down.
fn one_epoch<F: ProgramFactory>(
    ranks: usize,
    factory: Arc<F>,
    config: RuntimeConfig,
) -> Vec<jsweep::core::RunStats> {
    let mut universe = jsweep::core::Universe::launch(ranks, factory, config);
    let stats = universe.run_epoch(Arc::new(())).expect("epoch faulted");
    universe.shutdown();
    stats
}

/// Many ranks exchange a storm of randomly-addressed messages, each
/// forwarded a fixed number of hops; Safra must detect quiescence only
/// after every hop completes.
#[test]
fn safra_survives_message_storm() {
    const RANKS: usize = 5;
    const SEEDS_PER_RANK: u32 = 40;
    const HOPS: u32 = 6;
    let results = Universe::run(RANKS, |mut comm| {
        let mut safra = Safra::new(comm.rank(), comm.size());
        let mut hops_done = 0u64;
        // Seed messages carry a remaining-hop counter.
        for i in 0..SEEDS_PER_RANK {
            let to = (comm.rank() + 1 + i as usize) % comm.size();
            comm.send(to, 1, Bytes::copy_from_slice(&HOPS.to_le_bytes()))
                .unwrap();
            safra.on_send();
        }
        loop {
            while let Some(m) = comm.try_recv().unwrap() {
                match safra.on_message(&m, &comm).unwrap() {
                    Verdict::NotMine => {
                        safra.on_receive();
                        hops_done += 1;
                        let remaining = u32::from_le_bytes(m.payload[..4].try_into().unwrap());
                        if remaining > 1 {
                            // Pseudo-random forward based on content.
                            let to = (comm.rank() + remaining as usize) % comm.size();
                            comm.send(
                                to,
                                1,
                                Bytes::copy_from_slice(&(remaining - 1).to_le_bytes()),
                            )
                            .unwrap();
                            safra.on_send();
                        }
                    }
                    Verdict::Terminated => return hops_done,
                    Verdict::Continue => {}
                }
            }
            if safra.maybe_advance(true, &comm).unwrap() == Verdict::Terminated {
                return hops_done;
            }
            std::thread::yield_now();
        }
    });
    let total: u64 = results.iter().sum();
    assert_eq!(
        total,
        (RANKS as u64) * (SEEDS_PER_RANK as u64) * (HOPS as u64),
        "some hops were lost or termination fired early"
    );
}

/// A diamond-of-programs workload where one hot program receives
/// streams from many producers while workers contend for the pool.
#[test]
fn runtime_fan_in_under_contention() {
    use jsweep::core::{ComputeCtx, PatchProgram, ProgramFactory, RuntimeConfig};
    use parking_lot::Mutex;

    const PRODUCERS: u32 = 60;

    struct FanIn {
        id: ProgramId,
        received: u32,
        fired: bool,
        total: Arc<Mutex<u32>>,
    }
    impl PatchProgram for FanIn {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _p: Bytes) {
            self.received += 1;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.id.patch.0 < PRODUCERS {
                // Producer: send one stream to the sink, once.
                if !self.fired {
                    self.fired = true;
                    ctx.work_done = 1;
                    ctx.send(jsweep::core::Stream {
                        src: self.id,
                        dst: ProgramId::new(PatchId(PRODUCERS), TaskTag(0)),
                        payload: Bytes::new(),
                    });
                }
            } else {
                // Sink: account everything received so far.
                let mut t = self.total.lock();
                *t += self.received;
                ctx.work_done = self.received as u64;
                self.received = 0;
            }
        }
        fn vote_to_halt(&self) -> bool {
            self.received == 0
        }
        fn remaining_work(&self) -> u64 {
            0
        }
    }

    struct FanInFactory {
        ranks: usize,
        total: Arc<Mutex<u32>>,
    }
    impl ProgramFactory for FanInFactory {
        type Program = FanIn;
        fn create(&self, id: ProgramId) -> FanIn {
            FanIn {
                id,
                received: 0,
                fired: false,
                total: self.total.clone(),
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            (0..=PRODUCERS)
                .filter(|p| (*p as usize) % self.ranks == rank)
                .map(|p| ProgramId::new(PatchId(p), TaskTag(0)))
                .collect()
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            id.patch.0 as usize % self.ranks
        }
        fn priority(&self, id: ProgramId) -> i64 {
            // Adversarial: the sink has the lowest priority.
            -(i64::from(id.patch.0 == PRODUCERS))
        }
        fn initial_workload(&self, id: ProgramId) -> u64 {
            u64::from(id.patch.0 < PRODUCERS)
        }
    }

    for ranks in [1, 3] {
        let total = Arc::new(parking_lot::Mutex::new(0u32));
        let factory = Arc::new(FanInFactory {
            ranks,
            total: total.clone(),
        });
        let stats = one_epoch(
            ranks,
            factory,
            RuntimeConfig {
                num_workers: 4,
                termination: TerminationKind::Safra,
                ..Default::default()
            },
        );
        assert_eq!(*total.lock(), PRODUCERS, "ranks={ranks}");
        let work: u64 = stats.iter().map(|s| s.work_done).sum();
        assert_eq!(work, 2 * PRODUCERS as u64);
    }
}

/// Many threads race `deliver_batch` / `take_batch` / `finish_batch` on a sharded
/// pool: every delivered stream must be consumed exactly once — none
/// lost, none double-delivered.
#[test]
fn pool_deliver_batch_take_finish_race() {
    use jsweep::core::pool::{FinishEntry, Pool};
    use jsweep::core::{ComputeCtx, PatchProgram, Stream};
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    const PRODUCERS: u64 = 3;
    const BATCHES_PER_PRODUCER: u64 = 50;
    const STREAMS_PER_BATCH: u64 = 32;
    const PROGRAMS: u32 = 64;
    const WORKERS: usize = 4;
    const TOTAL: u64 = PRODUCERS * BATCHES_PER_PRODUCER * STREAMS_PER_BATCH;

    struct Sink;
    impl PatchProgram for Sink {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _payload: Bytes) {}
        fn compute(&mut self, _ctx: &mut ComputeCtx) {}
        fn vote_to_halt(&self) -> bool {
            true
        }
        fn remaining_work(&self) -> u64 {
            0
        }
    }

    let pool = Arc::new(Pool::new(WORKERS));
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let consumed = Arc::new(AtomicU64::new(0));

    let mut takers = Vec::new();
    for w in 0..WORKERS {
        let pool = pool.clone();
        let seen = seen.clone();
        let consumed = consumed.clone();
        takers.push(std::thread::spawn(move || {
            let mut claims = Vec::new();
            let mut finishes = Vec::new();
            while pool.take_batch(w, 1, &mut claims) > 0 {
                let mut n = 0;
                for claim in claims.drain(..) {
                    n += claim.pending.len() as u64;
                    let mut set = seen.lock();
                    for (_src, payload) in &claim.pending {
                        let tag = u64::from_le_bytes(payload[..8].try_into().unwrap());
                        assert!(set.insert(tag), "stream {tag} delivered twice");
                    }
                    finishes.push(FinishEntry {
                        id: claim.id,
                        program: Box::new(Sink),
                        halted: true,
                        scratch: Vec::new(),
                    });
                }
                pool.finish_batch(&mut finishes);
                consumed.fetch_add(n, Ordering::SeqCst);
            }
        }));
    }

    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let pool = pool.clone();
        producers.push(std::thread::spawn(move || {
            for b in 0..BATCHES_PER_PRODUCER {
                let batch: Vec<(Stream, i64)> = (0..STREAMS_PER_BATCH)
                    .map(|k| {
                        let tag = (p * BATCHES_PER_PRODUCER + b) * STREAMS_PER_BATCH + k;
                        (
                            Stream {
                                src: ProgramId::new(PatchId(u32::MAX), TaskTag(0)),
                                dst: ProgramId::new(
                                    PatchId((tag % u64::from(PROGRAMS)) as u32),
                                    TaskTag(0),
                                ),
                                payload: Bytes::copy_from_slice(&tag.to_le_bytes()),
                            },
                            (tag % 7) as i64,
                        )
                    })
                    .collect();
                pool.deliver_batch(batch);
            }
        }));
    }
    for h in producers {
        h.join().unwrap();
    }
    // Drain: all delivered streams must surface, then takers unblock.
    while consumed.load(Ordering::SeqCst) < TOTAL {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    pool.stop();
    for h in takers {
        h.join().unwrap();
    }
    assert_eq!(consumed.load(Ordering::SeqCst), TOTAL, "streams lost");
    assert_eq!(seen.lock().len(), TOTAL as usize);
    assert!(pool.is_quiet());
}

/// Frame accounting stays exact under a storm: summed per-rank
/// `streams_sent` must equal peers' `streams_received`, frames must
/// never exceed streams, and `bytes_sent` must match the wire format
/// byte-for-byte.
#[test]
fn runtime_frame_accounting_exact_across_ranks() {
    use jsweep::core::program::STREAM_WIRE_OVERHEAD;
    use jsweep::core::{ComputeCtx, PatchProgram, ProgramFactory, RuntimeConfig};

    const N: u32 = 120;
    const RANKS: usize = 3;
    const PAYLOAD: usize = 24;

    // Every program sends one fixed-size stream to the next N/4
    // programs (lots of same-destination-rank fan-out per compute).
    struct Fan {
        id: ProgramId,
        fired: bool,
        pending: u64,
    }
    impl PatchProgram for Fan {
        fn init(&mut self) {}
        fn input(&mut self, _src: ProgramId, _p: Bytes) {
            self.pending += 1;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            ctx.work_done = self.pending;
            self.pending = 0;
            if !self.fired {
                self.fired = true;
                for k in 1..=N / 4 {
                    let dst = self.id.patch.0 + k;
                    if dst < N {
                        ctx.send(jsweep::core::Stream {
                            src: self.id,
                            dst: ProgramId::new(PatchId(dst), TaskTag(0)),
                            payload: Bytes::from(vec![0u8; PAYLOAD]),
                        });
                    }
                }
            }
        }
        fn vote_to_halt(&self) -> bool {
            self.pending == 0
        }
        fn remaining_work(&self) -> u64 {
            self.pending
        }
    }
    struct FanFactory;
    impl ProgramFactory for FanFactory {
        type Program = Fan;
        fn create(&self, id: ProgramId) -> Fan {
            Fan {
                id,
                fired: false,
                pending: 0,
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            (0..N)
                .filter(|p| (*p as usize) % RANKS == rank)
                .map(|p| ProgramId::new(PatchId(p), TaskTag(0)))
                .collect()
        }
        fn rank_of(&self, id: ProgramId) -> usize {
            id.patch.0 as usize % RANKS
        }
        fn priority(&self, id: ProgramId) -> i64 {
            i64::from(id.patch.0)
        }
        fn initial_workload(&self, id: ProgramId) -> u64 {
            // Streams program `id` will receive: senders are the N/4
            // predecessors that exist.
            u64::from(id.patch.0.min(N / 4))
        }
    }

    let stats = one_epoch(
        RANKS,
        Arc::new(FanFactory),
        RuntimeConfig {
            num_workers: 2,
            termination: TerminationKind::Counting,
            ..Default::default()
        },
    );
    let sent: u64 = stats.iter().map(|s| s.streams_sent).sum();
    let received: u64 = stats.iter().map(|s| s.streams_received).sum();
    let frames_out: u64 = stats.iter().map(|s| s.frames_sent).sum();
    let frames_in: u64 = stats.iter().map(|s| s.frames_received).sum();
    let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    let local: u64 = stats.iter().map(|s| s.streams_local).sum();
    // Each program p<N sends one stream to each of the N/4 successors
    // that exist; streams either cross ranks or stay local.
    let total_streams: u64 = (0..N).map(|p| u64::from((N - 1 - p).min(N / 4))).sum();
    assert_eq!(sent + local, total_streams);
    assert_eq!(sent, received, "streams lost in flight");
    assert_eq!(frames_out, frames_in, "frames lost in flight");
    assert!(frames_out <= sent);
    assert!(frames_out >= 1);
    assert_eq!(
        bytes,
        sent * (STREAM_WIRE_OVERHEAD + PAYLOAD) as u64,
        "byte accounting must be exact regardless of framing"
    );
}

/// Machine-model sanity: the simulator must react monotonically to
/// resource changes.
#[test]
fn des_model_monotonicity() {
    let mesh = StructuredMesh::unit(12, 12, 12);
    let quad = QuadratureSet::sn(2);
    let patches = jsweep::mesh::partition::decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = SweepProblem::build(
        &mesh,
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    );
    let base = MachineModel::cluster(2, 4);
    let t_base = simulate(&prob, &base, &SimOptions::default()).time;

    // Slower kernel -> slower sweep.
    let mut slow_kernel = base.clone();
    slow_kernel.t_vertex *= 10.0;
    assert!(simulate(&prob, &slow_kernel, &SimOptions::default()).time > t_base);

    // Much higher latency -> slower sweep.
    let mut high_latency = base.clone();
    high_latency.latency *= 1000.0;
    assert!(simulate(&prob, &high_latency, &SimOptions::default()).time > t_base);

    // Much lower bandwidth -> slower sweep.
    let mut thin_pipe = base.clone();
    thin_pipe.bandwidth /= 1e6;
    assert!(simulate(&prob, &thin_pipe, &SimOptions::default()).time > t_base);

    // Zero-cost network -> no slower than the base.
    let mut free_net = base.clone();
    free_net.latency = 0.0;
    free_net.t_route = 0.0;
    free_net.t_pack_per_byte = 0.0;
    assert!(simulate(&prob, &free_net, &SimOptions::default()).time <= t_base);
}

/// The threaded runtime must survive thousands of tiny programs with
/// single-stream interactions (scheduler churn).
#[test]
fn runtime_many_tiny_programs() {
    use jsweep::core::{ComputeCtx, PatchProgram, ProgramFactory, RuntimeConfig};

    const N: u32 = 2000;

    struct Hop {
        id: ProgramId,
        go: bool,
        done: bool,
    }
    impl PatchProgram for Hop {
        fn init(&mut self) {
            self.go = self.id.patch.0 == 0;
        }
        fn input(&mut self, _src: ProgramId, _p: Bytes) {
            self.go = true;
        }
        fn compute(&mut self, ctx: &mut ComputeCtx) {
            if self.go && !self.done {
                self.done = true;
                ctx.work_done = 1;
                if self.id.patch.0 + 1 < N {
                    ctx.send(jsweep::core::Stream {
                        src: self.id,
                        dst: ProgramId::new(PatchId(self.id.patch.0 + 1), TaskTag(0)),
                        payload: Bytes::new(),
                    });
                }
            }
        }
        fn vote_to_halt(&self) -> bool {
            true
        }
        fn remaining_work(&self) -> u64 {
            u64::from(!self.done)
        }
    }
    struct HopFactory {
        ranks: usize,
    }
    impl ProgramFactory for HopFactory {
        type Program = Hop;
        fn create(&self, id: ProgramId) -> Hop {
            Hop {
                id,
                go: false,
                done: false,
            }
        }
        fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
            (0..N)
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

    let stats = one_epoch(
        4,
        Arc::new(HopFactory { ranks: 4 }),
        RuntimeConfig {
            num_workers: 2,
            termination: TerminationKind::Counting,
            ..Default::default()
        },
    );
    let total: u64 = stats.iter().map(|s| s.work_done).sum();
    assert_eq!(total, N as u64);
    // The chain crosses ranks at every hop (round-robin placement).
    let sent: u64 = stats.iter().map(|s| s.streams_sent).sum();
    assert_eq!(sent, (N - 1) as u64);
}

/// Round trips per epoch of the hop-latency tests below.
const TRIPS: u64 = 2_000;

/// One end of a cross-rank ping-pong: program 0 (rank 0) serves, both
/// return every ball they receive until [`TRIPS`] round trips are done.
struct Ball {
    me: u32,
    left: u64,
    inbox: u64,
    served: bool,
}

impl PatchProgram for Ball {
    fn init(&mut self) {}
    fn input(&mut self, _src: ProgramId, _payload: Bytes) {
        self.inbox += 1;
    }
    fn compute(&mut self, ctx: &mut jsweep::core::ComputeCtx) {
        let ball = Stream {
            src: ProgramId::new(PatchId(self.me), TaskTag(0)),
            dst: ProgramId::new(PatchId(1 - self.me), TaskTag(0)),
            payload: Bytes::new(),
        };
        if self.me == 0 && !self.served {
            self.served = true;
            ctx.send(ball.clone());
        }
        while self.inbox > 0 {
            self.inbox -= 1;
            self.left -= 1;
            ctx.work_done += 1;
            if !(self.me == 0 && self.left == 0) {
                ctx.send(ball.clone());
            }
        }
    }
    fn vote_to_halt(&self) -> bool {
        self.inbox == 0
    }
    fn remaining_work(&self) -> u64 {
        self.left
    }
    fn reset(&mut self, _epoch: &jsweep::core::EpochInput) {
        self.left = TRIPS;
        self.inbox = 0;
        self.served = false;
    }
}

struct BallFactory;

impl ProgramFactory for BallFactory {
    type Program = Ball;
    fn create(&self, id: ProgramId) -> Ball {
        Ball {
            me: id.patch.0,
            left: TRIPS,
            inbox: 0,
            served: false,
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
        TRIPS
    }
}

/// The fastest of up to five epochs of [`TRIPS`] cross-rank round
/// trips on two single-worker ranks over `kind`, watchdog on; it stops
/// at the first epoch under `bound`. Several tries, so one descheduled
/// stretch on a loaded box does not decide the reading.
fn fastest_ping_pong_epoch(kind: TransportKind, bound: Duration) -> Duration {
    let mut u = jsweep::core::Universe::launch_with_fabric(
        2,
        Arc::new(BallFactory),
        RuntimeConfig {
            num_workers: 1,
            watchdog: Some(Duration::from_secs(10)),
            ..Default::default()
        },
        jsweep::core::fabric_for(kind),
    );
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        let stats = u.run_epoch(Arc::new(())).expect("ping-pong epoch");
        best = best.min(t0.elapsed());
        let work: u64 = stats.iter().map(|s| s.work_done).sum();
        assert_eq!(work, 2 * TRIPS, "a ball was lost");
        if best < bound {
            break;
        }
    }
    u.shutdown();
    best
}

/// Hop latency is the fabric's, not a timer's. A master that parked on
/// a 200 µs tick paid one per hop: these 4 000 hops took 0.74 s. Woken
/// by the arriving frame they take ≈ 0.1 s (release) to 0.2 s (debug)
/// with the socket test running alongside on a 2-vCPU box.
#[test]
fn cross_rank_hops_wake_the_master_thread_fabric() {
    let bound = Duration::from_millis(500);
    let wall = fastest_ping_pong_epoch(TransportKind::Thread, bound);
    assert!(wall < bound, "{TRIPS} round trips took {wall:?}");
}

/// The same over the socket fabric, where the master sleeps in `poll`:
/// 0.76 s on the tick, 0.09–0.15 s (release) and ≈ 0.2 s (debug) on
/// the same box.
#[test]
fn cross_rank_hops_wake_the_master_socket_fabric() {
    let bound = Duration::from_millis(500);
    let wall = fastest_ping_pong_epoch(TransportKind::Socket, bound);
    assert!(wall < bound, "{TRIPS} round trips took {wall:?}");
}
