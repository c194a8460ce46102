//! Data-plane microbenchmarks: pool contention (sharded,
//! batch-delivery pool vs the pre-PR single-mutex pool) and the
//! frame codec (aggregated multi-stream frames vs one message per
//! stream).
//!
//! Besides the usual timing printout, this bench writes a machine-
//! readable baseline to `BENCH_data_plane.json` at the workspace root
//! so perf regressions are visible across PRs. `cargo bench -- --test`
//! runs everything in quick smoke mode.

use criterion::{black_box, Criterion};
use jsweep_core::pool::Pool;
use jsweep_core::program::{pack_frame, pack_stream, unpack_frame, unpack_stream};
use jsweep_core::{PatchProgram, ProgramId, Stream, TaskTag};
use jsweep_mesh::PatchId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

struct Nop;
impl PatchProgram for Nop {
    fn init(&mut self) {}
    fn input(&mut self, _src: ProgramId, _payload: Bytes) {}
    fn compute(&mut self, _ctx: &mut jsweep_core::ComputeCtx) {}
    fn vote_to_halt(&self) -> bool {
        true
    }
    fn remaining_work(&self) -> u64 {
        0
    }
}

/// The pre-PR pool, kept verbatim as the contention baseline: one
/// global `Mutex<BinaryHeap>` ready queue, one lock round-trip per
/// delivered stream.
mod single_mutex {
    use super::Nop;
    use bytes::Bytes;
    use jsweep_core::{PatchProgram, ProgramId, Stream};
    use parking_lot::{Condvar, Mutex};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    #[derive(PartialEq, Eq, Clone, Copy)]
    enum SlotState {
        Idle,
        Ready,
        Running,
    }

    struct Slot {
        state: SlotState,
        pending: Vec<(ProgramId, Bytes)>,
        program: Option<Box<dyn PatchProgram>>,
        priority: i64,
    }

    pub struct Claim {
        pub id: ProgramId,
        pub pending: Vec<(ProgramId, Bytes)>,
    }

    struct Inner {
        slots: HashMap<ProgramId, Slot>,
        ready: BinaryHeap<(i64, Reverse<ProgramId>)>,
        stop: bool,
    }

    pub struct SingleMutexPool {
        inner: Mutex<Inner>,
        cv: Condvar,
    }

    impl SingleMutexPool {
        pub fn new() -> SingleMutexPool {
            SingleMutexPool {
                inner: Mutex::new(Inner {
                    slots: HashMap::new(),
                    ready: BinaryHeap::new(),
                    stop: false,
                }),
                cv: Condvar::new(),
            }
        }

        pub fn deliver(&self, stream: Stream, priority: i64) {
            let mut g = self.inner.lock();
            let slot = g.slots.entry(stream.dst).or_insert(Slot {
                state: SlotState::Idle,
                pending: Vec::new(),
                program: None,
                priority,
            });
            slot.pending.push((stream.src, stream.payload));
            if slot.state == SlotState::Idle {
                slot.state = SlotState::Ready;
                let prio = slot.priority;
                g.ready.push((prio, Reverse(stream.dst)));
                drop(g);
                self.cv.notify_one();
            }
        }

        pub fn take(&self) -> Option<Claim> {
            let mut g = self.inner.lock();
            loop {
                if let Some((_, Reverse(id))) = g.ready.pop() {
                    let slot = g.slots.get_mut(&id).unwrap();
                    slot.state = SlotState::Running;
                    return Some(Claim {
                        id,
                        pending: std::mem::take(&mut slot.pending),
                    });
                }
                if g.stop {
                    return None;
                }
                self.cv.wait(&mut g);
            }
        }

        pub fn finish(&self, id: ProgramId, halted: bool) {
            let mut g = self.inner.lock();
            let slot = g.slots.get_mut(&id).unwrap();
            slot.program = Some(Box::new(Nop));
            if !halted || !slot.pending.is_empty() {
                slot.state = SlotState::Ready;
                let prio = slot.priority;
                g.ready.push((prio, Reverse(id)));
                drop(g);
                self.cv.notify_one();
            } else {
                slot.state = SlotState::Idle;
            }
        }

        pub fn stop(&self) {
            self.inner.lock().stop = true;
            self.cv.notify_all();
        }
    }
}

/// Max streams in flight between producers and workers (flow
/// control, mirroring the engine's bounded drain rounds).
const FLOW_WINDOW: u64 = 512;

fn mk_stream(tag: u64, programs: u32, payload: &Bytes) -> (Stream, i64) {
    (
        Stream {
            src: ProgramId::new(PatchId(u32::MAX), TaskTag(0)),
            dst: ProgramId::new(PatchId((tag % u64::from(programs)) as u32), TaskTag(0)),
            // One shared allocation: cheap-clone handles, so the bench
            // times pool operations rather than allocator traffic.
            payload: payload.clone(),
        },
        (tag % 7) as i64,
    )
}

struct ContentionScenario {
    workers: usize,
    producers: usize,
    programs: u32,
    batch: usize,
    batches: usize,
}

impl ContentionScenario {
    fn total(&self) -> u64 {
        (self.producers * self.batch * self.batches) as u64
    }

    /// One disjoint batch sequence per producer thread.
    fn producer_batches(&self, p: usize) -> Vec<Vec<(Stream, i64)>> {
        let base = p * self.batches * self.batch;
        let payload = Bytes::from(vec![0u8; 8]);
        (0..self.batches)
            .map(|b| {
                (0..self.batch)
                    .map(|k| mk_stream((base + b * self.batch + k) as u64, self.programs, &payload))
                    .collect()
            })
            .collect()
    }
}

/// Drive the sharded pool: `producers` deliverer threads (the master
/// role) delivering whole batches + `workers` takers racing
/// take/finish. A first untimed pass registers every program (§III-A
/// startup) so the timed pass measures steady-state scatter delivery.
/// Returns wall seconds for the timed pass.
fn run_sharded(sc: &ContentionScenario) -> f64 {
    let pool = Arc::new(Pool::new(sc.workers));
    let consumed = Arc::new(AtomicU64::new(0));
    let mut takers = Vec::new();
    for w in 0..sc.workers {
        let pool = pool.clone();
        let consumed = consumed.clone();
        takers.push(std::thread::spawn(move || {
            let mut claims = Vec::new();
            let mut finishes = Vec::new();
            while pool.take_batch(w, 8, &mut claims) > 0 {
                let mut n = 0;
                for claim in claims.drain(..) {
                    let mut pending = claim.pending;
                    n += pending.len() as u64;
                    pending.clear();
                    finishes.push(jsweep_core::pool::FinishEntry {
                        id: claim.id,
                        program: Box::new(Nop),
                        halted: true,
                        scratch: pending,
                    });
                }
                pool.finish_batch(&mut finishes);
                consumed.fetch_add(n, Ordering::SeqCst);
            }
        }));
    }
    let delivered = Arc::new(AtomicU64::new(0));
    let mut wall = 0.0;
    for pass in 0..2 {
        let work: Vec<_> = (0..sc.producers).map(|p| sc.producer_batches(p)).collect();
        let t0 = Instant::now();
        let producers: Vec<_> = work
            .into_iter()
            .map(|batches| {
                let pool = pool.clone();
                let delivered = delivered.clone();
                let consumed = consumed.clone();
                std::thread::spawn(move || {
                    for batch in batches {
                        let n = batch.len() as u64;
                        // Flow control: keep a bounded number of
                        // streams in flight so the bench measures
                        // sustained producer/worker concurrency, not a
                        // burst-then-drain artifact.
                        while delivered
                            .load(Ordering::SeqCst)
                            .saturating_sub(consumed.load(Ordering::SeqCst))
                            > FLOW_WINDOW
                        {
                            std::thread::yield_now();
                        }
                        pool.deliver_batch(batch);
                        delivered.fetch_add(n, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        while consumed.load(Ordering::SeqCst) < sc.total() * (pass + 1) {
            std::thread::yield_now();
        }
        wall = t0.elapsed().as_secs_f64();
    }
    pool.stop();
    for h in takers {
        h.join().unwrap();
    }
    wall
}

/// Same workload against the pre-PR pool: per-stream delivery, one
/// global lock. Warmup/timed passes mirror [`run_sharded`].
fn run_single_mutex(sc: &ContentionScenario) -> f64 {
    let pool = Arc::new(single_mutex::SingleMutexPool::new());
    let consumed = Arc::new(AtomicU64::new(0));
    let mut takers = Vec::new();
    for _ in 0..sc.workers {
        let pool = pool.clone();
        let consumed = consumed.clone();
        takers.push(std::thread::spawn(move || {
            while let Some(claim) = pool.take() {
                let n = claim.pending.len() as u64;
                pool.finish(claim.id, true);
                consumed.fetch_add(n, Ordering::SeqCst);
            }
        }));
    }
    let delivered = Arc::new(AtomicU64::new(0));
    let mut wall = 0.0;
    for pass in 0..2 {
        let work: Vec<_> = (0..sc.producers).map(|p| sc.producer_batches(p)).collect();
        let t0 = Instant::now();
        let producers: Vec<_> = work
            .into_iter()
            .map(|batches| {
                let pool = pool.clone();
                let delivered = delivered.clone();
                let consumed = consumed.clone();
                std::thread::spawn(move || {
                    for batch in batches {
                        let n = batch.len() as u64;
                        while delivered
                            .load(Ordering::SeqCst)
                            .saturating_sub(consumed.load(Ordering::SeqCst))
                            > FLOW_WINDOW
                        {
                            std::thread::yield_now();
                        }
                        for (stream, prio) in batch {
                            pool.deliver(stream, prio);
                        }
                        delivered.fetch_add(n, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        while consumed.load(Ordering::SeqCst) < sc.total() * (pass + 1) {
            std::thread::yield_now();
        }
        wall = t0.elapsed().as_secs_f64();
    }
    pool.stop();
    for h in takers {
        h.join().unwrap();
    }
    wall
}

fn best_of<F: FnMut() -> f64>(runs: usize, mut f: F) -> f64 {
    (0..runs).map(|_| f()).fold(f64::INFINITY, f64::min)
}

struct CodecNumbers {
    pack_frame_ns: f64,
    pack_stream_ns: f64,
    unpack_frame_ns: f64,
    unpack_stream_ns: f64,
}

fn measure_codec(streams_per_frame: usize, payload: usize, iters: usize) -> CodecNumbers {
    let body = Bytes::from(vec![0u8; payload]);
    let streams: Vec<Stream> = (0..streams_per_frame)
        .map(|k| mk_stream(k as u64, 1024, &body).0)
        .collect();
    let per = |total: Duration| total.as_secs_f64() * 1e9 / (iters * streams_per_frame) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(pack_frame(black_box(&streams)));
    }
    let pack_frame_ns = per(t0.elapsed());

    let t0 = Instant::now();
    for _ in 0..iters {
        for s in &streams {
            black_box(pack_stream(black_box(s)));
        }
    }
    let pack_stream_ns = per(t0.elapsed());

    let frame = pack_frame(&streams);
    let singles: Vec<Bytes> = streams.iter().map(pack_stream).collect();

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(unpack_frame(black_box(frame.clone())));
    }
    let unpack_frame_ns = per(t0.elapsed());

    let t0 = Instant::now();
    for _ in 0..iters {
        for s in &singles {
            black_box(unpack_stream(black_box(s.clone())));
        }
    }
    let unpack_stream_ns = per(t0.elapsed());

    CodecNumbers {
        pack_frame_ns,
        pack_stream_ns,
        unpack_frame_ns,
        unpack_stream_ns,
    }
}

fn bench_codec_criterion(c: &mut Criterion, streams_per_frame: usize, payload: usize) {
    let body = Bytes::from(vec![0u8; payload]);
    let streams: Vec<Stream> = (0..streams_per_frame)
        .map(|k| mk_stream(k as u64, 1024, &body).0)
        .collect();
    c.bench_function(
        &format!("frame_codec_pack_{streams_per_frame}x{payload}B"),
        |b| b.iter(|| black_box(pack_frame(black_box(&streams)))),
    );
    let frame = pack_frame(&streams);
    c.bench_function(
        &format!("frame_codec_unpack_{streams_per_frame}x{payload}B"),
        |b| b.iter(|| black_box(unpack_frame(black_box(frame.clone())))),
    );
    c.bench_function(&format!("stream_codec_pack_unpack_{payload}B"), |b| {
        let s = &streams[0];
        b.iter(|| black_box(unpack_stream(pack_stream(black_box(s)))))
    });
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");

    // --- Pool contention: ≥4 workers hammering take/finish while the
    // master delivers. Same stream sequence through both pools.
    let sc = if test_mode {
        ContentionScenario {
            workers: 4,
            producers: 2,
            programs: 64,
            batch: 16,
            batches: 8,
        }
    } else {
        ContentionScenario {
            workers: 4,
            producers: 2,
            programs: 4096,
            batch: 64,
            batches: 200,
        }
    };
    let runs = if test_mode { 1 } else { 5 };
    let sharded = best_of(runs, || run_sharded(&sc));
    let single = best_of(runs, || run_single_mutex(&sc));
    let total = sc.total() as f64;
    let speedup = single / sharded;
    println!(
        "pool_contention_sharded_4w           time: {:>10.1} ns/stream  ({:.2} Mstreams/s)",
        sharded * 1e9 / total,
        total / sharded / 1e6
    );
    println!(
        "pool_contention_single_mutex_4w      time: {:>10.1} ns/stream  ({:.2} Mstreams/s)",
        single * 1e9 / total,
        total / single / 1e6
    );
    println!("pool_contention speedup (single-mutex / sharded): {speedup:.2}x");

    // --- Frame codec.
    let (spf, payload) = (64, 32);
    let codec = measure_codec(spf, payload, if test_mode { 2 } else { 4000 });
    let mut c = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_millis(500));
    bench_codec_criterion(&mut c, spf, payload);

    // --- Machine-readable baseline at the workspace root.
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"data_plane\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"pool_contention\": {{\n",
            "    \"workers\": {workers},\n",
            "    \"programs\": {programs},\n",
            "    \"streams\": {streams},\n",
            "    \"batch_size\": {batch},\n",
            "    \"sharded_wall_seconds\": {sharded:.6},\n",
            "    \"sharded_streams_per_sec\": {sharded_tput:.0},\n",
            "    \"single_mutex_wall_seconds\": {single:.6},\n",
            "    \"single_mutex_streams_per_sec\": {single_tput:.0},\n",
            "    \"speedup\": {speedup:.3}\n",
            "  }},\n",
            "  \"frame_codec\": {{\n",
            "    \"streams_per_frame\": {spf},\n",
            "    \"payload_bytes\": {payload},\n",
            "    \"pack_frame_ns_per_stream\": {pf:.1},\n",
            "    \"pack_stream_ns_per_stream\": {ps:.1},\n",
            "    \"unpack_frame_ns_per_stream\": {uf:.1},\n",
            "    \"unpack_stream_ns_per_stream\": {us:.1},\n",
            "    \"pack_speedup\": {pspd:.3},\n",
            "    \"unpack_speedup\": {uspd:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        mode = if test_mode { "test" } else { "full" },
        workers = sc.workers,
        programs = sc.programs,
        streams = sc.total(),
        batch = sc.batch,
        sharded = sharded,
        sharded_tput = total / sharded,
        single = single,
        single_tput = total / single,
        speedup = speedup,
        spf = spf,
        payload = payload,
        pf = codec.pack_frame_ns,
        ps = codec.pack_stream_ns,
        uf = codec.unpack_frame_ns,
        us = codec.unpack_stream_ns,
        pspd = codec.pack_stream_ns / codec.pack_frame_ns,
        uspd = codec.unpack_stream_ns / codec.unpack_frame_ns,
    );
    if test_mode {
        // Smoke numbers are not a baseline; leave the committed one.
        println!("test mode: baseline JSON not rewritten");
    } else {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_data_plane.json");
        std::fs::write(&out, json).expect("write BENCH_data_plane.json");
        println!("baseline written to {}", out.display());
    }
}
