//! The shared active-program pool of one rank.
//!
//! Holds every local patch-program's state machine (Fig. 7): a program
//! is `Idle` (inactive), `Ready` (active, queued by priority) or
//! `Running` (claimed by a worker). Stream delivery reactivates idle
//! programs.
//!
//! A slot's priority is fixed when the slot is created (from
//! [`crate::ProgramFactory::priority`], constant per program), so each
//! shard's heap holds **exactly one entry per `Ready` slot**: a slot is
//! pushed on Idle/Running → Ready and popped on Ready → Running, and
//! nothing else touches the heap.
//!
//! The ready queue is **sharded**: programs hash to one of `S` shards
//! (one per worker by construction in the engine), each with its own
//! lock and priority heap. A worker drains its own shard first and
//! **steals** from the others when it runs dry, so workers stop
//! contending on a single `Mutex<BinaryHeap>` while no worker ever sits
//! idle while an active program exists on the rank. Priority order is
//! exact within a shard and approximate across shards — the same
//! trade the paper's per-worker task queues make against the
//! lightest-worker ideal.
//!
//! Delivery is **batched**: [`Pool::deliver_batch`] buckets a whole
//! batch — a worker's same-rank streams of one claim batch, or the
//! master's incoming frame — by shard and enqueues each bucket under
//! one lock acquisition, so `k` streams cost at most `S` lock
//! round-trips instead of `k`.
//!
//! The pool also keeps each worker's **books** (`WorkerBooks`: time
//! breakdown, compute calls, same-rank streams, last-activity stamp),
//! one slot per worker. A worker posts a claim batch's books *before*
//! it finishes the batch, and a program counts as active until it is
//! finished, so [`Pool::is_quiet`] implies every worker's books are
//! complete: the rank closes an epoch by waiting for quiet and reading
//! the slots.
//!
//! A pool built `Pool::with_bell` rings its rank's
//! [`Doorbell`] whenever the master has something new to look at: a
//! worker handed it a report (`release_report`), or the pool
//! went quiet. The master parks on that bell alone, so Safra's idle
//! check still runs on the wake that found nothing.

use crate::program::{EpochInput, IdMap, PatchProgram, ProgramId, Stream};
use crate::stats::Breakdown;
use bytes::Bytes;
use jsweep_comm::Doorbell;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Idle,
    Ready,
    Running,
    /// The program panicked mid-claim and was discarded
    /// ([`Pool::discard`]). Deliveries are swallowed, the slot is
    /// never claimable again, and it does not count as active —
    /// poisoned state only lives until the faulted universe is
    /// relaunched or shut down.
    Poisoned,
}

struct Slot {
    state: SlotState,
    pending: Vec<(ProgramId, Bytes)>,
    program: Option<Box<dyn PatchProgram>>,
    /// Fixed at creation: the heap entry of a `Ready` slot carries it.
    priority: i64,
}

impl Slot {
    fn new(priority: i64) -> Slot {
        Slot {
            state: SlotState::Idle,
            pending: Vec::new(),
            program: None,
            priority,
        }
    }
}

/// One program's return to the pool, for [`Pool::finish_batch`].
pub struct FinishEntry {
    /// Program identity (from its [`Claim`]).
    pub id: ProgramId,
    /// The program instance, back from the worker.
    pub program: Box<dyn PatchProgram>,
    /// The program's `vote_to_halt()` after this round.
    pub halted: bool,
    /// The drained `Claim::pending` buffer; its capacity is recycled
    /// into the slot so the next deliveries don't allocate.
    pub scratch: Vec<(ProgramId, Bytes)>,
}

/// What one worker has booked since the rank last took its books: the
/// single path from a worker thread to [`crate::RunStats`].
#[derive(Default)]
pub(crate) struct WorkerBooks {
    /// Stopwatch time of every claim batch posted so far.
    pub(crate) bd: Breakdown,
    /// Compute calls of those batches.
    pub(crate) compute_calls: u64,
    /// Same-rank streams those batches delivered.
    pub(crate) streams_local: u64,
    /// When the worker last posted (`None`: never). Survives the
    /// rank's take: the epoch's drain tail and the watchdog's progress
    /// check and stalest-worker pick are all measured from it.
    pub(crate) last_activity: Option<Instant>,
}

impl WorkerBooks {
    /// Post one claim batch — its stopwatch time, its compute calls
    /// and the same-rank streams it delivered — stamped now.
    pub(crate) fn post(&mut self, bd: &Breakdown, compute_calls: u64, streams_local: u64) {
        self.bd.merge(bd);
        self.compute_calls += compute_calls;
        self.streams_local += streams_local;
        self.last_activity = Some(Instant::now());
    }
}

/// A claimed program, handed to a worker by [`Pool::take_batch`].
pub struct Claim {
    /// Program identity.
    pub id: ProgramId,
    /// The program instance (`None` on first activation — the worker
    /// creates it via the factory, resets and inits it).
    pub program: Option<Box<dyn PatchProgram>>,
    /// Streams delivered since the last run.
    pub pending: Vec<(ProgramId, Bytes)>,
}

struct Shard {
    slots: IdMap<Slot>,
    /// Max-heap on (priority, lowest program id): exactly one entry
    /// per `Ready` slot of the shard (module docs).
    heap: BinaryHeap<(i64, Reverse<ProgramId>)>,
}

/// One shard plus its lock-free occupancy signal.
struct ShardCell {
    shard: Mutex<Shard>,
    /// `Ready` slots in this shard — lets steal scans skip empty
    /// shards without touching their locks.
    ready: AtomicUsize,
}

/// Shared per-rank program pool (sharded; see module docs).
pub struct Pool {
    shards: Vec<ShardCell>,
    /// Slots currently `Ready` across all shards (= heap entries).
    ready: AtomicUsize,
    /// `Ready` + `Running` slots.
    active: AtomicUsize,
    /// Worker report batches holding outputs, work or faults not yet
    /// handed to the master. Counted so [`Pool::is_quiet`] cannot
    /// report quiescence while a worker still buffers undelivered
    /// streams (that would let the Safra detector terminate early).
    held_reports: AtomicUsize,
    /// Workers blocked in [`Pool::take_batch`]. Publishers skip the sleep
    /// lock + notify entirely while this is zero (the common case on a
    /// busy rank).
    sleepers: AtomicUsize,
    /// The current epoch's input: a worker that lazily creates a
    /// program resets it with this before first use, so a program that
    /// materialises mid-epoch sees the same epoch state as the
    /// resident ones re-armed at the fence. `()` until the first epoch
    /// publishes its own.
    epoch_input: Mutex<Arc<EpochInput>>,
    /// One slot of books per worker.
    books: Vec<Mutex<WorkerBooks>>,
    stop: AtomicBool,
    /// Sleep coordination: a sleeper registers in `sleepers` and
    /// re-checks `ready`/`stop` under this lock before waiting;
    /// publishers bump `ready` first and notify under the same lock,
    /// so no wakeup can be lost.
    sleep: Mutex<()>,
    cv: Condvar,
    /// The rank's wake source (module docs); none in a bare pool.
    bell: Option<Arc<Doorbell>>,
}

impl Pool {
    /// Empty pool with `num_shards` ready-queue shards (the engine
    /// passes one per worker; `0` is clamped to `1`).
    pub fn new(num_shards: usize) -> Pool {
        Pool::build(num_shards, None)
    }

    /// [`Pool::new`] that rings `bell` for the master (module docs).
    pub(crate) fn with_bell(num_shards: usize, bell: Arc<Doorbell>) -> Pool {
        Pool::build(num_shards, Some(bell))
    }

    fn build(num_shards: usize, bell: Option<Arc<Doorbell>>) -> Pool {
        let n = num_shards.max(1);
        Pool {
            shards: (0..n)
                .map(|_| ShardCell {
                    shard: Mutex::new(Shard {
                        slots: IdMap::default(),
                        heap: BinaryHeap::new(),
                    }),
                    ready: AtomicUsize::new(0),
                })
                .collect(),
            ready: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            held_reports: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            epoch_input: Mutex::new(Arc::new(())),
            books: (0..n).map(|_| Mutex::default()).collect(),
            stop: AtomicBool::new(false),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            bell,
        }
    }

    fn ring(&self) {
        if let Some(bell) = &self.bell {
            bell.ring();
        }
    }

    /// Ring the master if the pool is quiet; call after `active`
    /// dropped to zero. [`Pool::release_report`] rings unconditionally,
    /// so the busy → quiet transition rings whichever of `active` and
    /// `held_reports` reaches zero last (SeqCst: the later one sees
    /// the earlier).
    fn ring_if_quiet(&self) {
        if self.is_quiet() {
            self.ring();
        }
    }

    /// Publish the epoch input lazily-created programs are reset
    /// with. Called by the rank before each epoch's activation.
    pub(crate) fn set_epoch_input(&self, input: Arc<EpochInput>) {
        *self.epoch_input.lock() = input;
    }

    /// The current epoch's input (see [`Pool::set_epoch_input`]).
    pub(crate) fn epoch_input(&self) -> Arc<EpochInput> {
        self.epoch_input.lock().clone()
    }

    /// Epoch-boundary reset of a quiescent pool: hand every resident
    /// program to `f` (for its [`PatchProgram::reset`]). Panics if any slot is
    /// still `Ready`/`Running` or holds undelivered streams — calling
    /// this mid-epoch is a runtime bug.
    pub(crate) fn reset_epoch(&self, mut f: impl FnMut(ProgramId, &mut dyn PatchProgram)) {
        assert!(self.is_quiet(), "epoch reset on a non-quiescent pool");
        for cell in &self.shards {
            let mut g = cell.shard.lock();
            assert!(g.heap.is_empty(), "heap entries on a quiescent pool");
            // Poisoned slots (only reachable here if a caller ignored
            // a fault and reset anyway) are dead weight: drop them.
            g.slots.retain(|_, slot| slot.state != SlotState::Poisoned);
            for (&id, slot) in g.slots.iter_mut() {
                assert_eq!(
                    slot.state,
                    SlotState::Idle,
                    "program {id:?} not idle at epoch boundary"
                );
                assert!(
                    slot.pending.is_empty(),
                    "program {id:?} holds undelivered streams at epoch boundary"
                );
                if let Some(p) = slot.program.as_mut() {
                    f(id, p.as_mut());
                }
            }
        }
    }

    /// `worker`'s books (module docs): posted before the batch's
    /// [`Pool::finish_batch`], taken after [`Pool::is_quiet`].
    pub(crate) fn books(&self, worker: usize) -> MutexGuard<'_, WorkerBooks> {
        self.books[worker].lock()
    }

    fn shard_of(&self, id: ProgramId) -> usize {
        let key = (u64::from(id.patch.0) << 32) | u64::from(id.task.0);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    /// Account `newly` Idle→Ready transitions (whose `ready` counters
    /// were already bumped under their shard locks) and wake sleeping
    /// workers. `ready` must be incremented while the shard lock is
    /// held: a claimer can only decrement after popping the entry
    /// under that same lock, so the counter can never transiently
    /// underflow (and wrap) no matter how the publisher is scheduled.
    fn publish_ready(&self, newly: usize) {
        if newly == 0 {
            return;
        }
        self.active.fetch_add(newly, Ordering::SeqCst);
        self.wake(newly);
    }

    /// Bump both ready counters for shard `s`; call with the shard
    /// lock held (see [`Pool::publish_ready`]).
    fn add_ready(&self, s: usize, n: usize) {
        if n > 0 {
            self.shards[s].ready.fetch_add(n, Ordering::SeqCst);
            self.ready.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Wake sleepers for `n` new items. Publishers bump `ready` before
    /// calling this; a sleeper registers in `sleepers` *before* its
    /// final `ready` re-check (both SeqCst), so reading `sleepers == 0`
    /// here proves any concurrent sleeper will still see our update and
    /// skip the wait — the notify can be elided.
    fn wake(&self, n: usize) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.sleep.lock();
        if n == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    /// Register and activate a program at its factory priority
    /// (initial activation: per §III-A all patch-programs start
    /// active). An idle program is queued; a `Ready` one is queued
    /// already, a `Running` one re-queues on finish and a `Poisoned`
    /// one never runs again, so for those this changes nothing.
    pub fn activate(&self, id: ProgramId, priority: i64) {
        let s = self.shard_of(id);
        let newly = {
            let mut g = self.shards[s].shard.lock();
            let slot = g.slots.entry(id).or_insert_with(|| Slot::new(priority));
            debug_assert_eq!(slot.priority, priority, "priority of {id:?} changed");
            if slot.state == SlotState::Idle {
                slot.state = SlotState::Ready;
                g.heap.push((priority, Reverse(id)));
                self.add_ready(s, 1);
                1
            } else {
                0
            }
        };
        self.publish_ready(newly);
    }

    /// Remove a claimed program after a contained panic: its slot
    /// becomes `SlotState::Poisoned` — undeliverable, unclaimable —
    /// and stops counting as active, so the pool can still quiesce
    /// around the loss. Pending streams it accumulated while running
    /// are dropped with it. The caller (the worker that caught the
    /// unwind) owns no program instance any more; the poisoned slot
    /// survives only until the faulted universe is relaunched.
    pub(crate) fn discard(&self, id: ProgramId) {
        let s = self.shard_of(id);
        {
            let mut g = self.shards[s].shard.lock();
            let slot = g.slots.get_mut(&id).expect("discarding unknown program");
            debug_assert_eq!(slot.state, SlotState::Running, "discard outside a claim");
            slot.state = SlotState::Poisoned;
            slot.program = None;
            slot.pending.clear();
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.ring_if_quiet();
        }
    }

    fn deliver_into(g: &mut Shard, stream: Stream, priority: i64) -> usize {
        let slot = g
            .slots
            .entry(stream.dst)
            .or_insert_with(|| Slot::new(priority));
        if slot.state == SlotState::Poisoned {
            // Streams to a discarded program are dropped: the epoch is
            // already poisoned and nothing may observe its torn state.
            return 0;
        }
        slot.pending.push((stream.src, stream.payload));
        if slot.state == SlotState::Idle {
            slot.state = SlotState::Ready;
            let prio = slot.priority;
            g.heap.push((prio, Reverse(stream.dst)));
            1
        } else {
            0
        }
    }

    /// Deliver a batch of streams, locking each touched shard exactly
    /// once (the pool half of §II communication aggregation),
    /// reactivating idle targets. A stream's `priority` is used when
    /// its target was never registered (a worker's delivery races
    /// ahead of the master's startup activation loop).
    ///
    /// Per-destination delivery order follows the batch's order. One
    /// `Vec` collects the batch; shards are then served by in-place
    /// scans, so the steady-state path does no per-shard allocation.
    pub fn deliver_batch<I>(&self, batch: I)
    where
        I: IntoIterator<Item = (Stream, i64)>,
    {
        let mut items: Vec<Option<(Stream, i64)>> = batch.into_iter().map(Some).collect();
        if items.is_empty() {
            return;
        }
        let n = self.shards.len();
        let mut newly = 0;
        for s in 0..n {
            let mut guard = None;
            let mut shard_newly = 0;
            for item in items.iter_mut() {
                let belongs = item
                    .as_ref()
                    .is_some_and(|(stream, _)| self.shard_of(stream.dst) == s);
                if !belongs {
                    continue;
                }
                let (stream, prio) = item.take().expect("checked above");
                let g = guard.get_or_insert_with(|| self.shards[s].shard.lock());
                shard_newly += Self::deliver_into(g, stream, prio);
            }
            if guard.is_some() {
                self.add_ready(s, shard_newly);
                newly += shard_newly;
            }
        }
        self.publish_ready(newly);
    }

    /// Pop the shard's best heap entry — a `Ready` slot — into a claim.
    fn pop_claim(g: &mut Shard) -> Option<Claim> {
        let (_, Reverse(id)) = g.heap.pop()?;
        let slot = g.slots.get_mut(&id).expect("heap entry has a slot");
        debug_assert_eq!(slot.state, SlotState::Ready, "heap entry for {id:?}");
        slot.state = SlotState::Running;
        Some(Claim {
            id,
            program: slot.program.take(),
            pending: std::mem::take(&mut slot.pending),
        })
    }

    /// Claim up to `max` programs from shard `s` under one lock
    /// acquisition; returns how many were taken.
    fn take_from_shard_batch(&self, s: usize, max: usize, out: &mut Vec<Claim>) -> usize {
        let cell = &self.shards[s];
        let mut g = cell.shard.lock();
        let mut got = 0;
        while got < max {
            match Self::pop_claim(&mut g) {
                Some(claim) => {
                    out.push(claim);
                    got += 1;
                }
                None => break,
            }
        }
        if got > 0 {
            cell.ready.fetch_sub(got, Ordering::SeqCst);
            self.ready.fetch_sub(got, Ordering::SeqCst);
        }
        got
    }

    /// Non-blocking batched claim: pops up to `max` ready programs
    /// (priority order within their shard) under one lock acquisition
    /// per visited shard — `worker`'s own shard first, then stealing
    /// from the others, skipping empty shards by their occupancy signal
    /// without touching their locks — appending to `out`: the
    /// worker-side counterpart of [`Pool::deliver_batch`]. Returns how
    /// many claims were appended.
    ///
    /// The batch is additionally capped at a fair share of what is
    /// ready (`ready / shards`), so when few heavy programs are
    /// active, workers still get one each instead of one worker
    /// hoarding the whole queue; deep queues batch fully.
    pub fn try_take_batch(&self, worker: usize, max: usize, out: &mut Vec<Claim>) -> usize {
        let ready = self.ready.load(Ordering::SeqCst);
        // A stopped pool hands out nothing, even with programs still
        // ready: healthy shutdown only happens quiesced (nothing is
        // ready), so this path abandons work exactly when an epoch
        // faulted mid-flight — where a never-halting program would
        // otherwise be re-claimed forever and wedge the join.
        if ready == 0 || self.stop.load(Ordering::SeqCst) {
            return 0;
        }
        let n = self.shards.len();
        let max = max.min((ready / n).max(1));
        let mut got = 0;
        for i in 0..n {
            if got >= max {
                break;
            }
            let s = (worker + i) % n;
            if self.shards[s].ready.load(Ordering::SeqCst) == 0 {
                continue;
            }
            got += self.take_from_shard_batch(s, max - got, out);
        }
        got
    }

    /// Blocking [`Pool::try_take_batch`]: waits until at least one
    /// program is claimed, or the pool stops with the queues drained
    /// (returning 0). The caller's stopwatch books the wait.
    pub fn take_batch(&self, worker: usize, max: usize, out: &mut Vec<Claim>) -> usize {
        loop {
            let got = self.try_take_batch(worker, max, out);
            if got > 0 {
                return got;
            }
            let mut g = self.sleep.lock();
            // Register as a sleeper *before* the final re-check:
            // publishers bump `ready` and then look at `sleepers`, so
            // either they see us (and notify) or we see their update
            // here (and skip the wait).
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // Stop wins over ready: once stopped, `try_take_batch`
            // refuses to hand out the abandoned ready work, so looping
            // on `ready > 0` would spin forever.
            if self.stop.load(Ordering::SeqCst) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return 0;
            }
            if self.ready.load(Ordering::SeqCst) > 0 {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(g);
                continue;
            }
            self.cv.wait(&mut g);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Apply one finish under an already-held shard guard; returns
    /// whether the program was re-queued.
    fn finish_into(g: &mut Shard, e: FinishEntry) -> bool {
        let slot = g.slots.get_mut(&e.id).expect("finishing unknown program");
        debug_assert_eq!(slot.state, SlotState::Running);
        slot.program = Some(e.program);
        if slot.pending.is_empty() && e.scratch.capacity() > slot.pending.capacity() {
            slot.pending = e.scratch;
        }
        if !e.halted || !slot.pending.is_empty() {
            slot.state = SlotState::Ready;
            let prio = slot.priority;
            g.heap.push((prio, Reverse(e.id)));
            true
        } else {
            slot.state = SlotState::Idle;
            false
        }
    }

    /// Return a whole batch of programs after their compute rounds,
    /// locking each run of same-shard entries once (the worker-side
    /// counterpart of [`Pool::deliver_batch`] on the way out).
    /// Entries are drained; `entries` keeps its capacity.
    pub fn finish_batch(&self, entries: &mut Vec<FinishEntry>) {
        let mut requeued = 0;
        let mut idled = 0;
        let mut held: Option<(usize, parking_lot::MutexGuard<'_, Shard>)> = None;
        for e in entries.drain(..) {
            let s = self.shard_of(e.id);
            if held.as_ref().map(|(cur, _)| *cur) != Some(s) {
                // Release before acquiring a different shard's lock:
                // holding two shard locks at once would let workers
                // whose batches visit shards in different rotation
                // orders deadlock (ABBA).
                drop(held.take());
                held = Some((s, self.shards[s].shard.lock()));
            }
            let (_, g) = held.as_mut().expect("guard set above");
            if Self::finish_into(g, e) {
                self.add_ready(s, 1);
                requeued += 1;
            } else {
                idled += 1;
            }
        }
        drop(held);
        if requeued > 0 {
            // Running -> Ready: already counted active; `ready` was
            // bumped per entry under the shard locks.
            self.wake(requeued);
        }
        if idled > 0 && self.active.fetch_sub(idled, Ordering::SeqCst) == idled {
            self.ring_if_quiet();
        }
    }

    /// A worker buffered a report (outputs, work or a fault not yet
    /// sent to the master). Must be called *before* the producing
    /// program's [`Pool::finish_batch`], so quiescence is never visible
    /// while streams sit in a worker-local batch.
    pub(crate) fn hold_report(&self) {
        self.held_reports.fetch_add(1, Ordering::SeqCst);
    }

    /// The buffered report left the worker (sent to the master): ring
    /// the master, which has it to read.
    pub(crate) fn release_report(&self) {
        self.held_reports.fetch_sub(1, Ordering::SeqCst);
        self.ring();
    }

    /// True when no program is ready or running and no worker holds a
    /// buffered report (the rank is quiescent apart from possible
    /// in-flight messages).
    pub fn is_quiet(&self) -> bool {
        self.active.load(Ordering::SeqCst) == 0 && self.held_reports.load(Ordering::SeqCst) == 0
    }

    /// Wake all workers and make further `take_batch` calls return 0.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _g = self.sleep.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ComputeCtx, TaskTag};
    use jsweep_mesh::PatchId;

    struct Nop;
    impl PatchProgram for Nop {
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

    fn pid(p: u32, t: u32) -> ProgramId {
        ProgramId::new(PatchId(p), TaskTag(t))
    }

    /// Blocking claim of one program (`None` once the pool stopped).
    fn take_one(pool: &Pool, worker: usize) -> Option<Claim> {
        let mut one = Vec::with_capacity(1);
        pool.take_batch(worker, 1, &mut one);
        one.pop()
    }

    /// Non-blocking claim of one program.
    fn try_one(pool: &Pool, worker: usize) -> Option<Claim> {
        let mut one = Vec::with_capacity(1);
        pool.try_take_batch(worker, 1, &mut one);
        one.pop()
    }

    /// Hand one claimed program back as a fresh `Nop`.
    fn finish_one(pool: &Pool, id: ProgramId, halted: bool) {
        pool.finish_batch(&mut vec![FinishEntry {
            id,
            program: Box::new(Nop),
            halted,
            scratch: Vec::new(),
        }]);
    }

    fn stream_to(dst: ProgramId) -> Stream {
        Stream {
            src: pid(999, 0),
            dst,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn take_returns_highest_priority_first() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 1);
        pool.activate(pid(1, 0), 10);
        pool.activate(pid(2, 0), 5);
        let a = take_one(&pool, 0).unwrap();
        assert_eq!(a.id, pid(1, 0));
        finish_one(&pool, a.id, true);
        let b = take_one(&pool, 0).unwrap();
        assert_eq!(b.id, pid(2, 0));
    }

    #[test]
    fn tie_break_lowest_program_id() {
        let pool = Pool::new(1);
        pool.activate(pid(7, 1), 3);
        pool.activate(pid(7, 0), 3);
        assert_eq!(take_one(&pool, 0).unwrap().id, pid(7, 0));
    }

    #[test]
    fn deliver_reactivates_idle_program() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        let claim = take_one(&pool, 0).unwrap();
        finish_one(&pool, claim.id, true); // halts -> idle
        assert!(pool.is_quiet());
        pool.deliver_batch([(stream_to(pid(0, 0)), 0)]);
        assert!(!pool.is_quiet());
        let again = take_one(&pool, 0).unwrap();
        assert_eq!(again.id, pid(0, 0));
        assert_eq!(again.pending.len(), 1);
        assert!(again.program.is_some());
    }

    #[test]
    fn deliver_during_running_requeues_on_finish() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        let claim = take_one(&pool, 0).unwrap();
        // Stream arrives while the program is running.
        pool.deliver_batch([(stream_to(pid(0, 0)), 0)]);
        finish_one(&pool, claim.id, true);
        // Despite voting to halt, the pending stream keeps it active.
        assert!(!pool.is_quiet());
        let again = take_one(&pool, 0).unwrap();
        assert_eq!(again.pending.len(), 1);
    }

    #[test]
    fn non_halting_program_requeues() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        let claim = take_one(&pool, 0).unwrap();
        finish_one(&pool, claim.id, false);
        assert!(!pool.is_quiet());
    }

    #[test]
    fn stop_unblocks_takers() {
        let pool = std::sync::Arc::new(Pool::new(2));
        let p2 = pool.clone();
        let h = std::thread::spawn(move || take_one(&p2, 0).is_none());
        std::thread::sleep(std::time::Duration::from_millis(10));
        pool.stop();
        assert!(h.join().unwrap());
    }

    #[test]
    fn activate_is_idempotent_while_ready() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        pool.activate(pid(0, 0), 0);
        let claim = take_one(&pool, 0).unwrap();
        finish_one(&pool, claim.id, true);
        assert!(pool.is_quiet(), "double activation corrupted the queue");
    }

    /// Heap entries, `Ready` slots and the `ready` counter, each
    /// summed over the shards.
    fn queue_counts(pool: &Pool) -> (usize, usize, usize) {
        let (mut heap, mut ready) = (0, 0);
        for cell in &pool.shards {
            let g = cell.shard.lock();
            heap += g.heap.len();
            ready += g
                .slots
                .values()
                .filter(|s| s.state == SlotState::Ready)
                .count();
        }
        (heap, ready, pool.ready.load(Ordering::SeqCst))
    }

    /// The queue is exact: one heap entry per `Ready` slot after every
    /// step — a delivery ahead of `activate`, `activate` on a `Ready`
    /// and on a `Running` slot, a re-queue through `finish_batch` — and
    /// claims leave in priority order.
    #[test]
    fn heap_holds_exactly_one_entry_per_ready_slot() {
        let pool = Pool::new(1);
        let exact = |step: &str| {
            let (heap, ready, counter) = queue_counts(&pool);
            assert_eq!((heap, counter), (ready, ready), "{step}");
        };
        let (a, b, c) = (pid(0, 0), pid(1, 0), pid(2, 0));
        pool.deliver_batch([(stream_to(a), 5)]);
        exact("delivery registers a at its priority");
        pool.activate(a, 5);
        exact("activate on a Ready slot");
        pool.activate(b, 7);
        pool.activate(c, 1);
        exact("activate on idle slots");
        let first = try_one(&pool, 0).unwrap();
        assert_eq!(first.id, b);
        pool.activate(b, 7);
        exact("activate on a Running slot");
        pool.deliver_batch([(stream_to(b), 7)]);
        finish_one(&pool, b, true);
        exact("finish re-queues b for its pending stream");
        let mut order = Vec::new();
        while let Some(claim) = try_one(&pool, 0) {
            order.push(claim.id);
            exact("claim");
            finish_one(&pool, claim.id, true);
            exact("finish to idle");
        }
        assert_eq!(order, vec![b, a, c]);
        assert!(pool.is_quiet());
    }

    #[test]
    fn deliver_batch_locks_per_shard_and_activates_all() {
        let pool = Pool::new(4);
        let batch: Vec<(Stream, i64)> = (0..32u32).map(|p| (stream_to(pid(p, 0)), 0)).collect();
        pool.deliver_batch(batch);
        let mut seen = 0;
        while try_one(&pool, 0).is_some() {
            seen += 1;
        }
        // Claimed but never finished: all 32 are Running.
        assert_eq!(seen, 32);
        assert!(!pool.is_quiet());
    }

    #[test]
    fn worker_steals_from_other_shards() {
        let pool = Pool::new(4);
        for p in 0..16u32 {
            pool.activate(pid(p, 0), 0);
        }
        // A single worker (index 0) must drain every shard.
        let mut drained = 0;
        while let Some(claim) = try_one(&pool, 0) {
            finish_one(&pool, claim.id, true);
            drained += 1;
        }
        assert_eq!(drained, 16);
        assert!(pool.is_quiet());
    }

    /// Regression: `finish_batch` once held a shard lock while
    /// acquiring the next shard's lock, so two workers whose batches
    /// visited shards in opposite rotation orders (worker 0 claims
    /// shard 0 first, worker 1 claims shard 1 first — exactly what
    /// `try_take_batch` produces) could deadlock ABBA-style.
    #[test]
    fn finish_batch_cross_shard_orders_do_not_deadlock() {
        let pool = std::sync::Arc::new(Pool::new(2));
        for p in 0..32u32 {
            pool.activate(pid(p, 0), 0);
        }
        let mut threads = Vec::new();
        for w in 0..2 {
            let pool = pool.clone();
            threads.push(std::thread::spawn(move || {
                let mut claims = Vec::new();
                let mut finishes = Vec::new();
                // halted=false keeps everything requeued: sustained
                // cross-shard finish batches from both directions.
                for _ in 0..3000 {
                    if pool.try_take_batch(w, 8, &mut claims) == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    for claim in claims.drain(..) {
                        finishes.push(FinishEntry {
                            id: claim.id,
                            program: Box::new(Nop),
                            halted: false,
                            scratch: Vec::new(),
                        });
                    }
                    pool.finish_batch(&mut finishes);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(!pool.is_quiet(), "programs stay active (halted=false)");
    }

    #[test]
    fn discard_poisons_slot_and_keeps_quiescence_consistent() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        let claim = try_one(&pool, 0).unwrap();
        assert!(!pool.is_quiet());
        pool.discard(claim.id);
        assert!(pool.is_quiet(), "discarded program must not count active");
        // Deliveries and re-activations to a poisoned slot are
        // swallowed: the program can never run again.
        pool.deliver_batch([(stream_to(pid(0, 0)), 0)]);
        pool.activate(pid(0, 0), 0);
        assert!(pool.is_quiet());
        assert!(try_one(&pool, 0).is_none());
        // An epoch reset drops the poisoned slot entirely.
        pool.reset_epoch(|id, _| panic!("poisoned slot {id:?} visited"));
    }

    #[test]
    fn held_reports_defer_quiescence() {
        let pool = Pool::new(1);
        assert!(pool.is_quiet());
        pool.hold_report();
        assert!(!pool.is_quiet(), "held worker outputs must block quiet");
        pool.release_report();
        assert!(pool.is_quiet());
    }

    #[test]
    fn reset_epoch_visits_residents() {
        let pool = Pool::new(2);
        pool.activate(pid(0, 0), 1);
        pool.activate(pid(1, 0), 2);
        while let Some(c) = try_one(&pool, 0) {
            finish_one(&pool, c.id, true);
        }
        assert!(pool.is_quiet());
        let mut seen = Vec::new();
        pool.reset_epoch(|id, _| seen.push(id));
        seen.sort_unstable();
        assert_eq!(seen, vec![pid(0, 0), pid(1, 0)]);
        // The pool still schedules correctly after the reset.
        pool.activate(pid(0, 0), 1);
        let again = take_one(&pool, 0).unwrap();
        assert_eq!(again.id, pid(0, 0));
        assert!(
            again.program.is_some(),
            "resident program lost its instance"
        );
    }

    #[test]
    #[should_panic(expected = "non-quiescent")]
    fn reset_epoch_rejects_running_programs() {
        let pool = Pool::new(1);
        pool.activate(pid(0, 0), 0);
        let _claim = try_one(&pool, 0).unwrap(); // leaves the slot Running
        pool.reset_epoch(|_, _| {});
    }

    #[test]
    fn epoch_input_round_trips_through_the_pool() {
        let pool = Pool::new(1);
        pool.set_epoch_input(std::sync::Arc::new(17u64));
        let got = pool.epoch_input();
        assert_eq!(*got.downcast_ref::<u64>().unwrap(), 17);
    }

    /// The books-before-finish invariant, driven by hand the way
    /// `worker_loop` drives it: a batch that carries no outputs, work
    /// or fault holds nothing, so the pool is quiet the moment the
    /// batch is finished — and everything booked before that finish is
    /// what the take after `is_quiet()` returns.
    #[test]
    fn books_posted_before_finish_are_complete_at_quiet() {
        let pool = Pool::new(2);
        for p in 0..6u32 {
            pool.activate(pid(p, 0), 0);
        }
        let mut one_second = Breakdown::default();
        one_second.add(crate::stats::Category::Kernel, 1.0);
        let mut posted = [0u64; 2];
        for round in 0..3 {
            for (w, posted) in posted.iter_mut().enumerate() {
                let Some(claim) = try_one(&pool, w) else {
                    continue;
                };
                pool.books(w).post(&one_second, 1, 0);
                *posted += 1;
                assert!(!pool.is_quiet(), "round {round}: claim still running");
                finish_one(&pool, claim.id, true);
            }
        }
        assert!(pool.is_quiet(), "no report was held, so finishing is quiet");
        assert_eq!(posted.iter().sum::<u64>(), 6);
        for (w, &posted) in posted.iter().enumerate() {
            let mut b = pool.books(w);
            let (bd, calls) = (
                std::mem::take(&mut b.bd),
                std::mem::take(&mut b.compute_calls),
            );
            assert_eq!(calls, posted, "worker {w}");
            assert_eq!(bd.get(crate::stats::Category::Kernel), posted as f64);
            assert!(b.last_activity.is_some(), "the stamp survives the take");
            assert_eq!(b.bd, Breakdown::default(), "the take drains");
        }
    }

    #[test]
    fn shard_mapping_is_stable_and_in_range() {
        let pool = Pool::new(3);
        for p in 0..100u32 {
            let a = pool.shard_of(pid(p, 1));
            let b = pool.shard_of(pid(p, 1));
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }
}
