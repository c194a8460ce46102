//! The per-lane event store: a fixed-capacity, lock-free,
//! single-writer/any-reader span ring.
//!
//! Each runtime thread (one *lane*) owns exactly one writer; pushes are
//! wait-free (a handful of relaxed atomic stores plus two fences) and
//! never block or allocate, so recording is safe on the claim/compute
//! hot path. Readers snapshot concurrently through a per-slot seqlock:
//! a slot being overwritten while read is detected by its sequence
//! number and skipped, never torn. When the ring wraps, the oldest
//! events are overwritten — [`SpanRing::dropped`] says how many were
//! lost, so exporters can report truncation instead of hiding it.
//!
//! Every slot field is an individual atomic (no `UnsafeCell`), so a
//! racing read is at worst *stale*, never undefined behaviour.

use crate::event::{Event, EventKind};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One ring slot. `seq` is odd while a write is in flight and even
/// (two per generation) when the payload fields are consistent.
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    t0: AtomicU64,
    t1: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            t1: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity single-writer span ring (see the [module docs](self)).
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed; the ring holds the newest
    /// `min(head, capacity)` of them.
    head: AtomicU64,
    mask: u64,
}

impl SpanRing {
    /// Ring with room for `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(2).next_power_of_two();
        SpanRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Number of events the ring can hold before overwriting.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append one event. **Single writer**: only the lane-owning thread
    /// may call this; concurrent readers are always safe.
    pub fn push(&self, e: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        let s0 = slot.seq.load(Ordering::Relaxed);
        // Odd seq marks the write in flight; the release fence keeps it
        // ordered before the payload stores for any acquire reader.
        slot.seq.store(s0 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(e.kind as u64, Ordering::Relaxed);
        slot.t0.store(e.t0, Ordering::Relaxed);
        slot.t1.store(e.t1, Ordering::Relaxed);
        slot.a.store(e.a, Ordering::Relaxed);
        slot.b.store(e.b, Ordering::Relaxed);
        // Even again: payload consistent. Release pairs with the
        // reader's acquire load of `seq`.
        slot.seq.store(s0 + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Copy out the currently held events, oldest first. Safe against a
    /// concurrent writer: slots mid-overwrite are skipped (they will be
    /// newer events a later snapshot can still see), never torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let held = head.min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(held as usize);
        for i in (head - held)..head {
            let slot = &self.slots[(i & self.mask) as usize];
            // Bounded retries: under a racing writer the slot's content
            // is changing anyway — give up and skip rather than spin.
            for _ in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    continue;
                }
                let kind = slot.kind.load(Ordering::Relaxed);
                let t0 = slot.t0.load(Ordering::Relaxed);
                let t1 = slot.t1.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue;
                }
                if let Some(kind) = EventKind::from_u64(kind) {
                    out.push(Event { kind, t0, t1, a, b });
                }
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t0: u64) -> Event {
        Event {
            kind,
            t0,
            t1: t0 + 1,
            a: t0 * 10,
            b: t0 * 100,
        }
    }

    #[test]
    fn push_and_snapshot_round_trip_in_order() {
        let ring = SpanRing::new(8);
        for i in 1..=5 {
            ring.push(ev(EventKind::Compute, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.t0, i as u64 + 1);
            assert_eq!(e.a, (i as u64 + 1) * 10);
            assert_eq!(e.kind, EventKind::Compute);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wrap_keeps_newest_and_counts_dropped() {
        let ring = SpanRing::new(4);
        for i in 1..=10 {
            ring.push(ev(EventKind::Idle, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|e| e.t0).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpanRing::new(0).capacity(), 2);
        assert_eq!(SpanRing::new(3).capacity(), 4);
        assert_eq!(SpanRing::new(1000).capacity(), 1024);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_events() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::new(64));
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 1..=200_000u64 {
                    // Invariant per event: t1 = t0 + 1, a = t0 * 10.
                    ring.push(ev(EventKind::Send, i));
                }
            })
        };
        let mut seen = 0usize;
        while seen < 50 {
            for e in ring.snapshot() {
                assert_eq!(e.t1, e.t0 + 1, "torn read: t0/t1 mismatch");
                assert_eq!(e.a, e.t0 * 10, "torn read: t0/a mismatch");
                seen += 1;
            }
        }
        writer.join().unwrap();
        let after = ring.snapshot();
        assert_eq!(after.len(), 64);
        assert_eq!(after.last().unwrap().t0, 200_000);
    }
}
