//! Observability for the JSweep runtime: lock-free span tracing and a
//! Chrome-trace exporter. Numbers live elsewhere (`RunStats`,
//! `SessionStats`); this crate records *when* things happened.
//!
//! The design goal is the same zero-cost-when-off discipline as the
//! `fault-inject` hooks: consumers compile this crate in only behind
//! the `telemetry` cargo feature of `jsweep-core`, and even then every
//! recording call first checks one runtime atomic (**arming**) — a
//! built-but-unarmed [`Telemetry`] costs one relaxed load per hook.
//!
//! * [`Telemetry`] — the process-wide handle: arming switch, shared
//!   monotonic clock and the set of recorded lanes;
//! * [`Recorder`] — one thread's writer onto its own [`SpanRing`]
//!   lane (single-writer, wait-free push);
//! * [`EventKind`] / [`Event`] — the typed event taxonomy;
//! * [`chrome`] — Chrome trace-event JSON export (Perfetto-loadable).

#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod ring;

pub use chrome::TraceEvent;
pub use event::{Event, EventKind, EVENT_KINDS};
pub use ring::SpanRing;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `rank` claimed by the process-wide driver lane (events recorded
/// through [`Telemetry::global_span`] / [`Telemetry::global_instant`]
/// from threads that are not part of any rank, e.g. a session driver).
pub const GLOBAL_RANK: u32 = u32::MAX;

/// Default per-lane ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// One recorded lane: a `(rank, lane)` identity plus its ring.
struct Lane {
    rank: u32,
    lane: u32,
    ring: SpanRing,
}

/// A drained copy of one lane, for exporters and tests.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Owning rank (or [`GLOBAL_RANK`]).
    pub rank: u32,
    /// Lane within the rank: 0 = master, `w + 1` = worker `w`.
    pub lane: u32,
    /// Events lost to ring wrap-around on this lane.
    pub dropped: u64,
    /// Held events, oldest first.
    pub events: Vec<Event>,
}

/// The process-wide telemetry handle (see the [module docs](self)).
///
/// Construction does not start recording: call [`Telemetry::arm`]
/// first. Disarmed, every recording hook is one relaxed atomic load.
pub struct Telemetry {
    armed: AtomicBool,
    origin: Instant,
    ring_capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// The shared driver lane for sporadic events from threads that
    /// own no lane; writes serialise on this lock (cold paths only).
    global: Mutex<Arc<Lane>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Telemetry with the default per-lane ring capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Telemetry whose lanes hold `capacity` events each (rounded up
    /// to a power of two).
    pub fn with_ring_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            armed: AtomicBool::new(false),
            origin: Instant::now(),
            ring_capacity: capacity,
            lanes: Mutex::new(Vec::new()),
            global: Mutex::new(Arc::new(Lane {
                rank: GLOBAL_RANK,
                lane: 0,
                ring: SpanRing::new(capacity),
            })),
        }
    }

    /// Start recording. Hooks observe this with a relaxed load, so
    /// events begin appearing "soon" on already-running threads.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stop recording (already-recorded events stay exportable).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Nanoseconds elapsed on this telemetry's shared monotonic clock.
    pub fn now_nanos(&self) -> u64 {
        self.nanos_at(Instant::now())
    }

    /// `t` on the shared clock: nanoseconds since this telemetry's
    /// origin (0 for a reading that predates it).
    fn nanos_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Register a new lane and hand out its single-writer recorder.
    /// Call once per thread per launch; re-registering the same
    /// `(rank, lane)` (e.g. after a universe relaunch) starts a fresh
    /// ring whose events merge into the same exported timeline.
    pub fn recorder(self: &Arc<Self>, rank: u32, lane: u32) -> Recorder {
        let l = Arc::new(Lane {
            rank,
            lane,
            ring: SpanRing::new(self.ring_capacity),
        });
        self.lanes.lock().unwrap().push(l.clone());
        Recorder {
            shared: self.clone(),
            lane: l,
        }
    }

    /// Record the durational event `[t0, t1]` on the shared driver
    /// lane (cold paths from threads that own no lane; writes
    /// serialise on a lock). No-op while disarmed.
    pub fn global_span(&self, kind: EventKind, t0: Instant, t1: Instant, a: u64, b: u64) {
        if !self.is_armed() {
            return;
        }
        let (t0, t1) = (self.nanos_at(t0), self.nanos_at(t1));
        let g = self.global.lock().unwrap();
        g.ring.push(Event { kind, t0, t1, a, b });
    }

    /// Record an instant event on the shared driver lane.
    pub fn global_instant(&self, kind: EventKind, a: u64, b: u64) {
        if !self.is_armed() {
            return;
        }
        let t = self.now_nanos();
        let g = self.global.lock().unwrap();
        g.ring.push(Event {
            kind,
            t0: t,
            t1: t,
            a,
            b,
        });
    }

    /// Snapshot every lane's currently held events (the global driver
    /// lane included, when non-empty).
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        let mut out: Vec<LaneSnapshot> = self
            .lanes
            .lock()
            .unwrap()
            .iter()
            .map(|l| LaneSnapshot {
                rank: l.rank,
                lane: l.lane,
                dropped: l.ring.dropped(),
                events: l.ring.snapshot(),
            })
            .collect();
        let g = self.global.lock().unwrap();
        if g.ring.pushed() > 0 {
            out.push(LaneSnapshot {
                rank: g.rank,
                lane: g.lane,
                dropped: g.ring.dropped(),
                events: g.ring.snapshot(),
            });
        }
        out
    }

    /// Snapshot and convert to sorted Chrome trace events.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        chrome::trace_events(&self.snapshot())
    }

    /// Snapshot and render the whole trace as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        chrome::to_json(&self.trace_events())
    }
}

/// One thread's writer onto its own lane. **Single writer**: a
/// recorder must not be shared across threads mid-use (it is `Send`,
/// so it can be *moved* to the thread that will write with it).
pub struct Recorder {
    shared: Arc<Telemetry>,
    lane: Arc<Lane>,
}

impl Recorder {
    /// Whether recording is currently armed (one relaxed load).
    #[inline]
    pub fn armed(&self) -> bool {
        self.shared.is_armed()
    }

    /// Record the durational event `[t0, t1]`: two clock readings the
    /// caller already took for its own accounting, converted against
    /// the shared origin here so every lane stays comparable. No-op
    /// while disarmed.
    #[inline]
    pub fn span(&self, kind: EventKind, t0: Instant, t1: Instant, a: u64, b: u64) {
        if !self.armed() {
            return;
        }
        let (t0, t1) = (self.shared.nanos_at(t0), self.shared.nanos_at(t1));
        self.lane.ring.push(Event { kind, t0, t1, a, b });
    }

    /// Record an instant event (occurring now). No-op while disarmed.
    #[inline]
    pub fn instant(&self, kind: EventKind, a: u64, b: u64) {
        if !self.armed() {
            return;
        }
        let t = self.shared.now_nanos();
        self.lane.ring.push(Event {
            kind,
            t0: t,
            t1: t,
            a,
            b,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_records_nothing_and_armed_records() {
        let t = Arc::new(Telemetry::new());
        let rec = t.recorder(0, 1);
        let (t0, t1) = (Instant::now(), Instant::now());
        rec.span(EventKind::Compute, t0, t1, 1, 2);
        rec.instant(EventKind::Send, 3, 4);
        assert!(t.snapshot().iter().all(|l| l.events.is_empty()));

        t.arm();
        rec.span(EventKind::Compute, t0, t1, 1, 2);
        rec.instant(EventKind::Send, 3, 4);
        let lanes = t.snapshot();
        let lane = lanes.iter().find(|l| l.lane == 1).unwrap();
        assert_eq!(lane.events.len(), 2);
        assert_eq!(lane.events[0].kind, EventKind::Compute);
        assert_eq!(lane.events[1].kind, EventKind::Send);
        assert_eq!(lane.events[1].t0, lane.events[1].t1);
    }

    /// A span is exactly the two readings its caller took: the ring
    /// holds their distance to the nanosecond, whatever the origin.
    #[test]
    fn span_between_two_instants_keeps_their_distance() {
        let t = Arc::new(Telemetry::new());
        t.arm();
        let rec = t.recorder(0, 0);
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_nanos(12_345);
        rec.span(EventKind::Idle, t0, t1, 0, 0);
        let e = t.snapshot()[0].events[0];
        assert_eq!(e.t1 - e.t0, 12_345);
    }

    #[test]
    fn global_lane_collects_driver_events() {
        let t = Telemetry::new();
        t.arm();
        t.global_instant(EventKind::CacheMiss, 7, 0);
        let t0 = Instant::now();
        t.global_span(EventKind::PlanCompile, t0, Instant::now(), 7, 0);
        let lanes = t.snapshot();
        let g = lanes.iter().find(|l| l.rank == GLOBAL_RANK).unwrap();
        assert_eq!(g.events.len(), 2);
        assert_eq!(g.events[0].kind, EventKind::CacheMiss);
        assert_eq!(g.events[1].kind, EventKind::PlanCompile);
    }

    #[test]
    fn chrome_trace_end_to_end() {
        let t = Arc::new(Telemetry::new());
        t.arm();
        let rec = t.recorder(0, 1);
        let t0 = Instant::now();
        rec.span(EventKind::Compute, t0, Instant::now(), 5, 0);
        let json = t.chrome_trace();
        assert!(json.contains("\"compute\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn clock_is_monotone() {
        let t = Telemetry::new();
        let a = t.now_nanos();
        let b = t.now_nanos();
        assert!(b >= a);
    }
}
