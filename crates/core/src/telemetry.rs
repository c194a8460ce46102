//! Runtime telemetry integration: the zero-cost-when-off seam between
//! the engine and `jsweep-obs`.
//!
//! Same discipline as `fault-inject`: every hook is **defined once** —
//! one signature, one doc comment — and the `telemetry` cargo feature
//! gates the statement inside its body. With the feature **off** (the
//! default) [`TelemetryHandle`] and [`Recorder`] are empty structs
//! whose methods have empty bodies, `jsweep-obs` is not even built,
//! and the instrumented call sites compile to nothing. With the
//! feature **on**, hooks additionally gate on the runtime arming
//! atomic of the attached `jsweep_obs::Telemetry`: built-but-unarmed
//! telemetry costs one relaxed atomic load per hook.
//!
//! The engine threads one [`TelemetryHandle`] through
//! `RuntimeConfig`; every rank's master and workers obtain per-thread
//! [`Recorder`] lanes from it at launch, each owned by that thread's
//! stopwatch, which feeds it the clock readings it books into the
//! [`crate::Breakdown`]. See `docs/observability.md` for the event
//! taxonomy and the exporter format.

use crate::stats::Category;
use std::time::Instant;

#[cfg(feature = "telemetry")]
use std::sync::Arc;

/// Re-export of the observability crate (feature `telemetry` only),
/// so consumers reach `Telemetry` and its exporter without depending
/// on `jsweep-obs` directly.
#[cfg(feature = "telemetry")]
pub use jsweep_obs as obs;

/// Typed event kinds (re-exported from `jsweep-obs`).
#[cfg(feature = "telemetry")]
pub use jsweep_obs::EventKind;

/// Typed event kinds (inert stand-in for the kinds call sites name
/// while `jsweep-obs` is not built; the hooks taking them are empty).
#[cfg(not(feature = "telemetry"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EventKind {
    Epoch,
    Fence,
    Compute,
    PlanCompile,
    Send,
    Recv,
    Fault,
    CacheHit,
    CacheMiss,
}

/// A shareable reference to the process-wide telemetry (or to nothing:
/// the default handle is detached and records nowhere). Cloning is
/// cheap; every clone reaches the same `Telemetry`.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    #[cfg(feature = "telemetry")]
    inner: Option<Arc<jsweep_obs::Telemetry>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[cfg(feature = "telemetry")]
        if self.inner.is_some() {
            return f.write_str("TelemetryHandle(attached)");
        }
        f.write_str("TelemetryHandle(detached)")
    }
}

#[cfg_attr(not(feature = "telemetry"), allow(unused_variables))]
impl TelemetryHandle {
    /// Wrap a telemetry instance into a handle the runtime config can
    /// carry.
    #[cfg(feature = "telemetry")]
    pub fn attach(telemetry: Arc<jsweep_obs::Telemetry>) -> TelemetryHandle {
        TelemetryHandle {
            inner: Some(telemetry),
        }
    }

    /// Register a recording lane for one thread (`lane` 0 = master,
    /// `w + 1` = worker `w`) and hand out its single-writer recorder
    /// (inert while detached or compiled out).
    pub fn recorder(&self, rank: u32, lane: u32) -> Recorder {
        Recorder {
            #[cfg(feature = "telemetry")]
            inner: self.inner.as_ref().map(|t| t.recorder(rank, lane)),
        }
    }

    /// Record the durational event `[t0, t1]` on the shared driver
    /// lane (for threads that own no rank lane, e.g. a session driver
    /// compiling a plan).
    pub fn global_span(&self, kind: EventKind, t0: Instant, t1: Instant, a: u64, b: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(t) = self.inner.as_ref() {
            t.global_span(kind, t0, t1, a, b);
        }
    }

    /// Record an instant event on the shared driver lane.
    pub fn global_instant(&self, kind: EventKind, a: u64, b: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(t) = self.inner.as_ref() {
            t.global_instant(kind, a, b);
        }
    }
}

/// One thread's event writer (see `jsweep_obs::Recorder`). With the
/// `telemetry` feature off this is an empty struct whose methods
/// compile to nothing.
pub struct Recorder {
    #[cfg(feature = "telemetry")]
    inner: Option<jsweep_obs::Recorder>,
}

#[cfg_attr(not(feature = "telemetry"), allow(unused_variables))]
impl Recorder {
    /// Record the durational event `[t0, t1]` on this lane.
    #[inline]
    pub fn span(&self, kind: EventKind, t0: Instant, t1: Instant, a: u64, b: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(r) = self.inner.as_ref() {
            r.span(kind, t0, t1, a, b);
        }
    }

    /// Record `[t0, t1]` as a region the thread booked to `cat`: the
    /// span kind is the category (a directly booked `Kernel` or
    /// `GraphOp` region is a share of `Compute`). The per-claim worker
    /// categories stay `Breakdown`-only: their spans double a worker
    /// lane's volume (numbers in `docs/observability.md`).
    #[inline]
    pub fn region(&self, cat: Category, t0: Instant, t1: Instant) {
        #[cfg(feature = "telemetry")]
        {
            let kind = match cat {
                Category::Kernel | Category::GraphOp => EventKind::Compute,
                Category::Input | Category::Output | Category::Other => return,
                Category::Pack => EventKind::Pack,
                Category::Unpack => EventKind::Unpack,
                Category::Comm => EventKind::Comm,
                Category::Route => EventKind::Route,
                Category::Idle => EventKind::Idle,
            };
            self.span(kind, t0, t1, 0, 0);
        }
    }

    /// Record an instant event on this lane.
    #[inline]
    pub fn instant(&self, kind: EventKind, a: u64, b: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(r) = self.inner.as_ref() {
            r.instant(kind, a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_inert() {
        let h = TelemetryHandle::default();
        let rec = h.recorder(0, 0);
        let (t0, t1) = (Instant::now(), Instant::now());
        // All no-ops, must not panic.
        rec.span(EventKind::Compute, t0, t1, 0, 0);
        rec.region(Category::Idle, t0, t1);
        rec.instant(EventKind::Send, 0, 0);
        h.global_instant(EventKind::Fault, 0, 0);
        h.global_span(EventKind::PlanCompile, t0, t1, 0, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn attached_handle_records_when_armed() {
        let t = Arc::new(jsweep_obs::Telemetry::new());
        let h = TelemetryHandle::attach(t.clone());
        t.arm();
        let rec = h.recorder(3, 1);
        let (t0, t1) = (Instant::now(), Instant::now());
        rec.span(EventKind::Compute, t0, t1, 9, 0);
        rec.region(Category::Pack, t0, t1);
        h.global_instant(EventKind::CacheHit, 1, 0);
        let lanes = t.snapshot();
        let lane = lanes
            .iter()
            .find(|l| l.rank == 3 && l.lane == 1)
            .expect("lane registered");
        let kinds: Vec<_> = lane.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::Compute, EventKind::Pack]);
        assert!(lanes
            .iter()
            .any(|l| l.rank == jsweep_obs::GLOBAL_RANK && !l.events.is_empty()));
    }
}
