//! The typed event taxonomy every lane records.
//!
//! Durational kinds come in two sorts. **Region** kinds are time
//! categories of `jsweep_core::stats::Breakdown` under the same names:
//! a thread's stopwatch books a region's `[t0, t1]` into its
//! `Breakdown` and records that same pair as the span, so one lane's
//! spans of a kind sum to that thread's `Breakdown` entry. (The
//! per-claim worker categories `Input` / `Output` / `Other` are booked
//! only: see `docs/observability.md`.) **Structural** kinds (`Epoch`,
//! `Fence`, `Compute`, `PlanCompile`) book nothing themselves; they
//! bracket regions.

/// What a recorded event describes. Durational kinds carry a
/// `[t0, t1]` window; instant kinds carry only `t0` (`t1 == t0`).
///
/// The `a`/`b` payload words are kind-specific (see each variant);
/// region kinds carry none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// One `run_epoch` on one rank. `a` = epoch index on that rank,
    /// `b` = the request span id passed to `run_epoch_tuned`
    /// (0 when the epoch belongs to no tracked request).
    Epoch = 1,
    /// The epoch-boundary fence: the barriers (an `Idle` region) and
    /// the pool reset it brackets.
    Fence = 2,
    /// One patch-program `compute` call; its window is booked as
    /// `Kernel` (the share the program reported) plus `GraphOp` (the
    /// rest). `a` = patch id, `b` = task tag.
    Compute = 3,
    /// Compiling a coarse replay plan. `a` = mesh generation.
    PlanCompile = 4,
    /// Region: the master serialising one stream into its
    /// destination's outgoing frame (`frame_push`).
    Pack = 5,
    /// Region: the master decoding one incoming frame.
    Unpack = 6,
    /// Region: the master inside the transport — sending one frame
    /// or polling for a message.
    Comm = 7,
    /// Region: the master's route-table lookups and pool deliveries.
    Route = 8,
    /// Region: blocked with nothing to do — a worker waiting for a
    /// claim, the master parked, fencing or quiescing.
    Idle = 9,
    /// Instant: one frame handed to the transport. `a` = destination
    /// rank, `b` = payload bytes.
    Send = 10,
    /// Instant: one frame received from the transport. `a` = source
    /// rank, `b` = payload bytes.
    Recv = 11,
    /// Instant: a fault was observed (contained panic, stall, rank
    /// death). `a` = kind-specific word (e.g. blamed rank or patch).
    Fault = 12,
    /// Instant: a plan-cache lookup hit. `a` = mesh generation.
    CacheHit = 13,
    /// Instant: a plan-cache lookup missed. `a` = mesh generation.
    CacheMiss = 14,
}

/// Every kind, in taxonomy order.
pub const EVENT_KINDS: [EventKind; 14] = [
    EventKind::Epoch,
    EventKind::Fence,
    EventKind::Compute,
    EventKind::PlanCompile,
    EventKind::Pack,
    EventKind::Unpack,
    EventKind::Comm,
    EventKind::Route,
    EventKind::Idle,
    EventKind::Send,
    EventKind::Recv,
    EventKind::Fault,
    EventKind::CacheHit,
    EventKind::CacheMiss,
];

impl EventKind {
    /// Display / trace-event name (a region kind's is its `Breakdown`
    /// category's).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Epoch => "epoch",
            EventKind::Fence => "fence",
            EventKind::Compute => "compute",
            EventKind::PlanCompile => "plan-compile",
            EventKind::Pack => "pack",
            EventKind::Unpack => "unpack",
            EventKind::Comm => "comm",
            EventKind::Route => "route",
            EventKind::Idle => "idle",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Fault => "fault",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
        }
    }

    /// True for point-in-time kinds (no duration).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            EventKind::Send
                | EventKind::Recv
                | EventKind::Fault
                | EventKind::CacheHit
                | EventKind::CacheMiss
        )
    }

    /// Decode a ring-slot word back into a kind (`None` for a word no
    /// kind maps to — e.g. a never-written slot).
    pub fn from_u64(v: u64) -> Option<EventKind> {
        EVENT_KINDS.into_iter().find(|k| *k as u64 == v)
    }
}

/// One recorded event. Timestamps are nanoseconds on the owning
/// [`crate::Telemetry`]'s monotonic clock (shared origin across every
/// lane of the process, so cross-thread ordering is meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Start (or occurrence, for instants), nanoseconds.
    pub t0: u64,
    /// End, nanoseconds (`== t0` for instants).
    pub t1: u64,
    /// First kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_u64() {
        for k in EVENT_KINDS {
            assert_eq!(EventKind::from_u64(k as u64), Some(k));
        }
        assert_eq!(EventKind::from_u64(0), None);
        assert_eq!(EventKind::from_u64(999), None);
    }

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = EVENT_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_KINDS.len());
    }
}
