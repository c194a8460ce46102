//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! One timeline (`pid`, `tid`) per recorded lane: `pid` is the rank,
//! `tid` the lane within it (0 = master, `w + 1` = worker `w`).
//! Durational events render as complete (`"ph":"X"`) events with
//! microsecond `ts`/`dur`; instant kinds as thread-scoped instants
//! (`"ph":"i"`); and metadata (`"ph":"M"`) rows name each process and
//! thread so the viewer shows `rank 0 / worker 1` instead of raw ids.

use crate::event::Event;
use crate::LaneSnapshot;

/// One exported trace event, pre-JSON. Kept structured so tests can
/// validate a trace (nesting, monotonicity, span counts) without a
/// JSON parser.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the [`crate::EventKind`] name).
    pub name: &'static str,
    /// Trace-event phase: `X` (complete), `i` (instant).
    pub phase: char,
    /// Process id lane: the rank.
    pub pid: u32,
    /// Thread id lane: 0 = master, `w + 1` = worker `w`.
    pub tid: u32,
    /// Start timestamp, microseconds on the shared telemetry clock.
    pub ts_us: f64,
    /// Duration, microseconds (0 for instants).
    pub dur_us: f64,
    /// Kind-specific arguments, rendered into the `args` object.
    pub args: Vec<(&'static str, u64)>,
}

/// Argument names per event kind, applied to the `a`/`b` payload
/// words (a `None` slot suppresses the word).
fn arg_names(e: &Event) -> [Option<&'static str>; 2] {
    use crate::EventKind::*;
    match e.kind {
        Epoch => [Some("epoch"), Some("span")],
        Compute => [Some("patch"), Some("task")],
        PlanCompile => [Some("generation"), None],
        Send => [Some("dst"), Some("bytes")],
        Recv => [Some("src"), Some("bytes")],
        Fault => [Some("detail"), None],
        CacheHit | CacheMiss => [Some("generation"), None],
        // The fence and the region kinds carry no payload.
        Fence | Pack | Unpack | Comm | Route | Idle => [None, None],
    }
}

/// Convert drained lane snapshots into trace events, sorted by
/// `(pid, tid, ts)`. Metadata rows are added by [`to_json`].
pub fn trace_events(lanes: &[LaneSnapshot]) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for lane in lanes {
        for e in &lane.events {
            let [an, bn] = arg_names(e);
            let mut args = Vec::new();
            if let Some(n) = an {
                args.push((n, e.a));
            }
            if let Some(n) = bn {
                args.push((n, e.b));
            }
            out.push(TraceEvent {
                name: e.kind.name(),
                phase: if e.kind.is_instant() { 'i' } else { 'X' },
                pid: lane.rank,
                tid: lane.lane,
                ts_us: e.t0 as f64 / 1000.0,
                dur_us: e.t1.saturating_sub(e.t0) as f64 / 1000.0,
                args,
            });
        }
    }
    out.sort_by(|x, y| {
        (x.pid, x.tid)
            .cmp(&(y.pid, y.tid))
            .then(x.ts_us.total_cmp(&y.ts_us))
    });
    out
}

/// Human name of a `(rank, lane)` pair's thread.
pub fn lane_name(lane: u32) -> String {
    if lane == 0 {
        "master".to_string()
    } else {
        format!("worker {}", lane - 1)
    }
}

/// Human name of a rank's process row. [`crate::GLOBAL_RANK`] is the
/// process-wide driver lane.
pub fn rank_name(rank: u32) -> String {
    if rank == crate::GLOBAL_RANK {
        "driver".to_string()
    } else {
        format!("rank {rank}")
    }
}

fn push_json_event(out: &mut String, e: &TraceEvent) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3}",
        e.name, e.phase, e.pid, e.tid, e.ts_us
    ));
    if e.phase == 'X' {
        out.push_str(&format!(",\"dur\":{:.3}", e.dur_us));
    }
    if e.phase == 'i' {
        // Thread-scoped instant.
        out.push_str(",\"s\":\"t\"");
    }
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push('}');
    }
    out.push('}');
}

/// Render trace events (plus process/thread metadata rows for every
/// `(pid, tid)` present) as a Chrome trace-event JSON document.
pub fn to_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    // Metadata: name each process once and each thread once.
    let mut seen_pid: Vec<u32> = Vec::new();
    let mut seen_tid: Vec<(u32, u32)> = Vec::new();
    for e in events {
        if !seen_pid.contains(&e.pid) {
            seen_pid.push(e.pid);
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                e.pid,
                rank_name(e.pid)
            ));
        }
        if !seen_tid.contains(&(e.pid, e.tid)) {
            seen_tid.push((e.pid, e.tid));
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                e.pid,
                e.tid,
                lane_name(e.tid)
            ));
        }
    }
    for e in events {
        sep(&mut out);
        push_json_event(&mut out, e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn lane(rank: u32, lane_id: u32, events: Vec<Event>) -> LaneSnapshot {
        LaneSnapshot {
            rank,
            lane: lane_id,
            dropped: 0,
            events,
        }
    }

    #[test]
    fn events_sort_by_lane_then_time_and_carry_args() {
        let lanes = vec![
            lane(
                1,
                0,
                vec![Event {
                    kind: EventKind::Send,
                    t0: 5000,
                    t1: 5000,
                    a: 3,
                    b: 128,
                }],
            ),
            lane(
                0,
                1,
                vec![
                    Event {
                        kind: EventKind::Compute,
                        t0: 2000,
                        t1: 9000,
                        a: 7,
                        b: 1,
                    },
                    Event {
                        kind: EventKind::Idle,
                        t0: 1000,
                        t1: 1500,
                        a: 0,
                        b: 0,
                    },
                ],
            ),
        ];
        let evs = trace_events(&lanes);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].name, "idle");
        assert!(evs[0].args.is_empty(), "region kinds carry no payload");
        assert_eq!(evs[1].name, "compute");
        assert_eq!(evs[1].args, vec![("patch", 7), ("task", 1)]);
        assert_eq!(evs[2].name, "send");
        assert_eq!(evs[2].phase, 'i');
        assert_eq!((evs[2].pid, evs[2].tid), (1, 0));
        assert_eq!(evs[0].ts_us, 1.0);
        assert_eq!(evs[1].dur_us, 7.0);
    }

    #[test]
    fn json_has_metadata_and_balanced_structure() {
        let lanes = vec![lane(
            0,
            2,
            vec![Event {
                kind: EventKind::Epoch,
                t0: 0,
                t1: 1_000_000,
                a: 3,
                b: 17,
            }],
        )];
        let json = to_json(&trace_events(&lanes));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"rank 0\""));
        assert!(json.contains("\"worker 1\""));
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"args\":{\"epoch\":3,\"span\":17}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
    }
}
