//! The harness's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer
//! boundary — around set-up stages, every solve, every probe and every
//! session request — never inside the program under test. They stay in
//! memory and are written as a Chrome trace-event file when the run
//! ends. A disabled recorder runs the closure and records nothing, so
//! the untraced pass pays one branch per span.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Crate whose public function the span wraps.
    pub layer: &'static str,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    /// Microseconds since the recorder's origin.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Display lane (0 = the harness thread; session clients use 1+).
    pub lane: u32,
    /// Counts and per-iteration breakdown attached at the boundary.
    pub args: Vec<(String, f64)>,
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between passes (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling the recorder inside a span");
        self.enabled = enabled;
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn scope<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            lane: 0,
            args: Vec::new(),
        });
        self.open.push(index);
        let r = f(self);
        self.open.pop();
        self.spans[index].end_us = self.micros(Instant::now());
        r
    }

    /// Attach a value to the innermost open span.
    pub fn arg(&mut self, key: &str, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].args.push((key.to_string(), value));
        }
    }

    /// Record an interval measured elsewhere (a session client thread)
    /// as a child of the innermost open span.
    pub fn add(
        &mut self,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        lane: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent: self.open.last().copied(),
            lane,
            args: Vec::new(),
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// direct children on the same lane cover (children are clipped to
    /// the parent; a lane's children never overlap each other).
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if parent.lane == s.lane {
                    let covered = s.end_us.min(parent.end_us) - s.start_us.max(parent.start_us);
                    own[p] -= covered.max(0.0);
                }
            }
        }
        own
    }

    /// Total self time per layer, milliseconds.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_us()) {
            *by_layer.entry(s.layer).or_insert(0.0) += own / 1e3;
        }
        by_layer
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, one lane per thread id, with the
    /// parent index, self time and workload in `args`.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .zip(self.self_us())
            .enumerate()
            .map(|(i, (s, own))| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(i as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload".to_string(), Json::str(workload)),
                    ("self_us".to_string(), Json::Num(own)),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut rec = Recorder::new(true);
        rec.scope("outer", "bench", |rec| {
            rec.scope("inner", "core", |rec| {
                rec.arg("n", 3.0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].args, vec![("n".to_string(), 3.0)]);
        let own = rec.self_us();
        let outer = spans[0].end_us - spans[0].start_us;
        let inner = spans[1].end_us - spans[1].start_us;
        assert!((own[0] - (outer - inner)).abs() < 1e-6);
        assert!(inner >= 2000.0);
        let doc = rec.chrome_trace("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.scope("x", "bench", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
