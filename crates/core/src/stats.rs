//! Execution-time accounting (the data behind Fig. 16).
//!
//! Every runtime thread accumulates wall time into a small set of
//! categories. Master threads use `Comm`/`Pack`/`Unpack`/`Route`/`Idle`;
//! worker threads use `Kernel`/`GraphOp`/`Input`/`Output`/`Idle`/`Other`.
//!
//! Each thread times itself with one stopwatch: a region boundary
//! is one clock reading, the elapsed time is booked to the region's
//! [`Category`], and the same `(t0, t1)` pair is what the thread's
//! trace lane records — so an armed trace's per-lane span sums *are*
//! the [`Breakdown`], not a second measurement of it.

use crate::telemetry::{EventKind, Recorder};
use std::time::Instant;

/// A time category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// User numerical kernel (worker).
    Kernel,
    /// DAG bookkeeping inside compute, minus the kernel (worker);
    /// "graph-op" in the paper's breakdown.
    GraphOp,
    /// Stream ingestion (`input`) time (worker).
    Input,
    /// Same-rank delivery and report hand-off of compute outputs (worker).
    Output,
    /// Serialisation of outgoing streams (master).
    Pack,
    /// Deserialisation of incoming messages (master).
    Unpack,
    /// Channel/network send+receive time (master).
    Comm,
    /// Rank lookup of outgoing streams, delivery of incoming ones (master).
    Route,
    /// Blocked with nothing to do.
    Idle,
    /// Everything else (scheduling glue).
    Other,
}

/// All categories, in display order.
pub const CATEGORIES: [Category; 10] = [
    Category::Kernel,
    Category::GraphOp,
    Category::Input,
    Category::Output,
    Category::Pack,
    Category::Unpack,
    Category::Comm,
    Category::Route,
    Category::Idle,
    Category::Other,
];

impl Category {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Kernel => "kernel",
            Category::GraphOp => "graph-op",
            Category::Input => "input",
            Category::Output => "output",
            Category::Pack => "pack",
            Category::Unpack => "unpack",
            Category::Comm => "comm",
            Category::Route => "route",
            Category::Idle => "idle",
            Category::Other => "other",
        }
    }

    fn index(self) -> usize {
        CATEGORIES.iter().position(|&c| c == self).unwrap()
    }
}

/// Seconds accumulated per category for one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    seconds: [f64; CATEGORIES.len()],
}

impl Breakdown {
    /// Add `dt` seconds to a category.
    pub fn add(&mut self, cat: Category, dt: f64) {
        self.seconds[cat.index()] += dt;
    }

    /// Seconds in one category.
    pub fn get(&self, cat: Category) -> f64 {
        self.seconds[cat.index()]
    }

    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &Breakdown) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b;
        }
    }
}

/// One runtime thread's stopwatch: its [`Breakdown`], its trace lane
/// and the last region boundary. Regions chain — [`Stopwatch::lap`]
/// closes one and opens the next on a single clock reading — and time
/// between a `lap` and the next [`Stopwatch::start`] stays unbooked.
pub(crate) struct Stopwatch {
    bd: Breakdown,
    /// This thread's trace lane (the engine records its structural
    /// spans and instants on it directly).
    pub(crate) rec: Recorder,
    mark: Instant,
}

impl Stopwatch {
    /// A stopwatch recording onto `rec`'s lane.
    pub(crate) fn new(rec: Recorder) -> Stopwatch {
        Stopwatch {
            bd: Breakdown::default(),
            rec,
            mark: Instant::now(),
        }
    }

    /// Open a region now; returns the reading.
    pub(crate) fn start(&mut self) -> Instant {
        self.mark = Instant::now();
        self.mark
    }

    /// Close the open region into `cat` (and as a span of that kind)
    /// and open the next; returns the shared boundary.
    pub(crate) fn lap(&mut self, cat: Category) -> Instant {
        let t0 = std::mem::replace(&mut self.mark, Instant::now());
        self.bd.add(cat, (self.mark - t0).as_secs_f64());
        self.rec.region(cat, t0, self.mark);
        self.mark
    }

    /// Close the open region as one `compute` call of program
    /// `(patch, task)`: `kernel_seconds` of it (what the program
    /// reported through [`crate::ComputeCtx::kernel`]) is `Kernel`,
    /// the rest `GraphOp`, the whole one `Compute` span.
    pub(crate) fn lap_compute(&mut self, kernel_seconds: f64, patch: u32, task: u32) {
        let t0 = std::mem::replace(&mut self.mark, Instant::now());
        let dt = (self.mark - t0).as_secs_f64();
        self.bd.add(Category::Kernel, kernel_seconds);
        self.bd
            .add(Category::GraphOp, (dt - kernel_seconds).max(0.0));
        self.rec
            .span(EventKind::Compute, t0, self.mark, patch.into(), task.into());
    }

    /// Time a closure as one region of `cat`.
    pub(crate) fn timed<R>(&mut self, cat: Category, f: impl FnOnce() -> R) -> R {
        self.start();
        let r = f();
        self.lap(cat);
        r
    }

    /// Take everything booked since the last take.
    pub(crate) fn take(&mut self) -> Breakdown {
        std::mem::take(&mut self.bd)
    }
}

/// Aggregate statistics of one rank's run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// This rank's id.
    pub rank: usize,
    /// Wall time of the whole run on this rank (seconds).
    pub wall_seconds: f64,
    /// Master-thread time breakdown.
    pub master: Breakdown,
    /// Per-worker time breakdowns.
    pub workers: Vec<Breakdown>,
    /// Compute invocations (patch-program executions).
    pub compute_calls: u64,
    /// Workload units completed (vertices for sweeps).
    pub work_done: u64,
    /// Same-rank streams, delivered by the worker that produced them.
    pub streams_local: u64,
    /// Streams sent to other ranks.
    pub streams_sent: u64,
    /// Streams received from other ranks.
    pub streams_received: u64,
    /// Multi-stream frames sent to other ranks. Aggregation (§II)
    /// shows up as `frames_sent < streams_sent`: each frame carries
    /// every stream bound to one destination in one drain round.
    pub frames_sent: u64,
    /// Frames received from other ranks.
    pub frames_received: u64,
    /// Bytes sent to other ranks (stream payloads + record headers;
    /// framing itself adds no bytes).
    pub bytes_sent: u64,
    /// Per-worker end-of-epoch drain: seconds between a worker's last
    /// productive act (the stamp it posts with its books, once per
    /// claim batch) and the epoch's quiesce close, clamped to the
    /// epoch. The wait that follows a worker's last batch is booked as
    /// `Idle` only with its *next* batch — in the next epoch — so the
    /// rank measures this tail from the stamp, keeping the
    /// Fig.-16-style idle breakdown exact per epoch. A worker that
    /// never ran in an epoch drains for the whole epoch.
    pub worker_drain_seconds: Vec<f64>,
}

impl RunStats {
    /// Merge the breakdowns of all workers into one.
    pub fn workers_merged(&self) -> Breakdown {
        let mut acc = Breakdown::default();
        for w in &self.workers {
            acc.merge(w);
        }
        acc
    }

    /// Total seconds booked to `cat` across the master and every
    /// worker thread. The one-line way to compare a category between
    /// runs — e.g. watching `GraphOp` shrink when coarse-graph replay
    /// (§V-E) replaces per-vertex scheduling.
    pub fn category_seconds(&self, cat: Category) -> f64 {
        self.master.get(cat) + self.workers.iter().map(|w| w.get(cat)).sum::<f64>()
    }

    /// Sum the stats of several ranks (for reporting).
    pub fn aggregate(all: &[RunStats]) -> RunStats {
        let mut acc = RunStats::default();
        for s in all {
            acc.wall_seconds = acc.wall_seconds.max(s.wall_seconds);
            acc.master.merge(&s.master);
            acc.workers.extend(s.workers.iter().cloned());
            acc.compute_calls += s.compute_calls;
            acc.work_done += s.work_done;
            acc.streams_local += s.streams_local;
            acc.streams_sent += s.streams_sent;
            acc.streams_received += s.streams_received;
            acc.frames_sent += s.frames_sent;
            acc.frames_received += s.frames_received;
            acc.bytes_sent += s.bytes_sent;
            acc.worker_drain_seconds
                .extend(s.worker_drain_seconds.iter().copied());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryHandle;

    #[test]
    fn breakdown_accumulates() {
        let mut b = Breakdown::default();
        b.add(Category::Kernel, 1.5);
        b.add(Category::Kernel, 0.5);
        b.add(Category::Idle, 3.0);
        assert_eq!(b.get(Category::Kernel), 2.0);
        assert_eq!(b.total(), 5.0);
    }

    #[test]
    fn timed_measures_elapsed() {
        let mut sw = Stopwatch::new(TelemetryHandle::default().recorder(0, 0));
        let v = sw.timed(Category::Comm, || {
            std::thread::sleep(std::time::Duration::from_millis(3));
            7
        });
        assert_eq!(v, 7);
        assert!(sw.take().get(Category::Comm) >= 0.003);
        // Chained laps share their boundaries: the booked regions tile
        // the window from `start` to the last lap, and a compute lap
        // splits into the reported kernel share and the rest.
        let t0 = sw.start();
        let t1 = sw.lap(Category::Input);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sw.lap_compute(0.001, 0, 0);
        let t2 = sw.lap(Category::Output);
        let b = sw.take();
        assert_eq!(b.get(Category::Input), (t1 - t0).as_secs_f64());
        assert_eq!(b.get(Category::Kernel), 0.001);
        assert!(b.get(Category::GraphOp) >= 0.001);
        assert!((b.total() - (t2 - t0).as_secs_f64()).abs() < 1e-9);
        assert_eq!(sw.take(), Breakdown::default(), "take drains");
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Breakdown::default();
        a.add(Category::Pack, 1.0);
        let mut b = Breakdown::default();
        b.add(Category::Pack, 2.0);
        b.add(Category::Idle, 1.0);
        a.merge(&b);
        assert_eq!(a.get(Category::Pack), 3.0);
        assert_eq!(a.get(Category::Idle), 1.0);
    }

    #[test]
    fn aggregate_takes_max_wall_and_sums_counters() {
        let a = RunStats {
            rank: 0,
            wall_seconds: 2.0,
            work_done: 10,
            streams_sent: 1,
            ..Default::default()
        };
        let b = RunStats {
            rank: 1,
            wall_seconds: 3.0,
            work_done: 5,
            streams_received: 1,
            ..Default::default()
        };
        let agg = RunStats::aggregate(&[a, b]);
        assert_eq!(agg.wall_seconds, 3.0);
        assert_eq!(agg.work_done, 15);
        assert_eq!(agg.streams_sent, 1);
        assert_eq!(agg.streams_received, 1);
    }

    #[test]
    fn aggregate_concatenates_worker_drains_like_workers() {
        let a = RunStats {
            rank: 0,
            worker_drain_seconds: vec![0.5, 0.25],
            ..Default::default()
        };
        let b = RunStats {
            rank: 1,
            worker_drain_seconds: vec![0.125],
            ..Default::default()
        };
        let agg = RunStats::aggregate(&[a, b]);
        assert_eq!(agg.worker_drain_seconds, vec![0.5, 0.25, 0.125]);
    }

    #[test]
    fn merge_disjoint_categories_keeps_both() {
        // Master-side and worker-side categories never overlap in
        // practice; merging them must lose neither and leave the
        // untouched categories at zero.
        let mut a = Breakdown::default();
        a.add(Category::Kernel, 1.0);
        a.add(Category::GraphOp, 0.5);
        let mut b = Breakdown::default();
        b.add(Category::Comm, 2.0);
        b.add(Category::Route, 0.25);
        a.merge(&b);
        assert_eq!(a.get(Category::Kernel), 1.0);
        assert_eq!(a.get(Category::GraphOp), 0.5);
        assert_eq!(a.get(Category::Comm), 2.0);
        assert_eq!(a.get(Category::Route), 0.25);
        assert_eq!(a.total(), 3.75);
        for cat in [Category::Pack, Category::Unpack, Category::Idle] {
            assert_eq!(a.get(cat), 0.0);
        }
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Breakdown::default();
        a.add(Category::Input, 0.75);
        let before = a.clone();
        a.merge(&Breakdown::default());
        assert_eq!(a, before, "merging zeros changes nothing");
        let mut zero = Breakdown::default();
        zero.merge(&before);
        assert_eq!(zero, before, "merging into zeros copies");
    }

    #[test]
    fn aggregate_of_empty_slice_is_default() {
        let agg = RunStats::aggregate(&[]);
        assert_eq!(agg.wall_seconds, 0.0);
        assert_eq!(agg.compute_calls, 0);
        assert!(agg.workers.is_empty());
        assert!(agg.worker_drain_seconds.is_empty());
        assert_eq!(agg.master.total(), 0.0);
    }

    #[test]
    fn aggregate_concatenates_mismatched_worker_counts() {
        // Ranks need not run the same worker count (e.g. after an
        // uneven decomposition); the aggregate concatenates rather
        // than zips, so no per-worker breakdown is silently dropped.
        let mut w0 = Breakdown::default();
        w0.add(Category::Kernel, 1.0);
        let mut w1 = Breakdown::default();
        w1.add(Category::Idle, 2.0);
        let a = RunStats {
            rank: 0,
            workers: vec![w0.clone(), w1.clone()],
            worker_drain_seconds: vec![0.1, 0.2],
            ..Default::default()
        };
        let b = RunStats {
            rank: 1,
            workers: vec![w1.clone()],
            worker_drain_seconds: vec![0.3],
            ..Default::default()
        };
        let agg = RunStats::aggregate(&[a, b]);
        assert_eq!(agg.workers.len(), 3);
        assert_eq!(agg.worker_drain_seconds, vec![0.1, 0.2, 0.3]);
        let merged = agg.workers_merged();
        assert_eq!(merged.get(Category::Kernel), 1.0);
        assert_eq!(merged.get(Category::Idle), 4.0);
        // category_seconds spans master + all concatenated workers.
        assert_eq!(agg.category_seconds(Category::Idle), 4.0);
    }

    #[test]
    fn category_names_unique() {
        let mut names: Vec<&str> = CATEGORIES.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATEGORIES.len());
    }
}
