//! End-to-end telemetry validation (requires `--features telemetry`).
//!
//! Runs a real 2-rank 8³ solve with recording armed and validates the
//! exported data at every layer:
//!
//! * lanes are well-formed — every span has `t0 <= t1`, completion
//!   order is monotone per lane, and spans on one lane nest properly
//!   (a thread's call stack cannot partially overlap);
//! * exactly one `epoch` span per `run_epoch` per rank, with `fence`
//!   nested inside it and `compute` confined to worker lanes;
//! * the trace *is* the Fig.-16 breakdown: on every lane the spans of
//!   a time category sum to that thread's `RunStats` entry, on both
//!   fabrics;
//! * the trace carries every frame: the masters' `send` / `recv`
//!   instants count `RunStats::frames_sent` / `frames_received`, and
//!   the `send` sizes sum to `bytes_sent`;
//! * the Chrome trace-event JSON is loadable (sorted timestamps,
//!   metadata rows, balanced braces) and renders both rank timelines;
//! * a session ticket's `span_id` locates exactly its epochs in the
//!   exported trace;
//! * recording must never change physics: the armed flux is
//!   bit-identical to a detached run's.
//!
//! With `--features "telemetry fault-inject"` an injected worker panic
//! must additionally surface as a `fault` instant in the trace.

#![cfg(feature = "telemetry")]

use jsweep::core::stats::{Category, CATEGORIES};
use jsweep::core::telemetry::obs::{EventKind, LaneSnapshot, Telemetry, GLOBAL_RANK};
use jsweep::core::{Breakdown, RunStats};
use jsweep::prelude::*;
use std::sync::Arc;

const RANKS: usize = 2;
const WORKERS: usize = 2;
const ITERATIONS: usize = 3;

/// The 2-rank 8³ world: 4³ block patches, S2, one group.
fn build_world() -> (Arc<StructuredMesh>, Arc<SweepProblem>, QuadratureSet) {
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let patches = decompose_structured(&mesh, (4, 4, 4), RANKS);
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    (mesh, problem, quad)
}

fn materials() -> Arc<MaterialSet> {
    Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ))
}

fn config(telemetry: TelemetryHandle) -> SnConfig {
    SnConfig {
        grain: 16,
        max_iterations: ITERATIONS,
        tolerance: 1e-14,
        workers_per_rank: WORKERS,
        telemetry,
        ..Default::default()
    }
}

/// Spans on one lane must nest like a call stack: any two either
/// disjoint or one inside the other. Instants are exempt.
fn assert_lane_well_formed(lane: &LaneSnapshot) {
    let spans: Vec<_> = lane
        .events
        .iter()
        .filter(|e| !e.kind.is_instant())
        .collect();
    let mut last_t1 = 0;
    for e in &lane.events {
        assert!(
            e.t0 <= e.t1,
            "rank {} lane {}: span ends before it starts: {e:?}",
            lane.rank,
            lane.lane
        );
        assert!(
            e.t1 >= last_t1,
            "rank {} lane {}: completion order not monotone: {e:?}",
            lane.rank,
            lane.lane
        );
        last_t1 = e.t1;
    }
    for (i, x) in spans.iter().enumerate() {
        for y in spans.iter().skip(i + 1) {
            let disjoint = x.t1 <= y.t0 || y.t1 <= x.t0;
            let x_in_y = y.t0 <= x.t0 && x.t1 <= y.t1;
            let y_in_x = x.t0 <= y.t0 && y.t1 <= x.t1;
            assert!(
                disjoint || x_in_y || y_in_x,
                "rank {} lane {}: partially overlapping spans {x:?} / {y:?}",
                lane.rank,
                lane.lane
            );
        }
    }
}

#[test]
fn armed_two_rank_solve_exports_valid_chrome_trace() {
    let (mesh, problem, quad) = build_world();
    let golden = solve_parallel(
        mesh.clone(),
        problem.clone(),
        &quad,
        materials(),
        &config(TelemetryHandle::default()),
    );

    let t = Arc::new(Telemetry::new());
    t.arm();
    let sol = solve_parallel(
        mesh,
        problem,
        &quad,
        materials(),
        &config(TelemetryHandle::attach(t.clone())),
    );
    assert_eq!(sol.phi, golden.phi, "recording must not change physics");
    assert_eq!(sol.iterations, ITERATIONS);

    let lanes = t.snapshot();
    for lane in &lanes {
        assert_eq!(lane.dropped, 0, "no ring overflow at this scale");
        assert_lane_well_formed(lane);
    }

    // Every rank contributes a master lane and both worker lanes.
    for rank in 0..RANKS as u32 {
        assert!(
            lanes.iter().any(|l| l.rank == rank && l.lane == 0),
            "rank {rank} master lane missing"
        );
        for w in 0..WORKERS as u32 {
            assert!(
                lanes.iter().any(|l| l.rank == rank && l.lane == w + 1),
                "rank {rank} worker {w} lane missing"
            );
        }
    }

    // Exactly one epoch span per run_epoch per rank, in epoch order,
    // with the fence nested inside its epoch.
    for rank in 0..RANKS as u32 {
        let master = lanes
            .iter()
            .find(|l| l.rank == rank && l.lane == 0)
            .expect("master lane exists");
        let epochs: Vec<_> = master
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Epoch)
            .collect();
        assert_eq!(
            epochs.len(),
            ITERATIONS,
            "rank {rank}: one epoch span per run_epoch"
        );
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.a, i as u64, "rank {rank}: epoch index in order");
            assert_eq!(e.b, 0, "no session: epochs carry no request span");
        }
        let fences: Vec<_> = master
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Fence)
            .collect();
        // The first epoch has no predecessor to fence off.
        assert_eq!(fences.len(), ITERATIONS - 1, "one fence per epoch join");
        for f in &fences {
            assert!(
                epochs.iter().any(|e| e.t0 <= f.t0 && f.t1 <= e.t1),
                "rank {rank}: fence outside every epoch span"
            );
        }
    }

    // Compute/claim live on worker lanes only; the work itself adds up.
    let mut compute_events = 0usize;
    for lane in &lanes {
        let computes = lane
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Compute)
            .count();
        if lane.lane == 0 || lane.rank == GLOBAL_RANK {
            assert_eq!(computes, 0, "compute span on a non-worker lane");
        }
        compute_events += computes;
    }
    assert!(compute_events > 0, "no compute spans recorded");

    // The default config coarsens: the driver lane records the plan
    // compilation before iteration 1.
    let global = lanes
        .iter()
        .find(|l| l.rank == GLOBAL_RANK)
        .expect("driver lane present");
    assert!(
        global
            .events
            .iter()
            .any(|e| e.kind == EventKind::PlanCompile),
        "plan compilation span missing from the driver lane"
    );

    // The Chrome export is loadable and renders both rank timelines.
    let events = t.trace_events();
    for w in events.windows(2) {
        if (w[0].pid, w[0].tid) == (w[1].pid, w[1].tid) {
            assert!(w[0].ts_us <= w[1].ts_us, "trace not time-sorted per lane");
        }
    }
    let json = t.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON"
    );
    for label in [
        "\"rank 0\"",
        "\"rank 1\"",
        "\"driver\"",
        "\"master\"",
        "\"worker 0\"",
        "\"worker 1\"",
        "\"name\":\"epoch\"",
        "\"name\":\"compute\"",
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
    ] {
        assert!(json.contains(label), "chrome trace missing {label}");
    }
}

/// `(total nanoseconds, count)` of the lanes' spans named `name`.
fn span_nanos<'a>(lanes: impl IntoIterator<Item = &'a LaneSnapshot>, name: &str) -> (u64, u64) {
    lanes
        .into_iter()
        .flat_map(|l| l.events.iter())
        .filter(|e| e.kind.name() == name)
        .fold((0, 0), |(ns, n), e| (ns + (e.t1 - e.t0), n + 1))
}

/// One thread (or, for the masters, one group of threads) reconciled:
/// every recorded category's spans sum to its `Breakdown` entry to
/// within 1 ns per span, and `Compute` spans to `Kernel + GraphOp`.
fn assert_spans_are_the_breakdown(who: &str, lanes: &[&LaneSnapshot], bd: &Breakdown) {
    let check = |what: &str, (ns, n): (u64, u64), seconds: f64| {
        let gap = (ns as f64 - seconds * 1e9).abs();
        assert!(
            gap <= n as f64 + 1.0,
            "{who} {what}: {n} spans sum to {ns} ns, breakdown books {} ns",
            seconds * 1e9
        );
    };
    for cat in CATEGORIES {
        let spans = span_nanos(lanes.iter().copied(), cat.name());
        match cat {
            // Booked through the `Compute` span, below.
            Category::Kernel | Category::GraphOp => {}
            // Booked only (see `core::telemetry::Recorder::region`).
            Category::Input | Category::Output | Category::Other => {
                assert_eq!(spans.1, 0, "{who}: unexpected {} spans", cat.name())
            }
            _ => check(cat.name(), spans, bd.get(cat)),
        }
    }
    check(
        "compute",
        span_nanos(lanes.iter().copied(), "compute"),
        bd.get(Category::Kernel) + bd.get(Category::GraphOp),
    );
}

/// The reconciliation property: an armed trace's per-lane span sums
/// are the `RunStats` breakdown of the same solve — three fine epochs
/// and three replayed epochs, each on both fabrics. Summed over the
/// solve, not per epoch: a worker's trailing idle delta rides its next
/// non-empty report. The masters' frame instants reconcile with the
/// same solve's frame and byte counters.
#[test]
fn span_sums_are_the_breakdown_on_both_fabrics() {
    let runs = [
        (TransportKind::Thread, false),
        (TransportKind::Thread, true),
        (TransportKind::Socket, false),
        (TransportKind::Socket, true),
    ];
    for (transport, coarsen) in runs {
        let (mesh, problem, quad) = build_world();
        let t = Arc::new(Telemetry::new());
        t.arm();
        let sol = solve_parallel(
            mesh,
            problem,
            &quad,
            materials(),
            &SnConfig {
                transport,
                coarsen,
                ..config(TelemetryHandle::attach(t.clone()))
            },
        );
        assert_eq!(sol.iterations, ITERATIONS);
        assert_eq!(
            sol.coarse_build_seconds > 0.0,
            coarsen,
            "replay plan compiled"
        );

        let lanes = t.snapshot();
        for lane in &lanes {
            assert_eq!(lane.dropped, 0, "{transport:?}: ring overflow");
            assert_lane_well_formed(lane);
        }
        // `SnSolution::stats` aggregates ranks per iteration: masters
        // merged, workers concatenated in rank order.
        let mut master = Breakdown::default();
        let mut workers = vec![Breakdown::default(); RANKS * WORKERS];
        for s in &sol.stats {
            master.merge(&s.master);
            assert_eq!(s.workers.len(), workers.len());
            for (acc, w) in workers.iter_mut().zip(&s.workers) {
                acc.merge(w);
            }
        }
        let masters: Vec<_> = lanes
            .iter()
            .filter(|l| l.rank != GLOBAL_RANK && l.lane == 0)
            .collect();
        assert_eq!(masters.len(), RANKS);
        assert_spans_are_the_breakdown(&format!("{transport:?} masters"), &masters, &master);
        let instants = |kind: EventKind| {
            masters
                .iter()
                .flat_map(|l| l.events.iter())
                .filter(move |e| e.kind == kind)
        };
        let total = |f: fn(&RunStats) -> u64| sol.stats.iter().map(f).sum::<u64>();
        let sends: Vec<u64> = instants(EventKind::Send).map(|e| e.b).collect();
        assert_eq!(
            sends.len() as u64,
            total(|s| s.frames_sent),
            "{transport:?}: send instants"
        );
        assert!(
            !sends.is_empty(),
            "{transport:?}: two ranks exchanged no frame"
        );
        assert_eq!(
            sends.iter().sum::<u64>(),
            total(|s| s.bytes_sent),
            "{transport:?}: frame bytes"
        );
        assert_eq!(
            instants(EventKind::Recv).count() as u64,
            total(|s| s.frames_received),
            "{transport:?}: recv instants"
        );
        for (i, bd) in workers.iter().enumerate() {
            let (rank, lane) = ((i / WORKERS) as u32, (i % WORKERS) as u32 + 1);
            let lane = lanes
                .iter()
                .find(|l| l.rank == rank && l.lane == lane)
                .expect("worker lane exists");
            let who = format!("{transport:?} rank {rank} worker {}", i % WORKERS);
            assert_spans_are_the_breakdown(&who, &[lane], bd);
        }
        // Some worker of every rank computed. Not every worker: on a
        // world this small one worker may drain all of its rank's work.
        for (rank, ws) in workers.chunks(WORKERS).enumerate() {
            assert!(
                ws.iter().any(|bd| bd.get(Category::Kernel) > 0.0),
                "{transport:?}: no worker of rank {rank} computed"
            );
        }
        // The master categories a trace is most easily mislabelled
        // in (pack vs comm vs route) are all populated.
        for cat in [Category::Pack, Category::Comm, Category::Route] {
            assert!(
                master.get(cat) > 0.0,
                "{transport:?}: no {} time",
                cat.name()
            );
        }
    }
}

#[test]
fn session_ticket_span_locates_its_epochs() {
    let (mesh, problem, quad) = build_world();
    let t = Arc::new(Telemetry::new());
    t.arm();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: config(TelemetryHandle::attach(t.clone())),
            ..Default::default()
        },
    );
    let campaign = session.campaign();
    let first = campaign
        .submit(SolveRequest::new(materials()))
        .wait()
        .expect("first solve served");
    let second = campaign
        .submit(SolveRequest::new(materials()))
        .wait()
        .expect("second solve served");
    session.shutdown();
    assert_ne!(first.span_id, 0, "tickets carry a nonzero span id");
    assert_ne!(first.span_id, second.span_id, "span ids are unique");

    // Each ticket's span id finds exactly its epochs, on every rank.
    let lanes = t.snapshot();
    for out in [&first, &second] {
        let tagged = lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .filter(|e| e.kind == EventKind::Epoch && e.b == out.span_id)
            .count();
        assert_eq!(
            tagged,
            out.solution.iterations * RANKS,
            "span {} must tag one epoch span per run_epoch per rank",
            out.span_id
        );
    }

    // And the rendered trace carries the ids as span args.
    let json = t.chrome_trace();
    for out in [&first, &second] {
        assert!(
            json.contains(&format!("\"span\":{}", out.span_id)),
            "span {} missing from the exported trace",
            out.span_id
        );
    }
}

/// An injected worker panic must surface as a `fault` instant on the
/// faulted rank's master lane (and in the rendered trace).
#[cfg(feature = "fault-inject")]
#[test]
fn injected_fault_appears_in_trace() {
    let (mesh, problem, quad) = build_world();
    let t = Arc::new(Telemetry::new());
    t.arm();
    let plan = FaultPlan::builder().panic_on_compute(0, 1).build();
    let mut cfg = config(TelemetryHandle::attach(t.clone()));
    cfg.fault_plan = Some(Arc::new(plan));
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: cfg,
            ..Default::default()
        },
    );
    let campaign = session.campaign();
    let err = campaign
        .submit(SolveRequest::new(materials()))
        .wait()
        .expect_err("injected panic fails the ticket");
    assert!(matches!(err, SessionError::Failed(_)));
    session.shutdown();

    let lanes = t.snapshot();
    let faults = lanes
        .iter()
        .flat_map(|l| l.events.iter())
        .filter(|e| e.kind == EventKind::Fault)
        .count();
    assert!(faults > 0, "injected panic left no fault event");
    assert!(
        t.chrome_trace().contains("\"name\":\"fault\""),
        "fault instant missing from the rendered trace"
    );
}
