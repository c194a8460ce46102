//! The measured passes: whole solves through `solve_parallel`, and
//! closed-loop request streams through a `SolverSession`.
//!
//! Both passes time operations from outside and keep what the program
//! already returns — `SnSolution::stats` per iteration — so the
//! end-to-end numbers and the `Breakdown`-derived layer numbers come
//! from the same operations.

use crate::inputs::{BenchMesh, Case};
use crate::numeric::median;
use crate::spans::Recorder;
use jsweep_core::stats::Category;
use jsweep_core::{Breakdown, RunStats};
use jsweep_transport::{
    solve_parallel, solve_parallel_cached, solve_serial, MaterialSet, PlanCache, RoundRobin,
    SessionOptions, SessionStats, SnSolution, SolveRequest, SolverSession,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations attempted and failed: every solve, request and
/// correctness comparison counts once.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
}

impl Ops {
    /// Count one operation; `ok = false` counts a failure and says why
    /// on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// `RunStats` summed over a set of iterations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Iterations summed.
    pub iterations: usize,
    /// Master breakdown, summed over ranks and iterations.
    pub master: Breakdown,
    /// Worker breakdown, summed over workers and iterations.
    pub workers: Breakdown,
    /// Worker end-of-epoch drain seconds.
    pub drain_seconds: f64,
    /// Compute calls.
    pub compute_calls: u64,
    /// Vertices completed.
    pub work_done: u64,
    /// Same-rank streams.
    pub streams_local: u64,
    /// Cross-rank streams.
    pub streams_sent: u64,
    /// Cross-rank frames.
    pub frames_sent: u64,
    /// Cross-rank bytes.
    pub bytes_sent: u64,
}

impl Tally {
    /// Add one iteration's (rank-aggregated) stats.
    pub fn add(&mut self, s: &RunStats) {
        self.iterations += 1;
        self.master.merge(&s.master);
        self.workers.merge(&s.workers_merged());
        self.drain_seconds += s.worker_drain_seconds.iter().sum::<f64>();
        self.compute_calls += s.compute_calls;
        self.work_done += s.work_done;
        self.streams_local += s.streams_local;
        self.streams_sent += s.streams_sent;
        self.frames_sent += s.frames_sent;
        self.bytes_sent += s.bytes_sent;
    }

    /// Mean per iteration of a summed quantity (0 with no iterations).
    pub fn per_iter(&self, total: f64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            total / self.iterations as f64
        }
    }

    /// Mean milliseconds per iteration the masters booked to `cat`.
    pub fn master_ms(&self, cat: Category) -> f64 {
        self.per_iter(self.master.get(cat)) * 1e3
    }

    /// Mean milliseconds per iteration the workers booked to `cat`.
    pub fn worker_ms(&self, cat: Category) -> f64 {
        self.per_iter(self.workers.get(cat)) * 1e3
    }
}

/// Relative difference gate of the correctness check: the criterion of
/// the repository's `tests/end_to_end.rs`.
const GATE_RELATIVE: f64 = 1e-11;

/// Correctness gate: a 3-iteration `solve_parallel` of the workload's
/// own configuration against `solve_serial` on the same seeded
/// materials, within [`GATE_RELATIVE`].
pub fn gate<T: BenchMesh>(
    case: &Case<T>,
    materials: &Arc<MaterialSet>,
    rec: &mut Recorder,
    ops: &mut Ops,
) {
    let mut config = case.config.clone();
    config.max_iterations = 3;
    let parallel = rec.scope("gate.solve_parallel", "transport", |_| {
        solve_parallel(
            case.mesh.clone(),
            case.problem.clone(),
            &case.quad,
            materials.clone(),
            &config,
        )
    });
    let serial = rec.scope("gate.solve_serial", "transport", |_| {
        solve_serial(case.mesh.as_ref(), &case.quad, materials, &config)
    });
    let worst = parallel
        .phi
        .iter()
        .zip(&serial.phi)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-30))
        .fold(0.0, f64::max);
    let ok = parallel.phi.len() == serial.phi.len()
        && parallel.iterations == 3
        && serial.iterations == 3
        && parallel.phi.iter().all(|x| x.is_finite() && *x > 0.0)
        && worst <= GATE_RELATIVE;
    ops.check(ok, || {
        format!("parallel vs serial flux: worst relative difference {worst:e}")
    });
}

/// What a solver pass measured.
#[derive(Debug, Default, Clone)]
pub struct SolverSamples {
    /// Wall seconds of each whole `solve_parallel` call.
    pub solve_s: Vec<f64>,
    /// `wall_seconds` of every steady iteration (index ≥ 1), pooled.
    pub iter_s: Vec<f64>,
    /// `wall_seconds` of each solve's first iteration.
    pub first_iter_s: Vec<f64>,
    /// Replay plan compile seconds of each solve.
    pub plan_build_s: Vec<f64>,
    /// Solve wall − Σ iteration wall − plan build, per solve.
    pub launch_shutdown_s: Vec<f64>,
    /// Stats summed over the steady iterations.
    pub steady: Tally,
}

/// Span arguments every operation span carries: the per-iteration
/// breakdown and counts the program returned for it.
fn attach_stats(rec: &mut Recorder, stats: &[RunStats]) {
    if !rec.enabled() {
        return;
    }
    let mut t = Tally::default();
    stats.iter().for_each(|s| t.add(s));
    rec.arg("iterations", stats.len() as f64);
    rec.arg(
        "iter_wall_ms_sum",
        stats.iter().map(|s| s.wall_seconds).sum::<f64>() * 1e3,
    );
    rec.arg("worker_kernel_ms", t.workers.get(Category::Kernel) * 1e3);
    rec.arg("worker_graphop_ms", t.workers.get(Category::GraphOp) * 1e3);
    rec.arg("worker_idle_ms", t.workers.get(Category::Idle) * 1e3);
    rec.arg("master_route_ms", t.master.get(Category::Route) * 1e3);
    rec.arg("master_comm_ms", t.master.get(Category::Comm) * 1e3);
    rec.arg("master_idle_ms", t.master.get(Category::Idle) * 1e3);
    rec.arg("compute_calls", t.compute_calls as f64);
    rec.arg("streams_local", t.streams_local as f64);
    rec.arg("streams_sent", t.streams_sent as f64);
    rec.arg("frames_sent", t.frames_sent as f64);
}

/// Repeat whole `solve_parallel` calls until `budget` has elapsed and
/// at least `min_solves` ran. Every solve must be bit-identical to
/// `reference` (set by the first solve that runs).
pub fn solver_pass<T: BenchMesh>(
    case: &Case<T>,
    materials: &Arc<MaterialSet>,
    budget: Duration,
    min_solves: usize,
    reference: &mut Option<Vec<f64>>,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> SolverSamples {
    let mut out = SolverSamples::default();
    let phase = Instant::now();
    while out.solve_s.len() < min_solves || phase.elapsed() < budget {
        let (sol, wall) = rec.scope("solve_parallel", "transport", |rec| {
            let t0 = Instant::now();
            let sol = solve_parallel(
                case.mesh.clone(),
                case.problem.clone(),
                &case.quad,
                materials.clone(),
                &case.config,
            );
            let wall = t0.elapsed().as_secs_f64();
            attach_stats(rec, &sol.stats);
            (sol, wall)
        });
        record_solve(&mut out, &sol, wall);
        let same = reference.get_or_insert_with(|| sol.phi.clone()) == &sol.phi;
        ops.check(same && sol.iterations == case.spec.iterations, || {
            "solve not bit-identical to the first solve of this workload".to_string()
        });
    }
    out
}

fn record_solve(out: &mut SolverSamples, sol: &SnSolution, wall: f64) {
    let iter_sum: f64 = sol.stats.iter().map(|s| s.wall_seconds).sum();
    out.solve_s.push(wall);
    out.first_iter_s.push(sol.stats[0].wall_seconds);
    out.plan_build_s.push(sol.coarse_build_seconds);
    out.launch_shutdown_s
        .push(wall - iter_sum - sol.coarse_build_seconds);
    for s in &sol.stats[1..] {
        out.iter_s.push(s.wall_seconds);
        out.steady.add(s);
    }
}

/// What a session pass measured.
#[derive(Debug, Default, Clone)]
pub struct SessionSamples {
    /// `SolverSession::launch` seconds.
    pub launch_s: f64,
    /// Submit → `wait()` seconds of every measured request.
    pub latency_s: Vec<f64>,
    /// Submit → first epoch seconds of every measured request.
    pub queue_wait_s: Vec<f64>,
    /// `wall_seconds` of every epoch of the measured requests (all
    /// replay: the warm-up request recorded the plan).
    pub iter_s: Vec<f64>,
    /// Stats summed over those epochs.
    pub steady: Tally,
    /// Wall seconds of the measured phase.
    pub phase_s: f64,
    /// Epochs the session ran during the measured phase.
    pub phase_epochs: u64,
    /// The session's accounting at shutdown.
    pub stats: SessionStats,
    /// Plan-cache hits / lookups at shutdown.
    pub plan_cache_hit_ratio: f64,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    spans: Vec<(Instant, Instant)>,
    queue_wait_s: Vec<f64>,
    epochs: Vec<RunStats>,
    attempted: u64,
    mismatched: u64,
    errors: Vec<String>,
}

/// Serve closed-loop request streams through one `SolverSession`:
/// `clients` threads, one campaign each (campaign `c` solves
/// `materials[c]`), one request outstanding per client, one warm-up
/// request each, then requests until `budget` has elapsed and each
/// client has made at least `min_requests`. Every outcome must be
/// bit-identical to `references[c]`, the solo solve of the campaign's
/// materials.
pub fn session_pass<T: BenchMesh>(
    case: &Case<T>,
    materials: &[Arc<MaterialSet>],
    references: &[Vec<f64>],
    budget: Duration,
    min_requests: usize,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> SessionSamples {
    let clients = materials.len();
    let mut out = SessionSamples::default();
    let (mut session, launch_s) = rec.scope("SolverSession::launch", "session", |_| {
        let t0 = Instant::now();
        let session = launch_session(case);
        (session, t0.elapsed().as_secs_f64())
    });
    out.launch_s = launch_s;
    let campaigns: Vec<_> = (0..clients).map(|_| session.campaign()).collect();

    // Warm-up: the first request launches the resident universe and
    // records the replay plan; later ones find both in place.
    rec.scope("session.warm_up", "session", |_| {
        for (c, campaign) in campaigns.iter().enumerate() {
            let served = campaign
                .submit(SolveRequest::new(materials[c].clone()))
                .wait();
            ops.check(
                matches!(&served, Ok(o) if o.solution.phi == references[c]),
                || format!("session warm-up request of campaign {c} failed or differs from its solo solve"),
            );
        }
    });

    let epochs_before = session.stats().epochs_run;
    let phase = Instant::now();
    let logs: Vec<ClientLog> = rec.scope("session.measured_phase", "session", |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = campaigns
                .iter()
                .enumerate()
                .map(|(c, campaign)| {
                    let mats = &materials[c];
                    let reference = &references[c];
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        while log.spans.len() < min_requests || phase.elapsed() < budget {
                            let t0 = Instant::now();
                            let served = campaign.submit(SolveRequest::new(mats.clone())).wait();
                            let t1 = Instant::now();
                            log.attempted += 1;
                            match served {
                                Ok(o) => {
                                    if &o.solution.phi != reference {
                                        log.mismatched += 1;
                                    }
                                    log.spans.push((t0, t1));
                                    log.queue_wait_s.push(o.queue_wait_seconds);
                                    log.epochs.extend(o.solution.stats);
                                }
                                Err(e) => log.errors.push(e.to_string()),
                            }
                        }
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session client panicked"))
                .collect()
        })
    });
    out.phase_s = phase.elapsed().as_secs_f64();
    out.phase_epochs = session.stats().epochs_run - epochs_before;

    for (c, log) in logs.into_iter().enumerate() {
        for &(t0, t1) in &log.spans {
            rec.add("request", "session", t0, t1, c as u32 + 1);
            out.latency_s.push((t1 - t0).as_secs_f64());
        }
        out.queue_wait_s.extend(log.queue_wait_s);
        for s in &log.epochs {
            out.iter_s.push(s.wall_seconds);
            out.steady.add(s);
        }
        let bad = log.mismatched + log.errors.len() as u64;
        ops.attempted += log.attempted;
        ops.failed += bad;
        if bad > 0 {
            eprintln!(
                "FAILED: campaign {c}: {} outcomes differ from the solo solve, errors: {:?}",
                log.mismatched, log.errors
            );
        }
    }

    rec.scope("SolverSession::shutdown", "session", |_| session.shutdown());
    out.stats = session.stats();
    let cache = session.plan_cache();
    let lookups = cache.hits() + cache.misses();
    out.plan_cache_hit_ratio = if lookups == 0 {
        0.0
    } else {
        cache.hits() as f64 / lookups as f64
    };
    ops.check(
        out.stats.universes_launched == out.stats.universes_retired,
        || "session leaked a universe".to_string(),
    );
    out
}

/// A session over the case's problem shape with round-robin admission
/// (campaigns interleave epoch by epoch).
pub fn launch_session<T: BenchMesh>(case: &Case<T>) -> SolverSession<T> {
    SolverSession::launch(
        case.mesh.clone(),
        case.problem.clone(),
        case.quad.clone(),
        SessionOptions {
            solver: case.config.clone(),
            admission: Box::new(RoundRobin::default()),
            ..Default::default()
        },
    )
}

/// The solo reference of a request — `solve_parallel_cached` of the
/// same materials and configuration — plus the median wall of that
/// call once its plan cache is warm (`session.solo_solve_ms`) and the
/// compiled plan's footprint.
pub struct Solo {
    /// The reference flux.
    pub phi: Vec<f64>,
    /// Median seconds of a warm `solve_parallel_cached` call.
    pub warm_solve_s: f64,
    /// Bytes of the cached replay plan (0 with replay off).
    pub plan_bytes: usize,
}

/// Solve `materials` solo: once cold (fills the cache), then `warm`
/// timed calls that must reproduce the same flux.
pub fn solo_reference<T: BenchMesh>(
    case: &Case<T>,
    materials: &Arc<MaterialSet>,
    warm: usize,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Solo {
    let cache = PlanCache::new();
    let solve = |rec: &mut Recorder| {
        rec.scope("solve_parallel_cached", "transport", |rec| {
            let t0 = Instant::now();
            let sol = solve_parallel_cached(
                case.mesh.clone(),
                case.problem.clone(),
                &case.quad,
                materials.clone(),
                &case.config,
                &cache,
            );
            let wall = t0.elapsed().as_secs_f64();
            attach_stats(rec, &sol.stats);
            (sol, wall)
        })
    };
    let (cold, _) = solve(rec);
    let mut walls = Vec::with_capacity(warm);
    for _ in 0..warm {
        let (sol, wall) = solve(rec);
        ops.check(sol.phi == cold.phi, || {
            "warm solve_parallel_cached differs from the cold one".to_string()
        });
        walls.push(wall);
    }
    Solo {
        phi: cold.phi,
        warm_solve_s: median(&walls),
        plan_bytes: cache.memory_bytes(),
    }
}
