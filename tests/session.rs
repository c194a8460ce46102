//! Session stress/soak suite: a resident [`SolverSession`] serving
//! concurrent campaigns.
//!
//! * `stress_concurrent_campaigns_bit_identical` — hundreds of queued
//!   solves from multiple submitter threads; every campaign's flux is
//!   bit-identical to a solo `solve_parallel_cached` run.
//! * `fifo_schedule_is_deterministic` / `round_robin_schedule_is_deterministic`
//!   — dslab-style: a seeded request order against a known admission
//!   policy yields an exact epoch schedule.
//! * `session_compiles_the_plan_once_per_shape` — a paused backlog of
//!   one shape compiles one plan, at the first admission.
//! * `soak_refinement_under_load` (`--ignored`) — refinement bumps
//!   interleaved with in-flight campaigns: no stale-plan replay, no
//!   universe leak across 50+ campaign lifecycles.

use jsweep::prelude::*;
use jsweep::transport::{SessionStats, SolveOutcome};
use std::sync::Arc;

/// Small world every test shares: 4³ cells, 2×2×2 patches on 2
/// simulated ranks, S2 — sized for single-core CI.
fn build_world() -> (Arc<StructuredMesh>, Arc<SweepProblem>, QuadratureSet) {
    let mesh = Arc::new(StructuredMesh::unit(4, 4, 4));
    let quad = QuadratureSet::sn(2);
    let patches = decompose_structured(&mesh, (2, 2, 2), 2);
    let problem = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    (mesh, problem, quad)
}

fn materials(sigma_s: f64) -> Arc<MaterialSet> {
    Arc::new(MaterialSet::homogeneous(
        64,
        Material::uniform(1, 1.0, sigma_s, 1.0),
    ))
}

fn request(mats: &Arc<MaterialSet>) -> SolveRequest {
    SolveRequest {
        materials: mats.clone(),
        max_iterations: None,
        tolerance: None,
        retry: None,
    }
}

/// Fixed-iteration config: a tolerance no residual reaches pins every
/// solve to exactly `max_iterations` epochs, so schedules and flux are
/// reproducible regardless of scheduling interleavings.
fn fixed_iteration_config() -> SnConfig {
    SnConfig {
        grain: 16,
        max_iterations: 3,
        tolerance: 1e-14,
        ..Default::default()
    }
}

#[test]
fn stress_concurrent_campaigns_bit_identical() {
    const CAMPAIGNS: usize = 4;
    const THREADS_PER_CAMPAIGN: usize = 2;
    const FLOOD_PER_THREAD: usize = 26;
    // 4 campaigns × (1 warm-up + 2×26 flood) = 212 queued solves.
    let (mesh, problem, quad) = build_world();
    let cfg = fixed_iteration_config();

    // Solo references, one per campaign's materials, each against a
    // fresh cache — the bit-identity golden.
    let campaign_mats: Vec<Arc<MaterialSet>> = (0..CAMPAIGNS)
        .map(|c| materials(0.1 + 0.1 * c as f64))
        .collect();
    let solo: Vec<_> = campaign_mats
        .iter()
        .map(|m| {
            solve_parallel_cached(
                mesh.clone(),
                problem.clone(),
                &quad,
                m.clone(),
                &cfg,
                &PlanCache::new(),
            )
        })
        .collect();

    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: cfg,
            admission: Box::new(RoundRobin::default()),
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..CAMPAIGNS).map(|_| session.campaign()).collect();

    // Warm-up: one solve per campaign runs to completion so the shared
    // plan is compiled and cached before the flood — every flood
    // admission is then a plan-cache hit.
    for (h, m) in handles.iter().zip(&campaign_mats) {
        h.submit(request(m)).wait().expect("warm-up served");
    }

    // Flood: two submitter threads per campaign queue requests
    // concurrently, then collect.
    let mut workers = Vec::new();
    for (c, h) in handles.iter().enumerate() {
        for _ in 0..THREADS_PER_CAMPAIGN {
            let h = h.clone();
            let mats = campaign_mats[c].clone();
            workers.push(std::thread::spawn(move || {
                let tickets: Vec<_> = (0..FLOOD_PER_THREAD)
                    .map(|_| h.submit(request(&mats)))
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| t.wait().expect("flood solve served"))
                    .collect::<Vec<SolveOutcome>>()
            }));
        }
    }
    let mut outcomes: Vec<SolveOutcome> = Vec::new();
    for w in workers {
        outcomes.extend(w.join().expect("submitter thread"));
    }
    assert_eq!(
        outcomes.len(),
        CAMPAIGNS * THREADS_PER_CAMPAIGN * FLOOD_PER_THREAD
    );

    for out in &outcomes {
        let golden = &solo[out.campaign as usize];
        assert_eq!(
            out.solution.phi, golden.phi,
            "campaign {} flux must be bit-identical to its solo run",
            out.campaign
        );
        assert_eq!(out.solution.iterations, golden.iterations);
        assert!(out.queue_wait_seconds >= 0.0);
    }

    for h in &handles {
        let cs = h.stats();
        assert_eq!(
            cs.completed,
            1 + (THREADS_PER_CAMPAIGN * FLOOD_PER_THREAD) as u64
        );
        assert_eq!(cs.rejected, 0);
        assert!(
            cs.plan_cache_hits > 0,
            "flood admissions must hit the shared plan cache"
        );
        assert_eq!(
            cs.epochs_run,
            3 * cs.completed,
            "fixed-iteration solves run exactly 3 epochs each"
        );
        assert!(cs.work_done > 0);
        assert!(cs.epoch_wall_seconds > 0.0);
    }

    session.shutdown();
    let stats: SessionStats = session.stats();
    assert_eq!(stats.universes_launched, 1, "one resident universe total");
    assert_eq!(stats.universes_retired, 1);
    assert_eq!(
        stats.epochs_run,
        stats.campaigns.values().map(|c| c.epochs_run).sum::<u64>()
    );
}

/// Seeded submission order used by both determinism tests: five
/// requests over three campaigns, staged while the session is paused
/// so admission order is exactly submission order.
///
/// Zero scattering makes every solve finish in exactly two epochs
/// (iteration 2 reproduces iteration 1's flux bit-for-bit, the
/// residual is 0), so the schedule is a pure function of the policy.
/// Returns the session's stats and the outcomes in submission order.
fn run_seeded_schedule(
    policy: Box<dyn jsweep::transport::AdmissionPolicy>,
    telemetry: TelemetryHandle,
) -> (SessionStats, Vec<SolveOutcome>) {
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.0);
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: SnConfig {
                grain: 16,
                max_iterations: 8,
                telemetry,
                ..Default::default()
            },
            admission: policy,
            ..Default::default()
        },
    );
    let a = session.campaign();
    let b = session.campaign();
    let c = session.campaign();
    session.pause();
    // Seeded order: A0, B0, A1, C0, C1.
    let tickets = vec![
        a.submit(request(&mats)),
        b.submit(request(&mats)),
        a.submit(request(&mats)),
        c.submit(request(&mats)),
        c.submit(request(&mats)),
    ];
    session.resume();
    let outcomes: Vec<SolveOutcome> = tickets
        .into_iter()
        .map(|t| t.wait().expect("seeded solve served"))
        .collect();
    for out in &outcomes {
        assert_eq!(out.solution.iterations, 2, "zero scattering: two epochs");
    }
    let cache = session.plan_cache();
    assert_eq!(
        (cache.misses(), cache.hits()),
        (1, 4),
        "one shape, one compile: the first admission misses, the backlog hits"
    );
    session.shutdown();
    (session.stats(), outcomes)
}

/// The epoch log as `(campaign, seq, iteration, replayed)`, where an
/// epoch replayed when it names the plan it replayed.
fn schedule(stats: &SessionStats) -> Vec<(u64, u64, usize, bool)> {
    stats
        .epoch_log
        .iter()
        .map(|e| (e.campaign, e.seq, e.iteration, e.plan_generation.is_some()))
        .collect()
}

#[test]
fn fifo_schedule_is_deterministic() {
    let (stats, _) = run_seeded_schedule(Box::new(Fifo), TelemetryHandle::default());
    // FIFO: each request runs to completion in admission order. The
    // first admission compiled the plan, so every epoch replays.
    let expected = vec![
        (0, 0, 1, true),
        (0, 0, 2, true),
        (1, 0, 1, true),
        (1, 0, 2, true),
        (0, 1, 1, true),
        (0, 1, 2, true),
        (2, 0, 1, true),
        (2, 0, 2, true),
        (2, 1, 1, true),
        (2, 1, 2, true),
    ];
    assert_eq!(schedule(&stats), expected);
}

#[test]
fn round_robin_schedule_is_deterministic() {
    let (stats, _) =
        run_seeded_schedule(Box::new(RoundRobin::default()), TelemetryHandle::default());
    // Round-robin: one epoch to the next campaign id each turn,
    // wrapping; a completed campaign drops out of the rotation.
    let expected = vec![
        (0, 0, 1, true),
        (1, 0, 1, true),
        (2, 0, 1, true),
        (0, 0, 2, true),
        (1, 0, 2, true),
        (2, 0, 2, true),
        (0, 1, 1, true),
        (2, 1, 1, true),
        (0, 1, 2, true),
        (2, 1, 2, true),
    ];
    assert_eq!(schedule(&stats), expected);
}

/// All five requests of the seeded backlog are admitted while the
/// session is paused, before any epoch runs. The plan is compiled at
/// the first admission, so that one misses the cache, compiles once and
/// books the build; the other four hit.
#[test]
fn session_compiles_the_plan_once_per_shape() {
    #[cfg(feature = "telemetry")]
    let recorder = {
        let t = Arc::new(jsweep::core::telemetry::obs::Telemetry::new());
        t.arm();
        t
    };
    #[cfg(feature = "telemetry")]
    let telemetry = TelemetryHandle::attach(recorder.clone());
    #[cfg(not(feature = "telemetry"))]
    let telemetry = TelemetryHandle::default();
    let (stats, outcomes) = run_seeded_schedule(Box::new(Fifo), telemetry);
    let misses: u64 = stats.campaigns.values().map(|c| c.plan_cache_misses).sum();
    let hits: u64 = stats.campaigns.values().map(|c| c.plan_cache_hits).sum();
    assert_eq!((misses, hits), (1, 4));
    let built: Vec<bool> = outcomes
        .iter()
        .map(|o| o.solution.coarse_build_seconds > 0.0)
        .collect();
    assert_eq!(built, [true, false, false, false, false], "one compile");
    assert!(outcomes
        .iter()
        .zip(&built)
        .all(|(o, &b)| o.solution.plan_from_cache != b));
    #[cfg(feature = "telemetry")]
    {
        use jsweep::core::telemetry::obs::EventKind;
        let compiles = recorder
            .snapshot()
            .iter()
            .flat_map(|l| l.events.iter())
            .filter(|e| e.kind == EventKind::PlanCompile)
            .count();
        assert_eq!(compiles, 1, "exactly one PlanCompile span");
    }
}

/// A ticket dropped without ever being waited on must not block
/// shutdown: the result slot is the ticket's own, and fulfilling a
/// dropped slot is a no-op, not a deadlock.
#[test]
fn dropped_ticket_never_blocks_shutdown() {
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.3);
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );
    let h = session.campaign();
    for _ in 0..3 {
        drop(h.submit(request(&mats)));
    }
    let kept = h.submit(request(&mats));
    session.shutdown();
    // Shutdown drained the admitted queue: the kept ticket resolved
    // even though its siblings' results had nowhere to go.
    kept.poll()
        .expect("kept ticket resolved by shutdown")
        .expect("kept solve served");
    let stats = session.stats();
    assert_eq!(stats.campaigns[&h.id()].completed, 4);
    assert_eq!(stats.universes_retired, stats.universes_launched);
}

/// `wait_timeout` observes "not yet" without consuming the ticket,
/// then the real result once the session serves it.
#[test]
fn wait_timeout_is_reusable() {
    use std::time::Duration;
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.3);
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );
    let h = session.campaign();
    session.pause();
    let t = h.submit(request(&mats));
    assert!(
        t.wait_timeout(Duration::from_millis(50)).is_none(),
        "paused session cannot have served the request"
    );
    session.resume();
    let out = t
        .wait_timeout(Duration::from_secs(30))
        .expect("resumed session serves the request")
        .expect("solve served");
    assert_eq!(out.campaign, h.id());
    // The result is sticky: the same ticket still observes it.
    assert!(t.poll().expect("sticky result").is_ok());
    assert!(t.wait_timeout(Duration::ZERO).is_some());
    session.shutdown();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Random interleavings of submit / pause / resume / refine from
    /// two concurrent threads, then shutdown: every ticket resolves
    /// exactly once (a solution, or a deliberate rejection — never a
    /// hang, never a lost slot).
    #[test]
    fn interleaved_commands_resolve_every_ticket(
        ops in proptest::collection::vec(0u8..6, 1..12),
        split in 0usize..12,
    ) {
        let (mesh, problem, quad) = build_world();
        let mats = materials(0.3);
        let mut session = SolverSession::launch(
            mesh,
            problem.clone(),
            quad.clone(),
            SessionOptions {
                solver: SnConfig {
                    grain: 16,
                    max_iterations: 2,
                    tolerance: 1e-14,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let split = split.min(ops.len());
        let (left, right) = ops.split_at(split);
        let halves = [left, right];
        let tickets: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = halves
                .iter()
                .map(|half| {
                    let h = session.campaign();
                    let mats = mats.clone();
                    let session = &session;
                    let quad = &quad;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for &op in *half {
                            match op {
                                0..=2 => mine.push(h.submit(request(&mats))),
                                3 => session.pause(),
                                4 => session.resume(),
                                _ => {
                                    let m = Arc::new(StructuredMesh::unit(4, 4, 4));
                                    let patches = decompose_structured(&m, (2, 2, 2), 2);
                                    let p = Arc::new(SweepProblem::build(
                                        m.as_ref(),
                                        patches,
                                        quad,
                                        &ProblemOptions::default(),
                                    ));
                                    session.refine(m, p);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("interleaving thread"))
                .collect()
        });
        // Shutdown resumes a paused session and drains admitted work.
        session.shutdown();
        for t in &tickets {
            let first = t.poll();
            proptest::prop_assert!(first.is_some(), "ticket left unresolved");
            match first.unwrap() {
                Ok(_) | Err(SessionError::Closed) | Err(SessionError::Rejected(_)) => {}
                Err(other) => panic!("unexpected resolution: {other:?}"),
            }
            // Exactly once: a second observation sees the same slot,
            // not a re-resolution.
            proptest::prop_assert!(t.poll().is_some());
        }
        let stats = session.stats();
        proptest::prop_assert_eq!(stats.universes_retired, stats.universes_launched);
    }
}

/// Refinement bumps interleaved with in-flight campaigns. Run with
/// `cargo test -- --ignored` (or the CI session job).
#[test]
#[ignore = "soak test: ~50 campaign lifecycles, run explicitly"]
fn soak_refinement_under_load() {
    const WAVES: usize = 11;
    const CAMPAIGNS_PER_WAVE: usize = 5;
    let (mesh, problem, quad) = build_world();
    let mut session = SolverSession::launch(
        mesh,
        problem.clone(),
        quad.clone(),
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );

    let mats = materials(0.3);
    let mut expected_generations = vec![problem.mesh_generation];
    let mut tickets = Vec::new();
    for wave in 0..WAVES {
        // Queue a wave of campaigns, then immediately bump the mesh —
        // the refine command must drain the wave on its old world
        // first (submits and the refine ride one ordered queue).
        for _ in 0..CAMPAIGNS_PER_WAVE {
            let h = session.campaign();
            tickets.push((wave, h.submit(request(&mats))));
        }
        if wave + 1 < WAVES {
            let new_mesh = Arc::new(StructuredMesh::unit(4, 4, 4));
            let patches = decompose_structured(&new_mesh, (2, 2, 2), 2);
            let new_problem = Arc::new(SweepProblem::build(
                new_mesh.as_ref(),
                patches,
                &quad,
                &ProblemOptions::default(),
            ));
            expected_generations.push(new_problem.mesh_generation);
            session.refine(new_mesh, new_problem);
        }
    }

    // Flux golden: the rebuilt meshes are geometrically identical, so
    // every wave's flux must match one solo reference solve.
    let golden = {
        let m = Arc::new(StructuredMesh::unit(4, 4, 4));
        let patches = decompose_structured(&m, (2, 2, 2), 2);
        let p = Arc::new(SweepProblem::build(
            m.as_ref(),
            patches,
            &quad,
            &ProblemOptions::default(),
        ));
        solve_parallel_cached(
            m,
            p,
            &quad,
            mats,
            &fixed_iteration_config(),
            &PlanCache::new(),
        )
    };

    for (wave, t) in tickets {
        let out = t.wait().expect("soak solve served");
        assert_eq!(
            out.mesh_generation, expected_generations[wave],
            "wave {wave} must run against its own mesh generation"
        );
        assert_eq!(
            out.solution.phi, golden.phi,
            "flux invariant across rebuilds"
        );
        // Every refine before this wave has been applied, and each
        // dropped the generation it superseded: the cache never holds
        // more than the live generation's plan.
        assert!(
            session.plan_cache().len() <= 1,
            "wave {wave}: a superseded plan outlived its refine barrier"
        );
    }

    session.shutdown();
    let stats = session.stats();
    // No stale-plan replay: every replayed epoch used a plan of the
    // world generation it ran against.
    let mut replays = 0;
    for e in &stats.epoch_log {
        if let Some(plan_generation) = e.plan_generation {
            replays += 1;
            assert_eq!(
                plan_generation, e.mesh_generation,
                "replayed epoch used a plan from another generation"
            );
        }
    }
    assert!(replays > 0, "soak must exercise the replay path");
    // No universe leak: every world that ran epochs was retired.
    assert_eq!(stats.universes_launched, WAVES as u64);
    assert_eq!(stats.universes_retired, stats.universes_launched);
    assert_eq!(
        stats.campaigns.len(),
        WAVES * CAMPAIGNS_PER_WAVE,
        "campaign lifecycles covered"
    );
    // The refine barrier bounds the cache across 11 generations.
    assert!(session.plan_cache().len() <= 1);
}
