//! Session stress/soak suite: a resident [`SolverSession`] serving
//! concurrent campaigns.
//!
//! * `stress_concurrent_campaigns_bit_identical` — hundreds of queued
//!   solves from multiple submitter threads; every campaign's flux is
//!   bit-identical to a solo `solve_parallel_cached` run.
//! * `fifo_schedule_is_deterministic` — one campaign's requests run
//!   to completion in submission order: an exact epoch schedule.
//! * `session_compiles_the_plan_once_per_shape` — a backlog of one
//!   shape compiles one plan, at the first admission.
//! * `request_overrides_the_session_budget` /
//!   `dropped_session_serves_what_was_submitted` — per-request
//!   iteration budget and tolerance; a dropped session resolves every
//!   ticket.
//! * `submits_racing_shutdown_resolve_every_ticket` — submitters on two
//!   threads race `shutdown()`: every kept ticket resolves `Ok` or
//!   `Closed`, and the `Ok`s are exactly what the session served.
//! * `soak_campaign_lifecycles` (`--ignored`) — 55 one-request
//!   campaigns on one universe: no leak, one plan, solo-identical flux.
//!
//! The exact round-robin epoch schedule is pinned by driving the
//! session's driver directly, in `jsweep_transport::session`'s unit
//! tests.

use jsweep::prelude::*;
use jsweep::transport::{SessionStats, SolveOutcome};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, Barrier};

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
    SolveRequest::new(mats.clone())
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
        for epoch in &out.solution.stats {
            assert!(epoch.work_done > 0 && epoch.wall_seconds > 0.0);
        }
    }

    session.shutdown();
    let stats: SessionStats = session.stats();
    for h in &handles {
        let cs = &stats.campaigns[&h.id()];
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
            epochs_of(&stats, h.id()),
            3 * cs.completed,
            "fixed-iteration solves run exactly 3 epochs each"
        );
    }
    assert_eq!(stats.universes_launched, 1, "one resident universe total");
    assert_eq!(stats.universes_retired, 1);
    assert_eq!(
        stats.epochs_run,
        stats
            .campaigns
            .keys()
            .map(|&id| epochs_of(&stats, id))
            .sum::<u64>()
    );
}

/// The epochs `campaign` ran: its unfaulted records in the epoch log.
fn epochs_of(stats: &SessionStats, campaign: u64) -> u64 {
    let log = stats.epoch_log.iter();
    log.filter(|e| e.campaign == campaign && !e.faulted).count() as u64
}

/// The epoch log as `(campaign, seq, iteration, replayed)`.
fn schedule(stats: &SessionStats) -> Vec<(u64, u64, usize, bool)> {
    stats
        .epoch_log
        .iter()
        .map(|e| (e.campaign, e.seq, e.iteration, e.replayed))
        .collect()
}

/// FIFO is round-robin's one-campaign case: three requests of one
/// campaign run to completion one after another, in submission order,
/// however their admissions interleave with the epochs. Zero
/// scattering makes every solve finish in exactly two epochs
/// (iteration 2 reproduces iteration 1's flux bit-for-bit, the
/// residual is 0); the first admission compiles the plan, so every
/// epoch replays.
#[test]
fn fifo_schedule_is_deterministic() {
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
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let a = session.campaign();
    let tickets = [(); 3].map(|_| a.submit(request(&mats)));
    for t in tickets {
        let out = t.wait().expect("seeded solve served");
        assert_eq!(out.solution.iterations, 2, "zero scattering: two epochs");
    }
    session.shutdown();
    let expected = vec![
        (0, 0, 1, true),
        (0, 0, 2, true),
        (0, 1, 1, true),
        (0, 1, 2, true),
        (0, 2, 1, true),
        (0, 2, 2, true),
    ];
    assert_eq!(schedule(&session.stats()), expected);
}

/// Five requests over three campaigns in the seeded order A0, B0, A1,
/// C0, C1. The plan is compiled at the first admission, so that one
/// misses the cache, compiles once and books the build; the other four
/// hit, however the epochs interleave with later admissions.
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
            ..Default::default()
        },
    );
    let (a, b, c) = (session.campaign(), session.campaign(), session.campaign());
    let tickets = [&a, &b, &a, &c, &c].map(|h| h.submit(request(&mats)));
    let outcomes: Vec<SolveOutcome> = tickets
        .into_iter()
        .map(|t| t.wait().expect("seeded solve served"))
        .collect();
    let cache = session.plan_cache();
    assert_eq!((cache.misses(), cache.hits()), (1, 4));
    session.shutdown();
    let stats = session.stats();
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
    // Shutdown served everything submitted before it: the kept ticket
    // resolved even though its siblings' results had nowhere to go.
    kept.wait().expect("kept solve served");
    let stats = session.stats();
    assert_eq!(stats.campaigns[&h.id()].completed, 4);
    assert_eq!(stats.universes_retired, stats.universes_launched);
}

/// A request's `max_iterations` and `tolerance` override the
/// session's for that solve alone: each solve matches, bit for bit, a
/// solo run under the config it asked for.
#[test]
fn request_overrides_the_session_budget() {
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.3);
    let converging = SnConfig {
        max_iterations: 50,
        tolerance: 1e-3,
        ..fixed_iteration_config()
    };
    let one_sweep = SnConfig {
        max_iterations: 1,
        ..fixed_iteration_config()
    };
    let solo = |cfg: &SnConfig| {
        solve_parallel_cached(
            mesh.clone(),
            problem.clone(),
            &quad,
            mats.clone(),
            cfg,
            &PlanCache::new(),
        )
    };
    let goldens = [&fixed_iteration_config(), &converging, &one_sweep].map(solo);
    let mut session = SolverSession::launch(
        mesh.clone(),
        problem.clone(),
        quad.clone(),
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );
    let h = session.campaign();
    let requests = [
        request(&mats),
        SolveRequest {
            max_iterations: Some(converging.max_iterations),
            tolerance: Some(converging.tolerance),
            ..request(&mats)
        },
        SolveRequest {
            max_iterations: Some(1),
            ..request(&mats)
        },
    ];
    let tickets = requests.map(|r| h.submit(r));
    for (t, golden) in tickets.into_iter().zip(&goldens) {
        let out = t.wait().expect("solve served");
        assert_eq!(out.solution.iterations, golden.iterations);
        assert_eq!(out.solution.phi, golden.phi);
    }
    let iterations: Vec<usize> = goldens.iter().map(|g| g.iterations).collect();
    assert_eq!(iterations[0], 3);
    assert!(
        iterations[1] > 3 && iterations[1] < 50,
        "converged on the request's tolerance"
    );
    assert_eq!(iterations[2], 1);
    session.shutdown();
    assert_eq!(session.stats().campaigns[&h.id()].completed, 3);
}

/// Dropping a session without `shutdown()` still serves everything
/// submitted before the drop and retires its universe: no ticket is
/// left for `wait()` to block on.
#[test]
fn dropped_session_serves_what_was_submitted() {
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.3);
    let golden = solve_parallel_cached(
        mesh.clone(),
        problem.clone(),
        &quad,
        mats.clone(),
        &fixed_iteration_config(),
        &PlanCache::new(),
    );
    let session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );
    let (a, b) = (session.campaign(), session.campaign());
    let tickets = [&a, &b, &a].map(|h| h.submit(request(&mats)));
    drop(session);
    for t in tickets {
        assert_eq!(
            t.wait().expect("served before the drop").solution.phi,
            golden.phi
        );
    }
    assert!(matches!(
        a.submit(request(&mats)).wait(),
        Err(SessionError::Closed)
    ));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Two threads submit through their own campaign handles, each
    /// either dropping its ticket or keeping it and waiting on it before
    /// the next submit, while the main thread shuts the session down
    /// once `head_start` submissions have returned. Every kept ticket
    /// resolves: `Ok` when it was submitted before the close (always so
    /// for the head start), `Closed` after. The `Ok` tickets are
    /// exactly the kept requests the epoch log served, every served
    /// request counts as `completed`, and no universe leaks.
    #[test]
    fn submits_racing_shutdown_resolve_every_ticket(
        ops in proptest::collection::vec(0u8..2, 1..12),
        split in 0usize..12,
        head_start in 0usize..12,
    ) {
        let (mesh, problem, quad) = build_world();
        let mats = materials(0.3);
        let mut session = SolverSession::launch(
            mesh,
            problem,
            quad,
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
        let head_start = head_start % (ops.len() + 1);
        let halves = [&ops[..split], &ops[split..]];
        let start = Barrier::new(3);
        let (returned, submits) = mpsc::channel();
        let (early, kept) = std::thread::scope(|s| {
            let workers: Vec<_> = halves
                .iter()
                .map(|half| {
                    let h = session.campaign();
                    let (mats, start, returned) = (&mats, &start, returned.clone());
                    s.spawn(move || {
                        start.wait();
                        let mut kept = Vec::new();
                        for (seq, &keep) in half.iter().enumerate() {
                            let t = h.submit(request(mats));
                            let _ = returned.send((h.id(), seq as u64));
                            if keep == 1 {
                                kept.push(((h.id(), seq as u64), t.wait()));
                            }
                        }
                        kept
                    })
                })
                .collect();
            start.wait();
            let early: BTreeSet<_> = submits.iter().take(head_start).collect();
            session.shutdown();
            let kept: Vec<_> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("submitter thread"))
                .collect();
            (early, kept)
        });
        let stats = session.stats();
        let served: BTreeSet<(u64, u64)> =
            stats.epoch_log.iter().map(|e| (e.campaign, e.seq)).collect();
        let completed: u64 = stats.campaigns.values().map(|c| c.completed).sum();
        proptest::prop_assert_eq!(completed, served.len() as u64);
        for (id, resolved) in kept {
            match resolved {
                Ok(out) => {
                    proptest::prop_assert_eq!((out.campaign, out.seq), id);
                    proptest::prop_assert!(served.contains(&id), "Ok for {:?} not served", id);
                }
                Err(SessionError::Closed) => {
                    proptest::prop_assert!(!served.contains(&id), "{:?} served and closed", id);
                    proptest::prop_assert!(!early.contains(&id), "{:?} closed before shutdown", id);
                }
                Err(other) => panic!("unexpected resolution: {other:?}"),
            }
        }
        proptest::prop_assert_eq!(stats.universes_retired, stats.universes_launched);
    }
}

/// 55 one-request campaigns, opened in waves of five over one resident
/// universe, each wave queued while the last still runs. Run with
/// `cargo test -- --ignored` (or the CI session job).
#[test]
#[ignore = "soak test: 55 campaign lifecycles, run explicitly"]
fn soak_campaign_lifecycles() {
    const WAVES: usize = 11;
    const CAMPAIGNS_PER_WAVE: usize = 5;
    let (mesh, problem, quad) = build_world();
    let mats = materials(0.3);
    let golden = solve_parallel_cached(
        mesh.clone(),
        problem.clone(),
        &quad,
        mats.clone(),
        &fixed_iteration_config(),
        &PlanCache::new(),
    );
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: fixed_iteration_config(),
            ..Default::default()
        },
    );
    let mut in_flight = Vec::new();
    for wave in 0..=WAVES {
        let queued: Vec<_> = (0..CAMPAIGNS_PER_WAVE)
            .take_while(|_| wave < WAVES)
            .map(|_| session.campaign().submit(request(&mats)))
            .collect();
        for t in std::mem::replace(&mut in_flight, queued) {
            let out = t.wait().expect("soak solve served");
            assert_eq!(out.solution.phi, golden.phi, "flux of wave {}", wave - 1);
            assert!(session.plan_cache().len() <= 1, "one shape, one plan");
        }
    }

    session.shutdown();
    let stats = session.stats();
    assert_eq!(stats.universes_launched, 1, "one resident universe");
    assert_eq!(stats.universes_retired, stats.universes_launched);
    assert_eq!(stats.campaigns.len(), WAVES * CAMPAIGNS_PER_WAVE);
    assert!(stats.campaigns.values().all(|c| c.completed == 1));
    assert!(stats.epoch_log.iter().all(|e| e.replayed && !e.faulted));
    assert!(session.plan_cache().len() <= 1);
}
