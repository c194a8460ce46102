//! Fault-injection chaos suite (requires `--features fault-inject`).
//!
//! Drives the deterministic [`FaultPlan`] harness through the resident
//! [`SolverSession`] and asserts the containment contract end to end:
//!
//! * `injected_panic_fails_one_ticket_others_bit_identical` — a worker
//!   panic resolves exactly the offending ticket `Failed` while two
//!   concurrent campaigns complete bit-identical to their solo runs,
//!   and the relaunched universe still serves plan-cache hits.
//! * `retry_policy_recovers_transient_panic` — a one-shot injected
//!   panic is absorbed by a retry budget, the rerun iteration is
//!   bit-identical, and the books record the fault, the retry and the
//!   relaunch — on the fine path and on replay.
//! * `watchdog_converts_injected_stall_into_failed_ticket` — an
//!   injected worker stall resolves the requester's ticket well inside
//!   the stall duration (the watchdog fired, the requester never
//!   waited out the sleep).
//! * `quarantine_after_consecutive_injected_faults` — K consecutive
//!   injected epoch failures quarantine the campaign: its queue
//!   flushes `Rejected`, later submissions reject at admission, other
//!   campaigns keep being served.
//! * `shutdown_during_fault_leaks_no_tickets` — dropped-without-wait
//!   tickets plus an in-flight fault, then immediate shutdown: no
//!   hang, every kept ticket resolved, every universe retired.
//! * `socket_rank_death_fails_ticket_and_recovers` — over the socket
//!   transport, a rank killed mid-epoch resolves exactly the offending
//!   ticket `Failed` with a `RankDeath` fault blaming the dead rank;
//!   after relaunch the session serves solves bit-identical to the
//!   thread-backend golden.
//! * `soak_seeded_fault_plans` (`--ignored`) — seeded plans across
//!   many sessions: every ticket resolves exactly once, no leaks.

#![cfg(feature = "fault-inject")]

use jsweep::prelude::*;
use jsweep::transport::SolveOutcome;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same small world as `tests/session.rs`: 4³ cells, 2×2×2 patches on
/// 2 simulated ranks, S2.
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

/// Fixed-iteration config (see `tests/session.rs`): every solve runs
/// exactly 3 epochs, so faulted/retried schedules are reproducible.
fn chaos_config(plan: FaultPlan) -> SnConfig {
    SnConfig {
        grain: 16,
        max_iterations: 3,
        tolerance: 1e-14,
        fault_plan: Some(Arc::new(plan)),
        ..Default::default()
    }
}

/// Solo golden for `materials(sigma_s)` under the chaos iteration
/// budget — no fault plan attached.
fn solo(sigma_s: f64) -> jsweep::transport::SnSolution {
    let (mesh, problem, quad) = build_world();
    let cfg = SnConfig {
        grain: 16,
        max_iterations: 3,
        tolerance: 1e-14,
        ..Default::default()
    };
    solve_parallel_cached(
        mesh,
        problem,
        &quad,
        materials(sigma_s),
        &cfg,
        &PlanCache::new(),
    )
}

#[test]
fn injected_panic_fails_one_ticket_others_bit_identical() {
    let golden_a = solo(0.2);
    let golden_b = solo(0.4);

    let (mesh, problem, quad) = build_world();
    // First compute of patch 0 anywhere panics. Campaign F submits
    // first and has the lowest id, so round-robin runs its epoch first
    // whatever has been admitted by then: the panic lands in F's
    // first epoch.
    let plan = FaultPlan::builder().panic_on_compute(0, 1).build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: chaos_config(plan),
            ..Default::default()
        },
    );
    let f = session.campaign();
    let a = session.campaign();
    let b = session.campaign();

    let t_f = f.submit(SolveRequest::new(materials(0.3)));
    let t_a = a.submit(SolveRequest::new(materials(0.2)));
    let t_b = b.submit(SolveRequest::new(materials(0.4)));

    // Exactly the offending ticket fails, with a full blame chain.
    let err = t_f.wait().expect_err("injected panic must fail the ticket");
    match err {
        SessionError::Failed(report) => {
            assert_eq!(report.campaign, f.id());
            assert_eq!(report.seq, 0);
            assert_eq!(report.iteration, 1, "panic lands in the first iteration");
            assert_eq!(report.retries, 0, "default policy spends no retries");
            assert_eq!(report.fault.kind, FaultKind::Panic);
            assert_eq!(
                report.fault.program.map(|p| p.patch.0),
                Some(0),
                "fault blames the injected patch"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // The other campaigns complete on the relaunched universe,
    // bit-identical to their solo runs.
    let out_a = t_a.wait().expect("campaign A served after relaunch");
    let out_b = t_b.wait().expect("campaign B served after relaunch");
    assert_eq!(out_a.solution.phi, golden_a.phi);
    assert_eq!(out_b.solution.phi, golden_b.phi);

    // The plan compiled at the first admission keys on the mesh
    // generation, not the universe, so follow-up admissions are cache
    // hits.
    let out_a2 = a
        .submit(SolveRequest::new(materials(0.2)))
        .wait()
        .expect("post-relaunch solve served");
    let out_b2 = b
        .submit(SolveRequest::new(materials(0.4)))
        .wait()
        .expect("post-relaunch solve served");
    assert_eq!(out_a2.solution.phi, golden_a.phi);
    assert_eq!(out_b2.solution.phi, golden_b.phi);

    session.shutdown();
    let stats = session.stats();
    assert!(
        stats.campaigns[&a.id()].plan_cache_hits > 0,
        "plan cache must survive the relaunch"
    );
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.relaunches, 1);
    assert_eq!(
        stats.universes_launched, 2,
        "faulted universe plus its replacement"
    );
    assert_eq!(stats.universes_retired, stats.universes_launched);
    let faulted: Vec<_> = stats.epoch_log.iter().filter(|e| e.faulted).collect();
    assert_eq!(faulted.len(), 1, "exactly one epoch faulted");
    assert_eq!(faulted[0].campaign, f.id());
    let cf = stats.campaigns.get(&f.id()).expect("campaign F stats");
    assert_eq!(cf.failed, 1);
    assert_eq!(cf.faults, 1);
    assert_eq!(cf.completed, 0);
}

/// On the fine path and on replay: the panic lands in whichever kind
/// of epoch `coarsen` selects, and the fold is bit-identical either way.
#[test]
fn retry_policy_recovers_transient_panic() {
    let golden = solo(0.3);
    for coarsen in [false, true] {
        retry_recovers(coarsen, &golden);
    }
}

fn retry_recovers(coarsen: bool, golden: &jsweep::transport::SnSolution) {
    let (mesh, problem, quad) = build_world();
    let plan = FaultPlan::builder().panic_on_compute(0, 1).build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: SnConfig {
                coarsen,
                ..chaos_config(plan)
            },
            ..Default::default()
        },
    );
    let c = session.campaign();
    let out = c
        .submit(SolveRequest {
            max_retries: Some(1),
            ..SolveRequest::new(materials(0.3))
        })
        .wait()
        .expect("one retry absorbs the one-shot panic");
    assert_eq!(
        out.solution.phi, golden.phi,
        "the rerun iteration must be bit-identical"
    );
    assert_eq!(out.solution.iterations, golden.iterations);

    session.shutdown();
    let stats = session.stats();
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.relaunches, 1);
    assert_eq!(stats.universes_retired, stats.universes_launched);
    let cs = stats.campaigns.get(&c.id()).expect("campaign stats");
    assert_eq!(cs.completed, 1);
    assert_eq!(cs.failed, 0);
    assert_eq!(cs.faults, 1);
    assert_eq!(cs.retries, 1);
    // The log shows the faulted attempt at iteration 1 followed by a
    // clean 3-epoch solve on the path `coarsen` selects.
    let marks: Vec<_> = stats
        .epoch_log
        .iter()
        .map(|e| (e.iteration, e.faulted, e.replayed))
        .collect();
    assert_eq!(
        marks,
        vec![
            (1, true, false),
            (1, false, coarsen),
            (2, false, coarsen),
            (3, false, coarsen)
        ]
    );
}

#[test]
fn watchdog_converts_injected_stall_into_failed_ticket() {
    const STALL: Duration = Duration::from_millis(1500);
    const DEADLINE: Duration = Duration::from_millis(200);

    let (mesh, problem, quad) = build_world();
    // Rank 0's only worker sleeps through its first claim batch while
    // holding claims; the watchdog must blame it long before the sleep
    // ends.
    let plan = FaultPlan::builder().stall_worker(0, 0, 1, STALL).build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: SnConfig {
                workers_per_rank: 1,
                watchdog: Some(DEADLINE),
                ..chaos_config(plan)
            },
            ..Default::default()
        },
    );
    let c = session.campaign();
    let t = c.submit(SolveRequest::new(materials(0.3)));
    let t0 = Instant::now();
    // The watchdog must resolve the ticket, not wait out the stall.
    let resolved = t.wait();
    let elapsed = t0.elapsed();
    match resolved {
        Err(SessionError::Failed(report)) => {
            assert_eq!(report.fault.kind, FaultKind::Stall);
            assert_eq!(report.fault.rank, 0);
            assert!(
                report.fault.payload.contains("watchdog"),
                "stall payload names the watchdog: {}",
                report.fault.payload
            );
        }
        other => panic!("expected Failed(Stall), got {other:?}"),
    }
    assert!(
        elapsed < STALL,
        "ticket resolved in {elapsed:?} — watchdog must beat the {STALL:?} stall"
    );
    // Shutdown joins the stalled worker (it wakes, sees stop, exits).
    session.shutdown();
    let stats = session.stats();
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.universes_retired, stats.universes_launched);
}

#[test]
fn quarantine_after_consecutive_injected_faults() {
    let (mesh, problem, quad) = build_world();
    // Fail campaign 0's first two epoch attempts at the session tier.
    let plan = FaultPlan::builder()
        .fail_epoch(0, 0)
        .fail_epoch(0, 1)
        .build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: chaos_config(plan),
            quarantine_after: 2,
            ..Default::default()
        },
    );
    let c = session.campaign();
    let healthy = session.campaign();
    assert_eq!(c.id(), 0, "the plan targets campaign id 0");

    let mats = materials(0.3);
    let r0 = c.submit(SolveRequest::new(mats.clone()));
    let r1 = c.submit(SolveRequest::new(mats.clone()));
    let r2 = c.submit(SolveRequest::new(mats.clone()));
    let r3 = c.submit(SolveRequest::new(mats.clone()));

    // First two requests burn the injected failures (no retry budget).
    for t in [r0, r1] {
        match t.wait() {
            Err(SessionError::Failed(report)) => {
                assert_eq!(report.fault.kind, FaultKind::Injected);
                assert_eq!(report.campaign, 0);
            }
            other => panic!("expected Failed(Injected), got {other:?}"),
        }
    }
    // The second consecutive fault quarantined the campaign: the rest
    // of its queue flushed, and new submissions reject at admission.
    for t in [r2, r3] {
        match t.wait() {
            Err(SessionError::Rejected(why)) => {
                assert!(why.contains("quarantined"), "reject reason: {why}")
            }
            other => panic!("expected Rejected by quarantine, got {other:?}"),
        }
    }
    match c.submit(SolveRequest::new(mats.clone())).wait() {
        Err(SessionError::Rejected(why)) => {
            assert!(why.contains("quarantined"), "reject reason: {why}")
        }
        other => panic!("expected admission-time rejection, got {other:?}"),
    }

    // The healthy campaign is untouched. It submits only now, so no
    // universe is launched before campaign 0's faults (injected ones
    // fire before the world runs an epoch).
    healthy
        .submit(SolveRequest::new(mats.clone()))
        .wait()
        .expect("healthy campaign keeps being served");

    session.shutdown();
    let stats = session.stats();
    let cs = stats.campaigns.get(&0).expect("quarantined campaign stats");
    assert!(cs.quarantined);
    assert_eq!(cs.failed, 2);
    assert_eq!(cs.rejected, 3, "two flushed plus one at admission");
    assert_eq!(cs.completed, 0);
    // Injected failures fire before the world ever launches an epoch
    // for campaign 0, so no universe existed to relaunch for them.
    assert_eq!(stats.relaunches, 0);
    assert_eq!(stats.universes_launched, 1, "only the healthy solve ran");
    assert_eq!(stats.universes_retired, stats.universes_launched);
}

#[test]
fn shutdown_during_fault_leaks_no_tickets() {
    let (mesh, problem, quad) = build_world();
    let plan = FaultPlan::builder().panic_on_compute(0, 1).build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: chaos_config(plan),
            ..Default::default()
        },
    );
    let a = session.campaign();
    let b = session.campaign();

    // Campaign a submits first and has the lower id: its first epoch
    // runs first and takes the panic.
    let mats = materials(0.3);
    let kept: Vec<_> = (0..2)
        .flat_map(|_| {
            [
                a.submit(SolveRequest::new(mats.clone())),
                b.submit(SolveRequest::new(mats.clone())),
            ]
        })
        .collect();
    // Dropped-without-wait tickets must not block shutdown.
    drop(a.submit(SolveRequest::new(mats.clone())));
    drop(b.submit(SolveRequest::new(mats.clone())));

    // Shutdown serves everything submitted before it — including the
    // faulting request and the relaunch it forces — then joins
    // everything.
    session.shutdown();

    let mut failed = 0;
    for t in kept {
        match t.wait() {
            Ok(_) => {}
            Err(SessionError::Failed(_)) => failed += 1,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(failed, 1, "exactly the offending request failed");
    let stats = session.stats();
    assert_eq!(stats.faults, 1);
    assert_eq!(
        stats.universes_retired, stats.universes_launched,
        "no universe leaked across the fault"
    );
}

/// Over the UNIX-socket transport, killing a rank mid-epoch must fail
/// exactly the offending ticket with a [`FaultKind::RankDeath`] fault
/// blaming the dead rank (its peers observe the raw EOF), and the
/// relaunched socket world must serve follow-up solves bit-identical
/// to the thread-backend golden — the cross-transport determinism pin.
#[test]
fn socket_rank_death_fails_ticket_and_recovers() {
    let golden = solo(0.3);

    let (mesh, problem, quad) = build_world();
    // Rank 1 dies on its second epoch entry: iteration 1 completes,
    // iteration 2 kills it while rank 0 is mid-epoch.
    let plan = FaultPlan::builder().kill_rank(1, 2).build();
    let mut session = SolverSession::launch(
        mesh,
        problem,
        quad,
        SessionOptions {
            solver: SnConfig {
                transport: TransportKind::Socket,
                ..chaos_config(plan)
            },
            ..Default::default()
        },
    );
    let c = session.campaign();

    let err = c
        .submit(SolveRequest::new(materials(0.3)))
        .wait()
        .expect_err("rank death must fail the ticket");
    match err {
        SessionError::Failed(report) => {
            assert_eq!(report.fault.kind, FaultKind::RankDeath);
            assert_eq!(
                report.fault.rank, 1,
                "blame the killed rank, not the observer"
            );
            assert_eq!(report.iteration, 2, "death lands in the second iteration");
            assert_eq!(
                report.fault.program, None,
                "no program to blame for a death"
            );
        }
        other => panic!("expected Failed(RankDeath), got {other:?}"),
    }

    // The relaunch stood up a fresh socket world; the kill spec is
    // spent, so the retry runs clean — and must match the thread-backend
    // golden bit for bit.
    let out = c
        .submit(SolveRequest::new(materials(0.3)))
        .wait()
        .expect("session recovers on a fresh socket world");
    assert_eq!(
        out.solution.phi, golden.phi,
        "socket solve must be bit-identical to the thread-backend golden"
    );

    session.shutdown();
    let stats = session.stats();
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.relaunches, 1);
    assert_eq!(
        stats.universes_launched, 2,
        "dead socket world plus its replacement"
    );
    assert_eq!(stats.universes_retired, stats.universes_launched);
    let cs = stats.campaigns.get(&c.id()).expect("campaign stats");
    assert_eq!(cs.failed, 1);
    assert_eq!(cs.completed, 1);
}

/// Seeded chaos soak: many sessions, each with a seeded one-panic
/// plan at an unpredictable point, mixed retry budgets. Every ticket
/// must resolve exactly once and every universe must retire. Run with
/// `cargo test --features fault-inject -- --ignored`.
#[test]
#[ignore = "seeded soak: ~20 session lifecycles, run explicitly"]
fn soak_seeded_fault_plans() {
    const SEEDS: u64 = 20;
    const REQUESTS: usize = 6;
    for seed in 0..SEEDS {
        let (mesh, problem, quad) = build_world();
        let plan = FaultPlan::seeded(seed, 8, 200).build();
        let mut session = SolverSession::launch(
            mesh,
            problem,
            quad,
            SessionOptions {
                solver: chaos_config(plan),
                ..Default::default()
            },
        );
        let a = session.campaign();
        let b = session.campaign();
        let mats = materials(0.3);
        let tickets: Vec<_> = (0..REQUESTS)
            .map(|i| {
                let h = if i % 2 == 0 { &a } else { &b };
                h.submit(SolveRequest {
                    max_retries: (i % 3 == 0).then_some(1),
                    ..SolveRequest::new(mats.clone())
                })
            })
            .collect();
        // A lost ticket hangs here (CI bounds the job's time); a
        // doubly resolved one panics the driver at its second fulfil.
        let outcomes: Vec<Result<SolveOutcome, SessionError>> =
            tickets.into_iter().map(|t| t.wait()).collect();
        for out in &outcomes {
            if let Err(e) = out {
                assert!(
                    matches!(e, SessionError::Failed(_)),
                    "seed {seed}: only fault-failures allowed, got {e:?}"
                );
            }
        }
        session.shutdown();
        let stats = session.stats();
        assert_eq!(
            stats.universes_retired, stats.universes_launched,
            "seed {seed}: universe leak"
        );
    }
}
