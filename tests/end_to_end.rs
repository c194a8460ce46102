//! Cross-crate integration tests: the full JSweep stack (mesh →
//! decomposition → DAG → runtime → physics) against the serial golden
//! solver, across mesh families, kernels, decompositions and
//! termination detectors.

use jsweep::core::engine::CLAIM_BATCH;
use jsweep::graph::coarse::simulate_clusters;
use jsweep::prelude::*;
use jsweep::transport::kobayashi;
use std::sync::Arc;

fn assert_flux_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * y.abs().max(1e-30),
            "flux mismatch at {i}: {x} vs {y}"
        );
    }
}

fn config() -> SnConfig {
    SnConfig {
        max_iterations: 6,
        tolerance: 1e-10,
        grain: 32,
        workers_per_rank: 2,
        ..Default::default()
    }
}

#[test]
fn structured_three_ranks_matches_serial() {
    let mesh = Arc::new(StructuredMesh::unit(9, 9, 9));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        729,
        Material::uniform(1, 1.2, 0.6, 1.0),
    ));
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &config());
    let patches = decompose_structured(&mesh, (3, 3, 3), 3);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    let par = solve_parallel(mesh.clone(), prob, &quad, mats, &config());
    assert_flux_close(&par.phi, &serial.phi, 1e-11);
}

#[test]
fn kobayashi_parallel_matches_serial_dd() {
    let k = kobayashi::kobayashi(12, 0.5);
    let mesh = Arc::new(k.mesh);
    let mats = Arc::new(k.materials);
    let quad = QuadratureSet::sn(2);
    let mut cfg = config();
    cfg.kernel = KernelKind::DiamondDifference;
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &cfg);
    let patches = decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    let par = solve_parallel(mesh.clone(), prob, &quad, mats, &cfg);
    assert_flux_close(&par.phi, &serial.phi, 1e-11);
}

#[test]
fn tet_ball_multigroup_matches_serial() {
    let mesh = Arc::new(jsweep::mesh::tetgen::ball(3, 1.0));
    let n = mesh.num_cells();
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        n,
        Material {
            sigma_t: vec![1.0, 2.0],
            sigma_s: vec![0.5, 0.8],
            source: vec![1.0, 0.5],
        },
    ));
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &config());
    let patches = decompose_unstructured(mesh.as_ref(), 64, 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    let par = solve_parallel(mesh.clone(), prob, &quad, mats, &config());
    assert_flux_close(&par.phi, &serial.phi, 1e-11);
}

#[test]
fn safra_and_counting_terminations_agree() {
    let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        216,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let patches = decompose_structured(&mesh, (3, 3, 3), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    let mut cfg_counting = config();
    cfg_counting.termination = TerminationKind::Counting;
    let mut cfg_safra = config();
    cfg_safra.termination = TerminationKind::Safra;
    let a = solve_parallel(
        mesh.clone(),
        prob.clone(),
        &quad,
        mats.clone(),
        &cfg_counting,
    );
    let b = solve_parallel(mesh.clone(), prob, &quad, mats, &cfg_safra);
    assert_eq!(a.phi, b.phi, "termination protocol must not change physics");
}

#[test]
fn every_priority_strategy_gives_identical_flux() {
    // Scheduling order must never change the converged physics.
    let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        216,
        Material::uniform(1, 1.0, 0.5, 2.0),
    ));
    let mut reference: Option<Vec<f64>> = None;
    for strat in [
        PriorityStrategy::Bfs,
        PriorityStrategy::Ldcp,
        PriorityStrategy::Slbd,
    ] {
        let patches = decompose_structured(&mesh, (3, 3, 3), 2);
        let prob = Arc::new(SweepProblem::build(
            mesh.as_ref(),
            patches,
            &quad,
            &ProblemOptions {
                vertex_strategy: strat,
                patch_strategy: strat,
                ..Default::default()
            },
        ));
        let sol = solve_parallel(mesh.clone(), prob, &quad, mats.clone(), &config());
        match &reference {
            None => reference = Some(sol.phi),
            Some(r) => assert_flux_close(&sol.phi, r, 1e-12),
        }
    }
}

#[test]
fn grain_does_not_change_physics() {
    let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        216,
        Material::uniform(1, 1.0, 0.3, 1.0),
    ));
    let patches = decompose_structured(&mesh, (2, 2, 2), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    let mut reference: Option<Vec<f64>> = None;
    for grain in [1, 7, 64, 100_000] {
        let mut cfg = config();
        cfg.grain = grain;
        let sol = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        match &reference {
            None => reference = Some(sol.phi),
            Some(r) => assert_flux_close(&sol.phi, r, 1e-12),
        }
    }
}

#[test]
fn worker_count_does_not_change_physics() {
    let mesh = Arc::new(jsweep::mesh::tetgen::cube(2, 1.0));
    let n = mesh.num_cells();
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        n,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let patches = decompose_unstructured(mesh.as_ref(), 12, 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    let mut reference: Option<Vec<f64>> = None;
    for workers in [1, 2, 4] {
        let mut cfg = config();
        cfg.workers_per_rank = workers;
        let sol = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        match &reference {
            None => reference = Some(sol.phi),
            Some(r) => assert_eq!(&sol.phi, r, "workers={workers}"),
        }
    }
}

#[test]
fn coarse_replay_bit_identical_structured_both_terminations() {
    // §V-E golden: with coarsen on, every iteration runs on the
    // coarsened graph, yet the flux must equal the fine path *bit for
    // bit* — the replay executes the same cells with the same inputs.
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let patches = decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    for termination in [TerminationKind::Counting, TerminationKind::Safra] {
        let mut fine_cfg = config();
        fine_cfg.termination = termination;
        fine_cfg.coarsen = false;
        let mut coarse_cfg = fine_cfg.clone();
        coarse_cfg.coarsen = true;
        let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
        let coarse = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &coarse_cfg);
        assert_eq!(
            fine.phi, coarse.phi,
            "replay flux must be bit-identical ({termination:?})"
        );
        assert_eq!(fine.iterations, coarse.iterations);
        assert!(coarse.iterations >= 2, "need replay iterations to compare");
        assert!(coarse.coarse_build_seconds > 0.0, "plan was never built");
        assert_eq!(fine.coarse_build_seconds, 0.0);
        // Both paths complete the same committed workload per
        // iteration. (Compute-*call* counts are scheduling noise —
        // spurious activations — and are compared in the bench, not
        // asserted here.)
        for (f, c) in fine.stats.iter().zip(&coarse.stats) {
            assert_eq!(f.work_done, c.work_done);
        }
    }
}

#[test]
fn coarse_replay_bit_identical_unstructured_both_terminations() {
    let mesh = Arc::new(jsweep::mesh::tetgen::ball(3, 1.0));
    let n = mesh.num_cells();
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        n,
        Material {
            sigma_t: vec![1.0, 2.0],
            sigma_s: vec![0.5, 0.8],
            source: vec![1.0, 0.5],
        },
    ));
    let patches = decompose_unstructured(mesh.as_ref(), 64, 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    for termination in [TerminationKind::Counting, TerminationKind::Safra] {
        let mut fine_cfg = config();
        fine_cfg.termination = termination;
        fine_cfg.coarsen = false;
        let mut coarse_cfg = fine_cfg.clone();
        coarse_cfg.coarsen = true;
        let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
        let coarse = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &coarse_cfg);
        assert_eq!(
            fine.phi, coarse.phi,
            "replay flux must be bit-identical on tets ({termination:?})"
        );
        assert!(coarse.iterations >= 2);
    }
}

#[test]
fn coarse_replay_bit_identical_deformed_with_cycle_breaking() {
    // Broken upwind edges must be excluded identically from the fine
    // DAG and the replayed coarse graph.
    use jsweep::mesh::deformed::DeformedMesh;
    let mesh = Arc::new(DeformedMesh::jittered(5, 5, 5, 0.3, 23));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        125,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let mut patches = jsweep::mesh::partition::rcb(mesh.as_ref(), 4);
    patches.distribute((0..4).map(|p| (p % 2) as u32).collect(), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            check_cycles: true,
            ..Default::default()
        },
    ));
    let mut fine_cfg = config();
    fine_cfg.coarsen = false;
    let mut coarse_cfg = fine_cfg.clone();
    coarse_cfg.coarsen = true;
    let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
    let coarse = solve_parallel(mesh.clone(), prob, &quad, mats, &coarse_cfg);
    assert_eq!(fine.phi, coarse.phi);
}

#[test]
fn plan_lifecycle_golden_fresh_cached_octant_shared() {
    // The plan-lifecycle golden: phi must be bit-identical across
    // (a) a fresh plan compiled for this solve, (b) a cached plan served
    // by the PlanCache on a second solve, and (c) octant-shared
    // canonical-trace replay (S4: 3 member angles per octant replay one
    // canonical trace) — all against the fine path.
    use jsweep::transport::PlanCache;
    let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
    let quad = QuadratureSet::sn(4); // 24 angles, 3 per octant
    let mats = Arc::new(MaterialSet::homogeneous(
        216,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let build = |share: bool| {
        Arc::new(SweepProblem::build(
            mesh.as_ref(),
            decompose_structured(&mesh, (3, 3, 3), 2),
            &quad,
            &ProblemOptions {
                share_octant_dags: share,
                ..Default::default()
            },
        ))
    };
    let shared = build(true);
    let owned = build(false);

    let mut fine_cfg = config();
    fine_cfg.coarsen = false;
    let fine = solve_parallel(mesh.clone(), shared.clone(), &quad, mats.clone(), &fine_cfg);

    // (a) fresh plan, octant-shared canonical traces (c).
    let fresh = solve_parallel(mesh.clone(), shared.clone(), &quad, mats.clone(), &config());
    assert_eq!(
        fine.phi, fresh.phi,
        "fresh plan must replay bit-identically"
    );
    assert!(!fresh.plan_from_cache);

    // (b) cached plan on the second solve.
    let cache = PlanCache::new();
    let first = jsweep::transport::solve_parallel_cached(
        mesh.clone(),
        shared.clone(),
        &quad,
        mats.clone(),
        &config(),
        &cache,
    );
    assert!(!first.plan_from_cache, "first solve compiles");
    assert!(first.coarse_build_seconds > 0.0);
    assert_eq!(cache.len(), 1);
    let second = jsweep::transport::solve_parallel_cached(
        mesh.clone(),
        shared.clone(),
        &quad,
        mats.clone(),
        &config(),
        &cache,
    );
    assert!(second.plan_from_cache, "second solve must hit the cache");
    assert_eq!(
        second.coarse_build_seconds, 0.0,
        "a cached plan is not re-compiled"
    );
    assert_eq!(fine.phi, first.phi);
    assert_eq!(
        fine.phi, second.phi,
        "cached replay must stay bit-identical"
    );
    assert_eq!(cache.len(), 1, "second solve must not insert a new plan");

    // Octant sharing vs per-angle plans: same physics, ~3x less plan
    // memory at S4 (one compiled task set per octant instead of per
    // angle).
    let unshared = solve_parallel(mesh.clone(), owned.clone(), &quad, mats.clone(), &config());
    assert_eq!(fine.phi, unshared.phi);
    let grain = config().grain;
    let traces_shared = simulate_clusters(&shared, grain, CLAIM_BATCH);
    let traces_owned = simulate_clusters(&owned, grain, CLAIM_BATCH);
    let plan_shared = jsweep::transport::replay::build_plan(&shared, &traces_shared);
    let plan_owned = jsweep::transport::replay::build_plan(&owned, &traces_owned);
    assert_eq!(plan_shared.num_distinct_tasks(), 8 * shared.num_patches());
    assert_eq!(plan_owned.num_distinct_tasks(), 24 * owned.num_patches());
    let ratio = plan_owned.memory_bytes() as f64 / plan_shared.memory_bytes() as f64;
    assert!(
        ratio > 2.5,
        "octant sharing should cut plan memory ~num_angles/8-fold, got {ratio:.2}x"
    );
}

#[test]
fn plan_is_deterministic_and_fixes_every_iteration_stream_count() {
    // The plan is a pure function of (problem, grain): the simulated
    // execution repeats itself exactly, and since every coarse remote
    // edge is one stream, every replayed iteration of every solve moves
    // exactly as many streams as the plan has remote coarse edges —
    // counted once per member angle, each of which replays its
    // canonical angle's tasks.
    use jsweep::transport::replay::build_plan;
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(4);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (4, 4, 2), 2),
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let cfg = SnConfig {
        max_iterations: 3,
        tolerance: -1.0,
        ..config()
    };
    let clusters = |traces: &[Vec<jsweep::graph::coarse::ClusterTrace>]| -> Vec<Vec<u32>> {
        traces
            .iter()
            .flat_map(|per_patch| per_patch.iter().flat_map(|t| t.clusters.iter().cloned()))
            .collect()
    };
    let traces = simulate_clusters(&prob, cfg.grain, CLAIM_BATCH);
    assert_eq!(
        clusters(&traces),
        clusters(&simulate_clusters(&prob, cfg.grain, CLAIM_BATCH))
    );
    let plan = build_plan(&prob, &traces);
    let coarse_edges: usize = plan
        .tasks
        .iter()
        .flatten()
        .map(|t| t.coarse.remote.iter().map(Vec::len).sum::<usize>())
        .sum();
    assert!(
        coarse_edges > 0,
        "a 2-rank, 16-patch problem has remote edges"
    );
    let mut reference: Option<Vec<f64>> = None;
    for solve in 0..2 {
        let sol = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        assert_eq!(sol.iterations, 3);
        for (i, s) in sol.stats.iter().enumerate() {
            assert_eq!(
                (s.streams_local + s.streams_sent) as usize,
                coarse_edges,
                "solve {solve}, iteration {i}: one stream per coarse remote edge"
            );
        }
        let first = reference.get_or_insert_with(|| sol.phi.clone());
        assert_eq!(&sol.phi, first);
    }
}

#[test]
fn refinement_between_solves_rebuilds_the_plan() {
    // Generation-stamp invalidation: a refined mesh carries a fresh
    // stamp, so the rebuilt problem misses the cache and its solve
    // compiles a new plan instead of replaying the stale one.
    use jsweep::mesh::refine::refine_structured;
    use jsweep::transport::{solve_parallel_cached, PlanCache};
    let cache = PlanCache::new();
    let quad = QuadratureSet::sn(2);

    let coarse_mesh = Arc::new(StructuredMesh::unit(4, 4, 4));
    let mats = Arc::new(MaterialSet::homogeneous(
        64,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let prob = Arc::new(SweepProblem::build(
        coarse_mesh.as_ref(),
        decompose_structured(&coarse_mesh, (2, 2, 2), 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let a = solve_parallel_cached(
        coarse_mesh.clone(),
        prob.clone(),
        &quad,
        mats,
        &config(),
        &cache,
    );
    assert!(!a.plan_from_cache);
    assert_eq!(cache.len(), 1);

    // Refine: 4^3 -> 8^3 cells, fresh generation stamp.
    let fine_mesh = Arc::new(refine_structured(&coarse_mesh));
    assert!(fine_mesh.generation() > coarse_mesh.generation());
    let fine_mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let fine_prob = Arc::new(SweepProblem::build(
        fine_mesh.as_ref(),
        decompose_structured(&fine_mesh, (4, 4, 4), 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let b = solve_parallel_cached(
        fine_mesh.clone(),
        fine_prob.clone(),
        &quad,
        fine_mats.clone(),
        &config(),
        &cache,
    );
    assert!(
        !b.plan_from_cache,
        "refinement must invalidate: the refined solve compiles afresh"
    );
    assert!(b.coarse_build_seconds > 0.0, "a new plan was compiled");
    assert_eq!(
        cache.len(),
        2,
        "old and new plans coexist under distinct keys"
    );

    // And the refined problem's plan is genuinely reusable.
    let c = solve_parallel_cached(
        fine_mesh.clone(),
        fine_prob,
        &quad,
        fine_mats,
        &config(),
        &cache,
    );
    assert!(c.plan_from_cache);
    assert_eq!(b.phi, c.phi);

    // The superseded plan's generation can never be looked up again;
    // the eviction hook reclaims it for refinement loops.
    let evicted = cache.retain_generations(&[fine_mesh.generation()]);
    assert_eq!(evicted, 1, "exactly the stale coarse-mesh plan is dropped");
    assert_eq!(cache.len(), 1);
}

#[test]
fn des_and_threaded_replay_consume_identical_coarse_graphs() {
    // ROADMAP cross-check: des::simulate_coarse and the threaded replay
    // both consume build_coarse output. On the *same* traces the solver
    // compiles its plan from, their compute-call accounting must agree:
    // the DES executes exactly one compute call per coarse vertex (plus
    // one spurious initial activation per task that starts with no
    // ready cluster), and the threaded plan schedules exactly the same
    // coarse vertices.
    use jsweep::graph::coarse::{build_coarse, CoarsenedTask};
    use jsweep_des::simulate_coarse;
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (4, 4, 4), 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let traces = simulate_clusters(&prob, config().grain, CLAIM_BATCH);

    let tasks: Vec<Vec<CoarsenedTask>> = (0..prob.num_angles)
        .map(|a| build_coarse(&prob.subs[a], &traces[a]))
        .collect();
    let total_clusters: usize = tasks
        .iter()
        .flat_map(|per_patch| per_patch.iter())
        .map(|t| t.num_clusters())
        .sum();
    let sourceless: usize = tasks
        .iter()
        .flat_map(|per_patch| per_patch.iter())
        .filter(|t| !t.in_degree.contains(&0))
        .count();

    let machine = MachineModel::cluster(2, 2);
    let des = simulate_coarse(&prob, &tasks, &machine);
    assert_eq!(des.vertices, prob.total_vertices);
    // Every coarse vertex executes in exactly one productive compute
    // call; the only extra calls are spurious initial activations of
    // tasks that start with no ready cluster (at most one each, and
    // none when a task's inputs arrive before a worker claims it).
    assert!(
        (total_clusters..=total_clusters + sourceless).contains(&(des.compute_calls as usize)),
        "DES compute calls {} outside [{total_clusters}, {}]",
        des.compute_calls,
        total_clusters + sourceless
    );

    // The threaded plan compiled from the same traces replays exactly
    // the same coarse vertices, one per productive compute call (the
    // replay program asserts clusters are non-empty).
    let plan = jsweep::transport::replay::build_plan(&prob, &traces);
    assert_eq!(plan.num_coarse_vertices(), total_clusters);
}

#[test]
fn deformed_mesh_sweeps_complete_with_cycle_breaking() {
    use jsweep::graph::{cycles, Subgraph, SweepState};

    let mesh = jsweep::mesh::deformed::DeformedMesh::jittered(6, 6, 6, 0.35, 11);
    let quad = QuadratureSet::sn(2);
    let patches = PatchSet::single(mesh.num_cells());
    for (a, o) in quad.iter() {
        let broken = cycles::broken_edges_for_direction(&mesh, o.dir);
        let sub = Subgraph::build_all(&mesh, &patches, a, o.dir, &broken).swap_remove(0);
        let mut st = SweepState::with_priorities(&sub, &vec![0; sub.num_vertices()]);
        while !st.is_complete() {
            let cluster = st.pop_cluster(&sub, 64, |_, _| {});
            assert!(
                !cluster.is_empty(),
                "deadlock on deformed mesh, direction {:?} ({} broken edges)",
                o.dir,
                broken.len()
            );
        }
    }
}

#[test]
fn des_and_threaded_runtime_compute_the_same_vertex_count() {
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let patches = decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    // DES vertex count.
    let machine = MachineModel::cluster(2, 2);
    let des = simulate(&prob, &machine, &SimOptions::default());
    // Threaded-runtime vertex count: one sweep = one source iteration
    // with zero scattering.
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.0, 1.0),
    ));
    let mut cfg = config();
    cfg.max_iterations = 1;
    let sol = solve_parallel(mesh.clone(), prob, &quad, mats, &cfg);
    let threaded_vertices: u64 = sol.stats.iter().map(|s| s.work_done).sum();
    assert_eq!(des.vertices, threaded_vertices);
}

#[test]
fn deformed_mesh_parallel_matches_serial_with_cycle_breaking() {
    use jsweep::mesh::deformed::DeformedMesh;
    let mesh = Arc::new(DeformedMesh::jittered(6, 6, 6, 0.3, 17));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        216,
        Material::uniform(1, 1.0, 0.4, 1.0),
    ));
    let cfg = config();
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &cfg);
    let patches = jsweep::mesh::partition::rcb(mesh.as_ref(), 8);
    let mut patches = patches;
    patches.distribute((0..8).map(|p| (p % 2) as u32).collect(), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            check_cycles: true,
            ..Default::default()
        },
    ));
    let par = solve_parallel(mesh.clone(), prob, &quad, mats, &cfg);
    assert_flux_close(&par.phi, &serial.phi, 1e-11);
    assert!(par.phi.iter().all(|&x| x > 0.0));
}

/// The reference the resident runtime is pinned against: the same
/// source iteration, but every iteration launches a fresh universe —
/// every program is new and armed by exactly one `reset` — runs one
/// epoch and shuts down, where the resident universe arms the same
/// programs N times. Mirrors the solver's loop (emission density, a
/// plan compiled up front and replayed under `coarsen`, relative-L2
/// stop), so "`reset` leaves no residue of earlier epochs" stays pinned
/// bit for bit. Returns the flux and one aggregated `RunStats` per
/// iteration.
fn respawned_reference<T: SweepTopology + Send + Sync + 'static>(
    mesh: &Arc<T>,
    prob: &Arc<SweepProblem>,
    quad: &QuadratureSet,
    mats: &Arc<MaterialSet>,
    cfg: &SnConfig,
) -> (Vec<f64>, Vec<jsweep::core::RunStats>) {
    use jsweep::transport::program::{EpochSink, SweepEpoch, SweepFactory, SweepSetup};
    use jsweep::transport::replay::build_plan;
    let (n, groups) = (mesh.num_cells(), mats.num_groups());
    let inv_4pi = 1.0 / (4.0 * std::f64::consts::PI);
    let mut phi = vec![0.0; n * groups];
    let mut stats = Vec::new();
    let plan = cfg.coarsen.then(|| {
        Arc::new(build_plan(
            prob,
            &simulate_clusters(prob, cfg.grain, CLAIM_BATCH),
        ))
    });
    while stats.len() < cfg.max_iterations {
        let emission: Vec<f64> = (0..n * groups)
            .map(|i| {
                let (m, g) = (mats.material(i / groups), i % groups);
                (m.sigma_s[g] * phi[i] + m.source[g]) * inv_4pi
            })
            .collect();
        let sink = Arc::new(EpochSink::new(prob.num_tasks()));
        let factory = Arc::new(SweepFactory::new(SweepSetup {
            mesh: mesh.clone(),
            problem: prob.clone(),
            quadrature: quad.clone(),
            groups,
            kernel: cfg.kernel,
            grain: cfg.grain,
            plan: plan.clone(),
            sink: sink.clone(),
        }));
        let mut universe = Universe::launch_with_fabric(
            prob.patches.num_ranks(),
            factory,
            RuntimeConfig {
                num_workers: cfg.workers_per_rank,
                termination: cfg.termination,
                ..Default::default()
            },
            jsweep::core::fabric_for(cfg.transport),
        );
        let rank_stats = universe
            .run_epoch(Arc::new(SweepEpoch {
                emission: Arc::new(emission),
                materials: mats.clone(),
            }))
            .unwrap_or_else(|f| panic!("reference epoch faulted: {f}"));
        universe.shutdown();
        stats.push(jsweep::core::RunStats::aggregate(&rank_stats));
        let phi_new = sink.fold(prob, groups);
        let (mut diff, mut norm) = (0.0, 0.0);
        for (a, b) in phi_new.iter().zip(&phi) {
            diff += (a - b) * (a - b);
            norm += a * a;
        }
        phi = phi_new;
        let residual = if norm == 0.0 {
            0.0
        } else {
            (diff / norm).sqrt()
        };
        if residual < cfg.tolerance {
            break;
        }
    }
    (phi, stats)
}

#[test]
fn resident_universe_bit_identical_to_respawned_structured() {
    // Persistent-universe golden: one resident runtime running every
    // source iteration as an epoch must produce the same flux *bit for
    // bit* as respawning a one-epoch universe per iteration — under
    // both termination detectors, with replay on.
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let patches = decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    for termination in [TerminationKind::Counting, TerminationKind::Safra] {
        let mut cfg = config();
        cfg.termination = termination;
        let (respawned_phi, respawned_stats) =
            respawned_reference(&mesh, &prob, &quad, &mats, &cfg);
        let resident = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        assert_eq!(
            respawned_phi, resident.phi,
            "resident universe flux must be bit-identical ({termination:?})"
        );
        assert_eq!(respawned_stats.len(), resident.iterations);
        assert!(resident.iterations >= 2, "need replay epochs to compare");
        // Same committed workload per iteration on both paths.
        for (a, b) in respawned_stats.iter().zip(&resident.stats) {
            assert_eq!(a.work_done, b.work_done);
        }
    }
}

#[test]
fn resident_universe_bit_identical_to_respawned_unstructured() {
    let mesh = Arc::new(jsweep::mesh::tetgen::ball(3, 1.0));
    let n = mesh.num_cells();
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        n,
        Material::uniform(2, 1.5, 0.6, 2.0),
    ));
    let patches = decompose_unstructured(mesh.as_ref(), 60, 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions::default(),
    ));
    for termination in [TerminationKind::Counting, TerminationKind::Safra] {
        for coarsen in [true, false] {
            let mut cfg = config();
            cfg.termination = termination;
            cfg.coarsen = coarsen;
            let (respawned_phi, respawned_stats) =
                respawned_reference(&mesh, &prob, &quad, &mats, &cfg);
            let resident = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
            assert_eq!(
                respawned_phi, resident.phi,
                "resident flux mismatch ({termination:?}, coarsen {coarsen})"
            );
            assert_eq!(respawned_stats.len(), resident.iterations);
        }
    }
}

/// Per-group-varied `groups`-group material: every group gets
/// distinct cross sections and source so a group-blocking bug that
/// mixes lanes cannot cancel out.
fn multigroup_material(groups: usize) -> Material {
    Material {
        sigma_t: (0..groups).map(|g| 0.5 + 0.23 * g as f64).collect(),
        sigma_s: (0..groups).map(|g| 0.2 + 0.04 * g as f64).collect(),
        source: (0..groups).map(|g| 1.0 + 0.5 * (g % 3) as f64).collect(),
    }
}

#[test]
fn multigroup16_goldens_bit_identical_across_execution_modes() {
    // G=16 golden for the blocked kernel (two full GROUP_BLOCK=8
    // blocks): fine, coarse-replay, cached-replay and respawned
    // solves must all produce the *bit-identical* flux, for both
    // kernel kinds, and match the scalar serial solver to 1e-11.
    use jsweep::transport::PlanCache;
    let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(216, multigroup_material(16)));
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (3, 3, 3), 2),
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    for kernel in [KernelKind::Step, KernelKind::DiamondDifference] {
        let mut cfg = config();
        cfg.kernel = kernel;
        let serial = solve_serial(mesh.as_ref(), &quad, &mats, &cfg);
        let mut fine_cfg = cfg.clone();
        fine_cfg.coarsen = false;
        let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
        assert_flux_close(&fine.phi, &serial.phi, 1e-11);

        let replay = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        assert_eq!(
            fine.phi, replay.phi,
            "G=16 replay flux must be bit-identical ({kernel:?})"
        );

        let cache = PlanCache::new();
        let c1 = solve_parallel_cached(
            mesh.clone(),
            prob.clone(),
            &quad,
            mats.clone(),
            &cfg,
            &cache,
        );
        let c2 = solve_parallel_cached(
            mesh.clone(),
            prob.clone(),
            &quad,
            mats.clone(),
            &cfg,
            &cache,
        );
        assert!(c2.plan_from_cache, "second cached solve must hit the cache");
        assert_eq!(fine.phi, c1.phi, "G=16 fresh-plan flux ({kernel:?})");
        assert_eq!(fine.phi, c2.phi, "G=16 cached-replay flux ({kernel:?})");

        let (respawned_phi, _) = respawned_reference(&mesh, &prob, &quad, &mats, &cfg);
        assert_eq!(
            fine.phi, respawned_phi,
            "G=16 respawned flux must be bit-identical ({kernel:?})"
        );
    }
}

#[test]
fn multigroup32_dd_golden_bit_identical_across_execution_modes() {
    // G=32 diamond-difference golden in the ledger's hex16 smoke shape
    // (8³ hexes in 4³-cell patches, S4, grain 256, one rank × one
    // worker): four full GROUP_BLOCK=8 blocks per cell, in-cluster
    // edges through the cluster scratch under replay. Fine,
    // fresh-plan replay and cached replay must produce the
    // *bit-identical* flux and match the scalar serial solver to 1e-11.
    use jsweep::transport::PlanCache;
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(4);
    let mats = Arc::new(MaterialSet::homogeneous(512, multigroup_material(32)));
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (4, 4, 4), 1),
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    let mut cfg = config();
    cfg.kernel = KernelKind::DiamondDifference;
    cfg.grain = 256;
    cfg.workers_per_rank = 1;
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &cfg);
    let mut fine_cfg = cfg.clone();
    fine_cfg.coarsen = false;
    let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
    assert_flux_close(&fine.phi, &serial.phi, 1e-11);

    let cache = PlanCache::new();
    let fresh = solve_parallel_cached(
        mesh.clone(),
        prob.clone(),
        &quad,
        mats.clone(),
        &cfg,
        &cache,
    );
    let cached = solve_parallel_cached(mesh, prob, &quad, mats, &cfg, &cache);
    assert!(
        !fresh.plan_from_cache,
        "first cached solve must compile its plan"
    );
    assert!(
        cached.plan_from_cache,
        "second cached solve must hit the cache"
    );
    assert_eq!(fine.phi, fresh.phi, "G=32 fresh-plan replay flux");
    assert_eq!(fine.phi, cached.phi, "G=32 cached-replay flux");
}

#[test]
fn multigroup16_tet_fine_vs_replay_bit_identical() {
    // The same G=16 golden on tetrahedra (step kernel — DD is
    // hex-only): the blocked kernel's 4-face path and the scalar
    // tail see real unstructured geometry here.
    let mesh = Arc::new(jsweep::mesh::tetgen::ball(2, 1.0));
    let n = mesh.num_cells();
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(n, multigroup_material(16)));
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_unstructured(mesh.as_ref(), 32, 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let serial = solve_serial(mesh.as_ref(), &quad, &mats, &config());
    let mut fine_cfg = config();
    fine_cfg.coarsen = false;
    let fine = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &fine_cfg);
    assert_flux_close(&fine.phi, &serial.phi, 1e-11);
    let replay = solve_parallel(mesh.clone(), prob.clone(), &quad, mats.clone(), &config());
    assert_eq!(
        fine.phi, replay.phi,
        "G=16 tet replay flux must be bit-identical"
    );
}

#[test]
fn sink_slots_keep_their_accumulators_across_epochs() {
    // Regression guard for the phi_part round-trip, on the fine path
    // and on replay: the first epoch allocates one accumulator per
    // task; every later epoch's reset must take that same buffer back
    // from the task's slot — replay epochs allocate no accumulators —
    // and keep producing the identical fold. Between epochs every lent
    // accumulator is filled with NaN: `reset` does not zero it, so the
    // fold stays bit-identical only if the sweep stores every
    // (cell, group) entry. 11 groups: a full group block and a tail.
    for replay in [false, true] {
        sink_slots_keep_their_accumulators(replay);
    }
}

fn sink_slots_keep_their_accumulators(replay: bool) {
    use jsweep::transport::program::{EpochSink, SweepEpoch, SweepFactory, SweepSetup};
    use jsweep::transport::replay::build_plan;
    let mesh = Arc::new(StructuredMesh::unit(4, 4, 4));
    let n = mesh.num_cells();
    let groups = 11;
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        n,
        Material::uniform(groups, 1.0, 0.4, 1.0),
    ));
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        decompose_structured(&mesh, (2, 2, 2), 2),
        &quad,
        &ProblemOptions::default(),
    ));
    let grain = 16;
    let plan = replay.then(|| {
        Arc::new(build_plan(
            &prob,
            &simulate_clusters(&prob, grain, CLAIM_BATCH),
        ))
    });
    let sink = Arc::new(EpochSink::new(prob.num_tasks()));
    let emission = Arc::new(vec![0.1; n * groups]);
    let factory = Arc::new(SweepFactory::new(SweepSetup {
        mesh: mesh.clone(),
        problem: prob.clone(),
        quadrature: quad.clone(),
        groups,
        kernel: KernelKind::Step,
        grain,
        plan,
        sink: sink.clone(),
    }));
    let mut u = Universe::launch(
        2,
        factory,
        RuntimeConfig {
            num_workers: 2,
            ..Default::default()
        },
    );
    let mut folds: Vec<Vec<u64>> = Vec::new();
    let mut buffers: Vec<Vec<*const f64>> = Vec::new();
    for _ in 0..4 {
        u.run_epoch(Arc::new(SweepEpoch {
            emission: emission.clone(),
            materials: mats.clone(),
        }))
        .unwrap_or_else(|f| panic!("sweep epoch faulted: {f}"));
        let fold = sink.fold(&prob, groups);
        folds.push(fold.into_iter().map(f64::to_bits).collect());
        buffers.push(
            (0..prob.num_tasks())
                .map(|tid| sink.slot(tid).phi_part.as_ptr())
                .collect(),
        );
        for tid in 0..prob.num_tasks() {
            sink.slot(tid).phi_part.fill(f64::NAN);
        }
    }
    u.shutdown();
    for (k, (f, b)) in folds.windows(2).zip(buffers.windows(2)).enumerate() {
        assert!(
            f[0] == f[1],
            "replay={replay}: fold changed between epochs {k} and {}",
            k + 1
        );
        assert_eq!(
            b[0],
            b[1],
            "replay={replay}: a task's accumulator was reallocated between epochs {k} and {}",
            k + 1
        );
    }
}

/// A one-layer hex mesh whose cell 1 hides its two (boundary) z faces:
/// still a consistent topology, but with two face counts.
struct MixedMesh(StructuredMesh);

impl SweepTopology for MixedMesh {
    fn num_cells(&self) -> usize {
        self.0.num_cells()
    }
    fn generation(&self) -> u64 {
        self.0.generation()
    }
    fn num_faces(&self, c: usize) -> usize {
        if c == 1 {
            4
        } else {
            6
        }
    }
    fn face(&self, c: usize, f: usize) -> jsweep::mesh::FaceInfo {
        self.0.face(c, f)
    }
    fn cell_volume(&self, c: usize) -> f64 {
        self.0.cell_volume(c)
    }
    fn cell_centroid(&self, c: usize) -> [f64; 3] {
        self.0.cell_centroid(c)
    }
}

#[test]
#[should_panic(expected = "mixed-element mesh")]
fn sweep_factory_rejects_mixed_element_meshes() {
    // `face_flux` and the replay wire slots stride by one per-cell
    // face count; a mesh that breaks that must fail at set-up, not
    // mis-index at run time.
    use jsweep::transport::program::{EpochSink, SweepFactory, SweepSetup};
    let mesh = Arc::new(MixedMesh(StructuredMesh::unit(2, 2, 1)));
    let quad = QuadratureSet::sn(2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        PatchSet::single(4),
        &quad,
        &ProblemOptions::default(),
    ));
    let _ = SweepFactory::new(SweepSetup {
        mesh,
        problem: prob,
        quadrature: quad,
        groups: 1,
        kernel: KernelKind::Step,
        grain: 16,
        plan: None,
        sink: Arc::new(EpochSink::new(0)),
    });
}

#[test]
fn resident_universe_multi_epoch_stress_leaves_no_stale_state() {
    // Drive many forced epochs (negative tolerance: the solver never
    // converges early) through one resident universe, in both
    // scheduling modes, and check epoch-to-epoch invariants that any
    // stale pool/program state would break:
    //  * committed workload completes exactly, every epoch (stale
    //    in-degree counters or ready-heap entries would change it);
    //  * stream counts are identical across all replay epochs (stale
    //    staging or held reports would skew them);
    //  * the flux stays bit-identical to the respawned path after 8
    //    epochs of buffer reuse.
    let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
    let quad = QuadratureSet::sn(2);
    let mats = Arc::new(MaterialSet::homogeneous(
        512,
        Material::uniform(1, 1.0, 0.5, 1.0),
    ));
    let patches = decompose_structured(&mesh, (4, 4, 4), 2);
    let prob = Arc::new(SweepProblem::build(
        mesh.as_ref(),
        patches,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    ));
    let epochs = 8;
    let committed = (512 * quad.len()) as u64;
    for termination in [TerminationKind::Counting, TerminationKind::Safra] {
        for coarsen in [true, false] {
            let mut resident_cfg = config();
            resident_cfg.termination = termination;
            resident_cfg.coarsen = coarsen;
            resident_cfg.max_iterations = epochs;
            resident_cfg.tolerance = -1.0;
            let resident = solve_parallel(
                mesh.clone(),
                prob.clone(),
                &quad,
                mats.clone(),
                &resident_cfg,
            );
            assert_eq!(resident.iterations, epochs);
            for (k, s) in resident.stats.iter().enumerate() {
                assert_eq!(
                    s.work_done, committed,
                    "epoch {k} work accounting ({termination:?}, coarsen {coarsen})"
                );
            }
            // Replay epochs (2..) run the identical coarse schedule:
            // their wire traffic must not drift across epochs. (Fine
            // epochs legitimately vary — cluster formation is
            // timing-dependent — so this invariant is replay-only.)
            if coarsen {
                let tail = &resident.stats[1..];
                let first_streams = tail[0].streams_sent + tail[0].streams_local;
                for (k, s) in tail.iter().enumerate() {
                    assert_eq!(
                        s.streams_sent + s.streams_local,
                        first_streams,
                        "replay epoch {} stream drift ({termination:?})",
                        k + 1
                    );
                }
            }
            let (respawned_phi, _) = respawned_reference(&mesh, &prob, &quad, &mats, &resident_cfg);
            assert_eq!(
                respawned_phi, resident.phi,
                "multi-epoch flux mismatch ({termination:?}, coarsen {coarsen})"
            );
        }
    }
}
