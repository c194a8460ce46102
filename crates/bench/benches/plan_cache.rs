//! Plan-cache multi-solve benchmark (plan lifecycle, paper §V-E).
//!
//! Two measurements on the shared replay scenario:
//!
//! * **Timing** — an N-solve workload (the time-step / eigenvalue /
//!   material-sweep shape) with and without a
//!   [`jsweep_transport::PlanCache`]. Every iteration of every solve
//!   replays; without the cache every solve pays a plan compile (the
//!   simulated execution plus `build_plan`), with it only the first
//!   does (the bench asserts `plan_from_cache` and a zero build time
//!   on every later solve).
//! * **Memory** — octant-canonical trace sharing: at S8 (80 angles, 8
//!   octants) one compiled `ReplayTask` set per octant replaces one
//!   per angle, cutting plan bytes and build time ~`num_angles/8`-fold
//!   (≈10× at S8). Shared tasks are counted once
//!   (`CoarsePlan::memory_bytes`), so the number is what caching costs.
//!
//! The flux must be bit-identical across every solve of both variants;
//! the bench asserts it. Full mode writes a machine-readable baseline
//! to `BENCH_plan_cache.json` at the workspace root; the
//! `cargo bench -- --test` smoke pass only proves the bench still runs.

use jsweep_bench::setups::{replay_scenario, replay_tail_mean};
use jsweep_core::engine::CLAIM_BATCH;
use jsweep_graph::coarse::simulate_clusters;
use jsweep_mesh::{partition, StructuredMesh};
use jsweep_quadrature::QuadratureSet;
use jsweep_transport::{replay, PlanCache};

struct TimingNumbers {
    replay_iter_wall_s: f64,
    second_solve_iter_wall_s: f64,
    plan_build_s: f64,
    uncached_build_total_s: f64,
    cached_build_total_s: f64,
}

/// N-solve timing: best-of-`runs` independently per metric.
fn measure_timing(
    n: usize,
    patch: usize,
    iterations: usize,
    solves: usize,
    runs: usize,
) -> TimingNumbers {
    let sc = replay_scenario(n, patch, 2, iterations, 16);
    let mut nums = TimingNumbers {
        replay_iter_wall_s: f64::INFINITY,
        second_solve_iter_wall_s: f64::INFINITY,
        plan_build_s: f64::INFINITY,
        uncached_build_total_s: f64::INFINITY,
        cached_build_total_s: f64::INFINITY,
    };
    for _ in 0..runs {
        // Uncached: every solve compiles.
        let uncached: Vec<_> = (0..solves).map(|_| sc.solve(true)).collect();
        // Cached: solve 1 compiles, solves 2..N take the cached plan.
        let cache = PlanCache::new();
        let cached: Vec<_> = (0..solves).map(|_| sc.solve_cached(&cache)).collect();

        let reference = &uncached[0].phi;
        for sol in uncached.iter().chain(&cached) {
            assert_eq!(
                &sol.phi, reference,
                "every solve must produce bit-identical flux"
            );
            assert_eq!(sol.stats.len(), iterations);
        }
        assert!(!cached[0].plan_from_cache);
        for sol in &cached[1..] {
            assert!(sol.plan_from_cache, "later solves must hit the cache");
            assert_eq!(sol.coarse_build_seconds, 0.0, "no re-compile");
        }
        assert_eq!(cache.len(), 1);

        let first = &cached[0];
        nums.replay_iter_wall_s = nums
            .replay_iter_wall_s
            .min(replay_tail_mean(&first.stats, |s| s.wall_seconds));
        // Second solve: every iteration of a solve with a cached plan.
        let second_mean = cached[1].stats.iter().map(|s| s.wall_seconds).sum::<f64>()
            / cached[1].stats.len() as f64;
        nums.second_solve_iter_wall_s = nums.second_solve_iter_wall_s.min(second_mean);
        nums.plan_build_s = nums.plan_build_s.min(first.coarse_build_seconds);
        nums.uncached_build_total_s = nums
            .uncached_build_total_s
            .min(uncached.iter().map(|s| s.coarse_build_seconds).sum());
        nums.cached_build_total_s = nums
            .cached_build_total_s
            .min(cached.iter().map(|s| s.coarse_build_seconds).sum());
    }
    nums
}

struct MemoryNumbers {
    angles: usize,
    plan_bytes_shared: usize,
    plan_bytes_unshared: usize,
    build_s_shared: f64,
    build_s_unshared: f64,
}

/// Octant-sharing memory/build measurement at `sn` order.
fn measure_memory(n: usize, patch: usize, sn: u32) -> MemoryNumbers {
    let mesh = StructuredMesh::unit(n, n, n);
    let quad = QuadratureSet::sn(sn);
    let measure = |share: bool| {
        let prob = jsweep_graph::SweepProblem::build(
            &mesh,
            partition::decompose_structured(&mesh, (patch, patch, patch), 2),
            &quad,
            &jsweep_graph::ProblemOptions {
                share_octant_dags: share,
                ..Default::default()
            },
        );
        let traces = simulate_clusters(&prob, 16, CLAIM_BATCH);
        let t0 = std::time::Instant::now();
        let plan = replay::build_plan(&prob, &traces);
        (plan.memory_bytes(), t0.elapsed().as_secs_f64())
    };
    let (plan_bytes_shared, build_s_shared) = measure(true);
    let (plan_bytes_unshared, build_s_unshared) = measure(false);
    MemoryNumbers {
        angles: quad.len(),
        plan_bytes_shared,
        plan_bytes_unshared,
        build_s_shared,
        build_s_unshared,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // Full mode: the quickstart problem (16³ cells, 4³-cell patches,
    // 2 ranks × 2 workers, S2, grain 16) solved 4 times; memory at S8
    // on the same mesh (80 angles — octant sharing's home turf).
    let (timing, memory) = if test_mode {
        (measure_timing(8, 4, 3, 2, 1), measure_memory(8, 4, 4))
    } else {
        (measure_timing(16, 4, 6, 4, 3), measure_memory(16, 4, 8))
    };

    let second_vs_replay = timing.second_solve_iter_wall_s / timing.replay_iter_wall_s;
    let amortization = timing.uncached_build_total_s / timing.cached_build_total_s.max(1e-12);
    let mem_reduction = memory.plan_bytes_unshared as f64 / memory.plan_bytes_shared as f64;
    let build_reduction = memory.build_s_unshared / memory.build_s_shared.max(1e-12);

    println!(
        "plan_cache replay iteration           time: {:>9.3} ms",
        timing.replay_iter_wall_s * 1e3
    );
    println!(
        "plan_cache second-solve iteration     time: {:>9.3} ms ({:.2}x a replay iteration)",
        timing.second_solve_iter_wall_s * 1e3,
        second_vs_replay
    );
    println!(
        "plan_cache plan build (once, cached)  time: {:>9.3} ms; uncached total {:.3} ms ({:.1}x amortization)",
        timing.plan_build_s * 1e3,
        timing.uncached_build_total_s * 1e3,
        amortization
    );
    println!(
        "plan_cache S{} plan memory: {:.1} KiB unshared -> {:.1} KiB octant-shared ({:.1}x less, build {:.1}x faster)",
        if test_mode { 4 } else { 8 },
        memory.plan_bytes_unshared as f64 / 1024.0,
        memory.plan_bytes_shared as f64 / 1024.0,
        mem_reduction,
        build_reduction
    );

    // The structural facts (plan_from_cache, zero build time,
    // bit-identical phi) are asserted in measure_timing in both modes;
    // a single millisecond-scale test-mode sample is no baseline.
    if test_mode {
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"plan_cache\",\n",
            "  \"mode\": \"full\",\n",
            "  \"problem\": {{\n",
            "    \"cells\": 4096,\n",
            "    \"patch_cells\": 64,\n",
            "    \"ranks\": 2,\n",
            "    \"angles\": 8,\n",
            "    \"grain\": 16,\n",
            "    \"solves\": 4,\n",
            "    \"iterations_per_solve\": 6\n",
            "  }},\n",
            "  \"replay_iter_wall_seconds\": {rw:.6},\n",
            "  \"second_solve_iter_wall_seconds\": {sw:.6},\n",
            "  \"second_solve_vs_replay_iter\": {svr:.3},\n",
            "  \"second_solve_from_cache\": true,\n",
            "  \"second_solve_build_seconds\": 0.0,\n",
            "  \"plan_build_seconds\": {pb:.6},\n",
            "  \"uncached_build_total_seconds\": {ub:.6},\n",
            "  \"build_amortization\": {am:.3},\n",
            "  \"octant_sharing\": {{\n",
            "    \"angles\": {angles},\n",
            "    \"plan_bytes_unshared\": {mu},\n",
            "    \"plan_bytes_shared\": {ms},\n",
            "    \"memory_reduction\": {mr:.3},\n",
            "    \"build_reduction\": {br:.3}\n",
            "  }},\n",
            "  \"phi_bit_identical\": true\n",
            "}}\n"
        ),
        rw = timing.replay_iter_wall_s,
        sw = timing.second_solve_iter_wall_s,
        svr = second_vs_replay,
        pb = timing.plan_build_s,
        ub = timing.uncached_build_total_s,
        am = amortization,
        angles = memory.angles,
        mu = memory.plan_bytes_unshared,
        ms = memory.plan_bytes_shared,
        mr = mem_reduction,
        br = build_reduction,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_plan_cache.json");
    std::fs::write(&out, json).expect("write BENCH_plan_cache.json");
    println!("baseline written to {}", out.display());
}
