//! The experiments: one function per table/figure of the paper.
//!
//! Every function documents (a) the paper's setup, (b) the scaled
//! setup simulated here, and (c) the axis mapping. EXPERIMENTS.md
//! records paper-vs-measured values produced by these functions.

use crate::setups::{
    cores, machine_with_groups, structured_problem, tianhe, unstructured_problem, Strategies,
};
use crate::table::{pct, secs, Table};
use crate::Scale;
use jsweep_baselines::{bsp, kba, psd};
use jsweep_des::{simulate, simulate_coarse, SimOptions};
use jsweep_graph::{coarse, PriorityStrategy};
use jsweep_mesh::tetgen;
use jsweep_quadrature::QuadratureSet;

fn sim_default(
    problem: &jsweep_des::SweepProblem,
    machine: &jsweep_des::MachineModel,
    grain: usize,
) -> jsweep_des::DesResult {
    simulate(problem, machine, &SimOptions { grain })
}

/// The coarsened tasks `tasks[angle][patch]` the solver would compile
/// for `problem` at `grain`: clusters of its simulated execution
/// ([`coarse::simulate_clusters`]), octant members sharing their
/// canonical angle's.
fn coarse_tasks(
    problem: &jsweep_des::SweepProblem,
    grain: usize,
) -> Vec<Vec<coarse::CoarsenedTask>> {
    let traces = coarse::simulate_clusters(problem, grain, jsweep_core::engine::CLAIM_BATCH);
    (0..problem.num_angles)
        .map(|a| {
            let c = problem.canonical_angle(a);
            coarse::build_coarse(&problem.subs[c], &traces[c])
        })
        .collect()
}

/// Fig. 9a — runtime vs vertex clustering grain (structured).
///
/// Paper: SnSweep-S, 160×160×180 cells, patch 20³, S2, 96 cores; the
/// curve falls steeply, bottoms out around grain ~1000, then rises for
/// excessive grains. Here: 48³ cells, patch 16³, S2, 96 simulated
/// cores (8 ranks × 12).
pub fn fig09a(scale: Scale) -> Table {
    let (n, patch, ranks, grains): (usize, usize, usize, Vec<usize>) = match scale {
        Scale::Smoke => (16, 8, 2, vec![1, 64, 1024]),
        Scale::Full => (48, 16, 8, vec![1, 8, 64, 256, 1024, 2048, 4096]),
    };
    let quad = QuadratureSet::sn(2);
    let prob = structured_problem(n, patch, ranks, &quad, Strategies::SLBD2);
    let machine = tianhe(ranks);
    let mut t = Table::new(
        "fig09a",
        "S2 sweep time vs vertex clustering grain (structured)",
        &["grain", "time_s", "compute_calls", "messages"],
    );
    for g in grains {
        let r = sim_default(&prob, &machine, g);
        t.push(vec![
            g.to_string(),
            secs(r.time),
            r.compute_calls.to_string(),
            r.messages.to_string(),
        ]);
    }
    t
}

/// Fig. 9b — priority strategies vs cores (structured).
///
/// Paper: LDCP+LDCP, SLBD+SLBD, LDCP+SLBD over 96–768 cores; SLBD+SLBD
/// wins consistently. Axis identical here (ranks 8–64 × 12 cores).
pub fn fig09b(scale: Scale) -> Table {
    let (n, patch, rank_list): (usize, usize, Vec<usize>) = match scale {
        Scale::Smoke => (16, 8, vec![2, 4]),
        Scale::Full => (48, 8, vec![8, 16, 32, 64]),
    };
    let quad = QuadratureSet::sn(2);
    let strategies = [
        Strategies {
            patch: PriorityStrategy::Ldcp,
            vertex: PriorityStrategy::Ldcp,
        },
        Strategies::SLBD2,
        Strategies {
            patch: PriorityStrategy::Ldcp,
            vertex: PriorityStrategy::Slbd,
        },
    ];
    let mut t = Table::new(
        "fig09b",
        "S2 sweep time vs cores for priority strategies (structured)",
        &["cores", "LDCP+LDCP", "SLBD+SLBD", "LDCP+SLBD"],
    );
    for &ranks in &rank_list {
        let mut row = vec![cores(ranks).to_string()];
        for s in strategies {
            let prob = structured_problem(n, patch, ranks, &quad, s);
            let r = sim_default(&prob, &tianhe(ranks), 64);
            row.push(secs(r.time));
        }
        t.push(row);
    }
    t
}

/// Figs. 12a/12b — JSNT-S strong scaling on the Kobayashi benchmark.
///
/// Paper: Kobayashi-400 (400³ cells, 320 angles) on 768–24 576 cores;
/// Kobayashi-800 on 4 800–76 800 cores. Here: 64³/80³ cells, S4,
/// paper cores = 16 × simulated cores. The sweep DAG is the Kobayashi
/// cube's (material layout does not affect scheduling).
pub fn fig12(scale: Scale, large: bool) -> Table {
    let quad = QuadratureSet::sn(4);
    let (n, patch, rank_list, id, title): (usize, usize, Vec<usize>, &str, &str) = if large {
        match scale {
            Scale::Smoke => (
                24,
                8,
                vec![2, 4],
                "fig12b",
                "JSNT-S strong scaling, Kobayashi-800 (scaled)",
            ),
            Scale::Full => (
                80,
                6,
                vec![25, 50, 100, 200, 400],
                "fig12b",
                "JSNT-S strong scaling, Kobayashi-800 (scaled)",
            ),
        }
    } else {
        match scale {
            Scale::Smoke => (
                16,
                8,
                vec![2, 4],
                "fig12a",
                "JSNT-S strong scaling, Kobayashi-400 (scaled)",
            ),
            Scale::Full => (
                64,
                6,
                vec![4, 8, 16, 32, 64, 128],
                "fig12a",
                "JSNT-S strong scaling, Kobayashi-400 (scaled)",
            ),
        }
    };
    let mut t = Table::new(
        id,
        title,
        &["paper_cores", "sim_cores", "time_s", "speedup", "par_eff"],
    );
    let mut base: Option<(f64, usize)> = None;
    for &ranks in &rank_list {
        let prob = structured_problem(n, patch, ranks, &quad, Strategies::SLBD2);
        let r = sim_default(&prob, &tianhe(ranks), 1000);
        let c = cores(ranks);
        let (t0, c0) = *base.get_or_insert((r.time, c));
        let speedup = t0 / r.time;
        let eff = speedup * c0 as f64 / c as f64;
        t.push(vec![
            (c * 16).to_string(),
            c.to_string(),
            secs(r.time),
            format!("{speedup:.2}"),
            pct(eff),
        ]);
    }
    t
}

/// The reactor mesh of the JSNT-U experiments (Fig. 11b stand-in).
fn reactor_mesh(scale: Scale) -> jsweep_mesh::TetMesh {
    match scale {
        Scale::Smoke => tetgen::reactor(10, 1.0, 1.0, 4),
        Scale::Full => tetgen::reactor(28, 1.0, 1.0, 4),
    }
}

/// Fig. 13a — JSNT-U runtime vs patch size and vs cluster grain
/// (reactor mesh, S4, 4 groups).
///
/// Paper: time falls quickly with patch size, then creeps up past
/// ~1000–1500 cells; time falls with grain and flattens (parallelism
/// limits the effective grain on unstructured meshes).
pub fn fig13a(scale: Scale) -> Vec<Table> {
    let mesh = reactor_mesh(scale);
    let quad = QuadratureSet::sn(4);
    let ranks = match scale {
        Scale::Smoke => 2,
        Scale::Full => 8,
    };
    let machine = machine_with_groups(ranks, 4);

    let patch_sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![100, 500],
        Scale::Full => vec![50, 100, 250, 500, 1000, 2000, 2500],
    };
    let mut t1 = Table::new(
        "fig13a_patch",
        "JSNT-U time vs patch size (reactor, S4, 4 groups)",
        &["patch_cells", "time_s", "messages"],
    );
    for &psize in &patch_sizes {
        let prob = unstructured_problem(&mesh, psize, ranks, &quad, Strategies::SLBD2);
        let r = sim_default(&prob, &machine, 64);
        t1.push(vec![
            psize.to_string(),
            secs(r.time),
            r.messages.to_string(),
        ]);
    }

    let grains: Vec<usize> = match scale {
        Scale::Smoke => vec![1, 16, 64],
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64],
    };
    let mut t2 = Table::new(
        "fig13a_grain",
        "JSNT-U time vs cluster grain (reactor, S4, 4 groups, patch 500)",
        &["grain", "time_s", "compute_calls"],
    );
    let prob = unstructured_problem(&mesh, 500, ranks, &quad, Strategies::SLBD2);
    for &g in &grains {
        let r = sim_default(&prob, &machine, g);
        t2.push(vec![
            g.to_string(),
            secs(r.time),
            r.compute_calls.to_string(),
        ]);
    }
    vec![t1, t2]
}

/// Fig. 13b — JSNT-U priority strategies vs cores (reactor).
///
/// Paper: BFS / BFS+SLBD / SLBD / SLBD+BFS between 384 and 6144 cores;
/// differences are small on unstructured meshes. Paper cores = 16 ×
/// simulated.
pub fn fig13b(scale: Scale) -> Table {
    let mesh = reactor_mesh(scale);
    let quad = QuadratureSet::sn(4);
    let rank_list: Vec<usize> = match scale {
        Scale::Smoke => vec![2, 4],
        Scale::Full => vec![2, 4, 8, 16, 32],
    };
    let strategies = [
        (
            "BFS",
            Strategies {
                patch: PriorityStrategy::Bfs,
                vertex: PriorityStrategy::Bfs,
            },
        ),
        (
            "BFS+SLBD",
            Strategies {
                patch: PriorityStrategy::Bfs,
                vertex: PriorityStrategy::Slbd,
            },
        ),
        ("SLBD", Strategies::SLBD2),
        (
            "SLBD+BFS",
            Strategies {
                patch: PriorityStrategy::Slbd,
                vertex: PriorityStrategy::Bfs,
            },
        ),
    ];
    let mut t = Table::new(
        "fig13b",
        "JSNT-U time vs cores for priority strategies (reactor)",
        &["paper_cores", "BFS", "BFS+SLBD", "SLBD", "SLBD+BFS"],
    );
    for &ranks in &rank_list {
        let machine = machine_with_groups(ranks, 4);
        let mut row = vec![(cores(ranks) * 16).to_string()];
        for (_, s) in strategies {
            let prob = unstructured_problem(&mesh, 500, ranks, &quad, s);
            let r = sim_default(&prob, &machine, 64);
            row.push(secs(r.time));
        }
        t.push(row);
    }
    t
}

/// Figs. 14a/14b — JSNT-U strong scaling on ball meshes.
///
/// Paper: 482 248-cell ball on 24–6 144 cores (14a) and a 173M-cell
/// ball on 3 072–49 152 cores (14b). Here: Kuhn-tet balls of ~43k and
/// ~200k cells; paper cores = 8× (14a) / 16× (14b) simulated cores.
pub fn fig14(scale: Scale, large: bool) -> Table {
    let quad = QuadratureSet::sn(4);
    let (mesh, rank_list, factor, id, title): (
        jsweep_mesh::TetMesh,
        Vec<usize>,
        usize,
        &str,
        &str,
    ) = if large {
        match scale {
            Scale::Smoke => (
                tetgen::ball(6, 1.0),
                vec![2, 4],
                16,
                "fig14b",
                "JSNT-U strong scaling, large ball (scaled)",
            ),
            Scale::Full => (
                tetgen::ball(20, 1.0),
                vec![16, 32, 64, 128, 256],
                16,
                "fig14b",
                "JSNT-U strong scaling, large ball (scaled)",
            ),
        }
    } else {
        match scale {
            Scale::Smoke => (
                tetgen::ball(5, 1.0),
                vec![1, 2],
                8,
                "fig14a",
                "JSNT-U strong scaling, small ball (scaled)",
            ),
            Scale::Full => (
                tetgen::ball(12, 1.0),
                vec![2, 4, 8, 16, 32, 64],
                8,
                "fig14a",
                "JSNT-U strong scaling, small ball (scaled)",
            ),
        }
    };
    let mut t = Table::new(
        id,
        title,
        &["paper_cores", "sim_cores", "time_s", "speedup", "par_eff"],
    );
    let mut base: Option<(f64, usize)> = None;
    for &ranks in &rank_list {
        let prob = unstructured_problem(&mesh, 100, ranks, &quad, Strategies::SLBD2);
        let machine = machine_with_groups(ranks, 4);
        let r = sim_default(&prob, &machine, 64);
        let c = cores(ranks);
        let (t0, c0) = *base.get_or_insert((r.time, c));
        let speedup = t0 / r.time;
        let eff = speedup * c0 as f64 / c as f64;
        t.push(vec![
            (c * factor).to_string(),
            c.to_string(),
            secs(r.time),
            format!("{speedup:.2}"),
            pct(eff),
        ]);
    }
    t
}

/// Fig. 15 — JSNT-U weak scaling (reactor and ball).
///
/// Paper: cores 24 → 12 288 with the mesh refined in proportion;
/// efficiency drops to ~40% (reactor) / <20% (ball) at 12 288 cores
/// because per-rank refinement thickens subdomains and lengthens the
/// critical path. Here: three ×8 steps (ranks 2 → 16 → 128).
pub fn fig15(scale: Scale) -> Table {
    let quad = QuadratureSet::sn(4);
    let steps: Vec<(usize, usize)> = match scale {
        // (ranks, resolution multiplier as 2^k per axis)
        Scale::Smoke => vec![(2, 0), (16, 1)],
        Scale::Full => vec![(2, 0), (16, 1), (128, 2)],
    };
    let mut t = Table::new(
        "fig15",
        "JSNT-U weak scaling efficiency (reactor & ball)",
        &["paper_cores", "sim_cores", "reactor_eff", "ball_eff"],
    );
    let mut base: Option<(f64, f64)> = None;
    for &(ranks, level) in &steps {
        let reactor = tetgen::reactor(10 << level, 1.0, 1.0, 4);
        let ball = tetgen::ball(6 << level, 1.0);
        let machine = machine_with_groups(ranks, 4);
        let pr = unstructured_problem(&reactor, 100, ranks, &quad, Strategies::SLBD2);
        let pb = unstructured_problem(&ball, 100, ranks, &quad, Strategies::SLBD2);
        let rr = sim_default(&pr, &machine, 64);
        let rb = sim_default(&pb, &machine, 64);
        let (tr0, tb0) = *base.get_or_insert((rr.time, rb.time));
        t.push(vec![
            (cores(ranks) * 12 / 12).to_string(),
            cores(ranks).to_string(),
            pct(tr0 / rr.time),
            pct(tb0 / rb.time),
        ]);
    }
    t
}

/// Fig. 16 — runtime breakdown of JSNT-S (coarsened-graph iteration).
///
/// Paper: 200³ Kobayashi on 192–3 072 cores; JSweep overhead
/// (graph-op + pack/unpack) ≈ 23%, idle grows from 22% to 46%, comm
/// 13–19%. Here: 48³, S4, paper cores = 4 × simulated.
pub fn fig16(scale: Scale) -> Table {
    let quad = QuadratureSet::sn(4);
    let (n, rank_list): (usize, Vec<usize>) = match scale {
        Scale::Smoke => (16, vec![2, 4]),
        Scale::Full => (48, vec![4, 8, 16, 32, 64]),
    };
    let mut t = Table::new(
        "fig16",
        "JSNT-S per-core time breakdown (seconds, coarsened-graph sweep)",
        &[
            "paper_cores",
            "kernel",
            "graph_op",
            "pack_unpack",
            "comm",
            "idle",
            "total",
        ],
    );
    for &ranks in &rank_list {
        let prob = structured_problem(n, 8, ranks, &quad, Strategies::SLBD2);
        let machine = tianhe(ranks);
        let tasks = coarse_tasks(&prob, 1000);
        let r = simulate_coarse(&prob, &tasks, &machine);
        let c = machine.cores() as f64;
        let b = &r.breakdown;
        t.push(vec![
            (cores(ranks) * 4).to_string(),
            secs(b.kernel / c),
            secs(b.graph_op / c),
            secs(b.pack_unpack / c),
            secs(b.comm / c),
            secs(b.idle / c),
            secs(b.total() / c),
        ]);
    }
    t
}

/// Figs. 17a/17b — JSweep vs the BSP baseline (JASMIN / JAUMIN).
///
/// Paper: JSweep beats hand-optimised JASMIN SnSweep on Kobayashi-400
/// (17a) and JAUMIN JSNT-U on the ball (17b), with the gap widening at
/// scale. Paper cores = 4× (17a) / 16× (17b) simulated.
pub fn fig17(scale: Scale, unstructured: bool) -> Table {
    let quad = QuadratureSet::sn(4);
    if unstructured {
        let mesh = match scale {
            Scale::Smoke => tetgen::ball(5, 1.0),
            Scale::Full => tetgen::ball(12, 1.0),
        };
        let rank_list: Vec<usize> = match scale {
            Scale::Smoke => vec![2],
            Scale::Full => vec![2, 4, 8, 16, 32],
        };
        let mut t = Table::new(
            "fig17b",
            "JSweep vs JAUMIN-BSP on the ball mesh",
            &["paper_cores", "JAUMIN_bsp_s", "JSweep_s"],
        );
        for &ranks in &rank_list {
            let prob = unstructured_problem(&mesh, 500, ranks, &quad, Strategies::SLBD2);
            let machine = machine_with_groups(ranks, 4);
            let b = bsp::simulate_bsp(&prob, &machine);
            let j = sim_default(&prob, &machine, 64);
            t.push(vec![
                (cores(ranks) * 16).to_string(),
                secs(b.time),
                secs(j.time),
            ]);
        }
        t
    } else {
        let (n, rank_list): (usize, Vec<usize>) = match scale {
            Scale::Smoke => (24, vec![6]),
            Scale::Full => (64, vec![6, 12, 24, 48, 96]),
        };
        let mut t = Table::new(
            "fig17a",
            "JSweep vs JASMIN-BSP on Kobayashi-400 (scaled)",
            &["paper_cores", "JASMIN_bsp_s", "JSweep_s"],
        );
        for &ranks in &rank_list {
            let prob = structured_problem(n, 8, ranks, &quad, Strategies::SLBD2);
            let machine = tianhe(ranks);
            let b = bsp::simulate_bsp(&prob, &machine);
            let j = sim_default(&prob, &machine, 1000);
            t.push(vec![
                (cores(ranks) * 4).to_string(),
                secs(b.time),
                secs(j.time),
            ]);
        }
        t
    }
}

/// Table I — parallel-efficiency comparison with Denovo (KBA) and
/// PSD-b.
///
/// Paper: Kobayashi-400 — Denovo 77.8% (3600 vs 144 cores), JSweep
/// 89.6% (6144 vs 384); sphere S4 — PSD-b 88% (1024 vs 128), JSweep
/// 66% (1536 vs 192). Core ratios are preserved (25× / 16× / 8×).
pub fn table1(scale: Scale) -> Table {
    let mut t = Table::new(
        "table1",
        "Parallel efficiency comparison (self-relative, paper core ratios)",
        &["system", "problem", "cores_ratio", "par_eff", "paper_eff"],
    );
    // Structured entries use S6 (48 angles): the paper's Kobayashi runs
    // pipeline 320 directions, and angle-major slack is what carries
    // JSweep's efficiency; S6 is the largest set that stays cheap here.
    let quad = match scale {
        Scale::Smoke => QuadratureSet::sn(2),
        Scale::Full => QuadratureSet::sn(6),
    };
    let quad_u = QuadratureSet::sn(4);

    // Denovo / KBA on the Kobayashi cube: 144 -> 3600 cores (25x).
    let (kba_n, kba_base, kba_big) = match scale {
        Scale::Smoke => (12, (1usize, 1usize), (2usize, 2usize)),
        Scale::Full => (60, (2, 2), (10, 10)),
    };
    let kmesh = jsweep_mesh::StructuredMesh::unit(kba_n, kba_n, kba_n);
    let kb = kba::simulate_kba(
        &kmesh,
        &quad,
        &kba::KbaLayout {
            px: kba_base.0,
            py: kba_base.1,
            chunk_z: 6.min(kba_n),
        },
        &jsweep_des::MachineModel::cluster(kba_base.0 * kba_base.1, 1),
    );
    let kl = kba::simulate_kba(
        &kmesh,
        &quad,
        &kba::KbaLayout {
            px: kba_big.0,
            py: kba_big.1,
            chunk_z: 6.min(kba_n),
        },
        &jsweep_des::MachineModel::cluster(kba_big.0 * kba_big.1, 1),
    );
    let kba_ratio = (kba_big.0 * kba_big.1) as f64 / (kba_base.0 * kba_base.1) as f64;
    let kba_eff = (kb.time / kl.time) / kba_ratio;
    t.push(vec![
        "KBA (Denovo-like)".into(),
        "Kobayashi cube".into(),
        format!("{kba_ratio:.0}x"),
        pct(kba_eff),
        "77.8%".into(),
    ]);

    // JSweep on the Kobayashi cube: 384 -> 6144 (16x).
    let (jn, jbase, jbig) = match scale {
        Scale::Smoke => (16, 1, 4),
        Scale::Full => (64, 2, 32),
    };
    let pb = structured_problem(jn, 8, jbase, &quad, Strategies::SLBD2);
    let pl = structured_problem(jn, 8, jbig, &quad, Strategies::SLBD2);
    let rb = sim_default(&pb, &tianhe(jbase), 1000);
    let rl = sim_default(&pl, &tianhe(jbig), 1000);
    let ratio = jbig as f64 / jbase as f64;
    t.push(vec![
        "JSweep".into(),
        "Kobayashi cube".into(),
        format!("{ratio:.0}x"),
        pct((rb.time / rl.time) / ratio),
        "89.6%".into(),
    ]);

    // PSD-b on the sphere: 128 -> 1024 (8x).
    let ball = match scale {
        Scale::Smoke => tetgen::ball(5, 1.0),
        Scale::Full => tetgen::ball(12, 1.0),
    };
    let (psd_base, psd_big) = match scale {
        Scale::Smoke => (2, 4),
        Scale::Full => (8, 64),
    };
    let template = jsweep_des::MachineModel::cluster(1, 1);
    let (pb_r, _) = psd::simulate_psd(&ball, &quad_u, psd_base, &template, 64);
    let (pl_r, _) = psd::simulate_psd(&ball, &quad_u, psd_big, &template, 64);
    let ratio = psd_big as f64 / psd_base as f64;
    t.push(vec![
        "PSD-b (dedicated)".into(),
        "sphere S4".into(),
        format!("{ratio:.0}x"),
        pct((pb_r.time / pl_r.time) / ratio),
        "88%".into(),
    ]);

    // JSweep on the sphere: 192 -> 1536 (8x).
    let (jsb, jsl) = match scale {
        Scale::Smoke => (1, 2),
        Scale::Full => (2, 16),
    };
    let pbs = unstructured_problem(&ball, 100, jsb, &quad_u, Strategies::SLBD2);
    let pls = unstructured_problem(&ball, 100, jsl, &quad_u, Strategies::SLBD2);
    let rbs = sim_default(&pbs, &machine_with_groups(jsb, 4), 64);
    let rls = sim_default(&pls, &machine_with_groups(jsl, 4), 64);
    let ratio = jsl as f64 / jsb as f64;
    t.push(vec![
        "JSweep".into(),
        "sphere S4".into(),
        format!("{ratio:.0}x"),
        pct((rbs.time / rls.time) / ratio),
        "66%".into(),
    ]);
    t
}

/// §V-E — coarsened-graph ablation: DAG sweep vs CG replay.
///
/// Paper: CG speedup of 7–10× over per-vertex DAG sweeps, with build
/// cost below one DAG iteration. Here the speedup shows up in the
/// scheduling-overhead (graph-op) component and the compute-call count.
pub fn cg_ablation(scale: Scale) -> Table {
    let quad = QuadratureSet::sn(4);
    let (n, ranks, grain) = match scale {
        Scale::Smoke => (16, 2, 16),
        Scale::Full => (48, 16, 64),
    };
    let prob = structured_problem(n, 8, ranks, &quad, Strategies::SLBD2);
    let machine = tianhe(ranks);
    let fine = sim_default(&prob, &machine, grain);
    let build_start = std::time::Instant::now();
    let tasks = coarse_tasks(&prob, grain);
    let build_host_seconds = build_start.elapsed().as_secs_f64();
    let cg = simulate_coarse(&prob, &tasks, &machine);

    let mut t = Table::new(
        "cg_ablation",
        "Coarsened graph vs per-vertex DAG (one sweep iteration)",
        &[
            "variant",
            "time_s",
            "compute_calls",
            "graph_op_core_s",
            "messages",
        ],
    );
    t.push(vec![
        "DAG (fine)".into(),
        secs(fine.time),
        fine.compute_calls.to_string(),
        secs(fine.breakdown.graph_op),
        fine.messages.to_string(),
    ]);
    t.push(vec![
        "Coarsened graph".into(),
        secs(cg.time),
        cg.compute_calls.to_string(),
        secs(cg.breakdown.graph_op),
        cg.messages.to_string(),
    ]);
    t.push(vec![
        "CG build (host s)".into(),
        secs(build_host_seconds),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // Overhead-dominated regime: when DAG bookkeeping dwarfs the
    // kernel (fine-grained kernels / slow schedulers), the paper's
    // 7-10x CG speedup appears. Emulate by charging 20x the default
    // per-vertex graph cost and a tenth of the kernel cost.
    let mut heavy = machine.clone();
    heavy.t_graph = machine.t_graph * 20.0;
    heavy.t_vertex = machine.t_vertex / 10.0;
    let fine_h = sim_default(&prob, &heavy, grain);
    let cg_h = simulate_coarse(&prob, &tasks, &heavy);
    t.push(vec![
        "DAG (overhead-heavy)".into(),
        secs(fine_h.time),
        fine_h.compute_calls.to_string(),
        secs(fine_h.breakdown.graph_op),
        fine_h.messages.to_string(),
    ]);
    t.push(vec![
        "CG (overhead-heavy)".into(),
        secs(cg_h.time),
        cg_h.compute_calls.to_string(),
        secs(cg_h.breakdown.graph_op),
        cg_h.messages.to_string(),
    ]);
    t
}

/// §V-E on the threaded runtime — fine DAG iterations vs coarse-graph
/// replay inside `solve_parallel` (the wired counterpart of
/// [`cg_ablation`], which models the same effect in the DES).
///
/// Paper: replaying the coarsened graph cuts scheduling overhead
/// 7–10× once kernels are cheap relative to bookkeeping; in Fig. 16
/// this is why the graph-op share stays small. Here both variants
/// solve the quickstart-scale problem; rows report the mean steady
/// iteration ([`crate::setups::replay_tail_mean`]) wall and graph-op
/// seconds, and the one-off plan build cost. The flux is asserted
/// bit-identical.
pub fn cg_replay(scale: Scale) -> Table {
    use crate::setups::{replay_scenario, replay_tail_mean};
    use jsweep_core::stats::Category;

    let sc = match scale {
        Scale::Smoke => replay_scenario(8, 4, 2, 3, 16),
        Scale::Full => replay_scenario(16, 4, 2, 9, 16),
    };
    let fine = sc.solve(false);
    let coarse = sc.solve(true);
    assert_eq!(fine.phi, coarse.phi, "replay changed the physics");

    let mut t = Table::new(
        "cg_replay",
        "Fine DAG vs coarse-graph replay in solve_parallel (per replay iteration)",
        &["variant", "iter_wall_s", "iter_graph_op_s", "build_s"],
    );
    t.push(vec![
        "DAG (fine)".into(),
        secs(replay_tail_mean(&fine.stats, |s| s.wall_seconds)),
        secs(replay_tail_mean(&fine.stats, |s| {
            s.category_seconds(Category::GraphOp)
        })),
        "-".into(),
    ]);
    t.push(vec![
        "Coarse replay".into(),
        secs(replay_tail_mean(&coarse.stats, |s| s.wall_seconds)),
        secs(replay_tail_mean(&coarse.stats, |s| {
            s.category_seconds(Category::GraphOp)
        })),
        secs(coarse.coarse_build_seconds),
    ]);
    t
}

/// Run every experiment at the given scale.
pub fn run_all(scale: Scale) -> Vec<Table> {
    let mut out = vec![fig09a(scale)];
    out.push(fig09b(scale));
    out.push(fig12(scale, false));
    out.push(fig12(scale, true));
    out.extend(fig13a(scale));
    out.push(fig13b(scale));
    out.push(fig14(scale, false));
    out.push(fig14(scale, true));
    out.push(fig15(scale));
    out.push(fig16(scale));
    out.push(fig17(scale, false));
    out.push(fig17(scale, true));
    out.push(table1(scale));
    out.push(cg_ablation(scale));
    out.push(cg_replay(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig09a_runs() {
        let t = fig09a(Scale::Smoke);
        assert_eq!(t.rows.len(), 3);
        // Larger grain must reduce compute calls.
        let calls: Vec<u64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(calls[2] < calls[0]);
    }

    #[test]
    fn smoke_table1_runs() {
        let t = table1(Scale::Smoke);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn smoke_cg_replay_runs() {
        // Also asserts bit-identical flux internally.
        let t = cg_replay(Scale::Smoke);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let wall: f64 = row[1].parse().unwrap();
            assert!(wall > 0.0);
        }
    }

    #[test]
    fn smoke_fig17a_bsp_loses() {
        let t = fig17(Scale::Smoke, false);
        for row in &t.rows {
            let bsp: f64 = row[1].parse().unwrap();
            let jsweep: f64 = row[2].parse().unwrap();
            assert!(bsp > jsweep, "BSP {bsp} should exceed JSweep {jsweep}");
        }
    }
}
