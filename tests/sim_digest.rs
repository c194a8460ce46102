//! Bit-for-bit pins on the simulated scheduler.
//!
//! `graph::coarse::simulate_clusters` (the plan compiler), the DES
//! (`des::simulate`, `des::simulate_coarse`) and the BSP baseline all
//! execute the Listing-1 scheduler over `graph::sim`'s task set and
//! ready pool. Their outputs are pure functions of the problem, the
//! machine and the grain, so one FNV-1a digest per (mesh family, grain)
//! pins them: the clusters of every trace, and every `DesResult` field
//! (floats by `to_bits`). A change to the pool's ordering, the routing
//! of a remote edge or the DES accounting moves a digest.

use jsweep::baselines::simulate_bsp;
use jsweep::core::engine::CLAIM_BATCH;
use jsweep::des::{simulate, simulate_coarse, DesResult, MachineModel, SimOptions};
use jsweep::graph::coarse::{build_coarse, simulate_clusters, CoarsenedTask};
use jsweep::graph::{ProblemOptions, SweepProblem};
use jsweep::mesh::deformed::DeformedMesh;
use jsweep::mesh::partition::{decompose_structured, decompose_unstructured, rcb};
use jsweep::mesh::{tetgen, StructuredMesh};
use jsweep::quadrature::QuadratureSet;

fn fnv(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest_result(h: &mut u64, r: &DesResult) {
    let b = &r.breakdown;
    for x in [
        r.time,
        r.bytes,
        b.kernel,
        b.graph_op,
        b.pack_unpack,
        b.comm,
        b.idle,
    ] {
        fnv(h, x.to_bits());
    }
    for x in [r.vertices, r.compute_calls, r.messages] {
        fnv(h, x);
    }
}

/// Hex 12³ S4 with shared octant DAGs over 2 ranks.
fn hex() -> SweepProblem {
    let mesh = StructuredMesh::unit(12, 12, 12);
    let opts = ProblemOptions {
        share_octant_dags: true,
        ..Default::default()
    };
    SweepProblem::build(
        &mesh,
        decompose_structured(&mesh, (4, 4, 4), 2),
        &QuadratureSet::sn(4),
        &opts,
    )
}

/// Tets of a 6³ voxel cube over 3 ranks, S2.
fn tet() -> SweepProblem {
    let mesh = tetgen::cube(6, 1.0);
    SweepProblem::build(
        &mesh,
        decompose_unstructured(&mesh, 48, 3),
        &QuadratureSet::sn(2),
        &ProblemOptions::default(),
    )
}

/// Jittered 6³ hexes whose cyclic dependencies are cut, over 2 ranks.
fn jittered() -> SweepProblem {
    let mesh = DeformedMesh::jittered(6, 6, 6, 0.3, 21);
    let mut ps = rcb(&mesh, 4);
    ps.distribute(vec![0, 0, 1, 1], 2);
    let opts = ProblemOptions {
        check_cycles: true,
        ..Default::default()
    };
    SweepProblem::build(&mesh, ps, &QuadratureSet::sn(2), &opts)
}

/// One digest over the traces `simulate_clusters` compiles at `grain`,
/// the fine and coarse DES at `grain` and the BSP baseline.
fn digest(prob: &SweepProblem, grain: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let traces = simulate_clusters(prob, grain, CLAIM_BATCH);
    for per_patch in &traces {
        for trace in per_patch {
            fnv(&mut h, trace.clusters.len() as u64);
            for cluster in &trace.clusters {
                fnv(&mut h, cluster.len() as u64);
                for &v in cluster {
                    fnv(&mut h, u64::from(v));
                }
            }
        }
    }
    let machine = MachineModel::cluster(prob.patches.num_ranks(), 3);
    digest_result(&mut h, &simulate(prob, &machine, &SimOptions { grain }));
    let tasks: Vec<Vec<CoarsenedTask>> = (0..prob.num_angles)
        .map(|a| {
            let c = prob.canonical_angle(a);
            build_coarse(&prob.subs[c], &traces[c])
        })
        .collect();
    digest_result(&mut h, &simulate_coarse(prob, &tasks, &machine));
    digest_result(&mut h, &simulate_bsp(prob, &machine));
    h
}

#[test]
fn simulated_schedules_are_pinned() {
    let families = [
        ("hex12_s4", hex()),
        ("tet6", tet()),
        ("jittered6", jittered()),
    ];
    // (family, grain, digest), recorded before the three simulators
    // shared one pool.
    let pinned: [(&str, usize, u64); 6] = [
        ("hex12_s4", 1, 0x373823158ede7ddf),
        ("hex12_s4", 64, 0xd3fe714d2a4bd0c4),
        ("tet6", 1, 0xd1f04c4969fa3a6c),
        ("tet6", 64, 0x8533e7db6bdf4543),
        ("jittered6", 1, 0x2c9f73b49d57353b),
        ("jittered6", 64, 0x497ac7bea02599ce),
    ];
    let got = families
        .iter()
        .flat_map(|(name, prob)| [1, 64].map(|grain| (*name, grain, digest(prob, grain))));
    for (g, p) in got.zip(pinned) {
        assert_eq!(g, p, "digest {:#018x} moved", g.2);
    }
}
