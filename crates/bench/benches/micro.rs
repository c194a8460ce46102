//! Criterion microbenchmarks of the components the end-to-end ledger
//! (`e2e_ledger/`) has no per-layer metric for: priority computation,
//! Hilbert keys and the discrete-event simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use jsweep_graph::priority::vertex_priorities;
use jsweep_graph::{PriorityStrategy, Subgraph};
use jsweep_mesh::{partition, PatchSet, StructuredMesh, SweepTopology};
use jsweep_quadrature::AngleId;
use std::collections::HashSet;
use std::hint::black_box;

fn bench_priorities(c: &mut Criterion) {
    let mesh = StructuredMesh::unit(24, 24, 24);
    let ps = PatchSet::single(mesh.num_cells());
    let sub = Subgraph::build_all(&mesh, &ps, AngleId(0), [1.0, 1.0, 1.0], &HashSet::new())
        .swap_remove(0);
    for s in [
        PriorityStrategy::Bfs,
        PriorityStrategy::Ldcp,
        PriorityStrategy::Slbd,
    ] {
        c.bench_function(&format!("vertex_priorities_{}_14k", s.name()), |b| {
            b.iter(|| black_box(vertex_priorities(&sub, s)))
        });
    }
}

fn bench_hilbert(c: &mut Criterion) {
    use jsweep_mesh::sfc::hilbert3;
    c.bench_function("hilbert3_key", |b| {
        b.iter(|| black_box(hilbert3(black_box(123), black_box(456), black_box(789), 10)))
    });
}

fn bench_des_small(c: &mut Criterion) {
    use jsweep_des::{simulate, MachineModel, ProblemOptions, SimOptions, SweepProblem};
    use jsweep_quadrature::QuadratureSet;
    let mesh = StructuredMesh::unit(12, 12, 12);
    let ps = partition::decompose_structured(&mesh, (4, 4, 4), 2);
    let quad = QuadratureSet::sn(2);
    let prob = SweepProblem::build(
        &mesh,
        ps,
        &quad,
        &ProblemOptions {
            share_octant_dags: true,
            ..Default::default()
        },
    );
    let machine = MachineModel::cluster(2, 3);
    c.bench_function("des_sweep_12cube_s2", |b| {
        b.iter(|| black_box(simulate(&prob, &machine, &SimOptions::default())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_priorities, bench_hilbert, bench_des_small
}
criterion_main!(benches);
