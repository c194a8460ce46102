//! Property-based tests (proptest) over the core invariants:
//! quadrature moments, partition coverage, sweep-DAG acyclicity and
//! degree balance, schedule-independence of sweep completion, coarse
//! graph acyclicity (Theorem 1), SFC bijectivity, codec roundtrips,
//! and the blocked-vs-scalar kernel differential harness.

use jsweep::graph::coarse::{build_coarse, simulate_clusters, ClusterTrace};
use jsweep::graph::priority::vertex_priorities;
use jsweep::graph::{dag, PriorityStrategy, Subgraph, SweepState};
use jsweep::mesh::{partition, tetgen, StructuredMesh, SweepTopology};
use jsweep::quadrature::{AngleId, QuadratureSet};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random unit direction avoiding axis-aligned degeneracies.
fn direction() -> impl Strategy<Value = [f64; 3]> {
    (-0.99f64..0.99, -0.99f64..0.99, 0.05f64..0.99).prop_map(|(x, y, z)| {
        let sx = if x == 0.0 { 0.01 } else { x };
        let sy = if y == 0.0 { 0.01 } else { y };
        let n = (sx * sx + sy * sy + z * z).sqrt();
        [sx / n, sy / n, z / n]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn structured_subgraphs_balance_and_complete(
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 2usize..6,
        px in 1usize..4,
        dir in direction(),
    ) {
        let mesh = StructuredMesh::unit(nx, ny, nz);
        let (ps, _) = partition::structured_blocks(&mesh, (px, px, px));
        let subs = Subgraph::build_all(&mesh, &ps, AngleId(0), dir, &HashSet::new());
        // Degree balance invariant.
        jsweep::graph::subgraph::check_edge_degree_balance(&subs).unwrap();
        // Internal DAGs are acyclic.
        for sub in &subs {
            prop_assert!(dag::is_acyclic(&sub.internal_csr()));
        }
        // The whole multi-patch sweep completes (no lost dependencies).
        let total = drive_sweep(&subs, 8);
        prop_assert_eq!(total, mesh.num_cells());
    }

    #[test]
    fn tet_subgraphs_complete(
        half in 2usize..4,
        target in 10usize..60,
        dir in direction(),
    ) {
        let mesh = tetgen::ball(half, 1.0);
        let ps = partition::greedy_bfs(&mesh, target);
        let subs = Subgraph::build_all(&mesh, &ps, AngleId(0), dir, &HashSet::new());
        let total = drive_sweep(&subs, 16);
        prop_assert_eq!(total, mesh.num_cells());
    }

    #[test]
    fn sweep_completion_is_grain_independent(
        n in 2usize..6,
        grain in 1usize..40,
        dir in direction(),
    ) {
        let mesh = StructuredMesh::unit(n, n, n);
        let (ps, _) = partition::structured_blocks(&mesh, (2, 2, 2));
        let subs = Subgraph::build_all(&mesh, &ps, AngleId(0), dir, &HashSet::new());
        let total = drive_sweep(&subs, grain);
        prop_assert_eq!(total, mesh.num_cells());
    }

    #[test]
    fn coarse_graph_is_acyclic_for_random_setups(
        n in 3usize..7,
        grain in 1usize..30,
        dir in direction(),
    ) {
        let mesh = StructuredMesh::unit(n, n, n);
        let (ps, _) = partition::structured_blocks(&mesh, (3, 3, 3));
        let subs = Subgraph::build_all(&mesh, &ps, AngleId(0), dir, &HashSet::new());
        let traces = trace_sweep(&subs, grain);
        // build_coarse panics on Theorem-1 violations.
        let tasks = build_coarse(&subs, &traces);
        let coarse_vertices: usize = tasks.iter().map(|t| t.num_clusters()).sum();
        let fine_vertices: usize = subs.iter().map(|s| s.num_vertices()).sum();
        prop_assert!(coarse_vertices <= fine_vertices);
    }

    #[test]
    fn simulated_clusters_coarsen_acyclically(
        family in 0usize..3,
        n in 3usize..6,
        patches in 1usize..10,
        ranks in 1usize..4,
        grain in 1usize..65,
        claim_batch in 1usize..9,
        seed in 0u64..1000,
    ) {
        // Theorem 1 over many valid executions: whatever the grain,
        // claim batch, decomposition and mesh family (hexes, tets,
        // deformed hexes whose cyclic directions were cut), the clusters
        // of the simulated execution partition every task's vertices
        // and build_coarse, whose topological check panics on a cyclic
        // coarse graph, accepts them.
        let problem = match family {
            0 => simulated_problem(&StructuredMesh::unit(n, n, n), patches, ranks, false),
            1 => simulated_problem(&tetgen::cube(n - 1, 1.0), patches, ranks, false),
            _ => simulated_problem(
                &jsweep::mesh::deformed::DeformedMesh::jittered(n, n, n, 0.35, seed),
                patches,
                ranks,
                true,
            ),
        };
        let traces = simulate_clusters(&problem, grain, claim_batch);
        prop_assert_eq!(traces.len(), problem.num_angles);
        for (a, angle_traces) in traces.iter().enumerate() {
            for (sub, trace) in problem.subs[a].iter().zip(angle_traces) {
                let mut seen = vec![false; sub.num_vertices()];
                for cluster in &trace.clusters {
                    prop_assert!(!cluster.is_empty() && cluster.len() <= grain);
                    for &v in cluster {
                        prop_assert!(!std::mem::replace(&mut seen[v as usize], true));
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "a vertex in no cluster");
            }
            build_coarse(&problem.subs[a], angle_traces);
        }
    }

    #[test]
    fn rcb_partitions_cover_exactly(
        n in 2usize..5,
        parts in 1usize..9,
    ) {
        let mesh = tetgen::cube(n, 1.0);
        let parts = parts.min(mesh.num_cells());
        let ps = partition::rcb(&mesh, parts);
        let mut seen = vec![false; mesh.num_cells()];
        for p in ps.patches() {
            for &c in ps.cells(p) {
                prop_assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_and_morton_are_bijective(bits in 1u32..5) {
        use jsweep::mesh::sfc;
        let n = 1u32 << bits;
        let mut hkeys = HashSet::new();
        let mut mkeys = HashSet::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    prop_assert!(hkeys.insert(sfc::hilbert3(x, y, z, bits)));
                    prop_assert!(mkeys.insert(sfc::morton3(x, y, z, bits)));
                    let (rx, ry, rz) = sfc::hilbert3_inv(sfc::hilbert3(x, y, z, bits), bits);
                    prop_assert_eq!((rx, ry, rz), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn pack_roundtrip_arbitrary(values in prop::collection::vec(any::<f64>(), 0..64)) {
        use jsweep::comm::pack::{Reader, Writer};
        let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        let mut w = Writer::new();
        w.put_f64_slice(&finite);
        let mut r = Reader::new(w.finish());
        prop_assert_eq!(r.get_f64_vec(), finite);
        prop_assert!(r.is_exhausted());
    }

    /// Wire-framed pack payloads pushed through a real UNIX socket in
    /// adversarial fragments (arbitrary partial-read split points) must
    /// reassemble byte-exactly, with exact bytes accounting.
    #[test]
    fn wire_frames_survive_socket_fragmentation(
        frames in prop::collection::vec(
            (0u32..1000, prop::collection::vec(any::<f64>(), 0..48)),
            1..8,
        ),
        cuts in prop::collection::vec(1usize..97, 1..64),
    ) {
        use jsweep::comm::pack::{Reader, Writer};
        use jsweep::comm::socket::{encode_frame, WireDecoder};
        use std::io::{Read as _, Write as _};
        use std::os::unix::net::UnixStream;

        let frames: Vec<(u32, Vec<f64>)> = frames
            .into_iter()
            .map(|(tag, vals)| (tag, vals.into_iter().filter(|v| v.is_finite()).collect()))
            .collect();
        // Encode every frame, payload via the pack codec.
        let mut stream_bytes = Vec::new();
        for (tag, vals) in &frames {
            let mut w = Writer::new();
            w.put_f64_slice(vals);
            stream_bytes.extend_from_slice(&encode_frame(*tag, &w.finish()));
        }

        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let mut dec = WireDecoder::new();
        let mut decoded: Vec<(u32, bytes::Bytes)> = Vec::new();
        let drain = |dec: &mut WireDecoder, rx: &mut UnixStream, out: &mut Vec<_>| {
            let mut buf = [0u8; 256];
            loop {
                match rx.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => dec.push(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("socket read failed: {e}"),
                }
            }
            while let Some(f) = dec.next_frame() {
                out.push(f);
            }
        };

        // Write the byte stream in proptest-chosen fragment sizes,
        // draining the receive side between fragments so the decoder
        // sees every partial-read split the schedule produces.
        let mut off = 0;
        let mut cut_idx = 0;
        while off < stream_bytes.len() {
            let len = cuts[cut_idx % cuts.len()].min(stream_bytes.len() - off);
            cut_idx += 1;
            tx.write_all(&stream_bytes[off..off + len]).unwrap();
            off += len;
            drain(&mut dec, &mut rx, &mut decoded);
        }
        drop(tx);
        // Final drain catches anything buffered in the kernel.
        loop {
            let mut buf = [0u8; 256];
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => dec.push(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) => panic!("socket read failed: {e}"),
            }
            while let Some(f) = dec.next_frame() {
                decoded.push(f);
            }
        }

        prop_assert_eq!(decoded.len(), frames.len());
        for ((tag, vals), (dtag, payload)) in frames.iter().zip(&decoded) {
            prop_assert_eq!(*tag, *dtag);
            let mut r = Reader::new(payload.clone());
            prop_assert_eq!(&r.get_f64_vec(), vals);
            prop_assert!(r.is_exhausted());
        }
        // Accounting is byte-exact: everything written was consumed,
        // nothing is left mid-frame.
        prop_assert_eq!(dec.bytes_consumed(), stream_bytes.len() as u64);
        prop_assert_eq!(dec.pending_bytes(), 0);
        prop_assert!(!dec.closed());
    }

    #[test]
    fn quadrature_moments_hold(order in (1u32..8).prop_map(|k| 2 * k)) {
        let q = QuadratureSet::sn(order);
        let total: f64 = q.ordinates().iter().map(|o| o.weight).sum();
        prop_assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-9);
        for axis in 0..3 {
            prop_assert!(q.integrate(|d| d[axis]).abs() < 1e-9);
        }
    }

    #[test]
    fn break_cycles_always_yields_dag(
        n in 2u32..12,
        edges in prop::collection::vec((0u32..12, 0u32..12, 0.01f64..10.0), 0..40),
    ) {
        use jsweep::graph::cycles::break_cycles;
        let edges: Vec<(u32, u32, f64)> = edges
            .into_iter()
            .map(|(s, d, w)| (s % n, d % n, w))
            .collect();
        let removed = break_cycles(n as usize, &edges);
        let live: Vec<(u32, u32)> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, &(s, d, _))| (s, d))
            .collect();
        prop_assert!(dag::is_acyclic(&dag::Csr::from_edges(n as usize, &live)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential harness, structured hexahedra: the blocked kernel
    /// ([`solve_cell_block`]) must match the scalar oracle
    /// ([`solve_cell`]) to within `KERNEL_MAX_ULPS` per element, for
    /// both kernel kinds, over random cells, directions, cross
    /// sections, incoming fluxes, and group counts — including counts
    /// that are not multiples of the block width, which exercise the
    /// scalar tail.
    #[test]
    fn blocked_kernel_matches_scalar_on_structured(
        n in 2usize..5,
        cell_pick in 0usize..4096,
        dir in direction(),
        groups in 1usize..40,
        dd in any::<bool>(),
        st in prop::collection::vec(0.0f64..20.0, 40..41),
        qv in prop::collection::vec(0.0f64..10.0, 40..41),
        inc in prop::collection::vec(0.0f64..5.0, 96..97),
    ) {
        use jsweep::transport::kernel::KernelKind;
        let mesh = StructuredMesh::unit(n, n, n);
        let cell = cell_pick % mesh.num_cells();
        let kind = if dd {
            KernelKind::DiamondDifference
        } else {
            KernelKind::Step
        };
        check_blocked_vs_scalar(&mesh, cell, dir, kind, &st[..groups], &qv[..groups], &inc);
    }

    /// Differential harness, tetrahedra (step kernel — DD is
    /// hex-only): blocked vs scalar over random tet cells, directions,
    /// and group counts.
    #[test]
    fn blocked_kernel_matches_scalar_on_tets(
        half in 1usize..3,
        cell_pick in 0usize..4096,
        dir in direction(),
        groups in 1usize..40,
        st in prop::collection::vec(0.0f64..20.0, 40..41),
        qv in prop::collection::vec(0.0f64..10.0, 40..41),
        inc in prop::collection::vec(0.0f64..5.0, 96..97),
    ) {
        use jsweep::transport::kernel::KernelKind;
        let mesh = tetgen::cube(half, 1.0);
        let cell = cell_pick % mesh.num_cells();
        check_blocked_vs_scalar(
            &mesh,
            cell,
            dir,
            KernelKind::Step,
            &st[..groups],
            &qv[..groups],
            &inc,
        );
    }
}

/// Run [`solve_cell`] (scalar oracle) and [`solve_cell_block`] on
/// identical inputs and assert the cell-average flux and every
/// outgoing face flux agree within
/// [`jsweep::transport::kernel::KERNEL_MAX_ULPS`]. Incoming face
/// fluxes are tiled from `inc_pool` so any `nf * groups` extent gets
/// deterministic, varied values.
fn check_blocked_vs_scalar<T: SweepTopology + ?Sized>(
    mesh: &T,
    cell: usize,
    dir: [f64; 3],
    kind: jsweep::transport::kernel::KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    inc_pool: &[f64],
) {
    use jsweep::transport::kernel::{solve_cell, solve_cell_block, ulp_distance, KERNEL_MAX_ULPS};
    let groups = sigma_t.len();
    let nf = mesh.num_faces(cell);
    let incoming: Vec<f64> = (0..nf * groups)
        .map(|i| inc_pool[i % inc_pool.len()])
        .collect();
    let mut out_scalar = vec![0.0; nf * groups];
    let mut psi_scalar = vec![0.0; groups];
    solve_cell(
        mesh,
        cell,
        dir,
        kind,
        sigma_t,
        q,
        &incoming,
        &mut out_scalar,
        &mut psi_scalar,
    );
    let mut out_blocked = vec![0.0; nf * groups];
    let mut psi_blocked = vec![0.0; groups];
    solve_cell_block(
        mesh,
        cell,
        dir,
        kind,
        sigma_t,
        q,
        &incoming,
        &mut out_blocked,
        &mut psi_blocked,
    );
    // `<=` so the bound tracks KERNEL_MAX_ULPS if the exactness
    // contract is ever relaxed (it is 0 today, making this `==`).
    #[allow(clippy::absurd_extreme_comparisons)]
    fn within_bound(a: f64, b: f64) -> bool {
        ulp_distance(a, b) <= KERNEL_MAX_ULPS
    }
    for g in 0..groups {
        assert!(
            within_bound(psi_scalar[g], psi_blocked[g]),
            "psi_cell diverged at group {g}: scalar {} vs blocked {}",
            psi_scalar[g],
            psi_blocked[g],
        );
    }
    for i in 0..nf * groups {
        assert!(
            within_bound(out_scalar[i], out_blocked[i]),
            "psi_out diverged at slot {i}: scalar {} vs blocked {}",
            out_scalar[i],
            out_blocked[i],
        );
    }
}

/// Serially drive a multi-patch sweep to completion; returns the
/// number of vertices computed.
fn drive_sweep(subs: &[Subgraph], grain: usize) -> usize {
    let mut states: Vec<SweepState> = subs
        .iter()
        .map(|s| SweepState::with_priorities(s, &vertex_priorities(s, PriorityStrategy::Slbd)))
        .collect();
    let local: std::collections::HashMap<u32, (usize, u32)> = subs
        .iter()
        .enumerate()
        .flat_map(|(pi, s)| {
            s.cells
                .iter()
                .enumerate()
                .map(move |(li, &c)| (c, (pi, li as u32)))
        })
        .collect();
    let mut computed = 0usize;
    loop {
        let mut progressed = false;
        for pi in 0..subs.len() {
            while states[pi].has_ready() {
                let mut remote = Vec::new();
                let cluster = states[pi].pop_cluster(&subs[pi], grain, |_, re| remote.push(re));
                computed += cluster.len();
                progressed = true;
                for re in remote {
                    let (qi, lv) = local[&re.cell];
                    states[qi].receive(lv);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    for st in &states {
        assert!(st.is_complete(), "sweep deadlocked");
    }
    computed
}

/// Like [`drive_sweep`] but recording clustering traces.
fn trace_sweep(subs: &[Subgraph], grain: usize) -> Vec<ClusterTrace> {
    let mut states: Vec<SweepState> = subs
        .iter()
        .map(|s| SweepState::with_priorities(s, &vertex_priorities(s, PriorityStrategy::Slbd)))
        .collect();
    let mut traces = vec![ClusterTrace::default(); subs.len()];
    let local: std::collections::HashMap<u32, (usize, u32)> = subs
        .iter()
        .enumerate()
        .flat_map(|(pi, s)| {
            s.cells
                .iter()
                .enumerate()
                .map(move |(li, &c)| (c, (pi, li as u32)))
        })
        .collect();
    loop {
        let mut progressed = false;
        for pi in 0..subs.len() {
            while states[pi].has_ready() {
                let mut remote = Vec::new();
                let cluster = states[pi].pop_cluster(&subs[pi], grain, |_, re| remote.push(re));
                traces[pi].record(cluster);
                progressed = true;
                for re in remote {
                    let (qi, lv) = local[&re.cell];
                    states[qi].receive(lv);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    traces
}

/// An S2 problem over `mesh` in (at most) `patches` RCB patches dealt
/// round-robin to (at most) `ranks` ranks, every angle owning its DAG;
/// `check_cycles` cuts the cyclic dependencies of deformed meshes.
fn simulated_problem<T: SweepTopology>(
    mesh: &T,
    patches: usize,
    ranks: usize,
    check_cycles: bool,
) -> jsweep::graph::SweepProblem {
    let mut ps = partition::rcb(mesh, patches.min(mesh.num_cells()));
    let ranks = ranks.min(ps.num_patches());
    ps.distribute(
        (0..ps.num_patches()).map(|p| (p % ranks) as u32).collect(),
        ranks,
    );
    let opts = jsweep::graph::ProblemOptions {
        check_cycles,
        ..Default::default()
    };
    jsweep::graph::SweepProblem::build(mesh, ps, &QuadratureSet::sn(2), &opts)
}

/// Six (key, unit-size plan) pairs over three distinct mesh
/// generations, for the concurrent plan-cache property below.
fn plan_cache_fixtures() -> Vec<(
    jsweep::transport::PlanKey,
    std::sync::Arc<jsweep::transport::CoarsePlan>,
)> {
    use jsweep::graph::{problem::ProblemOptions, SweepProblem};
    use jsweep::transport::{plan_key, CoarsePlan};
    use std::sync::Arc;
    let quad = QuadratureSet::sn(2);
    let mut out = Vec::new();
    for _ in 0..3 {
        let m = StructuredMesh::unit(3, 3, 3);
        let ps = partition::decompose_structured(&m, (1, 1, 1), 1);
        let p = SweepProblem::build(&m, ps, &quad, &ProblemOptions::default());
        for grain in [8usize, 16] {
            out.push((
                plan_key(&p, grain),
                Arc::new(CoarsePlan {
                    tasks: Vec::new(),
                    mesh_generation: p.mesh_generation,
                }),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PlanCache under concurrent get/insert/retain interleavings: a
    /// lookup never returns a plan of another generation, every lookup
    /// counts as exactly one hit or miss, and `retain_generations`
    /// drops exactly the superseded plans.
    #[test]
    fn plan_cache_is_consistent_under_concurrent_access(
        ops in prop::collection::vec(
            prop::collection::vec((0u8..4, 0usize..6), 1..12),
            3..4,
        ),
    ) {
        use jsweep::transport::PlanCache;
        use std::sync::atomic::{AtomicU64, Ordering};
        let fixtures = plan_cache_fixtures();
        let cache = PlanCache::new();
        let keep_gen = fixtures[4].0.mesh_generation();
        let gets = AtomicU64::new(0);
        let lookup = |key| {
            gets.fetch_add(1, Ordering::Relaxed);
            cache.get(key)
        };

        std::thread::scope(|scope| {
            for thread_ops in &ops {
                let (fixtures, cache, lookup) = (&fixtures, &cache, &lookup);
                scope.spawn(move || {
                    for &(op, k) in thread_ops {
                        let (key, plan) = &fixtures[k];
                        match op {
                            0 | 1 => cache.insert(*key, plan.clone()),
                            2 => {
                                if let Some(got) = lookup(key) {
                                    assert_eq!(
                                        got.mesh_generation,
                                        key.mesh_generation(),
                                        "lookup returned a wrong-generation plan"
                                    );
                                }
                            }
                            _ => {
                                let _ = cache.retain_generations(&[keep_gen]);
                            }
                        }
                    }
                });
            }
        });

        let live = |key: &jsweep::transport::PlanKey| key.mesh_generation() == keep_gen;
        let had: Vec<bool> = fixtures.iter().map(|(k, _)| lookup(k).is_some()).collect();
        let superseded = fixtures
            .iter()
            .zip(&had)
            .filter(|((k, _), &had)| had && !live(k))
            .count();
        prop_assert_eq!(cache.retain_generations(&[keep_gen]), superseded);
        for ((k, _), had) in fixtures.iter().zip(had) {
            prop_assert_eq!(lookup(k).is_some(), had && live(k));
        }
        prop_assert_eq!(cache.hits() + cache.misses(), gets.load(Ordering::Relaxed));
    }
}
