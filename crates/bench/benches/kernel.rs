//! Multigroup kernel benchmark: scalar `solve_cell` (geometry
//! re-derived per group) vs the group-blocked path in its production
//! form (`CellGeom` read from the per-class table
//! `CellGeom::per_class` compiles before the pass, as the sweep
//! factory does at set-up; `solve_cell_block_geom` running contiguous
//! `GROUP_BLOCK`-wide group blocks through an autovectorizable inner
//! loop).
//!
//! One "iteration" is a full pass over every cell of the mesh — the
//! per-iteration compute work a sweep does between graph operations —
//! measured best-of-`reps` for G ∈ {1, 8, 16, 32} on a structured hex
//! mesh (step + diamond-difference) and a tet mesh (step). Both
//! variants accumulate the angle-weighted cell flux; the bench asserts
//! the accumulated phi is identical to within `KERNEL_MAX_ULPS`
//! (currently exact) in every mode, so the speedup is never quoted on
//! divergent physics.
//!
//! Full mode asserts the ≥1.5× blocked-vs-scalar target at G=16 on
//! the structured mesh, lists every case where the blocked path still
//! loses to the scalar one, and writes a machine-readable baseline to
//! `BENCH_kernel.json` at the workspace root; the
//! `cargo bench -- --test` smoke pass does none of these.

use jsweep_mesh::{tetgen, GeomClasses, StructuredMesh, SweepTopology};
use jsweep_transport::kernel::{
    solve_cell, solve_cell_block_geom, ulp_distance, CellGeom, KernelKind, GROUP_BLOCK,
    KERNEL_MAX_FACES, KERNEL_MAX_ULPS,
};
use std::time::Instant;

/// One measured (mesh, kernel, G) configuration.
struct Case {
    mesh: &'static str,
    cells: usize,
    kernel: &'static str,
    groups: usize,
    scalar_s: f64,
    blocked_s: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.blocked_s
    }
}

/// Deterministic, varied per-group cross sections and source (same for
/// every cell, like a homogeneous `MaterialSet`, so the kernel — not
/// material gather — dominates).
fn group_data(groups: usize) -> (Vec<f64>, Vec<f64>) {
    let sigma_t = (0..groups).map(|g| 0.5 + 0.1 * (g % 7) as f64).collect();
    let q = (0..groups).map(|g| 1.0 + 0.25 * (g % 5) as f64).collect();
    (sigma_t, q)
}

/// Deterministic pseudo-random incoming face fluxes, layout
/// `(cell * max_faces + face) * groups + g` — the dense face-major view
/// the kernel reads, not program storage (which holds one slot per
/// in-edge; `kernel_cluster` gathers a cell's slots into this shape on
/// the stack before each call).
fn face_flux(n: usize, mf: usize, groups: usize) -> Vec<f64> {
    (0..n * mf * groups)
        .map(|i| (i.wrapping_mul(2654435761) % 1000) as f64 * 1e-3)
        .collect()
}

/// One scalar-kernel pass over every cell, accumulating weighted phi.
#[allow(clippy::too_many_arguments)]
fn pass_scalar<T: SweepTopology + ?Sized>(
    mesh: &T,
    dir: [f64; 3],
    kind: KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    flux: &[f64],
    mf: usize,
    weight: f64,
    phi: &mut [f64],
) {
    let groups = sigma_t.len();
    let mut out = vec![0.0; mf * groups];
    let mut psi = vec![0.0; groups];
    for c in 0..mesh.num_cells() {
        let nf = mesh.num_faces(c);
        let base = c * mf * groups;
        solve_cell(
            mesh,
            c,
            dir,
            kind,
            sigma_t,
            q,
            &flux[base..base + nf * groups],
            &mut out[..nf * groups],
            &mut psi,
        );
        for (p, &x) in phi[c * groups..(c + 1) * groups].iter_mut().zip(&psi) {
            *p += weight * x;
        }
    }
}

/// One blocked pass, cell-major like the production cluster path
/// (`kernel_cluster`): each cell reads its geometry from the
/// direction's class table (`geoms[class_of[c]]`) once and runs its
/// group blocks back to back, so its face and phi rows are read once,
/// in one contiguous run.
#[allow(clippy::too_many_arguments)]
fn pass_blocked(
    geoms: &[CellGeom],
    class_of: &[u32],
    kind: KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    flux: &[f64],
    mf: usize,
    weight: f64,
    phi: &mut [f64],
) {
    let groups = sigma_t.len();
    let mut out = [0.0f64; KERNEL_MAX_FACES * GROUP_BLOCK];
    let mut psi = [0.0f64; GROUP_BLOCK];
    for (c, &class) in class_of.iter().enumerate() {
        let geom = &geoms[class as usize];
        let mut g0 = 0;
        while g0 < groups {
            let b = GROUP_BLOCK.min(groups - g0);
            let base = c * mf * groups + g0;
            solve_cell_block_geom(
                geom,
                kind,
                &sigma_t[g0..g0 + b],
                &q[g0..g0 + b],
                &flux[base..],
                groups,
                &mut out,
                GROUP_BLOCK,
                &mut psi[..b],
            );
            let pbase = c * groups + g0;
            for (p, &x) in phi[pbase..pbase + b].iter_mut().zip(&psi[..b]) {
                *p += weight * x;
            }
            g0 += b;
        }
    }
}

/// Measure one configuration, best-of-`reps` per variant, asserting
/// the accumulated phi agrees within [`KERNEL_MAX_ULPS`].
fn measure<T: SweepTopology + ?Sized>(
    mesh: &T,
    mesh_label: &'static str,
    kind: KernelKind,
    kernel_label: &'static str,
    groups: usize,
    reps: usize,
) -> Case {
    let dir = [0.48, 0.36, 0.8];
    let weight = 1.375;
    let n = mesh.num_cells();
    let mf = (0..n).map(|c| mesh.num_faces(c)).max().unwrap();
    let (sigma_t, q) = group_data(groups);
    let flux = face_flux(n, mf, groups);

    let mut phi_scalar = vec![0.0; n * groups];
    let mut scalar_s = f64::INFINITY;
    for _ in 0..reps {
        phi_scalar.iter_mut().for_each(|x| *x = 0.0);
        let t0 = Instant::now();
        pass_scalar(
            mesh,
            dir,
            kind,
            &sigma_t,
            &q,
            &flux,
            mf,
            weight,
            &mut phi_scalar,
        );
        scalar_s = scalar_s.min(t0.elapsed().as_secs_f64());
    }

    // Set-up, untimed: the class pass and the direction's table.
    let classes = GeomClasses::new(mesh);
    let geoms = CellGeom::per_class(mesh, &classes, dir);
    let mut phi_blocked = vec![0.0; n * groups];
    let mut blocked_s = f64::INFINITY;
    for _ in 0..reps {
        phi_blocked.iter_mut().for_each(|x| *x = 0.0);
        let t0 = Instant::now();
        pass_blocked(
            &geoms,
            &classes.class_of,
            kind,
            &sigma_t,
            &q,
            &flux,
            mf,
            weight,
            &mut phi_blocked,
        );
        blocked_s = blocked_s.min(t0.elapsed().as_secs_f64());
    }

    for (i, (a, b)) in phi_scalar.iter().zip(&phi_blocked).enumerate() {
        // `<=` so the assertion tracks KERNEL_MAX_ULPS if the exactness
        // contract is ever relaxed (it is 0 today, making this `==`).
        #[allow(clippy::absurd_extreme_comparisons)]
        let ok = ulp_distance(*a, *b) <= KERNEL_MAX_ULPS;
        assert!(
            ok,
            "{mesh_label}/{kernel_label}/G={groups}: phi diverged at {i}: {a} vs {b}"
        );
    }

    Case {
        mesh: mesh_label,
        cells: n,
        kernel: kernel_label,
        groups,
        scalar_s,
        blocked_s,
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // Full mode: 12³ structured hexes (both kernels) and a ~3k-cell
    // tet cube (step), best-of-7 per variant — enough cells that the
    // per-pass working set spills L1/L2 like a real patch stream.
    // Test mode shrinks the meshes and runs each variant once: a smoke
    // pass proving the harness and the bit-identity assertion.
    let (hex, tet, reps) = if test_mode {
        (StructuredMesh::unit(6, 6, 6), tetgen::cube(2, 1.0), 1)
    } else {
        (StructuredMesh::unit(12, 12, 12), tetgen::cube(6, 1.0), 7)
    };
    let group_counts = [1usize, 8, 16, 32];

    let mut cases = Vec::new();
    for &g in &group_counts {
        cases.push(measure(
            &hex,
            "structured",
            KernelKind::Step,
            "step",
            g,
            reps,
        ));
    }
    for &g in &group_counts {
        cases.push(measure(
            &hex,
            "structured",
            KernelKind::DiamondDifference,
            "dd",
            g,
            reps,
        ));
    }
    for &g in &group_counts {
        cases.push(measure(&tet, "tet", KernelKind::Step, "step", g, reps));
    }

    for c in &cases {
        println!(
            "kernel {:>10} {:>4} G={:<2} ({} cells): scalar {:>9.3} ms, blocked {:>9.3} ms ({:.2}x)",
            c.mesh,
            c.kernel,
            c.groups,
            c.cells,
            c.scalar_s * 1e3,
            c.blocked_s * 1e3,
            c.speedup()
        );
    }

    let headline = cases
        .iter()
        .find(|c| c.mesh == "structured" && c.kernel == "step" && c.groups == 16)
        .expect("G=16 structured step case");
    let headline_speedup = headline.speedup();
    println!("kernel headline: {headline_speedup:.2}x blocked vs scalar at G=16 (structured step)");

    // Bit-identity is asserted per case in both modes. The wall-clock
    // target and the baseline are full-mode only (a single test-mode
    // sample on a noisy CI core would flake, and is no baseline).
    if test_mode {
        return;
    }
    // The cases where production's path still loses: the input of a
    // per-(kernel, G) dispatch.
    for c in cases.iter().filter(|c| c.speedup() < 1.0) {
        println!(
            "kernel below scalar: {}/{}/G={} at {:.2}x",
            c.mesh,
            c.kernel,
            c.groups,
            c.speedup()
        );
    }
    // Only the step kernel is held to the bar: scalar DD already hoists
    // its face pairing per cell (see `solve_cell`), so blocking
    // eliminates no per-group geometry there — the DD cases are
    // recorded for the register only.
    for c in &cases {
        if c.kernel == "step" && c.groups >= 16 {
            assert!(
                c.speedup() >= 1.5,
                "{}/{}/G={} blocked speedup {:.2}x below the 1.5x target",
                c.mesh,
                c.kernel,
                c.groups,
                c.speedup()
            );
        }
    }

    let case_json: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mesh\": \"{mesh}\",\n",
                    "      \"cells\": {cells},\n",
                    "      \"kernel\": \"{kernel}\",\n",
                    "      \"groups\": {groups},\n",
                    "      \"scalar_pass_seconds\": {s:.9},\n",
                    "      \"blocked_pass_seconds\": {b:.9},\n",
                    "      \"blocked_speedup\": {sp:.3}\n",
                    "    }}"
                ),
                mesh = c.mesh,
                cells = c.cells,
                kernel = c.kernel,
                groups = c.groups,
                s = c.scalar_s,
                b = c.blocked_s,
                sp = c.speedup(),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernel\",\n",
            "  \"mode\": \"full\",\n",
            "  \"group_block\": {gb},\n",
            "  \"max_ulps\": {ulps},\n",
            "  \"cases\": [\n{cases}\n  ],\n",
            "  \"g16_structured_step_speedup\": {hs:.3},\n",
            "  \"phi_within_max_ulps\": true\n",
            "}}\n"
        ),
        gb = GROUP_BLOCK,
        ulps = KERNEL_MAX_ULPS,
        cases = case_json.join(",\n"),
        hs = headline_speedup,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernel.json");
    std::fs::write(&out, json).expect("write BENCH_kernel.json");
    println!("baseline written to {}", out.display());
}
