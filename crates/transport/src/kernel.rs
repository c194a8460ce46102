//! Per-(cell, angle) transport kernels.
//!
//! Both kernels solve the within-cell balance equation for the angular
//! flux given incoming face fluxes, then express outgoing face fluxes:
//!
//! * [`KernelKind::Step`] (upwind/step characteristic): first-order,
//!   positive, works on any polyhedral cell — the JSNT-U choice for
//!   tetrahedra;
//! * [`KernelKind::DiamondDifference`] — the classic second-order
//!   structured-mesh scheme (TORT/JSNT-S family) with a set-to-zero
//!   negative-flux fixup. Requires the structured face pairing
//!   (`face ^ 1` is the opposite face).
//!
//! Two code paths produce bit-identical results:
//!
//! * [`solve_cell`] — the scalar reference: groups outermost, face
//!   geometry fetched per group. Retained as the fallback and as the
//!   oracle every blocked result is differentially tested against.
//! * [`solve_cell_block`] / [`solve_cell_block_geom`] — the hot path:
//!   per-(cell, angle) geometry is hoisted into a [`CellGeom`] — in
//!   the sweep, compiled once per geometry class and angle at set-up
//!   ([`CellGeom::per_class`]), so no iteration asks the mesh for it —
//!   and the innermost loops run over [`GROUP_BLOCK`]-wide contiguous
//!   group blocks of plain-indexed `f64` slices, which autovectorize.
//!   Group counts that are not a multiple of the block width fall back
//!   to a width-1 scalar tail (the same monomorphized routine at
//!   `B = 1`). Both paths execute the same floating-point operations
//!   in the same order, so they agree to [`KERNEL_MAX_ULPS`] — which
//!   is zero: bit-identical.

use jsweep_mesh::{GeomClasses, SweepTopology};

/// Width of the contiguous group blocks the blocked kernel iterates
/// over. Eight `f64`s span one 64-byte cache line and map onto one
/// AVX-512 register or two AVX2 registers; the block loops are plain
/// counted loops over stack arrays of this width, which LLVM
/// autovectorizes without any `std::simd` dependency.
pub const GROUP_BLOCK: usize = 8;

/// Maximum number of faces per cell the hoisted [`CellGeom`] supports
/// (hexahedra; tetrahedra use 4 of the 6 slots).
pub const KERNEL_MAX_FACES: usize = 6;

/// Maximum per-element ULP distance between [`solve_cell`] and
/// [`solve_cell_block`] results, asserted by the differential tests
/// (`tests/properties.rs`) and the kernel bench. The blocked path
/// performs the identical operation sequence per group — hoisting only
/// values that are themselves deterministic functions of the inputs —
/// so the bound is zero: any widening of this constant must come with
/// a measured justification.
pub const KERNEL_MAX_ULPS: u64 = 0;

/// Distance in units-in-the-last-place between two finite `f64`s.
/// Returns 0 for bitwise-equal values (and for `+0.0` vs `-0.0`),
/// `u64::MAX` when the values differ in sign or either is NaN.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() || a.is_sign_positive() != b.is_sign_positive() {
        return u64::MAX;
    }
    let mag = |x: f64| x.to_bits() & !(1u64 << 63);
    mag(a).abs_diff(mag(b))
}

/// Per-(cell, angle) geometry hoisted out of the group loop: face
/// flows `A Ω·n`, the cell volume, and (for hexahedra) the
/// diamond-difference upwind pairing — everything [`solve_cell`]
/// re-derives from [`SweepTopology::face`] per *group*, computed once
/// per *geometry class and angle* ([`CellGeom::per_class`]): every
/// cell of a [`GeomClasses`] class has the same one, bit for bit.
///
/// The sweep keeps one table of these per angle, so it stores
/// `classes × angles × size_of::<CellGeom>()` (112 B) — one entry for
/// a uniform structured mesh, and at worst, on a mesh with no repeated
/// cell shape (a jittered one), `cells × angles` entries.
#[derive(Debug, Clone, Copy)]
pub struct CellGeom {
    /// Cell volume.
    pub volume: f64,
    /// Number of faces (≤ [`KERNEL_MAX_FACES`]).
    pub nf: usize,
    /// Signed face flow `A Ω·n` per face; slots beyond `nf` are zero.
    pub flow: [f64; KERNEL_MAX_FACES],
    /// Diamond-difference upwind face per axis (hex cells only).
    dd_up: [usize; 3],
    /// Diamond-difference coupling coefficient per axis (hex only).
    dd_coef: [f64; 3],
}

impl CellGeom {
    /// Hoist the geometry of `cell` for direction `dir`.
    pub fn new<T: SweepTopology + ?Sized>(mesh: &T, cell: usize, dir: [f64; 3]) -> CellGeom {
        let nf = mesh.num_faces(cell);
        assert!(
            nf <= KERNEL_MAX_FACES,
            "cell with {nf} faces exceeds KERNEL_MAX_FACES"
        );
        let mut flow = [0.0; KERNEL_MAX_FACES];
        for (f, fl) in flow.iter_mut().enumerate().take(nf) {
            *fl = mesh.face(cell, f).flow(dir);
        }
        let mut dd_up = [0usize; 3];
        let mut dd_coef = [0f64; 3];
        if nf == 6 {
            // Per axis: upwind face u, downwind face d = u ^ 1; the
            // expressions match the scalar kernel's exactly.
            for ax in 0..3 {
                let f0 = 2 * ax;
                if flow[f0] < 0.0 {
                    dd_up[ax] = f0;
                    dd_coef[ax] = -flow[f0];
                } else {
                    dd_up[ax] = f0 + 1;
                    dd_coef[ax] = flow[f0].max(flow[f0 + 1].abs());
                }
            }
        }
        CellGeom {
            volume: mesh.cell_volume(cell),
            nf,
            flow,
            dd_up,
            dd_coef,
        }
    }

    /// The geometry table of direction `dir`: entry `k` is
    /// [`CellGeom::new`] of class `k`'s representative, so cell `c`'s
    /// geometry is entry `classes.class_of[c]`.
    pub fn per_class<T: SweepTopology + ?Sized>(
        mesh: &T,
        classes: &GeomClasses,
        dir: [f64; 3],
    ) -> Vec<CellGeom> {
        classes
            .reps
            .iter()
            .map(|&rep| CellGeom::new(mesh, rep as usize, dir))
            .collect()
    }
}

/// Which cell kernel the sweep applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// First-order upwind; any cell shape.
    Step,
    /// Diamond difference with negative-flux fixup; structured
    /// hexahedra only.
    DiamondDifference,
}

/// Solve one cell for one direction and `g` groups.
///
/// * `incoming[f * groups + g]` — incoming angular flux on face `f`
///   (only consulted for upwind faces; boundary faces must be
///   pre-filled with the boundary condition, 0 for vacuum);
/// * `q[g]` — total emission density (scattering + external) / 4π;
/// * `sigma_t[g]` — total cross section;
/// * `psi_out[f * groups + g]` — outgoing angular flux written for
///   every downwind face (untouched for upwind faces);
/// * `psi_cell[g]` — cell-average angular flux written on return.
#[allow(clippy::too_many_arguments)]
pub fn solve_cell<T: SweepTopology + ?Sized>(
    mesh: &T,
    cell: usize,
    dir: [f64; 3],
    kind: KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    incoming: &[f64],
    psi_out: &mut [f64],
    psi_cell: &mut [f64],
) {
    let groups = sigma_t.len();
    let nf = mesh.num_faces(cell);
    debug_assert_eq!(incoming.len(), nf * groups);
    debug_assert_eq!(psi_out.len(), nf * groups);
    let volume = mesh.cell_volume(cell);

    match kind {
        KernelKind::Step => {
            // ψ_c = (q V + Σ_in |Ω·n A| ψ_in) / (σ_t V + Σ_out Ω·n A),
            // ψ_out = ψ_c on every downwind face.
            for g in 0..groups {
                let mut num = q[g] * volume;
                let mut den = sigma_t[g] * volume;
                for f in 0..nf {
                    let face = mesh.face(cell, f);
                    let flow = face.flow(dir);
                    if flow < 0.0 {
                        num += (-flow) * incoming[f * groups + g];
                    } else {
                        den += flow;
                    }
                }
                let psi = if den > 0.0 { num / den } else { 0.0 };
                psi_cell[g] = psi;
                for f in 0..nf {
                    let face = mesh.face(cell, f);
                    if face.flow(dir) > 0.0 {
                        psi_out[f * groups + g] = psi;
                    }
                }
            }
        }
        KernelKind::DiamondDifference => {
            assert_eq!(nf, 6, "diamond difference needs hexahedral cells");
            // Per axis: upwind face u, downwind face d = u ^ 1.
            // ψ_c = (q V + Σ_ax 2 |Ω·n A| ψ_in) / (σ_t V + Σ_ax 2 |Ω·n A|)
            // ψ_out = 2 ψ_c − ψ_in (clamped at 0: set-to-zero fixup).
            let mut up = [0usize; 3];
            let mut coef = [0f64; 3];
            for ax in 0..3 {
                let f0 = 2 * ax;
                let face = mesh.face(cell, f0);
                let flow = face.flow(dir);
                if flow < 0.0 {
                    up[ax] = f0;
                    coef[ax] = -flow;
                } else {
                    up[ax] = f0 + 1;
                    coef[ax] = flow.max(mesh.face(cell, f0 + 1).flow(dir).abs());
                }
            }
            for g in 0..groups {
                let mut num = q[g] * volume;
                let mut den = sigma_t[g] * volume;
                for ax in 0..3 {
                    num += 2.0 * coef[ax] * incoming[up[ax] * groups + g];
                    den += 2.0 * coef[ax];
                }
                let psi = if den > 0.0 { num / den } else { 0.0 };
                psi_cell[g] = psi;
                for ax in 0..3 {
                    let d = up[ax] ^ 1;
                    let out = 2.0 * psi - incoming[up[ax] * groups + g];
                    // Negative-flux fixup.
                    psi_out[d * groups + g] = out.max(0.0);
                }
            }
        }
    }
}

/// Step kernel over one `B`-wide group block. All accumulators are
/// stack arrays indexed by plain counted loops, so the body
/// autovectorizes; `B = 1` is the scalar tail. `incoming`/`psi_out`
/// are indexed `face * stride + j` (the caller folds the block's
/// group offset into the slice base), `sigma_t`/`q`/`psi_cell` are
/// exactly the block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step_block<const B: usize>(
    geom: &CellGeom,
    sigma_t: &[f64],
    q: &[f64],
    incoming: &[f64],
    in_stride: usize,
    psi_out: &mut [f64],
    out_stride: usize,
    psi_cell: &mut [f64],
) {
    let mut num = [0.0f64; B];
    let mut den = [0.0f64; B];
    for j in 0..B {
        num[j] = q[j] * geom.volume;
        den[j] = sigma_t[j] * geom.volume;
    }
    for f in 0..geom.nf {
        let flow = geom.flow[f];
        if flow < 0.0 {
            let inc = &incoming[f * in_stride..f * in_stride + B];
            for j in 0..B {
                num[j] += (-flow) * inc[j];
            }
        } else {
            for d in den.iter_mut() {
                *d += flow;
            }
        }
    }
    let mut psi = [0.0f64; B];
    for j in 0..B {
        // `den == 0` void guard: a zero-cross-section cell with no
        // outflow carries no flux. The division is unconditional-safe
        // (IEEE, no trap), so this if-converts to a select.
        psi[j] = if den[j] > 0.0 { num[j] / den[j] } else { 0.0 };
    }
    psi_cell[..B].copy_from_slice(&psi);
    for f in 0..geom.nf {
        if geom.flow[f] > 0.0 {
            psi_out[f * out_stride..f * out_stride + B].copy_from_slice(&psi);
        }
    }
}

/// Diamond-difference kernel over one `B`-wide group block; same
/// indexing contract as [`step_block`]. The negative-flux fixup is a
/// per-lane `max(0.0)`, so a block may mix fixed-up and untouched
/// groups freely.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dd_block<const B: usize>(
    geom: &CellGeom,
    sigma_t: &[f64],
    q: &[f64],
    incoming: &[f64],
    in_stride: usize,
    psi_out: &mut [f64],
    out_stride: usize,
    psi_cell: &mut [f64],
) {
    let mut num = [0.0f64; B];
    let mut den = [0.0f64; B];
    for j in 0..B {
        num[j] = q[j] * geom.volume;
        den[j] = sigma_t[j] * geom.volume;
    }
    for ax in 0..3 {
        let coef = geom.dd_coef[ax];
        let inc = &incoming[geom.dd_up[ax] * in_stride..geom.dd_up[ax] * in_stride + B];
        for j in 0..B {
            num[j] += 2.0 * coef * inc[j];
            den[j] += 2.0 * coef;
        }
    }
    let mut psi = [0.0f64; B];
    for j in 0..B {
        psi[j] = if den[j] > 0.0 { num[j] / den[j] } else { 0.0 };
    }
    psi_cell[..B].copy_from_slice(&psi);
    for ax in 0..3 {
        let u = geom.dd_up[ax];
        let d = u ^ 1;
        let inc = &incoming[u * in_stride..u * in_stride + B];
        let out = &mut psi_out[d * out_stride..d * out_stride + B];
        for j in 0..B {
            // Negative-flux fixup, per lane.
            out[j] = (2.0 * psi[j] - inc[j]).max(0.0);
        }
    }
}

/// Solve one group block of one cell from pre-hoisted geometry.
///
/// * `sigma_t`, `q`, `psi_cell` — exactly the block (length `b`,
///   `1 ≤ b ≤ GROUP_BLOCK`), already sliced to `[g0, g0 + b)`;
/// * `incoming[f * in_stride + j]` / `psi_out[f * out_stride + j]` —
///   face-major views whose base the caller has offset to the block's
///   first group, so a group block is a plain sub-slice of the dense
///   `face * groups + g` layouts (no transposition, no copies).
///
/// Full blocks run the [`GROUP_BLOCK`]-wide vector body; partial
/// blocks degrade to the width-1 scalar tail per group, which is the
/// scalar path's exact operation sequence.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn solve_cell_block_geom(
    geom: &CellGeom,
    kind: KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    incoming: &[f64],
    in_stride: usize,
    psi_out: &mut [f64],
    out_stride: usize,
    psi_cell: &mut [f64],
) {
    let b = sigma_t.len();
    debug_assert!(b <= GROUP_BLOCK);
    debug_assert_eq!(q.len(), b);
    debug_assert!(psi_cell.len() >= b);
    match kind {
        KernelKind::Step => {
            if b == GROUP_BLOCK {
                step_block::<GROUP_BLOCK>(
                    geom, sigma_t, q, incoming, in_stride, psi_out, out_stride, psi_cell,
                );
            } else {
                for j in 0..b {
                    step_block::<1>(
                        geom,
                        &sigma_t[j..j + 1],
                        &q[j..j + 1],
                        &incoming[j..],
                        in_stride,
                        &mut psi_out[j..],
                        out_stride,
                        &mut psi_cell[j..j + 1],
                    );
                }
            }
        }
        KernelKind::DiamondDifference => {
            assert_eq!(geom.nf, 6, "diamond difference needs hexahedral cells");
            if b == GROUP_BLOCK {
                dd_block::<GROUP_BLOCK>(
                    geom, sigma_t, q, incoming, in_stride, psi_out, out_stride, psi_cell,
                );
            } else {
                for j in 0..b {
                    dd_block::<1>(
                        geom,
                        &sigma_t[j..j + 1],
                        &q[j..j + 1],
                        &incoming[j..],
                        in_stride,
                        &mut psi_out[j..],
                        out_stride,
                        &mut psi_cell[j..j + 1],
                    );
                }
            }
        }
    }
}

/// Blocked drop-in for [`solve_cell`]: same buffers, same contract,
/// bit-identical result (see [`KERNEL_MAX_ULPS`]) — with the geometry
/// hoisted once per cell and the group loop innermost over
/// [`GROUP_BLOCK`]-wide contiguous blocks plus a scalar tail for
/// `groups % GROUP_BLOCK != 0`.
#[allow(clippy::too_many_arguments)]
pub fn solve_cell_block<T: SweepTopology + ?Sized>(
    mesh: &T,
    cell: usize,
    dir: [f64; 3],
    kind: KernelKind,
    sigma_t: &[f64],
    q: &[f64],
    incoming: &[f64],
    psi_out: &mut [f64],
    psi_cell: &mut [f64],
) {
    let groups = sigma_t.len();
    let nf = mesh.num_faces(cell);
    debug_assert_eq!(incoming.len(), nf * groups);
    debug_assert_eq!(psi_out.len(), nf * groups);
    let geom = CellGeom::new(mesh, cell, dir);
    let mut g0 = 0;
    while g0 < groups {
        let b = GROUP_BLOCK.min(groups - g0);
        solve_cell_block_geom(
            &geom,
            kind,
            &sigma_t[g0..g0 + b],
            &q[g0..g0 + b],
            &incoming[g0..],
            groups,
            &mut psi_out[g0..],
            groups,
            &mut psi_cell[g0..g0 + b],
        );
        g0 += b;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use jsweep_mesh::StructuredMesh;

    /// Every field's bits, for bit-identity checks.
    pub(crate) fn geom_bits(geom: &CellGeom) -> Vec<u64> {
        let mut bits = vec![geom.volume.to_bits(), geom.nf as u64];
        bits.extend(geom.flow.map(f64::to_bits));
        bits.extend(geom.dd_up.map(|u| u as u64));
        bits.extend(geom.dd_coef.map(f64::to_bits));
        bits
    }

    fn one_cell() -> StructuredMesh {
        StructuredMesh::unit(1, 1, 1)
    }

    #[test]
    fn step_infinite_medium_limit() {
        // With incoming flux equal to q/σt on all upwind faces, the cell
        // flux is exactly q/σt (the infinite-medium solution).
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let q = 2.0;
        let st = 4.0;
        let expected = q / st;
        let mut incoming = vec![0.0; 6];
        for (f, inc) in incoming.iter_mut().enumerate() {
            if m.face(0, f).flow(dir) < 0.0 {
                *inc = expected;
            }
        }
        let mut out = vec![0.0; 6];
        let mut psi = vec![0.0];
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::Step,
            &[st],
            &[q],
            &incoming,
            &mut out,
            &mut psi,
        );
        assert!((psi[0] - expected).abs() < 1e-14);
        assert!((out[1] - expected).abs() < 1e-14); // +x face downwind
    }

    #[test]
    fn dd_infinite_medium_limit() {
        let m = one_cell();
        let dir = [0.6, 0.64, 0.48];
        let q = 3.0;
        let st = 1.5;
        let expected = q / st;
        let mut incoming = vec![0.0; 6];
        for (f, inc) in incoming.iter_mut().enumerate() {
            if m.face(0, f).flow(dir) < 0.0 {
                *inc = expected;
            }
        }
        let mut out = vec![0.0; 6];
        let mut psi = vec![0.0];
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::DiamondDifference,
            &[st],
            &[q],
            &incoming,
            &mut out,
            &mut psi,
        );
        assert!((psi[0] - expected).abs() < 1e-13);
        for (f, o) in out.iter().enumerate() {
            if m.face(0, f).flow(dir) > 0.0 {
                assert!((o - expected).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn step_attenuates_without_source() {
        // No source: outgoing must be strictly below incoming.
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let mut incoming = vec![0.0; 6];
        incoming[0] = 1.0; // -x face is upwind for +x direction
        let mut out = vec![0.0; 6];
        let mut psi = vec![0.0];
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::Step,
            &[2.0],
            &[0.0],
            &incoming,
            &mut out,
            &mut psi,
        );
        assert!(psi[0] > 0.0 && psi[0] < 1.0);
        assert!(out[1] < 1.0);
    }

    #[test]
    fn dd_fixup_never_negative() {
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let mut incoming = vec![0.0; 6];
        incoming[0] = 1.0;
        let mut out = vec![0.0; 6];
        let mut psi = vec![0.0];
        // Strong absorber drives the diamond extrapolation negative.
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::DiamondDifference,
            &[50.0],
            &[0.0],
            &incoming,
            &mut out,
            &mut psi,
        );
        for v in &out {
            assert!(*v >= 0.0, "fixup failed: {out:?}");
        }
    }

    #[test]
    fn step_vacuum_and_void_passes_flux_through() {
        // Zero cross section, zero source: flux is transported without
        // attenuation (conservation through a void cell).
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let mut incoming = vec![0.0; 6];
        incoming[0] = 0.7;
        let mut out = vec![0.0; 6];
        let mut psi = vec![0.0];
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::Step,
            &[0.0],
            &[0.0],
            &incoming,
            &mut out,
            &mut psi,
        );
        assert!((out[1] - 0.7).abs() < 1e-14);
    }

    #[test]
    fn multigroup_groups_are_independent() {
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let groups = 3;
        let sigma_t = [1.0, 2.0, 4.0];
        let q = [1.0, 2.0, 4.0];
        let incoming = vec![0.0; 6 * groups];
        let mut out = vec![0.0; 6 * groups];
        let mut psi = vec![0.0; groups];
        solve_cell(
            &m,
            0,
            dir,
            KernelKind::Step,
            &sigma_t,
            &q,
            &incoming,
            &mut out,
            &mut psi,
        );
        // Each group must match an independent single-group solve.
        for g in 0..groups {
            let inc1 = vec![0.0; 6];
            let mut out1 = vec![0.0; 6];
            let mut psi1 = vec![0.0];
            solve_cell(
                &m,
                0,
                dir,
                KernelKind::Step,
                &[sigma_t[g]],
                &[q[g]],
                &inc1,
                &mut out1,
                &mut psi1,
            );
            assert!((psi[g] - psi1[0]).abs() < 1e-14, "group {g}");
            for f in 0..6 {
                assert!((out[f * groups + g] - out1[f]).abs() < 1e-14);
            }
        }
    }

    /// Both paths over identical inputs; asserts every output element
    /// within [`KERNEL_MAX_ULPS`] (i.e. bit-identical).
    fn assert_blocked_matches_scalar<T: SweepTopology + ?Sized>(
        mesh: &T,
        cell: usize,
        dir: [f64; 3],
        kind: KernelKind,
        sigma_t: &[f64],
        q: &[f64],
        incoming: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let groups = sigma_t.len();
        let nf = mesh.num_faces(cell);
        let mut out_s = vec![0.0; nf * groups];
        let mut psi_s = vec![0.0; groups];
        solve_cell(
            mesh, cell, dir, kind, sigma_t, q, incoming, &mut out_s, &mut psi_s,
        );
        let mut out_b = vec![0.0; nf * groups];
        let mut psi_b = vec![0.0; groups];
        solve_cell_block(
            mesh, cell, dir, kind, sigma_t, q, incoming, &mut out_b, &mut psi_b,
        );
        // `<=` so the bound tracks KERNEL_MAX_ULPS if the exactness
        // contract is ever relaxed (it is 0 today, making this `==`).
        #[allow(clippy::absurd_extreme_comparisons)]
        fn within_bound(a: f64, b: f64) -> bool {
            ulp_distance(a, b) <= KERNEL_MAX_ULPS
        }
        for g in 0..groups {
            assert!(
                within_bound(psi_s[g], psi_b[g]),
                "psi_cell[{g}]: scalar {} vs blocked {}",
                psi_s[g],
                psi_b[g]
            );
        }
        for i in 0..nf * groups {
            assert!(
                within_bound(out_s[i], out_b[i]),
                "psi_out[{i}]: scalar {} vs blocked {}",
                out_s[i],
                out_b[i]
            );
        }
        (psi_b, out_b)
    }

    #[test]
    fn blocked_den_zero_void_guard_inside_a_block() {
        // A zero direction zeroes every face flow, so `den` reduces to
        // `σ_t V` — mixing σ_t = 0 (void: den == 0, guarded to ψ = 0)
        // and σ_t > 0 lanes inside one full GROUP_BLOCK-wide block.
        let m = one_cell();
        let dir = [0.0, 0.0, 0.0];
        let sigma_t = [1.0, 0.0, 2.0, 0.0, 4.0, 0.0, 0.5, 0.0];
        let q = [1.0; GROUP_BLOCK];
        let incoming = vec![0.3; 6 * GROUP_BLOCK];
        let (psi, _) =
            assert_blocked_matches_scalar(&m, 0, dir, KernelKind::Step, &sigma_t, &q, &incoming);
        for (g, &st) in sigma_t.iter().enumerate() {
            if st == 0.0 {
                assert_eq!(psi[g], 0.0, "void lane {g} must be guarded to zero");
            } else {
                assert!((psi[g] - 1.0 / st).abs() < 1e-14, "absorbing lane {g}");
            }
        }
    }

    #[test]
    fn blocked_dd_fixup_fires_for_only_some_groups_of_a_block() {
        // One full block whose σ_t spans optically thin to thick: the
        // diamond extrapolation 2ψ − ψ_in goes negative only for the
        // thick groups, so the set-to-zero fixup must fire per lane,
        // not per block.
        let m = one_cell();
        let dir = [1.0, 0.0, 0.0];
        let sigma_t = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0];
        let q = [0.0; GROUP_BLOCK];
        let mut incoming = vec![0.0; 6 * GROUP_BLOCK];
        incoming[..GROUP_BLOCK].fill(1.0); // -x face (index 0) is upwind for +x.
        let (_, out) = assert_blocked_matches_scalar(
            &m,
            0,
            dir,
            KernelKind::DiamondDifference,
            &sigma_t,
            &q,
            &incoming,
        );
        // +x face (index 1) is the downwind face carrying the fixup.
        let downwind = &out[GROUP_BLOCK..2 * GROUP_BLOCK];
        assert!(
            downwind[0] > 0.0,
            "thin group must pass flux through untouched: {downwind:?}"
        );
        assert_eq!(
            downwind[GROUP_BLOCK - 1],
            0.0,
            "thick group must be fixed up to zero: {downwind:?}"
        );
        assert!(
            downwind.iter().any(|&v| v > 0.0) && downwind.contains(&0.0),
            "block must mix fixed-up and untouched lanes: {downwind:?}"
        );
    }

    #[test]
    fn blocked_single_group_degenerates_to_scalar_path() {
        // groups = 1 exercises only the width-1 tail; groups = 9 runs
        // one full block plus a width-1 tail. Both must be
        // bit-identical to the scalar oracle.
        let m = one_cell();
        let dir = [0.6, 0.64, 0.48];
        for kind in [KernelKind::Step, KernelKind::DiamondDifference] {
            for groups in [1usize, 9] {
                let sigma_t: Vec<f64> = (0..groups).map(|g| 0.5 + g as f64).collect();
                let q: Vec<f64> = (0..groups).map(|g| 1.0 + 0.5 * g as f64).collect();
                let incoming: Vec<f64> = (0..6 * groups).map(|i| 0.1 * (i % 7) as f64).collect();
                assert_blocked_matches_scalar(&m, 0, dir, kind, &sigma_t, &q, &incoming);
            }
        }
    }

    #[test]
    fn blocked_matches_scalar_on_tets() {
        let m = jsweep_mesh::tetgen::cube(2, 1.0);
        let dir = [0.3, 0.5, 0.81];
        let groups = 11; // full block + 3-wide tail
        let sigma_t: Vec<f64> = (0..groups).map(|g| 0.2 + 0.3 * g as f64).collect();
        let q: Vec<f64> = (0..groups).map(|g| 0.5 + 0.1 * g as f64).collect();
        for c in 0..m.num_cells() {
            let incoming: Vec<f64> = (0..4 * groups).map(|i| 0.05 * (i % 11) as f64).collect();
            assert_blocked_matches_scalar(&m, c, dir, KernelKind::Step, &sigma_t, &q, &incoming);
        }
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(1.0, -1.0), u64::MAX);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
    }

    #[test]
    fn step_works_on_tets() {
        let m = jsweep_mesh::tetgen::cube(1, 1.0);
        let dir = [0.3, 0.5, 0.81];
        let mut psi = vec![0.0];
        for c in 0..m.num_cells() {
            let incoming = vec![0.5; 4];
            let mut out = vec![0.0; 4];
            solve_cell(
                &m,
                c,
                dir,
                KernelKind::Step,
                &[1.0],
                &[0.5],
                &incoming,
                &mut out,
                &mut psi,
            );
            assert!(psi[0] > 0.0 && psi[0].is_finite());
        }
    }
}
