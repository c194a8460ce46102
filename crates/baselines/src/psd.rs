//! PSD-b-style dedicated data-driven sweep (Colomer et al. 2013).
//!
//! PSD-b ("parallel sweep, data-driven, buffered") is a hand-written
//! MPI sweep for unstructured meshes: one subdomain per process, no
//! patch framework, no master thread — the process alternates between
//! computing ready cells and servicing messages itself. Table I
//! compares its parallel efficiency against JSweep's; the paper notes
//! JSweep scales somewhat worse because it pays for framework
//! generality.
//!
//! We model PSD-b as the DES with one patch per rank, a single worker
//! per rank that *is* the master (no reserved core: `cores == ranks`),
//! and zero routing overhead.

use jsweep_des::{simulate, DesResult, MachineModel, ProblemOptions, SimOptions, SweepProblem};
use jsweep_graph::PriorityStrategy;
use jsweep_mesh::{partition, SweepTopology};
use jsweep_quadrature::QuadratureSet;

/// Simulate one PSD-b sweep iteration on `ranks` processes.
///
/// The mesh is RCB-partitioned into exactly one subdomain per rank.
/// Returns the result plus the core count to charge (== `ranks`).
pub fn simulate_psd<T: SweepTopology + ?Sized>(
    mesh: &T,
    quadrature: &QuadratureSet,
    ranks: usize,
    machine_template: &MachineModel,
    grain: usize,
) -> (DesResult, usize) {
    let mut ps = partition::rcb(mesh, ranks);
    ps.distribute((0..ranks as u32).collect(), ranks);
    let prob = SweepProblem::build(
        mesh,
        ps,
        quadrature,
        &ProblemOptions {
            vertex_strategy: PriorityStrategy::Slbd,
            patch_strategy: PriorityStrategy::Slbd,
            share_octant_dags: false,
            check_cycles: false,
        },
    );
    let mut machine = machine_template.clone();
    machine.ranks = ranks;
    machine.workers_per_rank = 1;
    // No separate master: routing costs nothing extra on top of the
    // worker's own compute (folded into t_sched).
    machine.t_route = 0.0;
    let r = simulate(&prob, &machine, &SimOptions { grain });
    (r, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::tetgen;

    #[test]
    fn psd_completes_on_ball() {
        let m = tetgen::ball(4, 1.0);
        let q = QuadratureSet::sn(2);
        let (r, cores) = simulate_psd(&m, &q, 4, &MachineModel::cluster(4, 1), 64);
        assert_eq!(cores, 4);
        assert_eq!(r.vertices, (m.num_cells() * 8) as u64);
    }

    #[test]
    fn psd_strong_scales() {
        let m = tetgen::ball(6, 1.0);
        let q = QuadratureSet::sn(2);
        let (one, _) = simulate_psd(&m, &q, 1, &MachineModel::cluster(1, 1), 64);
        let (eight, _) = simulate_psd(&m, &q, 8, &MachineModel::cluster(1, 1), 64);
        assert!(eight.time < one.time);
        let speedup = one.time / eight.time;
        assert!(speedup > 2.0, "speedup {speedup} too low for 8 ranks");
    }
}
