//! Particle tracing: the second data-driven component (paper §VIII).
//!
//! The conclusions note that besides Sn sweeps, "particle trace … we
//! have implemented as another component in JAxMIN" on the same
//! patch-centric abstraction. This module reproduces it: straight-line
//! particles carry a path-length budget through a structured mesh,
//! depositing track length in every cell they cross (the classic
//! track-length flux estimator). A particle that crosses into another
//! patch becomes a stream; a patch-program is active while it holds
//! particles.
//!
//! Unlike sweeps, the per-rank workload is *not* known in advance (a
//! rank cannot predict how many particles will wander into it), so
//! this component requires the general Dijkstra–Safra termination
//! protocol — exercising the §IV-C path that sweeps bypass.

use bytes::Bytes;
use jsweep_comm::pack::{Reader, Writer};
use jsweep_core::{
    ComputeCtx, PatchProgram, ProgramFactory, ProgramId, RunStats, RuntimeConfig, Stream, TaskTag,
    TerminationKind, Universe,
};
use jsweep_mesh::{Neighbor, PatchSet, StructuredMesh, SweepTopology};
use parking_lot::Mutex;
use std::sync::Arc;

/// A particle: position, unit direction, remaining path budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Current position.
    pub pos: [f64; 3],
    /// Unit flight direction.
    pub dir: [f64; 3],
    /// Path length left before the particle is absorbed.
    pub remaining: f64,
}

impl Particle {
    fn pack(&self, w: &mut Writer) {
        for v in self.pos.iter().chain(&self.dir) {
            w.put_f64(*v);
        }
        w.put_f64(self.remaining);
    }

    fn unpack(r: &mut Reader) -> Particle {
        let mut vals = [0.0; 7];
        for v in vals.iter_mut() {
            *v = r.get_f64();
        }
        Particle {
            pos: [vals[0], vals[1], vals[2]],
            dir: [vals[3], vals[4], vals[5]],
            remaining: vals[6],
        }
    }
}

/// Advance a particle inside cell `c` to the cell's boundary (or to
/// exhaustion). Returns `(track_length, next)` where `next` is the
/// neighbouring cell if the particle survives and stays in the domain.
fn advance(mesh: &StructuredMesh, c: usize, p: &mut Particle) -> (f64, Option<usize>) {
    let [dx, dy, dz] = mesh.spacing();
    let h = [dx, dy, dz];
    let origin = mesh.origin();
    let (i, j, k) = mesh.cell_ijk(c);
    let lo = [i, j, k];
    // Distance to the first face crossing.
    let mut t_exit = f64::INFINITY;
    let mut exit_face = usize::MAX;
    for ax in 0..3 {
        let v = p.dir[ax];
        if v.abs() < 1e-300 {
            continue;
        }
        let cell_lo = origin[ax] + lo[ax] as f64 * h[ax];
        let target = if v > 0.0 { cell_lo + h[ax] } else { cell_lo };
        let t = (target - p.pos[ax]) / v;
        if t < t_exit {
            t_exit = t;
            exit_face = 2 * ax + usize::from(v > 0.0);
        }
    }
    let t_exit = t_exit.max(0.0);
    if p.remaining <= t_exit {
        // Dies inside this cell.
        let track = p.remaining;
        p.remaining = 0.0;
        (track, None)
    } else {
        p.remaining -= t_exit;
        for ax in 0..3 {
            p.pos[ax] += t_exit * p.dir[ax];
        }
        match mesh.neighbor_of(c, exit_face) {
            Neighbor::Interior(nb) => (t_exit, Some(nb)),
            Neighbor::Boundary(_) => {
                // Leaks out of the domain.
                p.remaining = 0.0;
                (t_exit, None)
            }
        }
    }
}

/// Find the cell containing a point (structured lookup).
pub fn locate(mesh: &StructuredMesh, pos: [f64; 3]) -> Option<usize> {
    let (nx, ny, nz) = mesh.dims();
    let origin = mesh.origin();
    let h = mesh.spacing();
    let mut idx = [0usize; 3];
    for ax in 0..3 {
        let x = (pos[ax] - origin[ax]) / h[ax];
        if x < 0.0 {
            return None;
        }
        idx[ax] = x as usize;
    }
    if idx[0] >= nx || idx[1] >= ny || idx[2] >= nz {
        return None;
    }
    Some(mesh.cell_id(idx[0], idx[1], idx[2]))
}

/// Serial golden tracer: per-cell track length deposited by all
/// particles.
pub fn trace_serial(mesh: &StructuredMesh, particles: &[Particle]) -> Vec<f64> {
    let mut tally = vec![0.0; mesh.num_cells()];
    for p0 in particles {
        let mut p = *p0;
        let Some(mut cell) = locate(mesh, p.pos) else {
            continue;
        };
        while p.remaining > 0.0 {
            let (track, next) = advance(mesh, cell, &mut p);
            tally[cell] += track;
            match next {
                Some(nb) => cell = nb,
                None => break,
            }
        }
    }
    tally
}

/// Shared tally bins, one per patch (same pattern as the sweep's flux
/// bins).
type TallyBins = Vec<Mutex<Vec<f64>>>;

/// Initial particles per patch, consumed once at program init.
type SeedBins = Vec<Mutex<Vec<(usize, Particle)>>>;

struct TraceProgram {
    id: ProgramId,
    mesh: Arc<StructuredMesh>,
    patches: Arc<PatchSet>,
    bins: Arc<TallyBins>,
    /// Particles waiting in this patch, paired with their current cell.
    held: Vec<(usize, Particle)>,
    /// Initial particles for this patch (taken once at init).
    seed: Arc<SeedBins>,
}

impl PatchProgram for TraceProgram {
    fn init(&mut self) {
        let mut seed = self.seed[self.id.patch.index()].lock();
        self.held.append(&mut seed);
    }

    fn input(&mut self, _src: ProgramId, payload: Bytes) {
        let mut r = Reader::new(payload);
        let n = r.get_u32();
        for _ in 0..n {
            let cell = r.get_u32() as usize;
            let p = Particle::unpack(&mut r);
            self.held.push((cell, p));
        }
    }

    fn compute(&mut self, ctx: &mut ComputeCtx) {
        if self.held.is_empty() {
            return;
        }
        let mesh = self.mesh.clone();
        let patches = self.patches.clone();
        let mut outgoing: std::collections::HashMap<u32, Vec<(usize, Particle)>> =
            Default::default();
        let mut local_tally: Vec<(usize, f64)> = Vec::new();
        let held = std::mem::take(&mut self.held);
        ctx.work_done = held.len() as u64;
        ctx.kernel(|_| {
            for (mut cell, mut p) in held {
                // Advance until the particle dies or leaves the patch.
                loop {
                    let (track, next) = advance(&mesh, cell, &mut p);
                    local_tally.push((cell, track));
                    match next {
                        None => break,
                        Some(nb) => {
                            let nb_patch = patches.patch_of(nb);
                            if nb_patch == self.id.patch {
                                cell = nb;
                            } else {
                                outgoing.entry(nb_patch.0).or_default().push((nb, p));
                                break;
                            }
                        }
                    }
                }
            }
        });
        // Deposit tallies.
        {
            let mut bin = self.bins[self.id.patch.index()].lock();
            for (cell, track) in local_tally {
                bin[self.patches.local_index(cell)] += track;
            }
        }
        // Emit migrating particles, one stream per target patch.
        let mut targets: Vec<(u32, Vec<(usize, Particle)>)> = outgoing.into_iter().collect();
        targets.sort_by_key(|&(q, _)| q);
        for (q, list) in targets {
            let mut w = Writer::with_capacity(4 + list.len() * 60);
            w.put_u32(list.len() as u32);
            for (cell, p) in &list {
                w.put_u32(*cell as u32);
                p.pack(&mut w);
            }
            ctx.send(Stream {
                src: self.id,
                dst: ProgramId::new(jsweep_mesh::PatchId(q), TaskTag(0)),
                payload: w.finish(),
            });
        }
    }

    fn vote_to_halt(&self) -> bool {
        self.held.is_empty()
    }

    fn remaining_work(&self) -> u64 {
        self.held.len() as u64
    }
}

struct TraceFactory {
    mesh: Arc<StructuredMesh>,
    patches: Arc<PatchSet>,
    bins: Arc<TallyBins>,
    seed: Arc<SeedBins>,
}

impl ProgramFactory for TraceFactory {
    type Program = TraceProgram;

    fn create(&self, id: ProgramId) -> TraceProgram {
        TraceProgram {
            id,
            mesh: self.mesh.clone(),
            patches: self.patches.clone(),
            bins: self.bins.clone(),
            held: Vec::new(),
            seed: self.seed.clone(),
        }
    }

    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId> {
        self.patches
            .patches_on_rank(rank)
            .into_iter()
            .map(|p| ProgramId::new(p, TaskTag(0)))
            .collect()
    }

    fn rank_of(&self, id: ProgramId) -> usize {
        self.patches.rank_of(id.patch)
    }

    fn priority(&self, _id: ProgramId) -> i64 {
        0
    }

    fn initial_workload(&self, id: ProgramId) -> u64 {
        // Unknown in general; report only the seeded particles. This is
        // why tracing runs under Safra termination, not counting.
        self.seed[id.patch.index()].lock().len() as u64
    }
}

/// Parallel tracer on the JSweep runtime. Returns the per-cell track
/// lengths plus the per-rank runtime statistics; panics if the epoch
/// faults.
pub fn trace_parallel(
    mesh: Arc<StructuredMesh>,
    patches: Arc<PatchSet>,
    particles: &[Particle],
    workers_per_rank: usize,
) -> (Vec<f64>, Vec<RunStats>) {
    let num_ranks = patches.num_ranks();
    let bins: Arc<TallyBins> = Arc::new(
        patches
            .patches()
            .map(|p| Mutex::new(vec![0.0; patches.cells(p).len()]))
            .collect(),
    );
    let seed: Arc<SeedBins> = Arc::new(patches.patches().map(|_| Mutex::new(Vec::new())).collect());
    for p in particles {
        if let Some(cell) = locate(&mesh, p.pos) {
            let patch = patches.patch_of(cell);
            seed[patch.index()].lock().push((cell, *p));
        }
    }
    let factory = Arc::new(TraceFactory {
        mesh: mesh.clone(),
        patches: patches.clone(),
        bins: bins.clone(),
        seed,
    });
    let config = RuntimeConfig {
        num_workers: workers_per_rank,
        termination: TerminationKind::Safra,
        ..Default::default()
    };
    // One epoch: each program's `init` takes its patch's seeds.
    let mut universe = Universe::launch(num_ranks, factory, config);
    let stats = universe
        .run_epoch(Arc::new(()))
        .unwrap_or_else(|f| panic!("particle trace faulted: {f}"));
    universe.shutdown();
    let mut tally = vec![0.0; mesh.num_cells()];
    for p in patches.patches() {
        let bin = bins[p.index()].lock();
        for (li, &cell) in patches.cells(p).iter().enumerate() {
            tally[cell as usize] = bin[li];
        }
    }
    (tally, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsweep_mesh::partition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_particles(n: usize, extent: f64, seed: u64) -> Vec<Particle> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let dir = loop {
                    let d = [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0f64),
                    ];
                    let n2: f64 = d.iter().map(|x| x * x).sum();
                    if n2 > 1e-3 && n2 < 1.0 {
                        let n = n2.sqrt();
                        break [d[0] / n, d[1] / n, d[2] / n];
                    }
                };
                Particle {
                    pos: [
                        rng.gen_range(0.01..extent - 0.01),
                        rng.gen_range(0.01..extent - 0.01),
                        rng.gen_range(0.01..extent - 0.01),
                    ],
                    dir,
                    remaining: rng.gen_range(0.5..3.0 * extent),
                }
            })
            .collect()
    }

    #[test]
    fn single_particle_straight_line() {
        let mesh = StructuredMesh::unit(4, 1, 1);
        let p = Particle {
            pos: [0.5, 0.5, 0.5],
            dir: [1.0, 0.0, 0.0],
            remaining: 10.0,
        };
        let tally = trace_serial(&mesh, &[p]);
        // Crosses 0.5 in cell 0, then 1.0 in cells 1..3, exits.
        assert!((tally[0] - 0.5).abs() < 1e-12);
        for (c, t) in tally.iter().enumerate().take(4).skip(1) {
            assert!((t - 1.0).abs() < 1e-12, "cell {c}: {t}");
        }
    }

    #[test]
    fn budget_exhaustion_deposits_partial_track() {
        let mesh = StructuredMesh::unit(4, 1, 1);
        let p = Particle {
            pos: [0.0, 0.5, 0.5],
            dir: [1.0, 0.0, 0.0],
            remaining: 1.7,
        };
        let tally = trace_serial(&mesh, &[p]);
        assert!((tally[0] - 1.0).abs() < 1e-12);
        assert!((tally[1] - 0.7).abs() < 1e-12);
        assert_eq!(tally[2], 0.0);
    }

    #[test]
    fn total_track_conserved() {
        // Total deposited track == sum over particles of what the
        // serial tracer says (internal consistency), and never exceeds
        // the budget sum.
        let mesh = StructuredMesh::unit(6, 6, 6);
        let particles = random_particles(200, 6.0, 42);
        let tally = trace_serial(&mesh, &particles);
        let total: f64 = tally.iter().sum();
        let budget: f64 = particles.iter().map(|p| p.remaining).sum();
        assert!(total <= budget + 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
        let patches = Arc::new(partition::decompose_structured(&mesh, (4, 4, 4), 2));
        let particles = random_particles(300, 8.0, 7);
        let serial = trace_serial(&mesh, &particles);
        let (parallel, stats) = trace_parallel(mesh.clone(), patches, &particles, 2);
        for (c, (a, b)) in parallel.iter().zip(&serial).enumerate() {
            assert!(
                (a - b).abs() <= 1e-10 * b.abs().max(1e-12),
                "cell {c}: {a} vs {b}"
            );
        }
        let migrations: u64 = stats.iter().map(|s| s.streams_sent + s.streams_local).sum();
        assert!(migrations > 0, "no particle crossed a patch boundary");
    }

    #[test]
    fn parallel_three_ranks() {
        let mesh = Arc::new(StructuredMesh::unit(6, 6, 6));
        let patches = Arc::new(partition::decompose_structured(&mesh, (2, 2, 2), 3));
        let particles = random_particles(100, 6.0, 3);
        let serial = trace_serial(&mesh, &particles);
        let (parallel, _) = trace_parallel(mesh.clone(), patches, &particles, 1);
        let total_s: f64 = serial.iter().sum();
        let total_p: f64 = parallel.iter().sum();
        assert!((total_s - total_p).abs() < 1e-9 * total_s);
    }

    #[test]
    fn locate_maps_points_to_cells() {
        let mesh = StructuredMesh::new(4, 4, 4, [1.0, 1.0, 1.0], [0.5; 3]);
        assert_eq!(locate(&mesh, [1.1, 1.1, 1.1]), Some(0));
        assert_eq!(locate(&mesh, [2.9, 2.9, 2.9]), Some(63));
        assert_eq!(locate(&mesh, [0.5, 1.5, 1.5]), None);
        assert_eq!(locate(&mesh, [3.5, 1.5, 1.5]), None);
    }
}
