//! Source-iteration drivers.
//!
//! The fixed-source Sn problem `Ω·∇ψ + σ_t ψ = (σ_s φ + Q)/4π` is
//! solved by source iteration: sweep all angles with the current
//! emission density, rebuild `φ = Σ_a w_a ψ_a`, repeat until the scalar
//! flux converges.
//!
//! Two drivers share the kernels and problem setup:
//!
//! * [`solve_serial`] — single-threaded reference: a plain topological
//!   sweep per angle. Bit-for-bit deterministic; the golden result in
//!   tests.
//! * [`solve_parallel`] — the JSweep solver: every sweep runs as a set
//!   of `(patch, angle)` patch-programs on the threaded runtime
//!   ([`jsweep_core`]), with vertex clustering, two-level priorities
//!   and either termination detector. One resident
//!   [`jsweep_core::Universe`] lives for the whole solve and every
//!   source iteration is one epoch of it; the cached, session and SPMD
//!   entry points run that same epoch. With coarsening on, the §V-E
//!   replay plan is compiled before the first epoch
//!   (`EpochWorld::begin_solve`), so every epoch replays. What an
//!   epoch leaves behind lands in the world's [`EpochSink`] — one slot
//!   per task — which this module folds after the epoch and replaces
//!   whenever the universe is retired, so a faulted epoch's partial
//!   output is dropped with the universe that wrote it.

#![allow(clippy::type_complexity)]

use crate::kernel::{solve_cell, KernelKind};
use crate::program::{
    replay_uses_cluster_scratch, EpochSink, SweepEpoch, SweepFactory, SweepSetup,
};
use crate::replay::{build_plan, plan_key, CoarsePlan, PlanCache, PlanKey};
use crate::xs::MaterialSet;
use jsweep_core::engine::CLAIM_BATCH;
use jsweep_core::fault::{EpochFault, FaultPlan};
use jsweep_core::telemetry::EventKind;
use jsweep_core::{
    fabric_for, Rank, RunStats, RuntimeConfig, TelemetryHandle, TerminationKind, TransportKind,
    Universe,
};
use jsweep_graph::coarse::{simulate_clusters, ClusterTrace};
use jsweep_graph::SweepProblem;
use jsweep_mesh::SweepTopology;
use jsweep_quadrature::QuadratureSet;
use std::sync::Arc;
use std::time::Instant;

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SnConfig {
    /// Vertex clustering grain `N`.
    pub grain: usize,
    /// Maximum source iterations.
    pub max_iterations: usize,
    /// Relative L2 convergence tolerance on the scalar flux.
    pub tolerance: f64,
    /// Cell kernel.
    pub kernel: KernelKind,
    /// Worker threads per rank (parallel solver).
    pub workers_per_rank: usize,
    /// Termination detector (parallel solver).
    pub termination: TerminationKind,
    /// Coarse-graph replay (§V-E, parallel solver): compile the vertex
    /// clusters of a simulated execution into a coarsened task graph
    /// before the first iteration and run every iteration on it —
    /// skipping per-vertex scheduling. Bit-identical flux either way;
    /// `false` keeps every iteration on the fine DAG path.
    pub coarsen: bool,
    /// Epoch watchdog deadline (default 60 s): a rank whose pool holds
    /// active work but makes no progress for this long converts the
    /// hang into an [`EpochFault`] instead of blocking the epoch
    /// forever. See [`jsweep_core::RuntimeConfig::watchdog`].
    pub watchdog: Option<std::time::Duration>,
    /// Deterministic fault-injection plan (default none). With the
    /// `fault-inject` feature compiled out this is carried but never
    /// consulted — the runtime hooks are inert.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Transport fabric the resident universe's ranks communicate
    /// over (default [`TransportKind::Thread`]). See `docs/transport.md`
    /// for the backend matrix; [`TransportKind::Socket`] exercises the
    /// process-grade wire protocol while still hosting every rank in
    /// this process ([`solve_parallel_spmd`] is the one-rank-per-
    /// process entry point).
    pub transport: TransportKind,
    /// Telemetry attachment threaded into the runtime (default
    /// detached). Inert unless the `telemetry` feature is on and the
    /// attached recorder is armed; see
    /// [`jsweep_core::TelemetryHandle`].
    pub telemetry: TelemetryHandle,
}

impl Default for SnConfig {
    fn default() -> Self {
        SnConfig {
            grain: 64,
            max_iterations: 50,
            tolerance: 1e-6,
            kernel: KernelKind::Step,
            workers_per_rank: 2,
            termination: TerminationKind::Counting,
            coarsen: true,
            watchdog: Some(std::time::Duration::from_secs(60)),
            fault_plan: None,
            transport: TransportKind::default(),
            telemetry: TelemetryHandle::default(),
        }
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct SnSolution {
    /// Scalar flux per `cell * groups + g`.
    pub phi: Vec<f64>,
    /// Source iterations performed.
    pub iterations: usize,
    /// Relative change of the last iteration.
    pub residual: f64,
    /// Runtime statistics per iteration (parallel solver only; one
    /// entry per iteration, aggregated over ranks).
    pub stats: Vec<RunStats>,
    /// Host seconds spent building the coarse replay plan — the
    /// simulated execution plus the compile (parallel solver with
    /// [`SnConfig::coarsen`]; `0.0` otherwise — in particular when the
    /// plan came out of a [`PlanCache`], which is the point of caching).
    pub coarse_build_seconds: f64,
    /// True when the replay plan was served by the [`PlanCache`] handed
    /// to [`solve_parallel_cached`]: no plan was compiled.
    pub plan_from_cache: bool,
}

/// Emission density `(σ_s φ + Q)/4π` per cell and group.
fn emission_density(materials: &MaterialSet, phi: &[f64]) -> Vec<f64> {
    let groups = materials.num_groups();
    let n = materials.num_cells();
    let mut q = vec![0.0; n * groups];
    let inv_4pi = 1.0 / (4.0 * std::f64::consts::PI);
    for c in 0..n {
        let m = materials.material(c);
        for g in 0..groups {
            q[c * groups + g] = (m.sigma_s[g] * phi[c * groups + g] + m.source[g]) * inv_4pi;
        }
    }
    q
}

/// Relative L2 difference between successive flux iterates.
fn relative_change(new: &[f64], old: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (a, b) in new.iter().zip(old) {
        diff += (a - b) * (a - b);
        norm += a * a;
    }
    if norm == 0.0 {
        0.0
    } else {
        (diff / norm).sqrt()
    }
}

/// Serial reference solver: topological sweeps, no decomposition.
///
/// A direction whose dependency graph is cyclic (deformed meshes) is
/// fixed by the cycle breaker: broken upwind faces are treated as
/// vacuum. The same breaks are applied by the parallel solver when the
/// problem was built with `ProblemOptions::check_cycles`, so the two
/// stay comparable. An acyclic direction pays for no analysis: the
/// breaker runs only when a plain topological sort comes up short.
pub fn solve_serial<T: SweepTopology + ?Sized>(
    mesh: &T,
    quadrature: &QuadratureSet,
    materials: &MaterialSet,
    config: &SnConfig,
) -> SnSolution {
    let n = mesh.num_cells();
    let groups = materials.num_groups();
    assert_eq!(materials.num_cells(), n);
    let mut phi = vec![0.0; n * groups];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    // Precompute per-angle cycle breaks and topological orders
    // (constant across iterations, like the cached DAG of §V-E).
    let (broken, orders): (Vec<std::collections::HashSet<(u32, u32)>>, Vec<Vec<u32>>) = quadrature
        .iter()
        .map(|(_, o)| {
            let none = Default::default();
            let order = topological_order(mesh, o.dir, &none);
            if order.len() == n {
                return (none, order);
            }
            let br = jsweep_graph::cycles::broken_edges_for_direction(mesh, o.dir);
            let order = topological_order(mesh, o.dir, &br);
            (br, order)
        })
        .unzip();

    let mf = mesh.num_faces(0);
    for _ in 0..config.max_iterations {
        let q = emission_density(materials, &phi);
        let mut phi_new = vec![0.0; n * groups];
        let mut face_flux = vec![0.0; n * mf * groups];
        let mut out = vec![0.0; mf * groups];
        let mut psi = vec![0.0; groups];
        let mut incoming = vec![0.0; mf * groups];
        for (((ai, ord), order), br) in quadrature.iter().zip(&orders).zip(&broken) {
            let _ = ai;
            face_flux.iter_mut().for_each(|x| *x = 0.0);
            for &cu in order {
                let c = cu as usize;
                let mat = materials.material(c);
                incoming.copy_from_slice(&face_flux[c * mf * groups..(c + 1) * mf * groups]);
                solve_cell(
                    mesh,
                    c,
                    ord.dir,
                    config.kernel,
                    &mat.sigma_t,
                    &q[c * groups..(c + 1) * groups],
                    &incoming,
                    &mut out,
                    &mut psi,
                );
                for g in 0..groups {
                    phi_new[c * groups + g] += ord.weight * psi[g];
                }
                // Push outgoing face fluxes to downwind neighbours.
                for f in 0..mesh.num_faces(c) {
                    let face = mesh.face(c, f);
                    if face.flow(ord.dir) <= 0.0 {
                        continue;
                    }
                    let Some(nb) = face.neighbor.cell() else {
                        continue;
                    };
                    if !br.is_empty() && br.contains(&(c as u32, nb as u32)) {
                        continue;
                    }
                    if let Some(f2) = jsweep_mesh::face_toward(mesh, nb, c) {
                        for g in 0..groups {
                            face_flux[(nb * mf + f2) * groups + g] = out[f * groups + g];
                        }
                    }
                }
            }
        }
        iterations += 1;
        residual = relative_change(&phi_new, &phi);
        phi = phi_new;
        if residual < config.tolerance {
            break;
        }
    }

    SnSolution {
        phi,
        iterations,
        residual,
        stats: Vec::new(),
        coarse_build_seconds: 0.0,
        plan_from_cache: false,
    }
}

/// Global topological order of cells for one direction (Kahn),
/// honouring cycle-broken edges. Short of `num_cells` when the
/// remaining graph has a cycle: cells on or behind one are never
/// emitted.
fn topological_order<T: SweepTopology + ?Sized>(
    mesh: &T,
    dir: [f64; 3],
    broken: &std::collections::HashSet<(u32, u32)>,
) -> Vec<u32> {
    let n = mesh.num_cells();
    let mut indeg = vec![0u32; n];
    for (c, deg) in indeg.iter_mut().enumerate() {
        for up in mesh.upwind_neighbors(c, dir) {
            if broken.is_empty() || !broken.contains(&(up as u32, c as u32)) {
                *deg += 1;
            }
        }
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&c| indeg[c as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(c) = stack.pop() {
        order.push(c);
        for nb in mesh.downwind_neighbors(c as usize, dir) {
            if !broken.is_empty() && broken.contains(&(c, nb as u32)) {
                continue;
            }
            indeg[nb] -= 1;
            if indeg[nb] == 0 {
                stack.push(nb as u32);
            }
        }
    }
    order
}

/// The runtime configuration a solve's ranks launch with.
fn runtime_config(config: &SnConfig) -> RuntimeConfig {
    RuntimeConfig {
        num_workers: config.workers_per_rank,
        termination: config.termination,
        watchdog: config.watchdog,
        fault_plan: config.fault_plan.clone(),
        telemetry: config.telemetry.clone(),
    }
}

/// The JSweep parallel solver.
///
/// `problem` carries the decomposition and priorities (see
/// [`jsweep_graph::problem::SweepProblem::build`]); the patch set's rank
/// distribution determines the number of simulated MPI ranks.
///
/// With [`SnConfig::coarsen`] (the default), the clusters of a
/// deterministic simulated execution of each canonical angle (one per
/// octant under shared DAGs, see
/// [`jsweep_graph::coarse::simulate_clusters`]) are compiled into a
/// coarse replay plan (§V-E, with the Theorem-1 acyclicity check)
/// before the first iteration, and every iteration replays it — the
/// fine path's flux bit-for-bit, with the graph-op share of the
/// [`RunStats`] breakdown visibly reduced. To reuse the plan *across*
/// solves, use [`solve_parallel_cached`].
///
/// All of this runs inside **one persistent universe**
/// ([`jsweep_core::Universe`]): rank threads, workers and every
/// `SweepProgram` are launched once and every source iteration is an
/// epoch against the same live programs — see `docs/replay.md` for the
/// epoch lifecycle.
pub fn solve_parallel<T: SweepTopology + Send + Sync + 'static>(
    mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    quadrature: &QuadratureSet,
    materials: Arc<MaterialSet>,
    config: &SnConfig,
) -> SnSolution {
    solve_parallel_cached(
        mesh,
        problem,
        quadrature,
        materials,
        config,
        &PlanCache::new(),
    )
}

/// [`solve_parallel`] with a cross-solve [`PlanCache`].
///
/// The first solve of a given problem shape (mesh generation +
/// decomposition + quadrature + grain — see
/// [`crate::replay::plan_key`]) compiles the replay plan and stores it
/// in `cache`; every later solve of the same shape takes it from there
/// and pays no compile. This is the multi-solve workhorse: time steps,
/// eigenvalue iterations and material sweeps reuse one plan.
///
/// Invalidation is structural: refining (or rebuilding) the mesh
/// yields a fresh generation stamp, so the rebuilt problem's key
/// misses the cache and that solve compiles afresh. A stale plan is
/// rebuilt, never replayed.
pub fn solve_parallel_cached<T: SweepTopology + Send + Sync + 'static>(
    mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    quadrature: &QuadratureSet,
    materials: Arc<MaterialSet>,
    config: &SnConfig,
    cache: &PlanCache,
) -> SnSolution {
    let mut world = EpochWorld::new(mesh, problem, quadrature.clone(), config.clone());
    let mut progress = world.begin_solve(materials, config.max_iterations, config.tolerance, cache);
    while progress.iterations < progress.max_iterations {
        // The solo API keeps fail-fast semantics: there is exactly one
        // request, so nothing is saved by containing its fault. The
        // session driver is the caller that maps `Err` to a per-ticket
        // failure instead.
        match advance_one_epoch(&mut world, &mut progress) {
            Ok(true) => break,
            Ok(false) => {}
            Err(f) => {
                world.retire();
                panic!("sweep epoch faulted: {f}");
            }
        }
    }
    world.retire();
    progress.into_solution()
}

/// The resident scheduling world parallel solves run epochs against:
/// one problem shape (mesh + decomposition + quadrature + solver
/// knobs), one [`EpochSink`] its tasks leave their output in, and at
/// most one resident [`Universe`]. [`solve_parallel_cached`] builds one
/// per solve; a [`crate::session::SolverSession`] keeps one alive
/// across many queued solves, retiring its universe only after a fault
/// and on shutdown.
pub(crate) struct EpochWorld<T: SweepTopology + Send + Sync + 'static> {
    pub(crate) mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    quadrature: QuadratureSet,
    pub(crate) config: SnConfig,
    /// Output slots of the resident universe's tasks; replaced whenever
    /// that universe is retired.
    sink: Arc<EpochSink>,
    universe: Option<Universe>,
    /// Universes this world has launched so far (it launches lazily,
    /// and again after every [`EpochWorld::retire`]).
    pub(crate) launches: u64,
    /// Group count the resident programs were built with (`None` while
    /// no universe is live). Resident programs cannot change their
    /// group count ([`crate::program::SweepEpoch::materials`]), so a
    /// session must reject mismatched requests before they reach the
    /// runtime.
    resident_groups: Option<usize>,
    /// Cache key of this world's replay plan; `None` with coarsening
    /// off.
    key: Option<PlanKey>,
}

impl<T: SweepTopology + Send + Sync + 'static> EpochWorld<T> {
    pub(crate) fn new(
        mesh: Arc<T>,
        problem: Arc<SweepProblem>,
        quadrature: QuadratureSet,
        config: SnConfig,
    ) -> Self {
        assert_eq!(
            mesh.generation(),
            problem.mesh_generation,
            "mesh topology changed since SweepProblem::build; rebuild the problem"
        );
        let sink = Arc::new(EpochSink::new(problem.num_tasks()));
        let key = config.coarsen.then(|| plan_key(&problem, config.grain));
        EpochWorld {
            mesh,
            problem,
            quadrature,
            config,
            sink,
            universe: None,
            launches: 0,
            resident_groups: None,
            key,
        }
    }

    /// The factory of this world's sweep programs: their shape for
    /// `groups` energy groups, replaying `plan` (the fine path without
    /// one); each epoch's data reaches them in its [`SweepEpoch`].
    fn factory(&self, groups: usize, plan: Option<Arc<CoarsePlan>>) -> Arc<SweepFactory<T>> {
        Arc::new(SweepFactory::new(SweepSetup {
            mesh: self.mesh.clone(),
            problem: self.problem.clone(),
            quadrature: self.quadrature.clone(),
            groups,
            kernel: self.config.kernel,
            grain: self.config.grain,
            plan,
            sink: self.sink.clone(),
        }))
    }

    /// Start a solve against this world: with coarsening on, take the
    /// replay plan from `cache` or compile it there — simulate the
    /// clusters, build the plan, insert it — and build the zero-flux
    /// starting state. Every epoch of the solve then replays.
    pub(crate) fn begin_solve(
        &self,
        materials: Arc<MaterialSet>,
        max_iterations: usize,
        tolerance: f64,
        cache: &PlanCache,
    ) -> SolveProgress {
        assert_eq!(
            materials.num_cells(),
            self.mesh.num_cells(),
            "materials must cover the mesh"
        );
        let n = self.mesh.num_cells();
        let groups = materials.num_groups();
        let mut progress = SolveProgress {
            phi: vec![0.0; n * groups],
            iterations: 0,
            residual: f64::INFINITY,
            stats: Vec::new(),
            coarse_build_seconds: 0.0,
            plan_from_cache: false,
            plan: None,
            materials,
            max_iterations,
            tolerance,
            span: 0,
        };
        let Some(key) = self.key else {
            return progress;
        };
        let telemetry = &self.config.telemetry;
        let generation = key.mesh_generation();
        if let Some(plan) = cache.get(&key) {
            telemetry.global_instant(EventKind::CacheHit, generation, 0);
            // Defense in depth: the generation is part of the key, so a
            // stale plan cannot be looked up — but never replay one even
            // if a caller assembled the cache by hand.
            assert_eq!(
                plan.mesh_generation, self.problem.mesh_generation,
                "stale replay plan (mesh was refined); plans must be rebuilt, not replayed"
            );
            progress.plan_from_cache = true;
            // Cached by a solve whose replay stored every slot.
            if replay_uses_cluster_scratch(groups) {
                plan.compile_replay_layouts(&self.problem);
            }
            progress.plan = Some(plan);
            return progress;
        }
        telemetry.global_instant(EventKind::CacheMiss, generation, 0);
        // One pair of readings is both the reported build cost and the
        // trace's `PlanCompile` span.
        let t0 = Instant::now();
        let traces = simulate_clusters(&self.problem, self.config.grain, CLAIM_BATCH);
        let plan = Arc::new(build_plan(&self.problem, &traces));
        if replay_uses_cluster_scratch(groups) {
            plan.compile_replay_layouts(&self.problem);
        }
        let t1 = Instant::now();
        telemetry.global_span(EventKind::PlanCompile, t0, t1, generation, 0);
        cache.insert(key, plan.clone());
        progress.coarse_build_seconds = (t1 - t0).as_secs_f64();
        progress.plan = Some(plan);
        progress
    }

    /// Group count of the live resident programs, if any.
    pub(crate) fn resident_groups(&self) -> Option<usize> {
        self.resident_groups
    }

    /// Shut the resident universe down (idempotent); returns whether
    /// there was one. Its sink goes with it: a retire forced by a fault
    /// abandons in-flight programs, whose partial output must never
    /// reach a later fold — the next universe writes a fresh sink.
    pub(crate) fn retire(&mut self) -> bool {
        self.resident_groups = None;
        let Some(mut u) = self.universe.take() else {
            return false;
        };
        u.shutdown();
        self.sink = Arc::new(EpochSink::new(self.problem.num_tasks()));
        true
    }
}

/// Mutable state of one in-flight solve: the flux iterate, its
/// convergence trackers, and the replay plan it replays (`None` with
/// coarsening off). One per queued request in a session; a solo solve
/// owns exactly one.
pub(crate) struct SolveProgress {
    pub(crate) materials: Arc<MaterialSet>,
    pub(crate) max_iterations: usize,
    pub(crate) tolerance: f64,
    pub(crate) phi: Vec<f64>,
    pub(crate) iterations: usize,
    pub(crate) residual: f64,
    pub(crate) stats: Vec<RunStats>,
    pub(crate) plan: Option<Arc<CoarsePlan>>,
    pub(crate) plan_from_cache: bool,
    pub(crate) coarse_build_seconds: f64,
    /// Trace span id stamped on this solve's epochs (`0` = none); a
    /// session driver assigns one per ticket so a request's epochs can
    /// be found in an exported Chrome trace.
    pub(crate) span: u64,
}

impl SolveProgress {
    /// The input of this solve's next epoch: the emission density of
    /// the current iterate and the solve's materials.
    fn epoch(&self) -> Arc<SweepEpoch> {
        Arc::new(SweepEpoch {
            emission: Arc::new(emission_density(&self.materials, &self.phi)),
            materials: self.materials.clone(),
        })
    }

    /// The convergence step: take a finished epoch's stats and
    /// `φ_new` as the next iterate. Returns whether the solve is
    /// finished — converged below its tolerance, or out of iterations.
    fn advance(&mut self, stats: RunStats, phi_new: Vec<f64>) -> bool {
        self.stats.push(stats);
        self.iterations += 1;
        self.residual = relative_change(&phi_new, &self.phi);
        self.phi = phi_new;
        self.residual < self.tolerance || self.iterations >= self.max_iterations
    }

    /// Seal the solve into its public result.
    pub(crate) fn into_solution(self) -> SnSolution {
        SnSolution {
            phi: self.phi,
            iterations: self.iterations,
            residual: self.residual,
            stats: self.stats,
            coarse_build_seconds: self.coarse_build_seconds,
            plan_from_cache: self.plan_from_cache,
        }
    }
}

/// Run exactly one source iteration of `progress` against `world`:
/// its next epoch on the resident universe, to global termination,
/// then the fold of the per-(patch, angle) flux contributions in angle
/// order (schedule-independent floating-point result) and the
/// convergence step. Returns whether the solve is finished — converged
/// below its tolerance, or out of iterations. This is the loop body of
/// [`solve_parallel_cached`], exposed step-wise so a
/// [`crate::session::SolverSession`] can interleave epochs of many
/// concurrent solves on one world — running a request's epochs through
/// this function back-to-back is *exactly* a [`solve_parallel_cached`]
/// call, which is what makes session results bit-identical to solo
/// solves.
///
/// The universe launches lazily, built for `progress.plan`, and keeps
/// that plan: every plan of the world's key is the same compile.
///
/// `Err` means the epoch was poisoned (see
/// [`jsweep_core::universe::Universe::run_epoch`]): `progress` is left
/// exactly as it was before the epoch — no stats entry, no iteration
/// count, no flux update — so the caller may retry the same iteration
/// on a relaunched universe and still get the bit-identical flux
/// sequence. The faulted universe itself is *not* retired here; the
/// caller decides between retry, relaunch and teardown. Its programs
/// were abandoned mid-sweep, so the sink may hold a *subset* of the
/// epoch's contributions; nothing reads them, and
/// [`EpochWorld::retire`] replaces the sink along with the universe.
pub(crate) fn advance_one_epoch<T: SweepTopology + Send + Sync + 'static>(
    world: &mut EpochWorld<T>,
    progress: &mut SolveProgress,
) -> Result<bool, EpochFault> {
    let groups = progress.materials.num_groups();
    if world.universe.is_none() {
        world.universe = Some(Universe::launch_with_fabric(
            world.problem.patches.num_ranks(),
            world.factory(groups, progress.plan.clone()),
            runtime_config(&world.config),
            fabric_for(world.config.transport),
        ));
        world.launches += 1;
        world.resident_groups = Some(groups);
    }
    let universe = world.universe.as_mut().expect("launched above");
    let rank_stats = universe.run_epoch_tuned(progress.epoch(), progress.span)?;
    let phi_new = world.sink.fold(&world.problem, groups);
    Ok(progress.advance(RunStats::aggregate(&rank_stats), phi_new))
}

/// One rank's share of a parallel solve, for worlds where ranks are
/// **separate processes** connected by a process-grade [`jsweep_comm::Comm`]
/// (typically [`jsweep_comm::socket::SocketUniverse::connect`]).
///
/// Every process calls this with the *same* mesh, problem, quadrature,
/// materials and config, plus its own endpoint; the function runs the
/// full source-iteration loop SPMD-style — each iteration sweeps this
/// rank's patches as one epoch of a resident [`Rank`], folds the
/// local flux contributions, and completes the iterate with
/// [`jsweep_comm::Comm::allreduce_sum_f64_slice`] (per-patch supports are disjoint
/// and the reduction accumulates in rank order, so the summed flux is
/// bit-identical to the single-process solve's angle-ordered fold).
/// Convergence decisions are therefore identical in every process, and
/// the returned [`SnSolution::phi`] is the **global** flux.
///
/// With [`SnConfig::coarsen`] every process compiles the same replay
/// plan — a pure function of the problem and the grain — before its
/// first epoch, and every epoch replays it.
/// [`SnSolution::stats`] carries *this rank's* per-iteration stats.
///
/// # Panics
///
/// Fail-fast like [`solve_parallel`]: a poisoned epoch or a dead peer
/// panics this process (peers then observe the death through the
/// transport). Session-tier containment wraps the thread-backed
/// universe instead.
pub fn solve_parallel_spmd<T: SweepTopology + Send + Sync + 'static>(
    mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    quadrature: &QuadratureSet,
    materials: Arc<MaterialSet>,
    config: &SnConfig,
    comm: jsweep_comm::Comm,
) -> SnSolution {
    assert_eq!(
        comm.size(),
        problem.patches.num_ranks(),
        "comm world size must match the problem's rank decomposition"
    );
    let world = EpochWorld::new(mesh, problem, quadrature.clone(), config.clone());
    let cache = PlanCache::new();
    let mut progress =
        world.begin_solve(materials, config.max_iterations, config.tolerance, &cache);
    let groups = progress.materials.num_groups();
    let factory = world.factory(groups, progress.plan.clone());
    let mut rank = Rank::launch(comm, factory, &runtime_config(config));
    while progress.iterations < progress.max_iterations {
        let input: Arc<jsweep_core::EpochInput> = progress.epoch();
        let rank_stats = rank
            .run_epoch(&input, 0)
            .unwrap_or_else(|f| panic!("sweep epoch faulted: {f}"));
        // Local tasks filled their slots; other ranks' slots are
        // empty, so the fold yields this rank's disjoint share and the
        // rank-ordered reduction completes the global iterate.
        let mut phi_new = world.sink.fold(&world.problem, groups);
        rank.comm_mut()
            .allreduce_sum_f64_slice(&mut phi_new)
            .unwrap_or_else(|e| panic!("flux reduction failed: {e}"));
        if progress.advance(rank_stats, phi_new) {
            break;
        }
    }
    rank.shutdown();
    progress.into_solution()
}

/// The traces the solver compiles its plan from:
/// [`jsweep_graph::coarse::simulate_clusters`] at `config.grain` and
/// the runtime's claim batch, as `traces[angle][patch]` — the layout
/// [`crate::replay::build_plan`] and
/// [`jsweep_graph::coarse::build_coarse`] consume — with every octant
/// member's entries filled from its canonical angle. The mesh,
/// quadrature and materials play no part: the clusters depend only on
/// the problem and the grain.
pub fn record_cluster_traces<T: SweepTopology + Send + Sync + 'static>(
    _mesh: Arc<T>,
    problem: Arc<SweepProblem>,
    _quadrature: &QuadratureSet,
    _materials: Arc<MaterialSet>,
    config: &SnConfig,
) -> Vec<Vec<ClusterTrace>> {
    let mut traces = simulate_clusters(&problem, config.grain, CLAIM_BATCH);
    // Only canonical angles are simulated; fill octant members with
    // their canonical trace (valid for the shared DAG) so every angle's
    // entry covers its subgraph — the layout contract of this API.
    for a in 0..problem.num_angles {
        let c = problem.canonical_angle(a);
        if c < a {
            traces[a] = traces[c].clone();
        }
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xs::Material;
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_mesh::{partition, StructuredMesh};

    fn simple_config() -> SnConfig {
        SnConfig {
            max_iterations: 8,
            tolerance: 1e-9,
            grain: 16,
            ..Default::default()
        }
    }

    #[test]
    fn serial_infinite_medium() {
        // Pure absorber with uniform source: φ → Q V-independent value
        // in the interior... with vacuum boundaries the flux is below
        // Q/σ_a; just verify positivity, symmetry and convergence.
        let m = StructuredMesh::unit(6, 6, 6);
        let mats = MaterialSet::homogeneous(216, Material::uniform(1, 1.0, 0.5, 1.0));
        let q = QuadratureSet::sn(2);
        let sol = solve_serial(&m, &q, &mats, &simple_config());
        assert!(sol.phi.iter().all(|&x| x > 0.0));
        // Centre flux above face-adjacent flux (leakage at the border).
        let centre = m.cell_id(3, 3, 3);
        let corner = m.cell_id(0, 0, 0);
        assert!(sol.phi[centre] > sol.phi[corner]);
        // Mirror symmetry of the cube problem.
        let a = m.cell_id(1, 2, 3);
        let b = m.cell_id(4, 3, 2);
        assert!((sol.phi[a] - sol.phi[b]).abs() < 1e-10 * sol.phi[a].abs());
    }

    #[test]
    fn serial_no_scattering_converges_in_two_iterations() {
        // Without scattering the source never changes: iteration 2 sees
        // zero change.
        let m = StructuredMesh::unit(4, 4, 4);
        let mats = MaterialSet::homogeneous(64, Material::uniform(1, 2.0, 0.0, 1.0));
        let q = QuadratureSet::sn(2);
        let sol = solve_serial(&m, &q, &mats, &simple_config());
        assert_eq!(sol.iterations, 2);
        assert!(sol.residual < 1e-15);
    }

    #[test]
    fn parallel_matches_serial_structured() {
        let m = Arc::new(StructuredMesh::unit(6, 6, 6));
        let mats = Arc::new(MaterialSet::homogeneous(
            216,
            Material::uniform(1, 1.0, 0.4, 1.0),
        ));
        let quad = QuadratureSet::sn(2);
        let cfg = simple_config();
        let serial = solve_serial(m.as_ref(), &quad, &mats, &cfg);

        let ps = partition::decompose_structured(&m, (3, 3, 3), 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions {
                share_octant_dags: true,
                ..Default::default()
            },
        ));
        let parallel = solve_parallel(m.clone(), prob, &quad, mats, &cfg);
        assert_eq!(parallel.iterations, serial.iterations);
        for (a, b) in parallel.phi.iter().zip(&serial.phi) {
            assert!(
                (a - b).abs() <= 1e-11 * b.abs().max(1e-30),
                "flux mismatch {a} vs {b}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_unstructured() {
        let m = Arc::new(jsweep_mesh::tetgen::ball(3, 1.0));
        let n = m.num_cells();
        let mats = Arc::new(MaterialSet::homogeneous(
            n,
            Material::uniform(2, 1.5, 0.6, 2.0),
        ));
        let quad = QuadratureSet::sn(2);
        let cfg = simple_config();
        let serial = solve_serial(m.as_ref(), &quad, &mats, &cfg);
        let ps = partition::decompose_unstructured(m.as_ref(), 60, 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions::default(),
        ));
        let parallel = solve_parallel(m.clone(), prob, &quad, mats, &cfg);
        for (a, b) in parallel.phi.iter().zip(&serial.phi) {
            assert!(
                (a - b).abs() <= 1e-11 * b.abs().max(1e-30),
                "flux mismatch {a} vs {b}"
            );
        }
    }

    #[test]
    fn parallel_deterministic_across_runs() {
        let m = Arc::new(StructuredMesh::unit(4, 4, 4));
        let mats = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(1, 1.0, 0.3, 1.0),
        ));
        let quad = QuadratureSet::sn(2);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions::default(),
        ));
        let cfg = simple_config();
        let a = solve_parallel(m.clone(), prob.clone(), &quad, mats.clone(), &cfg);
        let b = solve_parallel(m.clone(), prob, &quad, mats, &cfg);
        assert_eq!(
            a.phi, b.phi,
            "angle-ordered reduction must be deterministic"
        );
    }

    /// A fault abandons programs mid-sweep, so some slots of the sink
    /// hold that epoch's contributions. Retiring the universe replaces
    /// the sink: the next epoch folds exactly what a never-faulted
    /// world folds — on the fine path and on replay.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn retire_after_a_fault_installs_a_fresh_sink() {
        for coarsen in [false, true] {
            retire_after_a_fault(coarsen);
        }
    }

    #[cfg(feature = "fault-inject")]
    fn retire_after_a_fault(coarsen: bool) {
        let m = Arc::new(StructuredMesh::unit(4, 4, 4));
        let mats = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(2, 1.0, 0.3, 1.0),
        ));
        let quad = QuadratureSet::sn(2);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions::default(),
        ));
        let cfg = SnConfig {
            grain: 16,
            coarsen,
            ..Default::default()
        };
        let cache = PlanCache::new();
        let mut clean = EpochWorld::new(m.clone(), prob.clone(), quad.clone(), cfg.clone());
        let mut progress = clean.begin_solve(mats.clone(), 1, 0.0, &cache);
        assert_eq!(
            progress.plan.is_some(),
            coarsen,
            "the epoch runs the path under test"
        );
        advance_one_epoch(&mut clean, &mut progress).expect("clean epoch");
        clean.retire();
        let want = progress.phi;

        // The third compute call on patch 0 panics: by then at least
        // one task (there, or upstream of it) has completed.
        let plan = FaultPlan::builder().panic_on_compute(0, 3).build();
        let armed = SnConfig {
            fault_plan: Some(Arc::new(plan)),
            ..cfg
        };
        let mut world = EpochWorld::new(m, prob.clone(), quad, armed);
        let faulted_sink = world.sink.clone();
        let mut progress = world.begin_solve(mats, 1, 0.0, &cache);
        let fault = advance_one_epoch(&mut world, &mut progress).expect_err("injected panic");
        assert_eq!(fault.kind, jsweep_core::fault::FaultKind::Panic);
        assert_eq!(
            progress.iterations, 0,
            "a faulted epoch leaves progress alone"
        );
        assert!(world.retire(), "the faulted universe was still resident");
        assert!(
            (0..prob.num_tasks()).any(|tid| !faulted_sink.slot(tid).phi_part.is_empty()),
            "the faulted epoch left no partial output to guard against"
        );
        assert!(!Arc::ptr_eq(&faulted_sink, &world.sink));
        // The trigger is one-shot: the relaunched universe runs clean.
        advance_one_epoch(&mut world, &mut progress).expect("clean retry");
        world.retire();
        assert_eq!(
            progress.phi, want,
            "fold after a fault differs from a never-faulted world"
        );
    }

    #[test]
    fn diamond_difference_differs_from_step_but_agrees_in_parallel() {
        let m = Arc::new(StructuredMesh::unit(4, 4, 4));
        let mats = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(1, 1.0, 0.3, 1.0),
        ));
        let quad = QuadratureSet::sn(2);
        let mut cfg = simple_config();
        cfg.kernel = KernelKind::DiamondDifference;
        let serial = solve_serial(m.as_ref(), &quad, &mats, &cfg);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions::default(),
        ));
        let parallel = solve_parallel(m.clone(), prob, &quad, mats.clone(), &cfg);
        for (a, b) in parallel.phi.iter().zip(&serial.phi) {
            assert!((a - b).abs() <= 1e-11 * b.abs().max(1e-30));
        }
        // And DD really is a different discretisation from Step.
        let mut cfg2 = simple_config();
        cfg2.kernel = KernelKind::Step;
        let step = solve_serial(m.as_ref(), &quad, &mats, &cfg2);
        let diff: f64 = step
            .phi
            .iter()
            .zip(&serial.phi)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "DD and Step should differ");
    }
}
