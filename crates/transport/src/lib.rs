//! Sn (discrete ordinates) transport on top of JSweep.
//!
//! This crate is the analogue of the paper's JSNT-S / JSNT-U packages:
//! the actual numerical payload whose sweeps JSweep parallelises.
//!
//! * [`xs`] — multigroup cross sections and material maps;
//! * [`kernel`] — the per-(cell, angle) update: step (upwind) kernel
//!   for arbitrary polyhedra and diamond-difference for structured
//!   hexahedra;
//! * [`program`] — `SweepPatchProgram` (paper Listing 1): the
//!   patch-program gluing [`jsweep_graph::SweepState`] to the kernels
//!   and stream codec, plus its [`jsweep_core::ProgramFactory`];
//! * [`replay`] — the compiled coarse-graph replay plan and its
//!   lifecycle (§V-E): the cluster traces of a simulated execution,
//!   compiled before the first iteration, become the coarsened task
//!   graph every iteration executes, cached across solves by a
//!   [`PlanCache`] and invalidated by the mesh generation stamp (see
//!   `docs/replay.md`);
//! * [`solver`] — source iteration drivers: the JSweep-parallel solver
//!   on the threaded runtime and a serial reference solver used as the
//!   golden result in tests;
//! * [`session`] — sweep as a service: a resident [`SolverSession`]
//!   (one universe, one shared plan cache, one session thread) serving
//!   queued solves from concurrent campaigns, epochs round-robin
//!   across campaigns (see `docs/session.md`);
//! * [`kobayashi`] — the Kobayashi benchmark problem generator used by
//!   the JSNT-S experiments (Figs. 12, 16, 17a).

#![deny(missing_docs)]

pub mod kernel;
pub mod kobayashi;
pub mod program;
pub mod replay;
pub mod session;
pub mod solver;
pub mod trace;
pub mod xs;

pub use jsweep_core::TransportKind;
pub use kernel::KernelKind;
pub use program::SweepEpoch;
pub use replay::{plan_key, CoarsePlan, PlanCache, PlanKey};
pub use session::{
    CampaignHandle, CampaignStats, EpochRecord, FaultReport, RoundRobin, SessionError,
    SessionOptions, SessionStats, SolveOutcome, SolveRequest, SolveTicket, SolverSession,
};
pub use solver::{
    record_cluster_traces, solve_parallel, solve_parallel_cached, solve_parallel_spmd,
    solve_serial, SnConfig, SnSolution,
};
pub use xs::{Material, MaterialSet};
