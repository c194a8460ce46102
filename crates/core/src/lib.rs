#![deny(missing_docs)]

//! JSweep core: the patch-centric data-driven abstraction and its
//! runtime system (paper §III–§IV).
//!
//! # The abstraction
//!
//! Data-driven logic on a patch is a **patch-program**, identified by a
//! `(patch, task)` pair ([`ProgramId`]). Users "think like a patch":
//! they implement the five primitives of [`PatchProgram`]
//! (`init` / `input` / `compute` / `output` / `vote_to_halt`; here
//! `compute` collects outputs directly) and never see how programs are
//! placed or scheduled. Programs are **fully reentrant** — `compute`
//! may be called any number of times with partial progress — which is
//! what makes interleaved inter-patch dependencies (the zig-zag of
//! Fig. 4) deadlock-free. All communication is a [`Stream`] between two
//! program ids.
//!
//! A program is *active* or *inactive* (Fig. 7): it deactivates when
//! `vote_to_halt` returns true and reactivates when a stream arrives.
//! The computation terminates when every program is inactive and no
//! stream is in flight; §IV-C's two detectors live in `jsweep_comm`.
//!
//! # The runtime
//!
//! One [`jsweep_comm::Comm`] rank hosts a **master** (stream router, progress
//! tracker, termination) and `W` **workers** (patch-program executors),
//! matching Fig. 8. The master owns the route table; workers share a
//! priority-ordered active-program pool — the limiting ideal of the
//! paper's "assign to the lightest worker" policy (every idle worker
//! immediately takes the globally highest-priority active program).
//! Every thread keeps a time [`stats::Breakdown`] so runs can be
//! profiled into the kernel / graph-op / pack-unpack / comm / idle
//! categories of Fig. 16.
//!
//! # The persistent universe
//!
//! Iterative workloads (source iterations, time steps, eigenvalue
//! loops) run the same program topology many times over. The
//! [`Universe`] handle keeps the whole world — rank threads, workers,
//! pools, routing state and every patch-program — resident across
//! **epochs**: [`Universe::launch`] once, [`Universe::run_epoch`] per
//! iteration (programs are re-armed in place via
//! [`PatchProgram::reset`] with an opaque [`EpochInput`]), then
//! [`Universe::shutdown`]. Every epoch runs this way — a one-shot run
//! is a universe of one epoch — and a [`Rank`] is the same engine for
//! one rank of a world of separate processes.

pub mod engine;
pub mod fault;
pub mod pool;
pub mod program;
pub mod stats;
pub mod telemetry;
pub mod universe;

pub use engine::{Rank, RuntimeConfig, TerminationKind};
pub use fault::{EpochFault, FaultKind, FaultPlan, FaultPlanBuilder};
pub use jsweep_comm::TransportKind;
pub use program::{
    pack_frame, unpack_frame, ComputeCtx, EpochInput, PatchProgram, ProgramFactory, ProgramId,
    Stream, TaskTag,
};
pub use stats::{Breakdown, RunStats};
pub use telemetry::TelemetryHandle;
pub use universe::{fabric_for, CommFabric, Universe};
