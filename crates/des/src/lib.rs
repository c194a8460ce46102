//! Discrete-event simulator of the JSweep runtime.
//!
//! The paper's evaluation runs on Tianhe-II with up to 76 800 cores;
//! this reproduction runs on commodity hardware, so the scaling studies
//! (Figs. 9b, 12–17, Table I) execute on a *virtual* machine instead: a
//! discrete-event simulation that drives the **same scheduling code**
//! as the real runtime — the same subgraphs ([`jsweep_graph::Subgraph`]),
//! the same Listing-1 core ([`jsweep_graph::SweepState`]), the same
//! priorities and clustering, through the task set and ready pool of
//! [`jsweep_graph::sim`] that the plan compiler and the BSP baseline
//! share — and charges virtual time according to a calibrated
//! [`MachineModel`] (per-vertex kernel cost, per-message latency,
//! bandwidth, master routing overhead). Its `route()` keeps
//! modelling the paper's master-routed local hop; the real engine
//! delivers same-rank streams worker-side (`jsweep_core::engine`).
//!
//! Because idle time, communication volume and pipeline fill/drain are
//! *emergent* from the DAG and the scheduler rather than assumed, the
//! simulated scaling curves preserve the paper's shape: who wins, by
//! what factor, and where efficiency falls off.
//!
//! Entry point: build a [`SweepProblem`] from a mesh + decomposition +
//! quadrature, pick a [`MachineModel`] with the decomposition's rank
//! count, and call [`simulate`] (or [`simulate_coarse`] for the
//! coarsened-graph replay of §V-E).

#![deny(missing_docs)]

pub mod machine;
pub mod sim;

pub use jsweep_graph::problem::{ProblemOptions, SweepProblem};
pub use machine::MachineModel;
pub use sim::{simulate, simulate_coarse, DesBreakdown, DesResult, SimOptions};
