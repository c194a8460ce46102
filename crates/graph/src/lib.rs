#![deny(missing_docs)]

//! Sweep-DAG machinery: the data structures behind JSweep's Sn sweep
//! component (paper §V).
//!
//! A sweep in direction `Ω` orders cells from upwind to downwind; the
//! induced dependencies form a DAG whose vertices are `(cell, angle)`
//! pairs. JSweep never materialises that global DAG: each patch holds
//! the induced subgraph `G_{p,t}` for every task tag `t` (= angle), and
//! inter-patch edges are realised as streams at run time.
//!
//! * [`subgraph`] — construction of `G_{p,t}` from a mesh + patch set +
//!   direction (local in-degrees, internal CSR edges, remote edges);
//! * [`sweep_state`] — the reentrant Listing-1 scheduling core (counter
//!   array, ready priority queue, vertex clustering), shared by the
//!   threaded runtime, the discrete-event simulator and the baselines;
//! * [`priority`] — BFS / LDCP / SLBD vertex and patch priorities and
//!   the two-level `prior(p,a) = prior(a)·C + prior(p)` composition;
//! * [`coarse`] — the cached coarsened graph (§V-E) built from the
//!   clusters of a simulated execution, with the Theorem-1 acyclicity
//!   check;
//! * [`sim`] — the simulated scheduler: one task set (fine or coarse
//!   states) and one ready pool, shared by the plan compiler
//!   ([`coarse::simulate_clusters`]), the discrete-event simulator and
//!   the BSP baseline;
//! * [`dag`] / [`cycles`] — generic DAG utilities and cycle breaking
//!   for meshes whose geometry induces cyclic dependencies.

pub mod coarse;
pub mod cycles;
pub mod dag;
pub mod priority;
pub mod problem;
pub mod sim;
pub mod subgraph;
pub mod sweep_state;

pub use priority::{PriorityStrategy, TwoLevelPriority};
pub use problem::{ProblemOptions, SweepProblem};
pub use subgraph::{RemoteEdge, Subgraph};
pub use sweep_state::SweepState;
