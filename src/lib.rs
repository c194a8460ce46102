//! # JSweep — patch-centric data-driven parallel sweeps
//!
//! A Rust reproduction of *"JSweep: A Patch-centric Data-driven
//! Approach for Parallel Sweeps on Large-scale Meshes"* (Yan, Yang,
//! Zhang, Mo). The facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`mesh`] | `jsweep-mesh` | structured / deformed / tetrahedral meshes, patches, partitioners, SFC orders, refinement |
//! | [`quadrature`] | `jsweep-quadrature` | Sn angular quadrature sets |
//! | [`graph`] | `jsweep-graph` | sweep DAGs, priorities (BFS/LDCP/SLBD), vertex clustering, coarsened graph |
//! | [`comm`] | `jsweep-comm` | simulated MPI (rank threads, collectives, termination detection) |
//! | [`core`] | `jsweep-core` | the patch-program abstraction + master/worker runtime |
//! | [`des`] | `jsweep-des` | discrete-event simulator for scaling studies |
//! | [`transport`] | `jsweep-transport` | Sn transport solvers (JSNT-S/JSNT-U analogue), Kobayashi benchmark |
//! | [`baselines`] | `jsweep-baselines` | KBA, BSP (JAxMIN) and PSD-b comparators |
//!
//! ## Quickstart
//!
//! Solve a small fixed-source Sn problem with the JSweep parallel
//! solver (2 simulated MPI ranks × 2 workers):
//!
//! ```
//! use jsweep::prelude::*;
//! use std::sync::Arc;
//!
//! let mesh = Arc::new(StructuredMesh::unit(8, 8, 8));
//! let patches = decompose_structured(&mesh, (4, 4, 4), 2);
//! let quad = QuadratureSet::sn(2);
//! let materials = Arc::new(MaterialSet::homogeneous(
//!     512,
//!     Material::uniform(1, 1.0, 0.5, 1.0),
//! ));
//! let problem = Arc::new(SweepProblem::build(
//!     mesh.as_ref(),
//!     patches,
//!     &quad,
//!     &ProblemOptions::default(),
//! ));
//! let solution = solve_parallel(
//!     mesh,
//!     problem,
//!     &quad,
//!     materials,
//!     &SnConfig { max_iterations: 5, ..Default::default() },
//! );
//! assert!(solution.phi.iter().all(|&phi| phi > 0.0));
//! ```

#![deny(missing_docs)]

pub use jsweep_baselines as baselines;
pub use jsweep_comm as comm;
pub use jsweep_core as core;
pub use jsweep_des as des;
pub use jsweep_graph as graph;
pub use jsweep_mesh as mesh;
pub use jsweep_quadrature as quadrature;
pub use jsweep_transport as transport;

/// The most common imports in one place.
pub mod prelude {
    pub use jsweep_core::{
        EpochFault, FaultKind, FaultPlan, PatchProgram, ProgramFactory, ProgramId, RuntimeConfig,
        Stream, TaskTag, TelemetryHandle, TerminationKind, Universe,
    };
    pub use jsweep_des::{simulate, MachineModel, ProblemOptions, SimOptions, SweepProblem};
    pub use jsweep_graph::PriorityStrategy;
    pub use jsweep_mesh::partition::{decompose_structured, decompose_unstructured};
    pub use jsweep_mesh::{PatchId, PatchSet, StructuredMesh, SweepTopology, TetMesh};
    pub use jsweep_quadrature::{AngleId, QuadratureSet};
    pub use jsweep_transport::{
        solve_parallel, solve_parallel_cached, solve_parallel_spmd, solve_serial, FaultReport,
        KernelKind, Material, MaterialSet, PlanCache, RoundRobin, SessionError, SessionOptions,
        SnConfig, SolveRequest, SolverSession, TransportKind,
    };
}
