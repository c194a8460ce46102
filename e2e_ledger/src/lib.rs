//! The end-to-end ledger: one harness, four named workloads,
//! end-to-end and per-layer metrics.
//!
//! Everything is measured from outside the program under test: by
//! timing calls into each crate's public functions on a workload's own
//! inputs, and by reading the counts and `Breakdown` that
//! `SnSolution::stats` and `SessionStats` already return. See
//! `BENCHMARK.md` beside this crate's manifest for the workloads, the
//! metric definitions and which layer metric should move which
//! end-to-end metric.

#![deny(missing_docs)]

pub mod catalog;
pub mod cli;
pub mod cpu;
pub mod inputs;
pub mod json;
pub mod numeric;
pub mod passes;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
