//! End-to-end and per-layer benchmark of the shared-whiteboard machine.
//!
//! The binary (`src/main.rs`) runs one workload for a fixed time and prints
//! one JSON result line; see `README.md` in this package for the workloads,
//! the metrics and how to read them. The library half holds what the
//! binary and the package's tests share:
//!
//! - [`workloads`] — the four workloads, untraced and traced passes, and
//!   the output checks;
//! - [`traced`] — a traced copy of `wb_serve::run_job` whose reports must be
//!   byte-identical to it;
//! - [`layers`] — forwarding timers around protocols and oracles;
//! - [`metrics`] — metric names, units and their computation;
//! - [`sys`] — CPU time, peak memory and the run header.

pub mod layers;
pub mod metrics;
pub mod sys;
pub mod traced;
pub mod workloads;
