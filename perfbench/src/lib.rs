//! End-to-end and per-layer benchmark of the BPROM workspace.
//!
//! The benchmark measures the program from outside: it times calls into
//! public functions (`Bprom::fit`, the fit stages, `Bprom::inspect`,
//! `AuditEngine::run`) and wraps the `BlackBoxModel` boundary with its own
//! timing decorator. See `perfbench/README.md` for the workloads and the
//! metric → layer → workload map.

pub mod host;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod trace;
pub mod workloads;
