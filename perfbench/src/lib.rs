//! The repository benchmark.
//!
//! Runs one workload for a fixed host-time budget through the public crate
//! APIs (`tfm_workloads` generators and `runner::setup`,
//! `TrackFmCompiler::compile`, `Machine::run`, `CoreSet` and the
//! `MemorySystem` trait), checks every output against a host oracle, and
//! reports end-to-end metrics (untraced) or per-layer metrics (from a
//! separate traced run). Metric names ending in `_cycles` are simulated
//! cycles and repeat exactly; names ending in `_s` are host seconds.

pub mod bench;
pub mod measure;
pub mod openloop;
pub mod traced;
pub mod workload;
