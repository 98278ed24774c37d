//! Trace-driven simulation drivers.
//!
//! * [`run`] — drive one memory manager over a trace with the paper's
//!   warmup-then-measure protocol (Section 6);
//! * [`sweep()`] — fan a family of configurations out over worker threads
//!   (used for the huge-page-size sweeps of Figure 1 and the parameter
//!   sweeps of the theorem-validation experiments);
//! * [`multicore`] — the Section 1 "trends" extension: per-core TLBs over a
//!   shared page cache, with TLB-shootdown accounting on evictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epsilon;
pub mod multicore;
pub mod runner;
pub mod sweep;
pub mod tenants;

pub use epsilon::LatencyModel;
pub use multicore::{
    run_multicore, run_multicore_observed, CoreStats, MulticoreConfig, MulticoreResult,
    ShootdownTally,
};
pub use runner::{run, run_batched, run_batched_profiled, SimStats, DEFAULT_BATCH};
pub use sweep::{sweep, sweep_with_progress};
pub use tenants::{run_tenants, run_tenants_batched, run_tenants_batched_windowed, TenantStats};
