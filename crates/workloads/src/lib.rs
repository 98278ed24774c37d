//! Workload generators for the Section 6 experiments (and beyond).
//!
//! Every generator is a seeded, deterministic `Iterator<Item = VirtPage>`:
//!
//! * [`Bimodal`] — Figure 1a: 99.99% of accesses uniform in a "hot" region,
//!   the rest uniform over the whole virtual address space;
//! * [`ParetoWalk`] — Figure 1b: a random walk on a graph whose nodes are
//!   pages, each with a logarithmic number of out-edges whose destinations
//!   are Pareto-distributed (`P(page i) ∝ i^{−α−1}`, α = 0.01);
//! * [`graph500`] — Figure 1c: an R-MAT (Kronecker) graph per the graph500
//!   spec, laid out as CSR in a simulated address space, traversed by BFS
//!   with every data-structure access recorded at page granularity (our
//!   substitute for the paper's recorded trace — see DESIGN.md);
//! * [`basic`] — uniform, sequential, strided, Zipf, and phased working-set
//!   generators for tests and ablations.
//!
//! The Zipf sampler ([`zipf::Zipf`]) uses Hörmann's rejection-inversion
//! method, exact for any exponent > 0 (including the near-1 exponent
//! 1.01 the Pareto walk needs) and O(1) per sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod bimodal;
pub mod graph500;
pub mod hpc;
pub mod tenants;
pub mod walk;
pub mod zipf;

pub use basic::{PhasedWorkingSet, Sequential, Strided, UniformRandom, Zipfian};
pub use bimodal::Bimodal;
pub use graph500::{Graph500Config, Graph500Trace};
pub use hpc::{Gups, Stencil2d};
pub use tenants::TenantMix;
pub use walk::ParetoWalk;
pub use zipf::Zipf;
