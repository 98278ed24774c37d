//! `atp-check` — property-testing and differential-oracle harness.
//!
//! PR 1 made the workspace hermetic by replacing proptest with hand-rolled
//! seeded loops; this crate gives those loops back their teeth. Three
//! pieces, all driven by the in-tree deterministic [`CounterRng`]:
//!
//! 1. **Generators** ([`gen`]) — [`Gen`] combinators ([`u64s`], [`vecs`],
//!    tuples, [`from_fn`]) that produce traces, parameter sets, and
//!    adversary scripts as pure functions of a 64-bit case seed.
//! 2. **Runner + shrinker** ([`run`]) — [`check`] executes a property over
//!    generated cases; on failure it greedily shrinks the input and panics
//!    with the minimal counterexample *and* a replay command
//!    (`ATP_CHECK_SEED=<seed> cargo test <property>`). Setting that
//!    environment variable pins the runner to the failing case.
//! 3. **Differential runner + oracles** ([`diff`], [`oracles`]) —
//!    [`differential()`] executes a system-under-test against a naive
//!    reference model and reports the first diverging step; [`oracles`]
//!    ships the reference models for every randomized subsystem
//!    (balls-and-bins placement, fully-associative TLB, flat page table,
//!    brute-force Belady OPT, single-step trace driving).
//!
//! ```
//! use atp_check::{check, ensure, u64s, vecs, Gen};
//!
//! // Property: every generated trace round-trips through the codec.
//! let gen = vecs(u64s(0..=1 << 40), 0..=64);
//! check("doc_roundtrip", &gen, |trace| {
//!     let pages: Vec<_> = trace.iter().map(|&p| atp_types::VirtPage(p)).collect();
//!     let decoded = atp_trace_like_roundtrip(&pages);
//!     ensure!(decoded == pages, "codec dropped data");
//!     Ok(())
//! });
//! # fn atp_trace_like_roundtrip(p: &[atp_types::VirtPage]) -> Vec<atp_types::VirtPage> {
//! #     p.to_vec()
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod oracles;
pub mod run;

pub use atp_hash::CounterRng;
pub use diff::differential;
pub use gen::{bools, from_fn, u64s, usizes, vecs, BoolGen, FnGen, Gen, U64Gen, UsizeGen, VecGen};
pub use run::{check, check_config, check_result, Config, Failure, SEED_ENV};
