//! Dynamic balls-and-bins games (Section 4 of the paper).
//!
//! The paper models RAM-allocation schemes as *dynamic* balls-and-bins games:
//! `n` bins, an oblivious adversary issuing an arbitrary sequence of ball
//! insertions and deletions (never more than `m` balls present), and a
//! placement rule that on each insertion picks one of `k` hashed bin choices.
//! The goal is to minimize the maximum bin load.
//!
//! Placement rules implemented here:
//!
//! * [`Rule::OneChoice`] — `k = 1`: ball goes to its single hashed bin.
//!   Max load `λ + O(√(λ log n))` for `λ = ω(log n)` (eq. 5, third case).
//! * [`Rule::Greedy`] — Greedy\[d\]: `d` choices, least-loaded wins.
//!   Max load `O(λ) + log log n + O(1)` (eq. 6) — the `O(λ)` (rather than
//!   `(1+o(1))λ`) term is exactly why the paper needs Iceberg.
//! * [`Rule::Iceberg`] — Iceberg\[2\] (\[34\], Theorem 2): three hash
//!   functions; a ball first tries its `h₁` bin, which accepts it as long as
//!   its *front* load is below a cap of `(1+o(1))λ`; overflow balls are
//!   placed by Greedy\[2\] on `h₂,h₃` counting only *back* loads. Max load
//!   `(1+o(1))λ + log log n + O(1)` whp — online, stable, dynamic.
//!
//! Front and back loads are tracked separately, per the paper's footnote 4
//! ("insertions performed using h₁ ignore all balls that were inserted using
//! h₂ and h₃, and vice versa").
//!
//! The game is **online** (placements never look ahead) and **stable** (a
//! ball's bin never changes while it is present) — both properties are
//! required for a huge-page decoupling scheme and are asserted by tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod game;
pub mod rule;
pub mod stats;

pub use game::{Game, Slot, Tier};
pub use rule::Rule;
pub use stats::{GameStats, LoadSnapshot};
