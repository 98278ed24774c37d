//! Low-associativity RAM-allocation schemes.
//!
//! A RAM-allocation scheme decides the physical address `φ(v)` of every page
//! the RAM-replacement policy brings in (Section 3). Requirements: `φ` is an
//! **injection** (no two active pages share a frame) and **stable** (a
//! page's frame never changes while it is active). Low associativity is what
//! makes the TLB encoding compact: if a page can only live in a few slots of
//! its hashed bin(s), naming the slot takes few bits.
//!
//! Implementations:
//!
//! * [`FullyAssociativeAlloc`] — any page anywhere; `⌈log₂(P+1)⌉`-bit codes.
//!   The baseline that classic TLBs effectively pay.
//! * [`OneChoiceAlloc`] — `k = 1` bucketed hashing (Theorem 1 / warm-up).
//! * [`IcebergAlloc`] — Iceberg\[2\] with front/back tiers (Theorem 3).
//!
//! A [`PagingFailure`] is returned when a page's bin(s) are full; the caller
//! (the memory-management layer) services such pages out-of-band at cost
//! `1 + ε` per access, per Theorem 4's proof.

mod fully_assoc;
mod greedy;
mod iceberg;
mod one_choice;
mod slots;

pub use fully_assoc::FullyAssociativeAlloc;
pub use greedy::GreedyAlloc;
pub use iceberg::IcebergAlloc;
pub use one_choice::OneChoiceAlloc;

use crate::encoding::SlotCode;
use atp_types::{PhysPage, VirtPage};

/// A successful placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The physical frame assigned (`φ(v)`).
    pub frame: PhysPage,
    /// The compact code naming that frame relative to `v`'s hashed bin(s).
    pub code: SlotCode,
}

/// A paging failure: every legal slot for the page is occupied (Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagingFailure {
    /// The page that could not be placed.
    pub page: VirtPage,
}

impl core::fmt::Display for PagingFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "paging failure: no legal slot for page {}", self.page)
    }
}

impl std::error::Error for PagingFailure {}

/// A RAM-allocation scheme: stable, injective `φ` with compact slot codes
/// and an O(1) pure decoding function.
pub trait RamAllocator {
    /// Assigns a frame to `v`.
    ///
    /// # Panics
    /// Panics if `v` is already placed (the RAM-replacement policy never
    /// double-inserts).
    fn place(&mut self, v: VirtPage) -> Result<Placement, PagingFailure>;

    /// Releases `v`'s frame, returning it; `None` if `v` was not placed.
    fn free(&mut self, v: VirtPage) -> Option<PhysPage>;

    /// Current frame of `v` (`φ(v)`), if placed.
    fn frame_of(&self, v: VirtPage) -> Option<PhysPage>;

    /// Current slot code of `v`; [`SlotCode::ABSENT`] if not placed.
    fn code_of(&self, v: VirtPage) -> SlotCode;

    /// The pure decoding function: maps `(v, code)` to the frame the code
    /// names, independent of allocator state (eq. 4's `f`, per-page part).
    /// Returns `None` for [`SlotCode::ABSENT`] or out-of-range codes.
    fn decode(&self, v: VirtPage, code: SlotCode) -> Option<PhysPage>;

    /// Width of slot codes in bits.
    fn bits_per_code(&self) -> u32;

    /// Total physical pages `P` this allocator manages.
    fn phys_pages(&self) -> u64;

    /// Number of currently placed pages.
    fn resident(&self) -> u64;

    /// The associativity: how many distinct frames a page may occupy.
    fn associativity(&self) -> u64;

    /// Iterates over all placed pages and their frames (arbitrary order).
    /// Intended for invariant checking and statistics, not hot paths.
    fn iter_placed(&self) -> Box<dyn Iterator<Item = (VirtPage, PhysPage)> + '_>;
}

#[cfg(test)]
pub(crate) mod contract {
    //! Shared contract tests run against every allocator.
    use super::*;
    use atp_hash::CounterRng;
    use atp_hash::FxHashMap;

    /// Drives random place/free churn, checking injectivity, stability, and
    /// decode correctness throughout.
    pub(crate) fn churn_contract<A: RamAllocator>(
        mut alloc: A,
        universe: u64,
        target: usize,
        ops: u64,
    ) {
        let mut rng = CounterRng::new(0xC0FFEE, 0);
        let mut placed: FxHashMap<u64, PhysPage> = FxHashMap::default();
        let mut frames_in_use: std::collections::HashSet<u64> = Default::default();
        for _ in 0..ops {
            if placed.len() < target || (placed.len() < universe as usize && rng.next_bool(0.3)) {
                // Place a new page.
                let mut v = rng.next_below(universe);
                while placed.contains_key(&v) {
                    v = rng.next_below(universe);
                }
                match alloc.place(VirtPage(v)) {
                    Ok(pl) => {
                        // Injectivity.
                        assert!(
                            frames_in_use.insert(pl.frame.0),
                            "frame {} double-assigned",
                            pl.frame.0
                        );
                        // Decode correctness.
                        assert_eq!(alloc.decode(VirtPage(v), pl.code), Some(pl.frame));
                        assert_eq!(alloc.code_of(VirtPage(v)), pl.code);
                        assert!(pl.frame.0 < alloc.phys_pages());
                        placed.insert(v, pl.frame);
                    }
                    Err(f) => assert_eq!(f.page, VirtPage(v)),
                }
            } else if !placed.is_empty() {
                // Free a random placed page.
                let keys: Vec<u64> = placed.keys().copied().collect();
                let v = keys[rng.next_below(keys.len() as u64) as usize];
                let expect = placed.remove(&v).expect("placed");
                let got = alloc.free(VirtPage(v)).expect("free returns frame");
                assert_eq!(got, expect, "free returned wrong frame");
                frames_in_use.remove(&got.0);
            }
            // Stability: every placed page still reports its original frame.
            if rng.next_bool(0.05) {
                for (&v, &f) in placed.iter() {
                    assert_eq!(alloc.frame_of(VirtPage(v)), Some(f), "stability violated");
                }
            }
            assert_eq!(alloc.resident() as usize, placed.len());
        }
    }

    /// A reference allocator on the layout the bucketed allocators used
    /// before [`super::slots::SlotStacks`]: one `Vec<u32>` free list per
    /// bin (and tier), filled with `(base..base + cap).rev()`.
    pub(crate) trait VecModel {
        fn place(&mut self, v: VirtPage) -> Option<Placement>;
        fn free(&mut self, v: VirtPage) -> Option<PhysPage>;
    }

    /// `bins` full `Vec<u32>` free lists holding `base .. base + cap`.
    pub(crate) fn vec_stacks(bins: u64, base: u32, cap: u32) -> Vec<Vec<u32>> {
        (0..bins)
            .map(|_| (base..base + cap).rev().collect())
            .collect()
    }

    /// Drives `alloc` and `model` through the same place/free churn and
    /// asserts they hand out the same `(frame, code)` sequence and free
    /// the same frames, so the flat slot stacks keep every placement.
    pub(crate) fn churn_matches_model<A: RamAllocator, M: VecModel>(
        mut alloc: A,
        mut model: M,
        universe: u64,
        ops: u64,
    ) {
        let mut rng = CounterRng::new(0x5EED, 3);
        let mut active: Vec<u64> = Vec::new();
        let (mut placed, mut failed) = (0u64, 0u64);
        for step in 0..ops {
            if active.is_empty() || rng.next_bool(0.55) {
                let mut v = rng.next_below(universe);
                while active.contains(&v) {
                    v = rng.next_below(universe);
                }
                let got = alloc.place(VirtPage(v)).ok();
                assert_eq!(got, model.place(VirtPage(v)), "place {v} at step {step}");
                if got.is_some() {
                    active.push(v);
                    placed += 1;
                } else {
                    failed += 1;
                }
            } else {
                let v = active.swap_remove(rng.next_below(active.len() as u64) as usize);
                let got = alloc.free(VirtPage(v));
                assert_eq!(got, model.free(VirtPage(v)), "free {v} at step {step}");
            }
        }
        assert!(
            placed > 0 && failed > 0,
            "churn must fill bins up to failure"
        );
    }
}
