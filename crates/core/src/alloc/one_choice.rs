//! The one-choice bucketed allocator (Theorem 1 warm-up).
//!
//! RAM is partitioned into `n` bins of `B` consecutive frames; a page hashes
//! to a single bin (`k = 1`) and takes any free slot there. Codes name the
//! slot: `⌈log₂(B+1)⌉` bits. With `λ = log P · log log P` and
//! `B = λ(1+δ)`, no bin overflows with high probability in `P` (eq. 5,
//! third case), so paging failures are whp absent while codes shrink from
//! `log P` to `Θ(log log P)` bits.

use super::slots::SlotStacks;
use super::{PagingFailure, Placement, RamAllocator};
use crate::encoding::SlotCode;
use crate::params::{bits_for, OneChoiceParams};
use atp_hash::{FxHashMap, PageHasher};
use atp_types::{PhysPage, VirtPage};
use std::collections::hash_map::Entry;

/// One-choice bucketed allocator.
#[derive(Clone, Debug)]
pub struct OneChoiceAlloc {
    hasher: PageHasher,
    /// Per-bin stack of free slot indices (each `< bin_size`).
    free_slots: SlotStacks,
    placed: FxHashMap<VirtPage, (u64, u32)>,
    bin_size: u32,
    bits: u32,
}

impl OneChoiceAlloc {
    /// Creates the allocator from derived or custom parameters.
    pub fn new(params: &OneChoiceParams, seed: u64) -> Self {
        Self::with_geometry(params.bins, params.bin_size, seed)
    }

    /// Creates the allocator with explicit `bins × bin_size` geometry.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `bin_size == 0`.
    pub fn with_geometry(bins: u64, bin_size: u32, seed: u64) -> Self {
        assert!(
            bins > 0 && bin_size > 0,
            "bins and bin_size must be nonzero"
        );
        Self {
            hasher: PageHasher::new(seed, bins, 1),
            free_slots: SlotStacks::full(bins, 0, bin_size),
            placed: FxHashMap::default(),
            bin_size,
            bits: bits_for(bin_size as u64 + 1),
        }
    }

    /// Number of bins `n`.
    pub fn bins(&self) -> u64 {
        self.free_slots.bins()
    }

    /// Bin size `B`.
    pub fn bin_size(&self) -> u32 {
        self.bin_size
    }

    /// Load (occupied slots) of bin `b`.
    pub fn bin_load(&self, b: u64) -> u32 {
        self.bin_size - self.free_slots.len(b)
    }

    #[inline]
    fn frame(&self, bin: u64, slot: u32) -> PhysPage {
        PhysPage(bin * self.bin_size as u64 + slot as u64)
    }
}

impl RamAllocator for OneChoiceAlloc {
    fn place(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        let Entry::Vacant(entry) = self.placed.entry(v) else {
            panic!("page {v:?} double-placed");
        };
        let bin = self.hasher.bin(v, 0);
        match self.free_slots.pop(bin) {
            Some(slot) => {
                entry.insert((bin, slot));
                Ok(Placement {
                    frame: self.frame(bin, slot),
                    code: SlotCode(slot + 1),
                })
            }
            None => Err(PagingFailure { page: v }),
        }
    }

    fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
        let (bin, slot) = self.placed.remove(&v)?;
        self.free_slots.push(bin, slot);
        Some(self.frame(bin, slot))
    }

    fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.placed.get(&v).map(|&(b, s)| self.frame(b, s))
    }

    fn code_of(&self, v: VirtPage) -> SlotCode {
        self.placed
            .get(&v)
            .map_or(SlotCode::ABSENT, |&(_, s)| SlotCode(s + 1))
    }

    fn decode(&self, v: VirtPage, code: SlotCode) -> Option<PhysPage> {
        if code.is_absent() || code.0 > self.bin_size {
            return None;
        }
        Some(self.frame(self.hasher.bin(v, 0), code.0 - 1))
    }

    fn bits_per_code(&self) -> u32 {
        self.bits
    }

    fn phys_pages(&self) -> u64 {
        self.bins() * self.bin_size as u64
    }

    fn resident(&self) -> u64 {
        self.placed.len() as u64
    }

    fn associativity(&self) -> u64 {
        self.bin_size as u64
    }

    fn iter_placed(&self) -> Box<dyn Iterator<Item = (VirtPage, PhysPage)> + '_> {
        Box::new(
            self.placed
                .iter()
                .map(|(&v, &(b, s))| (v, self.frame(b, s))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::contract::{churn_contract, churn_matches_model, vec_stacks, VecModel};

    /// The pre-[`SlotStacks`] layout: one free list per bin.
    struct Model {
        hasher: PageHasher,
        free: Vec<Vec<u32>>,
        placed: FxHashMap<VirtPage, (u64, u32)>,
        bin_size: u32,
    }

    impl VecModel for Model {
        fn place(&mut self, v: VirtPage) -> Option<Placement> {
            let bin = self.hasher.bin(v, 0);
            let slot = self.free[bin as usize].pop()?;
            self.placed.insert(v, (bin, slot));
            Some(Placement {
                frame: PhysPage(bin * self.bin_size as u64 + slot as u64),
                code: SlotCode(slot + 1),
            })
        }

        fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
            let (bin, slot) = self.placed.remove(&v)?;
            self.free[bin as usize].push(slot);
            Some(PhysPage(bin * self.bin_size as u64 + slot as u64))
        }
    }

    #[test]
    fn slot_stacks_match_vec_free_lists() {
        let (bins, bin_size, seed) = (16, 6, 21);
        let model = Model {
            hasher: PageHasher::new(seed, bins, 1),
            free: vec_stacks(bins, 0, bin_size),
            placed: FxHashMap::default(),
            bin_size,
        };
        let alloc = OneChoiceAlloc::with_geometry(bins, bin_size, seed);
        churn_matches_model(alloc, model, 1000, 20_000);
    }

    #[test]
    fn contract_holds() {
        // Generous bins so churn rarely fails.
        churn_contract(OneChoiceAlloc::with_geometry(32, 16, 7), 2000, 256, 8000);
    }

    #[test]
    fn code_names_slot_within_hashed_bin() {
        let mut a = OneChoiceAlloc::with_geometry(8, 4, 1);
        let p = a.place(VirtPage(10)).unwrap();
        assert!(p.code.0 >= 1 && p.code.0 <= 4);
        assert_eq!(a.decode(VirtPage(10), p.code), Some(p.frame));
        // Decoding the same code for a different page names a *different*
        // frame (unless the pages collide in the hash) — pure function of v.
        let other = VirtPage(11);
        if a.hasher.bin(other, 0) != a.hasher.bin(VirtPage(10), 0) {
            assert_ne!(a.decode(other, p.code), Some(p.frame));
        }
    }

    #[test]
    fn unit_bins_fail_at_rate_one_minus_one_over_e() {
        // The §4 "difficulty of reducing associativity" experiment, in
        // miniature: B = 1, k = 1, P distinct insertions → ≈ P/e failures.
        let p = 10_000u64;
        let mut a = OneChoiceAlloc::with_geometry(p, 1, 3);
        let mut failures = 0u64;
        for v in 0..p {
            if a.place(VirtPage(v)).is_err() {
                failures += 1;
            }
        }
        let rate = failures as f64 / p as f64;
        // 1 - (occupied bins)/P ≈ 1/e ≈ 0.368.
        assert!((0.33..0.41).contains(&rate), "failure rate {rate}");
    }

    #[test]
    fn theory_params_survive_fill_without_failures() {
        // Fill to the supported resident bound m with distinct pages; with
        // B = λ + 2.5√(λ ln n) failures must be absent whp (Theorem 1).
        let params = OneChoiceParams::derive(1 << 14);
        let mut a = OneChoiceAlloc::new(&params, 42);
        for v in 0..params.max_resident {
            a.place(VirtPage(v)).expect("no failure at theory params");
        }
        assert_eq!(a.resident(), params.max_resident);
    }

    #[test]
    fn bin_load_accounting() {
        let mut a = OneChoiceAlloc::with_geometry(4, 8, 9);
        assert_eq!((0..4).map(|b| a.bin_load(b)).sum::<u32>(), 0);
        for v in 0..16u64 {
            let _ = a.place(VirtPage(v));
        }
        let total: u32 = (0..4).map(|b| a.bin_load(b)).sum();
        assert_eq!(total as u64, a.resident());
    }

    #[test]
    fn freed_slot_is_reusable_by_same_bin() {
        let mut a = OneChoiceAlloc::with_geometry(1, 2, 5);
        let p1 = a.place(VirtPage(1)).unwrap();
        let _p2 = a.place(VirtPage(2)).unwrap();
        assert!(a.place(VirtPage(3)).is_err(), "bin full");
        a.free(VirtPage(1));
        let p3 = a.place(VirtPage(3)).unwrap();
        assert_eq!(p3.frame, p1.frame, "freed slot reused");
    }

    #[test]
    fn decode_out_of_range_is_none() {
        let a = OneChoiceAlloc::with_geometry(4, 3, 2);
        assert_eq!(a.decode(VirtPage(0), SlotCode(4)), None);
        assert_eq!(a.decode(VirtPage(0), SlotCode::ABSENT), None);
    }
}
