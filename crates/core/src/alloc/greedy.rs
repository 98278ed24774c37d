//! A Greedy\[d\]-only allocator (ablation).
//!
//! Like [`crate::alloc::IcebergAlloc`] without the front tier: every page is
//! placed by Greedy\[d\] — `d` hashed bin choices, least-loaded wins. The
//! paper rejects this design because the best *provable* bound on its
//! maximum load is `O(λ) + log log n` (eq. 6), forcing `δ = Ω(1)`; but
//! footnote 3 notes nobody knows whether the `Θ(λ)` dependence is real.
//! This allocator lets the `ablation_alloc` bench measure the empirical gap
//! against Iceberg at equal bin budgets.

use super::slots::SlotStacks;
use super::{PagingFailure, Placement, RamAllocator};
use crate::encoding::SlotCode;
use crate::params::bits_for;
use atp_hash::{FxHashMap, PageHasher};
use atp_types::{PhysPage, VirtPage};
use std::collections::hash_map::Entry;

/// Greedy\[d\] bucketed allocator.
#[derive(Clone, Debug)]
pub struct GreedyAlloc {
    hasher: PageHasher,
    free_slots: SlotStacks,
    placed: FxHashMap<VirtPage, (u64, u32, u8)>,
    bin_size: u32,
    d: u32,
    bits: u32,
}

impl GreedyAlloc {
    /// Creates the allocator: `bins × bin_size` slots, `d ≥ 2` choices.
    ///
    /// # Panics
    /// Panics if any dimension is zero or `d < 2`.
    pub fn with_geometry(bins: u64, bin_size: u32, d: u32, seed: u64) -> Self {
        assert!(
            bins > 0 && bin_size > 0,
            "bins and bin_size must be nonzero"
        );
        assert!(d >= 2, "Greedy[d] requires d >= 2");
        Self {
            hasher: PageHasher::new(seed, bins, d),
            free_slots: SlotStacks::full(bins, 0, bin_size),
            placed: FxHashMap::default(),
            bin_size,
            d,
            // Codes: 0 absent; then d ranges of bin_size slots, one per choice.
            bits: bits_for(1 + d as u64 * bin_size as u64),
        }
    }

    /// Load of bin `b`.
    pub fn bin_load(&self, b: u64) -> u32 {
        self.bin_size - self.free_slots.len(b)
    }

    #[inline]
    fn frame(&self, bin: u64, slot: u32) -> PhysPage {
        PhysPage(bin * self.bin_size as u64 + slot as u64)
    }
}

impl RamAllocator for GreedyAlloc {
    fn place(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        // Least-loaded choice with free capacity, ties toward lower index.
        let mut best: Option<(u64, u8, u32)> = None; // (bin, idx, load)
        for i in 0..self.d {
            let b = self.hasher.bin(v, i);
            let load = self.bin_load(b);
            if load < self.bin_size && best.is_none_or(|(_, _, l)| load < l) {
                best = Some((b, i as u8, load));
            }
        }
        let Entry::Vacant(entry) = self.placed.entry(v) else {
            panic!("page {v:?} double-placed");
        };
        match best {
            Some((bin, idx, _)) => {
                // atp-lint: allow(unwrap-policy, reason = "invariant: the chosen bin was just checked to have load below capacity, so a free slot exists")
                let slot = self.free_slots.pop(bin).expect("free slot");
                entry.insert((bin, slot, idx));
                Ok(Placement {
                    frame: self.frame(bin, slot),
                    code: SlotCode(1 + idx as u32 * self.bin_size + slot),
                })
            }
            None => Err(PagingFailure { page: v }),
        }
    }

    fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
        let (bin, slot, _) = self.placed.remove(&v)?;
        self.free_slots.push(bin, slot);
        Some(self.frame(bin, slot))
    }

    fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.placed.get(&v).map(|&(b, s, _)| self.frame(b, s))
    }

    fn code_of(&self, v: VirtPage) -> SlotCode {
        self.placed.get(&v).map_or(SlotCode::ABSENT, |&(_, s, i)| {
            SlotCode(1 + i as u32 * self.bin_size + s)
        })
    }

    fn decode(&self, v: VirtPage, code: SlotCode) -> Option<PhysPage> {
        if code.is_absent() || code.0 > self.d * self.bin_size {
            return None;
        }
        let c = code.0 - 1;
        let idx = c / self.bin_size;
        let slot = c % self.bin_size;
        Some(self.frame(self.hasher.bin(v, idx), slot))
    }

    fn bits_per_code(&self) -> u32 {
        self.bits
    }

    fn phys_pages(&self) -> u64 {
        self.free_slots.bins() * self.bin_size as u64
    }

    fn resident(&self) -> u64 {
        self.placed.len() as u64
    }

    fn associativity(&self) -> u64 {
        (self.d * self.bin_size) as u64
    }

    fn iter_placed(&self) -> Box<dyn Iterator<Item = (VirtPage, PhysPage)> + '_> {
        Box::new(
            self.placed
                .iter()
                .map(|(&v, &(b, s, _))| (v, self.frame(b, s))),
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
        d: u32,
    }

    impl VecModel for Model {
        fn place(&mut self, v: VirtPage) -> Option<Placement> {
            let mut best: Option<(u64, u32, usize)> = None; // (bin, idx, free)
            for i in 0..self.d {
                let b = self.hasher.bin(v, i);
                let free = self.free[b as usize].len();
                if free > 0 && best.is_none_or(|(_, _, f)| free > f) {
                    best = Some((b, i, free));
                }
            }
            let (bin, idx, _) = best?;
            let slot = self.free[bin as usize].pop()?;
            self.placed.insert(v, (bin, slot));
            Some(Placement {
                frame: PhysPage(bin * self.bin_size as u64 + slot as u64),
                code: SlotCode(1 + idx * self.bin_size + slot),
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
        let (bins, bin_size, d, seed) = (16, 4, 3, 21);
        let model = Model {
            hasher: PageHasher::new(seed, bins, d),
            free: vec_stacks(bins, 0, bin_size),
            placed: FxHashMap::default(),
            bin_size,
            d,
        };
        let alloc = GreedyAlloc::with_geometry(bins, bin_size, d, seed);
        churn_matches_model(alloc, model, 1000, 20_000);
    }

    #[test]
    fn contract_holds() {
        churn_contract(GreedyAlloc::with_geometry(32, 8, 2, 7), 2000, 200, 8000);
    }

    #[test]
    fn balances_better_than_one_choice() {
        use crate::alloc::OneChoiceAlloc;
        let bins = 256u64;
        let b = 32u32;
        let mut greedy = GreedyAlloc::with_geometry(bins, b, 2, 5);
        let mut one = OneChoiceAlloc::with_geometry(bins, b, 5);
        let n_balls = bins * 16;
        let (mut gf, mut of) = (0u64, 0u64);
        for v in 0..n_balls {
            gf += u64::from(greedy.place(VirtPage(v)).is_err());
            of += u64::from(one.place(VirtPage(v)).is_err());
        }
        let gmax = (0..bins).map(|x| greedy.bin_load(x)).max().unwrap();
        let omax = (0..bins).map(|x| one.bin_load(x)).max().unwrap();
        assert!(gmax < omax, "greedy max {gmax} !< one-choice max {omax}");
        assert!(gf <= of);
    }

    #[test]
    fn decode_covers_all_choices() {
        let mut a = GreedyAlloc::with_geometry(8, 2, 3, 2);
        for v in 0..40u64 {
            if let Ok(p) = a.place(VirtPage(v)) {
                assert_eq!(a.decode(VirtPage(v), p.code), Some(p.frame), "v={v}");
            }
        }
    }

    #[test]
    fn fails_only_when_all_choices_full() {
        let mut a = GreedyAlloc::with_geometry(1, 2, 2, 3);
        assert!(a.place(VirtPage(0)).is_ok());
        assert!(a.place(VirtPage(1)).is_ok());
        assert!(a.place(VirtPage(2)).is_err());
        a.free(VirtPage(0));
        assert!(a.place(VirtPage(2)).is_ok());
    }

    #[test]
    fn bits_account_for_choice_index() {
        // d=2, B=8: codes 0..=16 → 5 bits.
        let a = GreedyAlloc::with_geometry(4, 8, 2, 1);
        assert_eq!(a.bits_per_code(), 5);
    }
}
