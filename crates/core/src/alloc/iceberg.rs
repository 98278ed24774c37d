//! The Iceberg\[2\] allocator (Theorem 3, the Decoupling Theorem).
//!
//! Each bin has a **front** tier of `front_cap` slots and a **back** tier of
//! `back_cap` slots. A page first tries the front of its `h₁` bin; if that
//! tier is full, it falls back to Greedy\[2\] over the *back* tiers of its
//! `h₂`/`h₃` bins (comparing back loads only — footnote 4: the two tiers
//! ignore each other). By Theorem 2, with `λ = log log P · log log log P`
//! the maximum load is `(1+o(1))λ + log log n + O(1)` whp, so bins of size
//! `Θ̃(log log P)` suffice and codes take `Θ(log log log P)` bits:
//!
//! ```text
//! code 0                                  absent
//! code 1 ..= F                            front slot (code−1) of bin h₁(v)
//! code F+1 ..= F+B                        back slot  (code−F−1) of bin h₂(v)
//! code F+B+1 ..= F+2B                     back slot  (code−F−B−1) of bin h₃(v)
//! ```

use super::slots::SlotStacks;
use super::{PagingFailure, Placement, RamAllocator};
use crate::encoding::SlotCode;
use crate::params::{bits_for, IcebergParams};
use atp_hash::{FxHashMap, PageHasher};
use atp_types::{PhysPage, VirtPage};
use std::collections::hash_map::Entry;

/// Where a placed page lives, packed into one word: the bin in the high 32
/// bits and the page's slot code in the low 32. The code names both the
/// hash function that chose the bin and the slot within it.
#[inline]
fn pack(bin: u64, code: SlotCode) -> u64 {
    bin << 32 | code.0 as u64
}

/// Iceberg\[2\] allocator.
#[derive(Clone, Debug)]
pub struct IcebergAlloc {
    hasher: PageHasher,
    front_free: SlotStacks,
    back_free: SlotStacks,
    /// Placed page → [`pack`]ed `(bin, code)`.
    placed: FxHashMap<VirtPage, u64>,
    front_cap: u32,
    back_cap: u32,
    bits: u32,
    /// Lifetime count of placements that overflowed to the back tier.
    back_placements: u64,
}

impl IcebergAlloc {
    /// Creates the allocator from derived or custom parameters.
    pub fn new(params: &IcebergParams, seed: u64) -> Self {
        Self::with_geometry(params.bins, params.front_cap, params.back_cap, seed)
    }

    /// Creates the allocator with explicit geometry.
    ///
    /// # Panics
    /// Panics if any dimension is zero, or if `bins` or a code does not
    /// fit in 32 bits.
    pub fn with_geometry(bins: u64, front_cap: u32, back_cap: u32, seed: u64) -> Self {
        assert!(
            bins > 0 && front_cap > 0 && back_cap > 0,
            "bins, front_cap, back_cap must be nonzero"
        );
        assert!(
            bins <= 1 << 32 && (front_cap as u64 + 2 * back_cap as u64) < 1 << 32,
            "bins and codes must fit in 32 bits"
        );
        Self {
            hasher: PageHasher::new(seed, bins, 3),
            front_free: SlotStacks::full(bins, 0, front_cap),
            back_free: SlotStacks::full(bins, front_cap, back_cap),
            placed: FxHashMap::default(),
            front_cap,
            back_cap,
            bits: bits_for(1 + front_cap as u64 + 2 * back_cap as u64),
            back_placements: 0,
        }
    }

    /// Number of bins `n`.
    pub fn bins(&self) -> u64 {
        self.front_free.bins()
    }

    /// Front-tier capacity per bin.
    pub fn front_cap(&self) -> u32 {
        self.front_cap
    }

    /// Back-tier capacity per bin.
    pub fn back_cap(&self) -> u32 {
        self.back_cap
    }

    /// Back-tier load of bin `b`.
    pub fn back_load(&self, b: u64) -> u32 {
        self.back_cap - self.back_free.len(b)
    }

    /// Front-tier load of bin `b`.
    pub fn front_load(&self, b: u64) -> u32 {
        self.front_cap - self.front_free.len(b)
    }

    /// Lifetime count of placements that spilled to the back tier; the
    /// theory says this stays a small fraction of all placements.
    pub fn back_placements(&self) -> u64 {
        self.back_placements
    }

    #[inline]
    fn bin_stride(&self) -> u64 {
        (self.front_cap + self.back_cap) as u64
    }

    #[inline]
    fn frame(&self, bin: u64, slot: u32) -> PhysPage {
        PhysPage(bin * self.bin_stride() + slot as u64)
    }

    /// The slot within its bin that nonzero code `code` names: front codes
    /// and `h₂` back codes map straight to `code − 1`, `h₃` back codes sit
    /// `back_cap` further up the code space.
    #[inline]
    fn slot_of(&self, code: SlotCode) -> u32 {
        let c = code.0 - 1;
        if c < self.front_cap + self.back_cap {
            c
        } else {
            c - self.back_cap
        }
    }

    /// The `(bin, slot)` a [`pack`]ed placement names.
    #[inline]
    fn unpack(&self, packed: u64) -> (u64, u32) {
        (packed >> 32, self.slot_of(SlotCode(packed as u32)))
    }

    /// The frame a [`pack`]ed placement names.
    #[inline]
    fn unpack_frame(&self, packed: u64) -> PhysPage {
        let (bin, slot) = self.unpack(packed);
        self.frame(bin, slot)
    }
}

impl RamAllocator for IcebergAlloc {
    fn place(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        let Entry::Vacant(entry) = self.placed.entry(v) else {
            panic!("page {v:?} double-placed");
        };
        // Front attempt via h1: code = 1 + slot.
        let b1 = self.hasher.bin(v, 0);
        let (bin, slot, code) = if let Some(slot) = self.front_free.pop(b1) {
            (b1, slot, SlotCode(1 + slot))
        } else {
            // Greedy[2] over back tiers of h2, h3: the less loaded (more
            // free slots) first, ties toward h2. A back slot `s ≥ front_cap`
            // of h2's bin has code 1 + s; of h3's, 1 + back_cap + s.
            let b2 = self.hasher.bin(v, 1);
            let b3 = self.hasher.bin(v, 2);
            let (l2, l3) = (self.back_free.len(b2), self.back_free.len(b3));
            let order = if l2 >= l3 {
                [(b2, 0), (b3, self.back_cap)]
            } else {
                [(b3, self.back_cap), (b2, 0)]
            };
            let back = &mut self.back_free;
            let Some((bin, slot, code)) = order.into_iter().find_map(|(bin, shift)| {
                let slot = back.pop(bin)?;
                Some((bin, slot, SlotCode(1 + shift + slot)))
            }) else {
                return Err(PagingFailure { page: v });
            };
            self.back_placements += 1;
            (bin, slot, code)
        };
        entry.insert(pack(bin, code));
        Ok(Placement {
            frame: self.frame(bin, slot),
            code,
        })
    }

    fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
        let packed = self.placed.remove(&v)?;
        let (bin, slot) = self.unpack(packed);
        if slot < self.front_cap {
            self.front_free.push(bin, slot);
        } else {
            self.back_free.push(bin, slot);
        }
        Some(self.frame(bin, slot))
    }

    fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.placed.get(&v).map(|&p| self.unpack_frame(p))
    }

    fn code_of(&self, v: VirtPage) -> SlotCode {
        self.placed
            .get(&v)
            .map_or(SlotCode::ABSENT, |&p| SlotCode(p as u32))
    }

    fn decode(&self, v: VirtPage, code: SlotCode) -> Option<PhysPage> {
        if code.is_absent() {
            return None;
        }
        let c = code.0 - 1;
        let f = self.front_cap;
        let b = self.back_cap;
        if c < f {
            Some(self.frame(self.hasher.bin(v, 0), c))
        } else if c < f + b {
            Some(self.frame(self.hasher.bin(v, 1), f + (c - f)))
        } else if c < f + 2 * b {
            Some(self.frame(self.hasher.bin(v, 2), f + (c - f - b)))
        } else {
            None
        }
    }

    fn bits_per_code(&self) -> u32 {
        self.bits
    }

    fn phys_pages(&self) -> u64 {
        self.bins() * self.bin_stride()
    }

    fn resident(&self) -> u64 {
        self.placed.len() as u64
    }

    fn associativity(&self) -> u64 {
        (self.front_cap + 2 * self.back_cap) as u64
    }

    fn iter_placed(&self) -> Box<dyn Iterator<Item = (VirtPage, PhysPage)> + '_> {
        Box::new(self.placed.iter().map(|(&v, &p)| (v, self.unpack_frame(p))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::contract::{churn_contract, churn_matches_model, vec_stacks, VecModel};

    /// The pre-[`SlotStacks`] layout: one free list per bin and tier.
    struct Model {
        hasher: PageHasher,
        front: Vec<Vec<u32>>,
        back: Vec<Vec<u32>>,
        placed: FxHashMap<VirtPage, (u64, u32)>,
        front_cap: u32,
        back_cap: u32,
    }

    impl Model {
        fn frame(&self, bin: u64, slot: u32) -> PhysPage {
            PhysPage(bin * (self.front_cap + self.back_cap) as u64 + slot as u64)
        }
    }

    impl VecModel for Model {
        fn place(&mut self, v: VirtPage) -> Option<Placement> {
            let (f, b) = (self.front_cap, self.back_cap);
            let b1 = self.hasher.bin(v, 0);
            let (bin, slot, code) = if let Some(slot) = self.front[b1 as usize].pop() {
                (b1, slot, 1 + slot)
            } else {
                let (b2, b3) = (self.hasher.bin(v, 1), self.hasher.bin(v, 2));
                let load = |bin: u64| b - self.back[bin as usize].len() as u32;
                let order = if load(b2) <= load(b3) {
                    [(b2, 1), (b3, 2)]
                } else {
                    [(b3, 2), (b2, 1)]
                };
                let mut chosen = None;
                for (bin, idx) in order {
                    if let Some(slot) = self.back[bin as usize].pop() {
                        chosen = Some((bin, slot, 1 + f + (idx - 1) * b + (slot - f)));
                        break;
                    }
                }
                chosen?
            };
            self.placed.insert(v, (bin, slot));
            Some(Placement {
                frame: self.frame(bin, slot),
                code: SlotCode(code),
            })
        }

        fn free(&mut self, v: VirtPage) -> Option<PhysPage> {
            let (bin, slot) = self.placed.remove(&v)?;
            let tier = if slot < self.front_cap {
                &mut self.front
            } else {
                &mut self.back
            };
            tier[bin as usize].push(slot);
            Some(self.frame(bin, slot))
        }
    }

    #[test]
    fn slot_stacks_match_vec_free_lists() {
        let (bins, front_cap, back_cap, seed) = (16, 3, 2, 21);
        let model = Model {
            hasher: PageHasher::new(seed, bins, 3),
            front: vec_stacks(bins, 0, front_cap),
            back: vec_stacks(bins, front_cap, back_cap),
            placed: FxHashMap::default(),
            front_cap,
            back_cap,
        };
        let alloc = IcebergAlloc::with_geometry(bins, front_cap, back_cap, seed);
        churn_matches_model(alloc, model, 1000, 20_000);
    }

    #[test]
    fn contract_holds() {
        churn_contract(IcebergAlloc::with_geometry(32, 8, 4, 11), 4000, 200, 10_000);
    }

    #[test]
    fn prefers_front_tier() {
        let mut a = IcebergAlloc::with_geometry(64, 8, 4, 1);
        for v in 0..32u64 {
            a.place(VirtPage(v)).unwrap();
        }
        assert_eq!(
            a.back_placements(),
            0,
            "sparse fill must stay in front tiers"
        );
    }

    #[test]
    fn overflow_goes_to_less_loaded_back_bin() {
        // One bin, tiny front: forces back placements; then all back slots
        // of both h2/h3 (same single bin) exhaust → failure.
        let mut a = IcebergAlloc::with_geometry(1, 1, 2, 2);
        assert!(a.place(VirtPage(0)).is_ok()); // front
        assert!(a.place(VirtPage(1)).is_ok()); // back
        assert!(a.place(VirtPage(2)).is_ok()); // back
        assert!(a.place(VirtPage(3)).is_err(), "all tiers full");
        assert_eq!(a.back_placements(), 2);
    }

    #[test]
    fn code_ranges_decode_to_distinct_tiers() {
        let mut a = IcebergAlloc::with_geometry(16, 2, 2, 3);
        // Fill until we observe both tiers used.
        let mut saw_front = false;
        let mut saw_back = false;
        for v in 0..48u64 {
            if let Ok(p) = a.place(VirtPage(v)) {
                assert_eq!(a.decode(VirtPage(v), p.code), Some(p.frame));
                if p.code.0 <= 2 {
                    saw_front = true;
                } else {
                    saw_back = true;
                }
            }
        }
        assert!(saw_front && saw_back);
    }

    #[test]
    fn theory_params_survive_fill_without_failures() {
        let params = IcebergParams::derive(1 << 14);
        let mut a = IcebergAlloc::new(&params, 42);
        for v in 0..params.max_resident {
            a.place(VirtPage(v))
                .expect("no failure at theory params (Theorem 3)");
        }
        assert_eq!(a.resident(), params.max_resident);
    }

    #[test]
    fn iceberg_needs_smaller_bins_than_one_choice() {
        // Same P, same zero-failure requirement on a full fill: iceberg's
        // derived bin size is much smaller (the Θ̃(log P) vs Θ̃(loglog P) gap).
        use crate::params::OneChoiceParams;
        let p = 1u64 << 20;
        let oc = OneChoiceParams::derive(p);
        let ib = IcebergParams::derive(p);
        assert!(
            ((ib.front_cap + ib.back_cap) as u64) * 3 < oc.bin_size as u64,
            "iceberg bins {} not ≪ one-choice bins {}",
            ib.front_cap + ib.back_cap,
            oc.bin_size
        );
    }

    #[test]
    fn free_restores_correct_tier() {
        let mut a = IcebergAlloc::with_geometry(1, 1, 1, 7);
        a.place(VirtPage(0)).unwrap(); // front slot
        a.place(VirtPage(1)).unwrap(); // back slot
        let f0 = a.frame_of(VirtPage(0)).unwrap();
        a.free(VirtPage(0));
        // Front slot free again: next placement goes to front.
        let p = a.place(VirtPage(2)).unwrap();
        assert_eq!(p.frame, f0);
        assert_eq!(p.code.0, 1, "front code");
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let a = IcebergAlloc::with_geometry(4, 2, 2, 9);
        // codes: 1..=2 front, 3..=4 back(h2), 5..=6 back(h3); 7+ invalid.
        assert!(a.decode(VirtPage(0), SlotCode(6)).is_some());
        assert_eq!(a.decode(VirtPage(0), SlotCode(7)), None);
    }
}
