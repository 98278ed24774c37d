//! The huge-page decoupling scheme (Section 3).
//!
//! [`DecouplingScheme`] wires a [`RamAllocator`] to the TLB encoding:
//!
//! * it exposes `ram_insert` / `ram_evict` for the RAM-replacement policy's
//!   changes to the active set `A`,
//! * it maintains the **shadow table** of ψ-values — one [`TlbValue`] per
//!   virtual huge page with at least one resident constituent — so that
//!   every update is O(1) (this is exactly the hash table sketched in the
//!   proof of Theorem 1),
//! * it provides `psi(u)` for TLB fills and the pure decoding function
//!   `decode(v, ψ)` of eq. (4),
//! * it tracks the failure set `F` of pages the allocator could not place.
//!
//! The scheme is oblivious to the replacement policies, and they to it —
//! the separation the paper's framework requires.

use crate::alloc::{PagingFailure, Placement, RamAllocator};
use crate::encoding::{SlotCode, TlbValue};
use crate::params::hmax_for;
use atp_hash::{FxHashMap, FxHashSet};
use atp_types::{HugePageGeometry, PhysPage, VirtHugePage, VirtPage};
use std::collections::hash_map::Entry;

/// Lifetime statistics of a decoupling scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Successful placements.
    pub placements: u64,
    /// Paging failures ever observed.
    pub failures: u64,
    /// Evictions processed.
    pub evictions: u64,
}

/// A huge-page decoupling scheme over allocator `A`.
///
/// ```
/// use atp_core::{DecouplingScheme, IcebergAlloc};
/// use atp_types::VirtPage;
///
/// let alloc = IcebergAlloc::with_geometry(64, 8, 4, 42);
/// let mut scheme = DecouplingScheme::new(alloc, 64); // w = 64 bits
/// assert_eq!(scheme.hmax(), 8); // 5-bit codes → 8 pages per TLB value
///
/// let v = VirtPage(19);
/// let frame = scheme.ram_insert(v).unwrap().frame;
/// let psi = scheme.psi(scheme.geometry().huge_of(v));
/// assert_eq!(scheme.decode(v, &psi), Some(frame)); // eq. (4)
/// scheme.ram_evict(v);
/// assert_eq!(scheme.decode(v, &scheme.psi(scheme.geometry().huge_of(v))), None);
/// ```
#[derive(Clone, Debug)]
pub struct DecouplingScheme<A: RamAllocator> {
    alloc: A,
    geom: HugePageGeometry,
    bits: u32,
    hmax: u64,
    w: u32,
    shadow: FxHashMap<VirtHugePage, TlbValue>,
    failed: FxHashSet<VirtPage>,
    stats: SchemeStats,
}

impl<A: RamAllocator> DecouplingScheme<A> {
    /// Creates a scheme for `w`-bit TLB values, choosing the largest
    /// power-of-two `hmax` whose codes fit: `hmax = ⌊w / bits⌋` rounded down
    /// to a power of two.
    pub fn new(alloc: A, w: u32) -> Self {
        let bits = alloc.bits_per_code();
        let hmax = hmax_for(w, bits);
        Self::with_hmax(alloc, w, hmax)
    }

    /// Creates a scheme with an explicit `hmax` (must fit in `w` bits).
    ///
    /// # Panics
    /// Panics if `hmax` is not a power of two or `hmax · bits > w`.
    pub fn with_hmax(alloc: A, w: u32, hmax: u64) -> Self {
        let bits = alloc.bits_per_code();
        assert!(hmax.is_power_of_two(), "hmax must be a power of two");
        assert!(
            hmax * bits as u64 <= w as u64,
            "hmax={hmax} codes of {bits} bits exceed w={w}"
        );
        Self {
            alloc,
            // atp-lint: allow(unwrap-policy, reason = "constructor contract: documented # Panics on invalid (non-power-of-two) huge-page config")
            geom: HugePageGeometry::new(hmax).expect("power of two"),
            bits,
            hmax,
            w,
            shadow: FxHashMap::default(),
            failed: FxHashSet::default(),
            stats: SchemeStats::default(),
        }
    }

    /// Maximum huge-page size this scheme supports.
    #[inline]
    pub fn hmax(&self) -> u64 {
        self.hmax
    }

    /// Bits per slot code.
    #[inline]
    pub fn bits_per_code(&self) -> u32 {
        self.bits
    }

    /// TLB value width `w`.
    #[inline]
    pub fn w(&self) -> u32 {
        self.w
    }

    /// Huge-page geometry (`r(v)` etc.).
    #[inline]
    pub fn geometry(&self) -> HugePageGeometry {
        self.geom
    }

    /// The underlying allocator.
    #[inline]
    pub fn allocator(&self) -> &A {
        &self.alloc
    }

    /// Lifetime statistics.
    #[inline]
    pub fn stats(&self) -> SchemeStats {
        self.stats
    }

    /// Current size of the failure set `F`.
    #[inline]
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// Whether `v` is currently experiencing a paging failure.
    #[inline]
    pub fn is_failed(&self, v: VirtPage) -> bool {
        self.failed.contains(&v)
    }

    /// Handles the RAM-replacement policy adding `v` to the active set.
    ///
    /// On success, the shadow ψ-value of `v`'s huge page is updated and the
    /// placement returned: the frame `φ(v)` and the code now in ψ, so a
    /// caller patching TLB-resident values need not ask the allocator
    /// again. On failure, `v` joins `F` (until evicted) and the caller must
    /// service accesses to it out-of-band.
    ///
    /// Returns an error if `v` is already active (policy bug) — failed pages
    /// count as active.
    pub fn ram_insert(&mut self, v: VirtPage) -> Result<Placement, PagingFailure> {
        assert!(
            !self.failed.contains(&v),
            "page {v:?} inserted while failed"
        );
        match self.alloc.place(v) {
            Ok(pl) => {
                self.stats.placements += 1;
                let u = self.geom.huge_of(v);
                let idx = self.geom.index_within(v) as u32;
                let (hmax, bits) = (self.hmax as u32, self.bits);
                self.shadow
                    .entry(u)
                    .or_insert_with(|| TlbValue::new(hmax, bits))
                    .set(idx, pl.code);
                Ok(pl)
            }
            Err(f) => {
                self.stats.failures += 1;
                self.failed.insert(v);
                Err(f)
            }
        }
    }

    /// Handles the RAM-replacement policy removing `v` from the active set.
    /// Returns the freed frame (or `None` if `v` was failed or absent).
    pub fn ram_evict(&mut self, v: VirtPage) -> Option<PhysPage> {
        self.stats.evictions += 1;
        if self.failed.remove(&v) {
            return None;
        }
        let frame = self.alloc.free(v)?;
        let u = self.geom.huge_of(v);
        let idx = self.geom.index_within(v) as u32;
        if let Entry::Occupied(mut value) = self.shadow.entry(u) {
            value.get_mut().set(idx, SlotCode::ABSENT);
            if value.get().is_all_absent() {
                value.remove();
            }
        }
        Some(frame)
    }

    /// The current ψ-value for huge page `u` (all-absent if no constituent
    /// is resident). Cloned for insertion into a TLB.
    pub fn psi(&self, u: VirtHugePage) -> TlbValue {
        self.shadow
            .get(&u)
            .cloned()
            .unwrap_or_else(|| TlbValue::new(self.hmax as u32, self.bits))
    }

    /// The TLB-decoding function `f(v, ψ)` of eq. (4): returns `φ(v)` if the
    /// value encodes `v` as resident, else `None`. Pure in `(v, ψ)` given
    /// the scheme's fixed random bits.
    pub fn decode(&self, v: VirtPage, psi: &TlbValue) -> Option<PhysPage> {
        let idx = self.geom.index_within(v) as u32;
        self.alloc.decode(v, psi.get(idx))
    }

    /// Direct translation via the shadow table (what a page-table walk would
    /// return): `φ(v)` if placed.
    pub fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.alloc.frame_of(v)
    }

    /// Current slot code of `v` ([`SlotCode::ABSENT`] if not placed), for
    /// incremental TLB-value maintenance.
    pub fn code_of(&self, v: VirtPage) -> SlotCode {
        self.alloc.code_of(v)
    }

    /// Index of `v` within its huge page, as a `u32` for `TlbValue` access.
    pub fn index_within(&self, v: VirtPage) -> u32 {
        self.geom.index_within(v) as u32
    }

    /// Verifies eq. (4) plus injectivity over the entire current state;
    /// used by tests and debug assertions. O(resident).
    pub fn check_invariants(&self) {
        let mut frames = FxHashSet::default();
        for (v, frame) in self.alloc.iter_placed() {
            assert!(frames.insert(frame.0), "φ not injective at frame {frame:?}");
            let u = self.geom.huge_of(v);
            let psi = self
                .shadow
                .get(&u)
                .unwrap_or_else(|| panic!("placed page {v:?} missing shadow entry"));
            assert_eq!(
                self.decode(v, psi),
                Some(frame),
                "decode mismatch for {v:?}"
            );
        }
        // Every shadow code decodes to the frame of its constituent page,
        // and absent codes correspond to non-resident pages.
        for (&u, psi) in &self.shadow {
            for i in 0..self.hmax as u32 {
                let v = self.geom.constituent(u, i as u64);
                match self.alloc.frame_of(v) {
                    Some(frame) => assert_eq!(self.decode(v, psi), Some(frame)),
                    None => assert_eq!(self.decode(v, psi), None, "ghost code for {v:?}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{FullyAssociativeAlloc, IcebergAlloc, OneChoiceAlloc};
    use atp_hash::CounterRng;

    fn scheme_iceberg() -> DecouplingScheme<IcebergAlloc> {
        DecouplingScheme::new(IcebergAlloc::with_geometry(64, 8, 4, 5), 64)
    }

    #[test]
    fn hmax_derivation() {
        // Iceberg 64×(8,4): codes need ceil(log2(1+8+8)) = 5 bits → hmax = 8
        // codes in w=64 → floor(64/5)=12 → power of two 8.
        let s = scheme_iceberg();
        assert_eq!(s.bits_per_code(), 5);
        assert_eq!(s.hmax(), 8);
    }

    #[test]
    #[should_panic(expected = "exceed w")]
    fn oversized_hmax_rejected() {
        DecouplingScheme::with_hmax(IcebergAlloc::with_geometry(64, 8, 4, 5), 16, 8);
    }

    #[test]
    fn insert_decode_evict_roundtrip() {
        let mut s = scheme_iceberg();
        let v = VirtPage(19);
        let frame = s.ram_insert(v).unwrap().frame;
        let u = s.geometry().huge_of(v);
        let psi = s.psi(u);
        assert_eq!(s.decode(v, &psi), Some(frame));
        // Sibling pages decode as absent.
        for sib in s.geometry().constituents(u) {
            if sib != v {
                assert_eq!(s.decode(sib, &psi), None);
            }
        }
        assert_eq!(s.ram_evict(v), Some(frame));
        let psi = s.psi(u);
        assert_eq!(s.decode(v, &psi), None);
    }

    #[test]
    fn shadow_entries_appear_and_disappear() {
        let mut s = scheme_iceberg();
        let g = s.geometry();
        let u = g.huge_of(VirtPage(100));
        assert!(s.psi(u).is_all_absent());
        s.ram_insert(g.constituent(u, 1)).unwrap();
        s.ram_insert(g.constituent(u, 3)).unwrap();
        assert_eq!(s.psi(u).resident_count(), 2);
        s.ram_evict(g.constituent(u, 1));
        assert_eq!(s.psi(u).resident_count(), 1);
        s.ram_evict(g.constituent(u, 3));
        assert!(s.psi(u).is_all_absent());
        assert!(s.shadow.is_empty(), "empty shadow entries reclaimed");
    }

    #[test]
    fn failures_tracked_until_evicted() {
        // Tiny allocator: 1 bin, 1 front, 1 back → only 2 pages fit legally
        // (and h2==h3==the same bin).
        let mut s = DecouplingScheme::new(IcebergAlloc::with_geometry(1, 1, 1, 3), 64);
        s.ram_insert(VirtPage(0)).unwrap();
        s.ram_insert(VirtPage(1)).unwrap();
        assert!(s.ram_insert(VirtPage(2)).is_err());
        assert!(s.is_failed(VirtPage(2)));
        assert_eq!(s.failed_count(), 1);
        assert_eq!(s.stats().failures, 1);
        // Eviction clears the failure without touching the allocator.
        assert_eq!(s.ram_evict(VirtPage(2)), None);
        assert!(!s.is_failed(VirtPage(2)));
        assert_eq!(s.failed_count(), 0);
    }

    #[test]
    fn invariants_hold_under_churn_all_allocators() {
        fn churn<A: RamAllocator>(mut s: DecouplingScheme<A>, universe: u64) {
            let mut rng = CounterRng::new(77, 1);
            let mut active: Vec<u64> = Vec::new();
            for step in 0..4000u64 {
                if active.len() < 100 || rng.next_bool(0.4) {
                    let mut v = rng.next_below(universe);
                    while active.contains(&v) {
                        v = rng.next_below(universe);
                    }
                    match s.ram_insert(VirtPage(v)) {
                        Ok(_) | Err(_) => active.push(v),
                    }
                } else {
                    let i = rng.next_below(active.len() as u64) as usize;
                    let v = active.swap_remove(i);
                    s.ram_evict(VirtPage(v));
                }
                if step % 500 == 0 {
                    s.check_invariants();
                }
            }
            s.check_invariants();
        }
        churn(
            DecouplingScheme::new(IcebergAlloc::with_geometry(64, 4, 3, 2), 64),
            4096,
        );
        churn(
            DecouplingScheme::new(OneChoiceAlloc::with_geometry(32, 8, 2), 4096),
            4096,
        );
        churn(
            DecouplingScheme::new(FullyAssociativeAlloc::new(256), 64),
            4096,
        );
    }

    #[test]
    fn decode_is_pure_snapshot() {
        // A psi snapshot taken before later churn still decodes what it
        // encoded at snapshot time (values are copied, not referenced) —
        // this is what makes a *stale TLB entry* well-defined.
        let mut s = scheme_iceberg();
        let g = s.geometry();
        let v = VirtPage(42);
        let frame = s.ram_insert(v).unwrap().frame;
        let snapshot = s.psi(g.huge_of(v));
        // Churn elsewhere.
        for x in 200..260u64 {
            let _ = s.ram_insert(VirtPage(x));
        }
        assert_eq!(s.decode(v, &snapshot), Some(frame));
    }

    #[test]
    #[should_panic(expected = "inserted while failed")]
    fn double_insert_of_failed_page_panics() {
        let mut s = DecouplingScheme::new(IcebergAlloc::with_geometry(1, 1, 1, 3), 64);
        s.ram_insert(VirtPage(0)).unwrap();
        s.ram_insert(VirtPage(1)).unwrap();
        let _ = s.ram_insert(VirtPage(2));
        let _ = s.ram_insert(VirtPage(2));
    }
}
