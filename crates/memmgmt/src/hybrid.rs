//! The Section 8 hybrid: decoupled huge pages over moderate physical chunks.
//!
//! "If an optimal virtual huge page size is `q ≫ hmax` pages, then we could
//! implement decoupled huge pages where the physical huge pages would have
//! size only `q/hmax`, thus achieving all the coverage of the very large
//! huge pages while mitigating the adverse effects on I/Os."
//!
//! Implementation: treat each run of `chunk` base pages as one *chunk*; run
//! the decoupled algorithm `Z` over chunk ids. A TLB entry then covers
//! `hmax × chunk` base pages, while a fault moves `chunk` pages (amplification
//! `chunk` instead of `hmax × chunk`).
//!
//! In pipeline terms this is the decoupled [`Stages::access`] over chunk
//! ids: a request maps to its chunk before the TLB probe, and the IOs are
//! scaled by `chunk` after the access.

use crate::decoupled::{DecoupledConfig, DecoupledStages};
use crate::observe::SimObserver;
use crate::pipeline::{Pipeline, Stages};
use crate::traits::AccessReport;
use atp_core::RamAllocator;
use atp_types::VirtPage;

/// Stage state of the hybrid manager: decoupled stages over chunk ids.
#[derive(Debug)]
pub struct HybridStages<A: RamAllocator> {
    pub(crate) inner: DecoupledStages<A>,
    chunk: u64,
}

impl<A: RamAllocator> HybridStages<A> {
    /// Builds the stages. `alloc` and `cfg.resident_pages` are in **chunk**
    /// units: the allocator's "pages" are chunks of `chunk` base pages.
    ///
    /// # Panics
    /// Panics if `chunk` is not a power of two.
    pub fn new(alloc: A, cfg: DecoupledConfig, chunk: u64) -> Self {
        assert!(chunk.is_power_of_two(), "chunk must be a power of two");
        Self {
            inner: DecoupledStages::new(alloc, cfg),
            chunk,
        }
    }

    /// Base pages per physically contiguous chunk.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// Effective TLB coverage per entry in base pages: `hmax × chunk`.
    pub fn coverage(&self) -> u64 {
        self.inner.coverage() * self.chunk
    }

    /// The chunk id holding base page `v`.
    fn chunk_of(&self, v: VirtPage) -> VirtPage {
        VirtPage(v.0 / self.chunk)
    }
}

impl<A: RamAllocator> Stages for HybridStages<A> {
    fn access<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> AccessReport {
        let mut report = self.inner.access(self.chunk_of(addr), obs);
        report.ios *= self.chunk; // a chunk fault moves `chunk` pages
        report
    }

    fn name(&self) -> String {
        format!("hybrid(chunk={}, inner={})", self.chunk, self.inner.name())
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        for &a in addrs {
            self.inner.touch(self.chunk_of(a));
        }
    }
}

/// Decoupled manager over physically contiguous chunks.
pub type HybridMm<A, O = crate::observe::NoopObserver> = Pipeline<HybridStages<A>, O>;

impl<A: RamAllocator> HybridMm<A> {
    /// Builds the hybrid (unobserved). `alloc` and `cfg.resident_pages` are
    /// in **chunk** units.
    ///
    /// # Panics
    /// Panics if `chunk` is not a power of two.
    pub fn new(alloc: A, cfg: DecoupledConfig, chunk: u64) -> Self {
        Pipeline::from_stages(HybridStages::new(alloc, cfg, chunk))
    }
}

impl<A: RamAllocator, O: SimObserver> HybridMm<A, O> {
    /// Base pages per physically contiguous chunk.
    pub fn chunk(&self) -> u64 {
        self.stages().chunk()
    }

    /// Effective TLB coverage per entry in base pages: `hmax × chunk`.
    pub fn coverage(&self) -> u64 {
        self.stages().coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::MemoryManager;
    use atp_core::IcebergAlloc;
    use atp_replacement::PolicyKind;

    fn hybrid(chunk: u64) -> HybridMm<IcebergAlloc> {
        HybridMm::new(
            IcebergAlloc::with_geometry(64, 8, 4, 1),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 32,
                tlb_policy: PolicyKind::Lru,
                resident_pages: 256, // chunks
                ram_policy: PolicyKind::Lru,
                seed: 1,
            },
            chunk,
        )
    }

    #[test]
    fn coverage_multiplies() {
        let h = hybrid(4);
        assert_eq!(h.coverage(), h.stages().inner.coverage() * 4);
    }

    #[test]
    fn fault_amplification_is_chunk_not_coverage() {
        let mut h = hybrid(4);
        let r = h.access(VirtPage(0));
        assert_eq!(r.ios, 4, "fault moves one chunk");
        // Pages within the same chunk are free.
        for p in 1..4u64 {
            let r = h.access(VirtPage(p));
            assert_eq!(r.ios, 0);
        }
    }

    #[test]
    fn chunk_one_is_plain_decoupling() {
        let mut h = hybrid(1);
        let r = h.access(VirtPage(123));
        assert_eq!(r.ios, 1);
    }

    #[test]
    fn fewer_tlb_misses_than_plain_decoupling_on_scans() {
        let mut plain = hybrid(1);
        let mut chunked = hybrid(8);
        for p in 0..1024u64 {
            plain.access(VirtPage(p));
            chunked.access(VirtPage(p));
        }
        assert!(
            chunked.costs().tlb_misses * 7 < plain.costs().tlb_misses,
            "chunked {} vs plain {}",
            chunked.costs().tlb_misses,
            plain.costs().tlb_misses
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_chunk_rejected() {
        hybrid(3);
    }
}
