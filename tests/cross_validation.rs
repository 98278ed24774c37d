//! Cross-crate consistency checks: independent implementations of the same
//! quantity must agree exactly.

use atp::memmgmt::{MemoryManager, PagingOnlyMm, VirtualOnlyMm};
use atp::replacement::PolicyKind;
use atp::trace::ReuseProfile;
use atp::types::VirtPage;
use atp::workloads::{Gups, ParetoWalk, Stencil2d, Zipfian};

/// The Mattson reuse-distance profile predicts `Y`'s (LRU) IO count exactly,
/// at every capacity — two completely different code paths.
#[test]
fn mrc_matches_paging_only_manager() {
    let traces: Vec<Vec<VirtPage>> = vec![
        Zipfian::new(1, 4096, 1.0).take(30_000).collect(),
        ParetoWalk::new(2, 4096, 0.01).take(30_000).collect(),
        Gups::new(3, 2048, 64).take(30_000).collect(),
    ];
    for trace in &traces {
        let prof = ReuseProfile::compute(trace, 4096);
        for cap in [16u64, 64, 256, 1024, 4000] {
            let mut y = PagingOnlyMm::new(cap, PolicyKind::Lru, 0);
            for &p in trace {
                y.access(p);
            }
            assert_eq!(
                y.costs().ios,
                prof.lru_misses(cap as usize),
                "capacity {cap}"
            );
        }
    }
}

/// The same holds at huge-page granularity: the profile of the r(σ) stream
/// predicts X's TLB misses.
#[test]
fn mrc_matches_virtual_only_manager() {
    let trace: Vec<VirtPage> = Zipfian::new(5, 1 << 14, 0.9).take(40_000).collect();
    for hmax in [4u64, 16] {
        let huge: Vec<VirtPage> = trace.iter().map(|p| VirtPage(p.0 / hmax)).collect();
        let prof = ReuseProfile::compute(&huge, 1 << 12);
        for entries in [32u64, 128, 512] {
            let mut x = VirtualOnlyMm::new(hmax, entries, PolicyKind::Lru, 0);
            for &p in &trace {
                x.access(p);
            }
            assert_eq!(
                x.costs().tlb_misses,
                prof.lru_misses(entries as usize),
                "hmax {hmax} entries {entries}"
            );
        }
    }
}

/// GUPS is TLB-hostile (near-zero locality); the stencil is TLB-friendly.
/// Decoupled coverage should barely help GUPS' table but nearly erase the
/// stencil's TLB misses — the workload-dependence the paper's intro frames.
#[test]
fn hpc_workloads_bracket_tlb_behaviour() {
    use atp::core::{IcebergAlloc, IcebergParams};
    use atp::memmgmt::decoupled::DecoupledConfig;
    use atp::memmgmt::DecoupledMm;

    let params = IcebergParams::derive(1 << 14);
    let mk = |seed| {
        DecoupledMm::new(
            IcebergAlloc::new(&params, seed),
            DecoupledConfig {
                tlb_value_bits: 64,
                tlb_entries: 64,
                tlb_policy: PolicyKind::Lru,
                resident_pages: params.max_resident,
                ram_policy: PolicyKind::Lru,
                seed,
            },
        )
    };
    let n = 60_000;

    let mut gups_mm = mk(1);
    for p in Gups::new(9, 4096, 64).take(n) {
        gups_mm.access(p);
    }
    let gups_rate = gups_mm.costs().tlb_miss_rate();

    let mut stencil_mm = mk(2);
    for p in Stencil2d::new(256, 256, 16).take(n) {
        stencil_mm.access(p);
    }
    let stencil_rate = stencil_mm.costs().tlb_miss_rate();

    assert!(
        stencil_rate * 20.0 < gups_rate,
        "stencil {stencil_rate} should be ≪ gups {gups_rate}"
    );
}

/// Replicated paging-failure measurement across seeds: the Theorem-3 claim
/// is not a lucky seed.
#[test]
fn theorem3_zero_failures_across_seeds() {
    use atp::core::{IcebergAlloc, IcebergParams, RamAllocator};
    use atp::types::VirtPage as V;

    let params = IcebergParams::derive(1 << 14);
    let seeds: Vec<u64> = (0..16).collect();
    let failures = atp::sim::sweep(&seeds, 0, |&seed| {
        let mut alloc = IcebergAlloc::new(&params, seed);
        let mut failures = 0u64;
        // Sliding window churn at the full resident bound.
        let m = params.max_resident;
        for v in 0..m * 4 {
            if v >= m {
                alloc.free(V(v - m));
            }
            if alloc.place(V(v)).is_err() {
                failures += 1;
            }
        }
        failures
    });
    assert_eq!(
        failures.iter().max(),
        Some(&0),
        "failures per seed: {failures:?}"
    );
}
