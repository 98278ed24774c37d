//! An ASID-tagged TLB front-end with global-entry fallback.
//!
//! [`AsidTlb`] wraps a fully associative [`Tlb`] keyed by
//! [`TaggedHugePage`] and implements the hardware matching rule for
//! tagged TLBs: a lookup from tenant `a` hits an entry tagged `a` *or*
//! an entry tagged global ([`Asid::GLOBAL`] — the kernel/shared bit).
//! Context switches are free (no flush — the outgoing tenant's entries
//! simply stop matching); [`AsidTlb::flush_asid`] models the targeted
//! invalidation issued when an ASID is retired and recycled.
//!
//! Because a private miss falls back to a second (global-key) probe, the
//! inner sim's hit/miss counters over-count probes; [`AsidTlb`] keeps its
//! own per-lookup [`AsidTlbStats`] instead.

use crate::full::{Tlb, LANES};
use atp_hash::{fx_hash, NO_SLOT};
use atp_replacement::{AnyPolicy, Lru, Policy, PolicyBuild, PolicyKind};
use atp_types::{Asid, NoProf, ProfSink, TaggedHugePage, VirtHugePage};

/// Counters for an ASID-tagged TLB, kept per *lookup* (not per probe).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsidTlbStats {
    /// Lookups that matched a private (same-ASID) entry.
    pub private_hits: u64,
    /// Lookups that matched a global entry.
    pub global_hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Entries installed (private + global).
    pub inserts: u64,
    /// Entries explicitly invalidated (shootdowns).
    pub invalidations: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// `flush_asid` calls that removed at least one entry.
    pub asid_flushes: u64,
    /// Entries removed by `flush_asid` in total.
    pub flushed_entries: u64,
}

impl AsidTlbStats {
    /// Total hits (private + global).
    pub fn hits(&self) -> u64 {
        self.private_hits + self.global_hits
    }
}

/// A fully associative ASID-tagged TLB shared by all tenants.
///
/// One physical structure holds every tenant's entries plus global
/// entries; capacity pressure is shared, so a noisy tenant evicts its
/// neighbours' translations — exactly the ASID-pressure interference a
/// multi-tenant simulation is after.
#[derive(Debug)]
pub struct AsidTlb<V, P: Policy = Lru> {
    inner: Tlb<V, P, TaggedHugePage>,
    stats: AsidTlbStats,
}

impl<V> AsidTlb<V, AnyPolicy> {
    /// Creates a TLB with `entries` slots and a runtime-selected policy.
    pub fn new(entries: u64, policy: PolicyKind, seed: u64) -> Self {
        Self::from_inner(Tlb::new(entries, policy, seed))
    }
}

impl<V> AsidTlb<V, Lru> {
    /// Creates an LRU TLB, fully monomorphized.
    pub fn lru(entries: u64) -> Self {
        Self::from_inner(Tlb::lru(entries))
    }
}

impl<V, P: Policy> AsidTlb<V, P> {
    /// Creates a TLB with a statically chosen policy built from
    /// `(capacity, seed)`.
    pub fn monomorphic(entries: u64, seed: u64) -> Self
    where
        P: PolicyBuild,
    {
        Self::from_inner(Tlb::monomorphic(entries, seed))
    }

    fn from_inner(inner: Tlb<V, P, TaggedHugePage>) -> Self {
        Self {
            inner,
            stats: AsidTlbStats::default(),
        }
    }

    /// Capacity in entries (shared across all tenants).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Per-lookup counters.
    pub fn stats(&self) -> AsidTlbStats {
        self.stats
    }

    /// Whether tenant `asid` would hit on `huge` (private or global),
    /// without touching recency or counters.
    pub fn contains(&self, asid: Asid, huge: VirtHugePage) -> bool {
        self.inner.contains(TaggedHugePage::new(asid, huge))
            || self.inner.contains(TaggedHugePage::global(huge))
    }

    /// Looks up `huge` on behalf of tenant `asid`: the private entry
    /// matches first, then the global one. The matching entry's recency
    /// is refreshed.
    pub fn lookup(&mut self, asid: Asid, huge: VirtHugePage) -> Option<&V> {
        let private = TaggedHugePage::new(asid, huge);
        let key = if self.inner.contains(private) {
            self.stats.private_hits += 1;
            private
        } else {
            let global = TaggedHugePage::global(huge);
            if self.inner.contains(global) {
                self.stats.global_hits += 1;
                global
            } else {
                self.stats.misses += 1;
                return None;
            }
        };
        self.inner.lookup(key)
    }

    /// Inserts a private entry for tenant `asid`, returning the evicted
    /// entry (possibly another tenant's) if the TLB was full.
    ///
    /// # Panics
    /// Panics if the `(asid, huge)` entry is already resident.
    pub fn insert(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        value: V,
    ) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::new(asid, huge), value)
    }

    /// Inserts a global (all-tenants) entry.
    ///
    /// # Panics
    /// Panics if the global entry for `huge` is already resident.
    pub fn insert_global(&mut self, huge: VirtHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        self.insert_key(TaggedHugePage::global(huge), value)
    }

    fn insert_key(&mut self, key: TaggedHugePage, value: V) -> Option<(TaggedHugePage, V)> {
        self.stats.inserts += 1;
        let evicted = self.inner.insert(key, value);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Invalidates tenant `asid`'s private entry for `huge` (a targeted
    /// shootdown), returning its value if resident. Global entries are
    /// untouched; use [`AsidTlb::invalidate_global`] for those.
    pub fn invalidate(&mut self, asid: Asid, huge: VirtHugePage) -> Option<V> {
        let v = self.inner.invalidate(TaggedHugePage::new(asid, huge));
        if v.is_some() {
            self.stats.invalidations += 1;
        }
        v
    }

    /// Invalidates the global entry for `huge`, returning its value if
    /// resident.
    pub fn invalidate_global(&mut self, huge: VirtHugePage) -> Option<V> {
        let v = self.inner.invalidate(TaggedHugePage::global(huge));
        if v.is_some() {
            self.stats.invalidations += 1;
        }
        v
    }

    /// Removes every private entry of `asid` (ASID retirement/recycling).
    /// Global entries survive. Returns how many entries were removed.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        let removed = self.inner.flush_asid(asid);
        if removed > 0 {
            self.stats.asid_flushes += 1;
            self.stats.flushed_entries += removed;
        }
        removed
    }

    /// Looks up `(asid, huge)` and on a miss installs a private entry
    /// supplied by `fill`. Returns whether it hit.
    pub fn access_or_fill(
        &mut self,
        asid: Asid,
        huge: VirtHugePage,
        fill: impl FnOnce() -> V,
    ) -> bool {
        if self.lookup(asid, huge).is_some() {
            return true;
        }
        self.insert(asid, huge, fill());
        false
    }

    /// Wide probe for a lane group that shares one ASID: resolves each
    /// lane's *private* key into `private_out[i]` and its *global* key
    /// into `global_out[i]` (slot id or [`NO_SLOT`]). Both key sets are
    /// probed group-wide so their probe-line misses overlap. Pure reads;
    /// the resolutions stay valid until the next membership mutation.
    /// Retire hit lanes in access order via [`AsidTlb::apply_hit`].
    ///
    /// # Panics
    /// Panics if the group is wider than [`LANES`] or the slices are
    /// unpaired.
    pub fn probe_wide(
        &self,
        asid: Asid,
        huges: &[VirtHugePage],
        private_out: &mut [u32],
        global_out: &mut [u32],
    ) {
        let n = huges.len();
        assert!(n <= LANES, "lane group wider than LANES");
        assert_eq!(private_out.len(), n, "unpaired wide-probe lanes");
        assert_eq!(global_out.len(), n, "unpaired wide-probe lanes");
        let mut pk = [TaggedHugePage::global(VirtHugePage(0)); LANES];
        let mut gk = pk;
        let mut ph = [0u64; LANES];
        let mut gh = [0u64; LANES];
        for i in 0..n {
            pk[i] = TaggedHugePage::new(asid, huges[i]);
            gk[i] = TaggedHugePage::global(huges[i]);
            ph[i] = fx_hash(&pk[i]);
            gh[i] = fx_hash(&gk[i]);
        }
        self.inner.probe_wide(&ph[..n], &pk[..n], private_out);
        self.inner.probe_wide(&gh[..n], &gk[..n], global_out);
    }

    /// Retires one hit lane resolved by [`AsidTlb::probe_wide`]: exactly
    /// the hit path of [`AsidTlb::lookup`], with the private entry
    /// shadowing the global one.
    pub fn apply_hit(&mut self, private_slot: u32, global_slot: u32) -> &V {
        if private_slot != NO_SLOT {
            self.stats.private_hits += 1;
            self.inner.apply_hit(private_slot)
        } else {
            debug_assert_ne!(global_slot, NO_SLOT, "apply_hit on a fully missed lane");
            self.stats.global_hits += 1;
            self.inner.apply_hit(global_slot)
        }
    }

    /// Prefetches the policy's metadata lines for a resolved slot.
    /// Semantically a no-op.
    #[inline]
    pub fn touch_slot(&self, slot: u32) {
        self.inner.touch_slot(slot);
    }

    /// Accesses every lane of `huges` in order on behalf of one tenant,
    /// filling misses with private entries from `fill`, and returns how
    /// many hit. Bit-for-bit equivalent to per-lane
    /// [`AsidTlb::access_or_fill`]: each [`LANES`]-wide group is resolved
    /// by [`AsidTlb::probe_wide`], the leading hit run retires through
    /// [`AsidTlb::apply_hit`], and the rest replay sequentially from the
    /// first full miss (an insert invalidates later resolutions).
    pub fn access_or_fill_wide(
        &mut self,
        asid: Asid,
        huges: &[VirtHugePage],
        fill: impl FnMut(VirtHugePage) -> V,
    ) -> u64 {
        self.access_or_fill_wide_prof(asid, huges, fill, NoProf)
    }

    /// [`AsidTlb::access_or_fill_wide`] with a [`ProfSink`]: identical
    /// state transitions and return value, plus a resolution breakdown —
    /// `rc_hit` for lanes retired in the wide-probe hit run, `rc_stale`
    /// for replayed lanes that still hit, `rc_cold` for replayed misses
    /// (so `rc_hit + rc_stale` equals this TLB's total hits and `rc_cold`
    /// its misses) — and the per-group fast-run occupancy. The unprofiled
    /// entry point delegates here with [`NoProf`], whose `enabled()`
    /// constant-folds the profiling branches away.
    pub fn access_or_fill_wide_prof<PS: ProfSink>(
        &mut self,
        asid: Asid,
        huges: &[VirtHugePage],
        mut fill: impl FnMut(VirtHugePage) -> V,
        mut prof: PS,
    ) -> u64 {
        let profiled = prof.enabled();
        let mut hits = 0u64;
        for chunk in huges.chunks(LANES) {
            let n = chunk.len();
            let mut ps = [NO_SLOT; LANES];
            let mut gs = [NO_SLOT; LANES];
            self.probe_wide(asid, chunk, &mut ps[..n], &mut gs[..n]);
            let mut run = 0usize;
            while run < n && (ps[run] != NO_SLOT || gs[run] != NO_SLOT) {
                run += 1;
            }
            for i in 0..run {
                self.touch_slot(if ps[i] != NO_SLOT { ps[i] } else { gs[i] });
            }
            for i in 0..run {
                self.apply_hit(ps[i], gs[i]);
            }
            hits += run as u64;
            if profiled {
                prof.lane_occupancy(run as u64);
                if run > 0 {
                    prof.rc_hit(run as u64);
                }
            }
            for &huge in &chunk[run..] {
                if self.access_or_fill(asid, huge, || fill(huge)) {
                    hits += 1;
                    if profiled {
                        prof.rc_stale(1);
                    }
                } else if profiled {
                    prof.rc_cold(1);
                }
            }
        }
        hits
    }

    /// Iterates resident (key, value) pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&TaggedHugePage, &V)> {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_entries_do_not_leak_across_tenants() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert(Asid(1), VirtHugePage(5), 15);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(5)), Some(&15));
        assert_eq!(t.lookup(Asid(2), VirtHugePage(5)), None);
        let s = t.stats();
        assert_eq!((s.private_hits, s.misses), (1, 1));
    }

    #[test]
    fn global_entries_match_every_tenant() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert_global(VirtHugePage(3), 33);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(3)), Some(&33));
        assert_eq!(t.lookup(Asid(200), VirtHugePage(3)), Some(&33));
        assert_eq!(t.stats().global_hits, 2);
    }

    #[test]
    fn private_shadows_global() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(8);
        t.insert_global(VirtHugePage(3), 33);
        t.insert(Asid(1), VirtHugePage(3), 11);
        assert_eq!(t.lookup(Asid(1), VirtHugePage(3)), Some(&11));
        assert_eq!(t.lookup(Asid(2), VirtHugePage(3)), Some(&33));
    }

    #[test]
    fn flush_asid_spares_globals_and_other_tenants() {
        let mut t: AsidTlb<u64> = AsidTlb::lru(16);
        for i in 0..4u64 {
            t.insert(Asid(1), VirtHugePage(i), i);
        }
        t.insert(Asid(2), VirtHugePage(0), 20);
        t.insert_global(VirtHugePage(9), 99);
        assert_eq!(t.flush_asid(Asid(1)), 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Asid(2), VirtHugePage(0)), Some(&20));
        assert_eq!(t.lookup(Asid(7), VirtHugePage(9)), Some(&99));
        let s = t.stats();
        assert_eq!((s.asid_flushes, s.flushed_entries), (1, 4));
    }

    #[test]
    fn capacity_is_shared_interference() {
        // Tenant 2's working set evicts tenant 1's entries: shared pressure.
        let mut t: AsidTlb<()> = AsidTlb::lru(4);
        for i in 0..4u64 {
            t.insert(Asid(1), VirtHugePage(i), ());
        }
        for i in 0..4u64 {
            t.access_or_fill(Asid(2), VirtHugePage(i), || ());
        }
        assert_eq!(t.stats().evictions, 4);
        for i in 0..4u64 {
            assert!(!t.contains(Asid(1), VirtHugePage(i)));
        }
    }

    #[test]
    fn single_tenant_behaves_like_untagged_lru() {
        // Driving only Asid(0) must reproduce the plain Tlb hit/miss
        // sequence exactly (same policy, same capacity).
        let mut tagged: AsidTlb<u64> = AsidTlb::lru(3);
        let mut plain: Tlb<u64> = Tlb::lru(3);
        let trace = [1u64, 2, 3, 1, 4, 2, 5, 1, 1, 3, 4, 5, 2];
        for &p in &trace {
            let a = tagged.access_or_fill(Asid::SINGLE, VirtHugePage(p), || p);
            let b = plain.access_or_fill(VirtHugePage(p), || p);
            assert_eq!(a, b, "diverged at page {p}");
        }
        assert_eq!(tagged.stats().hits(), plain.stats().hits);
        assert_eq!(tagged.stats().misses, plain.stats().misses);
    }

    #[test]
    fn profiled_wide_is_behaviour_identical_and_reconciles() {
        #[derive(Default)]
        struct Tally {
            rc_hit: u64,
            rc_stale: u64,
            rc_cold: u64,
            groups: u64,
            occupancy: u64,
        }
        impl ProfSink for Tally {
            fn rc_hit(&mut self, n: u64) {
                self.rc_hit += n;
            }
            fn rc_stale(&mut self, n: u64) {
                self.rc_stale += n;
            }
            fn rc_cold(&mut self, n: u64) {
                self.rc_cold += n;
            }
            fn lane_occupancy(&mut self, retired: u64) {
                self.groups += 1;
                self.occupancy += retired;
            }
        }
        let mut plain: AsidTlb<u64> = AsidTlb::lru(8);
        let mut prof: AsidTlb<u64> = AsidTlb::lru(8);
        plain.insert_global(VirtHugePage(0), 100);
        prof.insert_global(VirtHugePage(0), 100);
        let mut tally = Tally::default();
        let trace: Vec<VirtHugePage> = (0..400u64).map(|i| VirtHugePage(i * 13 % 19)).collect();
        let mut plain_hits = 0;
        let mut prof_hits = 0;
        for chunk in trace.chunks(23) {
            plain_hits += plain.access_or_fill_wide(Asid(1), chunk, |u| u.0);
            prof_hits += prof.access_or_fill_wide_prof(Asid(1), chunk, |u| u.0, &mut tally);
        }
        assert_eq!(plain_hits, prof_hits, "profiling changed behaviour");
        assert_eq!(plain.stats(), prof.stats());
        let s = prof.stats();
        assert_eq!(tally.rc_hit + tally.rc_stale, s.hits());
        assert_eq!(tally.rc_cold, s.misses);
        assert_eq!(tally.rc_hit, tally.occupancy, "fast run == occupancy");
        assert!(tally.groups > 0);
    }

    #[test]
    fn monomorphic_policy_builds() {
        use atp_replacement::Sieve;
        let mut t: AsidTlb<u64, Sieve> = AsidTlb::monomorphic(4, 0);
        assert!(!t.access_or_fill(Asid(1), VirtHugePage(1), || 1));
        assert!(t.access_or_fill(Asid(1), VirtHugePage(1), || 2));
        assert_eq!(t.capacity(), 4);
        assert!(!t.is_empty());
    }
}
