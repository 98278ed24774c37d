//! A transparent-huge-pages (THP) style manager — the fragmentation story.
//!
//! Section 1 lists three costs of physical huge pages; the third is
//! **fragmentation**: "Pages in a huge page are stored contiguously in RAM.
//! To make room for them, any (non-huge) pages in the way must be evicted…"
//! and §7 describes how Linux THP "attempts to reserve enough space for a
//! huge page and, in case of failure, falls back to allocating typical 4 kB
//! pages". This manager emulates that mechanism:
//!
//! * pages fault in individually (1 IO) into **arbitrary** free frames;
//! * when every base page of an aligned virtual run becomes resident, the
//!   manager attempts **promotion**: find `h` physically contiguous,
//!   aligned free frames, migrate the run there, and install a huge
//!   mapping (covered by a single TLB entry thereafter);
//! * if no contiguous run exists — fragmentation — the promotion *fails*
//!   and the run stays at base granularity (counted, like Ingens/HawkEye
//!   motivate);
//! * a promoted huge page is one replacement unit: evicting it drops all
//!   `h` pages, and re-faulting it costs `h` IOs — page-fault amplification
//!   returns through the back door.
//!
//! The `thp_fragmentation` example shows promotion failures rising as churn
//! scatters free frames.
//!
//! Fault frames are uniform over the free frames and promotion is first-fit
//! over aligned groups. The frame pool indexes its free bitset so both stay
//! cheap once memory is full: a uniform draw tries a few random frames and
//! then takes the r-th free frame by an O(log P) descent, and a promotion
//! attempt scans one bit per group.
//!
//! As a pipeline, THP is a RAM-first manager like the classic simulator:
//! an access first does all fault/promote/evict work, then performs the
//! single TLB touch-or-fill against whichever key (huge or base) currently
//! maps the page.

use crate::classic::{check_huge, check_slots};
use crate::observe::{EvictionEvent, SimObserver, TlbEvent};
use crate::pipeline::{Pipeline, Stages};
use crate::traits::AccessReport;
use atp_hash::{CounterRng, FxHashMap};
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind};
use atp_tlb::Tlb;
use atp_types::{HugePageGeometry, ParamError, PhysPage, VirtHugePage, VirtPage};

/// Configuration for [`ThpMm`].
#[derive(Clone, Copy, Debug)]
pub struct ThpConfig {
    /// Huge-page size `h` in base pages (power of two).
    pub huge_pages: u64,
    /// Physical memory in base pages (a multiple of `h`).
    pub phys_pages: u64,
    /// TLB entries.
    pub tlb_entries: u64,
    /// Replacement policy for the unified unit cache and the TLB.
    pub policy: PolicyKind,
    /// Seed (drives the fragmentation-inducing random frame choice).
    pub seed: u64,
}

impl ThpConfig {
    /// Checks the configuration before anything is allocated.
    ///
    /// # Errors
    /// `h` must be a power of two, `phys_pages` a multiple of it holding at
    /// least one huge page, and the frame count (the unit cache's capacity)
    /// and `tlb_entries` nonzero and within 32-bit slot ids.
    pub fn validate(&self) -> Result<(), ParamError> {
        check_huge(self.huge_pages, self.phys_pages)?;
        if !self.phys_pages.is_multiple_of(self.huge_pages) {
            return Err(ParamError::NotDivisible {
                dividend: "phys_pages",
                divisor: "h",
            });
        }
        check_slots("phys_pages", self.phys_pages)?;
        check_slots("tlb_entries", self.tlb_entries)
    }
}

/// THP bookkeeping counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThpStats {
    /// Successful promotions to huge mappings.
    pub promotions: u64,
    /// Promotions abandoned for lack of a contiguous run (fragmentation).
    pub promotion_failures: u64,
    /// Pages copied during promotion migrations.
    pub migrated_pages: u64,
    /// Huge units demoted by eviction.
    pub huge_evictions: u64,
}

/// Physical frame pool: a free-frame bitset indexed for uniform draws and
/// first-fit promotion.
///
/// * `words` holds one bit per frame, set while the frame is free; bits
///   past the last frame stay clear.
/// * `counts` is a Fenwick tree of free-frame counts over leaves of
///   [`LEAF_WORDS`] words, so the r-th free frame is an O(log P) descent
///   plus a scan of one cache line.
/// * `full` holds one bit per aligned group of `h` frames, set while the
///   whole group is free; first-fit promotion takes its lowest set bit.
///   Frames past the last whole group belong to no group.
#[derive(Clone, Debug)]
struct FramePool {
    words: Vec<u64>,
    /// 1-based Fenwick tree over a power-of-two number of leaves (the
    /// padding leaves count 0): `counts[i]` sums leaves
    /// `(i - lowbit(i), i]`; `counts[0]` is unused. 32 bits suffice because
    /// [`ThpConfig::validate`] keeps P below `u32::MAX`.
    counts: Vec<u32>,
    full: Vec<u64>,
    frames: u64,
    /// `log2(h)`.
    h_log: u32,
    groups: u64,
    free_count: u64,
    rng: CounterRng,
}

/// Bitset words per Fenwick leaf: one 64-byte cache line, which keeps the
/// tree 512× smaller than the pool.
const LEAF_WORDS: usize = 8;

/// Rejection probes a draw tries before the indexed descent. While half the
/// pool or more is free, 15 in 16 draws end in a probe, which is cheaper
/// than the descent; a nearly full pool pays four missed probes.
const PROBES: usize = 4;

/// Bit index of the `k`-th (0-based) set bit of `w`; `k < w.count_ones()`.
/// Branch-free: on random frames every comparison is a coin flip.
fn select(mut w: u64, mut k: u32) -> u64 {
    let mut pos = 0;
    for shift in [32, 16, 8, 4, 2, 1] {
        let low = (w & ((1u64 << shift) - 1)).count_ones();
        let go = u32::from(k >= low);
        k -= low * go;
        w >>= shift * go;
        pos += u64::from(shift * go);
    }
    pos
}

/// The Fenwick tree of `words`' free counts (see [`FramePool::counts`]).
fn fenwick(words: &[u64]) -> Vec<u32> {
    let leaves = words.len().div_ceil(LEAF_WORDS).next_power_of_two();
    let mut counts = vec![0u32; leaves + 1];
    for (w, word) in words.iter().enumerate() {
        fenwick_add(&mut counts, w / LEAF_WORDS, word.count_ones() as i32);
    }
    counts
}

fn fenwick_add(counts: &mut [u32], leaf: usize, delta: i32) {
    let mut i = leaf + 1;
    while i < counts.len() {
        counts[i] = counts[i].wrapping_add_signed(delta);
        i += i & i.wrapping_neg();
    }
}

/// Bits `[lo, hi)` of a word, `lo < hi <= 64`.
fn bit_range(lo: u64, hi: u64) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

impl FramePool {
    /// A pool of `frames` free frames grouped by `h` (a power of two).
    fn new(frames: u64, h: u64, seed: u64) -> Self {
        let n = frames.div_ceil(64) as usize;
        let mut words = vec![u64::MAX; n];
        if let Some(last) = words.last_mut() {
            *last = bit_range(0, frames - (n as u64 - 1) * 64);
        }
        let groups = frames / h;
        let mut full = vec![0u64; groups.div_ceil(64) as usize];
        for g in 0..groups {
            full[(g / 64) as usize] |= 1 << (g % 64);
        }
        Self {
            counts: fenwick(&words),
            words,
            full,
            frames,
            h_log: h.trailing_zeros(),
            groups,
            free_count: frames,
            rng: CounterRng::new(seed, 0x7F9A),
        }
    }

    fn h(&self) -> u64 {
        1 << self.h_log
    }

    fn is_free(&self, f: u64) -> bool {
        self.words[(f / 64) as usize] >> (f % 64) & 1 == 1
    }

    /// Takes an arbitrary free frame, uniformly at random among the free
    /// ones (models long-run allocator scatter; first-fit would
    /// artificially stay compact). A probe of a uniform frame that is free
    /// is a uniform free frame, and so is the r-th free frame for a uniform
    /// r: the mix of the two is exactly uniform.
    fn take_any(&mut self) -> Option<PhysPage> {
        if self.free_count == 0 {
            return None;
        }
        for _ in 0..PROBES {
            let f = self.rng.next_below(self.frames);
            if self.is_free(f) {
                self.mark(f, 1, false);
                return Some(PhysPage(f));
            }
        }
        let r = self.rng.next_below(self.free_count);
        let f = self.nth_free(r);
        self.mark(f, 1, false);
        Some(PhysPage(f))
    }

    /// The `r`-th (0-based) free frame; `r < free_count`.
    fn nth_free(&self, r: u64) -> u64 {
        let mut r = r as u32;
        // Branch-free Fenwick descent (each comparison is a coin flip on
        // random frames) to the leaf holding the r-th free frame; the
        // power-of-two size keeps every probe in bounds.
        let mut leaf = 0;
        let mut step = (self.counts.len() - 1) / 2;
        while step > 0 {
            let c = self.counts[leaf + step];
            let go = u32::from(c <= r);
            r -= c * go;
            leaf += step * go as usize;
            step /= 2;
        }
        let mut w = leaf * LEAF_WORDS;
        while r >= self.words[w].count_ones() {
            r -= self.words[w].count_ones();
            w += 1;
        }
        debug_assert!(w < (leaf + 1) * LEAF_WORDS, "descent missed the leaf");
        w as u64 * 64 + select(self.words[w], r)
    }

    /// Takes the lowest aligned group of `h` free frames, if one exists.
    fn take_contiguous(&mut self) -> Option<PhysPage> {
        let (i, w) = self.full.iter().enumerate().find(|(_, w)| **w != 0)?;
        let base = (i as u64 * 64 + u64::from(w.trailing_zeros())) << self.h_log;
        self.mark(base, self.h(), false);
        Some(PhysPage(base))
    }

    fn release(&mut self, frame: PhysPage, count: u64) {
        self.mark(frame.0, count, true);
    }

    /// Sets frames `[first, first + count)` free or taken, keeping the
    /// leaf counts and the full-group bits in step.
    fn mark(&mut self, first: u64, count: u64, free: bool) {
        let end = first + count;
        let mut lo = first;
        while lo < end {
            let w = (lo / 64) as usize;
            let hi = end.min((w as u64 + 1) * 64);
            let mask = bit_range(lo % 64, hi - w as u64 * 64);
            let old = self.words[w];
            debug_assert_eq!(
                old & mask,
                if free { 0 } else { mask },
                "frames {lo}..{hi} double-{}",
                if free { "freed" } else { "taken" }
            );
            let new = if free { old | mask } else { old & !mask };
            self.words[w] = new;
            let delta = new.count_ones() as i32 - old.count_ones() as i32;
            fenwick_add(&mut self.counts, w / LEAF_WORDS, delta);
            lo = hi;
        }
        if free {
            self.free_count += count;
        } else {
            self.free_count -= count;
        }
        let groups_end = (((end - 1) >> self.h_log) + 1).min(self.groups);
        for g in first >> self.h_log..groups_end {
            let bit = 1u64 << (g % 64);
            let set = free && self.group_is_free(g);
            let slot = &mut self.full[(g / 64) as usize];
            if set {
                *slot |= bit;
            } else {
                *slot &= !bit;
            }
        }
    }

    /// Whether every frame of group `g` is free.
    fn group_is_free(&self, g: u64) -> bool {
        let (h, base) = (self.h(), g << self.h_log);
        let w = (base / 64) as usize;
        if h >= 64 {
            self.words[w..w + (h / 64) as usize]
                .iter()
                .all(|&x| x == u64::MAX)
        } else {
            let mask = bit_range(base % 64, base % 64 + h);
            self.words[w] & mask == mask
        }
    }

    /// Largest aligned contiguous free run, in frames (for instrumentation).
    fn max_contiguous(&self) -> u64 {
        let (mut best, mut run) = (0, 0);
        for f in 0..self.groups << self.h_log {
            if f % self.h() == 0 {
                run = 0;
            }
            run = if self.is_free(f) { run + 1 } else { 0 };
            best = best.max(run);
        }
        best
    }
}

#[cfg(test)]
impl FramePool {
    /// Recomputes the leaf counts, the free count and the full-group bits
    /// from the bitset and asserts the indexes agree with it.
    fn check(&self) {
        assert_eq!(fenwick(&self.words), self.counts, "leaf counts drifted");
        let free: u64 = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
        assert_eq!(free, self.free_count, "free count drifted");
        for g in 0..self.full.len() as u64 * 64 {
            let bit = self.full[(g / 64) as usize] >> (g % 64) & 1 == 1;
            let want = g < self.groups && self.group_is_free(g);
            assert_eq!(bit, want, "full-group bit {g} drifted");
        }
    }
}

// Unit keys: a huge unit is tagged with the top bit.
const HUGE_TAG: u64 = 1 << 63;

/// Stage state of the THP-style manager.
#[derive(Debug)]
pub struct ThpStages {
    geom: HugePageGeometry,
    pool: FramePool,
    /// Base-page mappings (pages in non-promoted runs).
    pub(crate) base_frames: FxHashMap<VirtPage, PhysPage>,
    /// Promoted runs: huge page → base frame of its contiguous run.
    pub(crate) huge_frames: FxHashMap<VirtHugePage, PhysPage>,
    /// Resident base-page count per (non-promoted) huge page.
    run_population: FxHashMap<VirtHugePage, u32>,
    units: CacheSim<u64, AnyPolicy>,
    tlb: Tlb<(), AnyPolicy>,
    stats: ThpStats,
    h: u64,
}

impl ThpStages {
    /// Builds the stages.
    ///
    /// # Panics
    /// Panics if [`ThpConfig::validate`] rejects `cfg`.
    pub fn new(cfg: ThpConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid THP config: {e}");
        }
        // atp-lint: allow(unwrap-policy, reason = "validate() above checked that h is a power of two")
        let geom = HugePageGeometry::new(cfg.huge_pages).expect("h power of two");
        let cap = cfg.phys_pages as usize; // unit cache bounded by frames
        Self {
            geom,
            pool: FramePool::new(cfg.phys_pages, cfg.huge_pages, cfg.seed),
            base_frames: FxHashMap::default(),
            huge_frames: FxHashMap::default(),
            run_population: FxHashMap::default(),
            units: CacheSim::new(cap, AnyPolicy::new(cfg.policy, cap, cfg.seed ^ 0x7)),
            tlb: Tlb::new(cfg.tlb_entries, cfg.policy, cfg.seed ^ 0x9),
            stats: ThpStats::default(),
            h: cfg.huge_pages,
        }
    }

    /// THP counters.
    pub fn thp_stats(&self) -> ThpStats {
        self.stats
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.pool.free_count
    }

    /// Largest aligned contiguous free run (fragmentation gauge).
    pub fn max_contiguous_free(&self) -> u64 {
        self.pool.max_contiguous()
    }

    /// Physical frame of `v`, if resident.
    pub fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        let u = self.geom.huge_of(v);
        if let Some(&base) = self.huge_frames.get(&u) {
            return Some(PhysPage(base.0 + self.geom.index_within(v)));
        }
        self.base_frames.get(&v).copied()
    }

    fn evict_unit<O: SimObserver>(&mut self, unit: u64, obs: &mut O) {
        if unit & HUGE_TAG != 0 {
            let u = VirtHugePage(unit & !HUGE_TAG);
            // atp-lint: allow(unwrap-policy, reason = "invariant: promotion only rewrites units recorded in huge_frames")
            let base = self.huge_frames.remove(&u).expect("promoted unit mapped");
            self.pool.release(base, self.h);
            if self.tlb.invalidate(u).is_some() {
                obs.on_tlb_event(TlbEvent::Shootdown);
            }
            self.stats.huge_evictions += 1;
            obs.on_eviction(EvictionEvent {
                unit,
                pages: self.h,
            });
        } else {
            let v = VirtPage(unit);
            // atp-lint: allow(unwrap-policy, reason = "invariant: demotion only rewrites units recorded in base_frames")
            let frame = self.base_frames.remove(&v).expect("base unit mapped");
            self.pool.release(frame, 1);
            let u = self.geom.huge_of(v);
            if let Some(pop) = self.run_population.get_mut(&u) {
                *pop -= 1;
                if *pop == 0 {
                    self.run_population.remove(&u);
                }
            }
            // Base-page TLB entries are keyed by the page id.
            if self.tlb.invalidate(VirtHugePage(v.0)).is_some() {
                obs.on_tlb_event(TlbEvent::Shootdown);
            }
            obs.on_eviction(EvictionEvent { unit, pages: 1 });
        }
    }

    /// Brings in base page `v` (must be absent); evicts units (via the
    /// replacement policy) until a frame is free. The unit cache's entry
    /// capacity equals the frame count, so frames — not entries — are the
    /// binding constraint.
    fn fault_base<O: SimObserver>(&mut self, v: VirtPage, obs: &mut O) -> u64 {
        let ios = 1;
        let frame = loop {
            if let Some(frame) = self.pool.take_any() {
                break frame;
            }
            // atp-lint: allow(unwrap-policy, reason = "invariant: eviction is only reached while a resident unit exists")
            let victim = self.units.evict_one().expect("resident unit exists");
            self.evict_unit(victim, obs);
        };
        if let Some(victim) = self.units.insert_cold(v.0) {
            // Entry capacity reached before frames ran out (possible when
            // huge units freed many frames): honor the policy's choice.
            self.evict_unit(victim, obs);
        }
        self.base_frames.insert(v, frame);
        *self.run_population.entry(self.geom.huge_of(v)).or_insert(0) += 1;

        // Promotion check: full run resident?
        let u = self.geom.huge_of(v);
        if self.run_population.get(&u).copied().unwrap_or(0) as u64 == self.h {
            self.try_promote(u, obs);
        }
        ios
    }

    /// Attempts to promote run `u`. Migration copies are in-RAM and free in
    /// the cost model; they are tracked in [`ThpStats`].
    fn try_promote<O: SimObserver>(&mut self, u: VirtHugePage, obs: &mut O) {
        match self.pool.take_contiguous() {
            None => {
                self.stats.promotion_failures += 1;
            }
            Some(base) => {
                self.stats.promotions += 1;
                // Migrate: free old scattered frames, drop base units.
                for v in self.geom.constituents(u) {
                    // atp-lint: allow(unwrap-policy, reason = "invariant: every page of a resident run has a base frame")
                    let old = self.base_frames.remove(&v).expect("run resident");
                    self.pool.release(old, 1);
                    self.units.remove(&v.0);
                    if self.tlb.invalidate(VirtHugePage(v.0)).is_some() {
                        obs.on_tlb_event(TlbEvent::Shootdown);
                    }
                    self.stats.migrated_pages += 1;
                }
                self.run_population.remove(&u);
                self.huge_frames.insert(u, base);
                if let Some(victim) = self.units.insert_cold(HUGE_TAG | u.0) {
                    self.evict_unit(victim, obs);
                }
            }
        }
    }
}

impl Stages for ThpStages {
    // RAM first: a fault may promote the run, changing which TLB key
    // covers the page, so the TLB is probed after residency.
    fn access<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> AccessReport {
        let mut report = AccessReport::default();
        let u = self.geom.huge_of(addr);
        if self.huge_frames.contains_key(&u) {
            // Promoted: one unit for the whole run.
            let hit = matches!(self.units.access(HUGE_TAG | u.0), AccessResult::Hit);
            debug_assert!(hit, "promoted unit must be resident");
        } else if self.base_frames.contains_key(&addr) {
            let r = self.units.access(addr.0);
            debug_assert!(r.is_hit());
        } else {
            report.ios = self.fault_base(addr, obs);
        }

        // Pick the TLB key (huge run vs. single page) from the
        // post-residency state.
        let key = if self.huge_frames.contains_key(&u) {
            u
        } else {
            VirtHugePage(addr.0)
        };
        report.tlb_miss = !self.tlb.access_or_fill(key, || ());
        if report.tlb_miss {
            obs.on_tlb_event(TlbEvent::Fill);
        }
        report
    }

    fn name(&self) -> String {
        format!("thp(h={})", self.h)
    }

    fn prepare_batch(&self, addrs: &[VirtPage]) {
        for &a in addrs {
            // Pick the keys `access` will probe from the *current*
            // promotion state (read-only; a fault in the window may still
            // flip it — prefetch is best-effort, correctness lives in
            // `access`).
            let u = self.geom.huge_of(a);
            if self.huge_frames.contains_key(&u) {
                self.units.touch(&(HUGE_TAG | u.0));
                self.tlb.touch(u);
            } else {
                self.units.touch(&a.0);
                self.tlb.touch(VirtHugePage(a.0));
            }
        }
    }
}

/// The THP-style memory manager.
pub type ThpMm<O = crate::observe::NoopObserver> = Pipeline<ThpStages, O>;

impl ThpMm {
    /// Builds the manager (unobserved).
    ///
    /// # Panics
    /// Panics if `huge_pages` is not a power of two or doesn't divide
    /// `phys_pages`.
    pub fn new(cfg: ThpConfig) -> Self {
        Pipeline::from_stages(ThpStages::new(cfg))
    }
}

impl<O: SimObserver> ThpMm<O> {
    /// THP counters.
    pub fn thp_stats(&self) -> ThpStats {
        self.stages().thp_stats()
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.stages().free_frames()
    }

    /// Largest aligned contiguous free run (fragmentation gauge).
    pub fn max_contiguous_free(&self) -> u64 {
        self.stages().max_contiguous_free()
    }

    /// Physical frame of `v`, if resident.
    pub fn frame_of(&self, v: VirtPage) -> Option<PhysPage> {
        self.stages().frame_of(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::MemoryManager;

    fn mm(h: u64, phys: u64) -> ThpMm {
        ThpMm::new(ThpConfig {
            huge_pages: h,
            phys_pages: phys,
            tlb_entries: 16,
            policy: PolicyKind::Lru,
            seed: 1,
        })
    }

    #[test]
    fn full_run_promotes_in_empty_memory() {
        let mut m = mm(8, 64);
        for v in 0..8u64 {
            m.access(VirtPage(v));
        }
        let s = m.thp_stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.migrated_pages, 8);
        assert_eq!(s.promotion_failures, 0);
        // Frames are physically contiguous and aligned now.
        let base = m.frame_of(VirtPage(0)).unwrap();
        assert_eq!(base.0 % 8, 0);
        for v in 0..8u64 {
            assert_eq!(m.frame_of(VirtPage(v)), Some(PhysPage(base.0 + v)));
        }
    }

    #[test]
    fn promoted_run_uses_one_tlb_entry() {
        let mut m = mm(8, 64);
        for v in 0..8u64 {
            m.access(VirtPage(v));
        }
        m.reset_costs();
        for v in 0..8u64 {
            m.access(VirtPage(v));
        }
        // After promotion the whole run costs at most one TLB miss.
        assert!(m.costs().tlb_misses <= 1);
        assert_eq!(m.costs().ios, 0);
    }

    #[test]
    fn fragmentation_blocks_promotion() {
        // Tiny memory: 2 huge groups of 8. Scatter single residents across
        // both groups so no aligned run of 8 is ever free, then complete a
        // run and watch promotion fail.
        let mut m = mm(8, 16);
        // Touch one page from many different runs to scatter frames.
        for r in 0..8u64 {
            m.access(VirtPage(100 * 8 + r * 8)); // distinct runs, 1 page each
        }
        // Now complete one full run.
        for v in 0..8u64 {
            m.access(VirtPage(v));
        }
        let s = m.thp_stats();
        assert!(
            s.promotion_failures > 0,
            "scattered free space must defeat promotion: {s:?}"
        );
    }

    #[test]
    fn huge_eviction_frees_all_frames_and_amplifies_refault() {
        // 16 groups of 8: the first run's 8 random frames cannot block all
        // groups, so promotion is certain.
        let mut m = mm(8, 128);
        for v in 0..8u64 {
            m.access(VirtPage(v)); // promote run 0
        }
        assert_eq!(m.thp_stats().promotions, 1);
        // Flood with base pages from distinct runs (never completing one):
        // LRU pressure must eventually evict the stale huge unit whole.
        for r in 0..200u64 {
            m.access(VirtPage(1000 * 8 + r * 8));
        }
        let s = m.thp_stats();
        assert!(
            s.huge_evictions >= 1,
            "huge unit should be evicted whole: {s:?}"
        );
        // Re-access the promoted run: it is gone; pages fault individually.
        m.reset_costs();
        m.access(VirtPage(0));
        assert!(m.costs().ios >= 1);
    }

    #[test]
    fn frame_accounting_is_conserved() {
        let mut m = mm(4, 32);
        use atp_hash::CounterRng;
        let mut rng = CounterRng::new(5, 0);
        for _ in 0..2000 {
            m.access(VirtPage(rng.next_below(256)));
            let resident_base = m.stages().base_frames.len() as u64;
            let resident_huge = m.stages().huge_frames.len() as u64 * 4;
            assert_eq!(
                resident_base + resident_huge + m.free_frames(),
                32,
                "frames leaked or double-counted"
            );
            m.stages().pool.check();
        }
    }

    #[test]
    fn injective_frames_under_churn() {
        let mut m = mm(4, 32);
        use atp_hash::CounterRng;
        use std::collections::HashSet;
        let mut rng = CounterRng::new(7, 0);
        for _ in 0..1500 {
            m.access(VirtPage(rng.next_below(64)));
            let mut seen = HashSet::new();
            for (&v, &f) in m.stages().base_frames.iter() {
                assert!(seen.insert(f.0), "frame shared at {v:?}");
            }
            for (&u, &base) in m.stages().huge_frames.iter() {
                for i in 0..4u64 {
                    assert!(seen.insert(base.0 + i), "huge frame shared at {u:?}");
                }
            }
            m.stages().pool.check();
        }
    }

    #[test]
    fn max_contiguous_gauge_moves() {
        let mut m = mm(8, 32);
        assert_eq!(m.max_contiguous_free(), 8);
        m.access(VirtPage(0)); // one random frame now taken
        assert!(m.max_contiguous_free() <= 8);
    }

    /// The pool without indexes: a flag per frame, the same probes, the
    /// r-th free frame by linear scan, and a linear first-fit group scan.
    struct NaivePool {
        free: Vec<bool>,
        free_count: u64,
        h: u64,
        rng: CounterRng,
    }

    impl NaivePool {
        fn new(frames: u64, h: u64, seed: u64) -> Self {
            Self {
                free: vec![true; frames as usize],
                free_count: frames,
                h,
                rng: CounterRng::new(seed, 0x7F9A),
            }
        }

        fn nth_free(&self, r: u64) -> Option<usize> {
            (0..self.free.len())
                .filter(|&f| self.free[f])
                .nth(r as usize)
        }

        fn take_any(&mut self) -> Option<PhysPage> {
            if self.free_count == 0 {
                return None;
            }
            let mut probed = None;
            for _ in 0..PROBES {
                let f = self.rng.next_below(self.free.len() as u64) as usize;
                if self.free[f] {
                    probed = Some(f);
                    break;
                }
            }
            let f = match probed {
                Some(f) => f,
                None => {
                    let r = self.rng.next_below(self.free_count);
                    self.nth_free(r)?
                }
            };
            self.free[f] = false;
            self.free_count -= 1;
            Some(PhysPage(f as u64))
        }

        fn take_contiguous(&mut self) -> Option<PhysPage> {
            let h = self.h as usize;
            let g = (0..self.free.len() / h)
                .find(|g| self.free[g * h..(g + 1) * h].iter().all(|&b| b))?;
            self.free[g * h..(g + 1) * h].fill(false);
            self.free_count -= self.h;
            Some(PhysPage((g * h) as u64))
        }

        fn release(&mut self, frame: PhysPage, count: u64) {
            let f = frame.0 as usize;
            assert!(self.free[f..f + count as usize].iter().all(|&b| !b));
            self.free[f..f + count as usize].fill(true);
            self.free_count += count;
        }
    }

    #[test]
    fn pool_matches_the_naive_reference() {
        // P not a multiple of 64 (or of h) included: trailing frames that
        // belong to no group, and a partial last word.
        for (h, frames) in [
            (4, 1002),
            (8, 200),
            (8, 4096),
            (64, 640),
            (64, 1000),
            (128, 1000),
            (128, 2048),
        ] {
            let mut pool = FramePool::new(frames, h, 3);
            let mut naive = NaivePool::new(frames, h, 3);
            let mut ops = CounterRng::new(h ^ frames, 1);
            let mut held: Vec<(PhysPage, u64)> = Vec::new();
            for step in 0..4000 {
                // Fill-biased early, drain-biased late: the pool crosses
                // empty, nearly full and full.
                let fill = if step < 2000 { 0.7 } else { 0.4 };
                if held.is_empty() || ops.next_bool(fill) {
                    if ops.next_bool(0.15) {
                        let got = pool.take_contiguous();
                        assert_eq!(got, naive.take_contiguous(), "h={h} P={frames} step {step}");
                        held.extend(got.map(|f| (f, h)));
                    } else {
                        let got = pool.take_any();
                        assert_eq!(got, naive.take_any(), "h={h} P={frames} step {step}");
                        held.extend(got.map(|f| (f, 1)));
                    }
                } else {
                    let (f, n) = held.swap_remove(ops.next_below(held.len() as u64) as usize);
                    pool.release(f, n);
                    naive.release(f, n);
                }
                assert_eq!(pool.free_count, naive.free_count);
                if pool.free_count > 0 {
                    let r = ops.next_below(pool.free_count);
                    assert_eq!(Some(pool.nth_free(r) as usize), naive.nth_free(r));
                }
                pool.check();
            }
        }
    }

    #[test]
    fn take_any_is_uniform_over_a_nearly_full_pool() {
        // P = 1024 with 16 scattered free frames: chi-square over 16k draws
        // (15 degrees of freedom; 37.7 is the 0.1% critical value).
        let mut pool = FramePool::new(1024, 8, 11);
        while pool.take_any().is_some() {}
        let free: Vec<u64> = (0..16).map(|i| 64 * i + (7 * i) % 64).collect();
        for &f in &free {
            pool.release(PhysPage(f), 1);
        }
        let draws = 16_000;
        let mut hits = [0u64; 16];
        for _ in 0..draws {
            let f = pool.take_any().unwrap();
            hits[free.iter().position(|&x| x == f.0).unwrap()] += 1;
            pool.release(f, 1);
        }
        let expect = draws as f64 / 16.0;
        let chi2: f64 = hits
            .iter()
            .map(|&o| (o as f64 - expect).powi(2) / expect)
            .sum();
        assert!(chi2 < 37.7, "chi2 = {chi2:.1}, hits {hits:?}");
        pool.check();
    }

    #[test]
    fn configs_are_validated() {
        let ok = ThpConfig {
            huge_pages: 8,
            phys_pages: 64,
            tlb_entries: 16,
            policy: PolicyKind::Lru,
            seed: 1,
        };
        assert_eq!(ok.validate(), Ok(()));
        for (h, phys, tlb) in [
            (0, 64, 16),
            (3, 64, 16),
            (64, 32, 16),
            (8, 60, 16),
            (8, 64, 0),
            (8, 1 << 40, 16),
        ] {
            let cfg = ThpConfig {
                huge_pages: h,
                phys_pages: phys,
                tlb_entries: tlb,
                ..ok
            };
            assert!(cfg.validate().is_err(), "{cfg:?} accepted");
        }
    }
}
