//! The observability seam of the translation pipeline.
//!
//! Every [`Pipeline`](crate::pipeline::Pipeline) is generic over a
//! [`SimObserver`] that sees each access, each TLB event, each residency
//! eviction, and each decoding miss as they happen. The default
//! [`NoopObserver`] has empty inlined methods, so an unobserved pipeline
//! compiles to exactly the un-instrumented access path — observation is
//! zero-cost unless you opt in.
//!
//! [`Recorder`] is the batteries-included observer: per-stage counters plus
//! reuse-distance and access-latency histograms, cheap enough to leave on
//! for full Figure-1 runs.

use crate::traits::AccessReport;
use atp_hash::FxHashMap;
use atp_types::VirtPage;

/// An event at the TLB stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbEvent {
    /// The probe found a translation (cost 0).
    Hit,
    /// The probe missed (cost ε).
    Miss,
    /// A fresh translation was installed after a miss.
    Fill,
    /// A translation was dropped because its unit lost residency
    /// (the single-core analogue of a shootdown).
    Shootdown,
}

/// A residency-stage eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionEvent {
    /// Raw key of the evicted replacement unit (page, huge page, or chunk
    /// id, at whatever granularity the manager pages at).
    pub unit: u64,
    /// Base pages the eviction dropped from RAM.
    pub pages: u64,
}

/// Observer of pipeline execution.
///
/// All methods default to no-ops; implement only what you need. Methods
/// take `&mut self` so observers can accumulate state without interior
/// mutability; the pipeline is generic over the concrete observer type, so
/// calls are statically dispatched and vanish entirely for
/// [`NoopObserver`].
pub trait SimObserver {
    /// One access was fully serviced with the given cost breakdown.
    fn on_access(&mut self, _v: VirtPage, _report: AccessReport) {}

    /// A TLB-stage event occurred.
    fn on_tlb_event(&mut self, _event: TlbEvent) {}

    /// The residency stage evicted a unit from RAM.
    fn on_eviction(&mut self, _event: EvictionEvent) {}

    /// The translate stage failed to decode a resident page (cost ε).
    fn on_decode_miss(&mut self, _v: VirtPage) {}

    /// The driver finished a batch of `len` accesses (streaming runners
    /// call this at every chunk boundary; single accesses never do).
    fn on_batch_boundary(&mut self, _len: usize) {}
}

/// The zero-cost default observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// Number of log₂ buckets in the [`Recorder`] histograms (covers reuse
/// distances up to 2⁶³).
pub const HIST_BUCKETS: usize = 64;

/// Per-stage counters captured by [`Recorder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// TLB stage: probe hits.
    pub tlb_hits: u64,
    /// TLB stage: probe misses.
    pub tlb_misses: u64,
    /// TLB stage: translations installed.
    pub tlb_fills: u64,
    /// TLB stage: residency-loss invalidations.
    pub tlb_shootdowns: u64,
    /// Translate stage: decoding misses.
    pub decode_misses: u64,
    /// Residency stage: accesses serviced without IO.
    pub residency_hits: u64,
    /// Residency stage: faults (accesses that did ≥ 1 IO).
    pub faults: u64,
    /// Residency stage: total IOs (≥ faults under amplification).
    pub ios: u64,
    /// Residency stage: evictions.
    pub evictions: u64,
    /// Residency stage: base pages dropped by evictions.
    pub evicted_pages: u64,
    /// Paging failures (Theorem 4's out-of-band path).
    pub paging_failures: u64,
    /// Batch boundaries seen.
    pub batches: u64,
}

/// Latency classes of a single access under the paper's cost model
/// (IO = 1, TLB/decode miss = ε, hit free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyClass {
    /// TLB hit, resident, decoded: cost 0.
    Free,
    /// ε-only: TLB and/or decode miss but no IO.
    Epsilon,
    /// Exactly one IO (plus any ε terms).
    OneIo,
    /// More than one IO — huge-page fault amplification.
    AmplifiedIo,
}

impl LatencyClass {
    /// Classifies a report.
    pub fn of(report: AccessReport) -> Self {
        match report.ios {
            0 if !report.tlb_miss && !report.decode_miss => LatencyClass::Free,
            0 => LatencyClass::Epsilon,
            1 => LatencyClass::OneIo,
            _ => LatencyClass::AmplifiedIo,
        }
    }

    const ALL: [LatencyClass; 4] = [
        LatencyClass::Free,
        LatencyClass::Epsilon,
        LatencyClass::OneIo,
        LatencyClass::AmplifiedIo,
    ];

    fn index(self) -> usize {
        match self {
            LatencyClass::Free => 0,
            LatencyClass::Epsilon => 1,
            LatencyClass::OneIo => 2,
            LatencyClass::AmplifiedIo => 3,
        }
    }
}

/// Recording observer: per-stage counters plus reuse and latency
/// histograms.
#[derive(Clone, Debug)]
pub struct Recorder {
    counters: StageCounters,
    /// log₂-bucketed reuse distances (accesses since the same base page
    /// was last touched); bucket `i` counts distances in `[2^i, 2^{i+1})`.
    reuse_hist: Vec<u64>,
    /// First-ever touches (no reuse distance).
    cold_accesses: u64,
    /// Per-access latency-class counts, indexed by [`LatencyClass`].
    latency_hist: [u64; 4],
    /// Whether `last_touch` is maintained (see
    /// [`Recorder::without_reuse_tracking`]).
    track_reuse: bool,
    last_touch: FxHashMap<u64, u64>,
    clock: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    fn empty(track_reuse: bool) -> Self {
        Recorder {
            counters: StageCounters::default(),
            reuse_hist: vec![0; HIST_BUCKETS],
            cold_accesses: 0,
            latency_hist: [0; 4],
            track_reuse,
            last_touch: FxHashMap::default(),
            clock: 0,
        }
    }

    /// Creates an empty recorder with reuse-distance tracking.
    pub fn new() -> Self {
        Recorder::empty(true)
    }

    /// Creates a recorder that skips the reuse-distance map entirely. The
    /// per-page `last_touch` map otherwise grows with the trace footprint
    /// (unbounded on large virtual spaces); without it the recorder is
    /// constant-size, which is what sweeps and multicore runs want — they
    /// only read the stage counters.
    pub fn without_reuse_tracking() -> Self {
        Recorder::empty(false)
    }

    /// Whether reuse distances are being tracked (and the reuse histogram
    /// and cold-access count are meaningful).
    pub fn tracks_reuse(&self) -> bool {
        self.track_reuse
    }

    /// Per-stage counters so far.
    pub fn counters(&self) -> StageCounters {
        self.counters
    }

    /// Reuse-distance histogram (log₂ buckets); `cold` first-touches are
    /// excluded.
    pub fn reuse_histogram(&self) -> &[u64] {
        &self.reuse_hist
    }

    /// Accesses with no prior touch of the same page.
    pub fn cold_accesses(&self) -> u64 {
        self.cold_accesses
    }

    /// Count per [`LatencyClass`].
    pub fn latency_class(&self, class: LatencyClass) -> u64 {
        self.latency_hist[class.index()]
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.clock
    }

    /// Renders a compact multi-line report of everything captured.
    pub fn summary(&self) -> String {
        let c = self.counters;
        let mut out = String::new();
        out.push_str(&format!(
            "tlb       hits={} misses={} fills={} shootdowns={}\n",
            c.tlb_hits, c.tlb_misses, c.tlb_fills, c.tlb_shootdowns
        ));
        out.push_str(&format!(
            "translate decode_misses={} paging_failures={}\n",
            c.decode_misses, c.paging_failures
        ));
        out.push_str(&format!(
            "residency hits={} faults={} ios={} evictions={} evicted_pages={}\n",
            c.residency_hits, c.faults, c.ios, c.evictions, c.evicted_pages
        ));
        out.push_str(&format!(
            "latency   free={} epsilon={} one_io={} amplified={}\n",
            self.latency_class(LatencyClass::Free),
            self.latency_class(LatencyClass::Epsilon),
            self.latency_class(LatencyClass::OneIo),
            self.latency_class(LatencyClass::AmplifiedIo),
        ));
        out.push_str(&format!(
            "reuse     cold={} {}\n",
            self.cold_accesses,
            render_hist(&self.reuse_hist)
        ));
        out.push_str(&format!("batches   {}", c.batches));
        out
    }
}

fn render_hist(hist: &[u64]) -> String {
    let last = hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let cells: Vec<String> = hist[..last]
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("2^{i}:{c}"))
        .collect();
    if cells.is_empty() {
        "(empty)".to_string()
    } else {
        cells.join(" ")
    }
}

impl SimObserver for Recorder {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.latency_hist[LatencyClass::of(report).index()] += 1;
        if report.ios == 0 {
            self.counters.residency_hits += 1;
        } else {
            self.counters.faults += 1;
            self.counters.ios += report.ios;
        }
        if report.paging_failure {
            self.counters.paging_failures += 1;
        }
        if self.track_reuse {
            match self.last_touch.insert(v.0, self.clock) {
                None => self.cold_accesses += 1,
                Some(prev) => {
                    let dist = self.clock - prev;
                    let bucket = (64 - dist.leading_zeros()).saturating_sub(1) as usize;
                    self.reuse_hist[bucket.min(HIST_BUCKETS - 1)] += 1;
                }
            }
        }
        self.clock += 1;
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        match event {
            TlbEvent::Hit => self.counters.tlb_hits += 1,
            TlbEvent::Miss => self.counters.tlb_misses += 1,
            TlbEvent::Fill => self.counters.tlb_fills += 1,
            TlbEvent::Shootdown => self.counters.tlb_shootdowns += 1,
        }
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.counters.evictions += 1;
        self.counters.evicted_pages += event.pages;
    }

    fn on_decode_miss(&mut self, _v: VirtPage) {
        self.counters.decode_misses += 1;
    }

    fn on_batch_boundary(&mut self, _len: usize) {
        self.counters.batches += 1;
    }
}

/// Sums per-class latency counts into the model's total cost (for checks
/// and reports; exact when no access mixes classes unexpectedly).
pub fn latency_classes() -> [LatencyClass; 4] {
    LatencyClass::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tlb_miss: bool, ios: u64, decode_miss: bool) -> AccessReport {
        AccessReport {
            tlb_miss,
            ios,
            decode_miss,
            paging_failure: false,
        }
    }

    #[test]
    fn latency_classes_partition_reports() {
        assert_eq!(
            LatencyClass::of(report(false, 0, false)),
            LatencyClass::Free
        );
        assert_eq!(
            LatencyClass::of(report(true, 0, false)),
            LatencyClass::Epsilon
        );
        assert_eq!(
            LatencyClass::of(report(false, 0, true)),
            LatencyClass::Epsilon
        );
        assert_eq!(
            LatencyClass::of(report(true, 1, false)),
            LatencyClass::OneIo
        );
        assert_eq!(
            LatencyClass::of(report(true, 8, false)),
            LatencyClass::AmplifiedIo
        );
    }

    #[test]
    fn recorder_counts_stages() {
        let mut r = Recorder::new();
        r.on_tlb_event(TlbEvent::Miss);
        r.on_tlb_event(TlbEvent::Fill);
        r.on_tlb_event(TlbEvent::Hit);
        r.on_eviction(EvictionEvent { unit: 9, pages: 8 });
        r.on_decode_miss(VirtPage(3));
        r.on_access(VirtPage(0), report(true, 1, false));
        r.on_access(VirtPage(0), report(false, 0, false));
        r.on_batch_boundary(2);
        let c = r.counters();
        assert_eq!(c.tlb_misses, 1);
        assert_eq!(c.tlb_fills, 1);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.evicted_pages, 8);
        assert_eq!(c.decode_misses, 1);
        assert_eq!(c.faults, 1);
        assert_eq!(c.residency_hits, 1);
        assert_eq!(c.batches, 1);
        assert_eq!(r.accesses(), 2);
    }

    #[test]
    fn reuse_histogram_buckets_by_log2() {
        let mut r = Recorder::new();
        // Touch page 5, then 3 other pages, then page 5 again: distance 4.
        for p in [5u64, 1, 2, 3, 5] {
            r.on_access(VirtPage(p), report(false, 0, false));
        }
        assert_eq!(r.cold_accesses(), 4);
        assert_eq!(r.reuse_histogram()[2], 1, "distance 4 lands in bucket 2^2");
    }

    #[test]
    fn without_reuse_tracking_skips_the_map() {
        let mut r = Recorder::without_reuse_tracking();
        assert!(!r.tracks_reuse());
        for p in [5u64, 1, 2, 3, 5, 5, 5] {
            r.on_access(VirtPage(p), report(false, 0, false));
        }
        assert_eq!(r.accesses(), 7, "clock still advances");
        assert_eq!(r.cold_accesses(), 0, "no first-touch tracking");
        assert!(r.reuse_histogram().iter().all(|&c| c == 0));
        assert_eq!(r.last_touch.len(), 0, "map never populated");
        assert_eq!(
            r.latency_class(LatencyClass::Free),
            7,
            "latency histogram still captured"
        );
    }

    #[test]
    fn default_recorder_tracks_reuse() {
        let mut r = Recorder::default();
        r.on_access(VirtPage(9), report(false, 0, false));
        r.on_access(VirtPage(9), report(false, 0, false));
        assert!(r.tracks_reuse());
        assert_eq!(r.cold_accesses(), 1);
        assert_eq!(r.reuse_histogram()[0], 1);
    }

    #[test]
    fn summary_renders() {
        let mut r = Recorder::new();
        r.on_access(VirtPage(0), report(true, 1, false));
        let s = r.summary();
        assert!(s.contains("tlb"));
        assert!(s.contains("residency"));
        assert!(s.contains("reuse"));
    }
}
