//! The traced run: a separate invocation over the same trace that times
//! each layer's public API from outside, so its cost never touches the
//! end-to-end numbers.
//!
//! * Whole managers run twice: untraced through `run_batched`, and traced
//!   one `MemoryManager::access` call at a time (the unbatched entry
//!   point), each call timed and classed by its `AccessReport`. The two
//!   runs' `Costs` must be equal.
//! * Z's layers are replayed on their own, each over the stream the layer
//!   above it produced: `Tlb::lookup`/`insert` over the huge-page stream,
//!   `CacheSim::access` at capacity m, and, in Z's own order,
//!   `DecouplingScheme::ram_evict`/`ram_insert` over the recorded (evicted,
//!   missed) stream with `psi(u)` on each TLB miss and `Tlb::update` for
//!   each insert and evict. The replay must reproduce Z's own counts.
//!
//! Spans (name, start, end, parent, run id, calls, misses) are kept in
//! memory around each call into a layer — per chunk of calls where calls
//! are too cheap to time one by one — and written out when the run ends.

use crate::e2e::{check_run, timed_run};
use crate::report::{median, quantile, Report};
use crate::spec::{
    export_observed, Built, Mgr, Workload, MANAGER_SEED, TLB_ENTRIES, TLB_VALUE_BITS,
};
use atp_core::{DecouplingScheme, IcebergAlloc, SlotCode, TlbValue};
use atp_memmgmt::{AccessReport, MemoryManager};
use atp_replacement::{AccessResult, AnyPolicy, CacheSim, PolicyKind};
use atp_tlb::Tlb;
use atp_types::{Costs, HugePageGeometry, VirtPage};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Calls per span in the chunk-timed replays.
const CHUNK: usize = 4096;

/// The layers, as span-name prefixes (the crate names).
const LAYERS: [&str; 8] = [
    "workloads",
    "sim",
    "memmgmt",
    "tlb",
    "replacement",
    "core",
    "obs",
    "bench",
];

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    calls: u64,
    misses: u64,
}

/// In-memory span recorder. Spans nest through an open-span stack, so a
/// span's parent is the innermost span open when it started.
#[derive(Debug)]
struct Spans {
    run: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new(run: String) -> Self {
        Spans {
            run,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 0,
            misses: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (the innermost open span) with its call and miss counts;
    /// returns its duration in ns.
    fn close(&mut self, id: usize, calls: u64, misses: u64) -> u64 {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.calls = calls;
        s.misses = misses;
        end - s.start_ns
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    fn to_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"calls\": {}, \"misses\": {}}}{sep}",
                s.name, self.run, s.start_ns, s.end_ns, s.calls, s.misses
            );
        }
        out.push(']');
        out
    }
}

/// Median cost in ns of reading the clock once, as the timed loops do.
fn timer_ns() -> u64 {
    let mut d: Vec<u32> = Vec::with_capacity(100_001);
    let mut prev = Instant::now();
    for _ in 0..100_000 {
        let now = Instant::now();
        d.push((now - prev).as_nanos() as u32);
        prev = now;
    }
    quantile(&mut d, 0.5) as u64
}

/// A manager that does nothing, so `run_batched` against it times the
/// runner alone.
struct NoopMm(Costs);

impl MemoryManager for NoopMm {
    fn access(&mut self, _v: VirtPage) -> AccessReport {
        self.0.accesses += 1;
        self.0.tlb_hits += 1;
        AccessReport::default()
    }
    fn costs(&self) -> Costs {
        self.0
    }
    fn reset_costs(&mut self) {
        self.0 = Costs::default();
    }
    fn name(&self) -> String {
        "noop".into()
    }
}

/// What one traced manager run returns: warmup and measured costs, the
/// loop's wall time in seconds, and per-call times (ns, clock cost removed)
/// in two sample classes.
type Traced = (Costs, Costs, f64, [Vec<u32>; 2]);

/// Drives `mgr` one `access` call at a time with `run_batched`'s protocol
/// (warmup, counter reset, measurement, a batch boundary every
/// `DEFAULT_BATCH` pages), timing each call. `class` maps a report to
/// sample class 0 or 1, or `None` to keep no sample.
fn per_access(
    sp: &mut Spans,
    name: &str,
    mgr: &mut dyn MemoryManager,
    trace: &[VirtPage],
    (w, n): (u64, u64),
    timer: u64,
    class: impl Fn(&AccessReport) -> Option<usize>,
) -> Traced {
    let mut samples: [Vec<u32>; 2] = Default::default();
    let t = Instant::now();
    let mut warm = Costs::default();
    for (phase, part) in [&trace[..w as usize], &trace[w as usize..(w + n) as usize]]
        .into_iter()
        .enumerate()
    {
        for chunk in part.chunks(atp_sim::DEFAULT_BATCH) {
            let id = sp.open(format!("memmgmt.{name}.access"));
            let mut misses = 0;
            let mut prev = Instant::now();
            for &v in chunk {
                let r = mgr.access(v);
                let now = Instant::now();
                let ns = ((now - prev).as_nanos() as u64).saturating_sub(timer);
                prev = now;
                if r != AccessReport::default() {
                    misses += 1;
                }
                if let Some(c) = class(&r) {
                    samples[c].push(ns.min(u64::from(u32::MAX)) as u32);
                }
            }
            mgr.batch_boundary(chunk.len());
            sp.close(id, chunk.len() as u64, misses);
        }
        if phase == 0 {
            warm = mgr.costs();
            mgr.reset_costs();
        }
    }
    (warm, mgr.costs(), t.elapsed().as_secs_f64(), samples)
}

/// Sum and count of timed calls of one operation.
#[derive(Default, Clone, Copy)]
struct OpTime {
    ns: u64,
    calls: u64,
}

impl OpTime {
    fn add(&mut self, start: Instant, timer: u64) {
        self.ns += (start.elapsed().as_nanos() as u64).saturating_sub(timer);
        self.calls += 1;
    }
    fn mean(self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Runs the traced measurement of `wl` and reports every per-layer metric.
pub fn run(wl: &Workload, seed: u64, rep: &mut Report, spans_out: Option<&std::path::Path>) {
    let mut sp = Spans::new(format!("{}/{seed}", wl.name));
    let root = sp.open("bench.traced_run");
    let timer = timer_ns();

    // workloads: the generator. Per page, without the build before the
    // first page, which graph500_build_s reports.
    let id = sp.open("workloads.generate");
    let (trace, build) = wl.generate(seed);
    let gen_ns = sp.close(id, trace.len() as u64, 0) as f64 - build.as_nanos() as f64;
    rep.metric(
        "workloads.gen_ns_per_page",
        gen_ns / trace.len() as f64,
        "ns",
    );
    rep.metric("workloads.graph500_build_s", build.as_secs_f64(), "s");

    // sim: `run_batched` against a manager that does nothing.
    let (zw, zn) = wl.window(Mgr::Z, trace.len());
    let zlen = (zw + zn) as usize;
    let mut drive = Vec::new();
    for _ in 0..3 {
        let id = sp.open("sim.run_batched");
        let mut noop = NoopMm(Costs::default());
        let m: &mut dyn MemoryManager = &mut noop;
        let s = atp_sim::run_batched(
            m,
            trace[..zlen].iter().copied(),
            zw,
            zn,
            atp_sim::DEFAULT_BATCH,
        );
        rep.check_eq(
            "sim: noop manager accesses",
            s.warmup_costs.accesses + s.costs.accesses,
            zlen as u64,
        );
        drive.push(sp.close(id, zlen as u64, 0) as f64 / zlen as f64);
    }
    rep.metric("sim.drive_ns_per_acc", median(&drive), "ns");

    // memmgmt: every manager untraced, then traced call by call.
    let mut z_ns_per_acc = f64::NAN;
    let mut z_costs = (Costs::default(), Costs::default());
    let mut z_scheme = None;
    let mut untraced_secs = [0.0; 7];
    let mut y_total = Costs::default();
    for m in Mgr::ALL {
        let k = m.key();
        let win = wl.window(m, trace.len());
        let accesses = (win.0 + win.1) as f64;
        let id = sp.open(format!("memmgmt.{k}.run_batched"));
        let out = timed_run(wl, m, &trace);
        sp.close(id, out.accesses(), out.total().tlb_misses);
        check_run(rep, wl, m, trace.len(), &out);
        untraced_secs[m as usize] = out.secs - out.export_secs;
        match m {
            Mgr::Y => y_total = out.total(),
            Mgr::ZObs => {
                rep.metric("obs.export_ms", out.export_secs * 1e3, "ms");
            }
            Mgr::Thp => {
                let s = out.thp.unwrap_or_default();
                let tries = s.promotions + s.promotion_failures;
                let ratio = s.promotion_failures as f64 / tries.max(1) as f64;
                rep.metric("memmgmt.thp.promo_fail_ratio", ratio, "ratio");
            }
            _ => {}
        }

        let mut built = wl.build(m);
        let class = |r: &AccessReport| match m {
            Mgr::Z => Some(usize::from(*r != AccessReport::default())),
            Mgr::Thp | Mgr::Classic64 => (r.ios > 0).then_some(0),
            _ => None,
        };
        let (warm, meas, secs, mut samples) =
            per_access(&mut sp, k, built.as_dyn(), &trace, win, timer, class);
        rep.check_eq(
            &format!("{k}: traced costs == untraced costs"),
            (warm, meas),
            (out.warm, out.meas),
        );
        if let Built::ZObs(_, obs) = &built {
            let id = sp.open("obs.export");
            black_box(export_observed(obs, wl.name, &meas));
            sp.close(id, 1, 0);
        }
        match m {
            Mgr::Z => {
                z_ns_per_acc = out.secs * 1e9 / accesses;
                z_costs = (out.warm, out.meas);
                if let Built::Z(z) = &built {
                    z_scheme = Some(z.scheme().stats());
                }
                rep.metric("bench.trace_overhead", secs / out.secs, "ratio");
                let [hit, miss] = &mut samples;
                rep.metric("memmgmt.z.hit_ns_p50", quantile(hit, 0.5), "ns");
                rep.metric("memmgmt.z.hit_ns_p99", quantile(hit, 0.99), "ns");
                rep.metric("memmgmt.z.hit_samples", hit.len() as f64, "count");
                rep.metric("memmgmt.z.miss_ns_p50", quantile(miss, 0.5), "ns");
                rep.metric("memmgmt.z.miss_ns_p99", quantile(miss, 0.99), "ns");
                rep.metric("memmgmt.z.miss_samples", miss.len() as f64, "count");
            }
            Mgr::Thp => {
                let f = &mut samples[0];
                rep.metric("memmgmt.thp.fault_ns_p50", quantile(f, 0.5), "ns");
                rep.metric("memmgmt.thp.fault_ns_p99", quantile(f, 0.99), "ns");
                rep.metric("memmgmt.thp.fault_samples", f.len() as f64, "count");
            }
            Mgr::Classic64 => {
                let f = &mut samples[0];
                rep.metric("memmgmt.classic64.fault_ns_p50", quantile(f, 0.5), "ns");
                rep.metric("memmgmt.classic64.fault_samples", f.len() as f64, "count");
            }
            _ => {}
        }
    }
    let (z_secs, obs_secs) = (
        untraced_secs[Mgr::Z as usize],
        untraced_secs[Mgr::ZObs as usize],
    );
    rep.metric(
        "obs.ns_per_acc",
        (obs_secs - z_secs) * 1e9 / zlen as f64,
        "ns",
    );

    // Z's layers on their own, over Z's window.
    let z_trace = &trace[..zlen];
    let params = wl.iceberg();
    let hmax = wl.z_hmax();
    // atp-lint: allow(unwrap-policy, reason = "invariant: hmax_for returns a power of two")
    let geom = HugePageGeometry::new(hmax).expect("hmax_for returns a power of two");
    let blank = TlbValue::new(hmax as u32, params.bits_per_code);
    let new_tlb = || Tlb::<TlbValue, AnyPolicy>::new(TLB_ENTRIES, PolicyKind::Lru, MANAGER_SEED);
    let m = wl.z_m() as usize;
    // Z's RAM policy seed.
    let new_ram = || {
        CacheSim::<u64, AnyPolicy>::new(
            m,
            AnyPolicy::new(PolicyKind::Lru, m, MANAGER_SEED ^ 0xF00D),
        )
    };
    let z_total = z_costs.0 + z_costs.1;

    // tlb: lookup, and insert on a miss, over the huge-page stream.
    let replay = sp.open("tlb.replay");
    let mut tlb = new_tlb();
    let (mut probe_ns, mut tlb_misses) = (0u64, 0u64);
    for chunk in z_trace.chunks(CHUNK) {
        let id = sp.open("tlb.probe");
        let mut misses = 0;
        for &v in chunk {
            let u = geom.huge_of(v);
            if tlb.lookup(u).is_none() {
                tlb.insert(u, blank.clone());
                misses += 1;
            }
        }
        probe_ns += sp.close(id, chunk.len() as u64, misses);
        tlb_misses += misses;
    }
    sp.close(replay, zlen as u64, tlb_misses);
    rep.check_eq(
        "tlb replay misses == Z.tlb_misses",
        tlb_misses,
        z_total.tlb_misses,
    );
    rep.metric("tlb.probe_ns", probe_ns as f64 / zlen as f64, "ns");
    rep.metric("tlb.miss_ratio", tlb_misses as f64 / zlen as f64, "ratio");

    // replacement: the RAM policy at capacity m. Timed without recording;
    // an untimed second pass records the (evicted, missed) stream.
    let replay = sp.open("replacement.replay");
    let mut ram = new_ram();
    let (mut access_ns, mut ram_misses) = (0u64, 0u64);
    for chunk in z_trace.chunks(CHUNK) {
        let id = sp.open("replacement.access");
        let mut misses = 0;
        for &v in chunk {
            if !ram.access(v.0).is_hit() {
                misses += 1;
            }
        }
        access_ns += sp.close(id, chunk.len() as u64, misses);
        ram_misses += misses;
    }
    sp.close(replay, zlen as u64, ram_misses);
    let id = sp.open("bench.record_streams");
    let mut ram = new_ram();
    let mut missed: Vec<(u32, Option<u64>)> = Vec::new();
    for (t, &v) in z_trace.iter().enumerate() {
        if let AccessResult::Miss { evicted } = ram.access(v.0) {
            missed.push((t as u32, evicted));
        }
    }
    sp.close(id, zlen as u64, missed.len() as u64);
    let evictions = missed.iter().filter(|(_, e)| e.is_some()).count() as f64;
    rep.check_eq(
        "replacement replay misses == Y.ios",
        ram_misses,
        y_total.ios,
    );
    rep.metric(
        "replacement.access_ns",
        access_ns as f64 / zlen as f64,
        "ns",
    );
    rep.metric(
        "replacement.miss_ratio",
        ram_misses as f64 / zlen as f64,
        "ratio",
    );
    rep.metric("replacement.evict_ratio", evictions / zlen as f64, "ratio");

    // core: the scheme over the recorded stream, in Z's order, with ψ on
    // each TLB miss and the in-place TLB updates Z makes.
    let replay = sp.open("core.replay");
    let mut scheme =
        DecouplingScheme::new(IcebergAlloc::new(&params, MANAGER_SEED), TLB_VALUE_BITS);
    let mut tlb = new_tlb();
    let (mut ins, mut ev, mut psi, mut upd) = (
        OpTime::default(),
        OpTime::default(),
        OpTime::default(),
        OpTime::default(),
    );
    let mut next = missed.iter().peekable();
    let mut tlb2_misses = 0u64;
    for (t, chunk) in z_trace.chunks(CHUNK).enumerate() {
        let id = sp.open("core.ops");
        let calls_before = ins.calls + ev.calls + psi.calls;
        for (i, &v) in chunk.iter().enumerate() {
            let u = geom.huge_of(v);
            let hit = tlb.lookup(u).is_some();
            if let Some(&(_, evicted)) = next.next_if(|(at, _)| *at as usize == t * CHUNK + i) {
                if let Some(e) = evicted {
                    let e = VirtPage(e);
                    let s = Instant::now();
                    black_box(scheme.ram_evict(e));
                    ev.add(s, timer);
                    let (eu, idx) = (geom.huge_of(e), scheme.index_within(e));
                    let s = Instant::now();
                    black_box(tlb.update(eu, |val| val.set(idx, SlotCode::ABSENT)));
                    upd.add(s, timer);
                }
                let s = Instant::now();
                let placed = black_box(scheme.ram_insert(v));
                ins.add(s, timer);
                if placed.is_ok() {
                    let (idx, code) = (scheme.index_within(v), scheme.code_of(v));
                    let s = Instant::now();
                    black_box(tlb.update(u, |val| val.set(idx, code)));
                    upd.add(s, timer);
                }
            }
            if !hit {
                tlb2_misses += 1;
                let s = Instant::now();
                let value = black_box(scheme.psi(u));
                psi.add(s, timer);
                tlb.insert(u, value);
            }
        }
        sp.close(id, ins.calls + ev.calls + psi.calls - calls_before, 0);
    }
    let stats = scheme.stats();
    let z_layers_ns = probe_ns + access_ns + ins.ns + ev.ns + psi.ns + upd.ns;
    if ev.calls == 0 {
        // Z's run evicted nothing (the footprint fits): time `ram_evict` by
        // draining the resident set the replay left behind instead.
        let id = sp.open("core.drain");
        for &(t, _) in &missed {
            let v = z_trace[t as usize];
            if scheme.frame_of(v).is_some() {
                let s = Instant::now();
                black_box(scheme.ram_evict(v));
                ev.add(s, timer);
            }
        }
        sp.close(id, ev.calls, 0);
    }
    sp.close(replay, zlen as u64, stats.failures);
    rep.check_eq(
        "core replay tlb misses == Z.tlb_misses",
        tlb2_misses,
        z_total.tlb_misses,
    );
    rep.check_eq("core replay scheme stats == Z's", Some(stats), z_scheme);
    rep.metric("core.insert_ns", ins.mean(), "ns");
    rep.metric("core.evict_ns", ev.mean(), "ns");
    rep.metric("core.psi_ns", psi.mean(), "ns");
    let placements = stats.placements.max(1) as f64;
    rep.metric(
        "core.backyard_ratio",
        scheme.allocator().back_placements() as f64 / placements,
        "ratio",
    );
    rep.metric(
        "core.fail_ratio",
        stats.failures as f64 / ins.calls.max(1) as f64,
        "ratio",
    );
    rep.metric("tlb.update_ns", upd.mean(), "ns");
    rep.metric(
        "tlb.updates_per_acc",
        upd.calls as f64 / zlen as f64,
        "1/acc",
    );
    rep.metric(
        "memmgmt.z.glue_ns",
        z_ns_per_acc - z_layers_ns as f64 / zlen as f64,
        "ns",
    );
    rep.metric("bench.timer_ns", timer as f64, "ns");

    sp.close(root, 0, 0);
    let selfs = sp.self_ns();
    for layer in LAYERS {
        let ns: u64 = sp
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name.split('.').next() == Some(layer))
            .map(|(_, &own)| own)
            .sum();
        rep.metric(format!("{layer}.self_s"), ns as f64 / 1e9, "s");
    }
    if let Some(path) = spans_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, sp.to_json()));
        rep.check(written.is_ok(), || {
            format!("writing spans to {}: {written:?}", path.display())
        });
    }
}
