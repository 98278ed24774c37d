//! The end-to-end run: tracing off, every manager through
//! `atp_sim::run_batched` as `atp simulate` drives it, in turns until each
//! has measured for its share of the time budget. Each repetition builds a
//! fresh manager; only `run_batched` (plus, for the observed Z, rendering its
//! exports) is timed.

use crate::report::{cpu_seconds, median, peak_rss_mib, Report};
use crate::spec::{export_observed, model, Built, Mgr, Workload};
use atp_memmgmt::ThpStats;
use atp_types::{Costs, VirtPage};
use std::hint::black_box;
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median. Set-ups repeat for
/// at least `SETUP_SHARE` of the run's time budget, so cheap ones collect
/// many samples; the timed repetitions share what is left of the budget.
pub const MIN_SETUPS: usize = 3;
pub const SETUP_SHARE: f64 = 1.0 / 15.0;
/// Fewest timed repetitions of each manager in a run.
pub const MIN_REPS: usize = 3;
/// One timed repetition of one manager.
#[derive(Clone, Debug)]
pub struct RunOut {
    pub warm: Costs,
    pub meas: Costs,
    /// Wall time of `run_batched` (and of the exports, for the observed Z).
    pub secs: f64,
    /// CPU time of the same (see [`cpu_seconds`]).
    pub cpu_secs: f64,
    /// Seconds of that spent rendering the observed Z's exports.
    pub export_secs: f64,
    /// Z's lifetime placement failures (`ram_insert` errors).
    pub insert_failures: Option<u64>,
    pub thp: Option<ThpStats>,
}

impl RunOut {
    pub fn accesses(&self) -> u64 {
        self.warm.accesses + self.meas.accesses
    }

    pub fn total(&self) -> Costs {
        self.warm + self.meas
    }
}

/// Builds `m` and drives it once over its window of `trace`.
pub fn timed_run(wl: &Workload, m: Mgr, trace: &[VirtPage]) -> RunOut {
    let (w, n) = wl.window(m, trace.len());
    let mut built = wl.build(m);
    let window = &trace[..(w + n) as usize];
    let c = cpu_seconds();
    let t = Instant::now();
    let stats = atp_sim::run_batched(
        built.as_dyn(),
        window.iter().copied(),
        w,
        n,
        atp_sim::DEFAULT_BATCH,
    );
    let run_secs = t.elapsed().as_secs_f64();
    let run_cpu = cpu_seconds() - c;
    let mut out = RunOut {
        warm: stats.warmup_costs,
        meas: stats.costs,
        secs: run_secs,
        cpu_secs: run_cpu,
        export_secs: 0.0,
        insert_failures: None,
        thp: None,
    };
    match &built {
        Built::Z(z) => out.insert_failures = Some(z.scheme().stats().failures),
        Built::ZObs(z, obs) => {
            let (c, t) = (cpu_seconds(), Instant::now());
            black_box(export_observed(obs, wl.name, &stats.costs));
            out.export_secs = t.elapsed().as_secs_f64();
            out.secs += out.export_secs;
            out.cpu_secs += cpu_seconds() - c;
            out.insert_failures = Some(z.scheme().stats().failures);
        }
        Built::Thp(thp) => out.thp = Some(thp.thp_stats()),
        Built::Other(_) => {}
    }
    out
}

/// Per-manager checks: `run_batched` serviced exactly the accesses asked for,
/// and every access was counted as a TLB hit or a TLB miss.
pub fn check_run(rep: &mut Report, wl: &Workload, m: Mgr, trace_len: usize, out: &RunOut) {
    let (w, n) = wl.window(m, trace_len);
    let k = m.key();
    rep.check_eq(&format!("{k}: warmup accesses"), out.warm.accesses, w);
    rep.check_eq(&format!("{k}: measured accesses"), out.meas.accesses, n);
    for (phase, c) in [("warmup", out.warm), ("measured", out.meas)] {
        rep.check_eq(
            &format!("{k}: {phase} tlb hits + misses"),
            c.tlb_hits + c.tlb_misses,
            c.accesses,
        );
    }
}

/// Theorem-4 reconciliation of Z against X(hmax_Z) and Y(m_Z) on the same
/// trace and window:
/// * Z's TLB misses equal X's, in each phase;
/// * Z's IOs equal Y's plus the IOs of hits on failed pages (every paging
///   failure that was not a failed placement), over the whole run;
/// * eq. (7) on the measured phase:
///   C(Z) ≤ C_TLB(X) + C_IO(Y) + (1+ε)·paging_failures.
pub fn reconcile(rep: &mut Report, z: &RunOut, x: &RunOut, y: &RunOut) {
    let eps = model().epsilon;
    rep.check_eq(
        "thm4: warmup Z.tlb_misses == X.tlb_misses",
        z.warm.tlb_misses,
        x.warm.tlb_misses,
    );
    rep.check_eq(
        "thm4: Z.tlb_misses == X.tlb_misses",
        z.meas.tlb_misses,
        x.meas.tlb_misses,
    );
    let (zt, yt) = (z.total(), y.total());
    let failed_hits = zt
        .paging_failures
        .checked_sub(z.insert_failures.unwrap_or(u64::MAX));
    rep.check_eq(
        "thm4: Z.ios == Y.ios + IOs of hits on failed pages",
        Some(zt.ios),
        failed_hits.map(|f| yt.ios + f),
    );
    let cz = z.meas.total(model());
    let bound =
        x.meas.tlb_cost(model()) + y.meas.io_cost() + (1.0 + eps) * z.meas.paging_failures as f64;
    rep.check(cz <= bound * (1.0 + 1e-12), || {
        format!("thm4: eq. (7) violated: C(Z) = {cz} > {bound}")
    });
}

/// A cheap fingerprint of a trace, for the same-seed regeneration check.
fn fingerprint(trace: &[VirtPage]) -> (usize, u64) {
    let h = trace.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.0).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (trace.len(), h)
}

/// One set-up: trace generation plus the construction of every manager.
/// Returns the trace and the CPU time taken.
fn set_up(wl: &Workload, seed: u64) -> (Vec<VirtPage>, f64) {
    let c = cpu_seconds();
    let (trace, _) = wl.generate(seed);
    for m in Mgr::ALL {
        black_box(wl.build(m));
    }
    (trace, cpu_seconds() - c)
}

/// Runs the end-to-end measurement of `wl` for about `seconds` seconds.
pub fn run(wl: &Workload, seed: u64, seconds: f64, rep: &mut Report) {
    let start = Instant::now();
    let (trace, secs) = set_up(wl, seed);
    let mut setup = vec![secs];

    // Warm-up: one untimed run of every manager, in a fixed order, right
    // after the first set-up. Its outcomes are the ones later repetitions
    // must reproduce and the ones reconciled below. Peak memory is read
    // here: further set-ups and repetitions only add allocator
    // fragmentation, and how many of them fit depends on the host's speed.
    let mut first = Vec::new();
    for m in Mgr::ALL {
        let out = timed_run(wl, m, &trace);
        check_run(rep, wl, m, trace.len(), &out);
        first.push(out);
    }
    let rss = peak_rss_mib();

    // Set-up repeats; each regenerated trace must match the first.
    let mut setup_wall = 0.0;
    while setup.len() < MIN_SETUPS || setup_wall < seconds * SETUP_SHARE {
        let t = Instant::now();
        let (again, secs) = set_up(wl, seed);
        setup.push(secs);
        setup_wall += t.elapsed().as_secs_f64();
        rep.check_eq(
            "trace regenerated from the same seed",
            fingerprint(&trace),
            fingerprint(&again),
        );
    }

    // Every manager first runs MIN_REPS times, round-robin. Then the next
    // repetition goes to the manager with the least wall time so far, until
    // each has had its equal share of the rest of the budget: fast managers
    // run many short repetitions and slow ones a few long ones, interleaved
    // over the whole run. A manager's rate is all its accesses over all its
    // CPU time (see `cpu_seconds`). On a shared host the same code runs at
    // speeds up to 1.8 times apart, for seconds to minutes at a time; the
    // pooled rate moves smoothly with the share of each, while the median,
    // quartiles or minimum of per-repetition times jump between them and
    // spread as much or more from run to run.
    let share = (seconds - start.elapsed().as_secs_f64()).max(0.0) / Mgr::ALL.len() as f64;
    let mut reps = [0usize; Mgr::ALL.len()];
    let mut busy = [0.0f64; Mgr::ALL.len()];
    let mut accesses = [0u64; Mgr::ALL.len()];
    let mut cpu = [0.0f64; Mgr::ALL.len()];
    let mut next = 0;
    while reps.iter().any(|&r| r < MIN_REPS) || busy.iter().any(|&b| b < share) {
        let m = Mgr::ALL[next];
        let out = timed_run(wl, m, &trace);
        check_run(rep, wl, m, trace.len(), &out);
        reps[next] += 1;
        busy[next] += out.secs;
        accesses[next] += out.accesses();
        cpu[next] += out.cpu_secs;
        let f = &first[next];
        rep.check_eq(
            &format!("{}: repeat run costs", m.key()),
            (f.warm, f.meas),
            (out.warm, out.meas),
        );
        let all = 0..Mgr::ALL.len();
        next = if reps.iter().any(|&r| r < MIN_REPS) {
            all.min_by_key(|&i| reps[i]).unwrap_or(0)
        } else {
            all.min_by(|&a, &b| busy[a].total_cmp(&busy[b]))
                .unwrap_or(0)
        };
    }
    let get = |m: Mgr| &first[m as usize];
    reconcile(rep, get(Mgr::Z), get(Mgr::X), get(Mgr::Y));
    rep.check_eq(
        "observer leaves Z's costs alone",
        (get(Mgr::Z).warm, get(Mgr::Z).meas),
        (get(Mgr::ZObs).warm, get(Mgr::ZObs).meas),
    );

    rep.check(cpu.iter().all(|&c| c > 0.0), || {
        format!("CPU clock gave no time to some manager: {cpu:?}")
    });
    for (i, &m) in Mgr::ALL.iter().enumerate() {
        rep.metric(
            format!("{}_acc_s", m.key()),
            accesses[i] as f64 / cpu[i],
            "1/s",
        );
    }
    rep.metric("setup_s", median(&setup), "s");
    rep.check(rss.is_some(), || "peak RSS unreadable".into());
    rep.metric("peak_rss_mib", rss.unwrap_or(f64::NAN), "MiB");
    for m in [Mgr::Z, Mgr::Thp] {
        let c = get(m).meas;
        rep.metric(
            format!("{}_cost_per_acc", m.key()),
            c.total(model()) / c.accesses as f64,
            "cost/acc",
        );
    }
    eprintln!(
        "{}: {} pages, {} set-ups, repetitions per manager {reps:?} in {:.1} s; \
         {:.1} of the repetitions' {:.1} s wall time on the CPU",
        wl.name,
        trace.len(),
        setup.len(),
        start.elapsed().as_secs_f64(),
        cpu.iter().sum::<f64>(),
        busy.iter().sum::<f64>()
    );
}
