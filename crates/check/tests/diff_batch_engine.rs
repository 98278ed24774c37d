//! Differential suite for the batched software-pipelined engine: over
//! generated traces, `run_batched` (which routes every chunk through
//! `MemoryManager::access_batch` and the `Stages::prepare_batch`
//! prefetch hook) must be bit-for-bit equal to the single-step oracle —
//! same `Costs`, same observer stage counters modulo the driver-owned
//! `batches` field — for all seven managers × all four policies × batch
//! sizes {1, 8, 13, 4096}. On divergence the harness shrinks to a
//! minimal diverging trace and prints a replay seed.

use atp_check::oracles::{counters_modulo_batches, run_single_step};
use atp_check::{check_config, ensure_eq, u64s, vecs, Config, Gen};
use atp_core::{IcebergAlloc, IcebergParams};
use atp_memmgmt::classic::{ClassicConfig, ClassicMm, ClassicStages};
use atp_memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp_memmgmt::hybrid::HybridStages;
use atp_memmgmt::only::{PagingOnlyStages, VirtualOnlyStages};
use atp_memmgmt::sparse::SparseStages;
use atp_memmgmt::thp::ThpStages;
use atp_memmgmt::{
    AccessReport, DecoupledMm, EvictionEvent, HybridMm, MemoryManager, PagingOnlyMm, Pipeline,
    Recorder, SimObserver, SparseConfig, SparseDecoupledMm, Stages, ThpConfig, ThpMm, TlbEvent,
    VirtualOnlyMm,
};
use atp_replacement::PolicyKind;
use atp_sim::run_batched;
use atp_types::VirtPage;

const PHYS: u64 = 1 << 8;
const TLB: u64 = 16;
const BATCHES: [usize; 4] = [1, 8, 13, 4096];
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Clock,
    PolicyKind::Sieve,
];

/// Fresh instances of all seven manager families under one policy kind.
fn managers(policy: PolicyKind) -> Vec<Box<dyn MemoryManager>> {
    let params = IcebergParams::derive(PHYS);
    vec![
        Box::new(ClassicMm::new(ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: policy,
            ram_policy: policy,
            seed: 11,
        })),
        Box::new(VirtualOnlyMm::new(8, TLB, policy, 11)),
        Box::new(PagingOnlyMm::new(PHYS, policy, 11)),
        Box::new(DecoupledMm::new(
            IcebergAlloc::new(&params, 11),
            z_config(policy, params.max_resident, 11),
        )),
        Box::new(HybridMm::new(
            IcebergAlloc::new(&params, 13),
            z_config(policy, params.max_resident, 13),
            4,
        )),
        Box::new(SparseDecoupledMm::new(
            IcebergAlloc::new(&params, 17),
            sparse_config(policy),
        )),
        Box::new(ThpMm::new(thp_config(policy))),
    ]
}

/// Generated traces: page ids over a space 16× physical memory, so every
/// manager sees a healthy mix of hits, capacity misses, and (for the
/// decoupled family) paging churn. Shrinks by deleting chunks.
fn trace_gen() -> impl Gen<Value = Vec<u64>> {
    vecs(u64s(0..=(PHYS * 16) - 1), 0..=900)
}

/// One full differential: batched vs single-step for every manager at
/// one (policy, batch) point, over one generated trace.
fn diff_all_managers(pages: &[u64], policy: PolicyKind, batch: usize) -> Result<(), String> {
    let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
    let warmup = (trace.len() / 3) as u64;
    let measure = trace.len() as u64; // consume the remainder
    let n = managers(policy).len();
    for slot in 0..n {
        let mut batched = managers(policy).remove(slot);
        let mut oracle = managers(policy).remove(slot);
        let name = batched.name();
        let stats = run_batched(
            batched.as_mut(),
            trace.iter().copied(),
            warmup,
            measure,
            batch,
        );
        let (warmup_costs, costs) =
            run_single_step(oracle.as_mut(), trace.iter().copied(), warmup, measure);
        ensure_eq!(
            stats.warmup_costs,
            warmup_costs,
            "{name}: warmup costs diverged ({policy:?}, batch {batch})"
        );
        ensure_eq!(
            stats.costs,
            costs,
            "{name}: measured costs diverged ({policy:?}, batch {batch})"
        );
    }
    Ok(())
}

#[test]
fn batched_engine_matches_single_step_for_every_manager_policy_and_batch() {
    assert_eq!(managers(PolicyKind::Lru).len(), 7, "cover every family");
    for policy in POLICIES {
        for batch in BATCHES {
            let name = format!("diff_batch_engine_{policy:?}_{batch}").to_lowercase();
            let cfg = Config::for_property(&name).with_cases(2);
            check_config(&name, &trace_gen(), &cfg, |pages| {
                diff_all_managers(pages, policy, batch)
            });
        }
    }
}

/// One typed observer callback — everything the pipeline can emit except
/// the driver-owned batch boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Access(VirtPage, AccessReport),
    Tlb(TlbEvent),
    Eviction(EvictionEvent),
    DecodeMiss(VirtPage),
}

/// Records the full ordered event stream; batch boundaries are counted
/// separately so streams compare modulo chunking alone.
#[derive(Debug, Default)]
struct EventLog {
    events: Vec<Event>,
    boundaries: u64,
}

impl SimObserver for EventLog {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.events.push(Event::Access(v, report));
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        self.events.push(Event::Tlb(event));
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.events.push(Event::Eviction(event));
    }

    fn on_decode_miss(&mut self, v: VirtPage) {
        self.events.push(Event::DecodeMiss(v));
    }

    fn on_batch_boundary(&mut self, _len: usize) {
        self.boundaries += 1;
    }
}

/// The strongest batching invariant: the *ordered typed event stream* of
/// a batched run equals the sequential one exactly — not just counters.
/// This pins the `retire_batch` fast path to emitting precisely the
/// per-access hit epilogue, in access order, for each retired lane.
fn diff_event_streams<S: Stages>(
    mk: &dyn Fn() -> S,
    pages: &[u64],
    label: &str,
) -> Result<(), String> {
    let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
    let warmup = (trace.len() / 3) as u64;
    let measure = trace.len() as u64;
    let mut oracle = Pipeline::with_observer(mk(), EventLog::default());
    run_single_step(&mut oracle, trace.iter().copied(), warmup, measure);
    ensure_eq!(
        oracle.observer().boundaries,
        0,
        "{label}: single-step oracle saw batch boundaries"
    );
    for batch in BATCHES {
        let mut sut = Pipeline::with_observer(mk(), EventLog::default());
        run_batched(&mut sut, trace.iter().copied(), warmup, measure, batch);
        ensure_eq!(
            sut.observer().events,
            oracle.observer().events,
            "{label}: event streams diverged at batch {batch}"
        );
    }
    Ok(())
}

#[test]
fn observer_event_streams_match_for_every_policy() {
    // Every staged manager, under every policy: the batched run's typed
    // event stream must be the sequential one, element for element.
    for policy in POLICIES {
        let name = format!("diff_batch_engine_events_{policy:?}").to_lowercase();
        let run_cfg = Config::for_property(&name).with_cases(2);
        check_config(&name, &trace_gen(), &run_cfg, |pages| {
            diff_event_streams(
                &|| {
                    ClassicStages::new(ClassicConfig {
                        huge_pages: 8,
                        phys_pages: PHYS,
                        tlb_entries: TLB,
                        tlb_policy: policy,
                        ram_policy: policy,
                        seed: 11,
                    })
                },
                pages,
                "classic",
            )?;
            diff_event_streams(
                &|| VirtualOnlyStages::new(8, TLB, policy, 11),
                pages,
                "virtual-only",
            )?;
            diff_event_streams(
                &|| PagingOnlyStages::new(PHYS, policy, 11),
                pages,
                "paging-only",
            )?;
            let params = IcebergParams::derive(PHYS);
            diff_event_streams(
                &|| {
                    DecoupledStages::new(
                        IcebergAlloc::new(&params, 11),
                        z_config(policy, params.max_resident, 11),
                    )
                },
                pages,
                "decoupled",
            )?;
            diff_event_streams(&|| degenerate_z(policy), pages, "decoupled-degenerate")?;
            diff_event_streams(
                &|| {
                    HybridStages::new(
                        IcebergAlloc::new(&params, 13),
                        z_config(policy, params.max_resident, 13),
                        4,
                    )
                },
                pages,
                "hybrid",
            )?;
            diff_event_streams(
                &|| SparseStages::new(IcebergAlloc::new(&params, 17), sparse_config(policy)),
                pages,
                "sparse",
            )?;
            diff_event_streams(&|| ThpStages::new(thp_config(policy)), pages, "thp")
        });
    }
}

/// `Z`'s configuration at this suite's TLB size.
fn z_config(policy: PolicyKind, resident_pages: u64, seed: u64) -> DecoupledConfig {
    DecoupledConfig {
        tlb_value_bits: 64,
        tlb_entries: TLB,
        tlb_policy: policy,
        resident_pages,
        ram_policy: policy,
        seed,
    }
}

/// The sparse manager's configuration at this suite's sizes.
fn sparse_config(policy: PolicyKind) -> SparseConfig {
    SparseConfig {
        tlb_value_bits: 64,
        coverage: 64,
        tlb_entries: TLB,
        tlb_policy: policy,
        resident_pages: IcebergParams::derive(PHYS).max_resident,
        ram_policy: policy,
        seed: 17,
    }
}

/// The THP manager's configuration at this suite's sizes.
fn thp_config(policy: PolicyKind) -> ThpConfig {
    ThpConfig {
        huge_pages: 8,
        phys_pages: PHYS,
        tlb_entries: TLB,
        policy,
        seed: 19,
    }
}

/// `Z` over a degenerate Iceberg: 4 bins of one front and one back slot,
/// with all 8 frames in the resident budget. Pages whose three bins are
/// full fail placement, so the failure path (`F`: decode misses, repaid
/// IOs) shows up in the compared event streams.
fn degenerate_z(policy: PolicyKind) -> DecoupledStages<IcebergAlloc> {
    DecoupledStages::new(
        IcebergAlloc::with_geometry(4, 1, 1, 23),
        z_config(policy, 8, 23),
    )
}

#[test]
fn degenerate_z_takes_the_failure_path() {
    // Guards the event-stream differential above: its degenerate `Z`
    // must actually reach `F`, or the failure-path comparison is vacuous.
    for policy in POLICIES {
        let mut z = Pipeline::with_observer(degenerate_z(policy), EventLog::default());
        run_single_step(&mut z, (0..200).map(|p| VirtPage(p * 7)), 0, 200);
        let failed = z
            .observer()
            .events
            .iter()
            .filter(|e| matches!(e, Event::Access(_, r) if r.paging_failure && r.decode_miss));
        assert!(failed.count() > 0, "{policy:?}: no paging failure reached");
    }
}

#[test]
fn observer_counters_match_for_every_policy() {
    // The prepare_batch prefetch hook runs on the classic pipeline's own
    // structures; the recorder must see identical per-stage event
    // streams regardless of chunking, for every policy kind.
    for policy in POLICIES {
        let cfg = || ClassicConfig {
            huge_pages: 8,
            phys_pages: PHYS,
            tlb_entries: TLB,
            tlb_policy: policy,
            ram_policy: policy,
            seed: 11,
        };
        let name = format!("diff_batch_engine_counters_{policy:?}").to_lowercase();
        let run_cfg = Config::for_property(&name).with_cases(2);
        check_config(&name, &trace_gen(), &run_cfg, |pages| {
            let trace: Vec<VirtPage> = pages.iter().map(|&p| VirtPage(p)).collect();
            let warmup = (trace.len() / 3) as u64;
            let measure = trace.len() as u64;
            let mut oracle = Pipeline::with_observer(ClassicStages::new(cfg()), Recorder::new());
            run_single_step(&mut oracle, trace.iter().copied(), warmup, measure);
            let want = counters_modulo_batches(oracle.observer().counters());
            for batch in BATCHES {
                let mut sut = Pipeline::with_observer(ClassicStages::new(cfg()), Recorder::new());
                run_batched(&mut sut, trace.iter().copied(), warmup, measure, batch);
                ensure_eq!(
                    counters_modulo_batches(sut.observer().counters()),
                    want,
                    "stage counters diverged ({policy:?}, batch {batch})"
                );
            }
            Ok(())
        });
    }
}
