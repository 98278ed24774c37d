//! Golden-parity tests for the translation pipeline refactor.
//!
//! Every memory manager must produce **bit-identical** [`Costs`] on fixed
//! seeds and fixed traces across refactors of the access path. The golden
//! constants below were captured from the pre-pipeline (seed) manager
//! implementations; any drift in probe order, fill policy, eviction
//! accounting, or RNG consumption shows up as a failure here.
//! `GOLDEN_EVENTS` pins each cell's full observer event stream the same
//! way, so a refactor that keeps the totals but reorders or drops events
//! fails too.
//!
//! To re-capture after an *intentional* accounting change, run
//! `cargo test --release --test golden_parity -- --ignored --nocapture`
//! and paste the printed tables over `GOLDEN` and `GOLDEN_EVENTS`.

use atp::core::{IcebergAlloc, IcebergParams};
use atp::memmgmt::classic::{ClassicConfig, ClassicStages};
use atp::memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp::memmgmt::hybrid::HybridStages;
use atp::memmgmt::only::{PagingOnlyStages, VirtualOnlyStages};
use atp::memmgmt::sparse::SparseStages;
use atp::memmgmt::thp::ThpStages;
use atp::memmgmt::{MemoryManager, NoopObserver, Pipeline, SimObserver, SparseConfig, ThpConfig};
use atp::obs::{EventLog, Shared};
use atp::replacement::PolicyKind;
use atp::types::{Costs, VirtPage};
use atp::workloads::{Graph500Config, Graph500Trace, Sequential, Zipfian};

const N: usize = 60_000;
const PHYS: u64 = 1 << 12;
const TLB: u64 = 128;

fn traces() -> Vec<(&'static str, Vec<VirtPage>)> {
    vec![
        ("zipf", Zipfian::new(42, 1 << 14, 1.1).take(N).collect()),
        ("graph500", {
            Graph500Trace::generate(&Graph500Config {
                scale: 12,
                edge_factor: 8,
                seed: 7,
                max_accesses: N,
            })
            .iter()
            .collect()
        }),
        ("sequential", Sequential::new(1 << 13).take(N).collect()),
    ]
}

fn managers() -> Vec<Box<dyn MemoryManager>> {
    managers_with(|| NoopObserver)
}

/// Every manager, each behind a fresh observer from `obs`.
fn managers_with<O: SimObserver + 'static>(obs: impl Fn() -> O) -> Vec<Box<dyn MemoryManager>> {
    let params = IcebergParams::derive(PHYS);
    let z_config = |seed| DecoupledConfig {
        tlb_value_bits: 64,
        tlb_entries: TLB,
        tlb_policy: PolicyKind::Lru,
        resident_pages: params.max_resident,
        ram_policy: PolicyKind::Lru,
        seed,
    };
    vec![
        Box::new(Pipeline::with_observer(
            ClassicStages::new(ClassicConfig {
                huge_pages: 8,
                phys_pages: PHYS,
                tlb_entries: TLB,
                tlb_policy: PolicyKind::Lru,
                ram_policy: PolicyKind::Lru,
                seed: 11,
            }),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            VirtualOnlyStages::new(8, TLB, PolicyKind::Lru, 11),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            PagingOnlyStages::new(PHYS, PolicyKind::Lru, 11),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            DecoupledStages::new(IcebergAlloc::new(&params, 11), z_config(11)),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            HybridStages::new(IcebergAlloc::new(&params, 13), z_config(13), 4),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            SparseStages::new(
                IcebergAlloc::new(&params, 17),
                SparseConfig {
                    tlb_value_bits: 64,
                    coverage: 64,
                    tlb_entries: TLB,
                    tlb_policy: PolicyKind::Lru,
                    resident_pages: params.max_resident,
                    ram_policy: PolicyKind::Lru,
                    seed: 17,
                },
            ),
            obs(),
        )),
        Box::new(Pipeline::with_observer(
            ThpStages::new(ThpConfig {
                huge_pages: 8,
                phys_pages: PHYS,
                tlb_entries: TLB,
                policy: PolicyKind::Lru,
                seed: 19,
            }),
            obs(),
        )),
    ]
}

fn run_cell(mgr: &mut dyn MemoryManager, trace: &[VirtPage]) -> Costs {
    for &p in trace {
        mgr.access(p);
    }
    mgr.costs()
}

/// (manager name, trace name, ios, tlb_misses, decode_misses,
/// paging_failures, accesses, tlb_hits) — captured from the seed managers.
type GoldenRow = (&'static str, &'static str, u64, u64, u64, u64, u64, u64);
const GOLDEN: &[GoldenRow] = &[
    ("classic(h=8)", "zipf", 58944, 14912, 0, 0, 60000, 45088),
    ("classic(h=8)", "graph500", 88, 11, 0, 0, 60000, 59989),
    (
        "classic(h=8)",
        "sequential",
        60000,
        7500,
        0,
        0,
        60000,
        52500,
    ),
    ("X(hmax=8)", "zipf", 0, 14912, 0, 0, 60000, 45088),
    ("X(hmax=8)", "graph500", 0, 11, 0, 0, 60000, 59989),
    ("X(hmax=8)", "sequential", 0, 7500, 0, 0, 60000, 52500),
    ("Y(m=4096)", "zipf", 8741, 0, 0, 0, 60000, 60000),
    ("Y(m=4096)", "graph500", 85, 0, 0, 0, 60000, 60000),
    ("Y(m=4096)", "sequential", 60000, 0, 0, 0, 60000, 60000),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "zipf",
        13368,
        14912,
        0,
        0,
        60000,
        45088,
    ),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "graph500",
        85,
        11,
        0,
        0,
        60000,
        59989,
    ),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "sequential",
        60000,
        7500,
        0,
        0,
        60000,
        52500,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "zipf",
        24408,
        7314,
        0,
        0,
        60000,
        52686,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "graph500",
        88,
        3,
        0,
        0,
        60000,
        59997,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "sequential",
        60000,
        1875,
        0,
        0,
        60000,
        58125,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "zipf",
        13368,
        3680,
        28915,
        0,
        60000,
        56320,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "graph500",
        85,
        2,
        36201,
        0,
        60000,
        59998,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "sequential",
        60000,
        128,
        0,
        0,
        60000,
        59872,
    ),
    ("thp(h=8)", "zipf", 8741, 18305, 0, 0, 60000, 41695),
    ("thp(h=8)", "graph500", 85, 84, 0, 0, 60000, 59916),
    ("thp(h=8)", "sequential", 60000, 60000, 0, 0, 60000, 0),
];

#[test]
fn costs_match_pre_refactor_golden() {
    assert!(
        !GOLDEN.is_empty(),
        "golden table not captured yet — run the ignored capture test"
    );
    let traces = traces();
    let mut idx = 0;
    for (mgr_slot, _) in managers().iter().enumerate() {
        for (trace_name, trace) in &traces {
            // Fresh manager per cell: managers() rebuilds all state.
            let mut mgr = managers().remove(mgr_slot);
            let costs = run_cell(mgr.as_mut(), trace);
            let (g_name, g_trace, ios, tlb_misses, decode_misses, failures, accesses, tlb_hits) =
                GOLDEN[idx];
            assert_eq!(mgr.name(), g_name, "manager name drifted at row {idx}");
            assert_eq!(*trace_name, g_trace, "trace order drifted at row {idx}");
            let expect = Costs {
                ios,
                tlb_misses,
                decode_misses,
                paging_failures: failures,
                accesses,
                tlb_hits,
            };
            assert_eq!(
                costs, expect,
                "{g_name} on {g_trace}: costs drifted from pre-refactor golden"
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "golden table has stale extra rows");
}

/// One cell's manager name, event count and the FNV-1a digest of its full
/// `atp-events-v1` JSONL export.
fn event_digest(mgr_slot: usize, trace: &[VirtPage]) -> (String, u64, u64) {
    let log = Shared::new(EventLog::new(usize::MAX));
    let mut mgr = managers_with(|| log.clone()).remove(mgr_slot);
    run_cell(mgr.as_mut(), trace);
    log.with(|l| {
        assert_eq!(l.dropped(), 0, "the digest must cover the whole stream");
        let digest = l.to_jsonl().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (mgr.name(), l.recorded(), digest)
    })
}

/// (manager name, trace name, events recorded, event-stream digest).
type EventRow = (&'static str, &'static str, u64, u64);
const GOLDEN_EVENTS: &[EventRow] = &[
    ("classic(h=8)", "zipf", 89136, 0x37601c7ba511e63f),
    ("classic(h=8)", "graph500", 60022, 0x8c03fe0402194ef2),
    ("classic(h=8)", "sequential", 81988, 0x3cabd783600b7fb0),
    ("X(hmax=8)", "zipf", 74912, 0x6fe88d5ac3b17325),
    ("X(hmax=8)", "graph500", 60011, 0xd30b569cc9d55071),
    ("X(hmax=8)", "sequential", 67500, 0x6dfdcdd5e129c6af),
    ("Y(m=4096)", "zipf", 73386, 0x10b8c21a3cf9aba3),
    ("Y(m=4096)", "graph500", 60085, 0xdb1822f6b336e6a1),
    ("Y(m=4096)", "sequential", 175904, 0x8a97599cd33f4857),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "zipf",
        100229,
        0x72462905806b6fe7,
    ),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "graph500",
        60096,
        0x5b917132d4096323,
    ),
    (
        "Z(hmax=8, bits=5, m=1419)",
        "sequential",
        186081,
        0xd4054b76e40101cc,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "zipf",
        78099,
        0xb7b5c1107fde4702,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "graph500",
        60025,
        0x4058be1620cb4dd2,
    ),
    (
        "hybrid(chunk=4, inner=Z(hmax=8, bits=5, m=1419))",
        "sequential",
        90456,
        0x9a6232b3f3c26b8f,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "zipf",
        117912,
        0x3192b0c5d28d10c8,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "graph500",
        96288,
        0x5a4b393204b117b9,
    ),
    (
        "Z-sparse(cov=64, K=5, m=1419)",
        "sequential",
        178709,
        0x44e68a1dd2ac595b,
    ),
    ("thp(h=8)", "zipf", 91765, 0xa3de0505a023dfa1),
    ("thp(h=8)", "graph500", 60232, 0x887b97fa2b32ccd0),
    ("thp(h=8)", "sequential", 235904, 0x4afd1b0c282dba04),
];

#[test]
fn event_streams_match_golden_digests() {
    let traces = traces();
    let mut idx = 0;
    for mgr_slot in 0..managers().len() {
        for (trace_name, trace) in &traces {
            let (name, events, digest) = event_digest(mgr_slot, trace);
            assert_eq!(
                (name.as_str(), *trace_name, events, digest),
                GOLDEN_EVENTS[idx],
                "observer event stream drifted at row {idx}"
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN_EVENTS.len(), "event table has stale extra rows");
}

/// Prints the golden table from the current implementations.
#[test]
#[ignore = "capture helper: prints the GOLDEN constant from current code"]
fn print_golden() {
    let traces = traces();
    for mgr_slot in 0..managers().len() {
        for (trace_name, trace) in &traces {
            let mut mgr = managers().remove(mgr_slot);
            let c = run_cell(mgr.as_mut(), trace);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {}, {}, {}, {}),",
                mgr.name(),
                trace_name,
                c.ios,
                c.tlb_misses,
                c.decode_misses,
                c.paging_failures,
                c.accesses,
                c.tlb_hits
            );
        }
    }
    for mgr_slot in 0..managers().len() {
        for (trace_name, trace) in &traces {
            let (name, events, digest) = event_digest(mgr_slot, trace);
            println!("    (\"{name}\", \"{trace_name}\", {events}, {digest:#018x}),");
        }
    }
}
