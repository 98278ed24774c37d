//! The three workloads and the seven managers, built the way `atp simulate`
//! builds them: LRU everywhere, ℓ = 1536 TLB entries, V = 4P, ε = 0.01,
//! w = 64-bit TLB values and P-derived Iceberg parameters for Z. Managers
//! take a fixed seed; the workload seed reaches only the trace generator.

use atp_core::{hmax_for, IcebergAlloc, IcebergParams};
use atp_memmgmt::classic::ClassicConfig;
use atp_memmgmt::decoupled::{DecoupledConfig, DecoupledStages};
use atp_memmgmt::{
    ClassicMm, DecoupledMm, MemoryManager, PagingOnlyMm, Pipeline, Recorder, ThpConfig, ThpMm,
    VirtualOnlyMm,
};
use atp_obs::{RunObserver, Shared};
use atp_replacement::PolicyKind;
use atp_types::{CostModel, VirtPage};
use atp_workloads::{Graph500Config, Graph500Trace, UniformRandom, Zipfian};
use std::time::{Duration, Instant};

/// TLB entries ℓ (the paper's and the CLI's default).
pub const TLB_ENTRIES: u64 = 1536;
/// Seed of every manager's randomized parts (the CLI's default `--seed`).
pub const MANAGER_SEED: u64 = 42;
/// TLB value width `w` in bits for Z.
pub const TLB_VALUE_BITS: u32 = 64;
/// Huge-page size of the THP manager and of classic64.
pub const HUGE: u64 = 64;
/// Window of the observed Z's windowed time series (`--window 4k`).
pub const OBS_WINDOW: u64 = 4096;
/// The cost model: ε = 0.01.
pub fn model() -> CostModel {
    CostModel::new(0.01)
}

/// A manager under test, named as its throughput metric names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mgr {
    Z,
    ZObs,
    X,
    Y,
    Classic1,
    Classic64,
    Thp,
}

impl Mgr {
    pub const ALL: [Mgr; 7] = [
        Mgr::Z,
        Mgr::ZObs,
        Mgr::X,
        Mgr::Y,
        Mgr::Classic1,
        Mgr::Classic64,
        Mgr::Thp,
    ];

    /// Short name used in metric names and span names.
    pub fn key(self) -> &'static str {
        match self {
            Mgr::Z => "z",
            Mgr::ZObs => "z_obs",
            Mgr::X => "x",
            Mgr::Y => "y",
            Mgr::Classic1 => "classic1",
            Mgr::Classic64 => "classic64",
            Mgr::Thp => "thp",
        }
    }
}

/// How a workload's trace is generated.
#[derive(Clone, Copy, Debug)]
pub enum Gen {
    /// Graph500 BFS trace (Figure 1c's generator), whole trace.
    Graph500 { scale: u32 },
    /// Zipf(s) over V = 4P pages, `len` accesses.
    Zipf { s: f64, len: u64 },
    /// Uniform over V = 4P pages, `len` accesses.
    Uniform { len: u64 },
}

/// One workload: a trace and the physical memory the managers get.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Physical memory P in pages.
    pub phys: u64,
    pub gen: Gen,
    /// THP's (warmup, measured) window when it differs from the others'
    /// (half the trace each): THP's frame pool makes it far slower once
    /// memory is full, so it replays a prefix of the same trace.
    pub thp_window: Option<(u64, u64)>,
}

pub const NAMES: [&str; 3] = ["graph500-resident", "zipf-mixed", "uniform-miss"];

impl Workload {
    /// The full-size workload `name`, or `None` if unknown.
    pub fn full(name: &str) -> Option<Workload> {
        Some(match name {
            // Footprint inside TLB reach and RAM: almost every access hits.
            "graph500-resident" => Workload {
                name: NAMES[0],
                phys: 1 << 16,
                gen: Gen::Graph500 { scale: 17 },
                thp_window: None,
            },
            // Every layer of Z works: ~0.32 TLB and ~0.25 RAM misses/access.
            // THP's warmup fills its frame pool, so the measured prefix runs
            // on a full pool.
            "zipf-mixed" => Workload {
                name: NAMES[1],
                phys: 1 << 16,
                gen: Gen::Zipf {
                    s: 1.0,
                    len: 1 << 20,
                },
                thp_window: Some((300_000, 60_000)),
            },
            // ~95% of accesses miss TLB and RAM. THP replays a prefix that
            // leaves its pool about half free: once full it runs at tens of
            // µs/access here.
            "uniform-miss" => Workload {
                name: NAMES[2],
                phys: 1 << 20,
                gen: Gen::Uniform { len: 1 << 20 },
                thp_window: Some((1 << 18, 1 << 18)),
            },
            _ => return None,
        })
    }

    /// A tiny twin of workload `name` for the self-test.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Option<Workload> {
        let full = Workload::full(name)?;
        Some(match full.gen {
            Gen::Graph500 { .. } => Workload {
                phys: 1 << 10,
                gen: Gen::Graph500 { scale: 9 },
                ..full
            },
            Gen::Zipf { s, .. } => Workload {
                phys: 1 << 10,
                gen: Gen::Zipf { s, len: 1 << 14 },
                thp_window: Some((1 << 12, 1 << 12)),
                ..full
            },
            Gen::Uniform { .. } => Workload {
                phys: 1 << 12,
                gen: Gen::Uniform { len: 1 << 14 },
                thp_window: Some((1 << 11, 1 << 11)),
                ..full
            },
        })
    }

    /// Virtual pages V = 4P.
    pub fn virt(&self) -> u64 {
        self.phys * 4
    }

    /// Generates the trace from `seed`. Also returns the time spent building
    /// the generator before its first page: the whole graph (R-MAT, CSR and
    /// the BFS that records the trace) for graph500, the generator's
    /// constructor otherwise.
    pub fn generate(&self, seed: u64) -> (Vec<VirtPage>, Duration) {
        let t = Instant::now();
        match self.gen {
            Gen::Graph500 { scale } => {
                let g = Graph500Trace::generate(&Graph500Config {
                    scale,
                    edge_factor: 16,
                    seed,
                    max_accesses: usize::MAX >> 1,
                });
                let build = t.elapsed();
                (g.iter().collect(), build)
            }
            Gen::Zipf { s, len } => {
                let z = Zipfian::new(seed, self.virt(), s);
                let build = t.elapsed();
                (z.take(len as usize).collect(), build)
            }
            Gen::Uniform { len } => {
                let u = UniformRandom::new(seed, self.virt());
                let build = t.elapsed();
                (u.take(len as usize).collect(), build)
            }
        }
    }

    /// (warmup, measured) accesses of `m` over a trace of `len` pages.
    pub fn window(&self, m: Mgr, len: usize) -> (u64, u64) {
        let len = len as u64;
        match (m, self.thp_window) {
            (Mgr::Thp, Some((w, n))) => (w.min(len), n.min(len - w.min(len))),
            _ => (len / 2, len - len / 2),
        }
    }

    pub fn iceberg(&self) -> IcebergParams {
        IcebergParams::derive(self.phys)
    }

    /// Z's coverage hmax: the largest power of two whose codes fit in w bits.
    pub fn z_hmax(&self) -> u64 {
        hmax_for(TLB_VALUE_BITS, self.iceberg().bits_per_code)
    }

    /// Z's resident budget m.
    pub fn z_m(&self) -> u64 {
        self.iceberg().max_resident
    }

    pub fn z_config(&self) -> DecoupledConfig {
        DecoupledConfig {
            tlb_value_bits: TLB_VALUE_BITS,
            tlb_entries: TLB_ENTRIES,
            tlb_policy: PolicyKind::Lru,
            resident_pages: self.z_m(),
            ram_policy: PolicyKind::Lru,
            seed: MANAGER_SEED,
        }
    }

    /// X with coverage `hmax` (Z's hmax unless a test builds a bad twin).
    pub fn build_x(&self, hmax: u64) -> VirtualOnlyMm {
        VirtualOnlyMm::new(hmax, TLB_ENTRIES, PolicyKind::Lru, MANAGER_SEED)
    }

    /// Builds `m` with the configuration `atp simulate` gives it.
    pub fn build(&self, m: Mgr) -> Built {
        match m {
            Mgr::Z => Built::Z(DecoupledMm::new(
                IcebergAlloc::new(&self.iceberg(), MANAGER_SEED),
                self.z_config(),
            )),
            Mgr::ZObs => {
                let obs = Shared::new(
                    RunObserver::new(Recorder::new()).with_window(OBS_WINDOW, model().epsilon),
                );
                let stages = DecoupledStages::new(
                    IcebergAlloc::new(&self.iceberg(), MANAGER_SEED),
                    self.z_config(),
                );
                Built::ZObs(Pipeline::with_observer(stages, obs.clone()), obs)
            }
            Mgr::X => Built::Other(Box::new(self.build_x(self.z_hmax()))),
            Mgr::Y => Built::Other(Box::new(PagingOnlyMm::new(
                self.z_m(),
                PolicyKind::Lru,
                MANAGER_SEED,
            ))),
            Mgr::Classic1 | Mgr::Classic64 => {
                Built::Other(Box::new(ClassicMm::new(ClassicConfig {
                    huge_pages: if m == Mgr::Classic1 { 1 } else { HUGE },
                    phys_pages: self.phys,
                    tlb_entries: TLB_ENTRIES,
                    tlb_policy: PolicyKind::Lru,
                    ram_policy: PolicyKind::Lru,
                    seed: MANAGER_SEED,
                })))
            }
            Mgr::Thp => Built::Thp(ThpMm::new(ThpConfig {
                huge_pages: HUGE,
                phys_pages: self.phys - self.phys % HUGE,
                tlb_entries: TLB_ENTRIES,
                policy: PolicyKind::Lru,
                seed: MANAGER_SEED,
            })),
        }
    }
}

/// The observed Z: `atp simulate --metrics --window`'s observer stack.
pub type ZObs = DecoupledMm<IcebergAlloc, Shared<RunObserver>>;

/// A built manager. Z, the observed Z and THP keep their concrete types so
/// their internal statistics stay readable after a run.
pub enum Built {
    Z(DecoupledMm<IcebergAlloc>),
    ZObs(ZObs, Shared<RunObserver>),
    Thp(ThpMm),
    Other(Box<dyn MemoryManager>),
}

impl Built {
    pub fn as_dyn(&mut self) -> &mut dyn MemoryManager {
        match self {
            Built::Z(m) => m,
            Built::ZObs(m, _) => m,
            Built::Thp(m) => m,
            Built::Other(m) => m.as_mut(),
        }
    }
}

/// Renders what `atp simulate --metrics FILE --window N` writes: the run's
/// metrics registry and the window CSV, to memory. Returns their total
/// length in bytes.
pub fn export_observed(obs: &Shared<RunObserver>, wname: &str, costs: &atp_types::Costs) -> usize {
    obs.with(|o| {
        let reg = atp_obs::run_registry("decoupled", wname, costs, model(), Some(&o.recorder));
        let json = reg.render(atp_obs::ExportFormat::Json);
        let csv = o.windowed.as_ref().map_or(String::new(), |w| w.to_csv());
        std::hint::black_box(&json).len() + std::hint::black_box(&csv).len()
    })
}
