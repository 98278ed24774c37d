//! The translation pipeline.
//!
//! Every memory manager in this crate is a [`Stages`] implementation whose
//! [`Stages::access`] services one request end to end, in the order its
//! hardware would: probe the TLB, make the page resident (IOs, evictions,
//! in-place updates of the decoupling scheme), then install or refresh
//! translations (ψ(u) fills, decode-miss re-encodes). Managers that touch
//! RAM first (the classic and THP simulators) probe the TLB once, after
//! residency; the IO-only algorithm `Y` never probes it.
//!
//! [`Pipeline`] owns the stages plus a [`SimObserver`], emits the
//! per-access observer epilogue (the `Hit`/`Miss` event, the decode miss
//! and `on_access`), keeps the [`Costs`] tally, and runs the batched lane
//! loop. Managers report only their own stage events; all tally and
//! epilogue plumbing lives here, once.

use crate::observe::{NoopObserver, SimObserver, TlbEvent};
use crate::traits::{tally, AccessReport, MemoryManager};
use atp_types::{Costs, ProfSink, StageOp, VirtPage};

/// A memory manager's state and its per-access step.
///
/// [`Stages::access`] is generic over the observer so that a
/// `NoopObserver` pipeline monomorphizes to the bare access path.
/// Implementations report stage events (fills, evictions, shootdowns)
/// only through `obs`; cost accounting goes through the returned
/// [`AccessReport`] and is tallied centrally by [`Pipeline`].
pub trait Stages {
    /// Services one request for `addr`: TLB probe, residency, translate.
    /// The report's `tlb_miss` stays `false` for a manager with no TLB in
    /// the request path (the model charges nothing for it).
    fn access<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> AccessReport;

    /// Human-readable description for reports.
    fn name(&self) -> String;

    /// Warms cache lines for a small window of upcoming addresses (the
    /// prefetch stage of [`Pipeline::access_batch`]). Takes `&self` so
    /// implementations are structurally incapable of changing outcomes:
    /// they may only touch probe lines (`CacheSim::touch`, `Tlb::touch`),
    /// never policy state, counters, or membership. Default: no-op.
    fn prepare_batch(&self, _addrs: &[VirtPage]) {}

    /// Batched fast path: retires the *leading* run of `addrs` that are
    /// pure hits at every stage — no IOs, no TLB miss, no evictions, no
    /// stage-level observer events — applying exactly the per-access hit
    /// effects (policy refresh + hit counters) in access order, and
    /// returns how long that run is. The remaining lanes replay through
    /// [`Stages::access`].
    ///
    /// Implementations typically wide-probe their caches over the whole
    /// lane group (overlapping the probe misses), then retire the prefix
    /// whose lanes resolved everywhere. Stopping at the first non-hit is
    /// what keeps this bit-for-bit equal to sequential retirement: hits
    /// never change membership, so the group's probe resolutions stay
    /// valid exactly until the first lane that must mutate. Default: 0
    /// (every lane replays; no fast path).
    fn retire_batch(&mut self, _addrs: &[VirtPage]) -> usize {
        0
    }
}

/// Width of the [`Pipeline::access_batch`] prefetch window: addresses are
/// prepared this many ahead so the touched lines are still resident when
/// their access retires.
pub const PREPARE_LANES: usize = 16;

/// A staged, observable memory manager: [`Stages`] + [`SimObserver`] +
/// the shared cost tally.
#[derive(Debug)]
pub struct Pipeline<S: Stages, O: SimObserver = NoopObserver> {
    stages: S,
    observer: O,
    costs: Costs,
}

impl<S: Stages> Pipeline<S> {
    /// Builds an unobserved pipeline (zero-cost [`NoopObserver`]).
    pub fn from_stages(stages: S) -> Self {
        Pipeline::with_observer(stages, NoopObserver)
    }
}

impl<S: Stages, O: SimObserver> Pipeline<S, O> {
    /// Builds a pipeline with an explicit observer.
    pub fn with_observer(stages: S, observer: O) -> Self {
        Pipeline {
            stages,
            observer,
            costs: Costs::default(),
        }
    }

    /// The manager's stage state (TLBs, RAM caches, schemes…).
    pub fn stages(&self) -> &S {
        &self.stages
    }

    /// Mutable stage state (for tests and calibration drivers).
    pub fn stages_mut(&mut self) -> &mut S {
        &mut self.stages
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the pipeline, returning the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }
}

impl<S: Stages, O: SimObserver> MemoryManager for Pipeline<S, O> {
    fn access(&mut self, v: VirtPage) -> AccessReport {
        let report = self.stages.access(v, &mut self.observer);
        self.observer.on_tlb_event(if report.tlb_miss {
            TlbEvent::Miss
        } else {
            TlbEvent::Hit
        });
        if report.decode_miss {
            self.observer.on_decode_miss(v);
        }
        tally(&mut self.costs, report);
        self.observer.on_access(v, report);
        report
    }

    fn costs(&self) -> Costs {
        self.costs
    }

    fn reset_costs(&mut self) {
        self.costs = Costs::default();
    }

    fn name(&self) -> String {
        self.stages.name()
    }

    fn batch_boundary(&mut self, len: usize) {
        self.observer.on_batch_boundary(len);
    }

    /// Software-pipelined batch drive: for each [`PREPARE_LANES`]-wide
    /// window, let the stages warm their probe lines
    /// ([`Stages::prepare_batch`], a `&self` hook that cannot change
    /// outcomes), retire the leading pure-hit run in one group step
    /// ([`Stages::retire_batch`]), and replay the rest in order through
    /// [`Self::access`]. Bit-for-bit equivalent to per-access
    /// [`Self::access`], including the observer event stream: a pure hit
    /// emits no stage events either way, so the fast path reproduces the
    /// pipeline-level `Hit` + access report verbatim.
    ///
    /// With an enabled `prof`, each window also reports its fast-path
    /// occupancy and per-stage op counts (every lane is prepared; retired
    /// lanes skip the stage walk; each replayed lane counts once under
    /// each of the TLB, residency and translate stages).
    fn access_batch(&mut self, vs: &[VirtPage], prof: &mut dyn ProfSink) {
        let profiled = prof.enabled();
        for sub in vs.chunks(PREPARE_LANES) {
            self.stages.prepare_batch(sub);
            let retired = self.stages.retire_batch(sub);
            debug_assert!(retired <= sub.len(), "retired more lanes than given");
            if profiled {
                prof.lane_occupancy(retired as u64);
                prof.stage_op(StageOp::Prepare, sub.len() as u64);
                if retired > 0 {
                    prof.stage_op(StageOp::RetireFast, retired as u64);
                }
                let replayed = (sub.len() - retired) as u64;
                if replayed > 0 {
                    prof.stage_op(StageOp::Tlb, replayed);
                    prof.stage_op(StageOp::Residency, replayed);
                    prof.stage_op(StageOp::Translate, replayed);
                }
            }
            for &v in &sub[..retired] {
                // The per-access epilogue of a pure hit: `report` stays at
                // its default (no miss, no IOs, no decode miss).
                self.observer.on_tlb_event(TlbEvent::Hit);
                tally(&mut self.costs, AccessReport::default());
                self.observer.on_access(v, AccessReport::default());
            }
            for &v in &sub[retired..] {
                self.access(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Recorder;

    /// A toy manager: direct-mapped one-entry TLB over an infinite RAM
    /// that faults on first touch.
    struct Toy {
        tlb: Option<u64>,
        resident: std::collections::HashSet<u64>,
    }

    impl Stages for Toy {
        fn access<O: SimObserver>(&mut self, addr: VirtPage, obs: &mut O) -> AccessReport {
            let mut report = AccessReport {
                tlb_miss: self.tlb != Some(addr.0),
                ..AccessReport::default()
            };
            if self.resident.insert(addr.0) {
                report.ios = 1;
            }
            if report.tlb_miss {
                self.tlb = Some(addr.0);
                obs.on_tlb_event(TlbEvent::Fill);
            }
            report
        }

        fn name(&self) -> String {
            "toy".into()
        }
    }

    fn toy() -> Toy {
        Toy {
            tlb: None,
            resident: Default::default(),
        }
    }

    #[test]
    fn pipeline_tallies_and_reports() {
        let mut p = Pipeline::from_stages(toy());
        let r = p.access(VirtPage(7));
        assert!(r.tlb_miss);
        assert_eq!(r.ios, 1);
        let r = p.access(VirtPage(7));
        assert!(!r.tlb_miss);
        assert_eq!(r.ios, 0);
        let c = p.costs();
        assert_eq!(c.accesses, 2);
        assert_eq!(c.tlb_misses, 1);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.ios, 1);
        assert_eq!(p.name(), "toy");
    }

    #[test]
    fn observer_sees_stage_events() {
        let mut p = Pipeline::with_observer(toy(), Recorder::new());
        p.access(VirtPage(1));
        p.access(VirtPage(1));
        p.access(VirtPage(2));
        p.batch_boundary(3);
        let c = p.observer().counters();
        assert_eq!(c.tlb_misses, 2);
        assert_eq!(c.tlb_hits, 1);
        assert_eq!(c.tlb_fills, 2);
        assert_eq!(c.faults, 2);
        assert_eq!(c.residency_hits, 1);
        assert_eq!(c.batches, 1);
        assert_eq!(p.observer().accesses(), 3);
    }

    #[test]
    fn profiled_batch_matches_unprofiled_and_accounts_stages() {
        use atp_types::{EvictCause, NoProf, ProfSink};

        #[derive(Default)]
        struct Tally {
            lanes: Vec<u64>,
            ops: std::collections::BTreeMap<&'static str, u64>,
            evictions: u64,
        }
        impl ProfSink for Tally {
            fn lane_occupancy(&mut self, retired: u64) {
                self.lanes.push(retired);
            }
            fn stage_op(&mut self, op: StageOp, n: u64) {
                *self.ops.entry(op.name()).or_insert(0) += n;
            }
            fn eviction(&mut self, _cause: EvictCause) {
                self.evictions += 1;
            }
        }

        let trace: Vec<VirtPage> = (0..40).map(|i| VirtPage(i % 7)).collect();
        let mut plain = Pipeline::from_stages(toy());
        plain.access_batch(&trace, &mut NoProf);
        let mut prof = Pipeline::from_stages(toy());
        let mut t = Tally::default();
        prof.access_batch(&trace, &mut t);

        assert_eq!(
            prof.costs(),
            plain.costs(),
            "profiling must not change outcomes"
        );
        // Toy has no fast path: every lane group retires zero lanes and
        // replays everything through `Stages::access`.
        assert_eq!(t.lanes, vec![0, 0, 0]);
        assert_eq!(t.ops["prepare"], 40);
        assert_eq!(t.ops.get("retire_fast"), None);
        assert_eq!(t.ops["tlb"], 40);
        assert_eq!(t.ops["residency"], 40);
        assert_eq!(t.ops["translate"], 40);
    }

    #[test]
    fn reset_costs_keeps_stage_state() {
        let mut p = Pipeline::from_stages(toy());
        p.access(VirtPage(1));
        p.reset_costs();
        assert_eq!(p.costs(), Costs::default());
        let r = p.access(VirtPage(1));
        assert_eq!(r.ios, 0, "residency survives the reset");
    }
}
