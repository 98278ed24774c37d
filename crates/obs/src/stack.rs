//! Observer composition for runs that want several captures at once.
//!
//! [`Shared<T>`] wraps any observer in `Rc<RefCell>`: clone one handle
//! into the pipeline (which owns its observer) and keep another to read
//! results after the run. [`RunObserver`]
//! bundles the three capture layers a CLI run can request — counters
//! ([`Recorder`]), structured events ([`EventLog`]), and windowed time
//! series ([`Windowed`]) — behind one `SimObserver`, with the unused layers
//! as `None`.

use crate::event::{EventKind, EventLog};
use crate::phase::PhaseConfig;
use crate::window::Windowed;
use atp_memmgmt::{AccessReport, EvictionEvent, Recorder, SimObserver, TlbEvent};
use atp_types::VirtPage;
use std::cell::RefCell;
use std::rc::Rc;

/// A cloneable single-threaded handle to any observer.
#[derive(Debug, Default)]
pub struct Shared<T>(Rc<RefCell<T>>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<T> Shared<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Shared(Rc::new(RefCell::new(inner)))
    }

    /// Runs `f` on the inner observer.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Runs `f` on the inner observer, mutably.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl<T: SimObserver> SimObserver for Shared<T> {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.0.borrow_mut().on_access(v, report);
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        self.0.borrow_mut().on_tlb_event(event);
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.0.borrow_mut().on_eviction(event);
    }

    fn on_decode_miss(&mut self, v: VirtPage) {
        self.0.borrow_mut().on_decode_miss(v);
    }

    fn on_batch_boundary(&mut self, len: usize) {
        self.0.borrow_mut().on_batch_boundary(len);
    }
}

/// All capture layers one run can request. The recorder is always present
/// (it is cheap and every export wants its counters); events and windows
/// are attached on demand.
#[derive(Clone, Debug)]
pub struct RunObserver {
    /// Per-stage counters and histograms.
    pub recorder: Recorder,
    /// Structured event ring, if `--trace-events` was requested.
    pub events: Option<EventLog>,
    /// Windowed time series, if `--window` was requested.
    pub windowed: Option<Windowed>,
}

impl RunObserver {
    /// A recorder-only observer.
    pub fn new(recorder: Recorder) -> Self {
        RunObserver {
            recorder,
            events: None,
            windowed: None,
        }
    }

    /// Attaches an event ring of `capacity` events.
    pub fn with_events(mut self, capacity: usize) -> Self {
        self.events = Some(EventLog::new(capacity));
        self
    }

    /// Attaches a windowed time series.
    pub fn with_window(mut self, window: u64, epsilon: f64) -> Self {
        self.windowed = Some(Windowed::new(window, epsilon));
        self
    }

    /// Enables phase detection on the attached window layer. Boundaries
    /// are stamped into the rows/CSV and, if an event ring is attached,
    /// forwarded as `phase_boundary` events.
    ///
    /// # Panics
    /// Panics if no window layer is attached ([`RunObserver::with_window`]
    /// first).
    pub fn with_phases(mut self, config: PhaseConfig) -> Self {
        let w = self
            .windowed
            .take()
            // atp-lint: allow(unwrap-policy, reason = "builder misuse is a programming error; the panic is documented")
            .expect("phase detection requires a window layer");
        self.windowed = Some(w.with_phases(config));
        self
    }
}

impl SimObserver for RunObserver {
    fn on_access(&mut self, v: VirtPage, report: AccessReport) {
        self.recorder.on_access(v, report);
        if let Some(e) = &mut self.events {
            e.on_access(v, report);
        }
        if let Some(w) = &mut self.windowed {
            w.on_access(v, report);
            if let Some(e) = &mut self.events {
                for b in w.take_boundaries() {
                    e.record(EventKind::PhaseBoundary {
                        phase: b.phase,
                        from_ppm: b.from_ppm,
                        to_ppm: b.to_ppm,
                    });
                }
            }
        }
    }

    fn on_tlb_event(&mut self, event: TlbEvent) {
        self.recorder.on_tlb_event(event);
        if let Some(e) = &mut self.events {
            e.on_tlb_event(event);
        }
        if let Some(w) = &mut self.windowed {
            w.on_tlb_event(event);
        }
    }

    fn on_eviction(&mut self, event: EvictionEvent) {
        self.recorder.on_eviction(event);
        if let Some(e) = &mut self.events {
            e.on_eviction(event);
        }
        if let Some(w) = &mut self.windowed {
            w.on_eviction(event);
        }
    }

    fn on_decode_miss(&mut self, v: VirtPage) {
        self.recorder.on_decode_miss(v);
        if let Some(e) = &mut self.events {
            e.on_decode_miss(v);
        }
        if let Some(w) = &mut self.windowed {
            w.on_decode_miss(v);
        }
    }

    fn on_batch_boundary(&mut self, len: usize) {
        self.recorder.on_batch_boundary(len);
        if let Some(e) = &mut self.events {
            e.on_batch_boundary(len);
        }
        if let Some(w) = &mut self.windowed {
            w.on_batch_boundary(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_report() -> AccessReport {
        AccessReport {
            tlb_miss: true,
            ios: 1,
            decode_miss: false,
            paging_failure: false,
        }
    }

    #[test]
    fn shared_handle_reads_after_moves() {
        let shared = Shared::new(EventLog::new(8));
        let mut handle = shared.clone();
        handle.on_tlb_event(TlbEvent::Miss);
        handle.on_access(VirtPage(1), miss_report());
        assert_eq!(shared.with(|e| e.len()), 2);
        assert_eq!(shared.with(|e| e.clock()), 1);
    }

    #[test]
    fn run_observer_feeds_every_layer() {
        let mut obs = RunObserver::new(Recorder::without_reuse_tracking())
            .with_events(16)
            .with_window(2, 0.01);
        for i in 0..4u64 {
            obs.on_tlb_event(TlbEvent::Miss);
            obs.on_access(VirtPage(i), miss_report());
        }
        obs.on_batch_boundary(4);
        assert_eq!(obs.recorder.counters().tlb_misses, 4);
        assert_eq!(
            obs.events.as_ref().unwrap().recorded(),
            9,
            "4 misses + 4 faults + batch"
        );
        assert_eq!(obs.windowed.as_ref().unwrap().rows().len(), 2);
    }

    #[test]
    fn phase_boundaries_land_in_the_event_log() {
        let mut obs = RunObserver::new(Recorder::without_reuse_tracking())
            .with_events(64)
            .with_window(4, 0.01)
            .with_phases(PhaseConfig {
                warm_windows: 2,
                abs_floor_ppm: 20_000,
                rel_pct: 50,
            });
        // 8 clean accesses (2 warm windows), then 8 all-miss accesses.
        for i in 0..16u64 {
            let miss = i >= 8;
            obs.on_tlb_event(if miss { TlbEvent::Miss } else { TlbEvent::Hit });
            obs.on_access(
                VirtPage(i),
                AccessReport {
                    tlb_miss: miss,
                    ios: 0,
                    decode_miss: false,
                    paging_failure: false,
                },
            );
        }
        let log = obs.events.as_ref().unwrap();
        let boundary = log
            .events()
            .find(|e| e.kind.name() == "phase_boundary")
            .expect("boundary event injected");
        assert_eq!(
            boundary.kind,
            EventKind::PhaseBoundary {
                phase: 1,
                from_ppm: 0,
                to_ppm: 1_000_000
            }
        );
        assert_eq!(boundary.clock, 12, "stamped when window 2 closed");
        let w = obs.windowed.as_ref().unwrap();
        assert_eq!(w.detector().unwrap().boundaries().len(), 1);
        assert!(w.to_csv().lines().next().unwrap().ends_with(",phase"));
    }

    #[test]
    #[should_panic(expected = "requires a window layer")]
    fn phases_without_window_rejected() {
        RunObserver::new(Recorder::new()).with_phases(PhaseConfig::default());
    }

    #[test]
    fn layers_default_off() {
        let obs = RunObserver::new(Recorder::new());
        assert!(obs.events.is_none());
        assert!(obs.windowed.is_none());
    }
}
