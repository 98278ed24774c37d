//! The randomized Marking algorithm.
//!
//! The classic O(log k)-competitive randomized paging algorithm (Fiat, Karp,
//! Luby, McGeoch, Sleator & Young \[22\] — cited by the paper as part of the
//! classical-paging lineage): accesses *mark* items; a miss evicts a
//! uniformly random **unmarked** item; when every resident item is marked, a
//! new phase begins and all marks are cleared. Against oblivious adversaries
//! its expected miss count beats every deterministic policy's worst case.

use crate::policy::{Policy, PolicyKind, SlotId};
use crate::slot_set::{SlotPool, SlotVec};
use atp_hash::CounterRng;

/// Randomized-marking policy state.
#[derive(Clone, Debug)]
pub struct Marking {
    marked: SlotVec<bool>,
    /// Unmarked resident slots, as a swap-removable pool.
    unmarked: SlotPool,
    /// All resident slots (needed to start a new phase).
    resident: SlotPool,
    rng: CounterRng,
    /// Completed phases (exposed for analysis/tests).
    phases: u64,
}

impl Marking {
    /// Creates marking state for a cache of `capacity` slots.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            marked: SlotVec::filled(false, capacity),
            unmarked: SlotPool::with_capacity(capacity),
            resident: SlotPool::with_capacity(capacity),
            rng: CounterRng::new(seed, 0x3A7C),
            phases: 0,
        }
    }

    /// Number of completed phases so far.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    fn mark(&mut self, s: SlotId) {
        if !self.marked.at(s) {
            self.marked.set(s, true);
            self.unmarked.remove(s);
        }
    }
}

impl Policy for Marking {
    fn on_insert(&mut self, s: SlotId) {
        let inserted = self.resident.insert(s);
        debug_assert!(inserted, "inserting already-resident slot");
        // A newly fetched item is marked (it was just requested).
        self.marked.set(s, true);
        debug_assert!(!self.unmarked.contains(s));
    }

    fn on_hit(&mut self, s: SlotId) {
        self.mark(s);
    }

    fn choose_victim(&mut self) -> SlotId {
        if self.unmarked.is_empty() {
            // Phase boundary: clear all marks; every resident re-enters
            // the unmarked pool in resident order (the pool layout, and
            // thus the seeded victim sequence, stays deterministic).
            self.phases += 1;
            for i in 0..self.resident.len() {
                let s = self.resident.get(i);
                self.marked.set(s, false);
                self.unmarked.insert(s);
            }
        }
        let i = self.rng.next_below(self.unmarked.len() as u64) as usize;
        self.unmarked.get(i)
    }

    fn on_remove(&mut self, s: SlotId) {
        self.unmarked.remove(s);
        self.marked.set(s, false);
        let removed = self.resident.remove(s);
        debug_assert!(removed, "removing untracked slot");
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Marking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSim;

    #[test]
    fn marked_items_survive_the_phase() {
        let mut c = CacheSim::new(3, Marking::new(3, 1));
        c.access(1);
        c.access(2);
        c.access(3);
        // All three are marked (fetched this phase). Accessing 4 forces a
        // phase boundary; exactly one of {1,2,3} is evicted.
        c.access(4);
        let survivors = [1u64, 2, 3].iter().filter(|k| c.contains(k)).count();
        assert_eq!(survivors, 2);
        assert!(c.contains(&4));
    }

    #[test]
    fn hit_marks_and_protects_within_phase() {
        // After the phase starts, re-accessed items must not be evicted
        // while unmarked ones remain.
        let mut c = CacheSim::new(3, Marking::new(3, 2));
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(4); // new phase began; 4 marked, two of {1,2,3} unmarked
        let present: Vec<u64> = [1u64, 2, 3].into_iter().filter(|k| c.contains(k)).collect();
        // Mark one survivor; the next eviction must take the other.
        c.access(present[0]);
        c.access(5);
        assert!(c.contains(&present[0]), "marked survivor evicted");
        assert!(!c.contains(&present[1]), "unmarked item should have gone");
    }

    #[test]
    fn beats_lru_worst_case_on_cyclic_scan() {
        use crate::lru::Lru;
        // The adversarial cap+1 cycle: LRU misses every access; marking
        // misses ~H_k per phase of k+1 accesses in expectation.
        let cap = 16;
        let universe = cap as u64 + 1;
        let mut marking = CacheSim::new(cap, Marking::new(cap, 3));
        let mut lru = CacheSim::new(cap, Lru::new(cap));
        let (mut mm, mut ml) = (0u64, 0u64);
        for i in 0..5_000u64 {
            mm += u64::from(!marking.access(i % universe).is_hit());
            ml += u64::from(!lru.access(i % universe).is_hit());
        }
        assert_eq!(ml, 5_000, "LRU thrashes by construction");
        assert!(mm < 3_000, "randomized marking should miss far less: {mm}");
    }

    #[test]
    fn phase_counter_advances() {
        let mut c = CacheSim::new(2, Marking::new(2, 4));
        for k in 0..20u64 {
            c.access(k);
        }
        assert!(c.policy().phases() >= 5);
    }

    #[test]
    fn remove_keeps_pools_consistent() {
        let mut c = CacheSim::new(4, Marking::new(4, 5));
        for k in 0..4u64 {
            c.access(k);
        }
        c.access(5); // phase boundary, eviction
        c.remove(&5);
        // Keep churning; internal pools must stay consistent (debug asserts).
        for k in 10..40u64 {
            c.access(k);
        }
        assert!(c.len() <= 4);
    }
}
