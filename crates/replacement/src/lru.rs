//! Least-recently-used replacement.
//!
//! The policy analyzed by Sleator and Tarjan \[47\] and used for both the TLB
//! and RAM in the paper's experiments (Section 6). O(1) per operation via an
//! intrusive recency list: front = most recent, back = victim.

use crate::list::IndexList;
use crate::policy::{Policy, PolicyKind, SlotId};

/// LRU policy state.
#[derive(Clone, Debug)]
pub struct Lru {
    recency: IndexList,
}

impl Lru {
    /// Creates LRU state for a cache of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            recency: IndexList::new(capacity),
        }
    }
}

impl Policy for Lru {
    #[inline]
    fn on_insert(&mut self, s: SlotId) {
        self.recency.push_front(s);
    }

    #[inline]
    fn on_hit(&mut self, s: SlotId) {
        self.recency.move_to_front(s);
    }

    #[inline]
    fn choose_victim(&mut self) -> SlotId {
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "policy contract: choose_victim is never called on an empty cache (CacheSim only evicts when full)")
        self.recency.back().expect("choose_victim on empty cache")
    }

    #[inline]
    fn on_remove(&mut self, s: SlotId) {
        self.recency.remove(s);
    }

    #[inline]
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    #[inline]
    fn touch(&self, s: SlotId) {
        self.recency.touch(s);
    }

    /// The list splice in [`Lru::on_hit`] (head swap, unlink, relink) is
    /// well above the repeat-tracking compare, and re-splicing the head to
    /// the front is idempotent.
    fn coalesces_repeat_hits(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSim;

    #[test]
    fn evicts_least_recent() {
        let mut c = CacheSim::new(3, Lru::new(3));
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // refresh 1; LRU order now 2,3,1
        let r = c.access(4);
        match r {
            crate::cache::AccessResult::Miss { evicted } => assert_eq!(evicted, Some(2)),
            _ => panic!(),
        }
    }

    #[test]
    fn sequential_scan_thrashes() {
        // Classic LRU worst case: cyclic scan of capacity+1 items misses always.
        let mut c = CacheSim::new(3, Lru::new(3));
        for i in 0..40u64 {
            let r = c.access(i % 4);
            if i >= 4 {
                assert!(!r.is_hit(), "access {i} unexpectedly hit");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = CacheSim::new(4, Lru::new(4));
        for i in 0..100u64 {
            let r = c.access(i % 4);
            if i >= 4 {
                assert!(r.is_hit());
            }
        }
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn kind_reports_lru() {
        assert_eq!(Lru::new(1).kind(), PolicyKind::Lru);
    }
}
