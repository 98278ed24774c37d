//! Most-recently-used replacement.
//!
//! Evicts the item touched most recently. Pathological under temporal
//! locality but optimal for cyclic scans slightly larger than the cache —
//! we keep it as a comparator (cf. "the worst page-replacement policy" \[6\]).

use crate::list::IndexList;
use crate::policy::{Policy, PolicyKind, SlotId};

/// MRU policy state.
#[derive(Clone, Debug)]
pub struct Mru {
    recency: IndexList,
}

impl Mru {
    /// Creates MRU state for a cache of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            recency: IndexList::new(capacity),
        }
    }
}

impl Policy for Mru {
    fn on_insert(&mut self, s: SlotId) {
        self.recency.push_front(s);
    }

    fn on_hit(&mut self, s: SlotId) {
        self.recency.move_to_front(s);
    }

    fn choose_victim(&mut self) -> SlotId {
        // atp-lint: allow(unwrap-policy, no-panic-hotpath, reason = "policy contract: choose_victim is never called on an empty cache (CacheSim only evicts when full)")
        self.recency.front().expect("choose_victim on empty cache")
    }

    fn on_remove(&mut self, s: SlotId) {
        self.recency.remove(s);
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Mru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessResult, CacheSim};

    #[test]
    fn evicts_most_recent() {
        let mut c = CacheSim::new(2, Mru::new(2));
        c.access(1);
        c.access(2);
        match c.access(3) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(2)),
            _ => panic!(),
        }
        assert!(c.contains(&1));
    }

    #[test]
    fn beats_lru_on_cyclic_scan() {
        use crate::lru::Lru;
        let cap = 8;
        let universe = 9u64; // one more than capacity
        let mut mru = CacheSim::new(cap, Mru::new(cap));
        let mut lru = CacheSim::new(cap, Lru::new(cap));
        let mut mru_hits = 0u64;
        let mut lru_hits = 0u64;
        for i in 0..1000 {
            mru_hits += u64::from(mru.access(i % universe).is_hit());
            lru_hits += u64::from(lru.access(i % universe).is_hit());
        }
        assert_eq!(lru_hits, 0, "LRU must thrash on a cap+1 cycle");
        assert!(mru_hits > 500, "MRU should retain most of the cycle");
    }
}
