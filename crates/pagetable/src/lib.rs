//! Page-table substrates with walk-cost accounting.
//!
//! The paper's model calls the in-RAM dictionary of address translations the
//! *page table*; a TLB miss costs `ε` precisely because resolving it walks
//! this structure ("hundreds or even thousands of CPU cycles" — Section 1).
//! To let experiments ground `ε` in structural terms, this crate provides two
//! page-table organizations that count the memory touches of every walk:
//!
//! * [`RadixPageTable`] — the x86-64 4-level radix tree (9 bits per level,
//!   512-entry nodes), with huge leaf entries at 2 MB- and 1 GB-equivalent
//!   boundaries. A full walk touches 4 table pages; huge leaves shorten it.
//! * [`HashPageTable`] — an open-addressing inverted-style table (linear
//!   probing, tombstone deletion, automatic rehash), where a walk costs the
//!   probe length.
//!
//! Both implement [`PageTable`]; the `A-ptw` ablation bench compares their
//! walk-touch distributions under the paper's workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash_table;
pub mod nested;
pub mod pwc;
pub mod radix;

pub use hash_table::HashPageTable;
pub use nested::NestedTranslation;
pub use pwc::CachedWalker;
pub use radix::RadixPageTable;

use atp_types::{PhysPage, VirtPage};

/// Statistics for one page-table operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Number of table memory locations touched (page-table pages for the
    /// radix table, probe slots for the hash table).
    pub touches: u64,
}

/// A page table: a dictionary from virtual to physical page addresses that
/// accounts for the memory touches of every operation.
pub trait PageTable {
    /// Maps `v → p`, returning walk stats. Overwrites any existing mapping.
    fn map(&mut self, v: VirtPage, p: PhysPage) -> WalkStats;

    /// Removes the mapping for `v`, returning the physical page if mapped.
    fn unmap(&mut self, v: VirtPage) -> (Option<PhysPage>, WalkStats);

    /// Translates `v`, returning the physical page if mapped.
    fn translate(&self, v: VirtPage) -> (Option<PhysPage>, WalkStats);

    /// Number of mapped base pages.
    fn mapped(&self) -> u64;

    /// Structural memory overhead, in 4 kB table pages.
    fn table_pages(&self) -> u64;
}
