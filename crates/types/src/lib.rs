//! Common types for the Address-Translation Problem.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * newtyped page identifiers ([`VirtPage`], [`PhysPage`], [`VirtHugePage`]),
//! * multi-tenant vocabulary ([`Asid`], [`TaggedHugePage`], [`TenantOp`]),
//! * page-geometry arithmetic ([`HugePageGeometry`]) and parameter
//!   validation errors ([`ParamError`]),
//! * the **address-translation cost model** of Section 5 ([`CostModel`],
//!   [`Costs`]): each IO costs 1, each TLB miss costs `ε ∈ (0,1)`, each TLB
//!   hit costs 0, and decoding misses also cost `ε`,
//! * the hot-path profiling seam ([`ProfSink`], [`NoProf`]): logical
//!   operation accounting that compiles away when unused.
//!
//! Everything here is plain data with no behaviour beyond arithmetic, so the
//! crate has no dependencies at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asid;
pub mod cost;
pub mod error;
pub mod geometry;
pub mod page;
pub mod prof;
pub mod scale;

pub use asid::{Asid, TaggedHugePage, TenantOp};
pub use cost::{CostModel, Costs};
pub use error::{ParamError, Result};
pub use geometry::HugePageGeometry;
pub use page::{PhysPage, VirtHugePage, VirtPage, NULL_PHYS};
pub use prof::{EvictCause, NoProf, ProfSink, StageOp};
pub use scale::{pages_for_bytes, GIB, KIB, MIB, PAGE_SIZE};
