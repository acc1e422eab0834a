//! # rtx-relational — the relational database kernel
//!
//! The substrate shared by every other crate in this workspace:
//! atomic data elements ([`Value`], the universe **dom**), tuples and
//! facts, finite relations, database schemas and instances, multisets of
//! facts (message buffers), and isomorphisms of **dom** (for genericity
//! checks).
//!
//! Values are interned process-wide ([`intern`]: inline small ints,
//! shared symbol/big-int tables, `u32` [`Vid`]s), and relations run on
//! one of two storage engines (see [`StorageMode`]): the default
//! **adaptive** engine — small relations in a flat unsorted log,
//! promoted on growth or order demand to flat sorted runs of value ids
//! with galloping merge set algebra ([`runs`]) — and the original
//! **B-tree** engine (`RTX_STORAGE=btree`), kept as the equivalence
//! oracle. Both iterate in the same deterministic sorted order, which
//! the network simulator relies on for reproducible runs.
//!
//! Terminology follows Section 2 of *Ameloot, Neven, Van den Bussche,
//! "Relational transducers for declarative networking"* (PODS 2011).

#![warn(missing_docs)]

mod counted;
mod delta;
mod error;
mod fact;
mod index;
mod instance;
pub mod intern;
mod iso;
mod multiset;
mod relation;
pub mod runs;
mod schema;
mod value;

pub use counted::{row_tuple, vid_row, CountedRelation, VidRow};
pub use delta::{InstanceDelta, RelationDelta};
pub use error::RelError;
pub use fact::{Fact, RelName, Tuple};
pub use index::{Index, ProbeHits, ProbeIter, RowHits};
pub use instance::Instance;
pub use intern::{Symbol, Vid};
pub use iso::Iso;
pub use multiset::FactMultiset;
pub use relation::{adaptive_promote_len, adaptive_reentry_len, Relation, StorageMode};
pub use runs::{Run, SmallTail, StorageStats};
pub use schema::Schema;
pub use value::Value;
