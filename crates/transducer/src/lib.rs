//! # rtx-transducer — abstract relational transducers
//!
//! The machine model of the paper (Section 2.1, with the Section 3
//! proviso): a deterministic data-centric agent specified by queries
//! `Q_snd^R` (per message relation), `Q_ins^R` / `Q_del^R` (per memory
//! relation) and `Q_out`, over the combined schema
//! `S_in ∪ {Id, All} ∪ S_msg ∪ S_mem`.
//!
//! The local language is pluggable ([`rtx_query::Query`] objects), so
//! FO-, UCQ¬-, (nonrecursive-)Datalog-, while- and abstract transducers
//! are all built with the same [`TransducerBuilder`].
//!
//! Syntactic classification — *oblivious*, *inflationary*, *monotone* —
//! lives in [`Classification`]; network execution lives in `rtx-net`.
//!
//! A [`Transducer`] is immutable after construction and `Send + Sync`
//! (its queries are `Arc<dyn Query + Send + Sync>` and all query-plan
//! caches are thread-safe), so one instance is shared by reference by
//! every node of a network simulation, including across the worker
//! shards of `rtx-net`'s sharded executor. No per-node clones are ever
//! needed.

#![warn(missing_docs)]

mod builder;
mod classify;
mod schema;
mod transducer;

pub use builder::TransducerBuilder;
pub use classify::{Classification, SystemUsage};
pub use schema::{all_relation, system_schema, TransducerSchema, SYS_ALL, SYS_ID};
pub use transducer::{StepResult, Transducer};

/// Shared owning handle to a transducer, for callers that need to keep
/// one alive beyond a borrow (e.g. a long-lived scheduler or service).
/// The executors in `rtx-net` themselves only need `&Transducer` —
/// sharding works by borrowing, not by cloning handles.
pub type TransducerRef = std::sync::Arc<Transducer>;

// The sharded network runtime hands `&Transducer` to worker threads;
// this is the compile-time guarantee that makes that sound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Transducer>();
    assert_send_sync::<TransducerRef>();
};
