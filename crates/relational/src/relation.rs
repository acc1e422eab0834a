//! Finite relations: ordered sets of tuples of a fixed arity.
//!
//! Two physical storage engines live behind the one `Relation` API:
//!
//! * **adaptive** (the default): relations stay in a flat *unsorted*
//!   append log with tombstones ([`SmallTail`]) while they are small —
//!   inserts, removes, and membership are O(tail) linear probes with
//!   zero sort/fold cost, exactly the shape of the round executors'
//!   tiny per-node relations — and **promote** to sorted columnar runs
//!   when they outgrow [`adaptive_promote_len`], when a consumer
//!   demands order while they sit above the hysteresis floor
//!   ([`adaptive_reentry_len`], a quarter of the promotion threshold),
//!   or when a bulk run absorption carries them past the floor. A
//!   promoted relation is an immutable sorted [`Run`] of flat
//!   `Vec<Vid>` columns plus small sorted add/delete *tails*; reads
//!   that need the full sorted view fold the tails into a fresh run
//!   once (cached until the next mutation), set algebra and delta
//!   application are galloping merge walks over runs, and indexes are
//!   permutation/range views into the run. Promotion is one-way per
//!   growth episode; bulk rebuilds (delta application, query outputs,
//!   [`crate::Instance::set_relation`]) re-enter the small regime only
//!   at or below the floor — keeping the folded run as the pre-built
//!   sorted cache — so churn-heavy workloads never flap;
//! * **btree** (`RTX_STORAGE=btree`): the original `BTreeSet<Tuple>`
//!   representation, kept as the equivalence oracle.
//!
//! Both engines present identical *values*: same iteration order, same
//! equality, same `Ord` — `tests/storage.rs` holds them to that under
//! randomized schedules, with the adaptive engine in both of its
//! regimes. Mixed-mode comparisons are supported (an adaptive relation
//! can equal a btree one).

use crate::counted::row_tuple;
use crate::delta::RelationDelta;
use crate::error::RelError;
use crate::fact::Tuple;
use crate::index::Index;
use crate::intern::Vid;
use crate::runs::{Run, SmallTail, StatCells, StorageStats};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Which physical storage engine a [`Relation`] uses.
///
/// The process-wide default is [`StorageMode::Adaptive`], overridable
/// with `RTX_STORAGE=btree` (the oracle engine); individual relations
/// and instances can be built in an explicit mode with the `*_in`
/// constructors, e.g. for in-process equivalence testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageMode {
    /// Ordered-set storage: `BTreeSet<Tuple>` + cached hash indexes.
    Btree,
    /// Per-relation adaptive storage: small relations live in a flat
    /// unsorted log ([`SmallTail`]) and promote to sorted columnar
    /// runs when they outgrow [`adaptive_promote_len`] or a consumer
    /// demands order above the [`adaptive_reentry_len`] hysteresis
    /// floor.
    Adaptive,
}

impl StorageMode {
    /// Parse a mode name (`"btree"` / `"adaptive"`).
    pub fn parse(s: &str) -> Option<StorageMode> {
        match s.to_ascii_lowercase().as_str() {
            "btree" => Some(StorageMode::Btree),
            "adaptive" | "auto" => Some(StorageMode::Adaptive),
            _ => None,
        }
    }

    /// The process-wide default mode: `RTX_STORAGE` if set and valid,
    /// else [`StorageMode::Adaptive`]. Read once and cached.
    pub fn global() -> StorageMode {
        static MODE: OnceLock<StorageMode> = OnceLock::new();
        *MODE.get_or_init(|| {
            rtx_core::env::parse_choice("RTX_STORAGE", "btree|adaptive", StorageMode::parse)
                .unwrap_or(StorageMode::Adaptive)
        })
    }

    /// Can relations of this mode hand out sorted runs
    /// ([`Relation::columnar_run`] is always `Some`)? True for
    /// [`StorageMode::Adaptive`] — the run-based query executors
    /// branch on this.
    pub fn uses_runs(self) -> bool {
        self == StorageMode::Adaptive
    }
}

/// The live-tuple count at which an adaptive small relation promotes
/// to sorted columnar runs. The `storage-adaptive/threshold-sweep`
/// bench group justifies the value empirically.
pub const fn adaptive_promote_len() -> usize {
    256
}

/// The hysteresis floor of the adaptive engine: a quarter of
/// [`adaptive_promote_len`]. Order demands on relations at or below
/// this size never trigger promotion, and bulk rebuilds re-enter the
/// small regime only at or below it — a promoted relation is never
/// demoted above the floor, so promote/demote cycles cannot flap.
pub const fn adaptive_reentry_len() -> usize {
    adaptive_promote_len() / 4
}

/// Lazily built secondary hash indexes for the btree engine, keyed by
/// indexed column subset.
///
/// The cache never influences a relation's value: it is skipped by
/// `Clone`/`Eq`/`Ord` and dropped whenever the tuple set mutates. (The
/// adaptive engine needs no such cache — its index views hang off the
/// sorted run itself, one lock-free chain per run generation.)
#[derive(Default)]
struct IndexCache(RwLock<BTreeMap<Box<[usize]>, Arc<Index>>>);

impl IndexCache {
    fn clear(&mut self) {
        // `&mut self` guarantees exclusivity; no lock needed.
        self.0.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The promoted regime of the adaptive engine: an immutable sorted
/// base run plus small mutable tails, folded together on demand.
///
/// Invariants: `adds ∩ base = ∅` and `dels ⊆ base` (so `adds` and
/// `dels` are disjoint and `len = base − dels + adds` exactly); the
/// `merged` cache, when set, is exactly `(base ∖ dels) ∪ adds` — any
/// mutation first *adopts* a set `merged` as the new base (advancing
/// the run generation) and always leaves `merged` unset. A bulk
/// rebuild that lands at or below [`adaptive_reentry_len`] demotes the
/// relation back to the small regime.
#[derive(Clone)]
struct ColStore {
    base: Arc<Run>,
    adds: BTreeSet<Tuple>,
    dels: BTreeSet<Tuple>,
    merged: OnceLock<Arc<Run>>,
    stats: StatCells,
}

impl ColStore {
    fn new(base: Arc<Run>) -> ColStore {
        ColStore {
            base,
            adds: BTreeSet::new(),
            dels: BTreeSet::new(),
            merged: OnceLock::new(),
            stats: StatCells::default(),
        }
    }

    fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    fn contains(&self, t: &Tuple) -> bool {
        self.adds.contains(t) || (!self.dels.contains(t) && self.base.contains(t))
    }

    /// The current sorted run — the base itself when the tails are
    /// empty, else the cached fold of base and tails.
    fn run(&self) -> &Arc<Run> {
        if self.adds.is_empty() && self.dels.is_empty() {
            &self.base
        } else {
            if self.merged.get().is_none() {
                self.stats.note_fold();
            }
            self.merged.get_or_init(|| {
                let add: Vec<Tuple> = self.adds.iter().cloned().collect();
                let del: Vec<Tuple> = self.dels.iter().cloned().collect();
                Arc::new(self.base.apply_sorted(&add, &del))
            })
        }
    }

    /// If a read has already folded the tails into a run, promote it to
    /// be the new base (fresh run generation); otherwise just drop the
    /// stale cache. Called before every mutation.
    fn adopt(&mut self) {
        if let Some(m) = self.merged.take() {
            self.base = m;
            self.adds.clear();
            self.dels.clear();
        }
    }

    /// Replace the contents with a freshly built run (bulk rebuild),
    /// keeping the counters.
    fn replace_base(&mut self, run: Run) {
        self.base = Arc::new(run);
        self.adds.clear();
        self.dels.clear();
        self.merged = OnceLock::new();
    }

    fn note_tail(&self) {
        self.stats.note_tail_len(self.adds.len() + self.dels.len());
    }
}

enum Store {
    Btree {
        tuples: BTreeSet<Tuple>,
        cache: IndexCache,
    },
    Col(ColStore),
    Small(SmallTail),
}

/// A finite `k`-ary relation on **dom**.
///
/// Iteration order is deterministic (sorted) whatever the storage
/// engine — the whole simulator relies on runs being pure functions of
/// their inputs. Joins can additionally request a cached secondary
/// [`Index`] on any column subset via [`Relation::index`].
pub struct Relation {
    arity: usize,
    store: Store,
}

/// Build an adaptive-mode store from sorted, duplicate-free tuples:
/// the small regime at or below the hysteresis floor, a promoted run
/// above it.
fn adaptive_store_from_sorted(arity: usize, tuples: Vec<Tuple>) -> Store {
    if tuples.len() <= adaptive_reentry_len() {
        Store::Small(SmallTail::from_sorted(arity, tuples))
    } else {
        let run = Run::from_sorted(arity, tuples.iter());
        Store::Col(ColStore::new(Arc::new(run)))
    }
}

impl Relation {
    /// The empty relation of the given arity, in the process default
    /// storage mode.
    pub fn empty(arity: usize) -> Self {
        Relation::empty_in(StorageMode::global(), arity)
    }

    /// The empty relation of the given arity in an explicit mode.
    pub fn empty_in(mode: StorageMode, arity: usize) -> Self {
        let store = match mode {
            StorageMode::Btree => Store::Btree {
                tuples: BTreeSet::new(),
                cache: IndexCache::default(),
            },
            StorageMode::Adaptive => Store::Small(SmallTail::new(arity)),
        };
        Relation { arity, store }
    }

    /// Build from tuples, validating arity.
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelError> {
        Relation::from_tuples_in(StorageMode::global(), arity, tuples)
    }

    /// Build from tuples in an explicit mode, validating arity.
    pub fn from_tuples_in(
        mode: StorageMode,
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelError> {
        match mode {
            StorageMode::Btree => {
                let mut r = Relation::empty_in(mode, arity);
                for t in tuples {
                    r.insert(t)?;
                }
                Ok(r)
            }
            StorageMode::Adaptive => {
                // Sort + dedup once, then build columns directly —
                // no per-tuple tree rebalancing.
                let mut v: Vec<Tuple> = Vec::new();
                for t in tuples {
                    if t.arity() != arity {
                        return Err(RelError::TupleArity {
                            expected: arity,
                            found: t.arity(),
                        });
                    }
                    v.push(t);
                }
                v.sort_unstable();
                v.dedup();
                Ok(Relation {
                    arity,
                    store: adaptive_store_from_sorted(arity, v),
                })
            }
        }
    }

    /// The nullary relation containing the empty tuple — boolean *true*
    /// in the paper's encoding.
    pub fn nullary_true() -> Self {
        let mut r = Relation::empty(0);
        r.insert(Tuple::empty()).expect("empty tuple has arity 0");
        r
    }

    /// The empty nullary relation — boolean *false*.
    pub fn nullary_false() -> Self {
        Relation::empty(0)
    }

    /// Build an adaptive relation directly from a sorted run — the
    /// zero-copy landing for columnar join outputs. At or below the
    /// hysteresis floor the relation starts in the small regime with
    /// the run as its sorted cache (a downstream ordered read costs no
    /// re-sort); above it, promoted. Either way it enters an adaptive
    /// instance without re-housing.
    pub fn from_run(run: Run) -> Relation {
        let arity = run.arity();
        let store = if run.len() <= adaptive_reentry_len() {
            Store::Small(SmallTail::from_run(Arc::new(run), StatCells::default()))
        } else {
            Store::Col(ColStore::new(Arc::new(run)))
        };
        Relation { arity, store }
    }

    /// The current sorted run, for adaptive relations; `None` under
    /// the btree engine. Promoted relations fold any pending tails
    /// (cached until the next mutation); small relations sort their
    /// log on demand — which **is** the order-demand signal that makes
    /// the next mutation above the hysteresis floor promote. Columnar
    /// executors branch on this.
    pub fn columnar_run(&self) -> Option<Arc<Run>> {
        match &self.store {
            Store::Btree { .. } => None,
            Store::Col(c) => Some(Arc::clone(c.run())),
            Store::Small(s) => Some(Arc::clone(s.sorted_run())),
        }
    }

    /// In-place union with a run of the same arity (promoted relations
    /// merge runs; btree relations insert row by row). Small relations
    /// point-insert only while the combined size stays at or below the
    /// hysteresis floor, else promote first and take the galloping
    /// merge: absorbing a run is a bulk operation, so the cheap-probe
    /// argument that lets point inserts ride to the full promotion
    /// threshold does not apply — repeated O(|tail|·|run|) absorbs are
    /// exactly the fixpoint inner loop the run merge wins. Returns the
    /// number of tuples actually added.
    pub fn absorb_run(&mut self, run: &Run) -> Result<usize, RelError> {
        if run.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: run.arity(),
            });
        }
        if run.is_empty() {
            return Ok(0);
        }
        self.adaptive_pre_mutation();
        if matches!(&self.store, Store::Small(s) if s.len() + run.len() > adaptive_reentry_len()) {
            self.promote();
        }
        match &mut self.store {
            Store::Btree { tuples, cache } => {
                let before = tuples.len();
                for t in run.rows() {
                    tuples.insert(t.clone());
                }
                let grown = tuples.len() - before;
                if grown > 0 {
                    cache.clear();
                }
                Ok(grown)
            }
            Store::Col(c) => {
                let before = c.len();
                c.adopt();
                if c.adds.is_empty() && c.dels.is_empty() {
                    c.base = Arc::new(c.base.union(run));
                } else {
                    let folded = c.run().union(run);
                    c.replace_base(folded);
                }
                Ok(c.len() - before)
            }
            Store::Small(s) => {
                let mut grown = 0usize;
                for t in run.rows() {
                    if s.insert(t.clone()) {
                        grown += 1;
                    }
                }
                Ok(grown)
            }
        }
    }

    /// The storage engine backing this relation. Both regimes of the
    /// adaptive engine (small log and promoted runs) report
    /// [`StorageMode::Adaptive`]; see [`Relation::in_small_regime`].
    pub fn mode(&self) -> StorageMode {
        match &self.store {
            Store::Btree { .. } => StorageMode::Btree,
            Store::Col(_) | Store::Small(_) => StorageMode::Adaptive,
        }
    }

    /// Is this relation currently in the adaptive engine's small
    /// (unsorted log) regime? Always `false` for the btree engine;
    /// observability for promotion-boundary tests and diagnostics.
    pub fn in_small_regime(&self) -> bool {
        matches!(&self.store, Store::Small(_))
    }

    /// A snapshot of this relation's storage counters (promotions,
    /// folds, small-regime probes, tail high-water mark). Counters
    /// travel with the relation through clones, promotions, and
    /// demotions; the btree engine reports all zeros.
    pub fn storage_stats(&self) -> StorageStats {
        match &self.store {
            Store::Btree { .. } => StorageStats::default(),
            Store::Col(c) => c.stats.snapshot(),
            Store::Small(s) => s.stats_cells().snapshot(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Btree { tuples, .. } => tuples.len(),
            Store::Col(c) => c.len(),
            Store::Small(s) => s.len(),
        }
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interpreted as a boolean (paper encoding): nonempty = true.
    pub fn as_bool(&self) -> bool {
        !self.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        match &self.store {
            Store::Btree { tuples, .. } => tuples.contains(t),
            Store::Col(c) => t.arity() == self.arity && c.contains(t),
            Store::Small(s) => t.arity() == self.arity && s.contains(t),
        }
    }

    /// Promote an adaptive small relation to sorted columnar runs:
    /// adopt the sorted view of the log (building it if no consumer
    /// has yet) as the base run of a tail-less [`ColStore`], carrying
    /// the counters across. One-way per growth episode.
    fn promote(&mut self) {
        if let Store::Small(s) = &self.store {
            let base = Arc::clone(s.sorted_run());
            let stats = s.stats_cells().clone();
            stats.note_promotion();
            rtx_obs::registry::add("storage.promotions", 1);
            if rtx_obs::tracing() {
                rtx_obs::event!("storage", "promote", "len" => s.len());
            }
            let mut col = ColStore::new(base);
            col.stats = stats;
            self.store = Store::Col(col);
        }
    }

    /// The order-demand half of the promotion policy, run before every
    /// point mutation: a small relation whose sorted view was demanded
    /// since the last mutation, and which sits above the hysteresis
    /// floor, promotes now — the already-built sorted run becomes the
    /// base for free. At or below the floor the demand is ignored
    /// (the next mutation just drops the cache), so tiny hot relations
    /// never leave the small regime however often they are scanned.
    fn adaptive_pre_mutation(&mut self) {
        let promote = matches!(
            &self.store,
            Store::Small(s) if s.order_demanded() && s.len() > adaptive_reentry_len()
        );
        if promote {
            self.promote();
        }
    }

    /// The size half of the promotion policy, run after growth: a
    /// small relation reaching [`adaptive_promote_len`] promotes.
    fn adaptive_post_growth(&mut self) {
        let promote = matches!(&self.store, Store::Small(s) if s.len() >= adaptive_promote_len());
        if promote {
            self.promote();
        }
    }

    /// Demote a promoted adaptive relation whose *bulk rebuild* landed
    /// at or below the hysteresis floor back into the small regime
    /// (the "clear / rebuild re-enters" half of the policy). Point
    /// removals never demote.
    fn adaptive_post_rebuild(&mut self) {
        let demote = matches!(
            &self.store,
            Store::Col(c) if c.len() <= adaptive_reentry_len()
        );
        if demote {
            if let Store::Col(c) = &self.store {
                // Keep the folded run as the tail's pre-built sorted
                // cache: a per-tick bulk rebuild that lands small would
                // otherwise re-sort and rebuild index views on the very
                // next ordered read, every tick.
                let run = Arc::clone(c.run());
                let stats = c.stats.clone();
                rtx_obs::registry::add("storage.demotions", 1);
                if rtx_obs::tracing() {
                    rtx_obs::event!("storage", "demote", "len" => c.len());
                }
                self.store = Store::Small(SmallTail::from_run(run, stats));
            }
        }
    }

    /// Insert a tuple; `Ok(true)` if newly inserted.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, RelError> {
        if t.arity() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: t.arity(),
            });
        }
        self.adaptive_pre_mutation();
        let inserted = match &mut self.store {
            Store::Btree { tuples, cache } => {
                let inserted = tuples.insert(t);
                if inserted {
                    cache.clear();
                }
                inserted
            }
            Store::Col(c) => {
                c.adopt();
                if c.dels.remove(&t) {
                    true // was deleted from base; undelete
                } else if c.base.contains(&t) {
                    false
                } else {
                    let inserted = c.adds.insert(t);
                    c.note_tail();
                    inserted
                }
            }
            Store::Small(s) => s.insert(t),
        };
        self.adaptive_post_growth();
        Ok(inserted)
    }

    /// Remove a tuple; `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity {
            return false;
        }
        self.adaptive_pre_mutation();
        match &mut self.store {
            Store::Btree { tuples, cache } => {
                let removed = tuples.remove(t);
                if removed {
                    cache.clear();
                }
                removed
            }
            Store::Col(c) => {
                c.adopt();
                if c.adds.remove(t) {
                    return true;
                }
                if c.base.contains(t) {
                    let removed = c.dels.insert(t.clone());
                    c.note_tail();
                    return removed;
                }
                false
            }
            Store::Small(s) => s.remove(t),
        }
    }

    /// Membership of a row of interned ids (`false` on an arity
    /// mismatch). Promoted relations without pending tails answer by
    /// binary search over the run's id columns, decoding nothing.
    pub fn contains_vids(&self, row: &[Vid]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        match &self.store {
            Store::Col(c) if c.adds.is_empty() && c.dels.is_empty() => c.base.contains_vids(row),
            _ => self.contains(&row_tuple(row)),
        }
    }

    /// Insert a row of interned ids; `Ok(true)` if newly inserted.
    pub fn insert_vids(&mut self, row: &[Vid]) -> Result<bool, RelError> {
        self.insert(row_tuple(row))
    }

    /// Remove a row of interned ids; `true` if it was present.
    pub fn remove_vids(&mut self, row: &[Vid]) -> bool {
        row.len() == self.arity && self.remove(&row_tuple(row))
    }

    /// A secondary index on the given column subset.
    ///
    /// The returned [`Index`] is an immutable snapshot: it stays valid
    /// even if the relation mutates afterwards. Btree indexes are
    /// cached until the next mutation; promoted indexes are views into
    /// the current sorted run, cached on the run itself — so clones
    /// sharing a run share its views, and no lock sits on the read
    /// path. Small relations memoize a sorted run of the log
    /// (without registering an order demand, so probes alone never
    /// promote) and serve views off it — repeated probes of the same
    /// small relation, the access pattern of magic-set guards, sort
    /// once per mutation instead of once per call.
    pub fn index(&self, cols: &[usize]) -> Result<Arc<Index>, RelError> {
        for &c in cols {
            if c >= self.arity {
                return Err(RelError::ColumnOutOfRange {
                    column: c,
                    arity: self.arity,
                });
            }
        }
        match &self.store {
            Store::Btree { tuples, cache } => {
                if let Some(idx) = cache.0.read().unwrap_or_else(|e| e.into_inner()).get(cols) {
                    return Ok(Arc::clone(idx));
                }
                let idx = Arc::new(Index::build(cols, tuples.iter()));
                cache
                    .0
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry(cols.into())
                    .or_insert_with(|| Arc::clone(&idx));
                Ok(idx)
            }
            Store::Col(c) => Ok(c.run().view(cols)),
            Store::Small(s) => Ok(s.cached_run().view(cols)),
        }
    }

    /// The delta turning `from` into `self`: `added = self ∖ from`,
    /// `removed = from ∖ self` (arities must agree).
    ///
    /// Delta normalization is an order demand: adaptive small operands
    /// sort their logs (and may promote on their next mutation if
    /// above the hysteresis floor).
    pub fn diff(&self, from: &Relation) -> Result<RelationDelta, RelError> {
        self.check_same_arity(from)?;
        if let Some((ra, rb)) = self.run_pair(from) {
            // Vid-level merge walk: only changed rows materialize.
            let (added, removed) = ra.diff(&rb);
            return Ok(RelationDelta::new(self.arity, added, removed));
        }
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut ours = self.iter().peekable();
        let mut theirs = from.iter().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (None, None) => break,
                (Some(_), None) => added.push(ours.next().unwrap().clone()),
                (None, Some(_)) => removed.push(theirs.next().unwrap().clone()),
                (Some(a), Some(b)) => match a.cmp(b) {
                    std::cmp::Ordering::Less => added.push(ours.next().unwrap().clone()),
                    std::cmp::Ordering::Greater => removed.push(theirs.next().unwrap().clone()),
                    std::cmp::Ordering::Equal => {
                        ours.next();
                        theirs.next();
                    }
                },
            }
        }
        Ok(RelationDelta::new(self.arity, added, removed))
    }

    /// Apply a delta in place: remove `delta.removed()`, insert
    /// `delta.added()`. Inverse of [`Relation::diff`]:
    /// `from.apply_delta(&to.diff(&from)?)` makes `from == to`.
    ///
    /// Adaptive small relations apply the delta as point operations —
    /// no run merge — unless the result could outgrow the promotion
    /// threshold; promoted adaptive relations rebuild with one merge
    /// and re-enter the small regime when the result lands at or below
    /// the hysteresis floor.
    pub fn apply_delta(&mut self, delta: &RelationDelta) -> Result<(), RelError> {
        crate::delta::check_arity(self.arity, delta.arity())?;
        if delta.is_empty() {
            return Ok(());
        }
        self.adaptive_pre_mutation();
        if matches!(
            &self.store,
            Store::Small(s) if s.len() + delta.added().len() >= adaptive_promote_len()
        ) {
            self.promote();
        }
        match &mut self.store {
            Store::Btree { tuples, cache } => {
                for t in delta.removed() {
                    tuples.remove(t);
                }
                for t in delta.added() {
                    tuples.insert(t.clone());
                }
                cache.clear();
            }
            Store::Col(c) => {
                // One three-way merge over the current run instead of
                // per-fact tree edits.
                let next = c.run().apply_sorted(delta.added(), delta.removed());
                c.replace_base(next);
            }
            Store::Small(s) => {
                for t in delta.removed() {
                    s.remove(t);
                }
                for t in delta.added() {
                    s.insert(t.clone());
                }
            }
        }
        self.adaptive_post_rebuild();
        Ok(())
    }

    /// Iterate over tuples in order. (An order demand: adaptive small
    /// relations sort their log on first call and cache it until the
    /// next mutation.)
    pub fn iter(&self) -> Iter<'_> {
        match &self.store {
            Store::Btree { tuples, .. } => Iter::Btree(tuples.iter()),
            Store::Col(c) => Iter::Slice(c.run().rows().iter()),
            Store::Small(s) => Iter::Slice(s.sorted_run().rows().iter()),
        }
    }

    /// Build a same-mode relation from an operation's output tuples,
    /// which are already sorted and deduplicated.
    #[allow(clippy::wrong_self_convention)] // `self` only donates the mode
    fn from_sorted_vec(&self, tuples: Vec<Tuple>) -> Relation {
        let store = match self.mode() {
            StorageMode::Btree => Store::Btree {
                tuples: tuples.into_iter().collect(),
                cache: IndexCache::default(),
            },
            StorageMode::Adaptive => adaptive_store_from_sorted(self.arity, tuples),
        };
        Relation {
            arity: self.arity,
            store,
        }
    }

    /// Build a same-mode relation from a run an operation produced.
    #[allow(clippy::wrong_self_convention)] // `self` only donates the mode
    fn from_result_run(&self, run: Run) -> Relation {
        match self.mode() {
            StorageMode::Btree => Relation {
                arity: self.arity,
                store: Store::Btree {
                    tuples: run.rows().iter().cloned().collect(),
                    cache: IndexCache::default(),
                },
            },
            StorageMode::Adaptive => Relation::from_run(run),
        }
    }

    /// Re-house the same tuples under `mode` (a no-op when the modes
    /// already agree).
    ///
    /// [`crate::Instance::set_relation`] uses this to keep instances
    /// storage-homogeneous when a relation built under the other
    /// engine is stored; a btree relation entering an adaptive
    /// instance lands in the small regime at or below the hysteresis
    /// floor, promoted above it.
    pub fn into_mode(self, mode: StorageMode) -> Relation {
        if self.mode() == mode {
            return self;
        }
        let arity = self.arity;
        let store = match mode {
            StorageMode::Btree => Store::Btree {
                tuples: self.iter().cloned().collect(),
                cache: IndexCache::default(),
            },
            StorageMode::Adaptive => adaptive_store_from_sorted(arity, self.into_iter().collect()),
        };
        Relation { arity, store }
    }

    /// Sorted-run views of both operands when both are run-backed —
    /// the galloping-merge fast path. Sorting a small side on demand
    /// is an order demand on that operand.
    fn run_pair(&self, other: &Relation) -> Option<(Arc<Run>, Arc<Run>)> {
        if matches!(&self.store, Store::Btree { .. }) || matches!(&other.store, Store::Btree { .. })
        {
            return None;
        }
        Some((self.columnar_run()?, other.columnar_run()?))
    }

    /// Both operands' small tails, when both are in the small regime —
    /// set algebra over the logs needs no sorted view on either side.
    fn small_pair<'a>(&'a self, other: &'a Relation) -> Option<(&'a SmallTail, &'a SmallTail)> {
        match (&self.store, &other.store) {
            (Store::Small(a), Store::Small(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Set union (arities must agree). Result uses `self`'s mode.
    pub fn union(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a.live_tuples().cloned().collect();
            v.extend(b.live_tuples().cloned());
            v.sort_unstable();
            v.dedup();
            return Ok(self.from_sorted_vec(v));
        }
        if let Some((ra, rb)) = self.run_pair(other) {
            return Ok(self.from_result_run(ra.union(&rb)));
        }
        let mut tuples: BTreeSet<Tuple> = self.iter().cloned().collect();
        tuples.extend(other.iter().cloned());
        Ok(self.from_sorted_vec(tuples.into_iter().collect()))
    }

    /// Set intersection (arities must agree). Result uses `self`'s mode.
    pub fn intersect(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a.live_tuples().filter(|t| b.contains(t)).cloned().collect();
            v.sort_unstable();
            return Ok(self.from_sorted_vec(v));
        }
        if let Some((ra, rb)) = self.run_pair(other) {
            return Ok(self.from_result_run(ra.intersect(&rb)));
        }
        let out: Vec<Tuple> = self.iter().filter(|t| other.contains(t)).cloned().collect();
        Ok(self.from_sorted_vec(out))
    }

    /// Set difference `self \ other` (arities must agree). Result uses
    /// `self`'s mode.
    pub fn difference(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_arity(other)?;
        if let Some((a, b)) = self.small_pair(other) {
            let mut v: Vec<Tuple> = a
                .live_tuples()
                .filter(|t| !b.contains(t))
                .cloned()
                .collect();
            v.sort_unstable();
            return Ok(self.from_sorted_vec(v));
        }
        if let Some((ra, rb)) = self.run_pair(other) {
            return Ok(self.from_result_run(ra.difference(&rb)));
        }
        let out: Vec<Tuple> = self
            .iter()
            .filter(|t| !other.contains(t))
            .cloned()
            .collect();
        Ok(self.from_sorted_vec(out))
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Relation) -> bool {
        if self.arity != other.arity {
            return false;
        }
        // Probe-based paths first: subset never needs sorted order, so
        // small operands stay free of order demands.
        if let Store::Small(s) = &self.store {
            return s.live_tuples().all(|t| other.contains(t));
        }
        if matches!(&other.store, Store::Small(_)) {
            return self.iter().all(|t| other.contains(t));
        }
        if let (Store::Col(a), Store::Col(b)) = (&self.store, &other.store) {
            return a.run().is_subset(b.run());
        }
        self.iter().all(|t| other.contains(t))
    }

    /// All values occurring in the relation (its active domain).
    pub fn adom(&self) -> BTreeSet<Value> {
        if let Store::Small(s) = &self.store {
            return s.live_tuples().flat_map(|t| t.iter().copied()).collect();
        }
        self.iter().flat_map(|t| t.iter().copied()).collect()
    }

    /// A new relation with `f` applied to every value (isomorphic image).
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Relation {
        let mut out: Vec<Tuple> = match &self.store {
            Store::Small(s) => s.live_tuples().map(|t| t.map(&mut f)).collect(),
            _ => self.iter().map(|t| t.map(&mut f)).collect(),
        };
        out.sort_unstable();
        out.dedup();
        self.from_sorted_vec(out)
    }

    fn check_same_arity(&self, other: &Relation) -> Result<(), RelError> {
        if self.arity != other.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: other.arity,
            });
        }
        Ok(())
    }
}

/// Iterator over a relation's tuples in sorted order (see
/// [`Relation::iter`]).
pub enum Iter<'a> {
    /// BTree engine.
    Btree(std::collections::btree_set::Iter<'a, Tuple>),
    /// Adaptive engine (materialized sorted rows).
    Slice(std::slice::Iter<'a, Tuple>),
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;
    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            Iter::Btree(it) => it.next(),
            Iter::Slice(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Btree(it) => it.size_hint(),
            Iter::Slice(it) => it.size_hint(),
        }
    }
}

impl<'a> ExactSizeIterator for Iter<'a> {}

// Caches (btree hash indexes, promoted merged runs and views, small
// sorted views) and counters are evaluation artifacts: they must not
// take part in the relation's value, so `Clone`/`Eq`/`Ord` are written
// by hand over the tuple *sequence* only, and work across storage
// modes. Promoted clones share the base run by `Arc` (and with it the
// run's view cache); btree clones start with a cold cache; small
// clones copy the log and counters.
impl Clone for Relation {
    fn clone(&self) -> Self {
        let store = match &self.store {
            Store::Btree { tuples, .. } => Store::Btree {
                tuples: tuples.clone(),
                cache: IndexCache::default(),
            },
            Store::Col(c) => Store::Col(c.clone()),
            Store::Small(s) => Store::Small(s.clone()),
        };
        Relation {
            arity: self.arity,
            store,
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.arity != other.arity || self.len() != other.len() {
            return false;
        }
        if let (Store::Col(a), Store::Col(b)) = (&self.store, &other.store) {
            let (ra, rb) = (a.run(), b.run());
            if Arc::ptr_eq(ra, rb) {
                return true;
            }
        }
        // With equal cardinalities, set equality is containment — so
        // a small operand is compared by probing, never by sorting.
        if let Store::Small(s) = &self.store {
            return s.live_tuples().all(|t| other.contains(t));
        }
        if let Store::Small(s) = &other.store {
            return s.live_tuples().all(|t| self.contains(t));
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.iter().cmp(other.iter()))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Owning iterator over a relation's tuples in sorted order.
pub enum IntoIter {
    /// BTree engine.
    Btree(std::collections::btree_set::IntoIter<Tuple>),
    /// Adaptive engine.
    Vec(std::vec::IntoIter<Tuple>),
}

impl Iterator for IntoIter {
    type Item = Tuple;
    fn next(&mut self) -> Option<Tuple> {
        match self {
            IntoIter::Btree(it) => it.next(),
            IntoIter::Vec(it) => it.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::Btree(it) => it.size_hint(),
            IntoIter::Vec(it) => it.size_hint(),
        }
    }
}

impl IntoIterator for Relation {
    type Item = Tuple;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        match self.store {
            Store::Btree { tuples, .. } => IntoIter::Btree(tuples.into_iter()),
            Store::Col(c) => IntoIter::Vec(c.run().rows().to_vec().into_iter()),
            Store::Small(s) => IntoIter::Vec(s.sorted_run().rows().to_vec().into_iter()),
        }
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(arity: usize, ts: Vec<Tuple>) -> Relation {
        Relation::from_tuples(arity, ts).unwrap()
    }

    /// The three representations a relation can be in: the btree
    /// oracle and both regimes of the adaptive engine.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Leg {
        Btree,
        Small,
        Promoted,
    }

    impl Leg {
        fn mode(self) -> StorageMode {
            match self {
                Leg::Btree => StorageMode::Btree,
                Leg::Small | Leg::Promoted => StorageMode::Adaptive,
            }
        }

        /// `ts` in this representation. The promoted leg is bulk-built
        /// from a filler above the hysteresis floor, which is then
        /// removed again (point removals never demote) before `ts` is
        /// inserted — so its tails hold tombstones from the start.
        fn relation(self, arity: usize, ts: impl IntoIterator<Item = Tuple>) -> Relation {
            if self != Leg::Promoted {
                return Relation::from_tuples_in(self.mode(), arity, ts).unwrap();
            }
            let filler: Vec<Tuple> = (0..=adaptive_reentry_len() as i64)
                .map(|i| Tuple::from(vec![Value::int(-1_000_000 - i); arity]))
                .collect();
            let mut r = Relation::from_tuples_in(self.mode(), arity, filler.clone()).unwrap();
            for t in &filler {
                assert!(r.remove(t));
            }
            for t in ts {
                r.insert(t).unwrap();
            }
            assert!(!r.in_small_regime());
            r
        }
    }

    /// Every test in this module runs against all three legs via this
    /// helper where storage behavior matters.
    fn all_modes(f: impl Fn(Leg)) {
        for leg in [Leg::Btree, Leg::Small, Leg::Promoted] {
            f(leg);
        }
    }

    #[test]
    fn vid_row_edits_match_tuple_edits() {
        use crate::counted::vid_row;
        all_modes(|m| {
            let mut r = m.relation(2, [tuple![1, 2], tuple![3, "x"]]);
            assert!(r.contains_vids(&vid_row(&tuple![3, "x"])));
            assert!(!r.contains_vids(&vid_row(&tuple![3, "y"])));
            assert!(!r.contains_vids(&vid_row(&tuple![3])));
            assert!(r.insert_vids(&vid_row(&tuple![5, 6])).unwrap());
            assert!(!r.insert_vids(&vid_row(&tuple![5, 6])).unwrap());
            assert!(r.insert_vids(&vid_row(&tuple![5])).is_err());
            assert!(r.remove_vids(&vid_row(&tuple![1, 2])));
            assert!(!r.remove_vids(&vid_row(&tuple![1, 2])));
            assert!(!r.remove_vids(&vid_row(&tuple![1])));
            let want = m.relation(2, [tuple![3, "x"], tuple![5, 6]]);
            assert_eq!(r, want, "{m:?}");
        });
        // A promoted relation with no pending tails answers from its
        // run's id columns.
        let big = Relation::from_tuples_in(
            StorageMode::Adaptive,
            2,
            (0..100i64).map(|i| tuple![i, "x"]),
        )
        .unwrap();
        assert!(!big.in_small_regime());
        assert!(big.contains_vids(&vid_row(&tuple![42, "x"])));
        assert!(!big.contains_vids(&vid_row(&tuple![42, "y"])));
    }

    #[test]
    fn empty_and_insert() {
        all_modes(|m| {
            let mut r = m.relation(2, []);
            assert!(r.is_empty());
            assert!(r.insert(tuple![1, 2]).unwrap());
            assert!(!r.insert(tuple![1, 2]).unwrap()); // duplicate
            assert_eq!(r.len(), 1);
            assert!(r.contains(&tuple![1, 2]));
            assert_eq!(r.mode(), m.mode());
            assert_eq!(r.in_small_regime(), m == Leg::Small);
        });
    }

    #[test]
    fn arity_enforced_on_insert() {
        all_modes(|m| {
            let mut r = m.relation(2, []);
            assert!(matches!(
                r.insert(tuple![1]),
                Err(RelError::TupleArity {
                    expected: 2,
                    found: 1
                })
            ));
        });
    }

    #[test]
    fn boolean_encoding() {
        assert!(Relation::nullary_true().as_bool());
        assert!(!Relation::nullary_false().as_bool());
        assert_eq!(Relation::nullary_true().arity(), 0);
    }

    #[test]
    fn set_algebra() {
        all_modes(|m| {
            let a = m.relation(1, vec![tuple![1], tuple![2]]);
            let b = m.relation(1, vec![tuple![2], tuple![3]]);
            assert_eq!(a.union(&b).unwrap().len(), 3);
            assert_eq!(a.intersect(&b).unwrap(), rel(1, vec![tuple![2]]));
            assert_eq!(a.difference(&b).unwrap(), rel(1, vec![tuple![1]]));
            assert!(rel(1, vec![tuple![1]]).is_subset(&a));
            assert!(!a.is_subset(&b));
        });
    }

    #[test]
    fn set_algebra_rejects_mixed_arity() {
        let a = rel(1, vec![tuple![1]]);
        let b = rel(2, vec![tuple![1, 2]]);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.difference(&b).is_err());
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn cross_mode_values_agree() {
        let ts = vec![tuple![3, "c"], tuple![1, "a"], tuple![2, "b"]];
        let rels = [Leg::Btree, Leg::Small, Leg::Promoted].map(|m| m.relation(2, ts.clone()));
        for a in &rels {
            for b in &rels {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
                assert!(a.is_subset(b));
                assert!(a.iter().eq(b.iter()));
                // Mixed-mode set algebra takes the fallback paths; the
                // result keeps the left operand's mode.
                let u = a.union(b).unwrap();
                assert_eq!(u.mode(), a.mode());
                assert_eq!(&u, b);
                assert_eq!(&a.intersect(b).unwrap(), b);
                assert!(a.difference(b).unwrap().is_empty());
            }
        }
    }

    #[test]
    fn adom_collects_all_values() {
        all_modes(|m| {
            let r = m.relation(2, vec![tuple![1, "a"], tuple![2, "a"]]);
            let d = r.adom();
            assert_eq!(d.len(), 3);
            assert!(d.contains(&Value::int(1)));
            assert!(d.contains(&Value::sym("a")));
        });
    }

    #[test]
    fn map_values_is_isomorphic_image() {
        all_modes(|m| {
            let r = m.relation(2, vec![tuple![1, 2]]);
            let s = r.map_values(|v| match v {
                Value::Int(i) => Value::int(i * 10),
                o => *o,
            });
            assert_eq!(s, rel(2, vec![tuple![10, 20]]));
            assert_eq!(s.mode(), m.mode());
        });
    }

    #[test]
    fn deterministic_iteration_order() {
        all_modes(|m| {
            let r = m.relation(1, vec![tuple![3], tuple![1], tuple![2]]);
            let order: Vec<_> = r.iter().cloned().collect();
            assert_eq!(order, vec![tuple![1], tuple![2], tuple![3]]);
        });
    }

    #[test]
    fn remove_and_idempotence() {
        all_modes(|m| {
            let mut r = m.relation(1, vec![tuple![1]]);
            assert!(r.remove(&tuple![1]));
            assert!(!r.remove(&tuple![1]));
            assert!(r.is_empty());
        });
    }

    #[test]
    fn tail_interleavings_match_btree() {
        // insert → remove → re-insert cycles through the add/del tails
        // (promoted) and the tombstone log (small).
        all_modes(|m| {
            let mut r = m.relation(1, (0..10).map(|i| tuple![i]));
            assert!(r.remove(&tuple![3]));
            assert!(!r.contains(&tuple![3]));
            assert!(r.insert(tuple![3]).unwrap()); // undelete
            assert!(r.contains(&tuple![3]));
            assert!(r.insert(tuple![42]).unwrap());
            assert!(r.remove(&tuple![42])); // remove from the add tail
            assert_eq!(r.len(), 10);
            let expect: Vec<Tuple> = (0..10).map(|i| tuple![i]).collect();
            assert_eq!(r.iter().cloned().collect::<Vec<_>>(), expect);
        });
    }

    #[test]
    fn index_probe_matches_scan() {
        all_modes(|m| {
            let r = m.relation(2, vec![tuple![1, 2], tuple![1, 3], tuple![2, 3]]);
            let idx = r.index(&[0]).unwrap();
            assert_eq!(idx.probe(&[Value::int(1)]).len(), 2);
            let scan: Vec<_> = r
                .iter()
                .filter(|t| t.values()[0] == Value::int(1))
                .cloned()
                .collect();
            assert_eq!(idx.probe(&[Value::int(1)]).to_vec(), scan);
            // non-prefix columns exercise the permutation view
            let idx1 = r.index(&[1]).unwrap();
            assert_eq!(idx1.probe(&[Value::int(3)]).len(), 2);
            assert_eq!(
                idx1.probe(&[Value::int(3)]).to_vec(),
                vec![tuple![1, 3], tuple![2, 3]]
            );
        });
    }

    #[test]
    fn index_is_cached_until_mutation() {
        // All three legs memoize: btree on the relation, both adaptive
        // regimes on the (cached) sorted run.
        all_modes(|m| {
            let mut r = m.relation(2, vec![tuple![1, 2]]);
            let a = r.index(&[0]).unwrap();
            let b = r.index(&[0]).unwrap();
            assert!(Arc::ptr_eq(&a, &b));
            r.insert(tuple![5, 6]).unwrap();
            let c = r.index(&[0]).unwrap();
            assert!(!Arc::ptr_eq(&a, &c));
            // the old snapshot is unchanged, the fresh index sees the insert
            assert!(a.probe(&[Value::int(5)]).is_empty());
            assert_eq!(c.probe(&[Value::int(5)]).len(), 1);
        });
    }

    #[test]
    fn small_regime_index_is_a_fresh_snapshot() {
        let mut r = Relation::from_tuples_in(StorageMode::Adaptive, 2, vec![tuple![1, 2]]).unwrap();
        assert!(r.in_small_regime());
        let a = r.index(&[0]).unwrap();
        // repeated probes of an unchanged relation reuse the memoized
        // run view instead of re-sorting the log
        assert!(Arc::ptr_eq(&a, &r.index(&[0]).unwrap()));
        r.insert(tuple![5, 6]).unwrap();
        let b = r.index(&[0]).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "mutation invalidates the memo");
        assert!(a.probe(&[Value::int(5)]).is_empty());
        assert_eq!(b.probe(&[Value::int(5)]).len(), 1);
        // building an index is not an order demand on the log
        assert!(r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 0);
    }

    #[test]
    fn clones_share_columnar_index_views() {
        // Bulk-built above the hysteresis floor: promoted from the start.
        let n = adaptive_reentry_len() as i64 + 1;
        let r = Relation::from_tuples_in(StorageMode::Adaptive, 2, (0..n).map(|i| tuple![i, i]))
            .unwrap();
        assert!(!r.in_small_regime());
        let s = r.clone();
        let a = r.index(&[0]).unwrap();
        let b = s.index(&[0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b)); // same run, same view chain
    }

    #[test]
    fn index_rejects_out_of_range_columns() {
        all_modes(|m| {
            let r = m.relation(2, vec![tuple![1, 2]]);
            assert!(matches!(
                r.index(&[2]),
                Err(RelError::ColumnOutOfRange {
                    column: 2,
                    arity: 2
                })
            ));
        });
    }

    #[test]
    fn cache_never_affects_equality() {
        all_modes(|m| {
            let a = m.relation(2, vec![tuple![1, 2]]);
            let b = m.relation(2, vec![tuple![1, 2]]);
            let _ = a.index(&[0]).unwrap();
            let _ = a.index(&[1]).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
            let c = a.clone();
            assert_eq!(a, c);
            // and with a dirty tail folded on one side only:
            let mut d = a.clone();
            d.insert(tuple![9, 9]).unwrap();
            d.remove(&tuple![9, 9]);
            let _ = d.iter().count(); // forces the merged / sorted run
            assert_eq!(a, d);
            assert_eq!(a.cmp(&d), std::cmp::Ordering::Equal);
        });
    }

    #[test]
    fn diff_apply_delta_roundtrip() {
        all_modes(|m| {
            let from = m.relation(1, vec![tuple![1], tuple![2]]);
            let to = m.relation(1, vec![tuple![2], tuple![3]]);
            let d = to.diff(&from).unwrap();
            assert_eq!(d.added(), &[tuple![3]]);
            assert_eq!(d.removed(), &[tuple![1]]);
            assert_eq!(d.len(), 2);
            let mut r = from.clone();
            r.apply_delta(&d).unwrap();
            assert_eq!(r, to);
            // empty delta round-trips too
            let e = to.diff(&to).unwrap();
            assert!(e.is_empty());
            r.apply_delta(&e).unwrap();
            assert_eq!(r, to);
        });
    }

    #[test]
    fn diff_rejects_mixed_arity() {
        let a = rel(1, vec![tuple![1]]);
        let b = rel(2, vec![tuple![1, 2]]);
        assert!(a.diff(&b).is_err());
        let mut c = a.clone();
        let d = b.diff(&b).unwrap();
        assert!(c.apply_delta(&d).is_err());
    }

    #[test]
    fn storage_mode_parsing() {
        assert_eq!(StorageMode::parse("btree"), Some(StorageMode::Btree));
        assert_eq!(StorageMode::parse("adaptive"), Some(StorageMode::Adaptive));
        assert_eq!(StorageMode::parse("Auto"), Some(StorageMode::Adaptive));
        assert_eq!(StorageMode::parse("columnar"), None);
        assert_eq!(StorageMode::parse("nope"), None);
        assert!(StorageMode::Adaptive.uses_runs());
        assert!(!StorageMode::Btree.uses_runs());
    }

    #[test]
    fn adaptive_promotes_at_threshold_and_counts_it() {
        let n = adaptive_promote_len();
        let mut r = Relation::empty_in(StorageMode::Adaptive, 1);
        for i in 0..(n - 1) as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(r.in_small_regime(), "N−1 inserts stay in the small regime");
        assert_eq!(r.storage_stats().promotions, 0);
        r.insert(tuple![(n as i64) - 1]).unwrap();
        assert!(!r.in_small_regime(), "the Nth insert promotes");
        assert_eq!(r.mode(), StorageMode::Adaptive);
        assert_eq!(r.storage_stats().promotions, 1);
        r.insert(tuple![n as i64]).unwrap();
        assert_eq!(r.storage_stats().promotions, 1, "promotion is one-way");
        assert_eq!(r.len(), n + 1);
    }

    #[test]
    fn order_demand_promotes_only_above_the_floor() {
        let floor = adaptive_reentry_len();
        // At the floor: scans + mutations forever, never promotes.
        let mut r = Relation::from_tuples_in(
            StorageMode::Adaptive,
            1,
            (0..floor as i64).map(|i| tuple![i]),
        )
        .unwrap();
        for _ in 0..8 {
            let _ = r.iter().count(); // order demand
            assert!(r.remove(&tuple![0]));
            assert!(r.insert(tuple![0]).unwrap());
        }
        assert!(r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 0);
        // One above the floor: the first mutation after an order
        // demand promotes.
        let mut r = Relation::empty_in(StorageMode::Adaptive, 1);
        for i in 0..=(floor as i64) {
            r.insert(tuple![i]).unwrap();
        }
        assert!(r.in_small_regime());
        let _ = r.iter().count(); // order demand above the floor
        assert!(r.in_small_regime(), "the demand itself does not promote");
        r.remove(&tuple![0]);
        assert!(!r.in_small_regime(), "the next mutation does");
        assert_eq!(r.storage_stats().promotions, 1);
    }

    #[test]
    fn bulk_rebuild_reenters_small_regime() {
        let n = adaptive_promote_len();
        let floor = adaptive_reentry_len();
        let mut r = Relation::empty_in(StorageMode::Adaptive, 1);
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        // A delta that clears almost everything re-enters the small
        // regime; the counters survive the round trip.
        let target = Relation::from_tuples_in(
            StorageMode::Adaptive,
            1,
            (0..(floor as i64) - 1).map(|i| tuple![i]),
        )
        .unwrap();
        let d = target.diff(&r).unwrap();
        r.apply_delta(&d).unwrap();
        assert_eq!(r, target);
        assert!(r.in_small_regime(), "rebuild at the floor demotes");
        assert_eq!(r.storage_stats().promotions, 1);
        // ... and the relation can grow right back up and re-promote.
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        assert_eq!(r.storage_stats().promotions, 2);
    }

    #[test]
    fn point_removals_never_demote() {
        let n = adaptive_promote_len();
        let mut r = Relation::empty_in(StorageMode::Adaptive, 1);
        for i in 0..n as i64 {
            r.insert(tuple![i]).unwrap();
        }
        assert!(!r.in_small_regime());
        for i in 0..(n as i64) - 1 {
            assert!(r.remove(&tuple![i]));
        }
        assert_eq!(r.len(), 1);
        assert!(!r.in_small_regime(), "promotion is one-way per episode");
    }

    #[test]
    fn into_mode_rehouses_values() {
        let ts = vec![tuple![2, 1], tuple![1, 2]];
        all_modes(|from| {
            let r = from.relation(2, ts.clone());
            for to in [StorageMode::Btree, StorageMode::Adaptive] {
                let s = r.clone().into_mode(to);
                assert_eq!(s.mode(), to);
                assert_eq!(s, r);
            }
        });
        // Re-housing into adaptive and landing a query output are bulk
        // rebuilds: small regime at the floor, promoted above it.
        let floor = adaptive_reentry_len();
        for (n, small) in [(0, true), (floor, true), (floor + 1, false)] {
            let bt = Leg::Btree.relation(1, (0..n as i64).map(|i| tuple![i]));
            let output = Relation::from_run(Run::from_sorted(1, bt.iter()));
            for r in [bt.clone().into_mode(StorageMode::Adaptive), output] {
                assert_eq!(
                    (r.mode(), r.in_small_regime()),
                    (StorageMode::Adaptive, small)
                );
                assert_eq!(r, bt);
            }
        }
    }
}
