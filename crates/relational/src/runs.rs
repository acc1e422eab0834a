//! Columnar sorted runs — the storage layer beneath promoted adaptive
//! [`Relation`](crate::Relation)s.
//!
//! A [`Run`] is an immutable, sorted, duplicate-free batch of tuples
//! stored column-major as flat `Vec<Vid>`s (one per column). Sortedness
//! is in the *structural* value order ([`Vid::cmp_structural`]), i.e.
//! exactly the order a `BTreeSet<Tuple>` iterates in — so every
//! deterministic-iteration guarantee of the BTree representation
//! carries over verbatim.
//!
//! Set operations (union, intersection, difference, delta application,
//! diffing) are merge walks over two runs that compare packed `u32`
//! ids, bulk-copy exhausted tails column-wise, and *gallop*
//! (exponential-probe binary search) across long stretches where one
//! side is far ahead — never touching a `Tuple` allocation except for
//! rows that actually change.
//!
//! Row access for callers that need `&Tuple`s (iteration, index probe
//! results) goes through a per-run lazily materialized row cache; it is
//! built at most once per run and shared by every clone of the owning
//! relation. Secondary indexes are *views* into a run — a sorted
//! permutation, or for key-prefix columns no structure at all — held on
//! a lock-free append-only chain so the hot read path takes no lock
//! (see [`Run::view`]).

use crate::fact::Tuple;
use crate::index::Index;
use crate::intern::Vid;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};

/// The immutable payload of a run: sorted columns plus the lazy row
/// cache. Split from [`Run`] so index views can hold an `Arc` to the
/// data without creating a reference cycle through the view chain.
pub(crate) struct RunData {
    len: usize,
    cols: Vec<Vec<Vid>>,
    rows: OnceLock<Vec<Tuple>>,
    /// Packed row keys (see [`RunData::packed`]), built on first merge.
    packed: OnceLock<Option<Vec<u64>>>,
}

impl RunData {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub(crate) fn vid(&self, col: usize, row: usize) -> Vid {
        self.cols[col][row]
    }

    /// Structural comparison of row `i` of `self` against row `j` of
    /// `other` (same arity), column by column.
    #[inline]
    fn row_cmp(&self, i: usize, other: &RunData, j: usize) -> Ordering {
        for c in 0..self.cols.len() {
            match self.cols[c][i].cmp_structural(other.cols[c][j]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Structural comparison of row `i` against a tuple of the same
    /// arity.
    #[inline]
    fn row_cmp_tuple(&self, i: usize, t: &Tuple) -> Ordering {
        let vals = t.values();
        for (col, v) in self.cols.iter().zip(vals) {
            match col[i].cmp_value(v) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Materialize row `i` as a [`Tuple`].
    fn row_tuple(&self, i: usize) -> Tuple {
        (0..self.cols.len())
            .map(|c| self.cols[c][i].value())
            .collect()
    }

    /// The materialized rows, built once per run.
    pub(crate) fn rows(&self) -> &[Tuple] {
        self.rows
            .get_or_init(|| (0..self.len).map(|i| self.row_tuple(i)).collect())
    }

    /// The contiguous row range whose first `key.len()` columns equal
    /// `key` — the *prefix* probe: since rows are sorted
    /// lexicographically, equal prefixes are adjacent, and each column
    /// refines the range of the previous one by binary search.
    pub(crate) fn prefix_range(&self, key: &[Vid]) -> Range<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        for (c, &k) in key.iter().enumerate() {
            let col = &self.cols[c][lo..hi];
            let a = col.partition_point(|&v| v.cmp_structural(k) == Ordering::Less);
            let b = col[a..].partition_point(|&v| v.cmp_structural(k) == Ordering::Equal) + a;
            hi = lo + b;
            lo += a;
            if lo == hi {
                break;
            }
        }
        lo..hi
    }

    /// Membership test by full-arity prefix probe.
    pub(crate) fn contains_tuple(&self, t: &Tuple) -> bool {
        let mut lo = 0usize;
        let mut hi = self.len;
        for (c, v) in t.values().iter().enumerate() {
            let k = Vid::from_value(v);
            let col = &self.cols[c][lo..hi];
            let a = col.partition_point(|&x| x.cmp_structural(k) == Ordering::Less);
            let b = col[a..].partition_point(|&x| x.cmp_structural(k) == Ordering::Equal) + a;
            hi = lo + b;
            lo += a;
            if lo == hi {
                return false;
            }
        }
        lo < hi
    }

    /// First row index `>= start` whose row compares `>=` row `j` of
    /// `other`: exponential probe then binary search, the "gallop" that
    /// lets a merge skip long stretches of the larger side in
    /// logarithmic time.
    fn gallop_from(&self, start: usize, other: &RunData, j: usize) -> usize {
        let mut step = 1usize;
        let mut lo = start;
        // Invariant: every row < lo is < other[j].
        while lo < self.len && self.row_cmp(lo, other, j) == Ordering::Less {
            let next = lo + step;
            step = step.saturating_mul(2);
            if next >= self.len || self.row_cmp(next, other, j) != Ordering::Less {
                // binary search in (lo, min(next, len))
                let mut hi = next.min(self.len);
                lo += 1;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.row_cmp(mid, other, j) == Ordering::Less {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                return lo;
            }
            lo = next;
        }
        lo
    }
}

impl RunData {
    /// One `u64` per row whose natural order equals the structural row
    /// order — available for runs of arity 1 or 2 whose ids are all
    /// raw-ordered (inline integers). Merges and sorts over these flat
    /// keys skip the per-column indirection of [`RunData::row_cmp`],
    /// which dominates merge cost on the fixpoint hot path. Built at
    /// most once per run; `None` (also cached) when ineligible.
    fn packed(&self) -> Option<&[u64]> {
        self.packed
            .get_or_init(|| {
                let eligible = matches!(self.cols.len(), 1 | 2)
                    && self.cols.iter().flatten().all(|v| v.raw_ordered());
                if !eligible {
                    return None;
                }
                Some(match &self.cols[..] {
                    [c0] => c0.iter().map(|v| u64::from(v.raw())).collect(),
                    [c0, c1] => c0
                        .iter()
                        .zip(c1)
                        .map(|(a, b)| u64::from(a.raw()) << 32 | u64::from(b.raw()))
                        .collect(),
                    _ => unreachable!("arity checked above"),
                })
            })
            .as_deref()
    }
}

/// First index `>= lo` in sorted `keys` whose key is `>= target`:
/// exponential probe then binary search.
#[inline]
fn gallop_keys(keys: &[u64], lo: usize, target: u64) -> usize {
    if lo >= keys.len() || keys[lo] >= target {
        return lo;
    }
    let mut step = 1usize;
    let mut base = lo;
    while base + step < keys.len() && keys[base + step] < target {
        base += step;
        step <<= 1;
    }
    let hi = (base + step).min(keys.len());
    base + 1 + keys[base + 1..hi].partition_point(|&k| k < target)
}

/// Merge of two sorted duplicate-free key slices.
fn union_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                let e = gallop_keys(a, i + 1, b[j]);
                out.extend_from_slice(&a[i..e]);
                i = e;
            }
            Ordering::Greater => {
                let e = gallop_keys(b, j + 1, a[i]);
                out.extend_from_slice(&b[j..e]);
                j = e;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ∖ b` over sorted duplicate-free key slices.
fn difference_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                let e = gallop_keys(a, i + 1, b[j]);
                out.extend_from_slice(&a[i..e]);
                i = e;
            }
            Ordering::Greater => j = gallop_keys(b, j + 1, a[i]),
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// `a ∩ b` over sorted duplicate-free key slices.
fn intersect_keys(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i = gallop_keys(a, i + 1, b[j]),
            Ordering::Greater => j = gallop_keys(b, j + 1, a[i]),
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// When the remaining portion of one side of a merge is this many times
/// longer than a single step would cover, gallop instead of stepping.
const GALLOP_AFTER: usize = 8;

/// Column builder for merge outputs.
struct RunBuilder {
    cols: Vec<Vec<Vid>>,
    len: usize,
}

impl RunBuilder {
    fn new(arity: usize) -> Self {
        RunBuilder {
            cols: vec![Vec::new(); arity],
            len: 0,
        }
    }

    fn with_capacity(arity: usize, cap: usize) -> Self {
        RunBuilder {
            cols: vec![Vec::with_capacity(cap); arity],
            len: 0,
        }
    }

    #[inline]
    fn push_row(&mut self, src: &RunData, i: usize) {
        for c in 0..self.cols.len() {
            self.cols[c].push(src.cols[c][i]);
        }
        self.len += 1;
    }

    /// Bulk column-wise copy of `src` rows `range` — a memcpy per
    /// column, the payoff of the flat layout.
    fn push_range(&mut self, src: &RunData, range: Range<usize>) {
        for c in 0..self.cols.len() {
            self.cols[c].extend_from_slice(&src.cols[c][range.clone()]);
        }
        self.len += range.len();
    }

    #[inline]
    fn push_tuple(&mut self, t: &Tuple) {
        for (c, v) in t.values().iter().enumerate() {
            self.cols[c].push(Vid::from_value(v));
        }
        self.len += 1;
    }

    fn finish(self) -> Run {
        Run::from_parts(self.len, self.cols)
    }
}

/// A lock-free cache of index views over one run, keyed by column
/// subset: an append-only singly linked list whose links are
/// `OnceLock`s, so lookups never take a lock and insertion races
/// resolve by first-writer-wins (the loser's view is dropped).
struct ViewChain {
    head: OnceLock<Box<ViewNode>>,
}

struct ViewNode {
    cols: Box<[usize]>,
    view: Arc<Index>,
    next: OnceLock<Box<ViewNode>>,
}

impl ViewChain {
    const fn new() -> Self {
        ViewChain {
            head: OnceLock::new(),
        }
    }

    fn get_or_insert(&self, cols: &[usize], build: impl FnOnce() -> Arc<Index>) -> Arc<Index> {
        let mut slot = &self.head;
        let mut build = Some(build);
        let mut pending: Option<Box<ViewNode>> = None;
        loop {
            match slot.get() {
                Some(node) => {
                    if &*node.cols == cols {
                        return Arc::clone(&node.view);
                    }
                    slot = &node.next;
                }
                None => {
                    let node = match pending.take() {
                        Some(n) => n,
                        None => Box::new(ViewNode {
                            cols: cols.into(),
                            view: (build.take().expect("view built at most once"))(),
                            next: OnceLock::new(),
                        }),
                    };
                    match slot.set(node) {
                        Ok(()) => {
                            return Arc::clone(&slot.get().expect("just set").view);
                        }
                        // Lost the race: another thread appended here
                        // first — keep our node and re-examine theirs.
                        Err(n) => pending = Some(n),
                    }
                }
            }
        }
    }
}

/// An immutable sorted columnar batch of tuples plus its view cache.
///
/// Runs are shared by `Arc` between a relation and its clones; all
/// per-run caches (materialized rows, index views) are therefore built
/// at most once per *run generation* — a fresh merged run starts cold.
pub struct Run {
    data: Arc<RunData>,
    views: ViewChain,
}

impl Clone for Run {
    /// Clones share the immutable column data; cached index views are
    /// per-value (each clone rebuilds the views it actually probes).
    fn clone(&self) -> Run {
        Run {
            data: Arc::clone(&self.data),
            views: ViewChain::new(),
        }
    }
}

impl Run {
    fn from_parts(len: usize, cols: Vec<Vec<Vid>>) -> Run {
        Run {
            data: Arc::new(RunData {
                len,
                cols,
                rows: OnceLock::new(),
                packed: OnceLock::new(),
            }),
            views: ViewChain::new(),
        }
    }

    /// The empty run of the given arity.
    pub fn empty(arity: usize) -> Run {
        Run::from_parts(0, vec![Vec::new(); arity])
    }

    /// Rebuild columns from packed keys (arity 1 or 2), pre-seeding the
    /// packed cache so chained merges never repack.
    fn from_packed(arity: usize, keys: Vec<u64>) -> Run {
        let cols: Vec<Vec<Vid>> = match arity {
            1 => vec![keys.iter().map(|&k| Vid::from_raw(k as u32)).collect()],
            2 => vec![
                keys.iter()
                    .map(|&k| Vid::from_raw((k >> 32) as u32))
                    .collect(),
                keys.iter().map(|&k| Vid::from_raw(k as u32)).collect(),
            ],
            _ => unreachable!("packed keys exist only for arity 1 and 2"),
        };
        let run = Run::from_parts(keys.len(), cols);
        run.data
            .packed
            .set(Some(keys))
            .unwrap_or_else(|_| unreachable!("fresh run data"));
        run
    }

    /// Both sides' packed keys, when eligible and of equal arity.
    fn packed_pair<'a>(&'a self, other: &'a Run) -> Option<(&'a [u64], &'a [u64])> {
        if self.arity() != other.arity() {
            return None;
        }
        Some((self.data.packed()?, other.data.packed()?))
    }

    /// Build from tuples already in strictly increasing order (sorted,
    /// duplicate-free), e.g. out of a `BTreeSet<Tuple>`.
    pub fn from_sorted<'a>(arity: usize, tuples: impl Iterator<Item = &'a Tuple>) -> Run {
        let mut b = RunBuilder::new(arity);
        for t in tuples {
            debug_assert_eq!(t.arity(), arity);
            b.push_tuple(t);
        }
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// Is the run empty?
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.data.arity()
    }

    /// The materialized rows, in sorted order (built lazily, once).
    pub fn rows(&self) -> &[Tuple] {
        self.data.rows()
    }

    /// One column of the run as a flat slice of interned ids, in row
    /// order — the raw material for columnar join executors.
    pub fn col(&self, c: usize) -> &[Vid] {
        &self.data.cols[c]
    }

    /// The contiguous row range whose first `key.len()` columns equal
    /// `key` (rows are sorted lexicographically, so equal prefixes are
    /// adjacent). `key` may be shorter than the arity.
    pub fn prefix_range(&self, key: &[Vid]) -> Range<usize> {
        self.data.prefix_range(key)
    }

    /// Membership test on an interned full-arity key (no allocation).
    pub fn contains_vids(&self, key: &[Vid]) -> bool {
        debug_assert_eq!(key.len(), self.arity());
        !self.data.prefix_range(key).is_empty()
    }

    /// Build a run from unsorted, possibly-duplicated columns (all of
    /// length `rows`): sorts a row permutation structurally, drops
    /// duplicate rows, and gathers the columns — how columnar join
    /// outputs become relations without ever materializing tuples.
    pub fn from_cols(rows: usize, cols: Vec<Vec<Vid>>) -> Run {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        if cols.is_empty() {
            // Nullary: any row at all is the single empty tuple.
            return Run::from_parts(usize::from(rows > 0), Vec::new());
        }
        // Arity-≤2 inline-integer rows sort as flat packed keys — no
        // permutation array, no per-comparison column indirection.
        if matches!(cols.len(), 1 | 2) && cols.iter().flatten().all(|v| v.raw_ordered()) {
            let mut keys: Vec<u64> = match &cols[..] {
                [c0] => c0.iter().map(|v| u64::from(v.raw())).collect(),
                [c0, c1] => c0
                    .iter()
                    .zip(c1)
                    .map(|(a, b)| u64::from(a.raw()) << 32 | u64::from(b.raw()))
                    .collect(),
                _ => unreachable!("arity checked above"),
            };
            if keys.windows(2).all(|w| w[0] < w[1]) {
                let run = Run::from_parts(rows, cols);
                run.data
                    .packed
                    .set(Some(keys))
                    .unwrap_or_else(|_| unreachable!("fresh run data"));
                return run;
            }
            keys.sort_unstable();
            keys.dedup();
            return Run::from_packed(cols.len(), keys);
        }
        let row_cmp = |a: u32, b: u32| -> Ordering {
            for col in &cols {
                match col[a as usize].cmp_structural(col[b as usize]) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        };
        // Derived rows are frequently already in order (e.g. a head
        // projection that keeps the leading join columns): take the
        // columns as they are instead of permuting a copy.
        if (1..rows as u32).all(|r| row_cmp(r - 1, r) == Ordering::Less) {
            return Run::from_parts(rows, cols);
        }
        let mut perm: Vec<u32> = (0..rows as u32).collect();
        perm.sort_unstable_by(|&a, &b| row_cmp(a, b));
        perm.dedup_by(|a, b| row_cmp(*a, *b) == Ordering::Equal);
        let out: Vec<Vec<Vid>> = cols
            .iter()
            .map(|col| perm.iter().map(|&r| col[r as usize]).collect())
            .collect();
        Run::from_parts(perm.len(), out)
    }

    /// Membership test (binary search per column, no allocation).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity() && self.data.contains_tuple(t)
    }

    /// The cached index view on `cols`, built on first request.
    ///
    /// When `cols` is a prefix `[0, 1, …, k-1]` the sorted run *is* the
    /// index and the view carries no side structure; otherwise the view
    /// is a permutation of row indices sorted by the key columns (ties
    /// broken by row index, so probe results keep scan order).
    pub fn view(&self, cols: &[usize]) -> Arc<Index> {
        self.views.get_or_insert(cols, || {
            if cols.iter().enumerate().all(|(i, &c)| i == c) {
                Arc::new(Index::view_prefix(cols, Arc::clone(&self.data)))
            } else {
                let data = &self.data;
                let mut perm: Vec<u32> = (0..data.len as u32).collect();
                perm.sort_unstable_by(|&a, &b| {
                    for &c in cols {
                        match data.cols[c][a as usize].cmp_structural(data.cols[c][b as usize]) {
                            Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    a.cmp(&b) // stable within key groups → scan order
                });
                Arc::new(Index::view_perm(
                    cols,
                    Arc::clone(&self.data),
                    perm.into_boxed_slice(),
                ))
            }
        })
    }

    /// `self ∪ other` (same arity).
    pub fn union(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), union_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::with_capacity(a.arity(), a.len.max(b.len));
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    // Copy everything in `a` below b[j] in one sweep.
                    let end = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                    out.push_range(a, i..end);
                    i = end;
                }
                Ordering::Greater => {
                    let end = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                    out.push_range(b, j..end);
                    j = end;
                }
                Ordering::Equal => {
                    out.push_row(a, i);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.push_range(a, i..a.len);
        out.push_range(b, j..b.len);
        out.finish()
    }

    /// `self ∩ other` (same arity).
    pub fn intersect(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), intersect_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::new(a.arity());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    i = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                }
                Ordering::Greater => {
                    j = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                }
                Ordering::Equal => {
                    out.push_row(a, i);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.finish()
    }

    /// `self ∖ other` (same arity).
    pub fn difference(&self, other: &Run) -> Run {
        if let Some((ka, kb)) = self.packed_pair(other) {
            return Run::from_packed(self.arity(), difference_keys(ka, kb));
        }
        let (a, b) = (&*self.data, &*other.data);
        let mut out = RunBuilder::new(a.arity());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    let end = if a.len - i > GALLOP_AFTER {
                        a.gallop_from(i + 1, b, j)
                    } else {
                        i + 1
                    };
                    out.push_range(a, i..end);
                    i = end;
                }
                Ordering::Greater => {
                    j = if b.len - j > GALLOP_AFTER {
                        b.gallop_from(j + 1, a, i)
                    } else {
                        j + 1
                    };
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.push_range(a, i..a.len);
        out.finish()
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Run) -> bool {
        let (a, b) = (&*self.data, &*other.data);
        if a.len > b.len {
            return false;
        }
        let mut j = 0;
        for i in 0..a.len {
            j = if b.len - j > GALLOP_AFTER {
                b.gallop_from(j, a, i)
            } else {
                let mut k = j;
                while k < b.len && b.row_cmp(k, a, i) == Ordering::Less {
                    k += 1;
                }
                k
            };
            if j >= b.len || b.row_cmp(j, a, i) != Ordering::Equal {
                return false;
            }
            j += 1;
        }
        true
    }

    /// The symmetric difference as tuple lists `(added, removed)` where
    /// `added = self ∖ from` and `removed = from ∖ self` — only rows
    /// that actually differ are materialized as tuples.
    pub fn diff(&self, from: &Run) -> (Vec<Tuple>, Vec<Tuple>) {
        let (a, b) = (&*self.data, &*from.data);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < a.len && j < b.len {
            match a.row_cmp(i, b, j) {
                Ordering::Less => {
                    added.push(a.row_tuple(i));
                    i += 1;
                }
                Ordering::Greater => {
                    removed.push(b.row_tuple(j));
                    j += 1;
                }
                Ordering::Equal => {
                    // Equal stretches are the common case when diffing
                    // consecutive versions: gallop past them pairwise.
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < a.len {
            added.push(a.row_tuple(i));
            i += 1;
        }
        while j < b.len {
            removed.push(b.row_tuple(j));
            j += 1;
        }
        (added, removed)
    }

    /// `(self ∖ del) ∪ add` in a single three-way merge walk — how
    /// relation tails and [`crate::RelationDelta`]s fold into a new
    /// base run. `add` and `del` must be strictly sorted and disjoint
    /// (as every delta in this crate is, by normalization); `add` rows
    /// already present survive (set semantics), `del` rows not present
    /// are ignored.
    pub fn apply_sorted(&self, add: &[Tuple], del: &[Tuple]) -> Run {
        let a = &*self.data;
        let mut out =
            RunBuilder::with_capacity(a.arity(), a.len.saturating_sub(del.len()) + add.len());
        let (mut i, mut ai, mut di) = (0usize, 0usize, 0usize);
        while i < a.len {
            // Emit pending adds strictly below the current base row.
            while ai < add.len() {
                match a.row_cmp_tuple(i, &add[ai]).reverse() {
                    Ordering::Less => {
                        out.push_tuple(&add[ai]);
                        ai += 1;
                    }
                    Ordering::Equal => {
                        ai += 1; // already present in base
                    }
                    Ordering::Greater => break,
                }
            }
            // Deleted?
            let mut dead = false;
            while di < del.len() {
                match a.row_cmp_tuple(i, &del[di]) {
                    Ordering::Greater => di += 1, // del row absent from base
                    Ordering::Equal => {
                        dead = true;
                        di += 1;
                        break;
                    }
                    Ordering::Less => break,
                }
            }
            if !dead {
                out.push_row(a, i);
            }
            i += 1;
        }
        for t in &add[ai..] {
            out.push_tuple(t);
        }
        out.finish()
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Run({} rows, arity {})", self.len(), self.arity())
    }
}

/// Point-in-time storage-engine counters for one relation.
///
/// Snapshots come from
/// [`Relation::storage_stats`](crate::Relation::storage_stats) and are
/// listed per instance by
/// [`Instance::storage_stats`](crate::Instance::storage_stats). The
/// counters ride along with the relation through clones, promotions,
/// and demotions; they are evaluation artifacts and never take part in
/// equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Small-regime → sorted-run promotions in this relation's lineage.
    pub promotions: u64,
    /// Sorted-run folds: promoted-regime tail merges, plus order-demanded
    /// sorts of the small-regime log.
    pub folds: u64,
    /// Linear probe operations over the small-regime log (one per
    /// insert / remove / membership call, not per comparison).
    pub small_probes: u64,
    /// High-water mark of the mutable tail: the small-regime log
    /// length, or the promoted add+delete tail length.
    pub tail_hwm: u64,
}

impl StorageStats {
    /// Fold another snapshot into this one (counters sum; the
    /// high-water mark takes the max) — for whole-instance rollups.
    pub fn absorb(&mut self, other: &StorageStats) {
        self.promotions += other.promotions;
        self.folds += other.folds;
        self.small_probes += other.small_probes;
        self.tail_hwm = self.tail_hwm.max(other.tail_hwm);
    }

    /// Publish this snapshot into the global [`rtx_obs`] registry:
    /// `storage.folds` / `storage.small_probes` counters and the
    /// `storage.tail_hwm` histogram. Promotions and demotions are
    /// *not* published here — they are counted live at the transition
    /// sites (`storage.promotions` / `storage.demotions`), so calling
    /// this on an end-of-run rollup cannot double count them. Call
    /// once per rollup snapshot, not per access.
    pub fn publish(&self) {
        rtx_obs::registry::add("storage.folds", self.folds);
        rtx_obs::registry::add("storage.small_probes", self.small_probes);
        if self.tail_hwm > 0 {
            rtx_obs::registry::record("storage.tail_hwm", self.tail_hwm);
        }
    }
}

/// Interior-mutable cells behind [`StorageStats`]: folds and probes
/// happen on shared read paths (`&self`), so the counters are relaxed
/// atomics. Cloning copies the current values.
#[derive(Default)]
pub(crate) struct StatCells {
    promotions: AtomicU64,
    folds: AtomicU64,
    small_probes: AtomicU64,
    tail_hwm: AtomicU64,
}

impl StatCells {
    pub(crate) fn snapshot(&self) -> StorageStats {
        StorageStats {
            promotions: self.promotions.load(AtomicOrd::Relaxed),
            folds: self.folds.load(AtomicOrd::Relaxed),
            small_probes: self.small_probes.load(AtomicOrd::Relaxed),
            tail_hwm: self.tail_hwm.load(AtomicOrd::Relaxed),
        }
    }

    pub(crate) fn note_promotion(&self) {
        self.promotions.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_fold(&self) {
        self.folds.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_probe(&self) {
        self.small_probes.fetch_add(1, AtomicOrd::Relaxed);
    }

    pub(crate) fn note_tail_len(&self, len: usize) {
        self.tail_hwm.fetch_max(len as u64, AtomicOrd::Relaxed);
    }
}

impl Clone for StatCells {
    fn clone(&self) -> StatCells {
        let s = self.snapshot();
        StatCells {
            promotions: AtomicU64::new(s.promotions),
            folds: AtomicU64::new(s.folds),
            small_probes: AtomicU64::new(s.small_probes),
            tail_hwm: AtomicU64::new(s.tail_hwm),
        }
    }
}

/// The adaptive engine's *small regime*: a flat **unsorted** append
/// log of tuples with tombstones — no base run, no sort, no fold cost
/// on mutation. Insert, remove, and membership are linear probes over
/// the log, which at the few-hundred-tuple scale the round executors
/// live at beats any tree or merge bookkeeping.
///
/// A sorted [`Run`] over the live tuples is built only when a consumer
/// actually needs one (a sorted scan, a galloping merge, delta
/// normalization, an index probe) and is cached until the next
/// mutation, so repeated reads of an unchanged relation sort once.
/// The **order-demanded** signal is tracked separately from the cache:
/// only genuinely ordered reads ([`SmallTail::sorted_run`]) set it,
/// while index builds ([`SmallTail::cached_run`]) fill the cache
/// without it — [`Relation`](crate::Relation) promotes a small
/// relation to columnar runs when it mutates with the signal set and
/// its size is above the hysteresis floor, and a relation probed by
/// point lookups alone must never migrate — see
/// `StorageMode::Adaptive`.
///
/// The log holds at most one entry per tuple value: a re-insert of a
/// tombstoned tuple revives its entry in place, and the log compacts
/// (drops tombstones) whenever it grows past `2 × live + 32`, keeping
/// probe cost proportional to the live size.
pub struct SmallTail {
    arity: usize,
    /// `(tuple, alive)` — append order, at most one entry per tuple.
    log: Vec<(Tuple, bool)>,
    /// Number of alive entries.
    live: usize,
    /// Sorted view of the live tuples. Every mutation clears it.
    sorted: OnceLock<Arc<Run>>,
    /// Was order demanded (not just an index build) since the last
    /// mutation? Atomic because demands happen through `&self`.
    ordered: AtomicBool,
    stats: StatCells,
}

// `sorted` is a cache of a pure function of the log and `ordered` is a
// promotion hint; both are carried verbatim — a clone starts with the
// same caches and the same pending policy signal.
impl Clone for SmallTail {
    fn clone(&self) -> SmallTail {
        let sorted = OnceLock::new();
        if let Some(run) = self.sorted.get() {
            let _ = sorted.set(Arc::clone(run));
        }
        SmallTail {
            arity: self.arity,
            log: self.log.clone(),
            live: self.live,
            sorted,
            ordered: AtomicBool::new(self.ordered.load(AtomicOrd::Relaxed)),
            stats: self.stats.clone(),
        }
    }
}

impl SmallTail {
    /// An empty small tail of the given arity.
    pub fn new(arity: usize) -> SmallTail {
        SmallTail {
            arity,
            log: Vec::new(),
            live: 0,
            sorted: OnceLock::new(),
            ordered: AtomicBool::new(false),
            stats: StatCells::default(),
        }
    }

    /// Build from sorted, duplicate-free tuples (e.g. run rows).
    pub fn from_sorted(arity: usize, tuples: Vec<Tuple>) -> SmallTail {
        let stats = StatCells::default();
        stats.note_tail_len(tuples.len());
        SmallTail {
            arity,
            live: tuples.len(),
            log: tuples.into_iter().map(|t| (t, true)).collect(),
            sorted: OnceLock::new(),
            ordered: AtomicBool::new(false),
            stats,
        }
    }

    /// Build from an existing sorted run — a query output, or a
    /// demotion carrying its counters across. The run is kept as the pre-built sorted cache, so the
    /// representation change costs no re-sort and the run's cached row
    /// materialization and index views survive — a per-tick bulk
    /// rebuild that demotes would otherwise pay a sort plus a view
    /// rebuild on the very next ordered read.
    pub(crate) fn from_run(run: Arc<Run>, stats: StatCells) -> SmallTail {
        let live = run.len();
        stats.note_tail_len(live);
        let log = run.rows().iter().cloned().map(|t| (t, true)).collect();
        let arity = run.arity();
        let sorted = OnceLock::new();
        let _ = sorted.set(run);
        SmallTail {
            arity,
            log,
            live,
            sorted,
            // The pre-built cache is a gift, not a demand: no promotion
            // pressure carries over.
            ordered: AtomicBool::new(false),
            stats,
        }
    }

    /// Arity of every tuple in the tail.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the tail empty (no live tuples)?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Membership probe — one linear scan of the log.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.stats.note_probe();
        self.log.iter().any(|(u, alive)| *alive && u == t)
    }

    /// Insert; `true` if newly inserted (or revived from a tombstone).
    pub fn insert(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.arity);
        self.sorted.take();
        *self.ordered.get_mut() = false;
        self.stats.note_probe();
        for (u, alive) in self.log.iter_mut() {
            if *u == t {
                if *alive {
                    return false;
                }
                *alive = true;
                self.live += 1;
                return true;
            }
        }
        self.log.push((t, true));
        self.live += 1;
        self.stats.note_tail_len(self.log.len());
        true
    }

    /// Remove; `true` if the tuple was live. Tombstones the entry and
    /// compacts the log when tombstones dominate.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.sorted.take();
        *self.ordered.get_mut() = false;
        self.stats.note_probe();
        for (u, alive) in self.log.iter_mut() {
            if *alive && u == t {
                *alive = false;
                self.live -= 1;
                if self.log.len() >= 2 * self.live + 32 {
                    self.log.retain(|(_, alive)| *alive);
                }
                return true;
            }
        }
        false
    }

    /// The live tuples in log (insertion) order — for probe-based
    /// consumers that do **not** need sorted output.
    pub fn live_tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.log.iter().filter(|(_, alive)| *alive).map(|(t, _)| t)
    }

    /// Has a consumer demanded order (not just an index) since the
    /// last mutation?
    pub fn order_demanded(&self) -> bool {
        self.ordered.load(AtomicOrd::Relaxed)
    }

    /// The sorted run over the live tuples, built on demand and cached
    /// until the next mutation. Calling this **is** the order-demand
    /// signal (see [`SmallTail::order_demanded`]).
    pub fn sorted_run(&self) -> &Arc<Run> {
        self.ordered.store(true, AtomicOrd::Relaxed);
        self.cached_run()
    }

    /// The sorted run **without** registering an order demand — the
    /// memoization path for index probes, which are point lookups and
    /// must not push a small relation toward promotion however often
    /// they repeat. The run (and the index views hanging off it) is
    /// cached until the next mutation, so repeated probes of an
    /// unchanged relation sort once.
    pub(crate) fn cached_run(&self) -> &Arc<Run> {
        if self.sorted.get().is_none() {
            self.stats.note_fold();
        }
        self.sorted.get_or_init(|| {
            let mut live: Vec<&Tuple> = self.live_tuples().collect();
            live.sort_unstable();
            Arc::new(Run::from_sorted(self.arity, live.into_iter()))
        })
    }

    pub(crate) fn stats_cells(&self) -> &StatCells {
        &self.stats
    }
}

impl std::fmt::Debug for SmallTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SmallTail({} live of {} logged, arity {})",
            self.live,
            self.log.len(),
            self.arity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Value};
    use std::collections::BTreeSet;

    fn run_of(ts: &[Tuple]) -> Run {
        let set: BTreeSet<Tuple> = ts.iter().cloned().collect();
        let arity = ts.first().map(|t| t.arity()).unwrap_or(0);
        Run::from_sorted(arity, set.iter())
    }

    #[test]
    fn from_sorted_roundtrips_rows() {
        let ts = [tuple![2, "b"], tuple![1, "a"], tuple![2, "a"]];
        let r = run_of(&ts);
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows(), &[tuple![1, "a"], tuple![2, "a"], tuple![2, "b"]]);
        assert!(r.contains(&tuple![2, "a"]));
        assert!(!r.contains(&tuple![3, "a"]));
    }

    #[test]
    fn set_ops_match_btree_semantics() {
        let a = run_of(&[tuple![1], tuple![2], tuple![3], tuple![5]]);
        let b = run_of(&[tuple![2], tuple![4], tuple![5]]);
        assert_eq!(
            a.union(&b).rows(),
            &[tuple![1], tuple![2], tuple![3], tuple![4], tuple![5]]
        );
        assert_eq!(a.intersect(&b).rows(), &[tuple![2], tuple![5]]);
        assert_eq!(a.difference(&b).rows(), &[tuple![1], tuple![3]]);
        assert!(run_of(&[tuple![2], tuple![5]]).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn galloping_merges_handle_skew() {
        // One side far larger than the other exercises the gallop path.
        let big: Vec<Tuple> = (0..1000).map(|i| tuple![i]).collect();
        let small = [tuple![-1], tuple![500], tuple![2000]];
        let a = run_of(&big);
        let b = run_of(&small);
        let u = a.union(&b);
        assert_eq!(u.len(), 1002);
        let d = a.difference(&b);
        assert_eq!(d.len(), 999);
        assert!(!d.contains(&tuple![500]));
        let i = a.intersect(&b);
        assert_eq!(i.rows(), &[tuple![500]]);
        assert!(b.is_subset(&u));
    }

    #[test]
    fn diff_reports_only_changes() {
        let a = run_of(&[tuple![1], tuple![2], tuple![4]]);
        let b = run_of(&[tuple![1], tuple![3], tuple![4]]);
        let (added, removed) = a.diff(&b);
        assert_eq!(added, vec![tuple![2]]);
        assert_eq!(removed, vec![tuple![3]]);
    }

    #[test]
    fn apply_sorted_merges_adds_and_dels() {
        let base = run_of(&[tuple![1], tuple![3], tuple![5]]);
        let out = base.apply_sorted(
            &[tuple![0], tuple![3], tuple![4], tuple![9]],
            &[tuple![2], tuple![5]],
        );
        assert_eq!(
            out.rows(),
            &[tuple![0], tuple![1], tuple![3], tuple![4], tuple![9]]
        );
    }

    #[test]
    fn prefix_range_refines_per_column() {
        let r = run_of(&[
            tuple![1, 1],
            tuple![1, 2],
            tuple![2, 1],
            tuple![2, 2],
            tuple![2, 3],
            tuple![3, 1],
        ]);
        let k = |i: i64| Vid::from_value(&Value::int(i));
        assert_eq!(r.data.prefix_range(&[k(2)]), 2..5);
        assert_eq!(r.data.prefix_range(&[k(2), k(3)]), 4..5);
        assert_eq!(r.data.prefix_range(&[k(9)]), 6..6);
        assert_eq!(r.data.prefix_range(&[]), 0..6);
    }

    #[test]
    fn view_cache_returns_same_arc() {
        let r = run_of(&[tuple![1, 2], tuple![2, 1]]);
        let a = r.view(&[1]);
        let b = r.view(&[1]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.view(&[0]);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn nullary_runs() {
        let t = run_of(&[Tuple::empty()]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.arity(), 0);
        assert!(t.contains(&Tuple::empty()));
        let e = Run::empty(0);
        assert!(e.is_empty());
        assert_eq!(t.difference(&t).len(), 0);
        assert_eq!(t.union(&e).len(), 1);
    }
}
