//! Relations with per-tuple derivation counts, in the interned-id
//! domain.
//!
//! Incremental Datalog maintenance (counting-based DRed) needs to know
//! not just *whether* a fact holds but *how many* derivations currently
//! support it: retracting one derivation of a doubly-supported fact must
//! leave the fact in place, while retracting the last one deletes it.
//! A [`CountedRelation`] is that bookkeeping structure — a finite map
//! from rows of interned value ids ([`Vid`]) to positive support
//! counts. Keying by id rows instead of [`crate::Tuple`]s lets the
//! maintenance engine go from a columnar join's output to a count
//! update without decoding a single value.
//! The table keeps the standard randomly seeded hasher, since the ids
//! come from user data.

use crate::error::RelError;
use crate::fact::Tuple;
use crate::intern::Vid;
use crate::relation::Relation;
use std::collections::HashMap;
use std::fmt;

/// One tuple as a row of interned value ids.
pub type VidRow = Box<[Vid]>;

/// Encode a tuple as an id row.
pub fn vid_row(t: &Tuple) -> VidRow {
    t.values().iter().map(Vid::from_value).collect()
}

/// Decode an id row back into a tuple.
pub fn row_tuple(row: &[Vid]) -> Tuple {
    row.iter().map(|v| v.value()).collect()
}

/// A `k`-ary relation where every row carries a positive support
/// count (number of derivations currently justifying it).
///
/// The *set* view of a counted relation is its key set: a row is
/// "present" iff its count is ≥ 1. Counts never go negative —
/// over-subtracting is reported as an error, since it means the
/// maintenance bookkeeping lost a derivation.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CountedRelation {
    arity: usize,
    counts: HashMap<VidRow, u64>,
}

impl CountedRelation {
    /// The empty counted relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        CountedRelation {
            arity,
            counts: HashMap::new(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct rows with positive support.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Is the relation empty (no supported rows)?
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The support count of a row (0 when absent).
    pub fn count(&self, row: &[Vid]) -> u64 {
        self.counts.get(row).copied().unwrap_or(0)
    }

    /// Membership in the set view.
    pub fn contains(&self, row: &[Vid]) -> bool {
        self.counts.contains_key(row)
    }

    /// Add `k` derivations of `row`; `Ok(true)` when the row becomes
    /// newly present (count went 0 → positive). Adding 0 is a no-op.
    pub fn add(&mut self, row: &[Vid], k: u64) -> Result<bool, RelError> {
        if row.len() != self.arity {
            return Err(RelError::TupleArity {
                expected: self.arity,
                found: row.len(),
            });
        }
        if k == 0 {
            return Ok(false);
        }
        if let Some(c) = self.counts.get_mut(row) {
            *c += k;
            return Ok(false);
        }
        self.counts.insert(row.into(), k);
        Ok(true)
    }

    /// Retract `k` derivations of `row`; `Ok(true)` when the row
    /// vanishes (count hit exactly 0). Retracting from an absent row
    /// or below zero is an error — the caller's derivation accounting
    /// has drifted.
    pub fn sub(&mut self, row: &[Vid], k: u64) -> Result<bool, RelError> {
        if k == 0 {
            return Ok(false);
        }
        match self.counts.get_mut(row) {
            None => Err(RelError::NegativeSupport {
                have: 0,
                retract: k,
            }),
            Some(c) if *c < k => Err(RelError::NegativeSupport {
                have: *c,
                retract: k,
            }),
            Some(c) if *c == k => {
                self.counts.remove(row);
                Ok(true)
            }
            Some(c) => {
                *c -= k;
                Ok(false)
            }
        }
    }

    /// Apply a signed delta: positive `k` adds derivations, negative
    /// retracts them. Returns `true` when the row's *presence*
    /// changed (appeared or vanished).
    pub fn apply_signed(&mut self, row: &[Vid], k: i64) -> Result<bool, RelError> {
        match k.cmp(&0) {
            std::cmp::Ordering::Greater => self.add(row, k as u64),
            std::cmp::Ordering::Less => self.sub(row, k.unsigned_abs()),
            std::cmp::Ordering::Equal => Ok(false),
        }
    }

    /// Drop a row entirely, whatever its count; returns the dropped
    /// count (0 when absent). Used by DRed over-deletion, where a
    /// fact's support is recomputed from scratch at re-derivation.
    pub fn clear_row(&mut self, row: &[Vid]) -> u64 {
        self.counts.remove(row).unwrap_or(0)
    }

    /// Iterate over `(row, count)` pairs, in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Vid], u64)> {
        self.counts.iter().map(|(r, &c)| (&**r, c))
    }

    /// The set view as a plain [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::from_tuples(self.arity, self.counts.keys().map(|r| row_tuple(r)))
            .expect("all stored rows have the stored arity")
    }
}

impl fmt::Debug for CountedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(Tuple, u64)> = self.iter().map(|(r, c)| (row_tuple(r), c)).collect();
        entries.sort_unstable();
        write!(f, "{{")?;
        for (i, (t, c)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}×{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(t: Tuple) -> VidRow {
        vid_row(&t)
    }

    #[test]
    fn add_and_sub_track_presence() {
        let mut c = CountedRelation::empty(1);
        assert!(c.add(&r(tuple![1]), 2).unwrap()); // newly present
        assert!(!c.add(&r(tuple![1]), 1).unwrap()); // just more support
        assert_eq!(c.count(&r(tuple![1])), 3);
        assert!(!c.sub(&r(tuple![1]), 2).unwrap());
        assert!(c.sub(&r(tuple![1]), 1).unwrap()); // vanished
        assert!(!c.contains(&r(tuple![1])));
        assert!(c.is_empty());
    }

    #[test]
    fn oversubtraction_is_an_error() {
        let mut c = CountedRelation::empty(1);
        c.add(&r(tuple![1]), 1).unwrap();
        assert!(matches!(
            c.sub(&r(tuple![1]), 2),
            Err(RelError::NegativeSupport {
                have: 1,
                retract: 2
            })
        ));
        assert!(c.sub(&r(tuple![9]), 1).is_err());
    }

    #[test]
    fn signed_application_and_zero_noop() {
        let mut c = CountedRelation::empty(2);
        let row = r(tuple![1, 2]);
        assert!(!c.apply_signed(&row, 0).unwrap());
        assert!(c.apply_signed(&row, 2).unwrap());
        assert!(!c.apply_signed(&row, -1).unwrap());
        assert!(c.apply_signed(&row, -1).unwrap());
        assert!(!c.add(&row, 0).unwrap());
        assert!(!c.sub(&row, 0).unwrap());
    }

    #[test]
    fn arity_enforced() {
        let mut c = CountedRelation::empty(2);
        assert!(c.add(&r(tuple![1]), 1).is_err());
    }

    #[test]
    fn clear_tuple_and_set_view() {
        let mut c = CountedRelation::empty(1);
        c.add(&r(tuple![1]), 5).unwrap();
        c.add(&r(tuple!["s"]), 1).unwrap();
        assert_eq!(c.clear_row(&r(tuple![1])), 5);
        assert_eq!(c.clear_row(&r(tuple![1])), 0);
        let s = c.to_relation();
        assert_eq!(s.len(), 1);
        assert!(s.contains(&tuple!["s"]));
        assert_eq!(c.iter().count(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn rows_round_trip_through_tuples() {
        let t = tuple![-3, "x", 1i64 << 40];
        assert_eq!(row_tuple(&vid_row(&t)), t);
    }
}
