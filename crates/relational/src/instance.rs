//! Database instances: assignments of finite relations to relation names,
//! equivalently sets of facts (paper, Section 2).

use crate::counted::row_tuple;
use crate::delta::{InstanceDelta, RelationDelta};
use crate::error::RelError;
use crate::fact::{Fact, RelName, Tuple};
use crate::intern::Vid;
use crate::relation::{Relation, StorageMode};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// An instance of a database schema.
///
/// Unlike a raw map of relations, an `Instance` is always paired with its
/// schema: looking up a declared-but-unpopulated relation yields the empty
/// relation of the right arity, and inserting an undeclared or ill-sized
/// fact is an error.
///
/// An instance remembers the [`StorageMode`] it was built in and uses it
/// for every relation it creates internally; the mode is an evaluation
/// detail and never takes part in equality.
///
/// Relations are held by `Arc` and copied on write: cloning an
/// instance, [`Instance::union`], [`Instance::restrict`] and
/// [`Instance::widen`] cost O(#relations) and share every relation
/// they do not change with their source. A mutation through one
/// instance copies the relation it touches first, so sharing is never
/// observable except through [`Instance::relation_ref`] pointer
/// identity.
#[derive(Clone)]
pub struct Instance {
    schema: Schema,
    relations: BTreeMap<RelName, Arc<Relation>>,
    mode: StorageMode,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.relations == other.relations
    }
}

impl Eq for Instance {}

impl Instance {
    /// The empty instance of a schema, in the process default storage
    /// mode.
    pub fn empty(schema: Schema) -> Self {
        Instance::empty_in(StorageMode::global(), schema)
    }

    /// The empty instance of a schema in an explicit storage mode.
    pub fn empty_in(mode: StorageMode, schema: Schema) -> Self {
        Instance {
            schema,
            relations: BTreeMap::new(),
            mode,
        }
    }

    /// Build an instance from facts, validating each against the schema.
    pub fn from_facts(
        schema: Schema,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Self, RelError> {
        Instance::from_facts_in(StorageMode::global(), schema, facts)
    }

    /// Build an instance from facts in an explicit storage mode.
    pub fn from_facts_in(
        mode: StorageMode,
        schema: Schema,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Self, RelError> {
        let mut i = Instance::empty_in(mode, schema);
        for f in facts {
            i.insert_fact(f)?;
        }
        Ok(i)
    }

    /// The storage mode this instance creates relations in.
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation assigned to `name`.
    ///
    /// Declared but unpopulated relations are empty; undeclared names are
    /// an error.
    pub fn relation(&self, name: &RelName) -> Result<Relation, RelError> {
        match self.relations.get(name) {
            Some(r) => Ok(Relation::clone(r)),
            None => match self.schema.arity(name) {
                Some(a) => Ok(Relation::empty_in(self.mode, a)),
                None => Err(RelError::UnknownRelation { rel: name.clone() }),
            },
        }
    }

    /// Borrowing lookup: `None` when the relation is unpopulated or
    /// undeclared (use [`Instance::relation`] for the validating form).
    /// Two instances share a relation exactly when their references are
    /// pointer-equal (`std::ptr::eq`).
    pub fn relation_ref(&self, name: &RelName) -> Option<&Relation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Insert a fact.
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, RelError> {
        self.schema.check_fact(&fact)?;
        let (rel, tuple) = fact.into_parts();
        let arity = tuple.arity();
        let mode = self.mode;
        let slot = self
            .relations
            .entry(rel)
            .or_insert_with(|| Arc::new(Relation::empty_in(mode, arity)));
        Arc::make_mut(slot).insert(tuple)
    }

    /// Insert a whole relation under `name`, replacing the previous value.
    pub fn set_relation(
        &mut self,
        name: impl Into<RelName>,
        rel: Relation,
    ) -> Result<(), RelError> {
        self.set_shared_relation(name, Arc::new(rel))
    }

    /// Insert a whole relation under `name` **without copying it**: the
    /// instance holds another `Arc` to `rel`, so many instances can
    /// share one relation (every node state of a network shares one
    /// `All`). A relation in another storage mode is re-housed first,
    /// which does copy it.
    pub fn set_shared_relation(
        &mut self,
        name: impl Into<RelName>,
        rel: Arc<Relation>,
    ) -> Result<(), RelError> {
        let name = name.into();
        self.check_arity(&name, rel.arity())?;
        if rel.is_empty() {
            self.relations.remove(&name);
        } else {
            self.relations.insert(name, share_in(rel, self.mode));
        }
        Ok(())
    }

    /// `name` is declared with arity `arity`.
    fn check_arity(&self, name: &RelName, arity: usize) -> Result<(), RelError> {
        match self.schema.arity(name) {
            None => Err(RelError::UnknownRelation { rel: name.clone() }),
            Some(a) if a != arity => Err(RelError::ArityMismatch {
                rel: name.clone(),
                expected: a,
                found: arity,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Snapshot the storage counters of every populated relation, in
    /// name order — promotion/fold/probe observability for the
    /// adaptive engine (see [`crate::runs::StorageStats`]).
    pub fn storage_stats(&self) -> Vec<(RelName, crate::runs::StorageStats)> {
        self.relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.storage_stats()))
            .collect()
    }

    /// Union a sorted run of tuples into the relation `name` in place
    /// (adaptive relations merge runs, btree relations insert row by
    /// row). Returns the number of facts actually added.
    pub fn absorb_run(
        &mut self,
        name: &RelName,
        run: &crate::runs::Run,
    ) -> Result<usize, RelError> {
        self.check_arity(name, run.arity())?;
        if run.is_empty() {
            return Ok(0);
        }
        let mode = self.mode;
        let slot = self
            .relations
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Relation::empty_in(mode, run.arity())));
        Arc::make_mut(slot).absorb_run(run)
    }

    /// Remove a fact; `true` if present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        let Some(slot) = self.relations.get_mut(fact.rel()) else {
            return false;
        };
        let r = Arc::make_mut(slot);
        let removed = r.remove(fact.tuple());
        if r.is_empty() {
            self.relations.remove(fact.rel());
        }
        removed
    }

    /// Insert the id rows `added` into, and remove the id rows
    /// `removed` from, the relation `name` as one batch — a single run
    /// merge for a promoted relation instead of one tail edit per row.
    /// The two sets must be disjoint.
    pub fn apply_vid_rows<'r>(
        &mut self,
        name: &RelName,
        added: impl IntoIterator<Item = &'r [Vid]>,
        removed: impl IntoIterator<Item = &'r [Vid]>,
    ) -> Result<(), RelError> {
        let arity = self
            .schema
            .arity(name)
            .ok_or_else(|| RelError::UnknownRelation { rel: name.clone() })?;
        let tuples = |rows: &mut dyn Iterator<Item = &'r [Vid]>| -> Result<Vec<Tuple>, RelError> {
            let mut out = Vec::new();
            for row in rows {
                if row.len() != arity {
                    return Err(RelError::ArityMismatch {
                        rel: name.clone(),
                        expected: arity,
                        found: row.len(),
                    });
                }
                out.push(row_tuple(row));
            }
            out.sort_unstable();
            Ok(out)
        };
        let added = tuples(&mut added.into_iter())?;
        let removed = tuples(&mut removed.into_iter())?;
        if added.is_empty() && removed.is_empty() {
            return Ok(());
        }
        let mode = self.mode;
        let slot = self
            .relations
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Relation::empty_in(mode, arity)));
        let r = Arc::make_mut(slot);
        r.apply_delta(&RelationDelta::new(arity, added, removed))?;
        if r.is_empty() {
            self.relations.remove(name);
        }
        Ok(())
    }

    /// Does the relation `name` contain this row of interned ids?
    pub fn contains_vids(&self, name: &RelName, row: &[Vid]) -> bool {
        self.relations
            .get(name)
            .is_some_and(|r| r.contains_vids(row))
    }

    /// Does the instance contain this fact?
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.relations
            .get(fact.rel())
            .map(|r| r.contains(fact.tuple()))
            .unwrap_or(false)
    }

    /// Iterate over all facts, relation by relation, in order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations
            .iter()
            .flat_map(|(name, rel)| rel.iter().map(move |t| Fact::new(name.clone(), t.clone())))
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Is the instance empty (no facts)?
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|r| r.is_empty())
    }

    /// The active domain: all data elements occurring in the instance.
    pub fn adom(&self) -> BTreeSet<Value> {
        self.relations.values().flat_map(|r| r.adom()).collect()
    }

    /// Union of two instances (schemas merged compatibly). The paper forms
    /// `I' = I ∪ I_rcv` where state and message schemas are disjoint, and
    /// horizontal partitions overlap freely, so shared relations union
    /// their tuples.
    ///
    /// Works relation by relation and re-inserts no fact: a relation
    /// populated on one side only is shared with the result (copied only
    /// when `other` holds it in another storage mode), and a name
    /// populated on both sides becomes the [`Relation::union`] of the
    /// two. For disjoint schemas — a transducer's state and its received
    /// messages — the cost is O(#relations), whatever the facts.
    pub fn union(&self, other: &Instance) -> Result<Instance, RelError> {
        let schema = self.schema.union_compatible(&other.schema)?;
        let mut relations = self.relations.clone();
        for (name, rel) in &other.relations {
            let merged = match relations.get(name) {
                None => share_in(Arc::clone(rel), self.mode),
                Some(mine) => Arc::new(mine.union(rel)?.into_mode(self.mode)),
            };
            relations.insert(name.clone(), merged);
        }
        Ok(Instance {
            schema,
            relations,
            mode: self.mode,
        })
    }

    /// Is `self ⊆ other` as sets of facts (schemas may differ)?
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.facts().all(|f| other.contains_fact(&f))
    }

    /// Restrict to the relations of `target`, which must be a subset of
    /// this instance's schema (used e.g. to split a transducer state into
    /// its input / memory parts).
    pub fn restrict(&self, target: &Schema) -> Result<Instance, RelError> {
        let mut out = Instance::empty_in(self.mode, target.clone());
        for (name, arity) in target.iter() {
            match self.schema.arity(name) {
                None => return Err(RelError::UnknownRelation { rel: name.clone() }),
                Some(a) if a != arity => {
                    return Err(RelError::ArityMismatch {
                        rel: name.clone(),
                        expected: arity,
                        found: a,
                    })
                }
                Some(_) => {}
            }
            if let Some(r) = self.relations.get(name) {
                out.relations.insert(name.clone(), Arc::clone(r));
            }
        }
        Ok(out)
    }

    /// Re-house the same facts under a wider schema (every relation of the
    /// current schema must appear in `wider` with the same arity). The
    /// relations are shared, not copied.
    pub fn widen(&self, wider: Schema) -> Result<Instance, RelError> {
        for (name, arity) in self.schema.iter() {
            match wider.arity(name) {
                Some(a) if a == arity => {}
                Some(a) => {
                    return Err(RelError::ArityMismatch {
                        rel: name.clone(),
                        expected: a,
                        found: arity,
                    })
                }
                None => return Err(RelError::UnknownRelation { rel: name.clone() }),
            }
        }
        let mut out = Instance::empty_in(self.mode, wider);
        out.relations = self.relations.clone();
        Ok(out)
    }

    /// The delta turning `from` into `self`, as facts to add and remove.
    ///
    /// Fact-based, so the instances' schemas may differ; applying the
    /// delta only succeeds where the target's schema declares every
    /// added relation.
    pub fn diff(&self, from: &Instance) -> InstanceDelta {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        // Walk both sorted relation maps in lockstep.
        let mut ours = self.relations.iter().peekable();
        let mut theirs = from.relations.iter().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (None, None) => break,
                (Some((name, rel)), None) => {
                    added.extend(rel.iter().map(|t| Fact::new((*name).clone(), t.clone())));
                    ours.next();
                }
                (None, Some((name, rel))) => {
                    removed.extend(rel.iter().map(|t| Fact::new((*name).clone(), t.clone())));
                    theirs.next();
                }
                (Some((a, ra)), Some((b, rb))) => match a.cmp(b) {
                    std::cmp::Ordering::Less => {
                        added.extend(ra.iter().map(|t| Fact::new((*a).clone(), t.clone())));
                        ours.next();
                    }
                    std::cmp::Ordering::Greater => {
                        removed.extend(rb.iter().map(|t| Fact::new((*b).clone(), t.clone())));
                        theirs.next();
                    }
                    std::cmp::Ordering::Equal => {
                        if ra != rb {
                            match ra.diff(rb) {
                                Ok(d) => {
                                    let (add, rem) = d.into_parts();
                                    added.extend(
                                        add.into_iter().map(|t| Fact::new((*a).clone(), t)),
                                    );
                                    removed.extend(
                                        rem.into_iter().map(|t| Fact::new((*a).clone(), t)),
                                    );
                                }
                                Err(_) => {
                                    // Same name at different arities across the
                                    // two schemas: no tuple can coincide.
                                    added.extend(
                                        ra.iter().map(|t| Fact::new((*a).clone(), t.clone())),
                                    );
                                    removed.extend(
                                        rb.iter().map(|t| Fact::new((*a).clone(), t.clone())),
                                    );
                                }
                            }
                        }
                        ours.next();
                        theirs.next();
                    }
                },
            }
        }
        InstanceDelta::new(added, removed)
    }

    /// Apply a delta in place: remove `delta.removed()`, insert
    /// `delta.added()`. Inverse of [`Instance::diff`]:
    /// `from.apply_delta(&to.diff(&from))` makes `from`'s facts equal
    /// `to`'s.
    pub fn apply_delta(&mut self, delta: &InstanceDelta) -> Result<(), RelError> {
        for f in delta.removed() {
            self.remove_fact(f);
        }
        for f in delta.added() {
            self.insert_fact(f.clone())?;
        }
        Ok(())
    }

    /// The isomorphic instance `h(I)` for a mapping `h` on values.
    ///
    /// Genericity of queries (paper, Section 2) is stated via permutations
    /// of **dom**; callers wanting a genuine isomorphism should pass an
    /// injective map (see [`crate::iso::Iso`]).
    pub fn map_values(&self, mut h: impl FnMut(&Value) -> Value) -> Instance {
        let mut out = Instance::empty_in(self.mode, self.schema.clone());
        for (name, rel) in &self.relations {
            let mapped = rel.map_values(&mut h);
            out.relations.insert(name.clone(), Arc::new(mapped));
        }
        out
    }
}

/// `rel` housed in `mode`: the same `Arc` when the modes agree, else a
/// re-housed copy, so instances stay storage-homogeneous. Query outputs
/// are built adaptive ([`Relation::from_run`]), already in the small
/// regime when at or below the hysteresis floor, so they enter an
/// adaptive instance shared; only a relation from the other engine is
/// copied.
fn share_in(rel: Arc<Relation>, mode: StorageMode) -> Arc<Relation> {
    if rel.mode() == mode {
        rel
    } else {
        Arc::new(Relation::clone(&rel).into_mode(mode))
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for fact in self.facts() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fact, tuple};

    fn schema_rs() -> Schema {
        Schema::new().with("R", 2).with("S", 1)
    }

    #[test]
    fn vid_row_batches_edit_one_relation() {
        use crate::counted::vid_row;
        let mut i = Instance::empty(schema_rs());
        i.insert_fact(fact!("R", 1, 2)).unwrap();
        let (r12, r34) = (vid_row(&tuple![1, 2]), vid_row(&tuple![3, 4]));
        i.apply_vid_rows(&"R".into(), [&*r34], [&*r12]).unwrap();
        assert!(i.contains_vids(&"R".into(), &r34));
        assert!(!i.contains_vids(&"R".into(), &r12));
        assert_eq!(i.fact_count(), 1);
        // Emptying a relation drops it, like `remove_fact`.
        i.apply_vid_rows(&"R".into(), [], [&*r34]).unwrap();
        assert!(i.relation_ref(&"R".into()).is_none());
        // Undeclared relations and wrong arities are errors.
        assert!(i.apply_vid_rows(&"Q".into(), [&*r12], []).is_err());
        assert!(i.apply_vid_rows(&"S".into(), [&*r12], []).is_err());
        assert!(!i.contains_vids(&"Q".into(), &r12));
    }

    #[test]
    fn empty_instance_has_empty_declared_relations() {
        let i = Instance::empty(schema_rs());
        let r = i.relation(&"R".into()).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.arity(), 2);
        assert!(i.relation(&"T".into()).is_err());
    }

    #[test]
    fn insert_and_query_facts() {
        let mut i = Instance::empty(schema_rs());
        assert!(i.insert_fact(fact!("R", 1, 2)).unwrap());
        assert!(!i.insert_fact(fact!("R", 1, 2)).unwrap());
        assert!(i.contains_fact(&fact!("R", 1, 2)));
        assert!(!i.contains_fact(&fact!("S", 1)));
        assert_eq!(i.fact_count(), 1);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut i = Instance::empty(schema_rs());
        assert!(i.insert_fact(fact!("T", 1)).is_err());
        assert!(i.insert_fact(fact!("R", 1)).is_err());
    }

    #[test]
    fn facts_iteration_deterministic() {
        let i = Instance::from_facts(
            schema_rs(),
            vec![fact!("S", 9), fact!("R", 1, 2), fact!("R", 0, 0)],
        )
        .unwrap();
        let fs: Vec<_> = i.facts().collect();
        assert_eq!(fs, vec![fact!("R", 0, 0), fact!("R", 1, 2), fact!("S", 9)]);
    }

    #[test]
    fn adom_spans_all_relations() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", "a")]).unwrap();
        let d = i.adom();
        assert_eq!(d.len(), 3);
        assert!(d.contains(&Value::sym("a")));
    }

    #[test]
    fn union_merges_facts() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("S", 3), fact!("R", 1, 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
    }

    #[test]
    fn union_merges_disjoint_schemas() {
        let a = Instance::from_facts(Schema::new().with("R", 1), vec![fact!("R", 1)]).unwrap();
        let b = Instance::from_facts(Schema::new().with("M", 1), vec![fact!("M", 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);
        assert!(u.schema().contains(&"R".into()));
        assert!(u.schema().contains(&"M".into()));
    }

    #[test]
    fn subinstance_is_fact_containment() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 1)]).unwrap();
        assert!(a.is_subinstance_of(&b));
        assert!(!b.is_subinstance_of(&a));
    }

    #[test]
    fn restrict_projects_schema() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 3)]).unwrap();
        let r = i.restrict(&Schema::new().with("S", 1)).unwrap();
        assert_eq!(r.fact_count(), 1);
        assert!(r.contains_fact(&fact!("S", 3)));
        assert!(r.relation(&"R".into()).is_err());
    }

    #[test]
    fn widen_keeps_facts_adds_names() {
        let i = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 3)]).unwrap();
        let w = i.widen(schema_rs()).unwrap();
        assert!(w.contains_fact(&fact!("S", 3)));
        assert!(w.relation(&"R".into()).unwrap().is_empty());
        // widening to a schema missing S fails
        assert!(i.widen(Schema::new().with("R", 2)).is_err());
    }

    #[test]
    fn map_values_applies_isomorphism() {
        let i = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let j = i.map_values(|v| match v {
            Value::Int(k) => Value::int(k + 100),
            o => *o,
        });
        assert!(j.contains_fact(&fact!("R", 101, 102)));
        assert_eq!(j.fact_count(), 1);
    }

    #[test]
    fn set_relation_replaces_and_validates() {
        let mut i = Instance::empty(schema_rs());
        let r = Relation::from_tuples(1, vec![tuple![5]]).unwrap();
        i.set_relation("S", r).unwrap();
        assert!(i.contains_fact(&fact!("S", 5)));
        i.set_relation("S", Relation::empty(1)).unwrap();
        assert!(i.is_empty());
        assert!(i.set_relation("S", Relation::empty(4)).is_err());
        assert!(i.set_relation("Nope", Relation::empty(1)).is_err());
    }

    #[test]
    fn diff_apply_delta_roundtrip() {
        let from =
            Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2), fact!("S", 1)]).unwrap();
        let to = Instance::from_facts(
            schema_rs(),
            vec![fact!("R", 1, 2), fact!("R", 3, 4), fact!("S", 2)],
        )
        .unwrap();
        let d = to.diff(&from);
        assert_eq!(d.added().len(), 2);
        assert_eq!(d.removed(), &[fact!("S", 1)]);
        let mut i = from.clone();
        i.apply_delta(&d).unwrap();
        assert_eq!(i, to);
        assert!(to.diff(&to).is_empty());
    }

    #[test]
    fn diff_covers_relations_only_on_one_side() {
        let a = Instance::from_facts(schema_rs(), vec![fact!("R", 1, 2)]).unwrap();
        let b = Instance::from_facts(schema_rs(), vec![fact!("S", 7)]).unwrap();
        let d = b.diff(&a);
        assert_eq!(d.added(), &[fact!("S", 7)]);
        assert_eq!(d.removed(), &[fact!("R", 1, 2)]);
        let mut i = a.clone();
        i.apply_delta(&d).unwrap();
        assert_eq!(i, b);
    }

    #[test]
    fn apply_delta_rejects_undeclared_additions() {
        let narrow = Schema::new().with("R", 2);
        let mut i = Instance::empty(narrow);
        let full = Instance::from_facts(schema_rs(), vec![fact!("S", 1)]).unwrap();
        let d = full.diff(&Instance::empty(schema_rs()));
        assert!(i.apply_delta(&d).is_err());
    }

    #[test]
    fn remove_fact_cleans_up() {
        let mut i = Instance::from_facts(schema_rs(), vec![fact!("S", 1)]).unwrap();
        assert!(i.remove_fact(&fact!("S", 1)));
        assert!(!i.remove_fact(&fact!("S", 1)));
        assert!(i.is_empty());
    }
}
