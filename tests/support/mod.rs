//! Storage legs shared by the equivalence suites: the B-tree oracle and
//! both regimes of the adaptive engine, built through the public API.

#![allow(dead_code)] // each suite uses the subset it needs

use rtx::relational::{
    adaptive_reentry_len, fact, Fact, Instance, Relation, Schema, StorageMode, Tuple, Value,
};

/// One representation a relation can be in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Leg {
    /// Adaptive, small regime (unsorted log).
    Small,
    /// Adaptive, promoted regime (sorted run plus add/delete tails).
    Promoted,
    /// The `BTreeSet` oracle.
    Btree,
}

/// The three-way equivalence set, oracle last.
pub const ALL_LEGS: [Leg; 3] = [Leg::Small, Leg::Promoted, Leg::Btree];

impl Leg {
    pub fn mode(self) -> StorageMode {
        match self {
            Leg::Small | Leg::Promoted => StorageMode::Adaptive,
            Leg::Btree => StorageMode::Btree,
        }
    }

    /// `tuples` in this representation (`arity ≥ 1`). The promoted leg
    /// is bulk-built from a filler above the hysteresis floor, which is
    /// then removed again (point removals never demote) before `tuples`
    /// are inserted — so its tails hold tombstones from the start.
    pub fn relation(self, arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        if self != Leg::Promoted {
            return Relation::from_tuples_in(self.mode(), arity, tuples).unwrap();
        }
        let filler: Vec<Tuple> = (0..=adaptive_reentry_len() as i64)
            .map(|i| vec![Value::Int(-1_000_000 - i); arity].into())
            .collect();
        let mut r = Relation::from_tuples_in(self.mode(), arity, filler.clone()).unwrap();
        for t in &filler {
            assert!(r.remove(t));
        }
        for t in tuples {
            r.insert(t).unwrap();
        }
        assert!(!r.in_small_regime());
        r
    }

    /// An instance holding `facts`, every populated relation in this
    /// representation (`set_relation` shares a same-mode relation as
    /// is, so nothing demotes on the way in).
    pub fn instance(self, schema: Schema, facts: impl IntoIterator<Item = Fact>) -> Instance {
        let mut inst = Instance::from_facts_in(self.mode(), schema.clone(), facts).unwrap();
        for (name, arity) in schema.iter() {
            if let Some(rel) = inst.relation_ref(name) {
                let rel = self.relation(arity, rel.iter().cloned());
                inst.set_relation(name.clone(), rel).unwrap();
            }
        }
        inst
    }

    /// The binary relation holding `pairs`.
    pub fn pairs(self, pairs: &[(u8, u8)]) -> Relation {
        let tuple = |&(a, b): &(u8, u8)| vec![Value::Int(a as i64), Value::Int(b as i64)].into();
        self.relation(2, pairs.iter().map(tuple))
    }

    /// An instance whose edge relation `e` holds `pairs`.
    pub fn edges(self, pairs: &[(u8, u8)]) -> Instance {
        let facts = pairs.iter().map(|&(a, b)| fact!("e", a as i64, b as i64));
        self.instance(Schema::new().with("e", 2), facts)
    }
}
