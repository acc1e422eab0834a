//! Join planning: literal ordering and the scan/indexed join ablation.
//!
//! Every rule-based engine in this crate evaluates a conjunction of
//! atoms left to right, threading a growing set of [`Bindings`]. Two
//! choices dominate the cost of that loop:
//!
//! * **order** — later atoms should have as many columns as possible
//!   already bound, so the join degenerates into an index probe;
//! * **access path** — a bound-column probe against a cached secondary
//!   [`rtx_relational::Index`] instead of a full scan.
//!
//! [`JoinMode::Indexed`] (the default) applies both; [`JoinMode::Scan`]
//! preserves the original literal order and full-scan joins, kept as the
//! measurable baseline for `bench_query`/`bench_dedalus` and as the
//! oracle for the indexed ≡ scan property tests.

use crate::error::EvalError;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Instance, Relation};
use std::collections::BTreeSet;

/// How positive atoms are joined against their relations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinMode {
    /// Original literal order, full-relation scans (the seed behavior).
    Scan,
    /// Planned literal order, bound-column index probes.
    #[default]
    Indexed,
}

/// Order positive atoms greedily by bound-variable coverage.
///
/// Returns a permutation of `0..atoms.len()`. Starting from `pinned`
/// (when given — semi-naive evaluation pins the delta atom first, since
/// the delta is the smallest relation in the join), repeatedly picks the
/// atom with the most bound terms (constants count as bound), breaking
/// ties toward fewer unbound variables and then original position, so
/// the plan is deterministic.
pub fn plan_order(atoms: &[&Atom], pinned: Option<usize>) -> Vec<usize> {
    plan_order_bound(atoms, pinned, BTreeSet::new())
}

/// [`plan_order`] with some variables bound before the first atom —
/// e.g. the head variables of a backward (head-to-body) recount, so
/// the first atom joined is the one the head tuple constrains most.
pub fn plan_order_bound(
    atoms: &[&Atom],
    pinned: Option<usize>,
    mut bound: BTreeSet<Var>,
) -> Vec<usize> {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let bind = |a: &Atom, bound: &mut BTreeSet<Var>| {
        for v in a.vars() {
            bound.insert(v);
        }
    };
    if let Some(i) = pinned {
        order.push(i);
        used[i] = true;
        bind(atoms[i], &mut bound);
    }
    while order.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (bound, unbound, idx)
        for (i, a) in atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let mut bound_terms = 0usize;
            let mut unbound_vars = BTreeSet::new();
            for t in &a.terms {
                match t {
                    Term::Const(_) => bound_terms += 1,
                    Term::Var(v) => {
                        if bound.contains(v) {
                            bound_terms += 1;
                        } else {
                            unbound_vars.insert(*v);
                        }
                    }
                }
            }
            let candidate = (bound_terms, unbound_vars.len(), i);
            let better = match best {
                None => true,
                Some((bb, bu, _)) => {
                    bound_terms > bb || (bound_terms == bb && unbound_vars.len() < bu)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        let (_, _, i) = best.expect("unused atom remains");
        order.push(i);
        used[i] = true;
        bind(atoms[i], &mut bound);
    }
    order
}

/// Borrow an atom's relation from an instance without cloning, so the
/// relation's cached indexes survive across rule firings.
///
/// `Ok(None)` means the relation is declared but empty (the join yields
/// no bindings); errors match [`Instance::relation`]'s validation plus
/// the arity check every engine performed after lookup.
pub fn lookup<'a>(db: &'a Instance, atom: &Atom) -> Result<Option<&'a Relation>, EvalError> {
    match db.relation_ref(&atom.pred) {
        Some(rel) => {
            if rel.arity() != atom.arity() {
                return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                    rel: atom.pred.clone(),
                    expected: rel.arity(),
                    found: atom.arity(),
                }));
            }
            Ok(Some(rel))
        }
        None => match db.schema().arity(&atom.pred) {
            None => Err(EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: atom.pred.clone(),
            })),
            Some(a) if a != atom.arity() => {
                Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                    rel: atom.pred.clone(),
                    expected: a,
                    found: atom.arity(),
                }))
            }
            Some(_) => Ok(None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, Schema};

    #[test]
    fn plan_prefers_constants_then_connectivity() {
        // R(X,Y), S(Y,Z), T(5,W): T has a constant, goes first; then no
        // atom is connected to T, so the tie-break picks R (fewest
        // unbound vars wins over position only on equal counts).
        let a = atom!("R"; @"X", @"Y");
        let b = atom!("S"; @"Y", @"Z");
        let c = atom!("T"; 5, @"W");
        let order = plan_order(&[&a, &b, &c], None);
        assert_eq!(order[0], 2);
        // after T: R and S both have 0 bound / 2 unbound → position order
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn plan_follows_bound_variables() {
        // E(X,Y), E(Y,Z), S(X): after pinning atom 0, S(X) is fully
        // bound and jumps ahead of E(Y,Z).
        let a = atom!("E"; @"X", @"Y");
        let b = atom!("E"; @"Y", @"Z");
        let c = atom!("S"; @"X");
        let order = plan_order(&[&a, &b, &c], Some(0));
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn pre_bound_variables_steer_the_plan() {
        // R(X,Y), E(Y,Z): unbound, R goes first by position; with Z
        // bound (a recount of a head over Z), E is the better start.
        let a = atom!("R"; @"X", @"Y");
        let b = atom!("E"; @"Y", @"Z");
        assert_eq!(plan_order(&[&a, &b], None), vec![0, 1]);
        let bound: BTreeSet<Var> = [Var::new("Z")].into_iter().collect();
        assert_eq!(plan_order_bound(&[&a, &b], None, bound), vec![1, 0]);
    }

    #[test]
    fn plan_is_a_permutation() {
        let a = atom!("A"; @"X");
        let b = atom!("B"; @"X", @"Y");
        let c = atom!("C");
        for pinned in [None, Some(0), Some(1), Some(2)] {
            let mut order = plan_order(&[&a, &b, &c], pinned);
            if let Some(p) = pinned {
                assert_eq!(order[0], p);
            }
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2]);
        }
    }

    #[test]
    fn lookup_borrows_and_validates() {
        let sch = Schema::new().with("R", 2).with("S", 1);
        let mut db = Instance::empty(sch);
        db.insert_fact(fact!("R", 1, 2)).unwrap();
        assert!(lookup(&db, &atom!("R"; @"X", @"Y")).unwrap().is_some());
        assert!(lookup(&db, &atom!("S"; @"X")).unwrap().is_none()); // declared, empty
        assert!(lookup(&db, &atom!("Nope"; @"X")).is_err());
        assert!(lookup(&db, &atom!("R"; @"X")).is_err()); // arity mismatch
        assert!(lookup(&db, &atom!("S"; @"X", @"Y")).is_err()); // empty, wrong arity
    }
}
