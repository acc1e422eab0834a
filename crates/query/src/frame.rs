//! The columnar join executor: conjunctions evaluated directly over
//! sorted-run storage.
//!
//! A [`Frame`] is the columnar counterpart of a `Vec<Bindings>`: one
//! flat `Vec<Vid>` per bound variable, all the same length. Joining an
//! atom appends matching rows by copying packed `u32` ids — no
//! `Bindings` clone, no `Tuple` materialization, no tree insert —
//! either by scanning the relation's run (the seed-order scan mode) or
//! by probing a run view for the row range matching the bound columns
//! (the indexed mode). Head projection gathers variable columns into a
//! fresh [`Run`], so a rule firing goes from stored runs to a derived
//! run without ever leaving the interned-id domain.
//!
//! Atoms can also be compiled once into [`AtomSlots`] against a layout
//! known ahead of time and joined by [`join_depth_first`]: one binding
//! at a time, in place, with no per-atom column allocation. The
//! incremental maintenance engine runs its precompiled delta plans
//! that way, since each of its steps joins a handful of rows.
//!
//! The executor only runs when every source relation hands out a
//! sorted run (the adaptive engine); engines fall back to the generic
//! `Bindings` path otherwise (which is exactly what `RTX_STORAGE=btree`
//! forces, keeping the btree engine a full-pipeline oracle).

use crate::error::EvalError;
use crate::term::{Atom, Term, Var};
use rtx_relational::{Run, Value, Vid};
use std::sync::Arc;

/// Relations this small are joined by scan even in indexed mode — same
/// policy as `Atom::join_indexed`.
const SCAN_THRESHOLD: usize = 16;

/// How one atom position relates to the frame being joined.
#[derive(Clone, Debug)]
enum Slot {
    /// A constant in the atom: candidate rows must carry this id.
    Const(Vid),
    /// A variable already bound by the frame (column index).
    Bound(usize),
    /// First occurrence of a fresh variable: binds from the row.
    Fresh,
    /// Repeated fresh variable: must equal the atom position of its
    /// first occurrence.
    Dup(usize),
}

/// One atom compiled against a fixed frame layout: every position
/// classified as constant (pre-interned), bound column, fresh
/// variable, or repeat of an earlier position, plus the probe key
/// columns. Built once per (rule, join order) by a planner that knows
/// the layout statically — see `incremental.rs` — or per call by
/// [`Frame::join_atom`].
#[derive(Clone, Debug)]
pub(crate) struct AtomSlots {
    slots: Vec<Slot>,
    /// Positions whose id is known before looking at the row.
    key_cols: Vec<usize>,
    /// Number of columns bound before this atom joins.
    base: usize,
    /// Number of fresh variables (columns the join appends).
    fresh: usize,
}

impl AtomSlots {
    /// Compile `atom` against the variables bound so far (`layout`, in
    /// frame column order), appending its fresh variables to `layout`
    /// in first-occurrence order.
    pub(crate) fn compile(atom: &Atom, layout: &mut Vec<Var>) -> AtomSlots {
        let bound = layout.len();
        let mut slots = Vec::with_capacity(atom.terms.len());
        for (p, t) in atom.terms.iter().enumerate() {
            let slot = match t {
                Term::Const(c) => Slot::Const(Vid::from_value(c)),
                Term::Var(v) => match layout[..bound].iter().position(|w| w == v) {
                    Some(c) => Slot::Bound(c),
                    None => match atom.terms[..p].iter().position(|u| u.as_var() == Some(v)) {
                        Some(first) => Slot::Dup(first),
                        None => {
                            layout.push(*v);
                            Slot::Fresh
                        }
                    },
                },
            };
            slots.push(slot);
        }
        let key_cols = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Const(_) | Slot::Bound(_)))
            .map(|(p, _)| p)
            .collect();
        AtomSlots {
            slots,
            key_cols,
            base: bound,
            fresh: layout.len() - bound,
        }
    }

    /// Bind one candidate row (its ids by position, via `get`) into
    /// `env`: check constants, bound columns (unless a probe on the key
    /// columns already did) and repeated variables, and write the fresh
    /// variables to their columns. `false` when the row does not match.
    #[inline]
    pub(crate) fn bind(&self, get: impl Fn(usize) -> Vid, env: &mut [Vid], keyed: bool) -> bool {
        let mut next = self.base;
        for (p, s) in self.slots.iter().enumerate() {
            let ok = match *s {
                Slot::Const(k) => keyed || get(p) == k,
                Slot::Bound(c) => keyed || get(p) == env[c],
                Slot::Dup(first) => get(p) == get(first),
                Slot::Fresh => {
                    env[next] = get(p);
                    next += 1;
                    true
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// The depth-first counterpart of a [`Frame`] join chain, for plans
/// compiled once and run many times on tiny inputs (the maintenance
/// engine's elementary steps). `env` holds one binding, sized to the
/// final layout, with the columns before `steps[0]` already bound;
/// each step probes a view of its run on the key columns (scanning
/// runs of at most [`SCAN_THRESHOLD`] rows), binds its fresh columns in
/// place and recurses, and `visit` sees every complete binding — one
/// call per firing, duplicates included. Nothing is allocated per
/// binding, where a frame join allocates its columns per atom. `runs`
/// is parallel to `steps`.
pub(crate) fn join_depth_first(
    steps: &[AtomSlots],
    runs: &[&Run],
    env: &mut [Vid],
    visit: &mut dyn FnMut(&[Vid]),
) {
    let (Some((atom, rest)), Some((run, rest_runs))) = (steps.split_first(), runs.split_first())
    else {
        visit(env);
        return;
    };
    if run.is_empty() {
        return;
    }
    let keys = &atom.key_cols;
    if keys.is_empty() || run.len() <= SCAN_THRESHOLD {
        for ri in 0..run.len() {
            if atom.bind(|p| run.col(p)[ri], env, false) {
                join_depth_first(rest, rest_runs, env, visit);
            }
        }
        return;
    }
    let key: Vec<Vid> = keys
        .iter()
        .map(|&p| match atom.slots[p] {
            Slot::Const(k) => k,
            Slot::Bound(c) => env[c],
            _ => unreachable!("key columns are const or bound"),
        })
        .collect();
    let view = run.view(keys);
    let hits = view
        .probe_rows(&key)
        .expect("columnar runs build view indexes");
    for ri in hits {
        if atom.bind(|p| run.col(p)[ri], env, true) {
            join_depth_first(rest, rest_runs, env, visit);
        }
    }
}

/// A set of partial variable bindings in columnar form.
pub(crate) struct Frame {
    vars: Vec<Var>,
    cols: Vec<Vec<Vid>>,
    rows: usize,
}

impl Frame {
    /// The unit frame: no variables, one (empty) binding.
    pub(crate) fn unit() -> Frame {
        Frame {
            vars: Vec::new(),
            cols: Vec::new(),
            rows: 1,
        }
    }

    /// Number of bindings.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Is the frame empty (no bindings at all)?
    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Join the atom against `run`, appending fresh-variable columns.
    ///
    /// `indexed` selects the access path: a cached run view probed on
    /// the constant/bound columns, or a full scan of the run per
    /// binding (the seed baseline). Both enumerate candidate rows in
    /// run (scan) order, so the output row order — and therefore
    /// everything downstream — is identical.
    pub(crate) fn join_atom(&self, atom: &Atom, run: &Arc<Run>, indexed: bool) -> Frame {
        let mut vars = self.vars.clone();
        let atom = AtomSlots::compile(atom, &mut vars);
        let slots = &atom.slots;
        let nold = self.cols.len();
        // First unconstrained atom against a unit frame: the result is
        // the run's columns verbatim — copy them wholesale.
        if nold == 0 && self.rows == 1 && atom.fresh == slots.len() {
            return Frame {
                vars,
                cols: (0..slots.len()).map(|p| run.col(p).to_vec()).collect(),
                rows: run.len(),
            };
        }
        let mut out_cols: Vec<Vec<Vid>> = vec![Vec::new(); nold + atom.fresh];

        // Key columns for the probe: every position whose id is known
        // before looking at the row.
        let key_cols = &atom.key_cols;
        let use_probe = indexed && !key_cols.is_empty() && run.len() > SCAN_THRESHOLD;
        let view = use_probe.then(|| run.view(key_cols));
        let mut key: Vec<Vid> = Vec::with_capacity(key_cols.len());

        let emit = |out_cols: &mut Vec<Vec<Vid>>, fi: usize, ri: usize| {
            for (c, col) in out_cols[..nold].iter_mut().enumerate() {
                col.push(self.cols[c][fi]);
            }
            let mut next = nold;
            for (p, s) in slots.iter().enumerate() {
                if matches!(s, Slot::Fresh) {
                    out_cols[next].push(run.col(p)[ri]);
                    next += 1;
                }
            }
        };
        // Row-level checks the probe key can't cover: repeated fresh
        // variables always; constants and bound variables too on the
        // scan path.
        let verify = |fi: usize, ri: usize, probed: bool| -> bool {
            for (p, s) in slots.iter().enumerate() {
                let ok = match s {
                    Slot::Const(k) => probed || run.col(p)[ri] == *k,
                    Slot::Bound(c) => probed || run.col(p)[ri] == self.cols[*c][fi],
                    Slot::Fresh => true,
                    Slot::Dup(first) => run.col(p)[ri] == run.col(*first)[ri],
                };
                if !ok {
                    return false;
                }
            }
            true
        };

        let mut out_rows = 0usize;
        for fi in 0..self.rows {
            match &view {
                Some(view) => {
                    key.clear();
                    for &p in key_cols {
                        key.push(match &slots[p] {
                            Slot::Const(k) => *k,
                            Slot::Bound(c) => self.cols[*c][fi],
                            _ => unreachable!("key columns are const or bound"),
                        });
                    }
                    let hits = view
                        .probe_rows(&key)
                        .expect("columnar runs build view indexes");
                    for ri in hits {
                        if verify(fi, ri, true) {
                            emit(&mut out_cols, fi, ri);
                            out_rows += 1;
                        }
                    }
                }
                None => {
                    for ri in 0..run.len() {
                        if verify(fi, ri, false) {
                            emit(&mut out_cols, fi, ri);
                            out_rows += 1;
                        }
                    }
                }
            }
        }
        Frame {
            vars,
            cols: out_cols,
            rows: out_rows,
        }
    }

    /// Resolve a term to a per-row id source, or `None` if it is an
    /// unbound variable.
    fn source(&self, t: &Term) -> Option<Src> {
        Src::compile(t, &self.vars)
    }

    /// Keep only rows where `x ≠ y`. Errors if either side is unbound.
    pub(crate) fn retain_diseq(&mut self, x: &Term, y: &Term) -> Result<(), EvalError> {
        let unsafe_err = || EvalError::Unsafe {
            reason: "nonequality over unbound variable".into(),
        };
        let sx = self.source(x).ok_or_else(unsafe_err)?;
        let sy = self.source(y).ok_or_else(unsafe_err)?;
        self.retain(|f, r| sx.get(f, r) != sy.get(f, r));
        Ok(())
    }

    /// Keep only rows whose instantiation of `atom` is *not* in `run`
    /// (stratified negation). Errors if any atom variable is unbound.
    pub(crate) fn retain_not_in(&mut self, atom: &Atom, run: &Run) -> Result<(), EvalError> {
        let srcs: Vec<Src> = atom
            .terms
            .iter()
            .map(|t| {
                self.source(t).ok_or_else(|| EvalError::Unsafe {
                    reason: format!("negated atom {atom} unbound"),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut key: Vec<Vid> = vec![Vid::from_value(&Value::int(0)); srcs.len()];
        self.retain(|f, r| {
            for (k, s) in key.iter_mut().zip(&srcs) {
                *k = s.get(f, r);
            }
            !run.contains_vids(&key)
        });
        Ok(())
    }

    /// Retain rows satisfying the predicate (given the frame and row).
    fn retain(&mut self, mut pred: impl FnMut(&Frame, usize) -> bool) {
        let keep: Vec<u32> = (0..self.rows)
            .filter(|&r| pred(self, r))
            .map(|r| r as u32)
            .collect();
        if keep.len() == self.rows {
            return;
        }
        for col in &mut self.cols {
            let old = std::mem::take(col);
            *col = keep.iter().map(|&r| old[r as usize]).collect();
        }
        self.rows = keep.len();
    }

    /// Project the head terms into a sorted, deduplicated [`Run`] —
    /// the derived relation of one rule firing. Errors if a head
    /// variable is unbound.
    pub(crate) fn project(&self, terms: &[Term]) -> Result<Run, EvalError> {
        let srcs: Vec<Src> = terms
            .iter()
            .map(|t| {
                self.source(t).ok_or_else(|| EvalError::Unsafe {
                    reason: "head term unbound".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let cols: Vec<Vec<Vid>> = srcs
            .iter()
            .map(|s| match s {
                Src::Lit(k) => vec![*k; self.rows],
                Src::Col(c) => self.cols[*c].clone(),
            })
            .collect();
        Ok(Run::from_cols(self.rows, cols))
    }

    /// Materialize one row's instantiation of `terms` as a [`Tuple`].
    #[cfg(test)]
    fn tuple_at(&self, terms: &[Term], r: usize) -> rtx_relational::Tuple {
        terms
            .iter()
            .map(|t| match self.source(t).expect("bound") {
                Src::Lit(k) => k.value(),
                Src::Col(c) => self.cols[c][r].value(),
            })
            .collect()
    }
}

/// A per-row id source: a literal or a frame column.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// A constant id.
    Lit(Vid),
    /// A frame column.
    Col(usize),
}

impl Src {
    /// Resolve a term against a frame column layout; `None` when the
    /// term is a variable the layout does not bind.
    pub(crate) fn compile(t: &Term, layout: &[Var]) -> Option<Src> {
        match t {
            Term::Const(c) => Some(Src::Lit(Vid::from_value(c))),
            Term::Var(v) => layout.iter().position(|w| w == v).map(Src::Col),
        }
    }

    #[inline]
    fn get(&self, f: &Frame, r: usize) -> Vid {
        match self {
            Src::Lit(k) => *k,
            Src::Col(c) => f.cols[*c][r],
        }
    }

    /// The id this source takes in a depth-first binding.
    #[inline]
    pub(crate) fn at(&self, env: &[Vid]) -> Vid {
        match self {
            Src::Lit(k) => *k,
            Src::Col(c) => env[*c],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use crate::term::Bindings;
    use rtx_relational::{tuple, Relation, Tuple};

    fn run_of(tuples: &[Tuple]) -> Arc<Run> {
        let arity = tuples.first().map(|t| t.arity()).unwrap_or(0);
        Relation::from_tuples_in(
            rtx_relational::StorageMode::Adaptive,
            arity,
            tuples.iter().cloned(),
        )
        .unwrap()
        .columnar_run()
        .unwrap()
    }

    /// The generic-path answer for the same join, as an oracle.
    fn generic_join(atoms: &[Atom], runs: &[Arc<Run>], indexed: bool) -> Vec<Bindings> {
        let mut envs = vec![Bindings::new()];
        for (a, r) in atoms.iter().zip(runs) {
            let rel = Relation::from_run(Run::from_sorted(r.arity(), r.rows().iter()));
            envs = if indexed {
                a.join_indexed(&rel, &envs)
            } else {
                a.join(&rel, &envs)
            };
        }
        envs
    }

    fn frame_join(atoms: &[Atom], runs: &[Arc<Run>], indexed: bool) -> Frame {
        let mut f = Frame::unit();
        for (a, r) in atoms.iter().zip(runs) {
            f = f.join_atom(a, r, indexed);
        }
        f
    }

    #[test]
    fn two_hop_join_matches_generic_both_paths() {
        let e = run_of(&(0..40i64).map(|i| tuple![i, i + 1]).collect::<Vec<_>>());
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let runs = [Arc::clone(&e), e];
        for indexed in [false, true] {
            let f = frame_join(&atoms, &runs, indexed);
            let envs = generic_join(&atoms, &runs, indexed);
            assert_eq!(f.rows(), envs.len());
            let head = [Term::var("X"), Term::var("Z")];
            let got: Vec<Tuple> = (0..f.rows()).map(|r| f.tuple_at(&head, r)).collect();
            let want: Vec<Tuple> = envs
                .iter()
                .map(|e| {
                    head.iter()
                        .map(|t| t.resolve(e).unwrap())
                        .collect::<Tuple>()
                })
                .collect();
            assert_eq!(got, want, "indexed={indexed}");
        }
    }

    #[test]
    fn constants_and_repeated_vars() {
        let r = run_of(&[
            tuple![1, 1, 2],
            tuple![1, 2, 2],
            tuple![1, 2, 3],
            tuple![2, 2, 2],
        ]);
        // R(1, X, X): constant first column, repeated fresh variable.
        let a = atom!("R"; 1, @"X", @"X");
        for indexed in [false, true] {
            let f = Frame::unit().join_atom(&a, &r, indexed);
            assert_eq!(f.rows(), 1, "indexed={indexed}");
            assert_eq!(f.tuple_at(&[Term::var("X")], 0), tuple![2]);
        }
    }

    #[test]
    fn bound_vars_probe_matches_scan() {
        let e = run_of(&(0..30i64).map(|i| tuple![i % 5, i]).collect::<Vec<_>>());
        let s = run_of(&(0..5i64).map(|i| tuple![i, i * 10]).collect::<Vec<_>>());
        let atoms = [atom!("S"; @"A", @"B"), atom!("E"; @"A", @"C")];
        let runs = [s, e];
        let scan = frame_join(&atoms, &runs, false);
        let probe = frame_join(&atoms, &runs, true);
        let head = [Term::var("A"), Term::var("B"), Term::var("C")];
        let a: Vec<Tuple> = (0..scan.rows()).map(|r| scan.tuple_at(&head, r)).collect();
        let b: Vec<Tuple> = (0..probe.rows())
            .map(|r| probe.tuple_at(&head, r))
            .collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn filters_and_projection() {
        let e = run_of(&[tuple![1, 1], tuple![1, 2], tuple![2, 3], tuple![3, 3]]);
        let s = run_of(&[tuple![2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), &e, true);
        // X ≠ Y drops (1,1) and (3,3)
        f.retain_diseq(&Term::var("X"), &Term::var("Y")).unwrap();
        assert_eq!(f.rows(), 2);
        // ¬S(X) drops (2,3)
        f.retain_not_in(&atom!("S"; @"X"), &s).unwrap();
        assert_eq!(f.rows(), 1);
        let out = f.project(&[Term::var("Y"), Term::var("X")]).unwrap();
        assert_eq!(out.rows(), &[tuple![2, 1]]);
        // projection sorts and dedups
        let dup = f.project(&[Term::cons(7)]).unwrap();
        assert_eq!(dup.rows(), &[tuple![7]]);
    }

    #[test]
    fn project_counts_keeps_multiplicities() {
        // Two-hop over a diamond: 1→2→4 and 1→3→4 both derive (1,4).
        // The depth-first executor reports every firing, duplicates
        // included — the counts a counting-maintenance engine needs.
        let e = run_of(&[tuple![1, 2], tuple![1, 3], tuple![2, 4], tuple![3, 4]]);
        let atoms = [atom!("E"; @"X", @"Y"), atom!("E"; @"Y", @"Z")];
        let mut layout = Vec::new();
        let steps: Vec<AtomSlots> = atoms
            .iter()
            .map(|a| AtomSlots::compile(a, &mut layout))
            .collect();
        let head = [
            Src::compile(&Term::var("X"), &layout).unwrap(),
            Src::compile(&Term::var("Z"), &layout).unwrap(),
        ];
        let v = |i: i64| Vid::from_value(&Value::int(i));
        let mut env = vec![v(0); layout.len()];
        let mut firings: Vec<Tuple> = Vec::new();
        join_depth_first(&steps, &[&e, &e], &mut env, &mut |env| {
            firings.push(head.iter().map(|s| s.at(env).value()).collect())
        });
        assert_eq!(firings, vec![tuple![1, 4], tuple![1, 4]]);
        // Same firings as the frame join of the same atoms.
        let f = frame_join(&atoms, &[Arc::clone(&e), Arc::clone(&e)], true);
        assert_eq!(f.rows(), 2);
        // Unbound head variables do not compile.
        assert!(Src::compile(&Term::var("Q"), &layout).is_none());
        // Binding a row checks constants and repeated variables.
        let r = atom!("R"; 1, @"X", @"X");
        let slots = AtomSlots::compile(&r, &mut Vec::new());
        let mut env = [v(0)];
        assert!(slots.bind(|p| [v(1), v(2), v(2)][p], &mut env, false));
        assert_eq!(env, [v(2)]);
        assert!(!slots.bind(|p| [v(1), v(2), v(3)][p], &mut env, false));
        assert!(!slots.bind(|p| [v(0), v(2), v(2)][p], &mut env, false));
    }

    #[test]
    fn depth_first_probes_match_scans() {
        // Large enough to probe: S(A,B) then E(A,C), bound on A.
        let e = run_of(&(0..40i64).map(|i| tuple![i % 5, i]).collect::<Vec<_>>());
        let s = run_of(&(0..20i64).map(|i| tuple![i, i * 10]).collect::<Vec<_>>());
        let atoms = [atom!("S"; @"A", @"B"), atom!("E"; @"A", @"C")];
        let mut layout = Vec::new();
        let steps: Vec<AtomSlots> = atoms
            .iter()
            .map(|a| AtomSlots::compile(a, &mut layout))
            .collect();
        let mut env = vec![Vid::from_value(&Value::int(0)); layout.len()];
        let mut n = 0;
        join_depth_first(&steps, &[&s, &e], &mut env, &mut |_| n += 1);
        let f = frame_join(&atoms, &[s, e], false);
        assert_eq!(n, f.rows());
        assert_eq!(n, 40);
    }

    #[test]
    fn unbound_filter_vars_error() {
        let e = run_of(&[tuple![1, 2]]);
        let mut f = Frame::unit().join_atom(&atom!("E"; @"X", @"Y"), &e, true);
        assert!(f.retain_diseq(&Term::var("X"), &Term::var("Q")).is_err());
        assert!(f.retain_not_in(&atom!("S"; @"Q"), &e).is_err());
        assert!(f.project(&[Term::var("Q")]).is_err());
    }
}
