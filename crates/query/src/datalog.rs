//! Datalog, stratified Datalog, and nonrecursive Datalog.
//!
//! Implements naive and semi-naive bottom-up evaluation with stratified
//! negation. The immediate-consequence operator `T_P` is exposed
//! separately because the paper's Theorem 6(5) builds an oblivious,
//! inflationary transducer whose insertion queries apply `T_P` once per
//! heartbeat.

use crate::error::EvalError;
use crate::frame::Frame;
use crate::incremental::FixpointStats;
use crate::plan::{self, JoinMode};
use crate::query::Query;
use crate::term::{Atom, Bindings, Term, Var};
use rtx_relational::{Fact, Instance, RelName, Relation, Run, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A body literal.
#[derive(Clone, PartialEq, Eq)]
pub enum Literal {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom (stratified semantics).
    Neg(Atom),
    /// A nonequality constraint `t1 ≠ t2`.
    Diseq(Term, Term),
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "¬{a}"),
            Literal::Diseq(x, y) => write!(f, "{x} ≠ {y}"),
        }
    }
}

/// A Datalog rule `head ← body`.
#[derive(Clone)]
pub struct Rule {
    head: Atom,
    body: Vec<Literal>,
    /// Join orders for the positive atoms (index 0: no atom pinned;
    /// index i+1: atom i pinned first, as when atom i joins the
    /// semi-naive delta). A pure function of `body`, computed lazily on
    /// the first indexed evaluation and cached so the per-firing hot
    /// path never replans — and so scan-only evaluations (the ablation
    /// baseline) never pay for planning at all.
    plans: std::sync::OnceLock<Vec<Vec<usize>>>,
}

// `plans` is a cache of a pure function of `body`; equality is over the
// logical rule only.
impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.body == other.body
    }
}

impl Eq for Rule {}

impl Rule {
    /// Build a rule, validating safety: every head variable, negated-atom
    /// variable, and nonequality variable must occur in a positive body
    /// atom.
    pub fn new(head: Atom, body: Vec<Literal>) -> Result<Self, EvalError> {
        let mut pos_vars: BTreeSet<Var> = BTreeSet::new();
        for l in &body {
            if let Literal::Pos(a) = l {
                pos_vars.extend(a.vars());
            }
        }
        let mut need: Vec<(&str, Var)> = Vec::new();
        for v in head.vars() {
            need.push(("head", v));
        }
        for l in &body {
            match l {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    for v in a.vars() {
                        need.push(("negated atom", v));
                    }
                }
                Literal::Diseq(x, y) => {
                    for t in [x, y] {
                        if let Term::Var(v) = t {
                            need.push(("nonequality", *v));
                        }
                    }
                }
            }
        }
        for (what, v) in need {
            if !pos_vars.contains(&v) {
                return Err(EvalError::Unsafe {
                    reason: format!("{what} variable {v} not bound by a positive body atom"),
                });
            }
        }
        Ok(Rule {
            head,
            body,
            plans: std::sync::OnceLock::new(),
        })
    }

    /// The cached join order for the given pinned delta atom.
    pub(crate) fn plan(&self, pinned: Option<usize>) -> &[usize] {
        let plans = self.plans.get_or_init(|| {
            let atoms: Vec<&Atom> = self
                .body
                .iter()
                .filter_map(|l| match l {
                    Literal::Pos(a) => Some(a),
                    _ => None,
                })
                .collect();
            let mut plans = Vec::with_capacity(atoms.len() + 1);
            plans.push(plan::plan_order(&atoms, None));
            for i in 0..atoms.len() {
                plans.push(plan::plan_order(&atoms, Some(i)));
            }
            plans
        });
        &plans[pinned.map(|i| i + 1).unwrap_or(0)]
    }

    /// The head atom.
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The body literals.
    pub fn body(&self) -> &[Literal] {
        &self.body
    }

    /// Does the body contain a negated atom?
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Neg(_)))
    }

    /// Evaluate the rule against `pos_db` for positive atoms and `neg_db`
    /// for negated atoms (these differ under stratified semantics only in
    /// that `neg_db` must already be complete). When `delta` is given as
    /// `(index, relation)`, the positive atom at `index` is joined against
    /// that delta relation instead of its `pos_db` relation (semi-naive
    /// evaluation).
    fn derive(
        &self,
        pos_db: &Instance,
        neg_db: &Instance,
        delta: Option<(usize, &Relation)>,
        mode: JoinMode,
        out: &mut Vec<Tuple>,
    ) -> Result<(), EvalError> {
        let envs = match mode {
            JoinMode::Scan => self.join_positive_scan(pos_db, delta)?,
            JoinMode::Indexed => self.join_positive_indexed(pos_db, delta)?,
        };
        if envs.is_empty() {
            // A rule with no positive atoms still yields one empty
            // binding; an empty vector here means some join failed.
            return Ok(());
        }
        // filters
        'env: for env in envs {
            for l in &self.body {
                match l {
                    Literal::Pos(_) => {}
                    Literal::Neg(a) => {
                        let rel = neg_db.relation(&a.pred)?;
                        let t = a.instantiate(&env).ok_or_else(|| EvalError::Unsafe {
                            reason: format!("negated atom {a} unbound"),
                        })?;
                        if rel.contains(&t) {
                            continue 'env;
                        }
                    }
                    Literal::Diseq(x, y) => {
                        let (vx, vy) = (x.resolve(&env), y.resolve(&env));
                        match (vx, vy) {
                            (Some(a), Some(b)) if a != b => {}
                            (Some(_), Some(_)) => continue 'env,
                            _ => {
                                return Err(EvalError::Unsafe {
                                    reason: "nonequality over unbound variable".into(),
                                })
                            }
                        }
                    }
                }
            }
            let t = self
                .head
                .instantiate(&env)
                .ok_or_else(|| EvalError::Unsafe {
                    reason: "head unbound".into(),
                })?;
            out.push(t);
        }
        Ok(())
    }

    /// Columnar rule firing: the whole body — joins, stratified-negation
    /// and nonequality filters, head projection — evaluated directly
    /// over sorted runs via [`Frame`], returning the derived head facts
    /// as a sorted, deduplicated [`Run`]. Returns `Ok(None)` when some
    /// source relation is not columnar, in which case the caller must
    /// take the generic [`Rule::derive`] path (that is exactly what the
    /// `RTX_STORAGE=btree` oracle forces).
    ///
    /// `mode` keeps its meaning: `Scan` joins in original literal order
    /// scanning every run row per binding; `Indexed` joins in planned
    /// order probing run views on the bound columns.
    fn derive_run(
        &self,
        pos_db: &Instance,
        neg_db: &Instance,
        delta: Option<(usize, &Relation)>,
        mode: JoinMode,
    ) -> Result<Option<Run>, EvalError> {
        let atoms: Vec<&Atom> = self
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(a),
                _ => None,
            })
            .collect();
        let head_arity = self.head.arity();
        let mut runs: Vec<Arc<Run>> = Vec::with_capacity(atoms.len());
        for (i, a) in atoms.iter().enumerate() {
            let src = match delta {
                Some((d, rel)) if d == i => {
                    if rel.arity() != a.arity() {
                        return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                            rel: a.pred.clone(),
                            expected: rel.arity(),
                            found: a.arity(),
                        }));
                    }
                    if rel.is_empty() {
                        None
                    } else {
                        Some(rel)
                    }
                }
                _ => plan::lookup(pos_db, a)?,
            };
            match src {
                // Some atom's relation is empty: the conjunction is empty.
                None => return Ok(Some(Run::empty(head_arity))),
                Some(rel) => match rel.columnar_run() {
                    None => return Ok(None),
                    Some(run) => runs.push(run),
                },
            }
        }
        let mut neg_runs: Vec<Option<Arc<Run>>> = Vec::new();
        for l in &self.body {
            if let Literal::Neg(a) = l {
                match plan::lookup(neg_db, a)? {
                    None => neg_runs.push(None), // empty: filters nothing
                    Some(rel) => match rel.columnar_run() {
                        None => return Ok(None),
                        Some(run) => neg_runs.push(Some(run)),
                    },
                }
            }
        }

        let indexed = mode == JoinMode::Indexed;
        let order: Vec<usize> = match mode {
            JoinMode::Scan => (0..atoms.len()).collect(),
            JoinMode::Indexed => self.plan(delta.map(|(i, _)| i)).to_vec(),
        };
        let mut frame = Frame::unit();
        for &i in &order {
            frame = frame.join_atom(atoms[i], &runs[i], indexed);
            if frame.is_empty() {
                return Ok(Some(Run::empty(head_arity)));
            }
        }
        let mut negs = neg_runs.iter();
        for l in &self.body {
            match l {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    let run = negs.next().expect("one run slot per negated atom");
                    if let Some(run) = run {
                        frame.retain_not_in(a, run)?;
                    }
                }
                Literal::Diseq(x, y) => frame.retain_diseq(x, y)?,
            }
            if frame.is_empty() {
                return Ok(Some(Run::empty(head_arity)));
            }
        }
        frame.project(&self.head.terms).map(Some)
    }

    /// One rule firing as a sorted run of head facts: the columnar
    /// executor when every source is columnar, else the generic path
    /// with its output sorted into a run.
    fn derive_to_run(
        &self,
        pos_db: &Instance,
        neg_db: &Instance,
        delta: Option<(usize, &Relation)>,
        mode: JoinMode,
    ) -> Result<Run, EvalError> {
        if let Some(run) = self.derive_run(pos_db, neg_db, delta, mode)? {
            return Ok(run);
        }
        let mut tuples = Vec::new();
        self.derive(pos_db, neg_db, delta, mode, &mut tuples)?;
        tuples.sort_unstable();
        tuples.dedup();
        Ok(Run::from_sorted(self.head.arity(), tuples.iter()))
    }

    /// The seed join loop: original literal order, full-scan joins,
    /// owned relation lookups. Kept verbatim as the `JoinMode::Scan`
    /// baseline the benches and property tests measure against.
    fn join_positive_scan(
        &self,
        pos_db: &Instance,
        delta: Option<(usize, &Relation)>,
    ) -> Result<Vec<Bindings>, EvalError> {
        let mut envs: Vec<Bindings> = vec![Bindings::new()];
        let mut pos_index = 0usize;
        for l in &self.body {
            if let Literal::Pos(a) = l {
                let owned;
                let rel = match delta {
                    Some((i, d)) if i == pos_index => d,
                    _ => {
                        owned = pos_db.relation(&a.pred)?;
                        &owned
                    }
                };
                if rel.arity() != a.arity() {
                    return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                        rel: a.pred.clone(),
                        expected: rel.arity(),
                        found: a.arity(),
                    }));
                }
                envs = a.join(rel, &envs);
                if envs.is_empty() {
                    return Ok(envs);
                }
                pos_index += 1;
            }
        }
        Ok(envs)
    }

    /// The planned join loop: literals reordered by bound-variable
    /// coverage (the delta atom, if any, pinned first), relations
    /// borrowed so their cached indexes persist across firings, and
    /// each step probing an index on the already-bound columns.
    fn join_positive_indexed(
        &self,
        pos_db: &Instance,
        delta: Option<(usize, &Relation)>,
    ) -> Result<Vec<Bindings>, EvalError> {
        let atoms: Vec<&Atom> = self
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(a),
                _ => None,
            })
            .collect();
        if atoms.is_empty() {
            return Ok(vec![Bindings::new()]);
        }
        let mut sources: Vec<Option<&Relation>> = Vec::with_capacity(atoms.len());
        for (i, a) in atoms.iter().enumerate() {
            let src = match delta {
                Some((d, rel)) if d == i => {
                    if rel.arity() != a.arity() {
                        return Err(EvalError::Rel(rtx_relational::RelError::ArityMismatch {
                            rel: a.pred.clone(),
                            expected: rel.arity(),
                            found: a.arity(),
                        }));
                    }
                    if rel.is_empty() {
                        None
                    } else {
                        Some(rel)
                    }
                }
                _ => plan::lookup(pos_db, a)?,
            };
            sources.push(src);
        }
        if sources.iter().any(Option::is_none) {
            // Some atom's relation is empty: the conjunction is empty.
            return Ok(Vec::new());
        }
        let order = self.plan(delta.map(|(i, _)| i));
        let mut envs: Vec<Bindings> = vec![Bindings::new()];
        for &i in order {
            let rel = sources[i].expect("checked non-empty above");
            envs = atoms[i].join_indexed(rel, &envs);
            if envs.is_empty() {
                return Ok(envs);
            }
        }
        Ok(envs)
    }

    fn count_pos(&self) -> usize {
        self.body
            .iter()
            .filter(|l| matches!(l, Literal::Pos(_)))
            .count()
    }

    fn pos_pred(&self, index: usize) -> Option<&RelName> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(&a.pred),
                _ => None,
            })
            .nth(index)
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← ", self.head)?;
        if self.body.is_empty() {
            return write!(f, "⊤");
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

/// Evaluation strategy for fixpoint computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Re-derive everything each round.
    Naive,
    /// Join each rule against the per-round delta (default).
    SemiNaive,
}

/// Disjoint sorted runs in decreasing size order — the fixpoint
/// loop's write-buffer. New runs merge into the smallest level, and a
/// level folds into the one below only once it reaches a quarter of
/// its size, so membership checks touch few runs while no fact is
/// endlessly re-merged through the big bottom level (the O(rounds ×
/// total) rebuild a single accumulator run would cost).
#[derive(Default)]
struct Levels(Vec<Run>);

impl Levels {
    /// `run` minus every fact held in the levels.
    fn subtract(&self, mut run: Run) -> Run {
        for level in &self.0 {
            if run.is_empty() {
                break;
            }
            run = run.difference(level);
        }
        run
    }

    fn push(&mut self, run: Run) {
        if run.is_empty() {
            return;
        }
        match self.0.len() {
            0 => self.0.push(run),
            1 if run.len() >= self.0[0].len() => self.0[0] = self.0[0].union(&run),
            1 => self.0.push(run),
            _ => {
                self.0[1] = self.0[1].union(&run);
                if self.0[1].len() >= self.0[0].len() {
                    let recent = self.0.pop().expect("two levels");
                    self.0[0] = self.0[0].union(&recent);
                }
            }
        }
    }

    /// Union of all levels, draining them. `None` when empty.
    fn fold(&mut self) -> Option<Run> {
        let mut runs = self.0.drain(..);
        let first = runs.next()?;
        Some(runs.fold(first, |a, b| a.union(&b)))
    }
}

/// Per-stratum derivation counters filled in by the fixpoint loops:
/// `considered` counts facts produced by rule firings before the
/// novelty check (within-firing duplicates already folded), `derived`
/// counts the novel facts that entered the fixpoint. The arithmetic is
/// O(1) per firing on top of work the loops do anyway, so the counters
/// are always on.
#[derive(Clone, Copy, Default)]
struct StratumTally {
    considered: u64,
    derived: u64,
}

/// A Datalog program: a finite set of rules.
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
    /// Arity signature of every predicate mentioned.
    signature: Schema,
    idb: BTreeSet<RelName>,
    /// Stratification computed once at construction (the Dedalus
    /// runtime evaluates the same program thousands of times per run;
    /// re-stratifying per evaluation was measurable). Non-stratifiable
    /// programs keep the error here and surface it at evaluation, like
    /// the on-demand computation did.
    strata: Result<Vec<BTreeSet<RelName>>, EvalError>,
}

impl Program {
    /// Build a program, validating arity-consistency across rules.
    pub fn new(rules: Vec<Rule>) -> Result<Self, EvalError> {
        let mut signature = Schema::new();
        let mut idb = BTreeSet::new();
        for r in &rules {
            signature.declare(r.head.pred.clone(), r.head.arity())?;
            idb.insert(r.head.pred.clone());
            for l in &r.body {
                match l {
                    Literal::Pos(a) | Literal::Neg(a) => {
                        signature.declare(a.pred.clone(), a.arity())?;
                    }
                    Literal::Diseq(_, _) => {}
                }
            }
        }
        let strata = Self::compute_strata(&rules, &idb);
        Ok(Program {
            rules,
            signature,
            idb,
            strata,
        })
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Predicates defined by rule heads (the IDB).
    pub fn idb_predicates(&self) -> &BTreeSet<RelName> {
        &self.idb
    }

    /// Predicates only read (the EDB).
    pub fn edb_predicates(&self) -> BTreeSet<RelName> {
        self.signature
            .names()
            .filter(|n| !self.idb.contains(*n))
            .cloned()
            .collect()
    }

    /// Arity signature of all mentioned predicates.
    pub fn signature(&self) -> &Schema {
        &self.signature
    }

    /// Does any rule use negation?
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// Is the predicate dependency graph acyclic (nonrecursive Datalog)?
    pub fn is_nonrecursive(&self) -> bool {
        // DFS for a cycle among IDB predicates.
        let mut deps: BTreeMap<&RelName, BTreeSet<&RelName>> = BTreeMap::new();
        for r in &self.rules {
            let entry = deps.entry(&r.head.pred).or_default();
            for l in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    if self.idb.contains(&a.pred) {
                        entry.insert(&a.pred);
                    }
                }
            }
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Visiting,
            Done,
        }
        fn dfs<'a>(
            n: &'a RelName,
            deps: &BTreeMap<&'a RelName, BTreeSet<&'a RelName>>,
            marks: &mut BTreeMap<&'a RelName, Mark>,
        ) -> bool {
            match marks.get(n) {
                Some(Mark::Visiting) => return false,
                Some(Mark::Done) => return true,
                None => {}
            }
            marks.insert(n, Mark::Visiting);
            if let Some(succ) = deps.get(n) {
                for s in succ {
                    if !dfs(s, deps, marks) {
                        return false;
                    }
                }
            }
            marks.insert(n, Mark::Done);
            true
        }
        let mut marks = BTreeMap::new();
        self.idb.iter().all(|p| dfs(p, &deps, &mut marks))
    }

    /// A stratification: a list of strata, each a set of IDB
    /// predicates, such that negation only reaches strictly lower
    /// strata. Computed once at construction; this returns the cache.
    pub fn stratify(&self) -> Result<Vec<BTreeSet<RelName>>, EvalError> {
        self.strata.clone()
    }

    fn compute_strata(
        rules: &[Rule],
        idb: &BTreeSet<RelName>,
    ) -> Result<Vec<BTreeSet<RelName>>, EvalError> {
        let mut stratum: BTreeMap<RelName, usize> = idb.iter().map(|p| (p.clone(), 0)).collect();
        let n = idb.len().max(1);
        // Bellman-Ford-style relaxation; a stratum exceeding the number of
        // IDB predicates certifies a negative cycle.
        for _ in 0..=n {
            let mut changed = false;
            for r in rules {
                let head_s = stratum[&r.head.pred];
                let mut required = head_s;
                for l in &r.body {
                    match l {
                        Literal::Pos(a) => {
                            if let Some(&s) = stratum.get(&a.pred) {
                                required = required.max(s);
                            }
                        }
                        Literal::Neg(a) => {
                            if let Some(&s) = stratum.get(&a.pred) {
                                required = required.max(s + 1);
                            }
                        }
                        Literal::Diseq(_, _) => {}
                    }
                }
                if required > head_s {
                    if required > n {
                        return Err(EvalError::NotStratifiable {
                            pred: r.head.pred.clone(),
                        });
                    }
                    stratum.insert(r.head.pred.clone(), required);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-check: a final pass must be quiescent, otherwise a negative
        // cycle kept pumping.
        for r in rules {
            let head_s = stratum[&r.head.pred];
            for l in &r.body {
                match l {
                    Literal::Pos(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            if s > head_s {
                                return Err(EvalError::NotStratifiable {
                                    pred: r.head.pred.clone(),
                                });
                            }
                        }
                    }
                    Literal::Neg(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            if s >= head_s {
                                return Err(EvalError::NotStratifiable {
                                    pred: r.head.pred.clone(),
                                });
                            }
                        }
                    }
                    Literal::Diseq(_, _) => {}
                }
            }
        }
        let max = stratum.values().copied().max().unwrap_or(0);
        let mut out = vec![BTreeSet::new(); max + 1];
        for (p, s) in stratum {
            out[s].insert(p);
        }
        out.retain(|s| !s.is_empty());
        Ok(out)
    }

    /// Working schema for evaluation: the program signature merged with
    /// the database schema.
    fn working_schema(&self, db: &Instance) -> Result<Schema, EvalError> {
        Ok(db.schema().union_compatible(&self.signature)?)
    }

    /// Evaluate to fixpoint with stratified semantics.
    ///
    /// Facts in `db` for IDB predicates (if its schema declares them) are
    /// used as seeds — the distributed constructions store accumulated
    /// IDB facts in transducer memory between heartbeats.
    pub fn eval(&self, db: &Instance) -> Result<Instance, EvalError> {
        self.eval_with(db, EvalStrategy::SemiNaive)
    }

    /// Evaluate with an explicit strategy (naive kept for the ablation
    /// benchmark).
    pub fn eval_with(&self, db: &Instance, strategy: EvalStrategy) -> Result<Instance, EvalError> {
        self.eval_with_mode(db, strategy, JoinMode::default())
    }

    /// Evaluate with explicit strategy *and* join mode (the scan mode is
    /// the measurable baseline for the indexed-join ablation).
    pub fn eval_with_mode(
        &self,
        db: &Instance,
        strategy: EvalStrategy,
        mode: JoinMode,
    ) -> Result<Instance, EvalError> {
        Ok(self.eval_counted(db, strategy, mode)?.0)
    }

    /// Evaluate like [`Program::eval`], also returning a
    /// [`FixpointStats`] whose per-stratum counters record how many
    /// facts each stratum's rules produced before the novelty check
    /// (`stratum_considered`) and how many were novel
    /// (`stratum_derived`). These counters are how the magic-sets
    /// suite and `exp_magic` prove a demand-driven evaluation derived
    /// strictly less than full materialization.
    pub fn eval_with_stats(&self, db: &Instance) -> Result<(Instance, FixpointStats), EvalError> {
        self.eval_counted(db, EvalStrategy::SemiNaive, JoinMode::default())
    }

    fn eval_counted(
        &self,
        db: &Instance,
        strategy: EvalStrategy,
        mode: JoinMode,
    ) -> Result<(Instance, FixpointStats), EvalError> {
        // Seed the fixpoint with the database re-housed under the
        // working schema — a structural copy, not a fact-by-fact
        // rebuild (this runs once per Dedalus tick).
        let mut total = if self.schema_covers(db) {
            db.clone()
        } else {
            db.widen(self.working_schema(db)?)?
        };
        let mut stats = FixpointStats::default();
        let strata = self.strata.as_ref().map_err(Clone::clone)?;
        let _eval_span = rtx_obs::trace::span("query", "eval", &[("strata", strata.len() as i64)]);
        for (si, stratum) in strata.iter().enumerate() {
            let rules: Vec<&Rule> = self
                .rules
                .iter()
                .filter(|r| stratum.contains(&r.head.pred))
                .collect();
            let _stratum_span = rtx_obs::trace::span(
                "query",
                "stratum",
                &[("stratum", si as i64), ("rules", rules.len() as i64)],
            );
            let mut tally = StratumTally::default();
            // The run-based fixpoint loops dedup and fold derived
            // facts with galloping run merges; the btree engine keeps
            // the original fact-at-a-time loops as the oracle.
            let columnar = total.mode().uses_runs();
            match (strategy, columnar) {
                (EvalStrategy::Naive, true) => {
                    self.run_naive_runs(&rules, &mut total, mode, &mut tally)?
                }
                (EvalStrategy::Naive, false) => {
                    self.run_naive(&rules, &mut total, mode, &mut tally)?
                }
                (EvalStrategy::SemiNaive, true) => {
                    self.run_seminaive_runs(&rules, stratum, &mut total, mode, &mut tally)?
                }
                (EvalStrategy::SemiNaive, false) => {
                    self.run_seminaive(&rules, stratum, &mut total, mode, &mut tally)?
                }
            }
            if rtx_obs::tracing() {
                rtx_obs::event!(
                    "query",
                    "stratum.tally",
                    "stratum" => si,
                    "considered" => tally.considered,
                    "derived" => tally.derived,
                );
            }
            stats.stratum_considered.push(tally.considered);
            stats.stratum_derived.push(tally.derived);
        }
        if rtx_obs::counting() {
            rtx_obs::registry::add("query.evals", 1);
            rtx_obs::registry::add("query.strata", strata.len() as u64);
            rtx_obs::registry::add("query.considered", stats.eval_considered());
            rtx_obs::registry::add("query.derived", stats.eval_derived());
        }
        Ok((total, stats))
    }

    /// Does `db`'s schema already declare every predicate of the
    /// program signature at the right arity (so widening is a no-op)?
    fn schema_covers(&self, db: &Instance) -> bool {
        self.signature
            .iter()
            .all(|(name, arity)| db.schema().arity(name) == Some(arity))
    }

    fn run_naive(
        &self,
        rules: &[&Rule],
        total: &mut Instance,
        mode: JoinMode,
        tally: &mut StratumTally,
    ) -> Result<(), EvalError> {
        loop {
            let mut derived = Vec::new();
            for r in rules {
                let mut tuples = Vec::new();
                r.derive(total, total, None, mode, &mut tuples)?;
                for t in tuples {
                    derived.push((r.head.pred.clone(), t));
                }
            }
            tally.considered += derived.len() as u64;
            let mut changed = false;
            for (p, t) in derived {
                if total.insert_fact(Fact::new(p, t))? {
                    tally.derived += 1;
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    fn run_seminaive(
        &self,
        rules: &[&Rule],
        stratum: &BTreeSet<RelName>,
        total: &mut Instance,
        mode: JoinMode,
        tally: &mut StratumTally,
    ) -> Result<(), EvalError> {
        // Per-round deltas are first-class relations keyed by predicate,
        // not whole instances: each rule joins one atom directly against
        // its (small) delta relation.
        let mut delta: BTreeMap<RelName, Relation> = BTreeMap::new();
        let push =
            |map: &mut BTreeMap<RelName, Relation>, pred: &RelName, arity: usize, t: Tuple| {
                map.entry(pred.clone())
                    .or_insert_with(|| Relation::empty(arity))
                    .insert(t)
                    .expect("head tuple arity matches head predicate")
            };
        // Round 0: full evaluation (covers rules without stratum-IDB in
        // the body, and seeds the delta).
        for r in rules {
            let mut tuples = Vec::new();
            r.derive(total, total, None, mode, &mut tuples)?;
            tally.considered += tuples.len() as u64;
            for t in tuples {
                if !total.contains_fact(&Fact::new(r.head.pred.clone(), t.clone())) {
                    push(&mut delta, &r.head.pred, r.head.arity(), t);
                }
            }
        }
        while !delta.is_empty() {
            for (p, rel) in &delta {
                for t in rel.iter() {
                    if total.insert_fact(Fact::new(p.clone(), t.clone()))? {
                        tally.derived += 1;
                    }
                }
            }
            let mut next: BTreeMap<RelName, Relation> = BTreeMap::new();
            for r in rules {
                for i in 0..r.count_pos() {
                    let pred = r.pos_pred(i).expect("index within positive atoms");
                    if !stratum.contains(pred) {
                        continue;
                    }
                    let Some(drel) = delta.get(pred) else {
                        continue; // nothing new for this atom this round
                    };
                    let mut tuples = Vec::new();
                    r.derive(total, total, Some((i, drel)), mode, &mut tuples)?;
                    tally.considered += tuples.len() as u64;
                    for t in tuples {
                        let f = Fact::new(r.head.pred.clone(), t.clone());
                        let fresh = !total.contains_fact(&f)
                            && next.get(&r.head.pred).is_none_or(|rel| !rel.contains(&t));
                        if fresh {
                            push(&mut next, &r.head.pred, r.head.arity(), t);
                        }
                    }
                }
            }
            delta = next;
        }
        Ok(())
    }

    /// Derived facts of one firing not already in `total`'s relation.
    fn fresh_against(total: &Instance, pred: &RelName, derived: Run) -> Run {
        match total.relation_ref(pred) {
            None => derived,
            Some(rel) => match rel.columnar_run() {
                Some(t) => derived.difference(&t),
                None => {
                    // Mixed-mode instance: fall back to per-row checks.
                    let keep: Vec<Tuple> = derived
                        .rows()
                        .iter()
                        .filter(|t| !rel.contains(t))
                        .cloned()
                        .collect();
                    Run::from_sorted(derived.arity(), keep.iter())
                }
            },
        }
    }

    /// Naive fixpoint over runs: each round derives every rule into a
    /// run and folds the union into `total` with run merges.
    fn run_naive_runs(
        &self,
        rules: &[&Rule],
        total: &mut Instance,
        mode: JoinMode,
        tally: &mut StratumTally,
    ) -> Result<(), EvalError> {
        loop {
            let mut derived: Vec<(&RelName, Run)> = Vec::with_capacity(rules.len());
            for r in rules {
                let run = r.derive_to_run(total, total, None, mode)?;
                tally.considered += run.len() as u64;
                derived.push((&r.head.pred, run));
            }
            let mut changed = false;
            for (p, run) in derived {
                let grown = total.absorb_run(p, &run)?;
                tally.derived += grown as u64;
                changed |= grown > 0;
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Semi-naive fixpoint over runs: per-round deltas are sorted runs,
    /// novelty checks are run differences, and newly derived facts
    /// accumulate in LSM-style levelled runs per predicate that are
    /// folded into `total` lazily — only when a later firing actually
    /// reads that predicate as a non-delta source (and once at the
    /// end). Linear-recursive programs like transitive closure never
    /// re-read the recursive predicate outside the delta position, so
    /// they skip the O(|total|) per-round rebuild entirely.
    fn run_seminaive_runs(
        &self,
        rules: &[&Rule],
        stratum: &BTreeSet<RelName>,
        total: &mut Instance,
        mode: JoinMode,
        tally: &mut StratumTally,
    ) -> Result<(), EvalError> {
        let push = |map: &mut BTreeMap<RelName, Relation>, pred: &RelName, fresh: &Run| {
            if fresh.is_empty() {
                return;
            }
            match map.get_mut(pred) {
                Some(rel) => {
                    rel.absorb_run(fresh).expect("one arity per head predicate");
                }
                None => {
                    map.insert(pred.clone(), Relation::from_run(fresh.clone()));
                }
            }
        };
        // Facts derived but not yet folded into `total`, as disjoint
        // sorted runs with geometrically growing sizes (merged on push,
        // so each fact takes part in O(log n) merges overall).
        let mut pending: BTreeMap<RelName, Levels> = BTreeMap::new();
        let fresh_of = |total: &Instance,
                        pending: &BTreeMap<RelName, Levels>,
                        pred: &RelName,
                        derived: Run| {
            let vs_total = Self::fresh_against(total, pred, derived);
            match pending.get(pred) {
                Some(levels) => levels.subtract(vs_total),
                None => vs_total,
            }
        };
        // Round 0: full evaluation (covers rules without stratum-IDB in
        // the body, and seeds the delta).
        let mut delta: BTreeMap<RelName, Relation> = BTreeMap::new();
        for r in rules {
            let derived = r.derive_to_run(total, total, None, mode)?;
            tally.considered += derived.len() as u64;
            let fresh = fresh_of(total, &pending, &r.head.pred, derived);
            tally.derived += fresh.len() as u64;
            push(&mut delta, &r.head.pred, &fresh);
            pending.entry(r.head.pred.clone()).or_default().push(fresh);
        }
        while !delta.is_empty() {
            let mut next: BTreeMap<RelName, Relation> = BTreeMap::new();
            for r in rules {
                for i in 0..r.count_pos() {
                    let pred = r.pos_pred(i).expect("index within positive atoms");
                    if !stratum.contains(pred) {
                        continue;
                    }
                    let Some(drel) = delta.get(pred) else {
                        continue; // nothing new for this atom this round
                    };
                    // Non-delta atoms read from `total`: fold any
                    // pending facts for their predicates first.
                    for j in 0..r.count_pos() {
                        if j == i {
                            continue;
                        }
                        let p = r.pos_pred(j).expect("index within positive atoms");
                        if let Some(levels) = pending.get_mut(p) {
                            if let Some(run) = levels.fold() {
                                total.absorb_run(p, &run)?;
                            }
                        }
                    }
                    let derived = r.derive_to_run(total, total, Some((i, drel)), mode)?;
                    tally.considered += derived.len() as u64;
                    if derived.is_empty() {
                        continue;
                    }
                    let fresh = fresh_of(total, &pending, &r.head.pred, derived);
                    tally.derived += fresh.len() as u64;
                    push(&mut next, &r.head.pred, &fresh);
                    pending.entry(r.head.pred.clone()).or_default().push(fresh);
                }
            }
            delta = next;
        }
        for (p, levels) in &mut pending {
            if let Some(run) = levels.fold() {
                total.absorb_run(p, &run)?;
            }
        }
        Ok(())
    }

    /// One application of the immediate-consequence operator `T_P`:
    /// every head fact derivable from `db` in a single rule firing.
    ///
    /// Negation is evaluated against `db` as given — callers are
    /// responsible for only using `T_P` with semipositive programs (the
    /// paper's Theorem 6(5) uses pure Datalog, with no negation at all).
    pub fn tp_step(&self, db: &Instance) -> Result<Instance, EvalError> {
        self.tp_step_with_mode(db, JoinMode::default())
    }

    /// [`Program::tp_step`] with an explicit join mode.
    pub fn tp_step_with_mode(&self, db: &Instance, mode: JoinMode) -> Result<Instance, EvalError> {
        // Fast path: when the database schema already covers the
        // program signature, evaluate against `db` directly instead of
        // materializing a widened copy (this runs twice per Dedalus
        // tick).
        let widened_owned;
        let (widened, schema) = if self.schema_covers(db) {
            (db, db.schema().clone())
        } else {
            let schema = self.working_schema(db)?;
            widened_owned = db.widen(schema.clone())?;
            (&widened_owned, schema)
        };
        let mut out = Instance::empty(schema);
        if widened.mode().uses_runs() {
            for r in &self.rules {
                let run = r.derive_to_run(widened, widened, None, mode)?;
                out.absorb_run(&r.head.pred, &run)?;
            }
        } else {
            for r in &self.rules {
                let mut tuples = Vec::new();
                r.derive(widened, widened, None, mode, &mut tuples)?;
                for t in tuples {
                    out.insert_fact(Fact::new(r.head.pred.clone(), t))?;
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r:?}.")?;
        }
        Ok(())
    }
}

/// A Datalog program used as a query: evaluate to fixpoint, return one
/// designated output predicate.
#[derive(Clone)]
pub struct DatalogQuery {
    program: Program,
    output: RelName,
    arity: usize,
    strategy: EvalStrategy,
    join_mode: JoinMode,
}

impl DatalogQuery {
    /// Build, validating that the output predicate is mentioned.
    pub fn new(program: Program, output: impl Into<RelName>) -> Result<Self, EvalError> {
        let output = output.into();
        let arity = program.signature().arity(&output).ok_or_else(|| {
            EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: output.clone(),
            })
        })?;
        Ok(DatalogQuery {
            program,
            output,
            arity,
            strategy: EvalStrategy::SemiNaive,
            join_mode: JoinMode::default(),
        })
    }

    /// Select an evaluation strategy (ablation hook).
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select a join mode (ablation hook; defaults to indexed).
    pub fn with_join_mode(mut self, mode: JoinMode) -> Self {
        self.join_mode = mode;
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The output predicate.
    pub fn output(&self) -> &RelName {
        &self.output
    }
}

impl Query for DatalogQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let result = self
            .program
            .eval_with_mode(db, self.strategy, self.join_mode)?;
        Ok(result.relation(&self.output)?)
    }

    fn is_monotone_syntactic(&self) -> bool {
        !self.program.has_negation()
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.program.signature().names().cloned().collect()
    }

    fn describe(&self) -> String {
        format!("datalog[{}]: {:?}", self.output, self.program)
    }
}

impl fmt::Debug for DatalogQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datalog[{}]", self.output)
    }
}

/// A single `T_P` application used as a query (the local language of the
/// Theorem 6(5) transducer): returns the immediate consequences for one
/// predicate.
#[derive(Clone)]
pub struct TpQuery {
    program: Program,
    output: RelName,
    arity: usize,
}

impl TpQuery {
    /// Build, validating the output predicate.
    pub fn new(program: Program, output: impl Into<RelName>) -> Result<Self, EvalError> {
        let output = output.into();
        let arity = program.signature().arity(&output).ok_or_else(|| {
            EvalError::Rel(rtx_relational::RelError::UnknownRelation {
                rel: output.clone(),
            })
        })?;
        Ok(TpQuery {
            program,
            output,
            arity,
        })
    }
}

impl Query for TpQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let step = self.program.tp_step(db)?;
        Ok(step.relation(&self.output)?)
    }

    fn is_monotone_syntactic(&self) -> bool {
        !self.program.has_negation()
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.program.signature().names().cloned().collect()
    }

    fn describe(&self) -> String {
        format!("T_P[{}]", self.output)
    }
}

impl fmt::Debug for TpQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T_P[{}]", self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, tuple};

    fn rule(head: Atom, body: Vec<Literal>) -> Rule {
        Rule::new(head, body).unwrap()
    }

    fn tc_program() -> Program {
        Program::new(vec![
            rule(
                atom!("T"; @"X", @"Y"),
                vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
            ),
            rule(
                atom!("T"; @"X", @"Z"),
                vec![
                    Literal::Pos(atom!("T"; @"X", @"Y")),
                    Literal::Pos(atom!("E"; @"Y", @"Z")),
                ],
            ),
        ])
        .unwrap()
    }

    fn edges(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn transitive_closure_chain() {
        let db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple![1, 4]));
        assert!(q.is_monotone_syntactic());
    }

    #[test]
    fn transitive_closure_cycle() {
        let db = edges(&[(1, 2), (2, 1)]);
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 4); // all pairs over {1,2}
    }

    #[test]
    fn naive_equals_seminaive() {
        let db = edges(&[(1, 2), (2, 3), (3, 1), (3, 5), (5, 6)]);
        let semi = DatalogQuery::new(tc_program(), "T")
            .unwrap()
            .eval(&db)
            .unwrap();
        let naive = DatalogQuery::new(tc_program(), "T")
            .unwrap()
            .with_strategy(EvalStrategy::Naive)
            .eval(&db)
            .unwrap();
        assert_eq!(semi, naive);
    }

    #[test]
    fn idb_seeds_from_database_are_used() {
        // T seeded with an extra pair that E alone would not produce.
        let sch = Schema::new().with("E", 2).with("T", 2);
        let db = Instance::from_facts(sch, vec![fact!("E", 1, 2), fact!("T", 7, 8)]).unwrap();
        let out = DatalogQuery::new(tc_program(), "T")
            .unwrap()
            .eval(&db)
            .unwrap();
        assert!(out.contains(&tuple![7, 8]));
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn stratified_negation_complement() {
        // unreachable(X) over nodes: node(X), ¬reach(X)
        let p = Program::new(vec![
            rule(atom!("Reach"; @"X"), vec![Literal::Pos(atom!("Src"; @"X"))]),
            rule(
                atom!("Reach"; @"Y"),
                vec![
                    Literal::Pos(atom!("Reach"; @"X")),
                    Literal::Pos(atom!("E"; @"X", @"Y")),
                ],
            ),
            rule(
                atom!("Unreach"; @"X"),
                vec![
                    Literal::Pos(atom!("Node"; @"X")),
                    Literal::Neg(atom!("Reach"; @"X")),
                ],
            ),
        ])
        .unwrap();
        let strata = p.stratify().unwrap();
        assert_eq!(strata.len(), 2);
        assert!(strata[0].contains(&"Reach".into()));
        assert!(strata[1].contains(&"Unreach".into()));

        let sch = Schema::new().with("E", 2).with("Src", 1).with("Node", 1);
        let db = Instance::from_facts(
            sch,
            vec![
                fact!("E", 1, 2),
                fact!("Src", 1),
                fact!("Node", 1),
                fact!("Node", 2),
                fact!("Node", 3),
            ],
        )
        .unwrap();
        let q = DatalogQuery::new(p, "Unreach").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![3]));
        assert!(!q.is_monotone_syntactic());
    }

    #[test]
    fn negative_cycle_rejected() {
        let p = Program::new(vec![
            rule(
                atom!("P"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("Q"; @"X")),
                ],
            ),
            rule(
                atom!("Q"; @"X"),
                vec![
                    Literal::Pos(atom!("S"; @"X")),
                    Literal::Neg(atom!("P"; @"X")),
                ],
            ),
        ])
        .unwrap();
        assert!(matches!(
            p.stratify(),
            Err(EvalError::NotStratifiable { .. })
        ));
        let q = DatalogQuery::new(p, "P").unwrap();
        assert!(q.eval(&edges(&[])).is_err());
    }

    #[test]
    fn self_negation_rejected() {
        let p = Program::new(vec![rule(
            atom!("P"; @"X"),
            vec![
                Literal::Pos(atom!("S"; @"X")),
                Literal::Neg(atom!("P"; @"X")),
            ],
        )])
        .unwrap();
        assert!(p.stratify().is_err());
    }

    #[test]
    fn nonrecursive_detection() {
        let nr = Program::new(vec![
            rule(atom!("A"; @"X"), vec![Literal::Pos(atom!("S"; @"X"))]),
            rule(atom!("B"; @"X"), vec![Literal::Pos(atom!("A"; @"X"))]),
        ])
        .unwrap();
        assert!(nr.is_nonrecursive());
        assert!(!tc_program().is_nonrecursive());
    }

    #[test]
    fn edb_idb_split() {
        let p = tc_program();
        assert!(p.idb_predicates().contains(&"T".into()));
        assert!(p.edb_predicates().contains(&"E".into()));
        assert_eq!(p.signature().arity(&"T".into()), Some(2));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let r1 = rule(atom!("P"; @"X"), vec![Literal::Pos(atom!("S"; @"X"))]);
        let r2 = rule(
            atom!("P"; @"X", @"Y"),
            vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
        );
        assert!(Program::new(vec![r1, r2]).is_err());
    }

    #[test]
    fn rule_safety_rejected() {
        assert!(Rule::new(atom!("P"; @"X"), vec![]).is_err());
        assert!(Rule::new(
            atom!("P"; @"X"),
            vec![
                Literal::Pos(atom!("S"; @"X")),
                Literal::Neg(atom!("T"; @"Y"))
            ],
        )
        .is_err());
    }

    #[test]
    fn diseq_literal_filters() {
        let p = Program::new(vec![rule(
            atom!("P"; @"X", @"Y"),
            vec![
                Literal::Pos(atom!("E"; @"X", @"Y")),
                Literal::Diseq(Term::var("X"), Term::var("Y")),
            ],
        )])
        .unwrap();
        let db = edges(&[(1, 1), (1, 2)]);
        let out = DatalogQuery::new(p, "P").unwrap().eval(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn tp_step_is_single_application() {
        let db = edges(&[(1, 2), (2, 3), (3, 4)]);
        let tp = TpQuery::new(tc_program(), "T").unwrap();
        // one step: only direct edges (the recursive rule needs T facts)
        let s1 = tp.eval(&db).unwrap();
        assert_eq!(s1.len(), 3);
        // feed the step back in as T facts: length-2 paths appear
        let sch = Schema::new().with("E", 2).with("T", 2);
        let mut db2 = db.widen(sch).unwrap();
        for t in s1.iter() {
            db2.insert_fact(rtx_relational::Fact::new(RelName::new("T"), t.clone()))
                .unwrap();
        }
        let s2 = tp.eval(&db2).unwrap();
        assert!(s2.contains(&tuple![1, 3]));
        assert!(!s2.contains(&tuple![1, 4]));
    }

    #[test]
    fn monotonicity_of_positive_programs_spotcheck() {
        let small = edges(&[(1, 2), (2, 3)]);
        let mut big = small.clone();
        big.insert_fact(fact!("E", 3, 4)).unwrap();
        let q = DatalogQuery::new(tc_program(), "T").unwrap();
        assert!(q.eval(&small).unwrap().is_subset(&q.eval(&big).unwrap()));
    }

    #[test]
    fn same_generation_classic() {
        // sg(X,Y) ← flat(X,Y); sg(X,Y) ← up(X,A), sg(A,B), down(B,Y)
        let p = Program::new(vec![
            rule(
                atom!("Sg"; @"X", @"Y"),
                vec![Literal::Pos(atom!("Flat"; @"X", @"Y"))],
            ),
            rule(
                atom!("Sg"; @"X", @"Y"),
                vec![
                    Literal::Pos(atom!("Up"; @"X", @"A")),
                    Literal::Pos(atom!("Sg"; @"A", @"B")),
                    Literal::Pos(atom!("Down"; @"B", @"Y")),
                ],
            ),
        ])
        .unwrap();
        let sch = Schema::new().with("Flat", 2).with("Up", 2).with("Down", 2);
        let db = Instance::from_facts(
            sch,
            vec![
                fact!("Up", "a", "b"),
                fact!("Up", "c", "d"),
                fact!("Flat", "b", "d"),
                fact!("Down", "d", "e"),
                fact!("Down", "b", "f"),
            ],
        )
        .unwrap();
        let out = DatalogQuery::new(p, "Sg").unwrap().eval(&db).unwrap();
        assert!(out.contains(&tuple!["b", "d"]));
        assert!(out.contains(&tuple!["a", "e"])); // up(a,b), sg(b,d), down(d,e)
    }

    #[test]
    fn tp_of_nullary_head() {
        let p = Program::new(vec![rule(
            atom!("Found"),
            vec![Literal::Pos(atom!("E"; @"X", @"Y"))],
        )])
        .unwrap();
        let q = TpQuery::new(p, "Found").unwrap();
        assert!(q.eval(&edges(&[(1, 2)])).unwrap().as_bool());
        assert!(!q.eval(&edges(&[])).unwrap().as_bool());
    }
}
