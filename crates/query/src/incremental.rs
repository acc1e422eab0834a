//! Cross-evaluation incremental maintenance of stratified Datalog
//! (counting-based DRed).
//!
//! [`Program::eval`] re-derives every IDB fact from scratch. A
//! [`MaintainedFixpoint`] instead keeps the fixpoint **materialized
//! between evaluations** and advances it under a ± [`InstanceDelta`] on
//! the base facts:
//!
//! * every derived fact carries a **support count** (number of rule
//!   firings currently deriving it, plus 1 if it is seeded as a base
//!   fact) in a [`CountedRelation`];
//! * an elementary change Δ of one predicate updates counts through the
//!   classic mixed semi-naive expansion `Σᵢ new₁…newᵢ₋₁ Δᵢ oldᵢ₊₁…oldₙ`
//!   over each rule body, so each gained/lost firing is counted exactly
//!   once;
//! * **insertions** propagate monotonically: a fact whose count goes
//!   0 → positive is inserted and cascades;
//! * **deletions** in a stratum without internal recursion are exact by
//!   counting alone (support cannot be cyclic): a fact whose count hits
//!   0 is retracted and cascades. In a recursive stratum counting is
//!   not enough — a fact can keep a spuriously positive count through
//!   cyclic support — so the engine runs **DRed**: over-delete every
//!   fact that lost any derivation, then re-derive the over-deleted
//!   facts that still have support, cascading until a fixpoint;
//! * **negation** is handled stratum by stratum: lower-stratum ±
//!   changes are treated exactly like EDB deltas, and a stratum whose
//!   *negated* inputs changed is recomputed wholesale from its
//!   (maintained) inputs — only the affected stratum, never the whole
//!   program.
//!
//! # Compiled delta plans
//!
//! [`MaintainedFixpoint::new`] compiles every rule once, so an
//! elementary step does no planning and no name resolution:
//!
//! * per stratum, a **delta-plan table** keyed by predicate lists the
//!   (rule, positive occurrence) pairs a change of that predicate
//!   fires. Each pinned plan joins Δ first, then the other atoms in the
//!   cached order of `Rule::plan(Some(i))`, with every atom's slots
//!   (constants pre-interned, bound columns, fresh and repeated
//!   variables), the nonequality and negation filters, and the head
//!   projection resolved to binding columns;
//! * per rule, a **backward plan** with the head's variables bound
//!   first, so recounting one head tuple probes the body on the
//!   columns that tuple fixes instead of scanning it.
//!
//! # The interned-id domain
//!
//! Worklists, over-deleted sets, net changes and support counts are all
//! keyed by rows of interned value ids ([`VidRow`]). A step binds its Δ
//! rows straight into a depth-first join over the other atoms' sorted
//! runs ([`Run`]), probing run views on the bound columns, and head
//! counts come back as id rows, so a step's joins allocate no frame and
//! decode no value; [`rtx_relational::Tuple`]s are built only where
//! edits reach stored relations. A step's commits to the stored
//! relations are batched per predicate and written as one run merge
//! just before something reads that predicate. When some source
//! relation is not run-backed (the btree storage oracle) the same plans
//! run on the generic `Bindings` path.
//!
//! # Re-derivation
//!
//! After the deletion cascade, every over-deleted fact is recounted
//! **once**, all against the same surviving database (seed support plus
//! the backward plans). The survivors re-enter with exactly that count
//! and then cascade through the ordinary insertion worklist: a
//! re-derived fact's pinned expansion hands the firings it adds to the
//! facts it supports, which re-enter in turn when still over-deleted.
//! A reverse chain therefore costs one recount per fact, not one
//! rescan of the over-deleted set per link
//! ([`FixpointStats::backward_counts`] counts the recounts).
//!
//! The per-evaluation cost is `O(changed derivations)` instead of
//! `O(all derivations)`; strata whose inputs did not change are skipped
//! entirely. The Dedalus runtime puts this under its tick loop
//! (`FixpointMode::Incremental`), turning the per-tick deductive
//! fixpoint from the hottest loop in the system into a no-op on
//! quiescent ticks.

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::frame::{join_depth_first, AtomSlots, Src};
use crate::plan::plan_order_bound;
use crate::term::{Atom, Bindings, Var};
use rtx_relational::{
    row_tuple, vid_row, CountedRelation, Instance, InstanceDelta, RelName, Relation, Run, Tuple,
    Value, Vid, VidRow,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A set-level ± change of one predicate, as duplicate-free id rows.
#[derive(Clone, Debug, Default)]
struct Change {
    added: Vec<VidRow>,
    removed: Vec<VidRow>,
}

impl Change {
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Counters describing how the maintenance engine earned its keep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Deltas applied since initialization.
    pub deltas_applied: u64,
    /// Strata skipped because none of their inputs changed.
    pub strata_skipped: u64,
    /// Strata maintained incrementally (counting / DRed).
    pub strata_incremental: u64,
    /// Strata recomputed wholesale because a negated input changed.
    pub strata_rebuilt: u64,
    /// Derived facts retracted (including DRed over-deletions).
    pub facts_retracted: u64,
    /// Over-deleted facts put back by DRed re-derivation.
    pub facts_rederived: u64,
    /// Elementary steps executed: one mixed expansion of one
    /// predicate's pending batch (an input change or a cascade batch).
    pub steps: u64,
    /// Backward recounts of over-deleted facts during DRed
    /// re-derivation — at most one per over-deleted fact and delta.
    pub backward_counts: u64,
    /// Facts produced by rule firings per stratum (before the novelty
    /// check) in the most recent from-scratch evaluation — the work
    /// the fixpoint loop actually did. Filled by
    /// [`Program::eval_with_stats`] and
    /// [`MaintainedFixpoint::initialize`]; `apply` does not update it.
    pub stratum_considered: Vec<u64>,
    /// Novel facts added per stratum in the most recent from-scratch
    /// evaluation — the size of what was derived. The magic-sets
    /// rewrite exists to shrink this; `exp_magic` prints both sides.
    pub stratum_derived: Vec<u64>,
}

impl FixpointStats {
    /// Total facts considered (pre-dedup firings) across all strata of
    /// the last from-scratch evaluation.
    pub fn eval_considered(&self) -> u64 {
        self.stratum_considered.iter().sum()
    }

    /// Total novel facts derived across all strata of the last
    /// from-scratch evaluation.
    pub fn eval_derived(&self) -> u64 {
        self.stratum_derived.iter().sum()
    }

    /// Publish the change since `earlier` into the global
    /// [`rtx_obs`] registry under `fixpoint.*` counters. The
    /// maintenance engine calls this once per applied delta, so the
    /// registry stays a faithful running total of these cumulative
    /// stats without double counting.
    pub fn publish_delta(&self, earlier: &FixpointStats) {
        use rtx_obs::registry::add;
        add(
            "fixpoint.deltas_applied",
            self.deltas_applied.saturating_sub(earlier.deltas_applied),
        );
        add(
            "fixpoint.strata_skipped",
            self.strata_skipped.saturating_sub(earlier.strata_skipped),
        );
        add(
            "fixpoint.strata_incremental",
            self.strata_incremental
                .saturating_sub(earlier.strata_incremental),
        );
        add(
            "fixpoint.strata_rebuilt",
            self.strata_rebuilt.saturating_sub(earlier.strata_rebuilt),
        );
        add(
            "fixpoint.facts_retracted",
            self.facts_retracted.saturating_sub(earlier.facts_retracted),
        );
        add(
            "fixpoint.facts_rederived",
            self.facts_rederived.saturating_sub(earlier.facts_rederived),
        );
        add("fixpoint.steps", self.steps.saturating_sub(earlier.steps));
        add(
            "fixpoint.backward_counts",
            self.backward_counts.saturating_sub(earlier.backward_counts),
        );
    }
}

/// The program's predicates, numbered in name order: every per-
/// predicate table of the engine is a `Vec` indexed by these ids, and
/// the worklists pop the lowest id first, so batches run in predicate
/// name order.
struct Preds {
    names: Vec<RelName>,
    arity: Vec<usize>,
    ids: BTreeMap<RelName, usize>,
}

impl Preds {
    fn new(program: &Program) -> Preds {
        let sig = program.signature();
        let names: Vec<RelName> = sig.iter().map(|(n, _)| n.clone()).collect();
        let arity = sig.iter().map(|(_, a)| a).collect();
        let ids = names
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        Preds { names, arity, ids }
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    fn id(&self, p: &RelName) -> Result<usize, EvalError> {
        self.ids
            .get(p)
            .copied()
            .ok_or_else(|| EvalError::Other(format!("predicate `{p}` not in the program")))
    }
}

/// A rule body compiled for the depth-first executor: the positive
/// atoms in join order with their slots, then the filters and the head
/// projection, all resolved to binding columns.
struct JoinPlan {
    /// Positive-atom indices in join order.
    order: Vec<usize>,
    /// Compiled slots, parallel to `order`.
    steps: Vec<AtomSlots>,
    /// Nonequalities.
    diseqs: Vec<(Src, Src)>,
    /// Negated atoms: predicate id and key sources.
    negs: Vec<(usize, Vec<Src>)>,
    /// The head projection.
    head: Vec<Src>,
    /// Columns of a complete binding.
    width: usize,
}

impl JoinPlan {
    /// Compile `rule` for the join `order`, starting from a binding
    /// whose first columns hold `layout`.
    fn compile(
        rule: &Rule,
        atoms: &[&Atom],
        order: Vec<usize>,
        mut layout: Vec<Var>,
        preds: &Preds,
    ) -> Result<JoinPlan, EvalError> {
        let steps = order
            .iter()
            .map(|&k| AtomSlots::compile(atoms[k], &mut layout))
            .collect();
        let src = |t, what: &str| {
            Src::compile(t, &layout).ok_or_else(|| EvalError::Unsafe {
                reason: format!("{what} over unbound variable in {rule:?}"),
            })
        };
        let mut diseqs = Vec::new();
        let mut negs = Vec::new();
        for l in rule.body() {
            match l {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    let key = a
                        .terms
                        .iter()
                        .map(|t| src(t, "negated atom"))
                        .collect::<Result<_, _>>()?;
                    negs.push((preds.id(&a.pred)?, key));
                }
                Literal::Diseq(x, y) => {
                    diseqs.push((src(x, "nonequality")?, src(y, "nonequality")?))
                }
            }
        }
        let head = rule
            .head()
            .terms
            .iter()
            .map(|t| src(t, "head"))
            .collect::<Result<_, _>>()?;
        Ok(JoinPlan {
            order,
            steps,
            diseqs,
            negs,
            head,
            width: layout.len(),
        })
    }

    /// Run the plan depth-first over the positive-atom sources `runs`
    /// (indexed by atom; `None` only for an atom `start` binds) and the
    /// negated-atom sources `negs` (parallel to `self.negs`), handing
    /// every surviving firing's head row to `emit`.
    fn execute(
        &self,
        start: Start<'_>,
        runs: &[Option<Arc<Run>>],
        negs: &[Arc<Run>],
        emit: &mut dyn FnMut(&[Vid]),
    ) {
        let from = usize::from(matches!(start, Start::Delta(_)));
        let srcs: Vec<&Run> = self.order[from..]
            .iter()
            .map(|&k| &**runs[k].as_ref().expect("a source for every joined atom"))
            .collect();
        let mut env = vec![Vid::from_value(&Value::int(0)); self.width];
        let mut head: Vec<Vid> = Vec::with_capacity(self.head.len());
        let mut key: Vec<Vid> = Vec::new();
        let mut leaf = |env: &[Vid]| {
            if self.diseqs.iter().any(|(x, y)| x.at(env) == y.at(env)) {
                return;
            }
            for ((_, srcs), run) in self.negs.iter().zip(negs) {
                key.clear();
                key.extend(srcs.iter().map(|s| s.at(env)));
                if run.contains_vids(&key) {
                    return;
                }
            }
            head.clear();
            head.extend(self.head.iter().map(|s| s.at(env)));
            emit(&head);
        };
        let steps = &self.steps[from..];
        match start {
            Start::Unit => join_depth_first(steps, &srcs, &mut env, &mut leaf),
            Start::Head(slots, row) => {
                if slots.bind(|p| row[p], &mut env, false) {
                    join_depth_first(steps, &srcs, &mut env, &mut leaf);
                }
            }
            // The pinned atom leads the plan: bind each Δ row through
            // its slots, then join the rest.
            Start::Delta(rows) => {
                for row in rows {
                    if self.steps[0].bind(|p| row[p], &mut env, false) {
                        join_depth_first(steps, &srcs, &mut env, &mut leaf);
                    }
                }
            }
        }
    }
}

/// Where a plan's first binding comes from.
enum Start<'r> {
    /// Nothing bound: a whole-body recount.
    Unit,
    /// The head's variables, bound from the recounted row.
    Head(&'r AtomSlots, &'r [Vid]),
    /// The pinned atom's variables, bound from each Δ row in turn.
    Delta(&'r [VidRow]),
}

/// One rule compiled for maintenance.
struct CompiledRule {
    /// Predicate id of the head.
    head: usize,
    /// Predicate id of each positive atom, in body order.
    atom_preds: Vec<usize>,
    /// The whole body, nothing pinned (`Rule::plan(None)`): recounts at
    /// initialization and stratum rebuilds.
    full: JoinPlan,
    /// One plan per positive occurrence `i`: Δ joined first, then the
    /// order of `Rule::plan(Some(i))`.
    pinned: Vec<JoinPlan>,
    /// The head atom as the first "join" of a backward recount: binds
    /// the head's variables from the recounted row.
    head_slots: AtomSlots,
    /// The body ordered and compiled with the head's variables bound.
    backward: JoinPlan,
}

impl CompiledRule {
    fn compile(rule: &Rule, preds: &Preds) -> Result<CompiledRule, EvalError> {
        let atoms = positive_atoms(rule);
        let atom_preds = atoms
            .iter()
            .map(|a| preds.id(&a.pred))
            .collect::<Result<_, _>>()?;
        let full = JoinPlan::compile(rule, &atoms, rule.plan(None).to_vec(), Vec::new(), preds)?;
        let pinned = (0..atoms.len())
            .map(|i| {
                JoinPlan::compile(rule, &atoms, rule.plan(Some(i)).to_vec(), Vec::new(), preds)
            })
            .collect::<Result<_, _>>()?;
        let mut head_vars = Vec::new();
        let head_slots = AtomSlots::compile(rule.head(), &mut head_vars);
        let order = plan_order_bound(&atoms, None, head_vars.iter().copied().collect());
        let backward = JoinPlan::compile(rule, &atoms, order, head_vars, preds)?;
        Ok(CompiledRule {
            head: preds.id(&rule.head().pred)?,
            atom_preds,
            full,
            pinned,
            head_slots,
            backward,
        })
    }
}

/// Static shape of one stratum, computed once at construction.
struct StratumInfo {
    /// IDB predicates assigned to this stratum (ids, ascending). Only
    /// these ever appear in a pass's worklists and head tables, so a
    /// pass scans them rather than every predicate of the program.
    preds: Vec<usize>,
    /// Indices into `program.rules()` whose head is in `preds`.
    rules: Vec<usize>,
    /// Does any rule of the stratum read a stratum predicate
    /// positively? (Conservative: treats intra-stratum acyclic
    /// dependencies as recursion, which only costs DRed generality.)
    recursive: bool,
    /// Predicates appearing negated in a stratum rule (all lower).
    negated: BTreeSet<usize>,
    /// Non-stratum predicates read positively (EDB or lower IDB).
    reads: BTreeSet<usize>,
    /// Predicates with ≥ 2 positive occurrences in a single rule body
    /// (their elementary steps need explicit pre/post versions).
    multi: BTreeSet<usize>,
    /// The delta-plan table: per predicate id, the (rule, positive
    /// occurrence) pairs a change of that predicate fires.
    delta: Vec<Vec<(usize, usize)>>,
    /// The stratum's rules as a standalone program (rebuild path).
    sub: Program,
}

/// The per-predicate working tables of a stratum pass, indexed by
/// predicate id. One set lives as long as the fixpoint: every pass
/// leaves them empty (keeping their capacity), so a pass allocates
/// nothing up front.
struct PassTables {
    del_work: Vec<Vec<VidRow>>,
    add_work: Vec<Vec<VidRow>>,
    /// DRed over-deleted facts awaiting re-derivation.
    overdeleted: Vec<HashSet<VidRow>>,
    /// Net set-level change: `true` = added, `false` = removed.
    net: Vec<HashMap<VidRow, bool>>,
    /// Committed stratum-predicate edits not yet written to `total`
    /// (`true` = insert, `false` = remove). A predicate's edits are
    /// written as one batch just before something reads its stored
    /// relation, so a cascade that never reads the predicate it
    /// extends — a chain, pinned on its own delta — pays one run merge
    /// per pass instead of one tail edit per fact.
    pending: Vec<HashMap<VidRow, bool>>,
    /// Head firing counts of the step in flight.
    heads: Vec<HashMap<VidRow, u64>>,
}

impl PassTables {
    fn new(n: usize) -> PassTables {
        PassTables {
            del_work: vec![Vec::new(); n],
            add_work: vec![Vec::new(); n],
            overdeleted: vec![HashSet::new(); n],
            net: vec![HashMap::new(); n],
            pending: vec![HashMap::new(); n],
            heads: vec![HashMap::new(); n],
        }
    }

    /// Empty the tables of `preds` — a no-op unless a failed pass left
    /// something behind.
    fn reset(&mut self, preds: &[usize]) {
        for &p in preds {
            self.del_work[p].clear();
            self.add_work[p].clear();
            if !self.overdeleted[p].is_empty() {
                self.overdeleted[p].clear();
            }
            for m in [&mut self.net[p], &mut self.pending[p]] {
                if !m.is_empty() {
                    m.clear();
                }
            }
            if !self.heads[p].is_empty() {
                self.heads[p].clear();
            }
        }
    }
}

/// A stratified-Datalog fixpoint maintained across evaluations under ±
/// deltas of its base facts (see the module docs for the algorithm).
pub struct MaintainedFixpoint {
    program: Program,
    preds: Preds,
    /// Parallel to `program.rules()`.
    rules: Vec<CompiledRule>,
    strata: Vec<StratumInfo>,
    /// The base (seed) facts as last applied: EDB relations plus any
    /// exogenously seeded IDB facts.
    base: Instance,
    /// The materialized fixpoint: always equals `program.eval(&base)`.
    total: Instance,
    /// Support counts per predicate id (`Some` exactly for IDB).
    counts: Vec<Option<CountedRelation>>,
    tables: PassTables,
    initialized: bool,
    stats: FixpointStats,
}

impl MaintainedFixpoint {
    /// Prepare a maintained fixpoint for a program: stratify it and
    /// compile every rule's delta and backward plans. Fails when the
    /// program is not stratifiable.
    pub fn new(program: &Program) -> Result<Self, EvalError> {
        let strata_preds = program.stratify()?;
        let preds = Preds::new(program);
        let rules = program.rules();
        let compiled = rules
            .iter()
            .map(|r| CompiledRule::compile(r, &preds))
            .collect::<Result<Vec<_>, _>>()?;
        let mut strata = Vec::with_capacity(strata_preds.len());
        for names in strata_preds {
            let members: Vec<usize> = names
                .iter()
                .map(|p| preds.id(p))
                .collect::<Result<_, _>>()?;
            let idxs: Vec<usize> = compiled
                .iter()
                .enumerate()
                .filter(|(_, r)| members.contains(&r.head))
                .map(|(i, _)| i)
                .collect();
            let mut recursive = false;
            let mut negated = BTreeSet::new();
            let mut reads = BTreeSet::new();
            let mut multi = BTreeSet::new();
            let mut delta = vec![Vec::new(); preds.len()];
            for &ri in &idxs {
                let cr = &compiled[ri];
                let mut occ: BTreeMap<usize, usize> = BTreeMap::new();
                for (i, &p) in cr.atom_preds.iter().enumerate() {
                    *occ.entry(p).or_insert(0) += 1;
                    delta[p].push((ri, i));
                    if members.contains(&p) {
                        recursive = true;
                    } else {
                        reads.insert(p);
                    }
                }
                negated.extend(cr.full.negs.iter().map(|(p, _)| *p));
                multi.extend(occ.into_iter().filter(|&(_, n)| n >= 2).map(|(p, _)| p));
            }
            let sub = Program::new(idxs.iter().map(|&i| rules[i].clone()).collect())?;
            strata.push(StratumInfo {
                preds: members,
                rules: idxs,
                recursive,
                negated,
                reads,
                multi,
                delta,
                sub,
            });
        }
        let counts = (0..preds.len()).map(|_| None).collect();
        let tables = PassTables::new(preds.len());
        Ok(MaintainedFixpoint {
            program: program.clone(),
            preds,
            rules: compiled,
            strata,
            base: Instance::empty(program.signature().clone()),
            total: Instance::empty(program.signature().clone()),
            initialized: false,
            counts,
            tables,
            stats: FixpointStats::default(),
        })
    }

    /// Has [`MaintainedFixpoint::initialize`] run?
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Counters describing the maintenance work performed so far.
    pub fn stats(&self) -> &FixpointStats {
        &self.stats
    }

    /// The materialized fixpoint — always equal to
    /// `program.eval(&base)` for the current base.
    pub fn current(&self) -> &Instance {
        &self.total
    }

    /// (Re)compute the fixpoint from scratch over `base` and build the
    /// support counts. Must be called once before
    /// [`MaintainedFixpoint::apply`].
    pub fn initialize(&mut self, base: &Instance) -> Result<&Instance, EvalError> {
        let (total, eval_stats) = self.program.eval_with_stats(base)?;
        self.base = base.widen(total.schema().clone()).map_err(EvalError::Rel)?;
        let idb = self.program.idb_predicates();
        for (p, slot) in self.counts.iter_mut().enumerate() {
            *slot = idb
                .contains(&self.preds.names[p])
                .then(|| CountedRelation::empty(self.preds.arity[p]));
        }
        self.total = total;
        let all: Vec<usize> = (0..self.preds.len())
            .filter(|&p| self.counts[p].is_some())
            .collect();
        let every_rule: Vec<usize> = (0..self.rules.len()).collect();
        recount_into(
            self.program.rules(),
            &self.rules,
            &every_rule,
            &self.preds,
            &self.total,
            &self.base,
            &all,
            &mut self.counts,
        )?;
        self.initialized = true;
        // Maintenance counters restart; the per-stratum derivation
        // counters describe the evaluation that just ran.
        self.stats = eval_stats;
        Ok(&self.total)
    }

    /// Advance the maintained fixpoint by a ± delta on the base facts.
    ///
    /// After this returns, [`MaintainedFixpoint::current`] equals what
    /// `program.eval` would compute from scratch over the updated base
    /// — the equivalence the `incremental ≡ scratch` property suite
    /// pins down. Every fact of the delta is validated (declared
    /// relation, matching arity) before anything changes, so a
    /// rejected delta leaves the fixpoint exactly as it was.
    pub fn apply(&mut self, delta: &InstanceDelta) -> Result<&Instance, EvalError> {
        if !self.initialized {
            return Err(EvalError::Other(
                "MaintainedFixpoint::apply before initialize".into(),
            ));
        }
        for f in delta.removed().iter().chain(delta.added()) {
            self.base.schema().check_fact(f).map_err(EvalError::Rel)?;
        }
        let stats0 = rtx_obs::counting().then(|| self.stats.clone());
        self.stats.deltas_applied += 1;
        let _apply_span = rtx_obs::trace::span("query", "dred.apply", &[]);
        if delta.is_empty() {
            self.stats.strata_skipped += self.strata.len() as u64;
            if let Some(earlier) = &stats0 {
                self.stats.publish_delta(earlier);
            }
            return Ok(&self.total);
        }
        // Set-filter the delta against the current base: only genuine
        // presence changes act. EDB changes commit to `total` up front
        // (strata reconstruct old versions as needed); IDB changes are
        // seed-support changes routed to the owning stratum. Relations
        // the program never mentions only change `base` and `total`.
        let n = self.preds.len();
        let mut changes: Vec<Change> = vec![Change::default(); n];
        let mut seeds: Vec<Change> = vec![Change::default(); n];
        for f in delta.removed() {
            if !self.base.remove_fact(f) {
                continue;
            }
            let id = self.preds.ids.get(f.rel()).copied();
            let idb = id.is_some_and(|p| self.counts[p].is_some());
            if !idb {
                self.total.remove_fact(f);
            }
            if let Some(p) = id {
                let slot = if idb { &mut seeds[p] } else { &mut changes[p] };
                slot.removed.push(vid_row(f.tuple()));
            }
        }
        for f in delta.added() {
            if self.base.contains_fact(f) {
                continue;
            }
            self.base.insert_fact(f.clone()).map_err(EvalError::Rel)?;
            let id = self.preds.ids.get(f.rel()).copied();
            let idb = id.is_some_and(|p| self.counts[p].is_some());
            if !idb {
                self.total.insert_fact(f.clone()).map_err(EvalError::Rel)?;
            }
            if let Some(p) = id {
                let slot = if idb { &mut seeds[p] } else { &mut changes[p] };
                slot.added.push(vid_row(f.tuple()));
            }
        }
        for si in 0..self.strata.len() {
            let info = &self.strata[si];
            let seed_changes: Vec<(usize, Change)> = info
                .preds
                .iter()
                .map(|&p| (p, std::mem::take(&mut seeds[p])))
                .filter(|(_, c)| !c.is_empty())
                .collect();
            let touched: Vec<usize> = (0..n)
                .filter(|p| {
                    !changes[*p].is_empty() && (info.reads.contains(p) || info.negated.contains(p))
                })
                .collect();
            if touched.is_empty() && seed_changes.is_empty() {
                self.stats.strata_skipped += 1;
                rtx_obs::event!("query", "dred.skip", "stratum" => si);
                continue;
            }
            if touched.iter().any(|p| info.negated.contains(p)) {
                self.stats.strata_rebuilt += 1;
                rtx_obs::event!("query", "dred.rebuild", "stratum" => si);
                self.rebuild_stratum(si, &mut changes)?;
                continue;
            }
            self.stats.strata_incremental += 1;
            let cascade0 = (self.stats.facts_retracted, self.stats.facts_rederived);
            self.tables.reset(&info.preds);
            let mut pass = StratumPass {
                preds: &self.preds,
                rules: &self.rules,
                program_rules: self.program.rules(),
                info,
                base: &self.base,
                total: &mut self.total,
                counts: &mut self.counts,
                stats: &mut self.stats,
                views: BTreeMap::new(),
                t: &mut self.tables,
            };
            pass.run(&changes, &seed_changes)?;
            if rtx_obs::tracing() {
                rtx_obs::event!(
                    "query",
                    "dred.cascade",
                    "stratum" => si,
                    "retracted" => self.stats.facts_retracted - cascade0.0,
                    "rederived" => self.stats.facts_rederived - cascade0.1,
                );
            }
            for &p in &info.preds {
                for (row, added) in self.tables.net[p].drain() {
                    if added {
                        changes[p].added.push(row);
                    } else {
                        changes[p].removed.push(row);
                    }
                }
            }
        }
        if let Some(earlier) = &stats0 {
            self.stats.publish_delta(earlier);
        }
        Ok(&self.total)
    }

    /// Recompute one stratum wholesale from its (already maintained)
    /// inputs — the fallback when a negated input changed. Only this
    /// stratum is touched; its net set-level change feeds higher strata.
    fn rebuild_stratum(&mut self, si: usize, changes: &mut [Change]) -> Result<(), EvalError> {
        let info = &self.strata[si];
        let mut old: Vec<(usize, Relation)> = Vec::new();
        for &p in &info.preds {
            let (name, arity) = (&self.preds.names[p], self.preds.arity[p]);
            let rel = self
                .total
                .relation_ref(name)
                .cloned()
                .unwrap_or_else(|| Relation::empty(arity));
            self.total
                .set_relation(name.clone(), Relation::empty(arity))
                .map_err(EvalError::Rel)?;
            self.counts[p] = Some(CountedRelation::empty(arity));
            old.push((p, rel));
        }
        for f in self.base.facts() {
            if self
                .preds
                .ids
                .get(f.rel())
                .is_some_and(|p| info.preds.contains(p))
            {
                self.total.insert_fact(f).map_err(EvalError::Rel)?;
            }
        }
        self.total = info.sub.eval(&self.total)?;
        recount_into(
            self.program.rules(),
            &self.rules,
            &info.rules,
            &self.preds,
            &self.total,
            &self.base,
            &info.preds,
            &mut self.counts,
        )?;
        for (p, old_rel) in old {
            let empty = Relation::empty(old_rel.arity());
            let new_rel = self
                .total
                .relation_ref(&self.preds.names[p])
                .unwrap_or(&empty);
            let (added, removed) = new_rel.diff(&old_rel).map_err(EvalError::Rel)?.into_parts();
            changes[p].added.extend(added.iter().map(vid_row));
            changes[p].removed.extend(removed.iter().map(vid_row));
        }
        Ok(())
    }
}

/// Which way an elementary step moves its batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepDir {
    Remove,
    Add,
}

/// Pre/post versions of the pinned predicate for a mixed expansion;
/// `None` when the predicate occurs at most once per body.
type Versions<'v> = Option<(&'v Relation, &'v Relation)>;

/// One incremental maintenance pass over a single stratum. Every
/// per-predicate table is indexed by predicate id.
struct StratumPass<'a> {
    preds: &'a Preds,
    rules: &'a [CompiledRule],
    program_rules: &'a [Rule],
    info: &'a StratumInfo,
    base: &'a Instance,
    total: &'a mut Instance,
    counts: &'a mut [Option<CountedRelation>],
    stats: &'a mut FixpointStats,
    /// Sequential-state views of changed *input* predicates: start at
    /// their old value, converge to the (already committed) new value
    /// as elementary steps execute.
    views: BTreeMap<usize, Relation>,
    t: &'a mut PassTables,
}

impl StratumPass<'_> {
    fn run(
        &mut self,
        changes: &[Change],
        seed_changes: &[(usize, Change)],
    ) -> Result<(), EvalError> {
        // Sequential-state views for the changed inputs we read.
        let inputs: Vec<usize> = (0..changes.len())
            .filter(|p| !changes[*p].is_empty() && self.info.reads.contains(p))
            .collect();
        for &p in &inputs {
            let mut old = self
                .total
                .relation_ref(&self.preds.names[p])
                .cloned()
                .unwrap_or_else(|| Relation::empty(self.preds.arity[p]));
            for row in &changes[p].added {
                old.remove_vids(row);
            }
            for row in &changes[p].removed {
                old.insert_vids(row).map_err(EvalError::Rel)?;
            }
            self.views.insert(p, old);
        }

        // ---- deletion phase (seeds, then inputs, then cascades) ----
        for (p, c) in seed_changes {
            for row in &c.removed {
                self.lose_seed(*p, row)?;
            }
        }
        for &p in &inputs {
            if !changes[p].removed.is_empty() {
                self.input_step(p, &changes[p].removed, StepDir::Remove)?;
                self.handle_lost()?;
            }
        }
        while let Some((p, rows)) = pop_first(&mut self.t.del_work, &self.info.preds) {
            self.stratum_step(p, &rows, StepDir::Remove)?;
            self.handle_lost()?;
        }

        // ---- DRed re-derivation (recursive strata only) ----
        self.rederive()?;

        // ---- insertion phase (inputs, seeds, then cascades) ----
        for &p in &inputs {
            if !changes[p].added.is_empty() {
                self.input_step(p, &changes[p].added, StepDir::Add)?;
                self.handle_gained(false)?;
            }
        }
        for (p, c) in seed_changes {
            for row in &c.added {
                self.gain_seed(*p, row)?;
            }
        }
        self.add_cascade(false)?;
        self.views.clear();
        self.flush_all()
    }

    /// Write predicate `q`'s pending edits to `total`.
    fn flush(&mut self, q: usize) -> Result<(), EvalError> {
        if self.t.pending[q].is_empty() {
            return Ok(());
        }
        let edits = std::mem::take(&mut self.t.pending[q]);
        let added = edits.iter().filter(|(_, &a)| a).map(|(r, _)| &**r);
        let removed = edits.iter().filter(|(_, &a)| !a).map(|(r, _)| &**r);
        self.total
            .apply_vid_rows(&self.preds.names[q], added, removed)
            .map_err(EvalError::Rel)
    }

    fn flush_all(&mut self) -> Result<(), EvalError> {
        let info = self.info;
        info.preds.iter().try_for_each(|&q| self.flush(q))
    }

    /// Bring every stored relation a step of `p` reads up to date —
    /// including `p` itself when it needs pre/post versions.
    fn flush_reads(&mut self, p: usize) -> Result<(), EvalError> {
        let (info, rules) = (self.info, self.rules);
        for &(ri, _) in &info.delta[p] {
            for &q in &rules[ri].atom_preds {
                if q != p || info.multi.contains(&p) {
                    self.flush(q)?;
                }
            }
        }
        Ok(())
    }

    /// Execute one elementary step of a changed *input* predicate: run
    /// the mixed expansion against the sequential views, then commit
    /// the step to the view.
    fn input_step(&mut self, p: usize, rows: &[VidRow], dir: StepDir) -> Result<(), EvalError> {
        self.flush_reads(p)?;
        let mut cur = self.views.remove(&p).ok_or_else(|| {
            EvalError::Other(format!(
                "no view for changed input `{}`",
                self.preds.names[p]
            ))
        })?;
        let pre = self.info.multi.contains(&p).then(|| cur.clone());
        // Advance the view to the post-step state before the expansion:
        // `cur` plays "post", the copy plays "pre".
        edit(&mut cur, rows, dir)?;
        let mut heads = std::mem::take(&mut self.t.heads);
        let res = self.expand(p, rows, pre.as_ref().map(|pre| (pre, &cur)), &mut heads);
        self.t.heads = heads;
        self.views.insert(p, cur);
        self.stats.steps += 1;
        res
    }

    /// Execute one elementary step of a *stratum* predicate (cascade),
    /// committing the step to `total` after the expansion.
    fn stratum_step(&mut self, p: usize, rows: &[VidRow], dir: StepDir) -> Result<(), EvalError> {
        self.flush_reads(p)?;
        let name = &self.preds.names[p];
        let empty = Relation::empty(self.preds.arity[p]);
        // The stored relation is the pre-step state (removals still
        // present, additions not yet inserted).
        let post = match self.info.multi.contains(&p) {
            true => {
                let mut c = self.total.relation_ref(name).unwrap_or(&empty).clone();
                edit(&mut c, rows, dir)?;
                Some(c)
            }
            false => None,
        };
        let mut heads = std::mem::take(&mut self.t.heads);
        let cur = self.total.relation_ref(name).unwrap_or(&empty);
        let res = self.expand(p, rows, post.as_ref().map(|post| (cur, post)), &mut heads);
        self.t.heads = heads;
        res?;
        self.stats.steps += 1;
        // Commit the step.
        match post {
            Some(post) => self
                .total
                .set_relation(name.clone(), post)
                .map_err(EvalError::Rel)?,
            None => {
                let add = dir == StepDir::Add;
                for row in rows {
                    // An edit cancelling a pending one leaves `total` as is.
                    if self.t.pending[p].get(row) == Some(&!add) {
                        self.t.pending[p].remove(row);
                    } else {
                        self.t.pending[p].insert(row.clone(), add);
                    }
                }
            }
        }
        Ok(())
    }

    /// The mixed semi-naive expansion for one elementary step of
    /// predicate `p` with batch `rows`: for every (rule, occurrence `i`)
    /// of `p` in the delta-plan table, join `new₁ … newᵢ₋₁ Δᵢ oldᵢ₊₁ …
    /// oldₙ` (other predicates at their current sequential state) and
    /// add the resulting firings per head row to `heads`. Each
    /// gained/lost firing of the step is counted exactly once.
    fn expand(
        &self,
        p: usize,
        rows: &[VidRow],
        versions: Versions<'_>,
        heads: &mut [HashMap<VidRow, u64>],
    ) -> Result<(), EvalError> {
        let plans = &self.info.delta[p];
        if rows.is_empty() || plans.is_empty() {
            return Ok(());
        }
        let arity = self.preds.arity[p];
        let mut delta_rel: Option<Relation> = None;
        'plans: for &(ri, i) in plans {
            let cr = &self.rules[ri];
            let mut srcs: Vec<Option<&Relation>> = Vec::with_capacity(cr.atom_preds.len());
            for (j, &q) in cr.atom_preds.iter().enumerate() {
                let r = if j == i {
                    None
                } else if q == p {
                    let (pre, post) = versions.ok_or_else(|| {
                        EvalError::Other(format!(
                            "expansion of `{}` needs pre/post versions",
                            self.preds.names[p]
                        ))
                    })?;
                    Some(if j < i { post } else { pre })
                } else {
                    match self.source(q) {
                        Some(r) => Some(r),
                        None => continue 'plans,
                    }
                };
                if r.is_some_and(Relation::is_empty) {
                    continue 'plans;
                }
                srcs.push(r);
            }
            let plan = &cr.pinned[i];
            let slot = &mut heads[cr.head];
            let negs = neg_runs(plan, self.total, self.preds);
            if let (Some(runs), Some(negs)) = (columnar(srcs.iter().copied()), negs) {
                plan.execute(Start::Delta(rows), &runs, &negs, &mut |row| {
                    bump(slot, row, 1)
                });
                continue;
            }
            // Generic path (the btree oracle): the same plan over
            // `Bindings`.
            let delta_rel = match &mut delta_rel {
                Some(d) => &*d,
                None => delta_rel.insert(
                    Relation::from_tuples(arity, rows.iter().map(|r| row_tuple(r)))
                        .map_err(EvalError::Rel)?,
                ),
            };
            let rels: Vec<&Relation> = srcs.iter().map(|s| s.unwrap_or(delta_rel)).collect();
            generic_fire(
                &self.program_rules[ri],
                &plan.order,
                &rels,
                Bindings::new(),
                self.total,
                |t| bump(slot, &vid_row(t), 1),
            )?;
        }
        Ok(())
    }

    /// Source relation for a predicate: the sequential view when the
    /// predicate changed this pass, else the materialized database.
    fn source(&self, p: usize) -> Option<&Relation> {
        match self.views.get(&p) {
            Some(v) => Some(v),
            None => self.total.relation_ref(&self.preds.names[p]),
        }
    }

    fn count_table(&mut self, p: usize) -> Result<&mut CountedRelation, EvalError> {
        let name = &self.preds.names[p];
        self.counts[p]
            .as_mut()
            .ok_or_else(|| EvalError::Other(format!("no count table for IDB `{name}`")))
    }

    /// A stratum fact lost its seed support.
    fn lose_seed(&mut self, p: usize, row: &[Vid]) -> Result<(), EvalError> {
        if self.info.recursive {
            self.overdelete(p, row)
        } else {
            if self.count_table(p)?.sub(row, 1).map_err(EvalError::Rel)? {
                self.retract(p, row);
            }
            Ok(())
        }
    }

    /// A stratum fact gained seed support.
    fn gain_seed(&mut self, p: usize, row: &[Vid]) -> Result<(), EvalError> {
        if self.count_table(p)?.add(row, 1).map_err(EvalError::Rel)? {
            self.t.add_work[p].push(row.into());
            net_add(&mut self.t.net[p], row);
        }
        Ok(())
    }

    /// Process the lost firings of one elementary removal step.
    fn handle_lost(&mut self) -> Result<(), EvalError> {
        let mut heads = std::mem::take(&mut self.t.heads);
        let res = (|| {
            let info = self.info;
            for &p in &info.preds {
                for (row, lost) in heads[p].drain() {
                    if self.info.recursive {
                        self.overdelete(p, &row)?;
                    } else if self
                        .count_table(p)?
                        .sub(&row, lost)
                        .map_err(EvalError::Rel)?
                    {
                        self.retract(p, &row);
                    }
                }
            }
            Ok(())
        })();
        self.t.heads = heads;
        res
    }

    /// Process the gained firings of one elementary addition step. A
    /// fact that becomes present while `rederiving` must be one the
    /// deletion phase over-deleted: re-derivation only ever puts back
    /// facts of the pre-deletion database.
    fn handle_gained(&mut self, rederiving: bool) -> Result<(), EvalError> {
        let mut heads = std::mem::take(&mut self.t.heads);
        let res = (|| {
            let info = self.info;
            for &p in &info.preds {
                for (row, gained) in heads[p].drain() {
                    if !self
                        .count_table(p)?
                        .add(&row, gained)
                        .map_err(EvalError::Rel)?
                    {
                        continue;
                    }
                    if rederiving {
                        if !self.t.overdeleted[p].remove(&row) {
                            return Err(EvalError::Other(
                                "DRed re-derivation produced a fact absent from the \
                                 pre-deletion database"
                                    .into(),
                            ));
                        }
                        self.stats.facts_rederived += 1;
                    }
                    net_add(&mut self.t.net[p], &row);
                    self.t.add_work[p].push(row);
                }
            }
            Ok(())
        })();
        self.t.heads = heads;
        res
    }

    /// Run addition batches until the worklist drains.
    fn add_cascade(&mut self, rederiving: bool) -> Result<(), EvalError> {
        while let Some((p, rows)) = pop_first(&mut self.t.add_work, &self.info.preds) {
            self.stratum_step(p, &rows, StepDir::Add)?;
            self.handle_gained(rederiving)?;
        }
        Ok(())
    }

    /// DRed over-deletion: a recursive-stratum fact that lost *any*
    /// derivation is retracted outright; re-derivation puts survivors
    /// back.
    fn overdelete(&mut self, p: usize, row: &[Vid]) -> Result<(), EvalError> {
        if self.t.overdeleted[p].contains(row) {
            return Ok(()); // already over-deleted this pass
        }
        self.t.overdeleted[p].insert(row.into());
        self.count_table(p)?.clear_row(row);
        self.retract(p, row);
        Ok(())
    }

    /// Record a retraction: enqueue the cascade batch and track the net
    /// change. (The `total` commit happens when the batch pops.)
    fn retract(&mut self, p: usize, row: &[Vid]) {
        self.t.del_work[p].push(row.into());
        net_remove(&mut self.t.net[p], row);
        self.stats.facts_retracted += 1;
    }

    /// DRed re-derivation. Every over-deleted fact is recounted once —
    /// seed support plus a backward join — and all recounts see the
    /// same surviving database, because nothing is put back until they
    /// are done. The facts with support re-enter with exactly that
    /// count and cascade through the insertion worklist: each firing a
    /// re-entered fact adds is counted once by its pinned expansion,
    /// and an over-deleted fact that gains one re-enters in turn.
    /// Whatever stays over-deleted is gone for good.
    fn rederive(&mut self) -> Result<(), EvalError> {
        let preds = &self.info.preds;
        if preds.iter().all(|&p| self.t.overdeleted[p].is_empty()) {
            return Ok(());
        }
        self.flush_all()?;
        let mut found: Vec<(usize, VidRow, u64)> = Vec::new();
        let mut recounts = 0u64;
        for &p in preds {
            for row in &self.t.overdeleted[p] {
                recounts += 1;
                let seeded = self.base.contains_vids(&self.preds.names[p], row);
                let c = u64::from(seeded) + self.backward_count(p, row)?;
                if c > 0 {
                    found.push((p, row.clone(), c));
                }
            }
        }
        self.stats.backward_counts += recounts;
        for (p, row, c) in found {
            self.t.overdeleted[p].remove(&row);
            self.count_table(p)?.add(&row, c).map_err(EvalError::Rel)?;
            self.stats.facts_rederived += 1;
            net_add(&mut self.t.net[p], &row);
            self.t.add_work[p].push(row);
        }
        self.add_cascade(true)?;
        for &p in &self.info.preds {
            self.t.overdeleted[p].clear();
        }
        Ok(())
    }

    /// Count the firings deriving `(p, row)` over the current database:
    /// each rule with head `p` runs its backward plan from the head's
    /// variables as bound by `row`.
    fn backward_count(&self, p: usize, row: &[Vid]) -> Result<u64, EvalError> {
        let mut n = 0u64;
        'rules: for &ri in &self.info.rules {
            let cr = &self.rules[ri];
            if cr.head != p {
                continue;
            }
            let mut srcs: Vec<&Relation> = Vec::with_capacity(cr.atom_preds.len());
            for &q in &cr.atom_preds {
                match self.source(q) {
                    Some(r) if !r.is_empty() => srcs.push(r),
                    _ => continue 'rules,
                }
            }
            let runs = columnar(srcs.iter().copied().map(Some));
            let negs = neg_runs(&cr.backward, self.total, self.preds);
            if let (Some(runs), Some(negs)) = (runs, negs) {
                let start = Start::Head(&cr.head_slots, row);
                cr.backward.execute(start, &runs, &negs, &mut |_| n += 1);
                continue;
            }
            let rule = &self.program_rules[ri];
            let Some(env0) = rule.head().match_tuple(&row_tuple(row), &Bindings::new()) else {
                continue;
            };
            generic_fire(rule, &cr.backward.order, &srcs, env0, self.total, |_| {
                n += 1
            })?;
        }
        Ok(n)
    }
}

/// Apply a batch of point edits to a relation.
fn edit(rel: &mut Relation, rows: &[VidRow], dir: StepDir) -> Result<(), EvalError> {
    for row in rows {
        match dir {
            StepDir::Remove => {
                rel.remove_vids(row);
            }
            StepDir::Add => {
                rel.insert_vids(row).map_err(EvalError::Rel)?;
            }
        }
    }
    Ok(())
}

/// Take the pending batch of the lowest-numbered predicate of `preds`
/// (ascending).
fn pop_first(work: &mut [Vec<VidRow>], preds: &[usize]) -> Option<(usize, Vec<VidRow>)> {
    let p = preds.iter().copied().find(|&p| !work[p].is_empty())?;
    Some((p, std::mem::take(&mut work[p])))
}

/// Add `k` firings of `row` to a head-count table.
fn bump(counts: &mut HashMap<VidRow, u64>, row: &[Vid], k: u64) {
    match counts.get_mut(row) {
        Some(c) => *c += k,
        None => {
            counts.insert(row.into(), k);
        }
    }
}

fn net_add(net: &mut HashMap<VidRow, bool>, row: &[Vid]) {
    if net.get(row) == Some(&false) {
        net.remove(row);
    } else {
        net.insert(row.into(), true);
    }
}

fn net_remove(net: &mut HashMap<VidRow, bool>, row: &[Vid]) {
    if net.get(row) == Some(&true) {
        net.remove(row);
    } else {
        net.insert(row.into(), false);
    }
}

/// The sorted runs of a plan's sources (`None` passes through: the
/// atom Δ covers), or `None` when some source is not run-backed.
fn columnar<'r>(
    srcs: impl IntoIterator<Item = Option<&'r Relation>>,
) -> Option<Vec<Option<Arc<Run>>>> {
    srcs.into_iter()
        .map(|s| match s {
            None => Some(None),
            Some(r) => r.columnar_run().map(Some),
        })
        .collect()
}

/// The runs of a plan's negated atoms in `db` (a missing relation
/// filters nothing: an empty run), or `None` when one is not
/// run-backed.
fn neg_runs(plan: &JoinPlan, db: &Instance, preds: &Preds) -> Option<Vec<Arc<Run>>> {
    plan.negs
        .iter()
        .map(|&(q, _)| match db.relation_ref(&preds.names[q]) {
            None => Some(Arc::new(Run::empty(preds.arity[q]))),
            Some(r) => r.columnar_run(),
        })
        .collect()
}

fn positive_atoms(rule: &Rule) -> Vec<&Atom> {
    rule.body()
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect()
}

/// Check a complete binding against the rule's negated atoms and
/// nonequalities (mirrors the filters of `Rule::derive`).
fn passes_filters(rule: &Rule, env: &Bindings, neg_db: &Instance) -> Result<bool, EvalError> {
    for l in rule.body() {
        match l {
            Literal::Pos(_) => {}
            Literal::Neg(a) => {
                let t = a.instantiate(env).ok_or_else(|| EvalError::Unsafe {
                    reason: format!("negated atom {a} unbound"),
                })?;
                if neg_db.relation_ref(&a.pred).is_some_and(|r| r.contains(&t)) {
                    return Ok(false);
                }
            }
            Literal::Diseq(x, y) => match (x.resolve(env), y.resolve(env)) {
                (Some(a), Some(b)) if a != b => {}
                (Some(_), Some(_)) => return Ok(false),
                _ => {
                    return Err(EvalError::Unsafe {
                        reason: "nonequality over unbound variable".into(),
                    })
                }
            },
        }
    }
    Ok(true)
}

/// The generic `Bindings` executor behind every compiled plan — what
/// runs when a source is not run-backed (the btree storage oracle):
/// join the positive atoms (`srcs`, by atom) in `order` from `env0`,
/// filter, and hand every firing's head tuple to `emit`.
fn generic_fire(
    rule: &Rule,
    order: &[usize],
    srcs: &[&Relation],
    env0: Bindings,
    neg_db: &Instance,
    mut emit: impl FnMut(&Tuple),
) -> Result<(), EvalError> {
    let atoms = positive_atoms(rule);
    let mut envs = vec![env0];
    for &k in order {
        envs = atoms[k].join_indexed(srcs[k], &envs);
        if envs.is_empty() {
            return Ok(());
        }
    }
    for env in &envs {
        if !passes_filters(rule, env, neg_db)? {
            continue;
        }
        let t = rule
            .head()
            .instantiate(env)
            .ok_or_else(|| EvalError::Unsafe {
                reason: "head unbound".into(),
            })?;
        emit(&t);
    }
    Ok(())
}

/// Build support counts from scratch for the heads of the rules
/// `which` over `db`: every rule firing plus +1 seed support per base
/// fact of `seeded`. The single source of truth for both
/// initialization and negation-triggered stratum rebuilds — the two
/// paths must count identically or the bookkeeping drifts into
/// `NegativeSupport`.
#[allow(clippy::too_many_arguments)]
fn recount_into(
    program_rules: &[Rule],
    rules: &[CompiledRule],
    which: &[usize],
    preds: &Preds,
    db: &Instance,
    base: &Instance,
    seeded: &[usize],
    counts: &mut [Option<CountedRelation>],
) -> Result<(), EvalError> {
    let mut heads: Vec<HashMap<VidRow, u64>> = vec![HashMap::new(); preds.len()];
    'rules: for &ri in which {
        let cr = &rules[ri];
        let mut srcs: Vec<&Relation> = Vec::with_capacity(cr.atom_preds.len());
        for &q in &cr.atom_preds {
            match db.relation_ref(&preds.names[q]) {
                Some(r) if !r.is_empty() => srcs.push(r),
                _ => continue 'rules, // some body relation is empty
            }
        }
        let slot = &mut heads[cr.head];
        let runs = columnar(srcs.iter().copied().map(Some));
        if let (Some(runs), Some(negs)) = (runs, neg_runs(&cr.full, db, preds)) {
            cr.full
                .execute(Start::Unit, &runs, &negs, &mut |row| bump(slot, row, 1));
            continue;
        }
        generic_fire(
            &program_rules[ri],
            &cr.full.order,
            &srcs,
            Bindings::new(),
            db,
            |t| bump(slot, &vid_row(t), 1),
        )?;
    }
    let missing =
        |p: usize| EvalError::Other(format!("no count table for IDB `{}`", preds.names[p]));
    for (p, rows) in heads.into_iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let c = counts[p].as_mut().ok_or_else(|| missing(p))?;
        for (row, k) in rows {
            c.add(&row, k).map_err(EvalError::Rel)?;
        }
    }
    for &p in seeded {
        let Some(rel) = base.relation_ref(&preds.names[p]) else {
            continue;
        };
        let c = counts[p].as_mut().ok_or_else(|| missing(p))?;
        for t in rel.iter() {
            c.add(&vid_row(t), 1).map_err(EvalError::Rel)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, Fact, Schema};

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

    /// Apply a delta to both the maintained fixpoint and a shadow base,
    /// and assert the maintained result equals a scratch evaluation.
    fn check_step(
        fix: &mut MaintainedFixpoint,
        base: &mut Instance,
        added: Vec<Fact>,
        removed: Vec<Fact>,
    ) {
        let delta = InstanceDelta::from_parts(added, removed);
        base.apply_delta(&delta).unwrap();
        let maintained = fix.apply(&delta).unwrap().clone();
        let scratch = fix.program.eval(base).unwrap();
        assert_eq!(maintained, scratch, "incremental drifted from scratch");
    }

    fn edge_base(pairs: &[(i64, i64)]) -> Instance {
        let sch = Schema::new().with("E", 2).with("T", 2);
        let mut i = Instance::empty(sch);
        for &(a, b) in pairs {
            i.insert_fact(fact!("E", a, b)).unwrap();
        }
        i
    }

    #[test]
    fn insertions_cascade_through_recursion() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![fact!("E", 2, 3)], vec![]);
        check_step(&mut fix, &mut base, vec![fact!("E", 3, 4)], vec![]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 4)));
        assert_eq!(fix.stats().strata_rebuilt, 0);
    }

    #[test]
    fn empty_delta_skips_every_stratum() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 3)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![], vec![]);
        assert_eq!(fix.stats().strata_skipped, 1);
        assert_eq!(fix.stats().strata_incremental, 0);
    }

    #[test]
    fn dred_kills_cyclically_supported_facts() {
        // 1→2→1: every T pair is (cyclically) multi-supported. Removing
        // E(2,1) must shrink T to {(1,2)} — pure counting would leave
        // the cycle's facts alive on their spurious mutual support.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 1)]);
        fix.initialize(&base).unwrap();
        assert_eq!(fix.current().relation(&"T".into()).unwrap().len(), 4);
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 2, 1)]);
        let t = fix.current().relation(&"T".into()).unwrap();
        assert_eq!(t.len(), 1);
        assert!(fix.stats().facts_retracted >= 3);
    }

    #[test]
    fn dred_rederives_alternately_supported_facts() {
        // Chain 1→2→3→4 plus shortcut 1→3. Removing E(1,2) over-deletes
        // T(1,3)/T(1,4) (they lose their chain derivations) but both
        // must be re-derived through the shortcut.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2), (2, 3), (3, 4), (1, 3)]);
        fix.initialize(&base).unwrap();
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 3)));
        assert!(fix.current().contains_fact(&fact!("T", 1, 4)));
        assert!(!fix.current().contains_fact(&fact!("T", 1, 2)));
        assert!(fix.stats().facts_rederived >= 2, "{:?}", fix.stats());
    }

    #[test]
    fn mixed_deltas_on_random_walk_match_scratch() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[]);
        fix.initialize(&base).unwrap();
        // A fixed ± schedule exercising growth, cycles, and teardown.
        type Step = (Vec<(i64, i64)>, Vec<(i64, i64)>);
        let steps: Vec<Step> = vec![
            (vec![(1, 2), (2, 3)], vec![]),
            (vec![(3, 1)], vec![]),
            (vec![(3, 4), (4, 5)], vec![(2, 3)]),
            (vec![(2, 3)], vec![(3, 1)]),
            (vec![], vec![(1, 2), (3, 4)]),
            (vec![(5, 1)], vec![(4, 5)]),
            (vec![], vec![(2, 3), (5, 1)]),
        ];
        for (add, rem) in steps {
            check_step(
                &mut fix,
                &mut base,
                add.iter().map(|&(a, b)| fact!("E", a, b)).collect(),
                rem.iter().map(|&(a, b)| fact!("E", a, b)).collect(),
            );
        }
    }

    #[test]
    fn negated_input_changes_rebuild_only_that_stratum() {
        // Reach in stratum 0; Unreach = Node ∧ ¬Reach in stratum 1.
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
        let sch = Schema::new()
            .with("E", 2)
            .with("Src", 1)
            .with("Node", 1)
            .with("Reach", 1)
            .with("Unreach", 1);
        let mut base = Instance::from_facts(
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
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        assert!(fix.current().contains_fact(&fact!("Unreach", 3)));
        // Extending reachability changes the negated input of stratum 1.
        check_step(&mut fix, &mut base, vec![fact!("E", 2, 3)], vec![]);
        assert!(!fix.current().contains_fact(&fact!("Unreach", 3)));
        assert!(fix.stats().strata_rebuilt >= 1);
        // Retracting the edge flips it back.
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 2, 3)]);
        assert!(fix.current().contains_fact(&fact!("Unreach", 3)));
        // A Node-only change leaves stratum 0 untouched (skipped).
        let skipped_before = fix.stats().strata_skipped;
        check_step(&mut fix, &mut base, vec![fact!("Node", 4)], vec![]);
        assert!(fix.stats().strata_skipped > skipped_before);
    }

    #[test]
    fn idb_seed_changes_adjust_support() {
        // A seeded T fact must survive losing its derivations, and a
        // derived T fact must survive losing its seed.
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        let mut base = edge_base(&[(1, 2)]);
        base.insert_fact(fact!("T", 7, 8)).unwrap();
        fix.initialize(&base).unwrap();
        assert!(fix.current().contains_fact(&fact!("T", 7, 8)));
        // Seed the derived fact, then retract the edge: T(1,2) stays.
        check_step(&mut fix, &mut base, vec![fact!("T", 1, 2)], vec![]);
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().contains_fact(&fact!("T", 1, 2)));
        // Retract the seed too: now it is gone.
        check_step(&mut fix, &mut base, vec![], vec![fact!("T", 1, 2)]);
        assert!(!fix.current().contains_fact(&fact!("T", 1, 2)));
        // The exogenous seed is independent of any rule support.
        check_step(&mut fix, &mut base, vec![], vec![fact!("T", 7, 8)]);
        assert!(!fix.current().contains_fact(&fact!("T", 7, 8)));
    }

    #[test]
    fn repeated_predicate_occurrences_use_pre_post_versions() {
        // H(X,Z) ← E(X,Y), E(Y,Z): the same predicate twice in one body
        // exercises the mixed pre/post expansion.
        let p = Program::new(vec![rule(
            atom!("H"; @"X", @"Z"),
            vec![
                Literal::Pos(atom!("E"; @"X", @"Y")),
                Literal::Pos(atom!("E"; @"Y", @"Z")),
            ],
        )])
        .unwrap();
        let sch = Schema::new().with("E", 2).with("H", 2);
        let mut base = Instance::empty(sch);
        for &(a, b) in &[(1i64, 2i64), (2, 3), (2, 4)] {
            base.insert_fact(fact!("E", a, b)).unwrap();
        }
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        // A batch that adds two chainable edges at once: the firing
        // using both must be counted exactly once.
        check_step(
            &mut fix,
            &mut base,
            vec![fact!("E", 4, 5), fact!("E", 5, 6)],
            vec![],
        );
        assert!(fix.current().contains_fact(&fact!("H", 4, 6)));
        check_step(
            &mut fix,
            &mut base,
            vec![],
            vec![fact!("E", 2, 3), fact!("E", 4, 5)],
        );
        check_step(&mut fix, &mut base, vec![], vec![fact!("E", 1, 2)]);
        assert!(fix.current().relation(&"H".into()).unwrap().is_empty() == base_h_empty(&base, &p));
    }

    fn base_h_empty(base: &Instance, p: &Program) -> bool {
        p.eval(base)
            .unwrap()
            .relation(&"H".into())
            .unwrap()
            .is_empty()
    }

    #[test]
    fn apply_before_initialize_is_an_error() {
        let p = tc_program();
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        assert!(!fix.is_initialized());
        let d = InstanceDelta::from_parts(vec![fact!("E", 1, 2)], vec![]);
        assert!(matches!(fix.apply(&d), Err(EvalError::Other(_))));
    }

    #[test]
    fn non_stratifiable_programs_rejected() {
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
        assert!(MaintainedFixpoint::new(&p).is_err());
    }
}
