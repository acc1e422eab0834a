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
//!   facts that still have support (computed by a backward join against
//!   the surviving database), cascading until a fixpoint;
//! * **negation** is handled stratum by stratum: lower-stratum ±
//!   changes are treated exactly like EDB deltas, and a stratum whose
//!   *negated* inputs changed is recomputed wholesale from its
//!   (maintained) inputs — only the affected stratum, never the whole
//!   program.
//!
//! The per-evaluation cost is `O(changed derivations)` instead of
//! `O(all derivations)`; strata whose inputs did not change are skipped
//! entirely. The Dedalus runtime puts this under its tick loop
//! (`FixpointMode::Incremental`), turning the per-tick deductive
//! fixpoint from the hottest loop in the system into a no-op on
//! quiescent ticks.

use crate::datalog::{Literal, Program, Rule};
use crate::error::EvalError;
use crate::frame::Frame;
use crate::plan::plan_order;
use crate::term::{Atom, Bindings};
use rtx_relational::{
    CountedRelation, Fact, Instance, InstanceDelta, RelName, Relation, Run, Tuple,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-head-tuple firing counts collected by a delta expansion.
type HeadCounts = BTreeMap<RelName, BTreeMap<Tuple, u64>>;

/// Pending per-predicate tuple batches (deterministic worklist).
type Worklist = BTreeMap<RelName, BTreeSet<Tuple>>;

/// A set-level ± change of one predicate.
#[derive(Clone, Debug, Default)]
struct Change {
    added: BTreeSet<Tuple>,
    removed: BTreeSet<Tuple>,
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
    }
}

/// Static shape of one stratum, computed once at construction.
struct StratumInfo {
    /// IDB predicates assigned to this stratum.
    preds: BTreeSet<RelName>,
    /// Indices into `program.rules()` whose head is in `preds`.
    rules: Vec<usize>,
    /// Does any rule of the stratum read a stratum predicate
    /// positively? (Conservative: treats intra-stratum acyclic
    /// dependencies as recursion, which only costs DRed generality.)
    recursive: bool,
    /// Predicates appearing negated in a stratum rule (all lower).
    negated: BTreeSet<RelName>,
    /// Non-stratum predicates read positively (EDB or lower IDB).
    reads: BTreeSet<RelName>,
    /// Predicates with ≥ 2 positive occurrences in a single rule body
    /// (their elementary steps need explicit pre/post versions).
    multi: BTreeSet<RelName>,
    /// The stratum's rules as a standalone program (rebuild path).
    sub: Program,
}

/// Pre/post versions of the pinned predicate for a mixed expansion.
/// `Unneeded` when the predicate occurs at most once per body.
enum PinnedVersions<'a> {
    Unneeded,
    Both {
        pre: &'a Relation,
        post: &'a Relation,
    },
}

/// A stratified-Datalog fixpoint maintained across evaluations under ±
/// deltas of its base facts (see the module docs for the algorithm).
pub struct MaintainedFixpoint {
    program: Program,
    strata: Vec<StratumInfo>,
    /// The base (seed) facts as last applied: EDB relations plus any
    /// exogenously seeded IDB facts.
    base: Instance,
    /// The materialized fixpoint: always equals `program.eval(&base)`.
    total: Instance,
    /// Support counts per IDB predicate.
    counts: BTreeMap<RelName, CountedRelation>,
    initialized: bool,
    stats: FixpointStats,
}

impl MaintainedFixpoint {
    /// Prepare a maintained fixpoint for a program. Fails when the
    /// program is not stratifiable.
    pub fn new(program: &Program) -> Result<Self, EvalError> {
        let strata_preds = program.stratify()?;
        let rules = program.rules();
        let mut strata = Vec::with_capacity(strata_preds.len());
        for preds in strata_preds {
            let idxs: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| preds.contains(&r.head().pred))
                .map(|(i, _)| i)
                .collect();
            let mut recursive = false;
            let mut negated = BTreeSet::new();
            let mut reads = BTreeSet::new();
            let mut multi = BTreeSet::new();
            for &ri in &idxs {
                let mut occ: BTreeMap<&RelName, usize> = BTreeMap::new();
                for l in rules[ri].body() {
                    match l {
                        Literal::Pos(a) => {
                            *occ.entry(&a.pred).or_insert(0) += 1;
                            if preds.contains(&a.pred) {
                                recursive = true;
                            } else {
                                reads.insert(a.pred.clone());
                            }
                        }
                        Literal::Neg(a) => {
                            negated.insert(a.pred.clone());
                        }
                        Literal::Diseq(_, _) => {}
                    }
                }
                for (p, n) in occ {
                    if n >= 2 {
                        multi.insert(p.clone());
                    }
                }
            }
            let sub = Program::new(idxs.iter().map(|&i| rules[i].clone()).collect())?;
            strata.push(StratumInfo {
                preds,
                rules: idxs,
                recursive,
                negated,
                reads,
                multi,
                sub,
            });
        }
        Ok(MaintainedFixpoint {
            program: program.clone(),
            strata,
            base: Instance::empty(program.signature().clone()),
            total: Instance::empty(program.signature().clone()),
            initialized: false,
            counts: BTreeMap::new(),
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
        self.counts.clear();
        for p in self.program.idb_predicates() {
            let arity = self
                .program
                .signature()
                .arity(p)
                .expect("IDB predicates are declared in the signature");
            self.counts.insert(p.clone(), CountedRelation::empty(arity));
        }
        self.total = total;
        recount_into(
            self.program.rules(),
            &self.total,
            &self.base,
            self.program.idb_predicates(),
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
    /// pins down.
    pub fn apply(&mut self, delta: &InstanceDelta) -> Result<&Instance, EvalError> {
        if !self.initialized {
            return Err(EvalError::Other(
                "MaintainedFixpoint::apply before initialize".into(),
            ));
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
        let idb = self.program.idb_predicates().clone();
        // Set-filter the delta against the current base: only genuine
        // presence changes act. EDB changes commit to `total` up front
        // (strata reconstruct old versions as needed); IDB changes are
        // seed-support changes routed to the owning stratum.
        let mut changes: BTreeMap<RelName, Change> = BTreeMap::new();
        let mut seeds: BTreeMap<RelName, Change> = BTreeMap::new();
        for f in delta.removed() {
            if !self.base.remove_fact(f) {
                continue;
            }
            let slot = if idb.contains(f.rel()) {
                &mut seeds
            } else {
                self.total.remove_fact(f);
                &mut changes
            };
            slot.entry(f.rel().clone())
                .or_default()
                .removed
                .insert(f.tuple().clone());
        }
        for f in delta.added() {
            if self.base.contains_fact(f) {
                continue;
            }
            self.base.insert_fact(f.clone()).map_err(EvalError::Rel)?;
            if idb.contains(f.rel()) {
                seeds
                    .entry(f.rel().clone())
                    .or_default()
                    .added
                    .insert(f.tuple().clone());
            } else {
                self.total.insert_fact(f.clone()).map_err(EvalError::Rel)?;
                changes
                    .entry(f.rel().clone())
                    .or_default()
                    .added
                    .insert(f.tuple().clone());
            }
        }
        for si in 0..self.strata.len() {
            let info = &self.strata[si];
            let seed_changes: BTreeMap<RelName, Change> = info
                .preds
                .iter()
                .filter_map(|p| seeds.remove(p).map(|c| (p.clone(), c)))
                .filter(|(_, c)| !c.is_empty())
                .collect();
            let touched: Vec<RelName> = changes
                .iter()
                .filter(|(p, c)| {
                    !c.is_empty() && (info.reads.contains(*p) || info.negated.contains(*p))
                })
                .map(|(p, _)| p.clone())
                .collect();
            if touched.is_empty() && seed_changes.is_empty() {
                self.stats.strata_skipped += 1;
                rtx_obs::event!("query", "dred.skip", "stratum" => si);
                continue;
            }
            if touched.iter().any(|p| info.negated.contains(p)) {
                self.stats.strata_rebuilt += 1;
                rtx_obs::event!("query", "dred.rebuild", "stratum" => si);
                Self::rebuild_stratum(
                    &self.strata[si],
                    &self.base,
                    &mut self.total,
                    &mut self.counts,
                    &mut changes,
                )?;
                continue;
            }
            self.stats.strata_incremental += 1;
            let cascade0 = (self.stats.facts_retracted, self.stats.facts_rederived);
            let mut pass = StratumPass {
                program: &self.program,
                info: &self.strata[si],
                base: &self.base,
                total: &mut self.total,
                counts: &mut self.counts,
                stats: &mut self.stats,
                views: BTreeMap::new(),
                del_work: Worklist::new(),
                add_work: Worklist::new(),
                overdeleted: Worklist::new(),
                net: BTreeMap::new(),
            };
            pass.run(&changes, &seed_changes)?;
            let net = pass.net;
            if rtx_obs::tracing() {
                rtx_obs::event!(
                    "query",
                    "dred.cascade",
                    "stratum" => si,
                    "retracted" => self.stats.facts_retracted - cascade0.0,
                    "rederived" => self.stats.facts_rederived - cascade0.1,
                );
            }
            for (p, c) in net {
                let e = changes.entry(p).or_default();
                e.added.extend(c.added);
                e.removed.extend(c.removed);
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
    fn rebuild_stratum(
        info: &StratumInfo,
        base: &Instance,
        total: &mut Instance,
        counts: &mut BTreeMap<RelName, CountedRelation>,
        changes: &mut BTreeMap<RelName, Change>,
    ) -> Result<(), EvalError> {
        let mut old: BTreeMap<RelName, Relation> = BTreeMap::new();
        for p in &info.preds {
            let arity = total
                .schema()
                .arity(p)
                .ok_or_else(|| EvalError::Other(format!("stratum predicate `{p}` undeclared")))?;
            let rel = total
                .relation_ref(p)
                .cloned()
                .unwrap_or_else(|| Relation::empty(arity));
            total
                .set_relation(p.clone(), Relation::empty(arity))
                .map_err(EvalError::Rel)?;
            counts.insert(p.clone(), CountedRelation::empty(arity));
            old.insert(p.clone(), rel);
        }
        for f in base.facts() {
            if info.preds.contains(f.rel()) {
                total.insert_fact(f).map_err(EvalError::Rel)?;
            }
        }
        *total = info.sub.eval(total)?;
        recount_into(info.sub.rules(), total, base, &info.preds, counts)?;
        for (p, old_rel) in old {
            let arity = old_rel.arity();
            let empty = Relation::empty(arity);
            let new_rel = total.relation_ref(&p).unwrap_or(&empty);
            let d = new_rel.diff(&old_rel).map_err(EvalError::Rel)?;
            let (added, removed) = d.into_parts();
            if added.is_empty() && removed.is_empty() {
                continue;
            }
            let e = changes.entry(p).or_default();
            e.added.extend(added);
            e.removed.extend(removed);
        }
        Ok(())
    }
}

/// One incremental maintenance pass over a single stratum.
struct StratumPass<'a> {
    program: &'a Program,
    info: &'a StratumInfo,
    base: &'a Instance,
    total: &'a mut Instance,
    counts: &'a mut BTreeMap<RelName, CountedRelation>,
    stats: &'a mut FixpointStats,
    /// Sequential-state views of changed *input* predicates: start at
    /// their old value, converge to the (already committed) new value
    /// as elementary steps execute.
    views: BTreeMap<RelName, Relation>,
    del_work: Worklist,
    add_work: Worklist,
    /// DRed over-deleted facts awaiting re-derivation.
    overdeleted: Worklist,
    /// Net set-level change of the stratum's predicates.
    net: BTreeMap<RelName, Change>,
}

impl StratumPass<'_> {
    fn run(
        &mut self,
        changes: &BTreeMap<RelName, Change>,
        seed_changes: &BTreeMap<RelName, Change>,
    ) -> Result<(), EvalError> {
        // Sequential-state views for the changed inputs we read.
        let inputs: Vec<RelName> = changes
            .iter()
            .filter(|(p, c)| !c.is_empty() && self.info.reads.contains(*p))
            .map(|(p, _)| p.clone())
            .collect();
        for p in &inputs {
            let arity = self.total.schema().arity(p).ok_or_else(|| {
                EvalError::Other(format!("changed input predicate `{p}` undeclared"))
            })?;
            let mut old = self
                .total
                .relation_ref(p)
                .cloned()
                .unwrap_or_else(|| Relation::empty(arity));
            let c = &changes[p];
            for t in &c.added {
                old.remove(t);
            }
            for t in &c.removed {
                old.insert(t.clone()).map_err(EvalError::Rel)?;
            }
            self.views.insert(p.clone(), old);
        }

        // ---- deletion phase (seeds, then inputs, then cascades) ----
        for (p, c) in seed_changes {
            for t in &c.removed {
                self.lose_seed(p, t)?;
            }
        }
        for p in &inputs {
            let removed = &changes[p].removed;
            if removed.is_empty() {
                continue;
            }
            let heads = self.input_step(p, removed, StepDir::Remove)?;
            self.handle_lost(heads)?;
        }
        while let Some((p, ts)) = pop_first(&mut self.del_work) {
            let heads = self.stratum_step(&p, &ts, StepDir::Remove)?;
            self.handle_lost(heads)?;
        }

        // ---- DRed re-derivation (recursive strata only) ----
        self.rederive()?;

        // ---- insertion phase (inputs, seeds, then cascades) ----
        for p in &inputs {
            let added = &changes[p].added;
            if added.is_empty() {
                continue;
            }
            let heads = self.input_step(p, added, StepDir::Add)?;
            self.handle_gained(heads)?;
        }
        for (p, c) in seed_changes {
            for t in &c.added {
                self.gain_seed(p, t)?;
            }
        }
        while let Some((p, ts)) = pop_first(&mut self.add_work) {
            let heads = self.stratum_step(&p, &ts, StepDir::Add)?;
            self.handle_gained(heads)?;
        }
        self.views.clear();
        Ok(())
    }

    /// Execute one elementary step of a changed *input* predicate: run
    /// the mixed expansion against the sequential views, then commit
    /// the step to the view.
    fn input_step(
        &mut self,
        p: &RelName,
        tuples: &BTreeSet<Tuple>,
        dir: StepDir,
    ) -> Result<HeadCounts, EvalError> {
        let mut cur = self
            .views
            .remove(p)
            .ok_or_else(|| EvalError::Other(format!("no view for changed input `{p}`")))?;
        let pre_copy = self.info.multi.contains(p).then(|| cur.clone());
        let delta_rel =
            Relation::from_tuples(cur.arity(), tuples.iter().cloned()).map_err(EvalError::Rel)?;
        // Advance the view to the post-step state before the expansion:
        // `cur` plays "post", the copy plays "pre".
        match dir {
            StepDir::Remove => {
                for t in tuples {
                    cur.remove(t);
                }
            }
            StepDir::Add => {
                for t in tuples {
                    cur.insert(t.clone()).map_err(EvalError::Rel)?;
                }
            }
        }
        // `pre_copy` was taken before the mutation, so it is the
        // pre-step state in both directions; `cur` is the post state.
        let versions = match &pre_copy {
            Some(pre) => PinnedVersions::Both { pre, post: &cur },
            None => PinnedVersions::Unneeded,
        };
        let mut heads = HeadCounts::new();
        expansion(
            self.program,
            self.info,
            p,
            &delta_rel,
            &versions,
            &self.views,
            self.total,
            &mut heads,
        )?;
        self.views.insert(p.clone(), cur);
        Ok(heads)
    }

    /// Execute one elementary step of a *stratum* predicate (cascade),
    /// committing the step to `total` after the expansion.
    fn stratum_step(
        &mut self,
        p: &RelName,
        tuples: &BTreeSet<Tuple>,
        dir: StepDir,
    ) -> Result<HeadCounts, EvalError> {
        let arity = self
            .total
            .schema()
            .arity(p)
            .ok_or_else(|| EvalError::Other(format!("stratum predicate `{p}` undeclared")))?;
        let delta_rel =
            Relation::from_tuples(arity, tuples.iter().cloned()).map_err(EvalError::Rel)?;
        let empty = Relation::empty(arity);
        let cur = self.total.relation_ref(p).unwrap_or(&empty);
        // `cur` is the pre-step state (removals are still present,
        // additions not yet inserted).
        let post_copy = self.info.multi.contains(p).then(|| {
            let mut c = cur.clone();
            match dir {
                StepDir::Remove => {
                    for t in tuples {
                        c.remove(t);
                    }
                }
                StepDir::Add => {
                    for t in tuples {
                        c.insert(t.clone()).expect("tuple arity matches relation");
                    }
                }
            }
            c
        });
        let versions = match &post_copy {
            Some(post) => PinnedVersions::Both { pre: cur, post },
            None => PinnedVersions::Unneeded,
        };
        let mut heads = HeadCounts::new();
        expansion(
            self.program,
            self.info,
            p,
            &delta_rel,
            &versions,
            &self.views,
            self.total,
            &mut heads,
        )?;
        // Commit the step.
        match post_copy {
            Some(post) => self
                .total
                .set_relation(p.clone(), post)
                .map_err(EvalError::Rel)?,
            None => match dir {
                StepDir::Remove => {
                    for t in tuples {
                        self.total.remove_fact(&Fact::new(p.clone(), t.clone()));
                    }
                }
                StepDir::Add => {
                    for t in tuples {
                        self.total
                            .insert_fact(Fact::new(p.clone(), t.clone()))
                            .map_err(EvalError::Rel)?;
                    }
                }
            },
        }
        Ok(heads)
    }

    /// A stratum fact lost its seed support.
    fn lose_seed(&mut self, p: &RelName, t: &Tuple) -> Result<(), EvalError> {
        if self.info.recursive {
            self.overdelete(p, t)?;
        } else {
            let c = count_table(self.counts, p)?;
            if c.sub(t, 1).map_err(EvalError::Rel)? {
                self.retract(p, t);
            }
        }
        Ok(())
    }

    /// A stratum fact gained seed support.
    fn gain_seed(&mut self, p: &RelName, t: &Tuple) -> Result<(), EvalError> {
        let c = count_table(self.counts, p)?;
        if c.add(t.clone(), 1).map_err(EvalError::Rel)? {
            self.add_work
                .entry(p.clone())
                .or_default()
                .insert(t.clone());
            net_add(&mut self.net, p, t);
        }
        Ok(())
    }

    /// Process the lost firings of one elementary removal step.
    fn handle_lost(&mut self, heads: HeadCounts) -> Result<(), EvalError> {
        for (p, tuples) in heads {
            for (t, lost) in tuples {
                if self.info.recursive {
                    self.overdelete(&p, &t)?;
                } else {
                    let c = count_table(self.counts, &p)?;
                    if c.sub(&t, lost).map_err(EvalError::Rel)? {
                        self.retract(&p, &t);
                    }
                }
            }
        }
        Ok(())
    }

    /// Process the gained firings of one elementary addition step.
    fn handle_gained(&mut self, heads: HeadCounts) -> Result<(), EvalError> {
        for (p, tuples) in heads {
            for (t, gained) in tuples {
                let c = count_table(self.counts, &p)?;
                if c.add(t.clone(), gained).map_err(EvalError::Rel)? {
                    self.add_work
                        .entry(p.clone())
                        .or_default()
                        .insert(t.clone());
                    net_add(&mut self.net, &p, &t);
                }
            }
        }
        Ok(())
    }

    /// DRed over-deletion: a recursive-stratum fact that lost *any*
    /// derivation is retracted outright; re-derivation puts survivors
    /// back.
    fn overdelete(&mut self, p: &RelName, t: &Tuple) -> Result<(), EvalError> {
        let d = self.overdeleted.entry(p.clone()).or_default();
        if !d.insert(t.clone()) {
            return Ok(()); // already over-deleted this pass
        }
        count_table(self.counts, p)?.clear_tuple(t);
        self.retract(p, t);
        Ok(())
    }

    /// Record a retraction: enqueue the cascade batch and track the net
    /// change. (The `total` commit happens when the batch pops.)
    fn retract(&mut self, p: &RelName, t: &Tuple) {
        self.del_work
            .entry(p.clone())
            .or_default()
            .insert(t.clone());
        net_remove(&mut self.net, p, t);
        self.stats.facts_retracted += 1;
    }

    /// DRed re-derivation: repeatedly scan the over-deleted facts for
    /// ones still derivable from the surviving database (seed support
    /// plus a backward join), re-insert them with their exact recounted
    /// support, and propagate the gained firings — until a pass makes
    /// no progress. Whatever remains over-deleted is gone for good.
    fn rederive(&mut self) -> Result<(), EvalError> {
        if self.overdeleted.values().all(BTreeSet::is_empty) {
            return Ok(());
        }
        loop {
            let mut progress = false;
            let snapshot: Vec<(RelName, Vec<Tuple>)> = self
                .overdeleted
                .iter()
                .map(|(p, ts)| (p.clone(), ts.iter().cloned().collect()))
                .collect();
            for (p, ts) in snapshot {
                for t in ts {
                    let mut c =
                        u64::from(self.base.contains_fact(&Fact::new(p.clone(), t.clone())));
                    c += self.backward_count(&p, &t)?;
                    if c == 0 {
                        continue;
                    }
                    self.overdeleted
                        .get_mut(&p)
                        .expect("snapshot key present")
                        .remove(&t);
                    count_table(self.counts, &p)?
                        .add(t.clone(), c)
                        .map_err(EvalError::Rel)?;
                    self.total
                        .insert_fact(Fact::new(p.clone(), t.clone()))
                        .map_err(EvalError::Rel)?;
                    net_add(&mut self.net, &p, &t);
                    self.stats.facts_rederived += 1;
                    self.propagate_rederived(&p, &t)?;
                    progress = true;
                }
            }
            if !progress {
                return Ok(());
            }
        }
    }

    /// Count the firings deriving `(p, t)` over the current database by
    /// unifying each rule head with `t` and joining the body forward.
    fn backward_count(&self, p: &RelName, t: &Tuple) -> Result<u64, EvalError> {
        let mut n = 0u64;
        for &ri in &self.info.rules {
            let rule = &self.program.rules()[ri];
            if rule.head().pred != *p {
                continue;
            }
            let Some(env0) = rule.head().match_tuple(t, &Bindings::new()) else {
                continue;
            };
            let atoms = positive_atoms(rule);
            let mut envs = vec![env0];
            if !atoms.is_empty() {
                let mut srcs: Vec<&Relation> = Vec::with_capacity(atoms.len());
                let mut dead = false;
                for a in &atoms {
                    match self.source(&a.pred) {
                        Some(r) if !r.is_empty() => srcs.push(r),
                        _ => {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead {
                    continue;
                }
                for &k in &plan_order(&atoms, None) {
                    envs = atoms[k].join_indexed(srcs[k], &envs);
                    if envs.is_empty() {
                        break;
                    }
                }
            }
            for env in &envs {
                if passes_filters(rule, env, self.total)? {
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Propagate the firings gained by re-inserting `(p, t)`: pinned
    /// expansion with Δ = {t}. Heads still over-deleted are skipped —
    /// their own backward recount (which now sees `t`) will include
    /// these firings.
    fn propagate_rederived(&mut self, p: &RelName, t: &Tuple) -> Result<(), EvalError> {
        let arity = t.arity();
        let delta_rel = Relation::from_tuples(arity, [t.clone()]).map_err(EvalError::Rel)?;
        let empty = Relation::empty(arity);
        let cur = self.total.relation_ref(p).unwrap_or(&empty);
        // `t` is already committed: `cur` is the post-step state.
        let pre_copy = self.info.multi.contains(p).then(|| {
            let mut c = cur.clone();
            c.remove(t);
            c
        });
        let versions = match &pre_copy {
            Some(pre) => PinnedVersions::Both { pre, post: cur },
            None => PinnedVersions::Unneeded,
        };
        let mut heads = HeadCounts::new();
        expansion(
            self.program,
            self.info,
            p,
            &delta_rel,
            &versions,
            &self.views,
            self.total,
            &mut heads,
        )?;
        for (hp, tuples) in heads {
            for (ht, k) in tuples {
                if self.overdeleted.get(&hp).is_some_and(|d| d.contains(&ht)) {
                    continue;
                }
                let c = count_table(self.counts, &hp)?;
                if c.add(ht, k).map_err(EvalError::Rel)? {
                    return Err(EvalError::Other(
                        "DRed re-derivation produced a fact absent from the pre-deletion database"
                            .into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Source relation for a predicate: the sequential view when the
    /// predicate changed this pass, else the materialized database.
    fn source(&self, p: &RelName) -> Option<&Relation> {
        match self.views.get(p) {
            Some(v) => Some(v),
            None => self.total.relation_ref(p),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StepDir {
    Remove,
    Add,
}

fn pop_first(work: &mut Worklist) -> Option<(RelName, BTreeSet<Tuple>)> {
    let p = work.keys().next()?.clone();
    let ts = work.remove(&p)?;
    if ts.is_empty() {
        return pop_first(work);
    }
    Some((p, ts))
}

fn count_table<'a>(
    counts: &'a mut BTreeMap<RelName, CountedRelation>,
    p: &RelName,
) -> Result<&'a mut CountedRelation, EvalError> {
    counts
        .get_mut(p)
        .ok_or_else(|| EvalError::Other(format!("no count table for IDB `{p}`")))
}

fn net_add(net: &mut BTreeMap<RelName, Change>, p: &RelName, t: &Tuple) {
    let c = net.entry(p.clone()).or_default();
    if !c.removed.remove(t) {
        c.added.insert(t.clone());
    }
}

fn net_remove(net: &mut BTreeMap<RelName, Change>, p: &RelName, t: &Tuple) {
    let c = net.entry(p.clone()).or_default();
    if !c.added.remove(t) {
        c.removed.insert(t.clone());
    }
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

/// Accumulate the head-tuple counts of the surviving bindings.
fn collect_heads(
    rule: &Rule,
    envs: &[Bindings],
    neg_db: &Instance,
    out: &mut HeadCounts,
) -> Result<(), EvalError> {
    for env in envs {
        if !passes_filters(rule, env, neg_db)? {
            continue;
        }
        let t = rule
            .head()
            .instantiate(env)
            .ok_or_else(|| EvalError::Unsafe {
                reason: "head unbound".into(),
            })?;
        *out.entry(rule.head().pred.clone())
            .or_default()
            .entry(t)
            .or_insert(0) += 1;
    }
    Ok(())
}

/// Build support counts from scratch for the heads of `rules` over
/// `db`: every rule firing plus +1 seed support per base fact of
/// `preds`. The single source of truth for both initialization and
/// negation-triggered stratum rebuilds — the two paths must count
/// identically or the bookkeeping drifts into `NegativeSupport`.
fn recount_into(
    rules: &[Rule],
    db: &Instance,
    base: &Instance,
    preds: &BTreeSet<RelName>,
    counts: &mut BTreeMap<RelName, CountedRelation>,
) -> Result<(), EvalError> {
    let mut heads = HeadCounts::new();
    for r in rules {
        count_rule_firings(r, db, &mut heads)?;
    }
    for (p, tuples) in heads {
        let c = count_table(counts, &p)?;
        for (t, k) in tuples {
            c.add(t, k).map_err(EvalError::Rel)?;
        }
    }
    for f in base.facts() {
        if preds.contains(f.rel()) {
            count_table(counts, f.rel())?
                .add(f.tuple().clone(), 1)
                .map_err(EvalError::Rel)?;
        }
    }
    Ok(())
}

/// Count every firing of `rule` over `db` (initialization / rebuild).
fn count_rule_firings(rule: &Rule, db: &Instance, out: &mut HeadCounts) -> Result<(), EvalError> {
    let atoms = positive_atoms(rule);
    let mut envs = vec![Bindings::new()];
    if !atoms.is_empty() {
        let mut srcs: Vec<&Relation> = Vec::with_capacity(atoms.len());
        for a in &atoms {
            match db.relation_ref(&a.pred) {
                Some(r) if !r.is_empty() => srcs.push(r),
                _ => return Ok(()), // some body relation is empty
            }
        }
        if frame_count(rule, &atoms, &srcs, None, db, out)? {
            return Ok(());
        }
        for &k in &plan_order(&atoms, None) {
            envs = atoms[k].join_indexed(srcs[k], &envs);
            if envs.is_empty() {
                return Ok(());
            }
        }
    }
    collect_heads(rule, &envs, db, out)
}

/// Columnar fast path shared by [`expansion`] and
/// [`count_rule_firings`]: join the positive atoms directly over their
/// sorted runs with the [`Frame`] executor (probing run ranges, never
/// materializing a `Tuple` or `Bindings` per candidate), apply the
/// rule's negation / nonequality filters column-wise, and count the
/// surviving firings per head tuple. Returns `Ok(false)` when any
/// source (or negated relation) is not columnar — the caller falls
/// back to the generic `Bindings` path, which is exactly what the
/// `RTX_STORAGE=btree` oracle forces.
fn frame_count(
    rule: &Rule,
    atoms: &[&Atom],
    srcs: &[&Relation],
    pinned: Option<usize>,
    neg_db: &Instance,
    out: &mut HeadCounts,
) -> Result<bool, EvalError> {
    let mut runs: Vec<Arc<Run>> = Vec::with_capacity(srcs.len());
    for r in srcs {
        match r.columnar_run() {
            Some(run) => runs.push(run),
            None => return Ok(false),
        }
    }
    // Negated relations must be columnar too (a missing one filters
    // nothing, modeled as an empty run so unbound-variable errors stay
    // identical to the generic path).
    let mut negs: Vec<(&Atom, Arc<Run>)> = Vec::new();
    for l in rule.body() {
        if let Literal::Neg(a) = l {
            match neg_db.relation_ref(&a.pred) {
                None => negs.push((a, Arc::new(Run::empty(a.terms.len())))),
                Some(rel) => match rel.columnar_run() {
                    Some(run) => negs.push((a, run)),
                    None => return Ok(false),
                },
            }
        }
    }
    let mut frame = Frame::unit();
    for &k in &plan_order(atoms, pinned) {
        frame = frame.join_atom(atoms[k], &runs[k], true);
        if frame.is_empty() {
            return Ok(true);
        }
    }
    for l in rule.body() {
        if let Literal::Diseq(x, y) = l {
            frame.retain_diseq(x, y)?;
        }
    }
    for (a, run) in &negs {
        frame.retain_not_in(a, run)?;
    }
    if frame.is_empty() {
        return Ok(true);
    }
    let head = rule.head();
    let slot = out.entry(head.pred.clone()).or_default();
    for (t, k) in frame.project_counts(&head.terms)? {
        *slot.entry(t).or_insert(0) += k;
    }
    Ok(true)
}

/// The mixed semi-naive expansion for one elementary step of predicate
/// `pinned`: for every rule of the stratum and every occurrence `i` of
/// `pinned` in its body, join `new₁ … newᵢ₋₁ Δᵢ oldᵢ₊₁ … oldₙ` (other
/// predicates at their current sequential state) and count the
/// resulting firings per head tuple. Each gained/lost firing of the
/// step is counted exactly once.
#[allow(clippy::too_many_arguments)]
fn expansion(
    program: &Program,
    info: &StratumInfo,
    pinned: &RelName,
    delta_rel: &Relation,
    versions: &PinnedVersions<'_>,
    views: &BTreeMap<RelName, Relation>,
    total: &Instance,
    out: &mut HeadCounts,
) -> Result<(), EvalError> {
    if delta_rel.is_empty() {
        return Ok(());
    }
    for &ri in &info.rules {
        let rule = &program.rules()[ri];
        let atoms = positive_atoms(rule);
        let occs: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pred == *pinned)
            .map(|(i, _)| i)
            .collect();
        if occs.is_empty() {
            continue;
        }
        for &i in &occs {
            let mut srcs: Vec<&Relation> = Vec::with_capacity(atoms.len());
            let mut dead = false;
            for (j, a) in atoms.iter().enumerate() {
                let r: &Relation = if j == i {
                    delta_rel
                } else if a.pred == *pinned {
                    match versions {
                        PinnedVersions::Both { pre, post } => {
                            if j < i {
                                post
                            } else {
                                pre
                            }
                        }
                        PinnedVersions::Unneeded => {
                            return Err(EvalError::Other(format!(
                                "expansion of `{pinned}` needs pre/post versions"
                            )))
                        }
                    }
                } else if let Some(v) = views.get(&a.pred) {
                    v
                } else {
                    match total.relation_ref(&a.pred) {
                        Some(r) => r,
                        None => {
                            dead = true;
                            break;
                        }
                    }
                };
                if r.is_empty() {
                    dead = true;
                    break;
                }
                srcs.push(r);
            }
            if dead {
                continue;
            }
            if frame_count(rule, &atoms, &srcs, Some(i), total, out)? {
                continue;
            }
            let mut envs = vec![Bindings::new()];
            for &k in &plan_order(&atoms, Some(i)) {
                envs = atoms[k].join_indexed(srcs[k], &envs);
                if envs.is_empty() {
                    break;
                }
            }
            if envs.is_empty() {
                continue;
            }
            collect_heads(rule, &envs, total, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom;
    use rtx_relational::{fact, Schema};

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
