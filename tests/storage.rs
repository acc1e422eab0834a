//! Property tests for the storage engines: the adaptive engine, in
//! both its small and promoted regimes, against the B-tree oracle
//! (`RTX_STORAGE=btree`), under the schedules that exercise every
//! adoption path — random interleaved inserts and deletes,
//! `diff`/`apply_delta` round trips, set algebra, random stratified
//! programs under naive and semi-naive evaluation, and the incremental
//! fixpoint — plus directed tests pinning the adaptive engine's
//! promotion boundary and hysteresis. Plus determinism of the
//! process-wide value interner, which both engines share.
//!
//! Every test here builds **all** representations explicitly (see
//! `support::Leg`), so the suite is oracle-complete no matter what
//! `RTX_STORAGE` the ambient process runs under.

mod support;

use proptest::prelude::*;
use rtx::query::{EvalStrategy, MaintainedFixpoint};
use rtx::relational::{
    adaptive_promote_len, adaptive_reentry_len, fact, Fact, Instance, Relation, Run, Schema,
    StorageMode, Tuple, Value, Vid,
};
use support::{Leg, ALL_LEGS};

fn tuple2(a: u8, b: u8) -> Tuple {
    vec![Value::Int(a as i64), Value::Int(b as i64)].into()
}

/// One mutation in a randomized schedule: `(insert?, a, b)` — insert
/// `(a, b)` when the flag is set, otherwise remove it. (The compat
/// proptest has no mapping combinators, so schedules stay raw tuples.)
fn op_strategy() -> (
    proptest::strategy::Any<bool>,
    std::ops::Range<u8>,
    std::ops::Range<u8>,
) {
    (any::<bool>(), 0u8..12, 0u8..12)
}

/// The pool of always-safe stratified rules a random program draws
/// from: stratum 1 is positive (and optionally recursive) over the EDB
/// `E`, stratum 2 negates stratum-1 predicates. Index 0 is mandatory so
/// `P` is never undefined under negation.
const RULE_POOL: [&str; 8] = [
    "p(X,Y) :- e(X,Y).",
    "p(X,Z) :- p(X,Y), e(Y,Z).",
    "q(X) :- e(X,Y).",
    "q(Y) :- e(X,Y).",
    "r(X,Y) :- e(X,Y), !p(Y,X).",
    "s(X) :- q(X), !p(X,X).",
    "s(Y) :- e(X,Y), X != Y.",
    "w(X,Y) :- e(X,Y), q(Y), !s(X).",
];

fn random_program(picks: &[bool]) -> String {
    let mut src = String::from(RULE_POOL[0]);
    for (i, rule) in RULE_POOL.iter().enumerate().skip(1) {
        if *picks.get(i - 1).unwrap_or(&false) {
            src.push(' ');
            src.push_str(rule);
        }
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Small, promoted, and B-tree relations agree tuple-for-tuple
    /// under any interleaving of inserts and deletes — the schedule
    /// that forces tail accumulation, run adoption, and tombstone
    /// handling in the promoted regime, and tombstone revival in the
    /// small log.
    #[test]
    fn columnar_matches_btree_under_mutation_schedules(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let mut rels = ALL_LEGS.map(|leg| leg.relation(2, []));
        for &(ins, a, b) in &ops {
            let t = tuple2(a, b);
            let novel = rels
                .iter_mut()
                .map(|r| if ins { r.insert(t.clone()).unwrap() } else { r.remove(&t) })
                .collect::<Vec<_>>();
            prop_assert!(novel.iter().all(|&n| n == novel[2]), "novelty must agree: {:?}", novel);
            prop_assert!(rels.iter().all(|r| r.len() == rels[2].len()));
        }
        prop_assert!(!rels[1].in_small_regime(), "point mutations never demote");
        // Cross-mode equality is content equality, in the sorted order.
        for r in &rels {
            for other in &rels {
                prop_assert_eq!(r, other);
                prop_assert!(r.iter().eq(other.iter()));
            }
            for a in 0..12u8 {
                for b in 0..12u8 {
                    prop_assert_eq!(r.contains(&tuple2(a, b)), rels[2].contains(&tuple2(a, b)));
                }
            }
        }
    }

    /// `diff` and `apply_delta` round-trip across engines: a delta
    /// computed between B-tree relations moves an adaptive relation (in
    /// either regime) to the same contents, and vice versa.
    #[test]
    fn deltas_transport_across_engines(
        from in proptest::collection::vec((0u8..10, 0u8..10), 0..25),
        to in proptest::collection::vec((0u8..10, 0u8..10), 0..25),
    ) {
        let bt_from = Leg::Btree.pairs(&from);
        let bt_to = Leg::Btree.pairs(&to);
        let delta_bt = bt_to.diff(&bt_from).unwrap();
        for leg in ALL_LEGS {
            let m_from = leg.pairs(&from);
            let m_to = leg.pairs(&to);
            let delta_m = m_to.diff(&m_from).unwrap();
            prop_assert_eq!(delta_bt.added(), delta_m.added());
            prop_assert_eq!(delta_bt.removed(), delta_m.removed());

            // A delta computed on the oracle transports this engine,
            // and this engine's delta transports the oracle.
            let mut r = m_from.clone();
            r.apply_delta(&delta_bt).unwrap();
            prop_assert_eq!(&r, &bt_to);
            let mut bt = bt_from.clone();
            bt.apply_delta(&delta_m).unwrap();
            prop_assert_eq!(&bt, &m_to);
        }
    }

    /// The set algebra (union / intersect / difference / subset) gives
    /// identical answers whichever engine holds either operand.
    #[test]
    fn set_algebra_agrees_across_engines(
        xs in proptest::collection::vec((0u8..8, 0u8..8), 0..20),
        ys in proptest::collection::vec((0u8..8, 0u8..8), 0..20),
    ) {
        let (bx, by) = (Leg::Btree.pairs(&xs), Leg::Btree.pairs(&ys));
        for leg in ALL_LEGS {
            let (mx, my) = (leg.pairs(&xs), leg.pairs(&ys));
            prop_assert_eq!(mx.union(&my).unwrap(), bx.union(&by).unwrap());
            prop_assert_eq!(mx.intersect(&my).unwrap(), bx.intersect(&by).unwrap());
            prop_assert_eq!(mx.difference(&my).unwrap(), bx.difference(&by).unwrap());
            // Mixed-mode operands hit the cross-engine paths.
            prop_assert_eq!(mx.union(&by).unwrap(), bx.union(&my).unwrap());
            prop_assert_eq!(mx.intersect(&by).unwrap(), bx.intersect(&my).unwrap());
            prop_assert_eq!(mx.difference(&by).unwrap(), bx.difference(&my).unwrap());
            prop_assert_eq!(mx.is_subset(&by), bx.is_subset(&my));
        }
    }

    /// Random stratified programs (negation, disequality, recursion)
    /// evaluate identically under naive and semi-naive strategies on
    /// all three storage legs — six evaluations, one answer.
    #[test]
    fn stratified_evaluation_is_engine_independent(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        picks in proptest::collection::vec(any::<bool>(), RULE_POOL.len() - 1),
    ) {
        let program = rtx::query::parser::parse_program(&random_program(&picks)).unwrap();
        let mut outs: Vec<Instance> = Vec::new();
        for leg in ALL_LEGS {
            let db = leg.edges(&pairs);
            for strategy in [EvalStrategy::Naive, EvalStrategy::SemiNaive] {
                outs.push(program.eval_with(&db, strategy).unwrap());
            }
        }
        for other in &outs[1..] {
            prop_assert_eq!(&outs[0], other);
        }
    }

    /// The incremental fixpoint over a random schedule of EDB deltas
    /// agrees with from-scratch evaluation, whichever of the three
    /// storage legs holds the base instance — the counting/DRed path
    /// against the oracle.
    #[test]
    fn incremental_fixpoint_matches_scratch_on_both_engines(
        base in proptest::collection::vec((0u8..6, 0u8..6), 0..10),
        ticks in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..6), 0..5),
        picks in proptest::collection::vec(any::<bool>(), RULE_POOL.len() - 1),
    ) {
        let program = rtx::query::parser::parse_program(&random_program(&picks)).unwrap();
        for leg in ALL_LEGS {
            let mut db = leg.edges(&base);
            let mut maintained = MaintainedFixpoint::new(&program).unwrap();
            maintained.initialize(&db).unwrap();
            for tick in &ticks {
                let mut next = db.clone();
                for op in tick {
                    let (ins, a, b) = *op;
                    if ins {
                        next.insert_fact(fact!("e", a as i64, b as i64)).unwrap();
                    } else {
                        next.remove_fact(&fact!("e", a as i64, b as i64));
                    }
                }
                let delta = next.diff(&db);
                db = next;
                let incr = maintained.apply(&delta).unwrap().clone();
                let scratch = program.eval(&db).unwrap();
                prop_assert_eq!(incr, scratch);
            }
        }
    }

    /// Interner determinism: interning the same value always yields the
    /// same id, the id round-trips to the value, and id-level ordering
    /// agrees with value ordering.
    #[test]
    fn interner_is_deterministic_and_order_faithful(
        ints in proptest::collection::vec(-1000i64..1000, 0..40),
        syms in proptest::collection::vec(0u16..40, 0..20),
    ) {
        let mut values: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        values.extend(syms.iter().map(|n| Value::sym(format!("storage-sym-{n}").as_str())));
        for v in &values {
            let id = Vid::from_value(v);
            prop_assert_eq!(id, Vid::from_value(v), "same value, same id");
            prop_assert_eq!(&id.value(), v, "ids round-trip");
            prop_assert_eq!(id.cmp_value(v), std::cmp::Ordering::Equal);
        }
        for a in &values {
            for b in &values {
                let (ia, ib) = (Vid::from_value(a), Vid::from_value(b));
                prop_assert_eq!(
                    ia.cmp_structural(ib), a.cmp(b),
                    "structural id order mirrors value order"
                );
                if ia.raw_ordered() && ib.raw_ordered() {
                    prop_assert_eq!(
                        ia.raw().cmp(&ib.raw()), a.cmp(b),
                        "inline ids compare by raw bits"
                    );
                }
            }
        }
    }
}

/// Interning is deterministic across threads racing on the same fresh
/// symbols: every thread resolves each name to the same id.
#[test]
fn interner_agrees_across_racing_threads() {
    let names: Vec<String> = (0..64).map(|i| format!("storage-race-{i}")).collect();
    let ids: Vec<Vec<Vid>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = &names;
                scope.spawn(move || {
                    names
                        .iter()
                        .map(|n| Vid::from_value(&Value::sym(n.as_str())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &ids[1..] {
        assert_eq!(&ids[0], other);
    }
    for (n, id) in names.iter().zip(&ids[0]) {
        assert_eq!(id.value(), Value::sym(n.as_str()));
    }
}

/// Instances built from the same fact stream are equal whatever engine
/// backs them, and `Instance::diff`/`apply_delta` transport across
/// engines at the instance level too.
#[test]
fn instance_deltas_transport_across_engines() {
    let schema = Schema::new().with("E", 2).with("S", 1);
    let facts: Vec<Fact> = vec![
        fact!("E", 1, 2),
        fact!("E", 2, 3),
        fact!("S", 7),
        fact!("E", 1, 2), // duplicate: second insert is a no-op
    ];
    let bt = Leg::Btree.instance(schema.clone(), facts.clone());
    for leg in ALL_LEGS {
        let inst = leg.instance(schema.clone(), facts.clone());
        assert_eq!(inst, bt);
        assert_eq!(inst.fact_count(), 3);

        let mut target = leg.instance(schema.clone(), vec![fact!("E", 9, 9), fact!("S", 7)]);
        let delta = bt.diff(&target);
        target.apply_delta(&delta).unwrap();
        assert_eq!(target, bt);
    }
}

/// Directed promotion-boundary test: inserting to N−1 stays in the
/// small regime, the Nth insert promotes (exactly once), and N+1
/// keeps the promoted representation — all value-equal to the oracle
/// at every boundary.
#[test]
fn adaptive_promotion_boundary_pins_threshold() {
    let n = adaptive_promote_len();
    let mut ad = Relation::empty_in(StorageMode::Adaptive, 1);
    let mut bt = Relation::empty_in(StorageMode::Btree, 1);
    for i in 0..(n + 1) as i64 {
        ad.insert(vec![Value::Int(i)].into()).unwrap();
        bt.insert(vec![Value::Int(i)].into()).unwrap();
        let len = (i + 1) as usize;
        if len < n {
            assert!(ad.in_small_regime(), "below N stays small (len {len})");
            assert_eq!(ad.storage_stats().promotions, 0);
        } else {
            assert!(
                !ad.in_small_regime(),
                "N and beyond are promoted (len {len})"
            );
            assert_eq!(ad.storage_stats().promotions, 1, "promotion happens once");
        }
        assert_eq!(ad, bt);
    }
    assert_eq!(ad.mode(), StorageMode::Adaptive);
}

/// Directed hysteresis test: churn (scan + insert/remove cycles) at
/// the re-entry floor never promotes, while the same churn one above
/// the floor promotes exactly once and never demotes back on point
/// removals.
#[test]
fn adaptive_churn_at_hysteresis_edge_does_not_flap() {
    let floor = adaptive_reentry_len();
    let at_floor = Relation::from_tuples_in(
        StorageMode::Adaptive,
        1,
        (0..floor as i64).map(|i| vec![Value::Int(i)].into()),
    )
    .unwrap();
    // Grown by point inserts so it is genuinely in the small regime
    // one above the floor (a bulk construction above the floor would
    // start out promoted).
    let mut above = Relation::empty_in(StorageMode::Adaptive, 1);
    for i in 0..=(floor as i64) {
        above.insert(vec![Value::Int(i)].into()).unwrap();
    }
    assert!(above.in_small_regime());
    let churn = |mut r: Relation| {
        for _ in 0..16 {
            let _ = r.iter().count(); // order demand
            assert!(r.remove(&vec![Value::Int(0)].into()));
            assert!(r.insert(vec![Value::Int(0)].into()).unwrap());
        }
        r
    };
    let at_floor = churn(at_floor);
    assert!(at_floor.in_small_regime(), "churn at the floor stays small");
    assert_eq!(at_floor.storage_stats().promotions, 0);
    let above = churn(above);
    assert!(!above.in_small_regime(), "churn above the floor promotes");
    assert_eq!(above.storage_stats().promotions, 1, "…exactly once");
}

/// Directed clear-and-regrow test at the instance level: a relation
/// grown past the promotion threshold, then bulk-replaced by a tiny
/// value through `set_relation`, re-enters the small regime — and can
/// grow right back up, re-promoting.
#[test]
fn adaptive_clear_and_regrow_reenters_small_regime() {
    let n = adaptive_promote_len();
    let schema = Schema::new().with("E", 2);
    let mut inst = Instance::empty_in(StorageMode::Adaptive, schema);
    for i in 0..n as i64 {
        inst.insert_fact(fact!("E", i, i)).unwrap();
    }
    let name = "E".into();
    let big = inst.relation(&name).unwrap();
    assert!(!big.in_small_regime(), "grown past N: promoted");

    // Bulk replace with a tiny relation: re-enters the small regime.
    let tiny = Relation::from_tuples_in(StorageMode::Adaptive, 2, vec![tuple2(1, 1)]).unwrap();
    inst.set_relation("E", tiny).unwrap();
    let small = inst.relation(&name).unwrap();
    assert_eq!(small.len(), 1);
    assert!(
        small.in_small_regime(),
        "bulk rebuild re-enters the small regime"
    );

    // …and a query output (a run, landing through `from_run`) at or
    // below the floor enters in the small regime too.
    let as_output = Relation::from_run(Run::from_sorted(2, [tuple2(2, 2)].iter()));
    inst.set_relation("E", as_output).unwrap();
    let landed = inst.relation(&name).unwrap();
    assert_eq!(landed.mode(), StorageMode::Adaptive);
    assert!(landed.in_small_regime());

    // Regrow: promotes again.
    for i in 0..n as i64 {
        inst.insert_fact(fact!("E", i, -i)).unwrap();
    }
    let regrown = inst.relation(&name).unwrap();
    assert!(!regrown.in_small_regime(), "regrowth re-promotes");
    assert_eq!(regrown.mode(), StorageMode::Adaptive);
}
