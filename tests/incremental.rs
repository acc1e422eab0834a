//! Property tests for the cross-tick incremental fixpoint engine:
//!
//! * `MaintainedFixpoint` ≡ from-scratch `Program::eval` on random
//!   stratified programs (negation across strata included) under random
//!   ± delta schedules, including retraction-heavy ones and IDB seed
//!   changes;
//! * the Dedalus delta store with `FixpointMode::Incremental` replays
//!   `FixpointMode::Scratch` (and the seed cloning store) tick for tick
//!   on programs whose carries drop facts every tick.

use proptest::prelude::*;
use rtx::dedalus::{
    DRule, DTime, DedalusOptions, DedalusProgram, DedalusRuntime, FixpointMode, StoreMode,
    TemporalFacts,
};
use rtx::query::incremental::MaintainedFixpoint;
use rtx::query::{atom, Atom, Literal, Program, Rule, Term, Var};
use rtx::relational::{fact, Fact, Instance, InstanceDelta, Schema};

/// A random stratified program over EDB {E/2, S/1} with a recursive
/// middle layer {T/2, U/1} (negation on EDB only) and a top layer
/// {V/1} that may negate the middle layer — so random runs exercise
/// recursion, intra-stratum interplay, *and* negation across strata.
fn random_layered_program(seed: u64, n_rules: usize) -> Program {
    use rand::{Rng, SeedableRng};
    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rules = Vec::new();
    for ri in 0..n_rules.max(2) {
        // Alternate layers so both are always populated.
        let top_layer = ri % 2 == 1;
        let n_body = rng.gen_range(1usize..=3);
        let mut body = Vec::new();
        let mut body_vars: Vec<Var> = Vec::new();
        for _ in 0..n_body {
            let choice = if top_layer {
                rng.gen_range(0usize..5)
            } else {
                rng.gen_range(0usize..4)
            };
            let (pred, arity) = match choice {
                0 => ("E", 2),
                1 => ("S", 1),
                2 => ("T", 2),
                3 => ("U", 1),
                _ => ("V", 1),
            };
            let terms: Vec<Term> = (0..arity)
                .map(|_| {
                    let v = VARS[rng.gen_range(0usize..VARS.len())];
                    body_vars.push(Var::new(v));
                    Term::var(v)
                })
                .collect();
            body.push(Literal::Pos(Atom::new(pred, terms)));
        }
        let pick = |rng: &mut rand::rngs::StdRng, vars: &[Var]| -> Var {
            vars[rng.gen_range(0usize..vars.len())]
        };
        if rng.gen_range(0usize..3) == 0 {
            // Bottom layer negates EDB; top layer may negate the middle
            // layer (strictly lower — stratifiable by construction).
            let v = pick(&mut rng, &body_vars);
            let neg = if top_layer && rng.gen_range(0usize..2) == 0 {
                Atom::new("U", vec![Term::Var(v)])
            } else {
                Atom::new("S", vec![Term::Var(v)])
            };
            body.push(Literal::Neg(neg));
        }
        if rng.gen_range(0usize..3) == 0 {
            let a = pick(&mut rng, &body_vars);
            let b = pick(&mut rng, &body_vars);
            body.push(Literal::Diseq(Term::Var(a), Term::Var(b)));
        }
        let (head_pred, head_arity) = if top_layer {
            ("V", 1)
        } else if rng.gen_range(0usize..2) == 0 {
            ("T", 2)
        } else {
            ("U", 1)
        };
        let head_terms: Vec<Term> = (0..head_arity)
            .map(|_| Term::Var(pick(&mut rng, &body_vars)))
            .collect();
        rules
            .push(Rule::new(Atom::new(head_pred, head_terms), body).expect("safe by construction"));
    }
    Program::new(rules).expect("consistent arities by construction")
}

fn full_schema() -> Schema {
    Schema::new()
        .with("E", 2)
        .with("S", 1)
        .with("T", 2)
        .with("U", 1)
        .with("V", 1)
}

/// Turn a ± schedule step into facts over the small shared domain.
fn step_facts(pairs: &[(u8, u8)], singles: &[u8], seeds: &[(u8, u8)]) -> Vec<Fact> {
    let mut out = Vec::new();
    for &(a, b) in pairs {
        out.push(fact!("E", a as i64, b as i64));
    }
    for &v in singles {
        out.push(fact!("S", v as i64));
    }
    for &(a, b) in seeds {
        out.push(fact!("T", a as i64, b as i64));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: a maintained fixpoint advanced by a
    /// random ± schedule always equals a from-scratch evaluation of
    /// the same base — outputs and bookkeeping alike. Removal steps
    /// draw from the same small domain as insertions, so schedules are
    /// genuinely retraction-heavy, and IDB seed facts come and go too.
    #[test]
    fn maintained_fixpoint_equals_scratch(
        prog_seed in 0u64..10_000,
        n_rules in 2usize..7,
        schedule in proptest::collection::vec(
            (proptest::collection::vec((0u8..5, 0u8..5), 0..5),
             proptest::collection::vec(0u8..5, 0..3),
             proptest::collection::vec((0u8..5, 0u8..5), 0..4),
             proptest::collection::vec(0u8..5, 0..2),
             proptest::collection::vec((0u8..5, 0u8..5), 0..2)),
            1..6)) {
        let p = random_layered_program(prog_seed, n_rules);
        let mut base = Instance::empty(full_schema());
        let mut fix = MaintainedFixpoint::new(&p).unwrap();
        fix.initialize(&base).unwrap();
        for (add_pairs, add_singles, rem_pairs, rem_singles, seeds) in &schedule {
            // `seeds` adds exogenous T facts (IDB seed support); the
            // final teardown below retracts them again.
            let added = step_facts(add_pairs, add_singles, seeds);
            let removed = step_facts(rem_pairs, rem_singles, &[]);
            let delta = InstanceDelta::from_parts(added, removed);
            base.apply_delta(&delta).unwrap();
            let maintained = fix.apply(&delta).unwrap();
            let scratch = p.eval(&base).unwrap();
            prop_assert_eq!(maintained, &scratch);
        }
        // Tear everything down: the maintained store must come back to
        // the fixpoint of the (possibly empty) remainder.
        let all: Vec<Fact> = base.facts().collect();
        let delta = InstanceDelta::from_parts(Vec::new(), all);
        base.apply_delta(&delta).unwrap();
        let maintained = fix.apply(&delta).unwrap();
        prop_assert_eq!(maintained, &p.eval(&base).unwrap());
    }
}

/// A Dedalus program exercising every timing class whose carry drops
/// facts every tick: a one-hot token walks the `n` graph (`at` is
/// *not* persisted — each tick retracts the old position), reachability
/// is recomputed deductively from the moving token, and a negation
/// stratum reports the unreached nodes.
fn token_program() -> DedalusProgram {
    DedalusProgram::new(vec![
        DRule::persist("n", 2),
        DRule::persist("e", 2),
        DRule::persist("s", 1),
        DRule::persist("got", 1),
        // inductive, non-persisting: the carry retracts the old `at`
        DRule::new(atom!("at"; @"Y"), DTime::Next)
            .when(atom!("at"; @"X"))
            .when(atom!("n"; @"X", @"Y")),
        // deductive stratum 0: reach from the token over e-edges
        DRule::new(atom!("reach"; @"X"), DTime::Same).when(atom!("at"; @"X")),
        DRule::new(atom!("reach"; @"Y"), DTime::Same)
            .when(atom!("reach"; @"X"))
            .when(atom!("e"; @"X", @"Y")),
        // deductive stratum 1: negation across strata
        DRule::new(atom!("unreached"; @"X"), DTime::Same)
            .when(atom!("s"; @"X"))
            .unless(atom!("reach"; @"X")),
        // async + record
        DRule::new(atom!("m"; @"X"), DTime::Async).when(atom!("at"; @"X")),
        DRule::new(atom!("got"; @"X"), DTime::Same).when(atom!("m"; @"X")),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Incremental ≡ scratch through the whole Dedalus loop — traces,
    /// convergence tick, and the cloning-store oracle — on random
    /// token graphs, edge sets, arrival schedules and delivery seeds.
    /// The token carry retracts facts every tick, so this is the
    /// retraction-heavy schedule of the DRed path.
    #[test]
    fn dedalus_incremental_fixpoint_equals_scratch(
        token_edges in proptest::collection::vec((0u8..4, 0u8..4), 1..6),
        e_edges in proptest::collection::vec((0u8..4, 0u8..4), 0..6),
        nodes in proptest::collection::btree_set(0u8..4, 1..4),
        spread in 0u64..3,
        run_seed in 0u64..500) {
        let p = token_program();
        let mut edb = TemporalFacts::new();
        for (i, &(a, b)) in token_edges.iter().enumerate() {
            edb.insert((i as u64) % (spread + 1), fact!("n", a as i64, b as i64));
        }
        for (i, &(a, b)) in e_edges.iter().enumerate() {
            edb.insert((i as u64) % (spread + 1), fact!("e", a as i64, b as i64));
        }
        for &v in &nodes {
            edb.insert(0, fact!("s", v as i64));
        }
        edb.insert(0, fact!("at", 0));
        let opts = DedalusOptions { max_ticks: 40, async_max_delay: 2, seed: run_seed, async_faults: None };
        let rt = DedalusRuntime::new(&p).unwrap();
        let inc = rt
            .run_with_fixpoint(&edb, &opts, StoreMode::Delta, FixpointMode::Incremental)
            .unwrap();
        let scr = rt
            .run_with_fixpoint(&edb, &opts, StoreMode::Delta, FixpointMode::Scratch)
            .unwrap();
        prop_assert_eq!(inc.converged_at, scr.converged_at);
        prop_assert_eq!(&inc.ticks, &scr.ticks);
        let cloning = rt.run_with(&edb, &opts, StoreMode::Cloning).unwrap();
        prop_assert_eq!(inc.converged_at, cloning.converged_at);
        prop_assert_eq!(&inc.ticks, &cloning.ticks);
    }
}

/// The DRed unit case at workspace level: over-deletion must re-derive
/// alternately supported facts, and cyclic support must not keep facts
/// alive (see `rtx_query::incremental` for the engine-level tests).
#[test]
fn over_deletion_rederivation_is_handled() {
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    let sch = Schema::new().with("E", 2).with("T", 2);
    let mut base = Instance::empty(sch);
    for (a, b) in [(1i64, 2i64), (2, 3), (3, 1), (1, 3)] {
        base.insert_fact(fact!("E", a, b)).unwrap();
    }
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    // Break the cycle: everything reachable-only-through-(3,1) must go,
    // while T(1,3) (doubly derivable) survives via the direct edge.
    let delta = InstanceDelta::from_parts(Vec::new(), vec![fact!("E", 3, 1)]);
    base.apply_delta(&delta).unwrap();
    fix.apply(&delta).unwrap();
    assert_eq!(fix.current(), &p.eval(&base).unwrap());
    assert!(fix.current().contains_fact(&fact!("T", 1, 3)));
    assert!(!fix.current().contains_fact(&fact!("T", 3, 3)));
    assert!(fix.stats().facts_rederived > 0, "{:?}", fix.stats());
    assert!(fix.stats().facts_retracted > 0);
}

/// A delta the fixpoint rejects must leave it exactly as it was: every
/// fact is validated before anything changes, so removing `e(1,2)`
/// alongside an undeclared `zz(1)` neither drops the edge nor strands
/// the `t` facts it derived, and the next valid delta still lands on
/// the scratch fixpoint.
#[test]
fn rejected_delta_leaves_the_fixpoint_untouched() {
    let p =
        rtx::query::parser::parse_program("t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).").unwrap();
    let mut base = Instance::from_facts(
        Schema::new().with("e", 2).with("t", 2),
        vec![fact!("e", 1, 2), fact!("e", 2, 3)],
    )
    .unwrap();
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    let before = fix.current().clone();
    let bad = InstanceDelta::from_parts(vec![fact!("zz", 1)], vec![fact!("e", 1, 2)]);
    assert!(fix.apply(&bad).is_err());
    assert_eq!(fix.current(), &before);
    assert_eq!(fix.current(), &p.eval(&base).unwrap());
    // A wrong arity is rejected the same way.
    let bad_arity = InstanceDelta::from_parts(vec![fact!("e", 1)], vec![fact!("e", 2, 3)]);
    assert!(fix.apply(&bad_arity).is_err());
    assert_eq!(fix.current(), &before);
    let good = InstanceDelta::from_parts(vec![fact!("e", 3, 4)], vec![fact!("e", 1, 2)]);
    base.apply_delta(&good).unwrap();
    fix.apply(&good).unwrap();
    assert_eq!(fix.current(), &p.eval(&base).unwrap());
}

/// DRed on a reverse chain `e(k+1, k)` whose head `r(n)` has a second
/// derivation through `r(n+1)`: retracting `s(n)` over-deletes the
/// whole chain, and re-derivation must put it back with one backward
/// recount per over-deleted fact — not one rescan of the over-deleted
/// set per link, which made this delta cubic in `n`.
#[test]
fn reverse_chain_rederivation_recounts_each_fact_once() {
    let n: i64 = 2000;
    let p = rtx::query::parser::parse_program("r(X) :- s(X). r(Y) :- r(X), e(X,Y).").unwrap();
    let mut facts: Vec<Fact> = (0..n).map(|k| fact!("e", k + 1, k)).collect();
    facts.extend([fact!("e", n + 1, n), fact!("s", n), fact!("s", n + 1)]);
    let mut base =
        Instance::from_facts(Schema::new().with("e", 2).with("s", 1).with("r", 1), facts).unwrap();
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    let delta = InstanceDelta::from_parts(Vec::new(), vec![fact!("s", n)]);
    base.apply_delta(&delta).unwrap();
    fix.apply(&delta).unwrap();
    assert_eq!(fix.current(), &p.eval(&base).unwrap());
    let st = fix.stats();
    assert!(
        st.backward_counts <= 2 * n as u64,
        "{} backward recounts for a chain of {n}",
        st.backward_counts
    );
    assert_eq!(st.facts_rederived, n as u64 + 1, "{st:?}");
}

/// The exact work counters of a magic rebind on a 256-edge chain: the
/// old answer is over-deleted in a constant number of batch steps, and
/// the new one is derived one elementary step per fact — so the steps
/// of a rebind are bounded by the two answers' sizes, with no
/// wall-clock noise in the bound.
#[test]
fn magic_rebind_steps_are_bounded_by_the_answers() {
    let n: i64 = 256;
    let p =
        rtx::query::parser::parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).").unwrap();
    let db = Instance::from_facts(
        Schema::new().with("e", 2),
        (0..n).map(|k| fact!("e", k, k + 1)).collect::<Vec<_>>(),
    )
    .unwrap();
    let lookup = |c: i64| Atom::new("p", vec![Term::cons(c), Term::var("Y")]);
    let mut q = p.for_query(&lookup(100)).unwrap();
    assert!(q.is_magic());
    let mut fix = q.maintained(&db).unwrap();
    let mut old = q.answer_from(fix.current()).unwrap().len() as u64;
    for c in [7, 200, 0, 255, 128, 31] {
        let (next, delta) = q.rebind(&lookup(c)).unwrap();
        let before = fix.stats().clone();
        fix.apply(&delta).unwrap();
        let new = next.answer_from(fix.current()).unwrap().len() as u64;
        assert_eq!(new, (n - c) as u64);
        let steps = fix.stats().steps - before.steps;
        assert!(
            steps <= old + new + 4,
            "rebind to {c}: {steps} steps for answers of {old} and {new}"
        );
        assert!(steps >= new, "one step per derived fact at least");
        q = next;
        old = new;
    }
}

/// The Theorem 18 palindrome machine compiled to Dedalus: the
/// incremental deductive fixpoint must replay the scratch one tick for
/// tick, on palindromes and near-palindromes of every length 4–10.
/// (In-process replacement for pinning the whole suite to
/// `RTX_DEDALUS_FIXPOINT=scratch`.)
#[test]
fn compiled_turing_machine_traces_match_scratch_fixpoint() {
    use rtx::dedalus::compile_tm;
    use rtx::machine::{encode_word, machines};
    let machine = machines::palindrome();
    let program = compile_tm(&machine).unwrap();
    let rt = DedalusRuntime::new(&program).unwrap();
    let alphabet: Vec<_> = machine.input_alphabet().iter().copied().collect();
    let opts = DedalusOptions {
        max_ticks: 5000,
        async_max_delay: 1,
        seed: 7,
        async_faults: None,
    };
    for len in 4..=10usize {
        let pal: String = (0..len)
            .map(|i| {
                if i.min(len - 1 - i) % 2 == 0 {
                    'a'
                } else {
                    'b'
                }
            })
            .collect();
        let mut near: Vec<char> = pal.chars().collect();
        near[len - 1] = if near[0] == 'a' { 'b' } else { 'a' };
        for word in [pal, near.into_iter().collect::<String>()] {
            let edb =
                TemporalFacts::all_at_zero(&encode_word(&word, alphabet.iter().copied()).unwrap());
            let inc = rt
                .run_with_fixpoint(&edb, &opts, StoreMode::Delta, FixpointMode::Incremental)
                .unwrap();
            let scr = rt
                .run_with_fixpoint(&edb, &opts, StoreMode::Delta, FixpointMode::Scratch)
                .unwrap();
            assert!(inc.converged(), "{word} did not converge");
            assert_eq!(inc.converged_at, scr.converged_at, "{word}");
            assert_eq!(inc.ticks, scr.ticks, "{word}");
            let accepted = machine.run(&word, 1_000_000).unwrap().accepted();
            assert_eq!(inc.holds("Accepted"), accepted, "{word}");
        }
    }
}
