//! Differential test of `Transducer::step` against a literal reference
//! of the paper's local transition (Section 2.1).
//!
//! The reference builds `I' = I ∪ I_rcv` fact by fact into a
//! `BTreeSet`, evaluates the transducer's queries over it, and applies
//! the update formula
//!
//! ```text
//! J(R) = (Q_ins(I') \ Q_del(I'))
//!      ∪ (Q_ins(I') ∩ Q_del(I') ∩ I(R))
//!      ∪ (I(R) \ (Q_ins(I') ∪ Q_del(I')))
//! ```
//!
//! with `BTreeSet` operations, exactly as written. `step` must agree with
//! it on the new state, the sent messages and the output, report
//! `memory_changed` exactly when the state changed, and leave the old
//! state untouched (it shares relations with the new one).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx::calm::constructions::flood::{flood_transducer, FloodMode};
use rtx::calm::examples::ex3_transitive_closure;
use rtx::query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
use rtx::relational::{Fact, Instance, RelName, Schema, Tuple, Value};
use rtx::transducer::{Transducer, TransducerBuilder};
use std::collections::BTreeSet;
use std::sync::Arc;

type Facts = BTreeSet<Fact>;

/// What one local transition produces, as plain sets.
#[derive(Debug, PartialEq)]
struct Transition {
    new_state: Facts,
    sent: Facts,
    output: BTreeSet<Tuple>,
}

fn tuples_of(facts: &Facts, rel: &RelName) -> BTreeSet<Tuple> {
    facts
        .iter()
        .filter(|f| f.rel() == rel)
        .map(|f| f.tuple().clone())
        .collect()
}

fn eval(q: &QueryRef, on: &Instance) -> BTreeSet<Tuple> {
    q.eval(on).unwrap().iter().cloned().collect()
}

/// The paper's local transition, written literally.
fn reference_step(t: &Transducer, state: &Instance, received: &Instance) -> Transition {
    let i: Facts = state.facts().collect();
    let mut i_prime = i.clone();
    for f in received.facts() {
        i_prime.insert(f);
    }
    let combined = Instance::from_facts(t.schema().combined_schema(), i_prime).unwrap();

    let mut sent = Facts::new();
    for (rel, _) in t.schema().message().iter() {
        for tuple in eval(t.snd_query(rel).unwrap(), &combined) {
            sent.insert(Fact::new(rel.clone(), tuple));
        }
    }
    let output = eval(t.out_query(), &combined);

    let memory = t.schema().memory();
    let mut new_state: Facts = i
        .iter()
        .filter(|f| !memory.contains(f.rel()))
        .cloned()
        .collect();
    for (rel, _) in memory.iter() {
        let ins = eval(t.ins_query(rel).unwrap(), &combined);
        let del = eval(t.del_query(rel).unwrap(), &combined);
        let cur = tuples_of(&i, rel);
        let ins_not_del: BTreeSet<Tuple> = ins.difference(&del).cloned().collect();
        let conflicted: BTreeSet<Tuple> = ins
            .intersection(&del)
            .filter(|x| cur.contains(*x))
            .cloned()
            .collect();
        let mentioned: BTreeSet<Tuple> = ins.union(&del).cloned().collect();
        let untouched: BTreeSet<Tuple> = cur.difference(&mentioned).cloned().collect();
        for tuple in ins_not_del.into_iter().chain(conflicted).chain(untouched) {
            new_state.insert(Fact::new(rel.clone(), tuple));
        }
    }
    Transition {
        new_state,
        sent,
        output,
    }
}

fn cq(rule: rtx::query::CqRule) -> QueryRef {
    Arc::new(UcqQuery::single(rule))
}

fn unary_copy(from: &str) -> QueryRef {
    cq(CqBuilder::head(vec![Term::var("X")])
        .when(atom!(from; @"X"))
        .build()
        .unwrap())
}

/// Stores received `M` facts into memory `T`, outputs `T`, and sends
/// its input `S` on every step.
fn store_and_echo() -> Transducer {
    TransducerBuilder::new("store-and-echo")
        .input_relation("S", 1)
        .message_relation("M", 1)
        .memory_relation("T", 1)
        .output_arity(1)
        .send("M", unary_copy("S"))
        .insert("T", unary_copy("M"))
        .output(unary_copy("T"))
        .build()
        .unwrap()
}

/// `T := M` as `ins = M`, `del = T`: every received tuple already in
/// `T` is an insert/delete conflict, which keeps it.
fn assign_from_messages() -> Transducer {
    TransducerBuilder::new("assign-from-messages")
        .input_relation("S", 1)
        .message_relation("M", 1)
        .memory_relation("T", 1)
        .output_arity(1)
        .send("M", unary_copy("S"))
        .insert("T", unary_copy("M"))
        .delete("T", unary_copy("T"))
        .output(unary_copy("T"))
        .build()
        .unwrap()
}

/// A random instance of `schema` over a small domain, so that state,
/// messages and query results overlap often.
fn random_instance(rng: &mut StdRng, schema: &Schema, max_facts: usize) -> Instance {
    let domain = [
        Value::int(1),
        Value::int(2),
        Value::int(3),
        Value::sym("n0"),
        Value::sym("n1"),
    ];
    let mut inst = Instance::empty(schema.clone());
    for (rel, arity) in schema.iter() {
        for _ in 0..rng.gen_range(0..=max_facts) {
            let vals: Vec<Value> = (0..arity)
                .map(|_| domain[rng.gen_range(0..domain.len())])
                .collect();
            inst.insert_fact(Fact::new(rel.clone(), Tuple::new(vals)))
                .unwrap();
        }
    }
    inst
}

/// A chain of steps from a random state with random memory, each on a
/// random (possibly empty) message instance, checked against the
/// reference at every step.
fn check_against_reference(t: &Transducer, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = t.schema();
    let me = Value::sym("n0");
    let nodes: BTreeSet<Value> = [Value::sym("n0"), Value::sym("n1")].into();
    let input = random_instance(&mut rng, schema.input(), 4);
    let mut state = schema.initial_state(&input, &me, &nodes).unwrap();
    let memory = random_instance(&mut rng, schema.memory(), 4);
    for f in memory.facts() {
        state.insert_fact(f).unwrap();
    }
    for _ in 0..4 {
        let received = random_instance(&mut rng, schema.message(), 2);
        let before: Facts = state.facts().collect();
        let want = reference_step(t, &state, &received);
        let res = t.step(&state, &received).unwrap();
        let got = Transition {
            new_state: res.new_state.facts().collect(),
            sent: res.sent.facts().collect(),
            output: res.output.iter().cloned().collect(),
        };
        assert_eq!(got, want, "{} seed {seed}", t.name());
        assert_eq!(
            res.memory_changed,
            res.new_state != state,
            "{} seed {seed}",
            t.name()
        );
        assert_eq!(res.memory_changed, want.new_state != before);
        let after: Facts = state.facts().collect();
        assert_eq!(after, before, "step changed its input state");
        state = res.new_state;
    }
}

fn transducers() -> Vec<Transducer> {
    let s = Schema::new().with("S", 1);
    vec![
        store_and_echo(),
        assign_from_messages(),
        flood_transducer(&s, FloodMode::Dedup, None).unwrap(),
        flood_transducer(&s, FloodMode::Naive, None).unwrap(),
        ex3_transitive_closure(true).unwrap(),
        ex3_transitive_closure(false).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_matches_the_literal_reference(seed in 0u64..1_000_000) {
        for t in transducers() {
            check_against_reference(&t, seed);
        }
    }
}
