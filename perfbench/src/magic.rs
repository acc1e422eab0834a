//! `magic-rebind`: a bound transitive-closure lookup `p(c, Y)` over a
//! chain, answered through the magic-sets rewrite. One maintained
//! fixpoint serves every lookup: each op rebinds the query to a new
//! constant, applies the ± seed delta (DRed retraction and
//! re-derivation, so storage removes and inserts) and reads the answer.
//! Neither the network nor the transducer layer runs.

use crate::rec::{add_storage_stats, corrupt, drive, Report, FIXPOINT_COUNTERS};
use crate::RunArgs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtx_query::parser::parse_program;
use rtx_query::{Atom, MagicQuery, MaintainedFixpoint, Term};
use rtx_relational::{fact, Instance, Relation, Schema, Tuple, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Chain edges, and lookups per pass.
const CHAIN_EDGES: i64 = 2048;
const REBINDS: usize = 128;

fn lookup(c: i64) -> Atom {
    Atom::new("p", vec![Term::Const(Value::int(c)), Term::var("Y")])
}

/// The reference answer: every `(c, y)` with `y` reachable from `c`,
/// found by breadth-first search over the edge list.
fn reachable(adj: &BTreeMap<i64, Vec<i64>>, c: i64) -> Result<Relation, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut frontier = vec![c];
    while let Some(x) = frontier.pop() {
        for &y in adj.get(&x).into_iter().flatten() {
            if seen.insert(y) {
                frontier.push(y);
            }
        }
    }
    Relation::from_tuples(
        2,
        seen.into_iter()
            .map(|y| Tuple::new(vec![Value::int(c), Value::int(y)])),
    )
    .map_err(|e| e.to_string())
}

/// The lookup constants of one pass: one seeded constant in each of
/// `REBINDS` equal slices of the chain, in seeded order, except that the
/// middle slice's constant comes last. Every pass repeats them, and the
/// fixpoint is set up bound to the last one, so every pass does the same
/// work and the set-up derives about half the chain whatever the seed.
fn constants(seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slice = CHAIN_EDGES / REBINDS as i64;
    let mut cs: Vec<i64> = (0..REBINDS as i64)
        .map(|i| i * slice + rng.gen_range(0..slice))
        .collect();
    let middle = cs.remove(REBINDS / 2);
    cs.shuffle(&mut rng);
    cs.push(middle);
    cs
}

pub fn magic_rebind(args: &RunArgs) -> Result<Report, String> {
    let cs = constants(args.seed);
    let edges: Vec<(i64, i64)> = (0..CHAIN_EDGES).map(|i| (i, i + 1)).collect();
    let first = *cs.last().expect("REBINDS > 0");
    let setup = || -> Result<(MagicQuery, MaintainedFixpoint), String> {
        let db = Instance::from_facts(
            Schema::new().with("e", 2),
            edges
                .iter()
                .map(|&(a, b)| fact!("e", a, b))
                .collect::<Vec<_>>(),
        )
        .map_err(|e| e.to_string())?;
        let program = parse_program("p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z).")
            .map_err(|e| e.to_string())?;
        let q = program
            .for_query(&lookup(first))
            .map_err(|e| e.to_string())?;
        if !q.is_magic() {
            return Err("the bound lookup did not get the magic rewrite".into());
        }
        let fix = q.maintained(&db).map_err(|e| e.to_string())?;
        Ok((q, fix))
    };
    let (mut current, mut fix) = setup()?;

    let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b) in &edges {
        adj.entry(a).or_default().push(b);
    }
    let expected: Vec<Relation> = cs
        .iter()
        .map(|&c| reachable(&adj, c))
        .collect::<Result<_, _>>()?;

    drive(args.start, args.budget, args.traced, &setup, |rec| {
        let stats0 = fix.stats().clone();
        for (&c, want) in cs.iter().zip(&expected) {
            let t0 = Instant::now();
            let (next, delta) = rec
                .time("query.rebind_s", || current.rebind(&lookup(c)))
                .map_err(|e| e.to_string())?;
            rec.time("query.apply_s", || fix.apply(&delta).map(|_| ()))
                .map_err(|e| e.to_string())?;
            let answer = rec
                .time("query.answer_s", || next.answer_from(fix.current()))
                .map_err(|e| e.to_string())?;
            rec.op(t0.elapsed());
            current = next;
            rec.check(&answer == want);
            if rec.warmup() && c == first {
                rec.self_check(answer == corrupt(want));
            }
        }
        rec.done();
        if rec.traced() {
            // Read from the fixpoint itself: the registry's
            // fixpoint.deltas_applied does not count `apply` calls.
            let st = fix.stats();
            let counts = [
                st.deltas_applied - stats0.deltas_applied,
                st.strata_incremental - stats0.strata_incremental,
                st.strata_rebuilt - stats0.strata_rebuilt,
                st.strata_skipped - stats0.strata_skipped,
            ];
            for (name, v) in FIXPOINT_COUNTERS.into_iter().zip(counts) {
                rec.add(name, v as f64);
            }
            let total = fix.current();
            rec.add("relational.total_facts", total.fact_count() as f64);
            add_storage_stats(rec, [total]);
            let t0 = Instant::now();
            let copy = black_box(total.clone());
            rec.add("relational.clone_us", t0.elapsed().as_secs_f64() * 1e6);
            drop(copy);
        }
        Ok(())
    })
}
