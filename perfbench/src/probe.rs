//! Benchmark-side instrumentation of the query layer.
//!
//! [`CountingQuery`] wraps a transducer query and counts, from outside
//! the library, how often the transducer layer calls into `rtx_query`,
//! how long those calls take and how many tuples they return. Every
//! method of the [`Query`] trait is forwarded, so classification
//! (obliviousness, monotonicity, the `All` check behind
//! `Configuration::initial_lean`) sees the same machine.
//!
//! The counters are atomics because the dense executor calls queries
//! from its shard worker threads.

use rtx_query::{EvalError, Query, QueryRef};
use rtx_relational::{Instance, RelName, Relation};
use rtx_transducer::{Transducer, TransducerBuilder};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals shared by every wrapped query of one transducer.
#[derive(Debug, Default)]
pub struct QueryTotals {
    evals: AtomicU64,
    nanos: AtomicU64,
    tuples: AtomicU64,
}

impl QueryTotals {
    /// Read and reset `(evals, seconds, tuples out)`.
    pub fn take(&self) -> (u64, f64, u64) {
        let evals = self.evals.swap(0, Ordering::Relaxed);
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        let tuples = self.tuples.swap(0, Ordering::Relaxed);
        (evals, nanos as f64 * 1e-9, tuples)
    }
}

/// A [`Query`] decorator that times and counts every `eval`.
#[derive(Debug)]
pub struct CountingQuery {
    inner: QueryRef,
    totals: Arc<QueryTotals>,
}

impl Query for CountingQuery {
    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn eval(&self, db: &Instance) -> Result<Relation, EvalError> {
        let t0 = Instant::now();
        let out = self.inner.eval(db);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.totals.evals.fetch_add(1, Ordering::Relaxed);
        self.totals.nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Ok(rel) = &out {
            self.totals
                .tuples
                .fetch_add(rel.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn is_monotone_syntactic(&self) -> bool {
        self.inner.is_monotone_syntactic()
    }

    fn referenced_relations(&self) -> BTreeSet<RelName> {
        self.inner.referenced_relations()
    }

    fn is_always_empty(&self) -> bool {
        self.inner.is_always_empty()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Rebuild `t` with every snd/ins/del/out query wrapped in a
/// [`CountingQuery`] that reports into `totals`.
pub fn counting_transducer(
    t: &Transducer,
    totals: &Arc<QueryTotals>,
) -> Result<Transducer, EvalError> {
    let wrap = |q: &QueryRef| -> QueryRef {
        Arc::new(CountingQuery {
            inner: q.clone(),
            totals: totals.clone(),
        })
    };
    let schema = t.schema();
    let mut b = TransducerBuilder::new(t.name())
        .input_schema(schema.input())
        .output_arity(schema.output_arity());
    for (rel, arity) in schema.message().iter() {
        b = b.message_relation(rel.clone(), arity);
        if let Some(q) = t.snd_query(rel) {
            b = b.send(rel.clone(), wrap(q));
        }
    }
    for (rel, arity) in schema.memory().iter() {
        b = b.memory_relation(rel.clone(), arity);
        if let Some(q) = t.ins_query(rel) {
            b = b.insert(rel.clone(), wrap(q));
        }
        if let Some(q) = t.del_query(rel) {
            b = b.delete(rel.clone(), wrap(q));
        }
    }
    b.output(wrap(t.out_query())).build()
}
