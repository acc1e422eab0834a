//! Storage-engine microbenchmarks: the adaptive engine against the
//! `RTX_STORAGE=btree` oracle on the operations the relational kernel
//! actually spends time in — bulk construction, tail inserts with
//! adoption, delta application (run merge), and membership probes —
//! plus a `storage-adaptive/threshold-sweep` group that measures
//! insert/remove/probe/scan at relation sizes straddling the promotion
//! threshold, the empirical basis for its value of 256. Both engines
//! are pinned explicitly with `empty_in`/`from_tuples_in`, so one run
//! records the comparison whatever the ambient `RTX_STORAGE` is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_relational::{Relation, StorageMode, Tuple, Value};

/// `n` two-column tuples in a shuffled-but-deterministic order, so
/// bulk construction pays a real sort and tail inserts land mid-run.
fn scattered(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let a = (i * 7919) % n;
            vec![Value::Int(a as i64), Value::Int(i as i64)].into()
        })
        .collect()
}

fn modes() -> [(&'static str, StorageMode); 2] {
    [
        ("adaptive", StorageMode::Adaptive),
        ("btree", StorageMode::Btree),
    ]
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage-columnar");
    group.sample_size(10);
    for n in [1024usize, 8192] {
        let tuples = scattered(n);
        for (label, mode) in modes() {
            group.bench_with_input(
                BenchmarkId::new(format!("from-tuples-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        Relation::from_tuples_in(mode, 2, tuples.clone())
                            .unwrap()
                            .len()
                    })
                },
            );
        }

        // Tail inserts over a sorted base: a promoted relation absorbs
        // them into its mutable tail, then re-adopts on read.
        let fresh: Vec<Tuple> = (0..n / 8)
            .map(|i| vec![Value::Int(-(i as i64) - 1), Value::Int(i as i64)].into())
            .collect();
        for (label, mode) in modes() {
            let base = Relation::from_tuples_in(mode, 2, tuples.clone()).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("insert-tail-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut r = base.clone();
                        for t in &fresh {
                            r.insert(t.clone()).unwrap();
                        }
                        // Force the merged view the way a reader would.
                        assert!(r.iter().count() == n + fresh.len());
                        r.len()
                    })
                },
            );
        }

        // Delta application: adds and removes in one batch — the
        // adaptive run-merge path against B-tree set edits.
        for (label, mode) in modes() {
            let base = Relation::from_tuples_in(mode, 2, tuples.clone()).unwrap();
            let mut target = base.clone();
            for t in &fresh {
                target.insert(t.clone()).unwrap();
            }
            for t in tuples.iter().step_by(16) {
                target.remove(t);
            }
            let delta = target.diff(&base).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("delta-apply-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut r = base.clone();
                        r.apply_delta(&delta).unwrap();
                        assert!(r.iter().count() == target.len());
                        r.len()
                    })
                },
            );
        }

        // Point membership over the whole key range: galloping into
        // sorted runs vs B-tree descent.
        for (label, mode) in modes() {
            let rel = Relation::from_tuples_in(mode, 2, tuples.clone()).unwrap();
            group.bench_with_input(BenchmarkId::new(format!("probe-{label}"), n), &n, |b, _| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for t in tuples.iter().step_by(3) {
                        if rel.contains(t) {
                            hits += 1;
                        }
                    }
                    hits
                })
            });
        }
    }
    group.finish();
}

/// The threshold sweep: the round executors' workload shape — point
/// inserts, removes, probes, and occasional ordered scans on relations
/// of a few dozen to a few thousand tuples — at sizes straddling the
/// promotion threshold (16/64 stay in the small regime under the
/// default threshold, 256 promotes exactly at the boundary, 1024 runs
/// promoted). The adaptive engine should track btree below the
/// threshold and beat it above.
fn bench_threshold_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage-adaptive");
    group.sample_size(10);
    for n in [16usize, 64, 256, 1024] {
        let tuples = scattered(n);
        for (label, mode) in modes() {
            // insert: grow from empty by point inserts (the transducer
            // round shape), reading nothing.
            group.bench_with_input(
                BenchmarkId::new(format!("threshold-sweep-insert-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut r = Relation::empty_in(mode, 2);
                        for t in &tuples {
                            r.insert(t.clone()).unwrap();
                        }
                        r.len()
                    })
                },
            );

            // remove: drain half of a built relation fact by fact.
            let base = Relation::from_tuples_in(mode, 2, tuples.clone()).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("threshold-sweep-remove-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut r = base.clone();
                        for t in tuples.iter().step_by(2) {
                            r.remove(t);
                        }
                        r.len()
                    })
                },
            );

            // probe: membership over the whole key range, half misses.
            let probes: Vec<Tuple> = (0..n)
                .map(|i| {
                    let a = (i * 7919) % n;
                    let b = if i % 2 == 0 { i as i64 } else { -1 };
                    vec![Value::Int(a as i64), Value::Int(b)].into()
                })
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("threshold-sweep-probe-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut hits = 0usize;
                        for t in &probes {
                            if base.contains(t) {
                                hits += 1;
                            }
                        }
                        hits
                    })
                },
            );

            // scan: ordered iteration after a point mutation — the
            // order-demand cost (sort for small, fold for promoted).
            group.bench_with_input(
                BenchmarkId::new(format!("threshold-sweep-scan-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut r = base.clone();
                        r.remove(&tuples[0]);
                        r.insert(tuples[0].clone()).unwrap();
                        r.iter().count()
                    })
                },
            );
        }

        // index-memo: repeated column-index probes of an *unchanged*
        // relation — the access pattern of magic-set guard relations,
        // which are consulted every semi-naive round but rarely
        // mutated. The small regime memoizes the per-call index (and
        // takes no promotion pressure from it), so repeat probes cost
        // a hash lookup, not a rebuild.
        for (label, mode) in modes() {
            let base = Relation::from_tuples_in(mode, 2, tuples.clone()).unwrap();
            let key = tuples[0].clone();
            group.bench_with_input(
                BenchmarkId::new(format!("index-memo-{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut hits = 0usize;
                        for _ in 0..64 {
                            let idx = base.index(&[0]).unwrap();
                            hits += idx.probe(&key.values()[..1]).len();
                        }
                        hits
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_storage, bench_threshold_sweep);
criterion_main!(benches);
