//! Tier-1 tests for the observability layer (`rtx_obs`): trace
//! determinism across shard counts, registry snapshot/diff algebra,
//! zero-cost off mode, Chrome-JSON round-tripping, and the
//! registry ⇄ `ShardRunOutcome` reconciliation on the grid-256 flood.
//!
//! A capture's registry delta is scoped to its own run (see
//! [`concurrent_captures_each_reconcile_exactly`]), but the trace level
//! is process-global, so every test that changes the level serializes
//! on [`obs_lock`].

use rtx::calm::constructions::flood::{flood_transducer, FloodMode};
use rtx::net::{
    run_sharded, HorizontalPartition, Network, RunBudget, ShardOptions, ShardRunOutcome,
};
use rtx::obs::trace::{self, TraceLevel};
use rtx::obs::{Hist, RunTrace, Snapshot};
use rtx::relational::{fact, Fact, Instance, Schema};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialize tests that change the process-global trace level.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn set_instance(n: i64) -> Instance {
    let sch = Schema::new().with("S", 1);
    let facts: Vec<Fact> = (0..n).map(|v| fact!("S", v)).collect();
    Instance::from_facts(sch, facts).unwrap()
}

/// Capture one full-level flood run at the given thread count.
fn captured_flood(net: &Network, input: &Instance, threads: usize) -> RunTrace {
    let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(net, input);
    let budget = RunBudget::steps(500_000);
    let opts = if threads <= 1 {
        ShardOptions::serial()
    } else {
        ShardOptions::sharded(threads)
    };
    let (out, trace) = trace::capture_run(|| run_sharded(net, &t, &p, &opts, &budget).unwrap());
    assert!(out.outcome.quiescent);
    trace
}

/// The tentpole determinism property: the merged event sequence is a
/// pure function of the computation — bit-identical across {1, 2, 4,
/// 8} shards, because workers drain per-job event fragments and the
/// coordinator splices them back in node order at its barrier.
#[test]
fn trace_is_deterministic_across_shard_counts() {
    let _g = obs_lock();
    let _full = trace::level_guard(TraceLevel::Full);
    let net = Network::grid(6, 6).unwrap();
    let input = set_instance(5);
    let reference = captured_flood(&net, &input, 1);
    assert!(!reference.events.is_empty());
    let ref_lines = reference.canonical_lines();
    for threads in [2usize, 4, 8] {
        let got = captured_flood(&net, &input, threads).canonical_lines();
        assert_eq!(
            got, ref_lines,
            "merged event sequence diverged at {threads} shards"
        );
    }
}

/// Off mode records nothing: no events, no registry delta — every
/// instrumentation hook reduced to one relaxed atomic load.
#[test]
fn off_mode_records_nothing() {
    let _g = obs_lock();
    let _off = trace::level_guard(TraceLevel::Off);
    let net = Network::ring(8).unwrap();
    let input = set_instance(4);
    let trace = captured_flood(&net, &input, 2);
    assert!(trace.events.is_empty(), "off mode buffered events");
    assert!(
        trace.counters.is_empty(),
        "off mode published counters: {:?}",
        trace.counters
    );
    assert_eq!(trace.dropped, 0);
}

/// Counters mode publishes the registry but buffers no events.
#[test]
fn counters_mode_publishes_without_events() {
    let _g = obs_lock();
    let _ctr = trace::level_guard(TraceLevel::Counters);
    let net = Network::ring(8).unwrap();
    let input = set_instance(4);
    let trace = captured_flood(&net, &input, 2);
    assert!(trace.events.is_empty(), "counters mode buffered events");
    assert_eq!(trace.counters.counter("net.runs"), 1);
    assert!(trace.counters.counter("net.steps") > 0);
}

/// Snapshot algebra: `diff` against the empty snapshot is the
/// identity, and `diff` then `absorb` of the earlier snapshot
/// round-trips to the later one.
#[test]
fn snapshot_diff_absorb_round_trips() {
    let mut earlier = Snapshot::default();
    earlier.counters.insert("a".into(), 3);
    earlier.counters.insert("b".into(), 10);
    let mut h = Hist::default();
    h.record(5);
    h.record(900);
    earlier.hists.insert("lat".into(), h);

    let mut later = earlier.clone();
    *later.counters.get_mut("a").unwrap() += 4;
    later.counters.insert("c".into(), 1);
    later.hists.get_mut("lat").unwrap().record(70_000);

    // identity: diff against empty
    assert_eq!(later.diff(&Snapshot::default()), later);
    // round-trip: earlier + (later - earlier) == later
    let delta = later.diff(&earlier);
    assert_eq!(delta.counter("a"), 4);
    assert_eq!(delta.counter("b"), 0, "unchanged counters drop from diffs");
    assert_eq!(delta.counter("c"), 1);
    let mut rebuilt = earlier.clone();
    rebuilt.absorb(&delta);
    // `b` dropped from the delta as zero, so compare counter-wise.
    for name in ["a", "b", "c"] {
        assert_eq!(rebuilt.counter(name), later.counter(name), "{name}");
    }
    assert_eq!(rebuilt.hists.get("lat"), later.hists.get("lat"));
    // histogram bucketing is log2
    assert_eq!(Hist::bucket_of(0), 0);
    assert_eq!(Hist::bucket_of(1), 1);
    assert_eq!(Hist::bucket_of(900), 10);
    assert_eq!(Hist::bucket_of(u64::MAX), 63);
}

/// The Chrome trace export of a real captured run parses, has
/// monotone timestamps, balanced B/E spans, and carries the registry.
#[test]
fn chrome_json_round_trips_through_the_validator() {
    let _g = obs_lock();
    let _full = trace::level_guard(TraceLevel::Full);
    let net = Network::ring(12).unwrap();
    let input = set_instance(4);
    let trace = captured_flood(&net, &input, 4);
    let doc = trace.to_chrome_json();
    let n = RunTrace::validate_chrome_json(&doc).expect("valid Chrome trace JSON");
    // every event plus one trailing C record per registry counter
    assert_eq!(n, trace.events.len() + trace.counters.counters.len());
    // the validator rejects corrupted documents
    assert!(RunTrace::validate_chrome_json("{}").is_err());
    assert!(RunTrace::validate_chrome_json(
        "{\"traceEvents\":[{\"ph\":\"E\",\"name\":\"x\",\"ts\":0}]}"
    )
    .is_err());
}

/// The acceptance assertion: on the grid-256 flood, the registry
/// delta captured around the run reconciles exactly with the
/// `ShardRunOutcome` counters, and the span tree covers
/// rounds → phases → per-node steps → deliveries.
#[test]
fn registry_reconciles_with_shard_outcome_on_grid_256() {
    let _g = obs_lock();
    let _full = trace::level_guard(TraceLevel::Full);
    let net = Network::grid(16, 16).unwrap();
    let input = set_instance(8);
    let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    let budget = RunBudget::steps(5_000_000);
    let (out, trace) = trace::capture_run(|| {
        run_sharded(&net, &t, &p, &ShardOptions::sharded(4), &budget).unwrap()
    });
    assert!(out.outcome.quiescent);
    assert_eq!(trace.dropped, 0, "grid-256 flood overflowed the buffer");
    let counters = &trace.counters;
    assert_eq!(counters.counter("net.runs"), 1);
    assert_eq!(counters.counter("net.rounds"), out.rounds as u64);
    assert_eq!(counters.counter("net.steps"), out.outcome.steps as u64);
    assert_eq!(
        counters.counter("net.heartbeats"),
        out.outcome.heartbeats as u64
    );
    assert_eq!(
        counters.counter("net.deliveries"),
        out.outcome.deliveries as u64
    );
    assert_eq!(
        counters.counter("net.messages_enqueued"),
        out.outcome.messages_enqueued as u64
    );
    assert_eq!(counters.counter("net.quiescent_runs"), 1);
    let max_active = counters
        .hist("net.max_active")
        .expect("max_active histogram");
    assert_eq!(max_active.count, 1);
    assert_eq!(max_active.sum, out.max_active as u64);
    assert!(
        counters.hist("net.run_ns").is_some(),
        "run_ns histogram missing"
    );
    // span tree: rounds wrap phases wrap per-node steps; deliveries
    // appear both as phase spans and step spans.
    let lines = trace.canonical_lines();
    let count = |needle: &str| lines.iter().filter(|l| l.starts_with(needle)).count();
    assert_eq!(count("B net:round"), out.rounds);
    assert_eq!(count("B net:step.heartbeat"), out.outcome.heartbeats);
    assert_eq!(count("B net:step.deliver"), out.outcome.deliveries);
    assert!(count("B net:phase.deliver") > 0);
    assert!(count("B net:phase.heartbeat") > 0);
}

/// The serial scheduler driver (`rtx_net::run`) publishes the same
/// `net.*` schema, so one reconciliation story holds for every
/// executor.
#[test]
fn serial_driver_publishes_the_same_schema() {
    use rtx::net::{run, FifoRoundRobin};
    let _g = obs_lock();
    let _ctr = trace::level_guard(TraceLevel::Counters);
    let net = Network::line(3).unwrap();
    let input = set_instance(3);
    let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    let (out, trace) = trace::capture_run(|| {
        run(
            &net,
            &t,
            &p,
            &mut FifoRoundRobin::new(),
            &RunBudget::steps(100_000),
        )
        .unwrap()
    });
    assert!(out.quiescent);
    assert_eq!(trace.counters.counter("net.runs"), 1);
    assert_eq!(trace.counters.counter("net.steps"), out.steps as u64);
    assert_eq!(
        trace.counters.counter("net.heartbeats"),
        out.heartbeats as u64
    );
    assert_eq!(
        trace.counters.counter("net.deliveries"),
        out.deliveries as u64
    );
    assert_eq!(trace.counters.counter("net.quiescent_runs"), 1);
}

/// Fixpoint / storage instrumentation: a traced Datalog evaluation
/// publishes `query.*` counters and emits per-stratum spans.
#[test]
fn query_eval_publishes_strata() {
    use rtx::query::{Atom, Literal, Program, Rule, Term};
    let _g = obs_lock();
    let _full = trace::level_guard(TraceLevel::Full);
    let head = |xs: &[&str]| Atom::new("t", xs.iter().map(|v| Term::var(*v)).collect::<Vec<_>>());
    let body = |p: &str, xs: &[&str]| {
        Literal::Pos(Atom::new(
            p,
            xs.iter().map(|v| Term::var(*v)).collect::<Vec<_>>(),
        ))
    };
    let program = Program::new(vec![
        Rule::new(head(&["X", "Y"]), vec![body("e", &["X", "Y"])]).unwrap(),
        Rule::new(
            head(&["X", "Z"]),
            vec![body("t", &["X", "Y"]), body("e", &["Y", "Z"])],
        )
        .unwrap(),
    ])
    .unwrap();
    let db = Instance::from_facts(
        Schema::new().with("e", 2),
        vec![fact!("e", 1, 2), fact!("e", 2, 3), fact!("e", 3, 4)],
    )
    .unwrap();
    let (out, trace) = trace::capture_run(|| program.eval(&db).unwrap());
    assert_eq!(out.relation(&"t".into()).map(|r| r.len()).unwrap(), 6);
    assert_eq!(trace.counters.counter("query.evals"), 1);
    assert!(trace.counters.counter("query.derived") >= 6);
    let lines = trace.canonical_lines();
    assert!(lines.iter().any(|l| l.starts_with("B query:eval")));
    assert!(lines.iter().any(|l| l.starts_with("B query:stratum")));
    assert!(lines.iter().any(|l| l.starts_with("I query:stratum.tally")));
}

/// Two captures open at the same time on two threads, each around its
/// own runs: each reports exactly its own runs' counters, not the
/// other's, although both publish into the same global registry.
#[test]
fn concurrent_captures_each_reconcile_exactly() {
    let _g = obs_lock();
    let _ctr = trace::level_guard(TraceLevel::Counters);
    let barrier = std::sync::Barrier::new(2);
    let workloads = [
        (Network::grid(6, 6).unwrap(), 2usize, 3usize),
        (Network::ring(10).unwrap(), 1, 5),
    ];
    std::thread::scope(|s| {
        for (net, threads, repeats) in &workloads {
            let barrier = &barrier;
            s.spawn(move || {
                let input = set_instance(4);
                let t = flood_transducer(input.schema(), FloodMode::Dedup, None).unwrap();
                let p = HorizontalPartition::round_robin(net, &input);
                let opts = if *threads <= 1 {
                    ShardOptions::serial()
                } else {
                    ShardOptions::sharded(*threads)
                };
                let budget = RunBudget::steps(500_000);
                barrier.wait();
                let (outs, trace) = trace::capture_run(|| {
                    (0..*repeats)
                        .map(|_| run_sharded(net, &t, &p, &opts, &budget).unwrap())
                        .collect::<Vec<_>>()
                });
                let sum = |f: fn(&ShardRunOutcome) -> usize| -> u64 {
                    outs.iter().map(f).sum::<usize>() as u64
                };
                let c = &trace.counters;
                assert_eq!(c.counter("net.runs"), *repeats as u64);
                assert_eq!(c.counter("net.rounds"), sum(|o| o.rounds));
                assert_eq!(c.counter("net.steps"), sum(|o| o.outcome.steps));
                assert_eq!(c.counter("net.heartbeats"), sum(|o| o.outcome.heartbeats));
                assert_eq!(c.counter("net.deliveries"), sum(|o| o.outcome.deliveries));
                assert_eq!(
                    c.counter("net.messages_enqueued"),
                    sum(|o| o.outcome.messages_enqueued)
                );
                assert_eq!(c.hist("net.max_active").unwrap().count, *repeats as u64);
            });
        }
    });
}

/// One `MaintainedFixpoint::apply` publishes one applied delta.
#[test]
fn fixpoint_apply_publishes_deltas_applied() {
    use rtx::query::incremental::MaintainedFixpoint;
    use rtx::relational::InstanceDelta;
    let _g = obs_lock();
    let _ctr = trace::level_guard(TraceLevel::Counters);
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    let mut base = Instance::empty(Schema::new().with("E", 2).with("T", 2));
    base.insert_fact(fact!("E", 1, 2)).unwrap();
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    let delta = InstanceDelta::from_parts(vec![fact!("E", 2, 3)], Vec::new());
    let (res, trace) = trace::capture_run(|| fix.apply(&delta).map(|_| ()));
    res.unwrap();
    assert_eq!(trace.counters.counter("fixpoint.deltas_applied"), 1);
    assert_eq!(fix.stats().deltas_applied, 1);
}

/// The maintained fixpoint's exact work counters — elementary steps
/// and DRed backward recounts — reach the registry as `fixpoint.steps`
/// and `fixpoint.backward_counts`, equal to the engine's own stats.
#[test]
fn fixpoint_apply_publishes_work_counters() {
    use rtx::query::incremental::MaintainedFixpoint;
    use rtx::relational::InstanceDelta;
    let _g = obs_lock();
    let _ctr = trace::level_guard(TraceLevel::Counters);
    let p =
        rtx::query::parser::parse_program("T(X,Y) :- E(X,Y). T(X,Z) :- T(X,Y), E(Y,Z).").unwrap();
    // A chain with a shortcut: removing E(1,2) over-deletes T(1,·) and
    // re-derives T(1,3), T(1,4) through E(1,3).
    let base = Instance::from_facts(
        Schema::new().with("E", 2).with("T", 2),
        vec![
            fact!("E", 1, 2),
            fact!("E", 2, 3),
            fact!("E", 3, 4),
            fact!("E", 1, 3),
        ],
    )
    .unwrap();
    let mut fix = MaintainedFixpoint::new(&p).unwrap();
    fix.initialize(&base).unwrap();
    let before = fix.stats().clone();
    let delta = InstanceDelta::from_parts(Vec::new(), vec![fact!("E", 1, 2)]);
    let (res, trace) = trace::capture_run(|| fix.apply(&delta).map(|_| ()));
    res.unwrap();
    let st = fix.stats();
    let (steps, recounts) = (
        st.steps - before.steps,
        st.backward_counts - before.backward_counts,
    );
    assert!(steps > 0 && recounts > 0, "{st:?}");
    assert_eq!(trace.counters.counter("fixpoint.steps"), steps);
    assert_eq!(trace.counters.counter("fixpoint.backward_counts"), recounts);
}
