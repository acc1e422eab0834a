//! EX-2 / EX-3a / EX-3b / EX-4: the paper's worked examples, verified,
//! plus the `exp_trace` timeline-capture experiment.
//!
//! These are the bodies of the `exp_examples` and `exp_trace`
//! binaries, exposed as library functions so the tier-1 test suite can
//! smoke-run them in-process (the other experiment binaries are slower
//! and stay bin-only; see `EXPERIMENTS.md`).

use crate::Table;
use rtx_calm::examples;
use rtx_net::{run, FifoRoundRobin, HorizontalPartition, LifoRoundRobin, Network, RunBudget};
use rtx_relational::{fact, Instance, Schema, Value};

/// Run the four worked-example experiments, printing their tables.
pub fn run_examples() {
    println!("\n[EX-2] Example 2: first-received-element is INCONSISTENT");
    let t = examples::ex2_first_element().unwrap();
    let input = Instance::from_facts(
        Schema::new().with("S", 1),
        vec![fact!("S", 1), fact!("S", 2)],
    )
    .unwrap();
    let net = Network::line(2).unwrap();
    let p = HorizontalPartition::concentrate(&net, &input, &Value::sym("n0")).unwrap();
    let budget = RunBudget::steps(100_000);
    let fifo = run(&net, &t, &p, &mut FifoRoundRobin::new(), &budget).unwrap();
    let lifo = run(&net, &t, &p, &mut LifoRoundRobin::new(), &budget).unwrap();
    let mut tab = Table::new(&[("schedule", 10), ("output", 24), ("quiescent", 10)]);
    tab.row(&[
        "fifo".into(),
        format!("{}", fifo.output),
        fifo.quiescent.to_string(),
    ]);
    tab.row(&[
        "lifo".into(),
        format!("{}", lifo.output),
        lifo.quiescent.to_string(),
    ]);
    tab.done();
    println!(
        "paper: \"different runs may deliver the elements in different orders\" → inconsistent: {}",
        fifo.output != lifo.output
    );

    println!("\n[EX-3a] Example 3: equality selection σ_{{$1=$2}}(S), messageless");
    let t = examples::ex3_equality_selection().unwrap();
    let input = Instance::from_facts(
        Schema::new().with("S", 2),
        vec![fact!("S", 1, 1), fact!("S", 1, 2), fact!("S", 3, 3)],
    )
    .unwrap();
    let mut tab = Table::new(&[("topology", 10), ("output", 24), ("messages", 10)]);
    for net in [Network::single(), Network::line(3).unwrap()] {
        let out = crate::run_fifo(&net, &t, &input);
        tab.row(&[
            format!("{}-node", net.len()),
            format!("{}", out.output),
            out.messages_enqueued.to_string(),
        ]);
    }
    tab.done();

    println!("\n[EX-3b] Example 3: naive distributed transitive closure (paper's formulation)");
    let t = examples::ex3_transitive_closure(true).unwrap();
    let input = Instance::from_facts(
        Schema::new().with("S", 2),
        vec![fact!("S", 1, 2), fact!("S", 2, 3), fact!("S", 3, 4)],
    )
    .unwrap();
    let mut tab = Table::new(&[
        ("topology", 10),
        ("|output|", 9),
        ("steps", 8),
        ("messages", 10),
    ]);
    for net in [
        Network::line(2).unwrap(),
        Network::ring(4).unwrap(),
        Network::star(5).unwrap(),
    ] {
        let out = crate::run_fifo(&net, &t, &input);
        assert!(out.quiescent);
        tab.row(&[
            format!("{net:?}"),
            out.output.len().to_string(),
            out.steps.to_string(),
            out.messages_enqueued.to_string(),
        ]);
    }
    tab.done();
    println!("closure of a 3-edge chain has 6 tuples on every topology: consistent & NTI");

    println!("\n[EX-4] Example 4: echo — consistent per topology, NOT network-independent");
    let t = examples::ex4_echo().unwrap();
    let input = Instance::from_facts(
        Schema::new().with("S", 1),
        vec![fact!("S", 5), fact!("S", 6)],
    )
    .unwrap();
    let mut tab = Table::new(&[("topology", 10), ("computed query", 20)]);
    for net in [
        Network::single(),
        Network::line(2).unwrap(),
        Network::ring(3).unwrap(),
    ] {
        let out = crate::run_fifo(&net, &t, &input);
        let what = if out.output.is_empty() {
            "empty query"
        } else {
            "identity"
        };
        tab.row(&[format!("{}-node", net.len()), what.into()]);
    }
    tab.done();
}

/// Run the `exp_trace` workload — the grid-256 flood dissemination on
/// the sharded executor — at a forced-full trace level and return the
/// run outcome plus its captured [`rtx_obs::RunTrace`]. The trace's
/// span tree covers rounds → phases → per-node steps → deliveries, and
/// its registry delta carries the `net.*` counters published by
/// [`rtx_net::ShardRunOutcome::publish`], so the two sides must
/// reconcile exactly (the `exp_trace` binary and `tests/obs.rs` both
/// assert it).
pub fn trace_grid_flood() -> (rtx_net::ShardRunOutcome, rtx_obs::RunTrace) {
    use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
    use rtx_net::{run_sharded, ShardOptions};

    let _full = rtx_obs::trace::level_guard(rtx_obs::TraceLevel::Full);
    let schema = Schema::new().with("S", 1);
    let input = crate::set_input(8);
    let net = Network::grid(16, 16).unwrap();
    let t = flood_transducer(&schema, FloodMode::Dedup, None).unwrap();
    let p = HorizontalPartition::round_robin(&net, &input);
    // To-quiescence: the flood wave crosses the whole grid well within
    // this budget, so the captured timeline is a complete run.
    let budget = RunBudget::steps(5_000_000);
    rtx_obs::trace::capture_run(|| {
        run_sharded(&net, &t, &p, &ShardOptions::sharded(4), &budget).unwrap()
    })
}

/// Assert that a captured trace's registry delta reconciles exactly
/// with the run outcome it was captured around — the acceptance
/// contract of the observability layer. Returns the reconciled
/// `(field, value)` pairs for display.
pub fn reconcile_trace(
    out: &rtx_net::ShardRunOutcome,
    trace: &rtx_obs::RunTrace,
) -> Vec<(&'static str, u64)> {
    let pairs = vec![
        ("net.runs", 1u64),
        ("net.rounds", out.rounds as u64),
        ("net.steps", out.outcome.steps as u64),
        ("net.heartbeats", out.outcome.heartbeats as u64),
        ("net.deliveries", out.outcome.deliveries as u64),
        (
            "net.messages_enqueued",
            out.outcome.messages_enqueued as u64,
        ),
        (
            "net.quiescent_runs",
            if out.outcome.quiescent { 1 } else { 0 },
        ),
    ];
    for (name, want) in &pairs {
        let got = trace.counters.counter(name);
        assert_eq!(
            got, *want,
            "registry counter {name} = {got} does not reconcile with the run outcome ({want})"
        );
    }
    pairs
}
