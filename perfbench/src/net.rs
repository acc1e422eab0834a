//! The three network workloads: a transducer network run to quiescence
//! per pass, its result checked against a reference computed here.
//!
//! * `flood-dense`: forward-once flooding of 8 values over a grid on the
//!   dense round executor with parallel shard workers. Every node
//!   heartbeats every round and every step copies the node's whole
//!   state, including the eager `All` relation.
//! * `flood-sparse`: one fact flooded from the grid's first column on
//!   the sparse executor from the lean initial configuration: the
//!   park/arm frontier does the work, per-node state stays tiny.
//! * `tc-ring`: the paper's Example 3 distributed transitive closure on
//!   a ring, serial: few transitions, each re-evaluating a `T ∘ T` join.

use crate::probe::{counting_transducer, QueryTotals};
use crate::rec::{add_storage_stats, corrupt, drive, Rec, Report};
use crate::RunArgs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_calm::constructions::flood::{flood_transducer, FloodMode};
use rtx_calm::examples::ex3_transitive_closure;
use rtx_net::{
    run_sharded_from, run_sparse_from, Configuration, HorizontalPartition, Network, NodeId,
    RunBudget, ShardOptions, ShardRunOutcome,
};
use rtx_relational::{fact, Instance, RelName, Relation, Schema, Tuple, Value};
use rtx_transducer::Transducer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `flood-dense` grid side and number of flooded values.
const DENSE_SIDE: usize = 16;
const DENSE_VALUES: usize = 8;
/// `flood-sparse` grid: columns × rows.
const SPARSE_COLS: usize = 150;
const SPARSE_ROWS: usize = 40;
/// `tc-ring`: chain edges and ring size.
const TC_EDGES: usize = 20;
const TC_RING: usize = 8;

/// Final node states sampled for the per-layer step and clone timings.
const SAMPLED_STATES: usize = 16;

/// Which executor a workload runs, and from which initial configuration.
#[derive(Clone, Copy)]
enum Exec {
    /// `Configuration::initial` + `run_sharded_from`.
    Dense,
    /// `Configuration::initial_lean` + `run_sparse_from`.
    Sparse,
}

/// What a correct run ends with.
enum Expect {
    /// Every node's store relation equals this relation.
    EveryStore(RelName, Relation),
    /// The network's accumulated output equals this relation.
    Output(Relation),
}

impl Expect {
    fn holds(&self, net: &Network, out: &ShardRunOutcome) -> bool {
        if !out.outcome.quiescent {
            return false;
        }
        match self {
            Expect::EveryStore(rel, want) => net.nodes().all(|node| {
                out.outcome
                    .final_config
                    .state(node)
                    .and_then(|st| st.relation_ref(rel))
                    .is_some_and(|got| got == want)
            }),
            Expect::Output(want) => &out.outcome.output == want,
        }
    }

    /// The same expectation with one tuple too many: a correct result
    /// must fail it.
    fn corrupted(&self) -> Expect {
        match self {
            Expect::EveryStore(rel, want) => Expect::EveryStore(rel.clone(), corrupt(want)),
            Expect::Output(want) => Expect::Output(corrupt(want)),
        }
    }
}

struct NetSetup {
    net: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    opts: ShardOptions,
    exec: Exec,
    /// The transducer with counting queries, for traced passes.
    probed: Option<(Transducer, Arc<QueryTotals>)>,
}

impl NetSetup {
    fn new(
        net: Network,
        transducer: Transducer,
        partition: HorizontalPartition,
        opts: ShardOptions,
        exec: Exec,
        traced: bool,
    ) -> Result<NetSetup, String> {
        let probed = if traced {
            let totals = Arc::new(QueryTotals::default());
            let t = counting_transducer(&transducer, &totals).map_err(|e| e.to_string())?;
            Some((t, totals))
        } else {
            None
        };
        Ok(NetSetup {
            net,
            transducer,
            partition,
            opts,
            exec,
            probed,
        })
    }
}

/// A step budget no workload comes near: every run must end quiescent.
fn budget() -> RunBudget {
    RunBudget::steps(100_000_000)
}

/// One pass: build the initial configuration, run to quiescence, check.
fn net_pass(s: &NetSetup, expect: &Expect, rec: &mut Rec) -> Result<(), String> {
    let t = match &s.probed {
        Some((probed, totals)) => {
            totals.take();
            probed
        }
        None => &s.transducer,
    };
    let cfg = rec.time("net.init_s", || match s.exec {
        Exec::Dense => Configuration::initial(&s.net, t, &s.partition),
        Exec::Sparse => Configuration::initial_lean(&s.net, t, &s.partition),
    });
    let cfg = cfg.map_err(|e| e.to_string())?;
    let out = rec.time("net.run_s", || match s.exec {
        Exec::Dense => run_sharded_from(&s.net, t, cfg, &s.opts, &budget()),
        Exec::Sparse => run_sparse_from(&s.net, t, cfg, &s.opts, &budget()),
    });
    let out = out.map_err(|e| e.to_string())?;
    rec.check(expect.holds(&s.net, &out));
    rec.done();
    if rec.warmup() {
        rec.self_check(expect.corrupted().holds(&s.net, &out));
    }
    if rec.traced() {
        net_layers(s, &out, rec);
    }
    Ok(())
}

/// Per-layer metrics of a finished traced pass.
fn net_layers(s: &NetSetup, out: &ShardRunOutcome, rec: &mut Rec) {
    let o = &out.outcome;
    // The registry's net.* counters must agree with the outcome.
    let reg = rec.registry_diff();
    let reconciled = reg.counter("net.runs") == 1
        && reg.counter("net.steps") == o.steps as u64
        && reg.counter("net.heartbeats") == o.heartbeats as u64
        && reg.counter("net.deliveries") == o.deliveries as u64
        && reg.counter("net.messages_enqueued") == o.messages_enqueued as u64
        && reg.counter("net.rounds") == out.rounds as u64;
    if !reconciled {
        eprintln!("perfbench: registry net.* counters differ from the run outcome");
        rec.fail();
    }
    let n = s.net.len() as f64;
    rec.add("net.steps", o.steps as f64);
    rec.add("net.heartbeats", o.heartbeats as f64);
    rec.add("net.deliveries", o.deliveries as f64);
    rec.add("net.messages", o.messages_enqueued as f64);
    rec.add("net.rounds", out.rounds as f64);
    rec.add("net.max_active", out.max_active as f64);
    rec.add(
        "net.active_frac",
        o.heartbeats as f64 / (out.rounds.max(1) as f64 * n),
    );
    let run_s = rec.get("net.run_s");
    rec.add("net.step_us", run_s * 1e6 / o.steps.max(1) as f64);

    if let Some((_, totals)) = &s.probed {
        let (evals, eval_s, tuples) = totals.take();
        rec.add("query.evals", evals as f64);
        rec.add("query.eval_s", eval_s);
        rec.add("query.tuples_out", tuples as f64);
        rec.add("query.eval_share", eval_s / run_s);
    }

    let cfg = &o.final_config;
    let states: Vec<&Instance> = s.net.nodes().filter_map(|n| cfg.state(n)).collect();
    let total_facts: usize = states.iter().map(|st| st.fact_count()).sum();
    rec.add("relational.total_facts", total_facts as f64);
    add_storage_stats(rec, states.iter().copied());

    // Direct calls on a sample of final states, with the plain
    // transducer: one heartbeat step and one state copy each.
    let stride = (states.len() / SAMPLED_STATES).max(1);
    let sample: Vec<&Instance> = states.iter().step_by(stride).copied().collect();
    let (mut step_s, mut clone_s, mut facts) = (0.0, 0.0, 0usize);
    for st in &sample {
        let t0 = Instant::now();
        let step = s.transducer.heartbeat(st);
        step_s += t0.elapsed().as_secs_f64();
        black_box(step.is_ok());
        let t0 = Instant::now();
        let copy = black_box((*st).clone());
        clone_s += t0.elapsed().as_secs_f64();
        drop(copy);
        facts += st.fact_count();
    }
    let k = sample.len().max(1) as f64;
    rec.add("transducer.step_us", step_s * 1e6 / k);
    rec.add("relational.clone_us", clone_s * 1e6 / k);
    rec.add("transducer.state_facts", facts as f64 / k);
}

/// Set the workload up once to run its passes on; `drive` times fresh
/// set-ups between the passes.
fn bench(
    args: &RunArgs,
    setup: impl Fn() -> Result<NetSetup, String>,
    expect: Expect,
) -> Result<Report, String> {
    let s = setup()?;
    drive(args.start, args.budget, args.traced, &setup, |rec| {
        net_pass(&s, &expect, rec)
    })
}

fn unary(rel: &str, values: &[i64]) -> Result<Instance, String> {
    Instance::from_facts(
        Schema::new().with(rel, 1),
        values.iter().map(|&v| fact!(rel, v)).collect::<Vec<_>>(),
    )
    .map_err(|e| e.to_string())
}

fn flood(input: &Schema) -> Result<Transducer, String> {
    flood_transducer(input, FloodMode::Dedup, None).map_err(|e| e.to_string())
}

fn store_s(values: &[i64]) -> Result<Expect, String> {
    let rel = Relation::from_tuples(1, values.iter().map(|&v| Tuple::new(vec![Value::int(v)])))
        .map_err(|e| e.to_string())?;
    Ok(Expect::EveryStore(RelName::new("Store_S"), rel))
}

/// Distinct seeded values.
fn seeded_values(rng: &mut StdRng, k: usize) -> Vec<i64> {
    let mut vals: Vec<i64> = Vec::with_capacity(k);
    while vals.len() < k {
        let v = rng.gen_range(0..1_000_000i64);
        if !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals
}

/// `flood-dense`: 8 seeded values, each at one seeded node of the grid,
/// flooded on the dense round executor with parallel shard workers.
pub fn flood_dense(args: &RunArgs) -> Result<Report, String> {
    let values = seeded_values(&mut StdRng::seed_from_u64(args.seed), DENSE_VALUES);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let setup = || {
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9e37_79b9);
        let net = Network::grid(DENSE_SIDE, DENSE_SIDE).map_err(|e| e.to_string())?;
        let input = unary("S", &values)?;
        let partition = HorizontalPartition::random(&net, &input, 0.0, &mut rng);
        let t = flood(input.schema())?;
        let opts = ShardOptions::sharded(threads);
        NetSetup::new(net, t, partition, opts, Exec::Dense, args.traced)
    };
    bench(args, setup, store_s(&values)?)
}

/// `flood-sparse`: one seeded fact at a seeded first-column node of a
/// long grid, flooded serially on the sparse executor.
pub fn flood_sparse(args: &RunArgs) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let value = rng.gen_range(0..1_000_000i64);
    let row = rng.gen_range(0..SPARSE_ROWS);
    let setup = || {
        let net = Network::grid(SPARSE_COLS, SPARSE_ROWS).map_err(|e| e.to_string())?;
        let input = unary("S", &[value])?;
        let owner = Value::sym(format!("n{}", row * SPARSE_COLS));
        let partition =
            HorizontalPartition::concentrate(&net, &input, &owner).map_err(|e| e.to_string())?;
        let t = flood(input.schema())?;
        NetSetup::new(
            net,
            t,
            partition,
            ShardOptions::serial(),
            Exec::Sparse,
            args.traced,
        )
    };
    bench(args, setup, store_s(&[value])?)
}

/// `tc-ring`: Example 3 over a seeded relabeling of a chain, run
/// serially. Chain edge `i` starts at ring node `(r + i) mod TC_RING`
/// for a seeded `r`: the partition is seeded, but every seed gives a
/// rotation of the same placement, so the runs do the same work.
pub fn tc_ring(args: &RunArgs) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut labels: Vec<i64> = Vec::with_capacity(TC_EDGES + 1);
    let mut next = 0i64;
    for _ in 0..=TC_EDGES {
        next += rng.gen_range(1..1000i64);
        labels.push(next);
    }
    let edges: Vec<(i64, i64)> = labels.windows(2).map(|w| (w[0], w[1])).collect();
    // The reference closure of the chain, computed here.
    let closure = Relation::from_tuples(
        2,
        (0..labels.len()).flat_map(|i| {
            let labels = &labels;
            (i + 1..labels.len())
                .map(move |j| Tuple::new(vec![Value::int(labels[i]), Value::int(labels[j])]))
        }),
    )
    .map_err(|e| e.to_string())?;
    let rotation = rng.gen_range(0..TC_RING);
    let setup = || {
        let net = Network::ring(TC_RING).map_err(|e| e.to_string())?;
        let schema = Schema::new().with("S", 2);
        let input = Instance::from_facts(
            schema.clone(),
            edges
                .iter()
                .map(|&(a, b)| fact!("S", a, b))
                .collect::<Vec<_>>(),
        )
        .map_err(|e| e.to_string())?;
        let mut fragments: BTreeMap<NodeId, Instance> = (0..TC_RING)
            .map(|k| (Value::sym(format!("n{k}")), Instance::empty(schema.clone())))
            .collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            let node = Value::sym(format!("n{}", (rotation + i) % TC_RING));
            let fragment = fragments.get_mut(&node).ok_or("ring node names")?;
            fragment
                .insert_fact(fact!("S", a, b))
                .map_err(|e| e.to_string())?;
        }
        let partition =
            HorizontalPartition::new(&net, &input, fragments).map_err(|e| e.to_string())?;
        let t = ex3_transitive_closure(true).map_err(|e| e.to_string())?;
        NetSetup::new(
            net,
            t,
            partition,
            ShardOptions::serial(),
            Exec::Dense,
            args.traced,
        )
    };
    bench(args, setup, Expect::Output(closure))
}
