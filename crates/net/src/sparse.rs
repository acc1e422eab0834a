//! Event-driven sparse execution for huge networks.
//!
//! The round-synchronous executor ([`crate::run_sharded`]) heartbeats
//! every node every round. That is faithful and simple, but on a
//! million-node network with a hundred active nodes it pays 10⁶ steps
//! per round for 10² steps of progress. This module adds an
//! **event-driven** executor: quiescent nodes *park*, and only nodes
//! that are *armed* (their next heartbeat might do something) or have
//! *mail* (undelivered buffered facts) are scheduled.
//!
//! The work queue is a deterministic priority queue — the armed and
//! mail sets of [`ActivationSet`], ordered by node index — and its jobs
//! are dispatched to the same worker shards as the dense executor (the
//! shared [`Engine`](crate::shard) backend), so thread count and shard
//! plan still never affect results.
//!
//! ## Soundness of parking
//!
//! A heartbeat is a pure function of the node's own state. If a
//! heartbeat changed no state, sent nothing, and produced no new
//! output, then — until that node's state changes — every further
//! heartbeat is the same no-op, so the node can park. Its state can
//! only change through one of its own transitions, and the only
//! transition a parked node can still perform is a delivery; therefore
//! re-arming on (a) every fact enqueued to a node, (b) every delivery a
//! node performs, and (c) every fault that touches a node's state
//! (restart wipe, heal) preserves the invariant:
//!
//! > **a parked node's next heartbeat is provably a no-op.**
//!
//! Two corollaries drive the executor:
//!
//! * **No starvation.** Every node with undelivered mail is offered a
//!   delivery every round, whether parked or not — exactly the fairness
//!   property the paper's runs require (and which the satellite
//!   scheduler bugs of this PR violated in the seed drivers).
//! * **O(active) quiescence certification.** When no node is armed, no
//!   node has mail, nothing is in flight, and the fault horizon has
//!   passed, the configuration repeats forever. The stability probe is
//!   a set-emptiness check — it never wakes the whole network.
//!
//! One wrinkle: every node must heartbeat at least once before it may
//! park, since an initial state can produce output or sends on its
//! own. The executor schedules this arming sweep through a warm-up
//! queue rate-limited to 1% of the network per round, so warm-up costs
//! exactly `n` heartbeats in total but never floods a single phase.
//!
//! The price is that the executor is *not* step-for-step identical to
//! the dense one: it skips the no-op heartbeats the dense executor
//! performs, so step counters and transition logs differ. Outputs,
//! per-node outputs, and the quiescence verdict agree with the fair
//! serial reference on confluent transducers — property-tested in
//! `tests/sparse.rs` across random topologies, thread counts, budgets,
//! and fault plans.

use crate::config::{
    ActivationSet, Configuration, TransitionKind, TransitionLog, TransitionRecord,
};
use crate::error::NetError;
use crate::fault::{FaultHook, NodeFault};
use crate::partition::HorizontalPartition;
use crate::run::{RunBudget, RunOutcome};
use crate::shard::{
    decompose, run_sharded, run_sharded_faulted, spawn_sharded_engine, Engine, Job, JobKind,
    ShardOptions, ShardRunOutcome, StepOut,
};
use crate::shard::{worker_gone, ExecMode};
use crate::topology::{Network, NodeId};
use rtx_obs::trace;
use rtx_relational::{Fact, Relation};
use rtx_transducer::Transducer;
use std::collections::{BTreeMap, BTreeSet};

/// Which executor drives a round-based run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The dense round-synchronous executor ([`crate::run_sharded`]):
    /// every up node heartbeats every round.
    #[default]
    Rounds,
    /// The event-driven sparse executor ([`run_sparse`]): parked nodes
    /// are skipped; only armed or mailed nodes are scheduled.
    Sparse,
}

impl ExecutorKind {
    /// Parse an executor name (the accepted values of
    /// `RTX_NET_EXECUTOR`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rounds" | "dense" => Some(ExecutorKind::Rounds),
            "sparse" | "event" => Some(ExecutorKind::Sparse),
            _ => None,
        }
    }

    /// The executor selected by the `RTX_NET_EXECUTOR` environment
    /// variable (`rounds` or `sparse`), defaulting to
    /// [`ExecutorKind::Rounds`]. Parsed through [`rtx_core::env`], so a
    /// typo'd value warns loudly and falls back to the default.
    pub fn auto() -> Self {
        rtx_core::env::parse_choice("RTX_NET_EXECUTOR", "rounds or sparse", Self::parse)
            .unwrap_or_default()
    }

    /// Diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            ExecutorKind::Rounds => "rounds",
            ExecutorKind::Sparse => "sparse",
        }
    }
}

/// Run under an explicit executor choice.
pub fn run_executor(
    kind: ExecutorKind,
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    match kind {
        ExecutorKind::Rounds => run_sharded(net, transducer, partition, opts, budget),
        ExecutorKind::Sparse => run_sparse(net, transducer, partition, opts, budget),
    }
}

/// [`run_executor`] under fault injection.
pub fn run_executor_faulted(
    kind: ExecutorKind,
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    match kind {
        ExecutorKind::Rounds => {
            run_sharded_faulted(net, transducer, partition, opts, budget, faults)
        }
        ExecutorKind::Sparse => {
            run_sparse_faulted(net, transducer, partition, opts, budget, faults)
        }
    }
}

/// Run with the executor selected by `RTX_NET_EXECUTOR` (see
/// [`ExecutorKind::auto`]). This is the entry point CI's
/// `RTX_NET_EXECUTOR=sparse` pass pivots on.
pub fn run_auto(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    run_executor(
        ExecutorKind::auto(),
        net,
        transducer,
        partition,
        opts,
        budget,
    )
}

/// [`run_auto`] under fault injection.
pub fn run_auto_faulted(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    run_executor_faulted(
        ExecutorKind::auto(),
        net,
        transducer,
        partition,
        opts,
        budget,
        faults,
    )
}

/// Drive an event-driven sparse run of `(net, transducer)` from the
/// initial configuration for `partition`.
///
/// Accepts the same [`ShardOptions`] as [`crate::run_sharded`]
/// (execution mode, shard plan, per-round delivery scheduling and
/// batching, transition log) and the same [`RunBudget`] semantics:
/// `max_steps` counts executed transitions, phases truncate in node
/// order, `steps ≤ max_steps` always holds.
pub fn run_sparse(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sparse_from(net, transducer, cfg, opts, budget)
}

/// [`run_sparse`] from an explicit configuration.
pub fn run_sparse_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
) -> Result<ShardRunOutcome, NetError> {
    run_sparse_inner(net, transducer, cfg, opts, budget, None)
}

/// [`run_sparse`] under fault injection. Fault events feed the
/// activation tracker: released in-flight copies mark mail, restarted
/// (and memory-wiped) nodes are re-armed, lost buffers drop their mail
/// marks — so adversarial fault plans drive the sparse executor exactly
/// like the dense one.
pub fn run_sparse_faulted(
    net: &Network,
    transducer: &Transducer,
    partition: &HorizontalPartition,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    let cfg = Configuration::initial(net, transducer, partition)?;
    run_sparse_faulted_from(net, transducer, cfg, opts, budget, faults)
}

/// [`run_sparse_faulted`] from an explicit configuration.
pub fn run_sparse_faulted_from(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: &mut dyn FaultHook,
) -> Result<ShardRunOutcome, NetError> {
    run_sparse_inner(net, transducer, cfg, opts, budget, Some(faults))
}

fn run_sparse_inner(
    net: &Network,
    transducer: &Transducer,
    cfg: Configuration,
    opts: &ShardOptions,
    budget: &RunBudget,
    faults: Option<&mut dyn FaultHook>,
) -> Result<ShardRunOutcome, NetError> {
    let (nodes, states, buffers, adj) = decompose(net, cfg)?;
    let threads = opts.mode.threads().min(nodes.len()).max(1);
    match opts.mode {
        ExecMode::Sharded { .. } if threads > 1 => std::thread::scope(|scope| {
            let engine =
                spawn_sharded_engine(scope, transducer, &nodes, states, opts.plan, threads);
            drive_sparse(
                net, transducer, &nodes, &adj, buffers, engine, threads, opts, budget, faults,
            )
        }),
        _ => {
            let engine = Engine::Serial { states, transducer };
            drive_sparse(
                net, transducer, &nodes, &adj, buffers, engine, 1, opts, budget, faults,
            )
        }
    }
}

/// The sparse coordinator loop. Mirrors the dense coordinator's merge
/// discipline (node-order barriers, fault hook consulted only here) but
/// schedules phases from the activation tracker instead of the full
/// node range.
#[allow(clippy::too_many_arguments)]
fn drive_sparse(
    net: &Network,
    transducer: &Transducer,
    nodes: &[NodeId],
    adj: &[Vec<usize>],
    mut buffers: Vec<Vec<Fact>>,
    mut engine: Engine<'_>,
    threads_used: usize,
    opts: &ShardOptions,
    budget: &RunBudget,
    mut faults: Option<&mut dyn FaultHook>,
) -> Result<ShardRunOutcome, NetError> {
    let n = nodes.len();
    let t0 = rtx_obs::counting().then(std::time::Instant::now);
    let arity = transducer.schema().output_arity();
    let mut output = Relation::empty(arity);
    let mut outputs_per_node: BTreeMap<NodeId, Relation> = nodes
        .iter()
        .map(|nd| (*nd, Relation::empty(arity)))
        .collect();
    let mut steps = 0usize;
    let mut heartbeats = 0usize;
    let mut deliveries = 0usize;
    let mut messages_enqueued = 0usize;
    let mut rounds = 0usize;
    let mut max_active = 0usize;
    let mut quiescent = false;
    let mut reached_target = false;
    let mut log = opts.record_log.then(TransitionLog::new);
    // Every node must heartbeat once before it may park (an initial
    // state can produce output or sends). Sweeping them all in round 1
    // would schedule the whole network in a single phase, so the arming
    // sweep is rate-limited to 1% of the network (at least one node)
    // per round: warm-up still costs exactly n heartbeats in total, but
    // the scheduled frontier stays bounded by the event-driven frontier
    // plus the sweep chunk. A node consumed from the sweep is one that
    // actually ran, so budget truncation and down-phases never skip a
    // node's first heartbeat.
    let mut warmup: BTreeSet<usize> = (0..n).collect();
    let warmup_chunk = n.div_ceil(100);
    let mut act = ActivationSet::default();
    for (i, buf) in buffers.iter().enumerate() {
        if !buf.is_empty() {
            act.note_enqueue(i);
        }
    }
    let mut held: BTreeMap<u64, Vec<(usize, Fact)>> = BTreeMap::new();
    let mut down = vec![false; n];
    let mut idle_rounds = 0usize;

    // The barrier merge, identical in discipline to the dense
    // executor's: absorb outputs and sends in job (= node) order, with
    // every enqueued copy feeding the activation tracker. Returns, for
    // each job, whether the step was quiet (no state change, no sends,
    // no new output).
    let merge = |now: u64,
                 jobs: &[Job],
                 results: &mut BTreeMap<usize, StepOut>,
                 buffers: &mut Vec<Vec<Fact>>,
                 act: &mut ActivationSet,
                 held: &mut BTreeMap<u64, Vec<(usize, Fact)>>,
                 faults: &mut Option<&mut dyn FaultHook>,
                 output: &mut Relation,
                 outputs_per_node: &mut BTreeMap<NodeId, Relation>,
                 messages_enqueued: &mut usize,
                 log: &mut Option<TransitionLog>|
     -> Result<Vec<(usize, bool)>, NetError> {
        let mut quiet_flags = Vec::with_capacity(jobs.len());
        for (idx, kind) in jobs {
            let idx = *idx;
            let mut res = results.remove(&idx).ok_or_else(worker_gone)?;
            res.splice_obs();
            let new_out = !res.output.is_subset(output);
            let quiet = !res.state_changed && res.sent.is_empty() && !new_out;
            quiet_flags.push((idx, quiet));
            *output = output.union(&res.output).map_err(NetError::Rel)?;
            let per = outputs_per_node.get_mut(&nodes[idx]).expect("known node");
            *per = per.union(&res.output).map_err(NetError::Rel)?;
            let mut enqueued = 0usize;
            for &d in &adj[idx] {
                match faults {
                    None => {
                        for f in &res.sent {
                            buffers[d].push(f.clone());
                            act.note_enqueue(d);
                            enqueued += 1;
                        }
                    }
                    Some(fh) => {
                        for (k, f) in res.sent.iter().enumerate() {
                            let fate = fh.on_send(now, idx, d, k, f);
                            for &delay in &fate.delays {
                                if delay == 0 {
                                    buffers[d].push(f.clone());
                                    act.note_enqueue(d);
                                } else {
                                    held.entry(now + delay).or_default().push((d, f.clone()));
                                }
                                enqueued += 1;
                            }
                        }
                    }
                }
            }
            *messages_enqueued += enqueued;
            if let Some(log) = log {
                log.push(TransitionRecord {
                    node: nodes[idx],
                    round: now,
                    kind: match kind {
                        JobKind::Heartbeat => TransitionKind::Heartbeat,
                        JobKind::Deliver(f) => TransitionKind::Delivery(f.clone()),
                        JobKind::WipeMemory => unreachable!("wipes are not merged"),
                    },
                    output: res.output,
                    sent_facts: res.sent.len(),
                    enqueued,
                    state_changed: res.state_changed,
                });
            }
        }
        Ok(quiet_flags)
    };

    while steps < budget.max_steps {
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }
        rounds += 1;
        let now = rounds as u64;
        let _round_span = trace::span("net", "round", &[("round", now as i64)]);

        // Fault phase (coordinator-only). Note this resolves node
        // statuses for *all* nodes — fault plans key decisions on
        // (round, node), so skipping parked nodes would change fates.
        // Plain (fault-free) sparse runs skip this entirely and do no
        // O(n) work per round.
        let mut fault_horizon_passed = true;
        if let Some(fh) = faults.as_deref_mut() {
            let _fault_span = trace::span("net", "phase.fault", &[]);
            let due: Vec<u64> = held.range(..=now).map(|(k, _)| *k).collect();
            for k in due {
                for (dst, fact) in held.remove(&k).unwrap_or_default() {
                    rtx_obs::event!("net", "fault.release", "node" => dst);
                    buffers[dst].push(fact);
                    act.note_enqueue(dst);
                }
            }
            let mut wipes: Vec<Job> = Vec::new();
            for (i, d) in down.iter_mut().enumerate() {
                match fh.node_fault(now, i) {
                    NodeFault::Up => {
                        if *d {
                            // implicit restart (a heal): re-arm
                            act.note_restart(i);
                            rtx_obs::event!("sparse", "arm.heal", "node" => i);
                        }
                        *d = false;
                    }
                    NodeFault::CrashNow { lose_buffer } => {
                        *d = true;
                        rtx_obs::event!("net", "fault.crash", "node" => i, "lose_buffer" => lose_buffer as i64);
                        if lose_buffer {
                            buffers[i].clear();
                            act.note_buffer_lost(i);
                        }
                    }
                    NodeFault::Down => *d = true,
                    NodeFault::RestartNow { wipe_memory } => {
                        *d = false;
                        act.note_restart(i);
                        rtx_obs::event!("net", "fault.restart", "node" => i, "wipe_memory" => wipe_memory as i64);
                        rtx_obs::event!("sparse", "arm.restart", "node" => i);
                        if wipe_memory {
                            wipes.push((i, JobKind::WipeMemory));
                        }
                    }
                }
            }
            if !wipes.is_empty() {
                let mut results = engine.execute(wipes.clone())?;
                for (idx, _) in wipes {
                    if let Some(mut res) = results.remove(&idx) {
                        res.splice_obs();
                    }
                }
            }
            fault_horizon_passed = now > fh.quiet_after() && held.is_empty();
        }

        // O(active) stability probe: nothing armed, no mail, nothing in
        // flight, no future fault events — the configuration repeats
        // forever. Parked nodes need not be woken: their heartbeats are
        // provably no-ops (module docs).
        if warmup.is_empty() && act.is_quiet() && held.is_empty() && fault_horizon_passed {
            debug_assert!(buffers.iter().all(Vec::is_empty));
            quiescent = true;
            break;
        }

        // Heartbeat phase: armed up nodes plus this round's warm-up
        // chunk, ascending, budget-truncated.
        let quota = budget.max_steps - steps;
        let mut hb_set: BTreeSet<usize> = act.armed_nodes().filter(|&i| !down[i]).collect();
        for i in warmup
            .iter()
            .copied()
            .filter(|&i| !down[i])
            .take(warmup_chunk)
        {
            hb_set.insert(i);
        }
        let hb_jobs: Vec<Job> = hb_set
            .into_iter()
            .take(quota)
            .map(|i| (i, JobKind::Heartbeat))
            .collect();
        for (i, _) in &hb_jobs {
            warmup.remove(i);
        }
        let hb_count = hb_jobs.len();
        max_active = max_active.max(hb_count);
        let hb_span = trace::span("net", "phase.heartbeat", &[("jobs", hb_count as i64)]);
        let mut results = engine.execute(hb_jobs.clone())?;
        let quiet_flags = merge(
            now,
            &hb_jobs,
            &mut results,
            &mut buffers,
            &mut act,
            &mut held,
            &mut faults,
            &mut output,
            &mut outputs_per_node,
            &mut messages_enqueued,
            &mut log,
        )?;
        let arm_tracing = rtx_obs::tracing();
        for (idx, quiet) in quiet_flags {
            act.note_heartbeat(idx, quiet);
            if arm_tracing {
                // The executor's arm/park decision for this node: a
                // quiet heartbeat parks it until re-armed by mail,
                // delivery, or a fault; a productive one keeps it armed.
                if quiet {
                    trace::instant("sparse", "park", &[("node", idx as i64)]);
                } else {
                    trace::instant("sparse", "arm.active", &[("node", idx as i64)]);
                }
            }
        }
        drop(hb_span);
        steps += hb_count;
        heartbeats += hb_count;
        if steps >= budget.max_steps {
            break;
        }
        if let Some(target) = &budget.target_output {
            if !target.is_empty() && &output == target {
                reached_target = true;
                break;
            }
        }

        // Delivery sub-phases: one fact per mailed up node per
        // sub-phase, same batching and scheduling knobs as the dense
        // executor. Facts are removed (and the tracker updated) before
        // each sub-phase executes, so its deliveries are independent.
        let mut delivered_this_round = 0usize;
        for sub in 0..opts.delivery.per_round() {
            if steps >= budget.max_steps {
                break;
            }
            let quota = budget.max_steps - steps;
            let mail_now: Vec<usize> = act.mail_nodes().filter(|&i| !down[i]).collect();
            let mut dl_jobs: Vec<Job> = Vec::new();
            for i in mail_now {
                if dl_jobs.len() >= quota {
                    break;
                }
                if buffers[i].is_empty() {
                    // mail marks may outlive a buffer faulted away
                    act.note_buffer_lost(i);
                    continue;
                }
                let pick = opts.scheduling.pick(rounds, i, buffers[i].len());
                dl_jobs.push((i, JobKind::Deliver(buffers[i].remove(pick))));
                act.note_delivery(i, buffers[i].is_empty());
            }
            if dl_jobs.is_empty() {
                break;
            }
            let dl_count = dl_jobs.len();
            max_active = max_active.max(dl_count);
            let _dl_span = trace::span(
                "net",
                "phase.deliver",
                &[("sub", sub as i64), ("jobs", dl_count as i64)],
            );
            let mut results = engine.execute(dl_jobs.clone())?;
            merge(
                now,
                &dl_jobs,
                &mut results,
                &mut buffers,
                &mut act,
                &mut held,
                &mut faults,
                &mut output,
                &mut outputs_per_node,
                &mut messages_enqueued,
                &mut log,
            )?;
            steps += dl_count;
            deliveries += dl_count;
            delivered_this_round += dl_count;
        }

        if hb_count == 0 && delivered_this_round == 0 {
            if fault_horizon_passed {
                // Everything armed or mailed is down forever (the
                // quiescence probe above already handled the
                // nothing-left-to-do case): stop, non-quiescent.
                break;
            }
            // A restart or an in-flight copy is still ahead. Idle
            // rounds consume no budget steps; cap the streak like the
            // dense executor does.
            idle_rounds += 1;
            if idle_rounds > budget.max_steps {
                break;
            }
        } else {
            idle_rounds = 0;
        }
    }

    if let Some(target) = &budget.target_output {
        if &output == target && (quiescent || !target.is_empty()) {
            reached_target = true;
        }
    }

    let states = engine.finish(n)?;
    let final_config = Configuration::from_parts(
        nodes
            .iter()
            .cloned()
            .zip(states)
            .zip(buffers)
            .map(|((nd, st), buf)| (nd, st, buf)),
    );
    debug_assert_eq!(net.len(), n);
    let out = ShardRunOutcome {
        outcome: RunOutcome {
            output,
            outputs_per_node,
            steps,
            heartbeats,
            deliveries,
            messages_enqueued,
            quiescent,
            reached_target,
            final_config,
        },
        rounds,
        threads_used,
        max_active,
        log,
    };
    if let Some(t0) = t0 {
        out.publish();
        rtx_obs::registry::record("net.run_ns", t0.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SendFate;
    use crate::shard::{DeliveryPolicy, RoundScheduling, ShardPlan};
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Instance, Schema};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::CqRule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// Deduplicating flooder (same machine as the shard.rs tests).
    fn dedup_flooder() -> Transducer {
        let send = UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .unless(atom!("T"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let store = UcqQuery::new(
            1,
            vec![
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap(),
                CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        TransducerBuilder::new("dedup-flooder")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send("M", Arc::new(send))
            .insert("T", Arc::new(store))
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn input_s(vals: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("S", 1),
            vals.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn executor_kind_parses_and_defaults() {
        assert_eq!(ExecutorKind::parse("rounds"), Some(ExecutorKind::Rounds));
        assert_eq!(ExecutorKind::parse("Dense"), Some(ExecutorKind::Rounds));
        assert_eq!(ExecutorKind::parse("SPARSE"), Some(ExecutorKind::Sparse));
        assert_eq!(ExecutorKind::parse("event"), Some(ExecutorKind::Sparse));
        assert_eq!(ExecutorKind::parse("nope"), None);
        assert_eq!(ExecutorKind::default(), ExecutorKind::Rounds);
        assert_eq!(ExecutorKind::Sparse.name(), "sparse");
        assert_eq!(ExecutorKind::Rounds.name(), "rounds");
    }

    #[test]
    fn sparse_matches_dense_output_and_quiescence() {
        let t = dedup_flooder();
        for net in [
            Network::line(6).unwrap(),
            Network::ring(7).unwrap(),
            Network::grid(3, 4).unwrap(),
        ] {
            let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
            let budget = RunBudget::steps(200_000);
            let dense = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            let sparse = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
            assert_eq!(sparse.outcome.output, dense.outcome.output);
            assert_eq!(
                sparse.outcome.outputs_per_node,
                dense.outcome.outputs_per_node
            );
            assert!(
                sparse.outcome.steps <= dense.outcome.steps,
                "sparse must not do more work than dense"
            );
        }
    }

    #[test]
    fn sparse_sharded_matches_sparse_serial_bit_for_bit() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let serial = run_sparse(&net, &t, &p, &ShardOptions::serial().with_log(), &budget).unwrap();
        assert!(serial.outcome.quiescent);
        for threads in [2, 3, 4, 8] {
            for plan in [
                ShardPlan::Contiguous,
                ShardPlan::RoundRobin,
                ShardPlan::Hash,
            ] {
                let opts = ShardOptions::sharded(threads).with_plan(plan).with_log();
                let sharded = run_sparse(&net, &t, &p, &opts, &budget).unwrap();
                assert_eq!(sharded.log, serial.log, "threads={threads} plan={plan:?}");
                assert_eq!(sharded.outcome.final_config, serial.outcome.final_config);
                assert_eq!(sharded.outcome.steps, serial.outcome.steps);
                assert_eq!(sharded.rounds, serial.rounds);
                assert_eq!(sharded.max_active, serial.max_active);
            }
        }
    }

    #[test]
    fn sparse_parks_idle_nodes_on_a_long_line() {
        // One seeded fact at the end of a 100-node line: the active
        // frontier is the BFS wave, never the whole network.
        let net = Network::line(100).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[5]), &NodeId::sym("n0")).unwrap();
        let budget = RunBudget::steps(1_000_000);
        let dense = run_sharded(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        let sparse = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
        assert_eq!(sparse.outcome.output, dense.outcome.output);
        assert_eq!(dense.max_active, 100, "dense heartbeats everyone");
        assert!(
            sparse.max_active <= 8,
            "sparse frontier stayed tiny, got {}",
            sparse.max_active
        );
        assert!(
            sparse.outcome.steps * 10 <= dense.outcome.steps,
            "expected >=10x fewer node-steps: sparse={} dense={}",
            sparse.outcome.steps,
            dense.outcome.steps
        );
    }

    #[test]
    fn sparse_respects_step_budget() {
        let net = Network::line(5).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4]));
        for cap in [1usize, 3, 7] {
            let budget = RunBudget::steps(cap);
            let out = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
            assert!(out.outcome.steps <= cap);
            assert!(!out.outcome.quiescent);
            // Truncation is deterministic across thread counts too.
            let sharded = run_sparse(&net, &t, &p, &ShardOptions::sharded(3), &budget).unwrap();
            assert_eq!(sharded.outcome.final_config, out.outcome.final_config);
        }
    }

    #[test]
    fn sparse_honours_delivery_batching_and_random_scheduling() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3, 4, 5]));
        let budget = RunBudget::steps(200_000);
        let base = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        for opts in [
            ShardOptions::serial().with_delivery(DeliveryPolicy::Batch(4)),
            ShardOptions::serial().with_scheduling(RoundScheduling::Random { seed: 42 }),
        ] {
            let out = run_sparse(&net, &t, &p, &opts, &budget).unwrap();
            assert!(out.outcome.quiescent);
            assert_eq!(out.outcome.output, base.outcome.output);
        }
    }

    #[test]
    fn sparse_target_output_stops_early() {
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[5]), &NodeId::sym("n0")).unwrap();
        let target = Relation::from_tuples(1, vec![rtx_relational::tuple![5]]).unwrap();
        let budget = RunBudget::steps(10_000).until_output(target);
        let out = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert!(out.outcome.reached_target);
    }

    /// Same hand-written hook as the shard.rs tests: delays on edge
    /// (0→1), duplication into node 2, crash/restart of node 3.
    struct TestHook;
    impl FaultHook for TestHook {
        fn on_send(&mut self, _t: u64, src: usize, dst: usize, _k: usize, _f: &Fact) -> SendFate {
            if src == 0 && dst == 1 {
                SendFate::delayed(2)
            } else if dst == 2 {
                SendFate::copies(vec![0, 0])
            } else {
                SendFate::deliver()
            }
        }
        fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
            match (node, t) {
                (3, 2) => NodeFault::CrashNow { lose_buffer: true },
                (3, 3) => NodeFault::Down,
                (3, 4) => NodeFault::RestartNow { wipe_memory: true },
                _ => NodeFault::Up,
            }
        }
        fn quiet_after(&self) -> u64 {
            4
        }
    }

    #[test]
    fn sparse_faulted_matches_dense_faulted_outcome() {
        let net = Network::ring(6).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[10, 20, 30, 40]));
        let budget = RunBudget::steps(100_000);
        let dense = run_sharded_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        let sparse = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        assert!(dense.outcome.quiescent && sparse.outcome.quiescent);
        assert_eq!(sparse.outcome.output, dense.outcome.output);
        assert_eq!(
            sparse.outcome.outputs_per_node,
            dense.outcome.outputs_per_node
        );
        // And the sparse faulted run replays bit-identically across
        // thread counts.
        let serial_log = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial().with_log(),
            &budget,
            &mut TestHook,
        )
        .unwrap();
        for threads in [2, 4] {
            let sharded = run_sparse_faulted(
                &net,
                &t,
                &p,
                &ShardOptions::sharded(threads).with_log(),
                &budget,
                &mut TestHook,
            )
            .unwrap();
            assert_eq!(sharded.log, serial_log.log, "threads={threads}");
            assert_eq!(
                sharded.outcome.final_config,
                serial_log.outcome.final_config
            );
        }
    }

    #[test]
    fn sparse_dead_forever_network_terminates_without_quiescence() {
        struct AllDown;
        impl FaultHook for AllDown {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, _n: usize) -> NodeFault {
                if t == 1 {
                    NodeFault::CrashNow { lose_buffer: true }
                } else {
                    NodeFault::Down
                }
            }
            fn quiet_after(&self) -> u64 {
                1
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2]));
        let out = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &RunBudget::steps(100_000),
            &mut AllDown,
        )
        .unwrap();
        assert!(!out.outcome.quiescent);
        assert_eq!(out.outcome.steps, 0, "no node ever transitioned");
    }

    #[test]
    fn sparse_restart_rearms_wiped_node() {
        // Crash node 1 before it can store anything, restart it with
        // memory wiped after the flood has passed: re-arming on restart
        // must wake it so the still-buffered mail reaches it.
        struct CrashMiddle;
        impl FaultHook for CrashMiddle {
            fn on_send(&mut self, _: u64, _: usize, _: usize, _: usize, _: &Fact) -> SendFate {
                SendFate::deliver()
            }
            fn node_fault(&mut self, t: u64, node: usize) -> NodeFault {
                match (node, t) {
                    (1, 1..=5) => NodeFault::Down,
                    (1, 6) => NodeFault::RestartNow { wipe_memory: true },
                    _ => NodeFault::Up,
                }
            }
            fn quiet_after(&self) -> u64 {
                6
            }
        }
        let net = Network::line(3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::concentrate(&net, &input_s(&[9]), &NodeId::sym("n0")).unwrap();
        let budget = RunBudget::steps(100_000);
        let out = run_sparse_faulted(
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
            &mut CrashMiddle,
        )
        .unwrap();
        assert!(out.outcome.quiescent);
        assert_eq!(out.outcome.output.len(), 1);
        for per in out.outcome.outputs_per_node.values() {
            assert_eq!(
                per.len(),
                1,
                "every node, including the wiped one, caught up"
            );
        }
    }

    #[test]
    fn run_executor_dispatches_both_kinds() {
        let net = Network::line(4).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let budget = RunBudget::steps(100_000);
        let a = run_executor(
            ExecutorKind::Rounds,
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
        )
        .unwrap();
        let b = run_executor(
            ExecutorKind::Sparse,
            &net,
            &t,
            &p,
            &ShardOptions::serial(),
            &budget,
        )
        .unwrap();
        assert!(a.outcome.quiescent && b.outcome.quiescent);
        assert_eq!(a.outcome.output, b.outcome.output);
        // run_auto honours the default (rounds) when the env var is
        // unset; the CI sparse pass pins it process-wide instead.
        let c = run_auto(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        assert_eq!(c.outcome.output, a.outcome.output);
    }

    #[test]
    fn sparse_lean_initial_config_agrees_on_oblivious_machines() {
        let net = Network::grid(3, 3).unwrap();
        let t = dedup_flooder();
        let p = HorizontalPartition::round_robin(&net, &input_s(&[1, 2, 3]));
        let budget = RunBudget::steps(200_000);
        let eager = run_sparse(&net, &t, &p, &ShardOptions::serial(), &budget).unwrap();
        let lean_cfg = Configuration::initial_lean(&net, &t, &p).unwrap();
        let lean = run_sparse_from(&net, &t, lean_cfg, &ShardOptions::serial(), &budget).unwrap();
        assert!(lean.outcome.quiescent);
        assert_eq!(lean.outcome.output, eager.outcome.output);
        assert_eq!(
            lean.outcome.outputs_per_node,
            eager.outcome.outputs_per_node
        );
    }
}
