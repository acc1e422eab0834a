//! System configurations and global transitions (paper, Section 3).
//!
//! A configuration maps every node to a transducer state and a buffer of
//! undelivered messages. The paper's buffers are multisets; ours keep
//! arrival order as well, so that schedulers can realize FIFO behaviour
//! (the proof of Theorem 16 constructs a run with FIFO buffers), LIFO
//! behaviour, or arbitrary reorderings — the multiset semantics is
//! recovered by ignoring the order.

use crate::error::NetError;
use crate::fault::SendFate;
use crate::partition::HorizontalPartition;
use crate::topology::{Network, NodeId};
use rtx_relational::{Fact, FactMultiset, Instance, Relation, StorageMode};
use rtx_transducer::Transducer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A send interceptor for the scheduler-driven executor: decides the
/// fate of the `k`-th fact a transitioning node sends to one neighbor.
/// See [`crate::fault::FaultHook::on_send`] — this is the same decision
/// surface, shaped for [`Configuration::apply_heartbeat_intercepted`] /
/// [`Configuration::apply_delivery_intercepted`], which work in node
/// ids rather than indices.
pub type SendInterceptor<'a> = dyn FnMut(&NodeId, &NodeId, usize, &Fact) -> SendFate + 'a;

/// Where intercepted copies with a nonzero delay go: `(destination,
/// extra delay, fact)`, owned by the driver that manages maturity.
pub type DelayedSends = Vec<(NodeId, u64, Fact)>;

/// What kind of global transition happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransitionKind {
    /// `γ1 --v,∅--> γ2`: a node transitions without reading messages.
    Heartbeat,
    /// `γ1 --v,{f}--> γ2`: a node reads a single fact from its buffer.
    Delivery(Fact),
}

/// A record of one applied global transition.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitionRecord {
    /// The node that transitioned.
    pub node: NodeId,
    /// The 1-based round the transition executed in, when the record
    /// was produced by a round executor ([`crate::run_sharded`],
    /// [`crate::run_sparse`]); 0 for scheduler-driven applications
    /// ([`Configuration::apply_heartbeat`] and friends), which have no
    /// round structure.
    pub round: u64,
    /// Heartbeat or delivery (with the delivered fact).
    pub kind: TransitionKind,
    /// The output `J_out` of the local transition.
    pub output: Relation,
    /// Number of facts sent (each is enqueued at every neighbor).
    pub sent_facts: usize,
    /// Number of buffer entries added across all neighbors.
    pub enqueued: usize,
    /// Did the node's state change?
    pub state_changed: bool,
}

impl TransitionRecord {
    /// A transition that changed nothing observable.
    pub fn is_noop(&self) -> bool {
        !self.state_changed && self.sent_facts == 0 && self.output.is_empty()
    }
}

/// An ordered log of applied transitions.
///
/// The sharded runtime builds one log per run by appending phase records
/// in a fixed node order, so two runs agree step for step exactly when
/// their logs are equal — the determinism invariant of
/// [`crate::run_sharded`] is stated (and property-tested) as log
/// equality. Logs from disjoint shards merge by concatenation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransitionLog {
    records: Vec<TransitionRecord>,
}

impl TransitionLog {
    /// An empty log.
    pub fn new() -> Self {
        TransitionLog::default()
    }

    /// Append one record.
    pub fn push(&mut self, rec: TransitionRecord) {
        self.records.push(rec);
    }

    /// Append every record of `other`, in order (shard merge).
    pub fn merge(&mut self, other: TransitionLog) {
        self.records.extend(other.records);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in application order.
    pub fn records(&self) -> &[TransitionRecord] {
        &self.records
    }

    /// Iterate over the records.
    pub fn iter(&self) -> impl Iterator<Item = &TransitionRecord> {
        self.records.iter()
    }
}

impl FromIterator<TransitionRecord> for TransitionLog {
    fn from_iter<I: IntoIterator<Item = TransitionRecord>>(iter: I) -> Self {
        TransitionLog {
            records: iter.into_iter().collect(),
        }
    }
}

/// A configuration of a transducer network.
#[derive(Clone, PartialEq, Eq)]
pub struct Configuration {
    states: BTreeMap<NodeId, Instance>,
    buffers: BTreeMap<NodeId, Vec<Fact>>,
}

impl Configuration {
    /// The initial configuration for a horizontal partition: every node
    /// holds its input fragment, `Id`/`All` are set, memory and buffers
    /// are empty (paper, Section 4).
    ///
    /// `All` is built once, as one relation of n tuples, and every
    /// node's state shares it (see
    /// [`rtx_transducer::TransducerSchema::initial_state_sharing`]): the
    /// configuration costs O(n) facts, not Θ(n²), and a step never
    /// copies it.
    pub fn initial(
        net: &Network,
        transducer: &Transducer,
        partition: &HorizontalPartition,
    ) -> Result<Self, NetError> {
        let all = rtx_transducer::all_relation(StorageMode::global(), &net.node_set())
            .map_err(NetError::Rel)?;
        let all = Arc::new(all);
        let mut states = BTreeMap::new();
        let mut buffers = BTreeMap::new();
        for node in net.nodes() {
            let fragment = partition
                .fragment(node)
                .ok_or_else(|| NetError::Partition(format!("no fragment for node {node}")))?;
            let state = transducer
                .schema()
                .initial_state_sharing(fragment, node, &all)
                .map_err(NetError::Rel)?;
            states.insert(*node, state);
            buffers.insert(*node, Vec::new());
        }
        Ok(Configuration { states, buffers })
    }

    /// An alias of [`Configuration::initial`], kept for existing
    /// callers. With one `All` shared by every node, leaving `All` empty
    /// for transducers that never read it would save nothing.
    pub fn initial_lean(
        net: &Network,
        transducer: &Transducer,
        partition: &HorizontalPartition,
    ) -> Result<Self, NetError> {
        Configuration::initial(net, transducer, partition)
    }

    /// Decompose into per-node `(state, buffer)` pairs, in node order.
    ///
    /// This is the shape the sharded runtime works on: states are
    /// distributed to worker shards (each node's state is only ever read
    /// and written by its owning shard) while buffers stay with the
    /// coordinator, which merges outboxes into them in a fixed order.
    /// [`Configuration::from_parts`] reassembles the configuration.
    pub fn into_parts(self) -> Vec<(NodeId, Instance, Vec<Fact>)> {
        let mut buffers = self.buffers;
        self.states
            .into_iter()
            .map(|(n, st)| {
                let buf = buffers.remove(&n).unwrap_or_default();
                (n, st, buf)
            })
            .collect()
    }

    /// Reassemble a configuration from per-node parts (inverse of
    /// [`Configuration::into_parts`]).
    pub fn from_parts(parts: impl IntoIterator<Item = (NodeId, Instance, Vec<Fact>)>) -> Self {
        let mut states = BTreeMap::new();
        let mut buffers = BTreeMap::new();
        for (n, st, buf) in parts {
            states.insert(n, st);
            buffers.insert(n, buf);
        }
        Configuration { states, buffers }
    }

    /// The state of a node.
    pub fn state(&self, node: &NodeId) -> Option<&Instance> {
        self.states.get(node)
    }

    /// The message buffer of a node, in arrival order.
    pub fn buffer(&self, node: &NodeId) -> &[Fact] {
        self.buffers.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The buffer of a node as a multiset (order-insensitive view).
    pub fn buffer_multiset(&self, node: &NodeId) -> FactMultiset {
        self.buffer(node).iter().cloned().collect()
    }

    /// Are all buffers empty?
    pub fn all_buffers_empty(&self) -> bool {
        self.buffers.values().all(Vec::is_empty)
    }

    /// Total number of undelivered messages.
    pub fn buffered_total(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Nodes with a nonempty buffer, in order.
    pub fn nodes_with_mail(&self) -> impl Iterator<Item = &NodeId> {
        self.buffers
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(n, _)| n)
    }

    /// Apply a heartbeat transition at `node`.
    pub fn apply_heartbeat(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
    ) -> Result<TransitionRecord, NetError> {
        let empty = Instance::empty(transducer.schema().message().clone());
        self.apply(
            net,
            transducer,
            node,
            empty,
            TransitionKind::Heartbeat,
            None,
        )
    }

    /// Apply a delivery transition at `node`, reading the buffered fact
    /// at `index` (single-fact delivery, per the paper).
    pub fn apply_delivery(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        index: usize,
    ) -> Result<TransitionRecord, NetError> {
        let (received, kind) = self.take_delivery(transducer, node, index)?;
        self.apply(net, transducer, node, received, kind, None)
    }

    /// Like [`Configuration::apply_heartbeat`], but every sent copy's
    /// fate is decided by `intercept`; copies fated with a nonzero delay
    /// are pushed onto `delayed` as `(destination, extra delay, fact)`
    /// instead of being enqueued — the caller owns their maturity (see
    /// [`Configuration::enqueue_fact`]).
    pub fn apply_heartbeat_intercepted(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        intercept: &mut SendInterceptor<'_>,
        delayed: &mut DelayedSends,
    ) -> Result<TransitionRecord, NetError> {
        let empty = Instance::empty(transducer.schema().message().clone());
        self.apply(
            net,
            transducer,
            node,
            empty,
            TransitionKind::Heartbeat,
            Some((intercept, delayed)),
        )
    }

    /// Like [`Configuration::apply_delivery`], with send interception
    /// (see [`Configuration::apply_heartbeat_intercepted`]).
    pub fn apply_delivery_intercepted(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        index: usize,
        intercept: &mut SendInterceptor<'_>,
        delayed: &mut DelayedSends,
    ) -> Result<TransitionRecord, NetError> {
        let (received, kind) = self.take_delivery(transducer, node, index)?;
        self.apply(
            net,
            transducer,
            node,
            received,
            kind,
            Some((intercept, delayed)),
        )
    }

    /// Remove the buffered fact at `index` of `node` and wrap it as a
    /// received message instance.
    fn take_delivery(
        &mut self,
        transducer: &Transducer,
        node: &NodeId,
        index: usize,
    ) -> Result<(Instance, TransitionKind), NetError> {
        let buf = self
            .buffers
            .get_mut(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        if index >= buf.len() {
            return Err(NetError::Partition(format!(
                "delivery index {index} out of range for node {node} (buffer has {})",
                buf.len()
            )));
        }
        let fact = buf.remove(index);
        let mut received = Instance::empty(transducer.schema().message().clone());
        received.insert_fact(fact.clone()).map_err(NetError::Rel)?;
        Ok((received, TransitionKind::Delivery(fact)))
    }

    /// Enqueue a fact into a node's buffer directly. Fault-injection
    /// hook: the release of a matured delayed/duplicated in-flight copy.
    pub fn enqueue_fact(&mut self, node: &NodeId, fact: Fact) -> Result<(), NetError> {
        self.buffers
            .get_mut(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?
            .push(fact);
        Ok(())
    }

    /// Drop every buffered message at a node (a lossy crash). Returns
    /// how many messages were lost.
    pub fn clear_buffer(&mut self, node: &NodeId) -> Result<usize, NetError> {
        let buf = self
            .buffers
            .get_mut(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        let n = buf.len();
        buf.clear();
        Ok(n)
    }

    /// Clear a node's memory relations — a restart under the
    /// *persistent-EDB* semantics: the input fragment and `Id`/`All` are
    /// durable, soft state is lost. Returns whether anything was
    /// cleared.
    pub fn wipe_memory(
        &mut self,
        transducer: &Transducer,
        node: &NodeId,
    ) -> Result<bool, NetError> {
        let state = self
            .states
            .get_mut(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        wipe_memory_relations(transducer, state).map_err(NetError::Rel)
    }

    fn apply(
        &mut self,
        net: &Network,
        transducer: &Transducer,
        node: &NodeId,
        received: Instance,
        kind: TransitionKind,
        mut faults: Option<(&mut SendInterceptor<'_>, &mut DelayedSends)>,
    ) -> Result<TransitionRecord, NetError> {
        let state = self
            .states
            .get(node)
            .ok_or_else(|| NetError::Topology(format!("unknown node {node}")))?;
        let res = transducer.step(state, &received).map_err(NetError::Eval)?;
        let state_changed = res.memory_changed;
        let sent: Vec<Fact> = res.sent.facts().collect();
        let mut enqueued = 0usize;
        for neighbor in net.neighbors(node) {
            match &mut faults {
                None => {
                    let buf = self
                        .buffers
                        .get_mut(neighbor)
                        .expect("all nodes have buffers");
                    for f in &sent {
                        buf.push(f.clone());
                        enqueued += 1;
                    }
                }
                Some((intercept, delayed)) => {
                    for (k, f) in sent.iter().enumerate() {
                        let fate = intercept(node, neighbor, k, f);
                        for &d in &fate.delays {
                            if d == 0 {
                                self.buffers
                                    .get_mut(neighbor)
                                    .expect("all nodes have buffers")
                                    .push(f.clone());
                            } else {
                                delayed.push((*neighbor, d, f.clone()));
                            }
                            enqueued += 1;
                        }
                    }
                }
            }
        }
        self.states.insert(*node, res.new_state);
        Ok(TransitionRecord {
            node: *node,
            round: 0,
            kind,
            output: res.output,
            sent_facts: sent.len(),
            enqueued,
            state_changed,
        })
    }
}

/// Activation tracking for the event-driven sparse executor
/// ([`crate::sparse`]): which node indices are *armed* (must be offered
/// a heartbeat) and which have *mail* (must be offered a delivery).
///
/// The transitions encode the executor's re-arming rules:
///
/// * every node must heartbeat at least once before it may park,
///   because an initial state can produce output or sends — the sparse
///   executor schedules this through a rate-limited warm-up queue
///   (or seed the tracker with [`ActivationSet::all_armed`]);
/// * a fact enqueued to a node marks its mail and re-arms it;
/// * a delivery re-arms the delivering node (its state may have changed,
///   so its next heartbeat is not provably a no-op);
/// * a *quiet* heartbeat (no state change, no sends, no new output)
///   parks the node — unless it still has pending mail;
/// * a crashed node that loses its buffer drops its mail mark;
/// * a restarted or partition-healed node is re-armed.
///
/// Parking can never starve a node with undelivered mail: a node leaves
/// `mail` only when its buffer drains (or is faulted away), and the
/// executor offers every `mail` node a delivery each round regardless
/// of `armed`. Dually, quiescence may be certified from `is_quiet`
/// without waking the whole network: a parked node's heartbeat is a
/// pure function of its state, which cannot change without a delivery —
/// and any delivery would have re-armed it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActivationSet {
    armed: BTreeSet<usize>,
    mail: BTreeSet<usize>,
}

impl ActivationSet {
    /// The initial tracker for `n` nodes: all armed, no mail.
    pub fn all_armed(n: usize) -> Self {
        ActivationSet {
            armed: (0..n).collect(),
            mail: BTreeSet::new(),
        }
    }

    /// A fact was enqueued to `node`: mark mail and re-arm.
    pub fn note_enqueue(&mut self, node: usize) {
        self.mail.insert(node);
        self.armed.insert(node);
    }

    /// `node` heartbeat; `quiet` means no state change, no sends, and
    /// no new output. A quiet node with no pending mail parks.
    pub fn note_heartbeat(&mut self, node: usize, quiet: bool) {
        if quiet && !self.mail.contains(&node) {
            self.armed.remove(&node);
        } else {
            self.armed.insert(node);
        }
    }

    /// `node` delivered a buffered fact; `buffer_now_empty` reports
    /// whether its buffer drained. Deliveries always re-arm.
    pub fn note_delivery(&mut self, node: usize, buffer_now_empty: bool) {
        self.armed.insert(node);
        if buffer_now_empty {
            self.mail.remove(&node);
        }
    }

    /// `node` restarted (or a partition around it healed): re-arm.
    pub fn note_restart(&mut self, node: usize) {
        self.armed.insert(node);
    }

    /// `node`'s buffer was lost to a crash: drop its mail mark.
    pub fn note_buffer_lost(&mut self, node: usize) {
        self.mail.remove(&node);
    }

    /// Armed node indices, ascending (the deterministic work queue).
    pub fn armed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.armed.iter().copied()
    }

    /// Node indices with pending mail, ascending.
    pub fn mail_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.mail.iter().copied()
    }

    /// Is `node` armed?
    pub fn is_armed(&self, node: usize) -> bool {
        self.armed.contains(&node)
    }

    /// Does `node` have pending mail?
    pub fn has_mail(&self, node: usize) -> bool {
        self.mail.contains(&node)
    }

    /// Number of armed nodes.
    pub fn armed_count(&self) -> usize {
        self.armed.len()
    }

    /// Number of nodes with pending mail.
    pub fn mail_count(&self) -> usize {
        self.mail.len()
    }

    /// Size of the active frontier: nodes that are armed or have mail.
    pub fn active_count(&self) -> usize {
        self.armed.union(&self.mail).count()
    }

    /// No node is armed and no node has mail — together with empty
    /// in-flight state this certifies quiescence.
    pub fn is_quiet(&self) -> bool {
        self.armed.is_empty() && self.mail.is_empty()
    }
}

/// Clear the memory relations of a transducer state in place; `true`
/// when anything was cleared. Shared by [`Configuration::wipe_memory`]
/// and the sharded executor's restart jobs.
pub(crate) fn wipe_memory_relations(
    transducer: &Transducer,
    state: &mut Instance,
) -> Result<bool, rtx_relational::RelError> {
    let mut cleared = false;
    let mem: Vec<(rtx_relational::RelName, usize)> = transducer
        .schema()
        .memory()
        .iter()
        .map(|(n, a)| (n.clone(), a))
        .collect();
    for (name, arity) in mem {
        let nonempty = state
            .relation_ref(&name)
            .map(|r| !r.is_empty())
            .unwrap_or(false);
        if nonempty {
            state.set_relation(name, Relation::empty(arity))?;
            cleared = true;
        }
    }
    Ok(cleared)
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "configuration:")?;
        for (n, st) in &self.states {
            writeln!(
                f,
                "  {n}: state {} facts, buffer {} msgs",
                st.fact_count(),
                self.buffer(n).len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::{atom, CqBuilder, QueryRef, Term, UcqQuery};
    use rtx_relational::{fact, Schema};
    use rtx_transducer::TransducerBuilder;
    use std::sync::Arc;

    fn cq(rule: rtx_query::CqRule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// Sends local S on every step; stores received M facts in T.
    fn flooder() -> Transducer {
        TransducerBuilder::new("flooder")
            .input_relation("S", 1)
            .message_relation("M", 1)
            .memory_relation("T", 1)
            .output_arity(1)
            .send(
                "M",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("S"; @"X"))
                    .build()
                    .unwrap()),
            )
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("M"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(cq(CqBuilder::head(vec![Term::var("X")])
                .when(atom!("T"; @"X"))
                .build()
                .unwrap()))
            .build()
            .unwrap()
    }

    fn setup() -> (Network, Transducer, Configuration) {
        let net = Network::line(2).unwrap();
        let t = flooder();
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p = HorizontalPartition::concentrate(&net, &full, &rtx_relational::Value::sym("n0"))
            .unwrap();
        let cfg = Configuration::initial(&net, &t, &p).unwrap();
        (net, t, cfg)
    }

    #[test]
    fn initial_configuration_shape() {
        let (net, _, cfg) = setup();
        assert!(cfg.all_buffers_empty());
        for n in net.nodes() {
            let st = cfg.state(n).unwrap();
            assert!(st.contains_fact(&Fact::new("Id", rtx_relational::Tuple::new(vec![*n]))));
            assert_eq!(st.relation(&"All".into()).unwrap().len(), 2);
        }
        assert_eq!(
            cfg.state(&rtx_relational::Value::sym("n0"))
                .unwrap()
                .relation(&"S".into())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn heartbeat_floods_to_neighbors() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        let rec = cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        assert_eq!(rec.sent_facts, 1);
        assert_eq!(rec.enqueued, 1); // one neighbor
        assert_eq!(cfg.buffer(&n1).len(), 1);
        assert!(cfg.buffer(&n0).is_empty()); // no self-delivery
    }

    #[test]
    fn delivery_consumes_one_copy_and_updates_state() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        cfg.apply_heartbeat(&net, &t, &n0).unwrap(); // second copy
        assert_eq!(cfg.buffer(&n1).len(), 2);
        let rec = cfg.apply_delivery(&net, &t, &n1, 0).unwrap();
        assert!(matches!(rec.kind, TransitionKind::Delivery(_)));
        assert!(rec.state_changed);
        assert_eq!(cfg.buffer(&n1).len(), 1);
        assert!(cfg.state(&n1).unwrap().contains_fact(&fact!("T", 7)));
        // second delivery of the same fact: state no longer changes
        let rec2 = cfg.apply_delivery(&net, &t, &n1, 0).unwrap();
        assert!(!rec2.state_changed);
    }

    #[test]
    fn delivery_index_out_of_range() {
        let (net, t, mut cfg) = setup();
        let n1 = rtx_relational::Value::sym("n1");
        assert!(cfg.apply_delivery(&net, &t, &n1, 0).is_err());
    }

    #[test]
    fn buffer_multiset_view() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        let ms = cfg.buffer_multiset(&n1);
        assert_eq!(ms.count(&fact!("M", 7)), 2);
        assert_eq!(cfg.buffered_total(), 2);
        assert_eq!(cfg.nodes_with_mail().count(), 1);
    }

    #[test]
    fn unknown_node_errors() {
        let (net, t, mut cfg) = setup();
        let zz = rtx_relational::Value::sym("zz");
        assert!(cfg.apply_heartbeat(&net, &t, &zz).is_err());
    }

    #[test]
    fn parts_round_trip() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        cfg.apply_heartbeat(&net, &t, &n0).unwrap(); // nonempty buffer at n1
        let copy = cfg.clone();
        let parts = cfg.into_parts();
        assert_eq!(parts.len(), 2);
        let back = Configuration::from_parts(parts);
        assert_eq!(back, copy);
    }

    #[test]
    fn transition_log_merge_and_equality() {
        let (net, t, mut cfg) = setup();
        let n0 = rtx_relational::Value::sym("n0");
        let n1 = rtx_relational::Value::sym("n1");
        let r0 = cfg.apply_heartbeat(&net, &t, &n0).unwrap();
        let r1 = cfg.apply_heartbeat(&net, &t, &n1).unwrap();
        let mut a = TransitionLog::new();
        a.push(r0.clone());
        let b: TransitionLog = [r1.clone()].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        let c: TransitionLog = [r0, r1].into_iter().collect();
        assert_eq!(a, c);
        assert_eq!(a.iter().count(), a.records().len());
    }

    #[test]
    fn noop_detection() {
        let (net, t, mut cfg) = setup();
        let n1 = rtx_relational::Value::sym("n1");
        // n1 has no input: heartbeat sends nothing, changes nothing
        let rec = cfg.apply_heartbeat(&net, &t, &n1).unwrap();
        assert!(rec.is_noop());
    }

    #[test]
    fn initial_lean_equals_initial() {
        let net = Network::line(3).unwrap();
        let t = flooder(); // references neither Id nor All
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p = HorizontalPartition::round_robin(&net, &full);
        let lean = Configuration::initial_lean(&net, &t, &p).unwrap();
        assert_eq!(lean, Configuration::initial(&net, &t, &p).unwrap());
        for n in net.nodes() {
            let all = lean.state(n).unwrap().relation_ref(&"All".into());
            assert_eq!(all.map(Relation::len), Some(3), "{n}");
        }
    }

    #[test]
    fn initial_shares_one_all_relation_on_grid_256() {
        let net = Network::grid(16, 16).unwrap();
        let t = flooder();
        let full = Instance::from_facts(Schema::new().with("S", 1), vec![fact!("S", 7)]).unwrap();
        let p = HorizontalPartition::round_robin(&net, &full);
        let cfg = Configuration::initial(&net, &t, &p).unwrap();
        let all_of = |n: &NodeId| cfg.state(n).unwrap().relation_ref(&"All".into()).unwrap();
        let first = all_of(net.nodes().next().unwrap());
        assert_eq!(first.len(), 256);
        for n in net.nodes() {
            let all = all_of(n);
            assert!(std::ptr::eq(all, first), "{n} holds its own All");
            if let (Some(a), Some(b)) = (all.columnar_run(), first.columnar_run()) {
                assert!(Arc::ptr_eq(&a, &b), "{n}: All is not one run");
            }
        }
    }

    #[test]
    fn activation_set_parks_and_rearms() {
        let mut act = ActivationSet::all_armed(3);
        assert_eq!(act.armed_count(), 3);
        assert_eq!(act.mail_count(), 0);
        assert!(!act.is_quiet());
        // quiet heartbeats park nodes 0 and 2; node 1 was loud
        act.note_heartbeat(0, true);
        act.note_heartbeat(1, false);
        act.note_heartbeat(2, true);
        assert!(!act.is_armed(0) && act.is_armed(1) && !act.is_armed(2));
        // an enqueue re-arms a parked node and marks mail
        act.note_enqueue(2);
        assert!(act.is_armed(2) && act.has_mail(2));
        assert_eq!(act.mail_nodes().collect::<Vec<_>>(), vec![2]);
        // a quiet heartbeat cannot park a node with pending mail
        act.note_heartbeat(2, true);
        assert!(act.is_armed(2), "parking must never starve pending mail");
        // delivery drains the buffer: mail cleared, still armed
        act.note_delivery(2, true);
        assert!(act.is_armed(2) && !act.has_mail(2));
        // now a quiet heartbeat parks it
        act.note_heartbeat(2, true);
        act.note_heartbeat(1, true);
        assert!(act.is_quiet());
        // restart re-arms
        act.note_restart(1);
        assert_eq!(act.armed_nodes().collect::<Vec<_>>(), vec![1]);
        assert_eq!(act.active_count(), 1);
    }

    #[test]
    fn activation_set_buffer_loss_clears_mail() {
        let mut act = ActivationSet::all_armed(2);
        act.note_enqueue(1);
        act.note_delivery(1, false); // one of two facts delivered
        assert!(act.has_mail(1));
        act.note_buffer_lost(1);
        assert!(!act.has_mail(1));
    }
}
