//! The abstract relational transducer and its deterministic local
//! transition (paper, Section 2.1).

use crate::schema::TransducerSchema;
use rtx_query::{EvalError, Query, QueryRef};
use rtx_relational::{Instance, RelName, Relation};
use std::collections::BTreeMap;
use std::fmt;

/// An abstract relational transducer: a collection of queries
/// `{Q_snd^R | R ∈ S_msg} ∪ {Q_ins^R, Q_del^R | R ∈ S_mem} ∪ {Q_out}`
/// over the combined schema.
pub struct Transducer {
    schema: TransducerSchema,
    snd: BTreeMap<RelName, QueryRef>,
    ins: BTreeMap<RelName, QueryRef>,
    del: BTreeMap<RelName, QueryRef>,
    out: QueryRef,
    /// Optional label for diagnostics.
    name: String,
}

/// The result of one local transition `I, I_rcv --Jout--> J, J_snd`.
///
/// `new_state` shares every relation the step did not change with the
/// old state — the input and system relations always, a memory
/// relation whenever its update left it as it was — so producing it
/// costs O(#relations), not O(facts).
#[derive(Clone, Debug)]
pub struct StepResult {
    /// The successor state `J` (input and system relations unchanged,
    /// memory updated).
    pub new_state: Instance,
    /// The sent message instance `J_snd`.
    pub sent: Instance,
    /// The output tuples `J_out` (outputs are cumulative and can never be
    /// retracted).
    pub output: Relation,
    /// Did some memory relation change (`J ≠ I`)? Only memory can
    /// change, so this equals `new_state != state` without comparing
    /// whole instances.
    pub memory_changed: bool,
}

impl StepResult {
    /// Did the transition change nothing observable (memory unchanged, no
    /// sends, no output)? Used for heartbeat-fixpoint detection.
    pub fn is_noop(&self) -> bool {
        self.sent.is_empty() && self.output.is_empty() && !self.memory_changed
    }
}

impl Transducer {
    pub(crate) fn from_parts(
        schema: TransducerSchema,
        snd: BTreeMap<RelName, QueryRef>,
        ins: BTreeMap<RelName, QueryRef>,
        del: BTreeMap<RelName, QueryRef>,
        out: QueryRef,
        name: String,
    ) -> Self {
        Transducer {
            schema,
            snd,
            ins,
            del,
            out,
            name,
        }
    }

    /// The transducer schema.
    pub fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The send query for a message relation.
    pub fn snd_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.snd.get(rel)
    }

    /// The insertion query for a memory relation.
    pub fn ins_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.ins.get(rel)
    }

    /// The deletion query for a memory relation.
    pub fn del_query(&self, rel: &RelName) -> Option<&QueryRef> {
        self.del.get(rel)
    }

    /// The output query.
    pub fn out_query(&self) -> &QueryRef {
        &self.out
    }

    /// All queries with role labels, in a deterministic order.
    pub fn queries(&self) -> impl Iterator<Item = (String, &QueryRef)> {
        self.snd
            .iter()
            .map(|(r, q)| (format!("snd[{r}]"), q))
            .chain(self.ins.iter().map(|(r, q)| (format!("ins[{r}]"), q)))
            .chain(self.del.iter().map(|(r, q)| (format!("del[{r}]"), q)))
            .chain(std::iter::once(("out".to_string(), &self.out)))
    }

    /// Perform one deterministic local transition.
    ///
    /// `state` is an instance of the state schema; `received` an instance
    /// of the message schema (empty for a heartbeat). Implements the
    /// paper's update formula for every memory relation `R`:
    ///
    /// ```text
    /// J(R) = (Q_ins(I') \ Q_del(I'))
    ///      ∪ (Q_ins(I') ∩ Q_del(I') ∩ I(R))
    ///      ∪ (I(R) \ (Q_ins(I') ∪ Q_del(I')))
    /// ```
    ///
    /// i.e. conflicting insert/deletes are ignored, and an assignment
    /// `R := Q` is expressed by `Q_ins = Q`, `Q_del = R`.
    ///
    /// `I'` shares the relations of `state` and `received` instead of
    /// copying them, and the successor state rewrites only the memory
    /// relations that changed (see [`StepResult`]).
    pub fn step(&self, state: &Instance, received: &Instance) -> Result<StepResult, EvalError> {
        // I' = I ∪ I_rcv: state and message schemas are disjoint, so
        // this is the combined schema, built by sharing relations.
        let combined = state.union(received)?;

        // Sends.
        let mut sent = Instance::empty(self.schema.message().clone());
        for (rel, _) in self.schema.message().iter() {
            let q = self
                .snd
                .get(rel)
                .expect("builder populates every message relation");
            sent.set_relation(rel.clone(), q.eval(&combined)?)?;
        }

        // Output.
        let output = self.out.eval(&combined)?;

        // Memory update.
        let mut new_state = state.clone();
        let mut memory_changed = false;
        for (rel, _) in self.schema.memory().iter() {
            let ins_q = self
                .ins
                .get(rel)
                .expect("builder populates every memory relation");
            let del_q = self
                .del
                .get(rel)
                .expect("builder populates every memory relation");
            let ins = ins_q.eval(&combined)?;
            let del = del_q.eval(&combined)?;
            let cur = state.relation(rel)?;
            let keep_new = ins.difference(&del)?; // inserted, not deleted
            let conflicted = ins.intersect(&del)?.intersect(&cur)?; // both: ignore (keep if present)
            let untouched = cur.difference(&ins.union(&del)?)?; // neither mentioned
            let next = keep_new.union(&conflicted)?.union(&untouched)?;
            if next != cur {
                memory_changed = true;
                new_state.set_relation(rel.clone(), next)?;
            }
        }

        Ok(StepResult {
            new_state,
            sent,
            output,
            memory_changed,
        })
    }

    /// A heartbeat transition: a step with no received messages.
    pub fn heartbeat(&self, state: &Instance) -> Result<StepResult, EvalError> {
        let empty = Instance::empty(self.schema.message().clone());
        self.step(state, &empty)
    }

    /// Run heartbeats until the state stops changing and nothing is sent
    /// or output, collecting all outputs along the way. Returns the fixed
    /// state, the accumulated output, and the number of heartbeats taken.
    ///
    /// `max_steps` bounds the loop (local queries are deterministic, so a
    /// repeated state would loop forever).
    pub fn run_heartbeats_to_fixpoint(
        &self,
        state: &Instance,
        max_steps: usize,
    ) -> Result<(Instance, Relation, usize), EvalError> {
        let mut cur = state.clone();
        let mut output = Relation::empty(self.schema.output_arity());
        for step_no in 0..max_steps {
            let res = self.heartbeat(&cur)?;
            let quiet = res.sent.is_empty() && !res.memory_changed && res.output.is_subset(&output);
            output = output.union(&res.output)?;
            if quiet {
                return Ok((cur, output, step_no));
            }
            cur = res.new_state;
        }
        Err(EvalError::Diverged { fuel: max_steps })
    }
}

impl fmt::Debug for Transducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transducer `{}` {}", self.name, self.schema)?;
        for (role, q) in self.queries() {
            writeln!(f, "  {role}: {}", q.describe())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TransducerBuilder;
    use rtx_query::{atom, CqBuilder, Term, UcqQuery};
    use rtx_relational::{fact, tuple, Schema, Value};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn cq(rule: rtx_query::CqRule) -> QueryRef {
        Arc::new(UcqQuery::single(rule))
    }

    /// A transducer that stores received `M` facts into memory `T` and
    /// outputs `T` members; sends its own input `S` on every step.
    fn store_and_echo() -> Transducer {
        TransducerBuilder::new("store-and-echo")
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

    fn mk_state(t: &Transducer, s_facts: &[i64]) -> Instance {
        let input = Instance::from_facts(
            Schema::new().with("S", 1),
            s_facts.iter().map(|&v| fact!("S", v)).collect::<Vec<_>>(),
        )
        .unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n1")].into_iter().collect();
        t.schema()
            .initial_state(&input, &Value::sym("n1"), &nodes)
            .unwrap()
    }

    fn msg(facts: &[i64]) -> Instance {
        Instance::from_facts(
            Schema::new().with("M", 1),
            facts.iter().map(|&v| fact!("M", v)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    /// A step copies no relation it does not change: input, `Id`,
    /// `All`, and unchanged memory are the old state's relations.
    #[test]
    fn step_shares_unchanged_relations() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1, 2]);
        let shared = |new: &Instance, rel: &str| {
            let name = RelName::new(rel);
            std::ptr::eq(
                new.relation_ref(&name).unwrap(),
                st.relation_ref(&name).unwrap(),
            )
        };
        let hb = t.heartbeat(&st).unwrap();
        assert!(!hb.memory_changed);
        for rel in ["S", "Id", "All"] {
            assert!(shared(&hb.new_state, rel), "heartbeat copied {rel}");
        }
        let dl = t.step(&st, &msg(&[7])).unwrap();
        assert!(dl.memory_changed);
        for rel in ["S", "Id", "All"] {
            assert!(shared(&dl.new_state, rel), "delivery copied {rel}");
        }
        assert!(st.relation_ref(&"T".into()).is_none(), "old state kept");
    }

    #[test]
    fn heartbeat_sends_input() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1, 2]);
        let res = t.heartbeat(&st).unwrap();
        assert_eq!(res.sent.fact_count(), 2);
        assert!(res.output.is_empty()); // memory still empty
        assert_eq!(res.new_state, st); // nothing inserted
    }

    #[test]
    fn delivery_inserts_into_memory_and_outputs_next_step() {
        let t = store_and_echo();
        let st = mk_state(&t, &[]);
        let res = t.step(&st, &msg(&[7])).unwrap();
        assert!(res.new_state.contains_fact(&fact!("T", 7)));
        // output is computed on I′ (before memory update), so T was empty
        assert!(res.output.is_empty());
        let res2 = t.heartbeat(&res.new_state).unwrap();
        assert!(res2.output.contains(&tuple![7]));
    }

    #[test]
    fn transitions_are_deterministic() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1]);
        let a = t.step(&st, &msg(&[3])).unwrap();
        let b = t.step(&st, &msg(&[3])).unwrap();
        assert_eq!(a.new_state, b.new_state);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.output, b.output);
    }

    /// The paper's conflict-resolution semantics, exhaustively:
    /// tuples in ins∖del enter; ins∩del tuples keep their old status;
    /// del∖ins tuples leave; untouched tuples stay.
    #[test]
    fn update_formula_conflict_cases() {
        // memory T/1; ins = A (copy), del = B (copy); input relations A, B.
        let t = TransducerBuilder::new("conflict")
            .input_relation("A", 1)
            .input_relation("B", 1)
            .memory_relation("T", 1)
            .output_arity(0)
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("A"; @"X"))
                    .build()
                    .unwrap()),
            )
            .delete(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("B"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(Arc::new(rtx_query::EmptyQuery::new(0)))
            .build()
            .unwrap();

        // A = {1(ins only), 2(ins+del)}, B = {2, 3(del only)}.
        // T initially = {2_keep? no... set T = {3, 4}}:
        //   1: ins only, not in T → enters
        //   2: ins∩del, not in T → stays out
        //   3: del only, in T → leaves
        //   4: untouched, in T → stays
        let input = Instance::from_facts(
            Schema::new().with("A", 1).with("B", 1),
            vec![fact!("A", 1), fact!("A", 2), fact!("B", 2), fact!("B", 3)],
        )
        .unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut st = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        st.insert_fact(fact!("T", 3)).unwrap();
        st.insert_fact(fact!("T", 4)).unwrap();

        let res = t.heartbeat(&st).unwrap();
        let tm = res.new_state.relation(&"T".into()).unwrap();
        assert!(tm.contains(&tuple![1]), "ins-only enters");
        assert!(
            !tm.contains(&tuple![2]),
            "conflicting ins/del on absent tuple stays out"
        );
        assert!(!tm.contains(&tuple![3]), "del-only leaves");
        assert!(tm.contains(&tuple![4]), "untouched stays");

        // now with 2 ∈ T: the conflict keeps it.
        let mut st2 = st.clone();
        st2.insert_fact(fact!("T", 2)).unwrap();
        let res2 = t.heartbeat(&st2).unwrap();
        let tm2 = res2.new_state.relation(&"T".into()).unwrap();
        assert!(
            tm2.contains(&tuple![2]),
            "conflicting ins/del on present tuple keeps it"
        );
    }

    #[test]
    fn assignment_pattern_ins_q_del_r() {
        // R := A expressed as ins = A, del = T (current value)
        let t = TransducerBuilder::new("assign")
            .input_relation("A", 1)
            .memory_relation("T", 1)
            .output_arity(0)
            .insert(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("A"; @"X"))
                    .build()
                    .unwrap()),
            )
            .delete(
                "T",
                cq(CqBuilder::head(vec![Term::var("X")])
                    .when(atom!("T"; @"X"))
                    .build()
                    .unwrap()),
            )
            .output(Arc::new(rtx_query::EmptyQuery::new(0)))
            .build()
            .unwrap();
        let input = Instance::from_facts(Schema::new().with("A", 1), vec![fact!("A", 5)]).unwrap();
        let nodes: BTreeSet<Value> = [Value::sym("n")].into_iter().collect();
        let mut st = t
            .schema()
            .initial_state(&input, &Value::sym("n"), &nodes)
            .unwrap();
        st.insert_fact(fact!("T", 9)).unwrap(); // old junk
        let res = t.heartbeat(&st).unwrap();
        let tm = res.new_state.relation(&"T".into()).unwrap();
        assert!(tm.contains(&tuple![5]));
        assert!(!tm.contains(&tuple![9]), "assignment clears the old value");
        // note: 5 ∉ old T so it's in ins\del; 9 ∈ del\ins so it leaves.
    }

    #[test]
    fn input_and_system_relations_never_change() {
        let t = store_and_echo();
        let st = mk_state(&t, &[1]);
        let res = t.step(&st, &msg(&[4])).unwrap();
        assert!(res.new_state.contains_fact(&fact!("S", 1)));
        assert!(res.new_state.contains_fact(&fact!("Id", "n1")));
        assert!(res.new_state.contains_fact(&fact!("All", "n1")));
    }

    #[test]
    fn heartbeat_fixpoint_detection() {
        // store-and-echo with no input sends nothing, outputs nothing:
        // immediate fixpoint.
        let t = store_and_echo();
        let st = mk_state(&t, &[]);
        let (fixed, out, steps) = t.run_heartbeats_to_fixpoint(&st, 10).unwrap();
        assert_eq!(fixed, st);
        assert!(out.is_empty());
        assert_eq!(steps, 0);
        // with input {1} every heartbeat sends: never a fixpoint.
        let st2 = mk_state(&t, &[1]);
        assert!(t.run_heartbeats_to_fixpoint(&st2, 5).is_err());
    }

    #[test]
    fn debug_lists_queries() {
        let t = store_and_echo();
        let d = format!("{t:?}");
        assert!(d.contains("snd[M]"));
        assert!(d.contains("ins[T]"));
        assert!(d.contains("out"));
    }
}
