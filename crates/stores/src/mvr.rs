//! The dotted-version-vector multi-valued register store.
//!
//! This is the reference *write-propagating* store (paper, §4): a
//! Dynamo-style causally consistent MVR store in the style the paper cites
//! as "every highly-available replicated data storage system we are aware
//! of". It has **invisible reads** (reads touch nothing) and **op-driven
//! messages** (only client updates enqueue broadcasts), and it is both
//! causally consistent and eventually consistent — the exact class that
//! Theorems 6 and 12 speak about.
//!
//! Per object, a replica keeps the *siblings*: the dotted writes not yet
//! superseded by a causally later write. A read returns the sibling values —
//! exactly the MVR specification's set of currently conflicting writes. An
//! incoming write drops every sibling covered by its dependency vector and
//! joins the rest. Causal delivery (via the shared
//! [`CausalEngine`](crate::engine::CausalEngine)) guarantees a write never
//! arrives before a write it supersedes.

use crate::engine::{rename_dot, Update, UpdateOp};
use crate::replica::{hash_renamed_objects, CausalReplica, DataType};
use crate::wire::dotted_value_bits;
use haec_model::{
    Dot, ObjectId, Op, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig, StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Factory for the DVV MVR store.
///
/// ```
/// use haec_stores::DvvMvrStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value};
///
/// let factory = DvvMvrStore;
/// let mut replica = factory.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// let out = replica.do_op(ObjectId::new(0), &Op::Write(Value::new(7)));
/// assert!(out.rval.is_ok());
/// assert!(replica.pending_message().is_some());
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct DvvMvrStore;

impl StoreFactory for DvvMvrStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        CausalReplica::spawn(replica, config, Siblings::new(ReadRule::All))
    }

    fn name(&self) -> &str {
        "dvv-mvr"
    }
}

/// What a read of a sibling set exposes. The write path is the same under
/// every rule; only the read differs.
#[derive(Copy, Clone, Debug)]
pub(crate) enum ReadRule {
    /// Every sibling: the multi-valued register.
    All,
    /// Only the maximal-dot sibling: a last-writer-wins register. The
    /// choice is deterministic and identical at every replica holding the
    /// same siblings, so quiescent replicas agree (Lemma 3 for registers).
    MaxDot,
    /// [`All`](Self::All) for objects with id below the split,
    /// [`MaxDot`](Self::MaxDot) for the rest.
    SplitAt(usize),
}

/// Per-object sibling sets — the dotted writes not superseded by a causally
/// later write, in dot order — read under a [`ReadRule`].
#[derive(Clone, Debug)]
pub(crate) struct Siblings {
    rule: ReadRule,
    objects: BTreeMap<ObjectId, Vec<(Dot, Value)>>,
}

impl Siblings {
    pub(crate) fn new(rule: ReadRule) -> Self {
        Siblings {
            rule,
            objects: BTreeMap::new(),
        }
    }

    /// The write `(dot, value)` drops every sibling of `obj` it supersedes
    /// and joins the rest.
    pub(crate) fn write(
        &mut self,
        obj: ObjectId,
        dot: Dot,
        value: Value,
        supersedes: impl Fn(Dot) -> bool,
    ) {
        let siblings = self.objects.entry(obj).or_default();
        siblings.retain(|&(d, _)| !supersedes(d));
        siblings.push((dot, value));
        siblings.sort_unstable();
    }
}

/// The state is the sibling sets; the rule is fixed per store.
impl Hash for Siblings {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.objects.hash(h);
    }
}

impl DataType for Siblings {
    fn prepare(&self, _obj: ObjectId, op: &Op) -> Option<UpdateOp> {
        match op {
            Op::Write(v) => Some(UpdateOp::Write(*v)),
            _ => None,
        }
    }

    /// A write supersedes exactly the siblings its dependency vector
    /// covers; causal delivery guarantees none of them arrives later.
    fn apply(&mut self, u: &Update) {
        if let UpdateOp::Write(v) = u.op {
            self.write(u.obj, u.dot, v, |d| u.deps.contains(d));
        }
    }

    fn read(&self, obj: ObjectId) -> ReturnValue {
        let siblings = self.objects.get(&obj).map_or(&[][..], Vec::as_slice);
        let from = match self.rule {
            ReadRule::All => 0,
            ReadRule::SplitAt(mvr_objects) if obj.index() < mvr_objects => 0,
            // Siblings are kept in dot order, so the maximal dot is the last.
            _ => siblings.len().saturating_sub(1),
        };
        ReturnValue::values(siblings[from..].iter().map(|&(_, v)| v))
    }

    fn bits(&self, config: StoreConfig) -> usize {
        self.objects
            .values()
            .flatten()
            .map(|&(d, v)| dotted_value_bits(config, d, v))
            .sum()
    }

    fn equivariant(&self) -> bool {
        matches!(self.rule, ReadRule::All)
    }

    fn hash_renamed_into(&self, perm: &[u32], h: &mut DefaultHasher) {
        hash_renamed_objects(&self.objects, h, |siblings| {
            siblings
                .iter()
                .map(|&(d, v)| (rename_dot(d, perm), v))
                .collect()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StoreConfig {
        StoreConfig::new(3, 2)
    }
    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }
    fn spawn(i: u32) -> Box<dyn ReplicaMachine> {
        DvvMvrStore.spawn(r(i), cfg())
    }

    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn read_own_write() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        let out = a.do_op(x(0), &Op::Read);
        assert_eq!(out.rval, ReturnValue::values([v(1)]));
        assert_eq!(out.visible, vec![Dot::new(r(0), 1)]);
    }

    #[test]
    fn read_before_any_write_is_empty() {
        let mut a = spawn(0);
        let out = a.do_op(x(0), &Op::Read);
        assert_eq!(out.rval, ReturnValue::empty());
        assert!(out.visible.is_empty());
    }

    #[test]
    fn remote_write_visible_after_delivery() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        let out = b.do_op(x(0), &Op::Read);
        assert_eq!(out.rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn concurrent_writes_become_siblings() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        let out = b.do_op(x(0), &Op::Read);
        assert_eq!(out.rval, ReturnValue::values([v(1), v(2)]));
    }

    #[test]
    fn dominating_write_clears_siblings() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        // b saw v1 and overwrites it.
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut b, &mut a);
        let out = a.do_op(x(0), &Op::Read);
        assert_eq!(out.rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn local_overwrite_replaces() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(0), &Op::Write(v(2)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn objects_are_independent() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(1), &Op::Write(v(2)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
        assert_eq!(a.do_op(x(1), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn reads_are_invisible() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        let before = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        a.do_op(x(1), &Op::Read);
        assert_eq!(a.state_fingerprint(), before);
    }

    #[test]
    fn messages_are_op_driven() {
        let mut a = spawn(0);
        assert!(a.pending_message().is_none(), "initially no pending");
        let mut b = spawn(1);
        b.do_op(x(0), &Op::Write(v(1)));
        let msg = b.pending_message().unwrap();
        b.on_send();
        a.on_receive(&msg);
        assert!(
            a.pending_message().is_none(),
            "receive must not create pending"
        );
    }

    #[test]
    fn pending_message_deterministic() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        assert_eq!(a.pending_message().unwrap(), a.pending_message().unwrap());
    }

    #[test]
    fn duplicate_message_idempotent() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        let msg = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&msg);
        let fp = b.state_fingerprint();
        b.on_receive(&msg);
        assert_eq!(b.state_fingerprint(), fp);
    }

    #[test]
    fn causal_buffering_hides_dependent_write() {
        // a writes x; b reads it and writes y; c receives b's message first:
        // y must stay invisible until a's message arrives.
        let mut a = spawn(0);
        let mut b = spawn(1);
        let mut c = spawn(2);
        a.do_op(x(0), &Op::Write(v(1)));
        let ma = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&ma);
        b.do_op(x(1), &Op::Write(v(2)));
        let mb = b.pending_message().unwrap();
        b.on_send();

        c.on_receive(&mb);
        assert_eq!(c.do_op(x(1), &Op::Read).rval, ReturnValue::empty());
        c.on_receive(&ma);
        assert_eq!(c.do_op(x(1), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(c.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn batched_outbox_in_one_message() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(1), &Op::Write(v(2)));
        let msg = a.pending_message().unwrap();
        a.on_send();
        let mut b = spawn(1);
        b.on_receive(&msg);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
        assert_eq!(b.do_op(x(1), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn witness_excludes_unseen_dots() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        let out = b.do_op(x(0), &Op::Read);
        assert_eq!(out.visible, vec![Dot::new(r(1), 1)]);
        let _ = a;
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn orset_op_panics() {
        spawn(0).do_op(x(0), &Op::Add(v(1)));
    }

    #[test]
    fn state_bits_grow_with_siblings() {
        let mut a = spawn(0);
        let empty = a.state_bits();
        a.do_op(x(0), &Op::Write(v(1)));
        assert!(a.state_bits() > empty);
    }

    #[test]
    fn factory_name() {
        assert_eq!(DvvMvrStore.name(), "dvv-mvr");
    }
}
