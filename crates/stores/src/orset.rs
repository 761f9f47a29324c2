//! Observed-remove set store (add-wins, Figure 1(c)).
//!
//! A write-propagating ORset store on the shared [`CausalEngine`]. Per
//! object, a replica keeps the live *add-instances* `(dot, value)`. A
//! `remove(v)` records the dots of the instances it observed; concurrent
//! adds are unaffected — "add wins".

use crate::engine::{rename_dot, Update, UpdateOp};
use crate::replica::{hash_renamed_objects, CausalReplica, DataType};
use crate::wire::{dotted_value_bits, gamma0_len};
use haec_model::{
    Dot, ObjectId, Op, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig, StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hash;

/// Factory for the ORset store.
///
/// ```
/// use haec_stores::OrSetStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value, ReturnValue};
///
/// let mut replica = OrSetStore.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// replica.do_op(ObjectId::new(0), &Op::Add(Value::new(3)));
/// let out = replica.do_op(ObjectId::new(0), &Op::Read);
/// assert_eq!(out.rval, ReturnValue::values([Value::new(3)]));
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct OrSetStore;

impl StoreFactory for OrSetStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        CausalReplica::spawn(replica, config, AddInstances::default())
    }

    fn name(&self) -> &str {
        "orset"
    }
}

/// Live add-instances per object.
#[derive(Clone, Default, Hash, Debug)]
struct AddInstances(BTreeMap<ObjectId, BTreeMap<Dot, Value>>);

impl DataType for AddInstances {
    /// A remove carries the dots of the add-instances of its value that
    /// are live here — the ones it observed.
    fn prepare(&self, obj: ObjectId, op: &Op) -> Option<UpdateOp> {
        match op {
            Op::Add(v) => Some(UpdateOp::Add(*v)),
            Op::Remove(v) => {
                let observed = self
                    .0
                    .get(&obj)
                    .into_iter()
                    .flatten()
                    .filter(|&(_, val)| val == v)
                    .map(|(&d, _)| d)
                    .collect();
                Some(UpdateOp::Remove(*v, observed))
            }
            _ => None,
        }
    }

    fn apply(&mut self, u: &Update) {
        match &u.op {
            UpdateOp::Add(v) => {
                self.0.entry(u.obj).or_default().insert(u.dot, *v);
            }
            UpdateOp::Remove(_, dots) => {
                if let Some(inst) = self.0.get_mut(&u.obj) {
                    for d in dots {
                        inst.remove(d);
                    }
                }
            }
            _ => {}
        }
    }

    fn read(&self, obj: ObjectId) -> ReturnValue {
        ReturnValue::values(
            self.0
                .get(&obj)
                .into_iter()
                .flat_map(|m| m.values().copied()),
        )
    }

    fn bits(&self, config: StoreConfig) -> usize {
        self.0
            .values()
            .flatten()
            .map(|(&d, &v)| dotted_value_bits(config, d, v))
            .sum()
    }

    fn equivariant(&self) -> bool {
        true
    }

    fn hash_renamed_into(&self, perm: &[u32], h: &mut DefaultHasher) {
        hash_renamed_objects(&self.0, h, |inst| {
            inst.iter()
                .map(|(&d, &v)| (rename_dot(d, perm), v))
                .collect()
        });
    }
}

/// Factory for an operation-based counter store (extension object).
///
/// Reads return the number of increments applied at the replica.
#[derive(Copy, Clone, Default, Debug)]
pub struct CounterStore;

impl StoreFactory for CounterStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        CausalReplica::spawn(replica, config, Counts::default())
    }

    fn name(&self) -> &str {
        "counter"
    }
}

/// Increments applied per object.
#[derive(Clone, Default, Hash, Debug)]
struct Counts(BTreeMap<ObjectId, u64>);

impl DataType for Counts {
    fn prepare(&self, _obj: ObjectId, op: &Op) -> Option<UpdateOp> {
        matches!(op, Op::Inc).then_some(UpdateOp::Inc)
    }

    fn apply(&mut self, u: &Update) {
        if matches!(u.op, UpdateOp::Inc) {
            *self.0.entry(u.obj).or_default() += 1;
        }
    }

    fn read(&self, obj: ObjectId) -> ReturnValue {
        ReturnValue::values([Value::new(self.0.get(&obj).copied().unwrap_or(0))])
    }

    fn bits(&self, _config: StoreConfig) -> usize {
        self.0.values().map(|&c| gamma0_len(c)).sum()
    }

    fn equivariant(&self) -> bool {
        true
    }

    /// Counts carry no replica ids — renaming-invariant as stored.
    fn hash_renamed_into(&self, _perm: &[u32], h: &mut DefaultHasher) {
        self.0.hash(h);
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
        OrSetStore.spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn add_then_read() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Add(v(1)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn observed_remove_removes() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Add(v(1)));
        a.do_op(x(0), &Op::Remove(v(1)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn add_wins_over_concurrent_remove() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        // Both see an initial add.
        a.do_op(x(0), &Op::Add(v(1)));
        relay(&mut a, &mut b);
        // a re-adds (fresh instance) concurrently with b's remove.
        a.do_op(x(0), &Op::Add(v(1)));
        b.do_op(x(0), &Op::Remove(v(1)));
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        // The remove only killed the first instance; the concurrent add
        // survives at both replicas.
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn remove_of_absent_element_is_noop() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Remove(v(9)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
        // Still broadcasts (the remove is an update) but removes nothing.
        let mut b = spawn(1);
        b.do_op(x(0), &Op::Add(v(9)));
        relay(&mut a, &mut b);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(9)]));
    }

    #[test]
    fn multiple_values() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Add(v(1)));
        a.do_op(x(0), &Op::Add(v(2)));
        assert_eq!(
            a.do_op(x(0), &Op::Read).rval,
            ReturnValue::values([v(1), v(2)])
        );
    }

    #[test]
    fn orset_reads_invisible() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Add(v(1)));
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
    }

    #[test]
    fn remove_propagates() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Add(v(1)));
        relay(&mut a, &mut b);
        b.do_op(x(0), &Op::Remove(v(1)));
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn counter_basics() {
        let mut a = CounterStore.spawn(r(0), cfg());
        let mut b = CounterStore.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Inc);
        a.do_op(x(0), &Op::Inc);
        b.do_op(x(0), &Op::Inc);
        let m = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&m);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(3)]));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn counter_duplicate_delivery_counts_once() {
        let mut a = CounterStore.spawn(r(0), cfg());
        let mut b = CounterStore.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Inc);
        let m = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&m);
        b.on_receive(&m);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn write_on_orset_panics() {
        spawn(0).do_op(x(0), &Op::Write(v(1)));
    }

    #[test]
    fn factory_names() {
        assert_eq!(OrSetStore.name(), "orset");
        assert_eq!(CounterStore.name(), "counter");
    }

    /// An unknown operation tag used to decode as `Inc` and bump the
    /// counter; now the whole payload is ignored.
    #[test]
    fn counter_ignores_a_record_with_an_unknown_op_tag() {
        let msg = crate::engine::tests::forged_batch(cfg(), (1, 0, 7), |_| {});
        let mut a = CounterStore.spawn(r(0), cfg());
        let before = a.state_fingerprint();
        a.on_receive(&msg);
        assert_eq!(a.state_fingerprint(), before);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(0)]));
    }
}
