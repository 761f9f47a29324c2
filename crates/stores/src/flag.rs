//! Enable-wins flag store (extension object).
//!
//! The boolean cousin of the ORset: a replica keeps the live *enable
//! instances* of each flag; a `disable` removes exactly the instances it
//! observed, so a concurrent `enable` survives — "enable wins". Built on
//! the shared causal engine: write-propagating, causally and eventually
//! consistent.

use crate::engine::{rename_dot, Update, UpdateOp};
use crate::replica::{hash_renamed_objects, CausalReplica, DataType};
use crate::wire::{gamma_len, width_for};
use haec_model::{
    Dot, ObjectId, Op, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig, StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Factory for the enable-wins flag store.
///
/// ```
/// use haec_stores::EwFlagStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value, ReturnValue};
///
/// let mut a = EwFlagStore.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// a.do_op(ObjectId::new(0), &Op::Enable);
/// let out = a.do_op(ObjectId::new(0), &Op::Read);
/// assert_eq!(out.rval, ReturnValue::values([Value::new(1)]));
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct EwFlagStore;

impl StoreFactory for EwFlagStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        CausalReplica::spawn(replica, config, EnableInstances::default())
    }

    fn name(&self) -> &str {
        "ew-flag"
    }
}

/// Live enable instances per flag.
#[derive(Clone, Default, Hash, Debug)]
struct EnableInstances(BTreeMap<ObjectId, BTreeSet<Dot>>);

impl DataType for EnableInstances {
    /// A disable carries the dots of the enables live here — the ones it
    /// observed.
    fn prepare(&self, obj: ObjectId, op: &Op) -> Option<UpdateOp> {
        match op {
            Op::Enable => Some(UpdateOp::Enable),
            Op::Disable => {
                let observed = self.0.get(&obj).into_iter().flatten().copied().collect();
                Some(UpdateOp::Disable(observed))
            }
            _ => None,
        }
    }

    fn apply(&mut self, u: &Update) {
        match &u.op {
            UpdateOp::Enable => {
                self.0.entry(u.obj).or_default().insert(u.dot);
            }
            UpdateOp::Disable(dots) => {
                if let Some(live) = self.0.get_mut(&u.obj) {
                    for d in dots {
                        live.remove(d);
                    }
                }
            }
            _ => {}
        }
    }

    fn read(&self, obj: ObjectId) -> ReturnValue {
        if self.0.get(&obj).is_some_and(|live| !live.is_empty()) {
            ReturnValue::values([Value::new(1)])
        } else {
            ReturnValue::empty()
        }
    }

    fn bits(&self, config: StoreConfig) -> usize {
        self.0
            .values()
            .flatten()
            .map(|d| width_for(config.n_replicas) as usize + gamma_len(u64::from(d.seq)))
            .sum()
    }

    fn equivariant(&self) -> bool {
        true
    }

    fn hash_renamed_into(&self, perm: &[u32], h: &mut DefaultHasher) {
        hash_renamed_objects(&self.0, h, |live| {
            live.iter().map(|&d| rename_dot(d, perm)).collect()
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
    fn raised() -> ReturnValue {
        ReturnValue::values([Value::new(1)])
    }
    fn spawn(i: u32) -> Box<dyn ReplicaMachine> {
        EwFlagStore.spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn enable_then_read() {
        let mut a = spawn(0);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
        a.do_op(x(0), &Op::Enable);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, raised());
    }

    #[test]
    fn observed_disable_lowers() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Enable);
        a.do_op(x(0), &Op::Disable);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn enable_wins_over_concurrent_disable() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Enable);
        relay(&mut a, &mut b);
        // a re-enables concurrently with b's disable.
        a.do_op(x(0), &Op::Enable);
        b.do_op(x(0), &Op::Disable);
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, raised());
        assert_eq!(b.do_op(x(0), &Op::Read).rval, raised());
    }

    #[test]
    fn disable_propagates() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Enable);
        relay(&mut a, &mut b);
        b.do_op(x(0), &Op::Disable);
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn flags_are_independent() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Enable);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, raised());
        assert_eq!(a.do_op(x(1), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn reads_invisible_and_op_driven() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Enable);
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
        assert!(spawn(1).pending_message().is_none());
    }

    #[test]
    fn duplicate_delivery_idempotent() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Enable);
        let m = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&m);
        let fp = b.state_fingerprint();
        b.on_receive(&m);
        assert_eq!(b.state_fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn write_panics() {
        spawn(0).do_op(x(0), &Op::Write(Value::new(1)));
    }
}
