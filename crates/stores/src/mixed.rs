//! A store serving MVRs and read/write registers side by side.
//!
//! Section 6 notes that the Theorem 12 analogue holds for stores providing
//! read/write registers "as well as a combination of MVRs and registers".
//! [`MixedStore`] provides that combination: objects with id below
//! `mvr_objects` behave as multi-valued registers (reads expose
//! concurrency), the rest as causally consistent last-writer-wins
//! registers (concurrent survivors arbitrated by maximal dot). Both share
//! the causal engine, so the store is causally and eventually consistent
//! and write-propagating.

use crate::mvr::{ReadRule, Siblings};
use crate::replica::CausalReplica;
use haec_model::{ReplicaId, ReplicaMachine, StoreConfig, StoreFactory};

/// Factory for the mixed MVR + register store.
///
/// ```
/// use haec_stores::MixedStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value};
///
/// // Object 0 is an MVR; object 1 is a LWW register.
/// let factory = MixedStore::new(1);
/// let mut a = factory.spawn(ReplicaId::new(0), StoreConfig::new(2, 2));
/// a.do_op(ObjectId::new(0), &Op::Write(Value::new(1)));
/// a.do_op(ObjectId::new(1), &Op::Write(Value::new(2)));
/// ```
#[derive(Copy, Clone, Debug)]
pub struct MixedStore {
    /// Objects with id `< mvr_objects` are MVRs; the rest are registers.
    pub mvr_objects: usize,
}

impl MixedStore {
    /// Creates the factory with the given MVR/register split point.
    pub fn new(mvr_objects: usize) -> Self {
        MixedStore { mvr_objects }
    }
}

impl StoreFactory for MixedStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        let rule = ReadRule::SplitAt(self.mvr_objects);
        CausalReplica::spawn(replica, config, Siblings::new(rule))
    }

    fn name(&self) -> &str {
        "mixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{ObjectId, Op, ReturnValue, Value};

    fn cfg() -> StoreConfig {
        StoreConfig::new(3, 3)
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
        MixedStore::new(2).spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn mvr_objects_expose_concurrency() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        assert_eq!(
            b.do_op(x(0), &Op::Read).rval,
            ReturnValue::values([v(1), v(2)])
        );
    }

    #[test]
    fn register_objects_arbitrate() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(2), &Op::Write(v(1)));
        b.do_op(x(2), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        let ra = a.do_op(x(2), &Op::Read).rval;
        let rb = b.do_op(x(2), &Op::Read).rval;
        assert_eq!(ra, rb, "register replicas converge");
        assert_eq!(
            ra.as_values().unwrap().len(),
            1,
            "register hides concurrency"
        );
    }

    #[test]
    fn cross_kind_causality_respected() {
        // Write to the MVR, then to the register; a third replica receiving
        // only the register's message must buffer it.
        let mut a = spawn(0);
        let mut b = spawn(1);
        let mut c = spawn(2);
        a.do_op(x(0), &Op::Write(v(1)));
        let m1 = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&m1);
        b.do_op(x(2), &Op::Write(v(2)));
        let m2 = b.pending_message().unwrap();
        b.on_send();
        c.on_receive(&m2);
        assert_eq!(c.do_op(x(2), &Op::Read).rval, ReturnValue::empty());
        c.on_receive(&m1);
        assert_eq!(c.do_op(x(2), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(c.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn reads_invisible() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(2), &Op::Write(v(2)));
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        a.do_op(x(2), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
    }

    #[test]
    fn all_mvr_split_matches_dvv_semantics() {
        let factory = MixedStore::new(usize::MAX);
        let mut a = factory.spawn(r(0), cfg());
        let mut b = factory.spawn(r(1), cfg());
        a.do_op(x(1), &Op::Write(v(1)));
        b.do_op(x(1), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        assert_eq!(
            b.do_op(x(1), &Op::Read).rval,
            ReturnValue::values([v(1), v(2)])
        );
    }

    #[test]
    fn factory_name() {
        assert_eq!(MixedStore::new(1).name(), "mixed");
    }
}
