//! Causally consistent last-writer-wins registers.
//!
//! Section 6 closes by noting that Proposition 2, Lemma 3 and Lemma 5 can
//! be proved for read/write registers too, yielding analogues of
//! Theorem 12 for stores providing registers (or registers mixed with
//! MVRs). This store makes that analogue executable: registers implemented
//! on the shared causal engine, so the store is *causally* consistent
//! (unlike [`LwwStore`](crate::LwwStore), which applies writes eagerly)
//! while still resolving visible conflicts last-writer-wins by dot order.
//!
//! A write supersedes every write visible to it; concurrent survivors are
//! resolved deterministically by maximal dot — so a read returns a single
//! value, the register interface, while the protocol (and hence Theorem
//! 12's encoding argument) is identical in shape to the MVR store's.

use crate::mvr::{ReadRule, Siblings};
use crate::replica::CausalReplica;
use haec_model::{ReplicaId, ReplicaMachine, StoreConfig, StoreFactory};

/// Factory for the causally consistent register store.
///
/// ```
/// use haec_stores::CausalRegisterStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value, ReturnValue};
///
/// let mut a = CausalRegisterStore.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// a.do_op(ObjectId::new(0), &Op::Write(Value::new(1)));
/// a.do_op(ObjectId::new(0), &Op::Write(Value::new(2)));
/// let out = a.do_op(ObjectId::new(0), &Op::Read);
/// assert_eq!(out.rval, ReturnValue::values([Value::new(2)]));
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct CausalRegisterStore;

impl StoreFactory for CausalRegisterStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        CausalReplica::spawn(replica, config, Siblings::new(ReadRule::MaxDot))
    }

    fn name(&self) -> &str {
        "causal-register"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{ObjectId, Op, ReturnValue, Value};

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
        CausalRegisterStore.spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn reads_return_single_value() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        let out = b.do_op(x(0), &Op::Read);
        assert_eq!(out.rval.as_values().unwrap().len(), 1);
    }

    #[test]
    fn concurrent_writes_converge_to_same_winner() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, b.do_op(x(0), &Op::Read).rval);
    }

    #[test]
    fn causal_buffering_hides_dependent_write() {
        // Unlike LwwStore, this store buffers: a dependent write stays
        // invisible until its dependency arrives.
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
    }

    #[test]
    fn superseding_write_wins_everywhere() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn reads_invisible_and_op_driven() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
        assert!(spawn(1).pending_message().is_none());
    }

    #[test]
    fn factory_name() {
        assert_eq!(CausalRegisterStore.name(), "causal-register");
    }
}
