//! Last-writer-wins register store (Lamport clocks).
//!
//! A write-propagating store implementing read/write registers
//! (Figure 1(a)) by totally ordering writes with Lamport timestamps, ties
//! broken by replica id. Unlike the dot-based stores it performs **no
//! causal buffering**: a received write applies immediately. It is
//! eventually consistent (timestamp order is arbitration-stable), but *not*
//! causally consistent — the classic trade-off; the tests and the E8
//! experiments demonstrate the causality violation concretely.
//!
//! Each `do` outcome carries the operation's Lamport timestamp so witness
//! builders can order `H` consistently with the store's arbitration (the
//! LWW spec resolves conflicts by `H` order).

use crate::wire::{gamma_len, width_for, BitReader, BitWriter};
use haec_model::{
    DoOutcome, Dot, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig,
    StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Factory for the LWW register store.
///
/// ```
/// use haec_stores::LwwStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value, ReturnValue};
///
/// let mut replica = LwwStore.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// replica.do_op(ObjectId::new(0), &Op::Write(Value::new(4)));
/// let out = replica.do_op(ObjectId::new(0), &Op::Read);
/// assert_eq!(out.rval, ReturnValue::values([Value::new(4)]));
/// assert!(out.timestamp.is_some());
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct LwwStore;

impl StoreFactory for LwwStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(LwwReplica {
            replica,
            config,
            clock: 0,
            next_seq: 0,
            objects: BTreeMap::new(),
            applied: BTreeSet::new(),
            outbox: Vec::new(),
        })
    }

    fn name(&self) -> &str {
        "lww"
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct LwwWrite {
    dot: Dot,
    obj: ObjectId,
    ts: u64,
    value: Value,
}

/// One replica of the LWW store.
#[derive(Clone, Debug)]
pub struct LwwReplica {
    replica: ReplicaId,
    config: StoreConfig,
    clock: u64,
    next_seq: u32,
    /// Winning write per object: (timestamp, origin, value).
    objects: BTreeMap<ObjectId, (u64, ReplicaId, Value)>,
    /// Witness: dots of all writes applied at this replica.
    applied: BTreeSet<Dot>,
    outbox: Vec<LwwWrite>,
}

impl LwwReplica {
    fn apply(&mut self, w: &LwwWrite) {
        self.clock = self.clock.max(w.ts);
        self.applied.insert(w.dot);
        let better = match self.objects.get(&w.obj) {
            Some(&(ts, origin, _)) => (w.ts, w.dot.replica) > (ts, origin),
            None => true,
        };
        if better {
            self.objects.insert(w.obj, (w.ts, w.dot.replica, w.value));
        }
    }
}

impl ReplicaMachine for LwwReplica {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the operation is not a register operation (write/read).
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        let visible: Vec<Dot> = self.applied.iter().copied().collect();
        match op {
            Op::Read => {
                let rval = ReturnValue::values(self.objects.get(&obj).map(|&(_, _, v)| v));
                DoOutcome::new(rval, visible).with_timestamp(self.clock)
            }
            Op::Write(v) => {
                self.clock += 1;
                self.next_seq += 1;
                let w = LwwWrite {
                    dot: Dot::new(self.replica, self.next_seq),
                    obj,
                    ts: self.clock,
                    value: *v,
                };
                self.apply(&w);
                self.outbox.push(w);
                DoOutcome::new(ReturnValue::Ok, visible).with_timestamp(self.clock)
            }
            other => panic!("LWW store does not support {other}"),
        }
    }

    fn pending_message(&self) -> Option<Payload> {
        if self.outbox.is_empty() {
            return None;
        }
        let mut bw = BitWriter::new();
        bw.write_gamma0(self.outbox.len() as u64);
        for w in &self.outbox {
            bw.write_dot(w.dot, self.config);
            bw.write_obj(w.obj, self.config);
            bw.write_gamma(w.ts);
            bw.write_gamma0(w.value.as_u64());
        }
        Some(bw.finish())
    }

    fn on_send(&mut self) {
        assert!(
            !self.outbox.is_empty(),
            "send scheduled with no pending message"
        );
        self.outbox.clear();
    }

    fn on_receive(&mut self, payload: &Payload) {
        let mut r = BitReader::new(payload);
        let Ok(count) = r.read_gamma0() else { return };
        for _ in 0..count {
            let (Ok(dot), Ok(obj), Ok(ts), Ok(value)) = (
                r.read_dot(self.config),
                r.read_obj(self.config),
                r.read_gamma(),
                r.read_gamma0(),
            ) else {
                return;
            };
            let w = LwwWrite {
                dot,
                obj,
                ts,
                value: Value::new(value),
            };
            if !self.applied.contains(&w.dot) {
                self.apply(&w);
            }
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.clock.hash(&mut h);
        self.next_seq.hash(&mut h);
        self.objects.hash(&mut h);
        self.applied.hash(&mut h);
        self.outbox.hash(&mut h);
        h.finish()
    }

    fn converged_fingerprint(&self) -> u64 {
        // `next_seq` counts updates *originated here* and so differs
        // across replicas even at quiescence; `clock` converges to the
        // global maximum timestamp once every write is delivered.
        let mut h = DefaultHasher::new();
        self.clock.hash(&mut h);
        self.objects.hash(&mut h);
        self.applied.hash(&mut h);
        self.outbox.hash(&mut h);
        h.finish()
    }

    fn state_bits(&self) -> usize {
        let per_obj: usize = self
            .objects
            .values()
            .map(|&(ts, _, v)| {
                gamma_len(ts + 1)
                    + width_for(self.config.n_replicas) as usize
                    + gamma_len(v.as_u64() + 1)
            })
            .sum();
        let applied_bits: usize = self
            .applied
            .iter()
            .map(|d| width_for(self.config.n_replicas) as usize + gamma_len(d.seq as u64))
            .sum();
        gamma_len(self.clock + 1) + per_obj + applied_bits
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
        LwwStore.spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn read_own_write_single_value() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(0), &Op::Write(v(2)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn later_timestamp_wins() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        b.do_op(x(0), &Op::Write(v(2))); // ts 2 > ts 1
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn concurrent_writes_converge_by_replica_tiebreak() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1))); // (ts 1, R0)
        b.do_op(x(0), &Op::Write(v(2))); // (ts 1, R1) — wins the tie
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn timestamps_reported() {
        let mut a = spawn(0);
        let out1 = a.do_op(x(0), &Op::Write(v(1)));
        assert_eq!(out1.timestamp, Some(1));
        let out2 = a.do_op(x(0), &Op::Read);
        assert_eq!(out2.timestamp, Some(1));
        let out3 = a.do_op(x(0), &Op::Write(v(2)));
        assert_eq!(out3.timestamp, Some(2));
    }

    #[test]
    fn reads_invisible() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        a.do_op(x(1), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
    }

    #[test]
    fn no_causal_buffering() {
        // b's write (made after seeing a's) reaches c before a's: c exposes
        // it immediately — the causality violation LWW permits.
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
        assert_eq!(
            c.do_op(x(1), &Op::Read).rval,
            ReturnValue::values([v(2)]),
            "dependent write exposed before its dependency"
        );
        assert_eq!(c.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn duplicate_delivery_idempotent() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        let m = a.pending_message().unwrap();
        a.on_send();
        b.on_receive(&m);
        let fp = b.state_fingerprint();
        b.on_receive(&m);
        assert_eq!(b.state_fingerprint(), fp);
    }

    #[test]
    fn lamport_clock_advances_on_receive() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        // b's next write must be timestamped above everything it has seen.
        let out = b.do_op(x(0), &Op::Write(v(3)));
        assert_eq!(out.timestamp, Some(3));
    }

    #[test]
    fn witness_contains_applied_dots() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        let out = b.do_op(x(0), &Op::Read);
        assert_eq!(out.visible, vec![Dot::new(r(0), 1)]);
    }

    #[test]
    fn op_driven_messages() {
        let mut a = spawn(0);
        assert!(a.pending_message().is_none());
        let mut b = spawn(1);
        b.do_op(x(0), &Op::Write(v(1)));
        let m = b.pending_message().unwrap();
        b.on_send();
        a.on_receive(&m);
        assert!(a.pending_message().is_none());
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn inc_panics() {
        spawn(0).do_op(x(0), &Op::Inc);
    }
}
