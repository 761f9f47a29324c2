//! COPS-style causal MVR store with *message-level* dependency metadata.
//!
//! The reference [`DvvMvrStore`](crate::DvvMvrStore) attaches a full
//! dependency vector to **every update** — simple, but the dominant cost
//! in its messages. Real causally consistent stores (COPS, Eiger, Orbe —
//! the systems the paper cites in §3.1) compress dependencies: updates
//! issued back-to-back with no intervening remote delivery share the same
//! causal past, so one vector can cover a whole run of updates.
//!
//! [`CopsStore`] implements that compression: a message is a sequence of
//! *sub-batches*, each carrying one dependency vector followed by the
//! updates that share it. A receiver buffers sub-batches until their
//! dependencies are satisfied (the buffering technique §3.1 discusses) and
//! applies them atomically — the store remains causally and eventually
//! consistent with invisible reads and op-driven messages, while its
//! messages are strictly smaller than the per-update-vector store's
//! whenever batches form. Theorem 12 still applies: the vectors are
//! compressed, not eliminated, and the sweep shows the same `Ω(n′·lg k)`
//! growth.

use crate::mvr::{ReadRule, Siblings};
use crate::replica::DataType;
use crate::vv::VersionVector;
use crate::wire::{BitReader, BitWriter};
use haec_model::{
    DoOutcome, Dot, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig,
    StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Factory for the COPS-style compressed-dependency MVR store.
///
/// ```
/// use haec_stores::CopsStore;
/// use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value};
///
/// let mut a = CopsStore.spawn(ReplicaId::new(0), StoreConfig::new(2, 1));
/// a.do_op(ObjectId::new(0), &Op::Write(Value::new(1)));
/// a.do_op(ObjectId::new(0), &Op::Write(Value::new(2)));
/// // Two writes, one shared dependency vector in the message.
/// assert!(a.pending_message().is_some());
/// ```
#[derive(Copy, Clone, Default, Debug)]
pub struct CopsStore;

impl StoreFactory for CopsStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(CopsReplica {
            replica,
            config,
            vv: VersionVector::new(config.n_replicas),
            outbox: Vec::new(),
            fresh_context: false,
            buffer: Vec::new(),
            objects: Siblings::new(ReadRule::All),
        })
    }

    fn name(&self) -> &str {
        "cops-mvr"
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SubBatch {
    /// Shared causal dependencies of every update in the sub-batch
    /// (everything applied at the origin before the first update,
    /// excluding the origin's own in-batch updates).
    deps: VersionVector,
    /// `(dot, obj, value)` writes, contiguous in the origin's dot order.
    writes: Vec<(Dot, ObjectId, Value)>,
}

/// One replica of the COPS-style store.
#[derive(Clone, Debug)]
pub struct CopsReplica {
    replica: ReplicaId,
    config: StoreConfig,
    vv: VersionVector,
    outbox: Vec<SubBatch>,
    /// Set when a remote update was applied since the last local update:
    /// the next local update starts a new sub-batch.
    fresh_context: bool,
    buffer: Vec<SubBatch>,
    objects: Siblings,
}

impl CopsReplica {
    fn apply_write(&mut self, dot: Dot, obj: ObjectId, value: Value, deps: &VersionVector) {
        // Superseded if covered by the shared deps, or an earlier write of
        // the same sub-batch/origin (in-batch program order).
        self.objects.write(obj, dot, value, |d| {
            deps.contains(d) || (d.replica == dot.replica && d.seq < dot.seq)
        });
    }

    fn drain_buffer(&mut self) {
        loop {
            let idx = self.buffer.iter().position(|sb| {
                let first = sb.writes.first().expect("sub-batches are non-empty");
                first.0.seq == self.vv.get(first.0.replica) + 1 && self.vv.dominates(&sb.deps)
            });
            let Some(i) = idx else { break };
            let sb = self.buffer.swap_remove(i);
            for &(dot, obj, value) in &sb.writes {
                if self.vv.contains(dot) {
                    continue; // duplicate
                }
                self.vv.advance(dot.replica);
                self.apply_write(dot, obj, value, &sb.deps);
            }
        }
    }
}

impl ReplicaMachine for CopsReplica {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the operation is not a register operation (write/read).
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        let visible = self.vv.dot_list();
        match op {
            Op::Read => DoOutcome::new(self.objects.read(obj), visible),
            Op::Write(v) => {
                let mut deps = self.vv.clone();
                let seq = self.vv.advance(self.replica);
                deps.set(self.replica, seq - 1);
                let dot = Dot::new(self.replica, seq);
                let start_new = self.fresh_context || self.outbox.is_empty();
                if start_new {
                    self.outbox.push(SubBatch {
                        deps: deps.clone(),
                        writes: vec![(dot, obj, *v)],
                    });
                    self.fresh_context = false;
                } else {
                    self.outbox
                        .last_mut()
                        .expect("outbox non-empty")
                        .writes
                        .push((dot, obj, *v));
                }
                // Local application uses the *sub-batch* deps, matching
                // what remote replicas will compute.
                let batch_deps = self.outbox.last().expect("just pushed").deps.clone();
                self.apply_write(dot, obj, *v, &batch_deps);
                DoOutcome::new(ReturnValue::Ok, visible)
            }
            other => panic!("COPS store does not support {other}"),
        }
    }

    fn pending_message(&self) -> Option<Payload> {
        if self.outbox.is_empty() {
            return None;
        }
        let mut w = BitWriter::new();
        w.write_gamma0(self.outbox.len() as u64);
        for sb in &self.outbox {
            for &e in sb.deps.entries() {
                w.write_gamma0(u64::from(e));
            }
            w.write_gamma(sb.writes.len() as u64);
            for &write in &sb.writes {
                w.write_dotted_write(write, self.config);
            }
        }
        Some(w.finish())
    }

    fn on_send(&mut self) {
        assert!(
            !self.outbox.is_empty(),
            "send scheduled with no pending message"
        );
        self.outbox.clear();
        self.fresh_context = false;
    }

    fn on_receive(&mut self, payload: &Payload) {
        let mut r = BitReader::new(payload);
        let Ok(n_batches) = r.read_gamma0() else {
            return;
        };
        for _ in 0..n_batches {
            let mut deps = VersionVector::new(self.config.n_replicas);
            for i in 0..self.config.n_replicas {
                let Ok(e) = r.read_gamma0() else { return };
                deps.set(ReplicaId::new(i as u32), e as u32);
            }
            let Ok(count) = r.read_gamma() else { return };
            // A count the remaining bits could not carry is corrupt and
            // must not size an allocation.
            if count > r.remaining() as u64 {
                return;
            }
            let mut writes = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let Ok(write) = r.read_dotted_write(self.config) else {
                    return;
                };
                writes.push(write);
            }
            if writes.is_empty() {
                continue;
            }
            let dup = writes.iter().all(|&(d, _, _)| self.vv.contains(d))
                || self
                    .buffer
                    .iter()
                    .any(|b| b.writes.first().map(|w| w.0) == writes.first().map(|w| w.0));
            if !dup {
                self.buffer.push(SubBatch { deps, writes });
            }
        }
        let before = self.vv.total();
        self.drain_buffer();
        if self.vv.total() > before {
            self.fresh_context = true;
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.vv.hash(&mut h);
        self.outbox.hash(&mut h);
        self.objects.hash(&mut h);
        // `fresh_context` is only consulted when the outbox is non-empty
        // (an empty outbox forces a new sub-batch regardless), so two
        // states differing only in this flag are observationally
        // equivalent once the outbox drains. Hash the canonical form, or
        // quiescent replicas that agree on every object would still
        // fingerprint apart (and the explorer would treat bisimilar
        // states as distinct).
        (self.fresh_context && !self.outbox.is_empty()).hash(&mut h);
        let mut buf = self.buffer.clone();
        buf.sort_by_key(|b| b.writes.first().map(|w| w.0));
        buf.hash(&mut h);
        h.finish()
    }

    fn state_bits(&self) -> usize {
        self.vv.bits() + self.objects.bits(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvr::DvvMvrStore;

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
        CopsStore.spawn(r(i), cfg())
    }
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    #[test]
    fn read_own_and_remote_writes() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
        relay(&mut a, &mut b);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn concurrent_writes_become_siblings() {
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
    fn in_batch_overwrite_supersedes() {
        let mut a = spawn(0);
        let mut b = spawn(1);
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(0), &Op::Write(v(2))); // same sub-batch, supersedes v1
        relay(&mut a, &mut b);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    #[test]
    fn causal_buffering_across_replicas() {
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
    fn mid_batch_delivery_splits_subbatches() {
        // a writes, receives from b, writes again: the second write's
        // causal past includes b's write, so it must supersede b's sibling
        // remotely — which requires a fresh sub-batch vector.
        let mut a = spawn(0);
        let mut b = spawn(1);
        let mut c = spawn(2);
        b.do_op(x(0), &Op::Write(v(9)));
        let mb = b.pending_message().unwrap();
        b.on_send();

        a.do_op(x(0), &Op::Write(v(1)));
        a.on_receive(&mb); // arrives mid-batch
        a.do_op(x(0), &Op::Write(v(2))); // supersedes both v1 and v9
        let ma = a.pending_message().unwrap();
        a.on_send();

        c.on_receive(&mb);
        c.on_receive(&ma);
        assert_eq!(
            c.do_op(x(0), &Op::Read).rval,
            ReturnValue::values([v(2)]),
            "v9 must be superseded via the split sub-batch deps"
        );
    }

    #[test]
    fn batched_message_smaller_than_per_update_vectors() {
        // 16 back-to-back writes: COPS ships one vector, DVV ships 16.
        let cfg = StoreConfig::new(8, 2);
        let mut cops = CopsStore.spawn(r(0), cfg);
        let mut dvv = DvvMvrStore.spawn(r(0), cfg);
        for i in 0..16u64 {
            cops.do_op(x(0), &Op::Write(v(i + 1)));
            dvv.do_op(x(0), &Op::Write(v(i + 1)));
        }
        let cops_bits = cops.pending_message().unwrap().bits();
        let dvv_bits = dvv.pending_message().unwrap().bits();
        assert!(
            cops_bits < dvv_bits,
            "compression must help: cops {cops_bits} vs dvv {dvv_bits}"
        );
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
    fn reads_invisible_and_op_driven() {
        let mut a = spawn(0);
        a.do_op(x(0), &Op::Write(v(1)));
        let fp = a.state_fingerprint();
        a.do_op(x(1), &Op::Read);
        assert_eq!(a.state_fingerprint(), fp);
        let mut fresh = spawn(1);
        assert!(fresh.pending_message().is_none());
        let m = a.pending_message().unwrap();
        a.on_send();
        fresh.on_receive(&m);
        assert!(fresh.pending_message().is_none());
    }

    #[test]
    fn factory_name() {
        assert_eq!(CopsStore.name(), "cops-mvr");
    }

    /// A sub-batch write count no payload of this length could carry is
    /// dropped before it sizes an allocation (it used to abort the
    /// process), and a write naming a replica outside the configuration is
    /// dropped before it indexes the version vector.
    #[test]
    fn corrupt_counts_and_ids_are_ignored() {
        let header = |w: &mut BitWriter| {
            w.write_gamma0(1);
            for _ in 0..cfg().n_replicas {
                w.write_gamma0(0);
            }
        };
        let mut huge = BitWriter::new();
        header(&mut huge);
        huge.write_gamma(1 << 45);
        let mut stranger = BitWriter::new();
        header(&mut stranger);
        stranger.write_gamma(1);
        stranger.write_bits(3, 2);
        stranger.write_gamma(1);
        stranger.write_bits(0, 1);
        stranger.write_gamma0(7);
        for msg in [huge.finish(), stranger.finish()] {
            let mut a = spawn(0);
            let before = a.state_fingerprint();
            a.on_receive(&msg);
            assert_eq!(a.state_fingerprint(), before);
        }
    }
}
