//! Counterexample stores from the paper's discussions.
//!
//! These stores deliberately break one assumption each, making the
//! necessity arguments of §3.4 and §5.3 executable:
//!
//! * [`KDelayedStore`] — **no invisible reads** (§5.3): a received update is
//!   exposed only after `K` further local operations, so reads mutate
//!   replica state. The store is still causally and eventually consistent,
//!   but it *avoids* causally consistent executions in which a write is
//!   read immediately after delivery — i.e. it satisfies a consistency
//!   model strictly stronger than OCC, which Theorem 6 shows is impossible
//!   with invisible reads.
//! * [`ArbitrationStore`] — **hides concurrency** (§3.4, Perrin et al.): an
//!   MVR interface implemented by a last-writer-wins register. With a
//!   single object clients cannot tell; with several objects the Figure 2
//!   scenario exposes it.
//! * [`SequencedStore`] — **no op-driven messages** (§5.3): replica 0 acts
//!   as a sequencer that creates pending messages *in response to
//!   receives*; updates become visible only once sequenced, giving a
//!   totally ordered (stronger than OCC) view at the price of liveness.
//! * [`BoundedStore`] — **bounded messages** (Theorem 12 ablation): every
//!   message carries a single update and no dependency information, so
//!   messages stay `O(lg k)` bits but causal consistency fails.

use crate::engine::{CausalEngine, Update, UpdateOp};
use crate::lww::LwwStore;
use crate::mvr::{ReadRule, Siblings};
use crate::replica::DataType;
use crate::wire::{width_for, BitReader, BitWriter};
use haec_model::{
    DoOutcome, Dot, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig,
    StoreFactory, Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// KDelayedStore
// ---------------------------------------------------------------------------

/// Factory for the K-delayed-exposure MVR store (§5.3 counterexample).
///
/// Remote updates are applied to a staging area and *exposed* — made
/// readable — only after `k` further local operations. Reads therefore
/// change replica state (they advance the exposure counter), violating
/// Definition 16.
#[derive(Copy, Clone, Debug)]
pub struct KDelayedStore {
    /// Number of local operations before a received update is exposed.
    pub k: u64,
}

impl KDelayedStore {
    /// Creates the factory with exposure delay `k`.
    pub fn new(k: u64) -> Self {
        KDelayedStore { k }
    }
}

impl StoreFactory for KDelayedStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(KDelayedReplica {
            engine: CausalEngine::new(replica, config),
            k: self.k,
            ops_done: 0,
            staged: VecDeque::new(),
            exposed_dots: BTreeSet::new(),
            exposed: Siblings::new(ReadRule::All),
        })
    }

    fn name(&self) -> &str {
        "k-delayed"
    }
}

/// One replica of the K-delayed store.
#[derive(Clone, Debug)]
pub struct KDelayedReplica {
    engine: CausalEngine,
    k: u64,
    ops_done: u64,
    /// Received-but-unexposed updates, FIFO in causal order, with the local
    /// operation count at which each becomes exposed.
    staged: VecDeque<(u64, Update)>,
    exposed_dots: BTreeSet<Dot>,
    /// Object state over the exposed updates only.
    exposed: Siblings,
}

impl KDelayedReplica {
    fn apply_exposed(&mut self, u: &Update) {
        self.exposed_dots.insert(u.dot);
        self.exposed.apply(u);
    }

    fn tick(&mut self) {
        self.ops_done += 1;
        while let Some(&(when, _)) = self.staged.front() {
            if when >= self.ops_done {
                break;
            }
            let (_, u) = self.staged.pop_front().expect("front exists");
            self.apply_exposed(&u);
        }
    }
}

impl ReplicaMachine for KDelayedReplica {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the operation is not a register operation (write/read).
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        self.tick();
        let visible: Vec<Dot> = self.exposed_dots.iter().copied().collect();
        match op {
            Op::Read => DoOutcome::new(self.exposed.read(obj), visible),
            Op::Write(v) => {
                let u = self.engine.local_update(obj, UpdateOp::Write(*v));
                // Local updates are exposed immediately; note the engine's
                // dependency vector may cover staged (unexposed) updates,
                // which keeps the protocol causally safe remotely while the
                // local exposure policy stays delayed.
                self.apply_exposed(&u);
                DoOutcome::new(ReturnValue::Ok, visible)
            }
            other => panic!("K-delayed store does not support {other}"),
        }
    }

    fn pending_message(&self) -> Option<Payload> {
        self.engine.pending_message()
    }

    fn on_send(&mut self) {
        self.engine.on_send();
    }

    fn on_receive(&mut self, payload: &Payload) {
        let when = self.ops_done + self.k;
        for u in self.engine.on_receive(payload) {
            self.staged.push_back((when, u));
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.engine.hash_into(&mut h);
        self.ops_done.hash(&mut h);
        self.staged.hash(&mut h);
        self.exposed.hash(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// ArbitrationStore
// ---------------------------------------------------------------------------

/// Factory for the arbitration store (§3.4): claims the MVR interface but
/// totally orders all writes via Lamport timestamps (it *is* the LWW store
/// under another name). Reads return at most one value — the concurrency of
/// writes is hidden.
#[derive(Copy, Clone, Default, Debug)]
pub struct ArbitrationStore;

impl StoreFactory for ArbitrationStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        LwwStore.spawn(replica, config)
    }

    fn name(&self) -> &str {
        "arbitration-mvr"
    }
}

// ---------------------------------------------------------------------------
// SequencedStore
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Announcement {
    dot: Dot,
    obj: ObjectId,
    value: Value,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct LogEntry {
    seqno: u64,
    dot: Dot,
    obj: ObjectId,
    value: Value,
}

/// Factory for the sequencer (GSP-like) store (§5.3 discussion).
///
/// Replica 0 is the sequencer: it receives update announcements, assigns a
/// global order and re-broadcasts sequenced entries. Updates become visible
/// (everywhere, including at their origin) only once sequenced. The store
/// offers a totally ordered — stronger than OCC — view, but:
///
/// * the sequencer creates pending messages in response to *receives*,
///   violating op-driven messages (Definition 15); and
/// * if the sequencer stops flushing, updates never become visible —
///   eventual consistency is forfeited, matching the paper's remark that
///   systems like GSP "weaken their liveness guarantee to satisfy stronger
///   consistency".
#[derive(Copy, Clone, Default, Debug)]
pub struct SequencedStore;

impl StoreFactory for SequencedStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(SequencedReplica {
            replica,
            config,
            next_seq: 0,
            announce_out: Vec::new(),
            sequenced_out: Vec::new(),
            log_len_assigned: 0,
            applied: BTreeMap::new(),
            applied_upto: 0,
            buffer: Vec::new(),
            applied_dots: BTreeSet::new(),
        })
    }

    fn name(&self) -> &str {
        "sequenced"
    }
}

/// One replica of the sequencer store.
#[derive(Clone, Debug)]
pub struct SequencedReplica {
    replica: ReplicaId,
    config: StoreConfig,
    next_seq: u32,
    /// Own announcements not yet broadcast.
    announce_out: Vec<Announcement>,
    /// (Sequencer only) sequenced entries not yet broadcast.
    sequenced_out: Vec<LogEntry>,
    /// (Sequencer only) total entries sequenced so far.
    log_len_assigned: u64,
    /// Register state from the applied log prefix.
    applied: BTreeMap<ObjectId, Value>,
    /// Length of the applied log prefix.
    applied_upto: u64,
    /// Out-of-order sequenced entries.
    buffer: Vec<LogEntry>,
    applied_dots: BTreeSet<Dot>,
}

impl SequencedReplica {
    fn is_sequencer(&self) -> bool {
        self.replica.index() == 0
    }

    fn sequence(&mut self, ann: Announcement) {
        self.log_len_assigned += 1;
        let entry = LogEntry {
            seqno: self.log_len_assigned,
            dot: ann.dot,
            obj: ann.obj,
            value: ann.value,
        };
        self.sequenced_out.push(entry.clone());
        self.buffer.push(entry);
        self.drain();
    }

    fn drain(&mut self) {
        loop {
            let next = self.applied_upto + 1;
            let Some(i) = self.buffer.iter().position(|e| e.seqno == next) else {
                break;
            };
            let e = self.buffer.swap_remove(i);
            self.applied.insert(e.obj, e.value);
            self.applied_dots.insert(e.dot);
            self.applied_upto = next;
        }
    }
}

impl ReplicaMachine for SequencedReplica {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the operation is not a register operation (write/read).
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        let visible: Vec<Dot> = self.applied_dots.iter().copied().collect();
        match op {
            Op::Read => DoOutcome::new(
                ReturnValue::values(self.applied.get(&obj).copied()),
                visible,
            )
            .with_timestamp(self.applied_upto),
            Op::Write(v) => {
                self.next_seq += 1;
                let ann = Announcement {
                    dot: Dot::new(self.replica, self.next_seq),
                    obj,
                    value: *v,
                };
                if self.is_sequencer() {
                    self.sequence(ann);
                } else {
                    self.announce_out.push(ann);
                }
                DoOutcome::new(ReturnValue::Ok, visible)
            }
            other => panic!("sequenced store does not support {other}"),
        }
    }

    fn pending_message(&self) -> Option<Payload> {
        if self.announce_out.is_empty() && self.sequenced_out.is_empty() {
            return None;
        }
        let mut w = BitWriter::new();
        w.write_gamma0(self.announce_out.len() as u64);
        for a in &self.announce_out {
            w.write_dotted_write((a.dot, a.obj, a.value), self.config);
        }
        w.write_gamma0(self.sequenced_out.len() as u64);
        for e in &self.sequenced_out {
            w.write_gamma(e.seqno);
            w.write_dotted_write((e.dot, e.obj, e.value), self.config);
        }
        Some(w.finish())
    }

    fn on_send(&mut self) {
        assert!(
            !(self.announce_out.is_empty() && self.sequenced_out.is_empty()),
            "send scheduled with no pending message"
        );
        self.announce_out.clear();
        self.sequenced_out.clear();
    }

    fn on_receive(&mut self, payload: &Payload) {
        let mut r = BitReader::new(payload);
        let Ok(n_ann) = r.read_gamma0() else { return };
        let mut anns = Vec::new();
        for _ in 0..n_ann {
            let Ok((dot, obj, value)) = r.read_dotted_write(self.config) else {
                return;
            };
            anns.push(Announcement { dot, obj, value });
        }
        let Ok(n_seq) = r.read_gamma0() else { return };
        for _ in 0..n_seq {
            let (Ok(seqno), Ok((dot, obj, value))) =
                (r.read_gamma(), r.read_dotted_write(self.config))
            else {
                return;
            };
            let e = LogEntry {
                seqno,
                dot,
                obj,
                value,
            };
            if e.seqno > self.applied_upto && !self.buffer.iter().any(|b| b.seqno == e.seqno) {
                self.buffer.push(e);
            }
        }
        self.drain();
        if self.is_sequencer() {
            // Assigning order to received announcements creates a pending
            // message — the op-driven-messages violation.
            for a in anns {
                if !self.applied_dots.contains(&a.dot)
                    && !self.buffer.iter().any(|b| b.dot == a.dot)
                    && !self.sequenced_out.iter().any(|b| b.dot == a.dot)
                {
                    self.sequence(a);
                }
            }
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.next_seq.hash(&mut h);
        self.announce_out.hash(&mut h);
        self.sequenced_out.hash(&mut h);
        self.log_len_assigned.hash(&mut h);
        self.applied.hash(&mut h);
        self.applied_upto.hash(&mut h);
        self.applied_dots.hash(&mut h);
        let mut buf = self.buffer.clone();
        buf.sort_by_key(|e| e.seqno);
        buf.hash(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// BoundedStore
// ---------------------------------------------------------------------------

/// Factory for the bounded-message store (Theorem 12 ablation).
///
/// Each message carries exactly one update — the replica's most recent —
/// with **no dependency information**: message size stays `O(lg k)` bits
/// regardless of `n` and `s`. The price, as Theorem 12 predicts, is that
/// the store cannot be causally consistent: a dependent write is exposed
/// without its dependency, and older local updates are silently dropped
/// from propagation (breaking eventual consistency for skipped writes).
#[derive(Copy, Clone, Default, Debug)]
pub struct BoundedStore;

impl StoreFactory for BoundedStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(BoundedReplica {
            replica,
            config,
            next_seq: 0,
            latest: None,
            objects: BTreeMap::new(),
            applied_dots: BTreeSet::new(),
        })
    }

    fn name(&self) -> &str {
        "bounded"
    }
}

/// One replica of the bounded-message store.
#[derive(Clone, Debug)]
pub struct BoundedReplica {
    replica: ReplicaId,
    config: StoreConfig,
    next_seq: u32,
    /// The single update pending broadcast (newer local writes overwrite).
    latest: Option<(Dot, ObjectId, Value)>,
    /// Per object: the latest write seen from each origin.
    objects: BTreeMap<ObjectId, BTreeMap<ReplicaId, (u32, Value)>>,
    applied_dots: BTreeSet<Dot>,
}

impl BoundedReplica {
    fn apply(&mut self, dot: Dot, obj: ObjectId, value: Value) {
        let per_origin = self.objects.entry(obj).or_default();
        let entry = per_origin.entry(dot.replica).or_insert((0, value));
        if dot.seq >= entry.0 {
            *entry = (dot.seq, value);
        }
        self.applied_dots.insert(dot);
    }
}

impl ReplicaMachine for BoundedReplica {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the operation is not a register operation (write/read).
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        let visible: Vec<Dot> = self.applied_dots.iter().copied().collect();
        match op {
            Op::Read => DoOutcome::new(
                ReturnValue::values(
                    self.objects
                        .get(&obj)
                        .into_iter()
                        .flat_map(|m| m.values())
                        .map(|&(_, v)| v),
                ),
                visible,
            ),
            Op::Write(v) => {
                self.next_seq += 1;
                let dot = Dot::new(self.replica, self.next_seq);
                // A local write replaces all currently stored entries for
                // the object (it supersedes what this replica saw).
                self.objects.insert(obj, BTreeMap::new());
                self.apply(dot, obj, *v);
                self.latest = Some((dot, obj, *v));
                DoOutcome::new(ReturnValue::Ok, visible)
            }
            other => panic!("bounded store does not support {other}"),
        }
    }

    fn pending_message(&self) -> Option<Payload> {
        let mut w = BitWriter::new();
        w.write_dotted_write(self.latest?, self.config);
        Some(w.finish())
    }

    fn on_send(&mut self) {
        assert!(
            self.latest.is_some(),
            "send scheduled with no pending message"
        );
        self.latest = None;
    }

    fn on_receive(&mut self, payload: &Payload) {
        if let Ok((dot, obj, value)) = BitReader::new(payload).read_dotted_write(self.config) {
            self.apply(dot, obj, value);
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.next_seq.hash(&mut h);
        self.latest.hash(&mut h);
        self.objects.hash(&mut h);
        self.applied_dots.hash(&mut h);
        h.finish()
    }

    fn state_bits(&self) -> usize {
        use crate::wire::gamma_len;
        self.objects
            .values()
            .flat_map(|m| m.values())
            .map(|&(seq, v)| {
                width_for(self.config.n_replicas) as usize
                    + gamma_len(u64::from(seq).max(1))
                    + gamma_len(v.as_u64() + 1)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn relay(from: &mut Box<dyn ReplicaMachine>, to: &mut Box<dyn ReplicaMachine>) {
        let msg = from.pending_message().expect("message pending");
        from.on_send();
        to.on_receive(&msg);
    }

    // --- KDelayedStore ---

    #[test]
    fn k_delayed_reads_are_visible_state_changes() {
        let mut a = KDelayedStore::new(2).spawn(r(0), cfg());
        let fp = a.state_fingerprint();
        a.do_op(x(0), &Op::Read);
        assert_ne!(a.state_fingerprint(), fp, "reads must mutate state");
    }

    #[test]
    fn k_delayed_hides_remote_write_for_k_ops() {
        let mut a = KDelayedStore::new(2).spawn(r(0), cfg());
        let mut b = KDelayedStore::new(2).spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        // First two reads after delivery: still hidden.
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
        // Third operation: exposed.
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn k_delayed_k0_behaves_like_mvr() {
        let mut a = KDelayedStore::new(0).spawn(r(0), cfg());
        let mut b = KDelayedStore::new(0).spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn k_delayed_local_writes_exposed_immediately() {
        let mut a = KDelayedStore::new(5).spawn(r(0), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(1)]));
    }

    #[test]
    fn k_delayed_exposure_preserves_causal_order() {
        let mut a = KDelayedStore::new(1).spawn(r(0), cfg());
        let mut b = KDelayedStore::new(1).spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(1), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        // One op exposes both (same message, same exposure point).
        b.do_op(x(2), &Op::Read);
        let out0 = b.do_op(x(0), &Op::Read);
        let out1 = b.do_op(x(1), &Op::Read);
        assert_eq!(out0.rval, ReturnValue::values([v(1)]));
        assert_eq!(out1.rval, ReturnValue::values([v(2)]));
    }

    // --- ArbitrationStore ---

    #[test]
    fn arbitration_returns_single_value_for_concurrent_writes() {
        let mut a = ArbitrationStore.spawn(r(0), cfg());
        let mut b = ArbitrationStore.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut a, &mut b);
        relay(&mut b, &mut a);
        let ra = a.do_op(x(0), &Op::Read).rval;
        let rb = b.do_op(x(0), &Op::Read).rval;
        assert_eq!(ra, rb, "replicas converge");
        assert_eq!(ra.as_values().unwrap().len(), 1, "concurrency hidden");
    }

    #[test]
    fn arbitration_name() {
        assert_eq!(ArbitrationStore.name(), "arbitration-mvr");
    }

    // --- SequencedStore ---

    #[test]
    fn sequencer_orders_all_updates() {
        let seq = SequencedStore;
        let mut s = seq.spawn(r(0), cfg());
        let mut a = seq.spawn(r(1), cfg());
        let mut b = seq.spawn(r(2), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        b.do_op(x(0), &Op::Write(v(2)));
        // Announcements reach the sequencer.
        let ma = a.pending_message().unwrap();
        a.on_send();
        let mb = b.pending_message().unwrap();
        b.on_send();
        s.on_receive(&ma);
        s.on_receive(&mb);
        // Sequencer now has a pending message created by receives.
        let ms = s.pending_message().expect("sequencer must flush order");
        s.on_send();
        a.on_receive(&ms);
        b.on_receive(&ms);
        let ra = a.do_op(x(0), &Op::Read).rval;
        let rb = b.do_op(x(0), &Op::Read).rval;
        let rs = s.do_op(x(0), &Op::Read).rval;
        assert_eq!(ra, rb);
        assert_eq!(ra, rs);
        assert_eq!(ra.as_values().unwrap().len(), 1);
    }

    #[test]
    fn sequenced_update_invisible_until_sequenced() {
        let seq = SequencedStore;
        let mut a = seq.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        // Even the origin does not see its own unsequenced write.
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn sequencer_violates_op_driven_messages() {
        let seq = SequencedStore;
        let mut s = seq.spawn(r(0), cfg());
        let mut a = seq.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        let ma = a.pending_message().unwrap();
        a.on_send();
        assert!(s.pending_message().is_none());
        s.on_receive(&ma);
        assert!(
            s.pending_message().is_some(),
            "receive created a pending message"
        );
    }

    #[test]
    fn followers_buffer_out_of_order_log_entries() {
        let seq = SequencedStore;
        let mut s = seq.spawn(r(0), cfg());
        let mut a = seq.spawn(r(1), cfg());
        // Sequencer writes twice, flushing between writes -> two messages.
        s.do_op(x(0), &Op::Write(v(1)));
        let m1 = s.pending_message().unwrap();
        s.on_send();
        s.do_op(x(0), &Op::Write(v(2)));
        let m2 = s.pending_message().unwrap();
        s.on_send();
        // Deliver out of order.
        a.on_receive(&m2);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
        a.on_receive(&m1);
        assert_eq!(a.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
    }

    // --- BoundedStore ---

    #[test]
    fn bounded_message_size_independent_of_replica_count() {
        for n in [3usize, 8, 16] {
            let cfg = StoreConfig::new(n, 2);
            let mut a = BoundedStore.spawn(r(0), cfg);
            a.do_op(x(0), &Op::Write(v(5)));
            let bits = a.pending_message().unwrap().bits();
            // Width of replica field grows with lg n only.
            assert!(bits < 32, "bounded message stays small, got {bits}");
        }
    }

    #[test]
    fn bounded_store_drops_old_updates_from_propagation() {
        let mut a = BoundedStore.spawn(r(0), cfg());
        let mut b = BoundedStore.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        a.do_op(x(1), &Op::Write(v(2))); // overwrites the pending update
        relay(&mut a, &mut b);
        assert_eq!(b.do_op(x(1), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(
            b.do_op(x(0), &Op::Read).rval,
            ReturnValue::empty(),
            "x0's write was never propagated"
        );
    }

    #[test]
    fn bounded_store_violates_causality() {
        // b writes y after seeing a's x; c gets only b's message.
        let mut a = BoundedStore.spawn(r(0), cfg());
        let mut b = BoundedStore.spawn(r(1), cfg());
        let mut c = BoundedStore.spawn(r(2), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        b.do_op(x(1), &Op::Write(v(2)));
        relay(&mut b, &mut c);
        assert_eq!(
            c.do_op(x(1), &Op::Read).rval,
            ReturnValue::values([v(2)]),
            "dependent write exposed without its dependency"
        );
        assert_eq!(c.do_op(x(0), &Op::Read).rval, ReturnValue::empty());
    }

    #[test]
    fn bounded_store_cannot_supersede_remotely() {
        // Without dependency vectors, a's replica cannot learn that b's
        // write superseded its own: the replicas diverge permanently even
        // after full message exchange — the eventual-consistency failure
        // Theorem 12 says bounded messages must eventually cause.
        let mut a = BoundedStore.spawn(r(0), cfg());
        let mut b = BoundedStore.spawn(r(1), cfg());
        a.do_op(x(0), &Op::Write(v(1)));
        relay(&mut a, &mut b);
        b.do_op(x(0), &Op::Write(v(2)));
        relay(&mut b, &mut a);
        assert_eq!(b.do_op(x(0), &Op::Read).rval, ReturnValue::values([v(2)]));
        assert_eq!(
            a.do_op(x(0), &Op::Read).rval,
            ReturnValue::values([v(1), v(2)]),
            "a keeps the stale sibling: replicas disagree"
        );
    }
}
