//! Shared causal-broadcast engine for the dot-based stores.
//!
//! The broadcast half of the six causal stores: the crate-private
//! `CausalReplica<T>` (`replica.rs`) pairs it with a data type `T` and is
//! the one `ReplicaMachine` they share (the K-delayed counterexample drives
//! the engine directly). It implements:
//!
//! * assigning [`Dot`]s to local updates and batching them for the next
//!   `send` (op-driven messages: only client operations enqueue updates);
//! * encoding/decoding update batches with the bit-exact [`wire`] format —
//!   every update carries its dependency version vector, giving
//!   `Θ(min{n,s}·lg k)`-bit messages as discussed in §6 of the paper;
//! * causal delivery: remote updates are buffered until their dependencies
//!   are satisfied, then applied in causal order (the buffering technique
//!   the paper notes real causal stores use, §3.1);
//! * duplicate suppression via the applied version vector, so redelivered
//!   messages are harmless;
//! * fail-closed decoding: a payload that is truncated, has an unknown
//!   operation tag, names a replica or object outside the [`StoreConfig`],
//!   or declares more embedded dots than its remaining bits could hold is
//!   ignored in its entirety.
//!
//! [`wire`]: crate::wire

use crate::service::batch::{self, BatchDecodeError};
use crate::vv::VersionVector;
use crate::wire::{BitReader, BitWriter, DecodeError};
use haec_model::{Dot, ObjectId, Payload, ReplicaId, StoreConfig, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Renames a dot under the replica permutation `perm` (`perm[old] = new`).
pub(crate) fn rename_dot(d: Dot, perm: &[u32]) -> Dot {
    Dot::new(ReplicaId::new(perm[d.replica.index()]), d.seq)
}

/// Renames a version vector: the entry of replica `old` moves to slot
/// `perm[old]`.
pub(crate) fn rename_vv(vv: &VersionVector, perm: &[u32]) -> VersionVector {
    let mut out = VersionVector::new(vv.len());
    for (i, &e) in vv.entries().iter().enumerate() {
        out.set(ReplicaId::new(perm[i]), e);
    }
    out
}

/// Renames every dot and re-sorts into canonical (renamed-id) order, so the
/// result is independent of the order the original list was accumulated in.
pub(crate) fn rename_dots(dots: &[Dot], perm: &[u32]) -> Vec<Dot> {
    let mut out: Vec<Dot> = dots.iter().map(|&d| rename_dot(d, perm)).collect();
    out.sort_unstable();
    out
}

/// Renames an update record: its dot, its dependency vector, and any dots
/// embedded in the operation (observed add-instances / enables, re-sorted
/// into canonical order).
fn rename_update(u: &Update, perm: &[u32]) -> Update {
    let op = match &u.op {
        UpdateOp::Remove(v, dots) => UpdateOp::Remove(*v, rename_dots(dots, perm)),
        UpdateOp::Disable(dots) => UpdateOp::Disable(rename_dots(dots, perm)),
        other => other.clone(),
    };
    Update {
        dot: rename_dot(u.dot, perm),
        obj: u.obj,
        op,
        deps: rename_vv(&u.deps, perm),
    }
}

/// The update operations carried in messages.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UpdateOp {
    /// MVR / register write.
    Write(Value),
    /// ORset add.
    Add(Value),
    /// ORset remove; carries the dots of the add-instances it observed.
    Remove(Value, Vec<Dot>),
    /// Counter increment.
    Inc,
    /// Enable-wins flag raise.
    Enable,
    /// Enable-wins flag lower; carries the dots of the enables it observed.
    Disable(Vec<Dot>),
}

const TAG_WRITE: u64 = 0;
const TAG_ADD: u64 = 1;
const TAG_REMOVE: u64 = 2;
const TAG_INC: u64 = 3;
const TAG_ENABLE: u64 = 4;
const TAG_DISABLE: u64 = 5;
const TAG_BITS: u32 = 3;

/// An update record: a dotted operation plus its causal dependencies.
///
/// `deps` is the origin replica's applied version vector *excluding* this
/// update itself; the update is applicable at a replica whose applied vector
/// dominates `deps` and whose entry for the origin is exactly `dot.seq − 1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Update {
    /// Globally unique identity.
    pub dot: Dot,
    /// The object updated.
    pub obj: ObjectId,
    /// The operation.
    pub op: UpdateOp,
    /// Causal dependencies.
    pub deps: VersionVector,
}

impl Update {
    /// Encodes the update into `w` using the configured replica/object
    /// widths.
    pub(crate) fn encode(&self, w: &mut BitWriter, config: StoreConfig) {
        w.write_dot(self.dot, config);
        w.write_obj(self.obj, config);
        match &self.op {
            UpdateOp::Write(v) => {
                w.write_bits(TAG_WRITE, TAG_BITS);
                w.write_gamma0(v.as_u64());
            }
            UpdateOp::Add(v) => {
                w.write_bits(TAG_ADD, TAG_BITS);
                w.write_gamma0(v.as_u64());
            }
            UpdateOp::Remove(v, dots) => {
                w.write_bits(TAG_REMOVE, TAG_BITS);
                w.write_gamma0(v.as_u64());
                w.write_dots(dots, config);
            }
            UpdateOp::Inc => {
                w.write_bits(TAG_INC, TAG_BITS);
            }
            UpdateOp::Enable => {
                w.write_bits(TAG_ENABLE, TAG_BITS);
            }
            UpdateOp::Disable(dots) => {
                w.write_bits(TAG_DISABLE, TAG_BITS);
                w.write_dots(dots, config);
            }
        }
        for &e in self.deps.entries() {
            w.write_gamma0(e as u64);
        }
    }

    /// Decodes one record, failing closed: an unknown operation tag, a
    /// replica or object id outside `config`, or an embedded dot count the
    /// remaining bits could not carry is an error, never a guess.
    pub(crate) fn decode(
        r: &mut BitReader<'_>,
        config: StoreConfig,
    ) -> Result<Update, DecodeError> {
        let dot = r.read_dot(config)?;
        let obj = r.read_obj(config)?;
        let tag_at = r.position();
        let op = match r.read_bits(TAG_BITS)? {
            TAG_WRITE => UpdateOp::Write(Value::new(r.read_gamma0()?)),
            TAG_ADD => UpdateOp::Add(Value::new(r.read_gamma0()?)),
            TAG_REMOVE => UpdateOp::Remove(Value::new(r.read_gamma0()?), r.read_dots(config)?),
            TAG_INC => UpdateOp::Inc,
            TAG_ENABLE => UpdateOp::Enable,
            TAG_DISABLE => UpdateOp::Disable(r.read_dots(config)?),
            _ => return Err(DecodeError { at_bit: tag_at }),
        };
        let mut deps = VersionVector::new(config.n_replicas);
        for i in 0..config.n_replicas {
            deps.set(ReplicaId::new(i as u32), r.read_gamma0()? as u32);
        }
        Ok(Update { dot, obj, op, deps })
    }

    /// Exact encoded size in bits under the given configuration.
    pub fn encoded_bits(&self, config: StoreConfig) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w, config);
        w.len_bits()
    }
}

/// The shared causal-broadcast state of one replica.
#[derive(Clone, Debug)]
pub struct CausalEngine {
    replica: ReplicaId,
    config: StoreConfig,
    /// Applied update counts per origin (contiguous).
    vv: VersionVector,
    /// Local updates not yet broadcast.
    outbox: Vec<Update>,
    /// Remote updates waiting for their dependencies.
    buffer: Vec<Update>,
}

impl CausalEngine {
    /// Creates the engine for one replica.
    pub fn new(replica: ReplicaId, config: StoreConfig) -> Self {
        CausalEngine {
            replica,
            config,
            vv: VersionVector::new(config.n_replicas),
            outbox: Vec::new(),
            buffer: Vec::new(),
        }
    }

    /// This replica's id.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The applied version vector.
    pub fn vv(&self) -> &VersionVector {
        &self.vv
    }

    /// Records a local update: assigns the next dot, advances the applied
    /// vector and queues the update for the next broadcast. Returns the
    /// update (the caller applies it to its object state).
    pub fn local_update(&mut self, obj: ObjectId, op: UpdateOp) -> Update {
        let mut deps = self.vv.clone();
        let seq = self.vv.advance(self.replica);
        deps.set(self.replica, seq - 1);
        let upd = Update {
            dot: Dot::new(self.replica, seq),
            obj,
            op,
            deps,
        };
        self.outbox.push(upd.clone());
        upd
    }

    /// The message that would be broadcast from the current state: the
    /// encoded outbox as one update batch (shared header + N records, see
    /// [`service::batch`]), or `None` when the outbox is empty (no message
    /// pending). Deterministic in the state.
    ///
    /// [`service::batch`]: crate::service::batch
    pub fn pending_message(&self) -> Option<Payload> {
        if self.outbox.is_empty() {
            return None;
        }
        Some(batch::encode_batch(&self.outbox, self.config))
    }

    /// Marks the outbox broadcast: after a `send` nothing is pending.
    ///
    /// # Panics
    ///
    /// Panics if no message was pending (the model only schedules `send`
    /// when one is).
    pub fn on_send(&mut self) {
        assert!(
            !self.outbox.is_empty(),
            "send scheduled with no pending message"
        );
        self.outbox.clear();
    }

    /// Decodes a received message, buffers its updates, and returns the
    /// updates that became applicable, in causal order. Duplicates (dots
    /// already covered) are dropped; malformed payloads are ignored *in
    /// their entirety* (the network is untrusted, the engine is not): the
    /// decode is all-or-nothing, so a truncated batch never applies a
    /// prefix of its updates.
    pub fn on_receive(&mut self, payload: &Payload) -> Vec<Update> {
        self.try_receive(payload).unwrap_or_default()
    }

    /// [`on_receive`](Self::on_receive) with the failure surfaced: a
    /// corrupt or truncated batch returns the [`BatchDecodeError`] naming
    /// the failing update index, and the engine state is untouched — fail
    /// closed, no partial application.
    ///
    /// # Errors
    ///
    /// Returns the batch decode error; the engine buffers nothing on
    /// error.
    pub fn try_receive(&mut self, payload: &Payload) -> Result<Vec<Update>, BatchDecodeError> {
        let updates = batch::decode_batch(payload, self.config)?;
        for u in updates {
            if !self.vv.contains(u.dot) && !self.buffer.iter().any(|b| b.dot == u.dot) {
                self.buffer.push(u);
            }
        }
        Ok(self.drain_ready())
    }

    fn drain_ready(&mut self) -> Vec<Update> {
        let mut applied = Vec::new();
        loop {
            let idx = self.buffer.iter().position(|u| {
                u.dot.seq == self.vv.get(u.dot.replica) + 1 && self.vv.dominates(&u.deps)
            });
            let Some(i) = idx else { break };
            let u = self.buffer.swap_remove(i);
            self.vv.advance(u.dot.replica);
            applied.push(u);
        }
        applied
    }

    /// All dots applied at this replica — the visibility witness.
    pub fn visible_dots(&self) -> Vec<Dot> {
        self.vv.dot_list()
    }

    /// Hash of the engine state (for fingerprinting).
    pub fn hash_into(&self, h: &mut DefaultHasher) {
        self.vv.hash(h);
        self.outbox.hash(h);
        // Buffer contents are state too; order-insensitive hash.
        let mut dots: Vec<&Update> = self.buffer.iter().collect();
        dots.sort_by_key(|u| u.dot);
        dots.hash(h);
    }

    /// Approximate canonical size in bits of the engine state (vv + outbox
    /// + buffer), for the state-space experiments.
    pub fn state_bits(&self) -> usize {
        let pending: usize = self
            .outbox
            .iter()
            .chain(self.buffer.iter())
            .map(|u| u.encoded_bits(self.config))
            .sum();
        self.vv.bits() + pending
    }

    /// Returns `true` if there are buffered (not yet applicable) updates.
    pub fn has_buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Hash of the engine state under the replica renaming `perm`, feeding
    /// the store-level `state_fingerprint_renamed` implementations. The
    /// buffer is sorted by *renamed* dot so π-related buffers hash equal
    /// regardless of arrival order under the old ids.
    pub fn hash_renamed_into(&self, perm: &[u32], h: &mut DefaultHasher) {
        rename_vv(&self.vv, perm).hash(h);
        // Outbox order is program order — invariant under renaming.
        for u in &self.outbox {
            rename_update(u, perm).hash(h);
        }
        self.outbox.len().hash(h);
        let mut buf: Vec<Update> = self.buffer.iter().map(|u| rename_update(u, perm)).collect();
        buf.sort_by_key(|u| u.dot);
        buf.hash(h);
    }

    /// Fingerprint of a wire payload under the replica renaming `perm`.
    /// Pure in `(payload, perm, config)` — decodes the update sequence,
    /// renames each record, and hashes the renamed sequence. `None` if the
    /// payload does not decode (the identity fingerprint of a π-related
    /// payload would fail identically, so collision safety is preserved).
    pub fn payload_fingerprint_renamed(&self, payload: &Payload, perm: &[u32]) -> Option<u64> {
        let updates = batch::decode_batch(payload, self.config).ok()?;
        let mut h = DefaultHasher::new();
        (updates.len() as u64).hash(&mut h);
        for u in &updates {
            rename_update(u, perm).hash(&mut h);
        }
        Some(h.finish())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::width_for;

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

    #[test]
    fn local_update_assigns_contiguous_dots() {
        let mut e = CausalEngine::new(r(0), cfg());
        let u1 = e.local_update(x(0), UpdateOp::Write(v(1)));
        let u2 = e.local_update(x(1), UpdateOp::Write(v(2)));
        assert_eq!(u1.dot, Dot::new(r(0), 1));
        assert_eq!(u2.dot, Dot::new(r(0), 2));
        assert!(u2.deps.contains(u1.dot));
        assert!(!u1.deps.contains(u1.dot));
    }

    #[test]
    fn message_roundtrip() {
        let mut e = CausalEngine::new(r(0), cfg());
        e.local_update(x(0), UpdateOp::Write(v(7)));
        e.local_update(x(1), UpdateOp::Add(v(8)));
        e.local_update(x(1), UpdateOp::Remove(v(8), vec![Dot::new(r(0), 2)]));
        e.local_update(x(0), UpdateOp::Inc);
        let msg = e.pending_message().expect("pending");
        let mut recv = CausalEngine::new(r(1), cfg());
        let applied = recv.on_receive(&msg);
        assert_eq!(applied.len(), 4);
        assert_eq!(applied[0].op, UpdateOp::Write(v(7)));
        assert_eq!(
            applied[2].op,
            UpdateOp::Remove(v(8), vec![Dot::new(r(0), 2)])
        );
        assert_eq!(recv.vv().get(r(0)), 4);
    }

    #[test]
    fn send_clears_pending() {
        let mut e = CausalEngine::new(r(0), cfg());
        e.local_update(x(0), UpdateOp::Inc);
        assert!(e.pending_message().is_some());
        e.on_send();
        assert!(e.pending_message().is_none());
    }

    #[test]
    #[should_panic(expected = "no pending message")]
    fn send_without_pending_panics() {
        CausalEngine::new(r(0), cfg()).on_send();
    }

    #[test]
    fn duplicate_delivery_suppressed() {
        let mut a = CausalEngine::new(r(0), cfg());
        a.local_update(x(0), UpdateOp::Inc);
        let msg = a.pending_message().unwrap();
        let mut b = CausalEngine::new(r(1), cfg());
        assert_eq!(b.on_receive(&msg).len(), 1);
        assert_eq!(b.on_receive(&msg).len(), 0);
        assert_eq!(b.vv().get(r(0)), 1);
    }

    #[test]
    fn out_of_order_delivery_buffers() {
        let mut a = CausalEngine::new(r(0), cfg());
        a.local_update(x(0), UpdateOp::Write(v(1)));
        let m1 = a.pending_message().unwrap();
        a.on_send();
        a.local_update(x(0), UpdateOp::Write(v(2)));
        let m2 = a.pending_message().unwrap();
        a.on_send();

        let mut b = CausalEngine::new(r(1), cfg());
        assert!(b.on_receive(&m2).is_empty(), "m2 depends on m1");
        assert!(b.has_buffered());
        let applied = b.on_receive(&m1);
        assert_eq!(applied.len(), 2, "m1 unblocks m2");
        assert_eq!(applied[0].op, UpdateOp::Write(v(1)));
        assert_eq!(applied[1].op, UpdateOp::Write(v(2)));
        assert!(!b.has_buffered());
    }

    #[test]
    fn cross_replica_dependency_respected() {
        // R1's update depends on R0's; R2 receives R1's first.
        let mut a = CausalEngine::new(r(0), cfg());
        a.local_update(x(0), UpdateOp::Write(v(1)));
        let ma = a.pending_message().unwrap();
        a.on_send();

        let mut b = CausalEngine::new(r(1), cfg());
        b.on_receive(&ma);
        b.local_update(x(0), UpdateOp::Write(v(2)));
        let mb = b.pending_message().unwrap();
        b.on_send();

        let mut c = CausalEngine::new(r(2), cfg());
        assert!(c.on_receive(&mb).is_empty());
        let applied = c.on_receive(&ma);
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].dot, Dot::new(r(0), 1));
        assert_eq!(applied[1].dot, Dot::new(r(1), 1));
    }

    #[test]
    fn visible_dots_track_vv() {
        let mut e = CausalEngine::new(r(0), cfg());
        e.local_update(x(0), UpdateOp::Inc);
        e.local_update(x(0), UpdateOp::Inc);
        let dots = e.visible_dots();
        assert_eq!(dots, vec![Dot::new(r(0), 1), Dot::new(r(0), 2)]);
    }

    #[test]
    fn malformed_payload_ignored() {
        let mut e = CausalEngine::new(r(0), cfg());
        let junk = Payload::from_bytes(vec![0xFF, 0xFF, 0xFF]);
        let applied = e.on_receive(&junk);
        assert!(applied.is_empty());
    }

    /// Fail-closed delivery: a batch truncated inside its second record
    /// applies *nothing* — the decodable first record must not slip
    /// through (it used to: the engine buffered records as it decoded
    /// them and kept the prefix on error).
    #[test]
    fn truncated_batch_applies_nothing() {
        use crate::wire::BitReader;
        let mut a = CausalEngine::new(r(0), cfg());
        let u1 = a.local_update(x(0), UpdateOp::Write(v(1)));
        a.local_update(x(1), UpdateOp::Write(v(2)));
        let msg = a.pending_message().unwrap();
        let cut = msg.bits() - (msg.bits() - batch::header_bits(2) - u1.encoded_bits(cfg())) / 2;
        let truncated = BitReader::new(&msg).read_payload(cut).unwrap();

        let mut b = CausalEngine::new(r(1), cfg());
        let err = b.try_receive(&truncated).unwrap_err();
        assert_eq!(err.index, Some(1), "the second record is the culprit");
        assert_eq!(b.vv().get(r(0)), 0, "no prefix applied");
        assert!(!b.has_buffered(), "no prefix buffered");
        assert!(b.on_receive(&truncated).is_empty());
        // The intact batch still delivers both updates afterwards.
        assert_eq!(b.on_receive(&msg).len(), 2);
    }

    /// The engine's broadcast is exactly the batch codec over its outbox.
    #[test]
    fn pending_message_is_the_batch_encoding() {
        let mut e = CausalEngine::new(r(0), cfg());
        e.local_update(x(0), UpdateOp::Inc);
        e.local_update(x(1), UpdateOp::Enable);
        let msg = e.pending_message().unwrap();
        let expected_bits = batch::header_bits(2)
            + batch::decode_batch(&msg, cfg())
                .unwrap()
                .iter()
                .map(|u| u.encoded_bits(cfg()))
                .sum::<usize>();
        assert_eq!(msg.bits(), expected_bits);
    }

    /// A one-record batch at dot `(replica, 1)` whose fields are written
    /// raw, so tests can forge what the encoder never produces. `body`
    /// writes whatever follows the operation tag.
    pub(crate) fn forged_batch(
        config: StoreConfig,
        (replica, obj, tag): (u64, u64, u64),
        body: impl FnOnce(&mut BitWriter),
    ) -> Payload {
        let mut w = BitWriter::new();
        w.write_gamma0(1);
        w.write_bits(replica, width_for(config.n_replicas));
        w.write_gamma(1);
        w.write_bits(obj, width_for(config.n_objects));
        w.write_bits(tag, TAG_BITS);
        body(&mut w);
        for _ in 0..config.n_replicas {
            w.write_gamma0(0);
        }
        w.finish()
    }

    /// The forgery helper itself speaks the wire format.
    #[test]
    fn forged_batch_with_honest_fields_decodes() {
        let msg = forged_batch(cfg(), (1, 1, TAG_ADD), |w| w.write_gamma0(9));
        let us = batch::decode_batch(&msg, cfg()).unwrap();
        assert_eq!(us.len(), 1);
        assert_eq!((us[0].dot, us[0].obj), (Dot::new(r(1), 1), x(1)));
        assert_eq!(us[0].op, UpdateOp::Add(v(9)));
    }

    /// Tags 6 and 7 fit the 3-bit field but name no operation; they used
    /// to decode as an increment.
    #[test]
    fn unknown_op_tag_fails_closed() {
        for tag in [6, 7] {
            let msg = forged_batch(cfg(), (1, 0, tag), |_| {});
            let err = batch::decode_batch(&msg, cfg()).unwrap_err();
            assert_eq!(err.index, Some(0), "tag {tag}");
            let mut e = CausalEngine::new(r(0), cfg());
            assert!(e.try_receive(&msg).is_err());
            assert_eq!(e.vv().total(), 0);
        }
    }

    /// An observed-dot count no payload of this length could carry is
    /// rejected before it sizes an allocation (2^45 dots used to abort the
    /// process).
    #[test]
    fn oversized_dot_count_is_rejected_before_allocating() {
        let remove = forged_batch(cfg(), (1, 0, TAG_REMOVE), |w| {
            w.write_gamma0(5);
            w.write_gamma0(1 << 45);
        });
        let disable = forged_batch(cfg(), (1, 0, TAG_DISABLE), |w| w.write_gamma0(1 << 45));
        for msg in [remove, disable] {
            assert!(msg.bits() < 128);
            let err = batch::decode_batch(&msg, cfg()).unwrap_err();
            assert_eq!(err.index, Some(0));
        }
    }

    /// With three replicas the two-bit id field can say 3; such a record
    /// used to index out of the version vector. Same for embedded dots and
    /// for object ids.
    #[test]
    fn out_of_range_ids_are_rejected() {
        let wide = StoreConfig::new(3, 3);
        let record_dot = forged_batch(wide, (3, 0, TAG_INC), |_| {});
        let object = forged_batch(wide, (1, 3, TAG_INC), |_| {});
        let embedded_dot = forged_batch(wide, (1, 0, TAG_DISABLE), |w| {
            w.write_gamma0(1);
            w.write_bits(3, width_for(wide.n_replicas));
            w.write_gamma(1);
        });
        for msg in [record_dot, object, embedded_dot] {
            let mut e = CausalEngine::new(r(0), wide);
            let err = e.try_receive(&msg).unwrap_err();
            assert_eq!(err.index, Some(0));
            assert!(!e.has_buffered());
        }
    }

    #[test]
    fn deps_grow_with_history_in_bits() {
        // The dependency vector makes update encodings grow ~ lg(seq).
        let cfg = StoreConfig::new(4, 1);
        let mut a = CausalEngine::new(r(0), cfg);
        let mut small = 0;
        let mut large = 0;
        for i in 0..1000u64 {
            let u = a.local_update(x(0), UpdateOp::Write(v(i)));
            if i == 1 {
                small = u.encoded_bits(cfg);
            }
            if i == 999 {
                large = u.encoded_bits(cfg);
            }
            a.on_send();
        }
        assert!(large > small, "encodings must grow with sequence numbers");
        assert!(
            large >= small + 2 * ((1000f64).log2() as usize - 2),
            "growth should be logarithmic-ish: {small} -> {large}"
        );
    }

    #[test]
    fn state_bits_positive_after_updates() {
        let mut e = CausalEngine::new(r(0), cfg());
        let empty = e.state_bits();
        e.local_update(x(0), UpdateOp::Write(v(1)));
        assert!(e.state_bits() > empty);
    }
}
