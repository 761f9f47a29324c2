//! The one causal replica: [`CausalEngine`] plus a data type.
//!
//! Every causally consistent store in this crate has the shape
//! Mostéfaoui–Perrin–Raynal describe: causal broadcast plus a per-object
//! sequential rule. [`CausalReplica`] is the broadcast half, written once —
//! dots, dependency vectors, the outbox, causal buffering, duplicate
//! suppression, the visibility witness, fingerprints — and a [`DataType`]
//! is the rule: how a delivered update folds into object state and what a
//! read returns. A store is a factory that pairs the two.
//!
//! Calls into the data type are static (`Box<CausalReplica<T>>` *is* the
//! `Box<dyn ReplicaMachine>`), so each store monomorphizes to the code its
//! hand-written replica used to spell out.

use crate::engine::{CausalEngine, Update, UpdateOp};
use haec_model::{
    DoOutcome, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The per-object state of a causal store and its sequential rule.
///
/// The state is `Hash`: what it feeds is the data half of
/// [`ReplicaMachine::state_fingerprint`].
pub(crate) trait DataType: Clone + Hash + Send + 'static {
    /// The wire operation for the client update `op` on `obj`, prepared
    /// against the current state (a remove records the instances it
    /// observed), or `None` if the type has no such operation.
    fn prepare(&self, obj: ObjectId, op: &Op) -> Option<UpdateOp>;

    /// Folds a local or causally delivered update into the state.
    /// Operations of other data types are ignored.
    fn apply(&mut self, u: &Update);

    /// The response to a read of `obj`. Must not change the state
    /// (invisible reads, Definition 16).
    fn read(&self, obj: ObjectId) -> ReturnValue;

    /// Canonical size of the state in bits.
    fn bits(&self, config: StoreConfig) -> usize;

    /// Whether reads commute with replica renaming, i.e. whether the store
    /// may opt in to symmetry reduction. Arbitration by maximal dot breaks
    /// ties on raw replica ids and is not equivariant (see
    /// [`ReplicaMachine::state_fingerprint_renamed`]).
    fn equivariant(&self) -> bool;

    /// Feeds the state under the replica renaming `perm`: embedded dots
    /// renamed and dot-ordered collections re-sorted, so π-related states
    /// feed the same bytes. Only called when [`equivariant`](Self::equivariant).
    fn hash_renamed_into(&self, perm: &[u32], h: &mut DefaultHasher);
}

/// Feeds `h` a per-object map whose collections embed dots, under a replica
/// renaming: `renamed` lists one collection's entries with their dots
/// renamed, and the entries are re-sorted here because dot order is not
/// renaming-invariant.
pub(crate) fn hash_renamed_objects<C, E: Ord + Hash>(
    objects: &BTreeMap<ObjectId, C>,
    h: &mut DefaultHasher,
    renamed: impl Fn(&C) -> Vec<E>,
) {
    objects.len().hash(h);
    for (obj, entries) in objects {
        obj.hash(h);
        let mut entries = renamed(entries);
        entries.sort_unstable();
        entries.hash(h);
    }
}

/// One replica of a causal store over the data type `T`.
#[derive(Clone, Debug)]
pub(crate) struct CausalReplica<T> {
    engine: CausalEngine,
    data: T,
}

impl<T: DataType> CausalReplica<T> {
    /// The replica in its initial state `σ₀`, boxed for a factory.
    pub(crate) fn spawn(
        replica: ReplicaId,
        config: StoreConfig,
        data: T,
    ) -> Box<dyn ReplicaMachine> {
        Box::new(CausalReplica {
            engine: CausalEngine::new(replica, config),
            data,
        })
    }
}

impl<T: DataType> ReplicaMachine for CausalReplica<T> {
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(self.clone())
    }

    /// # Panics
    ///
    /// Panics if the data type does not support the operation.
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> DoOutcome {
        // The one witness producer: everything applied here before `op`.
        let visible = self.engine.visible_dots();
        if op.is_read() {
            return DoOutcome::new(self.data.read(obj), visible);
        }
        let Some(update) = self.data.prepare(obj, op) else {
            panic!("store does not support {op}")
        };
        let u = self.engine.local_update(obj, update);
        self.data.apply(&u);
        DoOutcome::new(ReturnValue::Ok, visible)
    }

    fn pending_message(&self) -> Option<Payload> {
        self.engine.pending_message()
    }

    fn on_send(&mut self) {
        self.engine.on_send();
    }

    fn on_receive(&mut self, payload: &Payload) {
        for u in self.engine.on_receive(payload) {
            self.data.apply(&u);
        }
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.engine.hash_into(&mut h);
        self.data.hash(&mut h);
        h.finish()
    }

    fn state_bits(&self) -> usize {
        self.engine.state_bits() + self.data.bits(self.engine.config())
    }

    fn state_fingerprint_renamed(&self, perm: &[u32]) -> Option<u64> {
        if !self.data.equivariant() {
            return None;
        }
        let mut h = DefaultHasher::new();
        self.engine.hash_renamed_into(perm, &mut h);
        self.data.hash_renamed_into(perm, &mut h);
        Some(h.finish())
    }

    fn payload_fingerprint_renamed(&self, payload: &Payload, perm: &[u32]) -> Option<u64> {
        if !self.data.equivariant() {
            return None;
        }
        self.engine.payload_fingerprint_renamed(payload, perm)
    }
}
