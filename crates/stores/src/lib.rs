//! # haec-stores
//!
//! Concrete replicated data stores inhabiting the PODC'15 model
//! (`haec-model`), plus the machinery they share:
//!
//! * [`DvvMvrStore`] — the reference *write-propagating* store: a
//!   Dynamo-style, causally and eventually consistent multi-valued register
//!   store on dotted version vectors. Both theorem constructions in
//!   `haec-theory` run against it.
//! * [`OrSetStore`] / [`CounterStore`] / [`EwFlagStore`] /
//!   [`CausalRegisterStore`] / [`MixedStore`] — observed-remove set
//!   (Figure 1(c)), op-based counter, enable-wins flag and §6's register
//!   analogues. With the MVR store these are *data types over one
//!   replica*: a crate-private `CausalReplica<T>` (the
//!   [`engine::CausalEngine`] plus `T`) is their only `ReplicaMachine`
//!   impl; a store contributes its per-object rule — how an update folds
//!   into state, what a read returns. The three register stores share one
//!   sibling-set type and differ only in the read rule.
//! * [`LwwStore`] — last-writer-wins registers via Lamport clocks:
//!   eventually but *not* causally consistent.
//! * Counterexample stores ([`KDelayedStore`], [`ArbitrationStore`],
//!   [`SequencedStore`], [`BoundedStore`]) that each break one assumption
//!   of the theorems, making the paper's necessity discussions executable.
//! * [`wire`] — a bit-exact wire format (Elias gamma codes) so message
//!   sizes can be measured in bits, as Theorem 12 requires. Every decoder
//!   reads ids, dots and counts through it: an id outside the
//!   configuration or a count the payload could not carry is rejected.
//! * [`properties`] — dynamic checkers for invisible reads (Definition 16),
//!   op-driven messages (Definition 15), send determinism and
//!   pending-after-send.
//!
//! A store that does not fit the causal-broadcast shape, or lives outside
//! this crate, implements `ReplicaMachine` directly, as [`LwwStore`],
//! [`CopsStore`] and the counterexamples do.
//!
//! ## Example
//!
//! ```
//! use haec_stores::DvvMvrStore;
//! use haec_model::{StoreFactory, StoreConfig, ReplicaId, ObjectId, Op, Value, ReturnValue};
//!
//! let config = StoreConfig::new(2, 1);
//! let mut a = DvvMvrStore.spawn(ReplicaId::new(0), config);
//! let mut b = DvvMvrStore.spawn(ReplicaId::new(1), config);
//! a.do_op(ObjectId::new(0), &Op::Write(Value::new(1)));
//! b.do_op(ObjectId::new(0), &Op::Write(Value::new(2)));
//! // Exchange messages: the concurrent writes become siblings.
//! let ma = a.pending_message().unwrap();
//! a.on_send();
//! b.on_receive(&ma);
//! let out = b.do_op(ObjectId::new(0), &Op::Read);
//! assert_eq!(out.rval, ReturnValue::values([Value::new(1), Value::new(2)]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffered;
mod causal_reg;
pub mod conformance;
mod counterexamples;
pub mod engine;
mod flag;
mod lww;
mod mixed;
mod mvr;
mod orset;
pub mod properties;
mod replica;
pub mod service;
pub mod vv;
pub mod wire;

pub use buffered::CopsStore;
pub use causal_reg::CausalRegisterStore;
pub use conformance::{conformance_matrix, Conformance};
pub use counterexamples::{ArbitrationStore, BoundedStore, KDelayedStore, SequencedStore};
pub use flag::EwFlagStore;
pub use lww::LwwStore;
pub use mixed::MixedStore;
pub use mvr::DvvMvrStore;
pub use orset::{CounterStore, OrSetStore};

use haec_model::StoreFactory;

/// All store factories, for sweeping tests and experiments.
pub fn all_factories() -> Vec<Box<dyn StoreFactory>> {
    vec![
        Box::new(DvvMvrStore),
        Box::new(CopsStore),
        Box::new(CausalRegisterStore),
        Box::new(OrSetStore),
        Box::new(CounterStore),
        Box::new(EwFlagStore),
        Box::new(LwwStore),
        Box::new(KDelayedStore::new(2)),
        Box::new(ArbitrationStore),
        Box::new(SequencedStore),
        Box::new(BoundedStore),
    ]
}

/// The factories expected to be *write-propagating* (invisible reads +
/// op-driven messages); the property tests assert this dynamically.
pub fn write_propagating_factories() -> Vec<Box<dyn StoreFactory>> {
    vec![
        Box::new(DvvMvrStore),
        Box::new(CopsStore),
        Box::new(CausalRegisterStore),
        Box::new(OrSetStore),
        Box::new(CounterStore),
        Box::new(EwFlagStore),
        Box::new(LwwStore),
        Box::new(ArbitrationStore),
        Box::new(BoundedStore),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_lists_are_nonempty_and_named() {
        let all = all_factories();
        assert!(all.len() >= 10);
        let names: Vec<&str> = all.iter().map(|f| f.name()).collect();
        assert!(names.contains(&"dvv-mvr"));
        assert!(names.contains(&"sequenced"));
        for f in &write_propagating_factories() {
            assert!(!f.name().is_empty());
        }
    }
}
