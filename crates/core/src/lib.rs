//! # haec-core
//!
//! The *abstract* side of the PODC'15 framework (Burckhardt et al. style,
//! as used by Attiya, Ellen and Morrison): abstract executions `(H, vis)`,
//! operation contexts, replicated object specifications (Figure 1),
//! correctness and compliance (Definitions 8–10), and the consistency
//! models the paper reasons about — causal consistency (Definition 12),
//! observable causal consistency (Definition 18) and eventual consistency
//! (Definitions 13/14).
//!
//! The crate also provides:
//!
//! * [`witness`] — building a candidate abstract execution from a concrete
//!   execution plus the visibility witnesses an instrumented store reports;
//! * [`search`] — a store-independent brute-force searcher that decides, for
//!   small client observations, whether *any* correct (optionally causally
//!   consistent) abstract execution explains them. This is the ground truth
//!   used to reproduce Figures 2 and 3.
//!
//! ## Example: checking an abstract execution
//!
//! ```
//! use haec_core::{AbstractExecutionBuilder, SpecKind, check_correct, causal};
//! use haec_model::{ReplicaId, ObjectId, Op, Value, ReturnValue};
//!
//! let mut b = AbstractExecutionBuilder::new();
//! let w = b.push(ReplicaId::new(0), ObjectId::new(0),
//!                Op::Write(Value::new(1)), ReturnValue::Ok);
//! let r = b.push(ReplicaId::new(1), ObjectId::new(0),
//!                Op::Read, ReturnValue::values([Value::new(1)]));
//! b.vis(w, r);
//! let a = b.build().unwrap();
//! assert!(haec_core::check_correct(&a, &haec_core::ObjectSpecs::uniform(haec_core::SpecKind::Mvr)).is_ok());
//! assert!(haec_core::causal::check(&a).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abstract_execution;
mod bits;
mod compliance;
pub mod consistency;
mod context;
mod correctness;
pub mod search;
pub mod spans;
mod specs;
pub mod viz;
pub mod witness;

pub use abstract_execution::{
    AbstractDo, AbstractExecution, AbstractExecutionBuilder, AbstractExecutionError,
};
pub use compliance::{complies, ComplianceError};
pub use consistency::{
    causal, compare_on, eventual, occ, sessions, stream, ConsistencyModel, ModelComparison,
};
pub use context::OperationContext;
pub use correctness::{check_correct, in_specification, CorrectnessViolation, SpecMembershipError};
pub use specs::{ObjectSpecs, SpecKind};
