//! The Theorem 6 construction (paper, §5.2.2).
//!
//! Given an abstract execution `A = (H, vis)` and a store `D`, the
//! construction builds a concrete execution of `D` by replaying `H` and
//! delivering, before each event `e`, the first message sent after each
//! update `e′` with `e′ vis e`. If every response matches `A`, the produced
//! execution *complies* with `A` (Definition 9) — which is precisely what
//! Theorem 6 needs: for every OCC abstract execution there is a complying
//! execution of every write-propagating store providing MVRs, hence no such
//! store satisfies a consistency model stronger than OCC.
//!
//! The construction is a library function over any [`StoreFactory`]:
//!
//! * On the causally consistent DVV MVR store it complies with **every**
//!   causally consistent correct abstract execution (the store neither
//!   hides nor invents visibility).
//! * On the arbitration store it fails exactly on the executions whose
//!   reads expose concurrency — the §3.4 observation that a store hiding
//!   concurrency does not implement MVRs.
//! * On the K-delayed store (no invisible reads) it fails on executions
//!   where a write must be visible immediately — the §5.3 counterexample
//!   showing a store without invisible reads can avoid OCC executions.

use haec_core::{complies, AbstractExecution};
use haec_model::{MsgId, ReturnValue, StoreConfig, StoreFactory};
use haec_sim::Simulator;
use std::collections::BTreeSet;
use std::fmt;

/// A response produced by the store that differs from the abstract
/// execution's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mismatch {
    /// Position in `H` of the diverging event.
    pub h_index: usize,
    /// The response `A` prescribes.
    pub expected: ReturnValue,
    /// The response the store produced.
    pub actual: ReturnValue,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {}: A prescribes {}, store returned {}",
            self.h_index, self.expected, self.actual
        )
    }
}

/// The outcome of running the construction.
#[derive(Debug)]
pub struct ConstructionReport {
    /// The store the construction ran against.
    pub store: String,
    /// Responses that diverged from `A` (empty iff the produced execution
    /// complies with `A`).
    pub mismatches: Vec<Mismatch>,
    /// The simulator holding the produced concrete execution.
    pub simulator: Simulator,
}

impl ConstructionReport {
    /// Did the produced execution comply with `A`?
    pub fn complies(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Derives the store configuration an abstract execution needs.
pub fn config_for(a: &AbstractExecution) -> StoreConfig {
    let n_replicas = a
        .events()
        .iter()
        .map(|e| e.replica.index() + 1)
        .max()
        .unwrap_or(1)
        .max(2);
    let n_objects = a
        .events()
        .iter()
        .map(|e| e.obj.index() + 1)
        .max()
        .unwrap_or(1);
    StoreConfig::new(n_replicas, n_objects)
}

/// Runs the §5.2.2 construction of `A` against the given store.
///
/// For each event `e` of `H` in order:
///
/// 1. **Message delivery** — for each update `e′` with `e′ vis e` (in `H`
///    order), the first message broadcast after `e′` is delivered to
///    `R(e)` unless already delivered. (Reads send nothing and carry no
///    data; in a causally consistent `A` everything visible to a read
///    visible to `e` is also directly visible to `e`.)
/// 2. **Invocation** — `op(e)` is invoked at `R(e)`; the response is
///    compared against `rval(e)`.
/// 3. **Message sending** — if `R(e)` now has a message pending, it is
///    broadcast (this is the "first message after `e`").
pub fn construct(factory: &dyn StoreFactory, a: &AbstractExecution) -> ConstructionReport {
    let config = config_for(a);
    let mut sim = Simulator::new(factory, config);
    // msg_of[h] = the first message broadcast after event h, if any.
    let mut msg_of: Vec<Option<MsgId>> = vec![None; a.len()];
    let mut delivered: BTreeSet<(usize, usize)> = BTreeSet::new(); // (h, replica)
    let mut mismatches = Vec::new();
    for e in 0..a.len() {
        let ev = a.event(e);
        let target = ev.replica;
        // (1) Deliver the messages of visible updates, in H order.
        #[expect(clippy::needless_range_loop, reason = "e2 indexes A and msg_of alike")]
        for e2 in 0..e {
            if !a.sees(e2, e) || a.event(e2).replica == target {
                continue;
            }
            let Some(m) = msg_of[e2] else { continue };
            if delivered.insert((e2, target.index())) {
                sim.deliver_to(m, target);
            }
        }
        // (2) Invoke the operation.
        let (_, rval) = sim.do_op(target, ev.obj, ev.op.clone());
        if rval != ev.rval {
            mismatches.push(Mismatch {
                h_index: e,
                expected: ev.rval.clone(),
                actual: rval,
            });
        }
        // (3) Broadcast the pending message, if any.
        msg_of[e] = sim.flush(target);
    }
    let report = ConstructionReport {
        store: factory.name().to_owned(),
        mismatches,
        simulator: sim,
    };
    debug_assert_eq!(
        report.complies(),
        complies(report.simulator.execution(), a).is_ok(),
        "mismatch bookkeeping must agree with Definition 9"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revealing::make_revealing;
    use haec_core::{causal, check_correct};
    use haec_core::{AbstractExecutionBuilder, ObjectSpecs, SpecKind};
    use haec_model::{ObjectId, Op, ReplicaId, Value};
    use haec_stores::{ArbitrationStore, DvvMvrStore, KDelayedStore};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }

    /// Figure 3c-style OCC execution: a read must return both concurrent
    /// writes, and auxiliary writes witness the concurrency.
    fn occ_execution() -> AbstractExecution {
        let mut b = AbstractExecutionBuilder::new();
        let w1p = b.push(r(0), x(1), Op::Write(v(10)), ReturnValue::Ok);
        let w0 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w0p = b.push(r(1), x(2), Op::Write(v(20)), ReturnValue::Ok);
        let w1 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w0, rd).vis(w1, rd).vis(w1p, rd).vis(w0p, rd);
        b.build_transitive().unwrap()
    }

    /// A simple causal chain across replicas.
    fn chain_execution() -> AbstractExecution {
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let r1 = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        let w2 = b.push(r(1), x(1), Op::Write(v(2)), ReturnValue::Ok);
        let r2 = b.push(r(2), x(1), Op::Read, ReturnValue::values([v(2)]));
        let r3 = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w1, r1).vis(w2, r2).vis(w1, r2);
        let _ = (r3, r2);
        b.build_transitive().unwrap()
    }

    #[test]
    fn dvv_store_complies_with_occ_execution() {
        let a = occ_execution();
        let report = construct(&DvvMvrStore, &a);
        assert!(report.complies(), "{:?}", report.mismatches);
        assert!(complies(report.simulator.execution(), &a).is_ok());
    }

    #[test]
    fn dvv_store_complies_with_chain() {
        let a = chain_execution();
        let report = construct(&DvvMvrStore, &a);
        assert!(report.complies(), "{:?}", report.mismatches);
    }

    #[test]
    fn dvv_store_complies_with_revealing_transform() {
        let rev = make_revealing(&occ_execution());
        assert!(check_correct(&rev.execution, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok());
        assert!(causal::check(&rev.execution).is_ok());
        let report = construct(&DvvMvrStore, &rev.execution);
        assert!(report.complies(), "{:?}", report.mismatches);
    }

    #[test]
    fn arbitration_store_cannot_produce_occ_execution() {
        // The read must return {v1, v2}; the arbitration store returns one
        // value. This is the §3.4/§5.1 hiding failure on an OCC execution.
        let a = occ_execution();
        let report = construct(&ArbitrationStore, &a);
        assert!(!report.complies());
        let m = &report.mismatches[0];
        assert_eq!(m.h_index, 4);
        assert_eq!(m.expected, ReturnValue::values([v(1), v(2)]));
        assert_eq!(m.actual.as_values().unwrap().len(), 1);
    }

    #[test]
    fn k_delayed_store_avoids_immediate_visibility() {
        // A prescribes that R1 reads R0's write immediately after the
        // message arrives; the K-delayed store hides it — the §5.3
        // counterexample avoiding an OCC execution.
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd);
        let a = b.build_transitive().unwrap();
        let ok = construct(&DvvMvrStore, &a);
        assert!(ok.complies());
        let delayed = construct(&KDelayedStore::new(2), &a);
        assert!(!delayed.complies(), "delayed store must return stale read");
        assert_eq!(delayed.mismatches[0].actual, ReturnValue::empty());
    }

    #[test]
    fn construction_handles_empty_execution() {
        let a = AbstractExecutionBuilder::new().build().unwrap();
        let report = construct(&DvvMvrStore, &a);
        assert!(report.complies());
        assert_eq!(report.simulator.execution().len(), 0);
    }

    #[test]
    fn config_for_bounds() {
        let a = occ_execution();
        let c = config_for(&a);
        assert_eq!(c.n_replicas, 3);
        assert_eq!(c.n_objects, 3);
        let empty = AbstractExecutionBuilder::new().build().unwrap();
        let ce = config_for(&empty);
        assert_eq!(ce.n_replicas, 2);
        assert_eq!(ce.n_objects, 1);
    }

    #[test]
    fn produced_execution_is_well_formed() {
        let a = occ_execution();
        let report = construct(&DvvMvrStore, &a);
        assert!(report.simulator.execution().validate().is_ok());
    }

    #[test]
    fn mismatch_display() {
        let m = Mismatch {
            h_index: 3,
            expected: ReturnValue::values([v(1)]),
            actual: ReturnValue::empty(),
        };
        assert!(m.to_string().contains("event 3"));
    }
}
