//! Correctness of abstract executions (Definition 8).

use crate::abstract_execution::AbstractExecution;
use crate::context::OperationContext;
use crate::specs::ObjectSpecs;
use haec_model::ReturnValue;
use std::fmt;

/// A response that disagrees with the object's specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorrectnessViolation {
    /// Index (in `H`) of the offending event.
    pub event: usize,
    /// The response the specification requires for the event's context.
    pub expected: ReturnValue,
    /// The response actually recorded.
    pub actual: ReturnValue,
}

impl fmt::Display for CorrectnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {}: spec requires {}, execution has {}",
            self.event, self.expected, self.actual
        )
    }
}

impl std::error::Error for CorrectnessViolation {}

/// Checks that an abstract execution is *correct* (Definition 8): for every
/// object `o`, the projection `A|o` is in the specification `S(o)` — i.e.
/// every event's response equals `f_o(ctxt(A, e))`.
///
/// Because `ctxt(A, e)` already restricts to same-object events, checking
/// each event against its context is equivalent to checking each projection.
///
/// # Errors
///
/// Returns the first violation in `H` order.
pub fn check_correct(
    a: &AbstractExecution,
    specs: &ObjectSpecs,
) -> Result<(), CorrectnessViolation> {
    crate::spans::timed("check.correct", || {
        for e in 0..a.len() {
            let ev = a.event(e);
            // `f_o` answers every update with `Ok`, whatever its context.
            let expected = if ev.op.is_update() {
                ReturnValue::Ok
            } else {
                specs
                    .spec_of(ev.obj)
                    .expected_rval(&OperationContext::of(a, e))
            };
            if expected != ev.rval {
                return Err(CorrectnessViolation {
                    event: e,
                    expected,
                    actual: ev.rval.clone(),
                });
            }
        }
        Ok(())
    })
}

/// Errors from the Definition 6 membership test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecMembershipError {
    /// The execution is not `o`-only.
    NotObjectOnly {
        /// The offending event.
        event: usize,
    },
    /// An operation is not part of the object's interface.
    UnsupportedOp {
        /// The offending event.
        event: usize,
    },
    /// A response disagrees with `f_o`.
    WrongResponse(CorrectnessViolation),
}

impl fmt::Display for SpecMembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecMembershipError::NotObjectOnly { event } => {
                write!(f, "event {event} operates on a different object")
            }
            SpecMembershipError::UnsupportedOp { event } => {
                write!(f, "event {event} uses an operation outside the interface")
            }
            SpecMembershipError::WrongResponse(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for SpecMembershipError {}

/// Definition 6 membership: is the `o`-only abstract execution `a` in the
/// specification `S(o)` of an object with spec function `kind`?
///
/// `S(o)` is a prefix-closed set of `o`-only abstract executions whose
/// every response equals `f_o(ctxt(A, e))` — prefix closure follows from
/// the contexts of a prefix being unchanged (see the prefix-closure
/// property test).
///
/// # Errors
///
/// Returns the first violation found.
pub fn in_specification(
    a: &AbstractExecution,
    o: haec_model::ObjectId,
    kind: crate::specs::SpecKind,
) -> Result<(), SpecMembershipError> {
    for (e, ev) in a.events().iter().enumerate() {
        if ev.obj != o {
            return Err(SpecMembershipError::NotObjectOnly { event: e });
        }
        if !kind.accepts(&ev.op) {
            return Err(SpecMembershipError::UnsupportedOp { event: e });
        }
    }
    check_correct(a, &ObjectSpecs::uniform(kind)).map_err(SpecMembershipError::WrongResponse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_execution::AbstractExecutionBuilder;
    use crate::specs::SpecKind;
    use haec_model::{ObjectId, Op, ReplicaId, Value};

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
    fn correct_execution_passes() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd);
        let a = b.build().unwrap();
        assert!(check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok());
    }

    #[test]
    fn stale_read_caught() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        // Read claims to see v1 but has no vis edge from the write.
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        let a = b.build().unwrap();
        let err = check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).unwrap_err();
        assert_eq!(err.event, rd);
        assert_eq!(err.expected, ReturnValue::empty());
        let _ = w;
    }

    #[test]
    fn hidden_concurrent_write_caught() {
        // Two concurrent writes both visible to the read, but the read
        // returns only one: incorrect for MVR.
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w2 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(2)]));
        b.vis(w1, rd).vis(w2, rd);
        let a = b.build().unwrap();
        let err = check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).unwrap_err();
        assert_eq!(err.event, rd);
        assert_eq!(err.expected, ReturnValue::values([v(1), v(2)]));
    }

    #[test]
    fn same_history_correct_under_lww_but_not_mvr() {
        // The same hidden-write history is fine for a LWW register.
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w2 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(2)]));
        b.vis(w1, rd).vis(w2, rd);
        let a = b.build().unwrap();
        assert!(check_correct(&a, &ObjectSpecs::uniform(SpecKind::LwwRegister)).is_ok());
        assert!(check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_err());
    }

    #[test]
    fn wrong_update_ack_caught() {
        let mut b = AbstractExecutionBuilder::new();
        b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::values([v(9)]));
        let a = b.build().unwrap();
        let err = check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).unwrap_err();
        assert_eq!(err.expected, ReturnValue::Ok);
    }

    #[test]
    fn violation_display() {
        let viol = CorrectnessViolation {
            event: 2,
            expected: ReturnValue::empty(),
            actual: ReturnValue::values([v(1)]),
        };
        assert_eq!(
            viol.to_string(),
            "event 2: spec requires {}, execution has {v1}"
        );
    }

    #[test]
    fn definition6_membership() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd);
        let a = b.build().unwrap();
        assert!(in_specification(&a, x(0), SpecKind::Mvr).is_ok());
        // Not o-only for a different object.
        assert!(matches!(
            in_specification(&a, x(1), SpecKind::Mvr),
            Err(SpecMembershipError::NotObjectOnly { event: 0 })
        ));
        // Wrong interface.
        assert!(matches!(
            in_specification(&a, x(0), SpecKind::OrSet),
            Err(SpecMembershipError::UnsupportedOp { event: 0 })
        ));
    }

    #[test]
    fn specification_is_prefix_closed() {
        // Definition 6 requires S(o) prefix-closed; verify on a family of
        // member executions.
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd1 = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        let w2 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd2 = b.push(r(0), x(0), Op::Read, ReturnValue::values([v(2)]));
        b.vis(w1, rd1).vis(w2, rd2).vis(w1, rd2);
        let a = b.build_transitive().unwrap();
        assert!(in_specification(&a, x(0), SpecKind::Mvr).is_ok());
        for len in 0..=a.len() {
            assert!(
                in_specification(&a.prefix(len), x(0), SpecKind::Mvr).is_ok(),
                "prefix {len} left S(o)"
            );
        }
        let _ = (w1, w2, rd1, rd2);
    }

    #[test]
    fn per_object_specs_respected() {
        let mut b = AbstractExecutionBuilder::new();
        b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        b.push(r(0), x(1), Op::Add(v(2)), ReturnValue::Ok);
        b.push(r(0), x(1), Op::Read, ReturnValue::values([v(2)]));
        let a = b.build().unwrap();
        let specs = ObjectSpecs::uniform(SpecKind::Mvr).with(x(1), SpecKind::OrSet);
        assert!(check_correct(&a, &specs).is_ok());
    }
}
