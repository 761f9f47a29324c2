//! Revealing executions (paper, §5.2.1).
//!
//! An MVR abstract execution is *revealing* if every write `w` is
//! immediately preceded, at its replica, by a read `r_w` of the same object
//! that is identical to `w` with respect to visibility. The read "reveals"
//! the state of the MVR at the moment of the write, which lets the
//! Theorem 6 proof reason about which writes are visible to `w`.
//!
//! The paper argues the revealing assumption is without loss of generality:
//! because reads are invisible, inserting the `r_w` operations does not
//! affect any other response, and stripping them from a complying concrete
//! execution yields one complying with the original. [`make_revealing`]
//! performs the insertion; [`is_revealing`] checks the property.

use haec_core::{AbstractExecution, AbstractExecutionBuilder, OperationContext, SpecKind};
use haec_model::{Op, ReturnValue};

/// The result of [`make_revealing`]: the transformed execution plus the
/// mapping from original event indices to their new positions.
#[derive(Clone, Debug)]
pub struct RevealingExecution {
    /// The revealing execution `A'`.
    pub execution: AbstractExecution,
    /// `new_index[i]` is the position in `A'` of event `i` of `A`.
    pub new_index: Vec<usize>,
    /// Positions in `A'` of the inserted `r_w` reads (parallel to the
    /// writes they reveal, in `H` order).
    pub inserted_reads: Vec<usize>,
}

/// Tests whether `a` is revealing: every write `w` is immediately preceded
/// at its replica by a read of `obj(w)` whose visibility relations mirror
/// `w`'s exactly.
pub fn is_revealing(a: &AbstractExecution) -> bool {
    for w in 0..a.len() {
        if !matches!(a.event(w).op, Op::Write(_)) {
            continue;
        }
        // Find the previous event at the same replica.
        let prev = (0..w)
            .rev()
            .find(|&i| a.event(i).replica == a.event(w).replica);
        let Some(r) = prev else { return false };
        let re = a.event(r);
        if !re.op.is_read() || re.obj != a.event(w).obj {
            return false;
        }
        // Mirror condition: r_w vis e ⟺ w vis e (e ≠ w), e vis r_w ⟺
        // e vis w (e ≠ r_w).
        for e in 0..a.len() {
            if e != w && e != r {
                if a.sees(r, e) != a.sees(w, e) {
                    return false;
                }
                if a.sees(e, r) != a.sees(e, w) {
                    return false;
                }
            }
        }
    }
    true
}

/// Inserts a revealing read `r_w` before every write of `a`, mirroring the
/// write's visibility, and computes each `r_w`'s response from the MVR
/// specification (so the result is correct whenever `a` is).
///
/// # Panics
///
/// Panics if `a` is not structurally valid for the insertion (cannot happen
/// for causally consistent inputs produced by this crate's generators).
pub fn make_revealing(a: &AbstractExecution) -> RevealingExecution {
    let mut b = AbstractExecutionBuilder::new();
    let mut new_index = vec![0usize; a.len()];
    let mut read_of_write: Vec<(usize, usize)> = Vec::new(); // (write old ix, read new ix)
    #[expect(clippy::needless_range_loop, reason = "i indexes both A and new_index")]
    for i in 0..a.len() {
        let e = a.event(i);
        if matches!(e.op, Op::Write(_)) {
            let r = b.push(e.replica, e.obj, Op::Read, ReturnValue::empty());
            read_of_write.push((i, r));
        }
        new_index[i] = b.push(e.replica, e.obj, e.op.clone(), e.rval.clone());
    }
    // Original edges.
    for (i, j) in a.vis().iter_pairs() {
        b.vis(new_index[i], new_index[j]);
    }
    // Mirror edges for each inserted read.
    for &(w, r_new) in &read_of_write {
        #[expect(clippy::needless_range_loop, reason = "e indexes both A and new_index")]
        for e in 0..a.len() {
            if e == w {
                continue;
            }
            if a.sees(w, e) {
                b.vis(r_new, new_index[e]);
            }
            if a.sees(e, w) {
                b.vis(new_index[e], r_new);
            }
        }
        // Between inserted reads: r_{w'} relates to r_w as w' relates to w.
        for &(w2, r2_new) in &read_of_write {
            if w2 != w && a.sees(w2, w) && r2_new < r_new {
                b.vis(r2_new, r_new);
            }
        }
    }
    let skeleton = b
        .build_transitive()
        .expect("revealing insertion preserves structure");
    // Second pass: compute each r_w's response from its context.
    let mut events: Vec<_> = skeleton.events().to_vec();
    let inserted: Vec<usize> = read_of_write.iter().map(|&(_, r)| r).collect();
    for &r in &inserted {
        let ctx = OperationContext::of(&skeleton, r);
        events[r].rval = SpecKind::Mvr.expected_rval(&ctx);
    }
    let execution = AbstractExecution::from_parts(events, skeleton.vis().clone())
        .expect("rval fixup preserves structure");
    RevealingExecution {
        execution,
        new_index,
        inserted_reads: inserted,
    }
}

/// Strips the events at the given positions from an abstract execution —
/// the inverse of [`make_revealing`] on the inserted reads.
#[must_use]
pub fn strip_events(a: &AbstractExecution, remove: &[usize]) -> AbstractExecution {
    let keep: Vec<usize> = (0..a.len()).filter(|i| !remove.contains(i)).collect();
    let events = keep.iter().map(|&i| a.event(i).clone()).collect();
    let vis = a.vis().restrict(&keep);
    AbstractExecution::from_parts(events, vis).expect("stripping reads preserves structure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_core::{causal, check_correct, ObjectSpecs};
    use haec_model::{ObjectId, ReplicaId, Value};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }
    fn specs() -> ObjectSpecs {
        ObjectSpecs::uniform(SpecKind::Mvr)
    }

    fn sample() -> AbstractExecution {
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w2 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w1, rd).vis(w2, rd);
        b.build_transitive().unwrap()
    }

    #[test]
    fn sample_is_not_revealing() {
        assert!(!is_revealing(&sample()));
    }

    #[test]
    fn transform_produces_revealing_execution() {
        let rev = make_revealing(&sample());
        assert!(is_revealing(&rev.execution), "{}", rev.execution.display());
        assert_eq!(rev.execution.len(), 5); // 3 original + 2 inserted
        assert_eq!(rev.inserted_reads.len(), 2);
    }

    #[test]
    fn transform_preserves_correctness_and_causality() {
        let rev = make_revealing(&sample());
        assert!(check_correct(&rev.execution, &specs()).is_ok());
        assert!(causal::check(&rev.execution).is_ok());
    }

    #[test]
    fn inserted_reads_reveal_write_context() {
        // R0 writes v1; R1 sees it and overwrites with v2. The revealing
        // read before v2's write must return {v1}.
        let mut b = AbstractExecutionBuilder::new();
        let w1 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w2 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        b.vis(w1, w2);
        let a = b.build_transitive().unwrap();
        let rev = make_revealing(&a);
        let r_w2 = rev.new_index[w2] - 1;
        assert!(rev.inserted_reads.contains(&r_w2));
        assert_eq!(rev.execution.event(r_w2).rval, ReturnValue::values([v(1)]));
        // And the read before w1 sees nothing.
        let r_w1 = rev.new_index[w1] - 1;
        assert_eq!(rev.execution.event(r_w1).rval, ReturnValue::empty());
    }

    #[test]
    fn strip_recovers_original() {
        let a = sample();
        let rev = make_revealing(&a);
        let stripped = strip_events(&rev.execution, &rev.inserted_reads);
        assert_eq!(stripped.len(), a.len());
        assert!(stripped.is_equivalent(&a));
    }

    #[test]
    fn empty_execution_is_trivially_revealing() {
        let a = AbstractExecutionBuilder::new().build().unwrap();
        assert!(is_revealing(&a));
        let rev = make_revealing(&a);
        assert!(rev.execution.is_empty());
    }

    #[test]
    fn already_revealing_execution_detected() {
        let a = sample();
        let rev = make_revealing(&a);
        // Transforming again inserts more reads but the input is already
        // revealing.
        assert!(is_revealing(&rev.execution));
    }
}
