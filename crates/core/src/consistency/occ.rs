//! Observable causal consistency (Definition 18).
//!
//! OCC strengthens causal consistency: whenever a read of an MVR returns
//! two (or more) concurrent writes `{w0, w1}`, the execution must contain
//! *witnesses* `w0′`, `w1′` — writes to two further, distinct objects — that
//! make the concurrency observable, so that no equivalent execution can
//! "pretend" one write was visible to the other (Figure 3).

use crate::abstract_execution::AbstractExecution;
use crate::bits;
use haec_model::{ObjectId, Op, Relation};
use std::collections::BTreeMap;
use std::fmt;

/// A read returning a concurrent pair for which no OCC witnesses exist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OccViolation {
    /// Index of the read in `H`.
    pub read: usize,
    /// Index of the first returned write.
    pub w0: usize,
    /// Index of the second returned write.
    pub w1: usize,
}

impl fmt::Display for OccViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} returns concurrent writes {} and {} without OCC witnesses",
            self.read, self.w0, self.w1
        )
    }
}

impl std::error::Error for OccViolation {}

/// The witnesses found for one concurrent pair, for reporting/debugging.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OccWitness {
    /// The read event.
    pub read: usize,
    /// The concurrent pair `(w0, w1)`.
    pub pair: (usize, usize),
    /// The witness writes `(w0′, w1′)`.
    pub witnesses: (usize, usize),
}

/// Word-parallel visibility index built once per execution: the transposed
/// `vis` (row `e` = predecessor bitset of `e`), a mask of all write events,
/// and a mask of events per object, all in [`Relation::row_words`] layout.
struct VisIndex {
    words: usize,
    preds: Relation,
    writes: Vec<u64>,
    by_obj: BTreeMap<ObjectId, Vec<u64>>,
}

impl VisIndex {
    fn new(a: &AbstractExecution) -> VisIndex {
        let n = a.len();
        let words = bits::words_for(n);
        let preds = a.vis().transpose();
        let mut writes = vec![0u64; words];
        let mut by_obj: BTreeMap<ObjectId, Vec<u64>> = BTreeMap::new();
        for i in 0..n {
            let e = a.event(i);
            if matches!(e.op, Op::Write(_)) {
                bits::set(&mut writes, i);
            }
            bits::set(by_obj.entry(e.obj).or_insert_with(|| vec![0u64; words]), i);
        }
        VisIndex {
            words,
            preds,
            writes,
            by_obj,
        }
    }

    /// Candidate witnesses for one side of the pair: writes to objects other
    /// than `o` that are visible to `seen` but not to `unseen`, computed as
    /// `preds(seen) & !preds(unseen) & writes & !obj(o)` word by word.
    fn candidates(&self, o: ObjectId, seen: usize, unseen: usize) -> Vec<u64> {
        let obj_mask = self.by_obj.get(&o);
        let mut cands = self.preds.row_words(seen).to_vec();
        for (w, (c, &p)) in cands
            .iter_mut()
            .zip(self.preds.row_words(unseen))
            .enumerate()
        {
            *c &= !p & self.writes[w];
            if let Some(m) = obj_mask {
                *c &= !m[w];
            }
        }
        cands
    }
}

fn condition4(a: &AbstractExecution, idx: &VisIndex, w_prime: usize, w_same: usize) -> bool {
    // For any write w̃ with obj(w̃) = obj(w′) and w̃ vis w_same: w̃ vis w′.
    // A violator has its bit set in obj(w′) & writes & preds(w_same) &
    // !preds(w′), excluding w′ itself; the condition holds iff that row is
    // all zero.
    let objp = a.event(w_prime).obj;
    let obj_mask = idx.by_obj.get(&objp).expect("w_prime is an event on objp");
    let same = idx.preds.row_words(w_same);
    let prime = idx.preds.row_words(w_prime);
    for w in 0..idx.words {
        let mut viol = obj_mask[w] & idx.writes[w] & same[w] & !prime[w];
        if w == w_prime / 64 {
            viol &= !(1u64 << (w_prime % 64));
        }
        if viol != 0 {
            return false;
        }
    }
    true
}

/// Searches for OCC witnesses for one read and one pair of writes it
/// returned. Returns the first witness pair found.
pub fn find_witnesses(
    a: &AbstractExecution,
    read: usize,
    w0: usize,
    w1: usize,
) -> Option<OccWitness> {
    find_witnesses_indexed(a, &VisIndex::new(a), read, w0, w1)
}

fn find_witnesses_indexed(
    a: &AbstractExecution,
    idx: &VisIndex,
    read: usize,
    w0: usize,
    w1: usize,
) -> Option<OccWitness> {
    let o = a.event(read).obj;
    // w1′ vis w0, w1′ ¬vis w1; w0′ vis w1, w0′ ¬vis w0; both to objects ≠ o.
    let cands1 = idx.candidates(o, w0, w1);
    let cands0 = idx.candidates(o, w1, w0);
    for w1p in bits::iter_bits(&cands1) {
        if !condition4(a, idx, w1p, w1) {
            continue;
        }
        let obj1p = a.event(w1p).obj;
        for w0p in bits::iter_bits(&cands0) {
            if a.event(w0p).obj == obj1p {
                continue;
            }
            if condition4(a, idx, w0p, w0) {
                return Some(OccWitness {
                    read,
                    pair: (w0, w1),
                    witnesses: (w0p, w1p),
                });
            }
        }
    }
    None
}

/// Checks Definition 18 on a (causally consistent) abstract execution: every
/// read of an MVR returning two or more writes must have OCC witnesses for
/// each returned pair.
///
/// Values are resolved to write events under the paper's distinct-writes
/// assumption; a returned value with no visible matching write is a
/// *correctness* problem and is ignored here (use
/// [`check_correct`](crate::check_correct) first).
///
/// # Errors
///
/// Returns the first pair lacking witnesses.
pub fn check(a: &AbstractExecution) -> Result<(), OccViolation> {
    crate::spans::timed("check.occ", || check_inner(a))
}

fn check_inner(a: &AbstractExecution) -> Result<(), OccViolation> {
    let idx = VisIndex::new(a);
    for read in 0..a.len() {
        let e = a.event(read);
        if !e.op.is_read() {
            continue;
        }
        let Some(vals) = e.rval.as_values() else {
            continue;
        };
        if vals.len() < 2 {
            continue;
        }
        // Resolve returned values to visible write events on the object.
        let mut write_events = Vec::new();
        for &v in vals {
            let mut found = a
                .writes_of_value(e.obj, v)
                .into_iter()
                .filter(|&w| a.sees(w, read));
            if let Some(w) = found.next() {
                write_events.push(w);
            }
        }
        for i in 0..write_events.len() {
            for j in (i + 1)..write_events.len() {
                let (w0, w1) = (write_events[i], write_events[j]);
                if find_witnesses_indexed(a, &idx, read, w0, w1).is_none() {
                    return Err(OccViolation { read, w0, w1 });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_execution::{AbstractExecution, AbstractExecutionBuilder};
    use haec_model::{ObjectId, Op, ReplicaId, ReturnValue, Value};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }

    /// The Figure 3c pattern: each of w0, w1 is preceded (at its replica) by
    /// a write to a distinct auxiliary object that the other write does not
    /// see. This makes the concurrency of w0 and w1 observable.
    fn fig3c_execution() -> AbstractExecution {
        let mut b = AbstractExecutionBuilder::new();
        // R0: w1' = write(x1, 10); w0 = write(x0, 1)
        let w1p = b.push(r(0), x(1), Op::Write(v(10)), ReturnValue::Ok);
        let w0 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        // R1: w0' = write(x2, 20); w1 = write(x0, 2)
        let w0p = b.push(r(1), x(2), Op::Write(v(20)), ReturnValue::Ok);
        let w1 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        // R2 reads both.
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w0, rd).vis(w1, rd).vis(w1p, rd).vis(w0p, rd);
        let a = b.build_transitive().unwrap();
        assert_eq!(a.event(w1p).obj, x(1));
        assert!(a.sees(w1p, w0) && !a.sees(w1p, w1));
        assert!(a.sees(w0p, w1) && !a.sees(w0p, w0));
        a
    }

    #[test]
    fn fig3c_pattern_is_occ() {
        let a = fig3c_execution();
        assert!(check(&a).is_ok());
        let w = find_witnesses(&a, 4, 1, 3).expect("witnesses exist");
        assert_eq!(w.witnesses, (2, 0));
    }

    #[test]
    fn bare_concurrent_pair_violates_occ() {
        // No auxiliary writes at all: the pair could be "hidden".
        let mut b = AbstractExecutionBuilder::new();
        let w0 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w1 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w0, rd).vis(w1, rd);
        let a = b.build_transitive().unwrap();
        let viol = check(&a).unwrap_err();
        assert_eq!(viol.read, rd);
        assert_eq!((viol.w0, viol.w1), (w0, w1));
    }

    #[test]
    fn single_valued_reads_trivially_occ() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd);
        let a = b.build_transitive().unwrap();
        assert!(check(&a).is_ok());
    }

    #[test]
    fn witness_visible_to_other_write_disqualified() {
        // Like fig3c, but w1' is also visible to w1: condition 3 fails and
        // there is no other witness, so OCC is violated.
        let mut b = AbstractExecutionBuilder::new();
        let w1p = b.push(r(0), x(1), Op::Write(v(10)), ReturnValue::Ok);
        let w0 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w0p = b.push(r(1), x(2), Op::Write(v(20)), ReturnValue::Ok);
        let w1 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(2), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w0, rd).vis(w1, rd).vis(w1p, rd).vis(w0p, rd);
        b.vis(w1p, w1); // spoils condition 3 for the only candidate w1'.
        let a = b.build_transitive().unwrap();
        assert!(check(&a).is_err());
        let _ = (w0p, w0);
    }

    #[test]
    fn condition4_concurrent_aux_write_disqualifies() {
        // A write w̃ to obj(w1') visible to w1 but NOT to w1' breaks
        // condition 4.
        let mut b = AbstractExecutionBuilder::new();
        let w1p = b.push(r(0), x(1), Op::Write(v(10)), ReturnValue::Ok);
        let w0 = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let wt = b.push(r(2), x(1), Op::Write(v(30)), ReturnValue::Ok); // w̃, concurrent with w1'
        let w0p = b.push(r(1), x(2), Op::Write(v(20)), ReturnValue::Ok);
        let w1 = b.push(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let rd = b.push(r(3), x(0), Op::Read, ReturnValue::values([v(1), v(2)]));
        b.vis(w0, rd)
            .vis(w1, rd)
            .vis(w1p, rd)
            .vis(w0p, rd)
            .vis(wt, rd);
        b.vis(wt, w1); // w̃ visible to w1, concurrent with w1'.
        let a = b.build_transitive().unwrap();
        assert!(check(&a).is_err());
        let _ = (w0, w0p);
    }

    #[test]
    fn violation_display() {
        let viol = OccViolation {
            read: 4,
            w0: 1,
            w1: 3,
        };
        assert!(viol.to_string().contains("read 4"));
    }
}
