//! Building a candidate abstract execution from a concrete execution plus
//! the visibility witnesses an instrumented store reports.
//!
//! A concrete execution records *what happened on the wire*; compliance
//! (Definition 9) asks whether some abstract execution in a consistency
//! model explains the client-visible part. Searching all abstract executions
//! is exponential, so instrumented stores report, with each `do`, the
//! [`Dot`]s of the update operations that were visible at the replica. This
//! module turns those reports into an [`AbstractExecution`] candidate, which
//! the independent checkers (`check_correct`, `causal::check`, `occ::check`)
//! then validate — a buggy witness cannot make a broken store pass, it can
//! only make a correct store fail.
//!
//! There are two ways in. [`abstract_from_witness_ordered`] is the batch
//! form: the whole transcript, any order of `H`, every edge re-derived and
//! closed to a fixpoint. [`WitnessLog`] is the same candidate for `H` in
//! execution order, kept as the transcript grows: appending an event adds
//! edges *into* it only (Definition 5: a prefix's `vis` never changes), so
//! the log holds one predecessor column per `do` event, computes a new
//! column from the previous one at the same replica plus the event's own
//! witness, and rewinds by dropping columns. The batch form is the oracle
//! the log is tested against.

use crate::abstract_execution::{
    AbstractDo, AbstractExecution, AbstractExecutionBuilder, AbstractExecutionError,
};
use crate::bits;
use haec_model::{Dot, Execution, Relation};
use std::collections::BTreeMap;
use std::fmt;

/// The visibility witness reported for one `do` event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DoWitness {
    /// Index of the `do` event in the concrete execution.
    pub event: usize,
    /// Dots of all update operations visible at the replica at that point
    /// (the operation's own dot, if any, is ignored).
    pub visible: Vec<Dot>,
}

/// Errors raised while assembling the candidate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WitnessError {
    /// A witness refers to an event index that is not a `do` event.
    NotADoEvent {
        /// The offending index.
        event: usize,
    },
    /// A witness dot does not correspond to any update operation in the
    /// execution.
    UnknownDot {
        /// The do event whose witness is broken.
        event: usize,
        /// The dangling dot.
        dot: Dot,
    },
    /// A witness dot refers to an update that occurs *later* in the
    /// execution — visibility cannot point forward in time.
    FutureDot {
        /// The do event whose witness is broken.
        event: usize,
        /// The offending dot.
        dot: Dot,
    },
    /// The assembled relation violated Definition 4.
    Structural(AbstractExecutionError),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::NotADoEvent { event } => {
                write!(f, "witness for event {event} which is not a do event")
            }
            WitnessError::UnknownDot { event, dot } => {
                write!(f, "witness of event {event} names unknown update {dot}")
            }
            WitnessError::FutureDot { event, dot } => {
                write!(f, "witness of event {event} names future update {dot}")
            }
            WitnessError::Structural(e) => write!(f, "structural violation: {e}"),
        }
    }
}

impl std::error::Error for WitnessError {}

impl From<AbstractExecutionError> for WitnessError {
    fn from(e: AbstractExecutionError) -> Self {
        WitnessError::Structural(e)
    }
}

/// Assembles the candidate abstract execution for a concrete execution:
/// `H` is the subsequence of `do` events in execution order; `vis` contains
/// per-replica program order, the witness edges (update `u` visible to event
/// `e` whenever `dot(u)` appears in `e`'s witness), and the session-closure
/// edges Definition 4 requires.
///
/// Dots are resolved by replaying the execution: the `q`-th update `do`
/// event at replica `r` has dot `(r, q)` — the same convention
/// [`ReplicaMachine`](haec_model::ReplicaMachine) implementations follow.
///
/// # Errors
///
/// Returns an error if a witness is dangling, refers forward in time, or the
/// assembled relation violates Definition 4.
pub fn abstract_from_witness(
    ex: &Execution,
    witnesses: &[DoWitness],
) -> Result<AbstractExecution, WitnessError> {
    abstract_from_witness_ordered(ex, witnesses, &ex.do_events())
}

/// Like [`abstract_from_witness`], but with an explicit order for `H`.
///
/// `order` must be a permutation of the execution's `do` event indices; it
/// becomes the order of `H`. This matters for stores whose specification
/// resolves conflicts by `H` order — e.g. the LWW register store orders `H`
/// by its Lamport arbitration timestamps, which is an equivalent abstract
/// execution (per-replica projections are unchanged) in which the LWW
/// specification's "last write in `H'`" matches the store's winner.
///
/// # Errors
///
/// As for [`abstract_from_witness`]; additionally fails structurally if
/// `order` breaks per-replica program order.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the `do` event indices.
pub fn abstract_from_witness_ordered(
    ex: &Execution,
    witnesses: &[DoWitness],
    order: &[usize],
) -> Result<AbstractExecution, WitnessError> {
    crate::spans::timed("witness.extract", || {
        abstract_from_witness_ordered_inner(ex, witnesses, order)
    })
}

fn abstract_from_witness_ordered_inner(
    ex: &Execution,
    witnesses: &[DoWitness],
    order: &[usize],
) -> Result<AbstractExecution, WitnessError> {
    let do_events = order.to_vec();
    {
        let mut sorted = do_events.clone();
        sorted.sort_unstable();
        let mut canonical = ex.do_events();
        canonical.sort_unstable();
        assert_eq!(
            sorted, canonical,
            "order must be a permutation of the do events"
        );
    }
    // Position of each do event within H.
    let mut h_pos: BTreeMap<usize, usize> = BTreeMap::new();
    let mut builder = AbstractExecutionBuilder::new();
    for (h, &ix) in do_events.iter().enumerate() {
        let ev = ex.event(ix);
        let (obj, op, rval) = ev.as_do().expect("order contains do events");
        builder.push(ev.replica, obj, op.clone(), rval.clone());
        h_pos.insert(ix, h);
    }
    // Dots are assigned by *execution* order (the machine convention), then
    // mapped to H positions.
    let mut dot_pos: BTreeMap<Dot, usize> = BTreeMap::new();
    let mut update_counts = vec![0u32; ex.n_replicas()];
    for &ix in &ex.do_events() {
        let ev = ex.event(ix);
        let (_, op, _) = ev.as_do().expect("do_events yields do events");
        if op.is_update() {
            let r = ev.replica.index();
            update_counts[r] += 1;
            dot_pos.insert(Dot::new(ev.replica, update_counts[r]), h_pos[&ix]);
        }
    }
    // Replica and read-ness of each H position, for the read-prefix rule
    // below.
    let h_replica: Vec<_> = do_events.iter().map(|&ix| ex.event(ix).replica).collect();
    let h_reads: Vec<bool> = do_events
        .iter()
        .map(|&ix| {
            ex.event(ix)
                .as_do()
                .map(|(_, op, _)| op.is_read())
                .unwrap_or(false)
        })
        .collect();
    for w in witnesses {
        let Some(&target) = h_pos.get(&w.event) else {
            return Err(WitnessError::NotADoEvent { event: w.event });
        };
        for &dot in &w.visible {
            let Some(&source) = dot_pos.get(&dot) else {
                return Err(WitnessError::UnknownDot {
                    event: w.event,
                    dot,
                });
            };
            if source == target {
                continue; // the operation's own dot
            }
            if source > target {
                return Err(WitnessError::FutureDot {
                    event: w.event,
                    dot,
                });
            }
            builder.vis(source, target);
            // Reads that precede the update at its replica are in the
            // update's causal past, so they must be visible wherever the
            // update is — otherwise `vis` could never be transitive
            // (Definition 12). Update-update dependencies are already
            // covered by the dots, and only update events influence spec
            // return values, so this adds exactly the read sources. (For a
            // non-causal store the induced transitivity demands then fail
            // the causal checker — which is the correct verdict.)
            for f in 0..source {
                if h_replica[f] == h_replica[source] && f != target && h_reads[f] {
                    builder.vis(f, target);
                }
            }
        }
    }
    Ok(builder.build()?)
}

/// What the log keeps per `do` event, besides its column's words.
#[derive(Clone, Copy, Debug)]
struct Column {
    /// Index of the event's replica.
    replica: usize,
    /// `H` position of the previous `do` at the same replica.
    prev: Option<usize>,
    is_read: bool,
    /// Where the column starts in [`WitnessLog::words`]; the column of
    /// position `t` is the `words_for(t)` words from there (bits `< t`).
    start: usize,
}

/// The candidate abstract execution of a growing transcript, with `H` in
/// execution order: what [`abstract_from_witness`] would build from the
/// transcript so far, kept incrementally.
///
/// Per `do` event the log holds one `vis` *column* — the bitset of `H`
/// positions visible to the event. With `prev` the previous `do` at the
/// event's replica, the column is
///
/// ```text
/// column(t) = column(prev) ∪ {prev} ∪ sources(witness) ∪ reads-before-source
/// ```
///
/// `column(prev) ∪ {prev}` is what program order and session closure
/// (Definition 4, conditions 1 and 2) add for the batch builder at its
/// fixpoint, by induction along the replica's events — the telescoping
/// rule `StreamChecker` runs on. `sources` are the positions of the
/// witnessed dots, and the last term is the batch builder's read-prefix
/// rule: reads that precede a witnessed update at its replica come along
/// with it. That set only grows with the source, so it is applied once
/// per origin, at the largest source witnessed there.
///
/// [`push`](Self::push) once per `do` event, in execution order;
/// [`truncate`](Self::truncate) when the transcript is rewound. A witness
/// that does not resolve when pushed — a dot no update has been given yet
/// — *poisons* the log from that position: until it is truncated away,
/// [`build`](Self::build) answers through the batch builder, which alone
/// can tell an unknown dot from one issued later in the run.
#[derive(Clone, Debug)]
pub struct WitnessLog {
    columns: Vec<Column>,
    /// The columns' words, back to back.
    words: Vec<u64>,
    /// Per replica, the `H` position of each update: dot `(r, q)` sits at
    /// `upd_pos[r][q − 1]`.
    upd_pos: Vec<Vec<usize>>,
    /// Per replica, the `H` position of its latest `do`.
    last: Vec<Option<usize>>,
    /// Per replica, the bitset of `H` positions of its reads: word `w` of
    /// replica `r` at `w * n_replicas + r`.
    reads: Vec<u64>,
    /// Scratch for `push`: per origin, one past the largest source the
    /// witness being pushed names there. All zero between pushes.
    top: Vec<usize>,
    /// The first `H` position whose witness did not resolve when pushed.
    poisoned: Option<usize>,
}

impl WitnessLog {
    /// The log of an empty transcript over `n_replicas` replicas.
    pub fn new(n_replicas: usize) -> Self {
        WitnessLog {
            columns: Vec::new(),
            words: Vec::new(),
            upd_pos: vec![Vec::new(); n_replicas],
            last: vec![None; n_replicas],
            reads: Vec::new(),
            top: vec![0; n_replicas],
            poisoned: None,
        }
    }

    /// Appends the `do` event `witness.event` of `ex`, which must be the
    /// next `do` event of the transcript. Costs O(|witness| + replicas ·
    /// t/64) word operations at position `t`, and no fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if `witness.event` is not a `do` event of `ex` at one of the
    /// log's replicas.
    pub fn push(&mut self, ex: &Execution, witness: &DoWitness) {
        let t = self.columns.len();
        let ev = ex.event(witness.event);
        let (_, op, _) = ev.as_do().expect("the log takes do events");
        let r = ev.replica.index();
        let n = self.last.len();
        let start = self.words.len();
        self.words.resize(start + bits::words_for(t), 0);
        let (earlier, col) = self.words.split_at_mut(start);
        let prev = self.last[r];
        if let Some(p) = prev {
            let from = self.columns[p].start;
            let inherited = &earlier[from..from + bits::words_for(p)];
            col[..inherited.len()].copy_from_slice(inherited);
            bits::set(col, p);
        }
        if op.is_update() {
            // Before the dots resolve, so the event's own dot lands on `t`.
            self.upd_pos[r].push(t);
        }
        for dot in &witness.visible {
            let o = dot.replica.index();
            let source = (o < n && dot.seq > 0)
                .then(|| self.upd_pos[o].get(dot.seq as usize - 1))
                .flatten();
            let Some(&source) = source else {
                self.poisoned.get_or_insert(t);
                continue;
            };
            if source != t {
                bits::set(col, source);
                self.top[o] = self.top[o].max(source + 1);
            }
        }
        for (o, top) in self.top.iter_mut().enumerate() {
            let Some(source) = std::mem::take(top).checked_sub(1) else {
                continue;
            };
            // The reads below `source` at origin `o`.
            let whole = source / 64;
            let origin_words = self.reads.iter().skip(o).step_by(n);
            for (w, (c, &reads)) in col.iter_mut().zip(origin_words).enumerate() {
                if w < whole {
                    *c |= reads;
                } else {
                    *c |= reads & ((1u64 << (source % 64)) - 1);
                    break;
                }
            }
        }
        let is_read = op.is_read();
        if is_read {
            if self.reads.len() < (t / 64 + 1) * n {
                self.reads.resize((t / 64 + 1) * n, 0);
            }
            self.reads[t / 64 * n + r] |= 1u64 << (t % 64);
        }
        self.last[r] = Some(t);
        self.columns.push(Column {
            replica: r,
            prev,
            is_read,
            start,
        });
    }

    /// Rewinds the log to its first `len` events, as
    /// [`Execution::truncate`] rewinds the transcript: O(dropped suffix).
    /// Dropping the position that poisoned the log heals it.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len <= self.columns.len(),
            "truncate target ({len} events) is ahead of the log ({} events)",
            self.columns.len()
        );
        let n = self.last.len();
        while self.columns.len() > len {
            let c = self.columns.pop().expect("longer than len");
            let t = self.columns.len();
            self.last[c.replica] = c.prev;
            if c.is_read {
                self.reads[t / 64 * n + c.replica] &= !(1u64 << (t % 64));
            } else {
                self.upd_pos[c.replica].pop();
            }
            self.words.truncate(c.start);
        }
        if self.poisoned.is_some_and(|p| p >= len) {
            self.poisoned = None;
        }
    }

    /// The candidate abstract execution of the transcript so far — equal,
    /// `Ok` or `Err`, to [`abstract_from_witness`]`(ex, witnesses)`, where
    /// `witnesses` are the ones pushed, in order. `H` and the relation are
    /// emitted in O(edges) and validated against Definition 4 like any
    /// other; a poisoned log hands the whole question to the batch builder.
    ///
    /// # Errors
    ///
    /// As for [`abstract_from_witness`].
    pub fn build(
        &self,
        ex: &Execution,
        witnesses: &[DoWitness],
    ) -> Result<AbstractExecution, WitnessError> {
        assert_eq!(
            witnesses.len(),
            self.columns.len(),
            "the log is out of step with the transcript"
        );
        if self.poisoned.is_some() {
            return abstract_from_witness(ex, witnesses);
        }
        crate::spans::timed("witness.extract", || {
            let events = witnesses
                .iter()
                .map(|w| {
                    let ev = ex.event(w.event);
                    let (obj, op, rval) = ev.as_do().expect("the log holds do events");
                    AbstractDo {
                        replica: ev.replica,
                        obj,
                        op: op.clone(),
                        rval: rval.clone(),
                    }
                })
                .collect();
            let mut vis = Relation::new(self.columns.len());
            for (t, c) in self.columns.iter().enumerate() {
                let col = &self.words[c.start..c.start + bits::words_for(t)];
                for source in bits::iter_bits(col) {
                    vis.insert(source, t);
                }
            }
            Ok(AbstractExecution::from_parts(events, vis)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::causal;
    use crate::correctness::check_correct;
    use crate::specs::{ObjectSpecs, SpecKind};
    use haec_model::{ObjectId, Op, Payload, ReplicaId, ReturnValue, Value};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }

    /// R0 writes, sends; R1 receives, reads (witnessing R0's write).
    fn concrete_with_witness() -> (Execution, Vec<DoWitness>) {
        let mut ex = Execution::new(2);
        let w = ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let m = ex.push_send(r(0), Payload::from_bytes(vec![1])).unwrap();
        ex.push_receive(r(1), m).unwrap();
        let rd = ex.push_do(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        let witnesses = vec![
            DoWitness {
                event: w,
                visible: vec![],
            },
            DoWitness {
                event: rd,
                visible: vec![Dot::new(r(0), 1)],
            },
        ];
        (ex, witnesses)
    }

    #[test]
    fn witness_edges_become_vis() {
        let (ex, ws) = concrete_with_witness();
        let a = abstract_from_witness(&ex, &ws).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.sees(0, 1));
        assert!(check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok());
        assert!(causal::check(&a).is_ok());
    }

    #[test]
    fn own_dot_ignored() {
        let mut ex = Execution::new(1);
        let w = ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let ws = vec![DoWitness {
            event: w,
            visible: vec![Dot::new(r(0), 1)], // its own dot
        }];
        let a = abstract_from_witness(&ex, &ws).unwrap();
        assert_eq!(a.len(), 1);
        assert!(!a.sees(0, 0));
    }

    #[test]
    fn unknown_dot_rejected() {
        let (ex, mut ws) = concrete_with_witness();
        ws[1].visible = vec![Dot::new(r(0), 9)];
        let err = abstract_from_witness(&ex, &ws).unwrap_err();
        assert!(matches!(err, WitnessError::UnknownDot { .. }));
    }

    #[test]
    fn future_dot_rejected() {
        let mut ex = Execution::new(2);
        let rd = ex.push_do(r(1), x(0), Op::Read, ReturnValue::empty());
        ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let ws = vec![DoWitness {
            event: rd,
            visible: vec![Dot::new(r(0), 1)],
        }];
        let err = abstract_from_witness(&ex, &ws).unwrap_err();
        assert!(matches!(err, WitnessError::FutureDot { .. }));
    }

    #[test]
    fn witness_for_non_do_event_rejected() {
        let mut ex = Execution::new(2);
        let m = ex.push_send(r(0), Payload::from_bytes(vec![])).unwrap();
        let _ = m;
        let ws = vec![DoWitness {
            event: 0, // the send event
            visible: vec![],
        }];
        let err = abstract_from_witness(&ex, &ws).unwrap_err();
        assert!(matches!(err, WitnessError::NotADoEvent { event: 0 }));
    }

    #[test]
    fn candidate_complies_with_concrete() {
        let (ex, ws) = concrete_with_witness();
        let a = abstract_from_witness(&ex, &ws).unwrap();
        assert!(crate::compliance::complies(&ex, &a).is_ok());
    }

    #[test]
    fn per_replica_dot_counting() {
        // Two updates at R0, one at R1; dots must resolve by per-replica
        // counters, not global order.
        let mut ex = Execution::new(2);
        ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok); // R0:1
        ex.push_do(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok); // R1:1
        ex.push_do(r(0), x(0), Op::Write(v(3)), ReturnValue::Ok); // R0:2
        let rd = ex.push_do(r(1), x(0), Op::Read, ReturnValue::values([v(2), v(3)]));
        let ws = vec![DoWitness {
            event: rd,
            visible: vec![Dot::new(r(0), 2), Dot::new(r(1), 1), Dot::new(r(0), 1)],
        }];
        let a = abstract_from_witness(&ex, &ws).unwrap();
        assert!(a.sees(0, 3));
        assert!(a.sees(1, 3));
        assert!(a.sees(2, 3));
    }

    #[test]
    fn ordered_variant_reorders_history() {
        // Two concurrent writes recorded in one order; the ordered variant
        // flips them in H while preserving per-replica projections.
        let mut ex = Execution::new(2);
        let w0 = ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let w1 = ex.push_do(r(1), x(0), Op::Write(v(2)), ReturnValue::Ok);
        let ws = vec![
            DoWitness {
                event: w0,
                visible: vec![],
            },
            DoWitness {
                event: w1,
                visible: vec![],
            },
        ];
        let a = crate::witness::abstract_from_witness_ordered(&ex, &ws, &[w1, w0]).unwrap();
        assert_eq!(a.event(0).op, Op::Write(v(2)));
        assert_eq!(a.event(1).op, Op::Write(v(1)));
        assert!(crate::compliance::complies(&ex, &a).is_ok());
    }

    #[test]
    fn ordered_variant_rejects_backward_visibility() {
        // If the chosen H order puts a visible update after its observer,
        // the builder reports the structural violation.
        let mut ex = Execution::new(2);
        let w = ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let m = ex.push_send(r(0), Payload::from_bytes(vec![1])).unwrap();
        ex.push_receive(r(1), m).unwrap();
        let rd = ex.push_do(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        let ws = vec![
            DoWitness {
                event: w,
                visible: vec![],
            },
            DoWitness {
                event: rd,
                visible: vec![Dot::new(r(0), 1)],
            },
        ];
        let err = crate::witness::abstract_from_witness_ordered(&ex, &ws, &[rd, w]).unwrap_err();
        assert!(
            matches!(err, WitnessError::FutureDot { .. }),
            "visibility pointing forward in H is rejected: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn ordered_variant_requires_permutation() {
        let mut ex = Execution::new(1);
        ex.push_do(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let _ = crate::witness::abstract_from_witness_ordered(&ex, &[], &[0, 0]);
    }

    /// A witness for the next event at `replica`: per origin a prefix or a
    /// random subset of the dots issued so far, shuffled or with
    /// duplicates by `shape`, the event's own dot somewhere if it has one,
    /// and — when `hostile` — one dot that cannot resolve now: `seq == 0`,
    /// a seq not yet issued (the run may issue it later), or a replica the
    /// log does not have.
    fn random_witness(
        rng: &mut haec_testkit::Rng,
        issued: &[u32],
        own: Option<Dot>,
        hostile: bool,
    ) -> Vec<Dot> {
        let n = issued.len() as u32;
        let mut list = Vec::new();
        for (o, &all) in issued.iter().enumerate() {
            match rng.gen_range(0..3) {
                0 => {}
                1 => list.extend((1..=rng.gen_range(0..all + 1)).map(|q| Dot::new(r(o as u32), q))),
                _ => list.extend(
                    (1..=all)
                        .filter(|_| rng.gen_bool(0.5))
                        .map(|q| Dot::new(r(o as u32), q)),
                ),
            }
        }
        match rng.gen_range(0..3) {
            0 => {}
            1 => rng.shuffle(&mut list),
            _ => {
                for _ in 0..rng.gen_range(0..4) {
                    if let Some(&d) = rng.choose(&list) {
                        list.insert(rng.gen_range(0..list.len() + 1), d);
                    }
                }
            }
        }
        if let Some(own) = own.filter(|_| rng.gen_bool(0.5)) {
            list.insert(rng.gen_range(0..list.len() + 1), own);
        }
        if hostile {
            let o = rng.gen_range(0..n);
            // The event's own dot, when it has one, is issued too.
            let next = issued[o as usize] + 1 + u32::from(own.is_some_and(|d| d.replica == r(o)));
            let planted = match rng.gen_range(0..3) {
                0 => Dot::new(r(o), 0),
                1 => Dot::new(r(o), next + rng.gen_range(0..2)),
                _ => Dot::new(r(rng.gen_range(n..n + 60)), rng.gen_range(0..4)),
            };
            list.insert(rng.gen_range(0..list.len() + 1), planted);
        }
        list
    }

    /// The log against its oracle, the batch builder on the identity order,
    /// over random transcripts: one to five replicas, `send` events between
    /// the `do`s (so event indices are not `H` positions), hostile
    /// witnesses, truncations to random depths, and one case in eight long
    /// enough to cross 64 and 128 events, where a column gains a word.
    /// Equal after every push and every truncate — the same execution, or
    /// the same error.
    #[test]
    fn witness_log_agrees_with_the_batch_builder() {
        use haec_testkit::prop::{self, u64s, usizes};
        use haec_testkit::prop_assert_eq;
        use std::cell::Cell;

        let (unknown, future, healed) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        // (walk seed, size class, hostility)
        let gen = (u64s(0..u64::MAX), usizes(0..8), usizes(0..4));
        prop::check(
            "witness_log_agrees_with_the_batch_builder",
            &gen,
            |&(seed, size, hostility)| {
                let mut rng = haec_testkit::Rng::seed_from_u64(seed);
                let n = rng.gen_range(1..6usize);
                let steps = if size == 0 {
                    rng.gen_range(130..200)
                } else {
                    rng.gen_range(1..40)
                };
                let mut ex = Execution::new(n);
                let mut ws: Vec<DoWitness> = Vec::new();
                // (events, messages) of the transcript before each `do`.
                let mut marks: Vec<(usize, usize)> = Vec::new();
                let mut log = WitnessLog::new(n);
                let mut was_poisoned = false;
                for step in 0..steps {
                    if rng.gen_bool(0.15) {
                        let k = rng.gen_range(0..ws.len() + 1);
                        if let Some(&(events, messages)) = marks.get(k) {
                            ex.truncate(events, messages);
                        }
                        ws.truncate(k);
                        marks.truncate(k);
                        log.truncate(k);
                    } else {
                        let replica = r(rng.gen_range(0..n as u32));
                        if rng.gen_bool(0.3) {
                            ex.push_send(replica, Payload::from_bytes(vec![])).unwrap();
                        }
                        let mut issued = vec![0u32; n];
                        for w in &ws {
                            let ev = ex.event(w.event);
                            issued[ev.replica.index()] +=
                                u32::from(ev.as_do().is_some_and(|(_, op, _)| op.is_update()));
                        }
                        let is_update = rng.gen_bool(0.5);
                        let own = is_update.then(|| Dot::new(replica, issued[replica.index()] + 1));
                        let hostile = hostility > 0 && rng.gen_bool(0.05);
                        let visible = random_witness(&mut rng, &issued, own, hostile);
                        marks.push((ex.len(), ex.messages().len()));
                        let (op, rval) = if is_update {
                            (Op::Write(v(step as u64)), ReturnValue::Ok)
                        } else {
                            (Op::Read, ReturnValue::empty())
                        };
                        let event = ex.push_do(replica, x(0), op, rval);
                        ws.push(DoWitness { event, visible });
                        log.push(&ex, ws.last().unwrap());
                    }
                    let got = log.build(&ex, &ws);
                    let want = abstract_from_witness_ordered(&ex, &ws, &ex.do_events());
                    prop_assert_eq!(&got, &want, "after step {step}: {ws:?}");
                    match got {
                        Err(WitnessError::UnknownDot { .. }) => unknown.set(unknown.get() + 1),
                        Err(WitnessError::FutureDot { .. }) => future.set(future.get() + 1),
                        Err(e) => return Err(format!("neither builder raises {e}")),
                        Ok(_) => healed.set(healed.get() + u32::from(was_poisoned)),
                    }
                    was_poisoned = want.is_err();
                }
                Ok(())
            },
        );
        // The property saw what it is for: both batch errors through the
        // poisoned fallback, and logs truncated back to health.
        assert!(unknown.get() > 0 && future.get() > 0 && healed.get() > 0);
    }

    #[test]
    fn error_display() {
        let e = WitnessError::UnknownDot {
            event: 1,
            dot: Dot::new(r(0), 4),
        };
        assert!(e.to_string().contains("unknown update R0:4"));
    }
}
