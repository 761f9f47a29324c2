//! Streaming (incremental) consistency checkers over an event stream.
//!
//! The batch checkers ([`causal::check`](crate::consistency::causal::check),
//! [`eventual::check_prefix`](crate::consistency::eventual::check_prefix),
//! [`sessions::check_all`](crate::consistency::sessions::check_all)) consume
//! a complete [`AbstractExecution`](crate::abstract_execution::AbstractExecution),
//! which caps every experiment at transcript sizes the checker can hold in
//! memory. [`StreamChecker`] consumes one event at a time — replica, object,
//! update-ness, and the same visibility-witness dots an instrumented store
//! reports with each `do` — and maintains exactly enough state to emit the
//! **same first-violation witnesses** the batch checkers pin, while
//! garbage-collecting events once they are *stable*.
//!
//! # The incremental frontier
//!
//! The batch pipeline builds `vis` from witnesses
//! ([`abstract_from_witness`](crate::witness::abstract_from_witness)) and the
//! Definition 4 closure rules. Two structural facts make an online rebuild
//! possible:
//!
//! 1. **Edges only ever target the arriving event.** Witness edges, the
//!    read-prefix rule, program order and session closure all produce edges
//!    `e → t` with `e < t`, so the predecessor set `P(t) = vis⁻¹(t)` is
//!    final the moment `t` arrives.
//! 2. **Session closure telescopes per replica.** With `prev` the previous
//!    event at `t`'s replica, `P(t) = P(prev) ∪ {prev} ∪ explicit(t)` where
//!    `explicit(t)` are the witness-dot sources plus the read-prefix reads.
//!    So one cumulative per-replica set `R_r = P(last event at r) ∪ {last}`
//!    reproduces the builder's fixpoint with `O(|explicit|)` work per event.
//!
//! # Stability and garbage collection
//!
//! An event is **stable** once it is in `R_r` for *every* replica — the
//! witness-level analogue of "delivered everywhere", the quantity the
//! Lemma 3 quiesce machinery drives to completion (and the event-retirement
//! criterion the eventual-consistency failure-detector literature
//! motivates). Stability is monotone, and a stable event is in `P(t)` for
//! every later `t` — so it can never again be the *missing* element of any
//! violation. An event retires (is dropped entirely) once it is stable
//! **and** all its recorded unstable-at-arrival predecessors are stable;
//! until then a read still serves what it saw to the writes-follow-reads
//! scan. (As a middle element it is done: the scans test an event when it
//! enters an `R_r`, and a stable event has entered them all — see
//! `scan_causal`.) Retirement is evidence-based only: a quiesce round makes
//! events stabilize quickly but is never itself taken as proof (a store
//! reporting partial witnesses, e.g. an LWW register dropping losing
//! writes, must keep its losers checkable — they are exactly the events
//! whose invisibility the causal checker must flag).
//!
//! Models that are not online-checkable this way on non-quiescing workloads
//! (nothing ever stabilizes, state grows with the trace) can opt into the
//! **bounded-window fallback** ([`StreamConfig::gc_window`]): events older
//! than the window are force-retired and optimistically treated as visible
//! everywhere. That mode only ever *under*-reports violations; leave it
//! `None` for the exact streaming-equals-batch contract.
//!
//! # Equality contract
//!
//! Feed the events of a concrete execution in order with their batch
//! witnesses and `gc_window: None`; then every verdict method returns
//! byte-identical results to its batch counterpart on
//! [`abstract_from_witness`](crate::witness::abstract_from_witness):
//! the same `Ok(())` or the same lexicographically-first violation. The
//! equivalence rests on the batch checkers returning the lexicographic
//! minimum violating tuple, whose largest component is always the event at
//! which the violation becomes knowable — the streaming checker discovers
//! the first tuple of each middle element at each replica exactly then
//! (the later ones are larger) and keeps the running minimum.

use crate::consistency::causal::CausalityViolation;
use crate::consistency::eventual::EventualViolation;
use crate::consistency::sessions::SessionViolation;
use crate::spans;
use haec_model::{Dot, ObjectId, ReplicaId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Coverage bitmask width: replicas are tracked in a `u64`.
pub const MAX_REPLICAS: usize = 64;

/// How many stabilizations accumulate before an automatic retirement sweep.
const AUTO_SWEEP_EVERY: usize = 32;

/// Parameters of a [`StreamChecker`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamConfig {
    /// Number of replicas feeding the stream (at most [`MAX_REPLICAS`]).
    pub n_replicas: usize,
    /// Eventual-consistency window, with the exact semantics of
    /// [`eventual::check_prefix`](crate::consistency::eventual::check_prefix):
    /// every same-object event at least `window` positions later must see
    /// the event.
    pub window: usize,
    /// Bounded-window fallback: `Some(w)` force-retires every event older
    /// than `w` positions, treating it as visible everywhere from then on
    /// (sound for `Ok` verdicts never, for violations always — it only
    /// suppresses violations, never invents them). `None` is the exact
    /// mode. Must be nonzero when present.
    pub gc_window: Option<usize>,
}

impl StreamConfig {
    /// A config for `n_replicas` replicas with a window of 32 and exact
    /// (stability-driven) garbage collection.
    pub fn new(n_replicas: usize) -> Self {
        StreamConfig {
            n_replicas,
            window: 32,
            gc_window: None,
        }
    }
}

/// Errors raised by a [`StreamChecker`]. The first error poisons the
/// checker: every later [`push`](StreamChecker::push) returns it again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StreamError {
    /// More replicas than the coverage bitmask can track.
    TooManyReplicas {
        /// The configured replica count.
        n_replicas: usize,
    },
    /// `gc_window` was `Some(0)`, which would retire every event at its own
    /// arrival.
    ZeroGcWindow,
    /// An event named a replica outside `0..n_replicas`.
    ReplicaOutOfRange {
        /// Index of the offending event.
        event: usize,
        /// The out-of-range replica.
        replica: ReplicaId,
    },
    /// A witness dot does not resolve to any update issued so far — the
    /// streaming analogue of the batch `UnknownDot`/`FutureDot` errors
    /// (online, the two are indistinguishable).
    UnknownDot {
        /// Index of the event whose witness is broken.
        event: usize,
        /// The dangling dot.
        dot: Dot,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::TooManyReplicas { n_replicas } => {
                write!(f, "{n_replicas} replicas exceed the {MAX_REPLICAS} maximum")
            }
            StreamError::ZeroGcWindow => write!(f, "gc_window must be nonzero when present"),
            StreamError::ReplicaOutOfRange { event, replica } => {
                write!(f, "event {event} names out-of-range replica {replica}")
            }
            StreamError::UnknownDot { event, dot } => {
                write!(f, "witness of event {event} names unissued update {dot}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Point-in-time resource statistics of a [`StreamChecker`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StreamStats {
    /// Total events pushed.
    pub events: usize,
    /// Events currently resident (frontier size), including `pending`.
    pub live: usize,
    /// Resident events that are stable but whose predecessors are not yet
    /// all stable (retirement candidates).
    pub pending: usize,
    /// Events retired after stabilizing (exact garbage collection).
    pub retired: usize,
    /// Unstable events force-retired by the bounded-window fallback.
    pub forced_retired: usize,
    /// High-water mark of `live`.
    pub peak_live: usize,
    /// Deterministic estimate of resident checker bytes: per pool, entry
    /// count times a fixed per-entry size (key, value and at most one word
    /// of overhead). Not allocator truth. It counts entries, not window
    /// slots: the empty slots behind a window's oldest resident entry (one
    /// per event retired after it) are not included, so while one old
    /// event stays resident the real footprint grows faster than this
    /// (DESIGN.md §11, "Containers"; ROADMAP item 6, residency half).
    pub bytes: usize,
    /// High-water mark of `bytes`.
    pub peak_bytes: usize,
}

/// Per-event resident state.
#[derive(Clone, Debug)]
struct LiveEvent {
    replica: ReplicaId,
    obj: ObjectId,
    is_update: bool,
    /// Dot sequence number for updates, 0 for reads.
    seq: u32,
    /// Bit `r` set iff this event is in `R_r`.
    coverage: u64,
    stable: bool,
    /// The unstable-at-arrival members of `P(event)`, ascending. Any later
    /// violation whose missing element lies in `P(event)` must name one of
    /// these (stable events are visible everywhere forever).
    preds: Vec<usize>,
}

/// Values keyed by consecutive indices that arrive in order and leave in
/// any order: slot `i` holds index `base + i`, or `None` once it has left.
/// An insert is a `push_back`; a removal empties its slot and pops every
/// empty slot at the front, so the front slot is always occupied. Memory is
/// one slot per index from the oldest present to the newest, however many
/// have left in between.
#[derive(Clone, Debug)]
struct Window<T> {
    slots: VecDeque<Option<T>>,
    /// Index of the front slot; `base + slots.len()` is the next index to
    /// arrive.
    base: usize,
    /// Occupied slots.
    len: usize,
}

impl<T> Window<T> {
    /// An empty window whose first index will be `base`.
    fn starting_at(base: usize) -> Self {
        Window {
            slots: VecDeque::new(),
            base,
            len: 0,
        }
    }

    /// The value at `i`, if present. An index below `base` wraps to an
    /// offset past the end and reads as absent, like one that has left.
    fn get(&self, i: usize) -> Option<&T> {
        self.slots.get(i.wrapping_sub(self.base))?.as_ref()
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.slots.get_mut(i.wrapping_sub(self.base))?.as_mut()
    }

    /// Appends the value at `i`, the next index to arrive.
    fn push(&mut self, i: usize, value: T) {
        debug_assert_eq!(i, self.base + self.slots.len(), "indices arrive in order");
        self.slots.push_back(Some(value));
        self.len += 1;
    }

    /// Takes the value at `i` out, if present, and pops the empty front
    /// slots.
    fn remove(&mut self, i: usize) -> Option<T> {
        let value = self.slots.get_mut(i.wrapping_sub(self.base))?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// The smallest index present.
    fn first(&self) -> Option<usize> {
        (!self.slots.is_empty()).then_some(self.base)
    }

    /// The values present, by ascending index.
    fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

/// Tests `e ∈ P(t)` during the arrival scan of `t`: retired events are
/// stable (or optimistically visible, in forced mode), stable events are in
/// every later `P`, and unstable live events are in `P(t)` iff they are in
/// the explicit unstable predecessor vector.
fn in_p(live: &Window<LiveEvent>, pvec: &[usize], e: usize) -> bool {
    match live.get(e) {
        None => true,
        Some(le) => le.stable || pvec.binary_search(&e).is_ok(),
    }
}

/// Keeps the lexicographic minimum in `slot`.
fn keep_min<T: Ord>(slot: &mut Option<T>, cand: T) {
    if slot.as_ref().is_none_or(|best| cand < *best) {
        *slot = Some(cand);
    }
}

/// An incremental checker for causal consistency, the windowed eventual
/// check, and the two non-trivial session guarantees, over a stream of
/// witnessed `do` events. See the [module docs](self) for the design and
/// the streaming-equals-batch contract.
#[derive(Clone, Debug)]
pub struct StreamChecker {
    config: StreamConfig,
    full_mask: u64,
    /// Next event index == events pushed so far.
    next: usize,
    /// Updates issued per replica (dot sequence counters).
    issued: Vec<u32>,
    /// Resident events, by event index.
    live: Window<LiveEvent>,
    /// Stable but unretired events.
    pending: BTreeSet<usize>,
    /// Unstable members of each replica's cumulative visibility set `R_r`:
    /// the unstable live events whose coverage bit `r` is set.
    r_explicit: Vec<BTreeSet<usize>>,
    /// Per replica: the unstable updates' event indices by dot seq — in
    /// seq order also ascending, the monotonic-writes `u1` pool.
    dots: Vec<Window<usize>>,
    /// Per replica: unstable read index → its `puc` (read-prefix pool).
    un_reads: Vec<BTreeMap<usize, u32>>,
    /// Per replica: read → its unstable-at-arrival update predecessors
    /// (writes-follow-reads `seen` pool; kept until the read retires).
    wfr_reads: Vec<BTreeMap<usize, Vec<usize>>>,
    /// Per object: unstable live events (eventual-window candidates).
    ev_unstable: BTreeMap<ObjectId, BTreeSet<usize>>,
    best_causal: Option<(usize, usize, usize)>,
    best_eventual: Option<(usize, usize)>,
    best_mw: Option<(usize, usize, usize)>,
    /// `(r, u2, e, u)` in batch iteration (= lexicographic key) order.
    best_wfr: Option<(usize, usize, usize, usize)>,
    error: Option<StreamError>,
    retired: usize,
    forced: usize,
    since_sweep: usize,
    /// Sum of `preds.len()` over live events.
    pred_slots: usize,
    /// Sum of `seen.len()` over writes-follow-reads entries.
    wfr_slots: usize,
    peak_live: usize,
    peak_bytes: usize,
}

impl StreamChecker {
    /// Creates a checker.
    ///
    /// # Errors
    ///
    /// Rejects more than [`MAX_REPLICAS`] replicas and a zero `gc_window`.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        if config.n_replicas > MAX_REPLICAS {
            return Err(StreamError::TooManyReplicas {
                n_replicas: config.n_replicas,
            });
        }
        if config.gc_window == Some(0) {
            return Err(StreamError::ZeroGcWindow);
        }
        let n = config.n_replicas;
        let full_mask = if n == 0 {
            0
        } else {
            u64::MAX >> (MAX_REPLICAS - n)
        };
        Ok(StreamChecker {
            config,
            full_mask,
            next: 0,
            issued: vec![0; n],
            live: Window::starting_at(0),
            pending: BTreeSet::new(),
            r_explicit: vec![BTreeSet::new(); n],
            dots: vec![Window::starting_at(1); n],
            un_reads: vec![BTreeMap::new(); n],
            wfr_reads: vec![BTreeMap::new(); n],
            ev_unstable: BTreeMap::new(),
            best_causal: None,
            best_eventual: None,
            best_mw: None,
            best_wfr: None,
            error: None,
            retired: 0,
            forced: 0,
            since_sweep: 0,
            pred_slots: 0,
            wfr_slots: 0,
            peak_live: 0,
            peak_bytes: 0,
        })
    }

    /// The configuration the checker was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.next
    }

    /// Returns `true` if no events were pushed.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// The poisoning error, if any push has failed.
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// Feeds the next `do` event: its replica, object, whether it is an
    /// update, and the store-reported visibility witness (dots of the
    /// updates visible at the replica, the event's own dot permitted and
    /// ignored). Updates are assigned dots by the machine convention — the
    /// `q`-th update at replica `r` is `(r, q)` — exactly as the batch
    /// witness assembly resolves them. Returns the event's index.
    ///
    /// # Errors
    ///
    /// Returns (and records, poisoning the checker) a [`StreamError`] if
    /// the replica is out of range or a witness dot has not been issued.
    pub fn push(
        &mut self,
        replica: ReplicaId,
        obj: ObjectId,
        is_update: bool,
        visible: &[Dot],
    ) -> Result<usize, StreamError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.push_inner(replica, obj, is_update, visible) {
            Ok(ix) => Ok(ix),
            Err(e) => {
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }

    fn push_inner(
        &mut self,
        replica: ReplicaId,
        obj: ObjectId,
        is_update: bool,
        visible: &[Dot],
    ) -> Result<usize, StreamError> {
        let t = self.next;
        let rho = replica.index();
        if rho >= self.config.n_replicas {
            return Err(StreamError::ReplicaOutOfRange { event: t, replica });
        }
        let puc = self.issued[rho];
        if is_update {
            self.issued[rho] += 1;
        }
        let own_seq = self.issued[rho];

        let extra = spans::timed("stream.ingest", || {
            self.resolve_witness(t, rho, is_update, own_seq, replica, visible)
        })?;

        // P(t) = R_ρ ∪ explicit(t); its unstable members, ascending, are the
        // merge of R_ρ's explicit set with the new entrants.
        let pvec: Vec<usize> = {
            let mut merged = Vec::with_capacity(self.r_explicit[rho].len() + extra.len());
            let mut a = self.r_explicit[rho].iter().copied().peekable();
            let mut b = extra.iter().copied().peekable();
            loop {
                match (a.peek(), b.peek()) {
                    (Some(&x), Some(&y)) if x < y => merged.push(a.next().unwrap_or(x)),
                    (Some(_), Some(&y)) => merged.push(b.next().unwrap_or(y)),
                    (Some(&x), None) => merged.push(a.next().unwrap_or(x)),
                    (None, Some(&y)) => merged.push(b.next().unwrap_or(y)),
                    (None, None) => break,
                }
            }
            merged
        };

        self.scan_causal(t, &extra, &pvec);
        self.scan_eventual(t, obj, &pvec);
        self.scan_sessions(t, &extra, &pvec);

        // Promote the new entrants into R_ρ and propagate stability.
        let bit = 1u64 << rho;
        for &e in &extra {
            self.r_explicit[rho].insert(e);
            let Some(le) = self.live.get_mut(e) else {
                continue;
            };
            if le.coverage & bit == 0 {
                le.coverage |= bit;
                if le.coverage == self.full_mask {
                    self.stabilize(e);
                }
            }
        }

        // Insert t itself.
        self.r_explicit[rho].insert(t);
        if is_update {
            self.dots[rho].push(own_seq as usize, t);
        } else {
            self.un_reads[rho].insert(t, puc);
            let seen: Vec<usize> = pvec
                .iter()
                .copied()
                .filter(|&e| self.live.get(e).is_some_and(|le| le.is_update))
                .collect();
            if !seen.is_empty() {
                self.wfr_slots += seen.len();
                self.wfr_reads[rho].insert(t, seen);
            }
        }
        self.ev_unstable.entry(obj).or_default().insert(t);
        self.pred_slots += pvec.len();
        self.live.push(
            t,
            LiveEvent {
                replica,
                obj,
                is_update,
                seq: if is_update { own_seq } else { 0 },
                coverage: bit,
                stable: false,
                preds: pvec,
            },
        );
        self.next = t + 1;
        if bit == self.full_mask {
            self.stabilize(t);
        }

        if let Some(w) = self.config.gc_window {
            // Oldest first; retiring the front brings the next resident
            // event to it.
            while let Some(e) = self.live.first() {
                if e.saturating_add(w) > t {
                    break;
                }
                self.retire(e, true);
            }
        }

        self.peak_live = self.peak_live.max(self.live.len);
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes());
        if self.since_sweep >= AUTO_SWEEP_EVERY {
            self.sweep();
        }
        Ok(t)
    }

    /// Resolves the witness of event `t` into the *new* explicit unstable
    /// members of `P(t)` (beyond `R_ρ`), ascending and without repeats: for
    /// each visible dot, the source update if it is still unstable, plus —
    /// the read-prefix rule — every unstable read that precedes that update
    /// at its replica.
    ///
    /// A service store reports its whole history with every operation, and
    /// all but the tail of it is stable. Per origin `dr`, every dot
    /// `(dr, 1..=floor[dr])` with
    ///
    /// ```text
    /// floor[dr] = min(issued[dr], first key of dots[dr] − 1, puc of the first un_reads[dr])
    /// ```
    ///
    /// is issued (valid), no longer unstable (absent from `dots[dr]`) and
    /// precedes no unstable read — it contributes nothing, so after one
    /// such dot whole blocks of them are jumped over ([`Dot::run_within`]).
    /// (The third term does not bind on a state `push` built: an update
    /// enters `R_r` only together with the reads before it, so an unstable
    /// read has nothing but unstable updates after it. It is there so that
    /// the skip does not rest on that.) Every other dot is looked at in
    /// list order, so the first offending dot decides the error. The
    /// read-prefix rule is monotone in `seq` (`puc` is nondecreasing along
    /// a replica's reads), so it runs once per origin, at the largest seq
    /// named above the floor.
    fn resolve_witness(
        &self,
        t: usize,
        rho: usize,
        is_update: bool,
        own_seq: u32,
        replica: ReplicaId,
        visible: &[Dot],
    ) -> Result<Vec<usize>, StreamError> {
        let n = self.config.n_replicas;
        // `floor[dr]`, worked out at the first dot of `dr` that is not an
        // unstable update (bit `dr` of `floored`): a delta feed, which
        // names little else, never pays for it.
        let mut floor = [0u32; MAX_REPLICAS];
        let mut floored = 0u64;
        // Largest seq named above the floor, per origin (0: none).
        let mut top = [0u32; MAX_REPLICAS];
        let mut extra = Vec::new();
        // Whether an unstable event is already in `R_ρ` (a member of
        // `r_explicit[ρ]`): its coverage bit.
        let in_r = |e: usize| {
            self.live
                .get(e)
                .is_some_and(|le| le.coverage & (1 << rho) != 0)
        };
        let mut i = 0;
        while i < visible.len() {
            let d = visible[i];
            i += 1;
            let dr = d.replica.index();
            if dr >= n {
                return Err(StreamError::ReplicaOutOfRange {
                    event: t,
                    replica: d.replica,
                });
            }
            if is_update && d.replica == replica && d.seq == own_seq {
                continue; // the operation's own dot
            }
            if d.seq == 0 || d.seq > self.issued[dr] {
                return Err(StreamError::UnknownDot { event: t, dot: d });
            }
            if let Some(&s) = self.dots[dr].get(d.seq as usize) {
                if !in_r(s) {
                    extra.push(s);
                }
            } else {
                if floored & (1 << dr) == 0 {
                    floored |= 1 << dr;
                    let below_unstable = self.dots[dr].first().map_or(u32::MAX, |s| s as u32 - 1);
                    let first_read_puc = self.un_reads[dr].values().next().map_or(u32::MAX, |&p| p);
                    floor[dr] = self.issued[dr].min(below_unstable).min(first_read_puc);
                }
                if d.seq <= floor[dr] {
                    i += Dot::run_within(&visible[i..], d.replica, 1, floor[dr]);
                    continue;
                }
            }
            top[dr] = top[dr].max(d.seq);
        }
        for (dr, &top) in top.iter().enumerate().take(n) {
            if top == 0 {
                continue;
            }
            // `puc` is nondecreasing along a replica's reads, so the pool
            // is exhausted at the first read at or past the update.
            for (&f, &fpuc) in self.un_reads[dr].iter() {
                if fpuc >= top {
                    break;
                }
                if !in_r(f) {
                    extra.push(f);
                }
            }
        }
        // A repeated dot names its source twice.
        extra.sort_unstable();
        extra.dedup();
        Ok(extra)
    }

    /// The definition [`resolve_witness`](Self::resolve_witness) must
    /// agree with: every dot looked at, every rule applied per dot.
    #[cfg(test)]
    fn resolve_witness_per_dot(
        &self,
        t: usize,
        rho: usize,
        is_update: bool,
        own_seq: u32,
        replica: ReplicaId,
        visible: &[Dot],
    ) -> Result<Vec<usize>, StreamError> {
        let mut extra = BTreeSet::new();
        for &d in visible {
            let dr = d.replica.index();
            if dr >= self.config.n_replicas {
                return Err(StreamError::ReplicaOutOfRange {
                    event: t,
                    replica: d.replica,
                });
            }
            if is_update && d.replica == replica && d.seq == own_seq {
                continue; // the operation's own dot
            }
            if d.seq == 0 || d.seq > self.issued[dr] {
                return Err(StreamError::UnknownDot { event: t, dot: d });
            }
            if let Some(&s) = self.dots[dr].get(d.seq as usize) {
                if !self.r_explicit[rho].contains(&s) {
                    extra.insert(s);
                }
            }
            for (&f, &fpuc) in self.un_reads[dr].iter() {
                if fpuc >= d.seq {
                    break;
                }
                if !self.r_explicit[rho].contains(&f) {
                    extra.insert(f);
                }
            }
        }
        Ok(extra.into_iter().collect())
    }

    /// Causal violations discovered at the arrival of `t` (as `e3`): an
    /// `e2` that enters `R_ρ` with `t` and has a recorded predecessor
    /// `e1 ∉ P(t)`.
    ///
    /// Only the entrants are tested. An event enters `R_ρ` once, at some
    /// push `s` at ρ: as a member of `extra(s)`, or as `s` itself — and
    /// `s` is never a violating middle at ρ, its recorded predecessors
    /// being `pvec(s) ⊆ R_ρ`. If `(e1, e2, t)` violates with `e2` in `R_ρ`
    /// since `s < t`, then `e1` — live, unstable and outside `P(t)` — was
    /// live, unstable and outside `P(s)`: liveness and instability only
    /// ever end, and `r_explicit[ρ]` loses members only to stabilization
    /// and retirement. So the scan at `s` recorded `(e1', e2, s)` with
    /// `e1' ≤ e1`, which precedes `(e1, e2, t)` and already holds the
    /// running minimum. Forced retirement only turns `in_p` true, which
    /// keeps every step.
    fn scan_causal(&mut self, t: usize, extra: &[usize], pvec: &[usize]) {
        let found = spans::timed("stream.causal", || {
            let mut best: Option<(usize, usize)> = None;
            for &e2 in extra {
                let Some(le) = self.live.get(e2) else {
                    continue;
                };
                for &e1 in &le.preds {
                    if !in_p(&self.live, pvec, e1) {
                        keep_min(&mut best, (e1, e2));
                        break;
                    }
                }
            }
            best
        });
        if let Some((e1, e2)) = found {
            keep_min(&mut self.best_causal, (e1, e2, t));
        }
    }

    /// Eventual violations discovered at the arrival of `t` (as the blind
    /// event): the first same-object unstable event at least `window`
    /// positions back that `t` does not see.
    fn scan_eventual(&mut self, t: usize, obj: ObjectId, pvec: &[usize]) {
        let window = self.config.window;
        let found = spans::timed("stream.eventual", || {
            let pool = self.ev_unstable.get(&obj)?;
            for &e in pool.iter() {
                if e.saturating_add(window) > t {
                    break;
                }
                if !in_p(&self.live, pvec, e) {
                    return Some(e);
                }
            }
            None
        });
        if let Some(e) = found {
            keep_min(&mut self.best_eventual, (e, t));
        }
    }

    /// Session-guarantee violations discovered at the arrival of `t` (as
    /// the observing event `e`): for each update `u2` that enters `R_ρ`
    /// with `t`, an earlier same-replica update `u1 ∉ P(t)` (monotonic
    /// writes) or an earlier same-replica read whose seen update is
    /// `∉ P(t)` (writes follow reads).
    ///
    /// Entrants only, by the argument of [`scan_causal`](Self::scan_causal):
    /// a `u2` in `R_ρ` since `s < t` had the same `u1`, or the same read
    /// and seen update (a read's entry lives as long as the read), outside
    /// `P(s)`, and `(u1', u2, s)` with `u1' ≤ u1` and `(r, u2, s, u')`
    /// precede their counterparts at `t`. An own-replica `u2` is never a
    /// witness at ρ: the updates before it, and what the reads before it
    /// saw, are in `R_ρ`.
    fn scan_sessions(&mut self, t: usize, extra: &[usize], pvec: &[usize]) {
        let (mw, wfr) = spans::timed("stream.sessions", || {
            let mut best_mw: Option<(usize, usize)> = None;
            let mut best_wfr: Option<(usize, usize, usize)> = None;
            for &u2 in extra {
                let Some(le) = self.live.get(u2) else {
                    continue;
                };
                if !le.is_update {
                    continue;
                }
                let rr = le.replica.index();
                for &u1 in self.dots[rr].values() {
                    if u1 >= u2 {
                        break;
                    }
                    if !in_p(&self.live, pvec, u1) {
                        keep_min(&mut best_mw, (u1, u2));
                        break;
                    }
                }
                for (&r, seen) in self.wfr_reads[rr].iter() {
                    if r >= u2 {
                        break;
                    }
                    for &u in seen {
                        if !in_p(&self.live, pvec, u) {
                            keep_min(&mut best_wfr, (r, u2, u));
                            break;
                        }
                    }
                }
            }
            (best_mw, best_wfr)
        });
        if let Some((u1, u2)) = mw {
            keep_min(&mut self.best_mw, (u1, u2, t));
        }
        if let Some((r, u2, u)) = wfr {
            keep_min(&mut self.best_wfr, (r, u2, t, u));
        }
    }

    /// Marks `e` stable: it is now in every replica's `R_r`, hence in every
    /// later event's `P`, hence never again a missing element. Its entries
    /// in the unstable pools are dropped; the event itself stays resident
    /// (pending) until its own recorded predecessors are all stable.
    fn stabilize(&mut self, e: usize) {
        let Some(le) = self.live.get_mut(e) else {
            return;
        };
        le.stable = true;
        let (rr, is_up, seq, obj) = (le.replica.index(), le.is_update, le.seq, le.obj);
        self.pending.insert(e);
        self.since_sweep += 1;
        for set in &mut self.r_explicit {
            set.remove(&e);
        }
        if is_up {
            self.dots[rr].remove(seq as usize);
        } else {
            self.un_reads[rr].remove(&e);
        }
        if let Some(set) = self.ev_unstable.get_mut(&obj) {
            set.remove(&e);
        }
    }

    /// Retires every pending event whose recorded predecessors are all
    /// stable (or already gone). Called automatically every
    /// `AUTO_SWEEP_EVERY` (32) stabilizations; call it explicitly at quiesce
    /// points to compact eagerly.
    pub fn sweep(&mut self) {
        spans::timed("stream.sweep", || {
            let retirable: Vec<usize> = self
                .pending
                .iter()
                .copied()
                .filter(|&e| {
                    self.live.get(e).is_some_and(|le| {
                        le.preds
                            .iter()
                            .all(|&p| self.live.get(p).is_none_or(|l| l.stable))
                    })
                })
                .collect();
            for e in retirable {
                self.retire(e, false);
            }
            self.since_sweep = 0;
        });
    }

    /// Drops `e` from residency. `forced` marks the bounded-window path,
    /// which may retire unstable events (purging their pool entries and
    /// treating them as visible from then on).
    fn retire(&mut self, e: usize, forced: bool) {
        let Some(le) = self.live.remove(e) else {
            return;
        };
        self.pred_slots -= le.preds.len();
        self.pending.remove(&e);
        let rr = le.replica.index();
        if forced && !le.stable {
            self.forced += 1;
            // Optimistically visible everywhere from now on.
            for set in &mut self.r_explicit {
                set.remove(&e);
            }
            if le.is_update {
                self.dots[rr].remove(le.seq as usize);
            } else {
                self.un_reads[rr].remove(&e);
            }
            if let Some(set) = self.ev_unstable.get_mut(&le.obj) {
                set.remove(&e);
            }
        } else {
            self.retired += 1;
        }
        if !le.is_update {
            if let Some(seen) = self.wfr_reads[rr].remove(&e) {
                self.wfr_slots -= seen.len();
            }
        }
    }

    /// Deterministic estimate of resident bytes: per pool, entry count
    /// times a fixed per-entry size (see [`StreamStats::bytes`]).
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let w = size_of::<usize>();
        let mut b = self.live.len * (size_of::<LiveEvent>() + 2 * w);
        b += (self.pred_slots + self.wfr_slots) * w;
        b += self.pending.len() * 2 * w;
        for r in 0..self.config.n_replicas {
            b += self.r_explicit[r].len() * 2 * w;
            // An unstable update is counted as the entries of the seq →
            // event map and the ordered update set that once held it.
            b += self.dots[r].len * (3 + 2) * w;
            b += self.un_reads[r].len() * 3 * w;
            b += self.wfr_reads[r].len() * 4 * w;
        }
        for (_, set) in self.ev_unstable.iter() {
            b += set.len() * 2 * w;
        }
        b
    }

    /// Current resource statistics.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            events: self.next,
            live: self.live.len,
            pending: self.pending.len(),
            retired: self.retired,
            forced_retired: self.forced,
            peak_live: self.peak_live,
            bytes: self.resident_bytes(),
            peak_bytes: self.peak_bytes,
        }
    }

    /// Causal-consistency verdict over the events so far: `Ok` or the same
    /// first violation [`causal::check`](crate::consistency::causal::check)
    /// returns on the batch-assembled execution.
    ///
    /// # Errors
    ///
    /// Returns the lexicographically-first missing transitive edge.
    pub fn causal(&self) -> Result<(), CausalityViolation> {
        match self.best_causal {
            None => Ok(()),
            Some((e1, e2, e3)) => Err(CausalityViolation { e1, e2, e3 }),
        }
    }

    /// Windowed eventual-consistency verdict, matching
    /// [`eventual::check_prefix`](crate::consistency::eventual::check_prefix)
    /// at [`StreamConfig::window`].
    ///
    /// # Errors
    ///
    /// Returns the lexicographically-first blind event.
    pub fn eventual(&self) -> Result<(), EventualViolation> {
        match self.best_eventual {
            None => Ok(()),
            Some((event, blind_event)) => Err(EventualViolation {
                event,
                blind_event,
                window: self.config.window,
            }),
        }
    }

    /// Monotonic-writes verdict, matching
    /// [`sessions::check_monotonic_writes`](crate::consistency::sessions::check_monotonic_writes).
    ///
    /// # Errors
    ///
    /// Returns the lexicographically-first violation.
    pub fn monotonic_writes(&self) -> Result<(), SessionViolation> {
        match self.best_mw {
            None => Ok(()),
            Some((earlier, later, event)) => Err(SessionViolation::MonotonicWrites {
                earlier,
                later,
                event,
            }),
        }
    }

    /// Writes-follow-reads verdict, matching
    /// [`sessions::check_writes_follow_reads`](crate::consistency::sessions::check_writes_follow_reads).
    ///
    /// # Errors
    ///
    /// Returns the lexicographically-first violation.
    pub fn writes_follow_reads(&self) -> Result<(), SessionViolation> {
        match self.best_wfr {
            None => Ok(()),
            Some((r, u2, e, u)) => Err(SessionViolation::WritesFollowReads {
                seen: u,
                read: r,
                update: u2,
                event: e,
            }),
        }
    }

    /// Combined session verdict, matching
    /// [`sessions::check_all`](crate::consistency::sessions::check_all):
    /// monotonic writes first, then writes follow reads.
    ///
    /// # Errors
    ///
    /// Returns the first violation in that order.
    pub fn sessions(&self) -> Result<(), SessionViolation> {
        self.monotonic_writes()?;
        self.writes_follow_reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_execution::AbstractExecution;
    use crate::consistency::{causal, eventual, sessions};
    use crate::witness::{abstract_from_witness, DoWitness};
    use haec_model::{Execution, Op, ReturnValue, Value};
    use haec_testkit::Rng;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn dot(rep: u32, seq: u32) -> Dot {
        Dot::new(r(rep), seq)
    }

    /// One feed entry: `(replica, object, is_update, witness)`.
    type Feed = (u32, u32, bool, Vec<Dot>);

    /// Runs the same witnessed event sequence through the streaming checker
    /// and the batch pipeline.
    fn run_both(
        n_replicas: usize,
        window: usize,
        feed: &[Feed],
    ) -> (StreamChecker, AbstractExecution) {
        let mut ex = Execution::new(n_replicas);
        let mut ws = Vec::new();
        let mut checker = StreamChecker::new(StreamConfig {
            n_replicas,
            window,
            gc_window: None,
        })
        .unwrap();
        let mut val = 0u64;
        for &(rep, obj, upd, ref visible) in feed {
            let (op, rv) = if upd {
                val += 1;
                (Op::Write(Value::new(val)), ReturnValue::Ok)
            } else {
                (Op::Read, ReturnValue::empty())
            };
            let e = ex.push_do(r(rep), x(obj), op, rv);
            ws.push(DoWitness {
                event: e,
                visible: visible.clone(),
            });
            checker.push(r(rep), x(obj), upd, visible).unwrap();
        }
        let a = abstract_from_witness(&ex, &ws).unwrap();
        (checker, a)
    }

    fn assert_agree(checker: &StreamChecker, a: &AbstractExecution, window: usize) {
        assert_eq!(checker.causal(), causal::check(a), "causal diverged");
        assert_eq!(
            checker.eventual(),
            eventual::check_prefix(a, window),
            "eventual diverged"
        );
        assert_eq!(
            checker.monotonic_writes(),
            sessions::check_monotonic_writes(a),
            "monotonic writes diverged"
        );
        assert_eq!(
            checker.writes_follow_reads(),
            sessions::check_writes_follow_reads(a),
            "writes follow reads diverged"
        );
        assert_eq!(
            checker.sessions(),
            sessions::check_all(a),
            "sessions diverged"
        );
    }

    #[test]
    fn causal_chain_with_full_witnesses_passes() {
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 0, true, vec![dot(0, 1)]),
            (2, 0, false, vec![dot(0, 1), dot(1, 1)]),
        ];
        let (c, a) = run_both(3, 1, &feed);
        assert_agree(&c, &a, 1);
        assert!(c.causal().is_ok());
        assert!(c.sessions().is_ok());
    }

    #[test]
    fn missing_transitive_edge_matches_batch() {
        // R2 sees R1's write but not the R0 write R1 had seen.
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 1, true, vec![dot(0, 1)]),
            (2, 2, true, vec![dot(1, 1)]),
        ];
        let (c, a) = run_both(3, 8, &feed);
        assert_agree(&c, &a, 8);
        let viol = c.causal().unwrap_err();
        assert_eq!((viol.e1, viol.e2, viol.e3), (0, 1, 2));
    }

    #[test]
    fn monotonic_writes_violation_matches_batch() {
        // R0 writes twice; R1 witnesses only the second.
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (0, 1, true, vec![]),
            (1, 1, false, vec![dot(0, 2)]),
        ];
        let (c, a) = run_both(2, 8, &feed);
        assert_agree(&c, &a, 8);
        assert_eq!(
            c.monotonic_writes(),
            Err(SessionViolation::MonotonicWrites {
                earlier: 0,
                later: 1,
                event: 2
            })
        );
        // check_all surfaces the monotonic-writes violation first.
        assert_eq!(c.sessions(), c.monotonic_writes());
    }

    #[test]
    fn writes_follow_reads_violation_matches_batch() {
        // R1 reads R0's write then writes; R2 witnesses only R1's write.
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 0, false, vec![dot(0, 1)]),
            (1, 1, true, vec![]),
            (2, 1, false, vec![dot(1, 1)]),
        ];
        let (c, a) = run_both(3, 8, &feed);
        assert_agree(&c, &a, 8);
        assert_eq!(
            c.writes_follow_reads(),
            Err(SessionViolation::WritesFollowReads {
                seen: 0,
                read: 1,
                update: 2,
                event: 3
            })
        );
    }

    #[test]
    fn eventual_window_violation_matches_batch() {
        // A write never witnessed by five later same-object reads.
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 0, false, vec![]),
            (1, 0, false, vec![]),
            (1, 0, false, vec![]),
            (1, 0, false, vec![]),
            (1, 0, false, vec![]),
        ];
        for window in 1..5 {
            let (c, a) = run_both(2, window, &feed);
            assert_agree(&c, &a, window);
        }
        let (c, _) = run_both(2, 3, &feed);
        let viol = c.eventual().unwrap_err();
        assert_eq!((viol.event, viol.blind_event, viol.window), (0, 3, 3));
    }

    #[test]
    fn stable_middle_event_still_yields_violation() {
        // R1's write stabilizes at event 3, the push that brings it into
        // R2's past without the R0 write it saw: the scan of that push
        // finds it as the middle of the causal violation, and event 4,
        // where it is stable and in every past, adds nothing smaller.
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 0, true, vec![dot(0, 1)]),
            (0, 0, false, vec![dot(0, 1), dot(1, 1)]),
            (2, 0, false, vec![dot(1, 1)]),
            (2, 0, true, vec![dot(1, 1)]),
        ];
        let (c, a) = run_both(3, 16, &feed);
        assert_agree(&c, &a, 16);
        let viol = c.causal().unwrap_err();
        assert_eq!((viol.e1, viol.e2, viol.e3), (0, 1, 3));
        // Event 1 is stable but must not retire: its predecessor 0 is not.
        let mut c = c;
        c.sweep();
        assert!(c.stats().pending >= 1);
        assert_eq!(c.stats().retired, 0);
    }

    #[test]
    fn quiescing_chain_retires_almost_everything() {
        // Two replicas fully acknowledging each other: every event's witness
        // names all issued updates, so stability (and retirement) tracks the
        // frontier closely.
        let mut feed: Vec<Feed> = Vec::new();
        let mut seqs = [0u32, 0u32];
        for i in 0..40u32 {
            let rep = i % 2;
            seqs[rep as usize] += 1;
            let visible = vec![dot(0, seqs[0]), dot(1, seqs[1])]
                .into_iter()
                .filter(|d| d.seq > 0)
                .collect();
            feed.push((rep, 0, true, visible));
        }
        let (mut c, a) = run_both(2, 8, &feed);
        assert_agree(&c, &a, 8);
        assert!(c.causal().is_ok());
        c.sweep();
        let stats = c.stats();
        assert_eq!(stats.events, 40);
        assert!(stats.retired >= 35, "retired only {}", stats.retired);
        assert!(stats.live <= 5, "live still {}", stats.live);
        assert!(stats.peak_live <= 40);
        assert!(stats.peak_bytes > 0);
    }

    #[test]
    fn bounded_window_caps_residency_on_non_quiescing_feed() {
        // Two replicas that never exchange anything: nothing ever
        // stabilizes, so only the forced window bounds memory.
        let mut c = StreamChecker::new(StreamConfig {
            n_replicas: 2,
            window: 4,
            gc_window: Some(8),
        })
        .unwrap();
        for i in 0..100u32 {
            c.push(r(i % 2), x(0), true, &[]).unwrap();
        }
        let stats = c.stats();
        assert!(stats.live <= 9, "live {}", stats.live);
        assert!(stats.forced_retired >= 90);
        // Forced retirement only suppresses violations, never invents them.
        // (The exact checker would flag the mutual blindness as both an
        // eventual and a monotonic-writes violation long before event 100.)
        assert!(c.error().is_none());
    }

    #[test]
    fn exact_mode_flags_mutually_blind_writers() {
        let feed: Vec<Feed> = (0..12u32).map(|i| (i % 2, 0, true, vec![])).collect();
        let (c, a) = run_both(2, 4, &feed);
        assert_agree(&c, &a, 4);
        // With no cross-replica edges, vis is pure program order: the
        // session guarantees hold vacuously but the window check flags the
        // first blind same-object event.
        assert!(c.eventual().is_err());
        assert!(c.sessions().is_ok());
    }

    #[test]
    fn unknown_dot_poisons_the_checker() {
        let mut c = StreamChecker::new(StreamConfig::new(2)).unwrap();
        c.push(r(0), x(0), true, &[]).unwrap();
        let err = c.push(r(1), x(0), false, &[dot(0, 7)]).unwrap_err();
        assert!(matches!(err, StreamError::UnknownDot { event: 1, .. }));
        assert!(err.to_string().contains("unissued"));
        // Poisoned: even a valid push now fails with the same error.
        let again = c.push(r(1), x(0), false, &[]).unwrap_err();
        assert_eq!(again, err);
        assert_eq!(c.error(), Some(&err));
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            StreamChecker::new(StreamConfig::new(65)).unwrap_err(),
            StreamError::TooManyReplicas { n_replicas: 65 }
        ));
        let bad = StreamConfig {
            gc_window: Some(0),
            ..StreamConfig::new(2)
        };
        assert_eq!(
            StreamChecker::new(bad).unwrap_err(),
            StreamError::ZeroGcWindow
        );
        let mut c = StreamChecker::new(StreamConfig::new(1)).unwrap();
        let err = c.push(r(3), x(0), true, &[]).unwrap_err();
        assert!(matches!(err, StreamError::ReplicaOutOfRange { .. }));
    }

    #[test]
    fn own_dot_and_duplicate_dots_are_tolerated() {
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![dot(0, 1)]),
            (1, 0, true, vec![dot(0, 1), dot(0, 1), dot(1, 1)]),
        ];
        let (c, a) = run_both(2, 4, &feed);
        assert_agree(&c, &a, 4);
        assert!(c.causal().is_ok());
    }

    #[test]
    fn single_replica_stream_is_trivially_clean_and_compact() {
        let mut c = StreamChecker::new(StreamConfig::new(1)).unwrap();
        for i in 0..100u32 {
            let upd = i % 3 != 2;
            c.push(r(0), x(i % 2), upd, &[]).unwrap();
        }
        c.sweep();
        assert!(c.causal().is_ok());
        assert!(c.eventual().is_ok());
        assert!(c.sessions().is_ok());
        let stats = c.stats();
        assert_eq!(stats.retired, 100);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn empty_checker_reports_clean() {
        let c = StreamChecker::new(StreamConfig::new(3)).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.causal().is_ok());
        assert!(c.eventual().is_ok());
        assert!(c.sessions().is_ok());
        assert_eq!(c.stats(), StreamStats::default());
        assert_eq!(c.config().n_replicas, 3);
    }

    #[test]
    fn stats_are_deterministic_per_feed() {
        let feed: Vec<Feed> = vec![
            (0, 0, true, vec![]),
            (1, 1, true, vec![dot(0, 1)]),
            (2, 0, false, vec![dot(1, 1)]),
            (0, 1, false, vec![dot(0, 1), dot(1, 1)]),
        ];
        let (c1, _) = run_both(3, 8, &feed);
        let (c2, _) = run_both(3, 8, &feed);
        assert_eq!(c1.stats(), c2.stats());
        assert_eq!(c1.causal(), c2.causal());
    }

    /// Deterministic lagged-echo feed: round-robin replicas, each witnessing
    /// every other replica's dots up to `LAG` events behind: events go
    /// pending behind unstable predecessors, then stabilize in waves as the
    /// lagged witnesses arrive.
    fn lagged_feed(events: usize, lag: u32) -> Vec<Feed> {
        let mut seqs = [0u32; 3];
        let mut feed = Vec::with_capacity(events);
        for i in 0..events {
            let rep = (i % 3) as u32;
            let obj = ((i / 3) % 2) as u32;
            let upd = i % 3 != 2;
            let mut visible = Vec::new();
            for q in 0..3u32 {
                if q == rep {
                    continue;
                }
                for s in 1..=seqs[q as usize].saturating_sub(lag) {
                    visible.push(dot(q, s));
                }
            }
            if upd {
                seqs[rep as usize] += 1;
            }
            feed.push((rep, obj, upd, visible));
        }
        feed
    }

    /// Every pool entry names a resident event, and in every pool but
    /// `wfr_reads` (whose entries live as long as their read) an unstable
    /// one: stabilization and retirement, forced or not, leave nothing of
    /// the event behind for a scan to find. An unstable event is in
    /// `r_explicit[r]` iff its coverage bit `r` is set. Every window starts
    /// at an occupied slot, ends at the next index to arrive and counts its
    /// occupied slots.
    fn assert_pools_hold_only_resident_events(c: &StreamChecker) {
        fn assert_window<T>(w: &Window<T>, end: usize, name: &str) {
            assert!(
                w.slots.front().is_none_or(Option::is_some),
                "{name}: leading hole"
            );
            assert_eq!(w.base + w.slots.len(), end, "{name}: window end");
            let occupied = w.slots.iter().flatten().count();
            assert_eq!(w.len, occupied, "{name}: occupancy count");
        }
        assert_window(&c.live, c.next, "live");
        for (e, le) in (c.live.base..).zip(&c.live.slots) {
            let Some(le) = le.as_ref().filter(|le| !le.stable) else {
                continue;
            };
            for rr in 0..c.config.n_replicas {
                let covered = le.coverage & (1 << rr) != 0;
                assert_eq!(c.r_explicit[rr].contains(&e), covered, "R_{rr} ∋ {e}");
            }
        }
        let unstable = |&e: &usize| c.live.get(e).is_some_and(|le| !le.stable);
        for rr in 0..c.config.n_replicas {
            assert!(c.r_explicit[rr].iter().all(unstable), "r_explicit[{rr}]");
            assert_window(&c.dots[rr], c.issued[rr] as usize + 1, "dots");
            assert!(c.dots[rr].values().all(unstable), "dots[{rr}]");
            assert!(c.un_reads[rr].keys().all(unstable), "un_reads[{rr}]");
            assert!(
                c.wfr_reads[rr].keys().all(|&e| c.live.get(e).is_some()),
                "wfr_reads[{rr}]"
            );
        }
        for (obj, set) in c.ev_unstable.iter() {
            assert!(set.iter().all(unstable), "ev_unstable[{obj}]");
        }
        assert!(
            c.pending
                .iter()
                .all(|&e| c.live.get(e).is_some_and(|le| le.stable)),
            "pending"
        );
    }

    /// Pushes every event of `feed`, sweeping after each push if `sweep`.
    fn feed_checker(config: StreamConfig, feed: &[Feed], sweep: bool) -> StreamChecker {
        let mut c = StreamChecker::new(config).unwrap();
        for &(rep, obj, upd, ref visible) in feed {
            c.push(r(rep), x(obj), upd, visible).unwrap();
            if sweep {
                c.sweep();
            }
        }
        c
    }

    #[test]
    fn usize_max_windows_saturate_instead_of_wrapping() {
        // R1's write (event 1) is never seen at R0, whose reads keep coming.
        // Event 0 is stable from push 1 on and retires at the first sweep,
        // so the eventual scan and the forced-retirement walk both start at
        // event 1, where `1 + usize::MAX` wrapped to 0.
        let mut feed: Vec<Feed> = vec![(0, 0, true, vec![]), (1, 0, true, vec![dot(0, 1)])];
        feed.extend((0..10).map(|_| (0, 0, false, vec![])));
        let (c, a) = run_both(2, usize::MAX, &feed);
        assert_agree(&c, &a, usize::MAX);
        assert!(
            c.eventual().is_ok(),
            "no event is usize::MAX positions back"
        );
        assert!(
            run_both(2, 8, &feed).0.eventual().is_err(),
            "event 1 is hidden"
        );

        // A gc window no event ever leaves retires exactly what exact mode
        // retires, and forces nothing.
        let exact = StreamConfig {
            n_replicas: 2,
            window: usize::MAX,
            gc_window: None,
        };
        let endless = StreamConfig {
            gc_window: Some(usize::MAX),
            ..exact
        };
        let exact = feed_checker(exact, &feed, true);
        let endless = feed_checker(endless, &feed, true);
        assert_eq!(endless.stats(), exact.stats());
        assert_eq!(endless.stats().forced_retired, 0);
        assert_eq!(endless.stats().retired, 1);
        assert_eq!(endless.eventual(), Ok(()));
    }

    #[test]
    fn live_window_empties_and_refills() {
        // One replica: every event is stable on arrival with no unstable
        // predecessor, so a sweep retires them all and the window empties
        // with its base at the next index; the next push refills it there.
        let mut c = StreamChecker::new(StreamConfig::new(1)).unwrap();
        for i in 0..10u32 {
            c.push(r(0), x(i % 2), i % 3 != 2, &[]).unwrap();
        }
        assert_eq!(c.stats().live, 10);
        c.sweep();
        assert!(c.live.slots.is_empty());
        assert_eq!((c.live.base, c.live.len, c.stats().live), (10, 0, 0));
        assert_pools_hold_only_resident_events(&c);
        assert_eq!(c.push(r(0), x(0), true, &[]), Ok(10));
        assert_eq!((c.live.base, c.live.len, c.live.slots.len()), (10, 1, 1));
        assert!(c.live.get(10).is_some_and(|le| le.stable));
        assert!(c.live.get(9).is_none(), "below the base reads as retired");
        assert_pools_hold_only_resident_events(&c);
        c.sweep();
        assert_eq!(
            (c.live.base, c.stats().live, c.stats().retired),
            (11, 0, 11)
        );
    }

    #[test]
    fn a_middle_event_retires_before_the_front() {
        // Event 0 (R0's write) is never seen at R1, so it stays unstable at
        // the front. Event 1 (R1's write) is stable once R0 sees it at
        // event 2, with no predecessor, and the sweep retires it: a hole
        // behind an occupied front. Forcing event 0 out at push 5 pops the
        // front and the hole together.
        let mut c = StreamChecker::new(StreamConfig {
            n_replicas: 2,
            window: 32,
            gc_window: Some(5),
        })
        .unwrap();
        c.push(r(0), x(0), true, &[]).unwrap();
        c.push(r(1), x(1), true, &[]).unwrap();
        c.push(r(0), x(1), false, &[dot(1, 1)]).unwrap();
        c.sweep();
        assert_eq!((c.live.base, c.live.len, c.live.slots.len()), (0, 2, 3));
        assert!(c.live.get(0).is_some_and(|le| !le.stable));
        assert!(c.live.get(1).is_none());
        let s = c.stats();
        assert_eq!(
            (s.live, s.pending, s.retired, s.forced_retired),
            (2, 0, 1, 0)
        );
        assert_pools_hold_only_resident_events(&c);
        c.push(r(1), x(1), false, &[]).unwrap();
        c.push(r(1), x(1), false, &[]).unwrap();
        assert_eq!(c.live.base, 0, "event 0 is inside the window until push 5");
        c.push(r(1), x(1), false, &[]).unwrap();
        assert_eq!((c.live.base, c.live.len, c.live.slots.len()), (2, 4, 4));
        let s = c.stats();
        assert_eq!((s.live, s.retired, s.forced_retired), (4, 1, 1));
        assert_pools_hold_only_resident_events(&c);
    }

    #[test]
    fn a_clone_taken_mid_stream_continues_like_the_original() {
        for gc_window in [None, Some(16)] {
            let config = StreamConfig {
                n_replicas: 3,
                window: 96,
                gc_window,
            };
            let feed = lagged_feed(600, 24);
            let (head, tail) = feed.split_at(301);
            let mut original = feed_checker(config, head, false);
            let mut copy = original.clone();
            for &(rep, obj, upd, ref visible) in tail {
                let pushed = original.push(r(rep), x(obj), upd, visible);
                assert_eq!(copy.push(r(rep), x(obj), upd, visible), pushed);
                assert_eq!(copy.stats(), original.stats(), "{gc_window:?}");
            }
            assert_eq!(copy.causal(), original.causal());
            assert_eq!(copy.eventual(), original.eventual());
            assert_eq!(copy.sessions(), original.sessions());
            let s = original.stats();
            assert!(s.retired + s.forced_retired > 0, "{gc_window:?}");
            assert_pools_hold_only_resident_events(&copy);
        }
    }

    #[test]
    fn lagged_stress_agrees_with_batch() {
        let feed = lagged_feed(600, 24);
        let (c, a) = run_both(3, 96, &feed);
        assert_agree(&c, &a, 96);
        assert_pools_hold_only_resident_events(&c);
        let s = c.stats();
        assert_eq!(s.forced_retired, 0, "exact mode must never force-retire");
        assert!(
            s.retired > s.live,
            "lagged echoes should stabilize and retire most events"
        );
    }

    #[test]
    fn lossy_stress_forced_retirement_leaves_no_pool_entry_for_a_retired_event() {
        let feed = lagged_feed(600, 24);
        let (exact, _) = run_both(3, 96, &feed);
        let lossy = StreamConfig {
            n_replicas: 3,
            window: 96,
            gc_window: Some(16),
        };
        let lossy = feed_checker(lossy, &feed, false);
        let s = lossy.stats();
        assert!(s.forced_retired > 0, "gc_window 16 must force retirement");
        assert!(s.peak_bytes < exact.stats().peak_bytes);
        assert_pools_hold_only_resident_events(&lossy);
        // Lossy mode may miss violations whose evidence was force-retired,
        // but it never fabricates one: every lossy verdict is either the
        // exact verdict or a (weaker) pass.
        assert!(lossy.causal() == exact.causal() || lossy.causal().is_ok());
        assert!(lossy.eventual() == exact.eventual() || lossy.eventual().is_ok());
        assert!(lossy.sessions() == exact.sessions() || lossy.sessions().is_ok());
    }

    /// A checker in a random state over three replicas: `events` events fed
    /// with delta witnesses (the checker accumulates frontiers, so state
    /// costs O(events) to build however long the histories get), each
    /// replica learning of the others' updates in random-sized steps, one
    /// replica cut off for a stretch so unstable updates and reads pile up,
    /// in short histories an occasional dot withheld forever, and the
    /// bounded window on or off.
    fn random_checker(rng: &mut Rng, events: usize) -> StreamChecker {
        let mut c = StreamChecker::new(StreamConfig {
            n_replicas: 3,
            window: 32,
            gc_window: rng.gen_bool(0.3).then(|| rng.gen_range(8..64usize)),
        })
        .unwrap();
        let cut = rng.gen_range(0..3usize);
        let cut_from = rng.gen_range(0..events + 1);
        let cut_to = cut_from + rng.gen_range(0..80usize);
        // Never delivered, so never stable: in exact mode everything after
        // it stays resident, which only short histories can afford.
        let withhold = if events < 400 { 0.01 } else { 0.0 };
        let mut issued = [0u32; 3];
        let mut known = [[0u32; 3]; 3];
        for t in 0..events {
            let rho = rng.gen_range(0..3usize);
            let mut visible = Vec::new();
            for o in (0..3).filter(|&o| o != rho) {
                let cut_off = (cut_from..cut_to).contains(&t) && (o == cut || rho == cut);
                if cut_off || rng.gen_bool(0.3) {
                    continue;
                }
                let behind = issued[o] - known[rho][o];
                let step = rng.gen_range(0..behind + 1).min(rng.gen_range(1..40));
                for seq in known[rho][o] + 1..=known[rho][o] + step {
                    if !rng.gen_bool(withhold) {
                        visible.push(dot(o as u32, seq));
                    }
                }
                known[rho][o] += step;
            }
            let is_update = rng.gen_bool(0.6);
            issued[rho] += u32::from(is_update);
            c.push(
                r(rho as u32),
                x(rng.gen_range(0..2u32)),
                is_update,
                &visible,
            )
            .unwrap();
        }
        // Half the time one origin ends settled: a last update of its own,
        // seen by both others along with the rest of its history, leaves
        // it no unstable update or read — its floor is all it issued.
        if rng.gen_bool(0.5) {
            let q = rng.gen_range(0..3usize);
            c.push(r(q as u32), x(0), true, &[]).unwrap();
            issued[q] += 1;
            for rho in (0..3).filter(|&rho| rho != q) {
                let rest: Vec<Dot> = (known[rho][q] + 1..=issued[q])
                    .map(|seq| dot(q as u32, seq))
                    .collect();
                c.push(r(rho as u32), x(0), false, &rest).unwrap();
            }
        }
        c
    }

    /// A raw witness list for the state of `c`: per origin the run
    /// `start..=len` for a length around the block boundaries or the whole
    /// history — from 1, or from where a 16-dot block after the first dot
    /// ends exactly on the origin's first unstable update — then (by
    /// `shape`) left alone, shuffled, gapped or with duplicates, then `own`
    /// inserted somewhere.
    fn raw_witness(rng: &mut Rng, c: &StreamChecker, shape: usize, own: Option<Dot>) -> Vec<Dot> {
        let mut list = Vec::new();
        for (o, &all) in c.issued.iter().enumerate() {
            let len = *rng
                .choose(&[0, 1, 15, 16, 17, 31, 32, 33, all, all, all])
                .unwrap();
            let first_unstable = c.dots[o].first().map_or(all + 1, |s| s as u32);
            let start = if rng.gen_bool(0.5) {
                1
            } else {
                (first_unstable - 1) % 16 + 1
            };
            list.extend((start..=len.min(all)).map(|seq| dot(o as u32, seq)));
        }
        match shape {
            0 => {}
            1 => rng.shuffle(&mut list),
            2 => list.retain(|_| !rng.gen_bool(0.02)),
            _ => {
                for _ in 0..rng.gen_range(0..4) {
                    if let Some(&d) = rng.choose(&list) {
                        list.insert(rng.gen_range(0..list.len() + 1), d);
                    }
                }
            }
        }
        if let Some(own) = own {
            list.insert(rng.gen_range(0..list.len() + 1), own);
        }
        list
    }

    #[test]
    fn block_skipping_ingest_agrees_with_the_per_dot_definition() {
        use haec_testkit::prop::{self, u64s, usizes};
        use haec_testkit::{prop_assert, prop_assert_eq};

        // (state and list seed, history size class, list shape, planted fault)
        let gen = (u64s(0..u64::MAX), usizes(0..32), usizes(0..4), usizes(0..6));
        prop::check(
            "block_skipping_ingest_agrees_with_the_per_dot_definition",
            &gen,
            |&(seed, size, shape, plant)| {
                let mut rng = Rng::seed_from_u64(seed);
                // One case in eight has histories of around a thousand dots
                // per origin.
                let events = if size < 4 {
                    rng.gen_range(1000..4000usize)
                } else {
                    rng.gen_range(0..500usize)
                };
                let mut c = random_checker(&mut rng, events);
                let before = c.clone();
                let rho = rng.gen_range(0..3usize);
                let is_update = rng.gen_bool(0.5);
                let own = is_update.then(|| dot(rho as u32, c.issued[rho] + 1));
                let mut list = raw_witness(&mut rng, &c, shape, own);
                // A fault planted inside its origin's run — a settled
                // origin's by preference, whose every other dot is at or
                // below the floor.
                let settled = (0..3).find(|&o| c.dots[o].len == 0 && c.un_reads[o].is_empty());
                let o = match settled {
                    Some(o) if rng.gen_bool(0.7) => o as u32,
                    _ => rng.gen_range(0..3u32),
                };
                let planted = match plant {
                    0 => Some(dot(o, 0)),
                    1 => {
                        let issued = c.issued[o as usize]
                            + u32::from(own.is_some_and(|d| d.replica == r(o)));
                        Some(dot(o, issued + rng.gen_range(1..3)))
                    }
                    2 => Some(dot(rng.gen_range(3..70), rng.gen_range(0..40))),
                    _ => None,
                };
                if let Some(d) = planted {
                    let in_run: Vec<usize> = (0..list.len())
                        .filter(|&i| list[i].replica == r(o))
                        .collect();
                    let at = rng.choose(&in_run).map_or(list.len(), |&i| i);
                    list.insert(at, d);
                }

                // The two scans, on the state `push` shows them: the
                // event's own dot already counted as issued.
                let t = c.len();
                c.issued[rho] += u32::from(is_update);
                let own_seq = c.issued[rho];
                let want =
                    c.resolve_witness_per_dot(t, rho, is_update, own_seq, r(rho as u32), &list);
                let got = c.resolve_witness(t, rho, is_update, own_seq, r(rho as u32), &list);
                prop_assert_eq!(&got, &want, "witness {:?}", list);
                prop_assert_eq!(want.is_err(), planted.is_some());

                // And through `push`: same first offending dot, poisoned
                // the same.
                let mut c = before;
                let pushed = c.push(r(rho as u32), x(0), is_update, &list);
                match want {
                    Ok(_) => prop_assert_eq!(pushed, Ok(t)),
                    Err(e) => {
                        prop_assert_eq!(pushed, Err(e.clone()));
                        prop_assert_eq!(c.error(), Some(&e));
                        prop_assert_eq!(c.push(r(0), x(0), false, &[]), Err(e));
                        prop_assert!(c.len() == t, "a rejected event is not counted");
                    }
                }
                Ok(())
            },
        );
    }

    /// `(u1, u2)` of monotonic writes and `(r, u2, u)` of writes follow reads.
    type SessionCandidates = (Option<(usize, usize)>, Option<(usize, usize, usize)>);

    /// The definitions the entrant-only scans must agree with: the middle
    /// element ranges over all of `P(t)` that is still resident — `pvec`,
    /// and the stable events by a plain walk of `pending` — and every
    /// violating tuple is a candidate.
    impl StreamChecker {
        fn scan_causal_full(&self, pvec: &[usize]) -> Option<(usize, usize)> {
            let mut best = None;
            for &e2 in pvec.iter().chain(self.pending.iter()) {
                for &e1 in &self.live.get(e2).expect("resident").preds {
                    if !in_p(&self.live, pvec, e1) {
                        keep_min(&mut best, (e1, e2));
                    }
                }
            }
            best
        }

        fn scan_sessions_full(&self, pvec: &[usize]) -> SessionCandidates {
            let (mut best_mw, mut best_wfr) = (None, None);
            for &u2 in pvec.iter().chain(self.pending.iter()) {
                let le = self.live.get(u2).expect("resident");
                if !le.is_update {
                    continue;
                }
                let rr = le.replica.index();
                for &u1 in self.dots[rr].values() {
                    if u1 < u2 && !in_p(&self.live, pvec, u1) {
                        keep_min(&mut best_mw, (u1, u2));
                    }
                }
                for (&r, seen) in self.wfr_reads[rr].iter() {
                    for &u in seen {
                        if r < u2 && !in_p(&self.live, pvec, u) {
                            keep_min(&mut best_wfr, (r, u2, u));
                        }
                    }
                }
            }
            (best_mw, best_wfr)
        }
    }

    /// The witness of one event in a random hostile feed over `n` replicas.
    /// `known[o]` is how far this replica's prefix of origin `o` has got.
    fn hostile_witness(
        rng: &mut Rng,
        style: usize,
        rho: usize,
        issued: &[u32],
        known: &mut [u32],
    ) -> Vec<Dot> {
        let mut visible = Vec::new();
        for o in (0..issued.len()).filter(|&o| o != rho) {
            match style {
                // Any subset of what the origin has issued.
                0 => {
                    let keep = *rng.choose(&[0.0, 0.1, 0.5, 0.9]).unwrap();
                    visible.extend(
                        (1..=issued[o])
                            .filter(|_| rng.gen_bool(keep))
                            .map(|seq| dot(o as u32, seq)),
                    );
                }
                // A prefix that advances in steps, with holes left for good.
                1 => {
                    if rng.gen_bool(0.3) {
                        continue;
                    }
                    let step = rng.gen_range(0..issued[o] - known[o] + 1).min(4);
                    for seq in known[o] + 1..=known[o] + step {
                        if !rng.gen_bool(0.15) {
                            visible.push(dot(o as u32, seq));
                        }
                    }
                    known[o] += step;
                }
                // One recent dot and nothing before it.
                _ => {
                    if issued[o] > 0 && rng.gen_bool(0.5) {
                        let back = rng.gen_range(0..issued[o].min(3));
                        visible.push(dot(o as u32, issued[o] - back));
                    }
                }
            }
        }
        visible
    }

    #[test]
    fn entrant_only_scans_agree_with_the_full_scans_after_every_push() {
        use haec_testkit::prop::{self, u64s, usizes};
        use haec_testkit::prop_assert_eq;
        use std::cell::Cell;

        // (feed seed, witness style, replicas, gc_window class)
        let gen = (u64s(0..u64::MAX), usizes(0..3), usizes(1..6), usizes(0..3));
        // Cases that end with a causal / monotonic-writes / writes-follow-
        // reads violation on record, and cases in all.
        let tally = Cell::new([0usize; 4]);
        prop::check(
            "entrant_only_scans_agree_with_the_full_scans_after_every_push",
            &gen,
            |&(seed, style, n, gc)| {
                let mut rng = Rng::seed_from_u64(seed);
                let window = rng.gen_range(2..12usize);
                let gc_window = match gc {
                    0 => None,
                    1 => Some(rng.gen_range(1..4usize)),
                    _ => Some(rng.gen_range(6..24usize)),
                };
                let mut c = StreamChecker::new(StreamConfig {
                    n_replicas: n,
                    window,
                    gc_window,
                })
                .unwrap();
                let mut ex = Execution::new(n);
                let mut ws = Vec::new();
                let mut known = vec![vec![0u32; n]; n];
                let (mut want_causal, mut want_mw, mut want_wfr) = (None, None, None);
                for t in 0..rng.gen_range(1..48usize) {
                    let rho = rng.gen_range(0..n);
                    let is_update = rng.gen_bool(0.6);
                    let obj = x(rng.gen_range(0..2u32));
                    let visible = hostile_witness(&mut rng, style, rho, &c.issued, &mut known[rho]);

                    // The full scans, on the state `push` shows its own:
                    // the event's dot already counted as issued.
                    c.issued[rho] += u32::from(is_update);
                    let extra = c
                        .resolve_witness(t, rho, is_update, c.issued[rho], r(rho as u32), &visible)
                        .unwrap();
                    c.issued[rho] -= u32::from(is_update);
                    let mut pvec: Vec<usize> = c.r_explicit[rho].iter().copied().collect();
                    pvec.extend(extra.iter());
                    pvec.sort_unstable();
                    if let Some((e1, e2)) = c.scan_causal_full(&pvec) {
                        keep_min(&mut want_causal, (e1, e2, t));
                    }
                    let (mw, wfr) = c.scan_sessions_full(&pvec);
                    if let Some((u1, u2)) = mw {
                        keep_min(&mut want_mw, (u1, u2, t));
                    }
                    if let Some((rd, u2, u)) = wfr {
                        keep_min(&mut want_wfr, (rd, u2, t, u));
                    }

                    prop_assert_eq!(c.push(r(rho as u32), obj, is_update, &visible), Ok(t));
                    prop_assert_eq!(c.best_causal, want_causal, "causal after push {}", t);
                    prop_assert_eq!(c.best_mw, want_mw, "monotonic writes after push {}", t);
                    prop_assert_eq!(c.best_wfr, want_wfr, "writes follow reads after push {}", t);

                    let (op, rv) = if is_update {
                        (Op::Write(Value::new(t as u64)), ReturnValue::Ok)
                    } else {
                        (Op::Read, ReturnValue::empty())
                    };
                    let event = ex.push_do(r(rho as u32), obj, op, rv);
                    ws.push(DoWitness { event, visible });
                    if gc_window.is_none() {
                        let a = abstract_from_witness(&ex, &ws).unwrap();
                        prop_assert_eq!(c.causal(), causal::check(&a), "push {}", t);
                        prop_assert_eq!(
                            c.monotonic_writes(),
                            sessions::check_monotonic_writes(&a),
                            "push {}",
                            t
                        );
                        prop_assert_eq!(
                            c.writes_follow_reads(),
                            sessions::check_writes_follow_reads(&a),
                            "push {}",
                            t
                        );
                    }
                }
                let mut seen = tally.get();
                for (slot, hit) in seen.iter_mut().zip([
                    want_causal.is_some(),
                    want_mw.is_some(),
                    want_wfr.is_some(),
                    true,
                ]) {
                    *slot += usize::from(hit);
                }
                tally.set(seen);
                Ok(())
            },
        );
        let [causal, mw, wfr, cases] = tally.get();
        assert!(
            causal * 4 >= cases && mw * 4 >= cases && wfr * 8 >= cases,
            "feeds too tame: {causal} causal, {mw} monotonic-writes, {wfr} writes-follow-reads \
             violations in {cases} cases"
        );
    }

    #[test]
    fn error_display_variants() {
        assert!(StreamError::TooManyReplicas { n_replicas: 99 }
            .to_string()
            .contains("99"));
        assert!(StreamError::ZeroGcWindow.to_string().contains("nonzero"));
        assert!(StreamError::ReplicaOutOfRange {
            event: 4,
            replica: r(9)
        }
        .to_string()
        .contains("R9"));
    }
}
