//! Streaming consistency checking attached to the [`Observer`] stream.
//!
//! [`StreamObserver`] feeds every `do` event straight into a
//! [`StreamChecker`] as the simulator runs, so verdicts and
//! first-violation witnesses are available online — no complete
//! transcript, no batch
//! [`AbstractExecution`](haec_core::AbstractExecution) in memory. Quiesce
//! notifications trigger retirement sweeps; the remaining hooks keep cheap
//! activity tallies that flow into the `stream` section of the JSON
//! [`RunReport`](super::report::RunReport).
//!
//! ## Fork/join semantics
//!
//! The parallel explorer requires a [`ForkJoinObserver`]. Exploration
//! simulators never fire `on_do` (only search/dedup/family hooks), so
//! forked children carry *empty* checkers and the join reduces to pure
//! tally arithmetic: counters add, peaks max, and verdict slots keep the
//! first verdict in canonical join order. The merged [`StreamSnapshot`] is
//! therefore a function of the event multiset and the canonical order
//! alone — bit-identical at every thread count. Joining children that each
//! checked a *different* event stream does not splice their frontiers; it
//! aggregates their statistics and keeps the canonically-first verdict,
//! which is exactly what the run report needs.

use super::{DoEvent, ForkJoinObserver, Observer, ReceiveEvent, SendEvent};
use haec_core::stream::{StreamChecker, StreamConfig, StreamError, StreamStats};

/// A point-in-time, owned view of everything a [`StreamObserver`] knows:
/// checker resource statistics, verdict strings, and hook tallies. Two
/// snapshots compare equal iff the merged streaming state is identical.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StreamSnapshot {
    /// Checker resource statistics (counters summed, peaks maxed across
    /// joined children).
    pub stats: StreamStats,
    /// Causal-consistency verdict: `None` = no violation.
    pub causal: Option<String>,
    /// Eventual-consistency (windowed) verdict.
    pub eventual: Option<String>,
    /// Session-guarantee (monotonic writes, then writes-follow-reads)
    /// verdict.
    pub sessions: Option<String>,
    /// First stream error (broken witness, out-of-range replica), if any.
    pub error: Option<String>,
    /// Broadcasts observed.
    pub sends: u64,
    /// Deliveries observed.
    pub receives: u64,
    /// Partition starts plus heals observed.
    pub partition_changes: u64,
    /// Quiescence drives observed (each triggers a retirement sweep).
    pub quiesces: u64,
    /// Scenario-family members announced via `on_family_member`.
    pub family_members: u64,
}

impl StreamSnapshot {
    /// Folds `other` into `self`: counters add, peaks max, verdict slots
    /// keep the first non-empty value (callers fold in canonical order).
    fn absorb(&mut self, other: StreamSnapshot) {
        self.stats.events += other.stats.events;
        self.stats.live += other.stats.live;
        self.stats.pending += other.stats.pending;
        self.stats.retired += other.stats.retired;
        self.stats.forced_retired += other.stats.forced_retired;
        self.stats.peak_live = self.stats.peak_live.max(other.stats.peak_live);
        self.stats.bytes += other.stats.bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(other.stats.peak_bytes);
        if self.causal.is_none() {
            self.causal = other.causal;
        }
        if self.eventual.is_none() {
            self.eventual = other.eventual;
        }
        if self.sessions.is_none() {
            self.sessions = other.sessions;
        }
        if self.error.is_none() {
            self.error = other.error;
        }
        self.sends += other.sends;
        self.receives += other.receives;
        self.partition_changes += other.partition_changes;
        self.quiesces += other.quiesces;
        self.family_members += other.family_members;
    }
}

/// How many deliveries accumulate between opportunistic retirement sweeps.
/// Deliveries are when stability evidence is about to arrive (the next
/// `do` at the receiver witnesses the delivered updates), so sweeping on a
/// delivery cadence keeps the frontier tight without per-event cost.
const SWEEP_EVERY_RECEIVES: u64 = 64;

/// An [`Observer`] that checks consistency online.
///
/// Attach via [`obs::shared`](super::shared) like any other observer; read
/// verdicts from [`checker`](Self::checker) or a merged
/// [`snapshot`](Self::snapshot) afterwards.
#[derive(Debug)]
pub struct StreamObserver {
    checker: StreamChecker,
    sends: u64,
    receives: u64,
    partition_changes: u64,
    quiesces: u64,
    family_members: u64,
    /// Folded state of joined children (canonical order).
    joined: StreamSnapshot,
}

impl StreamObserver {
    /// An observer checking a stream from `config.n_replicas` replicas.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamChecker::new`] validation errors (too many
    /// replicas, zero `gc_window`).
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        Ok(StreamObserver {
            checker: StreamChecker::new(config)?,
            sends: 0,
            receives: 0,
            partition_changes: 0,
            quiesces: 0,
            family_members: 0,
            joined: StreamSnapshot::default(),
        })
    }

    /// An observer for `n_replicas` with the default
    /// [`StreamConfig::new`] parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` exceeds
    /// [`MAX_REPLICAS`](haec_core::stream::MAX_REPLICAS).
    pub fn for_replicas(n_replicas: usize) -> Self {
        StreamObserver::new(StreamConfig::new(n_replicas)).expect("default config is valid")
    }

    /// The live checker (this observer's own, excluding joined children).
    pub fn checker(&self) -> &StreamChecker {
        &self.checker
    }

    /// The merged view: this observer's checker state and tallies folded
    /// together with every joined child, children first-come in canonical
    /// order after `self`.
    pub fn snapshot(&self) -> StreamSnapshot {
        let mut snap = StreamSnapshot {
            stats: self.checker.stats(),
            causal: self.checker.causal().err().map(|e| e.to_string()),
            eventual: self.checker.eventual().err().map(|e| e.to_string()),
            sessions: self.checker.sessions().err().map(|e| e.to_string()),
            error: self.checker.error().map(|e| e.to_string()),
            sends: self.sends,
            receives: self.receives,
            partition_changes: self.partition_changes,
            quiesces: self.quiesces,
            family_members: self.family_members,
        };
        snap.absorb(self.joined.clone());
        snap
    }
}

impl Observer for StreamObserver {
    fn on_do(&mut self, ev: &DoEvent<'_>) {
        // A push error poisons the checker, which records it; the snapshot
        // surfaces it as `error`, so the result is deliberately ignored
        // here (observers must not influence the run).
        let _ = self
            .checker
            .push(ev.replica, ev.obj, ev.op.is_update(), ev.visible);
    }
    fn on_send(&mut self, _ev: &SendEvent) {
        self.sends += 1;
    }
    fn on_receive(&mut self, _ev: &ReceiveEvent) {
        self.receives += 1;
        if self.receives.is_multiple_of(SWEEP_EVERY_RECEIVES) {
            self.checker.sweep();
        }
    }
    fn on_partition_change(&mut self, _step: usize, _active: bool) {
        self.partition_changes += 1;
    }
    fn on_quiesce(&mut self, _rounds: usize, _reached: bool) {
        self.quiesces += 1;
        // Quiescence delivers everything in flight; the next witnessed
        // events will stabilize the backlog, and this sweep retires
        // whatever the evidence already covers.
        self.checker.sweep();
    }
    fn on_family_member(&mut self, _family: &str, _len: usize, _passed: bool) {
        self.family_members += 1;
    }
}

impl ForkJoinObserver for StreamObserver {
    fn fork(&self) -> Self {
        StreamObserver::new(*self.checker.config()).expect("parent config was validated")
    }

    fn join(&mut self, child: Self) {
        self.joined.absorb(child.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{Dot, ObjectId, Op, ReplicaId, ReturnValue, Value};

    fn do_ev<'a>(
        step: usize,
        replica: u32,
        op: &'a Op,
        rval: &'a ReturnValue,
        dot: Option<Dot>,
        visible: &'a [Dot],
    ) -> DoEvent<'a> {
        DoEvent {
            step,
            replica: ReplicaId::new(replica),
            obj: ObjectId::new(0),
            op,
            rval,
            dot,
            visible,
        }
    }

    #[test]
    fn on_do_feeds_the_checker_and_quiesce_sweeps() {
        let mut obs = StreamObserver::for_replicas(2);
        let w = Op::Write(Value::new(1));
        let ok = ReturnValue::Ok;
        let d0 = Dot::new(ReplicaId::new(0), 1);
        obs.on_do(&do_ev(0, 0, &w, &ok, Some(d0), &[]));
        obs.on_do(&do_ev(
            1,
            1,
            &w,
            &ok,
            Some(Dot::new(ReplicaId::new(1), 1)),
            &[d0],
        ));
        // Replica 0 witnesses replica 1's update: both early events covered.
        obs.on_do(&do_ev(
            2,
            0,
            &w,
            &ok,
            Some(Dot::new(ReplicaId::new(0), 2)),
            &[Dot::new(ReplicaId::new(1), 1)],
        ));
        obs.on_quiesce(1, true);
        let snap = obs.snapshot();
        assert_eq!(snap.stats.events, 3);
        assert_eq!(snap.quiesces, 1);
        assert!(snap.causal.is_none() && snap.error.is_none());
        assert!(
            snap.stats.retired > 0,
            "quiesce sweep must retire: {snap:?}"
        );
    }

    #[test]
    fn broken_witness_surfaces_as_error_not_panic() {
        let mut obs = StreamObserver::for_replicas(2);
        let w = Op::Write(Value::new(1));
        let ok = ReturnValue::Ok;
        let bogus = Dot::new(ReplicaId::new(1), 9);
        obs.on_do(&do_ev(
            0,
            0,
            &w,
            &ok,
            Some(Dot::new(ReplicaId::new(0), 1)),
            &[bogus],
        ));
        let snap = obs.snapshot();
        assert!(snap.error.as_deref().unwrap_or("").contains("unissued"));
    }

    #[test]
    fn join_is_tally_arithmetic_with_keep_first_verdicts() {
        let mut parent = StreamObserver::for_replicas(3);
        parent.on_family_member("a", 2, true);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_eq!(c1.snapshot().stats.events, 0, "fork starts empty");
        c1.on_send(&SendEvent {
            step: 0,
            replica: ReplicaId::new(0),
            msg: haec_model::MsgId::new(0),
            bits: 8,
        });
        c1.on_family_member("a", 3, false);
        c2.on_family_member("a", 4, true);
        c2.on_partition_change(1, true);
        parent.join(c1);
        parent.join(c2);
        let snap = parent.snapshot();
        assert_eq!(snap.family_members, 3);
        assert_eq!(snap.sends, 1);
        assert_eq!(snap.partition_changes, 1);
        assert!(snap.causal.is_none());
    }

    #[test]
    fn join_order_determines_the_kept_verdict_deterministically() {
        // Two children with different eventual verdicts: the one joined
        // first (canonical order) wins, independent of construction order.
        let parent = StreamObserver::for_replicas(1);
        let w = Op::Write(Value::new(1));
        let ok = ReturnValue::Ok;
        let make_violating = |n: usize| {
            let mut c = parent.fork();
            let bogus = Dot::new(ReplicaId::new(0), 99 + n as u32);
            c.on_do(&do_ev(0, 0, &w, &ok, None, &[bogus]));
            c
        };
        let mut p1 = StreamObserver::for_replicas(1);
        p1.join(make_violating(1));
        p1.join(make_violating(2));
        let mut p2 = StreamObserver::for_replicas(1);
        p2.join(make_violating(1));
        p2.join(make_violating(2));
        assert_eq!(p1.snapshot(), p2.snapshot());
        assert!(p1.snapshot().error.as_deref().unwrap_or("").contains("100"));
    }
}
