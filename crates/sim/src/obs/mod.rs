//! Structured observability for the simulator.
//!
//! Every state transition the [`Simulator`](crate::Simulator) performs —
//! client operations, broadcasts, deliveries, faults, partition
//! transitions, quiescence — is announced to an [`Observer`]. Observers are
//! passive: they may record anything but cannot influence the run, and the
//! [observer-determinism property test](crate#determinism) pins down that a
//! run with observers attached produces a byte-identical execution
//! transcript to one without.
//!
//! The module ships batteries:
//!
//! - [`hist::Histogram`] — log2-bucketed value histograms;
//! - [`log::EventLog`] — a bounded structured event log (ring buffer);
//! - [`stats::StatsObserver`] — the run's cost meter: event counters,
//!   message-size and delivery-latency histograms, bits per update, peak
//!   state size, search statistics;
//! - [`lag::LagObserver`] — per-update visibility lag and read staleness;
//! - [`stream::StreamObserver`] — online consistency checking (causal,
//!   eventual, session guarantees) with stability-driven event GC;
//! - [`json::Json`] — a tiny dependency-free JSON tree (serialise + parse);
//! - [`report::RunReport`] — everything above aggregated into one report
//!   with a stable JSON rendering.
//!
//! Observers are usually attached through [`shared`], which wraps them in
//! `Rc<RefCell<_>>` so the caller keeps a readable handle after the run:
//!
//! ```
//! use haec_sim::obs::{self, stats::StatsObserver};
//! use haec_sim::Simulator;
//! use haec_model::{ObjectId, Op, ReplicaId, StoreConfig, Value};
//! use haec_stores::DvvMvrStore;
//!
//! let stats = obs::shared(StatsObserver::new());
//! let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 2));
//! sim.attach_observer(Box::new(stats.clone()));
//! sim.do_op(ReplicaId::new(0), ObjectId::new(0), Op::Write(Value::new(7)));
//! sim.flush(ReplicaId::new(0));
//! sim.deliver_all();
//! assert_eq!(stats.borrow().sends(), 1);
//! assert_eq!(stats.borrow().receives(), 2);
//! ```

pub mod hist;
pub mod json;
pub mod lag;
pub mod log;
pub mod report;
pub mod stats;
pub mod stream;

use crate::exhaustive::Action;
use haec_model::{Dot, MsgId, ObjectId, Op, ReplicaId, ReturnValue};
use std::cell::RefCell;
use std::rc::Rc;

/// Context for a client operation (a `do` event).
#[derive(Clone, Debug)]
pub struct DoEvent<'a> {
    /// Index of the event in the execution transcript.
    pub step: usize,
    /// The invoking replica.
    pub replica: ReplicaId,
    /// The target object.
    pub obj: ObjectId,
    /// The operation.
    pub op: &'a Op,
    /// The response returned to the client.
    pub rval: &'a ReturnValue,
    /// The operation's dot if it was an update, `None` for reads.
    pub dot: Option<Dot>,
    /// Update dots the store reports as visible to this operation.
    pub visible: &'a [Dot],
}

/// Context for a broadcast (a `send` event).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SendEvent {
    /// Index of the event in the execution transcript.
    pub step: usize,
    /// The broadcasting replica.
    pub replica: ReplicaId,
    /// The message.
    pub msg: MsgId,
    /// Encoded payload size in bits.
    pub bits: usize,
}

/// Context for a delivery (a `receive` event).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReceiveEvent {
    /// Index of the event in the execution transcript.
    pub step: usize,
    /// The receiving replica.
    pub replica: ReplicaId,
    /// The message.
    pub msg: MsgId,
    /// Encoded payload size in bits.
    pub bits: usize,
    /// Index of the corresponding `send` event.
    pub send_step: usize,
}

/// Context for a network fault (drop or duplication of an in-flight copy).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Number of execution events recorded when the fault occurred.
    pub step: usize,
    /// The affected message.
    pub msg: MsgId,
    /// The replica the affected copy was addressed to.
    pub to: ReplicaId,
}

/// A passive listener for simulator events.
///
/// Every hook has a no-op default, so an observer implements only what it
/// cares about. Hooks must not assume any particular schedule: the
/// simulator invokes them in transcript order, after the event has been
/// recorded.
pub trait Observer {
    /// A client operation completed at a replica.
    fn on_do(&mut self, ev: &DoEvent<'_>) {
        let _ = ev;
    }

    /// A replica broadcast a message.
    fn on_send(&mut self, ev: &SendEvent) {
        let _ = ev;
    }

    /// An in-flight copy was delivered.
    fn on_receive(&mut self, ev: &ReceiveEvent) {
        let _ = ev;
    }

    /// An in-flight copy was dropped (it will never be delivered).
    fn on_drop(&mut self, ev: &FaultEvent) {
        let _ = ev;
    }

    /// An in-flight copy was duplicated.
    fn on_duplicate(&mut self, ev: &FaultEvent) {
        let _ = ev;
    }

    /// A network partition became active (`active == true`) or healed.
    fn on_partition_change(&mut self, step: usize, active: bool) {
        let _ = (step, active);
    }

    /// A quiescence drive finished after `rounds` flush-and-deliver rounds;
    /// `reached` tells whether the cluster actually quiesced.
    fn on_quiesce(&mut self, rounds: usize, reached: bool) {
        let _ = (rounds, reached);
    }

    /// The cluster's total encoded state size after a mutating event. The
    /// simulator sizes the machines only when an observer is attached.
    fn on_state_sample(&mut self, step: usize, state_bits: usize) {
        let _ = (step, state_bits);
    }

    /// The exhaustive explorer expanded the schedule `prefix` (its depth is
    /// `prefix.len()`) with `frontier` prefixes left on its stack. Fires in
    /// the walker's pre-order, for the prefixes the reductions keep.
    fn on_search_node(&mut self, prefix: &[Action], frontier: usize) {
        let _ = (prefix, frontier);
    }

    /// The counterexample shrinker tried a candidate schedule of `len`
    /// actions.
    fn on_shrink_step(&mut self, len: usize) {
        let _ = len;
    }

    /// The exhaustive explorer probed its state-fingerprint cache;
    /// `hit == true` means the subtree was pruned as already explored.
    fn on_dedup_lookup(&mut self, hit: bool) {
        let _ = hit;
    }

    /// A scenario-family explorer ran one member (of `len` patterns) of
    /// the family named `family`; `passed` is the predicate's verdict.
    /// Members are announced in canonical enumeration order.
    fn on_family_member(&mut self, family: &str, len: usize, passed: bool) {
        let _ = (family, len, passed);
    }
}

/// An [`Observer`] that can be split across the parallel explorer's worker
/// threads and deterministically recombined.
///
/// [`explore_all_parallel`](crate::exhaustive::explore_all_parallel)
/// gives every work unit a fresh child created by [`fork`](Self::fork) and
/// folds the children back into the parent with [`join`](Self::join) in
/// **canonical subtree order** — the order the sequential DFS would have
/// produced the same events — never in thread-completion order. An
/// implementation is deterministic under parallelism iff its `join` makes
/// the parent state depend only on the multiset of events each child saw
/// and the canonical join order, not on wall-clock interleaving.
pub trait ForkJoinObserver: Observer + Sized {
    /// Creates an empty child observer that will record one work unit.
    fn fork(&self) -> Self;

    /// Folds a finished child back into `self`. Children are joined in
    /// canonical subtree order.
    fn join(&mut self, child: Self);
}

/// Discards every event; `fork` and `join` are trivially sound. What a
/// caller with nothing to observe passes to the exploration entry points.
pub struct NullObserver;

impl Observer for NullObserver {}

impl ForkJoinObserver for NullObserver {
    fn fork(&self) -> Self {
        NullObserver
    }
    fn join(&mut self, _child: Self) {}
}

/// Fan-out to any number of boxed observers, itself an [`Observer`].
#[derive(Default)]
pub struct Observers {
    list: Vec<Box<dyn Observer>>,
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observers")
            .field("len", &self.list.len())
            .finish()
    }
}

impl Observers {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Observers::default()
    }

    /// Adds an observer to the fan-out.
    pub fn attach(&mut self, observer: Box<dyn Observer>) {
        self.list.push(observer);
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl Observer for Observers {
    fn on_do(&mut self, ev: &DoEvent<'_>) {
        for o in &mut self.list {
            o.on_do(ev);
        }
    }
    fn on_send(&mut self, ev: &SendEvent) {
        for o in &mut self.list {
            o.on_send(ev);
        }
    }
    fn on_receive(&mut self, ev: &ReceiveEvent) {
        for o in &mut self.list {
            o.on_receive(ev);
        }
    }
    fn on_drop(&mut self, ev: &FaultEvent) {
        for o in &mut self.list {
            o.on_drop(ev);
        }
    }
    fn on_duplicate(&mut self, ev: &FaultEvent) {
        for o in &mut self.list {
            o.on_duplicate(ev);
        }
    }
    fn on_partition_change(&mut self, step: usize, active: bool) {
        for o in &mut self.list {
            o.on_partition_change(step, active);
        }
    }
    fn on_quiesce(&mut self, rounds: usize, reached: bool) {
        for o in &mut self.list {
            o.on_quiesce(rounds, reached);
        }
    }
    fn on_state_sample(&mut self, step: usize, state_bits: usize) {
        for o in &mut self.list {
            o.on_state_sample(step, state_bits);
        }
    }
    fn on_search_node(&mut self, prefix: &[Action], frontier: usize) {
        for o in &mut self.list {
            o.on_search_node(prefix, frontier);
        }
    }
    fn on_shrink_step(&mut self, len: usize) {
        for o in &mut self.list {
            o.on_shrink_step(len);
        }
    }
    fn on_dedup_lookup(&mut self, hit: bool) {
        for o in &mut self.list {
            o.on_dedup_lookup(hit);
        }
    }
    fn on_family_member(&mut self, family: &str, len: usize, passed: bool) {
        for o in &mut self.list {
            o.on_family_member(family, len, passed);
        }
    }
}

/// Borrows the wrapped observer for one hook dispatch, failing with a
/// message that names the hook instead of `RefCell`'s opaque
/// "already mutably borrowed".
fn borrow_for_hook<'a, O: Observer>(cell: &'a RefCell<O>, hook: &str) -> std::cell::RefMut<'a, O> {
    cell.try_borrow_mut().unwrap_or_else(|_| {
        panic!(
            "shared observer is still borrowed while dispatching `{hook}`: \
             drop the borrow()/borrow_mut() guard before driving the simulator"
        )
    })
}

/// A shared observer handle: the simulator holds one clone, the caller
/// keeps another to read results after the run.
///
/// Dispatch borrows the cell per hook via `try_borrow_mut`, so a caller
/// that still holds a `borrow()` guard while the simulator runs gets a
/// panic naming the offending hook rather than `RefCell`'s generic
/// "already mutably borrowed" at an unrelated line.
impl<O: Observer> Observer for Rc<RefCell<O>> {
    fn on_do(&mut self, ev: &DoEvent<'_>) {
        borrow_for_hook(self, "on_do").on_do(ev);
    }
    fn on_send(&mut self, ev: &SendEvent) {
        borrow_for_hook(self, "on_send").on_send(ev);
    }
    fn on_receive(&mut self, ev: &ReceiveEvent) {
        borrow_for_hook(self, "on_receive").on_receive(ev);
    }
    fn on_drop(&mut self, ev: &FaultEvent) {
        borrow_for_hook(self, "on_drop").on_drop(ev);
    }
    fn on_duplicate(&mut self, ev: &FaultEvent) {
        borrow_for_hook(self, "on_duplicate").on_duplicate(ev);
    }
    fn on_partition_change(&mut self, step: usize, active: bool) {
        borrow_for_hook(self, "on_partition_change").on_partition_change(step, active);
    }
    fn on_quiesce(&mut self, rounds: usize, reached: bool) {
        borrow_for_hook(self, "on_quiesce").on_quiesce(rounds, reached);
    }
    fn on_state_sample(&mut self, step: usize, state_bits: usize) {
        borrow_for_hook(self, "on_state_sample").on_state_sample(step, state_bits);
    }
    fn on_search_node(&mut self, prefix: &[Action], frontier: usize) {
        borrow_for_hook(self, "on_search_node").on_search_node(prefix, frontier);
    }
    fn on_shrink_step(&mut self, len: usize) {
        borrow_for_hook(self, "on_shrink_step").on_shrink_step(len);
    }
    fn on_dedup_lookup(&mut self, hit: bool) {
        borrow_for_hook(self, "on_dedup_lookup").on_dedup_lookup(hit);
    }
    fn on_family_member(&mut self, family: &str, len: usize, passed: bool) {
        borrow_for_hook(self, "on_family_member").on_family_member(family, len, passed);
    }
}

/// Wraps an observer in `Rc<RefCell<_>>` for shared ownership: attach one
/// clone to the simulator, keep the other to inspect afterwards.
pub fn shared<O: Observer>(observer: O) -> Rc<RefCell<O>> {
    Rc::new(RefCell::new(observer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        dos: usize,
        quiesces: usize,
    }

    impl Observer for Counting {
        fn on_do(&mut self, _ev: &DoEvent<'_>) {
            self.dos += 1;
        }
        fn on_quiesce(&mut self, _rounds: usize, _reached: bool) {
            self.quiesces += 1;
        }
    }

    #[test]
    fn multiplexer_fans_out() {
        let a = shared(Counting::default());
        let b = shared(Counting::default());
        let mut obs = Observers::new();
        obs.attach(Box::new(a.clone()));
        obs.attach(Box::new(b.clone()));
        assert_eq!(obs.len(), 2);
        assert!(!obs.is_empty());
        let ev = DoEvent {
            step: 0,
            replica: ReplicaId::new(0),
            obj: ObjectId::new(0),
            op: &Op::Read,
            rval: &ReturnValue::empty(),
            dot: None,
            visible: &[],
        };
        obs.on_do(&ev);
        obs.on_quiesce(3, true);
        assert_eq!(a.borrow().dos, 1);
        assert_eq!(b.borrow().dos, 1);
        assert_eq!(a.borrow().quiesces, 1);
    }

    #[test]
    #[should_panic(expected = "shared observer is still borrowed while dispatching `on_quiesce`")]
    fn shared_observer_borrow_panic_names_the_hook() {
        let handle = shared(Counting::default());
        let guard = handle.borrow();
        let mut attached = handle.clone();
        attached.on_quiesce(1, true);
        drop(guard);
    }

    #[test]
    fn fork_join_round_trips_through_the_multiplexer_contract() {
        // A minimal fork/join observer: counts events, joins by addition.
        #[derive(Default)]
        struct Sum(usize);
        impl Observer for Sum {
            fn on_search_node(&mut self, _prefix: &[Action], _frontier: usize) {
                self.0 += 1;
            }
        }
        impl ForkJoinObserver for Sum {
            fn fork(&self) -> Self {
                Sum::default()
            }
            fn join(&mut self, child: Self) {
                self.0 += child.0;
            }
        }
        let mut parent = Sum::default();
        parent.on_search_node(&[], 0);
        let mut child = parent.fork();
        assert_eq!(child.0, 0, "fork starts empty");
        child.on_search_node(&[Action::Deliver(0)], 2);
        child.on_search_node(&[Action::Deliver(0), Action::Deliver(0)], 1);
        parent.join(child);
        assert_eq!(parent.0, 3);
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut n = NullObserver;
        n.on_quiesce(1, true);
        n.on_partition_change(0, true);
        n.on_state_sample(0, 0);
        n.on_search_node(&[], 0);
        n.on_shrink_step(0);
        n.on_dedup_lookup(true);
        n.on_family_member("f", 0, true);
    }
}
