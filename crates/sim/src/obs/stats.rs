//! Event counters and network-cost histograms: the run's cost meter.
//!
//! The paper's lower bounds are about inherent *costs* — message bits,
//! replica state. [`StatsObserver`] is where a run's costs are counted, so
//! stores can be compared like systems in an evaluation section: attach it
//! before the schedule and read sends, receives, total / largest / mean
//! message bits, bits per update and peak state afterwards. A simulator
//! with no observer attached measures nothing.

use super::hist::Histogram;
use super::{DoEvent, FaultEvent, ForkJoinObserver, Observer, ReceiveEvent, SendEvent};
use crate::exhaustive::Action;
use std::collections::BTreeMap;

/// Per-family tallies from scenario-family sweeps
/// ([`Observer::on_family_member`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct FamilyTally {
    /// Members run.
    pub members: u64,
    /// Members whose predicate failed.
    pub failures: u64,
    /// Total patterns across the members run (so mean member length is
    /// `pattern_total / members`).
    pub pattern_total: u64,
}

/// Counts every kind of simulator event and aggregates network costs:
/// message sizes (bits, per send), delivery latency (transcript events
/// between a send and each of its deliveries), peak total state size, and
/// exhaustive-search effort.
#[derive(Clone, Debug, Default)]
pub struct StatsObserver {
    do_events: u64,
    updates: u64,
    reads: u64,
    sends: u64,
    receives: u64,
    drops: u64,
    duplicates: u64,
    partition_changes: u64,
    quiesce_calls: u64,
    quiesce_rounds: u64,
    message_bits: Histogram,
    delivery_latency: Histogram,
    peak_state_bits: usize,
    search_nodes: u64,
    max_frontier: usize,
    shrink_steps: u64,
    dedup_hits: u64,
    dedup_misses: u64,
    families: BTreeMap<String, FamilyTally>,
}

impl StatsObserver {
    /// A fresh, all-zero collector.
    pub fn new() -> Self {
        StatsObserver::default()
    }

    /// Client operations observed.
    pub fn do_events(&self) -> u64 {
        self.do_events
    }

    /// Update (non-read) operations observed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Read operations observed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Broadcasts observed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Deliveries observed.
    pub fn receives(&self) -> u64 {
        self.receives
    }

    /// Dropped in-flight copies.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Duplicated in-flight copies.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Partition starts plus heals.
    pub fn partition_changes(&self) -> u64 {
        self.partition_changes
    }

    /// Quiescence drives observed.
    pub fn quiesce_calls(&self) -> u64 {
        self.quiesce_calls
    }

    /// Total flush-and-deliver rounds across all quiescence drives.
    pub fn quiesce_rounds(&self) -> u64 {
        self.quiesce_rounds
    }

    /// Histogram of encoded message sizes in bits (one sample per send).
    pub fn message_bits(&self) -> &Histogram {
        &self.message_bits
    }

    /// Histogram of delivery latencies: transcript events between a send
    /// and each delivery of one of its copies.
    pub fn delivery_latency(&self) -> &Histogram {
        &self.delivery_latency
    }

    /// Largest total encoded replica state (bits) seen in any sample —
    /// state that was later garbage-collected still counts.
    pub fn peak_state_bits(&self) -> usize {
        self.peak_state_bits
    }

    /// Total message bits divided by update count — the propagation cost
    /// per update (0 if no updates).
    pub fn bits_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.message_bits.sum() as f64 / self.updates as f64
        }
    }

    /// Schedule prefixes expanded by the exhaustive explorer.
    pub fn search_nodes(&self) -> u64 {
        self.search_nodes
    }

    /// Largest explorer frontier (stack depth) seen.
    pub fn max_frontier(&self) -> usize {
        self.max_frontier
    }

    /// Candidate schedules tried by the counterexample shrinker.
    pub fn shrink_steps(&self) -> u64 {
        self.shrink_steps
    }

    /// Fingerprint-cache hits (pruned subtrees) in the exhaustive explorer.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Fingerprint-cache misses in the exhaustive explorer.
    pub fn dedup_misses(&self) -> u64 {
        self.dedup_misses
    }

    /// Per-family member/failure tallies from scenario-family sweeps,
    /// keyed by family name (deterministic iteration order).
    pub fn families(&self) -> &BTreeMap<String, FamilyTally> {
        &self.families
    }

    /// Fraction of fingerprint-cache probes that hit, or 0.0 if the cache
    /// was never probed.
    pub fn dedup_hit_rate(&self) -> f64 {
        let probes = self.dedup_hits + self.dedup_misses;
        if probes == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / probes as f64
        }
    }
}

impl Observer for StatsObserver {
    fn on_do(&mut self, ev: &DoEvent<'_>) {
        self.do_events += 1;
        if ev.op.is_update() {
            self.updates += 1;
        } else {
            self.reads += 1;
        }
    }
    fn on_send(&mut self, ev: &SendEvent) {
        self.sends += 1;
        self.message_bits.record(ev.bits as u64);
    }
    fn on_receive(&mut self, ev: &ReceiveEvent) {
        self.receives += 1;
        self.delivery_latency
            .record(ev.step.saturating_sub(ev.send_step) as u64);
    }
    fn on_drop(&mut self, _ev: &FaultEvent) {
        self.drops += 1;
    }
    fn on_duplicate(&mut self, _ev: &FaultEvent) {
        self.duplicates += 1;
    }
    fn on_partition_change(&mut self, _step: usize, _active: bool) {
        self.partition_changes += 1;
    }
    fn on_quiesce(&mut self, rounds: usize, _reached: bool) {
        self.quiesce_calls += 1;
        self.quiesce_rounds += rounds as u64;
    }
    fn on_state_sample(&mut self, _step: usize, state_bits: usize) {
        self.peak_state_bits = self.peak_state_bits.max(state_bits);
    }
    fn on_search_node(&mut self, _prefix: &[Action], frontier: usize) {
        self.search_nodes += 1;
        self.max_frontier = self.max_frontier.max(frontier);
    }
    fn on_shrink_step(&mut self, _len: usize) {
        self.shrink_steps += 1;
    }
    fn on_dedup_lookup(&mut self, hit: bool) {
        if hit {
            self.dedup_hits += 1;
        } else {
            self.dedup_misses += 1;
        }
    }
    fn on_family_member(&mut self, family: &str, len: usize, passed: bool) {
        let tally = self.families.entry(family.to_owned()).or_default();
        tally.members += 1;
        tally.pattern_total += len as u64;
        if !passed {
            tally.failures += 1;
        }
    }
}

/// Every `StatsObserver` field is either a sum, a max, or a fixed-shape
/// histogram, so the collector partitions cleanly across worker threads:
/// fork children, record disjoint event streams, join by adding counters,
/// merging histograms, and taking maxima. The result equals what one
/// collector would have recorded over the concatenated stream, regardless
/// of how the stream was partitioned.
impl ForkJoinObserver for StatsObserver {
    fn fork(&self) -> Self {
        StatsObserver::new()
    }

    fn join(&mut self, child: Self) {
        self.do_events += child.do_events;
        self.updates += child.updates;
        self.reads += child.reads;
        self.sends += child.sends;
        self.receives += child.receives;
        self.drops += child.drops;
        self.duplicates += child.duplicates;
        self.partition_changes += child.partition_changes;
        self.quiesce_calls += child.quiesce_calls;
        self.quiesce_rounds += child.quiesce_rounds;
        self.message_bits.merge(&child.message_bits);
        self.delivery_latency.merge(&child.delivery_latency);
        self.peak_state_bits = self.peak_state_bits.max(child.peak_state_bits);
        self.search_nodes += child.search_nodes;
        self.max_frontier = self.max_frontier.max(child.max_frontier);
        self.shrink_steps += child.shrink_steps;
        self.dedup_hits += child.dedup_hits;
        self.dedup_misses += child.dedup_misses;
        for (family, tally) in child.families.iter() {
            let mine = self.families.entry(family.clone()).or_default();
            mine.members += tally.members;
            mine.failures += tally.failures;
            mine.pattern_total += tally.pattern_total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::shared;
    use crate::{run_schedule, KeyDistribution, ScheduleConfig, Simulator, Workload};
    use haec_core::SpecKind;
    use haec_model::{
        EventKind, MsgId, ObjectId, Op, ReplicaId, ReturnValue, StoreConfig, StoreFactory, Value,
    };
    use haec_stores::{CopsStore, DvvMvrStore};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A fresh cluster with the meter attached from the first event.
    fn metered(
        factory: &dyn StoreFactory,
        config: StoreConfig,
    ) -> (Simulator, Rc<RefCell<StatsObserver>>) {
        let stats = shared(StatsObserver::new());
        let mut sim = Simulator::new(factory, config);
        sim.attach_observer(Box::new(stats.clone()));
        (sim, stats)
    }

    #[test]
    fn counts_agree_with_the_transcript() {
        let (mut sim, stats) = metered(&DvvMvrStore, StoreConfig::new(2, 1));
        {
            let s = stats.borrow();
            assert_eq!((s.do_events(), s.sends(), s.receives()), (0, 0, 0));
            assert_eq!(s.message_bits().sum(), 0);
            assert_eq!(s.message_bits().mean(), 0.0);
            assert_eq!(s.bits_per_update(), 0.0);
        }
        sim.do_op(
            ReplicaId::new(0),
            ObjectId::new(0),
            Op::Write(Value::new(1)),
        );
        sim.flush(ReplicaId::new(0));
        sim.deliver_all();
        sim.read(ReplicaId::new(1), ObjectId::new(0));
        let s = stats.borrow();
        let ex = sim.execution();
        let count = |f: fn(&EventKind) -> bool| ex.events().iter().filter(|e| f(&e.kind)).count();
        assert_eq!(
            s.do_events() as usize,
            count(|k| matches!(k, EventKind::Do { .. }))
        );
        assert_eq!(
            s.sends() as usize,
            count(|k| matches!(k, EventKind::Send { .. }))
        );
        assert_eq!(
            s.receives() as usize,
            count(|k| matches!(k, EventKind::Receive { .. }))
        );
        assert_eq!((s.do_events(), s.updates(), s.reads()), (2, 1, 1));
        assert_eq!((s.sends(), s.receives()), (1, 1));
        let bits = ex.message(MsgId::new(0)).payload.bits() as u64;
        assert!(bits > 0);
        assert_eq!(s.message_bits().sum(), u128::from(bits));
        assert_eq!(s.message_bits().max(), Some(bits));
        assert_eq!(s.bits_per_update(), bits as f64);
        // The last sample is the final state: an empty version vector
        // still occupies a few canonical bits.
        assert!(s.peak_state_bits() >= sim.total_state_bits());
        assert!(sim.total_state_bits() > 0);
    }

    #[test]
    fn peak_state_bits_sees_transient_growth() {
        let (mut sim, stats) = metered(&DvvMvrStore, StoreConfig::new(2, 1));
        // Grow the outbox without flushing, then drain it: the peak must
        // remember the pre-flush high-water mark.
        for i in 0..10 {
            sim.do_op(
                ReplicaId::new(0),
                ObjectId::new(0),
                Op::Write(Value::new(i)),
            );
        }
        let before_flush = sim.total_state_bits();
        sim.flush(ReplicaId::new(0));
        sim.deliver_all();
        assert!(stats.borrow().peak_state_bits() >= before_flush);
        assert!(stats.borrow().peak_state_bits() >= sim.total_state_bits());
    }

    #[test]
    fn cops_cheaper_per_update_than_dvv_on_batchy_workloads() {
        // Low flush weight → big batches → dependency compression pays.
        let sched = ScheduleConfig {
            steps: 300,
            op_weight: 8,
            flush_weight: 1,
            deliver_weight: 4,
            drop_prob: 0.0,
            ..ScheduleConfig::default()
        };
        let run = |factory: &dyn StoreFactory| {
            let (mut sim, stats) = metered(factory, StoreConfig::new(4, 2));
            let mut wl = Workload::new(SpecKind::Mvr, 4, 2, 0.2, KeyDistribution::Uniform);
            run_schedule(&mut sim, &mut wl, &sched, 5);
            let stats = stats.borrow();
            stats.bits_per_update()
        };
        let dvv = run(&DvvMvrStore);
        let cops = run(&CopsStore);
        assert!(
            cops < dvv,
            "compression should pay on batches: cops {cops:.1} vs dvv {dvv:.1}"
        );
    }

    #[test]
    fn counters_track_each_hook() {
        let mut s = StatsObserver::new();
        let rval = ReturnValue::Ok;
        s.on_do(&DoEvent {
            step: 0,
            replica: ReplicaId::new(0),
            obj: ObjectId::new(0),
            op: &Op::Write(Value::new(1)),
            rval: &rval,
            dot: None,
            visible: &[],
        });
        s.on_do(&DoEvent {
            step: 1,
            replica: ReplicaId::new(1),
            obj: ObjectId::new(0),
            op: &Op::Read,
            rval: &rval,
            dot: None,
            visible: &[],
        });
        s.on_send(&SendEvent {
            step: 2,
            replica: ReplicaId::new(0),
            msg: MsgId::new(0),
            bits: 40,
        });
        s.on_receive(&ReceiveEvent {
            step: 5,
            replica: ReplicaId::new(1),
            msg: MsgId::new(0),
            bits: 40,
            send_step: 2,
        });
        s.on_drop(&FaultEvent {
            step: 5,
            msg: MsgId::new(0),
            to: ReplicaId::new(2),
        });
        s.on_duplicate(&FaultEvent {
            step: 5,
            msg: MsgId::new(0),
            to: ReplicaId::new(2),
        });
        s.on_partition_change(6, true);
        s.on_quiesce(3, true);
        s.on_state_sample(7, 120);
        s.on_state_sample(8, 80);
        s.on_search_node(&[], 9);
        s.on_shrink_step(4);
        s.on_dedup_lookup(true);
        s.on_dedup_lookup(true);
        s.on_dedup_lookup(false);

        assert_eq!(s.do_events(), 2);
        assert_eq!(s.updates(), 1);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.sends(), 1);
        assert_eq!(s.receives(), 1);
        assert_eq!(s.drops(), 1);
        assert_eq!(s.duplicates(), 1);
        assert_eq!(s.partition_changes(), 1);
        assert_eq!(s.quiesce_calls(), 1);
        assert_eq!(s.quiesce_rounds(), 3);
        assert_eq!(s.message_bits().count(), 1);
        assert_eq!(s.message_bits().max(), Some(40));
        assert_eq!(s.delivery_latency().max(), Some(3));
        assert_eq!(s.peak_state_bits(), 120);
        assert_eq!(s.search_nodes(), 1);
        assert_eq!(s.max_frontier(), 9);
        assert_eq!(s.shrink_steps(), 1);
        assert_eq!(s.dedup_hits(), 2);
        assert_eq!(s.dedup_misses(), 1);
        assert!((s.dedup_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn join_equals_one_collector_over_the_whole_stream() {
        // Split an event stream across two forked children; the joined
        // parent must match a single collector that saw everything.
        let send = |step: usize, bits: usize| SendEvent {
            step,
            replica: ReplicaId::new(0),
            msg: MsgId::new(0),
            bits,
        };
        let mut whole = StatsObserver::new();
        let mut parent = StatsObserver::new();
        let mut a = parent.fork();
        let mut b = parent.fork();
        for (obs, half) in [(&mut a, 0..3), (&mut b, 3..7)] {
            for i in half {
                obs.on_send(&send(i, 8 * (i + 1)));
                obs.on_search_node(&[], 10 - i);
                obs.on_state_sample(i, 100 * i);
                obs.on_dedup_lookup(i % 2 == 0);
            }
        }
        for i in 0..7 {
            whole.on_send(&send(i, 8 * (i + 1)));
            whole.on_search_node(&[], 10 - i);
            whole.on_state_sample(i, 100 * i);
            whole.on_dedup_lookup(i % 2 == 0);
        }
        a.on_family_member("cwp", 3, true);
        a.on_family_member("cwp", 4, false);
        b.on_family_member("cwp", 5, true);
        b.on_family_member("hbq", 10, true);
        for (fam, len, passed) in [
            ("cwp", 3, true),
            ("cwp", 4, false),
            ("cwp", 5, true),
            ("hbq", 10, true),
        ] {
            whole.on_family_member(fam, len, passed);
        }
        parent.join(a);
        parent.join(b);
        assert_eq!(parent.sends(), whole.sends());
        assert_eq!(parent.families(), whole.families());
        let cwp = parent.families().get("cwp").unwrap();
        assert_eq!((cwp.members, cwp.failures, cwp.pattern_total), (3, 1, 12));
        assert_eq!(parent.message_bits(), whole.message_bits());
        assert_eq!(parent.search_nodes(), whole.search_nodes());
        assert_eq!(parent.max_frontier(), whole.max_frontier());
        assert_eq!(parent.peak_state_bits(), whole.peak_state_bits());
        assert_eq!(parent.dedup_hits(), whole.dedup_hits());
        assert_eq!(parent.dedup_misses(), whole.dedup_misses());
    }
}
