//! Event counters and network-cost histograms.

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

    /// Largest total encoded replica state (bits) seen in any sample.
    pub fn peak_state_bits(&self) -> usize {
        self.peak_state_bits
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
    use haec_model::{MsgId, ObjectId, Op, ReplicaId, ReturnValue, Value};

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
