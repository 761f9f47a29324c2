//! Random scheduling of cluster events, with fault injection and
//! partitions.
//!
//! The scheduler draws from the full behaviour space the model permits:
//! client operations, flushes (broadcasts), deliveries in arbitrary order,
//! message drops and duplicates, and temporary network partitions. The
//! paper's *sufficient connectivity* assumption (Definition 3) corresponds
//! to partitions always healing: a schedule ends with the partition lifted,
//! and `quiesce` at the end realizes eventual transmission + delivery.

use crate::simulator::Simulator;
use crate::workload::Workload;
use haec_testkit::Rng;

/// A temporary network partition: while active, copies crossing between the
/// two groups cannot be delivered (they stay in flight — the network delays
/// rather than loses them).
#[derive(Clone, Debug)]
pub struct Partition {
    /// Step at which the partition starts.
    pub from_step: usize,
    /// Step at which it heals.
    pub to_step: usize,
    /// Replicas in the first group (all others form the second).
    pub group: Vec<usize>,
}

impl Partition {
    fn active(&self, step: usize) -> bool {
        (self.from_step..self.to_step).contains(&step)
    }

    fn separates(&self, a: usize, b: usize) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct ScheduleConfig {
    /// Number of scheduling steps.
    pub steps: usize,
    /// Relative weight of client operations per step.
    pub op_weight: u32,
    /// Relative weight of flush (broadcast) actions.
    pub flush_weight: u32,
    /// Relative weight of delivery actions.
    pub deliver_weight: u32,
    /// Probability of dropping instead of delivering.
    pub drop_prob: f64,
    /// Probability of duplicating a copy before delivering it.
    pub dup_prob: f64,
    /// Optional partition.
    pub partition: Option<Partition>,
    /// Quiesce the cluster after the last step (sufficient connectivity).
    pub quiesce_at_end: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            steps: 200,
            op_weight: 4,
            flush_weight: 3,
            deliver_weight: 5,
            drop_prob: 0.05,
            dup_prob: 0.05,
            partition: None,
            quiesce_at_end: true,
        }
    }
}

/// Runs a random schedule of `workload` operations against `sim`.
///
/// Deterministic in `(seed, config, workload)`: the same inputs produce the
/// same execution transcript.
pub fn run_schedule(
    sim: &mut Simulator,
    workload: &mut Workload,
    config: &ScheduleConfig,
    seed: u64,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let total = config.op_weight + config.flush_weight + config.deliver_weight;
    assert!(total > 0, "at least one action must have weight");
    let mut partition_active = false;
    for step in 0..config.steps {
        // Announce partition transitions so faults are part of the record.
        if let Some(p) = &config.partition {
            let active = p.active(step);
            if active != partition_active {
                if active {
                    sim.note_partition_start(&p.group);
                } else {
                    sim.note_partition_heal();
                }
                partition_active = active;
            }
        }
        let roll = rng.gen_range(0..total);
        if roll < config.op_weight {
            let (replica, obj, op) = workload.next_op(&mut rng);
            sim.do_op(replica, obj, op);
        } else if roll < config.op_weight + config.flush_weight {
            let r = workload.sample_replica(&mut rng);
            sim.flush(r);
        } else if !sim.inflight().is_empty() {
            // Choose a deliverable copy, honouring the partition.
            let candidates: Vec<usize> = (0..sim.inflight().len())
                .filter(|&i| {
                    let f = sim.inflight()[i];
                    let sender = sim.execution().message(f.msg).sender;
                    match &config.partition {
                        Some(p) if p.active(step) => !p.separates(sender.index(), f.to.index()),
                        _ => true,
                    }
                })
                .collect();
            if candidates.is_empty() {
                continue;
            }
            // Mostly FIFO: the oldest deliverable copy, or with an even
            // chance a random one (reordering).
            let i = if rng.gen_bool(0.5) {
                candidates[rng.gen_range(0..candidates.len())]
            } else {
                candidates[0]
            };
            if rng.gen_bool(config.drop_prob) {
                sim.drop_inflight(i);
            } else {
                if rng.gen_bool(config.dup_prob) {
                    sim.duplicate_inflight(i);
                }
                sim.deliver(i);
            }
        }
    }
    // The schedule is over: a partition still active at the end heals now
    // (sufficient connectivity — partitions delay, they do not last).
    if partition_active {
        sim.note_partition_heal();
    }
    if config.quiesce_at_end {
        sim.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::KeyDistribution;
    use haec_core::SpecKind;
    use haec_model::{ObjectId, ReplicaId, StoreConfig};
    use haec_stores::DvvMvrStore;

    fn setup(steps: usize, partition: Option<Partition>) -> (Simulator, Workload, ScheduleConfig) {
        let sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 2));
        let wl = Workload::new(SpecKind::Mvr, 3, 2, 0.4, KeyDistribution::Uniform);
        let cfg = ScheduleConfig {
            steps,
            partition,
            ..ScheduleConfig::default()
        };
        (sim, wl, cfg)
    }

    #[test]
    fn schedule_is_deterministic() {
        let (mut s1, mut w1, cfg) = setup(150, None);
        let (mut s2, mut w2, _) = setup(150, None);
        run_schedule(&mut s1, &mut w1, &cfg, 42);
        run_schedule(&mut s2, &mut w2, &cfg, 42);
        assert_eq!(s1.execution().events(), s2.execution().events());
    }

    #[test]
    fn different_seeds_differ() {
        let (mut s1, mut w1, cfg) = setup(150, None);
        let (mut s2, mut w2, _) = setup(150, None);
        run_schedule(&mut s1, &mut w1, &cfg, 1);
        run_schedule(&mut s2, &mut w2, &cfg, 2);
        assert_ne!(s1.execution().events(), s2.execution().events());
    }

    #[test]
    fn executions_stay_well_formed() {
        for seed in 0..5 {
            let (mut sim, mut wl, cfg) = setup(300, None);
            run_schedule(&mut sim, &mut wl, &cfg, seed);
            assert!(sim.execution().validate().is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn partition_blocks_cross_group_delivery() {
        let partition = Partition {
            from_step: 0,
            to_step: 200,
            group: vec![0],
        };
        let (mut sim, mut wl, mut cfg) = setup(200, Some(partition));
        cfg.quiesce_at_end = false;
        cfg.drop_prob = 0.0;
        run_schedule(&mut sim, &mut wl, &cfg, 7);
        // No receive event may cross the partition during the run.
        for (i, e) in sim.execution().events().iter().enumerate() {
            if let haec_model::EventKind::Receive { msg } = &e.kind {
                let sender = sim.execution().message(*msg).sender;
                let cross = (sender.index() == 0) != (e.replica.index() == 0);
                assert!(!cross, "event {i} crossed the partition");
            }
        }
    }

    #[test]
    fn quiesce_after_partition_converges() {
        let partition = Partition {
            from_step: 0,
            to_step: 150,
            group: vec![0],
        };
        let (mut sim, mut wl, mut cfg) = setup(150, Some(partition));
        cfg.drop_prob = 0.0; // delays only, per Definition 3
        run_schedule(&mut sim, &mut wl, &cfg, 11);
        // After healing + quiescing, replicas agree on every object.
        for obj in 0..2 {
            let vals: Vec<_> = (0..3)
                .map(|r| sim.read(ReplicaId::new(r), ObjectId::new(obj)))
                .collect();
            assert_eq!(vals[0], vals[1]);
            assert_eq!(vals[1], vals[2]);
        }
    }
}
