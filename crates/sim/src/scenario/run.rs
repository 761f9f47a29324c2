//! Driving a scenario member against a live simulator.

use super::Pat;
use crate::exhaustive::uniquify;
use crate::simulator::Simulator;
use haec_model::ReplicaId;

/// Runs one hole-free member against `sim`, one pattern per step.
///
/// Semantics:
///
/// - `Op` patterns uniquify their payload by step position through the
///   exhaustive engine's own `uniquify` (writes get `Value(1000 + step)`,
///   set elements cycle through a pool of three), so family members and
///   exhaustive schedules that perform the same steps produce identical
///   executions.
/// - `DeliverOldest`/`DeliverNewest` deliver the first/last in-flight
///   copy whose sender→addressee edge does not cross the active
///   partition window; drops and duplications always target the oldest
///   copy. All four are no-ops when nothing qualifies, so filters — not
///   runtime panics — decide which members are meaningful.
/// - Partition windows are tracked here (the simulator only records
///   them): `PartitionStart` heals any open window first, and `Quiesce`
///   heals before driving rounds — quiescence assumes Definition 3's
///   sufficient connectivity, which an open window would violate.
///
/// # Panics
///
/// Panics on an unplugged [`Pat::Hole`].
pub fn run_member(sim: &mut Simulator, member: &[Pat]) {
    let mut active: Option<Vec<u32>> = None;
    for (step, pat) in member.iter().enumerate() {
        match pat {
            Pat::Hole(name) => panic!("run_member: unplugged hole `?{name}` at step {step}"),
            Pat::Op(replica, obj, op) => {
                sim.do_op(*replica, *obj, uniquify(op, step));
            }
            Pat::Flush(replica) => {
                sim.flush(*replica);
            }
            Pat::DeliverOldest => {
                if let Some(i) = deliverable(sim, active.as_deref(), false) {
                    sim.deliver(i);
                }
            }
            Pat::DeliverNewest => {
                if let Some(i) = deliverable(sim, active.as_deref(), true) {
                    sim.deliver(i);
                }
            }
            Pat::DropOldest => {
                if !sim.inflight().is_empty() {
                    sim.drop_inflight(0);
                }
            }
            Pat::DupOldest => {
                if !sim.inflight().is_empty() {
                    sim.duplicate_inflight(0);
                }
            }
            Pat::PartitionStart(group) => {
                if active.take().is_some() {
                    sim.note_partition_heal();
                }
                let indices: Vec<usize> = group.iter().map(|&g| g as usize).collect();
                sim.note_partition_start(&indices);
                active = Some(group.clone());
            }
            Pat::PartitionHeal => {
                if active.take().is_some() {
                    sim.note_partition_heal();
                }
            }
            Pat::Quiesce => {
                if active.take().is_some() {
                    sim.note_partition_heal();
                }
                sim.quiesce();
            }
        }
    }
}

/// Index of the oldest (or newest) in-flight copy deliverable under the
/// active partition window: the sender and the addressee must be on the
/// same side.
fn deliverable(sim: &Simulator, active: Option<&[u32]>, newest: bool) -> Option<usize> {
    let ok = |i: usize| {
        let copy = sim.inflight()[i];
        let Some(group) = active else { return true };
        let sender = sim.execution().message(copy.msg).sender;
        let side = |r: ReplicaId| group.contains(&(r.index() as u32));
        side(sender) == side(copy.to)
    };
    let n = sim.inflight().len();
    if newest {
        (0..n).rev().find(|&i| ok(i))
    } else {
        (0..n).find(|&i| ok(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{ObjectId, Op, StoreConfig, Value};
    use haec_stores::DvvMvrStore;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn x() -> ObjectId {
        ObjectId::new(0)
    }

    fn w(i: u32) -> Pat {
        Pat::Op(r(i), x(), Op::Write(Value::new(0)))
    }

    #[test]
    fn ops_flush_deliver_converge() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 1));
        run_member(
            &mut sim,
            &[
                w(0),
                Pat::Flush(r(0)),
                Pat::DeliverOldest,
                Pat::DeliverOldest,
            ],
        );
        // The uniquified write v1000 reached both peers.
        let expected = sim.read(r(0), x());
        assert_eq!(sim.read(r(1), x()), expected);
        assert_eq!(sim.read(r(2), x()), expected);
        assert!(sim.inflight().is_empty());
    }

    #[test]
    fn write_uniquification_matches_the_exhaustive_engine() {
        use crate::exhaustive::{replay, Action, ExhaustiveConfig};
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(2, 1),
            ..ExhaustiveConfig::default()
        };
        let via_actions = replay(
            &DvvMvrStore,
            &config,
            &[
                Action::Do(r(0), x(), Op::Write(Value::new(0))),
                Action::Flush(r(0)),
                Action::Deliver(0),
            ],
        );
        let mut via_member = Simulator::new(&DvvMvrStore, StoreConfig::new(2, 1));
        run_member(
            &mut via_member,
            &[w(0), Pat::Flush(r(0)), Pat::DeliverOldest],
        );
        assert_eq!(
            crate::trace::to_text(via_actions.execution()),
            crate::trace::to_text(via_member.execution())
        );
    }

    #[test]
    fn partition_blocks_delivery_until_heal() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 1));
        // Replica 2 is isolated; the copy addressed to it must not move.
        run_member(
            &mut sim,
            &[
                Pat::PartitionStart(vec![2]),
                w(0),
                Pat::Flush(r(0)),
                Pat::DeliverOldest, // → replica 1 (copy to 2 is blocked)
                Pat::DeliverOldest, // no deliverable copy left: no-op
            ],
        );
        assert_eq!(sim.inflight().len(), 1);
        assert_eq!(sim.inflight()[0].to, r(2));
        run_member(&mut sim, &[Pat::PartitionHeal, Pat::DeliverOldest]);
        assert!(sim.inflight().is_empty());
    }

    #[test]
    fn deliver_newest_skips_blocked_copies() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 1));
        run_member(
            &mut sim,
            &[
                w(0),
                Pat::Flush(r(0)), // copies to 1 and 2, in that order
                Pat::PartitionStart(vec![2]),
                Pat::DeliverNewest, // newest deliverable is the copy to 1
            ],
        );
        assert_eq!(sim.inflight().len(), 1);
        assert_eq!(sim.inflight()[0].to, r(2));
    }

    #[test]
    fn faults_target_the_oldest_copy() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 1));
        run_member(&mut sim, &[w(0), Pat::Flush(r(0)), Pat::DupOldest]);
        assert_eq!(sim.inflight().len(), 3);
        run_member(&mut sim, &[Pat::DropOldest]);
        assert_eq!(sim.inflight().len(), 2);
        // Fault patterns on an empty network are no-ops.
        let mut idle = Simulator::new(&DvvMvrStore, StoreConfig::new(2, 1));
        run_member(
            &mut idle,
            &[Pat::DropOldest, Pat::DupOldest, Pat::DeliverOldest],
        );
        assert!(idle.inflight().is_empty());
    }

    #[test]
    fn quiesce_heals_and_converges() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 1));
        run_member(
            &mut sim,
            &[
                Pat::PartitionStart(vec![0]),
                w(0),
                Pat::Flush(r(0)),
                Pat::Quiesce,
            ],
        );
        assert!(sim.inflight().is_empty());
        let expected = sim.read(r(0), x());
        assert_eq!(sim.read(r(1), x()), expected);
        assert_eq!(sim.read(r(2), x()), expected);
    }

    #[test]
    #[should_panic(expected = "unplugged hole")]
    fn unplugged_hole_panics() {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(2, 1));
        run_member(&mut sim, &[Pat::Hole("a".into())]);
    }
}
