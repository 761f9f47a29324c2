//! The deterministic replica-cluster simulator.
//!
//! A [`Simulator`] owns one [`ReplicaMachine`] per replica, the multiset of
//! in-flight message copies, and a faithful [`Execution`] record of every
//! `do`/`send`/`receive` event. All network behaviours the model permits —
//! dropping, duplicating, reordering, selective delivery — are explicit
//! simulator operations, so an execution is an exact transcript of the
//! scheduler's choices.

use crate::obs::{DoEvent, FaultEvent, Observer, Observers, ReceiveEvent, SendEvent};
use haec_core::witness::{abstract_from_witness_ordered, DoWitness, WitnessError, WitnessLog};
use haec_core::AbstractExecution;
use haec_model::{
    Dot, Execution, MsgId, ObjectId, Op, ReplicaId, ReplicaMachine, ReturnValue, StoreConfig,
    StoreFactory,
};

/// One deliverable copy of a broadcast message.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InFlight {
    /// The message.
    pub msg: MsgId,
    /// The replica this copy is addressed to.
    pub to: ReplicaId,
}

/// A network fault or partition transition, positioned by the number of
/// execution events recorded before it happened. Faults are invisible in
/// the [`Execution`] itself (a dropped copy simply never produces a
/// `receive`), so the simulator records them on the side — this is what
/// lets [`trace`](crate::trace) round-trip full schedules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// Number of execution events recorded before the fault.
    pub at_event: usize,
    /// What happened.
    pub kind: FaultKind,
}

/// The kinds of recorded faults.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The in-flight copy of `msg` addressed to `to` was dropped.
    Drop {
        /// The message.
        msg: MsgId,
        /// The addressee of the dropped copy.
        to: ReplicaId,
    },
    /// The in-flight copy of `msg` addressed to `to` was duplicated.
    Duplicate {
        /// The message.
        msg: MsgId,
        /// The addressee of the duplicated copy.
        to: ReplicaId,
    },
    /// A partition separating `group` from the other replicas activated.
    PartitionStart {
        /// Replicas in the first group.
        group: Vec<usize>,
    },
    /// The active partition healed.
    PartitionHeal,
}

/// A saved copy of the complete dynamic state of a [`Simulator`]:
/// replica machines, execution transcript, witnesses and the abstract
/// execution kept from them, in-flight copies, dot counters, and the fault
/// record. Static parts (store configuration, name) and attached observers
/// are *not* captured — restoring rewinds the run, not the
/// instrumentation.
///
/// Created by [`Simulator::snapshot`]; applied by [`Simulator::restore`].
/// A snapshot can be restored any number of times.
pub struct SimSnapshot {
    machines: Vec<Box<dyn ReplicaMachine>>,
    execution: Execution,
    witnesses: Vec<DoWitness>,
    log: WitnessLog,
    timestamps: Vec<Option<u64>>,
    inflight: Vec<InFlight>,
    update_seq: Vec<u32>,
    faults: Vec<FaultRecord>,
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("events", &self.execution.len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

/// Undo record for a *single* simulator transition that touches one
/// replica's machine, captured by [`Simulator::begin_step`] and applied by
/// [`Simulator::undo_step`]. Strictly cheaper than a [`SimSnapshot`]: only
/// the affected machine is cloned up front, undoing moves it back into
/// place without cloning at all, and the append-only transcript — events,
/// messages, witnesses with the [`WitnessLog`] column each one added,
/// timestamps, faults — is recorded by length alone and rewound by
/// truncation. The in-flight list is copied only when the caller declares
/// the transition may mutate it. The contract is narrower than a
/// snapshot's: an undo applies only to the state reached by *advancing*
/// the same simulator by that one transition.
pub struct StepUndo {
    replica: ReplicaId,
    machine: Box<dyn ReplicaMachine>,
    update_seq: u32,
    inflight: Option<Vec<InFlight>>,
    events_len: usize,
    messages_len: usize,
    witnesses_len: usize,
    faults_len: usize,
}

impl std::fmt::Debug for StepUndo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepUndo")
            .field("replica", &self.replica)
            .field("events", &self.events_len)
            .finish()
    }
}

/// A cluster of replicas under simulation.
pub struct Simulator {
    config: StoreConfig,
    store_name: String,
    machines: Vec<Box<dyn ReplicaMachine>>,
    execution: Execution,
    witnesses: Vec<DoWitness>,
    /// The candidate abstract execution of the transcript so far: one
    /// column per witness, pushed by `do_op` and dropped by `undo_step`.
    log: WitnessLog,
    /// Arbitration timestamps reported by the store, per do event.
    timestamps: Vec<Option<u64>>,
    inflight: Vec<InFlight>,
    /// 1-based update counts per replica, for assigning dots to updates.
    update_seq: Vec<u32>,
    faults: Vec<FaultRecord>,
    obs: Observers,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("store", &self.store_name)
            .field("config", &self.config)
            .field("events", &self.execution.len())
            .field("inflight", &self.inflight.len())
            .field("faults", &self.faults.len())
            .field("observers", &self.obs.len())
            .finish()
    }
}

impl Simulator {
    /// Spawns a fresh cluster of `config.n_replicas` replicas of the store.
    pub fn new(factory: &dyn StoreFactory, config: StoreConfig) -> Self {
        let machines = (0..config.n_replicas)
            .map(|i| factory.spawn(ReplicaId::new(i as u32), config))
            .collect();
        Simulator {
            config,
            store_name: factory.name().to_owned(),
            machines,
            execution: Execution::new(config.n_replicas),
            witnesses: Vec::new(),
            log: WitnessLog::new(config.n_replicas),
            timestamps: Vec::new(),
            inflight: Vec::new(),
            update_seq: vec![0; config.n_replicas],
            faults: Vec::new(),
            obs: Observers::new(),
        }
    }

    /// Spawns a cluster and immediately rewinds it to `snap`. This is the
    /// clone-into-thread path used by the parallel explorer: a
    /// [`SimSnapshot`] is `Send` (machines are plain data behind
    /// [`ReplicaMachine::boxed_clone`]), so a worker can rebuild the shared
    /// prefix state locally without the originating [`Simulator`] — which
    /// owns non-`Send` observers — ever crossing a thread boundary.
    ///
    /// The snapshot must come from a simulator with the same store and
    /// configuration, as with [`restore`](Self::restore).
    pub fn from_snapshot(
        factory: &dyn StoreFactory,
        config: StoreConfig,
        snap: &SimSnapshot,
    ) -> Self {
        let mut sim = Simulator::new(factory, config);
        sim.restore(snap);
        sim
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Captures the complete dynamic state of the cluster: every replica
    /// machine (via [`ReplicaMachine::boxed_clone`]), the execution
    /// transcript, the visibility witnesses with their [`WitnessLog`] and
    /// the arbitration timestamps, the in-flight message copies, the
    /// per-replica dot counters, and the fault record. Observers are not
    /// captured.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            machines: self.machines.iter().map(|m| m.boxed_clone()).collect(),
            execution: self.execution.clone(),
            witnesses: self.witnesses.clone(),
            log: self.log.clone(),
            timestamps: self.timestamps.clone(),
            inflight: self.inflight.clone(),
            update_seq: self.update_seq.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Rewinds the cluster to a previously captured [`SimSnapshot`]. The
    /// snapshot is not consumed and can be restored again. Attached
    /// observers keep accumulating across restores (they witness the
    /// *search*, not a single linear run).
    ///
    /// The snapshot must come from this simulator (or one with the same
    /// store and configuration); restoring a foreign snapshot would splice
    /// unrelated state.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.machines = snap.machines.iter().map(|m| m.boxed_clone()).collect();
        self.execution = snap.execution.clone();
        self.witnesses = snap.witnesses.clone();
        self.log = snap.log.clone();
        self.timestamps = snap.timestamps.clone();
        self.inflight = snap.inflight.clone();
        self.update_seq = snap.update_seq.clone();
        self.faults = snap.faults.clone();
    }

    /// Captures undo information for one upcoming transition that will
    /// touch only `replica`'s machine: a client operation there, a flush of
    /// its pending message, or a delivery addressed to it. Cheaper than
    /// [`snapshot`](Self::snapshot): only the one affected machine is
    /// cloned, and [`undo_step`](Self::undo_step) *moves* it back without
    /// cloning again. `save_inflight` must be `true` when the transition
    /// may alter the in-flight list (flush, deliver, faults).
    pub fn begin_step(&self, replica: ReplicaId, save_inflight: bool) -> StepUndo {
        debug_assert_eq!(self.witnesses.len(), self.timestamps.len());
        StepUndo {
            replica,
            machine: self.machines[replica.index()].boxed_clone(),
            update_seq: self.update_seq[replica.index()],
            inflight: if save_inflight {
                Some(self.inflight.clone())
            } else {
                None
            },
            events_len: self.execution.len(),
            messages_len: self.execution.messages().len(),
            witnesses_len: self.witnesses.len(),
            faults_len: self.faults.len(),
        }
    }

    /// Reverts the single transition recorded by
    /// [`begin_step`](Self::begin_step), consuming the undo record. The
    /// transition must have touched only the recorded replica's machine
    /// (and, if `save_inflight` was set, the in-flight list).
    ///
    /// # Panics
    ///
    /// Panics if the transcript is shorter than when the undo was captured.
    pub fn undo_step(&mut self, undo: StepUndo) {
        let r = undo.replica.index();
        self.machines[r] = undo.machine;
        self.update_seq[r] = undo.update_seq;
        if let Some(inflight) = undo.inflight {
            self.inflight = inflight;
        }
        self.execution.truncate(undo.events_len, undo.messages_len);
        self.witnesses.truncate(undo.witnesses_len);
        self.log.truncate(undo.witnesses_len);
        self.timestamps.truncate(undo.witnesses_len);
        self.faults.truncate(undo.faults_len);
    }

    /// The store's name.
    pub fn store_name(&self) -> &str {
        &self.store_name
    }

    /// Attaches an [`Observer`] that will be notified of every subsequent
    /// simulator event. Observers are passive: they cannot influence the
    /// run, and the recorded execution is identical with or without them.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.obs.attach(observer);
    }

    /// The total encoded state size across all replicas, in bits.
    pub fn total_state_bits(&self) -> usize {
        self.machines.iter().map(|m| m.state_bits()).sum()
    }

    /// The recorded network faults and partition transitions, in order.
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// Reports the total state size to the attached observers after a
    /// mutating event. With none attached nobody reads it, so the machines
    /// are not asked.
    fn sample_state(&mut self) {
        if !self.obs.is_empty() {
            let bits = self.total_state_bits();
            self.obs.on_state_sample(self.execution.len(), bits);
        }
    }

    /// Invokes a client operation at `replica`; returns the event index and
    /// the response.
    pub fn do_op(&mut self, replica: ReplicaId, obj: ObjectId, op: Op) -> (usize, ReturnValue) {
        let dot = op.is_update().then(|| {
            self.update_seq[replica.index()] += 1;
            Dot::new(replica, self.update_seq[replica.index()])
        });
        let outcome = self.machines[replica.index()].do_op(obj, &op);
        let ix = self
            .execution
            .push_do(replica, obj, op, outcome.rval.clone());
        let witness = DoWitness {
            event: ix,
            visible: outcome.visible,
        };
        self.log.push(&self.execution, &witness);
        self.witnesses.push(witness);
        self.timestamps.push(outcome.timestamp);
        if !self.obs.is_empty() {
            let (eobj, op, rval) = self.execution.event(ix).as_do().expect("do event");
            self.obs.on_do(&DoEvent {
                step: ix,
                replica,
                obj: eobj,
                op,
                rval,
                dot,
                visible: &self.witnesses[self.witnesses.len() - 1].visible,
            });
        }
        self.sample_state();
        (ix, outcome.rval)
    }

    /// Convenience: a read at `replica`.
    pub fn read(&mut self, replica: ReplicaId, obj: ObjectId) -> ReturnValue {
        self.do_op(replica, obj, Op::Read).1
    }

    /// If `replica` has a message pending, records the `send` event and
    /// enqueues one in-flight copy per other replica. Returns the message
    /// id, or `None` if nothing was pending.
    pub fn flush(&mut self, replica: ReplicaId) -> Option<MsgId> {
        let payload = self.machines[replica.index()].pending_message()?;
        let bits = payload.bits();
        self.machines[replica.index()].on_send();
        let msg = self
            .execution
            .push_send(replica, payload)
            .expect("replica id is valid");
        for t in 0..self.config.n_replicas {
            if t != replica.index() {
                self.inflight.push(InFlight {
                    msg,
                    to: ReplicaId::new(t as u32),
                });
            }
        }
        if !self.obs.is_empty() {
            self.obs.on_send(&SendEvent {
                step: self.execution.message(msg).send_index,
                replica,
                msg,
                bits,
            });
        }
        self.sample_state();
        Some(msg)
    }

    /// The in-flight message copies, in enqueue order.
    pub fn inflight(&self) -> &[InFlight] {
        &self.inflight
    }

    /// Delivers the `i`-th in-flight copy; returns the receive event index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn deliver(&mut self, i: usize) -> usize {
        let InFlight { msg, to } = self.inflight.remove(i);
        self.machines[to.index()].on_receive(&self.execution.message(msg).payload);
        let ix = self
            .execution
            .push_receive(to, msg)
            .expect("in-flight copies are deliverable");
        if !self.obs.is_empty() {
            self.obs.on_receive(&ReceiveEvent {
                step: ix,
                replica: to,
                msg,
                bits: self.execution.message(msg).payload.bits(),
                send_step: self.execution.message(msg).send_index,
            });
        }
        self.sample_state();
        ix
    }

    /// Delivers the first in-flight copy addressed to `to` for message
    /// `msg`, if any; returns the receive event index.
    pub fn deliver_to(&mut self, msg: MsgId, to: ReplicaId) -> Option<usize> {
        let i = self
            .inflight
            .iter()
            .position(|f| f.msg == msg && f.to == to)?;
        Some(self.deliver(i))
    }

    /// Drops the `i`-th in-flight copy (it will never be delivered).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn drop_inflight(&mut self, i: usize) {
        let InFlight { msg, to } = self.inflight.remove(i);
        let at_event = self.execution.len();
        self.faults.push(FaultRecord {
            at_event,
            kind: FaultKind::Drop { msg, to },
        });
        if !self.obs.is_empty() {
            self.obs.on_drop(&FaultEvent {
                step: at_event,
                msg,
                to,
            });
        }
    }

    /// Duplicates the `i`-th in-flight copy.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn duplicate_inflight(&mut self, i: usize) {
        let copy = self.inflight[i];
        self.inflight.push(copy);
        let at_event = self.execution.len();
        self.faults.push(FaultRecord {
            at_event,
            kind: FaultKind::Duplicate {
                msg: copy.msg,
                to: copy.to,
            },
        });
        if !self.obs.is_empty() {
            self.obs.on_duplicate(&FaultEvent {
                step: at_event,
                msg: copy.msg,
                to: copy.to,
            });
        }
    }

    /// Records a partition activation (for the fault transcript) and
    /// notifies observers. The partition itself is enforced by the
    /// scheduler; the simulator only keeps the record.
    pub fn note_partition_start(&mut self, group: &[usize]) {
        self.faults.push(FaultRecord {
            at_event: self.execution.len(),
            kind: FaultKind::PartitionStart {
                group: group.to_vec(),
            },
        });
        if !self.obs.is_empty() {
            self.obs.on_partition_change(self.execution.len(), true);
        }
    }

    /// Records the active partition healing; see
    /// [`note_partition_start`](Self::note_partition_start).
    pub fn note_partition_heal(&mut self) {
        self.faults.push(FaultRecord {
            at_event: self.execution.len(),
            kind: FaultKind::PartitionHeal,
        });
        if !self.obs.is_empty() {
            self.obs.on_partition_change(self.execution.len(), false);
        }
    }

    /// Delivers everything currently in flight, in enqueue order.
    pub fn deliver_all(&mut self) {
        while !self.inflight.is_empty() {
            self.deliver(0);
        }
    }

    /// Drives the cluster to a *quiescent* execution (Definition 17): every
    /// pending message is flushed and every sent message is delivered to
    /// every other replica, repeating until no replica has a message pending
    /// and nothing is in flight.
    ///
    /// For op-driven stores one round suffices; stores that create pending
    /// messages on receive (e.g. the sequencer) need several. A round cap
    /// guards against stores that never quiesce.
    ///
    /// Returns `true` if quiescence was reached within the cap.
    pub fn quiesce(&mut self) -> bool {
        let mut rounds = 0;
        let mut reached = false;
        for _ in 0..64 {
            let mut progress = false;
            for r in 0..self.config.n_replicas {
                if self.flush(ReplicaId::new(r as u32)).is_some() {
                    progress = true;
                }
            }
            if !self.inflight.is_empty() {
                progress = true;
                self.deliver_all();
            }
            if !progress {
                reached = true;
                break;
            }
            rounds += 1;
        }
        if !reached {
            reached = (0..self.config.n_replicas)
                .all(|r| self.machines[r].pending_message().is_none())
                && self.inflight.is_empty();
        }
        if !self.obs.is_empty() {
            self.obs.on_quiesce(rounds, reached);
        }
        reached
    }

    /// The execution transcript so far.
    pub fn execution(&self) -> &Execution {
        &self.execution
    }

    /// The visibility witnesses reported by the store, one per `do` event.
    pub fn witnesses(&self) -> &[DoWitness] {
        &self.witnesses
    }

    /// Immutable access to a replica machine (for fingerprints, state
    /// size).
    pub fn machine(&self, replica: ReplicaId) -> &dyn ReplicaMachine {
        self.machines[replica.index()].as_ref()
    }

    /// The candidate abstract execution of the store's witnesses, with `H`
    /// in execution order: the value of
    /// [`abstract_from_witness`](haec_core::witness::abstract_from_witness)
    /// on the transcript so far, answered from the [`WitnessLog`] that
    /// grew and rewound with it — so a call pays for emitting and
    /// validating the relation, not for deriving it.
    ///
    /// # Errors
    ///
    /// Propagates witness resolution failures.
    pub fn abstract_execution(&self) -> Result<AbstractExecution, WitnessError> {
        self.log.build(&self.execution, &self.witnesses)
    }

    /// Builds the candidate abstract execution with `H` ordered by the
    /// store-reported arbitration timestamps (writes before reads on ties,
    /// execution order last) — the appropriate order for last-writer-wins
    /// stores, whose specification resolves conflicts by `H` order.
    ///
    /// Events without a timestamp sort by execution order among themselves
    /// at timestamp 0.
    ///
    /// # Errors
    ///
    /// Propagates witness resolution failures.
    pub fn abstract_execution_arbitrated(&self) -> Result<AbstractExecution, WitnessError> {
        let do_events = self.execution.do_events();
        // Sort key mirrors the LWW arbitration rule `(ts, origin)`: writes
        // with equal timestamps are ordered by replica id (the store's
        // tie-break), reads come after writes with the same timestamp, and
        // execution order breaks the remaining ties.
        let mut keyed: Vec<((u64, u8, usize, usize), usize)> = do_events
            .iter()
            .enumerate()
            .map(|(pos, &ix)| {
                let ts = self.timestamps[pos].unwrap_or(0);
                let (_, op, _) = self.execution.event(ix).as_do().expect("do event");
                let is_read = u8::from(op.is_read());
                (
                    (ts, is_read, self.execution.event(ix).replica.index(), ix),
                    ix,
                )
            })
            .collect();
        keyed.sort();
        let order: Vec<usize> = keyed.into_iter().map(|(_, ix)| ix).collect();
        abstract_from_witness_ordered(&self.execution, &self.witnesses, &order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::Value;
    use haec_stores::{DvvMvrStore, LwwStore};

    fn cfg() -> StoreConfig {
        StoreConfig::new(3, 2)
    }
    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }

    #[test]
    fn do_flush_deliver_roundtrip() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        let msg = sim.flush(r(0)).expect("pending after write");
        assert_eq!(sim.inflight().len(), 2);
        sim.deliver_to(msg, r(1)).expect("copy exists");
        assert_eq!(sim.read(r(1), x(0)), ReturnValue::values([v(1)]));
        assert_eq!(sim.read(r(2), x(0)), ReturnValue::empty());
    }

    #[test]
    fn flush_without_pending_is_none() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        assert!(sim.flush(r(0)).is_none());
    }

    #[test]
    fn quiesce_reaches_agreement() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.do_op(r(1), x(0), Op::Write(v(2)));
        sim.do_op(r(2), x(1), Op::Write(v(3)));
        assert!(sim.quiesce());
        let expect_x0 = ReturnValue::values([v(1), v(2)]);
        for i in 0..3 {
            assert_eq!(sim.read(r(i), x(0)), expect_x0);
            assert_eq!(sim.read(r(i), x(1)), ReturnValue::values([v(3)]));
        }
    }

    #[test]
    fn drop_and_duplicate() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.flush(r(0)).unwrap();
        sim.duplicate_inflight(0);
        assert_eq!(sim.inflight().len(), 3);
        sim.drop_inflight(0);
        assert_eq!(sim.inflight().len(), 2);
        sim.deliver_all();
        assert!(sim.execution().validate().is_ok());
    }

    #[test]
    fn execution_records_all_events() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.flush(r(0)).unwrap();
        sim.deliver_all();
        // 1 do + 1 send + 2 receives
        assert_eq!(sim.execution().len(), 4);
        assert_eq!(sim.witnesses().len(), 1);
    }

    #[test]
    fn abstract_execution_from_witnesses() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        let (w, _) = sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.flush(r(0)).unwrap();
        sim.deliver_all();
        let (rd, rv) = sim.do_op(r(1), x(0), Op::Read);
        assert_eq!(rv, ReturnValue::values([v(1)]));
        let a = sim.abstract_execution().unwrap();
        assert_eq!(a.len(), 2);
        // Both do events are in H; the write is visible to the read.
        let h_w = 0;
        let h_r = 1;
        assert!(a.sees(h_w, h_r));
        let _ = (w, rd);
    }

    #[test]
    fn arbitrated_order_respects_timestamps() {
        let mut sim = Simulator::new(&LwwStore, cfg());
        // Concurrent writes at ts 1; then r1's second write at ts 2.
        sim.do_op(r(0), x(0), Op::Write(v(10)));
        sim.do_op(r(1), x(0), Op::Write(v(20)));
        sim.do_op(r(1), x(0), Op::Write(v(30)));
        sim.quiesce();
        let rv = sim.read(r(2), x(0));
        assert_eq!(rv, ReturnValue::values([v(30)]));
        let a = sim.abstract_execution_arbitrated().unwrap();
        assert!(a.validate().is_ok());
        // H must order the ts-2 write after both ts-1 writes.
        let vals: Vec<_> = a
            .events()
            .iter()
            .filter_map(|e| match e.op {
                Op::Write(v) => Some(v.as_u64()),
                _ => None,
            })
            .collect();
        assert_eq!(*vals.last().unwrap(), 30);
    }

    #[test]
    fn snapshot_restore_rewinds_everything() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.flush(r(0)).unwrap();
        let snap = sim.snapshot();
        let fps: Vec<u64> = (0..3)
            .map(|i| sim.machine(r(i)).state_fingerprint())
            .collect();
        let events = sim.execution().events().to_vec();
        // Mutate: deliver, write, flush again.
        sim.deliver(0);
        sim.do_op(r(1), x(1), Op::Write(v(2)));
        sim.flush(r(1)).unwrap();
        assert_ne!(sim.execution().events().len(), events.len());
        sim.restore(&snap);
        let fps2: Vec<u64> = (0..3)
            .map(|i| sim.machine(r(i)).state_fingerprint())
            .collect();
        assert_eq!(fps, fps2);
        assert_eq!(sim.execution().events(), &events[..]);
        assert_eq!(sim.inflight().len(), 2);
        assert_eq!(sim.witnesses().len(), 1);
        // The snapshot survives a restore and can be applied again.
        sim.deliver_all();
        sim.restore(&snap);
        assert_eq!(sim.inflight().len(), 2);
        // The restored cluster behaves identically going forward.
        sim.deliver_to(MsgId::new(0), r(1)).expect("copy exists");
        assert_eq!(sim.read(r(1), x(0)), ReturnValue::values([v(1)]));
        assert_eq!(sim.read(r(2), x(0)), ReturnValue::empty());
    }

    /// Everything the explorer can observe about a cluster's state.
    fn observable(sim: &Simulator) -> (Vec<u64>, usize, usize, usize, usize) {
        (
            (0..sim.config().n_replicas)
                .map(|i| sim.machine(r(i as u32)).state_fingerprint())
                .collect(),
            sim.execution().len(),
            sim.execution().messages().len(),
            sim.inflight().len(),
            sim.witnesses().len(),
        )
    }

    #[test]
    fn begin_undo_step_reverts_each_action_kind() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        sim.flush(r(0)).unwrap();

        // A client op touches only its replica's machine.
        let before = observable(&sim);
        let undo = sim.begin_step(r(1), false);
        sim.do_op(r(1), x(1), Op::Write(v(2)));
        assert_ne!(observable(&sim), before);
        sim.undo_step(undo);
        assert_eq!(observable(&sim), before);

        // A delivery touches the addressee's machine and the in-flight list.
        let to = sim.inflight()[0].to;
        let undo = sim.begin_step(to, true);
        sim.deliver(0);
        assert_ne!(observable(&sim), before);
        sim.undo_step(undo);
        assert_eq!(observable(&sim), before);

        // A flush touches the sender's machine and the in-flight list.
        sim.do_op(r(2), x(0), Op::Write(v(3)));
        let before = observable(&sim);
        let undo = sim.begin_step(r(2), true);
        sim.flush(r(2)).unwrap();
        assert_ne!(observable(&sim), before);
        sim.undo_step(undo);
        assert_eq!(observable(&sim), before);

        // The undone cluster behaves identically going forward: replica 2's
        // pending message is still flushable and delivers the same write.
        sim.flush(r(2)).unwrap();
        sim.deliver_all();
        assert_eq!(sim.read(r(0), x(0)), ReturnValue::values([v(1), v(3)]));
    }

    /// `Simulator::abstract_execution` against its oracle, the batch
    /// builder on the identity order, along random walks over every store:
    /// client operations, flushes, deliveries, drops and duplicates, each
    /// one undoable, with undos to random depths and snapshot / restore in
    /// between. Equal after every step, every undo and every restore.
    #[test]
    fn witness_log_agrees_with_the_batch_builder() {
        use haec_testkit::prop::{self, u64s, usizes};
        use haec_testkit::{prop_assert_eq, Rng};

        let factories = haec_stores::all_factories();
        // (walk seed, store)
        let gen = (u64s(0..u64::MAX), usizes(0..factories.len()));
        prop::check(
            "witness_log_agrees_with_the_batch_builder",
            &gen,
            |&(seed, store)| {
                let factory = factories[store].as_ref();
                let mut rng = Rng::seed_from_u64(seed);
                let config = StoreConfig::new(rng.gen_range(2..6), rng.gen_range(1..4));
                let mut sim = Simulator::new(factory, config);
                let mut undos: Vec<StepUndo> = Vec::new();
                let mut snap = sim.snapshot();
                for step in 0..rng.gen_range(1..60u64) {
                    let replica = r(rng.gen_range(0..config.n_replicas as u32));
                    let copy = rng.gen_range(0..sim.inflight().len().max(1));
                    let to = sim.inflight().get(copy).map(|f| f.to);
                    match (rng.gen_range(0..12), to) {
                        (0, _) => {
                            for _ in 0..rng.gen_range(0..undos.len() + 1) {
                                sim.undo_step(undos.pop().unwrap());
                            }
                        }
                        (1, _) => snap = sim.snapshot(),
                        (2, _) => {
                            // Undo records describe the walk that led here,
                            // not the one that led to the snapshot.
                            sim.restore(&snap);
                            undos.clear();
                        }
                        (3, _) => {
                            undos.push(sim.begin_step(replica, true));
                            sim.flush(replica);
                        }
                        (4 | 5, Some(to)) => {
                            undos.push(sim.begin_step(to, true));
                            sim.deliver(copy);
                        }
                        (6, Some(to)) => {
                            undos.push(sim.begin_step(to, true));
                            sim.drop_inflight(copy);
                        }
                        (7, Some(to)) => {
                            undos.push(sim.begin_step(to, true));
                            sim.duplicate_inflight(copy);
                        }
                        (pick, _) => {
                            let op = match factory.name() {
                                _ if pick % 2 == 0 => Op::Read,
                                "orset" if step % 3 == 0 => Op::Remove(v(step % 4)),
                                "orset" => Op::Add(v(step % 4)),
                                "counter" => Op::Inc,
                                "ew-flag" if step % 2 == 0 => Op::Enable,
                                "ew-flag" => Op::Disable,
                                _ => Op::Write(v(step)),
                            };
                            let obj = x(rng.gen_range(0..config.n_objects as u32));
                            undos.push(sim.begin_step(replica, false));
                            sim.do_op(replica, obj, op);
                        }
                    }
                    let ex = sim.execution();
                    prop_assert_eq!(
                        sim.abstract_execution(),
                        abstract_from_witness_ordered(ex, sim.witnesses(), &ex.do_events()),
                        "{} after step {step}",
                        factory.name()
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn machine_access_for_fingerprints() {
        let mut sim = Simulator::new(&DvvMvrStore, cfg());
        let fp0 = sim.machine(r(0)).state_fingerprint();
        sim.do_op(r(0), x(0), Op::Write(v(1)));
        assert_ne!(sim.machine(r(0)).state_fingerprint(), fp0);
        assert_eq!(sim.store_name(), "dvv-mvr");
    }
}
