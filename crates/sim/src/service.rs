//! The service driver: open-loop workloads against a sharded, batched
//! [`ServiceCluster`] under a faulty simulated network.
//!
//! This is where the production-shaped pieces of
//! [`haec_stores::service`] meet the simulator's discipline. A
//! [`ServiceRunConfig`] names a deployment (replicas × shards ×
//! reconciliation strategy), a workload (open-loop clients over a key
//! distribution) and a fault regime (drop / duplicate / delay /
//! partition); [`run_service`] plays it out tick by tick — one client
//! operation per tick of virtual time — and distills a
//! [`ServiceReport`]: throughput counters, exact wire-bit accounting,
//! visibility-lag and read-staleness histograms (per-shard
//! [`LagObserver`]s, merged in canonical shard order), optional online
//! consistency verdicts (a per-shard [`StreamChecker`]), and a
//! quiescent-convergence check.
//!
//! ## Determinism
//!
//! Everything is a pure function of the config. Two independent rng
//! streams keep the *workload* decoupled from the *network*: client
//! operations draw from a stream seeded with `seed`, fault decisions
//! from one seeded with `seed ⊕ NET_STREAM`. Changing how many fault
//! draws a delivery mode makes (one envelope per destination vs one
//! message per shard) therefore cannot perturb which operations clients
//! issue — which is what makes batched and unbatched runs of the same
//! config directly comparable, and is how the batched-vs-unbatched
//! equivalence differential works. [`run_service_sweep`] distributes
//! whole configs over worker threads with results placed by index, so
//! its output is byte-identical for any thread count.
//!
//! ## Exact accounting
//!
//! Every enqueued wire copy is measured in bits and attributed: a
//! shard's payload bits land on that shard's [`ShardReport`], and the
//! envelope framing (group count, shard tags, length prefixes) lands in
//! [`ServiceReport::envelope_overhead_bits`]. The invariant
//!
//! ```text
//! message_bits == Σ per_shard payload_bits + envelope_overhead_bits
//! ```
//!
//! holds exactly, in both delivery modes (unbatched runs have zero
//! overhead), mirroring the codec-level identity
//! `batch bits == header bits + Σ update bits`.
//!
//! [`LagObserver`]: crate::obs::lag::LagObserver
//! [`StreamChecker`]: haec_core::stream::StreamChecker

use crate::exhaustive::parallel::par_map;
use crate::obs::hist::Histogram;
use crate::obs::json::Json;
use crate::obs::lag::LagObserver;
use crate::obs::{DoEvent, Observer};
use crate::workload::{ClientOp, KeyDistribution, OpenLoop, Workload};
use haec_core::stream::{StreamChecker, StreamConfig};
use haec_core::SpecKind;
use haec_model::{Dot, ObjectId, Op, Payload, ReplicaId, StoreFactory};
use haec_stores::service::{encode_envelope, Reconciliation, ServiceCluster, ServiceConfig};
use haec_testkit::Rng;
use std::collections::BTreeMap;

/// Seed perturbation separating the network-fault rng stream from the
/// workload stream (an arbitrary odd constant, frozen).
const NET_STREAM: u64 = 0xA5EE_D0F1_3577_ACE5;

/// A network partition regime: while `from_op <= tick < to_op`, messages
/// crossing the cut between `group` and its complement are held back
/// until the partition heals (the scheduler treats partitions as delays,
/// matching the paper's fair-delivery model — no message is lost to a
/// partition).
#[derive(Clone, PartialEq, Debug)]
pub struct ServicePartition {
    /// First tick of the partition.
    pub from_op: usize,
    /// First tick after the partition heals.
    pub to_op: usize,
    /// One side of the cut; the complement is the other side.
    pub group: Vec<ReplicaId>,
}

impl ServicePartition {
    /// Does a message between `a` and `b` cross the cut?
    pub fn crosses(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

/// Full configuration of one service run: deployment, workload, faults.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceRunConfig {
    /// The deployment: replicas, shards, objects, reconciliation.
    pub service: ServiceConfig,
    /// Object type driving the workload's operation mix.
    pub spec: SpecKind,
    /// Client operations to run (one per tick of virtual time).
    pub ops: usize,
    /// Open-loop client population (each pinned to `client mod replicas`).
    pub n_clients: u32,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
    /// Key popularity distribution.
    pub keys: KeyDistribution,
    /// Wire mode: `true` coalesces all pending shards into one envelope
    /// per destination; `false` sends one message per shard.
    pub batched: bool,
    /// Delivery delay is uniform in `1..=delay_max` ticks (must be ≥ 1).
    pub delay_max: usize,
    /// Per-copy drop probability.
    pub drop_prob: f64,
    /// Per-copy duplication probability.
    pub dup_prob: f64,
    /// Optional partition window.
    pub partition: Option<ServicePartition>,
    /// `Some(window)` attaches a per-shard online consistency checker
    /// (causal / eventual-within-window / session guarantees).
    pub stream_window: Option<usize>,
    /// Seed for both rng streams.
    pub seed: u64,
}

impl Default for ServiceRunConfig {
    fn default() -> Self {
        ServiceRunConfig {
            service: ServiceConfig::default(),
            spec: SpecKind::Mvr,
            ops: 4096,
            n_clients: 64,
            read_ratio: 0.5,
            keys: KeyDistribution::Uniform,
            batched: true,
            delay_max: 4,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partition: None,
            stream_window: None,
            seed: 0,
        }
    }
}

/// Per-shard slice of a [`ServiceReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Global objects the ring assigned to this shard.
    pub objects: usize,
    /// Client operations routed here.
    pub ops: u64,
    /// Updates among them.
    pub updates: u64,
    /// Wire copies enqueued carrying this shard's payload.
    pub messages: u64,
    /// Exact payload bits attributed to this shard across those copies.
    pub payload_bits: u64,
}

/// Online consistency verdicts, ANDed across shards (each shard is its
/// own store instance, so each gets its own checker; cross-shard
/// causality is intentionally not promised).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamVerdicts {
    /// Causal consistency held in every shard.
    pub causal: bool,
    /// Windowed eventual consistency held in every shard.
    pub eventual: bool,
    /// Session guarantees held in every shard.
    pub sessions: bool,
}

/// Everything one service run measured. Contains no wall-clock values:
/// [`to_json_string`](Self::to_json_string) is byte-identical for equal
/// configs, whatever machine or thread ran it.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceReport {
    /// Store factory name.
    pub store: String,
    /// Reconciliation strategy name.
    pub reconciliation: &'static str,
    /// Wire mode of the run.
    pub batched: bool,
    /// Replica count.
    pub n_replicas: usize,
    /// Shard count.
    pub n_shards: usize,
    /// Global object count.
    pub n_objects: usize,
    /// Open-loop client population.
    pub n_clients: u32,
    /// Client operations executed.
    pub ops: u64,
    /// Updates among them.
    pub updates: u64,
    /// Reads among them.
    pub reads: u64,
    /// Wire copies enqueued (per destination; duplicates count twice).
    pub messages: u64,
    /// Total wire bits across those copies — exactly
    /// `Σ shard payload_bits + envelope_overhead_bits`.
    pub message_bits: u64,
    /// Envelope framing bits (zero in unbatched mode).
    pub envelope_overhead_bits: u64,
    /// Copies dropped by the network.
    pub dropped: u64,
    /// Copies duplicated by the network.
    pub duplicated: u64,
    /// Copies held back by the partition.
    pub delayed_by_partition: u64,
    /// Wire-copy sizes in bits.
    pub message_size: Histogram,
    /// Delivery latency in ticks (includes partition hold-back).
    pub delivery_latency: Histogram,
    /// First-observation lag per (update, remote replica), merged over
    /// shards, including the post-run closing sweep.
    pub visibility_lag: Histogram,
    /// Read staleness per client read (closing sweep excluded).
    pub read_staleness: Histogram,
    /// `(update, remote replica)` pairs never observed (lost to drops).
    pub pending_observations: u64,
    /// Did every replica converge on every shard (state fingerprints and
    /// closing-sweep read values all agree) after quiescence?
    pub converged: bool,
    /// Total canonical state bits across all machines at the end.
    pub state_bits: u64,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// Online consistency verdicts, when a stream window was configured.
    pub stream: Option<StreamVerdicts>,
    /// Stream-checker feed errors (0 unless a store reports witnesses
    /// that do not resolve to issued updates).
    pub stream_errors: u64,
}

fn hist_json(h: &Histogram) -> Json {
    let minmax = |v: Option<u64>| v.map_or(Json::Null, Json::uint);
    Json::Obj(vec![
        ("count".into(), Json::uint(h.count())),
        ("min".into(), minmax(h.min())),
        ("max".into(), minmax(h.max())),
        ("mean".into(), Json::Float(h.mean())),
        ("p50".into(), minmax(h.quantile(0.5))),
        ("p99".into(), minmax(h.quantile(0.99))),
        (
            "buckets".into(),
            Json::Arr(
                h.buckets()
                    .map(|(lo, hi, c)| {
                        Json::Arr(vec![Json::uint(lo), Json::uint(hi), Json::uint(c)])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl ServiceReport {
    /// The report as a JSON tree with stable key order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("store".into(), Json::str(self.store.clone())),
            ("reconciliation".into(), Json::str(self.reconciliation)),
            ("batched".into(), Json::Bool(self.batched)),
            ("n_replicas".into(), Json::uint(self.n_replicas as u64)),
            ("n_shards".into(), Json::uint(self.n_shards as u64)),
            ("n_objects".into(), Json::uint(self.n_objects as u64)),
            ("n_clients".into(), Json::uint(u64::from(self.n_clients))),
            ("ops".into(), Json::uint(self.ops)),
            ("updates".into(), Json::uint(self.updates)),
            ("reads".into(), Json::uint(self.reads)),
            ("messages".into(), Json::uint(self.messages)),
            ("message_bits".into(), Json::uint(self.message_bits)),
            (
                "envelope_overhead_bits".into(),
                Json::uint(self.envelope_overhead_bits),
            ),
            ("dropped".into(), Json::uint(self.dropped)),
            ("duplicated".into(), Json::uint(self.duplicated)),
            (
                "delayed_by_partition".into(),
                Json::uint(self.delayed_by_partition),
            ),
            ("message_size".into(), hist_json(&self.message_size)),
            ("delivery_latency".into(), hist_json(&self.delivery_latency)),
            ("visibility_lag".into(), hist_json(&self.visibility_lag)),
            ("read_staleness".into(), hist_json(&self.read_staleness)),
            (
                "pending_observations".into(),
                Json::uint(self.pending_observations),
            ),
            ("converged".into(), Json::Bool(self.converged)),
            ("state_bits".into(), Json::uint(self.state_bits)),
            (
                "per_shard".into(),
                Json::Arr(
                    self.per_shard
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("shard".into(), Json::uint(s.shard as u64)),
                                ("objects".into(), Json::uint(s.objects as u64)),
                                ("ops".into(), Json::uint(s.ops)),
                                ("updates".into(), Json::uint(s.updates)),
                                ("messages".into(), Json::uint(s.messages)),
                                ("payload_bits".into(), Json::uint(s.payload_bits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stream".into(),
                match &self.stream {
                    None => Json::Null,
                    Some(v) => Json::Obj(vec![
                        ("causal".into(), Json::Bool(v.causal)),
                        ("eventual".into(), Json::Bool(v.eventual)),
                        ("sessions".into(), Json::Bool(v.sessions)),
                    ]),
                },
            ),
            ("stream_errors".into(), Json::uint(self.stream_errors)),
        ])
    }

    /// Compact, byte-stable JSON rendering.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// Renders a slice of reports as one stable JSON array — the sweep-level
/// byte-identity artifact the determinism suite compares across thread
/// counts.
pub fn reports_json(reports: &[ServiceReport]) -> String {
    Json::Arr(reports.iter().map(ServiceReport::to_json).collect()).render()
}

enum MsgKind {
    Envelope(Payload),
    Shard(usize, Payload),
}

struct Msg {
    dst: ReplicaId,
    sent_at: u64,
    kind: MsgKind,
}

#[derive(Clone, Copy, Default)]
struct ShardTally {
    ops: u64,
    updates: u64,
    messages: u64,
    payload_bits: u64,
}

struct Driver<'a> {
    cfg: &'a ServiceRunConfig,
    /// The factory's name, for panic messages.
    store: &'a str,
    cluster: ServiceCluster,
    net_rng: Rng,
    /// In-flight copies keyed `(deliver_at, enqueue seq)` — a BTreeMap so
    /// delivery order is a pure function of the keys.
    net: BTreeMap<(u64, u64), Msg>,
    net_seq: u64,
    tallies: Vec<ShardTally>,
    lag: Vec<LagObserver>,
    /// Per `(replica, shard, origin)`: highest witness seq already fed to
    /// the shard's lag observer. Store witnesses are full VV contexts
    /// that only ever grow, so feeding the observer just the *delta* of
    /// newly-witnessed dots yields identical first-observation samples
    /// while keeping the observer's work O(new dots) per event. Finding
    /// the delta still reads the whole list ([`witness_delta`]), at a
    /// fraction of a nanosecond per already-witnessed dot.
    witnessed: Vec<Vec<Vec<u32>>>,
    /// Read staleness, computed in the driver from the full witness
    /// length (same formula as [`LagObserver`], which cannot be used here
    /// because it only sees witness deltas).
    staleness: Histogram,
    stream: Option<Vec<StreamChecker>>,
    stream_errors: u64,
    /// 1-based update counts per `(replica, shard)`, for assigning dots —
    /// each shard is its own store instance with its own dot space.
    update_seq: Vec<Vec<u32>>,
    updates: u64,
    reads: u64,
    messages: u64,
    message_bits: u64,
    envelope_overhead_bits: u64,
    dropped: u64,
    duplicated: u64,
    delayed_by_partition: u64,
    message_size: Histogram,
    delivery_latency: Histogram,
}

impl Driver<'_> {
    fn n_replicas(&self) -> usize {
        self.cfg.service.n_replicas
    }

    fn n_shards(&self) -> usize {
        self.cfg.service.n_shards
    }

    /// Delivers every in-flight copy due at or before `now`.
    fn deliver_due(&mut self, now: u64) {
        while let Some((&(at, seq), _)) = self.net.first_key_value() {
            if at > now {
                break;
            }
            let msg = self.net.remove(&(at, seq)).expect("key just observed");
            self.delivery_latency.record(at - msg.sent_at);
            match &msg.kind {
                MsgKind::Envelope(p) => {
                    self.cluster
                        .deliver_envelope(msg.dst, p)
                        .expect("service envelopes are well-formed");
                }
                MsgKind::Shard(s, p) => self.cluster.deliver_shard(msg.dst, *s, p),
            }
        }
    }

    /// Enqueues one logical message to every other replica, applying the
    /// fault regime per copy when `faulty` (the final quiescence flush
    /// runs fault-free: Lemma 3's fairness — messages keep flowing).
    fn broadcast(
        &mut self,
        origin: ReplicaId,
        groups: Vec<(usize, Payload)>,
        t: u64,
        faulty: bool,
    ) {
        if groups.is_empty() {
            return;
        }
        let envelope = self
            .cfg
            .batched
            .then(|| encode_envelope(&groups, self.n_shards()));
        for dst in 0..self.n_replicas() {
            let dst = ReplicaId::new(dst as u32);
            if dst == origin {
                continue;
            }
            match &envelope {
                Some(env) => {
                    let overhead = env.bits() as u64
                        - groups.iter().map(|(_, p)| p.bits() as u64).sum::<u64>();
                    self.send_copy(
                        origin,
                        dst,
                        MsgKind::Envelope(env.clone()),
                        &groups,
                        overhead,
                        t,
                        faulty,
                    );
                }
                None => {
                    for (shard, payload) in &groups {
                        self.send_copy(
                            origin,
                            dst,
                            MsgKind::Shard(*shard, payload.clone()),
                            std::slice::from_ref(&(*shard, payload.clone())),
                            0,
                            t,
                            faulty,
                        );
                    }
                }
            }
        }
    }

    /// Sends one wire copy `origin → dst`, drawing drop / duplicate /
    /// delay faults, and attributes its bits exactly: payload bits to the
    /// carried shards, framing to the envelope overhead.
    #[expect(
        clippy::too_many_arguments,
        reason = "one wire copy is its route, kind, groups, framing, send time and fault flag; a struct would exist only to carry them here"
    )]
    fn send_copy(
        &mut self,
        origin: ReplicaId,
        dst: ReplicaId,
        kind: MsgKind,
        groups: &[(usize, Payload)],
        overhead_bits: u64,
        t: u64,
        faulty: bool,
    ) {
        if faulty && self.net_rng.gen_bool(self.cfg.drop_prob) {
            self.dropped += 1;
            return;
        }
        let copies = if faulty && self.net_rng.gen_bool(self.cfg.dup_prob) {
            self.duplicated += 1;
            2
        } else {
            1
        };
        let bits: u64 = overhead_bits + groups.iter().map(|(_, p)| p.bits() as u64).sum::<u64>();
        for copy in 0..copies {
            let delay = if faulty {
                1 + self.net_rng.bounded(self.cfg.delay_max as u64)
            } else {
                1
            };
            let mut deliver_at = t + delay;
            if faulty {
                if let Some(p) = &self.cfg.partition {
                    if (p.from_op as u64..p.to_op as u64).contains(&t) && p.crosses(origin, dst) {
                        deliver_at = deliver_at.max(p.to_op as u64);
                        self.delayed_by_partition += 1;
                    }
                }
            }
            self.messages += 1;
            self.message_bits += bits;
            self.envelope_overhead_bits += overhead_bits;
            self.message_size.record(bits);
            for (shard, payload) in groups {
                self.tallies[*shard].messages += 1;
                self.tallies[*shard].payload_bits += payload.bits() as u64;
            }
            let k = match (&kind, copy) {
                (MsgKind::Envelope(p), _) => MsgKind::Envelope(p.clone()),
                (MsgKind::Shard(s, p), _) => MsgKind::Shard(*s, p.clone()),
            };
            self.net.insert(
                (deliver_at, self.net_seq),
                Msg {
                    dst,
                    sent_at: t,
                    kind: k,
                },
            );
            self.net_seq += 1;
        }
    }

    /// Flushes the named shards of one replica and broadcasts whatever
    /// was pending.
    fn flush(&mut self, origin: ReplicaId, shards: &[usize], t: u64, faulty: bool) {
        let groups: Vec<(usize, Payload)> = shards
            .iter()
            .filter_map(|&s| self.cluster.flush_shard(origin, s).map(|p| (s, p)))
            .collect();
        self.broadcast(origin, groups, t, faulty);
    }

    /// Executes one client operation at tick `t`: routes it, assigns its
    /// dot, feeds the shard's observers, and runs the reconciliation
    /// strategy's flush schedule.
    fn exec_op(&mut self, t: u64, cop: &ClientOp) {
        let (shard, local) = self.cluster.map().route(cop.obj);
        let (_, out) = self.cluster.do_op(cop.replica, cop.obj, &cop.op);
        let dot = cop.op.is_update().then(|| {
            let seq = &mut self.update_seq[cop.replica.index()][shard];
            *seq += 1;
            Dot::new(cop.replica, *seq)
        });
        self.observe(shard, t as usize, cop.replica, local, &cop.op, dot, &out);
        self.tallies[shard].ops += 1;
        if cop.op.is_read() {
            self.reads += 1;
            // Staleness: updates issued in this shard the read's witness
            // context is missing (its distance from the shard frontier).
            self.staleness.record(
                self.tallies[shard]
                    .updates
                    .saturating_sub(out.visible.len() as u64),
            );
        } else {
            self.updates += 1;
            self.tallies[shard].updates += 1;
        }
        match self.cfg.service.reconciliation {
            Reconciliation::WriteRepair => {
                if cop.op.is_update() {
                    self.flush(cop.replica, &[shard], t, true);
                }
            }
            Reconciliation::ReadRepair => {
                if cop.op.is_read() {
                    for r in 0..self.n_replicas() {
                        self.flush(ReplicaId::new(r as u32), &[shard], t, true);
                    }
                }
            }
            Reconciliation::AntiEntropy { .. } => {}
        }
    }

    /// Feeds one do-event to the shard's lag observer (witness delta) and
    /// stream checker (full witness).
    ///
    /// # Panics
    ///
    /// Panics, naming the store, shard, replica and dot, if the witness
    /// names a replica the run does not have.
    #[expect(
        clippy::too_many_arguments,
        reason = "one observed operation is its shard, step, replica, object, op, dot and outcome, each read separately"
    )]
    fn observe(
        &mut self,
        shard: usize,
        step: usize,
        replica: ReplicaId,
        local: ObjectId,
        op: &Op,
        dot: Option<Dot>,
        out: &haec_model::DoOutcome,
    ) {
        let frontier = &mut self.witnessed[replica.index()][shard];
        let delta = witness_delta(frontier, &out.visible).unwrap_or_else(|d| {
            panic!(
                "store {:?}, shard {shard}, replica {replica}: witness dot {d} names a replica \
                 outside 0..{}",
                self.store,
                frontier.len()
            )
        });
        self.lag[shard].on_do(&DoEvent {
            step,
            replica,
            obj: local,
            op,
            rval: &out.rval,
            dot,
            visible: &delta,
        });
        if let Some(checkers) = &mut self.stream {
            if checkers[shard]
                .push(replica, local, op.is_update(), &out.visible)
                .is_err()
            {
                self.stream_errors += 1;
            }
        }
    }
}

/// The dots of `visible` not yet witnessed: a dot is new iff its seq is
/// above `frontier[origin]`, which it then raises. A store's witness only
/// ever grows at each origin's tail, so all but a few dots are at or below
/// the frontier; whole blocks of those after a known dot are jumped over
/// ([`Dot::run_within`]) — they neither emit nor move the frontier.
///
/// # Errors
///
/// Returns the first dot whose replica has no frontier entry.
fn witness_delta(frontier: &mut [u32], visible: &[Dot]) -> Result<Vec<Dot>, Dot> {
    let mut delta = Vec::new();
    let mut i = 0;
    while i < visible.len() {
        let d = visible[i];
        i += 1;
        let seen = frontier.get_mut(d.replica.index()).ok_or(d)?;
        if d.seq > *seen {
            *seen = d.seq;
            delta.push(d);
        } else {
            i += Dot::run_within(&visible[i..], d.replica, 0, *seen);
        }
    }
    Ok(delta)
}

/// Runs one service configuration to completion and reports.
///
/// The run is: `ops` ticks of (deliver due messages; anti-entropy flush
/// if scheduled; one open-loop client op; write/read-repair flush), then
/// quiescence (drain the network, fault-free flush of every replica,
/// drain again), then a closing read sweep over every `(replica, object)`
/// pair that both witnesses convergence for the observers and checks all
/// replicas return identical values.
///
/// # Panics
///
/// Panics if `delay_max == 0` or a probability is outside `[0, 1]`, and —
/// naming the store, shard, replica and dot — if a store's witness names a
/// replica outside `0..n_replicas`.
pub fn run_service(factory: &dyn StoreFactory, cfg: &ServiceRunConfig) -> ServiceReport {
    assert!(cfg.delay_max >= 1, "delay_max must be at least 1 tick");
    assert!(
        (0.0..=1.0).contains(&cfg.drop_prob) && (0.0..=1.0).contains(&cfg.dup_prob),
        "fault probabilities must be in [0, 1]"
    );
    let sc = &cfg.service;
    let mut driver = Driver {
        cfg,
        store: factory.name(),
        cluster: ServiceCluster::new(factory, sc),
        net_rng: Rng::seed_from_u64(cfg.seed ^ NET_STREAM),
        net: BTreeMap::new(),
        net_seq: 0,
        tallies: vec![ShardTally::default(); sc.n_shards],
        lag: (0..sc.n_shards)
            .map(|_| LagObserver::new(sc.n_replicas))
            .collect(),
        witnessed: vec![vec![vec![0u32; sc.n_replicas]; sc.n_shards]; sc.n_replicas],
        staleness: Histogram::new(),
        stream: cfg.stream_window.map(|window| {
            (0..sc.n_shards)
                .map(|_| {
                    StreamChecker::new(StreamConfig {
                        n_replicas: sc.n_replicas,
                        window,
                        gc_window: None,
                    })
                    .expect("stream config is valid")
                })
                .collect()
        }),
        stream_errors: 0,
        update_seq: vec![vec![0u32; sc.n_shards]; sc.n_replicas],
        updates: 0,
        reads: 0,
        messages: 0,
        message_bits: 0,
        envelope_overhead_bits: 0,
        dropped: 0,
        duplicated: 0,
        delayed_by_partition: 0,
        message_size: Histogram::new(),
        delivery_latency: Histogram::new(),
    };
    let mut open = OpenLoop::new(
        Workload::new(
            cfg.spec,
            sc.n_replicas,
            sc.n_objects,
            cfg.read_ratio,
            cfg.keys,
        ),
        cfg.n_clients,
    );
    let mut op_rng = Rng::seed_from_u64(cfg.seed);

    for t in 0..cfg.ops as u64 {
        driver.deliver_due(t);
        if let Reconciliation::AntiEntropy { period } = sc.reconciliation {
            if t > 0 && t % period as u64 == 0 {
                for r in 0..sc.n_replicas {
                    let all: Vec<usize> = (0..sc.n_shards).collect();
                    driver.flush(ReplicaId::new(r as u32), &all, t, true);
                }
            }
        }
        let cop = open.next_op(&mut op_rng);
        driver.exec_op(t, &cop);
    }

    // Quiescence: drain in-flight, final fault-free flush, drain again.
    let t_end = cfg.ops as u64;
    driver.deliver_due(u64::MAX);
    let all: Vec<usize> = (0..sc.n_shards).collect();
    for r in 0..sc.n_replicas {
        driver.flush(ReplicaId::new(r as u32), &all, t_end, false);
    }
    driver.deliver_due(u64::MAX);

    // Closing sweep: every replica reads every object. Witnesses the
    // quiesced state for the observers and checks value agreement.
    let map = driver.cluster.map().clone();
    let mut step = cfg.ops;
    let mut values_agree = true;
    for obj in 0..sc.n_objects {
        let obj = ObjectId::new(obj as u32);
        let (shard, local) = map.route(obj);
        let mut first = None;
        for r in 0..sc.n_replicas {
            let replica = ReplicaId::new(r as u32);
            let (_, out) = driver.cluster.do_op(replica, obj, &Op::Read);
            driver.observe(shard, step, replica, local, &Op::Read, None, &out);
            step += 1;
            match &first {
                None => first = Some(out.rval.clone()),
                Some(f) => {
                    if *f != out.rval {
                        values_agree = false;
                    }
                }
            }
        }
    }
    let converged = driver.cluster.shards_agree() && values_agree;

    let mut visibility_lag = Histogram::new();
    let mut pending = 0;
    for l in &driver.lag {
        visibility_lag.merge(l.visibility_lag());
        pending += l.pending_observations();
    }
    let stream = driver.stream.as_mut().map(|checkers| {
        let mut v = StreamVerdicts {
            causal: true,
            eventual: true,
            sessions: true,
        };
        for c in checkers {
            c.sweep();
            v.causal &= c.causal().is_ok();
            v.eventual &= c.eventual().is_ok();
            v.sessions &= c.sessions().is_ok();
        }
        v
    });

    ServiceReport {
        store: factory.name().to_string(),
        reconciliation: sc.reconciliation.name(),
        batched: cfg.batched,
        n_replicas: sc.n_replicas,
        n_shards: sc.n_shards,
        n_objects: sc.n_objects,
        n_clients: cfg.n_clients,
        ops: cfg.ops as u64,
        updates: driver.updates,
        reads: driver.reads,
        messages: driver.messages,
        message_bits: driver.message_bits,
        envelope_overhead_bits: driver.envelope_overhead_bits,
        dropped: driver.dropped,
        duplicated: driver.duplicated,
        delayed_by_partition: driver.delayed_by_partition,
        message_size: driver.message_size,
        delivery_latency: driver.delivery_latency,
        visibility_lag,
        read_staleness: driver.staleness.clone(),
        pending_observations: pending,
        converged,
        state_bits: driver.cluster.state_bits() as u64,
        per_shard: driver
            .tallies
            .iter()
            .enumerate()
            .map(|(shard, tally)| ShardReport {
                shard,
                objects: map.owned(shard).len(),
                ops: tally.ops,
                updates: tally.updates,
                messages: tally.messages,
                payload_bits: tally.payload_bits,
            })
            .collect(),
        stream,
        stream_errors: driver.stream_errors,
    }
}

/// Runs many configs, distributing them over up to `threads` worker
/// threads. Results are placed by config index, and each run is a pure
/// function of its config, so the output — down to
/// [`reports_json`] bytes — is identical for every thread count.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_service_sweep(
    factory: &dyn StoreFactory,
    configs: &[ServiceRunConfig],
    threads: usize,
) -> Vec<ServiceReport> {
    par_map(threads, configs, |_, c| run_service(factory, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{ReplicaMachine, StoreConfig};
    use haec_stores::DvvMvrStore;

    fn base() -> ServiceRunConfig {
        ServiceRunConfig {
            ops: 600,
            n_clients: 24,
            seed: 7,
            ..ServiceRunConfig::default()
        }
    }

    #[test]
    fn block_skipping_witness_delta_agrees_with_the_plain_filter() {
        use haec_testkit::prop::{self, u64s, usizes};
        use haec_testkit::{prop_assert_eq, Rng};

        // (seed, list shape: as is | shuffled | gapped | duplicated)
        let gen = (u64s(0..u64::MAX), usizes(0..4));
        prop::check(
            "block_skipping_witness_delta_agrees_with_the_plain_filter",
            &gen,
            |&(seed, shape)| {
                let mut rng = Rng::seed_from_u64(seed);
                let around = [0, 1, 15, 16, 17, 31, 32, 33];
                let mut frontier = [0u32; 3];
                let mut visible = Vec::new();
                for (o, seen) in frontier.iter_mut().enumerate() {
                    let len = if rng.gen_bool(0.2) {
                        rng.gen_range(1000..4000u32)
                    } else {
                        *rng.choose(&around).unwrap() + rng.gen_range(0..70)
                    };
                    visible.extend((1..=len).map(|seq| Dot::new(ReplicaId::new(o as u32), seq)));
                    // Behind the list by nothing, a block boundary or any
                    // amount, or ahead of it.
                    *seen = match rng.gen_range(0..4) {
                        0 => len,
                        1 => len.saturating_sub(*rng.choose(&around).unwrap()),
                        2 => rng.gen_range(0..len + 1),
                        _ => len + rng.gen_range(1..5),
                    };
                }
                match shape {
                    0 => {}
                    1 => rng.shuffle(&mut visible),
                    2 => visible.retain(|_| !rng.gen_bool(0.02)),
                    _ => {
                        for _ in 0..rng.gen_range(1..4) {
                            let d = *rng.choose(&visible).unwrap();
                            visible.insert(rng.gen_range(0..visible.len() + 1), d);
                        }
                    }
                }

                // The filter `witness_delta` replaced, dot by dot.
                let mut want_frontier = frontier;
                let want: Vec<Dot> = visible
                    .iter()
                    .copied()
                    .filter(|d| {
                        let seen = &mut want_frontier[d.replica.index()];
                        if d.seq > *seen {
                            *seen = d.seq;
                            true
                        } else {
                            false
                        }
                    })
                    .collect();
                prop_assert_eq!(witness_delta(&mut frontier, &visible), Ok(want));
                prop_assert_eq!(frontier, want_frontier);
                Ok(())
            },
        );
    }

    #[test]
    fn witness_delta_names_the_first_dot_of_an_unknown_replica() {
        let at = |r, seq| Dot::new(ReplicaId::new(r), seq);
        let mut visible: Vec<Dot> = (1..=40).map(|seq| at(1, seq)).collect();
        visible[20] = at(3, 7); // inside an otherwise known run
        visible[30] = at(9, 1);
        assert_eq!(witness_delta(&mut [0, 40, 0], &visible), Err(at(3, 7)));
    }

    /// Every replica one id too high, in a store one replica larger: the
    /// last replica's dots name replica `n_replicas`.
    struct ShiftedIds;

    impl StoreFactory for ShiftedIds {
        fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
            let shifted = ReplicaId::new(replica.as_u32() + 1);
            DvvMvrStore.spawn(
                shifted,
                StoreConfig::new(config.n_replicas + 1, config.n_objects),
            )
        }

        fn name(&self) -> &str {
            "shifted-ids"
        }
    }

    #[test]
    #[should_panic(
        expected = "store \"shifted-ids\", shard 0, replica R0: witness dot R3:1 names a replica outside 0..3"
    )]
    fn an_out_of_range_witness_dot_panics_naming_store_shard_replica_and_dot() {
        run_service(&ShiftedIds, &base());
    }

    #[test]
    fn fault_free_run_converges_with_exact_accounting() {
        let report = run_service(&DvvMvrStore, &base());
        assert!(report.converged, "fault-free run must converge");
        assert_eq!(report.ops, 600);
        assert_eq!(report.updates + report.reads, 600);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.duplicated, 0);
        let shard_bits: u64 = report.per_shard.iter().map(|s| s.payload_bits).sum();
        assert_eq!(
            report.message_bits,
            shard_bits + report.envelope_overhead_bits,
            "exact wire accounting"
        );
        assert!(
            report.envelope_overhead_bits > 0,
            "batched mode has framing"
        );
        let shard_ops: u64 = report.per_shard.iter().map(|s| s.ops).sum();
        assert_eq!(shard_ops, 600, "every op lands on exactly one shard");
        assert_eq!(report.pending_observations, 0, "closing sweep observes all");
    }

    #[test]
    fn unbatched_mode_has_zero_overhead_and_same_payload() {
        let batched = run_service(&DvvMvrStore, &base());
        let unbatched = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                batched: false,
                ..base()
            },
        );
        assert_eq!(unbatched.envelope_overhead_bits, 0);
        assert_eq!(
            unbatched.message_bits,
            unbatched
                .per_shard
                .iter()
                .map(|s| s.payload_bits)
                .sum::<u64>()
        );
        // Same ops, same flush schedule: identical payload attribution.
        for (a, b) in batched.per_shard.iter().zip(unbatched.per_shard.iter()) {
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.updates, b.updates);
        }
        assert!(batched.converged && unbatched.converged);
    }

    #[test]
    fn reports_are_deterministic_and_sweep_is_thread_invariant() {
        let configs: Vec<ServiceRunConfig> = [1usize, 2, 4]
            .iter()
            .map(|&n_shards| ServiceRunConfig {
                service: ServiceConfig {
                    n_shards,
                    ..ServiceConfig::default()
                },
                ops: 300,
                n_clients: 12,
                seed: 11,
                ..ServiceRunConfig::default()
            })
            .collect();
        let solo = reports_json(&run_service_sweep(&DvvMvrStore, &configs, 1));
        let wide = reports_json(&run_service_sweep(&DvvMvrStore, &configs, 3));
        assert_eq!(solo, wide, "sweep output is byte-identical across threads");
        let again = reports_json(&run_service_sweep(&DvvMvrStore, &configs, 2));
        assert_eq!(solo, again);
    }

    #[test]
    fn drops_lose_observations_and_are_reported() {
        let report = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                drop_prob: 0.4,
                ..base()
            },
        );
        assert!(report.dropped > 0, "a 40% drop rate drops something");
        // Fingerprint agreement may or may not survive; the report must
        // say what happened rather than assume.
        assert_eq!(report.ops, 600);
    }

    #[test]
    fn stream_checkers_pass_on_clean_causal_runs() {
        let report = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                stream_window: Some(4096),
                ..base()
            },
        );
        let v = report.stream.expect("stream verdicts requested");
        assert_eq!(report.stream_errors, 0);
        assert!(v.causal && v.eventual && v.sessions, "{v:?}");
    }

    #[test]
    fn partition_delays_cross_cut_traffic() {
        let report = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                partition: Some(ServicePartition {
                    from_op: 100,
                    to_op: 400,
                    group: vec![ReplicaId::new(0)],
                }),
                ..base()
            },
        );
        assert!(report.delayed_by_partition > 0);
        assert!(report.converged, "partitions heal; nothing is lost");
        assert!(
            report.delivery_latency.max().unwrap() > 50,
            "held-back copies show up as latency"
        );
    }

    #[test]
    fn reconciliation_strategies_trade_messages_for_staleness() {
        let mk = |reconciliation| ServiceRunConfig {
            service: ServiceConfig {
                reconciliation,
                ..ServiceConfig::default()
            },
            ops: 800,
            n_clients: 24,
            seed: 13,
            ..ServiceRunConfig::default()
        };
        let write = run_service(&DvvMvrStore, &mk(Reconciliation::WriteRepair));
        let anti = run_service(
            &DvvMvrStore,
            &mk(Reconciliation::AntiEntropy { period: 64 }),
        );
        assert!(write.converged && anti.converged);
        // Write repair flushes eagerly: more messages, fresher reads.
        assert!(
            write.messages > anti.messages,
            "write-repair {} vs anti-entropy {}",
            write.messages,
            anti.messages
        );
        assert!(
            write.read_staleness.mean() < anti.read_staleness.mean(),
            "write-repair staleness {} vs anti-entropy {}",
            write.read_staleness.mean(),
            anti.read_staleness.mean()
        );
    }

    #[test]
    fn read_repair_flushes_on_reads() {
        let report = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                service: ServiceConfig {
                    reconciliation: Reconciliation::ReadRepair,
                    ..ServiceConfig::default()
                },
                ..base()
            },
        );
        assert!(report.converged);
        assert!(report.messages > 0);
    }

    #[test]
    #[should_panic(expected = "delay_max")]
    fn zero_delay_panics() {
        let _ = run_service(
            &DvvMvrStore,
            &ServiceRunConfig {
                delay_max: 0,
                ..ServiceRunConfig::default()
            },
        );
    }
}
