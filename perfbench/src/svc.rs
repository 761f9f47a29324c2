//! The service path: `haec_sim::service::run_service`, and a traced mirror
//! of its loop.
//!
//! The untraced run is the one public call. The traced run cannot see
//! inside that call, so it replays the same loop from the public pieces
//! `run_service` is made of, with an `Instant` pair around each. The
//! mirror is only trusted because it is checked: it must build a
//! [`ServiceReport`] equal, field for field, to the one `run_service`
//! returns for the same config. What is not separable from outside — the
//! private driver's BTreeMap network, fault draws, histograms, tallies, the
//! wire codec inside flush/deliver — is reported as the residual between
//! the untraced wall time and the sum of the timed layers.

use crate::rep::{fingerprint, Rep};
use crate::trace::Tracer;
use haec_core::stream::{StreamChecker, StreamConfig};
use haec_core::SpecKind;
use haec_model::{DoOutcome, Dot, ObjectId, Op, Payload, ReplicaId};
use haec_sim::obs::hist::Histogram;
use haec_sim::obs::lag::LagObserver;
use haec_sim::obs::{DoEvent, Observer};
use haec_sim::service::{
    run_service, ServicePartition, ServiceReport, ServiceRunConfig, ShardReport, StreamVerdicts,
};
use haec_sim::workload::{KeyDistribution, OpenLoop, Workload};
use haec_stores::service::{
    decode_envelope, encode_envelope, Reconciliation, ServiceCluster, ServiceConfig,
};
use haec_stores::DvvMvrStore;
use haec_testkit::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The three service workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    OneShard,
    EightShards,
    Checked,
}

/// Smoke runs are the same shapes at 1/50 of the size.
const SMOKE_DIVISOR: usize = 50;

/// The config of `shape` for `seed`, at full or smoke size.
pub fn config(shape: Shape, seed: u64, smoke: bool) -> ServiceRunConfig {
    let scale = if smoke { SMOKE_DIVISOR } else { 1 };
    let (n_shards, ops) = match shape {
        Shape::OneShard => (1, 80_000),
        Shape::EightShards => (8, 250_000),
        Shape::Checked => (4, 50_000),
    };
    let ops = ops / scale;
    let base = ServiceRunConfig {
        service: ServiceConfig {
            n_replicas: 3,
            n_shards,
            n_objects: 256,
            vnodes: 32,
            reconciliation: Reconciliation::WriteRepair,
        },
        spec: SpecKind::Mvr,
        ops,
        n_clients: (2_000 / scale) as u32,
        read_ratio: 0.5,
        keys: KeyDistribution::Uniform,
        batched: true,
        delay_max: 4,
        drop_prob: 0.0,
        dup_prob: 0.0,
        partition: None,
        stream_window: None,
        seed,
    };
    match shape {
        Shape::OneShard | Shape::EightShards => base,
        // Write-heavy, skewed, faulty, checked online. No drops: drop
        // cells do not converge today (ROADMAP, reconciliation item). The
        // partition is 1000 ticks and no longer: the checkers' push cost
        // grows super-linearly with the pending set a partition builds up,
        // and at 2000 ticks 93% of the wall time fell inside the window and
        // moved 6.1 to 9.1 s with the seed alone.
        Shape::Checked => ServiceRunConfig {
            service: ServiceConfig {
                reconciliation: Reconciliation::AntiEntropy { period: 8 },
                ..base.service
            },
            read_ratio: 0.1,
            keys: KeyDistribution::Zipf { theta: 1.0 },
            delay_max: 8,
            dup_prob: 0.05,
            partition: Some(ServicePartition {
                from_op: ops / 4,
                to_op: ops / 4 + 1_000 / scale,
                group: vec![ReplicaId::new(0)],
            }),
            stream_window: Some(4096),
            ..base
        },
    }
}

/// Timed layers of the mirror, in the order of [`LAYERS`].
const TICK: usize = 0;
const NEXT_OP: usize = 1;
const ROUTE: usize = 2;
const DO_OP: usize = 3;
const FLUSH: usize = 4;
const ENCODE: usize = 5;
const DECODE: usize = 6;
const DELIVER: usize = 7;
const LAG: usize = 8;
const PUSH: usize = 9;
const SWEEP: usize = 10;
const CLOSING: usize = 11;

const LAYERS: &[&str] = &[
    "sim.service.tick",
    "sim.workload.next_op",
    "stores.ring.route",
    "stores.cluster.do_op",
    "stores.cluster.flush_shard",
    "stores.envelope.encode",
    "stores.envelope.decode",
    "stores.cluster.deliver_shard",
    "sim.obs.lag.on_do",
    "core.stream.push",
    "core.stream.sweep",
    "stores.cluster.closing",
];

/// `haec_sim::service`'s private network-stream perturbation. The mirror
/// must draw the same faults; the fidelity test fails if this drifts.
const NET_STREAM: u64 = 0xA5EE_D0F1_3577_ACE5;

enum Wire {
    Envelope(Payload),
    Shard(usize, Payload),
}

struct InFlight {
    dst: ReplicaId,
    sent_at: u64,
    wire: Wire,
}

#[derive(Clone, Copy, Default)]
struct Tally {
    ops: u64,
    updates: u64,
    messages: u64,
    payload_bits: u64,
}

/// Deterministic work the layers did, beyond calls and nanoseconds.
#[derive(Default)]
struct Work {
    witness_dots: u64,
    delta_dots: u64,
    pushed_dots: u64,
    flushed_bits: u64,
}

/// The mirror of `haec_sim::service`'s private `Driver`: same state, same
/// order of effects, every call into a layer timed.
struct Mirror<'a> {
    cfg: &'a ServiceRunConfig,
    cluster: ServiceCluster,
    net_rng: Rng,
    net: BTreeMap<(u64, u64), InFlight>,
    net_seq: u64,
    tallies: Vec<Tally>,
    lag: Vec<LagObserver>,
    witnessed: Vec<Vec<Vec<u32>>>,
    staleness: Histogram,
    stream: Option<Vec<StreamChecker>>,
    stream_errors: u64,
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
    work: Work,
}

impl Mirror<'_> {
    fn deliver_due(&mut self, now: u64, tr: &mut Tracer) {
        let n_shards = self.cfg.service.n_shards;
        while let Some((&(at, seq), _)) = self.net.first_key_value() {
            if at > now {
                break;
            }
            let msg = self.net.remove(&(at, seq)).expect("key just observed");
            self.delivery_latency.record(at - msg.sent_at);
            match &msg.wire {
                Wire::Envelope(p) => {
                    let groups = tr
                        .time(DECODE, || decode_envelope(p, n_shards))
                        .expect("service envelopes are well-formed");
                    for (shard, sub) in &groups {
                        tr.time(DELIVER, || self.cluster.deliver_shard(msg.dst, *shard, sub));
                    }
                }
                Wire::Shard(s, p) => {
                    tr.time(DELIVER, || self.cluster.deliver_shard(msg.dst, *s, p));
                }
            }
        }
    }

    fn flush(
        &mut self,
        origin: ReplicaId,
        shards: &[usize],
        t: u64,
        faulty: bool,
        tr: &mut Tracer,
    ) {
        let mut groups: Vec<(usize, Payload)> = Vec::new();
        for &s in shards {
            if let Some(p) = tr.time(FLUSH, || self.cluster.flush_shard(origin, s)) {
                self.work.flushed_bits += p.bits() as u64;
                groups.push((s, p));
            }
        }
        if groups.is_empty() {
            return;
        }
        let n_shards = self.cfg.service.n_shards;
        let envelope = self
            .cfg
            .batched
            .then(|| tr.time(ENCODE, || encode_envelope(&groups, n_shards)));
        for dst in 0..self.cfg.service.n_replicas {
            let dst = ReplicaId::new(dst as u32);
            if dst == origin {
                continue;
            }
            match &envelope {
                Some(env) => {
                    let overhead = env.bits() as u64
                        - groups.iter().map(|(_, p)| p.bits() as u64).sum::<u64>();
                    self.send_copy(origin, dst, Some(env), &groups, overhead, t, faulty);
                }
                None => {
                    for group in &groups {
                        self.send_copy(
                            origin,
                            dst,
                            None,
                            std::slice::from_ref(group),
                            0,
                            t,
                            faulty,
                        );
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_copy(
        &mut self,
        origin: ReplicaId,
        dst: ReplicaId,
        envelope: Option<&Payload>,
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
        let bits = overhead_bits + groups.iter().map(|(_, p)| p.bits() as u64).sum::<u64>();
        for _ in 0..copies {
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
            let wire = match envelope {
                Some(env) => Wire::Envelope(env.clone()),
                None => Wire::Shard(groups[0].0, groups[0].1.clone()),
            };
            self.net.insert(
                (deliver_at, self.net_seq),
                InFlight {
                    dst,
                    sent_at: t,
                    wire,
                },
            );
            self.net_seq += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        shard: usize,
        step: usize,
        replica: ReplicaId,
        local: ObjectId,
        op: &Op,
        dot: Option<Dot>,
        out: &DoOutcome,
        tr: &mut Tracer,
    ) {
        let frontier = &mut self.witnessed[replica.index()][shard];
        let delta: Vec<Dot> = out
            .visible
            .iter()
            .copied()
            .filter(|d| {
                let seen = &mut frontier[d.replica.index()];
                if d.seq > *seen {
                    *seen = d.seq;
                    true
                } else {
                    false
                }
            })
            .collect();
        self.work.delta_dots += delta.len() as u64;
        let lag = &mut self.lag[shard];
        tr.time(LAG, || {
            lag.on_do(&DoEvent {
                step,
                replica,
                obj: local,
                op,
                rval: &out.rval,
                dot,
                visible: &delta,
            })
        });
        if let Some(checkers) = &mut self.stream {
            self.work.pushed_dots += out.visible.len() as u64;
            let pushed = tr.time(PUSH, || {
                checkers[shard].push(replica, local, op.is_update(), &out.visible)
            });
            if pushed.is_err() {
                self.stream_errors += 1;
            }
        }
    }
}

/// Replays `run_service(&DvvMvrStore, cfg)` with every layer call timed.
fn run_mirror(cfg: &ServiceRunConfig, tr: &mut Tracer) -> (ServiceReport, Work) {
    assert!(cfg.delay_max >= 1, "delay_max must be at least 1 tick");
    let factory = &DvvMvrStore;
    let sc = &cfg.service;
    let mut m = Mirror {
        cfg,
        cluster: ServiceCluster::new(factory, sc),
        net_rng: Rng::seed_from_u64(cfg.seed ^ NET_STREAM),
        net: BTreeMap::new(),
        net_seq: 0,
        tallies: vec![Tally::default(); sc.n_shards],
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
        work: Work::default(),
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
    let all: Vec<usize> = (0..sc.n_shards).collect();

    for t in 0..cfg.ops as u64 {
        tr.start_op(t);
        tr.open(TICK);
        m.deliver_due(t, tr);
        if let Reconciliation::AntiEntropy { period } = sc.reconciliation {
            if t > 0 && t % period as u64 == 0 {
                for r in 0..sc.n_replicas {
                    m.flush(ReplicaId::new(r as u32), &all, t, true, tr);
                }
            }
        }
        let cop = tr.time(NEXT_OP, || open.next_op(&mut op_rng));
        let (shard, local) = tr.time(ROUTE, || m.cluster.map().route(cop.obj));
        let (_, out) = tr.time(DO_OP, || m.cluster.do_op(cop.replica, cop.obj, &cop.op));
        m.work.witness_dots += out.visible.len() as u64;
        let dot = cop.op.is_update().then(|| {
            let seq = &mut m.update_seq[cop.replica.index()][shard];
            *seq += 1;
            Dot::new(cop.replica, *seq)
        });
        m.observe(
            shard,
            t as usize,
            cop.replica,
            local,
            &cop.op,
            dot,
            &out,
            tr,
        );
        m.tallies[shard].ops += 1;
        if cop.op.is_read() {
            m.reads += 1;
            m.staleness.record(
                m.tallies[shard]
                    .updates
                    .saturating_sub(out.visible.len() as u64),
            );
        } else {
            m.updates += 1;
            m.tallies[shard].updates += 1;
        }
        match sc.reconciliation {
            Reconciliation::WriteRepair => {
                if cop.op.is_update() {
                    m.flush(cop.replica, &[shard], t, true, tr);
                }
            }
            Reconciliation::ReadRepair => {
                if cop.op.is_read() {
                    for r in 0..sc.n_replicas {
                        m.flush(ReplicaId::new(r as u32), &[shard], t, true, tr);
                    }
                }
            }
            Reconciliation::AntiEntropy { .. } => {}
        }
        tr.close();
    }

    // Quiescence and the closing sweep are one more "op" for the trace.
    let t_end = cfg.ops as u64;
    tr.start_op(t_end);
    m.deliver_due(u64::MAX, tr);
    for r in 0..sc.n_replicas {
        m.flush(ReplicaId::new(r as u32), &all, t_end, false, tr);
    }
    m.deliver_due(u64::MAX, tr);

    let map = m.cluster.map().clone();
    let mut step = cfg.ops;
    let mut values_agree = true;
    for obj in 0..sc.n_objects {
        let obj = ObjectId::new(obj as u32);
        let (shard, local) = map.route(obj);
        let mut first = None;
        for r in 0..sc.n_replicas {
            let replica = ReplicaId::new(r as u32);
            let (_, out) = tr.time(CLOSING, || m.cluster.do_op(replica, obj, &Op::Read));
            m.observe(shard, step, replica, local, &Op::Read, None, &out, tr);
            step += 1;
            match &first {
                None => first = Some(out.rval.clone()),
                Some(f) => values_agree &= *f == out.rval,
            }
        }
    }
    let converged = tr.time(CLOSING, || m.cluster.shards_agree()) && values_agree;

    let mut visibility_lag = Histogram::new();
    let mut pending = 0;
    for l in &m.lag {
        visibility_lag.merge(l.visibility_lag());
        pending += l.pending_observations();
    }
    let stream = m.stream.as_mut().map(|checkers| {
        let mut v = StreamVerdicts {
            causal: true,
            eventual: true,
            sessions: true,
        };
        for c in checkers {
            tr.time(SWEEP, || c.sweep());
            v.causal &= c.causal().is_ok();
            v.eventual &= c.eventual().is_ok();
            v.sessions &= c.sessions().is_ok();
        }
        v
    });
    let state_bits = tr.time(CLOSING, || m.cluster.state_bits()) as u64;

    let report = ServiceReport {
        store: haec_model::StoreFactory::name(factory).to_string(),
        reconciliation: sc.reconciliation.name(),
        batched: cfg.batched,
        n_replicas: sc.n_replicas,
        n_shards: sc.n_shards,
        n_objects: sc.n_objects,
        n_clients: cfg.n_clients,
        ops: cfg.ops as u64,
        updates: m.updates,
        reads: m.reads,
        messages: m.messages,
        message_bits: m.message_bits,
        envelope_overhead_bits: m.envelope_overhead_bits,
        dropped: m.dropped,
        duplicated: m.duplicated,
        delayed_by_partition: m.delayed_by_partition,
        message_size: m.message_size,
        delivery_latency: m.delivery_latency,
        visibility_lag,
        read_staleness: m.staleness,
        pending_observations: pending,
        converged,
        state_bits,
        per_shard: m
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
        stream_errors: m.stream_errors,
    };
    (report, m.work)
}

/// The output checks of one service run; a failure is recorded on `rep`.
fn check_outputs(cfg: &ServiceRunConfig, report: &ServiceReport, prefix: &str, rep: &mut Rep) {
    let shard_bits: u64 = report.per_shard.iter().map(|s| s.payload_bits).sum();
    let shard_ops: u64 = report.per_shard.iter().map(|s| s.ops).sum();
    rep.check(
        report.converged,
        &format!("{prefix}service run did not converge"),
    );
    rep.check(
        report.message_bits == shard_bits + report.envelope_overhead_bits,
        &format!("{prefix}message_bits != sum of shard payload bits + envelope overhead"),
    );
    rep.check(
        shard_ops == report.ops && report.ops == cfg.ops as u64,
        &format!("{prefix}per-shard ops do not sum to the ops run"),
    );
    if cfg.stream_window.is_some() {
        rep.check(
            report
                .stream
                .is_some_and(|v| v.causal && v.eventual && v.sessions),
            &format!("{prefix}online checkers reported a violation"),
        );
    }
}

fn p99(h: &Histogram) -> f64 {
    h.quantile(0.99).unwrap_or(0) as f64
}

/// One repetition of a service workload: pre-flight at smoke size, then
/// the timed call (`run_service`, or the mirror when `traced`), then the
/// output checks. Returns the tracer of a traced run.
pub fn run(
    shape: Shape,
    seed: u64,
    traced: bool,
    smoke: bool,
    started: Instant,
    rep: &mut Rep,
) -> Option<Tracer> {
    if !smoke {
        let cfg = config(shape, seed, true);
        let report = run_service(&DvvMvrStore, &cfg);
        check_outputs(&cfg, &report, "pre-flight: ", rep);
    }
    let cfg = config(shape, seed, smoke);
    let mut tracer = traced.then(|| {
        let mut tr = Tracer::new(LAYERS, cfg.ops);
        tr.keep_samples(DO_OP, cfg.ops + 3 * cfg.service.n_objects);
        tr
    });
    rep.put("setup_s", started.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let (report, work) = match &mut tracer {
        None => (run_service(&DvvMvrStore, &cfg), None),
        Some(tr) => {
            let (report, work) = run_mirror(&cfg, tr);
            (report, Some(work))
        }
    };
    rep.put("wall_s", t0.elapsed().as_secs_f64());

    check_outputs(&cfg, &report, "", rep);
    rep.attempted = report.ops;
    rep.failed = (report.stream_errors + report.pending_observations).min(report.ops);
    rep.fingerprint = fingerprint(report.to_json_string().as_bytes());
    rep.put(
        "wire_bytes_per_op",
        report.message_bits as f64 / 8.0 / report.ops as f64,
    );
    rep.put("visibility_lag_p99_ticks", p99(&report.visibility_lag));
    rep.put("read_staleness_p99", p99(&report.read_staleness));

    if let (Some(tr), Some(work)) = (&tracer, work) {
        for (layer, name) in LAYERS.iter().enumerate().skip(NEXT_OP) {
            let l = tr.layer(layer);
            if layer != ROUTE && layer != SWEEP && layer != CLOSING {
                rep.put(&format!("{name}.calls"), l.calls as f64);
            }
            rep.put(&format!("{name}.ns"), l.ns as f64);
        }
        let [do_op_p99] = tr.quantiles_ns(DO_OP, [0.99]);
        rep.put("stores.cluster.do_op.p99_ns", do_op_p99 as f64);
        rep.put(
            "stores.cluster.do_op.witness_dots",
            work.witness_dots as f64,
        );
        rep.put(
            "stores.cluster.flush_shard.payload_bits",
            work.flushed_bits as f64,
        );
        rep.put(
            "stores.envelope.encode.overhead_bits",
            report.envelope_overhead_bits as f64,
        );
        rep.put("sim.obs.lag.on_do.delta_dots", work.delta_dots as f64);
        rep.put("core.stream.push.witness_dots", work.pushed_dots as f64);
        rep.put("_layers_ns", tr.total_ns() as f64);
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mirror is only an instrument if it is `run_service`: the whole
    /// report — counters, histograms, per-shard tallies, verdicts — must be
    /// equal for every shape, and in the unbatched wire mode too.
    #[test]
    fn mirror_reproduces_run_service() {
        let mut configs: Vec<ServiceRunConfig> =
            [Shape::OneShard, Shape::EightShards, Shape::Checked]
                .iter()
                .map(|&shape| config(shape, 0xBEEF_CAFE, true))
                .collect();
        configs.push(ServiceRunConfig {
            batched: false,
            ..config(Shape::EightShards, 7, true)
        });
        for cfg in &configs {
            let expected = run_service(&DvvMvrStore, cfg);
            let mut tr = Tracer::new(LAYERS, cfg.ops);
            let (mirrored, work) = run_mirror(cfg, &mut tr);
            assert_eq!(mirrored, expected, "mirror diverged for {cfg:?}");
            assert_eq!(tr.layer(NEXT_OP).calls, cfg.ops as u64);
            assert!(work.witness_dots > 0);
        }
    }
}
