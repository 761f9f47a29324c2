//! The explorer path: `haec_sim::exhaustive::explore_all`.
//!
//! The predicate closure is the benchmark's own, so the traced run times
//! it from inside: abstract-execution construction, the correctness check
//! and the causal check, per call. Whatever `explore_all` spends outside
//! the predicate — snapshot/undo, fingerprints, sleep sets, the dedup
//! table — is the engine's self time. A fixed probe walk over a bare
//! `Simulator` prices the engine's primitives one by one.

use crate::rep::{fingerprint, Rep};
use crate::trace::Tracer;
use haec_core::{causal, check_correct, ObjectSpecs, SpecKind};
use haec_model::{ObjectId, Op, ReplicaId, StoreConfig, StoreFactory, Value};
use haec_sim::exhaustive::{explore_all, ExhaustiveConfig, ExhaustiveReport};
use haec_sim::Simulator;
use haec_stores::{
    BoundedStore, CausalRegisterStore, CopsStore, DvvMvrStore, EwFlagStore, LwwStore, OrSetStore,
};
use haec_testkit::Rng;
use std::time::Instant;

/// The two explorer workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Unreduced walk with the dedup table.
    Dedup,
    /// Sleep-set partial-order reduction on top of dedup.
    Por,
}

/// `explore-dedup` at full size visits exactly this tree; any other count
/// means the engine no longer enumerates what it did.
const DEDUP_PINNED: (usize, u64, u64) = (8_236_461, 391_289, 670_007);

/// The config of `shape`. Exhaustive, so there is no seed; smoke runs two
/// levels shallower (about 1/50 of the schedules).
pub fn config(shape: Shape, smoke: bool) -> ExhaustiveConfig {
    let depth = match shape {
        Shape::Dedup => 7,
        Shape::Por => 9,
    };
    ExhaustiveConfig {
        store_config: StoreConfig::new(4, 1),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: if smoke { depth - 2 } else { depth },
        max_schedules: usize::MAX,
        dedup: true,
        por: shape == Shape::Por,
        symmetry: false,
    }
}

fn correct_and_causal(spec: SpecKind) -> impl FnMut(&Simulator) -> bool {
    move |sim: &Simulator| {
        let Ok(a) = sim.abstract_execution() else {
            return false;
        };
        check_correct(&a, &ObjectSpecs::uniform(spec)).is_ok() && causal::check(&a).is_ok()
    }
}

/// Soundness before speed (the gate of `benches/explore.rs`): on each of
/// the seven stores of the differential roster, at depth 4, the reduced
/// engine must reach dfs-dedup's verdict with no more schedules.
fn reduced_verdicts_match_dedup(rep: &mut Rep) {
    let register = vec![Op::Write(Value::new(0)), Op::Read];
    let stores: [(&dyn StoreFactory, SpecKind, Vec<Op>, StoreConfig); 7] = [
        (
            &DvvMvrStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &CopsStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &CausalRegisterStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &LwwStore,
            SpecKind::LwwRegister,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &OrSetStore,
            SpecKind::OrSet,
            vec![Op::Add(Value::new(0)), Op::Remove(Value::new(0)), Op::Read],
            StoreConfig::new(2, 1),
        ),
        (
            &EwFlagStore,
            SpecKind::EwFlag,
            vec![Op::Enable, Op::Disable, Op::Read],
            StoreConfig::new(2, 1),
        ),
        (
            &BoundedStore,
            SpecKind::Mvr,
            register,
            StoreConfig::new(3, 2),
        ),
    ];
    for (factory, spec, ops, store_config) in stores {
        let dedup = ExhaustiveConfig {
            store_config,
            ops,
            depth: 4,
            max_schedules: usize::MAX,
            dedup: true,
            por: false,
            symmetry: false,
        };
        let reduced = ExhaustiveConfig {
            por: true,
            ..dedup.clone()
        };
        let base = explore_all(factory, &dedup, &mut correct_and_causal(spec));
        let red = explore_all(factory, &reduced, &mut correct_and_causal(spec));
        rep.check(
            base.counterexample.is_some() == red.counterexample.is_some(),
            &format!(
                "verdict gate: por diverges from dfs-dedup on {}",
                factory.name()
            ),
        );
        rep.check(
            red.schedules <= base.schedules,
            &format!(
                "verdict gate: por explored more schedules on {}",
                factory.name()
            ),
        );
    }
}

const PREDICATE: usize = 0;
const ABSTRACT_EXECUTION: usize = 1;
const CHECK_CORRECT: usize = 2;
const CAUSAL_CHECK: usize = 3;
const BEGIN_STEP: usize = 4;
const UNDO_STEP: usize = 5;
const SNAPSHOT_RESTORE: usize = 6;
const FINGERPRINT: usize = 7;

const LAYERS: &[&str] = &[
    "sim.exhaustive.predicate",
    "sim.simulator.abstract_execution",
    "core.check_correct",
    "core.causal.check",
    "sim.simulator.begin_step",
    "sim.simulator.undo_step",
    "sim.simulator.snapshot_restore",
    "stores.machine.state_fingerprint",
];

/// `explore_all` with the predicate's three phases timed per call.
fn explore_traced(cfg: &ExhaustiveConfig, tr: &mut Tracer) -> ExhaustiveReport {
    let specs = ObjectSpecs::uniform(SpecKind::Mvr);
    let mut calls = 0u64;
    explore_all(&DvvMvrStore, cfg, &mut |sim: &Simulator| {
        tr.start_op(calls);
        calls += 1;
        tr.open(PREDICATE);
        let verdict = match tr.time(ABSTRACT_EXECUTION, || sim.abstract_execution()) {
            Err(_) => false,
            Ok(a) => {
                tr.time(CHECK_CORRECT, || check_correct(&a, &specs).is_ok())
                    && tr.time(CAUSAL_CHECK, || causal::check(&a).is_ok())
            }
        };
        tr.close();
        verdict
    })
}

/// Probe walks of this depth (the explorer never holds a longer history).
const PROBE_DEPTH: usize = 8;
/// Total probe steps; the walk and its rng seed are fixed.
const PROBE_STEPS: usize = 100_000;

/// Prices the explorer's primitives on a 4-replica cluster: random walks
/// of [`PROBE_DEPTH`] steps from the empty state, each step bracketed by
/// `begin_step`/`undo_step` as the DFS does it, with a fingerprint of the
/// touched machine per step and one snapshot/restore per walk.
fn probe_walk(steps: usize, tr: &mut Tracer) {
    let n_replicas = 4;
    let obj = ObjectId::new(0);
    let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(n_replicas, 1));
    let mut rng = Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let mut undos = Vec::with_capacity(PROBE_DEPTH);
    for walk in 0..steps / PROBE_DEPTH {
        tr.start_op(walk as u64);
        for step in 0..PROBE_DEPTH {
            // Deliver an in-flight copy, or act at a replica: flush (when
            // something is pending), write or read.
            let inflight = sim.inflight().len();
            let pick = rng.bounded((inflight + 3 * n_replicas) as u64) as usize;
            let replica = if pick < inflight {
                sim.inflight()[pick].to
            } else {
                ReplicaId::new(((pick - inflight) / 3) as u32)
            };
            let act = if pick < inflight {
                3
            } else {
                (pick - inflight) % 3
            };
            let flush = act == 0 && sim.machine(replica).pending_message().is_some();
            let undo = tr.time(BEGIN_STEP, || sim.begin_step(replica, flush || act == 3));
            match act {
                3 => {
                    sim.deliver(pick);
                }
                0 if flush => {
                    sim.flush(replica);
                }
                0 | 1 => {
                    let value = Value::new(1000 + (walk * PROBE_DEPTH + step) as u64);
                    sim.do_op(replica, obj, Op::Write(value));
                }
                _ => {
                    sim.do_op(replica, obj, Op::Read);
                }
            }
            undos.push(undo);
            std::hint::black_box(tr.time(FINGERPRINT, || sim.machine(replica).state_fingerprint()));
        }
        tr.time(SNAPSHOT_RESTORE, || {
            let snap = sim.snapshot();
            sim.restore(&snap);
        });
        while let Some(undo) = undos.pop() {
            tr.time(UNDO_STEP, || sim.undo_step(undo));
        }
    }
}

/// One repetition of an explorer workload: the verdict gate (for `Por`)
/// and a smoke-size pre-flight in set-up, then the timed `explore_all`,
/// then the output checks. Returns the tracer of a traced run.
pub fn run(
    shape: Shape,
    traced: bool,
    smoke: bool,
    started: Instant,
    rep: &mut Rep,
) -> Option<Tracer> {
    if shape == Shape::Por {
        reduced_verdicts_match_dedup(rep);
    }
    if !smoke {
        let pre = explore_all(
            &DvvMvrStore,
            &config(shape, true),
            &mut correct_and_causal(SpecKind::Mvr),
        );
        rep.check(
            pre.all_passed(),
            "pre-flight: counterexample at smoke depth",
        );
    }
    let cfg = config(shape, smoke);
    let mut tracer = traced.then(|| Tracer::new(LAYERS, 1 << 20));
    rep.put("setup_s", started.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let report = match &mut tracer {
        None => explore_all(&DvvMvrStore, &cfg, &mut correct_and_causal(SpecKind::Mvr)),
        Some(tr) => explore_traced(&cfg, tr),
    };
    let wall = t0.elapsed();
    rep.put("wall_s", wall.as_secs_f64());

    rep.check(report.all_passed(), "explorer found a counterexample");
    rep.check(report.schedules > 0, "explorer visited no schedule");
    if shape == Shape::Dedup && !smoke {
        rep.check(
            (report.schedules, report.dedup_hits, report.dedup_misses) == DEDUP_PINNED,
            "explore-dedup left its pinned schedule / hit / miss counts",
        );
    }
    rep.attempted = 1;
    rep.fingerprint = fingerprint(
        format!(
            "{} {} {} {}",
            report.schedules,
            report.dedup_hits,
            report.dedup_misses,
            report.all_passed()
        )
        .as_bytes(),
    );
    let lookups = report.dedup_hits + report.dedup_misses;
    rep.put("sim.exhaustive.schedules", report.schedules as f64);
    rep.put("sim.exhaustive.dedup_hits", report.dedup_hits as f64);
    rep.put("sim.exhaustive.dedup_misses", report.dedup_misses as f64);
    rep.put(
        "sim.exhaustive.dedup_hit_ratio",
        report.dedup_hits as f64 / lookups.max(1) as f64,
    );

    if let Some(tr) = &mut tracer {
        let predicate_ns = tr.total_ns();
        let engine_self_ns = (wall.as_nanos() as u64).saturating_sub(predicate_ns);
        probe_walk(if smoke { PROBE_STEPS / 50 } else { PROBE_STEPS }, tr);
        let per_call = |tr: &Tracer, layers: &[usize]| {
            let ns: u64 = layers.iter().map(|&l| tr.layer(l).ns).sum();
            ns as f64 / tr.layer(layers[0]).calls.max(1) as f64
        };
        rep.put(
            "sim.exhaustive.predicate.calls",
            tr.layer(PREDICATE).calls as f64,
        );
        rep.put(
            "sim.simulator.abstract_execution.ns",
            tr.layer(ABSTRACT_EXECUTION).ns as f64,
        );
        rep.put("core.check_correct.ns", tr.layer(CHECK_CORRECT).ns as f64);
        rep.put("core.causal.check.ns", tr.layer(CAUSAL_CHECK).ns as f64);
        rep.put("sim.exhaustive.engine_self_ns", engine_self_ns as f64);
        rep.put(
            "sim.exhaustive.engine_self_ns_per_schedule",
            engine_self_ns as f64 / report.schedules.max(1) as f64,
        );
        rep.put(
            "sim.simulator.step_undo.ns_per_call",
            per_call(tr, &[BEGIN_STEP, UNDO_STEP]),
        );
        rep.put(
            "sim.simulator.snapshot_restore.ns_per_call",
            per_call(tr, &[SNAPSHOT_RESTORE]),
        );
        rep.put(
            "stores.machine.state_fingerprint.ns_per_call",
            per_call(tr, &[FINGERPRINT]),
        );
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timing the predicate must not change what the engine explores.
    #[test]
    fn traced_predicate_yields_the_same_counters() {
        for shape in [Shape::Dedup, Shape::Por] {
            let cfg = config(shape, true);
            let plain = explore_all(&DvvMvrStore, &cfg, &mut correct_and_causal(SpecKind::Mvr));
            let mut tr = Tracer::new(LAYERS, 1024);
            let traced = explore_traced(&cfg, &mut tr);
            assert_eq!(
                (plain.schedules, plain.dedup_hits, plain.dedup_misses),
                (traced.schedules, traced.dedup_hits, traced.dedup_misses),
            );
            assert_eq!(plain.counterexample, traced.counterexample);
            assert!(tr.layer(PREDICATE).calls > 0);
        }
    }
}
