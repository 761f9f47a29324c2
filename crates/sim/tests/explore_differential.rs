//! Differential tests for the exploration engines.
//!
//! The incremental snapshot/restore DFS explorer — with and without
//! fingerprint dedup — must agree with the legacy replay-from-scratch
//! explorer on every store: same schedule count, same verdict, same first
//! counterexample. The replay explorer is the oracle: it rebuilds every
//! prefix from a fresh cluster, so it cannot be contaminated by
//! snapshot/restore or memoisation bugs.

use haec_core::witness::WitnessError;
use haec_core::{causal, check_correct, AbstractExecution, ObjectSpecs, SpecKind};
use haec_model::{ObjectId, Op, ReplicaId, StoreConfig, StoreFactory, Value};
use haec_sim::exhaustive::{
    explore_all, explore_all_observed, explore_all_parallel, explore_all_replay, replay, Action,
    ExhaustiveConfig,
};
use haec_sim::obs::{ForkJoinObserver, NullObserver, Observer};
use haec_sim::Simulator;
use haec_stores::{
    ArbitrationStore, BoundedStore, CausalRegisterStore, CopsStore, CounterStore, DvvMvrStore,
    EwFlagStore, KDelayedStore, LwwStore, OrSetStore, SequencedStore,
};
use std::collections::BTreeSet;

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}
fn x(i: u32) -> ObjectId {
    ObjectId::new(i)
}
fn v(i: u64) -> Value {
    Value::new(i)
}

/// Correct-and-causal predicate against the store's specification.
fn check_against(spec: SpecKind) -> impl FnMut(&Simulator) -> bool {
    move |sim| {
        let Ok(a) = sim.abstract_execution() else {
            return false;
        };
        check_correct(&a, &ObjectSpecs::uniform(spec)).is_ok() && causal::check(&a).is_ok()
    }
}

/// The same predicate, shaped for the parallel engine (`Fn + Sync` so the
/// worker pool can call it from every thread).
fn check_against_sync(spec: SpecKind) -> impl Fn(&Simulator) -> bool + Sync {
    move |sim| {
        let Ok(a) = sim.abstract_execution() else {
            return false;
        };
        check_correct(&a, &ObjectSpecs::uniform(spec)).is_ok() && causal::check(&a).is_ok()
    }
}

/// Runs all three engines on one store and asserts they agree exactly.
fn assert_engines_agree(
    factory: &dyn StoreFactory,
    spec: SpecKind,
    config: &ExhaustiveConfig,
) -> usize {
    let reference = explore_all_replay(factory, config, &mut check_against(spec));
    let dfs = explore_all(factory, config, &mut check_against(spec));
    assert_eq!(
        reference.schedules,
        dfs.schedules,
        "{}: DFS schedule count diverges from replay",
        factory.name()
    );
    assert_eq!(
        reference.counterexample,
        dfs.counterexample,
        "{}: DFS counterexample diverges from replay",
        factory.name()
    );
    let deduped = explore_all(
        factory,
        &ExhaustiveConfig {
            dedup: true,
            ..config.clone()
        },
        &mut check_against(spec),
    );
    assert_eq!(
        reference.schedules,
        deduped.schedules,
        "{}: dedup changes the schedule count",
        factory.name()
    );
    assert_eq!(
        reference.counterexample,
        deduped.counterexample,
        "{}: dedup changes the counterexample",
        factory.name()
    );
    // The parallel engine must reproduce the sequential result for every
    // thread count, with and without dedup.
    for threads in [1, 2, 8] {
        for dedup in [false, true] {
            let par = explore_all_parallel(
                factory,
                &ExhaustiveConfig {
                    dedup,
                    ..config.clone()
                },
                threads,
                &check_against_sync(spec),
                &mut NullObserver,
            );
            assert_eq!(
                reference.schedules,
                par.schedules,
                "{}: parallel schedule count diverges (threads={threads}, dedup={dedup})",
                factory.name()
            );
            assert_eq!(
                reference.counterexample,
                par.counterexample,
                "{}: parallel counterexample diverges (threads={threads}, dedup={dedup})",
                factory.name()
            );
        }
    }

    // The reduced engines prune interleavings, so they cannot promise the
    // same schedule count or the same first counterexample — but the
    // *verdict* must agree with the oracle on every store, the reduced
    // count can never exceed the unreduced one, the count must be
    // invariant across por / por+dedup / por+dedup+symmetry, and any
    // counterexample they report must replay to a failing state.
    let por = explore_all(
        factory,
        &ExhaustiveConfig {
            por: true,
            ..config.clone()
        },
        &mut check_against(spec),
    );
    assert!(
        por.schedules <= reference.schedules,
        "{}: POR explored more than the full tree",
        factory.name()
    );
    assert_eq!(
        reference.counterexample.is_some(),
        por.counterexample.is_some(),
        "{}: POR changes the verdict",
        factory.name()
    );
    if let Some(cex) = &por.counterexample {
        let sim = replay(factory, config, cex);
        assert!(
            !check_against(spec)(&sim),
            "{}: POR counterexample does not replay to a failure",
            factory.name()
        );
    }
    let por_dedup = explore_all(
        factory,
        &ExhaustiveConfig {
            por: true,
            dedup: true,
            ..config.clone()
        },
        &mut check_against(spec),
    );
    let por_sym = explore_all(
        factory,
        &ExhaustiveConfig {
            por: true,
            dedup: true,
            symmetry: true,
            ..config.clone()
        },
        &mut check_against(spec),
    );
    for (name, reduced) in [("por+dedup", &por_dedup), ("por+dedup+symmetry", &por_sym)] {
        assert_eq!(
            por.schedules,
            reduced.schedules,
            "{}: {name} changes the reduced schedule count",
            factory.name()
        );
        assert_eq!(
            por.counterexample,
            reduced.counterexample,
            "{}: {name} changes the reduced counterexample",
            factory.name()
        );
    }
    // The parallel engine shards the same reduced canonical tree.
    let par = explore_all_parallel(
        factory,
        &ExhaustiveConfig {
            por: true,
            dedup: true,
            symmetry: true,
            ..config.clone()
        },
        2,
        &check_against_sync(spec),
        &mut NullObserver,
    );
    assert_eq!(
        por.schedules,
        par.schedules,
        "{}: parallel reduced engine diverges",
        factory.name()
    );
    assert_eq!(por.counterexample, par.counterexample);

    reference.schedules
}

fn register_config(depth: usize) -> ExhaustiveConfig {
    ExhaustiveConfig {
        store_config: StoreConfig::new(2, 1),
        ops: vec![Op::Write(v(0)), Op::Read],
        depth,
        max_schedules: usize::MAX,
        dedup: false,
        por: false,
        symmetry: false,
    }
}

#[test]
fn dvv_mvr_engines_agree_depth5() {
    let n = assert_engines_agree(&DvvMvrStore, SpecKind::Mvr, &register_config(5));
    assert!(n > 1000, "exploration too shallow: {n}");
}

#[test]
fn cops_engines_agree_depth4() {
    assert_engines_agree(&CopsStore, SpecKind::Mvr, &register_config(4));
}

#[test]
fn causal_register_engines_agree_depth4() {
    assert_engines_agree(&CausalRegisterStore, SpecKind::Mvr, &register_config(4));
}

#[test]
fn lww_engines_agree_depth4() {
    assert_engines_agree(&LwwStore, SpecKind::LwwRegister, &register_config(4));
}

#[test]
fn orset_engines_agree_depth4() {
    let config = ExhaustiveConfig {
        ops: vec![Op::Add(v(0)), Op::Remove(v(0)), Op::Read],
        ..register_config(4)
    };
    assert_engines_agree(&OrSetStore, SpecKind::OrSet, &config);
}

#[test]
fn ewflag_engines_agree_depth4() {
    let config = ExhaustiveConfig {
        ops: vec![Op::Enable, Op::Disable, Op::Read],
        ..register_config(4)
    };
    assert_engines_agree(&EwFlagStore, SpecKind::EwFlag, &config);
}

#[test]
fn bounded_engines_agree_depth4_three_replicas() {
    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        ..register_config(4)
    };
    assert_engines_agree(&BoundedStore, SpecKind::Mvr, &config);
}

#[test]
fn engines_agree_on_a_failing_predicate() {
    // A history-sensitive predicate that does fail somewhere in the tree:
    // all three engines must stop at the same first counterexample.
    let config = register_config(5);
    let mk =
        || |sim: &Simulator| !(sim.execution().events().len() >= 3 && !sim.inflight().is_empty());
    let reference = explore_all_replay(&DvvMvrStore, &config, &mut mk());
    let dfs = explore_all(&DvvMvrStore, &config, &mut mk());
    let deduped = explore_all(
        &DvvMvrStore,
        &ExhaustiveConfig {
            dedup: true,
            ..config.clone()
        },
        &mut mk(),
    );
    assert!(reference.counterexample.is_some(), "predicate never failed");
    assert_eq!(reference.schedules, dfs.schedules);
    assert_eq!(reference.counterexample, dfs.counterexample);
    assert_eq!(reference.schedules, deduped.schedules);
    assert_eq!(reference.counterexample, deduped.counterexample);
    // The parallel engine stops at the same first counterexample and
    // counts the same number of schedules before it, at every thread count.
    for threads in [1, 2, 8] {
        let par = explore_all_parallel(
            &DvvMvrStore,
            &config,
            threads,
            &|sim: &Simulator| !(sim.execution().events().len() >= 3 && !sim.inflight().is_empty()),
            &mut NullObserver,
        );
        assert_eq!(reference.schedules, par.schedules, "threads={threads}");
        assert_eq!(
            reference.counterexample, par.counterexample,
            "threads={threads}"
        );
    }
    // The counterexample replays to a failing state.
    let sim = replay(
        &DvvMvrStore,
        &config,
        reference.counterexample.as_ref().unwrap(),
    );
    assert!(sim.execution().events().len() >= 3 && !sim.inflight().is_empty());
}

/// Fingerprint of everything `snapshot()` captures that a later transition
/// could disturb — the abstract execution included, which is answered from
/// a log the snapshot has to carry.
fn observable_state(
    sim: &Simulator,
) -> (
    Vec<u64>,
    usize,
    usize,
    Result<AbstractExecution, WitnessError>,
) {
    let n = sim.config().n_replicas;
    let fps: Vec<u64> = (0..n)
        .map(|i| sim.machine(r(i as u32)).state_fingerprint())
        .collect();
    (
        fps,
        sim.execution().events().len(),
        sim.inflight().len(),
        sim.abstract_execution(),
    )
}

#[test]
fn snapshot_op_restore_is_identity_for_every_store() {
    // Property: for every store, every prefix and every follow-up action,
    // `snapshot → action → restore` leaves the simulator indistinguishable
    // from never applying the action.
    for factory in haec_stores::all_factories() {
        // Each store accepts only its own update vocabulary.
        let update = |val: u64| match factory.name() {
            "orset" => Op::Add(v(val)),
            "counter" => Op::Inc,
            "ew-flag" => {
                if val % 2 == 0 {
                    Op::Enable
                } else {
                    Op::Disable
                }
            }
            _ => Op::Write(v(val)),
        };
        let prefixes: Vec<Vec<Action>> = vec![
            vec![],
            vec![Action::Do(r(0), x(0), update(1))],
            vec![Action::Do(r(0), x(0), update(1)), Action::Flush(r(0))],
            vec![
                Action::Do(r(0), x(0), update(1)),
                Action::Flush(r(0)),
                Action::Deliver(0),
                Action::Do(r(1), x(0), update(2)),
                Action::Flush(r(1)),
            ],
        ];
        let follow_ups = [
            Action::Do(r(0), x(0), update(9)),
            Action::Do(r(1), x(0), update(4)),
            Action::Do(r(0), x(0), Op::Read),
            Action::Flush(r(0)),
            Action::Flush(r(1)),
            Action::Deliver(0),
        ];
        for prefix in &prefixes {
            let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(2, 1));
            for (step, action) in prefix.iter().enumerate() {
                apply_action(&mut sim, action, step);
            }
            let before = observable_state(&sim);
            let snap = sim.snapshot();
            for action in &follow_ups {
                apply_action(&mut sim, action, prefix.len());
                sim.restore(&snap);
                assert_eq!(
                    observable_state(&sim),
                    before,
                    "{}: restore after {action:?} did not rewind prefix {prefix:?}",
                    factory.name()
                );
            }
            // The restored simulator also *behaves* identically: a full
            // quiesce from the restored state matches one from a replayed
            // fresh state.
            let mut fresh = Simulator::new(factory.as_ref(), StoreConfig::new(2, 1));
            for (step, action) in prefix.iter().enumerate() {
                apply_action(&mut fresh, action, step);
            }
            sim.quiesce();
            fresh.quiesce();
            assert_eq!(
                observable_state(&sim),
                observable_state(&fresh),
                "{}: restored simulator diverges from fresh replay",
                factory.name()
            );
        }
    }
}

/// Symbolic action for Mazurkiewicz trace-class identity: positional
/// `Deliver(i)` indices are rewritten into stable message-copy identities
/// `(origin, per-origin flush ordinal, recipient)` so that commuted
/// schedules map to the same alphabet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Sym {
    /// `(replica, object, index of the op in `config.ops`)`.
    Do(u32, u32, u32),
    /// `(origin, per-origin flush ordinal)`.
    Flush(u32, u32),
    /// `(origin, per-origin flush ordinal, recipient)`.
    Deliver(u32, u32, u32),
}

/// Rewrites a schedule prefix into its symbolic word by simulating the
/// in-flight list (flush appends one copy per other replica in recipient
/// order; deliver removes positionally — the exact simulator semantics).
fn symbolic_word(config: &ExhaustiveConfig, prefix: &[Action]) -> Vec<Sym> {
    let n = config.store_config.n_replicas as u32;
    let mut flushes = vec![0u32; n as usize];
    let mut inflight: Vec<(u32, u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(prefix.len());
    for action in prefix {
        match action {
            Action::Do(r, o, op) => {
                let oi = config
                    .ops
                    .iter()
                    .position(|p| p == op)
                    .expect("op not in config.ops") as u32;
                out.push(Sym::Do(r.index() as u32, o.index() as u32, oi));
            }
            Action::Flush(r) => {
                let r = r.index() as u32;
                let j = flushes[r as usize];
                flushes[r as usize] += 1;
                for to in 0..n {
                    if to != r {
                        inflight.push((r, j, to));
                    }
                }
                out.push(Sym::Flush(r, j));
            }
            Action::Deliver(i) => {
                let (o, j, to) = inflight.remove(*i);
                out.push(Sym::Deliver(o, j, to));
            }
        }
    }
    out
}

/// The dependence relation the independence proof in the exploration
/// module is the complement of: two actions are dependent when they touch
/// the same replica, plus the creation edge from a flush to the deliveries
/// of its copies.
fn dependent(a: Sym, b: Sym) -> bool {
    fn touched(s: Sym) -> u32 {
        match s {
            Sym::Do(r, _, _) | Sym::Flush(r, _) => r,
            Sym::Deliver(_, _, to) => to,
        }
    }
    if touched(a) == touched(b) {
        return true;
    }
    matches!(
        (a, b),
        (Sym::Flush(o, j), Sym::Deliver(p, k, _)) | (Sym::Deliver(p, k, _), Sym::Flush(o, j))
            if o == p && j == k
    )
}

/// Canonical representative of a word's Mazurkiewicz class: the
/// lexicographically least linearisation of its dependence poset, computed
/// greedily (always emit the smallest ready action). Two words get the
/// same canonical form iff they are trace-equivalent.
fn canonical_trace(word: &[Sym]) -> Vec<Sym> {
    let n = word.len();
    let mut used = vec![false; n];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for i in 0..n {
            if used[i] {
                continue;
            }
            let ready = (0..i).all(|j| used[j] || !dependent(word[j], word[i]));
            if ready && best.is_none_or(|b| word[i] < word[b]) {
                best = Some(i);
            }
        }
        let b = best.expect("dependence poset has a ready element");
        used[b] = true;
        out.push(word[b]);
    }
    out
}

/// Collects every visited schedule prefix, in the order the observer is
/// told: the window into the (reduced) tree. Forks empty and joins by
/// appending, so the parallel engine's canonical-order merge rebuilds the
/// sequential walker's pre-order.
#[derive(Default)]
struct Prefixes(Vec<Vec<Action>>);

impl Observer for Prefixes {
    fn on_search_node(&mut self, prefix: &[Action], _frontier: usize) {
        self.0.push(prefix.to_vec());
    }
}

impl ForkJoinObserver for Prefixes {
    fn fork(&self) -> Self {
        Prefixes::default()
    }
    fn join(&mut self, child: Self) {
        self.0.extend(child.0);
    }
}

/// The prefixes the sequential walker visits under `config`, in pre-order.
fn visited_prefixes(config: &ExhaustiveConfig) -> Vec<Vec<Action>> {
    let mut seen = Prefixes::default();
    explore_all_observed(&DvvMvrStore, config, &mut |_| true, &mut seen);
    seen.0
}

/// Brute-force soundness oracle for the sleep-set reduction: at small
/// depths, the reduced tree must keep at least one representative of
/// *every* Mazurkiewicz trace class the unreduced tree explores — for
/// every prefix length, not just maximal words — while exploring strictly
/// fewer schedules.
#[test]
fn por_keeps_a_representative_of_every_trace_class() {
    for depth in [3, 4] {
        let config = register_config(depth);
        let classes = |prefixes: &[Vec<Action>]| -> BTreeSet<Vec<Sym>> {
            prefixes
                .iter()
                .map(|p| canonical_trace(&symbolic_word(&config, p)))
                .collect()
        };
        let full_walk = visited_prefixes(&config);
        let (full, full_prefixes) = (classes(&full_walk), full_walk.len());
        let reduced_walk = visited_prefixes(&ExhaustiveConfig {
            por: true,
            ..config.clone()
        });
        let (reduced, reduced_prefixes) = (classes(&reduced_walk), reduced_walk.len());
        // Soundness: nothing new, nothing lost.
        assert!(
            reduced.is_subset(&full),
            "depth {depth}: POR explored a class outside the full tree"
        );
        let missing: Vec<_> = full.difference(&reduced).take(3).collect();
        assert!(
            missing.is_empty(),
            "depth {depth}: POR lost trace classes, e.g. {missing:?}"
        );
        // Effectiveness: the classes are covered with fewer words.
        assert!(
            reduced_prefixes < full_prefixes,
            "depth {depth}: sleep sets pruned nothing ({reduced_prefixes} vs {full_prefixes})"
        );
    }
}

/// The per-node hook crosses into the parallel engine's workers: at every
/// thread count the caller's observer is handed exactly the prefixes the
/// sequential walker visits, in its pre-order — the prefix phase's nodes
/// replayed from the buffer, each unit's nodes joined at the unit's
/// canonical position — on the full tree and on the sleep-set-reduced one.
#[test]
fn parallel_engine_hands_the_observer_the_sequential_prefixes_in_preorder() {
    for por in [false, true] {
        let config = ExhaustiveConfig {
            por,
            ..register_config(4)
        };
        let sequential = visited_prefixes(&config);
        assert_eq!(sequential.len(), if por { 230 } else { 567 });
        for threads in [1, 2] {
            let mut seen = Prefixes::default();
            let par = explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut seen);
            assert_eq!(
                par.schedules,
                sequential.len(),
                "por={por} threads={threads}"
            );
            assert!(
                seen.0 == sequential,
                "por={por} threads={threads}: the observer's prefixes left the sequential pre-order"
            );
        }
    }
}

/// Known-answer pin for the reduced engine: the exact schedule count of
/// the sleep-set exploration on the default register workload. Any change
/// to the child order, the independence relation, or the sleep-set
/// propagation moves this number — bump it only with a differential rerun
/// (`por_keeps_a_representative_of_every_trace_class`) in hand.
#[test]
fn por_schedule_count_known_answer() {
    let config = register_config(4);
    let unreduced = explore_all(&DvvMvrStore, &config, &mut check_against(SpecKind::Mvr));
    let por = explore_all(
        &DvvMvrStore,
        &ExhaustiveConfig {
            por: true,
            ..config.clone()
        },
        &mut check_against(SpecKind::Mvr),
    );
    assert_eq!(unreduced.schedules, 567);
    assert_eq!(por.schedules, 230);
    assert!(por.counterexample.is_none());
}

/// Absolute known-answers for the parallel engine. Every other parallel
/// pin compares thread counts against each other, so a refactor that moved
/// the partition (split depth, publication levels, a prefix phase that
/// starts probing a dedup table) would pass them all. Reported as
/// `(schedules, dedup_hits, dedup_misses)`; the sequential triple differs
/// from the parallel one because units probe private memos plus the
/// entries published at the level barriers before them, and prefix nodes
/// probe nothing.
#[test]
fn parallel_dedup_counters_known_answers() {
    let kat = |config: ExhaustiveConfig, sequential: (usize, u64, u64), parallel| {
        let seq = explore_all(&DvvMvrStore, &config, &mut |_| true);
        assert_eq!(
            (seq.schedules, seq.dedup_hits, seq.dedup_misses),
            sequential,
            "sequential {config:?}"
        );
        for threads in [1, 2, 8] {
            let par =
                explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut NullObserver);
            assert_eq!(
                (par.schedules, par.dedup_hits, par.dedup_misses),
                parallel,
                "threads={threads} {config:?}"
            );
        }
    };
    let three_by_two = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        dedup: true,
        ..register_config(4)
    };
    kat(
        ExhaustiveConfig {
            por: true,
            symmetry: true,
            ..three_by_two.clone()
        },
        (6185, 902, 1474),
        (6185, 1418, 2934),
    );
    kat(three_by_two, (28123, 2774, 4594), (28123, 5631, 8468));
    kat(
        ExhaustiveConfig {
            store_config: StoreConfig::new(4, 1),
            dedup: true,
            por: true,
            ..register_config(5)
        },
        (6059, 756, 3221),
        (6059, 818, 4682),
    );
}

/// FNV-1a (64-bit) of `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One pinned walk: `(store, replicas, objects, depth, dedup + por,
/// visited prefixes, FNV-1a over the Debug of every abstract_execution())`.
type PinnedWalk = (&'static str, usize, usize, usize, bool, usize, u64);

/// One pinned search: `(store, replicas, objects, depth, dedup + por,
/// first counterexample)`, the counterexample as FNV-1a of the prefix's
/// `Debug` and the violation's `Debug` verbatim.
type PinnedSearch<S> = (&'static str, usize, usize, usize, bool, Option<(u64, S)>);

/// A store under the pin: `(name, factory, spec, ops, cluster shape)`.
type RosterRow<'a> = (
    &'static str,
    &'a dyn StoreFactory,
    SpecKind,
    &'a Vec<Op>,
    StoreConfig,
);

/// Generated at 140f043, before the abstract execution became incremental.
#[rustfmt::skip]
const PINNED_WALKS: &[PinnedWalk] = &[
    ("dvv-mvr", 2, 1, 4, false, 567, 0xcf60f1df1807a286),
    ("dvv-mvr", 2, 1, 4, true, 176, 0x5d4475113457618d),
    ("cops-mvr", 2, 1, 4, false, 567, 0xcf60f1df1807a286),
    ("cops-mvr", 2, 1, 4, true, 176, 0x5d4475113457618d),
    ("causal-register", 2, 1, 4, false, 567, 0xcf60f1df1807a286),
    ("causal-register", 2, 1, 4, true, 176, 0x5d4475113457618d),
    ("lww", 2, 1, 4, false, 567, 0xcf60f1df1807a286),
    ("lww", 2, 1, 4, true, 176, 0x5d4475113457618d),
    ("orset", 2, 1, 4, false, 2435, 0x74b4e0e81177a9c6),
    ("orset", 2, 1, 4, true, 753, 0x846794ff6c2fc30b),
    ("counter", 2, 1, 4, false, 567, 0xff8e1f2b41de1b84),
    ("counter", 2, 1, 4, true, 103, 0x3ddcf4611f542951),
    ("ew-flag", 2, 1, 4, false, 2435, 0x03f0c30b674b83b6),
    ("ew-flag", 2, 1, 4, true, 471, 0x278ab343b791c660),
    ("k-delayed", 2, 1, 4, false, 567, 0x6d953c769fe85fda),
    ("k-delayed", 2, 1, 4, true, 223, 0x4177a7a542be5634),
    ("arbitration-mvr", 3, 2, 4, false, 28123, 0x68487c6f08b1cb14),
    ("arbitration-mvr", 3, 2, 4, true, 1863, 0x481088c11cc6ca31),
    ("bounded", 3, 2, 4, false, 28123, 0x68487c6f08b1cb14),
    ("bounded", 3, 2, 4, true, 1683, 0x860a51e88c432ceb),
    ("sequenced", 3, 1, 4, false, 2361, 0x0d4e222a4d8b579c),
    ("sequenced", 3, 1, 4, true, 406, 0x5f4c0d54f94928e1),
    ("dvv-mvr", 3, 2, 5, false, 386419, 0xfb6251fec8a9a56e),
    ("dvv-mvr", 3, 2, 5, true, 9732, 0xb35113f4bacf8be8),
];

/// Generated at 140f043 with the walks above.
#[rustfmt::skip]
const PINNED_SEARCHES: &[PinnedSearch<&str>] = &[
    ("dvv-mvr", 2, 1, 4, false, None),
    ("cops-mvr", 2, 1, 4, false, None),
    ("causal-register", 2, 1, 4, false, None),
    ("lww", 2, 1, 4, false, None),
    ("orset", 2, 1, 4, false, None),
    ("counter", 2, 1, 4, false, None),
    ("ew-flag", 2, 1, 4, false, None),
    ("k-delayed", 2, 1, 4, false, None),
    ("arbitration-mvr", 3, 2, 4, false, None),
    ("bounded", 3, 2, 4, false, None),
    ("sequenced", 3, 1, 4, false, Some((0x322c193c55e93875, "CorrectnessViolation { event: 3, expected: Values({Value(1002)}), actual: Values({}) }"))),
    ("arbitration-mvr", 3, 1, 6, true, Some((0x6a448237c6f682a5, "CorrectnessViolation { event: 3, expected: Values({Value(1001), Value(1003)}), actual: Values({Value(1001)}) }"))),
    ("bounded", 3, 1, 7, true, Some((0x98a17d2df916b2d3, "CausalityViolation { e1: 2, e2: 3, e3: 4 }"))),
];

/// Walks `config`'s tree with an always-true predicate and hashes the
/// `Debug` of `abstract_execution()` — the `Ok` value or the `Err` — at
/// every visited prefix, in visit order. The live simulator the DFS walks
/// and undoes is the one asked; a fresh `replay` of the same prefix must
/// say the same.
fn pin_walk(
    name: &'static str,
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
) -> PinnedWalk {
    assert_eq!(factory.name(), name);
    let mut hash = FNV_OFFSET;
    // The observer is told a node's prefix just before the predicate sees
    // the live simulator at that node, so the two lists pair up by index.
    let mut lives: Vec<String> = Vec::new();
    let mut seen = Prefixes::default();
    explore_all_observed(
        factory,
        config,
        &mut |sim| {
            let live = format!("{:?}", sim.abstract_execution());
            hash = fnv1a(hash, live.as_bytes());
            lives.push(live);
            true
        },
        &mut seen,
    );
    let nodes = lives.len();
    assert_eq!(seen.0.len(), nodes, "{name}: one prefix per predicate call");
    for (prefix, live) in seen.0.iter().zip(&lives) {
        assert_eq!(
            *live,
            format!("{:?}", replay(factory, config, prefix).abstract_execution()),
            "{name}: the walked simulator disagrees with a fresh replay"
        );
    }
    let shape = config.store_config;
    (
        name,
        shape.n_replicas,
        shape.n_objects,
        config.depth,
        config.dedup,
        nodes,
        hash,
    )
}

/// Searches `config`'s tree with the correct-and-causal predicate and
/// reports the first counterexample with the violation it replays to.
fn pin_search(
    name: &'static str,
    factory: &dyn StoreFactory,
    spec: SpecKind,
    config: &ExhaustiveConfig,
) -> PinnedSearch<String> {
    let report = explore_all(factory, config, &mut check_against(spec));
    let found = report.counterexample.map(|prefix| {
        let a = replay(factory, config, &prefix)
            .abstract_execution()
            .expect("every roster store reports resolvable witnesses");
        let violation = match check_correct(&a, &ObjectSpecs::uniform(spec)) {
            Err(e) => format!("{e:?}"),
            Ok(()) => format!("{:?}", causal::check(&a).expect_err("the predicate failed")),
        };
        let prefix = fnv1a(FNV_OFFSET, format!("{prefix:?}").as_bytes());
        (prefix, violation)
    });
    let shape = config.store_config;
    (
        name,
        shape.n_replicas,
        shape.n_objects,
        config.depth,
        config.dedup,
        found,
    )
}

/// The candidate abstract execution is a function of the transcript alone,
/// so however `Simulator::abstract_execution` computes it, its value at
/// every prefix the explorer visits is fixed. Pinned per store and engine
/// (dedup off, and dedup + por) for the seven conformance stores and the
/// four counterexample stores at depth 4, dvv-mvr also at depth 5 on 3
/// replicas × 2 objects; beside each walk, the store's first
/// counterexample and its violation, and for the two stores whose first
/// one lies deeper (arbitration at 6, bounded at 7) a reduced search that
/// reaches it.
#[test]
fn every_visited_prefix_has_its_pinned_abstract_execution() {
    let register = vec![Op::Write(v(0)), Op::Read];
    let set = vec![Op::Add(v(0)), Op::Remove(v(0)), Op::Read];
    let flag = vec![Op::Enable, Op::Disable, Op::Read];
    let counter = vec![Op::Inc, Op::Read];
    let k_delayed = KDelayedStore::new(2);
    #[rustfmt::skip]
    let roster: [RosterRow<'_>; 11] = [
        ("dvv-mvr", &DvvMvrStore, SpecKind::Mvr, &register, StoreConfig::new(2, 1)),
        ("cops-mvr", &CopsStore, SpecKind::Mvr, &register, StoreConfig::new(2, 1)),
        ("causal-register", &CausalRegisterStore, SpecKind::Mvr, &register, StoreConfig::new(2, 1)),
        ("lww", &LwwStore, SpecKind::LwwRegister, &register, StoreConfig::new(2, 1)),
        ("orset", &OrSetStore, SpecKind::OrSet, &set, StoreConfig::new(2, 1)),
        ("counter", &CounterStore, SpecKind::Counter, &counter, StoreConfig::new(2, 1)),
        ("ew-flag", &EwFlagStore, SpecKind::EwFlag, &flag, StoreConfig::new(2, 1)),
        ("k-delayed", &k_delayed, SpecKind::Mvr, &register, StoreConfig::new(2, 1)),
        ("arbitration-mvr", &ArbitrationStore, SpecKind::Mvr, &register, StoreConfig::new(3, 2)),
        ("bounded", &BoundedStore, SpecKind::Mvr, &register, StoreConfig::new(3, 2)),
        ("sequenced", &SequencedStore, SpecKind::Mvr, &register, StoreConfig::new(3, 1)),
    ];
    let reduced = |config: &ExhaustiveConfig| ExhaustiveConfig {
        dedup: true,
        por: true,
        ..config.clone()
    };
    let mut walks = Vec::new();
    let mut searches = Vec::new();
    for (name, factory, spec, ops, store_config) in roster {
        let config = ExhaustiveConfig {
            store_config,
            ops: ops.clone(),
            ..register_config(4)
        };
        walks.push(pin_walk(name, factory, &config));
        walks.push(pin_walk(name, factory, &reduced(&config)));
        searches.push(pin_search(name, factory, spec, &config));
    }
    let deeper = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        ..register_config(5)
    };
    walks.push(pin_walk("dvv-mvr", &DvvMvrStore, &deeper));
    walks.push(pin_walk("dvv-mvr", &DvvMvrStore, &reduced(&deeper)));
    for (name, factory, depth) in [
        ("arbitration-mvr", &ArbitrationStore as &dyn StoreFactory, 6),
        ("bounded", &BoundedStore, 7),
    ] {
        let config = reduced(&ExhaustiveConfig {
            store_config: StoreConfig::new(3, 1),
            ..register_config(depth)
        });
        searches.push(pin_search(name, factory, SpecKind::Mvr, &config));
    }
    let pinned_searches: Vec<PinnedSearch<String>> = PINNED_SEARCHES
        .iter()
        .map(|&(name, n, o, depth, red, found)| {
            (
                name,
                n,
                o,
                depth,
                red,
                found.map(|(h, s)| (h, s.to_owned())),
            )
        })
        .collect();
    assert_eq!(walks, PINNED_WALKS);
    assert_eq!(searches, pinned_searches);
}

/// Applies an action the same way the explorers do (without uniquification,
/// which is irrelevant here since values are explicit).
fn apply_action(sim: &mut Simulator, action: &Action, _step: usize) {
    match action {
        Action::Do(replica, obj, op) => {
            sim.do_op(*replica, *obj, op.clone());
        }
        Action::Flush(replica) => {
            sim.flush(*replica);
        }
        Action::Deliver(i) => {
            if *i < sim.inflight().len() {
                sim.deliver(*i);
            }
        }
    }
}
