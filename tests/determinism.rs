//! Determinism regression: a scheduler run is a pure function of
//! `(store, workload, config, seed)`.
//!
//! The whole scientific value of seeded exploration rests on this — a
//! counterexample seed printed months ago must replay the identical
//! execution trace byte for byte, across platforms and releases. The
//! trace text format is the canonical serialization, so byte equality of
//! `trace::to_text` is the strongest practical statement of "identical
//! run".

use haec::prelude::*;
use haec::sim::trace;

fn run(steps: usize, seed: u64, spec: SpecKind, factory: &dyn StoreFactory) -> String {
    let mut sim = Simulator::new(factory, StoreConfig::new(3, 2));
    let mut wl = Workload::new(spec, 3, 2, 0.4, KeyDistribution::Uniform);
    let cfg = ScheduleConfig {
        steps,
        ..ScheduleConfig::default()
    };
    run_schedule(&mut sim, &mut wl, &cfg, seed);
    trace::to_text(sim.execution())
}

#[test]
fn same_seed_same_trace_bytes() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        let a = run(250, seed, SpecKind::Mvr, &DvvMvrStore);
        let b = run(250, seed, SpecKind::Mvr, &DvvMvrStore);
        assert_eq!(a.as_bytes(), b.as_bytes(), "seed {seed} not reproducible");
    }
}

#[test]
fn same_seed_same_trace_across_stores() {
    // Determinism is not an MVR accident: every store family replays.
    let factories: [(&dyn StoreFactory, SpecKind); 3] = [
        (&OrSetStore, SpecKind::OrSet),
        (&LwwStore, SpecKind::LwwRegister),
        (&CounterStore, SpecKind::Counter),
    ];
    for (factory, spec) in factories {
        let a = run(150, 7, spec, factory);
        let b = run(150, 7, spec, factory);
        assert_eq!(
            a.as_bytes(),
            b.as_bytes(),
            "{} not reproducible",
            factory.name()
        );
    }
}

#[test]
fn different_seeds_different_schedules() {
    let traces: Vec<String> = (0..5)
        .map(|s| run(250, s, SpecKind::Mvr, &DvvMvrStore))
        .collect();
    for i in 0..traces.len() {
        for j in i + 1..traces.len() {
            assert_ne!(
                traces[i], traces[j],
                "seeds {i} and {j} produced identical schedules"
            );
        }
    }
}

#[test]
fn report_json_is_byte_identical_across_same_seed_runs() {
    // The structured run report — the same path `report --json` drives —
    // must serialize byte-identically for the same (store, config, seed).
    // The normalized form zeroes the wall-clock span nanoseconds, which
    // are the one sanctioned nondeterministic field.
    use haec::sim::{ReportConfig, RunReport};

    let config = ReportConfig {
        exploration: ExplorationConfig {
            schedule: ScheduleConfig {
                steps: 200,
                drop_prob: 0.05,
                dup_prob: 0.05,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        },
        log_capacity: 16,
        ..ReportConfig::default()
    };
    for seed in [7u64, 42] {
        let a = RunReport::collect(&DvvMvrStore, &config, seed).to_json_normalized();
        let b = RunReport::collect(&DvvMvrStore, &config, seed).to_json_normalized();
        assert_eq!(
            a.as_bytes(),
            b.as_bytes(),
            "report JSON for seed {seed} not byte-identical"
        );
    }
}

#[test]
fn parallel_exploration_report_json_is_byte_identical_across_thread_counts() {
    // The parallel explorer's whole claim: the run-report JSON assembled
    // from its observer stream is byte-for-byte the sequential report, at
    // every thread count. Nothing about worker scheduling may leak into
    // the serialized output.
    use haec::sim::exhaustive::ExhaustiveConfig;
    use haec::sim::exhaustive::{explore_all_observed, explore_all_parallel};
    use haec::sim::obs::stats::StatsObserver;
    use haec::sim::{ReportConfig, RunReport};

    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(2, 1),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: 4,
        max_schedules: usize::MAX,
        dedup: false,
        por: false,
        symmetry: false,
    };
    let report_json = |stats: StatsObserver| {
        let mut rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        rep.stats = stats;
        rep.to_json_normalized()
    };

    let mut seq_stats = StatsObserver::new();
    let seq = explore_all_observed(&DvvMvrStore, &config, &mut |_| true, &mut seq_stats);
    let seq_json = report_json(seq_stats);

    for threads in [1usize, 2, 8] {
        let mut par_stats = StatsObserver::new();
        let par = explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut par_stats);
        assert_eq!(seq.schedules, par.schedules, "threads={threads}");
        let par_json = report_json(par_stats);
        assert_eq!(
            seq_json.as_bytes(),
            par_json.as_bytes(),
            "report JSON diverges from sequential at threads={threads}"
        );
    }
}

#[test]
fn reduced_search_json_with_dedup_counters_is_thread_invariant() {
    // The shared dedup table's contract, serialized: with POR, symmetry
    // canonicalization, and dedup all on, the run-report JSON — including
    // the `search` section's dedup_hits / dedup_misses counters, which
    // before the level-barrier table depended on worker timing — is
    // byte-identical at thread counts 1, 2, and 8 for a fixed config.
    use haec::sim::exhaustive::{explore_all_parallel, ExhaustiveConfig};
    use haec::sim::obs::stats::StatsObserver;
    use haec::sim::{ReportConfig, RunReport};

    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: 4,
        max_schedules: usize::MAX,
        dedup: true,
        por: true,
        symmetry: true,
    };
    let mut baseline: Option<(String, u64, u64)> = None;
    for threads in [1usize, 2, 8] {
        let mut stats = StatsObserver::new();
        explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut stats);
        let (hits, misses) = (stats.dedup_hits(), stats.dedup_misses());
        let mut rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        rep.stats = stats;
        let json = rep.to_json_normalized();
        match &baseline {
            None => {
                assert!(misses > 0, "dedup must be exercised for the pin to bite");
                baseline = Some((json, hits, misses));
            }
            Some((base_json, base_hits, base_misses)) => {
                assert_eq!(
                    (&hits, &misses),
                    (base_hits, base_misses),
                    "threads={threads}"
                );
                assert_eq!(
                    base_json.as_bytes(),
                    json.as_bytes(),
                    "search JSON diverges at threads={threads}"
                );
            }
        }
    }
}

#[test]
fn workload_stream_is_deterministic_standalone() {
    // The workload PRNG stream itself (not just the end-to-end trace) is
    // stable: the same seed yields the same operation sequence.
    use haec_testkit::Rng;
    let mut w1 = Workload::new(
        SpecKind::OrSet,
        4,
        3,
        0.5,
        KeyDistribution::Zipf { theta: 1.0 },
    );
    let mut w2 = Workload::new(
        SpecKind::OrSet,
        4,
        3,
        0.5,
        KeyDistribution::Zipf { theta: 1.0 },
    );
    let mut r1 = Rng::seed_from_u64(1234);
    let mut r2 = Rng::seed_from_u64(1234);
    for _ in 0..200 {
        assert_eq!(w1.next_op(&mut r1), w2.next_op(&mut r2));
    }
    let mut r3 = Rng::seed_from_u64(1235);
    let ops1: Vec<_> = (0..50).map(|_| w1.next_op(&mut r1)).collect();
    let ops3: Vec<_> = (0..50).map(|_| w2.next_op(&mut r3)).collect();
    assert_ne!(ops1, ops3, "adjacent seeds should not collide");
}

#[test]
fn parallel_counterexample_is_thread_invariant() {
    // Regression for the `Relaxed` atomics the determinism lint found in
    // the parallel explorer's worker loop: the unit claim / cancellation
    // atomics use `SeqCst`, and the surviving counterexample must be the
    // sequential engine's *first* one at every thread count — which
    // worker happened to fail first may not influence which schedule is
    // reported.
    use haec::sim::exhaustive::{explore_all, explore_all_parallel, ExhaustiveConfig};
    use haec::sim::obs::NullObserver;

    fn causal_check(sim: &Simulator) -> bool {
        let Ok(a) = sim.abstract_execution() else {
            return false;
        };
        check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok() && causal::check(&a).is_ok()
    }

    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        depth: 5,
        max_schedules: usize::MAX,
        ..ExhaustiveConfig::default()
    };
    let sequential = explore_all(&BoundedStore, &config, &mut |sim| causal_check(sim));
    assert!(
        sequential.counterexample.is_some(),
        "bounded store must fail somewhere at depth 5"
    );
    for threads in [1usize, 2, 8] {
        let par = explore_all_parallel(
            &BoundedStore,
            &config,
            threads,
            &causal_check,
            &mut NullObserver,
        );
        assert_eq!(par.schedules, sequential.schedules, "threads={threads}");
        assert_eq!(
            par.counterexample, sequential.counterexample,
            "counterexample diverges from sequential at threads={threads}"
        );
    }
}

#[test]
fn service_report_json_is_byte_identical_across_runs_and_sweep_threads() {
    // The dynamic half of the contract for the service path, on the cell
    // that exercises the most of it: sharded, anti-entropy flushes,
    // duplicated copies, a partition, online checkers fed full witnesses.
    // The report bytes may depend on nothing but the config — not on the
    // run, and not on how many workers the sweep fans out over.
    use haec::sim::service::{
        reports_json, run_service, run_service_sweep, ServicePartition, ServiceRunConfig,
    };
    use haec::stores::service::{Reconciliation, ServiceConfig};

    let cfg = ServiceRunConfig {
        service: ServiceConfig {
            n_shards: 4,
            reconciliation: Reconciliation::AntiEntropy { period: 8 },
            ..ServiceConfig::default()
        },
        ops: 2000,
        n_clients: 40,
        read_ratio: 0.1,
        keys: KeyDistribution::Zipf { theta: 1.0 },
        delay_max: 8,
        dup_prob: 0.05,
        partition: Some(ServicePartition {
            from_op: 500,
            to_op: 700,
            group: vec![ReplicaId::new(0)],
        }),
        stream_window: Some(4096),
        seed: 0xD15C0,
        ..ServiceRunConfig::default()
    };
    let once = run_service(&DvvMvrStore, &cfg);
    assert!(once.duplicated > 0, "the cell must exercise duplication");
    assert!(once.stream.is_some(), "the cell must run the checkers");
    let baseline = reports_json(std::slice::from_ref(&once));
    let again = reports_json(&[run_service(&DvvMvrStore, &cfg)]);
    assert_eq!(baseline, again, "two runs of one config");
    // The sweep gets the cell twice with a plain one between, so its
    // four workers really do run it concurrently with other work.
    let plain = ServiceRunConfig {
        ops: 500,
        ..ServiceRunConfig::default()
    };
    let configs = [cfg.clone(), plain, cfg];
    let solo = run_service_sweep(&DvvMvrStore, &configs, 1);
    let wide = run_service_sweep(&DvvMvrStore, &configs, 4);
    assert_eq!(
        reports_json(&solo),
        reports_json(&wide),
        "sweep at 1 and 4 threads"
    );
    assert_eq!(
        reports_json(&solo[..1]),
        baseline,
        "sweep cell vs run_service"
    );
    assert_eq!(reports_json(&solo[2..]), baseline, "position in the sweep");
}
