//! Byte-identity determinism suite for the service layer.
//!
//! The contract: a [`ServiceReport`] is a pure function of its config —
//! no wall clock, no ambient entropy, no thread-schedule dependence. The
//! strongest form we can pin is byte equality of the rendered JSON, and
//! that is what these tests compare: across repeated runs, across thread
//! counts {1, 2, 8} for the sweep, and per shard count.

use haec_sim::service::{reports_json, run_service, run_service_sweep, ServiceRunConfig};
use haec_sim::{explore_all_parallel, ExhaustiveConfig, NullObserver, Simulator};
use haec_stores::service::ServiceConfig;
use haec_stores::DvvMvrStore;

fn sweep_configs() -> Vec<ServiceRunConfig> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&n_shards| ServiceRunConfig {
            service: ServiceConfig {
                n_replicas: 3,
                n_shards,
                n_objects: 48,
                vnodes: 16,
                ..ServiceConfig::default()
            },
            ops: 500,
            n_clients: 40,
            seed: 0xD15C0,
            ..ServiceRunConfig::default()
        })
        .collect()
}

#[test]
fn service_report_json_is_byte_identical_across_repeated_runs() {
    for cfg in sweep_configs() {
        let a = run_service(&DvvMvrStore, &cfg).to_json_string();
        let b = run_service(&DvvMvrStore, &cfg).to_json_string();
        assert_eq!(a, b, "shard count {}", cfg.service.n_shards);
    }
}

#[test]
fn service_sweep_json_is_byte_identical_across_thread_counts() {
    let configs = sweep_configs();
    let baseline = reports_json(&run_service_sweep(&DvvMvrStore, &configs, 1));
    for threads in [2usize, 8] {
        let wide = reports_json(&run_service_sweep(&DvvMvrStore, &configs, threads));
        assert_eq!(
            baseline, wide,
            "sweep JSON must be byte-identical at {threads} threads"
        );
    }
    // And per report, in config order.
    let solo = run_service_sweep(&DvvMvrStore, &configs, 1);
    let wide = run_service_sweep(&DvvMvrStore, &configs, 8);
    for (i, (a, b)) in solo.iter().zip(wide.iter()).enumerate() {
        assert_eq!(a.n_shards, configs[i].service.n_shards, "order preserved");
        assert_eq!(a, b, "config {i}");
    }
}

#[test]
fn parallel_search_report_is_identical_across_thread_counts() {
    // The exhaustive engine's counters (schedules, dedup hits/misses)
    // with POR, symmetry, and dedup all on are a pure function of the
    // config, not of the work-unit partition — same bar as the service
    // sweep above.
    let cfg = ExhaustiveConfig {
        depth: 5,
        dedup: true,
        por: true,
        symmetry: true,
        ..ExhaustiveConfig::default()
    };
    let check = |sim: &Simulator| sim.execution().validate().is_ok();
    let base = explore_all_parallel(&DvvMvrStore, &cfg, 1, &check, &mut NullObserver);
    assert!(base.all_passed());
    for threads in [2usize, 8] {
        let wide = explore_all_parallel(&DvvMvrStore, &cfg, threads, &check, &mut NullObserver);
        assert_eq!(base.schedules, wide.schedules, "{threads} threads");
        assert_eq!(base.dedup_hits, wide.dedup_hits, "{threads} threads");
        assert_eq!(base.dedup_misses, wide.dedup_misses, "{threads} threads");
        assert_eq!(base.counterexample, wide.counterexample);
    }
}

#[test]
fn different_seeds_give_different_runs() {
    // Sanity check that byte equality above is not vacuous: the report
    // actually depends on the seed.
    let mut cfg = sweep_configs().remove(0);
    let a = run_service(&DvvMvrStore, &cfg).to_json_string();
    cfg.seed ^= 1;
    let b = run_service(&DvvMvrStore, &cfg).to_json_string();
    assert_ne!(a, b);
}
