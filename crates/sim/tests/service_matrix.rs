//! The service layer across the store×fault matrix.
//!
//! Two pillars:
//!
//! 1. **Batched-vs-unbatched visibility equivalence** over the seven
//!    conformance-matrix stores: with a constant network delay, whether a
//!    replica's pending shards travel as one coalescing envelope or as
//!    one message per shard must not change *anything* observable —
//!    per-shard op routing, payload bits, visibility-lag and staleness
//!    histograms, convergence. The only permitted difference is the
//!    envelope framing overhead, and even that is pinned exactly:
//!    `batched.message_bits == unbatched.message_bits + overhead`.
//! 2. **Reconciliation × fault determinism**: every strategy under every
//!    fault regime yields byte-identical reports on repeated runs, and
//!    regimes that lose nothing (clean, duplicates, healing partitions)
//!    converge.

use haec_model::{ReplicaId, StoreFactory};
use haec_sim::service::{run_service, ServicePartition, ServiceRunConfig};
use haec_stores::conformance_matrix;
use haec_stores::service::{Reconciliation, ServiceConfig};
use haec_stores::{ArbitrationStore, BoundedStore, DvvMvrStore, KDelayedStore, SequencedStore};

fn matrix_config(spec: haec_core::SpecKind, batched: bool) -> ServiceRunConfig {
    ServiceRunConfig {
        service: ServiceConfig {
            n_replicas: 3,
            n_shards: 4,
            n_objects: 32,
            vnodes: 16,
            reconciliation: Reconciliation::WriteRepair,
        },
        spec,
        ops: 300,
        n_clients: 12,
        read_ratio: 0.4,
        batched,
        // Constant delay: `bounded(1)` is always 0, so both wire modes
        // deliver every flushed group at t+1 and stay tick-for-tick
        // comparable even though they draw different fault-rng counts.
        delay_max: 1,
        seed: 0x7EA_5E7,
        ..ServiceRunConfig::default()
    }
}

#[test]
fn batched_and_unbatched_are_visibility_equivalent_across_the_matrix() {
    for (factory, conformance) in conformance_matrix() {
        let batched = run_service(factory.as_ref(), &matrix_config(conformance.spec, true));
        let unbatched = run_service(factory.as_ref(), &matrix_config(conformance.spec, false));
        let name = factory.name();
        assert_eq!(
            batched.per_shard, unbatched.per_shard,
            "{name}: same routing, same payload bits per shard"
        );
        assert_eq!(
            batched.visibility_lag, unbatched.visibility_lag,
            "{name}: same visibility timeline"
        );
        assert_eq!(
            batched.read_staleness, unbatched.read_staleness,
            "{name}: same staleness"
        );
        assert_eq!(batched.updates, unbatched.updates, "{name}");
        assert_eq!(
            batched.converged, unbatched.converged,
            "{name}: same quiescent outcome"
        );
        assert!(batched.converged, "{name}: fault-free runs converge");
        // Exact cross-mode accounting: coalescing costs exactly the
        // envelope framing, not one payload bit more.
        assert_eq!(unbatched.envelope_overhead_bits, 0, "{name}");
        assert_eq!(
            batched.message_bits,
            unbatched.message_bits + batched.envelope_overhead_bits,
            "{name}: batching adds framing bits only"
        );
        assert!(batched.messages <= unbatched.messages, "{name}: coalescing");
    }
}

#[test]
fn per_shard_determinism_holds_for_every_store_in_the_matrix() {
    for (factory, conformance) in conformance_matrix() {
        let cfg = matrix_config(conformance.spec, true);
        let a = run_service(factory.as_ref(), &cfg).to_json_string();
        let b = run_service(factory.as_ref(), &cfg).to_json_string();
        assert_eq!(a, b, "{} report must be reproducible", factory.name());
    }
}

#[test]
fn reconciliation_by_fault_matrix_is_deterministic_and_converges_when_lossless() {
    let strategies = [
        Reconciliation::WriteRepair,
        Reconciliation::ReadRepair,
        Reconciliation::AntiEntropy { period: 16 },
    ];
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Fault {
        Clean,
        Drop,
        Duplicate,
        Partition,
    }
    let faults = [
        Fault::Clean,
        Fault::Drop,
        Fault::Duplicate,
        Fault::Partition,
    ];
    for strategy in strategies {
        for fault in faults {
            let cfg = ServiceRunConfig {
                service: ServiceConfig {
                    n_replicas: 3,
                    n_shards: 2,
                    n_objects: 16,
                    vnodes: 16,
                    reconciliation: strategy,
                },
                ops: 320,
                n_clients: 12,
                drop_prob: if fault == Fault::Drop { 0.25 } else { 0.0 },
                dup_prob: if fault == Fault::Duplicate { 0.4 } else { 0.0 },
                partition: (fault == Fault::Partition).then(|| ServicePartition {
                    from_op: 60,
                    to_op: 220,
                    group: vec![ReplicaId::new(0)],
                }),
                seed: 0xFA_117,
                ..ServiceRunConfig::default()
            };
            let label = format!("{} × {fault:?}", strategy.name());
            let a = run_service(&DvvMvrStore, &cfg);
            let b = run_service(&DvvMvrStore, &cfg);
            assert_eq!(
                a.to_json_string(),
                b.to_json_string(),
                "{label}: reports must be byte-identical"
            );
            match fault {
                Fault::Drop => assert!(a.dropped > 0, "{label}: drops happen"),
                Fault::Duplicate => {
                    assert!(a.duplicated > 0, "{label}: duplicates happen");
                    assert!(a.converged, "{label}: duplicates are idempotent");
                }
                Fault::Partition => {
                    assert!(a.delayed_by_partition > 0, "{label}: cut is exercised");
                    assert!(a.converged, "{label}: partitions heal, nothing lost");
                }
                Fault::Clean => assert!(a.converged, "{label}: clean runs converge"),
            }
        }
    }
}

#[test]
fn stream_checkers_hold_for_causal_stores_under_clean_service_runs() {
    for (factory, conformance) in conformance_matrix() {
        if !conformance.causal {
            continue; // LWW is eventually, not causally, consistent.
        }
        let cfg = ServiceRunConfig {
            stream_window: Some(1 << 20),
            ..matrix_config(conformance.spec, true)
        };
        let report = run_service(factory.as_ref(), &cfg);
        let name = factory.name();
        let v = report.stream.expect("verdicts requested");
        assert_eq!(report.stream_errors, 0, "{name}: witnesses resolve");
        assert!(v.causal, "{name}: per-shard causal consistency");
        assert!(v.eventual, "{name}: windowed eventual consistency");
        assert!(v.sessions, "{name}: session guarantees");
    }
}

/// FNV-1a over the report JSON: a fingerprint that does not depend on the
/// standard library's hasher, so the literals below hold across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The three pinned cells of one store: clean; duplicates plus a healing
/// partition; and the faulty cell again with the online checkers attached.
/// 1200 ops over 4 shards gives each origin a per-shard witness prefix of
/// several 16-dot blocks.
fn pinned_cells(spec: haec_core::SpecKind) -> [(&'static str, ServiceRunConfig); 3] {
    let clean = ServiceRunConfig {
        ops: 1200,
        ..matrix_config(spec, true)
    };
    let faulty = ServiceRunConfig {
        delay_max: 4,
        dup_prob: 0.3,
        partition: Some(ServicePartition {
            from_op: 300,
            to_op: 700,
            group: vec![ReplicaId::new(0)],
        }),
        ..clean.clone()
    };
    let checked = ServiceRunConfig {
        stream_window: Some(256),
        ..faulty.clone()
    };
    [
        ("clean", clean),
        ("dup+partition", faulty),
        ("dup+partition+stream", checked),
    ]
}

/// Known answers against the commit before the witness consumers learnt
/// to skip the known prefix: `fnv1a(to_json_string())` per store and cell.
/// LWW and the counterexample stores report explicit, non-prefix witnesses
/// — the lists a block skip must not jump over.
#[test]
fn service_reports_match_their_pinned_fingerprints() {
    let mut stores: Vec<(Box<dyn StoreFactory>, haec_core::SpecKind)> = conformance_matrix()
        .into_iter()
        .map(|(f, c)| (f, c.spec))
        .collect();
    for f in [
        Box::new(KDelayedStore::new(2)) as Box<dyn StoreFactory>,
        Box::new(ArbitrationStore),
        Box::new(BoundedStore),
        Box::new(SequencedStore),
    ] {
        stores.push((f, haec_core::SpecKind::Mvr));
    }
    // Columns: clean, dup+partition, dup+partition+stream.
    let pinned: [(&str, [u64; 3]); 11] = [
        (
            "dvv-mvr",
            [0xee06ea2601e244d7, 0x666d713f54d46f4a, 0xe1e4575fed299a23],
        ),
        (
            "cops-mvr",
            [0x039eb618ce360342, 0x654c475915478f6d, 0x4f2dd9ea1334d29a],
        ),
        (
            "orset",
            [0x765a2a2b30a629b6, 0xe4fffc9886ea880e, 0x225adc2cd214692f],
        ),
        (
            "ew-flag",
            [0x2e98a2a6a7237bea, 0x6fd15d10bc4fb52b, 0x63fe33c2e7e5941c],
        ),
        (
            "lww",
            [0x1ea1d20d2d3f37d6, 0x6a0145a9eb2056d7, 0xe116246b788ea470],
        ),
        (
            "causal-register",
            [0x196b450d4b3cc59e, 0x5cab06833253842b, 0xf1f0964db69ff91c],
        ),
        (
            "mixed",
            [0xe7d1a90546ed53d8, 0x281ab01c69b68639, 0x62ac32e4d93881ee],
        ),
        (
            "k-delayed",
            [0x9690db1bbc60c640, 0x4e33691ce695a44e, 0xad606e524b0526ef],
        ),
        (
            "arbitration-mvr",
            [0x5f145ee25366afc3, 0xf2b7e277f888c8c0, 0xdfa619d8c3397be9],
        ),
        (
            "bounded",
            [0x9cf766b22fe4cb7b, 0x644800ac76160c5d, 0xf96734286b38d4ea],
        ),
        (
            "sequenced",
            [0xee032d4ad20b3dff, 0x87f91e0c364a37df, 0x67c9aaf4a3798c68],
        ),
    ];
    assert_eq!(stores.len(), pinned.len());
    for ((factory, spec), (name, want)) in stores.iter().zip(pinned) {
        assert_eq!(factory.name(), name, "store order of the pinned table");
        for ((cell, cfg), want) in pinned_cells(*spec).into_iter().zip(want) {
            let json = run_service(factory.as_ref(), &cfg).to_json_string();
            assert_eq!(
                fnv1a(json.as_bytes()),
                want,
                "{name} × {cell}: report changed: {json}"
            );
        }
    }
}
