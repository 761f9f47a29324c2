//! Observability regression: known-answer histograms on a hand-computed
//! schedule, observer passivity (byte-identical transcripts with and
//! without observers), and the JSON report acceptance checks.

use haec::prelude::*;
use haec::sim::obs::json::Json;
use haec::sim::obs::lag::LagObserver;
use haec::sim::obs::log::EventLog;
use haec::sim::obs::stats::StatsObserver;
use haec::sim::obs::{self};
use haec::sim::trace;
use haec::sim::{ReportConfig, RunReport};
use haec::stores::CopsStore;
use haec_testkit::prop::{self, u64s};

/// A tiny fully hand-computable 2-replica schedule:
///
/// ```text
/// e0  do   R0 write v1      (dot R0:1, update #1)
/// e1  send R0 m0
/// e2  recv R1 m0            (latency 2-1 = 1)
/// e3  do   R1 read -> {v1}  (first obs of R0:1 at R1: lag 3-0 = 3;
///                            staleness 1 issued - 1 seen = 0)
/// e4  do   R1 write v2      (dot R1:1, update #2)
/// e5  send R1 m1
/// e6  recv R0 m1            (latency 6-5 = 1)
/// e7  do   R0 read -> {v2}  (first obs of R1:1 at R0: lag 7-4 = 3;
///                            staleness 2 issued - 2 seen = 0)
/// ```
#[test]
fn known_answer_histograms_on_tiny_schedule() {
    let stats = obs::shared(StatsObserver::new());
    let lag = obs::shared(LagObserver::new(2));
    let log = obs::shared(EventLog::new(8));
    let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(2, 1));
    sim.attach_observer(Box::new(stats.clone()));
    sim.attach_observer(Box::new(lag.clone()));
    sim.attach_observer(Box::new(log.clone()));

    let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
    let x = ObjectId::new(0);
    sim.do_op(r0, x, Op::Write(Value::new(1))); // e0
    sim.flush(r0); // e1: send m0
    sim.deliver(0); // e2: recv R1 m0
    assert_eq!(
        sim.do_op(r1, x, Op::Read).1, // e3
        ReturnValue::values([Value::new(1)])
    );
    sim.do_op(r1, x, Op::Write(Value::new(2))); // e4
    sim.flush(r1); // e5: send m1
    sim.deliver(0); // e6: recv R0 m1
    assert_eq!(
        sim.do_op(r0, x, Op::Read).1, // e7
        ReturnValue::values([Value::new(2)])
    );

    let stats = stats.borrow();
    assert_eq!(stats.do_events(), 4);
    assert_eq!(stats.updates(), 2);
    assert_eq!(stats.reads(), 2);
    assert_eq!(stats.sends(), 2);
    assert_eq!(stats.receives(), 2);
    assert_eq!(stats.drops(), 0);
    assert_eq!(stats.duplicates(), 0);

    // Both deliveries happened exactly one transcript event after the send.
    assert_eq!(stats.delivery_latency().count(), 2);
    assert_eq!(stats.delivery_latency().min(), Some(1));
    assert_eq!(stats.delivery_latency().max(), Some(1));
    assert!((stats.delivery_latency().mean() - 1.0).abs() < 1e-12);

    // Message sizes: one sample per send, and the histogram must agree
    // with the recorded payloads exactly.
    assert_eq!(stats.message_bits().count(), 2);
    let bits: Vec<u64> = (0..2)
        .map(|i| {
            sim.execution()
                .message(haec::model::MsgId::new(i))
                .payload
                .bits() as u64
        })
        .collect();
    assert_eq!(stats.message_bits().min(), bits.iter().min().copied());
    assert_eq!(stats.message_bits().max(), bits.iter().max().copied());

    // Each update was first observed remotely 3 events after it was done.
    let lag = lag.borrow();
    assert_eq!(lag.updates_issued(), 2);
    assert_eq!(lag.visibility_lag().count(), 2);
    assert_eq!(lag.visibility_lag().min(), Some(3));
    assert_eq!(lag.visibility_lag().max(), Some(3));
    assert_eq!(lag.pending_observations(), 0);

    // Both reads saw every update issued so far: staleness 0.
    assert_eq!(lag.read_staleness().count(), 2);
    assert_eq!(lag.read_staleness().min(), Some(0));
    assert_eq!(lag.read_staleness().max(), Some(0));

    // The log saw every one of the 8 transcript events.
    let log = log.borrow();
    assert_eq!(log.total_seen(), 8);
    let rendered: Vec<String> = log.records().map(|r| r.to_string()).collect();
    assert!(rendered[0].contains("do R0"), "{rendered:?}");
    assert!(rendered.iter().any(|l| l.contains("recv R1 m0")));
}

/// Observers are passive: a run with the full battery attached must leave
/// a byte-identical transcript (execution text and fault records) to the
/// same run without observers.
#[test]
fn observers_do_not_perturb_runs() {
    let run = |seed: u64, observe: bool| {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 2));
        if observe {
            sim.attach_observer(Box::new(obs::shared(StatsObserver::new())));
            sim.attach_observer(Box::new(obs::shared(LagObserver::new(3))));
            sim.attach_observer(Box::new(obs::shared(EventLog::new(32))));
        }
        let mut wl = Workload::new(SpecKind::Mvr, 3, 2, 0.4, KeyDistribution::Uniform);
        let cfg = ScheduleConfig {
            steps: 120,
            drop_prob: 0.1,
            dup_prob: 0.1,
            partition: Some(Partition {
                from_step: 20,
                to_step: 60,
                group: vec![0],
            }),
            ..ScheduleConfig::default()
        };
        run_schedule(&mut sim, &mut wl, &cfg, seed);
        trace::to_text_with_faults(sim.execution(), sim.faults())
    };
    prop::check("observer passivity", &u64s(0..1_000_000), |seed| {
        let bare = run(*seed, false);
        let observed = run(*seed, true);
        haec_testkit::prop_assert_eq!(bare.as_bytes(), observed.as_bytes());
        Ok(())
    });
}

/// The ISSUE acceptance check: `report --json` semantics for three stores
/// on seed 42 — valid JSON carrying event counts, the message-bits
/// histogram, visibility-lag and staleness histograms, and checker span
/// timings; and the same seed renders byte-identically (normalized).
#[test]
fn seed_42_reports_are_valid_and_reproducible() {
    let factories: [&dyn StoreFactory; 3] = [&DvvMvrStore, &CopsStore, &LwwStore];
    for factory in factories {
        let config = ReportConfig::default();
        let rep = RunReport::collect(factory, &config, 42);
        let text = rep.to_json_string();
        let v = Json::parse(&text).unwrap_or_else(|e| panic!("{}: bad JSON: {e}", factory.name()));
        assert_eq!(v.get("schema_version").and_then(Json::as_int), Some(1));
        assert_eq!(
            v.get("store").and_then(Json::as_str),
            Some(factory.name()),
            "store name survives"
        );
        let events = v.get("events").expect("events object");
        assert!(events.get("do").and_then(Json::as_int).unwrap_or(0) > 0);
        let messages = v.get("messages").expect("messages object");
        assert!(messages
            .get("size_hist")
            .and_then(|h| h.get("count"))
            .is_some());
        assert!(v
            .get("visibility_lag")
            .and_then(|l| l.get("hist"))
            .is_some());
        assert!(v
            .get("read_staleness")
            .and_then(|h| h.get("buckets"))
            .is_some());
        let spans = v.get("spans").and_then(Json::as_arr).expect("spans array");
        assert!(!spans.is_empty(), "checker phases must be span-timed");

        let again = RunReport::collect(factory, &config, 42);
        assert_eq!(
            rep.to_json_normalized(),
            again.to_json_normalized(),
            "{}: same seed must render identically",
            factory.name()
        );
    }
}

/// FNV-1a over the report JSON: a fingerprint that does not depend on the
/// standard library's hasher, so the literals below hold across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Known answers: `fnv1a(to_json_normalized())` of the seed-42 report of
/// every store — `ReportConfig::default()` with the store's own spec and
/// history order, as the `report` binary sets them — so the bytes of the
/// report, not only their run-to-run equality, are held across refactors
/// of who counts what.
#[test]
fn seed_42_reports_match_their_pinned_fingerprints() {
    let pinned: [(&str, u64); 11] = [
        ("dvv-mvr", 0x340588ef13638ea7),
        ("cops-mvr", 0x20aa411db717f12c),
        ("causal-register", 0x526ed437d8ebe1d4),
        ("orset", 0xd303b28068c3892a),
        ("counter", 0xa4d4396db7b5ea59),
        ("ew-flag", 0xe608a7f4d651d84a),
        ("lww", 0xe532e9d2d14bf74a),
        ("k-delayed", 0x6a82a7bb5e196da0),
        ("arbitration-mvr", 0xe0670930f32c3691),
        ("sequenced", 0x7e609edac7df91be),
        ("bounded", 0x6a767e94c7660cd2),
    ];
    let factories = haec::stores::all_factories();
    assert_eq!(factories.len(), pinned.len());
    for (f, (name, want)) in factories.iter().zip(pinned) {
        assert_eq!(f.name(), name, "store order of the pinned table");
        let mut config = ReportConfig::default();
        config.exploration.spec = match name {
            "orset" => SpecKind::OrSet,
            "ew-flag" => SpecKind::EwFlag,
            "counter" => SpecKind::Counter,
            "lww" | "arbitration-mvr" | "sequenced" | "causal-register" => SpecKind::LwwRegister,
            _ => SpecKind::Mvr,
        };
        config.exploration.arbitrated_order = matches!(name, "lww" | "arbitration-mvr");
        let json = RunReport::collect(f.as_ref(), &config, 42).to_json_normalized();
        assert_eq!(
            fnv1a(json.as_bytes()),
            want,
            "{name}: report changed: {json}"
        );
    }
}
