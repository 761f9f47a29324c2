//! Property-based tests (haec-testkit runner) over the core data
//! structures and the end-to-end store/checker pipeline.
//!
//! Every failing case prints its case seed; re-run with
//! `HAEC_PROP_SEED=<seed> HAEC_PROP_CASES=1` to replay the identical
//! counterexample.

use haec::prelude::*;
use haec::stores::wire::{BitReader, BitWriter};
use haec_model::Relation;
use haec_testkit::prop::{self, any_u8, u32s, u64s, usizes, vecs, Config};
use haec_testkit::{prop_assert, prop_assert_eq};

/// Elias-gamma roundtrips for arbitrary positive integers.
#[test]
fn gamma_roundtrip() {
    prop::check("gamma_roundtrip", &u64s(1..u64::MAX / 2), |&v| {
        let mut w = BitWriter::new();
        w.write_gamma(v);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        prop_assert_eq!(r.read_gamma().unwrap(), v);
        prop_assert_eq!(r.remaining(), 0);
        Ok(())
    });
}

/// Mixed bit-stream roundtrips.
#[test]
fn mixed_stream_roundtrip() {
    let gen = vecs((u64s(0..1_000_000), u32s(1..21)), 1..40);
    prop::check("mixed_stream_roundtrip", &gen, |values| {
        let mut w = BitWriter::new();
        for &(v, width) in values {
            let v = v & ((1u64 << width) - 1);
            w.write_bits(v, width);
            w.write_gamma0(v);
        }
        let p = w.finish();
        let mut r = BitReader::new(&p);
        for &(v, width) in values {
            let v = v & ((1u64 << width) - 1);
            prop_assert_eq!(r.read_bits(width).unwrap(), v);
            prop_assert_eq!(r.read_gamma0().unwrap(), v);
        }
        Ok(())
    });
}

/// Transitive closure is idempotent, monotone, and preserves acyclicity
/// of forward-only relations.
#[test]
fn closure_properties() {
    let gen = vecs((usizes(0..12), usizes(0..12)), 0..40);
    prop::check("closure_properties", &gen, |edges| {
        let mut rel = Relation::new(12);
        for &(i, j) in edges {
            if i < j {
                rel.insert(i, j); // forward edges only: a DAG
            }
        }
        let c1 = rel.transitive_closure();
        let c2 = c1.transitive_closure();
        prop_assert_eq!(&c1, &c2);
        prop_assert!(rel.is_subset_of(&c1));
        prop_assert!(c1.is_acyclic());
        prop_assert!(c1.is_transitive());
        Ok(())
    });
}

/// Version vectors: merge is a least upper bound.
#[test]
fn vv_merge_lub() {
    let gen = (vecs(u32s(0..1000), 4..5), vecs(u32s(0..1000), 4..5));
    prop::check("vv_merge_lub", &gen, |(a, b)| {
        use haec::stores::vv::VersionVector;
        let mut va = VersionVector::new(4);
        let mut vb = VersionVector::new(4);
        for i in 0..4 {
            va.set(ReplicaId::new(i as u32), a[i]);
            vb.set(ReplicaId::new(i as u32), b[i]);
        }
        let mut m = va.clone();
        m.merge(&vb);
        prop_assert!(m.dominates(&va));
        prop_assert!(m.dominates(&vb));
        // Least: any dominator of both dominates the merge.
        let mut big = va.clone();
        big.merge(&vb);
        prop_assert!(big.dominates(&m) && m.dominates(&big));
        Ok(())
    });
}

/// End to end: any random schedule of the DVV MVR store yields a
/// correct, causally consistent witness abstract execution, and
/// quiescing it yields replica agreement.
#[test]
fn dvv_store_always_causal() {
    prop::check("dvv_store_always_causal", &u64s(0..5000), |&seed| {
        let config = ExplorationConfig {
            schedule: ScheduleConfig {
                steps: 120,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let rep = explore(&DvvMvrStore, &config, seed);
        prop_assert!(rep.is_causally_consistent(), "{rep}");
        Ok(())
    });
}

/// The ORset store under arbitrary schedules is correct and causal.
#[test]
fn orset_store_always_causal() {
    prop::check("orset_store_always_causal", &u64s(0..2000), |&seed| {
        let config = ExplorationConfig {
            spec: SpecKind::OrSet,
            schedule: ScheduleConfig {
                steps: 100,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let rep = explore(&OrSetStore, &config, seed);
        prop_assert!(rep.is_causally_consistent(), "{rep}");
        Ok(())
    });
}

/// The enable-wins flag store under arbitrary schedules is correct and
/// causal.
#[test]
fn ewflag_store_always_causal() {
    prop::check("ewflag_store_always_causal", &u64s(0..1500), |&seed| {
        let config = ExplorationConfig {
            spec: SpecKind::EwFlag,
            schedule: ScheduleConfig {
                steps: 100,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let rep = explore(&haec::stores::EwFlagStore, &config, seed);
        prop_assert!(rep.is_causally_consistent(), "{rep}");
        Ok(())
    });
}

/// The COPS-style compressed-dependency store under arbitrary schedules
/// is correct and causal.
#[test]
fn cops_store_always_causal() {
    prop::check("cops_store_always_causal", &u64s(0..1500), |&seed| {
        let config = ExplorationConfig {
            schedule: ScheduleConfig {
                steps: 100,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let rep = explore(&haec::stores::CopsStore, &config, seed);
        prop_assert!(rep.is_causally_consistent(), "{rep}");
        Ok(())
    });
}

/// Trace serialization round-trips arbitrary simulator runs exactly.
#[test]
fn trace_roundtrip_random_runs() {
    prop::check("trace_roundtrip_random_runs", &u64s(0..2000), |&seed| {
        let mut sim = Simulator::new(&DvvMvrStore, StoreConfig::new(3, 2));
        let mut wl = Workload::new(SpecKind::Mvr, 3, 2, 0.4, KeyDistribution::Uniform);
        let sched = ScheduleConfig {
            steps: 60,
            ..ScheduleConfig::default()
        };
        run_schedule(&mut sim, &mut wl, &sched, seed);
        let text = haec::sim::trace::to_text(sim.execution());
        let back = haec::sim::trace::parse(&text).unwrap();
        prop_assert_eq!(sim.execution(), &back);
        Ok(())
    });
}

/// The Theorem 6 construction complies for arbitrary generated causal
/// executions.
#[test]
fn construction_always_complies() {
    prop::check("construction_always_complies", &u64s(0..2000), |&seed| {
        let config = GeneratorConfig {
            events: 18,
            ..GeneratorConfig::default()
        };
        let a = random_causal(&config, seed);
        let report = construct(&DvvMvrStore, &a);
        prop_assert!(report.complies(), "{:?}", report.mismatches);
        Ok(())
    });
}

/// The Theorem 12 roundtrip is lossless for arbitrary g.
#[test]
fn thm12_roundtrip_lossless() {
    let gen = (u32s(1..12), u32s(1..12), u32s(1..12));
    let config = Config::with_cases(32); // each case replays a full sweep
    prop::check_with(
        &config,
        "thm12_roundtrip_lossless",
        &gen,
        |&(g0, g1, g2)| {
            let cfg = Thm12Config {
                n_replicas: 5,
                n_objects: 4,
                k: 12,
            };
            let rt = roundtrip(&DvvMvrStore, &cfg, &[g0, g1, g2]);
            prop_assert!(rt.is_lossless(), "{:?}", rt.decoded);
            prop_assert!(rt.m_g_bits as f64 >= 0.0);
            Ok(())
        },
    );
}

/// Payload bit accounting is exact for whole bytes.
#[test]
fn payload_bits_exact() {
    prop::check("payload_bits_exact", &vecs(any_u8(), 0..64), |bytes| {
        let p = Payload::from_bytes(bytes.clone());
        prop_assert_eq!(p.bits(), bytes.len() * 8);
        prop_assert_eq!(p.bytes(), bytes.as_slice());
        Ok(())
    });
}

/// No store dies on a corrupt payload: random bit strings (dense and
/// zero-heavy) and valid broadcasts with one bit flipped, a suffix cut off,
/// or a suffix replaced by noise never panic a receiver, and the
/// engine-backed stores leave their state untouched whenever the batch
/// codec rejects the payload.
#[test]
fn corrupt_payloads_never_panic_a_store() {
    use haec::stores::service::batch::decode_batch;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Three replicas and three objects: both id fields are two bits wide
    // and can name an id (3) outside the configuration.
    let cfg = StoreConfig::new(3, 3);
    let engine_backed = [
        "dvv-mvr",
        "causal-register",
        "orset",
        "counter",
        "ew-flag",
        "k-delayed",
        "mixed",
    ];
    let mut factories = haec::stores::all_factories();
    factories.push(Box::new(haec::stores::MixedStore::new(1)));
    // Valid traffic to corrupt: what R1 and R2 would broadcast after a few
    // updates each (removes and disables carry observed-dot lists).
    let stores: Vec<(Box<dyn StoreFactory>, Vec<Payload>)> = factories
        .into_iter()
        .map(|factory| {
            let v = Value::new;
            let ops = match factory.name() {
                "orset" => vec![Op::Add(v(1)), Op::Add(v(1)), Op::Remove(v(1))],
                "counter" => vec![Op::Inc, Op::Inc, Op::Inc],
                "ew-flag" => vec![Op::Enable, Op::Enable, Op::Disable],
                _ => vec![Op::Write(v(1)), Op::Write(v(2)), Op::Write(v(3))],
            };
            let valid = (1..3)
                .map(|r| {
                    let mut m = factory.spawn(ReplicaId::new(r), cfg);
                    for (i, op) in ops.iter().enumerate() {
                        m.do_op(ObjectId::new(i as u32 % 3), op);
                    }
                    m.pending_message().expect("updates are pending")
                })
                .collect();
            (factory, valid)
        })
        .collect();

    let gen = (
        usizes(0..5),
        vecs(any_u8(), 0..97),
        usizes(0..1 << 16),
        usizes(0..1 << 16),
    );
    prop::check(
        "corrupt_payloads_never_panic_a_store",
        &gen,
        |(mode, bytes, a, b)| {
            for (factory, valid) in &stores {
                let original = &valid[a % valid.len()];
                // Zero-heavy noise: six random bytes ANDed into one set one
                // bit in 64, so gamma codes read from it decode to huge
                // counts.
                let sparse = || {
                    bytes
                        .chunks_exact(6)
                        .map(|c| c.iter().fold(0xFF, |x, y| x & y))
                };
                let bit_string = |mut bytes: Vec<u8>| {
                    let bits = (bytes.len() * 8).saturating_sub(b % 8);
                    bytes.truncate(bits.div_ceil(8));
                    Payload::from_bits(bytes, bits)
                };
                let cut = b % original.bits();
                let payload = match mode {
                    0 => bit_string(bytes.iter().copied().take(32).collect()),
                    1 => bit_string(sparse().collect()),
                    2 => {
                        let mut flipped = original.bytes().to_vec();
                        flipped[cut / 8] ^= 1 << (cut % 8);
                        Payload::from_bits(flipped, original.bits())
                    }
                    3 => BitReader::new(original).read_payload(cut).unwrap(),
                    _ => {
                        // A valid prefix, then noise where the next field
                        // (a count, an id, a tag) was due.
                        let mut w = BitWriter::new();
                        w.append_payload(&BitReader::new(original).read_payload(cut).unwrap());
                        sparse().for_each(|byte| w.write_bits(u64::from(byte), 8));
                        w.finish()
                    }
                };
                let mut m = factory.spawn(ReplicaId::new(0), cfg);
                let before = m.state_fingerprint();
                let received = catch_unwind(AssertUnwindSafe(|| m.on_receive(&payload)));
                prop_assert!(
                    received.is_ok(),
                    "{} panicked receiving {payload:?}",
                    factory.name()
                );
                if engine_backed.contains(&factory.name()) && decode_batch(&payload, cfg).is_err() {
                    prop_assert_eq!(
                        m.state_fingerprint(),
                        before,
                        "{} changed state on rejected {payload:?}",
                        factory.name()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn testkit_runner_note() {
    // The testkit runner defaults to 64 cases per property (HAEC_PROP_CASES
    // overrides) with a fixed default run seed, so CI is deterministic; the
    // seeds above keep each case fast (< 1 ms – 5 ms). A failure prints a
    // `HAEC_PROP_SEED` replay line that regenerates the exact
    // counterexample.
    assert!(Config::default().cases >= 1);
}
