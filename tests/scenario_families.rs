//! Scenario-family integration suite: canonical-enumeration known
//! answers, thread-invariance of family sweeps, self-consistency of the
//! algebra under random composition, exhaustive/sampled classification
//! agreement across the store matrix, and the minimal-witness shrink
//! contract on a real counterexample.

use haec::prelude::*;
use haec::stores::conformance_matrix;
use haec_sim::explorer::report_on;
use haec_sim::obs::{stats::StatsObserver, NullObserver};
use haec_sim::scenario::{
    concurrent_write_pair, dup_storm, explore_family, heal_before_quiesce, member_string,
    prop::FamilyGen, run_member, FamilyConfig, Pat, Scenario, ScenarioFilter,
};
use haec_testkit::prop::{self, u64s};
use haec_testkit::{prop_assert, Rng};

fn strict_causal(sim: &Simulator) -> bool {
    sim.abstract_execution()
        .map(|a| causal::check(&a).is_ok())
        .unwrap_or(false)
}

#[test]
fn fixture_enumeration_counts_and_canonical_order_are_pinned() {
    // Known answers: the member lists of the two fixture families, as
    // rendered strings, in canonical enumeration order. Any change to
    // enumeration order, dedup, splice semantics, or pattern rendering
    // shows up here as an exact diff.
    let w = |r: u32| format!("do(R{r},x0,write(v0))");
    let cwp = concurrent_write_pair(SpecKind::Mvr, 3);
    let rendered: Vec<String> = cwp
        .iter_to_depth(12)
        .iter()
        .map(|m| member_string(m))
        .collect();
    let pair = |a: u32, b: u32| format!("[{} {} quiesce]", w(a), w(b));
    assert_eq!(
        rendered,
        vec![
            pair(0, 1),
            pair(0, 2),
            pair(1, 0),
            pair(1, 2),
            pair(2, 0),
            pair(2, 1),
        ],
        "concurrent-write-pair canonical order drifted"
    );

    let hbq = heal_before_quiesce(SpecKind::Mvr);
    let chain = |w1: u32, w2: u32, dup: &str| {
        format!(
            "[partition(2) {} flush(R{w1}) deliver-oldest {} flush(R{w2}) heal {}deliver-newest do(R2,x0,read) quiesce]",
            w(w1),
            w(w2),
            dup
        )
    };
    let rendered: Vec<String> = hbq
        .iter_to_depth(12)
        .iter()
        .map(|m| member_string(m))
        .collect();
    assert_eq!(
        rendered,
        vec![
            chain(0, 1, ""),
            chain(0, 1, "dup-oldest "),
            chain(1, 0, ""),
            chain(1, 0, "dup-oldest "),
        ],
        "heal-before-quiesce canonical order drifted"
    );

    // Byte-identical across repeated enumerations.
    assert_eq!(cwp.iter_to_depth(12), cwp.iter_to_depth(12));
    assert_eq!(hbq.count_to_depth(12), 4);
    assert_eq!(dup_storm(SpecKind::Mvr).count_to_depth(12), 3);
}

#[test]
fn family_reports_are_identical_across_thread_counts() {
    let config = FamilyConfig::default();
    for (name, family) in [
        ("cwp", concurrent_write_pair(SpecKind::Mvr, 3)),
        ("hbq", heal_before_quiesce(SpecKind::Mvr)),
    ] {
        let mut seq_stats = StatsObserver::new();
        let sequential = explore_family(
            &DvvMvrStore,
            &config,
            1,
            name,
            &family,
            &strict_causal,
            &mut seq_stats,
        );
        assert!(sequential.all_passed(), "{name}: dvv-mvr is causal");
        for threads in [2, 4] {
            let mut par_stats = StatsObserver::new();
            let par = explore_family(
                &DvvMvrStore,
                &config,
                threads,
                name,
                &family,
                &strict_causal,
                &mut par_stats,
            );
            assert_eq!(par, sequential, "{name} threads={threads}");
            assert_eq!(
                par_stats.families(),
                seq_stats.families(),
                "{name} threads={threads}: observer stream drifted"
            );
        }
    }
}

/// A random scenario built from a seed: atoms, sequences, choices,
/// filters, and the occasional plugged hole. Small enough to enumerate,
/// varied enough to exercise every constructor.
fn random_scenario(rng: &mut Rng, budget: u32) -> Scenario {
    let atom = |rng: &mut Rng| {
        let pats = [
            Pat::Op(
                ReplicaId::new(0),
                ObjectId::new(0),
                Op::Write(Value::new(0)),
            ),
            Pat::Op(
                ReplicaId::new(1),
                ObjectId::new(0),
                Op::Write(Value::new(0)),
            ),
            Pat::Flush(ReplicaId::new(0)),
            Pat::DeliverOldest,
            Pat::DupOldest,
            Pat::DropOldest,
            Pat::PartitionStart(vec![2]),
            Pat::PartitionHeal,
            Pat::Quiesce,
        ];
        Scenario::atom(pats[rng.gen_range(0..pats.len())].clone())
    };
    if budget == 0 {
        return atom(rng);
    }
    match rng.gen_range(0..6u32) {
        0 => atom(rng),
        1 => Scenario::seq(
            (0..rng.gen_range(0..3usize))
                .map(|_| random_scenario(rng, budget - 1))
                .collect(),
        ),
        2 => Scenario::choice(
            (0..rng.gen_range(1..3usize))
                .map(|_| random_scenario(rng, budget - 1))
                .collect(),
        ),
        3 => {
            let filters = [
                ScenarioFilter::MinLen(rng.gen_range(0..3usize)),
                ScenarioFilter::MaxLen(rng.gen_range(2..8usize)),
                ScenarioFilter::MinDuplicates(rng.gen_range(0..2usize)),
                ScenarioFilter::ConcurrentWritePairs { min: 1 },
                ScenarioFilter::HealsBeforeQuiesce,
            ];
            Scenario::filter(
                filters[rng.gen_range(0..filters.len())].clone(),
                random_scenario(rng, budget - 1),
            )
        }
        4 => Scenario::plug(
            Scenario::seq(vec![random_scenario(rng, budget - 1), Scenario::hole("h")]),
            "h",
            random_scenario(rng, budget - 1),
        ),
        _ => Scenario::seq(vec![
            random_scenario(rng, budget - 1),
            random_scenario(rng, budget - 1),
        ]),
    }
}

#[test]
fn random_scenarios_are_self_consistent() {
    // Self-consistency of the algebra, over randomly composed scenarios:
    // every enumerated member satisfies the scenario's own top-level
    // filters, and every sample is a member of the enumeration.
    const DEPTH: usize = 6;
    prop::check("scenario self-consistency", &u64s(0..1_000_000), |seed| {
        let mut rng = Rng::seed_from_u64(*seed);
        let scenario = random_scenario(&mut rng, 3);
        let members = scenario.iter_to_depth(DEPTH);
        for m in &members {
            for f in scenario.top_filters() {
                prop_assert!(
                    f.accepts(m),
                    "{f:?} rejects enumerated member {}",
                    member_string(m)
                );
            }
        }
        let mut sample_rng = rng.fork();
        for _ in 0..4 {
            if let Some(s) = scenario.sample(&mut sample_rng, DEPTH) {
                prop_assert!(
                    members.contains(&s),
                    "sample {} is not an enumerated member",
                    member_string(&s)
                );
            }
        }
        Ok(())
    });
}

#[test]
fn exhaustive_and_sampled_classification_agree_across_the_matrix() {
    // The acceptance pin: for the heal-before-quiesce family, the
    // exhaustive sweep and random sampling agree on the strict-causal
    // verdict for all seven stores — and LWW is the one violator.
    let config = FamilyConfig::default();
    let mut violators = Vec::new();
    for (factory, conf) in conformance_matrix() {
        let family = heal_before_quiesce(conf.spec);
        let report = explore_family(
            factory.as_ref(),
            &config,
            1,
            "hbq",
            &family,
            &strict_causal,
            &mut NullObserver,
        );
        if !report.all_passed() {
            violators.push(factory.name().to_owned());
        }
        // Per-member exhaustive verdicts, keyed by canonical rendering.
        let verdicts: Vec<(String, bool)> = family
            .iter_to_depth(config.depth)
            .iter()
            .map(|member| {
                let mut sim = Simulator::new(factory.as_ref(), config.store_config);
                run_member(&mut sim, member);
                (member_string(member), strict_causal(&sim))
            })
            .collect();
        assert_eq!(
            verdicts.iter().filter(|(_, ok)| !ok).count(),
            report.failures,
            "{}: per-member verdicts disagree with the sweep report",
            factory.name()
        );
        let ec = ExplorationConfig {
            spec: conf.spec,
            ..ExplorationConfig::default()
        };
        for seed in 0..4u64 {
            // Sample one member, drive it with the sweep's own
            // `run_member`, classify it with the random explorer's
            // pipeline, and require the sampled verdict to match that
            // member's exhaustive verdict.
            let member = family
                .sample(&mut Rng::seed_from_u64(seed), config.depth)
                .expect("heal-before-quiesce is satisfiable");
            let mut sim = Simulator::new(
                factory.as_ref(),
                StoreConfig::new(ec.n_replicas, ec.n_objects),
            );
            run_member(&mut sim, &member);
            let rep = report_on(&sim, &ec, seed);
            let sampled_causal = rep.abstract_execution.is_ok() && rep.causal.is_none();
            let expected = verdicts
                .iter()
                .find(|(m, _)| *m == member_string(&member))
                .expect("sample must be an enumerated member")
                .1;
            assert_eq!(
                sampled_causal,
                expected,
                "{} seed {seed}: sampled verdict disagrees with the exhaustive verdict for {}",
                factory.name(),
                member_string(&member)
            );
        }
    }
    assert_eq!(violators, ["lww"], "strict-causal violator set drifted");
}

#[test]
fn shrinking_a_real_counterexample_yields_the_minimal_in_family_witness() {
    // Seeded end-to-end shrink: the property "LWW stays strictly causal"
    // fails on every heal-before-quiesce member; the greedy walk over the
    // family's subsequence lattice must land on the first canonical
    // 10-pattern member (the 11-pattern dup variants shrink into it), and
    // the whole failure report must replay byte-identically.
    let family = heal_before_quiesce(SpecKind::LwwRegister);
    let gen = FamilyGen::new("hbq", &family, 12);
    let config = prop::Config {
        cases: 8,
        seed: 0xC0FFEE,
        max_shrink_steps: 50,
    };
    let run = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop::check_with(&config, "lww stays causal", &gen, |member| {
                let mut sim = Simulator::new(&LwwStore, StoreConfig::new(3, 2));
                run_member(&mut sim, member);
                if strict_causal(&sim) {
                    Ok(())
                } else {
                    Err(format!("causal violation on {}", member_string(member)))
                }
            });
        }))
        .expect_err("every member violates strict causality on LWW")
    };
    let msg = |e: Box<dyn std::any::Any + Send>| {
        e.downcast_ref::<String>().expect("string panic").clone()
    };
    let first = msg(run());
    // The two 10-pattern members are the family's minimal elements; the
    // 11-pattern dup variants each shrink into their own chain's minimum.
    let minimal: Vec<String> = gen
        .members()
        .iter()
        .filter(|m| m.len() == 10)
        .map(|m| member_string(m))
        .collect();
    assert_eq!(minimal.len(), 2);
    assert!(
        minimal.iter().any(|m| first.contains(m)),
        "shrunk witness is not a minimal family member:\n{first}"
    );
    assert!(first.contains("HAEC_PROP_SEED="), "{first}");
    assert_eq!(
        first,
        msg(run()),
        "failure report must replay byte-identically"
    );
}
