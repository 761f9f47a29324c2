//! Store × fault conformance matrix: every concrete store driven through
//! drop / duplicate / partition schedules from the testkit PRNG, with
//! convergence and spec compliance asserted after quiescence.
//!
//! Fault semantics follow the paper's model. Duplicates and partitions
//! are *delays* — Definition 3's sufficient connectivity still holds, so
//! quiescent runs must converge and comply. Drops genuinely lose
//! messages (outside Definition 3), so dropped-message runs assert only
//! safety of the witness (correctness/causality of what was actually
//! delivered), not convergence.

use haec::model::EventKind;
use haec::prelude::*;
use haec::stores::{conformance_matrix as matrix, Conformance};
use haec_sim::check_quiescent_agreement;
use haec_sim::obs::NullObserver;
use haec_sim::scenario::{
    concurrent_write_pair, dup_storm, explore_family, heal_before_quiesce, FamilyConfig, Scenario,
};

/// The three fault schedules; drops forfeit the convergence guarantee.
fn fault_schedules(steps: usize) -> Vec<(&'static str, ScheduleConfig, bool)> {
    let base = ScheduleConfig {
        steps,
        drop_prob: 0.0,
        dup_prob: 0.0,
        quiesce_at_end: false, // check_quiescent_agreement drives quiescence
        ..ScheduleConfig::default()
    };
    vec![
        (
            "drop",
            ScheduleConfig {
                drop_prob: 0.2,
                ..base.clone()
            },
            false,
        ),
        (
            "duplicate",
            ScheduleConfig {
                dup_prob: 0.5,
                ..base.clone()
            },
            true,
        ),
        (
            "partition",
            ScheduleConfig {
                partition: Some(Partition {
                    from_step: 0,
                    to_step: 2 * steps / 3,
                    group: vec![0],
                }),
                ..base
            },
            true,
        ),
    ]
}

fn check_compliance(sim: &Simulator, conf: &Conformance, label: &str) {
    let a = if conf.arbitrated {
        sim.abstract_execution_arbitrated()
    } else {
        sim.abstract_execution()
    };
    let a = a.unwrap_or_else(|e| panic!("{label}: witness failed to resolve: {e:?}"));
    if conf.correct {
        let specs = ObjectSpecs::uniform(conf.spec);
        assert!(
            check_correct(&a, &specs).is_ok(),
            "{label}: witness violates the {:?} spec: {}",
            conf.spec,
            a.display()
        );
    }
    if conf.causal {
        assert!(
            causal::check(&a).is_ok(),
            "{label}: witness violates causal consistency: {}",
            a.display()
        );
    }
}

#[test]
fn store_fault_conformance_matrix() {
    let steps = 180;
    for (factory, conf) in matrix() {
        for (fault, sched, expect_convergence) in fault_schedules(steps) {
            for seed in 0..3u64 {
                let label = format!("{} × {fault} (seed {seed})", factory.name());
                let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(3, 2));
                let mut wl = Workload::new(conf.spec, 3, 2, 0.3, KeyDistribution::Uniform);
                run_schedule(&mut sim, &mut wl, &sched, seed);
                if expect_convergence {
                    assert!(
                        check_quiescent_agreement(&mut sim).is_ok(),
                        "{label}: replicas disagree after quiescence"
                    );
                }
                check_compliance(&sim, &conf, &label);
            }
        }
    }
}

/// The same verdict logic as `check_compliance`, as a boolean for
/// family sweeps.
fn conformance_check(conf: Conformance) -> impl Fn(&Simulator) -> bool + Sync {
    move |sim| {
        let a = if conf.arbitrated {
            sim.abstract_execution_arbitrated()
        } else {
            sim.abstract_execution()
        };
        let Ok(a) = a else { return false };
        (!conf.correct || check_correct(&a, &ObjectSpecs::uniform(conf.spec)).is_ok())
            && (!conf.causal || causal::check(&a).is_ok())
    }
}

#[test]
fn scenario_families_classify_per_store() {
    // Three named scenario families swept across the seven matrix stores,
    // with two classifications pinned per (store, family): compliance with
    // the store's own conformance contract (everything passes — the
    // families stay inside each store's guarantees), and strict
    // Definition 12 causality, where heal-before-quiesce separates the
    // causal stores from LWW exactly: the causally-later write reaches the
    // healed replica first and is read before quiescence, which only a
    // buffering (causal) store survives.
    let config = FamilyConfig::default();
    for (factory, conf) in matrix() {
        let families: Vec<(&str, Scenario)> = vec![
            ("concurrent-write-pair", concurrent_write_pair(conf.spec, 3)),
            ("heal-before-quiesce", heal_before_quiesce(conf.spec)),
            ("dup-storm", dup_storm(conf.spec)),
        ];
        for (name, family) in &families {
            let report = explore_family(
                factory.as_ref(),
                &config,
                1,
                name,
                family,
                &conformance_check(conf),
                &mut NullObserver,
            );
            assert!(
                report.all_passed(),
                "{} × {name}: {} of {} members violate the conformance contract (first: {:?})",
                factory.name(),
                report.failures,
                report.run,
                report.counterexample
            );

            let strict = explore_family(
                factory.as_ref(),
                &config,
                1,
                name,
                family,
                &|sim: &Simulator| {
                    sim.abstract_execution()
                        .map(|a| causal::check(&a).is_ok())
                        .unwrap_or(false)
                },
                &mut NullObserver,
            );
            let expect_violation = *name == "heal-before-quiesce" && !conf.causal;
            assert_eq!(
                !strict.all_passed(),
                expect_violation,
                "{} × {name}: strict causal classification drifted ({} failures of {} members)",
                factory.name(),
                strict.failures,
                strict.run
            );
        }
    }
}

#[test]
fn duplicates_never_double_apply() {
    // Focused variant of the matrix: a counter under heavy duplication
    // must still count each increment exactly once everywhere.
    for seed in 0..5u64 {
        let mut sim = Simulator::new(&CounterStore, StoreConfig::new(3, 1));
        let mut wl = Workload::new(SpecKind::Counter, 3, 1, 0.0, KeyDistribution::Uniform);
        let sched = ScheduleConfig {
            steps: 120,
            drop_prob: 0.0,
            dup_prob: 0.8,
            ..ScheduleConfig::default()
        };
        run_schedule(&mut sim, &mut wl, &sched, seed);
        let incs = sim
            .execution()
            .do_events()
            .iter()
            .filter(|&&e| {
                matches!(
                    sim.execution().event(e).kind,
                    EventKind::Do { op: Op::Inc, .. }
                )
            })
            .count();
        let expected = ReturnValue::values([Value::new(incs as u64)]);
        let x = ObjectId::new(0);
        for r in 0..3 {
            assert_eq!(
                sim.read(ReplicaId::new(r), x),
                expected,
                "seed {seed}: replica {r} miscounted under duplication"
            );
        }
    }
}

#[test]
fn partition_heals_to_agreement_for_every_causal_store() {
    // Long partition, then healing: Definition 3's sufficient
    // connectivity is restored, so every causal store converges.
    for (factory, conf) in matrix() {
        let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(3, 2));
        let mut wl = Workload::new(conf.spec, 3, 2, 0.3, KeyDistribution::Uniform);
        let sched = ScheduleConfig {
            steps: 200,
            drop_prob: 0.0,
            quiesce_at_end: false,
            partition: Some(Partition {
                from_step: 0,
                to_step: 200,
                group: vec![0, 1],
            }),
            ..ScheduleConfig::default()
        };
        run_schedule(&mut sim, &mut wl, &sched, 13);
        assert!(
            check_quiescent_agreement(&mut sim).is_ok(),
            "{}: disagreement after partition heal",
            factory.name()
        );
    }
}
