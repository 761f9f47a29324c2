//! The exploration pipeline: run a store under a random schedule, build the
//! witness abstract execution, and check every property at once.

use crate::obs::hist::Histogram;
use crate::scheduler::{run_schedule, ScheduleConfig};
use crate::simulator::Simulator;
use crate::workload::{KeyDistribution, Workload};
use haec_core::consistency::{causal, eventual, occ};
use haec_core::witness::WitnessError;
use haec_core::{check_correct, AbstractExecution, ObjectSpecs, SpecKind};
use haec_model::{StoreConfig, StoreFactory};
use std::fmt;

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExplorationConfig {
    /// Cluster size.
    pub n_replicas: usize,
    /// Object count.
    pub n_objects: usize,
    /// Object specification (drives the workload and the checkers).
    pub spec: SpecKind,
    /// Fraction of reads.
    pub read_ratio: f64,
    /// Key skew.
    pub keys: KeyDistribution,
    /// Schedule parameters.
    pub schedule: ScheduleConfig,
    /// Order `H` by store arbitration timestamps instead of execution order
    /// (use for LWW-style stores).
    pub arbitrated_order: bool,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            n_replicas: 3,
            n_objects: 2,
            spec: SpecKind::Mvr,
            read_ratio: 0.4,
            keys: KeyDistribution::Uniform,
            schedule: ScheduleConfig::default(),
            arbitrated_order: false,
        }
    }
}

/// Everything learned from one exploration run.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// Store name.
    pub store: String,
    /// Seed used.
    pub seed: u64,
    /// Number of `do` events generated.
    pub do_events: usize,
    /// The witness abstract execution, if it could be assembled.
    pub abstract_execution: Result<AbstractExecution, WitnessError>,
    /// Correctness (Definition 8) of the witness.
    pub correct: Option<String>,
    /// Causal consistency (Definition 12) of the witness.
    pub causal: Option<String>,
    /// OCC (Definition 18) of the witness.
    pub occ: Option<String>,
    /// Residual staleness: max events an update stayed invisible to a
    /// same-object event.
    pub max_staleness: usize,
    /// Full per-update staleness distribution (one sample per update, the
    /// aggregated form of [`eventual::staleness`]).
    pub staleness: Histogram,
}

impl ConsistencyReport {
    /// Correct + causal: the witness passed both safety checks.
    pub fn is_causally_consistent(&self) -> bool {
        self.abstract_execution.is_ok() && self.correct.is_none() && self.causal.is_none()
    }

    /// Additionally OCC.
    pub fn is_occ(&self) -> bool {
        self.is_causally_consistent() && self.occ.is_none()
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (seed {}): {} do events",
            self.store, self.seed, self.do_events
        )?;
        let fmt_check = |o: &Option<String>| o.clone().unwrap_or_else(|| "ok".into());
        writeln!(
            f,
            "  witness:  {}",
            if self.abstract_execution.is_ok() {
                "ok"
            } else {
                "FAILED"
            }
        )?;
        writeln!(f, "  correct:  {}", fmt_check(&self.correct))?;
        writeln!(f, "  causal:   {}", fmt_check(&self.causal))?;
        writeln!(f, "  occ:      {}", fmt_check(&self.occ))?;
        writeln!(f, "  staleness: {}", self.staleness)?;
        write!(f, "  max staleness: {}", self.max_staleness)
    }
}

/// Runs one exploration: schedule → witness → checkers.
pub fn explore(
    factory: &dyn StoreFactory,
    config: &ExplorationConfig,
    seed: u64,
) -> ConsistencyReport {
    explore_with(factory, config, seed, |_| {})
}

/// Like [`explore`], but hands the fresh simulator to `attach` first so the
/// caller can register [observers](crate::obs::Observer) (or otherwise
/// inspect it) before the schedule runs.
pub fn explore_with(
    factory: &dyn StoreFactory,
    config: &ExplorationConfig,
    seed: u64,
    attach: impl FnOnce(&mut Simulator),
) -> ConsistencyReport {
    let store_config = StoreConfig::new(config.n_replicas, config.n_objects);
    let mut sim = Simulator::new(factory, store_config);
    attach(&mut sim);
    let mut workload = Workload::new(
        config.spec,
        config.n_replicas,
        config.n_objects,
        config.read_ratio,
        config.keys,
    );
    run_schedule(&mut sim, &mut workload, &config.schedule, seed);
    report_on(&sim, config, seed)
}

/// Builds a report for an already-driven simulator.
pub fn report_on(sim: &Simulator, config: &ExplorationConfig, seed: u64) -> ConsistencyReport {
    let specs = ObjectSpecs::uniform(config.spec);
    let abstract_execution = if config.arbitrated_order {
        sim.abstract_execution_arbitrated()
    } else {
        sim.abstract_execution()
    };
    let (correct, causal_res, occ_res, staleness) = match &abstract_execution {
        Ok(a) => {
            let mut hist = Histogram::new();
            for s in eventual::staleness(a) {
                hist.record(s as u64);
            }
            (
                check_correct(a, &specs).err().map(|e| e.to_string()),
                causal::check(a).err().map(|e| e.to_string()),
                occ::check(a).err().map(|e| e.to_string()),
                hist,
            )
        }
        Err(_) => (None, None, None, Histogram::new()),
    };
    ConsistencyReport {
        store: sim.store_name().to_owned(),
        seed,
        do_events: sim.execution().do_events().len(),
        abstract_execution,
        correct,
        causal: causal_res,
        occ: occ_res,
        max_staleness: staleness.max().unwrap_or(0) as usize,
        staleness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_stores::{BoundedStore, DvvMvrStore, LwwStore, OrSetStore};

    #[test]
    fn dvv_mvr_explorations_are_causally_consistent() {
        let config = ExplorationConfig::default();
        for seed in 0..8 {
            let rep = explore(&DvvMvrStore, &config, seed);
            assert!(rep.is_causally_consistent(), "seed {seed}:\n{rep}");
        }
    }

    #[test]
    fn orset_explorations_are_causally_consistent() {
        let config = ExplorationConfig {
            spec: SpecKind::OrSet,
            ..ExplorationConfig::default()
        };
        for seed in 0..5 {
            let rep = explore(&OrSetStore, &config, seed);
            assert!(rep.is_causally_consistent(), "seed {seed}:\n{rep}");
        }
    }

    #[test]
    fn lww_with_arbitrated_order_is_correct_but_not_causal() {
        let config = ExplorationConfig {
            spec: SpecKind::LwwRegister,
            arbitrated_order: true,
            ..ExplorationConfig::default()
        };
        let mut correct_runs = 0;
        let mut causal_failures = 0;
        for seed in 0..10 {
            let rep = explore(&LwwStore, &config, seed);
            assert!(rep.abstract_execution.is_ok(), "seed {seed}");
            if rep.correct.is_none() {
                correct_runs += 1;
            }
            if rep.causal.is_some() {
                causal_failures += 1;
            }
        }
        assert_eq!(correct_runs, 10, "LWW must be correct in arbitration order");
        assert!(
            causal_failures > 0,
            "random schedules should expose LWW's causality violations"
        );
    }

    #[test]
    fn bounded_store_fails_safety_under_exploration() {
        let config = ExplorationConfig::default();
        let mut failures = 0;
        for seed in 0..10 {
            let rep = explore(&BoundedStore, &config, seed);
            let broken =
                rep.abstract_execution.is_err() || rep.correct.is_some() || rep.causal.is_some();
            if broken {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "bounded messages must break correctness or causality somewhere"
        );
    }

    #[test]
    fn sampled_family_members_report_deterministically() {
        // The random-exploration twin of `explore_family`: sample one
        // member, drive it with the sweep's own `run_member`, classify it
        // with the standard witness/checker pipeline.
        use crate::scenario::{concurrent_write_pair, run_member, Scenario, ScenarioFilter};
        let config = ExplorationConfig::default();
        let sampled = |scenario: &Scenario| {
            let member = scenario.sample(&mut haec_testkit::Rng::seed_from_u64(5), 12)?;
            let mut sim = Simulator::new(
                &DvvMvrStore,
                StoreConfig::new(config.n_replicas, config.n_objects),
            );
            run_member(&mut sim, &member);
            Some(report_on(&sim, &config, 5))
        };
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        let rep = sampled(&family).expect("satisfiable family");
        assert!(rep.is_causally_consistent(), "{rep}");
        let again = sampled(&family).unwrap();
        assert_eq!(rep.to_string(), again.to_string(), "same seed, same run");
        // An unsatisfiable family yields no member to report on.
        let empty = Scenario::filter(ScenarioFilter::MinLen(99), Scenario::empty());
        assert!(sampled(&empty).is_none());
    }

    #[test]
    fn report_display_smoke() {
        let rep = explore(&DvvMvrStore, &ExplorationConfig::default(), 1);
        let s = rep.to_string();
        assert!(s.contains("dvv-mvr"));
        assert!(s.contains("causal"));
    }
}
