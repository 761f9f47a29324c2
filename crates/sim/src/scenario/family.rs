//! Exhaustive exploration of a scenario family: run every member.
//!
//! [`explore_family`] is the family analogue of
//! [`explore_all`](crate::exhaustive::explore_all): it enumerates the
//! family to the configured depth and drives every member (up to the
//! [`max_members`](FamilyConfig::max_members) cap) on a fresh simulator,
//! classifying each with the caller's predicate. Unlike the schedule-tree
//! DFS it is a **sweep** — it never stops at the first failure. That
//! choice is what makes the sweep one implementation (verdicts on up to
//! `threads` workers, then a canonical-order merge) that is trivially
//! bit-identical for every thread count: every member's verdict is
//! computed unconditionally on a private simulator, the cap truncates the
//! *enumeration* (a pure function of the scenario), and the counterexample
//! is defined as the first failing member in canonical order, not the
//! first found.

use super::{run_member, Pat, Scenario};
use crate::exhaustive::parallel::par_map;
use crate::obs::Observer;
use crate::simulator::Simulator;
use haec_model::{StoreConfig, StoreFactory};
use std::fmt;

/// Parameters of a family exploration.
#[derive(Clone, Copy, Debug)]
pub struct FamilyConfig {
    /// Cluster shape for every member run.
    pub store_config: StoreConfig,
    /// Enumeration depth: members longer than this are not generated.
    pub depth: usize,
    /// Cap on members *run*. The enumeration itself is never truncated
    /// mid-member: the first `max_members` members in canonical order
    /// run, the rest are reported via
    /// [`cap_hit`](FamilyReport::cap_hit) — so the cap accounting is
    /// exact and thread-invariant (compare the schedule-granular cap of
    /// [`ExhaustiveConfig::max_schedules`](crate::exhaustive::ExhaustiveConfig)).
    pub max_members: usize,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            store_config: StoreConfig::new(3, 2),
            depth: 12,
            max_members: 4096,
        }
    }
}

/// Why a [`FamilyConfig`] is unusable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FamilyConfigError {
    /// `depth` is 0: no member, not even the empty one's extensions.
    ZeroDepth,
    /// `max_members` is 0: nothing would run.
    ZeroMaxMembers,
}

impl fmt::Display for FamilyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyConfigError::ZeroDepth => write!(f, "depth must be nonzero"),
            FamilyConfigError::ZeroMaxMembers => write!(f, "max_members must be nonzero"),
        }
    }
}

impl FamilyConfig {
    /// Checks the configuration, mirroring
    /// [`ExhaustiveConfig::validate`](crate::exhaustive::ExhaustiveConfig::validate).
    pub fn validate(&self) -> Result<(), FamilyConfigError> {
        if self.depth == 0 {
            return Err(FamilyConfigError::ZeroDepth);
        }
        if self.max_members == 0 {
            return Err(FamilyConfigError::ZeroMaxMembers);
        }
        Ok(())
    }
}

/// Outcome of a family sweep. Fully deterministic in
/// `(store, config, scenario)` — byte-identical across runs and thread
/// counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FamilyReport {
    /// Family name (as passed to the exploration).
    pub family: String,
    /// Distinct members the family enumerates at the configured depth.
    pub enumerated: usize,
    /// Members actually run (`min(enumerated, max_members)`).
    pub run: usize,
    /// Whether the cap truncated the sweep.
    pub cap_hit: bool,
    /// Members whose run failed the predicate.
    pub failures: usize,
    /// The first failing member in canonical enumeration order.
    pub counterexample: Option<Vec<Pat>>,
}

impl FamilyReport {
    /// Did every member that ran satisfy the predicate?
    pub fn all_passed(&self) -> bool {
        self.failures == 0
    }
}

/// Runs every member of `scenario` (in canonical order, up to the cap)
/// on a fresh simulator and classifies it with `check`: enumerate,
/// truncate to the cap, compute one verdict per member on up to `threads`
/// workers (`threads == 1` is the inline loop), then merge in canonical
/// order. Observer hooks ([`Observer::on_family_member`], on the caller's
/// `obs`), the failure count and the first failing member all come from
/// the merge, so the report — [`cap_hit`](FamilyReport::cap_hit)
/// accounting included — and the observer's event stream are
/// bit-identical for every thread count.
///
/// The predicate is `Fn + Sync`: it is evaluated concurrently from worker
/// threads.
///
/// # Panics
///
/// Panics if `config` fails [`FamilyConfig::validate`] or `threads` is
/// zero.
pub fn explore_family(
    factory: &dyn StoreFactory,
    config: &FamilyConfig,
    threads: usize,
    name: &str,
    scenario: &Scenario,
    check: &(dyn Fn(&Simulator) -> bool + Sync),
    obs: &mut dyn Observer,
) -> FamilyReport {
    config.validate().expect("invalid FamilyConfig");
    let members = scenario.iter_to_depth(config.depth);
    let enumerated = members.len();
    let run = enumerated.min(config.max_members);
    let to_run = &members[..run];
    let verdicts = par_map(threads, to_run, |_, member| {
        let mut sim = Simulator::new(factory, config.store_config);
        run_member(&mut sim, member);
        check(&sim)
    });
    let mut failures = 0;
    let mut counterexample = None;
    for (member, passed) in to_run.iter().zip(verdicts) {
        obs.on_family_member(name, member.len(), passed);
        if !passed {
            failures += 1;
            if counterexample.is_none() {
                counterexample = Some(member.clone());
            }
        }
    }
    FamilyReport {
        family: name.to_owned(),
        enumerated,
        run,
        cap_hit: enumerated > config.max_members,
        failures,
        counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tests::causal_check;
    use crate::obs::stats::StatsObserver;
    use crate::obs::stream::StreamObserver;
    use crate::obs::NullObserver;
    use crate::scenario::{concurrent_write_pair, heal_before_quiesce, ScenarioFilter};
    use haec_core::SpecKind;
    use haec_stores::DvvMvrStore;
    #[expect(
        clippy::disallowed_types,
        reason = "a test counter of predicate calls, read after the sweep"
    )]
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The sweep on one thread with nothing observing.
    fn sweep(
        config: &FamilyConfig,
        name: &str,
        family: &Scenario,
        check: &(dyn Fn(&Simulator) -> bool + Sync),
    ) -> FamilyReport {
        explore_family(
            &DvvMvrStore,
            config,
            1,
            name,
            family,
            check,
            &mut NullObserver,
        )
    }

    #[test]
    fn sweep_counts_and_cap_accounting() {
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        let config = FamilyConfig::default();
        let report = sweep(&config, "cwp", &family, &causal_check);
        assert_eq!(report.family, "cwp");
        assert_eq!(report.enumerated, 6, "3 replicas, ordered distinct pairs");
        assert_eq!(report.run, 6);
        assert!(!report.cap_hit);
        assert!(report.all_passed(), "dvv-mvr is causally consistent");

        let capped = FamilyConfig {
            max_members: 2,
            ..config
        };
        let report = sweep(&capped, "cwp", &family, &causal_check);
        assert_eq!(report.enumerated, 6);
        assert_eq!(report.run, 2);
        assert!(report.cap_hit);
    }

    #[test]
    fn counterexample_is_first_failing_in_canonical_order_without_early_exit() {
        // A predicate that fails every member: the sweep still visits all
        // of them (no early exit), and the counterexample is member 0.
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        let members = family.iter_to_depth(FamilyConfig::default().depth);
        #[expect(
            clippy::disallowed_types,
            reason = "a test counter of predicate calls, read after the sweep"
        )]
        let seen = AtomicUsize::new(0);
        let report = sweep(&FamilyConfig::default(), "cwp", &family, &|_| {
            seen.fetch_add(1, Ordering::SeqCst);
            false
        });
        assert_eq!(
            seen.load(Ordering::SeqCst),
            members.len(),
            "sweep must not stop early"
        );
        assert_eq!(report.failures, members.len());
        assert_eq!(report.counterexample.as_ref(), members.first());
    }

    #[test]
    fn observer_sees_every_member_in_order() {
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        let mut stats = StatsObserver::new();
        let report = explore_family(
            &DvvMvrStore,
            &FamilyConfig::default(),
            1,
            "cwp",
            &family,
            &causal_check,
            &mut stats,
        );
        let tally = stats.families().get("cwp").expect("family recorded");
        assert_eq!(tally.members, report.run as u64);
        assert_eq!(tally.failures, report.failures as u64);
    }

    #[test]
    fn empty_family_reports_cleanly() {
        let family = crate::scenario::Scenario::filter(
            ScenarioFilter::MinLen(99),
            crate::scenario::Scenario::empty(),
        );
        let report = sweep(&FamilyConfig::default(), "empty", &family, &causal_check);
        assert_eq!(report.enumerated, 0);
        assert_eq!(report.run, 0);
        assert!(!report.cap_hit);
        assert!(report.all_passed());
    }

    #[test]
    fn family_sweep_is_thread_invariant_including_observer_stream() {
        let family = heal_before_quiesce(SpecKind::Mvr);
        let config = FamilyConfig::default();
        let hbq = |threads: usize, obs: &mut dyn Observer| {
            explore_family(
                &DvvMvrStore,
                &config,
                threads,
                "hbq",
                &family,
                &causal_check,
                obs,
            )
        };
        let mut seq_stats = StatsObserver::new();
        let sequential = hbq(1, &mut seq_stats);
        assert_eq!(sequential.run, 4);
        for threads in [2, 4, 9] {
            let mut par_stats = StatsObserver::new();
            let par = hbq(threads, &mut par_stats);
            assert_eq!(par, sequential, "threads={threads}");
            assert_eq!(par_stats.families(), seq_stats.families());
        }

        // The streaming observer's family tally rides the same
        // canonical-order merge: its snapshot is thread-invariant too.
        let mut seq_stream = StreamObserver::for_replicas(3);
        hbq(1, &mut seq_stream);
        let seq_snap = seq_stream.snapshot();
        assert_eq!(seq_snap.family_members, 4);
        for threads in [2, 8] {
            let mut par_stream = StreamObserver::for_replicas(3);
            hbq(threads, &mut par_stream);
            assert_eq!(par_stream.snapshot(), seq_snap, "threads={threads}");
        }
    }

    #[test]
    fn family_cap_hit_accounting_is_exact_across_threads() {
        // Regression for the cap/family interaction: when max_members lands
        // inside the family, the enumeration prefix that runs — and the
        // cap_hit flag — are a pure function of the config, so every thread
        // count reports identical numbers (member granularity; compare the
        // unit-granularity contract of `ExhaustiveConfig::max_schedules`).
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        let config = FamilyConfig {
            max_members: 4,
            ..FamilyConfig::default()
        };
        let sequential = sweep(&config, "cwp", &family, &|_| false);
        assert_eq!(sequential.enumerated, 6);
        assert_eq!(sequential.run, 4);
        assert!(sequential.cap_hit);
        assert_eq!(sequential.failures, 4, "only capped members run");
        for threads in [2, 3, 8] {
            let par = explore_family(
                &DvvMvrStore,
                &config,
                threads,
                "cwp",
                &family,
                &|_| false,
                &mut NullObserver,
            );
            assert_eq!(par, sequential, "threads={threads}");
        }
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let ok = FamilyConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = FamilyConfig { depth: 0, ..ok };
        assert_eq!(bad.validate(), Err(FamilyConfigError::ZeroDepth));
        let bad = FamilyConfig {
            max_members: 0,
            ..ok
        };
        assert_eq!(bad.validate(), Err(FamilyConfigError::ZeroMaxMembers));
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_members"));
    }
}
