//! Deterministic parallel schedule exploration.
//!
//! [`explore_all_parallel`] shards the DFS schedule tree of the sequential
//! explorer across a fixed worker pool. Determinism comes from structure,
//! not timing:
//!
//! 1. **Split.** The sequential walker itself (`Dfs::visit`, dedup off, a
//!    buffering observer, its split hook set) walks the tree down to the
//!    split depth, producing (a) the prefix nodes the sequential engine
//!    would visit, in its exact pre-order, and (b) one **work unit** per
//!    subtree root at that depth: the action prefix, a [`SimSnapshot`]
//!    of the simulator state there, and the frontier offset and sleep set
//!    the sequential engine would carry into that subtree. The partition
//!    is a pure function of the config — no thread count, no clocks.
//! 2. **Explore.** Workers drain the unit list **level by level**: units
//!    are chunked in canonical order into levels of `LEVEL_WIDTH`, one
//!    `par_map` per level. Each unit is explored by the same `Dfs` on a
//!    private [`Simulator`] rebuilt from the snapshot, with a private memo
//!    table, a forked ([`ForkJoinObserver::fork`]) observer — and, with
//!    dedup on, a **shared cross-unit dedup table** that workers probe
//!    *read-only*: the walker's own memo type, a flat fingerprint table,
//!    owned by the orchestrator and lent `&` to each level's workers.
//!    Between levels — `par_map`'s scoped threads have joined, so no reader
//!    exists — the orchestrator adds every completed unit's memo entries
//!    to it, in canonical unit order, first write wins, so the table a
//!    level reads is a pure function of the config — never of worker
//!    timing.
//! 3. **Merge.** Worker results are folded in **canonical subtree order**
//!    (the order the sequential DFS visits the units), never completion
//!    order: schedule counts accumulate, the first counterexample in
//!    canonical order wins, buffered prefix-node events and forked
//!    observers replay into the caller's observer exactly where the
//!    sequential engine would have produced them — every
//!    [`Observer::on_search_node`] prefix included.
//!
//! With dedup off the resulting [`ExhaustiveReport`] and observer state are
//! bit-identical to [`explore_all_observed`](super::explore_all_observed)
//! for every thread count — the differential suite and
//! `tests/determinism.rs` pin this.
//! With dedup **on**, schedule counts and counterexamples still match the
//! sequential engine exactly (memoisation never changes either), and the
//! hit/miss *statistics* are **thread-invariant** too: a unit's probes see
//! exactly its private memo plus the entries published at the level
//! barriers before it ran, both pure functions of the config. (They can
//! differ from the *sequential* engine's statistics — the level structure
//! scores cross-unit hits the sequential table would score within one walk
//! and vice versa; a depth-1 tree is a single root unit with exact
//! sequential statistics. `explore_differential` pins absolute parallel
//! counters, and `tests/determinism.rs` the run-report JSON, dedup counters
//! included, byte-identical across thread counts.)
//!
//! A finite [`max_schedules`](ExhaustiveConfig::max_schedules) cap is
//! honoured at merge time with unit granularity: the reported count is
//! exact with dedup off, while the observer may see the remainder of the
//! unit the cap landed in (workers cannot know the global budget without
//! sharing mutable state). Counterexamples compare against the remaining
//! budget so a failure the sequential engine would not have reached is not
//! reported.
//!
//! This module is the one place in the deterministic crates allowed to use
//! `std::thread` — `par_map` carries the workspace's one
//! `#[expect(clippy::disallowed_methods)]` for it; see DESIGN.md §7 and §9
//! for the policy rationale — so every fan-out (this worker pool, the family
//! sweep of [`explore_family`](crate::scenario::explore_family),
//! [`run_service_sweep`](crate::service::run_service_sweep)) goes through
//! `par_map`.

use super::{symmetry_applies, Action, Dfs, ExhaustiveConfig, ExhaustiveReport, Memo, SleepKey};
use crate::obs::{ForkJoinObserver, Observer};
use crate::simulator::{SimSnapshot, Simulator};
use haec_model::StoreFactory;
#[expect(
    clippy::disallowed_types,
    reason = "par_map's index claim and explore_all_parallel's cancellation bound; DESIGN.md §7"
)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Prefix depth at which the schedule tree is split into work units
/// (clamped to `depth − 1`): depth 2 already yields a few hundred units
/// for typical configs — enough to load-balance — and every level deeper
/// multiplies the snapshots taken by the branching factor.
const SPLIT_DEPTH: usize = 2;

/// Work units per publication level: the shared dedup table gains the memo
/// entries of levels `< L` before any unit of level `L` runs. 64 keeps a
/// pool of up to 8 workers busy between barriers while the few-hundred
/// units of a typical config still publish several times.
const LEVEL_WIDTH: usize = 64;

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the results **placed by index**: the output of the inline loop
/// `items.iter().enumerate().map(f)`, for every thread count. Workers
/// claim indices in increasing order; one worker runs inline.
///
/// # Panics
///
/// Panics if `threads` is zero — the crate's one thread-count contract.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the workspace's one fan-out: scoped workers claim indices from an atomic and results are placed by index; DESIGN.md §7"
)]
pub(crate) fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    assert!(threads > 0, "threads must be nonzero");
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // SeqCst: the claim decides which worker computes
                        // which index. Placement by index makes the output
                        // the same either way, but the determinism gate
                        // wants decision inputs totally ordered.
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= items.len() {
                            return mine;
                        }
                        mine.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut placed: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in claimed.into_iter().flatten() {
        placed[i] = Some(r);
    }
    placed
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// One shard of the schedule tree: the subtree rooted at `prefix`, as cut
/// by `Dfs::visit` at the split depth.
pub(super) struct Unit {
    pub(super) prefix: Vec<Action>,
    pub(super) snap: SimSnapshot,
    /// The sequential engine's frontier (queued-but-unvisited prefixes)
    /// the moment it would visit this subtree's root. Workers start their
    /// frontier counter here so every `on_search_node` frontier value
    /// matches the sequential engine's global counter exactly.
    pub(super) offset: usize,
    /// The sleep set the sequential engine would carry into this subtree
    /// (sorted; empty with POR off). Message ids stay valid because the
    /// snapshot preserves the transcript they index.
    pub(super) sleep: Vec<SleepKey>,
    /// How many prefix nodes the sequential engine visits before this
    /// subtree — the unit's position in the canonical merge.
    pub(super) nodes_before: usize,
}

/// Buffers the prefix phase's `on_search_node` events as
/// `(prefix, frontier)` — a few hundred nodes of at most `SPLIT_DEPTH`
/// actions — so the merge can stop replaying exactly where the sequential
/// engine would have stopped.
struct NodeLog(Vec<(Vec<Action>, usize)>);

impl Observer for NodeLog {
    fn on_search_node(&mut self, prefix: &[Action], frontier: usize) {
        self.0.push((prefix.to_vec(), frontier));
    }
}

/// The result of exploring one unit's subtree to exhaustion (or to its
/// first counterexample).
struct UnitResult<O> {
    report: ExhaustiveReport,
    /// The unit's private memo — the orchestrator moves its entries into
    /// the shared table at the next level barrier.
    memo: Memo,
    obs: O,
}

/// Explores one unit's subtree with the sequential engine's incremental
/// DFS: private simulator from the snapshot, fresh dedup table (backed
/// read-only by the shared table), forked observer, frontier counter
/// primed with the unit's offset.
fn explore_unit<O: ForkJoinObserver>(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    check: &(dyn Fn(&Simulator) -> bool + Sync),
    table: &Memo,
    unit: Unit,
    mut obs: O,
) -> UnitResult<O> {
    let mut sim = Simulator::from_snapshot(factory, config.store_config, &unit.snap);
    let mut local_check = |sim: &Simulator| check(sim);
    let mut dfs = Dfs::new(config, &sim, &mut local_check, &mut obs);
    dfs.prefix = unit.prefix;
    dfs.queued = unit.offset + 1;
    dfs.shared = Some(table);
    dfs.visit(&mut sim, &unit.sleep);
    let report = dfs.report();
    let memo = std::mem::take(&mut dfs.memo);
    UnitResult { report, memo, obs }
}

/// Like [`explore_all_observed`](super::explore_all_observed), but shards
/// the schedule tree across `threads` worker threads (clamped to the
/// number of work units). The report is bit-identical to the sequential
/// engine for every thread count (see the module docs for the exact
/// dedup-statistics contract); only wall-clock time changes. Search
/// progress replays into `obs` exactly as the sequential engine would
/// have produced it: prefix-node events in canonical pre-order, each
/// unit's events as one [`ForkJoinObserver::join`] at the unit's canonical
/// position ([`NullObserver`](crate::obs::NullObserver) for a caller with
/// nothing to observe).
///
/// Unlike the sequential entry points the predicate is `Fn + Sync`: it is
/// evaluated concurrently from worker threads.
///
/// # Panics
///
/// Panics if `config` fails [`ExhaustiveConfig::validate`] or `threads` is
/// zero.
#[expect(
    clippy::disallowed_types,
    reason = "the earliest counterexample index, read only to skip units the canonical merge drops; DESIGN.md §7"
)]
pub fn explore_all_parallel<O: ForkJoinObserver + Send>(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    threads: usize,
    check: &(dyn Fn(&Simulator) -> bool + Sync),
    obs: &mut O,
) -> ExhaustiveReport {
    config.validate().expect("invalid ExhaustiveConfig");
    assert!(threads > 0, "threads must be nonzero");
    // Neither phase below applies the global schedule budget: it is applied
    // at merge time, where canonical order makes it deterministic.
    let worker_config = ExhaustiveConfig {
        max_schedules: usize::MAX,
        ..config.clone()
    };

    // Phase 1: canonical partition of the tree into prefix nodes and work
    // units — the sequential walker with its split hook set and dedup off,
    // so prefix nodes probe no table. Pure function of `config`.
    let prefix_config = ExhaustiveConfig {
        dedup: false,
        symmetry: false,
        ..worker_config.clone()
    };
    let mut nodes = NodeLog(Vec::new());
    let mut sim = Simulator::new(factory, config.store_config);
    // The prefix walk runs with `symmetry` off, so the report's flag comes
    // from this probe — the one every unit's walker repeats.
    let symmetry_applied = symmetry_applies(config, &sim);
    let (units, mut prefix_cex) = {
        let mut local_check = |sim: &Simulator| check(sim);
        let mut walk = Dfs::new(&prefix_config, &sim, &mut local_check, &mut nodes);
        walk.split = SPLIT_DEPTH.min(config.depth - 1);
        walk.visit(&mut sim, &[]);
        (
            std::mem::take(&mut walk.units),
            walk.report().counterexample,
        )
    };
    let nodes = nodes.0;

    // Phase 2: explore the units, one publication level at a time. Workers
    // own their unit's state outright; the only shared mutation is claiming
    // work, so timing cannot reach the data.
    let positions: Vec<usize> = units.iter().map(|u| u.nodes_before).collect();
    // One mutex per unit, never contended: it only moves the unit and its
    // forked observer into whichever worker claims the index.
    let work: Vec<Mutex<Option<(Unit, O)>>> = units
        .into_iter()
        .map(|unit| Mutex::new(Some((unit, obs.fork()))))
        .collect();
    // The cross-unit dedup table. Workers of a level read it through `&`;
    // it is written only below, between levels, when `par_map` has
    // returned and its scoped threads are gone. Empty, and never probed,
    // with dedup off.
    let mut table = Memo::default();
    let earliest_cex = AtomicUsize::new(usize::MAX);
    let mut results: Vec<Option<UnitResult<O>>> = Vec::with_capacity(work.len());
    for level in work.chunks(LEVEL_WIDTH) {
        let start = results.len();
        // Units canonically after a unit already known to hold a
        // counterexample are skipped — the cex also stops the level loop
        // before the next publication, so neither the merge nor a later
        // level can observe the skip (or the timing-dependent set of
        // in-level memo entries it suppresses).
        //
        // SeqCst throughout: these atomics decide which units are skipped
        // and which counterexample cancels the sweep. The canonical-order
        // merge makes the *results* thread-invariant either way, but the
        // determinism contract wants decision inputs totally ordered
        // rather than argued about.
        results.extend(par_map(threads, level, |i, cell| {
            let i = start + i;
            if earliest_cex.load(Ordering::SeqCst) < i {
                return None;
            }
            let (unit, obs) = cell
                .lock()
                .expect("worker poisoned a unit cell")
                .take()
                .expect("unit claimed twice");
            let result = explore_unit(factory, &worker_config, check, &table, unit, obs);
            if result.report.counterexample.is_some() {
                earliest_cex.fetch_min(i, Ordering::SeqCst);
            }
            Some(result)
        }));
        // A counterexample anywhere before the next level makes every
        // later unit unreachable by the canonical merge — stop without
        // publishing this level's (possibly skip-truncated) memo entries,
        // so the shared table never depends on in-level timing.
        if earliest_cex.load(Ordering::SeqCst) < results.len() {
            break;
        }
        // Canonical unit order, first write wins: the same entry two
        // units memoised keeps the count of the canonically earlier one
        // (equal anyway, up to fingerprint collisions). A unit's own keys
        // are distinct, so the order its table yields them in decides
        // nothing.
        for result in &mut results[start..] {
            let result = result
                .as_mut()
                .expect("level barrier reached an unexplored unit");
            for (fp, left, count) in std::mem::take(&mut result.memo).iter() {
                table.insert(fp, left, count);
            }
        }
    }

    // Phase 3: canonical-order merge. Replays the exact accounting of the
    // sequential engine over buffered prefix nodes and whole units: unit
    // `u` sits after `positions[u]` prefix nodes. The walker stops at a
    // failing prefix node, so that node — if any — is the last one logged.
    let mut schedules = 0usize;
    let mut counterexample: Option<Vec<Action>> = None;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut replayed = 0usize;
    let mut next_unit = 0usize;
    while schedules < config.max_schedules && counterexample.is_none() {
        if positions.get(next_unit) == Some(&replayed) {
            let result = results[next_unit]
                .take()
                .expect("canonical merge reached an unexplored unit");
            next_unit += 1;
            let UnitResult {
                report, obs: child, ..
            } = result;
            let budget = config.max_schedules - schedules;
            if report.schedules >= budget {
                // The cap lands inside this unit. A counterexample
                // counts only if the sequential engine would still
                // have reached it: its in-unit position is the unit's
                // schedule count (the DFS stops at the failure).
                if report.counterexample.is_some() && report.schedules == budget {
                    counterexample = report.counterexample;
                    schedules += report.schedules;
                } else if config.dedup {
                    // Whole-subtree credits already overshoot the cap
                    // in the sequential engine; unit granularity is
                    // the parallel analogue.
                    schedules += report.schedules;
                } else {
                    schedules = config.max_schedules;
                }
            } else {
                schedules += report.schedules;
                counterexample = report.counterexample;
            }
            hits += report.dedup_hits;
            misses += report.dedup_misses;
            obs.join(child);
        } else if let Some((prefix, frontier)) = nodes.get(replayed) {
            replayed += 1;
            obs.on_search_node(prefix, *frontier);
            schedules += 1;
            if replayed == nodes.len() {
                counterexample = prefix_cex.take();
            }
        } else {
            break;
        }
    }
    ExhaustiveReport {
        schedules,
        counterexample,
        dedup_hits: hits,
        dedup_misses: misses,
        symmetry_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::causal_check;
    use super::super::{explore_all, explore_all_observed, ExhaustiveConfig};
    use super::*;
    use crate::obs::stats::StatsObserver;
    use crate::obs::NullObserver;
    use haec_core::SpecKind;
    use haec_stores::{BoundedStore, DvvMvrStore};

    fn depth_config(depth: usize) -> ExhaustiveConfig {
        ExhaustiveConfig {
            depth,
            max_schedules: usize::MAX,
            ..ExhaustiveConfig::default()
        }
    }

    #[test]
    fn parallel_report_matches_sequential_for_every_thread_count() {
        let config = depth_config(4);
        let sequential = explore_all(&DvvMvrStore, &config, &mut causal_check);
        for threads in [1, 2, 3, 8] {
            let par = explore_all_parallel(
                &DvvMvrStore,
                &config,
                threads,
                &causal_check,
                &mut NullObserver,
            );
            assert_eq!(par.schedules, sequential.schedules, "threads={threads}");
            assert_eq!(par.counterexample, sequential.counterexample);
            assert_eq!(par.dedup_hits, 0);
            assert_eq!(par.dedup_misses, 0);
        }
    }

    #[test]
    fn depth_one_tree_is_one_root_unit_with_exact_sequential_semantics() {
        // `min(SPLIT_DEPTH, depth - 1)` is 0 at depth 1: the root itself is
        // the only unit, so even the dedup statistics must match the
        // sequential engine's global table.
        let config = ExhaustiveConfig {
            dedup: true,
            ..depth_config(1)
        };
        let sequential = explore_all(&DvvMvrStore, &config, &mut causal_check);
        let par = explore_all_parallel(&DvvMvrStore, &config, 2, &causal_check, &mut NullObserver);
        assert_eq!(par.schedules, sequential.schedules);
        assert_eq!(par.counterexample, sequential.counterexample);
        assert_eq!(par.dedup_hits, sequential.dedup_hits);
        assert_eq!(par.dedup_misses, sequential.dedup_misses);
    }

    #[test]
    fn dedup_counts_match_sequential_and_stats_are_thread_invariant() {
        let config = ExhaustiveConfig {
            dedup: true,
            ..depth_config(4)
        };
        let sequential = explore_all(&DvvMvrStore, &config, &mut causal_check);
        let baseline =
            explore_all_parallel(&DvvMvrStore, &config, 1, &causal_check, &mut NullObserver);
        assert_eq!(baseline.schedules, sequential.schedules);
        assert_eq!(baseline.counterexample, sequential.counterexample);
        assert!(baseline.dedup_misses > 0, "units never probe their tables?");
        for threads in [2, 8] {
            let par = explore_all_parallel(
                &DvvMvrStore,
                &config,
                threads,
                &causal_check,
                &mut NullObserver,
            );
            assert_eq!(par.schedules, baseline.schedules);
            assert_eq!(par.counterexample, baseline.counterexample);
            assert_eq!(par.dedup_hits, baseline.dedup_hits, "threads={threads}");
            assert_eq!(par.dedup_misses, baseline.dedup_misses);
        }
    }

    #[test]
    fn reduced_engines_match_sequential_for_every_thread_count() {
        // POR and POR+symmetry shard across the same canonical (reduced)
        // tree: schedule counts and counterexample verdicts must match the
        // sequential reduced engine at every thread count.
        for (por, symmetry, dedup) in [(true, false, false), (true, true, true)] {
            let config = ExhaustiveConfig {
                por,
                symmetry,
                dedup,
                ..depth_config(4)
            };
            let sequential = explore_all(&DvvMvrStore, &config, &mut causal_check);
            for threads in [1, 2, 8] {
                let par = explore_all_parallel(
                    &DvvMvrStore,
                    &config,
                    threads,
                    &causal_check,
                    &mut NullObserver,
                );
                assert_eq!(
                    par.schedules, sequential.schedules,
                    "por={por} symmetry={symmetry} threads={threads}"
                );
                assert_eq!(par.counterexample, sequential.counterexample);
            }
        }
    }

    #[test]
    fn counterexamples_agree_with_the_sequential_engine() {
        // The bounded store fails somewhere at depth 6 with 3 replicas; the
        // parallel engine must find the *same first* counterexample.
        let config = ExhaustiveConfig {
            store_config: haec_model::StoreConfig::new(3, 2),
            depth: 5,
            max_schedules: usize::MAX,
            ..ExhaustiveConfig::default()
        };
        let sequential = explore_all(&BoundedStore, &config, &mut causal_check);
        for threads in [1, 4] {
            let par = explore_all_parallel(
                &BoundedStore,
                &config,
                threads,
                &causal_check,
                &mut NullObserver,
            );
            assert_eq!(par.schedules, sequential.schedules);
            assert_eq!(par.counterexample, sequential.counterexample);
        }
    }

    #[test]
    fn observer_stream_matches_sequential_exactly() {
        let config = depth_config(4);
        let mut seq_stats = StatsObserver::new();
        let seq = explore_all_observed(&DvvMvrStore, &config, &mut causal_check, &mut seq_stats);
        for threads in [1, 3] {
            let mut par_stats = StatsObserver::new();
            let par = explore_all_parallel(
                &DvvMvrStore,
                &config,
                threads,
                &causal_check,
                &mut par_stats,
            );
            assert_eq!(par.schedules, seq.schedules);
            assert_eq!(par_stats.search_nodes(), seq_stats.search_nodes());
            assert_eq!(par_stats.max_frontier(), seq_stats.max_frontier());
            assert_eq!(par_stats.dedup_hits(), seq_stats.dedup_hits());
            assert_eq!(par_stats.dedup_misses(), seq_stats.dedup_misses());
        }
    }

    #[test]
    fn streaming_observer_state_is_thread_invariant() {
        // The streaming checker rides through the parallel explorer via
        // ForkJoinObserver: children fork empty and the canonical-order
        // merge must yield a bit-identical snapshot at every thread count.
        use crate::obs::stream::StreamObserver;

        let config = depth_config(4);
        let mut seq_obs = StreamObserver::for_replicas(2);
        let seq = explore_all_observed(&DvvMvrStore, &config, &mut causal_check, &mut seq_obs);
        let seq_snap = seq_obs.snapshot();
        for threads in [1, 2, 8] {
            let mut par_obs = StreamObserver::for_replicas(2);
            let par =
                explore_all_parallel(&DvvMvrStore, &config, threads, &causal_check, &mut par_obs);
            assert_eq!(par.schedules, seq.schedules, "threads={threads}");
            assert_eq!(par_obs.snapshot(), seq_snap, "threads={threads}");
        }
    }

    #[test]
    fn max_schedules_cap_is_exact_and_thread_invariant() {
        let config = ExhaustiveConfig {
            depth: 6,
            max_schedules: 500,
            ..ExhaustiveConfig::default()
        };
        let sequential = explore_all(&DvvMvrStore, &config, &mut |_| true);
        assert_eq!(sequential.schedules, 500);
        for threads in [1, 2, 8] {
            let par =
                explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut NullObserver);
            assert_eq!(par.schedules, 500, "threads={threads}");
            assert_eq!(par.counterexample, None);
        }
    }

    #[test]
    fn par_map_places_results_by_index_for_every_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let inline: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            let mapped = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x, "index passed to f is the item's position");
                x * x
            });
            assert_eq!(mapped, inline, "threads={threads}");
        }
        assert_eq!(par_map(4, &[] as &[usize], |_, &x| x), Vec::<usize>::new());
    }

    #[test]
    fn zero_threads_is_rejected_by_every_fan_out() {
        // One contract, asserted in `par_map` (and up front by the explorer,
        // which may cut zero units): every entry point that takes a thread
        // count panics on 0 rather than treating it as 1.
        use crate::scenario::{dup_storm, explore_family, FamilyConfig};
        use crate::service::{run_service_sweep, ServiceRunConfig};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let rejects = |what: &str, f: &dyn Fn()| {
            let panic = catch_unwind(AssertUnwindSafe(f)).expect_err(what);
            let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("threads must be nonzero"), "{what}: {msg}");
        };
        rejects("par_map", &|| {
            par_map(0, &[1u8], |_, &x| x);
        });
        rejects("explore_all_parallel", &|| {
            explore_all_parallel(
                &DvvMvrStore,
                &ExhaustiveConfig::default(),
                0,
                &|_| true,
                &mut NullObserver,
            );
        });
        rejects("explore_family", &|| {
            explore_family(
                &DvvMvrStore,
                &FamilyConfig::default(),
                0,
                "dup",
                &dup_storm(SpecKind::Mvr),
                &|_| true,
                &mut NullObserver,
            );
        });
        rejects("run_service_sweep", &|| {
            run_service_sweep(&DvvMvrStore, &[ServiceRunConfig::default()], 0);
        });
    }
}
