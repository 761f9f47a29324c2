//! Explorer-engine comparison: legacy replay-from-scratch enumeration vs
//! the incremental snapshot/restore DFS, with and without state-fingerprint
//! dedup. Each engine runs the same workload — every schedule of a
//! 4-replica, 1-object write/read cluster checked for correctness and
//! causal consistency — and reports schedules per second plus its speedup
//! over the replay baseline. Each engine is timed `--runs` times and the
//! fastest run is reported, to suppress scheduler noise.
//!
//! Usage:
//!
//! ```text
//! cargo bench --bench explore                  # human-readable, depth 6
//! cargo bench --bench explore -- --json        # JSON (for BENCH_explore.json)
//! cargo bench --bench explore -- --smoke       # depth 3 agreement check
//! cargo bench --bench explore -- --depth 5 --replicas 3 --runs 1
//! cargo bench --bench explore -- --threads 2 --threads 4   # add par-N rows
//! cargo bench --bench explore -- --por --symmetry          # add reduced rows
//! ```
//!
//! `--threads N` (repeatable) adds a `par-N` row for the deterministic
//! parallel engine; without the flag the default is 1, 2 and 4 (just 2 in
//! `--smoke` mode). Every engine, parallel included, must produce the
//! replay engine's exact schedule count before timings are printed.
//!
//! `--por` adds a `por-dedup` row (sleep-set partial-order reduction over
//! the dedup DFS) and `--symmetry` adds `por-sym-dedup` (POR plus
//! replica-permutation canonicalization of the dedup fingerprint). Reduced
//! engines legitimately explore *fewer* schedules — each row reports a
//! `reduction_ratio` (unreduced schedules / explored schedules) instead of
//! being held to count equality — so before timings are printed the bench
//! runs a verdict gate: on every store in the differential suite's
//! seven-store roster, the reduced engine must reach the same
//! counterexample verdict as dfs-dedup.

use haec_core::{causal, check_correct, ObjectSpecs, SpecKind};
use haec_model::{Op, StoreConfig, StoreFactory, Value};
use haec_sim::exhaustive::{
    explore_all, explore_all_parallel, explore_all_replay, ExhaustiveConfig, ExhaustiveReport,
};
use haec_sim::obs::NullObserver;
use haec_sim::Simulator;
use haec_stores::{
    BoundedStore, CausalRegisterStore, CopsStore, DvvMvrStore, EwFlagStore, LwwStore, OrSetStore,
};
use std::time::Instant;

fn causal_check(sim: &Simulator) -> bool {
    let Ok(a) = sim.abstract_execution() else {
        return false;
    };
    check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok() && causal::check(&a).is_ok()
}

/// Verdict gate for the reduced engines: on every store in the seven-store
/// differential roster, the reduced configuration must agree with dfs-dedup
/// on whether a counterexample exists. Cheap (depth 4) but store-diverse —
/// it exercises equivariant renaming, the silent symmetry fallback, and a
/// store that genuinely fails.
fn assert_reduced_verdicts_match_dedup(reduced: &ExhaustiveConfig) {
    let check = |spec: SpecKind| {
        move |sim: &Simulator| {
            let Ok(a) = sim.abstract_execution() else {
                return false;
            };
            check_correct(&a, &ObjectSpecs::uniform(spec)).is_ok() && causal::check(&a).is_ok()
        }
    };
    let register = vec![Op::Write(Value::new(0)), Op::Read];
    let stores: [(&dyn StoreFactory, SpecKind, Vec<Op>, StoreConfig); 7] = [
        (
            &DvvMvrStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &CopsStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &CausalRegisterStore,
            SpecKind::Mvr,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &LwwStore,
            SpecKind::LwwRegister,
            register.clone(),
            StoreConfig::new(2, 1),
        ),
        (
            &OrSetStore,
            SpecKind::OrSet,
            vec![Op::Add(Value::new(0)), Op::Remove(Value::new(0)), Op::Read],
            StoreConfig::new(2, 1),
        ),
        (
            &EwFlagStore,
            SpecKind::EwFlag,
            vec![Op::Enable, Op::Disable, Op::Read],
            StoreConfig::new(2, 1),
        ),
        (
            &BoundedStore,
            SpecKind::Mvr,
            register,
            StoreConfig::new(3, 2),
        ),
    ];
    for (factory, spec, ops, store_config) in stores {
        let dedup_config = ExhaustiveConfig {
            store_config,
            ops,
            depth: 4,
            max_schedules: usize::MAX,
            dedup: true,
            por: false,
            symmetry: false,
        };
        let reduced_config = ExhaustiveConfig {
            por: reduced.por,
            symmetry: reduced.symmetry,
            ..dedup_config.clone()
        };
        let base = explore_all(factory, &dedup_config, &mut check(spec));
        let red = explore_all(factory, &reduced_config, &mut check(spec));
        assert_eq!(
            base.counterexample.is_some(),
            red.counterexample.is_some(),
            "{}: reduced engine verdict diverges from dfs-dedup",
            factory.name()
        );
        assert!(
            red.schedules <= base.schedules,
            "{}: reduction increased the schedule count",
            factory.name()
        );
    }
}

struct EngineRun {
    name: String,
    schedules: usize,
    dedup_hits: u64,
    dedup_misses: u64,
    seconds: f64,
}

impl EngineRun {
    fn per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.schedules as f64 / self.seconds
        } else {
            f64::INFINITY
        }
    }
}

fn run_engine(name: &str, runs: usize, mut f: impl FnMut() -> ExhaustiveReport) -> EngineRun {
    let mut best: Option<EngineRun> = None;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let report = f();
        let seconds = t.elapsed().as_secs_f64();
        assert!(
            report.all_passed(),
            "{name}: workload unexpectedly produced a counterexample"
        );
        let run = EngineRun {
            name: name.to_owned(),
            schedules: report.schedules,
            dedup_hits: report.dedup_hits,
            dedup_misses: report.dedup_misses,
            seconds,
        };
        if best.as_ref().is_none_or(|b| run.seconds < b.seconds) {
            best = Some(run);
        }
    }
    best.expect("at least one run")
}

fn main() {
    let mut json = false;
    let mut depth = 6usize;
    let mut replicas = 4usize;
    let mut runs = 3usize;
    let mut por = false;
    let mut symmetry = false;
    let mut thread_counts: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--por" => por = true,
            "--symmetry" => symmetry = true,
            "--smoke" => {
                depth = 3;
                replicas = 2;
                runs = 1;
            }
            "--depth" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    depth = n;
                }
            }
            "--replicas" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    replicas = n;
                }
            }
            "--runs" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    runs = n;
                }
            }
            "--threads" => match haec_bench::threads_arg(args.next()) {
                Ok(n) => thread_counts.push(n),
                Err(usage) => {
                    eprintln!("{usage}");
                    std::process::exit(2);
                }
            },
            _ => {}
        }
    }

    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(replicas, 1),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth,
        max_schedules: usize::MAX,
        dedup: false,
        por: false,
        symmetry: false,
    };
    let dedup_config = ExhaustiveConfig {
        dedup: true,
        ..config.clone()
    };
    let por_config = ExhaustiveConfig {
        por: true,
        ..dedup_config.clone()
    };
    let por_sym_config = ExhaustiveConfig {
        symmetry: true,
        ..por_config.clone()
    };

    if thread_counts.is_empty() {
        thread_counts = if depth <= 3 { vec![2] } else { vec![1, 2, 4] };
    }

    let replay = run_engine("replay", runs, || {
        explore_all_replay(&DvvMvrStore, &config, &mut causal_check)
    });
    let dfs = run_engine("dfs", runs, || {
        explore_all(&DvvMvrStore, &config, &mut causal_check)
    });
    let dedup = run_engine("dfs-dedup", runs, || {
        explore_all(&DvvMvrStore, &dedup_config, &mut causal_check)
    });

    // The engines must agree before any timing claim means anything.
    assert_eq!(replay.schedules, dfs.schedules, "dfs diverges from replay");
    assert_eq!(
        replay.schedules, dedup.schedules,
        "dedup diverges from replay"
    );

    let mut engine_runs = vec![replay, dfs, dedup];
    if por || symmetry {
        // Soundness before speed: the reduced engines must agree with
        // dfs-dedup on every store's verdict before their rows count.
        assert_reduced_verdicts_match_dedup(if symmetry {
            &por_sym_config
        } else {
            &por_config
        });
    }
    if por {
        let row = run_engine("por-dedup", runs, || {
            explore_all(&DvvMvrStore, &por_config, &mut causal_check)
        });
        assert!(
            row.schedules < engine_runs[0].schedules,
            "por-dedup failed to reduce the schedule count"
        );
        engine_runs.push(row);
    }
    if symmetry {
        let row = run_engine("por-sym-dedup", runs, || {
            explore_all(&DvvMvrStore, &por_sym_config, &mut causal_check)
        });
        assert!(
            row.schedules < engine_runs[0].schedules,
            "por-sym-dedup failed to reduce the schedule count"
        );
        if por {
            // Symmetry only changes dedup traffic, never which schedules run.
            let por_row = engine_runs.iter().find(|r| r.name == "por-dedup").unwrap();
            assert_eq!(
                por_row.schedules, row.schedules,
                "symmetry changed the POR schedule count"
            );
        }
        engine_runs.push(row);
    }
    for &t in &thread_counts {
        // Parallel rows run with dedup on: the shared level-barrier table is
        // what lets cross-unit subtree hits land, and it keeps the stats
        // thread-invariant, so this is the configuration worth measuring.
        let par = run_engine(&format!("par-{t}"), runs, || {
            explore_all_parallel(
                &DvvMvrStore,
                &dedup_config,
                t,
                &causal_check,
                &mut NullObserver,
            )
        });
        assert_eq!(
            engine_runs[0].schedules, par.schedules,
            "par-{t} diverges from replay"
        );
        engine_runs.push(par);
    }

    let runs = engine_runs;
    let base = runs[0].per_sec();
    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"suite\": \"explore\",\n");
        out.push_str("  \"store\": \"dvv-mvr\",\n");
        out.push_str(&format!("  \"depth\": {depth},\n"));
        out.push_str(&format!("  \"replicas\": {replicas},\n"));
        out.push_str(&format!("  \"schedules\": {},\n", runs[0].schedules));
        out.push_str("  \"engines\": [\n");
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"schedules\": {}, \
                 \"schedules_per_sec\": {:.1}, \"speedup_vs_replay\": {:.2}, \
                 \"reduction_ratio\": {:.2}, \"dedup_hits\": {}, \"dedup_misses\": {}}}{}\n",
                r.name,
                r.seconds,
                r.schedules,
                r.per_sec(),
                r.per_sec() / base,
                runs[0].schedules as f64 / r.schedules as f64,
                r.dedup_hits,
                r.dedup_misses,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        print!("{out}");
    } else {
        println!(
            "explore: {} schedules at depth {depth}, {replicas} replicas (dvv-mvr, causal check)",
            runs[0].schedules
        );
        for r in &runs {
            println!(
                "  {:<13} {:>9.3} s  {:>9} schedules  {:>12.0} schedules/s  \
                 {:>6.2}x vs replay  {:>6.2}x reduction",
                r.name,
                r.seconds,
                r.schedules,
                r.per_sec(),
                r.per_sec() / base,
                runs[0].schedules as f64 / r.schedules as f64,
            );
        }
    }
}
