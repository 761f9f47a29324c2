//! Scenario-family enumeration and sweep timing: enumerate the fixture
//! families (pinned member counts), then sweep heal-before-quiesce through
//! `explore_family` on one thread and on `--threads` with a strict causal
//! check. The parallel sweep must reproduce the one-thread `FamilyReport`
//! exactly before any timing is printed — this is the determinism gate
//! the CI smoke step leans on.
//!
//! Usage:
//!
//! ```text
//! cargo bench --bench scenario                    # human-readable
//! cargo bench --bench scenario -- --json          # JSON (for BENCH_scenario.json)
//! cargo bench --bench scenario -- --smoke         # one run, no timings claimed
//! cargo bench --bench scenario -- --threads 4 --runs 5
//! ```

use haec_core::{causal, SpecKind};
use haec_sim::obs::NullObserver;
use haec_sim::scenario::{
    concurrent_write_pair, dup_storm, explore_family, heal_before_quiesce, FamilyConfig,
};
use haec_sim::Simulator;
use haec_stores::DvvMvrStore;
use std::time::Instant;

fn strict_causal(sim: &Simulator) -> bool {
    sim.abstract_execution()
        .map(|a| causal::check(&a).is_ok())
        .unwrap_or(false)
}

fn main() {
    let mut json = false;
    let mut smoke = false;
    let mut runs = 3usize;
    let mut threads = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => {
                smoke = true;
                runs = 1;
            }
            "--runs" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    runs = n;
                }
            }
            "--threads" => match haec_bench::threads_arg(args.next()) {
                Ok(n) => threads = n,
                Err(usage) => {
                    eprintln!("{usage}");
                    std::process::exit(2);
                }
            },
            _ => {}
        }
    }

    let config = FamilyConfig::default();
    // Enumeration gate: the fixture families must produce their pinned
    // member counts before any sweep is timed.
    let families = [
        (
            "concurrent-write-pair",
            concurrent_write_pair(SpecKind::Mvr, 3),
            6,
        ),
        ("heal-before-quiesce", heal_before_quiesce(SpecKind::Mvr), 4),
        ("dup-storm", dup_storm(SpecKind::Mvr), 3),
    ];
    for (name, family, expected) in &families {
        let n = family.count_to_depth(config.depth);
        assert_eq!(n, *expected, "{name}: enumeration count drifted");
    }

    // Sweep gate: parallel must reproduce the sequential report exactly.
    let hbq = &families[1].1;
    let sweep = |threads: usize| {
        explore_family(
            &DvvMvrStore,
            &config,
            threads,
            "hbq",
            hbq,
            &strict_causal,
            &mut NullObserver,
        )
    };
    let sequential = sweep(1);
    assert!(sequential.all_passed(), "dvv-mvr is causal on every member");
    let par = sweep(threads);
    assert_eq!(
        par, sequential,
        "parallel sweep diverges at {threads} threads"
    );

    let time = |f: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..runs.max(1) {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let t_enum = time(&|| {
        for (_, family, _) in &families {
            std::hint::black_box(family.iter_to_depth(config.depth));
        }
    });
    let t_seq = time(&|| {
        std::hint::black_box(sweep(1));
    });
    let t_par = time(&|| {
        std::hint::black_box(sweep(threads));
    });

    if smoke {
        println!(
            "scenario smoke ok: 3 families enumerated, hbq sweep seq==par at {threads} threads"
        );
        return;
    }
    if json {
        println!(
            "{{\n  \"suite\": \"scenario\",\n  \"depth\": {},\n  \"threads\": {threads},\n  \
             \"members\": {},\n  \"enumerate_seconds\": {t_enum:.6},\n  \
             \"sweep_seq_seconds\": {t_seq:.6},\n  \"sweep_par_seconds\": {t_par:.6}\n}}",
            config.depth, sequential.run
        );
    } else {
        println!(
            "scenario: {} hbq members at depth {} (dvv-mvr, strict causal check)",
            sequential.run, config.depth
        );
        println!("  enumerate  {t_enum:>9.6} s  (all three fixture families)");
        println!("  sweep-seq  {t_seq:>9.6} s");
        println!("  sweep-par  {t_par:>9.6} s  ({threads} threads)");
    }
}
