//! The repo's benchmark: seven workloads over the three paths a user of
//! this codebase waits on — the sharded store service, the exhaustive
//! explorer, the streaming checkers — each reached through one public
//! entry point, run single-threaded, output-checked, and (with `--trace`)
//! decomposed per layer. See `README.md` beside this crate for what every
//! workload and metric is for.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   # one workload, result line last
//! benchmark [--seed N] [--reps N] [--workload NAME] [--trace] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! Every timed repetition runs in its own child process (the binary
//! re-executes itself), so set-up time and peak memory are per repetition
//! and no repetition inherits a warm heap from the one before.

mod compare;
mod explore;
mod rep;
mod spec;
mod stream;
mod svc;
mod trace;

use haec_sim::obs::json::Json;
use rep::Rep;
use spec::{spec, MetricSpec};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Which entry point a workload drives.
#[derive(Clone, Copy)]
enum Path {
    Service(svc::Shape),
    Explore(explore::Shape),
    Stream(stream::Shape),
}

struct Workload {
    name: &'static str,
    path: Path,
}

static WORKLOADS: [Workload; 7] = [
    Workload {
        name: "svc-1shard",
        path: Path::Service(svc::Shape::OneShard),
    },
    Workload {
        name: "svc-8shard",
        path: Path::Service(svc::Shape::EightShards),
    },
    Workload {
        name: "svc-checked",
        path: Path::Service(svc::Shape::Checked),
    },
    Workload {
        name: "explore-dedup",
        path: Path::Explore(explore::Shape::Dedup),
    },
    Workload {
        name: "explore-por",
        path: Path::Explore(explore::Shape::Por),
    },
    Workload {
        name: "stream-exact",
        path: Path::Stream(stream::Shape::Exact),
    },
    Workload {
        name: "stream-lossy",
        path: Path::Stream(stream::Shape::Lossy),
    },
];

const DEFAULT_SEED: u64 = 0xBEEF_CAFE;
const DEFAULT_REPS: usize = 3;

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition of `w` in this process. `started` is when the
/// process (or, in smoke mode, the repetition) began: set-up time counts
/// from there to the timed call.
fn run_rep(w: &Workload, seed: u64, traced: bool, smoke: bool, started: Instant) -> Rep {
    let mut rep = Rep::default();
    let tracer = match w.path {
        Path::Service(shape) => svc::run(shape, seed, traced, smoke, started, &mut rep),
        Path::Explore(shape) => explore::run(shape, traced, smoke, started, &mut rep),
        Path::Stream(shape) => stream::run(shape, seed, traced, smoke, started, &mut rep),
    };
    // Read before the trace is rendered: that is the benchmark's memory,
    // not the workload's.
    rep.put("peak_rss_mb", peak_rss_mb());
    if let Some(tr) = tracer.filter(|_| !smoke) {
        if let Err(e) = write_trace(w.name, &tr.spans_json(w.name)) {
            rep.fail(format!("could not write the trace file: {e}"));
        }
    }
    if !rep.failures.is_empty() {
        rep.failed = rep.attempted;
    }
    rep.put(
        "failed_ops_share",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    if smoke {
        // Smoke documents must be byte-identical run to run: keep what is
        // a function of (workload, seed), zero what the clock gave.
        for (name, value) in &mut rep.values {
            if name.starts_with('_') || spec().metric(name).is_none_or(MetricSpec::is_wall_clock) {
                *value = 0.0;
            }
        }
    }
    rep
}

/// Trace files go beside the executable, which is inside the build
/// directory wherever that is.
fn write_trace(workload: &str, spans: &Json) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new("."));
    std::fs::write(dir.join(format!("trace-{workload}.json")), spans.render())
}

/// Runs one repetition in a child process and parses what it prints.
fn spawn_rep(w: &Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--child",
            w.name,
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.trim()).map_err(|e| format!("child printed no JSON: {e:?}"))?;
    Rep::from_json(&doc).ok_or_else(|| "child printed an unexpected document".to_string())
}

/// How long a workload's repetitions go on.
#[derive(Clone, Copy)]
enum Budget {
    Reps(usize),
    Seconds(f64),
}

struct Options {
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
}

/// The repetitions of one workload: untraced ones for the end-to-end
/// metrics and, with `--trace`, traced ones for the layers.
#[derive(Default)]
struct Gathered {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// Repetitions that produced no result at all.
    lost: Vec<String>,
}

fn gather(w: &Workload, opts: &Options) -> Gathered {
    let mut g = Gathered::default();
    let t0 = Instant::now();
    for round in 1.. {
        for traced in [false, true] {
            if traced && !opts.trace {
                continue;
            }
            let rep = if opts.smoke {
                Ok(run_rep(w, opts.seed, traced, true, Instant::now()))
            } else {
                spawn_rep(w, opts.seed, traced)
            };
            match rep {
                Ok(rep) if traced => g.traced.push(rep),
                Ok(rep) => g.plain.push(rep),
                Err(e) => g.lost.push(e),
            }
        }
        let done = match opts.budget {
            Budget::Reps(n) => round >= n,
            // Stop where one more round would overshoot the budget by
            // more than the rounds so far undershoot it.
            Budget::Seconds(s) => {
                let elapsed = t0.elapsed().as_secs_f64();
                elapsed + 0.5 * elapsed / round as f64 >= s
            }
        };
        if done || opts.smoke || !g.lost.is_empty() {
            break;
        }
    }
    g
}

/// `statistics.quantiles(values, n=4)` of Python: the exclusive method.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// One metric of one workload: every repetition's reading.
struct Series {
    metric: &'static MetricSpec,
    raw: Vec<f64>,
}

struct WorkloadResult {
    workload: &'static Workload,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    end_to_end: Vec<Series>,
    per_layer: Vec<Series>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Turns the repetitions of one workload into its metrics.
fn summarize(w: &'static Workload, mut g: Gathered) -> WorkloadResult {
    let mut failures = std::mem::take(&mut g.lost);
    let all = || g.plain.iter().chain(&g.traced);
    for rep in all() {
        for f in &rep.failures {
            if !failures.contains(f) {
                failures.push(f.clone());
            }
        }
    }
    if g.plain.is_empty() {
        failures.push("no repetition completed".into());
    }
    if all().any(|r| r.fingerprint != g.plain.first().map_or(0, |p| p.fingerprint)) {
        // Also what catches a traced mirror that stopped being the
        // program: it would report another output than the untraced run.
        failures.push("repetitions of one (workload, seed) disagree on their output".into());
    }

    // What only the parent can derive: it has both sides.
    let plain_wall: Vec<f64> = g.plain.iter().filter_map(|r| r.get("wall_s")).collect();
    let base_wall = median(&plain_wall);
    for rep in &mut g.traced {
        let wall = rep.get("wall_s").unwrap_or(0.0);
        rep.put(
            "trace_overhead_ratio",
            if base_wall > 0.0 {
                wall / base_wall
            } else {
                0.0
            },
        );
        if let Some(layers_ns) = rep.get("_layers_ns") {
            rep.put("sim.service.residual_ns", base_wall * 1e9 - layers_ns);
        }
    }
    let series = |metric: &'static MetricSpec, reps: &[Rep]| Series {
        metric,
        raw: reps.iter().filter_map(|r| r.get(&metric.name)).collect(),
    };
    let end_to_end = spec()
        .end_to_end
        .iter()
        .map(|m| series(m, &g.plain))
        .collect();
    // Layers come from the traced repetitions; a layer that is not on this
    // workload's path did no work there and reads 0. Without a traced run
    // only what every repetition knows (the deterministic outputs) shows.
    let per_layer = spec()
        .per_layer
        .iter()
        .map(|m| {
            if g.traced.is_empty() {
                series(m, &g.plain)
            } else {
                let mut s = series(m, &g.traced);
                if s.raw.is_empty() {
                    s.raw = vec![0.0; g.traced.len()];
                }
                s
            }
        })
        .filter(|s| !s.raw.is_empty())
        .collect();
    let attempted: u64 = g.plain.iter().map(|r| r.attempted).sum();
    WorkloadResult {
        workload: w,
        attempted,
        failed: if failures.is_empty() {
            g.plain.iter().map(|r| r.failed).sum()
        } else {
            attempted.max(1)
        },
        failures,
        end_to_end,
        per_layer,
    }
}

fn series_json(series: &[Series]) -> Json {
    Json::Obj(
        series
            .iter()
            .map(|s| {
                let [q1, q2, q3] = quartiles(&s.raw);
                let m = s.metric;
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("unit".into(), Json::str(m.unit.clone())),
                        ("median".into(), Json::Float(q2)),
                        ("q1".into(), Json::Float(q1)),
                        ("q3".into(), Json::Float(q3)),
                        (
                            "raw".into(),
                            Json::Arr(s.raw.iter().map(|v| Json::Float(*v)).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

/// What `tool` prints, or "unknown" when it cannot run or fails.
fn tool_line(tool: &mut Command) -> String {
    tool.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the working directory. Git may look for a repository
/// there and no higher: a benchmark checkout is not one, and the run must
/// not read outside it.
fn commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(above) = cwd.parent() {
            git.env("GIT_CEILING_DIRECTORIES", above);
        }
    }
    tool_line(&mut git)
}

/// The whole document: where and how the numbers were taken, then every
/// workload with every metric's raw readings, median and quartiles.
fn document(results: &[WorkloadResult], opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("benchmark".into(), Json::str("haec-perfbench")),
        ("seed".into(), Json::uint(opts.seed)),
        (
            "budget".into(),
            match opts.budget {
                Budget::Reps(n) => Json::str(format!("{n} reps")),
                Budget::Seconds(s) => Json::str(format!("{s} s")),
            },
        ),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("threads".into(), Json::uint(1)),
        ("nproc".into(), Json::uint(nproc as u64)),
        (
            "rustc".into(),
            Json::str(tool_line(Command::new("rustc").arg("-V"))),
        ),
        ("commit".into(), Json::str(commit())),
        (
            "workloads".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        let name = r.workload.name;
                        let seeded = !matches!(r.workload.path, Path::Explore(_));
                        let why = spec().workloads.iter().find(|(n, _)| n == name);
                        Json::Obj(vec![
                            ("name".into(), Json::str(name)),
                            ("why".into(), Json::str(why.map_or("", |(_, why)| why))),
                            // The explorer workloads are exhaustive: the
                            // seed changes nothing about them.
                            ("seeded".into(), Json::Bool(seeded)),
                            ("reps".into(), Json::uint(r.end_to_end[0].raw.len() as u64)),
                            ("correct".into(), Json::Bool(r.correct())),
                            ("attempted".into(), Json::uint(r.attempted)),
                            ("failed".into(), Json::uint(r.failed)),
                            (
                                "failures".into(),
                                Json::Arr(r.failures.iter().map(Json::str).collect()),
                            ),
                            ("end_to_end".into(), series_json(&r.end_to_end)),
                            ("per_layer".into(), series_json(&r.per_layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The last line the driver reads: one workload, medians only, the
/// end-to-end metrics of an untraced run or the layers of a traced one.
fn result_line(r: &WorkloadResult, trace: bool) -> Json {
    let series = if trace { &r.per_layer } else { &r.end_to_end };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(r.correct())),
        ("attempted".into(), Json::uint(r.attempted.max(1))),
        ("failed".into(), Json::uint(r.failed)),
        (
            "metrics".into(),
            Json::Obj(
                series
                    .iter()
                    .map(|s| {
                        (
                            s.metric.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(median(&s.raw))),
                                ("unit".into(), Json::str(s.metric.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs the selected workloads and renders the document.
fn run(selected: &[&'static Workload], opts: &Options) -> (Vec<WorkloadResult>, String) {
    let results: Vec<WorkloadResult> = selected
        .iter()
        .map(|w| summarize(w, gather(w, opts)))
        .collect();
    let doc = document(&results, opts).render();
    (results, doc)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--reps N | --seconds S] \
         [--trace [0|1]] [--smoke]\n       benchmark compare A.json B.json\nworkloads: {}",
        WORKLOADS.each_ref().map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &str| WORKLOADS.iter().find(|w| w.name == name);

    if args.first().is_some_and(|a| a == "--child") {
        let (Some(w), Some(seed), Some(traced)) = (
            args.get(1).and_then(|n| find(n)),
            args.get(2).and_then(|s| s.parse().ok()),
            args.get(3),
        ) else {
            return usage();
        };
        let rep = run_rep(w, seed, traced == "1", false, started);
        println!("{}", rep.to_json().render());
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "compare") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => usage(),
        };
    }

    let mut opts = Options {
        seed: DEFAULT_SEED,
        budget: Budget::Reps(DEFAULT_REPS),
        trace: false,
        smoke: false,
    };
    let mut selected: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => match it.next().and_then(|n| find(n)) {
                Some(w) => selected = vec![w],
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => return usage(),
            },
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.budget = Budget::Reps(n),
                _ => return usage(),
            },
            "--seconds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) if s > 0.0 => opts.budget = Budget::Seconds(s),
                _ => return usage(),
            },
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                opts.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => opts.smoke = true,
            _ => return usage(),
        }
    }
    // `--seconds` is how the benchmark driver calls: one workload, and the
    // result object as the last line.
    let contract = matches!(opts.budget, Budget::Seconds(_));
    if contract && selected.len() != 1 {
        return usage();
    }

    let (results, doc) = run(&selected, &opts);
    println!("{doc}");
    if contract {
        println!("{}", result_line(&results[0], opts.trace).render());
    }
    for r in results.iter().filter(|r| !r.correct()) {
        eprintln!("{}: {}", r.workload.name, r.failures.join("; "));
    }
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn smoke_all(seed: u64) -> (Vec<WorkloadResult>, String) {
        let opts = Options {
            seed,
            budget: Budget::Reps(1),
            trace: true,
            smoke: true,
        };
        run(&WORKLOADS.iter().collect::<Vec<_>>(), &opts)
    }

    /// The instrument itself must be deterministic, and must emit exactly
    /// what `BENCHMARK.json` declares: every workload, every end-to-end
    /// metric untraced, every per-layer metric traced.
    #[test]
    fn smoke_is_byte_identical_and_emits_what_is_declared() {
        let (results, first) = smoke_all(DEFAULT_SEED);
        let (_, second) = smoke_all(DEFAULT_SEED);
        assert_eq!(first, second, "two smoke runs differ");

        let names = |it: &mut dyn Iterator<Item = String>| it.collect::<BTreeSet<String>>();
        assert_eq!(
            names(&mut results.iter().map(|r| r.workload.name.to_string())),
            names(&mut spec().workloads.iter().map(|(n, _)| n.clone())),
        );
        for r in &results {
            let name = r.workload.name;
            assert!(r.correct(), "{name}: {:?}", r.failures);
            assert_eq!(r.failed, 0, "{name}");
            for (trace, declared) in [(false, &spec().end_to_end), (true, &spec().per_layer)] {
                let line = result_line(r, trace);
                let Some(Json::Obj(emitted)) = line.get("metrics") else {
                    panic!("no metrics in {}", line.render());
                };
                assert_eq!(
                    names(&mut emitted.iter().map(|(n, _)| n.clone())),
                    names(&mut declared.iter().map(|m| m.name.clone())),
                    "{name} trace {trace}"
                );
            }
        }
    }

    /// Every name a repetition reports is either declared or internal: a
    /// typo in a metric name must not silently read as "layer did no work".
    #[test]
    fn every_reported_name_is_declared() {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let rep = run_rep(w, 1, traced, true, Instant::now());
                for (name, _) in &rep.values {
                    assert!(
                        name.starts_with('_') || spec().metric(name).is_some(),
                        "{}: {name} is not in BENCHMARK.json",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_seed_reaches_the_seeded_workloads_only() {
        let (_, a) = smoke_all(1);
        let (_, b) = smoke_all(2);
        assert_ne!(a, b);
        let explorer = |doc: &str| {
            let doc = Json::parse(doc).unwrap();
            let ws = doc.get("workloads").unwrap().as_arr().unwrap().to_vec();
            ws.into_iter()
                .filter(|w| w.get("seeded") == Some(&Json::Bool(false)))
                .map(|w| w.render())
                .collect::<Vec<_>>()
        };
        assert_eq!(explorer(&a).len(), 2);
        assert_eq!(explorer(&a), explorer(&b));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&v), [3.5, 24.0, 160.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }
}
