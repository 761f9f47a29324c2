//! Streaming-vs-batch differential suite.
//!
//! Drives every store of the seven-store conformance matrix through
//! schedules with drop, duplication and partition faults, with the
//! streaming checker attached as an observer, then pins the streaming
//! verdicts — including the exact first-violation witnesses — against the
//! batch checkers run on the assembled witness abstract execution. The
//! batch checkers are the specification; the streaming checker must agree
//! event for event.

use haec_core::consistency::{causal, eventual, sessions};
use haec_core::stream::{StreamChecker, StreamConfig, StreamError, StreamStats};
use haec_model::{Dot, ObjectId, ReplicaId};
use haec_sim::obs::stream::StreamObserver;
use haec_sim::obs::{self, json::Json};
use haec_sim::{
    explore_with, ExplorationConfig, Partition, ReportConfig, RunReport, ScheduleConfig,
};
use haec_stores::conformance_matrix;
use haec_testkit::Rng;

const WINDOW: usize = 32;

fn fault_schedules() -> Vec<(&'static str, ScheduleConfig)> {
    vec![
        (
            "drop",
            ScheduleConfig {
                drop_prob: 0.2,
                dup_prob: 0.0,
                ..ScheduleConfig::default()
            },
        ),
        (
            "duplicate",
            ScheduleConfig {
                drop_prob: 0.0,
                dup_prob: 0.25,
                ..ScheduleConfig::default()
            },
        ),
        (
            "partition",
            ScheduleConfig {
                drop_prob: 0.0,
                dup_prob: 0.0,
                partition: Some(Partition {
                    from_step: 20,
                    to_step: 120,
                    group: vec![0],
                }),
                ..ScheduleConfig::default()
            },
        ),
    ]
}

/// Runs one store under one fault schedule with the streaming checker
/// attached; returns `(violations_seen, events_checked)`.
fn differential_run(
    factory: &dyn haec_model::StoreFactory,
    conf_spec: haec_core::SpecKind,
    schedule: &ScheduleConfig,
    seed: u64,
    label: &str,
) -> (usize, usize) {
    let config = ExplorationConfig {
        spec: conf_spec,
        schedule: schedule.clone(),
        ..ExplorationConfig::default()
    };
    let stream = obs::shared(
        StreamObserver::new(StreamConfig {
            n_replicas: config.n_replicas,
            window: WINDOW,
            gc_window: None,
        })
        .unwrap(),
    );
    let handle = stream.clone();
    let rep = explore_with(factory, &config, seed, move |sim| {
        sim.attach_observer(Box::new(handle));
    });
    let stream = stream.borrow();
    let checker = stream.checker();
    let a = rep
        .abstract_execution
        .as_ref()
        .unwrap_or_else(|e| panic!("{label}: witness failed: {e}"));
    assert_eq!(
        checker.error().cloned(),
        None::<StreamError>,
        "{label}: stream checker errored"
    );
    assert_eq!(checker.len(), a.len(), "{label}: event count");
    // Exact verdict-and-witness equality, checker by checker.
    assert_eq!(checker.causal(), causal::check(a), "{label}: causal");
    assert_eq!(
        checker.eventual(),
        eventual::check_prefix(a, WINDOW),
        "{label}: eventual"
    );
    assert_eq!(
        checker.monotonic_writes(),
        sessions::check_monotonic_writes(a),
        "{label}: monotonic writes"
    );
    assert_eq!(
        checker.writes_follow_reads(),
        sessions::check_writes_follow_reads(a),
        "{label}: writes follow reads"
    );
    assert_eq!(
        checker.sessions(),
        sessions::check_all(a),
        "{label}: sessions"
    );
    let violations = usize::from(checker.causal().is_err())
        + usize::from(checker.eventual().is_err())
        + usize::from(checker.sessions().is_err());
    (violations, checker.len())
}

#[test]
fn streaming_matches_batch_across_the_conformance_matrix() {
    let mut total_events = 0;
    let mut total_violations = 0;
    for (factory, conf) in conformance_matrix() {
        for (fault, schedule) in fault_schedules() {
            for seed in 0..4 {
                let label = format!("{}/{fault}/seed{seed}", factory.name());
                let (violations, events) =
                    differential_run(&*factory, conf.spec, &schedule, seed, &label);
                total_events += events;
                total_violations += violations;
            }
        }
    }
    assert!(
        total_events > 5_000,
        "matrix too small to mean anything: {total_events} events"
    );
    // The matrix includes LWW (causally broken by design) and windowed
    // eventual checks under partitions — agreement on a matrix with zero
    // violations would be vacuous.
    assert!(
        total_violations > 0,
        "differential matrix never exercised a violating verdict"
    );
}

#[test]
fn streaming_gc_window_only_suppresses_violations() {
    // The bounded-window fallback force-retires unstable events; it may
    // therefore miss violations the exact checker pins, but must never
    // invent one, and whenever it does report, the witness must be one the
    // exact checker also reports.
    for (factory, conf) in conformance_matrix() {
        let config = ExplorationConfig {
            spec: conf.spec,
            schedule: ScheduleConfig {
                drop_prob: 0.15,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let make = |gc_window: Option<usize>| {
            obs::shared(
                StreamObserver::new(StreamConfig {
                    n_replicas: config.n_replicas,
                    window: WINDOW,
                    gc_window,
                })
                .unwrap(),
            )
        };
        let exact = make(None);
        let windowed = make(Some(48));
        for obs_handle in [&exact, &windowed] {
            let handle = obs_handle.clone();
            explore_with(&*factory, &config, 11, move |sim| {
                sim.attach_observer(Box::new(handle));
            });
        }
        let exact = exact.borrow();
        let windowed = windowed.borrow();
        if let Err(v) = windowed.checker().causal() {
            assert_eq!(exact.checker().causal(), Err(v), "{}", factory.name());
        }
        if let Err(v) = windowed.checker().sessions() {
            assert_eq!(exact.checker().sessions(), Err(v), "{}", factory.name());
        }
        assert!(
            windowed.checker().stats().live <= exact.checker().stats().live,
            "{}: forced retirement must not grow the frontier",
            factory.name()
        );
    }
}

#[test]
fn stream_report_section_is_byte_identical_per_seed() {
    // Incremental-feed-order determinism: two full collections from the
    // same seed must render the identical `stream` section (and identical
    // normalized report overall).
    for (factory, conf) in conformance_matrix() {
        let config = ReportConfig {
            exploration: ExplorationConfig {
                spec: conf.spec,
                ..ExplorationConfig::default()
            },
            ..ReportConfig::default()
        };
        let one = RunReport::collect(&*factory, &config, 42);
        let two = RunReport::collect(&*factory, &config, 42);
        assert_eq!(
            one.to_json_normalized(),
            two.to_json_normalized(),
            "{}: normalized reports diverge",
            factory.name()
        );
        let section = |r: &RunReport| {
            Json::parse(&r.to_json_string())
                .expect("valid JSON")
                .get("stream")
                .expect("stream section")
                .render()
        };
        assert_eq!(section(&one), section(&two), "{}", factory.name());
        assert_eq!(one.stream, two.stream, "{}", factory.name());
    }
}

/// One feed entry: replica, object, update-ness, witness.
type FeedEvent = (ReplicaId, ObjectId, bool, Vec<Dot>);

/// A fixed feed with *full* witnesses, the shape a service store reports:
/// event `t` runs at replica `t % 3`, each replica cycles update, update,
/// read over two objects, a dot becomes visible elsewhere 24 events after
/// it was issued, and the witness lists every visible dot origin by origin
/// in ascending seq (own dots included, the operation's own dot on every
/// other update). With `lose_every = k`, every `k`-th update is never
/// delivered, so the other replicas' lists have a gap at its seq. After
/// the first few hundred events every witness is far longer than 64 dots.
fn full_witness_feed(events: usize, lose_every: usize) -> Vec<FeedEvent> {
    const N: usize = 3;
    const LAG: usize = 24;
    // (issue event, dot), delivered dots only, in issue order.
    let mut delivered: Vec<(usize, Dot)> = Vec::new();
    let mut cursor = [0usize; N];
    // known[r][origin]: seqs visible at r, ascending.
    let mut known: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); N]; N];
    let mut issued = [0u32; N];
    let mut updates = 0usize;
    let mut feed = Vec::with_capacity(events);
    for t in 0..events {
        let r = t % N;
        let replica = ReplicaId::new(r as u32);
        let is_update = (t / N) % 3 != 2;
        let obj = ObjectId::new((t / 3) as u32 % 2);
        while cursor[r] < delivered.len() && delivered[cursor[r]].0 + LAG <= t {
            let d = delivered[cursor[r]].1;
            if d.replica != replica {
                known[r][d.replica.index()].push(d.seq);
            }
            cursor[r] += 1;
        }
        let mut own = None;
        if is_update {
            issued[r] += 1;
            updates += 1;
            let dot = Dot::new(replica, issued[r]);
            if lose_every == 0 || !updates.is_multiple_of(lose_every) {
                delivered.push((t, dot));
            }
            own = Some(dot);
        }
        let mut visible: Vec<Dot> = (0..N)
            .flat_map(|o| {
                let origin = ReplicaId::new(o as u32);
                known[r][o].iter().map(move |&s| Dot::new(origin, s))
            })
            .collect();
        if let Some(dot) = own {
            known[r][r].push(dot.seq);
            if dot.seq.is_multiple_of(2) {
                visible.push(dot);
            }
        }
        feed.push((replica, obj, is_update, visible));
    }
    feed
}

fn run_feed(events: usize, lose_every: usize, gc_window: Option<usize>) -> StreamChecker {
    let mut checker = StreamChecker::new(StreamConfig {
        n_replicas: 3,
        window: 96,
        gc_window,
    })
    .unwrap();
    let feed = full_witness_feed(events, lose_every);
    assert!(feed
        .iter()
        .skip(events / 2)
        .all(|(_, _, _, w)| w.len() > 64));
    for (replica, obj, is_update, visible) in &feed {
        checker.push(*replica, *obj, *is_update, visible).unwrap();
    }
    checker.sweep();
    checker
}

/// Known answers against the commit before witness ingest learnt to skip
/// the stable prefix: verdicts and full statistics on fixed feeds (`bytes`
/// and `peak_bytes` as of the deletion of the two indexes over the stable
/// pending events, which only lowered them).
#[test]
fn fixed_full_witness_feeds_match_their_pinned_verdicts_and_stats() {
    // Lossless, exact GC: retirement keeps up and nothing is violated.
    let c = run_feed(3000, 0, None);
    assert_eq!(c.causal(), Ok(()));
    assert_eq!(c.eventual(), Ok(()));
    assert_eq!(c.sessions(), Ok(()));
    assert_eq!(
        c.stats(),
        StreamStats {
            events: 3000,
            live: 26,
            pending: 0,
            retired: 2974,
            forced_retired: 0,
            peak_live: 60,
            bytes: 6352,
            peak_bytes: 13016,
        }
    );

    // Every 40th update lost. Event 57 is the first lost update; its
    // replica's later updates arrive elsewhere without it.
    let lossy_verdicts = |c: &StreamChecker| {
        assert_eq!(
            c.causal(),
            Err(causal::CausalityViolation {
                e1: 57,
                e2: 60,
                e3: 88
            })
        );
        assert_eq!(
            c.eventual(),
            Err(eventual::EventualViolation {
                event: 57,
                blind_event: 154,
                window: 96
            })
        );
        assert_eq!(
            c.monotonic_writes(),
            Err(sessions::SessionViolation::MonotonicWrites {
                earlier: 57,
                later: 63,
                event: 88
            })
        );
        assert_eq!(
            c.writes_follow_reads(),
            Err(sessions::SessionViolation::WritesFollowReads {
                seen: 57,
                read: 60,
                update: 63,
                event: 88
            })
        );
    };

    // Bounded window: the lost updates are force-retired, so the stable
    // prefix keeps advancing past the gaps.
    let c = run_feed(3000, 40, Some(128));
    lossy_verdicts(&c);
    assert_eq!(
        c.stats(),
        StreamStats {
            events: 3000,
            live: 72,
            pending: 44,
            retired: 2881,
            forced_retired: 47,
            peak_live: 95,
            bytes: 15792,
            peak_bytes: 20376,
        }
    );

    // Exact GC on the lossy feed: the first lost update never stabilizes,
    // so almost nothing retires and no origin's stable prefix moves.
    let c = run_feed(1200, 40, None);
    lossy_verdicts(&c);
    assert_eq!(
        c.stats(),
        StreamStats {
            events: 1200,
            live: 1084,
            pending: 1039,
            retired: 116,
            forced_retired: 0,
            peak_live: 1084,
            bytes: 249080,
            peak_bytes: 249080,
        }
    );
}

/// A feed whose witnesses are **not** causally closed, the shape a broken
/// store reports: 3 replicas, 2 objects, 60 % updates; each replica learns
/// of every other origin's updates as a prefix that advances in random
/// steps with some dots left out for good, and now and then names a single
/// recent dot ahead of that prefix. A hole makes later dots arrive without
/// their predecessors. The hole rate goes by `seed % 3` — one dot in 10, 50
/// or 300 — so that first violations fall early, in the middle, and after
/// hundreds of events have stabilised and retired.
fn hostile_feed(seed: u64, events: usize) -> Vec<FeedEvent> {
    const N: usize = 3;
    let mut rng = Rng::seed_from_u64(0x0BAD_F00D ^ seed);
    let hole = [0.1, 0.02, 0.0033][(seed % 3) as usize];
    let mut issued = [0u32; N];
    let mut known = [[0u32; N]; N];
    let mut feed = Vec::with_capacity(events);
    for _ in 0..events {
        let rho = rng.gen_range(0..N);
        let mut visible = Vec::new();
        for o in (0..N).filter(|&o| o != rho) {
            let origin = ReplicaId::new(o as u32);
            if rng.gen_bool(0.6) {
                let behind = issued[o] - known[rho][o];
                let step = rng.gen_range(0..behind + 1).min(rng.gen_range(1..6));
                for seq in known[rho][o] + 1..=known[rho][o] + step {
                    if !rng.gen_bool(hole) {
                        visible.push(Dot::new(origin, seq));
                    }
                }
                known[rho][o] += step;
            }
            if issued[o] > 0 && rng.gen_bool(hole) {
                let back = rng.gen_range(0..issued[o].min(4));
                visible.push(Dot::new(origin, issued[o] - back));
            }
        }
        let is_update = rng.gen_bool(0.6);
        issued[rho] += u32::from(is_update);
        let obj = ObjectId::new(rng.gen_range(0..2u32));
        feed.push((ReplicaId::new(rho as u32), obj, is_update, visible));
    }
    feed
}

/// FNV-1a over `render(checker)` after **every** push of every feed (a
/// fresh checker per feed), and the number of pushes at which that
/// rendering changed.
fn trajectory(
    feeds: &[Vec<FeedEvent>],
    window: usize,
    gc_window: Option<usize>,
    render: fn(&StreamChecker) -> String,
) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut changes = 0;
    for feed in feeds {
        let mut checker = StreamChecker::new(StreamConfig {
            n_replicas: 3,
            window,
            gc_window,
        })
        .unwrap();
        let mut last = String::new();
        for (replica, obj, is_update, visible) in feed {
            checker.push(*replica, *obj, *is_update, visible).unwrap();
            let rendered = render(&checker);
            for b in rendered.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            if rendered != last {
                changes += 1;
                last = rendered;
            }
        }
    }
    (hash, changes)
}

/// The four verdicts, as the trajectory pins render them.
fn verdicts(checker: &StreamChecker) -> String {
    format!(
        "{:?}",
        (
            checker.causal(),
            checker.eventual(),
            checker.monotonic_writes(),
            checker.writes_follow_reads()
        )
    )
}

/// `(label, feeds, window, gc_window)` of the fixed-feed trajectory pins.
type FeedCase = (&'static str, Vec<Vec<FeedEvent>>, usize, Option<usize>);

/// The five fixed cases: the full-witness feeds lossless and lossy, exact
/// and windowed, and 48 hostile feeds of 240 events exact and windowed.
fn fixed_cases() -> [FeedCase; 5] {
    let hostile: Vec<Vec<FeedEvent>> = (0..48).map(|seed| hostile_feed(seed, 240)).collect();
    [
        (
            "lossless, exact",
            vec![full_witness_feed(3000, 0)],
            96,
            None,
        ),
        (
            "lossy, window 128",
            vec![full_witness_feed(3000, 40)],
            96,
            Some(128),
        ),
        ("lossy, exact", vec![full_witness_feed(1200, 40)], 96, None),
        ("hostile, exact", hostile.clone(), 16, None),
        ("hostile, window 8", hostile, 16, Some(8)),
    ]
}

/// Known answers against the commit before the live events moved into a
/// position-indexed window: the statistics — live, pending, retired,
/// forced, peaks and the byte estimate — after every push, so an event
/// retired a push early or late shows even where the feed ends the same.
#[test]
fn fixed_feeds_match_their_pinned_per_push_stats_trajectory() {
    let pinned = [
        0xde0fe7fc3cf8ad42,
        0xdff7886d40200f46,
        0x5cc10202fa60171a,
        0xa47d08826d3a584a,
        0x9e171375eef84782,
    ];
    for ((label, feeds, window, gc_window), want) in fixed_cases().into_iter().zip(pinned) {
        let stats = |c: &StreamChecker| format!("{:?}", c.stats());
        assert_eq!(
            trajectory(&feeds, window, gc_window, stats).0,
            want,
            "{label}: some push changed its statistics"
        );
    }
}

/// Known answers against the commit before the causal and session scans
/// were cut down to the events that enter `P(t)` at `t`: the whole
/// per-push history of verdicts and first-violation witnesses, not only
/// where it ends. The running minima move a handful of times per feed, so
/// the hostile case is 48 feeds of 240 events.
#[test]
fn fixed_feeds_match_their_pinned_per_push_verdict_trajectory() {
    // Per case of `fixed_cases`: (hash, pushes that changed the verdicts).
    let pinned = [
        (0x852d5d2e3122eae5, 1),
        (0xab90202e5679851d, 3),
        (0xd43aa9797b8611bd, 3),
        (0x9ac4ba2517fca2a0, 222),
        (0xc845592818a83f99, 141),
    ];
    for ((label, feeds, window, gc_window), want) in fixed_cases().into_iter().zip(pinned) {
        assert_eq!(
            trajectory(&feeds, window, gc_window, verdicts),
            want,
            "{label}: some push changed its verdicts"
        );
    }
}
