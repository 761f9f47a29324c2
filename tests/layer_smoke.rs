//! Tier-1 reach: one sub-second case per layer whose real suites
//! (`crates/sim/tests/explore_differential.rs`, `service_matrix.rs`,
//! `crates/core/tests/stream_differential.rs`) run only under `ci.sh`'s
//! `cargo test --workspace`. `cargo test -q` builds only the root package,
//! so without these a change to the explorer, the service driver or the
//! streaming checker could break its suite and still pass tier 1.

use haec::core::consistency::{causal, sessions};
use haec::core::stream::{StreamChecker, StreamConfig};
use haec::core::witness::{abstract_from_witness, abstract_from_witness_ordered, DoWitness};
use haec::prelude::*;
use haec::sim::exhaustive::{
    explore_all, explore_all_observed, explore_all_parallel, explore_all_replay, Action,
    ExhaustiveConfig, ExhaustiveReport,
};
use haec::sim::obs::{self, stats::StatsObserver, stream::StreamObserver, NullObserver, Observer};
use haec::sim::service::{run_service, ServiceRunConfig};
use haec::sim::{explore_with, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Replay, dfs, dedup and par-2 on the default cluster at depth 3: the
/// same 111 schedules and the same first counterexample under `check`,
/// which is returned.
fn assert_engines_agree_at_depth_3(
    factory: &dyn StoreFactory,
    check: impl Fn(&Simulator) -> bool + Sync + Copy,
) -> Option<Vec<Action>> {
    let config = ExhaustiveConfig {
        depth: 3,
        max_schedules: usize::MAX,
        ..ExhaustiveConfig::default()
    };
    let deduped = ExhaustiveConfig {
        dedup: true,
        ..config.clone()
    };
    let reference = explore_all_replay(factory, &config, &mut { check });
    assert_eq!(reference.schedules, 111, "{}", factory.name());
    for (engine, report) in [
        ("dfs", explore_all(factory, &config, &mut { check })),
        ("dedup", explore_all(factory, &deduped, &mut { check })),
        (
            "par-2",
            explore_all_parallel(factory, &deduped, 2, &check, &mut NullObserver),
        ),
    ] {
        let label = format!("{} {engine}", factory.name());
        assert_eq!(report.schedules, reference.schedules, "{label}");
        assert_eq!(report.counterexample, reference.counterexample, "{label}");
    }
    reference.counterexample
}

#[test]
fn explorer_engines_agree_at_depth_3_on_two_stores() {
    let stores: [(&dyn StoreFactory, SpecKind); 2] = [
        (&DvvMvrStore, SpecKind::Mvr),
        (&LwwStore, SpecKind::LwwRegister),
    ];
    for (factory, spec) in stores {
        assert_engines_agree_at_depth_3(factory, move |sim: &Simulator| {
            sim.abstract_execution().is_ok_and(|a| {
                check_correct(&a, &ObjectSpecs::uniform(spec)).is_ok() && causal::check(&a).is_ok()
            })
        });
    }
}

#[test]
fn abstract_execution_rides_the_transcript_in_every_engine_at_depth_3() {
    // `Simulator::abstract_execution` answers from a log that grows with
    // `do_op`, rewinds with `undo_step` and travels in snapshots; the batch
    // builder on the identity order is its oracle. Checked inside the
    // predicate, so at every prefix each engine visits: a `from_snapshot`
    // that dropped the log would answer from an empty one in every
    // parallel unit and part ways with replay on the first counterexample.
    let stores: [&dyn StoreFactory; 2] = [&DvvMvrStore, &BoundedStore];
    for factory in stores {
        let counterexample = assert_engines_agree_at_depth_3(factory, |sim: &Simulator| {
            let ex = sim.execution();
            let a = sim.abstract_execution();
            a == abstract_from_witness_ordered(ex, sim.witnesses(), &ex.do_events())
                && a.is_ok_and(|a| {
                    check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok()
                        && causal::check(&a).is_ok()
                })
        });
        assert_eq!(counterexample, None, "{}", factory.name());
    }
}

#[test]
fn dedup_and_symmetry_tables_keep_their_pinned_counters_at_depth_4() {
    // The sequential triples of `explore_differential`'s
    // `parallel_dedup_counters_known_answers` (dvv-mvr, 3 replicas × 2
    // objects, register ops, always-true predicate): the dedup table's
    // hits and misses, under `por` alone the plain key folded with the
    // sleep-set digest, and under `symmetry` the canonical fingerprints the
    // payload-renaming cache feeds it, as exact counts. The parallel
    // triples of the same test pin the cross-unit table the orchestrator
    // fills between levels, identical at 1 and 2 threads.
    let dedup = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 2),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: 4,
        max_schedules: usize::MAX,
        dedup: true,
        por: false,
        symmetry: false,
    };
    let por = ExhaustiveConfig {
        por: true,
        ..dedup.clone()
    };
    let reduced = ExhaustiveConfig {
        por: true,
        symmetry: true,
        ..dedup.clone()
    };
    let counters = |r: ExhaustiveReport| (r.schedules, r.dedup_hits, r.dedup_misses);
    for (config, sequential, parallel) in [
        (por, (6185, 814, 1862), (6185, 1330, 3228)),
        (reduced, (6185, 902, 1474), (6185, 1418, 2934)),
        (dedup, (28123, 2774, 4594), (28123, 5631, 8468)),
    ] {
        let report = explore_all(&DvvMvrStore, &config, &mut |_| true);
        assert_eq!(counters(report), sequential, "{config:?}");
        for threads in [1, 2] {
            let report =
                explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut NullObserver);
            assert_eq!(counters(report), parallel, "threads={threads} {config:?}");
        }
    }
}

#[test]
fn por_dedup_key_tells_sleeping_deliveries_apart_by_payload_at_depth_6() {
    // Three replicas at depth 6 reach the same global state with sleep
    // sets that differ only in which of two in-flight copies to one
    // addressee sleeps. A sleep digest that mixed a `Deliver` entry's
    // addressee but not its payload would alias them and score two extra
    // sequential hits. Literals from the `BTreeMap`-and-SipHash explorer.
    let config = ExhaustiveConfig {
        store_config: StoreConfig::new(3, 1),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: 6,
        max_schedules: usize::MAX,
        dedup: true,
        por: true,
        symmetry: false,
    };
    let counters = |r: ExhaustiveReport| (r.schedules, r.dedup_hits, r.dedup_misses);
    let report = explore_all(&DvvMvrStore, &config, &mut |_| true);
    assert_eq!(counters(report), (10064, 1079, 5348));
    for threads in [1, 2] {
        let report =
            explore_all_parallel(&DvvMvrStore, &config, threads, &|_| true, &mut NullObserver);
        assert_eq!(counters(report), (10064, 1270, 7225), "threads={threads}");
    }
}

/// `DvvMvrStore` whose machines count the `state_bits()` calls made on
/// them; every other method forwards.
struct SizedStore(Arc<AtomicUsize>);

struct SizedMachine(Box<dyn ReplicaMachine>, Arc<AtomicUsize>);

impl StoreFactory for SizedStore {
    fn spawn(&self, replica: ReplicaId, config: StoreConfig) -> Box<dyn ReplicaMachine> {
        Box::new(SizedMachine(
            DvvMvrStore.spawn(replica, config),
            self.0.clone(),
        ))
    }
    fn name(&self) -> &str {
        DvvMvrStore.name()
    }
}

impl ReplicaMachine for SizedMachine {
    fn do_op(&mut self, obj: ObjectId, op: &Op) -> haec::model::DoOutcome {
        self.0.do_op(obj, op)
    }
    fn pending_message(&self) -> Option<Payload> {
        self.0.pending_message()
    }
    fn on_send(&mut self) {
        self.0.on_send();
    }
    fn on_receive(&mut self, payload: &Payload) {
        self.0.on_receive(payload);
    }
    fn state_fingerprint(&self) -> u64 {
        self.0.state_fingerprint()
    }
    fn boxed_clone(&self) -> Box<dyn ReplicaMachine> {
        Box::new(SizedMachine(self.0.boxed_clone(), self.1.clone()))
    }
    fn state_bits(&self) -> usize {
        self.1.fetch_add(1, Ordering::SeqCst);
        self.0.state_bits()
    }
}

/// The prefixes a walk visits, in order.
struct Visited(Vec<Vec<Action>>);

impl Observer for Visited {
    fn on_search_node(&mut self, prefix: &[Action], _frontier: usize) {
        self.0.push(prefix.to_vec());
    }
}

#[test]
fn an_unobserved_simulator_never_sizes_its_machines() {
    // Replica state is metered by whoever listens (`StatsObserver`), not by
    // the simulator: the exhaustive walker attaches nothing to the cluster
    // it steps, so it must not pay for a `state_bits()` per machine per
    // node, and it must walk the tree it walks on the bare store.
    let config = ExhaustiveConfig {
        depth: 3,
        max_schedules: usize::MAX,
        dedup: true,
        ..ExhaustiveConfig::default()
    };
    let calls = Arc::new(AtomicUsize::new(0));
    let sized = SizedStore(calls.clone());
    let counters = |r: ExhaustiveReport| (r.schedules, r.dedup_hits, r.dedup_misses);
    let bare = counters(explore_all(&DvvMvrStore, &config, &mut |_| true));
    assert_eq!(counters(explore_all(&sized, &config, &mut |_| true)), bare);
    let mut visited = Visited(Vec::new());
    let observed = explore_all_observed(&sized, &config, &mut |_| true, &mut visited);
    assert_eq!(counters(observed), bare);
    assert_eq!(calls.load(Ordering::SeqCst), 0, "nobody listens");

    // The same walk with a listener: every visited prefix stepped through
    // a metered cluster takes one sample — one call per machine — after
    // each do, send and receive, and none otherwise.
    let n = config.store_config.n_replicas;
    let mut events = 0;
    for prefix in &visited.0 {
        let stats = obs::shared(StatsObserver::new());
        let mut sim = Simulator::new(&sized, config.store_config);
        sim.attach_observer(Box::new(stats.clone()));
        for action in prefix {
            match action {
                Action::Do(replica, obj, op) => {
                    sim.do_op(*replica, *obj, op.clone());
                }
                Action::Flush(replica) => {
                    sim.flush(*replica);
                }
                Action::Deliver(i) => {
                    sim.deliver(*i);
                }
            }
        }
        let stats = stats.borrow();
        assert_eq!(
            (stats.do_events() + stats.sends() + stats.receives()) as usize,
            sim.execution().len()
        );
        events += sim.execution().len();
        assert_eq!(calls.load(Ordering::SeqCst), n * events, "{prefix:?}");
    }
    assert!(events > 0);
}

#[test]
fn service_batched_and_unbatched_agree_on_a_clean_network() {
    // One cell of `service_matrix`: constant delay (`delay_max: 1` always
    // draws 0), no faults, so the two wire modes are tick-for-tick
    // comparable and may differ only by the envelope framing.
    let cell = |batched| ServiceRunConfig {
        ops: 300,
        n_clients: 12,
        delay_max: 1,
        seed: 0x7EA_5E7,
        batched,
        ..ServiceRunConfig::default()
    };
    let batched = run_service(&DvvMvrStore, &cell(true));
    let unbatched = run_service(&DvvMvrStore, &cell(false));
    assert!(batched.converged && unbatched.converged);
    assert_eq!(batched.per_shard, unbatched.per_shard);
    assert_eq!(batched.visibility_lag, unbatched.visibility_lag);
    assert_eq!(batched.read_staleness, unbatched.read_staleness);
    assert_eq!(unbatched.envelope_overhead_bits, 0);
    assert_eq!(
        batched.message_bits,
        unbatched.message_bits + batched.envelope_overhead_bits,
        "batching adds framing bits only"
    );
}

#[test]
fn streaming_verdicts_match_the_batch_checkers_on_one_faulty_run() {
    let config = ExplorationConfig {
        schedule: ScheduleConfig {
            drop_prob: 0.2,
            ..ScheduleConfig::default()
        },
        ..ExplorationConfig::default()
    };
    let stream = obs::shared(
        StreamObserver::new(StreamConfig {
            n_replicas: config.n_replicas,
            window: 32,
            gc_window: None,
        })
        .expect("valid stream config"),
    );
    let handle = stream.clone();
    let report = explore_with(&DvvMvrStore, &config, 42, move |sim| {
        sim.attach_observer(Box::new(handle));
    });
    let a = report.abstract_execution.expect("witness assembles");
    let stream = stream.borrow();
    let checker = stream.checker();
    assert_eq!(checker.error(), None);
    assert_eq!(checker.len(), a.len());
    assert_eq!(checker.causal(), causal::check(&a));
    assert_eq!(checker.eventual(), eventual::check_prefix(&a, 32));
    assert_eq!(checker.sessions(), sessions::check_all(&a));
}

/// A seeded feed of delta witnesses over three replicas and two objects:
/// each event runs at a random replica and is an update with probability
/// 0.6, and names the foreign dots issued at least 16 events earlier that
/// its replica has not named yet. Every 40th update is never delivered.
fn lossy_delta_feed(seed: u64, events: usize) -> Vec<(ReplicaId, ObjectId, bool, Vec<Dot>)> {
    const N: usize = 3;
    const LAG: usize = 16;
    let mut rng = haec_testkit::Rng::seed_from_u64(seed);
    // Delivered dots with their issue event, in issue order, and how far
    // each replica has named them.
    let mut delivered: Vec<(usize, Dot)> = Vec::new();
    let mut cursor = [0usize; N];
    let mut issued = [0u32; N];
    let mut updates = 0usize;
    let mut feed = Vec::with_capacity(events);
    for t in 0..events {
        let r = rng.gen_range(0..N);
        let replica = ReplicaId::new(r as u32);
        let mut visible = Vec::new();
        while cursor[r] < delivered.len() && delivered[cursor[r]].0 + LAG <= t {
            let d = delivered[cursor[r]].1;
            if d.replica != replica {
                visible.push(d);
            }
            cursor[r] += 1;
        }
        let is_update = rng.gen_bool(0.6);
        if is_update {
            issued[r] += 1;
            updates += 1;
            if !updates.is_multiple_of(40) {
                delivered.push((t, Dot::new(replica, issued[r])));
            }
        }
        let obj = ObjectId::new(rng.gen_range(0..2u32));
        feed.push((replica, obj, is_update, visible));
    }
    feed
}

/// The quiescing feed of perfbench's `stream-*` workloads without their
/// seed: event `t` runs at replica `t % 3`, each replica cycles update,
/// update, read, the object alternates between two every three events, a
/// dot becomes visible elsewhere 24 events after it was issued, and each
/// witness is the delta of newly visible foreign dots. With
/// `lose_every = k`, every `k`-th update is never delivered.
fn quiescing_delta_feed(
    events: usize,
    lose_every: usize,
) -> Vec<(ReplicaId, ObjectId, bool, Vec<Dot>)> {
    const N: usize = 3;
    const LAG: usize = 24;
    let mut delivered: Vec<(usize, Dot)> = Vec::new();
    let mut cursor = [0usize; N];
    let mut issued = [0u32; N];
    let mut updates = 0usize;
    let mut feed = Vec::with_capacity(events);
    for t in 0..events {
        let r = t % N;
        let replica = ReplicaId::new(r as u32);
        let is_update = (t / N) % 3 != 2;
        let obj = ObjectId::new((t / 3) as u32 % 2);
        let mut visible = Vec::new();
        while cursor[r] < delivered.len() && delivered[cursor[r]].0 + LAG < t {
            let d = delivered[cursor[r]].1;
            if d.replica != replica {
                visible.push(d);
            }
            cursor[r] += 1;
        }
        if is_update {
            issued[r] += 1;
            updates += 1;
            if lose_every == 0 || !updates.is_multiple_of(lose_every) {
                delivered.push((t, Dot::new(replica, issued[r])));
            }
        }
        feed.push((replica, obj, is_update, visible));
    }
    feed
}

#[test]
fn streaming_checker_keeps_its_pinned_per_push_stats_on_a_lossy_feed() {
    // One case of `stream_differential`'s per-push statistics pins: the
    // live, pending, retired and forced counts, their peaks and the byte
    // estimate after every push, exact and with a 64-event window. An
    // event that retires a push early or late changes the hash even where
    // the feed ends the same. The quiescing feed is pinned the same way at
    // 20 000 events, lossless under exact GC and with every 500th update
    // lost under a 512-event window, with the regimes it is built for:
    // residency stays under a twentieth of the feed, the lossless run
    // forces nothing and holds every verdict.
    let lossy = lossy_delta_feed(0x5EED_0040, 2000);
    let quiescing = quiescing_delta_feed(20_000, 0);
    let quiescing_lossy = quiescing_delta_feed(20_000, 500);
    // (feed, window, gc_window, quiesces, pinned hash)
    for (feed, window, gc_window, quiesces, want) in [
        (&lossy, 32, None, false, 0xa22bdd7c50d2a70b),
        (&lossy, 32, Some(64), false, 0xe924ec0aca5e9e41),
        (&quiescing, 96, None, true, 0x7ff087e93b6a541b),
        (&quiescing_lossy, 96, Some(512), true, 0x372f157fe0c21d9a),
    ] {
        let mut checker = StreamChecker::new(StreamConfig {
            n_replicas: 3,
            window,
            gc_window,
        })
        .expect("valid stream config");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (replica, obj, is_update, visible) in feed {
            checker
                .push(*replica, *obj, *is_update, visible)
                .expect("valid push");
            for b in format!("{:?}", checker.stats()).bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        checker.sweep();
        let stats = checker.stats();
        assert_eq!(
            stats.forced_retired > 0,
            gc_window.is_some(),
            "{gc_window:?}"
        );
        if quiesces {
            assert!(stats.peak_live * 20 < stats.events, "{stats:?}");
            if gc_window.is_none() {
                assert_eq!(checker.causal(), Ok(()));
                assert_eq!(checker.eventual(), Ok(()));
                assert_eq!(checker.sessions(), Ok(()));
            }
        }
        assert_eq!(
            hash, want,
            "{gc_window:?}: some push changed its statistics"
        );
    }
}

#[test]
fn streaming_checker_pins_the_first_witnesses_of_a_lost_update() {
    // R0 writes (event 0), reads (1), writes again (2); R1 sees both
    // writes, then writes (4); R2 is only ever told of R0's second write.
    // At event 5 that write enters R2's past together with the read before
    // it (the read-prefix rule), and both arrive without event 0: the read
    // is the first causal middle, the write the monotonic-writes and
    // writes-follow-reads witness. The events after that name R1's write
    // and R0's second, never its first, so every later candidate is
    // larger. 16 events, so a window of 8 force-retires the lost update
    // after its violations are on record.
    let dot = |rep, seq| Dot::new(ReplicaId::new(rep), seq);
    let mut feed: Vec<(u32, bool, Vec<Dot>)> = vec![
        (0, true, vec![]),
        (0, false, vec![]),
        (0, true, vec![]),
        (1, false, vec![dot(0, 1), dot(0, 2)]),
        (1, true, vec![dot(0, 1), dot(0, 2)]),
        (2, false, vec![dot(0, 2)]),
    ];
    for t in 6..16 {
        let seen = vec![dot(0, 2), dot(1, 1)];
        feed.push((t % 3, t % 2 == 0, seen));
    }
    for gc_window in [None, Some(8)] {
        let mut checker = StreamChecker::new(StreamConfig {
            n_replicas: 3,
            window: 32,
            gc_window,
        })
        .expect("valid stream config");
        let mut ex = Execution::new(3);
        let mut ws = Vec::new();
        for (t, (rep, is_update, visible)) in feed.iter().enumerate() {
            let (replica, obj) = (ReplicaId::new(*rep), ObjectId::new(0));
            let (op, rv) = if *is_update {
                (Op::Write(Value::new(t as u64)), ReturnValue::Ok)
            } else {
                (Op::Read, ReturnValue::empty())
            };
            let event = ex.push_do(replica, obj, op, rv);
            ws.push(DoWitness {
                event,
                visible: visible.clone(),
            });
            assert_eq!(checker.push(replica, obj, *is_update, visible), Ok(t));
        }
        assert_eq!(
            checker.causal(),
            Err(causal::CausalityViolation {
                e1: 0,
                e2: 1,
                e3: 5
            }),
            "{gc_window:?}"
        );
        assert_eq!(
            checker.monotonic_writes(),
            Err(sessions::SessionViolation::MonotonicWrites {
                earlier: 0,
                later: 2,
                event: 5
            }),
            "{gc_window:?}"
        );
        assert_eq!(
            checker.writes_follow_reads(),
            Err(sessions::SessionViolation::WritesFollowReads {
                seen: 0,
                read: 1,
                update: 2,
                event: 5
            }),
            "{gc_window:?}"
        );
        let a = abstract_from_witness(&ex, &ws).expect("witness assembles");
        assert_eq!(checker.causal(), causal::check(&a));
        assert_eq!(checker.sessions(), sessions::check_all(&a));
        assert_eq!(
            checker.writes_follow_reads(),
            sessions::check_writes_follow_reads(&a)
        );
        assert_eq!(
            checker.stats().forced_retired > 0,
            gc_window.is_some(),
            "{gc_window:?}"
        );
    }
}
