//! The store matrix (E6, E8): every store checked against every relevant
//! property, with expected pass/fail per the paper's discussions.

use haec::prelude::*;
use haec::stores::properties::{check_with_ops, PropertyReport};
use haec::theory::lemmas::{check_prop1, check_prop2};
use haec_sim::check_quiescent_agreement;

fn ops_for(spec: SpecKind) -> Vec<Op> {
    match spec {
        SpecKind::OrSet => vec![
            Op::Add(Value::new(1)),
            Op::Add(Value::new(2)),
            Op::Remove(Value::new(1)),
            Op::Read,
        ],
        SpecKind::Counter => vec![Op::Inc, Op::Read],
        SpecKind::EwFlag => vec![Op::Enable, Op::Enable, Op::Disable, Op::Read],
        _ => vec![Op::Write(Value::new(0)), Op::Read],
    }
}

fn spec_for(name: &str) -> SpecKind {
    match name {
        "orset" => SpecKind::OrSet,
        "ew-flag" => SpecKind::EwFlag,
        "counter" => SpecKind::Counter,
        "lww" | "arbitration-mvr" | "sequenced" | "causal-register" => SpecKind::LwwRegister,
        _ => SpecKind::Mvr,
    }
}

fn property_report(factory: &dyn StoreFactory, seed: u64) -> PropertyReport {
    let spec = spec_for(factory.name());
    check_with_ops(factory, StoreConfig::new(3, 2), seed, 500, &ops_for(spec))
}

#[test]
fn write_propagating_matrix() {
    // (name, expect write-propagating)
    let expectations = [
        ("dvv-mvr", true),
        ("cops-mvr", true),
        ("causal-register", true),
        ("orset", true),
        ("counter", true),
        ("ew-flag", true),
        ("lww", true),
        ("arbitration-mvr", true),
        ("bounded", true),
        ("k-delayed", false),
        ("sequenced", false),
    ];
    for factory in haec::stores::all_factories() {
        let expected = expectations
            .iter()
            .find(|(n, _)| *n == factory.name())
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("unlisted store {}", factory.name()));
        let mut wp_everywhere = true;
        for seed in 1..=4 {
            let rep = property_report(factory.as_ref(), seed);
            if !rep.is_write_propagating() {
                wp_everywhere = false;
            }
        }
        assert_eq!(
            wp_everywhere,
            expected,
            "{}: write-propagating expectation violated",
            factory.name()
        );
    }
}

#[test]
fn k_delayed_violation_is_specifically_visible_reads() {
    let rep = property_report(&KDelayedStore::new(2), 3);
    assert!(rep.has_visible_reads());
    assert!(!rep.violates_op_driven());
}

#[test]
fn sequenced_violation_is_specifically_op_driven() {
    let mut found = false;
    for seed in 1..=6 {
        let rep = property_report(&SequencedStore, seed);
        if rep.violates_op_driven() {
            found = true;
        }
        assert!(!rep.has_visible_reads(), "sequenced reads stay invisible");
    }
    assert!(
        found,
        "the sequencer must be caught creating pending on receive"
    );
}

#[test]
fn prop1_and_prop2_hold_on_all_store_runs() {
    for factory in haec::stores::all_factories() {
        let spec = spec_for(factory.name());
        if !matches!(spec, SpecKind::Mvr | SpecKind::LwwRegister) {
            continue;
        }
        for seed in 0..3 {
            let config = ExplorationConfig {
                spec,
                schedule: ScheduleConfig {
                    steps: 150,
                    ..ScheduleConfig::default()
                },
                ..ExplorationConfig::default()
            };
            let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(3, 2));
            let mut wl = Workload::new(spec, 3, 2, 0.4, KeyDistribution::Uniform);
            run_schedule(&mut sim, &mut wl, &config.schedule, seed);
            assert!(
                check_prop2(sim.execution()).is_ok(),
                "{} seed {seed}: Prop 2 violated",
                factory.name()
            );
            assert!(
                check_prop1(sim.execution()).is_ok(),
                "{} seed {seed}: Prop 1 violated",
                factory.name()
            );
        }
    }
}

#[test]
fn quiescent_agreement_for_invisible_read_stores() {
    // Lemma 3 / Corollary 4 hold exactly for the stores with invisible
    // reads (and honest propagation).
    let agreeing: &[(&dyn StoreFactory, SpecKind)] = &[
        (&DvvMvrStore, SpecKind::Mvr),
        (&OrSetStore, SpecKind::OrSet),
        (&CounterStore, SpecKind::Counter),
        (&LwwStore, SpecKind::LwwRegister),
        (&ArbitrationStore, SpecKind::LwwRegister),
    ];
    for (factory, spec) in agreeing {
        for seed in 0..3 {
            let mut sim = Simulator::new(*factory, StoreConfig::new(3, 2));
            let mut wl = Workload::new(*spec, 3, 2, 0.3, KeyDistribution::Uniform);
            let sched = ScheduleConfig {
                steps: 150,
                drop_prob: 0.0,
                quiesce_at_end: false,
                ..ScheduleConfig::default()
            };
            run_schedule(&mut sim, &mut wl, &sched, seed);
            assert!(
                check_quiescent_agreement(&mut sim).is_ok(),
                "{} seed {seed} disagreed after quiescence",
                factory.name()
            );
        }
    }
}

#[test]
fn bounded_store_diverges_after_quiescence_somewhere() {
    // The bounded store drops updates from propagation; some schedule
    // leaves replicas permanently disagreeing (E10).
    let mut diverged = false;
    for seed in 0..10 {
        let mut sim = Simulator::new(&BoundedStore, StoreConfig::new(3, 2));
        let mut wl = Workload::new(SpecKind::Mvr, 3, 2, 0.2, KeyDistribution::Uniform);
        let sched = ScheduleConfig {
            steps: 120,
            drop_prob: 0.0,
            quiesce_at_end: false,
            ..ScheduleConfig::default()
        };
        run_schedule(&mut sim, &mut wl, &sched, seed);
        if check_quiescent_agreement(&mut sim).is_err() {
            diverged = true;
            break;
        }
    }
    assert!(
        diverged,
        "bounded messages must eventually cost convergence"
    );
}

#[test]
fn sequencer_idle_forfeits_eventual_consistency() {
    // §5.3: GSP-like systems weaken liveness for stronger consistency.
    // If the sequencer (R0) never receives the announcements — or never
    // flushes its ordering — follower updates stay invisible forever, no
    // matter how many messages the followers exchange among themselves.
    let mut sim = Simulator::new(&SequencedStore, StoreConfig::new(3, 1));
    let (r1, r2) = (ReplicaId::new(1), ReplicaId::new(2));
    let x = ObjectId::new(0);
    sim.do_op(r1, x, Op::Write(Value::new(1)));
    let m = sim.flush(r1).expect("announcement pending");
    // The announcement reaches the *other follower* but never the
    // sequencer.
    sim.deliver_to(m, r2);
    for _ in 0..10 {
        assert_eq!(sim.read(r1, x), ReturnValue::empty());
        assert_eq!(sim.read(r2, x), ReturnValue::empty());
    }
    // Once the sequencer participates, the update becomes visible
    // everywhere — consistency was traded for liveness, not lost.
    let mut sim2 = Simulator::new(&SequencedStore, StoreConfig::new(3, 1));
    sim2.do_op(r1, x, Op::Write(Value::new(1)));
    sim2.quiesce();
    assert_eq!(sim2.read(r1, x), ReturnValue::values([Value::new(1)]));
    assert_eq!(sim2.read(r2, x), ReturnValue::values([Value::new(1)]));
}

#[test]
fn state_bits_grow_with_operations() {
    // E9: replica state size grows with the number of operations for the
    // dot-based stores (the space side of the paper's §7 remarks).
    let factories: &[(&dyn StoreFactory, SpecKind)] = &[
        (&DvvMvrStore, SpecKind::Mvr),
        (&OrSetStore, SpecKind::OrSet),
    ];
    for (factory, spec) in factories {
        let mut sizes = Vec::new();
        for steps in [20usize, 80, 320] {
            let mut sim = Simulator::new(*factory, StoreConfig::new(3, 2));
            let mut wl = Workload::new(*spec, 3, 2, 0.2, KeyDistribution::Uniform);
            let sched = ScheduleConfig {
                steps,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            };
            run_schedule(&mut sim, &mut wl, &sched, 1);
            sizes.push(sim.machine(ReplicaId::new(0)).state_bits());
        }
        assert!(
            sizes[0] < sizes[2],
            "{}: state bits should grow: {:?}",
            factory.name(),
            sizes
        );
    }
}

/// The update operations of the known-answer script, per object family:
/// three at R0 (two on x0, one on x1), one at R1 after seeing them, two
/// concurrent at R2 (one per object), and a last one at R0 once R1's has
/// merged.
fn script_updates(spec: SpecKind) -> [Op; 7] {
    let v = Value::new;
    match spec {
        SpecKind::OrSet => [
            Op::Add(v(1)),
            Op::Add(v(1)),
            Op::Add(v(2)),
            Op::Remove(v(1)),
            Op::Add(v(1)),
            Op::Add(v(3)),
            Op::Remove(v(1)),
        ],
        SpecKind::Counter => [(); 7].map(|()| Op::Inc),
        SpecKind::EwFlag => [
            Op::Enable,
            Op::Enable,
            Op::Enable,
            Op::Disable,
            Op::Enable,
            Op::Enable,
            Op::Disable,
        ],
        _ => [1, 2, 3, 4, 5, 6, 7].map(|i| Op::Write(v(i))),
    }
}

/// Runs the fixed known-answer script against one store and returns its
/// transcript: every `DoOutcome` (rval, witness, timestamp), the exact
/// bits and bytes of every broadcast, and each replica's final
/// `state_fingerprint`, `state_bits` and symmetry opt-in.
///
/// The script: local updates at R0; relay to R1 only; an update at R1 that
/// saw them and concurrent ones at R2 on both objects; R1's broadcast reaches R2 *before*
/// R0's (causal buffering); duplicates of both broadcasts; an update at R0
/// over the merged state; broadcast rounds until nothing is pending
/// (receive-driven senders included); reads of both objects everywhere.
fn known_answer_transcript(factory: &dyn StoreFactory) -> String {
    use std::fmt::Write as _;

    fn do_op(t: &mut String, m: &mut [Box<dyn ReplicaMachine>], r: usize, obj: u32, op: &Op) {
        let out = m[r].do_op(ObjectId::new(obj), op);
        let witness: Vec<String> = out.visible.iter().map(Dot::to_string).collect();
        let ts = out.timestamp.map_or("-".to_string(), |ts| ts.to_string());
        writeln!(
            t,
            "R{r} x{obj} {op} -> {} @[{}] ts={ts}",
            out.rval,
            witness.join(" ")
        )
        .unwrap();
    }

    fn send(t: &mut String, m: &mut [Box<dyn ReplicaMachine>], r: usize) -> Option<Payload> {
        let msg = m[r].pending_message()?;
        m[r].on_send();
        assert!(
            m[r].pending_message().is_none(),
            "nothing pending after send"
        );
        let hex: String = msg.bytes().iter().map(|b| format!("{b:02x}")).collect();
        writeln!(t, "R{r} send {}b {hex}", msg.bits()).unwrap();
        Some(msg)
    }

    let spec = spec_for(factory.name());
    let u = script_updates(spec);
    let mut m: Vec<Box<dyn ReplicaMachine>> = (0..3)
        .map(|r| factory.spawn(ReplicaId::new(r), StoreConfig::new(3, 2)))
        .collect();
    let mut t = String::new();

    do_op(&mut t, &mut m, 0, 0, &u[0]);
    do_op(&mut t, &mut m, 0, 0, &u[1]);
    do_op(&mut t, &mut m, 0, 1, &u[2]);
    let ma = send(&mut t, &mut m, 0).expect("R0 has updates to send");
    m[1].on_receive(&ma);
    do_op(&mut t, &mut m, 1, 0, &u[3]);
    do_op(&mut t, &mut m, 2, 0, &u[4]);
    do_op(&mut t, &mut m, 2, 1, &u[5]);
    let mb = send(&mut t, &mut m, 1).expect("R1 has an update to send");
    m[2].on_receive(&mb);
    do_op(&mut t, &mut m, 2, 0, &Op::Read);
    m[2].on_receive(&ma);
    m[0].on_receive(&mb);
    m[1].on_receive(&ma);
    m[0].on_receive(&mb);
    do_op(&mut t, &mut m, 0, 0, &u[6]);
    for _round in 0..3 {
        for r in 0..3 {
            if let Some(msg) = send(&mut t, &mut m, r) {
                for to in (0..3).filter(|&to| to != r) {
                    m[to].on_receive(&msg);
                }
            }
        }
    }
    for r in 0..3 {
        do_op(&mut t, &mut m, r, 0, &Op::Read);
        do_op(&mut t, &mut m, r, 1, &Op::Read);
    }
    for (r, machine) in m.iter().enumerate() {
        let identity = [0, 1, 2];
        writeln!(
            t,
            "R{r} fingerprint {:016x} state_bits {} renamed {}",
            machine.state_fingerprint(),
            machine.state_bits(),
            machine.state_fingerprint_renamed(&identity).is_some()
        )
        .unwrap();
    }
    t
}

/// Per-store known answers: the transcript of one fixed script, byte for
/// byte, for every factory plus the mixed store. A store-layer refactor
/// must leave every literal below untouched.
#[test]
fn per_store_known_answers() {
    let mut factories = haec::stores::all_factories();
    factories.push(Box::new(haec::stores::MixedStore::new(1)));
    assert_eq!(factories.len(), KNOWN_ANSWERS.len());
    for (factory, (name, expected)) in factories.iter().zip(KNOWN_ANSWERS) {
        assert_eq!(factory.name(), *name);
        let actual = known_answer_transcript(factory.as_ref());
        assert_eq!(
            actual.trim_end(),
            expected.trim(),
            "{name}: transcript changed; actual:\n{actual}"
        );
    }
}

const KNOWN_ANSWERS: &[(&str, &str)] = &[
    (
        "dvv-mvr",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 54b 84a023b0c6413c
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 22b 2a3032
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 30b 82008228
R2 send 37b 36d0abe00b
R0 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint 410cf11d6e0148ca state_bits 53 renamed true
R1 fingerprint 410cf11d6e0148ca state_bits 53 renamed true
R2 fingerprint 410cf11d6e0148ca state_bits 53 renamed true
",
    ),
    (
        "cops-mvr",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 36b ba49887102
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 20b 222f06
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 28b 221a0201
R2 send 29b ba8caa1c
R0 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint 5c2b15221ada1e05 state_bits 53 renamed false
R1 fingerprint 5c2b15221ada1e05 state_bits 53 renamed false
R2 fingerprint 5c2b15221ada1e05 state_bits 53 renamed false
",
    ),
    (
        "causal-register",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 54b 84a023b0c6413c
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 22b 2a3032
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 30b 82008228
R2 send 37b 36d0abe00b
R0 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
R1 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
R2 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
",
    ),
    (
        "orset",
        "
R0 x0 add(v1) -> ok @[] ts=-
R0 x0 add(v1) -> ok @[R0:1] ts=-
R0 x1 add(v2) -> ok @[R0:1 R0:2] ts=-
R0 send 52b 84a22391c6630f
R1 x0 remove(v1) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 add(v1) -> ok @[] ts=-
R2 x1 add(v3) -> ok @[R2:1] ts=-
R1 send 31b 2ac94464
R2 x0 read -> {v1} @[R2:1 R2:2] ts=-
R0 x0 remove(v1) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 27b 82901205
R2 send 35b b6e86ac802
R0 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v2,v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v2,v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v2,v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint f97d8f243faad5bc state_bits 35 renamed true
R1 fingerprint f97d8f243faad5bc state_bits 35 renamed true
R2 fingerprint f97d8f243faad5bc state_bits 35 renamed true
",
    ),
    (
        "counter",
        "
R0 x0 inc -> ok @[] ts=-
R0 x0 inc -> ok @[R0:1] ts=-
R0 x1 inc -> ok @[R0:1 R0:2] ts=-
R0 send 43b 8476641a9f07
R1 x0 inc -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 inc -> ok @[] ts=-
R2 x1 inc -> ok @[R2:1] ts=-
R1 send 17b aa9101
R2 x0 read -> {v1} @[R2:1 R2:2] ts=-
R0 x0 inc -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 23b 821851
R2 send 27b b65ddd02
R0 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v2} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v2} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v2} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint c08ed971f2798b44 state_bits 19 renamed true
R1 fingerprint c08ed971f2798b44 state_bits 19 renamed true
R2 fingerprint c08ed971f2798b44 state_bits 19 renamed true
",
    ),
    (
        "ew-flag",
        "
R0 x0 enable -> ok @[] ts=-
R0 x0 enable -> ok @[R0:1] ts=-
R0 x1 enable -> ok @[R0:1 R0:2] ts=-
R0 send 43b 8478841aa707
R1 x0 disable -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 enable -> ok @[] ts=-
R2 x1 enable -> ok @[R2:1] ts=-
R1 send 28b aa9a880c
R2 x0 read -> {v1} @[R2:1 R2:2] ts=-
R0 x0 disable -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 24b 8268a2
R2 send 27b 365ee502
R0 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v1} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint 184b48c67b9ec761 state_bits 24 renamed true
R1 fingerprint 184b48c67b9ec761 state_bits 24 renamed true
R2 fingerprint 184b48c67b9ec761 state_bits 24 renamed true
",
    ),
    (
        "lww",
        "
R0 x0 write(v1) -> ok @[] ts=1
R0 x0 write(v2) -> ok @[R0:1] ts=2
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=3
R0 send 39b 840a917113
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=4
R2 x0 write(v5) -> ok @[] ts=1
R2 x1 write(v6) -> ok @[R2:1] ts=2
R1 send 17b 2ac200
R2 x0 read -> {v4} @[R1:1 R2:1 R2:2] ts=4
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=5
R0 send 23b 826008
R2 send 27b b6541507
R0 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R0 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R1 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R1 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R2 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R2 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R0 fingerprint 8e69c9dc97b52847 state_bits 62 renamed false
R1 fingerprint 09725e36f504b738 state_bits 62 renamed false
R2 fingerprint b4d04a644a9bc075 state_bits 62 renamed false
",
    ),
    (
        "k-delayed",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 54b 84a023b0c6413c
R1 x0 write(v4) -> ok @[] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 22b 2a3032
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3] ts=-
R0 send 30b 82008228
R2 send 37b 36d0abe00b
R0 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4] ts=-
R0 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1] ts=-
R1 x0 read -> {v4} @[R1:1] ts=-
R1 x1 read -> {v3} @[R0:1 R0:2 R0:3 R1:1] ts=-
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R2 x1 read -> {v6} @[R2:1 R2:2] ts=-
R0 fingerprint a2e9ac01cad23fcf state_bits 0 renamed false
R1 fingerprint a5b82aca6e9c04ea state_bits 0 renamed false
R2 fingerprint 20e00c3dbf7efb10 state_bits 0 renamed false
",
    ),
    (
        "arbitration-mvr",
        "
R0 x0 write(v1) -> ok @[] ts=1
R0 x0 write(v2) -> ok @[R0:1] ts=2
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=3
R0 send 39b 840a917113
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=4
R2 x0 write(v5) -> ok @[] ts=1
R2 x1 write(v6) -> ok @[R2:1] ts=2
R1 send 17b 2ac200
R2 x0 read -> {v4} @[R1:1 R2:1 R2:2] ts=4
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=5
R0 send 23b 826008
R2 send 27b b6541507
R0 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R0 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R1 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R1 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R2 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R2 x1 read -> {v3} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=5
R0 fingerprint 8e69c9dc97b52847 state_bits 62 renamed false
R1 fingerprint 09725e36f504b738 state_bits 62 renamed false
R2 fingerprint b4d04a644a9bc075 state_bits 62 renamed false
",
    ),
    (
        "sequenced",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 40b 4992101b27
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[] ts=-
R1 send 13b 2a16
R2 x0 read -> {} @[] ts=0
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 38b 4d8a310804
R2 send 24b 36aaf2
R0 send 34b 4d8d729503
R0 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R0 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R1 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R1 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R2 x0 read -> {v5} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R2 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=7
R0 fingerprint 6cfbcc22affca68a state_bits 0 renamed false
R1 fingerprint 9b0f5706354fae4a state_bits 0 renamed false
R2 fingerprint 89b820ef6ce85708 state_bits 0 renamed false
",
    ),
    (
        "bounded",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 11b 3801
R1 x0 write(v4) -> ok @[R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 9b c500
R2 x0 read -> {v4,v5} @[R1:1 R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 15b 1008
R2 send 11b 2a07
R0 x0 read -> {v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:2] ts=-
R0 x1 read -> {v3,v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:2] ts=-
R1 x0 read -> {v4,v7} @[R0:3 R0:4 R1:1 R2:2] ts=-
R1 x1 read -> {v3,v6} @[R0:3 R0:4 R1:1 R2:2] ts=-
R2 x0 read -> {v4,v5,v7} @[R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v3,v6} @[R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint a5cd989f9b907ca5 state_bits 34 renamed false
R1 fingerprint f6649d24a4d42b04 state_bits 42 renamed false
R2 fingerprint 503c455859206531 state_bits 50 renamed false
",
    ),
    (
        "mixed",
        "
R0 x0 write(v1) -> ok @[] ts=-
R0 x0 write(v2) -> ok @[R0:1] ts=-
R0 x1 write(v3) -> ok @[R0:1 R0:2] ts=-
R0 send 54b 84a023b0c6413c
R1 x0 write(v4) -> ok @[R0:1 R0:2 R0:3] ts=-
R2 x0 write(v5) -> ok @[] ts=-
R2 x1 write(v6) -> ok @[R2:1] ts=-
R1 send 22b 2a3032
R2 x0 read -> {v5} @[R2:1 R2:2] ts=-
R0 x0 write(v7) -> ok @[R0:1 R0:2 R0:3 R1:1] ts=-
R0 send 30b 82008228
R2 send 37b 36d0abe00b
R0 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R1 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x0 read -> {v5,v7} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R2 x1 read -> {v6} @[R0:1 R0:2 R0:3 R0:4 R1:1 R2:1 R2:2] ts=-
R0 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
R1 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
R2 fingerprint 410cf11d6e0148ca state_bits 53 renamed false
",
    ),
];
