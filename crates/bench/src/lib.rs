//! # haec-bench
//!
//! The experiment harness: every figure of the paper (and both theorems)
//! regenerated as a printable table. The `experiments` binary drives these
//! functions; the harness-off micro-benches in `benches/` time the same
//! code paths.
//!
//! Experiment index (see DESIGN.md / EXPERIMENTS.md):
//!
//! * **E1** (Figure 1) — [`fig1_spec_table`]: the spec functions evaluated
//!   on canonical contexts.
//! * **E2/E3** (Figures 2, 3a–c) — [`figures_table`]: explainability
//!   verdicts + concrete store behaviour.
//! * **E4/E7** (Figure 4, Theorem 12, §6) — [`thm12_table`],
//!   [`growth_table`]: encode/decode roundtrips and message-size sweeps.
//! * **E5** (Theorem 6) — [`thm6_table`]: construction compliance across
//!   stores and execution families.
//! * **E6** (§5.3) — [`sec53_table`]: the K-delayed counterexample.
//! * **E8** (§4) — [`lemmas_table`]: Propositions 1–2, Lemma 3/Cor. 4,
//!   Lemma 5 across stores.
//! * **E9** (§7) — [`space_table`]: replica state growth.
//! * **E10** — [`ablation_table`]: the bounded-message store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use haec_core::{AbstractExecutionBuilder, OperationContext, SpecKind};
use haec_model::{ObjectId, Op, ReplicaId, ReturnValue, StoreConfig, StoreFactory, Value};
use haec_sim::obs::json::Json;
use haec_sim::{
    check_quiescent_agreement, explore, run_schedule, ExplorationConfig, KeyDistribution,
    ScheduleConfig, Simulator, Workload,
};
use haec_stores::properties::check_with_ops;
use haec_stores::{
    all_factories, ArbitrationStore, BoundedStore, DvvMvrStore, KDelayedStore, LwwStore, OrSetStore,
};
use haec_theory::construction::construct;
use haec_theory::figures::{
    fig2_store_run, fig2_verdict, fig3a_verdict, fig3b_verdict, fig3c_verdict,
};
use haec_theory::generate::{fig3c_style, random_causal, random_occ, GeneratorConfig};
use haec_theory::lemmas::{check_prop1, check_prop2};
use haec_theory::lower_bound::sweep;
use haec_theory::{roundtrip, Thm12Config};

/// A rendered experiment: a title plus preformatted lines.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment title.
    pub title: String,
    /// Preformatted rows.
    pub lines: Vec<String>,
}

impl Table {
    fn new(title: &str) -> Self {
        Table {
            title: title.to_owned(),
            lines: Vec::new(),
        }
    }

    fn row(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// The object specification a named store implements (drives workloads
/// and checkers for that store; unknown names default to MVR).
pub fn spec_for(name: &str) -> SpecKind {
    match name {
        "orset" => SpecKind::OrSet,
        "ew-flag" => SpecKind::EwFlag,
        "counter" => SpecKind::Counter,
        "lww" | "arbitration-mvr" | "sequenced" | "causal-register" => SpecKind::LwwRegister,
        _ => SpecKind::Mvr,
    }
}

/// Whether a named store's witness must be assembled in arbitration order
/// (LWW-style stores whose reads are explained by timestamps, not
/// execution order).
pub fn arbitrated_for(name: &str) -> bool {
    matches!(name, "lww" | "arbitration-mvr")
}

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

/// A labelled scenario: `(label, spec, update ops per replica)`.
type SpecCase = (&'static str, SpecKind, Vec<(ReplicaId, Op)>);
/// A named generator of abstract executions.
type ExecutionFamily = (
    &'static str,
    Box<dyn Fn(u64) -> haec_core::AbstractExecution>,
);

/// E1 — Figure 1: the specification functions on canonical contexts.
pub fn fig1_spec_table() -> Table {
    let mut t = Table::new("E1 / Figure 1: replicated object specifications");
    let r = ReplicaId::new;
    let x = ObjectId::new(0);
    let cases: Vec<SpecCase> = vec![
        (
            "register: last write in H' wins",
            SpecKind::LwwRegister,
            vec![
                (r(0), Op::Write(Value::new(1))),
                (r(1), Op::Write(Value::new(2))),
            ],
        ),
        (
            "MVR: concurrent writes conflict",
            SpecKind::Mvr,
            vec![
                (r(0), Op::Write(Value::new(1))),
                (r(1), Op::Write(Value::new(2))),
            ],
        ),
        (
            "ORset: add wins over concurrent remove",
            SpecKind::OrSet,
            vec![
                (r(0), Op::Add(Value::new(7))),
                (r(1), Op::Remove(Value::new(7))),
            ],
        ),
        (
            "counter: visible increments",
            SpecKind::Counter,
            vec![(r(0), Op::Inc), (r(1), Op::Inc)],
        ),
        (
            "ew-flag: enable wins over concurrent disable",
            SpecKind::EwFlag,
            vec![(r(0), Op::Enable), (r(1), Op::Disable)],
        ),
    ];
    t.row(format!("{:<44} {:>12}", "context", "f_o(ctxt)"));
    for (label, kind, updates) in cases {
        let mut b = AbstractExecutionBuilder::new();
        let mut ids = Vec::new();
        for (replica, op) in updates {
            ids.push(b.push(replica, x, op, ReturnValue::Ok));
        }
        let rd = b.push(r(2), x, Op::Read, ReturnValue::empty());
        for id in ids {
            b.vis(id, rd);
        }
        let skeleton = b.build().expect("valid");
        let rval = kind.expected_rval(&OperationContext::of(&skeleton, rd));
        t.row(format!("{label:<44} {:>12}", rval.to_string()));
    }
    t
}

/// E2/E3 — Figures 2 and 3: explainability verdicts plus concrete stores.
pub fn figures_table() -> Table {
    let mut t = Table::new("E2/E3 / Figures 2-3: can a store hide concurrency?");
    for v in [
        fig3a_verdict(),
        fig3b_verdict(),
        fig2_verdict(),
        fig3c_verdict(),
    ] {
        t.row(format!("{}:", v.label));
        for (desc, ok) in &v.candidates {
            t.row(format!(
                "  {:<50} {}",
                desc,
                if *ok { "explainable" } else { "UNEXPLAINABLE" }
            ));
        }
    }
    t.row(String::new());
    t.row(format!(
        "Figure 2 pattern, dvv-mvr store:     read(x) = {}",
        fig2_store_run(&DvvMvrStore)
    ));
    t.row(format!(
        "Figure 2 pattern, arbitration store: read(x) = {} (hides; not a correct MVR store)",
        fig2_store_run(&ArbitrationStore)
    ));
    t
}

/// E5 — Theorem 6: construction compliance across stores and families.
pub fn thm6_table(runs: usize) -> Table {
    let mut t = Table::new("E5 / Theorem 6: construction compliance (no model stronger than OCC)");
    t.row(format!(
        "{:<18} {:<26} {:>10} {:>10}",
        "store", "execution family", "complied", "runs"
    ));
    let gen_config = GeneratorConfig::default();
    let families: Vec<ExecutionFamily> = vec![
        (
            "random causal",
            Box::new(|s: u64| random_causal(&GeneratorConfig::default(), s)),
        ),
        (
            "random OCC",
            Box::new(move |s: u64| random_occ(&gen_config, s, 20)),
        ),
        ("figure 3c (OCC)", Box::new(fig3c_style)),
    ];
    for (family, make) in families {
        let ok = (0..runs as u64)
            .filter(|&s| construct(&DvvMvrStore, &make(s)).complies())
            .count();
        t.row(format!(
            "{:<18} {:<26} {:>10} {:>10}",
            "dvv-mvr", family, ok, runs
        ));
    }
    {
        let ok = (0..runs as u64)
            .filter(|&s| {
                construct(
                    &haec_stores::CopsStore,
                    &random_causal(&GeneratorConfig::default(), s),
                )
                .complies()
            })
            .count();
        t.row(format!(
            "{:<18} {:<26} {:>10} {:>10}",
            "cops-mvr", "random causal", ok, runs
        ));
    }
    let counterexamples: Vec<Box<dyn StoreFactory>> =
        vec![Box::new(ArbitrationStore), Box::new(KDelayedStore::new(2))];
    for factory in counterexamples {
        let ok = (0..runs as u64)
            .filter(|&s| construct(factory.as_ref(), &fig3c_style(s)).complies())
            .count();
        t.row(format!(
            "{:<18} {:<26} {:>10} {:>10}",
            factory.name(),
            "figure 3c (OCC)",
            ok,
            runs
        ));
    }
    t
}

/// E4 — Theorem 12: message size vs the `n'·lg k` bound, sweeping `k`.
pub fn thm12_table(samples: usize) -> Table {
    let mut t = Table::new("E4 / Theorem 12: |m_g| in bits vs n'.lg k (n = 5, s = 4, n' = 3)");
    t.row(format!(
        "{:>8} {:>16} {:>16} {:>8} {:>10}",
        "k", "max |m_g| bits", "n'·lg k bound", "ratio", "decodes"
    ));
    for k in [2u32, 8, 32, 128, 512, 2048] {
        let cfg = Thm12Config {
            n_replicas: 5,
            n_objects: 4,
            k,
        };
        let row = sweep(&DvvMvrStore, &cfg, samples, 99);
        t.row(format!(
            "{:>8} {:>16} {:>16.1} {:>8.2} {:>10}",
            k,
            row.max_bits,
            row.bound_bits,
            row.max_bits as f64 / row.bound_bits,
            format!("{}/{}", row.samples, row.samples),
        ));
    }
    t.row(String::new());
    t.row("per store at k = 256 (all decode losslessly — includes the register".into());
    t.row("analogue of §6 and COPS-style dependency compression):".into());
    let stores: Vec<Box<dyn StoreFactory>> = vec![
        Box::new(DvvMvrStore),
        Box::new(haec_stores::CopsStore),
        Box::new(haec_stores::CausalRegisterStore),
    ];
    for factory in stores {
        let cfg = Thm12Config {
            n_replicas: 5,
            n_objects: 4,
            k: 256,
        };
        let row = sweep(factory.as_ref(), &cfg, samples, 17);
        t.row(format!(
            "  {:<18} max |m_g| = {:>5} bits   (bound {:.1})",
            factory.name(),
            row.max_bits,
            row.bound_bits
        ));
    }
    t
}

/// E7 — §6: message growth with the replica count (vector-clock cost).
pub fn growth_table(samples: usize) -> Table {
    let mut t =
        Table::new("E7 / §6: message growth with n (s = 16, k = 64) — O(n·lg k) vector cost");
    t.row(format!(
        "{:>6} {:>6} {:>16} {:>16}",
        "n", "n'", "max |m_g| bits", "n'·lg k bound"
    ));
    for n in [4usize, 6, 8, 12, 16, 24] {
        let cfg = Thm12Config {
            n_replicas: n,
            n_objects: 16,
            k: 64,
        };
        let row = sweep(&DvvMvrStore, &cfg, samples, 5);
        t.row(format!(
            "{:>6} {:>6} {:>16} {:>16.1}",
            n, row.n_prime, row.max_bits, row.bound_bits
        ));
    }
    t
}

/// E6 — §5.3: the K-delayed counterexample.
pub fn sec53_table() -> Table {
    let mut t = Table::new("E6 / §5.3: no invisible reads => stronger-than-OCC is possible");
    let mut b = AbstractExecutionBuilder::new();
    let w = b.push(
        ReplicaId::new(0),
        ObjectId::new(0),
        Op::Write(Value::new(1)),
        ReturnValue::Ok,
    );
    let rd = b.push(
        ReplicaId::new(1),
        ObjectId::new(0),
        Op::Read,
        ReturnValue::values([Value::new(1)]),
    );
    b.vis(w, rd);
    let a = b.build_transitive().expect("valid");
    t.row(format!(
        "{:<16} {:>20} {:>28}",
        "store", "reads invisible?", "complies w/ immediate-vis A"
    ));
    for k in [0u64, 1, 2, 4] {
        let factory = KDelayedStore::new(k);
        let rep = check_with_ops(
            &factory,
            StoreConfig::new(2, 1),
            1,
            300,
            &ops_for(SpecKind::Mvr),
        );
        let complies = construct(&factory, &a).complies();
        t.row(format!(
            "{:<16} {:>20} {:>28}",
            format!("k-delayed(K={k})"),
            if rep.has_visible_reads() { "no" } else { "yes" },
            if complies { "yes" } else { "NO (avoids it)" }
        ));
    }
    t.row("The K>0 stores avoid a causally consistent execution while staying".into());
    t.row("eventually consistent: they satisfy a strictly stronger model — allowed".into());
    t.row("only because their reads are not invisible (Theorem 6's assumption).".into());
    t
}

/// E8 — §4 lemmas across stores and random schedules.
pub fn lemmas_table(seeds: u64) -> Table {
    let mut t = Table::new("E8 / §4: structural lemmas on random executions");
    t.row(format!(
        "{:<16} {:>8} {:>8} {:>14} {:>18}",
        "store", "Prop 1", "Prop 2", "Lemma3/Cor4", "write-propagating"
    ));
    for factory in all_factories() {
        let spec = spec_for(factory.name());
        let mut p1 = true;
        let mut p2 = true;
        let mut l3 = true;
        for seed in 0..seeds {
            let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(3, 2));
            let mut wl = Workload::new(spec, 3, 2, 0.35, KeyDistribution::Uniform);
            let sched = ScheduleConfig {
                steps: 120,
                drop_prob: 0.0,
                quiesce_at_end: false,
                ..ScheduleConfig::default()
            };
            run_schedule(&mut sim, &mut wl, &sched, seed);
            if matches!(spec, SpecKind::Mvr | SpecKind::LwwRegister) {
                p1 &= check_prop1(sim.execution()).is_ok();
                p2 &= check_prop2(sim.execution()).is_ok();
            }
            l3 &= check_quiescent_agreement(&mut sim).is_ok();
        }
        let wp = check_with_ops(
            factory.as_ref(),
            StoreConfig::new(3, 2),
            1,
            400,
            &ops_for(spec),
        );
        let yn = |b: bool| if b { "ok" } else { "FAIL" };
        t.row(format!(
            "{:<16} {:>8} {:>8} {:>14} {:>18}",
            factory.name(),
            yn(p1),
            yn(p2),
            yn(l3),
            yn(wp.is_write_propagating())
        ));
    }
    t.row("Expected failures: k-delayed (Lemma 3 + write-propagation: visible reads),".into());
    t.row("sequenced (op-driven messages; liveness), bounded (convergence).".into());
    t
}

/// E9 — §7: replica state growth with operation count.
pub fn space_table() -> Table {
    let mut t = Table::new("E9 / §7: replica state size (bits) vs operations applied");
    t.row(format!(
        "{:>10} {:>12} {:>12} {:>12}",
        "ops", "dvv-mvr", "orset", "lww"
    ));
    for steps in [25usize, 100, 400, 1600] {
        let mut row = format!("{steps:>10}");
        let stores: Vec<(Box<dyn StoreFactory>, SpecKind)> = vec![
            (Box::new(DvvMvrStore), SpecKind::Mvr),
            (Box::new(OrSetStore), SpecKind::OrSet),
            (Box::new(LwwStore), SpecKind::LwwRegister),
        ];
        for (factory, spec) in stores {
            let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(3, 2));
            let mut wl = Workload::new(spec, 3, 2, 0.2, KeyDistribution::Uniform);
            let sched = ScheduleConfig {
                steps,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            };
            run_schedule(&mut sim, &mut wl, &sched, 11);
            row.push_str(&format!(
                " {:>12}",
                sim.machine(ReplicaId::new(0)).state_bits()
            ));
        }
        t.row(row);
    }
    t
}

/// E9b — full-version space lower bounds by distinguishability.
pub fn space_lower_table() -> Table {
    use haec_theory::space::{mvr_sibling_family, orset_family};
    let mut t = Table::new("E9b / full version: replica-space lower bounds (distinguishability)");
    t.row(format!(
        "{:<12} {:>4} {:>12} {:>12} {:>12} {:>14}",
        "family", "m", "histories", "states", "bound bits", "measured bits"
    ));
    for m in [3usize, 6, 9] {
        let r = mvr_sibling_family(&DvvMvrStore, m);
        t.row(format!(
            "{:<12} {:>4} {:>12} {:>12} {:>12.1} {:>14}",
            "mvr", m, r.histories, r.distinct_states, r.bound_bits, r.max_state_bits
        ));
    }
    for m in [3usize, 6, 9] {
        let r = orset_family(&OrSetStore, m);
        t.row(format!(
            "{:<12} {:>4} {:>12} {:>12} {:>12.1} {:>14}",
            "orset", m, r.histories, r.distinct_states, r.bound_bits, r.max_state_bits
        ));
    }
    t.row("Every subset of deliveries lands in its own replica state (full rank),".into());
    t.row("so any implementation needs ≥ lg(states) bits; measured states comply.".into());
    t.row("No redelivery/reordering is used — the full-version strengthening.".into());
    t
}

/// One store's mean cost metrics from [`cost_rows`] (E12).
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Store name.
    pub store: String,
    /// Mean messages broadcast per run.
    pub sends: f64,
    /// Mean copies delivered per run.
    pub receives: f64,
    /// Mean of the per-run average message size in bits.
    pub avg_message_bits: f64,
    /// Mean network bits spent per client update.
    pub bits_per_update: f64,
    /// Mean total replica state in bits at the end of the run.
    pub final_state_bits: f64,
    /// Mean peak total replica state in bits over the run.
    pub peak_state_bits: f64,
}

impl CostRow {
    /// The row as a JSON object (keys stable, insertion-ordered).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("store".into(), Json::str(self.store.clone())),
            ("sends".into(), Json::Float(self.sends)),
            ("receives".into(), Json::Float(self.receives)),
            (
                "avg_message_bits".into(),
                Json::Float(self.avg_message_bits),
            ),
            ("bits_per_update".into(), Json::Float(self.bits_per_update)),
            (
                "final_state_bits".into(),
                Json::Float(self.final_state_bits),
            ),
            ("peak_state_bits".into(), Json::Float(self.peak_state_bits)),
        ])
    }
}

/// E12 data — per-store mean cost metrics over `seeds` runs of the same
/// workload.
pub fn cost_rows(seeds: u64) -> Vec<CostRow> {
    use haec_sim::obs::{shared, stats::StatsObserver};
    let stores: Vec<(Box<dyn StoreFactory>, SpecKind)> = vec![
        (Box::new(DvvMvrStore), SpecKind::Mvr),
        (Box::new(haec_stores::CopsStore), SpecKind::Mvr),
        (
            Box::new(haec_stores::CausalRegisterStore),
            SpecKind::LwwRegister,
        ),
        (Box::new(OrSetStore), SpecKind::OrSet),
        (Box::new(LwwStore), SpecKind::LwwRegister),
        (Box::new(BoundedStore), SpecKind::Mvr),
    ];
    let mut rows = Vec::new();
    for (factory, spec) in stores {
        let mut acc = (0f64, 0f64, 0f64, 0f64, 0f64, 0f64);
        for seed in 0..seeds {
            let mut sim = Simulator::new(factory.as_ref(), StoreConfig::new(4, 2));
            let stats = shared(StatsObserver::new());
            sim.attach_observer(Box::new(stats.clone()));
            let mut wl = Workload::new(spec, 4, 2, 0.3, KeyDistribution::Uniform);
            let sched = ScheduleConfig {
                steps: 300,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            };
            run_schedule(&mut sim, &mut wl, &sched, seed);
            let m = stats.borrow();
            let final_state_bits = sim.total_state_bits();
            acc.0 += m.sends() as f64;
            acc.1 += m.receives() as f64;
            acc.2 += m.message_bits().mean();
            acc.3 += m.bits_per_update();
            acc.4 += final_state_bits as f64;
            acc.5 += m.peak_state_bits().max(final_state_bits) as f64;
        }
        let n = seeds as f64;
        rows.push(CostRow {
            store: factory.name().to_owned(),
            sends: acc.0 / n,
            receives: acc.1 / n,
            avg_message_bits: acc.2 / n,
            bits_per_update: acc.3 / n,
            final_state_bits: acc.4 / n,
            peak_state_bits: acc.5 / n,
        });
    }
    rows
}

/// [`cost_rows`] rendered as a JSON array (for `experiments --cost --json`).
pub fn cost_rows_json(rows: &[CostRow]) -> Json {
    Json::Arr(rows.iter().map(CostRow::to_json).collect())
}

/// E12 — store cost comparison (messages, bits, state) on one workload.
pub fn cost_table(seeds: u64) -> Table {
    let mut t = Table::new("E12 / store cost comparison (same workload, mean over seeds)");
    t.row(format!(
        "{:<18} {:>8} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "store", "sends", "recvs", "avg msg bits", "bits/update", "state bits", "peak bits"
    ));
    for r in cost_rows(seeds) {
        t.row(format!(
            "{:<18} {:>8.0} {:>10.0} {:>12.1} {:>14.1} {:>12.0} {:>12.0}",
            r.store,
            r.sends,
            r.receives,
            r.avg_message_bits,
            r.bits_per_update,
            r.final_state_bits,
            r.peak_state_bits
        ));
    }
    t.row("COPS-style dependency compression beats per-update vectors; the".into());
    t.row("bounded store is cheapest — and incorrect (E10).".into());
    t
}

/// E10 — the bounded-message ablation.
pub fn ablation_table() -> Table {
    let mut t =
        Table::new("E10 / ablation: capping message size breaks causal+eventual consistency");
    let cfg = Thm12Config {
        n_replicas: 4,
        n_objects: 3,
        k: 4,
    };
    let dvv = roundtrip(&DvvMvrStore, &cfg, &[3, 2]);
    t.row(format!(
        "dvv-mvr:  m_g = {:>5} bits, decode g=(3,2): {:?}",
        dvv.m_g_bits, dvv.decoded
    ));
    let bounded = roundtrip(&BoundedStore, &cfg, &[3, 2]);
    t.row(format!(
        "bounded:  m_g = {:>5} bits, decode g=(3,2): {:?}  <- lossy, as Theorem 12 predicts",
        bounded.m_g_bits, bounded.decoded
    ));
    let mut broken = 0;
    let runs = 10;
    for seed in 0..runs {
        let rep = explore(&BoundedStore, &ExplorationConfig::default(), seed);
        if !(rep.abstract_execution.is_ok() && rep.correct.is_none() && rep.causal.is_none()) {
            broken += 1;
        }
    }
    t.row(format!(
        "bounded store under random schedules: {broken}/{runs} runs violate correctness or causality"
    ));
    t
}

/// E11 — session guarantees across stores (extension beyond the paper).
pub fn sessions_table(seeds: u64) -> Table {
    use haec_core::consistency::sessions;
    let mut t = Table::new("E11 / session guarantees (monotonic writes, writes-follow-reads)");
    t.row(format!(
        "{:<18} {:>16} {:>10}",
        "store", "guarantees held", "runs"
    ));
    let mut rows = Vec::new();
    for factory in all_factories() {
        let spec = spec_for(factory.name());
        let mut held = 0;
        for seed in 0..seeds {
            let config = ExplorationConfig {
                spec,
                schedule: ScheduleConfig {
                    steps: 150,
                    drop_prob: 0.0,
                    quiesce_at_end: false,
                    ..ScheduleConfig::default()
                },
                ..ExplorationConfig::default()
            };
            let rep = explore(factory.as_ref(), &config, seed);
            if let Ok(a) = rep.abstract_execution {
                if sessions::check_all(&a).is_ok() {
                    held += 1;
                }
            }
        }
        t.row(format!("{:<18} {:>16} {:>10}", factory.name(), held, seeds));
        rows.push((factory.name().to_owned(), held));
    }
    for line in sessions_footer(&rows, seeds) {
        t.row(line);
    }
    t
}

/// E11's footer, computed from its `(store, runs that held)` rows: how
/// many stores held both guarantees on all `runs`, and which did not.
fn sessions_footer(rows: &[(String, u64)], runs: u64) -> [String; 2] {
    let lost: Vec<&str> = rows
        .iter()
        .filter(|(_, held)| *held < runs)
        .map(|(name, _)| name.as_str())
        .collect();
    [
        format!(
            "{} of {} stores held both guarantees on every run.",
            rows.len() - lost.len(),
            rows.len()
        ),
        format!(
            "Lost on some schedules: {}.",
            if lost.is_empty() {
                "none".to_owned()
            } else {
                lost.join(", ")
            }
        ),
    ]
}

/// E13 — empirical consistency classification (Theorem 6's question,
/// asked of each store).
pub fn classify_table(seeds: u64) -> Table {
    use haec_sim::classify::classify;
    let mut t = Table::new("E13 / strongest model per store (empirical, over random schedules)");
    t.row(format!("{:<18} {:>16}", "store", "strongest model"));
    for factory in all_factories() {
        let spec = spec_for(factory.name());
        let config = ExplorationConfig {
            spec,
            arbitrated_order: arbitrated_for(factory.name()),
            schedule: ScheduleConfig {
                steps: 150,
                drop_prob: 0.0,
                ..ScheduleConfig::default()
            },
            ..ExplorationConfig::default()
        };
        let grade = classify(factory.as_ref(), &config, 0..seeds);
        t.row(format!(
            "{:<18} {:>16}",
            factory.name(),
            grade.map_or("(not even correct)".to_owned(), |m| m.to_string())
        ));
    }
    t.row("Theorem 6 predicts: no write-propagating MVR store grades above OCC;".into());
    t.row("the MVR stores sit exactly at causal (Def. 18 witnesses rarely arise in".into());
    t.row("random runs). orset/counter/ew-flag grade OCC vacuously (Def. 18 only".into());
    t.row("constrains register reads). causal-register arbitrates by dot, which".into());
    t.row("the execution-order LWW check misjudges (its causality is shown in E8,".into());
    t.row("E11). Hiding/bounded stores fall out of the hierarchy entirely.".into());
    t
}

/// Runs every experiment and renders the results.
pub fn all_experiments() -> Vec<Table> {
    vec![
        fig1_spec_table(),
        figures_table(),
        thm6_table(20),
        thm12_table(6),
        growth_table(3),
        sec53_table(),
        lemmas_table(3),
        space_table(),
        space_lower_table(),
        ablation_table(),
        sessions_table(5),
        cost_table(3),
        classify_table(6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_table_contains_expected_verdicts() {
        let t = fig1_spec_table();
        let s = t.render();
        assert!(s.contains("MVR"));
        assert!(s.contains("{v1,v2}"), "{s}");
        assert!(s.contains("{v7}"), "{s}"); // add wins
    }

    #[test]
    fn figures_table_shows_unexplainable_hiding() {
        let s = figures_table().render();
        assert!(s.contains("UNEXPLAINABLE"));
        assert!(s.contains("explainable"));
    }

    #[test]
    fn thm6_table_shows_perfect_compliance_for_dvv() {
        let t = thm6_table(5);
        let s = t.render();
        let dvv_rows: Vec<&str> = s.lines().filter(|l| l.contains("dvv-mvr")).collect();
        assert_eq!(dvv_rows.len(), 3);
        for row in dvv_rows {
            assert!(row.contains("         5          5"), "{row}");
        }
        let arb_row = s
            .lines()
            .find(|l| l.contains("arbitration-mvr"))
            .expect("row");
        assert!(arb_row.contains("         0"), "{arb_row}");
    }

    #[test]
    fn thm12_table_ratios_at_least_one() {
        let t = thm12_table(2);
        for line in &t.lines[1..] {
            if let Some(ratio) = line.split_whitespace().nth(3) {
                if let Ok(r) = ratio.parse::<f64>() {
                    assert!(r >= 1.0, "{line}");
                }
            }
        }
    }

    #[test]
    fn sec53_table_contrasts_k0_and_k_positive() {
        let s = sec53_table().render();
        assert!(s.contains("k-delayed(K=0)"));
        assert!(s.contains("NO (avoids it)"));
    }

    #[test]
    fn ablation_table_flags_bounded_store() {
        let s = ablation_table().render();
        assert!(s.contains("lossy"));
    }

    #[test]
    fn sessions_footer_names_exactly_the_stores_that_lost_a_guarantee() {
        let t = sessions_table(2);
        let mut rows = Vec::new();
        let mut footer = String::new();
        for line in &t.lines[1..] {
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                [name, held, "2"] => rows.push((name.to_owned(), held.parse::<u64>().unwrap())),
                _ => {
                    footer.push_str(line);
                    footer.push(' ');
                }
            }
        }
        assert_eq!(rows.len(), all_factories().len());
        let (_, lost) = footer
            .split_once("Lost on some schedules: ")
            .expect("footer names the losers");
        let named: Vec<&str> = lost.trim_end().trim_end_matches('.').split(", ").collect();
        let losers: Vec<&str> = rows
            .iter()
            .filter(|(_, held)| *held < 2)
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(!losers.is_empty(), "the bounded store loses them");
        assert_eq!(named, losers, "{footer}");

        let rows = [("a".to_owned(), 3), ("b".to_owned(), 2)];
        assert_eq!(
            sessions_footer(&rows, 3),
            [
                "1 of 2 stores held both guarantees on every run.",
                "Lost on some schedules: b."
            ]
        );
        assert_eq!(
            sessions_footer(&rows[..1], 3)[1],
            "Lost on some schedules: none."
        );
    }

    #[test]
    fn space_table_renders_rows() {
        let t = space_table();
        assert_eq!(t.lines.len(), 5);
    }

    #[test]
    fn cost_rows_json_parses_back() {
        let rows = cost_rows(1);
        assert!(rows.iter().any(|r| r.store == "cops-mvr"));
        for r in &rows {
            assert!(r.peak_state_bits >= r.final_state_bits, "{}", r.store);
        }
        let text = cost_rows_json(&rows).render();
        let v = Json::parse(&text).expect("valid JSON");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr.len(), rows.len());
        assert_eq!(
            arr[0].get("store").and_then(Json::as_str),
            Some(rows[0].store.as_str())
        );
        assert!(arr[0]
            .get("bits_per_update")
            .and_then(Json::as_f64)
            .is_some());
    }

    /// Known answer: FNV-1a of the E12 JSON at two seeds, so the bytes of
    /// the cost comparison are held across refactors of who meters a run.
    #[test]
    fn cost_rows_json_matches_its_pinned_fingerprint() {
        let text = cost_rows_json(&cost_rows(2)).render();
        let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(fnv1a, 0x7f3a8e8442dde249, "E12 JSON changed: {text}");
    }
}
