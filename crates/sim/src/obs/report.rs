//! Aggregated run reports with a stable JSON rendering.
//!
//! [`RunReport::collect`] drives one store through one seeded schedule with
//! the full observer battery attached, runs the consistency checkers under
//! a [span collector](haec_core::spans), and folds everything into a
//! single value that renders as a human summary ([`fmt::Display`]) or as
//! one line of JSON ([`RunReport::to_json_string`]).
//!
//! ## JSON stability
//!
//! The JSON layout is versioned via the top-level `schema_version` field
//! (currently `1`). Within a schema version, keys, their order, and their
//! meaning are stable; new keys may be appended. Every field except the
//! `"total_ns"` span timings is deterministic in `(store, config, seed)` —
//! timings are wall-clock and vary run to run, which is why
//! [`RunReport::to_json_normalized`] exists: it zeroes the `total_ns`
//! values so two reports from the same seed compare byte-identical.

use crate::explorer::{report_on, ExplorationConfig};
use crate::obs::hist::Histogram;
use crate::obs::json::Json;
use crate::obs::lag::LagObserver;
use crate::obs::log::EventLog;
use crate::obs::stats::StatsObserver;
use crate::obs::stream::{StreamObserver, StreamSnapshot};
use crate::scheduler::run_schedule;
use crate::simulator::Simulator;
use crate::workload::Workload;
use haec_core::spans::{self, SpanRecord};
use haec_core::stream::StreamConfig;
use haec_model::{StoreConfig, StoreFactory};
use std::fmt;

/// The `schema_version` emitted in report JSON.
pub const SCHEMA_VERSION: i64 = 1;

/// Parameters for [`RunReport::collect`].
#[derive(Clone, Debug)]
pub struct ReportConfig {
    /// The exploration parameters: cluster size, workload, schedule.
    pub exploration: ExplorationConfig,
    /// Retention capacity of the structured event log.
    pub log_capacity: usize,
    /// Eventual-consistency window of the streaming checker.
    pub stream_window: usize,
    /// Bounded-window GC fallback for the streaming checker (`None` =
    /// exact stability-driven retirement).
    pub stream_gc_window: Option<usize>,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            exploration: ExplorationConfig::default(),
            log_capacity: 64,
            stream_window: 32,
            stream_gc_window: None,
        }
    }
}

/// Everything observed during one schedule run, plus checker verdicts and
/// span timings.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Store name.
    pub store: String,
    /// Seed of the schedule.
    pub seed: u64,
    /// The run's cost meter: event counters, message bits, peak state.
    pub stats: StatsObserver,
    /// Replica state size (bits) summed over replicas at the end.
    pub final_state_bits: usize,
    /// Per-update visibility lag histogram.
    pub visibility_lag: Histogram,
    /// Per-read staleness histogram.
    pub read_staleness: Histogram,
    /// `(update, remote replica)` pairs never observed during the run.
    pub pending_observations: u64,
    /// Whether the witness abstract execution could be assembled.
    pub witness_ok: bool,
    /// Correctness verdict: `None` = passed, `Some(msg)` = violation.
    pub correct: Option<String>,
    /// Causal-consistency verdict.
    pub causal: Option<String>,
    /// OCC verdict.
    pub occ: Option<String>,
    /// Max events an update stayed invisible to a same-object event.
    pub max_staleness: usize,
    /// Full per-update staleness distribution (aggregated
    /// `eventual::staleness`).
    pub staleness: Histogram,
    /// Streaming-checker state: online verdicts, frontier size, retirement
    /// and memory high-water marks.
    pub stream: StreamSnapshot,
    /// Checker span timings (call counts are deterministic; `total_ns` is
    /// wall-clock and is not).
    pub spans: Vec<SpanRecord>,
    /// Rendered tail of the structured event log.
    pub log_tail: Vec<String>,
    /// Total events the log observed (including evicted ones).
    pub log_total: u64,
    /// Log records evicted by the drop-oldest ring policy.
    pub log_dropped: u64,
}

impl RunReport {
    /// Runs `factory` under `config.exploration` with seed `seed`, the full
    /// observer battery attached and the checkers span-timed.
    pub fn collect(factory: &dyn StoreFactory, config: &ReportConfig, seed: u64) -> RunReport {
        let ec = &config.exploration;
        let store_config = StoreConfig::new(ec.n_replicas, ec.n_objects);
        let mut sim = Simulator::new(factory, store_config);
        let stats = super::shared(StatsObserver::new());
        let lag = super::shared(LagObserver::new(ec.n_replicas));
        let log = super::shared(EventLog::new(config.log_capacity));
        let stream_config = StreamConfig {
            n_replicas: ec.n_replicas,
            window: config.stream_window,
            gc_window: config.stream_gc_window,
        };
        let stream = super::shared(
            StreamObserver::new(stream_config).expect("ReportConfig stream parameters invalid"),
        );
        sim.attach_observer(Box::new(stats.clone()));
        sim.attach_observer(Box::new(lag.clone()));
        sim.attach_observer(Box::new(log.clone()));
        sim.attach_observer(Box::new(stream.clone()));
        let mut workload =
            Workload::new(ec.spec, ec.n_replicas, ec.n_objects, ec.read_ratio, ec.keys);
        // One span collector over both the schedule (streaming-checker
        // ingestion spans fire from observer hooks as the run proceeds)
        // and the batch checkers, so the report's `spans` section shows
        // online and batch costs side by side.
        // haec-lint: allow(wall-clock): span total_ns is the report's one sanctioned nondeterministic field; to_json_normalized zeroes it and is the byte-identity gate
        let (consistency, spans) = spans::collect(|| {
            run_schedule(&mut sim, &mut workload, &ec.schedule, seed);
            report_on(&sim, ec, seed)
        });
        let stats = stats.borrow().clone();
        let lag = lag.borrow();
        let log = log.borrow();
        let stream = stream.borrow().snapshot();
        RunReport {
            store: sim.store_name().to_owned(),
            seed,
            stats,
            final_state_bits: sim.total_state_bits(),
            visibility_lag: lag.visibility_lag().clone(),
            read_staleness: lag.read_staleness().clone(),
            pending_observations: lag.pending_observations(),
            witness_ok: consistency.abstract_execution.is_ok(),
            correct: consistency.correct,
            causal: consistency.causal,
            occ: consistency.occ,
            max_staleness: consistency.max_staleness,
            staleness: consistency.staleness,
            stream,
            spans,
            log_tail: log.records().map(|r| r.to_string()).collect(),
            log_total: log.total_seen(),
            log_dropped: log.dropped(),
        }
    }

    /// Largest summed replica state (bits) over the run: the meter's peak
    /// over the samples, or the final size where that is larger.
    fn peak_state_bits(&self) -> usize {
        self.stats.peak_state_bits().max(self.final_state_bits)
    }

    /// The report as a JSON tree. `zero_ns` replaces the nondeterministic
    /// wall-clock span timings with 0.
    fn json_tree(&self, zero_ns: bool) -> Json {
        let verdict = |v: &Option<String>| match v {
            None => Json::str("ok"),
            Some(msg) => Json::str(msg.clone()),
        };
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Int(i128::from(SCHEMA_VERSION)),
            ),
            ("store".into(), Json::str(self.store.clone())),
            ("seed".into(), Json::uint(self.seed)),
            (
                "events".into(),
                Json::Obj(vec![
                    ("do".into(), Json::uint(self.stats.do_events())),
                    ("updates".into(), Json::uint(self.stats.updates())),
                    ("reads".into(), Json::uint(self.stats.reads())),
                    ("sends".into(), Json::uint(self.stats.sends())),
                    ("receives".into(), Json::uint(self.stats.receives())),
                    ("drops".into(), Json::uint(self.stats.drops())),
                    ("duplicates".into(), Json::uint(self.stats.duplicates())),
                    (
                        "partition_changes".into(),
                        Json::uint(self.stats.partition_changes()),
                    ),
                    (
                        "quiesce_rounds".into(),
                        Json::uint(self.stats.quiesce_rounds()),
                    ),
                ]),
            ),
            (
                "messages".into(),
                Json::Obj(vec![
                    (
                        "total_bits".into(),
                        Json::Int(self.stats.message_bits().sum() as i128),
                    ),
                    (
                        "max_bits".into(),
                        Json::uint(self.stats.message_bits().max().unwrap_or(0)),
                    ),
                    (
                        "bits_per_update".into(),
                        Json::Float(self.stats.bits_per_update()),
                    ),
                    ("size_hist".into(), hist_json(self.stats.message_bits())),
                ]),
            ),
            (
                "delivery_latency".into(),
                hist_json(self.stats.delivery_latency()),
            ),
            (
                "visibility_lag".into(),
                Json::Obj(vec![
                    ("hist".into(), hist_json(&self.visibility_lag)),
                    ("pending".into(), Json::uint(self.pending_observations)),
                ]),
            ),
            ("read_staleness".into(), hist_json(&self.read_staleness)),
            (
                "state".into(),
                Json::Obj(vec![
                    (
                        "final_bits".into(),
                        Json::Int(self.final_state_bits as i128),
                    ),
                    (
                        "peak_bits".into(),
                        Json::Int(self.peak_state_bits() as i128),
                    ),
                ]),
            ),
            (
                "checks".into(),
                Json::Obj(vec![
                    (
                        "witness".into(),
                        Json::str(if self.witness_ok { "ok" } else { "failed" }),
                    ),
                    ("correct".into(), verdict(&self.correct)),
                    ("causal".into(), verdict(&self.causal)),
                    ("occ".into(), verdict(&self.occ)),
                    (
                        "max_staleness".into(),
                        Json::Int(self.max_staleness as i128),
                    ),
                    ("staleness_hist".into(), hist_json(&self.staleness)),
                ]),
            ),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(s.name)),
                                ("calls".into(), Json::uint(s.calls)),
                                (
                                    "total_ns".into(),
                                    Json::Int(if zero_ns { 0 } else { s.total_ns as i128 }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "log".into(),
                Json::Obj(vec![
                    ("total".into(), Json::uint(self.log_total)),
                    ("dropped".into(), Json::uint(self.log_dropped)),
                    (
                        "tail".into(),
                        Json::Arr(self.log_tail.iter().map(Json::str).collect()),
                    ),
                ]),
            ),
            (
                "search".into(),
                Json::Obj(vec![
                    ("nodes".into(), Json::uint(self.stats.search_nodes())),
                    (
                        "max_frontier".into(),
                        Json::Int(self.stats.max_frontier() as i128),
                    ),
                    ("shrink_steps".into(), Json::uint(self.stats.shrink_steps())),
                    ("dedup_hits".into(), Json::uint(self.stats.dedup_hits())),
                    ("dedup_misses".into(), Json::uint(self.stats.dedup_misses())),
                    (
                        "dedup_hit_rate".into(),
                        Json::Float(self.stats.dedup_hit_rate()),
                    ),
                    (
                        "families".into(),
                        Json::Obj(
                            self.stats
                                .families()
                                .iter()
                                .map(|(name, tally)| {
                                    (
                                        name.clone(),
                                        Json::Obj(vec![
                                            ("members".into(), Json::uint(tally.members)),
                                            ("failures".into(), Json::uint(tally.failures)),
                                            (
                                                "pattern_total".into(),
                                                Json::uint(tally.pattern_total),
                                            ),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "stream".into(),
                Json::Obj(vec![
                    ("events".into(), Json::Int(self.stream.stats.events as i128)),
                    ("live".into(), Json::Int(self.stream.stats.live as i128)),
                    (
                        "pending".into(),
                        Json::Int(self.stream.stats.pending as i128),
                    ),
                    (
                        "retired".into(),
                        Json::Int(self.stream.stats.retired as i128),
                    ),
                    (
                        "forced_retired".into(),
                        Json::Int(self.stream.stats.forced_retired as i128),
                    ),
                    (
                        "peak_live".into(),
                        Json::Int(self.stream.stats.peak_live as i128),
                    ),
                    ("bytes".into(), Json::Int(self.stream.stats.bytes as i128)),
                    (
                        "peak_bytes".into(),
                        Json::Int(self.stream.stats.peak_bytes as i128),
                    ),
                    ("causal".into(), verdict(&self.stream.causal)),
                    ("eventual".into(), verdict(&self.stream.eventual)),
                    ("sessions".into(), verdict(&self.stream.sessions)),
                    (
                        "error".into(),
                        match &self.stream.error {
                            None => Json::Null,
                            Some(e) => Json::str(e.clone()),
                        },
                    ),
                    ("quiesces".into(), Json::uint(self.stream.quiesces)),
                    (
                        "family_members".into(),
                        Json::uint(self.stream.family_members),
                    ),
                ]),
            ),
        ])
    }

    /// The report as a JSON tree (including wall-clock span timings).
    pub fn to_json(&self) -> Json {
        self.json_tree(false)
    }

    /// Compact one-line JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Compact one-line JSON with span `total_ns` fields zeroed: fully
    /// deterministic in `(store, config, seed)`, so equal seeds render
    /// byte-identically.
    pub fn to_json_normalized(&self) -> String {
        self.json_tree(true).render()
    }
}

fn hist_json(h: &Histogram) -> Json {
    let minmax = |v: Option<u64>| v.map_or(Json::Null, Json::uint);
    Json::Obj(vec![
        ("count".into(), Json::uint(h.count())),
        ("min".into(), minmax(h.min())),
        ("max".into(), minmax(h.max())),
        ("mean".into(), Json::Float(h.mean())),
        (
            "buckets".into(),
            Json::Arr(
                h.buckets()
                    .map(|(lo, hi, c)| {
                        Json::Arr(vec![Json::uint(lo), Json::uint(hi), Json::uint(c)])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = |v: &Option<String>| v.clone().unwrap_or_else(|| "ok".into());
        writeln!(f, "{} (seed {})", self.store, self.seed)?;
        writeln!(
            f,
            "  events:     {} do ({} updates, {} reads), {} sends, {} receives",
            self.stats.do_events(),
            self.stats.updates(),
            self.stats.reads(),
            self.stats.sends(),
            self.stats.receives()
        )?;
        writeln!(
            f,
            "  faults:     {} drops, {} duplicates, {} partition changes",
            self.stats.drops(),
            self.stats.duplicates(),
            self.stats.partition_changes()
        )?;
        writeln!(
            f,
            "  messages:   {} total bits, {:.1} bits/update, sizes {}",
            self.stats.message_bits().sum(),
            self.stats.bits_per_update(),
            self.stats.message_bits()
        )?;
        writeln!(f, "  latency:    {}", self.stats.delivery_latency())?;
        writeln!(
            f,
            "  vis lag:    {} ({} pending)",
            self.visibility_lag, self.pending_observations
        )?;
        writeln!(f, "  staleness:  {}", self.read_staleness)?;
        writeln!(
            f,
            "  state bits: {} final, {} peak",
            self.final_state_bits,
            self.peak_state_bits()
        )?;
        writeln!(
            f,
            "  checks:     witness {}, correct {}, causal {}, occ {}, max staleness {}",
            if self.witness_ok { "ok" } else { "FAILED" },
            verdict(&self.correct),
            verdict(&self.causal),
            verdict(&self.occ),
            self.max_staleness
        )?;
        writeln!(
            f,
            "  stream:     {} events, {} live ({} pending), {} retired (+{} forced), \
             peak {} events / {} bytes, causal {}, eventual {}, sessions {}",
            self.stream.stats.events,
            self.stream.stats.live,
            self.stream.stats.pending,
            self.stream.stats.retired,
            self.stream.stats.forced_retired,
            self.stream.stats.peak_live,
            self.stream.stats.peak_bytes,
            verdict(&self.stream.causal),
            verdict(&self.stream.eventual),
            verdict(&self.stream.sessions)
        )?;
        write!(f, "  spans:     ")?;
        if self.spans.is_empty() {
            write!(f, " (none)")?;
        }
        for s in &self.spans {
            write!(f, " {}×{} {}µs", s.name, s.calls, s.total_ns / 1_000)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_stores::{CopsStore, DvvMvrStore};

    #[test]
    fn collect_produces_consistent_counts() {
        let rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        assert_eq!(rep.store, "dvv-mvr");
        assert_eq!(rep.stats.message_bits().count(), rep.stats.sends());
        assert!(rep.peak_state_bits() >= rep.final_state_bits);
        assert!(rep.witness_ok);
        assert!(rep.correct.is_none() && rep.causal.is_none());
        assert!(!rep.spans.is_empty(), "checkers must be span-timed");
        assert!(rep.spans.iter().any(|s| s.name == "check.causal"));
        assert!(rep.log_total > 0);
    }

    #[test]
    fn json_is_parseable_and_stable() {
        let rep = RunReport::collect(&CopsStore, &ReportConfig::default(), 42);
        let text = rep.to_json_string();
        let v = Json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("schema_version").and_then(Json::as_int), Some(1));
        assert_eq!(v.get("store").and_then(Json::as_str), Some("cops-mvr"));
        assert!(v.get("events").unwrap().get("do").is_some());
        assert!(v.get("visibility_lag").unwrap().get("hist").is_some());
        // Same seed → byte-identical normalized reports.
        let again = RunReport::collect(&CopsStore, &ReportConfig::default(), 42);
        assert_eq!(rep.to_json_normalized(), again.to_json_normalized());
    }

    #[test]
    fn search_section_known_answer() {
        use crate::exhaustive::{explore_all_observed, ExhaustiveConfig};
        use crate::obs::stats::StatsObserver;
        use haec_model::Op;

        // A tiny exploration with a hand-checkable shape: 2 replicas, 1
        // object, ops {write, read}, depth 2, dedup on. The root has 4
        // children; reads are invisible, so the two read-children collapse
        // onto the initial state and the whole level-1 read subtree is
        // memoised once and credited once.
        let config = ExhaustiveConfig {
            store_config: haec_model::StoreConfig::new(2, 1),
            ops: vec![Op::Write(haec_model::Value::new(0)), Op::Read],
            depth: 2,
            max_schedules: usize::MAX,
            dedup: true,
            por: false,
            symmetry: false,
        };
        let mut stats = StatsObserver::new();
        let report = explore_all_observed(&DvvMvrStore, &config, &mut |_| true, &mut stats);
        assert_eq!(report.schedules, 23);
        assert_eq!(report.dedup_hits, 4);
        assert_eq!(report.dedup_misses, 14);
        // Every visited node is the root or a cache miss.
        assert_eq!(stats.search_nodes(), 15);
        assert_eq!(stats.max_frontier(), 6);

        // The same numbers flow through the JSON "search" section.
        let mut rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        rep.stats = stats;
        let v = Json::parse(&rep.to_json_string()).expect("valid JSON");
        let search = v.get("search").expect("search section");
        assert_eq!(search.get("nodes").and_then(Json::as_int), Some(15));
        assert_eq!(search.get("max_frontier").and_then(Json::as_int), Some(6));
        assert_eq!(search.get("dedup_hits").and_then(Json::as_int), Some(4));
        assert_eq!(search.get("dedup_misses").and_then(Json::as_int), Some(14));
        let rate = search
            .get("dedup_hit_rate")
            .and_then(Json::as_f64)
            .expect("hit rate");
        assert!((rate - 4.0 / 18.0).abs() < 1e-9, "hit rate {rate}");
    }

    #[test]
    fn families_flow_through_the_search_section() {
        use crate::obs::stats::StatsObserver;
        use crate::scenario::{concurrent_write_pair, explore_family, FamilyConfig};
        use haec_core::SpecKind;

        let mut stats = StatsObserver::new();
        let family = concurrent_write_pair(SpecKind::Mvr, 3);
        explore_family(
            &DvvMvrStore,
            &FamilyConfig::default(),
            1,
            "cwp",
            &family,
            &|_| true,
            &mut stats,
        );
        let mut rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        rep.stats = stats;
        let v = Json::parse(&rep.to_json_string()).expect("valid JSON");
        let fam = v
            .get("search")
            .and_then(|s| s.get("families"))
            .and_then(|f| f.get("cwp"))
            .expect("cwp family in search section");
        assert_eq!(fam.get("members").and_then(Json::as_int), Some(6));
        assert_eq!(fam.get("failures").and_then(Json::as_int), Some(0));
    }

    #[test]
    fn display_mentions_key_sections() {
        let rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 3);
        let text = rep.to_string();
        assert!(text.contains("dvv-mvr"));
        assert!(text.contains("staleness"));
        assert!(text.contains("stream"));
        assert!(text.contains("spans"));
    }

    #[test]
    fn stream_section_reports_online_checker_state() {
        let rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        // The streaming checker saw exactly the do events the stats
        // observer counted, and its causal verdict agrees with the batch
        // checker run on the witness execution.
        assert_eq!(rep.stream.stats.events as u64, rep.stats.do_events());
        assert_eq!(rep.stream.causal.is_some(), rep.causal.is_some());
        assert!(rep.stream.error.is_none(), "{:?}", rep.stream.error);
        assert!(
            rep.stream.stats.live + rep.stream.stats.retired + rep.stream.stats.forced_retired
                == rep.stream.stats.events,
            "{:?}",
            rep.stream.stats
        );
        assert!(rep.stream.quiesces > 0, "default schedule quiesces at end");
        // Online ingestion was span-timed alongside the batch checkers.
        assert!(rep.spans.iter().any(|s| s.name == "stream.ingest"));
        assert!(rep.spans.iter().any(|s| s.name == "check.causal"));
        // The same numbers flow through the JSON `stream` section.
        let v = Json::parse(&rep.to_json_string()).expect("valid JSON");
        let stream = v.get("stream").expect("stream section");
        assert_eq!(
            stream.get("events").and_then(Json::as_int),
            Some(rep.stream.stats.events as i128)
        );
        assert_eq!(stream.get("causal").and_then(Json::as_str), Some("ok"));
        assert!(stream.get("peak_bytes").and_then(Json::as_int).unwrap() > 0);
    }

    #[test]
    fn log_dropped_count_matches_eviction() {
        let config = ReportConfig {
            log_capacity: 8,
            ..ReportConfig::default()
        };
        let rep = RunReport::collect(&DvvMvrStore, &config, 7);
        assert_eq!(rep.log_tail.len(), 8);
        assert_eq!(rep.log_dropped, rep.log_total - 8);
        let v = Json::parse(&rep.to_json_string()).expect("valid JSON");
        let log = v.get("log").expect("log section");
        assert_eq!(
            log.get("dropped").and_then(Json::as_int),
            Some(rep.log_dropped as i128)
        );
    }

    #[test]
    fn staleness_histogram_aggregates_into_checks_section() {
        let rep = RunReport::collect(&DvvMvrStore, &ReportConfig::default(), 7);
        assert_eq!(
            rep.staleness.max().unwrap_or(0) as usize,
            rep.max_staleness,
            "histogram max and max_staleness must agree"
        );
        assert!(rep.staleness.count() > 0, "updates must produce samples");
        let v = Json::parse(&rep.to_json_string()).expect("valid JSON");
        let hist = v
            .get("checks")
            .and_then(|c| c.get("staleness_hist"))
            .expect("staleness_hist in checks");
        assert_eq!(
            hist.get("count").and_then(Json::as_int),
            Some(rep.staleness.count() as i128)
        );
    }
}
