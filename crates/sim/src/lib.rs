//! # haec-sim
//!
//! Deterministic simulation harness for haec stores: a replica-cluster
//! [`Simulator`] that records faithful executions, seeded random
//! [`scheduler`]s with drop/duplicate/reorder/partition fault injection,
//! [`workload`] generators, the operational eventual-consistency checks of
//! Lemma 3 / Corollary 4 ([`convergence`]), and an end-to-end
//! [`explorer`] pipeline that runs a store and checks correctness, causal
//! consistency and OCC on the witness abstract execution.
//!
//! Everything is deterministic in `(seed, config)`: an execution is exactly
//! replayable.
//!
//! ## Example
//!
//! ```
//! use haec_sim::{Simulator, explorer::{explore, ExplorationConfig}};
//! use haec_stores::DvvMvrStore;
//!
//! let report = explore(&DvvMvrStore, &ExplorationConfig::default(), 42);
//! assert!(report.is_causally_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod convergence;
pub mod exhaustive;
pub mod explorer;
pub mod liveness;
pub mod obs;
pub mod scenario;
pub mod scheduler;
pub mod service;
mod simulator;
pub mod trace;
pub mod workload;

pub use classify::{classify, grade, HIERARCHY};
pub use convergence::check_quiescent_agreement;
pub use exhaustive::{
    explore_all, explore_all_observed, explore_all_parallel, shrink, Action, ExhaustiveConfig,
    ExhaustiveReport,
};
pub use explorer::{explore, explore_with, ConsistencyReport, ExplorationConfig};
pub use liveness::{fair_run, fair_run_with, FairRunConfig, LivenessReport};
pub use obs::report::{ReportConfig, RunReport};
pub use obs::{NullObserver, Observer, Observers};
pub use scenario::{
    explore_family, run_member, FamilyConfig, FamilyReport, Pat, Scenario, ScenarioFilter,
};
pub use scheduler::{run_schedule, Partition, ScheduleConfig};
pub use service::{
    reports_json, run_service, run_service_sweep, ServicePartition, ServiceReport,
    ServiceRunConfig, ShardReport, StreamVerdicts,
};
pub use simulator::{FaultKind, FaultRecord, InFlight, SimSnapshot, Simulator, StepUndo};
pub use workload::{ClientOp, KeyDistribution, OpenLoop, Workload};
