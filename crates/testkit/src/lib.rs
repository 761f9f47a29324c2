//! # haec-testkit
//!
//! The hermetic test kit shared by every haec crate: a deterministic
//! seeded PRNG, a minimal property-testing runner with shrinking, and a
//! wall-clock micro-bench harness. No external dependencies — the whole
//! workspace builds and tests offline, and every randomized schedule or
//! generated execution is replayable from a printed `u64` seed.
//!
//! * [`rng`] — SplitMix64-seeded xoshiro256++ with the
//!   `gen_range`/`gen_bool`/`shuffle`/`choose` surface the simulator and
//!   theory generators need. Deterministic across platforms and releases:
//!   a seed printed by a failing run replays the identical sequence
//!   forever.
//! * [`prop`] — a generator trait, integer/vec/tuple/bool generators,
//!   greedy shrinking, and failure-seed reporting
//!   (`HAEC_PROP_SEED=<seed> HAEC_PROP_CASES=1` replays a reported
//!   counterexample exactly).
//! * [`mod@bench`] — warmup + N timed batches, median/p95/min/mean summary,
//!   optional JSON output (`--json`), for `harness = false` bench
//!   binaries driven by plain `cargo bench`.
//!
//! ## Example
//!
//! ```
//! use haec_testkit::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let roll = rng.gen_range(0u32..6);
//! assert!(roll < 6);
//! // Same seed, same sequence — always.
//! assert_eq!(Rng::seed_from_u64(42).gen_range(0u32..6), roll);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::Bench;
pub use prop::{check, check_with, Config, Gen};
pub use rng::Rng;
