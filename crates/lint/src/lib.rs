//! # haec-lint
//!
//! A hand-rolled, zero-external-dependency determinism/hermeticity linter
//! for the `haec` workspace.
//!
//! The framework's scientific claims rest on deterministic replay: the
//! Theorem 6 revealing-execution construction and the Theorem 12 encoding
//! argument are validated by re-running executions and comparing
//! byte-identical traces per seed (`tests/determinism.rs`). This crate
//! enforces that discipline *statically*, the way a sanitizer would in a
//! training or inference stack: a small Rust tokenizer (comments, strings
//! and raw strings handled correctly), a `use`-path resolver good enough
//! for `std` paths, and a lint driver that walks `src/`, `crates/*/src`
//! and `crates/*/benches` with per-crate policy.
//!
//! Every lint in the catalog ([`Lint`]) is a ban on a site — the place a
//! nondeterminism source stands is the finding, whatever does or does not
//! call it: `nondeterministic-collection`, `wall-clock`,
//! `ambient-entropy`, `stray-print`, `relaxed-atomic`, `unstable-sort`,
//! `address-observation`; plus the meta-lints `malformed-allow` and
//! `dead-allow`. Suppressions are written in code as
//! `// haec-lint: allow(<lint>): <reason>` and cover the comment's line
//! and the next; a suppression that suppresses nothing is itself a
//! finding. See DESIGN.md §"Determinism contract & lint catalog".
//!
//! ```
//! use haec_lint::{lint_source, Lint};
//!
//! let diags = lint_source(
//!     "crates/core/src/example.rs",
//!     "use std::collections::HashMap;",
//! );
//! assert_eq!(diags[0].lint, Lint::NondeterministicCollection);
//!
//! // No sink in sight, and nothing calls it: the address is the finding.
//! let diags = lint_source(
//!     "crates/sim/src/example.rs",
//!     "fn key(node: &[u8]) -> usize { node.as_ptr() as usize }",
//! );
//! assert_eq!(diags[0].lint, Lint::AddressObservation);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod driver;
pub mod lints;
pub mod resolve;
pub mod tokenizer;

pub use diag::{Diagnostic, LintReport};
pub use driver::{lint_source, lint_source_with_policy, lint_workspace};
pub use lints::{crate_key, wall_clock_exempt, Lint, Policy, ALL_LINTS};
