//! The lint catalog and the per-crate policy table.
//!
//! Every lint guards one leg of the determinism contract (DESIGN.md
//! §"Determinism contract & lint catalog"): a run of the framework must be
//! a pure function of `(store, workload, config, seed)`, because Theorem 6
//! and Theorem 12 are checked by replaying executions and comparing
//! byte-identical traces. The catalog is deny-by-default in the
//! deterministic crates and selectively relaxed in the tooling crates
//! whose *job* is timing, environment access or terminal output.

/// One lint in the catalog.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lint {
    /// Raw `std::collections::{HashMap, HashSet}` import or use. Their
    /// iteration order is seeded from ambient entropy; any fold or scan
    /// over them is run-to-run nondeterministic. Use
    /// `std::collections::{BTreeMap, BTreeSet}`.
    NondeterministicCollection,
    /// `std::time::{Instant, SystemTime}` outside the sanctioned timing
    /// modules (`testkit::bench`, `core::spans`), and `spans::collect`,
    /// which hands the timer's wall-clock readings back to its caller.
    /// Wall-clock values must never influence simulated behaviour.
    WallClock,
    /// `std::env`, `std::thread` or `RandomState`: process-ambient state
    /// that varies between runs and hosts.
    AmbientEntropy,
    /// `println!`/`eprintln!`/`dbg!` in library code. Output must flow
    /// through `obs` observers so runs stay quiet and machine-checkable.
    StrayPrint,
    /// An `Ordering::Relaxed` atomic access, under any alias. An
    /// unsynchronized value may differ between runs and thread counts, and
    /// nothing in a policed crate may depend on one; use `SeqCst`.
    RelaxedAtomic,
    /// `.sort_unstable_by(..)` / `.sort_unstable_by_key(..)`: elements the
    /// comparator calls equal land in an order that is an artifact of the
    /// input permutation. The keyless `.sort_unstable()` over a total
    /// order is fine; otherwise use the stable `sort_by{,_key}`.
    UnstableSort,
    /// A pointer or address observation (`as *const _`, `as *mut _`,
    /// `.as_ptr()`, `.as_mut_ptr()`, `ptr::{eq, hash, addr_of,
    /// addr_of_mut, from_ref}`): addresses vary between runs even when
    /// the abstract state is identical.
    AddressObservation,
    /// A `haec-lint:` control comment that does not parse, names an
    /// unknown lint, or omits the justification. Always denied: a typo in
    /// a suppression must not silently disable it.
    MalformedAllow,
    /// Meta-lint: a well-formed `haec-lint: allow(..)` suppression that no
    /// longer suppresses any finding. Dead allows rot the suppression
    /// inventory; remove them (or the lint they name from their list).
    DeadAllow,
}

/// All catalog lints, in diagnostic-sort order.
pub const ALL_LINTS: [Lint; 9] = [
    Lint::NondeterministicCollection,
    Lint::WallClock,
    Lint::AmbientEntropy,
    Lint::StrayPrint,
    Lint::RelaxedAtomic,
    Lint::UnstableSort,
    Lint::AddressObservation,
    Lint::MalformedAllow,
    Lint::DeadAllow,
];

impl Lint {
    /// The kebab-case name used in diagnostics and allow comments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::NondeterministicCollection => "nondeterministic-collection",
            Lint::WallClock => "wall-clock",
            Lint::AmbientEntropy => "ambient-entropy",
            Lint::StrayPrint => "stray-print",
            Lint::RelaxedAtomic => "relaxed-atomic",
            Lint::UnstableSort => "unstable-sort",
            Lint::AddressObservation => "address-observation",
            Lint::MalformedAllow => "malformed-allow",
            Lint::DeadAllow => "dead-allow",
        }
    }

    /// Parses an allow-comment lint name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of lints denied for one crate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Policy {
    denied: &'static [Lint],
}

const DENY_ALL: &[Lint] = &[
    Lint::NondeterministicCollection,
    Lint::WallClock,
    Lint::AmbientEntropy,
    Lint::StrayPrint,
    Lint::RelaxedAtomic,
    Lint::UnstableSort,
    Lint::AddressObservation,
];

/// Timing crates: terminal output and env-driven configuration are their
/// interface, but collections and the wall clock stay policed (the clock
/// only inside the sanctioned module, see [`wall_clock_exempt`]), and so
/// do racy reads, tie orders and addresses: the harness may *measure*
/// time, nothing else about a run may vary.
const DENY_TESTKIT: &[Lint] = &[
    Lint::NondeterministicCollection,
    Lint::WallClock,
    Lint::RelaxedAtomic,
    Lint::UnstableSort,
    Lint::AddressObservation,
];

/// CLI crates (`bench`, `lint` itself): printing results, reading args
/// and serializing measured wall time into a report is the point; hash
/// collections, racy reads, tie orders and addresses are still banned —
/// the self-hosting gate holds the lint crate to its own contract.
const DENY_CLI: &[Lint] = &[
    Lint::NondeterministicCollection,
    Lint::RelaxedAtomic,
    Lint::UnstableSort,
    Lint::AddressObservation,
];

impl Policy {
    /// The policy for a crate, keyed by its directory name under
    /// `crates/` (the root facade crate is keyed `"haec"`). Unknown crates
    /// get the full deny set — a new crate must opt *out* via this table,
    /// never silently in.
    #[must_use]
    pub fn for_crate(crate_key: &str) -> Policy {
        let denied = match crate_key {
            "testkit" => DENY_TESTKIT,
            "bench" | "lint" => DENY_CLI,
            // model, stores, sim, core, theory, haec — and anything new.
            _ => DENY_ALL,
        };
        Policy { denied }
    }

    /// A policy denying every catalog lint (what fixtures lint under).
    #[must_use]
    pub fn deny_all() -> Policy {
        Policy { denied: DENY_ALL }
    }

    /// Is `lint` denied under this policy? The meta-lints
    /// [`Lint::MalformedAllow`] and [`Lint::DeadAllow`] are denied
    /// everywhere, unconditionally: suppression hygiene has no
    /// crate-local carve-outs.
    #[must_use]
    pub fn denies(&self, lint: Lint) -> bool {
        lint == Lint::MalformedAllow || lint == Lint::DeadAllow || self.denied.contains(&lint)
    }
}

/// The crate key for a workspace-relative path: `crates/<name>/…` maps to
/// `<name>`, the root `src/…` tree to `"haec"`.
#[must_use]
pub fn crate_key(rel_path: &str) -> &str {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(rest)
    } else if rel_path.starts_with("src/") {
        "haec"
    } else {
        rel_path.split('/').next().unwrap_or(rel_path)
    }
}

/// Files sanctioned to read the wall clock: the micro-bench harness and
/// the span timer are *about* measuring wall time.
#[must_use]
pub fn wall_clock_exempt(rel_path: &str) -> bool {
    matches!(
        rel_path,
        "crates/core/src/spans.rs" | "crates/testkit/src/bench.rs"
    )
}

/// The one file sanctioned to use `std::thread`: the parallel explorer
/// module, home of the index-placed `par_map` every fan-out in the
/// workspace goes through (explorer worker pool, family sweep, service
/// sweep). Its determinism comes from structure, not timing — results are
/// placed by index, the explorer's tree partition is a pure function of
/// the config with results merged in canonical subtree order (pinned by
/// `crates/sim/tests/explore_differential.rs`), and the service sweep
/// runs share-nothing whole configs (pinned by
/// `crates/sim/tests/determinism.rs` across thread counts). Everywhere
/// else `std::thread` stays an ambient-entropy lint: scheduling order is
/// exactly the kind of run-to-run variance the contract bans. Thread
/// *identity* (`std::thread::current`, `ThreadId`) fires here too: the
/// module needs `std::thread::scope` and nothing that tells workers apart.
#[must_use]
pub fn thread_exempt(rel_path: &str) -> bool {
    rel_path == "crates/sim/src/exhaustive/parallel.rs"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for l in ALL_LINTS {
            assert_eq!(Lint::from_name(l.name()), Some(l));
        }
        assert_eq!(Lint::from_name("no-such-lint"), None);
    }

    #[test]
    fn deterministic_crates_deny_everything() {
        for key in ["model", "stores", "sim", "core", "theory", "haec"] {
            let p = Policy::for_crate(key);
            for l in ALL_LINTS {
                assert!(p.denies(l), "{key} must deny {l}");
            }
        }
    }

    #[test]
    fn unknown_crates_default_to_deny() {
        assert!(Policy::for_crate("brand-new").denies(Lint::StrayPrint));
    }

    #[test]
    fn cli_crates_may_print_but_not_hash() {
        for key in ["bench", "lint"] {
            let p = Policy::for_crate(key);
            assert!(!p.denies(Lint::StrayPrint));
            assert!(!p.denies(Lint::AmbientEntropy));
            assert!(p.denies(Lint::NondeterministicCollection));
            assert!(p.denies(Lint::MalformedAllow));
        }
    }

    #[test]
    fn testkit_polices_the_clock_outside_bench() {
        let p = Policy::for_crate("testkit");
        assert!(p.denies(Lint::WallClock));
        assert!(!p.denies(Lint::AmbientEntropy));
        assert!(wall_clock_exempt("crates/testkit/src/bench.rs"));
        assert!(wall_clock_exempt("crates/core/src/spans.rs"));
        assert!(!wall_clock_exempt("crates/testkit/src/prop.rs"));
    }

    #[test]
    fn streaming_checker_modules_get_no_exemptions() {
        // The online checkers are hot-path code inside the determinism
        // boundary: full deny policy, no clock or thread carve-outs. Lag
        // there is counted in logical events, never wall time.
        for path in [
            "crates/core/src/consistency/stream.rs",
            "crates/sim/src/obs/stream.rs",
        ] {
            let p = Policy::for_crate(crate_key(path));
            for l in ALL_LINTS {
                assert!(p.denies(l), "{path} must deny {l}");
            }
            assert!(!wall_clock_exempt(path), "{path} must not read the clock");
            assert!(!thread_exempt(path), "{path} must not spawn threads");
        }
        // The stream bench is CLI-side: it may time, but not hash.
        let bench = Policy::for_crate(crate_key("crates/bench/benches/stream.rs"));
        assert!(!bench.denies(Lint::WallClock));
        assert!(bench.denies(Lint::NondeterministicCollection));
    }

    #[test]
    fn thread_exemption_is_scoped_to_the_worker_pool_module() {
        assert!(thread_exempt("crates/sim/src/exhaustive/parallel.rs"));
        assert!(!thread_exempt("crates/sim/src/service.rs"));
        assert!(!thread_exempt("crates/sim/src/exhaustive/mod.rs"));
        assert!(!thread_exempt("crates/sim/src/simulator.rs"));
        assert!(!thread_exempt("crates/core/src/spans.rs"));
        assert!(!thread_exempt("fixtures/thread_worker_pool_clean.rs"));
    }

    #[test]
    fn source_bans_have_no_crate_carve_outs() {
        for key in [
            "model", "stores", "sim", "core", "theory", "haec", "testkit", "bench", "lint",
        ] {
            let p = Policy::for_crate(key);
            for l in [
                Lint::RelaxedAtomic,
                Lint::UnstableSort,
                Lint::AddressObservation,
            ] {
                assert!(p.denies(l), "{key} must deny {l}");
            }
        }
        // CLI crates serialize measured time by design.
        for key in ["bench", "lint"] {
            assert!(!Policy::for_crate(key).denies(Lint::WallClock));
        }
    }

    #[test]
    fn dead_allow_is_denied_unconditionally() {
        for key in ["model", "testkit", "bench", "lint", "brand-new"] {
            assert!(Policy::for_crate(key).denies(Lint::DeadAllow), "{key}");
        }
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/core/src/witness.rs"), "core");
        assert_eq!(crate_key("src/lib.rs"), "haec");
        assert_eq!(crate_key("fixtures/x.rs"), "fixtures");
    }
}
