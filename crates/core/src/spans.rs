//! Lightweight span timers around the expensive checker phases.
//!
//! The checkers (`check_correct`, `causal::check`, `occ::check`), witness
//! extraction and the brute-force [`search`](crate::search) dominate the
//! cost of an exploration run. This module lets callers measure that cost
//! breakdown without changing any checker signature: each phase wraps its
//! body in [`timed`], which is a no-op (one thread-local flag read, no
//! clock access) unless a collector is active on the current thread.
//!
//! ```
//! use haec_core::spans;
//!
//! let (value, records) = spans::collect(|| {
//!     spans::timed("phase.demo", || 21 * 2)
//! });
//! assert_eq!(value, 42);
//! assert_eq!(records[0].name, "phase.demo");
//! assert_eq!(records[0].calls, 1);
//! ```
//!
//! Wall-clock durations are inherently nondeterministic; the *call counts*
//! are deterministic in `(seed, config)` and are what regression tests
//! compare. Collection is per-thread and re-entrant collectors simply nest:
//! the innermost active collector receives the records.

#![expect(
    clippy::disallowed_types,
    reason = "the span timer is about measuring wall time; DESIGN.md §7"
)]

use std::cell::RefCell;
use std::time::Instant;

/// Aggregated cost of one named phase.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Phase name (e.g. `"check.causal"`).
    pub name: &'static str,
    /// Number of times the phase ran while the collector was active.
    pub calls: u64,
    /// Total wall-clock time across all calls, in nanoseconds.
    pub total_ns: u128,
}

thread_local! {
    static COLLECTOR: RefCell<Vec<Vec<SpanRecord>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f`, attributing its wall-clock time to the span `name` in the
/// innermost active collector. Without an active collector this reads one
/// thread-local flag and runs `f` directly — cheap enough to leave in hot
/// checker paths permanently.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let active = COLLECTOR.with(|c| !c.borrow().is_empty());
    if !active {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos();
    COLLECTOR.with(|c| {
        let mut stack = c.borrow_mut();
        if let Some(records) = stack.last_mut() {
            if let Some(r) = records.iter_mut().find(|r| r.name == name) {
                r.calls += 1;
                r.total_ns += elapsed;
            } else {
                records.push(SpanRecord {
                    name,
                    calls: 1,
                    total_ns: elapsed,
                });
            }
        }
    });
    out
}

/// Runs `f` with a span collector active on this thread and returns its
/// result together with the recorded spans, sorted by name.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    COLLECTOR.with(|c| c.borrow_mut().push(Vec::new()));
    let out = f();
    let mut records = COLLECTOR.with(|c| c.borrow_mut().pop().unwrap_or_default());
    records.sort_by_key(|r| r.name);
    (out, records)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the collector's own tests read the records it returns"
)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_is_transparent() {
        assert_eq!(timed("x", || 7), 7);
    }

    #[test]
    fn collects_calls_and_durations() {
        let ((), records) = collect(|| {
            for _ in 0..3 {
                timed("a", || std::hint::black_box(1));
            }
            timed("b", || std::hint::black_box(2));
        });
        assert_eq!(records.len(), 2);
        let a = records.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.calls, 3);
        let b = records.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(b.calls, 1);
    }

    #[test]
    fn nested_collectors_do_not_leak() {
        let ((), outer) = collect(|| {
            timed("outer", || ());
            let (_, inner) = collect(|| timed("inner", || ()));
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "inner");
        });
        // The inner collector swallowed "inner"; the outer kept "outer".
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].name, "outer");
    }

    #[test]
    fn records_sorted_by_name() {
        let ((), records) = collect(|| {
            timed("zeta", || ());
            timed("alpha", || ());
        });
        assert_eq!(records[0].name, "alpha");
        assert_eq!(records[1].name, "zeta");
    }
}
