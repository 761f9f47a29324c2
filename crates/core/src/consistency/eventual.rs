//! Eventual consistency (Definitions 13/14), checked on finite prefixes.
//!
//! Eventual consistency is a liveness property of *infinite* abstract
//! executions: for every event `e` there are only finitely many same-object
//! events that do not see `e`. No finite execution can violate it outright,
//! so this module provides the two standard finite proxies:
//!
//! * [`check_prefix`] — a *windowed* check: every same-object event occurring
//!   at least `window` positions after `e` must see `e`. An execution
//!   produced by a fair scheduler that keeps failing this check for a fixed
//!   window as it grows is, in the limit, not eventually consistent.
//! * [`staleness`] — for each event, how many later same-object events do
//!   not see it (the "debt" a liveness violation would keep growing).
//!
//! The operational route the paper itself takes for write-propagating
//! stores — quiesce and compare replicas (Lemma 3 / Corollary 4) — lives in
//! `haec-sim::convergence`.

use crate::abstract_execution::AbstractExecution;
use std::fmt;

/// A same-object event beyond the window that still does not see `event`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventualViolation {
    /// The event that should have become visible.
    pub event: usize,
    /// The later same-object event that does not see it.
    pub blind_event: usize,
    /// The window used.
    pub window: usize,
}

impl fmt::Display for EventualViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {} still invisible to same-object event {} (window {})",
            self.event, self.blind_event, self.window
        )
    }
}

impl std::error::Error for EventualViolation {}

/// Windowed prefix check of Definition 13: every event `e'` on `obj(e)`
/// occurring at position `≥ index(e) + window` must have `e vis e'`.
///
/// # Errors
///
/// Returns the first blind event found.
pub fn check_prefix(a: &AbstractExecution, window: usize) -> Result<(), EventualViolation> {
    for e in 0..a.len() {
        let obj = a.event(e).obj;
        for e2 in e.saturating_add(window).max(e + 1)..a.len() {
            if a.event(e2).obj == obj && !a.sees(e, e2) {
                return Err(EventualViolation {
                    event: e,
                    blind_event: e2,
                    window,
                });
            }
        }
    }
    Ok(())
}

/// For every event, the number of *later* same-object events that do not
/// see it. In an eventually consistent infinite execution each entry stays
/// bounded; a monotonically growing entry across prefixes signals a
/// violation.
pub fn staleness(a: &AbstractExecution) -> Vec<usize> {
    (0..a.len())
        .map(|e| {
            let obj = a.event(e).obj;
            ((e + 1)..a.len())
                .filter(|&e2| a.event(e2).obj == obj && !a.sees(e, e2))
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_execution::AbstractExecutionBuilder;
    use haec_model::{ObjectId, Op, ReplicaId, ReturnValue, Value};

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn v(i: u64) -> Value {
        Value::new(i)
    }

    #[test]
    fn fully_visible_execution_passes_any_window() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd);
        let a = b.build().unwrap();
        assert!(check_prefix(&a, 0).is_ok());
        assert!(check_prefix(&a, 1).is_ok());
        assert_eq!(staleness(&a), vec![0, 0]);
    }

    #[test]
    fn permanently_hidden_write_fails_window() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        // Five later reads at another replica, none seeing w.
        for _ in 0..5 {
            b.push(r(1), x(0), Op::Read, ReturnValue::empty());
        }
        let a = b.build().unwrap();
        let viol = check_prefix(&a, 3).unwrap_err();
        assert_eq!(viol.event, w);
        assert!(viol.blind_event >= w + 3);
        assert_eq!(staleness(&a)[w], 5);
    }

    #[test]
    fn window_tolerates_recent_invisibility() {
        let mut b = AbstractExecutionBuilder::new();
        let w = b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        let rd1 = b.push(r(1), x(0), Op::Read, ReturnValue::empty()); // blind but recent
        let rd2 = b.push(r(1), x(0), Op::Read, ReturnValue::values([v(1)]));
        b.vis(w, rd2);
        let a = b.build().unwrap();
        assert!(check_prefix(&a, 2).is_ok());
        assert!(check_prefix(&a, 1).is_err());
        let _ = rd1;
    }

    #[test]
    fn a_window_that_saturates_accepts_a_hidden_write() {
        // `index(e) + window` saturates: no later event is that far back.
        // (At event 1 it used to wrap to 0, which put every later event in
        // the window.)
        let mut b = AbstractExecutionBuilder::new();
        b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        b.push(r(0), x(0), Op::Write(v(2)), ReturnValue::Ok);
        for _ in 0..3 {
            b.push(r(1), x(0), Op::Read, ReturnValue::empty());
        }
        let a = b.build().unwrap();
        assert!(check_prefix(&a, 1).is_err());
        assert!(check_prefix(&a, usize::MAX).is_ok());
    }

    #[test]
    fn other_object_events_ignored() {
        let mut b = AbstractExecutionBuilder::new();
        b.push(r(0), x(0), Op::Write(v(1)), ReturnValue::Ok);
        for _ in 0..5 {
            b.push(r(1), x(1), Op::Read, ReturnValue::empty());
        }
        let a = b.build().unwrap();
        assert!(check_prefix(&a, 1).is_ok());
        assert_eq!(staleness(&a)[0], 0);
    }

    #[test]
    fn violation_display() {
        let viol = EventualViolation {
            event: 0,
            blind_event: 4,
            window: 3,
        };
        assert!(viol.to_string().contains("invisible"));
    }
}
