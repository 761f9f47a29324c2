//! Filter predicates over scenario members, with sound pushdown hooks.
//!
//! A [`ScenarioFilter`] decides membership of a completed member via
//! [`accepts`](ScenarioFilter::accepts). For enumeration pruning it
//! additionally over-approximates *deadness*: [`dead`](ScenarioFilter::dead)
//! may return `true` for a prefix only when **no** extension within the
//! remaining length budget (including the empty extension) can ever be
//! accepted. A sound `dead` lets [`Scenario::iter_to_depth`] skip whole
//! subtrees of the `Seq` accumulation without changing the member set —
//! the pushdown-soundness property test brute-forces this contract.

use super::Pat;

/// A predicate over scenario members. See the module docs for the
/// `accepts`/`dead` contract.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ScenarioFilter {
    /// At least `min` pairs of update operations on the same object from
    /// *different* replicas with no delivery barrier
    /// (`DeliverOldest`/`DeliverNewest`/`Quiesce`) between them — the
    /// shape behind the paper's Theorem 6/12 separations. Monotone:
    /// appending patterns never destroys an existing pair.
    ConcurrentWritePairs {
        /// Minimum number of such pairs.
        min: usize,
    },
    /// At least one partition window opens, and every window heals
    /// before any `Quiesce` runs (no quiescence inside a partition, no
    /// window left open at the end). Not monotone: appending a
    /// `PartitionStart` re-opens a window.
    HealsBeforeQuiesce,
    /// Every replica `0..n_replicas` issues at least `min_ops` client
    /// operations. Monotone.
    ReplicaCoverage {
        /// Cluster size whose replicas must all be covered.
        n_replicas: usize,
        /// Minimum operations per replica.
        min_ops: usize,
    },
    /// Member length is at least the bound. Monotone.
    MinLen(usize),
    /// Member length is at most the bound. Not monotone.
    MaxLen(usize),
    /// At least `min` `DupOldest` patterns. Monotone.
    MinDuplicates(usize),
}

impl ScenarioFilter {
    /// Whether the completed member belongs to the family.
    pub fn accepts(&self, member: &[Pat]) -> bool {
        match self {
            ScenarioFilter::ConcurrentWritePairs { min } => concurrent_write_pairs(member) >= *min,
            ScenarioFilter::HealsBeforeQuiesce => {
                let s = PartitionScan::of(member);
                s.seen_start && !s.quiesce_while_open && !s.open
            }
            ScenarioFilter::ReplicaCoverage {
                n_replicas,
                min_ops,
            } => (0..*n_replicas).all(|r| ops_by(member, r) >= *min_ops),
            ScenarioFilter::MinLen(n) => member.len() >= *n,
            ScenarioFilter::MaxLen(n) => member.len() <= *n,
            ScenarioFilter::MinDuplicates(n) => count_dups(member) >= *n,
        }
    }

    /// Whether `prefix` can never be extended into an accepted member
    /// using at most `remaining` further patterns (the empty extension
    /// included). Must only over-approximate liveness: `false` is always
    /// sound, `true` requires proof.
    pub fn dead(&self, prefix: &[Pat], remaining: usize) -> bool {
        match self {
            ScenarioFilter::ConcurrentWritePairs { min } => {
                // Existing pairs survive any extension; each appended
                // pattern can pair with every update already present and
                // with every other appended pattern.
                let have = concurrent_write_pairs(prefix);
                let updates = prefix
                    .iter()
                    .filter(|p| matches!(p, Pat::Op(_, _, op) if op.is_update()))
                    .count();
                let bound = remaining * updates + remaining.saturating_sub(1) * remaining / 2;
                have + bound < *min
            }
            ScenarioFilter::HealsBeforeQuiesce => {
                let s = PartitionScan::of(prefix);
                if s.quiesce_while_open {
                    return true;
                }
                // Still needed: a start+heal if no window was opened, a
                // heal if one is open.
                let needed = if !s.seen_start {
                    2
                } else if s.open {
                    1
                } else {
                    0
                };
                needed > remaining
            }
            ScenarioFilter::ReplicaCoverage {
                n_replicas,
                min_ops,
            } => {
                let deficit: usize = (0..*n_replicas)
                    .map(|r| min_ops.saturating_sub(ops_by(prefix, r)))
                    .sum();
                deficit > remaining
            }
            ScenarioFilter::MinLen(n) => prefix.len() + remaining < *n,
            ScenarioFilter::MaxLen(n) => prefix.len() > *n,
            ScenarioFilter::MinDuplicates(n) => count_dups(prefix) + remaining < *n,
        }
    }

    /// Whether the predicate is monotone under appending patterns: once
    /// accepted, every extension stays accepted. Monotone filters prune
    /// hardest (a satisfied prefix never needs re-checking); the
    /// enumeration itself only relies on [`dead`](Self::dead).
    pub fn monotone(&self) -> bool {
        match self {
            ScenarioFilter::ConcurrentWritePairs { .. }
            | ScenarioFilter::ReplicaCoverage { .. }
            | ScenarioFilter::MinLen(_)
            | ScenarioFilter::MinDuplicates(_) => true,
            ScenarioFilter::HealsBeforeQuiesce | ScenarioFilter::MaxLen(_) => false,
        }
    }
}

/// Pairs `(i, j)` of update ops on the same object at different replicas
/// with no delivery barrier strictly between them.
fn concurrent_write_pairs(member: &[Pat]) -> usize {
    let mut count = 0;
    for i in 0..member.len() {
        let Pat::Op(ri, xi, opi) = &member[i] else {
            continue;
        };
        if !opi.is_update() {
            continue;
        }
        for j in i + 1..member.len() {
            let Pat::Op(rj, xj, opj) = &member[j] else {
                continue;
            };
            if !opj.is_update() || ri == rj || xi != xj {
                continue;
            }
            let barrier = member[i + 1..j]
                .iter()
                .any(|p| matches!(p, Pat::DeliverOldest | Pat::DeliverNewest | Pat::Quiesce));
            if !barrier {
                count += 1;
            }
        }
    }
    count
}

/// Client operations issued by replica index `r`.
fn ops_by(member: &[Pat], r: usize) -> usize {
    member
        .iter()
        .filter(|p| matches!(p, Pat::Op(replica, _, _) if replica.index() == r))
        .count()
}

fn count_dups(member: &[Pat]) -> usize {
    member
        .iter()
        .filter(|p| matches!(p, Pat::DupOldest))
        .count()
}

/// Partition-window bookkeeping shared by `accepts` and `dead`. Mirrors
/// the runner: `PartitionStart` while a window is open replaces it (the
/// window stays open), `Quiesce` heals before quiescing — which is
/// exactly why `HealsBeforeQuiesce` must reject it.
struct PartitionScan {
    seen_start: bool,
    open: bool,
    quiesce_while_open: bool,
}

impl PartitionScan {
    fn of(member: &[Pat]) -> PartitionScan {
        let mut s = PartitionScan {
            seen_start: false,
            open: false,
            quiesce_while_open: false,
        };
        for p in member {
            match p {
                Pat::PartitionStart(_) => {
                    s.seen_start = true;
                    s.open = true;
                }
                Pat::PartitionHeal => s.open = false,
                Pat::Quiesce if s.open => s.quiesce_while_open = true,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::{ObjectId, Op, ReplicaId, Value};

    fn w(r: u32, x: u32) -> Pat {
        Pat::Op(
            ReplicaId::new(r),
            ObjectId::new(x),
            Op::Write(Value::new(0)),
        )
    }

    fn read(r: u32) -> Pat {
        Pat::Op(ReplicaId::new(r), ObjectId::new(0), Op::Read)
    }

    #[test]
    fn concurrent_pairs_counted_between_barriers() {
        let cwp = ScenarioFilter::ConcurrentWritePairs { min: 1 };
        assert!(cwp.accepts(&[w(0, 0), w(1, 0)]));
        assert!(!cwp.accepts(&[w(0, 0), w(0, 0)]), "same replica");
        assert!(!cwp.accepts(&[w(0, 0), w(1, 1)]), "different objects");
        assert!(!cwp.accepts(&[w(0, 0), Pat::Quiesce, w(1, 0)]), "barrier");
        assert!(!cwp.accepts(&[w(0, 0), read(1)]), "reads are not writes");
        assert!(
            cwp.accepts(&[w(0, 0), Pat::Flush(ReplicaId::new(0)), w(1, 0)]),
            "flush is not a barrier"
        );
        let two = ScenarioFilter::ConcurrentWritePairs { min: 2 };
        assert!(
            two.accepts(&[w(0, 0), w(1, 0), w(2, 0)]),
            "three writes, three pairs"
        );
    }

    #[test]
    fn heals_before_quiesce_state_machine() {
        let f = ScenarioFilter::HealsBeforeQuiesce;
        let start = Pat::PartitionStart(vec![2]);
        assert!(f.accepts(&[start.clone(), Pat::PartitionHeal, Pat::Quiesce]));
        assert!(!f.accepts(&[Pat::Quiesce]), "no window at all");
        assert!(
            !f.accepts(&[start.clone(), Pat::Quiesce]),
            "quiesce inside window"
        );
        assert!(!f.accepts(std::slice::from_ref(&start)), "window left open");
        assert!(
            !f.accepts(&[start.clone(), Pat::PartitionHeal, start.clone()]),
            "reopened window left open"
        );
        // Quiesce-while-open is permanently dead; an open window needs
        // one more pattern, a missing window needs two.
        assert!(f.dead(&[start.clone(), Pat::Quiesce], 100));
        assert!(f.dead(std::slice::from_ref(&start), 0));
        assert!(!f.dead(&[start], 1));
        assert!(f.dead(&[], 1));
        assert!(!f.dead(&[], 2));
    }

    #[test]
    fn replica_coverage_counts_per_replica() {
        let f = ScenarioFilter::ReplicaCoverage {
            n_replicas: 3,
            min_ops: 1,
        };
        assert!(f.accepts(&[w(0, 0), read(1), w(2, 0)]));
        assert!(!f.accepts(&[w(0, 0), w(1, 0)]));
        assert!(f.dead(&[w(0, 0)], 1), "two replicas uncovered, one slot");
        assert!(!f.dead(&[w(0, 0)], 2));
    }

    #[test]
    fn length_and_dup_filters() {
        assert!(ScenarioFilter::MinLen(2).dead(&[w(0, 0)], 0));
        assert!(!ScenarioFilter::MinLen(2).dead(&[w(0, 0)], 1));
        assert!(ScenarioFilter::MaxLen(1).dead(&[w(0, 0), w(1, 0)], 0));
        assert!(ScenarioFilter::MinDuplicates(2).dead(&[Pat::DupOldest], 0));
        assert!(!ScenarioFilter::MinDuplicates(2).dead(&[Pat::DupOldest], 1));
        assert!(ScenarioFilter::MinDuplicates(1).accepts(&[Pat::DupOldest]));
    }

    #[test]
    fn monotonicity_classification() {
        assert!(ScenarioFilter::ConcurrentWritePairs { min: 1 }.monotone());
        assert!(ScenarioFilter::MinLen(1).monotone());
        assert!(ScenarioFilter::MinDuplicates(1).monotone());
        assert!(ScenarioFilter::ReplicaCoverage {
            n_replicas: 2,
            min_ops: 1
        }
        .monotone());
        assert!(!ScenarioFilter::HealsBeforeQuiesce.monotone());
        assert!(!ScenarioFilter::MaxLen(1).monotone());
    }

    /// Brute-force the `dead` soundness contract: whenever `dead(prefix,
    /// remaining)` holds, no extension of length ≤ remaining over a small
    /// pattern alphabet is accepted.
    #[test]
    fn dead_is_a_sound_overapproximation() {
        let alphabet = [
            w(0, 0),
            w(1, 0),
            read(0),
            Pat::DupOldest,
            Pat::PartitionStart(vec![2]),
            Pat::PartitionHeal,
            Pat::Quiesce,
        ];
        let filters = [
            ScenarioFilter::ConcurrentWritePairs { min: 1 },
            ScenarioFilter::HealsBeforeQuiesce,
            ScenarioFilter::ReplicaCoverage {
                n_replicas: 2,
                min_ops: 1,
            },
            ScenarioFilter::MinLen(3),
            ScenarioFilter::MaxLen(2),
            ScenarioFilter::MinDuplicates(1),
        ];
        // All prefixes of length ≤ 2 over the alphabet.
        let mut prefixes: Vec<Vec<Pat>> = vec![Vec::new()];
        for a in &alphabet {
            prefixes.push(vec![a.clone()]);
            for b in &alphabet {
                prefixes.push(vec![a.clone(), b.clone()]);
            }
        }
        // All extensions of length ≤ 2.
        let mut extensions: Vec<Vec<Pat>> = vec![Vec::new()];
        for a in &alphabet {
            extensions.push(vec![a.clone()]);
            for b in &alphabet {
                extensions.push(vec![a.clone(), b.clone()]);
            }
        }
        for f in &filters {
            for prefix in &prefixes {
                for remaining in 0..=2usize {
                    if !f.dead(prefix, remaining) {
                        continue;
                    }
                    for ext in extensions.iter().filter(|e| e.len() <= remaining) {
                        let mut m = prefix.clone();
                        m.extend(ext.iter().cloned());
                        assert!(
                            !f.accepts(&m),
                            "{f:?}: dead({prefix:?}, {remaining}) but accepts({m:?})"
                        );
                    }
                }
            }
        }
    }

    /// Brute-force the monotonicity claims on the same alphabet.
    #[test]
    fn monotone_filters_stay_accepted_under_extension() {
        let alphabet = [w(0, 0), w(1, 0), read(0), Pat::DupOldest, Pat::Quiesce];
        let filters = [
            ScenarioFilter::ConcurrentWritePairs { min: 1 },
            ScenarioFilter::ReplicaCoverage {
                n_replicas: 2,
                min_ops: 1,
            },
            ScenarioFilter::MinLen(2),
            ScenarioFilter::MinDuplicates(1),
        ];
        let mut members: Vec<Vec<Pat>> = vec![Vec::new()];
        for a in &alphabet {
            members.push(vec![a.clone()]);
            for b in &alphabet {
                members.push(vec![a.clone(), b.clone()]);
            }
        }
        for f in &filters {
            assert!(f.monotone());
            for m in &members {
                if !f.accepts(m) {
                    continue;
                }
                for a in &alphabet {
                    let mut ext = m.clone();
                    ext.push(a.clone());
                    assert!(f.accepts(&ext), "{f:?} lost {m:?} + {a:?}");
                }
            }
        }
    }
}
