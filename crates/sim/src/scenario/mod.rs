//! Compositional scenario DSL: enumerable, samplable, shrinkable
//! execution families.
//!
//! The random [`scheduler`](crate::scheduler) and the
//! [`exhaustive`](crate::exhaustive) engine both consume *one* schedule
//! shape each: uniform-random interleavings and the full schedule tree.
//! The adversarial schedules behind the paper's separations — a
//! concurrent-write pair, a partition window that heals before
//! quiescence, a duplication storm — sit in neither sweet spot: random
//! schedules hit them only by luck, and the full tree buries them in
//! noise. This module makes such *families* of executions first-class
//! values, in the style of ruler's `enumo` workload algebra (`Workload`
//! = atoms + `Plug` + `Filter`), transplanted from term enumeration to
//! schedule enumeration.
//!
//! A [`Scenario`] is a combinator tree over schedule [`Pat`]terns:
//!
//! - [`Scenario::Atom`] — one concrete pattern (an op, a flush, a
//!   delivery, a fault, a partition edge, a quiescence drive);
//! - [`Scenario::Seq`] — concatenation of sub-scenarios;
//! - [`Scenario::Choice`] — ordered alternative;
//! - [`Scenario::Plug`] — splice every member of one scenario into each
//!   occurrence of a named [`Pat::Hole`] of another (enumo's `plug`);
//! - [`Scenario::Filter`] — keep only members satisfying a
//!   [`ScenarioFilter`] predicate.
//!
//! Three consumers share one member representation (`Vec<Pat>`):
//!
//! 1. [`Scenario::iter_to_depth`] enumerates every member up to a length
//!    bound, in a **deterministic canonical order** (first occurrence in
//!    the structural enumeration order), for the thread-invariant
//!    family sweep [`explore_family`].
//! 2. [`Scenario::sample`] draws one member with the seeded testkit RNG;
//!    [`run_member`] drives it and
//!    [`report_on`](crate::explorer::report_on) classifies it as the
//!    random explorer would. Every sample is a member of the enumerated
//!    set for the same depth.
//! 3. [`prop::FamilyGen`] implements `haec_testkit::prop::Gen`: shrinking
//!    walks the family lattice (canonical members that are strict
//!    subsequences of the failing member), so every shrink step stays
//!    inside the family and `HAEC_PROP_SEED` replay is preserved.
//!
//! ## Filter pushdown
//!
//! Monotone filters ([`ScenarioFilter::monotone`]) admit *enumeration
//! pruning*: while a `Seq` accumulates a member left-to-right, any
//! in-scope filter may declare a hole-free prefix
//! [`dead`](ScenarioFilter::dead) — no extension within the remaining
//! length budget can ever satisfy it — and the whole subtree is skipped.
//! Pruning preserves the member set *and* the canonical order exactly
//! (pinned by tests). Unlike enumo's term setting, pushing a filter
//! through `Plug` is unsound here — a spliced fragment that fails a
//! filter can still be part of a passing whole — so `Plug` is a pushdown
//! barrier.

mod family;
mod filter;
mod fixtures;
pub mod prop;
mod run;

pub use family::{explore_family, FamilyConfig, FamilyConfigError, FamilyReport};
pub use filter::ScenarioFilter;
pub use fixtures::{concurrent_write_pair, dup_storm, heal_before_quiesce, update_op};
pub use run::run_member;

use haec_model::{ObjectId, Op, ReplicaId};
use haec_testkit::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Rejection-sampling budget for [`Scenario::sample`] (per `Filter` node
/// and for the top-level length/hole check).
const SAMPLE_RETRIES: usize = 64;

/// One step pattern of a scenario member. A member (`Vec<Pat>`) is run
/// against a fresh simulator by [`run_member`], which resolves the
/// oldest/newest indirections against the live in-flight list and
/// uniquifies written values exactly like the exhaustive engine.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Pat {
    /// A named splice point, filled by [`Scenario::Plug`]. Members fed to
    /// [`run_member`] must be hole-free.
    Hole(String),
    /// A client operation at a replica. Written/added values are
    /// placeholders: [`run_member`] uniquifies them by step position.
    Op(ReplicaId, ObjectId, Op),
    /// Broadcast a replica's pending update (if any).
    Flush(ReplicaId),
    /// Deliver the oldest in-flight copy not blocked by the active
    /// partition (no-op if none).
    DeliverOldest,
    /// Deliver the newest such copy (no-op if none).
    DeliverNewest,
    /// Drop the oldest in-flight copy (no-op if none).
    DropOldest,
    /// Duplicate the oldest in-flight copy (no-op if none).
    DupOldest,
    /// Open a partition isolating the given replica indices from the
    /// rest. An already-open partition is healed first.
    PartitionStart(Vec<u32>),
    /// Heal the active partition (no-op if none).
    PartitionHeal,
    /// Heal any active partition, then drive flush-and-deliver rounds to
    /// quiescence.
    Quiesce,
}

impl Pat {
    /// Whether this pattern is an unplugged [`Pat::Hole`].
    pub fn is_hole(&self) -> bool {
        matches!(self, Pat::Hole(_))
    }
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pat::Hole(name) => write!(f, "?{name}"),
            Pat::Op(r, x, op) => write!(f, "do({r},{x},{op})"),
            Pat::Flush(r) => write!(f, "flush({r})"),
            Pat::DeliverOldest => write!(f, "deliver-oldest"),
            Pat::DeliverNewest => write!(f, "deliver-newest"),
            Pat::DropOldest => write!(f, "drop-oldest"),
            Pat::DupOldest => write!(f, "dup-oldest"),
            Pat::PartitionStart(group) => {
                write!(f, "partition(")?;
                for (i, g) in group.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Pat::PartitionHeal => write!(f, "heal"),
            Pat::Quiesce => write!(f, "quiesce"),
        }
    }
}

/// Renders a member as a single canonical line (used by the
/// known-answer enumeration pins).
pub fn member_string(member: &[Pat]) -> String {
    let mut out = String::from("[");
    for (i, p) in member.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&p.to_string());
    }
    out.push(']');
    out
}

/// A compositional family of schedule members. See the [module
/// docs](self) for the algebra and its consumers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// One concrete pattern.
    Atom(Pat),
    /// Concatenation: every member is the concatenation of one member
    /// from each part, in order.
    Seq(Vec<Scenario>),
    /// Ordered alternative: the members of each option in turn.
    Choice(Vec<Scenario>),
    /// `Plug(outer, name, inner)`: for each member of `outer`, splice
    /// each member of `inner` into **every** occurrence of
    /// `Pat::Hole(name)` (uniform substitution). Outer members without
    /// the hole pass through unchanged.
    Plug(Box<Scenario>, String, Box<Scenario>),
    /// Keep only members accepted by the predicate.
    Filter(ScenarioFilter, Box<Scenario>),
}

impl Scenario {
    /// A single-pattern scenario.
    pub fn atom(pat: Pat) -> Scenario {
        Scenario::Atom(pat)
    }

    /// A named hole, to be filled by [`Scenario::plug`].
    pub fn hole(name: &str) -> Scenario {
        Scenario::Atom(Pat::Hole(name.to_owned()))
    }

    /// The scenario whose only member is the empty schedule.
    pub fn empty() -> Scenario {
        Scenario::Seq(Vec::new())
    }

    /// Concatenation of `parts`.
    pub fn seq(parts: Vec<Scenario>) -> Scenario {
        Scenario::Seq(parts)
    }

    /// Ordered alternative over `options`.
    pub fn choice(options: Vec<Scenario>) -> Scenario {
        Scenario::Choice(options)
    }

    /// Splices `inner`'s members into each `Pat::Hole(name)` of
    /// `outer`'s members.
    pub fn plug(outer: Scenario, name: &str, inner: Scenario) -> Scenario {
        Scenario::Plug(Box::new(outer), name.to_owned(), Box::new(inner))
    }

    /// Restricts to members accepted by `filter`.
    pub fn filter(filter: ScenarioFilter, inner: Scenario) -> Scenario {
        Scenario::Filter(filter, Box::new(inner))
    }

    /// The filters wrapping the root of this scenario, outermost first.
    /// Every member of [`iter_to_depth`](Self::iter_to_depth) satisfies
    /// all of them — the self-consistency property test pins this.
    pub fn top_filters(&self) -> Vec<&ScenarioFilter> {
        let mut out = Vec::new();
        let mut cur = self;
        while let Scenario::Filter(f, inner) = cur {
            out.push(f);
            cur = inner;
        }
        out
    }

    /// Enumerates every member with at most `depth` patterns, in
    /// canonical order: the structural enumeration order (`Seq`
    /// lexicographic by part, `Choice` by option position, `Plug`
    /// outer-major/inner-minor), keeping the first occurrence of each
    /// distinct member. The result is a pure function of `(self, depth)`
    /// — byte-identical across runs and thread counts.
    pub fn iter_to_depth(&self, depth: usize) -> Vec<Vec<Pat>> {
        let mut seen: BTreeSet<Vec<Pat>> = BTreeSet::new();
        let mut out = Vec::new();
        for m in self.enumerate(depth, &[]) {
            if seen.insert(m.clone()) {
                out.push(m);
            }
        }
        out
    }

    /// Number of distinct members at `depth` (the E16 table rows).
    pub fn count_to_depth(&self, depth: usize) -> usize {
        self.iter_to_depth(depth).len()
    }

    /// Structural enumeration with filter pushdown. `live` carries the
    /// filters whose candidate members are exactly the members produced
    /// at this node (propagated through `Filter` and `Choice`, *not*
    /// into `Seq` parts or `Plug` sides, whose outputs are fragments);
    /// they prune hole-free partial members via
    /// [`ScenarioFilter::dead`].
    fn enumerate(&self, depth: usize, live: &[&ScenarioFilter]) -> Vec<Vec<Pat>> {
        match self {
            Scenario::Atom(p) => {
                if depth == 0 {
                    Vec::new()
                } else {
                    vec![vec![p.clone()]]
                }
            }
            Scenario::Seq(parts) => {
                let mut acc: Vec<Vec<Pat>> = vec![Vec::new()];
                for (k, part) in parts.iter().enumerate() {
                    let last = k + 1 == parts.len();
                    let mut next = Vec::new();
                    for prefix in &acc {
                        let budget = depth - prefix.len();
                        for sub in part.enumerate(budget, &[]) {
                            let mut m = prefix.clone();
                            m.extend(sub);
                            // A partial member is a true prefix of every
                            // completed member it leads to, so a dead
                            // verdict kills the whole subtree. The last
                            // part's output is complete; leave its
                            // verdict to the Filter's `accepts`.
                            if !last && pruned(live, &m, depth - m.len()) {
                                continue;
                            }
                            next.push(m);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Scenario::Choice(options) => {
                let mut out = Vec::new();
                for opt in options {
                    out.extend(opt.enumerate(depth, live));
                }
                out
            }
            Scenario::Plug(outer, name, inner) => {
                let outers = outer.enumerate(depth, &[]);
                let inners = inner.enumerate(depth, &[]);
                let mut out = Vec::new();
                for o in &outers {
                    if !o.iter().any(|p| matches!(p, Pat::Hole(h) if h == name)) {
                        out.push(o.clone());
                        continue;
                    }
                    for i in &inners {
                        let m = splice(o, name, i);
                        // Remaining holes may still splice to the empty
                        // fragment, so only non-hole patterns count
                        // against the depth budget.
                        let floor = m.iter().filter(|p| !p.is_hole()).count();
                        if floor <= depth && !pruned(live, &m, depth - floor) {
                            out.push(m);
                        }
                    }
                }
                out
            }
            Scenario::Filter(f, inner) => {
                let mut live2 = live.to_vec();
                live2.push(f);
                inner
                    .enumerate(depth, &live2)
                    .into_iter()
                    .filter(|m| f.accepts(m))
                    .collect()
            }
        }
    }

    /// Draws one member with at most `depth` patterns, or `None` if the
    /// rejection budget runs out (over-constrained filters, unfillable
    /// holes). Every returned member belongs to
    /// [`iter_to_depth(depth)`](Self::iter_to_depth); the draw is a pure
    /// function of the RNG state.
    pub fn sample(&self, rng: &mut Rng, depth: usize) -> Option<Vec<Pat>> {
        for _ in 0..SAMPLE_RETRIES {
            if let Some(m) = self.sample_once(rng) {
                if m.len() <= depth && !m.iter().any(Pat::is_hole) {
                    return Some(m);
                }
            }
        }
        None
    }

    fn sample_once(&self, rng: &mut Rng) -> Option<Vec<Pat>> {
        match self {
            Scenario::Atom(p) => Some(vec![p.clone()]),
            Scenario::Seq(parts) => {
                let mut m = Vec::new();
                for part in parts {
                    m.extend(part.sample_once(rng)?);
                }
                Some(m)
            }
            Scenario::Choice(options) => {
                if options.is_empty() {
                    return None;
                }
                let i = rng.gen_range(0..options.len());
                options[i].sample_once(rng)
            }
            Scenario::Plug(outer, name, inner) => {
                let o = outer.sample_once(rng)?;
                if !o.iter().any(|p| matches!(p, Pat::Hole(h) if h == name)) {
                    return Some(o);
                }
                let i = inner.sample_once(rng)?;
                Some(splice(&o, name, &i))
            }
            Scenario::Filter(f, inner) => {
                for _ in 0..SAMPLE_RETRIES {
                    let m = inner.sample_once(rng)?;
                    if f.accepts(&m) {
                        return Some(m);
                    }
                }
                None
            }
        }
    }
}

/// Whether a hole-free partial member is dead under any in-scope filter.
/// Members still containing holes are never pruned: a later `Plug`
/// rewrites their middle, so they are not prefixes of what the filter
/// will eventually judge.
fn pruned(live: &[&ScenarioFilter], m: &[Pat], remaining: usize) -> bool {
    !m.iter().any(Pat::is_hole) && live.iter().any(|f| f.dead(m, remaining))
}

/// Uniform substitution: every `Hole(name)` in `outer` is replaced by
/// (one copy of) `inner`.
fn splice(outer: &[Pat], name: &str, inner: &[Pat]) -> Vec<Pat> {
    let mut out = Vec::with_capacity(outer.len() + inner.len());
    for p in outer {
        match p {
            Pat::Hole(h) if h == name => out.extend(inner.iter().cloned()),
            other => out.push(other.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_model::Value;

    fn op(r: u32) -> Pat {
        Pat::Op(
            ReplicaId::new(r),
            ObjectId::new(0),
            Op::Write(Value::new(0)),
        )
    }

    fn atoms(pats: &[Pat]) -> Scenario {
        Scenario::seq(pats.iter().cloned().map(Scenario::atom).collect())
    }

    #[test]
    fn atom_seq_choice_enumerate_structurally() {
        let s = Scenario::seq(vec![
            Scenario::atom(op(0)),
            Scenario::choice(vec![Scenario::atom(op(1)), Scenario::atom(op(2))]),
        ]);
        let ms = s.iter_to_depth(4);
        assert_eq!(ms, vec![vec![op(0), op(1)], vec![op(0), op(2)]]);
    }

    #[test]
    fn depth_bounds_prune_long_members() {
        let s = Scenario::choice(vec![
            atoms(&[op(0)]),
            atoms(&[op(0), op(1)]),
            atoms(&[op(0), op(1), op(2)]),
        ]);
        assert_eq!(s.count_to_depth(2), 2);
        assert_eq!(s.count_to_depth(3), 3);
        assert_eq!(s.count_to_depth(0), 0);
    }

    #[test]
    fn empty_yields_the_empty_member() {
        assert_eq!(Scenario::empty().iter_to_depth(3), vec![Vec::<Pat>::new()]);
    }

    #[test]
    fn choice_dedups_first_occurrence_keeping_order() {
        let s = Scenario::choice(vec![
            Scenario::atom(op(1)),
            Scenario::atom(op(0)),
            Scenario::atom(op(1)), // duplicate of the first option
        ]);
        assert_eq!(s.iter_to_depth(1), vec![vec![op(1)], vec![op(0)]]);
    }

    #[test]
    fn plug_splices_every_occurrence_uniformly() {
        let body = Scenario::seq(vec![
            Scenario::hole("h"),
            Scenario::atom(Pat::Quiesce),
            Scenario::hole("h"),
        ]);
        let s = Scenario::plug(
            body,
            "h",
            Scenario::choice(vec![Scenario::atom(op(0)), Scenario::atom(op(1))]),
        );
        let ms = s.iter_to_depth(5);
        assert_eq!(
            ms,
            vec![
                vec![op(0), Pat::Quiesce, op(0)],
                vec![op(1), Pat::Quiesce, op(1)],
            ]
        );
    }

    #[test]
    fn plug_passes_holeless_members_through() {
        let s = Scenario::plug(Scenario::atom(op(0)), "missing", Scenario::atom(op(1)));
        assert_eq!(s.iter_to_depth(2), vec![vec![op(0)]]);
    }

    #[test]
    fn filter_restricts_members() {
        let s = Scenario::filter(
            ScenarioFilter::MinLen(2),
            Scenario::choice(vec![atoms(&[op(0)]), atoms(&[op(0), op(1)])]),
        );
        assert_eq!(s.iter_to_depth(4), vec![vec![op(0), op(1)]]);
    }

    #[test]
    fn filter_pushdown_prunes_without_changing_members() {
        // MaxLen(1) under a Seq of two mandatory atoms: every completed
        // member has length 2, so the family is empty — and the prefix
        // pruning must not change that verdict.
        let s = Scenario::filter(
            ScenarioFilter::MaxLen(1),
            Scenario::seq(vec![Scenario::atom(op(0)), Scenario::atom(op(1))]),
        );
        assert!(s.iter_to_depth(5).is_empty());
    }

    #[test]
    fn samples_are_members_of_the_enumeration() {
        let s = Scenario::filter(
            ScenarioFilter::MinLen(2),
            Scenario::seq(vec![
                Scenario::choice(vec![Scenario::atom(op(0)), Scenario::atom(op(1))]),
                Scenario::choice(vec![Scenario::empty(), Scenario::atom(op(2))]),
                Scenario::atom(Pat::Quiesce),
            ]),
        );
        let members = s.iter_to_depth(3);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..50 {
            let m = s.sample(&mut rng, 3).expect("satisfiable family");
            assert!(
                members.contains(&m),
                "sampled non-member {}",
                member_string(&m)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let s = Scenario::choice(vec![
            Scenario::atom(op(0)),
            Scenario::atom(op(1)),
            Scenario::atom(op(2)),
        ]);
        let draw = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..20).map(|_| s.sample(&mut rng, 1)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4), "different seeds should diverge");
    }

    #[test]
    fn unsatisfiable_sample_returns_none() {
        let s = Scenario::filter(ScenarioFilter::MinLen(5), Scenario::atom(op(0)));
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng, 8), None);
        // A scenario with an unfillable hole is unsatisfiable too.
        let holey = Scenario::hole("never-plugged");
        assert_eq!(holey.sample(&mut rng, 8), None);
    }

    #[test]
    fn member_string_is_stable() {
        let m = vec![
            Pat::PartitionStart(vec![2]),
            op(0),
            Pat::Flush(ReplicaId::new(0)),
            Pat::DeliverOldest,
            Pat::PartitionHeal,
            Pat::Quiesce,
        ];
        assert_eq!(
            member_string(&m),
            "[partition(2) do(R0,x0,write(v0)) flush(R0) deliver-oldest heal quiesce]"
        );
    }
}
