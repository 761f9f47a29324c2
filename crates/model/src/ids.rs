//! Typed identifiers used throughout the model.

use std::fmt;

/// Identifier of a replica (`R₀`, `R₁`, …).
///
/// Replicas are numbered densely from zero; an execution over `n` replicas
/// uses ids `0..n`.
///
/// ```
/// use haec_model::ReplicaId;
/// let r = ReplicaId::new(3);
/// assert_eq!(r.index(), 3);
/// assert_eq!(r.to_string(), "R3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReplicaId(u32);

impl ReplicaId {
    /// Creates a replica id from its dense index.
    pub const fn new(index: u32) -> Self {
        ReplicaId(index)
    }

    /// Returns the dense index of this replica.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

/// Identifier of a replicated object (`x₀`, `x₁`, …).
///
/// An execution over `s` objects uses ids `0..s`.
///
/// ```
/// use haec_model::ObjectId;
/// assert_eq!(ObjectId::new(2).to_string(), "x2");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object id from its dense index.
    pub const fn new(index: u32) -> Self {
        ObjectId(index)
    }

    /// Returns the dense index of this object.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<u32> for ObjectId {
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

/// A value written to (or read from) a replicated object.
///
/// The paper assumes every write writes a *distinct* value, so a value
/// uniquely identifies the write event that produced it (paper, §4). The
/// harnesses in `haec-sim` and `haec-theory` maintain this invariant; the
/// model itself does not require it.
///
/// ```
/// use haec_model::Value;
/// assert_eq!(Value::new(42).to_string(), "v42");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Value(u64);

impl Value {
    /// Creates a value from its numeric payload.
    pub const fn new(v: u64) -> Self {
        Value(v)
    }

    /// Returns the numeric payload.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

/// Identifier of a message instance, assigned when the corresponding
/// `send` event is appended to an [`Execution`](crate::Execution).
///
/// A `receive` event refers to the `MsgId` of the send that produced the
/// message. Duplicated delivery is modelled as several `receive` events with
/// the same `MsgId`; a dropped message simply has no `receive` events.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(u64);

impl MsgId {
    /// Creates a message id from its dense index.
    pub const fn new(index: u64) -> Self {
        MsgId(index)
    }

    /// Returns the dense index of this message.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A *dot*: the globally unique identity of an update operation.
///
/// The `seq`-th update (non-read) operation invoked at replica `replica`
/// — counting from 1, across all objects — has dot `(replica, seq)`.
/// Dots are the currency of the visibility *witnesses* that instrumented
/// stores report (see [`DoOutcome`](crate::DoOutcome)): causally consistent
/// stores such as the dotted-version-vector MVR store already carry dots in
/// their real protocol, so the witness adds no out-of-band information.
///
/// ```
/// use haec_model::{Dot, ReplicaId};
/// let d = Dot::new(ReplicaId::new(1), 3);
/// assert_eq!(d.to_string(), "R1:3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dot {
    /// The replica at which the update was invoked.
    pub replica: ReplicaId,
    /// 1-based count of update operations at `replica` up to and including
    /// this one.
    pub seq: u32,
}

impl Dot {
    /// Dots per block of [`run_within`](Self::run_within): 128 bytes, two
    /// cache lines, eight SSE2 or four AVX2 vectors.
    const RUN_BLOCK: usize = 16;

    /// Creates a dot. `seq` is 1-based.
    pub const fn new(replica: ReplicaId, seq: u32) -> Self {
        Dot { replica, seq }
    }

    /// Length of the longest prefix of `dots`, counted in whole blocks of
    /// 16 dots, whose every dot is at `replica` with `lo <= seq <= hi`.
    ///
    /// Witness consumers use it to jump over the part of a witness they
    /// already know: a causal store reports each origin's dots as one
    /// ascending run, and all but its tail was seen with the previous
    /// operation. The answer is only ever a lower bound on the run — a
    /// block with one dot outside the range is not counted, nor is a
    /// trailing partial block — so it is safe on any list (unsorted,
    /// gapped, duplicated) provided the caller handles the remaining dots
    /// one by one. Each block is one branch-free fold, which compiles to
    /// vector compares.
    ///
    /// ```
    /// use haec_model::{Dot, ReplicaId};
    /// let r = ReplicaId::new(1);
    /// let dots: Vec<Dot> = (1..=40).map(|s| Dot::new(r, s)).collect();
    /// assert_eq!(Dot::run_within(&dots, r, 1, 40), 32); // two whole blocks
    /// assert_eq!(Dot::run_within(&dots, r, 1, 20), 16); // the second holds 21
    /// assert_eq!(Dot::run_within(&dots, ReplicaId::new(0), 1, 40), 0);
    /// ```
    pub fn run_within(dots: &[Dot], replica: ReplicaId, lo: u32, hi: u32) -> usize {
        let Some(span) = hi.checked_sub(lo) else {
            return 0;
        };
        // `seq - lo > span` (wrapping) is `seq < lo || seq > hi` in one
        // unsigned compare.
        let outside =
            |d: &Dot| (d.replica.0 ^ replica.0) | u32::from(d.seq.wrapping_sub(lo) > span);
        // Callers ask at every dot they know; near the end of an ascending
        // run the answer is 0 because the first block's last dot is past
        // it, and one look there spares a fold per dot of that tail.
        if dots
            .get(Self::RUN_BLOCK - 1)
            .is_none_or(|d| outside(d) != 0)
        {
            return 0;
        }
        let mut run = 0;
        for block in dots.chunks_exact(Self::RUN_BLOCK) {
            // OR-ing integers keeps the fold branch-free.
            if block.iter().fold(0, |any, d| any | outside(d)) != 0 {
                break;
            }
            run += Self::RUN_BLOCK;
        }
        run
    }
}

impl fmt::Display for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.replica, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn replica_id_roundtrip() {
        let r = ReplicaId::new(7);
        assert_eq!(r.index(), 7);
        assert_eq!(r.as_u32(), 7);
        assert_eq!(ReplicaId::from(7u32), r);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId::new(0).to_string(), "x0");
        assert_eq!(ObjectId::from(9u32).index(), 9);
    }

    #[test]
    fn value_ordering() {
        assert!(Value::new(1) < Value::new(2));
        assert_eq!(Value::from(5u64).as_u64(), 5);
    }

    #[test]
    fn dots_order_by_replica_then_seq() {
        let a = Dot::new(ReplicaId::new(0), 5);
        let b = Dot::new(ReplicaId::new(1), 1);
        assert!(a < b);
        let c = Dot::new(ReplicaId::new(0), 6);
        assert!(a < c);
    }

    #[test]
    fn dots_are_set_usable() {
        let mut s = BTreeSet::new();
        s.insert(Dot::new(ReplicaId::new(0), 1));
        s.insert(Dot::new(ReplicaId::new(0), 1));
        assert_eq!(s.len(), 1);
    }

    fn run(replica: u32, seqs: impl IntoIterator<Item = u32>) -> Vec<Dot> {
        seqs.into_iter()
            .map(|seq| Dot::new(ReplicaId::new(replica), seq))
            .collect()
    }

    /// `run_within` by its definition: blocks counted one dot at a time.
    fn run_within_per_dot(dots: &[Dot], replica: ReplicaId, lo: u32, hi: u32) -> usize {
        dots.chunks_exact(Dot::RUN_BLOCK)
            .take_while(|block| {
                block
                    .iter()
                    .all(|d| d.replica == replica && lo <= d.seq && d.seq <= hi)
            })
            .count()
            * Dot::RUN_BLOCK
    }

    #[test]
    fn run_within_counts_whole_blocks_inside_the_range() {
        let r1 = ReplicaId::new(1);
        let dots = run(1, 1..=100);
        assert_eq!(Dot::run_within(&dots, r1, 1, 100), 96);
        assert_eq!(Dot::run_within(&dots, r1, 1, 48), 48);
        assert_eq!(
            Dot::run_within(&dots, r1, 1, 47),
            32,
            "48 is in block three"
        );
        assert_eq!(Dot::run_within(&dots, r1, 2, 100), 0, "1 is in block one");
        assert_eq!(Dot::run_within(&dots, ReplicaId::new(0), 1, 100), 0);
        // Order, gaps and duplicates do not matter, only membership.
        let mixed = run(1, [9, 3, 3, 70, 12, 5, 5, 5, 1, 2, 64, 33, 8, 8, 40, 7]);
        assert_eq!(Dot::run_within(&mixed, r1, 1, 70), 16);
        assert_eq!(Dot::run_within(&mixed, r1, 1, 69), 0);
    }

    #[test]
    fn run_within_edge_ranges() {
        let r0 = ReplicaId::new(0);
        let dots = run(0, 1..=32);
        assert_eq!(Dot::run_within(&dots, r0, 5, 4), 0, "hi < lo is empty");
        assert_eq!(Dot::run_within(&dots, r0, u32::MAX, 0), 0);
        assert_eq!(Dot::run_within(&dots, r0, 0, u32::MAX), 32);
        assert_eq!(Dot::run_within(&dots, r0, 1, 1), 0);
        let zeros = run(0, [0; 16]);
        assert_eq!(Dot::run_within(&zeros, r0, 0, 0), 16, "lo = 0 admits seq 0");
        assert_eq!(Dot::run_within(&zeros, r0, 1, u32::MAX), 0);
        let top = run(0, [u32::MAX; 16]);
        assert_eq!(Dot::run_within(&top, r0, 1, u32::MAX), 16);
        assert_eq!(Dot::run_within(&top, r0, 1, u32::MAX - 1), 0);
        assert_eq!(Dot::run_within(&top, r0, u32::MAX, u32::MAX), 16);
    }

    #[test]
    fn run_within_ignores_a_trailing_partial_block() {
        let r0 = ReplicaId::new(0);
        assert_eq!(Dot::run_within(&[], r0, 0, u32::MAX), 0);
        assert_eq!(Dot::run_within(&run(0, 1..=15), r0, 0, u32::MAX), 0);
        assert_eq!(Dot::run_within(&run(0, 1..=31), r0, 0, u32::MAX), 16);
    }

    #[test]
    fn run_within_sees_a_mismatch_in_every_lane() {
        let r2 = ReplicaId::new(2);
        for lane in 0..Dot::RUN_BLOCK {
            for bad in [
                Dot::new(r2, 0),
                Dot::new(r2, 41),
                Dot::new(ReplicaId::new(3), 5),
                Dot::new(ReplicaId::new(2 + (1 << 31)), 5),
            ] {
                let mut dots = run(2, 1..=32);
                dots[16 + lane] = bad;
                assert_eq!(Dot::run_within(&dots, r2, 1, 40), 16, "lane {lane}: {bad}");
                dots[lane] = bad;
                assert_eq!(Dot::run_within(&dots, r2, 1, 40), 0, "lane {lane}: {bad}");
            }
        }
    }

    #[test]
    fn block_skip_helper_agrees_with_its_per_dot_definition() {
        use haec_testkit::prop::{self, u32s, vecs};
        use haec_testkit::prop_assert_eq;

        // Bounds from 0..8 and the top of the range; most dots inside them
        // at replica 0, one in ten drawn from the same few values at either
        // replica, so a block usually fails on a single dot that sits on a
        // bound, one off it, or across the wrap.
        let edge = |v: u32| if v >= 8 { u32::MAX - (v - 8) } else { v };
        let gen = (vecs(u32s(0..240), 0..100), u32s(0..12), u32s(0..12));
        prop::check(
            "block_skip_helper_agrees_with_its_per_dot_definition",
            &gen,
            |(raw, lo, hi)| {
                let (lo, hi) = (edge(*lo), edge(*hi));
                let dots: Vec<Dot> = raw
                    .iter()
                    .map(|&v| match v {
                        0..24 => Dot::new(ReplicaId::new(v / 12), edge(v % 12)),
                        _ => Dot::new(ReplicaId::new(0), lo.wrapping_add(v % 3).min(hi)),
                    })
                    .collect();
                for replica in [ReplicaId::new(0), ReplicaId::new(1)] {
                    prop_assert_eq!(
                        Dot::run_within(&dots, replica, lo, hi),
                        run_within_per_dot(&dots, replica, lo, hi)
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn msg_id_display() {
        assert_eq!(MsgId::new(3).to_string(), "m3");
        assert_eq!(MsgId::new(3).index(), 3);
    }
}
