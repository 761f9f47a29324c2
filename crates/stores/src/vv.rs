//! Version vectors.

use crate::wire::gamma0_len;
use haec_model::{Dot, ReplicaId};
use std::fmt;

/// A version vector: for each replica, the number of its updates that are
/// contiguously known/applied.
///
/// ```
/// use haec_stores::vv::VersionVector;
/// use haec_model::{Dot, ReplicaId};
/// let mut vv = VersionVector::new(3);
/// vv.advance(ReplicaId::new(1));
/// assert!(vv.contains(Dot::new(ReplicaId::new(1), 1)));
/// assert!(!vv.contains(Dot::new(ReplicaId::new(1), 2)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VersionVector {
    entries: Vec<u32>,
}

impl VersionVector {
    /// The zero vector over `n` replicas.
    pub fn new(n: usize) -> Self {
        VersionVector {
            entries: vec![0; n],
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a replica.
    pub fn get(&self, r: ReplicaId) -> u32 {
        self.entries[r.index()]
    }

    /// Sets the entry for a replica.
    pub fn set(&mut self, r: ReplicaId, v: u32) {
        self.entries[r.index()] = v;
    }

    /// Increments the entry for a replica and returns the new value.
    pub fn advance(&mut self, r: ReplicaId) -> u32 {
        self.entries[r.index()] += 1;
        self.entries[r.index()]
    }

    /// Tests whether the dot is covered: `dot.seq ≤ self[dot.replica]`.
    pub fn contains(&self, dot: Dot) -> bool {
        dot.seq <= self.entries[dot.replica.index()]
    }

    /// Tests pointwise domination: `self[r] ≥ other[r]` for all `r`.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        self.entries.iter().zip(&other.entries).all(|(a, b)| a >= b)
    }

    /// Pointwise maximum, in place.
    pub fn merge(&mut self, other: &VersionVector) {
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a = (*a).max(*b);
        }
    }

    /// Iterates over all dots covered by the vector.
    pub fn dots(&self) -> impl Iterator<Item = Dot> + '_ {
        self.entries
            .iter()
            .enumerate()
            .flat_map(|(r, &c)| (1..=c).map(move |s| Dot::new(ReplicaId::new(r as u32), s)))
    }

    /// All covered dots as a list, in [`dots`](Self::dots) order. Sized up
    /// front and filled per origin from exact-length ranges: collecting
    /// the flat-mapped iterator instead grows the list by doubling and
    /// took twice as long on the service path, where this list is every
    /// operation's witness.
    pub(crate) fn dot_list(&self) -> Vec<Dot> {
        let mut dots = Vec::with_capacity(self.total() as usize);
        for (r, &c) in self.entries.iter().enumerate() {
            dots.extend((1..=c).map(|s| Dot::new(ReplicaId::new(r as u32), s)));
        }
        dots
    }

    /// Total number of covered dots.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&c| c as u64).sum()
    }

    /// Raw entries.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Canonical size in bits: each entry as `γ(entry + 1)`.
    pub(crate) fn bits(&self) -> usize {
        self.entries.iter().map(|&e| gamma0_len(u64::from(e))).sum()
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn advance_and_contains() {
        let mut vv = VersionVector::new(2);
        assert_eq!(vv.advance(r(0)), 1);
        assert_eq!(vv.advance(r(0)), 2);
        assert!(vv.contains(Dot::new(r(0), 2)));
        assert!(!vv.contains(Dot::new(r(0), 3)));
        assert!(!vv.contains(Dot::new(r(1), 1)));
    }

    #[test]
    fn domination_is_pointwise() {
        let mut a = VersionVector::new(2);
        a.set(r(0), 2);
        let mut b = VersionVector::new(2);
        b.set(r(1), 1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        a.merge(&b);
        assert!(a.dominates(&b));
        assert_eq!(a.entries(), &[2, 1]);
    }

    #[test]
    fn merge_is_lub() {
        let mut a = VersionVector::new(3);
        a.set(r(0), 5);
        a.set(r(2), 1);
        let mut b = VersionVector::new(3);
        b.set(r(0), 3);
        b.set(r(1), 4);
        a.merge(&b);
        assert_eq!(a.entries(), &[5, 4, 1]);
    }

    #[test]
    fn dots_enumeration() {
        let mut vv = VersionVector::new(2);
        vv.set(r(0), 2);
        vv.set(r(1), 1);
        let dots: Vec<Dot> = vv.dots().collect();
        assert_eq!(
            dots,
            vec![Dot::new(r(0), 1), Dot::new(r(0), 2), Dot::new(r(1), 1)]
        );
        assert_eq!(vv.total(), 3);
        assert_eq!(vv.dot_list(), dots);
        assert!(VersionVector::new(2).dot_list().is_empty());
    }

    #[test]
    fn display() {
        let mut vv = VersionVector::new(3);
        vv.set(r(1), 7);
        assert_eq!(vv.to_string(), "⟨0,7,0⟩");
    }
}
