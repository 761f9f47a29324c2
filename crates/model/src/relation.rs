//! Dense bit-matrix binary relations.
//!
//! Visibility and happens-before relations over executions of up to a few
//! thousand events are represented as row-major bit matrices, giving
//! `O(n³/64)` transitive closure and cheap unions/queries.

/// A binary relation over `{0, …, n−1}`, stored as an `n×n` bit matrix.
///
/// Row `i` holds the successors of `i`: `contains(i, j)` means `(i, j)` is in
/// the relation.
///
/// ```
/// use haec_model::Relation;
/// let mut r = Relation::new(3);
/// r.insert(0, 1);
/// r.insert(1, 2);
/// let closed = r.transitive_closure();
/// assert!(closed.contains(0, 2));
/// assert!(closed.is_acyclic());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// Creates the empty relation over `{0, …, n−1}`.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Relation {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// The size of the underlying domain.
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// Inserts the pair `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn insert(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Removes the pair `(i, j)` if present.
    pub fn remove(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "pair ({i},{j}) out of range");
        self.bits[i * self.words_per_row + j / 64] &= !(1u64 << (j % 64));
    }

    /// Tests membership of the pair `(i, j)`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// The successor bitset of `i` as raw words: bit `j % 64` of word
    /// `j / 64` is set iff `(i, j)` is in the relation. Exposed so checkers
    /// can run word-parallel row algebra instead of per-pair point queries.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_words(&self, i: usize) -> &[u64] {
        assert!(i < self.n, "row {i} out of range");
        self.row(i)
    }

    /// Bitwise-ORs a row-shaped word slice into row `i` — the word-parallel
    /// form of inserting every `(i, j)` with bit `j` set in `words`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `words` is not exactly one row long.
    pub fn or_into_row(&mut self, i: usize, words: &[u64]) {
        assert!(i < self.n, "row {i} out of range");
        assert_eq!(words.len(), self.words_per_row, "row width mismatch");
        let start = i * self.words_per_row;
        for (a, &w) in self.bits[start..start + self.words_per_row]
            .iter_mut()
            .zip(words)
        {
            *a |= w;
        }
    }

    /// Returns the transposed relation: `(i, j)` present iff `(j, i)` is in
    /// `self`. Row `j` of the transpose is the *predecessor* bitset of `j`,
    /// which turns `contains(_, j)` point-query loops into row algebra.
    #[must_use]
    pub fn transpose(&self) -> Relation {
        let mut t = Relation::new(self.n);
        for (i, j) in self.iter_pairs() {
            t.insert(j, i);
        }
        t
    }

    /// Iterates over the successors of `i` in increasing order.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let row = self.row(i);
        row.iter()
            .enumerate()
            .flat_map(|(w, &word)| BitIter { word, base: w * 64 })
    }

    /// Iterates over the predecessors of `j` in increasing order.
    pub fn predecessors(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&i| self.contains(i, j))
    }

    /// Iterates over all pairs `(i, j)` in lexicographic order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.successors(i).map(move |j| (i, j)))
    }

    /// Returns the transitive closure of the relation.
    ///
    /// Uses bit-parallel Floyd–Warshall: for each intermediate node `k`,
    /// every row that reaches `k` absorbs row `k`.
    #[must_use]
    pub fn transitive_closure(&self) -> Relation {
        let mut c = self.clone();
        let wpr = c.words_per_row;
        for k in 0..c.n {
            // Copy row k to avoid aliasing while updating other rows.
            let row_k: Vec<u64> = c.row(k).to_vec();
            for i in 0..c.n {
                if c.contains(i, k) {
                    let start = i * wpr;
                    for (w, &bits) in row_k.iter().enumerate() {
                        c.bits[start + w] |= bits;
                    }
                }
            }
        }
        c
    }

    /// Tests whether the relation is transitive.
    pub fn is_transitive(&self) -> bool {
        *self == self.transitive_closure()
    }

    /// Tests whether the relation (viewed as a directed graph) is acyclic.
    ///
    /// A relation is acyclic iff its transitive closure is irreflexive.
    pub fn is_acyclic(&self) -> bool {
        let c = self.transitive_closure();
        (0..self.n).all(|i| !c.contains(i, i))
    }

    /// Returns the union of two relations over the same domain.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "domain mismatch");
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        out
    }

    /// Tests whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n, "domain mismatch");
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Restricts the relation to the elements of `keep` (in the order
    /// given), producing a relation over `{0, …, keep.len()−1}` where the
    /// `p`-th element corresponds to `keep[p]`.
    ///
    /// # Panics
    ///
    /// Panics if any index in `keep` is out of range.
    #[must_use]
    pub fn restrict(&self, keep: &[usize]) -> Relation {
        let mut out = Relation::new(keep.len());
        for (pi, &i) in keep.iter().enumerate() {
            assert!(i < self.n, "index {i} out of range");
            for (pj, &j) in keep.iter().enumerate() {
                if self.contains(i, j) {
                    out.insert(pi, pj);
                }
            }
        }
        out
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// Returns a topological order of the domain consistent with the relation,
/// or `None` if the relation is cyclic.
///
/// Ties are broken by preferring smaller indices, so the output is
/// deterministic and, for relations already consistent with index order,
/// equals `0..n`.
///
/// ```
/// use haec_model::{Relation, topological_sort};
/// let mut r = Relation::new(3);
/// r.insert(2, 0);
/// let order = topological_sort(&r).unwrap();
/// assert_eq!(order, vec![1, 2, 0]);
/// ```
pub fn topological_sort(rel: &Relation) -> Option<Vec<usize>> {
    let n = rel.domain_size();
    let mut indegree = vec![0usize; n];
    for (_, j) in rel.iter_pairs() {
        indegree[j] += 1;
    }
    // Min-heap on index for determinism.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        order.push(i);
        for j in rel.successors(i) {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(std::cmp::Reverse(j));
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(100);
        assert!(r.is_empty());
        r.insert(3, 97);
        assert!(r.contains(3, 97));
        assert!(!r.contains(97, 3));
        assert_eq!(r.len(), 1);
        r.remove(3, 97);
        assert!(!r.contains(3, 97));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut r = Relation::new(2);
        r.insert(0, 2);
    }

    #[test]
    fn closure_chains() {
        let mut r = Relation::new(5);
        for i in 0..4 {
            r.insert(i, i + 1);
        }
        let c = r.transitive_closure();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.contains(i, j), i < j, "({i},{j})");
            }
        }
        assert!(c.is_transitive());
        assert!(!r.is_transitive());
    }

    #[test]
    fn closure_detects_cycles() {
        let mut r = Relation::new(3);
        r.insert(0, 1);
        r.insert(1, 2);
        r.insert(2, 0);
        assert!(!r.is_acyclic());
        let mut acyc = Relation::new(3);
        acyc.insert(0, 1);
        acyc.insert(1, 2);
        assert!(acyc.is_acyclic());
    }

    #[test]
    fn successors_cross_word_boundary() {
        let mut r = Relation::new(130);
        r.insert(0, 1);
        r.insert(0, 64);
        r.insert(0, 129);
        let s: Vec<usize> = r.successors(0).collect();
        assert_eq!(s, vec![1, 64, 129]);
    }

    #[test]
    fn predecessors_and_pairs() {
        let mut r = Relation::new(4);
        r.insert(0, 3);
        r.insert(2, 3);
        let p: Vec<usize> = r.predecessors(3).collect();
        assert_eq!(p, vec![0, 2]);
        let pairs: Vec<(usize, usize)> = r.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 3), (2, 3)]);
    }

    #[test]
    fn union_and_subset() {
        let mut a = Relation::new(3);
        a.insert(0, 1);
        let mut b = Relation::new(3);
        b.insert(1, 2);
        let u = a.union(&b);
        assert!(u.contains(0, 1) && u.contains(1, 2));
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn restrict_remaps_indices() {
        let mut r = Relation::new(5);
        r.insert(1, 3);
        r.insert(3, 4);
        let sub = r.restrict(&[1, 3, 4]);
        assert!(sub.contains(0, 1)); // 1 -> 3
        assert!(sub.contains(1, 2)); // 3 -> 4
        assert!(!sub.contains(0, 2));
        assert_eq!(sub.domain_size(), 3);
    }

    #[test]
    fn toposort_linear() {
        let mut r = Relation::new(4);
        r.insert(0, 1);
        r.insert(1, 2);
        r.insert(2, 3);
        assert_eq!(topological_sort(&r).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn toposort_cycle_is_none() {
        let mut r = Relation::new(2);
        r.insert(0, 1);
        r.insert(1, 0);
        assert!(topological_sort(&r).is_none());
    }

    #[test]
    fn toposort_deterministic_tiebreak() {
        let r = Relation::new(3);
        assert_eq!(topological_sort(&r).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_relation_over_empty_domain() {
        let r = Relation::new(0);
        assert!(r.is_acyclic());
        assert!(r.is_transitive());
        assert_eq!(topological_sort(&r).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn closure_is_idempotent() {
        let mut r = Relation::new(6);
        r.insert(0, 2);
        r.insert(2, 4);
        r.insert(4, 5);
        r.insert(1, 4);
        let c1 = r.transitive_closure();
        let c2 = c1.transitive_closure();
        assert_eq!(c1, c2);
    }
}
