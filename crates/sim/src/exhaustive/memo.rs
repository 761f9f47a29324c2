//! The explorer's dedup table: `(fingerprint, remaining depth)` → the
//! number of schedules in the fully-explored passing subtree rooted there.
//! The walker's private memo and the parallel engine's cross-unit table
//! are both a [`Memo`].
//!
//! Flat and open-addressed, with none of the failure modes of a
//! fixed-size cache: no capacity, no probe limit, no dropped entry, and
//! keys compared in full, so two keys alias only when their fingerprints
//! do. Each remaining depth has its own table, so a slot holds only the
//! fingerprint and the count (16 bytes). A depth's table is cut into
//! `PARTS` parts by the fingerprint's top bits, and each part is a
//! linear-probing array that doubles on its own: growth copies one part,
//! never two copies of the whole table. Slots are placed by the
//! fingerprint's low bits alone — no `RandomState`, nothing keyed by an
//! address — so the layout, like everything the explorer reports, is a
//! pure function of the insertion sequence.

/// Bits of a fingerprint (its top ones) that choose the part.
const PART_BITS: u32 = 4;
/// Parts per remaining depth.
const PARTS: usize = 1 << PART_BITS;
/// Slots a part allocates on its first insert.
const MIN_SLOTS: usize = 16;

/// A stored entry. Subtree counts are at least 1 (the subtree's root), so
/// count 0 marks an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    fp: u64,
    count: usize,
}

/// One part of one depth's table: a power-of-two slot array (empty until
/// the first insert) kept at most three quarters full.
#[derive(Default)]
struct Part {
    slots: Vec<Slot>,
    len: usize,
}

impl Part {
    /// The slot holding `fp`, or the empty slot that ends its probe run.
    /// The load bound guarantees an empty slot, so the probe terminates.
    fn find(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.count == 0 || slot.fp == fp {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, fp: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.find(fp)];
        (slot.count != 0).then_some(slot.count)
    }

    /// Stores `count` for `fp` unless `fp` is present. Room for one more
    /// entry is made first, so a repeated key can double a part early.
    fn insert(&mut self, fp: u64, count: usize) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.find(fp);
        if self.slots[i].count == 0 {
            self.slots[i] = Slot { fp, count };
            self.len += 1;
        }
    }

    /// Doubles the slot array and re-places every entry.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); size]);
        for slot in old.into_iter().filter(|s| s.count != 0) {
            let i = self.find(slot.fp);
            self.slots[i] = slot;
        }
    }
}

/// `(fingerprint, remaining depth)` → subtree schedule count, first write
/// wins (see the module docs).
#[derive(Default)]
pub(crate) struct Memo {
    /// One table of `PARTS` parts per remaining depth seen, sorted by depth.
    depths: Vec<(usize, Vec<Part>)>,
}

impl Memo {
    /// Where `depth`'s table is in `depths`, or where it would go.
    fn table(&self, depth: usize) -> Result<usize, usize> {
        self.depths.binary_search_by_key(&depth, |d| d.0)
    }

    /// The part `fp` lives in at `depth`, if that depth has a table.
    fn part(&self, fp: u64, depth: usize) -> Option<&Part> {
        let at = self.table(depth).ok()?;
        Some(&self.depths[at].1[(fp >> (64 - PART_BITS)) as usize])
    }

    /// The count stored for `(fp, depth)`.
    pub(crate) fn get(&self, fp: u64, depth: usize) -> Option<usize> {
        self.part(fp, depth)?.get(fp)
    }

    /// Stores `count` for `(fp, depth)` unless the key is already present:
    /// the first write wins.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 — no subtree is empty, and 0 marks a free
    /// slot.
    pub(crate) fn insert(&mut self, fp: u64, depth: usize, count: usize) {
        assert!(count > 0, "a memoised subtree holds at least its root");
        let at = match self.table(depth) {
            Ok(at) => at,
            Err(at) => {
                let parts = (0..PARTS).map(|_| Part::default()).collect();
                self.depths.insert(at, (depth, parts));
                at
            }
        };
        self.depths[at].1[(fp >> (64 - PART_BITS)) as usize].insert(fp, count);
    }

    /// Every entry once, as `(fingerprint, remaining depth, count)`: by
    /// depth, then part, then slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.depths.iter().flat_map(|(depth, parts)| {
            parts.iter().flat_map(move |part| {
                part.slots
                    .iter()
                    .filter(|s| s.count != 0)
                    .map(move |s| (s.fp, *depth, s.count))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_testkit::prop::{self, u64s, usizes, vecs};
    use haec_testkit::{prop_assert, prop_assert_eq};
    use std::collections::BTreeMap;

    /// Fixed top bits (the part) and low 20 bits (the start slot of every
    /// part up to 2²⁰ slots): fingerprints that differ only in between.
    const SHARED_BITS: u64 = 0xA000_0000_000C_AFE5;
    const MIDDLE: u64 = 0x0FFF_FFFF_FFF0_0000;

    /// The table against a `BTreeMap` model, one random sequence of
    /// gets and first-write-wins inserts per case. Keys come from four
    /// families: random; sharing the part and start-slot bits (one long
    /// probe run, grown across several doublings); a few small
    /// fingerprints reused at every depth; and a few of the shared-bits
    /// ones, repeated. Depths include 0 and `usize::MAX`; a case starts with
    /// `get` on the empty table. The barrier-merge
    /// iterator yields every entry exactly once.
    #[test]
    fn memo_agrees_with_a_btreemap_model() {
        // (insert?, key family) packed in 0..8, raw key bits, depth pick,
        // count.
        let op = (
            usizes(0..8),
            u64s(0..u64::MAX),
            usizes(0..8),
            usizes(1..1000),
        );
        prop::check(
            "memo_agrees_with_a_btreemap_model",
            &vecs(op, 0..4000),
            |ops| {
                let mut memo = Memo::default();
                let mut model = BTreeMap::new();
                prop_assert_eq!(memo.get(0, 0), None);
                prop_assert_eq!(memo.get(u64::MAX, usize::MAX), None);
                for (i, &(pick, raw, depth, count)) in ops.iter().enumerate() {
                    let fp = match pick / 2 {
                        0 => raw,
                        1 => SHARED_BITS | (raw & MIDDLE),
                        2 => raw % 8,
                        _ => SHARED_BITS | ((raw % 16) << 20),
                    };
                    // Half the keys at depth 0, so its shared-bits run
                    // grows through four or five doublings.
                    let depth = [0, 0, 0, 0, 1, 2, usize::MAX, (raw >> 58) as usize][depth];
                    if pick % 2 == 1 {
                        memo.insert(fp, depth, count);
                        model.entry((fp, depth)).or_insert(count);
                    }
                    prop_assert_eq!(
                        memo.get(fp, depth),
                        model.get(&(fp, depth)).copied(),
                        "op {i}: ({fp:#x}, {depth})"
                    );
                }
                for (&(fp, depth), &count) in &model {
                    prop_assert_eq!(memo.get(fp, depth), Some(count), "({fp:#x}, {depth})");
                }
                let mut entries: Vec<(u64, usize, usize)> = memo.iter().collect();
                entries.sort_unstable();
                let expected: Vec<(u64, usize, usize)> =
                    model.iter().map(|(&(fp, d), &c)| (fp, d, c)).collect();
                prop_assert!(entries == expected, "iter yields {entries:?}");
                Ok(())
            },
        );
    }

    #[test]
    fn shared_bits_keys_grow_one_part_across_doublings() {
        let mut memo = Memo::default();
        for k in 0..1000u64 {
            memo.insert(SHARED_BITS | (k << 20), 3, k as usize + 1);
        }
        let part = memo.part(SHARED_BITS, 3).expect("depth 3 has a table");
        assert_eq!(part.len, 1000);
        assert_eq!(part.slots.len(), 2048, "16 slots doubled seven times");
        for k in 0..1000u64 {
            assert_eq!(memo.get(SHARED_BITS | (k << 20), 3), Some(k as usize + 1));
            assert_eq!(memo.get(SHARED_BITS | (k << 20), 2), None);
        }
        assert_eq!(memo.iter().count(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least its root")]
    fn a_zero_count_is_rejected() {
        Memo::default().insert(1, 1, 0);
    }
}
