//! Non-firing: ordered std collections, the sanctioned spelling.

use std::collections::{BTreeMap, BTreeSet};

fn build() -> usize {
    let m: BTreeMap<u32, u32> = BTreeMap::new();
    let s = BTreeSet::<u32>::new();
    m.len() + s.len()
}
