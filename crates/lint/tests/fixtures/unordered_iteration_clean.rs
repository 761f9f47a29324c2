//! Non-firing: the ordered std collections iterate in ascending key order,
//! so the same shapes are deterministic.

use std::collections::{BTreeMap, BTreeSet};

fn scan(index: &BTreeMap<u32, u32>, seen: &BTreeSet<u32>) -> u32 {
    let mut total = 0;
    for (k, v) in index {
        total += k + v;
    }
    total + seen.iter().sum::<u32>()
}
