//! Non-firing: the same streaming-checker frontier written the sanctioned
//! way — an ordered map for the live-event set (ascending-key iteration) and
//! lag measured in logical events the feed advances, never the wall clock.

use std::collections::BTreeMap;

struct Frontier {
    live: BTreeMap<u64, u64>,
    arrived: u64,
}

impl Frontier {
    fn new() -> Self {
        Frontier {
            live: BTreeMap::new(),
            arrived: 0,
        }
    }

    fn lag_events(&self, issued_at: u64) -> u64 {
        self.arrived.saturating_sub(issued_at)
    }

    fn retire_stable(&mut self, stable_below: u64) -> usize {
        let doomed: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, &cover)| cover < stable_below)
            .map(|(&id, _)| id)
            .collect();
        for id in &doomed {
            self.live.remove(id);
        }
        doomed.len() + self.lag_events(stable_below) as usize
    }
}
