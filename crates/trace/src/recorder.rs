//! The per-router flight recorder: a bounded ring of the most recent
//! events, kept for post-mortem dumps when a run ends badly (deadlock
//! that recovery never cleared, misdelivery, wedge at the cycle cap).

use std::collections::VecDeque;

use crate::event::{jsonl, TraceRecord};

/// A bounded ring buffer of the most recent [`TraceRecord`]s for one
/// router. Pushing beyond `capacity` evicts the oldest record, so memory
/// stays constant however long the run.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    /// Total records ever pushed (including evicted ones).
    seen: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            seen: 0,
        }
    }

    /// Retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records retained right now (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed, including those already evicted.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Retains `rec`, evicting the oldest record when full.
    pub fn push(&mut self, rec: TraceRecord) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// The retained records as JSON Lines (oldest first).
    pub fn dump_jsonl(&self) -> String {
        jsonl(self.ring.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(cycle: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            node: 0,
            event: TraceEvent::RecoveryStarted,
        }
    }

    #[test]
    fn ring_honors_capacity_bound() {
        let mut fr = FlightRecorder::new(8);
        for c in 0..100 {
            fr.push(rec(c));
            assert!(fr.len() <= 8, "len {} exceeded capacity", fr.len());
        }
        assert_eq!(fr.len(), 8);
        assert_eq!(fr.total_seen(), 100);
        // The survivors are exactly the most recent eight, oldest first.
        let cycles: Vec<u64> = fr.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_retains_nothing_but_counts() {
        let mut fr = FlightRecorder::new(0);
        for c in 0..10 {
            fr.push(rec(c));
        }
        assert!(fr.is_empty());
        assert_eq!(fr.total_seen(), 10);
        assert_eq!(fr.dump_jsonl(), "");
    }

    #[test]
    fn dump_is_one_line_per_record() {
        let mut fr = FlightRecorder::new(4);
        for c in 0..3 {
            fr.push(rec(c));
        }
        assert_eq!(fr.dump_jsonl().lines().count(), 3);
    }
}
