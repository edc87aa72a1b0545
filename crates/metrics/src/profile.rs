//! Wall-clock phase profiler for the two-phase cycle engine.
//!
//! One [`EngineProfile`] is shared by reference between the engine's
//! main thread and its compute workers. Every field is a plain
//! [`AtomicU64`] updated with relaxed ordering: the numbers are
//! monotone counters read only at interval boundaries, so no ordering
//! relationship with the simulation is required — and none is created.
//! Wall-clock readings flow *into* these atomics and nowhere else;
//! they never touch simulation state, RNG draws or trace bytes, which
//! is why profiling is excluded from determinism checks by
//! construction rather than by exception.
//!
//! Interpretation caveats: on a container with as many workers as
//! cores or more (the host stamped into `benchmark/baseline/` has two
//! vCPUs) worker lanes time-slice the CPUs with the main thread, so
//! "barrier wait" mostly measures the scheduler,
//! not algorithmic imbalance. Compare lanes against each other on the
//! same run, not across hosts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One worker's timing lane: compute time and barrier-wait time.
#[derive(Debug, Default)]
pub struct Lane {
    compute_ns: AtomicU64,
    barrier_ns: AtomicU64,
}

impl Lane {
    /// Adds a compute span.
    pub fn add_compute(&self, since: Instant) {
        self.compute_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds a barrier-wait span.
    pub fn add_barrier(&self, since: Instant) {
        self.barrier_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Shared wall-clock accumulators for the engine's phases: the serial
/// pre and commit spans (main thread) plus one [`Lane`] per compute
/// worker. In serial mode the single lane 0 carries the in-place
/// compute phase and its barrier time stays 0.
#[derive(Debug)]
pub struct EngineProfile {
    pre_ns: AtomicU64,
    commit_ns: AtomicU64,
    cycles: AtomicU64,
    lanes: Vec<Lane>,
}

impl EngineProfile {
    /// A profile with `lanes` worker lanes (≥ 1).
    pub fn new(lanes: usize) -> Self {
        EngineProfile {
            pre_ns: AtomicU64::new(0),
            commit_ns: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            lanes: (0..lanes.max(1)).map(|_| Lane::default()).collect(),
        }
    }

    /// Adds a pre-phase span (main thread).
    pub fn add_pre(&self, since: Instant) {
        self.pre_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds a commit-phase span and counts the cycle (main thread).
    pub fn add_commit(&self, since: Instant) {
        self.commit_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker lane `i` (clamped to the last lane, so a caller can never
    /// index out of bounds).
    pub fn lane(&self, i: usize) -> &Lane {
        &self.lanes[i.min(self.lanes.len() - 1)]
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// A coherent-enough copy of the counters (relaxed reads; exact
    /// once the engine is quiescent, e.g. between steps or after a
    /// run).
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            pre_ns: self.pre_ns.load(Ordering::Relaxed),
            commit_ns: self.commit_ns.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            lanes: self
                .lanes
                .iter()
                .map(|l| {
                    (
                        l.compute_ns.load(Ordering::Relaxed),
                        l.barrier_ns.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of an [`EngineProfile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Serial pre-phase nanoseconds (main thread).
    pub pre_ns: u64,
    /// Serial commit-phase nanoseconds (main thread).
    pub commit_ns: u64,
    /// Cycles profiled.
    pub cycles: u64,
    /// Per-lane `(compute_ns, barrier_wait_ns)`.
    pub lanes: Vec<(u64, u64)>,
}

impl ProfileSnapshot {
    /// Total compute nanoseconds across lanes.
    pub fn compute_ns(&self) -> u64 {
        self.lanes.iter().map(|(c, _)| c).sum()
    }

    /// Total barrier-wait nanoseconds across lanes.
    pub fn barrier_ns(&self) -> u64 {
        self.lanes.iter().map(|(_, b)| b).sum()
    }

    /// Movement since an earlier snapshot of the same profile
    /// (saturating, so a shorter-laned snapshot cannot panic).
    pub fn delta_since(&self, prev: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            pre_ns: self.pre_ns.saturating_sub(prev.pre_ns),
            commit_ns: self.commit_ns.saturating_sub(prev.commit_ns),
            cycles: self.cycles.saturating_sub(prev.cycles),
            lanes: self
                .lanes
                .iter()
                .enumerate()
                .map(|(i, (c, b))| {
                    let (pc, pb) = prev.lanes.get(i).copied().unwrap_or((0, 0));
                    (c.saturating_sub(pc), b.saturating_sub(pb))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_lane() {
        let p = EngineProfile::new(2);
        let t = Instant::now();
        p.add_pre(t);
        p.lane(0).add_compute(t);
        p.lane(1).add_barrier(t);
        p.add_commit(t);
        let s = p.snapshot();
        assert_eq!(s.cycles, 1);
        assert_eq!(s.lanes.len(), 2);
        // Elapsed spans are non-negative by construction; the lane that
        // recorded nothing stays 0.
        assert_eq!(s.lanes[0].1, 0);
        assert_eq!(s.lanes[1].0, 0);
    }

    #[test]
    fn lane_index_clamps() {
        let p = EngineProfile::new(1);
        let t = Instant::now();
        p.lane(7).add_compute(t); // lands in lane 0 instead of panicking
        assert_eq!(p.snapshot().lanes.len(), 1);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let p = EngineProfile::new(1);
        let t = Instant::now();
        p.add_commit(t);
        let a = p.snapshot();
        p.add_commit(t);
        p.add_commit(t);
        let b = p.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 2);
    }

    #[test]
    fn zero_lanes_is_clamped_to_one() {
        let p = EngineProfile::new(0);
        assert_eq!(p.lane_count(), 1);
    }
}
