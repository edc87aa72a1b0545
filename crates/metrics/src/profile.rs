//! Wall-clock phase profile of the cycle engine.
//!
//! While profiling is on the network holds one [`ProfileSnapshot`] by
//! value and its `step` adds the three phase spans of every cycle, read
//! off four abutting `Instant`s. Wall-clock readings flow *into* these
//! counters and nowhere else; they never touch simulation state, RNG
//! draws or trace bytes, which is why profiling is excluded from
//! determinism checks by construction rather than by exception.

use std::time::Instant;

/// Cumulative wall-clock time of the engine's three phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Pre-phase nanoseconds.
    pub pre_ns: u64,
    /// Commit-phase nanoseconds.
    pub commit_ns: u64,
    /// Cycles profiled.
    pub cycles: u64,
    /// `(compute_ns, barrier_wait_ns)` per compute lane: one lane,
    /// barrier 0. A list because metrics-file schema v1 spells it as one
    /// (`compute_ns_by_lane`, `barrier_ns_by_lane`).
    pub lanes: Vec<(u64, u64)>,
}

impl ProfileSnapshot {
    /// Books one cycle whose phases began at `pre`, `compute` and
    /// `commit` and which finished at `end`, compute onto lane 0.
    pub fn add_step(&mut self, [pre, compute, commit, end]: [Instant; 4]) {
        self.pre_ns += (compute - pre).as_nanos() as u64;
        self.lanes[0].0 += (commit - compute).as_nanos() as u64;
        self.commit_ns += (end - commit).as_nanos() as u64;
        self.cycles += 1;
    }

    /// Total compute nanoseconds across lanes.
    pub fn compute_ns(&self) -> u64 {
        self.lanes.iter().map(|(c, _)| c).sum()
    }

    /// Total barrier-wait nanoseconds across lanes.
    pub fn barrier_ns(&self) -> u64 {
        self.lanes.iter().map(|(_, b)| b).sum()
    }
}
