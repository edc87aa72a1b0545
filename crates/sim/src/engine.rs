//! The parallel cycle engine: a hand-rolled `std::thread::scope` worker
//! pool that fans the compute phase of each cycle out across routers.
//!
//! Zero dependencies and zero `unsafe`: routers live in
//! `Mutex<RouterCell>` cells (uncontended — each worker owns a disjoint
//! contiguous chunk), the pool is synchronised with two [`Barrier`]s
//! per cycle, and the serial pre/commit phases run on the calling
//! thread in between. With `threads <= 1` no pool is spawned and
//! [`Stepper::step`] sweeps the routers in place on the calling thread
//! ([`Network::step`] is one such step) — and because the compute phase
//! is cross-router-pure (see the determinism argument in
//! [`crate::network`]), any thread count produces byte-identical
//! results at the same seed.
//!
//! Panics are part of that contract: a compute-phase panic on a worker
//! (a violated `debug_assert!` under fault fuzzing, say) is caught,
//! parked, and replayed on the calling thread after the cycle's `done`
//! barrier — never a deadlocked barrier, and always the panic the
//! serial schedule would have raised, so callers like the fuzz
//! campaign runner can `catch_unwind` the whole run and get identical
//! payloads at any thread count.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use ftnoc_metrics::{MeshTelemetry, ProfileSnapshot};
use ftnoc_trace::TraceSink;

use crate::network::{
    collect_telemetry, compute_cells, NetCore, Network, Progress, RouterCell, RunEnv,
};

/// Shared cycle-synchronisation state between the main thread and the
/// compute workers.
struct CycleSync {
    /// Cycle-start barrier: main + workers. Workers block here between
    /// cycles; the main thread's wait releases one compute round.
    start: Barrier,
    /// Cycle-done barrier: main + workers. Crossing it means every
    /// router's compute phase for this cycle has finished.
    done: Barrier,
    /// The cycle the workers should compute (published before `start`).
    now: AtomicU64,
    /// Shutdown flag checked by workers right after `start`.
    stop: AtomicBool,
    /// One slot per worker holding a compute-phase panic caught this
    /// cycle. Workers must reach `done` even when a router panics (a
    /// violated `debug_assert!`, a poisoned cell lock), or the main
    /// thread would park on the barrier forever; instead the panic is
    /// parked here and the main thread replays the lowest-indexed slot
    /// after `done` — which is the panic the serial schedule would have
    /// hit first, so the payload is identical at any thread count.
    panics: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
}

/// Releases the worker pool on drop (normal exit *and* unwinding), so a
/// panic in the driver body cannot leave workers parked on the start
/// barrier and deadlock the scope join.
struct StopGuard<'a> {
    sync: &'a CycleSync,
}

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.sync.stop.store(true, Ordering::Release);
        self.sync.start.wait();
    }
}

/// A cycle driver borrowed from [`Network::with_stepper`]: steps the
/// simulation with the compute phase spread across the worker pool
/// (or serially when no pool was requested).
pub struct Stepper<'a, S: TraceSink> {
    env: &'a RunEnv,
    cells: &'a [Mutex<RouterCell>],
    core: &'a mut NetCore<S>,
    sync: Option<&'a CycleSync>,
}

impl<S: TraceSink> Stepper<'_, S> {
    /// Advances the network by one clock cycle.
    ///
    /// When the phase profiler is enabled, the serial pre and commit
    /// spans are timed here and the compute span per worker lane (lane
    /// 0 for the serial in-place path). Timing reads wall clock into
    /// relaxed atomics only — it cannot perturb the simulation.
    pub fn step(&mut self) {
        let profile = self.env.profile.as_ref();
        let now = self.core.now;
        let span = profile.map(|_| Instant::now());
        self.core.pre(self.env, self.cells, now);
        if let (Some(p), Some(t)) = (profile, span) {
            p.add_pre(t);
        }
        match self.sync {
            None => {
                let span = profile.map(|_| Instant::now());
                compute_cells(self.env, self.cells, 0, now);
                if let (Some(p), Some(t)) = (profile, span) {
                    p.lane(0).add_compute(t);
                }
            }
            Some(sync) => {
                sync.now.store(now, Ordering::Release);
                sync.start.wait();
                sync.done.wait();
                for slot in &sync.panics {
                    let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(payload) = slot.take() {
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        let span = profile.map(|_| Instant::now());
        self.core.commit(self.env, self.cells, now);
        if let (Some(p), Some(t)) = (profile, span) {
            p.add_commit(t);
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Packets ejected since construction.
    pub fn packets_ejected(&self) -> u64 {
        self.core.packets_ejected()
    }

    /// A [`Progress`] snapshot (what run observers receive).
    pub fn progress(&self) -> Progress {
        self.core.progress(self.cells)
    }

    /// A full [`crate::snapshot::NetSnapshot`] of the commit-boundary
    /// state, for per-cycle invariant checking between steps. Pure read
    /// — taking snapshots does not perturb the simulation.
    pub fn snapshot(&self) -> crate::snapshot::NetSnapshot {
        crate::network::build_snapshot(self.env, self.cells, self.core)
    }

    /// Marks the beginning of the measurement window.
    pub fn start_measurement(&mut self) {
        self.core.start_measurement(self.cells);
    }

    /// Harvests every router's hotspot counters (same snapshot
    /// [`Network::telemetry`] takes after the run).
    pub fn telemetry(&self) -> MeshTelemetry {
        collect_telemetry(self.env, self.cells)
    }

    /// A snapshot of the phase profiler (`None` unless
    /// [`Network::enable_profiling`] was called before stepping).
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.env.profile.as_ref().map(|p| p.snapshot())
    }
}

impl<S: TraceSink> Network<S> {
    /// Runs `body` with a [`Stepper`] whose compute phase executes on
    /// `threads` worker threads (`<= 1` means serial, in-place, with no
    /// pool spawned). The pool spans the whole call, so per-cycle cost
    /// is two barrier crossings rather than thread spawns.
    pub fn with_stepper<R>(
        &mut self,
        threads: usize,
        body: impl FnOnce(&mut Stepper<'_, S>) -> R,
    ) -> R {
        let Network { env, cells, core } = self;
        let threads = threads.min(cells.len());
        if threads <= 1 {
            let mut stepper = Stepper {
                env,
                cells,
                core,
                sync: None,
            };
            return body(&mut stepper);
        }
        let sync = CycleSync {
            start: Barrier::new(threads + 1),
            done: Barrier::new(threads + 1),
            now: AtomicU64::new(core.now),
            stop: AtomicBool::new(false),
            panics: (0..threads).map(|_| Mutex::new(None)).collect(),
        };
        let env: &RunEnv = env;
        let cells: &[Mutex<RouterCell>] = cells;
        std::thread::scope(|scope| {
            let chunk = cells.len().div_ceil(threads);
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(cells.len());
                let sync = &sync;
                let profile = env.profile.as_ref();
                scope.spawn(move || loop {
                    // Worker-side phase timing (when profiling is on):
                    // time parked on either barrier is "barrier wait" —
                    // both chunk imbalance and the serial phases the
                    // main thread runs in between — and the chunk loop
                    // is this lane's compute span.
                    let wait = profile.map(|_| Instant::now());
                    sync.start.wait();
                    if sync.stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let (Some(p), Some(w)) = (profile, wait) {
                        p.lane(t).add_barrier(w);
                    }
                    let now = sync.now.load(Ordering::Acquire);
                    let span = profile.map(|_| Instant::now());
                    let compute = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        compute_cells(env, &cells[lo..hi], lo, now);
                    }));
                    if let Err(payload) = compute {
                        *sync.panics[t].lock().unwrap_or_else(|e| e.into_inner()) = Some(payload);
                    }
                    if let (Some(p), Some(s)) = (profile, span) {
                        p.lane(t).add_compute(s);
                    }
                    let wait = profile.map(|_| Instant::now());
                    sync.done.wait();
                    if let (Some(p), Some(w)) = (profile, wait) {
                        p.lane(t).add_barrier(w);
                    }
                });
            }
            let guard = StopGuard { sync: &sync };
            let mut stepper = Stepper {
                env,
                cells,
                core,
                sync: Some(&sync),
            };
            let result = body(&mut stepper);
            drop(guard);
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::network::Network;

    fn config() -> SimConfig {
        let mut b = SimConfig::builder();
        b.injection_rate(0.2).seed(7);
        b.build().unwrap()
    }

    #[test]
    fn worker_pool_is_cycle_identical_to_serial() {
        let mut a = Network::new(config());
        let mut b = Network::new(config());
        a.with_stepper(1, |st| {
            for _ in 0..500 {
                st.step();
            }
        });
        b.with_stepper(4, |st| {
            for _ in 0..500 {
                st.step();
            }
        });
        assert_eq!(a.packets_injected(), b.packets_injected());
        assert_eq!(a.packets_ejected(), b.packets_ejected());
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.events, sb.events);
        assert_eq!(sa.errors, sb.errors);
        assert_eq!(a.latency_percentiles(), b.latency_percentiles());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let mut net = Network::new(config());
        // Poison a cell lock so the worker that owns it panics inside
        // its compute phase (`lock().unwrap()`), as a violated
        // debug-assert in router logic would.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = net.cells[0].lock().unwrap();
            panic!("poison the cell");
        }));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.with_stepper(2, |st| st.step())
        }));
        assert!(caught.is_err(), "worker panic must surface, not deadlock");
    }

    #[test]
    fn pool_survives_a_panicking_body() {
        let mut net = Network::new(config());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.with_stepper(2, |st| {
                st.step();
                panic!("driver body panic");
            })
        }));
        assert!(caught.is_err(), "panic must propagate, not deadlock");
    }
}
