//! The cycle driver: [`Stepper`] runs pre → compute → commit, with the
//! compute phase swept in place or fanned out across a hand-rolled
//! `std::thread::scope` worker pool.
//!
//! Zero dependencies, zero `unsafe`, no locks around routers: the
//! network owns a plain `Vec<RouterCell>`, [`Network::with_stepper`]
//! splits it once into one `&mut` chunk per worker, and owning a chunk
//! is what synchronises the pool. Pre and commit run on the calling
//! thread while every chunk is home; for the compute span the driver
//! lends each worker its chunk over a channel and blocks until it comes
//! back. With `threads <= 1` there is one chunk, no pool, and the sweep
//! runs in place ([`Network::step`] is one such step). Compute is
//! cross-router-pure (see [`crate::network`]), so any thread count is
//! byte-identical at the same seed.
//!
//! Panics are part of that contract: a worker catches a compute-phase
//! panic and sends it home with the chunk; once every chunk is back the
//! driver replays the lowest-indexed worker's payload — the panic the
//! serial schedule would have raised — so a fuzz campaign's
//! `catch_unwind` sees identical payloads at any thread count. Dropping
//! the stepper drops the lending channels, which stops the workers, on
//! normal exit and on unwinding alike.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use ftnoc_metrics::{MeshTelemetry, ProfileSnapshot};
use ftnoc_trace::TraceSink;

use crate::network::{
    collect_telemetry, compute_cells, Cells, NetCore, Network, Progress, RouterCell, RunEnv,
};

/// A compute-phase panic caught on a worker.
type Panic = Box<dyn Any + Send>;

/// The driver's end of one pool worker.
struct Worker<'a> {
    /// Lends the worker its chunk for the compute span of one cycle.
    lend: Sender<(u64, &'a mut [RouterCell])>,
    /// Brings the chunk back, with the panic its sweep raised, if any.
    back: Receiver<(&'a mut [RouterCell], Option<Panic>)>,
}

/// A cycle driver borrowed from [`Network::with_stepper`]: steps the
/// simulation with the compute phase spread across the worker pool
/// (or serially when no pool was requested).
pub struct Stepper<'a, S: TraceSink> {
    env: &'a RunEnv,
    cells: Cells<'a>,
    core: &'a mut NetCore<S>,
    /// One per chunk of `cells`; empty on the serial arm.
    workers: Vec<Worker<'a>>,
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
        self.core.pre(self.env, &mut self.cells, now);
        if let (Some(p), Some(t)) = (profile, span) {
            p.add_pre(t);
        }
        if self.workers.is_empty() {
            let span = profile.map(|_| Instant::now());
            compute_cells(self.env, self.cells.chunks[0], 0, now);
            if let (Some(p), Some(t)) = (profile, span) {
                p.lane(0).add_compute(t);
            }
        } else {
            for (worker, chunk) in self.workers.iter().zip(self.cells.chunks.drain(..)) {
                worker
                    .lend
                    .send((now, chunk))
                    .expect("workers live as long as the stepper");
            }
            // Collect in worker order: the chunks go back in place, and
            // the first payload seen is the lowest-indexed router's.
            let mut panic = None;
            for worker in &self.workers {
                let (chunk, caught) = worker
                    .back
                    .recv()
                    .expect("a worker always returns its chunk");
                self.cells.chunks.push(chunk);
                panic = panic.or(caught);
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
        }
        let span = profile.map(|_| Instant::now());
        self.core.commit(self.env, &mut self.cells, now);
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
        self.core.progress(self.env)
    }

    /// A fresh [`crate::snapshot::NetSnapshot`] of the commit-boundary
    /// state. Pure read — taking snapshots does not perturb the
    /// simulation.
    pub fn snapshot(&self) -> crate::snapshot::NetSnapshot {
        let mut out = crate::snapshot::NetSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// Refills `out` with the commit-boundary state, for per-cycle
    /// invariant checking between steps: whatever it held, it comes out
    /// equal to a fresh [`Stepper::snapshot`], reusing its allocations.
    pub fn snapshot_into(&self, out: &mut crate::snapshot::NetSnapshot) {
        crate::network::build_snapshot_into(self.env, self.cells.iter(), self.core, out);
    }

    /// Marks the beginning of the measurement window.
    pub fn start_measurement(&mut self) {
        self.core.start_measurement(self.cells.iter());
    }

    /// Harvests every router's hotspot counters (same snapshot
    /// [`Network::telemetry`] takes after the run).
    pub fn telemetry(&self) -> MeshTelemetry {
        collect_telemetry(self.env, self.cells.iter())
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
    /// is one chunk hand-off per worker rather than thread spawns.
    pub fn with_stepper<R>(
        &mut self,
        threads: usize,
        body: impl FnOnce(&mut Stepper<'_, S>) -> R,
    ) -> R {
        let Network { env, cells, core } = self;
        let env: &RunEnv = env;
        let chunk_len = cells.len().div_ceil(threads.max(1));
        let chunks: Vec<_> = cells.chunks_mut(chunk_len).collect();
        let pool = chunks.len();
        let cells = Cells { chunks, chunk_len };
        let run = |workers| {
            body(&mut Stepper {
                env,
                cells,
                core,
                workers,
            })
        };
        if pool <= 1 {
            return run(Vec::new());
        }
        std::thread::scope(|scope| {
            let profile = env.profile.as_ref();
            let spawn = |t: usize| {
                let (lend, borrowed) = channel::<(u64, &mut [RouterCell])>();
                let (give_back, back) = channel();
                scope.spawn(move || loop {
                    // Profiling: time parked waiting for the chunk is
                    // "barrier wait" (chunk imbalance plus the serial
                    // phases in between); the sweep is this lane's
                    // compute span.
                    let wait = profile.map(|_| Instant::now());
                    // The stepper is gone once its senders are.
                    let Ok((now, chunk)) = borrowed.recv() else {
                        break;
                    };
                    if let (Some(p), Some(w)) = (profile, wait) {
                        p.lane(t).add_barrier(w);
                    }
                    let span = profile.map(|_| Instant::now());
                    let sweep = AssertUnwindSafe(|| compute_cells(env, chunk, t * chunk_len, now));
                    let caught = catch_unwind(sweep).err();
                    if let (Some(p), Some(s)) = (profile, span) {
                        p.lane(t).add_compute(s);
                    }
                    if give_back.send((chunk, caught)).is_err() {
                        break;
                    }
                });
                Worker { lend, back }
            };
            run((0..pool).map(spawn).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use ftnoc_types::flit::{Flit, FlitKind};
    use ftnoc_types::geom::{Direction, NodeId};
    use ftnoc_types::packet::PacketId;
    use ftnoc_types::Header;

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
        a.with_stepper(1, |st| {
            for _ in 0..500 {
                st.step();
            }
        });
        // 64 routers over 4 workers split evenly; over 5 the chunks are
        // four of 13 and one of 12.
        for threads in [4, 5] {
            let mut b = Network::new(config());
            b.with_stepper(threads, |st| {
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
    }

    /// Puts a flit naming a VC that does not exist on `node`'s inbound
    /// wire from `dir`, so the router's arrival stage indexes out of
    /// bounds — a compute-phase panic whose message carries `vc`.
    fn corrupt(net: &mut Network, node: usize, dir: Direction, vc: u8) {
        let header = Header::new(NodeId::new(0), NodeId::new(1));
        let flit = Flit::new(PacketId::new(u64::MAX), 0, FlitKind::Head, header, 0, 0);
        net.cells[node].io.flit_in[dir.index()]
            .as_mut()
            .expect("the wire exists")
            .send_flit(flit, vc, 0);
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        for threads in [1, 2] {
            let mut net = Network::new(config());
            // One corrupt cell in each half of the mesh: both sweeps of
            // a two-worker pool panic in the same cycle.
            corrupt(&mut net, 3, Direction::East, 200);
            corrupt(&mut net, 60, Direction::East, 201);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.with_stepper(threads, |st| {
                    st.step();
                    st.step();
                })
            }));
            let payload = caught.expect_err("the compute panic must surface, not hang");
            let message = payload.downcast_ref::<String>().expect("an index panic");
            assert!(
                message.contains("index is 200"),
                "threads={threads}: expected router 3's panic, got {message:?}"
            );
        }
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
