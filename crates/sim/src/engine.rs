//! The cycle driver: [`Network::step`] runs pre → compute → commit on
//! the calling thread, and [`Stepper`] is the borrowed view of a
//! stepping network that run observers are handed.
//!
//! One thread, no locks, no atomics: the network is plain owned data.
//! The phases stay apart because gated == full-sweep byte-identity
//! rests on their separation (see [`crate::network`]), not because
//! anything runs beside anything else. A compute-phase panic unwinds
//! out of `step` as it was raised; `ftnoc-check`'s `CampaignParams::check`
//! catches it there and reports the payload.

use std::time::Instant;

use ftnoc_metrics::{MeshTelemetry, ProfileSnapshot};
use ftnoc_trace::TraceSink;

use crate::network::{compute_cells, Network, Progress};
use crate::snapshot::NetSnapshot;

impl<S: TraceSink> Network<S> {
    /// Advances the network by one clock cycle.
    ///
    /// With the phase profiler on, the clock is read at the four phase
    /// boundaries, so the three spans abut. The readings go into the
    /// profile and nowhere else — they cannot perturb the simulation.
    pub fn step(&mut self) {
        let now = self.core.now;
        let profiling = self.profile.is_some();
        let clock = || profiling.then(Instant::now);
        let t_pre = clock();
        self.core.pre(&mut self.env, &mut self.cells, now);
        let t_compute = clock();
        compute_cells(&self.env, &mut self.cells, &mut self.scratch, now);
        let t_commit = clock();
        self.core.commit(&mut self.env, &mut self.cells, now);
        if let (Some(p), Some(t0), Some(t1), Some(t2)) =
            (&mut self.profile, t_pre, t_compute, t_commit)
        {
            p.add_step([t0, t1, t2, Instant::now()]);
        }
    }

    /// Runs `body` on a [`Stepper`] over this network. The first
    /// argument (once the compute-phase worker count) is ignored; the
    /// signature stays because `benchmark/src/run.rs` spells it.
    pub fn with_stepper<R>(
        &mut self,
        _threads: usize,
        body: impl FnOnce(&mut Stepper<'_, S>) -> R,
    ) -> R {
        body(&mut Stepper { net: self })
    }
}

/// A stepping network as [`crate::Simulator::run_instrumented`] lends it
/// to its per-cycle observer: the pure reads an emitter takes at commit
/// boundaries, plus the step for whoever holds it mutably.
pub struct Stepper<'a, S: TraceSink> {
    pub(crate) net: &'a mut Network<S>,
}

impl<S: TraceSink> Stepper<'_, S> {
    /// [`Network::step`].
    pub fn step(&mut self) {
        self.net.step();
    }

    /// [`Network::now`].
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// [`Network::progress`].
    pub fn progress(&self) -> Progress {
        self.net.progress()
    }

    /// [`Network::snapshot`].
    pub fn snapshot(&self) -> NetSnapshot {
        self.net.snapshot()
    }

    /// [`Network::telemetry`].
    pub fn telemetry(&self) -> MeshTelemetry {
        self.net.telemetry()
    }

    /// [`Network::profile_snapshot`].
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.net.profile_snapshot()
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

    #[test]
    fn a_compute_panic_reaches_the_caller_of_step_with_its_own_message() {
        let mut b = SimConfig::builder();
        b.injection_rate(0.2).seed(7);
        let mut net = Network::new(b.build().unwrap());
        // A flit naming a VC that does not exist, on router 3's inbound
        // wire: its arrival stage indexes out of bounds at cycle 1.
        let header = Header::new(NodeId::new(0), NodeId::new(1));
        let flit = Flit::new(PacketId::new(u64::MAX), 0, FlitKind::Head, header, 0, 0);
        net.cells[3].io.flit_in[Direction::East.index()]
            .as_mut()
            .expect("the wire exists")
            .send_flit(flit, 200, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.step();
            net.step();
        }));
        let payload = caught.expect_err("the compute panic must surface");
        let message = payload.downcast_ref::<String>().expect("an index panic");
        assert!(
            message.contains("index is 200"),
            "expected router 3's panic, got {message:?}"
        );
    }
}
