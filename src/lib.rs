//! # ftnoc — Fault-Tolerant Network-on-Chip Architectures
//!
//! A from-scratch Rust reproduction of Park, Nicopoulos, Kim,
//! Vijaykrishnan and Das, *"Exploring Fault-Tolerant Network-on-Chip
//! Architectures"*, DSN 2006 — the complete system: a cycle-accurate
//! virtual-channel wormhole NoC simulator, the paper's hop-by-hop
//! retransmission scheme, the retransmission-buffer deadlock recovery
//! with its probing protocol, the Allocation Comparator, and the
//! energy/area models behind its tables and figures.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `ftnoc-types` | flits, packets, geometry, configuration |
//! | [`ecc`] | `ftnoc-ecc` | SEC/DED Hamming(72,64), parity, CRC, TMR |
//! | [`traffic`] | `ftnoc-traffic` | NR/BC/TN destination patterns, injectors |
//! | [`fault`] | `ftnoc-fault` | seeded soft/hard fault injection |
//! | [`power`] | `ftnoc-power` | 90 nm energy/area models, Table 1 |
//! | [`core`] | `ftnoc-core` | retransmission buffer, HBH/E2E endpoints, deadlock recovery, AC |
//! | [`sim`] | `ftnoc-sim` | the cycle-accurate network simulator |
//! | [`check`] | `ftnoc-check` | cycle-level invariant oracle, fault-campaign fuzzer |
//! | [`metrics`] | `ftnoc-metrics` | phase profiler, hotspot telemetry, metrics JSONL |
//!
//! # Quickstart
//!
//! Simulate the paper's platform — an 8×8 mesh of 3-stage routers with
//! hop-by-hop retransmission — under a 1 % link soft-error rate:
//!
//! ```
//! use ftnoc::prelude::*;
//!
//! let config = SimConfig::builder()
//!     .injection_rate(0.25)               // flits/node/cycle (§2.2)
//!     .faults(FaultRates::link_only(0.01))
//!     .warmup_packets(200)
//!     .measure_packets(800)
//!     .build()?;
//! let report = Simulator::new(config).run();
//!
//! assert!(report.completed);
//! assert_eq!(report.errors.misdelivered, 0); // HBH never misroutes
//! println!("avg latency: {:.1} cycles", report.avg_latency);
//! # Ok::<(), ftnoc::types::ConfigError>(())
//! ```
//!
//! See the `examples/` directory for the Figure 4 retransmission trace,
//! the Figure 10 deadlock-recovery walk-through, scheme comparisons and
//! fault sweeps, and `ftnoc-bench` for the full table/figure
//! regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod cli;
pub mod metrics_io;

pub use ftnoc_check as check;
pub use ftnoc_core as core;
pub use ftnoc_ecc as ecc;
pub use ftnoc_fault as fault;
pub use ftnoc_metrics as metrics;
pub use ftnoc_netlist as netlist;
pub use ftnoc_power as power;
pub use ftnoc_sim as sim;
pub use ftnoc_traffic as traffic;
pub use ftnoc_types as types;

/// The most common imports, bundled.
pub mod prelude {
    pub use ftnoc_core::deadlock::{DeadlockCycleSpec, RecoveryRing};
    pub use ftnoc_core::{AllocationComparator, HbhReceiver, RetransmissionBuffer};
    pub use ftnoc_fault::{
        FaultCause, FaultEvent, FaultPlan, FaultRates, FaultTimeline, HardFaults, ScheduledKill,
        ScheduledRouterKill, WearoutSpec,
    };
    pub use ftnoc_power::{EnergyModel, Table1};
    pub use ftnoc_sim::{
        DeadlockConfig, ErrorScheme, RoutingAlgorithm, SimConfig, SimReport, Simulator,
    };
    pub use ftnoc_traffic::{InjectionProcess, TrafficPattern};
    pub use ftnoc_types::config::{PipelineDepth, RouterConfig};
    pub use ftnoc_types::geom::{Coord, Direction, NodeId, Topology};
    pub use ftnoc_types::{Flit, FlitKind, Header, Packet, PacketId};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_crates() {
        use crate::prelude::*;
        let topo = Topology::mesh(8, 8);
        assert_eq!(topo.node_count(), 64);
        let spec = DeadlockCycleSpec::uniform(3, 4, 3, 4);
        assert!(spec.recovery_is_guaranteed());
        let t1 = Table1::compute();
        assert!(t1.area_overhead_percent() < 3.0);
    }
}
