//! Cycle-accurate simulator of the paper's evaluation platform (§2.2).
//!
//! A 64-node (8×8 by default) mesh of 3-stage pipelined virtual-channel
//! wormhole routers with credit-based flow control, 5 physical channels
//! per router, 3 VCs per channel and 4-flit packets. The simulator
//! operates at the granularity of individual architectural components —
//! routing unit, VC allocator, switch allocator, crossbar, retransmission
//! buffers, links — "accurately emulating their functionalities", and
//! plugs in the fault-tolerance schemes of `ftnoc-core`:
//!
//! - link-error handling: HBH retransmission, E2E retransmission or
//!   FEC-only ([`config::ErrorScheme`]);
//! - intra-router logic-error handling: the Allocation Comparator, RT/SA
//!   recovery paths (§4);
//! - deadlock detection (probing, §3.2.2) and recovery via
//!   retransmission buffers (§3.2.1).
//!
//! Determinism: all randomness flows from the seed in [`SimConfig`]; the
//! same configuration always produces bit-identical results.
//!
//! # Examples
//!
//! ```
//! use ftnoc_sim::{SimConfig, Simulator};
//!
//! let config = SimConfig::builder()
//!     .injection_rate(0.1)
//!     .warmup_packets(200)
//!     .measure_packets(800)
//!     .build()?;
//! let report = Simulator::new(config).run();
//! assert!(report.packets_ejected >= 800);
//! assert!(report.avg_latency > 0.0);
//! # Ok::<(), ftnoc_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod arbiter;
pub mod config;
pub(crate) mod engine;
pub(crate) mod link;
pub mod network;
pub mod router;
pub mod routing;
pub mod sim;
pub mod snapshot;
pub mod stats;

pub use config::{DeadlockConfig, ErrorScheme, RoutingAlgorithm, SimConfig, SimConfigBuilder};
pub use engine::Stepper;
pub use network::{Network, Progress};
pub use sim::{SimReport, Simulator};
pub use snapshot::NetSnapshot;
pub use stats::{NetworkStats, OccupancyHistogram};
