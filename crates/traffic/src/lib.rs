//! Synthetic traffic generation for the NoC simulator.
//!
//! Reproduces the three destination distributions of the paper's §2.2 —
//! uniform ("normal random", NR), bit-complement (BC) and tornado (TN) —
//! plus the classic extras (transpose, bit-reverse, shuffle, hotspot,
//! nearest-neighbour) used by the wider NoC literature, and the
//! regular-interval open-loop injection process the paper describes.
//!
//! # Examples
//!
//! ```
//! use ftnoc_traffic::{InjectionProcess, Injector, TrafficPattern};
//! use ftnoc_types::geom::{NodeId, Topology};
//!
//! let topo = Topology::mesh(8, 8);
//! let mut rng = ftnoc_rng::Rng::seed_from_u64(7);
//!
//! // Bit-complement is deterministic: node 0 always sends to node 63.
//! let dest = TrafficPattern::BitComplement.destination(NodeId::new(0), topo, &mut rng);
//! assert_eq!(dest, NodeId::new(63));
//!
//! // Regular injection at 0.25 flits/node/cycle with 4-flit packets
//! // emits one packet every 16 cycles.
//! let mut inj = Injector::new(0.25, 4, InjectionProcess::Regular)?;
//! let packets: u32 = (0..160).map(|_| inj.packets_this_cycle(&mut rng)).sum();
//! assert_eq!(packets, 10);
//! # Ok::<(), ftnoc_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod injector;
pub mod pattern;

pub use injector::{InjectionProcess, Injector};
pub use pattern::{FlowTable, TrafficPattern};
