//! Base types shared by every crate in the `ftnoc` workspace.
//!
//! This crate defines the vocabulary of the reproduction of Park et al.,
//! *"Exploring Fault-Tolerant Network-on-Chip Architectures"* (DSN 2006):
//! flits and packets ([`flit`], [`packet`]), mesh/torus geometry ([`geom`]),
//! router/network configuration ([`config`]) and small unit newtypes
//! ([`units`]).
//!
//! # Examples
//!
//! ```
//! use ftnoc_types::geom::{Coord, Direction, Topology};
//!
//! let topo = Topology::mesh(8, 8);
//! let a = Coord::new(0, 0);
//! let b = Coord::new(7, 7);
//! assert_eq!(topo.hop_distance(a, b), 14);
//! assert_eq!(topo.neighbor(a, Direction::East), Some(Coord::new(1, 0)));
//! assert_eq!(topo.neighbor(a, Direction::West), None); // mesh edge
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

use std::fmt::Debug;

pub mod config;
pub mod error;
pub mod flit;
pub mod geom;
pub mod packet;
pub mod units;

pub use config::{BufferOrg, PortCapacity, RouterConfig, RouterConfigBuilder};
pub use error::ConfigError;
pub use flit::{Flit, FlitKind, FlitPayload, Header};
pub use geom::{Coord, Direction, NodeId, Topology, TopologyKind};
pub use packet::{Packet, PacketId};
pub use units::{Cycles, Millimeters2, Milliwatts, Nanojoules, Picojoules};

/// The hasher of the run state's hash tables: std's SipHash-1-3 under a
/// fixed key rather than the per-process random one, so the same run
/// executes the same instructions every time. No such table is
/// iterated, so the key never reached an output byte.
pub type FixedKey = std::hash::BuildHasherDefault<std::hash::DefaultHasher>;

/// The value a name table gives `text`. A table lists each value's
/// printed name first and its aliases after it; the CLI flags and the
/// `--repro` spec both parse through these tables.
pub fn lookup<T: Clone>(table: &[(&'static str, T)], text: &str) -> Option<T> {
    table
        .iter()
        .find(|(n, _)| *n == text)
        .map(|(_, v)| v.clone())
}

/// The printed name of `value`: its first row in `table` (`"?"` for a
/// value the table lacks).
pub fn name<T: PartialEq + Debug>(table: &[(&'static str, T)], value: &T) -> &'static str {
    let name = table.iter().find(|(_, t)| t == value).map(|(n, _)| *n);
    debug_assert!(name.is_some(), "{value:?} has no name");
    name.unwrap_or("?")
}
