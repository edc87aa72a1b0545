//! Error types for configuration validation.

use std::error::Error;
use std::fmt;

use crate::geom::{Direction, NodeId};

/// Errors produced while validating a router or topology configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A grid dimension was zero.
    ZeroDimension,
    /// Fewer than two terminals: a traffic source has no destination
    /// to draw (a 1×1 mesh or torus, a 1×1 cmesh at concentration 1).
    TooFewTerminals(usize),
    /// More terminals than the 65 536 that 16-bit terminal ids can name
    /// (a 91×91 cmesh at concentration 8 has 66 248).
    TooManyTerminals(usize),
    /// The number of virtual channels per port was zero or above 64.
    InvalidVcCount(usize),
    /// Per-VC buffer depth outside `1..=1024` (the ceiling bounds what a
    /// text input can make every port allocate).
    InvalidBufferDepth(usize),
    /// The retransmission buffer depth does not cover the NACK round
    /// trip, or is above the 1024-slot ceiling.
    InvalidRetransmissionDepth {
        /// Requested depth.
        requested: usize,
        /// Minimum required depth (link + check + NACK = 3).
        minimum: usize,
    },
    /// Packet length outside `1..=256`.
    InvalidPacketLength(usize),
    /// A router kill combined with packets longer than the 128 flit
    /// sequence numbers the loss ledger's per-packet mask can hold.
    PacketTooLongForLossLedger(usize),
    /// DAMQ pool too small for one reserved slot per VC plus a shared
    /// slot, or above the 1024-slot sanity cap.
    InvalidDamqPool {
        /// Requested pool size in flits.
        requested: usize,
        /// Minimum required pool size (`vcs_per_port + 1`).
        minimum: usize,
    },
    /// Injection rate outside `(0, 1]` flits/node/cycle.
    InvalidInjectionRate(f64),
    /// The deadlock probe's blocking threshold (`Cthres`) was zero:
    /// every momentarily blocked flit would launch a probe.
    ZeroBlockingThreshold,
    /// A soft-fault rate that is not a probability (outside `[0, 1]`,
    /// or NaN).
    InvalidFaultRate {
        /// The fault site the rate belongs to (`link`, `rt`, …).
        site: &'static str,
        /// The offending value.
        rate: f64,
    },
    /// A hard-fault entry names a router the topology does not have.
    FaultNodeOutOfRange {
        /// The offending router.
        node: NodeId,
        /// Routers in the topology.
        nodes: usize,
    },
    /// A hard-fault entry names a link the topology does not have: a
    /// mesh edge, a suppressed chiplet boundary, or the `Local` PE port.
    FaultLinkAbsent {
        /// The endpoint the entry names.
        node: NodeId,
        /// The direction of the missing link as seen from `node`.
        dir: Direction,
    },
    /// A scheduled kill targets a link or router that an at-reset fault
    /// or an earlier kill (in schedule order) has already taken down.
    FaultTargetAlreadyDead {
        /// The cycle of the offending kill.
        at: u64,
        /// The router, or the endpoint of the link.
        node: NodeId,
        /// The link's direction as seen from `node`; `None` for a
        /// whole-router kill.
        dir: Option<Direction>,
    },
    /// Concentrated-mesh concentration outside `1..=8`.
    InvalidConcentration(u8),
    /// Chiplet tile dimensions that are zero or do not evenly divide the
    /// router grid.
    InvalidChipletDims {
        /// Router-grid width.
        width: u8,
        /// Router-grid height.
        height: u8,
        /// Tile width in routers.
        chip_w: u8,
        /// Tile height in routers.
        chip_h: u8,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDimension => write!(f, "grid dimensions must be non-zero"),
            ConfigError::TooFewTerminals(n) => {
                write!(f, "topology has {n} terminal(s), traffic needs at least 2")
            }
            ConfigError::TooManyTerminals(n) => {
                write!(
                    f,
                    "topology has {n} terminals, 16-bit terminal ids name at most 65536"
                )
            }
            ConfigError::InvalidVcCount(n) => {
                write!(f, "virtual channel count {n} outside 1..=64")
            }
            ConfigError::InvalidBufferDepth(n) => {
                write!(f, "per-VC buffer depth {n} outside 1..=1024")
            }
            ConfigError::InvalidRetransmissionDepth { requested, minimum } => write!(
                f,
                "retransmission depth {requested} outside {minimum}..=1024 \
                 (the NACK round trip is the floor)"
            ),
            ConfigError::InvalidPacketLength(n) => {
                write!(f, "packet length {n} outside 1..=256")
            }
            ConfigError::PacketTooLongForLossLedger(n) => write!(
                f,
                "packet length {n} above the 128 flits the loss ledger tracks under a router kill"
            ),
            ConfigError::InvalidDamqPool { requested, minimum } => write!(
                f,
                "damq pool size {requested} outside {minimum}..=1024 \
                 (one reserved slot per VC plus at least one shared slot)"
            ),
            ConfigError::InvalidInjectionRate(r) => {
                write!(f, "injection rate {r} outside (0, 1] flits/node/cycle")
            }
            ConfigError::ZeroBlockingThreshold => {
                write!(
                    f,
                    "the deadlock blocking threshold (cthres) must be non-zero"
                )
            }
            ConfigError::InvalidFaultRate { site, rate } => {
                write!(f, "fault rate `{site}` = {rate} is not a probability")
            }
            ConfigError::FaultNodeOutOfRange { node, nodes } => {
                write!(f, "fault node {node} out of range for {nodes} routers")
            }
            ConfigError::FaultLinkAbsent { node, dir } => {
                write!(f, "no link {node}:{dir} in the topology")
            }
            ConfigError::FaultTargetAlreadyDead { at, node, dir } => match dir {
                Some(dir) => write!(f, "link kill at cycle {at}: {node}:{dir} is already dead"),
                None => write!(f, "router kill at cycle {at}: {node} is already dead"),
            },
            ConfigError::InvalidConcentration(c) => {
                write!(f, "concentration {c} outside 1..=8")
            }
            ConfigError::InvalidChipletDims {
                width,
                height,
                chip_w,
                chip_h,
            } => write!(
                f,
                "chiplet tile {chip_w}x{chip_h} must be non-zero and evenly divide \
                 the {width}x{height} router grid"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            ConfigError::ZeroDimension.to_string(),
            ConfigError::TooFewTerminals(1).to_string(),
            ConfigError::TooManyTerminals(66_248).to_string(),
            ConfigError::InvalidVcCount(0).to_string(),
            ConfigError::InvalidBufferDepth(0).to_string(),
            ConfigError::InvalidRetransmissionDepth {
                requested: 2,
                minimum: 3,
            }
            .to_string(),
            ConfigError::InvalidPacketLength(0).to_string(),
            ConfigError::PacketTooLongForLossLedger(200).to_string(),
            ConfigError::InvalidDamqPool {
                requested: 2,
                minimum: 4,
            }
            .to_string(),
            ConfigError::InvalidInjectionRate(1.5).to_string(),
            ConfigError::ZeroBlockingThreshold.to_string(),
            ConfigError::InvalidFaultRate {
                site: "link",
                rate: f64::NAN,
            }
            .to_string(),
            ConfigError::FaultTargetAlreadyDead {
                at: 10,
                node: NodeId::new(5),
                dir: None,
            }
            .to_string(),
        ];
        for msg in msgs {
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ConfigError>();
    }
}
