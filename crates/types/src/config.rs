//! Router micro-architecture configuration.
//!
//! [`RouterConfig`] captures the geometry knobs of the paper's generic
//! virtual-channel wormhole router (Figure 1): physical channels, virtual
//! channels per channel, buffer depths, pipeline depth and packet length.
//! The defaults reproduce §2.2 — 5 PCs, 3 VCs per PC, 4-flit packets,
//! 3-stage pipeline, 3-deep retransmission buffers.

use crate::error::ConfigError;

/// Number of physical channels of a 2-D mesh router (N, E, S, W, PE).
pub const MESH_PORTS: usize = 5;

/// Minimum retransmission-buffer depth: link traversal (1) + error check
/// (1) + NACK propagation (1), per §3.1.
pub const MIN_RETRANS_DEPTH: usize = 3;

/// Ceiling on every per-VC or per-port storage depth (`buffer_depth`,
/// `retrans_depth`, the DAMQ pool): each router allocates them up front,
/// so an unchecked text input aborts the process in the allocator.
const MAX_DEPTH: usize = 1024;

/// Router pipeline organisations analysed in §4 of the paper.
///
/// The number of stages determines both baseline per-hop latency and the
/// recovery latency of the logic-error counter-measures; both are read
/// from one table, [`PipelineDepth::timing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum PipelineDepth {
    /// Fully parallel single-stage router (Mullins et al.), look-ahead routing.
    One = 1,
    /// Two stages via aggressive speculation, look-ahead routing.
    Two = 2,
    /// Three stages (the paper's evaluation platform, §2.2): the route
    /// is computed at the current node in the head's arrival cycle (no
    /// RT stage of its own), then VA → SA → crossbar.
    #[default]
    Three = 3,
    /// Canonical four stages: RT → VA → SA → crossbar (Figure 2).
    Four = 4,
}

/// One row of the pipeline-timing table: the gaps between the router's
/// stages and the §4.2 routing-unit recovery cost that depends on how
/// the depth routes. A head written into an input buffer at cycle `t` is
/// VC-allocated at `t + 1 + rc_extra`, switch-allocated `va_to_sa`
/// cycles later and crosses the crossbar `sa_to_st` cycles after that:
/// `stages` cycles in the router. The §4.2 open-path misdirection under
/// deterministic routing costs NACK + re-route and retransmission,
/// `1 + stages`, at every depth, so it is no column here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineTiming {
    /// Route-computation cycles beyond the arrival cycle.
    pub rc_extra: u64,
    /// Cycles from VC allocation to switch allocation.
    pub va_to_sa: u64,
    /// Cycles from a switch grant to crossbar traversal.
    pub sa_to_st: u64,
    /// §4.2, a misdirection toward a blocked or absent link: re-routing
    /// (current-node routing) or NACK + re-route (look-ahead routing).
    pub rt_blocked: u64,
}

/// The pipeline-timing table, one row per depth from 1 stage.
const TIMING: [PipelineTiming; 4] = [
    PipelineTiming {
        rc_extra: 0,
        va_to_sa: 0,
        sa_to_st: 0,
        rt_blocked: 2,
    },
    PipelineTiming {
        rc_extra: 0,
        va_to_sa: 0,
        sa_to_st: 1,
        rt_blocked: 3,
    },
    PipelineTiming {
        rc_extra: 0,
        va_to_sa: 1,
        sa_to_st: 1,
        rt_blocked: 1,
    },
    PipelineTiming {
        rc_extra: 1,
        va_to_sa: 1,
        sa_to_st: 1,
        rt_blocked: 1,
    },
];

impl PipelineDepth {
    /// Number of pipeline stages.
    pub const fn stages(self) -> u32 {
        self as u32
    }

    /// This organisation's row of the pipeline-timing table: what the
    /// router's stages wait for and what `recovery_latency` reports.
    pub const fn timing(self) -> PipelineTiming {
        TIMING[self as usize - 1]
    }

    /// The organisation with `n` stages, if `1 <= n <= 4`.
    pub fn from_stages(n: u64) -> Option<Self> {
        Self::ALL.into_iter().find(|p| u64::from(p.stages()) == n)
    }

    /// All four organisations.
    pub const ALL: [PipelineDepth; 4] = [
        PipelineDepth::One,
        PipelineDepth::Two,
        PipelineDepth::Three,
        PipelineDepth::Four,
    ];
}

/// Input-buffer organisation of the router's receive side.
///
/// The paper's platform statically partitions each input port into
/// per-VC FIFOs of [`RouterConfig::buffer_depth`] flits. The DAMQ
/// organisation (dynamically-allocated multi-queue, after Jamali &
/// Khademzadeh) instead shares one per-port flit pool between the
/// port's VCs, with **one slot reserved per VC** so an empty VC can
/// always accept a header flit — preserving deadlock-recovery liveness
/// and wormhole progress even when hot VCs monopolise the shared slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferOrg {
    /// Statically-partitioned per-VC FIFOs, `buffer_depth` flits each
    /// (the paper's platform; the default).
    #[default]
    StaticPartition,
    /// Per-input-port shared pool with per-VC logical queues and one
    /// reserved slot per VC.
    Damq {
        /// Total flit slots in the per-port pool (reserved + shared).
        pool_size: usize,
    },
}

/// The one slot-sharing rule of an input port, whatever its
/// [`BufferOrg`]: each VC owns one reserved slot and may hold at most
/// `per_vc` flits; every flit a VC holds beyond its first occupies one
/// of `shared` slots common to the port. The static partition is the
/// value whose shared region never binds, the DAMQ the value whose
/// per-VC cap never binds (see [`RouterConfig::port_capacity`]).
/// Either way an empty VC can always take one flit — the premise of
/// the §3.2 recovery schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortCapacity {
    /// Most flits one VC may hold.
    pub per_vc: usize,
    /// Slots the port's VCs share beyond their reserved one.
    pub shared: usize,
}

impl PortCapacity {
    /// `vcs` private FIFOs of `depth` flits each: the shared region
    /// holds exactly every VC's slots beyond its first.
    pub const fn partitioned(vcs: usize, depth: usize) -> Self {
        PortCapacity {
            per_vc: depth,
            shared: vcs * (depth - 1),
        }
    }

    /// Slots a VC holding `len` flits may still take while the port's
    /// VCs hold `shared_used` flits beyond their first: its own cap or
    /// the shared slots left (plus its reserved slot when empty),
    /// whichever is smaller.
    #[inline]
    pub fn free_slots(&self, len: usize, shared_used: usize) -> usize {
        let pooled = self.shared.saturating_sub(shared_used) + usize::from(len == 0);
        (self.per_vc - len).min(pooled)
    }
}

/// Static configuration of one router (and, by replication, the network).
///
/// Construct via [`RouterConfig::builder`]; [`RouterConfig::default`]
/// reproduces the paper's platform.
///
/// # Examples
///
/// ```
/// use ftnoc_types::config::{PipelineDepth, RouterConfig};
///
/// let cfg = RouterConfig::builder()
///     .vcs_per_port(4)
///     .buffer_depth(8)
///     .pipeline(PipelineDepth::Two)
///     .build()?;
/// assert_eq!(cfg.vcs_per_port(), 4);
/// assert_eq!(cfg.buffer_depth(), 8);
/// # Ok::<(), ftnoc_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouterConfig {
    ports: usize,
    vcs_per_port: usize,
    buffer_depth: usize,
    retrans_depth: usize,
    flits_per_packet: usize,
    pipeline: PipelineDepth,
    buffer_org: BufferOrg,
}

impl RouterConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder::new()
    }

    /// Number of physical channels (ports), including the PE port.
    pub const fn ports(&self) -> usize {
        self.ports
    }

    /// Virtual channels per physical channel.
    pub const fn vcs_per_port(&self) -> usize {
        self.vcs_per_port
    }

    /// Per-VC input (transmission) buffer depth in flits.
    pub const fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// Per-VC retransmission buffer depth in flits (barrel shifter).
    pub const fn retrans_depth(&self) -> usize {
        self.retrans_depth
    }

    /// Flits per packet (the paper's message length, 4).
    pub const fn flits_per_packet(&self) -> usize {
        self.flits_per_packet
    }

    /// Pipeline organisation.
    pub const fn pipeline(&self) -> PipelineDepth {
        self.pipeline
    }

    /// Input-buffer organisation of the receive side.
    pub const fn buffer_org(&self) -> BufferOrg {
        self.buffer_org
    }

    /// The slot-sharing rule of every input port (and of the credit
    /// ledger that mirrors one): a static partition caps each VC at
    /// `buffer_depth`, a DAMQ shares `pool − vcs` slots and caps a VC
    /// only by its reservation plus that whole region.
    pub const fn port_capacity(&self) -> PortCapacity {
        match self.buffer_org {
            BufferOrg::StaticPartition => {
                PortCapacity::partitioned(self.vcs_per_port, self.buffer_depth)
            }
            BufferOrg::Damq { pool_size } => {
                let shared = pool_size - self.vcs_per_port;
                PortCapacity {
                    per_vc: shared + 1,
                    shared,
                }
            }
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfigBuilder::new()
            .build()
            .expect("default configuration is valid")
    }
}

/// Builder for [`RouterConfig`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    ports: usize,
    vcs_per_port: usize,
    buffer_depth: usize,
    retrans_depth: usize,
    flits_per_packet: usize,
    pipeline: PipelineDepth,
    buffer_org: BufferOrg,
}

impl RouterConfigBuilder {
    /// Creates a builder initialised to the paper's §2.2 platform.
    pub fn new() -> Self {
        RouterConfigBuilder {
            ports: MESH_PORTS,
            vcs_per_port: 3,
            buffer_depth: 4,
            retrans_depth: MIN_RETRANS_DEPTH,
            flits_per_packet: 4,
            pipeline: PipelineDepth::Three,
            buffer_org: BufferOrg::StaticPartition,
        }
    }

    /// Sets the router radix: 4 cardinal ports plus one local port per
    /// attached terminal (5 everywhere except a concentrated mesh).
    pub fn ports(&mut self, ports: usize) -> &mut Self {
        self.ports = ports;
        self
    }

    /// Sets the number of virtual channels per physical channel.
    pub fn vcs_per_port(&mut self, vcs: usize) -> &mut Self {
        self.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC input buffer depth in flits.
    pub fn buffer_depth(&mut self, depth: usize) -> &mut Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the per-VC retransmission buffer depth in flits.
    pub fn retrans_depth(&mut self, depth: usize) -> &mut Self {
        self.retrans_depth = depth;
        self
    }

    /// Sets the packet length in flits.
    pub fn flits_per_packet(&mut self, flits: usize) -> &mut Self {
        self.flits_per_packet = flits;
        self
    }

    /// Sets the pipeline organisation.
    pub fn pipeline(&mut self, pipeline: PipelineDepth) -> &mut Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the input-buffer organisation.
    pub fn buffer_org(&mut self, org: BufferOrg) -> &mut Self {
        self.buffer_org = org;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any knob is outside its valid range
    /// (buffer depth outside `1..=1024`, VC count outside `1..=64`,
    /// retransmission depth below the 3-cycle NACK round trip or above
    /// 1024, packet length outside `1..=256`).
    pub fn build(&self) -> Result<RouterConfig, ConfigError> {
        if self.vcs_per_port == 0 || self.vcs_per_port > 64 {
            return Err(ConfigError::InvalidVcCount(self.vcs_per_port));
        }
        if self.ports < MESH_PORTS || self.ports > 12 {
            return Err(ConfigError::InvalidConcentration(
                (self.ports.max(4) - 4) as u8,
            ));
        }
        if self.buffer_depth == 0 || self.buffer_depth > MAX_DEPTH {
            return Err(ConfigError::InvalidBufferDepth(self.buffer_depth));
        }
        if self.retrans_depth < MIN_RETRANS_DEPTH || self.retrans_depth > MAX_DEPTH {
            return Err(ConfigError::InvalidRetransmissionDepth {
                requested: self.retrans_depth,
                minimum: MIN_RETRANS_DEPTH,
            });
        }
        if self.flits_per_packet == 0 || self.flits_per_packet > 256 {
            return Err(ConfigError::InvalidPacketLength(self.flits_per_packet));
        }
        if let BufferOrg::Damq { pool_size } = self.buffer_org {
            // One reserved slot per VC plus at least one shared slot —
            // a pool without sharing is strictly worse than a static
            // partition and defeats the organisation's purpose.
            let minimum = self.vcs_per_port + 1;
            if pool_size < minimum || pool_size > MAX_DEPTH {
                return Err(ConfigError::InvalidDamqPool {
                    requested: pool_size,
                    minimum,
                });
            }
        }
        Ok(RouterConfig {
            ports: self.ports,
            vcs_per_port: self.vcs_per_port,
            buffer_depth: self.buffer_depth,
            retrans_depth: self.retrans_depth,
            flits_per_packet: self.flits_per_packet,
            pipeline: self.pipeline,
            buffer_org: self.buffer_org,
        })
    }
}

impl Default for RouterConfigBuilder {
    fn default() -> Self {
        RouterConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.ports(), 5);
        assert_eq!(cfg.vcs_per_port(), 3);
        assert_eq!(cfg.buffer_depth(), 4);
        assert_eq!(cfg.retrans_depth(), 3);
        assert_eq!(cfg.flits_per_packet(), 4);
        assert_eq!(cfg.pipeline(), PipelineDepth::Three);
        assert_eq!(crate::flit::FLIT_TOTAL_BITS, 72);
    }

    #[test]
    fn builder_rejects_zero_vcs() {
        let err = RouterConfig::builder().vcs_per_port(0).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidVcCount(0));
    }

    #[test]
    fn builder_rejects_oversized_vcs() {
        let err = RouterConfig::builder()
            .vcs_per_port(65)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidVcCount(65));
    }

    #[test]
    fn builder_rejects_out_of_range_buffer_depth() {
        for depth in [0, 1025, usize::MAX] {
            let err = RouterConfig::builder()
                .buffer_depth(depth)
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::InvalidBufferDepth(depth));
        }
        assert!(RouterConfig::builder().buffer_depth(1024).build().is_ok());
    }

    #[test]
    fn builder_rejects_out_of_range_retransmission_depth() {
        for requested in [2, 1025, usize::MAX] {
            let err = RouterConfig::builder()
                .retrans_depth(requested)
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidRetransmissionDepth {
                    requested,
                    minimum: 3
                }
            );
        }
    }

    #[test]
    fn builder_rejects_bad_packet_length() {
        let err = RouterConfig::builder()
            .flits_per_packet(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidPacketLength(0));
        let err = RouterConfig::builder()
            .flits_per_packet(300)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidPacketLength(300));
    }

    #[test]
    fn pipeline_depth_properties() {
        assert_eq!(PipelineDepth::One.stages(), 1);
        assert_eq!(PipelineDepth::Four.stages(), 4);
        assert_eq!(PipelineDepth::ALL.len(), 4);
    }

    #[test]
    fn default_buffer_org_is_static() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.buffer_org(), BufferOrg::StaticPartition);
        assert_eq!(cfg.port_capacity(), PortCapacity::partitioned(3, 4));
    }

    #[test]
    fn builder_rejects_undersized_damq_pool() {
        let err = RouterConfig::builder()
            .buffer_org(BufferOrg::Damq { pool_size: 3 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidDamqPool {
                requested: 3,
                minimum: 4
            }
        );
        let err = RouterConfig::builder()
            .buffer_org(BufferOrg::Damq { pool_size: 2048 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidDamqPool { .. }));
    }

    #[test]
    fn builder_accepts_larger_retransmission_buffers() {
        // Deadlock recovery may require deeper buffers (Eq. 1).
        let cfg = RouterConfig::builder().retrans_depth(6).build().unwrap();
        assert_eq!(cfg.retrans_depth(), 6);
    }
}
