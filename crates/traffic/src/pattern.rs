//! Destination distributions.

use std::fmt;

use ftnoc_rng::Rng;
use ftnoc_types::geom::{Coord, NodeId, Topology};

/// A weighted source→destination traffic matrix, for application-shaped
/// workloads (SoC task graphs, client/server flows) rather than
/// synthetic permutations.
///
/// # Examples
///
/// ```
/// use ftnoc_traffic::{FlowTable, TrafficPattern};
/// use ftnoc_types::geom::{NodeId, Topology};
///
/// // A camera at node 0 streams to a filter at node 5; the filter
/// // streams onward to memory at node 63.
/// let flows = FlowTable::new(vec![
///     (NodeId::new(0), NodeId::new(5), 1.0),
///     (NodeId::new(5), NodeId::new(63), 1.0),
/// ])?;
/// let pattern = TrafficPattern::Flows(flows);
/// let mut rng = ftnoc_rng::Rng::seed_from_u64(1);
/// let d = pattern.destination(NodeId::new(0), Topology::mesh(8, 8), &mut rng);
/// assert_eq!(d, NodeId::new(5));
/// # Ok::<(), ftnoc_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTable {
    flows: Vec<(NodeId, NodeId, f64)>,
}

impl FlowTable {
    /// Builds a flow table from `(src, dest, weight)` triples.
    ///
    /// # Errors
    ///
    /// Returns [`ftnoc_types::ConfigError::InvalidInjectionRate`] when a
    /// weight is non-positive or non-finite (weights are relative rates).
    pub fn new(flows: Vec<(NodeId, NodeId, f64)>) -> Result<Self, ftnoc_types::ConfigError> {
        for &(_, _, w) in &flows {
            if !(w.is_finite() && w > 0.0) {
                return Err(ftnoc_types::ConfigError::InvalidInjectionRate(w));
            }
        }
        Ok(FlowTable { flows })
    }

    /// The flows originating at `src`.
    pub(crate) fn flows_from(&self, src: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.flows
            .iter()
            .filter(move |(s, _, _)| *s == src)
            .map(|&(_, d, w)| (d, w))
    }

    /// Weighted destination draw for `src`, or `None` when the node
    /// originates no flow.
    fn pick(&self, src: NodeId, rng: &mut Rng) -> Option<NodeId> {
        let total: f64 = self.flows_from(src).map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let mut roll = rng.gen_range(0.0..total);
        for (dest, w) in self.flows_from(src) {
            if roll < w {
                return Some(dest);
            }
            roll -= w;
        }
        self.flows_from(src).map(|(d, _)| d).next()
    }
}

/// A synthetic destination distribution.
///
/// Deterministic patterns (everything except [`TrafficPattern::Uniform`]
/// and [`TrafficPattern::Hotspot`]) map each source to a fixed
/// destination, mirroring the permutations used throughout the
/// interconnection-network literature. When a pattern maps a node onto
/// itself, [`TrafficPattern::destination`] redirects to the next node so
/// that every injection produces network traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// "Normal random" (NR): uniform over all other nodes.
    Uniform,
    /// Bit-complement (BC): destination id is the bitwise complement of
    /// the source id (for power-of-two node counts; otherwise the
    /// index-mirrored node `N-1-src`).
    BitComplement,
    /// Tornado (TN): each coordinate advances by `⌈k/2⌉ - 1` with
    /// wrap-around, stressing one rotational direction.
    Tornado,
    /// Transpose: `(x, y) → (y, x)` (requires a square grid to be a
    /// permutation; non-square grids clamp into range).
    Transpose,
    /// Bit-reverse: destination id is the bit-reversed source id.
    BitReverse,
    /// Perfect shuffle: destination id is the source id rotated left by
    /// one bit.
    Shuffle,
    /// Hotspot: with probability `fraction`, send to `hotspot`;
    /// otherwise uniform.
    Hotspot {
        /// The favoured destination.
        hotspot: NodeId,
        /// Probability mass sent to the hotspot, in `[0, 1]`.
        fraction: f64,
    },
    /// Nearest neighbour: destination is the next node id (ring order).
    Neighbor,
    /// Application-shaped weighted flow table (SoC task graphs).
    /// Sources with no registered flow fall back to uniform.
    Flows(FlowTable),
}

impl TrafficPattern {
    /// The three patterns evaluated by the paper, in its order.
    pub const PAPER_PATTERNS: [TrafficPattern; 3] = [
        TrafficPattern::Uniform,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
    ];

    /// Text names for [`ftnoc_types::lookup`] / [`ftnoc_types::name`]:
    /// the first row of a value is its printed name, later rows aliases.
    /// `hs` is a fifth of the traffic aimed at node 0.
    pub const NAMES: &'static [(&'static str, TrafficPattern)] = &[
        ("uniform", TrafficPattern::Uniform),
        ("nr", TrafficPattern::Uniform),
        ("bitcomp", TrafficPattern::BitComplement),
        ("bc", TrafficPattern::BitComplement),
        ("tornado", TrafficPattern::Tornado),
        ("tn", TrafficPattern::Tornado),
        ("transpose", TrafficPattern::Transpose),
        ("tp", TrafficPattern::Transpose),
        ("bitrev", TrafficPattern::BitReverse),
        ("br", TrafficPattern::BitReverse),
        ("shuffle", TrafficPattern::Shuffle),
        ("sh", TrafficPattern::Shuffle),
        ("nn", TrafficPattern::Neighbor),
        (
            "hs",
            TrafficPattern::Hotspot {
                hotspot: NodeId::new(0),
                fraction: 0.2,
            },
        ),
    ];

    /// Short name used in tables and plots (`NR`, `BC`, `TN`, …).
    pub fn short_name(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "NR",
            TrafficPattern::BitComplement => "BC",
            TrafficPattern::Tornado => "TN",
            TrafficPattern::Transpose => "TP",
            TrafficPattern::BitReverse => "BR",
            TrafficPattern::Shuffle => "SH",
            TrafficPattern::Hotspot { .. } => "HS",
            TrafficPattern::Neighbor => "NN",
            TrafficPattern::Flows(_) => "FL",
        }
    }

    /// Draws the destination for a packet injected at terminal `src`.
    ///
    /// Sources and destinations are terminal ids — equal to node ids
    /// everywhere except a concentrated mesh, where terminal `t` hangs
    /// off router `t % n`. Permutation patterns act on the router part
    /// and preserve the concentration index; random patterns draw over
    /// the full terminal space.
    ///
    /// Never returns `src` itself: self-addressed mappings are redirected
    /// to the next terminal in id order.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two terminals (no valid
    /// destination exists).
    pub fn destination(&self, src: NodeId, topo: Topology, rng: &mut Rng) -> NodeId {
        let n = topo.node_count();
        let terms = topo.terminal_count();
        assert!(terms >= 2, "traffic requires at least two terminals");
        // The pattern maps routers; the destination terminal sits on the
        // same local port of its router as the source (port 4 when the
        // concentration is 1).
        let r = topo.router_of_terminal(src);
        let port = topo.local_port_of_terminal(src);
        let raw = match self {
            TrafficPattern::Uniform => {
                // Draw uniformly over the other terminals.
                let d = rng.gen_range(0..terms - 1);
                let d = if d >= src.index() { d + 1 } else { d };
                return NodeId::new(d as u16);
            }
            TrafficPattern::BitComplement => {
                if n.is_power_of_two() {
                    let bits = n.trailing_zeros();
                    let mask = (n - 1) as u16;
                    (!r.raw()) & mask & ((1u32 << bits) - 1) as u16
                } else {
                    (n - 1 - r.index()) as u16
                }
            }
            TrafficPattern::Tornado => {
                let c = topo.coord_of(r);
                let w = topo.width() as u16;
                let h = topo.height() as u16;
                let dx = ((c.x() as u16) + w.div_ceil(2) - 1) % w;
                let dy = ((c.y() as u16) + h.div_ceil(2) - 1) % h;
                topo.id_of(Coord::new(dx as u8, dy as u8)).raw()
            }
            TrafficPattern::Transpose => {
                let c = topo.coord_of(r);
                let x = c.y().min(topo.width() - 1);
                let y = c.x().min(topo.height() - 1);
                topo.id_of(Coord::new(x, y)).raw()
            }
            TrafficPattern::BitReverse => {
                if n.is_power_of_two() {
                    let bits = n.trailing_zeros();
                    (r.raw().reverse_bits() >> (16 - bits)) & ((n - 1) as u16)
                } else {
                    (n - 1 - r.index()) as u16
                }
            }
            TrafficPattern::Shuffle => {
                if n.is_power_of_two() {
                    let bits = n.trailing_zeros();
                    let mask = (n - 1) as u16;
                    let s = r.raw() & mask;
                    ((s << 1) | (s >> (bits - 1))) & mask
                } else {
                    ((r.index() + 1) % n) as u16
                }
            }
            TrafficPattern::Hotspot { hotspot, fraction } => {
                if rng.gen_bool(fraction.clamp(0.0, 1.0)) && *hotspot != src {
                    return *hotspot;
                }
                let d = rng.gen_range(0..terms - 1);
                let d = if d >= src.index() { d + 1 } else { d };
                return NodeId::new(d as u16);
            }
            TrafficPattern::Neighbor => ((r.index() + 1) % n) as u16,
            TrafficPattern::Flows(table) => match table.pick(src, rng) {
                Some(d) if d != src && d.index() < terms => return d,
                _ => {
                    let d = rng.gen_range(0..terms - 1);
                    let d = if d >= src.index() { d + 1 } else { d };
                    return NodeId::new(d as u16);
                }
            },
        };
        let dest = topo.terminal_at(NodeId::new(raw), port);
        if dest == src {
            NodeId::new(((src.index() + 1) % terms) as u16)
        } else {
            dest
        }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn topo() -> Topology {
        Topology::mesh(8, 8)
    }

    #[test]
    fn uniform_covers_all_destinations_except_self() {
        let mut rng = rng();
        let src = NodeId::new(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let d = TrafficPattern::Uniform.destination(src, topo(), &mut rng);
            assert_ne!(d, src);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 63);
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let mut rng = rng();
        let src = NodeId::new(0);
        let mut counts = [0u32; 64];
        let draws = 63_000;
        for _ in 0..draws {
            let d = TrafficPattern::Uniform.destination(src, topo(), &mut rng);
            counts[d.index()] += 1;
        }
        // Each of the 63 destinations expects 1000 hits; allow ±25 %.
        for (i, &c) in counts.iter().enumerate() {
            if i == 0 {
                assert_eq!(c, 0);
            } else {
                assert!((750..1250).contains(&c), "node {i} got {c}");
            }
        }
    }

    #[test]
    fn bit_complement_on_64_nodes() {
        let mut rng = rng();
        let cases = [(0u16, 63u16), (63, 0), (0b101010, 0b010101), (1, 62)];
        for (src, expect) in cases {
            let d = TrafficPattern::BitComplement.destination(NodeId::new(src), topo(), &mut rng);
            assert_eq!(d, NodeId::new(expect), "src {src}");
        }
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let mut rng = rng();
        for src in topo().nodes() {
            let d = TrafficPattern::BitComplement.destination(src, topo(), &mut rng);
            let back = TrafficPattern::BitComplement.destination(d, topo(), &mut rng);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn tornado_advances_half_minus_one_in_each_dimension() {
        let mut rng = rng();
        // On an 8x8 grid, tornado moves +3 in x and +3 in y (mod 8).
        let src = topo().id_of(Coord::new(1, 2));
        let d = TrafficPattern::Tornado.destination(src, topo(), &mut rng);
        assert_eq!(topo().coord_of(d), Coord::new(4, 5));
        // Wrap-around case.
        let src = topo().id_of(Coord::new(6, 7));
        let d = TrafficPattern::Tornado.destination(src, topo(), &mut rng);
        assert_eq!(topo().coord_of(d), Coord::new(1, 2));
    }

    #[test]
    fn tornado_is_a_permutation() {
        let mut rng = rng();
        let dests: std::collections::HashSet<NodeId> = topo()
            .nodes()
            .map(|s| TrafficPattern::Tornado.destination(s, topo(), &mut rng))
            .collect();
        assert_eq!(dests.len(), 64);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut rng = rng();
        let src = topo().id_of(Coord::new(2, 5));
        let d = TrafficPattern::Transpose.destination(src, topo(), &mut rng);
        assert_eq!(topo().coord_of(d), Coord::new(5, 2));
    }

    #[test]
    fn bit_reverse_on_64_nodes() {
        let mut rng = rng();
        // 0b000001 reversed within 6 bits = 0b100000 = 32.
        let d = TrafficPattern::BitReverse.destination(NodeId::new(1), topo(), &mut rng);
        assert_eq!(d, NodeId::new(32));
    }

    #[test]
    fn shuffle_rotates_left() {
        let mut rng = rng();
        // 0b100000 (32) rotated left in 6 bits = 0b000001 (1).
        let d = TrafficPattern::Shuffle.destination(NodeId::new(32), topo(), &mut rng);
        assert_eq!(d, NodeId::new(1));
    }

    #[test]
    fn self_addressed_mappings_are_redirected() {
        let mut rng = rng();
        // Node 0 transposes to itself; the pattern must pick another node.
        let d = TrafficPattern::Transpose.destination(NodeId::new(0), topo(), &mut rng);
        assert_ne!(d, NodeId::new(0));
        for pattern in [
            TrafficPattern::Transpose,
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbor,
        ] {
            for src in topo().nodes() {
                assert_ne!(pattern.destination(src, topo(), &mut rng), src);
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = rng();
        let pattern = TrafficPattern::Hotspot {
            hotspot: NodeId::new(27),
            fraction: 0.5,
        };
        let hits = (0..4000)
            .filter(|_| pattern.destination(NodeId::new(3), topo(), &mut rng) == NodeId::new(27))
            .count();
        // ~50 % plus the uniform share; definitely above 40 %.
        assert!(hits > 1600, "only {hits} hotspot hits");
    }

    #[test]
    fn odd_sized_grid_patterns_stay_in_range() {
        let topo = Topology::mesh(5, 3); // 15 nodes, not a power of two
        let mut rng = rng();
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::BitComplement,
            TrafficPattern::Tornado,
            TrafficPattern::Transpose,
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
            TrafficPattern::Neighbor,
        ] {
            for src in topo.nodes() {
                let d = pattern.destination(src, topo, &mut rng);
                assert!(d.index() < topo.node_count(), "{pattern:?} src {src}");
                assert_ne!(d, src, "{pattern:?} src {src}");
            }
        }
    }

    #[test]
    fn flow_table_respects_weights() {
        let mut rng = rng();
        let flows = FlowTable::new(vec![
            (NodeId::new(0), NodeId::new(5), 3.0),
            (NodeId::new(0), NodeId::new(9), 1.0),
        ])
        .unwrap();
        let pattern = TrafficPattern::Flows(flows);
        let mut to5 = 0;
        let n = 8000;
        for _ in 0..n {
            match pattern.destination(NodeId::new(0), topo(), &mut rng) {
                d if d == NodeId::new(5) => to5 += 1,
                d => assert_eq!(d, NodeId::new(9)),
            }
        }
        let frac = to5 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "weighted split {frac}");
    }

    #[test]
    fn flow_table_unlisted_source_falls_back_to_uniform() {
        let mut rng = rng();
        let flows = FlowTable::new(vec![(NodeId::new(0), NodeId::new(5), 1.0)]).unwrap();
        let pattern = TrafficPattern::Flows(flows);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = pattern.destination(NodeId::new(7), topo(), &mut rng);
            assert_ne!(d, NodeId::new(7));
            seen.insert(d);
        }
        assert!(seen.len() > 30, "fallback should spread: {}", seen.len());
    }

    #[test]
    fn flow_table_rejects_bad_weights() {
        assert!(FlowTable::new(vec![(NodeId::new(0), NodeId::new(1), 0.0)]).is_err());
        assert!(FlowTable::new(vec![(NodeId::new(0), NodeId::new(1), -1.0)]).is_err());
        assert!(FlowTable::new(vec![(NodeId::new(0), NodeId::new(1), f64::NAN)]).is_err());
    }

    #[test]
    fn short_names_match_paper() {
        assert_eq!(TrafficPattern::Uniform.to_string(), "NR");
        assert_eq!(TrafficPattern::BitComplement.to_string(), "BC");
        assert_eq!(TrafficPattern::Tornado.to_string(), "TN");
    }
}
