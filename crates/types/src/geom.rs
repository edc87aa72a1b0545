//! Network geometry: node identifiers, 2-D coordinates, port directions and
//! the topology layer of the simulated network.
//!
//! The paper evaluates an 8×8 mesh (§2.2); [`Topology`] also models the
//! §5 exploration space: a torus (wrap-around links), a concentrated mesh
//! (several processing elements share one router through extra local
//! ports), and a two-level chiplet arrangement (full router grid split
//! into tiles, with one gateway link per facing tile edge standing in for
//! the interposer NoI).
//!
//! # Port-radix model
//!
//! Every router has exactly four *cardinal* ports (N/E/S/W, indices
//! `0..4`) — a cardinal port whose link does not exist in the topology is
//! simply absent, exactly like a mesh edge — plus [`Topology::local_ports`]
//! PE ports at indices `4..radix()`. Mesh, torus and chiplet keep one
//! local port; a concentrated mesh has `C` of them. Processing elements
//! are numbered in *terminal* space: terminal `t` attaches to router
//! `t % node_count` at local port `4 + t / node_count`, so for
//! concentration 1 terminal ids and router ids coincide.

use std::fmt;

use crate::error::ConfigError;

/// Identifier of a network node (router + attached processing element).
///
/// Node ids enumerate the grid row-major: `id = y * width + x`.
///
/// # Examples
///
/// ```
/// use ftnoc_types::geom::{NodeId, Topology};
///
/// let topo = Topology::mesh(8, 8);
/// let id = NodeId::new(9);
/// assert_eq!(topo.coord_of(id).x(), 1);
/// assert_eq!(topo.coord_of(id).y(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a raw row-major index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// Returns the raw row-major index.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns the index as `usize`, convenient for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

/// A 2-D grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    x: u8,
    y: u8,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }

    /// The column (0 = west edge).
    pub const fn x(self) -> u8 {
        self.x
    }

    /// The row (0 = north edge).
    pub const fn y(self) -> u8 {
        self.y
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One of the five physical-channel directions of a mesh router.
///
/// `Local` is the PE-to-router channel; the remaining four connect to the
/// neighbouring routers. The discriminants are the port indices used by the
/// router data path (`0..=4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Direction {
    /// Toward decreasing `y`.
    North = 0,
    /// Toward increasing `x`.
    East = 1,
    /// Toward increasing `y`.
    South = 2,
    /// Toward decreasing `x`.
    West = 3,
    /// The processing-element (ejection/injection) port.
    Local = 4,
}

impl Direction {
    /// All five directions, in port-index order.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// The four inter-router directions (everything but [`Direction::Local`]).
    pub const CARDINAL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// Returns the port index (`0..=4`) of this direction.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Builds a direction from a port index.
    ///
    /// Returns `None` when `index > 4`.
    pub const fn from_index(index: usize) -> Option<Direction> {
        match index {
            0 => Some(Direction::North),
            1 => Some(Direction::East),
            2 => Some(Direction::South),
            3 => Some(Direction::West),
            4 => Some(Direction::Local),
            _ => None,
        }
    }

    /// The direction a received flit came *from*, as seen by the receiver.
    ///
    /// A flit leaving through `East` arrives at the neighbour's `West` port.
    /// `Local` is its own opposite.
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }

    /// Whether the direction crosses an inter-router link.
    pub const fn is_cardinal(self) -> bool {
        !matches!(self, Direction::Local)
    }

    /// The direction a port index maps to under the variable-radix port
    /// model: indices `0..4` are the cardinals, every index `>= 4` is a
    /// local (PE) port. Unlike [`Direction::from_index`] this never
    /// fails, so routers with several local ports can label any port.
    pub const fn for_port(index: usize) -> Direction {
        match index {
            0 => Direction::North,
            1 => Direction::East,
            2 => Direction::South,
            3 => Direction::West,
            _ => Direction::Local,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// The connectivity rule of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// No wrap-around links; edge routers have fewer neighbours.
    #[default]
    Mesh,
    /// Wrap-around links in both dimensions.
    Torus,
    /// Concentrated mesh: mesh connectivity between routers, with
    /// `concentration` processing elements per router.
    CMesh,
    /// Two-level chiplet arrangement: the router grid is divided into
    /// rectangular tiles and inter-tile links are suppressed except one
    /// gateway per facing tile edge (the NoI uplink).
    Chiplet,
}

/// A rectangular grid topology (mesh or torus).
///
/// # Examples
///
/// ```
/// use ftnoc_types::geom::{Coord, Direction, Topology};
///
/// let torus = Topology::torus(4, 4);
/// // Wrap-around on a torus:
/// assert_eq!(
///     torus.neighbor(Coord::new(0, 0), Direction::West),
///     Some(Coord::new(3, 0)),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    width: u8,
    height: u8,
    kind: TopologyKind,
    /// Processing elements per router (1 except for `CMesh`).
    concentration: u8,
    /// Tile width in routers (0 except for `Chiplet`).
    chip_w: u8,
    /// Tile height in routers (0 except for `Chiplet`).
    chip_h: u8,
}

impl Topology {
    /// Creates a mesh of `width × height` nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; use [`Topology::try_new`] for a
    /// fallible constructor.
    pub fn mesh(width: u8, height: u8) -> Self {
        Topology::try_new(width, height, TopologyKind::Mesh).expect("dimensions must be non-zero")
    }

    /// Creates a torus of `width × height` nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; use [`Topology::try_new`] for a
    /// fallible constructor.
    pub fn torus(width: u8, height: u8) -> Self {
        Topology::try_new(width, height, TopologyKind::Torus).expect("dimensions must be non-zero")
    }

    /// Creates a concentrated mesh of `width × height` routers with
    /// `concentration` processing elements each.
    ///
    /// # Panics
    ///
    /// Panics on invalid dimensions or concentration; use
    /// [`Topology::try_cmesh`] for a fallible constructor.
    pub fn cmesh(width: u8, height: u8, concentration: u8) -> Self {
        Topology::try_cmesh(width, height, concentration).expect("invalid cmesh configuration")
    }

    /// Fallible constructor validating the dimensions. `CMesh` gets
    /// concentration 1 (use [`Topology::try_cmesh`] for more) and
    /// `Chiplet` a single whole-grid tile (use [`Topology::try_chiplet`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] when `width == 0 || height == 0`.
    pub fn try_new(width: u8, height: u8, kind: TopologyKind) -> Result<Self, ConfigError> {
        match kind {
            TopologyKind::CMesh => return Topology::try_cmesh(width, height, 1),
            TopologyKind::Chiplet => return Topology::try_chiplet(width, height, width, height),
            TopologyKind::Mesh | TopologyKind::Torus => {}
        }
        if width == 0 || height == 0 {
            return Err(ConfigError::ZeroDimension);
        }
        Ok(Topology {
            width,
            height,
            kind,
            concentration: 1,
            chip_w: 0,
            chip_h: 0,
        })
    }

    /// Fallible concentrated-mesh constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] on a zero grid dimension and
    /// [`ConfigError::InvalidConcentration`] when `concentration` is
    /// outside `1..=8`.
    pub fn try_cmesh(width: u8, height: u8, concentration: u8) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::ZeroDimension);
        }
        if concentration == 0 || concentration > 8 {
            return Err(ConfigError::InvalidConcentration(concentration));
        }
        Ok(Topology {
            width,
            height,
            kind: TopologyKind::CMesh,
            concentration,
            chip_w: 0,
            chip_h: 0,
        })
    }

    /// Creates a chiplet topology: a `width × height` router grid divided
    /// into `chip_w × chip_h` tiles, with a single gateway link per facing
    /// tile edge.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] on a zero grid dimension and
    /// [`ConfigError::InvalidChipletDims`] when the tile is zero-sized or
    /// does not evenly divide the grid.
    pub fn try_chiplet(width: u8, height: u8, chip_w: u8, chip_h: u8) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::ZeroDimension);
        }
        if chip_w == 0
            || chip_h == 0
            || !width.is_multiple_of(chip_w)
            || !height.is_multiple_of(chip_h)
        {
            return Err(ConfigError::InvalidChipletDims {
                width,
                height,
                chip_w,
                chip_h,
            });
        }
        Ok(Topology {
            width,
            height,
            kind: TopologyKind::Chiplet,
            concentration: 1,
            chip_w,
            chip_h,
        })
    }

    /// Grid width (number of columns).
    pub const fn width(self) -> u8 {
        self.width
    }

    /// Grid height (number of rows).
    pub const fn height(self) -> u8 {
        self.height
    }

    /// The connectivity rule.
    pub const fn kind(self) -> TopologyKind {
        self.kind
    }

    /// Total number of nodes (routers).
    pub const fn node_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Iterates over every node id in row-major order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u16).map(NodeId::new)
    }

    /// Number of local (PE) ports per router.
    pub const fn local_ports(self) -> usize {
        self.concentration as usize
    }

    /// Ports per router: four cardinals plus the local ports. This is
    /// what the router data path sizes its port arrays from.
    pub const fn radix(self) -> usize {
        4 + self.local_ports()
    }

    /// Total processing elements (terminals) in the network. Terminal
    /// ids are `t = k * node_count + r` for local-port offset `k` and
    /// router `r`, so terminals `0..node_count` are each router's first
    /// PE.
    pub const fn terminal_count(self) -> usize {
        self.node_count() * self.local_ports()
    }

    /// The router a terminal attaches to (`t % node_count`). For
    /// concentration 1 this is the identity, which is also why a
    /// corrupted destination clamped modulo `node_count` lands on the
    /// intended router of any valid terminal.
    pub fn router_of_terminal(self, terminal: NodeId) -> NodeId {
        NodeId::new(terminal.raw() % self.node_count() as u16)
    }

    /// The router port a terminal injects/ejects through
    /// (`4 + t / node_count`).
    pub fn local_port_of_terminal(self, terminal: NodeId) -> usize {
        4 + terminal.index() / self.node_count()
    }

    /// Tile dimensions in routers for a chiplet topology, `None`
    /// otherwise.
    pub const fn chip_dims(self) -> Option<(u8, u8)> {
        match self.kind {
            TopologyKind::Chiplet => Some((self.chip_w, self.chip_h)),
            _ => None,
        }
    }

    /// The tile a coordinate belongs to (chiplet topologies only).
    pub fn chip_of(self, coord: Coord) -> Option<(u8, u8)> {
        self.chip_dims()
            .map(|(cw, ch)| (coord.x() / cw, coord.y() / ch))
    }

    /// Whether `coord` lies inside the grid.
    pub const fn contains(self, coord: Coord) -> bool {
        coord.x() < self.width && coord.y() < self.height
    }

    /// Converts a node id to its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this topology.
    pub fn coord_of(self, id: NodeId) -> Coord {
        assert!(
            id.index() < self.node_count(),
            "node id {id} out of range for {}x{} grid",
            self.width,
            self.height
        );
        Coord::new(
            (id.raw() % self.width as u16) as u8,
            (id.raw() / self.width as u16) as u8,
        )
    }

    /// Converts a coordinate to its node id.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn id_of(self, coord: Coord) -> NodeId {
        assert!(
            self.contains(coord),
            "coordinate {coord} out of range for {}x{} grid",
            self.width,
            self.height
        );
        NodeId::new(coord.y() as u16 * self.width as u16 + coord.x() as u16)
    }

    /// The neighbouring coordinate in `dir`, or `None` when the link does
    /// not exist (mesh edge, or `dir == Local`).
    pub fn neighbor(self, coord: Coord, dir: Direction) -> Option<Coord> {
        let (x, y) = (coord.x() as i16, coord.y() as i16);
        let (nx, ny) = match dir {
            Direction::North => (x, y - 1),
            Direction::East => (x + 1, y),
            Direction::South => (x, y + 1),
            Direction::West => (x - 1, y),
            Direction::Local => return None,
        };
        match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => {
                if nx < 0 || ny < 0 || nx >= self.width as i16 || ny >= self.height as i16 {
                    None
                } else {
                    Some(Coord::new(nx as u8, ny as u8))
                }
            }
            TopologyKind::Torus => Some(Coord::new(
                nx.rem_euclid(self.width as i16) as u8,
                ny.rem_euclid(self.height as i16) as u8,
            )),
            TopologyKind::Chiplet => {
                if nx < 0 || ny < 0 || nx >= self.width as i16 || ny >= self.height as i16 {
                    return None;
                }
                let next = Coord::new(nx as u8, ny as u8);
                if self.chip_of(coord) == self.chip_of(next) || self.is_gateway(coord, dir) {
                    Some(next)
                } else {
                    None
                }
            }
        }
    }

    /// The router across the link leaving `id` in `dir`, or `None` when
    /// the link does not exist ([`Topology::neighbor`] on node ids).
    pub fn neighbor_id(self, id: NodeId, dir: Direction) -> Option<NodeId> {
        self.neighbor(self.coord_of(id), dir).map(|c| self.id_of(c))
    }

    /// [`Topology::neighbor_id`] tabulated: entry `n` holds router `n`'s
    /// neighbour in each of [`Direction::CARDINAL`], by direction index.
    /// Per-cycle code reads this instead of redoing the coordinate
    /// arithmetic on every lookup.
    pub fn neighbor_table(self) -> Vec<[Option<NodeId>; 4]> {
        self.nodes()
            .map(|id| Direction::CARDINAL.map(|d| self.neighbor_id(id, d)))
            .collect()
    }

    /// Whether the link leaving `coord` in `dir` is a chiplet gateway:
    /// it crosses a tile boundary at the designated mid-edge offset.
    /// Always `false` outside chiplet topologies.
    pub fn is_gateway(self, coord: Coord, dir: Direction) -> bool {
        let TopologyKind::Chiplet = self.kind else {
            return false;
        };
        // One gateway per facing tile edge, at the middle of the edge
        // (rounded down), so every tile pair shares exactly one link and
        // the radix never exceeds the mesh radix.
        match dir {
            Direction::East | Direction::West => coord.y() % self.chip_h == (self.chip_h - 1) / 2,
            Direction::North | Direction::South => coord.x() % self.chip_w == (self.chip_w - 1) / 2,
            Direction::Local => false,
        }
    }

    /// Enumerates every inter-router link exactly once as
    /// `(node, direction)` pairs: the East and South link of each node
    /// that has one (on a torus this includes the wrap links, seen from
    /// the East/South edge). Self-loops of degenerate 1-wide tori are
    /// skipped.
    pub fn links(self) -> Vec<(NodeId, Direction)> {
        let mut out = Vec::new();
        for id in self.nodes() {
            let c = self.coord_of(id);
            for dir in [Direction::East, Direction::South] {
                if let Some(n) = self.neighbor(c, dir) {
                    if n != c {
                        out.push((id, dir));
                    }
                }
            }
        }
        out
    }

    /// Minimal hop distance between two coordinates.
    ///
    /// On a torus the per-dimension distance wraps. On a chiplet the
    /// Manhattan distance is an approximation (routes crossing a tile
    /// boundary must detour through the gateway); it is used only for
    /// statistics and route-preference ordering, never for correctness.
    pub fn hop_distance(self, a: Coord, b: Coord) -> u32 {
        let dx = (a.x() as i32 - b.x() as i32).unsigned_abs();
        let dy = (a.y() as i32 - b.y() as i32).unsigned_abs();
        match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh | TopologyKind::Chiplet => dx + dy,
            TopologyKind::Torus => {
                let wx = self.width as u32;
                let wy = self.height as u32;
                dx.min(wx - dx) + dy.min(wy - dy)
            }
        }
    }

    /// The directions a minimal route may take from `from` toward `to`.
    ///
    /// Returns up to two cardinal directions (one per dimension with
    /// remaining offset), the X direction first. An empty list means
    /// `from == to`. On a chiplet this is the mesh rule — the preference
    /// ordering; a minimal direction may lack a link at a tile boundary
    /// and callers filter on link existence as they already do for mesh
    /// edges.
    pub fn minimal_directions(self, from: Coord, to: Coord) -> DirSet {
        let mut dirs = DirSet::new();
        let (fx, fy) = (from.x() as i16, from.y() as i16);
        let (tx, ty) = (to.x() as i16, to.y() as i16);
        match self.kind {
            TopologyKind::Mesh | TopologyKind::CMesh | TopologyKind::Chiplet => {
                if tx > fx {
                    dirs.push(Direction::East);
                } else if tx < fx {
                    dirs.push(Direction::West);
                }
                if ty > fy {
                    dirs.push(Direction::South);
                } else if ty < fy {
                    dirs.push(Direction::North);
                }
            }
            TopologyKind::Torus => {
                let w = self.width as i16;
                let h = self.height as i16;
                let dx = (tx - fx).rem_euclid(w);
                if dx != 0 {
                    if dx <= w - dx {
                        dirs.push(Direction::East);
                    } else {
                        dirs.push(Direction::West);
                    }
                }
                let dy = (ty - fy).rem_euclid(h);
                if dy != 0 {
                    if dy <= h - dy {
                        dirs.push(Direction::South);
                    } else {
                        dirs.push(Direction::North);
                    }
                }
            }
        }
        dirs
    }
}

/// An ordered list of up to four cardinal directions: a routing answer.
/// [`Topology::minimal_directions`] fills it X direction first; routing
/// keeps that order or sorts it by preference, and a waiting head keeps
/// it in its VC state until VC allocation grants one entry. An inline
/// value, so building or copying one never allocates. It derefs to
/// `[Direction]`: indexing, `len`, `contains`, `iter` and the stable
/// `sort_by_key` are the slice's.
///
/// Slots past `len` always hold `North` (only [`DirSet::push`] writes
/// one), so the derived equality compares the lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirSet {
    dirs: [Direction; 4],
    len: u8,
}

impl DirSet {
    /// An empty list.
    pub const fn new() -> Self {
        DirSet {
            dirs: [Direction::North; 4],
            len: 0,
        }
    }

    /// Appends a direction.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds four.
    pub fn push(&mut self, dir: Direction) {
        assert!((self.len as usize) < self.dirs.len(), "DirSet overflow");
        self.dirs[self.len as usize] = dir;
        self.len += 1;
    }

    /// Keeps the directions `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Direction) -> bool) {
        *self = self.iter().copied().filter(|d| keep(d)).collect();
    }
}

impl Default for DirSet {
    fn default() -> Self {
        DirSet::new()
    }
}

impl std::ops::Deref for DirSet {
    type Target = [Direction];

    fn deref(&self) -> &[Direction] {
        &self.dirs[..self.len as usize]
    }
}

impl std::ops::DerefMut for DirSet {
    fn deref_mut(&mut self) -> &mut [Direction] {
        &mut self.dirs[..self.len as usize]
    }
}

impl FromIterator<Direction> for DirSet {
    fn from_iter<I: IntoIterator<Item = Direction>>(iter: I) -> Self {
        let mut set = DirSet::new();
        for dir in iter {
            set.push(dir);
        }
        set
    }
}

impl IntoIterator for DirSet {
    type Item = Direction;
    type IntoIter = std::iter::Take<std::array::IntoIter<Direction, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.dirs.into_iter().take(self.len as usize)
    }
}

impl Default for Topology {
    /// The paper's 8×8 mesh.
    fn default() -> Self {
        Topology::mesh(8, 8)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TopologyKind::Mesh => write!(f, "{}x{} mesh", self.width, self.height),
            TopologyKind::Torus => write!(f, "{}x{} torus", self.width, self.height),
            TopologyKind::CMesh => write!(
                f,
                "{}x{} cmesh c{}",
                self.width, self.height, self.concentration
            ),
            TopologyKind::Chiplet => write!(
                f,
                "{}x{} chiplet {}x{}",
                self.width, self.height, self.chip_w, self.chip_h
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_coord() {
        let topo = Topology::mesh(8, 8);
        for id in topo.nodes() {
            assert_eq!(topo.id_of(topo.coord_of(id)), id);
        }
    }

    #[test]
    fn direction_indices_are_stable() {
        for (i, dir) in Direction::ALL.iter().enumerate() {
            assert_eq!(dir.index(), i);
            assert_eq!(Direction::from_index(i), Some(*dir));
        }
        assert_eq!(Direction::from_index(5), None);
    }

    #[test]
    fn opposite_is_involutive() {
        for dir in Direction::ALL {
            assert_eq!(dir.opposite().opposite(), dir);
        }
    }

    #[test]
    fn mesh_edges_have_no_neighbors() {
        let topo = Topology::mesh(4, 4);
        assert_eq!(topo.neighbor(Coord::new(0, 0), Direction::North), None);
        assert_eq!(topo.neighbor(Coord::new(0, 0), Direction::West), None);
        assert_eq!(topo.neighbor(Coord::new(3, 3), Direction::South), None);
        assert_eq!(topo.neighbor(Coord::new(3, 3), Direction::East), None);
        assert_eq!(
            topo.neighbor(Coord::new(1, 1), Direction::North),
            Some(Coord::new(1, 0))
        );
    }

    #[test]
    fn torus_wraps_in_both_dimensions() {
        let topo = Topology::torus(4, 3);
        assert_eq!(
            topo.neighbor(Coord::new(0, 0), Direction::West),
            Some(Coord::new(3, 0))
        );
        assert_eq!(
            topo.neighbor(Coord::new(0, 0), Direction::North),
            Some(Coord::new(0, 2))
        );
        assert_eq!(
            topo.neighbor(Coord::new(3, 2), Direction::East),
            Some(Coord::new(0, 2))
        );
    }

    #[test]
    fn local_direction_has_no_neighbor() {
        let topo = Topology::torus(4, 4);
        assert_eq!(topo.neighbor(Coord::new(2, 2), Direction::Local), None);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let topo = Topology::mesh(8, 8);
        assert_eq!(topo.hop_distance(Coord::new(0, 0), Coord::new(7, 7)), 14);
        assert_eq!(topo.hop_distance(Coord::new(3, 4), Coord::new(3, 4)), 0);
    }

    #[test]
    fn torus_distance_wraps() {
        let topo = Topology::torus(8, 8);
        assert_eq!(topo.hop_distance(Coord::new(0, 0), Coord::new(7, 0)), 1);
        assert_eq!(topo.hop_distance(Coord::new(0, 0), Coord::new(4, 4)), 8);
    }

    #[test]
    fn minimal_directions_mesh() {
        let topo = Topology::mesh(8, 8);
        let dirs = topo.minimal_directions(Coord::new(0, 0), Coord::new(3, 3));
        assert_eq!(*dirs, [Direction::East, Direction::South]);
        assert!(dirs.contains(&Direction::East));
        assert!(!dirs.contains(&Direction::West));
        let dirs = topo.minimal_directions(Coord::new(3, 3), Coord::new(3, 0));
        assert_eq!(*dirs, [Direction::North]);
        assert!(topo
            .minimal_directions(Coord::new(2, 2), Coord::new(2, 2))
            .is_empty());
    }

    #[test]
    fn minimal_directions_torus_prefers_short_way() {
        let topo = Topology::torus(8, 8);
        let dirs = topo.minimal_directions(Coord::new(0, 0), Coord::new(7, 0));
        assert_eq!(*dirs, [Direction::West]);
        let dirs = topo.minimal_directions(Coord::new(0, 0), Coord::new(3, 0));
        assert_eq!(*dirs, [Direction::East]);
    }

    #[test]
    fn dirset_iterates_in_insertion_order() {
        let topo = Topology::mesh(8, 8);
        let dirs = topo.minimal_directions(Coord::new(5, 5), Coord::new(2, 1));
        let collected: Vec<Direction> = dirs.into_iter().collect();
        assert_eq!(collected, vec![Direction::West, Direction::North]);
        assert_eq!(dirs.len(), 2);
        let mut all: DirSet = Direction::CARDINAL.into_iter().collect();
        all.retain(|d| *d != Direction::East);
        assert_eq!(*all, [Direction::North, Direction::South, Direction::West]);
        all.sort_by_key(|d| u8::from(*d != Direction::West));
        assert_eq!(*all, [Direction::West, Direction::North, Direction::South]);
        assert_eq!(
            all,
            [Direction::West, Direction::North, Direction::South]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn cmesh_terminal_numbering_round_trips() {
        let topo = Topology::cmesh(4, 4, 4);
        assert_eq!(topo.local_ports(), 4);
        assert_eq!(topo.radix(), 8);
        assert_eq!(topo.terminal_count(), 64);
        for t in (0..topo.terminal_count() as u16).map(NodeId::new) {
            let r = topo.router_of_terminal(t);
            let k = topo.local_port_of_terminal(t) - 4;
            assert_eq!(k * topo.node_count() + r.index(), t.index());
        }
        // Terminal 0..16 are each router's first PE: identity mapping.
        assert_eq!(topo.router_of_terminal(NodeId::new(5)), NodeId::new(5));
        assert_eq!(topo.local_port_of_terminal(NodeId::new(5)), 4);
        // Terminal 21 = 1*16 + 5: router 5, second local port.
        assert_eq!(topo.router_of_terminal(NodeId::new(21)), NodeId::new(5));
        assert_eq!(topo.local_port_of_terminal(NodeId::new(21)), 5);
    }

    #[test]
    fn mesh_terminals_coincide_with_nodes() {
        let topo = Topology::mesh(8, 8);
        assert_eq!(topo.local_ports(), 1);
        assert_eq!(topo.radix(), 5);
        assert_eq!(topo.terminal_count(), topo.node_count());
        for t in (0..topo.terminal_count() as u16).map(NodeId::new) {
            assert_eq!(topo.router_of_terminal(t), t);
            assert_eq!(topo.local_port_of_terminal(t), 4);
        }
    }

    #[test]
    fn chiplet_suppresses_non_gateway_boundary_links() {
        // 8x8 grid of 4x4 tiles: boundary between x=3 and x=4.
        let topo = Topology::try_chiplet(8, 8, 4, 4).unwrap();
        // Gateway row within a tile: y % 4 == 1.
        assert_eq!(
            topo.neighbor(Coord::new(3, 1), Direction::East),
            Some(Coord::new(4, 1))
        );
        assert_eq!(topo.neighbor(Coord::new(3, 0), Direction::East), None);
        assert_eq!(topo.neighbor(Coord::new(3, 2), Direction::East), None);
        // The reverse direction of the gateway exists too.
        assert_eq!(
            topo.neighbor(Coord::new(4, 1), Direction::West),
            Some(Coord::new(3, 1))
        );
        assert_eq!(topo.neighbor(Coord::new(4, 0), Direction::West), None);
        // Links inside a tile are untouched.
        assert_eq!(
            topo.neighbor(Coord::new(1, 1), Direction::East),
            Some(Coord::new(2, 1))
        );
        // Vertical boundary between y=3 and y=4: gateway column x % 4 == 1.
        assert_eq!(
            topo.neighbor(Coord::new(1, 3), Direction::South),
            Some(Coord::new(1, 4))
        );
        assert_eq!(topo.neighbor(Coord::new(2, 3), Direction::South), None);
    }

    #[test]
    fn chiplet_dims_must_divide_grid() {
        assert!(Topology::try_chiplet(8, 8, 3, 4).is_err());
        assert!(Topology::try_chiplet(8, 8, 0, 4).is_err());
        assert!(Topology::try_chiplet(8, 8, 4, 4).is_ok());
        assert!(Topology::try_cmesh(4, 4, 0).is_err());
        assert!(Topology::try_cmesh(4, 4, 9).is_err());
    }

    #[test]
    fn link_enumeration_counts() {
        // 8x8 mesh: 2 * 8 * 7 = 112 links.
        assert_eq!(Topology::mesh(8, 8).links().len(), 112);
        // 8x8 torus: 2 * 64 = 128 links.
        assert_eq!(Topology::torus(8, 8).links().len(), 128);
        // cmesh router graph == mesh graph.
        assert_eq!(Topology::cmesh(4, 4, 4).links().len(), 24);
        // 8x8 chiplet of 4x4 tiles: 4 tiles * 24 internal + 4 gateways.
        let chiplet = Topology::try_chiplet(8, 8, 4, 4).unwrap();
        assert_eq!(chiplet.links().len(), 4 * 24 + 4);
        // Every enumerated link exists and is distinct.
        for (n, d) in chiplet.links() {
            assert!(chiplet.neighbor(chiplet.coord_of(n), d).is_some());
        }
    }

    #[test]
    fn neighbor_id_matches_the_coordinate_chain() {
        for topo in [
            Topology::mesh(5, 3),
            Topology::torus(4, 4),
            Topology::cmesh(4, 4, 4),
            Topology::try_chiplet(8, 8, 4, 4).unwrap(),
        ] {
            for n in topo.nodes() {
                for d in Direction::ALL {
                    let chain = topo.neighbor(topo.coord_of(n), d).map(|c| topo.id_of(c));
                    assert_eq!(topo.neighbor_id(n, d), chain, "{topo} {n} {d}");
                }
            }
        }
    }

    #[test]
    fn neighbor_table_tabulates_neighbor_id_and_is_symmetric() {
        for topo in [
            Topology::mesh(9, 8),
            Topology::torus(4, 4), // wrap links
            Topology::cmesh(4, 4, 4),
            Topology::try_chiplet(8, 8, 4, 4).unwrap(), // gateway links
        ] {
            let table = topo.neighbor_table();
            assert_eq!(table.len(), topo.node_count());
            for n in topo.nodes() {
                for d in Direction::CARDINAL {
                    let m = table[n.index()][d.index()];
                    assert_eq!(m, topo.neighbor_id(n, d), "{topo} {n} {d}");
                    if let Some(m) = m {
                        let back = table[m.index()][d.opposite().index()];
                        assert_eq!(back, Some(n), "{topo} {n} {d}: link is one-way");
                    }
                }
            }
        }
    }

    #[test]
    fn direction_for_port_maps_extra_locals() {
        assert_eq!(Direction::for_port(0), Direction::North);
        assert_eq!(Direction::for_port(3), Direction::West);
        assert_eq!(Direction::for_port(4), Direction::Local);
        assert_eq!(Direction::for_port(7), Direction::Local);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert_eq!(
            Topology::try_new(0, 4, TopologyKind::Mesh),
            Err(ConfigError::ZeroDimension)
        );
        assert_eq!(
            Topology::try_new(4, 0, TopologyKind::Torus),
            Err(ConfigError::ZeroDimension)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_panics_out_of_range() {
        let topo = Topology::mesh(2, 2);
        let _ = topo.coord_of(NodeId::new(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
        assert_eq!(Direction::North.to_string(), "N");
        assert_eq!(Topology::mesh(8, 8).to_string(), "8x8 mesh");
    }
}
