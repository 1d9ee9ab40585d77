//! Pluggable interconnect topologies: node placement, hop counts, and
//! minimal routes.
//!
//! Table 1: "Interconnect topology 6x6 torus ... Routing wormhole". The paper
//! places 32 processors (16 CPs + 16 IOPs) on a 6x6 torus; the remaining four
//! router positions are unused. Following the disk-scheduling and IOP-cache
//! precedents, the topology is a policy: a [`TopologyKind`] names it, a
//! [`Topology`] object answers placement ([`Topology::size`]), distance
//! ([`Topology::hops`]) and routing ([`Topology::next_hop`]) questions, and the
//! [`Network`](crate::Network) consults it for every message. The torus
//! remains the bit-identical default; `mesh` removes the wraparound links,
//! `hypercube` rewires the same nodes with logarithmic diameter, and
//! `crossbar` is the contention-free single-hop ideal.
//!
//! ```
//! use ddio_net::TopologyKind;
//!
//! // The paper's machine: 32 processors fitted onto a 6x6 torus.
//! let torus = TopologyKind::Torus.build(32);
//! assert_eq!(torus.size(), 36);
//! // Opposite corners are 2 hops via the wraparound links...
//! assert_eq!(torus.hops(0, 35), 2);
//! // ...but 10 hops on a mesh, which has none.
//! let mesh = TopologyKind::Mesh.build(32);
//! assert_eq!(mesh.hops(0, 35), 10);
//! // A crossbar reaches any other port in exactly one hop.
//! assert_eq!(TopologyKind::Crossbar.build(32).hops(0, 31), 1);
//! ```

/// Identifier of a node (router position) in the interconnect.
pub type NodeId = usize;

/// A directed router-to-router link, identified by its endpoints.
pub type Link = (NodeId, NodeId);

/// The interconnect wiring of the simulated machine.
///
/// A topology owns node placement and distance: how many router positions
/// exist, how many hops a minimal route takes, and which physical links that
/// route crosses (used by the link-level contention model). Implementations
/// must be deterministic — the same `(a, b)` always yields the same route —
/// so the simulation stays a pure function of its seed.
pub trait Topology {
    /// Which named topology this is.
    fn kind(&self) -> TopologyKind;

    /// Total router positions (at least the number of endpoints requested).
    fn size(&self) -> usize;

    /// Number of router-to-router hops on a minimal route from `a` to `b`
    /// (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    fn hops(&self, a: NodeId, b: NodeId) -> usize;

    /// The node one step from `at` along the minimal route to `dst`
    /// (`at != dst`). Following it from `a` until `dst` crosses exactly
    /// [`Topology::hops`]`(a, dst)` links, and the same `(at, dst)` always
    /// gives the same step.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId;

    /// The directed links of one minimal route from `a` to `b`, in traversal
    /// order (empty when `a == b`): the [`Topology::next_hop`] steps, listed.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    fn route(&self, a: NodeId, b: NodeId) -> Vec<Link> {
        let mut links = Vec::with_capacity(self.hops(a, b));
        let mut at = a;
        while at != b {
            let next = self.next_hop(at, b);
            links.push((at, next));
            at = next;
        }
        links
    }

    /// The largest hop count between any two nodes (the network diameter).
    fn diameter(&self) -> usize;

    /// A short human-readable description, e.g. `"6x6 torus"`.
    fn describe(&self) -> String;
}

ddio_sim::policy_enum! {
    /// The named topology families the interconnect can be built as.
    pub enum TopologyKind: "topology" {
        /// 2-D torus with wraparound links (the paper's machine, and the
        /// default).
        #[default]
        Torus = "torus",
        /// 2-D mesh: the same grid as the torus but without the wraparound
        /// links, so edge-to-edge routes pay the full Manhattan distance.
        Mesh = "mesh",
        /// Binary hypercube over the smallest power-of-two node count that fits:
        /// logarithmic diameter, `log2(n)` links per router.
        Hypercube = "hypercube",
        /// Full crossbar: a dedicated link between every pair of ports, so every
        /// message crosses exactly one uncontended link.
        Crossbar = "crossbar",
    }
}

impl TopologyKind {
    /// Builds the smallest instance of this topology with at least `nodes`
    /// positions, mirroring how the paper sizes a 6x6 torus for 32
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn build(self, nodes: usize) -> Box<dyn Topology> {
        assert!(nodes > 0, "need at least one node");
        match self {
            TopologyKind::Torus => {
                let (w, h) = grid_fitting(nodes);
                Box::new(Torus::new(w, h))
            }
            TopologyKind::Mesh => {
                let (w, h) = grid_fitting(nodes);
                Box::new(Mesh::new(w, h))
            }
            TopologyKind::Hypercube => Box::new(Hypercube::fitting(nodes)),
            TopologyKind::Crossbar => Box::new(Crossbar::new(nodes)),
        }
    }
}

/// The smallest square-ish `w x h` grid with at least `nodes` positions
/// (shared by the torus and mesh builders).
fn grid_fitting(nodes: usize) -> (usize, usize) {
    assert!(nodes > 0, "need at least one node");
    let mut w = 1usize;
    while w * w < nodes {
        w += 1;
    }
    // Prefer w x w; shrink the height if a full square overshoots by a row.
    let h = nodes.div_ceil(w);
    (w, h.max(1))
}

/// (column, row) coordinates of a node on a `width`-column grid.
fn grid_coords(width: usize, height: usize, node: NodeId) -> (usize, usize) {
    assert!(node < width * height, "node {node} outside topology");
    (node % width, node / width)
}

/// A k x m torus with minimal (shortest-path) dimension-order routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
}

impl Torus {
    /// Creates a torus of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be non-zero");
        Torus { width, height }
    }

    /// The smallest square-ish torus with at least `nodes` positions,
    /// mirroring how the paper sizes a 6x6 torus for 32 processors.
    pub fn fitting(nodes: usize) -> Self {
        let (w, h) = grid_fitting(nodes);
        Torus::new(w, h)
    }

    /// (column, row) coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the torus.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        grid_coords(self.width, self.height, node)
    }

    /// Node at the given (column, row).
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.width && y < self.height, "coords outside torus");
        y * self.width + x
    }

    /// Distance on a ring of `n` positions.
    fn ring_distance(a: usize, b: usize, n: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(n - d)
    }

    /// The next position one minimal step from `a` toward `b` on a ring of
    /// `n` positions (ties broken toward increasing coordinates, so routes
    /// are deterministic).
    fn ring_step(a: usize, b: usize, n: usize) -> usize {
        debug_assert_ne!(a, b);
        let up = (b + n - a) % n;
        let down = n - up;
        if up <= down {
            (a + 1) % n
        } else {
            (a + n - 1) % n
        }
    }
}

impl Topology for Torus {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Torus
    }

    fn size(&self) -> usize {
        self.width * self.height
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        Self::ring_distance(ax, bx, self.width) + Self::ring_distance(ay, by, self.height)
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId {
        let (x, y) = self.coords(at);
        let (bx, by) = self.coords(dst);
        // Dimension-order (X then Y) wormhole routing, each axis taking the
        // shorter way around its ring.
        if x != bx {
            self.node_at(Self::ring_step(x, bx, self.width), y)
        } else {
            self.node_at(x, Self::ring_step(y, by, self.height))
        }
    }

    fn diameter(&self) -> usize {
        self.width / 2 + self.height / 2
    }

    fn describe(&self) -> String {
        format!("{}x{} torus", self.width, self.height)
    }
}

/// A k x m mesh: the torus grid without its wraparound links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
}

impl Mesh {
    /// Creates a mesh of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Mesh { width, height }
    }

    fn coords(&self, node: NodeId) -> (usize, usize) {
        grid_coords(self.width, self.height, node)
    }

    fn node_at(&self, x: usize, y: usize) -> NodeId {
        y * self.width + x
    }
}

impl Topology for Mesh {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh
    }

    fn size(&self) -> usize {
        self.width * self.height
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId {
        let (x, y) = self.coords(at);
        let (bx, by) = self.coords(dst);
        let step = |from: usize, to: usize| if to > from { from + 1 } else { from - 1 };
        // Dimension-order (X then Y) routing along the Manhattan path.
        if x != bx {
            self.node_at(step(x, bx), y)
        } else {
            self.node_at(x, step(y, by))
        }
    }

    fn diameter(&self) -> usize {
        (self.width - 1) + (self.height - 1)
    }

    fn describe(&self) -> String {
        format!("{}x{} mesh", self.width, self.height)
    }
}

/// A binary hypercube of dimension `dims` (`2^dims` router positions).
///
/// Hop count between two nodes is the Hamming distance of their ids; routes
/// fix differing address bits from least to most significant (the classic
/// dimension-order e-cube route).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    /// Number of dimensions (routers have one link per dimension).
    pub dims: u32,
}

impl Hypercube {
    /// Creates a hypercube of the given dimension.
    pub fn new(dims: u32) -> Self {
        assert!(dims < usize::BITS, "hypercube dimension too large");
        Hypercube { dims }
    }

    /// The smallest hypercube with at least `nodes` positions.
    pub fn fitting(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut dims = 0u32;
        while 1usize << dims < nodes {
            dims += 1;
        }
        Hypercube::new(dims)
    }

    fn check(&self, node: NodeId) {
        assert!(node < self.size(), "node {node} outside topology");
    }
}

impl Topology for Hypercube {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Hypercube
    }

    fn size(&self) -> usize {
        1usize << self.dims
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        self.check(a);
        self.check(b);
        (a ^ b).count_ones() as usize
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId {
        self.check(at);
        self.check(dst);
        // Fix the lowest differing address bit first (e-cube routing).
        let diff = at ^ dst;
        at ^ (diff & diff.wrapping_neg())
    }

    fn diameter(&self) -> usize {
        self.dims as usize
    }

    fn describe(&self) -> String {
        format!("{}-node hypercube (d={})", self.size(), self.dims)
    }
}

/// A full crossbar: every pair of ports is joined by a dedicated link, so
/// any message crosses exactly one hop and never shares a link with traffic
/// between other pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossbar {
    /// Number of ports.
    pub ports: usize,
}

impl Crossbar {
    /// Creates a crossbar with the given number of ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "crossbar needs at least one port");
        Crossbar { ports }
    }

    fn check(&self, node: NodeId) {
        assert!(node < self.ports, "node {node} outside topology");
    }
}

impl Topology for Crossbar {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Crossbar
    }

    fn size(&self) -> usize {
        self.ports
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        self.check(a);
        self.check(b);
        usize::from(a != b)
    }

    fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId {
        self.check(at);
        self.check(dst);
        dst
    }

    fn diameter(&self) -> usize {
        1
    }

    fn describe(&self) -> String {
        format!("{}-port crossbar", self.ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_by_six_matches_table_1() {
        let t = Torus::new(6, 6);
        assert_eq!(t.size(), 36);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.describe(), "6x6 torus");
    }

    #[test]
    fn fitting_produces_a_compact_torus() {
        assert_eq!(Torus::fitting(32), Torus::new(6, 6));
        assert_eq!(Torus::fitting(36), Torus::new(6, 6));
        assert_eq!(Torus::fitting(2), Torus::new(2, 1));
        assert_eq!(Torus::fitting(17), Torus::new(5, 4));
        assert!(Torus::fitting(1).size() >= 1);
    }

    #[test]
    fn coords_round_trip() {
        let t = Torus::new(6, 6);
        for n in 0..t.size() {
            let (x, y) = t.coords(n);
            assert_eq!(t.node_at(x, y), n);
        }
    }

    #[test]
    fn hop_counts_use_wraparound() {
        let t = Torus::new(6, 6);
        // Adjacent nodes.
        assert_eq!(t.hops(0, 1), 1);
        // Opposite corners wrap around: (0,0) to (5,5) is 1+1 via the wrap links.
        assert_eq!(t.hops(t.node_at(0, 0), t.node_at(5, 5)), 2);
        // Maximum distance on a ring of 6 is 3.
        assert_eq!(t.hops(t.node_at(0, 0), t.node_at(3, 3)), 6);
        // Distance to self is zero and symmetric in general.
        for a in 0..t.size() {
            assert_eq!(t.hops(a, a), 0);
            for b in 0..t.size() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
                assert!(t.hops(a, b) <= t.diameter());
            }
        }
    }

    #[test]
    fn routes_have_hop_length_and_chain_up() {
        for kind in TopologyKind::ALL {
            let topo = kind.build(32);
            for a in 0..topo.size() {
                for b in 0..topo.size() {
                    let route = topo.route(a, b);
                    assert_eq!(route.len(), topo.hops(a, b), "{kind} {a}->{b}");
                    if !route.is_empty() {
                        assert_eq!(route[0].0, a);
                        assert_eq!(route.last().unwrap().1, b);
                        for pair in route.windows(2) {
                            assert_eq!(pair[0].1, pair[1].0, "route breaks at {pair:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_routes_finish_the_x_axis_before_the_y_axis() {
        for (kind, width) in [(TopologyKind::Torus, 6), (TopologyKind::Mesh, 6)] {
            let topo = kind.build(36);
            for a in 0..topo.size() {
                for b in 0..topo.size() {
                    let rows: Vec<bool> = topo
                        .route(a, b)
                        .iter()
                        .map(|&(from, to)| from / width != to / width)
                        .collect();
                    assert!(
                        rows.windows(2).all(|w| w[0] <= w[1]),
                        "{kind} {a}->{b} moves along X after Y"
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_pays_full_manhattan_distance() {
        let mesh = Mesh::new(6, 6);
        let torus = Torus::new(6, 6);
        assert_eq!(mesh.hops(0, 35), 10);
        assert_eq!(mesh.diameter(), 10);
        for a in 0..mesh.size() {
            for b in 0..mesh.size() {
                assert!(torus.hops(a, b) <= mesh.hops(a, b));
            }
        }
    }

    #[test]
    fn hypercube_hops_are_hamming_distance() {
        let h = Hypercube::fitting(32);
        assert_eq!(h.dims, 5);
        assert_eq!(h.size(), 32);
        assert_eq!(h.diameter(), 5);
        assert_eq!(h.hops(0, 0b10110), 3);
        // Routes fix low bits first.
        assert_eq!(h.route(0, 0b101), vec![(0, 0b001), (0b001, 0b101)]);
    }

    #[test]
    fn crossbar_is_always_one_hop() {
        let x = Crossbar::new(32);
        assert_eq!(x.size(), 32);
        assert_eq!(x.diameter(), 1);
        for a in 0..x.size() {
            for b in 0..x.size() {
                assert_eq!(x.hops(a, b), usize::from(a != b));
            }
        }
        assert_eq!(x.route(3, 7), vec![(3, 7)]);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build(32).kind(), kind);
        }
        assert_eq!(TopologyKind::parse("ring"), None);
        assert_eq!(TopologyKind::default(), TopologyKind::Torus);
    }

    #[test]
    fn build_fits_the_requested_nodes() {
        for kind in TopologyKind::ALL {
            for nodes in [1usize, 2, 8, 17, 32, 36] {
                let topo = kind.build(nodes);
                assert!(topo.size() >= nodes, "{kind} too small for {nodes}");
            }
        }
        assert_eq!(TopologyKind::Hypercube.build(17).size(), 32);
        assert_eq!(TopologyKind::Crossbar.build(17).size(), 17);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_node_panics() {
        Torus::new(2, 2).coords(4);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_dimension_panics() {
        Torus::new(0, 3);
    }
}
