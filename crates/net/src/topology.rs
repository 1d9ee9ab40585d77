//! Interconnect topologies: node placement, hop counts, and minimal routes.
//!
//! Table 1: "Interconnect topology 6x6 torus ... Routing wormhole". The paper
//! places 32 processors (16 CPs + 16 IOPs) on a 6x6 torus; the remaining four
//! router positions are unused. Following the disk-scheduling and IOP-cache
//! precedents, the topology is a policy: a [`TopologyKind`] names it, and
//! [`TopologyKind::build`] sizes a [`Topology`] value that answers placement
//! ([`Topology::size`]), distance ([`Topology::hops`]) and routing
//! ([`Topology::next_hop`]) questions by matching on its kind. The
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

ddio_sim::policy_enum! {
    /// The named topology families the interconnect can be built as.
    pub enum TopologyKind {
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

use TopologyKind::{Crossbar, Hypercube, Mesh, Torus};

impl TopologyKind {
    /// Builds the smallest instance of this topology with at least `nodes`
    /// positions, mirroring how the paper sizes a 6x6 torus for 32
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn build(self, nodes: usize) -> Topology {
        assert!(nodes > 0, "topology node count must be non-zero");
        let (width, height) = match self {
            Torus | Mesh => {
                let mut w = 1usize;
                while w * w < nodes {
                    w += 1;
                }
                // Prefer w x w; shrink the height if a full square overshoots
                // by a row.
                (w, nodes.div_ceil(w))
            }
            Hypercube => (nodes.next_power_of_two(), 1),
            Crossbar => (nodes, 1),
        };
        Topology {
            kind: self,
            width,
            height,
        }
    }
}

/// The interconnect wiring of the simulated machine.
///
/// A topology owns node placement and distance: how many router positions
/// exist, how many hops a minimal route takes, and which physical links that
/// route crosses (used by the link-level contention model). Nodes sit
/// row-major on a `width x height` grid; the hypercube is `2^d x 1` and the
/// crossbar `n x 1`. Routes are deterministic — the same `(a, b)` always
/// yields the same route — so the simulation stays a pure function of its
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    width: usize,
    height: usize,
}

impl Topology {
    /// Which named topology this is.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total router positions (at least the number of endpoints requested).
    pub fn size(&self) -> usize {
        self.width * self.height
    }

    /// (column, row) coordinates of a node.
    fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node < self.size(), "node {node} outside topology");
        (node % self.width, node / self.width)
    }

    /// Number of router-to-router hops on a minimal route from `a` to `b`
    /// (0 when `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        match self.kind {
            Torus | Mesh => {
                self.axis_distance(ax, bx, self.width) + self.axis_distance(ay, by, self.height)
            }
            Hypercube => (a ^ b).count_ones() as usize,
            Crossbar => usize::from(a != b),
        }
    }

    /// The node one step from `at` along the minimal route to `dst`
    /// (`at != dst`). Following it from `a` until `dst` crosses exactly
    /// [`Topology::hops`]`(a, dst)` links, and the same `(at, dst)` always
    /// gives the same step.
    ///
    /// The torus and mesh route in dimension order (X, then Y); the
    /// hypercube fixes the lowest differing address bit first (e-cube).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> NodeId {
        let (x, y) = self.coords(at);
        let (bx, by) = self.coords(dst);
        match self.kind {
            Torus | Mesh if x != bx => y * self.width + self.axis_step(x, bx, self.width),
            Torus | Mesh => self.axis_step(y, by, self.height) * self.width + x,
            Hypercube => {
                let diff = at ^ dst;
                at ^ (diff & diff.wrapping_neg())
            }
            Crossbar => dst,
        }
    }

    /// Distance between positions `a` and `b` of one grid axis of `n`
    /// positions: around the ring on the torus, straight on the mesh.
    fn axis_distance(&self, a: usize, b: usize, n: usize) -> usize {
        let d = a.abs_diff(b);
        if self.kind == Torus {
            d.min(n - d)
        } else {
            d
        }
    }

    /// The position one minimal step from `a` toward `b` on a grid axis of
    /// `n` positions. On the torus a half-ring tie goes toward increasing
    /// coordinates, so routes are deterministic.
    fn axis_step(&self, a: usize, b: usize, n: usize) -> usize {
        debug_assert_ne!(a, b);
        if self.kind == Torus {
            let up = (b + n - a) % n;
            if up <= n - up {
                (a + 1) % n
            } else {
                (a + n - 1) % n
            }
        } else if b > a {
            a + 1
        } else {
            a - 1
        }
    }

    /// The directed links of one minimal route from `a` to `b`, in traversal
    /// order (empty when `a == b`): the [`Topology::next_hop`] steps, listed.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<Link> {
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
    pub fn diameter(&self) -> usize {
        match self.kind {
            Torus => self.width / 2 + self.height / 2,
            Mesh => (self.width - 1) + (self.height - 1),
            Hypercube => self.width.trailing_zeros() as usize,
            Crossbar => 1,
        }
    }

    /// A short human-readable description, e.g. `"6x6 torus"`.
    pub fn describe(&self) -> String {
        match self.kind {
            Torus | Mesh => {
                format!("{}x{} {}", self.width, self.height, self.kind)
            }
            Hypercube => {
                format!("{}-node hypercube (d={})", self.size(), self.diameter())
            }
            Crossbar => format!("{}-port crossbar", self.size()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 6x6 torus.
    fn torus() -> Topology {
        TopologyKind::Torus.build(36)
    }

    #[test]
    fn six_by_six_matches_table_1() {
        let t = torus();
        assert_eq!(t.size(), 36);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.describe(), "6x6 torus");
    }

    #[test]
    fn fitting_produces_a_compact_torus() {
        let fit = |nodes| TopologyKind::Torus.build(nodes).describe();
        assert_eq!(fit(32), "6x6 torus");
        assert_eq!(fit(36), "6x6 torus");
        assert_eq!(fit(2), "2x1 torus");
        assert_eq!(fit(17), "5x4 torus");
        assert!(TopologyKind::Torus.build(1).size() >= 1);
    }

    #[test]
    fn coords_round_trip() {
        // Nodes sit row-major: a mesh route from node 0 to node n steps
        // n % 6 columns along X (+1 each), then n / 6 rows along Y (+6 each).
        let mesh = TopologyKind::Mesh.build(36);
        for n in 0..mesh.size() {
            let steps: Vec<usize> = mesh.route(0, n).iter().map(|&(a, b)| b - a).collect();
            let mut expected = vec![1; n % 6];
            expected.extend(vec![6; n / 6]);
            assert_eq!(steps, expected, "node {n}");
        }
    }

    #[test]
    fn hop_counts_use_wraparound() {
        let t = torus();
        // Adjacent nodes.
        assert_eq!(t.hops(0, 1), 1);
        // Opposite corners wrap around: (0,0) to (5,5) is 1+1 via the wrap links.
        assert_eq!(t.hops(0, 35), 2);
        // Maximum distance on a ring of 6 is 3: (0,0) to (3,3).
        assert_eq!(t.hops(0, 21), 6);
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
    fn half_ring_routes_break_ties_toward_increasing_coordinates() {
        let t = torus();
        // Three steps either way round a ring of six: go up.
        assert_eq!(t.route(0, 3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.route(0, 18), vec![(0, 6), (6, 12), (12, 18)]);
        assert_eq!(t.route(3, 0), vec![(3, 4), (4, 5), (5, 0)]);
        assert_eq!(t.route(18, 0), vec![(18, 24), (24, 30), (30, 0)]);
        // A shorter way round is taken whichever direction it is.
        assert_eq!(t.route(0, 5), vec![(0, 5)]);
        assert_eq!(t.route(0, 30), vec![(0, 30)]);
    }

    #[test]
    fn mesh_routes_step_straight_toward_the_target() {
        let mesh = TopologyKind::Mesh.build(36);
        let links =
            |path: &[usize]| -> Vec<Link> { path.windows(2).map(|w| (w[0], w[1])).collect() };
        assert_eq!(mesh.route(0, 5), links(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(
            mesh.route(35, 0),
            links(&[35, 34, 33, 32, 31, 30, 24, 18, 12, 6, 0])
        );
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
        let mesh = TopologyKind::Mesh.build(36);
        let torus = torus();
        assert_eq!(mesh.hops(0, 35), 10);
        assert_eq!(mesh.diameter(), 10);
        assert_eq!(mesh.describe(), "6x6 mesh");
        for a in 0..mesh.size() {
            for b in 0..mesh.size() {
                assert!(torus.hops(a, b) <= mesh.hops(a, b));
            }
        }
    }

    #[test]
    fn hypercube_hops_are_hamming_distance() {
        let h = TopologyKind::Hypercube.build(32);
        assert_eq!(h.size(), 32);
        assert_eq!(h.diameter(), 5);
        assert_eq!(h.describe(), "32-node hypercube (d=5)");
        assert_eq!(h.hops(0, 0b10110), 3);
        // Routes fix low bits first.
        assert_eq!(h.route(0, 0b101), vec![(0, 0b001), (0b001, 0b101)]);
    }

    #[test]
    fn crossbar_is_always_one_hop() {
        let x = TopologyKind::Crossbar.build(32);
        assert_eq!(x.size(), 32);
        assert_eq!(x.diameter(), 1);
        assert_eq!(x.describe(), "32-port crossbar");
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
        TopologyKind::Torus.build(4).hops(0, 4);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_dimension_panics() {
        TopologyKind::Torus.build(0);
    }
}
