//! Property-based tests of the interconnect subsystem: topology invariants
//! (hop symmetry, zero self-distance, diameter bounds, route/hop agreement,
//! crossbar = 1 hop, torus ≤ mesh, hypercube = Hamming distance) and the
//! link-contention conservation law (total link busy time is at least the
//! NI-only serialization time of the traffic that crossed the fabric).

use proptest::prelude::*;

use ddio_net::{ContentionModel, NetConfig, Network, NetworkParams, TopologyKind};
use ddio_sim::Sim;

fn node_counts() -> impl Strategy<Value = usize> {
    1usize..=40
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hop counts are symmetric, zero exactly on the diagonal, and bounded
    /// by the diameter; every route's length equals the hop count and its
    /// links chain from source to destination.
    #[test]
    fn hops_are_symmetric_zero_diagonal_and_within_diameter(nodes in node_counts()) {
        for kind in TopologyKind::ALL {
            let topo = kind.build(nodes);
            prop_assert!(topo.size() >= nodes, "{kind} too small");
            for a in 0..nodes {
                prop_assert_eq!(topo.hops(a, a), 0, "{} self-distance", kind);
                prop_assert!(topo.route(a, a).is_empty());
                for b in 0..nodes {
                    let h = topo.hops(a, b);
                    prop_assert_eq!(h, topo.hops(b, a), "{} asymmetric", kind);
                    prop_assert!(h <= topo.diameter(), "{kind} {a}->{b}: {h} hops");
                    if a != b {
                        prop_assert!(h >= 1);
                    }
                    let route = topo.route(a, b);
                    prop_assert_eq!(route.len(), h, "{} route/hop mismatch", kind);
                    if let (Some(first), Some(last)) = (route.first(), route.last()) {
                        prop_assert_eq!(first.0, a);
                        prop_assert_eq!(last.1, b);
                    }
                    for pair in route.windows(2) {
                        prop_assert_eq!(pair[0].1, pair[1].0, "{} route breaks", kind);
                    }
                }
            }
        }
    }

    /// A crossbar reaches every distinct pair in exactly one hop.
    #[test]
    fn crossbar_is_always_one_hop(nodes in node_counts()) {
        let x = TopologyKind::Crossbar.build(nodes);
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert_eq!(x.hops(a, b), usize::from(a != b));
            }
        }
    }

    /// Wraparound links only ever shorten routes: the torus never needs
    /// more hops than the same-shaped mesh.
    #[test]
    fn torus_hops_never_exceed_mesh_hops(nodes in node_counts()) {
        let torus = TopologyKind::Torus.build(nodes);
        let mesh = TopologyKind::Mesh.build(nodes);
        prop_assert_eq!(torus.size(), mesh.size(), "same grid fitting");
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert!(
                    torus.hops(a, b) <= mesh.hops(a, b),
                    "torus {a}->{b} = {} > mesh {}",
                    torus.hops(a, b),
                    mesh.hops(a, b)
                );
            }
        }
    }

    /// Hypercube hop counts are the Hamming distance of the node ids.
    #[test]
    fn hypercube_hops_are_hamming_distance(nodes in node_counts()) {
        let h = TopologyKind::Hypercube.build(nodes);
        for a in 0..nodes {
            for b in 0..nodes {
                prop_assert_eq!(h.hops(a, b), (a ^ b).count_ones() as usize);
            }
        }
    }

    /// Conservation under the link model: every message occupies each link
    /// of its route for its full serialization time, so the total busy time
    /// across all links is at least the NI-only serialization time of all
    /// the bytes that crossed the fabric (routes have ≥ 1 link whenever
    /// sender ≠ receiver), and per-link accounting sums to the total.
    #[test]
    fn link_busy_time_is_at_least_ni_serialization_time(
        sends in prop::collection::vec((0usize..8, 0usize..8, 1u64..65536), 1..24),
        kind_idx in 0usize..4,
    ) {
        let kind = TopologyKind::ALL[kind_idx];
        let mut sim = Sim::new();
        let config = NetConfig {
            topology: kind,
            contention: ContentionModel::Link,
        };
        let params = NetworkParams::default();
        let net = Network::new(sim.context(), config, params, 8);
        let mut ni_serialization = ddio_sim::SimDuration::ZERO;
        for &(from, to, bytes) in &sends {
            if from != to {
                ni_serialization += params.link_occupancy(bytes);
            }
            let net = net.clone();
            sim.spawn(async move {
                net.send(from, to, bytes).await;
            });
        }
        let expected = sends.len();
        sim.run();
        prop_assert_eq!(net.messages_sent() as usize, expected);
        let total_busy = net.link_busy_total();
        prop_assert!(
            total_busy >= ni_serialization,
            "{kind}: link busy {:?} < serialization {:?}",
            total_busy,
            ni_serialization
        );
        let per_link: ddio_sim::SimDuration =
            net.link_stats().iter().map(|l| l.busy).sum();
        prop_assert_eq!(per_link, total_busy, "per-link stats disagree with total");
    }
}
