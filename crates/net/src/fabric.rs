//! The interconnect's policy composition: which topology wires the routers
//! together and which contention model the messages pay for it.
//!
//! Mirroring `DiskParams::sched` and the cache's `CacheConfig`, a
//! [`NetConfig`] is the single knob that selects the fabric a machine runs:
//! the default (`torus` + `ni-only`) reproduces the paper's machine
//! bit-identically, while the alternatives ask when the fabric itself —
//! rather than the per-node network interfaces — becomes the bottleneck.

use crate::topology::TopologyKind;

ddio_sim::policy_enum! {
    /// How messages contend for the fabric between the two network interfaces.
    pub enum ContentionModel {
        /// Only the per-node network interfaces serialize traffic; the fabric
        /// between them is an ideal pipe charging pure head-flit latency (the
        /// paper's simplification, and the default).
        #[default]
        NiOnly = "ni-only",
        /// Each message additionally charges its serialization time on every
        /// link of its minimal route, and overlapping routes serialize on the
        /// shared links — a store-and-forward upper bound on fabric contention.
        Link = "link",
    }
}

/// The interconnect's policy composition: topology × contention model.
///
/// Carried by the machine configuration the way `CacheParams` carries the
/// cache policies; [`NetConfig::DEFAULT`] (`torus` + `ni-only`) is the
/// paper's machine and is bit-identical to the pre-refactor hardwired
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NetConfig {
    /// The wiring of the routers.
    pub topology: TopologyKind,
    /// What messages pay for the fabric between the NIs.
    pub contention: ContentionModel,
}

impl NetConfig {
    /// The paper's fabric: a wormhole torus with NI-only contention.
    pub const DEFAULT: NetConfig = NetConfig {
        topology: TopologyKind::Torus,
        contention: ContentionModel::NiOnly,
    };

    /// Short composition label, e.g. `"torus+ni-only"`.
    pub fn label(self) -> String {
        format!("{}+{}", self.topology.name(), self.contention.name())
    }
}

impl std::fmt::Display for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_fabric() {
        assert_eq!(NetConfig::default(), NetConfig::DEFAULT);
        assert_eq!(NetConfig::DEFAULT.label(), "torus+ni-only");
        assert_eq!(NetConfig::DEFAULT.topology, TopologyKind::Torus);
        assert_eq!(NetConfig::DEFAULT.contention, ContentionModel::NiOnly);
    }

    #[test]
    fn labels_and_names_round_trip() {
        for topology in TopologyKind::ALL {
            for contention in ContentionModel::ALL {
                let config = NetConfig {
                    topology,
                    contention,
                };
                let label = config.label();
                let (t, c) = label.split_once('+').expect("two halves");
                assert_eq!(TopologyKind::parse(t), Some(topology));
                assert_eq!(ContentionModel::parse(c), Some(contention));
            }
        }
        assert_eq!(ContentionModel::parse("link"), Some(ContentionModel::Link));
        assert_eq!(ContentionModel::parse("flit"), None);
    }

    #[test]
    fn topology_set_parses_and_filters() {
        let list = ["torus", "crossbar"].map(|n| TopologyKind::parse(n).unwrap());
        let kept: Vec<_> = TopologyKind::ALL
            .into_iter()
            .filter(|t| list.contains(t))
            .collect();
        assert_eq!(kept, [TopologyKind::Torus, TopologyKind::Crossbar]);
        assert_eq!(TopologyKind::ALL.len(), 4);
        assert_eq!(TopologyKind::parse("ring"), None);
    }

    #[test]
    fn contention_set_parses_and_filters() {
        let link = ContentionModel::parse("link").unwrap();
        let kept: Vec<_> = ContentionModel::ALL
            .into_iter()
            .filter(|c| *c == link)
            .collect();
        assert_eq!(kept, [ContentionModel::Link]);
        assert_eq!(ContentionModel::ALL.len(), 2);
        assert_eq!(ContentionModel::parse("wormhole"), None);
    }
}
