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
    pub enum ContentionModel: "contention model" {
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

    /// Parses a `topology+contention` label (either half may be omitted, so
    /// `"mesh"`, `"link"`, and `"mesh+link"` are all valid; `"default"` is
    /// the paper's fabric). Pinning the same dimension twice
    /// (`"mesh+torus"`, `"link+ni-only"`) is rejected rather than silently
    /// letting the later name win — mirroring `CacheConfig::parse`, a
    /// doubled dimension is always a mistake.
    pub fn parse(s: &str) -> Result<NetConfig, String> {
        if s.trim() == "default" {
            return Ok(NetConfig::DEFAULT);
        }
        let mut topology: Option<TopologyKind> = None;
        let mut contention: Option<ContentionModel> = None;
        for part in s.split('+') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(t) = TopologyKind::parse(part) {
                if topology.is_some() {
                    return Err(format!("{part:?} names the topology twice in {s:?}"));
                }
                topology = Some(t);
            } else if let Some(m) = ContentionModel::parse(part) {
                if contention.is_some() {
                    return Err(format!(
                        "{part:?} names the contention model twice in {s:?}"
                    ));
                }
                contention = Some(m);
            } else {
                return Err(format!(
                    "unknown fabric policy {part:?} (expected a topology: {}; or a contention \
                     model: {})",
                    TopologyKind::expected(),
                    ContentionModel::expected()
                ));
            }
        }
        Ok(NetConfig {
            topology: topology.unwrap_or_default(),
            contention: contention.unwrap_or_default(),
        })
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
                assert_eq!(NetConfig::parse(&config.label()), Ok(config));
            }
        }
        assert_eq!(ContentionModel::parse("link"), Some(ContentionModel::Link));
        assert_eq!(ContentionModel::parse("flit"), None);
    }

    #[test]
    fn parse_accepts_partial_compositions() {
        assert_eq!(
            NetConfig::parse("mesh").unwrap(),
            NetConfig {
                topology: TopologyKind::Mesh,
                ..NetConfig::DEFAULT
            }
        );
        assert_eq!(
            NetConfig::parse("link").unwrap(),
            NetConfig {
                contention: ContentionModel::Link,
                ..NetConfig::DEFAULT
            }
        );
        assert_eq!(NetConfig::parse("default").unwrap(), NetConfig::DEFAULT);
        assert!(NetConfig::parse("banyan").is_err());
    }

    #[test]
    fn parse_rejects_doubled_dimensions() {
        let err = NetConfig::parse("mesh+torus").unwrap_err();
        assert!(err.contains("topology twice"), "{err}");
        let err = NetConfig::parse("link+ni-only").unwrap_err();
        assert!(err.contains("contention model twice"), "{err}");
        // A topology plus a contention model is still one of each.
        assert!(NetConfig::parse("crossbar+link").is_ok());
    }

    #[test]
    fn topology_set_parses_and_filters() {
        let list = ["torus", "crossbar"].map(|n| TopologyKind::from_name(n).unwrap());
        let kept: Vec<_> = TopologyKind::ALL
            .into_iter()
            .filter(|t| list.contains(t))
            .collect();
        assert_eq!(kept, [TopologyKind::Torus, TopologyKind::Crossbar]);
        assert_eq!(TopologyKind::ALL.len(), 4);
        assert_eq!(
            TopologyKind::from_name("ring").unwrap_err(),
            "unknown topology \"ring\" (expected torus, mesh, hypercube, or crossbar)"
        );
    }

    #[test]
    fn contention_set_parses_and_filters() {
        let link = ContentionModel::from_name("link").unwrap();
        let kept: Vec<_> = ContentionModel::ALL
            .into_iter()
            .filter(|c| *c == link)
            .collect();
        assert_eq!(kept, [ContentionModel::Link]);
        assert_eq!(ContentionModel::ALL.len(), 2);
        assert_eq!(
            ContentionModel::from_name("wormhole").unwrap_err(),
            "unknown contention model \"wormhole\" (expected ni-only or link)"
        );
    }
}
