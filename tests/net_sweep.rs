//! Integration tests of the interconnect subsystem end to end: the
//! `net-sweep` scenario is jobs-invariant, disk-directed I/O's advantage on
//! the block-distributed read survives every multi-hop fabric under both
//! contention models, the default fabric's numbers are pinned bit-exactly,
//! and the link model obeys its conservation law at machine scale.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994. The claims are
//! predicates in `ddio_bench::claims`, evaluated over the shared sweep.

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::{
    run_transfer, AccessPattern, ContentionModel, MachineConfig, Method, NetConfig, TopologyKind,
};

/// The smoke-scale sweep every test here reads.
fn sweep() -> &'static [ScenarioRun] {
    &claims::shared("net-sweep").1
}

#[test]
fn net_sweep_is_jobs_invariant() {
    claims::assert_jobs_invariant("net-sweep");
}

#[test]
fn ddio_rb_advantage_survives_every_multihop_fabric() {
    claims::check("ddio_rb_advantage_survives_every_multihop_fabric", sweep());
}

#[test]
fn ddio_is_fabric_insensitive_while_tc_swings() {
    claims::check("ddio_is_fabric_insensitive_while_tc_swings", sweep());
}

/// The satellite golden: the default fabric (torus + ni-only) and its
/// link-contended sibling on the rb pattern, pinned bit-exactly. The
/// torus+ni-only cells run the exact code path of every pre-refactor
/// scenario, so if one of these numbers moves the refactor changed the
/// simulated physics — re-pin only deliberately.
#[test]
fn golden_fabric_snapshot() {
    const GOLDEN_TC_DEFAULT: f64 = 7.1134584385805075;
    const GOLDEN_DDIO_DEFAULT: f64 = 16.176845795899844;
    const GOLDEN_DDIO_TORUS_LINK: f64 = 14.638852554036946;

    let torus_link = NetConfig {
        topology: TopologyKind::Torus,
        contention: ContentionModel::Link,
    };
    for (what, fabric, label, golden) in [
        (
            "TC on the paper fabric",
            NetConfig::DEFAULT,
            "TC",
            GOLDEN_TC_DEFAULT,
        ),
        (
            "DDIO(sort) on the paper fabric",
            NetConfig::DEFAULT,
            "DDIO(sort)",
            GOLDEN_DDIO_DEFAULT,
        ),
        (
            "DDIO(sort) on the link-contended torus",
            torus_link,
            "DDIO(sort)",
            GOLDEN_DDIO_TORUS_LINK,
        ),
    ] {
        let (topology, net) = (fabric.topology.name(), fabric.contention.name());
        let query = format!("net-sweep rb {label} topology={topology} net={net}");
        let got = claims::mean(sweep(), &query).unwrap();
        assert_eq!(
            got.to_bits(),
            golden.to_bits(),
            "{what} moved: got {got:?}, golden {golden:?}"
        );
    }
}

/// Conservation at machine scale: under the link model the total link busy
/// time of a transfer is at least the serialization time of every byte that
/// crossed the fabric (each message holds ≥ 1 link for its serialization
/// time), and the per-node NI occupancy diagnostics are populated.
#[test]
fn link_model_conserves_serialization_time_at_machine_scale() {
    let config = MachineConfig {
        file_bytes: 1024 * 1024,
        fabric: NetConfig {
            topology: TopologyKind::Torus,
            contention: ContentionModel::Link,
        },
        ..MachineConfig::default()
    };
    let pattern = AccessPattern::parse("rb").expect("known pattern");
    let outcome = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 1994);
    let wire_secs = outcome.network_bytes as f64 / config.net.link_bytes_per_sec;
    assert!(
        outcome.link_busy_total_secs() >= wire_secs * 0.999,
        "link busy {:.6}s < NI serialization {:.6}s",
        outcome.link_busy_total_secs(),
        wire_secs
    );
    assert!(!outcome.link_stats.is_empty());
    assert_eq!(outcome.ni_send_utilization.len(), config.n_nodes());
    assert!(outcome.max_ni_recv_utilization() > 0.0);

    // The same transfer on the default fabric charges no link at all.
    let default_outcome = run_transfer(
        &MachineConfig {
            file_bytes: 1024 * 1024,
            ..MachineConfig::default()
        },
        Method::DDIO_SORTED,
        pattern,
        8192,
        1994,
    );
    assert!(default_outcome.link_stats.is_empty());
    assert_eq!(default_outcome.link_busy_total_secs(), 0.0);
}
