//! Integration tests for the sensitivity experiments: hardware scaling
//! behaves the way Figures 5-8 describe.

use disk_directed_io::core::experiment::run_data_point;
use disk_directed_io::{AccessPattern, LayoutPolicy, MachineConfig, Method};

fn base(layout: LayoutPolicy) -> MachineConfig {
    MachineConfig {
        file_bytes: 4 * 1024 * 1024,
        layout,
        ..MachineConfig::default()
    }
}

/// Figure 7: with a single IOP, adding disks helps until the 10 MB/s bus
/// saturates.
#[test]
fn single_bus_saturates_with_many_disks() {
    let mut config = base(LayoutPolicy::Contiguous);
    config.n_iops = 1;
    let pattern = AccessPattern::parse("rb").unwrap();
    let rate = |disks: usize| {
        let cfg = MachineConfig {
            n_disks: disks,
            ..config.clone()
        };
        run_data_point(&cfg, Method::DDIO_SORTED, pattern, 8192, 1, 3).mean()
    };
    let one = rate(1);
    let four = rate(4);
    let sixteen = rate(16);
    assert!(
        four > 2.5 * one,
        "4 disks ({four:.2}) not ~4x 1 disk ({one:.2})"
    );
    // The bus is 10 MB/s; 16 disks cannot go much beyond it.
    assert!(
        sixteen < 10.5,
        "16 disks on one bus exceeded the bus limit: {sixteen:.2} MiB/s"
    );
    assert!(
        sixteen > four,
        "throughput should not collapse as disks are added"
    );
}

/// Figure 8: on the random-blocks layout each disk is slow enough that the
/// bus never limits; throughput keeps scaling through 16 disks.
#[test]
fn random_layout_keeps_scaling_with_disks() {
    let mut config = base(LayoutPolicy::RandomBlocks);
    config.n_iops = 1;
    let pattern = AccessPattern::parse("rb").unwrap();
    let rate = |disks: usize| {
        let cfg = MachineConfig {
            n_disks: disks,
            ..config.clone()
        };
        run_data_point(&cfg, Method::DDIO_SORTED, pattern, 8192, 1, 3).mean()
    };
    let four = rate(4);
    let sixteen = rate(16);
    assert!(
        sixteen > 2.5 * four,
        "random layout stopped scaling: 16 disks {sixteen:.2} vs 4 disks {four:.2}"
    );
}

/// Figure 5: disk-directed throughput is insensitive to the number of CPs.
#[test]
fn ddio_is_insensitive_to_cp_count() {
    let config = base(LayoutPolicy::Contiguous);
    let pattern = AccessPattern::parse("rb").unwrap();
    let mut rates = Vec::new();
    for cps in [2usize, 4, 16] {
        let cfg = MachineConfig {
            n_cps: cps,
            ..config.clone()
        };
        rates.push(run_data_point(&cfg, Method::DDIO_SORTED, pattern, 8192, 1, 5).mean());
    }
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.1,
        "DDIO varied {min:.2}..{max:.2} MiB/s as CPs changed"
    );
}

/// Figure 6: with few IOPs (many disks per bus) the buses limit throughput;
/// with 16 IOPs the disks do.
#[test]
fn iop_count_moves_the_bottleneck() {
    let config = base(LayoutPolicy::Contiguous);
    let pattern = AccessPattern::parse("rb").unwrap();
    let rate = |iops: usize| {
        let cfg = MachineConfig {
            n_iops: iops,
            ..config.clone()
        };
        run_data_point(&cfg, Method::DDIO_SORTED, pattern, 8192, 1, 7).mean()
    };
    let one = rate(1);
    let two = rate(2);
    let sixteen = rate(16);
    assert!(
        one < 10.5,
        "one 10 MB/s bus cannot exceed 10 MiB/s: {one:.2}"
    );
    assert!(
        two > 1.5 * one,
        "two buses should roughly double one: {two:.2} vs {one:.2}"
    );
    assert!(
        sixteen > 25.0,
        "with one disk per bus the disks should be the limit: {sixteen:.2}"
    );
}

/// The experiment harness reports trial spread; on the contiguous layout the
/// variation between seeds should be small.
#[test]
fn trial_variation_is_small_on_contiguous_layout() {
    let config = base(LayoutPolicy::Contiguous);
    let pattern = AccessPattern::parse("rbb").unwrap();
    let dp = run_data_point(&config, Method::DDIO_SORTED, pattern, 8192, 4, 21);
    assert!(dp.cv() < 0.05, "cv was {:.3}", dp.cv());
    assert_eq!(dp.trials.len(), 4);
}
