//! Integration tests for the paper's headline claims (DESIGN.md §3).
//!
//! These run at full machine scale (16 CPs / 16 IOPs / 16 disks, 10 MB file)
//! but only with 8 KB records, which keeps them to a few seconds; the 8-byte
//! stress results are exercised by `ddio-bench run fig3` / `fig4` instead.

use disk_directed_io::{run_transfer, AccessPattern, LayoutPolicy, MachineConfig, Method};

fn paper_config(layout: LayoutPolicy) -> MachineConfig {
    MachineConfig {
        layout,
        ..MachineConfig::default()
    }
}

/// Claim: disk-directed I/O is at least as fast as traditional caching on
/// every pattern (within a small tolerance for noise).
#[test]
fn ddio_is_never_substantially_slower_than_tc() {
    let config = paper_config(LayoutPolicy::Contiguous);
    for pattern in AccessPattern::paper_all_patterns() {
        let tc = run_transfer(&config, Method::TC, pattern, 8192, 5);
        let ddio = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 5);
        assert!(
            ddio.throughput_mibs >= 0.95 * tc.throughput_mibs,
            "pattern {}: DDIO {:.2} MiB/s vs TC {:.2} MiB/s",
            pattern.name(),
            ddio.throughput_mibs,
            tc.throughput_mibs
        );
    }
}

/// Claim: on the contiguous layout disk-directed I/O reaches a large fraction
/// of the aggregate peak disk bandwidth (the paper reports up to 93%).
#[test]
fn ddio_approaches_peak_disk_bandwidth_on_contiguous_layout() {
    let config = paper_config(LayoutPolicy::Contiguous);
    let peak_mibs = config.peak_disk_bandwidth() / (1024.0 * 1024.0);
    for name in ["rb", "rcc", "wb"] {
        let pattern = AccessPattern::parse(name).unwrap();
        let outcome = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 3);
        assert!(
            outcome.throughput_mibs > 0.75 * peak_mibs,
            "{name}: {:.2} MiB/s is below 75% of the {peak_mibs:.1} MiB/s peak",
            outcome.throughput_mibs
        );
        assert!(
            outcome.disk_sequential_fraction() > 0.9,
            "{name}: only {:.0}% of disk requests were sequential",
            outcome.disk_sequential_fraction() * 100.0
        );
    }
}

/// Claim: presorting the block list by physical location gives a substantial
/// gain on the random-blocks layout (the paper reports 41-50%).
#[test]
fn presorting_improves_random_layout_throughput() {
    let config = paper_config(LayoutPolicy::RandomBlocks);
    let pattern = AccessPattern::parse("rb").unwrap();
    let unsorted = run_transfer(&config, Method::DDIO, pattern, 8192, 11);
    let sorted = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 11);
    let gain = sorted.throughput_mibs / unsorted.throughput_mibs;
    assert!(
        (1.2..2.5).contains(&gain),
        "presort gain was {gain:.2}x (sorted {:.2}, unsorted {:.2})",
        sorted.throughput_mibs,
        unsorted.throughput_mibs
    );
}

/// Claim: the contiguous layout is roughly five times faster than the
/// random-blocks layout for disk-directed I/O.
#[test]
fn contiguous_layout_is_several_times_faster_than_random() {
    let pattern = AccessPattern::parse("rb").unwrap();
    let contiguous = run_transfer(
        &paper_config(LayoutPolicy::Contiguous),
        Method::DDIO_SORTED,
        pattern,
        8192,
        13,
    );
    let random = run_transfer(
        &paper_config(LayoutPolicy::RandomBlocks),
        Method::DDIO_SORTED,
        pattern,
        8192,
        13,
    );
    let ratio = contiguous.throughput_mibs / random.throughput_mibs;
    assert!(
        (3.0..8.0).contains(&ratio),
        "contiguous/random ratio was {ratio:.2} (contiguous {:.2}, random {:.2})",
        contiguous.throughput_mibs,
        random.throughput_mibs
    );
}

/// Claim: traditional caching is many times slower than disk-directed I/O in
/// its worst cases (the paper reports up to 16.2x with 8-byte records; with
/// 8 KB records the worst patterns are still several times slower).
#[test]
fn tc_worst_case_is_several_times_slower_than_ddio() {
    let config = paper_config(LayoutPolicy::Contiguous);
    let mut worst_ratio: f64 = 0.0;
    for name in ["rb", "rcn", "wb"] {
        let pattern = AccessPattern::parse(name).unwrap();
        let tc = run_transfer(&config, Method::TC, pattern, 8192, 17);
        let ddio = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 17);
        worst_ratio = worst_ratio.max(ddio.throughput_mibs / tc.throughput_mibs);
    }
    assert!(
        worst_ratio > 3.0,
        "worst TC slowdown was only {worst_ratio:.2}x"
    );
}

/// Claim: disk-directed throughput is nearly independent of the access
/// pattern on the contiguous layout (8 KB records).
#[test]
fn ddio_throughput_is_nearly_pattern_independent() {
    let config = paper_config(LayoutPolicy::Contiguous);
    let mut rates = Vec::new();
    for pattern in AccessPattern::paper_read_patterns() {
        let outcome = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 19);
        rates.push(outcome.throughput_mibs);
    }
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.15,
        "DDIO read throughput varied from {min:.2} to {max:.2} MiB/s across patterns"
    );
}

/// The determinism guarantee the experiment harness relies on: the same seed
/// reproduces the same throughput bit for bit, different seeds perturb the
/// random layout.
#[test]
fn transfers_are_deterministic_per_seed() {
    let config = paper_config(LayoutPolicy::RandomBlocks);
    let pattern = AccessPattern::parse("rcb").unwrap();
    let a = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 555);
    let b = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 555);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.messages, b.messages);
    let c = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 556);
    assert_ne!(a.elapsed, c.elapsed, "different seeds should differ");
}
