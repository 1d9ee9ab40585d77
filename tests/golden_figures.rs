//! Golden-value regression tests: reduced-scale headline numbers for
//! Table 1 and Figure 5, snapshotted against the registry runner.
//!
//! The simulator is deterministic, so these values are stable across
//! machines and `--jobs` counts; the tight relative tolerance exists only to
//! absorb harmless floating-point reassociation. If a perf refactor moves a
//! number past the tolerance it changed the simulated physics — that must be
//! a deliberate, reviewed decision (update the constants in the same PR),
//! never a silent side effect.
//!
//! Snapshot scale: `DDIO_FILE_MB=1`, one trial, seed 1994 (the same reduced
//! scale the smoke tests and CI use).

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::MachineConfig;

const REL_TOL: f64 = 1e-6;

/// The smoke-scale Figure 5, run once and shared by both of its tests.
fn fig5() -> &'static [ScenarioRun] {
    &claims::shared("fig5").1
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    let rel = (actual - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= REL_TOL,
        "{what}: got {actual}, golden {expected} (relative error {rel:.3e})"
    );
}

/// Table 1 headline numbers: the modelled machine's fixed capacities.
#[test]
fn table1_machine_constants_match_golden_values() {
    let config = MachineConfig {
        file_bytes: 1024 * 1024,
        ..MachineConfig::default()
    };
    let geometry = config.disk.geometry;
    // HP 97560: 1.3 GB nominal; our geometry works out to 1.37 GB.
    assert_close(
        geometry.capacity_bytes() as f64,
        1_374_216_192.0,
        "disk capacity (bytes)",
    );
    // Peak media rate ~2.34 MiB/s per drive.
    assert_close(
        geometry.peak_transfer_bytes_per_sec() / (1024.0 * 1024.0),
        2.344921875,
        "peak transfer rate (MiB/s)",
    );
    // 16 drives aggregate to the paper's ~37.5 MiB/s ceiling.
    assert_close(
        config.peak_disk_bandwidth() / (1024.0 * 1024.0),
        37.51875,
        "aggregate peak disk bandwidth (MiB/s)",
    );
    assert_close(
        config.hardware_limit() / (1024.0 * 1024.0),
        37.51875,
        "hardware limit (MiB/s)",
    );
    assert_eq!(config.n_blocks(), 128, "1 MiB file in 8 KB blocks");
}

/// Figure 5 at the snapshot scale: mean throughput (MiB/s) of every
/// (CP count, pattern, method) cell.
#[test]
fn fig5_throughputs_match_golden_values() {
    #[rustfmt::skip]
    const GOLDEN: &[(u64, &str, &str, f64)] = &[
        (1, "ra", "TC", 16.38419468512781),
        (1, "ra", "DDIO(sort)", 16.397799867837012),
        (1, "rn", "TC", 16.38419468512781),
        (1, "rn", "DDIO(sort)", 16.397799867837012),
        (1, "rb", "TC", 16.38419468512781),
        (1, "rb", "DDIO(sort)", 16.397799867837012),
        (1, "rc", "TC", 16.38419468512781),
        (1, "rc", "DDIO(sort)", 16.397799867837012),
        (2, "ra", "TC", 16.372831375505633),
        (2, "ra", "DDIO(sort)", 16.385096699351713),
        (2, "rn", "TC", 16.38417320980912),
        (2, "rn", "DDIO(sort)", 16.397794490081967),
        (2, "rb", "TC", 5.896616648733876),
        (2, "rb", "DDIO(sort)", 16.397799867837012),
        (2, "rc", "TC", 16.38417320980912),
        (2, "rc", "DDIO(sort)", 16.397794490081967),
        (4, "ra", "TC", 16.350178709905826),
        (4, "ra", "DDIO(sort)", 16.359749316943656),
        (4, "rn", "TC", 16.384167840988244),
        (4, "rn", "DDIO(sort)", 16.397789112330447),
        (4, "rb", "TC", 5.862932013370018),
        (4, "rb", "DDIO(sort)", 16.397799867837012),
        (4, "rc", "TC", 16.384167840988244),
        (4, "rc", "DDIO(sort)", 16.397789112330447),
        (8, "ra", "TC", 16.305066223760196),
        (8, "ra", "DDIO(sort)", 16.309289097496293),
        (8, "rn", "TC", 16.38411952175869),
        (8, "rn", "DDIO(sort)", 16.397783734582454),
        (8, "rb", "TC", 7.93636993185301),
        (8, "rb", "DDIO(sort)", 16.397799867837012),
        (8, "rc", "TC", 16.38413025934063),
        (8, "rc", "DDIO(sort)", 16.397783734582454),
        (16, "ra", "TC", 16.21555243038619),
        (16, "ra", "DDIO(sort)", 16.209291519261395),
        (16, "rn", "TC", 16.384055096562623),
        (16, "rn", "DDIO(sort)", 16.39777835683799),
        (16, "rb", "TC", 7.444258194894387),
        (16, "rb", "DDIO(sort)", 16.397799867837012),
        (16, "rc", "TC", 16.38403362160986),
        (16, "rc", "DDIO(sort)", 16.39777835683799),
    ];

    let results = &fig5()[0].results;
    assert_eq!(results.len(), GOLDEN.len(), "fig5 grid shape changed");
    for (result, &(cps, pattern, method, golden_mean)) in results.iter().zip(GOLDEN) {
        assert_eq!(result.axes[0].name, "cps");
        assert_eq!(result.axes[0].value, cps, "cell order changed");
        assert_eq!(result.point.pattern, pattern, "cell order changed");
        assert_eq!(result.point.method.label(), method, "cell order changed");
        assert_close(
            result.point.mean(),
            golden_mean,
            &format!("fig5 cps={cps} {pattern} {method}"),
        );
        assert_close(result.hardware_limit_mibs, 37.51875, "fig5 hardware limit");
    }
}

/// A coarser physics check that will survive re-snapshots: at every CP
/// count, disk-directed I/O on `rb` meets or beats traditional caching.
#[test]
fn fig5_ddio_never_loses_to_tc_on_rb() {
    claims::check("fig5_ddio_never_loses_to_tc_on_rb", fig5());
}
