//! Integration tests of the disk-scheduling subsystem end to end: the
//! `sched-sweep` scenario is jobs-invariant, the smarter policies beat FCFS
//! on random-layout reads (the paper's Figure-comparison direction), and a
//! reduced-scale FCFS-vs-Presort disk-directed run is pinned bit-exactly.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994. The claims are
//! predicates in `ddio_bench::claims`, evaluated over the shared sweep.

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::{run_transfer, AccessPattern, MachineConfig, Method};

/// The smoke-scale sweep every test here reads.
fn sweep() -> &'static [ScenarioRun] {
    &claims::shared("sched-sweep").1
}

#[test]
fn sched_sweep_is_jobs_invariant() {
    claims::assert_jobs_invariant("sched-sweep");
}

#[test]
fn presort_and_cscan_beat_fcfs_on_random_layout_reads() {
    claims::check(
        "presort_and_cscan_beat_fcfs_on_random_layout_reads",
        sweep(),
    );
}

#[test]
fn drive_counters_reach_the_outcome() {
    claims::check("drive_counters_reach_the_outcome", sweep());
}

/// The satellite golden: a reduced-scale FCFS-vs-Presort disk-directed run
/// on the Table 1 machine (random-blocks layout), values pinned bit-exactly.
/// If a refactor moves one of these numbers it changed the simulated physics
/// or the scheduling subsystem's behavior — re-pin only deliberately.
#[test]
fn golden_fcfs_vs_presort_snapshot() {
    const GOLDEN_FCFS: f64 = 4.254169961858091;
    const GOLDEN_PRESORT: f64 = 5.093391224546344;

    let config = MachineConfig {
        file_bytes: 1024 * 1024,
        ..MachineConfig::default()
    };
    let pattern = AccessPattern::parse("rb").expect("known pattern");
    let fcfs = run_transfer(&config, Method::DDIO, pattern, 8192, 1994);
    let presort = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 1994);
    assert!(
        presort.throughput_mibs >= fcfs.throughput_mibs,
        "sorted {} fell below unsorted {}",
        presort.throughput_mibs,
        fcfs.throughput_mibs
    );
    assert_eq!(
        fcfs.throughput_mibs.to_bits(),
        GOLDEN_FCFS.to_bits(),
        "DDIO/FCFS moved: got {:?}, golden {:?}",
        fcfs.throughput_mibs,
        GOLDEN_FCFS
    );
    assert_eq!(
        presort.throughput_mibs.to_bits(),
        GOLDEN_PRESORT.to_bits(),
        "DDIO/presort moved: got {:?}, golden {:?}",
        presort.throughput_mibs,
        GOLDEN_PRESORT
    );
}
