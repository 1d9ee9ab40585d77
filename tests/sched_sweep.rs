//! Integration tests of the disk-scheduling subsystem end to end: the
//! `sched-sweep` scenario is jobs-invariant, the smarter policies beat FCFS
//! on random-layout reads (the paper's Figure-comparison direction), and a
//! reduced-scale FCFS-vs-Presort disk-directed run is pinned bit-exactly.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994 — the same reduced scale
//! as `tests/golden_figures.rs` and the CI smoke runs.

use disk_directed_io::core::experiment::scenario::{find, run_scenario, CellResult, SweepParams};
use disk_directed_io::{run_transfer, AccessPattern, MachineConfig, Method, SchedPolicy};

fn sweep_params() -> SweepParams {
    SweepParams {
        base: MachineConfig {
            file_bytes: 1024 * 1024,
            ..MachineConfig::default()
        },
        trials: 1,
        seed: 1994,
        small_records: false,
    }
}

fn run_sweep(jobs: usize) -> Vec<CellResult> {
    let scenario = find("sched-sweep").expect("registered scenario");
    run_scenario(&scenario, &sweep_params(), jobs)
}

/// The parallel sweep, computed once and shared by every read-only test
/// (the jobs-invariance test proves any jobs count gives these exact
/// results, so re-simulating per test would only burn time).
fn sweep_results() -> &'static [CellResult] {
    static RESULTS: std::sync::OnceLock<Vec<CellResult>> = std::sync::OnceLock::new();
    RESULTS.get_or_init(|| run_sweep(8))
}

fn mean_of(results: &[CellResult], pattern: &str, label: &str) -> f64 {
    results
        .iter()
        .find(|r| r.point.pattern == pattern && r.point.method.label() == label)
        .unwrap_or_else(|| panic!("no cell for {pattern} {label}"))
        .point
        .mean()
}

#[test]
fn sched_sweep_is_jobs_invariant() {
    let serial = run_sweep(1);
    let parallel = sweep_results();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.point.pattern, p.point.pattern);
        assert_eq!(s.point.method, p.point.method);
        let s_bits: Vec<u64> = s.point.trials.iter().map(|t| t.to_bits()).collect();
        let p_bits: Vec<u64> = p.point.trials.iter().map(|t| t.to_bits()).collect();
        assert_eq!(
            s_bits,
            p_bits,
            "--jobs 1 and --jobs 8 diverged at {} {}",
            s.point.pattern,
            s.point.method.label()
        );
    }
}

#[test]
fn presort_and_cscan_beat_fcfs_on_random_layout_reads() {
    let results = sweep_results();
    for pattern in ["ra", "rn", "rb", "rc"] {
        let fcfs = mean_of(results, pattern, "DDIO");
        let presort = mean_of(results, pattern, "DDIO(sort)");
        let cscan = mean_of(results, pattern, "DDIO(cscan)");
        assert!(
            presort > fcfs,
            "{pattern}: presort {presort:.3} did not beat FCFS {fcfs:.3}"
        );
        assert!(
            cscan > fcfs,
            "{pattern}: CSCAN {cscan:.3} did not beat FCFS {fcfs:.3}"
        );
    }
}

#[test]
fn drive_counters_reach_the_outcome() {
    let results = sweep_results();
    // Deep DDIO queues: some drive must have seen a non-trivial queue, and
    // every drive was busy for a positive fraction of the run.
    let ddio = results
        .iter()
        .find(|r| r.point.method == Method::DiskDirected(SchedPolicy::Cscan))
        .expect("cscan cell present");
    let outcome = &ddio.point.last_outcome;
    assert!(outcome.max_disk_queue_depth() >= 2, "queue never got deep");
    assert!(outcome.mean_disk_queue_depth() > 0.0);
    assert_eq!(outcome.disk_utilization.len(), outcome.disk_stats.len());
    assert!(outcome
        .disk_utilization
        .iter()
        .all(|&u| u > 0.0 && u <= 1.0));
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
