//! Determinism of the parallel scenario runner: the same scenario with the
//! same seed must produce bit-identical throughput vectors whether it runs
//! on one worker or eight, across consecutive invocations.
//!
//! This is the contract that lets `ddio-bench run all --jobs N` run the
//! exhibits in parallel without changing a single reported number:
//! each cell's randomness depends only on its identity-derived seed, and the
//! thread pool is position-stable.

use disk_directed_io::core::experiment::scenario::{find, run_scenario, CellResult, SweepParams};
use disk_directed_io::MachineConfig;

fn reduced_params() -> SweepParams {
    SweepParams {
        base: MachineConfig {
            n_cps: 4,
            n_iops: 4,
            n_disks: 4,
            file_bytes: 256 * 1024,
            ..MachineConfig::default()
        },
        trials: 2,
        seed: 20260730,
        small_records: false,
    }
}

/// Every trial of every cell, as exact bit patterns (no float tolerance:
/// determinism means *identical*, not *close*). The serving tail latencies
/// ride along so `serve-sweep`'s p999 is held to the same standard as
/// throughput (NaN under closed-loop compositions has a fixed bit pattern).
fn trial_bits(results: &[CellResult]) -> Vec<(String, String, Vec<u64>)> {
    results
        .iter()
        .map(|r| {
            let mut bits: Vec<u64> = r.point.trials.iter().map(|t| t.to_bits()).collect();
            let serve = &r.point.last_outcome.serve;
            bits.push(serve.p50_ms.to_bits());
            bits.push(serve.p999_ms.to_bits());
            bits.push(serve.mean_queue_ms.to_bits());
            (
                r.point.pattern.clone(),
                r.point.method.label().to_owned(),
                bits,
            )
        })
        .collect()
}

#[test]
fn jobs_1_and_jobs_8_are_bit_identical_across_invocations() {
    let params = reduced_params();
    for name in ["mixed-rw", "record-cp-cross", "fault-sweep", "serve-sweep"] {
        let scenario = find(name).expect("registered scenario");
        let serial_a = trial_bits(&run_scenario(&scenario, &params, 1));
        let serial_b = trial_bits(&run_scenario(&scenario, &params, 1));
        let parallel_a = trial_bits(&run_scenario(&scenario, &params, 8));
        let parallel_b = trial_bits(&run_scenario(&scenario, &params, 8));
        assert!(!serial_a.is_empty(), "{name} produced no cells");
        assert_eq!(serial_a, serial_b, "{name}: serial reruns diverged");
        assert_eq!(parallel_a, parallel_b, "{name}: parallel reruns diverged");
        assert_eq!(
            serial_a, parallel_a,
            "{name}: --jobs 1 and --jobs 8 diverged"
        );
    }
}

#[test]
fn paper_exhibit_is_jobs_invariant_too() {
    // One sensitivity exhibit, scaled down: the registry path the golden
    // tests rely on must be jobs-invariant as well.
    let params = SweepParams {
        trials: 1,
        ..reduced_params()
    };
    let scenario = find("fig7").expect("registered scenario");
    let serial = trial_bits(&run_scenario(&scenario, &params, 1));
    let parallel = trial_bits(&run_scenario(&scenario, &params, 8));
    assert_eq!(serial, parallel);
}

#[test]
fn different_seeds_actually_change_random_layout_results() {
    // Guard against the trivial way to "pass" the tests above: ignoring the
    // seed entirely. On the random-blocks layout the seed drives the disk
    // layout, so some cell must move.
    let params = reduced_params();
    let other = SweepParams {
        seed: params.seed + 1,
        ..params.clone()
    };
    let scenario = find("mixed-rw").expect("registered scenario");
    let a = trial_bits(&run_scenario(&scenario, &params, 2));
    let b = trial_bits(&run_scenario(&scenario, &other, 2));
    assert_ne!(a, b, "changing the seed changed nothing");
}
