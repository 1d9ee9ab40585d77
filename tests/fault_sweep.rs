//! Integration tests of the fault-injection subsystem end to end: the
//! `fault-sweep` scenario is jobs-invariant, a bare drive death loses data
//! and reports zero throughput while mirror and parity survive it through
//! reconstruction, transient storms fire their scheduled events, the
//! healthy composition carries zeroed fault counters, and the headline
//! cells are pinned bit-exactly.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994. The claims are
//! predicates in `ddio_bench::claims`, evaluated over the shared sweep.

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::{FaultPolicy, RedundancyPolicy};

/// The smoke-scale sweep every test here reads.
fn sweep() -> &'static [ScenarioRun] {
    &claims::shared("fault-sweep").1
}

#[test]
fn fault_sweep_is_jobs_invariant() {
    claims::assert_jobs_invariant("fault-sweep");
}

#[test]
fn healthy_cells_report_zero_fault_counters() {
    claims::check("healthy_cells_report_zero_fault_counters", sweep());
}

#[test]
fn an_unprotected_drive_death_zeroes_the_cell() {
    claims::check("an_unprotected_drive_death_zeroes_the_cell", sweep());
}

#[test]
fn mirror_and_parity_survive_the_drive_death() {
    claims::check("mirror_and_parity_survive_the_drive_death", sweep());
}

#[test]
fn transient_storms_fire_and_degrade_without_losing_data() {
    claims::check(
        "transient_storms_fire_and_degrade_without_losing_data",
        sweep(),
    );
}

/// Pinned snapshot of the sweep's headline cells at the reduced scale.
/// These are bit-exact goldens: re-pin them only when a deliberate model
/// change moves the numbers, never to quiet a surprise diff.
#[test]
fn golden_fault_snapshot() {
    let golden: [(&str, &str, FaultPolicy, RedundancyPolicy, f64); 6] = [
        (
            "rb",
            "TC",
            FaultPolicy::None,
            RedundancyPolicy::None,
            4.542932846030493,
        ),
        (
            "rb",
            "DDIO(sort)",
            FaultPolicy::None,
            RedundancyPolicy::None,
            5.514492104551484,
        ),
        (
            "rb",
            "DDIO(sort)",
            FaultPolicy::Transient,
            RedundancyPolicy::None,
            3.7202852216189712,
        ),
        (
            "rb",
            "DDIO(sort)",
            FaultPolicy::Failure,
            RedundancyPolicy::Mirrored,
            2.9723534421316744,
        ),
        (
            "rb",
            "DDIO(sort)",
            FaultPolicy::Failure,
            RedundancyPolicy::Parity,
            0.6030370713813383,
        ),
        (
            "ra",
            "DDIO(sort)",
            FaultPolicy::Failure,
            RedundancyPolicy::Parity,
            0.6861452267911735,
        ),
    ];
    for (pattern, label, faults, redundancy, expected) in golden {
        let (f, r) = (faults.name(), redundancy.name());
        let query = format!("fault-sweep {pattern} {label} faults={f} redundancy={r}");
        let got = claims::mean(sweep(), &query).unwrap();
        assert!(
            got.to_bits() == expected.to_bits(),
            "{pattern} {label} faults={} redundancy={}: got {got} (bits {:#018x}), \
             golden {expected}",
            faults.name(),
            redundancy.name(),
            got.to_bits()
        );
    }
}
