//! Integration tests of the open-loop serving subsystem end to end: the
//! `serve-sweep` scenario is jobs-invariant (throughput *and* tail
//! latencies), every open-loop cell serves its full request schedule with
//! ordered percentiles and per-tenant accounting, the headline claim
//! (disk-directed batching keeps admission queueing far below TC's) holds
//! across every matched composition, and the default-composition and
//! headline cells are pinned bit-exactly.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994. The claims are
//! predicates in `ddio_bench::claims`, evaluated over the shared sweep.

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;

/// The smoke-scale sweep every test here reads.
fn sweep() -> &'static [ScenarioRun] {
    &claims::shared("serve-sweep").1
}

#[test]
fn serve_sweep_is_jobs_invariant() {
    claims::assert_jobs_invariant("serve-sweep");
}

#[test]
fn every_cell_serves_the_full_schedule_with_ordered_percentiles() {
    claims::check(
        "every_cell_serves_the_full_schedule_with_ordered_percentiles",
        sweep(),
    );
}

#[test]
fn ddio_batching_beats_tc_queueing_at_every_composition() {
    claims::check(
        "ddio_batching_beats_tc_queueing_at_every_composition",
        sweep(),
    );
}

/// Pinned snapshot of the sweep's default-composition and headline cells at
/// the reduced scale. These are bit-exact goldens: re-pin them only when a
/// deliberate model change moves the numbers, never to quiet a surprise
/// diff.
#[test]
fn golden_serve_snapshot() {
    // (method, axes, mean MiB/s, p999 ms, mean queue-wait ms)
    let golden: [(&str, &str, f64, f64, f64); 4] = [
        (
            "TC",
            "arrival=poisson;qos=fifo;load=1000",
            3.2770900943491115,
            562.036736,
            173.09001352734376,
        ),
        (
            "DDIO(sort)",
            "arrival=poisson;qos=fifo;load=1000",
            3.069735838287507,
            595.591168,
            10.1105214609375,
        ),
        (
            "TC",
            "arrival=bursty;qos=fair-share;load=1500",
            3.3432503108608467,
            578.813952,
            200.68719097265625,
        ),
        (
            "DDIO(sort)",
            "arrival=bursty;qos=fair-share;load=1500",
            3.3667163799374045,
            545.25952,
            12.99826058984375,
        ),
    ];
    for (label, axes, mean, p999, queue) in golden {
        let query = format!("serve-sweep rb {label} {}", axes.replace(';', " "));
        let (_, cell) = claims::cell(sweep(), &query).unwrap();
        let (got_mean, serve) = (cell.point.mean(), &cell.point.last_outcome.serve);
        for (what, got, expected) in [
            ("mean MiB/s", got_mean, mean),
            ("p999 ms", serve.p999_ms, p999),
            ("mean queue ms", serve.mean_queue_ms, queue),
        ] {
            assert!(
                got.to_bits() == expected.to_bits(),
                "{label} {axes} {what}: got {got} (bits {:#018x}), golden {expected}",
                got.to_bits()
            );
        }
    }
}
