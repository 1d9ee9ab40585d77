//! Integration tests for the paper's headline claims (DESIGN.md §3).
//!
//! Each claim is a predicate in `ddio_bench::claims`, evaluated here over
//! the Figure 3 and 4 cells it reads, at full machine scale (16 CPs / 16
//! IOPs / 16 disks) with the paper's 10 MiB file, one trial and 8 KB records
//! only; the 8-byte stress results are exercised by `ddio-bench run fig3` /
//! `fig4` instead. The claims need the paper's file: at 1 MiB, DDIO(sort) on
//! `rb` reaches 16.4 of the 37.5 MiB/s peak, under the 75% bar.

use std::sync::OnceLock;

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::{run_transfer, AccessPattern, LayoutPolicy, MachineConfig, Method};

/// The cells of Figures 3 and 4 the claims read, with the paper's file: all
/// of Figure 4, and Figure 3's rb cells with and without presort. Run once
/// and shared by every claim test here.
fn figures() -> &'static [ScenarioRun] {
    static PASS: OnceLock<Vec<ScenarioRun>> = OnceLock::new();
    let scale = "--file-mb 10 --trials 1 --small-records 0 --seed 1994 --jobs 2";
    let fig3 = "fig3 --where pattern=rb --where method=DDIO,DDIO(sort)";
    PASS.get_or_init(|| {
        let mut runs = claims::pass(&format!("fig4 {scale}")).1;
        runs.extend(claims::pass(&format!("{fig3} {scale}")).1);
        runs
    })
}

#[test]
fn ddio_is_never_substantially_slower_than_tc() {
    claims::check("ddio_is_never_substantially_slower_than_tc", figures());
}

#[test]
fn ddio_approaches_peak_disk_bandwidth_on_contiguous_layout() {
    claims::check(
        "ddio_approaches_peak_disk_bandwidth_on_contiguous_layout",
        figures(),
    );
}

#[test]
fn presorting_improves_random_layout_throughput() {
    claims::check("presorting_improves_random_layout_throughput", figures());
}

#[test]
fn contiguous_layout_is_several_times_faster_than_random() {
    claims::check(
        "contiguous_layout_is_several_times_faster_than_random",
        figures(),
    );
}

#[test]
fn tc_worst_case_is_several_times_slower_than_ddio() {
    claims::check("tc_worst_case_is_several_times_slower_than_ddio", figures());
}

#[test]
fn ddio_throughput_is_nearly_pattern_independent() {
    claims::check("ddio_throughput_is_nearly_pattern_independent", figures());
}

/// The determinism guarantee the experiment harness relies on: the same seed
/// reproduces the same throughput bit for bit, different seeds perturb the
/// random layout.
#[test]
fn transfers_are_deterministic_per_seed() {
    let config = MachineConfig {
        layout: LayoutPolicy::RandomBlocks,
        ..MachineConfig::default()
    };
    let pattern = AccessPattern::parse("rcb").unwrap();
    let a = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 555);
    let b = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 555);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.messages, b.messages);
    let c = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 556);
    assert_ne!(a.elapsed, c.elapsed, "different seeds should differ");
}
