//! Smoke tests for the exhibits: `ddio-bench run table1` and `run fig3` ..
//! `run fig8` at reduced scale (1 MiB file, one trial) so the exhibits can't
//! silently rot, plus the CLI's listing, formats, and error paths.
//!
//! Each test asserts a successful exit and a couple of landmark strings in
//! the output, not exact numbers — the figures' values are covered by the
//! statistical assertions in the workspace's `tests/headline_claims.rs`.

use std::process::{Command, Output};

/// Runs `ddio-bench run <exhibit>` and checks its report for `landmarks`.
fn exhibit(name: &str, landmarks: &[&str]) -> String {
    let out = run_cli(&["run", name]);
    assert!(
        out.status.success(),
        "ddio-bench run {name} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for landmark in landmarks {
        assert!(
            stdout.contains(landmark),
            "ddio-bench run {name} output missing {landmark:?}:\n{stdout}"
        );
    }
    stdout
}

#[test]
fn table1_prints_the_machine_parameters() {
    exhibit("table1", &["Table 1", "HP 97560", "6x6 torus", "1 MB"]);
}

#[test]
fn fig3_covers_every_pattern_at_reduced_scale() {
    let out = exhibit("fig3", &["Figure 3", "ra"]);
    // All 19 patterns of the figure should appear as data rows.
    for name in [
        "rn", "rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn", "wn", "wb", "wc", "wnb", "wbb",
        "wcb", "wbc", "wcc", "wcn",
    ] {
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "fig3 missing pattern row {name:?}:\n{out}"
        );
    }
}

#[test]
fn fig4_runs_the_contiguous_layout() {
    exhibit("fig4", &["Figure 4", "rb"]);
}

#[test]
fn fig5_runs_the_cp_sweep() {
    exhibit("fig5", &["Figure 5", "number of CPs"]);
}

#[test]
fn fig6_runs_the_iop_sweep() {
    exhibit("fig6", &["Figure 6", "number of IOPs"]);
}

#[test]
fn fig7_runs_the_contiguous_disk_sweep() {
    exhibit("fig7", &["Figure 7", "number of disks"]);
}

#[test]
fn fig8_runs_the_random_layout_disk_sweep() {
    exhibit("fig8", &["Figure 8", "random-blocks layout"]);
}

/// Runs the unified CLI at reduced scale with extra arguments.
fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddio-bench"))
        .args(args)
        .env("DDIO_FILE_MB", "1")
        .env("DDIO_TRIALS", "1")
        .env("DDIO_SMALL_RECORDS", "0")
        .env("DDIO_SEED", "1994")
        .output()
        .expect("failed to spawn ddio-bench")
}

#[test]
fn cli_list_names_every_registered_scenario() {
    let out = run_cli(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for name in [
        "table1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "mixed-rw",
        "record-cp-cross",
    ] {
        assert!(stdout.contains(name), "list missing {name}:\n{stdout}");
    }
}

#[test]
fn cli_run_all_emits_valid_json() {
    let out = run_cli(&["run", "all", "--format", "json", "--jobs", "2"]);
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.starts_with(r#"{"scale":{"file_mib":1,"trials":1,"small_records":false,"#)
            && stdout.ends_with("}]}\n"),
        "ddio-bench run all produced a malformed document:\n{stdout}"
    );
    for name in ["\"fig3\"", "\"fig8\"", "\"mixed-rw\"", "\"aggregate\""] {
        assert!(stdout.contains(name), "JSON missing {name}");
    }
}

#[test]
fn cli_run_fig5_csv_has_the_expected_shape() {
    let out = run_cli(&["run", "fig5", "--format", "csv"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut lines = stdout.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("scenario,pattern,method,record_bytes"));
    // 5 CP counts x 4 patterns x 2 methods data rows.
    assert_eq!(lines.count(), 40);
    assert!(stdout.contains("cps=16"));
}

#[test]
fn cli_rejects_zero_trials_with_a_clear_error() {
    // Pin every knob so an ambient DDIO_* setting can't change which
    // variable gets rejected first.
    let out = Command::new(env!("CARGO_BIN_EXE_ddio-bench"))
        .args(["run", "fig5"])
        .env("DDIO_FILE_MB", "1")
        .env("DDIO_TRIALS", "0")
        .env("DDIO_SMALL_RECORDS", "0")
        .env("DDIO_SEED", "1994")
        .output()
        .expect("failed to spawn ddio-bench");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("DDIO_TRIALS") && stderr.contains("at least 1"),
        "unhelpful error:\n{stderr}"
    );
}

#[test]
fn cli_rejects_unknown_scenarios() {
    let out = run_cli(&["run", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}
