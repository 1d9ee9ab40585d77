//! Smoke tests of the exhibits and the `ddio-bench` surface, plus the pin
//! file of every simulated number.
//!
//! The smoke-scale `ddio-bench run all` pass (all 534 cells) runs once,
//! in-process, and its JSON, CSV and table bytes, the scenario listing and
//! every cell's executor event count must digest to the values in
//! `smoke.pins`. A moved number fails here with the complete replacement pin
//! file; a deliberate re-pin pastes it and states why. The same file holds
//! the perfbench results digests, which CI checks.
//!
//! The exhibit tests read `run fig3` .. `run fig8` and the run-all JSON and
//! CSV off that one pass, rendered exactly as the CLI renders them, and
//! check landmark strings and shapes. `run table1`, the listing and the
//! exit-code-2 error paths drive the binary itself.

use std::process::{Command, Output};

use ddio_bench::claims;
use ddio_bench::cli::{self, Format, RunCommand};
use ddio_bench::report::ScenarioRun;
use ddio_core::ContentionModel;

const PINS: &str = include_str!("smoke.pins");

/// The smoke pass of every scenario.
fn pass() -> &'static (RunCommand, Vec<ScenarioRun>) {
    claims::shared("all")
}

/// Every registered claim over the paper's run: the 10 MiB file, five
/// trials, 8 KB records only. Ignored in tier-1, where each claim is checked
/// over a smaller pass; CI runs it on the release build.
#[test]
#[ignore = "the paper-scale pass; run with --release -- --ignored"]
fn every_claim_holds_at_the_papers_file_size() {
    let (_, runs) = claims::pass("all --file-mb 10 --trials 5 --small-records 0 --seed 1994");
    let mut failures = Vec::new();
    for claim in claims::all() {
        match (claim.check)(&runs) {
            Ok(evidence) => println!("{}: {evidence}", claim.name),
            Err(why) => failures.push(format!("{}: {why}", claim.name)),
        }
    }
    assert!(
        failures.is_empty(),
        "fails at 10 MiB:\n{}",
        failures.join("\n")
    );
}

/// `name`'s report from the pass, rendered as `ddio-bench run <name>
/// --format <format>` prints it.
fn render_one(name: &str, format: Format) -> String {
    let (cmd, runs) = pass();
    let run = runs
        .iter()
        .find(|r| r.scenario.name == name)
        .unwrap_or_else(|| panic!("the pass has no {name}"));
    cli::render(format, &cmd.params, std::slice::from_ref(run))
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn smoke_pass_matches_the_pin_file() {
    let (cmd, runs) = pass();
    let render = |format| cli::render(format, &cmd.params, runs);
    let results = runs.iter().flat_map(|run| &run.results);
    let events = results
        .clone()
        .flat_map(|r| r.point.last_outcome.sim_events.to_le_bytes());
    let pinned = [
        ("cells", results.count().to_string()),
        ("json", fnv1a(render(Format::Json).into_bytes())),
        ("csv", fnv1a(render(Format::Csv).into_bytes())),
        ("table", fnv1a(render(Format::Table).into_bytes())),
        ("list", fnv1a(cli::render_list_json().into_bytes())),
        ("sim_events", fnv1a(events)),
    ];

    // The pin file with its `smoke` lines set to what this pass produced.
    let mut replacement: String = PINS
        .lines()
        .filter(|line| !line.starts_with("smoke "))
        .map(|line| format!("{line}\n"))
        .collect();
    for (key, value) in &pinned {
        replacement.push_str(&format!("smoke {key} {value}\n"));
    }
    assert!(
        replacement == PINS,
        "the smoke pass no longer matches crates/bench/tests/smoke.pins. If the \
         change is deliberate, replace that file with the following and state why:\n\
         {replacement}"
    );
}

/// Checks `name`'s table report for `landmarks` and returns it.
fn exhibit(name: &str, landmarks: &[&str]) -> String {
    let table = render_one(name, Format::Table);
    for landmark in landmarks {
        assert!(
            table.contains(landmark),
            "{name} report missing {landmark:?}:\n{table}"
        );
    }
    table
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

#[test]
fn cli_run_all_emits_valid_json() {
    let (cmd, runs) = pass();
    let json = cli::render(Format::Json, &cmd.params, runs);
    assert!(
        json.starts_with(r#"{"scale":{"file_mib":1,"trials":1,"small_records":false,"#)
            && json.ends_with("}]}\n"),
        "ddio-bench run all produced a malformed document:\n{json}"
    );
    for name in ["\"fig3\"", "\"fig8\"", "\"mixed-rw\"", "\"aggregate\""] {
        assert!(json.contains(name), "JSON missing {name}");
    }
}

#[test]
fn cli_run_fig5_csv_has_the_expected_shape() {
    let csv = render_one("fig5", Format::Csv);
    let mut lines = csv.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("scenario,pattern,method,record_bytes"));
    // 5 CP counts x 4 patterns x 2 methods data rows.
    assert_eq!(lines.count(), 40);
    assert!(csv.contains("cps=16"));
}

/// Every sched-sweep cell carries per-drive counters, and every net-sweep
/// cell NI occupancy per node, plus per-link counters exactly under the link
/// model.
#[test]
fn sweep_cells_carry_their_diagnostics() {
    let (_, runs) = pass();
    let cells = |name: &str| {
        let run = runs.iter().find(|r| r.scenario.name == name).unwrap();
        assert!(!run.results.is_empty(), "{name} ran no cells");
        run.results.iter().map(|r| &r.point.last_outcome)
    };
    for outcome in cells("sched-sweep") {
        assert!(!outcome.disk_stats.is_empty(), "missing drive counters");
        assert_eq!(outcome.disk_utilization.len(), outcome.disk_stats.len());
    }
    for outcome in cells("net-sweep") {
        assert!(
            !outcome.ni_send_utilization.is_empty(),
            "missing NI occupancy"
        );
        assert_eq!(
            outcome.ni_recv_utilization.len(),
            outcome.ni_send_utilization.len()
        );
        assert_eq!(
            outcome.link_stats.is_empty(),
            outcome.fabric.contention != ContentionModel::Link,
            "{}: link counters without the link model, or none with it",
            outcome.fabric.label()
        );
    }
}

/// Runs the CLI at reduced scale with `args`; `env` overrides the scale.
fn run_cli(args: &[&str], env: &[(&str, &str)]) -> Output {
    // Pin every knob so an ambient DDIO_* setting can't change the run.
    Command::new(env!("CARGO_BIN_EXE_ddio-bench"))
        .args(args)
        .env("DDIO_FILE_MB", "1")
        .env("DDIO_TRIALS", "1")
        .env("DDIO_SMALL_RECORDS", "0")
        .env("DDIO_SEED", "1994")
        .envs(env.iter().copied())
        .output()
        .expect("failed to spawn ddio-bench")
}

#[test]
fn table1_prints_the_machine_parameters() {
    let out = run_cli(&["run", "table1"], &[]);
    assert!(out.status.success(), "exited with {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for landmark in ["Table 1", "HP 97560", "6x6 torus", "1 MB"] {
        assert!(stdout.contains(landmark), "missing {landmark:?}:\n{stdout}");
    }
}

#[test]
fn cli_list_names_every_registered_scenario() {
    let out = run_cli(&["list"], &[]);
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
fn cli_rejects_zero_trials_with_a_clear_error() {
    let out = run_cli(&["run", "fig5"], &[("DDIO_TRIALS", "0")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("DDIO_TRIALS") && stderr.contains("at least 1"),
        "unhelpful error:\n{stderr}"
    );
}

#[test]
fn cli_rejects_unknown_scenarios() {
    let out = run_cli(&["run", "fig99"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}
