//! The `ddio-bench` command line: `list` the registry, `run` any scenario
//! (or `all`) in parallel, and emit text tables, JSON, or CSV.
//!
//! ```text
//! ddio-bench list [--format table|json]
//! ddio-bench run <scenario>|all [--jobs N] [--format table|json|csv]
//!                [--out FILE] [--trials N] [--seed N] [--file-mb N]
//!                [--small-records 0|1] [--where AXIS=V1,V2 ...]
//! ```
//!
//! The `DDIO_*` environment variables provide the defaults (see the crate
//! docs); the flags override them, and both write into the one
//! [`SweepParams`] every scenario is built from. All parsing errors are
//! reported before any simulation starts. Host-time performance is measured
//! by the separate `perfbench` workspace, not by this CLI.

use std::io::Write;

use ddio_core::experiment::pool;
use ddio_core::experiment::scenario::{self, Cell, Scenario, SweepParams};

use crate::report::{self, Json, ScenarioRun};

/// Output format of `ddio-bench run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned tables (the paper exhibits' report).
    Table,
    /// One JSON document with a stable schema.
    Json,
    /// One CSV row per cell.
    Csv,
}

/// A fully parsed `run` invocation.
#[derive(Debug, Clone)]
pub struct RunCommand {
    /// Scenarios to run, in registry order.
    pub scenarios: Vec<Scenario>,
    /// Worker threads.
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Output file (stdout when `None`).
    pub out: Option<String>,
    /// The run configuration after environment + flag resolution.
    pub params: SweepParams,
    /// The `--where` clauses: a cell runs only if, for every clause whose
    /// axis it has, its coordinate is one of the clause's values.
    pub filters: Vec<Where>,
}

/// One `--where AXIS=V1,V2` clause over [`Cell::coordinates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Where {
    /// The coordinate name (`sched`, `topology`, `bufs`, ...).
    pub axis: String,
    /// The accepted values.
    pub values: Vec<String>,
}

impl Where {
    /// Parses `AXIS=V1,V2`.
    fn parse(s: &str) -> Result<Where, String> {
        let (axis, list) = s
            .split_once('=')
            .ok_or_else(|| format!("--where {s:?}: expected AXIS=VALUE[,VALUE...]"))?;
        let values: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .map(str::to_owned)
            .collect();
        if axis.trim().is_empty() || values.is_empty() {
            return Err(format!("--where {s:?}: expected AXIS=VALUE[,VALUE...]"));
        }
        Ok(Where {
            axis: axis.trim().to_owned(),
            values,
        })
    }

    /// True unless `cell` has this clause's axis at a value not listed.
    fn keeps(&self, cell: &Cell) -> bool {
        cell.coordinates()
            .iter()
            .all(|(axis, value)| *axis != self.axis || self.values.contains(value))
    }

    /// Rejects an axis no cell has, or a value no cell takes, naming the
    /// valid choices among `cells`.
    fn check(&self, cells: &[Cell]) -> Result<(), String> {
        let mut axes: Vec<&'static str> = Vec::new();
        let mut values: Vec<String> = Vec::new();
        for cell in cells {
            for (axis, value) in cell.coordinates() {
                if !axes.contains(&axis) {
                    axes.push(axis);
                }
                if axis == self.axis && !values.contains(&value) {
                    values.push(value);
                }
            }
        }
        if !axes.contains(&self.axis.as_str()) {
            return Err(format!(
                "--where: unknown axis {:?} (the selected cells have: {})",
                self.axis,
                axes.join(", ")
            ));
        }
        match self.values.iter().find(|v| !values.contains(v)) {
            Some(v) => Err(format!(
                "--where: unknown {} value {v:?} (the selected cells have: {})",
                self.axis,
                values.join(", ")
            )),
            None => Ok(()),
        }
    }
}

/// The `--help` text. The scenario list comes from the registry, so it
/// cannot drift from what the CLI accepts.
fn usage() -> String {
    let scenarios: Vec<&str> = scenario::registry().iter().map(|s| s.name).collect();
    format!(
        "\
ddio-bench: unified scenario runner for the disk-directed-I/O reproduction

USAGE:
    ddio-bench list [--format table|json]
    ddio-bench run <scenario>|all [OPTIONS]

OPTIONS (run):
    --jobs N              worker threads (default: all cores)
    --format table|json|csv   output format (default: table)
    --out FILE            write the report to FILE instead of stdout
    --trials N            trials per data point (default: env DDIO_TRIALS or 5)
    --seed N              base random seed (default: env DDIO_SEED or 1994)
    --file-mb N           file size in MiB (default: env DDIO_FILE_MB or 10)
    --small-records 0|1   run the 8-byte-record half of fig3/fig4
    --where AXIS=V1,V2    run only the cells whose AXIS coordinate is one of
                          the values; repeatable, and a cell without AXIS
                          always runs (e.g. `--where sched=fcfs,presort`,
                          `--where topology=mesh --where net=link`). Axes:
                          pattern, method, sched, record, layout, topology,
                          net, faults, redundancy, arrival, qos; replacement,
                          prefetch, write (cells that run a cache); and each
                          scenario's sweep axes (cps, bufs, load, ...)

Scenarios (see `ddio-bench list` for descriptions and headline results):
{}",
        scenarios.join(" "),
    )
}

fn usage_err(message: impl Into<String>) -> String {
    format!("{}\n\n{}", message.into(), usage())
}

/// A `run` flag that sets a scaling knob: the flag, the `DDIO_*` variable
/// it shadows, what its value must be, and the check of that.
type KnobFlag = (&'static str, &'static str, &'static str, fn(&str) -> bool);

#[rustfmt::skip]
const KNOB_FLAGS: [KnobFlag; 4] = [
    ("--trials",        "DDIO_TRIALS",        "an integer >= 1",     at_least_one),
    ("--seed",          "DDIO_SEED",          "an unsigned integer", unsigned),
    ("--file-mb",       "DDIO_FILE_MB",       "an integer >= 1",     at_least_one),
    ("--small-records", "DDIO_SMALL_RECORDS", "0 or 1",              zero_or_one),
];

fn unsigned(v: &str) -> bool {
    v.parse::<u64>().is_ok()
}

fn at_least_one(v: &str) -> bool {
    v.parse::<u64>().is_ok_and(|n| n >= 1)
}

fn zero_or_one(v: &str) -> bool {
    v == "0" || v == "1"
}

/// Parses `run` arguments. `lookup` supplies the `DDIO_*` environment
/// (injectable for tests); a knob explicitly set by a flag shadows its
/// environment variable entirely, so e.g. `--trials 3` works even when a
/// stale `DDIO_TRIALS=0` would be rejected on its own.
pub fn parse_run(
    args: &[String],
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<RunCommand, String> {
    let mut targets: Vec<String> = Vec::new();
    let mut jobs = pool::default_jobs();
    let mut format = Format::Table;
    let mut out = None;
    // (variable, value) of every knob a flag set, checked as it is read.
    let mut knobs: Vec<(&str, String)> = Vec::new();
    let mut filters = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| usage_err(format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--jobs" => {
                let v = flag_value("--jobs")?;
                if !at_least_one(&v) {
                    return Err(usage_err(format!("--jobs {v:?}: expected an integer >= 1")));
                }
                jobs = v.parse().expect("checked by at_least_one");
            }
            "--format" => {
                format = match flag_value("--format")?.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => {
                        return Err(usage_err(format!(
                            "--format {other:?}: expected table, json, or csv"
                        )))
                    }
                };
            }
            "--out" => out = Some(flag_value("--out")?),
            "--where" => {
                filters.push(Where::parse(&flag_value("--where")?).map_err(usage_err)?);
            }
            flag if flag.starts_with("--") => {
                let Some((_, var, expected, accepts)) =
                    KNOB_FLAGS.into_iter().find(|(f, ..)| *f == flag)
                else {
                    return Err(usage_err(format!("unknown option {flag:?}")));
                };
                let v = flag_value(flag)?;
                if !accepts(&v) {
                    return Err(usage_err(format!("{flag} {v:?}: expected {expected}")));
                }
                knobs.push((var, v));
            }
            name => targets.push(name.to_owned()),
        }
    }

    if targets.is_empty() {
        return Err(usage_err("run: name one or more scenarios, or `all`"));
    }

    // A flag's value stands in for its variable; the last flag wins.
    let params =
        crate::params_from_lookup(|var| match knobs.iter().rev().find(|(v, _)| *v == var) {
            Some((_, value)) => Some(value.clone()),
            None => lookup(var),
        })
        .map_err(|e| e.to_string())?;

    let scenarios = if targets.iter().any(|t| t == "all") {
        scenario::registry()
    } else {
        let mut list = Vec::new();
        for name in &targets {
            let s = scenario::find(name).ok_or_else(|| {
                usage_err(format!("unknown scenario {name:?} (try `ddio-bench list`)"))
            })?;
            list.push(s);
        }
        list
    };
    // Check the filters against the cells they will select from, so a typo
    // fails before any simulation starts.
    if !filters.is_empty() {
        let cells: Vec<Cell> = scenarios.iter().flat_map(|s| (s.build)(&params)).collect();
        for filter in &filters {
            filter.check(&cells).map_err(usage_err)?;
        }
    }
    Ok(RunCommand {
        scenarios,
        jobs,
        format,
        out,
        params,
        filters,
    })
}

/// Runs every cell of `cmd`'s scenarios that its filters keep in one
/// parallel pass, and returns each scenario's results in registry order.
pub fn run_pass(cmd: &RunCommand) -> Vec<ScenarioRun> {
    // Flatten every scenario's cells into one work list so small scenarios
    // can't leave workers idle while a big one still has cells queued.
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for s in &cmd.scenarios {
        let mut scenario_cells = (s.build)(&cmd.params);
        // Each cell's seed derives from its own identity, so dropping cells
        // never moves the numbers of the cells that remain.
        scenario_cells.retain(|c| cmd.filters.iter().all(|f| f.keeps(c)));
        spans.push(scenario_cells.len());
        cells.extend(scenario_cells);
    }
    let mut results = scenario::run_cells(cells.clone(), cmd.params.trials, cmd.jobs);
    let mut runs = Vec::with_capacity(cmd.scenarios.len());
    for (s, span) in cmd.scenarios.iter().zip(spans) {
        let (rest_cells, rest) = (cells.split_off(span), results.split_off(span));
        runs.push(ScenarioRun {
            scenario: *s,
            cells,
            results,
        });
        (cells, results) = (rest_cells, rest);
    }
    runs
}

/// Renders the results of [`run_pass`] whole, byte for byte as `ddio-bench
/// run` prints them in `format`.
pub fn render(format: Format, params: &SweepParams, runs: &[ScenarioRun]) -> String {
    match format {
        Format::Table => report::render_table(params, runs),
        Format::Json => report::render_json(params, runs) + "\n",
        Format::Csv => report::render_csv(runs),
    }
}

/// Executes a parsed `run`: [`run_pass`], then [`render`] in the chosen
/// format.
pub fn execute_run(cmd: &RunCommand) -> String {
    render(cmd.format, &cmd.params, &run_pass(cmd))
}

/// The registry listing printed by `ddio-bench list`: each scenario's name,
/// the one-line question it answers, and its headline result, all sourced
/// from the registry (the README's scenario catalog is generated from the
/// same fields, so the two cannot drift apart).
pub fn render_list() -> String {
    let mut out = String::from("Registered scenarios:\n");
    for s in scenario::registry() {
        out.push_str(&format!("  {:<16} {}\n", s.name, s.description));
        out.push_str(&format!("  {:<16} -> {}\n", "", s.headline));
    }
    out
}

/// The registry listing as one JSON document (`ddio-bench list --format
/// json`), so CI and scripts can enumerate scenarios without scraping the
/// table. Schema:
/// `{"scenarios":[{"name","title","description","headline"}...]}`.
pub fn render_list_json() -> String {
    let scenarios = scenario::registry().into_iter().map(|s| {
        Json::Obj(vec![
            ("name", s.name.into()),
            ("title", s.title.into()),
            ("description", s.description.into()),
            ("headline", s.headline.into()),
        ])
    });
    format!("{}\n", Json::Obj(vec![("scenarios", scenarios.collect())]))
}

/// Parses the arguments of `list`: no flags for the table, or
/// `--format table|json`.
fn parse_list_format(args: &[String]) -> Result<Format, String> {
    let mut format = Format::Table;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--format requires a value"))?;
                format = match v.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    other => {
                        return Err(usage_err(format!(
                            "list --format {other:?}: expected table or json"
                        )))
                    }
                };
            }
            other => return Err(usage_err(format!("list: unexpected argument {other:?}"))),
        }
    }
    Ok(format)
}

/// Full CLI entry point; returns the process exit code.
pub fn main_from_args(args: Vec<String>) -> i32 {
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return 2;
    };
    match command.as_str() {
        "list" => match parse_list_format(&args[1..]) {
            Ok(Format::Json) => {
                print!("{}", render_list_json());
                0
            }
            Ok(_) => {
                print!("{}", render_list());
                0
            }
            Err(e) => {
                eprintln!("ddio-bench: {e}");
                2
            }
        },
        "run" => {
            let cmd = match parse_run(&args[1..], |var| std::env::var(var).ok()) {
                Ok(cmd) => cmd,
                Err(e) => {
                    eprintln!("ddio-bench: {e}");
                    return 2;
                }
            };
            let rendered = execute_run(&cmd);
            match &cmd.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("ddio-bench: cannot write {path:?}: {e}");
                        return 1;
                    }
                }
                None => {
                    let mut stdout = std::io::stdout().lock();
                    if stdout.write_all(rendered.as_bytes()).is_err() {
                        return 1;
                    }
                }
            }
            0
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            0
        }
        other => {
            eprintln!("ddio-bench: unknown command {other:?}\n\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;
    use ddio_core::{
        ArrivalProcess, ContentionModel, FaultPolicy, QosPolicy, RedundancyPolicy,
        ReplacementPolicy, SchedPolicy, TopologyKind,
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A smoke-scale environment: 1 MiB file, one trial.
    fn smoke_env(var: &str) -> Option<String> {
        match var {
            "DDIO_FILE_MB" => Some("1".to_owned()),
            "DDIO_TRIALS" => Some("1".to_owned()),
            "DDIO_SMALL_RECORDS" => Some("0".to_owned()),
            _ => None,
        }
    }

    #[test]
    fn parse_run_resolves_all_and_flags() {
        let cmd = parse_run(
            &args(&["all", "--jobs", "3", "--format", "csv", "--seed", "9"]),
            smoke_env,
        )
        .unwrap();
        assert_eq!(cmd.scenarios.len(), scenario::registry().len());
        assert_eq!(cmd.jobs, 3);
        assert_eq!(cmd.format, Format::Csv);
        assert_eq!(cmd.params.seed, 9);
        assert_eq!(
            cmd.params.base.file_bytes,
            1 << 20,
            "env knob not picked up"
        );
    }

    #[test]
    fn parse_run_rejects_unknowns() {
        assert!(parse_run(&args(&["no-such"]), smoke_env)
            .unwrap_err()
            .contains("unknown scenario"));
        for flag in ["--bogus", "--perf"] {
            assert!(parse_run(&args(&["fig5", flag]), smoke_env)
                .unwrap_err()
                .contains("unknown option"));
        }
        assert!(parse_run(&args(&["fig5", "--jobs", "0"]), smoke_env)
            .unwrap_err()
            .contains("--jobs"));
        assert!(parse_run(&args(&[]), smoke_env)
            .unwrap_err()
            .contains("name one or more"));
    }

    #[test]
    fn flags_shadow_invalid_environment_knobs() {
        let broken_env = |var: &str| match var {
            "DDIO_TRIALS" => Some("0".to_owned()),
            other => smoke_env(other),
        };
        // Without the flag, the stale env value is rejected...
        let err = parse_run(&args(&["fig5"]), broken_env).unwrap_err();
        assert!(err.contains("DDIO_TRIALS"), "{err}");
        // ...but an explicit --trials makes the env value irrelevant.
        let cmd = parse_run(&args(&["fig5", "--trials", "3"]), broken_env).unwrap();
        assert_eq!(cmd.params.trials, 3);
    }

    /// One table row per policy sweep: the `--where` clauses, and an
    /// independent predicate over the cell's config that says which cells
    /// they must keep.
    type WhereCase = (&'static str, &'static [&'static str], fn(&Cell) -> bool);

    const WHERE_CASES: [WhereCase; 5] = [
        ("sched-sweep", &["sched=fcfs,presort"], |c| {
            matches!(c.method.sched(), SchedPolicy::Fcfs | SchedPolicy::Presort)
        }),
        ("cache-sweep", &["replacement=mru"], |c| {
            c.method
                .cache()
                .map_or(true, |k| k.replacement == ReplacementPolicy::Mru)
        }),
        ("net-sweep", &["topology=torus,crossbar", "net=link"], |c| {
            matches!(
                c.config.fabric.topology,
                TopologyKind::Torus | TopologyKind::Crossbar
            ) && c.config.fabric.contention == ContentionModel::Link
        }),
        (
            "fault-sweep",
            &["faults=none,failure", "redundancy=none,mirror"],
            |c| {
                matches!(c.config.faults, FaultPolicy::None | FaultPolicy::Failure)
                    && matches!(
                        c.config.redundancy,
                        RedundancyPolicy::None | RedundancyPolicy::Mirrored
                    )
            },
        ),
        (
            "serve-sweep",
            &["arrival=poisson", "qos=fifo,weighted"],
            |c| {
                c.config.serve.arrival == ArrivalProcess::Poisson
                    && matches!(c.config.serve.qos, QosPolicy::Fifo | QosPolicy::Weighted)
            },
        ),
    ];

    /// Runs `name`'s [`WHERE_CASES`] row: `--where` keeps exactly the cells
    /// the row's predicate selects, and each reports bit-for-bit what it
    /// does in the unfiltered run, the sweep's [`claims::shared`] pass.
    fn check_where_case(name: &str) {
        let (_, clauses, keep) = WHERE_CASES
            .into_iter()
            .find(|(scenario, _, _)| *scenario == name)
            .unwrap();
        let (unfiltered, runs) = claims::shared(name);
        let full = render(Format::Csv, &unfiltered.params, runs);
        let mut argv = vec![name, "--format", "csv", "--jobs", "2"];
        for clause in clauses {
            argv.extend(["--where", clause]);
        }
        let cmd = parse_run(&args(&argv), smoke_env).unwrap();
        assert_eq!(cmd.filters.len(), clauses.len());
        assert_eq!(cmd.params, unfiltered.params, "{name}: scales differ");
        let filtered = execute_run(&cmd);

        let cells = (scenario::find(name).unwrap().build)(&cmd.params);
        let expected = cells.iter().filter(|c| keep(c)).count();
        let rows: Vec<&str> = filtered.lines().skip(1).collect();
        assert!(expected > 0 && expected < cells.len(), "{name}: weak case");
        assert_eq!(
            rows.len(),
            expected,
            "{name} kept the wrong cells:\n{filtered}"
        );
        for row in rows {
            assert!(
                full.lines().any(|l| l == row),
                "{name}: filtered cell differs from the unfiltered run:\n{row}"
            );
        }
    }

    #[test]
    fn sched_flag_filters_the_sweep() {
        check_where_case("sched-sweep");
    }

    #[test]
    fn cache_flag_filters_the_sweep() {
        check_where_case("cache-sweep");
    }

    #[test]
    fn topology_and_net_flags_filter_the_fabric_sweep() {
        check_where_case("net-sweep");
    }

    #[test]
    fn fault_flags_filter_the_sweep() {
        check_where_case("fault-sweep");
    }

    #[test]
    fn arrival_and_qos_flags_filter_the_serving_sweep() {
        check_where_case("serve-sweep");
    }

    #[test]
    fn where_keeps_the_cacheless_baseline_of_a_cache_filter() {
        let cmd = parse_run(
            &args(&["cache-sweep", "--where", "replacement=mru", "--jobs", "2"]),
            smoke_env,
        )
        .unwrap();
        let out = execute_run(&cmd);
        assert!(out.contains("TC[mru+one+onfull]"));
        assert!(!out.contains("clock"), "filtered composition ran:\n{out}");
        let baselines = out
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some("DDIO(sort)"))
            .count();
        assert_eq!(baselines, 5, "one DDIO(sort) baseline per pattern:\n{out}");
    }

    #[test]
    fn where_rejects_unknown_axes_and_values_naming_the_choices() {
        for (name, clauses, _) in WHERE_CASES {
            let err = parse_run(&args(&[name, "--where", "colour=red"]), smoke_env).unwrap_err();
            assert!(
                err.contains("unknown axis \"colour\"") && err.contains("pattern, method, sched"),
                "{name}: {err}"
            );
            let axis = clauses[0].split('=').next().unwrap();
            let clause = format!("{axis}=bogus");
            let err = parse_run(&args(&[name, "--where", &clause]), smoke_env).unwrap_err();
            assert!(
                err.contains(&format!("unknown {axis} value \"bogus\"")),
                "{name}: {err}"
            );
        }
        let err = parse_run(
            &args(&["sched-sweep", "--where", "sched=elevator"]),
            smoke_env,
        )
        .unwrap_err();
        assert!(err.contains("fcfs, sstf, cscan, presort"), "{err}");
        for malformed in ["sched", "sched=", "=fcfs"] {
            let err =
                parse_run(&args(&["sched-sweep", "--where", malformed]), smoke_env).unwrap_err();
            assert!(err.contains("expected AXIS=VALUE"), "{malformed}: {err}");
        }
    }

    #[test]
    fn where_selects_a_record_size_of_a_pattern_sweep() {
        let argv = args(&["fig3", "--small-records", "1", "--where", "record=8"]);
        let cmd = parse_run(&argv, smoke_env).unwrap();
        let cells = (cmd.scenarios[0].build)(&cmd.params);
        let kept: Vec<&Cell> = cells.iter().filter(|c| cmd.filters[0].keeps(c)).collect();
        // 19 patterns x {TC, DDIO, DDIO(sort)} at 8-byte records.
        assert_eq!(kept.len(), 57);
        assert!(kept.iter().all(|c| c.record_bytes == 8));
    }

    #[test]
    fn list_json_is_valid_and_complete() {
        let json = render_list_json();
        assert!(
            json.starts_with(r#"{"scenarios":[{"name":"table1","title":"#)
                && json.ends_with("}]}\n"),
            "bad JSON:\n{json}"
        );
        for s in scenario::registry() {
            assert!(
                json.contains(&format!("\"{}\"", s.name)),
                "missing {}",
                s.name
            );
        }
        assert_eq!(parse_list_format(&args(&[])).unwrap(), Format::Table);
        assert_eq!(
            parse_list_format(&args(&["--format", "json"])).unwrap(),
            Format::Json
        );
        assert!(parse_list_format(&args(&["--format", "csv"])).is_err());
        assert!(parse_list_format(&args(&["bogus"])).is_err());
    }

    #[test]
    fn execute_run_emits_valid_json_for_multiple_scenarios() {
        let cmd = parse_run(
            &args(&["table1", "mixed-rw", "--format", "json", "--jobs", "2"]),
            smoke_env,
        )
        .unwrap();
        let out = execute_run(&cmd);
        assert!(
            out.starts_with(r#"{"scale":{"file_mib":1,"#) && out.ends_with("]}\n"),
            "bad JSON:\n{out}"
        );
        assert!(out.contains("\"table1\""));
        assert!(out.contains("\"mixed-rw\""));
    }

    #[test]
    fn execute_run_table_splits_results_per_scenario() {
        let cmd = parse_run(&args(&["mixed-rw", "record-cp-cross"]), smoke_env).unwrap();
        let out = execute_run(&cmd);
        assert!(out.contains("Mixed read/write phases"));
        assert!(out.contains("Record size x CP count"));
    }

    #[test]
    fn list_names_every_scenario() {
        let listing = render_list();
        for s in scenario::registry() {
            assert!(listing.contains(s.name), "missing {}", s.name);
            assert!(
                listing.contains(s.description),
                "missing description of {}",
                s.name
            );
            assert!(
                listing.contains(s.headline),
                "missing headline of {}",
                s.name
            );
        }
        let json = render_list_json();
        for s in scenario::registry() {
            assert!(
                json.contains(&format!("\"headline\":{}", Json::from(s.headline))),
                "JSON listing missing headline of {}",
                s.name
            );
        }
    }

    /// The README's scenario catalog is generated from the registry; this
    /// test is the generator's contract. If it fails, re-derive the table
    /// from `ddio-bench list` — never hand-edit one side only.
    #[test]
    fn readme_catalog_matches_the_registry() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the workspace root");
        for s in scenario::registry() {
            let row = format!("| `{}` | {} | {} |", s.name, s.description, s.headline);
            assert!(
                readme.contains(&row),
                "README catalog row for {:?} is missing or stale; expected:\n{row}",
                s.name
            );
        }
        // The catalog has no rows for unregistered scenarios.
        let catalog = readme
            .split("### Scenario catalog")
            .nth(1)
            .expect("README has a '### Scenario catalog' section")
            .split("\n## ")
            .next()
            .expect("section text");
        let catalog_rows = catalog.lines().filter(|l| l.starts_with("| `")).count();
        assert_eq!(
            catalog_rows,
            scenario::registry().len(),
            "README catalog has rows the registry does not"
        );
    }
}
