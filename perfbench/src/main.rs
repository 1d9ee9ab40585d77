//! Host-time benchmark of the disk-directed I/O simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload's transfers, one trial each through
//! `ddio_core::experiment::run_data_point`, on two worker threads side by
//! side for `--seconds` (no pass starts that is expected to end later),
//! then runs every transfer once more with data-placement verification on.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! spends the second half of the time in traced passes and reports the
//! per-layer metrics, and writes the spans to `perfbench/out/`. The last
//! line of standard output is one JSON object.
//!
//! Host times are each transfer's fastest call over the passes: on a shared
//! host other work only ever adds time, and it comes and goes over tens of
//! seconds, so per-call minima taken across a whole run move far less from
//! run to run than any pass's time. `wall_s` sums them; the transfer-time
//! quantiles are over them. Set-up time is the median pass's.
//!
//! `perfbench/targets.json` names the metrics each per-layer metric should
//! move and on which workloads; `perfbench/spread.py` measures run-to-run
//! spread over seeds. Tests: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

mod measure;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ddio_core::experiment::scenario::Cell;
use ddio_core::{FileLayout, PatternInstance, ServeConfig};
use ddio_net::Network;
use ddio_sim::{Sim, SimRng};

use measure::{Counts, Digest};
use trace::Tracer;

/// RNG stream tags `run_transfer` derives the layout and the serving
/// schedule from, so replays regenerate the transfer's own inputs.
const LAYOUT_STREAM: u64 = 0xD15C;
const SERVE_STREAM: u64 = 0x5E12;

/// Fewest timed passes a worker makes, however long they take.
const MIN_PASSES: usize = 3;

/// Threads that run the passes side by side, each a transfer at a time. On
/// a shared two-core host other work slows one core at a time for tens of
/// seconds; a transfer's fastest call over both cores mostly escapes it.
const WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !workload::NAMES.contains(&value.as_str()) {
                    return Err(bad("a workload name"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1994),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "{why}\nusage: ddio-perfbench --workload <{}|all> --seed <n> --seconds <s> \
                 --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workload::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        correct &= run_workload(name, &args);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one pass over a workload's transfers measured.
#[derive(Default)]
struct Pass {
    /// Host seconds building the transfer list.
    cells_build_s: f64,
    /// Host seconds running every transfer.
    wall_s: f64,
    /// Machine build, simulation run, and stat collection, summed.
    build_s: f64,
    run_s: f64,
    collect_s: f64,
    /// Host milliseconds of each transfer's `run_data_point` call (`NaN`
    /// for a failed transfer).
    call_ms: Vec<f64>,
    /// Each transfer's output digest (0 for a failed transfer).
    digests: Vec<u64>,
    counts: Counts,
    /// Chunks the replayed pattern mapping produced (traced passes only).
    chunks: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.cells_build_s + self.build_s
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        self.digests.iter().for_each(|&w| d.eat(w));
        d.value()
    }
}

/// Builds the transfer list of a pass.
type Build<'a> = &'a (dyn Fn() -> Vec<Cell> + Sync);

/// Builds the transfers and runs each once. A traced pass records a span
/// around each call into a layer and replays the layer calls that machine
/// assembly makes, so each gets a time of its own.
fn run_pass(build: Build, traced: bool, verify: bool) -> Pass {
    let mut tracer = traced.then(Tracer::default);
    let start = Instant::now();
    let cells = build();
    let built = Instant::now();
    if let Some(t) = &mut tracer {
        t.record("experiment.cells_build", None, None, start, built);
    }
    let mut pass = Pass {
        cells_build_s: built.duration_since(start).as_secs_f64(),
        ..Pass::default()
    };
    for (i, cell) in cells.iter().enumerate() {
        let root = tracer.as_mut().map(|t| t.open("transfer", Some(i), None));
        match measure::run(cell, verify) {
            Ok(transfer) => {
                let o = &transfer.outcome;
                let collect = (o.host_wall_secs - o.build_wall_secs - o.run_wall_secs).max(0.0);
                if let Some(t) = &mut tracer {
                    // The machine's phases are not public calls: their spans
                    // are placed from the outcome's own timers.
                    let at = |secs: f64| transfer.started + Duration::from_secs_f64(secs);
                    let call = t.record(
                        "experiment.run_data_point",
                        Some(i),
                        root,
                        transfer.started,
                        at(transfer.call_secs),
                    );
                    let (b, r) = (o.build_wall_secs, o.build_wall_secs + o.run_wall_secs);
                    t.record("machine.build", Some(i), Some(call), at(0.0), at(b));
                    t.record("machine.run", Some(i), Some(call), at(b), at(r));
                    t.record(
                        "machine.collect",
                        Some(i),
                        Some(call),
                        at(r),
                        at(r + collect),
                    );
                    pass.chunks += replay(t, i, root, cell);
                }
                pass.build_s += o.build_wall_secs;
                pass.run_s += o.run_wall_secs;
                pass.collect_s += collect;
                pass.call_ms.push(transfer.call_secs * 1e3);
                pass.counts.add(cell, o);
                pass.digests.push(measure::outcome_digest(o));
            }
            Err(why) => {
                pass.failures.push(why);
                pass.call_ms.push(f64::NAN);
                pass.digests.push(0);
            }
        }
        if let (Some(t), Some(root)) = (&mut tracer, root) {
            t.close(root);
        }
    }
    pass.wall_s = built.elapsed().as_secs_f64();
    pass.tracer = tracer;
    pass
}

/// Replays, each in its own span, the layer calls machine assembly makes
/// for `cell`: the file layout, the pattern mapping (walking every CP's
/// chunks), the interconnect, and the serving schedule. Returns the chunk
/// count.
fn replay(t: &mut Tracer, i: usize, root: Option<usize>, cell: &Cell) -> u64 {
    let c = &cell.config;
    let rng = SimRng::seed_from_u64(cell.seed);
    t.time("layout.generate", Some(i), root, || {
        black_box(FileLayout::generate(c, &rng.derive(LAYOUT_STREAM)));
    });
    let chunks = t.time("patterns.map", Some(i), root, || {
        let records = c.file_bytes / cell.record_bytes;
        let map = PatternInstance::new(cell.pattern, c.n_cps, records, cell.record_bytes);
        (0..c.n_cps)
            .map(|cp| black_box(map.chunks_for_cp(cp)).len() as u64)
            .sum()
    });
    t.time("net.build", Some(i), root, || {
        let sim = Sim::new();
        black_box(Network::<()>::new(
            sim.context(),
            c.fabric,
            c.net,
            c.n_nodes(),
        ));
    });
    if c.serve.is_open_loop() {
        t.time("serve.schedule", Some(i), root, || {
            black_box(ServeConfig::derive(&c.serve, c, &rng.derive(SERVE_STREAM)));
        });
    }
    chunks
}

/// Runs at least `min` passes, then more while the last pass's length
/// still fits before `budget` seconds after `since`.
fn passes(build: Build, traced: bool, min: usize, since: Instant, budget: f64) -> Vec<Pass> {
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min || since.elapsed().as_secs_f64() + last < budget {
        let start = Instant::now();
        out.push(run_pass(build, traced, false));
        last = start.elapsed().as_secs_f64();
    }
    out
}

/// Runs passes on [`WORKERS`] threads side by side until `budget`, and
/// returns them (worker 0's first pass first) with the peak memory once
/// every worker has finished one pass: later passes repeat that work, and
/// how many there are depends on the host's speed.
fn worker_passes(build: Build, traced: bool, since: Instant, budget: f64) -> (Vec<Pass>, f64) {
    let first_done = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = vec![run_pass(build, traced, false)];
                    let rss = first_done.wait().is_leader().then(peak_rss_mb);
                    out.extend(passes(build, traced, MIN_PASSES - 1, since, budget));
                    (out, rss)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut peak = 0.0;
        for worker in workers {
            let (out, rss) = worker.join().expect("transfer panics are caught");
            all.extend(out);
            peak = rss.unwrap_or(peak);
        }
        (all, peak)
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `p`-quantile by nearest rank (`NaN` when every transfer failed).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// A reported metric: name, value, unit, and how many samples it pools.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Runs workload `name` as `args` asks, prints its report, and returns
/// whether every transfer succeeded and every output repeated.
fn run_workload(name: &str, args: &Args) -> bool {
    let origin = Instant::now();
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let build = || workload::build(name, args.seed).expect("workload names are checked");
    let (plain, rss) = worker_passes(&build, false, origin, untraced_budget);
    let traced = if args.trace {
        worker_passes(&build, true, origin, args.seconds).0
    } else {
        Vec::new()
    };
    // The check pass: every transfer once more with verification on. Its
    // outputs must equal the unverified ones.
    let check = run_pass(&build, false, true);
    let (attempted, failures) = tally(&plain, &traced, &check);
    for why in &failures {
        eprintln!("FAILED {why}");
    }
    let failed = failures.len();
    let correct = failed == 0;

    let reference = &plain[0];
    let transfers = reference.digests.len();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {name} seed {}: {transfers} transfers x {} timed passes on {WORKERS} \
         workers ({cores} cores){}, digest {:016x}",
        args.seed,
        plain.len(),
        if args.trace {
            format!(" + {} traced", traced.len())
        } else {
            String::new()
        },
        reference.digest(),
    );
    println!(
        "failed_frac {} ({failed} of {attempted} transfers)",
        ratio(failed as u64, attempted as u64)
    );
    let metrics = if args.trace {
        layer_metrics(&plain, &traced)
    } else {
        end_to_end_metrics(&plain, rss)
    };
    for m in &metrics {
        println!(
            "  {:<28} {:>16.6} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        let tracers: Vec<Tracer> = traced.into_iter().filter_map(|p| p.tracer).collect();
        match trace::dump(&path, origin, &tracers) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN: a metric nothing measured is null.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}

/// Counts the transfers a run attempted and lists every failure: transfers
/// that failed, and transfers or passes whose outputs differ from the first
/// timed pass's.
fn tally(plain: &[Pass], traced: &[Pass], check: &Pass) -> (usize, Vec<String>) {
    let reference = &plain[0];
    let mut failures = Vec::new();
    let mut attempted = 0;
    for (label, pass) in plain
        .iter()
        .map(|p| ("timed", p))
        .chain(traced.iter().map(|p| ("traced", p)))
        .chain(std::iter::once(("check", check)))
    {
        attempted += pass.digests.len();
        failures.extend(pass.failures.iter().cloned());
        for (i, (&a, &b)) in pass.digests.iter().zip(&reference.digests).enumerate() {
            if a != 0 && b != 0 && a != b {
                failures.push(format!("transfer {i}: {label} pass outputs differ"));
            }
        }
        if pass.failures.is_empty() && pass.counts != reference.counts {
            failures.push(format!("{label} pass counts differ"));
        }
    }
    (attempted, failures)
}

/// The fastest pass's wall time.
fn best_wall(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min)
}

/// End-to-end metrics. Transfer times are each transfer's fastest call over
/// the passes, so the samples are the workload's distinct transfers; the
/// wall time is the fastest cells build plus those calls, summed.
fn end_to_end_metrics(plain: &[Pass], rss: f64) -> Vec<Metric> {
    let n = plain.len();
    let mut calls: Vec<f64> = (0..plain[0].call_ms.len())
        .map(|i| plain.iter().map(|p| p.call_ms[i]).fold(f64::NAN, f64::min))
        .filter(|ms| !ms.is_nan())
        .collect();
    calls.sort_by(f64::total_cmp);
    let cells_build_s = plain
        .iter()
        .map(|p| p.cells_build_s)
        .fold(f64::INFINITY, f64::min);
    let wall_s = cells_build_s + calls.iter().sum::<f64>() / 1e3;
    vec![
        metric("wall_s", wall_s, "s", n),
        metric(
            "setup_s",
            median(plain.iter().map(Pass::setup_s).collect()),
            "s",
            n,
        ),
        metric("transfer_ms.p50", quantile(&calls, 0.5), "ms", calls.len()),
        metric("transfer_ms.p90", quantile(&calls, 0.9), "ms", calls.len()),
        metric("peak_rss_mb", rss, "MB", 1),
    ]
}

fn layer_metrics(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let n = traced.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(f).collect());
    let span =
        |name: &'static str| move |p: &Pass| p.tracer.as_ref().map_or(0.0, |t| t.total_secs(name));
    let self_s = |name: &'static str| {
        move |p: &Pass| {
            p.tracer
                .as_ref()
                .and_then(|t| t.self_secs().get(name).copied())
                .unwrap_or(0.0)
        }
    };
    let c = traced[0].counts;
    let traced_wall = best_wall(traced);
    let count = |name, v: u64| metric(name, v as f64, "count", 1);
    vec![
        metric(
            "experiment.cells_build_s",
            med(&|p| p.cells_build_s),
            "s",
            n,
        ),
        metric(
            "experiment.wrap_s",
            med(&self_s("experiment.run_data_point")),
            "s",
            n,
        ),
        metric("machine.build_s", med(&|p| p.build_s), "s", n),
        metric("machine.run_s", med(&|p| p.run_s), "s", n),
        metric("machine.collect_s", med(&|p| p.collect_s), "s", n),
        metric("layout.generate_s", med(&span("layout.generate")), "s", n),
        metric("patterns.map_s", med(&span("patterns.map")), "s", n),
        count("patterns.chunks", traced[0].chunks),
        count("sim.events", c.sim_events),
        metric(
            "sim.ns_per_event",
            med(&|p| p.run_s * 1e9 / p.counts.sim_events.max(1) as f64),
            "ns",
            n,
        ),
        metric(
            "tc.events_per_block",
            ratio(c.tc_events, c.tc_blocks),
            "events/block",
            1,
        ),
        metric(
            "ddio.events_per_block",
            ratio(c.ddio_events, c.ddio_blocks),
            "events/block",
            1,
        ),
        metric("net.build_s", med(&span("net.build")), "s", n),
        count("net.messages", c.net_messages),
        count("net.bytes", c.net_bytes),
        count("disk.requests", c.disk_requests),
        metric(
            "disk.queue_depth_mean",
            ratio(c.disk_queue_depth_sum, c.disk_requests),
            "requests",
            1,
        ),
        metric(
            "disk.sequential_frac",
            ratio(c.disk_sequential_hits, c.disk_requests),
            "ratio",
            1,
        ),
        count("cache.lookups", c.cache_hits + c.cache_misses),
        metric(
            "cache.hit_rate",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
            1,
        ),
        metric(
            "cache.prefetch_used_frac",
            ratio(c.cache_prefetch_used, c.cache_prefetches),
            "ratio",
            1,
        ),
        count("cache.evictions", c.cache_evictions),
        count("cache.flushes", c.cache_flushes),
        count("serve.requests", c.serve_requests),
        metric("serve.schedule_s", med(&span("serve.schedule")), "s", n),
        metric("trace.wall_s", traced_wall, "s", n),
        metric("trace.overhead_s", traced_wall - best_wall(plain), "s", n),
        metric("trace.glue_s", med(&self_s("transfer")), "s", n),
        metric(
            "trace.coverage",
            med(&|p| {
                p.tracer.as_ref().map_or(0.0, |t| t.root_secs()) / (p.cells_build_s + p.wall_s)
            }),
            "ratio",
            n,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_core::{FaultPolicy, LayoutPolicy, MachineConfig, Method};

    fn tiny(record_bytes: u64, faults: FaultPolicy) -> Cell {
        Cell {
            scenario: "test",
            config: MachineConfig {
                n_cps: 2,
                n_iops: 2,
                n_disks: 2,
                file_bytes: 128 * 1024,
                layout: LayoutPolicy::RandomBlocks,
                faults,
                ..MachineConfig::default()
            },
            method: Method::TC,
            pattern: ddio_core::AccessPattern::parse("rb").unwrap(),
            record_bytes,
            axes: Vec::new(),
            seed: 1,
        }
    }

    /// A few cheap transfers of grid `scenario`: the first of each distinct
    /// pattern, up to `limit`.
    fn sample(scenario: &str, limit: usize) -> Vec<Cell> {
        let mut seen = Vec::new();
        let mut cells: Vec<Cell> = workload::NAMES
            .iter()
            .flat_map(|name| workload::build(name, 1994).unwrap())
            .filter(|c| c.scenario == scenario)
            .collect();
        cells.retain(|c| {
            let fresh = !seen.contains(&c.pattern);
            seen.push(c.pattern);
            fresh
        });
        cells.truncate(limit);
        cells
    }

    fn layer_values(cells: &[Cell]) -> Vec<(&'static str, f64, &'static str)> {
        let build = || cells.to_vec();
        let plain = [run_pass(&build, false, false)];
        let traced = [run_pass(&build, true, false)];
        layer_metrics(&plain, &traced)
            .into_iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect()
    }

    /// The `"name": "…"` values in `json` between `from` and `to`.
    fn names_between(json: &str, from: &str, to: &str) -> Vec<String> {
        let start = json.find(from).expect("section start");
        let end = json[start..].find(to).map_or(json.len(), |i| start + i);
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_owned())
            .collect()
    }

    fn read(file: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn metric_names_match_the_benchmark_definition() {
        let cells = vec![tiny(8192, FaultPolicy::None)];
        let build = || cells.clone();
        let plain = [run_pass(&build, false, false)];
        let traced = [run_pass(&build, true, false)];
        let e2e: Vec<&str> = end_to_end_metrics(&plain, 1.0)
            .iter()
            .map(|m| m.name)
            .collect();
        let layers: Vec<&str> = layer_metrics(&plain, &traced)
            .iter()
            .map(|m| m.name)
            .collect();
        for name in e2e.iter().chain(&layers) {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
        }

        let bench = read("../BENCHMARK.json");
        assert_eq!(
            names_between(&bench, "\"workloads\"", "\"end_to_end\""),
            workload::NAMES
        );
        assert_eq!(
            names_between(&bench, "\"end_to_end\"", "\"per_layer\""),
            e2e
        );
        assert_eq!(names_between(&bench, "\"per_layer\"", "\u{0}"), layers);

        // Every per-layer metric names what it moves, and only metrics the
        // benchmark reports.
        let targets = read("targets.json");
        for line in targets.lines().filter(|l| l.contains("\"moves\"")) {
            let name = line.trim().split('"').nth(1).unwrap();
            assert!(
                layers.contains(&name),
                "{name} in targets.json is not reported"
            );
            let moves = &line[line.find("\"moves\"").unwrap()..line.find("\"on\"").unwrap()];
            for moved in moves.split('"').skip(3).step_by(2) {
                assert!(
                    e2e.contains(&moved) || layers.contains(&moved),
                    "{name} moves unknown metric {moved}"
                );
            }
        }
        let targeted = targets.lines().filter(|l| l.contains("\"moves\"")).count();
        assert_eq!(targeted, layers.len(), "a per-layer metric lacks a target");
    }

    #[test]
    fn per_layer_counts_repeat_exactly_at_one_seed() {
        let cells: Vec<Cell> = workload::PAPER_GRIDS
            .iter()
            .chain(&["large-machine"])
            .flat_map(|grid| sample(grid, 2))
            .collect();
        let deterministic = |values: Vec<(&'static str, f64, &'static str)>| -> Vec<(&str, u64)> {
            values
                .into_iter()
                .filter(|(name, _, unit)| {
                    !matches!(*unit, "s" | "ns") && !name.starts_with("trace.")
                })
                .map(|(name, v, _)| (name, v.to_bits()))
                .collect()
        };
        let a = deterministic(layer_values(&cells));
        let b = deterministic(layer_values(&cells));
        assert!(a
            .iter()
            .any(|(name, v)| *name == "sim.events" && *v != 0f64.to_bits()));
        assert_eq!(a, b);
    }

    #[test]
    fn cache_metrics_are_zero_on_ddio_sched_and_nonzero_on_tc_cache() {
        // Reads and a collective write, so flushes happen too.
        let mut tc = sample("tc-cache", 5);
        tc.retain(|c| ["ra", "wb"].contains(&c.pattern.name().as_str()));
        let cache = |values: Vec<(&'static str, f64, &'static str)>| -> Vec<(&str, f64)> {
            values
                .into_iter()
                .filter(|(name, _, _)| name.starts_with("cache."))
                .map(|(name, v, _)| (name, v))
                .collect()
        };
        let on_tc = cache(layer_values(&tc));
        let on_ddio = cache(layer_values(&sample("ddio-sched", 3)));
        assert_eq!(on_tc.len(), 5);
        assert!(on_tc.iter().all(|(_, v)| *v > 0.0), "{on_tc:?}");
        assert!(on_ddio.iter().all(|(_, v)| *v == 0.0), "{on_ddio:?}");
    }

    #[test]
    fn a_failing_transfer_is_counted_in_failed_frac() {
        // A record size that does not divide the file panics; a dead drive
        // without redundancy loses blocks.
        let cells = vec![
            tiny(8192, FaultPolicy::None),
            tiny(3000, FaultPolicy::None),
            tiny(8192, FaultPolicy::Failure),
        ];
        let build = || cells.clone();
        let plain = [run_pass(&build, false, false)];
        let check = run_pass(&build, false, true);
        let (attempted, failures) = tally(&plain, &[], &check);
        assert_eq!(attempted, 6);
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("panicked")));
        assert!(failures.iter().any(|f| f.contains("lost")));
        assert_eq!(ratio(failures.len() as u64, attempted as u64), 4.0 / 6.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
