//! The reproduction's claims as named predicates over one pass.
//!
//! A claim is one qualitative result, the paper's or a policy sweep's
//! headline, written as a predicate over the results of a `ddio-bench run`
//! pass: it returns its evidence (the numbers it compared), and a scenario or
//! cell the pass lacks fails it, never passes it vacuously. Cells are found
//! by [`Cell::coordinates`], the vocabulary of `run --where`.
//!
//! Tier-1's tests evaluate each claim over a small pass: the [`smoke`] scale
//! for the sweeps and Figure 5, and a 10 MiB one-trial `fig3` + `fig4` pass
//! for the headline claims, which need the paper's file. The ignored
//! `every_claim_holds_at_the_papers_file_size` test in `figures_smoke.rs`
//! evaluates all of them over the paper's `run all --file-mb 10 --trials 5`.

use std::sync::Mutex;

use ddio_core::experiment::scenario::{Cell, CellResult};
use ddio_core::{AccessPattern, CacheStats, ContentionModel, FaultStats, LatencyHistogram};
use ddio_core::{Method, TopologyKind};

use crate::cli::{self, RunCommand};
use crate::report::{json_cell, ScenarioRun};

/// What a predicate returns: `Ok` with its evidence when the claim holds;
/// `Err` with the same evidence when it does not, or naming the cell the
/// pass lacks.
pub type Verdict = Result<String, String>;

/// One registered claim.
pub struct Claim {
    /// The claim's name, also the name of the test that checks it.
    pub name: &'static str,
    /// The scenarios whose cells the predicate reads.
    pub scenarios: &'static [&'static str],
    /// The claim in one sentence.
    pub statement: &'static str,
    /// The predicate over a pass.
    pub check: fn(&[ScenarioRun]) -> Verdict,
}

/// Every registered claim.
pub fn all() -> &'static [Claim] {
    &CLAIMS
}

/// Evaluates the claim `name` over `pass` and returns its evidence.
///
/// # Panics
///
/// If no claim has that name, or the claim does not hold.
pub fn check(name: &str, pass: &[ScenarioRun]) -> String {
    let claim = all().iter().find(|c| c.name == name);
    let claim = claim.unwrap_or_else(|| panic!("no claim named {name}"));
    let statement = claim.statement;
    (claim.check)(pass).unwrap_or_else(|why| panic!("{name} ({statement}) fails: {why}"))
}

/// `scenario`'s cells in `pass`, each with its result; an error when the
/// pass ran none of them.
fn cells<'a>(
    pass: &'a [ScenarioRun],
    scenario: &str,
) -> Result<impl Iterator<Item = (&'a Cell, &'a CellResult)>, String> {
    let run = pass
        .iter()
        .find(|run| run.scenario.name == scenario && !run.results.is_empty())
        .ok_or_else(|| format!("the pass has no {scenario} cells"))?;
    Ok(run.cells.iter().zip(&run.results))
}

/// The one cell `query` names: `"<scenario> <pattern> <method> [axis=value
/// ...]"`, e.g. `"net-sweep rb TC topology=mesh net=link"`, where the method
/// is its label and each `axis=value` one of [`Cell::coordinates`]. An error
/// names the query when no cell, or more than one, matches.
pub fn cell<'a>(
    pass: &'a [ScenarioRun],
    query: &str,
) -> Result<(&'a Cell, &'a CellResult), String> {
    let mut terms = query.split_whitespace();
    let scenario = terms.next().unwrap_or_default();
    let positional = ["pattern", "method"].into_iter().zip(terms.by_ref());
    let mut wanted: Vec<(&str, &str)> = positional.collect();
    wanted.extend(terms.map(|term| term.split_once('=').unwrap_or((term, ""))));
    let mut found = cells(pass, scenario)?.filter(|(cell, _)| {
        let coordinates = cell.coordinates();
        let has = |&(axis, value): &(&str, &str)| coordinates.contains(&(axis, value.to_owned()));
        wanted.iter().all(has)
    });
    match (found.next(), found.next()) {
        (Some(hit), None) => Ok(hit),
        (None, _) => Err(format!("the pass has no cell {query}")),
        (Some(_), Some(_)) => Err(format!("more than one cell is {query}")),
    }
}

/// The mean throughput (MiB/s) of the [`cell`] `query` names.
pub fn mean(pass: &[ScenarioRun], query: &str) -> Result<f64, String> {
    Ok(cell(pass, query)?.1.point.mean())
}

/// Runs the pass of `ddio-bench run <command>`, with no `DDIO_*`
/// environment.
///
/// # Panics
///
/// If the command does not parse.
pub fn pass(command: &str) -> (RunCommand, Vec<ScenarioRun>) {
    let args: Vec<String> = command.split_whitespace().map(str::to_owned).collect();
    let cmd = cli::parse_run(&args, |_| None).unwrap_or_else(|e| panic!("{command}: {e}"));
    let runs = cli::run_pass(&cmd);
    (cmd, runs)
}

/// The [`pass`] of `scenarios` (names, or `all`) on `jobs` workers at the
/// smoke scale: 1 MiB file, one trial, no small records, seed 1994.
pub fn smoke(scenarios: &str, jobs: usize) -> (RunCommand, Vec<ScenarioRun>) {
    let scale = "--file-mb 1 --trials 1 --small-records 0 --seed 1994";
    pass(&format!("{scenarios} {scale} --jobs {jobs}"))
}

/// The [`smoke`] pass of `scenarios` on four workers, run once per process
/// and shared by every caller that names the same scenarios.
pub fn shared(scenarios: &str) -> &'static (RunCommand, Vec<ScenarioRun>) {
    type Pass = &'static (RunCommand, Vec<ScenarioRun>);
    static PASSES: Mutex<Vec<(String, Pass)>> = Mutex::new(Vec::new());
    let mut passes = PASSES.lock().expect("no shared pass panicked");
    if let Some(&(_, pass)) = passes.iter().find(|(name, _)| name == scenarios) {
        return pass;
    }
    let pass: Pass = Box::leak(Box::new(smoke(scenarios, 4)));
    passes.push((scenarios.to_owned(), pass));
    pass
}

/// Re-runs `scenario` at the smoke scale on one worker and asserts that
/// every cell matches its [`shared`] pass: the cell's coordinates, every
/// trial's bits, its event count and every diagnostic the JSON report
/// writes for it.
pub fn assert_jobs_invariant(scenario: &str) {
    let fingerprint = |run: &ScenarioRun| -> Vec<_> {
        let cells = run.cells.iter().zip(&run.results);
        let each = |(cell, r): (&Cell, &CellResult)| {
            let bits = Vec::from_iter(r.point.trials.iter().map(|t| t.to_bits()));
            let events = r.point.last_outcome.sim_events;
            (cell.coordinates(), bits, events, json_cell(r).to_string())
        };
        cells.map(each).collect()
    };
    let serial = fingerprint(&smoke(scenario, 1).1[0]);
    let shared = fingerprint(&shared(scenario).1[0]);
    assert_eq!(serial.len(), shared.len(), "{scenario}: cell counts differ");
    for (s, p) in serial.iter().zip(&shared) {
        assert_eq!(s, p, "--jobs 1 differs at {scenario} {:?}", s.0);
    }
}

/// `Ok(evidence)` when the claim holds, else `Err(evidence)`.
fn verdict(holds: bool, evidence: String) -> Verdict {
    if holds {
        Ok(evidence)
    } else {
        Err(evidence)
    }
}

/// The `(min, max)` of `values`.
fn band(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let fold = |(lo, hi): (f64, f64), v: f64| (lo.min(v), hi.max(v));
    values.into_iter().fold((f64::INFINITY, 0.0), fold)
}

/// `method`'s mean rb throughput on each net-sweep fabric, with the fabric.
fn on_fabrics(pass: &[ScenarioRun], method: &str) -> Result<Vec<(String, f64)>, String> {
    let mut found = Vec::new();
    for topology in TopologyKind::ALL.map(TopologyKind::name) {
        for net in ContentionModel::ALL.map(ContentionModel::name) {
            let fabric = format!("topology={topology} net={net}");
            let mibs = mean(pass, &format!("net-sweep rb {method} {fabric}"))?;
            found.push((fabric, mibs));
        }
    }
    Ok(found)
}

/// The mean throughput and fault counters of the fault-sweep cell `query`
/// names after the scenario.
fn fault(pass: &[ScenarioRun], query: &str) -> Result<(f64, FaultStats), String> {
    let (_, r) = cell(pass, &format!("fault-sweep {query}"))?;
    Ok((r.point.mean(), r.point.last_outcome.fault_stats))
}

/// The mean throughput of the 8 KB-record [`cell`] `query` names.
fn mean_8k(pass: &[ScenarioRun], query: &str) -> Result<f64, String> {
    mean(pass, &format!("{query} record=8192"))
}

/// `name=value ...` of a cell's sweep axes.
fn axes_key(cell: &Cell) -> String {
    let axes = cell.axes.iter().map(|a| format!("{}={}", a.name, a.value));
    axes.collect::<Vec<_>>().join(" ")
}

/// A [`Claim`] whose predicate is the function of the same name.
macro_rules! claim {
    ($name:ident, [$($scenario:literal),+], $statement:literal) => {
        Claim {
            name: stringify!($name),
            scenarios: &[$($scenario),+],
            statement: $statement,
            check: $name,
        }
    };
}

#[rustfmt::skip]
static CLAIMS: [Claim; 19] = [
    claim!(presort_and_cscan_beat_fcfs_on_random_layout_reads, ["sched-sweep"],
        "on the random-blocks layout, DDIO with presort and with drive-level CSCAN both beat \
         FCFS DDIO on ra, rn, rb and rc"),
    claim!(drive_counters_reach_the_outcome, ["sched-sweep"],
        "DDIO(cscan) on ra builds drive queues at least 2 deep and reports every drive busy for \
         a fraction in (0, 1]"),
    claim!(watermark_write_back_beats_default_but_loses_to_ddio, ["cache-sweep"],
        "on wb, TC with watermark write-back beats the default flush-on-full by more than 1.2x \
         at 1 and 8 buffers, and still loses to DDIO(sort)"),
    claim!(cache_counters_reach_the_outcome, ["cache-sweep"],
        "TC on rc misses, prefetches and uses its prefetches with balanced accounting; the none \
         prefetcher never prefetches; a cell reports a cache exactly when its method runs one"),
    claim!(ddio_rb_advantage_survives_every_multihop_fabric, ["net-sweep"],
        "on rb, DDIO(sort) beats TC by more than 1.5x on the torus, mesh and hypercube under \
         both contention models"),
    claim!(ddio_is_fabric_insensitive_while_tc_swings, ["net-sweep"],
        "on rb, DDIO(sort) stays within a 1.25x band over all eight fabrics, a narrower band \
         than TC's"),
    claim!(healthy_cells_report_zero_fault_counters, ["fault-sweep"],
        "without faults, TC and DDIO(sort) on rb and ra report positive throughput and zero \
         fault counters"),
    claim!(an_unprotected_drive_death_zeroes_the_cell, ["fault-sweep"],
        "a drive death without redundancy loses blocks, and the rb cell reports zero throughput \
         for both methods"),
    claim!(mirror_and_parity_survive_the_drive_death, ["fault-sweep"],
        "under a drive death, mirrored and parity layouts lose no block, reconstruct reads and \
         keep rb throughput positive for both methods"),
    claim!(transient_storms_fire_and_degrade_without_losing_data, ["fault-sweep"],
        "transient storms fire, charge degraded time and lose no block, and rb throughput stays \
         positive for both methods"),
    claim!(every_cell_serves_the_full_schedule_with_ordered_percentiles, ["serve-sweep"],
        "all 48 serving cells serve 4 x 64 one-block requests with ordered percentiles and \
         per-tenant counters that sum to the totals"),
    claim!(ddio_batching_beats_tc_queueing_at_every_composition, ["serve-sweep"],
        "at every arrival x QoS x load composition, TC's mean admission queueing is more than 5x \
         DDIO(sort)'s"),
    claim!(fig5_ddio_never_loses_to_tc_on_rb, ["fig5"],
        "at every CP count, DDIO(sort) on rb reaches at least 0.99x TC"),
    claim!(ddio_is_never_substantially_slower_than_tc, ["fig4"],
        "on the contiguous layout with 8 KB records, DDIO(sort) reaches at least 0.95x TC on all \
         19 patterns"),
    claim!(ddio_approaches_peak_disk_bandwidth_on_contiguous_layout, ["fig4"],
        "on the contiguous layout, DDIO(sort) on rb, rcc and wb exceeds 75% of the peak disk \
         bandwidth with over 90% of disk requests sequential"),
    claim!(presorting_improves_random_layout_throughput, ["fig3"],
        "on the random-blocks layout, presorting lifts DDIO on rb by 1.2x to 2.5x"),
    claim!(contiguous_layout_is_several_times_faster_than_random, ["fig3", "fig4"],
        "DDIO(sort) on rb runs 3x to 8x faster on the contiguous layout than on the \
         random-blocks layout"),
    claim!(tc_worst_case_is_several_times_slower_than_ddio, ["fig4"],
        "on the contiguous layout, TC is more than 3x slower than DDIO(sort) on the worst of rb, \
         rcn and wb"),
    claim!(ddio_throughput_is_nearly_pattern_independent, ["fig4"],
        "on the contiguous layout, DDIO(sort) read throughput varies less than 1.15x across the \
         10 read patterns"),
];

fn presort_and_cscan_beat_fcfs_on_random_layout_reads(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, "FCFS/presort/CSCAN".to_owned());
    for pattern in ["ra", "rn", "rb", "rc"] {
        let mean_of = |method| mean(pass, &format!("sched-sweep {pattern} {method}"));
        let fcfs = mean_of("DDIO")?;
        let (presort, cscan) = (mean_of("DDIO(sort)")?, mean_of("DDIO(cscan)")?);
        holds &= presort > fcfs && cscan > fcfs;
        evidence += &format!(" {pattern} {fcfs:.3}/{presort:.3}/{cscan:.3}");
    }
    verdict(holds, evidence)
}

fn drive_counters_reach_the_outcome(pass: &[ScenarioRun]) -> Verdict {
    let (_, ddio) = cell(pass, "sched-sweep ra DDIO(cscan)")?;
    let outcome = &ddio.point.last_outcome;
    let depth = outcome.max_disk_queue_depth();
    let mean_depth = outcome.mean_disk_queue_depth();
    let busy = &outcome.disk_utilization;
    let (lo, hi) = band(busy.iter().copied());
    let holds = depth >= 2 && mean_depth > 0.0 && busy.len() == outcome.disk_stats.len();
    let evidence = format!("queue depth max {depth} mean {mean_depth:.2}; busy {busy:.2?}");
    verdict(holds && lo > 0.0 && hi <= 1.0, evidence)
}

fn watermark_write_back_beats_default_but_loses_to_ddio(pass: &[ScenarioRun]) -> Verdict {
    let ddio = mean(pass, "cache-sweep wb DDIO(sort)")?;
    let (mut holds, mut evidence) = (true, format!("DDIO(sort) {ddio:.3}; default/watermark"));
    for bufs in [1, 8] {
        let mean_of = |method| mean(pass, &format!("cache-sweep wb {method} bufs={bufs}"));
        let (default, watermark) = (mean_of("TC")?, mean_of("TC[lru+one+watermark]")?);
        holds &= watermark > default * 1.2 && watermark < ddio;
        evidence += &format!(" bufs={bufs} {default:.3}/{watermark:.3}");
    }
    verdict(holds, evidence)
}

fn cache_counters_reach_the_outcome(pass: &[ScenarioRun]) -> Verdict {
    // The cyclic read: each CP walks one disk's blocks serially, so the
    // one-ahead prefetch runs ahead of the demand stream (on rb every
    // candidate is already being demand-fetched by another CP).
    let stats = |method| -> Result<CacheStats, String> {
        let (_, r) = cell(pass, &format!("cache-sweep rc {method} bufs=1"))?;
        let totals = r.point.last_outcome.cache_totals();
        totals.ok_or(format!("{method} on rc reports no cache"))
    };
    let (tc, none) = (stats("TC")?, stats("TC[lru+none+onfull]")?);
    let mut holds = tc.misses > 0 && tc.prefetches > 0 && tc.prefetch_used > 0;
    holds &= tc.prefetch_used + tc.prefetch_wasted <= tc.prefetches && none.prefetches == 0;
    let mut amiss = Vec::new();
    for (cell, r) in cells(pass, "cache-sweep")? {
        if r.point.last_outcome.cache_totals().is_some() != cell.method.cache().is_some() {
            amiss.push(format!("{} {}", cell.pattern.name(), cell.method.label()));
        }
    }
    let evidence = format!("rc TC {tc:?}; rc none {none:?}; cache stats amiss: {amiss:?}");
    verdict(holds && amiss.is_empty(), evidence)
}

fn ddio_rb_advantage_survives_every_multihop_fabric(pass: &[ScenarioRun]) -> Verdict {
    let (tc, ddio) = (on_fabrics(pass, "TC")?, on_fabrics(pass, "DDIO(sort)")?);
    let (mut holds, mut least) = (true, (f64::INFINITY, String::new()));
    for ((fabric, tc), (_, ddio)) in tc.into_iter().zip(ddio) {
        if fabric.contains("crossbar") {
            continue;
        }
        holds &= ddio > tc * 1.5;
        if ddio / tc < least.0 {
            least = (ddio / tc, format!("{fabric}: DDIO {ddio:.3}, TC {tc:.3}"));
        }
    }
    let evidence = format!("least DDIO(sort)/TC {:.3} ({})", least.0, least.1);
    verdict(holds, evidence)
}

fn ddio_is_fabric_insensitive_while_tc_swings(pass: &[ScenarioRun]) -> Verdict {
    let band_of = |method| on_fabrics(pass, method).map(|v| band(v.into_iter().map(|f| f.1)));
    let ((d_lo, d_hi), (t_lo, t_hi)) = (band_of("DDIO(sort)")?, band_of("TC")?);
    let (ddio, tc) = (d_hi / d_lo, t_hi / t_lo);
    let evidence = format!("DDIO(sort) {d_lo:.3}..{d_hi:.3} ({ddio:.3}x)");
    let evidence = format!("{evidence}, TC {t_lo:.3}..{t_hi:.3} ({tc:.3}x)");
    verdict(ddio < 1.25 && ddio < tc, evidence)
}

fn healthy_cells_report_zero_fault_counters(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, Vec::new());
    for cell in ["rb TC", "ra TC", "rb DDIO(sort)", "ra DDIO(sort)"] {
        let (mean, stats) = fault(pass, &format!("{cell} faults=none redundancy=none"))?;
        holds &= mean > 0.0 && stats == FaultStats::default();
        evidence.push(format!("{cell} {mean:.3} {stats:?}"));
    }
    verdict(holds, evidence.join("; "))
}

fn an_unprotected_drive_death_zeroes_the_cell(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, Vec::new());
    for method in ["TC", "DDIO(sort)"] {
        let (mean, stats) = fault(pass, &format!("rb {method} faults=failure redundancy=none"))?;
        let lost = stats.lost_blocks;
        holds &= lost > 0 && mean == 0.0;
        evidence.push(format!("{method} {mean} with {lost} blocks lost"));
    }
    verdict(holds, evidence.join("; "))
}

fn mirror_and_parity_survive_the_drive_death(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, Vec::new());
    for method in ["TC", "DDIO(sort)"] {
        for redundancy in ["mirror", "parity"] {
            let cell = format!("rb {method} faults=failure redundancy={redundancy}");
            let (mean, stats) = fault(pass, &cell)?;
            let (lost, rebuilt) = (stats.lost_blocks, stats.reconstruction_reads);
            holds &= lost == 0 && rebuilt > 0 && mean > 0.0;
            evidence.push(format!("{cell}: {mean:.3}, {lost} lost, {rebuilt} rebuilt"));
        }
    }
    verdict(holds, evidence.join("; "))
}

fn transient_storms_fire_and_degrade_without_losing_data(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, Vec::new());
    for method in ["TC", "DDIO(sort)"] {
        let cell = format!("rb {method} faults=transient redundancy=none");
        let (mean, stats) = fault(pass, &cell)?;
        holds &= mean > 0.0 && stats.lost_blocks == 0;
        holds &= stats.events_fired > 0 && stats.degraded_secs > 0.0;
        evidence.push(format!("{cell}: {mean:.3}, {stats:?}"));
    }
    verdict(holds, evidence.join("; "))
}

fn every_cell_serves_the_full_schedule_with_ordered_percentiles(pass: &[ScenarioRun]) -> Verdict {
    let (mut count, mut failed) = (0, Vec::new());
    for (cell, r) in cells(pass, "serve-sweep")? {
        count += 1;
        let serve = &r.point.last_outcome.serve;
        let (requests, served_bytes) = (serve.requests, serve.served_bytes);
        let (p50, p99, p999) = (serve.p50_ms, serve.p99_ms, serve.p999_ms);
        // The default ServeParams: 4 tenants x 64 requests of one block.
        let mut holds = requests == 4 * 64 && served_bytes == 4 * 64 * 8192;
        // Percentiles come from log-bucket representatives (midpoints), so
        // the tail may overshoot the exactly-tracked max by one bucket's
        // relative error — never undershoot order.
        let max = serve.max_ms * (1.0 + LatencyHistogram::RELATIVE_ERROR);
        holds &= 0.0 < p50 && p50 <= p99 && p99 <= p999 && p999 <= max;
        let tenants = &serve.per_tenant;
        holds &= serve.mean_queue_ms > 0.0 && tenants.len() == 4;
        holds &= tenants.iter().map(|t| t.requests).sum::<u64>() == requests;
        holds &= tenants.iter().map(|t| t.bytes).sum::<u64>() == served_bytes;
        holds &= tenants.iter().all(|t| t.requests > 0 && t.mibs > 0.0);
        if !holds {
            failed.push(format!("{} {}", cell.method.label(), axes_key(cell)));
        }
    }
    let evidence = format!("{count} cells, short of the schedule: {failed:?}");
    verdict(count == 2 * 2 * 4 * 3 && failed.is_empty(), evidence)
}

fn ddio_batching_beats_tc_queueing_at_every_composition(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut least) = (true, (f64::INFINITY, String::new()));
    for (tc_cell, tc) in cells(pass, "serve-sweep")?.filter(|(c, _)| c.method == Method::TC) {
        let axes = axes_key(tc_cell);
        let query = format!("serve-sweep {} DDIO(sort) {axes}", tc_cell.pattern.name());
        let queueing = |r: &CellResult| r.point.last_outcome.serve.mean_queue_ms;
        let (tc, ddio) = (queueing(tc), queueing(cell(pass, &query)?.1));
        holds &= tc > 5.0 * ddio;
        if tc / ddio < least.0 {
            least = (tc / ddio, format!("{axes}: TC {tc:.2} ms, DDIO {ddio:.2}"));
        }
    }
    let evidence = format!("least TC/DDIO(sort) queueing {:.2}x ({})", least.0, least.1);
    verdict(holds && least.0.is_finite(), evidence)
}

fn fig5_ddio_never_loses_to_tc_on_rb(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, "TC/DDIO(sort)".to_owned());
    for cps in [1, 2, 4, 8, 16] {
        let mean_of = |method| mean(pass, &format!("fig5 rb {method} cps={cps}"));
        let (tc, ddio) = (mean_of("TC")?, mean_of("DDIO(sort)")?);
        holds &= ddio >= tc * 0.99;
        evidence += &format!(" cps={cps} {tc:.3}/{ddio:.3}");
    }
    verdict(holds, evidence)
}

fn ddio_is_never_substantially_slower_than_tc(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut least) = (true, (f64::INFINITY, String::new()));
    for pattern in AccessPattern::paper_all_patterns().iter().map(|p| p.name()) {
        let tc = mean_8k(pass, &format!("fig4 {pattern} TC"))?;
        let ddio = mean_8k(pass, &format!("fig4 {pattern} DDIO(sort)"))?;
        holds &= ddio >= 0.95 * tc;
        if ddio / tc < least.0 {
            least = (ddio / tc, format!("{pattern}: DDIO {ddio:.3}, TC {tc:.3}"));
        }
    }
    let evidence = format!("least DDIO(sort)/TC {:.3} ({})", least.0, least.1);
    verdict(holds, evidence)
}

fn ddio_approaches_peak_disk_bandwidth_on_contiguous_layout(pass: &[ScenarioRun]) -> Verdict {
    let (mut holds, mut evidence) = (true, Vec::new());
    for name in ["rb", "rcc", "wb"] {
        let (cell, r) = cell(pass, &format!("fig4 {name} DDIO(sort) record=8192"))?;
        let peak = cell.config.peak_disk_bandwidth() / (1024.0 * 1024.0);
        let mibs = r.point.mean();
        let sequential = r.point.last_outcome.disk_sequential_fraction();
        holds &= mibs > 0.75 * peak && sequential > 0.9;
        evidence.push(format!(
            "{name} {mibs:.2} of {peak:.2} MiB/s, {sequential:.3} sequential"
        ));
    }
    verdict(holds, evidence.join("; "))
}

fn presorting_improves_random_layout_throughput(pass: &[ScenarioRun]) -> Verdict {
    let unsorted = mean_8k(pass, "fig3 rb DDIO")?;
    let sorted = mean_8k(pass, "fig3 rb DDIO(sort)")?;
    let gain = sorted / unsorted;
    let evidence = format!("gain {gain:.3}x ({unsorted:.3} -> {sorted:.3} MiB/s)");
    verdict((1.2..2.5).contains(&gain), evidence)
}

fn contiguous_layout_is_several_times_faster_than_random(pass: &[ScenarioRun]) -> Verdict {
    let contiguous = mean_8k(pass, "fig4 rb DDIO(sort)")?;
    let random = mean_8k(pass, "fig3 rb DDIO(sort)")?;
    let ratio = contiguous / random;
    let evidence = format!("{contiguous:.3} / {random:.3} MiB/s = {ratio:.3}x");
    verdict((3.0..8.0).contains(&ratio), evidence)
}

fn tc_worst_case_is_several_times_slower_than_ddio(pass: &[ScenarioRun]) -> Verdict {
    let mut worst = (0.0, "");
    for name in ["rb", "rcn", "wb"] {
        let tc = mean_8k(pass, &format!("fig4 {name} TC"))?;
        let ratio = mean_8k(pass, &format!("fig4 {name} DDIO(sort)"))? / tc;
        if ratio > worst.0 {
            worst = (ratio, name);
        }
    }
    let evidence = format!("worst TC slowdown {:.3}x on {}", worst.0, worst.1);
    verdict(worst.0 > 3.0, evidence)
}

fn ddio_throughput_is_nearly_pattern_independent(pass: &[ScenarioRun]) -> Verdict {
    let patterns = AccessPattern::paper_read_patterns();
    let query = |p: &AccessPattern| format!("fig4 {} DDIO(sort)", p.name());
    let mibs: Result<Vec<f64>, String> =
        patterns.iter().map(|p| mean_8k(pass, &query(p))).collect();
    let (min, max) = band(mibs?);
    let evidence = format!("DDIO(sort) reads {min:.3}..{max:.3} MiB/s");
    verdict(max / min < 1.15, format!("{evidence} ({:.3}x)", max / min))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_fails_on_an_empty_pass_naming_what_it_lacks() {
        for claim in all() {
            let reason = (claim.check)(&[]).expect_err(claim.name);
            let named = claim.scenarios.iter().any(|s| reason.contains(s));
            assert!(
                named,
                "{}: {reason:?} names none of its scenarios",
                claim.name
            );
        }
    }

    #[test]
    fn claim_names_are_unique_and_scenarios_registered() {
        let registered = |name| ddio_core::experiment::scenario::find(name).is_some();
        for (i, claim) in all().iter().enumerate() {
            assert!(
                all()[..i].iter().all(|c| c.name != claim.name),
                "{}",
                claim.name
            );
            assert!(
                claim.scenarios.iter().all(|s| registered(s)),
                "{}",
                claim.name
            );
        }
    }

    #[test]
    fn design_lists_every_claim_with_its_statement() {
        let design = include_str!("../../../DESIGN.md");
        for claim in all() {
            let row = format!("| `{}` | {} |", claim.name, claim.statement);
            assert!(design.contains(&row), "DESIGN.md §3 lacks the row {row}");
        }
    }

    #[test]
    fn a_lookup_names_the_cell_it_cannot_single_out() {
        let (_, pass) = smoke("mixed-rw", 2);
        assert!(mean(&pass, "mixed-rw rb TC phase=0").is_ok());
        let err = |query| mean(&pass, query).unwrap_err();
        assert_eq!(
            err("mixed-rw rb TC phase=1"),
            "the pass has no cell mixed-rw rb TC phase=1"
        );
        assert_eq!(err("mixed-rw rb"), "more than one cell is mixed-rw rb");
        assert_eq!(err("fig4 rb TC"), "the pass has no fig4 cells");
    }
}
