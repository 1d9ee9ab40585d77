//! The experiment harness: multi-trial data points, plus the table
//! formatting of the paper's pattern (Figures 3 and 4) and sensitivity
//! (Figures 5-8) reports.
//!
//! On top of these primitives sit the [`scenario`] registry — every paper
//! exhibit and new sweep as a named list of independent cells — and the
//! [`pool`] thread pool that executes those cells across all cores with
//! deterministic, order-stable results.
//!
//! # Registry lookup
//!
//! Scenarios are found by their registry key; each entry carries the
//! one-line question it answers and its headline result, the same metadata
//! `ddio-bench list` and the README catalog render:
//!
//! ```
//! use ddio_core::experiment::scenario;
//!
//! let fig5 = scenario::find("fig5").expect("a registered scenario");
//! assert_eq!(fig5.title, "Figure 5: varying the number of CPs");
//! assert!(!fig5.headline.is_empty());
//!
//! // The registry drives every listing; unknown names simply miss.
//! assert!(scenario::registry().iter().any(|s| s.name == "net-sweep"));
//! assert!(scenario::find("no-such-scenario").is_none());
//! ```

pub mod pool;
pub mod scenario;

use ddio_patterns::AccessPattern;
use ddio_sim::stats::Summary;
use ddio_sim::Sim;

use crate::config::{LayoutPolicy, MachineConfig, Method};
use crate::machine::{run_transfer_in, TransferOutcome};
use scenario::CellResult;

/// One data point: a (pattern, method, record size) cell averaged over
/// several independent trials, exactly as in the paper's figures.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// Pattern name in the paper's notation.
    pub pattern: String,
    /// File-system method.
    pub method: Method,
    /// Record size in bytes.
    pub record_bytes: u64,
    /// Disk layout used.
    pub layout: LayoutPolicy,
    /// Throughput (MiB/s, `ra` normalized per CP) of each trial.
    pub trials: Vec<f64>,
    /// Summary statistics over the trials.
    pub summary: Summary,
    /// The last trial's full outcome (for diagnostics).
    pub last_outcome: TransferOutcome,
}

impl DataPoint {
    /// Mean throughput in MiB/s.
    pub fn mean(&self) -> f64 {
        self.summary.mean
    }

    /// Coefficient of variation across trials.
    pub fn cv(&self) -> f64 {
        self.summary.cv()
    }
}

/// Runs `trials` independent trials of one configuration and summarizes them.
///
/// Trial `i` uses seed `base_seed + i` (wrapping at `u64::MAX`), so a data
/// point is fully reproducible.
pub fn run_data_point(
    config: &MachineConfig,
    method: Method,
    pattern: AccessPattern,
    record_bytes: u64,
    trials: usize,
    base_seed: u64,
) -> DataPoint {
    assert!(trials > 0, "need at least one trial");
    let mut throughputs = Vec::with_capacity(trials);
    let mut last = None;
    // One simulator serves every trial of every cell this worker thread
    // runs: `run_transfer_in` resets it between uses, so executor task slots
    // and the event calendar are paid for once per thread.
    thread_local! {
        static SIM: std::cell::RefCell<Sim> = std::cell::RefCell::new(Sim::new());
    }
    SIM.with(|sim| {
        let sim = &mut *sim.borrow_mut();
        for t in 0..trials {
            let outcome = run_transfer_in(
                sim,
                config,
                method,
                pattern,
                record_bytes,
                base_seed.wrapping_add(t as u64),
            );
            throughputs.push(outcome.throughput_mibs);
            last = Some(outcome);
        }
    });
    DataPoint {
        pattern: pattern.name(),
        method,
        record_bytes,
        layout: config.layout,
        summary: Summary::of(&throughputs),
        trials: throughputs,
        last_outcome: last.expect("at least one trial ran"),
    }
}

/// Formats a pattern sweep as an aligned text table, one row per pattern and
/// one column per method — the textual equivalent of Figures 3 and 4.
pub fn format_pattern_table(results: &[&CellResult], title: &str) -> String {
    let mut methods: Vec<Method> = Vec::new();
    let mut patterns: Vec<&str> = Vec::new();
    for r in results {
        if !methods.contains(&r.point.method) {
            methods.push(r.point.method);
        }
        if !patterns.contains(&r.point.pattern.as_str()) {
            patterns.push(&r.point.pattern);
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<9}", "pattern"));
    for m in &methods {
        out.push_str(&format!("{:>12}", m.label()));
    }
    out.push_str(&format!("{:>10}\n", "max cv"));
    for pat in &patterns {
        out.push_str(&format!("{pat:<9}"));
        let mut max_cv: f64 = 0.0;
        for m in &methods {
            let cell = results
                .iter()
                .find(|r| r.point.pattern == *pat && r.point.method == *m)
                .map(|r| {
                    max_cv = max_cv.max(r.point.cv());
                    format!("{:>12.2}", r.point.mean())
                })
                .unwrap_or_else(|| format!("{:>12}", "-"));
            out.push_str(&cell);
        }
        out.push_str(&format!("{max_cv:>10.3}\n"));
    }
    out
}

/// Formats a sensitivity sweep as an aligned text table, one row per value
/// of each cell's first (varied) axis — the textual equivalent of Figures
/// 5-8.
pub fn format_sensitivity_table(results: &[CellResult], title: &str) -> String {
    let value = |r: &CellResult| r.axes.first().and_then(|a| a.value.as_u64()).unwrap_or(0);
    let mut values: Vec<u64> = Vec::new();
    let mut series: Vec<(Method, &str)> = Vec::new();
    for r in results {
        if !values.contains(&value(r)) {
            values.push(value(r));
        }
        let key = (r.point.method, r.point.pattern.as_str());
        if !series.contains(&key) {
            series.push(key);
        }
    }
    values.sort_unstable();
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<8}{:>10}", "value", "max-bw"));
    for (m, pat) in &series {
        out.push_str(&format!("{:>14}", format!("{} {}", m.label(), pat)));
    }
    out.push('\n');
    for v in &values {
        let limit = results
            .iter()
            .find(|r| value(r) == *v)
            .map(|r| r.hardware_limit_mibs)
            .unwrap_or(0.0);
        out.push_str(&format!("{v:<8}{limit:>10.1}"));
        for (m, pat) in &series {
            let cell = results
                .iter()
                .find(|r| value(r) == *v && r.point.method == *m && r.point.pattern == *pat)
                .map(|r| format!("{:>14.2}", r.point.summary.mean))
                .unwrap_or_else(|| format!("{:>14}", "-"));
            out.push_str(&cell);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_transfer;
    use scenario::Axis;

    fn tiny_config() -> MachineConfig {
        MachineConfig {
            n_cps: 4,
            n_iops: 4,
            n_disks: 4,
            file_bytes: 256 * 1024,
            layout: LayoutPolicy::Contiguous,
            verify: true,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn data_point_runs_multiple_trials_and_summarizes() {
        let cfg = tiny_config();
        let dp = run_data_point(
            &cfg,
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            3,
            7,
        );
        assert_eq!(dp.trials.len(), 3);
        assert!(dp.mean() > 0.0);
        assert!(dp.cv() < 0.5);
        assert!(dp.last_outcome.verify.as_ref().unwrap().complete);
    }

    #[test]
    fn trial_seeds_wrap_past_u64_max() {
        // Trial 1 of base seed u64::MAX runs at seed 0 instead of
        // overflowing.
        let cfg = MachineConfig {
            layout: LayoutPolicy::RandomBlocks,
            ..tiny_config()
        };
        let point = |trials, seed| {
            run_data_point(
                &cfg,
                Method::TC,
                AccessPattern::parse("rb").unwrap(),
                8192,
                trials,
                seed,
            )
        };
        let wrapped = point(2, u64::MAX);
        let at_zero = point(1, 0);
        assert_eq!(wrapped.trials[1].to_bits(), at_zero.trials[0].to_bits());
        assert_eq!(wrapped.last_outcome.elapsed, at_zero.last_outcome.elapsed);
    }

    /// A result whose point reports `mean` MiB/s, at `value` on a `cps`
    /// axis when given.
    fn result(
        outcome: &TransferOutcome,
        pattern: &str,
        method: Method,
        value: Option<u64>,
        mean: f64,
    ) -> CellResult {
        CellResult {
            scenario: "test",
            axes: value.map(|v| Axis::new("cps", v)).into_iter().collect(),
            seed: 1,
            hardware_limit_mibs: 37.5,
            point: DataPoint {
                pattern: pattern.to_owned(),
                method,
                record_bytes: 8192,
                layout: LayoutPolicy::Contiguous,
                trials: vec![mean],
                summary: Summary::of(&[mean]),
                last_outcome: outcome.clone(),
            },
        }
    }

    fn tiny_outcome() -> TransferOutcome {
        run_transfer(
            &tiny_config(),
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        )
    }

    #[test]
    fn pattern_table_formatting_includes_all_patterns_and_methods() {
        let outcome = tiny_outcome();
        let results = [
            result(&outcome, "ra", Method::TC, None, 3.0),
            result(&outcome, "ra", Method::DDIO, None, 6.0),
            result(&outcome, "rb", Method::TC, None, 2.0),
            result(&outcome, "rb", Method::DDIO, None, 7.0),
        ];
        let table = format_pattern_table(&results.iter().collect::<Vec<_>>(), "test table");
        assert!(table.contains("test table"));
        assert!(table.contains("ra"));
        assert!(table.contains("rb"));
        assert!(table.contains("TC"));
        assert!(table.contains("DDIO"));
        assert!(table.contains("6.00"));
    }

    #[test]
    fn sensitivity_table_orders_values() {
        let outcome = tiny_outcome();
        let results = [
            result(&outcome, "ra", Method::DDIO, Some(8), 30.0),
            result(&outcome, "ra", Method::DDIO, Some(2), 28.0),
            result(&outcome, "ra", Method::TC, Some(8), 20.0),
            result(&outcome, "ra", Method::TC, Some(2), 15.0),
        ];
        let table = format_sensitivity_table(&results, "sensitivity");
        let idx2 = table.find("\n2 ").expect("row for 2");
        let idx8 = table.find("\n8 ").expect("row for 8");
        assert!(idx2 < idx8);
        assert!(table.contains("37.5"));
    }
}
