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

use crate::config::{LayoutPolicy, MachineConfig, Method};
use crate::machine::{run_transfer_in, MachineArena, TransferOutcome};

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
    /// Executor events processed, summed over all trials (deterministic).
    pub sim_events: u64,
    /// Host wall-clock seconds spent across all trials (non-deterministic;
    /// surfaced only by `--perf` reporting, never in goldens).
    pub host_wall_secs: f64,
    /// Host wall-clock seconds spent building machines across all trials
    /// (non-deterministic; `--perf` only).
    pub build_wall_secs: f64,
    /// Host wall-clock seconds spent inside the simulation runs across all
    /// trials (non-deterministic; `--perf` only).
    pub run_wall_secs: f64,
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
/// Trial `i` uses seed `base_seed + i`, so a data point is fully reproducible.
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
    let mut sim_events = 0u64;
    let mut host_wall_secs = 0.0f64;
    let mut build_wall_secs = 0.0f64;
    let mut run_wall_secs = 0.0f64;
    // One arena serves every trial of every cell this worker thread runs:
    // `run_transfer_in` resets it between uses, so executor task slots,
    // timer-wheel levels, and layout tables are paid for once per thread.
    thread_local! {
        static ARENA: std::cell::RefCell<MachineArena> =
            std::cell::RefCell::new(MachineArena::new());
    }
    ARENA.with(|arena| {
        let arena = &mut *arena.borrow_mut();
        for t in 0..trials {
            let outcome = run_transfer_in(
                arena,
                config,
                method,
                pattern,
                record_bytes,
                base_seed + t as u64,
            );
            throughputs.push(outcome.throughput_mibs);
            sim_events += outcome.sim_events;
            host_wall_secs += outcome.host_wall_secs;
            build_wall_secs += outcome.build_wall_secs;
            run_wall_secs += outcome.run_wall_secs;
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
        sim_events,
        host_wall_secs,
        build_wall_secs,
        run_wall_secs,
    }
}

/// One point of a sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// The varied parameter's value.
    pub value: usize,
    /// Pattern name.
    pub pattern: String,
    /// File-system method.
    pub method: Method,
    /// Mean throughput and spread over the trials.
    pub summary: Summary,
    /// The hardware bandwidth limit for this configuration, in MiB/s
    /// (the "Max bandwidth" line in Figures 5-8).
    pub hardware_limit_mibs: f64,
}

/// Formats a pattern sweep as an aligned text table, one row per pattern and
/// one column per method — the textual equivalent of Figures 3 and 4.
pub fn format_pattern_table(points: &[DataPoint], title: &str) -> String {
    let mut methods: Vec<Method> = Vec::new();
    for p in points {
        if !methods.contains(&p.method) {
            methods.push(p.method);
        }
    }
    let mut patterns: Vec<String> = Vec::new();
    for p in points {
        if !patterns.contains(&p.pattern) {
            patterns.push(p.pattern.clone());
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
            let cell = points
                .iter()
                .find(|p| &p.pattern == pat && p.method == *m)
                .map(|p| {
                    max_cv = max_cv.max(p.cv());
                    format!("{:>12.2}", p.mean())
                })
                .unwrap_or_else(|| format!("{:>12}", "-"));
            out.push_str(&cell);
        }
        out.push_str(&format!("{max_cv:>10.3}\n"));
    }
    out
}

/// Formats a sensitivity sweep as an aligned text table, one row per varied
/// value — the textual equivalent of Figures 5-8.
pub fn format_sensitivity_table(points: &[SensitivityPoint], title: &str) -> String {
    let mut values: Vec<usize> = Vec::new();
    let mut series: Vec<(Method, String)> = Vec::new();
    for p in points {
        if !values.contains(&p.value) {
            values.push(p.value);
        }
        let key = (p.method, p.pattern.clone());
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
        let limit = points
            .iter()
            .find(|p| p.value == *v)
            .map(|p| p.hardware_limit_mibs)
            .unwrap_or(0.0);
        out.push_str(&format!("{v:<8}{limit:>10.1}"));
        for (m, pat) in &series {
            let cell = points
                .iter()
                .find(|p| p.value == *v && p.method == *m && &p.pattern == pat)
                .map(|p| format!("{:>14.2}", p.summary.mean))
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
    use ddio_sim::stats::Summary;

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
    fn pattern_table_formatting_includes_all_patterns_and_methods() {
        let cfg = tiny_config();
        let outcome = run_transfer(
            &cfg,
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        let mk = |pattern: &str, method: Method, mean: f64| DataPoint {
            pattern: pattern.to_owned(),
            method,
            record_bytes: 8192,
            layout: LayoutPolicy::Contiguous,
            trials: vec![mean],
            summary: Summary::of(&[mean]),
            last_outcome: outcome.clone(),
            sim_events: outcome.sim_events,
            host_wall_secs: outcome.host_wall_secs,
            build_wall_secs: outcome.build_wall_secs,
            run_wall_secs: outcome.run_wall_secs,
        };
        let points = vec![
            mk("ra", Method::TC, 3.0),
            mk("ra", Method::DDIO, 6.0),
            mk("rb", Method::TC, 2.0),
            mk("rb", Method::DDIO, 7.0),
        ];
        let table = format_pattern_table(&points, "test table");
        assert!(table.contains("test table"));
        assert!(table.contains("ra"));
        assert!(table.contains("rb"));
        assert!(table.contains("TC"));
        assert!(table.contains("DDIO"));
        assert!(table.contains("6.00"));
    }

    #[test]
    fn sensitivity_table_orders_values() {
        let mk = |value: usize, method: Method, pattern: &str, mean: f64| SensitivityPoint {
            value,
            pattern: pattern.to_owned(),
            method,
            summary: Summary::of(&[mean]),
            hardware_limit_mibs: 37.5,
        };
        let points = vec![
            mk(8, Method::DDIO, "ra", 30.0),
            mk(2, Method::DDIO, "ra", 28.0),
            mk(8, Method::TC, "ra", 20.0),
            mk(2, Method::TC, "ra", 15.0),
        ];
        let table = format_sensitivity_table(&points, "sensitivity");
        let idx2 = table.find("\n2 ").expect("row for 2");
        let idx8 = table.find("\n8 ").expect("row for 8");
        assert!(idx2 < idx8);
        assert!(table.contains("37.5"));
    }
}
