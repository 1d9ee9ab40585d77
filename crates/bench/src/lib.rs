//! `ddio-bench`: the unified scenario runner.
//!
//! The [`ddio-bench` CLI](crate::cli) binary runs any registered scenario —
//! Table 1, Figures 3–8, and the newer sweeps — in parallel across all
//! cores (`ddio-bench run all --jobs N`) and emits text tables, JSON, or
//! CSV; `ddio-bench run fig5` prints one exhibit. Its output is simulated
//! results only; host time is measured by the separate `perfbench`
//! workspace. The Criterion micro-benchmarks of the simulator, disk model,
//! and pattern generator live in `benches/`. [`claims`] holds every
//! qualitative claim as a predicate over a run's results.
//!
//! The CLI accepts these scaling knobs through the environment so the
//! full-fidelity (10 MB file, five trials) runs of the paper can be
//! traded for quicker ones:
//!
//! | variable          | default | meaning                                   |
//! |-------------------|---------|-------------------------------------------|
//! | `DDIO_FILE_MB`    | `10`    | file size in MiB (≥ 1, < 2^44)            |
//! | `DDIO_TRIALS`     | `5`     | independent trials per data point (≥ 1)   |
//! | `DDIO_SMALL_RECORDS` | `1`  | also run the 8-byte-record sweep (0 = skip) |
//! | `DDIO_SEED`       | `1994`  | base random seed                          |
//!
//! The variables write straight into the run's [`SweepParams`] (see
//! [`params_from_lookup`]). Zero or unparseable values are rejected at
//! startup with a clear error instead of panicking mid-run. The machine's
//! cache, fabric, fault and serving compositions are not knobs: the
//! `cache-sweep`, `net-sweep`, `fault-sweep` and `serve-sweep` scenarios
//! sweep them, and `run --where` selects among their cells.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod claims;
pub mod cli;
pub mod report;

use std::fmt;

use ddio_core::experiment::scenario::SweepParams;

/// A rejected `DDIO_*` environment variable (or CLI override).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// The offending variable name.
    pub var: String,
    /// The value it held.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is invalid: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for ScaleError {}

/// The source of `DDIO_*` values: the environment in the CLI, an
/// injectable table in tests.
type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// Reads `var`, treating unset and blank alike.
fn non_blank(lookup: Lookup, var: &str) -> Option<String> {
    lookup(var).filter(|v| !v.trim().is_empty())
}

/// Parses one numeric knob: unset or blank yields `None`; anything else
/// must be a non-negative integer, bounded below by `min`.
fn parse_knob(lookup: Lookup, var: &str, min: u64) -> Result<Option<u64>, ScaleError> {
    let Some(raw) = non_blank(lookup, var) else {
        return Ok(None);
    };
    let error = |reason: &str| ScaleError {
        var: var.to_owned(),
        value: raw.clone(),
        reason: reason.to_owned(),
    };
    let parsed: u64 = raw
        .trim()
        .parse()
        .map_err(|_| error("expected an unsigned integer"))?;
    if parsed < min {
        return Err(error("must be at least 1"));
    }
    Ok(Some(parsed))
}

/// The retired machine-wide composition knobs, each with the scenario that
/// covers its axis. One that is still set is rejected, so a stale
/// environment fails at startup instead of quietly running the paper's
/// machine.
#[rustfmt::skip]
const RETIRED: [(&str, &str); 9] = [
    ("DDIO_CACHE_BUFS",       "cache-sweep"),
    ("DDIO_NET_TOPOLOGY",     "net-sweep"),
    ("DDIO_NET_CONTENTION",   "net-sweep"),
    ("DDIO_FAULT_POLICY",     "fault-sweep"),
    ("DDIO_FAULT_REDUNDANCY", "fault-sweep"),
    ("DDIO_ARRIVAL_PROCESS",  "serve-sweep"),
    ("DDIO_ARRIVAL_QOS",      "serve-sweep"),
    ("DDIO_ARRIVAL_TENANTS",  "serve-sweep"),
    ("DDIO_ARRIVAL_REQUESTS", "serve-sweep"),
];

/// Reads the run configuration (see the crate docs) from `lookup`, the
/// environment in the CLI and an injectable source in tests, on top of
/// [`SweepParams::default`] (the paper's full-fidelity run).
///
/// Unset or blank variables keep their defaults. Garbage (`DDIO_TRIALS=x`),
/// out-of-range values (`DDIO_TRIALS=0`, `DDIO_FILE_MB=0`) and any set
/// retired knob (`DDIO_NET_TOPOLOGY=mesh`) are rejected here, at startup,
/// rather than reaching an assertion deep in the experiment harness.
pub fn params_from_lookup(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<SweepParams, ScaleError> {
    let lookup: Lookup = &lookup;
    for (var, scenario) in RETIRED {
        if let Some(value) = non_blank(lookup, var) {
            return Err(ScaleError {
                var: var.to_owned(),
                value,
                reason: format!(
                    "this knob is retired; the {scenario} scenario covers its axis \
                     (select cells with `run {scenario} --where AXIS=VALUE`)"
                ),
            });
        }
    }
    let mut p = SweepParams::default();
    if let Some(v) = parse_knob(lookup, "DDIO_FILE_MB", 1)? {
        p.base.file_bytes = v.checked_mul(1 << 20).ok_or_else(|| ScaleError {
            var: "DDIO_FILE_MB".to_owned(),
            value: v.to_string(),
            reason: "the file size in bytes must fit in 64 bits".to_owned(),
        })?;
    }
    if let Some(v) = parse_knob(lookup, "DDIO_TRIALS", 1)? {
        p.trials = v as usize;
    }
    if let Some(v) = parse_knob(lookup, "DDIO_SMALL_RECORDS", 0)? {
        p.small_records = v != 0;
    }
    if let Some(v) = parse_knob(lookup, "DDIO_SEED", 0)? {
        p.seed = v;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    fn parse(pairs: &[(&str, &str)]) -> Result<SweepParams, ScaleError> {
        params_from_lookup(lookup_of(pairs))
    }

    #[test]
    fn default_scale_matches_the_paper() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.base, ddio_core::MachineConfig::default());
        assert_eq!(p.base.file_bytes, 10 * 1024 * 1024);
        assert_eq!(p.trials, 5);
        assert!(p.small_records);
        assert_eq!(p.seed, 1994);
        assert!(p.describe().contains("10 MiB"));
    }

    #[test]
    fn env_overrides_apply() {
        let p = parse(&[
            ("DDIO_FILE_MB", "2"),
            ("DDIO_TRIALS", "3"),
            ("DDIO_SMALL_RECORDS", "0"),
            ("DDIO_SEED", "42"),
        ])
        .unwrap();
        assert_eq!(p.base.file_bytes, 2 * 1024 * 1024);
        assert_eq!(p.trials, 3);
        assert!(!p.small_records);
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn retired_knobs_are_rejected_naming_their_scenario() {
        for (var, scenario) in RETIRED {
            // Any value fails, even one the old knob accepted.
            let err = parse(&[("DDIO_TRIALS", "1"), (var, "1")]).unwrap_err();
            assert_eq!(err.var, var);
            assert!(err.to_string().contains(scenario), "{err}");
            // Blank counts as unset, as for every knob.
            let p = parse(&[(var, " ")]).unwrap();
            assert_eq!(p.base, ddio_core::MachineConfig::default());
        }
    }

    #[test]
    fn blank_values_keep_defaults() {
        let p = parse(&[("DDIO_TRIALS", "  ")]).unwrap();
        assert_eq!(p.trials, 5);
    }

    #[test]
    fn zero_trials_is_rejected_at_startup() {
        let err = parse(&[("DDIO_TRIALS", "0")]).unwrap_err();
        assert_eq!(err.var, "DDIO_TRIALS");
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn zero_file_size_is_rejected() {
        let err = parse(&[("DDIO_FILE_MB", "0")]).unwrap_err();
        assert_eq!(err.var, "DDIO_FILE_MB");
    }

    #[test]
    fn oversized_file_size_is_rejected() {
        // 2^44 MiB is 2^64 bytes, one past the largest size that fits.
        let err = parse(&[("DDIO_FILE_MB", "17592186044416")]).unwrap_err();
        assert_eq!(err.var, "DDIO_FILE_MB");
        assert!(err.to_string().contains("64 bits"), "{err}");
        let p = parse(&[("DDIO_FILE_MB", "17592186044415")]).unwrap();
        assert_eq!(p.base.file_bytes, 17592186044415 << 20);
    }

    #[test]
    fn garbage_values_are_rejected() {
        for (var, value) in [
            ("DDIO_FILE_MB", "ten"),
            ("DDIO_TRIALS", "-3"),
            ("DDIO_SEED", "0x12"),
            ("DDIO_SMALL_RECORDS", "yes"),
        ] {
            let err = parse(&[(var, value)]).unwrap_err();
            assert_eq!(err.var, var, "{value} accepted for {var}");
            assert!(err.to_string().contains("unsigned integer"));
        }
    }

    #[test]
    fn seed_zero_is_a_valid_seed() {
        let p = parse(&[("DDIO_SEED", "0")]).unwrap();
        assert_eq!(p.seed, 0);
    }
}
