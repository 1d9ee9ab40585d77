//! `ddio-bench`: the unified scenario runner.
//!
//! The [`ddio-bench` CLI](crate::cli) binary runs any registered scenario —
//! Table 1, Figures 3–8, and the newer sweeps — in parallel across all
//! cores (`ddio-bench run all --jobs N`) and emits text tables, JSON, or
//! CSV; `ddio-bench run fig5` prints one exhibit. Its output is simulated
//! results only; host time is measured by the separate `perfbench`
//! workspace. The Criterion micro-benchmarks of the simulator, disk model,
//! and pattern generator live in `benches/`.
//!
//! The CLI accepts these scaling knobs through the environment so the
//! full-fidelity (10 MB file, five trials) runs of the paper can be
//! traded for quicker ones:
//!
//! | variable          | default | meaning                                   |
//! |-------------------|---------|-------------------------------------------|
//! | `DDIO_FILE_MB`    | `10`    | file size in MiB (must be ≥ 1)            |
//! | `DDIO_TRIALS`     | `5`     | independent trials per data point (≥ 1)   |
//! | `DDIO_SMALL_RECORDS` | `1`  | also run the 8-byte-record sweep (0 = skip) |
//! | `DDIO_SEED`       | `1994`  | base random seed                          |
//! | `DDIO_CACHE_BUFS` | `2`     | TC cache buffers per disk per CP (≥ 1)    |
//! | `DDIO_NET_TOPOLOGY` | `torus` | interconnect topology: torus, mesh, hypercube, crossbar |
//! | `DDIO_NET_CONTENTION` | `ni-only` | fabric contention model: ni-only or link |
//! | `DDIO_FAULT_POLICY` | `none` | machine-wide fault injection: none, cacheless, worn, transient, failure |
//! | `DDIO_FAULT_REDUNDANCY` | `none` | redundant block placement: none, mirror, parity |
//! | `DDIO_ARRIVAL_PROCESS` | `closed-loop` | request arrivals: closed-loop, poisson, bursty |
//! | `DDIO_ARRIVAL_QOS` | `fifo` | serving admission policy: fifo, fair-share, weighted, tenant-priority |
//! | `DDIO_ARRIVAL_TENANTS` | `4` | independent open-loop tenants (≥ 1)  |
//! | `DDIO_ARRIVAL_REQUESTS` | `64` | open-loop requests per tenant (≥ 1)  |
//!
//! The variables write straight into the run's [`SweepParams`] (see
//! [`params_from_lookup`]): `DDIO_TRIALS`, `DDIO_SEED` and
//! `DDIO_SMALL_RECORDS` into its own fields, the rest into its base
//! [`MachineConfig`](ddio_core::MachineConfig). Zero or unparseable values
//! are rejected at startup with a clear error instead of panicking mid-run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod report;

use std::fmt;

use ddio_core::experiment::scenario::SweepParams;
use ddio_core::{
    ArrivalProcess, ContentionModel, FaultPolicy, QosPolicy, RedundancyPolicy, TopologyKind,
};

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

/// Parses one policy knob: unset or blank yields `None`; anything else must
/// be one of the policy's names, and the error lists them.
fn parse_policy<P>(
    lookup: Lookup,
    var: &str,
    from_name: fn(&str) -> Result<P, String>,
) -> Result<Option<P>, ScaleError> {
    let Some(raw) = non_blank(lookup, var) else {
        return Ok(None);
    };
    from_name(raw.trim())
        .map(Some)
        .map_err(|reason| ScaleError {
            var: var.to_owned(),
            value: raw,
            reason,
        })
}

/// Reads the run configuration (see the crate docs) from `lookup`, the
/// environment in the CLI and an injectable source in tests, on top of
/// [`SweepParams::default`] (the paper's full-fidelity run).
///
/// Unset or blank variables keep their defaults. Garbage (`DDIO_TRIALS=x`)
/// and out-of-range values (`DDIO_TRIALS=0`, `DDIO_FILE_MB=0`) are rejected
/// here, at startup, rather than reaching an assertion deep in the
/// experiment harness.
pub fn params_from_lookup(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<SweepParams, ScaleError> {
    let lookup: Lookup = &lookup;
    let mut p = SweepParams::default();
    let base = &mut p.base;
    if let Some(v) = parse_knob(lookup, "DDIO_FILE_MB", 1)? {
        base.file_bytes = v << 20;
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
    if let Some(v) = parse_knob(lookup, "DDIO_CACHE_BUFS", 1)? {
        base.cache.buffers_per_disk_per_cp = v as usize;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_NET_TOPOLOGY", TopologyKind::from_name)? {
        base.fabric.topology = v;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_NET_CONTENTION", ContentionModel::from_name)? {
        base.fabric.contention = v;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_FAULT_POLICY", FaultPolicy::from_name)? {
        base.faults = v;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_FAULT_REDUNDANCY", RedundancyPolicy::from_name)? {
        base.redundancy = v;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_ARRIVAL_PROCESS", ArrivalProcess::from_name)? {
        base.serve.arrival = v;
    }
    if let Some(v) = parse_policy(lookup, "DDIO_ARRIVAL_QOS", QosPolicy::from_name)? {
        base.serve.qos = v;
    }
    if let Some(v) = parse_knob(lookup, "DDIO_ARRIVAL_TENANTS", 1)? {
        base.serve.tenants = v as usize;
    }
    if let Some(v) = parse_knob(lookup, "DDIO_ARRIVAL_REQUESTS", 1)? {
        base.serve.requests_per_tenant = v as usize;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_core::{NetConfig, ServeParams};

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
            ("DDIO_CACHE_BUFS", "4"),
        ])
        .unwrap();
        assert_eq!(p.base.file_bytes, 2 * 1024 * 1024);
        assert_eq!(p.trials, 3);
        assert!(!p.small_records);
        assert_eq!(p.seed, 42);
        assert_eq!(p.base.cache.buffers_per_disk_per_cp, 4);
    }

    #[test]
    fn net_knobs_select_the_fabric() {
        let p = parse(&[
            ("DDIO_NET_TOPOLOGY", "mesh"),
            ("DDIO_NET_CONTENTION", "link"),
        ])
        .unwrap();
        assert_eq!(p.base.fabric.topology, TopologyKind::Mesh);
        assert_eq!(p.base.fabric.contention, ContentionModel::Link);
        // Blank values keep the defaults; garbage is rejected at startup.
        let p = parse(&[("DDIO_NET_TOPOLOGY", " ")]).unwrap();
        assert_eq!(p.base.fabric, NetConfig::DEFAULT);
        let err = parse(&[("DDIO_NET_TOPOLOGY", "ring")]).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_TOPOLOGY");
        let err = parse(&[("DDIO_NET_CONTENTION", "flit")]).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_CONTENTION");
    }

    #[test]
    fn fault_knobs_select_the_composition() {
        let p = parse(&[
            ("DDIO_FAULT_POLICY", "transient"),
            ("DDIO_FAULT_REDUNDANCY", "mirror"),
        ])
        .unwrap();
        assert_eq!(p.base.faults, FaultPolicy::Transient);
        assert_eq!(p.base.redundancy, RedundancyPolicy::Mirrored);
        // Blank keeps the healthy defaults; garbage is rejected at startup.
        let p = parse(&[("DDIO_FAULT_POLICY", " ")]).unwrap();
        assert_eq!(p.base.faults, FaultPolicy::None);
        let err = parse(&[("DDIO_FAULT_POLICY", "meteor")]).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_POLICY");
        let err = parse(&[("DDIO_FAULT_REDUNDANCY", "raid9")]).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_REDUNDANCY");
    }

    #[test]
    fn arrival_knobs_select_the_serving_composition() {
        let p = parse(&[
            ("DDIO_ARRIVAL_PROCESS", "bursty"),
            ("DDIO_ARRIVAL_QOS", "fair-share"),
            ("DDIO_ARRIVAL_TENANTS", "8"),
            ("DDIO_ARRIVAL_REQUESTS", "32"),
        ])
        .unwrap();
        let serve = p.base.serve;
        assert_eq!(serve.arrival, ArrivalProcess::Bursty);
        assert_eq!(serve.qos, QosPolicy::FairShare);
        assert_eq!(serve.tenants, 8);
        assert_eq!(serve.requests_per_tenant, 32);
        // Blank keeps the closed-loop defaults; garbage is rejected.
        let p = parse(&[("DDIO_ARRIVAL_PROCESS", " ")]).unwrap();
        assert_eq!(p.base.serve, ServeParams::default());
        let err = parse(&[("DDIO_ARRIVAL_PROCESS", "sneaky")]).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_PROCESS");
        let err = parse(&[("DDIO_ARRIVAL_QOS", "anarchy")]).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_QOS");
        let err = parse(&[("DDIO_ARRIVAL_TENANTS", "0")]).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_TENANTS");
        let err = parse(&[("DDIO_ARRIVAL_REQUESTS", "0")]).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_REQUESTS");
    }

    #[test]
    fn zero_cache_bufs_is_rejected() {
        let err = parse(&[("DDIO_CACHE_BUFS", "0")]).unwrap_err();
        assert_eq!(err.var, "DDIO_CACHE_BUFS");
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
