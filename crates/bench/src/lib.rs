//! `ddio-bench`: the unified benchmark harness.
//!
//! The [`ddio-bench` CLI](crate::cli) binary runs any registered scenario —
//! Table 1, Figures 3–8, and the newer sweeps — in parallel across all
//! cores (`ddio-bench run all --jobs N`) and emits text tables, JSON, or
//! CSV; `ddio-bench run fig5` prints one exhibit. The Criterion
//! micro-benchmarks of the simulator, disk model, and pattern generator
//! live in `benches/`.
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
//! Zero or unparseable values are rejected at startup with a clear error
//! (see [`Scale::from_lookup`]) instead of panicking mid-run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod report;

use std::fmt;

use ddio_core::experiment::scenario::SweepParams;
use ddio_core::{
    ArrivalProcess, ContentionModel, FaultPolicy, MachineConfig, NetConfig, QosPolicy,
    RedundancyPolicy, ServeParams, TopologyKind,
};

/// Scaling knobs of a `ddio-bench run`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// File size in MiB.
    pub file_mib: u64,
    /// Independent trials per data point.
    pub trials: usize,
    /// Whether to run the 8-byte-record half of Figures 3 and 4.
    pub small_records: bool,
    /// Base random seed.
    pub seed: u64,
    /// Traditional-caching cache buffers per disk per CP (the paper's
    /// double-buffering default is 2).
    pub cache_bufs: usize,
    /// Interconnect topology every scenario's machine runs on (the paper's
    /// torus by default; the `net-sweep` scenario sweeps its own).
    pub topology: TopologyKind,
    /// Fabric contention model (NI-only by default).
    pub contention: ContentionModel,
    /// Machine-wide fault-injection policy (healthy by default; the
    /// `fault-sweep` scenario sweeps its own).
    pub faults: FaultPolicy,
    /// Machine-wide redundant block placement (none by default).
    pub redundancy: RedundancyPolicy,
    /// Machine-wide arrival process (the paper's closed loop by default;
    /// the `serve-sweep` scenario sweeps its own).
    pub arrival: ArrivalProcess,
    /// Machine-wide serving admission policy (FIFO by default).
    pub qos: QosPolicy,
    /// Independent open-loop tenants.
    pub tenants: usize,
    /// Open-loop requests per tenant.
    pub requests_per_tenant: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            file_mib: 10,
            trials: 5,
            small_records: true,
            seed: 1994,
            cache_bufs: 2,
            topology: TopologyKind::Torus,
            contention: ContentionModel::NiOnly,
            faults: FaultPolicy::None,
            redundancy: RedundancyPolicy::None,
            arrival: ArrivalProcess::ClosedLoop,
            qos: QosPolicy::Fifo,
            tenants: ServeParams::default().tenants,
            requests_per_tenant: ServeParams::default().requests_per_tenant,
        }
    }
}

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

/// Parses one knob: unset or blank keeps the default; anything else must be
/// a non-negative integer, optionally bounded below by `min`.
fn parse_knob(var: &str, raw: Option<String>, min: u64, slot: &mut u64) -> Result<(), ScaleError> {
    let Some(raw) = raw else { return Ok(()) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(());
    }
    let parsed: u64 = trimmed.parse().map_err(|_| ScaleError {
        var: var.to_owned(),
        value: raw.clone(),
        reason: "expected an unsigned integer".to_owned(),
    })?;
    if parsed < min {
        return Err(ScaleError {
            var: var.to_owned(),
            value: raw,
            reason: if min == 1 {
                "must be at least 1"
            } else {
                "value too small"
            }
            .to_owned(),
        });
    }
    *slot = parsed;
    Ok(())
}

/// Parses one policy knob: unset or blank keeps the default; anything else
/// must be one of the policy's names, and the error lists them.
fn parse_policy<P>(
    var: &str,
    raw: Option<String>,
    from_name: fn(&str) -> Result<P, String>,
    slot: &mut P,
) -> Result<(), ScaleError> {
    let Some(raw) = raw.filter(|v| !v.trim().is_empty()) else {
        return Ok(());
    };
    *slot = from_name(raw.trim()).map_err(|reason| ScaleError {
        var: var.to_owned(),
        value: raw.clone(),
        reason,
    })?;
    Ok(())
}

impl Scale {
    /// Reads the scaling knobs (see the crate docs) from `lookup`, the
    /// environment in the CLI and an injectable source in tests.
    ///
    /// Unset or blank variables keep their defaults. Garbage (`DDIO_TRIALS=x`)
    /// and out-of-range values (`DDIO_TRIALS=0`, `DDIO_FILE_MB=0`) are
    /// rejected here, at startup, rather than reaching an assertion deep in
    /// the experiment harness.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Scale, ScaleError> {
        let mut s = Scale::default();
        parse_knob("DDIO_FILE_MB", lookup("DDIO_FILE_MB"), 1, &mut s.file_mib)?;
        let mut trials = s.trials as u64;
        parse_knob("DDIO_TRIALS", lookup("DDIO_TRIALS"), 1, &mut trials)?;
        s.trials = trials as usize;
        let mut small = u64::from(s.small_records);
        parse_knob(
            "DDIO_SMALL_RECORDS",
            lookup("DDIO_SMALL_RECORDS"),
            0,
            &mut small,
        )?;
        s.small_records = small != 0;
        parse_knob("DDIO_SEED", lookup("DDIO_SEED"), 0, &mut s.seed)?;
        let mut cache_bufs = s.cache_bufs as u64;
        parse_knob(
            "DDIO_CACHE_BUFS",
            lookup("DDIO_CACHE_BUFS"),
            1,
            &mut cache_bufs,
        )?;
        s.cache_bufs = cache_bufs as usize;
        parse_policy(
            "DDIO_NET_TOPOLOGY",
            lookup("DDIO_NET_TOPOLOGY"),
            TopologyKind::from_name,
            &mut s.topology,
        )?;
        parse_policy(
            "DDIO_NET_CONTENTION",
            lookup("DDIO_NET_CONTENTION"),
            ContentionModel::from_name,
            &mut s.contention,
        )?;
        parse_policy(
            "DDIO_FAULT_POLICY",
            lookup("DDIO_FAULT_POLICY"),
            FaultPolicy::from_name,
            &mut s.faults,
        )?;
        parse_policy(
            "DDIO_FAULT_REDUNDANCY",
            lookup("DDIO_FAULT_REDUNDANCY"),
            RedundancyPolicy::from_name,
            &mut s.redundancy,
        )?;
        parse_policy(
            "DDIO_ARRIVAL_PROCESS",
            lookup("DDIO_ARRIVAL_PROCESS"),
            ArrivalProcess::from_name,
            &mut s.arrival,
        )?;
        parse_policy(
            "DDIO_ARRIVAL_QOS",
            lookup("DDIO_ARRIVAL_QOS"),
            QosPolicy::from_name,
            &mut s.qos,
        )?;
        let mut tenants = s.tenants as u64;
        parse_knob(
            "DDIO_ARRIVAL_TENANTS",
            lookup("DDIO_ARRIVAL_TENANTS"),
            1,
            &mut tenants,
        )?;
        s.tenants = tenants as usize;
        let mut requests = s.requests_per_tenant as u64;
        parse_knob(
            "DDIO_ARRIVAL_REQUESTS",
            lookup("DDIO_ARRIVAL_REQUESTS"),
            1,
            &mut requests,
        )?;
        s.requests_per_tenant = requests as usize;
        Ok(s)
    }

    /// The Table 1 machine with this scale's file size, cache sizing, and
    /// interconnect fabric.
    pub fn base_config(&self) -> MachineConfig {
        MachineConfig {
            file_bytes: self.file_mib * 1024 * 1024,
            cache: ddio_core::CacheParams {
                buffers_per_disk_per_cp: self.cache_bufs,
                ..ddio_core::CacheParams::default()
            },
            fabric: NetConfig {
                topology: self.topology,
                contention: self.contention,
            },
            faults: self.faults,
            redundancy: self.redundancy,
            serve: ServeParams {
                arrival: self.arrival,
                qos: self.qos,
                tenants: self.tenants,
                requests_per_tenant: self.requests_per_tenant,
                ..ServeParams::default()
            },
            ..MachineConfig::default()
        }
    }

    /// The sweep parameters handed to every scenario builder.
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            base: self.base_config(),
            trials: self.trials,
            seed: self.seed,
            small_records: self.small_records,
        }
    }

    /// A one-line description printed at the top of every table
    /// (delegates to [`SweepParams::describe`], the single source of the
    /// wording).
    pub fn describe(&self) -> String {
        self.sweep_params().describe()
    }
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

    #[test]
    fn default_scale_matches_the_paper() {
        let s = Scale::default();
        assert_eq!(s.file_mib, 10);
        assert_eq!(s.trials, 5);
        assert!(s.small_records);
        assert_eq!(s.base_config().file_bytes, 10 * 1024 * 1024);
        assert!(s.describe().contains("10 MiB"));
        let p = s.sweep_params();
        assert_eq!(p.trials, 5);
        assert_eq!(p.seed, 1994);
    }

    #[test]
    fn env_overrides_apply() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_FILE_MB", "2"),
            ("DDIO_TRIALS", "3"),
            ("DDIO_SMALL_RECORDS", "0"),
            ("DDIO_SEED", "42"),
            ("DDIO_CACHE_BUFS", "4"),
        ]))
        .unwrap();
        assert_eq!(s.file_mib, 2);
        assert_eq!(s.trials, 3);
        assert!(!s.small_records);
        assert_eq!(s.seed, 42);
        assert_eq!(s.cache_bufs, 4);
        assert_eq!(s.base_config().cache.buffers_per_disk_per_cp, 4);
    }

    #[test]
    fn net_knobs_select_the_fabric() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_NET_TOPOLOGY", "mesh"),
            ("DDIO_NET_CONTENTION", "link"),
        ]))
        .unwrap();
        assert_eq!(s.topology, TopologyKind::Mesh);
        assert_eq!(s.contention, ContentionModel::Link);
        let fabric = s.base_config().fabric;
        assert_eq!(fabric.topology, TopologyKind::Mesh);
        assert_eq!(fabric.contention, ContentionModel::Link);
        // Blank values keep the defaults; garbage is rejected at startup.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_NET_TOPOLOGY", " ")])).unwrap();
        assert_eq!(s.topology, TopologyKind::Torus);
        assert_eq!(s.base_config().fabric, NetConfig::DEFAULT);
        let err = Scale::from_lookup(lookup_of(&[("DDIO_NET_TOPOLOGY", "ring")])).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_TOPOLOGY");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_NET_CONTENTION", "flit")])).unwrap_err();
        assert_eq!(err.var, "DDIO_NET_CONTENTION");
    }

    #[test]
    fn fault_knobs_select_the_composition() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_FAULT_POLICY", "transient"),
            ("DDIO_FAULT_REDUNDANCY", "mirror"),
        ]))
        .unwrap();
        assert_eq!(s.faults, FaultPolicy::Transient);
        assert_eq!(s.redundancy, RedundancyPolicy::Mirrored);
        let config = s.base_config();
        assert_eq!(config.faults, FaultPolicy::Transient);
        assert_eq!(config.redundancy, RedundancyPolicy::Mirrored);
        // Blank keeps the healthy defaults; garbage is rejected at startup.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_POLICY", " ")])).unwrap();
        assert_eq!(s.faults, FaultPolicy::None);
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_POLICY", "meteor")])).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_POLICY");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FAULT_REDUNDANCY", "raid9")])).unwrap_err();
        assert_eq!(err.var, "DDIO_FAULT_REDUNDANCY");
    }

    #[test]
    fn arrival_knobs_select_the_serving_composition() {
        let s = Scale::from_lookup(lookup_of(&[
            ("DDIO_ARRIVAL_PROCESS", "bursty"),
            ("DDIO_ARRIVAL_QOS", "fair-share"),
            ("DDIO_ARRIVAL_TENANTS", "8"),
            ("DDIO_ARRIVAL_REQUESTS", "32"),
        ]))
        .unwrap();
        assert_eq!(s.arrival, ArrivalProcess::Bursty);
        assert_eq!(s.qos, QosPolicy::FairShare);
        assert_eq!(s.tenants, 8);
        assert_eq!(s.requests_per_tenant, 32);
        let serve = s.base_config().serve;
        assert_eq!(serve.arrival, ArrivalProcess::Bursty);
        assert_eq!(serve.qos, QosPolicy::FairShare);
        assert_eq!(serve.tenants, 8);
        assert_eq!(serve.requests_per_tenant, 32);
        // Blank keeps the closed-loop defaults; garbage is rejected.
        let s = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_PROCESS", " ")])).unwrap();
        assert_eq!(s.arrival, ArrivalProcess::ClosedLoop);
        assert_eq!(s.base_config().serve, ServeParams::default());
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_PROCESS", "sneaky")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_PROCESS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_QOS", "anarchy")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_QOS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_TENANTS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_TENANTS");
        let err = Scale::from_lookup(lookup_of(&[("DDIO_ARRIVAL_REQUESTS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_ARRIVAL_REQUESTS");
    }

    #[test]
    fn zero_cache_bufs_is_rejected() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_CACHE_BUFS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_CACHE_BUFS");
    }

    #[test]
    fn blank_values_keep_defaults() {
        let s = Scale::from_lookup(lookup_of(&[("DDIO_TRIALS", "  ")])).unwrap();
        assert_eq!(s.trials, 5);
    }

    #[test]
    fn zero_trials_is_rejected_at_startup() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_TRIALS", "0")])).unwrap_err();
        assert_eq!(err.var, "DDIO_TRIALS");
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn zero_file_size_is_rejected() {
        let err = Scale::from_lookup(lookup_of(&[("DDIO_FILE_MB", "0")])).unwrap_err();
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
            let err = Scale::from_lookup(lookup_of(&[(var, value)])).unwrap_err();
            assert_eq!(err.var, var, "{value} accepted for {var}");
            assert!(err.to_string().contains("unsigned integer"));
        }
    }

    #[test]
    fn seed_zero_is_a_valid_seed() {
        let s = Scale::from_lookup(lookup_of(&[("DDIO_SEED", "0")])).unwrap();
        assert_eq!(s.seed, 0);
    }
}
