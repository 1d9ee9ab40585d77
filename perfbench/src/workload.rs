//! The two workloads, each a fixed list of transfers whose seeds derive
//! from the benchmark's `--seed`. The list's shape never depends on the
//! seed: a seed only moves block placement and arrival times, so runs at
//! different seeds do the same amount of work. Every workload has over a
//! hundred distinct transfers, so its p90 transfer time has at least ten
//! transfers beyond it.
//!
//! `paper-grid` is three grids on the paper's 16-node machine, each loading
//! one layer: `tc-cache` (the IOP cache and the request/reply path),
//! `ddio-sched` (the drive model and its schedulers, no cache) and
//! `serve-open-loop` (arrivals, admission and the latency histogram). A
//! transfer's `scenario` names its grid. `large-machine` loads what grows
//! with node count.

use ddio_core::experiment::scenario::{cache_sweep_compositions, derive_seed, Axis, Cell};
use ddio_core::{
    AccessPattern, ArrivalProcess, CacheParams, MachineConfig, Method, QosPolicy, SchedPolicy,
    ServeParams,
};

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 2] = ["paper-grid", "large-machine"];

/// The grids of `paper-grid`, by scenario name.
pub const PAPER_GRIDS: [&str; 3] = ["tc-cache", "ddio-sched", "serve-open-loop"];

/// Requests each tenant sends in `serve-open-loop`.
pub const SERVE_REQUESTS_PER_TENANT: usize = 512;

/// One grid point of a workload, run at `replicas` seeds.
struct Point {
    replicas: u64,
    config: MachineConfig,
    method: Method,
    pattern: AccessPattern,
    axes: Vec<Axis>,
}

/// Builds workload `name`'s transfers at `seed`, or `None` for an unknown
/// name.
pub fn build(name: &str, seed: u64) -> Option<Vec<Cell>> {
    let grids: &[&'static str] = match name {
        "paper-grid" => &PAPER_GRIDS,
        "large-machine" => &["large-machine"],
        _ => return None,
    };
    let mut cells = Vec::new();
    for &scenario in grids {
        let points = match scenario {
            "tc-cache" => tc_cache(),
            "ddio-sched" => ddio_sched(),
            "serve-open-loop" => serve_open_loop(),
            _ => large_machine(),
        };
        grid_cells(&mut cells, scenario, points, seed);
    }
    Some(cells)
}

/// Appends a grid's transfers, `replicas` per point.
fn grid_cells(cells: &mut Vec<Cell>, scenario: &'static str, points: Vec<Point>, seed: u64) {
    for p in points {
        let mut tags = vec![scenario.to_owned(), p.pattern.name(), p.method.label()];
        tags.extend(p.axes.iter().map(|a| a.value.to_string()));
        let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
        // A served request reads one block; collective transfers use the
        // paper's 8 KB records.
        let record_bytes = if p.config.serve.is_open_loop() {
            p.config.block_bytes
        } else {
            8192
        };
        for replica in 0..p.replicas {
            cells.push(Cell {
                scenario,
                config: p.config.clone(),
                method: p.method,
                pattern: p.pattern,
                record_bytes,
                axes: p.axes.clone(),
                seed: derive_seed(seed, &tags, &[replica]),
            });
        }
    }
}

fn pattern(name: &str) -> AccessPattern {
    AccessPattern::parse(name).expect("a paper pattern")
}

/// TC under every cache-sweep composition at 1 and 8 buffers per disk per
/// CP, on the fig5-style reads plus a collective write: 70 transfers.
fn tc_cache() -> Vec<Point> {
    let mut points = Vec::new();
    for p in ["ra", "rn", "rb", "rc", "wb"] {
        for bufs in [1usize, 8] {
            for comp in cache_sweep_compositions() {
                points.push(Point {
                    replicas: 1,
                    config: MachineConfig {
                        cache: CacheParams {
                            buffers_per_disk_per_cp: bufs,
                            ..CacheParams::default()
                        },
                        ..MachineConfig::default()
                    },
                    method: Method::TC.with_cache(comp),
                    pattern: pattern(p),
                    axes: vec![Axis::new("bufs", bufs as u64)],
                });
            }
        }
    }
    points
}

/// DDIO under each drive scheduler with 8 buffers per disk, over all 19
/// paper patterns: 76 transfers.
fn ddio_sched() -> Vec<Point> {
    let mut points = Vec::new();
    for sched in [
        SchedPolicy::Fcfs,
        SchedPolicy::Sstf,
        SchedPolicy::Cscan,
        SchedPolicy::Presort,
    ] {
        for p in AccessPattern::paper_all_patterns() {
            points.push(Point {
                replicas: 1,
                config: MachineConfig {
                    ddio_buffers_per_disk: 8,
                    ..MachineConfig::default()
                },
                method: Method::DiskDirected(sched),
                pattern: p,
                axes: Vec::new(),
            });
        }
    }
    points
}

/// TC and DDIO(sort) at 256 CPs/IOPs/disks on a 16 MiB file and at 512 on
/// a 32 MiB file: 102 transfers. The cheaper 256-node points run at more
/// seeds. Larger machines are left out: at 1024 nodes one worker's memory
/// peaks near 200 MB and its run-to-run spread was the widest measured.
fn large_machine() -> Vec<Point> {
    let mut points = Vec::new();
    for (nodes, file_mib, replicas) in [(256usize, 16u64, 12), (512, 32, 5)] {
        for p in ["rb", "rn", "wb"] {
            for method in [Method::TC, Method::DDIO_SORTED] {
                points.push(Point {
                    replicas,
                    config: MachineConfig {
                        n_cps: nodes,
                        n_iops: nodes,
                        n_disks: nodes,
                        file_bytes: file_mib << 20,
                        ..MachineConfig::default()
                    },
                    method,
                    pattern: pattern(p),
                    axes: vec![Axis::new("nodes", nodes as u64)],
                });
            }
        }
    }
    points
}

/// Poisson and bursty tenants under each QoS policy at three offered loads,
/// served by TC and DDIO(sort): 48 transfers of 4 x 512 requests.
fn serve_open_loop() -> Vec<Point> {
    let mut points = Vec::new();
    for method in [Method::TC, Method::DDIO_SORTED] {
        for arrival in [ArrivalProcess::Poisson, ArrivalProcess::Bursty] {
            for qos in QosPolicy::ALL {
                for load_permille in [500u64, 1000, 1500] {
                    points.push(Point {
                        replicas: 1,
                        config: MachineConfig {
                            serve: ServeParams {
                                arrival,
                                qos,
                                tenants: 4,
                                requests_per_tenant: SERVE_REQUESTS_PER_TENANT,
                                offered_load: load_permille as f64 / 1000.0,
                            },
                            ..MachineConfig::default()
                        },
                        method,
                        pattern: pattern("rb"),
                        axes: vec![
                            Axis::new("arrival", arrival.name()),
                            Axis::new("qos", qos.name()),
                            Axis::new("load", load_permille),
                        ],
                    });
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        for name in NAMES {
            let a = build(name, 1).unwrap();
            let b = build(name, 2).unwrap();
            assert_eq!(a.len(), b.len(), "{name}");
            assert!(a.len() >= 100, "{name} has {} transfers", a.len());
            assert!(a.iter().zip(&b).all(|(x, y)| x.method == y.method
                && x.pattern == y.pattern
                && x.config == y.config));
            assert!(a.iter().zip(&b).any(|(x, y)| x.seed != y.seed), "{name}");
        }
        assert!(build("no-such-workload", 1).is_none());
    }

    #[test]
    fn transfer_seeds_are_distinct_within_a_workload() {
        for name in NAMES {
            let cells = build(name, 7).unwrap();
            let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), cells.len(), "{name}");
        }
    }
}
