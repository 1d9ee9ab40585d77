//! Drive the interconnect-fabric sweep programmatically: run the registered
//! `net-sweep` scenario in parallel, then pivot its cells into one
//! topology × contention matrix per method for the paper's headline
//! pattern, and finish with a custom ad-hoc grid comparing fabrics at
//! a larger CP count — the same registry machinery `ddio-bench` uses.
//!
//! Run with: `cargo run --release --example net_sweep`

use disk_directed_io::core::experiment::scenario::{
    find, run_cells, run_scenario, Axis, CellResult, Grid, SweepParams,
};
use disk_directed_io::{
    ContentionModel, LayoutPolicy, MachineConfig, Method, NetConfig, TopologyKind,
};

fn mean_of(results: &[CellResult], pattern: &str, label: &str, fabric: NetConfig) -> Option<f64> {
    results
        .iter()
        .find(|r| {
            r.point.pattern == pattern
                && r.point.method.label() == label
                && r.point.last_outcome.fabric == fabric
        })
        .map(|r| r.point.mean())
}

fn main() {
    // A reduced scale so the example finishes in seconds.
    let params = SweepParams {
        base: MachineConfig {
            file_bytes: 1024 * 1024,
            ..MachineConfig::default()
        },
        trials: 1,
        seed: 1994,
        small_records: false,
    };

    // 1. The registered scenario, parallel across four workers; numbers are
    //    bit-identical at any jobs count.
    let scenario = find("net-sweep").expect("registered scenario");
    let results = run_scenario(&scenario, &params, 4);

    // 2. Pivot the flat cells into a fabric matrix for the paper's headline
    //    pattern: does DDIO's rb advantage survive each fabric?
    for method in ["TC", "DDIO(sort)"] {
        println!("{method} on rb (MiB/s) by fabric:");
        print!("{:<12}", "");
        for contention in ContentionModel::ALL {
            print!("{:>12}", contention.name());
        }
        println!();
        for topology in TopologyKind::ALL {
            print!("{:<12}", topology.name());
            for contention in ContentionModel::ALL {
                let fabric = NetConfig {
                    topology,
                    contention,
                };
                match mean_of(&results, "rb", method, fabric) {
                    Some(mibs) => print!("{mibs:>12.2}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
        println!();
    }

    // 3. An ad-hoc grid through the same pool: the link-contended torus vs
    //    the ideal crossbar as CPs multiply, where fabric pressure grows.
    let cells = Grid::new("adhoc-net", &params, |c| {
        c.layout = LayoutPolicy::Contiguous;
        c.fabric.contention = ContentionModel::Link;
    })
    .cross(
        [TopologyKind::Torus, TopologyKind::Crossbar],
        |c, topology| {
            c.config.fabric.topology = topology;
            c.axes.push(Axis::new("topology", topology.name()));
        },
    )
    .cross([4usize, 16], |c, n_cps| {
        c.config.n_cps = n_cps;
        c.axes.push(Axis::new("cps", n_cps as u64));
    })
    .methods([Method::DDIO_SORTED])
    .run_seed();
    println!("Ad-hoc: DDIO(sort) on rb under link contention");
    println!(
        "{:<12}{:>6}{:>12}{:>16}",
        "topology", "cps", "MiB/s", "link busy (ms)"
    );
    for r in run_cells(cells, params.trials, 4) {
        let outcome = &r.point.last_outcome;
        let cps = r
            .axes
            .iter()
            .find(|a| a.name == "cps")
            .and_then(|a| a.value.as_u64())
            .expect("numeric cps axis");
        println!(
            "{:<12}{:>6}{:>12.2}{:>16.2}",
            outcome.fabric.topology.name(),
            cps,
            r.point.mean(),
            outcome.link_busy_total_secs() * 1e3,
        );
    }
}
