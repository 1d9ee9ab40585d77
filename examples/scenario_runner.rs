//! Drive the scenario registry directly: run one registered scenario in
//! parallel and print its report, then build a custom ad-hoc cell list and
//! run it through the same pool.
//!
//! Run with: `cargo run --release --example scenario_runner`

use disk_directed_io::core::experiment::scenario::{
    find, render, run_cells, run_scenario, Axis, Cell, SweepParams,
};
use disk_directed_io::{AccessPattern, LayoutPolicy, MachineConfig, Method};

fn main() {
    // A reduced scale so the example finishes in seconds.
    let params = SweepParams {
        base: MachineConfig {
            file_bytes: 2 * 1024 * 1024,
            ..MachineConfig::default()
        },
        trials: 2,
        seed: 7,
        small_records: false,
    };

    // 1. Any registered scenario, parallel across all cores. The numbers
    //    are bit-identical to a serial run, whatever the jobs count.
    let scenario = find("mixed-rw").expect("registered scenario");
    let results = run_scenario(&scenario, &params, 4);
    print!("{}", render(&scenario, &params, &results));
    println!();

    // 2. The same machinery runs ad-hoc cells: here, one custom comparison
    //    of both layouts under the cyclic read at two record sizes.
    let mut cells = Vec::new();
    for layout in [LayoutPolicy::Contiguous, LayoutPolicy::RandomBlocks] {
        for record_bytes in [4096u64, 32768] {
            cells.push(Cell {
                scenario: "adhoc",
                config: MachineConfig {
                    layout,
                    ..params.base.clone()
                },
                method: Method::DDIO_SORTED,
                pattern: AccessPattern::parse("rc").expect("known pattern"),
                record_bytes,
                axes: vec![Axis::new("record", record_bytes)],
                seed: params.seed,
            });
        }
    }
    println!("Ad-hoc: DDIO(sort) on rc, both layouts, two record sizes");
    println!("{:<10}{:>10}{:>12}", "layout", "record", "MiB/s");
    for r in run_cells(cells, params.trials, 4) {
        println!(
            "{:<10}{:>10}{:>12.2}",
            r.point.layout.short_name(),
            r.point.record_bytes,
            r.point.mean()
        );
    }
}
