//! A miniature sensitivity study in the style of Figures 7 and 8: scale the
//! number of disks behind a single IOP and watch the bus become the
//! bottleneck on the contiguous layout but not on the random layout.
//!
//! Run with: `cargo run --release --example sensitivity_sweep`

use disk_directed_io::core::experiment::run_data_point;
use disk_directed_io::{AccessPattern, LayoutPolicy, MachineConfig, Method};

fn main() {
    let rb = AccessPattern::parse("rb").expect("known pattern");
    for layout in [LayoutPolicy::Contiguous, LayoutPolicy::RandomBlocks] {
        println!(
            "Layout: {} (single IOP, single 10 MB/s bus), DDIO with presort, pattern rb",
            layout.short_name()
        );
        println!("{:<8}{:>14}{:>14}", "disks", "rb MiB/s", "hw limit");
        for n_disks in [1usize, 2, 4, 8] {
            let config = MachineConfig {
                n_iops: 1,
                n_disks,
                file_bytes: 2 * 1024 * 1024,
                layout,
                ..MachineConfig::default()
            };
            let point = run_data_point(&config, Method::DDIO_SORTED, rb, 8192, 2, 7);
            println!(
                "{n_disks:<8}{:>14.2}{:>14.1}",
                point.mean(),
                config.hardware_limit() / (1024.0 * 1024.0)
            );
        }
        println!();
    }
    println!("On the contiguous layout the disks saturate the bus quickly; on the");
    println!("random layout each disk is so much slower that the bus never limits.");
}
