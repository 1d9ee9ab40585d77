//! Property-based tests of the file layout: striping and physical placement
//! invariants hold for arbitrary machine shapes, file sizes, and seeds.

use proptest::prelude::*;

use ddio_core::{FileLayout, LayoutPolicy, MachineConfig};
use ddio_sim::SimRng;

fn arb_config() -> impl Strategy<Value = MachineConfig> {
    (
        1usize..=8,      // IOPs
        1usize..=4,      // disks per IOP
        1u64..=64,       // file size in blocks (possibly short last block)
        0u64..8192,      // extra bytes beyond whole blocks
        prop::bool::ANY, // layout policy
    )
        .prop_map(
            |(n_iops, per_iop, blocks, extra, contiguous)| MachineConfig {
                n_cps: 4,
                n_iops,
                n_disks: n_iops * per_iop,
                file_bytes: (blocks * 8192 + extra).max(1),
                layout: if contiguous {
                    LayoutPolicy::Contiguous
                } else {
                    LayoutPolicy::RandomBlocks
                },
                ..MachineConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Striping is round-robin, every block gets a distinct physical location
    /// on its disk, and all locations stay within the device.
    #[test]
    fn layout_invariants(config in arb_config(), seed in 0u64..10_000) {
        let layout = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        prop_assert_eq!(layout.n_blocks(), config.n_blocks());
        let device_sectors = config.disk.geometry.total_sectors();
        let mut per_disk_sectors: Vec<Vec<u64>> = vec![Vec::new(); config.n_disks];
        for block in 0..layout.n_blocks() {
            let loc = layout.location(block);
            prop_assert_eq!(loc.disk, (block % config.n_disks as u64) as usize);
            prop_assert!(loc.start_sector + layout.sectors_per_block() <= device_sectors);
            per_disk_sectors[loc.disk].push(loc.start_sector);
        }
        for (disk, sectors) in per_disk_sectors.iter().enumerate() {
            let mut sorted = sectors.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), sectors.len(), "disk {} reuses a physical block", disk);
        }
    }

    /// The contiguous policy places each disk's blocks consecutively, in file
    /// order.
    #[test]
    fn contiguous_blocks_are_consecutive(config in arb_config(), seed in 0u64..10_000) {
        let config = MachineConfig { layout: LayoutPolicy::Contiguous, ..config };
        let layout = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        for disk in 0..config.n_disks {
            let blocks = layout.blocks_on_disk(disk);
            for pair in blocks.windows(2) {
                prop_assert!(pair[1].0 > pair[0].0, "file order preserved");
                prop_assert_eq!(pair[1].1, pair[0].1 + layout.sectors_per_block());
            }
        }
    }

    /// `blocks_on_disk` walks the disk's stripe positions; a scan of every
    /// block's location, keeping those on the disk, must give the same list.
    #[test]
    fn blocks_on_disk_matches_a_full_scan(config in arb_config(), seed in 0u64..10_000) {
        let layout = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        for disk in 0..config.n_disks {
            let scan: Vec<(u64, u64)> = (0..layout.n_blocks())
                .map(|block| (block, layout.location(block)))
                .filter(|(_, loc)| loc.disk == disk)
                .map(|(block, loc)| (block, loc.start_sector))
                .collect();
            prop_assert_eq!(layout.blocks_on_disk(disk), scan, "disk {}", disk);
        }
    }

    /// Block byte ranges tile the file exactly.
    #[test]
    fn block_ranges_tile_the_file(config in arb_config(), seed in 0u64..10_000) {
        let layout = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        let mut covered = 0u64;
        for block in 0..layout.n_blocks() {
            let (s, e) = layout.block_byte_range(block);
            prop_assert_eq!(s, covered);
            prop_assert!(e > s);
            prop_assert!(e - s <= layout.block_bytes());
            covered = e;
        }
        prop_assert_eq!(covered, config.file_bytes);
    }

    /// The same seed reproduces the same layout.
    #[test]
    fn layouts_are_deterministic(config in arb_config(), seed in 0u64..10_000) {
        let a = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        let b = FileLayout::generate(&config, &SimRng::seed_from_u64(seed));
        for block in 0..a.n_blocks() {
            prop_assert_eq!(a.location(block), b.location(block));
        }
    }
}
