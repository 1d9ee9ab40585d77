//! File striping and on-disk placement.
//!
//! "Files were striped across all disks, block by block" (§4): file block `b`
//! lives on disk `b mod n_disks`. Within each disk the file's blocks are
//! placed either contiguously or at random physical block positions (§5).
//!
//! When the machine runs a [`RedundancyPolicy`] other than `none`, the
//! layout additionally places spare copies: a mirror copy of every block on
//! the primary disk's partner (`mirror`), or one parity block per group of
//! `n_disks - 1` consecutive file blocks (`parity`), stored on the one disk
//! the group's round-robin striping skips — so the parity disk rotates and
//! never holds data of its own group. Redundant copies are placed at random
//! free physical blocks, drawn from RNG streams independent of the primary
//! streams, so enabling redundancy never moves a primary block.

use std::collections::HashSet;

use ddio_sim::SimRng;

use crate::config::{LayoutPolicy, MachineConfig};
use crate::fault::RedundancyPolicy;

/// Stream tag for disk `d`'s mirror-copy positions (clear of the primary
/// streams, which use the disk index itself).
const MIRROR_STREAM: u64 = 0x4D00;
/// Stream tag for disk `d`'s parity-block positions.
const PARITY_STREAM: u64 = 0x9A00;

/// Physical location of one file block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// The global disk index holding the block.
    pub disk: usize,
    /// The first sector of the block on that disk.
    pub start_sector: u64,
}

/// The mapping from file blocks to physical disk blocks for one file.
#[derive(Debug, Clone)]
pub struct FileLayout {
    block_bytes: u64,
    file_bytes: u64,
    n_disks: usize,
    sectors_per_block: u64,
    /// Indexed by file block number.
    locations: Vec<BlockLocation>,
    redundancy: RedundancyPolicy,
    /// Mirror copies, indexed by file block number (`mirror` only).
    mirrors: Vec<BlockLocation>,
    /// Parity blocks, indexed by parity group (`parity` only).
    parity: Vec<BlockLocation>,
}

impl FileLayout {
    /// Builds the layout for `config`, drawing physical positions from `rng`
    /// (each disk gets an independent stream so varying the disk count does
    /// not reshuffle the others).
    pub fn generate(config: &MachineConfig, rng: &SimRng) -> FileLayout {
        config.validate();
        let n_blocks = config.n_blocks();
        let n_disks = config.n_disks;
        let sectors_per_block = config.sectors_per_block() as u64;
        let disk_blocks = config.disk.geometry.capacity_bytes() / config.block_bytes;
        let n = n_disks as u64;

        // How many of the file's blocks land on each disk under round-robin
        // striping.
        let per_disk = |disk: usize| (n_blocks + n - 1 - disk as u64) / n;

        // Choose the physical block positions for each disk.
        let mut per_disk_positions: Vec<Vec<u64>> = Vec::with_capacity(n_disks);
        for disk in 0..n_disks {
            let count = per_disk(disk);
            let disk_rng = rng.derive(disk as u64);
            let positions = match config.layout {
                LayoutPolicy::Contiguous => {
                    let max_start = disk_blocks - count;
                    let start = if max_start == 0 {
                        0
                    } else {
                        disk_rng.gen_range(max_start)
                    };
                    (0..count).map(|i| start + i).collect()
                }
                LayoutPolicy::RandomBlocks => {
                    let mut chosen = HashSet::with_capacity(count as usize);
                    let mut positions = Vec::with_capacity(count as usize);
                    while positions.len() < count as usize {
                        let p = disk_rng.gen_range(disk_blocks);
                        if chosen.insert(p) {
                            positions.push(p);
                        }
                    }
                    positions
                }
            };
            per_disk_positions.push(positions);
        }

        // Assign positions to file blocks in stripe order: block `b` takes
        // position `b / n_disks` of disk `b % n_disks`.
        let locations: Vec<BlockLocation> = (0..n_blocks)
            .map(|block| {
                let disk = (block % n) as usize;
                let physical_block = per_disk_positions[disk][(block / n) as usize];
                BlockLocation {
                    disk,
                    start_sector: physical_block * sectors_per_block,
                }
            })
            .collect();

        // Place the redundant copies, if any: one on each disk `copy_disks`
        // names, in order, at a block position drawn from that disk's own
        // stream and free of every primary and earlier copy. The streams are
        // disjoint from the primary streams (`derive` is a pure function of
        // the root seed), so the primary placement above is bit-identical
        // whether or not redundancy is enabled.
        let place_copies = |stream: u64, copy_disks: &mut dyn Iterator<Item = usize>| {
            let streams: Vec<SimRng> = (0..n_disks)
                .map(|d| rng.derive(stream + d as u64))
                .collect();
            let mut occupied = vec![HashSet::new(); n_disks];
            for loc in &locations {
                occupied[loc.disk].insert(loc.start_sector / sectors_per_block);
            }
            copy_disks
                .map(|disk| loop {
                    let p = streams[disk].gen_range(disk_blocks);
                    if occupied[disk].insert(p) {
                        break BlockLocation {
                            disk,
                            start_sector: p * sectors_per_block,
                        };
                    }
                })
                .collect::<Vec<_>>()
        };
        let (mirrors, parity) = match config.redundancy {
            RedundancyPolicy::None => (Vec::new(), Vec::new()),
            RedundancyPolicy::Mirrored => {
                let mut mirror_disks = locations.iter().map(|loc| loc.disk ^ 1);
                (place_copies(MIRROR_STREAM, &mut mirror_disks), Vec::new())
            }
            RedundancyPolicy::Parity => {
                let mut parity_disks = (0..Self::parity_groups(n_blocks, n_disks))
                    .map(|group| Self::parity_disk(group, n_disks));
                (Vec::new(), place_copies(PARITY_STREAM, &mut parity_disks))
            }
        };

        FileLayout {
            block_bytes: config.block_bytes,
            file_bytes: config.file_bytes,
            n_disks,
            sectors_per_block,
            locations,
            redundancy: config.redundancy,
            mirrors,
            parity,
        }
    }

    /// Blocks per parity group: the longest run of consecutive file blocks
    /// guaranteed to land on distinct disks while leaving one disk free for
    /// the parity block (one with two disks, where parity degenerates to
    /// mirroring).
    fn group_span(n_disks: usize) -> u64 {
        (n_disks as u64 - 1).max(1)
    }

    /// Number of parity groups covering `n_blocks` file blocks.
    fn parity_groups(n_blocks: u64, n_disks: usize) -> u64 {
        n_blocks.div_ceil(Self::group_span(n_disks))
    }

    /// The disk holding `group`'s parity block: the one disk the group's
    /// `n_disks - 1` consecutive blocks skip under round-robin striping, so
    /// it rotates across groups and never holds data of its own group.
    fn parity_disk(group: u64, n_disks: usize) -> usize {
        let n = n_disks as u64;
        let first = (group * Self::group_span(n_disks)) % n;
        ((first + n - 1) % n) as usize
    }

    /// File-system block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// File size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Number of blocks in the file.
    pub fn n_blocks(&self) -> u64 {
        self.locations.len() as u64
    }

    /// Sectors per file-system block.
    pub fn sectors_per_block(&self) -> u64 {
        self.sectors_per_block
    }

    /// Number of disks the file is striped over.
    pub fn n_disks(&self) -> usize {
        self.n_disks
    }

    /// The disk holding file block `block`.
    pub fn disk_of_block(&self, block: u64) -> usize {
        self.location(block).disk
    }

    /// Physical location of file block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is past the end of the file.
    pub fn location(&self, block: u64) -> BlockLocation {
        self.locations
            .get(block as usize)
            .copied()
            .unwrap_or_else(|| panic!("file block {block} out of range"))
    }

    /// Byte range `[start, end)` of the file covered by `block` (the last
    /// block may be short).
    pub fn block_byte_range(&self, block: u64) -> (u64, u64) {
        let start = block * self.block_bytes;
        let end = (start + self.block_bytes).min(self.file_bytes);
        (start, end)
    }

    /// The redundancy policy the layout was generated under.
    pub fn redundancy(&self) -> RedundancyPolicy {
        self.redundancy
    }

    /// The location of `block`'s single redundant copy, if the policy keeps
    /// one: the mirror copy under `mirror`, the group's parity block under
    /// `parity`, nothing under `none`. This is both where a failed write is
    /// redirected and what a healthy redundant write must also update.
    pub fn redundant_location(&self, block: u64) -> Option<BlockLocation> {
        match self.redundancy {
            RedundancyPolicy::None => None,
            RedundancyPolicy::Mirrored => self.mirrors.get(block as usize).copied(),
            RedundancyPolicy::Parity => {
                let group = block / Self::group_span(self.n_disks);
                self.parity.get(group as usize).copied()
            }
        }
    }

    /// Everything a reconstruction of `block` must read when its primary
    /// copy is unavailable: the mirror copy under `mirror`; the group's
    /// surviving data blocks plus its parity block under `parity`; nothing
    /// under `none` (the block is simply lost).
    pub fn reconstruction_sources(&self, block: u64) -> Vec<BlockLocation> {
        match self.redundancy {
            RedundancyPolicy::None => Vec::new(),
            RedundancyPolicy::Mirrored => self
                .mirrors
                .get(block as usize)
                .copied()
                .into_iter()
                .collect(),
            RedundancyPolicy::Parity => {
                let span = Self::group_span(self.n_disks);
                let group = block / span;
                let mut sources: Vec<BlockLocation> = (group * span..(group + 1) * span)
                    .filter(|&b| b != block && b < self.n_blocks())
                    .map(|b| self.location(b))
                    .collect();
                sources.extend(self.parity.get(group as usize).copied());
                sources
            }
        }
    }

    /// The file blocks stored on `disk`, in file order, with their physical
    /// start sectors. Striping is round-robin, so they are blocks `disk`,
    /// `disk + n_disks`, and so on.
    pub fn blocks_on_disk(&self, disk: usize) -> Vec<(u64, u64)> {
        assert!(disk < self.n_disks, "disk {disk} outside the stripe");
        (disk..self.locations.len())
            .step_by(self.n_disks)
            .map(|block| (block as u64, self.locations[block].start_sector))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn config(layout: LayoutPolicy) -> MachineConfig {
        MachineConfig {
            layout,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn striping_is_round_robin() {
        let cfg = config(LayoutPolicy::Contiguous);
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(1));
        assert_eq!(layout.n_blocks(), 1280);
        for block in 0..layout.n_blocks() {
            assert_eq!(layout.disk_of_block(block), (block % 16) as usize);
        }
        for disk in 0..16 {
            assert_eq!(layout.blocks_on_disk(disk).len(), 80);
        }
    }

    #[test]
    fn contiguous_layout_is_physically_sequential_per_disk() {
        let cfg = config(LayoutPolicy::Contiguous);
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(7));
        for disk in 0..16 {
            let blocks = layout.blocks_on_disk(disk);
            for w in blocks.windows(2) {
                assert_eq!(
                    w[1].1,
                    w[0].1 + layout.sectors_per_block(),
                    "disk {disk} blocks not consecutive"
                );
            }
        }
    }

    #[test]
    fn random_layout_spreads_blocks_and_never_collides() {
        let cfg = config(LayoutPolicy::RandomBlocks);
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(3));
        for disk in 0..16 {
            let blocks = layout.blocks_on_disk(disk);
            let mut sectors: Vec<u64> = blocks.iter().map(|&(_, s)| s).collect();
            sectors.sort_unstable();
            sectors.dedup();
            assert_eq!(
                sectors.len(),
                blocks.len(),
                "disk {disk} has colliding blocks"
            );
            // The spread should cover much more than the 80-block file extent.
            let span = sectors.last().unwrap() - sectors.first().unwrap();
            assert!(
                span > 10 * 80 * layout.sectors_per_block(),
                "disk {disk} random span suspiciously small ({span} sectors)"
            );
        }
    }

    #[test]
    fn same_seed_reproduces_the_layout_different_seed_changes_it() {
        let cfg = config(LayoutPolicy::RandomBlocks);
        let a = FileLayout::generate(&cfg, &SimRng::seed_from_u64(42));
        let b = FileLayout::generate(&cfg, &SimRng::seed_from_u64(42));
        let c = FileLayout::generate(&cfg, &SimRng::seed_from_u64(43));
        let locs = |l: &FileLayout| (0..l.n_blocks()).map(|b| l.location(b)).collect::<Vec<_>>();
        assert_eq!(locs(&a), locs(&b));
        assert_ne!(locs(&a), locs(&c));
    }

    #[test]
    fn block_byte_ranges_cover_the_file() {
        let cfg = MachineConfig {
            file_bytes: 100_000, // not a multiple of the block size
            ..config(LayoutPolicy::Contiguous)
        };
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(1));
        assert_eq!(layout.n_blocks(), 13);
        let mut covered = 0;
        for b in 0..layout.n_blocks() {
            let (s, e) = layout.block_byte_range(b);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 100_000);
    }

    #[test]
    fn redundancy_never_moves_a_primary_block() {
        let locs = |l: &FileLayout| (0..l.n_blocks()).map(|b| l.location(b)).collect::<Vec<_>>();
        for layout_policy in [LayoutPolicy::Contiguous, LayoutPolicy::RandomBlocks] {
            let plain = FileLayout::generate(&config(layout_policy), &SimRng::seed_from_u64(9));
            for redundancy in [RedundancyPolicy::Mirrored, RedundancyPolicy::Parity] {
                let cfg = MachineConfig {
                    redundancy,
                    ..config(layout_policy)
                };
                let redundant = FileLayout::generate(&cfg, &SimRng::seed_from_u64(9));
                assert_eq!(
                    locs(&plain),
                    locs(&redundant),
                    "{redundancy} moved a primary"
                );
            }
        }
        assert_eq!(
            FileLayout::generate(&config(LayoutPolicy::Contiguous), &SimRng::seed_from_u64(9))
                .reconstruction_sources(5),
            Vec::new(),
            "no redundancy, no sources"
        );
    }

    #[test]
    fn mirror_copies_live_on_the_partner_disk_without_collisions() {
        let cfg = MachineConfig {
            redundancy: RedundancyPolicy::Mirrored,
            ..config(LayoutPolicy::RandomBlocks)
        };
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(11));
        let mut used: std::collections::HashSet<(usize, u64)> = (0..layout.n_blocks())
            .map(|b| {
                let l = layout.location(b);
                (l.disk, l.start_sector)
            })
            .collect();
        for block in 0..layout.n_blocks() {
            let primary = layout.location(block);
            let mirror = layout.redundant_location(block).unwrap();
            assert_eq!(mirror.disk, primary.disk ^ 1);
            assert!(
                used.insert((mirror.disk, mirror.start_sector)),
                "mirror of block {block} collides"
            );
            assert_eq!(layout.reconstruction_sources(block), vec![mirror]);
        }
    }

    #[test]
    fn parity_disk_rotates_and_never_holds_its_groups_data() {
        let cfg = MachineConfig {
            redundancy: RedundancyPolicy::Parity,
            ..config(LayoutPolicy::RandomBlocks)
        };
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(13));
        let span = 15; // n_disks - 1
        let mut parity_disks = std::collections::HashSet::new();
        for block in 0..layout.n_blocks() {
            let parity = layout.redundant_location(block).unwrap();
            parity_disks.insert(parity.disk);
            let group = block / span;
            for b in group * span..((group + 1) * span).min(layout.n_blocks()) {
                assert_ne!(
                    layout.disk_of_block(b),
                    parity.disk,
                    "group {group} keeps data on its parity disk"
                );
            }
            let sources = layout.reconstruction_sources(block);
            // Every other group member plus the parity block, each on a
            // distinct disk, none on the failed block's own disk.
            let group_len = ((group + 1) * span).min(layout.n_blocks()) - group * span;
            assert_eq!(sources.len(), group_len as usize);
            let disks: std::collections::HashSet<usize> = sources.iter().map(|s| s.disk).collect();
            assert_eq!(disks.len(), sources.len());
            assert!(!disks.contains(&layout.disk_of_block(block)));
        }
        assert_eq!(parity_disks.len(), 16, "rotation covers every disk");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        let cfg = config(LayoutPolicy::Contiguous);
        let layout = FileLayout::generate(&cfg, &SimRng::seed_from_u64(1));
        layout.location(2000);
    }
}
