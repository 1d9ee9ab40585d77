//! Property-based tests of the access-pattern machinery: for any pattern,
//! machine size, and record size, the chunks partition the file, the
//! per-block pieces agree with the per-CP chunks, and the owned-record walk
//! of `chunks_for_cp` gives the same chunks as a scan of every record.

use proptest::prelude::*;

use ddio_patterns::{AccessPattern, ArrayShape, Chunk, PatternInstance};

fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    prop::sample::select(AccessPattern::paper_all_patterns())
}

fn arb_instance() -> impl Strategy<Value = PatternInstance> {
    (
        arb_pattern(),
        1usize..=8,
        1u64..=6,
        prop::sample::select(vec![8u64, 64, 512, 1024]),
    )
        .prop_map(|(pattern, n_cps, blocks, record_bytes)| {
            // Keep the file small (a few "blocks" of 1 KiB) so the exhaustive
            // coverage checks stay fast.
            let n_records = (blocks * 1024) / record_bytes;
            PatternInstance::new(pattern, n_cps, n_records.max(1), record_bytes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every non-ALL pattern covers each file byte exactly once across the
    /// chunks of all CPs, and each CP's buffer is filled exactly once.
    #[test]
    fn chunks_partition_file_and_buffers(inst in arb_instance()) {
        prop_assume!(!inst.is_all());
        let file_bytes = inst.file_bytes();
        let mut file_covered = vec![0u8; file_bytes as usize];
        for cp in 0..inst.n_cps() {
            let mut mem_covered = vec![0u8; inst.cp_bytes(cp) as usize];
            for chunk in inst.chunks_for_cp(cp) {
                prop_assert!(chunk.file_end() <= file_bytes);
                for b in chunk.file_offset..chunk.file_end() {
                    file_covered[b as usize] += 1;
                }
                for m in chunk.mem_offset..chunk.mem_offset + chunk.bytes {
                    mem_covered[m as usize] += 1;
                }
            }
            prop_assert!(
                mem_covered.iter().all(|&c| c == 1),
                "CP {cp} buffer not covered exactly once for {}",
                inst.pattern().name()
            );
        }
        prop_assert!(
            file_covered.iter().all(|&c| c == 1),
            "file not covered exactly once for {}",
            inst.pattern().name()
        );
    }

    /// Decomposing the file block by block into pieces reaches exactly the
    /// same bytes as the per-CP chunks, for every pattern including ALL.
    #[test]
    fn pieces_agree_with_chunks(inst in arb_instance(), block_bytes in prop::sample::select(vec![512u64, 1024, 4096])) {
        let file_bytes = inst.file_bytes();
        let replication = if inst.is_all() { inst.n_cps() as u64 } else { 1 };
        let mut total_piece_bytes = 0u64;
        let mut start = 0u64;
        while start < file_bytes {
            let len = block_bytes.min(file_bytes - start);
            for piece in inst.pieces_in(start, len) {
                prop_assert!(piece.cp < inst.n_cps());
                prop_assert!(piece.file_offset >= start);
                prop_assert!(piece.file_offset + piece.bytes <= start + len);
                prop_assert!(piece.mem_offset + piece.bytes <= inst.cp_bytes(piece.cp));
                total_piece_bytes += piece.bytes;
            }
            start += len;
        }
        prop_assert_eq!(total_piece_bytes, file_bytes * replication);
    }

    /// Chunk sizes in records match the pattern definition bounds: at least
    /// one record, at most the whole file.
    #[test]
    fn chunk_size_is_sane(inst in arb_instance()) {
        let cs = inst.chunk_size_records();
        prop_assert!(cs >= 1);
        prop_assert!(cs <= inst.n_records());
    }

    /// Buffer sizes sum to the file size (times the CP count for ALL).
    #[test]
    fn buffer_sizes_sum_to_file_size(inst in arb_instance()) {
        let total: u64 = (0..inst.n_cps()).map(|cp| inst.cp_bytes(cp)).sum();
        let expected = if inst.is_all() {
            inst.file_bytes() * inst.n_cps() as u64
        } else {
            inst.file_bytes()
        };
        prop_assert_eq!(total, expected);
    }
}

use ddio_patterns::{processor_grid, Dist};

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop::sample::select(vec![Dist::None, Dist::Block, Dist::Cyclic])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every distribution, extent, and processor count: the per-owner
    /// pieces partition the dimension with no overlap — every element has
    /// exactly one (owner, local) slot, local indices are dense `0..count`,
    /// and the counts sum to the extent.
    #[test]
    fn dist_partitions_dimension_without_overlap(
        dist in arb_dist(),
        n in 1u64..300,
        p in 1usize..17,
    ) {
        let mut counted = vec![0u64; p];
        let mut seen_local: Vec<Vec<bool>> = vec![Vec::new(); p];
        for i in 0..n {
            let (owner, local) = dist.map(i, n, p);
            prop_assert!(owner < p, "owner {owner} out of range");
            prop_assert!(local < n);
            counted[owner] += 1;
            let slots = &mut seen_local[owner];
            if slots.len() <= local as usize {
                slots.resize(local as usize + 1, false);
            }
            // No overlap: a (owner, local) slot is hit at most once.
            prop_assert!(!slots[local as usize], "{dist:?}: slot ({owner},{local}) hit twice");
            slots[local as usize] = true;
        }
        prop_assert_eq!(counted.iter().sum::<u64>(), n, "counts must sum to the extent");
        for owner in 0..p {
            prop_assert_eq!(counted[owner], dist.count(n, p, owner),
                "count() disagrees with map() for {:?} owner {}", dist, owner);
            // Dense locals: exactly 0..count, no holes.
            prop_assert!(seen_local[owner].iter().all(|&b| b),
                "{dist:?}: owner {owner} has a hole in its local indices");
        }
        prop_assert!(dist.processors_used(p) <= p);
    }

    /// The processor grid always uses exactly `p` processors (collapsed
    /// dimensions excepted) and respects NONE collapsing.
    #[test]
    fn processor_grid_is_consistent(
        rows in arb_dist(),
        cols in arb_dist(),
        p in 1usize..65,
    ) {
        let (r, c) = processor_grid(p, rows, cols);
        prop_assert!(r >= 1 && c >= 1);
        match (rows, cols) {
            (Dist::None, Dist::None) => prop_assert_eq!((r, c), (1, 1)),
            (Dist::None, _) => prop_assert_eq!((r, c), (1, p)),
            (_, Dist::None) => prop_assert_eq!((r, c), (p, 1)),
            _ => {
                prop_assert_eq!(r * c, p, "grid must cover all processors");
                prop_assert!(r <= c, "rows exceed cols: {}x{}", r, c);
            }
        }
    }
}

/// The reference `chunks_for_cp`: scan every record of the file, ask
/// `owner_of` who holds it, and merge each CP's records into chunks with
/// the same rule the owned-record walk uses. One pass serves every CP.
fn full_scan_chunks(inst: &PatternInstance) -> Vec<Vec<Chunk>> {
    if inst.is_all() {
        return (0..inst.n_cps())
            .map(|cp| {
                vec![Chunk {
                    cp,
                    file_offset: 0,
                    bytes: inst.file_bytes(),
                    mem_offset: 0,
                }]
            })
            .collect();
    }
    let rs = inst.record_bytes();
    let mut chunks: Vec<Vec<Chunk>> = vec![Vec::new(); inst.n_cps()];
    for r in 0..inst.n_records() {
        let (cp, local) = inst.owner_of(r);
        let file_offset = r * rs;
        let mem_offset = local * rs;
        match chunks[cp].last_mut() {
            Some(c) if c.file_end() == file_offset && c.mem_offset + c.bytes == mem_offset => {
                c.bytes += rs;
            }
            _ => chunks[cp].push(Chunk {
                cp,
                file_offset,
                bytes: rs,
                mem_offset,
            }),
        }
    }
    chunks
}

/// Asserts that every CP's `chunks_for_cp` equals the full-scan reference.
fn assert_walk_matches_scan(inst: &PatternInstance) {
    let reference = full_scan_chunks(inst);
    for (cp, expected) in reference.iter().enumerate() {
        assert_eq!(
            &inst.chunks_for_cp(cp),
            expected,
            "{} over {} CPs, shape {:?}, CP {cp}",
            inst.pattern().name(),
            inst.n_cps(),
            inst.shape()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every paper pattern, the owned-record walk gives each CP exactly
    /// the chunks a scan of the whole file would, on the default shape.
    #[test]
    fn chunk_walk_matches_full_scan(
        n_cps in 1usize..=1024,
        n_records in 1u64..=6000,
        record_bytes in prop::sample::select(vec![8u64, 24, 512, 8192]),
    ) {
        for pattern in AccessPattern::paper_all_patterns() {
            assert_walk_matches_scan(&PatternInstance::new(pattern, n_cps, n_records, record_bytes));
        }
    }

    /// The same on explicit matrix shapes, whose row and column counts the
    /// processor grid usually does not divide (and may be smaller than).
    #[test]
    fn chunk_walk_matches_full_scan_on_ragged_matrices(
        n_cps in 1usize..=1024,
        rows in 1u64..=80,
        cols in 1u64..=80,
    ) {
        for pattern in AccessPattern::paper_all_patterns() {
            if pattern.is_two_dim() {
                let shape = ArrayShape::TwoDim { rows, cols };
                assert_walk_matches_scan(&PatternInstance::with_shape(pattern, n_cps, 8, shape));
            }
        }
    }
}

#[test]
fn chunk_walk_matches_full_scan_when_the_grid_does_not_divide_the_matrix() {
    // (CPs, rows, cols). Where both dimensions are distributed, 6 CPs form a
    // 2x3 grid over 7x10; 12 CPs a 3x4 grid over 5x5; 16 CPs a 4x4 grid over
    // only 3 rows; 30 CPs a 5x6 grid over 11x13; and 7 CPs (prime) a 1x7 grid
    // over 9x4, leaving CPs without columns.
    for (n_cps, rows, cols) in [
        (6, 7, 10),
        (12, 5, 5),
        (16, 3, 100),
        (30, 11, 13),
        (7, 9, 4),
    ] {
        for pattern in AccessPattern::paper_all_patterns() {
            if pattern.is_two_dim() {
                let shape = ArrayShape::TwoDim { rows, cols };
                assert_walk_matches_scan(&PatternInstance::with_shape(pattern, n_cps, 64, shape));
            }
        }
    }
}
