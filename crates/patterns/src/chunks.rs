//! Chunk and piece generation.
//!
//! A *chunk* is a maximal run of file bytes that is contiguous both in the
//! file and in one CP's memory — the unit in which the traditional-caching
//! CPs issue requests ("each application process must call ReadCP once for
//! each contiguous chunk of the file, no matter how small").
//!
//! A *piece* is the same thing restricted to an arbitrary byte range of the
//! file — the unit a disk-directed IOP uses to route the contents of one file
//! block to the right CPs.

use crate::pattern::PatternInstance;

/// A contiguous run of file bytes destined for (or sourced from) one CP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// The owning CP.
    pub cp: usize,
    /// Starting byte offset in the file.
    pub file_offset: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Starting byte offset within the CP's local buffer.
    pub mem_offset: u64,
}

impl Chunk {
    /// One byte past the end of the chunk in the file.
    pub fn file_end(&self) -> u64 {
        self.file_offset + self.bytes
    }
}

impl PatternInstance {
    /// The chunks destined for CP `cp`, in file order.
    ///
    /// For the ALL pattern this is a single chunk covering the whole file.
    /// Otherwise the cost is O(records `cp` owns): the walk visits only that
    /// CP's records, never the rest of the file, so listing every CP's
    /// chunks costs one pass over the file however many CPs there are.
    pub fn chunks_for_cp(&self, cp: usize) -> Vec<Chunk> {
        assert!(cp < self.n_cps(), "CP {cp} out of range");
        if self.is_all() {
            return vec![Chunk {
                cp,
                file_offset: 0,
                bytes: self.file_bytes(),
                mem_offset: 0,
            }];
        }
        let rs = self.record_bytes();
        let mut chunks = Vec::new();
        let mut current: Option<Chunk> = None;
        for (r, local) in self.owned_records(cp) {
            let file_offset = r * rs;
            let mem_offset = local * rs;
            match current.as_mut() {
                Some(c) if c.file_end() == file_offset && c.mem_offset + c.bytes == mem_offset => {
                    c.bytes += rs;
                }
                _ => {
                    if let Some(c) = current.take() {
                        chunks.push(c);
                    }
                    current = Some(Chunk {
                        cp,
                        file_offset,
                        bytes: rs,
                        mem_offset,
                    });
                }
            }
        }
        if let Some(c) = current {
            chunks.push(c);
        }
        chunks
    }

    /// Decomposes the file byte range `[start, start + len)` into pieces, in
    /// file order. Records straddling the range boundary are clipped.
    ///
    /// For the ALL pattern every CP receives a copy, so the result contains
    /// one piece per CP per contiguous run.
    pub fn pieces_in(&self, start: u64, len: u64) -> Vec<Chunk> {
        let end = (start + len).min(self.file_bytes());
        let start = start.min(end);
        if start == end {
            return Vec::new();
        }
        if self.is_all() {
            return (0..self.n_cps())
                .map(|cp| Chunk {
                    cp,
                    file_offset: start,
                    bytes: end - start,
                    mem_offset: start,
                })
                .collect();
        }
        let rs = self.record_bytes();
        let first_record = start / rs;
        let last_record = (end - 1) / rs;
        let mut pieces: Vec<Chunk> = Vec::new();
        for r in first_record..=last_record {
            let rec_start = r * rs;
            let rec_end = rec_start + rs;
            let piece_start = rec_start.max(start);
            let piece_end = rec_end.min(end);
            let (cp, local) = self.owner_of(r);
            let mem_offset = local * rs + (piece_start - rec_start);
            let bytes = piece_end - piece_start;
            match pieces.last_mut() {
                Some(p)
                    if p.cp == cp
                        && p.file_end() == piece_start
                        && p.mem_offset + p.bytes == mem_offset =>
                {
                    p.bytes += bytes;
                }
                _ => pieces.push(Chunk {
                    cp,
                    file_offset: piece_start,
                    bytes,
                    mem_offset,
                }),
            }
        }
        pieces
    }

    /// The pattern's chunk size in records (the `cs` annotation of Figure 2):
    /// the largest contiguous run of file records destined for a single CP.
    pub fn chunk_size_records(&self) -> u64 {
        if self.is_all() {
            return self.n_records();
        }
        (0..self.n_cps())
            .flat_map(|cp| self.chunks_for_cp(cp))
            .map(|c| c.bytes / self.record_bytes())
            .max()
            .unwrap_or(0)
    }

    /// The pattern's stride in records (the `s` annotation of Figure 2): the
    /// file distance between the starts of consecutive chunks destined for
    /// the same CP, when that distance is constant. Returns `None` when a CP
    /// has fewer than two chunks or the distance varies.
    pub fn stride_records(&self, cp: usize) -> Option<u64> {
        let chunks = self.chunks_for_cp(cp);
        if chunks.len() < 2 {
            return None;
        }
        let rs = self.record_bytes();
        let first = (chunks[1].file_offset - chunks[0].file_offset) / rs;
        for w in chunks.windows(2) {
            if (w[1].file_offset - w[0].file_offset) / rs != first {
                return None;
            }
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, ArrayShape, PatternInstance};

    fn inst(name: &str, n_cps: usize, records: u64, record_bytes: u64) -> PatternInstance {
        PatternInstance::new(
            AccessPattern::parse(name).expect("valid pattern"),
            n_cps,
            records,
            record_bytes,
        )
    }

    fn inst_8x8(name: &str) -> PatternInstance {
        PatternInstance::with_shape(
            AccessPattern::parse(name).expect("valid pattern"),
            4,
            8,
            ArrayShape::TwoDim { rows: 8, cols: 8 },
        )
    }

    #[test]
    fn figure_2_vector_chunk_sizes() {
        // 1x8 vector over 4 CPs, 8-byte records.
        assert_eq!(inst("rn", 4, 8, 8).chunk_size_records(), 8);
        assert_eq!(inst("rb", 4, 8, 8).chunk_size_records(), 2);
        let rc = inst("rc", 4, 8, 8);
        assert_eq!(rc.chunk_size_records(), 1);
        assert_eq!(rc.stride_records(0), Some(4));
    }

    #[test]
    fn figure_2_matrix_chunk_sizes_and_strides() {
        // 8x8 matrix over 4 CPs (2x2 or 1x4/4x1 grids), as annotated in Figure 2.
        let rnb = inst_8x8("rnb");
        assert_eq!(rnb.chunk_size_records(), 2);
        assert_eq!(rnb.stride_records(0), Some(8));

        let rbb = inst_8x8("rbb");
        assert_eq!(rbb.chunk_size_records(), 4);
        assert_eq!(rbb.stride_records(0), Some(8));

        let rcb = inst_8x8("rcb");
        assert_eq!(rcb.chunk_size_records(), 4);
        assert_eq!(rcb.stride_records(0), Some(16));

        let rbc = inst_8x8("rbc");
        assert_eq!(rbc.chunk_size_records(), 1);
        assert_eq!(rbc.stride_records(0), Some(2));

        let rcc = inst_8x8("rcc");
        assert_eq!(rcc.chunk_size_records(), 1);
        // Figure 2 lists two strides (2 within a row, 10 across rows), so a
        // single constant stride does not exist.
        assert_eq!(rcc.stride_records(0), None);

        let rcn = inst_8x8("rcn");
        assert_eq!(rcn.chunk_size_records(), 8);
        assert_eq!(rcn.stride_records(0), Some(32));
    }

    #[test]
    fn chunks_cover_the_file_exactly_once() {
        for name in ["rn", "rb", "rc", "rbb", "rcc", "rcn", "rnb", "rbc", "rcb"] {
            let inst = inst(name, 4, 160, 64);
            let mut covered = vec![false; inst.file_bytes() as usize];
            for cp in 0..4 {
                for c in inst.chunks_for_cp(cp) {
                    for b in c.file_offset..c.file_end() {
                        assert!(!covered[b as usize], "{name}: byte {b} covered twice");
                        covered[b as usize] = true;
                    }
                }
            }
            assert!(covered.iter().all(|&b| b), "{name}: file not fully covered");
        }
    }

    #[test]
    fn chunks_fill_each_cp_buffer_exactly() {
        for name in ["rb", "rc", "rbb", "rcc", "rcn"] {
            let inst = inst(name, 4, 160, 64);
            for cp in 0..4 {
                let mut mem = vec![false; inst.cp_bytes(cp) as usize];
                for c in inst.chunks_for_cp(cp) {
                    for b in c.mem_offset..c.mem_offset + c.bytes {
                        assert!(
                            !mem[b as usize],
                            "{name}: CP {cp} mem byte {b} written twice"
                        );
                        mem[b as usize] = true;
                    }
                }
                assert!(
                    mem.iter().all(|&b| b),
                    "{name}: CP {cp} buffer not fully written"
                );
            }
        }
    }

    #[test]
    fn all_pattern_has_one_whole_file_chunk_per_cp() {
        let inst = inst("ra", 4, 160, 64);
        for cp in 0..4 {
            let chunks = inst.chunks_for_cp(cp);
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].bytes, inst.file_bytes());
            assert_eq!(chunks[0].mem_offset, 0);
        }
        let pieces = inst.pieces_in(128, 64);
        assert_eq!(pieces.len(), 4);
        assert!(pieces.iter().all(|p| p.bytes == 64 && p.mem_offset == 128));
    }

    #[test]
    fn pieces_agree_with_chunks() {
        // Decomposing the whole file into pieces and grouping by CP must give
        // exactly the same byte ranges as chunks_for_cp.
        for name in ["rb", "rc", "rbb", "rcc", "rbc", "rcn"] {
            let inst = inst(name, 4, 160, 64);
            let pieces = inst.pieces_in(0, inst.file_bytes());
            let piece_bytes: u64 = pieces.iter().map(|p| p.bytes).sum();
            assert_eq!(piece_bytes, inst.file_bytes());
            for cp in 0..4 {
                let from_pieces: Vec<(u64, u64, u64)> = pieces
                    .iter()
                    .filter(|p| p.cp == cp)
                    .map(|p| (p.file_offset, p.bytes, p.mem_offset))
                    .collect();
                let from_chunks: Vec<(u64, u64, u64)> = inst
                    .chunks_for_cp(cp)
                    .iter()
                    .map(|c| (c.file_offset, c.bytes, c.mem_offset))
                    .collect();
                // Pieces may be split at nothing (whole file range), so they
                // should merge to the same runs.
                assert_eq!(from_pieces, from_chunks, "pattern {name} CP {cp}");
            }
        }
    }

    #[test]
    fn pieces_clip_partial_records_at_range_boundaries() {
        // Under BLOCK the two half-records both belong to CP 0 and are
        // contiguous in its memory, so they merge into one clipped piece.
        let block = inst("rb", 4, 16, 64);
        let pieces = block.pieces_in(32, 64);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].file_offset, 32);
        assert_eq!(pieces[0].bytes, 64);
        assert_eq!(pieces[0].mem_offset, 32);

        // Under CYCLIC the same byte range straddles two records owned by
        // different CPs, so the clipping is visible.
        let cyclic = inst("rc", 4, 16, 64);
        let pieces = cyclic.pieces_in(32, 64);
        assert_eq!(pieces.len(), 2);
        assert_eq!(
            pieces[0],
            Chunk {
                cp: 0,
                file_offset: 32,
                bytes: 32,
                mem_offset: 32
            }
        );
        assert_eq!(
            pieces[1],
            Chunk {
                cp: 1,
                file_offset: 64,
                bytes: 32,
                mem_offset: 0
            }
        );
    }

    #[test]
    fn pieces_of_an_8k_block_under_cyclic_8_byte_records() {
        // The stress case of the paper: 8-byte records dealt CYCLIC means a
        // file block fans out into one piece per record.
        let inst = inst("rc", 16, 16384, 8);
        let pieces = inst.pieces_in(0, 8192);
        assert_eq!(pieces.len(), 1024);
        assert!(pieces.iter().all(|p| p.bytes == 8));
        // Round-robin destination order.
        for (i, p) in pieces.iter().enumerate() {
            assert_eq!(p.cp, i % 16);
        }
    }

    #[test]
    fn pieces_of_an_8k_block_under_block_8k_records() {
        // 8 KB records distributed BLOCK: each block is exactly one piece.
        let inst = inst("rb", 16, 1280, 8192);
        for block in [0u64, 7, 100, 1279] {
            let pieces = inst.pieces_in(block * 8192, 8192);
            assert_eq!(pieces.len(), 1, "block {block}");
            assert_eq!(pieces[0].bytes, 8192);
        }
    }

    #[test]
    fn empty_and_out_of_range_piece_queries() {
        let inst = inst("rb", 4, 16, 64);
        assert!(inst.pieces_in(0, 0).is_empty());
        assert!(inst.pieces_in(inst.file_bytes(), 100).is_empty());
        // A range extending past EOF is clipped.
        let pieces = inst.pieces_in(inst.file_bytes() - 64, 1000);
        assert_eq!(pieces.iter().map(|p| p.bytes).sum::<u64>(), 64);
    }
}
