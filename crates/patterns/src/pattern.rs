//! The paper's named access patterns and their element-to-CP mappings.
//!
//! A pattern name is `r` or `w` (read or write) followed by the distribution:
//! `a` for ALL (every CP reads the whole file), one letter for a 1-D
//! distribution (`n`, `b`, `c`), or two letters for a 2-D distribution (rows
//! then columns). The full set used in Figures 3 and 4 is
//! `ra rn rb rc rnb rbb rcb rbc rcc rcn` and `wn wb wc wnb wbb wcb wbc wcc
//! wcn`.

use crate::dist::{processor_grid, Dist};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Collective read: file to CP memories.
    Read,
    /// Collective write: CP memories to file.
    Write,
}

/// How the array is distributed over the CPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Every CP holds (reads) the entire array.
    All,
    /// A 1-D array distributed along its single dimension.
    OneDim(Dist),
    /// A 2-D row-major array distributed in both dimensions.
    TwoDim {
        /// Distribution of the row dimension.
        rows: Dist,
        /// Distribution of the column dimension.
        cols: Dist,
    },
}

/// A named access pattern (`ra`, `rb`, `wcc`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// Read or write.
    pub access: AccessKind,
    /// The array distribution.
    pub distribution: Distribution,
}

impl AccessPattern {
    /// Parses a pattern name such as `"ra"`, `"rb"`, `"wcn"`.
    pub fn parse(name: &str) -> Option<AccessPattern> {
        let mut chars = name.chars();
        let access = match chars.next()? {
            'r' => AccessKind::Read,
            'w' => AccessKind::Write,
            _ => return None,
        };
        let rest: Vec<char> = chars.collect();
        let distribution = match rest.as_slice() {
            ['a'] => {
                if access == AccessKind::Write {
                    // "write ALL" is not meaningful (every CP writing every
                    // byte); the paper has no wa pattern.
                    return None;
                }
                Distribution::All
            }
            [d] => Distribution::OneDim(Dist::from_letter(*d)?),
            [r, c] => Distribution::TwoDim {
                rows: Dist::from_letter(*r)?,
                cols: Dist::from_letter(*c)?,
            },
            _ => return None,
        };
        Some(AccessPattern {
            access,
            distribution,
        })
    }

    /// The pattern's name in the paper's notation.
    pub fn name(&self) -> String {
        let mut s = String::new();
        s.push(match self.access {
            AccessKind::Read => 'r',
            AccessKind::Write => 'w',
        });
        match self.distribution {
            Distribution::All => s.push('a'),
            Distribution::OneDim(d) => s.push(d.letter()),
            Distribution::TwoDim { rows, cols } => {
                s.push(rows.letter());
                s.push(cols.letter());
            }
        }
        s
    }

    /// True for write patterns.
    pub fn is_write(&self) -> bool {
        self.access == AccessKind::Write
    }

    /// True for the ALL pattern (whole file to every CP).
    pub fn is_all(&self) -> bool {
        self.distribution == Distribution::All
    }

    /// True if the pattern uses a 2-D matrix.
    pub fn is_two_dim(&self) -> bool {
        matches!(self.distribution, Distribution::TwoDim { .. })
    }

    /// The read patterns evaluated in Figures 3 and 4, in the paper's order.
    pub fn paper_read_patterns() -> Vec<AccessPattern> {
        [
            "ra", "rn", "rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn",
        ]
        .iter()
        .map(|n| AccessPattern::parse(n).expect("known pattern"))
        .collect()
    }

    /// The write patterns evaluated in Figures 3 and 4, in the paper's order.
    pub fn paper_write_patterns() -> Vec<AccessPattern> {
        ["wn", "wb", "wc", "wnb", "wbb", "wcb", "wbc", "wcc", "wcn"]
            .iter()
            .map(|n| AccessPattern::parse(n).expect("known pattern"))
            .collect()
    }

    /// All 19 patterns of Figures 3 and 4 (reads then writes).
    pub fn paper_all_patterns() -> Vec<AccessPattern> {
        let mut v = Self::paper_read_patterns();
        v.extend(Self::paper_write_patterns());
        v
    }

    /// The four patterns used in the sensitivity experiments (Figures 5-8).
    pub fn sensitivity_patterns() -> Vec<AccessPattern> {
        ["ra", "rn", "rb", "rc"]
            .iter()
            .map(|n| AccessPattern::parse(n).expect("known pattern"))
            .collect()
    }
}

/// The logical shape of the transferred array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayShape {
    /// A vector of `len` records.
    OneDim {
        /// Number of records.
        len: u64,
    },
    /// A `rows` x `cols` matrix of records, stored row-major in the file.
    TwoDim {
        /// Number of rows.
        rows: u64,
        /// Number of columns.
        cols: u64,
    },
}

impl ArrayShape {
    /// Total number of records.
    pub fn records(&self) -> u64 {
        match *self {
            ArrayShape::OneDim { len } => len,
            ArrayShape::TwoDim { rows, cols } => rows * cols,
        }
    }

    /// Chooses the default shape for `n_records`: a vector for 1-D patterns,
    /// or the most square matrix whose row count divides `n_records`
    /// (10 MB of 8-byte records becomes 1024 x 1280; of 8 KB records,
    /// 32 x 40).
    pub fn default_for(pattern: AccessPattern, n_records: u64) -> ArrayShape {
        assert!(n_records > 0, "cannot shape an empty array");
        if pattern.is_two_dim() {
            let mut rows = 1;
            let mut d = 1;
            while d * d <= n_records {
                if n_records % d == 0 {
                    rows = d;
                }
                d += 1;
            }
            ArrayShape::TwoDim {
                rows,
                cols: n_records / rows,
            }
        } else {
            ArrayShape::OneDim { len: n_records }
        }
    }
}

/// An [`AccessPattern`] bound to a machine and file size: maps every record
/// of the file to its owning CP and its location in that CP's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternInstance {
    pattern: AccessPattern,
    n_cps: usize,
    record_bytes: u64,
    shape: ArrayShape,
    grid: (usize, usize),
}

impl PatternInstance {
    /// Binds `pattern` to `n_cps` compute processors and a file of
    /// `n_records` records of `record_bytes` bytes each, choosing the array
    /// shape with [`ArrayShape::default_for`].
    pub fn new(
        pattern: AccessPattern,
        n_cps: usize,
        n_records: u64,
        record_bytes: u64,
    ) -> PatternInstance {
        Self::with_shape(
            pattern,
            n_cps,
            record_bytes,
            ArrayShape::default_for(pattern, n_records),
        )
    }

    /// Binds `pattern` with an explicit array shape.
    ///
    /// # Panics
    ///
    /// Panics if there are zero CPs, zero-byte records, or an empty shape.
    pub fn with_shape(
        pattern: AccessPattern,
        n_cps: usize,
        record_bytes: u64,
        shape: ArrayShape,
    ) -> PatternInstance {
        assert!(n_cps > 0, "need at least one CP");
        assert!(record_bytes > 0, "record size must be non-zero");
        assert!(shape.records() > 0, "array must have at least one record");
        let grid = match pattern.distribution {
            Distribution::TwoDim { rows, cols } => processor_grid(n_cps, rows, cols),
            _ => (1, n_cps),
        };
        PatternInstance {
            pattern,
            n_cps,
            record_bytes,
            shape,
            grid,
        }
    }

    /// The bound pattern.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Number of compute processors.
    pub fn n_cps(&self) -> usize {
        self.n_cps
    }

    /// Record size in bytes.
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// The array shape.
    pub fn shape(&self) -> ArrayShape {
        self.shape
    }

    /// The processor-grid shape used for 2-D distributions.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Total number of records in the file.
    pub fn n_records(&self) -> u64 {
        self.shape.records()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.n_records() * self.record_bytes
    }

    /// True for the ALL pattern.
    pub fn is_all(&self) -> bool {
        self.pattern.is_all()
    }

    /// True for write patterns.
    pub fn is_write(&self) -> bool {
        self.pattern.is_write()
    }

    /// Maps a record index to `(owning CP, record index within that CP's
    /// local buffer)`.
    ///
    /// # Panics
    ///
    /// Panics for the ALL distribution (every CP owns every record — use
    /// [`PatternInstance::is_all`] and handle that case explicitly), or if
    /// `record` is out of range.
    pub fn owner_of(&self, record: u64) -> (usize, u64) {
        assert!(
            record < self.n_records(),
            "record {record} out of range ({} records)",
            self.n_records()
        );
        match self.pattern.distribution {
            Distribution::All => {
                panic!("owner_of is not single-valued for the ALL distribution")
            }
            Distribution::OneDim(d) => {
                let (owner, local) = d.map(record, self.n_records(), self.n_cps);
                (owner, local)
            }
            Distribution::TwoDim { rows, cols } => {
                let ArrayShape::TwoDim { rows: nr, cols: nc } = self.shape else {
                    panic!("2-D distribution bound to a 1-D shape");
                };
                let (pr, pc) = self.grid;
                let r = record / nc;
                let c = record % nc;
                let (owner_r, local_r) = rows.map(r, nr, pr);
                let (owner_c, local_c) = cols.map(c, nc, pc);
                let owner = owner_r * pc + owner_c;
                let local_width = cols.count(nc, pc, owner_c);
                (owner, local_r * local_width + local_c)
            }
        }
    }

    /// The records CP `cp` owns, as `(record, local index)` pairs in file
    /// order: exactly the records [`PatternInstance::owner_of`] maps to `cp`,
    /// found by arithmetic instead of a scan. A 2-D pattern yields the CP's
    /// owned rows × owned columns, row-major; a 1-D pattern is the same walk
    /// over a one-row matrix on a one-row processor grid.
    ///
    /// # Panics
    ///
    /// Panics for the ALL distribution, like [`PatternInstance::owner_of`].
    pub(crate) fn owned_records(&self, cp: usize) -> impl Iterator<Item = (u64, u64)> {
        let (rows, cols, nr, nc) = match self.pattern.distribution {
            Distribution::All => {
                panic!("owned_records is not single-valued for the ALL distribution")
            }
            Distribution::OneDim(d) => (Dist::None, d, 1, self.n_records()),
            Distribution::TwoDim { rows, cols } => {
                let ArrayShape::TwoDim { rows: nr, cols: nc } = self.shape else {
                    panic!("2-D distribution bound to a 1-D shape");
                };
                (rows, cols, nr, nc)
            }
        };
        let (pr, pc) = self.grid;
        let (owner_r, owner_c) = (cp / pc, cp % pc);
        let local_width = cols.count(nc, pc, owner_c);
        rows.owned(nr, pr, owner_r).flat_map(move |(r, local_r)| {
            cols.owned(nc, pc, owner_c)
                .map(move |(c, local_c)| (r * nc + c, local_r * local_width + local_c))
        })
    }

    /// Number of records CP `cp` holds in its memory.
    pub fn cp_record_count(&self, cp: usize) -> u64 {
        assert!(cp < self.n_cps, "CP {cp} out of range");
        match self.pattern.distribution {
            Distribution::All => self.n_records(),
            Distribution::OneDim(d) => d.count(self.n_records(), self.n_cps, cp),
            Distribution::TwoDim { rows, cols } => {
                let ArrayShape::TwoDim { rows: nr, cols: nc } = self.shape else {
                    panic!("2-D distribution bound to a 1-D shape");
                };
                let (pr, pc) = self.grid;
                let owner_r = cp / pc;
                let owner_c = cp % pc;
                rows.count(nr, pr, owner_r) * cols.count(nc, pc, owner_c)
            }
        }
    }

    /// Number of bytes CP `cp` holds in its memory.
    pub fn cp_bytes(&self, cp: usize) -> u64 {
        self.cp_record_count(cp) * self.record_bytes
    }

    /// Total bytes moved by the collective operation (the file size, times
    /// the number of CPs for the ALL pattern).
    pub fn total_transfer_bytes(&self) -> u64 {
        if self.is_all() {
            self.file_bytes() * self.n_cps as u64
        } else {
            self.file_bytes()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_round_trip() {
        for name in [
            "ra", "rn", "rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn", "wn", "wb", "wc",
            "wnb", "wbb", "wcb", "wbc", "wcc", "wcn",
        ] {
            let p = AccessPattern::parse(name).unwrap_or_else(|| panic!("parse {name}"));
            assert_eq!(p.name(), name);
        }
        assert!(AccessPattern::parse("wa").is_none());
        assert!(AccessPattern::parse("xb").is_none());
        assert!(AccessPattern::parse("rbbb").is_none());
        assert!(AccessPattern::parse("r").is_none());
        assert!(AccessPattern::parse("rz").is_none());
    }

    #[test]
    fn paper_pattern_lists_have_the_figure_counts() {
        assert_eq!(AccessPattern::paper_read_patterns().len(), 10);
        assert_eq!(AccessPattern::paper_write_patterns().len(), 9);
        assert_eq!(AccessPattern::paper_all_patterns().len(), 19);
        assert_eq!(AccessPattern::sensitivity_patterns().len(), 4);
    }

    #[test]
    fn default_shapes_match_the_design_doc() {
        let rbb = AccessPattern::parse("rbb").unwrap();
        // 10 MB of 8-byte records: 1024 x 1280.
        assert_eq!(
            ArrayShape::default_for(rbb, 1_310_720),
            ArrayShape::TwoDim {
                rows: 1024,
                cols: 1280
            }
        );
        // 10 MB of 8 KB records: 32 x 40.
        assert_eq!(
            ArrayShape::default_for(rbb, 1280),
            ArrayShape::TwoDim { rows: 32, cols: 40 }
        );
        // 1-D patterns stay vectors.
        let rb = AccessPattern::parse("rb").unwrap();
        assert_eq!(
            ArrayShape::default_for(rb, 1280),
            ArrayShape::OneDim { len: 1280 }
        );
    }

    #[test]
    fn rn_maps_everything_to_cp0() {
        let inst = PatternInstance::new(AccessPattern::parse("rn").unwrap(), 16, 1280, 8192);
        for r in [0u64, 100, 1279] {
            assert_eq!(inst.owner_of(r), (0, r));
        }
        assert_eq!(inst.cp_record_count(0), 1280);
        assert_eq!(inst.cp_record_count(1), 0);
    }

    #[test]
    fn rb_splits_the_vector_into_contiguous_blocks() {
        let inst = PatternInstance::new(AccessPattern::parse("rb").unwrap(), 4, 8, 8);
        let owners: Vec<usize> = (0..8).map(|r| inst.owner_of(r).0).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        for cp in 0..4 {
            assert_eq!(inst.cp_record_count(cp), 2);
        }
    }

    #[test]
    fn rc_deals_records_round_robin() {
        let inst = PatternInstance::new(AccessPattern::parse("rc").unwrap(), 4, 8, 8);
        let owners: Vec<usize> = (0..8).map(|r| inst.owner_of(r).0).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(inst.owner_of(5), (1, 1));
    }

    #[test]
    fn rbb_partitions_the_matrix_into_quadrant_blocks() {
        // Figure 2: 8x8 matrix over 4 CPs as a 2x2 grid.
        let p = AccessPattern::parse("rbb").unwrap();
        let inst = PatternInstance::with_shape(p, 4, 8, ArrayShape::TwoDim { rows: 8, cols: 8 });
        assert_eq!(inst.grid(), (2, 2));
        // Record (row 0, col 0) belongs to CP 0; (0, 4) to CP 1; (4, 0) to CP 2;
        // (4, 4) to CP 3.
        assert_eq!(inst.owner_of(0).0, 0);
        assert_eq!(inst.owner_of(4).0, 1);
        assert_eq!(inst.owner_of(4 * 8).0, 2);
        assert_eq!(inst.owner_of(4 * 8 + 4).0, 3);
        for cp in 0..4 {
            assert_eq!(inst.cp_record_count(cp), 16);
        }
    }

    #[test]
    fn rcn_gives_each_cp_whole_rows_round_robin() {
        let p = AccessPattern::parse("rcn").unwrap();
        let inst = PatternInstance::with_shape(p, 4, 8, ArrayShape::TwoDim { rows: 8, cols: 8 });
        assert_eq!(inst.grid(), (4, 1));
        // Row r belongs to CP r mod 4, entire row.
        for r in 0..8u64 {
            for c in 0..8u64 {
                assert_eq!(inst.owner_of(r * 8 + c).0, (r % 4) as usize);
            }
        }
        assert_eq!(inst.cp_record_count(0), 16);
    }

    #[test]
    fn rnb_gives_each_cp_a_column_block() {
        let p = AccessPattern::parse("rnb").unwrap();
        let inst = PatternInstance::with_shape(p, 4, 8, ArrayShape::TwoDim { rows: 8, cols: 8 });
        assert_eq!(inst.grid(), (1, 4));
        for r in 0..8u64 {
            for c in 0..8u64 {
                assert_eq!(inst.owner_of(r * 8 + c).0, (c / 2) as usize);
            }
        }
    }

    #[test]
    fn all_records_are_covered_exactly_once_by_every_pattern() {
        for pattern in AccessPattern::paper_all_patterns() {
            if pattern.is_all() {
                continue;
            }
            let inst = PatternInstance::new(pattern, 16, 1280, 8192);
            let mut per_cp = [0u64; 16];
            for r in 0..inst.n_records() {
                let (cp, _) = inst.owner_of(r);
                per_cp[cp] += 1;
            }
            for (cp, &count) in per_cp.iter().enumerate() {
                assert_eq!(
                    count,
                    inst.cp_record_count(cp),
                    "pattern {} CP {cp}",
                    pattern.name()
                );
            }
            assert_eq!(per_cp.iter().sum::<u64>(), inst.n_records());
        }
    }

    #[test]
    fn local_indices_are_dense_and_unique() {
        for pattern in ["rb", "rc", "rbb", "rcc", "rbc", "rcb", "rcn", "rnb"] {
            let pattern = AccessPattern::parse(pattern).unwrap();
            let inst = PatternInstance::new(pattern, 4, 256, 8);
            let mut seen: Vec<Vec<bool>> = (0..4)
                .map(|cp| vec![false; inst.cp_record_count(cp) as usize])
                .collect();
            for r in 0..inst.n_records() {
                let (cp, local) = inst.owner_of(r);
                let slot = &mut seen[cp][local as usize];
                assert!(!*slot, "duplicate local index {local} on CP {cp}");
                *slot = true;
            }
            for (cp, flags) in seen.iter().enumerate() {
                assert!(
                    flags.iter().all(|&b| b),
                    "pattern {} CP {cp} has unused local slots",
                    inst.pattern().name()
                );
            }
        }
    }

    #[test]
    fn ra_total_transfer_is_multiplied_by_cps() {
        let inst = PatternInstance::new(AccessPattern::parse("ra").unwrap(), 16, 1280, 8192);
        assert!(inst.is_all());
        assert_eq!(inst.file_bytes(), 10 * 1024 * 1024);
        assert_eq!(inst.total_transfer_bytes(), 160 * 1024 * 1024);
        assert_eq!(inst.cp_record_count(7), 1280);
    }

    #[test]
    #[should_panic(expected = "not single-valued")]
    fn owner_of_panics_for_all_pattern() {
        let inst = PatternInstance::new(AccessPattern::parse("ra").unwrap(), 4, 64, 8);
        inst.owner_of(0);
    }
}
