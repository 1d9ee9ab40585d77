//! HPF-style per-dimension distributions: NONE, BLOCK, CYCLIC.
//!
//! These are the element-to-processor mappings of Figure 2 of the paper,
//! taken from High Performance Fortran: a dimension may be not distributed
//! (NONE — the whole extent lives on one processor row/column), distributed
//! in contiguous blocks (BLOCK), or dealt round-robin (CYCLIC).

/// How one dimension of an array is distributed over one dimension of the
/// processor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// The dimension is not distributed (collapsed onto one processor).
    None,
    /// Contiguous blocks of `ceil(n/p)` elements per processor.
    Block,
    /// Elements dealt round-robin: element `i` goes to processor `i mod p`.
    Cyclic,
}

impl Dist {
    /// One-letter abbreviation used in pattern names (`n`, `b`, `c`).
    pub fn letter(self) -> char {
        match self {
            Dist::None => 'n',
            Dist::Block => 'b',
            Dist::Cyclic => 'c',
        }
    }

    /// Parses the one-letter abbreviation.
    pub fn from_letter(c: char) -> Option<Dist> {
        match c {
            'n' => Some(Dist::None),
            'b' => Some(Dist::Block),
            'c' => Some(Dist::Cyclic),
            _ => None,
        }
    }

    /// Number of processors this distribution actually spreads the dimension
    /// over, given `p` available along that grid dimension.
    pub fn processors_used(self, p: usize) -> usize {
        match self {
            Dist::None => 1,
            Dist::Block | Dist::Cyclic => p,
        }
    }

    /// Maps element `i` of a dimension of extent `n` distributed over `p`
    /// processors to `(owner, local_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `p == 0`.
    pub fn map(self, i: u64, n: u64, p: usize) -> (usize, u64) {
        assert!(p > 0, "cannot distribute over zero processors");
        assert!(i < n, "element index {i} out of range (extent {n})");
        match self {
            Dist::None => (0, i),
            Dist::Block => {
                let b = n.div_ceil(p as u64);
                let owner = (i / b) as usize;
                (owner, i - owner as u64 * b)
            }
            Dist::Cyclic => ((i % p as u64) as usize, i / p as u64),
        }
    }

    /// Number of elements of a dimension of extent `n` that processor
    /// `owner` (of `p`) receives.
    pub fn count(self, n: u64, p: usize, owner: usize) -> u64 {
        assert!(p > 0, "cannot distribute over zero processors");
        match self {
            Dist::None => {
                if owner == 0 {
                    n
                } else {
                    0
                }
            }
            Dist::Block => {
                let b = n.div_ceil(p as u64);
                let start = owner as u64 * b;
                if start >= n {
                    0
                } else {
                    (n - start).min(b)
                }
            }
            Dist::Cyclic => {
                let owner = owner as u64;
                if owner >= n {
                    0
                } else {
                    (n - owner).div_ceil(p as u64)
                }
            }
        }
    }

    /// The elements of a dimension of extent `n` that processor `owner` (of
    /// `p`) receives, as `(index, local_index)` pairs in index order: the
    /// elements [`Dist::map`] sends to `owner`, listed without visiting the
    /// others. Yields [`Dist::count`] pairs for every `owner < p`.
    pub fn owned(self, n: u64, p: usize, owner: usize) -> impl Iterator<Item = (u64, u64)> {
        assert!(p > 0, "cannot distribute over zero processors");
        // Every distribution hands an owner an arithmetic progression of
        // indices, and its local indices count along that progression.
        let (start, end, step) = match self {
            Dist::None if owner == 0 => (0, n, 1),
            Dist::None => (n, n, 1),
            Dist::Block => {
                let b = n.div_ceil(p as u64);
                let start = (owner as u64 * b).min(n);
                (start, (start + b).min(n), 1)
            }
            Dist::Cyclic => ((owner as u64).min(n), n, p),
        };
        (start..end).step_by(step).zip(0..)
    }
}

/// Chooses the processor-grid shape `(rows, cols)` for a 2-D distribution
/// over `p` processors: the largest divisor of `p` that is at most `sqrt(p)`
/// becomes the number of processor rows (so 16 CPs form a 4x4 grid, 8 CPs a
/// 2x4 grid). Dimensions distributed as NONE collapse their grid dimension
/// to 1.
pub fn processor_grid(p: usize, rows: Dist, cols: Dist) -> (usize, usize) {
    assert!(p > 0, "need at least one processor");
    match (rows, cols) {
        (Dist::None, Dist::None) => (1, 1),
        (Dist::None, _) => (1, p),
        (_, Dist::None) => (p, 1),
        _ => {
            let mut r = 1;
            for d in 1..=p {
                if d * d > p {
                    break;
                }
                if p % d == 0 {
                    r = d;
                }
            }
            (r, p / r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_round_trip() {
        for d in [Dist::None, Dist::Block, Dist::Cyclic] {
            assert_eq!(Dist::from_letter(d.letter()), Some(d));
        }
        assert_eq!(Dist::from_letter('x'), None);
    }

    #[test]
    fn none_maps_everything_to_processor_zero() {
        for i in 0..8 {
            assert_eq!(Dist::None.map(i, 8, 4), (0, i));
        }
        assert_eq!(Dist::None.count(8, 4, 0), 8);
        assert_eq!(Dist::None.count(8, 4, 1), 0);
    }

    #[test]
    fn block_matches_figure_2_vector_example() {
        // 1x8 vector over 4 processors, BLOCK: chunks of 2.
        let owners: Vec<usize> = (0..8).map(|i| Dist::Block.map(i, 8, 4).0).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        for p in 0..4 {
            assert_eq!(Dist::Block.count(8, 4, p), 2);
        }
    }

    #[test]
    fn cyclic_matches_figure_2_vector_example() {
        // 1x8 vector over 4 processors, CYCLIC: 0 1 2 3 0 1 2 3.
        let owners: Vec<usize> = (0..8).map(|i| Dist::Cyclic.map(i, 8, 4).0).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Local indices advance by one per round.
        assert_eq!(Dist::Cyclic.map(4, 8, 4), (0, 1));
        assert_eq!(Dist::Cyclic.map(7, 8, 4), (3, 1));
    }

    #[test]
    fn block_handles_uneven_division() {
        // 10 elements over 4 processors: blocks of 3,3,3,1.
        let counts: Vec<u64> = (0..4).map(|p| Dist::Block.count(10, 4, p)).collect();
        assert_eq!(counts, vec![3, 3, 3, 1]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(Dist::Block.map(9, 10, 4), (3, 0));
    }

    #[test]
    fn cyclic_handles_uneven_division() {
        let counts: Vec<u64> = (0..4).map(|p| Dist::Cyclic.count(10, 4, p)).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
    }

    #[test]
    fn counts_are_consistent_with_map_for_all_dists() {
        for dist in [Dist::None, Dist::Block, Dist::Cyclic] {
            for n in [1u64, 7, 16, 33] {
                for p in [1usize, 2, 3, 4, 5, 16] {
                    let mut counted = vec![0u64; p];
                    let mut max_local = vec![None::<u64>; p];
                    for i in 0..n {
                        let (owner, local) = dist.map(i, n, p);
                        counted[owner] += 1;
                        let entry = &mut max_local[owner];
                        *entry = Some(entry.map_or(local, |m: u64| m.max(local)));
                    }
                    for owner in 0..p {
                        assert_eq!(
                            counted[owner],
                            dist.count(n, p, owner),
                            "count mismatch dist={dist:?} n={n} p={p} owner={owner}"
                        );
                        // Local indices are dense: 0..count.
                        if counted[owner] > 0 {
                            assert_eq!(max_local[owner], Some(counted[owner] - 1));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn owned_lists_exactly_what_map_sends_to_the_owner() {
        for dist in [Dist::None, Dist::Block, Dist::Cyclic] {
            for n in 1u64..=20 {
                for p in 1usize..=7 {
                    for owner in 0..p {
                        let owned: Vec<(u64, u64)> = dist.owned(n, p, owner).collect();
                        let scanned: Vec<(u64, u64)> = (0..n)
                            .filter(|&i| dist.map(i, n, p).0 == owner)
                            .map(|i| (i, dist.map(i, n, p).1))
                            .collect();
                        assert_eq!(owned, scanned, "dist={dist:?} n={n} p={p} owner={owner}");
                        assert_eq!(owned.len() as u64, dist.count(n, p, owner));
                    }
                }
            }
        }
    }

    #[test]
    fn processor_grid_shapes() {
        assert_eq!(processor_grid(16, Dist::Block, Dist::Block), (4, 4));
        assert_eq!(processor_grid(8, Dist::Cyclic, Dist::Block), (2, 4));
        assert_eq!(processor_grid(16, Dist::None, Dist::Block), (1, 16));
        assert_eq!(processor_grid(16, Dist::Cyclic, Dist::None), (16, 1));
        assert_eq!(processor_grid(1, Dist::Block, Dist::Cyclic), (1, 1));
        assert_eq!(processor_grid(12, Dist::Block, Dist::Block), (3, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_out_of_range_panics() {
        Dist::Block.map(8, 8, 4);
    }
}
