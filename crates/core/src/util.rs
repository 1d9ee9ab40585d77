//! Small utilities shared across the crate.

/// A set of byte intervals used to verify that transfers cover a buffer (or
/// the file) exactly once.
#[derive(Debug, Default, Clone)]
pub struct IntervalSet {
    /// Sorted, non-overlapping intervals `[start, end)`.
    intervals: Vec<(u64, u64)>,
    /// Whether any insertion overlapped an existing interval.
    overlapped: bool,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `[start, start + len)`, recording whether it overlaps anything
    /// already present.
    pub fn add(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        // Find the insertion point by start offset: only the interval before
        // it can start earlier and still reach `start`.
        let idx = self.intervals.partition_point(|&(s, _)| s < start);
        let before = idx.checked_sub(1).map(|i| self.intervals[i]);
        let after = self.intervals.get(idx);
        self.overlapped |=
            before.is_some_and(|(_, e)| e > start) || after.is_some_and(|&(s, _)| s < end);
        // Merge in place with every interval the new one overlaps or abuts.
        let lo = idx - usize::from(before.is_some_and(|(_, e)| e >= start));
        let hi = idx + self.intervals[idx..].partition_point(|&(s, _)| s <= end);
        let touched = &self.intervals[lo..hi];
        let merged = (
            touched.first().map_or(start, |&(s, _)| s.min(start)),
            touched.last().map_or(end, |&(_, e)| e.max(end)),
        );
        self.intervals.splice(lo..hi, [merged]);
    }

    /// Total bytes covered (overlaps counted once).
    pub fn covered_bytes(&self) -> u64 {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }

    /// True if any insertion overlapped previously inserted bytes.
    pub fn has_overlap(&self) -> bool {
        self.overlapped
    }

    /// True if the set covers exactly `[0, total)` with no overlap.
    pub fn covers_exactly(&self, total: u64) -> bool {
        !self.overlapped
            && ((total == 0 && self.intervals.is_empty())
                || (self.intervals.len() == 1 && self.intervals[0] == (0, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disjoint_pieces_merge_to_full_coverage() {
        let mut s = IntervalSet::new();
        s.add(100, 100);
        s.add(0, 100);
        s.add(200, 56);
        assert!(!s.has_overlap());
        assert_eq!(s.covered_bytes(), 256);
        assert!(s.covers_exactly(256));
        assert!(!s.covers_exactly(300));
    }

    #[test]
    fn overlap_is_detected() {
        let mut s = IntervalSet::new();
        s.add(0, 10);
        s.add(5, 10);
        assert!(s.has_overlap());
        assert!(!s.covers_exactly(15));
        assert_eq!(s.covered_bytes(), 15);
    }

    #[test]
    fn gaps_prevent_exact_coverage() {
        let mut s = IntervalSet::new();
        s.add(0, 10);
        s.add(20, 10);
        assert!(!s.has_overlap());
        assert!(!s.covers_exactly(30));
        assert_eq!(s.covered_bytes(), 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Insertions in any order, overlapping and adjacent ones included,
        /// leave exactly the maximal runs of a byte-set reference.
        #[test]
        fn add_matches_a_byte_set(pieces in prop::collection::vec((0u64..96, 0u64..24), 0..24)) {
            let mut set = IntervalSet::new();
            let mut bytes = [false; 128];
            let mut overlapped = false;
            for &(start, len) in &pieces {
                set.add(start, len);
                for b in &mut bytes[start as usize..(start + len) as usize] {
                    overlapped |= std::mem::replace(b, true);
                }
            }
            let mut runs: Vec<(u64, u64)> = Vec::new();
            for i in (0..bytes.len()).filter(|&i| bytes[i]).map(|i| i as u64) {
                match runs.last_mut() {
                    Some(run) if run.1 == i => run.1 += 1,
                    _ => runs.push((i, i + 1)),
                }
            }
            prop_assert_eq!(&set.intervals, &runs);
            prop_assert_eq!(set.has_overlap(), overlapped);
        }

        /// A tiling of `[0, total)` inserted in any order covers it exactly.
        #[test]
        fn shuffled_tilings_cover_exactly(
            pieces in prop::collection::vec((0u64..1000, 1u64..16), 1..16),
        ) {
            let mut total = 0;
            let mut tiles: Vec<(u64, u64, u64)> = pieces.iter().map(|&(key, len)| {
                total += len;
                (key, total - len, len)
            }).collect();
            tiles.sort_unstable();
            let mut set = IntervalSet::new();
            for &(_, start, len) in &tiles {
                set.add(start, len);
            }
            prop_assert!(set.covers_exactly(total));
            set.add(total - 1, 1);
            prop_assert!(set.has_overlap() && !set.covers_exactly(total));
        }
    }

    #[test]
    fn empty_set_covers_zero() {
        let s = IntervalSet::new();
        assert!(s.covers_exactly(0));
        assert_eq!(s.covered_bytes(), 0);
        let mut s = IntervalSet::new();
        s.add(0, 0);
        assert!(s.covers_exactly(0));
    }
}
