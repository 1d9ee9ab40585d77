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
        // Find insertion point by start offset.
        let idx = self.intervals.partition_point(|&(s, _)| s < start);
        // Check overlap with neighbours.
        if idx > 0 && self.intervals[idx - 1].1 > start {
            self.overlapped = true;
        }
        if idx < self.intervals.len() && self.intervals[idx].0 < end {
            self.overlapped = true;
        }
        self.intervals.insert(idx, (start, end));
        // Merge adjacent/overlapping intervals to keep the vector small.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.intervals.len());
        for &(s, e) in &self.intervals {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.intervals = merged;
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
