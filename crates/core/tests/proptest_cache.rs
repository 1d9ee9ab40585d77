//! Property-based tests of the policy-composed block cache: under every
//! replacement policy and arbitrary op sequences, pinned entries are never
//! evicted, the capacity is only exceeded when the overflow counter accounts
//! for it, and filling entries resolve (wake their waiters) exactly once.
//!
//! Two drivers run here:
//!
//! * `run_script` mirrors the IOP server's usage against a shadow model:
//!   inserts pin, lookups pin on hit (handing out the fill latch exactly
//!   while the block is filling), unpins release, and the evicted block
//!   returned by `insert_filling` is checked against the model's idea of
//!   evictability.
//! * `run_equivalence` replays the same random scripts against a naive
//!   `HashMap` + recency-stamp reference implementing the pre-slab
//!   algorithms verbatim (stamp ranking for LRU/MRU, ring + referenced-set
//!   for clock), asserting the slab/`HashMap`/one-list cache is
//!   *behavior-identical*: same hits, same victims, same overflows, same
//!   dirty set (and so the same lowest dirty block and dirty count the
//!   watermark sweep reads) — the bit-identical-goldens argument in
//!   executable form.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use ddio_core::cache::{BlockCache, CacheConfig, FillReason, Lookup, ReplacementPolicy};
use ddio_sim::sync::CountdownEvent;

/// One scripted cache operation; inapplicable ops are skipped, so any
/// `(action, block)` sequence is a valid script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup,
    Insert,
    MarkPresent,
    Unpin,
    Write,
    Clean,
    CompleteFlush,
}

impl Op {
    fn from_code(code: u8) -> Op {
        match code % 7 {
            0 => Op::Lookup,
            1 => Op::Insert,
            2 => Op::MarkPresent,
            3 => Op::Unpin,
            4 => Op::Write,
            5 => Op::Clean,
            _ => Op::CompleteFlush,
        }
    }
}

/// The model's view of one cached block.
struct ModelEntry {
    pins: u32,
    /// Distinct dirty bytes the model believes are unwritten.
    written: u64,
    /// True until `mark_present`.
    filling: bool,
    /// The fill latch a lookup handed out while filling (to check that
    /// `mark_present` resolves it).
    latch: Option<CountdownEvent>,
}

fn run_script(policy: ReplacementPolicy, capacity: usize, script: &[(u8, u64)]) {
    let config = CacheConfig {
        replacement: policy,
        ..CacheConfig::DEFAULT
    };
    let mut cache = BlockCache::with_config(capacity, config);
    let mut model: HashMap<u64, ModelEntry> = HashMap::new();
    let mut lookups = 0u64;

    for &(code, block) in script {
        match Op::from_code(code) {
            Op::Lookup => {
                lookups += 1;
                match cache.lookup(block) {
                    Lookup::Hit(fill) => {
                        let entry = model.get_mut(&block).expect("hit on unmodeled block");
                        entry.pins += 1;
                        assert_eq!(
                            fill.is_some(),
                            entry.filling,
                            "a hit carries the fill latch exactly while filling"
                        );
                        if let Some(event) = fill {
                            assert_eq!(event.remaining(), 1, "fill latch already resolved");
                            entry.latch = Some(event);
                        }
                    }
                    Lookup::Miss => {
                        assert!(!model.contains_key(&block), "miss on a modeled block");
                    }
                }
            }
            Op::Insert => {
                if model.contains_key(&block) {
                    continue;
                }
                let had_candidates = model.values().any(|e| e.pins == 0 && !e.filling);
                let at_capacity = model.len() >= capacity;
                let evicted = cache.insert_filling(block, FillReason::Demand);
                if let Some(ev) = evicted {
                    let victim = model.remove(&ev.block).expect("evicted unmodeled block");
                    assert_eq!(victim.pins, 0, "{policy} evicted a pinned block");
                    assert!(!victim.filling, "{policy} evicted a block mid-fill");
                } else if at_capacity {
                    assert!(
                        !had_candidates,
                        "{policy} overflowed with an evictable candidate present"
                    );
                }
                model.insert(
                    block,
                    ModelEntry {
                        pins: 1,
                        written: 0,
                        filling: true,
                        latch: None,
                    },
                );
            }
            Op::MarkPresent => {
                let Some(entry) = model.get_mut(&block) else {
                    continue;
                };
                if !std::mem::replace(&mut entry.filling, false) {
                    continue;
                }
                cache.mark_present(block);
                if let Some(event) = entry.latch.take() {
                    assert_eq!(
                        event.remaining(),
                        0,
                        "mark_present did not resolve the fill"
                    );
                }
            }
            Op::Unpin => {
                let Some(entry) = model.get_mut(&block) else {
                    continue;
                };
                if entry.pins == 0 {
                    continue;
                }
                cache.unpin(block);
                entry.pins -= 1;
            }
            Op::Write => {
                let Some(entry) = model.get_mut(&block) else {
                    continue;
                };
                entry.written += 64;
                assert_eq!(cache.record_write(block, 64), entry.written);
            }
            Op::Clean => {
                cache.mark_clean(block);
                if let Some(entry) = model.get_mut(&block) {
                    entry.written = 0;
                }
            }
            Op::CompleteFlush => {
                // Flush a 64-byte snapshot: the remainder must stay dirty.
                cache.complete_flush(block, 64);
                if let Some(entry) = model.get_mut(&block) {
                    entry.written = entry.written.saturating_sub(64);
                }
            }
        }

        // Global invariants after every op.
        assert_eq!(cache.len(), model.len(), "cache and model disagree");
        assert_eq!(
            cache.dirty_count(),
            model.values().filter(|e| e.written > 0).count(),
            "incremental dirty counter drifted from the model"
        );
        if cache.len() > capacity {
            let over = (cache.len() - capacity) as u64;
            assert!(
                cache.stats().overflows >= over,
                "{policy}: {} entries over capacity {} but only {} overflows recorded",
                cache.len(),
                capacity,
                cache.stats().overflows
            );
        }
        for (&b, _) in model.iter() {
            assert!(cache.contains(b), "modeled block {b} missing from cache");
        }
    }

    let s = cache.stats();
    assert_eq!(
        s.hits + s.misses,
        lookups,
        "every lookup is a hit or a miss"
    );
    assert!(
        s.dirty_evictions <= s.evictions,
        "dirty evictions are a subset of evictions"
    );
}

/// The pre-slab cache algorithms, verbatim: a naive `HashMap` of entries
/// with recency stamps ranked per lookup for LRU/MRU, and an insertion-order
/// ring with a referenced set for clock. The reference the rewrite must be
/// behavior-identical to.
struct RefCache {
    capacity: usize,
    policy: ReplacementPolicy,
    entries: HashMap<u64, RefEntry>,
    tick: u64,
    ring: Vec<u64>,
    hand: usize,
    referenced: HashSet<u64>,
    overflows: u64,
    evictions: u64,
}

struct RefEntry {
    filling: bool,
    written: u64,
    dirty: bool,
    pins: u32,
    recency: u64,
}

impl RefCache {
    fn new(policy: ReplacementPolicy, capacity: usize) -> RefCache {
        RefCache {
            capacity,
            policy,
            entries: HashMap::new(),
            tick: 0,
            ring: Vec::new(),
            hand: 0,
            referenced: HashSet::new(),
            overflows: 0,
            evictions: 0,
        }
    }

    /// True on hit (pinning, stamping, and marking referenced like the real
    /// cache).
    fn lookup(&mut self, block: u64) -> bool {
        self.tick += 1;
        let Some(e) = self.entries.get_mut(&block) else {
            return false;
        };
        e.recency = self.tick;
        e.pins += 1;
        self.referenced.insert(block);
        true
    }

    /// Inserts, returning the evicted block (if any).
    fn insert(&mut self, block: u64) -> Option<u64> {
        let victim = self.make_room();
        self.tick += 1;
        self.entries.insert(
            block,
            RefEntry {
                filling: true,
                written: 0,
                dirty: false,
                pins: 1,
                recency: self.tick,
            },
        );
        self.ring.push(block);
        victim
    }

    fn make_room(&mut self) -> Option<u64> {
        if self.entries.len() < self.capacity {
            return None;
        }
        let candidates: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0 && !e.filling)
            .map(|(&b, e)| (b, e.recency))
            .collect();
        let victim = match self.policy {
            ReplacementPolicy::Lru => candidates.iter().min_by_key(|c| c.1).map(|c| c.0),
            ReplacementPolicy::Mru => candidates.iter().max_by_key(|c| c.1).map(|c| c.0),
            ReplacementPolicy::Clock => {
                if candidates.is_empty() || self.ring.is_empty() {
                    None
                } else {
                    let evictable: HashSet<u64> = candidates.iter().map(|c| c.0).collect();
                    let mut found = None;
                    for _ in 0..2 * self.ring.len() {
                        let b = self.ring[self.hand];
                        self.hand = (self.hand + 1) % self.ring.len();
                        if !evictable.contains(&b) {
                            continue;
                        }
                        if self.referenced.remove(&b) {
                            continue;
                        }
                        found = Some(b);
                        break;
                    }
                    found
                }
            }
        };
        match victim {
            Some(b) => {
                self.evictions += 1;
                self.drop_block(b);
                Some(b)
            }
            None => {
                self.overflows += 1;
                None
            }
        }
    }

    fn drop_block(&mut self, block: u64) {
        self.entries.remove(&block);
        self.referenced.remove(&block);
        if let Some(idx) = self.ring.iter().position(|&b| b == block) {
            self.ring.remove(idx);
            if idx < self.hand {
                self.hand -= 1;
            }
            if self.ring.is_empty() {
                self.hand = 0;
            } else {
                self.hand %= self.ring.len();
            }
        }
    }

    fn dirty_blocks(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&b, e)| (b, e.written))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Replays a script against the rewrite and the reference, asserting
/// identical observable behavior at every step.
fn run_equivalence(policy: ReplacementPolicy, capacity: usize, script: &[(u8, u64)]) {
    let mut cache = BlockCache::with_config(
        capacity,
        CacheConfig {
            replacement: policy,
            ..CacheConfig::DEFAULT
        },
    );
    let mut reference = RefCache::new(policy, capacity);

    for &(code, block) in script {
        match Op::from_code(code) {
            Op::Lookup => {
                let hit = matches!(cache.lookup(block), Lookup::Hit(_));
                assert_eq!(hit, reference.lookup(block), "hit/miss diverged");
            }
            Op::Insert => {
                if reference.entries.contains_key(&block) {
                    continue;
                }
                let evicted = cache.insert_filling(block, FillReason::Demand);
                let ref_victim = reference.insert(block);
                assert_eq!(
                    evicted.map(|e| e.block),
                    ref_victim,
                    "{policy} victim diverged from the reference algorithm"
                );
            }
            Op::MarkPresent => {
                if let Some(e) = reference.entries.get_mut(&block) {
                    e.filling = false;
                    cache.mark_present(block);
                }
            }
            Op::Unpin => {
                if let Some(e) = reference.entries.get_mut(&block) {
                    if e.pins > 0 {
                        e.pins -= 1;
                        cache.unpin(block);
                    }
                }
            }
            Op::Write => {
                if let Some(e) = reference.entries.get_mut(&block) {
                    e.written += 64;
                    e.dirty = true;
                    assert_eq!(cache.record_write(block, 64), e.written);
                }
            }
            Op::Clean => {
                cache.mark_clean(block);
                if let Some(e) = reference.entries.get_mut(&block) {
                    e.written = 0;
                    e.dirty = false;
                }
            }
            Op::CompleteFlush => {
                cache.complete_flush(block, 64);
                if let Some(e) = reference.entries.get_mut(&block) {
                    e.written = e.written.saturating_sub(64);
                    e.dirty = e.written > 0;
                }
            }
        }

        assert_eq!(cache.len(), reference.entries.len(), "len diverged");
        let dirty = reference.dirty_blocks();
        assert_eq!(cache.dirty_blocks(), dirty, "dirty set diverged");
        assert_eq!(
            cache.lowest_dirty(),
            dirty.first().copied(),
            "lowest dirty block diverged"
        );
        assert_eq!(cache.dirty_count(), dirty.len(), "dirty count diverged");
    }

    let s = cache.stats();
    assert_eq!(s.evictions, reference.evictions, "eviction count diverged");
    assert_eq!(s.overflows, reference.overflows, "overflow count diverged");
}

fn arb_script() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..=255, 0u64..12), 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lru_cache_invariants(capacity in 1usize..6, script in arb_script()) {
        run_script(ReplacementPolicy::Lru, capacity, &script);
    }

    #[test]
    fn mru_cache_invariants(capacity in 1usize..6, script in arb_script()) {
        run_script(ReplacementPolicy::Mru, capacity, &script);
    }

    #[test]
    fn clock_cache_invariants(capacity in 1usize..6, script in arb_script()) {
        run_script(ReplacementPolicy::Clock, capacity, &script);
    }

    /// The slab/`HashMap`/one-list cache is behavior-identical to the naive
    /// reference under every policy, including overflow (tiny capacities),
    /// pinned entries, and mid-fill states.
    #[test]
    fn slab_cache_matches_naive_reference(
        policy_idx in 0usize..3,
        capacity in 1usize..6,
        script in arb_script(),
    ) {
        run_equivalence(ReplacementPolicy::ALL[policy_idx], capacity, &script);
    }

    /// The same, at capacities big enough to exercise map growth and slot
    /// recycling rather than constant eviction pressure.
    #[test]
    fn slab_cache_matches_reference_at_scale(
        policy_idx in 0usize..3,
        script in proptest::collection::vec((0u8..=255, 0u64..96), 1..300),
    ) {
        run_equivalence(ReplacementPolicy::ALL[policy_idx], 32, &script);
    }

    /// Unpinned single-pass streams never outgrow the cache: with every
    /// entry released before the next insert, `len` stays at or below
    /// capacity and nothing ever overflows.
    #[test]
    fn released_streams_never_overflow(
        policy_idx in 0usize..3,
        capacity in 1usize..6,
        blocks in proptest::collection::vec(0u64..64, 1..80),
    ) {
        let policy = ReplacementPolicy::ALL[policy_idx];
        let mut cache = BlockCache::with_config(capacity, CacheConfig {
            replacement: policy,
            ..CacheConfig::DEFAULT
        });
        for &b in &blocks {
            if cache.contains(b) {
                if let Lookup::Hit(_) = cache.lookup(b) {
                    cache.unpin(b);
                }
                continue;
            }
            cache.insert_filling(b, FillReason::Demand);
            cache.mark_present(b);
            cache.unpin(b);
            prop_assert!(cache.len() <= capacity, "{} exceeded capacity", policy);
        }
        prop_assert_eq!(cache.stats().overflows, 0);
    }
}
