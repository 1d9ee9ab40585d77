//! The per-IOP block cache used by the traditional-caching file system —
//! now a policy-parameterized subsystem rather than a single design point.
//!
//! From §4 of the paper: "Each IOP managed a cache that was large enough to
//! double-buffer an independent stream of requests from each CP to each disk.
//! The cache used an LRU-replacement strategy, prefetched one block ahead
//! after each read request, and flushed dirty buffers to disk when they were
//! full (i.e., after n bytes had been written to an n-byte buffer)."
//!
//! That sentence fixes three independent design choices — replacement,
//! prefetch, and write-back — which this module splits into three pluggable
//! policies, mirroring the `ddio_disk::sched` subsystem:
//!
//! * [`ReplacementPolicy`]: which resident block to evict (LRU, MRU, or a
//!   clock/second-chance sweep). Pinned and in-flight entries are never
//!   eligible under any policy.
//! * [`PrefetchPolicy`] / [`Prefetcher`]: which blocks to read ahead after a
//!   demand read (nothing, the paper's one-block-ahead, or a strided
//!   prefetcher that infers the per-disk stride of the request stream and
//!   runs several blocks ahead of it).
//! * [`WritePolicy`]: when dirty data goes back to disk (synchronous
//!   write-through, the paper's flush-when-full write-behind, or a
//!   high-watermark sweep that flushes only under cache pressure).
//!
//! A [`CacheConfig`] names one composition of the three; the paper's design
//! is [`CacheConfig::DEFAULT`] (`lru+one+onfull`), and the default
//! composition is behavior-identical (bit-exact in simulation) to the
//! pre-refactor hardwired cache.
//!
//! The cache here stores block *state*, not the data itself (the simulation
//! carries descriptors, never user bytes). Concurrency is cooperative: an
//! entry being fetched is in the filling state and carries an event that
//! other interested request threads wait on.
//!
//! Internally the cache is allocation-free on its hot paths (see DESIGN.md
//! §10) and built from three mechanisms: entries live in a slab (`Vec` +
//! free list), std's `HashMap` maps each block to its slot, and one
//! intrusive doubly-linked list threads the slab. Under LRU and MRU the list
//! is in recency order, so both pick their victim by walking it from one
//! end; under clock a hit does not move an entry, so the list stays in
//! insertion order and the clock hand sweeps it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ddio_sim::sync::CountdownEvent;

ddio_sim::policy_enum! {
    /// The replacement policy: which unpinned resident block makes room.
    pub enum ReplacementPolicy {
        /// Least recently used — the paper's choice.
        #[default]
        Lru = "lru",
        /// Most recently used: evict the block touched last. Counterintuitive
        /// for general workloads but optimal for single-pass streams larger than
        /// the cache, where LRU evicts exactly the block about to be re-read.
        Mru = "mru",
        /// Clock (second chance): a circular sweep over the entries in insertion
        /// order; a referenced entry gets its bit cleared and one more lap, the
        /// first unreferenced entry is the victim. An O(1)-amortized LRU
        /// approximation, as most real file systems implement.
        Clock = "clock",
    }
}

ddio_sim::policy_enum! {
    /// The prefetch policy: what to read ahead after each demand read.
    pub enum PrefetchPolicy {
        /// No prefetching.
        None = "none",
        /// One block ahead on the same disk — the paper's choice.
        #[default]
        OneAhead = "one",
        /// Infer each disk stream's stride from consecutive demand reads and,
        /// once the stride repeats, prefetch four blocks ahead along it (the
        /// [`Prefetcher::DEPTH`] pipeline depth).
        Strided = "strided",
    }
}

ddio_sim::policy_enum! {
    /// The write-back policy: when dirty cache data is flushed to disk.
    pub enum WritePolicy {
        /// Synchronous write-through: every write request's data goes to disk
        /// before the reply. No write-behind overlap, but nothing is ever lost
        /// to a late flush.
        Through = "through",
        /// Flush a block (in the background) once every byte of it has been
        /// written — the paper's write-behind.
        #[default]
        FlushOnFull = "onfull",
        /// Let dirty blocks accumulate and flush them (lowest block first, in
        /// the background) only when more than
        /// [`WritePolicy::high_watermark`] of the cache is dirty, stopping at
        /// the low watermark — batch write-back under cache pressure.
        Watermark = "watermark",
    }
}

/// What the write policy wants done after a write request is absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAction {
    /// Keep the data cached; nothing to flush yet.
    None,
    /// Flush this request's bytes of the block before replying
    /// (write-through).
    FlushNow,
    /// Flush the now-full block in the background (write-behind).
    FlushBehind,
    /// Start a sweep flushing dirty blocks until the low watermark.
    FlushDirty,
}

impl WritePolicy {
    /// Dirty-block count at which [`WritePolicy::Watermark`] starts a flush
    /// sweep: three quarters of the capacity (at least one).
    pub fn high_watermark(capacity: usize) -> usize {
        (capacity * 3 / 4).max(1)
    }

    /// Dirty-block count at which a watermark sweep stops: half the
    /// capacity.
    pub fn low_watermark(capacity: usize) -> usize {
        capacity / 2
    }

    /// Decides what to do after a write left `written` of a block's `valid`
    /// bytes dirty, with `dirty_blocks` dirty blocks in a `capacity`-block
    /// cache.
    pub fn on_write(
        self,
        written: u64,
        valid: u64,
        dirty_blocks: usize,
        capacity: usize,
    ) -> WriteAction {
        match self {
            WritePolicy::Through => WriteAction::FlushNow,
            WritePolicy::FlushOnFull => {
                if written >= valid {
                    WriteAction::FlushBehind
                } else {
                    WriteAction::None
                }
            }
            WritePolicy::Watermark => {
                if dirty_blocks >= WritePolicy::high_watermark(capacity) {
                    WriteAction::FlushDirty
                } else {
                    WriteAction::None
                }
            }
        }
    }
}

/// One composition of the three cache policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CacheConfig {
    /// Which block makes room when the cache is full.
    pub replacement: ReplacementPolicy,
    /// What is read ahead after each demand read.
    pub prefetch: PrefetchPolicy,
    /// When dirty data is written back.
    pub write: WritePolicy,
}

impl CacheConfig {
    /// The paper's composition: LRU replacement, one-block-ahead prefetch,
    /// flush-on-full write-behind. [`crate::Method::TC`] runs this; its
    /// label (and therefore every derived cell seed and golden number) is
    /// unchanged from the pre-refactor cache.
    pub const DEFAULT: CacheConfig = CacheConfig {
        replacement: ReplacementPolicy::Lru,
        prefetch: PrefetchPolicy::OneAhead,
        write: WritePolicy::FlushOnFull,
    };

    /// The composition's label, e.g. `"lru+one+onfull"`; used in method
    /// labels (for non-default compositions) and reports.
    pub fn label(self) -> String {
        format!("{}+{}+{}", self.replacement, self.prefetch, self.write)
    }
}

impl std::fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why an entry is in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillReason {
    /// Fetched because a CP asked for it.
    Demand,
    /// Fetched by the prefetcher and not yet used by any demand request.
    Prefetch,
    /// Created to receive incoming write data (no disk read needed).
    WriteAllocate,
}

/// Outcome of a lookup.
pub enum Lookup {
    /// The block is resident or being filled; the entry is pinned for the
    /// caller. A block still being filled carries its fill latch, which the
    /// caller waits on before using the data.
    Hit(Option<CountdownEvent>),
    /// The block is absent; the caller should call
    /// [`BlockCache::insert_filling`] and fetch it.
    Miss,
}

/// A block evicted to make room; if dirty the caller must flush it to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted file block.
    pub block: u64,
    /// Whether the block still had unwritten data.
    pub dirty: bool,
    /// Bytes that had been written into it (for the flush request size).
    pub written_bytes: u64,
}

/// Cumulative cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block present or filling.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Blocks brought in by the prefetcher.
    pub prefetches: u64,
    /// Prefetched blocks that a demand request later hit.
    pub prefetch_used: u64,
    /// Prefetched blocks evicted before any demand request touched them.
    pub prefetch_wasted: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Evictions that had to flush dirty data first.
    pub dirty_evictions: u64,
    /// Times the cache had to exceed its configured capacity because every
    /// entry was pinned or filling.
    pub overflows: u64,
    /// Dirty-data flushes issued to disk (write-behind, write-through,
    /// watermark sweeps, eviction flushes, and the end-of-transfer sync).
    pub flushes: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self` (used to pool per-IOP stats).
    pub fn accumulate(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefetches += other.prefetches;
        self.prefetch_used += other.prefetch_used;
        self.prefetch_wasted += other.prefetch_wasted;
        self.evictions += other.evictions;
        self.dirty_evictions += other.dirty_evictions;
        self.overflows += other.overflows;
        self.flushes += other.flushes;
    }

    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The prefetch half of the cache: observes the stream of demand reads and
/// names the blocks worth reading ahead, as its [`PrefetchPolicy`] says.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    policy: PrefetchPolicy,
    /// `strided` only, per disk (dense, indexed by disk id): the last demand
    /// block and the stride that led to it.
    last: Vec<Option<(u64, i64)>>,
}

impl Prefetcher {
    /// How many strides ahead `strided` prefetches once the stride is
    /// confirmed.
    pub const DEPTH: i64 = 4;

    /// A prefetcher for `policy` that has seen no demand read yet.
    pub fn new(policy: PrefetchPolicy) -> Self {
        Prefetcher {
            policy,
            last: Vec::new(),
        }
    }

    /// Called after each demand read of `block`, which lives on disk stream
    /// `disk`; `base_stride` is the file's striping interval (consecutive
    /// blocks on the same disk are `base_stride` apart). Appends candidate
    /// blocks to prefetch, in issue order, to `out` (cleared by the caller —
    /// a reusable buffer, so planning allocates nothing in steady state);
    /// the caller drops candidates that are past EOF or already cached.
    pub fn plan(&mut self, disk: usize, block: u64, base_stride: u64, out: &mut Vec<u64>) {
        match self.policy {
            PrefetchPolicy::None => {}
            PrefetchPolicy::OneAhead => out.push(block + base_stride),
            PrefetchPolicy::Strided => {
                if disk >= self.last.len() {
                    self.last.resize(disk + 1, None);
                }
                let prev = self.last[disk];
                let stride = prev.map(|(b, _)| block as i64 - b as i64);
                self.last[disk] = Some((block, stride.unwrap_or(0)));
                if let (Some((_, prev_stride)), Some(stride)) = (prev, stride) {
                    if stride == prev_stride && stride != 0 {
                        out.extend(
                            (1..=Self::DEPTH)
                                .filter_map(|k| u64::try_from(block as i64 + stride * k).ok()),
                        );
                    }
                }
            }
        }
    }
}

/// Sentinel for "no slot" in the intrusive list links and the clock hand.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached block's bookkeeping plus its links in the
/// intrusive list.
struct Slot {
    /// True while the slot holds a live entry.
    occupied: bool,
    /// File block number.
    block: u64,
    /// Distinct bytes written into the block since its last flush.
    written_bytes: u64,
    /// Request threads currently using the entry (pinned entries are never
    /// evicted).
    pins: u32,
    /// True if the block has unwritten (dirty) data.
    dirty: bool,
    /// Clock second-chance bit (set on every hit; only clock reads it).
    referenced: bool,
    /// Why the block was brought in. A prefetched entry flips to `Demand`
    /// on its first demand hit (counting it as used).
    reason: FillReason,
    /// The fill latch (a count of one) while a disk read is in flight;
    /// `None` once present.
    fill: Option<CountdownEvent>,
    /// Intrusive list: previous (older) slot, or [`NIL`].
    prev: u32,
    /// Intrusive list: next (newer) slot, or [`NIL`].
    next: u32,
}

impl Slot {
    /// Evictability under every policy: unpinned and fully fetched.
    fn evictable(&self) -> bool {
        self.pins == 0 && self.fill.is_none()
    }
}

/// The block map's hasher: a Fibonacci multiply of the block number, with
/// the high half folded into the low half. std's map takes the bucket from
/// the low bits of the hash and a tag from its top seven, and the blocks on
/// one disk differ by `n_disks`, often a power of two: unfolded, the product
/// of such a stride has constant low bits and would crowd a few buckets.
/// There is no per-process random seed, so the simulator stays
/// deterministic.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the block map hashes only u64 block numbers")
    }

    fn write_u64(&mut self, block: u64) {
        let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// The policy-composed block cache.
pub struct BlockCache {
    capacity: usize,
    config: CacheConfig,
    /// Entry slab; freed slots are recycled via `free`, so the steady state
    /// allocates nothing per insert/evict.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Block → slot for every live entry. It allocates nothing until the
    /// first insert and grows with the blocks actually cached, not with the
    /// capacity.
    map: HashMap<u64, u32, BuildHasherDefault<BlockHasher>>,
    /// Intrusive list: the least recently touched slot (LRU/MRU), or the
    /// oldest insert (clock).
    head: u32,
    /// Intrusive list: the other end.
    tail: u32,
    /// Clock hand: the next slot the sweep examines, [`NIL`] meaning the
    /// list head (always `NIL` under LRU and MRU).
    hand: u32,
    /// Number of entries currently dirty, maintained incrementally so the
    /// per-write-request [`BlockCache::dirty_count`] is O(1).
    dirty: usize,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks (soft limit; see
    /// [`CacheStats::overflows`]) under the paper's default policies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        BlockCache::with_config(capacity, CacheConfig::DEFAULT)
    }

    /// Creates a cache with an explicit policy composition.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_config(capacity: usize, config: CacheConfig) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        // Nothing is sized from the capacity: the paper's capacity scales
        // with the machine (2 buffers per disk per CP), but a transfer caches
        // at most the file's blocks, so the slab and map grow on demand.
        BlockCache {
            capacity,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            map: HashMap::default(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    // ---- intrusive list ----------------------------------------------

    fn list_detach(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn list_push_tail(&mut self, idx: u32) {
        let old_tail = self.tail;
        let slot = &mut self.slots[idx as usize];
        slot.prev = old_tail;
        slot.next = NIL;
        if old_tail == NIL {
            self.head = idx;
        } else {
            self.slots[old_tail as usize].next = idx;
        }
        self.tail = idx;
    }

    /// The slot of a block the caller holds; `op` names the caller in the
    /// panic.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not cached (a protocol bug: the IOP server only
    /// touches blocks it has pinned).
    fn slot_mut(&mut self, block: u64, op: &str) -> &mut Slot {
        match self.map.get(&block) {
            Some(&idx) => &mut self.slots[idx as usize],
            None => panic!("{op} on uncached block {block}"),
        }
    }

    /// The configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The policy composition this cache runs.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of blocks currently cached (including ones being filled).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of blocks currently holding dirty data (the input of the
    /// watermark write policy).
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Counts one dirty-data flush issued to disk (called by the IOP server
    /// on every cache-originated write).
    pub fn note_flush(&mut self) {
        self.stats.flushes += 1;
    }

    /// Returns true if `block` is resident or being filled (without touching
    /// recency or stats) — used by the prefetcher to avoid duplicate fetches.
    pub fn contains(&self, block: u64) -> bool {
        self.map.contains_key(&block)
    }

    /// Looks up `block`, updating recency and hit/miss statistics. On a hit
    /// the entry is pinned; the caller must call [`BlockCache::unpin`] when
    /// done with it.
    pub fn lookup(&mut self, block: u64) -> Lookup {
        let Some(&idx) = self.map.get(&block) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        self.stats.hits += 1;
        let slot = &mut self.slots[idx as usize];
        if slot.reason == FillReason::Prefetch {
            self.stats.prefetch_used += 1;
            slot.reason = FillReason::Demand;
        }
        slot.pins += 1;
        slot.referenced = true;
        let fill = slot.fill.clone();
        // Clock keeps the list in insertion order (the order its hand
        // sweeps); LRU and MRU keep it in recency order.
        if self.config.replacement != ReplacementPolicy::Clock {
            self.list_detach(idx);
            self.list_push_tail(idx);
        }
        Lookup::Hit(fill)
    }

    /// Inserts a new entry in the filling state (pinned), evicting a block
    /// chosen by the replacement policy if the cache is full. The caller
    /// receives the evicted block (if any) and must flush it if dirty, then
    /// perform the disk read, then call [`BlockCache::mark_present`].
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached.
    pub fn insert_filling(&mut self, block: u64, reason: FillReason) -> Option<Evicted> {
        assert!(!self.contains(block), "block {block} already cached");
        let evicted = self.make_room();
        if reason == FillReason::Prefetch {
            self.stats.prefetches += 1;
        }
        let slot = Slot {
            occupied: true,
            block,
            written_bytes: 0,
            pins: 1,
            dirty: false,
            referenced: false,
            reason,
            fill: Some(CountdownEvent::new(1)),
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.list_push_tail(idx);
        self.map.insert(block, idx);
        evicted
    }

    /// Marks a filling entry as resident and wakes every waiter.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not cached.
    pub fn mark_present(&mut self, block: u64) {
        if let Some(event) = self.slot_mut(block, "mark_present").fill.take() {
            event.signal();
        }
    }

    /// Unpins an entry previously returned by [`BlockCache::lookup`] or
    /// [`BlockCache::insert_filling`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is not cached or not pinned: a pinned entry is
    /// never evicted, so either is a protocol bug.
    pub fn unpin(&mut self, block: u64) {
        let slot = self.slot_mut(block, "unpin");
        assert!(slot.pins > 0, "unpin of unpinned block {block}");
        slot.pins -= 1;
    }

    /// Records `len` bytes written into `block`; returns the total distinct
    /// bytes written so far (the write policy decides what to flush when).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not cached.
    pub fn record_write(&mut self, block: u64, len: u64) -> u64 {
        let slot = self.slot_mut(block, "record_write");
        slot.written_bytes += len;
        let written = slot.written_bytes;
        if !std::mem::replace(&mut slot.dirty, true) {
            self.dirty += 1;
        }
        written
    }

    /// Marks `block` clean again after *all* of its dirty data reached the
    /// disk (full-block write-behind, the end-of-transfer sync). For a flush
    /// of a point-in-time snapshot that concurrent writes may have outrun,
    /// use [`BlockCache::complete_flush`]. No-op if the block is no longer
    /// cached.
    pub fn mark_clean(&mut self, block: u64) {
        if let Some(&idx) = self.map.get(&block) {
            let slot = &mut self.slots[idx as usize];
            if slot.dirty {
                self.dirty -= 1;
            }
            slot.dirty = false;
            slot.written_bytes = 0;
        }
    }

    /// Records that `flushed` bytes of `block` reached the disk: subtracts
    /// them from the dirty accounting, leaving the block dirty if writes
    /// landed while the flush was in flight (those bytes still need a later
    /// flush). No-op if the block was evicted mid-flight (the eviction path
    /// flushed it again itself).
    pub fn complete_flush(&mut self, block: u64, flushed: u64) {
        if let Some(&idx) = self.map.get(&block) {
            let slot = &mut self.slots[idx as usize];
            slot.written_bytes = slot.written_bytes.saturating_sub(flushed);
            let still_dirty = slot.written_bytes > 0;
            if slot.dirty && !still_dirty {
                self.dirty -= 1;
            }
            slot.dirty = still_dirty;
        }
    }

    /// Blocks that still hold unwritten (dirty) data, with their written byte
    /// counts, in block order. Used by the end-of-transfer sync.
    pub fn dirty_blocks(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.occupied && s.dirty)
            .map(|s| (s.block, s.written_bytes))
            .collect();
        v.sort_unstable();
        v
    }

    /// The lowest-numbered block that still holds dirty data, with its
    /// written byte count: the first of [`BlockCache::dirty_blocks`],
    /// without building the list.
    pub fn lowest_dirty(&self) -> Option<(u64, u64)> {
        self.slots
            .iter()
            .filter(|s| s.occupied && s.dirty)
            .map(|s| (s.block, s.written_bytes))
            .min()
    }

    /// Evicts the replacement policy's victim among the unpinned, non-filling
    /// entries if the cache is at capacity. Returns what was evicted, or
    /// `None` if nothing needed to be (or could be) evicted.
    fn make_room(&mut self) -> Option<Evicted> {
        if self.len() < self.capacity {
            return None;
        }
        let victim = match self.config.replacement {
            // The list runs least → most recent, so LRU's victim is the
            // first evictable slot from the head and MRU's from the tail.
            ReplacementPolicy::Lru => self.first_evictable(self.head, |s| s.next),
            ReplacementPolicy::Mru => self.first_evictable(self.tail, |s| s.prev),
            ReplacementPolicy::Clock => self.clock_pick(),
        };
        let Some(idx) = victim else {
            // Everything is pinned or in flight; allow a temporary overflow
            // rather than deadlocking.
            self.stats.overflows += 1;
            return None;
        };
        let slot = &mut self.slots[idx as usize];
        slot.occupied = false;
        let evicted = Evicted {
            block: slot.block,
            dirty: slot.dirty,
            written_bytes: slot.written_bytes,
        };
        self.stats.evictions += 1;
        if slot.dirty {
            self.stats.dirty_evictions += 1;
            self.dirty -= 1;
        }
        if slot.reason == FillReason::Prefetch {
            self.stats.prefetch_wasted += 1;
        }
        self.map.remove(&evicted.block);
        self.list_detach(idx);
        self.free.push(idx);
        Some(evicted)
    }

    /// The first evictable slot on the list from `start`, following `step`.
    fn first_evictable(&self, start: u32, step: fn(&Slot) -> u32) -> Option<u32> {
        let mut i = start;
        while i != NIL {
            let s = &self.slots[i as usize];
            if s.evictable() {
                return Some(i);
            }
            i = step(s);
        }
        None
    }

    /// Clock / second chance: the hand sweeps the list in insertion order,
    /// wrapping at the tail; an evictable entry referenced since the last
    /// sweep gets its bit cleared and one more lap, the first unreferenced
    /// evictable entry is the victim. The victim is the slot the hand just
    /// passed, so unlinking it never moves the hand.
    fn clock_pick(&mut self) -> Option<u32> {
        // At most two laps: the first clears every referenced bit among the
        // evictable entries, so the second must find a victim. Two laps
        // with nothing evictable clear no bit and end where they began.
        for _ in 0..2 * self.len() {
            let idx = if self.hand == NIL {
                self.head
            } else {
                self.hand
            };
            let slot = &mut self.slots[idx as usize];
            self.hand = slot.next;
            if !slot.evictable() {
                continue;
            }
            if slot.referenced {
                slot.referenced = false; // second chance
                continue;
            }
            return Some(idx);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = BlockCache::new(4);
        assert!(matches!(c.lookup(7), Lookup::Miss));
        let evicted = c.insert_filling(7, FillReason::Demand);
        assert!(evicted.is_none());
        c.mark_present(7);
        c.unpin(7);
        assert!(
            matches!(c.lookup(7), Lookup::Hit(None)),
            "a present entry hits with no fill latch"
        );
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_picks_the_oldest_unpinned_block() {
        let mut c = BlockCache::new(2);
        for b in [1u64, 2] {
            c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Touch block 1 so block 2 becomes LRU.
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let evicted = c.insert_filling(3, FillReason::Demand);
        assert_eq!(
            evicted,
            Some(Evicted {
                block: 2,
                dirty: false,
                written_bytes: 0
            })
        );
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn mru_eviction_picks_the_newest_unpinned_block() {
        let mut c = BlockCache::with_config(
            2,
            CacheConfig {
                replacement: ReplacementPolicy::Mru,
                ..CacheConfig::DEFAULT
            },
        );
        for b in [1u64, 2] {
            c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Touch block 1 so it becomes MRU — and therefore the victim.
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let evicted = c.insert_filling(3, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(1));
        assert!(c.contains(2));
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = BlockCache::with_config(
            3,
            CacheConfig {
                replacement: ReplacementPolicy::Clock,
                ..CacheConfig::DEFAULT
            },
        );
        for b in [1u64, 2, 3] {
            c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Reference block 1; the hand starts at 1, clears its bit, and
        // evicts 2 (the first unreferenced entry in insertion order).
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let evicted = c.insert_filling(4, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(2));
        assert!(c.contains(1) && c.contains(3));
        // Next eviction continues the sweep from the hand: 3 is next and
        // unreferenced.
        let evicted = c.insert_filling(5, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(3));
    }

    #[test]
    fn pinned_blocks_are_never_evicted() {
        for policy in ReplacementPolicy::ALL {
            let mut c = BlockCache::with_config(
                1,
                CacheConfig {
                    replacement: policy,
                    ..CacheConfig::DEFAULT
                },
            );
            c.insert_filling(1, FillReason::Demand);
            c.mark_present(1); // still pinned (never unpinned)
            let evicted = c.insert_filling(2, FillReason::Demand);
            assert!(evicted.is_none(), "{policy} evicted a pinned block");
            assert_eq!(c.len(), 2, "cache allowed a temporary overflow");
            assert_eq!(c.stats().overflows, 1);
        }
    }

    #[test]
    fn block_map_starts_small_and_grows_with_the_blocks_cached() {
        use std::collections::HashSet;

        // A machine-sized capacity costs nothing up front.
        let c = BlockCache::with_config(1 << 20, CacheConfig::DEFAULT);
        assert_eq!(c.map.capacity(), 0);
        assert_eq!(c.slots.capacity(), 0);

        // The cache holds exactly the model's blocks.
        fn agrees(c: &BlockCache, model: &HashSet<u64>) {
            assert_eq!(c.len(), model.len());
            for block in 0..10_000 {
                assert_eq!(c.contains(block), model.contains(&block), "block {block}");
            }
        }
        let mut c = BlockCache::new(48);
        let mut model = HashSet::new();
        // Fill past capacity with entries still filling (pinned), so every
        // insert past the 48th overflows and the map must grow.
        let blocks: Vec<u64> = (0..300).map(|i| i * 37 % 4001).collect();
        for &block in &blocks {
            assert!(
                c.insert_filling(block, FillReason::Demand).is_none(),
                "evicted a pinned block"
            );
            model.insert(block);
        }
        assert_eq!(c.stats().overflows, 300 - 48);
        assert!(
            c.map.capacity() >= 300,
            "300 blocks in {}",
            c.map.capacity()
        );
        agrees(&c, &model);
        // Drain: release every pin, so each entry becomes evictable.
        for (i, &block) in blocks.iter().enumerate() {
            c.mark_present(block);
            c.unpin(block);
            if i % 50 == 0 {
                agrees(&c, &model);
            }
        }
        // Refill with other blocks, now evicting one per insert.
        for block in (1..400).map(|i| 5000 + i * 11 % 4093) {
            let evicted = c.insert_filling(block, FillReason::Demand);
            c.mark_present(block);
            c.unpin(block);
            let e = evicted.expect("an over-full cache with unpinned entries evicts");
            assert!(model.remove(&e.block), "evicted uncached {}", e.block);
            model.insert(block);
        }
        assert_eq!(c.len(), 300);
        agrees(&c, &model);
    }

    #[test]
    fn dirty_blocks_report_dirty_on_eviction() {
        let mut c = BlockCache::new(1);
        c.insert_filling(5, FillReason::WriteAllocate);
        c.mark_present(5);
        c.record_write(5, 4096);
        c.unpin(5);
        assert_eq!(c.dirty_count(), 1);
        let evicted = c.insert_filling(6, FillReason::Demand);
        assert_eq!(
            evicted,
            Some(Evicted {
                block: 5,
                dirty: true,
                written_bytes: 4096
            })
        );
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn complete_flush_keeps_overlapped_writes_dirty() {
        let mut c = BlockCache::new(2);
        c.insert_filling(9, FillReason::WriteAllocate);
        c.mark_present(9);
        c.record_write(9, 4096);
        assert_eq!(c.dirty_count(), 1);
        // A 4096-byte flush completes, but 2048 more bytes landed while it
        // was in flight: the block must stay dirty with the remainder.
        c.record_write(9, 2048);
        c.complete_flush(9, 4096);
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.dirty_blocks(), vec![(9, 2048)]);
        // Flushing the remainder cleans it; over-flushing saturates.
        c.complete_flush(9, 4096);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.dirty_blocks().is_empty());
        // A flush completing after its block was evicted is a no-op.
        c.complete_flush(42, 4096);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn dirty_count_tracks_evictions_and_removals() {
        let mut c = BlockCache::new(1);
        c.insert_filling(1, FillReason::WriteAllocate);
        c.mark_present(1);
        c.record_write(1, 8);
        c.unpin(1);
        assert_eq!(c.dirty_count(), 1);
        // Evicting the dirty block drops the counter with it.
        let evicted = c.insert_filling(2, FillReason::Demand);
        assert!(evicted.unwrap().dirty);
        assert_eq!(c.dirty_count(), 0);
        c.mark_present(2);
        c.record_write(2, 8);
        c.unpin(2);
        assert_eq!(c.dirty_count(), 1);
        // Cleaning an uncached block changes nothing; cleaning 2 drops it.
        c.mark_clean(1);
        assert_eq!(c.dirty_count(), 1);
        c.mark_clean(2);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn record_write_accumulates_until_full() {
        let mut c = BlockCache::new(2);
        c.insert_filling(9, FillReason::WriteAllocate);
        c.mark_present(9);
        assert_eq!(c.record_write(9, 4096), 4096);
        assert_eq!(c.record_write(9, 4096), 8192);
        c.mark_clean(9);
        assert_eq!(c.record_write(9, 8), 8);
        assert_eq!(c.dirty_blocks(), vec![(9, 8)]);
    }

    #[test]
    fn filling_entries_expose_their_event_to_waiters() {
        let mut c = BlockCache::new(2);
        c.insert_filling(3, FillReason::Demand);
        let Lookup::Hit(Some(event)) = c.lookup(3) else {
            panic!("a filling entry hits with its fill latch");
        };
        assert_eq!(event.remaining(), 1);
        c.mark_present(3);
        assert_eq!(event.remaining(), 0);
        assert!(
            matches!(c.lookup(3), Lookup::Hit(None)),
            "present entry has no fill"
        );
    }

    #[test]
    fn clock_sweeps_in_insertion_order_and_an_idle_sweep_changes_nothing() {
        let mut c = BlockCache::with_config(
            2,
            CacheConfig {
                replacement: ReplacementPolicy::Clock,
                ..CacheConfig::DEFAULT
            },
        );
        for b in [1u64, 2] {
            c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Hit 2 then 1, keeping both pinned: hits do not reorder the sweep,
        // and with nothing evictable the next insert overflows.
        for b in [2u64, 1] {
            assert!(matches!(c.lookup(b), Lookup::Hit(None)));
        }
        assert!(c.insert_filling(3, FillReason::Demand).is_none());
        assert_eq!(c.stats().overflows, 1);
        for b in [1u64, 2] {
            c.unpin(b);
        }
        c.mark_present(3);
        c.unpin(3);
        // The idle sweep cleared no bit and left the hand at the head: 1 and
        // 2 get their second chance, and 3 (never hit) is the victim.
        let evicted = c.insert_filling(4, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(3));
        // 3 was the tail, so the hand wraps to the head: 1, its bit now
        // clear, goes next.
        c.mark_present(4);
        c.unpin(4);
        let evicted = c.insert_filling(5, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(1));
    }

    #[test]
    #[should_panic(expected = "unpin on uncached block 3")]
    fn unpin_of_an_uncached_block_panics() {
        let mut c = BlockCache::new(2);
        c.unpin(3);
    }

    #[test]
    fn prefetch_lifecycle_is_counted() {
        let mut c = BlockCache::new(2);
        // Prefetch two blocks; use one, then evict the other untouched.
        for b in [1u64, 2] {
            c.insert_filling(b, FillReason::Prefetch);
            c.mark_present(b);
            c.unpin(b);
        }
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let evicted = c.insert_filling(3, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(2));
        let s = c.stats();
        assert_eq!(s.prefetches, 2);
        assert_eq!(s.prefetch_used, 1);
        assert_eq!(s.prefetch_wasted, 1);
        // A second hit on block 1 is an ordinary hit, not another "used".
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        assert_eq!(c.stats().prefetch_used, 1);
    }

    /// Test shim: collect a prefetcher's plan into a fresh Vec.
    fn plan(p: &mut Prefetcher, disk: usize, block: u64, base_stride: u64) -> Vec<u64> {
        let mut out = Vec::new();
        p.plan(disk, block, base_stride, &mut out);
        out
    }

    #[test]
    fn one_ahead_prefetcher_matches_the_paper() {
        let mut p = Prefetcher::new(PrefetchPolicy::OneAhead);
        assert_eq!(plan(&mut p, 0, 10, 16), vec![26]);
        assert_eq!(
            plan(&mut Prefetcher::new(PrefetchPolicy::None), 0, 10, 16),
            vec![]
        );
    }

    #[test]
    fn strided_prefetcher_locks_onto_a_repeating_stride() {
        let p = &mut Prefetcher::new(PrefetchPolicy::Strided);
        assert_eq!(plan(p, 0, 0, 16), vec![], "first read: no history");
        assert_eq!(plan(p, 0, 16, 16), vec![], "one stride seen: tentative");
        assert_eq!(
            plan(p, 0, 32, 16),
            vec![48, 64, 80, 96],
            "stride confirmed: run ahead"
        );
        // A different disk's stream is tracked independently.
        assert_eq!(plan(p, 1, 100, 16), vec![]);
        // Breaking the stride resets confidence.
        assert_eq!(plan(p, 0, 5, 16), vec![]);
        // Negative strides work too (reverse scans).
        assert_eq!(plan(p, 0, 1, 16), vec![]);
        // Candidates below zero are dropped.
        assert_eq!(plan(p, 0, 0, 16), vec![], "stride changed (-4 vs -1)");
    }

    #[test]
    fn write_policy_actions() {
        use WriteAction::*;
        assert_eq!(WritePolicy::Through.on_write(8, 8192, 0, 8), FlushNow);
        assert_eq!(WritePolicy::FlushOnFull.on_write(8191, 8192, 7, 8), None);
        assert_eq!(
            WritePolicy::FlushOnFull.on_write(8192, 8192, 1, 8),
            FlushBehind
        );
        assert_eq!(WritePolicy::Watermark.on_write(8192, 8192, 5, 8), None);
        assert_eq!(
            WritePolicy::Watermark.on_write(1, 8192, 6, 8),
            FlushDirty,
            "6 dirty of 8 is past the 3/4 watermark"
        );
        assert_eq!(WritePolicy::high_watermark(8), 6);
        assert_eq!(WritePolicy::low_watermark(8), 4);
        assert_eq!(WritePolicy::high_watermark(1), 1);
    }

    #[test]
    fn cache_set_filters_by_union_of_partial_matches() {
        use crate::experiment::scenario::{find, SweepParams};
        let cells = (find("cache-sweep").unwrap().build)(&SweepParams::default());
        // A cell names each cache dimension as its own coordinate, so a
        // clause on one dimension is a wildcard over the other two, its
        // values are a union, and a cacheless cell has no such coordinate.
        let kept = |axis: &str, values: &[&str]| -> Vec<Option<CacheConfig>> {
            cells
                .iter()
                .filter(|c| {
                    c.coordinates()
                        .iter()
                        .all(|(a, v)| *a != axis || values.contains(&v.as_str()))
                })
                .map(|c| c.method.cache())
                .collect()
        };
        let mru = CacheConfig {
            replacement: ReplacementPolicy::Mru,
            ..CacheConfig::DEFAULT
        };
        let clock = CacheConfig {
            replacement: ReplacementPolicy::Clock,
            ..CacheConfig::DEFAULT
        };
        let strided = CacheConfig {
            prefetch: PrefetchPolicy::Strided,
            ..CacheConfig::DEFAULT
        };
        let union = kept("replacement", &["mru", "clock"]);
        assert!(union.contains(&Some(mru)) && union.contains(&Some(clock)));
        assert!(union.contains(&None), "the cacheless baseline survives");
        assert!(!union.contains(&Some(CacheConfig::DEFAULT)));
        assert!(!union.contains(&Some(strided)));
        let partial = kept("prefetch", &["strided"]);
        assert!(partial.contains(&Some(strided)));
        assert!(partial.iter().flatten().all(|k| *k == strided));
        for c in &cells {
            let named = c.coordinates().iter().any(|(a, _)| *a == "replacement");
            assert_eq!(named, c.method.cache().is_some(), "{}", c.method.label());
        }
    }

    #[test]
    fn cache_config_labels_and_parsing() {
        assert_eq!(CacheConfig::DEFAULT.label(), "lru+one+onfull");
        assert_eq!(CacheConfig::default(), CacheConfig::DEFAULT);
        let composed = CacheConfig {
            replacement: ReplacementPolicy::Mru,
            prefetch: PrefetchPolicy::Strided,
            write: WritePolicy::Watermark,
        };
        assert_eq!(composed.label(), "mru+strided+watermark");
        assert_eq!(composed.to_string(), composed.label());
        for p in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::parse(p.name()), Some(p));
        }
        for p in PrefetchPolicy::ALL {
            assert_eq!(PrefetchPolicy::parse(p.name()), Some(p));
        }
        for p in WritePolicy::ALL {
            assert_eq!(WritePolicy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn stats_accumulate_and_hit_rate() {
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            flushes: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 1,
            misses: 3,
            prefetches: 5,
            ..CacheStats::default()
        };
        a.accumulate(b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 4);
        assert_eq!(a.prefetches, 5);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.hit_rate(), 0.5);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = BlockCache::new(2);
        let _ = c.insert_filling(1, FillReason::Demand);
        let _ = c.insert_filling(1, FillReason::Demand);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = BlockCache::new(0);
    }
}
