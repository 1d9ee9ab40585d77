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
//! §10): entries live in a slab (`Vec` + free list) addressed by
//! generation-checked [`EntryId`] handles like the executor's `TaskId`, an
//! open-addressed block map replaces the old
//! `HashMap<u64, Rc<RefCell<CacheEntry>>>`, and recency is an intrusive
//! doubly-linked list threaded through the slab — the list order *is* the
//! recency order, so LRU/MRU pick their victim by walking it instead of
//! scanning and ranking every entry.

use ddio_sim::sync::CountdownEvent;

ddio_sim::policy_enum! {
    /// The replacement policy: which unpinned resident block makes room.
    pub enum ReplacementPolicy: "replacement policy" {
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
    pub enum PrefetchPolicy: "prefetch policy" {
        /// No prefetching.
        None = "none",
        /// One block ahead on the same disk — the paper's choice.
        #[default]
        OneAhead = "one",
        /// Infer each disk stream's stride from consecutive demand reads and,
        /// once the stride repeats, prefetch four blocks ahead along it (the
        /// `StridedPrefetcher` pipeline depth).
        Strided = "strided",
    }
}

impl PrefetchPolicy {
    /// Builds the prefetcher implementing this policy.
    pub fn prefetcher(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetchPolicy::None => Box::new(NoPrefetcher),
            PrefetchPolicy::OneAhead => Box::new(OneAheadPrefetcher),
            PrefetchPolicy::Strided => Box::new(StridedPrefetcher { last: Vec::new() }),
        }
    }
}

ddio_sim::policy_enum! {
    /// The write-back policy: when dirty cache data is flushed to disk.
    pub enum WritePolicy: "write policy" {
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
    /// Flush the block that was just written.
    FlushBlock,
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
            WritePolicy::Through => WriteAction::FlushBlock,
            WritePolicy::FlushOnFull => {
                if written >= valid {
                    WriteAction::FlushBlock
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

    /// Parses a `+`-separated composition. Each part names a replacement,
    /// prefetch, or write policy (`"mru+strided"`); unnamed dimensions keep
    /// their defaults, so `"mru"` is MRU with the default prefetch and
    /// write-back. `"default"` is the paper's composition.
    pub fn parse(s: &str) -> Result<CacheConfig, String> {
        const DIMENSIONS: [&str; 3] = ["replacement", "prefetch", "write"];
        let mut config = CacheConfig::DEFAULT;
        // Pinning the same dimension twice (`"lru+mru"`, `"default+clock"`)
        // is rejected rather than letting the later name win.
        let mut pinned = [false; 3];
        let mut pin = |dim: usize, part: &str| {
            if std::mem::replace(&mut pinned[dim], true) {
                Err(format!(
                    "{part:?} would pin the {} policy twice in {s:?}",
                    DIMENSIONS[dim]
                ))
            } else {
                Ok(())
            }
        };
        for part in s.split('+').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "default" {
                (0..3).try_for_each(|dim| pin(dim, part))?;
            } else if let Some(p) = ReplacementPolicy::parse(part) {
                pin(0, part)?;
                config.replacement = p;
            } else if let Some(p) = PrefetchPolicy::parse(part) {
                pin(1, part)?;
                config.prefetch = p;
            } else if let Some(p) = WritePolicy::parse(part) {
                pin(2, part)?;
                config.write = p;
            } else {
                return Err(format!(
                    "unknown cache policy {part:?} (expected a replacement policy: {}; a \
                     prefetch policy: {}; a write policy: {}; or default)",
                    ReplacementPolicy::expected(),
                    PrefetchPolicy::expected(),
                    WritePolicy::expected()
                ));
            }
        }
        Ok(config)
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

/// A generation-checked handle to a cache slot, packed like the executor's
/// `TaskId`: slot index in the low 32 bits, slot generation in the high 32.
/// A handle goes stale when its entry is evicted or removed; the accessors
/// that take one panic on a stale handle (using one is a protocol bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(u64);

impl EntryId {
    fn pack(index: u32, generation: u32) -> EntryId {
        EntryId(((generation as u64) << 32) | index as u64)
    }

    fn index(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Outcome of a lookup.
pub enum Lookup {
    /// The block is resident (or being filled); the entry is pinned for the
    /// caller. Waiters for an in-flight fill get the event via
    /// [`BlockCache::fill_event`].
    Hit(EntryId),
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
/// names the blocks worth reading ahead.
pub trait Prefetcher {
    /// The policy this prefetcher implements.
    fn policy(&self) -> PrefetchPolicy;

    /// Called after each demand read of `block`, which lives on disk stream
    /// `disk`; `base_stride` is the file's striping interval (consecutive
    /// blocks on the same disk are `base_stride` apart). Appends candidate
    /// blocks to prefetch, in issue order, to `out` (cleared by the caller —
    /// a reusable buffer, so planning allocates nothing in steady state);
    /// the caller drops candidates that are past EOF or already cached.
    fn plan(&mut self, disk: usize, block: u64, base_stride: u64, out: &mut Vec<u64>);
}

/// No prefetching.
struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn policy(&self) -> PrefetchPolicy {
        PrefetchPolicy::None
    }

    fn plan(&mut self, _disk: usize, _block: u64, _base_stride: u64, _out: &mut Vec<u64>) {}
}

/// The paper's one-block-ahead prefetcher: the next file block on the same
/// disk.
struct OneAheadPrefetcher;

impl Prefetcher for OneAheadPrefetcher {
    fn policy(&self) -> PrefetchPolicy {
        PrefetchPolicy::OneAhead
    }

    fn plan(&mut self, _disk: usize, block: u64, base_stride: u64, out: &mut Vec<u64>) {
        out.push(block + base_stride);
    }
}

/// Stride detection per disk stream: once two consecutive demand reads on a
/// disk repeat the same nonzero stride, prefetch [`Self::DEPTH`] blocks
/// ahead along it.
struct StridedPrefetcher {
    /// Per disk (dense, indexed by disk id): the last demand block and the
    /// stride that led to it.
    last: Vec<Option<(u64, i64)>>,
}

impl StridedPrefetcher {
    /// How many strides ahead to prefetch once the stride is confirmed.
    pub const DEPTH: i64 = 4;
}

impl Prefetcher for StridedPrefetcher {
    fn policy(&self) -> PrefetchPolicy {
        PrefetchPolicy::Strided
    }

    fn plan(&mut self, disk: usize, block: u64, _base_stride: u64, out: &mut Vec<u64>) {
        if disk >= self.last.len() {
            self.last.resize(disk + 1, None);
        }
        let prev = self.last[disk];
        let stride = prev.map(|(b, _)| block as i64 - b as i64);
        self.last[disk] = Some((block, stride.unwrap_or(0)));
        if let (Some((_, prev_stride)), Some(stride)) = (prev, stride) {
            if stride == prev_stride && stride != 0 {
                out.extend(
                    (1..=Self::DEPTH).filter_map(|k| u64::try_from(block as i64 + stride * k).ok()),
                );
            }
        }
    }
}

/// Sentinel for "no slot" in the slab's intrusive links and map cells.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached block's bookkeeping plus the intrusive links the
/// replacement policies thread through the slab.
struct Slot {
    /// Bumped every time the slot is freed, invalidating old [`EntryId`]s.
    generation: u32,
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
    /// Intrusive recency list: previous (less recent) slot, or [`NIL`].
    prev: u32,
    /// Intrusive recency list: next (more recent) slot, or [`NIL`].
    next: u32,
}

impl Slot {
    fn vacant() -> Slot {
        Slot {
            generation: 0,
            occupied: false,
            block: 0,
            written_bytes: 0,
            pins: 0,
            dirty: false,
            referenced: false,
            reason: FillReason::Demand,
            fill: None,
            prev: NIL,
            next: NIL,
        }
    }

    /// Evictability under every policy: unpinned and fully fetched.
    fn evictable(&self) -> bool {
        self.pins == 0 && self.fill.is_none()
    }
}

/// One cell of the open-addressed block map; `slot == NIL` means empty.
#[derive(Clone, Copy)]
struct MapCell {
    block: u64,
    slot: u32,
}

const EMPTY_CELL: MapCell = MapCell {
    block: 0,
    slot: NIL,
};

/// The policy-composed block cache.
pub struct BlockCache {
    capacity: usize,
    config: CacheConfig,
    /// Entry slab; freed slots are recycled via `free` with a generation
    /// bump, so the steady state allocates nothing per insert/evict.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live entries (occupied slots).
    len: usize,
    /// Open-addressed block → slot map (Fibonacci hashing, linear probing,
    /// backward-shift deletion). Power-of-two sized: it starts at
    /// [`BlockCache::MAP_START`] cells and doubles at 75% load, so its size
    /// follows the blocks actually cached, not the capacity.
    map: Vec<MapCell>,
    /// `64 - log2(map.len())`: the Fibonacci-hash shift.
    map_shift: u32,
    map_len: usize,
    /// Intrusive recency list: least recently touched slot.
    lru_head: u32,
    /// Intrusive recency list: most recently touched slot.
    lru_tail: u32,
    /// Clock-policy state: blocks in insertion order and the sweep hand
    /// (empty/unused under LRU and MRU).
    clock_ring: Vec<u64>,
    clock_hand: usize,
    /// Number of entries currently dirty, maintained incrementally so the
    /// per-write-request [`BlockCache::dirty_count`] is O(1).
    dirty: usize,
    stats: CacheStats,
}

impl BlockCache {
    /// Cells in a new cache's block map (a power of two).
    const MAP_START: usize = 8;

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
        // Start small and grow on demand: the paper's capacity scales with
        // the machine (2 buffers per disk per CP), but a transfer caches at
        // most the file's blocks, so sizing from the capacity would zero
        // memory that a large machine never touches.
        BlockCache {
            capacity,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            map: vec![EMPTY_CELL; Self::MAP_START],
            map_shift: 64 - Self::MAP_START.trailing_zeros(),
            map_len: 0,
            lru_head: NIL,
            lru_tail: NIL,
            clock_ring: Vec::new(),
            clock_hand: 0,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    // ---- open-addressed block map ------------------------------------

    fn map_home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.map_shift) as usize
    }

    fn map_get(&self, block: u64) -> Option<u32> {
        let mask = self.map.len() - 1;
        let mut i = self.map_home(block);
        loop {
            let cell = self.map[i];
            if cell.slot == NIL {
                return None;
            }
            if cell.block == block {
                return Some(cell.slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a `block → slot` binding; the block must not be present.
    fn map_insert(&mut self, block: u64, slot: u32) {
        if (self.map_len + 1) * 4 > self.map.len() * 3 {
            self.map_grow();
        }
        let mask = self.map.len() - 1;
        let mut i = self.map_home(block);
        while self.map[i].slot != NIL {
            i = (i + 1) & mask;
        }
        self.map[i] = MapCell { block, slot };
        self.map_len += 1;
    }

    fn map_grow(&mut self) {
        let new_size = self.map.len() * 2;
        let old = std::mem::replace(&mut self.map, vec![EMPTY_CELL; new_size]);
        self.map_shift = 64 - new_size.trailing_zeros();
        let mask = new_size - 1;
        for cell in old {
            if cell.slot == NIL {
                continue;
            }
            let mut i = self.map_home(cell.block);
            while self.map[i].slot != NIL {
                i = (i + 1) & mask;
            }
            self.map[i] = cell;
        }
    }

    /// Removes `block`'s binding (backward-shift deletion keeps probe chains
    /// intact without tombstones), returning its slot if it was present.
    fn map_remove(&mut self, block: u64) -> Option<u32> {
        let mask = self.map.len() - 1;
        let mut i = self.map_home(block);
        loop {
            let cell = self.map[i];
            if cell.slot == NIL {
                return None;
            }
            if cell.block == block {
                break;
            }
            i = (i + 1) & mask;
        }
        let removed = self.map[i].slot;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let cell = self.map[j];
            if cell.slot == NIL {
                break;
            }
            let home = self.map_home(cell.block);
            // `cell` may fill the hole at `i` iff its probe chain passes
            // through `i` (its home is cyclically no later than `i`).
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.map[i] = cell;
                i = j;
            }
        }
        self.map[i] = EMPTY_CELL;
        self.map_len -= 1;
        Some(removed)
    }

    // ---- intrusive recency list --------------------------------------

    fn list_detach(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn list_push_tail(&mut self, idx: u32) {
        let old_tail = self.lru_tail;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = old_tail;
            s.next = NIL;
        }
        if old_tail == NIL {
            self.lru_head = idx;
        } else {
            self.slots[old_tail as usize].next = idx;
        }
        self.lru_tail = idx;
    }

    // ---- slab --------------------------------------------------------

    /// Frees a slot (after its map binding and list links are gone).
    fn slot_free(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.occupied = false;
        slot.generation = slot.generation.wrapping_add(1);
        slot.fill = None;
        self.free.push(idx);
        self.len -= 1;
    }

    fn slot_of(&self, id: EntryId) -> &Slot {
        let slot = &self.slots[id.index()];
        assert!(
            slot.occupied && slot.generation == id.generation(),
            "stale cache handle"
        );
        slot
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
        self.len
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.map_get(block).is_some()
    }

    /// Looks up `block`, updating recency and hit/miss statistics. On a hit
    /// the entry is pinned; the caller must call [`BlockCache::unpin`] when
    /// done with it.
    pub fn lookup(&mut self, block: u64) -> Lookup {
        match self.map_get(block) {
            Some(idx) => {
                self.stats.hits += 1;
                let slot = &mut self.slots[idx as usize];
                if slot.reason == FillReason::Prefetch {
                    self.stats.prefetch_used += 1;
                    slot.reason = FillReason::Demand;
                }
                slot.pins += 1;
                slot.referenced = true;
                let generation = slot.generation;
                self.list_detach(idx);
                self.list_push_tail(idx);
                Lookup::Hit(EntryId::pack(idx, generation))
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Inserts a new entry in the filling state (pinned), evicting a block
    /// chosen by the replacement policy if the cache is full. The caller
    /// receives the evicted block (if any) and must flush it if dirty, then
    /// perform the disk read, then call [`BlockCache::mark_present`].
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached.
    pub fn insert_filling(&mut self, block: u64, reason: FillReason) -> (EntryId, Option<Evicted>) {
        assert!(
            self.map_get(block).is_none(),
            "block {block} already cached"
        );
        let evicted = self.make_room();
        if reason == FillReason::Prefetch {
            self.stats.prefetches += 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot::vacant());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.occupied = true;
        slot.block = block;
        slot.written_bytes = 0;
        slot.pins = 1;
        slot.dirty = false;
        slot.referenced = false;
        slot.reason = reason;
        slot.fill = Some(CountdownEvent::new(1));
        let generation = slot.generation;
        self.list_push_tail(idx);
        self.map_insert(block, idx);
        self.len += 1;
        if self.config.replacement == ReplacementPolicy::Clock {
            self.clock_ring.push(block);
        }
        (EntryId::pack(idx, generation), evicted)
    }

    /// The fill event of an entry still being filled (`None` once present).
    /// Waiters clone the event and block on it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (its entry was evicted or removed).
    pub fn fill_event(&self, id: EntryId) -> Option<CountdownEvent> {
        self.slot_of(id).fill.clone()
    }

    /// Marks a filling entry as resident and wakes every waiter.
    pub fn mark_present(&mut self, block: u64) {
        let idx = self
            .map_get(block)
            .unwrap_or_else(|| panic!("mark_present on uncached block {block}"));
        if let Some(event) = self.slots[idx as usize].fill.take() {
            event.signal();
        }
    }

    /// Unpins an entry previously returned by [`BlockCache::lookup`] or
    /// [`BlockCache::insert_filling`].
    pub fn unpin(&mut self, block: u64) {
        if let Some(idx) = self.map_get(block) {
            let slot = &mut self.slots[idx as usize];
            assert!(slot.pins > 0, "unpin of unpinned block {block}");
            slot.pins -= 1;
        }
    }

    /// Records `len` bytes written into `block`; returns the total distinct
    /// bytes written so far (the write policy decides what to flush when).
    pub fn record_write(&mut self, block: u64, len: u64) -> u64 {
        let idx = self
            .map_get(block)
            .unwrap_or_else(|| panic!("record_write on uncached block {block}"));
        let slot = &mut self.slots[idx as usize];
        slot.written_bytes += len;
        if !slot.dirty {
            slot.dirty = true;
            self.dirty += 1;
        }
        slot.written_bytes
    }

    /// Marks `block` clean again after *all* of its dirty data reached the
    /// disk (full-block write-behind, the end-of-transfer sync). For a flush
    /// of a point-in-time snapshot that concurrent writes may have outrun,
    /// use [`BlockCache::complete_flush`].
    pub fn mark_clean(&mut self, block: u64) {
        if let Some(idx) = self.map_get(block) {
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
        if let Some(idx) = self.map_get(block) {
            let slot = &mut self.slots[idx as usize];
            slot.written_bytes = slot.written_bytes.saturating_sub(flushed);
            let still_dirty = slot.written_bytes > 0;
            if slot.dirty && !still_dirty {
                self.dirty -= 1;
            }
            slot.dirty = still_dirty;
        }
    }

    /// Removes `block` from the cache entirely (used after write-behind of a
    /// full block, freeing the buffer immediately).
    pub fn remove(&mut self, block: u64) {
        if let Some(idx) = self.map_remove(block) {
            if self.slots[idx as usize].dirty {
                self.dirty -= 1;
            }
            self.list_detach(idx);
            self.slot_free(idx);
            if self.config.replacement == ReplacementPolicy::Clock {
                self.clock_remove(block);
            }
        }
    }

    /// Blocks that still hold unwritten (dirty) data, with their written byte
    /// counts, in block order. Used by the end-of-transfer sync and the
    /// watermark sweep.
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

    /// Evicts the replacement policy's victim among the unpinned, non-filling
    /// entries if the cache is at capacity. Returns what was evicted, or
    /// `None` if nothing needed to be (or could be) evicted.
    fn make_room(&mut self) -> Option<Evicted> {
        if self.len < self.capacity {
            return None;
        }
        let victim = match self.config.replacement {
            // The recency list is ordered least→most recent, so the first
            // evictable slot from the head is exactly the minimum-recency
            // candidate the old stamp-ranking pass picked (stamps were
            // unique, so there were never ties to break).
            ReplacementPolicy::Lru => {
                let mut i = self.lru_head;
                loop {
                    if i == NIL {
                        break None;
                    }
                    let s = &self.slots[i as usize];
                    if s.evictable() {
                        break Some(s.block);
                    }
                    i = s.next;
                }
            }
            ReplacementPolicy::Mru => {
                let mut i = self.lru_tail;
                loop {
                    if i == NIL {
                        break None;
                    }
                    let s = &self.slots[i as usize];
                    if s.evictable() {
                        break Some(s.block);
                    }
                    i = s.prev;
                }
            }
            ReplacementPolicy::Clock => self.clock_pick(),
        };
        match victim {
            Some(block) => {
                let idx = self
                    .map_remove(block)
                    .unwrap_or_else(|| panic!("replacer picked uncached block {block}"));
                let slot = &self.slots[idx as usize];
                self.stats.evictions += 1;
                if slot.dirty {
                    self.stats.dirty_evictions += 1;
                    self.dirty -= 1;
                }
                if slot.reason == FillReason::Prefetch {
                    self.stats.prefetch_wasted += 1;
                }
                let evicted = Evicted {
                    block,
                    dirty: slot.dirty,
                    written_bytes: slot.written_bytes,
                };
                self.list_detach(idx);
                self.slot_free(idx);
                if self.config.replacement == ReplacementPolicy::Clock {
                    self.clock_remove(block);
                }
                Some(evicted)
            }
            None => {
                // Everything is pinned or in flight; allow a temporary
                // overflow rather than deadlocking.
                self.stats.overflows += 1;
                None
            }
        }
    }

    /// Clock / second chance: the hand sweeps the ring in insertion order;
    /// an evictable entry referenced since the last sweep gets its bit
    /// cleared and one more lap, the first unreferenced evictable entry is
    /// the victim. With no evictable entry at all the hand does not move
    /// (exactly the pre-slab behavior).
    fn clock_pick(&mut self) -> Option<u64> {
        if self.clock_ring.is_empty() || !self.any_evictable() {
            return None;
        }
        // At most two laps: the first clears every referenced bit among the
        // evictable entries, so the second must find a victim.
        for _ in 0..2 * self.clock_ring.len() {
            let block = self.clock_ring[self.clock_hand];
            self.clock_hand = (self.clock_hand + 1) % self.clock_ring.len();
            let idx = self
                .map_get(block)
                .expect("clock ring holds an uncached block");
            let slot = &mut self.slots[idx as usize];
            if !slot.evictable() {
                continue;
            }
            if slot.referenced {
                slot.referenced = false; // second chance
                continue;
            }
            return Some(block);
        }
        None
    }

    fn any_evictable(&self) -> bool {
        let mut i = self.lru_head;
        while i != NIL {
            let s = &self.slots[i as usize];
            if s.evictable() {
                return true;
            }
            i = s.next;
        }
        false
    }

    /// Drops `block` from the clock ring, keeping the hand on the entry it
    /// was about to examine.
    fn clock_remove(&mut self, block: u64) {
        if let Some(idx) = self.clock_ring.iter().position(|&b| b == block) {
            self.clock_ring.remove(idx);
            if idx < self.clock_hand {
                self.clock_hand -= 1;
            }
            if self.clock_ring.is_empty() {
                self.clock_hand = 0;
            } else {
                self.clock_hand %= self.clock_ring.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = BlockCache::new(4);
        assert!(matches!(c.lookup(7), Lookup::Miss));
        let (_e, evicted) = c.insert_filling(7, FillReason::Demand);
        assert!(evicted.is_none());
        c.mark_present(7);
        c.unpin(7);
        match c.lookup(7) {
            Lookup::Hit(id) => assert!(c.fill_event(id).is_none(), "present entry has no fill"),
            Lookup::Miss => panic!("expected hit"),
        }
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_picks_the_oldest_unpinned_block() {
        let mut c = BlockCache::new(2);
        for b in [1u64, 2] {
            let (_e, _) = c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Touch block 1 so block 2 becomes LRU.
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let (_e, evicted) = c.insert_filling(3, FillReason::Demand);
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
            let (_e, _) = c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Touch block 1 so it becomes MRU — and therefore the victim.
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let (_e, evicted) = c.insert_filling(3, FillReason::Demand);
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
            let (_e, _) = c.insert_filling(b, FillReason::Demand);
            c.mark_present(b);
            c.unpin(b);
        }
        // Reference block 1; the hand starts at 1, clears its bit, and
        // evicts 2 (the first unreferenced entry in insertion order).
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let (_e, evicted) = c.insert_filling(4, FillReason::Demand);
        assert_eq!(evicted.map(|e| e.block), Some(2));
        assert!(c.contains(1) && c.contains(3));
        // Next eviction continues the sweep from the hand: 3 is next and
        // unreferenced.
        let (_e, evicted) = c.insert_filling(5, FillReason::Demand);
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
            let (_e, _) = c.insert_filling(1, FillReason::Demand);
            c.mark_present(1); // still pinned (never unpinned)
            let (_e2, evicted) = c.insert_filling(2, FillReason::Demand);
            assert!(evicted.is_none(), "{policy} evicted a pinned block");
            assert_eq!(c.len(), 2, "cache allowed a temporary overflow");
            assert_eq!(c.stats().overflows, 1);
        }
    }

    #[test]
    fn block_map_starts_small_and_grows_with_the_blocks_cached() {
        use std::collections::HashMap;

        // A machine-sized capacity costs nothing up front.
        let c = BlockCache::with_config(1 << 20, CacheConfig::DEFAULT);
        assert_eq!(c.map.len(), BlockCache::MAP_START);
        assert_eq!(c.slots.capacity(), 0);

        // Every resident block, with the handle its insert returned.
        fn agrees(c: &BlockCache, model: &HashMap<u64, EntryId>) {
            assert_eq!(c.len(), model.len());
            for block in 0..4096 {
                assert_eq!(
                    c.contains(block),
                    model.contains_key(&block),
                    "block {block}"
                );
            }
            for &id in model.values() {
                c.fill_event(id); // panics on a stale handle
            }
        }
        let mut c = BlockCache::new(48);
        let mut model = HashMap::new();
        // Fill past capacity with entries still filling (pinned), so every
        // insert past the 48th overflows and the map must grow.
        let blocks: Vec<u64> = (0..300).map(|i| i * 37 % 4001).collect();
        for &block in &blocks {
            let (id, evicted) = c.insert_filling(block, FillReason::Demand);
            assert!(evicted.is_none(), "evicted a pinned block");
            model.insert(block, id);
        }
        assert_eq!(c.stats().overflows, 300 - 48);
        assert!(c.map.len() >= 512, "300 blocks in {} cells", c.map.len());
        agrees(&c, &model);
        // Drain, exercising backward-shift deletion from a crowded map.
        for (i, &block) in blocks.iter().enumerate() {
            c.mark_present(block);
            c.unpin(block);
            c.remove(block);
            model.remove(&block);
            if i % 50 == 0 {
                agrees(&c, &model);
            }
        }
        assert!(c.is_empty());
        // Refill with other blocks, now evicting at capacity.
        for block in (1..400).map(|i| i * 11 % 4093) {
            let (id, evicted) = c.insert_filling(block, FillReason::Demand);
            c.mark_present(block);
            c.unpin(block);
            if let Some(e) = evicted {
                assert!(
                    model.remove(&e.block).is_some(),
                    "evicted uncached {}",
                    e.block
                );
            }
            model.insert(block, id);
        }
        assert_eq!(c.len(), 48);
        agrees(&c, &model);
    }

    #[test]
    fn dirty_blocks_report_dirty_on_eviction() {
        let mut c = BlockCache::new(1);
        let (_e, _) = c.insert_filling(5, FillReason::WriteAllocate);
        c.mark_present(5);
        c.record_write(5, 4096);
        c.unpin(5);
        assert_eq!(c.dirty_count(), 1);
        let (_e2, evicted) = c.insert_filling(6, FillReason::Demand);
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
        let (_e, _) = c.insert_filling(9, FillReason::WriteAllocate);
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
        c.unpin(9);
        c.remove(9);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn dirty_count_tracks_evictions_and_removals() {
        let mut c = BlockCache::new(1);
        let (_e, _) = c.insert_filling(1, FillReason::WriteAllocate);
        c.mark_present(1);
        c.record_write(1, 8);
        c.unpin(1);
        assert_eq!(c.dirty_count(), 1);
        // Evicting the dirty block drops the counter with it.
        let (_e2, evicted) = c.insert_filling(2, FillReason::Demand);
        assert!(evicted.unwrap().dirty);
        assert_eq!(c.dirty_count(), 0);
        c.mark_present(2);
        c.record_write(2, 8);
        c.unpin(2);
        assert_eq!(c.dirty_count(), 1);
        c.remove(2);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn record_write_accumulates_until_full() {
        let mut c = BlockCache::new(2);
        let (_e, _) = c.insert_filling(9, FillReason::WriteAllocate);
        c.mark_present(9);
        assert_eq!(c.record_write(9, 4096), 4096);
        assert_eq!(c.record_write(9, 4096), 8192);
        c.mark_clean(9);
        assert_eq!(c.record_write(9, 8), 8);
        c.remove(9);
        assert!(!c.contains(9));
    }

    #[test]
    fn filling_entries_expose_their_event_to_waiters() {
        let mut c = BlockCache::new(2);
        let (entry, _) = c.insert_filling(3, FillReason::Demand);
        let event = c.fill_event(entry).expect("fresh insert is filling");
        assert_eq!(event.remaining(), 1);
        c.mark_present(3);
        assert_eq!(event.remaining(), 0);
        assert!(c.fill_event(entry).is_none(), "present entry has no fill");
    }

    #[test]
    #[should_panic(expected = "stale cache handle")]
    fn stale_handles_are_rejected() {
        let mut c = BlockCache::new(1);
        let (entry, _) = c.insert_filling(3, FillReason::Demand);
        c.mark_present(3);
        c.unpin(3);
        c.remove(3);
        // The slot was recycled (generation bumped); the old handle must not
        // silently alias the new occupant.
        let (_e2, _) = c.insert_filling(4, FillReason::Demand);
        let _ = c.fill_event(entry);
    }

    #[test]
    fn prefetch_lifecycle_is_counted() {
        let mut c = BlockCache::new(2);
        // Prefetch two blocks; use one, then evict the other untouched.
        for b in [1u64, 2] {
            let (_e, _) = c.insert_filling(b, FillReason::Prefetch);
            c.mark_present(b);
            c.unpin(b);
        }
        if let Lookup::Hit(_) = c.lookup(1) {
            c.unpin(1);
        }
        let (_e, evicted) = c.insert_filling(3, FillReason::Demand);
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
    fn plan(p: &mut dyn Prefetcher, disk: usize, block: u64, base_stride: u64) -> Vec<u64> {
        let mut out = Vec::new();
        p.plan(disk, block, base_stride, &mut out);
        out
    }

    #[test]
    fn one_ahead_prefetcher_matches_the_paper() {
        let mut p = PrefetchPolicy::OneAhead.prefetcher();
        assert_eq!(plan(p.as_mut(), 0, 10, 16), vec![26]);
        assert_eq!(
            plan(PrefetchPolicy::None.prefetcher().as_mut(), 0, 10, 16),
            vec![]
        );
    }

    #[test]
    fn strided_prefetcher_locks_onto_a_repeating_stride() {
        let mut p = PrefetchPolicy::Strided.prefetcher();
        let p = p.as_mut();
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
        assert_eq!(WritePolicy::Through.on_write(8, 8192, 0, 8), FlushBlock);
        assert_eq!(WritePolicy::FlushOnFull.on_write(8191, 8192, 7, 8), None);
        assert_eq!(
            WritePolicy::FlushOnFull.on_write(8192, 8192, 1, 8),
            FlushBlock
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
        let mru = CacheConfig::parse("mru").unwrap();
        let clock = CacheConfig::parse("clock").unwrap();
        let strided = CacheConfig::parse("strided").unwrap();
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
        assert_eq!(
            CacheConfig::parse("mru+strided+watermark").unwrap().label(),
            "mru+strided+watermark"
        );
        // Partial specs keep the defaults; order does not matter.
        assert_eq!(
            CacheConfig::parse("strided").unwrap(),
            CacheConfig {
                prefetch: PrefetchPolicy::Strided,
                ..CacheConfig::DEFAULT
            }
        );
        assert_eq!(
            CacheConfig::parse("watermark+clock").unwrap(),
            CacheConfig {
                replacement: ReplacementPolicy::Clock,
                write: WritePolicy::Watermark,
                ..CacheConfig::DEFAULT
            }
        );
        assert_eq!(CacheConfig::parse("default").unwrap(), CacheConfig::DEFAULT);
        assert!(CacheConfig::parse("arc").is_err());
        // Doubly-pinned dimensions are conflicts, not silent overwrites.
        assert!(CacheConfig::parse("lru+mru").unwrap_err().contains("twice"));
        assert!(CacheConfig::parse("one+one").is_err());
        assert!(CacheConfig::parse("default+clock").is_err());
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
