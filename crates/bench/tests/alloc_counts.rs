//! Heap-allocation accounting for the model hot paths, via a counting
//! global allocator. Complements the criterion wall-clock benches: a speedup
//! that comes with new per-event allocation churn is a regression waiting
//! for a bigger heap, and these counts catch it deterministically.
//!
//! Everything runs inside ONE test function — the counter is process-global,
//! and the default test runner is multi-threaded. Each workload is measured
//! in steady state: a warm-up pass first pays one-time growth (executor
//! slabs, cache maps, channel buffers), then the measured pass counts.
//!
//! The allocator also tracks live bytes and their peak, so one row bounds
//! what a large transfer holds in flight at once.
//!
//! Print the `allocs/event` figures with
//! `cargo test -p ddio-bench --release --test alloc_counts -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ddio_core::cache::{
    BlockCache, CacheConfig, FillReason, Lookup, PrefetchPolicy, Prefetcher, ReplacementPolicy,
};
use ddio_core::{
    run_transfer, AccessPattern, AdmissionQueue, LatencyHistogram, MachineConfig, Method, QosPolicy,
};
use ddio_disk::{DiskQueue, DiskRequest, Geometry, SchedPolicy};
use ddio_net::{ContentionModel, Delivery, NetConfig, Network, NetworkParams};
use ddio_sim::sync::{CountdownEvent, Receiver, Resource};
use ddio_sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Counts every allocation and reallocation, and tracks the bytes live and
/// their peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Adds `grown` live bytes and raises the peak to match.
fn grow(grown: usize) {
    let live = LIVE.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(shrunk: usize) {
    LIVE.fetch_sub(shrunk as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// In-flight state: one traditional-caching `rb` transfer of a 16 MiB file
/// on 256 CPs, IOPs and disks at seed 1994, where every CP keeps one
/// request per disk outstanding (§4), so tens of thousands of request
/// tasks are alive at once. Returns the peak heap bytes the transfer held
/// beyond what was live when it started.
fn in_flight_bytes() -> u64 {
    let config = MachineConfig {
        n_cps: 256,
        n_iops: 256,
        n_disks: 256,
        file_bytes: 16 << 20,
        ..MachineConfig::default()
    };
    let rb = AccessPattern::parse("rb").expect("a paper pattern");
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = run_transfer(&config, Method::TC, rb, 8192, 1994);
    assert!(outcome.throughput_mibs > 0.0, "the transfer completed");
    PEAK.load(Ordering::Relaxed) - before
}

/// Executor storm: tasks ping-ponging through timers — the pure event loop
/// with no model code on top.
fn executor_storm(sim: &mut Sim) -> u64 {
    sim.reset();
    let ctx = sim.context();
    for t in 0..64u64 {
        let ctx = ctx.clone();
        sim.spawn(async move {
            for i in 0..256u64 {
                ctx.sleep(SimDuration::from_nanos(1 + (t + i) % 7)).await;
            }
        });
    }
    sim.run();
    sim.events_processed()
}

/// Latch waits: one task waits on a fresh one-count latch `WAITS` times,
/// and a second task signals each a nanosecond later, so every wait blocks
/// with a single waiter — the shape of a reply, a cache fill or a block's
/// arrival. Spawns before `before` is read and returns the waits counted
/// from there.
fn latch_waits(sim: &mut Sim, before: &mut u64) -> u64 {
    const WAITS: u64 = 1024;
    sim.reset();
    let ctx = sim.context();
    let slot: Rc<RefCell<Option<CountdownEvent>>> = Rc::default();
    {
        let slot = Rc::clone(&slot);
        sim.spawn(async move {
            for _ in 0..WAITS {
                let latch = CountdownEvent::new(1);
                *slot.borrow_mut() = Some(latch.clone());
                latch.wait().await;
            }
        });
    }
    sim.spawn(async move {
        for _ in 0..WAITS {
            ctx.sleep(SimDuration::from_nanos(1)).await;
            slot.borrow_mut().take().expect("a latch to open").signal();
        }
    });
    *before = allocs();
    sim.run();
    WAITS
}

/// Timer depth: 1,000 tasks re-sleeping over deadlines spread from a
/// microsecond to a millisecond, about 1,000 timers pending at once (a
/// large machine's calendar). Spawns before `before` is read and returns
/// the timers fired from there.
fn timer_depth(sim: &mut Sim, before: &mut u64) -> u64 {
    const TASKS: u64 = 1_000;
    const ROUNDS: u64 = 20;
    sim.reset();
    let ctx = sim.context();
    for i in 0..TASKS {
        let ctx = ctx.clone();
        sim.spawn(async move {
            for round in 0..ROUNDS {
                let micros = 1u64 << ((i * 7 + round * 3) % 11);
                let jitter = (i * 131 + round * 17) % 997;
                ctx.sleep(SimDuration::from_nanos(micros * 1_000 + jitter))
                    .await;
            }
        });
    }
    *before = allocs();
    sim.run();
    TASKS * ROUNDS
}

/// Resource storm: 64 tasks queueing for one server — the bus, NI and CPU
/// path. Returns the number of tasks spawned.
fn resource_storm(sim: &mut Sim, bus: &Resource) -> u64 {
    const TASKS: u64 = 64;
    for t in 0..TASKS {
        let bus = bus.clone();
        sim.spawn(async move {
            for i in 0..16u64 {
                bus.use_for(SimDuration::from_nanos(1 + (t + i) % 5)).await;
            }
        });
    }
    sim.run();
    TASKS
}

/// Cache storm: the per-block op mix of a transfer (miss-insert-evict,
/// re-reference, write) against one long-lived cache. Returns ops performed.
fn cache_storm(cache: &mut BlockCache) -> u64 {
    let mut ops = 0u64;
    for round in 0..64u64 {
        for b in 0..512u64 {
            let block = round * 311 + b;
            match cache.lookup(block) {
                Lookup::Hit(_) => {}
                Lookup::Miss => {
                    cache.insert_filling(block, FillReason::Demand);
                    cache.mark_present(block);
                }
            }
            cache.record_write(block, 64);
            cache.mark_clean(block);
            cache.unpin(block);
            ops += 5;
        }
    }
    ops
}

/// Cache hit storm: every block already resident — lookups, writes, cleans,
/// unpins against a warm working set. Returns ops performed.
fn cache_hit_storm(cache: &mut BlockCache) -> u64 {
    let mut ops = 0u64;
    for _round in 0..64u64 {
        for block in 0..512u64 {
            match cache.lookup(block) {
                Lookup::Hit(_) => {}
                Lookup::Miss => {
                    cache.insert_filling(block, FillReason::Demand);
                    cache.mark_present(block);
                }
            }
            cache.record_write(block, 64);
            cache.mark_clean(block);
            cache.unpin(block);
            ops += 4;
        }
    }
    ops
}

/// Drive-queue storm: on each queue, bursts of 32 requests at scattered
/// cylinders pushed, then popped until empty with the arm following each
/// served request. Returns ops performed (a push or a pop).
fn disk_queue_storm(queues: &mut [DiskQueue<u64>]) -> u64 {
    let g = Geometry::HP_97560;
    let mut ops = 0u64;
    for queue in queues.iter_mut() {
        let mut arm = 0u32;
        for round in 0..64u64 {
            for i in 0..32u64 {
                let cylinder = (round * 977 + i * 7919) % u64::from(g.cylinders);
                queue.push(
                    DiskRequest::read(cylinder * g.sectors_per_cylinder(), 16),
                    i,
                );
            }
            while let Some((request, _)) = queue.pop_next(arm) {
                arm = g.lbn_to_chs(request.start_sector).cylinder;
                ops += 2;
            }
        }
    }
    ops
}

/// Prefetch-plan storm: on each prefetcher, a strided demand stream on each
/// of 16 disks, every read planned into one reused buffer (so `strided`
/// locks on and plans its full depth). Returns plans made.
fn prefetch_storm(prefetchers: &mut [Prefetcher], out: &mut Vec<u64>) -> u64 {
    let mut ops = 0u64;
    for prefetcher in prefetchers.iter_mut() {
        for block in 0..1024u64 {
            out.clear();
            prefetcher.plan((block % 16) as usize, block, 16, out);
            ops += 1;
        }
    }
    ops
}

/// Nodes on the fabric storm's network.
const NODES: usize = 8;

/// The fabric storm's network and the inboxes of nodes `1..NODES`.
type Fabric = (Network<u64>, Vec<Receiver<u64>>);

/// Builds the fabric storm's network on `sim` with the given fabric.
fn fabric(sim: &Sim, config: NetConfig) -> Fabric {
    let net = Network::new(sim.context(), config, NetworkParams::default(), NODES);
    let inboxes = (1..NODES).map(|node| net.inbox(node)).collect();
    (net, inboxes)
}

/// Fabric storm: every node hammering node 0 (sends) while node 0 posts
/// fire-and-forget back — both network hot paths at once. Returns executor
/// events processed and messages carried.
fn fabric_storm(sim: &mut Sim, (net, inboxes): &Fabric) -> (u64, u64) {
    // Divisible by NODES - 1, so the round-robin posts land evenly and every
    // drain's expectation is exact.
    const MSGS: usize = 56;
    sim.reset();
    fn drain(sim: &mut Sim, rx: Receiver<u64>, expect: usize) {
        sim.spawn(async move {
            let mut got = 0;
            while got < expect {
                if rx.recv().await.is_some() {
                    got += 1;
                }
            }
        });
    }
    for rx in inboxes.iter().rev() {
        drain(sim, rx.clone(), MSGS / (NODES - 1));
    }
    for from in 1..NODES {
        let net = net.clone();
        sim.spawn(async move {
            for _ in 0..MSGS {
                net.send(from, 0, 8192).await;
            }
        });
    }
    {
        let net = net.clone();
        sim.spawn(async move {
            for i in 0..MSGS {
                let to = 1 + i % (NODES - 1);
                net.post(0, to, 1024, Delivery::Inbox(i as u64)).await;
            }
        });
    }
    sim.run();
    (sim.events_processed(), (NODES * MSGS) as u64)
}

/// Serving storm: the per-request admission path — push into the QoS queue,
/// pop for admission, record latency and queue wait into the histograms —
/// across every policy. Returns ops performed.
fn serve_storm(
    queues: &mut [AdmissionQueue],
    latency: &mut LatencyHistogram,
    queue_wait: &mut LatencyHistogram,
) -> u64 {
    let mut ops = 0u64;
    for round in 0..64u64 {
        for q in queues.iter_mut() {
            for i in 0..32u64 {
                q.push((i % 4) as usize, round * 32 + i);
                ops += 1;
            }
            while let Some((tenant, id)) = q.pop() {
                // A plausible latency spread: spans many octaves so every
                // histogram path (exact sub-32 buckets and log buckets) runs.
                latency.record(1 + (id * 2_654_435_761 + tenant as u64) % 1_000_000_000);
                queue_wait.record((id * 40_503) % 1_000_000);
                ops += 3;
            }
        }
    }
    ops
}

#[test]
fn steady_state_allocations_per_event_stay_bounded() {
    // --- Executor ---
    let mut sim = Sim::new();
    executor_storm(&mut sim); // warm-up: slab + calendar growth
    let before = allocs();
    let events = executor_storm(&mut sim);
    let exec_rate = (allocs() - before) as f64 / events as f64;

    // --- Latch waits and a deep calendar ---
    let (mut sim, mut before) = (Sim::new(), 0);
    latch_waits(&mut sim, &mut before); // warm-up: slab + ready queue growth
    let waits = latch_waits(&mut sim, &mut before);
    let latch_rate = (allocs() - before) as f64 / waits as f64;
    timer_depth(&mut sim, &mut before); // warm-up: slab + calendar growth
    let timers = timer_depth(&mut sim, &mut before);
    let timer_rate = (allocs() - before) as f64 / timers as f64;

    // --- Contended resource ---
    let mut sim = Sim::new();
    let bus = Resource::new(sim.context(), "bus");
    resource_storm(&mut sim, &bus); // warm-up: slab + waiter queue growth
    sim.reset(); // outside the count: the reset pays one drop list
    let before = allocs();
    let spawned = resource_storm(&mut sim, &bus);
    let resource_allocs = allocs() - before;

    // --- Cache, miss-heavy (evict + refill every round), LRU and clock ---
    // Allocations per op and per miss: the policies hit at different rates
    // on this op mix, so only the per-miss figures compare across them.
    let miss_storm = |config: CacheConfig| {
        let mut cache = BlockCache::with_config(256, config);
        cache_storm(&mut cache); // warm-up: slab + block-map growth
        let (before, misses) = (allocs(), cache.stats().misses);
        let ops = cache_storm(&mut cache);
        let spent = (allocs() - before) as f64;
        (
            spent / ops as f64,
            spent / (cache.stats().misses - misses) as f64,
        )
    };
    let (cache_rate, lru_per_miss) = miss_storm(CacheConfig::DEFAULT);
    let (_, clock_per_miss) = miss_storm(CacheConfig {
        replacement: ReplacementPolicy::Clock,
        ..CacheConfig::DEFAULT
    });

    // --- Cache, pure hits (working set fits) ---
    let mut cache = BlockCache::with_config(1024, CacheConfig::DEFAULT);
    cache_hit_storm(&mut cache); // warm-up: fills the working set
    let before = allocs();
    let hit_ops = cache_hit_storm(&mut cache);
    let hit_rate = (allocs() - before) as f64 / hit_ops as f64;

    // --- Drive queues and prefetch planning, every policy ---
    let mut queues = SchedPolicy::ALL.map(|p| DiskQueue::new(p, Geometry::HP_97560));
    disk_queue_storm(&mut queues); // warm-up: each queue reaches its burst size
    let before = allocs();
    let queue_ops = disk_queue_storm(&mut queues);
    let queue_rate = (allocs() - before) as f64 / queue_ops as f64;
    let mut prefetchers = PrefetchPolicy::ALL.map(Prefetcher::new);
    let mut out = Vec::new();
    prefetch_storm(&mut prefetchers, &mut out); // warm-up: per-disk history + buffer
    let before = allocs();
    let plan_ops = prefetch_storm(&mut prefetchers, &mut out);
    let plan_rate = (allocs() - before) as f64 / plan_ops as f64;

    // --- Fabric, NI-only (the paper's) and link-level contention ---
    let mut sim = Sim::new();
    let net = fabric(&sim, NetConfig::DEFAULT);
    fabric_storm(&mut sim, &net); // warm-up: NI queues + channel buffers
    let before = allocs();
    let (events, messages) = fabric_storm(&mut sim, &net);
    let fabric_rate = (allocs() - before) as f64 / events as f64;
    let fabric_per_msg = (allocs() - before) as f64 / messages as f64;
    let mut sim = Sim::new();
    let link = NetConfig {
        contention: ContentionModel::Link,
        ..NetConfig::DEFAULT
    };
    let net = fabric(&sim, link);
    fabric_storm(&mut sim, &net); // warm-up: also creates the link resources
    let before = allocs();
    let (_, messages) = fabric_storm(&mut sim, &net);
    let link_per_msg = (allocs() - before) as f64 / messages as f64;

    // --- Serving (admission queues + latency histograms) ---
    let mut queues: Vec<AdmissionQueue> = [
        QosPolicy::Fifo,
        QosPolicy::FairShare,
        QosPolicy::Weighted,
        QosPolicy::TenantPriority,
    ]
    .into_iter()
    .map(|qos| AdmissionQueue::new(qos, 4))
    .collect();
    let mut latency = LatencyHistogram::new();
    let mut queue_wait = LatencyHistogram::new();
    // Warm-up: queue VecDeques grow to the burst's high-water mark (the
    // histograms pre-allocate their whole bucket table in `new`).
    serve_storm(&mut queues, &mut latency, &mut queue_wait);
    let before = allocs();
    let serve_ops = serve_storm(&mut queues, &mut latency, &mut queue_wait);
    let serve_rate = (allocs() - before) as f64 / serve_ops as f64;

    // --- In-flight state of a large traditional-caching transfer ---
    let in_flight = in_flight_bytes();

    println!("alloc_counts: executor_storm {exec_rate:.4} allocs/event");
    println!("alloc_counts: latch_wait {latch_rate:.4} allocs/wait");
    println!("alloc_counts: timer_depth {timer_rate:.4} allocs/timer");
    println!("alloc_counts: resource_storm {resource_allocs} allocs for {spawned} spawned tasks");
    println!("alloc_counts: cache_miss_storm {cache_rate:.4} allocs/op");
    println!("alloc_counts: cache_miss_storm {lru_per_miss:.4} allocs/miss");
    println!("alloc_counts: cache_miss_storm_clock {clock_per_miss:.4} allocs/miss");
    println!("alloc_counts: cache_hit_storm {hit_rate:.4} allocs/op");
    println!("alloc_counts: disk_queue_storm {queue_rate:.4} allocs/op");
    println!("alloc_counts: prefetch_storm {plan_rate:.4} allocs/op");
    println!("alloc_counts: fabric_storm {fabric_rate:.4} allocs/event");
    println!("alloc_counts: fabric_storm {fabric_per_msg:.4} allocs/message");
    println!("alloc_counts: fabric_storm_link {link_per_msg:.4} allocs/message");
    println!("alloc_counts: serve_storm {serve_rate:.4} allocs/op");
    println!("alloc_counts: in_flight_bytes {in_flight} bytes peak");

    // Steady-state bounds. The executor storm re-boxes each spawned future
    // (64 spawns per ~18k events); the contended resource pays nothing
    // beyond those boxes, since its waiter queue keeps its capacity; a
    // single-waiter latch wait pays only the latch's own `Rc`, its waiter
    // kept inline; a deep calendar reuses its buckets, so timers cost
    // nothing once warm; the
    // cache hit path is allocation-free once the slab and map reach size,
    // while each miss-insert still pays one `CountdownEvent` allocation for
    // its fill (waiters must be able to clone it); a drive queue and a
    // prefetcher keep their storage, so neither allocates; the fabric pays one boxed
    // task per fire-and-forget post plus channel wakes, and walking a
    // link-model route adds nothing to that. Generous headroom
    // over the measured rates so only a real regression (per-event churn)
    // trips them.
    assert!(
        exec_rate < 0.05,
        "executor storm allocates {exec_rate:.4}/event — hot loop churn"
    );
    assert!(
        latch_rate <= 1.0,
        "latch wait allocates {latch_rate:.4}/wait — a single waiter must not \
         allocate beyond the latch's Rc"
    );
    assert!(
        timer_rate == 0.0,
        "timer depth storm allocates {timer_rate:.4}/timer — the calendar must \
         reuse its buckets"
    );
    assert!(
        resource_allocs <= spawned,
        "resource storm allocates {resource_allocs} for {spawned} spawned tasks — \
         queueing for the server must not allocate"
    );
    assert!(
        cache_rate < 0.25,
        "cache miss storm allocates {cache_rate:.4}/op — more than the fill event"
    );
    assert!(
        clock_per_miss <= lru_per_miss,
        "clock cache miss storm allocates {clock_per_miss:.4}/miss, more than LRU's \
         {lru_per_miss:.4} — a clock eviction must not allocate"
    );
    assert!(
        hit_rate == 0.0,
        "cache hit storm allocates {hit_rate:.4}/op — the hit path must be allocation-free"
    );
    assert!(
        queue_rate == 0.0,
        "drive-queue storm allocates {queue_rate:.4}/op — push and pop must reuse \
         the queue's storage"
    );
    assert!(
        plan_rate == 0.0,
        "prefetch storm allocates {plan_rate:.4}/op — planning must reuse the buffer"
    );
    assert!(
        fabric_rate < 0.5,
        "fabric storm allocates {fabric_rate:.4}/event — send/post churn"
    );
    assert!(
        link_per_msg <= fabric_per_msg,
        "link-model fabric storm allocates {link_per_msg:.4}/message, more than \
         NI-only's {fabric_per_msg:.4} — routing a message must not allocate"
    );
    // A request task used to reserve room for every branch it might take
    // (a queue wait and a guard beside the hold, the outage waits, fault
    // recovery and redundant copies), and the transfer peaked at 5,458,136
    // bytes; holding only what a healthy request needs must keep it under
    // three quarters of that.
    assert!(
        in_flight <= 5_458_136 * 3 / 4,
        "a 256-node TC rb transfer peaks at {in_flight} bytes in flight — \
         in-flight tasks grew back"
    );
    assert!(
        serve_rate == 0.0,
        "serve storm allocates {serve_rate:.4}/op — the admission/record path \
         must be allocation-free in steady state"
    );
}
