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
//! Print the `allocs/event` figures with
//! `cargo test -p ddio-bench --release --test alloc_counts -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ddio_core::cache::{BlockCache, CacheConfig, FillReason, Lookup};
use ddio_core::{AdmissionQueue, LatencyHistogram, QosPolicy};
use ddio_net::{Envelope, NetConfig, Network, NetworkParams};
use ddio_sim::sync::{Receiver, Resource};
use ddio_sim::{Sim, SimDuration};

/// Counts every allocation and reallocation; frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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
                    let (_e, _evicted) = cache.insert_filling(block, FillReason::Demand);
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
                    let (_e, _evicted) = cache.insert_filling(block, FillReason::Demand);
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

/// Fabric storm: every node hammering node 0 (sends) while node 0 posts
/// fire-and-forget back — both network hot paths at once. Returns executor
/// events processed.
fn fabric_storm(sim: &mut Sim) -> u64 {
    const NODES: usize = 8;
    // Divisible by NODES - 1, so the round-robin posts land evenly and every
    // drain's expectation is exact.
    const MSGS: usize = 56;
    sim.reset();
    let (net, mut inboxes) = Network::<u64>::new(
        sim.context(),
        NetConfig::DEFAULT,
        NetworkParams::default(),
        NODES,
    );
    fn drain(sim: &mut Sim, rx: Receiver<Envelope<u64>>, expect: usize) {
        sim.spawn(async move {
            let mut got = 0;
            while got < expect {
                if rx.recv().await.is_some() {
                    got += 1;
                }
            }
        });
    }
    for to in (1..NODES).rev() {
        drain(sim, inboxes.remove(to), MSGS / (NODES - 1));
    }
    drain(sim, inboxes.remove(0), (NODES - 1) * MSGS);
    for from in 1..NODES {
        let net = net.clone();
        sim.spawn(async move {
            for i in 0..MSGS {
                net.send(from, 0, 8192, i as u64).await;
            }
        });
    }
    {
        let net = net.clone();
        sim.spawn(async move {
            for i in 0..MSGS {
                let to = 1 + i % (NODES - 1);
                net.post(0, to, 1024, i as u64).await;
            }
        });
    }
    sim.run();
    sim.events_processed()
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
    executor_storm(&mut sim); // warm-up: slab + timer wheel growth
    let before = allocs();
    let events = executor_storm(&mut sim);
    let exec_rate = (allocs() - before) as f64 / events as f64;

    // --- Contended resource ---
    let mut sim = Sim::new();
    let bus = Resource::new(sim.context(), "bus");
    resource_storm(&mut sim, &bus); // warm-up: slab + waiter queue growth
    sim.reset(); // outside the count: the reset pays one drop list
    let before = allocs();
    let spawned = resource_storm(&mut sim, &bus);
    let resource_allocs = allocs() - before;

    // --- Cache, miss-heavy (evict + refill every round) ---
    let mut cache = BlockCache::with_config(256, CacheConfig::DEFAULT);
    cache_storm(&mut cache); // warm-up: slab + block-map growth
    let before = allocs();
    let ops = cache_storm(&mut cache);
    let cache_rate = (allocs() - before) as f64 / ops as f64;

    // --- Cache, pure hits (working set fits) ---
    let mut cache = BlockCache::with_config(1024, CacheConfig::DEFAULT);
    cache_hit_storm(&mut cache); // warm-up: fills the working set
    let before = allocs();
    let hit_ops = cache_hit_storm(&mut cache);
    let hit_rate = (allocs() - before) as f64 / hit_ops as f64;

    // --- Fabric ---
    let mut sim = Sim::new();
    fabric_storm(&mut sim); // warm-up: NI resources + channel buffers
    let before = allocs();
    let events = fabric_storm(&mut sim);
    let fabric_rate = (allocs() - before) as f64 / events as f64;

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

    println!("alloc_counts: executor_storm {exec_rate:.4} allocs/event");
    println!("alloc_counts: resource_storm {resource_allocs} allocs for {spawned} spawned tasks");
    println!("alloc_counts: cache_miss_storm {cache_rate:.4} allocs/op");
    println!("alloc_counts: cache_hit_storm {hit_rate:.4} allocs/op");
    println!("alloc_counts: fabric_storm {fabric_rate:.4} allocs/event");
    println!("alloc_counts: serve_storm {serve_rate:.4} allocs/op");

    // Steady-state bounds. The executor storm re-boxes each spawned future
    // (64 spawns per ~18k events); the contended resource pays nothing
    // beyond those boxes, since its waiter queue keeps its capacity; the
    // cache hit path is allocation-free once the slab and map reach size,
    // while each miss-insert still pays one `CountdownEvent` allocation for
    // its fill (waiters must be able to clone it); the fabric pays one boxed
    // task per fire-and-forget post plus channel wakes. Generous headroom
    // over the measured rates so only a real regression (per-event churn)
    // trips them.
    assert!(
        exec_rate < 0.05,
        "executor storm allocates {exec_rate:.4}/event — hot loop churn"
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
        hit_rate == 0.0,
        "cache hit storm allocates {hit_rate:.4}/op — the hit path must be allocation-free"
    );
    assert!(
        fabric_rate < 0.5,
        "fabric storm allocates {fabric_rate:.4}/event — send/post churn"
    );
    assert!(
        serve_rate == 0.0,
        "serve storm allocates {serve_rate:.4}/op — the admission/record path \
         must be allocation-free in steady state"
    );
}
