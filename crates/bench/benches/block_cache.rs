//! Criterion micro-benchmarks of the IOP block cache's lookup/insert hot
//! path — the code every traditional-caching request crosses — under each
//! replacement policy.

use criterion::{criterion_group, criterion_main, Criterion};
use ddio_core::cache::{BlockCache, CacheConfig, FillReason, Lookup, ReplacementPolicy};

/// A single-pass miss stream: every block is inserted, resolved, and
/// released, evicting continuously once the cache fills (the paper's
/// steady-state for large transfers).
fn bench_miss_stream(c: &mut Criterion) {
    for policy in ReplacementPolicy::ALL {
        let config = CacheConfig {
            replacement: policy,
            ..CacheConfig::DEFAULT
        };
        c.bench_function(&format!("cache/{policy}/miss_stream"), |b| {
            b.iter(|| {
                let mut cache = BlockCache::with_config(32, config);
                for block in 0..1000u64 {
                    if let Lookup::Miss = cache.lookup(block) {
                        cache.insert_filling(block, FillReason::Demand);
                        cache.mark_present(block);
                    }
                    cache.unpin(block);
                }
                cache.stats().evictions
            });
        });
    }
}

/// A hit-heavy stream over a resident working set: the lookup fast path.
fn bench_hit_stream(c: &mut Criterion) {
    for policy in ReplacementPolicy::ALL {
        let config = CacheConfig {
            replacement: policy,
            ..CacheConfig::DEFAULT
        };
        c.bench_function(&format!("cache/{policy}/hit_stream"), |b| {
            b.iter(|| {
                let mut cache = BlockCache::with_config(32, config);
                for block in 0..32u64 {
                    cache.insert_filling(block, FillReason::Demand);
                    cache.mark_present(block);
                    cache.unpin(block);
                }
                for i in 0..1000u64 {
                    let block = (i * 7) % 32;
                    if let Lookup::Hit(_) = cache.lookup(block) {
                        cache.unpin(block);
                    }
                }
                cache.stats().hits
            });
        });
    }
}

/// The write path: write-allocate, accumulate, flush accounting.
fn bench_write_stream(c: &mut Criterion) {
    c.bench_function("cache/default/write_stream", |b| {
        b.iter(|| {
            let mut cache = BlockCache::new(32);
            for block in 0..500u64 {
                if let Lookup::Miss = cache.lookup(block) {
                    cache.insert_filling(block, FillReason::WriteAllocate);
                    cache.mark_present(block);
                }
                cache.record_write(block, 8192);
                cache.note_flush();
                cache.mark_clean(block);
                cache.unpin(block);
            }
            cache.stats().flushes
        });
    });
}

criterion_group!(
    benches,
    bench_miss_stream,
    bench_hit_stream,
    bench_write_stream
);
criterion_main!(benches);
