//! Integration tests of the pluggable IOP cache subsystem end to end: the
//! `cache-sweep` scenario is jobs-invariant, its cache counters reach the
//! outcome, a non-default write policy measurably beats the paper's default
//! on the collective write yet still loses to disk-directed I/O (the
//! sensitivity question of §4), and an LRU-vs-MRU traditional-caching run is
//! pinned bit-exactly — with the LRU value equal to the pre-refactor cache's
//! output, so the default composition provably did not move.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994. The claims are
//! predicates in `ddio_bench::claims`, evaluated over the shared sweep.

use ddio_bench::claims;
use ddio_bench::report::ScenarioRun;
use disk_directed_io::{
    run_transfer, AccessPattern, CacheConfig, CacheParams, LayoutPolicy, MachineConfig, Method,
    ReplacementPolicy,
};

/// The smoke-scale sweep every test here reads.
fn sweep() -> &'static [ScenarioRun] {
    &claims::shared("cache-sweep").1
}

#[test]
fn cache_sweep_is_jobs_invariant() {
    claims::assert_jobs_invariant("cache-sweep");
}

#[test]
fn watermark_write_back_beats_default_but_loses_to_ddio() {
    claims::check(
        "watermark_write_back_beats_default_but_loses_to_ddio",
        sweep(),
    );
}

#[test]
fn cache_counters_reach_the_outcome() {
    claims::check("cache_counters_reach_the_outcome", sweep());
}

/// The default composition bit-exactly reproduces the pre-refactor cache:
/// this value is the pre-refactor fig3 rb/TC cell at this scale, captured
/// before the policy split. The standing A/B proof for the Table 1 machine.
#[test]
fn golden_default_composition_matches_pre_refactor_cache() {
    const GOLDEN_TC_RB: f64 = 4.298932070902063;
    let config = MachineConfig {
        file_bytes: 1024 * 1024,
        layout: LayoutPolicy::RandomBlocks,
        ..MachineConfig::default()
    };
    let pattern = AccessPattern::parse("rb").expect("known pattern");
    let lru = run_transfer(&config, Method::TC, pattern, 8192, 1994);
    assert_eq!(
        lru.throughput_mibs.to_bits(),
        GOLDEN_TC_RB.to_bits(),
        "TC default moved: got {:?}, golden {:?}",
        lru.throughput_mibs,
        GOLDEN_TC_RB
    );
}

/// The satellite golden: LRU vs MRU traditional caching on a 2-D pattern
/// (`rcb`: cyclic rows, blocked columns — the same block is re-read by
/// different CPs at widely different times) through one IOP's small cache,
/// random-blocks layout, values pinned bit-exactly. The 1-D patterns keep
/// the CPs in lockstep so every victim is dead either way; the 2-D reuse
/// pattern is where replacement actually matters. If a refactor moves one
/// of these numbers it changed the simulated physics or the cache
/// subsystem's behavior — re-pin only deliberately.
#[test]
fn golden_lru_vs_mru_snapshot() {
    const GOLDEN_LRU: f64 = 0.25484457238502783;
    const GOLDEN_MRU: f64 = 0.2649683732173166;

    let config = MachineConfig {
        n_cps: 8,
        n_iops: 1,
        n_disks: 1,
        file_bytes: 1024 * 1024,
        layout: LayoutPolicy::RandomBlocks,
        cache: CacheParams {
            buffers_per_disk_per_cp: 2,
        },
        ..MachineConfig::default()
    };
    let pattern = AccessPattern::parse("rcb").expect("known pattern");
    let lru = run_transfer(&config, Method::TC, pattern, 8192, 1994);
    let mru = run_transfer(
        &config,
        Method::TC.with_cache(CacheConfig {
            replacement: ReplacementPolicy::Mru,
            ..CacheConfig::DEFAULT
        }),
        pattern,
        8192,
        1994,
    );
    let lru_evictions = lru.cache_totals().unwrap().evictions;
    assert!(lru_evictions > 0, "the one-buffer cache must evict");
    assert_ne!(
        lru.throughput_mibs.to_bits(),
        mru.throughput_mibs.to_bits(),
        "LRU and MRU should diverge when the cache thrashes"
    );
    assert_eq!(
        lru.throughput_mibs.to_bits(),
        GOLDEN_LRU.to_bits(),
        "TC/LRU moved: got {:?}, golden {:?}",
        lru.throughput_mibs,
        GOLDEN_LRU
    );
    assert_eq!(
        mru.throughput_mibs.to_bits(),
        GOLDEN_MRU.to_bits(),
        "TC/MRU moved: got {:?}, golden {:?}",
        mru.throughput_mibs,
        GOLDEN_MRU
    );
}
