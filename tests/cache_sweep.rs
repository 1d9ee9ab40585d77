//! Integration tests of the pluggable IOP cache subsystem end to end: the
//! `cache-sweep` scenario is jobs-invariant, its cache counters reach the
//! outcome, a non-default write policy measurably beats the paper's default
//! on the collective write yet still loses to disk-directed I/O (the
//! sensitivity question of §4), and an LRU-vs-MRU traditional-caching run is
//! pinned bit-exactly — with the LRU value equal to the pre-refactor cache's
//! output, so the default composition provably did not move.
//!
//! Snapshot scale: 1 MiB file, one trial, seed 1994 — the same reduced scale
//! as `tests/golden_figures.rs` and the CI smoke runs.

use disk_directed_io::core::experiment::scenario::{find, run_scenario, CellResult, SweepParams};
use disk_directed_io::{
    run_transfer, AccessPattern, CacheConfig, CacheParams, LayoutPolicy, MachineConfig, Method,
    ReplacementPolicy,
};

fn sweep_params() -> SweepParams {
    SweepParams {
        base: MachineConfig {
            file_bytes: 1024 * 1024,
            ..MachineConfig::default()
        },
        trials: 1,
        seed: 1994,
        small_records: false,
    }
}

fn run_sweep(jobs: usize) -> Vec<CellResult> {
    let scenario = find("cache-sweep").expect("registered scenario");
    run_scenario(&scenario, &sweep_params(), jobs)
}

/// The parallel sweep, computed once and shared by every read-only test
/// (the jobs-invariance test proves any jobs count gives these exact
/// results, so re-simulating per test would only burn time).
fn sweep_results() -> &'static [CellResult] {
    static RESULTS: std::sync::OnceLock<Vec<CellResult>> = std::sync::OnceLock::new();
    RESULTS.get_or_init(|| run_sweep(8))
}

fn mean_of(results: &[CellResult], pattern: &str, label: &str, bufs: u64) -> f64 {
    results
        .iter()
        .find(|r| {
            r.point.pattern == pattern
                && r.point.method.label() == label
                && r.axes.first().map_or(true, |a| a.value == bufs)
        })
        .unwrap_or_else(|| panic!("no cell for {pattern} {label} bufs={bufs}"))
        .point
        .mean()
}

#[test]
fn cache_sweep_is_jobs_invariant() {
    let serial = run_sweep(1);
    let parallel = sweep_results();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.point.pattern, p.point.pattern);
        assert_eq!(s.point.method, p.point.method);
        let s_bits: Vec<u64> = s.point.trials.iter().map(|t| t.to_bits()).collect();
        let p_bits: Vec<u64> = p.point.trials.iter().map(|t| t.to_bits()).collect();
        assert_eq!(
            s_bits,
            p_bits,
            "--jobs 1 and --jobs 8 diverged at {} {}",
            s.point.pattern,
            s.point.method.label()
        );
    }
}

/// The headline sensitivity claim of the sweep: on the collective write a
/// smarter write-back policy (high-watermark batching) beats the paper's
/// flush-on-full baseline handily — and still loses to disk-directed I/O.
/// "Smarter caching narrows but does not close the gap."
#[test]
fn watermark_write_back_beats_default_but_loses_to_ddio() {
    let results = sweep_results();
    let ddio = mean_of(results, "wb", "DDIO(sort)", 0);
    for bufs in [1u64, 8] {
        let default = mean_of(results, "wb", "TC", bufs);
        let watermark = mean_of(results, "wb", "TC[lru+one+watermark]", bufs);
        assert!(
            watermark > default * 1.2,
            "bufs={bufs}: watermark {watermark:.3} not measurably above default {default:.3}"
        );
        assert!(
            watermark < ddio,
            "bufs={bufs}: watermark {watermark:.3} overtook DDIO(sort) {ddio:.3}"
        );
    }
}

/// Cache counters flow from the IOP servers through the outcome: the cold
/// cache misses, the prefetcher's accounting balances, and the cacheless
/// DDIO baseline reports nothing.
#[test]
fn cache_counters_reach_the_outcome() {
    let results = sweep_results();
    // The cyclic read: each CP walks one disk's blocks serially, so the
    // one-ahead prefetch genuinely runs ahead of the demand stream (on rb
    // every candidate is already being demand-fetched by a neighboring CP).
    let tc = results
        .iter()
        .find(|r| r.point.pattern == "rc" && r.point.method == Method::TC)
        .expect("default TC cell present");
    let totals = tc
        .point
        .last_outcome
        .cache_totals()
        .expect("TC publishes cache stats");
    assert!(totals.misses > 0, "a cold cache must miss");
    assert!(totals.prefetches > 0, "one-ahead must prefetch on rc");
    assert!(totals.prefetch_used > 0, "prefetched blocks must get used");
    assert!(
        totals.prefetch_used + totals.prefetch_wasted <= totals.prefetches,
        "prefetch accounting out of balance: {totals:?}"
    );
    let no_prefetch = results
        .iter()
        .find(|r| r.point.method.label() == "TC[lru+none+onfull]" && r.point.pattern == "rc")
        .expect("no-prefetch cell present");
    let np = no_prefetch.point.last_outcome.cache_totals().unwrap();
    assert_eq!(np.prefetches, 0, "the none policy must never prefetch");
    let ddio = results
        .iter()
        .find(|r| r.point.method == Method::DDIO_SORTED)
        .expect("baseline present");
    assert!(ddio.point.last_outcome.cache_totals().is_none());
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
