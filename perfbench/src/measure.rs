//! Running one transfer through the harness, checking it, and pooling its
//! deterministic outputs into counts and a digest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ddio_core::experiment::run_data_point;
use ddio_core::experiment::scenario::Cell;
use ddio_core::{MachineConfig, Method, TransferOutcome};

/// One checked transfer: its outcome and the host seconds the
/// `run_data_point` call took.
pub struct Transfer {
    /// The outcome of the transfer's single trial.
    pub outcome: TransferOutcome,
    /// Host seconds of the `run_data_point` call.
    pub call_secs: f64,
    /// When the call started (spans are placed from it).
    pub started: Instant,
}

/// Runs `cell` as one trial through `run_data_point`, the harness's
/// thread-local-arena path, with data-placement verification switched on or
/// off. The data point holds the one trial's full outcome.
///
/// Returns why the transfer failed: it panicked, lost blocks on a healthy
/// machine, served fewer requests than were scheduled, or failed
/// verification.
pub fn run(cell: &Cell, verify: bool) -> Result<Transfer, String> {
    let verified;
    // Open-loop serving has no collective data placement to verify; its
    // check is that every scheduled request was served.
    let config = if verify && !cell.config.serve.is_open_loop() {
        verified = MachineConfig {
            verify: true,
            ..cell.config.clone()
        };
        &verified
    } else {
        &cell.config
    };
    let started = Instant::now();
    let point = catch_unwind(AssertUnwindSafe(|| {
        run_data_point(
            config,
            cell.method,
            cell.pattern,
            cell.record_bytes,
            1,
            cell.seed,
        )
    }));
    let call_secs = started.elapsed().as_secs_f64();
    let outcome = match point {
        Ok(point) => point.last_outcome,
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            return Err(format!("{}: panicked: {why}", label(cell)));
        }
    };
    check(cell, &outcome).map_err(|why| format!("{}: {why}", label(cell)))?;
    Ok(Transfer {
        outcome,
        call_secs,
        started,
    })
}

fn check(cell: &Cell, outcome: &TransferOutcome) -> Result<(), String> {
    if outcome.fault_stats.lost_blocks > 0 {
        return Err(format!(
            "lost {} blocks on a healthy machine",
            outcome.fault_stats.lost_blocks
        ));
    }
    let serve = &cell.config.serve;
    if serve.is_open_loop() {
        let scheduled = (serve.tenants * serve.requests_per_tenant) as u64;
        if outcome.serve.requests != scheduled {
            return Err(format!(
                "served {} of {scheduled} requests",
                outcome.serve.requests
            ));
        }
    }
    if let Some(report) = &outcome.verify {
        if !report.complete {
            return Err(format!("verification failed: {}", report.detail));
        }
    }
    if !(outcome.throughput_mibs > 0.0 && outcome.throughput_mibs.is_finite()) {
        return Err(format!("throughput {} MiB/s", outcome.throughput_mibs));
    }
    Ok(())
}

/// A transfer's name in failure messages.
fn label(cell: &Cell) -> String {
    let mut s = format!(
        "{} {} {}",
        cell.scenario,
        cell.method.label(),
        cell.pattern.name()
    );
    for axis in &cell.axes {
        s.push_str(&format!(" {}={}", axis.name, axis.value));
    }
    s
}

/// Work counts pooled over every transfer of a pass. All of them are
/// deterministic: a pass at one seed always produces the same counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Executor events.
    pub sim_events: u64,
    /// Executor events of traditional-caching transfers.
    pub tc_events: u64,
    /// File blocks (or served requests) of traditional-caching transfers.
    pub tc_blocks: u64,
    /// Executor events of disk-directed transfers.
    pub ddio_events: u64,
    /// File blocks (or served requests) of disk-directed transfers.
    pub ddio_blocks: u64,
    /// Messages that crossed the interconnect.
    pub net_messages: u64,
    /// Bytes that crossed the interconnect.
    pub net_bytes: u64,
    /// Requests the drives served.
    pub disk_requests: u64,
    /// Pending-queue depth summed over dispatches.
    pub disk_queue_depth_sum: u64,
    /// Requests served from the drives' read-ahead.
    pub disk_sequential_hits: u64,
    /// IOP cache hits.
    pub cache_hits: u64,
    /// IOP cache misses.
    pub cache_misses: u64,
    /// Blocks the IOP caches prefetched.
    pub cache_prefetches: u64,
    /// Prefetched blocks later read.
    pub cache_prefetch_used: u64,
    /// IOP cache evictions.
    pub cache_evictions: u64,
    /// Write-behind flushes.
    pub cache_flushes: u64,
    /// Open-loop requests served.
    pub serve_requests: u64,
}

impl Counts {
    /// Adds one transfer's outcome.
    pub fn add(&mut self, cell: &Cell, outcome: &TransferOutcome) {
        let blocks = if cell.config.serve.is_open_loop() {
            outcome.serve.requests
        } else {
            cell.config.n_blocks()
        };
        self.sim_events += outcome.sim_events;
        match cell.method {
            Method::TraditionalCaching(..) => {
                self.tc_events += outcome.sim_events;
                self.tc_blocks += blocks;
            }
            Method::DiskDirected(_) => {
                self.ddio_events += outcome.sim_events;
                self.ddio_blocks += blocks;
            }
        }
        self.net_messages += outcome.messages;
        self.net_bytes += outcome.network_bytes;
        for d in &outcome.disk_stats {
            self.disk_requests += d.requests;
            self.disk_queue_depth_sum += d.queue_depth_sum;
            self.disk_sequential_hits += d.sequential_hits;
        }
        if let Some(c) = outcome.cache_totals() {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
            self.cache_prefetches += c.prefetches;
            self.cache_prefetch_used += c.prefetch_used;
            self.cache_evictions += c.evictions;
            self.cache_flushes += c.flushes;
        }
        self.serve_requests += outcome.serve.requests;
    }
}

/// FNV-1a, 64 bits.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds one word.
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A hash of one transfer's deterministic outputs: simulated time, event
/// count, throughput bits, and every counter the per-layer metrics pool. A
/// change that only speeds up the simulator leaves it unchanged; host times
/// and the verification report are left out.
pub fn outcome_digest(outcome: &TransferOutcome) -> u64 {
    let mut d = Digest::default();
    for word in [
        outcome.elapsed.as_nanos(),
        outcome.sim_events,
        outcome.throughput_mibs.to_bits(),
        outcome.aggregate_mibs.to_bits(),
        outcome.transferred_bytes,
        outcome.messages,
        outcome.network_bytes,
        outcome.fault_stats.reconstruction_reads,
        outcome.fault_stats.lost_blocks,
    ] {
        d.eat(word);
    }
    for s in &outcome.disk_stats {
        for word in [
            s.requests,
            s.sequential_hits,
            s.sectors,
            s.queue_depth_sum,
            s.max_queue_depth,
            s.busy_time.as_nanos(),
            s.seek_time.as_nanos(),
            s.rotation_time.as_nanos(),
        ] {
            d.eat(word);
        }
    }
    for c in outcome.cache_stats.iter().flatten() {
        for word in [
            c.hits,
            c.misses,
            c.prefetches,
            c.prefetch_used,
            c.prefetch_wasted,
            c.evictions,
            c.dirty_evictions,
            c.overflows,
            c.flushes,
        ] {
            d.eat(word);
        }
    }
    let s = &outcome.serve;
    for word in [
        s.requests,
        s.served_bytes,
        s.p50_ms.to_bits(),
        s.p99_ms.to_bits(),
        s.p999_ms.to_bits(),
        s.mean_queue_ms.to_bits(),
    ] {
        d.eat(word);
    }
    d.value()
}
