//! The pure (non-async) service-time model of a single HP 97560 drive.
//!
//! [`DiskModel::service`] takes a request and the time it reaches the drive
//! and returns where the time goes: controller overhead, seek, rotational
//! latency and media transfer. It also maintains the mechanism state (arm
//! position, rotational phase is derived from absolute time) and a model of
//! the drive's read-ahead cache, which is what makes sequential access stream
//! at close to the raw media rate — the effect the paper's contiguous-layout
//! experiments rely on.
//!
//! Being pure is what lets a drive run without the paper's per-disk thread:
//! the drive calls `service` once, when it takes a request up, and knows
//! that request's whole service from then on (see
//! [`DiskHandle`](crate::DiskHandle)).

use ddio_sim::{SimDuration, SimTime};

use crate::geometry::Geometry;
use crate::request::{DiskOp, DiskRequest, ServiceBreakdown};
use crate::seek::SeekCurve;

/// Parameters of the drive model: the mechanism and its electronics only.
/// The queue-scheduling policy is not a drive parameter; it is an argument
/// of [`DiskHandle::new`](crate::DiskHandle::new), and in full-machine runs
/// it comes from the transfer's `Method`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Physical geometry.
    pub geometry: Geometry,
    /// Seek-time curve.
    pub seek: SeekCurve,
    /// Head-switch (track-switch within a cylinder) time.
    pub head_switch: SimDuration,
    /// Fixed per-request controller overhead on the media path.
    pub controller_overhead: SimDuration,
    /// Fixed per-request overhead when served from the read-ahead cache.
    pub cache_hit_overhead: SimDuration,
    /// Size of the read-ahead cache in sectors (0 disables read-ahead).
    pub cache_sectors: u64,
}

impl DiskParams {
    /// The HP 97560 parameters used throughout the reproduction.
    pub fn hp_97560() -> Self {
        DiskParams {
            geometry: Geometry::HP_97560,
            seek: SeekCurve::HP_97560,
            head_switch: SimDuration::from_millis_f64(2.5),
            controller_overhead: SimDuration::from_millis_f64(1.1),
            cache_hit_overhead: SimDuration::from_micros(300),
            // 128 KiB on-board buffer.
            cache_sectors: 256,
        }
    }

    /// A small, fast drive for unit tests.
    pub fn tiny_test() -> Self {
        DiskParams {
            geometry: Geometry::TINY_TEST,
            seek: SeekCurve::HP_97560,
            head_switch: SimDuration::from_millis_f64(1.0),
            controller_overhead: SimDuration::from_millis_f64(0.5),
            cache_hit_overhead: SimDuration::from_micros(100),
            cache_sectors: 64,
        }
    }
}

/// Cumulative statistics of one drive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Requests served.
    pub requests: u64,
    /// Requests served from the sequential streak / read-ahead cache.
    pub sequential_hits: u64,
    /// Total seek time.
    pub seek_time: SimDuration,
    /// Total rotational latency.
    pub rotation_time: SimDuration,
    /// Total media transfer time.
    pub transfer_time: SimDuration,
    /// Total busy time (sum of service totals).
    pub busy_time: SimDuration,
    /// Total sectors moved.
    pub sectors: u64,
    /// Sum over dispatches of the queue depth left behind (requests still
    /// pending when one entered service); divide by `requests` for the mean.
    pub queue_depth_sum: u64,
    /// Deepest pending queue observed at any dispatch.
    pub max_queue_depth: u64,
}

impl DiskStats {
    /// Mean pending-queue depth observed at dispatch (0 for an idle drive).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.requests as f64
        }
    }
}

/// Sequential-streak state: the media finished reading/writing up to
/// `end_sector` (exclusive) at `end_time`, and — for reads — keeps reading
/// ahead from there into the cache.
#[derive(Debug, Clone, Copy)]
struct Streak {
    end_sector: u64,
    end_time: SimTime,
    /// Whether read-ahead is active after this operation (reads only).
    read_ahead: bool,
}

/// The service-time model for a single drive.
pub struct DiskModel {
    params: DiskParams,
    current_cylinder: u32,
    streak: Option<Streak>,
    stats: DiskStats,
}

impl DiskModel {
    /// Creates a model with the arm parked at cylinder 0.
    pub fn new(params: DiskParams) -> Self {
        DiskModel {
            params,
            current_cylinder: 0,
            streak: None,
            stats: DiskStats::default(),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Cylinder the arm is currently on.
    pub fn current_cylinder(&self) -> u32 {
        self.current_cylinder
    }

    /// Records the pending-queue depth observed when a request was picked
    /// for service (called by the drive server at each dispatch).
    pub fn record_queue_depth(&mut self, depth: u64) {
        self.stats.queue_depth_sum += depth;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
    }

    /// Computes the service time of `req` arriving at the drive at `now`,
    /// updating the mechanism and cache state.
    ///
    /// # Panics
    ///
    /// Panics if the request runs past the end of the device or is empty.
    pub fn service(&mut self, req: DiskRequest, now: SimTime) -> ServiceBreakdown {
        assert!(req.sector_count > 0, "empty disk request");
        assert!(
            req.end_sector() <= self.params.geometry.total_sectors(),
            "request [{}, {}) past end of device",
            req.start_sector,
            req.end_sector()
        );

        let breakdown = if let Some(seq) = self.sequential_service(req, now) {
            seq
        } else {
            self.random_service(req, now)
        };

        // Update mechanism / streak state.
        let g = self.params.geometry;
        let end_chs = g.lbn_to_chs(req.end_sector() - 1);
        self.current_cylinder = end_chs.cylinder;
        self.streak = Some(Streak {
            end_sector: req.end_sector(),
            end_time: now + breakdown.total,
            read_ahead: req.op == DiskOp::Read && self.params.cache_sectors > 0,
        });

        self.stats.requests += 1;
        self.stats.sectors += req.sector_count as u64;
        self.stats.seek_time += breakdown.seek;
        self.stats.rotation_time += breakdown.rotation;
        self.stats.transfer_time += breakdown.transfer;
        self.stats.busy_time += breakdown.total;
        if breakdown.sequential_hit {
            self.stats.sequential_hits += 1;
        }
        breakdown
    }

    /// Media time to move from sector `from` to sector `to` (exclusive),
    /// charging skew for every track and cylinder boundary crossed.
    fn media_time(&self, from: u64, to: u64) -> SimDuration {
        debug_assert!(to >= from);
        let g = self.params.geometry;
        let sectors = to - from;
        if sectors == 0 {
            return SimDuration::ZERO;
        }
        let spt = g.sectors_per_track as u64;
        let spc = g.sectors_per_cylinder();
        // Boundaries crossed strictly inside (from, to): a transfer that ends
        // exactly at a boundary does not pay for crossing it.
        let track_crossings = (to - 1) / spt - from / spt;
        let cyl_crossings = (to - 1) / spc - from / spc;
        // A cylinder crossing is also a track crossing; charge it only once,
        // at the (larger) cylinder skew.
        let track_only = track_crossings.saturating_sub(cyl_crossings);
        let skew_sectors =
            track_only * g.track_skew as u64 + cyl_crossings * g.cylinder_skew as u64;
        SimDuration::from_secs_f64((sectors + skew_sectors) as f64 * g.sector_secs())
    }

    /// Attempts to serve the request as a continuation of the current
    /// sequential streak (read-ahead hit for reads, back-to-back streaming
    /// for writes). Returns `None` if the general random-access path must be
    /// used instead.
    fn sequential_service(&self, req: DiskRequest, now: SimTime) -> Option<ServiceBreakdown> {
        let streak = self.streak?;
        if req.start_sector != streak.end_sector {
            return None;
        }
        let media_done = streak.end_time + self.media_time(streak.end_sector, req.end_sector());
        match req.op {
            DiskOp::Read => {
                if !streak.read_ahead {
                    return None;
                }
                // The read-ahead cache only holds so much; if the host fell
                // too far behind, the cache wrapped and this is a miss.
                let lag = now.saturating_duration_since(streak.end_time);
                let sectors_read_ahead =
                    (lag.as_secs_f64() / self.params.geometry.sector_secs()) as u64;
                if sectors_read_ahead > self.params.cache_sectors {
                    return None;
                }
                let earliest = now + self.params.cache_hit_overhead;
                let done = if media_done > earliest {
                    media_done
                } else {
                    earliest
                };
                let total = done - now;
                Some(ServiceBreakdown {
                    overhead: self.params.cache_hit_overhead,
                    seek: SimDuration::ZERO,
                    rotation: SimDuration::ZERO,
                    transfer: self.media_time(streak.end_sector, req.end_sector()),
                    total,
                    sequential_hit: true,
                    failed: false,
                })
            }
            DiskOp::Write => {
                // The write can ride the streak only if it reaches the drive
                // before the start sector rotates past the head.
                if now + self.params.cache_hit_overhead > media_done {
                    return None;
                }
                let total = media_done - now;
                Some(ServiceBreakdown {
                    overhead: self.params.cache_hit_overhead,
                    seek: SimDuration::ZERO,
                    rotation: SimDuration::ZERO,
                    transfer: self.media_time(streak.end_sector, req.end_sector()),
                    total,
                    sequential_hit: true,
                    failed: false,
                })
            }
        }
    }

    /// The general path: controller overhead, seek, rotational latency, and
    /// media transfer.
    fn random_service(&self, req: DiskRequest, now: SimTime) -> ServiceBreakdown {
        let g = self.params.geometry;
        let start_chs = g.lbn_to_chs(req.start_sector);

        let overhead = self.params.controller_overhead;
        let seek = self
            .params
            .seek
            .seek_between(self.current_cylinder, start_chs.cylinder);

        // Rotational latency: wait for the start sector to come under the head.
        let rev = g.revolution_secs();
        let at = (now + overhead + seek).as_nanos() as f64 / 1e9;
        let current_angle = (at / rev).fract();
        let target_angle = g.angular_sector_position(start_chs) / g.sectors_per_track as f64;
        let mut delta = target_angle - current_angle;
        if delta < 0.0 {
            delta += 1.0;
        }
        let rotation = SimDuration::from_secs_f64(delta * rev);

        // Media transfer, including skew for boundary crossings and a head
        // switch when the transfer spans tracks.
        let mut transfer = self.media_time(req.start_sector, req.end_sector());
        let spt = g.sectors_per_track as u64;
        let first_track = req.start_sector / spt;
        let last_track = (req.end_sector() - 1) / spt;
        let switches = last_track - first_track;
        transfer += self.params.head_switch * switches;

        let total = overhead + seek + rotation + transfer;
        ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
            total,
            sequential_hit: false,
            failed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK_SECTORS: u32 = 16; // 8 KB blocks

    fn model() -> DiskModel {
        DiskModel::new(DiskParams::hp_97560())
    }

    #[test]
    fn first_random_read_pays_seek_and_rotation() {
        let mut m = model();
        // Far from cylinder 0 so the seek is non-trivial.
        let target = Geometry::HP_97560.sectors_per_cylinder() * 1000;
        let b = m.service(DiskRequest::read(target, BLOCK_SECTORS), SimTime::ZERO);
        assert!(!b.sequential_hit);
        assert!(b.seek > SimDuration::from_millis(8), "seek was {}", b.seek);
        assert!(b.rotation <= SimDuration::from_millis(15));
        assert!(b.transfer >= SimDuration::from_millis(3));
        assert_eq!(b.total, b.overhead + b.seek + b.rotation + b.transfer);
        assert_eq!(m.current_cylinder(), 1000);
    }

    #[test]
    fn sequential_reads_stream_at_near_media_rate() {
        let mut m = model();
        let g = Geometry::HP_97560;
        let mut now = SimTime::ZERO;
        let blocks = 200u64;
        for i in 0..blocks {
            let b = m.service(
                DiskRequest::read(i * BLOCK_SECTORS as u64, BLOCK_SECTORS),
                now,
            );
            now += b.total;
            if i > 0 {
                assert!(b.sequential_hit, "block {i} was not a sequential hit");
            }
        }
        let bytes = blocks * BLOCK_SECTORS as u64 * 512;
        let rate = bytes as f64 / now.as_secs_f64();
        let peak = g.peak_transfer_bytes_per_sec();
        // Skew at track/cylinder crossings costs ~10%, plus the initial seek.
        assert!(
            rate > 0.85 * peak && rate <= peak,
            "sequential rate {:.2} MB/s vs peak {:.2} MB/s",
            rate / 1e6,
            peak / 1e6
        );
        assert_eq!(m.stats().sequential_hits, blocks - 1);
    }

    #[test]
    fn sequential_writes_stream_when_issued_back_to_back() {
        let mut m = model();
        let mut now = SimTime::ZERO;
        let blocks = 100u64;
        for i in 0..blocks {
            let b = m.service(
                DiskRequest::write(i * BLOCK_SECTORS as u64, BLOCK_SECTORS),
                now,
            );
            now += b.total;
            if i > 0 {
                assert!(b.sequential_hit, "write {i} missed the streak");
            }
        }
        let bytes = blocks * BLOCK_SECTORS as u64 * 512;
        let rate = bytes as f64 / now.as_secs_f64();
        assert!(rate > 0.8 * Geometry::HP_97560.peak_transfer_bytes_per_sec());
    }

    #[test]
    fn late_sequential_write_misses_the_streak() {
        let mut m = model();
        let b0 = m.service(DiskRequest::write(0, BLOCK_SECTORS), SimTime::ZERO);
        // Arrive a long time later: the start sector has rotated past.
        let late = SimTime::ZERO + b0.total + SimDuration::from_millis(100);
        let b1 = m.service(
            DiskRequest::write(BLOCK_SECTORS as u64, BLOCK_SECTORS),
            late,
        );
        assert!(!b1.sequential_hit);
        assert!(b1.rotation > SimDuration::ZERO || b1.seek > SimDuration::ZERO);
    }

    #[test]
    fn late_sequential_read_still_hits_cache_within_capacity() {
        let mut m = model();
        let b0 = m.service(DiskRequest::read(0, BLOCK_SECTORS), SimTime::ZERO);
        // 1 ms later the next block is not fully read ahead yet, but it is
        // a cache (streak) hit and completes when the media gets there.
        let at = SimTime::ZERO + b0.total + SimDuration::from_millis(1);
        let b1 = m.service(DiskRequest::read(BLOCK_SECTORS as u64, BLOCK_SECTORS), at);
        assert!(b1.sequential_hit);
        // 10 ms later (still within the 256-sector cache window) it is ready
        // immediately: only the hit overhead.
        let at2 = at + b1.total + SimDuration::from_millis(10);
        let b2 = m.service(
            DiskRequest::read(2 * BLOCK_SECTORS as u64, BLOCK_SECTORS),
            at2,
        );
        assert!(b2.sequential_hit);
        assert_eq!(b2.total, DiskParams::hp_97560().cache_hit_overhead);
    }

    #[test]
    fn very_late_sequential_read_overflows_cache_and_misses() {
        let mut m = model();
        let b0 = m.service(DiskRequest::read(0, BLOCK_SECTORS), SimTime::ZERO);
        // 256 sectors of read-ahead take ~53 ms; arriving 1 s later the
        // cache has long wrapped.
        let at = SimTime::ZERO + b0.total + SimDuration::from_secs(1);
        let b1 = m.service(DiskRequest::read(BLOCK_SECTORS as u64, BLOCK_SECTORS), at);
        assert!(!b1.sequential_hit);
    }

    #[test]
    fn random_reads_cost_more_than_sequential() {
        let params = DiskParams::hp_97560();
        let g = params.geometry;
        let mut seq = DiskModel::new(params);
        let mut rnd = DiskModel::new(params);
        let mut now_seq = SimTime::ZERO;
        let mut now_rnd = SimTime::ZERO;
        let blocks = 50u64;
        for i in 0..blocks {
            let b = seq.service(
                DiskRequest::read(i * BLOCK_SECTORS as u64, BLOCK_SECTORS),
                now_seq,
            );
            now_seq += b.total;
            // Spread random blocks across the whole device.
            let lbn = (i * 7919 + 13) % (g.total_sectors() / BLOCK_SECTORS as u64);
            let b = rnd.service(
                DiskRequest::read(lbn * BLOCK_SECTORS as u64, BLOCK_SECTORS),
                now_rnd,
            );
            now_rnd += b.total;
        }
        assert!(
            now_rnd.as_secs_f64() > 3.0 * now_seq.as_secs_f64(),
            "random {:.3}s vs sequential {:.3}s",
            now_rnd.as_secs_f64(),
            now_seq.as_secs_f64()
        );
    }

    #[test]
    fn average_random_block_time_is_plausible() {
        // The paper's random-blocks layout spreads 8 KB blocks over the whole
        // drive; with presorting the per-block time approaches
        // seek(short) + half rotation + transfer, without it roughly
        // seek(avg) + half rotation + transfer (~20-30 ms).
        let mut m = model();
        let g = Geometry::HP_97560;
        let n_blocks = g.total_sectors() / BLOCK_SECTORS as u64;
        let mut now = SimTime::ZERO;
        let count = 200u64;
        for i in 0..count {
            let lbn = (i * 104_729 + 7) % n_blocks; // pseudo-random walk
            let b = m.service(
                DiskRequest::read(lbn * BLOCK_SECTORS as u64, BLOCK_SECTORS),
                now,
            );
            now += b.total;
        }
        let avg_ms = now.as_secs_f64() * 1e3 / count as f64;
        assert!(
            (15.0..35.0).contains(&avg_ms),
            "average random 8 KB service time was {avg_ms:.1} ms"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut m = model();
        let mut now = SimTime::ZERO;
        for i in 0..10u64 {
            let b = m.service(DiskRequest::read(i * 16, 16), now);
            now += b.total;
        }
        let s = m.stats();
        assert_eq!(s.requests, 10);
        assert_eq!(s.sectors, 160);
        assert_eq!(s.busy_time, now - SimTime::ZERO);
        assert!(s.transfer_time > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "past end of device")]
    fn out_of_range_request_panics() {
        let mut m = model();
        let total = Geometry::HP_97560.total_sectors();
        m.service(DiskRequest::read(total - 8, 16), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty disk request")]
    fn empty_request_panics() {
        let mut m = model();
        m.service(DiskRequest::read(0, 0), SimTime::ZERO);
    }
}
