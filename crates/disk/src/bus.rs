//! The SCSI I/O bus connecting an I/O processor to its disks.
//!
//! Table 1: one bus per IOP, 10 Mbytes/s peak bandwidth. The bus carries the
//! data transfers between drive caches and IOP memory; when several disks
//! share one bus (Figures 6-8) it becomes the bottleneck.

use ddio_sim::sync::{Resource, ResourceName};
use ddio_sim::{SimContext, SimDuration};

/// Peak bandwidth of the paper's SCSI bus, in bytes per second.
pub const SCSI_BUS_BANDWIDTH: f64 = 10.0 * 1_000_000.0;

/// Per-transfer bus arbitration/command overhead.
pub const SCSI_ARBITRATION: SimDuration = SimDuration::from_micros(100);

/// A shared bus with a fixed bandwidth and per-transfer arbitration overhead.
#[derive(Clone)]
pub struct ScsiBus {
    resource: Resource,
    bytes_per_sec: f64,
    arbitration: SimDuration,
}

impl ScsiBus {
    /// Creates a bus with the paper's parameters (10 MB/s).
    pub fn new(ctx: SimContext, name: impl Into<ResourceName>) -> Self {
        Self::with_bandwidth(ctx, name, SCSI_BUS_BANDWIDTH, SCSI_ARBITRATION)
    }

    /// Creates a bus with an explicit bandwidth and arbitration overhead.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    pub fn with_bandwidth(
        ctx: SimContext,
        name: impl Into<ResourceName>,
        bytes_per_sec: f64,
        arbitration: SimDuration,
    ) -> Self {
        assert!(bytes_per_sec > 0.0, "bus bandwidth must be positive");
        ScsiBus {
            resource: Resource::new(ctx, name),
            bytes_per_sec,
            arbitration,
        }
    }

    /// Transfers `bytes` over the bus, waiting for the bus if it is busy.
    pub async fn transfer(&self, bytes: u64) {
        let time = self.transfer_time(bytes);
        self.resource.use_for(time).await;
    }

    /// Time `bytes` occupy the bus (excluding queueing).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.arbitration + SimDuration::for_bytes(bytes, self.bytes_per_sec)
    }

    /// Configured bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Total time the bus has been occupied.
    pub fn busy_time(&self) -> SimDuration {
        self.resource.busy_time()
    }

    /// Completed or in-progress transfers.
    pub fn transfers(&self) -> u64 {
        self.resource.acquisitions()
    }

    /// Bus utilization over its active window.
    pub fn utilization(&self) -> f64 {
        self.resource.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_sim::Sim;

    #[test]
    fn transfer_time_matches_bandwidth() {
        let mut sim = Sim::new();
        let bus = ScsiBus::new(sim.context(), "bus0");
        // 8 KB at 10 MB/s is 0.8192 ms plus 0.1 ms arbitration.
        let t = bus.transfer_time(8192);
        assert!((t.as_millis_f64() - 0.9192).abs() < 1e-6);
        let _ = &mut sim;
    }

    #[test]
    fn concurrent_transfers_serialize() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = ScsiBus::with_bandwidth(ctx, "b", 10_000_000.0, SimDuration::ZERO);
        for _ in 0..4 {
            let bus = bus.clone();
            sim.spawn(async move {
                bus.transfer(1_000_000).await; // 100 ms each
            });
        }
        assert_eq!(sim.run().as_nanos(), 400_000_000);
        assert_eq!(bus.transfers(), 4);
        assert!((bus.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let sim = Sim::new();
        let _ = ScsiBus::with_bandwidth(sim.context(), "bad", 0.0, SimDuration::ZERO);
    }
}
