//! The fault-injection and redundancy subsystem: *what breaks during the
//! transfer, and what the file system keeps in reserve*.
//!
//! Mirroring the other three pluggable subsystems (disk scheduling, IOP
//! caching, the interconnect), a machine composes a [`FaultPolicy`] — a
//! deterministic schedule of timed failures drawn from the trial seed — with
//! a [`RedundancyPolicy`] — how the layout places spare copies and how reads
//! are reconstructed when a drive dies. The default composition
//! (`none` + `none`) injects nothing, places nothing, and is bit-identical
//! to a machine that has never heard of faults.
//!
//! The schedule itself is a [`FaultConfig`]: per-drive
//! [`DriveFaultPlan`]s (die at `t`; stall for a window; run `k`× slow for a
//! window) plus [`NiOutage`] windows on the network interfaces of crashed
//! IOPs. It is derived *before* the simulation starts, from an RNG stream
//! independent of the layout stream, so enabling faults never perturbs block
//! placement.

use ddio_disk::{DiskParams, DriveFaultPlan};
use ddio_net::NiOutage;
use ddio_sim::{SimDuration, SimRng, SimTime};

use crate::config::MachineConfig;

ddio_sim::policy_enum! {
    /// Which deterministic fault schedule a trial runs under.
    ///
    /// The ladder is ordered by severity: two *static* drive degradations
    /// (present from time zero, never recovered), then two *timed* schedules
    /// whose events fire mid-transfer.
    pub enum FaultPolicy {
        /// No faults; the paper's machine and the bit-identical default.
        #[default]
        None = "none",
        /// Every drive's on-board read-ahead cache is disabled from time zero.
        Cacheless = "cacheless",
        /// Cacheless, plus 4× controller overhead and head-switch time on every
        /// drive: a tired drive.
        Worn = "worn",
        /// A timed, recoverable schedule: one drive runs slower for a window
        /// mid-transfer, and one IOP crashes and restarts (its network interface
        /// drops and its drives stall for the window). No data is lost.
        Transient = "transient",
        /// The transient schedule, plus one drive dies permanently mid-transfer.
        /// Reads of its blocks fail and must be reconstructed from redundancy —
        /// or counted as lost.
        Failure = "failure",
    }
}

impl FaultPolicy {
    /// True if the policy carries a timed schedule (events that fire
    /// mid-transfer rather than static degradation from time zero).
    pub fn has_timed_events(self) -> bool {
        matches!(self, FaultPolicy::Transient | FaultPolicy::Failure)
    }

    /// Applies the policy's *static* degradation to the drive parameters
    /// every disk is built with. `None`, `Transient`, and `Failure` leave
    /// the drives pristine; `Cacheless` drops the read-ahead cache and
    /// `Worn` additionally quadruples the mechanical overheads.
    pub fn degrade(self, params: &mut DiskParams) {
        match self {
            FaultPolicy::None | FaultPolicy::Transient | FaultPolicy::Failure => {}
            FaultPolicy::Cacheless => params.cache_sectors = 0,
            FaultPolicy::Worn => {
                params.cache_sectors = 0;
                params.controller_overhead = params.controller_overhead.times(4);
                params.head_switch = params.head_switch.times(4);
            }
        }
    }
}

ddio_sim::policy_enum! {
    /// How the layout places spare copies of file blocks, and therefore what a
    /// read can fall back on when a drive dies.
    pub enum RedundancyPolicy {
        /// No redundancy; a dead drive's blocks are simply lost. The
        /// bit-identical default.
        #[default]
        None = "none",
        /// Mirrored pairs: disk `d` keeps a copy of every block whose primary
        /// lives on its partner `d ^ 1`. Reconstruction reads the single copy.
        /// Requires an even number of disks.
        Mirrored = "mirror",
        /// Rotated parity (RAID-5 style): each stripe row of `n_disks - 1` data
        /// blocks carries one parity block, with the parity disk rotating by
        /// row. Reconstruction reads every surviving row member plus parity.
        Parity = "parity",
    }
}

/// What kind of fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One drive serves requests `k`× slower for a window.
    DriveSlows,
    /// One IOP crashes and restarts: its network interface drops and its
    /// drives stall for the window.
    IopCrash,
    /// One drive dies permanently; its blocks must be reconstructed.
    DriveDies,
}

/// One scheduled fault, kept for accounting (the drives and the network are
/// driven by the compiled [`DriveFaultPlan`]s and [`NiOutage`]s, not by this
/// list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What breaks.
    pub kind: FaultKind,
    /// When it breaks.
    pub at: SimTime,
    /// When it recovers; `None` for a permanent failure.
    pub until: Option<SimTime>,
}

/// The compiled fault schedule of one trial: per-drive plans, NI outage
/// windows, and the event list they were compiled from.
///
/// Derived once, deterministically, before the simulation starts — see
/// [`FaultConfig::derive`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// One plan per global disk (empty plans for healthy drives).
    pub drive_plans: Vec<DriveFaultPlan>,
    /// Network-interface outage windows (crashed IOPs).
    pub outages: Vec<NiOutage>,
    /// The scheduled events, for accounting.
    pub events: Vec<FaultEvent>,
}

impl FaultConfig {
    /// A schedule that injects nothing on a machine with `n_disks` drives.
    pub fn empty(n_disks: usize) -> FaultConfig {
        FaultConfig {
            drive_plans: vec![DriveFaultPlan::default(); n_disks],
            outages: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Derives the schedule for `policy` on `config`'s machine from `rng`.
    ///
    /// The derivation is a pure function of the RNG seed: event times are
    /// drawn as fractions of the transfer's *hardware-limit* duration
    /// estimate (so the same policy scales with file size and machine
    /// shape), in a fixed draw order. Static policies (`none`, `cacheless`,
    /// `worn`) draw nothing and return an empty schedule — their degradation
    /// is applied to the drive parameters instead, via
    /// [`FaultPolicy::degrade`].
    pub fn derive(policy: FaultPolicy, config: &MachineConfig, rng: &SimRng) -> FaultConfig {
        let mut fc = FaultConfig::empty(config.n_disks);
        if !policy.has_timed_events() {
            return fc;
        }
        // A deliberately optimistic transfer-time estimate: real transfers
        // only take longer, so windows drawn inside it land mid-transfer.
        let est = config.file_bytes as f64 / config.hardware_limit();
        let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(est * frac);

        // Fixed draw order; adding a draw before an existing one would
        // change every schedule, so new draws must go at the end.
        let slow_disk = rng.gen_range(config.n_disks as u64) as usize;
        let slow_from = at(0.15 + 0.25 * rng.gen_f64());
        let slow_until = slow_from + SimDuration::from_secs_f64(est * (0.3 + 0.3 * rng.gen_f64()));
        let slow_factor = 2.0 + 6.0 * rng.gen_f64();
        fc.drive_plans[slow_disk]
            .slows
            .push((slow_from, slow_until, slow_factor));
        fc.events.push(FaultEvent {
            kind: FaultKind::DriveSlows,
            at: slow_from,
            until: Some(slow_until),
        });

        let crash_iop = rng.gen_range(config.n_iops as u64) as usize;
        let crash_from = at(0.3 + 0.2 * rng.gen_f64());
        let crash_until =
            crash_from + SimDuration::from_secs_f64(est * (0.1 + 0.2 * rng.gen_f64()));
        fc.outages.push(NiOutage {
            node: config.iop_node(crash_iop),
            from: crash_from,
            until: crash_until,
        });
        for disk in config.disks_of_iop(crash_iop) {
            fc.drive_plans[disk].stalls.push((crash_from, crash_until));
        }
        fc.events.push(FaultEvent {
            kind: FaultKind::IopCrash,
            at: crash_from,
            until: Some(crash_until),
        });

        if policy == FaultPolicy::Failure {
            let dead_disk = rng.gen_range(config.n_disks as u64) as usize;
            let dead_at = at(0.25 + 0.35 * rng.gen_f64());
            fc.drive_plans[dead_disk].dead_at = Some(dead_at);
            fc.events.push(FaultEvent {
                kind: FaultKind::DriveDies,
                at: dead_at,
                until: None,
            });
        }
        fc
    }

    /// True if the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.outages.is_empty()
            && self.drive_plans.iter().all(DriveFaultPlan::is_empty)
    }

    /// The plan of global disk `disk` (an empty plan if the schedule has
    /// none, so callers need not bounds-check).
    pub fn plan(&self, disk: usize) -> DriveFaultPlan {
        self.drive_plans.get(disk).cloned().unwrap_or_default()
    }

    /// True if `disk` has died by `now`.
    pub fn is_dead(&self, disk: usize, now: SimTime) -> bool {
        self.drive_plans.get(disk).is_some_and(|p| p.is_dead(now))
    }

    /// How many scheduled events had fired by `end`.
    pub fn events_fired(&self, end: SimTime) -> u64 {
        self.events.iter().filter(|e| e.at <= end).count() as u64
    }

    /// Total seconds of degraded operation inside `[0, end]`: the sum over
    /// events of the overlap between the event's window (clamped at `end`
    /// for permanent failures) and the run. Overlapping windows are counted
    /// once each — the metric measures fault exposure, not wall time.
    pub fn degraded_secs(&self, end: SimTime) -> f64 {
        // fold, not sum: an empty `f64` sum is -0.0, which renders as "-0".
        self.events.iter().fold(0.0, |acc, e| {
            let until = e.until.unwrap_or(end).min(end);
            acc + until.saturating_duration_since(e.at).as_secs_f64()
        })
    }
}

/// Fault and recovery counters of one transfer, surfaced per JSON cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Scheduled fault events that fired before the transfer finished.
    pub events_fired: u64,
    /// Reads issued against redundant copies to reconstruct failed blocks.
    pub reconstruction_reads: u64,
    /// Seconds of the run spent inside at least one fault window (summed
    /// per event).
    pub degraded_secs: f64,
    /// Blocks that could not be read or written because no redundancy
    /// survived. A transfer with lost blocks reports zero throughput.
    pub lost_blocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_cps: usize, n_iops: usize, n_disks: usize) -> MachineConfig {
        MachineConfig {
            n_cps,
            n_iops,
            n_disks,
            file_bytes: 1 << 20,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn names_round_trip() {
        for p in FaultPolicy::ALL {
            assert_eq!(FaultPolicy::parse(p.name()), Some(p));
        }
        for r in RedundancyPolicy::ALL {
            assert_eq!(RedundancyPolicy::parse(r.name()), Some(r));
        }
        assert_eq!(FaultPolicy::parse("meteor"), None);
        assert_eq!(RedundancyPolicy::parse("raid6"), None);
    }

    #[test]
    fn sets_parse_and_filter() {
        let faults = ["none", "failure"].map(|n| FaultPolicy::parse(n).unwrap());
        assert_eq!(faults, [FaultPolicy::None, FaultPolicy::Failure]);
        let timed: Vec<_> = faults
            .into_iter()
            .filter(|f| f.has_timed_events())
            .collect();
        assert_eq!(timed, [FaultPolicy::Failure]);
        assert_eq!(FaultPolicy::ALL.len(), 5);
        let redundancy = ["mirror", "parity"].map(|n| RedundancyPolicy::parse(n).unwrap());
        assert_eq!(
            redundancy,
            [RedundancyPolicy::Mirrored, RedundancyPolicy::Parity]
        );
        assert_eq!(RedundancyPolicy::ALL.len(), 3);
        assert_eq!(RedundancyPolicy::parse(" "), None);
    }

    #[test]
    fn static_policies_compile_to_an_empty_schedule() {
        let config = config(2, 2, 4);
        let rng = SimRng::seed_from_u64(7);
        for policy in [FaultPolicy::None, FaultPolicy::Cacheless, FaultPolicy::Worn] {
            let fc = FaultConfig::derive(policy, &config, &rng);
            assert!(fc.is_empty(), "{policy} should inject nothing");
            assert_eq!(fc.drive_plans.len(), 4);
            assert_eq!(fc.events_fired(SimTime::MAX), 0);
            assert_eq!(fc.degraded_secs(SimTime::MAX), 0.0);
        }
    }

    #[test]
    fn degrade_matches_the_degraded_disk_ladder() {
        let base = MachineConfig::default().disk;
        let mut cacheless = base;
        FaultPolicy::Cacheless.degrade(&mut cacheless);
        assert_eq!(cacheless.cache_sectors, 0);
        assert_eq!(cacheless.controller_overhead, base.controller_overhead);

        let mut worn = base;
        FaultPolicy::Worn.degrade(&mut worn);
        assert_eq!(worn.cache_sectors, 0);
        assert_eq!(worn.controller_overhead, base.controller_overhead.times(4));
        assert_eq!(worn.head_switch, base.head_switch.times(4));

        let mut timed = base;
        FaultPolicy::Failure.degrade(&mut timed);
        assert_eq!(timed, base);
    }

    #[test]
    fn transient_schedules_a_slowdown_and_a_crash_but_no_death() {
        let config = config(2, 2, 4);
        let fc = FaultConfig::derive(FaultPolicy::Transient, &config, &SimRng::seed_from_u64(3));
        assert!(!fc.is_empty());
        assert_eq!(fc.events.len(), 2);
        assert_eq!(fc.outages.len(), 1);
        assert!(fc.drive_plans.iter().all(|p| p.dead_at.is_none()));
        // The crashed IOP's disks all stall for the outage window.
        let outage = fc.outages[0];
        let iop = outage.node - config.n_cps;
        for disk in config.disks_of_iop(iop) {
            assert_eq!(
                fc.drive_plans[disk].stalls,
                vec![(outage.from, outage.until)]
            );
        }
        // Both windows land strictly inside the optimistic transfer estimate
        // scaled by their maximum fractions.
        for e in &fc.events {
            assert!(e.at > SimTime::ZERO);
            assert!(e.until.unwrap() > e.at);
        }
    }

    #[test]
    fn failure_adds_a_permanent_death() {
        let config = config(2, 2, 4);
        let fc = FaultConfig::derive(FaultPolicy::Failure, &config, &SimRng::seed_from_u64(3));
        assert_eq!(fc.events.len(), 3);
        let dead: Vec<usize> = (0..4).filter(|&d| fc.is_dead(d, SimTime::MAX)).collect();
        assert_eq!(dead.len(), 1);
        assert!(!fc.is_dead(dead[0], SimTime::ZERO));
        assert_eq!(
            fc.events.iter().filter(|e| e.until.is_none()).count(),
            1,
            "exactly the death is permanent"
        );
    }

    #[test]
    fn same_seed_same_schedule_different_seeds_differ() {
        let config = config(4, 4, 8);
        let a = FaultConfig::derive(FaultPolicy::Failure, &config, &SimRng::seed_from_u64(42));
        let b = FaultConfig::derive(FaultPolicy::Failure, &config, &SimRng::seed_from_u64(42));
        assert_eq!(a, b);
        let c = FaultConfig::derive(FaultPolicy::Failure, &config, &SimRng::seed_from_u64(43));
        assert_ne!(a, c);
    }

    #[test]
    fn accounting_clamps_windows_to_the_run() {
        let mut fc = FaultConfig::empty(1);
        let s = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
        fc.events.push(FaultEvent {
            kind: FaultKind::DriveSlows,
            at: s(1),
            until: Some(s(3)),
        });
        fc.events.push(FaultEvent {
            kind: FaultKind::DriveDies,
            at: s(4),
            until: None,
        });
        // Run ends at t=2: only the slowdown has fired, one second of it.
        assert_eq!(fc.events_fired(s(2)), 1);
        assert!((fc.degraded_secs(s(2)) - 1.0).abs() < 1e-9);
        // Run ends at t=6: both fired; 2 s of slowdown + 2 s dead.
        assert_eq!(fc.events_fired(s(6)), 2);
        assert!((fc.degraded_secs(s(6)) - 4.0).abs() < 1e-9);
        // An event scheduled after the end never degrades a shorter run.
        assert_eq!(fc.degraded_secs(s(1)), 0.0);
    }
}
