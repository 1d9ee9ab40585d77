//! The scenario registry: every exhibit of the paper's evaluation — and any
//! new sweep — as a named, declarative entry that expands to independent
//! simulation cells.
//!
//! A [`Scenario`] is (name, description, report shape, cell builder), and
//! every cell builder is one [`Grid`]: a base machine crossed with the
//! scenario's axes (patterns, methods, record sizes, machine counts,
//! policies), outermost axis first, ending in one seed rule. Each cell is
//! one (config, method, pattern, record size) data point with its own
//! deterministic seed, so cells are embarrassingly parallel and
//! [`run_scenario`] can execute them across all cores via
//! [`pool::run_parallel`] without changing a single number.
//!
//! The registry captures Table 1 and Figures 3–8 of the paper plus new
//! scenarios (mixed read/write phases, the scheduling / cache /
//! interconnect-fabric / fault / serving policy sweeps, a record-size ×
//! CP-count cross sweep); the `ddio-bench` CLI is driven from here.
//!
//! [`pool::run_parallel`]: super::pool::run_parallel

use ddio_patterns::AccessPattern;
pub use ddio_sim::stats::Summary;

use crate::cache::{CacheConfig, PrefetchPolicy, ReplacementPolicy, WritePolicy};
use crate::config::{
    ContentionModel, FaultPolicy, LayoutPolicy, MachineConfig, Method, RedundancyPolicy,
    SchedPolicy, TopologyKind,
};
use crate::experiment::pool;
use crate::experiment::{
    format_pattern_table, format_sensitivity_table, run_data_point, DataPoint,
};
use crate::serve::{ArrivalProcess, QosPolicy};

/// The coordinate of one sweep-axis point: numeric for counts and sizes,
/// symbolic for swept policy names (e.g. `topology=mesh` in the net sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisValue {
    /// A numeric coordinate (CP count, record size, buffer count, …).
    Num(u64),
    /// A symbolic coordinate (a policy name such as a topology).
    Name(&'static str),
}

impl AxisValue {
    /// The numeric coordinate, or `None` for symbolic axes.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            AxisValue::Num(v) => Some(v),
            AxisValue::Name(_) => None,
        }
    }
}

impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisValue::Num(v) => write!(f, "{v}"),
            AxisValue::Name(s) => f.write_str(s),
        }
    }
}

impl PartialEq<u64> for AxisValue {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, AxisValue::Num(v) if v == other)
    }
}

impl From<u64> for AxisValue {
    fn from(v: u64) -> AxisValue {
        AxisValue::Num(v)
    }
}

impl From<&'static str> for AxisValue {
    fn from(s: &'static str) -> AxisValue {
        AxisValue::Name(s)
    }
}

/// One labelled point on a sweep axis, e.g. `cps = 8` in Figure 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Axis name (`"cps"`, `"disks"`, `"record"`, `"topology"`, …).
    pub name: &'static str,
    /// The value of the varied parameter at this cell.
    pub value: AxisValue,
}

impl Axis {
    /// A new axis point (numeric or symbolic).
    pub fn new(name: &'static str, value: impl Into<AxisValue>) -> Axis {
        Axis {
            name,
            value: value.into(),
        }
    }
}

/// One independent unit of work: a fully specified data point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The scenario this cell belongs to.
    pub scenario: &'static str,
    /// The complete machine configuration for this cell.
    pub config: MachineConfig,
    /// File-system method.
    pub method: Method,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Record size in bytes.
    pub record_bytes: u64,
    /// Sweep-axis coordinates of this cell (empty for plain grids).
    pub axes: Vec<Axis>,
    /// Base seed for this cell's trials (trial `t` uses `seed + t`).
    pub seed: u64,
}

impl Cell {
    /// The cell's named coordinates, the vocabulary of `ddio-bench run
    /// --where`: `pattern`, `method`, `sched`, `record`, `layout`,
    /// `topology`, `net`, `faults`, `redundancy`, `arrival`, and `qos`; then
    /// `replacement`, `prefetch`, and `write` when the method runs a cache;
    /// then every explicit sweep axis not already named.
    pub fn coordinates(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let mut coords = vec![
            ("pattern", self.pattern.name()),
            ("method", self.method.label()),
            ("sched", self.method.sched().name().to_owned()),
            ("record", self.record_bytes.to_string()),
            ("layout", c.layout.short_name().to_owned()),
            ("topology", c.fabric.topology.name().to_owned()),
            ("net", c.fabric.contention.name().to_owned()),
            ("faults", c.faults.name().to_owned()),
            ("redundancy", c.redundancy.name().to_owned()),
            ("arrival", c.serve.arrival.name().to_owned()),
            ("qos", c.serve.qos.name().to_owned()),
        ];
        if let Some(cache) = self.method.cache() {
            coords.push(("replacement", cache.replacement.name().to_owned()));
            coords.push(("prefetch", cache.prefetch.name().to_owned()));
            coords.push(("write", cache.write.name().to_owned()));
        }
        for axis in &self.axes {
            if coords.iter().all(|(name, _)| *name != axis.name) {
                coords.push((axis.name, axis.value.to_string()));
            }
        }
        coords
    }
}

/// The result of one executed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The scenario the cell came from.
    pub scenario: &'static str,
    /// Sweep-axis coordinates.
    pub axes: Vec<Axis>,
    /// The cell's base seed.
    pub seed: u64,
    /// The hardware bandwidth limit of the cell's configuration, in MiB/s.
    pub hardware_limit_mibs: f64,
    /// The measured data point (trials, summary, diagnostics).
    pub point: DataPoint,
}

/// Inputs every cell builder receives: the base machine plus the scaling
/// knobs of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepParams {
    /// The base machine configuration (builders clone and mutate it).
    pub base: MachineConfig,
    /// Independent trials per cell.
    pub trials: usize,
    /// Base random seed.
    pub seed: u64,
    /// Whether pattern sweeps also run their 8-byte-record half.
    pub small_records: bool,
}

impl Default for SweepParams {
    /// The paper's full-fidelity run: the Table 1 machine, five trials,
    /// seed 1994, both record sizes.
    fn default() -> Self {
        SweepParams {
            base: MachineConfig::default(),
            trials: 5,
            seed: 1994,
            small_records: true,
        }
    }
}

impl SweepParams {
    /// A one-line description printed at the top of every report.
    pub fn describe(&self) -> String {
        format!(
            "file = {} MiB, {} trial(s) per point, seed {} (paper: 10 MiB, 5 trials)",
            self.base.file_bytes / (1024 * 1024),
            self.trials,
            self.seed
        )
    }
}

/// How a scenario's results are rendered as a text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// No cells: print the machine parameters next to the paper's (Table 1).
    MachineParameters,
    /// Figures 3/4: one patterns × methods table per record size, titled
    /// `Figure <figure><a|b>` after the paper's sub-figures.
    PatternTables {
        /// Figure number used in the per-table titles.
        figure: char,
    },
    /// Figures 5–8: one row per swept value, one column per (method,
    /// pattern) series, with the hardware-limit column.
    Sensitivity {
        /// The table's title line.
        table_title: &'static str,
    },
    /// Generic flat listing: one row per cell.
    Flat,
}

/// A named, registered experiment.
///
/// The registry is the single source of truth for scenario metadata: the
/// `ddio-bench list` output (plain and JSON) and the README's scenario
/// catalog are both generated from the `name`/`description`/`headline`
/// fields here, so they cannot drift apart silently.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry key (`"fig5"`, `"mixed-rw"`, …).
    pub name: &'static str,
    /// Heading printed above the report.
    pub title: &'static str,
    /// One line on the question this scenario answers, for `ddio-bench
    /// list` and the README catalog.
    pub description: &'static str,
    /// One line on the headline result at snapshot scale (what the sweep
    /// found, not just what it varies).
    pub headline: &'static str,
    /// Report shape.
    pub report: Report,
    /// Expands the sweep parameters into this scenario's cells.
    pub build: fn(&SweepParams) -> Vec<Cell>,
    /// Optional context line printed between the heading and the tables
    /// (e.g. Figure 4's aggregate-peak-bandwidth note).
    pub note: Option<fn(&SweepParams) -> String>,
}

/// Derives a per-cell seed from the run's base seed and the cell's stable
/// identity, so a cell's randomness depends only on *which* cell it is —
/// never on execution order or worker count.
pub fn derive_seed(base: u64, tags: &[&str], values: &[u64]) -> u64 {
    // FNV-1a over the tags and values, then the simulator's SplitMix64
    // avalanche finalizer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for tag in tags {
        for b in tag.bytes() {
            eat(b);
        }
        eat(0xff); // separator so ("ab","c") != ("a","bc")
    }
    for v in values {
        for b in v.to_le_bytes() {
            eat(b);
        }
    }
    ddio_sim::mix64(base ^ h)
}

/// Runs every cell of `scenario` with up to `jobs` worker threads and
/// returns the results in build order. The output is bit-identical for any
/// `jobs` value because each cell carries its own seed and the pool is
/// position-stable.
pub fn run_scenario(scenario: &Scenario, params: &SweepParams, jobs: usize) -> Vec<CellResult> {
    let cells = (scenario.build)(params);
    run_cells(cells, params.trials, jobs)
}

/// Runs a prebuilt list of cells (the guts of [`run_scenario`], also usable
/// for ad-hoc cell lists).
pub fn run_cells(cells: Vec<Cell>, trials: usize, jobs: usize) -> Vec<CellResult> {
    pool::run_parallel(cells, jobs, |cell| {
        let hardware_limit_mibs = cell.config.hardware_limit() / (1024.0 * 1024.0);
        let point = run_data_point(
            &cell.config,
            cell.method,
            cell.pattern,
            cell.record_bytes,
            trials,
            cell.seed,
        );
        CellResult {
            scenario: cell.scenario,
            axes: cell.axes,
            seed: cell.seed,
            hardware_limit_mibs,
            point,
        }
    })
}

/// Merges the per-cell trial summaries into one scenario-wide summary
/// (pooled over every trial of every cell); `None` for cell-less scenarios.
pub fn aggregate(results: &[CellResult]) -> Option<Summary> {
    results
        .iter()
        .map(|r| r.point.summary.clone())
        .reduce(|a, b| a.merge(&b))
}

/// The full registry, paper exhibits first.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "table1",
            title: "Table 1: Parameters for simulator",
            description: "machine parameters side by side with the paper's values",
            headline: "the modelled machine reproduces Table 1 line by line",
            report: Report::MachineParameters,
            build: |_| Vec::new(),
            note: None,
        },
        Scenario {
            name: "fig3",
            title: "Figure 3: random-blocks disk layout",
            description: "TC vs DDIO vs DDIO(sort), all 19 patterns, random-blocks layout",
            headline: "sorted DDIO beats TC decisively when blocks land at random",
            report: Report::PatternTables { figure: '3' },
            build: build_fig3,
            note: None,
        },
        Scenario {
            name: "fig4",
            title: "Figure 4: contiguous disk layout",
            description: "TC vs DDIO(sort), all 19 patterns, contiguous layout",
            headline: "DDIO stays near the disk limit on every pattern; TC only on easy ones",
            report: Report::PatternTables { figure: '4' },
            build: build_fig4,
            note: Some(|p| {
                format!(
                    "Aggregate peak disk bandwidth: {:.1} MiB/s",
                    p.base.peak_disk_bandwidth() / (1024.0 * 1024.0)
                )
            }),
        },
        Scenario {
            name: "fig5",
            title: "Figure 5: varying the number of CPs",
            description: "throughput vs CP count; contiguous layout, 8 KB records",
            headline: "DDIO holds the disk limit at any CP count; TC sags as CPs multiply",
            report: Report::Sensitivity {
                table_title:
                    "Throughput (MiB/s) vs number of CPs; contiguous layout, 8 KB records",
            },
            build: build_fig5,
            note: None,
        },
        Scenario {
            name: "fig6",
            title: "Figure 6: varying the number of IOPs",
            description: "throughput vs IOP/bus count; 16 disks, contiguous layout",
            headline: "throughput scales with IOPs/buses until the 16 disks saturate",
            report: Report::Sensitivity {
                table_title:
                    "Throughput (MiB/s) vs number of IOPs; 16 disks, contiguous layout, 8 KB records",
            },
            build: build_fig6,
            note: None,
        },
        Scenario {
            name: "fig7",
            title: "Figure 7: varying the number of disks, one IOP, contiguous layout",
            description: "throughput vs disk count on a single IOP/bus, contiguous layout",
            headline: "one 10 MB/s bus caps the stack however many disks hang off it",
            report: Report::Sensitivity {
                table_title:
                    "Throughput (MiB/s) vs number of disks; 1 IOP, contiguous layout, 8 KB records",
            },
            build: build_fig7,
            note: None,
        },
        Scenario {
            name: "fig8",
            title: "Figure 8: varying the number of disks, one IOP, random-blocks layout",
            description: "throughput vs disk count on a single IOP/bus, random-blocks layout",
            headline: "with random placement the seeks, not the bus, set the knee",
            report: Report::Sensitivity {
                table_title:
                    "Throughput (MiB/s) vs number of disks; 1 IOP, random-blocks layout, 8 KB records",
            },
            build: build_fig8,
            note: None,
        },
        Scenario {
            name: "mixed-rw",
            title: "Mixed read/write phases (out-of-core style)",
            description: "alternating collective read and write phases, TC vs DDIO(sort)",
            headline: "DDIO's advantage persists across out-of-core read/write phases",
            report: Report::Flat,
            build: build_mixed_rw,
            note: None,
        },
        Scenario {
            name: "sched-sweep",
            title: "Disk-scheduling policy sweep (random-blocks layout)",
            description: "FCFS vs SSTF vs CSCAN vs presort queues, TC and DDIO, fig5-style patterns",
            headline: "drive-level CSCAN recovers much of presort's win; presort still leads",
            report: Report::Flat,
            build: build_sched_sweep,
            note: Some(|_| {
                "Deep drive queues (8 DDIO buffers per disk) so the drive-level policies have \
                 requests to reorder"
                    .to_owned()
            }),
        },
        Scenario {
            name: "cache-sweep",
            title: "IOP cache policy sweep (random-blocks layout)",
            description: "replacement x prefetch x write-back compositions and cache sizes, TC vs DDIO(sort)",
            headline: "watermark write-back ~doubles TC on the collective write, still loses to DDIO",
            report: Report::Flat,
            build: build_cache_sweep,
            note: Some(|_| {
                "TC cache compositions (default lru+one+onfull, varying one dimension at a \
                 time) at 1 and 8 buffers/disk/CP, against a fixed DDIO(sort) baseline"
                    .to_owned()
            }),
        },
        Scenario {
            name: "record-cp-cross",
            title: "Record size x CP count cross sweep",
            description: "record sizes crossed with CP counts, rb pattern, both methods",
            headline: "small records crush TC's per-request costs; DDIO shrugs them off",
            report: Report::Flat,
            build: build_record_cp_cross,
            note: None,
        },
        Scenario {
            name: "net-sweep",
            title: "Interconnect fabric sweep (topology x contention)",
            description: "torus/mesh/hypercube/crossbar x ni-only/link fabrics, TC vs DDIO(sort)",
            headline: "DDIO's rb rate stays within 1.25x on every fabric and beats TC 1.5x+ on each multi-hop one",
            report: Report::Flat,
            build: build_net_sweep,
            note: Some(|_| {
                "fig5-style patterns on the contiguous layout (disks near their peak, so the \
                 fabric shows) for every topology x contention composition; torus+ni-only is \
                 the paper's machine"
                    .to_owned()
            }),
        },
        Scenario {
            name: "fault-sweep",
            title: "Fault injection and redundancy sweep",
            description: "static degradations, transient storms, and a drive death x none/mirror/parity, TC vs DDIO(sort)",
            headline: "redundancy keeps a dead drive's data alive; without it a death zeroes the cell",
            report: Report::Flat,
            build: build_fault_sweep,
            note: Some(|_| {
                "cacheless/worn degrade every drive from time zero (no read-ahead cache; then \
                 also 4x controller and head-switch overheads), transient/failure add timed \
                 schedules drawn from the cell seed; lost data reports zero throughput"
                    .to_owned()
            }),
        },
        Scenario {
            name: "serve-sweep",
            title: "Open-loop serving sweep (offered load x arrivals x QoS)",
            description: "poisson/bursty tenant streams over an offered-load ladder x QoS policies, TC vs DDIO(sort)",
            headline: "disk-directed batching keeps admission queueing ~8-30x below TC's at every offered load",
            report: Report::Flat,
            build: build_serve_sweep,
            note: Some(|p| {
                format!(
                    "{} tenants x {} requests of one {} KiB block each, open loop: arrivals \
                     ignore completions, so queueing delay lands in the p99/p999 tail",
                    p.base.serve.tenants,
                    p.base.serve.requests_per_tenant,
                    p.base.block_bytes / 1024,
                )
            }),
        },
    ]
}

/// Looks up a scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// A scenario's cells as a cross product of axes.
///
/// A grid starts from one cell — the scenario's base machine, pattern `rb`,
/// 8 KB records, TC — and each [`cross`](Grid::cross) multiplies every cell
/// by one axis, outermost first, so the cells come out in nested-loop
/// order. A grid ends by choosing its seed rule: [`run_seed`](Grid::run_seed)
/// (the paper exhibits, whose cells all share the run seed) or
/// [`derived_seeds`](Grid::derived_seeds).
#[derive(Debug)]
pub struct Grid(Vec<Cell>);

impl Grid {
    /// One cell of `scenario` on `params.base` after `edit`, seeded with
    /// the run seed.
    pub fn new(
        scenario: &'static str,
        params: &SweepParams,
        edit: impl FnOnce(&mut MachineConfig),
    ) -> Grid {
        let mut config = params.base.clone();
        edit(&mut config);
        Grid(vec![Cell {
            scenario,
            config,
            method: Method::TC,
            pattern: known_pattern("rb"),
            record_bytes: 8192,
            axes: Vec::new(),
            seed: params.seed,
        }])
    }

    /// Multiplies every cell by `values`: each cell becomes one copy per
    /// value, in order, with `set` applying the value (and pushing any
    /// [`Axis`] it names).
    pub fn cross<V: Copy>(
        self,
        values: impl IntoIterator<Item = V>,
        set: impl Fn(&mut Cell, V),
    ) -> Grid {
        let values: Vec<V> = values.into_iter().collect();
        let mut cells = Vec::with_capacity(self.0.len() * values.len());
        for cell in &self.0 {
            for &value in &values {
                let mut cell = cell.clone();
                set(&mut cell, value);
                cells.push(cell);
            }
        }
        Grid(cells)
    }

    /// Crosses with an access-pattern axis.
    pub fn patterns(self, patterns: impl IntoIterator<Item = AccessPattern>) -> Grid {
        self.cross(patterns, |c, pattern| c.pattern = pattern)
    }

    /// Crosses with a file-system-method axis.
    pub fn methods(self, methods: impl IntoIterator<Item = Method>) -> Grid {
        self.cross(methods, |c, method| c.method = method)
    }

    /// The cells, every one seeded with the run seed.
    pub fn run_seed(self) -> Vec<Cell> {
        self.0
    }

    /// The cells, each seeded by [`derive_seed`] from the run seed and its
    /// identity: the tags are the scenario, the pattern name when the grid
    /// varies the pattern, the method label, then each symbolic axis value
    /// in order; the values are each numeric axis value in order.
    pub fn derived_seeds(mut self) -> Vec<Cell> {
        let varies_pattern = self.0.windows(2).any(|w| w[0].pattern != w[1].pattern);
        for cell in &mut self.0 {
            let pattern = cell.pattern.name();
            let method = cell.method.label();
            let mut tags = vec![cell.scenario];
            if varies_pattern {
                tags.push(&pattern);
            }
            tags.push(&method);
            let mut values = Vec::new();
            for axis in &cell.axes {
                match axis.value {
                    AxisValue::Name(name) => tags.push(name),
                    AxisValue::Num(v) => values.push(v),
                }
            }
            cell.seed = derive_seed(cell.seed, &tags, &values);
        }
        self.0
    }
}

/// A pattern the registry names by its paper name.
fn known_pattern(name: &str) -> AccessPattern {
    AccessPattern::parse(name).expect("known pattern")
}

/// Figures 3 and 4: every paper pattern × the figure's methods at each
/// record size (the 8-byte half only with `small_records`), on one layout.
fn build_fig3(params: &SweepParams) -> Vec<Cell> {
    let records: &[u64] = if params.small_records {
        &[8192, 8]
    } else {
        &[8192]
    };
    Grid::new("fig3", params, |c| c.layout = LayoutPolicy::RandomBlocks)
        .cross(records.iter().copied(), |c, r| c.record_bytes = r)
        .patterns(AccessPattern::paper_all_patterns())
        .methods([Method::TC, Method::DDIO, Method::DDIO_SORTED])
        .run_seed()
}

fn build_fig4(params: &SweepParams) -> Vec<Cell> {
    // Presorting is irrelevant on the contiguous layout (the block list is
    // already in physical order), so the figure has just two series.
    let records: &[u64] = if params.small_records {
        &[8192, 8]
    } else {
        &[8192]
    };
    Grid::new("fig4", params, |c| c.layout = LayoutPolicy::Contiguous)
        .cross(records.iter().copied(), |c, r| c.record_bytes = r)
        .patterns(AccessPattern::paper_all_patterns())
        .methods([Method::TC, Method::DDIO_SORTED])
        .run_seed()
}

/// Figures 5–8: one swept machine count × the sensitivity patterns × both
/// methods at 8 KB records.
fn build_fig5(params: &SweepParams) -> Vec<Cell> {
    Grid::new("fig5", params, |c| c.layout = LayoutPolicy::Contiguous)
        .cross([1, 2, 4, 8, 16], |c, n| {
            c.config.n_cps = n;
            c.axes.push(Axis::new("cps", n as u64));
        })
        .patterns(AccessPattern::sensitivity_patterns())
        .methods([Method::TC, Method::DDIO_SORTED])
        .run_seed()
}

fn build_fig6(params: &SweepParams) -> Vec<Cell> {
    // IOP counts that divide 16 disks evenly.
    Grid::new("fig6", params, |c| {
        c.layout = LayoutPolicy::Contiguous;
        c.n_disks = 16;
    })
    .cross([1, 2, 4, 8, 16], |c, n| {
        c.config.n_iops = n;
        c.axes.push(Axis::new("iops", n as u64));
    })
    .patterns(AccessPattern::sensitivity_patterns())
    .methods([Method::TC, Method::DDIO_SORTED])
    .run_seed()
}

fn build_fig7(params: &SweepParams) -> Vec<Cell> {
    Grid::new("fig7", params, |c| {
        c.layout = LayoutPolicy::Contiguous;
        c.n_iops = 1;
        c.n_cps = 16;
    })
    .cross([1, 2, 4, 8, 16, 32], |c, n| {
        c.config.n_disks = n;
        c.axes.push(Axis::new("disks", n as u64));
    })
    .patterns(AccessPattern::sensitivity_patterns())
    .methods([Method::TC, Method::DDIO_SORTED])
    .run_seed()
}

fn build_fig8(params: &SweepParams) -> Vec<Cell> {
    Grid::new("fig8", params, |c| {
        c.layout = LayoutPolicy::RandomBlocks;
        c.n_iops = 1;
        c.n_cps = 16;
    })
    .cross([1, 2, 4, 8, 16, 32], |c, n| {
        c.config.n_disks = n;
        c.axes.push(Axis::new("disks", n as u64));
    })
    .patterns(AccessPattern::sensitivity_patterns())
    .methods([Method::TC, Method::DDIO_SORTED])
    .run_seed()
}

/// Alternating read and write phases over the same file, as an out-of-core
/// computation would issue them. Each phase is one collective transfer; the
/// axis is the phase index.
fn build_mixed_rw(params: &SweepParams) -> Vec<Cell> {
    Grid::new("mixed-rw", params, |_| {})
        .cross(
            ["rb", "wb", "rc", "wc"].into_iter().enumerate(),
            |c, (i, name)| {
                c.pattern = known_pattern(name);
                c.axes.push(Axis::new("phase", i as u64));
            },
        )
        .methods([Method::TC, Method::DDIO_SORTED])
        .derived_seeds()
}

/// The scheduling-policy sweep: every [`SchedPolicy`] for both file systems
/// across the fig5-style patterns on the random-blocks layout (where request
/// order matters most). DDIO runs with eight buffers per disk instead of the
/// paper's two so the drive's queue is deep enough for the drive-level
/// policies (SSTF/CSCAN) to actually reorder; the presort policy instead
/// sorts the whole batch at submission, and FCFS is the unsorted baseline.
/// This is the experiment the paper's §6 gestures at: how much of DDIO's
/// advantage survives once the disk queue itself gets smart?
fn build_sched_sweep(params: &SweepParams) -> Vec<Cell> {
    Grid::new("sched-sweep", params, |c| {
        c.layout = LayoutPolicy::RandomBlocks;
        c.ddio_buffers_per_disk = 8;
    })
    .patterns(AccessPattern::sensitivity_patterns())
    .methods(
        SchedPolicy::ALL
            .into_iter()
            .flat_map(|s| [Method::TC.with_sched(s), Method::DiskDirected(s)]),
    )
    .derived_seeds()
}

/// The TC cache compositions the cache sweep explores: the paper's default
/// plus every single-dimension deviation from it (two alternate replacement
/// policies, two alternate prefetchers, two alternate write-back policies).
/// Sweeping one dimension at a time keeps the grid small while still
/// attributing any throughput change to one policy.
pub fn cache_sweep_compositions() -> Vec<CacheConfig> {
    let mut comps = vec![CacheConfig::DEFAULT];
    for replacement in [ReplacementPolicy::Mru, ReplacementPolicy::Clock] {
        comps.push(CacheConfig {
            replacement,
            ..CacheConfig::DEFAULT
        });
    }
    for prefetch in [PrefetchPolicy::None, PrefetchPolicy::Strided] {
        comps.push(CacheConfig {
            prefetch,
            ..CacheConfig::DEFAULT
        });
    }
    for write in [WritePolicy::Through, WritePolicy::Watermark] {
        comps.push(CacheConfig {
            write,
            ..CacheConfig::DEFAULT
        });
    }
    comps
}

/// The cache-policy sweep: the fig5-style patterns plus a collective write
/// (`wb`, so the write-back policies have writes to schedule) on the
/// random-blocks layout, each TC composition at a thrashing (1 buffer per
/// disk per CP) and a generous (8) cache size, against one fixed
/// DDIO(sort) baseline per pattern — the experiment behind the paper's
/// "could smarter caching close the gap?" question in §4/§6.
fn build_cache_sweep(params: &SweepParams) -> Vec<Cell> {
    let mut patterns = AccessPattern::sensitivity_patterns();
    patterns.push(known_pattern("wb"));
    let comps = cache_sweep_compositions();
    // `None` is the cacheless baseline the compositions are judged against.
    let points = std::iter::once(None).chain(
        [1usize, 8]
            .into_iter()
            .flat_map(|bufs| comps.iter().map(move |&comp| Some((bufs, comp)))),
    );
    Grid::new("cache-sweep", params, |c| {
        c.layout = LayoutPolicy::RandomBlocks
    })
    .patterns(patterns)
    .cross(points, |c, point| match point {
        None => c.method = Method::DDIO_SORTED,
        Some((bufs, comp)) => {
            c.config.cache.buffers_per_disk_per_cp = bufs;
            c.method = Method::TC.with_cache(comp);
            c.axes.push(Axis::new("bufs", bufs as u64));
        }
    })
    .derived_seeds()
}

/// The interconnect fabric sweep: every topology × contention-model
/// composition for both file systems across the fig5-style patterns on the
/// contiguous layout (where the disks run near their peak, so fabric costs
/// are not drowned in seek time). The `torus+ni-only` cells are the paper's
/// machine; the sweep asks whether disk-directed I/O's advantage survives a
/// lower-degree fabric (mesh), a differently-wired one (hypercube), an
/// ideal one (crossbar), and — under the `link` model — genuine link-level
/// contention, where overlapping minimal routes serialize.
fn build_net_sweep(params: &SweepParams) -> Vec<Cell> {
    Grid::new("net-sweep", params, |c| c.layout = LayoutPolicy::Contiguous)
        .patterns(AccessPattern::sensitivity_patterns())
        .cross(TopologyKind::ALL, |c, topology| {
            c.config.fabric.topology = topology;
            c.axes.push(Axis::new("topology", topology.name()));
        })
        .cross(ContentionModel::ALL, |c, contention| {
            c.config.fabric.contention = contention;
            c.axes.push(Axis::new("net", contention.name()));
        })
        .methods([Method::TC, Method::DDIO_SORTED])
        .derived_seeds()
}

/// The fault-injection sweep: degraded drives and timed fault storms, the
/// fourth pluggable subsystem. For the block-distributed read every fault
/// intensity runs bare (the static cacheless/worn degradations are the
/// intensity-0 special cases of the timed transient/failure storms), and
/// the timed intensities additionally run under mirrored and
/// parity-declustered redundancy; the per-CP read re-checks the headline
/// compositions. A cell that loses data reports zero throughput, so
/// "survives the fault" is visible directly in the numbers.
fn build_fault_sweep(params: &SweepParams) -> Vec<Cell> {
    use FaultPolicy::{Failure, Transient};
    use RedundancyPolicy::{Mirrored, Parity};
    let (rb, ra) = (known_pattern("rb"), known_pattern("ra"));
    let bare = FaultPolicy::ALL.map(|faults| (rb, faults, RedundancyPolicy::None));
    let redundant = [Mirrored, Parity]
        .into_iter()
        .flat_map(|redundancy| [Transient, Failure].map(|faults| (rb, faults, redundancy)));
    let per_cp = [
        (ra, FaultPolicy::None, RedundancyPolicy::None),
        (ra, Failure, Mirrored),
        (ra, Failure, Parity),
    ];
    Grid::new("fault-sweep", params, |_| {})
        .cross(
            bare.into_iter().chain(redundant).chain(per_cp),
            |c, (pattern, faults, redundancy)| {
                c.pattern = pattern;
                c.config.faults = faults;
                c.config.redundancy = redundancy;
                c.axes.push(Axis::new("faults", faults.name()));
                c.axes.push(Axis::new("redundancy", redundancy.name()));
            },
        )
        .methods([Method::TC, Method::DDIO_SORTED])
        .derived_seeds()
}

/// Offered-load ladder crossed with arrival process and QoS policy, served
/// by each file system: where does disk-directed I/O's collective win
/// survive many independent clients?
fn build_serve_sweep(params: &SweepParams) -> Vec<Cell> {
    Grid::new("serve-sweep", params, |_| {})
        .methods([Method::TC, Method::DDIO_SORTED])
        .cross(
            [ArrivalProcess::Poisson, ArrivalProcess::Bursty],
            |c, arrival| {
                c.config.serve.arrival = arrival;
                c.axes.push(Axis::new("arrival", arrival.name()));
            },
        )
        .cross(QosPolicy::ALL, |c, qos| {
            c.config.serve.qos = qos;
            c.axes.push(Axis::new("qos", qos.name()));
        })
        .cross([500u64, 1000, 1500], |c, load_permille| {
            c.config.serve.offered_load = load_permille as f64 / 1000.0;
            // Each request is one block.
            c.record_bytes = c.config.block_bytes;
            c.axes.push(Axis::new("load", load_permille));
        })
        .derived_seeds()
}

/// Record size crossed with CP count for the block-distributed read, the
/// grid the paper's Figures 3 and 5 each slice one axis of.
fn build_record_cp_cross(params: &SweepParams) -> Vec<Cell> {
    Grid::new("record-cp-cross", params, |c| {
        c.layout = LayoutPolicy::Contiguous
    })
    .cross([4usize, 16], |c, n_cps| {
        c.config.n_cps = n_cps;
        c.axes.push(Axis::new("cps", n_cps as u64));
    })
    .cross([1024u64, 8192, 65536], |c, record_bytes| {
        c.record_bytes = record_bytes;
        c.axes.push(Axis::new("record", record_bytes));
    })
    .methods([Method::TC, Method::DDIO_SORTED])
    .derived_seeds()
}

/// Renders a scenario's full report: heading, scale line (not for the
/// parameter table, which runs no trials), optional note, and the tables.
pub fn render(scenario: &Scenario, params: &SweepParams, results: &[CellResult]) -> String {
    let mut out = if scenario.report == Report::MachineParameters {
        format!("{}\n", scenario.title)
    } else {
        format!("{} ({})\n", scenario.title, params.describe())
    };
    if let Some(note) = scenario.note {
        out.push_str(&note(params));
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&format_report(scenario, params, results));
    out
}

/// Renders just the tables of a scenario's report (no heading).
pub fn format_report(scenario: &Scenario, params: &SweepParams, results: &[CellResult]) -> String {
    match scenario.report {
        Report::MachineParameters => format_machine_table(&params.base),
        Report::PatternTables { figure } => {
            let mut out = String::new();
            let mut seen: Vec<u64> = Vec::new();
            for r in results {
                if !seen.contains(&r.point.record_bytes) {
                    seen.push(r.point.record_bytes);
                }
            }
            for record_bytes in seen {
                let points: Vec<&CellResult> = results
                    .iter()
                    .filter(|r| r.point.record_bytes == record_bytes)
                    .collect();
                let title = format!(
                    "Figure {figure}{}: {record_bytes}-byte records, throughput in MiB/s",
                    if record_bytes == 8 { "a" } else { "b" },
                );
                out.push_str(&format_pattern_table(&points, &title));
                out.push('\n');
            }
            out
        }
        Report::Sensitivity { table_title } => format_sensitivity_table(results, table_title),
        Report::Flat => format_flat_table(results),
    }
}

/// The generic flat report: one row per cell with its axes spelled out,
/// plus a pooled-summary footer.
fn format_flat_table(results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<9}{:<23}{:>10}{:>8}  {:<22}{:>10}{:>8}{:>10}\n",
        "pattern", "method", "record", "layout", "axes", "MiB/s", "cv", "hw-limit"
    ));
    for r in results {
        let axes = r
            .axes
            .iter()
            .map(|a| format!("{}={}", a.name, a.value))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:<9}{:<23}{:>10}{:>8}  {:<22}{:>10.2}{:>8.3}{:>10.1}\n",
            r.point.pattern,
            r.point.method.label(),
            r.point.record_bytes,
            r.point.layout.short_name(),
            axes,
            r.point.mean(),
            r.point.cv(),
            r.hardware_limit_mibs,
        ));
    }
    if let Some(agg) = aggregate(results) {
        out.push_str(&format!(
            "pooled over {} trial(s): mean {:.2} MiB/s, min {:.2}, max {:.2}\n",
            agg.n, agg.mean, agg.min, agg.max
        ));
    }
    out
}

/// Formats the configured machine parameters side by side with the values
/// the paper's Table 1 lists, so any deviation is visible at a glance.
pub fn format_machine_table(config: &MachineConfig) -> String {
    let geometry = config.disk.geometry;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38}{:>18}{:>18}\n",
        "parameter", "paper", "this repo"
    ));
    let rows: Vec<(&str, String, String)> = vec![
        (
            "Compute processors (CPs)",
            "16".into(),
            config.n_cps.to_string(),
        ),
        (
            "I/O processors (IOPs)",
            "16".into(),
            config.n_iops.to_string(),
        ),
        ("Disks", "16".into(), config.n_disks.to_string()),
        (
            "CPU speed, type",
            "50 MHz RISC".into(),
            "50 MHz RISC (cost model)".into(),
        ),
        ("Disk type", "HP 97560".into(), "HP 97560 model".into()),
        (
            "Disk capacity",
            "1.3 GB".into(),
            format!("{:.2} GB", geometry.capacity_bytes() as f64 / 1e9),
        ),
        (
            "Disk peak transfer rate",
            "2.34 Mbytes/s".into(),
            format!(
                "{:.2} Mbytes/s",
                geometry.peak_transfer_bytes_per_sec() / (1024.0 * 1024.0)
            ),
        ),
        (
            "File-system block size",
            "8 KB".into(),
            format!("{} KB", config.block_bytes / 1024),
        ),
        (
            "I/O buses (one per IOP)",
            "16".into(),
            config.n_iops.to_string(),
        ),
        (
            "I/O bus peak bandwidth",
            "10 Mbytes/s".into(),
            format!("{:.0} Mbytes/s", config.bus_bytes_per_sec / 1e6),
        ),
        (
            "Interconnect topology",
            "6x6 torus".into(),
            format!(
                "{} (fitted)",
                config.fabric.topology.build(config.n_nodes()).describe()
            ),
        ),
        (
            "Interconnect bandwidth",
            "200 x 10^6 bytes/s".into(),
            format!("{:.0} x 10^6 bytes/s", config.net.link_bytes_per_sec / 1e6),
        ),
        (
            "Interconnect latency",
            "20 ns per router".into(),
            format!("{} ns per router", config.net.router_latency.as_nanos()),
        ),
        (
            "Routing",
            "wormhole".into(),
            "wormhole latency model".into(),
        ),
        (
            "Network contention",
            "(above flit level: none)".into(),
            format!("{} model", config.fabric.contention.name()),
        ),
        (
            "File size",
            "10 MB (1280 8-KB blocks)".into(),
            format!(
                "{} MB ({} blocks)",
                config.file_bytes / (1024 * 1024),
                config.n_blocks()
            ),
        ),
    ];
    for (name, paper, ours) in rows {
        out.push_str(&format!("{name:<38}{paper:>18}{ours:>18}\n"));
    }
    out.push('\n');
    out.push_str(&format!(
        "Aggregate peak disk bandwidth: {:.1} MiB/s; bus-limited at {:.1} MiB/s\n",
        config.peak_disk_bandwidth() / (1024.0 * 1024.0),
        config.peak_bus_bandwidth() / (1024.0 * 1024.0)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    fn tiny_params() -> SweepParams {
        SweepParams {
            base: MachineConfig {
                n_cps: 4,
                n_iops: 4,
                n_disks: 4,
                file_bytes: 256 * 1024,
                ..MachineConfig::default()
            },
            trials: 1,
            seed: 7,
            small_records: false,
        }
    }

    #[test]
    fn registry_names_are_unique_and_include_all_exhibits() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        for exhibit in ["table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"] {
            assert!(names.contains(&exhibit), "missing {exhibit}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        assert!(find("fig5").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn fig3_cells_cover_the_full_grid() {
        let params = SweepParams {
            small_records: true,
            ..tiny_params()
        };
        let cells = (find("fig3").unwrap().build)(&params);
        // 2 record sizes x 19 patterns x 3 methods.
        assert_eq!(cells.len(), 2 * 19 * 3);
        assert!(cells.iter().all(|c| c.seed == params.seed));
        assert!(cells
            .iter()
            .all(|c| c.config.layout == LayoutPolicy::RandomBlocks));
    }

    #[test]
    fn sensitivity_cells_carry_their_axis() {
        let cells = (find("fig7").unwrap().build)(&tiny_params());
        assert_eq!(cells.len(), 6 * 4 * 2);
        assert!(cells
            .iter()
            .all(|c| c.axes.len() == 1 && c.axes[0].name == "disks"));
        assert_eq!(cells[0].config.n_disks, 1);
        assert_eq!(cells.last().unwrap().config.n_disks, 32);
        assert_eq!(cells[0].config.n_iops, 1);
    }

    #[test]
    fn derived_seeds_differ_by_cell_identity_only() {
        let a = derive_seed(1994, &["x", "TC"], &[1]);
        assert_eq!(a, derive_seed(1994, &["x", "TC"], &[1]));
        assert_ne!(a, derive_seed(1994, &["x", "TC"], &[2]));
        assert_ne!(a, derive_seed(1994, &["x", "DDIO"], &[1]));
        assert_ne!(a, derive_seed(1995, &["x", "TC"], &[1]));
        // Tag boundaries matter.
        assert_ne!(
            derive_seed(1, &["ab", "c"], &[]),
            derive_seed(1, &["a", "bc"], &[])
        );
    }

    #[test]
    fn sched_sweep_covers_every_policy_for_both_methods() {
        let cells = (find("sched-sweep").unwrap().build)(&tiny_params());
        // 4 sensitivity patterns x 4 policies x {TC, DDIO}.
        assert_eq!(cells.len(), 4 * 4 * 2);
        for policy in SchedPolicy::ALL {
            assert!(
                cells
                    .iter()
                    .any(|c| c.method == Method::DiskDirected(policy)),
                "no DDIO cell for {policy}"
            );
            assert!(
                cells
                    .iter()
                    .any(|c| c.method == Method::TC.with_sched(policy)),
                "no TC cell for {policy}"
            );
        }
        assert!(cells
            .iter()
            .all(|c| c.config.layout == LayoutPolicy::RandomBlocks
                && c.config.ddio_buffers_per_disk == 8));
    }

    #[test]
    fn cache_sweep_covers_every_composition_and_size() {
        let cells = (find("cache-sweep").unwrap().build)(&tiny_params());
        let comps = cache_sweep_compositions();
        // Default + 2 replacement + 2 prefetch + 2 write variants.
        assert_eq!(comps.len(), 7);
        // 5 patterns x (7 compositions x 2 sizes + 1 DDIO baseline).
        assert_eq!(cells.len(), 5 * (7 * 2 + 1));
        for comp in &comps {
            assert!(
                cells
                    .iter()
                    .any(|c| c.method == Method::TC.with_cache(*comp)),
                "no TC cell for {comp}"
            );
        }
        let baselines: Vec<_> = cells
            .iter()
            .filter(|c| c.method == Method::DDIO_SORTED)
            .collect();
        assert_eq!(baselines.len(), 5, "one DDIO baseline per pattern");
        assert!(cells.iter().any(|c| c.pattern.is_write()), "wb included");
        for c in &cells {
            assert_eq!(c.config.layout, LayoutPolicy::RandomBlocks);
            if let Some(axis) = c.axes.first() {
                assert_eq!(axis.name, "bufs");
                assert_eq!(
                    c.config.cache.buffers_per_disk_per_cp as u64,
                    axis.value.as_u64().expect("numeric bufs axis")
                );
            }
        }
    }

    #[test]
    fn new_scenario_cells_have_unique_seeds() {
        for name in [
            "mixed-rw",
            "record-cp-cross",
            "sched-sweep",
            "cache-sweep",
            "net-sweep",
            "fault-sweep",
            "serve-sweep",
        ] {
            let cells = (find(name).unwrap().build)(&tiny_params());
            assert!(!cells.is_empty(), "{name} built no cells");
            let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), cells.len(), "{name} reused a seed");
        }
    }

    #[test]
    fn serve_sweep_covers_the_grid() {
        let cells = (find("serve-sweep").unwrap().build)(&tiny_params());
        // {TC, DDIO(sort)} x {poisson, bursty} x 4 QoS policies x 3 loads.
        assert_eq!(cells.len(), 2 * 2 * 4 * 3);
        for cell in &cells {
            cell.config.validate();
            assert!(cell.config.serve.is_open_loop());
            assert_eq!(cell.axes[0].name, "arrival");
            assert_eq!(
                cell.axes[0].value.to_string(),
                cell.config.serve.arrival.name()
            );
            assert_eq!(cell.axes[1].name, "qos");
            assert_eq!(cell.axes[1].value.to_string(), cell.config.serve.qos.name());
            assert_eq!(cell.axes[2].name, "load");
            let load = cell.axes[2].value.as_u64().unwrap() as f64 / 1000.0;
            assert_eq!(cell.config.serve.offered_load, load);
            assert_eq!(cell.record_bytes, cell.config.block_bytes);
        }
        let high_load = cells
            .iter()
            .filter(|c| c.axes[2].value.as_u64() == Some(1500))
            .count();
        assert_eq!(high_load, 2 * 2 * 4, "every composition reaches overload");
    }

    #[test]
    fn net_sweep_covers_every_fabric_for_both_methods() {
        let cells = (find("net-sweep").unwrap().build)(&tiny_params());
        // 4 sensitivity patterns x 4 topologies x 2 contention models x
        // {TC, DDIO(sort)}.
        assert_eq!(cells.len(), 4 * 4 * 2 * 2);
        for topology in TopologyKind::ALL {
            for contention in ContentionModel::ALL {
                let fabric = NetConfig {
                    topology,
                    contention,
                };
                assert!(
                    cells.iter().any(|c| c.config.fabric == fabric),
                    "no cell for {}",
                    fabric.label()
                );
            }
        }
        for c in &cells {
            assert_eq!(c.config.layout, LayoutPolicy::Contiguous);
            assert_eq!(c.axes.len(), 2);
            assert_eq!(c.axes[0].name, "topology");
            assert_eq!(
                c.axes[0].value,
                AxisValue::Name(c.config.fabric.topology.name())
            );
            assert_eq!(c.axes[1].name, "net");
            assert_eq!(
                c.axes[1].value,
                AxisValue::Name(c.config.fabric.contention.name())
            );
        }
    }

    #[test]
    fn fault_sweep_covers_the_ladder_and_the_redundant_compositions() {
        let cells = (find("fault-sweep").unwrap().build)(&tiny_params());
        // rb: 5 bare intensities + {mirror, parity} x {transient, failure};
        // ra: healthy baseline + a drive death under each redundancy; all
        // for both methods.
        assert_eq!(cells.len(), (5 + 4 + 3) * 2);
        for faults in FaultPolicy::ALL {
            assert!(
                cells.iter().any(|c| c.config.faults == faults),
                "no cell for {faults}"
            );
        }
        for redundancy in RedundancyPolicy::ALL {
            assert!(
                cells.iter().any(|c| c.config.redundancy == redundancy),
                "no cell for {redundancy}"
            );
        }
        for c in &cells {
            c.config.validate();
            assert_eq!(c.axes[0].name, "faults");
            assert_eq!(c.axes[0].value, AxisValue::Name(c.config.faults.name()));
            assert_eq!(c.axes[1].name, "redundancy");
            assert_eq!(c.axes[1].value, AxisValue::Name(c.config.redundancy.name()));
        }
        // The static degradations ride along as the timed storms'
        // intensity-0 special cases: no schedule, config-only degradation.
        let static_cells = cells
            .iter()
            .filter(|c| !c.config.faults.has_timed_events())
            .count();
        assert_eq!(static_cells, (3 + 1) * 2);
    }

    #[test]
    fn degraded_disk_levels_mutate_the_drive() {
        // The degraded-drive ladder is fault-sweep's static rungs on `rb`:
        // each method runs healthy, cacheless, and worn drives.
        let cells = (find("fault-sweep").unwrap().build)(&tiny_params());
        let drive = |faults: FaultPolicy, method: Method| {
            let cell = cells
                .iter()
                .find(|c| {
                    c.pattern.name() == "rb"
                        && c.method == method
                        && c.config.faults == faults
                        && c.config.redundancy == RedundancyPolicy::None
                })
                .unwrap();
            let mut disk = cell.config.disk;
            cell.config.faults.degrade(&mut disk);
            disk
        };
        for method in [Method::TC, Method::DDIO_SORTED] {
            let healthy = drive(FaultPolicy::None, method);
            let cacheless = drive(FaultPolicy::Cacheless, method);
            let tired = drive(FaultPolicy::Worn, method);
            assert!(healthy.cache_sectors > 0);
            assert_eq!(cacheless.cache_sectors, 0);
            assert_eq!(cacheless.controller_overhead, healthy.controller_overhead);
            assert_eq!(tired.cache_sectors, 0);
            assert_eq!(
                tired.controller_overhead,
                healthy.controller_overhead.times(4)
            );
        }
    }

    #[test]
    fn axis_values_compare_and_render() {
        assert_eq!(AxisValue::Num(8), 8u64);
        assert_ne!(AxisValue::Name("mesh"), 8u64);
        assert_eq!(AxisValue::Num(8).to_string(), "8");
        assert_eq!(AxisValue::Name("mesh").to_string(), "mesh");
        assert_eq!(AxisValue::Num(8).as_u64(), Some(8));
        assert_eq!(AxisValue::Name("mesh").as_u64(), None);
        assert_eq!(Axis::new("topology", "mesh").value, AxisValue::Name("mesh"));
    }

    #[test]
    fn every_scenario_has_catalog_metadata() {
        for s in registry() {
            assert!(!s.description.is_empty(), "{} lacks a description", s.name);
            assert!(!s.headline.is_empty(), "{} lacks a headline", s.name);
        }
    }

    #[test]
    fn run_scenario_is_order_stable_across_jobs() {
        let params = tiny_params();
        let scenario = find("mixed-rw").unwrap();
        let serial = run_scenario(&scenario, &params, 1);
        let parallel = run_scenario(&scenario, &params, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.point.pattern, p.point.pattern);
            assert_eq!(
                s.point.trials, p.point.trials,
                "{} diverged",
                s.point.pattern
            );
        }
        let agg = aggregate(&serial).unwrap();
        assert_eq!(agg.n, serial.len() * params.trials);
    }

    #[test]
    fn render_includes_heading_and_rows() {
        let params = tiny_params();
        let scenario = find("record-cp-cross").unwrap();
        let results = run_scenario(&scenario, &params, 2);
        let text = render(&scenario, &params, &results);
        assert!(text.contains("Record size x CP count"));
        assert!(text.contains("cps=4 record=1024"));
        assert!(text.contains("pooled over"));
    }

    #[test]
    fn machine_table_lists_the_landmarks() {
        let table = format_machine_table(&MachineConfig::default());
        for landmark in ["HP 97560", "6x6 torus", "10 MB", "wormhole"] {
            assert!(table.contains(landmark), "missing {landmark}");
        }
    }
}
