//! Registry fingerprint: every scenario's cell count and one FNV-1a digest
//! over its cells, pinned at paper and smoke scale. The digest covers each
//! cell's coordinates, record size, seed, machine counts, cache size and
//! offered load, so a reordered, reseeded or reconfigured cell fails here
//! without a single simulation.

use ddio_core::experiment::scenario::{registry, Cell, SweepParams};
use ddio_core::MachineConfig;

/// `(scenario, cells, digest)` for `SweepParams::default()`, then the same
/// for the smoke scale (1 MiB file, one trial, no small records).
#[rustfmt::skip]
const PINNED: [(&str, usize, u64, usize, u64); 14] = [
    ("table1", 0, 0xcbf2_9ce4_8422_2325, 0, 0xcbf2_9ce4_8422_2325),
    ("fig3", 114, 0xebe0_8035_6d16_7487, 57, 0x1de9_77b8_63f8_433a),
    ("fig4", 76, 0xe973_4fe2_c804_0f35, 38, 0x8c97_7c79_091e_9286),
    ("fig5", 40, 0x88f2_8d2c_2431_9479, 40, 0x88f2_8d2c_2431_9479),
    ("fig6", 40, 0xb6f4_f5a6_2d6b_0b5d, 40, 0xb6f4_f5a6_2d6b_0b5d),
    ("fig7", 48, 0x9df8_d67d_9c5d_1365, 48, 0x9df8_d67d_9c5d_1365),
    ("fig8", 48, 0xa98b_b1b2_9e7e_19b5, 48, 0xa98b_b1b2_9e7e_19b5),
    ("mixed-rw", 8, 0xb0fc_02ed_729b_a4a2, 8, 0xb0fc_02ed_729b_a4a2),
    ("sched-sweep", 32, 0xc577_a0d7_96a5_5173, 32, 0xc577_a0d7_96a5_5173),
    ("cache-sweep", 75, 0xaa11_7fd8_017e_cc55, 75, 0xaa11_7fd8_017e_cc55),
    ("record-cp-cross", 12, 0x163b_5df1_b0b2_8af6, 12, 0x163b_5df1_b0b2_8af6),
    ("net-sweep", 64, 0xbecb_08d9_70c7_56d0, 64, 0xbecb_08d9_70c7_56d0),
    ("fault-sweep", 24, 0x7aa7_e14b_ca98_9925, 24, 0x7aa7_e14b_ca98_9925),
    ("serve-sweep", 48, 0xf05c_412e_e196_b214, 48, 0xf05c_412e_e196_b214),
];

/// The cell count and FNV-1a digest of `cells`.
fn fingerprint(cells: &[Cell]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        let c = &cell.config;
        // `record` is covered by `record_bytes`.
        let mut coords = cell.coordinates();
        coords.retain(|(name, _)| *name != "record");
        let line = format!(
            "{coords:?} {} {} {} {} {} {} {} {:#x}\n",
            cell.record_bytes,
            cell.seed,
            c.n_cps,
            c.n_iops,
            c.n_disks,
            c.ddio_buffers_per_disk,
            c.cache.buffers_per_disk_per_cp,
            c.serve.offered_load.to_bits(),
        );
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (cells.len(), h)
}

#[test]
fn every_scenario_builds_its_pinned_cells() {
    let paper = SweepParams::default();
    let smoke = SweepParams {
        base: MachineConfig {
            file_bytes: 1 << 20,
            ..MachineConfig::default()
        },
        trials: 1,
        small_records: false,
        ..SweepParams::default()
    };
    let registry = registry();
    let names: Vec<&str> = registry.iter().map(|s| s.name).collect();
    assert_eq!(names, PINNED.map(|p| p.0));
    for (s, &(name, paper_cells, paper_digest, smoke_cells, smoke_digest)) in
        registry.iter().zip(&PINNED)
    {
        let (n, h) = fingerprint(&(s.build)(&paper));
        assert_eq!((n, h), (paper_cells, paper_digest), "{name}, paper: {h:#x}");
        let (n, h) = fingerprint(&(s.build)(&smoke));
        assert_eq!((n, h), (smoke_cells, smoke_digest), "{name}, smoke: {h:#x}");
    }
}
