//! End-to-end transfer benchmarks: one scaled-down data point from each of
//! the paper's main comparisons, so `cargo bench` exercises every code path
//! the exhibits use (the full-scale tables come from `ddio-bench run fig*`,
//! not Criterion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddio_core::{run_transfer, AccessPattern, LayoutPolicy, MachineConfig, Method};

fn small_config(layout: LayoutPolicy) -> MachineConfig {
    MachineConfig {
        file_bytes: 2 * 1024 * 1024, // 2 MiB keeps Criterion iterations quick
        layout,
        ..MachineConfig::default()
    }
}

/// Figure 4 in miniature: contiguous layout, 8 KB records, rb pattern.
fn bench_contiguous_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/contiguous_rb_8k");
    group.sample_size(10);
    for method in [Method::TC, Method::DDIO_SORTED] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.label()),
            &method,
            |b, &method| {
                let config = small_config(LayoutPolicy::Contiguous);
                let pattern = AccessPattern::parse("rb").unwrap();
                b.iter(|| run_transfer(&config, method, pattern, 8192, 1));
            },
        );
    }
    group.finish();
}

/// Figure 3 in miniature: random-blocks layout, 8 KB records, rc pattern.
fn bench_random_layout_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/random_rc_8k");
    group.sample_size(10);
    for method in [Method::TC, Method::DDIO, Method::DDIO_SORTED] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.label()),
            &method,
            |b, &method| {
                let config = small_config(LayoutPolicy::RandomBlocks);
                let pattern = AccessPattern::parse("rc").unwrap();
                b.iter(|| run_transfer(&config, method, pattern, 8192, 1));
            },
        );
    }
    group.finish();
}

/// A collective write with small records: the Memget-heavy DDIO path.
fn bench_write_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/contiguous_wcc_1k");
    group.sample_size(10);
    for method in [Method::TC, Method::DDIO_SORTED] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.label()),
            &method,
            |b, &method| {
                let config = small_config(LayoutPolicy::Contiguous);
                let pattern = AccessPattern::parse("wcc").unwrap();
                b.iter(|| run_transfer(&config, method, pattern, 1024, 1));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_contiguous_transfers,
    bench_random_layout_transfers,
    bench_write_transfers
);
criterion_main!(benches);
