//! End-to-end transfer benchmarks: one scaled-down data point from each of
//! the paper's main comparisons, so `cargo bench` exercises every code path
//! the exhibits use (the full-scale tables come from `ddio-bench run fig*`,
//! not Criterion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddio_core::{run_transfer, AccessPattern, LayoutPolicy, MachineConfig, Method};

/// (group, layout, pattern, record size, methods) of each benchmark group:
/// Figure 4 in miniature, Figure 3 in miniature, and a collective write
/// with small records (the Memget-heavy DDIO path).
#[rustfmt::skip]
const GROUPS: [(&str, LayoutPolicy, &str, u64, &[Method]); 3] = [
    ("figures/contiguous_rb_8k", LayoutPolicy::Contiguous, "rb", 8192,
        &[Method::TC, Method::DDIO_SORTED]),
    ("figures/random_rc_8k", LayoutPolicy::RandomBlocks, "rc", 8192,
        &[Method::TC, Method::DDIO, Method::DDIO_SORTED]),
    ("figures/contiguous_wcc_1k", LayoutPolicy::Contiguous, "wcc", 1024,
        &[Method::TC, Method::DDIO_SORTED]),
];

fn bench_figures(c: &mut Criterion) {
    for (name, layout, pattern, record_bytes, methods) in GROUPS {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        let config = MachineConfig {
            file_bytes: 2 * 1024 * 1024, // 2 MiB keeps Criterion iterations quick
            layout,
            ..MachineConfig::default()
        };
        let pattern = AccessPattern::parse(pattern).unwrap();
        for &method in methods {
            group.bench_with_input(
                BenchmarkId::from_parameter(method.label()),
                &method,
                |b, &method| b.iter(|| run_transfer(&config, method, pattern, record_bytes, 1)),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
