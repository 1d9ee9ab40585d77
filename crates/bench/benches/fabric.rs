//! Criterion micro-benchmarks of the message fabric's hot paths: the
//! send/post storms every transfer drives (an IOP hammered by requests from
//! every CP, a CP absorbing Memputs from every IOP) and the per-cell
//! construction cost of the fabric itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;
use std::rc::Rc;

use ddio_net::{ContentionModel, NetConfig, Network, NetworkParams};
use ddio_sim::Sim;

const NODES: usize = 16;
const MSGS_PER_SENDER: usize = 32;

fn fabrics() -> [(&'static str, NetConfig); 2] {
    [
        ("ni-only", NetConfig::DEFAULT),
        (
            "link",
            NetConfig {
                contention: ContentionModel::Link,
                ..NetConfig::DEFAULT
            },
        ),
    ]
}

/// Every other node sends synchronously to one hot receiver — the
/// traditional-caching request shape (all CPs hammer one IOP).
fn bench_send_storm(c: &mut Criterion) {
    for (label, config) in fabrics() {
        c.bench_function(&format!("fabric/{label}/send_storm"), |b| {
            let mut sim = Sim::new();
            b.iter(|| {
                sim.reset();
                let net = Network::new(sim.context(), config, NetworkParams::default(), NODES);
                for from in 1..NODES {
                    let net = net.clone();
                    sim.spawn(async move {
                        for _ in 0..MSGS_PER_SENDER {
                            net.send(from, 0, 8192).await;
                        }
                    });
                }
                sim.run();
                net.messages_sent()
            });
        });
    }
}

/// One node posts (fire-and-forget) to every other node round-robin — the
/// disk-directed Memput shape (one IOP feeding every CP). Each landing
/// counts itself.
fn bench_post_storm(c: &mut Criterion) {
    for (label, config) in fabrics() {
        c.bench_function(&format!("fabric/{label}/post_storm"), |b| {
            let mut sim = Sim::new();
            b.iter(|| {
                sim.reset();
                let net = Network::new(sim.context(), config, NetworkParams::default(), NODES);
                let landed = Rc::new(Cell::new(0));
                {
                    let (net, landed) = (net.clone(), Rc::clone(&landed));
                    sim.spawn(async move {
                        for i in 0..(NODES - 1) * MSGS_PER_SENDER {
                            let to = 1 + i % (NODES - 1);
                            let landed = Rc::clone(&landed);
                            let on_land = move || landed.set(landed.get() + 1);
                            net.post(0, to, 8192, on_land).await;
                        }
                    });
                }
                sim.run();
                landed.get()
            });
        });
    }
}

/// Fabric construction alone: what every cell pays before a single message
/// moves (endpoint NIs, topology tables).
fn bench_build(c: &mut Criterion) {
    c.bench_function("fabric/ni-only/build_36_nodes", |b| {
        let mut sim = Sim::new();
        b.iter(|| {
            sim.reset();
            let net = Network::new(
                sim.context(),
                NetConfig::DEFAULT,
                NetworkParams::default(),
                36,
            );
            net.nodes()
        });
    });
}

criterion_group!(benches, bench_send_storm, bench_post_storm, bench_build);
criterion_main!(benches);
