//! The message fabric: typed messages between nodes with modeled latency and
//! configurable contention.
//!
//! Contention is a policy ([`ContentionModel`]): under the default `ni-only`
//! model each node has one sending and one receiving DMA engine (network
//! interface); a message occupies the sender's NI for its serialization
//! time, crosses the fabric paying the wormhole hop latency, and then
//! occupies the receiver's NI while being deposited into memory — per-link
//! contention inside the fabric is *not* modeled (see DESIGN.md §7), because
//! the NIs are the bottleneck the paper's workloads actually stress (an IOP
//! being hammered by requests from every CP, or a CP receiving Memputs from
//! every IOP). Under the `link` model each message additionally charges its
//! serialization time on every link of its minimal route (a resource per
//! directed link), so overlapping routes serialize and the fabric itself can
//! become the bottleneck.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ddio_sim::stats::Counter;
use ddio_sim::sync::{unbounded, Receiver, Resource, ResourceName, Sender};
use ddio_sim::{SimContext, SimDuration, SimTime};

use crate::fabric::{ContentionModel, NetConfig};
use crate::latency::NetworkParams;
use crate::topology::{Link, NodeId, Topology};

/// A delivered message: payload plus transport metadata.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Size on the wire in bytes (header + payload).
    pub bytes: u64,
    /// Simulated time at which the sender handed the message to its NI.
    pub sent_at: SimTime,
    /// The payload.
    pub payload: M,
}

/// Usage counters of one directed router-to-router link (only populated
/// under the [`ContentionModel::Link`] model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Source router of the link.
    pub from: NodeId,
    /// Destination router of the link.
    pub to: NodeId,
    /// Messages that crossed the link.
    pub messages: u64,
    /// Total simulated time the link was occupied.
    pub busy: SimDuration,
}

/// A window `[from, until)` during which one node's network interfaces are
/// down (an injected fault, e.g. an IOP crash + restart). Traffic touching
/// the node during the window waits until it closes — messages are delayed,
/// never dropped, so fault runs stay deterministic and the protocols above
/// need no retransmission logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiOutage {
    /// The node whose NIs are down.
    pub node: NodeId,
    /// Start of the outage.
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

struct Endpoint<M> {
    send_nic: Resource,
    recv_nic: Resource,
    inbox: Sender<Envelope<M>>,
}

struct Shared<M> {
    ctx: SimContext,
    config: NetConfig,
    topology: Box<dyn Topology>,
    params: NetworkParams,
    endpoints: Vec<Endpoint<M>>,
    /// One serializing resource per directed link, created on first use
    /// (link model only). A dense `size × size` table pre-sized from the
    /// topology, indexed `from * size + to`; row-major iteration gives the
    /// same deterministic `(from, to)` reporting order the old `BTreeMap`
    /// produced, without per-insert node allocation. Empty under `ni-only`.
    links: RefCell<Vec<Option<Resource>>>,
    /// Row stride of `links` (the topology size).
    link_stride: usize,
    /// Injected NI-down windows (empty on the healthy fabric; the empty
    /// vector adds no awaits anywhere).
    outages: RefCell<Vec<NiOutage>>,
    /// Fast flag mirroring `!outages.is_empty()` so the per-message healthy
    /// path skips even the `RefCell` borrow.
    have_outages: Cell<bool>,
    messages: Counter,
    bytes: Counter,
}

/// The interconnection network connecting `n` nodes.
///
/// Cloning is cheap; all clones refer to the same fabric.
pub struct Network<M> {
    shared: Rc<Shared<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<M: 'static> Network<M> {
    /// Builds a network of `nodes` endpoints on the configured fabric and
    /// returns it together with each node's inbox receiver (index = node
    /// id). The topology is built to fit `nodes` (the paper's 32 processors
    /// land on a 6x6 torus).
    pub fn new(
        ctx: SimContext,
        config: NetConfig,
        params: NetworkParams,
        nodes: usize,
    ) -> (Self, Vec<Receiver<Envelope<M>>>) {
        let topology = config.topology.build(nodes);
        debug_assert!(topology.size() >= nodes);
        let mut endpoints = Vec::with_capacity(nodes);
        let mut inboxes = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let (tx, rx) = unbounded();
            endpoints.push(Endpoint {
                send_nic: Resource::new(
                    ctx.clone(),
                    ResourceName::Indexed {
                        prefix: "node",
                        index: node,
                        suffix: ".send-nic",
                    },
                ),
                recv_nic: Resource::new(
                    ctx.clone(),
                    ResourceName::Indexed {
                        prefix: "node",
                        index: node,
                        suffix: ".recv-nic",
                    },
                ),
                inbox: tx,
            });
            inboxes.push(rx);
        }
        // Only the link model ever touches per-link resources; don't pay the
        // size² table under ni-only.
        let link_stride = topology.size();
        let link_table = match config.contention {
            ContentionModel::NiOnly => Vec::new(),
            ContentionModel::Link => vec![None; link_stride * link_stride],
        };
        let net = Network {
            shared: Rc::new(Shared {
                ctx,
                config,
                topology,
                params,
                endpoints,
                links: RefCell::new(link_table),
                link_stride,
                outages: RefCell::new(Vec::new()),
                have_outages: Cell::new(false),
                messages: Counter::new(),
                bytes: Counter::new(),
            }),
        };
        (net, inboxes)
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// The fabric composition in use.
    pub fn config(&self) -> NetConfig {
        self.shared.config
    }

    /// The topology the nodes sit on.
    pub fn topology(&self) -> &dyn Topology {
        self.shared.topology.as_ref()
    }

    /// The hardware parameters in use.
    pub fn params(&self) -> NetworkParams {
        self.shared.params
    }

    /// Total messages delivered to any inbox so far.
    pub fn messages_sent(&self) -> u64 {
        self.shared.messages.get()
    }

    /// Total bytes carried so far.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes.get()
    }

    /// Installs the NI-down windows this fabric honors (replacing any
    /// previous set). With no outages installed the fabric is byte- and
    /// event-identical to one that has never heard of faults.
    pub fn set_outages(&self, outages: Vec<NiOutage>) {
        self.shared.have_outages.set(!outages.is_empty());
        *self.shared.outages.borrow_mut() = outages;
    }

    /// Waits out any outage window covering `node` at the current time.
    /// The healthy path (no outages installed, or none covering `node` now)
    /// performs no await at all — not even a `RefCell` borrow.
    async fn wait_out_outage(&self, node: NodeId) {
        if !self.shared.have_outages.get() {
            return;
        }
        let wait = {
            let outages = self.shared.outages.borrow();
            let now = self.shared.ctx.now();
            outages
                .iter()
                .find(|o| o.node == node && now >= o.from && now < o.until)
                .map(|o| o.until - now)
        };
        if let Some(delay) = wait {
            self.shared.ctx.sleep(delay).await;
        }
    }

    /// Sends a message and waits until it has been deposited in the
    /// destination node's inbox (sender NI serialization, fabric traversal,
    /// receiver NI deposit).
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub async fn send(&self, from: NodeId, to: NodeId, bytes: u64, payload: M) {
        let s = &self.shared;
        assert!(from < s.endpoints.len(), "sender {from} out of range");
        assert!(to < s.endpoints.len(), "destination {to} out of range");
        let sent_at = s.ctx.now();

        // Occupy the sending NI while the message streams onto the link.
        self.wait_out_outage(from).await;
        s.endpoints[from]
            .send_nic
            .use_for(s.params.send_occupancy(bytes))
            .await;

        self.traverse(from, to, bytes).await;

        // Occupy the receiving NI while the message is deposited in memory.
        self.wait_out_outage(to).await;
        s.endpoints[to]
            .recv_nic
            .use_for(s.params.recv_occupancy(bytes))
            .await;

        self.deliver(from, to, bytes, sent_at, payload);
    }

    /// Sends a message without waiting for delivery: the caller resumes once
    /// the sending NI has finished serializing the message; the fabric and
    /// receive-side costs are paid by a background task.
    ///
    /// This is the primitive used for "concurrent Memput / Memget messages to
    /// many CPs" (§4 of the paper).
    pub async fn post(&self, from: NodeId, to: NodeId, bytes: u64, payload: M) {
        let s = &self.shared;
        assert!(from < s.endpoints.len(), "sender {from} out of range");
        assert!(to < s.endpoints.len(), "destination {to} out of range");
        let sent_at = s.ctx.now();

        self.wait_out_outage(from).await;
        s.endpoints[from]
            .send_nic
            .use_for(s.params.send_occupancy(bytes))
            .await;

        let net = self.clone();
        s.ctx.spawn_detached(async move {
            net.traverse(from, to, bytes).await;
            net.wait_out_outage(to).await;
            let s = &net.shared;
            s.endpoints[to]
                .recv_nic
                .use_for(s.params.recv_occupancy(bytes))
                .await;
            net.deliver(from, to, bytes, sent_at, payload);
        });
    }

    /// Crosses the fabric from `from` to `to` per the contention model:
    /// pure head-flit latency under `ni-only`, per-link serialization under
    /// `link`.
    async fn traverse(&self, from: NodeId, to: NodeId, bytes: u64) {
        let s = &self.shared;
        match s.config.contention {
            ContentionModel::NiOnly => {
                let hops = s.topology.hops(from, to);
                s.ctx.sleep(s.params.wire_latency(hops)).await;
            }
            ContentionModel::Link => {
                // The head flit pays one router latency per hop; the body
                // then occupies each link of the minimal route for the
                // message's serialization time, so overlapping routes
                // serialize on their shared links.
                let occupancy = s.params.link_occupancy(bytes);
                for link in s.topology.route(from, to) {
                    s.ctx.sleep(s.params.router_latency).await;
                    let resource = self.link_resource(link);
                    resource.use_for(occupancy).await;
                }
            }
        }
    }

    /// The serializing resource of one directed link, created on first use
    /// in the pre-sized table.
    fn link_resource(&self, link: Link) -> Resource {
        let s = &self.shared;
        let idx = link.0 * s.link_stride + link.1;
        s.links.borrow_mut()[idx]
            .get_or_insert_with(|| {
                Resource::new(
                    s.ctx.clone(),
                    ResourceName::Pair {
                        prefix: "link",
                        a: link.0,
                        sep: "-",
                        b: link.1,
                    },
                )
            })
            .clone()
    }

    /// Counts the message and pushes it into the destination inbox.
    fn deliver(&self, from: NodeId, to: NodeId, bytes: u64, sent_at: SimTime, payload: M) {
        let s = &self.shared;
        s.messages.incr();
        s.bytes.add(bytes);
        let envelope = Envelope {
            from,
            to,
            bytes,
            sent_at,
            payload,
        };
        // Inboxes are unbounded; failure means the receiving node was torn
        // down while traffic was still in flight, which is a protocol bug.
        s.endpoints[to]
            .inbox
            .try_send(envelope)
            .unwrap_or_else(|_| panic!("node {to} dropped its inbox with traffic in flight"));
    }

    /// Utilization of a node's receiving NI over its active window.
    pub fn recv_utilization(&self, node: NodeId) -> f64 {
        self.shared.endpoints[node].recv_nic.utilization()
    }

    /// Utilization of a node's sending NI over its active window.
    pub fn send_utilization(&self, node: NodeId) -> f64 {
        self.shared.endpoints[node].send_nic.utilization()
    }

    /// Per-link usage counters, in deterministic `(from, to)` order. Empty
    /// under the `ni-only` model (no link is ever charged) and for links no
    /// message crossed.
    pub fn link_stats(&self) -> Vec<LinkStat> {
        let stride = self.shared.link_stride;
        self.shared
            .links
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                slot.as_ref().map(|r| LinkStat {
                    from: idx / stride,
                    to: idx % stride,
                    messages: r.acquisitions(),
                    busy: r.busy_time(),
                })
            })
            .collect()
    }

    /// Total busy time summed over every link (zero under `ni-only`).
    pub fn link_busy_total(&self) -> SimDuration {
        self.shared
            .links
            .borrow()
            .iter()
            .flatten()
            .map(Resource::busy_time)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;
    use ddio_sim::Sim;
    use std::cell::Cell;

    fn build(sim: &Sim, nodes: usize) -> (Network<u64>, Vec<Receiver<Envelope<u64>>>) {
        build_fabric(sim, nodes, NetConfig::DEFAULT)
    }

    fn build_fabric(
        sim: &Sim,
        nodes: usize,
        config: NetConfig,
    ) -> (Network<u64>, Vec<Receiver<Envelope<u64>>>) {
        Network::new(sim.context(), config, NetworkParams::default(), nodes)
    }

    #[test]
    fn round_trip_latency_is_modeled() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (net, mut inboxes) = build(&sim, 4);
        let rx1 = inboxes.remove(1);
        let delivered_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let net = net.clone();
            sim.spawn(async move {
                net.send(0, 1, 8192, 7).await;
            });
        }
        {
            let ctx = ctx.clone();
            let delivered_at = Rc::clone(&delivered_at);
            sim.spawn(async move {
                let env = rx1.recv().await.expect("message arrives");
                assert_eq!(env.payload, 7);
                assert_eq!(env.from, 0);
                assert_eq!(env.bytes, 8192);
                delivered_at.set(ctx.now());
            });
        }
        sim.run();
        let t = delivered_at.get().as_nanos();
        // ~84 us: two 41 us NI occupancies plus wire latency.
        assert!(t > 80_000 && t < 90_000, "delivery at {t} ns");
        assert_eq!(net.messages_sent(), 1);
        assert_eq!(net.bytes_sent(), 8192);
        // NI-only contention never touches a link resource.
        assert!(net.link_stats().is_empty());
        assert_eq!(net.config(), NetConfig::DEFAULT);
    }

    #[test]
    fn receiver_nic_serializes_concurrent_senders() {
        let mut sim = Sim::new();
        let (net, mut inboxes) = build(&sim, 8);
        let rx = inboxes.remove(0);
        // 7 nodes each send 1 MB to node 0 concurrently.
        for from in 1..8 {
            let net = net.clone();
            sim.spawn(async move {
                net.send(from, 0, 1 << 20, from as u64).await;
            });
        }
        sim.spawn(async move {
            let mut got = 0;
            while got < 7 {
                if rx.recv().await.is_some() {
                    got += 1;
                }
            }
        });
        let end = sim.run();
        // 7 MB into one 200 MB/s interface takes at least 36.7 ms even though
        // the senders all started at once.
        let min_secs = 7.0 * (1u64 << 20) as f64 / 200.0e6;
        assert!(end.as_secs_f64() >= min_secs);
        assert!(net.recv_utilization(0) > 0.9);
    }

    #[test]
    fn link_model_charges_every_link_on_the_route() {
        let mut sim = Sim::new();
        let config = NetConfig {
            contention: ContentionModel::Link,
            ..NetConfig::DEFAULT
        };
        let (net, mut inboxes) = build_fabric(&sim, 4, config);
        let rx = inboxes.remove(3);
        // 4 nodes fit a 2x2 torus; 0 -> 3 is a 2-hop route.
        assert_eq!(net.topology().hops(0, 3), 2);
        {
            let net = net.clone();
            sim.spawn(async move {
                net.send(0, 3, 8192, 1).await;
            });
        }
        sim.spawn(async move {
            rx.recv().await.expect("message arrives");
        });
        sim.run();
        let stats = net.link_stats();
        assert_eq!(stats.len(), 2, "one resource per route link: {stats:?}");
        let per_link = NetworkParams::default().link_occupancy(8192);
        for stat in &stats {
            assert_eq!(stat.messages, 1);
            assert_eq!(stat.busy, per_link);
        }
        assert_eq!(net.link_busy_total(), per_link * 2);
    }

    #[test]
    fn overlapping_routes_serialize_on_shared_links() {
        let mut sim = Sim::new();
        let config = NetConfig {
            topology: TopologyKind::Crossbar,
            contention: ContentionModel::Link,
        };
        let (net, mut inboxes) = build_fabric(&sim, 4, config);
        let rx = inboxes.remove(1);
        // Two messages over the same crossbar link must serialize: total
        // link busy time is twice one serialization.
        for _ in 0..2 {
            let net = net.clone();
            sim.spawn(async move {
                net.send(0, 1, 1 << 20, 0).await;
            });
        }
        sim.spawn(async move {
            let mut got = 0;
            while got < 2 {
                if rx.recv().await.is_some() {
                    got += 1;
                }
            }
        });
        sim.run();
        let stats = net.link_stats();
        assert_eq!(stats.len(), 1, "a crossbar pair shares one link");
        assert_eq!(stats[0].messages, 2);
        let per_msg = NetworkParams::default().link_occupancy(1 << 20);
        assert_eq!(stats[0].busy, per_msg * 2);
    }

    #[test]
    fn post_returns_after_sender_side_only() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (net, mut inboxes) = build(&sim, 4);
        let rx3 = inboxes.remove(3);
        let posted_at = Rc::new(Cell::new(SimTime::ZERO));
        let received = Rc::new(Cell::new(0u32));
        {
            let net = net.clone();
            let ctx = ctx.clone();
            let posted_at = Rc::clone(&posted_at);
            sim.spawn(async move {
                for i in 0..4u64 {
                    net.post(0, 3, 8192, i).await;
                }
                posted_at.set(ctx.now());
            });
        }
        {
            let received = Rc::clone(&received);
            sim.spawn(async move {
                while rx3.recv().await.is_some() {
                    received.set(received.get() + 1);
                }
            });
        }
        sim.run();
        // All four posts finish after roughly 4 sender occupancies (~168 us),
        // well before the last receive completes, and everything is delivered.
        assert!(posted_at.get().as_nanos() < 200_000);
        assert_eq!(received.get(), 4);
        assert_eq!(net.messages_sent(), 4);
    }

    #[test]
    fn messages_between_same_pair_preserve_order() {
        let mut sim = Sim::new();
        let (net, mut inboxes) = build(&sim, 2);
        let rx = inboxes.remove(1);
        {
            let net = net.clone();
            sim.spawn(async move {
                for i in 0..10u64 {
                    net.send(0, 1, 64, i).await;
                }
            });
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        {
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                while let Some(env) = rx.recv().await {
                    seen.borrow_mut().push(env.payload);
                }
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ni_outage_delays_traffic_until_the_window_closes() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (net, mut inboxes) = build(&sim, 4);
        let until = SimTime::ZERO + SimDuration::from_millis(5);
        net.set_outages(vec![NiOutage {
            node: 1,
            from: SimTime::ZERO,
            until,
        }]);
        let rx1 = inboxes.remove(1);
        let delivered_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let net = net.clone();
            sim.spawn(async move {
                net.send(0, 1, 8192, 7).await;
            });
        }
        {
            let ctx = ctx.clone();
            let delivered_at = Rc::clone(&delivered_at);
            sim.spawn(async move {
                rx1.recv().await.expect("message arrives");
                delivered_at.set(ctx.now());
            });
        }
        sim.run();
        assert!(
            delivered_at.get() >= until,
            "delivered inside the receiver's outage window"
        );
        assert_eq!(net.messages_sent(), 1, "outages delay, never drop");
    }

    #[test]
    fn no_outages_is_event_identical_to_a_faultless_fabric() {
        let run = |install_empty: bool| {
            let mut sim = Sim::new();
            let (net, mut inboxes) = build(&sim, 4);
            if install_empty {
                net.set_outages(Vec::new());
            }
            let rx = inboxes.remove(1);
            {
                let net = net.clone();
                sim.spawn(async move {
                    net.send(0, 1, 8192, 0).await;
                    net.post(0, 1, 8192, 1).await;
                });
            }
            sim.spawn(async move {
                let mut got = 0;
                while got < 2 {
                    if rx.recv().await.is_some() {
                        got += 1;
                    }
                }
            });
            let end = sim.run();
            (end, sim.events_processed())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let mut sim = Sim::new();
        let (net, _inboxes) = build(&sim, 2);
        sim.spawn(async move {
            net.send(0, 9, 8, 0).await;
        });
        sim.run();
    }
}
