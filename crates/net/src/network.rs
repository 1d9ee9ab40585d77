//! The message fabric: messages between nodes with modeled latency and
//! configurable contention.
//!
//! A message is a size on the wire plus what its landing does. A
//! [`Network::send`] returns once the message has landed, so the sender's
//! next statement is the landing: it starts the receiver's handler or opens
//! the latch a waiter sleeps on. A [`Network::post`] returns once the
//! sender's NI is free, and its landing runs in the background as a closure
//! the poster hands over: it opens a latch, or hands the message to its
//! receiver.
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
use std::future::Future;
use std::marker::PhantomData;
use std::rc::Rc;

use ddio_sim::stats::Counter;
use ddio_sim::sync::{Resource, ResourceName};
use ddio_sim::{SimContext, SimDuration, SimTime};

use crate::fabric::{ContentionModel, NetConfig};
use crate::latency::NetworkParams;
use crate::topology::{Link, NodeId, Topology};

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

struct Endpoint {
    send_nic: Resource,
    recv_nic: Resource,
}

struct Shared {
    ctx: SimContext,
    config: NetConfig,
    topology: Topology,
    params: NetworkParams,
    endpoints: Vec<Endpoint>,
    /// One serializing resource per directed link, created on first use
    /// (link model only). A dense `size × size` table pre-sized from the
    /// topology, indexed `from * size + to`; row-major iteration gives the
    /// same deterministic `(from, to)` reporting order the old `BTreeMap`
    /// produced, without per-insert node allocation. Empty under `ni-only`.
    links: RefCell<Vec<Option<Resource>>>,
    /// Injected NI-down windows (empty on the healthy fabric; the empty
    /// vector adds no awaits anywhere).
    outages: RefCell<Vec<NiOutage>>,
    /// Fast flag mirroring `!outages.is_empty()` so the per-message healthy
    /// path skips even the `RefCell` borrow.
    have_outages: Cell<bool>,
    messages: Counter,
    bytes: Counter,
}

/// The per-message path: what a send or a post pays, in order. Each NI and
/// link is booked when the message reaches it, and the message sleeps
/// straight to the end of the booking (plus any latency after it), so a
/// message wakes once per resource it crosses.
impl Shared {
    /// How long `node` must wait out an outage window covering it at the
    /// current time; `None` when it need not wait. The healthy path (no
    /// outages installed) is one flag check, not even a `RefCell` borrow.
    fn outage_wait(&self, node: NodeId) -> Option<SimDuration> {
        if !self.have_outages.get() {
            return None;
        }
        let now = self.ctx.now();
        self.outages
            .borrow()
            .iter()
            .find(|o| o.node == node && now >= o.from && now < o.until)
            .map(|o| o.until - now)
    }

    /// Books the sending NI for the time the message takes to stream onto
    /// the link, and returns when it is done.
    async fn inject(&self, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        assert!(from < self.endpoints.len(), "sender {from} out of range");
        assert!(to < self.endpoints.len(), "destination {to} out of range");
        if let Some(delay) = self.outage_wait(from) {
            self.ctx.sleep(delay).await;
        }
        self.endpoints[from]
            .send_nic
            .book(self.params.send_occupancy(bytes))
    }

    /// Carries a message whose sending NI is done at `sent` across the
    /// fabric per the contention model, books the receiving NI while the
    /// message is deposited in memory, and counts the landed message once
    /// the deposit is done.
    async fn land(&self, from: NodeId, to: NodeId, bytes: u64, sent: SimTime) {
        let arrived = match self.config.contention {
            // Pure head-flit latency.
            ContentionModel::NiOnly => {
                let hops = self.topology.hops(from, to);
                sent + self.params.wire_latency(hops)
            }
            ContentionModel::Link => {
                // The head flit pays one router latency per hop; the body
                // then occupies each link of the minimal route for the
                // message's serialization time, so overlapping routes
                // serialize on their shared links. Each link is booked when
                // the message reaches it, so a link serves its messages in
                // the order they arrive.
                let occupancy = self.params.link_occupancy(bytes);
                let (mut at, mut done) = (from, sent);
                while at != to {
                    let next = self.topology.next_hop(at, to);
                    self.ctx
                        .sleep_until(done + self.params.router_latency)
                        .await;
                    done = self.book_link((at, next), occupancy);
                    at = next;
                }
                done
            }
        };
        self.ctx.sleep_until(arrived).await;
        if let Some(delay) = self.outage_wait(to) {
            self.ctx.sleep(delay).await;
        }
        let deposited = self.endpoints[to]
            .recv_nic
            .book(self.params.recv_occupancy(bytes));
        self.ctx.sleep_until(deposited).await;
        self.messages.incr();
        self.bytes.add(bytes);
    }

    /// Books one directed link, whose resource is created on first use in
    /// the pre-sized table, and returns when the booking ends.
    fn book_link(&self, link: Link, occupancy: SimDuration) -> SimTime {
        let idx = link.0 * self.topology.size() + link.1;
        self.links.borrow_mut()[idx]
            .get_or_insert_with(|| {
                Resource::new(
                    self.ctx.clone(),
                    ResourceName::Pair {
                        prefix: "link",
                        a: link.0,
                        sep: "-",
                        b: link.1,
                    },
                )
            })
            .book(occupancy)
    }
}

/// A posted message's landing: the fabric and receive-side costs, then
/// `on_land`. Every post spawns one, so its size is pinned by a test.
#[expect(
    clippy::manual_async_fn,
    reason = "an async fn stores every argument twice"
)]
fn landing(
    shared: Rc<Shared>,
    from: NodeId,
    to: NodeId,
    bytes: u64,
    sent: SimTime,
    on_land: impl FnOnce() + 'static,
) -> impl Future<Output = ()> + 'static {
    async move {
        shared.land(from, to, bytes, sent).await;
        on_land();
    }
}

/// The interconnection network connecting `n` nodes.
///
/// Cloning is cheap; all clones refer to the same fabric. The type parameter
/// is unused and defaults to `()`; it remains so that paths naming it, such
/// as `Network::<()>::new`, still compile.
pub struct Network<M = ()> {
    shared: Rc<Shared>,
    unused: PhantomData<M>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            shared: Rc::clone(&self.shared),
            unused: PhantomData,
        }
    }
}

impl Network {
    /// Builds a network of `nodes` endpoints on the configured fabric. The
    /// topology is built to fit `nodes` (the paper's 32 processors land on a
    /// 6x6 torus).
    pub fn new(ctx: SimContext, config: NetConfig, params: NetworkParams, nodes: usize) -> Self {
        let topology = config.topology.build(nodes);
        debug_assert!(topology.size() >= nodes);
        let mut endpoints = Vec::with_capacity(nodes);
        for node in 0..nodes {
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
            });
        }
        // Only the link model ever touches per-link resources; don't pay the
        // size² table under ni-only.
        let link_table = match config.contention {
            ContentionModel::NiOnly => Vec::new(),
            ContentionModel::Link => vec![None; topology.size() * topology.size()],
        };
        Network {
            shared: Rc::new(Shared {
                ctx,
                config,
                topology,
                params,
                endpoints,
                links: RefCell::new(link_table),
                outages: RefCell::new(Vec::new()),
                have_outages: Cell::new(false),
                messages: Counter::new(),
                bytes: Counter::new(),
            }),
            unused: PhantomData,
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// The topology the nodes sit on.
    pub fn topology(&self) -> Topology {
        self.shared.topology
    }

    /// Total messages landed so far.
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

    /// Sends a message and returns once it has landed at `to` (sender NI
    /// serialization, fabric traversal, receiver NI deposit). The caller's
    /// next statement is the landing: whatever the message starts or
    /// answers at the receiver.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub async fn send(&self, from: NodeId, to: NodeId, bytes: u64) {
        let sent = self.shared.inject(from, to, bytes).await;
        self.shared.land(from, to, bytes, sent).await;
    }

    /// Sends a message without waiting for it to land: the caller resumes
    /// once the sending NI has finished serializing the message; a
    /// background task pays the fabric and receive-side costs, then runs
    /// `on_land`, which opens a latch or hands the message to its receiver.
    /// The landing task holds `on_land` for the whole flight, so it should
    /// carry only what starting the receiver's work needs, and spawn that
    /// work rather than run it. (An `async move` block rather than an
    /// `async fn`, so the future holds `on_land` once.)
    ///
    /// This is the primitive used for "concurrent Memput / Memget messages to
    /// many CPs" (§4 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores every argument twice"
    )]
    pub fn post(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        on_land: impl FnOnce() + 'static,
    ) -> impl Future<Output = ()> + '_ {
        async move {
            let sent = self.shared.inject(from, to, bytes).await;
            self.shared.ctx.sleep_until(sent).await;
            let shared = Rc::clone(&self.shared);
            self.shared
                .ctx
                .spawn(landing(shared, from, to, bytes, sent, on_land));
        }
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
        let stride = self.shared.topology.size();
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
    use ddio_sim::sync::CountdownEvent;
    use ddio_sim::Sim;
    use std::cell::Cell;

    fn build(sim: &Sim, nodes: usize) -> Network {
        build_fabric(sim, nodes, NetConfig::DEFAULT)
    }

    fn build_fabric(sim: &Sim, nodes: usize, config: NetConfig) -> Network {
        Network::new(sim.context(), config, NetworkParams::default(), nodes)
    }

    /// Spawns a task that sends one message and records when it landed.
    fn send_and_time(
        sim: &mut Sim,
        net: &Network,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Rc<Cell<SimTime>> {
        let landed_at = Rc::new(Cell::new(SimTime::ZERO));
        let (net, ctx, at) = (net.clone(), sim.context(), Rc::clone(&landed_at));
        sim.spawn(async move {
            net.send(from, to, bytes).await;
            at.set(ctx.now());
        });
        landed_at
    }

    #[test]
    fn round_trip_latency_is_modeled() {
        let mut sim = Sim::new();
        let net = build(&sim, 4);
        let landed_at = send_and_time(&mut sim, &net, 0, 1, 8192);
        sim.run();
        let t = landed_at.get().as_nanos();
        // ~84 us: two 41 us NI occupancies plus wire latency.
        assert!(t > 80_000 && t < 90_000, "landed at {t} ns");
        // A send counts its message and bytes.
        assert_eq!(net.messages_sent(), 1);
        assert_eq!(net.bytes_sent(), 8192);
        // NI-only contention never touches a link resource.
        assert!(net.link_stats().is_empty());
    }

    #[test]
    fn open_delivery_lands_when_a_send_would_return() {
        let sent = {
            let mut sim = Sim::new();
            let net = build(&sim, 4);
            let landed_at = send_and_time(&mut sim, &net, 0, 3, 8192);
            sim.run();
            landed_at.get()
        };
        let mut sim = Sim::new();
        let ctx = sim.context();
        let net = build(&sim, 4);
        let done = CountdownEvent::new(1);
        let opened_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            // The waiter sits at the sender; no task runs at node 3.
            let (done, opened_at) = (done.clone(), Rc::clone(&opened_at));
            sim.spawn(async move {
                done.wait().await;
                opened_at.set(ctx.now());
            });
        }
        sim.spawn(async move {
            net.post(0, 3, 8192, move || done.signal()).await;
        });
        sim.run();
        assert_eq!(opened_at.get(), sent);
    }

    #[test]
    fn receiver_nic_serializes_concurrent_senders() {
        let mut sim = Sim::new();
        let net = build(&sim, 8);
        // 7 nodes each send 1 MB to node 0 concurrently.
        for from in 1..8 {
            let net = net.clone();
            sim.spawn(async move {
                net.send(from, 0, 1 << 20).await;
            });
        }
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
        let net = build_fabric(&sim, 4, config);
        // 4 nodes fit a 2x2 torus; 0 -> 3 is a 2-hop route.
        assert_eq!(net.topology().hops(0, 3), 2);
        let landed_at = send_and_time(&mut sim, &net, 0, 3, 8192);
        sim.run();
        let stats = net.link_stats();
        assert_eq!(stats.len(), 2, "one resource per route link: {stats:?}");
        let p = NetworkParams::default();
        let per_link = p.link_occupancy(8192);
        // The sending NI, then a router and a link per hop, then the
        // receiving NI, one after another.
        let path = p.send_occupancy(8192) + (p.router_latency + per_link) * 2;
        assert_eq!(
            landed_at.get(),
            SimTime::ZERO + path + p.recv_occupancy(8192)
        );
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
        let net = build_fabric(&sim, 4, config);
        // Two messages over the same crossbar link must serialize: total
        // link busy time is twice one serialization.
        for _ in 0..2 {
            send_and_time(&mut sim, &net, 0, 1, 1 << 20);
        }
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
        let net = build(&sim, 4);
        let posted_at = Rc::new(Cell::new(SimTime::ZERO));
        let landed = Rc::new(RefCell::new(Vec::new()));
        {
            let net = net.clone();
            let ctx = ctx.clone();
            let (posted_at, landed) = (Rc::clone(&posted_at), Rc::clone(&landed));
            sim.spawn(async move {
                for _ in 0..4 {
                    let (ctx, landed) = (ctx.clone(), Rc::clone(&landed));
                    let on_land = move || landed.borrow_mut().push(ctx.now());
                    net.post(0, 3, 8192, on_land).await;
                }
                posted_at.set(ctx.now());
            });
        }
        sim.run();
        // All four posts finish after roughly 4 sender occupancies (~168 us),
        // before the last one lands, and everything is delivered.
        assert!(posted_at.get().as_nanos() < 200_000);
        assert_eq!(landed.borrow().len(), 4);
        assert!(landed.borrow()[3] > posted_at.get());
        assert_eq!(net.messages_sent(), 4);
    }

    #[test]
    fn messages_between_same_pair_preserve_order() {
        let mut sim = Sim::new();
        let net = build(&sim, 2);
        let seen = Rc::new(RefCell::new(Vec::new()));
        {
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                for i in 0..10u64 {
                    let seen = Rc::clone(&seen);
                    net.post(0, 1, 64, move || seen.borrow_mut().push(i)).await;
                }
            });
        }
        sim.run();
        assert_eq!(*seen.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ni_outage_delays_traffic_until_the_window_closes() {
        let mut sim = Sim::new();
        let net = build(&sim, 4);
        let until = SimTime::ZERO + SimDuration::from_millis(5);
        net.set_outages(vec![NiOutage {
            node: 1,
            from: SimTime::ZERO,
            until,
        }]);
        let landed_at = send_and_time(&mut sim, &net, 0, 1, 8192);
        sim.run();
        assert!(
            landed_at.get() >= until,
            "landed inside the receiver's outage window"
        );
        assert_eq!(net.messages_sent(), 1, "outages delay, never drop");
    }

    #[test]
    fn no_outages_is_event_identical_to_a_faultless_fabric() {
        let run = |install_empty: bool| {
            let mut sim = Sim::new();
            let net = build(&sim, 4);
            if install_empty {
                net.set_outages(Vec::new());
            }
            sim.spawn(async move {
                net.send(0, 1, 8192).await;
                net.post(0, 1, 8192, || ()).await;
            });
            let end = sim.run();
            (end, sim.events_processed())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn an_uncontended_send_wakes_once_per_ni() {
        let mut sim = Sim::new();
        let net = build(&sim, 4);
        sim.spawn(async move {
            net.send(0, 1, 8192).await;
        });
        sim.run();
        // After the sender's first poll, which books the sending NI and
        // sleeps to the message's arrival: that timer and its poll, which
        // books the receiving NI, then the deposit's timer and the poll
        // that lands the message.
        assert_eq!(sim.events_processed(), 1 + 4);
    }

    #[test]
    fn send_future_stays_small() {
        let net = build(&Sim::new(), 2);
        let send = net.send(0, 1, 8);
        assert!(
            std::mem::size_of_val(&send) <= 192,
            "send future is {} bytes",
            std::mem::size_of_val(&send)
        );
    }

    #[test]
    fn a_landing_stays_small() {
        // Every post spawns one landing. A representative one hands a
        // 40-byte message to its receiver behind an `Rc`; a landing that
        // ran the receiver's handler inline would hold the handler's future
        // as well.
        let net = build(&Sim::new(), 2);
        let (receiver, message) = (Rc::new(Cell::new(0u64)), [1u64; 5]);
        let on_land = move || receiver.set(message.iter().sum());
        let landing = landing(Rc::clone(&net.shared), 0, 1, 8, SimTime::ZERO, on_land);
        let size = std::mem::size_of_val(&landing);
        assert!(size <= 224, "a landing future is {size} bytes");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_unknown_node_panics() {
        let mut sim = Sim::new();
        let net = build(&sim, 2);
        sim.spawn(async move {
            net.send(0, 9, 8).await;
        });
        sim.run();
    }
}
