//! Scenario composition: topology generators and workload placers.
//!
//! The paper's claim is that one repeating structure covers every
//! networking scenario; this module makes *expressing* those scenarios
//! cheap. A [`Topology`] stamps out nodes + links + one spanning DIF in a
//! single call and hands back a [`Fabric`] of typed handles; [`Workload`]
//! places ready-made application processes over a fabric by pattern.
//! Together they collapse the ~100-line hand-wired scenario preambles
//! into a few lines:
//!
//! ```
//! use rina::prelude::*;
//! use rina::scenario::{Topology, Workload};
//!
//! let mut b = NetBuilder::new(7);
//! let fab = Topology::star(5).materialize(&mut b);
//! let cs = Workload::client_server(&mut b, fab.dif, &fab.all(), fab.node(0), 3, 64);
//! let mut net = b.build();
//! net.run_until_assembled(Dur::from_secs(30), Dur::from_millis(200));
//! net.run_for(Dur::from_secs(2));
//! assert!(cs.clients.iter().all(|&c| net.app(c).done()));
//! ```

use crate::apps::{ChurnDriver, ChurnSinkApp, EchoApp, PingApp, SinkApp, SourceApp};
use crate::dif::DifConfig;
use crate::naming::AppName;
use crate::net::{AppH, DifH, IpcpH, LinkH, Net, NetBuilder, NodeH};
use crate::qos::QosSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rina_sim::{topology, Dur, Histogram, LinkCfg, Time};

/// A declarative topology: nodes, physical links, and one DIF spanning
/// them, materialized into a [`NetBuilder`] with one call.
///
/// All generators are deterministic (the randomized ones under their
/// explicit seed), so a scenario is reproducible from its parameters.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: usize,
    edges: Vec<(usize, usize)>,
    link: LinkCfg,
    dif: Option<DifConfig>,
    prefix: String,
}

impl Topology {
    fn new(nodes: usize, edges: Vec<(usize, usize)>) -> Self {
        Topology { nodes, edges, link: LinkCfg::wired(), dif: None, prefix: "n".into() }
    }

    /// A chain `0 - 1 - … - (n-1)`.
    pub fn line(n: usize) -> Self {
        Topology::new(n, topology::line(n))
    }

    /// A star with node 0 at the centre (the hub) and `n - 1` leaves.
    pub fn star(n: usize) -> Self {
        Topology::new(n, topology::star(n))
    }

    /// A ring `0 - 1 - … - (n-1) - 0`. Requires `n >= 3`.
    pub fn ring(n: usize) -> Self {
        Topology::new(n, topology::ring(n))
    }

    /// A complete `fanout`-ary tree with the root at node 0 and `depth`
    /// levels below it (BFS numbering; leaves occupy the index tail).
    pub fn tree(fanout: usize, depth: usize) -> Self {
        let (edges, n) = topology::tree(fanout, depth);
        Topology::new(n, edges)
    }

    /// A complete graph over `n` nodes.
    pub fn mesh(n: usize) -> Self {
        Topology::new(n, topology::full_mesh(n))
    }

    /// A Barabási–Albert scale-free graph: `n` nodes, each arrival
    /// attaching `m` degree-weighted edges; deterministic in `seed`.
    pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Self {
        Topology::new(n, topology::barabasi_albert(n, m, seed))
    }

    /// Use `cfg` for every physical link (default: [`LinkCfg::wired`]).
    pub fn with_link(mut self, cfg: LinkCfg) -> Self {
        self.link = cfg;
        self
    }

    /// Use `cfg` for the spanning DIF (default: an open DIF named after
    /// the node prefix).
    pub fn with_dif(mut self, cfg: DifConfig) -> Self {
        self.dif = Some(cfg);
        self
    }

    /// Name nodes `{prefix}{index}` and the default DIF `{prefix}-dif`
    /// (default prefix: `"n"`).
    pub fn with_prefix(mut self, prefix: &str) -> Self {
        self.prefix = prefix.to_string();
        self
    }

    /// The edge list this topology generates (deterministic).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.edges.clone()
    }

    /// Number of nodes this topology generates.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Use this topology as the **backbone graph** of a layered
    /// internetwork: each of its vertices becomes a region router
    /// fronting `hosts_per_region` hosts, with one DIF per region, a
    /// backbone DIF over this graph, and an internet DIF riding both —
    /// the E6-style hierarchy (§6.5) in one call.
    pub fn layered(self, hosts_per_region: usize) -> Layered {
        Layered { backbone: self, hosts_per_region }
    }

    /// Create the nodes, connect every edge, declare the spanning DIF,
    /// join every node to it, and declare one adjacency per link.
    pub fn materialize(&self, b: &mut NetBuilder) -> Fabric {
        let n = self.node_count();
        let edges = self.edges();
        let nodes: Vec<NodeH> = (0..n).map(|i| b.node(&format!("{}{}", self.prefix, i))).collect();
        let links: Vec<LinkH> =
            edges.iter().map(|&(u, v)| b.link(nodes[u], nodes[v], self.link.clone())).collect();
        let dif_cfg =
            self.dif.clone().unwrap_or_else(|| DifConfig::new(&format!("{}-dif", self.prefix)));
        let dif = b.dif(dif_cfg);
        for &nd in &nodes {
            b.join(dif, nd);
        }
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.adjacency_over_link(dif, nodes[u], nodes[v], links[i]);
        }
        Fabric { nodes, links, edges, dif }
    }
}

/// The typed handles a materialized [`Topology`] produced: one node per
/// vertex, one link per edge, and the spanning DIF.
#[derive(Clone, Debug)]
pub struct Fabric {
    /// Node handles, indexed by vertex number.
    pub nodes: Vec<NodeH>,
    /// Link handles, parallel to [`Fabric::edges`].
    pub links: Vec<LinkH>,
    /// The generated edge list (vertex index pairs).
    pub edges: Vec<(usize, usize)>,
    /// The DIF spanning every node.
    pub dif: DifH,
}

impl Fabric {
    /// The node at vertex `i`.
    pub fn node(&self, i: usize) -> NodeH {
        self.nodes[i]
    }

    /// The last node (by vertex number) — the far end of lines, a leaf of
    /// trees.
    pub fn last(&self) -> NodeH {
        *self.nodes.last().expect("fabric has nodes")
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fabric is empty (never, for the provided generators).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node handles, for workload placement.
    pub fn all(&self) -> Vec<NodeH> {
        self.nodes.clone()
    }

    /// Per-vertex degree, for picking hubs and leaves of generated graphs.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for &(a, b) in &self.edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        deg
    }

    /// The highest-degree vertex (a hub of scale-free graphs, the centre
    /// of stars).
    pub fn hub(&self) -> NodeH {
        let deg = self.degrees();
        let i = (0..deg.len()).max_by_key(|&i| deg[i]).expect("fabric has nodes");
        self.nodes[i]
    }

    /// The `k` lowest-degree vertices, ties by vertex number — the leaves
    /// of scale-free graphs, where sinks belong so that their access
    /// links, not the hubs, become the congestion points. At least one
    /// vertex, and at most all but one (somebody has to send).
    pub fn lowest_degree(&self, k: usize) -> Vec<NodeH> {
        let deg = self.degrees();
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (deg[i], i));
        let k = k.min(self.len().saturating_sub(1)).max(1);
        order.iter().take(k).map(|&i| self.node(i)).collect()
    }

    /// This fabric's member IPC process on each node, for stats collection.
    pub fn member_ipcps(&self, b: &NetBuilder) -> Vec<crate::net::IpcpH> {
        self.nodes.iter().map(|&n| b.ipcp_of(self.dif, n)).collect()
    }
}

/// A layered internetwork under construction: a backbone graph of region
/// routers (any [`Topology`]), each fronting a star of hosts. See
/// [`Topology::layered`].
#[derive(Clone, Debug)]
pub struct Layered {
    backbone: Topology,
    hosts_per_region: usize,
}

impl Layered {
    /// Total machines: backbone routers plus all hosts.
    pub fn node_count(&self) -> usize {
        let r = self.backbone.node_count();
        r + r * self.hosts_per_region
    }

    /// Materialize **hierarchically**: one DIF per region (router +
    /// hosts), a backbone DIF over the backbone graph, and an internet
    /// DIF whose members are every router and host but whose adjacencies
    /// ride the region and backbone DIFs — so no lower DIF ever carries
    /// internetwork-wide state (§6.5).
    pub fn materialize(&self, b: &mut NetBuilder) -> LayeredFabric {
        let backbone = self.backbone.materialize(b);
        let prefix = &self.backbone.prefix;
        let mut hosts = Vec::new();
        let mut host_links = Vec::new();
        let mut region_difs = Vec::new();
        for (r, &router) in backbone.nodes.iter().enumerate() {
            let mut row = Vec::new();
            let mut lrow = Vec::new();
            for h in 0..self.hosts_per_region {
                let id = b.node(&format!("{prefix}h{r}x{h}"));
                lrow.push(b.link(router, id, LinkCfg::wired()));
                row.push(id);
            }
            let d = b.dif(DifConfig::new(&format!("{prefix}region{r}")));
            b.join(d, router);
            for (h, &host) in row.iter().enumerate() {
                b.join(d, host);
                b.adjacency_over_link(d, router, host, lrow[h]);
            }
            hosts.push(row);
            host_links.push(lrow);
            region_difs.push(d);
        }
        let inet = b.dif(DifConfig::new(&format!("{prefix}internet")));
        for &r in &backbone.nodes {
            b.join(inet, r);
        }
        for row in &hosts {
            for &h in row {
                b.join(inet, h);
            }
        }
        for &(u, v) in &backbone.edges {
            b.adjacency_over_dif(
                inet,
                backbone.nodes[u],
                backbone.nodes[v],
                backbone.dif,
                QosSpec::datagram(),
            );
        }
        for (r, row) in hosts.iter().enumerate() {
            for &host in row {
                b.adjacency_over_dif(
                    inet,
                    backbone.nodes[r],
                    host,
                    region_difs[r],
                    QosSpec::datagram(),
                );
            }
        }
        LayeredFabric { backbone, hosts, host_links, region_difs, inet }
    }

    /// Materialize **flat**: identical machines and wires, but one DIF
    /// spanning everything — the current-Internet shape E6 compares
    /// against. Returns an ordinary [`Fabric`] (routers first, then hosts
    /// region by region).
    pub fn materialize_flat(&self, b: &mut NetBuilder) -> Fabric {
        let rn = self.backbone.node_count();
        let prefix = &self.backbone.prefix;
        let mut nodes: Vec<NodeH> = (0..rn).map(|i| b.node(&format!("{prefix}{i}"))).collect();
        let mut edges = self.backbone.edges();
        let mut links: Vec<LinkH> = edges
            .iter()
            .map(|&(u, v)| b.link(nodes[u], nodes[v], self.backbone.link.clone()))
            .collect();
        for r in 0..rn {
            for h in 0..self.hosts_per_region {
                let id = b.node(&format!("{prefix}h{r}x{h}"));
                let hi = nodes.len();
                nodes.push(id);
                links.push(b.link(nodes[r], id, LinkCfg::wired()));
                edges.push((r, hi));
            }
        }
        let dif = b.dif(DifConfig::new(&format!("{prefix}flat")));
        for &n in &nodes {
            b.join(dif, n);
        }
        for (i, &(u, v)) in edges.iter().enumerate() {
            b.adjacency_over_link(dif, nodes[u], nodes[v], links[i]);
        }
        Fabric { nodes, links, edges, dif }
    }
}

/// The typed handles a hierarchically materialized [`Layered`] produced.
#[derive(Clone, Debug)]
pub struct LayeredFabric {
    /// The backbone fabric: region routers, backbone links, backbone DIF.
    pub backbone: Fabric,
    /// Host handles per region.
    pub hosts: Vec<Vec<NodeH>>,
    /// Router–host access links, parallel to [`LayeredFabric::hosts`].
    pub host_links: Vec<Vec<LinkH>>,
    /// One DIF per region (its members: the router and its hosts).
    pub region_difs: Vec<DifH>,
    /// The internet DIF spanning every router and host.
    pub inet: DifH,
}

impl LayeredFabric {
    /// The region routers (backbone vertices, in order).
    pub fn routers(&self) -> &[NodeH] {
        &self.backbone.nodes
    }

    /// Host `h` of region `r`.
    pub fn host(&self, r: usize, h: usize) -> NodeH {
        self.hosts[r][h]
    }

    /// Every member of the internet DIF (routers, then hosts).
    pub fn inet_members(&self) -> Vec<NodeH> {
        let mut v = self.backbone.nodes.clone();
        v.extend(self.hosts.iter().flatten().copied());
        v
    }

    /// Every member IPC process across all three layers (region DIFs,
    /// backbone DIF, internet DIF), for stats collection.
    pub fn member_ipcps(&self, b: &NetBuilder) -> Vec<crate::net::IpcpH> {
        let mut v = Vec::new();
        for (r, row) in self.hosts.iter().enumerate() {
            v.push(b.ipcp_of(self.region_difs[r], self.backbone.nodes[r]));
            for &h in row {
                v.push(b.ipcp_of(self.region_difs[r], h));
            }
        }
        for &r in &self.backbone.nodes {
            v.push(b.ipcp_of(self.backbone.dif, r));
        }
        for &n in &self.inet_members() {
            v.push(b.ipcp_of(self.inet, n));
        }
        v
    }
}

/// Application placement patterns over a set of nodes.
///
/// Each helper registers apps under predictable names (prefix + vertex
/// index) and returns the typed handles so measurements stay one-liners.
pub struct Workload;

/// Handles returned by [`Workload::ping_mesh`].
pub struct PingMesh {
    /// One echo responder per node.
    pub echoes: Vec<AppH<EchoApp>>,
    /// One pinger per ordered node pair `(from, to)`, `from != to`.
    pub pings: Vec<(NodeH, NodeH, AppH<PingApp>)>,
}

impl PingMesh {
    /// Whether every pinger completed its round trips.
    pub fn all_done(&self, net: &Net) -> bool {
        self.pings.iter().all(|&(_, _, p)| net.app(p).done())
    }

    /// Every measured RTT across the mesh, in seconds.
    pub fn rtts(&self, net: &Net) -> Vec<f64> {
        self.pings.iter().flat_map(|&(_, _, p)| net.app(p).rtts.iter().copied()).collect()
    }
}

/// Handles returned by [`Workload::client_server`].
pub struct ClientServer {
    /// The echo service, named after the server's node handle (so
    /// placements with *distinct* servers coexist in one DIF; reusing
    /// one server node for two placements in one DIF still collides).
    pub server: AppH<EchoApp>,
    /// One pinger per client node.
    pub clients: Vec<AppH<PingApp>>,
}

/// Handles returned by [`Workload::sources_to_sink`].
pub struct SourcesToSink {
    /// The sink, named after its node handle (so placements with
    /// *distinct* sinks coexist in one DIF; reusing one sink node for
    /// two placements in one DIF still collides).
    pub sink: AppH<SinkApp>,
    /// One source per source node.
    pub sources: Vec<AppH<SourceApp>>,
}

impl SourcesToSink {
    /// Total SDUs the sink received.
    pub fn received(&self, net: &Net) -> u64 {
        net.app(self.sink).received
    }
}

/// Parameters of [`Workload::flow_churn`]: how many drivers, how they
/// pace their open/hold/close cycles, and the QoS-class mix. All jitter
/// windows are uniform in virtual time under the workload seed.
#[derive(Clone, Debug)]
pub struct FlowChurnCfg {
    /// Seed for destination choice, class mix, and every driver's
    /// jitter stream.
    pub seed: u64,
    /// Churn drivers placed on each non-sink node.
    pub drivers_per_node: usize,
    /// Flow holding-time bounds (uniform, inclusive).
    pub hold: (Dur, Dur),
    /// Idle-gap bounds between one close and the next open.
    pub gap: (Dur, Dur),
    /// SDU payload size (min 9: timestamp + class byte).
    pub size: usize,
    /// Interval between SDUs while a flow is held.
    pub send_interval: Dur,
    /// Weighted QoS-class mix: `(spec, weight)` per class; a driver's
    /// class byte is its index in this vector.
    pub mix: Vec<(QosSpec, u32)>,
}

impl FlowChurnCfg {
    /// A moderate default: four drivers per node, seconds-scale holds,
    /// sub-second gaps, an interactive/reliable/datagram mix.
    pub fn new(seed: u64) -> Self {
        FlowChurnCfg {
            seed,
            drivers_per_node: 4,
            hold: (Dur::from_secs(2), Dur::from_secs(6)),
            gap: (Dur::from_millis(200), Dur::from_millis(900)),
            size: 64,
            send_interval: Dur::from_millis(50),
            mix: vec![
                (QosSpec::interactive(), 1),
                (QosSpec::reliable(), 1),
                (QosSpec::datagram(), 2),
            ],
        }
    }

    /// Builder-style driver-count override.
    pub fn with_drivers_per_node(mut self, n: usize) -> Self {
        self.drivers_per_node = n;
        self
    }

    /// Builder-style pacing override.
    pub fn with_pacing(mut self, hold: (Dur, Dur), gap: (Dur, Dur)) -> Self {
        self.hold = hold;
        self.gap = gap;
        self
    }

    /// Builder-style traffic-shape override.
    pub fn with_traffic(mut self, size: usize, send_interval: Dur) -> Self {
        self.size = size;
        self.send_interval = send_interval;
        self
    }

    /// Builder-style class-mix override.
    pub fn with_mix(mut self, mix: Vec<(QosSpec, u32)>) -> Self {
        assert!(!mix.is_empty(), "flow churn needs at least one class");
        self.mix = mix;
        self
    }
}

/// Handles returned by [`Workload::flow_churn`].
pub struct FlowChurn {
    /// One per-class-accounting sink per sink node.
    pub sinks: Vec<AppH<ChurnSinkApp>>,
    /// Every churn driver, in placement order.
    pub drivers: Vec<AppH<ChurnDriver>>,
}

impl FlowChurn {
    /// Flows held open right now (the concurrency sample — read it at
    /// fixed virtual-time points for deterministic traces).
    pub fn concurrent(&self, net: &Net) -> usize {
        self.drivers.iter().filter(|&&d| net.app(d).active()).count()
    }

    /// Completed flow allocations across all drivers.
    pub fn allocs(&self, net: &Net) -> u64 {
        self.drivers.iter().map(|&d| net.app(d).allocs).sum()
    }

    /// Allocation failures across all drivers (each was retried).
    pub fn alloc_failures(&self, net: &Net) -> u64 {
        self.drivers.iter().map(|&d| net.app(d).alloc_failures).sum()
    }

    /// Established flows that died mid-life across all drivers —
    /// congestion shedding by the transport, not allocator refusals.
    pub fn flow_deaths(&self, net: &Net) -> u64 {
        self.drivers.iter().map(|&d| net.app(d).flow_deaths).sum()
    }

    /// Deliberate deallocations across all drivers.
    pub fn closes(&self, net: &Net) -> u64 {
        self.drivers.iter().map(|&d| net.app(d).closes).sum()
    }

    /// SDUs written across all drivers.
    pub fn sent(&self, net: &Net) -> u64 {
        self.drivers.iter().map(|&d| net.app(d).sent).sum()
    }

    /// SDUs received across all sinks.
    pub fn received(&self, net: &Net) -> u64 {
        self.sinks.iter().map(|&s| net.app(s).received).sum()
    }

    /// Allocation latency pooled across drivers, seconds of virtual time.
    pub fn alloc_latency(&self, net: &Net) -> Histogram {
        let mut h = Histogram::new();
        for &d in &self.drivers {
            for &v in net.app(d).alloc_latency.samples() {
                h.push(v);
            }
        }
        h
    }

    /// One-way data latency of `class` pooled across sinks, seconds.
    pub fn latency_of_class(&self, net: &Net, class: usize) -> Histogram {
        let mut h = Histogram::new();
        let class = class.min(crate::apps::CHURN_CLASSES - 1);
        for &s in &self.sinks {
            for &v in net.app(s).latency_by_class[class].samples() {
                h.push(v);
            }
        }
        h
    }

    /// SDUs received per class byte, pooled across sinks.
    pub fn received_by_class(&self, net: &Net) -> [u64; crate::apps::CHURN_CLASSES] {
        let mut out = [0u64; crate::apps::CHURN_CLASSES];
        for &s in &self.sinks {
            for (i, &c) in net.app(s).received_by_class.iter().enumerate() {
                out[i] += c;
            }
        }
        out
    }
}

impl Workload {
    /// Full-mesh reachability: every node in `nodes` hosts an echo
    /// responder and pings every other one `count` times with `size`-byte
    /// payloads. `dif` is the DIF whose directory the apps register in.
    /// App names are derived from the handles — there is no caller-side
    /// label bookkeeping to get wrong.
    ///
    /// The pair count is quadratic — pass the subset you mean to measure.
    pub fn ping_mesh(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        count: usize,
        size: usize,
    ) -> PingMesh {
        let n = nodes.len();
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect();
        Workload::ping_pairs(b, dif, nodes, &pairs, count, size)
    }

    /// O(n) reachability by stride: every node hosts an echo responder
    /// and node `i` pings node `(i + stride) mod n` — `n` pings instead
    /// of the mesh's `n·(n-1)`. The target map is a bijection for any
    /// stride, so **every node is pinged exactly once**; `stride` must
    /// not be a multiple of `n` (that would self-ping).
    ///
    /// Installs the same `echo.{node}` responders as
    /// [`Workload::ping_mesh`] — place at most one echo-installing
    /// pattern per node set per DIF.
    pub fn ping_stride(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        stride: usize,
        count: usize,
        size: usize,
    ) -> PingMesh {
        let n = nodes.len();
        assert!(n >= 2, "stride reachability needs at least two nodes");
        assert!(!stride.is_multiple_of(n), "stride {stride} ≡ 0 mod {n} would self-ping");
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + stride) % n)).collect();
        Workload::ping_pairs(b, dif, nodes, &pairs, count, size)
    }

    /// O(n) sampled reachability: a ring over a seed-shuffled
    /// permutation of `nodes` — every node sources **and** receives
    /// exactly one ping — plus `extra` additional distinct random pairs.
    /// Deterministic in `seed`.
    ///
    /// Installs the same `echo.{node}` responders as
    /// [`Workload::ping_mesh`] — place at most one echo-installing
    /// pattern per node set per DIF.
    #[allow(clippy::too_many_arguments)] // a placement pattern is its parameters
    pub fn ping_sampled(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        extra: usize,
        seed: u64,
        count: usize,
        size: usize,
    ) -> PingMesh {
        let n = nodes.len();
        assert!(n >= 2, "sampled reachability needs at least two nodes");
        // The ring consumes n of the n·(n-1) ordered pairs; the rest are
        // available as extras. An unsatisfiable request is a bug in the
        // caller's workload sizing, not something to paper over silently.
        let available = n * (n - 1) - n;
        assert!(
            extra <= available,
            "extra {extra} exceeds the {available} ordered pairs left beside the ring"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        perm.shuffle(&mut rng);
        let mut pairs: Vec<(usize, usize)> = (0..n).map(|i| (perm[i], perm[(i + 1) % n])).collect();
        let used: std::collections::BTreeSet<(usize, usize)> = pairs.iter().copied().collect();
        if extra > 0 {
            if extra * 2 >= available {
                // Dense request: enumerate the leftover pair space and
                // shuffle — exact, no rejection sampling.
                let mut rest: Vec<(usize, usize)> = (0..n)
                    .flat_map(|i| (0..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| i != j && !used.contains(&(i, j)))
                    .collect();
                rest.shuffle(&mut rng);
                pairs.extend(rest.into_iter().take(extra));
            } else {
                // Sparse request: rejection-sample until filled (density
                // < 1/2, so this terminates quickly and deterministically
                // under the seeded RNG).
                let mut used = used;
                let mut added = 0;
                while added < extra {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if i != j && used.insert((i, j)) {
                        pairs.push((i, j));
                        added += 1;
                    }
                }
            }
        }
        Workload::ping_pairs(b, dif, nodes, &pairs, count, size)
    }

    /// Shared placer: echoes everywhere, one pinger per `(from, to)`
    /// index pair.
    fn ping_pairs(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        pairs: &[(usize, usize)],
        count: usize,
        size: usize,
    ) -> PingMesh {
        let echo_name = |n: NodeH| AppName::new(&format!("echo.{}", n.0));
        let echoes =
            nodes.iter().map(|&n| b.app(n, echo_name(n), dif, EchoApp::default())).collect();
        let pings = pairs
            .iter()
            .map(|&(i, j)| {
                let (from, to) = (nodes[i], nodes[j]);
                let p = b.app(
                    from,
                    AppName::new(&format!("ping.{}.{}", from.0, to.0)),
                    dif,
                    PingApp::new(echo_name(to), QosSpec::reliable(), count, size),
                );
                (from, to, p)
            })
            .collect();
        PingMesh { echoes, pings }
    }

    /// One echo server on `server`; every node of `nodes` (the server
    /// itself is skipped if listed) pings it `rounds` times with
    /// `size`-byte payloads. Apps register in `dif`'s directory, like
    /// the other placers — every listed node must be a member.
    pub fn client_server(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        server: NodeH,
        rounds: usize,
        size: usize,
    ) -> ClientServer {
        let svc = AppName::new(&format!("svc.{}", server.0));
        let srv = b.app(server, svc.clone(), dif, EchoApp::default());
        let clients = nodes
            .iter()
            .filter(|&&n| n != server)
            .map(|&n| {
                b.app(
                    n,
                    AppName::new(&format!("client.{}.{}", server.0, n.0)),
                    dif,
                    PingApp::new(svc.clone(), QosSpec::reliable(), rounds, size),
                )
            })
            .collect();
        ClientServer { server: srv, clients }
    }

    /// Many-to-one traffic: every node of `sources` streams `count`
    /// SDUs of `size` bytes at `interval` toward one sink on `sink_node`.
    #[allow(clippy::too_many_arguments)] // a placement pattern is its parameters
    pub fn sources_to_sink(
        b: &mut NetBuilder,
        dif: DifH,
        sink_node: NodeH,
        sources: &[NodeH],
        spec: QosSpec,
        size: usize,
        count: u64,
        interval: Dur,
    ) -> SourcesToSink {
        let sink_name = AppName::new(&format!("sink.{}", sink_node.0));
        let sink = b.app(sink_node, sink_name.clone(), dif, SinkApp::default());
        let sources = sources
            .iter()
            .filter(|&&n| n != sink_node)
            .map(|&n| {
                b.app(
                    n,
                    AppName::new(&format!("src.{}.{}", sink_node.0, n.0)),
                    dif,
                    SourceApp::new(sink_name.clone(), spec, size, count, interval),
                )
            })
            .collect();
        SourcesToSink { sink, sources }
    }

    /// The flow-churn workload (ROADMAP item 4): every node of `sink_nodes`
    /// hosts a per-class [`ChurnSinkApp`], and every node of `nodes` not
    /// hosting a sink gets `cfg.drivers_per_node` [`ChurnDriver`]s, each
    /// cycling open → hold → close → reopen against a seeded-random sink,
    /// with its QoS class drawn from the weighted `cfg.mix`. The whole
    /// placement — destinations, classes, per-driver jitter streams — is a
    /// pure function of `cfg.seed`, so a churn population's entire
    /// lifetime is byte-identical at any host thread count.
    pub fn flow_churn(
        b: &mut NetBuilder,
        dif: DifH,
        nodes: &[NodeH],
        sink_nodes: &[NodeH],
        cfg: &FlowChurnCfg,
    ) -> FlowChurn {
        assert!(!sink_nodes.is_empty(), "flow churn needs at least one sink node");
        assert!(!cfg.mix.is_empty(), "flow churn needs at least one class");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let sink_name = |n: NodeH| AppName::new(&format!("churnsink.{}", n.0));
        let sinks: Vec<AppH<ChurnSinkApp>> = sink_nodes
            .iter()
            .map(|&n| b.app(n, sink_name(n), dif, ChurnSinkApp::default()))
            .collect();
        let total_weight: u32 = cfg.mix.iter().map(|&(_, w)| w.max(1)).sum();
        let mut drivers = Vec::new();
        for &n in nodes.iter().filter(|n| !sink_nodes.contains(n)) {
            for k in 0..cfg.drivers_per_node {
                let dst = sink_nodes[rng.gen_range(0..sink_nodes.len())];
                let mut pick = rng.gen_range(0..total_weight);
                let mut class = 0usize;
                for (i, &(_, w)) in cfg.mix.iter().enumerate() {
                    let w = w.max(1);
                    if pick < w {
                        class = i;
                        break;
                    }
                    pick -= w;
                }
                let spec = cfg.mix[class].0;
                let seed = rng.gen_range(0..u64::MAX);
                let d = ChurnDriver::new(
                    sink_name(dst),
                    spec,
                    class as u8,
                    cfg.size,
                    cfg.send_interval,
                    cfg.hold,
                    cfg.gap,
                    seed,
                );
                drivers.push(b.app(n, AppName::new(&format!("churn.{}.{k}", n.0)), dif, d));
            }
        }
        FlowChurn { sinks, drivers }
    }
}

/// One scripted disturbance step of a [`ChurnPlan`] timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnAction {
    /// Vertex `m` leaves gracefully: its member announces the departure,
    /// tombstoning every RIB object it owns (§5.2 in reverse). Its links
    /// stay up through the plan's linger so the deletion floods drain.
    Leave(usize),
    /// Vertex `m`'s member crash-restarts: a fresh unenrolled process
    /// takes its slot, silently. Neighbors detect the silence; the
    /// sponsor's failure GC reclaims the RIB state if the member stays
    /// down past the grace.
    Respawn(usize),
    /// Cut these physical links.
    LinksDown(Vec<LinkH>),
    /// Restore these physical links.
    LinksUp(Vec<LinkH>),
}

/// A continuous-dynamics workload over a [`Fabric`]: graceful leaves,
/// crash-failures with rejoin, link flaps, and partition-and-heal events,
/// all derived deterministically from the seed and driven from the Sim
/// clock — the event timeline (and therefore the whole run) is
/// byte-identical at any host thread count.
///
/// Disturbances land one per epoch and every one heals before the next
/// begins (`downtime < epoch`), so each epoch is an isolated
/// perturbation + reconvergence experiment; [`ChurnPlan::windows`] hands
/// measurement code the disturbed intervals to mask.
#[derive(Clone, Debug)]
pub struct Churn {
    /// Seed for victim/link/bisection choices (and epoch ordering).
    pub seed: u64,
    /// Graceful leave → later rejoin events.
    pub leaves: usize,
    /// Crash-fail → later rejoin events.
    pub fails: usize,
    /// Single-link flap events.
    pub flaps: usize,
    /// Partition-and-heal events (a random bisection's crossing links).
    pub partitions: usize,
    /// Spacing between consecutive disturbances. The first lands one
    /// epoch after the runner starts.
    pub epoch: Dur,
    /// How long each disturbance lasts before it heals.
    pub downtime: Dur,
    /// How long a graceful leaver keeps its links up after announcing —
    /// at least one hello period, so neighbors drain the deletion floods.
    pub linger: Dur,
}

impl Churn {
    /// A mixed workload at moderate rates (two of each disturbance, one
    /// partition), paced for the default DIF timescales.
    pub fn new(seed: u64) -> Self {
        Churn {
            seed,
            leaves: 2,
            fails: 2,
            flaps: 2,
            partitions: 1,
            epoch: Dur::from_secs(8),
            downtime: Dur::from_secs(4),
            linger: Dur::from_millis(1200),
        }
    }

    /// Builder-style event-count override.
    pub fn with_counts(mut self, leaves: usize, fails: usize, flaps: usize, parts: usize) -> Self {
        self.leaves = leaves;
        self.fails = fails;
        self.flaps = flaps;
        self.partitions = parts;
        self
    }

    /// Builder-style pacing override.
    pub fn with_pacing(mut self, epoch: Dur, downtime: Dur, linger: Dur) -> Self {
        self.epoch = epoch;
        self.downtime = downtime;
        self.linger = linger;
        self
    }

    /// Expand into the concrete event timeline over `fab`. Vertex 0 (the
    /// bootstrap sponsor) is never a victim; flaps and partitions may
    /// touch any link.
    pub fn plan(&self, fab: &Fabric) -> ChurnPlan {
        assert!(self.downtime < self.epoch, "a disturbance must heal before the next begins");
        assert!(self.linger < self.downtime, "a leaver lingers within its downtime");
        assert!(fab.len() >= 3, "churn needs at least three nodes");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        #[derive(Clone, Copy)]
        enum K {
            Leave,
            Fail,
            Flap,
            Partition,
        }
        let mut kinds = Vec::new();
        kinds.extend(std::iter::repeat_n(K::Leave, self.leaves));
        kinds.extend(std::iter::repeat_n(K::Fail, self.fails));
        kinds.extend(std::iter::repeat_n(K::Flap, self.flaps));
        kinds.extend(std::iter::repeat_n(K::Partition, self.partitions));
        use rand::seq::SliceRandom;
        kinds.shuffle(&mut rng);
        let node_links = |m: usize| -> Vec<LinkH> {
            fab.edges
                .iter()
                .enumerate()
                .filter(|&(_, &(u, v))| u == m || v == m)
                .map(|(i, _)| fab.links[i])
                .collect()
        };
        let mut events = Vec::new();
        let mut windows = Vec::new();
        for (i, k) in kinds.iter().enumerate() {
            let t0 = self.epoch * (i as u64 + 1);
            let heal = t0 + self.downtime;
            match k {
                K::Leave => {
                    let m = rng.gen_range(1..fab.len());
                    let links = node_links(m);
                    events.push((t0, ChurnAction::Leave(m)));
                    events.push((t0 + self.linger, ChurnAction::LinksDown(links.clone())));
                    events.push((heal, ChurnAction::LinksUp(links)));
                    events.push((heal, ChurnAction::Respawn(m)));
                }
                K::Fail => {
                    let m = rng.gen_range(1..fab.len());
                    let links = node_links(m);
                    events.push((t0, ChurnAction::LinksDown(links.clone())));
                    events.push((t0, ChurnAction::Respawn(m)));
                    events.push((heal, ChurnAction::LinksUp(links)));
                }
                K::Flap => {
                    let l = fab.links[rng.gen_range(0..fab.links.len())];
                    events.push((t0, ChurnAction::LinksDown(vec![l])));
                    events.push((heal, ChurnAction::LinksUp(vec![l])));
                }
                K::Partition => {
                    // A random proper bisection; cut every crossing link.
                    let mut side: Vec<bool> = (0..fab.len()).map(|_| rng.gen_bool(0.5)).collect();
                    if side.iter().all(|&s| s == side[0]) {
                        let last = side.len() - 1;
                        side[last] = !side[last];
                    }
                    let cross: Vec<LinkH> = fab
                        .edges
                        .iter()
                        .enumerate()
                        .filter(|&(_, &(u, v))| side[u] != side[v])
                        .map(|(i, _)| fab.links[i])
                        .collect();
                    events.push((t0, ChurnAction::LinksDown(cross.clone())));
                    events.push((heal, ChurnAction::LinksUp(cross)));
                }
            }
            windows.push((t0, heal));
        }
        ChurnPlan { events, windows }
    }
}

/// The concrete timeline a [`Churn`] expands to over one fabric: events
/// at offsets from the runner's start, already sorted.
#[derive(Clone, Debug)]
pub struct ChurnPlan {
    /// `(offset, action)` pairs in nondecreasing offset order.
    pub events: Vec<(Dur, ChurnAction)>,
    /// One `(start, heal)` interval per disturbance — measurement code
    /// masks these (plus a reconvergence margin) when asserting
    /// steady-state properties.
    pub windows: Vec<(Dur, Dur)>,
}

impl ChurnPlan {
    /// Offset of the last event (every disturbance healed).
    pub fn horizon(&self) -> Dur {
        self.events.last().map(|&(t, _)| t).unwrap_or(Dur::ZERO)
    }

    /// Whether `off` (an offset from runner start) falls inside any
    /// disturbance window stretched by `margin` on the heal side.
    pub fn disturbed(&self, off: Dur, margin: Dur) -> bool {
        self.windows.iter().any(|&(s, h)| off >= s && off <= h + margin)
    }
}

/// Drives a [`ChurnPlan`] against a running [`Net`], interleaving the
/// scripted disturbances with the caller's measurement slices.
pub struct ChurnRunner {
    plan: ChurnPlan,
    /// The fabric's member IPC process per vertex (capture with
    /// [`Fabric::member_ipcps`] before `build()`).
    members: Vec<IpcpH>,
    start: Time,
    next: usize,
}

impl ChurnRunner {
    /// Anchor the plan's offsets at `net`'s current virtual time.
    pub fn new(plan: ChurnPlan, net: &Net, members: Vec<IpcpH>) -> Self {
        let start = net.sim.now();
        ChurnRunner { plan, members, start, next: 0 }
    }

    /// Offset of `net`'s clock from the runner's start.
    pub fn elapsed(&self, net: &Net) -> Dur {
        net.sim.now().since(self.start)
    }

    /// Whether the current instant falls inside a disturbance window
    /// (stretched by `margin` for reconvergence).
    pub fn disturbed(&self, net: &Net, margin: Dur) -> bool {
        self.plan.disturbed(self.elapsed(net), margin)
    }

    /// Whether every planned event has been applied.
    pub fn done(&self) -> bool {
        self.next >= self.plan.events.len()
    }

    /// Advance virtual time by `d`, applying every event that falls due
    /// at its exact planned instant.
    pub fn advance(&mut self, net: &mut Net, d: Dur) {
        let target = net.sim.now() + d;
        while self.next < self.plan.events.len() {
            let (off, _) = self.plan.events[self.next];
            let at = self.start + off;
            if at > target {
                break;
            }
            net.sim.run_until(at);
            let (_, action) = self.plan.events[self.next].clone();
            self.next += 1;
            self.apply(net, &action);
        }
        net.sim.run_until(target);
    }

    /// Apply all remaining events, then run `settle` past the last one.
    pub fn finish(&mut self, net: &mut Net, settle: Dur) {
        let now_off = self.elapsed(net);
        let remaining = Dur(self.plan.horizon().0.saturating_sub(now_off.0));
        self.advance(net, remaining);
        net.run_for(settle);
    }

    fn apply(&self, net: &mut Net, action: &ChurnAction) {
        match action {
            ChurnAction::Leave(m) => net.announce_leave(self.members[*m]),
            ChurnAction::Respawn(m) => net.respawn_ipcp(self.members[*m]),
            ChurnAction::LinksDown(ls) => {
                for &l in ls {
                    net.set_link_up(l, false);
                }
            }
            ChurnAction::LinksUp(ls) => {
                for &l in ls {
                    net.set_link_up(l, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_edges(t: &Topology) -> (usize, usize) {
        (t.node_count(), t.edges().len())
    }

    #[test]
    fn generator_node_and_edge_counts() {
        assert_eq!(count_edges(&Topology::line(6)), (6, 5));
        assert_eq!(count_edges(&Topology::star(6)), (6, 5));
        assert_eq!(count_edges(&Topology::ring(6)), (6, 6));
        assert_eq!(count_edges(&Topology::tree(2, 3)), (15, 14));
        assert_eq!(count_edges(&Topology::mesh(6)), (6, 15));
        // BA: clique(m+1) + m per later arrival (n - m - 1 of them).
        assert_eq!(count_edges(&Topology::barabasi_albert(50, 2, 9)), (50, 3 + 47 * 2));
    }

    #[test]
    fn barabasi_albert_deterministic_under_seed() {
        assert_eq!(
            Topology::barabasi_albert(40, 2, 5).edges(),
            Topology::barabasi_albert(40, 2, 5).edges()
        );
        assert_ne!(
            Topology::barabasi_albert(40, 2, 5).edges(),
            Topology::barabasi_albert(40, 2, 6).edges()
        );
    }

    #[test]
    fn materialize_builds_consistent_fabric() {
        let mut b = NetBuilder::new(1);
        let fab = Topology::tree(2, 2).with_prefix("t").materialize(&mut b);
        assert_eq!(fab.len(), 7);
        assert_eq!(fab.links.len(), 6);
        assert_eq!(b.node_count(), 7);
        // Every node is a member of the spanning DIF.
        for &n in &fab.nodes {
            let _ = b.ipcp_of(fab.dif, n);
        }
    }

    #[test]
    fn star_hub_is_centre() {
        let mut b = NetBuilder::new(2);
        let fab = Topology::star(5).materialize(&mut b);
        assert_eq!(fab.hub(), fab.node(0));
        assert_eq!(fab.degrees(), vec![4, 1, 1, 1, 1]);
        // Leaves first, ties by vertex number; never everybody, never
        // nobody.
        assert_eq!(fab.lowest_degree(2), vec![fab.node(1), fab.node(2)]);
        assert_eq!(fab.lowest_degree(9), vec![fab.node(1), fab.node(2), fab.node(3), fab.node(4)]);
        assert_eq!(fab.lowest_degree(0), vec![fab.node(1)]);
    }

    #[test]
    fn two_fabrics_coexist_in_one_builder() {
        let mut b = NetBuilder::new(3);
        let f1 = Topology::line(3).with_prefix("a").materialize(&mut b);
        let f2 = Topology::ring(3).with_prefix("b").materialize(&mut b);
        assert_eq!(b.node_count(), 6);
        assert_ne!(f1.dif, f2.dif);
        assert_ne!(f1.node(0), f2.node(0));
    }

    #[test]
    fn layered_builds_regions_backbone_and_internet() {
        let mut b = NetBuilder::new(4);
        let lay = Topology::ring(3).with_prefix("L").layered(4);
        assert_eq!(lay.node_count(), 3 + 12);
        let fab = lay.materialize(&mut b);
        assert_eq!(b.node_count(), 15);
        assert_eq!(fab.routers().len(), 3);
        assert_eq!(fab.region_difs.len(), 3);
        assert_ne!(fab.backbone.dif, fab.inet);
        // Every router is a member of three DIFs; every host of two.
        for (r, &router) in fab.routers().iter().enumerate() {
            let _ = b.ipcp_of(fab.region_difs[r], router);
            let _ = b.ipcp_of(fab.backbone.dif, router);
            let _ = b.ipcp_of(fab.inet, router);
        }
        for (r, row) in fab.hosts.iter().enumerate() {
            for &h in row {
                let _ = b.ipcp_of(fab.region_difs[r], h);
                let _ = b.ipcp_of(fab.inet, h);
            }
        }
        // 3 per region-DIF member + 3 backbone + 15 internet.
        assert_eq!(fab.member_ipcps(&b).len(), 15 + 3 + 15);
    }

    #[test]
    fn layered_flat_same_wires_one_dif() {
        let mut b = NetBuilder::new(5);
        let fab = Topology::ring(3).with_prefix("F").layered(2).materialize_flat(&mut b);
        assert_eq!(fab.len(), 9);
        // ring edges + one access link per host
        assert_eq!(fab.links.len(), 3 + 6);
        for &n in &fab.nodes {
            let _ = b.ipcp_of(fab.dif, n);
        }
    }

    #[test]
    fn ping_stride_covers_every_node_exactly_once() {
        for (n, stride) in [(5usize, 1usize), (6, 2), (6, 3), (7, 10), (12, 5)] {
            let mut b = NetBuilder::new(6);
            let fab = Topology::ring(n.max(3)).materialize(&mut b);
            let mesh = Workload::ping_stride(&mut b, fab.dif, &fab.nodes, stride, 1, 16);
            assert_eq!(mesh.pings.len(), n, "one ping per node");
            let mut hit = vec![0usize; n];
            for &(from, to, _) in &mesh.pings {
                assert_ne!(from, to, "stride must never self-ping");
                hit[fab.nodes.iter().position(|&x| x == to).unwrap()] += 1;
            }
            assert!(hit.iter().all(|&h| h == 1), "n={n} stride={stride}: {hit:?}");
        }
    }

    #[test]
    #[should_panic]
    fn ping_stride_rejects_self_ping_stride() {
        let mut b = NetBuilder::new(6);
        let fab = Topology::ring(4).materialize(&mut b);
        let _ = Workload::ping_stride(&mut b, fab.dif, &fab.nodes, 8, 1, 16);
    }

    #[test]
    fn ping_sampled_covers_every_node_and_dedupes_extras() {
        for seed in 0..8u64 {
            let mut b = NetBuilder::new(seed);
            let fab = Topology::ring(9).materialize(&mut b);
            let mesh = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 6, seed, 1, 16);
            let (mut src, mut dst) = (vec![0usize; 9], vec![0usize; 9]);
            let mut seen = std::collections::BTreeSet::new();
            for &(from, to, _) in &mesh.pings {
                assert_ne!(from, to);
                assert!(seen.insert((from.0, to.0)), "duplicate pair {from:?}->{to:?}");
                src[fab.nodes.iter().position(|&x| x == from).unwrap()] += 1;
                dst[fab.nodes.iter().position(|&x| x == to).unwrap()] += 1;
            }
            // The permutation ring guarantees coverage; extras only add.
            assert!(src.iter().all(|&s| s >= 1), "seed {seed}: source coverage {src:?}");
            assert!(dst.iter().all(|&d| d >= 1), "seed {seed}: target coverage {dst:?}");
            assert!(mesh.pings.len() >= 9, "ring base present");
        }
    }

    #[test]
    fn ping_sampled_delivers_exact_extras_even_when_dense() {
        let mut b = NetBuilder::new(9);
        let fab = Topology::ring(5).materialize(&mut b);
        // 5·4 − 5 = 15 pairs remain beside the ring; ask for all of them.
        let mesh = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 15, 3, 1, 16);
        assert_eq!(mesh.pings.len(), 5 + 15, "dense extras are exact, not best-effort");
        let mut seen = std::collections::BTreeSet::new();
        assert!(mesh.pings.iter().all(|&(f, t, _)| f != t && seen.insert((f.0, t.0))));
    }

    #[test]
    #[should_panic]
    fn ping_sampled_rejects_unsatisfiable_extras() {
        let mut b = NetBuilder::new(9);
        let fab = Topology::ring(5).materialize(&mut b);
        let _ = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 16, 3, 1, 16);
    }

    #[test]
    fn flow_churn_places_drivers_on_non_sink_nodes() {
        let mut b = NetBuilder::new(7);
        let fab = Topology::star(5).materialize(&mut b);
        let cfg = FlowChurnCfg::new(11).with_drivers_per_node(3);
        let churn = Workload::flow_churn(&mut b, fab.dif, &fab.all(), &[fab.node(0)], &cfg);
        assert_eq!(churn.sinks.len(), 1);
        assert_eq!(churn.drivers.len(), 4 * 3, "every non-sink node gets drivers_per_node");
    }

    #[test]
    fn flow_churn_classes_and_destinations_deterministic_in_seed() {
        let place = |seed| {
            let mut b = NetBuilder::new(1);
            let fab = Topology::ring(6).materialize(&mut b);
            let cfg = FlowChurnCfg::new(seed).with_drivers_per_node(2);
            let churn = Workload::flow_churn(
                &mut b,
                fab.dif,
                &fab.all(),
                &[fab.node(0), fab.node(3)],
                &cfg,
            );
            let net = b.build();
            churn
                .drivers
                .iter()
                .map(|&d| (net.app(d).class, net.app(d).dst.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(place(5), place(5));
        assert_ne!(place(5), place(6));
    }

    #[test]
    fn flow_churn_cycles_flows_end_to_end() {
        let mut b = NetBuilder::new(42);
        let fab = Topology::line(3).materialize(&mut b);
        let cfg = FlowChurnCfg::new(9)
            .with_drivers_per_node(2)
            .with_pacing(
                (Dur::from_millis(300), Dur::from_millis(600)),
                (Dur::from_millis(50), Dur::from_millis(150)),
            )
            .with_traffic(32, Dur::from_millis(20));
        let churn = Workload::flow_churn(&mut b, fab.dif, &fab.all(), &[fab.node(2)], &cfg);
        let mut net = b.build();
        net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(200));
        net.run_for(Dur::from_secs(5));
        let drivers = churn.drivers.len() as u64;
        assert!(churn.allocs(&net) > drivers, "every driver reopened at least once");
        assert!(churn.closes(&net) > 0, "flows were deliberately closed");
        assert!(churn.received(&net) > 0, "data flowed");
        let by_class = churn.received_by_class(&net);
        assert_eq!(by_class.iter().sum::<u64>(), churn.received(&net));
        assert!(churn.alloc_latency(&net).count() as u64 == churn.allocs(&net));
    }

    #[test]
    fn ping_sampled_deterministic_in_seed() {
        let pairs_of = |seed| {
            let mut b = NetBuilder::new(1);
            let fab = Topology::ring(7).materialize(&mut b);
            let mesh = Workload::ping_sampled(&mut b, fab.dif, &fab.nodes, 4, seed, 1, 16);
            mesh.pings.iter().map(|&(f, t, _)| (f.0, t.0)).collect::<Vec<_>>()
        };
        assert_eq!(pairs_of(11), pairs_of(11));
        assert_ne!(pairs_of(11), pairs_of(12));
    }
}
