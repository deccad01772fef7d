//! Declarative network construction.
//!
//! [`NetBuilder`] assembles a whole simulated internetwork: machines,
//! physical links (each automatically wrapped in a shim DIF "tailored to
//! the medium"), DIFs of any rank stacked over links or over other DIFs,
//! and application processes. `build()` computes an enrollment spanning
//! tree per DIF from its declared adjacencies; at simulation start the
//! stack then assembles itself bottom-up, exactly as §5 describes (create,
//! enroll, operate).
//!
//! Every constructor returns a **typed handle** — [`NodeH`], [`LinkH`],
//! [`DifH`], [`IpcpH`], [`AppH`] — and every consumer demands the right
//! one, so wiring mistakes ("passed a link where a DIF belongs") are
//! compile errors rather than runtime index confusion:
//!
//! ```compile_fail
//! use rina::prelude::*;
//! let mut b = NetBuilder::new(0);
//! let h1 = b.node("h1");
//! let h2 = b.node("h2");
//! let wire = b.link(h1, h2, LinkCfg::wired());
//! b.join(wire, h1); // compile error: a LinkH is not a DifH
//! ```
//!
//! [`AppH`] additionally carries the application's concrete type, so
//! [`Net::app`] downcasts are checked statically:
//!
//! ```compile_fail
//! use rina::prelude::*;
//! let mut b = NetBuilder::new(0);
//! let h1 = b.node("h1");
//! let h2 = b.node("h2");
//! let wire = b.link(h1, h2, LinkCfg::wired());
//! let d = b.dif(DifConfig::new("net"));
//! b.join(d, h1);
//! b.join(d, h2);
//! b.adjacency_over_link(d, h1, h2, wire);
//! let ping = b.app(h1, AppName::new("ping"),
//!                  d, PingApp::new(AppName::new("echo"), QosSpec::reliable(), 1, 8));
//! let net = b.build();
//! let _: &EchoApp = net.app(ping); // compile error: AppH<PingApp> yields &PingApp
//! ```

use crate::app::AppProcess;
use crate::dif::{AuthPolicy, DifConfig};
use crate::ipcp::Ipcp;
use crate::naming::{Addr, AppName};
use crate::node::Node;
use crate::qos::QosSpec;
use rina_sim::{Dur, LinkCfg, LinkId, NodeId, Sim, Time};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;

/// When each member's enrollment plan first fires, relative to
/// simulation start. Both modes converge to the same membership,
/// addresses, and blocks (plans retry until they hold; the planner
/// pre-assigns addresses) — the schedule only shapes *when* admission
/// load hits each sponsor, and therefore the assembly makespan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnrollSchedule {
    /// Concurrent waves by spanning-tree depth: a member at depth `d`
    /// first fires at `(d - 1) × interval`, so each wave meets sponsors
    /// that the previous wave just enrolled. Makespan tracks tree depth,
    /// not member count.
    Waves {
        /// Delay between consecutive waves.
        interval: Dur,
    },
    /// One member at a time in spanning-tree (BFS) order — the
    /// sequential baseline: makespan grows linearly in members.
    Sequential {
        /// Delay between consecutive members.
        interval: Dur,
    },
}

impl EnrollSchedule {
    /// Depth-staggered waves at the default interval.
    pub fn waves() -> Self {
        EnrollSchedule::Waves { interval: Dur::from_millis(100) }
    }

    /// The sequential baseline at the default interval.
    pub fn sequential() -> Self {
        EnrollSchedule::Sequential { interval: Dur::from_millis(150) }
    }

    /// When the member at spanning-tree `depth` (≥ 1), discovered at BFS
    /// `rank` (1-based over non-bootstrap members), first fires.
    fn start_after(&self, depth: u64, rank: u64) -> Dur {
        match *self {
            EnrollSchedule::Waves { interval } => interval * depth.saturating_sub(1),
            EnrollSchedule::Sequential { interval } => interval * rank.saturating_sub(1),
        }
    }
}

impl Default for EnrollSchedule {
    fn default() -> Self {
        EnrollSchedule::waves()
    }
}

/// Handle to a machine added with [`NetBuilder::node`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeH(pub(crate) usize);

/// Handle to a physical link added with [`NetBuilder::link`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkH(pub(crate) usize);

/// Handle to a DIF declared with [`NetBuilder::dif`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DifH(pub(crate) usize);

/// Handle to one DIF member's IPC process on one machine, from
/// [`NetBuilder::ipcp_of`]. Resolve it with [`Net::ipcp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IpcpH {
    pub(crate) node: NodeH,
    pub(crate) idx: usize,
}

impl IpcpH {
    /// The machine this IPC process runs on.
    pub fn node(&self) -> NodeH {
        self.node
    }
}

/// Handle to an application process hosted with [`NetBuilder::app`],
/// carrying the app's concrete type: [`Net::app`] returns `&A` with no
/// runtime-checked downcast at the call site.
pub struct AppH<A> {
    pub(crate) node: NodeH,
    pub(crate) idx: usize,
    _ty: PhantomData<fn() -> A>,
}

// Derived impls would bound `A`; handles are plain ids, so hand-roll them.
impl<A> Clone for AppH<A> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<A> Copy for AppH<A> {}
impl<A> std::fmt::Debug for AppH<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AppH<{}>({:?}, {})", std::any::type_name::<A>(), self.node, self.idx)
    }
}
impl<A> PartialEq for AppH<A> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node && self.idx == other.idx
    }
}
impl<A> Eq for AppH<A> {}

impl<A> AppH<A> {
    /// The machine hosting this application.
    pub fn node(&self) -> NodeH {
        self.node
    }
}

/// How a DIF adjacency is carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// Over the shim of a physical link (as returned by
    /// [`NetBuilder::link`]).
    Link(LinkH),
    /// Over a flow allocated from another (lower-rank) DIF.
    Dif(DifH),
}

struct AdjPlan {
    dif: usize,
    a: usize,
    b: usize,
    via: Via,
    spec: QosSpec,
}

struct DifPlan {
    cfg: DifConfig,
    /// Node index → ipcp index on that node, in join order (first =
    /// bootstrap member).
    members: Vec<(usize, usize)>,
    /// Per-node credential override (node index → credential a joiner
    /// presents instead of the DIF's real secret — impostor testing).
    credential_overrides: BTreeMap<usize, String>,
}

/// Builder for a complete simulated network. See the crate examples.
pub struct NetBuilder {
    sim: Sim,
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
    shim_of: BTreeMap<(usize, usize), usize>,
    difs: Vec<DifPlan>,
    adjacencies: Vec<AdjPlan>,
    shim_sched: crate::dif::SchedPolicy,
    shim_queue_cap: Option<usize>,
    enroll_schedule: EnrollSchedule,
}

impl NetBuilder {
    /// Start building with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        NetBuilder {
            sim: Sim::new(seed),
            nodes: Vec::new(),
            links: Vec::new(),
            shim_of: BTreeMap::new(),
            difs: Vec::new(),
            adjacencies: Vec::new(),
            shim_sched: crate::dif::SchedPolicy::Priority,
            shim_queue_cap: None,
            enroll_schedule: EnrollSchedule::default(),
        }
    }

    /// Choose how enrollment plans are scheduled (default:
    /// [`EnrollSchedule::waves`]). [`EnrollSchedule::sequential`] is the
    /// linear baseline experiments compare against.
    pub fn set_enroll_schedule(&mut self, s: EnrollSchedule) {
        self.enroll_schedule = s;
    }

    /// Set the transmit-scheduling policy shims created by subsequent
    /// [`NetBuilder::link`] calls apply at their media (the bottleneck
    /// queues). `Fifo` models the best-effort baseline.
    pub fn set_shim_sched(&mut self, s: crate::dif::SchedPolicy) {
        self.shim_sched = s;
    }

    /// Bound the transmit queues of shims created by subsequent
    /// [`NetBuilder::link`] calls to `bytes` (default: the
    /// [`DifConfig`] queue capacity). Small caps make congestion shed
    /// load by tail-drop instead of building seconds of standing queue.
    pub fn set_shim_queue_cap(&mut self, bytes: usize) {
        self.shim_queue_cap = Some(bytes);
    }

    /// Add a machine.
    pub fn node(&mut self, name: &str) -> NodeH {
        let id = self.sim.add_node(Node::new(name));
        self.nodes.push(id);
        NodeH(self.nodes.len() - 1)
    }

    /// Connect two machines with a physical link; both ends get shim IPC
    /// processes. The returned handle feeds [`Via::Link`] and
    /// [`Net::set_link_up`].
    pub fn link(&mut self, a: NodeH, b: NodeH, cfg: LinkCfg) -> LinkH {
        let (lid, ia, ib) = self.sim.connect(self.nodes[a.0], self.nodes[b.0], cfg);
        let lidx = self.links.len();
        self.links.push(lid);
        let mut shim_cfg = DifConfig::new(&format!("shim{lidx}"))
            .with_cubes(crate::qos::QosCube::shim_set())
            .with_sched(self.shim_sched);
        if let Some(cap) = self.shim_queue_cap {
            shim_cfg = shim_cfg.with_rmt_queue_cap_bytes(cap);
        }
        let na = {
            let node = self.node_mut(a.0);
            let name_a = AppName::new(&format!("shim{lidx}.a"));
            node.add_shim(shim_cfg.clone(), name_a, ia, 0)
        };
        let nb = {
            let node = self.node_mut(b.0);
            let name_b = AppName::new(&format!("shim{lidx}.b"));
            node.add_shim(shim_cfg, name_b, ib, 1)
        };
        self.shim_of.insert((lidx, a.0), na);
        self.shim_of.insert((lidx, b.0), nb);
        LinkH(lidx)
    }

    /// Declare a DIF.
    pub fn dif(&mut self, cfg: DifConfig) -> DifH {
        self.difs.push(DifPlan { cfg, members: Vec::new(), credential_overrides: BTreeMap::new() });
        DifH(self.difs.len() - 1)
    }

    /// Make `node` present `credential` when enrolling in `dif`, instead
    /// of the DIF's configured secret. For testing membership control: an
    /// impostor presenting the wrong credential never becomes a member.
    pub fn join_credential(&mut self, dif: DifH, node: NodeH, credential: &str) {
        self.difs[dif.0].credential_overrides.insert(node.0, credential.to_string());
    }

    /// Make `node` a member of `dif`. The first member is the DIF's
    /// bootstrap (address 1); all others enroll at runtime (§5.2).
    pub fn join(&mut self, dif: DifH, node: NodeH) {
        let cfg = self.difs[dif.0].cfg.clone();
        let node_name = self.node_name(node.0);
        let ipcp_name = AppName::new(&format!("{}.{}", cfg.name.0, node_name));
        let idx = self.node_mut(node.0).add_ipcp(cfg, ipcp_name);
        let first = self.difs[dif.0].members.is_empty();
        if first {
            self.node_mut(node.0).ipcp_mut(idx).bootstrap(1);
        }
        self.difs[dif.0].members.push((node.0, idx));
    }

    /// Declare that members `a` and `b` of `dif` are adjacent, carried
    /// `via` a link shim or a lower DIF, with flow properties `spec`.
    pub fn adjacency(&mut self, dif: DifH, a: NodeH, b: NodeH, via: Via, spec: QosSpec) {
        self.adjacencies.push(AdjPlan { dif: dif.0, a: a.0, b: b.0, via, spec });
    }

    /// Shorthand: adjacency carried over a link shim with datagram
    /// properties (relays do not retransmit; end DIFs keep responsibility).
    pub fn adjacency_over_link(&mut self, dif: DifH, a: NodeH, b: NodeH, link: LinkH) {
        self.adjacency(dif, a, b, Via::Link(link), QosSpec::datagram());
    }

    /// Shorthand: adjacency carried over a flow from the lower DIF
    /// `lower`, with flow properties `spec`.
    pub fn adjacency_over_dif(
        &mut self,
        dif: DifH,
        a: NodeH,
        b: NodeH,
        lower: DifH,
        spec: QosSpec,
    ) {
        self.adjacency(dif, a, b, Via::Dif(lower), spec);
    }

    /// Host an application on `node`, registered in `dif`'s directory.
    /// The returned handle remembers `A`, so [`Net::app`] needs no
    /// turbofish and cannot be downcast to the wrong type.
    pub fn app<A: AppProcess>(
        &mut self,
        node: NodeH,
        name: AppName,
        dif: DifH,
        behavior: A,
    ) -> AppH<A> {
        let ipcp = self.ipcp_of(dif, node);
        let n = self.node_mut(node.0);
        let idx = n.add_app(name.clone(), behavior);
        n.ipcp_mut(ipcp.idx).dir_register(&name);
        AppH { node, idx, _ty: PhantomData }
    }

    /// The IPC process `dif`'s member on `node` runs.
    ///
    /// # Panics
    /// If `node` is not a member of `dif`.
    pub fn ipcp_of(&self, dif: DifH, node: NodeH) -> IpcpH {
        let idx = self.difs[dif.0]
            .members
            .iter()
            .find(|&&(n, _)| n == node.0)
            .map(|&(_, i)| i)
            .unwrap_or_else(|| {
                panic!("node {:?} is not a member of dif {}", node, self.difs[dif.0].cfg.name)
            });
        IpcpH { node, idx }
    }

    /// Number of machines added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        let id = self.nodes[idx];
        self.sim.agent_mut::<Node>(id)
    }

    fn node_name(&mut self, idx: usize) -> String {
        let id = self.nodes[idx];
        self.sim.agent_mut::<Node>(id).name.clone()
    }

    /// Resolve the provider ipcp index on `node` for an adjacency.
    fn provider_on(&self, via: Via, node: usize) -> usize {
        match via {
            Via::Link(l) => *self
                .shim_of
                .get(&(l.0, node))
                .unwrap_or_else(|| panic!("link {} has no end at node {node}", l.0)),
            Via::Dif(d) => self.ipcp_of(d, NodeH(node)).idx,
        }
    }

    /// Finalize: compute per-DIF enrollment spanning trees and hand each
    /// member the (N-1) adjacencies it plans. Returns the runnable [`Net`].
    pub fn build(mut self) -> Net {
        // Group adjacencies per dif.
        for dif in 0..self.difs.len() {
            let members: Vec<usize> = self.difs[dif].members.iter().map(|&(n, _)| n).collect();
            if members.len() <= 1 {
                continue;
            }
            let adjs: Vec<(usize, usize, Via, QosSpec)> = self
                .adjacencies
                .iter()
                .filter(|a| a.dif == dif)
                .map(|a| (a.a, a.b, a.via, a.spec))
                .collect();
            // BFS from the bootstrap member over declared adjacencies.
            // Spanning-tree depth and BFS rank drive the wave schedule
            // (rank `usize::MAX`: not in this DIF).
            let boot = members[0];
            let n = self.nodes.len();
            let (mut depth, mut rank) = (vec![0u64; n], vec![usize::MAX; n]);
            rank[boot] = 0;
            // BTreeMap: enrollment paths are planned by iterating this
            // map, so its order must not depend on hasher state.
            let mut parent: BTreeMap<usize, (usize, Via, QosSpec)> = BTreeMap::new();
            let mut seen = vec![boot];
            let mut q = VecDeque::from([boot]);
            while let Some(u) = q.pop_front() {
                for &(a, b, via, spec) in &adjs {
                    let v = if a == u {
                        b
                    } else if b == u {
                        a
                    } else {
                        continue;
                    };
                    if !seen.contains(&v) {
                        (depth[v], rank[v]) = (depth[u] + 1, seen.len());
                        seen.push(v);
                        parent.insert(v, (u, via, spec));
                        q.push_back(v);
                    }
                }
            }
            for &m in &members {
                assert!(
                    m == boot || parent.contains_key(&m),
                    "dif {}: member node {m} has no adjacency path to the bootstrap",
                    self.difs[dif].cfg.name
                );
            }
            let credential = match &self.difs[dif].cfg.auth {
                AuthPolicy::Open => String::new(),
                AuthPolicy::Secret(s) => s.clone(),
            };
            // Enrollment paths: child allocates the flow toward its parent
            // and enrolls through it.
            let overrides = self.difs[dif].credential_overrides.clone();
            // Member addresses are pre-assigned from per-subtree prefix
            // blocks: a DFS preorder over the spanning tree gives every
            // subtree a contiguous address range (the member itself takes
            // the range's first address). Joiners propose address + block
            // at enrollment, so concurrent sponsors cannot collide and
            // remote subtrees aggregate into single forwarding ranges.
            let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &v in &seen {
                if let Some(&(p, _, _)) = parent.get(&v) {
                    children.entry(p).or_default().push(v);
                }
            }
            // Subtree sizes, then each member's block: a member takes the
            // first address of its range (entries of non-members unused).
            let mut subtree = vec![1u64; n];
            for &v in seen.iter().rev() {
                if let Some(&(p, _, _)) = parent.get(&v) {
                    subtree[p] += subtree[v];
                }
            }
            let mut block_of = vec![(0u64, 0u64); n];
            block_of[boot] = (1, subtree[boot]);
            let mut stack = vec![boot];
            while let Some(v) = stack.pop() {
                let mut cursor = block_of[v].0 + 1;
                for &c in children.get(&v).into_iter().flatten() {
                    block_of[c] = (cursor, cursor + subtree[c] - 1);
                    cursor += subtree[c];
                    stack.push(c);
                }
            }
            // The bootstrap sponsors from the whole DIF range.
            let boot_ipcp = self.ipcp_of(DifH(dif), NodeH(boot)).idx;
            self.node_mut(boot).ipcp_mut(boot_ipcp).set_block(block_of[boot].1);
            let schedule = self.enroll_schedule;
            for (&child, &(par, via, spec)) in &parent {
                let credential = overrides.get(&child).unwrap_or(&credential).clone();
                let (addr, hi) = block_of[child];
                let enroll = (credential, addr, hi);
                let start_after = schedule.start_after(depth[child], rank[child] as u64);
                self.hand_over(dif, (child, par), (via, spec), start_after, Some(enroll));
            }
            // Non-tree adjacencies: plain flows from the BFS-later side.
            let tree_edge = |x, y| parent.get(&x).is_some_and(|&(p, _, _)| p == y);
            for &(a, b, via, spec) in &adjs {
                if !tree_edge(a, b) && !tree_edge(b, a) {
                    let ends = if rank[a] > rank[b] { (a, b) } else { (b, a) };
                    self.hand_over(dif, ends, (via, spec), Dur::ZERO, None);
                }
            }
        }
        Net { sim: self.sim, nodes: self.nodes, links: self.links }
    }

    /// Hand `dif`'s member on node `src` the adjacency it plans toward
    /// the member on `dst`, carried `via` with properties `spec`.
    fn hand_over(
        &mut self,
        dif: usize,
        (src, dst): (usize, usize),
        (via, spec): (Via, QosSpec),
        start_after: Dur,
        enroll: Option<(String, Addr, Addr)>,
    ) {
        let upper = self.ipcp_of(DifH(dif), NodeH(src)).idx;
        let provider = self.provider_on(via, src);
        let peer = self.ipcp_name(dif, dst);
        self.register_upper_names(dif, via, dst, src);
        let member = self.node_mut(src).ipcp_mut(upper);
        member.plan_adjacency(peer, spec, provider, start_after, enroll);
    }

    /// An adjacency of `dif` from `src` to `dst` carried over a lower DIF:
    /// register both upper IPC processes' names in its directory, `dst`
    /// first, so flows to them can be allocated.
    fn register_upper_names(&mut self, dif: usize, via: Via, dst: usize, src: usize) {
        let Via::Dif(lower) = via else { return };
        for node in [dst, src] {
            let name = self.ipcp_name(dif, node);
            let provider = self.ipcp_of(lower, NodeH(node)).idx;
            self.node_mut(node).ipcp_mut(provider).dir_register(&name);
        }
    }

    fn ipcp_name(&mut self, dif: usize, node: usize) -> AppName {
        let dif_name = self.difs[dif].cfg.name.0.clone();
        let node_name = self.node_name(node);
        AppName::new(&format!("{dif_name}.{node_name}"))
    }
}

/// A built, runnable network.
pub struct Net {
    /// The underlying simulator.
    pub sim: Sim,
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

// A built network (and its builder) is one self-contained simulation:
// nothing in it is shared with any other Net, so independent runs can be
// sharded across OS threads. Enforced at compile time — regressions here
// (an Rc, a RefCell, a non-Send app) break sweep parallelism.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Net>();
    assert_send::<NetBuilder>();
};

impl Net {
    /// Immutable access to a machine.
    pub fn node(&self, h: NodeH) -> &Node {
        self.sim.agent::<Node>(self.nodes[h.0])
    }

    /// Mutable access to a machine.
    pub fn node_mut(&mut self, h: NodeH) -> &mut Node {
        self.sim.agent_mut::<Node>(self.nodes[h.0])
    }

    /// The application behind `h`, statically typed.
    ///
    /// # Panics
    /// If the app is mid-callback (never the case between
    /// [`Net::run_for`] calls).
    pub fn app<A: AppProcess>(&self, h: AppH<A>) -> &A {
        self.node(h.node).app::<A>(h.idx)
    }

    /// Mutable access to the application behind `h`.
    pub fn app_mut<A: AppProcess>(&mut self, h: AppH<A>) -> &mut A {
        self.node_mut(h.node).app_mut::<A>(h.idx)
    }

    /// The IPC process behind `h`.
    pub fn ipcp(&self, h: IpcpH) -> &Ipcp {
        self.node(h.node).ipcp(h.idx)
    }

    /// Mutable access to the IPC process behind `h` (tests/benches only).
    pub fn ipcp_mut(&mut self, h: IpcpH) -> &mut Ipcp {
        self.node_mut(h.node).ipcp_mut(h.idx)
    }

    /// Schedule a graceful departure: at the next event, the member
    /// behind `h` tombstones every RIB object it owns and floods the
    /// deletions (§5.2 in reverse). Keep its links up for at least one
    /// hello period afterwards so neighbors drain the floods.
    pub fn announce_leave(&mut self, h: IpcpH) {
        let id = self.nodes[h.node.0];
        self.sim.call(id, crate::node::leave_key(h.idx), Dur::ZERO);
    }

    /// Schedule a crash-restart of the member behind `h`: the process is
    /// replaced by a fresh unenrolled instance that re-enrolls through
    /// its planned adjacencies. Nothing is announced — neighbors detect
    /// the silence and the sponsor's failure GC reclaims the RIB state.
    pub fn respawn_ipcp(&mut self, h: IpcpH) {
        let id = self.nodes[h.node.0];
        self.sim.call(id, crate::node::respawn_key(h.idx), Dur::ZERO);
    }

    /// The sim-level id of a machine (for [`rina_sim::Sim::call`]).
    pub fn node_id(&self, h: NodeH) -> NodeId {
        self.nodes[h.0]
    }

    /// The sim-level id of a link (for failure injection).
    pub fn link_id(&self, h: LinkH) -> LinkId {
        self.links[h.0]
    }

    /// Bring a physical link down or up mid-run. A change reaches the
    /// shims at both ends at this instant ([`rina_sim::Agent::medium`]),
    /// and the layers above learn of it from them.
    pub fn set_link_up(&mut self, h: LinkH, up: bool) {
        self.sim.set_link_up(self.links[h.0], up);
    }

    /// Run until every node's stack has assembled (all plans satisfied,
    /// all members enrolled), plus `settle` extra time for directory and
    /// routing dissemination. Returns the time assembly held (*before*
    /// settling). Panics after `limit` of virtual time.
    pub fn run_until_assembled(&mut self, limit: Dur, settle: Dur) -> Time {
        self.run_until_assembled_labeled("network", limit, settle)
    }

    /// [`Net::run_until_assembled`] with `label` naming the scenario in
    /// the timeout panic — experiment harnesses pass their scenario name.
    pub fn run_until_assembled_labeled(&mut self, label: &str, limit: Dur, settle: Dur) -> Time {
        let deadline = self.sim.now() + limit;
        loop {
            let t = self.sim.now() + Dur::from_millis(50);
            self.sim.run_until(t);
            if self.assembled() {
                break;
            }
            assert!(self.sim.now() < deadline, "{label}: failed to assemble within {limit}");
        }
        let at = self.sim.now();
        let t = at + settle;
        self.sim.run_until(t);
        at
    }

    /// Whether every machine's stack has assembled.
    pub fn assembled(&self) -> bool {
        self.nodes.iter().all(|&id| self.sim.agent::<Node>(id).assembled())
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) -> Time {
        self.sim.run_for(d)
    }

    /// Number of machines.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod handle_invariants {
    //! Static guarantees of the handle types, asserted at compile time.
    use super::*;
    use crate::apps::PingApp;

    fn assert_copy_debug<T: Copy + std::fmt::Debug + Send + 'static>() {}

    #[test]
    fn handles_are_copy_debug_send() {
        assert_copy_debug::<NodeH>();
        assert_copy_debug::<LinkH>();
        assert_copy_debug::<DifH>();
        assert_copy_debug::<IpcpH>();
        assert_copy_debug::<AppH<PingApp>>();
        assert_copy_debug::<Via>();
    }

    #[test]
    fn handle_debug_is_informative() {
        let h = AppH::<PingApp> { node: NodeH(3), idx: 1, _ty: PhantomData };
        let s = format!("{h:?}");
        assert!(s.contains("PingApp") && s.contains("NodeH(3)"), "{s}");
    }

    #[test]
    fn distinct_types_never_unify() {
        // The real guarantee is the two `compile_fail` doctests in the
        // module docs; this records the positive side — same-type handles
        // still compare.
        assert_eq!(NodeH(1), NodeH(1));
        assert_ne!(DifH(0), DifH(2));
    }
}
