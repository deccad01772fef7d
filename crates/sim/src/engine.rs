//! The discrete-event engine.
//!
//! A [`Sim`] owns a set of nodes (each driven by a user-supplied [`Agent`])
//! and the [links](crate::link::LinkCfg) between them. Execution is fully
//! deterministic: events are ordered by `(virtual time, insertion sequence)`
//! and all randomness flows through one seeded RNG.
//!
//! Agents are event-driven state machines in the style of smoltcp: the
//! engine calls [`Agent::handle`] with an [`Event`] and the agent reacts by
//! mutating its own state and issuing effects through the [`Ctx`] (send a
//! frame, arm a timer). A link that goes down or comes back is an event
//! too, delivered to both ends through [`Agent::medium`].

// R1 (DESIGN.md §9): this is a per-PDU protocol path, so a panic site
// is a clippy error; each proven-safe exception is an `#[expect]` with
// its reason on the function that needs it.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use crate::link::{DirState, Link, LinkCfg, LinkId, LinkStats};
use crate::time::{Dur, Time};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a node within a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifier of an interface, local to a node. Interfaces are numbered in
/// the order the node was connected to links, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IfaceId(pub u32);

/// An event delivered to an [`Agent`].
#[derive(Debug)]
pub enum Event {
    /// Delivered exactly once per node, when the simulation first runs.
    Start,
    /// A frame arrived on one of the node's interfaces.
    Frame {
        /// The receiving interface.
        iface: IfaceId,
        /// Frame payload.
        data: Bytes,
    },
    /// A timer armed with [`Ctx::timer_in`]/[`Ctx::timer_at`] fired, or an
    /// external [`Sim::call`] was injected.
    Timer {
        /// The caller-chosen key identifying the timer.
        key: u64,
    },
}

/// Error returned by [`Ctx::send`] when a frame cannot be queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The interface id does not exist on this node.
    NoSuchIface,
    /// The frame exceeds the link MTU.
    TooBig,
    /// The link is administratively or physically down.
    LinkDown,
    /// The transmit queue is full (tail drop).
    QueueFull,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SendError::NoSuchIface => "no such interface",
            SendError::TooBig => "frame exceeds MTU",
            SendError::LinkDown => "link down",
            SendError::QueueFull => "transmit queue full",
        };
        f.write_str(s)
    }
}
impl std::error::Error for SendError {}

/// A node behaviour. Implementations are plain state machines; all side
/// effects go through the [`Ctx`].
///
/// Agents must be [`Send`]: a [`Sim`] owns its agents outright and holds
/// no shared mutable state (all randomness flows through the per-`Sim`
/// seeded RNG), so whole simulations can be sharded across OS threads —
/// the sweep harness in `rina-bench` runs one independent `Sim` per
/// worker. The bound is what keeps thread-hostile state (`Rc`,
/// `RefCell`, raw pointers) out of agent implementations. [`Any`] lets
/// [`Sim::agent`] hand one back as its concrete type.
pub trait Agent: Any + Send {
    /// React to one event at virtual time `now`.
    fn handle(&mut self, now: Time, ev: Event, ctx: &mut Ctx<'_>);

    /// The medium behind `iface` went down (`up == false`) or came back
    /// at `now` ([`Sim::set_link_up`]). Both ends of the link are told,
    /// at the instant of the change. The default ignores it.
    fn medium(&mut self, now: Time, iface: IfaceId, up: bool, ctx: &mut Ctx<'_>) {
        let _ = (now, iface, up, ctx);
    }
}

/// How many events a [`Sim`] has dispatched, by kind. A frame lost in
/// flight to a link that went down is never dispatched, so it is not
/// counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// [`Event::Start`]: one per node.
    pub start: u64,
    /// [`Event::Frame`]: frames delivered.
    pub frame: u64,
    /// [`Event::Timer`]: timers fired and [`Sim::call`] injections.
    pub timer: u64,
    /// [`Agent::medium`]: link state changes, one per end.
    pub medium: u64,
}

impl EventCounts {
    /// Every event dispatched.
    pub fn total(&self) -> u64 {
        self.start + self.frame + self.timer + self.medium
    }
}

#[derive(Debug)]
enum EvKind {
    Start { node: u32 },
    Deliver { node: u32, iface: u32, data: Bytes },
    Timer { node: u32, key: u64 },
    Medium { node: u32, iface: u32, up: bool },
}

struct Entry {
    time: Time,
    seq: u64,
    kind: EvKind,
}
impl PartialEq for Entry {
    fn eq(&self, o: &Self) -> bool {
        self.time == o.time && self.seq == o.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Entry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(o.time, o.seq))
    }
}

/// Everything in the simulation except the agents themselves. Split out so
/// that an agent can be borrowed mutably at the same time as the world.
pub(crate) struct World {
    time: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry>>,
    links: Vec<Link>,
    /// Per node: (link index, side) for each interface.
    ifaces: Vec<Vec<(u32, u8)>>,
    rng: StdRng,
}

impl World {
    fn push(&mut self, time: Time, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, kind }));
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "link index comes from the node's own iface table (validated via .get on the iface lookup just above); links never shrink"
    )]
    fn send_from(&mut self, node: u32, iface: IfaceId, data: Bytes) -> Result<Time, SendError> {
        let &(lidx, side) = self
            .ifaces
            .get(node as usize)
            .and_then(|v| v.get(iface.0 as usize))
            .ok_or(SendError::NoSuchIface)?;
        let now = self.time;
        let link = &mut self.links[lidx as usize];
        let len = data.len();
        if len > link.cfg.mtu {
            return Err(SendError::TooBig);
        }
        if !link.up {
            return Err(SendError::LinkDown);
        }
        let bw = link.cfg.bandwidth_bps;
        let d = &mut link.dir[side as usize];
        // The backlog is the bytes the transmitter has not yet put on the
        // wire: its busy time left, at the link's rate.
        let busy_ns = d.busy_until.since(now).nanos() as u128;
        let backlog = (busy_ns * bw as u128 / 8_000_000_000) as usize;
        if backlog + len > link.cfg.queue_bytes {
            d.drops_overflow += 1;
            return Err(SendError::QueueFull);
        }
        let tx_done = d.busy_until.max(now) + Dur::serialization(len, bw);
        d.busy_until = tx_done;
        if link.cfg.loss.sample(&mut d.loss, &mut self.rng) {
            d.drops_loss += 1;
        } else {
            let (node, iface) = link.ends[1 - side as usize];
            let at = tx_done + link.cfg.delay;
            self.push(at, EvKind::Deliver { node, iface, data });
        }
        Ok(tx_done)
    }
}

/// Handle through which an [`Agent`] issues effects while handling an event.
pub struct Ctx<'a> {
    node: u32,
    world: &'a mut World,
}

impl Ctx<'_> {
    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.world.time
    }

    /// The id of the node whose agent is running.
    pub fn node_id(&self) -> NodeId {
        NodeId(self.node)
    }

    /// Whether the link behind `iface` is currently up.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic accessor taking builder-minted handles; not reachable from wire data"
    )]
    pub fn iface_up(&self, iface: IfaceId) -> bool {
        self.world.ifaces[self.node as usize]
            .get(iface.0 as usize)
            .map(|&(l, _)| self.world.links[l as usize].up)
            .unwrap_or(false)
    }

    /// Transmit a frame on `iface`. The frame is serialized at link rate,
    /// subject to queueing, loss and propagation delay, and delivered to the
    /// peer agent as [`Event::Frame`]. Returns the instant its last bit
    /// leaves the transmitter (lost or not), which lets a scheduler pace
    /// departures at the medium's rate.
    pub fn send(&mut self, iface: IfaceId, data: Bytes) -> Result<Time, SendError> {
        self.world.send_from(self.node, iface, data)
    }

    /// Arm a timer that fires as [`Event::Timer`] with `key` at absolute
    /// time `t` (clamped to now if in the past). Timers cannot be cancelled;
    /// agents should version their keys and ignore stale firings.
    pub fn timer_at(&mut self, t: Time, key: u64) {
        let t = t.max(self.world.time);
        let node = self.node;
        self.world.push(t, EvKind::Timer { node, key });
    }

    /// Arm a timer `d` from now.
    pub fn timer_in(&mut self, d: Dur, key: u64) {
        self.timer_at(self.world.time + d, key);
    }
}

struct NodeSlot {
    agent: Box<dyn Agent>,
}

/// A deterministic discrete-event network simulation.
pub struct Sim {
    nodes: Vec<NodeSlot>,
    world: World,
    events: EventCounts,
}

// A whole simulation is self-contained — agents, links, event heap, and
// RNG state all live inside it — so it can move to a worker thread.
// Enforced at compile time; breaking it breaks sweep parallelism.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim>();
};

impl Sim {
    /// Create an empty simulation with the given RNG seed. Two runs with the
    /// same seed and the same sequence of API calls produce identical
    /// results.
    pub fn new(seed: u64) -> Self {
        Sim {
            nodes: Vec::new(),
            world: World {
                time: Time::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                links: Vec::new(),
                ifaces: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
            },
            events: EventCounts::default(),
        }
    }

    /// Add a node driven by `agent`. An [`Event::Start`] is scheduled for it
    /// at the current virtual time.
    pub fn add_node(&mut self, agent: impl Agent) -> NodeId {
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeSlot { agent: Box::new(agent) });
        self.world.ifaces.push(Vec::new());
        let t = self.world.time;
        self.world.push(t, EvKind::Start { node: id });
        NodeId(id)
    }

    /// Connect two nodes with a link. Returns the link id and the new
    /// interface id on each node (`a` first).
    #[expect(
        clippy::indexing_slicing,
        reason = "topology construction API indexing builder-minted NodeIds; runs before any PDU exists"
    )]
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkCfg) -> (LinkId, IfaceId, IfaceId) {
        assert!(a != b, "self-links are not supported");
        let lid = self.world.links.len() as u32;
        let ia = self.world.ifaces[a.0 as usize].len() as u32;
        let ib = self.world.ifaces[b.0 as usize].len() as u32;
        self.world.links.push(Link {
            cfg,
            ends: [(a.0, ia), (b.0, ib)],
            up: true,
            dir: [DirState::default(), DirState::default()],
        });
        self.world.ifaces[a.0 as usize].push((lid, 0));
        self.world.ifaces[b.0 as usize].push((lid, 1));
        (LinkId(lid), IfaceId(ia), IfaceId(ib))
    }

    /// Administratively bring a link up or down. Frames in flight when a
    /// link goes down are lost; sends on a down link fail. A change of
    /// state queues one [`Agent::medium`] event for each end at the
    /// current instant, after the events already queued for it; setting
    /// the state a link already has tells nobody.
    #[expect(
        clippy::indexing_slicing,
        reason = "LinkId handles are only minted by connect; fault-injection API, not a wire path"
    )]
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let l = &mut self.world.links[link.0 as usize];
        if l.up == up {
            return;
        }
        l.up = up;
        let t = self.world.time;
        for (node, iface) in l.ends {
            self.world.push(t, EvKind::Medium { node, iface, up });
        }
    }

    /// Aggregate delivery/drop statistics for a link (both directions).
    #[expect(
        clippy::indexing_slicing,
        reason = "LinkId handles are only minted by connect; accessor over builder state"
    )]
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        let l = &self.world.links[link.0 as usize];
        let mut s = LinkStats::default();
        for d in &l.dir {
            s.drops_overflow += d.drops_overflow;
            s.drops_loss += d.drops_loss;
            s.delivered += d.delivered;
            s.delivered_bytes += d.delivered_bytes;
        }
        s
    }

    /// Inject an [`Event::Timer`] with `key` at node `n`, `delay` from now.
    /// This is how test harnesses trigger application behaviour.
    pub fn call(&mut self, n: NodeId, key: u64, delay: Dur) {
        let t = self.world.time + delay;
        self.world.push(t, EvKind::Timer { node: n.0, key });
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.world.time
    }

    /// Immutable access to a node's agent, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node id is invalid or the type does not match.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic downcast: the caller names the concrete agent type it installed; a mismatch is a harness bug, not a runtime condition"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic typed accessor: NodeId is builder-minted, so an invalid id is a test/harness bug"
    )]
    pub fn agent<T: Agent>(&self, n: NodeId) -> &T {
        let agent: &dyn Any = &*self.nodes[n.0 as usize].agent;
        agent.downcast_ref::<T>().expect("agent type mismatch")
    }

    /// Mutable access to a node's agent, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node id is invalid or the type does not match.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic downcast: the caller names the concrete agent type it installed; a mismatch is a harness bug, not a runtime condition"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic typed accessor: NodeId is builder-minted, so an invalid id is a test/harness bug"
    )]
    pub fn agent_mut<T: Agent>(&mut self, n: NodeId) -> &mut T {
        let agent: &mut dyn Any = &mut *self.nodes[n.0 as usize].agent;
        agent.downcast_mut::<T>().expect("agent type mismatch")
    }

    /// Process a single event. Returns `false` when the queue is empty.
    #[expect(
        clippy::indexing_slicing,
        reason = "event queue entries carry node/link indices minted at topology build; the queue never holds wire-derived indices"
    )]
    pub fn step(&mut self) -> bool {
        let Some(Reverse(e)) = self.world.heap.pop() else {
            return false;
        };
        debug_assert!(e.time >= self.world.time, "time went backwards");
        self.world.time = e.time;
        match e.kind {
            EvKind::Start { node } => {
                self.events.start += 1;
                self.dispatch(node, Event::Start);
            }
            EvKind::Timer { node, key } => {
                self.events.timer += 1;
                self.dispatch(node, Event::Timer { key });
            }
            EvKind::Medium { node, iface, up } => {
                self.events.medium += 1;
                let now = self.world.time;
                let slot = &mut self.nodes[node as usize];
                let mut ctx = Ctx { node, world: &mut self.world };
                slot.agent.medium(now, IfaceId(iface), up, &mut ctx);
            }
            EvKind::Deliver { node, iface, data } => {
                // Find the link behind the destination iface to account the
                // delivery and honour link-down (in-flight loss).
                let &(lidx, side) = &self.world.ifaces[node as usize][iface as usize];
                let link = &mut self.world.links[lidx as usize];
                if !link.up {
                    // The far side transmitted, so account the loss to it.
                    link.dir[1 - side as usize].drops_loss += 1;
                    return true;
                }
                let d = &mut link.dir[1 - side as usize];
                d.delivered += 1;
                d.delivered_bytes += data.len() as u64;
                self.events.frame += 1;
                self.dispatch(node, Event::Frame { iface: IfaceId(iface), data });
            }
        }
        true
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "dispatch indexes nodes by the event's builder-minted NodeId; same invariant as step"
    )]
    fn dispatch(&mut self, node: u32, ev: Event) {
        let now = self.world.time;
        let slot = &mut self.nodes[node as usize];
        let mut ctx = Ctx { node, world: &mut self.world };
        slot.agent.handle(now, ev, &mut ctx);
    }

    /// Run until the event queue is empty or virtual time exceeds `horizon`.
    /// Returns the time of the last processed event.
    pub fn run_until(&mut self, horizon: Time) -> Time {
        while let Some(Reverse(e)) = self.world.heap.peek() {
            if e.time > horizon {
                break;
            }
            self.step();
        }
        if self.world.time < horizon {
            self.world.time = horizon;
        }
        self.world.time
    }

    /// Run for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Dur) -> Time {
        let h = self.world.time + d;
        self.run_until(h)
    }

    /// Run until no events remain (or `max` events processed, as a runaway
    /// guard). Returns the final virtual time.
    #[expect(
        clippy::panic,
        reason = "explicit liveness backstop: a sim that exceeds the event budget must abort the experiment loudly rather than report partial metrics"
    )]
    pub fn run_until_idle(&mut self, max: u64) -> Time {
        for _ in 0..max {
            if !self.step() {
                return self.world.time;
            }
        }
        panic!("simulation did not go idle within {max} events");
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.world.heap.len()
    }

    /// The events dispatched so far, by kind.
    pub fn events(&self) -> EventCounts {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;

    /// Echoes every received frame back out the same interface, counting.
    struct Echo {
        rx: u32,
    }
    impl Agent for Echo {
        fn handle(&mut self, _now: Time, ev: Event, ctx: &mut Ctx<'_>) {
            if let Event::Frame { iface, data } = ev {
                self.rx += 1;
                let _ = ctx.send(iface, data);
            }
        }
    }

    /// Sends `n` frames at start, counts replies, records last arrival time.
    struct Pinger {
        n: u32,
        rx: u32,
        last_rx: Time,
    }
    impl Agent for Pinger {
        fn handle(&mut self, now: Time, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    for _ in 0..self.n {
                        // Sends may tail-drop on tiny queues; that is the point
                        // of some tests, so ignore the error here.
                        let _ = ctx.send(IfaceId(0), Bytes::from_static(&[0u8; 100]));
                    }
                }
                Event::Frame { .. } => {
                    self.rx += 1;
                    self.last_rx = now;
                }
                Event::Timer { .. } => {}
            }
        }
    }

    fn two_node(cfg: LinkCfg, n: u32) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let a = sim.add_node(Pinger { n, rx: 0, last_rx: Time::ZERO });
        let b = sim.add_node(Echo { rx: 0 });
        sim.connect(a, b, cfg);
        (sim, a, b)
    }

    #[test]
    fn lossless_ping_pong_delivers_all() {
        let (mut sim, a, b) = two_node(LinkCfg::wired(), 10);
        sim.run_until_idle(100_000);
        assert_eq!(sim.agent::<Echo>(b).rx, 10);
        assert_eq!(sim.agent::<Pinger>(a).rx, 10);
    }

    #[test]
    fn timing_includes_serialization_and_propagation() {
        // 1 frame of 100 bytes at 1 Gbps = 800 ns tx, 1 ms prop, each way.
        let (mut sim, a, _b) = two_node(LinkCfg::wired(), 1);
        sim.run_until_idle(1000);
        let t = sim.agent::<Pinger>(a).last_rx;
        assert_eq!(t.nanos(), 2 * (800 + 1_000_000));
    }

    #[test]
    fn queueing_serializes_back_to_back_frames() {
        let (mut sim, a, _b) = two_node(LinkCfg::wired(), 5);
        sim.run_until_idle(10_000);
        // The 5th frame finishes serialization at 5*800ns and arrives at the
        // echo at +1ms. Echo replies arrive 800ns apart, so its transmitter
        // is never backlogged: one more 800ns serialization and 1ms back.
        let t = sim.agent::<Pinger>(a).last_rx;
        assert_eq!(t.nanos(), 5 * 800 + 800 + 2 * 1_000_000);
    }

    #[test]
    fn bernoulli_loss_drops_some() {
        let cfg = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.5));
        let (mut sim, a, _) = two_node(cfg, 1000);
        sim.run_until_idle(1_000_000);
        let rx = sim.agent::<Pinger>(a).rx;
        // Two traversals at 50% each => ~25% survive.
        assert!(rx > 150 && rx < 350, "rx {rx}");
    }

    #[test]
    fn tail_drop_on_small_queue() {
        let cfg = LinkCfg::wired().with_queue_bytes(250); // fits 2 frames of 100
        let mut sim = Sim::new(3);
        let a = sim.add_node(Pinger { n: 10, rx: 0, last_rx: Time::ZERO });
        let b = sim.add_node(Echo { rx: 0 });
        let (l, _, _) = sim.connect(a, b, cfg);
        sim.run_until_idle(10_000);
        let st = sim.link_stats(l);
        assert!(st.drops_overflow > 0);
        assert!(sim.agent::<Echo>(b).rx < 10);
    }

    #[test]
    fn link_down_blocks_and_loses_in_flight() {
        let mut sim = Sim::new(4);
        let a = sim.add_node(Pinger { n: 1, rx: 0, last_rx: Time::ZERO });
        let b = sim.add_node(Echo { rx: 0 });
        let (l, _, _) = sim.connect(a, b, LinkCfg::wired());
        // Let the frame get in flight, then cut the link before delivery.
        sim.run_until(Time(1000));
        sim.set_link_up(l, false);
        sim.run_until_idle(1000);
        assert_eq!(sim.agent::<Echo>(b).rx, 0);
        assert_eq!(sim.link_stats(l).drops_loss, 1);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed| {
            let cfg = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.3));
            let mut sim = Sim::new(seed);
            let a = sim.add_node(Pinger { n: 500, rx: 0, last_rx: Time::ZERO });
            let b = sim.add_node(Echo { rx: 0 });
            sim.connect(a, b, cfg);
            sim.run_until_idle(1_000_000);
            (sim.agent::<Pinger>(a).rx, sim.agent::<Pinger>(a).last_rx)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn mtu_enforced() {
        let mut sim = Sim::new(5);
        struct Big;
        impl Agent for Big {
            fn handle(&mut self, _: Time, ev: Event, ctx: &mut Ctx<'_>) {
                if matches!(ev, Event::Start) {
                    let r = ctx.send(IfaceId(0), Bytes::from(vec![0u8; 5000]));
                    assert_eq!(r, Err(SendError::TooBig));
                }
            }
        }
        let a = sim.add_node(Big);
        let b = sim.add_node(Echo { rx: 0 });
        sim.connect(a, b, LinkCfg::wired().with_mtu(1500));
        sim.run_until_idle(100);
    }

    #[test]
    fn external_call_injects_timer() {
        struct T {
            fired: Vec<u64>,
        }
        impl Agent for T {
            fn handle(&mut self, _: Time, ev: Event, _: &mut Ctx<'_>) {
                if let Event::Timer { key } = ev {
                    self.fired.push(key);
                }
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.add_node(T { fired: vec![] });
        sim.call(a, 7, Dur::from_millis(5));
        sim.call(a, 9, Dur::from_millis(1));
        sim.run_until_idle(100);
        assert_eq!(sim.agent::<T>(a).fired, vec![9, 7]);
    }

    /// What a [`Scripted`] node saw, and when.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Start,
        Frame { iface: u32, len: usize },
        Timer { key: u64 },
    }

    /// At start, arms `timers` (absolute ns, key) and sends `sends`
    /// (iface, len) in order; echoes the first frame it receives as
    /// `echo` bytes, if set; logs every event.
    struct Scripted {
        timers: Vec<(u64, u64)>,
        sends: Vec<(u32, usize)>,
        echo: Option<usize>,
        log: Vec<(u64, Seen)>,
    }
    impl Agent for Scripted {
        fn handle(&mut self, now: Time, ev: Event, ctx: &mut Ctx<'_>) {
            let seen = match ev {
                Event::Start => {
                    for &(at, key) in &self.timers {
                        ctx.timer_at(Time(at), key);
                    }
                    for &(iface, len) in &self.sends {
                        ctx.send(IfaceId(iface), Bytes::from(vec![0u8; len])).unwrap();
                    }
                    Seen::Start
                }
                Event::Frame { iface, data } => {
                    if let Some(len) = self.echo.take() {
                        ctx.send(iface, Bytes::from(vec![0u8; len])).unwrap();
                    }
                    Seen::Frame { iface: iface.0, len: data.len() }
                }
                Event::Timer { key } => Seen::Timer { key },
            };
            self.log.push((now.nanos(), seen));
        }
    }

    /// The whole timeline of a small run, event by event in dispatch
    /// order: bursts from both ends of a 10 Mbit/s link at the same
    /// instant, a timer due at the exact instant a frame arrives (armed
    /// before the frame was sent at one end, after it at the other), and
    /// six frames over a Bernoulli-lossy 1 Gbit/s link.
    #[test]
    fn a_run_keeps_its_timeline_to_the_nanosecond_and_the_tie() {
        let mut sim = Sim::new(11);
        let node = |timers, sends, echo| Scripted { timers, sends, echo, log: Vec::new() };
        let six = vec![(1, 60); 6];
        let a_sends = [vec![(0, 100), (0, 200), (0, 50)], six].concat();
        // 125 B at 10 Mbit/s is 100 us: b's first frame lands at a at 1.1 ms.
        let a = sim.add_node(node(vec![(1_100_000, 1)], a_sends, None));
        // 100 B is 80 us: a's first frame lands at b at 1.08 ms.
        let b = sim.add_node(node(vec![(1_080_000, 2)], vec![(0, 125), (0, 125)], Some(40)));
        let c = sim.add_node(node(vec![], vec![], None));
        sim.connect(a, b, LinkCfg::wired().with_bandwidth(10_000_000));
        let lossy = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.5));
        let (l, _, _) = sim.connect(a, c, lossy);
        let mut timeline = Vec::new();
        let mut seen = [0usize; 3];
        while sim.step() {
            for (i, id) in [a, b, c].into_iter().enumerate() {
                let log = &sim.agent::<Scripted>(id).log;
                timeline.extend(log[seen[i]..].iter().map(|&(t, s)| (t, i, s)));
                seen[i] = log.len();
            }
        }
        let frame = |iface, len| Seen::Frame { iface, len };
        let expected = vec![
            (0, 0, Seen::Start),
            (0, 1, Seen::Start),
            (0, 2, Seen::Start),
            // 60 B at 1 Gbit/s is 480 ns; the fifth frame is lost.
            (1_000_480, 2, frame(0, 60)),
            (1_000_960, 2, frame(0, 60)),
            (1_001_440, 2, frame(0, 60)),
            (1_001_920, 2, frame(0, 60)),
            (1_002_880, 2, frame(0, 60)),
            // The frame was sent before the timer was armed: it goes first.
            (1_080_000, 1, frame(0, 100)),
            (1_080_000, 1, Seen::Timer { key: 2 }),
            // The timer was armed before the frame was sent: it goes first.
            (1_100_000, 0, Seen::Timer { key: 1 }),
            (1_100_000, 0, frame(0, 125)),
            (1_200_000, 0, frame(0, 125)),
            (1_240_000, 1, frame(0, 200)),
            (1_280_000, 1, frame(0, 50)),
            // b's echo leaves an idle transmitter at 1.08 ms: 32 us + 1 ms.
            (2_112_000, 0, frame(0, 40)),
        ];
        assert_eq!(timeline, expected);
        assert_eq!((sim.link_stats(l).delivered, sim.link_stats(l).drops_loss), (5, 1));
    }

    /// `send` says when each frame's last bit leaves: the k-th of a
    /// back-to-back burst k serialization times from now, whether the
    /// loss process then drops it or not.
    #[test]
    fn send_returns_when_the_frame_has_left() {
        struct Burst(Vec<Result<Time, SendError>>);
        impl Agent for Burst {
            fn handle(&mut self, _: Time, ev: Event, ctx: &mut Ctx<'_>) {
                if let Event::Timer { .. } = ev {
                    for _ in 0..6 {
                        self.0.push(ctx.send(IfaceId(0), Bytes::from_static(&[0u8; 100])));
                    }
                }
            }
        }
        let mut sim = Sim::new(11);
        let a = sim.add_node(Burst(Vec::new()));
        let b = sim.add_node(Echo { rx: 0 });
        let cfg = LinkCfg::wired().with_loss(LossModel::Bernoulli(0.5));
        let (l, _, _) = sim.connect(a, b, cfg);
        sim.call(a, 0, Dur::from_micros(5));
        sim.run_until_idle(1_000);
        // 100 B at 1 Gbit/s is 800 ns.
        let left: Vec<_> = (1..=6).map(|k| Ok(Time(5_000 + k * 800))).collect();
        assert_eq!(sim.agent::<Burst>(a).0, left);
        let st = sim.link_stats(l);
        assert!(st.drops_loss > 0 && st.delivered > 0, "{st:?}");
    }

    /// Logs each medium event it is told of, as (when, iface, up), and
    /// each timer as (when, key).
    #[derive(Default)]
    struct Watcher {
        media: Vec<(u64, u32, bool)>,
        timers: Vec<(u64, u64)>,
    }
    impl Agent for Watcher {
        fn handle(&mut self, now: Time, ev: Event, _: &mut Ctx<'_>) {
            if let Event::Timer { key } = ev {
                self.timers.push((now.nanos(), key));
            }
        }
        fn medium(&mut self, now: Time, iface: IfaceId, up: bool, _: &mut Ctx<'_>) {
            self.media.push((now.nanos(), iface.0, up));
        }
    }

    /// A link state change reaches each end once, on its own interface,
    /// at the instant of the change and after every event already queued
    /// for that instant.
    #[test]
    fn set_link_up_tells_both_ends_at_the_instant() {
        let mut sim = Sim::new(0);
        let (a, b) = (sim.add_node(Watcher::default()), sim.add_node(Watcher::default()));
        sim.connect(a, b, LinkCfg::wired());
        // b's second interface: its end of this link is iface 1.
        let (l, _, _) = sim.connect(a, b, LinkCfg::wired());
        sim.run_until(Time(1_000));
        sim.call(b, 7, Dur::ZERO);
        sim.set_link_up(l, false);
        sim.call(b, 8, Dur::ZERO);
        let mut order = Vec::new();
        while sim.step() {
            let (wa, wb) = (sim.agent::<Watcher>(a), sim.agent::<Watcher>(b));
            order.push((wa.media.len(), wb.media.len(), wb.timers.len()));
        }
        assert_eq!(sim.agent::<Watcher>(a).media, [(1_000, 1, false)]);
        assert_eq!(sim.agent::<Watcher>(b).media, [(1_000, 1, false)]);
        assert_eq!(sim.agent::<Watcher>(b).timers, [(1_000, 7), (1_000, 8)]);
        // Timer 7, then a's end, then b's end, then timer 8.
        assert_eq!(order, [(0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 1, 2)]);
        assert_eq!(sim.events().medium, 2);
        sim.set_link_up(l, true);
        sim.run_until_idle(10);
        assert_eq!(sim.agent::<Watcher>(a).media, [(1_000, 1, false), (1_000, 1, true)]);
        assert_eq!(sim.events().medium, 4);
    }

    /// Setting a link to the state it already has is no change, and
    /// tells nobody.
    #[test]
    fn setting_a_links_state_again_tells_nobody() {
        let mut sim = Sim::new(0);
        let (a, b) = (sim.add_node(Watcher::default()), sim.add_node(Watcher::default()));
        let (l, _, _) = sim.connect(a, b, LinkCfg::wired());
        sim.set_link_up(l, true);
        sim.run_until_idle(10);
        sim.set_link_up(l, false);
        sim.set_link_up(l, false);
        sim.run_until_idle(10);
        assert_eq!(sim.agent::<Watcher>(a).media, [(0, 0, false)]);
        assert_eq!(sim.agent::<Watcher>(b).media, [(0, 0, false)]);
        assert_eq!(sim.events(), EventCounts { start: 2, frame: 0, timer: 0, medium: 2 });
    }

    /// An agent that does not override [`Agent::medium`] behaves as it
    /// did before medium events existed: a link taken down and back up
    /// before the frames leave changes nothing it sees.
    #[test]
    fn agents_that_ignore_the_medium_run_as_before() {
        let run = |flap: bool| {
            let (mut sim, a, b) = two_node(LinkCfg::wired(), 10);
            if flap {
                sim.set_link_up(LinkId(0), false);
                sim.set_link_up(LinkId(0), true);
            }
            sim.run_until_idle(100_000);
            let p = sim.agent::<Pinger>(a);
            let seen = (p.rx, p.last_rx, sim.agent::<Echo>(b).rx, sim.link_stats(LinkId(0)));
            (seen, sim.events())
        };
        let (still, flapped) = (run(false), run(true));
        assert_eq!(still.0, flapped.0);
        assert_eq!(still.1, EventCounts { start: 2, frame: 20, timer: 0, medium: 0 });
        assert_eq!(flapped.1, EventCounts { medium: 4, ..still.1 });
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = Sim::new(0);
        sim.run_until(Time::from_secs(5));
        assert_eq!(sim.now(), Time::from_secs(5));
    }
}
