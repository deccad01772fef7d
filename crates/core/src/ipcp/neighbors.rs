//! IPC Management — neighbors: the life of each (N-1) adjacency. The
//! adjacencies this process plans are allocated from its lower DIF and
//! re-allocated until they hold; every lower flow that comes up, planned
//! or inbound, is bound to a port; the hello announces this process on
//! every port and keeps the adjacency alive, and teaches us who the peer
//! is and what its RIB holds; a port gone silent expires and releases
//! its flow. This is also where management keeps its own view of each
//! port — the Data Transfer task's [`super::N1Port`] knows only what
//! relaying needs.

use super::{Ipcp, IpcpOut, IpcpTimer, N1Kind};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::qos::QosSpec;
use bytes::Bytes;
use rina_rib::DigestTable;
use rina_sim::{Dur, Time};

/// A neighbor is declared dead after this many missed hellos (the
/// adjacency expires after `hello_period × HELLO_MISSES` of silence).
const HELLO_MISSES: u64 = 3;

/// How long a planned adjacency whose flow failed, timed out or went
/// silent waits before asking again.
const PLAN_RETRY: Dur = Dur::from_millis(200);

/// How soon a crash-restarted process asks for its planned adjacencies.
const RESTART_DELAY: Dur = Dur::from_millis(50);

/// An (N-1) adjacency this process allocates itself: a flow from its
/// provider `via` to the peer, asked for `start_after` from start and
/// again whenever it is lost, until it holds. Its one timer
/// ([`IpcpTimer::Adjacency`]) is armed exactly while no flow is asked
/// for or held: from start, and from each loss, until it fires and asks.
#[derive(Clone)]
pub(super) struct Plan {
    peer: AppName,
    spec: QosSpec,
    /// The providing IPC process's index on the node.
    via: usize,
    start_after: Dur,
    /// The adjacency is the enrollment path: once its flow is up, this
    /// process enrolls through it with the request `Enroll` stores.
    enroll: bool,
    /// The lower flow asked for or held (node-local port id).
    port: Option<u64>,
    /// The flow in `port` is active.
    up: bool,
}

impl Plan {
    /// The same adjacency for a crash-restarted process: nothing asked
    /// for yet, first asked [`RESTART_DELAY`] after it starts.
    pub(super) fn restarted(&self) -> Plan {
        Plan { start_after: RESTART_DELAY, port: None, up: false, ..self.clone() }
    }
}

/// What management knows about the peer on one (N-1) port (same index
/// as the port in the Data Transfer task's table).
#[derive(Default)]
pub(super) struct Peer {
    /// The peer's up port leads here: it is this member's child in the
    /// DIF's spanning tree, so the port is one of this member's tree
    /// ports ([`Neighbors::on_tree`]). Sponsoring over the port sets
    /// it (a joiner's up is its sponsor until it has routes), every hello
    /// sets or clears it by whether it names this member as the sender's
    /// up peer, and `ports_down` clears it.
    pub(super) child: bool,
    /// The last hello heard on this port (see [`HelloMemo`]).
    hello_memo: Option<HelloMemo>,
    /// For a port over lower flows: the provider and the peer process of
    /// the last one. The next flow between the same two processes over
    /// that provider takes this port again.
    lower: Option<(usize, AppName)>,
}

/// A hello's payload bytes with what they decode to. A neighbor whose
/// RIB and address have not moved sends the same bytes every period, so
/// the next hello is usually answered by one byte comparison instead of
/// a CDAP and body decode. The decoded fields are a pure function of the
/// bytes: the memo is replaced when different bytes arrive and never
/// needs invalidating.
pub(super) struct HelloMemo {
    pub(super) payload: Bytes,
    pub(super) name: AppName,
    pub(super) addr: Addr,
    pub(super) up: Addr,
    pub(super) digests: DigestTable,
}

/// The neighbor task's state (see module docs).
#[derive(Default)]
pub(super) struct Neighbors {
    /// One entry per (N-1) port.
    pub(super) peers: Vec<Peer>,
    /// The adjacencies this process allocates, in the order planned.
    pub(super) plans: Vec<Plan>,
    /// The encoded hello frame for one `(RIB generation, address, up
    /// peer)`: a hello is a function of the digest table, the address,
    /// the up peer and the (fixed) name, so until one of the first three
    /// moves every tick and every port sends these bytes again.
    hello_cache: Option<((u64, Addr, Addr), Bytes)>,
    /// The up port and its peer's address, as last announced: a move
    /// sends the hello at once on the old and the new up port.
    up: Option<(usize, Addr)>,
}

impl Neighbors {
    /// Whether port `i` is a tree port of a member whose up port is `up`
    /// — its up port or a child's — given that it is live. Every message
    /// that must span the DIF leaves by the tree ports and no others —
    /// floods, directory lookups and `/dir` tombstones — and a lookup is
    /// accepted only on one (DESIGN.md §6, §11).
    pub(super) fn on_tree(&self, i: usize, up: Option<usize>) -> bool {
        Some(i) == up || self.peers.get(i).is_some_and(|p| p.child)
    }
}

impl Ipcp {
    /// This member's up port in the DIF's spanning tree: once routes
    /// exist, the port toward the lowest address it reaches — the lowest
    /// destination of its forwarding table, or a live neighbor below that
    /// (one whose adjacency routes have not caught up with yet) — when
    /// that address is below its own (none: it is the root of its
    /// component); before routes, the live port it enrolled through.
    /// Once routes converge every neighbor is a destination, the up ports
    /// are the next hops toward the component's lowest address and form a
    /// tree spanning it, whatever happened to the edges enrollment used.
    pub(super) fn up_port(&self) -> Option<usize> {
        let fwd = self.fwd();
        let Some(lowest) = fwd.destinations().next() else {
            return self.enroll.via.filter(|&i| self.transfer.n1.get(i).is_some_and(|p| p.live()));
        };
        let root = self.transfer.lowest_peer().map_or(lowest, |n| n.min(lowest));
        (root < self.addr).then(|| self.transfer.pick_n1_toward(root, fwd)).flatten()
    }

    /// The up port and its peer's address.
    fn up_peer(&self) -> Option<(usize, Addr)> {
        let i = self.up_port()?;
        Some((i, self.transfer.n1.get(i).map_or(0, |p| p.peer_addr)))
    }

    /// This member's live tree ports now (see [`Neighbors::on_tree`]).
    pub(crate) fn tree_ports(&self) -> impl Iterator<Item = usize> + '_ {
        let up = self.up_port();
        let live = self.transfer.n1.iter().enumerate().filter(|(_, p)| p.live());
        live.map(|(i, _)| i).filter(move |&i| self.neighbors.on_tree(i, up))
    }

    /// If the up port moved since it was last announced, send the hello
    /// at once on the old and the new up port, so the edge counts at both
    /// ends within one link latency instead of one hello period. Asked
    /// after each management PDU and each deferred job: the events that
    /// move routes, ports and enrollment (a port that goes down floods
    /// the LSA that says so, and the flood's flush asks).
    pub(super) fn announce_up(&mut self) {
        let up = self.up_peer();
        let old = std::mem::replace(&mut self.neighbors.up, up);
        for (i, _) in [old, up].into_iter().flatten().filter(|_| old != up) {
            if self.transfer.attached(i) {
                self.send_hello(i);
            }
        }
    }

    /// Send a hello on every (N-1) port with a medium or a lower flow
    /// under it. A port whose lower flow is gone is silent until a new
    /// flow is bound to it. Also expires silent ports. The hellos are
    /// the only repair path for lost floods: each carries our digest
    /// table, and a peer that finds it differs pulls what it lacks
    /// (DESIGN.md §6).
    /// Run by [`IpcpTimer::Hello`], once per DIF hello period.
    pub fn tick_hello(&mut self, now: Time) {
        self.clock = now;
        for i in 0..self.transfer.n1.len() {
            if self.transfer.attached(i) {
                self.send_hello(i);
            }
        }
        self.directory.expire_tombstones(now, Dur::from_millis(self.cfg.member_gc_grace_ms));
        // Expire the ports we have not heard from, and release the lower
        // flows under them: whichever end allocated a flow, the other end
        // may be gone for good (a crash-restart), so hellos may never
        // resume on it.
        let deadline = self.cfg.hello_period * HELLO_MISSES;
        let mut silent: Vec<usize> = Vec::new();
        let mut lost: Vec<AppName> = Vec::new();
        for (i, p) in self.transfer.n1.iter().enumerate() {
            if p.up && p.last_hello != Time::ZERO && now.since(p.last_hello) > deadline {
                silent.push(i);
                lost.extend(p.peer_name.clone());
            }
        }
        self.ports_down(&silent);
        for &i in &silent {
            if let Some(N1Kind::Lower { port }) = self.transfer.n1.get(i).map(|p| p.kind) {
                self.out.push(IpcpOut::Release { port });
                self.lower_flow_gone(port, now);
            }
        }
        // Members whose records we wrote and whose adjacency just expired
        // go on failure watch; whoever stays silent past the grace is
        // purged.
        self.enroll.watch(&self.rib, self.addr, lost, now);
        self.purge_failed(now);
    }

    /// Start the hello cadence: the first tick now. A shim runs none: it
    /// is the two ends of one medium, its peer is fixed, and the medium
    /// itself says when it goes down or comes back ([`Ipcp::n1_down`],
    /// [`Ipcp::medium_up`]).
    pub(crate) fn start_hello(&mut self, now: Time) {
        if !self.is_shim {
            self.hello_timer(now);
        }
    }

    /// The hello timer fired: one period, then the next timer one
    /// `hello_period` out, after everything the tick emitted.
    pub(super) fn hello_timer(&mut self, now: Time) {
        self.tick_hello(now);
        let at = now + self.cfg.hello_period;
        self.out.push(IpcpOut::Arm { at, timer: IpcpTimer::Hello });
    }

    /// Take `ports` down: their peers are forgotten and they leave the
    /// spanning tree (a returning peer's first hello makes its port a
    /// child's again if the peer's up port leads here). Adjacency *loss* is
    /// urgent: it bypasses the LSA debounce so the withdrawal floods —
    /// and the local table repairs via the delta-classified remove path —
    /// now, not one debounce window later.
    fn ports_down(&mut self, ports: &[usize]) {
        if ports.is_empty() {
            return;
        }
        for &i in ports {
            if let Some(p) = self.transfer.n1.get_mut(i) {
                p.up = false;
                p.peer_addr = 0;
            }
            if let Some(peer) = self.neighbors.peers.get_mut(i) {
                peer.child = false;
            }
        }
        self.transfer.rebuild_peer_index();
        self.write_lsa_now();
    }

    /// Mark an (N-1) port down (local failure detection: the lower flow
    /// failed, or the medium under it went down or refused a frame).
    pub fn n1_down(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if self.transfer.n1.get(n1).is_some_and(|p| p.up) {
            self.ports_down(&[n1]);
        }
    }

    /// The medium under port `n1` came back: a shim's port is live again,
    /// with the medium's other end, `3 - addr`, as its peer. Only a shim
    /// is bound to a medium.
    pub fn medium_up(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if !self.is_shim {
            return;
        }
        let peer = 3 - self.addr;
        if let Some(p) = self.transfer.n1.get_mut(n1) {
            p.up = true;
            p.peer_addr = peer;
        }
        self.transfer.rebuild_peer_index();
    }

    /// Plan an (N-1) adjacency: ask provider `via`, an IPC process on
    /// this node, for a flow to the peer IPC process `peer` with
    /// properties `spec`, first `start_after` into the run (the
    /// enrollment planner staggers waves by spanning-tree depth), and
    /// again whenever it is lost, until it holds. With `enroll` —
    /// credential, proposed address (0 = sponsor chooses), top of the
    /// proposed subtree block — the adjacency is also the
    /// enrollment path: once its flow is up and this process is not yet
    /// a member, it enrolls through it.
    pub(crate) fn plan_adjacency(
        &mut self,
        peer: AppName,
        spec: QosSpec,
        via: usize,
        start_after: Dur,
        enroll: Option<(String, Addr, Addr)>,
    ) {
        let enrolls = enroll.is_some();
        if enrolls {
            self.enroll.request = enroll;
        }
        let plan = Plan { peer, spec, via, start_after, enroll: enrolls, port: None, up: false };
        self.neighbors.plans.push(plan);
    }

    /// Start the planned adjacencies: each asks for its flow
    /// `start_after` from `now`, at once when that is zero.
    pub(crate) fn start_adjacencies(&mut self, now: Time) {
        for k in 0..self.neighbors.plans.len() {
            match self.neighbors.plans.get(k).map(|p| p.start_after) {
                Some(Dur::ZERO) => self.ask_for_plan(k),
                Some(d) => {
                    self.out.push(IpcpOut::Arm { at: now + d, timer: IpcpTimer::Adjacency(k) })
                }
                None => {}
            }
        }
    }

    /// Whether this process is a member and every adjacency it planned
    /// is up: its part of "the stack has assembled".
    pub(crate) fn is_assembled(&self) -> bool {
        self.enrolled && self.neighbors.plans.iter().all(|p| p.up)
    }

    /// The node asked for planned adjacency `plan`'s flow at `port`.
    pub(crate) fn lower_requested(&mut self, plan: usize, port: u64) {
        if let Some(p) = self.neighbors.plans.get_mut(plan) {
            p.port = Some(port);
        }
    }

    /// Ask for planned adjacency `k`'s flow, unless one is asked for or
    /// held. Whether it comes up is the provider's allocator's business:
    /// a flow it fails or times out comes back as
    /// [`Ipcp::lower_flow_gone`], which asks again.
    pub(super) fn ask_for_plan(&mut self, k: usize) {
        let Some(p) = self.neighbors.plans.get(k).filter(|p| p.port.is_none()) else { return };
        let (via, dst, spec) = (p.via, p.peer.clone(), p.spec);
        self.out.push(IpcpOut::Allocate { plan: k, via, dst, spec });
    }

    /// The lower flow at `port`, from provider `via` to or from the peer
    /// IPC process `peer`, is active: bind it to a port and bring that
    /// port up, and start enrollment if it is a planned adjacency's flow
    /// on the enrollment path. The flow takes the port the last flow
    /// between this process and `peer` over `via` had — releasing that
    /// flow if it is still held — else a port whose flow is gone, else a
    /// new one.
    pub(crate) fn lower_flow_up(&mut self, port: u64, via: usize, peer: AppName, now: Time) {
        self.clock = self.clock.max(now);
        let slot = self.slot_for(via, &peer);
        let held = slot.and_then(|i| self.transfer.n1.get(i)).map(|p| p.kind);
        if let Some(N1Kind::Lower { port: old }) = held {
            if self.transfer.lower.remove(&old).is_some() {
                self.out.push(IpcpOut::Release { port: old });
            }
        }
        let n1 = self.transfer.bind_lower(slot, port, now);
        self.neighbors.peers.resize_with(self.transfer.n1.len(), Peer::default);
        if let Some(p) = self.neighbors.peers.get_mut(n1) {
            *p = Peer { lower: Some((via, peer)), ..Peer::default() };
        }
        self.transfer.rebuild_peer_index();
        self.send_hello(n1);
        let mut enrolls = false;
        if let Some(p) = self.neighbors.plans.iter_mut().find(|p| p.port == Some(port)) {
            p.up = true;
            enrolls = p.enroll && !self.enrolled;
        }
        if enrolls {
            self.enroll_through(n1, now);
        }
    }

    /// The port a lower flow between this process and `peer` over
    /// provider `via` takes: the one the last such flow had, else the
    /// first whose flow is gone.
    fn slot_for(&self, via: usize, peer: &AppName) -> Option<usize> {
        let mut freed = None;
        for (i, p) in self.neighbors.peers.iter().enumerate() {
            let Some((v, n)) = &p.lower else { continue };
            if *v == via && n == peer {
                return Some(i);
            }
            if freed.is_none() && !self.transfer.attached(i) {
                freed = Some(i);
            }
        }
        freed
    }

    /// The lower flow at `port` is gone — it failed, its peer closed it,
    /// its allocation failed or timed out, or this process released it:
    /// the port bound to it goes down and is free, and a planned
    /// adjacency behind it asks again after `PLAN_RETRY` (200 ms).
    pub(crate) fn lower_flow_gone(&mut self, port: u64, now: Time) {
        if let Some(n1) = self.transfer.lower.remove(&port) {
            self.n1_down(n1, now);
        }
        let mut plans = self.neighbors.plans.iter_mut().enumerate();
        let Some((k, p)) = plans.find(|(_, p)| p.port == Some(port)) else { return };
        (p.port, p.up) = (None, false);
        self.out.push(IpcpOut::Arm { at: now + PLAN_RETRY, timer: IpcpTimer::Adjacency(k) });
    }

    /// The port the lower flow at `port` is bound to, if any.
    pub(crate) fn n1_bound_to(&self, port: u64) -> Option<usize> {
        self.transfer.lower.get(&port).copied()
    }

    /// The current hello, fully encoded as a link-local frame: built
    /// once per `(RIB generation, address, up peer)` and shared — by
    /// every port of a tick (a hub sends ~degree identical hellos) and by
    /// every tick until the RIB, the address or the up peer moves.
    fn hello_frame(&mut self) -> Bytes {
        let up = self.up_peer().map_or(0, |(_, addr)| addr);
        let key = (self.rib.generation(), self.addr, up);
        if let Some((cached, frame)) = &self.neighbors.hello_cache {
            if *cached == key {
                return frame.clone();
            }
        }
        self.stats.hello_built += 1;
        let body = MgmtBody::Hello {
            name: self.name.clone(),
            addr: self.addr,
            up,
            digests: self.rib.digest_table(),
        };
        let frame = self.mgmt_pdu(0, 1, body.encode(0, 0)).encode();
        self.neighbors.hello_cache = Some((key, frame.clone()));
        frame
    }

    pub(super) fn send_hello(&mut self, n1: usize) {
        let frame = self.hello_frame();
        self.stats.hello_tx += 1;
        self.tx_mgmt(n1, frame);
    }

    /// A management payload byte-identical to the port's previous hello
    /// *is* that hello: run the handler on the memoised decode and say
    /// so. The memo is lifted out of the port for the call (the handler
    /// takes `&mut self`) and put straight back.
    pub(super) fn on_repeated_hello(&mut self, payload: &Bytes, from_n1: usize, now: Time) -> bool {
        let Some(memo) = self.neighbors.peers.get_mut(from_n1).and_then(|p| p.hello_memo.take())
        else {
            return false;
        };
        let repeat = memo.payload == *payload;
        if repeat {
            self.stats.hello_rx += 1;
            self.on_hello(&memo, from_n1, now);
        }
        if let Some(p) = self.neighbors.peers.get_mut(from_n1) {
            p.hello_memo = Some(memo);
        }
        repeat
    }

    /// A hello that went through the full decode: handle it, and
    /// memoise it against the payload bytes it came in.
    pub(super) fn on_decoded_hello(&mut self, hello: HelloMemo, from_n1: usize, now: Time) {
        self.stats.hello_rx += 1;
        self.stats.hello_decoded += 1;
        self.on_hello(&hello, from_n1, now);
        if let Some(p) = self.neighbors.peers.get_mut(from_n1) {
            p.hello_memo = Some(hello);
        }
    }

    /// A hello arrived on `from_n1` from the process named `name` at
    /// `addr` (0 = not yet enrolled), whose up peer is `up`, advertising
    /// `digests`. Takes it by reference — it may be the port's memoised
    /// decode — and clones a field only where the port's record of the
    /// peer changes.
    fn on_hello(&mut self, hello: &HelloMemo, from_n1: usize, now: Time) {
        let HelloMemo { ref name, addr, up, ref digests, .. } = *hello;
        let child = up != 0 && up == self.addr;
        let peer = self.neighbors.peers.get_mut(from_n1);
        if peer.is_some_and(|p| !std::mem::replace(&mut p.child, child) && child) {
            // A new child may have missed what we flooded before its
            // hello arrived: our hello back shows it, and it pulls.
            self.send_hello(from_n1);
        }
        let mut changed = false;
        if addr != 0 {
            self.enroll.on_enrolled_hello(name);
        }
        if let Some(p) = self.transfer.n1.get_mut(from_n1) {
            p.last_hello = now;
            if !p.up {
                p.up = true;
                changed = true;
            }
            if p.peer_name.as_ref() != Some(name) {
                p.peer_name = Some(name.clone());
                changed = true;
            }
            // A hello carrying address 0 means the peer is not
            // (yet) enrolled; it must not *unlearn* an address we
            // already know — stale hellos cross enrollment
            // responses in flight.
            if addr != 0 && p.peer_addr != addr {
                p.peer_addr = addr;
                changed = true;
            }
        }
        if changed {
            self.transfer.rebuild_peer_index();
            self.refresh_lsa();
        }
        if self.manages() && addr != 0 {
            // Anti-entropy: the digest table localizes divergence
            // to subtrees, and a targeted delta *pull* moves only
            // the objects we actually lack. Every hello that differs
            // pulls; the peer's own hellos drive the opposite
            // direction symmetrically.
            let mismatched = self.rib.mismatched(digests);
            if !mismatched.is_empty() {
                self.request_deltas(from_n1, &mismatched);
            }
        }
    }
}
