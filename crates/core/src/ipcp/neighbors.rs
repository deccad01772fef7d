//! IPC Management — neighbors: the hello that announces this process on
//! every (N-1) port and keeps the adjacency alive, what the peer's hello
//! teaches us (who it is, what its RIB holds), and the expiry of
//! neighbors gone silent. This is also where management keeps its own
//! view of each port — the Data Transfer task's [`super::N1Port`] knows
//! only what relaying needs.

use super::dissemination::RESYNC_DAMP_TICKS;
use super::{Ipcp, IpcpOut, IpcpTimer};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use bytes::Bytes;
use rina_rib::DigestTable;
use rina_sim::{Dur, Time};

/// A neighbor is declared dead after this many missed hellos (the
/// adjacency expires after `hello_period × HELLO_MISSES` of silence).
const HELLO_MISSES: u64 = 3;

/// What management knows about the peer on one (N-1) port (same index
/// as the port in the Data Transfer task's table).
#[derive(Default)]
pub(super) struct Peer {
    /// This port carried an enrollment (we joined through it, or
    /// sponsored the peer over it): it is an edge of the DIF's
    /// dissemination spanning tree. Tree edges alone reach every member,
    /// so floods out tree ports are never rate-limited, while cross
    /// (non-tree) ports go through the DIF's flood token bucket — the
    /// topology-aware suppression that keeps hub flooding O(members),
    /// not O(members × degree).
    pub(super) tree: bool,
    /// The peer's RIB digest table from its last hello — the basis of
    /// targeted delta requests and of flood suppression (don't send an
    /// object out a port whose peer provably already holds its subtree).
    digests: Option<DigestTable>,
    /// Our hello-tick count when this port last started a delta sync
    /// (damps digest-triggered anti-entropy).
    pub(super) last_resync_tick: u64,
    /// The last hello heard on this port (see [`HelloMemo`]).
    hello_memo: Option<HelloMemo>,
}

impl Peer {
    /// Whether the peer's last hello proves it holds our exact state of
    /// `subtree` (`ours`, from [`rina_rib::Rib::subtree_digest`]) — and
    /// with it every object of the subtree at the version we hold.
    pub(super) fn covers(&self, subtree: &str, ours: Option<(u64, u64)>) -> bool {
        ours.is_some() && self.digests.as_ref().and_then(|t| t.get(subtree)) == ours
    }
}

/// A hello's payload bytes with what they decode to. A neighbor whose
/// RIB and address have not moved sends the same bytes every period, so
/// the next hello is usually answered by one byte comparison instead of
/// a CDAP and body decode. The decoded fields are a pure function of the
/// bytes: the memo is replaced when different bytes arrive and never
/// needs invalidating.
struct HelloMemo {
    payload: Bytes,
    name: AppName,
    addr: Addr,
    digests: DigestTable,
}

/// The neighbor task's state (see module docs).
#[derive(Default)]
pub(super) struct Neighbors {
    /// One entry per (N-1) port.
    pub(super) peers: Vec<Peer>,
    /// Hello periods elapsed (drives periodic re-advertisement and every
    /// tick-counted damp and retry).
    pub(super) ticks: u64,
    /// The encoded hello frame for one `(RIB generation, address)`: a
    /// hello is a function of the digest table, the address and the
    /// (fixed) name, so until one of the first two moves every tick and
    /// every port sends these bytes again.
    hello_cache: Option<(u64, Addr, Bytes)>,
}

impl Ipcp {
    /// Up, peer known, and on the spanning tree: a port that carries
    /// tree-scoped lookups and floods.
    pub(super) fn live_tree(&self, n1: usize) -> bool {
        self.transfer.n1.get(n1).is_some_and(|p| p.live())
            && self.neighbors.peers.get(n1).is_some_and(|peer| peer.tree)
    }

    /// Send a hello on every (N-1) port — including down ones, as a
    /// revival probe: if the medium or lower flow comes back, the peer's
    /// hello response brings the port up again (mobility depends on this:
    /// re-attaching to a previously-left point of attachment must work).
    /// Also expires silent neighbors, and periodically re-advertises this
    /// member's own RIB objects (anti-entropy: RIEP dissemination is
    /// unreliable, so lost updates must eventually be repaired).
    /// Run by [`IpcpTimer::Hello`], once per DIF hello period.
    pub fn tick_hello(&mut self, now: Time) {
        self.clock = now;
        for i in 0..self.transfer.n1.len() {
            self.send_hello(i);
        }
        self.neighbors.ticks += 1;
        if self.manages() && self.neighbors.ticks.is_multiple_of(8) {
            self.readvertise_own();
        }
        self.retry_dir_lookups();
        self.directory.expire_tombstones(now, Dur::from_millis(self.cfg.member_gc_grace_ms));
        // Expire neighbors we have not heard from.
        let deadline = self.cfg.hello_period * HELLO_MISSES;
        let mut silent: Vec<usize> = Vec::new();
        let mut lost: Vec<AppName> = Vec::new();
        for (i, p) in self.transfer.n1.iter().enumerate() {
            if p.live() && p.last_hello != Time::ZERO && now.since(p.last_hello) > deadline {
                silent.push(i);
                lost.extend(p.peer_name.clone());
                self.out.push(IpcpOut::N1Expired { n1: i });
            }
        }
        self.ports_down(&silent);
        // Sponsored members whose adjacency just expired go on failure
        // watch; whoever stays silent past the grace is purged.
        self.enroll.watch(lost, now);
        self.purge_failed(now);
    }

    /// The hello timer fired: one period, then the next timer one
    /// `hello_period` out, after everything the tick emitted.
    pub(super) fn hello_timer(&mut self, now: Time) {
        self.tick_hello(now);
        let at = now + self.cfg.hello_period;
        self.out.push(IpcpOut::Arm { at, timer: IpcpTimer::Hello });
    }

    /// Take `ports` down: their peers are forgotten and they leave the
    /// dissemination tree (if the peer returns it re-earns tree status by
    /// re-enrolling (fresh members) or syncs via delta pulls (mobility
    /// reattachment); leaving it set would let every historical
    /// enrollment edge flood rate-unlimited forever). Adjacency *loss* is
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
                peer.tree = false;
            }
        }
        self.transfer.rebuild_peer_index();
        self.write_lsa_now();
    }

    /// Mark an (N-1) port down (local failure detection: the lower flow
    /// failed or the interface reported link-down).
    pub fn n1_down(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if self.transfer.n1.get(n1).is_some_and(|p| p.up) {
            self.ports_down(&[n1]);
        }
    }

    /// Mark an (N-1) port back up and re-hello.
    pub fn n1_up(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if let Some(p) = self.transfer.n1.get_mut(n1) {
            p.up = true;
            p.last_hello = now;
        }
        self.transfer.rebuild_peer_index();
        self.send_hello(n1);
    }

    /// The current hello, fully encoded as a link-local frame: built
    /// once per `(RIB generation, address)` and shared — by every port
    /// of a tick (a hub sends ~degree identical hellos) and by every
    /// tick until the RIB or the address moves.
    fn hello_frame(&mut self) -> Bytes {
        let key = (self.rib.generation(), self.addr);
        if let Some((generation, addr, frame)) = &self.neighbors.hello_cache {
            if (*generation, *addr) == key {
                return frame.clone();
            }
        }
        self.stats.hello_built += 1;
        let body = MgmtBody::Hello {
            name: self.name.clone(),
            addr: self.addr,
            digests: self.rib.digest_table(),
        };
        let frame = self.mgmt_pdu(0, 1, body.encode(0, 0)).encode();
        self.neighbors.hello_cache = Some((key.0, key.1, frame.clone()));
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
            self.on_hello(&memo.name, memo.addr, &memo.digests, from_n1, now);
        }
        if let Some(p) = self.neighbors.peers.get_mut(from_n1) {
            p.hello_memo = Some(memo);
        }
        repeat
    }

    /// A hello that went through the full decode: handle it, and
    /// memoise it against the `payload` bytes it came in.
    pub(super) fn on_decoded_hello(
        &mut self,
        payload: Bytes,
        name: AppName,
        addr: Addr,
        digests: DigestTable,
        from_n1: usize,
        now: Time,
    ) {
        self.stats.hello_rx += 1;
        self.stats.hello_decoded += 1;
        self.on_hello(&name, addr, &digests, from_n1, now);
        if let Some(p) = self.neighbors.peers.get_mut(from_n1) {
            p.hello_memo = Some(HelloMemo { payload, name, addr, digests });
        }
    }

    /// A hello from the process named `name` at `addr` (0 = not yet
    /// enrolled), advertising `digests`, arrived on `from_n1`. Takes its
    /// input by reference — it may be the port's memoised decode — and
    /// clones a field only where the port's record of the peer changes.
    fn on_hello(
        &mut self,
        name: &AppName,
        addr: Addr,
        digests: &DigestTable,
        from_n1: usize,
        now: Time,
    ) {
        let mut changed = false;
        let mut new_member = false;
        if addr != 0 {
            self.enroll.on_enrolled_hello(name, addr);
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
                new_member = true;
            }
        }
        if let Some(peer) = self.neighbors.peers.get_mut(from_n1) {
            if addr != 0 && peer.digests.as_ref() != Some(digests) {
                peer.digests = Some(digests.clone());
            }
        }
        if changed {
            self.transfer.rebuild_peer_index();
            self.refresh_lsa();
        }
        if self.manages() && addr != 0 {
            // Anti-entropy: the digest table localizes divergence
            // to subtrees, and a targeted delta *pull* moves only
            // the objects we actually lack (the peer's own hellos
            // drive the opposite direction symmetrically). A
            // member (re)appearing on the port syncs immediately —
            // this is what makes mobility's join/leave cycles
            // (§6.4) converge — while steady-state mismatches are
            // damped to once per port per few hello cycles.
            let mismatched = self.rib.mismatched(digests);
            if !mismatched.is_empty()
                && (new_member
                    || self.neighbors.peers.get(from_n1).is_some_and(|p| {
                        self.neighbors.ticks >= p.last_resync_tick + RESYNC_DAMP_TICKS
                    }))
            {
                self.request_deltas(from_n1, &mismatched);
            }
        }
    }
}
