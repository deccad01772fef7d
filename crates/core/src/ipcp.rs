//! The IPC process: one member of one DIF.
//!
//! An [`Ipcp`] bundles the paper's three task sets (§4):
//!
//! * **IPC Data Transfer** — [`Ipcp::on_frame`] peeks the header of each
//!   frame arriving on an (N-1) port and either relays it in place toward
//!   its destination address or decodes it and delivers it to a local
//!   EFCP connection or the management task.
//! * **IPC Transfer Control** — one `rina_efcp::Connection` per flow.
//! * **IPC Management** — enrollment (§5.2), flow allocation (§5.3),
//!   neighbor hellos, and RIEP dissemination over the RIB. Dissemination
//!   is batch-preserving, tree-preferred flooding with digest-driven
//!   anti-entropy: hellos carry per-subtree digest tables, mismatches
//!   trigger targeted delta pulls, and floods out non-spanning-tree
//!   ports are token-bucket limited (DESIGN.md §6).
//!
//! The recursion that defines the architecture is in [`N1Kind`]: an (N-1)
//! port is *either* a raw interface (making this a shim DIF "tailored to
//! the physical medium") *or* a flow allocated from a lower DIF on the
//! same node. A shim ([`Ipcp::is_shim`]) is the same struct with work
//! left out, not a second implementation: the two-member DIF a medium
//! defines needs no enrollment and nothing the RIB feeds (dissemination,
//! anti-entropy, LSAs, routing — its only route is the medium and its
//! directory is "the peer"), binds raw flows instead of EFCP
//! connections, and never relays. `is_shim` is read on 21 lines of this
//! file, each one such omission.
//!
//! An `Ipcp` is sans-IO like everything else: methods append [`IpcpOut`]
//! effects which the owning [`crate::node::Node`] executes.
//!
//! Every frame a member receives runs through this file, so it is held
//! panic-free (DESIGN.md §9, R1): indexing, `unwrap`, `expect` and
//! `panic!` are clippy errors here. Loops over the (N-1) port table use
//! `get`; the four functions that keep a proven-safe index or `expect`
//! say why in an `#[expect(clippy::…, reason = "…")]`.

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

use crate::dif::DifConfig;
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::qos::{match_cube, QosSpec};
use crate::rmt::TxClass;
use crate::routing::{EngineStats, Lsa, RouteEngine, LSA_CLASS, LSA_PREFIX};
use bytes::Bytes;
use rina_efcp::{ConnId, Connection};
use rina_rib::{
    subtree_of, DigestTable, EncodedObject, EncodedSummary, Rib, RibObject, RibObjectRef,
};
use rina_sim::{Dur, Time};
use rina_wire::{CdapMsg, CepId, MgmtPdu, Pdu, PduKind, PduView};
use std::collections::BTreeMap;

/// CDAP result code a sponsor returns when its admission window is full:
/// not a refusal — the joiner should back off and retry.
pub const R_ENROLL_BUSY: i32 = -6;

/// RIB object name prefix for delegated address blocks.
pub const BLOCK_PREFIX: &str = "/blocks/";
/// RIB object class for delegated address blocks.
pub const BLOCK_CLASS: &str = "block";

/// How long one admission-window slot stays reserved before the sponsor
/// gives up waiting for the admitted joiner's first hello.
const ADMIT_SLOT_TTL: Dur = Dur::from_millis(1500);

/// Backoff hint sent with [`R_ENROLL_BUSY`] responses. Shorter than the
/// joiner's initial retry period: once a joiner has reached a live
/// sponsor, admission rounds — not timeouts — should pace the wave.
const ADMIT_RETRY_MS: u32 = 100;

/// Minimum hello ticks between digest-triggered delta syncs of one port:
/// anti-entropy must repair losses without turning assembly-time churn
/// (when neighbors' RIBs differ constantly and legitimately) into
/// request storms. Deltas are cheap (summaries + missing objects, per
/// mismatched subtree), so this is tighter than the old full-RIB resync
/// damp.
const RESYNC_DAMP_TICKS: u64 = 4;

/// Byte budget per [`MgmtBody::RibDeltaRequest`] /
/// [`MgmtBody::RibDeltaResponse`] chunk — comfortably under the smallest
/// (N-1) MTU once the PDU and CDAP envelopes are added, so sync traffic
/// is never silently undeliverable.
const DELTA_CHUNK_BYTES: usize = 1024;

/// Hello ticks between resends of an unanswered on-demand directory
/// lookup (scoped `/dir` only): requests ride the spanning tree best
/// effort, so a lookup racing assembly or churn is simply asked again.
const DIR_LOOKUP_RETRY_TICKS: u64 = 2;

/// How many resends an unanswered directory lookup gets before the
/// allocations waiting on it fail. The node's own allocation timeout
/// usually fires first; the late failure is absorbed as a no-op.
const DIR_LOOKUP_RETRIES: u32 = 3;

/// Debounce for *originating* LSA versions ([`Ipcp::refresh_lsa`]): the
/// window the leading-edge test measures and the node's flush timer
/// waits out.
pub(crate) const LSA_DEBOUNCE: Dur = Dur::from_millis(100);

/// Largest RIB snapshot inlined into one [`MgmtBody::EnrollResponse`].
/// Bigger RIBs would overflow the (N-1) MTU in a single PDU — the very
/// wall that capped facilities near 100 members — so past this size the
/// sponsor sends an *empty* snapshot and streams the sync set as
/// MTU-sized [`MgmtBody::RibDeltaResponse`] batches right behind the
/// response, restricted to the subtrees the joiner's digest table does
/// not already cover (version-guarded and therefore idempotent).
const SNAPSHOT_INLINE_MAX: usize = 64;

/// What backs an (N-1) port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum N1Kind {
    /// A raw simulator interface — this IPC process is part of a shim DIF
    /// bound directly to the medium.
    Phys {
        /// Interface index on the node.
        iface: u32,
        /// Link MTU in bytes.
        mtu: usize,
    },
    /// A flow provided by a lower DIF on this node, identified by the
    /// node-local port id.
    Lower {
        /// Node-local port id of the lower flow.
        port: u64,
    },
}

/// One (N-1) port: an adjacency to (usually) one peer IPC process.
#[derive(Clone, Debug)]
pub struct N1Port {
    /// What the port is backed by.
    pub kind: N1Kind,
    /// Peer IPC process name, learned from hellos.
    pub peer_name: Option<AppName>,
    /// Peer's DIF-internal address (0 until learned).
    pub peer_addr: Addr,
    /// Administratively/operationally up.
    pub up: bool,
    /// Last hello heard on this port.
    pub last_hello: Time,
    /// Our hello-tick count when this port last started a delta sync
    /// (damps digest-triggered anti-entropy).
    pub(crate) last_resync_tick: u64,
    /// The peer's RIB digest table from its last hello — the basis of
    /// targeted delta requests and of flood suppression (don't send an
    /// object out a port whose peer provably already holds its subtree).
    pub(crate) peer_digests: Option<DigestTable>,
    /// This port carried an enrollment (we joined through it, or
    /// sponsored the peer over it): it is an edge of the DIF's
    /// dissemination spanning tree. Tree edges alone reach every member,
    /// so floods out tree ports are never rate-limited, while cross
    /// (non-tree) ports go through the DIF's flood token bucket — the
    /// topology-aware suppression that keeps hub flooding O(members),
    /// not O(members × degree).
    pub(crate) tree: bool,
    /// The last hello heard on this port (see [`HelloMemo`]).
    pub(crate) hello_memo: Option<HelloMemo>,
}

impl N1Port {
    /// Whether the peer's last hello proves it holds our exact state of
    /// `subtree` (`ours`, from [`Rib::subtree_digest`]) — and with it
    /// every object of the subtree at the version we hold.
    fn covers(&self, subtree: &str, ours: Option<(u64, u64)>) -> bool {
        ours.is_some() && self.peer_digests.as_ref().and_then(|t| t.get(subtree)) == ours
    }

    /// Up, peer known, and on the spanning tree: a port that carries
    /// tree-scoped lookups and floods.
    fn live_tree(&self) -> bool {
        self.up && self.peer_addr != 0 && self.tree
    }
}

/// A hello's payload bytes with what they decode to. A neighbor whose
/// RIB and address have not moved sends the same bytes every period, so
/// the next hello is usually answered by one byte comparison instead of
/// a CDAP and body decode. The decoded fields are a pure function of the
/// bytes: the memo is replaced when different bytes arrive and never
/// needs invalidating.
#[derive(Clone, Debug)]
pub(crate) struct HelloMemo {
    payload: Bytes,
    name: AppName,
    addr: Addr,
    digests: DigestTable,
}

/// The RIB names a member is authoritative for whatever else it wrote —
/// its member record, its delegated block, its LSA — fixed by its name
/// and address, so built once when the address is assigned rather than
/// per object compared against them.
#[derive(Default)]
struct OwnNames {
    member: String,
    block: String,
    lsa: String,
}

/// Flow allocation phase of one connection endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Requester waiting for the destination's FlowResponse.
    Requesting,
    /// Data can flow.
    Active,
}

struct FlowState {
    conn: Connection,
    port: u64,
    phase: Phase,
    peer: AppName,
}

/// A shim-DIF flow: no EFCP, PDUs pass straight through to the medium.
/// The shim is the degenerate DIF "tailored to the physical medium" — on a
/// point-to-point link there is nothing to relay, sequence, or window, so
/// its data-transfer task reduces to framing plus priority multiplexing.
struct RawFlow {
    port: u64,
    peer_cep: CepId,
    qos_id: u8,
    priority: u8,
    peer: AppName,
    phase: Phase,
}

/// What the node must do on behalf of this IPC process.
#[derive(Debug)]
pub enum IpcpOut {
    /// Transmit a frame on a physical interface, scheduled by `class`.
    TxPhys {
        /// (N-1) port index (must be `N1Kind::Phys`).
        n1: usize,
        /// Encoded PDU.
        frame: Bytes,
        /// Scheduling class (QoS-cube id + priority).
        class: TxClass,
    },
    /// Write an SDU into a lower-DIF flow.
    TxLower {
        /// Node-local port of the lower flow.
        port: u64,
        /// Encoded PDU (the lower DIF's SDU).
        sdu: Bytes,
        /// Scheduling class inherited from the originating QoS cube, so
        /// class differentiation survives multiplexing onto shared lower
        /// flows all the way to the bottleneck medium.
        class: TxClass,
    },
    /// An SDU arrived for the user bound to `port`.
    Deliver {
        /// Node-local port id.
        port: u64,
        /// The SDU.
        sdu: Bytes,
    },
    /// A flow requested earlier is now active.
    FlowActive {
        /// Node-local port id.
        port: u64,
        /// Peer application name.
        peer: AppName,
    },
    /// A flow could not be allocated or has failed.
    FlowFailed {
        /// Node-local port id.
        port: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The peer deallocated this flow.
    FlowClosed {
        /// Node-local port id.
        port: u64,
    },
    /// An inbound flow request: the node must look up the destination
    /// application and call [`Ipcp::flow_accept`] or [`Ipcp::flow_reject`].
    FlowReqIn {
        /// Requesting application.
        src_app: AppName,
        /// Destination application (should be local).
        dst_app: AppName,
        /// Requested QoS.
        spec: QosSpec,
        /// Requester's member address.
        src_addr: Addr,
        /// Requester's endpoint.
        src_cep: CepId,
        /// Invoke id to echo in the response.
        invoke_id: u32,
    },
    /// Enrollment completed; the IPC process now has an address.
    Enrolled,
    /// An (N-1) adjacency's hellos went silent past the expiry deadline.
    /// The node must check whether it owns the flow behind this port
    /// (an adjacency plan allocated it) and, if so, tear the dead flow
    /// down and re-allocate: after a peer crash-restart the remote end
    /// of the old flow no longer exists, so hellos can never resume on
    /// it — without an active re-allocation the adjacency would stay
    /// dead forever and silently partition the DIF.
    N1Expired {
        /// (N-1) port index whose peer expired.
        n1: usize,
    },
}

/// Counters the experiments aggregate per DIF.
#[derive(Clone, Copy, Debug, Default)]
pub struct IpcpStats {
    /// PDUs relayed (not locally originated or delivered).
    pub relayed: u64,
    /// PDUs dropped for lack of a route.
    pub no_route: u64,
    /// PDUs dropped because TTL expired.
    pub ttl_drops: u64,
    /// Relayed PDUs that left on an (N-1) port, TTL byte and CRC trailer
    /// patched in place: `relayed - no_route` at the relay.
    pub relay_fast: u64,
    /// Management PDUs sent (all kinds).
    pub mgmt_tx: u64,
    /// RIEP object updates sent (dissemination + re-flood).
    pub rib_tx: u64,
    /// Floods skipped because the peer's last hello digest already
    /// covered the object's subtree, or the DIF's flood rate limit was
    /// exhausted (anti-entropy repairs whatever a drop loses).
    pub flood_suppressed: u64,
    /// Anti-entropy delta requests sent (per subtree chunk).
    pub delta_requests: u64,
    /// Enrollment requests handled as sponsor.
    pub enrollments_sponsored: u64,
    /// Enrollment requests deferred because the admission window was full.
    pub enrollments_deferred: u64,
    /// Flow requests handled as destination.
    pub flow_reqs_in: u64,
    /// Undecodable frames received.
    pub decode_errors: u64,
    /// Decodable data or control PDUs addressed here whose CEP nobody
    /// owns — no active shim flow, no EFCP connection. Routine for what is
    /// still in flight when a flow is deallocated.
    pub no_flow_drops: u64,
    /// Sponsored members declared failed and garbage-collected.
    pub members_purged: u64,
    /// Objects of ours someone else clobbered (usually a wrong failure
    /// purge across a partition) that we re-asserted at a higher
    /// version.
    pub reasserts: u64,
    /// Directory resolutions served from the lookup cache (scoped
    /// `/dir` only). Same seed must give the same count at any thread
    /// count — the determinism property tests pin this.
    pub dir_cache_hits: u64,
    /// Directory resolutions that missed both own registrations and the
    /// cache (each starts or joins an on-demand lookup).
    pub dir_cache_misses: u64,
    /// [`MgmtBody::DirLookupRequest`]s originated (resends included;
    /// forwarding on behalf of others is not counted).
    pub dir_lookups_sent: u64,
    /// Authoritative [`MgmtBody::DirLookupResponse`]s sent as owner.
    pub dir_lookups_answered: u64,
    /// Cache entries dropped by invalidation (a `/dir` tombstone or the
    /// owner's `/blocks` departure tombstone).
    pub dir_invalidations: u64,
    /// Hellos sent (one per port per tick, plus triggered ones).
    pub hello_tx: u64,
    /// Hello frames actually encoded: the rest of `hello_tx` reused the
    /// frame cached for the current RIB generation and address.
    pub hello_built: u64,
    /// Hellos received.
    pub hello_rx: u64,
    /// Received hellos that went through the full decode: the rest of
    /// `hello_rx` were byte-identical to the port's previous hello.
    pub hello_decoded: u64,
}

enum Pending {
    Enroll,
    FlowAlloc { cep: CepId },
}

/// One flow allocation parked behind an on-demand directory lookup
/// (scoped `/dir` only): resumed by the owner's answer, failed when the
/// retry budget runs out.
struct DirWaiter {
    port: u64,
    src_app: AppName,
    dst_app: AppName,
    spec: QosSpec,
}

/// An in-flight on-demand directory lookup.
struct DirPending {
    waiters: Vec<DirWaiter>,
    /// `hello_ticks` when the request was last sent — drives resends.
    asked_tick: u64,
    /// Resends so far (bounded by [`DIR_LOOKUP_RETRIES`]).
    retries: u32,
    /// Correlation id echoed by the owner's response.
    lookup_id: u64,
}

/// A cached directory resolution (scoped `/dir` only): where the owner
/// said the application lives, at which entry version (so in-flight
/// answers lose to newer tombstones), last used when (deterministic LRU
/// via a monotonic use stamp, not wall time).
#[derive(Clone, Copy, Debug)]
struct DirCached {
    addr: Addr,
    version: u64,
    used: u64,
}

/// One IPC process (see module docs).
pub struct Ipcp {
    /// This process's index within its node (used by the node to route
    /// effects back).
    pub idx: usize,
    /// The DIF's shared configuration.
    pub cfg: DifConfig,
    /// This IPC process's application name (it is an application of the
    /// DIF below).
    pub name: AppName,
    /// DIF-internal address (0 until enrolled).
    pub addr: Addr,
    /// Address block `[lo, hi]` delegated to this member at enrollment:
    /// its own address plus the range it may sponsor its subtree from.
    /// `(addr, addr)` when nothing was delegated.
    pub block: (Addr, Addr),
    /// Shim mode: degenerate two-member DIF bound to a point-to-point
    /// medium; no enrollment, no routing, implicit directory.
    pub is_shim: bool,
    /// Member state.
    enrolled: bool,
    /// The Resource Information Base.
    pub rib: Rib,
    /// The routing engine: graph mirror fed by the RIB's `/lsa/*` watch
    /// hook, incremental SPF, delta-patched forwarding table. Remote
    /// deltas accumulate here until the node's debounce timer runs
    /// [`Ipcp::recompute_routes_now`]; local LSA writes recompute
    /// immediately (failure rerouting stays fast).
    engine: RouteEngine,
    n1: Vec<N1Port>,
    /// Relay index over `n1`: peer address → lowest live port toward it.
    /// Rebuilt on every port up/down/peer-address change so the per-frame
    /// next-hop port lookup is a map probe, not a linear port scan.
    peer_index: BTreeMap<Addr, usize>,
    conns: BTreeMap<CepId, FlowState>,
    /// Connections whose EFCP timer state may have moved since the last
    /// [`Ipcp::conn_timer_wants`] pass. Every mutation path (pump, local
    /// congestion, creation) records the cep here so the node's per-event
    /// timer re-sync polls only the touched connections instead of
    /// scanning the whole table (hundreds of entries on a flow-churn
    /// sink member, once per delivered PDU).
    timer_dirty: Vec<CepId>,
    raw: BTreeMap<CepId, RawFlow>,
    next_cep: CepId,
    next_invoke: u32,
    pending: BTreeMap<u32, Pending>,
    enroll_via: Option<usize>,
    /// Joiners admitted but not yet confirmed up (first hello pending):
    /// joiner name → (admitted at, granted address, granted block). Size
    /// is capped by the DIF's admission window.
    admitting: BTreeMap<AppName, (Time, Addr, (Addr, Addr))>,
    /// Members this process sponsored and saw come up (first enrolled
    /// hello): joiner name → granted address. The sponsor owns these
    /// members' failure garbage collection.
    sponsored: BTreeMap<AppName, Addr>,
    /// Sponsored members whose adjacency expired, on failure watch:
    /// name → (address, when the watch was armed). If nothing proves
    /// the member alive within [`DifConfig::member_gc_grace_ms`], its
    /// RIB objects are purged (one-shot).
    gc_watch: BTreeMap<AppName, (Addr, Time)>,
    /// Applications registered here (drives directory reasserts when a
    /// wrong purge tombstones one of our `/dir/*` entries).
    registered: Vec<AppName>,
    /// This member announced a graceful leave: its objects are
    /// tombstoned and it must not originate new state (LSA refreshes,
    /// reasserts) that would resurrect itself while it lingers.
    departed: bool,
    /// Backoff hint from the last busy sponsor response; the node's
    /// enrollment-retry timer consumes it.
    retry_hint: Option<Dur>,
    /// Pending effects, drained by the node.
    out: Vec<IpcpOut>,
    /// Counters.
    pub stats: IpcpStats,
    /// Neighbor set currently advertised in our LSA.
    advertised: Vec<Addr>,
    /// A neighbor-set change occurred inside the LSA debounce window;
    /// the node's flush timer will batch it into one new version.
    lsa_dirty: bool,
    /// When the LSA was last (re)written — the debounce leading edge.
    lsa_last_write: Time,
    /// Hello periods elapsed (drives periodic re-advertisement).
    hello_ticks: u64,
    /// Shadow of the virtual clock, updated at the public entry points;
    /// drives the flood token bucket without threading `now` through
    /// every dissemination path.
    clock: Time,
    /// Per-port flood queue (port → objects in wire form), flushed as
    /// MTU-sized batches when the node drains effects: everything
    /// flooded within one event-handling pass coalesces into a few PDUs
    /// per port instead of one PDU per object. Each object is encoded
    /// at most once — a re-flooded one not at all, it is queued as the
    /// bytes that arrived — and shared across ports. (BTreeMap for
    /// deterministic flush order — same seed, same event sequence.)
    flood_q: BTreeMap<usize, Vec<EncodedObject>>,
    /// Flood token-bucket level (see [`DifConfig::flood_rate`]).
    flood_tokens: f64,
    /// When the flood bucket last refilled.
    flood_refill_at: Time,
    /// On-demand directory resolution cache (scoped `/dir` only):
    /// name → owner answer, LRU-bounded by [`DifConfig::dir_cache_cap`].
    dir_cache: BTreeMap<String, DirCached>,
    /// Monotonic use stamp backing the cache's deterministic LRU.
    dir_use: u64,
    /// Newest `/dir` tombstone seen per name `(version, origin,
    /// recorded-at)`: the invalidation memory that keeps stale in-flight
    /// lookup answers from resurrecting a deleted entry. Entries expire
    /// after [`DifConfig::member_gc_grace_ms`] — a re-registered owner
    /// restarts its version clock, so tombstone memory held forever
    /// would refuse the reborn entry; past the grace the staleness
    /// window it guards has long closed.
    dir_neg: BTreeMap<String, (u64, Addr, Time)>,
    /// Outstanding directory lookups by RIB name.
    dir_pending: BTreeMap<String, DirPending>,
    /// Correlation ids handed to [`MgmtBody::DirLookupRequest`]s.
    next_lookup: u64,
    /// The encoded hello frame for one `(RIB generation, address)`: a
    /// hello is a function of the digest table, the address and the
    /// (fixed) name, so until one of the first two moves every tick and
    /// every port sends these bytes again.
    hello_cache: Option<(u64, Addr, Bytes)>,
    /// See [`OwnNames`] (empty until an address is assigned).
    own: OwnNames,
}

impl Ipcp {
    /// Create a not-yet-enrolled IPC process for `cfg`, named `name`.
    pub fn new(idx: usize, cfg: DifConfig, name: AppName) -> Self {
        let flood_tokens = cfg.flood_burst as f64;
        let scoped_dir = cfg.scoped_dir;
        Ipcp {
            idx,
            cfg,
            name,
            addr: 0,
            block: (0, 0),
            is_shim: false,
            enrolled: false,
            rib: {
                let mut r = Rib::new(0);
                // Object-level delta hook: the engine mirrors /lsa/*
                // without ever re-decoding the subtree wholesale.
                r.watch_prefix(LSA_PREFIX);
                if scoped_dir {
                    // Owner-held directory: /dir leaves the digest,
                    // snapshot, and delta surface entirely.
                    r.set_local_subtree("/dir");
                }
                r
            },
            engine: RouteEngine::new(0),
            n1: Vec::new(),
            peer_index: BTreeMap::new(),
            conns: BTreeMap::new(),
            timer_dirty: Vec::new(),
            raw: BTreeMap::new(),
            next_cep: 1,
            next_invoke: 1,
            pending: BTreeMap::new(),
            enroll_via: None,
            admitting: BTreeMap::new(),
            sponsored: BTreeMap::new(),
            gc_watch: BTreeMap::new(),
            registered: Vec::new(),
            departed: false,
            retry_hint: None,
            out: Vec::new(),
            stats: IpcpStats::default(),
            advertised: Vec::new(),
            lsa_dirty: false,
            lsa_last_write: Time::ZERO,
            hello_ticks: 0,
            clock: Time::ZERO,
            flood_q: BTreeMap::new(),
            flood_tokens,
            flood_refill_at: Time::ZERO,
            dir_cache: BTreeMap::new(),
            dir_use: 0,
            dir_neg: BTreeMap::new(),
            dir_pending: BTreeMap::new(),
            next_lookup: 0,
            hello_cache: None,
            own: OwnNames::default(),
        }
    }

    /// Whether this process runs the owner-held `/dir` replication
    /// scope (shims have an implicit two-party directory and never do).
    fn scoped_dir(&self) -> bool {
        self.cfg.scoped_dir && !self.is_shim
    }

    /// Make this the DIF's first member, self-assigned `addr`.
    pub fn bootstrap(&mut self, addr: Addr) {
        assert!(!self.enrolled, "already a member");
        assert!(addr != 0, "address 0 is reserved");
        self.become_member(addr, (addr, addr));
        self.rib.write_local(&self.own.member, "member", encode_addr(addr));
        self.drain_rib();
    }

    /// Take up `addr` and `block` as a member of the DIF.
    fn become_member(&mut self, addr: Addr, block: (Addr, Addr)) {
        self.addr = addr;
        self.block = block;
        self.rib.set_origin(addr);
        self.engine.set_self(addr);
        self.enrolled = true;
        self.own = OwnNames {
            member: format!("/members/{}", self.name.key()),
            block: block_name(addr),
            lsa: Lsa::object_name(addr),
        };
    }

    /// Give this (bootstrapped) member the address block it sponsors
    /// from. The enrollment planner hands the bootstrap the whole DIF
    /// range; sub-blocks are delegated recursively at enrollment.
    pub fn set_block(&mut self, block: (Addr, Addr)) {
        assert!(self.enrolled, "only members hold blocks");
        assert!(block.0 <= self.addr && self.addr <= block.1, "own address outside block");
        self.block = block;
        self.rib.write_local(&self.own.block, BLOCK_CLASS, encode_block(block));
        self.drain_rib();
    }

    /// Configure shim mode with the given side address (1 or 2).
    pub fn make_shim(&mut self, side_addr: Addr) {
        self.is_shim = true;
        self.addr = side_addr;
        self.rib.set_origin(side_addr);
        self.enrolled = true;
    }

    /// Whether this process is an enrolled member.
    pub fn is_enrolled(&self) -> bool {
        self.enrolled
    }

    /// Attach an (N-1) port. Returns its index.
    pub fn add_n1(&mut self, kind: N1Kind) -> usize {
        self.n1.push(N1Port {
            kind,
            peer_name: None,
            peer_addr: 0,
            up: true,
            last_hello: Time::ZERO,
            last_resync_tick: 0,
            peer_digests: None,
            tree: false,
            hello_memo: None,
        });
        self.rebuild_peer_index();
        self.n1.len() - 1
    }

    /// The (N-1) ports (read-only view).
    pub fn n1_ports(&self) -> &[N1Port] {
        &self.n1
    }

    /// Find the (N-1) port backed by the given lower-flow port id.
    pub fn n1_by_lower_port(&self, port: u64) -> Option<usize> {
        self.n1.iter().position(|p| p.kind == N1Kind::Lower { port })
    }

    /// Drain pending effects. With [`DifConfig::flood_batch_ms`] of 0,
    /// queued flood batches flush here (one event-handling pass = one
    /// batch); otherwise they wait for the node's aggregation timer so
    /// independent floods passing through within the window coalesce.
    pub fn take_out(&mut self) -> Vec<IpcpOut> {
        if self.cfg.flood_batch_ms == 0 {
            self.flush_floods();
        }
        std::mem::take(&mut self.out)
    }

    /// Like [`Ipcp::take_out`], but swaps the effects into a caller-owned
    /// buffer so a hot flush loop recycles two allocations forever instead
    /// of minting a fresh `Vec` per event.
    pub fn take_out_into(&mut self, buf: &mut Vec<IpcpOut>) {
        if self.cfg.flood_batch_ms == 0 {
            self.flush_floods();
        }
        buf.clear();
        std::mem::swap(&mut self.out, buf);
    }

    /// Whether queued flood objects await the aggregation timer.
    pub fn flood_flush_wanted(&self) -> bool {
        !self.flood_q.is_empty()
    }

    /// Flush queued flood batches now (the aggregation timer fired).
    pub fn flush_floods_now(&mut self, now: Time) {
        self.clock = now;
        self.flush_floods();
    }

    /// EFCP timer deadlines of the connections touched since the last
    /// call, sorted by cep (the same relative order the old full-table
    /// scan produced, so the node arms timers — and numbers timer tokens —
    /// identically). Untouched connections cannot have moved their
    /// deadline, and an unchanged deadline never re-arms, so skipping them
    /// is behavior-preserving.
    pub fn conn_timer_wants(&mut self) -> Vec<(CepId, u64)> {
        if self.timer_dirty.is_empty() {
            return Vec::new();
        }
        self.timer_dirty.sort_unstable();
        self.timer_dirty.dedup();
        let mut out = Vec::with_capacity(self.timer_dirty.len());
        for &cep in &self.timer_dirty {
            if let Some(f) = self.conns.get(&cep) {
                if let Some(t) = f.conn.poll_timeout() {
                    out.push((cep, t));
                }
            }
        }
        self.timer_dirty.clear();
        out
    }

    /// Drive one connection's timers.
    pub fn on_conn_timer(&mut self, cep: CepId, now: Time) {
        if let Some(f) = self.conns.get_mut(&cep) {
            f.conn.on_timeout(now.nanos());
        }
        self.pump_conn(cep, now);
    }

    // ------------------------------------------------------------------
    // Hello / neighbor maintenance
    // ------------------------------------------------------------------

    /// Send a hello on every (N-1) port — including down ones, as a
    /// revival probe: if the medium or lower flow comes back, the peer's
    /// hello response brings the port up again (mobility depends on this:
    /// re-attaching to a previously-left point of attachment must work).
    /// Also expires silent neighbors, and periodically re-advertises this
    /// member's own RIB objects (anti-entropy: RIEP dissemination is
    /// unreliable, so lost updates must eventually be repaired).
    /// Called on the DIF's hello period.
    pub fn tick_hello(&mut self, now: Time) {
        self.clock = now;
        for i in 0..self.n1.len() {
            self.send_hello(i);
        }
        self.hello_ticks += 1;
        if !self.is_shim && self.enrolled && self.hello_ticks.is_multiple_of(8) {
            self.readvertise_own();
        }
        self.retry_dir_lookups();
        // Expire tombstone memory past the member-GC grace: a
        // re-registered owner restarts its version clock, and /dir is
        // off the anti-entropy surface, so memory held forever would
        // refuse the reborn entry's answers. The in-flight answers the
        // memory guards against are milliseconds old, never grace-old.
        if self.cfg.member_gc_grace_ms != 0 {
            let grace = Dur::from_millis(self.cfg.member_gc_grace_ms);
            self.dir_neg.retain(|_, &mut (_, _, t)| now.since(t) <= grace);
        }
        // Expire neighbors we have not heard from.
        let deadline = self.cfg.hello_period * self.cfg.hello_misses as u64;
        let mut changed = false;
        let mut lost: Vec<AppName> = Vec::new();
        for (i, p) in self.n1.iter_mut().enumerate() {
            if p.up
                && p.peer_addr != 0
                && p.last_hello != Time::ZERO
                && now.since(p.last_hello) > deadline
            {
                p.up = false;
                p.peer_addr = 0;
                // An expired neighbor leaves the dissemination tree
                // (see `n1_down`).
                p.tree = false;
                changed = true;
                if let Some(n) = p.peer_name.clone() {
                    lost.push(n);
                }
                self.out.push(IpcpOut::N1Expired { n1: i });
            }
        }
        if changed {
            self.rebuild_peer_index();
        }
        if changed {
            // Adjacency *loss* is urgent: bypass the LSA debounce so
            // the withdrawal floods — and the local table repairs via
            // the delta-classified remove path — this tick, not one
            // debounce window later.
            self.write_lsa_now();
        }
        // Sponsored members whose adjacency just expired go on failure
        // watch; anything proving them alive (a hello, a newly applied
        // object of theirs) cancels it.
        for n in lost {
            if let Some(&a) = self.sponsored.get(&n) {
                self.gc_watch.entry(n).or_insert((a, now));
            }
        }
        if self.cfg.member_gc_grace_ms != 0 && !self.departed && !self.gc_watch.is_empty() {
            let grace = Dur::from_millis(self.cfg.member_gc_grace_ms);
            let due: Vec<(AppName, Addr)> = self
                .gc_watch
                .iter()
                .filter(|&(_, &(_, t))| now.since(t) > grace)
                .map(|(n, &(a, _))| (n.clone(), a))
                .collect();
            for (n, a) in due {
                // One-shot: untrack before purging, so a member that
                // was in fact alive is corrected by its own reassert
                // instead of being purged again on the next expiry.
                self.gc_watch.remove(&n);
                self.sponsored.remove(&n);
                self.purge_member(&n, a);
            }
        }
    }

    /// Re-advertise the objects this member wrote. A port whose peer's
    /// hello digests already cover an object's subtree is suppressed
    /// exactly as [`Ipcp::flood_rib`] would — so a converged facility
    /// goes quiet — but decided here on the stored objects by reference:
    /// only an object some port still lacks is cloned and handed on.
    /// Local-scope subtrees (owner-held /dir) are skipped whole: their
    /// live entries never replicate, and their deletions already flooded
    /// once — departures invalidate through the replicated /blocks
    /// tombstone instead.
    fn readvertise_own(&mut self) {
        let live = || self.n1.iter().filter(|p| p.up && p.peer_addr != 0);
        let live_ports = live().count() as u64;
        let mut lacking: Vec<RibObject> = Vec::new();
        let mut suppressed = 0;
        for o in self.rib.iter_all().filter(|o| o.origin == self.addr) {
            let subtree = subtree_of(&o.name);
            if self.rib.is_local_subtree(subtree) {
                continue;
            }
            let ours = self.rib.subtree_digest(subtree);
            if live().all(|p| p.covers(subtree, ours)) {
                suppressed += live_ports;
            } else {
                lacking.push(o.clone());
            }
        }
        self.stats.flood_suppressed += suppressed;
        for o in &lacking {
            self.flood_rib(&o.name, None, || EncodedObject::of(o));
        }
    }

    /// The current hello, fully encoded as a link-local frame: built
    /// once per `(RIB generation, address)` and shared — by every port
    /// of a tick (a hub sends ~degree identical hellos) and by every
    /// tick until the RIB or the address moves.
    fn hello_frame(&mut self) -> Bytes {
        let key = (self.rib.generation(), self.addr);
        if let Some((generation, addr, frame)) = &self.hello_cache {
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
        let payload = body.encode(0, 0);
        let frame =
            Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: self.addr, ttl: 1, payload }).encode();
        self.hello_cache = Some((key.0, key.1, frame.clone()));
        frame
    }

    fn send_hello(&mut self, n1: usize) {
        let frame = self.hello_frame();
        self.stats.mgmt_tx += 1;
        self.stats.hello_tx += 1;
        self.tx_n1(n1, frame, TxClass::mgmt());
    }

    /// Anti-entropy pull: for each of `subtrees`, send the peer on `n1`
    /// our version summary in MTU-sized name-range chunks; the peer
    /// answers with exactly the objects we lack. Replaces the old
    /// push-the-whole-RIB resync — cost tracks the divergence, not the
    /// RIB.
    #[expect(
        clippy::indexing_slicing,
        reason = "chunking cursor over a locally built summary Vec: start/end are clamped to summary.len() by the loop conditions, never wire-derived"
    )]
    fn request_deltas(&mut self, n1: usize, subtrees: &[String]) {
        if let Some(p) = self.n1.get_mut(n1) {
            p.last_resync_tick = self.hello_ticks;
        }
        // The summaries borrow their names from the RIB; sending wants
        // `&mut self`, so every chunk is encoded first.
        let mut requests = Vec::new();
        for st in subtrees {
            let summary = self.rib.summary(st);
            // Chunk on the summary's encoded size; boundaries are object
            // names so the responder can detect absences per range.
            let mut start = 0usize;
            loop {
                let mut bytes = 0usize;
                let mut end = start;
                while end < summary.len() && bytes < DELTA_CHUNK_BYTES {
                    bytes += summary[end].name.len() + 12;
                    end += 1;
                }
                let name_at = |i: usize| summary.get(i).map_or("", |v| v.name).to_string();
                requests.push(MgmtBody::RibDeltaRequest {
                    subtree: st.clone(),
                    from: if start == 0 { String::new() } else { name_at(start) },
                    upto: name_at(end),
                    summary: EncodedSummary::of(&summary[start..end]),
                });
                if end >= summary.len() {
                    break;
                }
                start = end;
            }
        }
        for body in requests {
            self.stats.delta_requests += 1;
            self.send_mgmt_on(n1, body, 0, 0);
        }
    }

    /// Push the full objects of `subtrees` to the peer on `n1` as
    /// MTU-sized [`MgmtBody::RibDeltaResponse`] batches — the enrollment
    /// sync stream (version-guarded, so idempotent under retries).
    fn stream_subtrees(&mut self, n1: usize, subtrees: &[String]) {
        if let Some(p) = self.n1.get_mut(n1) {
            p.last_resync_tick = self.hello_ticks;
        }
        for st in subtrees {
            let encs: Vec<EncodedObject> =
                self.rib.delta_for(st, "", "", &[]).0.into_iter().map(EncodedObject::of).collect();
            self.send_encoded_batches(n1, st, &encs);
        }
    }

    /// Mark an (N-1) port down (local failure detection: the lower flow
    /// failed or the interface reported link-down).
    pub fn n1_down(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if let Some(p) = self.n1.get_mut(n1) {
            if p.up {
                p.up = false;
                p.peer_addr = 0;
                // A dead edge is no longer part of the dissemination
                // tree; if the peer returns it re-earns tree status by
                // re-enrolling (fresh members) or syncs via delta pulls
                // (mobility reattachment). Leaving it set would let
                // every historical enrollment edge flood rate-unlimited
                // forever.
                p.tree = false;
                self.rebuild_peer_index();
                // Loss bypasses the debounce (see `tick_hello`).
                self.write_lsa_now();
            }
        }
    }

    /// Mark an (N-1) port back up and re-hello.
    pub fn n1_up(&mut self, n1: usize, now: Time) {
        self.clock = self.clock.max(now);
        if let Some(p) = self.n1.get_mut(n1) {
            p.up = true;
            p.last_hello = now;
        }
        self.rebuild_peer_index();
        self.send_hello(n1);
    }

    /// Gracefully leave the DIF: tombstone every object this member is
    /// responsible for — its member record, delegated block, LSA, and
    /// everything it originated (directory registrations included) — so
    /// the deletions flood and anti-entropy exactly like any other RIB
    /// update, and stop originating new state. The caller must keep the
    /// process attached for at least one hello period afterwards so the
    /// queued tombstones actually leave the node (leave vs fail is
    /// precisely "the tombstones got out" vs "the sponsor's failure GC
    /// has to reconstruct them").
    pub fn announce_leave(&mut self, now: Time) {
        if !self.enrolled || self.is_shim || self.departed {
            return;
        }
        self.clock = self.clock.max(now);
        self.departed = true;
        for n in self.departure_names(&self.name.clone(), self.addr) {
            self.rib.delete_local(&n);
        }
        self.drain_rib();
    }

    /// The RIB objects that depart with member (`name`, `addr`): its
    /// member record, delegated block, LSA, and everything else it
    /// originated — EXCEPT the member and block records it wrote *as a
    /// sponsor* for other members. Those records carry the sponsor's
    /// origin (admission authored them) but describe still-live members;
    /// tombstoning them would force every described member through a
    /// reassert round for state that was never the departing member's
    /// to retract.
    fn departure_names(&self, name: &AppName, addr: Addr) -> Vec<String> {
        let member_rec = format!("/members/{}", name.key());
        let mut names: Vec<String> = self
            .rib
            .live_of_origin(addr)
            .into_iter()
            .filter(|n| {
                if let Some(owner) = n.strip_prefix(BLOCK_PREFIX) {
                    return owner.parse::<u64>().map(|a| a == addr).unwrap_or(true);
                }
                if n.starts_with("/members/") {
                    return *n == member_rec;
                }
                true
            })
            .collect();
        names.push(member_rec);
        names.push(block_name(addr));
        names.push(Lsa::object_name(addr));
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Whether this member has announced a graceful leave.
    pub fn is_departed(&self) -> bool {
        self.departed
    }

    /// Garbage-collect a failed sponsored member: tombstone its member
    /// record, block, LSA, and every other live object it originated
    /// (directory entries, re-asserted records). The tombstones ride
    /// the ordinary dissemination machinery — flood now, digest-driven
    /// anti-entropy later — so departed state cannot linger anywhere.
    fn purge_member(&mut self, name: &AppName, addr: Addr) {
        for n in self.departure_names(name, addr) {
            self.rib.delete_local(&n);
        }
        if self.scoped_dir() {
            // The sponsor tombstones the block locally, so the wire
            // hook in `apply_and_reflood` never sees it: drop our own
            // cached answers pointing at the purged member here.
            self.invalidate_dir_cache_for(addr);
        }
        self.stats.members_purged += 1;
        self.drain_rib();
    }

    /// Re-advertise our LSA if the live neighbor set changed — with a
    /// leading-edge debounce. The first change after a quiet period
    /// writes (and floods) immediately, so failure rerouting and
    /// mobility stay fast; further changes inside [`LSA_DEBOUNCE`] mark
    /// the LSA dirty and are batched into one version when the node's
    /// flush timer fires. A hub admitting a wave of joiners then emits a
    /// handful of LSA versions instead of one per attachment — each saved
    /// version is one less object flooded DIF-wide.
    fn refresh_lsa(&mut self) {
        if !self.enrolled || self.is_shim {
            return;
        }
        if self.lsa_last_write != Time::ZERO && self.clock.since(self.lsa_last_write) < LSA_DEBOUNCE
        {
            self.lsa_dirty = true;
            return;
        }
        self.write_lsa_now();
    }

    /// Whether a debounced LSA re-advertisement is pending (the node
    /// arms the flush timer and calls [`Ipcp::flush_lsa_now`]).
    pub fn lsa_flush_wanted(&self) -> bool {
        self.lsa_dirty
    }

    /// Run the deferred LSA re-advertisement (no-op when clean).
    pub fn flush_lsa_now(&mut self, now: Time) {
        self.clock = now;
        if self.lsa_dirty {
            self.write_lsa_now();
        }
    }

    /// Unconditionally recompute the neighbor set and, if it differs
    /// from what we advertise, write and disseminate a new LSA version —
    /// then repair the local forwarding table immediately: our own
    /// adjacency changes are delta-classified like any other edge, so
    /// the repair is cheap, and failure rerouting must not wait out the
    /// node's debounce window.
    fn write_lsa_now(&mut self) {
        if !self.enrolled || self.is_shim || self.departed {
            // A departed member must not resurrect its tombstoned LSA.
            return;
        }
        self.lsa_dirty = false;
        let mut neigh: Vec<Addr> =
            self.n1.iter().filter(|p| p.up && p.peer_addr != 0).map(|p| p.peer_addr).collect();
        neigh.sort_unstable();
        neigh.dedup();
        if neigh == self.advertised {
            return;
        }
        self.lsa_last_write = self.clock;
        self.advertised = neigh.clone();
        let lsa = Lsa { neighbors: neigh.into_iter().map(|a| (a, 1)).collect() };
        self.rib.write_local(&Lsa::object_name(self.addr), LSA_CLASS, lsa.encode());
        self.drain_rib();
        self.engine.recompute();
    }

    /// Drain the RIB's `/lsa/*` watch queue into the routing engine —
    /// the single funnel through which the engine's graph mirror learns
    /// of LSA changes, whatever path stored them (local write, flood,
    /// delta response, enrollment snapshot, tombstone).
    fn sync_engine(&mut self) {
        while let Some(o) = self.rib.poll_watch() {
            if o.class != LSA_CLASS {
                continue;
            }
            let Some(addr) = Lsa::addr_of_name(&o.name) else { continue };
            if o.deleted {
                self.engine.on_lsa(addr, None);
            } else if let Ok(lsa) = Lsa::decode(&o.value) {
                self.engine.on_lsa(addr, Some(lsa));
            }
            // An undecodable live value keeps the last good mirror entry:
            // withdrawing routes over a corrupt (or future-format) update
            // would turn one bad PDU into an outage.
        }
    }

    /// Number of LSAs currently mirrored (drives the adaptive recompute
    /// debounce for full recomputations: their cost scales with the LSA
    /// count, so the fallback's debounce window should too).
    pub fn lsa_count(&self) -> usize {
        self.engine.lsa_count()
    }

    /// Current forwarding table (step one: destination → next hops).
    pub fn fwd(&self) -> &crate::routing::ForwardingTable {
        self.engine.table()
    }

    /// SPF counters (full vs incremental invocations, patched entries).
    pub fn route_stats(&self) -> EngineStats {
        self.engine.stats
    }

    /// Whether a debounced route recomputation is wanted (the node arms
    /// a short timer and calls [`Ipcp::recompute_routes_now`]). Drains
    /// the RIB's delta hook first, so the answer reflects everything
    /// stored so far whichever path stored it.
    pub fn routes_dirty(&mut self) -> bool {
        self.sync_engine();
        self.engine.dirty()
    }

    /// Whether the queued LSA deltas require the full-recomputation
    /// fallback (bootstrap, re-rooting after enrollment). Ordinary
    /// delta-classified batches — neighbor changes included — are
    /// cheap, so the node debounces them on a short constant instead of
    /// the LSA-count-stretched window.
    pub fn pending_full_recompute(&self) -> bool {
        self.engine.pending_full()
    }

    /// Run the deferred SPF (no-op when nothing changed).
    pub fn recompute_routes_now(&mut self) {
        self.sync_engine();
        self.engine.recompute();
    }

    // ------------------------------------------------------------------
    // Enrollment (§5.2)
    // ------------------------------------------------------------------

    /// Begin enrollment through the member reachable over (N-1) port `n1`,
    /// presenting `credential` and proposing `proposed_addr` (0 = let the
    /// sponsor choose) plus the address block the joiner's own subtree
    /// will occupy ((0, 0) = none).
    pub fn start_enroll(
        &mut self,
        n1: usize,
        credential: &str,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
    ) {
        assert!(!self.enrolled, "already enrolled");
        self.enroll_via = Some(n1);
        self.send_hello(n1);
        let invoke = self.next_invoke();
        self.pending.insert(invoke, Pending::Enroll);
        let body = MgmtBody::EnrollRequest {
            name: self.name.clone(),
            credential: credential.to_string(),
            proposed_addr,
            proposed_block,
            digests: self.rib.digest_table(),
        };
        self.send_mgmt_on(n1, body, invoke, 0);
    }

    /// Retry enrollment if still not a member (drives the retry timer).
    pub fn retry_enroll(
        &mut self,
        credential: &str,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
    ) {
        if self.enrolled {
            return;
        }
        if let Some(n1) = self.enroll_via {
            let invoke = self.next_invoke();
            self.pending.insert(invoke, Pending::Enroll);
            let body = MgmtBody::EnrollRequest {
                name: self.name.clone(),
                credential: credential.to_string(),
                proposed_addr,
                proposed_block,
                // A retry advertises whatever the lost round already
                // synced, so the sponsor re-streams only the rest.
                digests: self.rib.digest_table(),
            };
            self.send_mgmt_on(n1, body, invoke, 0);
        }
    }

    /// How soon the enrollment-retry timer should re-fire, if a sponsor
    /// asked for a specific backoff (consumed on read).
    pub fn take_enroll_retry_hint(&mut self) -> Option<Dur> {
        self.retry_hint.take()
    }

    /// Outstanding `Pending::Enroll` entries — must be 0 once enrolled
    /// (retried requests are garbage-collected on success).
    pub fn pending_enrolls(&self) -> usize {
        self.pending.values().filter(|p| matches!(p, Pending::Enroll)).count()
    }

    /// Choose the address and block for an enrollee, honouring its
    /// proposal when it conflicts with nothing we know. Sibling blocks
    /// must stay disjoint: a proposal that *partially* overlaps a known
    /// block (neither contains the other) is refused. A refused or
    /// absent proposal no longer dooms the joiner to a fragmenting
    /// singleton: a re-enrolling member gets its previous grant back
    /// (identity reuse — its stale records become its records again
    /// instead of colliding with them), and otherwise the sponsor
    /// *carves* a fresh sub-range out of its own delegated block, so
    /// unplanned joiners stay aggregatable with the sponsor's subtree.
    /// Only when the block is exhausted does the legacy fallback — a
    /// singleton past everything delegated — fire.
    fn assign_enrollee(
        &self,
        name: &AppName,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
    ) -> (Addr, (Addr, Addr)) {
        let proposed_block =
            if proposed_block == (0, 0) { (proposed_addr, proposed_addr) } else { proposed_block };
        let mut max_addr = self.addr.max(self.block.1);
        let mut taken = proposed_addr == 0
            || proposed_addr == self.addr
            || proposed_addr < proposed_block.0
            || proposed_addr > proposed_block.1;
        let own_member_name = format!("/members/{}", name.key());
        for o in self.rib.iter_prefix("/members/") {
            if let Some(a) = decode_addr(&o.value) {
                max_addr = max_addr.max(a);
                if a == proposed_addr && o.name != own_member_name {
                    taken = true;
                }
            }
        }
        for o in self.rib.iter_prefix(BLOCK_PREFIX) {
            let Some(b) = decode_block(&o.value) else { continue };
            max_addr = max_addr.max(b.1);
            let disjoint = proposed_block.1 < b.0 || b.1 < proposed_block.0;
            // Nesting is only legitimate *inward*: a proposal may sit
            // inside an ancestor's block (enrollment runs top-down, so
            // every known containing block is an ancestor's). A proposal
            // that swallows an already-delegated block would let two
            // sponsors hand out the same addresses.
            let inside = proposed_block.0 >= b.0 && proposed_block.1 <= b.1;
            if !disjoint && !inside {
                taken = true;
            }
            // A block equal to ours belongs to us; a proposal claiming it
            // wholesale is only fine when it is the joiner's own retry.
            if b == proposed_block && o.name != block_name(proposed_addr) {
                taken = true;
            }
        }
        if !taken {
            return (proposed_addr, proposed_block);
        }
        // Identity reuse: a member that failed (or lost its state) and
        // re-enrolls under the same name is re-granted its recorded
        // address and block.
        if let Some(a) = self.rib.get(&own_member_name).and_then(|o| decode_addr(&o.value)) {
            if a != 0 && a != self.addr {
                let b = self
                    .rib
                    .get(&block_name(a))
                    .and_then(|o| decode_block(&o.value))
                    .filter(|&(lo, hi)| lo <= a && a <= hi)
                    .unwrap_or((a, a));
                return (a, b);
            }
        }
        if let Some(grant) = self.carve_block() {
            return grant;
        }
        let a = max_addr + 1;
        (a, (a, a))
    }

    /// Carve an unused sub-range out of this member's own delegated
    /// block for a joiner that proposed nothing usable: the joiner gets
    /// the first address of the largest free gap, plus the first half
    /// of that gap as its own block to sponsor from. Repeated carving
    /// halves geometrically, so one sponsor absorbs O(log block-size)
    /// generations of unplanned joiners before ever falling back to a
    /// singleton — this is what keeps `aggregated_len` bounded under
    /// churn. Returns `None` when the block is a singleton or fully
    /// delegated.
    fn carve_block(&self) -> Option<(Addr, (Addr, Addr))> {
        let (lo, hi) = self.block;
        if lo >= hi {
            return None;
        }
        // Everything already spoken for inside our block: our own
        // address, delegated sub-blocks, and member addresses in range.
        // Blocks *containing* ours are ancestors' (enrollment delegates
        // top-down) — carving may only subdivide what was delegated to
        // us, so they are skipped, as is our own block record.
        let mut occ: Vec<(Addr, Addr)> = vec![(self.addr, self.addr)];
        for o in self.rib.iter_prefix(BLOCK_PREFIX) {
            let Some(b) = decode_block(&o.value) else { continue };
            if b.0 <= lo && hi <= b.1 {
                continue;
            }
            if b.1 >= lo && b.0 <= hi {
                occ.push((b.0.max(lo), b.1.min(hi)));
            }
        }
        for o in self.rib.iter_prefix("/members/") {
            if let Some(a) = decode_addr(&o.value) {
                if lo <= a && a <= hi {
                    occ.push((a, a));
                }
            }
        }
        occ.sort_unstable();
        let mut merged: Vec<(Addr, Addr)> = Vec::new();
        for r in occ {
            match merged.last_mut() {
                Some(m) if r.0 <= m.1.saturating_add(1) => m.1 = m.1.max(r.1),
                _ => merged.push(r),
            }
        }
        // Largest free gap between the merged occupied ranges.
        let mut gaps: Vec<(Addr, Addr)> = Vec::new();
        let mut cursor = lo;
        for m in &merged {
            if m.0 > cursor {
                gaps.push((cursor, m.0 - 1));
            }
            cursor = cursor.max(m.1.saturating_add(1));
        }
        if cursor <= hi {
            gaps.push((cursor, hi));
        }
        let mut best: Option<(Addr, Addr)> = None;
        for (g0, g1) in gaps {
            if best.is_none_or(|(b0, b1)| g1 - g0 > b1 - b0) {
                best = Some((g0, g1));
            }
        }
        let (g0, g1) = best?;
        Some((g0, (g0, g0 + (g1 - g0) / 2)))
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_enroll_request(
        &mut self,
        from_n1: usize,
        name: AppName,
        credential: String,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
        joiner_digests: DigestTable,
        invoke_id: u32,
        now: Time,
    ) {
        let refuse = |retry_after_ms: u32| MgmtBody::EnrollResponse {
            addr: 0,
            block: (0, 0),
            retry_after_ms,
            snapshot: vec![],
        };
        if !self.enrolled || self.is_shim {
            let body = refuse(0);
            self.send_mgmt_on(from_n1, body, invoke_id, -1);
            return;
        }
        if !self.cfg.auth.verify(&credential) {
            let body = refuse(0);
            self.send_mgmt_on(from_n1, body, invoke_id, -2);
            return;
        }
        // Free slots of joiners we have stopped waiting for.
        self.admitting.retain(|_, &mut (t, _, _)| now.since(t) <= ADMIT_SLOT_TTL);
        // A retry from a joiner already holding a slot (its response was
        // lost): re-grant the same address and block, idempotently.
        let granted = self.admitting.get(&name).map(|&(_, a, b)| (a, b));
        let (new_addr, new_block) = match granted {
            Some(g) => g,
            None => {
                let window = self.cfg.admission_window as usize;
                if window != 0 && self.admitting.len() >= window {
                    self.stats.enrollments_deferred += 1;
                    let body = refuse(ADMIT_RETRY_MS);
                    self.send_mgmt_on(from_n1, body, invoke_id, R_ENROLL_BUSY);
                    return;
                }
                self.assign_enrollee(&name, proposed_addr, proposed_block)
            }
        };
        self.admitting.insert(name.clone(), (now, new_addr, new_block));
        // An enrollment request is proof of life: a re-enrolling member
        // must not be purged by its own pending failure watch.
        self.gc_watch.remove(&name);
        self.stats.enrollments_sponsored += 1;
        // Value-guarded: a re-granting retry must not bump versions and
        // re-flood two unchanged objects to the whole DIF.
        self.rib.write_local_if_changed(
            &format!("/members/{}", name.key()),
            "member",
            encode_addr(new_addr),
        );
        self.rib.write_local_if_changed(
            &block_name(new_addr),
            BLOCK_CLASS,
            encode_block(new_block),
        );
        // Sync set captured *after* recording the new member so the
        // joiner sees itself. Small RIBs ride inline in the response;
        // big ones would overflow the (N-1) MTU, so they stream as
        // batched subtree deltas behind an empty-snapshot response —
        // and only for the subtrees the joiner's advertised digest
        // table does not already cover: a retrying or re-enrolling
        // joiner costs O(missing), not O(RIB). (The snapshot clone
        // itself is taken only on the inline path — cloning a growing
        // RIB per sponsored joiner just to count it was an O(members ×
        // RIB) tax on assembly.)
        let stream = self.rib.object_count() > SNAPSHOT_INLINE_MAX;
        if let Some(p) = self.n1.get_mut(from_n1) {
            p.peer_name = Some(name);
            p.peer_addr = new_addr;
            // Sponsoring over this port makes it a spanning-tree edge.
            p.tree = true;
        }
        self.rebuild_peer_index();
        let body = MgmtBody::EnrollResponse {
            addr: new_addr,
            block: new_block,
            retry_after_ms: 0,
            snapshot: if stream {
                vec![]
            } else {
                self.rib.snapshot().iter().map(EncodedObject::of).collect()
            },
        };
        self.send_mgmt_on(from_n1, body, invoke_id, 0);
        if stream {
            let missing = self.rib.mismatched(&joiner_digests);
            self.stream_subtrees(from_n1, &missing);
        }
        self.drain_rib();
        self.refresh_lsa();
    }

    fn handle_enroll_response(
        &mut self,
        addr: Addr,
        block: (Addr, Addr),
        retry_after_ms: u32,
        snapshot: Vec<EncodedObject>,
        result: i32,
    ) {
        if self.enrolled {
            return; // duplicate response to a retried request
        }
        if result == R_ENROLL_BUSY {
            // The sponsor's admission window is full: pace the retry to
            // its hint instead of the default timeout.
            self.retry_hint = Some(Dur::from_millis(retry_after_ms.max(1) as u64));
            return;
        }
        if result != 0 || addr == 0 {
            return; // keep retrying (or give up via node policy)
        }
        self.become_member(addr, if block == (0, 0) { (addr, addr) } else { block });
        // The port we enrolled through is our spanning-tree edge.
        if let Some(p) = self.enroll_via.and_then(|n1| self.n1.get_mut(n1)) {
            p.tree = true;
        }
        // Requests retried before this response landed are now moot.
        self.pending.retain(|_, p| !matches!(p, Pending::Enroll));
        for o in &snapshot {
            self.rib.apply_ref(&o.view());
        }
        self.sync_engine();
        self.engine.recompute();
        // Announce ourselves on every port and advertise our adjacency.
        for i in 0..self.n1.len() {
            if self.n1.get(i).is_some_and(|p| p.up) {
                self.send_hello(i);
            }
        }
        self.refresh_lsa();
        self.out.push(IpcpOut::Enrolled);
    }

    // ------------------------------------------------------------------
    // Directory
    // ------------------------------------------------------------------

    /// Register a local application in this DIF's directory.
    pub fn dir_register(&mut self, app: &AppName) {
        if self.is_shim {
            return; // shims have an implicit two-party directory
        }
        if !self.registered.contains(app) {
            self.registered.push(app.clone());
        }
        self.rib.write_local(&format!("/dir/{}", app.key()), "dir", encode_addr(self.addr));
        self.drain_rib();
    }

    /// Remove a local application from this DIF's directory.
    pub fn dir_unregister(&mut self, app: &AppName) {
        if self.is_shim {
            return;
        }
        self.registered.retain(|r| r != app);
        self.rib.delete_local(&format!("/dir/{}", app.key()));
        self.drain_rib();
    }

    /// Where (which member address) an application is registered, if known.
    pub fn dir_lookup(&self, app: &AppName) -> Option<Addr> {
        if self.is_shim {
            // Degenerate directory: the peer might have it.
            return self.peer_addr_any();
        }
        self.rib.get(&format!("/dir/{}", app.key())).and_then(|o| decode_addr(&o.value))
    }

    fn peer_addr_any(&self) -> Option<Addr> {
        self.n1.iter().find(|p| p.up).map(|_| if self.addr == 1 { 2 } else { 1 })
    }

    /// Resolve `app` from local knowledge under the scoped-`/dir`
    /// policy: own registrations first (the only entries a scoped RIB
    /// holds), then the lookup cache. Cache consultations are counted —
    /// the determinism property tests pin hit/miss counters across
    /// thread counts.
    fn resolve_dir_local(&mut self, app: &AppName) -> Option<Addr> {
        let name = format!("/dir/{}", app.key());
        if let Some(o) = self.rib.get(&name) {
            return decode_addr(&o.value);
        }
        if let Some(c) = self.dir_cache.get_mut(&name) {
            self.dir_use += 1;
            c.used = self.dir_use;
            self.stats.dir_cache_hits += 1;
            return Some(c.addr);
        }
        self.stats.dir_cache_misses += 1;
        None
    }

    /// Park a flow allocation behind an on-demand directory lookup:
    /// ask the spanning tree for the owner's entry and continue (or
    /// fail) the allocation when the answer (or the retry budget)
    /// arrives. Concurrent allocations to the same name share one
    /// outstanding request.
    fn start_dir_lookup(&mut self, port: u64, src_app: AppName, dst_app: AppName, spec: QosSpec) {
        let name = format!("/dir/{}", dst_app.key());
        let w = DirWaiter { port, src_app, dst_app, spec };
        if let Some(p) = self.dir_pending.get_mut(&name) {
            p.waiters.push(w);
            return;
        }
        self.next_lookup += 1;
        let id = self.next_lookup;
        self.dir_pending.insert(
            name.clone(),
            DirPending {
                waiters: vec![w],
                asked_tick: self.hello_ticks,
                retries: 0,
                lookup_id: id,
            },
        );
        self.send_dir_lookup(&name, id);
    }

    /// Emit one [`MgmtBody::DirLookupRequest`] out every live tree
    /// port. The tree alone reaches every member and is acyclic, so
    /// propagation needs no duplicate-suppression state.
    fn send_dir_lookup(&mut self, name: &str, lookup_id: u64) {
        for i in 0..self.n1.len() {
            if self.n1.get(i).is_some_and(N1Port::live_tree) {
                let body = MgmtBody::DirLookupRequest {
                    name: name.to_string(),
                    origin: self.addr,
                    lookup_id,
                };
                self.stats.dir_lookups_sent += 1;
                self.send_mgmt_on(i, body, 0, 0);
            }
        }
    }

    /// Resend outstanding directory lookups on the hello cadence and
    /// fail the allocations whose retry budget ran out (the node's own
    /// allocation timeout has usually beaten us to it; its port is
    /// already gone and the late failure is a no-op).
    fn retry_dir_lookups(&mut self) {
        if !self.scoped_dir() || self.dir_pending.is_empty() {
            return;
        }
        let due: Vec<String> = self
            .dir_pending
            .iter()
            .filter(|(_, p)| self.hello_ticks >= p.asked_tick + DIR_LOOKUP_RETRY_TICKS)
            .map(|(n, _)| n.clone())
            .collect();
        for name in due {
            let Some(p) = self.dir_pending.get_mut(&name) else { continue };
            if p.retries >= DIR_LOOKUP_RETRIES {
                let Some(p) = self.dir_pending.remove(&name) else { continue };
                for w in p.waiters {
                    self.out.push(IpcpOut::FlowFailed {
                        port: w.port,
                        reason: "destination unknown in DIF",
                    });
                }
                continue;
            }
            p.retries += 1;
            p.asked_tick = self.hello_ticks;
            let id = p.lookup_id;
            self.send_dir_lookup(&name, id);
        }
    }

    /// A directory lookup reached us: answer if we hold the live entry
    /// as its authoritative owner, else forward it down the spanning
    /// tree (away from the ingress port).
    fn handle_dir_lookup_request(
        &mut self,
        name: String,
        origin: Addr,
        lookup_id: u64,
        from_n1: usize,
    ) {
        if self.is_shim || !self.enrolled || origin == 0 || origin == self.addr {
            return;
        }
        let own = self
            .rib
            .get(&name)
            .filter(|o| o.origin == self.addr)
            .map(|o| (decode_addr(&o.value), o.version));
        if let Some((maybe_addr, version)) = own {
            let Some(addr) = maybe_addr else { return };
            let body = MgmtBody::DirLookupResponse { name, addr, version, lookup_id };
            self.stats.dir_lookups_answered += 1;
            self.send_mgmt_addr(origin, body, 0, 0);
            return;
        }
        for i in 0..self.n1.len() {
            if i != from_n1 && self.n1.get(i).is_some_and(N1Port::live_tree) {
                let body = MgmtBody::DirLookupRequest { name: name.clone(), origin, lookup_id };
                self.send_mgmt_on(i, body, 0, 0);
            }
        }
    }

    /// An authoritative lookup answer arrived: guard it against every
    /// tombstone we know (a stale in-flight answer must never
    /// resurrect a deleted entry or a departed owner), cache it, and
    /// resume the allocations waiting on the name.
    fn handle_dir_lookup_response(&mut self, name: String, addr: Addr, version: u64) {
        if !self.scoped_dir() || addr == 0 || addr == self.addr {
            return;
        }
        if let Some(&(tv, to, _)) = self.dir_neg.get(&name) {
            if (version, addr) <= (tv, to) {
                return; // the answer lost the race with a newer deletion
            }
        }
        if self.rib.get(&block_name(addr)).is_none() {
            // The owner's member state is already tombstoned DIF-wide:
            // the answer raced its departure. Serving or caching it
            // would point flows at a dead member past the GC grace.
            return;
        }
        let mut resolved = addr;
        let cap = self.cfg.dir_cache_cap as usize;
        if cap > 0 {
            if !self.dir_cache.contains_key(&name) && self.dir_cache.len() >= cap {
                // Deterministic LRU: the use stamp is monotonic and
                // unique, so the victim is unambiguous.
                if let Some(evict) =
                    self.dir_cache.iter().min_by_key(|(_, c)| c.used).map(|(n, _)| n.clone())
                {
                    self.dir_cache.remove(&evict);
                }
            }
            self.dir_use += 1;
            let used = self.dir_use;
            let e = self.dir_cache.entry(name.clone()).or_insert(DirCached { addr, version, used });
            if (version, addr) >= (e.version, e.addr) {
                *e = DirCached { addr, version, used };
            } else {
                e.used = used;
            }
            resolved = e.addr;
        }
        if let Some(p) = self.dir_pending.remove(&name) {
            for w in p.waiters {
                self.alloc_flow_resolved(w.port, w.src_app, w.dst_app, w.spec, resolved);
            }
        }
    }

    /// Read-only view of the on-demand directory cache, for tests and
    /// measurement: `(object name, owner address, entry version)` per
    /// cached answer.
    pub fn dir_cache_entries(&self) -> Vec<(String, Addr, u64)> {
        self.dir_cache.iter().map(|(n, c)| (n.clone(), c.addr, c.version)).collect()
    }

    /// Drop every cached directory entry pointing at `addr` — the
    /// owner departed (graceful leave or sponsor purge), announced by
    /// its DIF-wide `/blocks` tombstone.
    fn invalidate_dir_cache_for(&mut self, addr: Addr) {
        let before = self.dir_cache.len();
        self.dir_cache.retain(|_, c| c.addr != addr);
        self.stats.dir_invalidations += (before - self.dir_cache.len()) as u64;
    }

    /// A `/dir` object arrived over the wire in scoped mode and we are
    /// not its owner: nothing is stored — non-owners hold no foreign
    /// directory state. Deletions are the cache-invalidation channel:
    /// remember the newest tombstone per name, drop the cache entry it
    /// kills, and pass it down the spanning tree exactly once (the
    /// newness check is the duplicate suppression) as `enc`, the bytes
    /// `obj` arrived in.
    fn on_scoped_dir_flood(&mut self, obj: &RibObjectRef<'_>, enc: &EncodedObject, from_n1: usize) {
        if !obj.deleted {
            return; // live entries are owner-held; never replicated
        }
        let newer =
            self.dir_neg.get(obj.name).is_none_or(|&(v, o, _)| (obj.version, obj.origin) > (v, o));
        if !newer {
            return;
        }
        self.dir_neg.insert(obj.name.to_string(), (obj.version, obj.origin, self.clock));
        if let Some(c) = self.dir_cache.get(obj.name) {
            if (c.version, c.addr) <= (obj.version, obj.origin) {
                self.dir_cache.remove(obj.name);
                self.stats.dir_invalidations += 1;
            }
        }
        for i in 0..self.n1.len() {
            if i != from_n1 && self.n1.get(i).is_some_and(N1Port::live_tree) {
                self.flood_q.entry(i).or_default().push(enc.clone());
            }
        }
    }

    // ------------------------------------------------------------------
    // Flow allocation (§5.3)
    // ------------------------------------------------------------------

    /// Requester side: allocate a flow from `src_app` (bound to node port
    /// `port`) to `dst_app` with `spec`. The result arrives later as a
    /// [`IpcpOut::FlowActive`] or [`IpcpOut::FlowFailed`] effect. Under
    /// the scoped-`/dir` policy a name neither registered here nor
    /// cached first resolves on demand at its owner; the allocation
    /// continues when the answer arrives.
    pub fn alloc_flow(&mut self, port: u64, src_app: AppName, dst_app: AppName, spec: QosSpec) {
        if self.scoped_dir() {
            match self.resolve_dir_local(&dst_app) {
                Some(a) => self.alloc_flow_resolved(port, src_app, dst_app, spec, a),
                None => self.start_dir_lookup(port, src_app, dst_app, spec),
            }
            return;
        }
        let Some(dst_addr) = self.dir_lookup(&dst_app) else {
            self.out.push(IpcpOut::FlowFailed { port, reason: "destination unknown in DIF" });
            return;
        };
        self.alloc_flow_resolved(port, src_app, dst_app, spec, dst_addr);
    }

    /// Continue a flow allocation whose destination member is known.
    #[expect(
        clippy::expect_used,
        reason = "cube(0) is the management cube, which DifConfig documents as mandatory and DifConfig::new always installs; absence is a construction bug, not a wire condition"
    )]
    fn alloc_flow_resolved(
        &mut self,
        port: u64,
        src_app: AppName,
        dst_app: AppName,
        spec: QosSpec,
        dst_addr: Addr,
    ) {
        // Fail fast if routing has not converged to the destination member
        // yet — the requester retries rather than stalling on a timeout.
        if !self.is_shim && dst_addr != self.addr && self.pick_n1_toward(dst_addr).is_none() {
            self.out.push(IpcpOut::FlowFailed { port, reason: "no route to destination member" });
            return;
        }
        let cep = self.next_cep();
        if self.is_shim {
            let cube = match_cube(&self.cfg.cubes, &spec);
            self.raw.insert(
                cep,
                RawFlow {
                    port,
                    peer_cep: 0,
                    qos_id: cube.map(|c| c.id).unwrap_or(3),
                    priority: cube.map(|c| c.priority).unwrap_or(1),
                    peer: dst_app.clone(),
                    phase: Phase::Requesting,
                },
            );
            let invoke = self.next_invoke();
            self.pending.insert(invoke, Pending::FlowAlloc { cep });
            let body =
                MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr: self.addr, src_cep: cep };
            self.send_mgmt_addr(dst_addr, body, invoke, 0);
            return;
        }
        self.timer_dirty.push(cep);
        self.conns.insert(
            cep,
            FlowState {
                // The connection is provisional until the response supplies
                // the peer cep and qos cube; created then.
                conn: Connection::new(
                    ConnId {
                        local_addr: self.addr,
                        remote_addr: dst_addr,
                        local_cep: cep,
                        remote_cep: 0,
                        qos_id: 0,
                    },
                    self.cfg.cube(0).expect("mgmt cube").params.clone(),
                ),
                port,
                phase: Phase::Requesting,
                peer: dst_app.clone(),
            },
        );
        let invoke = self.next_invoke();
        self.pending.insert(invoke, Pending::FlowAlloc { cep });
        let body =
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr: self.addr, src_cep: cep };
        self.send_mgmt_addr(dst_addr, body, invoke, 0);
    }

    /// Responder side: the node approved an inbound flow request. Creates
    /// the local endpoint bound to `port` and answers the requester.
    #[allow(clippy::too_many_arguments)]
    pub fn flow_accept(
        &mut self,
        port: u64,
        src_app: AppName,
        spec: QosSpec,
        src_addr: Addr,
        src_cep: CepId,
        invoke_id: u32,
    ) {
        let Some(cube) = match_cube(&self.cfg.cubes, &spec).cloned() else {
            self.flow_reject(src_addr, invoke_id, -3);
            return;
        };
        let cep = self.next_cep();
        if self.is_shim {
            self.raw.insert(
                cep,
                RawFlow {
                    port,
                    peer_cep: src_cep,
                    qos_id: cube.id,
                    priority: cube.priority,
                    peer: src_app.clone(),
                    phase: Phase::Active,
                },
            );
            let body = MgmtBody::FlowResponse { dst_cep: cep, qos_id: cube.id };
            self.send_mgmt_addr(src_addr, body, invoke_id, 0);
            self.out.push(IpcpOut::FlowActive { port, peer: src_app });
            return;
        }
        let conn = Connection::new(
            ConnId {
                local_addr: self.addr,
                remote_addr: src_addr,
                local_cep: cep,
                remote_cep: src_cep,
                qos_id: cube.id,
            },
            cube.params.clone(),
        );
        self.timer_dirty.push(cep);
        self.conns
            .insert(cep, FlowState { conn, port, phase: Phase::Active, peer: src_app.clone() });
        let body = MgmtBody::FlowResponse { dst_cep: cep, qos_id: cube.id };
        self.send_mgmt_addr(src_addr, body, invoke_id, 0);
        self.out.push(IpcpOut::FlowActive { port, peer: src_app });
    }

    /// Responder side: refuse an inbound flow request.
    pub fn flow_reject(&mut self, src_addr: Addr, invoke_id: u32, result: i32) {
        let body = MgmtBody::FlowResponse { dst_cep: 0, qos_id: 0 };
        self.send_mgmt_addr(src_addr, body, invoke_id, result);
    }

    fn handle_flow_response(&mut self, invoke_id: u32, dst_cep: CepId, qos_id: u8, result: i32) {
        let Some(Pending::FlowAlloc { cep }) = self.pending.remove(&invoke_id) else {
            return;
        };
        if self.is_shim {
            let Some(r) = self.raw.get_mut(&cep) else { return };
            if result != 0 || dst_cep == 0 {
                let port = r.port;
                self.raw.remove(&cep);
                self.out.push(IpcpOut::FlowFailed { port, reason: "refused by destination" });
                return;
            }
            r.peer_cep = dst_cep;
            r.phase = Phase::Active;
            let (port, peer) = (r.port, r.peer.clone());
            self.out.push(IpcpOut::FlowActive { port, peer });
            return;
        }
        let Some(f) = self.conns.get_mut(&cep) else { return };
        if result != 0 || dst_cep == 0 {
            let port = f.port;
            self.conns.remove(&cep);
            self.out.push(IpcpOut::FlowFailed { port, reason: "refused by destination" });
            return;
        }
        let Some(cube) = self.cfg.cube(qos_id) else {
            let port = f.port;
            self.conns.remove(&cep);
            self.out.push(IpcpOut::FlowFailed { port, reason: "unknown qos cube" });
            return;
        };
        let remote_addr = f.conn.id().remote_addr;
        f.conn = Connection::new(
            ConnId {
                local_addr: self.addr,
                remote_addr,
                local_cep: cep,
                remote_cep: dst_cep,
                qos_id: cube.id,
            },
            cube.params.clone(),
        );
        f.phase = Phase::Active;
        let (port, peer) = (f.port, f.peer.clone());
        self.timer_dirty.push(cep);
        self.out.push(IpcpOut::FlowActive { port, peer });
    }

    /// Deallocate the flow bound to node port `port` (local side),
    /// notifying the peer.
    pub fn dealloc_port(&mut self, port: u64) {
        if self.is_shim {
            let Some(cep) = self.raw.iter().find(|(_, r)| r.port == port).map(|(&c, _)| c) else {
                return;
            };
            let Some(r) = self.raw.remove(&cep) else { return };
            if r.phase == Phase::Active {
                let peer_addr = if self.addr == 1 { 2 } else { 1 };
                let invoke = self.next_invoke();
                let body = MgmtBody::FlowTeardown { cep: r.peer_cep };
                self.send_mgmt_addr(peer_addr, body, invoke, 0);
            }
            return;
        }
        let Some(cep) = self.conns.iter().find(|(_, f)| f.port == port).map(|(&c, _)| c) else {
            return;
        };
        let Some(f) = self.conns.remove(&cep) else { return };
        let id = f.conn.id();
        if f.phase == Phase::Active {
            let invoke = self.next_invoke();
            let body = MgmtBody::FlowTeardown { cep: id.remote_cep };
            self.send_mgmt_addr(id.remote_addr, body, invoke, 0);
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// User SDU written to the flow bound to `port`. `class_hint`
    /// carries the originating cube's scheduling class when the writer is
    /// a higher IPC process (None for application writes).
    pub fn write_port(
        &mut self,
        port: u64,
        sdu: Bytes,
        now: Time,
        class_hint: Option<TxClass>,
    ) -> Result<(), &'static str> {
        if self.is_shim {
            return self.write_raw(port, sdu, class_hint);
        }
        let Some((&cep, f)) = self.conns.iter_mut().find(|(_, f)| f.port == port) else {
            return Err("no such flow");
        };
        if f.phase != Phase::Active {
            return Err("flow not active");
        }
        if sdu.len() > self.cfg.max_sdu {
            return Err("sdu exceeds dif max");
        }
        f.conn.send_sdu(sdu, now.nanos()).map_err(|_| "flow failed or backpressured")?;
        self.pump_conn(cep, now);
        Ok(())
    }

    /// Shim data path: wrap the SDU in a DataPdu for demultiplexing at the
    /// peer and pass it straight to the medium.
    fn write_raw(
        &mut self,
        port: u64,
        sdu: Bytes,
        class_hint: Option<TxClass>,
    ) -> Result<(), &'static str> {
        let Some(r) = self.raw.values().find(|r| r.port == port) else {
            return Err("no such flow");
        };
        if r.phase != Phase::Active {
            return Err("flow not active");
        }
        let peer_addr = if self.addr == 1 { 2 } else { 1 };
        let pdu = Pdu::Data(rina_wire::DataPdu {
            dest_addr: peer_addr,
            src_addr: self.addr,
            qos_id: r.qos_id,
            dest_cep: r.peer_cep,
            src_cep: 0,
            seq: 0,
            flags: 0,
            ttl: 1,
            payload: sdu,
        });
        // The hint preserves the *originating* cube (an upper DIF's class
        // riding this shim flow); plain writes class as the shim flow's
        // own cube.
        let class = class_hint.unwrap_or(TxClass::new(r.qos_id, r.priority));
        // Wrap fast path: an SDU handed down by an upper IPC process
        // (class_hint is Some exactly then) is an encoded frame ending in
        // its own CRC trailer, so the outer trailer combines in O(1) from
        // a header-only sum — no pass over the payload bytes. Application
        // SDUs are opaque and take the full re-sum. Byte-identical output
        // either way (pinned by proptest in rina-wire).
        let frame = match (&pdu, class_hint) {
            (Pdu::Data(d), Some(_)) if d.payload.len() >= 5 => {
                let (body, tail) = d.payload.split_at(d.payload.len() - 4);
                let mut b = [0u8; 4];
                b.copy_from_slice(tail);
                let trailer = u32::from_be_bytes(b);
                debug_assert_eq!(
                    trailer,
                    rina_wire::crc::crc32(body),
                    "TxLower SDU is not a CRC-trailed frame"
                );
                d.encode_with_payload_crc(rina_wire::crc::crc32_of_trailed(trailer))
            }
            _ => pdu.encode(),
        };
        let Some(n1) = self.n1.iter().position(|p| p.up) else {
            return Err("link down");
        };
        self.tx_n1(n1, frame, class);
        Ok(())
    }

    /// A frame (encoded PDU) arrived on (N-1) port `n1`: one peek decides
    /// between relaying it untouched and terminating it here, and only
    /// terminated frames are decoded.
    ///
    /// The peek validates a subset of what [`Pdu::decode`] does (it
    /// trusts the CRC trailer), so a frame it declines is one decode
    /// would reject. Skipping the CRC on the relay and shim branches is
    /// sound because links lose frames but never corrupt them, and a
    /// frame's own trailer is still checked by the full decode at its
    /// terminal hop.
    pub fn on_frame(&mut self, n1: usize, frame: Bytes, now: Time) {
        self.clock = now;
        if let Some(p) = self.n1.get_mut(n1) {
            // Any traffic proves liveness.
            p.last_hello = now;
        }
        let Some(v) = PduView::peek(&frame) else {
            self.stats.decode_errors += 1;
            return;
        };
        if self.is_shim {
            // A shim never relays: whatever the destination, it is local.
            // Data is the wrapped frame of an upper DIF — slice it out of
            // the arrival buffer and hand it up, or drop it when no
            // active flow owns the CEP. The rest is the shim's own flow
            // handshake and takes the decode below.
            if v.kind == PduKind::Data {
                let flow = v.dest_cep.and_then(|cep| self.raw.get(&cep));
                match flow.filter(|r| r.phase == Phase::Active) {
                    Some(r) => {
                        let sdu = frame.slice(v.payload_range(frame.len()));
                        self.out.push(IpcpOut::Deliver { port: r.port, sdu });
                    }
                    None => self.stats.no_flow_drops += 1,
                }
                return;
            }
        } else if v.dest_addr != 0 && v.dest_addr != self.addr {
            self.relay(v, frame);
            return;
        }
        match Pdu::decode(&frame) {
            Ok(pdu) => self.deliver_local(pdu, n1, now),
            Err(_) => self.stats.decode_errors += 1,
        }
    }

    /// Relay a transit frame: drop it if its TTL is spent, else decrement
    /// the TTL and fix the CRC trailer in the arrival buffer itself
    /// (copy-on-write if it is shared, e.g. a flood batch fanned out
    /// across ports) and hand the buffer straight to the (N-1) port
    /// toward its destination — no decode, no re-encode.
    fn relay(&mut self, v: PduView, mut frame: Bytes) {
        if v.ttl == 0 {
            self.stats.ttl_drops += 1;
            return;
        }
        self.stats.relayed += 1;
        let Some(n1) = self.pick_n1_toward(v.dest_addr) else {
            self.stats.no_route += 1;
            return;
        };
        self.stats.relay_fast += 1;
        // peek guaranteed the layout: a parsed header before the TTL byte
        // and a 4-byte big-endian CRC trailer behind it.
        let body_len = frame.len() - 4;
        let old_crc = {
            let (_, tail) = frame.split_at(body_len);
            let mut b = [0u8; 4];
            b.copy_from_slice(tail);
            u32::from_be_bytes(b)
        };
        let new_crc =
            rina_wire::crc::crc32_patch(old_crc, body_len - 1 - v.ttl_offset, v.ttl, v.ttl - 1);
        let buf = frame.make_mut();
        let (body, tail) = buf.split_at_mut(body_len);
        if let Some(t) = body.get_mut(v.ttl_offset) {
            *t = v.ttl - 1;
        }
        tail.copy_from_slice(&new_crc.to_be_bytes());
        let prio = self.cfg.cube(v.qos_id).map(|c| c.priority).unwrap_or(0);
        self.tx_n1(n1, frame, TxClass::new(v.qos_id, prio));
    }

    /// Two-step forwarding (§ Fig 4): (1) next-hop member address from the
    /// forwarding table, (2) live (N-1) port (path / point of attachment)
    /// toward that next hop, chosen at transmission time.
    fn forward(&mut self, pdu: Pdu) {
        let dest = pdu.dest_addr();
        let picked = if self.is_shim {
            // Point-to-point: the only path is the medium itself.
            self.n1.iter().position(|p| p.up)
        } else {
            self.pick_n1_toward(dest)
        };
        let Some(n1) = picked else {
            self.stats.no_route += 1;
            return;
        };
        let prio = self.cfg.cube(pdu.qos_id()).map(|c| c.priority).unwrap_or(0);
        let class = TxClass::new(pdu.qos_id(), prio);
        let frame = pdu.encode();
        self.tx_n1(n1, frame, class);
    }

    /// Choose the (N-1) port for `dest`: step 1 route lookup, step 2 path
    /// selection among live ports to the chosen next hop.
    fn pick_n1_toward(&self, dest: Addr) -> Option<usize> {
        // Direct adjacency short-circuit (also the only case for shims).
        if let Some(&i) = self.peer_index.get(&dest) {
            return Some(i);
        }
        let hops = self.engine.table().route(dest)?;
        for hop in hops {
            if let Some(&i) = self.peer_index.get(hop) {
                return Some(i);
            }
        }
        None
    }

    /// Rebuild the `peer_addr → port` relay index. Called whenever a
    /// port's liveness or peer address changes; ports without an enrolled
    /// peer (address 0) are not indexed — address 0 is never a relay
    /// destination or a next hop.
    fn rebuild_peer_index(&mut self) {
        self.peer_index.clear();
        for (i, p) in self.n1.iter().enumerate() {
            if p.up && p.peer_addr != 0 {
                self.peer_index.entry(p.peer_addr).or_insert(i);
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "n1 indices originate from the node's own port registration, never from PDU contents; callers iterate 0..n1.len()"
    )]
    fn tx_n1(&mut self, n1: usize, frame: Bytes, class: TxClass) {
        match self.n1[n1].kind {
            N1Kind::Phys { .. } => self.out.push(IpcpOut::TxPhys { n1, frame, class }),
            N1Kind::Lower { port } => self.out.push(IpcpOut::TxLower { port, sdu: frame, class }),
        }
    }

    /// Terminate a decoded PDU here: management to the management task,
    /// data and control to the EFCP connection owning the CEP (never a
    /// shim's data — `on_frame` hands that up undecoded).
    fn deliver_local(&mut self, pdu: Pdu, from_n1: usize, now: Time) {
        let cep = match pdu {
            Pdu::Mgmt(m) => return self.handle_mgmt(m, from_n1, now),
            Pdu::Data(ref d) => d.dest_cep,
            Pdu::Ctrl(ref c) => c.dest_cep,
        };
        let Some(f) = self.conns.get_mut(&cep) else {
            self.stats.no_flow_drops += 1;
            return;
        };
        f.conn.on_pdu(&pdu, now.nanos());
        self.pump_conn(cep, now);
    }

    /// Pump one connection: route its outgoing PDUs, surface delivered
    /// SDUs, detect failure.
    fn pump_conn(&mut self, cep: CepId, now: Time) {
        self.timer_dirty.push(cep);
        let Some(f) = self.conns.get_mut(&cep) else { return };
        let port = f.port;
        let mut pdus = Vec::new();
        while let Some(p) = f.conn.poll_transmit() {
            pdus.push(p);
        }
        let mut sdus = Vec::new();
        while let Some(s) = f.conn.poll_deliver() {
            sdus.push(s);
        }
        let failed = f.conn.is_failed();
        for pdu in pdus {
            if pdu.dest_addr() == self.addr {
                // Flow to an app on the same member: loop back.
                self.deliver_local(pdu, usize::MAX, now);
            } else {
                self.forward(pdu);
            }
        }
        for sdu in sdus {
            self.out.push(IpcpOut::Deliver { port, sdu });
        }
        if failed {
            self.conns.remove(&cep);
            self.out.push(IpcpOut::FlowFailed { port, reason: "efcp gave up (max rtx)" });
        }
    }

    // ------------------------------------------------------------------
    // Management plumbing
    // ------------------------------------------------------------------

    fn handle_mgmt(&mut self, m: MgmtPdu, from_n1: usize, now: Time) {
        // A payload byte-identical to the port's previous hello *is*
        // that hello: run the handler on the memoised decode. The memo
        // is lifted out of the port for the call (the handler takes
        // `&mut self`) and put straight back.
        if let Some(memo) = self.n1.get_mut(from_n1).and_then(|p| p.hello_memo.take()) {
            let repeat = memo.payload == m.payload;
            if repeat {
                self.stats.hello_rx += 1;
                self.on_hello(&memo.name, memo.addr, &memo.digests, from_n1, now);
            }
            if let Some(p) = self.n1.get_mut(from_n1) {
                p.hello_memo = Some(memo);
            }
            if repeat {
                self.sync_engine();
                return;
            }
        }
        let cdap = match CdapMsg::decode(&m.payload) {
            Ok(c) => c,
            Err(_) => {
                self.stats.decode_errors += 1;
                return;
            }
        };
        let body = match MgmtBody::from_cdap(&cdap) {
            Ok(b) => b,
            Err(_) => {
                self.stats.decode_errors += 1;
                return;
            }
        };
        match body {
            MgmtBody::Hello { name, addr, digests } => {
                self.stats.hello_rx += 1;
                self.stats.hello_decoded += 1;
                self.on_hello(&name, addr, &digests, from_n1, now);
                if let Some(p) = self.n1.get_mut(from_n1) {
                    p.hello_memo = Some(HelloMemo { payload: m.payload, name, addr, digests });
                }
            }
            MgmtBody::EnrollRequest {
                name,
                credential,
                proposed_addr,
                proposed_block,
                digests,
            } => {
                self.handle_enroll_request(
                    from_n1,
                    name,
                    credential,
                    proposed_addr,
                    proposed_block,
                    digests,
                    cdap.invoke_id,
                    now,
                );
            }
            MgmtBody::EnrollResponse { addr, block, retry_after_ms, snapshot } => {
                if matches!(self.pending.remove(&cdap.invoke_id), Some(Pending::Enroll)) {
                    self.handle_enroll_response(addr, block, retry_after_ms, snapshot, cdap.result);
                }
            }
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep } => {
                self.stats.flow_reqs_in += 1;
                self.out.push(IpcpOut::FlowReqIn {
                    src_app,
                    dst_app,
                    spec,
                    src_addr,
                    src_cep,
                    invoke_id: cdap.invoke_id,
                });
            }
            MgmtBody::FlowResponse { dst_cep, qos_id } => {
                self.handle_flow_response(cdap.invoke_id, dst_cep, qos_id, cdap.result);
            }
            MgmtBody::FlowTeardown { cep } => {
                if let Some(f) = self.conns.remove(&cep) {
                    self.out.push(IpcpOut::FlowClosed { port: f.port });
                } else if let Some(r) = self.raw.remove(&cep) {
                    self.out.push(IpcpOut::FlowClosed { port: r.port });
                }
            }
            MgmtBody::RibUpdate(obj) => {
                self.apply_and_reflood(&obj, from_n1);
            }
            MgmtBody::RibDeltaRequest { subtree, from, upto, summary } => {
                if self.is_shim || !self.enrolled {
                    return;
                }
                let (objects, behind) =
                    self.rib.delta_for(&subtree, &from, &upto, &summary.entries());
                let encs: Vec<EncodedObject> = objects.into_iter().map(EncodedObject::of).collect();
                self.send_encoded_batches(from_n1, &subtree, &encs);
                // The summary proves the requester holds versions we
                // lack: pull them right back (damped, so two diverged
                // peers converge in one round trip without ping-pong).
                if behind
                    && self
                        .n1
                        .get(from_n1)
                        .is_some_and(|p| self.hello_ticks >= p.last_resync_tick + RESYNC_DAMP_TICKS)
                {
                    self.request_deltas(from_n1, std::slice::from_ref(&subtree));
                }
            }
            MgmtBody::RibDeltaResponse { subtree: _, objects } => {
                for obj in &objects {
                    self.apply_and_reflood(obj, from_n1);
                }
            }
            MgmtBody::DirLookupRequest { name, origin, lookup_id } => {
                self.handle_dir_lookup_request(name, origin, lookup_id, from_n1);
            }
            MgmtBody::DirLookupResponse { name, addr, version, lookup_id: _ } => {
                self.handle_dir_lookup_response(name, addr, version);
            }
        }
        // Whatever this PDU applied, surface it to the engine now so the
        // node sees a current dirty/classification state when it decides
        // whether (and how fast) to arm the recompute debounce.
        self.sync_engine();
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
            // An enrolled hello confirms the joiner is up: its
            // admission-window slot (if any) frees, and from
            // here on this sponsor owns its failure GC.
            if let Some((_, granted, _)) = self.admitting.remove(name) {
                if granted == addr {
                    self.sponsored.insert(name.clone(), granted);
                }
            }
            // Any hello from a watched member proves it alive.
            self.gc_watch.remove(name);
        }
        if let Some(p) = self.n1.get_mut(from_n1) {
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
            if addr != 0 && p.peer_digests.as_ref() != Some(digests) {
                p.peer_digests = Some(digests.clone());
            }
        }
        if changed {
            self.rebuild_peer_index();
            self.refresh_lsa();
        }
        if !self.is_shim && self.enrolled && addr != 0 {
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
                    || self.n1.get(from_n1).is_some_and(|p| {
                        self.hello_ticks >= p.last_resync_tick + RESYNC_DAMP_TICKS
                    }))
            {
                self.request_deltas(from_n1, &mismatched);
            }
        }
    }

    /// Apply one received object; when it is news, re-flood it to the
    /// other neighbors. LSA changes reach the routing engine through the
    /// RIB watch hook and repair on the node's debounce timer (a flood
    /// of remote LSAs collapses into one classified SPF repair).
    fn apply_and_reflood(&mut self, enc: &EncodedObject, from_n1: usize) {
        let obj = enc.view();
        if self.scoped_dir() && obj.name.starts_with("/dir/") {
            // Owner-held scope: only the entry's owner stores it. The
            // owner takes the normal path below — apply + reassert heal
            // a wrongful tombstone of a live registration, with the
            // correction staying local (lookups re-resolve it). Every
            // other member handles the object without storing it.
            let own = self.enrolled
                && !self.departed
                && obj
                    .name
                    .strip_prefix("/dir/")
                    .is_some_and(|app| self.registered.iter().any(|r| r.matches_key(app)));
            if !own {
                self.on_scoped_dir_flood(&obj, enc, from_n1);
                return;
            }
        }
        if self.rib.apply_ref(&obj) {
            if self.scoped_dir() && obj.deleted {
                // A departing member's /blocks tombstone rides the
                // fully-replicated machinery: use it to drop every
                // cached directory answer pointing at the dead owner.
                if let Some(a) =
                    obj.name.strip_prefix(BLOCK_PREFIX).and_then(|s| s.parse::<Addr>().ok())
                {
                    self.invalidate_dir_cache_for(a);
                }
            }
            // A genuinely new version from a watched origin proves the
            // member alive: cancel its pending failure GC.
            if obj.origin != 0 && !self.gc_watch.is_empty() {
                self.gc_watch.retain(|_, &mut (a, _)| a != obj.origin);
            }
            if self.reassert_own(&obj) {
                // The stale update was superseded, not re-flooded: the
                // correction from `drain_rib` floods in its place.
                return;
            }
            // What arrived is what goes on: no re-encoding.
            self.flood_rib(obj.name, Some(from_n1), || enc.clone());
        }
    }

    /// If `obj` (just applied) clobbers an object this member is
    /// authoritative for — its member record, its block, its LSA, or a
    /// live directory registration of its own — rewrite the truth and
    /// flood the correction ([`Rib::write_local`] bumps above whatever
    /// version is stored, tombstones included, so one round suffices).
    /// This is the self-healing half of failure GC: a sponsor that
    /// wrongly purges a member it could not see (partition, long flap)
    /// costs the DIF one reassert round of that member's objects,
    /// nothing more. Returns whether a correction was issued.
    ///
    /// `obj.origin == self.addr` is NOT exempted: an applied remote
    /// object bearing our own origin cannot be an echo of our own write
    /// (same `(version, origin)` is never newer), so it is a previous
    /// incarnation's record — typically the departure tombstone of a
    /// member that left and rejoined under its old address, racing the
    /// rejoin floods. Without the correction the rejoiner's LSA stays
    /// tombstoned DIF-wide (nothing re-marks it dirty: the neighbor set
    /// matches what it believes it advertises) and the member is
    /// silently unroutable until its next adjacency change.
    fn reassert_own(&mut self, obj: &RibObjectRef<'_>) -> bool {
        if !self.enrolled || self.is_shim || self.departed {
            return false;
        }
        let truth: Option<(&str, Bytes)> = if obj.name == self.own.member {
            Some(("member", encode_addr(self.addr)))
        } else if obj.name == self.own.block {
            Some((BLOCK_CLASS, encode_block(self.block)))
        } else if obj.name == self.own.lsa {
            let lsa = Lsa { neighbors: self.advertised.iter().map(|&a| (a, 1)).collect() };
            Some((LSA_CLASS, lsa.encode()))
        } else if let Some(app) = obj.name.strip_prefix("/dir/") {
            self.registered
                .iter()
                .any(|r| r.matches_key(app))
                .then(|| ("dir", encode_addr(self.addr)))
        } else {
            None
        };
        let Some((class, value)) = truth else { return false };
        let wrong = match self.rib.get(obj.name) {
            None => true, // tombstoned (a live different value is also wrong)
            Some(o) => o.value != value,
        };
        if !wrong {
            return false;
        }
        self.stats.reasserts += 1;
        self.rib.write_local(obj.name, class, value);
        self.drain_rib();
        true
    }

    /// Queue one RIB object for flooding to every live, enrolled
    /// neighbor except `except` (the port it arrived on, for re-floods) —
    /// with two suppressions. *Topology-aware*: a port whose peer's last
    /// hello digest table equals our current digest for the object's
    /// subtree provably already holds this version (it had our exact
    /// subtree state, which includes the object), so nothing is sent —
    /// on scale-free fabrics this is what keeps hub flooding bounded.
    /// *Rate-limited*: when [`DifConfig::flood_rate`] is set, a token
    /// bucket caps flooded objects per second; whatever it drops, the
    /// digest anti-entropy repairs on the hello cadence.
    ///
    /// Queued objects are flushed as MTU-sized batches (one or a few
    /// PDUs per port) when the node drains this process's effects, so a
    /// burst applied in one pass — a streamed enrollment sync, a whole
    /// wave's LSAs — re-floods as a burst, not one PDU per object.
    ///
    /// `encoded` is asked for the object named `name` in wire form the
    /// first time a port actually needs it (an object every port
    /// suppresses is never encoded; a re-flooded one hands back the
    /// bytes it arrived as).
    fn flood_rib(
        &mut self,
        name: &str,
        except: Option<usize>,
        encoded: impl Fn() -> EncodedObject,
    ) {
        let subtree = subtree_of(name);
        let ours = self.rib.subtree_digest(subtree);
        let mut enc: Option<EncodedObject> = None;
        for i in 0..self.n1.len() {
            let Some(p) = self.n1.get(i) else { continue };
            if Some(i) == except || !p.up || p.peer_addr == 0 {
                continue;
            }
            // Tree ports flood freely (they alone replicate to every
            // member); cross ports pay the token bucket, so assembly
            // storms stop being amplified by every redundant edge.
            let (covered, tree) = (p.covers(subtree, ours), p.tree);
            if covered || (!tree && !self.take_flood_token()) {
                self.stats.flood_suppressed += 1;
                continue;
            }
            let enc = enc.get_or_insert_with(&encoded).clone();
            self.flood_q.entry(i).or_default().push(enc);
        }
    }

    /// Flush the per-port flood queues as batched PDUs. Duplicate
    /// versions queued twice within one pass (periodic re-advertisement
    /// crossing a re-flood) are left in — the receiver's version guard
    /// makes them no-ops.
    fn flush_floods(&mut self) {
        if self.flood_q.is_empty() {
            return;
        }
        for (port, encs) in std::mem::take(&mut self.flood_q) {
            self.send_encoded_batches(port, "", &encs);
        }
    }

    /// Send objects in wire form as one or more under-MTU
    /// [`MgmtBody::RibDeltaResponse`] PDUs on `n1`.
    #[expect(
        clippy::indexing_slicing,
        reason = "batch slicing cursor over a locally encoded Vec; start/end clamped to encs.len() by the loop conditions"
    )]
    fn send_encoded_batches(&mut self, n1: usize, subtree: &str, encs: &[EncodedObject]) {
        let mut start = 0;
        while start < encs.len() {
            let mut bytes = 0usize;
            let mut end = start;
            while end < encs.len()
                && (end == start || bytes + encs[end].wire().len() <= DELTA_CHUNK_BYTES)
            {
                bytes += encs[end].wire().len();
                end += 1;
            }
            let payload = MgmtBody::encode_delta_batch(subtree, &encs[start..end]);
            let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: self.addr, ttl: 1, payload });
            self.stats.mgmt_tx += 1;
            self.stats.rib_tx += (end - start) as u64;
            self.tx_n1(n1, pdu.encode(), TxClass::mgmt());
            start = end;
        }
    }

    /// Take one token from the flood bucket (always succeeds when no
    /// rate limit is configured).
    fn take_flood_token(&mut self) -> bool {
        if self.cfg.flood_rate == 0 {
            return true;
        }
        let elapsed = self.clock.since(self.flood_refill_at).as_secs_f64();
        if elapsed > 0.0 {
            self.flood_tokens = (self.flood_tokens + elapsed * self.cfg.flood_rate as f64)
                .min(self.cfg.flood_burst as f64);
            self.flood_refill_at = self.clock;
        }
        if self.flood_tokens >= 1.0 {
            self.flood_tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Send a management body link-locally over one (N-1) port.
    fn send_mgmt_on(&mut self, n1: usize, body: MgmtBody, invoke_id: u32, result: i32) {
        let payload = body.encode(invoke_id, result);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: self.addr, ttl: 1, payload });
        self.stats.mgmt_tx += 1;
        let frame = pdu.encode();
        self.tx_n1(n1, frame, TxClass::mgmt());
    }

    /// Send a management body to a member address (relayed if needed).
    fn send_mgmt_addr(&mut self, dest: Addr, body: MgmtBody, invoke_id: u32, result: i32) {
        let payload = body.encode(invoke_id, result);
        let pdu = Pdu::Mgmt(MgmtPdu {
            dest_addr: dest,
            src_addr: self.addr,
            ttl: rina_wire::efcp::DEFAULT_TTL,
            payload,
        });
        self.stats.mgmt_tx += 1;
        if dest == self.addr {
            // Rare but possible: both apps on the same member.
            self.deliver_local(pdu, usize::MAX, self.clock);
            return;
        }
        self.forward(pdu);
    }

    /// Flush RIB events, feed the engine, and disseminate queued updates
    /// to all live neighbors. Bootstrap/re-root states (the only
    /// full-path classifications left) recompute immediately; remote
    /// deltas keep waiting for the node's debounce timer and ride along
    /// in whichever recomputation runs first. Local LSA writes also
    /// recompute immediately, in [`Ipcp::write_lsa_now`].
    fn drain_rib(&mut self) {
        while self.rib.poll_event().is_some() {}
        self.sync_engine();
        if self.engine.pending_full() {
            self.engine.recompute();
        }
        let mut updates = Vec::new();
        while let Some(o) = self.rib.poll_dissemination() {
            updates.push(o);
        }
        for obj in &updates {
            self.flood_rib(&obj.name, None, || EncodedObject::of(obj));
        }
    }

    fn next_cep(&mut self) -> CepId {
        let c = self.next_cep;
        self.next_cep += 1;
        c
    }

    fn next_invoke(&mut self) -> u32 {
        let i = self.next_invoke;
        self.next_invoke += 1;
        i
    }

    /// Aggregate EFCP stats over local flow endpoints.
    pub fn conn_stats_sum(&self) -> rina_efcp::ConnStats {
        let mut s = rina_efcp::ConnStats::default();
        for f in self.conns.values() {
            let c = f.conn.stats();
            s.sdus_sent += c.sdus_sent;
            s.pdus_sent += c.pdus_sent;
            s.retransmissions += c.retransmissions;
            s.timeouts += c.timeouts;
            s.sdus_delivered += c.sdus_delivered;
            s.bytes_delivered += c.bytes_delivered;
            s.dup_pdus += c.dup_pdus;
            s.ooo_pdus += c.ooo_pdus;
            s.acks_sent += c.acks_sent;
            s.rcv_dropped += c.rcv_dropped;
            s.cong_backoffs += c.cong_backoffs;
        }
        s
    }
}

fn encode_addr(a: Addr) -> Bytes {
    let mut w = rina_wire::codec::Writer::new();
    w.varint(a);
    w.finish()
}

fn decode_addr(b: &[u8]) -> Option<Addr> {
    rina_wire::codec::Reader::new(b).varint().ok()
}

/// RIB object name for the delegated block rooted at `addr`.
pub fn block_name(addr: Addr) -> String {
    format!("{BLOCK_PREFIX}{addr}")
}

/// Encode a delegated `[lo, hi]` block as a RIB object value.
pub fn encode_block(b: (Addr, Addr)) -> Bytes {
    let mut w = rina_wire::codec::Writer::new();
    w.varint(b.0).varint(b.1);
    w.finish()
}

/// Decode a delegated block from a RIB object value.
pub fn decode_block(b: &[u8]) -> Option<(Addr, Addr)> {
    let mut r = rina_wire::codec::Reader::new(b);
    let lo = r.varint().ok()?;
    let hi = r.varint().ok()?;
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dif::AuthPolicy;

    /// `obj` arrives from the wire on port `from_n1`.
    fn reflood(i: &mut Ipcp, obj: RibObject, from_n1: usize) {
        i.apply_and_reflood(&EncodedObject::of(&obj), from_n1);
    }

    fn mk(name: &str) -> Ipcp {
        Ipcp::new(0, DifConfig::new("net"), AppName::new(name))
    }

    #[test]
    fn bootstrap_writes_member_object() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        assert!(a.is_enrolled());
        assert_eq!(a.addr, 1);
        assert!(a.rib.get("/members/net.a").is_some());
    }

    #[test]
    fn dir_register_and_lookup() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.dir_register(&AppName::new("web"));
        assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
        assert_eq!(a.dir_lookup(&AppName::new("nope")), None);
        a.dir_unregister(&AppName::new("web"));
        assert_eq!(a.dir_lookup(&AppName::new("web")), None);
    }

    #[test]
    fn shim_directory_points_at_peer() {
        let mut s = mk("shim.a");
        s.make_shim(1);
        s.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        assert_eq!(s.dir_lookup(&AppName::new("anything")), Some(2));
    }

    /// A relay at address 1 with live ports toward peers 2 and 3.
    fn mk_relay() -> Ipcp {
        let mut r = mk("net.r");
        r.bootstrap(1);
        r.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        r.add_n1(N1Kind::Phys { iface: 1, mtu: 1500 });
        r.n1[0].up = true;
        r.n1[0].peer_addr = 2;
        r.n1[1].up = true;
        r.n1[1].peer_addr = 3;
        r.rebuild_peer_index();
        r.take_out();
        r
    }

    fn transit_data(ttl: u8) -> Pdu {
        Pdu::Data(rina_wire::DataPdu {
            dest_addr: 3,
            src_addr: 2,
            qos_id: 0,
            dest_cep: 7,
            src_cep: 9,
            seq: 42,
            flags: 0,
            ttl,
            payload: Bytes::from_static(b"some payload"),
        })
    }

    #[test]
    fn relay_patches_ttl_in_place() {
        // TTL 1 is the last hop a frame may still cross: it leaves with
        // TTL 0 and the next relay drops it.
        for ttl in [4u8, 1] {
            let mut r = mk_relay();
            let original = transit_data(ttl).encode();
            r.on_frame(0, original.clone(), Time::ZERO);
            assert_eq!((r.stats.relayed, r.stats.relay_fast, r.stats.ttl_drops), (1, 1, 0));
            let out = r.take_out();
            let [IpcpOut::TxPhys { n1, frame, .. }] = &out[..] else {
                panic!("one forwarded frame expected, got {out:?}");
            };
            assert_eq!(*n1, 1, "forwarded toward the destination's port");
            // The patched buffer is byte-identical to decode, decrement
            // TTL, re-encode.
            let mut reference = Pdu::decode(&original).unwrap();
            assert!(reference.decrement_ttl());
            assert_eq!(frame.as_ref(), reference.encode().as_ref());
            // And the arriving buffer was not mutated in place (it is shared).
            assert_eq!(Pdu::decode(&original).unwrap().ttl(), ttl);
        }
    }

    #[test]
    fn alloc_flow_unknown_dest_fails_immediately() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.alloc_flow(10, AppName::new("c"), AppName::new("ghost"), QosSpec::reliable());
        let out = a.take_out();
        assert!(matches!(&out[..], [IpcpOut::FlowFailed { port: 10, .. }]));
    }

    #[test]
    fn enroll_request_rejected_on_bad_secret() {
        let mut sponsor = Ipcp::new(
            0,
            DifConfig::new("net").with_auth(AuthPolicy::Secret("sesame".into())),
            AppName::new("net.sponsor"),
        );
        sponsor.bootstrap(1);
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            "wrong".into(),
            0,
            (0, 0),
            DigestTable::default(),
            5,
            Time::ZERO,
        );
        // The response effect is a TxPhys frame; decode it and check result.
        let out = sponsor.take_out();
        let frame = out
            .iter()
            .find_map(|o| match o {
                IpcpOut::TxPhys { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .expect("a response frame");
        let pdu = Pdu::decode(&frame).unwrap();
        let Pdu::Mgmt(m) = pdu else { panic!("mgmt expected") };
        let cdap = CdapMsg::decode(&m.payload).unwrap();
        assert_eq!(cdap.result, -2);
        // And no member object was written.
        assert!(sponsor.rib.get("/members/net.x").is_none());
    }

    #[test]
    fn sponsor_assigns_sequential_addresses() {
        let mut sponsor = mk("net.s");
        sponsor.bootstrap(1);
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.add_n1(N1Kind::Phys { iface: 1, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        sponsor.handle_enroll_request(
            1,
            AppName::new("net.y"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            2,
            Time::ZERO,
        );
        let x = decode_addr(&sponsor.rib.get("/members/net.x").unwrap().value).unwrap();
        let y = decode_addr(&sponsor.rib.get("/members/net.y").unwrap().value).unwrap();
        assert_eq!((x, y), (2, 3));
    }

    /// Decode the EnrollResponse a sponsor just emitted (among whatever
    /// RIB floods followed it).
    fn last_enroll_response(i: &mut Ipcp) -> (i32, Addr, (Addr, Addr), u32) {
        i.take_out()
            .iter()
            .filter_map(|o| match o {
                IpcpOut::TxPhys { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .find_map(|frame| {
                let Pdu::Mgmt(m) = Pdu::decode(&frame).ok()? else { return None };
                let cdap = CdapMsg::decode(&m.payload).ok()?;
                match MgmtBody::from_cdap(&cdap).ok()? {
                    MgmtBody::EnrollResponse { addr, block, retry_after_ms, .. } => {
                        Some((cdap.result, addr, block, retry_after_ms))
                    }
                    _ => None,
                }
            })
            .expect("an EnrollResponse frame")
    }

    #[test]
    fn admission_window_defers_excess_joiners_then_frees_on_hello() {
        let mut sponsor =
            Ipcp::new(0, DifConfig::new("net").with_admission_window(2), AppName::new("net.s"));
        sponsor.bootstrap(1);
        sponsor.set_block((1, 100));
        for i in 0..3 {
            sponsor.add_n1(N1Kind::Phys { iface: i, mtu: 1500 });
        }
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.a"),
            String::new(),
            2,
            (2, 10),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (r, a, b, _) = last_enroll_response(&mut sponsor);
        assert_eq!((r, a, b), (0, 2, (2, 10)));
        sponsor.handle_enroll_request(
            1,
            AppName::new("net.b"),
            String::new(),
            11,
            (11, 20),
            DigestTable::default(),
            2,
            Time::ZERO,
        );
        let (r, a, _, _) = last_enroll_response(&mut sponsor);
        assert_eq!((r, a), (0, 11));
        // Third concurrent joiner: window (2) is full — busy, with a hint.
        sponsor.handle_enroll_request(
            2,
            AppName::new("net.c"),
            String::new(),
            21,
            (21, 30),
            DigestTable::default(),
            3,
            Time::ZERO,
        );
        let (r, a, _, hint) = last_enroll_response(&mut sponsor);
        assert_eq!((r, a), (R_ENROLL_BUSY, 0));
        assert!(hint > 0, "busy responses carry a backoff hint");
        assert_eq!(sponsor.stats.enrollments_deferred, 1);
        // net.a's hello (enrolled) frees a slot; net.c's retry is admitted.
        let hello = MgmtBody::Hello {
            name: AppName::new("net.a"),
            addr: 2,
            digests: DigestTable::default(),
        }
        .encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 2, ttl: 1, payload: hello });
        sponsor.on_frame(0, pdu.encode(), Time::ZERO);
        sponsor.take_out();
        sponsor.handle_enroll_request(
            2,
            AppName::new("net.c"),
            String::new(),
            21,
            (21, 30),
            DigestTable::default(),
            4,
            Time::ZERO,
        );
        let (r, a, b, _) = last_enroll_response(&mut sponsor);
        assert_eq!((r, a, b), (0, 21, (21, 30)));
    }

    #[test]
    fn admitted_retry_regrants_same_address_without_a_second_slot() {
        let mut sponsor =
            Ipcp::new(0, DifConfig::new("net").with_admission_window(1), AppName::new("net.s"));
        sponsor.bootstrap(1);
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, first, _, _) = last_enroll_response(&mut sponsor);
        // The response was lost; the joiner retries. Same grant, no busy.
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            2,
            Time::ZERO,
        );
        let (r, again, _, _) = last_enroll_response(&mut sponsor);
        assert_eq!((r, again), (0, first));
        assert_eq!(sponsor.stats.enrollments_deferred, 0);
    }

    /// A proposal may nest *inside* an ancestor's block, but never
    /// swallow an existing delegation — otherwise two sponsors would
    /// both believe they own the swallowed range.
    #[test]
    fn block_proposal_swallowing_a_sibling_is_refused_and_carved() {
        let mut sponsor = mk("net.s");
        sponsor.bootstrap(1);
        sponsor.set_block((1, 50));
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.add_n1(N1Kind::Phys { iface: 1, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.a"),
            String::new(),
            2,
            (2, 10),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, a, b, _) = last_enroll_response(&mut sponsor);
        assert_eq!((a, b), (2, (2, 10)));
        // net.b proposes (2, 20): strictly *contains* net.a's (2, 10) —
        // inward nesting is fine, swallowing a delegation is not.
        sponsor.handle_enroll_request(
            1,
            AppName::new("net.b"),
            String::new(),
            11,
            (2, 20),
            DigestTable::default(),
            2,
            Time::ZERO,
        );
        let (r, a2, b2, _) = last_enroll_response(&mut sponsor);
        assert_eq!(r, 0);
        // The refused proposal is replaced by a carve from the
        // sponsor's own block: the largest free gap is (11, 50), the
        // joiner gets its first address and its first half.
        assert_eq!((a2, b2), (11, (11, 30)));
    }

    #[test]
    fn partially_overlapping_block_proposal_gets_a_carved_block() {
        let mut sponsor = mk("net.s");
        sponsor.bootstrap(1);
        sponsor.set_block((1, 50));
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.add_n1(N1Kind::Phys { iface: 1, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.a"),
            String::new(),
            2,
            (2, 20),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, a, b, _) = last_enroll_response(&mut sponsor);
        assert_eq!((a, b), (2, (2, 20)));
        // net.b claims (15, 30): straddles net.a's block — rejected
        // proposal, replaced by a carve of the free (21, 50) gap.
        sponsor.handle_enroll_request(
            1,
            AppName::new("net.b"),
            String::new(),
            15,
            (15, 30),
            DigestTable::default(),
            2,
            Time::ZERO,
        );
        let (r, a2, b2, _) = last_enroll_response(&mut sponsor);
        assert_eq!(r, 0);
        assert_eq!((a2, b2), (21, (21, 35)));
    }

    #[test]
    fn ttl_expiry_drops() {
        // A spent TTL is dropped before the route lookup, for every PDU
        // type, even with a live port toward the destination.
        let mut r = mk_relay();
        let mgmt = Pdu::Mgmt(MgmtPdu { dest_addr: 3, src_addr: 2, ttl: 0, payload: Bytes::new() });
        r.on_frame(0, mgmt.encode(), Time::ZERO);
        r.on_frame(0, transit_data(0).encode(), Time::ZERO);
        assert_eq!((r.stats.ttl_drops, r.stats.relayed, r.stats.no_route), (2, 0, 0));
        assert!(r.take_out().is_empty(), "an expired frame emits nothing");
    }

    #[test]
    fn no_route_counted() {
        let mut r = mk_relay();
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 99, src_addr: 50, ttl: 8, payload: Bytes::new() });
        r.on_frame(0, pdu.encode(), Time::ZERO);
        assert_eq!((r.stats.relayed, r.stats.no_route, r.stats.relay_fast), (1, 1, 0));
        assert!(r.take_out().is_empty());
    }

    #[test]
    fn garbage_frame_counted_not_panicking() {
        let mut r = mk("net.r");
        r.bootstrap(1);
        r.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        r.on_frame(0, Bytes::from_static(b"\xde\xad\xbe\xef"), Time::ZERO);
        assert_eq!(r.stats.decode_errors, 1);
    }

    fn lsa_obj(addr: Addr, neighbors: &[(Addr, u32)], version: u64, deleted: bool) -> RibObject {
        RibObject {
            name: Lsa::object_name(addr),
            class: LSA_CLASS.into(),
            value: if deleted {
                Bytes::new()
            } else {
                Lsa { neighbors: neighbors.to_vec() }.encode()
            },
            version,
            origin: addr,
            deleted,
        }
    }

    /// Regression: a member whose LSA is *removed* must leave every
    /// peer's graph mirror — through whichever path the tombstone (or a
    /// local deletion) reaches the RIB. Before the watch-hook funnel,
    /// only the wire apply paths maintained the mirror, so a locally
    /// deleted LSA lingered and kept routing traffic at a dead member.
    #[test]
    fn lsa_deletion_propagates_through_the_delta_hook() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        // Line 1 - 2 - 3: own LSA written locally, peers' applied as if
        // flooded.
        a.rib.write_local(
            &Lsa::object_name(1),
            LSA_CLASS,
            Lsa { neighbors: vec![(2, 1)] }.encode(),
        );
        assert!(a.rib.apply_remote_silent(lsa_obj(2, &[(1, 1), (3, 1)], 1, false)));
        assert!(a.rib.apply_remote_silent(lsa_obj(3, &[(2, 1)], 1, false)));
        a.recompute_routes_now();
        assert_eq!(a.fwd().route(3), Some(&[2][..]));
        assert_eq!(a.lsa_count(), 3);

        // A tombstone arrives over the wire (delta response / re-flood).
        assert!(a.rib.apply_remote_silent(lsa_obj(3, &[], 2, true)));
        assert!(a.routes_dirty(), "the delta hook saw the deletion");
        a.recompute_routes_now();
        assert_eq!(a.fwd().route(3), None, "deleted LSA must not linger in the mirror");
        assert_eq!(a.lsa_count(), 2);

        // The purely local deletion path (no wire apply involved).
        a.rib.delete_local(&Lsa::object_name(2));
        a.recompute_routes_now();
        assert_eq!(a.fwd().route(2), None);
        assert_eq!(a.lsa_count(), 1, "only our own LSA remains mirrored");
    }

    /// A live LSA whose value does not decode must not be treated as a
    /// withdrawal: the mirror keeps the last good advertisement (one
    /// corrupt or future-format update must not cause an outage). A
    /// foreign-class object squatting under `/lsa/` is ignored entirely.
    #[test]
    fn undecodable_lsa_value_keeps_last_good_mirror_entry() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.rib.write_local(
            &Lsa::object_name(1),
            LSA_CLASS,
            Lsa { neighbors: vec![(2, 1)] }.encode(),
        );
        assert!(a.rib.apply_remote_silent(lsa_obj(2, &[(1, 1)], 1, false)));
        a.recompute_routes_now();
        assert_eq!(a.fwd().route(2), Some(&[2][..]));
        // A newer version with a truncated (undecodable) value arrives.
        let mut bad = lsa_obj(2, &[], 2, false);
        bad.value = Bytes::from_static(b"\xff");
        assert!(a.rib.apply_remote_silent(bad));
        a.recompute_routes_now();
        assert_eq!(a.fwd().route(2), Some(&[2][..]), "last good LSA still routes");
        assert_eq!(a.lsa_count(), 2);
        // A non-lsa-class object under the /lsa/ prefix never reaches
        // the engine.
        let mut alien = lsa_obj(9, &[(1, 1)], 1, false);
        alien.class = "dir".into();
        assert!(a.rib.apply_remote_silent(alien));
        a.recompute_routes_now();
        assert_eq!(a.lsa_count(), 2, "foreign class ignored by the mirror");
    }

    /// Joiners with no usable proposal get nested sub-ranges carved out
    /// of the sponsor's own block — disjoint, in-block, and halving —
    /// instead of fragmenting singletons.
    #[test]
    fn carving_gives_unplanned_joiners_nested_aggregatable_blocks() {
        let mut sponsor = mk("net.s");
        sponsor.bootstrap(1);
        sponsor.set_block((1, 64));
        for i in 0..3 {
            sponsor.add_n1(N1Kind::Phys { iface: i, mtu: 1500 });
        }
        let mut grants = Vec::new();
        for (i, name) in ["net.a", "net.b", "net.c"].iter().enumerate() {
            sponsor.handle_enroll_request(
                i,
                AppName::new(name),
                String::new(),
                0,
                (0, 0),
                DigestTable::default(),
                i as u32 + 1,
                Time::ZERO,
            );
            let (r, a, b, _) = last_enroll_response(&mut sponsor);
            assert_eq!(r, 0);
            grants.push((a, b));
        }
        assert_eq!(grants, vec![(2, (2, 33)), (34, (34, 49)), (50, (50, 57))]);
        for &(a, (lo, hi)) in &grants {
            assert!(1 <= lo && hi <= 64, "carves stay inside the sponsor's block");
            assert!(lo <= a && a <= hi);
        }
        for (i, &(_, x)) in grants.iter().enumerate() {
            for &(_, y) in &grants[i + 1..] {
                assert!(x.1 < y.0 || y.1 < x.0, "carved blocks stay disjoint");
            }
        }
    }

    /// A member that failed (losing all its state) and re-enrolls under
    /// the same name gets its recorded address and block back instead
    /// of colliding with its own stale records.
    #[test]
    fn failed_member_re_enrolls_with_its_old_grant() {
        let mut sponsor = mk("net.s");
        sponsor.bootstrap(1);
        sponsor.set_block((1, 64));
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, first_addr, first_block, _) = last_enroll_response(&mut sponsor);
        // The joiner came up (enrolled hello), then crashed and lost its
        // state entirely: its fresh incarnation proposes nothing.
        let hello = MgmtBody::Hello {
            name: AppName::new("net.x"),
            addr: first_addr,
            digests: DigestTable::default(),
        }
        .encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: first_addr, ttl: 1, payload: hello });
        sponsor.on_frame(0, pdu.encode(), Time::ZERO);
        sponsor.take_out();
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            2,
            Time::from_secs(10),
        );
        let (r, again_addr, again_block, _) = last_enroll_response(&mut sponsor);
        assert_eq!(r, 0);
        assert_eq!((again_addr, again_block), (first_addr, first_block), "identity reuse");
        let rec = decode_addr(&sponsor.rib.get("/members/net.x").unwrap().value).unwrap();
        assert_eq!(rec, first_addr, "one member record, unchanged");
    }

    /// Sponsor-side failure GC: a sponsored member that goes silent past
    /// the grace has its member record, block, and LSA tombstoned; any
    /// sign of life within the grace cancels the purge.
    #[test]
    fn sponsor_purges_a_silent_sponsored_member_after_grace() {
        let mut sponsor = Ipcp::new(
            0,
            DifConfig::new("net").with_member_gc_grace_ms(2_000),
            AppName::new("net.s"),
        );
        sponsor.bootstrap(1);
        sponsor.set_block((1, 64));
        sponsor.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, addr, _, _) = last_enroll_response(&mut sponsor);
        let hello = |t: Time, s: &mut Ipcp| {
            let h = MgmtBody::Hello {
                name: AppName::new("net.x"),
                addr,
                digests: DigestTable::default(),
            }
            .encode(0, 0);
            let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: addr, ttl: 1, payload: h });
            s.on_frame(0, pdu.encode(), t);
        };
        hello(Time::from_millis(100), &mut sponsor);
        // The member also flooded an LSA before dying.
        assert!(sponsor.rib.apply_remote_silent(lsa_obj(addr, &[(1, 1)], 1, false)));
        // Silence: hellos expire the adjacency (3 misses × 500 ms),
        // arming the watch; the grace later runs out and the purge
        // fires.
        let mut purged_at = None;
        for ms in (500..=6_000).step_by(500) {
            sponsor.tick_hello(Time::from_millis(ms));
            sponsor.take_out();
            if sponsor.stats.members_purged > 0 {
                purged_at = Some(ms);
                break;
            }
        }
        let purged_at = purged_at.expect("the purge fired");
        assert!(purged_at >= 3_500, "expiry (~1.5 s) plus grace (2 s), got {purged_at} ms");
        assert!(sponsor.rib.get("/members/net.x").is_none());
        assert!(sponsor.rib.get(&block_name(addr)).is_none());
        assert!(sponsor.rib.get(&Lsa::object_name(addr)).is_none());
        assert!(sponsor.rib.live_of_origin(addr).is_empty());

        // Same scenario, but the member hellos again inside the grace:
        // nothing is purged.
        let mut sponsor2 = Ipcp::new(
            0,
            DifConfig::new("net").with_member_gc_grace_ms(2_000),
            AppName::new("net.s"),
        );
        sponsor2.bootstrap(1);
        sponsor2.set_block((1, 64));
        sponsor2.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        sponsor2.handle_enroll_request(
            0,
            AppName::new("net.x"),
            String::new(),
            0,
            (0, 0),
            DigestTable::default(),
            1,
            Time::ZERO,
        );
        let (_, addr2, _, _) = last_enroll_response(&mut sponsor2);
        assert_eq!(addr2, addr);
        hello(Time::from_millis(100), &mut sponsor2);
        for ms in (500..=2_500).step_by(500) {
            sponsor2.tick_hello(Time::from_millis(ms));
        }
        // Alive after all: the returning hellos cancel the watch and
        // keep the adjacency from re-expiring.
        for ms in (3_000..=8_000).step_by(500) {
            hello(Time::from_millis(ms), &mut sponsor2);
            sponsor2.tick_hello(Time::from_millis(ms));
            sponsor2.take_out();
        }
        assert_eq!(sponsor2.stats.members_purged, 0, "the flap was not a failure");
        assert!(sponsor2.rib.get("/members/net.x").is_some());
    }

    /// A wrong purge (the member was alive behind a partition) is
    /// healed in one round: the owner rewrites its objects at a higher
    /// version than the tombstone.
    #[test]
    fn wrong_purge_is_reasserted_by_the_owner() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.dir_register(&AppName::new("web"));
        a.take_out();
        for name in ["/members/net.a", "/dir/web"] {
            let cur = a.rib.get(name).expect("live before the purge");
            let tomb = RibObject {
                name: name.into(),
                class: cur.class.clone(),
                value: Bytes::new(),
                version: cur.version + 1,
                origin: 9,
                deleted: true,
            };
            reflood(&mut a, tomb, 0);
        }
        assert_eq!(a.stats.reasserts, 2);
        let rec = a.rib.get("/members/net.a").expect("reasserted");
        assert_eq!(decode_addr(&rec.value), Some(1));
        assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
        // An unregistered app's tombstone is accepted, not fought.
        a.dir_unregister(&AppName::new("web"));
        assert_eq!(a.dir_lookup(&AppName::new("web")), None);
    }

    /// Graceful leave tombstones everything the member owns and stops
    /// it from originating new state while it lingers.
    #[test]
    fn announce_leave_tombstones_every_owned_object() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.dir_register(&AppName::new("web"));
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        a.rib.write_local(
            &Lsa::object_name(1),
            LSA_CLASS,
            Lsa { neighbors: vec![(2, 1)] }.encode(),
        );
        a.take_out();
        a.announce_leave(Time::from_secs(1));
        assert!(a.is_departed());
        assert!(a.rib.get("/members/net.a").is_none());
        assert!(a.rib.get("/dir/web").is_none());
        assert!(a.rib.get(&Lsa::object_name(1)).is_none());
        assert!(a.rib.live_of_origin(1).is_empty());
        // Neither an LSA refresh nor a reassert resurrects it.
        a.write_lsa_now();
        assert!(a.rib.get(&Lsa::object_name(1)).is_none());
        let cur_v = a.rib.iter_all().find(|o| o.name == "/members/net.a").unwrap().version;
        let tomb = RibObject {
            name: "/members/net.a".into(),
            class: "member".into(),
            value: Bytes::new(),
            version: cur_v + 1,
            origin: 9,
            deleted: true,
        };
        reflood(&mut a, tomb, 0);
        assert_eq!(a.stats.reasserts, 0, "a departed member does not reassert");
        assert!(a.rib.get("/members/net.a").is_none());
    }

    fn mk_scoped(name: &str) -> Ipcp {
        Ipcp::new(
            0,
            DifConfig::new("net").with_scoped_dir(true).with_flood_batch_ms(0),
            AppName::new(name),
        )
    }

    /// Decode every management body this process transmitted, with the
    /// (N-1) port it left on and the PDU's destination address.
    fn tx_mgmt(out: &[IpcpOut]) -> Vec<(usize, Addr, MgmtBody)> {
        out.iter()
            .filter_map(|o| match o {
                IpcpOut::TxPhys { n1, frame, .. } => Some((*n1, frame.clone())),
                _ => None,
            })
            .filter_map(|(n1, frame)| {
                let Pdu::Mgmt(m) = Pdu::decode(&frame).ok()? else { return None };
                let cdap = CdapMsg::decode(&m.payload).ok()?;
                Some((n1, m.dest_addr, MgmtBody::from_cdap(&cdap).ok()?))
            })
            .collect()
    }

    #[test]
    fn scoped_dir_leaves_the_hello_digest_surface() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        a.dir_register(&AppName::new("web"));
        // The owner still resolves its own registration...
        assert_eq!(a.dir_lookup(&AppName::new("web")), Some(1));
        // ...but advertises nothing about /dir to its neighbors.
        let table = a.rib.digest_table();
        assert!(table.entries().iter().all(|e| e.0 != "/dir"));
        assert!(a.rib.snapshot().iter().all(|o| !o.name.starts_with("/dir/")));
    }

    #[test]
    fn scoped_owner_answers_lookup_requests_authoritatively() {
        let mut owner = mk_scoped("net.o");
        owner.bootstrap(5);
        owner.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        owner.n1[0].up = true;
        owner.n1[0].peer_addr = 9; // the requester is a direct neighbor
        owner.rebuild_peer_index();
        owner.dir_register(&AppName::new("web"));
        owner.take_out();
        let req = MgmtBody::DirLookupRequest { name: "/dir/web".into(), origin: 9, lookup_id: 3 }
            .encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 9, ttl: 1, payload: req });
        owner.on_frame(0, pdu.encode(), Time::ZERO);
        let out = owner.take_out();
        let answers: Vec<_> = tx_mgmt(&out)
            .into_iter()
            .filter_map(|(_, dest, b)| match b {
                MgmtBody::DirLookupResponse { name, addr, version, lookup_id } => {
                    Some((dest, name, addr, version, lookup_id))
                }
                _ => None,
            })
            .collect();
        assert_eq!(answers, vec![(9, "/dir/web".to_string(), 5, 1, 3)]);
        assert_eq!(owner.stats.dir_lookups_answered, 1);
    }

    #[test]
    fn scoped_member_forwards_lookups_down_the_tree_only() {
        let mut relay = mk_scoped("net.r");
        relay.bootstrap(2);
        for i in 0..3 {
            relay.add_n1(N1Kind::Phys { iface: i, mtu: 1500 });
            relay.n1[i as usize].up = true;
            relay.n1[i as usize].peer_addr = 10 + i as Addr;
        }
        relay.n1[0].tree = true; // ingress
        relay.n1[1].tree = true; // the only forwarding target
        relay.n1[2].tree = false; // cross edge: lookups never ride it
        relay.rebuild_peer_index();
        relay.take_out();
        let req = MgmtBody::DirLookupRequest { name: "/dir/web".into(), origin: 9, lookup_id: 1 }
            .encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 10, ttl: 1, payload: req });
        relay.on_frame(0, pdu.encode(), Time::ZERO);
        let out = relay.take_out();
        let forwards: Vec<usize> = tx_mgmt(&out)
            .into_iter()
            .filter_map(|(n1, _, b)| matches!(b, MgmtBody::DirLookupRequest { .. }).then_some(n1))
            .collect();
        assert_eq!(forwards, vec![1], "tree-only, ingress excluded");
    }

    #[test]
    fn scoped_lookup_resolves_waiting_allocation_and_caches() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        a.n1[0].up = true;
        a.n1[0].peer_addr = 7; // owner is a direct tree neighbor
        a.n1[0].tree = true;
        a.rebuild_peer_index();
        // The owner's member state is known DIF-wide (liveness guard).
        assert!(a.rib.apply_remote_silent(RibObject {
            name: block_name(7),
            class: BLOCK_CLASS.into(),
            value: encode_block((7, 7)),
            version: 1,
            origin: 7,
            deleted: false,
        }));
        a.alloc_flow(10, AppName::new("c"), AppName::new("web"), QosSpec::reliable());
        let out = a.take_out();
        assert!(
            !out.iter().any(|o| matches!(o, IpcpOut::FlowFailed { .. })),
            "the allocation parks behind the lookup instead of failing"
        );
        assert!(tx_mgmt(&out)
            .iter()
            .any(|(_, _, b)| matches!(b, MgmtBody::DirLookupRequest { .. })));
        assert_eq!((a.stats.dir_cache_misses, a.stats.dir_lookups_sent), (1, 1));
        // The owner's answer arrives, addressed to us.
        let resp = MgmtBody::DirLookupResponse {
            name: "/dir/web".into(),
            addr: 7,
            version: 1,
            lookup_id: 1,
        }
        .encode(0, 0);
        let pdu = Pdu::Mgmt(MgmtPdu { dest_addr: 1, src_addr: 7, ttl: 4, payload: resp });
        a.on_frame(0, pdu.encode(), Time::ZERO);
        let out = a.take_out();
        let reqs: Vec<_> = tx_mgmt(&out)
            .into_iter()
            .filter_map(|(_, dest, b)| match b {
                MgmtBody::FlowRequest { dst_app, .. } => Some((dest, dst_app.key())),
                _ => None,
            })
            .collect();
        assert_eq!(reqs, vec![(7, "web".to_string())], "the parked allocation continued");
        // A second allocation hits the cache — no new lookup.
        a.alloc_flow(11, AppName::new("c"), AppName::new("web"), QosSpec::reliable());
        assert_eq!((a.stats.dir_cache_hits, a.stats.dir_lookups_sent), (1, 1));
        assert!(a.rib.get("/dir/web").is_none(), "cached, never stored in the RIB");
    }

    #[test]
    fn scoped_non_owner_never_stores_foreign_dir_objects() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        reflood(
            &mut a,
            RibObject {
                name: "/dir/web".into(),
                class: "dir".into(),
                value: encode_addr(7),
                version: 1,
                origin: 7,
                deleted: false,
            },
            0,
        );
        assert!(a.rib.get("/dir/web").is_none());
        assert!(a.rib.iter_all().all(|o| !o.name.starts_with("/dir/")));
    }

    #[test]
    fn dir_tombstone_invalidates_cache_and_blocks_stale_answers() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        a.n1[0].up = true;
        a.n1[0].peer_addr = 7;
        a.n1[0].tree = true;
        a.add_n1(N1Kind::Phys { iface: 1, mtu: 1500 });
        a.n1[1].up = true;
        a.n1[1].peer_addr = 8;
        a.n1[1].tree = true;
        a.rebuild_peer_index();
        assert!(a.rib.apply_remote_silent(RibObject {
            name: block_name(7),
            class: BLOCK_CLASS.into(),
            value: encode_block((7, 7)),
            version: 1,
            origin: 7,
            deleted: false,
        }));
        // Seed the cache through a lookup answer.
        a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
        a.alloc_flow(10, AppName::new("c"), AppName::new("web"), QosSpec::reliable());
        assert_eq!(a.stats.dir_cache_hits, 1);
        a.take_out();
        // The owner unregisters: its tombstone floods in on port 0.
        reflood(
            &mut a,
            RibObject {
                name: "/dir/web".into(),
                class: "dir".into(),
                value: Bytes::new(),
                version: 2,
                origin: 7,
                deleted: true,
            },
            0,
        );
        assert_eq!(a.stats.dir_invalidations, 1);
        let out = a.take_out();
        let fwd: Vec<usize> = tx_mgmt(&out)
            .into_iter()
            .filter_map(|(n1, _, b)| match b {
                MgmtBody::RibDeltaResponse { objects, .. }
                    if objects.iter().any(|o| o.view().name == "/dir/web" && o.view().deleted) =>
                {
                    Some(n1)
                }
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![1], "tombstone forwarded down the tree, ingress excluded");
        // A stale in-flight answer (version 1 < tombstone 2) is refused…
        a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
        a.alloc_flow(11, AppName::new("c"), AppName::new("web"), QosSpec::reliable());
        assert_eq!(a.stats.dir_cache_hits, 1, "no stale hit");
        // …while the re-registered entry (version 3) is accepted again.
        a.handle_dir_lookup_response("/dir/web".into(), 7, 3);
        a.alloc_flow(12, AppName::new("c"), AppName::new("web"), QosSpec::reliable());
        assert_eq!(a.stats.dir_cache_hits, 2);
    }

    #[test]
    fn blocks_tombstone_drops_cached_answers_for_departed_owner() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        assert!(a.rib.apply_remote_silent(RibObject {
            name: block_name(7),
            class: BLOCK_CLASS.into(),
            value: encode_block((7, 7)),
            version: 1,
            origin: 7,
            deleted: false,
        }));
        a.handle_dir_lookup_response("/dir/web".into(), 7, 1);
        a.handle_dir_lookup_response("/dir/ssh".into(), 7, 1);
        a.handle_dir_lookup_response("/dir/ftp".into(), 8, 1);
        // /dir/ftp points elsewhere and needs its own liveness record.
        assert_eq!(a.dir_cache.len(), 2, "owner 8 has no member state: not cached");
        assert!(a.rib.apply_remote_silent(RibObject {
            name: block_name(8),
            class: BLOCK_CLASS.into(),
            value: encode_block((8, 8)),
            version: 1,
            origin: 8,
            deleted: false,
        }));
        a.handle_dir_lookup_response("/dir/ftp".into(), 8, 1);
        assert_eq!(a.dir_cache.len(), 3);
        // Member 7 departs: its block tombstone arrives over the wire.
        reflood(
            &mut a,
            RibObject {
                name: block_name(7),
                class: BLOCK_CLASS.into(),
                value: Bytes::new(),
                version: 2,
                origin: 7,
                deleted: true,
            },
            0,
        );
        assert_eq!(a.stats.dir_invalidations, 2, "both answers pointing at 7 dropped");
        assert_eq!(a.dir_cache.len(), 1, "the unrelated answer survives");
        // A late answer from the departed owner is refused outright.
        a.handle_dir_lookup_response("/dir/web".into(), 7, 5);
        assert_eq!(a.dir_cache.len(), 1);
    }

    #[test]
    fn scoped_lookup_retry_budget_fails_the_waiting_allocation() {
        let mut a = mk_scoped("net.a");
        a.bootstrap(1);
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        a.n1[0].up = true;
        a.n1[0].peer_addr = 2;
        a.n1[0].tree = true;
        a.rebuild_peer_index();
        a.alloc_flow(10, AppName::new("c"), AppName::new("ghost"), QosSpec::reliable());
        a.take_out();
        let mut failed = None;
        for tick in 1..=16u64 {
            a.tick_hello(Time::from_millis(tick * 500));
            let out = a.take_out();
            if out.iter().any(
                |o| matches!(o, IpcpOut::FlowFailed { port: 10, reason } if *reason == "destination unknown in DIF"),
            ) {
                failed = Some(tick);
                break;
            }
        }
        assert!(failed.is_some(), "the unanswered lookup eventually fails its waiter");
        assert!(a.stats.dir_lookups_sent > 1, "the lookup was retried before giving up");
        assert!(a.dir_pending.is_empty());
    }

    #[test]
    fn dir_cache_evicts_least_recently_used_beyond_capacity() {
        let mut a = Ipcp::new(
            0,
            DifConfig::new("net").with_scoped_dir(true).with_dir_cache_cap(2),
            AppName::new("net.a"),
        );
        a.bootstrap(1);
        for owner in [7u64, 8, 9] {
            assert!(a.rib.apply_remote_silent(RibObject {
                name: block_name(owner),
                class: BLOCK_CLASS.into(),
                value: encode_block((owner, owner)),
                version: 1,
                origin: owner,
                deleted: false,
            }));
        }
        a.handle_dir_lookup_response("/dir/one".into(), 7, 1);
        a.handle_dir_lookup_response("/dir/two".into(), 8, 1);
        // Touch /dir/one so /dir/two becomes the LRU victim.
        assert_eq!(a.resolve_dir_local(&AppName::new("one")), Some(7));
        a.handle_dir_lookup_response("/dir/three".into(), 9, 1);
        assert_eq!(a.dir_cache.len(), 2);
        assert!(a.dir_cache.contains_key("/dir/one"));
        assert!(a.dir_cache.contains_key("/dir/three"));
        assert!(!a.dir_cache.contains_key("/dir/two"), "LRU victim evicted");
    }

    /// A previous incarnation's departure tombstone — same name, same
    /// origin address — arriving after the member rejoined is fought
    /// like any other wrongful clobber. Without this, a leave-rejoin
    /// under the old address can leave the rejoiner's LSA tombstoned
    /// DIF-wide: nothing re-marks it dirty (the neighbor set still
    /// matches `advertised`), so the member stays unroutable until its
    /// next adjacency change.
    #[test]
    fn stale_incarnations_own_origin_tombstone_is_reasserted() {
        let mut a = mk("net.a");
        a.bootstrap(1);
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        a.n1[0].up = true;
        a.n1[0].peer_addr = 2;
        a.rebuild_peer_index();
        a.write_lsa_now();
        a.take_out();
        let cur = a.rib.get(&Lsa::object_name(1)).expect("own LSA live");
        let tomb = RibObject {
            name: Lsa::object_name(1),
            class: cur.class.clone(),
            value: Bytes::new(),
            version: cur.version + 1,
            origin: 1, // authored by our own previous incarnation
            deleted: true,
        };
        reflood(&mut a, tomb, 0);
        assert_eq!(a.stats.reasserts, 1, "own-origin clobber must be fought");
        let healed = a.rib.get(&Lsa::object_name(1)).expect("LSA reasserted");
        assert_eq!(Lsa::decode(&healed.value).unwrap().neighbors, vec![(2, 1)]);
    }
}
