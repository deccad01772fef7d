//! The IPC process: one member of one DIF.
//!
//! An IPC process is the paper's three loosely coupled task sets (§4) on
//! three timescales, and this module tree is that split. Each file holds
//! one task's state in one struct; [`Ipcp`] is the facade that owns one
//! of each plus what they share.
//!
//! | task set | file | struct | owns |
//! |---|---|---|---|
//! | **IPC Data Transfer** (per PDU) | `transfer.rs` | `Transfer` | the (N-1) port table ([`N1Port`]), the peer-address relay index, the lower-flow index; relay-in-place, two-step forwarding, transmit |
//! | **IPC Transfer Control** (per flow) | `flows.rs` | `Flows` | the one flow table (CEP → port, phase, binding; a requesting flow's phase holds the invoke id its response echoes), CEP ids, and each connection's armed deadline; the flow-allocator handshake (§5.3), its deadline and its teardown |
//! | **IPC Management** — enrollment (§5.2) | `enroll.rs` | `Enroll` | outstanding requests and what they propose, admitted joiners awaiting their first hello, sponsored members and their failure watch; address and block assignment, leave and purge |
//! | — directory | `directory.rs` | `Directory` | own registrations, the lookup cache, tombstone memory, the allocations waiting on each on-demand lookup in flight (scoped `/dir`) |
//! | — neighbors | `neighbors.rs` | `Neighbors` | the planned adjacencies, the management view of each port (tree edge, peer digests, hello memo, a port's last lower flow), the hello send cache; allocating, retrying and binding lower flows, hello send/receive, expiry and release |
//! | — routing | `routes.rs` | `Routes` | the route engine (LSA graph, SPF, forwarding table), the advertised neighbor set and its debounce |
//! | — RIEP dissemination | `dissemination.rs` | `Dissemination` | per-port flood queues, the flood token bucket, own-object names; flood, anti-entropy deltas, apply/re-flood, reassert |
//!
//! A method that touches one task's state is a method on that task's
//! struct; one that orchestrates several is an `impl Ipcp` block in the
//! file of the task that starts it. What stays here is what the tasks
//! share — identity, the [`Rib`], the effect queue, the counters, the
//! clock shadow and the one invoke-id sequence (enrollment and flow
//! allocation draw from it alike) — and the two places where they meet:
//! [`Ipcp::on_frame`], which peeks each arriving frame and relays it,
//! hands it up, or terminates it, and the management dispatch behind it.
//! `transfer.rs` cannot name management state: it is handed the
//! forwarding table and the QoS cubes and imports nothing else.
//!
//! The recursion that defines the architecture is in [`N1Kind`]: an (N-1)
//! port is *either* a raw interface (making this a shim DIF "tailored to
//! the physical medium") *or* a flow allocated from a lower DIF on the
//! same node. A shim ([`Ipcp::shim`]) is the same machine built over its
//! medium with its peer known, not a second implementation: its one port
//! is bound to the medium with the other end's address in it, so
//! forwarding, delivery and the flow handshake find the peer as they
//! find any neighbor. Three policies are all a shim varies: the
//! two-member DIF a medium defines runs no management task (no
//! enrollment, no hello, nothing the RIB feeds: the medium's own up and
//! down events keep its port), its directory is "the peer", and its
//! flows are bound straight to the medium instead of to an EFCP
//! connection.
//!
//! An `Ipcp` is sans-IO like everything else: methods append [`IpcpOut`]
//! effects which the owning [`crate::node::Node`] executes — asking for
//! and releasing its lower flows included, so the life of an (N-1)
//! adjacency, from plan to release, is this process's.
//!
//! Each task owns its timers ([`IpcpTimer`]) and asks for each through
//! one timer interface, an [`IpcpOut::Arm`]; the node only arms them and
//! hands them back to [`Ipcp::on_timer`]. Neighbors keep the hello
//! cadence and the planned adjacencies' retries, enrollment the request
//! retry, transfer control each
//! flow allocation's one deadline and each EFCP connection's deadline,
//! asked for where the connection is pumped, the one place it moves.
//! Routing and dissemination debounce their [`Deferred`] jobs, which ask
//! once per flush (`Ipcp::arm_deferred`), when the node has drained
//! everything else.
//!
//! Every frame a member receives runs through this module, so all of it
//! is held panic-free (DESIGN.md §9, R1): indexing, `unwrap`, `expect` and
//! `panic!` are clippy errors in every file below. Loops over the (N-1)
//! port table use `get`; the four functions that keep a proven-safe index
//! or `expect` say why in an `#[expect(clippy::…, reason = "…")]`.

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

mod directory;
mod dissemination;
mod enroll;
mod flows;
mod neighbors;
mod routes;
mod transfer;

pub use enroll::decode_member;
pub(crate) use enroll::{member_name, MEMBER_PREFIX};
pub(crate) use flows::FarEnd;
pub use transfer::{N1Kind, N1Port};

use crate::dif::DifConfig;
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::qos::QosSpec;
use crate::rmt::TxClass;
use crate::routing::LSA_PREFIX;
use bytes::Bytes;
use rina_rib::Rib;
use rina_sim::{Dur, Time};
use rina_wire::{CdapMsg, CepId, MgmtPdu, Pdu, PduKind, PduView};

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
    /// A flow ended: it could not be allocated or has failed (`failed`
    /// says why), or the peer deallocated it (`None`).
    FlowGone {
        /// Node-local port id.
        port: u64,
        /// Why the flow failed, in words; `None` when the peer closed it.
        failed: Option<&'static str>,
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
    /// Allocate a lower flow for planned adjacency `plan`: from `via`,
    /// an IPC process on this node, to the peer IPC process `dst` with
    /// properties `spec`. The node names the flow's port to this process
    /// (`Ipcp::lower_requested`) before it asks `via`.
    Allocate {
        /// Index of the planned adjacency.
        plan: usize,
        /// The providing IPC process's index on the node.
        via: usize,
        /// The peer IPC process.
        dst: AppName,
        /// Requested flow properties.
        spec: QosSpec,
    },
    /// Release this process's end of the lower flow at `port`: the node
    /// forgets the port and deallocates the flow at its provider, which
    /// tells the peer if the flow was active.
    Release {
        /// Node-local port id.
        port: u64,
    },
    /// Arm `timer`: the node hands it back to [`Ipcp::on_timer`] at `at`.
    Arm {
        /// When it fires.
        at: Time,
        /// Which timer.
        timer: IpcpTimer,
    },
}

/// A timer an IPC process owns. The process asks for one with an
/// [`IpcpOut::Arm`] effect, its one timer interface, and the node arms it
/// and hands it back to [`Ipcp::on_timer`] when it fires; what it means
/// and when the next one is due is the process's business.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpcpTimer {
    /// The neighbor task's hello period; each tick arms the next.
    Hello,
    /// The enrollment task's request retry, re-armed until a member.
    EnrollRetry,
    /// Planned adjacency `k` asks for its flow: armed from start and
    /// after each loss of it, until its flow is up.
    Adjacency(usize),
    /// A deferred job's debounce ran out.
    Deferred(Deferred),
    /// The deadline of the flow allocation for node port `port`: one
    /// still in flight then is ended.
    Alloc {
        /// The node port the allocation is for.
        port: u64,
    },
    /// An EFCP deadline of the flow at `cep`. A firing at an instant
    /// that is not the flow's armed deadline — an earlier one superseded
    /// it, or the flow is gone — does nothing.
    Conn {
        /// The flow's local CEP id.
        cep: CepId,
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
    /// The rate-limited share of `flood_suppressed`: floods the
    /// cross-port token bucket refused.
    pub flood_throttled: u64,
    /// Anti-entropy delta requests sent (per subtree chunk).
    pub delta_requests: u64,
    /// Enrollment requests handled as sponsor.
    pub enrollments_sponsored: u64,
    /// Always 0: sponsors admit every joiner. Kept only because the repo
    /// benchmark (`benchmark/src/counters.rs`) reads it.
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
    /// [`MgmtBody::DirLookupRequest`]s originated, one per live tree
    /// port per lookup, each lookup asked once (forwarding on behalf of
    /// others is not counted).
    pub dir_lookups_sent: u64,
    /// Authoritative [`MgmtBody::DirLookupResponse`]s sent as owner.
    pub dir_lookups_answered: u64,
    /// Cache entries dropped by invalidation (a `/dir` tombstone or the
    /// owner's `/lsa` departure tombstone).
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

/// Work an IPC process defers so that a burst costs one run: once per
/// flush, `Ipcp::arm_deferred` asks for an [`IpcpTimer::Deferred`] for
/// each job with work waiting, and the job runs when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deferred {
    /// Route recomputation over the LSA deltas queued since the last one.
    Routes,
    /// A new version of this member's own LSA, debounced: neighbor-set
    /// changes inside one window become one version.
    Lsa,
    /// Flush of the per-port flood queues.
    Flood,
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
    /// Top of the address block `[addr, hi]` delegated to this member at
    /// enrollment: the range it may sponsor its subtree from, its own
    /// address first. `addr` when nothing was delegated.
    pub hi: Addr,
    /// Built over a point-to-point medium ([`Ipcp::shim`]). Read by the
    /// three policies a shim varies, and nowhere else: no management
    /// task ([`Ipcp::manages`]) and no hello (`start_hello`, with
    /// [`Ipcp::medium_up`] restoring its fixed peer instead),
    /// [`Ipcp::dir_lookup`], and the flow binding.
    is_shim: bool,
    /// Member state.
    enrolled: bool,
    /// This member announced a graceful leave: its objects are
    /// tombstoned and it must not originate new state (LSA refreshes,
    /// reasserts) that would resurrect itself while it lingers.
    departed: bool,
    /// The Resource Information Base.
    pub rib: Rib,
    /// Pending effects, drained by the node.
    out: Vec<IpcpOut>,
    /// Counters.
    pub stats: IpcpStats,
    /// Shadow of the virtual clock, updated at the public entry points;
    /// drives the flood token bucket without threading `now` through
    /// every dissemination path.
    clock: Time,
    /// The next CDAP invoke id: one sequence for every request this
    /// process originates, enrollment and flow allocation alike.
    next_invoke: u32,
    /// The [`Deferred`] jobs with a timer in flight, one bit each.
    deferred_armed: u8,
    transfer: transfer::Transfer,
    flows: flows::Flows,
    enroll: enroll::Enroll,
    directory: directory::Directory,
    neighbors: neighbors::Neighbors,
    routes: routes::Routes,
    dissemination: dissemination::Dissemination,
}

impl Ipcp {
    /// Create a not-yet-enrolled IPC process for `cfg`, named `name`.
    pub fn new(idx: usize, cfg: DifConfig, name: AppName) -> Self {
        let mut rib = Rib::new(0);
        // Object-level delta hook: the engine follows /lsa/* without
        // ever re-decoding the subtree wholesale.
        rib.watch_prefix(LSA_PREFIX);
        if cfg.scoped_dir {
            // Owner-held directory: /dir leaves the digest, sync-stream
            // and delta surface entirely.
            rib.set_local_subtree("/dir");
        }
        Ipcp {
            idx,
            dissemination: dissemination::Dissemination::new(),
            cfg,
            name,
            addr: 0,
            hi: 0,
            is_shim: false,
            enrolled: false,
            departed: false,
            rib,
            out: Vec::new(),
            stats: IpcpStats::default(),
            clock: Time::ZERO,
            next_invoke: 1,
            deferred_armed: 0,
            transfer: Default::default(),
            flows: Default::default(),
            enroll: Default::default(),
            directory: Default::default(),
            neighbors: Default::default(),
            routes: routes::Routes::new(),
        }
    }

    /// Create the shim IPC process at end `addr` (1 or 2) of the
    /// point-to-point medium behind interface `iface`: a member from the
    /// start, its one (N-1) port bound to the medium with the other end,
    /// `3 - addr`, as its peer. It runs no hello: the medium going down
    /// or coming back reaches it as [`Ipcp::n1_down`] or
    /// [`Ipcp::medium_up`].
    pub fn shim(idx: usize, cfg: DifConfig, name: AppName, iface: u32, addr: Addr) -> Self {
        assert!(addr == 1 || addr == 2, "a medium's two ends are addresses 1 and 2");
        let mut s = Ipcp::new(idx, cfg, name);
        s.is_shim = true;
        s.addr = addr;
        s.rib.set_origin(addr);
        s.enrolled = true;
        let n1 = s.add_n1(N1Kind::Phys { iface });
        s.medium_up(n1, Time::ZERO);
        s
    }

    /// The fresh, unenrolled process a crash-restart puts in this one's
    /// slot: the same configuration and name, carrying the applications
    /// registered here and the adjacencies planned here, with the same
    /// enrollment request.
    pub(crate) fn respawned(&self) -> Ipcp {
        let mut fresh = Ipcp::new(self.idx, self.cfg.clone(), self.name.clone());
        fresh.directory.registered = self.directory.registered.clone();
        fresh.neighbors.plans = self.neighbors.plans.iter().map(|p| p.restarted()).collect();
        fresh.enroll.request = self.enroll.request.clone();
        fresh
    }

    /// The address block `[addr, hi]` delegated to this member.
    pub fn block(&self) -> (Addr, Addr) {
        (self.addr, self.hi)
    }

    /// Whether this process is an enrolled member.
    pub fn is_enrolled(&self) -> bool {
        self.enrolled
    }

    /// Whether this member has announced a graceful leave.
    pub fn is_departed(&self) -> bool {
        self.departed
    }

    /// Whether this process runs the management tasks the RIB feeds —
    /// dissemination, anti-entropy, LSAs, sponsoring: an enrolled member
    /// of a real DIF. The two-member DIF a medium defines has none.
    pub(crate) fn manages(&self) -> bool {
        self.enrolled && !self.is_shim
    }

    /// Attach an (N-1) port. Returns its index.
    pub fn add_n1(&mut self, kind: N1Kind) -> usize {
        self.neighbors.peers.push(Default::default());
        self.transfer.add(kind)
    }

    /// The (N-1) ports (read-only view).
    pub fn n1_ports(&self) -> &[N1Port] {
        &self.transfer.n1
    }

    /// Drain pending effects.
    pub fn take_out(&mut self) -> Vec<IpcpOut> {
        std::mem::take(&mut self.out)
    }

    /// Like [`Ipcp::take_out`], but swaps the effects into a caller-owned
    /// buffer so a hot flush loop recycles two allocations forever instead
    /// of minting a fresh `Vec` per event.
    pub fn take_out_into(&mut self, buf: &mut Vec<IpcpOut>) {
        buf.clear();
        std::mem::swap(&mut self.out, buf);
    }

    /// One of this process's timers fired.
    pub fn on_timer(&mut self, timer: IpcpTimer, now: Time) {
        match timer {
            IpcpTimer::Hello => self.hello_timer(now),
            IpcpTimer::EnrollRetry => self.enroll_retry_timer(now),
            IpcpTimer::Adjacency(k) => self.ask_for_plan(k),
            IpcpTimer::Deferred(job) => {
                self.deferred_armed &= !(1 << job as u8);
                self.run_deferred(job, now);
            }
            IpcpTimer::Alloc { port } => self.alloc_timer(port),
            IpcpTimer::Conn { cep } => self.conn_timer(cep, now),
        }
    }

    /// Ask, with an [`IpcpOut::Arm`], for each deferred job with work
    /// waiting, as Routes → Lsa → Flood, at `now` plus the delay it asks
    /// for; a job already armed is skipped whatever it asks for now. The
    /// node asks once per flush, when it has drained every other effect,
    /// so a burst of work arms each job once.
    pub(crate) fn arm_deferred(&mut self, now: Time) {
        for job in [Deferred::Routes, Deferred::Lsa, Deferred::Flood] {
            // Asked even when armed: asking about Routes drains the RIB's
            // delta hook.
            let Some(d) = self.deferred_wanted(job) else { continue };
            let bit = 1 << job as u8;
            if self.deferred_armed & bit == 0 {
                self.deferred_armed |= bit;
                self.out.push(IpcpOut::Arm { at: now + d, timer: IpcpTimer::Deferred(job) });
            }
        }
    }

    /// Whether `job` has work waiting, and if so how long to let more of
    /// it accumulate before [`Ipcp::run_deferred`]. Asking about
    /// [`Deferred::Routes`] first drains the RIB's delta hook, so the
    /// answer reflects everything stored so far whichever path stored it.
    fn deferred_wanted(&mut self, job: Deferred) -> Option<Dur> {
        match job {
            Deferred::Routes => {
                self.routes.sync(&mut self.rib);
                // Routes are rooted at this member's address: before
                // enrollment there is none, and enrollment recomputes.
                self.routes.recompute_wanted().filter(|_| self.enrolled)
            }
            Deferred::Lsa => self.routes.lsa_dirty.then_some(routes::LSA_DEBOUNCE),
            Deferred::Flood => self.dissemination.flush_wanted(),
        }
    }

    /// Run `job` now (its timer fired); a no-op when nothing is waiting.
    fn run_deferred(&mut self, job: Deferred, now: Time) {
        match job {
            Deferred::Routes => {
                self.routes.sync(&mut self.rib);
                self.routes.engine.recompute();
            }
            Deferred::Lsa => {
                self.clock = now;
                if self.routes.lsa_dirty {
                    self.write_lsa_now();
                }
            }
            Deferred::Flood => {
                self.clock = now;
                self.flush_floods();
            }
        }
    }

    /// A frame (encoded PDU) arrived on (N-1) port `n1`: one peek decides
    /// between relaying it untouched and terminating it here, and only
    /// terminated frames are decoded.
    ///
    /// The peek validates a subset of what [`Pdu::decode`] does (it
    /// trusts the CRC trailer), so a frame it declines is one decode
    /// would reject. Skipping the CRC on the relay and raw-delivery paths
    /// is sound because links lose frames but never corrupt them, and a
    /// frame's own trailer is still checked by the full decode at its
    /// terminal hop.
    pub fn on_frame(&mut self, n1: usize, frame: Bytes, now: Time) {
        self.clock = now;
        if let Some(p) = self.transfer.n1.get_mut(n1) {
            // Any traffic proves liveness.
            p.last_hello = now;
        }
        let Some(v) = PduView::peek(&frame) else {
            self.stats.decode_errors += 1;
            return;
        };
        if v.dest_addr != 0 && v.dest_addr != self.addr {
            let (fwd, cubes) = (self.routes.engine.table(), &self.cfg.cubes);
            self.transfer.relay(v, frame, fwd, cubes, &mut self.stats, &mut self.out);
            return;
        }
        if v.kind == PduKind::Data {
            return self.on_data(v, frame, now);
        }
        match Pdu::decode(&frame) {
            Ok(pdu) => self.deliver_local(pdu, n1, now),
            Err(_) => self.stats.decode_errors += 1,
        }
    }

    /// Terminate a decoded PDU here: management to the management task,
    /// data and control to the EFCP connection owning the CEP. Data from
    /// an (N-1) port takes [`Ipcp::on_data`] instead; only this member's
    /// own loopback brings data here.
    fn deliver_local(&mut self, pdu: Pdu, from_n1: usize, now: Time) {
        let cep = match pdu {
            Pdu::Mgmt(m) => return self.handle_mgmt(m, from_n1, now),
            Pdu::Data(ref d) => d.dest_cep,
            Pdu::Ctrl(ref c) => c.dest_cep,
        };
        let Some(conn) = self.flows.conn_mut(cep) else {
            self.stats.no_flow_drops += 1;
            return;
        };
        conn.on_pdu(&pdu, now.nanos());
        self.pump_conn(cep, now);
    }

    /// Send `pdu`, originated here, toward its destination address.
    fn forward(&mut self, pdu: Pdu) {
        let (fwd, cubes) = (self.routes.engine.table(), &self.cfg.cubes);
        self.transfer.forward(pdu, fwd, cubes, &mut self.stats, &mut self.out);
    }

    fn handle_mgmt(&mut self, m: MgmtPdu, from_n1: usize, now: Time) {
        if self.on_repeated_hello(&m.payload, from_n1, now) {
            self.routes.sync(&mut self.rib);
            return;
        }
        let Ok(cdap) = CdapMsg::decode(&m.payload) else {
            self.stats.decode_errors += 1;
            return;
        };
        let Ok(body) = MgmtBody::from_cdap(&cdap) else {
            self.stats.decode_errors += 1;
            return;
        };
        match body {
            MgmtBody::Hello { name, addr, digests } => {
                self.on_decoded_hello(m.payload, name, addr, digests, from_n1, now);
            }
            MgmtBody::EnrollRequest { name, credential, proposed_addr, proposed_hi, digests } => {
                self.handle_enroll_request(
                    from_n1,
                    name,
                    credential,
                    proposed_addr,
                    proposed_hi,
                    digests,
                    cdap.invoke_id,
                    now,
                );
            }
            MgmtBody::EnrollResponse { addr, hi, .. } => {
                if self.enroll.pending.remove(&cdap.invoke_id) {
                    self.handle_enroll_response(addr, hi, cdap.result);
                }
            }
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr, src_cep } => {
                let invoke = cdap.invoke_id;
                self.handle_flow_request(src_app, dst_app, spec, src_addr, src_cep, invoke);
            }
            MgmtBody::FlowResponse { dst_cep, qos_id } => {
                let (invoke, result) = (cdap.invoke_id, cdap.result);
                self.handle_flow_response(invoke, m.src_addr, dst_cep, qos_id, result);
            }
            MgmtBody::FlowTeardown { cep } => self.handle_flow_teardown(m.src_addr, cep),
            MgmtBody::RibDeltaRequest { subtree, from, upto, summary } => {
                self.handle_delta_request(from_n1, &subtree, &from, &upto, &summary);
            }
            MgmtBody::RibDeltaResponse { subtree: _, objects } => {
                for obj in &objects {
                    self.apply_and_reflood(obj, from_n1);
                }
            }
            MgmtBody::DirLookupRequest { name, origin } => {
                self.handle_dir_lookup_request(name, origin, from_n1);
            }
            MgmtBody::DirLookupResponse { name, addr, version } => {
                self.handle_dir_lookup_response(name, addr, version);
            }
        }
        // Whatever this PDU applied, surface it to the engine now so a
        // current dirty/classification state decides whether (and how
        // fast) the recompute debounce is armed.
        self.routes.sync(&mut self.rib);
    }

    /// Frame `payload` as a management PDU from this process: link-local
    /// (`dest` 0, `ttl` 1) or addressed to a member.
    fn mgmt_pdu(&self, dest: Addr, ttl: u8, payload: Bytes) -> Pdu {
        Pdu::Mgmt(MgmtPdu { dest_addr: dest, src_addr: self.addr, ttl, payload })
    }

    /// Send an encoded management frame over one (N-1) port.
    fn tx_mgmt(&mut self, n1: usize, frame: Bytes) {
        self.stats.mgmt_tx += 1;
        self.transfer.tx_n1(n1, frame, TxClass::mgmt(), &mut self.out);
    }

    /// Send a management payload link-locally over one (N-1) port.
    fn send_payload_on(&mut self, n1: usize, payload: Bytes) {
        let frame = self.mgmt_pdu(0, 1, payload).encode();
        self.tx_mgmt(n1, frame);
    }

    /// Send a management body link-locally over one (N-1) port.
    fn send_mgmt_on(&mut self, n1: usize, body: MgmtBody, invoke_id: u32, result: i32) {
        self.send_payload_on(n1, body.encode(invoke_id, result));
    }

    /// Send a management body to a member address (relayed if needed).
    fn send_mgmt_addr(&mut self, dest: Addr, body: MgmtBody, invoke_id: u32, result: i32) {
        let pdu = self.mgmt_pdu(dest, rina_wire::efcp::DEFAULT_TTL, body.encode(invoke_id, result));
        self.stats.mgmt_tx += 1;
        if dest == self.addr {
            // Rare but possible: both apps on the same member.
            self.deliver_local(pdu, usize::MAX, self.clock);
            return;
        }
        self.forward(pdu);
    }

    fn next_invoke(&mut self) -> u32 {
        let i = self.next_invoke;
        self.next_invoke += 1;
        i
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

#[cfg(test)]
pub(crate) use enroll::encode_member;

#[cfg(test)]
mod tests;
