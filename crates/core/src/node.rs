//! A simulated machine: the IPC manager.
//!
//! A [`Node`] hosts application processes and a stack of IPC processes
//! (shims bound to its physical interfaces, plus members of higher DIFs).
//! It is the glue the paper calls the *IPC manager* (§3.1, Figure 1): it
//! owns the port table that binds applications (and higher IPC processes —
//! they are applications too, §4) to the flows lower DIFs provide, executes
//! the effects IPC processes emit, and arms their timers.
//!
//! Construction is declarative: shims are attached to interfaces, and the
//! IPC processes of higher DIFs are handed the adjacencies they plan
//! (`Ipcp::plan_adjacency`). Each process allocates and re-allocates
//! its own lower flows until the stack assembles itself — exactly the
//! bottom-up self-formation the paper's §5 describes. The node only
//! executes what a process asks: [`IpcpOut::Allocate`] and
//! [`IpcpOut::Release`] run inline as it flushes, like a transmit or a
//! timer, and a lower flow coming up or going away is handed to the
//! process that owns its port (`Ipcp::lower_flow_up`,
//! `Ipcp::lower_flow_gone`).
//!
//! Timers: an IPC process owns its own — the hello cadence, the
//! enrollment retry, the adjacency retries, the debounced deferred jobs,
//! each flow allocation's deadline and the EFCP deadlines
//! ([`IpcpTimer`]) — and asks for each through one timer interface, an
//! [`IpcpOut::Arm`] effect, which the node runs inline as it flushes: it
//! arms the timer as one `TimerKind::Ipcp` and hands it back to
//! [`Ipcp::on_timer`]. The debounced jobs ask once per flush, when the
//! node has drained everything else the process emitted
//! (`Ipcp::arm_deferred`). The node's own timers are the IPC
//! manager's: NIC pacing and the applications' timers. Whether an
//! allocation succeeds, fails or times out, for an application or for a
//! higher IPC process, is the providing process's to say, as one
//! [`IpcpOut::FlowActive`] or [`IpcpOut::FlowGone`].
//!
//! A medium that goes down or comes back is an engine event
//! ([`Agent::medium`]), which the node hands to the shim bound to that
//! interface, as a port going down ([`Ipcp::n1_down`], which a failed
//! send also reports) or coming back ([`Ipcp::medium_up`]).

use crate::app::{AppProcess, FlowH, FlowOrigin, IpcApi, IpcError};
use crate::dif::DifConfig;
use crate::fxhash::FxHashMap;
use crate::ipcp::{Ipcp, IpcpOut, IpcpTimer, N1Kind};
use crate::naming::{Addr, AppName};
use crate::qos::QosSpec;
use crate::rmt::{RmtQueue, TxClass};
use bytes::Bytes;
use rina_sim::{Agent, Ctx, Dur, Event, IfaceId, SendError, Time};
use std::any::Any;
use std::collections::VecDeque;

/// Timer key bit marking externally injected node commands (see
/// [`leave_key`] / [`respawn_key`]). Commands run inside the event loop,
/// where the node holds a context and can flush effects and arm timers —
/// churn harnesses cannot do either from outside the simulation.
const CMD_BIT: u64 = 1 << 62;

/// Build the key for [`rina_sim::Sim::call`] that makes IPC process
/// `ipcp` of the target node gracefully leave its DIF: it tombstones all
/// its RIB objects ([`Ipcp::announce_leave`]) and the node floods the
/// deletions while the process lingers for its neighbors to drain them.
pub(crate) fn leave_key(ipcp: usize) -> u64 {
    CMD_BIT | (1 << 32) | ipcp as u64
}

/// Build the key for [`rina_sim::Sim::call`] that crash-restarts IPC
/// process `ipcp` of the target node: the old process vanishes without a
/// word (its neighbors detect the silence), and a fresh one takes its
/// slot and starts its planned adjacencies, so it re-enrolls from scratch.
pub(crate) fn respawn_key(ipcp: usize) -> u64 {
    CMD_BIT | (2 << 32) | ipcp as u64
}

/// Who consumes SDUs delivered on a port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Owner {
    /// A local application process.
    App(usize),
    /// A higher IPC process using this flow as an (N-1) port.
    Upper(usize),
}

struct PortState {
    owner: Owner,
    provider: usize,
    /// Whether a local application requested this flow (its [`FlowH`] is
    /// the port id); `false` for inbound flows and (N-1) ports of upper
    /// IPCPs.
    requested: bool,
    active: bool,
}

impl PortState {
    /// How the flow on this port (`port`) came about, as its application
    /// is told.
    fn origin(&self, port: u64) -> FlowOrigin {
        if self.requested {
            FlowOrigin::Requested(FlowH(port))
        } else {
            FlowOrigin::Inbound
        }
    }
}

struct AppEntry {
    name: AppName,
    behavior: Option<Box<dyn AppProcess>>,
}

/// A physical interface: the IPC process and (N-1) port bound to it,
/// and the pacer that drains that port into the link.
struct Iface {
    ipcp: usize,
    n1: usize,
    pace: Pace,
}

struct Pace {
    queue: RmtQueue,
    /// When the link's transmitter is free again, as its last send said.
    busy_until: Time,
    /// A wake-up timer for `busy_until` is already armed.
    timer_armed: bool,
}

impl Pace {
    /// An idle pacer whose queue `cfg` schedules and bounds. The queue
    /// models the *host's own* buffering toward its NIC (the network
    /// bottleneck queues live in the links). Its default capacity must
    /// absorb a sponsor's full-RIB resync burst — O(members) small frames
    /// at enrollment time — which a wire-queue-sized cap would tail-drop
    /// with no repair path for distant objects.
    fn new(cfg: &DifConfig) -> Self {
        let queue = RmtQueue::for_cubes(cfg.sched, cfg.rmt_queue_cap_bytes, &cfg.cubes);
        Pace { queue, busy_until: Time::ZERO, timer_armed: false }
    }
}

enum TimerKind {
    Ipcp { ipcp: usize, timer: IpcpTimer },
    Pace { iface: usize },
    App { app: usize, key: u64 },
}

/// A simulated machine hosting applications and a DIF stack.
pub struct Node {
    /// Machine name (debugging and IPC-process naming convention).
    pub name: String,
    apps: Vec<AppEntry>,
    ipcps: Vec<Ipcp>,
    ports: FxHashMap<u64, PortState>,
    next_port: u64,
    timers: FxHashMap<u64, TimerKind>,
    next_token: u64,
    /// Effects awaiting execution, each with the index of the IPC process
    /// that emitted it ([`IpcpOut::TxPhys`], [`IpcpOut::Allocate`],
    /// [`IpcpOut::Release`] and [`IpcpOut::Arm`] are executed as they are
    /// flushed and never queue).
    workq: VecDeque<(usize, IpcpOut)>,
    /// Indexed by [`IfaceId`].
    ifaces: Vec<Iface>,
    /// Recycled buffer for draining IPCP effect queues without a fresh
    /// allocation per flush (the data plane flushes after every frame).
    out_scratch: Vec<IpcpOut>,
    /// SDUs delivered to ports with no live owner (diagnostic).
    pub orphan_sdus: u64,
    /// Frames and SDUs refused on their way down and dropped uncounted
    /// anywhere else: a frame the link would not take (too big, no such
    /// interface — a full queue is the link's own `drops_overflow`), or
    /// an upper IPC process's PDU its lower flow would not (no such flow
    /// here, not active, EFCP back-pressure).
    pub tx_refused: u64,
}

impl Node {
    /// A machine with no applications or IPC processes yet.
    pub fn new(name: &str) -> Self {
        Node {
            name: name.to_string(),
            apps: Vec::new(),
            ipcps: Vec::new(),
            ports: FxHashMap::default(),
            next_port: 1,
            timers: FxHashMap::default(),
            next_token: 1,
            workq: VecDeque::new(),
            ifaces: Vec::new(),
            out_scratch: Vec::new(),
            orphan_sdus: 0,
            tx_refused: 0,
        }
    }

    // ------------------------------------------------------------------
    // Construction (called before the simulation runs)
    // ------------------------------------------------------------------

    /// Host an application process. Returns its index.
    pub fn add_app(&mut self, name: AppName, behavior: impl AppProcess) -> usize {
        self.apps.push(AppEntry { name, behavior: Some(Box::new(behavior)) });
        self.apps.len() - 1
    }

    /// Create an IPC process for `cfg` named `name`. Returns its index.
    pub fn add_ipcp(&mut self, cfg: DifConfig, name: AppName) -> usize {
        let idx = self.ipcps.len();
        self.ipcps.push(Ipcp::new(idx, cfg, name));
        idx
    }

    /// Create the shim IPC process for a physical interface. `side` is 0
    /// or 1 (which end of the link this node is). Returns the ipcp index.
    ///
    /// # Panics
    /// If `iface` is not the node's next interface: shims bind in the
    /// order the node was connected to links.
    pub fn add_shim(&mut self, cfg: DifConfig, name: AppName, iface: IfaceId, side: u8) -> usize {
        assert_eq!(iface.0 as usize, self.ifaces.len(), "shims bind in interface order");
        let idx = self.ipcps.len();
        let pace = Pace::new(&cfg);
        self.ipcps.push(Ipcp::shim(idx, cfg, name, iface.0, side as Addr + 1));
        // A shim's one (N-1) port is the medium.
        self.ifaces.push(Iface { ipcp: idx, n1: 0, pace });
        idx
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The IPC process at `idx`.
    pub fn ipcp(&self, idx: usize) -> &Ipcp {
        &self.ipcps[idx]
    }

    /// Every IPC process on this machine, by index.
    pub fn ipcps(&self) -> &[Ipcp] {
        &self.ipcps
    }

    /// Mutable access to the IPC process at `idx` (construction, tests,
    /// benches).
    pub fn ipcp_mut(&mut self, idx: usize) -> &mut Ipcp {
        &mut self.ipcps[idx]
    }

    /// Downcast application `idx` to its concrete type.
    ///
    /// # Panics
    /// If the index is invalid, the type mismatches, or the app is mid-callback.
    pub fn app<T: AppProcess>(&self, idx: usize) -> &T {
        let app: &dyn Any = self.apps[idx].behavior.as_deref().expect("app is mid-callback");
        app.downcast_ref().expect("app type mismatch")
    }

    /// Mutable downcast of application `idx`.
    pub fn app_mut<T: AppProcess>(&mut self, idx: usize) -> &mut T {
        let app: &mut dyn Any =
            self.apps[idx].behavior.as_deref_mut().expect("app is mid-callback");
        app.downcast_mut().expect("app type mismatch")
    }

    /// Whether every IPC process is enrolled with all its planned (N-1)
    /// adjacencies up — "the stack has assembled".
    pub fn assembled(&self) -> bool {
        self.ipcps.iter().all(Ipcp::is_assembled)
    }

    /// Aggregate per-lane RMT transmit-queue counters over every physical
    /// interface of this node.
    pub fn rmt_lane_stats(&self) -> [crate::rmt::LaneStats; crate::rmt::LANES] {
        let mut agg = [crate::rmt::LaneStats::default(); crate::rmt::LANES];
        for f in &self.ifaces {
            for (l, s) in f.pace.queue.lane_stats().iter().enumerate() {
                agg[l].merge(s);
            }
        }
        agg
    }

    // ------------------------------------------------------------------
    // IpcApi backing (called by application callbacks)
    // ------------------------------------------------------------------

    pub(crate) fn api_allocate(
        &mut self,
        app: usize,
        dst: AppName,
        spec: QosSpec,
        ctx: &mut Ctx<'_>,
    ) -> FlowH {
        let src = self.apps[app].name.clone();
        let Some(provider) = self.pick_provider(&dst) else {
            // Deliver the failure asynchronously, after this callback.
            let port = self.new_port(Owner::App(app), usize::MAX, true);
            let failed = Some("no DIF knows the destination");
            self.workq.push_back((usize::MAX, IpcpOut::FlowGone { port, failed }));
            return FlowH(port);
        };
        let port = self.new_port(Owner::App(app), provider, true);
        self.ipcps[provider].alloc_flow(port, src, dst, spec, ctx.now());
        self.flush_ipcp(provider, ctx);
        FlowH(port)
    }

    pub(crate) fn api_write(
        &mut self,
        app: usize,
        flow: FlowH,
        sdu: Bytes,
        ctx: &mut Ctx<'_>,
    ) -> Result<(), IpcError> {
        let st = self.ports.get(&flow.0).ok_or(IpcError::BadFlow)?;
        if st.owner != Owner::App(app) {
            return Err(IpcError::BadFlow);
        }
        if !st.active {
            return Err(IpcError::NotActive);
        }
        let provider = st.provider;
        let res = self.ipcps[provider]
            .write_port(flow.0, sdu, ctx.now(), None)
            .map_err(|_| IpcError::Rejected);
        self.flush_ipcp(provider, ctx);
        res
    }

    pub(crate) fn api_deallocate(&mut self, app: usize, flow: FlowH, ctx: &mut Ctx<'_>) {
        if self.ports.get(&flow.0).is_some_and(|st| st.owner == Owner::App(app)) {
            self.release_port(flow.0, ctx);
        }
    }

    pub(crate) fn api_timer(&mut self, app: usize, d: Dur, key: u64, ctx: &mut Ctx<'_>) {
        let at = ctx.now() + d;
        self.arm(ctx, at, TimerKind::App { app, key });
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The ports whose state satisfies `pred`, in port-id order.
    fn ports_where(&self, pred: impl Fn(&PortState) -> bool) -> Vec<u64> {
        let mut ports: Vec<u64> =
            self.ports.iter().filter(|&(_, s)| pred(s)).map(|(&p, _)| p).collect();
        ports.sort_unstable();
        ports
    }

    fn new_port(&mut self, owner: Owner, provider: usize, requested: bool) -> u64 {
        let port = self.next_port;
        self.next_port += 1;
        self.ports.insert(port, PortState { owner, provider, requested, active: false });
        port
    }

    /// Applications allocate only from members that run their DIF's
    /// management; shims serve IPC processes (their service is raw and
    /// their directory degenerate). A DIF that replicates its directory
    /// must know the name locally; one running the scoped-`/dir` policy
    /// resolves names on demand at their owner, so it is eligible without
    /// local knowledge (the allocation fails later if no owner answers).
    fn pick_provider(&self, dst: &AppName) -> Option<usize> {
        self.ipcps
            .iter()
            .position(|p| p.manages() && p.dir_lookup(dst).is_some())
            .or_else(|| self.ipcps.iter().position(|p| p.manages() && p.cfg.scoped_dir))
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, at: Time, kind: TimerKind) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, kind);
        ctx.timer_at(at, token);
    }

    fn flush_ipcp(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        // Recycled drain buffer: effects go to the workq, straight to the
        // pace queues or onto the timer heap, so one scratch Vec serves
        // every flush with zero steady-state allocation (only a link
        // found down mid-flush, or a lower flow allocated or released,
        // nests a flush, on a fresh Vec).
        let mut effs = std::mem::take(&mut self.out_scratch);
        let mut asked = false;
        loop {
            self.ipcps[i].take_out_into(&mut effs);
            if effs.is_empty() {
                if std::mem::replace(&mut asked, true) {
                    break;
                }
                // Drained: the debounced jobs ask for their timers, once
                // per flush.
                self.ipcps[i].arm_deferred(ctx.now());
                continue;
            }
            for e in effs.drain(..) {
                match e {
                    IpcpOut::TxPhys { n1, frame, class } => {
                        self.pace_push(i, n1, frame, class, ctx);
                    }
                    IpcpOut::Arm { at, timer } => {
                        self.arm(ctx, at, TimerKind::Ipcp { ipcp: i, timer });
                    }
                    IpcpOut::Allocate { plan, via, dst, spec } => {
                        let port = self.new_port(Owner::Upper(i), via, false);
                        self.ipcps[i].lower_requested(plan, port);
                        let src = self.ipcps[i].name.clone();
                        self.ipcps[via].alloc_flow(port, src, dst, spec, ctx.now());
                        self.flush_ipcp(via, ctx);
                    }
                    IpcpOut::Release { port } => self.release_port(port, ctx),
                    queued => self.workq.push_back((i, queued)),
                }
            }
        }
        self.out_scratch = effs;
    }

    /// Queue `frame`, which IPC process `i` sends on its (N-1) port
    /// `n1`, at the pacer of the interface behind that port.
    fn pace_push(&mut self, i: usize, n1: usize, frame: Bytes, class: TxClass, ctx: &mut Ctx<'_>) {
        let Some(N1Kind::Phys { iface }) = self.ipcps[i].n1_ports().get(n1).map(|p| p.kind) else {
            return;
        };
        let Some(f) = self.ifaces.get_mut(iface as usize) else {
            return;
        };
        f.pace.queue.push(class, frame, ctx.now().nanos());
        self.pace_kick(iface as usize, ctx);
    }

    fn pace_kick(&mut self, iface: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(Iface { ipcp: i, n1, pace: p }) = self.ifaces.get_mut(iface) else {
            return;
        };
        let (i, n1) = (*i, *n1);
        if now >= p.busy_until {
            let Some(frame) = p.queue.pop(now.nanos()) else {
                return;
            };
            match ctx.send(IfaceId(iface as u32), frame) {
                Ok(left) => p.busy_until = left,
                Err(SendError::LinkDown) => {
                    // Local failure detection: the medium is gone.
                    self.ipcps[i].n1_down(n1, now);
                    self.flush_ipcp(i, ctx);
                    return;
                }
                // Tail drop at the link, booked in its `drops_overflow`.
                Err(SendError::QueueFull) => return,
                Err(SendError::TooBig | SendError::NoSuchIface) => {
                    self.tx_refused += 1;
                    return;
                }
            }
        }
        // Transmitter busy: make sure a wake-up is armed so queued frames
        // leave as soon as it frees (not at the next unrelated event).
        if !p.timer_armed && !p.queue.is_empty() {
            p.timer_armed = true;
            let at = p.busy_until;
            self.arm(ctx, at, TimerKind::Pace { iface });
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let mut guard = 0u64;
        while let Some((ipcp, w)) = self.workq.pop_front() {
            guard += 1;
            assert!(guard < 5_000_000, "node work loop runaway on {}", self.name);
            match w {
                IpcpOut::TxPhys { .. }
                | IpcpOut::Arm { .. }
                | IpcpOut::Allocate { .. }
                | IpcpOut::Release { .. } => {
                    unreachable!("flush_ipcp executes these as it drains them")
                }
                IpcpOut::TxLower { port, sdu, class } => {
                    let Some(st) = self.ports.get(&port) else {
                        self.tx_refused += 1;
                        continue;
                    };
                    let provider = st.provider;
                    if self.ipcps[provider].write_port(port, sdu, ctx.now(), Some(class)).is_err() {
                        self.tx_refused += 1;
                    }
                    self.flush_ipcp(provider, ctx);
                }
                IpcpOut::Deliver { port, sdu } => {
                    let Some(st) = self.ports.get(&port) else {
                        self.orphan_sdus += 1;
                        continue;
                    };
                    match st.owner {
                        Owner::App(a) => {
                            self.call_app(a, ctx, |app, api| {
                                app.on_sdu(FlowH(port), sdu, api);
                            });
                        }
                        Owner::Upper(u) => {
                            if let Some(n1) = self.ipcps[u].n1_bound_to(port) {
                                self.ipcps[u].on_frame(n1, sdu, ctx.now());
                                self.flush_ipcp(u, ctx);
                            } else {
                                self.orphan_sdus += 1;
                            }
                        }
                    }
                }
                IpcpOut::FlowActive { port, peer } => {
                    let Some(st) = self.ports.get_mut(&port) else { continue };
                    st.active = true;
                    let (owner, origin, via) = (st.owner, st.origin(port), st.provider);
                    match owner {
                        Owner::App(a) => {
                            self.call_app(a, ctx, |app, api| {
                                app.on_flow_allocated(origin, FlowH(port), &peer, api);
                            });
                        }
                        Owner::Upper(u) => {
                            self.ipcps[u].lower_flow_up(port, via, peer, ctx.now());
                            self.flush_ipcp(u, ctx);
                        }
                    }
                }
                IpcpOut::FlowGone { port, failed } => self.flow_gone(port, failed, ctx),
                IpcpOut::FlowReqIn { src_app, dst_app, spec, src_addr, src_cep, invoke_id } => {
                    match self.flow_taker(&src_app, &dst_app) {
                        Ok(owner) => {
                            let port = self.new_port(owner, ipcp, false);
                            self.ipcps[ipcp]
                                .flow_accept(port, src_app, spec, src_addr, src_cep, invoke_id);
                        }
                        Err(refusal) => self.ipcps[ipcp].flow_reject(src_addr, invoke_id, refusal),
                    }
                    self.flush_ipcp(ipcp, ctx);
                }
            }
        }
    }

    /// Who on this node takes an inbound flow from `src_app` to `dst_app`
    /// — the local application of that name, if it agrees, or a higher IPC
    /// process of that name (they are applications of the DIF below:
    /// auto-accept, this is adjacency forming) — or the result code to
    /// refuse it with.
    fn flow_taker(&mut self, src_app: &AppName, dst_app: &AppName) -> Result<Owner, i32> {
        if let Some(a) = self.apps.iter().position(|e| e.name == *dst_app) {
            let mut b = self.apps[a].behavior.take().expect("app busy");
            let accept = b.on_flow_requested(src_app);
            self.apps[a].behavior = Some(b);
            return if accept { Ok(Owner::App(a)) } else { Err(-5) };
        }
        self.ipcps.iter().position(|p| p.name == *dst_app).map(Owner::Upper).ok_or(-4)
    }

    /// The flow bound to `port` is gone — it failed (`failed` says why)
    /// or the peer closed it: forget the port and tell its owner. An
    /// application gets the matching callback; a higher IPC process loses
    /// the (N-1) port bound to it either way.
    fn flow_gone(&mut self, port: u64, failed: Option<&'static str>, ctx: &mut Ctx<'_>) {
        let Some(st) = self.ports.remove(&port) else { return };
        match (st.owner, failed) {
            (Owner::App(a), Some(reason)) => {
                let origin = st.origin(port);
                self.call_app(a, ctx, |app, api| {
                    app.on_flow_failed(origin, reason, api);
                });
            }
            (Owner::App(a), None) => {
                self.call_app(a, ctx, |app, api| {
                    app.on_flow_closed(FlowH(port), api);
                });
            }
            (Owner::Upper(u), _) => {
                self.ipcps[u].lower_flow_gone(port, ctx.now());
                self.flush_ipcp(u, ctx);
            }
        }
    }

    /// Forget `port` and release the flow behind it at its provider (the
    /// local end only; the provider tells the peer of an active flow).
    fn release_port(&mut self, port: u64, ctx: &mut Ctx<'_>) {
        if let Some(st) = self.ports.remove(&port) {
            if st.provider != usize::MAX {
                self.ipcps[st.provider].dealloc_port(port);
                self.flush_ipcp(st.provider, ctx);
            }
        }
    }

    fn call_app(
        &mut self,
        a: usize,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn AppProcess, &mut IpcApi<'_, '_, '_>),
    ) {
        let mut b = self.apps[a].behavior.take().expect("app re-entered");
        {
            let mut api = IpcApi { node: self, ctx, app: a };
            f(b.as_mut(), &mut api);
        }
        self.apps[a].behavior = Some(b);
    }

    /// Graceful departure ([`leave_key`]): the process tombstones every
    /// RIB object it owns and the deletion floods leave through its
    /// still-up adjacencies. The caller keeps the process (and its links)
    /// alive for at least one hello period so neighbors drain the floods.
    fn leave_ipcp(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        self.ipcps[i].announce_leave(ctx.now());
        self.flush_ipcp(i, ctx);
    }

    /// Crash-restart ([`respawn_key`]): replace IPC process `i` with a
    /// fresh, unenrolled instance of the same configuration and name that
    /// keeps its application registrations and its planned adjacencies
    /// ([`Ipcp::respawned`]). Nothing is announced — neighbors must detect
    /// the silence (hello expiry withdraws the adjacency; the sponsor's
    /// failure GC reclaims the RIB objects). The fresh process starts its
    /// adjacencies, so it re-allocates its (N-1) flows and re-enrolls.
    fn respawn_ipcp(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        // The dead process's (N-1) ports: release the lower flows (the
        // local provider end only — a crash tells the remote end nothing).
        // Port-id order, not hash order: dealloc emits events whose order
        // must be identical across runs.
        for port in self.ports_where(|s| s.owner == Owner::Upper(i)) {
            self.release_port(port, ctx);
        }
        // Flows the dead process provided die with it.
        for port in self.ports_where(|s| s.provider == i) {
            self.workq.push_back((i, IpcpOut::FlowGone { port, failed: None }));
        }
        // Scrub the timers bound to the dead process's state (EFCP
        // deadlines, enrollment and adjacency retries, deferred jobs); the
        // fresh process has none armed. The hello timer survives: it
        // indexes the slot, not the state, and serves the fresh process.
        self.timers.retain(|_, k| {
            !matches!(k, TimerKind::Ipcp { ipcp, timer } if *ipcp == i && *timer != IpcpTimer::Hello)
        });
        self.ipcps[i] = self.ipcps[i].respawned();
        self.ipcps[i].start_adjacencies(ctx.now());
        self.flush_ipcp(i, ctx);
    }

    /// Hand `timer` back to IPC process `i`, and execute what it asks for.
    fn ipcp_timer(&mut self, i: usize, timer: IpcpTimer, ctx: &mut Ctx<'_>) {
        self.ipcps[i].on_timer(timer, ctx.now());
        self.flush_ipcp(i, ctx);
    }

    fn on_timer_kind(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let Some(kind) = self.timers.remove(&token) else {
            return;
        };
        match kind {
            TimerKind::Ipcp { ipcp, timer } => self.ipcp_timer(ipcp, timer, ctx),
            TimerKind::Pace { iface } => {
                if let Some(f) = self.ifaces.get_mut(iface) {
                    f.pace.timer_armed = false;
                }
                self.pace_kick(iface, ctx);
            }
            TimerKind::App { app, key } => {
                self.call_app(app, ctx, |a, api| a.on_timer(key, api));
            }
        }
    }
}

impl Agent for Node {
    fn handle(&mut self, now: Time, ev: Event, ctx: &mut Ctx<'_>) {
        let _ = now;
        match ev {
            Event::Start => {
                // Start every hello cadence a process runs.
                for i in 0..self.ipcps.len() {
                    self.ipcps[i].start_hello(ctx.now());
                    self.flush_ipcp(i, ctx);
                }
                // Start the planned adjacencies — at once, or at their wave
                // time when the enrollment planner staggered them.
                for i in 0..self.ipcps.len() {
                    self.ipcps[i].start_adjacencies(ctx.now());
                    self.flush_ipcp(i, ctx);
                }
                // Start applications.
                for a in 0..self.apps.len() {
                    self.call_app(a, ctx, |app, api| app.on_start(api));
                }
            }
            Event::Frame { iface, data } => {
                if let Some(&Iface { ipcp, n1, .. }) = self.ifaces.get(iface.0 as usize) {
                    self.ipcps[ipcp].on_frame(n1, data, ctx.now());
                    self.flush_ipcp(ipcp, ctx);
                }
            }
            Event::Timer { key } if key & CMD_BIT != 0 => {
                let i = (key & 0xFFFF_FFFF) as usize;
                if i < self.ipcps.len() {
                    match (key >> 32) & 0x3FFF_FFFF {
                        1 => self.leave_ipcp(i, ctx),
                        2 => self.respawn_ipcp(i, ctx),
                        _ => {}
                    }
                }
            }
            Event::Timer { key } => self.on_timer_kind(key, ctx),
        }
        self.drain(ctx);
    }

    /// The medium behind `iface` went down or came back: the shim bound
    /// to it is told through its port, as a failed send or a lower flow's
    /// loss would tell it.
    fn medium(&mut self, now: Time, iface: IfaceId, up: bool, ctx: &mut Ctx<'_>) {
        if let Some(&Iface { ipcp, n1, .. }) = self.ifaces.get(iface.0 as usize) {
            if up {
                self.ipcps[ipcp].medium_up(n1, now);
            } else {
                self.ipcps[ipcp].n1_down(n1, now);
            }
            self.flush_ipcp(ipcp, ctx);
        }
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipcp::Deferred;
    use crate::msg::MgmtBody;
    use crate::routing::{Lsa, LSA_CLASS};
    use rina_rib::{DigestTable, EncodedObject, RibObject};
    use rina_sim::{LinkCfg, NodeId, Sim};
    use rina_wire::{MgmtPdu, Pdu};

    /// A link-local management frame from the member at `src`.
    fn mgmt_frame(src: Addr, body: MgmtBody) -> Bytes {
        Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: src, ttl: 1, payload: body.encode(0, 0) })
            .encode()
    }

    /// A node hosting one bootstrapped member (address 1) whose two ports
    /// are wired straight to interfaces 0 and 1 — no shim, and no link
    /// behind them, so what it transmits dies as `NoSuchIface` — run
    /// through `Event::Start`, and then left, unflushed, wanting all
    /// three deferred jobs from 400 ms.
    fn member_wanting_all_three() -> (Sim, NodeId) {
        let mut node = Node::new("n");
        let i = node.add_ipcp(DifConfig::new("net"), AppName::new("net.a"));
        node.ipcps[i].bootstrap(1);
        for iface in 0..2 {
            let n1 = node.ipcps[i].add_n1(N1Kind::Phys { iface });
            let pace = Pace::new(&node.ipcps[i].cfg);
            node.ifaces.push(Iface { ipcp: i, n1, pace });
        }
        let mut sim = Sim::new(7);
        let id = sim.add_node(node);
        assert!(sim.step(), "Event::Start");
        want_all_three(sim.agent_mut::<Node>(id).ipcp_mut(0), 400);
        (sim, id)
    }

    /// Make `member` — address 1, ports 0 and 1 attached — want all three
    /// deferred jobs, from `ms` on: a first neighbor appears, naming the
    /// member as its up peer (its LSA version is written at once and
    /// queued for flooding out that child's tree port), a second inside the LSA
    /// debounce window (dirty), and a remote LSA arrives (a
    /// delta-classified route repair).
    fn want_all_three(member: &mut Ipcp, ms: u64) {
        let hello = |name: &str, addr, up| {
            let (name, digests) = (AppName::new(name), DigestTable::default());
            mgmt_frame(addr, MgmtBody::Hello { name, addr, up, digests })
        };
        let lsa = RibObject {
            name: Lsa::object_name(2),
            class: LSA_CLASS.into(),
            value: Lsa { neighbors: vec![(1, 1), (9, 1)] }.encode(),
            version: 1,
            origin: 2,
            deleted: false,
        };
        let batch = MgmtBody::RibDeltaResponse {
            subtree: String::new(),
            objects: vec![EncodedObject::of(&lsa)],
        };
        member.on_frame(0, hello("net.b", 2, 1), Time::from_millis(ms));
        member.on_frame(1, hello("net.c", 3, 0), Time::from_millis(ms + 10));
        member.on_frame(0, mgmt_frame(2, batch), Time::from_millis(ms + 20));
    }

    /// The timers in flight for IPC process 0, by token.
    fn ipcp_timers(sim: &Sim, id: NodeId) -> Vec<(u64, IpcpTimer)> {
        let mut found: Vec<(u64, IpcpTimer)> = sim
            .agent::<Node>(id)
            .timers
            .iter()
            .filter_map(|(&token, k)| match k {
                TimerKind::Ipcp { ipcp: 0, timer } => Some((token, *timer)),
                _ => None,
            })
            .collect();
        found.sort_unstable_by_key(|&(token, _)| token);
        found
    }

    /// The deferred-job timers in flight for IPC process 0, by token.
    fn deferred_timers(sim: &Sim, id: NodeId) -> Vec<(u64, Deferred)> {
        let deferred = |(token, timer)| match timer {
            IpcpTimer::Deferred(job) => Some((token, job)),
            _ => None,
        };
        ipcp_timers(sim, id).into_iter().filter_map(deferred).collect()
    }

    /// One event that finds all three deferred jobs wanted (here the hello
    /// timer at 500 ms, the first to flush the member) arms exactly three
    /// timers, in Routes → Lsa → Flood order on consecutive tokens, with
    /// the delays the jobs ask for: 20 ms for a delta-classified route
    /// repair, the 100 ms LSA debounce, the 5 ms flood batch window.
    #[test]
    fn one_event_arms_the_three_deferred_jobs_in_order() {
        let (mut sim, id) = member_wanting_all_three();
        assert!(deferred_timers(&sim, id).is_empty(), "nothing flushed the member yet");
        assert!(sim.step(), "the hello timer");
        assert_eq!(sim.now(), Time::from_millis(500));
        let armed = deferred_timers(&sim, id);
        let jobs: Vec<Deferred> = armed.iter().map(|&(_, job)| job).collect();
        assert_eq!(jobs, [Deferred::Routes, Deferred::Lsa, Deferred::Flood]);
        assert!(armed.windows(2).all(|w| w[1].0 == w[0].0 + 1), "consecutive tokens: {armed:?}");
        // Each fires after its own delay and disarms itself.
        for (at_ms, fired) in
            [(505, Deferred::Flood), (520, Deferred::Routes), (600, Deferred::Lsa)]
        {
            let (token, _) = *armed.iter().find(|&&(_, job)| job == fired).unwrap();
            assert!(sim.step());
            assert_eq!(sim.now(), Time::from_millis(at_ms), "{fired:?}");
            assert!(deferred_timers(&sim, id).iter().all(|&(t, _)| t != token), "{fired:?} fired");
        }
    }

    /// A process asks for every timer with an [`IpcpOut::Arm`]: after one
    /// event that leaves all three deferred jobs and an EFCP deadline
    /// wanted, the effects a flush drains carry the four, the deadline as
    /// the connection was pumped and then the jobs, asked once the rest
    /// is drained.
    #[test]
    fn a_process_asks_for_every_timer_with_an_arm_effect() {
        let ms = Time::from_millis;
        let mut member = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.a"));
        member.bootstrap(1);
        for iface in 0..2 {
            member.add_n1(N1Kind::Phys { iface });
        }
        want_all_three(&mut member, 400);
        member.flow_accept(7, AppName::new("peer"), QosSpec::reliable(), 2, 1, 1);
        member.take_out();
        // The event: an SDU written to the flow at 430 ms, then the drain.
        member.write_port(7, Bytes::from_static(b"sdu"), ms(430), None).unwrap();
        let mut drained = member.take_out();
        member.arm_deferred(ms(430));
        drained.extend(member.take_out());
        let arms: Vec<(Time, IpcpTimer)> = drained
            .iter()
            .filter_map(|o| match *o {
                IpcpOut::Arm { at, timer } => Some((at, timer)),
                _ => None,
            })
            .collect();
        let job = IpcpTimer::Deferred;
        assert_eq!(
            arms,
            [
                (ms(630), IpcpTimer::Conn { cep: 1 }),
                (ms(450), job(Deferred::Routes)),
                (ms(530), job(Deferred::Lsa)),
                (ms(435), job(Deferred::Flood)),
            ]
        );
    }

    /// A crash-restart scrubs every timer bound to the dead process's
    /// state — the three deferred jobs, a pending enrollment retry, an
    /// EFCP deadline — and keeps the hello, which drives the fresh
    /// process; the fresh one starts with nothing marked armed.
    #[test]
    fn respawn_scrubs_every_deferred_timer() {
        let (mut sim, id) = member_wanting_all_three();
        // An active EFCP flow with an SDU in flight wants its deadline.
        let member = sim.agent_mut::<Node>(id).ipcp_mut(0);
        member.flow_accept(7, AppName::new("peer"), QosSpec::reliable(), 2, 1, 1);
        member.write_port(7, Bytes::from_static(b"sdu"), Time::from_millis(430), None).unwrap();
        assert!(sim.step(), "the hello timer");
        // A bootstrapped member never enrolls: arm a retry as the flush
        // of `start_enroll`'s effects would.
        let node = sim.agent_mut::<Node>(id);
        let token = node.next_token;
        node.next_token += 1;
        node.timers.insert(token, TimerKind::Ipcp { ipcp: 0, timer: IpcpTimer::EnrollRetry });
        sim.call(id, token, Dur::from_millis(300));
        let armed: Vec<IpcpTimer> = ipcp_timers(&sim, id).into_iter().map(|(_, t)| t).collect();
        assert_eq!(armed.len(), 6, "hello, three deferred jobs, EFCP, enrollment: {armed:?}");
        assert!(armed.contains(&IpcpTimer::Hello) && armed.contains(&IpcpTimer::EnrollRetry));
        assert!(armed.iter().any(|t| matches!(t, IpcpTimer::Conn { cep: 1, .. })), "{armed:?}");
        sim.call(id, respawn_key(0), Dur::ZERO);
        assert!(sim.step(), "the respawn command");
        let left: Vec<IpcpTimer> = ipcp_timers(&sim, id).into_iter().map(|(_, t)| t).collect();
        assert_eq!(left, [IpcpTimer::Hello]);
        // Given ports and the same news, the fresh process is armed anew
        // by the first event to flush it — the surviving hello, at 1 s;
        // the scrubbed timers fire before it and do nothing.
        let member = sim.agent_mut::<Node>(id).ipcp_mut(0);
        member.bootstrap(1);
        for iface in 0..2 {
            member.add_n1(N1Kind::Phys { iface });
        }
        want_all_three(member, 700);
        sim.run_until(Time::from_millis(1000));
        assert_eq!(deferred_timers(&sim, id).len(), 3, "armed marks survived");
        // One tick on both ports, and the answer to the neighbor that
        // adopted the member as its up peer.
        assert_eq!(sim.agent::<Node>(id).ipcp(0).stats.hello_tx, 3);
    }

    /// A frame the link refuses as too big dies at the node, counted.
    #[test]
    fn a_frame_the_link_refuses_is_counted() {
        let mut sim = Sim::new(7);
        let (a, b) = (sim.add_node(Node::new("a")), sim.add_node(Node::new("b")));
        // No management frame fits 16 bytes.
        let (_, ia, ib) = sim.connect(a, b, LinkCfg::wired().with_mtu(16));
        for (id, iface, side, peer) in [(a, ia, 0, "upper.b"), (b, ib, 1, "upper.a")] {
            let node = sim.agent_mut::<Node>(id);
            let shim = node.add_shim(DifConfig::new("shim0"), AppName::new("shim0"), iface, side);
            let upper = node.add_ipcp(DifConfig::new("upper"), AppName::new("upper"));
            let peer = AppName::new(peer);
            node.ipcps[upper].plan_adjacency(peer, QosSpec::datagram(), shim, Dur::ZERO, None);
        }
        assert!(sim.step() && sim.step(), "both nodes start");
        for id in [a, b] {
            // The upper member's first frame over the shim: its flow request.
            assert_eq!(sim.agent::<Node>(id).tx_refused, 1);
        }
        assert_eq!(sim.link_stats(rina_sim::LinkId(0)).drops_overflow, 0, "not the link's drop");
    }

    /// A planned adjacency whose first flow request is lost asks again
    /// 250 ms after asking: the shim's allocator ends the request at its
    /// 50 ms deadline, and the plan waits its 200 ms retry.
    #[test]
    fn a_planned_adjacency_whose_request_is_lost_asks_again_at_250_ms() {
        let mut sim = Sim::new(7);
        let (a, b) = (sim.add_node(Node::new("a")), sim.add_node(Node::new("b")));
        let (link, ia, ib) = sim.connect(a, b, LinkCfg::wired());
        for (id, iface, side) in [(a, ia, 0), (b, ib, 1)] {
            let node = sim.agent_mut::<Node>(id);
            let shim = node.add_shim(DifConfig::new("shim0"), AppName::new("shim0"), iface, side);
            let name = format!("upper.{}", node.name);
            let upper = node.add_ipcp(DifConfig::new("upper"), AppName::new(&name));
            if id == a {
                let peer = AppName::new("upper.b");
                node.ipcps[upper].plan_adjacency(peer, QosSpec::datagram(), shim, Dur::ZERO, None);
            }
        }
        assert!(sim.step() && sim.step(), "both nodes start; a's request is on the wire");
        // The medium drops what it carries, then comes back at once.
        sim.set_link_up(link, false);
        sim.run_until(Time::from_millis(5));
        sim.set_link_up(link, true);
        let asked = |sim: &Sim| sim.agent::<Node>(b).ipcp(0).stats.flow_reqs_in;
        sim.run_until(Time::from_millis(250));
        assert_eq!(asked(&sim), 0, "the lost request is not repeated before 250 ms");
        assert!(!sim.agent::<Node>(a).ipcp(1).is_assembled());
        // Asked at 250 ms, arriving one link delay (and a transmit) later.
        sim.run_until(Time::from_millis(252));
        assert_eq!(asked(&sim), 1);
        sim.run_until(Time::from_millis(300));
        let ports = &sim.agent::<Node>(a).ports;
        assert!(ports.values().any(|p| p.owner == Owner::Upper(1) && p.active), "it holds");
    }

    /// A PDU of a higher IPC process bound to a lower flow the node does
    /// not hold dies at the node, counted.
    #[test]
    fn an_sdu_for_a_flow_the_node_does_not_hold_is_counted() {
        let mut node = Node::new("n");
        let upper = node.add_ipcp(DifConfig::new("upper"), AppName::new("upper.a"));
        node.ipcps[upper].bootstrap(1);
        node.ipcps[upper].add_n1(N1Kind::Lower { port: 99 });
        let mut sim = Sim::new(7);
        let id = sim.add_node(node);
        assert!(sim.step(), "Event::Start: the upper process says hello down flow 99");
        assert_eq!(sim.agent::<Node>(id).ipcp(upper).stats.hello_tx, 1);
        assert_eq!(sim.agent::<Node>(id).tx_refused, 1);
    }

    /// A PDU of a higher IPC process that its lower flow refuses (here:
    /// the flow was never allocated at the provider) dies at the node,
    /// counted.
    #[test]
    fn an_sdu_the_lower_flow_refuses_is_counted() {
        let mut node = Node::new("n");
        let lower = node.add_ipcp(DifConfig::new("lower"), AppName::new("lower.a"));
        node.ipcps[lower].bootstrap(1);
        let upper = node.add_ipcp(DifConfig::new("upper"), AppName::new("upper.a"));
        node.ipcps[upper].bootstrap(1);
        let port = node.new_port(Owner::Upper(upper), lower, false);
        node.ipcps[upper].add_n1(N1Kind::Lower { port });
        let mut sim = Sim::new(7);
        let id = sim.add_node(node);
        assert!(sim.step(), "Event::Start: the upper process says hello down the dead flow");
        assert_eq!(sim.agent::<Node>(id).tx_refused, 1);
    }
}
