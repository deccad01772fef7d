//! A baseline-Internet machine: IP-like forwarding, TCP/UDP-like
//! transport, and the Mobile-IP home/foreign-agent mechanics.
//!
//! Architectural properties deliberately reproduced from the current
//! Internet (they are the experimental baseline):
//!
//! * Addresses name interfaces. A connection is bound to the interface
//!   address it was opened with and cannot survive losing it (§6.3).
//! * Servers listen on well-known ports; any reachable address can probe
//!   them (§6.1 — the attack surface experiment).
//! * Transport and routing are separate: TCP only learns about path
//!   failure through its own retransmission timers.
//! * Mobility needs the special-cased Mobile-IP machinery: home agents,
//!   foreign agents, tunnels, and triangle routing (§6.4).

use crate::addr::{Cidr, IpAddr};
use crate::app::{InetApi, InetApp, SockId};
use crate::pkt::{Packet, Payload, Port, SegKind, Segment};
use crate::tcp::TcpConn;
use bytes::Bytes;
use rina_sim::{Agent, Ctx, Dur, Event, IfaceId, Time};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Well-known port of the Mobile-IP registration protocol.
pub const MIP_PORT: Port = 434;

/// Per-interface configuration.
#[derive(Clone, Debug)]
pub struct IfaceCfg {
    /// This interface's address.
    pub ip: IpAddr,
    /// The subnet the interface sits on.
    pub subnet: Cidr,
}

/// One routing-table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Destination block.
    pub dest: Cidr,
    /// Outgoing interface (point-to-point links: sending reaches the peer).
    pub iface: usize,
    /// Preference among equal prefixes (lower wins) — backup routes have
    /// higher values.
    pub pref: u8,
}

/// Node-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct InetStats {
    /// Packets forwarded (router role).
    pub forwarded: u64,
    /// Packets dropped with no usable route.
    pub no_route: u64,
    /// Packets dropped on TTL expiry.
    pub ttl_drops: u64,
    /// RSTs sent in reply to probes of closed ports.
    pub rsts_sent: u64,
    /// SYNs accepted on listening ports.
    pub syns_accepted: u64,
    /// Mobile-IP packets tunneled (home-agent role).
    pub tunneled: u64,
    /// Undecodable frames.
    pub decode_errors: u64,
}

struct SockEntry {
    conn: TcpConn,
    app: usize,
    established_notified: bool,
    armed: Option<(u64, u64)>,
}

struct AppEntry {
    behavior: Option<Box<dyn InetApp>>,
}

enum TimerKind {
    Conn { sock: u64 },
    App { app: usize, key: u64 },
    MipProbe,
}

/// Deferred application callback (queued so that an app calling back into
/// the node can never re-enter itself).
enum AppEvent {
    Connected(u64, (IpAddr, Port)),
    Data(u64, Bytes),
    Failed(u64),
    Closed(u64),
    Dgram { from: (IpAddr, Port), to_port: Port, data: Bytes },
}

/// Mobile-node configuration for Mobile-IP.
#[derive(Clone, Debug)]
pub struct MobileCfg {
    /// The mobile's permanent home address (all its ifaces carry it).
    pub home_addr: IpAddr,
    /// The home agent's address.
    pub home_agent: IpAddr,
    /// Per-interface foreign-agent address (None = home link).
    pub fa_of_iface: Vec<Option<IpAddr>>,
}

/// A baseline-Internet machine.
pub struct InetNode {
    /// Machine name.
    pub name: String,
    /// Whether this node forwards packets not addressed to it.
    pub is_router: bool,
    ifaces: Vec<IfaceCfg>,
    routes: Vec<Route>,
    apps: Vec<AppEntry>,
    listeners: BTreeMap<Port, usize>,
    dgram_binds: BTreeMap<Port, usize>,
    socks: BTreeMap<u64, SockEntry>,
    conn_index: BTreeMap<(IpAddr, Port, IpAddr, Port), u64>,
    next_sock: u64,
    next_eph: Port,
    timers: BTreeMap<u64, TimerKind>,
    next_token: u64,
    /// TCP base retransmission timeout (ns), applied to new connections.
    pub rtx_timeout_ns: u64,
    // Mobile-IP roles.
    home_agent_for: BTreeMap<IpAddr, Option<IpAddr>>,
    foreign_attached: BTreeMap<IpAddr, usize>,
    mobile: Option<MobileCfg>,
    /// Interface the mobile most recently registered through.
    mip_active_iface: Option<usize>,
    /// Counters.
    pub stats: InetStats,
    app_events: VecDeque<(usize, AppEvent)>,
}

impl InetNode {
    /// A machine with no interfaces yet.
    pub fn new(name: &str, is_router: bool) -> Self {
        InetNode {
            name: name.to_string(),
            is_router,
            ifaces: Vec::new(),
            routes: Vec::new(),
            apps: Vec::new(),
            listeners: BTreeMap::new(),
            dgram_binds: BTreeMap::new(),
            socks: BTreeMap::new(),
            conn_index: BTreeMap::new(),
            next_sock: 1,
            next_eph: 49152,
            timers: BTreeMap::new(),
            next_token: 1,
            rtx_timeout_ns: 50_000_000,
            home_agent_for: BTreeMap::new(),
            foreign_attached: BTreeMap::new(),
            mobile: None,
            mip_active_iface: None,
            stats: InetStats::default(),
            app_events: VecDeque::new(),
        }
    }

    /// Configure the next interface (call in link-attachment order).
    pub fn add_iface(&mut self, ip: IpAddr, subnet: Cidr) -> usize {
        self.ifaces.push(IfaceCfg { ip, subnet });
        // Directly connected subnet route.
        self.routes.push(Route { dest: subnet, iface: self.ifaces.len() - 1, pref: 0 });
        self.ifaces.len() - 1
    }

    /// Add a routing-table entry.
    pub fn add_route(&mut self, dest: Cidr, iface: usize, pref: u8) {
        self.routes.push(Route { dest, iface, pref });
    }

    /// Host an application.
    pub fn add_app(&mut self, behavior: impl InetApp) -> usize {
        self.apps.push(AppEntry { behavior: Some(Box::new(behavior)) });
        self.apps.len() - 1
    }

    /// Become home agent for `mobile_home` (router role).
    pub fn set_home_agent_for(&mut self, mobile_home: IpAddr) {
        self.home_agent_for.insert(mobile_home, None);
    }

    /// Configure this node as a Mobile-IP mobile node.
    pub fn set_mobile(&mut self, cfg: MobileCfg) {
        self.mobile = Some(cfg);
    }

    /// Address of interface 0.
    pub fn primary_addr(&self) -> IpAddr {
        self.ifaces.first().map(|i| i.ip).unwrap_or(IpAddr::UNSPECIFIED)
    }

    /// Downcast an application.
    pub fn app<T: InetApp>(&self, idx: usize) -> &T {
        let app: &dyn Any = self.apps[idx].behavior.as_deref().expect("app mid-callback");
        app.downcast_ref().expect("app type mismatch")
    }

    /// Mutable downcast of an application (tests/benches).
    pub fn app_mut<T: InetApp>(&mut self, idx: usize) -> &mut T {
        let app: &mut dyn Any = self.apps[idx].behavior.as_deref_mut().expect("app mid-callback");
        app.downcast_mut().expect("app type mismatch")
    }

    /// Current care-of address registered for `mobile` (home-agent role).
    pub fn care_of(&self, mobile: IpAddr) -> Option<IpAddr> {
        self.home_agent_for.get(&mobile).copied().flatten()
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Longest-prefix, liveness-aware route lookup.
    fn route_iface(&self, dst: IpAddr, ctx: &Ctx<'_>) -> Option<usize> {
        self.routes
            .iter()
            .filter(|r| r.dest.contains(dst))
            .filter(|r| ctx.iface_up(IfaceId(r.iface as u32)))
            .max_by_key(|r| (r.dest.prefix, std::cmp::Reverse(r.pref)))
            .map(|r| r.iface)
    }

    fn send_pkt(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        // Mobile-IP home-agent intercept.
        if let Some(&Some(care_of)) = self.home_agent_for.get(&pkt.dst) {
            if self.ifaces.iter().all(|i| i.ip != care_of) {
                self.stats.tunneled += 1;
                let outer = Packet {
                    src: self.primary_addr(),
                    dst: care_of,
                    ttl: crate::pkt::DEFAULT_TTL,
                    payload: Payload::Encap(Box::new(pkt)),
                };
                return self.send_pkt_raw(outer, ctx);
            }
        }
        self.send_pkt_raw(pkt, ctx);
    }

    fn send_pkt_raw(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        // Foreign-agent direct delivery to an attached mobile.
        if let Some(&iface) = self.foreign_attached.get(&pkt.dst) {
            if ctx.iface_up(IfaceId(iface as u32)) {
                let _ = ctx.send(IfaceId(iface as u32), pkt.encode());
                return;
            }
        }
        let Some(iface) = self.route_iface(pkt.dst, ctx) else {
            self.stats.no_route += 1;
            return;
        };
        let _ = ctx.send(IfaceId(iface as u32), pkt.encode());
    }

    fn is_local(&self, dst: IpAddr) -> bool {
        self.ifaces.iter().any(|i| i.ip == dst)
            || self.mobile.as_ref().map(|m| m.home_addr == dst).unwrap_or(false)
    }

    fn on_packet(&mut self, mut pkt: Packet, ctx: &mut Ctx<'_>) {
        // Home-agent intercept also applies to transit packets.
        if let Some(&Some(_)) = self.home_agent_for.get(&pkt.dst) {
            self.send_pkt(pkt, ctx);
            return;
        }
        if self.is_local(pkt.dst) || self.foreign_attached.contains_key(&pkt.dst) {
            self.deliver(pkt, ctx);
            return;
        }
        if !self.is_router {
            return;
        }
        if pkt.ttl == 0 {
            self.stats.ttl_drops += 1;
            return;
        }
        pkt.ttl -= 1;
        self.stats.forwarded += 1;
        self.send_pkt(pkt, ctx);
    }

    fn deliver(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        // Foreign-agent delivery of a mobile's packet.
        if self.foreign_attached.contains_key(&pkt.dst) && !self.is_local(pkt.dst) {
            self.send_pkt_raw(pkt, ctx);
            return;
        }
        match pkt.payload.clone() {
            Payload::Encap(inner) => {
                // Tunnel endpoint: decapsulate and continue with the inner.
                self.on_packet(*inner, ctx);
            }
            Payload::Seg(seg) => self.on_segment(pkt.src, pkt.dst, seg, ctx),
            Payload::Dgram(d) => {
                if d.dst_port == MIP_PORT {
                    self.on_mip(pkt.src, Bytes::from(d.payload.to_vec()), ctx);
                    return;
                }
                if let Some(&app) = self.dgram_binds.get(&d.dst_port) {
                    self.app_events.push_back((
                        app,
                        AppEvent::Dgram {
                            from: (pkt.src, d.src_port),
                            to_port: d.dst_port,
                            data: d.payload,
                        },
                    ));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Transport demux
    // ------------------------------------------------------------------

    fn on_segment(&mut self, src: IpAddr, dst: IpAddr, seg: Segment, ctx: &mut Ctx<'_>) {
        let key = (dst, seg.dst_port, src, seg.src_port);
        if let Some(&sock) = self.conn_index.get(&key) {
            let now = ctx.now().nanos();
            if let Some(e) = self.socks.get_mut(&sock) {
                e.conn.on_segment(&seg, now);
            }
            self.pump_sock(sock, ctx);
            return;
        }
        if seg.kind == SegKind::Syn {
            if let Some(&app) = self.listeners.get(&seg.dst_port) {
                self.stats.syns_accepted += 1;
                let sock = self.next_sock;
                self.next_sock += 1;
                let conn = TcpConn::accept(
                    (dst, seg.dst_port),
                    (src, seg.src_port),
                    ctx.now().nanos(),
                    self.rtx_timeout_ns,
                );
                self.socks.insert(
                    sock,
                    SockEntry { conn, app, established_notified: false, armed: None },
                );
                self.conn_index.insert(key, sock);
                self.pump_sock(sock, ctx);
                return;
            }
            // Closed port: refuse loudly. (This reply is itself the
            // information leak the security experiment measures.)
            self.stats.rsts_sent += 1;
            let rst = Packet {
                src: dst,
                dst: src,
                ttl: crate::pkt::DEFAULT_TTL,
                payload: Payload::Seg(Segment {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    kind: SegKind::Rst,
                    seq: 0,
                    ack: 0,
                    payload: Bytes::new(),
                }),
            };
            self.send_pkt(rst, ctx);
        }
    }

    fn pump_sock(&mut self, sock: u64, ctx: &mut Ctx<'_>) {
        let Some(e) = self.socks.get_mut(&sock) else { return };
        let mut pkts = Vec::new();
        while let Some(p) = e.conn.poll_transmit() {
            pkts.push(p);
        }
        let mut sdus = Vec::new();
        while let Some(s) = e.conn.poll_deliver() {
            sdus.push(s);
        }
        let newly_established = e.conn.is_established() && !e.established_notified;
        if newly_established {
            e.established_notified = true;
        }
        let failed = e.conn.is_failed();
        let closed = e.conn.state() == crate::tcp::TcpState::Closed;
        let app = e.app;
        let peer = e.conn.remote;
        for p in pkts {
            self.send_pkt(p, ctx);
        }
        let _ = ctx;
        if newly_established {
            self.app_events.push_back((app, AppEvent::Connected(sock, peer)));
        }
        for s in sdus {
            self.app_events.push_back((app, AppEvent::Data(sock, s)));
        }
        if failed {
            self.drop_sock(sock);
            self.app_events.push_back((app, AppEvent::Failed(sock)));
            return;
        }
        if closed && self.socks.get(&sock).map(|e| e.conn.is_idle()).unwrap_or(false) {
            self.drop_sock(sock);
            self.app_events.push_back((app, AppEvent::Closed(sock)));
            return;
        }
        self.sync_sock_timer(sock, ctx);
    }

    fn drop_sock(&mut self, sock: u64) {
        if let Some(e) = self.socks.remove(&sock) {
            let k = (e.conn.local.0, e.conn.local.1, e.conn.remote.0, e.conn.remote.1);
            self.conn_index.remove(&k);
        }
    }

    fn sync_sock_timer(&mut self, sock: u64, ctx: &mut Ctx<'_>) {
        let Some(e) = self.socks.get_mut(&sock) else { return };
        let Some(want) = e.conn.poll_timeout() else { return };
        let need = match e.armed {
            Some((_, deadline)) => want < deadline,
            None => true,
        };
        if need {
            let token = self.next_token;
            self.next_token += 1;
            self.timers.insert(token, TimerKind::Conn { sock });
            e.armed = Some((token, want));
            ctx.timer_at(Time(want), token);
        }
    }

    // ------------------------------------------------------------------
    // Mobile-IP registration
    // ------------------------------------------------------------------

    /// Registration message: `[home_addr u32][care_of u32]`.
    fn on_mip(&mut self, _from: IpAddr, payload: Bytes, ctx: &mut Ctx<'_>) {
        if payload.len() < 9 {
            return;
        }
        let home = IpAddr(u32::from_be_bytes(payload[0..4].try_into().expect("len")));
        let care_of = IpAddr(u32::from_be_bytes(payload[4..8].try_into().expect("len")));
        let at_fa = payload[8] == 1;
        if at_fa {
            // We are the foreign agent: record attachment iface, then relay
            // the registration to the home agent.
            if let Some(m) = self.foreign_iface_for(home, ctx) {
                self.foreign_attached.insert(home, m);
            }
            let mut relay = payload.to_vec();
            relay[8] = 0;
            // The HA address rides in bytes 9..13.
            if payload.len() >= 13 {
                let ha = IpAddr(u32::from_be_bytes(payload[9..13].try_into().expect("len")));
                let pkt =
                    Packet::dgram(self.primary_addr(), ha, MIP_PORT, MIP_PORT, Bytes::from(relay));
                self.send_pkt(pkt, ctx);
            }
        } else {
            // We are the home agent: bind home → care-of.
            if let Some(e) = self.home_agent_for.get_mut(&home) {
                *e = if care_of == IpAddr::UNSPECIFIED { None } else { Some(care_of) };
            }
        }
    }

    fn foreign_iface_for(&self, _home: IpAddr, ctx: &Ctx<'_>) -> Option<usize> {
        // The mobile attaches on whichever of our access interfaces is up
        // and has no subnet peer configured — by convention the last one
        // that is up. Simplification: pick the highest-index up iface.
        (0..self.ifaces.len()).rev().find(|&i| ctx.iface_up(IfaceId(i as u32)))
    }

    /// Mobile side: (re)register through the current interface. Fires on a
    /// periodic probe timer.
    fn mip_probe(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.mobile.clone() else { return };
        // Attached iface = lowest up iface with an FA configured.
        let attached = (0..self.ifaces.len()).find(|&i| {
            ctx.iface_up(IfaceId(i as u32)) && m.fa_of_iface.get(i).copied().flatten().is_some()
        });
        if attached == self.mip_active_iface {
            return;
        }
        self.mip_active_iface = attached;
        if let Some(i) = attached {
            let fa = m.fa_of_iface[i].expect("checked");
            let mut payload = Vec::with_capacity(13);
            payload.extend_from_slice(&m.home_addr.0.to_be_bytes());
            payload.extend_from_slice(&fa.0.to_be_bytes());
            payload.push(1);
            payload.extend_from_slice(&m.home_agent.0.to_be_bytes());
            let pkt = Packet::dgram(m.home_addr, fa, MIP_PORT, MIP_PORT, Bytes::from(payload));
            let _ = ctx.send(IfaceId(i as u32), pkt.encode());
        }
    }

    // ------------------------------------------------------------------
    // App API backing
    // ------------------------------------------------------------------

    pub(crate) fn api_connect(
        &mut self,
        app: usize,
        dst: IpAddr,
        port: Port,
        ctx: &mut Ctx<'_>,
    ) -> Option<SockId> {
        let iface = self.route_iface(dst, ctx)?;
        // THE BINDING: local address is this interface's address, forever.
        let local_ip = self.mobile.as_ref().map(|m| m.home_addr).unwrap_or(self.ifaces[iface].ip);
        let local_port = self.next_eph;
        self.next_eph = self.next_eph.wrapping_add(1).max(49152);
        let sock = self.next_sock;
        self.next_sock += 1;
        let conn = TcpConn::connect(
            (local_ip, local_port),
            (dst, port),
            ctx.now().nanos(),
            self.rtx_timeout_ns,
        );
        self.conn_index.insert((local_ip, local_port, dst, port), sock);
        self.socks.insert(sock, SockEntry { conn, app, established_notified: false, armed: None });
        self.pump_sock(sock, ctx);
        Some(SockId(sock))
    }

    pub(crate) fn api_listen(&mut self, app: usize, port: Port) {
        self.listeners.insert(port, app);
    }

    pub(crate) fn api_send(
        &mut self,
        app: usize,
        sock: SockId,
        data: Bytes,
        ctx: &mut Ctx<'_>,
    ) -> Result<(), &'static str> {
        let e = self.socks.get_mut(&sock.0).ok_or("no such socket")?;
        if e.app != app {
            return Err("not your socket");
        }
        let r = e.conn.send(data, ctx.now().nanos());
        self.pump_sock(sock.0, ctx);
        r
    }

    pub(crate) fn api_close(&mut self, app: usize, sock: SockId, ctx: &mut Ctx<'_>) {
        if let Some(e) = self.socks.get_mut(&sock.0) {
            if e.app == app {
                e.conn.close();
                self.pump_sock(sock.0, ctx);
            }
        }
    }

    pub(crate) fn api_bind_dgram(&mut self, app: usize, port: Port) {
        self.dgram_binds.insert(port, app);
    }

    pub(crate) fn api_send_dgram(
        &mut self,
        dst: IpAddr,
        dst_port: Port,
        src_port: Port,
        data: Bytes,
        ctx: &mut Ctx<'_>,
    ) {
        let src = self
            .mobile
            .as_ref()
            .map(|m| m.home_addr)
            .or_else(|| self.route_iface(dst, ctx).map(|i| self.ifaces[i].ip))
            .unwrap_or(IpAddr::UNSPECIFIED);
        let pkt = Packet::dgram(src, dst, src_port, dst_port, data);
        self.send_pkt(pkt, ctx);
    }

    pub(crate) fn api_timer(&mut self, app: usize, d: Dur, key: u64, ctx: &mut Ctx<'_>) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, TimerKind::App { app, key });
        ctx.timer_in(d, token);
    }

    fn call_app(
        &mut self,
        a: usize,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut dyn InetApp, &mut InetApi<'_, '_, '_>),
    ) {
        let mut b = self.apps[a].behavior.take().expect("app re-entered");
        {
            let mut api = InetApi { node: self, ctx, app: a };
            f(b.as_mut(), &mut api);
        }
        self.apps[a].behavior = Some(b);
    }

    /// Deliver queued application events; callbacks may enqueue more.
    fn drain_app_events(&mut self, ctx: &mut Ctx<'_>) {
        let mut guard = 0u32;
        while let Some((a, ev)) = self.app_events.pop_front() {
            guard += 1;
            assert!(guard < 1_000_000, "inet app event loop runaway");
            match ev {
                AppEvent::Connected(s, peer) => {
                    self.call_app(a, ctx, |app, api| app.on_connected(SockId(s), peer, api));
                }
                AppEvent::Data(s, d) => {
                    self.call_app(a, ctx, |app, api| app.on_data(SockId(s), d, api));
                }
                AppEvent::Failed(s) => {
                    self.call_app(a, ctx, |app, api| app.on_conn_failed(SockId(s), api));
                }
                AppEvent::Closed(s) => {
                    self.call_app(a, ctx, |app, api| app.on_closed(SockId(s), api));
                }
                AppEvent::Dgram { from, to_port, data } => {
                    self.call_app(a, ctx, |app, api| app.on_dgram(from, to_port, data, api));
                }
            }
        }
    }
}

impl Agent for InetNode {
    fn handle(&mut self, now: Time, ev: Event, ctx: &mut Ctx<'_>) {
        let _ = now;
        match ev {
            Event::Start => {
                for a in 0..self.apps.len() {
                    self.call_app(a, ctx, |app, api| app.on_start(api));
                }
                if self.mobile.is_some() {
                    self.mip_probe(ctx);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.timers.insert(token, TimerKind::MipProbe);
                    ctx.timer_in(Dur::from_millis(100), token);
                }
            }
            Event::Frame { data, .. } => match Packet::decode(&data) {
                Ok(pkt) => self.on_packet(pkt, ctx),
                Err(_) => self.stats.decode_errors += 1,
            },
            Event::Timer { key } => {
                let Some(kind) = self.timers.remove(&key) else { return };
                match kind {
                    TimerKind::Conn { sock } => {
                        let valid = self
                            .socks
                            .get(&sock)
                            .and_then(|e| e.armed)
                            .map(|(t, _)| t == key)
                            .unwrap_or(false);
                        if valid {
                            if let Some(e) = self.socks.get_mut(&sock) {
                                e.armed = None;
                                e.conn.on_timeout(ctx.now().nanos());
                            }
                            self.pump_sock(sock, ctx);
                        }
                    }
                    TimerKind::App { app, key } => {
                        self.call_app(app, ctx, |a, api| a.on_timer(key, api));
                    }
                    TimerKind::MipProbe => {
                        self.mip_probe(ctx);
                        let token = self.next_token;
                        self.next_token += 1;
                        self.timers.insert(token, TimerKind::MipProbe);
                        ctx.timer_in(Dur::from_millis(100), token);
                    }
                }
            }
        }
        self.drain_app_events(ctx);
    }
}
