//! IPC Transfer Control and the flow allocator (§5.3): the one flow table.
//!
//! Every flow this process terminates — whichever DIF it is a member of —
//! is one [`Flow`] keyed by its local CEP id. What differs between a real
//! DIF and a shim is the flow's [`Binding`] and nothing else: an EFCP
//! connection that sequences, windows and retransmits, or a pass-through
//! straight to the medium. One function, `Ipcp::bind`, makes that
//! choice, and the binding then decides delivery: a raw flow's data is
//! handed up as it arrived, an EFCP flow's PDUs feed its connection. The
//! allocator handshake, the phases, the port binding and teardown are
//! the same code for both.

use super::{Ipcp, IpcpOut, IpcpTimer};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::qos::{match_cube, QosCube, QosSpec};
use crate::rmt::TxClass;
use bytes::Bytes;
use rina_efcp::{ConnId, ConnStats, Connection};
use rina_sim::{Dur, Time};
use rina_wire::{CepId, Pdu, PduView};
use std::collections::BTreeMap;

/// Largest SDU a DIF accepts from its users; PDUs add header overhead
/// below this.
const MAX_SDU: usize = 64 * 1024;

/// How long a member's flow allocation may stay in flight before the
/// allocator gives up on it.
const ALLOC_DEADLINE: Dur = Dur::from_secs(1);

/// The same over a shim: one hop over one medium, whose links are at
/// most 5 ms one way, so a handshake still unanswered after this long
/// was lost.
const SHIM_ALLOC_DEADLINE: Dur = Dur::from_millis(50);

/// Flow allocation phase of one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Requester waiting for the destination's FlowResponse, which will
    /// echo `invoke`, until its allocation's `deadline`.
    Requesting { invoke: u32, deadline: Time },
    /// Data can flow.
    Active,
}

/// What an EFCP endpoint knows of its far end (see [`Ipcp::efcp_ends`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FarEnd {
    /// Still requesting; the allocation ends at this deadline.
    Asked(Time),
    /// Active, naming the far endpoint `(addr, cep)`.
    Named((Addr, CepId)),
}

/// What carries a flow's SDUs — the one thing a DIF's policy changes.
enum Binding {
    /// An EFCP connection. Boxed: a connection is ~0.5 KB, and the table
    /// of a shim (which never holds one) should not pay for it per leaf.
    Efcp(Box<Connection>),
    /// No EFCP: the shim is the degenerate DIF "tailored to the physical
    /// medium" — on a point-to-point link there is nothing to relay,
    /// sequence, or window, so its data-transfer task reduces to framing
    /// plus priority multiplexing.
    Raw { peer_addr: Addr, peer_cep: CepId, qos_id: u8, priority: u8 },
}

impl Binding {
    /// The far end of the flow: its member address and CEP id.
    fn peer(&self) -> (Addr, CepId) {
        match *self {
            Binding::Efcp(ref conn) => (conn.id().remote_addr, conn.id().remote_cep),
            Binding::Raw { peer_addr, peer_cep, .. } => (peer_addr, peer_cep),
        }
    }
}

/// One flow endpoint, bound to node port `port`.
pub(super) struct Flow {
    pub(super) port: u64,
    phase: Phase,
    peer: AppName,
    binding: Binding,
    /// The EFCP deadline a timer is armed for (see [`IpcpTimer::Conn`]).
    timer: Option<u64>,
}

/// The Transfer Control task's state (see module docs).
#[derive(Default)]
pub(super) struct Flows {
    table: BTreeMap<CepId, Flow>,
    last_cep: CepId,
}

impl Flows {
    fn next_cep(&mut self) -> CepId {
        self.last_cep += 1;
        self.last_cep
    }

    /// The EFCP connection bound to the flow at `cep`, if it has one.
    pub(super) fn conn_mut(&mut self, cep: CepId) -> Option<&mut Connection> {
        match self.table.get_mut(&cep) {
            Some(Flow { binding: Binding::Efcp(conn), .. }) => Some(conn),
            _ => None,
        }
    }
}

impl Ipcp {
    /// Bind the flow at `cep` to the peer's `peer_addr`:`peer_cep` under
    /// `cube`'s policies — the one choice a shim makes differently here:
    /// its flows pass straight to the medium, a member's ride a fresh
    /// EFCP connection.
    fn bind(&self, cep: CepId, peer_addr: Addr, peer_cep: CepId, cube: &QosCube) -> Binding {
        if self.is_shim {
            return Binding::Raw { peer_addr, peer_cep, qos_id: cube.id, priority: cube.priority };
        }
        let id = ConnId {
            local_addr: self.addr,
            remote_addr: peer_addr,
            local_cep: cep,
            remote_cep: peer_cep,
            qos_id: cube.id,
        };
        Binding::Efcp(Box::new(Connection::new(id, cube.params.clone())))
    }

    /// How long an allocation from here may stay in flight — the other
    /// choice a shim makes differently.
    fn alloc_deadline(&self) -> Dur {
        if self.is_shim {
            SHIM_ALLOC_DEADLINE
        } else {
            ALLOC_DEADLINE
        }
    }

    /// A data PDU `v`, addressed here, arrived in `frame`; one flow-table
    /// lookup decides where it goes. An active raw flow's data is the
    /// frame of an upper DIF: it is sliced out of the arrival buffer and
    /// handed up undecoded. Anything else is decoded and fed to the EFCP
    /// connection owning its CEP, or booked in `no_flow_drops` when no
    /// flow owns it.
    pub(super) fn on_data(&mut self, v: PduView, frame: Bytes, now: Time) {
        let conn = match self.flows.table.get_mut(&v.dest_cep) {
            Some(Flow { port, phase: Phase::Active, binding: Binding::Raw { .. }, .. }) => {
                let sdu = frame.slice(v.payload_range(frame.len()));
                self.out.push(IpcpOut::Deliver { port: *port, sdu });
                return;
            }
            Some(Flow { binding: Binding::Efcp(conn), .. }) => Some(conn),
            _ => None,
        };
        let Ok(pdu) = Pdu::decode(&frame) else {
            self.stats.decode_errors += 1;
            return;
        };
        let Some(conn) = conn else {
            self.stats.no_flow_drops += 1;
            return;
        };
        conn.on_pdu(&pdu, now.nanos());
        self.pump_conn(v.dest_cep, now);
    }

    /// A timer for the flow at `cep` fired: drive the connection's timers
    /// — unless `now` is not the deadline armed for it (an earlier one
    /// superseded it, or the flow is gone), which makes it stale and a
    /// no-op.
    pub(super) fn conn_timer(&mut self, cep: CepId, now: Time) {
        let Some(Flow { binding: Binding::Efcp(conn), timer, .. }) = self.flows.table.get_mut(&cep)
        else {
            return;
        };
        if *timer != Some(now.nanos()) {
            return;
        }
        *timer = None;
        conn.on_timeout(now.nanos());
        self.pump_conn(cep, now);
        // A fired deadline must move: one re-armed at or before `now`
        // would fire at this same instant forever, freezing virtual time.
        debug_assert!(
            self.flows.table.get(&cep).and_then(|f| f.timer).is_none_or(|t| t > now.nanos()),
            "the EFCP deadline of CEP {cep} did not move past {now:?}"
        );
    }

    /// Requester side: allocate a flow from `src_app` (bound to node port
    /// `port`) to `dst_app` with `spec`. The result arrives later as a
    /// [`IpcpOut::FlowActive`] or [`IpcpOut::FlowGone`] effect. Under
    /// the scoped-`/dir` policy a name neither registered here nor
    /// cached first resolves on demand at its owner; the allocation
    /// continues when the answer arrives. An allocation still in flight
    /// when its one deadline ([`IpcpTimer::Alloc`]) fires is ended.
    pub fn alloc_flow(
        &mut self,
        port: u64,
        src_app: AppName,
        dst_app: AppName,
        spec: QosSpec,
        now: Time,
    ) {
        let dst_addr = if self.scoped_dir() {
            self.resolve_dir_local(&dst_app)
        } else {
            self.dir_lookup(&dst_app)
        };
        let deadline = now + self.alloc_deadline();
        match dst_addr {
            Some(a) => self.alloc_flow_resolved(port, src_app, dst_app, spec, a, deadline),
            None if self.scoped_dir() => {
                self.start_dir_lookup(port, src_app, dst_app, spec, deadline);
            }
            None => {
                let failed = Some("destination unknown in DIF");
                self.out.push(IpcpOut::FlowGone { port, failed });
            }
        }
        if self.alloc_pending(port) {
            self.out.push(IpcpOut::Arm { at: deadline, timer: IpcpTimer::Alloc { port } });
        }
    }

    /// Whether the allocation for `port` is in flight: its request is
    /// unanswered, or it waits on a directory lookup.
    fn alloc_pending(&self, port: u64) -> bool {
        self.flows.table.values().any(|f| f.port == port && f.phase != Phase::Active)
            || self.directory.waits(port)
    }

    /// The deadline of the allocation for `port` ran out: one still in
    /// flight is ended, its peer told, and the node told why.
    pub(super) fn alloc_timer(&mut self, port: u64) {
        if self.alloc_pending(port) {
            self.dealloc_port(port);
            self.out.push(IpcpOut::FlowGone { port, failed: Some("allocation timed out") });
        }
    }

    /// Continue a flow allocation, due to end at `deadline`, whose
    /// destination member is known.
    #[expect(
        clippy::expect_used,
        reason = "cube(0) is the management cube, which DifConfig documents as mandatory and DifConfig::new always installs; absence is a construction bug, not a wire condition"
    )]
    pub(super) fn alloc_flow_resolved(
        &mut self,
        port: u64,
        src_app: AppName,
        dst_app: AppName,
        spec: QosSpec,
        dst_addr: Addr,
        deadline: Time,
    ) {
        // Fail fast if routing has not converged to the destination member
        // yet — the requester retries rather than stalling on a timeout.
        if !self.routes_to(dst_addr) {
            self.out
                .push(IpcpOut::FlowGone { port, failed: Some("no route to destination member") });
            return;
        }
        let cep = self.flows.next_cep();
        // Provisional until the response supplies the peer cep and qos
        // cube; bound again then.
        let binding = self.bind(cep, dst_addr, 0, self.cfg.cube(0).expect("mgmt cube"));
        let invoke = self.next_invoke();
        let phase = Phase::Requesting { invoke, deadline };
        let flow = Flow { port, phase, peer: dst_app.clone(), binding, timer: None };
        self.flows.table.insert(cep, flow);
        let body =
            MgmtBody::FlowRequest { src_app, dst_app, spec, src_addr: self.addr, src_cep: cep };
        self.send_mgmt_addr(dst_addr, body, invoke, 0);
    }

    /// Whether a PDU addressed to the member at `addr` can leave here:
    /// it is this member, or a live (N-1) port leads toward it.
    fn routes_to(&self, addr: Addr) -> bool {
        addr == self.addr
            || self.transfer.pick_n1_toward(addr, self.routes.engine.table()).is_some()
    }

    /// Responder side: the member at `src_addr` asks for a flow, which
    /// the node accepts or rejects. A request with no route back is
    /// dropped and booked in `no_route`, as its answer would be: it
    /// creates nothing here, and the requester's deadline ends its side.
    pub(super) fn handle_flow_request(
        &mut self,
        src_app: AppName,
        dst_app: AppName,
        spec: QosSpec,
        src_addr: Addr,
        src_cep: CepId,
        invoke_id: u32,
    ) {
        self.stats.flow_reqs_in += 1;
        if !self.routes_to(src_addr) {
            self.stats.no_route += 1;
            return;
        }
        let req = IpcpOut::FlowReqIn { src_app, dst_app, spec, src_addr, src_cep, invoke_id };
        self.out.push(req);
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
        let Some(cube) = match_cube(&self.cfg.cubes, &spec) else {
            self.flow_reject(src_addr, invoke_id, -3);
            return;
        };
        let qos_id = cube.id;
        let cep = self.flows.next_cep();
        let binding = self.bind(cep, src_addr, src_cep, cube);
        let flow = Flow { port, phase: Phase::Active, peer: src_app.clone(), binding, timer: None };
        self.flows.table.insert(cep, flow);
        let body = MgmtBody::FlowResponse { dst_cep: cep, qos_id };
        self.send_mgmt_addr(src_addr, body, invoke_id, 0);
        self.out.push(IpcpOut::FlowActive { port, peer: src_app });
    }

    /// Responder side: refuse an inbound flow request.
    pub fn flow_reject(&mut self, src_addr: Addr, invoke_id: u32, result: i32) {
        let body = MgmtBody::FlowResponse { dst_cep: 0, qos_id: 0 };
        self.send_mgmt_addr(src_addr, body, invoke_id, result);
    }

    /// The member at `src_addr` answered flow request `invoke_id`:
    /// complete the requesting endpoint's binding and activate it, or
    /// fail it. Only the member the request went to can answer it, and
    /// only while the endpoint still requests.
    pub(super) fn handle_flow_response(
        &mut self,
        invoke_id: u32,
        src_addr: Addr,
        dst_cep: CepId,
        qos_id: u8,
        result: i32,
    ) {
        let asked = self.flows.table.iter().find(|(_, f)| {
            matches!(f.phase, Phase::Requesting { invoke, .. } if invoke == invoke_id)
                && f.binding.peer().0 == src_addr
        });
        let Some((&cep, _)) = asked else { return };
        let bound = if result != 0 || dst_cep == 0 {
            Err("refused by destination")
        } else {
            let cube = self.cfg.cube(qos_id).ok_or("unknown qos cube");
            cube.map(|cube| self.bind(cep, src_addr, dst_cep, cube))
        };
        let Some(f) = self.flows.table.get_mut(&cep) else { return };
        let port = f.port;
        match bound {
            Err(reason) => {
                self.flows.table.remove(&cep);
                self.out.push(IpcpOut::FlowGone { port, failed: Some(reason) });
            }
            Ok(binding) => {
                f.binding = binding;
                f.phase = Phase::Active;
                self.out.push(IpcpOut::FlowActive { port, peer: f.peer.clone() });
            }
        }
    }

    /// Deallocate the flow bound to node port `port` (local side) in
    /// whatever phase it is, telling the member it names, or drop the
    /// allocation still waiting on a directory lookup.
    pub fn dealloc_port(&mut self, port: u64) {
        self.directory.drop_waiter(port);
        let Some(cep) = self.flows.table.iter().find(|(_, f)| f.port == port).map(|(&c, _)| c)
        else {
            return;
        };
        let Some(f) = self.flows.table.remove(&cep) else { return };
        let invoke = self.next_invoke();
        self.send_mgmt_addr(f.binding.peer().0, MgmtBody::FlowTeardown { cep }, invoke, 0);
    }

    /// The member at `src_addr` ended its endpoint `cep`: end the flow
    /// here bound to exactly that endpoint, if any.
    pub(super) fn handle_flow_teardown(&mut self, src_addr: Addr, cep: CepId) {
        let ours = self.flows.table.iter().find(|(_, f)| f.binding.peer() == (src_addr, cep));
        if let Some(f) = ours.map(|(&c, _)| c).and_then(|c| self.flows.table.remove(&c)) {
            self.out.push(IpcpOut::FlowGone { port: f.port, failed: None });
        }
    }

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
        let Some((&cep, f)) = self.flows.table.iter_mut().find(|(_, f)| f.port == port) else {
            return Err("no such flow");
        };
        if f.phase != Phase::Active {
            return Err("flow not active");
        }
        match &mut f.binding {
            &mut Binding::Raw { peer_addr, peer_cep, qos_id, priority } => {
                let own = TxClass::new(qos_id, priority);
                self.write_raw(peer_addr, peer_cep, own, sdu, class_hint)
            }
            Binding::Efcp(conn) => {
                if sdu.len() > MAX_SDU {
                    return Err("sdu exceeds dif max");
                }
                conn.send_sdu(sdu, now.nanos()).map_err(|_| "flow failed or backpressured")?;
                self.pump_conn(cep, now);
                Ok(())
            }
        }
    }

    /// Shim data path: wrap the SDU in a DataPdu for demultiplexing at
    /// `peer_addr`'s `peer_cep` and pass it straight to the medium. `own`
    /// is the shim flow's own class.
    fn write_raw(
        &mut self,
        peer_addr: Addr,
        peer_cep: CepId,
        own: TxClass,
        sdu: Bytes,
        class_hint: Option<TxClass>,
    ) -> Result<(), &'static str> {
        let Some(n1) = self.transfer.pick_n1_toward(peer_addr, self.routes.engine.table()) else {
            return Err("link down");
        };
        let d = rina_wire::DataPdu {
            dest_addr: peer_addr,
            src_addr: self.addr,
            qos_id: own.qos_id,
            dest_cep: peer_cep,
            src_cep: 0,
            seq: 0,
            flags: 0,
            ttl: 1,
            payload: sdu,
        };
        // Wrap fast path: an SDU handed down by an upper IPC process
        // (class_hint is Some exactly then) is an encoded frame ending in
        // its own CRC trailer, so the outer trailer combines in O(1) from
        // a header-only sum — no pass over the payload bytes. Application
        // SDUs are opaque and take the full re-sum. Byte-identical output
        // either way (pinned by proptest in rina-wire).
        let frame = if class_hint.is_some() && d.payload.len() >= 5 {
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
        } else {
            Pdu::Data(d).encode()
        };
        // The hint preserves the *originating* cube (an upper DIF's class
        // riding this shim flow); plain writes class as the shim flow's
        // own cube.
        self.transfer.tx_n1(n1, frame, class_hint.unwrap_or(own), &mut self.out);
        Ok(())
    }

    /// Pump one connection: route its outgoing PDUs, surface delivered
    /// SDUs, detect failure, and ask for its deadline if that is now
    /// strictly earlier than the one armed (or none is) — pumping is the
    /// one place a connection's deadline moves.
    pub(super) fn pump_conn(&mut self, cep: CepId, now: Time) {
        let Some(Flow { port, binding: Binding::Efcp(conn), .. }) = self.flows.table.get_mut(&cep)
        else {
            return;
        };
        let port = *port;
        let mut pdus = Vec::new();
        while let Some(p) = conn.poll_transmit() {
            pdus.push(p);
        }
        let mut sdus = Vec::new();
        while let Some(s) = conn.poll_deliver() {
            sdus.push(s);
        }
        let failed = conn.is_failed();
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
            self.flows.table.remove(&cep);
            self.out.push(IpcpOut::FlowGone { port, failed: Some("efcp gave up (max rtx)") });
            return;
        }
        let Some(Flow { binding: Binding::Efcp(conn), timer, .. }) = self.flows.table.get_mut(&cep)
        else {
            return;
        };
        if let Some(t) = conn.poll_timeout().filter(|&t| timer.is_none_or(|armed| t < armed)) {
            *timer = Some(t);
            self.out.push(IpcpOut::Arm { at: Time(t), timer: IpcpTimer::Conn { cep } });
        }
    }

    /// Aggregate EFCP stats over local flow endpoints.
    pub fn conn_stats_sum(&self) -> ConnStats {
        let mut s = ConnStats::default();
        for f in self.flows.table.values() {
            let Binding::Efcp(conn) = &f.binding else { continue };
            let c = conn.stats();
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

    /// Every EFCP flow endpoint here, by CEP id, with what it knows of
    /// its far end.
    pub(crate) fn efcp_ends(&self) -> impl Iterator<Item = (CepId, FarEnd)> + '_ {
        let efcp = self.flows.table.iter().filter(|(_, f)| matches!(f.binding, Binding::Efcp(_)));
        efcp.map(|(&cep, f)| match f.phase {
            Phase::Requesting { deadline, .. } => (cep, FarEnd::Asked(deadline)),
            Phase::Active => (cep, FarEnd::Named(f.binding.peer())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dif::DifConfig;
    use crate::ipcp::N1Kind;
    use proptest::prelude::*;
    use rina_wire::{PduKind, PduView};

    /// The two members of one DIF, at addresses 1 and 2, joined back to
    /// back over port 0 of each: the two ends of a medium (raw binding)
    /// or two members of a real DIF (EFCP binding).
    fn pair(shim: bool) -> [Ipcp; 2] {
        [1, 2].map(|side| {
            let (cfg, name) = (DifConfig::new("net"), AppName::new(&format!("net.{side}")));
            if shim {
                return Ipcp::shim(0, cfg, name, 0, side);
            }
            let mut i = Ipcp::new(0, cfg, name);
            i.bootstrap(side);
            i.add_n1(N1Kind::Phys { iface: 0 });
            i.transfer.n1[0].peer_addr = 3 - side;
            i.transfer.rebuild_peer_index();
            i
        })
    }

    /// Carry every frame `from` wants sent over to `to`, and return what
    /// else `from` asked of its node — plus its management frames, but
    /// not the data and control PDUs or the EFCP deadlines, which are the
    /// binding's own business.
    fn cross(from: &mut Ipcp, to: &mut Ipcp) -> Vec<String> {
        let mut seen = Vec::new();
        for effect in from.take_out() {
            let IpcpOut::TxPhys { frame, .. } = &effect else {
                if !matches!(effect, IpcpOut::Arm { timer: IpcpTimer::Conn { .. }, .. }) {
                    seen.push(format!("{effect:?}"));
                }
                continue;
            };
            if PduView::peek(frame).is_some_and(|v| v.kind == PduKind::Mgmt) {
                seen.push(format!("{effect:?}"));
            }
            to.on_frame(0, frame.clone(), Time::from_millis(1));
        }
        seen
    }

    /// Drive one allocation from requester `a` (node port `ports.0`) to
    /// responder `b` (node port `ports.1`), which accepts or rejects it;
    /// an accepted flow carries `sdu` and is then deallocated by `a`.
    /// Returns everything the two asked of their nodes, in order.
    fn handshake(
        shim: bool,
        ports: (u64, u64),
        spec: QosSpec,
        accept: bool,
        sdu: &[u8],
    ) -> Vec<String> {
        let [mut a, mut b] = pair(shim);
        let (src, dst) = (AppName::new("client"), AppName::new("server"));
        a.alloc_flow_resolved(ports.0, src, dst, spec, 2, Time::from_secs(1));
        let mut seen = cross(&mut a, &mut b);
        let Some(IpcpOut::FlowReqIn { src_app, spec, src_addr, src_cep, invoke_id, .. }) =
            b.take_out().pop()
        else {
            panic!("the request reached the responder");
        };
        if accept {
            b.flow_accept(ports.1, src_app, spec, src_addr, src_cep, invoke_id);
        } else {
            b.flow_reject(src_addr, invoke_id, -5);
        }
        seen.extend(cross(&mut b, &mut a));
        if accept {
            a.write_port(ports.0, Bytes::copy_from_slice(sdu), Time::from_millis(1), None).unwrap();
            // Data over, acknowledgements (if the binding has any) back.
            for _ in 0..2 {
                seen.extend(cross(&mut a, &mut b));
                seen.extend(cross(&mut b, &mut a));
            }
            a.dealloc_port(ports.0);
            seen.extend(cross(&mut a, &mut b));
        }
        seen.extend(cross(&mut a, &mut b));
        seen.extend(cross(&mut b, &mut a));
        for i in [&a, &b] {
            assert!(i.flows.table.is_empty(), "{} leaked", i.name);
            // One CEP each, counted from 1 — none at a responder that refused.
            assert_eq!(i.flows.last_cep, if i.addr == 1 || accept { 1 } else { 0 });
        }
        seen
    }

    proptest! {
        /// The flow allocator is one mechanism: request → accept →
        /// response → write → teardown, and request → reject, ask the
        /// same of the node, number CEPs the same and leave nothing
        /// behind whether the flow is bound to EFCP or straight to the
        /// medium.
        #[test]
        fn handshake_is_the_same_under_both_bindings(
            a_port in 1u64..1000,
            b_port in 1000u64..2000,
            spec in 0usize..3,
            accept in any::<bool>(),
            sdu in proptest::collection::vec(any::<u8>(), 1..200),
        ) {
            let ports = (a_port, b_port);
            let spec = [QosSpec::reliable(), QosSpec::datagram(), QosSpec::interactive()][spec];
            let raw = handshake(true, ports, spec, accept, &sdu);
            let efcp = handshake(false, ports, spec, accept, &sdu);
            prop_assert_eq!(&raw, &efcp);
            let delivered = raw.iter().any(|e| e.starts_with("Deliver"));
            prop_assert_eq!(delivered, accept, "{:?}", raw);
        }
    }

    /// Carry every frame `from` wants sent over to `to`, arriving at
    /// `now`, and return what else `from` asked of its node.
    fn carry(from: &mut Ipcp, to: &mut Ipcp, now: Time) -> Vec<IpcpOut> {
        let mut told = Vec::new();
        for effect in from.take_out() {
            match effect {
                IpcpOut::TxPhys { frame, .. } => to.on_frame(0, frame, now),
                other => told.push(other),
            }
        }
        told
    }

    /// Two members with an active EFCP flow between them, set up at 1 ms:
    /// from `a`'s node port 7 to `b`'s node port 8.
    fn efcp_flow() -> [Ipcp; 2] {
        let [mut a, mut b] = pair(false);
        let (src, dst) = (AppName::new("client"), AppName::new("server"));
        a.alloc_flow_resolved(7, src, dst, QosSpec::reliable(), 2, Time::from_secs(1));
        carry(&mut a, &mut b, Time::from_millis(1));
        accept(&mut b);
        carry(&mut b, &mut a, Time::from_millis(1));
        assert!(matches!(a.take_out().pop(), Some(IpcpOut::FlowActive { port: 7, .. })));
        [a, b]
    }

    /// The EFCP timers `i` has asked for since its effects were last
    /// taken, taken out of them: each `Arm` of a [`IpcpTimer::Conn`].
    fn conn_timers(i: &mut Ipcp) -> Vec<(Time, IpcpTimer)> {
        let mut asked = Vec::new();
        i.out.retain(|o| match *o {
            IpcpOut::Arm { at, timer: timer @ IpcpTimer::Conn { .. } } => {
                asked.push((at, timer));
                false
            }
            _ => true,
        });
        asked
    }

    /// A timer superseded by an earlier deadline does nothing when it
    /// fires: a timeout backs the RTO off, an ack then pulls the deadline
    /// in, and only the timer armed for the new deadline drives the
    /// connection, at its own instant; the superseded one fires after it
    /// as a no-op.
    #[test]
    fn a_superseded_deadline_fires_as_a_no_op() {
        let ms = Time::from_millis;
        let [mut a, mut b] = efcp_flow();
        for sdu in [&b"one"[..], b"two"] {
            a.write_port(7, Bytes::copy_from_slice(sdu), ms(10), None).unwrap();
        }
        let [(at, first)] = conn_timers(&mut a)[..] else { panic!("one timer") };
        assert_eq!(at, ms(210));
        a.take_out(); // both PDUs are lost
        a.on_timer(first, at); // the head goes again, the RTO doubles
        let [(at, backed_off)] = conn_timers(&mut a)[..] else { panic!("re-armed") };
        assert_eq!(at, ms(610));
        carry(&mut a, &mut b, ms(220)); // the retransmission arrives
        carry(&mut b, &mut a, ms(230)); // its ack resets the RTO
        let [(at, current)] = conn_timers(&mut a)[..] else { panic!("re-armed") };
        assert_eq!(at, ms(430), "an earlier deadline re-arms");
        a.take_out(); // the go-back-N retransmission the ack pulled
        let timeouts = a.conn_stats_sum().timeouts;
        a.on_timer(current, ms(430));
        assert_eq!(a.conn_stats_sum().timeouts, timeouts + 1, "the current one drives the flow");
        let [(at, _)] = conn_timers(&mut a)[..] else { panic!("re-armed") };
        assert!(at > ms(610), "{at:?}");
        assert!(!a.take_out().is_empty());
        a.on_timer(backed_off, ms(610));
        assert!(a.take_out().is_empty(), "the superseded timer emitted and armed nothing");
        assert_eq!(a.conn_stats_sum().timeouts, timeouts + 1);
    }

    /// An owed acknowledgement is one more EFCP deadline: once a dense
    /// stream is past its quick acks, the receiver's `pump_conn` arms
    /// [`IpcpTimer::Conn`] `ACK_DELAY` after the PDU it owes an ack, and
    /// the timer's firing sends the `AckCredit` that pays it.
    #[test]
    fn an_owed_ack_arms_the_flow_timer_and_its_firing_acks() {
        let [mut a, mut b] = efcp_flow();
        let at = |i: u64| Time::from_millis(10) + Dur::from_micros(100 * i);
        let (mut sent, mut armed) = (0, Vec::new());
        while armed.is_empty() && sent < 100 {
            a.write_port(7, Bytes::from_static(b"x"), at(sent), None).unwrap();
            carry(&mut a, &mut b, at(sent));
            armed = conn_timers(&mut b);
            carry(&mut b, &mut a, at(sent)); // the acks so far
            sent += 1;
        }
        let due = at(sent - 1) + Dur::from_nanos(rina_efcp::ACK_DELAY);
        assert_eq!(armed, [(due, IpcpTimer::Conn { cep: 1 })]);
        b.on_timer(IpcpTimer::Conn { cep: 1 }, due);
        let acks: Vec<_> = b
            .take_out()
            .into_iter()
            .filter_map(|o| match o {
                IpcpOut::TxPhys { frame, .. } => match Pdu::decode(&frame) {
                    Ok(Pdu::Ctrl(c)) => Some(c.kind),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert!(
            matches!(acks[..], [rina_wire::CtrlKind::AckCredit { seq, .. }] if seq == sent),
            "{acks:?} after {sent} PDUs"
        );
    }

    /// A flow deallocated with its timer armed takes the timer's record
    /// along: nothing is left to arm, and the late firing emits nothing.
    #[test]
    fn a_deallocated_flow_leaves_no_timer_behind() {
        let [mut a, _] = efcp_flow();
        a.write_port(7, Bytes::from_static(b"lost"), Time::from_millis(10), None).unwrap();
        let [(at, timer)] = conn_timers(&mut a)[..] else { panic!("one timer") };
        a.dealloc_port(7);
        assert!(conn_timers(&mut a).is_empty());
        a.take_out();
        a.on_timer(timer, at);
        assert!(a.take_out().is_empty(), "the orphaned timer emitted and armed nothing");
    }

    /// A flow deallocated while its request is still unanswered leaves
    /// nothing behind: a requesting flow is one table entry and nothing
    /// else, and the late response finds no flow to bind.
    #[test]
    fn dealloc_before_the_response_leaves_nothing_pending() {
        for shim in [true, false] {
            let [mut a, _] = pair(shim);
            let (src, dst) = (AppName::new("client"), AppName::new("server"));
            a.alloc_flow_resolved(7, src, dst, QosSpec::reliable(), 2, Time::from_secs(1));
            assert_eq!(a.flows.table.len(), 1);
            a.dealloc_port(7);
            assert!(a.flows.table.is_empty(), "shim={shim}");
            // The response that never came in time is absorbed.
            a.handle_flow_response(1, 2, 9, 1, 0);
            assert!(a.take_out().iter().all(|o| matches!(o, IpcpOut::TxPhys { .. })));
        }
    }

    /// `a`, the requester of a [`pair`], asks at `now` for a flow from its
    /// node port 7 to the application "server" at member 2, and returns
    /// the deadline it armed for it.
    fn ask(a: &mut Ipcp, now: Time) -> Time {
        if !a.is_shim {
            a.rib.write_local("/dir/server", "dir", super::super::encode_addr(2));
        }
        a.alloc_flow(7, AppName::new("client"), AppName::new("server"), QosSpec::reliable(), now);
        let armed = a.out.iter().find_map(|o| match *o {
            IpcpOut::Arm { at, timer: IpcpTimer::Alloc { port: 7 } } => Some(at),
            _ => None,
        });
        armed.expect("a request in flight arms its deadline")
    }

    /// `b` accepts the request that reached it on its node port 8.
    fn accept(b: &mut Ipcp) {
        let Some(IpcpOut::FlowReqIn { src_app, spec, src_addr, src_cep, invoke_id, .. }) =
            b.take_out().pop()
        else {
            panic!("the request reached the responder");
        };
        b.flow_accept(8, src_app, spec, src_addr, src_cep, invoke_id);
    }

    /// Whether both ends' flow tables are empty.
    fn both_empty(a: &Ipcp, b: &Ipcp) -> bool {
        [a, b].iter().all(|i| i.flows.table.is_empty())
    }

    /// A request whose response is lost is ended at its deadline — 50 ms
    /// over a shim, 1 s in a member DIF: the node is told why, the
    /// teardown reaches the responder, whose endpoint ends too, and both
    /// tables end empty.
    #[test]
    fn a_lost_response_ends_both_endpoints_at_the_deadline() {
        let ms = Time::from_millis;
        for (shim, deadline) in [(true, ms(60)), (false, ms(1010))] {
            let [mut a, mut b] = pair(shim);
            assert_eq!(ask(&mut a, ms(10)), deadline, "shim={shim}");
            carry(&mut a, &mut b, ms(11));
            accept(&mut b);
            b.take_out(); // the response is lost
            a.on_timer(IpcpTimer::Alloc { port: 7 }, deadline);
            let told = carry(&mut a, &mut b, deadline);
            let [IpcpOut::FlowGone { port: 7, failed }] = &told[..] else { panic!("{told:?}") };
            assert_eq!(*failed, Some("allocation timed out"));
            let told = b.take_out();
            assert!(matches!(&told[..], [IpcpOut::FlowGone { port: 8, failed: None }]), "{told:?}");
            assert!(both_empty(&a, &b), "shim={shim}");
        }
    }

    /// A response that arrives after its deadline ran out is absorbed,
    /// before or after the teardown reaches the responder: both tables
    /// end empty, and the requester's node hears only of the timeout.
    #[test]
    fn a_response_after_the_deadline_is_absorbed() {
        let ms = Time::from_millis;
        for teardown_first in [true, false] {
            let [mut a, mut b] = pair(false);
            let deadline = ask(&mut a, ms(0));
            carry(&mut a, &mut b, ms(1));
            accept(&mut b);
            let late = b.take_out();
            a.on_timer(IpcpTimer::Alloc { port: 7 }, deadline);
            if teardown_first {
                carry(&mut a, &mut b, deadline);
            }
            for effect in late {
                if let IpcpOut::TxPhys { frame, .. } = effect {
                    a.on_frame(0, frame, deadline);
                }
            }
            let told = carry(&mut a, &mut b, deadline);
            assert!(told.iter().all(|o| !matches!(o, IpcpOut::FlowActive { .. })), "{told:?}");
            assert!(both_empty(&a, &b), "teardown_first={teardown_first}");
        }
    }

    /// A management frame from the member at `src` to the one at `dest`.
    fn mgmt_from(src: Addr, dest: Addr, body: MgmtBody, invoke_id: u32) -> Bytes {
        let payload = body.encode(invoke_id, 0);
        Pdu::Mgmt(rina_wire::MgmtPdu { dest_addr: dest, src_addr: src, ttl: 4, payload }).encode()
    }

    /// A teardown ends only the flow bound to the endpoint it comes from:
    /// one from a third member naming a live CEP ends nothing, the peer's
    /// own ends the flow.
    #[test]
    fn a_teardown_from_a_third_member_ends_nothing() {
        let [_, mut b] = efcp_flow();
        b.on_frame(0, mgmt_from(3, 2, MgmtBody::FlowTeardown { cep: 1 }, 9), Time::from_millis(2));
        assert!(b.take_out().is_empty());
        assert_eq!(b.flows.table.len(), 1, "the flow outlives a stranger's teardown");
        b.on_frame(0, mgmt_from(1, 2, MgmtBody::FlowTeardown { cep: 1 }, 9), Time::from_millis(3));
        let told = b.take_out();
        assert!(matches!(&told[..], [IpcpOut::FlowGone { port: 8, failed: None }]), "{told:?}");
        assert!(b.flows.table.is_empty());
    }

    /// A response counts only from the member its request went to: one
    /// from another member carrying the same invoke id — a process that
    /// crash-restarted numbers its requests from 1 again — binds nothing,
    /// and the real answer still completes the flow.
    #[test]
    fn a_response_from_another_member_binds_nothing() {
        let [mut a, mut b] = pair(false);
        ask(&mut a, Time::ZERO);
        carry(&mut a, &mut b, Time::from_millis(1));
        let stray = MgmtBody::FlowResponse { dst_cep: 5, qos_id: 1 };
        a.on_frame(0, mgmt_from(3, 1, stray, 1), Time::from_millis(1));
        assert!(a.take_out().is_empty(), "the stray response activated the flow");
        accept(&mut b);
        let told = carry(&mut b, &mut a, Time::from_millis(2));
        assert!(told.iter().any(|o| matches!(o, IpcpOut::FlowActive { port: 8, .. })));
        let told = a.take_out();
        assert!(matches!(&told[..], [IpcpOut::FlowActive { port: 7, .. }]), "{told:?}");
        assert_eq!(a.efcp_ends().collect::<Vec<_>>(), [(1, FarEnd::Named((2, 1)))]);
    }

    /// A request from a member the responder has no route back to
    /// creates nothing: its answer could never leave, so the node hears
    /// of no request, no flow is entered, and the drop is booked in
    /// `no_route`. The same request from the member behind the port is
    /// handed to the node.
    #[test]
    fn a_request_with_no_route_back_creates_nothing() {
        for shim in [true, false] {
            let [_, mut b] = pair(shim);
            let request = |src_addr| MgmtBody::FlowRequest {
                src_app: AppName::new("client"),
                dst_app: AppName::new("server"),
                spec: QosSpec::reliable(),
                src_addr,
                src_cep: 1,
            };
            b.on_frame(0, mgmt_from(3, 2, request(3), 1), Time::from_millis(1));
            let told = b.take_out();
            assert!(told.is_empty(), "shim={shim}: {told:?}");
            assert!(b.flows.table.is_empty() && b.flows.last_cep == 0);
            assert_eq!((b.stats.flow_reqs_in, b.stats.no_route), (1, 1));
            b.on_frame(0, mgmt_from(1, 2, request(1), 1), Time::from_millis(2));
            let told = b.take_out();
            assert!(matches!(&told[..], [IpcpOut::FlowReqIn { src_addr: 1, .. }]), "{told:?}");
            assert_eq!((b.stats.flow_reqs_in, b.stats.no_route), (2, 1));
        }
    }
}
