//! The socket-style application interface of the baseline stack.
//!
//! Contrast with `rina::app`: here applications *see addresses*. They
//! resolve names to addresses themselves (DNS), dial well-known ports, and
//! their connections are bound to interface addresses — all the couplings
//! the paper's architecture removes.

use crate::addr::IpAddr;
use crate::pkt::Port;
use bytes::Bytes;
use rina_sim::{Dur, Time};
use std::any::Any;

/// Identifier of a socket on one node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SockId(pub u64);

/// Callbacks of a baseline application. Must be [`Send`] (like every
/// [`rina_sim::Agent`]) so whole simulations can be sharded across OS
/// threads by the sweep harness, and [`Any`] so
/// [`crate::node::InetNode::app`] can hand one back as its concrete type.
pub trait InetApp: Any + Send {
    /// Node start.
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        let _ = api;
    }
    /// A connection completed (client) or was accepted (server).
    fn on_connected(&mut self, sock: SockId, peer: (IpAddr, Port), api: &mut InetApi<'_, '_, '_>) {
        let _ = (sock, peer, api);
    }
    /// A message arrived on a connection.
    fn on_data(&mut self, sock: SockId, data: Bytes, api: &mut InetApi<'_, '_, '_>) {
        let _ = (sock, data, api);
    }
    /// A connection failed (reset, retransmissions exhausted, or the local
    /// interface it was bound to died).
    fn on_conn_failed(&mut self, sock: SockId, api: &mut InetApi<'_, '_, '_>) {
        let _ = (sock, api);
    }
    /// A connection was closed in an orderly way.
    fn on_closed(&mut self, sock: SockId, api: &mut InetApi<'_, '_, '_>) {
        let _ = (sock, api);
    }
    /// A datagram arrived on a bound UDP-like port.
    fn on_dgram(
        &mut self,
        from: (IpAddr, Port),
        to_port: Port,
        data: Bytes,
        api: &mut InetApi<'_, '_, '_>,
    ) {
        let _ = (from, to_port, data, api);
    }
    /// A timer fired.
    fn on_timer(&mut self, key: u64, api: &mut InetApi<'_, '_, '_>) {
        let _ = (key, api);
    }
}

/// The API surface handed to application callbacks.
pub struct InetApi<'n, 'c, 'w> {
    pub(crate) node: &'n mut crate::node::InetNode,
    pub(crate) ctx: &'c mut rina_sim::Ctx<'w>,
    pub(crate) app: usize,
}

impl InetApi<'_, '_, '_> {
    /// Open a connection to `dst:port`. The local address is bound to the
    /// interface the current route uses — permanently.
    pub fn connect(&mut self, dst: IpAddr, port: Port) -> Option<SockId> {
        self.node.api_connect(self.app, dst, port, self.ctx)
    }

    /// Listen for connections on a (well-known) port.
    pub fn listen(&mut self, port: Port) {
        self.node.api_listen(self.app, port);
    }

    /// Send one message (≤ MSS) on a connection.
    pub fn send(&mut self, sock: SockId, data: Bytes) -> Result<(), &'static str> {
        self.node.api_send(self.app, sock, data, self.ctx)
    }

    /// Close a connection.
    pub fn close(&mut self, sock: SockId) {
        self.node.api_close(self.app, sock, self.ctx);
    }

    /// Bind a UDP-like port for datagrams.
    pub fn bind_dgram(&mut self, port: Port) {
        self.node.api_bind_dgram(self.app, port);
    }

    /// Send a datagram.
    pub fn send_dgram(&mut self, dst: IpAddr, dst_port: Port, src_port: Port, data: Bytes) {
        self.node.api_send_dgram(dst, dst_port, src_port, data, self.ctx);
    }

    /// Arm an application timer.
    pub fn timer_in(&mut self, d: Dur, key: u64) {
        self.node.api_timer(self.app, d, key, self.ctx);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// This node's address on interface 0 (hosts are usually single-homed;
    /// multihomed apps must care — that is the point).
    pub fn primary_addr(&self) -> IpAddr {
        self.node.primary_addr()
    }
}
