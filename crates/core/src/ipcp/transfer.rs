//! IPC Data Transfer: the (N-1) port table and what happens to a PDU on
//! its way out — relayed in place toward its destination address, or
//! framed here and sent (two-step forwarding, § Fig 4).
//!
//! This is the per-PDU task, and it knows nothing of management: routes
//! arrive as a [`ForwardingTable`] and scheduling classes as the DIF's
//! [`QosCube`]s, so nothing the RIB feeds can be named from here.

use super::{IpcpOut, IpcpStats};
use crate::fxhash::FxHashMap;
use crate::naming::{Addr, AppName};
use crate::qos::QosCube;
use crate::rmt::TxClass;
use crate::routing::ForwardingTable;
use bytes::Bytes;
use rina_sim::Time;
use rina_wire::{Pdu, PduView};
use std::collections::BTreeMap;

/// What backs an (N-1) port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum N1Kind {
    /// A raw simulator interface — this IPC process is part of a shim DIF
    /// bound directly to the medium.
    Phys {
        /// Interface index on the node.
        iface: u32,
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
}

impl N1Port {
    /// A port just attached to `kind`: up, no peer known, nothing heard.
    fn new(kind: N1Kind) -> Self {
        N1Port { kind, peer_name: None, peer_addr: 0, up: true, last_hello: Time::ZERO }
    }

    /// Up with an enrolled peer: a port that relays, floods and counts
    /// as an adjacency.
    pub fn live(&self) -> bool {
        self.up && self.peer_addr != 0
    }
}

/// The Data Transfer task's state (see module docs).
#[derive(Default)]
pub(super) struct Transfer {
    /// The (N-1) port table. Bound: a port per medium (a shim's one) and
    /// per lower flow held at once — a new lower flow takes the port the
    /// last flow between the same two processes over the same provider
    /// had, else one whose flow is gone — so never more ports than the
    /// most adjacencies this process held at one time.
    pub(super) n1: Vec<N1Port>,
    /// Relay index over `n1`: peer address → lowest live port toward it.
    /// Rebuilt on every port up/down/peer-address change so the per-frame
    /// next-hop port lookup is a map probe, not a linear port scan.
    peer_index: BTreeMap<Addr, usize>,
    /// The lower flows bound to ports of `n1`: node-local port id →
    /// port index, what an arriving SDU's flow resolves through. At most
    /// one entry per port.
    pub(super) lower: FxHashMap<u64, usize>,
}

impl Transfer {
    /// Attach an (N-1) port. Returns its index.
    pub(super) fn add(&mut self, kind: N1Kind) -> usize {
        let i = self.n1.len();
        self.n1.push(N1Port::new(kind));
        if let N1Kind::Lower { port } = kind {
            self.lower.insert(port, i);
        }
        i
    }

    /// Bind the lower flow at `port` to port `slot`, or to a new port
    /// when `slot` is `None`: up since `now`, no peer known yet. Returns
    /// the port's index.
    pub(super) fn bind_lower(&mut self, slot: Option<usize>, port: u64, now: Time) -> usize {
        let bound = N1Port { last_hello: now, ..N1Port::new(N1Kind::Lower { port }) };
        let i = slot.unwrap_or(self.n1.len());
        match self.n1.get_mut(i) {
            Some(p) => *p = bound,
            None => self.n1.push(bound),
        }
        self.lower.insert(port, i);
        i
    }

    /// Whether port `i` has a medium or a lower flow under it.
    pub(super) fn attached(&self, i: usize) -> bool {
        match self.n1.get(i).map(|p| p.kind) {
            Some(N1Kind::Phys { .. }) => true,
            Some(N1Kind::Lower { port }) => self.lower.get(&port) == Some(&i),
            None => false,
        }
    }

    /// Rebuild the `peer_addr → port` relay index. Called whenever a
    /// port's liveness or peer address changes; ports without an enrolled
    /// peer (address 0) are not indexed — address 0 is never a relay
    /// destination or a next hop.
    pub(super) fn rebuild_peer_index(&mut self) {
        self.peer_index.clear();
        for (i, p) in self.n1.iter().enumerate() {
            if p.live() {
                self.peer_index.entry(p.peer_addr).or_insert(i);
            }
        }
    }

    /// The lowest address a live port leads to.
    pub(super) fn lowest_peer(&self) -> Option<Addr> {
        self.peer_index.keys().next().copied()
    }

    /// Choose the (N-1) port for `dest`: step 1 route lookup, step 2 path
    /// selection among live ports to the chosen next hop.
    pub(super) fn pick_n1_toward(&self, dest: Addr, fwd: &ForwardingTable) -> Option<usize> {
        // Direct adjacency short-circuit (a shim's only case: its table
        // is empty and its index holds the peer alone).
        if let Some(&i) = self.peer_index.get(&dest) {
            return Some(i);
        }
        fwd.route(dest)?.iter().find_map(|hop| self.peer_index.get(hop).copied())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "n1 indices originate from the node's own port registration, never from PDU contents; callers iterate 0..n1.len()"
    )]
    pub(super) fn tx_n1(&self, n1: usize, frame: Bytes, class: TxClass, out: &mut Vec<IpcpOut>) {
        match self.n1[n1].kind {
            N1Kind::Phys { .. } => out.push(IpcpOut::TxPhys { n1, frame, class }),
            N1Kind::Lower { port } => out.push(IpcpOut::TxLower { port, sdu: frame, class }),
        }
    }

    /// Relay a transit frame: drop it if its TTL is spent, else decrement
    /// the TTL and fix the CRC trailer in the arrival buffer itself
    /// (copy-on-write if it is shared, e.g. a flood batch fanned out
    /// across ports) and hand the buffer straight to the (N-1) port
    /// toward its destination — no decode, no re-encode.
    pub(super) fn relay(
        &self,
        v: PduView,
        mut frame: Bytes,
        fwd: &ForwardingTable,
        cubes: &[QosCube],
        stats: &mut IpcpStats,
        out: &mut Vec<IpcpOut>,
    ) {
        if v.ttl == 0 {
            stats.ttl_drops += 1;
            return;
        }
        stats.relayed += 1;
        let Some(n1) = self.pick_n1_toward(v.dest_addr, fwd) else {
            stats.no_route += 1;
            return;
        };
        stats.relay_fast += 1;
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
        self.tx_n1(n1, frame, class_of(cubes, v.qos_id), out);
    }

    /// Two-step forwarding (§ Fig 4) of a PDU framed here: (1) next-hop
    /// member address from the forwarding table, (2) live (N-1) port (path
    /// / point of attachment) toward that next hop, chosen at transmission
    /// time.
    pub(super) fn forward(
        &self,
        pdu: Pdu,
        fwd: &ForwardingTable,
        cubes: &[QosCube],
        stats: &mut IpcpStats,
        out: &mut Vec<IpcpOut>,
    ) {
        let Some(n1) = self.pick_n1_toward(pdu.dest_addr(), fwd) else {
            stats.no_route += 1;
            return;
        };
        let class = class_of(cubes, pdu.qos_id());
        self.tx_n1(n1, pdu.encode(), class, out);
    }
}

/// The scheduling class of QoS cube `qos_id` (priority 0 if the DIF has
/// no such cube).
fn class_of(cubes: &[QosCube], qos_id: u8) -> TxClass {
    let prio = cubes.iter().find(|c| c.id == qos_id).map(|c| c.priority).unwrap_or(0);
    TxClass::new(qos_id, prio)
}
