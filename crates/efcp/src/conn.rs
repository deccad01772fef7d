//! The EFCP connection state machine (DTP + DTCP), sans-IO.
//!
//! A [`Connection`] is one end of an EFCP connection. It never does IO or
//! reads a clock: the caller feeds it SDUs ([`Connection::send_sdu`]),
//! incoming PDUs ([`Connection::on_pdu`]) and time ([`Connection::on_timeout`]),
//! and drains outgoing PDUs ([`Connection::poll_transmit`]) and delivered
//! SDUs ([`Connection::poll_deliver`]). This mirrors the paper's split of an
//! IPC process into data-transfer and transfer-control tasks coupled only
//! through shared per-flow state (§4).

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

use crate::cong::{Cong, SSTHRESH};
use crate::params::ConnParams;
use bytes::Bytes;
use rina_wire::efcp::{FLAG_DRF, FLAG_FIRST, FLAG_MORE};
use rina_wire::{Addr, CepId, CtrlKind, CtrlPdu, DataPdu, Pdu, SeqNum};
use std::collections::{BTreeMap, VecDeque};

/// Addressing of one connection within its DIF. EFCP fills these into every
/// PDU it emits; the relaying task routes on `remote_addr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnId {
    /// This end's DIF-internal address.
    pub local_addr: Addr,
    /// Peer's DIF-internal address.
    pub remote_addr: Addr,
    /// This end's connection endpoint id.
    pub local_cep: CepId,
    /// Peer's connection endpoint id.
    pub remote_cep: CepId,
    /// QoS cube the flow belongs to.
    pub qos_id: u8,
}

/// Counters kept by a connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// SDUs accepted from the local user.
    pub sdus_sent: u64,
    /// Data PDUs transmitted (including retransmissions).
    pub pdus_sent: u64,
    /// Data PDUs retransmitted.
    pub retransmissions: u64,
    /// Retransmission timer expiries.
    pub timeouts: u64,
    /// SDUs delivered to the local user.
    pub sdus_delivered: u64,
    /// Payload bytes delivered to the local user.
    pub bytes_delivered: u64,
    /// Duplicate data PDUs received and discarded.
    pub dup_pdus: u64,
    /// PDUs received out of order and buffered.
    pub ooo_pdus: u64,
    /// Control PDUs sent.
    pub acks_sent: u64,
    /// SDUs (or fragments) dropped by the receiver in unreliable modes.
    pub rcv_dropped: u64,
    /// Window halvings on a local congestion signal. Nothing raises one,
    /// so this is always 0; it stays until the benchmark stops reading it
    /// (ROADMAP item 4).
    pub cong_backoffs: u64,
}

#[derive(Clone, Debug)]
struct RtxEntry {
    flags: u8,
    payload: Bytes,
    retries: u32,
}

/// Why [`Connection::send_sdu`] refused an SDU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendSduError {
    /// The connection has failed (max retransmissions exceeded).
    ConnectionFailed,
    /// The send queue is full (backpressure to the user).
    Backpressured,
}

impl std::fmt::Display for SendSduError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendSduError::ConnectionFailed => write!(f, "connection failed"),
            SendSduError::Backpressured => write!(f, "send queue full"),
        }
    }
}
impl std::error::Error for SendSduError {}

/// Maximum fragments queued before `send_sdu` applies backpressure.
const SENDQ_LIMIT: usize = 4096;

/// Largest PDU payload, in bytes; `send_sdu` fragments larger SDUs.
pub const MAX_PDU_PAYLOAD: usize = 1400;

/// Ceiling on the backed-off retransmission timeout, nanoseconds (5 s).
/// Backoff doubles the RTO per expiry; without a cap, ten expiries on one
/// PDU (long lossy paths) push the next attempt minutes out.
pub const RTX_MAX_TIMEOUT: u64 = 5_000_000_000;

/// Retransmissions of one PDU before the next expiry fails the connection.
pub const MAX_RTX: u32 = 12;

/// How long a reliable receiver may owe an acknowledgement, nanoseconds
/// (2 ms): an in-order PDU of a dense stream past its first 64 PDUs
/// (AIMD's slow-start threshold) is acked with the next one, or this long
/// after it arrived. Far below the shortest retransmission timeout any
/// cube sets (15 ms), so a held ack never fires the sender's timer.
pub const ACK_DELAY: u64 = 2_000_000;

/// One end of an EFCP connection.
#[derive(Debug)]
pub struct Connection {
    id: ConnId,
    p: ConnParams,
    cong: Cong,

    // --- sender ---
    next_seq: SeqNum,
    snd_una: SeqNum,
    credit_rwe: SeqNum,
    sendq: VecDeque<(u8, Bytes)>,
    rtxq: BTreeMap<SeqNum, RtxEntry>,
    rtx_deadline: Option<u64>,
    rtx_backoff: u32,
    /// Loss-recovery frontier: after an RTO, every ack below this point
    /// immediately retransmits the new head (go-back-N pacing at one PDU
    /// per RTT), instead of waiting out an RTO per lost PDU. Essential
    /// after burst loss, e.g. a path failure killing a whole window.
    recover_until: Option<SeqNum>,
    drf_pending: bool,
    failed: bool,

    // --- receiver ---
    rcv_next: SeqNum,
    ooo: BTreeMap<SeqNum, (u8, Bytes)>,
    reasm: Vec<Bytes>,
    /// Unreliable mode: currently discarding fragments of a lost SDU.
    dropping_sdu: bool,
    deliver_q: VecDeque<Bytes>,
    last_nacked: Option<SeqNum>,
    /// Deadline of the owed acknowledgement, if one is owed.
    ack_due: Option<u64>,
    /// When the previous in-order PDU arrived.
    last_in_order: Option<u64>,
    /// In-order PDUs since the connection began or its last gap or
    /// duplicate. The first [`SSTHRESH`] of them are acked at once: the
    /// sender may still be in slow start, where a held ack stalls a
    /// window of two or three PDUs.
    in_order_run: u64,

    outq: VecDeque<Pdu>,
    stats: ConnStats,
}

impl Connection {
    /// Create a connection endpoint with the given addressing and policies.
    pub fn new(id: ConnId, params: ConnParams) -> Self {
        Connection {
            id,
            cong: Cong::new(params.congestion),
            credit_rwe: params.credit_window,
            p: params,
            next_seq: 0,
            snd_una: 0,
            sendq: VecDeque::new(),
            rtxq: BTreeMap::new(),
            rtx_deadline: None,
            rtx_backoff: 0,
            recover_until: None,
            drf_pending: true,
            failed: false,
            rcv_next: 0,
            ooo: BTreeMap::new(),
            reasm: Vec::new(),
            dropping_sdu: false,
            deliver_q: VecDeque::new(),
            last_nacked: None,
            ack_due: None,
            last_in_order: None,
            in_order_run: 0,
            outq: VecDeque::new(),
            stats: ConnStats::default(),
        }
    }

    /// The connection's addressing.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// True once [`MAX_RTX`] retransmissions of one PDU have failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// True when nothing is queued, unacked, pending delivery, or owed
    /// an acknowledgement.
    pub fn is_idle(&self) -> bool {
        self.sendq.is_empty()
            && self.rtxq.is_empty()
            && self.outq.is_empty()
            && self.deliver_q.is_empty()
            && self.ack_due.is_none()
    }

    /// Accept an SDU from the user, fragmenting to the PDU payload limit.
    pub fn send_sdu(&mut self, data: Bytes, now_ns: u64) -> Result<(), SendSduError> {
        if self.failed {
            return Err(SendSduError::ConnectionFailed);
        }
        if self.sendq.len() >= SENDQ_LIMIT {
            return Err(SendSduError::Backpressured);
        }
        self.stats.sdus_sent += 1;
        if data.is_empty() {
            self.sendq.push_back((FLAG_FIRST, data));
        } else {
            let mut off = 0;
            while off < data.len() {
                let end = (off + MAX_PDU_PAYLOAD).min(data.len());
                let mut flags = if end < data.len() { FLAG_MORE } else { 0 };
                if off == 0 {
                    flags |= FLAG_FIRST;
                }
                self.sendq.push_back((flags, data.slice(off..end)));
                off = end;
            }
        }
        self.pump(now_ns);
        Ok(())
    }

    /// Sender window limit: receiver credit AND congestion window.
    fn send_limit(&self) -> SeqNum {
        let cong_limit = self.snd_una.saturating_add(self.cong.window());
        self.credit_rwe.min(cong_limit)
    }

    /// Move fragments from the send queue into PDUs while window allows.
    fn pump(&mut self, now_ns: u64) {
        while self.next_seq < self.send_limit() {
            let Some((mut flags, payload)) = self.sendq.pop_front() else { break };
            if self.drf_pending {
                flags |= FLAG_DRF;
                self.drf_pending = false;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.p.reliable {
                self.rtxq.insert(seq, RtxEntry { flags, payload: payload.clone(), retries: 0 });
                if self.rtx_deadline.is_none() {
                    self.rtx_deadline = Some(now_ns + self.p.rtx_timeout_ns);
                }
            }
            self.stats.pdus_sent += 1;
            self.outq.push_back(Pdu::Data(self.data_pdu(seq, flags, payload)));
        }
    }

    fn data_pdu(&self, seq: SeqNum, flags: u8, payload: Bytes) -> DataPdu {
        DataPdu {
            dest_addr: self.id.remote_addr,
            src_addr: self.id.local_addr,
            qos_id: self.id.qos_id,
            dest_cep: self.id.remote_cep,
            src_cep: self.id.local_cep,
            seq,
            flags,
            ttl: rina_wire::efcp::DEFAULT_TTL,
            payload,
        }
    }

    fn ctrl_pdu(&self, kind: CtrlKind) -> CtrlPdu {
        CtrlPdu {
            dest_addr: self.id.remote_addr,
            src_addr: self.id.local_addr,
            qos_id: self.id.qos_id,
            dest_cep: self.id.remote_cep,
            src_cep: self.id.local_cep,
            ttl: rina_wire::efcp::DEFAULT_TTL,
            kind,
        }
    }

    /// Feed one incoming PDU addressed to this connection.
    pub fn on_pdu(&mut self, pdu: &Pdu, now_ns: u64) {
        match pdu {
            Pdu::Data(d) => self.on_data(d, now_ns),
            Pdu::Ctrl(c) => self.on_ctrl(c.kind, now_ns),
            Pdu::Mgmt(_) => { /* management is handled above EFCP */ }
        }
    }

    fn on_data(&mut self, d: &DataPdu, now_ns: u64) {
        if !self.p.reliable {
            self.on_data_unreliable(d);
            return;
        }
        if d.seq < self.rcv_next {
            // Duplicate: re-ack so the sender advances.
            self.stats.dup_pdus += 1;
            self.in_order_run = 0;
            self.emit_ack();
            return;
        }
        if d.seq > self.rcv_next {
            self.stats.ooo_pdus += 1;
            self.in_order_run = 0;
            self.ooo.insert(d.seq, (d.flags, d.payload.clone()));
            // One nack per gap head to trigger fast retransmit.
            if self.last_nacked != Some(self.rcv_next) {
                self.last_nacked = Some(self.rcv_next);
                self.stats.acks_sent += 1;
                let k = CtrlKind::Nack { seq: self.rcv_next };
                self.outq.push_back(Pdu::Ctrl(self.ctrl_pdu(k)));
            }
            self.emit_ack();
            return;
        }
        // In-order: ack at once unless the stream is dense and past its
        // quick acks, in which case the ack is owed to the next PDU or
        // to `ACK_DELAY` from now, whichever comes first.
        let fills_gap = !self.ooo.is_empty();
        let sparse = self.last_in_order.is_none_or(|t| now_ns.saturating_sub(t) >= ACK_DELAY);
        let ack_now =
            fills_gap || self.ack_due.is_some() || sparse || self.in_order_run < SSTHRESH as u64;
        self.last_in_order = Some(now_ns);
        self.in_order_run = if fills_gap { 0 } else { self.in_order_run + 1 };
        self.accept_in_order(d.flags, d.payload.clone());
        while let Some(e) = self.ooo.first_entry() {
            if *e.key() != self.rcv_next {
                break;
            }
            let (flags, payload) = e.remove();
            self.accept_in_order(flags, payload);
        }
        self.last_nacked = None;
        if ack_now {
            self.emit_ack();
        } else {
            self.ack_due = Some(now_ns + ACK_DELAY);
        }
    }

    /// Accept the in-sequence fragment at `rcv_next`.
    fn accept_in_order(&mut self, flags: u8, payload: Bytes) {
        self.rcv_next += 1;
        self.reasm.push(payload);
        if flags & FLAG_MORE == 0 {
            let sdu = concat(&mut self.reasm);
            self.stats.sdus_delivered += 1;
            self.stats.bytes_delivered += sdu.len() as u64;
            self.deliver_q.push_back(sdu);
        }
    }

    fn on_data_unreliable(&mut self, d: &DataPdu) {
        if d.seq < self.rcv_next {
            // Late/duplicate in unreliable mode: drop.
            self.stats.dup_pdus += 1;
            return;
        }
        let gap = d.seq > self.rcv_next;
        if gap {
            self.stats.ooo_pdus += 1;
        }
        let first = d.flags & FLAG_FIRST != 0;
        if (gap || first) && !self.reasm.is_empty() {
            // A gap (or an unexpected new SDU) killed the one being
            // reassembled.
            self.reasm.clear();
            self.stats.rcv_dropped += 1;
            self.dropping_sdu = true;
        }
        self.rcv_next = d.seq + 1;
        if !first && self.reasm.is_empty() {
            // Orphan continuation fragment: its SDU's head was lost.
            if !self.dropping_sdu {
                self.stats.rcv_dropped += 1;
                self.dropping_sdu = true;
            }
            return;
        }
        if first {
            self.dropping_sdu = false;
        }
        self.reasm.push(d.payload.clone());
        if d.flags & FLAG_MORE == 0 {
            let sdu = concat(&mut self.reasm);
            self.stats.sdus_delivered += 1;
            self.stats.bytes_delivered += sdu.len() as u64;
            self.deliver_q.push_back(sdu);
        }
    }

    /// Acknowledge everything received in order so far and extend the
    /// sender's credit (only reliable flows ack); this pays any owed ack.
    fn emit_ack(&mut self) {
        self.ack_due = None;
        self.stats.acks_sent += 1;
        let k =
            CtrlKind::AckCredit { seq: self.rcv_next, rwe: self.rcv_next + self.p.credit_window };
        self.outq.push_back(Pdu::Ctrl(self.ctrl_pdu(k)));
    }

    fn on_ctrl(&mut self, kind: CtrlKind, now_ns: u64) {
        match kind {
            CtrlKind::AckCredit { seq, rwe } => self.on_ack(seq, rwe, now_ns),
            CtrlKind::Nack { seq } => {
                if let Some(e) = self.rtxq.get_mut(&seq) {
                    e.retries += 1;
                    let (flags, payload) = (e.flags, e.payload.clone());
                    self.stats.retransmissions += 1;
                    self.stats.pdus_sent += 1;
                    self.cong.on_fast_retransmit();
                    self.outq.push_back(Pdu::Data(self.data_pdu(seq, flags, payload)));
                }
            }
        }
    }

    fn on_ack(&mut self, seq: SeqNum, rwe: SeqNum, now_ns: u64) {
        self.credit_rwe = self.credit_rwe.max(rwe);
        if seq > self.snd_una {
            let acked = seq - self.snd_una;
            self.snd_una = seq;
            self.rtxq = self.rtxq.split_off(&seq);
            self.cong.on_ack(acked);
            self.rtx_backoff = 0;
            self.rtx_deadline =
                if self.rtxq.is_empty() { None } else { Some(now_ns + self.p.rtx_timeout_ns) };
            // Go-back-N recovery: while below the loss frontier, each ack
            // pulls the next unacked PDU forward immediately.
            match self.recover_until {
                Some(frontier) if self.snd_una >= frontier || self.rtxq.is_empty() => {
                    self.recover_until = None;
                }
                Some(_) => {
                    if let Some((&head, e)) = self.rtxq.iter_mut().next() {
                        e.retries += 1;
                        let (flags, payload) = (e.flags, e.payload.clone());
                        self.stats.retransmissions += 1;
                        self.stats.pdus_sent += 1;
                        self.outq.push_back(Pdu::Data(self.data_pdu(head, flags, payload)));
                    }
                }
                None => {}
            }
        }
        self.pump(now_ns);
    }

    /// Earliest instant at which [`Connection::on_timeout`] must be called
    /// (the retransmission deadline or the owed ack's), if any timer is
    /// armed.
    pub fn poll_timeout(&self) -> Option<u64> {
        [self.rtx_deadline, self.ack_due].into_iter().flatten().min()
    }

    /// Drive timers. Call at (or after) the instant from
    /// [`Connection::poll_timeout`]; spurious calls are harmless.
    pub fn on_timeout(&mut self, now_ns: u64) {
        if self.ack_due.is_some_and(|d| now_ns >= d) {
            self.emit_ack();
        }
        if let Some(d) = self.rtx_deadline {
            if now_ns >= d {
                self.retransmit_head(now_ns);
            }
        }
    }

    fn retransmit_head(&mut self, now_ns: u64) {
        let Some((&seq, e)) = self.rtxq.iter_mut().next() else {
            self.rtx_deadline = None;
            return;
        };
        if e.retries >= MAX_RTX {
            self.failed = true;
            self.rtx_deadline = None;
            return;
        }
        e.retries += 1;
        let (flags, payload) = (e.flags, e.payload.clone());
        self.stats.timeouts += 1;
        self.stats.retransmissions += 1;
        self.stats.pdus_sent += 1;
        self.cong.on_loss();
        self.recover_until = Some(self.next_seq);
        self.rtx_backoff = (self.rtx_backoff + 1).min(10);
        let rto = (self.p.rtx_timeout_ns << self.rtx_backoff).min(RTX_MAX_TIMEOUT);
        self.rtx_deadline = Some(now_ns + rto);
        self.outq.push_back(Pdu::Data(self.data_pdu(seq, flags, payload)));
    }

    /// Next outgoing PDU, if any. Drain until `None` after every call into
    /// the connection.
    pub fn poll_transmit(&mut self) -> Option<Pdu> {
        self.outq.pop_front()
    }

    /// Next SDU delivered to the user, if any.
    pub fn poll_deliver(&mut self) -> Option<Bytes> {
        self.deliver_q.pop_front()
    }
}

fn concat(parts: &mut Vec<Bytes>) -> Bytes {
    if parts.len() == 1 {
        return parts.swap_remove(0);
    }
    let total = parts.iter().map(|p| p.len()).sum();
    let mut v = Vec::with_capacity(total);
    for p in parts.drain(..) {
        v.extend_from_slice(&p);
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CongestionCtrl;

    fn pair(params: ConnParams) -> (Connection, Connection) {
        let a = Connection::new(
            ConnId { local_addr: 1, remote_addr: 2, local_cep: 10, remote_cep: 20, qos_id: 0 },
            params.clone(),
        );
        let b = Connection::new(
            ConnId { local_addr: 2, remote_addr: 1, local_cep: 20, remote_cep: 10, qos_id: 0 },
            params,
        );
        (a, b)
    }

    /// Move all pending PDUs between the two endpoints, dropping according
    /// to `drop`. Returns true if anything moved.
    fn shuttle(
        a: &mut Connection,
        b: &mut Connection,
        now: u64,
        drop: &mut impl FnMut(&Pdu) -> bool,
    ) -> bool {
        let mut moved = false;
        loop {
            let mut any = false;
            while let Some(p) = a.poll_transmit() {
                any = true;
                if !drop(&p) {
                    b.on_pdu(&p, now);
                }
            }
            while let Some(p) = b.poll_transmit() {
                any = true;
                if !drop(&p) {
                    a.on_pdu(&p, now);
                }
            }
            if !any {
                break;
            }
            moved = true;
        }
        moved
    }

    /// Run the pair with timers until both are idle or `max_ms` elapses.
    fn run(
        a: &mut Connection,
        b: &mut Connection,
        mut drop: impl FnMut(&Pdu) -> bool,
        max_ms: u64,
    ) {
        let mut now = 0u64;
        let end = max_ms * 1_000_000;
        loop {
            shuttle(a, b, now, &mut drop);
            if (a.is_idle() || a.is_failed()) && (b.is_idle() || b.is_failed()) {
                break;
            }
            let next = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min();
            match next {
                Some(t) if t <= end => {
                    now = t.max(now);
                    a.on_timeout(now);
                    b.on_timeout(now);
                }
                _ => break,
            }
        }
    }

    fn drain(b: &mut Connection) -> Vec<Bytes> {
        std::iter::from_fn(|| b.poll_deliver()).collect()
    }

    #[test]
    fn basic_transfer_in_order() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        for i in 0..10u8 {
            a.send_sdu(Bytes::from(vec![i; 100]), 0).unwrap();
        }
        run(&mut a, &mut b, |_| false, 1000);
        let got = drain(&mut b);
        assert_eq!(got.len(), 10);
        for (i, sdu) in got.iter().enumerate() {
            assert_eq!(sdu.as_ref(), &vec![i as u8; 100][..]);
        }
        assert_eq!(a.stats().retransmissions, 0);
    }

    #[test]
    fn fragmentation_and_reassembly() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        let sdu = Bytes::from((0..10_000u32).flat_map(|v| v.to_be_bytes()).collect::<Vec<u8>>());
        a.send_sdu(sdu.clone(), 0).unwrap();
        run(&mut a, &mut b, |_| false, 1000);
        let got = drain(&mut b);
        assert_eq!(got, vec![sdu]);
        assert!(a.stats().pdus_sent >= 29); // 40000 bytes / MAX_PDU_PAYLOAD
    }

    #[test]
    fn loss_recovered_by_retransmission() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        let mut n = 0u32;
        for i in 0..50u8 {
            a.send_sdu(Bytes::from(vec![i; 64]), 0).unwrap();
        }
        // Drop every 5th data PDU on its first transmission.
        let mut seen = std::collections::BTreeSet::new();
        run(
            &mut a,
            &mut b,
            |p| {
                if let Pdu::Data(d) = p {
                    n += 1;
                    if d.seq % 5 == 0 && seen.insert(d.seq) {
                        return true;
                    }
                }
                false
            },
            10_000,
        );
        let got = drain(&mut b);
        assert_eq!(got.len(), 50);
        for (i, sdu) in got.iter().enumerate() {
            assert_eq!(sdu[0], i as u8, "order preserved");
        }
        assert!(a.stats().retransmissions >= 10);
        assert!(!a.is_failed());
    }

    #[test]
    fn nack_triggers_fast_retransmit_without_timeout() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        for i in 0..5u8 {
            a.send_sdu(Bytes::from(vec![i; 10]), 0).unwrap();
        }
        // Drop only seq 0 on first transmission; nack from ooo arrivals
        // should recover it without any timer firing.
        let mut dropped = false;
        let mut now = 0u64;
        loop {
            let moved = shuttle(&mut a, &mut b, now, &mut |p| {
                if let Pdu::Data(d) = p {
                    if d.seq == 0 && !dropped {
                        dropped = true;
                        return true;
                    }
                }
                false
            });
            if !moved {
                break;
            }
            now += 1000;
        }
        assert_eq!(drain(&mut b).len(), 5);
        assert_eq!(a.stats().timeouts, 0, "recovered via nack, not timeout");
        assert_eq!(a.stats().retransmissions, 1);
    }

    #[test]
    fn window_stalls_then_credit_opens() {
        let p = ConnParams {
            credit_window: 4,
            congestion: CongestionCtrl::None,
            ..ConnParams::reliable()
        };
        let (mut a, mut b) = pair(p);
        for i in 0..20u8 {
            a.send_sdu(Bytes::from(vec![i; 8]), 0).unwrap();
        }
        // Without feedback, only the window's worth is emitted.
        let mut first_burst = 0;
        let mut held = Vec::new();
        while let Some(pdu) = a.poll_transmit() {
            first_burst += 1;
            held.push(pdu);
        }
        assert_eq!(first_burst, 4);
        // Deliver them; acks open the window.
        for pdu in &held {
            b.on_pdu(pdu, 0);
        }
        let mut acked = 0;
        while let Some(pdu) = b.poll_transmit() {
            a.on_pdu(&pdu, 0);
            acked += 1;
        }
        assert!(acked >= 1);
        assert!(a.poll_transmit().is_some(), "window reopened");
    }

    #[test]
    fn max_rtx_fails_connection() {
        let (mut a, mut b) =
            pair(ConnParams { rtx_timeout_ns: 1_000_000, ..ConnParams::reliable() });
        a.send_sdu(Bytes::from_static(b"doomed"), 0).unwrap();
        // Black hole: drop everything.
        run(&mut a, &mut b, |_| true, 10_000);
        assert!(a.is_failed());
        assert_eq!(a.stats().retransmissions, u64::from(MAX_RTX));
        assert_eq!(a.send_sdu(Bytes::from_static(b"x"), 0), Err(SendSduError::ConnectionFailed));
    }

    /// The reliable preset's fixed policies, end to end: 1400-byte PDUs,
    /// an RTO that doubles from 200 ms up to its 5 s ceiling and stays
    /// there, and failure on the 13th expiry, after 12 retransmissions.
    #[test]
    fn reliable_preset_fragments_caps_backoff_and_gives_up() {
        let (mut a, _b) = pair(ConnParams::reliable());
        a.send_sdu(Bytes::from(vec![7u8; 1401]), 0).unwrap();
        let sizes: Vec<usize> = std::iter::from_fn(|| a.poll_transmit())
            .map(|p| match p {
                Pdu::Data(d) => d.payload.len(),
                other => panic!("expected data, got {other:?}"),
            })
            .collect();
        assert_eq!(sizes, [1400, 1]);
        // Black hole: every expiry retransmits the head and nothing answers.
        let (mut now, mut gaps_ms) = (0u64, Vec::new());
        while let Some(t) = a.poll_timeout() {
            assert!(!a.is_failed());
            gaps_ms.push((t - now) / 1_000_000);
            now = t;
            a.on_timeout(now);
            while a.poll_transmit().is_some() {}
        }
        assert_eq!(
            gaps_ms,
            [200, 400, 800, 1600, 3200, 5000, 5000, 5000, 5000, 5000, 5000, 5000, 5000]
        );
        assert!(a.is_failed());
        assert_eq!((a.stats().retransmissions, a.stats().timeouts), (12, 12));
    }

    #[test]
    fn duplicate_pdus_discarded() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        a.send_sdu(Bytes::from_static(b"once"), 0).unwrap();
        let pdu = a.poll_transmit().unwrap();
        b.on_pdu(&pdu, 0);
        b.on_pdu(&pdu, 0);
        b.on_pdu(&pdu, 0);
        assert_eq!(drain(&mut b).len(), 1);
        assert_eq!(b.stats().dup_pdus, 2);
    }

    #[test]
    fn unreliable_drops_are_not_recovered() {
        let (mut a, mut b) = pair(ConnParams::unreliable());
        for i in 0..10u8 {
            a.send_sdu(Bytes::from(vec![i; 32]), 0).unwrap();
        }
        let mut k = 0;
        run(
            &mut a,
            &mut b,
            |p| {
                if matches!(p, Pdu::Data(_)) {
                    k += 1;
                    k % 3 == 0
                } else {
                    false
                }
            },
            100,
        );
        let got = drain(&mut b);
        assert!(got.len() < 10 && got.len() >= 5, "got {}", got.len());
        assert_eq!(a.stats().retransmissions, 0);
        // Delivered SDUs are intact even though some were lost.
        for sdu in got {
            assert_eq!(sdu.len(), 32);
        }
    }

    #[test]
    fn unreliable_fragmented_sdu_dropped_on_gap() {
        let (mut a, mut b) = pair(ConnParams::unreliable());
        a.send_sdu(Bytes::from(vec![1u8; 2 * MAX_PDU_PAYLOAD + 100]), 0).unwrap(); // 3 fragments
        a.send_sdu(Bytes::from(vec![2u8; 5]), 0).unwrap(); // 1 PDU

        // Drop the middle fragment (seq 1).
        run(&mut a, &mut b, |p| matches!(p, Pdu::Data(d) if d.seq == 1), 100);
        let got = drain(&mut b);
        assert_eq!(got.len(), 1, "partial SDU dropped, whole one kept");
        assert_eq!(got[0].as_ref(), &[2u8; 5][..]);
        assert_eq!(b.stats().rcv_dropped, 1);
    }

    #[test]
    fn drf_set_on_first_pdu_only() {
        let (mut a, _) = pair(ConnParams::reliable());
        a.send_sdu(Bytes::from_static(b"1"), 0).unwrap();
        a.send_sdu(Bytes::from_static(b"2"), 0).unwrap();
        let p1 = a.poll_transmit().unwrap();
        let p2 = a.poll_transmit().unwrap();
        match (p1, p2) {
            (Pdu::Data(d1), Pdu::Data(d2)) => {
                assert!(d1.flags & FLAG_DRF != 0);
                assert!(d2.flags & FLAG_DRF == 0);
            }
            _ => panic!("expected data"),
        }
    }

    /// What the receiver of a [`stream`] saw and said: each data PDU's
    /// arrival and each control PDU it sent, as (instant, …).
    #[derive(Default)]
    struct AckLog {
        arrivals: Vec<(u64, SeqNum)>,
        acks: Vec<(u64, CtrlKind)>,
    }

    impl AckLog {
        /// How long each PDU waited, from its arrival, for the first
        /// acknowledgement that covers it.
        fn lags(&self) -> Vec<u64> {
            self.arrivals
                .iter()
                .map(|&(at, seq)| {
                    let covered = self.acks.iter().find(|&&(t, k)| {
                        t >= at && matches!(k, CtrlKind::AckCredit { seq: s, .. } if s > seq)
                    });
                    covered.map_or(u64::MAX, |&(t, _)| t - at)
                })
                .collect()
        }
    }

    /// A sender `a` and receiver `b` joined by a channel without delay
    /// that drops the first transmission of each seq in `lose`, with a
    /// log of what `b` saw and said.
    struct Stream {
        a: Connection,
        b: Connection,
        lose: std::collections::BTreeSet<SeqNum>,
        log: AckLog,
    }

    impl Stream {
        /// Carry PDUs both ways at `now` until neither end has any.
        fn exchange(&mut self, now: u64) {
            loop {
                let mut moved = false;
                while let Some(p) = self.a.poll_transmit() {
                    moved = true;
                    if let Pdu::Data(d) = &p {
                        if self.lose.remove(&d.seq) {
                            continue;
                        }
                        self.log.arrivals.push((now, d.seq));
                    }
                    self.b.on_pdu(&p, now);
                }
                while let Some(p) = self.b.poll_transmit() {
                    moved = true;
                    if let Pdu::Ctrl(c) = &p {
                        self.log.acks.push((now, c.kind));
                    }
                    self.a.on_pdu(&p, now);
                }
                if !moved {
                    break;
                }
            }
        }

        fn next_timeout(&self) -> Option<u64> {
            [self.a.poll_timeout(), self.b.poll_timeout()].into_iter().flatten().min()
        }

        /// Fire every timer due by `end`, each at its deadline.
        fn fire_until(&mut self, end: u64) {
            while let Some(t) = self.next_timeout().filter(|&t| t <= end) {
                self.a.on_timeout(t);
                self.b.on_timeout(t);
                self.exchange(t);
                assert!(self.next_timeout().is_none_or(|next| next > t), "a timer stuck at {t}");
            }
        }
    }

    /// Stream `n` one-PDU SDUs, the i-th sent at `i * spacing` ns, over
    /// a [`Stream`] that loses the first transmission of each seq in
    /// `lose`; `check` sees the receiver after each SDU.
    fn stream(
        n: u64,
        spacing: u64,
        lose: std::collections::BTreeSet<SeqNum>,
        mut check: impl FnMut(&Connection),
    ) -> AckLog {
        let (a, b) = pair(ConnParams::reliable());
        let mut s = Stream { a, b, lose, log: AckLog::default() };
        for i in 0..n {
            let now = i * spacing;
            s.fire_until(now);
            s.a.send_sdu(Bytes::from_static(b"x"), now).unwrap();
            s.exchange(now);
            check(&s.b);
        }
        s.fire_until(u64::MAX);
        assert_eq!(drain(&mut s.b).len() as u64, n);
        assert!(s.a.is_idle() && s.b.is_idle());
        s.log
    }

    fn ack_through(seq: SeqNum) -> CtrlKind {
        CtrlKind::AckCredit { seq, rwe: seq + ConnParams::reliable().credit_window }
    }

    /// A dense stream (PDUs under `ACK_DELAY` apart) gets an ack per PDU
    /// for its first `SSTHRESH` PDUs, then one per two; the odd last PDU
    /// is acked by the timer, `ACK_DELAY` after it arrived. No PDU waits
    /// longer than that for its ack.
    #[test]
    fn a_dense_stream_is_acked_every_second_pdu_after_its_quick_acks() {
        let (quick, spacing) = (SSTHRESH as u64, 400_000);
        let n = quick + 11;
        let log = stream(n, spacing, Default::default(), |_| {});
        let at = |i: u64| i * spacing;
        let mut want: Vec<_> = (0..quick).map(|i| (at(i), ack_through(i + 1))).collect();
        want.extend((quick + 1..n).step_by(2).map(|i| (at(i), ack_through(i + 1))));
        want.push((at(n - 1) + ACK_DELAY, ack_through(n)));
        assert_eq!(log.acks, want);
        assert!(log.lags().iter().all(|&lag| lag <= ACK_DELAY), "{:?}", log.lags());
    }

    /// PDUs `ACK_DELAY` or more apart are each acked on arrival, however
    /// long the stream, and the receiver never arms a timer.
    #[test]
    fn a_sparse_stream_is_acked_at_once_and_arms_no_timer() {
        let n = 2 * SSTHRESH as u64;
        for spacing in [ACK_DELAY, 3 * ACK_DELAY] {
            let log = stream(n, spacing, Default::default(), |b| {
                assert_eq!(b.poll_timeout(), None);
            });
            let want: Vec<_> = (0..n).map(|i| (i * spacing, ack_through(i + 1))).collect();
            assert_eq!(log.acks, want, "spacing {spacing}");
        }
    }

    /// A gap restarts the quick acks: the out-of-order PDU is nacked and
    /// acked at once, so is the retransmission that fills the gap, and so
    /// are the `SSTHRESH` in-order PDUs after it; only then is the stream
    /// acked every second PDU again.
    #[test]
    fn a_gap_restarts_the_quick_acks() {
        let (quick, spacing, lost) = (SSTHRESH as u64, 400_000, SSTHRESH as u64 + 16);
        let log = stream(lost + quick + 5, spacing, [lost].into(), |_| {});
        let at = |i: u64| i * spacing;
        let after_gap: Vec<_> = log.acks.iter().filter(|&&(t, _)| t >= at(lost)).collect();
        let mut want = vec![
            (at(lost + 1), CtrlKind::Nack { seq: lost }),
            (at(lost + 1), ack_through(lost)),
            (at(lost + 1), ack_through(lost + 2)),
        ];
        want.extend((lost + 2..lost + 2 + quick).map(|i| (at(i), ack_through(i + 1))));
        want.push((at(lost + quick + 3), ack_through(lost + quick + 4)));
        want.push((at(lost + quick + 4) + ACK_DELAY, ack_through(lost + quick + 5)));
        assert_eq!(after_gap.into_iter().copied().collect::<Vec<_>>(), want);
        assert!(log.lags().iter().all(|&lag| lag <= ACK_DELAY), "{:?}", log.lags());
    }

    /// An owed acknowledgement keeps the connection busy until it is paid.
    #[test]
    fn an_owed_ack_keeps_the_receiver_busy() {
        let (mut a, mut b) = pair(ConnParams::reliable());
        let spacing = ACK_DELAY / 4;
        for i in 0..=SSTHRESH as u64 {
            a.send_sdu(Bytes::from_static(b"x"), i * spacing).unwrap();
            shuttle(&mut a, &mut b, i * spacing, &mut |_| false);
        }
        drain(&mut b);
        let due = SSTHRESH as u64 * spacing + ACK_DELAY;
        assert_eq!(b.poll_timeout(), Some(due));
        assert!(!b.is_idle(), "an ack is owed");
        b.on_timeout(due);
        assert!(matches!(b.poll_transmit(), Some(Pdu::Ctrl(_))));
        assert!(b.is_idle() && b.poll_timeout().is_none());
    }

    #[test]
    fn backpressure_at_sendq_limit() {
        let p = ConnParams {
            credit_window: 1,
            congestion: CongestionCtrl::None,
            ..ConnParams::reliable()
        };
        let (mut a, _) = pair(p);
        let mut hit = false;
        for _ in 0..(SENDQ_LIMIT + 10) {
            if a.send_sdu(Bytes::from_static(b"q"), 0) == Err(SendSduError::Backpressured) {
                hit = true;
                break;
            }
        }
        assert!(hit);
    }
}
