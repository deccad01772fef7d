//! The two TCP-ish applications the current-Internet baselines of E4
//! (failover) and E5 (Mobile IP) share: a paced source that re-dials
//! when its connection breaks, and the echoing server that counts what
//! arrives.

use bytes::Bytes;
use inet::{InetApi, InetApp, IpAddr, SockId};
use rina_sim::Dur;

/// Streams `count` 200-byte messages to port 80 of `dst`, one every
/// 2 ms, counting echoes; a failed connection is re-dialed and resumes
/// from the last acknowledged message.
pub(crate) struct RedialSource {
    dst: IpAddr,
    count: u64,
    dial_after: Dur,
    sent: u64,
    /// Messages echoed back.
    pub acked: u64,
    /// Connections that broke and had to be re-dialed.
    pub failures: u64,
    sock: Option<SockId>,
}

impl RedialSource {
    /// A source that first dials `dial_after` into the run.
    pub fn new(dst: IpAddr, count: u64, dial_after: Dur) -> Self {
        RedialSource { dst, count, dial_after, sent: 0, acked: 0, failures: 0, sock: None }
    }
}

const K_DIAL: u64 = 1;
const K_SEND: u64 = 2;
impl InetApp for RedialSource {
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        api.timer_in(self.dial_after, K_DIAL);
    }
    fn on_timer(&mut self, key: u64, api: &mut InetApi<'_, '_, '_>) {
        match key {
            K_DIAL if self.sock.is_none() => {
                self.sock = api.connect(self.dst, 80);
                if self.sock.is_none() {
                    api.timer_in(Dur::from_millis(100), K_DIAL);
                }
            }
            K_SEND => {
                let Some(sock) = self.sock else { return };
                if self.sent >= self.count {
                    return;
                }
                match api.send(sock, Bytes::from(vec![0u8; 200])) {
                    Ok(()) => {
                        self.sent += 1;
                        api.timer_in(Dur::from_millis(2), K_SEND);
                    }
                    Err(_) => api.timer_in(Dur::from_millis(10), K_SEND),
                }
            }
            _ => {}
        }
    }
    fn on_connected(&mut self, _s: SockId, _p: (IpAddr, u16), api: &mut InetApi<'_, '_, '_>) {
        api.timer_in(Dur::ZERO, K_SEND);
    }
    fn on_data(&mut self, _s: SockId, _d: Bytes, _api: &mut InetApi<'_, '_, '_>) {
        self.acked += 1;
    }
    fn on_conn_failed(&mut self, _s: SockId, api: &mut InetApi<'_, '_, '_>) {
        self.failures += 1;
        self.sock = None;
        self.sent = self.acked;
        api.timer_in(Dur::from_millis(50), K_DIAL);
    }
}

/// Echo-ish server counting arrivals.
#[derive(Default)]
pub(crate) struct CountServer {
    /// Messages received (and echoed).
    pub received: u64,
}
impl InetApp for CountServer {
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        api.listen(80);
    }
    fn on_data(&mut self, sock: SockId, data: Bytes, api: &mut InetApi<'_, '_, '_>) {
        self.received += 1;
        let _ = api.send(sock, data);
    }
}
