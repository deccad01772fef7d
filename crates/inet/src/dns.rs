//! A DNS-like name service.
//!
//! The baseline's name resolution "looks up a name … and returns the
//! result to the requester" (§5.3) — the application receives an *address*
//! and then dials it itself. Contrast with the DIF directory, where the
//! request continues to the destination and the requester never sees an
//! address.

use crate::addr::IpAddr;
use crate::app::{InetApi, InetApp};
use crate::pkt::Port;
use bytes::Bytes;
use std::collections::BTreeMap;

/// Well-known DNS port.
pub const DNS_PORT: Port = 53;

/// A static-table DNS server application. Bind it on a well-known address
/// and port; clients query with the name as payload and receive
/// `[ip u32]` or an empty payload for NXDOMAIN.
pub struct DnsServerApp {
    /// name → address table.
    pub table: BTreeMap<String, IpAddr>,
    /// Queries served.
    pub queries: u64,
}

impl DnsServerApp {
    /// A server preloaded with records.
    pub fn new(records: impl IntoIterator<Item = (String, IpAddr)>) -> Self {
        DnsServerApp { table: records.into_iter().collect(), queries: 0 }
    }
}

impl InetApp for DnsServerApp {
    fn on_start(&mut self, api: &mut InetApi<'_, '_, '_>) {
        api.bind_dgram(DNS_PORT);
    }

    fn on_dgram(
        &mut self,
        from: (IpAddr, Port),
        _to: Port,
        data: Bytes,
        api: &mut InetApi<'_, '_, '_>,
    ) {
        self.queries += 1;
        let name = String::from_utf8_lossy(&data).to_string();
        let reply = match self.table.get(&name) {
            Some(ip) => Bytes::copy_from_slice(&ip.0.to_be_bytes()),
            None => Bytes::new(),
        };
        api.send_dgram(from.0, from.1, DNS_PORT, reply);
    }
}

/// Parse a DNS reply payload.
pub fn parse_reply(data: &[u8]) -> Option<IpAddr> {
    if data.len() == 4 {
        Some(IpAddr(u32::from_be_bytes(data.try_into().ok()?)))
    } else {
        None
    }
}

/// Build a DNS query payload.
pub fn query(name: &str) -> Bytes {
    Bytes::copy_from_slice(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing() {
        assert_eq!(parse_reply(&[10, 0, 0, 7]), Some(IpAddr::new(10, 0, 0, 7)));
        assert_eq!(parse_reply(&[]), None);
        assert_eq!(parse_reply(&[1, 2, 3]), None);
    }

    #[test]
    fn query_payload() {
        assert_eq!(query("web").as_ref(), b"web");
    }
}
