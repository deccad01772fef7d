//! One definition of a healthy DIF.
//!
//! Tests, the churn experiment and the sweep ask the same question of a
//! member set at one instant, and this module is the one answer. A DIF
//! is healthy when:
//!
//! - the stack has assembled, every member is enrolled and has not
//!   announced a leave, and every member's RIB records every member;
//! - every (N-1) port of every member is live: up, with the peer it
//!   learned — no port outlives its adjacency;
//! - member addresses are unique, each member sits at the base of the
//!   block delegated to it, and the blocks form one tree: any two are
//!   nested or disjoint, and the first and widest holds them all;
//! - no member holds a live RIB object whose origin is not a current
//!   member: departed state never outlives its owner;
//! - following first next hops through the members' forwarding tables
//!   leads from every member to every other, so no table has a hole or a
//!   loop on a path between members.
//!
//! [`check`] lists every way a DIF falls short of that, and [`settle`]
//! runs the network until nothing is left. [`Tables`] is the table walk
//! both use; its [`Tables::ring`] is also the churn experiment's sampled
//! reachability.

use crate::ipcp::Ipcp;
use crate::naming::{Addr, AppName};
use crate::net::{IpcpH, Net};
use rina_sim::Dur;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// One way a DIF falls short of healthy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Some machine's stack has not assembled: a planned adjacency is
    /// down or a member of some DIF is not enrolled.
    Unassembled,
    /// This member is not enrolled, or has announced a leave.
    NotLive(AppName),
    /// This member's (N-1) port `n1` is down, or up without a peer.
    DeadPort {
        /// The member holding the port.
        member: AppName,
        /// The port's index.
        n1: usize,
    },
    /// The member at `holder` records `records` members, not one per
    /// live member.
    Membership {
        /// Address of the member whose RIB is short or long.
        holder: Addr,
        /// How many `/members/` records it holds.
        records: usize,
    },
    /// Two live members hold this address.
    DuplicateAddress(Addr),
    /// This member's address is not the base of its block.
    OffBlock(AppName),
    /// These two blocks partially overlap.
    Overlap((Addr, Addr), (Addr, Addr)),
    /// This block lies outside the first and widest one.
    OutsideRoot((Addr, Addr)),
    /// The member at `holder` keeps a live RIB object `name` whose
    /// `origin` is not a current member.
    Stale {
        /// Address of the member holding the object.
        holder: Addr,
        /// The departed origin.
        origin: Addr,
        /// The object's name.
        name: String,
    },
    /// The walk from `src` toward `dst` stopped at `at`: no route there,
    /// or the hop budget ran out on a loop.
    Unreachable {
        /// Where the walk started.
        src: Addr,
        /// Where it was going.
        dst: Addr,
        /// Where it stopped.
        at: Addr,
    },
}

/// Every way the DIF of `members` falls short of healthy, at this
/// instant (empty when it is healthy).
pub fn check(net: &Net, members: &[IpcpH]) -> Vec<Violation> {
    let mut out = Vec::new();
    if !net.assembled() {
        out.push(Violation::Unassembled);
    }
    let (live, gone): (Vec<&Ipcp>, Vec<&Ipcp>) =
        members.iter().map(|&h| net.ipcp(h)).partition(|ip| is_live(ip));
    out.extend(gone.iter().map(|ip| Violation::NotLive(ip.name.clone())));
    for ip in members.iter().map(|&h| net.ipcp(h)) {
        let dead = ip.n1_ports().iter().enumerate().filter(|(_, p)| !p.live());
        out.extend(dead.map(|(n1, _)| Violation::DeadPort { member: ip.name.clone(), n1 }));
    }
    membership(&live, &mut out);
    out.extend(stale_objects(net, members));
    out.extend(Tables::of(net, members).unreachable());
    out
}

/// Run `net` in half-second steps, at most `max_steps` of them, until
/// [`check`] finds nothing wrong with `members`, and stop at the first
/// step where it does. Returns what is still wrong: empty when the DIF
/// became healthy. Steps where the stack has not assembled skip the
/// check.
pub fn settle(net: &mut Net, members: &[IpcpH], max_steps: usize) -> Vec<Violation> {
    for _ in 0..max_steps {
        net.run_for(Dur::from_millis(500));
        if net.assembled() && check(net, members).is_empty() {
            return Vec::new();
        }
    }
    check(net, members)
}

/// Live RIB objects anywhere among `members` whose origin is not a
/// current member's address.
pub fn stale_objects(net: &Net, members: &[IpcpH]) -> Vec<Violation> {
    let addrs: BTreeSet<Addr> = members.iter().map(|&h| net.ipcp(h).addr).collect();
    let mut out = Vec::new();
    for &h in members {
        let ip = net.ipcp(h);
        for o in ip.rib.iter_prefix("/").filter(|o| o.origin != 0 && !addrs.contains(&o.origin)) {
            out.push(Violation::Stale { holder: ip.addr, origin: o.origin, name: o.name.into() });
        }
    }
    out
}

fn is_live(ip: &Ipcp) -> bool {
    ip.is_enrolled() && !ip.is_departed()
}

/// The membership, address and block checks over the `live` members.
fn membership(live: &[&Ipcp], out: &mut Vec<Violation>) {
    let mut seen = BTreeSet::new();
    for ip in live {
        let records = ip.rib.iter_prefix("/members/").count();
        if records != live.len() {
            out.push(Violation::Membership { holder: ip.addr, records });
        }
        if !seen.insert(ip.addr) {
            out.push(Violation::DuplicateAddress(ip.addr));
        }
        if ip.block.0 != ip.addr || ip.block.1 < ip.addr {
            out.push(Violation::OffBlock(ip.name.clone()));
        }
    }
    // By base, the wider first: each block must lie inside the innermost
    // block still open at its base, and only the first opens at none.
    let mut blocks: Vec<(Addr, Addr)> = live.iter().map(|ip| ip.block).collect();
    blocks.sort_by_key(|&(lo, hi)| (lo, Reverse(hi)));
    let mut open: Vec<(Addr, Addr)> = Vec::new();
    for (i, b) in blocks.into_iter().enumerate() {
        while open.last().is_some_and(|o| o.1 < b.0) {
            open.pop();
        }
        match open.last() {
            None if i > 0 => out.push(Violation::OutsideRoot(b)),
            Some(&o) if o.1 < b.1 => out.push(Violation::Overlap(o, b)),
            _ => {}
        }
        open.push(b);
    }
}

/// The members' forwarding tables, for walking hop by hop.
pub struct Tables<'n> {
    net: &'n Net,
    /// Every member by address: a walk may pass through any of them.
    by_addr: BTreeMap<Addr, IpcpH>,
    /// The live members' addresses in member order: what walks start
    /// from and go to.
    live: Vec<Addr>,
}

impl<'n> Tables<'n> {
    /// The tables of `members` in `net` as they are now.
    pub fn of(net: &'n Net, members: &[IpcpH]) -> Self {
        let by_addr = members.iter().map(|&h| (net.ipcp(h).addr, h)).collect();
        let live = members.iter().map(|&h| net.ipcp(h)).filter(|ip| is_live(ip));
        Tables { net, by_addr, live: live.map(|ip| ip.addr).collect() }
    }

    /// Follow first next hops from `src` toward `dst`, at most two more
    /// hops than there are live members. `Err` names the address where
    /// the walk stopped.
    fn walk(&self, src: Addr, dst: Addr) -> Result<(), Addr> {
        let mut cur = src;
        for _ in 0..self.live.len() + 2 {
            if cur == dst {
                return Ok(());
            }
            let hops = self.by_addr.get(&cur).and_then(|&h| self.net.ipcp(h).fwd().route(dst));
            match hops.and_then(|h| h.first()) {
                Some(&next) => cur = next,
                None => return Err(cur),
            }
        }
        if cur == dst {
            Ok(())
        } else {
            Err(cur)
        }
    }

    /// Sampled reachability: the live members in a ring, each probing
    /// the one `1 + salt % (n - 1)` places on, so every member sources
    /// and receives one probe. The share of probes that arrive (1 with
    /// fewer than two live members).
    pub fn ring(&self, salt: u64) -> f64 {
        let n = self.live.len();
        if n < 2 {
            return 1.0;
        }
        let k = 1 + (salt as usize % (n - 1));
        let dsts = self.live.iter().cycle().skip(k);
        let ok = self.live.iter().zip(dsts).filter(|&(&s, &d)| self.walk(s, d).is_ok()).count();
        ok as f64 / n as f64
    }

    /// Every ordered pair of live members the tables do not connect.
    fn unreachable(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for &src in &self.live {
            for &dst in self.live.iter().filter(|&&d| d != src) {
                if let Err(at) = self.walk(src, dst) {
                    out.push(Violation::Unreachable { src, dst, at });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::scenario::Topology;
    use bytes::Bytes;
    use rina_rib::RibObject;
    use Violation::*;

    /// A four-member line, built and settled healthy.
    fn line() -> (Net, Vec<IpcpH>) {
        let mut b = NetBuilder::new(5);
        let fab = Topology::line(4).materialize(&mut b);
        let members = fab.member_ipcps(&b);
        let mut net = b.build();
        assert!(check(&net, &members).contains(&Unassembled), "nothing has run yet");
        let left = settle(&mut net, &members, 20);
        assert!(left.is_empty(), "{left:?}");
        (net, members)
    }

    /// What `check` says of a settled line once `brk` has been done to
    /// its second member (address 2, block `(2, 4)`), and that member's
    /// name.
    fn after(brk: impl FnOnce(&mut Net, IpcpH)) -> (Vec<Violation>, AppName) {
        let (mut net, m) = line();
        brk(&mut net, m[1]);
        (check(&net, &m), net.ipcp(m[1]).name.clone())
    }

    /// Each break is reported as itself.
    #[test]
    fn every_break_is_named() {
        let set = |f: fn(&mut Ipcp)| move |net: &mut Net, h| f(net.ipcp_mut(h));
        let (found, _) = after(set(|ip| ip.addr = 1));
        assert!(found.contains(&DuplicateAddress(1)), "{found:?}");
        let (found, name) = after(set(|ip| ip.block = (3, 4)));
        assert!(found.contains(&OffBlock(name)), "{found:?}");
        let (found, _) = after(set(|ip| ip.block = (2, 9)));
        assert!(found.contains(&Overlap((1, 4), (2, 9))), "{found:?}");
        let (found, _) = after(set(|ip| ip.block = (7, 9)));
        assert!(found.contains(&OutsideRoot((7, 9))), "{found:?}");
        let (found, _) = after(set(|ip| {
            let (name, class) = ("/dir/ghost".to_string(), "dir".to_string());
            let value = Bytes::new();
            let ghost = RibObject { name, class, value, version: 1, origin: 99, deleted: false };
            assert!(ip.rib.apply_remote_silent(ghost));
        }));
        let ghost = Stale { holder: 2, origin: 99, name: "/dir/ghost".into() };
        assert!(found.contains(&ghost), "{found:?}");
        let (found, _) =
            after(set(|ip| ip.rib.write_local("/members/ghost", "member", Bytes::new())));
        assert!(found.contains(&Membership { holder: 2, records: 5 }), "{found:?}");
        let (found, name) = after(|net, h| {
            let now = net.sim.now();
            net.ipcp_mut(h).announce_leave(now);
        });
        assert!(found.contains(&NotLive(name)), "{found:?}");
        // Cut the wire between addresses 2 and 3 and let the hellos expire:
        // both ends' ports over it go down.
        let (found, name) = after(|net, _| {
            net.set_link_up(crate::net::LinkH(1), false);
            net.run_for(Dur::from_secs(2));
        });
        assert!(found.contains(&Unreachable { src: 2, dst: 3, at: 2 }), "{found:?}");
        assert!(found.contains(&DeadPort { member: name, n1: 1 }), "{found:?}");
        // A port that is up but never learned its peer.
        let (found, name) = after(set(|ip| {
            ip.add_n1(crate::ipcp::N1Kind::Lower { port: 999 });
        }));
        assert_eq!(found, [DeadPort { member: name, n1: 2 }]);
    }
}
