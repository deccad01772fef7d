//! One definition of a healthy DIF.
//!
//! Tests, the churn experiment and the sweep ask the same question of a
//! member set at one instant, and this module is the one answer. A DIF
//! is healthy when:
//!
//! - the stack has assembled, every member is enrolled and has not
//!   announced a leave, and every member's RIB holds exactly one
//!   `/members/` record per member, naming its address and block;
//! - every (N-1) port of every member is live: up, with the peer it
//!   learned — no port outlives its adjacency;
//! - member addresses are unique, and the blocks `[addr, hi]` delegated
//!   to them form one tree: any two are nested or disjoint, and the first
//!   and widest holds them all;
//! - every live member's replicated RIB holds what the first live
//!   member's holds: their per-subtree digest tables are equal (owner-held
//!   `/dir` is outside the table), so anti-entropy has nothing left to
//!   repair;
//! - no member holds a live RIB object whose origin is not a current
//!   member: departed state never outlives its owner;
//! - the edges both ends count as tree ports — each member's up port and
//!   its children's ports, the one set every DIF-spanning message leaves
//!   by — connect every live member and form no cycle, so they number
//!   one fewer than the live members;
//! - following first next hops through the members' forwarding tables
//!   leads from every member to every other, so no table has a hole or a
//!   loop on a path between members.
//!
//! [`check`] lists every way a DIF falls short of that, and [`settle`]
//! runs the network until nothing is left, so a DIF that is already
//! healthy costs it no virtual time. [`Tables`] is the table walk
//! both use; its [`Tables::ring`] is also the churn experiment's sampled
//! reachability.
//!
//! One more clause is measured but not yet part of [`check`]: every
//! flow has two ends. [`half_open`] lists each EFCP endpoint of a live
//! member that is still requesting past its allocation deadline, or is
//! active and names an endpoint that does not name it back. A handshake
//! in flight is neither: the requester is younger than its deadline,
//! and the responder names it. A teardown lost on a lossy path, or a
//! peer that restarted, still leaves some behind, so [`settle`] would
//! not converge on them.

use crate::ipcp::{decode_member, member_name, FarEnd, Ipcp, MEMBER_PREFIX};
use crate::naming::{Addr, AppName};
use crate::net::{IpcpH, Net};
use rina_sim::{Dur, Time};
use rina_wire::CepId;
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
    /// The member at `holder` is wrong about the member record `record`:
    /// it holds a record no live member has, lacks a live member's, or
    /// holds one that is not that member's `(addr, hi)`.
    Membership {
        /// Address of the member whose RIB is wrong.
        holder: Addr,
        /// The record's name.
        record: String,
    },
    /// The member at `holder` disagrees with the first live member about
    /// the replicated `subtree`: their digest tables differ there.
    Diverged {
        /// Address of the member whose table differs.
        holder: Addr,
        /// The subtree whose `(count, digest)` differs.
        subtree: String,
    },
    /// Two live members hold this address.
    DuplicateAddress(Addr),
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
    /// The edges both ends count as tree ports do not span the live
    /// members as one tree: a search from `from` over them misses
    /// `missed`, or they number `edges`, not one fewer than the live
    /// members (a cycle).
    Unspanned {
        /// Where the search started: the first live member.
        from: Addr,
        /// The live members it did not reach.
        missed: Vec<Addr>,
        /// The edges both ends count.
        edges: usize,
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
    diverged(&live, &mut out);
    unspanned(&live, &mut out);
    out.extend(stale_objects(net, members));
    out.extend(Tables::of(net, members).unreachable());
    out
}

/// Run `net` in half-second steps, at most `max_steps` of them, until
/// [`check`] finds nothing wrong with `members`. It checks before each
/// step, so a DIF that is already healthy runs no virtual time. Returns
/// what is still wrong: empty when the DIF is healthy. While the stack
/// has not assembled the check is skipped.
pub fn settle(net: &mut Net, members: &[IpcpH], max_steps: usize) -> Vec<Violation> {
    for _ in 0..max_steps {
        if net.assembled() && check(net, members).is_empty() {
            return Vec::new();
        }
        net.run_for(Dur::from_millis(500));
    }
    check(net, members)
}

/// An EFCP endpoint with no partner: it is still requesting past its
/// allocation deadline, or the endpoint it names is gone, names another
/// or is such a requester.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HalfOpen {
    /// Address of the member holding the endpoint.
    pub holder: Addr,
    /// The endpoint's CEP id there.
    pub cep: CepId,
}

/// Every EFCP endpoint of a live member among `members` that has no
/// partner now: each active one must name a live endpoint that names it
/// back or is still in flight, and none is requesting past its
/// allocation deadline.
pub fn half_open(net: &Net, members: &[IpcpH]) -> Vec<HalfOpen> {
    half_open_at(net, members, net.sim.now())
}

/// [`half_open`] as of `now`.
fn half_open_at(net: &Net, members: &[IpcpH], now: Time) -> Vec<HalfOpen> {
    let live = members.iter().map(|&h| net.ipcp(h)).filter(|ip| is_live(ip));
    let ends: BTreeMap<(Addr, CepId), FarEnd> =
        live.flat_map(|ip| ip.efcp_ends().map(move |(cep, far)| ((ip.addr, cep), far))).collect();
    let in_flight = |end: Option<&FarEnd>| matches!(end, Some(&FarEnd::Asked(at)) if now < at);
    let paired = |me, end: &FarEnd| match *end {
        FarEnd::Asked(at) => now < at,
        FarEnd::Named(far) => {
            let far = ends.get(&far);
            far == Some(&FarEnd::Named(me)) || in_flight(far)
        }
    };
    let unpaired = ends.iter().filter(|&(&me, end)| !paired(me, end));
    unpaired.map(|(&(holder, cep), _)| HalfOpen { holder, cep }).collect()
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
    let truth: BTreeMap<String, Option<(Addr, Addr)>> =
        live.iter().map(|ip| (member_name(&ip.name), Some(ip.block()))).collect();
    let mut seen = BTreeSet::new();
    for ip in live {
        let held: BTreeMap<&str, Option<(Addr, Addr)>> =
            ip.rib.iter_prefix(MEMBER_PREFIX).map(|o| (o.name, decode_member(o.value))).collect();
        let wrong = held.iter().filter(|&(n, v)| truth.get(*n) != Some(v)).map(|(n, _)| *n);
        let missing = truth.keys().map(String::as_str).filter(|n| !held.contains_key(n));
        let records = wrong.chain(missing).map(|n| n.to_string());
        out.extend(records.map(|record| Violation::Membership { holder: ip.addr, record }));
        if !seen.insert(ip.addr) {
            out.push(Violation::DuplicateAddress(ip.addr));
        }
    }
    // By base, the wider first: each block must lie inside the innermost
    // block still open at its base, and only the first opens at none.
    let mut blocks: Vec<(Addr, Addr)> = live.iter().map(|ip| ip.block()).collect();
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

/// Every subtree where a `live` member's digest table differs from the
/// first live member's.
fn diverged(live: &[&Ipcp], out: &mut Vec<Violation>) {
    let Some((first, rest)) = live.split_first() else { return };
    let reference = first.rib.digest_table();
    for ip in rest {
        let subtrees = ip.rib.mismatched(&reference).into_iter();
        out.extend(subtrees.map(|subtree| Violation::Diverged { holder: ip.addr, subtree }));
    }
}

/// The tree clause over the `live` members: one search over the edges
/// both ends count, from the first.
fn unspanned(live: &[&Ipcp], out: &mut Vec<Violation>) {
    let Some(first) = live.first() else { return };
    let counts: BTreeMap<Addr, BTreeSet<Addr>> = live
        .iter()
        .map(|ip| {
            let ports = ip.tree_ports().filter_map(|i| ip.n1_ports().get(i));
            (ip.addr, ports.map(|p| p.peer_addr).collect())
        })
        .collect();
    let both = |a: Addr, b: Addr| counts.get(&b).is_some_and(|s| s.contains(&a));
    let edges = counts.iter().map(|(&a, s)| s.iter().filter(|&&b| a < b && both(a, b)).count());
    let edges: usize = edges.sum();
    let mut seen = BTreeSet::from([first.addr]);
    let mut next = vec![first.addr];
    while let Some(a) = next.pop() {
        for &b in counts.get(&a).into_iter().flatten() {
            if both(a, b) && seen.insert(b) {
                next.push(b);
            }
        }
    }
    let missed: Vec<Addr> = counts.keys().filter(|a| !seen.contains(a)).copied().collect();
    if !missed.is_empty() || edges + 1 != counts.len() {
        out.push(Violation::Unspanned { from: first.addr, missed, edges });
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
    use crate::ipcp::encode_member;
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
    /// its second member (address 2, block `[2, 4]`), and that member's
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
        let (found, _) = after(set(|ip| ip.hi = 9));
        assert!(found.contains(&Overlap((1, 4), (2, 9))), "{found:?}");
        let (found, _) = after(set(|ip| (ip.addr, ip.hi) = (7, 9)));
        assert!(found.contains(&OutsideRoot((7, 9))), "{found:?}");
        let (found, _) = after(set(|ip| {
            let (name, class) = ("/dir/ghost".to_string(), "dir".to_string());
            let value = Bytes::new();
            let ghost = RibObject { name, class, value, version: 1, origin: 99, deleted: false };
            assert!(ip.rib.apply_remote_silent(ghost));
        }));
        let ghost = Stale { holder: 2, origin: 99, name: "/dir/ghost".into() };
        assert!(found.contains(&ghost), "{found:?}");
        let wrong = |record: &str| Membership { holder: 2, record: record.into() };
        let diverged = |subtree: &str| Diverged { holder: 2, subtree: subtree.into() };
        let (found, _) =
            after(set(|ip| ip.rib.write_local("/members/ghost", "member", Bytes::new())));
        assert_eq!(found, [wrong("/members/ghost"), diverged("/members")]);
        // A ghost in place of a real record: the count still matches.
        let mut replaced = String::new();
        let (found, _) = after(|net, h| {
            let ip = net.ipcp_mut(h);
            let own = member_name(&ip.name);
            let other = ip.rib.iter_prefix(MEMBER_PREFIX).map(|o| o.name.to_string());
            replaced = other.filter(|n| *n != own).last().expect("another member's record");
            ip.rib.delete_local(&replaced);
            ip.rib.write_local("/members/ghost", "member", encode_member(9, 9));
        });
        assert_eq!(found, [wrong("/members/ghost"), wrong(&replaced), diverged("/members")]);
        // A record with the wrong top of block.
        let (found, name) = after(set(|ip| {
            let rec = member_name(&ip.name);
            ip.rib.write_local(&rec, "member", encode_member(2, 3));
        }));
        assert_eq!(found, [wrong(&member_name(&name)), diverged("/members")]);
        // An object only this member holds, written by a live member: its
        // RIB is right about every member and wrong about the DIF.
        let (found, _) = after(set(|ip| ip.rib.write_local("/dir/lonely", "dir", Bytes::new())));
        assert_eq!(found, [diverged("/dir")]);
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
        // The member forgets its child: a hello from address 3 naming no
        // up peer clears the bit, and the tree falls in two.
        let (found, _) = after(|net, h| {
            use crate::msg::MgmtBody;
            use rina_wire::{MgmtPdu, Pdu};
            let ip = net.ipcp(h);
            let name = ip.n1_ports()[1].peer_name.clone().expect("the peer at 3 is known");
            let hello = MgmtBody::Hello { name, addr: 3, up: 0, digests: ip.rib.digest_table() };
            let payload = hello.encode(0, 0);
            let frame = Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 3, ttl: 1, payload });
            let now = net.sim.now();
            net.ipcp_mut(h).on_frame(1, frame.encode(), now);
        });
        assert_eq!(found, [Unspanned { from: 1, missed: vec![3, 4], edges: 2 }]);
    }

    /// A flow with one end is named by [`half_open`], and only by it: a
    /// settled line with a ping flow between its ends has none, and a
    /// teardown its far end hears but its near end never sent leaves the
    /// near end named.
    #[test]
    fn a_flow_with_one_end_is_named() {
        use crate::apps::{EchoApp, PingApp};
        use crate::msg::MgmtBody;
        use crate::qos::QosSpec;
        use rina_wire::{MgmtPdu, Pdu};
        let mut b = NetBuilder::new(5);
        let fab = Topology::line(4).materialize(&mut b);
        let members = fab.member_ipcps(&b);
        let echo = AppName::new("echo");
        b.app(fab.nodes[3], echo.clone(), fab.dif, EchoApp::default());
        let pinger = PingApp::new(echo, QosSpec::reliable(), 1, 64);
        let ping = b.app(fab.nodes[0], AppName::new("ping"), fab.dif, pinger);
        let mut net = b.build();
        assert_eq!(settle(&mut net, &members, 20), []);
        net.run_for(Dur::from_secs(1));
        assert!(net.app(ping).done(), "the ping completed");
        assert_eq!(half_open(&net, &members), []);
        let near = net.ipcp(members[0]);
        let ends: Vec<_> = near.efcp_ends().collect();
        let [(cep, FarEnd::Named((far, _)))] = ends[..] else {
            panic!("one ping endpoint: {ends:?}")
        };
        let payload = MgmtBody::FlowTeardown { cep }.encode(0, 0);
        let frame = Pdu::Mgmt(MgmtPdu { dest_addr: far, src_addr: near.addr, ttl: 4, payload });
        let now = net.sim.now();
        net.ipcp_mut(members[3]).on_frame(0, frame.encode(), now);
        assert_eq!(half_open(&net, &members), [HalfOpen { holder: 1, cep }]);
        assert_eq!(check(&net, &members), [], "not a `check` clause yet");
    }

    /// A handshake in flight is not half-open: the request, younger than
    /// its allocation deadline, and the responder endpoint that names
    /// it. Read at the deadline (its `Alloc` timer not fired), both are.
    #[test]
    fn a_handshake_in_flight_is_not_half_open() {
        use crate::apps::EchoApp;
        use crate::qos::QosSpec;
        let mut b = NetBuilder::new(5);
        let fab = Topology::line(4).materialize(&mut b);
        let members = fab.member_ipcps(&b);
        let echo = AppName::new("echo");
        b.app(fab.nodes[3], echo.clone(), fab.dif, EchoApp::default());
        let mut net = b.build();
        assert_eq!(settle(&mut net, &members, 20), []);
        let now = net.sim.now();
        net.ipcp_mut(members[1]).alloc_flow(99, AppName::new("x"), echo, QosSpec::reliable(), now);
        let deadline = now + Dur::from_secs(1);
        let (asker, responder) = (net.ipcp(members[1]).addr, net.ipcp(members[3]).addr);
        let asked = |net: &Net| net.ipcp(members[1]).efcp_ends().collect::<Vec<_>>();
        assert_eq!(asked(&net), [(1, FarEnd::Asked(deadline))]);
        assert_eq!(half_open(&net, &members), [], "a request in flight");
        let requester = HalfOpen { holder: asker, cep: 1 };
        assert_eq!(half_open_at(&net, &members, deadline), [requester]);
        // Until the responder holds its end; its answer is still on the way.
        let answered = |net: &Net| net.ipcp(members[3]).efcp_ends().next();
        for _ in 0..10_000 {
            if answered(&net).is_some() {
                break;
            }
            net.run_for(Dur::from_micros(100));
        }
        let Some((cep, far)) = answered(&net) else { panic!("the request never arrived") };
        assert_eq!(far, FarEnd::Named((asker, 1)));
        assert_eq!(asked(&net), [(1, FarEnd::Asked(deadline))], "the answer arrived too soon");
        assert_eq!(half_open(&net, &members), [], "a handshake in flight");
        let named = [requester, HalfOpen { holder: responder, cep }];
        assert_eq!(half_open_at(&net, &members, deadline), named);
    }
}
