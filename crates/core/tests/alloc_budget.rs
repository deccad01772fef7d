//! Allocation budget of the management plane's steady state.
//!
//! Management runs on the slowest timescale of an IPC process, and in a
//! converged DIF nearly all of it is repetition: the same hello goes out
//! every period, the same hello comes back, re-advertised objects arrive
//! at members that already hold them. None of that may touch the heap —
//! what it costs is what a 1000-member assembly or a long quiescent
//! drain costs per member per period. This file pins it with a counting
//! global allocator (an integration test is its own crate, outside the
//! libraries' `forbid(unsafe_code)`): two hand-wired members converge,
//! then each steady-state operation runs under the counter.
//!
//! The last test pins the data plane's per-hop ledger the same way, as
//! it stands — the figure ROADMAP item 2 quotes comes from here.

use bytes::Bytes;
use rina::dif::DifConfig;
use rina::ipcp::{Deferred, Ipcp, IpcpOut, IpcpTimer, N1Kind};
use rina::msg::MgmtBody;
use rina::naming::AppName;
use rina::qos::{QosCube, QosSpec};
use rina_rib::{DigestTable, EncodedObject, EncodedSummary, ObjVer, RibObject};
use rina_sim::{Dur, Time};
use rina_wire::{DataPdu, MgmtPdu, Pdu};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump, and a const-initialised `Cell<u64>` needs no lazy initialisation
// or destructor, so touching it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `op` makes on this thread.
fn allocations(op: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Two members of one DIF joined back to back over port 0 of each, with
/// the virtual clock the test drives them on.
struct Pair {
    a: Ipcp,
    b: Ipcp,
    now: Time,
    /// Recycled effect buffer, as the node keeps one.
    effects: Vec<IpcpOut>,
}

impl Pair {
    /// `a` bootstraps, `b` enrolls through it, and both run hello
    /// periods until their RIBs and their views of each other settle.
    fn converged() -> Pair {
        let mut a = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.a"));
        a.bootstrap(1);
        a.set_block((1, 64));
        a.add_n1(N1Kind::Phys { iface: 0 });
        let mut b = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.b"));
        b.add_n1(N1Kind::Phys { iface: 0 });
        b.start_enroll(0, "", 2, (2, 32), Time::ZERO);
        let mut p = Pair { a, b, now: Time::ZERO, effects: Vec::new() };
        for _ in 0..24 {
            p.period();
        }
        assert!(p.b.is_enrolled());
        assert_eq!(p.a.rib.digest_table(), p.b.rib.digest_table(), "the pair converged");
        assert!(p.a.rib.get("/lsa/2").is_some() && p.b.rib.get("/lsa/1").is_some());
        p
    }

    /// One hello period: both tick, then frames cross until none is left.
    fn period(&mut self) {
        self.now += Dur::from_millis(500);
        self.a.tick_hello(self.now);
        self.b.tick_hello(self.now);
        loop {
            let to_b = Self::drain(&mut self.a, self.now, &mut self.effects);
            let to_a = Self::drain(&mut self.b, self.now, &mut self.effects);
            if to_a.is_empty() && to_b.is_empty() {
                return;
            }
            for f in to_b {
                self.b.on_frame(0, f, self.now);
            }
            for f in to_a {
                self.a.on_frame(0, f, self.now);
            }
        }
    }

    /// Run `i`'s deferred work (what the node's timers would) and take
    /// the frames it wants sent.
    fn drain(i: &mut Ipcp, now: Time, effects: &mut Vec<IpcpOut>) -> Vec<Bytes> {
        for job in [Deferred::Lsa, Deferred::Flood, Deferred::Routes] {
            i.on_timer(IpcpTimer::Deferred(job), now);
        }
        i.take_out_into(effects);
        effects
            .drain(..)
            .filter_map(|o| match o {
                IpcpOut::TxPhys { frame, .. } => Some(frame),
                _ => None,
            })
            .collect()
    }
}

/// A link-local management frame carrying `objects` as one flood batch.
fn batch_frame(src: u64, objects: &[RibObject]) -> Bytes {
    let objects = objects.iter().map(EncodedObject::of).collect();
    let payload = MgmtBody::RibDeltaResponse { subtree: String::new(), objects }.encode(0, 0);
    Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: src, ttl: 1, payload }).encode()
}

#[test]
fn steady_state_hello_ticks_allocate_nothing() {
    let mut p = Pair::converged();
    let built = p.a.stats.hello_built;
    // Sixteen periods cover two of the every-8th-tick re-advertisements
    // of own objects, every one of them suppressed by the peer's digests.
    for _ in 0..16 {
        p.now += Dur::from_millis(500);
        let (a, now, effects) = (&mut p.a, p.now, &mut p.effects);
        let n = allocations(|| {
            a.tick_hello(now);
            a.take_out_into(effects);
        });
        assert_eq!(n, 0, "tick_hello on an unchanged RIB allocated");
        assert_eq!(p.effects.len(), 1, "one hello, nothing re-flooded");
        // The hello goes out and the neighbor's comes back, as every
        // period; neither disturbs anything.
        for o in p.effects.drain(..) {
            if let IpcpOut::TxPhys { frame, .. } = o {
                p.b.on_frame(0, frame, p.now);
            }
        }
        p.b.tick_hello(p.now);
        for f in Pair::drain(&mut p.b, p.now, &mut Vec::new()) {
            p.a.on_frame(0, f, p.now);
        }
    }
    assert_eq!(p.a.stats.hello_built, built, "every hello came from the generation cache");
}

#[test]
fn a_repeated_hello_allocates_nothing_to_receive() {
    let mut p = Pair::converged();
    p.now += Dur::from_millis(500);
    p.a.tick_hello(p.now);
    let hello = Pair::drain(&mut p.a, p.now, &mut p.effects).pop().expect("a sent its hello");
    let decoded = p.b.stats.hello_decoded;
    for _ in 0..4 {
        let (b, now, effects, frame) = (&mut p.b, p.now, &mut p.effects, hello.clone());
        let n = allocations(|| {
            b.on_frame(0, frame, now);
            b.take_out_into(effects);
        });
        assert_eq!(n, 0, "a hello identical to the port's last one allocated");
        assert!(p.effects.is_empty(), "and asked for nothing");
    }
    assert_eq!(p.b.stats.hello_decoded, decoded, "all four were served by the port's memo");
}

#[test]
fn stale_objects_allocate_nothing_and_news_stays_in_budget() {
    let mut p = Pair::converged();
    let held: Vec<RibObject> =
        p.a.rib
            .iter_all()
            .map(|o| RibObject::decode(o.wire()).expect("stored, so it decodes"))
            .collect();
    assert!(held.len() >= 6, "members, blocks and LSAs of both");

    // In the RIB itself: a version the RIB already holds is rejected on
    // the borrowed view, before anything is materialised.
    for o in &held {
        let enc = EncodedObject::of(o);
        let rib = &mut p.a.rib;
        assert_eq!(allocations(|| assert!(!rib.apply_ref(&enc.view()))), 0, "{}", o.name);
    }

    // Through the IPC process: a frame pays a fixed envelope (the CDAP
    // class and name strings, the batch's vector of slices) however many
    // stale objects it carries — the objects themselves cost nothing.
    let cost = |p: &mut Pair, objects: &[RibObject]| {
        let frame = batch_frame(2, objects);
        let (a, now, effects) = (&mut p.a, p.now, &mut p.effects);
        allocations(|| {
            a.on_frame(0, frame, now);
            a.on_timer(IpcpTimer::Deferred(Deferred::Flood), now);
            a.take_out_into(effects);
        })
    };
    let envelope = cost(&mut p, &held[..1]);
    assert!(envelope <= 3, "a one-object stale batch cost {envelope} allocations");
    assert_eq!(cost(&mut p, &held), envelope, "stale objects are not free");
    assert!(p.effects.is_empty(), "nothing stale is re-flooded");

    // A newer version of a known name replaces the stored encoding in
    // its map slot: one copy of the arriving bytes, nothing else.
    let member = held.iter().find(|o| o.name == "/members/net.b").expect("b's record");
    let newer = RibObject {
        value: Bytes::from_static(b"\x09\x09"),
        version: member.version + 1,
        ..member.clone()
    };
    let enc = EncodedObject::of(&newer);
    let rib = &mut p.a.rib;
    let n = allocations(|| assert!(rib.apply_ref(&enc.view())));
    assert!(n <= 1, "a newer version of a known name cost {n} allocations");
    assert_eq!(p.a.rib.get("/members/net.b"), Some(enc.view()));

    // A first-seen name costs the stored encoding, the map key, and at
    // most one tree node.
    let first = RibObject {
        name: "/members/net.zz".into(),
        class: "member".into(),
        value: Bytes::from_static(b"\x11"),
        version: 1,
        origin: 2,
        deleted: false,
    };
    let enc = EncodedObject::of(&first);
    let rib = &mut p.a.rib;
    let n = allocations(|| assert!(rib.apply_ref(&enc.view())));
    assert!(n <= 3, "first-seen name cost {n} allocations");

    // The same two kinds of news arriving as a frame: the envelope, the
    // RIB's share above, and nothing per object on the way back out —
    // with one port, the ingress, there is nobody to re-flood to.
    let newest = RibObject { version: newer.version + 1, ..newer };
    let second = RibObject { name: "/members/net.zy".into(), ..first };
    let n = cost(&mut p, &[newest, second]);
    assert!(n <= envelope + 1 + 3, "a two-object batch of news cost {n} allocations");
}

/// A delta answer hands out the RIB's stored encodings: what answering
/// costs is the request's and the batch's envelopes, the same whether
/// one object or eight go back, never an encoding per object.
#[test]
fn a_delta_answer_allocates_the_same_for_every_object_count() {
    let mut p = Pair::converged();
    const N: usize = 8;
    let name = |i: usize| format!("/x/{i}");
    for i in 0..N {
        let o = RibObject {
            name: name(i),
            class: "x".into(),
            value: Bytes::from(vec![i as u8; 12]),
            version: 2,
            origin: 2,
            deleted: false,
        };
        assert!(p.a.rib.apply_remote_silent(o));
    }
    // The peer lists every name, the first `k` a version behind: a sends
    // exactly those `k`, and nothing in the summary is news to it.
    let names: Vec<String> = (0..N).map(name).collect();
    let request = |k: usize| {
        let entries: Vec<ObjVer<'_>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| ObjVer { name: n, version: if i < k { 1 } else { 2 }, origin: 2 })
            .collect();
        let body = MgmtBody::RibDeltaRequest {
            subtree: "/x".into(),
            from: String::new(),
            upto: String::new(),
            summary: EncodedSummary::of(&entries),
        };
        Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: 2, ttl: 1, payload: body.encode(0, 0) })
            .encode()
    };
    let tx = p.a.stats.rib_tx;
    let mut answer = |k: usize| {
        let (a, now, effects, frame) = (&mut p.a, p.now, &mut p.effects, request(k));
        let n = allocations(|| {
            a.on_frame(0, frame, now);
            a.take_out_into(effects);
        });
        assert_eq!(effects.len(), 1, "one batch answers {k} objects");
        // Cleared in place: the recycled buffer keeps its capacity.
        effects.clear();
        n
    };
    answer(N);
    let costs: Vec<u64> = (1..=N).map(&mut answer).collect();
    assert!(costs.iter().all(|&c| c == costs[0]), "allocations per answered count: {costs:?}");
    assert_eq!(p.a.stats.rib_tx - tx, (N + (1..=N).sum::<usize>()) as u64, "each answer sent k");
}

/// One relay hop is a member's in-place TTL/CRC patch of the arrival
/// buffer, then the shim under the chosen (N-1) port wrapping that buffer
/// for the medium. The member allocates nothing. The shim allocates
/// twice — the encoder's `Vec`, then its copy into the `Bytes` the frame
/// travels as — and those two stay: writing the wrap in place into the
/// arrival buffer's own headroom (0 allocations, 0 copies per hop) was
/// measured at −0.5 % `wall_s` on `relay-line8`, inside the noise (see
/// EXPERIMENTS.md, "The third pass"). Allocation count is not what a
/// relay hop pays for.
#[test]
fn a_relay_hop_allocates_nothing_at_the_member_and_two_at_the_shim() {
    let now = Time::ZERO;
    let hello = |name: &str, addr: u64| {
        let body =
            MgmtBody::Hello { name: AppName::new(name), addr, digests: DigestTable::default() };
        let payload = body.encode(0, 0);
        Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: addr, ttl: 1, payload }).encode()
    };
    let transit = |seq: u64| {
        Pdu::Data(DataPdu {
            dest_addr: 7,
            src_addr: 9,
            qos_id: 1,
            dest_cep: 3,
            src_cep: 4,
            seq,
            flags: 0,
            ttl: 16,
            payload: Bytes::from(vec![0xA5u8; 64]),
        })
        .encode()
    };

    // The member, address 1: lower flow 10 leads to member 9, lower flow
    // 11 to member 7.
    let mut member = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.r"));
    member.bootstrap(1);
    member.add_n1(N1Kind::Lower { port: 10 });
    member.add_n1(N1Kind::Lower { port: 11 });
    member.on_frame(0, hello("net.a", 9), now);
    member.on_frame(1, hello("net.b", 7), now);
    // The shim providing flow 11, already allocated by its peer.
    let cfg = DifConfig::new("shim").with_cubes(QosCube::shim_set());
    let mut shim = Ipcp::shim(1, cfg, AppName::new("s.a"), 0, 1);
    shim.flow_accept(11, AppName::new("net.b"), QosSpec::datagram(), 2, 5, 1);
    // What the set-up asked for (hello replies, the flow response) is
    // not part of a hop.
    member.take_out();
    shim.take_out();

    // One hop: allocations at the member, then at the shim.
    let mut effects = Vec::new();
    let mut hop = |seq: u64| {
        let arrival = transit(seq);
        let at_member = allocations(|| {
            member.on_frame(0, arrival, now);
            member.take_out_into(&mut effects);
        });
        let Some(IpcpOut::TxLower { port: 11, sdu, class }) = effects.pop() else {
            panic!("the member relays toward 7 over flow 11");
        };
        assert!(effects.is_empty());
        let at_shim = allocations(|| {
            shim.write_port(11, sdu, now, Some(class)).expect("flow 11 is active");
            shim.take_out_into(&mut effects);
        });
        assert!(matches!(effects.pop(), Some(IpcpOut::TxPhys { n1: 0, .. })));
        (at_member, at_shim)
    };
    // Two frames through first: each process alternates between its own
    // effect queue and the node's recycled one, and both need capacity.
    hop(0);
    hop(1);
    let (at_member, at_shim) = hop(2);
    assert_eq!(at_member, 0, "relaying a uniquely owned arrival allocated");
    assert!(at_shim <= 2, "the shim re-wrap cost {at_shim} allocations");
    assert_eq!((member.stats.relayed, member.stats.relay_fast), (3, 3));
}
