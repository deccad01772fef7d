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

use bytes::Bytes;
use rina::dif::DifConfig;
use rina::ipcp::{Ipcp, IpcpOut, N1Kind};
use rina::msg::MgmtBody;
use rina::naming::AppName;
use rina_rib::{EncodedObject, RibObject};
use rina_sim::{Dur, Time};
use rina_wire::{MgmtPdu, Pdu};
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
        a.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        let mut b = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.b"));
        b.add_n1(N1Kind::Phys { iface: 0, mtu: 1500 });
        b.start_enroll(0, "", 2, (2, 32));
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
        i.flush_lsa_now(now);
        i.flush_floods_now(now);
        i.recompute_routes_now();
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
    let held: Vec<RibObject> = p.a.rib.iter_all().cloned().collect();
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
            a.flush_floods_now(now);
            a.take_out_into(effects);
        })
    };
    let envelope = cost(&mut p, &held[..1]);
    assert!(envelope <= 3, "a one-object stale batch cost {envelope} allocations");
    assert_eq!(cost(&mut p, &held), envelope, "stale objects are not free");
    assert!(p.effects.is_empty(), "nothing stale is re-flooded");

    // A newer version of a known name is written into the stored object:
    // only the changed value is copied.
    let member = held.iter().find(|o| o.name == "/members/net.b").expect("b's record");
    let newer = RibObject {
        value: Bytes::from_static(b"\x09\x09"),
        version: member.version + 1,
        ..member.clone()
    };
    let enc = EncodedObject::of(&newer);
    let rib = &mut p.a.rib;
    let n = allocations(|| assert!(rib.apply_ref(&enc.view())));
    assert!(n <= 1, "in-place update of a known name cost {n} allocations");
    assert_eq!(p.a.rib.get("/members/net.b"), Some(&newer));

    // A first-seen name is the one case that materialises an object:
    // name, class, value, the map key, and at most a tree node.
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
    assert!(n <= 5, "first-seen name cost {n} allocations");

    // The same two kinds of news arriving as a frame: the envelope, the
    // RIB's share above, and nothing per object on the way back out —
    // with one port, the ingress, there is nobody to re-flood to.
    let newest = RibObject { version: newer.version + 1, ..newer };
    let second = RibObject { name: "/members/net.zy".into(), ..first };
    let n = cost(&mut p, &[newest, second]);
    assert!(n <= envelope + 1 + 5, "a two-object batch of news cost {n} allocations");
}
