//! The management plane's two steady-state shortcuts change nothing but
//! the work done: a hello taken from the generation-keyed cache is the
//! hello a fresh encode would give, and a hello answered from a port's
//! memo leaves the IPC process exactly where a full decode leaves it.
//! Both are pinned through the public surface only (`Ipcp::rib` is
//! public, so the RIB is disturbed directly).

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rina::dif::DifConfig;
use rina::ipcp::{Deferred, Ipcp, IpcpOut, IpcpTimer, N1Kind};
use rina::msg::MgmtBody;
use rina::naming::AppName;
use rina_rib::{DigestTable, RibObject};
use rina_sim::{Dur, Time};
use rina_wire::{MgmtPdu, Pdu};

const SUBTREES: [&str; 4] = ["/blocks/", "/dir/", "/lsa/", "/members/"];

fn object_name(rng: &mut SmallRng) -> String {
    format!("{}{}", SUBTREES[rng.gen_range(0..SUBTREES.len())], rng.gen_range(0..5u32))
}

/// A hello as `name` at `addr` would put it on a link.
fn hello(name: &AppName, addr: u64, digests: DigestTable, invoke_id: u32) -> Bytes {
    let payload = MgmtBody::Hello { name: name.clone(), addr, up: 0, digests }.encode(invoke_id, 0);
    Pdu::Mgmt(MgmtPdu { dest_addr: 0, src_addr: addr, ttl: 1, payload }).encode()
}

fn frames(effects: &[IpcpOut]) -> Vec<&Bytes> {
    effects
        .iter()
        .filter_map(|o| match o {
            IpcpOut::TxPhys { frame, .. } => Some(frame),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Whatever happens to the RIB and the address between two
    /// ticks — local writes, remote applies (news and stale), tombstones,
    /// a subtree turning owner-held, bootstrap or enrollment assigning the
    /// address —
    /// the hello a tick sends is byte for byte the one built from scratch
    /// out of the state at that moment, and it is re-encoded only when
    /// the RIB generation or the address moved.
    #[test]
    fn cached_hello_is_the_freshly_built_hello(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut i = Ipcp::new(0, DifConfig::new("net"), AppName::with_instance("net", "m"));
        i.add_n1(N1Kind::Phys { iface: 0 });
        i.start_enroll(0, "", 0, 0, Time::ZERO); // invoke id 1 stays pending
        i.take_out();
        let mut now = Time::ZERO;
        // The state the last hello was sent for, and the encodes so far.
        let mut sent_for = (i.rib.generation(), i.addr);
        let mut built = i.stats.hello_built;
        for _ in 0..48 {
            match rng.gen_range(0..8u32) {
                0 | 1 => i.rib.write_local(
                    &object_name(&mut rng),
                    "c",
                    Bytes::from(vec![rng.gen_range(0..=255u8)]),
                ),
                2 => i.rib.delete_local(&object_name(&mut rng)),
                3 | 4 => {
                    // News or not, by the version guard.
                    i.rib.apply_remote_silent(RibObject {
                        name: object_name(&mut rng),
                        class: "c".into(),
                        value: Bytes::new(),
                        version: rng.gen_range(1..4u64),
                        origin: rng.gen_range(1..4u64),
                        deleted: rng.gen_range(0..4u32) == 0,
                    });
                }
                5 => i.rib.set_local_subtree("/dir"),
                6 if !i.is_enrolled() => i.bootstrap(rng.gen_range(1..9u64)),
                7 if !i.is_enrolled() => {
                    // The enrollment response: it carries the address and
                    // no objects (the sync set streams ahead of it), so
                    // the address moves and the RIB generation does not.
                    let addr = rng.gen_range(1..9u64);
                    let granted = MgmtBody::EnrollResponse { addr, hi: addr };
                    let pdu = MgmtPdu { dest_addr: 0, src_addr: 9, ttl: 1, payload: granted.encode(1, 0) };
                    i.on_frame(0, Pdu::Mgmt(pdu).encode(), now);
                    prop_assert!(i.is_enrolled());
                    i.take_out();
                }
                _ => {} // a quiet period
            }
            let key = (i.rib.generation(), i.addr);
            let fresh = hello(&i.name, i.addr, i.rib.digest_table(), 0);
            now += Dur::from_millis(500);
            i.tick_hello(now);
            let effects = i.take_out();
            let sent = *frames(&effects).first().expect("a tick sends a hello");
            prop_assert_eq!(sent, &fresh);
            prop_assert_eq!(
                i.stats.hello_built - built,
                (key != sent_for) as u64,
                "encoded exactly when the RIB generation or the address moved"
            );
            (sent_for, built) = (key, i.stats.hello_built);
        }
    }

    /// (b) One process hears a random hello sequence as sent (repeats
    /// hit its ports' memos); its twin hears the same hellos under CDAP
    /// invoke ids that never repeat — a field the hello handler ignores —
    /// so every one of them takes the full decode. Ticks and local
    /// writes are interleaved so that an unchanged hello can still demand
    /// a changed answer (a fresh mismatch, an expired resync damp). Step
    /// for step the two emit the same effects and show the same ports.
    #[test]
    fn memoised_hello_receive_equals_full_decode(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mk = || {
            let mut i = Ipcp::new(0, DifConfig::new("net"), AppName::new("net.a"));
            i.bootstrap(1);
            i.set_block(64);
            for iface in 0..2 {
                i.add_n1(N1Kind::Phys { iface });
            }
            i.rib.write_local("/lsa/7", "x", Bytes::from_static(b"7"));
            i.take_out();
            i
        };
        let (mut memo, mut full) = (mk(), mk());
        let peers = [AppName::new("net.p"), AppName::with_instance("net", "q")];
        let mut last: [Option<(usize, u64, DigestTable)>; 2] = [None, None];
        let mut now = Time::ZERO;
        for step in 0..64u32 {
            now += Dur::from_millis(100);
            match rng.gen_range(0..10u32) {
                0 => {
                    for i in [&mut memo, &mut full] {
                        i.tick_hello(now);
                    }
                }
                1 => {
                    let (name, value) = (object_name(&mut rng), Bytes::from(vec![step as u8]));
                    for i in [&mut memo, &mut full] {
                        i.dir_register(&AppName::new("app"));
                        i.rib.write_local(&name, "c", value.clone());
                    }
                }
                _ => {
                    let port = rng.gen_range(0..2usize);
                    let said = match &last[port] {
                        // Half the time the neighbor repeats itself.
                        Some(prev) if rng.gen_range(0..2u32) == 0 => prev.clone(),
                        _ => {
                            let digests = match rng.gen_range(0..3u32) {
                                0 => memo.rib.digest_table(), // in sync with us
                                1 => DigestTable::default(),
                                _ => DigestTable::from_entries(vec![
                                    ("/lsa".into(), rng.gen_range(0..3u64), rng.gen_range(0..3u64)),
                                    (object_name(&mut rng), 1, rng.gen_range(0..3u64)),
                                ]),
                            };
                            // Address 0: a neighbor that is not enrolled (yet, or any more).
                            (rng.gen_range(0..2usize), [0, 5, 6][rng.gen_range(0..3usize)], digests)
                        }
                    };
                    let (who, addr, digests) = said.clone();
                    last[port] = Some(said);
                    memo.on_frame(port, hello(&peers[who], addr, digests.clone(), 0), now);
                    full.on_frame(port, hello(&peers[who], addr, digests, step + 1), now);
                }
            }
            // Floods leave with the effects, as if the node's batch timer fired.
            for i in [&mut memo, &mut full] {
                i.on_timer(IpcpTimer::Deferred(Deferred::Flood), now);
            }
            prop_assert_eq!(format!("{:?}", memo.take_out()), format!("{:?}", full.take_out()));
            for (m, f) in memo.n1_ports().iter().zip(full.n1_ports()) {
                prop_assert_eq!(
                    (&m.peer_name, m.peer_addr, m.up, m.last_hello),
                    (&f.peer_name, f.peer_addr, f.up, f.last_hello)
                );
            }
        }
        prop_assert!(memo.rib.iter_all().eq(full.rib.iter_all()));
        prop_assert_eq!(memo.rib.generation(), full.rib.generation());
        prop_assert_eq!(memo.fwd().route(5), full.fwd().route(5));
        let (m, f) = (memo.stats, full.stats);
        prop_assert_eq!(
            (m.mgmt_tx, m.rib_tx, m.flood_suppressed, m.delta_requests, m.hello_tx, m.hello_rx),
            (f.mgmt_tx, f.rib_tx, f.flood_suppressed, f.delta_requests, f.hello_tx, f.hello_rx)
        );
        prop_assert_eq!(f.hello_decoded, f.hello_rx, "the twin never hits its memos");
        prop_assert!(m.hello_decoded < f.hello_decoded, "no repeat was served by a memo");
    }
}
