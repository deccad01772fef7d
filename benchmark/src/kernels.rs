//! Layer kernels: host ns/op of each layer's public functions, timed in
//! isolation with inputs shaped by the workload's own counts (frame
//! size, heap depth, queue backlog, RIB size, LSA graph). Multiplied by
//! the workload's op counts they give each layer's estimated share of
//! `wall_s` — the outside-in stand-in for in-tree spans.

use bytes::Bytes;
use rina::prelude::{DifConfig, SchedPolicy, TxClass};
use rina::rmt::RmtQueue;
use rina_efcp::{ConnId, ConnParams, Connection};
use rina_rib::{Rib, RibObject};
use rina_routing::{Lsa, RouteEngine};
use rina_sim::{Agent, Ctx, Dur, Event, IfaceId, LinkCfg, Sim, Time};
use rina_wire::crc::{crc32, crc32_patch};
use rina_wire::{DataPdu, Pdu, PduView};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What a workload's counts say about the shape of each layer's input.
pub struct Shape {
    /// Mean link frame, bytes.
    pub frame_bytes: usize,
    /// Event-heap depth at the busiest window edge.
    pub heap_depth: usize,
    /// The RMT discipline the workload runs.
    pub policy: SchedPolicy,
    /// Widest single-queue backlog, bytes (0 = queues stay empty).
    pub backlog_bytes: usize,
    /// Live objects in the largest RIB.
    pub rib_objects: usize,
    /// The DIF's adjacency graph (vertex pairs).
    pub edges: Vec<(usize, usize)>,
}

/// Host nanoseconds per operation of every kernel.
pub struct Kernels {
    /// Arm one timer and fire one, at the workload's heap depth.
    pub sim_timer_ns: f64,
    /// Send one frame and deliver it to the agent at the far end.
    pub sim_deliver_ns: f64,
    /// `Pdu::encode` of a data PDU of the workload's frame size.
    pub wire_encode_ns: f64,
    /// `Pdu::decode` of that frame.
    pub wire_decode_ns: f64,
    /// `PduView::peek` of that frame.
    pub wire_peek_ns: f64,
    /// The relay's TTL patch: `crc32_patch` of that frame's trailer.
    pub wire_patch_ns: f64,
    /// Full CRC-32 over one KiB.
    pub wire_crc32_ns_per_kib: f64,
    /// One SDU through a back-to-back connection pair, ack included.
    pub efcp_pump_ns: f64,
    /// `RmtQueue::push` + `pop` at the workload's policy and backlog.
    pub rmt_pushpop_ns: f64,
    /// `Rib::apply_remote` of a newer version into a RIB of that size.
    pub rib_apply_ns: f64,
    /// `digest_table` + `mismatched` against a peer's table.
    pub rib_digest_ns: f64,
    /// From-scratch SPF over the workload's LSA graph.
    pub routing_spf_full_ns: f64,
    /// `on_lsa` + `recompute` of one remote edge change.
    pub routing_spf_delta_ns: f64,
}

/// Time `op` in batches until ~40 ms have passed; ns per call.
fn time_ns(mut op: impl FnMut()) -> f64 {
    let (t, mut calls) = (Instant::now(), 0u64);
    while t.elapsed().as_millis() < 40 {
        for _ in 0..64 {
            op();
        }
        calls += 64;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Re-arms itself on every timer: the heap keeps its depth.
struct Rearm;
impl Agent for Rearm {
    fn handle(&mut self, _now: Time, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Timer { key } = ev {
            ctx.timer_in(Dur::from_micros(1 + key % 997), key);
        }
    }
}

/// Bounces every frame straight back; the end holding a frame serves.
struct Bounce(Option<Bytes>);
impl Agent for Bounce {
    fn handle(&mut self, _now: Time, ev: Event, ctx: &mut Ctx<'_>) {
        let (iface, data) = match ev {
            Event::Start => (IfaceId(0), self.0.take()),
            Event::Frame { iface, data } => (iface, Some(data)),
            Event::Timer { .. } => return,
        };
        if let Some(data) = data {
            let _ = ctx.send(iface, data);
        }
    }
}

fn sim_timer_ns(depth: usize) -> f64 {
    let mut sim = Sim::new(1);
    let n = sim.add_node(Rearm);
    for k in 0..depth.max(1) as u64 {
        sim.call(n, k, Dur::from_micros(k % 997));
    }
    time_ns(|| {
        sim.step();
    })
}

fn sim_deliver_ns(frame: &Bytes) -> f64 {
    let mut sim = Sim::new(1);
    let a = sim.add_node(Bounce(Some(frame.clone())));
    let b = sim.add_node(Bounce(None));
    sim.connect(a, b, LinkCfg::wired());
    sim.step();
    time_ns(|| {
        sim.step();
    })
}

fn data_pdu(payload: usize) -> Pdu {
    Pdu::Data(DataPdu {
        dest_addr: 1_000,
        src_addr: 7,
        qos_id: 2,
        dest_cep: 11,
        src_cep: 13,
        seq: 12_345,
        flags: 0,
        ttl: 16,
        payload: Bytes::from(vec![0xA5u8; payload]),
    })
}

fn efcp_pump_ns(payload: usize) -> f64 {
    let id = |l, r| ConnId {
        local_addr: l,
        remote_addr: r,
        local_cep: l as u32,
        remote_cep: r as u32,
        qos_id: 0,
    };
    let mut a = Connection::new(id(1, 2), ConnParams::reliable());
    let mut b = Connection::new(id(2, 1), ConnParams::reliable());
    let sdu = Bytes::from(vec![0u8; payload]);
    let mut now = 0u64;
    time_ns(|| {
        now += 100_000;
        let _ = a.send_sdu(sdu.clone(), now);
        while let Some(p) = a.poll_transmit() {
            b.on_pdu(&p, now);
        }
        while let Some(d) = b.poll_deliver() {
            black_box(d);
        }
        // The delayed-ack timer, then the ack's way back.
        if let Some(t) = b.poll_timeout() {
            b.on_timeout(t);
        }
        while let Some(p) = b.poll_transmit() {
            a.on_pdu(&p, now);
        }
    })
}

fn rmt_pushpop_ns(shape: &Shape, frame: &Bytes) -> f64 {
    let cubes = DifConfig::new("k").cubes;
    let cap = shape.backlog_bytes.max(frame.len()) + 8 * frame.len();
    let mut q = RmtQueue::for_cubes(shape.policy, cap, &cubes);
    // Lane mix of the flow-churn population: one interactive and one
    // reliable driver for two datagram ones, management on top.
    let lanes = [TxClass::new(2, 2), TxClass::new(1, 1), TxClass::new(3, 1), TxClass::new(3, 1)];
    let mut i = 0usize;
    while q.backlog_bytes() + frame.len() <= shape.backlog_bytes {
        q.push(lanes[i % 4], frame.clone(), 0);
        i += 1;
    }
    time_ns(|| {
        i += 1;
        q.push(lanes[i % 4], frame.clone(), i as u64);
        black_box(q.pop(i as u64));
    })
}

fn rib_object(i: usize, version: u64) -> RibObject {
    RibObject {
        name: format!("/lsa/{i}"),
        class: "lsa".into(),
        value: Bytes::from(vec![0x5Au8; 24]),
        version,
        origin: i as u64 + 1,
        deleted: false,
    }
}

fn rib_ns(objects: usize) -> (f64, f64) {
    let n = objects.max(1);
    let mut rib = Rib::new(1);
    let mut peer = Rib::new(2);
    for i in 0..n {
        rib.apply_remote_silent(rib_object(i, 1));
        peer.apply_remote_silent(rib_object(i, 1));
    }
    let peer_table = peer.digest_table();
    let digest = time_ns(|| {
        black_box(rib.digest_table().mismatched(&peer_table));
    });
    let (mut i, mut version) = (0usize, 1u64);
    let apply = time_ns(|| {
        if i % n == 0 {
            version += 1;
        }
        black_box(rib.apply_remote(rib_object(i % n, version)));
        while rib.poll_event().is_some() {}
        while rib.poll_dissemination().is_some() {}
        i += 1;
    });
    (apply, digest)
}

fn routing_ns(edges: &[(usize, usize)]) -> (f64, f64) {
    let mut adj: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
    for &(u, v) in edges {
        adj.entry(u as u64 + 1).or_default().push((v as u64 + 1, 1));
        adj.entry(v as u64 + 1).or_default().push((u as u64 + 1, 1));
    }
    let load = |e: &mut RouteEngine| {
        for (&a, n) in &adj {
            e.on_lsa(a, Some(Lsa { neighbors: n.clone() }));
        }
    };
    let full = time_ns(|| {
        let mut e = RouteEngine::new(1);
        load(&mut e);
        black_box(e.recompute());
    });
    // Loading alone, to take out of `full`.
    let load_only = time_ns(|| {
        let mut e = RouteEngine::new(1);
        load(&mut e);
        black_box(e.lsa_count());
    });
    // One remote link flapping: the far end of the last edge drops and
    // restores its adjacency (both directions, as two members would).
    let mut e = RouteEngine::new(1);
    load(&mut e);
    e.recompute();
    let &(u, v) = edges.last().unwrap_or(&(0, 1));
    let (u, v) = (u as u64 + 1, v as u64 + 1);
    let without = |a: u64, b: u64| {
        let n = adj
            .get(&a)
            .map_or(Vec::new(), |n| n.iter().copied().filter(|&(x, _)| x != b).collect());
        Lsa { neighbors: n }
    };
    let with = |a: u64| Lsa { neighbors: adj.get(&a).cloned().unwrap_or_default() };
    let mut up = true;
    let delta = time_ns(|| {
        up = !up;
        let (lu, lv) = if up { (with(u), with(v)) } else { (without(u, v), without(v, u)) };
        e.on_lsa(u, Some(lu));
        e.on_lsa(v, Some(lv));
        black_box(e.recompute());
    });
    ((full - load_only).max(0.0), delta)
}

/// Run every kernel at `shape`.
pub fn run(shape: &Shape) -> Kernels {
    // A link frame is a data PDU plus its header and trailer.
    let overhead = data_pdu(0).encode().len();
    let pdu = data_pdu(shape.frame_bytes.saturating_sub(overhead).max(1));
    let frame = pdu.encode();
    let body = frame.len() - 4;
    let view = PduView::peek(&frame).expect("an encoder frame peeks");
    let trailer = u32::from_be_bytes(frame[body..].try_into().expect("4-byte trailer"));
    let dist = body - 1 - view.ttl_offset;
    let kib = vec![0xC3u8; 1024];
    let (rib_apply_ns, rib_digest_ns) = rib_ns(shape.rib_objects);
    let (routing_spf_full_ns, routing_spf_delta_ns) = routing_ns(&shape.edges);
    Kernels {
        sim_timer_ns: sim_timer_ns(shape.heap_depth),
        sim_deliver_ns: sim_deliver_ns(&frame),
        wire_encode_ns: time_ns(|| drop(black_box(black_box(&pdu).encode()))),
        wire_decode_ns: time_ns(|| drop(black_box(Pdu::decode(black_box(&frame))))),
        wire_peek_ns: time_ns(|| {
            black_box(PduView::peek(black_box(&frame)));
        }),
        wire_patch_ns: time_ns(|| {
            black_box(crc32_patch(black_box(trailer), dist, 16, 15));
        }),
        wire_crc32_ns_per_kib: time_ns(|| {
            black_box(crc32(black_box(&kib)));
        }),
        efcp_pump_ns: efcp_pump_ns(shape.frame_bytes.saturating_sub(overhead).max(1)),
        rmt_pushpop_ns: rmt_pushpop_ns(shape, &frame),
        rib_apply_ns,
        rib_digest_ns,
        routing_spf_full_ns,
        routing_spf_delta_ns,
    }
}
