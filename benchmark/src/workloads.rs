//! The four workload recipes, written against `rina::prelude` only.
//!
//! Each recipe turns a seed into a built [`Net`] (the program under test
//! sees nothing but that `Net`), drives it through a [`Pacer`] so traced
//! and untraced reps take the very same steps, and returns what a user
//! of the modelled network would have seen plus the invariants that did
//! not hold. Why each workload exists is recorded in `BENCHMARK.json`
//! and `README.md`.

use crate::counters::{self, Counts};
use crate::trace::{Pacer, WINDOW};
use rina::prelude::*;
use rina::scenario::{PingMesh, SourcesToSink, Workload as Placer};
use rina_sim::Histogram;
use std::collections::{BTreeMap, BTreeSet};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Management plane, growth: enrol a scale-free DIF, then ping.
    Assemble,
    /// Congested data plane under flow churn.
    Flows,
    /// Bare forwarding of the smallest PDU over an idle line.
    Relay,
    /// Management plane, shrink and repair: leaves, crashes, partitions.
    Churn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Assemble, Workload::Flows, Workload::Relay, Workload::Churn];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Assemble => "assemble-ba200",
            Workload::Flows => "flows-ba100",
            Workload::Relay => "relay-line8",
            Workload::Churn => "churn-ba100",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Class byte the interactive churn drivers stamp (index in the mix).
const CLASS_INTERACTIVE: usize = 0;
/// Spacing of relay-line8 SDUs: below the window-limited rate of the
/// farthest source (AIMD's 64-PDU slow-start threshold over a 16 ms round
/// trip is one PDU per 250 us), so once slow start is over the senders
/// are never backlogged and the RMT queues stay empty.
const RELAY_SPACING: Dur = Dur::from_micros(400);
/// Per-port RMT capacity of the flows workload: congestion must shed by
/// push-out, not build seconds of standing buffer.
const FLOWS_QUEUE_CAP: usize = 128 * 1024;
/// Virtual time the flow-churn population ramps before it is measured.
const FLOWS_RAMP: Dur = Dur::from_secs(4);

enum Load {
    Ping(PingMesh),
    /// The churn population and the seconds its measured window lasts.
    Flows(FlowChurn, u64),
    /// The line's traffic and the SDUs each source sends.
    Relay(SourcesToSink, u64),
    Churn(ChurnPlan),
}

/// The network under test and the handles that read its public stats.
pub struct Scene {
    /// The built network.
    pub net: Net,
    /// Topology handles (links for `sim.*` counters).
    pub fab: Fabric,
    /// The DIF's member IPC processes, by vertex.
    pub members: Vec<IpcpH>,
}

/// One generated scenario, built and ready to run.
pub struct Built {
    /// The network under test.
    pub scene: Scene,
    load: Load,
}

/// Seed → built `Net`: topology generation, materialisation, application
/// placement and `NetBuilder::build`. This is what `setup_s` times.
/// `smoke` shrinks every workload to the scale the package's tests run.
pub fn build(w: Workload, seed: u64, smoke: bool) -> Built {
    let mut b = NetBuilder::new(seed);
    b.set_enroll_schedule(EnrollSchedule::waves());
    let (fab, load) = match w {
        Workload::Assemble => {
            let n = if smoke { 60 } else { 200 };
            let fab = Topology::barabasi_albert(n, 2, seed).with_prefix("as").materialize(&mut b);
            // A seed-shuffled permutation ring: every member sources and
            // receives one ping, and random pairs cross the hubs.
            let mesh = Placer::ping_sampled(&mut b, fab.dif, &fab.nodes, 0, seed, 1, 64);
            (fab, Load::Ping(mesh))
        }
        Workload::Flows => {
            let (n, drivers, sinks, window_s) = if smoke { (40, 3, 2, 2) } else { (100, 5, 4, 6) };
            b.set_shim_sched(SchedPolicy::Priority);
            b.set_shim_queue_cap(FLOWS_QUEUE_CAP);
            let link = LinkCfg::wired().with_bandwidth(12_000_000).with_delay(Dur::from_millis(2));
            let dif = DifConfig::new("flows")
                .with_cube_set(CubeSet::Standard)
                .with_sched(SchedPolicy::Priority)
                .with_rmt_queue_cap_bytes(FLOWS_QUEUE_CAP);
            let fab = Topology::barabasi_albert(n, 2, seed)
                .with_link(link)
                .with_dif(dif)
                .with_prefix("fl")
                .materialize(&mut b);
            // Sinks on the lowest-degree vertices: their access links,
            // not the hubs, become the congestion points.
            let deg = fab.degrees();
            let mut order: Vec<usize> = (0..fab.len()).collect();
            order.sort_by_key(|&i| (deg[i], i));
            let sinks: Vec<NodeH> = order.iter().take(sinks).map(|&i| fab.node(i)).collect();
            let cfg = FlowChurnCfg::new(seed ^ 0x00f1)
                .with_drivers_per_node(drivers)
                .with_pacing(
                    (Dur::from_secs(8), Dur::from_secs(16)),
                    (Dur::from_millis(300), Dur::from_millis(1_200)),
                )
                .with_traffic(360, Dur::from_millis(25))
                .with_mix(vec![
                    (QosSpec::interactive(), 1),
                    (QosSpec::reliable(), 1),
                    (QosSpec::datagram(), 2),
                ]);
            let churn = Placer::flow_churn(&mut b, fab.dif, &fab.all(), &sinks, &cfg);
            (fab, Load::Flows(churn, window_s))
        }
        Workload::Relay => {
            let sdus = if smoke { 500 } else { 25_000 };
            let fab = Topology::line(9).with_prefix("ln").materialize(&mut b);
            let sources: Vec<NodeH> = (0..4).map(|i| fab.node(i)).collect();
            let spec = QosSpec::reliable();
            let traffic = Placer::sources_to_sink(
                &mut b,
                fab.dif,
                fab.last(),
                &sources,
                spec,
                64,
                sdus,
                RELAY_SPACING,
            );
            (fab, Load::Relay(traffic, sdus))
        }
        Workload::Churn => {
            let n = if smoke { 40 } else { 100 };
            // Grace below the 4 s downtime: crashes are garbage-collected
            // by their sponsors, not ridden out.
            let dif = DifConfig::new("as").with_member_gc_grace_ms(2_000);
            let fab = Topology::barabasi_albert(n, 2, seed)
                .with_dif(dif)
                .with_prefix("as")
                .materialize(&mut b);
            let plan = Churn::new(seed ^ 0x00c4)
                .with_counts(1, 1, 1, 1)
                .with_pacing(Dur::from_secs(12), Dur::from_secs(4), Dur::from_millis(1_200))
                .plan(&fab);
            (fab, Load::Churn(plan))
        }
    };
    let members = fab.member_ipcps(&b);
    Built { scene: Scene { net: b.build(), fab, members }, load }
}

/// What one rep produced. Nothing here is host time: two reps of one
/// seed must compare equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Virtual seconds until `Net::assembled()` first held.
    pub makespan_vs: f64,
    /// User-level operations attempted: enrolments and pings; flow
    /// allocations and flow lives; SDUs; reachability probes.
    pub attempted: u64,
    /// Of `attempted`, how many failed.
    pub failed: u64,
    /// Latency samples behind `lat_*` (ping RTTs, SDU one-way delays).
    pub lat_samples: u64,
    /// User-level latency, virtual ms: median.
    pub lat_p50_vms: f64,
    /// User-level latency, virtual ms: the highest percentile that has
    /// ten samples beyond it, capped at the 99th.
    pub lat_tail_vms: f64,
    /// Which percentile `lat_tail_vms` is.
    pub lat_tail_pct: f64,
    /// Flow allocations completed.
    pub allocs: u64,
    /// Flow-allocation latency p99, virtual ms.
    pub alloc_p99_vms: f64,
    /// Payload Mbit delivered to sinks per virtual second of traffic.
    pub goodput_vmbps: f64,
    /// Virtual seconds from the last heal to a re-quiesced DIF.
    pub reconverge_vs: f64,
    /// Deterministic layer counters read from public stats at the end.
    pub counts: Counts,
    /// Invariants that did not hold (empty on a correct run).
    pub violations: Vec<String>,
}

impl Outcome {
    fn latency(&mut self, h: &Histogram) {
        self.lat_samples = h.count() as u64;
        self.lat_p50_vms = h.quantile(0.5) * 1e3;
        let q = crate::stats::tail_q(h.count());
        self.lat_tail_vms = h.quantile(q) * 1e3;
        self.lat_tail_pct = q * 100.0;
    }

    fn alloc_latency(&mut self, h: &Histogram) {
        self.allocs = h.count() as u64;
        self.alloc_p99_vms = h.quantile(0.99) * 1e3;
    }
}

/// Run one built scenario to the end of its measured phase.
pub fn run(b: &mut Built, p: &mut Pacer<'_>) -> Outcome {
    let mut out = Outcome::default();
    let s = &mut b.scene;
    assemble(s, p, &mut out);
    p.phase("run", s);
    match &b.load {
        Load::Ping(mesh) => ping(s, p, mesh, &mut out),
        Load::Flows(churn, window_s) => flows(s, p, churn, *window_s, &mut out),
        Load::Relay(traffic, sdus) => relay(s, p, traffic, *sdus, &mut out),
        Load::Churn(plan) => churn(s, p, plan.clone(), &mut out),
    }
    p.stop(s);
    out.counts = counters::collect(&s.net, &s.fab, &s.members);
    out.counts.extend(counters::gauges(&s.net, &s.members));
    check_counts(matches!(b.load, Load::Relay(..)), &mut out);
    p.finish(s);
    out
}

/// Step until `Net::assembled()`, in 10 ms steps so the makespan is not
/// quantised to the library's own 50 ms poll.
fn assemble(s: &mut Scene, p: &mut Pacer<'_>, out: &mut Outcome) {
    let limit = Time::from_millis(120_000);
    p.phase("assemble", s);
    while !s.net.assembled() && s.net.sim.now() < limit {
        p.advance(s, Dur::from_millis(10));
    }
    out.makespan_vs = s.net.sim.now().as_secs_f64();
    let unenrolled = s.members.iter().filter(|&&h| !s.net.ipcp(h).is_enrolled()).count() as u64;
    out.attempted += s.members.len() as u64;
    out.failed += unenrolled;
    if !s.net.assembled() {
        out.violations.push(format!("not assembled by {limit}: {unenrolled} members unenrolled"));
    }
}

fn ping(s: &mut Scene, p: &mut Pacer<'_>, mesh: &PingMesh, out: &mut Outcome) {
    p.advance_windows(s, 4);
    for _ in 0..240 {
        if mesh.all_done(&s.net) {
            break;
        }
        p.advance(s, WINDOW);
    }
    let pending = mesh.pings.iter().filter(|&&(_, _, h)| !s.net.app(h).done()).count() as u64;
    out.attempted += mesh.pings.len() as u64;
    out.failed += pending;
    if pending > 0 {
        out.violations.push(format!("{pending} pings never completed"));
    }
    let (mut rtt, mut alloc) = (Histogram::new(), Histogram::new());
    mesh.rtts(&s.net).into_iter().for_each(|v| rtt.push(v));
    for &(_, _, h) in &mesh.pings {
        let a = s.net.app(h);
        if let (Some(t0), Some(t1)) = (a.alloc_requested, a.alloc_done) {
            alloc.push(t1.since(t0).as_secs_f64());
        }
    }
    out.latency(&rtt);
    out.alloc_latency(&alloc);
}

fn flows(s: &mut Scene, p: &mut Pacer<'_>, churn: &FlowChurn, window_s: u64, out: &mut Outcome) {
    // Ramp: the population reaches its duty-cycle steady state (every
    // driver has opened, most holds are in flight).
    p.advance_windows(s, 2 + FLOWS_RAMP.nanos() / WINDOW.nanos());
    let sunk = |net: &Net| churn.sinks.iter().map(|&a| net.app(a).bytes).sum::<u64>();
    let before = (
        churn.allocs(&s.net),
        churn.alloc_failures(&s.net),
        churn.flow_deaths(&s.net),
        sunk(&s.net),
    );
    p.advance_windows(s, window_s * 4);
    let net = &s.net;
    let allocs = churn.allocs(net) - before.0;
    let fails = churn.alloc_failures(net) - before.1;
    let deaths = churn.flow_deaths(net) - before.2;
    let live = churn.concurrent(net) as u64;
    out.attempted += allocs + fails + live;
    out.failed += fails + deaths;
    out.goodput_vmbps = (sunk(net) - before.3) as f64 * 8.0 / window_s as f64 / 1e6;
    out.latency(&churn.latency_of_class(net, CLASS_INTERACTIVE));
    out.alloc_latency(&churn.alloc_latency(net));
    if live == 0 || sunk(net) == before.3 {
        out.violations.push(format!("churn population idle: {live} flows live, nothing sunk"));
    }
}

fn relay(s: &mut Scene, p: &mut Pacer<'_>, traffic: &SourcesToSink, sdus: u64, out: &mut Outcome) {
    let t0 = s.net.sim.now();
    let sent_all = sdus * traffic.sources.len() as u64;
    for _ in 0..4_000 {
        if traffic.received(&s.net) >= sent_all {
            break;
        }
        p.advance(s, WINDOW);
    }
    let net = &s.net;
    let sink = net.app(traffic.sink);
    out.attempted += sent_all;
    out.failed += sent_all.saturating_sub(sink.received);
    out.goodput_vmbps =
        sink.bytes as f64 * 8.0 / sink.last_arrival.since(t0).as_secs_f64().max(1e-9) / 1e6;
    out.latency(&sink.latency);
    let mut up = Histogram::new();
    for &a in &traffic.sources {
        if let Some(t) = net.app(a).flow_up_at {
            up.push(t.since(t0).as_secs_f64());
        }
    }
    out.alloc_latency(&up);
    if sink.received != sent_all {
        out.violations.push(format!("sink got {} of {sent_all} SDUs", sink.received));
    }
    // Longest path: one 1 ms hop per link of the line.
    let path_ms = s.fab.links.len() as f64;
    if out.lat_p50_vms >= 2.0 * path_ms {
        out.violations
            .push(format!("relay p50 {} ms ≥ 2× path propagation {path_ms} ms", out.lat_p50_vms));
    }
}

/// The churn timeline with calm-window reachability probes, then the
/// step to quiescence (assembled, no stale object, every ordered pair
/// reachable on the tables) — E11's recipe.
fn churn(s: &mut Scene, p: &mut Pacer<'_>, plan: ChurnPlan, out: &mut Outcome) {
    p.advance_windows(s, 4);
    let horizon = plan.horizon();
    // Reconvergence margin after each heal before calm sampling resumes.
    let margin = Dur::from_secs(5);
    let mut runner = ChurnRunner::new(plan, &s.net, s.members.clone());
    let mut tick = 0u64;
    while runner.elapsed(&s.net) < horizon {
        p.advance_churn(s, &mut runner, WINDOW);
        tick += 1;
        if tick.is_multiple_of(2) && !runner.disturbed(&s.net, margin) && s.net.assembled() {
            let (ok, n) = Tables::of(&s.net, &s.members).ring(tick);
            out.attempted += n;
            out.failed += n - ok;
        }
    }
    p.phase("drain", s);
    let heal_at = s.net.sim.now();
    let mut converged = false;
    for i in 0..1_200 {
        p.advance(s, Dur::from_millis(50));
        // Cheapest test first; the all-pairs walk runs once or twice.
        let quiet = s.net.assembled() && {
            let tables = Tables::of(&s.net, &s.members);
            tables.ring(i) == (tables.live.len() as u64, tables.live.len() as u64)
                && stale_objects(&s.net, &s.members) == 0
                && tables.all_pairs().0 == 0
        };
        if quiet {
            converged = true;
            break;
        }
    }
    out.reconverge_vs = s.net.sim.now().since(heal_at).as_secs_f64();
    let (unreachable, pairs) = Tables::of(&s.net, &s.members).all_pairs();
    out.attempted += pairs;
    out.failed += unreachable;
    if !converged {
        let stale = stale_objects(&s.net, &s.members);
        out.violations.push(format!(
            "churn did not re-quiesce: {stale} stale objects, {unreachable} of {pairs} pairs unreachable"
        ));
    }
    if (out.failed as f64) > 0.01 * out.attempted as f64 {
        out.violations.push(format!(
            "reachability below 0.99: {} of {} probes failed",
            out.failed, out.attempted
        ));
    }
}

/// Live RIB objects anywhere whose origin is not a current member.
fn stale_objects(net: &Net, members: &[IpcpH]) -> usize {
    let addrs: BTreeSet<u64> = members.iter().map(|&h| net.ipcp(h).addr).collect();
    members
        .iter()
        .map(|&h| {
            let rib = &net.ipcp(h).rib;
            rib.iter_prefix("/").filter(|o| o.origin != 0 && !addrs.contains(&o.origin)).count()
        })
        .sum()
}

/// The forwarding tables of the enrolled members, for table-walk probes.
struct Tables<'n> {
    net: &'n Net,
    by_addr: BTreeMap<u64, IpcpH>,
    live: Vec<u64>,
}

impl<'n> Tables<'n> {
    fn of(net: &'n Net, members: &[IpcpH]) -> Self {
        let by_addr: BTreeMap<u64, IpcpH> = members
            .iter()
            .filter(|&&h| net.ipcp(h).is_enrolled() && !net.ipcp(h).is_departed())
            .map(|&h| (net.ipcp(h).addr, h))
            .collect();
        let live = by_addr.keys().copied().collect();
        Tables { net, by_addr, live }
    }

    /// Whether following first next-hops from `src` arrives at `dst`.
    fn walks(&self, src: u64, dst: u64) -> bool {
        let mut cur = src;
        for _ in 0..self.live.len() + 2 {
            if cur == dst {
                return true;
            }
            let hops = self.by_addr.get(&cur).and_then(|&h| self.net.ipcp(h).fwd().route(dst));
            match hops.and_then(|h| h.first()) {
                Some(&next) => cur = next,
                None => return false,
            }
        }
        false
    }

    /// A rotated ring: every member sources and receives one probe.
    /// Returns (reached, probes).
    fn ring(&self, salt: u64) -> (u64, u64) {
        let n = self.live.len();
        if n < 2 {
            return (0, 0);
        }
        let k = 1 + (salt as usize % (n - 1));
        let ok = (0..n).filter(|&i| self.walks(self.live[i], self.live[(i + k) % n])).count();
        (ok as u64, n as u64)
    }

    /// Every ordered pair. Returns (unreachable, pairs).
    fn all_pairs(&self) -> (u64, u64) {
        let n = self.live.len() as u64;
        let bad = self
            .live
            .iter()
            .flat_map(|&s| self.live.iter().map(move |&d| (s, d)))
            .filter(|&(s, d)| s != d && !self.walks(s, d))
            .count();
        (bad as u64, n * n.saturating_sub(1))
    }
}

/// Invariants over the layer counters.
fn check_counts(idle_queues: bool, out: &mut Outcome) {
    let c = |name| counters::get(&out.counts, name);
    let mut bad = Vec::new();
    if c("rmt.deq") + c("rmt.evict") > c("rmt.enq") {
        bad.push(format!(
            "RMT conservation: enq {} < deq {} + evict {}",
            c("rmt.enq"),
            c("rmt.deq"),
            c("rmt.evict")
        ));
    }
    if c("wire.decode_errors") != 0 {
        bad.push(format!(
            "{} undecodable frames on links that never corrupt",
            c("wire.decode_errors")
        ));
    }
    if idle_queues && c("sim.link_drops") + c("rmt.drops") + c("rmt.evict") != 0 {
        bad.push(format!(
            "relay line lost frames: {} on links, {} in the RMT",
            c("sim.link_drops"),
            c("rmt.drops") + c("rmt.evict")
        ));
    }
    out.violations.extend(bad);
}
