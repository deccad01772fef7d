//! Reusable application processes for examples, tests and experiments.
//!
//! These are ordinary [`AppProcess`] implementations — the same API any
//! user of the library writes against. They only ever name destination
//! applications; none of them ever sees an address.

use crate::app::{AppProcess, FlowH, FlowOrigin, IpcApi};
use crate::naming::AppName;
use crate::qos::QosSpec;
use bytes::Bytes;
use rina_sim::{Dur, Histogram, Time};

const KEY_START: u64 = 1;
const KEY_SEND: u64 = 2;
const KEY_OPEN: u64 = 3;
const KEY_CLOSE: u64 = 4;
const KEY_REPLY: u64 = 5;

/// How long a [`PingApp`] waits for an echo before it drops the flow and
/// allocates a fresh one (130 s). A reliable connection retries a PDU for
/// at most `(MAX_RTX + 1) × RTX_MAX_TIMEOUT` = 65 s before it fails, so
/// the request and then the echo each land within that, or the responder's
/// end has failed. Its teardown is one shot and may be lost on a long
/// lossy path; past this deadline the pinger's end is known half-open.
const PING_REPLY_DEADLINE: Dur =
    Dur::from_nanos(2 * (rina_efcp::MAX_RTX as u64 + 1) * rina_efcp::RTX_MAX_TIMEOUT);

/// Accepts every flow and echoes every SDU back to the sender.
#[derive(Default)]
pub struct EchoApp {
    /// SDUs echoed.
    pub echoed: u64,
    /// Payload bytes echoed.
    pub bytes: u64,
}

impl AppProcess for EchoApp {
    fn on_sdu(&mut self, flow: FlowH, sdu: Bytes, api: &mut IpcApi<'_, '_, '_>) {
        self.echoed += 1;
        self.bytes += sdu.len() as u64;
        let _ = api.write(flow, sdu);
    }
}

/// Accepts flows and counts what arrives. If SDUs carry a leading 8-byte
/// virtual-time timestamp (as [`SourceApp`] writes), records one-way
/// latency.
#[derive(Default)]
pub struct SinkApp {
    /// SDUs received.
    pub received: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// One-way latencies in seconds (timestamped SDUs only).
    pub latency: Histogram,
    /// Time the last SDU arrived.
    pub last_arrival: Time,
    /// Refuse flows from these applications (access control, §5.3).
    pub reject_from: Vec<AppName>,
    /// Flow requests refused.
    pub rejected: u64,
}

impl SinkApp {
    /// A sink that refuses flows from the given applications.
    pub fn rejecting(reject_from: Vec<AppName>) -> Self {
        SinkApp { reject_from, ..Default::default() }
    }
}

impl AppProcess for SinkApp {
    fn on_flow_requested(&mut self, from: &AppName) -> bool {
        if self.reject_from.contains(from) {
            self.rejected += 1;
            false
        } else {
            true
        }
    }

    fn on_sdu(&mut self, _flow: FlowH, sdu: Bytes, api: &mut IpcApi<'_, '_, '_>) {
        self.received += 1;
        self.bytes += sdu.len() as u64;
        self.last_arrival = api.now();
        if sdu.len() >= 8 {
            let ts = u64::from_be_bytes(sdu[..8].try_into().expect("len checked"));
            if ts > 0 && ts <= api.now().nanos() {
                self.latency.push((api.now().nanos() - ts) as f64 / 1e9);
            }
        }
    }
}

/// Allocates a flow to `dst` and sends `count` SDUs of `size` bytes every
/// `interval`, retrying allocation until the network is ready. SDUs carry a
/// leading virtual-time timestamp for the sink's latency histogram.
pub struct SourceApp {
    /// Destination application name.
    pub dst: AppName,
    /// Requested flow properties.
    pub spec: QosSpec,
    /// SDU payload size (min 8 for the timestamp).
    pub size: usize,
    /// SDUs to send.
    pub count: u64,
    /// Send interval (zero = as fast as backpressure allows).
    pub interval: Dur,
    /// Delay before the first allocation attempt.
    pub start_delay: Dur,
    /// SDUs sent so far.
    pub sent: u64,
    /// Allocation failures observed (then retried).
    pub alloc_failures: u64,
    /// The allocated flow, once any.
    pub flow: Option<FlowH>,
    /// Time the flow came up.
    pub flow_up_at: Option<Time>,
    /// All SDUs sent.
    pub completed: bool,
}

impl SourceApp {
    /// A source sending `count` SDUs of `size` bytes to `dst`.
    pub fn new(dst: AppName, spec: QosSpec, size: usize, count: u64, interval: Dur) -> Self {
        SourceApp {
            dst,
            spec,
            size: size.max(8),
            count,
            interval,
            start_delay: Dur::from_millis(10),
            sent: 0,
            alloc_failures: 0,
            flow: None,
            flow_up_at: None,
            completed: false,
        }
    }

    fn payload(&self, now: Time) -> Bytes {
        let mut v = vec![0u8; self.size];
        v[..8].copy_from_slice(&now.nanos().to_be_bytes());
        Bytes::from(v)
    }
}

impl AppProcess for SourceApp {
    fn on_start(&mut self, api: &mut IpcApi<'_, '_, '_>) {
        api.timer_in(self.start_delay, KEY_START);
    }

    fn on_timer(&mut self, key: u64, api: &mut IpcApi<'_, '_, '_>) {
        match key {
            KEY_START if self.flow.is_none() => {
                api.allocate_flow(&self.dst.clone(), self.spec);
            }
            KEY_SEND => {
                let Some(flow) = self.flow else { return };
                if self.sent >= self.count {
                    self.completed = true;
                    return;
                }
                let pl = self.payload(api.now());
                match api.write(flow, pl) {
                    Ok(()) => {
                        self.sent += 1;
                        if self.sent >= self.count {
                            self.completed = true;
                        } else {
                            api.timer_in(self.interval, KEY_SEND);
                        }
                    }
                    Err(_) => {
                        // Backpressure: try again shortly.
                        api.timer_in(Dur::from_millis(5), KEY_SEND);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_flow_allocated(
        &mut self,
        _origin: FlowOrigin,
        flow: FlowH,
        _peer: &AppName,
        api: &mut IpcApi<'_, '_, '_>,
    ) {
        self.flow = Some(flow);
        self.flow_up_at = Some(api.now());
        api.timer_in(Dur::ZERO, KEY_SEND);
    }

    fn on_flow_failed(&mut self, _origin: FlowOrigin, _reason: &str, api: &mut IpcApi<'_, '_, '_>) {
        self.alloc_failures += 1;
        self.flow = None;
        api.timer_in(Dur::from_millis(200), KEY_START);
    }

    fn on_flow_closed(&mut self, _flow: FlowH, _api: &mut IpcApi<'_, '_, '_>) {
        self.flow = None;
    }
}

/// Number of traffic classes churn sinks account separately (matches
/// [`crate::rmt::LANES`]; the class byte in a churn SDU is clamped).
pub const CHURN_CLASSES: usize = 8;

/// Accepts every flow and accounts arrivals **per traffic class**: churn
/// SDUs (from [`ChurnDriver`]) carry an 8-byte virtual-time timestamp
/// followed by a class byte, and each class gets its own one-way latency
/// histogram — the per-cube data-plane metric of the flow-churn
/// experiments.
#[derive(Default)]
pub struct ChurnSinkApp {
    /// SDUs received (all classes).
    pub received: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// SDUs received per class byte (clamped to [`CHURN_CLASSES`]).
    pub received_by_class: [u64; CHURN_CLASSES],
    /// One-way latency per class, seconds of virtual time.
    pub latency_by_class: [Histogram; CHURN_CLASSES],
}

impl AppProcess for ChurnSinkApp {
    fn on_sdu(&mut self, _flow: FlowH, sdu: Bytes, api: &mut IpcApi<'_, '_, '_>) {
        self.received += 1;
        self.bytes += sdu.len() as u64;
        if sdu.len() >= 9 {
            let ts = u64::from_be_bytes(sdu[..8].try_into().expect("len checked"));
            let class = (sdu[8] as usize).min(CHURN_CLASSES - 1);
            self.received_by_class[class] += 1;
            if ts > 0 && ts <= api.now().nanos() {
                self.latency_by_class[class].push((api.now().nanos() - ts) as f64 / 1e9);
            }
        }
    }
}

/// One self-driving flow-churn client: allocate a flow to `dst`, hold it
/// for a jittered interval while sending timestamped SDUs, deallocate,
/// idle for a jittered gap, reallocate — forever. A population of these
/// maintains a target concurrent-flow level while continuously exercising
/// the allocation path (the flow-churn workload of ROADMAP item 4).
///
/// All jitter comes from the driver's own seeded RNG, advanced only by
/// virtual-time callbacks, so a churn population is byte-identical at any
/// host thread count.
pub struct ChurnDriver {
    /// Destination application (a [`ChurnSinkApp`]).
    pub dst: AppName,
    /// Requested flow properties (decides the QoS cube, hence the lane).
    pub spec: QosSpec,
    /// Class byte stamped into every SDU (the sink's histogram index).
    pub class: u8,
    /// SDU payload size (min 9: timestamp + class byte).
    pub size: usize,
    /// Interval between SDUs while a flow is held.
    pub send_interval: Dur,
    /// Flow holding time bounds (uniform jitter, inclusive).
    pub hold: (Dur, Dur),
    /// Idle gap bounds between flows (uniform jitter, inclusive).
    pub gap: (Dur, Dur),
    rng: rand::rngs::SmallRng,
    /// The flow currently held, if any.
    pub flow: Option<FlowH>,
    alloc_requested: Option<Time>,
    close_at: Time,
    next_send: Time,
    /// Completed allocations.
    pub allocs: u64,
    /// Allocation failures (each is retried after a backoff).
    pub alloc_failures: u64,
    /// Established flows that died mid-life (e.g. EFCP gave up under
    /// sustained loss) — congestion shedding, not allocator refusals.
    pub flow_deaths: u64,
    /// Deliberate deallocations.
    pub closes: u64,
    /// SDUs written.
    pub sent: u64,
    /// Allocation latency (request → flow up), seconds of virtual time.
    pub alloc_latency: Histogram,
}

impl ChurnDriver {
    /// A driver cycling flows to `dst` under its own RNG stream.
    #[allow(clippy::too_many_arguments)] // a workload driver is its parameters
    pub fn new(
        dst: AppName,
        spec: QosSpec,
        class: u8,
        size: usize,
        send_interval: Dur,
        hold: (Dur, Dur),
        gap: (Dur, Dur),
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        ChurnDriver {
            dst,
            spec,
            class,
            size: size.max(9),
            send_interval,
            hold,
            gap,
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            flow: None,
            alloc_requested: None,
            close_at: Time::ZERO,
            next_send: Time::ZERO,
            allocs: 0,
            alloc_failures: 0,
            flow_deaths: 0,
            closes: 0,
            sent: 0,
            alloc_latency: Histogram::new(),
        }
    }

    /// Whether a flow is currently held (the concurrency sample).
    pub fn active(&self) -> bool {
        self.flow.is_some()
    }

    fn jitter(&mut self, (lo, hi): (Dur, Dur)) -> Dur {
        use rand::Rng;
        let (a, b) = (lo.nanos().min(hi.nanos()), lo.nanos().max(hi.nanos()));
        Dur::from_nanos(self.rng.gen_range(a..=b))
    }

    fn payload(&self, now: Time) -> Bytes {
        let mut v = vec![0u8; self.size];
        v[..8].copy_from_slice(&now.nanos().to_be_bytes());
        v[8] = self.class;
        Bytes::from(v)
    }
}

impl AppProcess for ChurnDriver {
    fn on_start(&mut self, api: &mut IpcApi<'_, '_, '_>) {
        // Stagger first opens across the gap window so a population does
        // not thundering-herd the flow allocator at t=0.
        let d = self.jitter(self.gap);
        api.timer_in(d, KEY_OPEN);
    }

    fn on_timer(&mut self, key: u64, api: &mut IpcApi<'_, '_, '_>) {
        match key {
            KEY_OPEN => {
                if self.flow.is_some() || self.alloc_requested.is_some() {
                    return;
                }
                self.alloc_requested = Some(api.now());
                api.allocate_flow(&self.dst.clone(), self.spec);
            }
            KEY_SEND => {
                let Some(flow) = self.flow else { return };
                // A stale send chain from a previous flow epoch fires at
                // a time the current chain did not schedule: drop it, or
                // the two chains would double the send rate.
                if api.now() != self.next_send {
                    return;
                }
                let pl = self.payload(api.now());
                if api.write(flow, pl).is_ok() {
                    self.sent += 1;
                }
                // Backpressured writes are simply skipped — the churn
                // load is open-loop, paced by the interval alone.
                self.next_send = api.now() + self.send_interval;
                api.timer_in(self.send_interval, KEY_SEND);
            }
            KEY_CLOSE => {
                // A stale close from a flow that already died early must
                // not cut the current flow short.
                if api.now() < self.close_at {
                    return;
                }
                if let Some(f) = self.flow.take() {
                    api.deallocate(f);
                    self.closes += 1;
                    let d = self.jitter(self.gap);
                    api.timer_in(d, KEY_OPEN);
                }
            }
            _ => {}
        }
    }

    fn on_flow_allocated(
        &mut self,
        _origin: FlowOrigin,
        flow: FlowH,
        _peer: &AppName,
        api: &mut IpcApi<'_, '_, '_>,
    ) {
        self.allocs += 1;
        if let Some(t0) = self.alloc_requested.take() {
            self.alloc_latency.push(api.now().since(t0).as_secs_f64());
        }
        self.flow = Some(flow);
        let hold = self.jitter(self.hold);
        self.close_at = api.now() + hold;
        self.next_send = api.now();
        api.timer_in(hold, KEY_CLOSE);
        api.timer_in(Dur::ZERO, KEY_SEND);
    }

    fn on_flow_failed(&mut self, _origin: FlowOrigin, _reason: &str, api: &mut IpcApi<'_, '_, '_>) {
        if self.flow.take().is_some() {
            // An established flow died mid-life (EFCP gave up under
            // sustained loss). That is congestion shedding the transport
            // — count it apart from allocator refusals, and reopen
            // exactly as after a deliberate close. Dropping the handle
            // here also keeps a later stale KEY_CLOSE from deallocating
            // the next flow.
            self.flow_deaths += 1;
            let d = self.jitter(self.gap);
            api.timer_in(d, KEY_OPEN);
            return;
        }
        self.alloc_failures += 1;
        self.alloc_requested = None;
        let d = Dur::from_millis(200) + self.jitter(self.gap);
        api.timer_in(d, KEY_OPEN);
    }

    fn on_flow_closed(&mut self, _flow: FlowH, api: &mut IpcApi<'_, '_, '_>) {
        // The network (not this driver) closed the flow: reopen after a
        // gap, exactly as if the driver had finished its hold.
        if self.flow.take().is_some() {
            let d = self.jitter(self.gap);
            api.timer_in(d, KEY_OPEN);
        }
    }
}

/// Allocates a flow to an [`EchoApp`] and measures request/response RTTs.
/// A ping whose echo misses its deadline (130 s) gives the flow up and
/// allocates a fresh one; so does a flow the peer closes.
pub struct PingApp {
    /// Destination (an echo responder).
    pub dst: AppName,
    /// Requested flow properties.
    pub spec: QosSpec,
    /// Round trips to measure.
    pub count: usize,
    /// Payload size per ping.
    pub size: usize,
    /// Collected RTTs in seconds.
    pub rtts: Vec<f64>,
    /// Time the flow allocation was requested / completed (for allocation
    /// latency measurements).
    pub alloc_requested: Option<Time>,
    /// Time the flow came up.
    pub alloc_done: Option<Time>,
    sent_at: Time,
    flow: Option<FlowH>,
    /// Allocation failures observed (then retried).
    pub alloc_failures: u64,
}

impl PingApp {
    /// A pinger that will measure `count` RTTs against `dst`.
    pub fn new(dst: AppName, spec: QosSpec, count: usize, size: usize) -> Self {
        PingApp {
            dst,
            spec,
            count,
            size: size.max(1),
            rtts: Vec::new(),
            alloc_requested: None,
            alloc_done: None,
            sent_at: Time::ZERO,
            flow: None,
            alloc_failures: 0,
        }
    }

    /// All round trips measured.
    pub fn done(&self) -> bool {
        self.rtts.len() >= self.count
    }

    /// Send one ping on `flow` and arm its reply deadline.
    fn ping(&mut self, flow: FlowH, api: &mut IpcApi<'_, '_, '_>) {
        self.sent_at = api.now();
        let _ = api.write(flow, Bytes::from(vec![0u8; self.size]));
        api.timer_in(PING_REPLY_DEADLINE, KEY_REPLY);
    }
}

impl AppProcess for PingApp {
    fn on_start(&mut self, api: &mut IpcApi<'_, '_, '_>) {
        api.timer_in(Dur::from_millis(10), KEY_START);
    }

    fn on_timer(&mut self, key: u64, api: &mut IpcApi<'_, '_, '_>) {
        if key == KEY_START && self.flow.is_none() {
            self.alloc_requested = Some(api.now());
            api.allocate_flow(&self.dst.clone(), self.spec);
        }
        // A deadline armed for an earlier ping, or met, finds `sent_at`
        // moved on or the pinger done.
        let overdue = api.now().since(self.sent_at) >= PING_REPLY_DEADLINE;
        if key == KEY_REPLY && overdue && !self.done() {
            if let Some(flow) = self.flow.take() {
                api.deallocate(flow);
                api.timer_in(Dur::from_millis(200), KEY_START);
            }
        }
    }

    fn on_flow_allocated(
        &mut self,
        _origin: FlowOrigin,
        flow: FlowH,
        _peer: &AppName,
        api: &mut IpcApi<'_, '_, '_>,
    ) {
        self.flow = Some(flow);
        self.alloc_done = Some(api.now());
        self.ping(flow, api);
    }

    fn on_flow_failed(&mut self, _origin: FlowOrigin, _reason: &str, api: &mut IpcApi<'_, '_, '_>) {
        self.alloc_failures += 1;
        self.flow = None;
        api.timer_in(Dur::from_millis(200), KEY_START);
    }

    fn on_sdu(&mut self, flow: FlowH, _sdu: Bytes, api: &mut IpcApi<'_, '_, '_>) {
        let rtt = api.now().since(self.sent_at).as_secs_f64();
        self.rtts.push(rtt);
        if self.rtts.len() < self.count {
            self.ping(flow, api);
        }
    }

    fn on_flow_closed(&mut self, flow: FlowH, api: &mut IpcApi<'_, '_, '_>) {
        if self.flow == Some(flow) && !self.done() {
            self.flow = None;
            api.timer_in(Dur::from_millis(200), KEY_START);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_payload_embeds_timestamp() {
        let s = SourceApp::new(AppName::new("x"), QosSpec::reliable(), 64, 1, Dur::ZERO);
        let p = s.payload(Time::from_millis(1500));
        assert_eq!(p.len(), 64);
        let ts = u64::from_be_bytes(p[..8].try_into().unwrap());
        assert_eq!(ts, 1_500_000_000);
    }

    #[test]
    fn source_minimum_size_is_timestamp() {
        let s = SourceApp::new(AppName::new("x"), QosSpec::reliable(), 1, 1, Dur::ZERO);
        assert_eq!(s.size, 8);
    }

    #[test]
    fn ping_done_logic() {
        let mut p = PingApp::new(AppName::new("e"), QosSpec::reliable(), 2, 16);
        assert!(!p.done());
        p.rtts.push(0.1);
        p.rtts.push(0.2);
        assert!(p.done());
    }
}
