//! End-to-end property tests: an EFCP connection pair driven over a
//! deliberately hostile channel (loss, reordering, duplication) must still
//! deliver every SDU exactly once, in order, for reliable parameters —
//! and its receiver must acknowledge every PDU within [`ACK_DELAY`] of
//! its coming in order, sending no more control PDUs than it received
//! data PDUs plus gaps.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rina_efcp::{ConnId, ConnParams, Connection, ACK_DELAY};
use rina_wire::{CtrlKind, Pdu, SeqNum};
use std::collections::BTreeMap;

/// A channel that delays PDUs by a random number of steps, drops some, and
/// occasionally duplicates — deterministic in its seed.
struct HostileChannel {
    rng: SmallRng,
    /// (deliver_step, pdu)
    in_flight: Vec<(u64, Pdu)>,
    drop_p: f64,
    dup_p: f64,
    max_jitter: u64,
}

impl HostileChannel {
    fn new(seed: u64, drop_p: f64, dup_p: f64, max_jitter: u64) -> Self {
        HostileChannel {
            rng: SmallRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            drop_p,
            dup_p,
            max_jitter,
        }
    }

    fn offer(&mut self, step: u64, pdu: Pdu) {
        if self.rng.gen_bool(self.drop_p) {
            return;
        }
        let d = step + 1 + self.rng.gen_range(0..=self.max_jitter);
        if self.rng.gen_bool(self.dup_p) {
            let d2 = step + 1 + self.rng.gen_range(0..=self.max_jitter);
            self.in_flight.push((d2, pdu.clone()));
        }
        self.in_flight.push((d, pdu));
    }

    fn due(&mut self, step: u64) -> Vec<Pdu> {
        let (ready, later): (Vec<_>, Vec<_>) =
            self.in_flight.drain(..).partition(|(s, _)| *s <= step);
        self.in_flight = later;
        ready.into_iter().map(|(_, p)| p).collect()
    }

    fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

fn endpoints(params: &ConnParams) -> (Connection, Connection) {
    let a = Connection::new(
        ConnId { local_addr: 1, remote_addr: 2, local_cep: 1, remote_cep: 2, qos_id: 0 },
        params.clone(),
    );
    let b = Connection::new(
        ConnId { local_addr: 2, remote_addr: 1, local_cep: 2, remote_cep: 1, qos_id: 0 },
        params.clone(),
    );
    (a, b)
}

/// What the receiver saw and said over one transfer.
#[derive(Default)]
struct Receiver {
    /// When each seq first arrived.
    first_arrival: BTreeMap<SeqNum, u64>,
    /// Data PDUs that arrived, duplicates included.
    data_in: u64,
    /// Arrivals of a seq beyond the first one not yet received.
    gaps: u64,
    /// Control PDUs sent.
    ctrl_out: u64,
    /// Each ack sent: when, and the seq it acknowledges up to.
    acks: Vec<(u64, SeqNum)>,
}

impl Receiver {
    fn arrived(&mut self, seq: SeqNum, now: u64) {
        self.data_in += 1;
        let keys = self.first_arrival.keys();
        let frontier = keys.zip(0..).take_while(|&(&s, i)| s == i).count() as SeqNum;
        if seq > frontier && !self.first_arrival.contains_key(&seq) {
            self.gaps += 1;
        }
        self.first_arrival.entry(seq).or_insert(now);
    }

    fn sent(&mut self, kind: CtrlKind, at: u64) {
        self.ctrl_out += 1;
        if let CtrlKind::AckCredit { seq, .. } = kind {
            self.acks.push((at, seq));
        }
    }

    /// Every PDU is acked within `ACK_DELAY` of the instant it came in
    /// order (when it and every seq before it had arrived), and control
    /// PDUs never outnumber data arrivals plus gaps.
    fn check(&self) {
        let mut in_order_at = 0;
        for (&seq, &t) in &self.first_arrival {
            in_order_at = t.max(in_order_at);
            let ack = self.acks.iter().find(|&&(at, s)| at >= in_order_at && s > seq);
            let lag = ack.map(|&(at, _)| at - in_order_at);
            assert!(lag.is_some_and(|l| l <= ACK_DELAY), "seq {seq}: acked after {lag:?} ns");
        }
        assert!(
            self.ctrl_out <= self.data_in + self.gaps,
            "{} control PDUs for {} data PDUs and {} gaps",
            self.ctrl_out,
            self.data_in,
            self.gaps
        );
    }
}

/// Drive a full transfer of `sdus` from a to b across the hostile channel
/// (drop 20 %, duplicate 5 %, up to 3 steps of jitter).
fn transfer(sdus: &[Vec<u8>], params: ConnParams, seed: u64, drop_p: f64) -> Vec<Bytes> {
    transfer_over(sdus, params, seed, (drop_p, 0.05, 3)).0
}

/// Drive a full transfer of `sdus` from a to b across a channel that
/// drops, duplicates and delays by up to `(drop_p, dup_p, max_jitter)`.
/// Each step is 1 ms of virtual time. Returns SDUs delivered at b and
/// what b saw and said, after checking b's acknowledgements
/// ([`Receiver::check`]).
fn transfer_over(
    sdus: &[Vec<u8>],
    params: ConnParams,
    seed: u64,
    (drop_p, dup_p, max_jitter): (f64, f64, u64),
) -> (Vec<Bytes>, Receiver) {
    let (mut a, mut b) = endpoints(&params);
    let mut ab = HostileChannel::new(seed, drop_p, dup_p, max_jitter);
    let mut ba = HostileChannel::new(seed.wrapping_add(1), drop_p, dup_p, max_jitter);
    for s in sdus {
        a.send_sdu(Bytes::from(s.clone()), 0).expect("queue");
    }
    let mut delivered = Vec::new();
    let mut rx = Receiver::default();
    let step_ns = 1_000_000u64;
    for step in 0..200_000u64 {
        let now = step * step_ns;
        while let Some(p) = a.poll_transmit() {
            ab.offer(step, p);
        }
        while let Some(p) = b.poll_transmit() {
            // Sent in the previous step, by `on_pdu` or `on_timeout`.
            if let Pdu::Ctrl(c) = &p {
                rx.sent(c.kind, now - step_ns);
            }
            ba.offer(step, p);
        }
        for p in ab.due(step) {
            if let Pdu::Data(d) = &p {
                rx.arrived(d.seq, now);
            }
            b.on_pdu(&p, now);
        }
        for p in ba.due(step) {
            a.on_pdu(&p, now);
        }
        for (end, c) in [("sender", &mut a), ("receiver", &mut b)] {
            if c.poll_timeout().is_some_and(|t| t <= now) {
                c.on_timeout(now);
                // A fired deadline must move: the caller re-arms what
                // `poll_timeout` says, so one at or before `now` would
                // fire at this instant forever.
                let next = c.poll_timeout();
                assert!(next.is_none_or(|t| t > now), "{end}'s deadline {next:?} after {now}");
            }
        }
        while let Some(s) = b.poll_deliver() {
            delivered.push(s);
        }
        if a.is_idle() && b.is_idle() && ab.is_empty() && ba.is_empty() {
            break;
        }
        assert!(!a.is_failed(), "sender failed at step {step}");
    }
    rx.check();
    (delivered, rx)
}

#[test]
fn bulk_transfer_over_20pct_loss() {
    let sdus: Vec<Vec<u8>> = (0..200).map(|i| vec![(i % 251) as u8; 700]).collect();
    let got = transfer(&sdus, ConnParams::reliable(), 99, 0.20);
    assert_eq!(got.len(), sdus.len());
    for (want, got) in sdus.iter().zip(&got) {
        assert_eq!(&want[..], got.as_ref());
    }
}

#[test]
fn large_fragmented_sdus_survive_loss() {
    let sdus: Vec<Vec<u8>> =
        (0..20).map(|i| (0..10_000).map(|j| ((i * 7 + j) % 256) as u8).collect()).collect();
    let got = transfer(&sdus, ConnParams::reliable(), 7, 0.10);
    assert_eq!(got.len(), 20);
    for (want, got) in sdus.iter().zip(&got) {
        assert_eq!(&want[..], got.as_ref());
    }
}

/// Light loss and no jitter leave long in-order stretches between the
/// gaps a loss opens, so past each gap's quick acks the receiver acks
/// every second PDU — and still acks every PDU within `ACK_DELAY`.
#[test]
fn light_loss_acks_every_second_pdu_within_the_delay() {
    let sdus: Vec<Vec<u8>> = (0..2_000).map(|i| vec![(i % 251) as u8; 100]).collect();
    for seed in 1..=4 {
        let (got, rx) = transfer_over(&sdus, ConnParams::reliable(), seed, (0.005, 0.0, 0));
        assert_eq!(got.len(), sdus.len());
        assert!(rx.gaps > 0, "seed {seed}: no loss to recover from");
        assert!(
            5 * rx.ctrl_out < 4 * rx.data_in,
            "seed {seed}: {} control PDUs for {} data PDUs",
            rx.ctrl_out,
            rx.data_in
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_reliable_exactly_once_in_order(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.35,
        sizes in proptest::collection::vec(1usize..3000, 1..40),
    ) {
        let sdus: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut rng = SmallRng::seed_from_u64(seed ^ i as u64);
                (0..n).map(|_| rng.gen()).collect()
            })
            .collect();
        // Short base RTO: with heavy loss, exponential backoff on the
        // default 200ms RTO can push a retry past the harness horizon.
        let params = ConnParams { rtx_timeout_ns: 20_000_000, ..ConnParams::reliable() };
        let got = transfer(&sdus, params, seed, drop_p);
        prop_assert_eq!(got.len(), sdus.len());
        for (want, got) in sdus.iter().zip(&got) {
            prop_assert_eq!(&want[..], got.as_ref());
        }
    }
}
