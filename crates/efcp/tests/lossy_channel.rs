//! End-to-end property tests: an EFCP connection pair driven over a
//! deliberately hostile channel (loss, reordering, duplication) must still
//! deliver every SDU exactly once, in order, for reliable parameters.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rina_efcp::{ConnId, ConnParams, Connection};
use rina_wire::Pdu;

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

/// Drive a full transfer of `sdus` from a to b across the hostile channel.
/// Each step is 1 ms of virtual time. Returns SDUs delivered at b.
fn transfer(sdus: &[Vec<u8>], params: ConnParams, seed: u64, drop_p: f64) -> Vec<Bytes> {
    let (mut a, mut b) = endpoints(&params);
    let mut ab = HostileChannel::new(seed, drop_p, 0.05, 3);
    let mut ba = HostileChannel::new(seed.wrapping_add(1), drop_p, 0.05, 3);
    for s in sdus {
        a.send_sdu(Bytes::from(s.clone()), 0).expect("queue");
    }
    let mut delivered = Vec::new();
    let step_ns = 1_000_000u64;
    for step in 0..200_000u64 {
        let now = step * step_ns;
        while let Some(p) = a.poll_transmit() {
            ab.offer(step, p);
        }
        while let Some(p) = b.poll_transmit() {
            ba.offer(step, p);
        }
        for p in ab.due(step) {
            b.on_pdu(&p, now);
        }
        for p in ba.due(step) {
            a.on_pdu(&p, now);
        }
        if let Some(t) = a.poll_timeout() {
            if t <= now {
                a.on_timeout(now);
            }
        }
        if let Some(t) = b.poll_timeout() {
            if t <= now {
                b.on_timeout(now);
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
    delivered
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
