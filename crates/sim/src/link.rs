//! Point-to-point link models.
//!
//! A [`Link`] joins two node interfaces. Each direction has independent
//! serialization (bandwidth), propagation delay, a bounded FIFO transmit
//! queue, and a stochastic loss process. Wireless segments are modelled with
//! the two-state Gilbert–Elliott bursty loss process, wired segments with
//! Bernoulli loss or no loss.

use crate::time::{Dur, Time};
use rand::Rng;

/// Identifier of a link within a [`crate::Sim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Stochastic frame-loss process for one direction of a link.
#[derive(Clone, Debug)]
pub enum LossModel {
    /// Every frame is delivered.
    None,
    /// Each frame is lost independently with the given probability.
    Bernoulli(f64),
    /// Two-state Markov (Gilbert–Elliott) bursty loss, the classic model for
    /// wireless fading channels. Transitions are sampled per frame.
    GilbertElliott {
        /// P(good -> bad) per frame.
        p_good_to_bad: f64,
        /// P(bad -> good) per frame.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Convenience constructor for a typical bursty wireless channel with
    /// the given average badness. `p_bad` controls how often the channel is
    /// in the bad (deep-fade) state.
    pub fn wireless(p_bad: f64) -> LossModel {
        assert!((0.0..1.0).contains(&p_bad), "p_bad must be in [0,1)");
        // Mean burst length ~ 10 frames; stationary P(bad) = p_bad.
        let p_bg = 0.1;
        let p_gb = if p_bad == 0.0 { 0.0 } else { p_bg * p_bad / (1.0 - p_bad) };
        LossModel::GilbertElliott {
            p_good_to_bad: p_gb.min(1.0),
            p_bad_to_good: p_bg,
            loss_good: 0.001,
            loss_bad: 0.5,
        }
    }
}

/// Per-direction mutable loss state (Gilbert–Elliott channel state).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LossState {
    pub in_bad: bool,
}

impl LossModel {
    /// Sample whether the next frame is lost, advancing channel state.
    pub(crate) fn sample(&self, st: &mut LossState, rng: &mut impl Rng) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                if st.in_bad {
                    if rng.gen_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        st.in_bad = false;
                    }
                } else if rng.gen_bool(p_good_to_bad.clamp(0.0, 1.0)) {
                    st.in_bad = true;
                }
                let p = if st.in_bad { loss_bad } else { loss_good };
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

/// Static configuration of a link (applies to both directions).
#[derive(Clone, Debug)]
pub struct LinkCfg {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: Dur,
    /// Loss process, sampled independently per direction.
    pub loss: LossModel,
    /// Transmit queue capacity per direction, in bytes: the bytes the
    /// transmitter has not yet put on the wire. Frames that would overflow
    /// the queue are dropped (tail drop).
    pub queue_bytes: usize,
    /// Maximum frame size; larger frames are rejected at `send`.
    pub mtu: usize,
}

impl LinkCfg {
    /// A fast, reliable wired link: 1 Gbps, 1 ms delay, 256 KiB queue.
    pub fn wired() -> Self {
        LinkCfg {
            bandwidth_bps: 1_000_000_000,
            delay: Dur::from_millis(1),
            loss: LossModel::None,
            queue_bytes: 256 * 1024,
            mtu: 9000,
        }
    }

    /// A slower lossy wireless link: 50 Mbps, 3 ms delay, bursty loss.
    pub fn wireless(p_bad: f64) -> Self {
        LinkCfg {
            bandwidth_bps: 50_000_000,
            delay: Dur::from_millis(3),
            loss: LossModel::wireless(p_bad),
            queue_bytes: 128 * 1024,
            mtu: 2304,
        }
    }

    /// Builder-style override of the bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }
    /// Builder-style override of the propagation delay.
    pub fn with_delay(mut self, d: Dur) -> Self {
        self.delay = d;
        self
    }
    /// Builder-style override of the loss model.
    pub fn with_loss(mut self, l: LossModel) -> Self {
        self.loss = l;
        self
    }
    /// Builder-style override of the queue capacity in bytes.
    pub fn with_queue_bytes(mut self, b: usize) -> Self {
        self.queue_bytes = b;
        self
    }
    /// Builder-style override of the MTU.
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }
}

impl Default for LinkCfg {
    fn default() -> Self {
        LinkCfg::wired()
    }
}

/// Mutable state of one direction of a link.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirState {
    /// Instant at which the transmitter becomes free: the queue holds
    /// what it takes until then at the link's rate.
    pub busy_until: Time,
    /// Loss-channel state.
    pub loss: LossState,
    /// Frames dropped due to queue overflow.
    pub drops_overflow: u64,
    /// Frames dropped by the loss process.
    pub drops_loss: u64,
    /// Frames successfully delivered.
    pub delivered: u64,
    /// Payload bytes successfully delivered.
    pub delivered_bytes: u64,
}

/// A bidirectional point-to-point link between two node interfaces.
#[derive(Debug)]
pub(crate) struct Link {
    pub cfg: LinkCfg,
    /// Endpoints: (node index, iface index within node), for side 0 and 1.
    pub ends: [(u32, u32); 2],
    pub up: bool,
    /// Direction state indexed by the *sending* side (0 or 1).
    pub dir: [DirState; 2],
}

/// Aggregate per-link statistics, as reported by [`crate::Sim::link_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames dropped because the transmit queue was full.
    pub drops_overflow: u64,
    /// Frames dropped by the stochastic loss process (or link-down).
    pub drops_loss: u64,
    /// Frames delivered to the far end.
    pub delivered: u64,
    /// Bytes delivered to the far end.
    pub delivered_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_loss_rate_is_close() {
        let m = LossModel::Bernoulli(0.3);
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let lost = (0..n).filter(|_| m.sample(&mut st, &mut rng)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        let m = LossModel::wireless(0.2);
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(42);
        // Count runs of consecutive losses; bursty loss should produce
        // mean run length clearly above 1.
        let mut runs = vec![];
        let mut cur = 0u32;
        for _ in 0..200_000 {
            if m.sample(&mut st, &mut rng) {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        let mean = runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64;
        assert!(mean > 1.3, "mean loss burst length {mean}");
    }

    #[test]
    fn wireless_ctor_rejects_bad_prob() {
        assert!(std::panic::catch_unwind(|| LossModel::wireless(1.5)).is_err());
    }

    #[test]
    fn none_never_loses() {
        let m = LossModel::None;
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!((0..1000).all(|_| !m.sample(&mut st, &mut rng)));
    }
}
