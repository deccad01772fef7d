//! Connection parameters and policies.
//!
//! The paper's central mechanism/policy split (§8): EFCP is one *mechanism*
//! whose behaviour is tuned per DIF by *policies*. A [`ConnParams`] value is
//! the policy set for one connection; DIFs derive it from the QoS cube a
//! flow was allocated against.

/// Congestion-control policy applied on top of receiver flow control.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CongestionCtrl {
    /// No congestion window; send up to the receiver's credit.
    None,
    /// Additive-increase/multiplicative-decrease with slow start, in PDUs.
    Aimd {
        /// Initial congestion window, in PDUs.
        initial_window: f64,
        /// Slow-start threshold, in PDUs.
        ssthresh: f64,
    },
}

impl CongestionCtrl {
    /// The conventional AIMD configuration.
    pub fn aimd() -> Self {
        CongestionCtrl::Aimd { initial_window: 2.0, ssthresh: 64.0 }
    }
}

/// Policy set for one EFCP connection. All times are virtual nanoseconds so
/// this crate stays independent of any particular clock.
#[derive(Clone, Debug)]
pub struct ConnParams {
    /// Retransmit lost PDUs until acknowledged (DTCP retransmission).
    pub reliable: bool,
    /// Deliver SDUs to the user in sequence order.
    pub ordered: bool,
    /// Window flow control driven by receiver credit.
    pub flow_control: bool,
    /// Receiver credit window, in PDUs ahead of the next expected seq.
    pub credit_window: u64,
    /// Largest PDU payload; larger SDUs are fragmented.
    pub max_pdu_payload: usize,
    /// Initial retransmission timeout, nanoseconds.
    pub rtx_timeout_ns: u64,
    /// Ceiling on the backed-off retransmission timeout, nanoseconds.
    /// Exponential backoff doubles the RTO per expiry; without a cap,
    /// ten expiries on one PDU (long lossy paths) push the next attempt
    /// minutes out. 0 = uncapped.
    pub rtx_max_timeout_ns: u64,
    /// Give up after this many retransmissions of one PDU.
    pub max_rtx: u32,
    /// Congestion control policy.
    pub congestion: CongestionCtrl,
}

impl ConnParams {
    /// A reliable, ordered, flow-controlled connection — the default for
    /// management flows and file-transfer-like QoS cubes.
    pub fn reliable() -> Self {
        ConnParams {
            reliable: true,
            ordered: true,
            flow_control: true,
            credit_window: 256,
            max_pdu_payload: 1400,
            rtx_timeout_ns: 200_000_000,       // 200 ms
            rtx_max_timeout_ns: 5_000_000_000, // 5 s RTO ceiling
            max_rtx: 12,
            congestion: CongestionCtrl::aimd(),
        }
    }

    /// An unreliable, unordered datagram connection — telemetry-like cubes.
    pub fn unreliable() -> Self {
        ConnParams {
            reliable: false,
            ordered: false,
            flow_control: false,
            credit_window: u64::MAX / 4,
            max_pdu_payload: 1400,
            rtx_timeout_ns: 0,
            rtx_max_timeout_ns: 0,
            max_rtx: 0,
            congestion: CongestionCtrl::None,
        }
    }

    /// Tuned for a short-haul lossy segment (the paper's Figure 3 inner
    /// DIF): aggressive local retransmission, small window, and no
    /// congestion window — ARQ over a dedicated segment must not collapse
    /// its rate on channel loss (that is exactly the confusion of loss
    /// signals the scoped layer exists to absorb).
    pub fn short_haul_lossy() -> Self {
        ConnParams {
            rtx_timeout_ns: 15_000_000, // 15 ms: feedback loop is short
            credit_window: 64,
            congestion: CongestionCtrl::None,
            ..ConnParams::reliable()
        }
    }

    /// Builder-style override of the retransmission timeout.
    pub fn with_rtx_timeout_ns(mut self, ns: u64) -> Self {
        self.rtx_timeout_ns = ns;
        self
    }

    /// Builder-style override of the max payload size.
    pub fn with_max_pdu_payload(mut self, n: usize) -> Self {
        assert!(n > 0, "payload size must be positive");
        self.max_pdu_payload = n;
        self
    }

    /// Builder-style override of the receiver credit window (PDUs).
    pub fn with_credit_window(mut self, w: u64) -> Self {
        self.credit_window = w;
        self
    }

    /// Builder-style override of the congestion policy.
    pub fn with_congestion(mut self, c: CongestionCtrl) -> Self {
        self.congestion = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_coherent() {
        let r = ConnParams::reliable();
        assert!(r.reliable && r.ordered && r.flow_control);
        let u = ConnParams::unreliable();
        assert!(!u.reliable && !u.ordered && !u.flow_control);
        let s = ConnParams::short_haul_lossy();
        assert!(s.reliable);
        assert!(s.rtx_timeout_ns < r.rtx_timeout_ns);
    }

    #[test]
    #[should_panic]
    fn zero_payload_rejected() {
        let _ = ConnParams::reliable().with_max_pdu_payload(0);
    }
}
