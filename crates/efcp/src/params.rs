//! Connection parameters and policies.
//!
//! The paper's central mechanism/policy split (§8): EFCP is one *mechanism*
//! whose behaviour is tuned per DIF by *policies*. A [`ConnParams`] value is
//! the policy set for one connection; DIFs derive it from the QoS cube a
//! flow was allocated against. It holds only what some DIF sets
//! differently; what every connection shares is a constant beside the code
//! that reads it ([`crate::MAX_PDU_PAYLOAD`], [`crate::RTX_MAX_TIMEOUT`],
//! [`crate::MAX_RTX`], [`crate::ACK_DELAY`], and AIMD's initial window and
//! slow-start threshold).

/// Congestion-control policy applied on top of receiver flow control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionCtrl {
    /// No congestion window; send up to the receiver's credit.
    None,
    /// Additive-increase/multiplicative-decrease with slow start, in PDUs.
    Aimd,
}

/// Policy set for one EFCP connection. All times are virtual nanoseconds so
/// this crate stays independent of any particular clock.
#[derive(Clone, Debug)]
pub struct ConnParams {
    /// Retransmit lost PDUs until acknowledged (DTCP retransmission), with
    /// window flow control driven by receiver credit.
    pub reliable: bool,
    /// Deliver SDUs to the user in sequence order.
    pub ordered: bool,
    /// Receiver credit window, in PDUs ahead of the next expected seq.
    pub credit_window: u64,
    /// Initial retransmission timeout, nanoseconds.
    pub rtx_timeout_ns: u64,
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
            credit_window: 256,
            rtx_timeout_ns: 200_000_000, // 200 ms
            congestion: CongestionCtrl::Aimd,
        }
    }

    /// An unreliable, unordered datagram connection — telemetry-like cubes.
    /// Its credit never binds.
    pub fn unreliable() -> Self {
        ConnParams {
            reliable: false,
            ordered: false,
            credit_window: u64::MAX / 4,
            rtx_timeout_ns: 0,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_coherent() {
        let r = ConnParams::reliable();
        assert!(r.reliable && r.ordered);
        let u = ConnParams::unreliable();
        assert!(!u.reliable && !u.ordered);
        let s = ConnParams::short_haul_lossy();
        assert!(s.reliable);
        assert!(s.rtx_timeout_ns < r.rtx_timeout_ns);
    }
}
