//! Congestion-window state for one sender.

use crate::params::CongestionCtrl;

/// AIMD's initial congestion window, in PDUs.
const INITIAL_WINDOW: f64 = 2.0;
/// AIMD's initial slow-start threshold, in PDUs.
pub(crate) const SSTHRESH: f64 = 64.0;

/// AIMD/slow-start congestion state, measured in PDUs.
#[derive(Clone, Debug)]
pub(crate) struct Cong {
    kind: CongestionCtrl,
    cwnd: f64,
    ssthresh: f64,
}

impl Cong {
    pub fn new(kind: CongestionCtrl) -> Self {
        Cong { kind, cwnd: INITIAL_WINDOW, ssthresh: SSTHRESH }
    }

    /// Current window in PDUs (effectively unlimited when disabled).
    pub fn window(&self) -> u64 {
        match self.kind {
            CongestionCtrl::None => u64::MAX / 4,
            CongestionCtrl::Aimd => self.cwnd.max(1.0) as u64,
        }
    }

    /// `n` PDUs newly acknowledged.
    pub fn on_ack(&mut self, n: u64) {
        if self.kind == CongestionCtrl::Aimd {
            for _ in 0..n {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
        }
    }

    /// A retransmission timeout fired: multiplicative decrease.
    pub fn on_loss(&mut self) {
        if self.kind == CongestionCtrl::Aimd {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = 1.0;
        }
    }

    /// A fast-retransmit (nack) happened: halve, do not collapse.
    pub fn on_fast_retransmit(&mut self) {
        if self.kind == CongestionCtrl::Aimd {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unbounded() {
        let mut c = Cong::new(CongestionCtrl::None);
        assert!(c.window() > 1 << 50);
        c.on_ack(10);
        c.on_loss();
        assert!(c.window() > 1 << 50);
    }

    #[test]
    fn slow_start_doubles_then_linear() {
        let mut c = Cong::new(CongestionCtrl::Aimd);
        assert_eq!(c.window(), 2);
        c.on_ack(2); // 4
        assert_eq!(c.window(), 4);
        c.on_ack(60); // 64 -> at ssthresh
        assert_eq!(c.window(), 64);
        c.on_ack(64); // CA: + ~1/cwnd per ack => just under 65
        assert_eq!(c.window(), 64);
        c.on_ack(2); // crosses 65
        assert_eq!(c.window(), 65);
    }

    #[test]
    fn loss_collapses_fast_rtx_halves() {
        let mut c = Cong::new(CongestionCtrl::Aimd);
        c.on_ack(14); // slow start: 2 -> 16
        c.on_fast_retransmit();
        assert_eq!(c.window(), 8);
        c.on_loss();
        assert_eq!(c.window(), 1);
    }
}
