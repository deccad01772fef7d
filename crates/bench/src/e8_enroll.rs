//! E8 (§5.2): the cost of joining a DIF.
//!
//! A chain of members enrolls one hop at a time from the bootstrap.
//! Reported: time for the whole facility to assemble and management
//! messages per member — enrollment is a handshake plus a RIB sync, so
//! cost should grow roughly linearly in members (with the sync set).

use crate::report::{Col, Scalar};
use crate::{row, Scenario, Totals};
use rina::prelude::*;

row! {
    /// One row of the enrollment sweep.
    pub struct EnrollRow {
        /// DIF size (members).
        members: usize,
        /// Virtual time until every member enrolled and adjacencies held (s).
        assemble_s: f64,
        /// Management PDUs sent in total during assembly.
        mgmt_msgs: u64,
        /// Management PDUs per member.
        mgmt_per_member: f64,
    }
}

/// The E8 table of the `experiments` binary.
pub const TABLE: &[Col<EnrollRow>] = &[
    ("members", |r| r.members.cell()),
    ("assemble (s)", |r| r.assemble_s.cell()),
    ("mgmt msgs", |r| r.mgmt_msgs.cell()),
    ("per member", |r| r.mgmt_per_member.cell()),
];

/// Enroll a `k`-member chain and measure.
pub fn run(k: usize, seed: u64) -> EnrollRow {
    let mut s = Scenario::new("e8-enroll-chain", seed);
    let fab = Topology::line(k).materialize(&mut s);
    let ipcps = fab.member_ipcps(&s);
    let run = s.assemble(Dur::from_secs(120), Dur::ZERO);
    let mgmt = Totals::of(&run.net, &ipcps, &[]).mgmt_tx;
    EnrollRow {
        members: k,
        assemble_s: run.assemble_secs(),
        mgmt_msgs: mgmt,
        mgmt_per_member: mgmt as f64 / k as f64,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn enrollment_scales_gently() {
        let small = super::run(3, 71);
        let big = super::run(9, 72);
        assert!(big.assemble_s < 60.0, "assembled in {}", big.assemble_s);
        // Per-member cost must not blow up combinatorially.
        assert!(
            big.mgmt_per_member < small.mgmt_per_member * 20.0,
            "per-member {} vs {}",
            big.mgmt_per_member,
            small.mgmt_per_member
        );
    }
}
