//! QoS specifications and cubes.
//!
//! Applications request properties ([`QosSpec`]) when allocating a flow —
//! "name the destination application process and specify desired properties
//! for the communication" (§3.1). Each DIF offers a set of [`QosCube`]s:
//! named operating points with concrete EFCP policies and a relay
//! scheduling priority. The flow allocator matches spec to cube.

use rina_efcp::ConnParams;
use rina_wire::codec::{Reader, Writer};
use rina_wire::WireError;

/// Properties an application asks of a flow. Deliberately small: the point
/// is that the application expresses *requirements*, not mechanisms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosSpec {
    /// Every SDU must arrive (retransmission requested).
    pub reliable: bool,
    /// SDUs must arrive in order.
    pub ordered: bool,
    /// 0 = bulk/background … 3 = interactive/control.
    pub urgency: u8,
}

impl QosSpec {
    /// Reliable, ordered, normal urgency — file-transfer-like.
    pub fn reliable() -> Self {
        QosSpec { reliable: true, ordered: true, urgency: 1 }
    }
    /// Unreliable, unordered, normal urgency — telemetry-like.
    pub fn datagram() -> Self {
        QosSpec { reliable: false, ordered: false, urgency: 1 }
    }
    /// Unreliable but urgent — interactive media.
    pub fn interactive() -> Self {
        QosSpec { reliable: false, ordered: true, urgency: 3 }
    }
    /// Encode for carriage in flow-allocation requests.
    pub fn encode_into(&self, w: &mut Writer) {
        w.boolean(self.reliable).boolean(self.ordered).u8(self.urgency);
    }

    /// Decode from a flow-allocation request.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QosSpec { reliable: r.boolean()?, ordered: r.boolean()?, urgency: r.u8()? })
    }
}

/// One operating point a DIF offers: a named policy bundle.
#[derive(Clone, Debug)]
pub struct QosCube {
    /// Cube id, carried in every PDU (`qos_id`).
    pub id: u8,
    /// Human-readable name.
    pub name: String,
    /// EFCP policies for flows in this cube.
    pub params: ConnParams,
    /// Relay scheduling priority (higher = served first).
    pub priority: u8,
    /// Weighted-round-robin share under [`crate::dif::SchedPolicy::Wrr`]
    /// (0 acts as 1). Relative, not absolute: a weight-4 cube gets four
    /// times the bottleneck bytes of a weight-1 cube when both are backlogged.
    pub weight: u32,
}

impl QosCube {
    /// The standard cube set most DIFs start from: management (highest
    /// priority, reliable), reliable bulk, interactive, and datagram. This
    /// is the one cube table; every other shipped set is derived from it.
    pub fn standard_set() -> Vec<QosCube> {
        let cube = |id, name: &str, params, priority, weight| QosCube {
            id,
            name: name.into(),
            params,
            priority,
            weight,
        };
        let interactive = ConnParams { ordered: true, ..ConnParams::unreliable() };
        vec![
            cube(0, "mgmt", ConnParams::reliable(), 7, 4),
            cube(1, "reliable", ConnParams::reliable(), 2, 2),
            cube(2, "interactive", interactive, 5, 4),
            cube(3, "datagram", ConnParams::unreliable(), 1, 1),
        ]
    }

    /// The standard cubes whose ids are in `ids`, in table order.
    fn standard_subset(ids: &[u8]) -> Vec<QosCube> {
        Self::standard_set().into_iter().filter(|c| ids.contains(&c.id)).collect()
    }

    /// A cube set tuned for a short-haul lossy (wireless) DIF: local
    /// retransmission with a short feedback loop — the paper's Figure 3
    /// policy specialization.
    pub fn wireless_set() -> Vec<QosCube> {
        let mut cubes = Self::standard_set();
        for c in &mut cubes {
            if c.params.reliable {
                c.params = ConnParams::short_haul_lossy();
            }
        }
        cubes
    }

    /// The cube set of a shim DIF over a point-to-point medium: the shim
    /// adds no EFCP, so it honestly offers only unreliable service (the
    /// link preserves order; reliability is a higher DIF's job). The
    /// standard mgmt, interactive and datagram cubes.
    pub fn shim_set() -> Vec<QosCube> {
        Self::standard_subset(&[0, 2, 3])
    }

    /// A transit cube set: relays do not retransmit (end-to-end DIFs keep
    /// responsibility) — used as the *baseline* in the Figure 3 experiment.
    /// The standard mgmt and datagram cubes.
    pub fn transit_set() -> Vec<QosCube> {
        Self::standard_subset(&[0, 3])
    }
}

/// A named, typed choice among the cube sets this crate ships — so callers
/// configure a DIF's service offering declaratively
/// ([`crate::dif::DifConfig::with_cube_set`]) instead of hand-assembling
/// `Vec<QosCube>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeSet {
    /// [`QosCube::standard_set`]: mgmt, reliable, interactive, datagram.
    Standard,
    /// [`QosCube::wireless_set`]: standard with short-haul-lossy
    /// retransmission policies.
    Wireless,
    /// [`QosCube::shim_set`]: no EFCP reliability — honest point-to-point
    /// shim offering.
    Shim,
    /// [`QosCube::transit_set`]: relays never retransmit (Figure 3
    /// baseline).
    Transit,
}

impl CubeSet {
    /// Materialize the cube vector.
    pub fn cubes(self) -> Vec<QosCube> {
        match self {
            CubeSet::Standard => QosCube::standard_set(),
            CubeSet::Wireless => QosCube::wireless_set(),
            CubeSet::Shim => QosCube::shim_set(),
            CubeSet::Transit => QosCube::transit_set(),
        }
    }
}

/// Pick the best cube for a spec: all hard requirements satisfied, then
/// least over-provision (don't burn retransmission state on a flow that
/// didn't ask for it), then closest priority to the requested urgency band.
pub fn match_cube<'a>(cubes: &'a [QosCube], spec: &QosSpec) -> Option<&'a QosCube> {
    cubes
        .iter()
        .filter(|c| c.id != 0) // cube 0 is reserved for management
        .filter(|c| (!spec.reliable || c.params.reliable) && (!spec.ordered || c.params.ordered))
        .min_by_key(|c| {
            let want = 1 + spec.urgency as i32 * 2; // map 0..3 to 1..7
            let over = (c.params.reliable && !spec.reliable) as i32
                + (c.params.ordered && !spec.ordered) as i32;
            10 * over + (c.priority as i32 - want).abs()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rina_efcp::CongestionCtrl;

    #[test]
    fn spec_roundtrip() {
        for spec in [QosSpec::reliable(), QosSpec::datagram(), QosSpec::interactive()] {
            let mut w = Writer::new();
            spec.encode_into(&mut w);
            let b = w.finish();
            let mut r = Reader::new(&b);
            assert_eq!(QosSpec::decode_from(&mut r).unwrap(), spec);
        }
    }

    #[test]
    fn matching_respects_hard_requirements() {
        let cubes = QosCube::standard_set();
        let c = match_cube(&cubes, &QosSpec::reliable()).unwrap();
        assert!(c.params.reliable && c.params.ordered);
        let c = match_cube(&cubes, &QosSpec::datagram()).unwrap();
        assert_eq!(c.name, "datagram");
        let c = match_cube(&cubes, &QosSpec::interactive()).unwrap();
        assert_eq!(c.name, "interactive");
    }

    #[test]
    fn matching_never_returns_mgmt_cube() {
        let cubes = QosCube::standard_set();
        for spec in [
            QosSpec { urgency: 3, ..QosSpec::reliable() },
            QosSpec { urgency: 3, ..QosSpec::datagram() },
        ] {
            assert_ne!(match_cube(&cubes, &spec).unwrap().id, 0);
        }
    }

    #[test]
    fn transit_set_cannot_satisfy_reliable() {
        let cubes = QosCube::transit_set();
        assert!(match_cube(&cubes, &QosSpec::reliable()).is_none());
        assert!(match_cube(&cubes, &QosSpec::datagram()).is_some());
    }

    #[test]
    fn wireless_set_shortens_feedback_loop() {
        let std = QosCube::standard_set();
        let wl = QosCube::wireless_set();
        let std_rtx = std.iter().find(|c| c.name == "reliable").unwrap().params.rtx_timeout_ns;
        let wl_rtx = wl.iter().find(|c| c.name == "reliable").unwrap().params.rtx_timeout_ns;
        assert!(wl_rtx < std_rtx);
    }

    /// Every shipped cube set, cube by cube, field by field.
    #[test]
    fn cube_sets_golden() {
        type Row<'a> = (u8, &'a str, u8, u32, bool, bool, u64, u64, &'static str);
        fn row(c: &QosCube) -> Row<'_> {
            let p = &c.params;
            let cong = if p.congestion == CongestionCtrl::None { "none" } else { "aimd" };
            let (rel, ord) = (p.reliable, p.ordered);
            (c.id, &c.name, c.priority, c.weight, rel, ord, p.credit_window, p.rtx_timeout_ns, cong)
        }
        let any = u64::MAX / 4;
        let mgmt = (0, "mgmt", 7, 4, true, true, 256, 200_000_000, "aimd");
        let reliable = (1, "reliable", 2, 2, true, true, 256, 200_000_000, "aimd");
        let interactive = (2, "interactive", 5, 4, false, true, any, 0, "none");
        let datagram = (3, "datagram", 1, 1, false, false, any, 0, "none");
        let lossy = |r: Row<'static>| (r.0, r.1, r.2, r.3, true, true, 64, 15_000_000, "none");
        for (set, want) in [
            (CubeSet::Standard, vec![mgmt, reliable, interactive, datagram]),
            (CubeSet::Wireless, vec![lossy(mgmt), lossy(reliable), interactive, datagram]),
            (CubeSet::Shim, vec![mgmt, interactive, datagram]),
            (CubeSet::Transit, vec![mgmt, datagram]),
        ] {
            let cubes = set.cubes();
            assert_eq!(cubes.iter().map(row).collect::<Vec<_>>(), want, "{set:?}");
        }
    }

    #[test]
    fn congestion_defaults_sane() {
        let cubes = QosCube::standard_set();
        let rel = cubes.iter().find(|c| c.name == "reliable").unwrap();
        assert_eq!(rel.params.congestion, CongestionCtrl::Aimd);
    }
}
