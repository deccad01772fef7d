//! DIF-wide configuration: the policy bundle every member shares.
//!
//! A DIF is defined by its name, its membership (authentication) policy,
//! its QoS cubes, and its timescale policies (hello cadence, routing). The
//! same mechanisms run in every DIF; only these values differ — the paper's
//! repeating-structure claim (§4): layers "are not so much isolating
//! different functions … as they are supporting different ranges of the
//! resource-allocation problem".

use crate::naming::DifName;
use crate::qos::QosCube;
use rina_sim::Dur;

/// Membership (enrollment) authentication policy — §6.1's "range of
/// security levels from public … to private".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthPolicy {
    /// Anyone may join (the public-Internet-like degenerate case, §6.7).
    Open,
    /// Joiners must present this pre-shared secret.
    Secret(String),
}

impl AuthPolicy {
    /// Check a presented credential.
    pub fn verify(&self, presented: &str) -> bool {
        match self {
            AuthPolicy::Open => true,
            AuthPolicy::Secret(s) => s == presented,
        }
    }
}

/// Relay/multiplex scheduling discipline for a DIF's RMT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Single FIFO — the best-effort baseline.
    Fifo,
    /// Strict priority by QoS-cube priority.
    Priority,
    /// Deficit-weighted round-robin by QoS-cube weight: weighted sharing
    /// across cubes with no starvation of low-weight lanes.
    Wrr,
}

/// Shared configuration of one DIF.
#[derive(Clone, Debug)]
pub struct DifConfig {
    /// The DIF's external name.
    pub name: DifName,
    /// Membership policy.
    pub auth: AuthPolicy,
    /// Offered QoS cubes (cube 0 must exist: management).
    pub cubes: Vec<QosCube>,
    /// Transmit scheduling discipline. Read only by a shim DIF, whose
    /// (N-1) port owns the paced queue ([`crate::node::Node::add_shim`]);
    /// a member DIF relays into lower flows, owns no queue, and ignores it.
    /// Set it for every link with [`crate::net::NetBuilder::set_shim_sched`].
    pub sched: SchedPolicy,
    /// Neighbor keepalive (hello) period. Narrow-scope DIFs use short
    /// hellos — policies tuned to the range (§4). A shim DIF runs no
    /// hello and ignores it: its medium's up and down events keep its
    /// port.
    pub hello_period: Dur,
    /// How long a sponsor waits after the adjacency of a member whose
    /// record it wrote expires before declaring it failed and
    /// garbage-collecting its RIB objects (member record, LSA, directory
    /// entries) via deletion floods, in milliseconds. The grace must comfortably
    /// exceed a link flap plus re-enrollment, because a purge of a
    /// live member costs one reassert round trip (the owner rewrites
    /// its objects at a higher version).
    pub member_gc_grace_ms: u64,
    /// Replication scope of the `/dir` application-directory subtree.
    /// `false` (default): DIF-wide — every member mirrors every directory
    /// entry, exactly the pre-scope behavior. `true`: **owner-held** —
    /// each member keeps only its own registrations; `/dir` leaves the
    /// digest/delta/flood surface, and flow allocation resolves foreign
    /// names on demand over the spanning tree
    /// ([`crate::msg::MgmtBody::DirLookupRequest`]) with per-member LRU
    /// caching. Tombstones still flood DIF-wide: they are the cache
    /// invalidation channel.
    pub scoped_dir: bool,
    /// Byte capacity of each RMT transmit queue at a paced (N-1) port
    /// (all QoS lanes share it; frames beyond it tail-drop against their
    /// lane's counters). Sized like a host NIC ring: large enough to
    /// absorb sync bursts, small enough that congestion shows up as
    /// scheduling pressure rather than unbounded memory. Like `sched`, read
    /// only by a shim DIF; a member DIF ignores it. Set it for every link
    /// with [`crate::net::NetBuilder::set_shim_queue_cap`].
    pub rmt_queue_cap_bytes: usize,
}

impl DifConfig {
    /// A sensible default configuration for a wide-area DIF.
    pub fn new(name: &str) -> Self {
        DifConfig {
            name: DifName::new(name),
            auth: AuthPolicy::Open,
            cubes: QosCube::standard_set(),
            sched: SchedPolicy::Priority,
            hello_period: Dur::from_millis(500),
            member_gc_grace_ms: 10_000,
            scoped_dir: false,
            rmt_queue_cap_bytes: 8 * 1024 * 1024,
        }
    }

    /// Configuration for a narrow-scope DIF over a lossy medium: short
    /// hellos, local retransmission cubes.
    pub fn wireless(name: &str) -> Self {
        DifConfig {
            cubes: QosCube::wireless_set(),
            hello_period: Dur::from_millis(50),
            ..DifConfig::new(name)
        }
    }

    /// Builder-style auth override.
    pub fn with_auth(mut self, auth: AuthPolicy) -> Self {
        self.auth = auth;
        self
    }

    /// Builder-style cube-set override.
    pub fn with_cubes(mut self, cubes: Vec<QosCube>) -> Self {
        assert!(cubes.iter().any(|c| c.id == 0), "cube 0 (mgmt) is required");
        self.cubes = cubes;
        self
    }

    /// Builder-style cube-set selection by name — the typed front door to
    /// the shipped sets ([`crate::qos::CubeSet`]).
    pub fn with_cube_set(self, set: crate::qos::CubeSet) -> Self {
        self.with_cubes(set.cubes())
    }

    /// Builder-style scheduler override.
    pub fn with_sched(mut self, s: SchedPolicy) -> Self {
        self.sched = s;
        self
    }

    /// Builder-style RMT transmit-queue capacity override, bytes.
    pub fn with_rmt_queue_cap_bytes(mut self, cap: usize) -> Self {
        self.rmt_queue_cap_bytes = cap.max(1500);
        self
    }

    /// Builder-style hello-period override.
    pub fn with_hello_period(mut self, d: Dur) -> Self {
        self.hello_period = d;
        self
    }

    /// Builder-style failure-GC grace override, in milliseconds.
    pub fn with_member_gc_grace_ms(mut self, ms: u64) -> Self {
        self.member_gc_grace_ms = ms;
        self
    }

    /// Builder-style replication-scope override for `/dir`: `true` makes
    /// directory entries owner-held with on-demand lookup instead of
    /// DIF-wide replication.
    pub fn with_scoped_dir(mut self, scoped: bool) -> Self {
        self.scoped_dir = scoped;
        self
    }

    /// Look up a cube by id.
    pub fn cube(&self, id: u8) -> Option<&QosCube> {
        self.cubes.iter().find(|c| c.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_verification() {
        assert!(AuthPolicy::Open.verify(""));
        assert!(AuthPolicy::Open.verify("anything"));
        let s = AuthPolicy::Secret("hunter2".into());
        assert!(s.verify("hunter2"));
        assert!(!s.verify(""));
        assert!(!s.verify("hunter3"));
    }

    #[test]
    fn wireless_config_is_tighter() {
        let w = DifConfig::wireless("w");
        let n = DifConfig::new("n");
        assert!(w.hello_period < n.hello_period);
    }

    #[test]
    #[should_panic]
    fn cube_zero_required() {
        let _ = DifConfig::new("x").with_cubes(vec![]);
    }

    #[test]
    fn dir_scope_defaults_off_and_overrides() {
        let c = DifConfig::new("x");
        assert!(!c.scoped_dir, "scoped /dir is opt-in: default stays fully replicated");
        assert!(c.with_scoped_dir(true).scoped_dir);
    }

    #[test]
    fn cube_lookup() {
        let c = DifConfig::new("x");
        assert_eq!(c.cube(0).unwrap().name, "mgmt");
        assert!(c.cube(200).is_none());
    }
}
