//! What the whole-network property tests share.

use rina::scenario::Topology;

/// Deterministic topology from a (kind, size, seed) triple. Sizes stay
/// small so 64 debug-mode assemblies per property stay fast.
pub fn topology(kind: u8, n: usize, seed: u64) -> Topology {
    match kind % 5 {
        0 => Topology::line(n),
        1 => Topology::star(n),
        2 => Topology::ring(n.max(3)),
        3 => Topology::tree(2 + (n % 2), 2),
        _ => Topology::barabasi_albert(n.max(4), 2, seed),
    }
}
