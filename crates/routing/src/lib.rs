//! # rina-routing — routing within one DIF, as a maintained data structure
//!
//! Routing runs over the RIB: every member floods a link-state object
//! (`/lsa/<addr>`) listing its neighbor addresses and costs. Each member
//! turns the collected LSAs into a [`ForwardingTable`] mapping destination
//! address → equal-cost *next-hop addresses*.
//!
//! Crucially — and this is the paper's resolution of multihoming (§6.3) —
//! the table stops at the next hop. Choosing *which (N-1) path* reaches the
//! next hop (which underlying port/point-of-attachment) is a second,
//! separate step performed at transmission time against the live set of
//! (N-1) flows. A PoA failing therefore never invalidates the route, only
//! the local binding.
//!
//! Two ways to produce the table live here:
//!
//! * [`compute_routes`] — one from-scratch Dijkstra over a full LSA set.
//!   The reference semantics, and the fallback.
//! * [`RouteEngine`] — the long-lived per-IPCP engine: one graph of
//!   canonical advertisement lists fed by LSA *deltas*, dynamic SPF that repairs
//!   only the affected shortest-path region, and delta application into the
//!   forwarding table ([`ForwardingTable::patch`]). A join that touches one
//!   subtree no longer costs a DIF-wide recomputation at every member.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

use bytes::Bytes;
use rina_wire::codec::{Reader, Writer};
pub use rina_wire::Addr;
use rina_wire::WireError;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{BuildHasherDefault, Hasher};

mod engine;
pub use engine::{EngineStats, RouteEngine};

/// Multiply-xor hasher for the integer-keyed maps of the route
/// computation. SPF runs once per debounce window per member —
/// thousands of times during a big assembly — and SipHash was the
/// single largest line item in those runs. Keys are small integers the
/// simulation controls, so DoS resistance buys nothing here.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 27);
    }
}

/// Integer-keyed map of the SPF internals.
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher: iteration order is a pure function of the operation sequence"
)]
pub(crate) type IntMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// Integer-keyed set of the SPF internals.
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher: iteration order is a pure function of the operation sequence"
)]
pub(crate) type IntSet<K> = std::collections::HashSet<K, BuildHasherDefault<IntHasher>>;

/// RIB object name prefix for link-state advertisements.
pub const LSA_PREFIX: &str = "/lsa/";
/// RIB object class for link-state advertisements.
pub const LSA_CLASS: &str = "lsa";

/// The value of one member's link-state advertisement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lsa {
    /// (neighbor address, cost) pairs.
    pub neighbors: Vec<(Addr, u32)>,
}

impl Lsa {
    /// Encode as a RIB object value.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(2 + self.neighbors.len() * 6);
        w.varint(self.neighbors.len() as u64);
        for &(a, c) in &self.neighbors {
            w.varint(a).varint(c as u64);
        }
        w.finish()
    }

    /// Decode from a RIB object value. A neighbor listed twice is
    /// refused: which of its costs counts would be a guess.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let n = r.varint()? as usize;
        let mut neighbors = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            let a = r.varint()?;
            let c = u32::try_from(r.varint()?).map_err(|_| WireError::Invalid("lsa cost"))?;
            neighbors.push((a, c));
        }
        r.expect_end()?;
        // Members advertise in address order, so the copy is the rare case.
        if !neighbors.windows(2).all(|w| w[0].0 < w[1].0) {
            let mut addrs: Vec<Addr> = neighbors.iter().map(|&(a, _)| a).collect();
            addrs.sort_unstable();
            if addrs.windows(2).any(|w| w[0] == w[1]) {
                return Err(WireError::Invalid("lsa neighbor repeated"));
            }
        }
        Ok(Lsa { neighbors })
    }

    /// RIB object name for the LSA of `addr`.
    pub fn object_name(addr: Addr) -> String {
        format!("{LSA_PREFIX}{addr}")
    }

    /// The member address an LSA object name advertises for, if the name
    /// is well-formed (`/lsa/<addr>`).
    pub fn addr_of_name(name: &str) -> Option<Addr> {
        name.strip_prefix(LSA_PREFIX)?.parse().ok()
    }
}

/// Destination → equal-cost next-hop addresses (step one of two).
///
/// Stored **range-compressed**: maximal runs of consecutive destination
/// addresses sharing one next-hop set collapse into a single
/// `[lo, hi] → hops` entry. When member addresses are assigned from
/// per-subtree prefix blocks (the enrollment planner's DFS numbering), a
/// whole remote subtree is one contiguous block behind one next hop, so
/// the *aggregated* table size tracks the local degree rather than the
/// DIF's member count. Lookup semantics are unchanged: only addresses
/// that were actually reachable at compute time resolve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForwardingTable {
    /// Sorted, disjoint `(lo, hi, hops)` ranges over present destinations.
    ranges: Vec<(Addr, Addr, Vec<Addr>)>,
}

impl ForwardingTable {
    /// Build from per-destination next hops in ascending destination
    /// order, merging consecutive addresses with identical hop sets.
    fn from_next_hops(sorted: impl IntoIterator<Item = (Addr, Vec<Addr>)>) -> Self {
        let mut ranges: Vec<(Addr, Addr, Vec<Addr>)> = Vec::new();
        for (addr, hops) in sorted {
            match ranges.last_mut() {
                Some((_, hi, h)) if *hi + 1 == addr && *h == hops => *hi = addr,
                _ => ranges.push((addr, addr, hops)),
            }
        }
        ForwardingTable { ranges }
    }

    /// Next-hop candidates toward `dest`, best first. Empty/None if
    /// unreachable.
    pub fn route(&self, dest: Addr) -> Option<&[Addr]> {
        let i = self.ranges.partition_point(|&(lo, _, _)| lo <= dest);
        let (_, hi, hops) = self.ranges.get(i.checked_sub(1)?)?;
        if dest <= *hi {
            Some(hops.as_slice())
        } else {
            None
        }
    }

    /// Number of reachable destination addresses (the routing-table-size
    /// metric of the scalability experiment, §6.5).
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(lo, hi, _)| (hi - lo + 1) as usize).sum()
    }

    /// Number of stored range entries after aggregation — the state a
    /// member actually holds. With prefix-block addressing this is far
    /// below [`ForwardingTable::len`].
    pub fn aggregated_len(&self) -> usize {
        self.ranges.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// All reachable destinations.
    pub fn destinations(&self) -> impl Iterator<Item = Addr> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi, _)| lo..=hi)
    }

    /// Apply per-destination changes — `Some(hops)` upserts an entry,
    /// `None` removes it — re-aggregating only around the touched
    /// addresses. `changes` must be sorted by address with unique keys
    /// (a `BTreeMap` iterator qualifies). Cost is
    /// O(aggregated entries + changes), **not** O(destinations): the
    /// delta path that lets a join touching one subtree skip rebuilding
    /// and re-sorting the whole table. Returns how many destination
    /// addresses actually changed (no-op changes are not counted).
    ///
    /// The result is canonical: byte-identical to a full rebuild with
    /// the same final contents (pinned by the crate's proptests).
    pub fn patch(&mut self, changes: &[(Addr, Option<Vec<Addr>>)]) -> usize {
        debug_assert!(changes.windows(2).all(|w| w[0].0 < w[1].0), "changes sorted & unique");
        if changes.is_empty() {
            return 0;
        }
        let mut out: Vec<(Addr, Addr, Vec<Addr>)> = Vec::with_capacity(self.ranges.len() + 4);
        // Emit one destination (or a whole untouched run) into `out`,
        // merging with the previous entry when contiguous and equal.
        fn push_run(out: &mut Vec<(Addr, Addr, Vec<Addr>)>, lo: Addr, hi: Addr, hops: Vec<Addr>) {
            match out.last_mut() {
                Some((_, phi, ph)) if *phi + 1 == lo && *ph == hops => *phi = hi,
                _ => out.push((lo, hi, hops)),
            }
        }
        let mut changed = 0usize;
        let mut ch = changes.iter().peekable();
        for (lo, hi, hops) in std::mem::take(&mut self.ranges) {
            // Changes strictly before this range are pure inserts.
            while let Some(&&(a, ref new)) = ch.peek() {
                if a >= lo {
                    break;
                }
                if let Some(h) = new {
                    push_run(&mut out, a, a, h.clone());
                    changed += 1;
                }
                ch.next();
            }
            // Walk the range, splitting at touched addresses.
            let mut cur = lo;
            while let Some(&&(a, ref new)) = ch.peek() {
                if a > hi {
                    break;
                }
                if a > cur {
                    push_run(&mut out, cur, a - 1, hops.clone());
                }
                match new {
                    Some(h) => {
                        if *h != hops {
                            changed += 1;
                        }
                        push_run(&mut out, a, a, h.clone());
                    }
                    None => changed += 1,
                }
                cur = a + 1;
                ch.next();
            }
            if cur <= hi {
                push_run(&mut out, cur, hi, hops);
            }
        }
        // Changes past the last range are pure inserts.
        for (a, new) in ch {
            if let Some(h) = new {
                push_run(&mut out, *a, *a, h.clone());
                changed += 1;
            }
        }
        self.ranges = out;
        changed
    }
}

/// Compute the forwarding table at `self_addr` from a set of LSAs
/// (`origin address → Lsa`). An edge is used only if *both* endpoints
/// advertise it, so a one-sided stale LSA cannot route into a dead link.
///
/// This is the reference semantics: [`RouteEngine`] must produce (and in
/// debug builds asserts) byte-identical tables while doing only
/// delta-proportional work.
pub fn compute_routes(self_addr: Addr, lsas: &BTreeMap<Addr, Lsa>) -> ForwardingTable {
    // Addresses are mapped to dense indices and the whole computation
    // runs over Vec-indexed state: a member of a big DIF recomputes
    // thousands of times during assembly (debounced, but still once per
    // window per member), so per-run constant factors dominate the
    // facility's assembly wall clock.
    let mut index: IntMap<Addr, u32> =
        IntMap::with_capacity_and_hasher(lsas.len() + 1, Default::default());
    let mut addr_of: Vec<Addr> = Vec::with_capacity(lsas.len() + 1);
    let mut intern = |a: Addr, addr_of: &mut Vec<Addr>| -> u32 {
        *index.entry(a).or_insert_with(|| {
            addr_of.push(a);
            (addr_of.len() - 1) as u32
        })
    };
    let src = intern(self_addr, &mut addr_of);
    // Bidirectional confirmation against a set of all advertised
    // directed edges — O(E) overall, not O(Σ degree²).
    let mut directed: IntSet<u64> =
        IntSet::with_capacity_and_hasher(lsas.len() * 4, Default::default());
    for (&u, lsa) in lsas {
        let ui = intern(u, &mut addr_of);
        for &(v, _) in &lsa.neighbors {
            let vi = intern(v, &mut addr_of);
            directed.insert(((ui as u64) << 32) | vi as u64);
        }
    }
    let n = addr_of.len();
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (&u, lsa) in lsas {
        let ui = index[&u];
        for &(v, c) in &lsa.neighbors {
            let vi = index[&v];
            if directed.contains(&(((vi as u64) << 32) | ui as u64)) {
                adj[ui as usize].push((vi, c));
            }
        }
    }

    // Dijkstra with predecessor sets for equal-cost multipath.
    const UNSEEN: u64 = u64::MAX;
    let mut dist = vec![UNSEEN; n];
    let mut first_hops: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(std::cmp::Reverse((0, src)));

    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u as usize] != d {
            continue; // stale heap entry
        }
        // First hops propagate: the first hop to v via u is u itself if
        // u is the source, else u's first hops (cloned once per settled
        // node, before its edges are relaxed).
        let u_hops = first_hops[u as usize].clone();
        let edges = std::mem::take(&mut adj[u as usize]);
        for &(v, c) in &edges {
            let nd = d + c as u64;
            let cur = dist[v as usize];
            if nd > cur {
                continue;
            }
            let hops_via_u: Vec<u32> = if u == src { vec![v] } else { u_hops.clone() };
            if nd == cur {
                let e = &mut first_hops[v as usize];
                for h in hops_via_u {
                    if !e.contains(&h) {
                        e.push(h);
                    }
                }
            } else {
                dist[v as usize] = nd;
                first_hops[v as usize] = hops_via_u;
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }

    let mut next_hops: BTreeMap<Addr, Vec<Addr>> = BTreeMap::new();
    for (vi, hops) in first_hops.into_iter().enumerate() {
        if vi as u32 == src || dist[vi] == UNSEEN || hops.is_empty() {
            continue;
        }
        let mut hops: Vec<Addr> = hops.into_iter().map(|h| addr_of[h as usize]).collect();
        hops.sort_unstable();
        next_hops.insert(addr_of[vi], hops);
    }
    ForwardingTable::from_next_hops(next_hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsa(pairs: &[(Addr, u32)]) -> Lsa {
        Lsa { neighbors: pairs.to_vec() }
    }

    fn lsas(entries: &[(Addr, &[(Addr, u32)])]) -> BTreeMap<Addr, Lsa> {
        entries.iter().map(|&(a, ns)| (a, lsa(ns))).collect()
    }

    #[test]
    fn lsa_roundtrip() {
        let l = lsa(&[(2, 1), (3, 10)]);
        assert_eq!(Lsa::decode(&l.encode()).unwrap(), l);
        assert_eq!(Lsa::decode(&Lsa::default().encode()).unwrap(), Lsa::default());
    }

    #[test]
    fn lsa_decode_refuses_a_repeated_neighbor() {
        let unsorted = lsa(&[(3, 1), (2, 1)]);
        assert_eq!(Lsa::decode(&unsorted.encode()).unwrap(), unsorted);
        let twice = lsa(&[(2, 1), (3, 3), (2, 5)]).encode();
        assert!(matches!(Lsa::decode(&twice), Err(WireError::Invalid("lsa neighbor repeated"))));
    }

    #[test]
    fn line_routes() {
        // 1 - 2 - 3
        let m = lsas(&[(1, &[(2, 1)]), (2, &[(1, 1), (3, 1)]), (3, &[(2, 1)])]);
        let t = compute_routes(1, &m);
        assert_eq!(t.route(2), Some(&[2][..]));
        assert_eq!(t.route(3), Some(&[2][..]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn picks_cheaper_path() {
        // 1-2-4 cost 2, 1-3-4 cost 11.
        let m = lsas(&[
            (1, &[(2, 1), (3, 1)]),
            (2, &[(1, 1), (4, 1)]),
            (3, &[(1, 1), (4, 10)]),
            (4, &[(2, 1), (3, 10)]),
        ]);
        let t = compute_routes(1, &m);
        assert_eq!(t.route(4), Some(&[2][..]));
    }

    #[test]
    fn equal_cost_multipath_lists_both() {
        // Diamond: 1-2-4 and 1-3-4, all cost 1.
        let m = lsas(&[
            (1, &[(2, 1), (3, 1)]),
            (2, &[(1, 1), (4, 1)]),
            (3, &[(1, 1), (4, 1)]),
            (4, &[(2, 1), (3, 1)]),
        ]);
        let t = compute_routes(1, &m);
        assert_eq!(t.route(4), Some(&[2, 3][..]));
    }

    #[test]
    fn one_sided_lsa_not_used() {
        // 2 still claims a link to 3, but 3 no longer lists 2.
        let m = lsas(&[(1, &[(2, 1)]), (2, &[(1, 1), (3, 1)]), (3, &[])]);
        let t = compute_routes(1, &m);
        assert_eq!(t.route(3), None);
        assert_eq!(t.route(2), Some(&[2][..]));
    }

    #[test]
    fn unreachable_absent() {
        let m = lsas(&[(1, &[(2, 1)]), (2, &[(1, 1)]), (7, &[(8, 1)]), (8, &[(7, 1)])]);
        let t = compute_routes(1, &m);
        assert!(t.route(7).is_none());
        assert!(t.route(8).is_none());
    }

    #[test]
    fn empty_input_empty_table() {
        let t = compute_routes(1, &BTreeMap::new());
        assert!(t.is_empty());
    }

    #[test]
    fn object_names() {
        assert_eq!(Lsa::object_name(17), "/lsa/17");
        assert_eq!(Lsa::addr_of_name("/lsa/17"), Some(17));
        assert_eq!(Lsa::addr_of_name("/dir/17"), None);
        assert_eq!(Lsa::addr_of_name("/lsa/x"), None);
    }

    #[test]
    fn contiguous_destinations_aggregate_into_ranges() {
        // 1 - 2 - 3 - 4 - 5: from 1, destinations 2..=5 all go via 2.
        let m = lsas(&[
            (1, &[(2, 1)]),
            (2, &[(1, 1), (3, 1)]),
            (3, &[(2, 1), (4, 1)]),
            (4, &[(3, 1), (5, 1)]),
            (5, &[(4, 1)]),
        ]);
        let t = compute_routes(1, &m);
        assert_eq!(t.len(), 4);
        assert_eq!(t.aggregated_len(), 1, "one range entry for the whole chain");
        for d in 2..=5 {
            assert_eq!(t.route(d), Some(&[2][..]));
        }
        // Interior member: destinations split left/right into two ranges.
        let t3 = compute_routes(3, &m);
        assert_eq!(t3.len(), 4);
        assert_eq!(t3.aggregated_len(), 2);
    }

    #[test]
    fn gaps_and_hop_changes_split_ranges() {
        // 1 - 2, 1 - 4 (address 3 does not exist): ranges must not bridge
        // the gap, and different next hops never merge.
        let m = lsas(&[(1, &[(2, 1), (4, 1)]), (2, &[(1, 1)]), (4, &[(1, 1)])]);
        let t = compute_routes(1, &m);
        assert_eq!(t.aggregated_len(), 2);
        assert_eq!(t.route(2), Some(&[2][..]));
        assert_eq!(t.route(3), None, "absent address inside the span stays absent");
        assert_eq!(t.route(4), Some(&[4][..]));
        let dests: Vec<Addr> = t.destinations().collect();
        assert_eq!(dests, vec![2, 4]);
    }

    /// Rebuild a table from sorted entries (the reference for patch tests).
    fn table_of(entries: &[(Addr, &[Addr])]) -> ForwardingTable {
        ForwardingTable::from_next_hops(entries.iter().map(|&(a, h)| (a, h.to_vec())))
    }

    #[test]
    fn patch_upserts_removes_and_reaggregates() {
        let mut t = table_of(&[(2, &[2]), (3, &[2]), (4, &[2]), (6, &[6])]);
        assert_eq!(t.aggregated_len(), 2);
        // Remove the middle of the run, retarget 6, insert 5 and 9.
        let n = t.patch(&[(3, None), (5, Some(vec![6])), (6, Some(vec![2])), (9, Some(vec![2]))]);
        assert_eq!(n, 4);
        let want = table_of(&[(2, &[2]), (4, &[2]), (5, &[6]), (6, &[2]), (9, &[2])]);
        assert_eq!(t, want, "patched table is canonical");
        // A no-op change counts nothing and changes nothing.
        let before = t.clone();
        assert_eq!(t.patch(&[(2, Some(vec![2])), (7, None)]), 0);
        assert_eq!(t, before);
    }

    #[test]
    fn patch_merges_across_filled_gap() {
        let mut t = table_of(&[(2, &[2]), (4, &[2])]);
        assert_eq!(t.aggregated_len(), 2);
        assert_eq!(t.patch(&[(3, Some(vec![2]))]), 1);
        assert_eq!(t.aggregated_len(), 1, "filling the gap re-merges the run");
        assert_eq!(t, table_of(&[(2, &[2]), (3, &[2]), (4, &[2])]));
    }

    #[test]
    fn patch_on_empty_table_inserts() {
        let mut t = ForwardingTable::default();
        assert_eq!(t.patch(&[(5, Some(vec![1])), (6, Some(vec![1])), (8, None)]), 2);
        assert_eq!(t, table_of(&[(5, &[1]), (6, &[1])]));
    }
}
