//! The incremental routing engine: one long-lived graph plus dynamic
//! SPF.
//!
//! [`RouteEngine`] owns three things per IPC process:
//!
//! 1. **The graph** — the `/lsa/*` set, updated object by object from
//!    RIB change notifications ([`RouteEngine::on_lsa`]), which puts
//!    each LSA in its canonical form at once: one sorted
//!    `(neighbor, cost)` list over dense indices per node, so confirming
//!    an edge is a binary search and comparing a node's old and new
//!    advertisements is a merge. No decoded copy of the LSAs is kept
//!    beside it; the changed origins' lists from before the batch wait
//!    in the pending set until the next recomputation classifies them.
//! 2. **Dynamic SPF state** — the dense-index distance array and
//!    equal-cost first-hop sets of the last computation. On a batch of
//!    LSA deltas the engine *classifies* every confirmed-edge change
//!    (no-op / cost change / edge add / edge remove) and repairs only
//!    the affected shortest-path region, falling back to a from-scratch
//!    Dijkstra only on pathological changes (region larger than half
//!    the graph). Root-adjacent edges need no special case: the source
//!    distance is pinned at 0, so a changed `src→v` edge classifies
//!    like any other (seeding `v`), and an edge *into* the source can
//!    never be tight or improving (costs are ≥ 1) — which is what lets
//!    a flapped local adjacency take the cheap delta path instead of
//!    the full-recompute floor.
//! 3. **The forwarding table**, updated by *delta*
//!    ([`ForwardingTable::patch`]): only destinations whose distance or
//!    hop set moved are re-aggregated, so a join touching one subtree
//!    costs O(affected), not an O(n log n) table rebuild.
//!
//! ## The repair algorithm
//!
//! For each changed confirmed directed edge `u→v` (both endpoints must
//! advertise a link for it to exist — one-sided LSAs never route):
//!
//! | change                                  | classification |
//! |-----------------------------------------|----------------|
//! | removed / cost↑ on a tight edge         | *closure*-seed `v`: every old shortest-path descendant of `v` may move |
//! | added / cost↓ with `dist(u)+c < dist(v)`| *plain*-seed `v`: the improvement propagates by relaxation |
//! | added / cost↓ with `dist(u)+c = dist(v)`| *closure*-seed `v`: the ECMP hop set changes and propagates downstream |
//! | otherwise                               | no-op |
//!
//! Edges incident to the source follow the same rules (`dist(src) = 0`
//! makes every live `src→v` edge classify exactly; edges into the
//! source never seed because `dist(u)+c ≥ 1 > 0`). Should a repair ever
//! pull the source itself into the dirty region, the engine still bails
//! to a full run — a safety net the classification above makes
//! unreachable, kept because it is cheap.
//!
//! The dirty region (plain seeds ∪ old-DAG closure of closure seeds) is
//! reset and re-run as a bounded Dijkstra seeded from boundary in-edges;
//! strict improvements escaping the region admit the improved node
//! dynamically, and a post-pass expands the region for equal-cost
//! hop-set propagation until a fixpoint. Distances cannot change outside
//! the region by construction: a node whose shortest path crossed the
//! region is an old-DAG descendant of a seed, hence inside it.
//!
//! A repair's working state — the changed origins' old lists, the
//! region's dense marks, the distances and hop sets it saved — is
//! dropped when it returns: an engine between recomputations (one per
//! IPC process, shims included) holds none.
//! Beyond two per-node mark arrays, a repair's cost is its changed
//! origins' degrees plus the region and its boundary.
//!
//! In debug builds every recomputation asserts the result is identical
//! to [`compute_routes`] over the LSAs the graph holds; the crate's
//! proptests pin the same equivalence against LSA sets of their own over
//! random mutation sequences. Costs are
//! assumed `≥ 1` (this DIF stack advertises cost 1 edges): zero-cost
//! edges would make equal-cost hop propagation order-dependent in the
//! reference algorithm itself.

// R1 (DESIGN.md §9): this is a per-PDU protocol path, so a panic site
// is a clippy error; each proven-safe exception is an `#[expect]` with
// its reason on the function that needs it.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use crate::{Addr, ForwardingTable, IntMap, Lsa};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Range;

const UNSEEN: u64 = u64::MAX;

/// One node's advertisements: `(neighbor, cost)` by dense index, sorted
/// by neighbor, one entry per neighbor.
type Adj = Vec<(u32, u32)>;

/// Counters the experiments aggregate per DIF (all deterministic under
/// a fixed seed — the bench gate compares them exactly).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// From-scratch Dijkstra runs (bootstrap, re-rooting after
    /// enrollment, pathological regions).
    pub spf_full: u64,
    /// Incremental repairs (classified delta, bounded region).
    pub spf_incremental: u64,
    /// Destination addresses whose forwarding entry changed via the
    /// delta path (table patches, not wholesale rebuilds).
    pub ft_delta: u64,
}

/// The long-lived routing engine of one IPC process (see module docs).
pub struct RouteEngine {
    self_addr: Addr,
    /// Dense interning of every address ever seen (append-only).
    index: IntMap<Addr, u32>,
    addr_of: Vec<Addr>,
    /// Advertisements per node: its LSA in canonical form (empty without
    /// one). The confirmed directed edge `u→v` exists iff `adv[u]` lists
    /// `v` *and* `adv[v]` lists `u` (cost taken from the direction of
    /// travel).
    adv: Vec<Adj>,
    /// Whether each node holds an LSA, an empty one included.
    has_lsa: Vec<bool>,
    /// How many nodes hold an LSA.
    lsas: usize,
    /// Shortest distance from `self_addr` per node (`UNSEEN` = none).
    dist: Vec<u64>,
    /// Canonical (sorted, deduped) equal-cost first-hop sets, as indices.
    hops: Vec<Vec<u32>>,
    table: ForwardingTable,
    /// Origins whose LSA changed since the last recomputation, each with
    /// its advertisements from before the batch.
    pending: BTreeMap<Addr, Adj>,
    /// A queued change requires a full recomputation (the engine was
    /// re-rooted by `set_self`, or has never computed). Own-LSA changes
    /// deliberately do *not* set this: a local adjacency flap repairs
    /// through the same delta classification as any remote change.
    pending_full: bool,
    computed: bool,
    /// Counters.
    pub stats: EngineStats,
}

impl RouteEngine {
    /// An engine routing from `self_addr` (0 until enrolled — the table
    /// stays empty until an address is set and LSAs arrive).
    pub fn new(self_addr: Addr) -> Self {
        RouteEngine {
            self_addr,
            index: IntMap::default(),
            addr_of: Vec::new(),
            adv: Vec::new(),
            has_lsa: Vec::new(),
            lsas: 0,
            dist: Vec::new(),
            hops: Vec::new(),
            table: ForwardingTable::default(),
            pending: BTreeMap::new(),
            pending_full: false,
            computed: false,
            stats: EngineStats::default(),
        }
    }

    /// (Re)set the engine's own address — enrollment assigns it after
    /// construction. Forces a full recomputation.
    pub fn set_self(&mut self, addr: Addr) {
        if self.self_addr != addr {
            self.self_addr = addr;
            self.pending_full = true;
        }
    }

    /// The current forwarding table.
    pub fn table(&self) -> &ForwardingTable {
        &self.table
    }

    /// Number of LSAs currently held.
    pub fn lsa_count(&self) -> usize {
        self.lsas
    }

    /// Whether queued deltas await a [`RouteEngine::recompute`].
    pub fn dirty(&self) -> bool {
        self.pending_full || !self.pending.is_empty()
    }

    /// Whether the queued work will take the full-recomputation path
    /// (drives the caller's debounce choice: a delta-classified batch
    /// is cheap enough to run on a short timer). True only at bootstrap
    /// (never computed) or after a `set_self` re-root — adjacency
    /// changes, local or remote, classify incrementally.
    pub fn pending_full(&self) -> bool {
        self.pending_full || (!self.computed && !self.pending.is_empty())
    }

    /// Feed one LSA delta from the RIB: `None` deletes `origin`'s LSA
    /// (tombstone), `Some` upserts it. Returns whether the graph
    /// actually moved (re-writes of the same advertisements are absorbed
    /// here).
    pub fn on_lsa(&mut self, origin: Addr, lsa: Option<Lsa>) -> bool {
        // A deletion of an LSA never held interns nothing.
        let Some(lsa) = lsa else {
            let Some(&oi) = self.index.get(&origin) else { return false };
            let Some(held) = self.has_lsa.get_mut(oi as usize).filter(|h| **h) else {
                return false;
            };
            *held = false;
            self.lsas -= 1;
            self.park(origin, oi, Adj::new());
            return true;
        };
        let (oi, list) = adjacency(&mut self.index, &mut self.addr_of, origin, &lsa);
        self.grow();
        let had = self.has_lsa.get_mut(oi as usize).is_some_and(|h| std::mem::replace(h, true));
        if had && self.adv.get(oi as usize) == Some(&list) {
            return false;
        }
        self.lsas += usize::from(!had);
        self.park(origin, oi, list);
        true
    }

    /// Put `list` in `origin`'s place, queuing the origin with the list
    /// it held before the batch (the first one replaced since the last
    /// recomputation).
    fn park(&mut self, origin: Addr, oi: u32, list: Adj) {
        if let Some(slot) = self.adv.get_mut(oi as usize) {
            let old = std::mem::replace(slot, list);
            self.pending.entry(origin).or_insert(old);
        }
    }

    /// Process queued deltas into a fresh table. Returns whether the
    /// table changed. No-op (and `false`) when nothing is queued.
    pub fn recompute(&mut self) -> bool {
        if !self.dirty() {
            return false;
        }
        let pending = std::mem::take(&mut self.pending);
        let full = std::mem::take(&mut self.pending_full) || !self.computed;
        let changed = if full { self.full_rebuild() } else { self.incremental(pending) };
        self.computed = true;
        #[cfg(debug_assertions)]
        {
            let reference = crate::compute_routes(self.self_addr, &self.lsas());
            debug_assert!(
                self.table == reference,
                "incremental SPF diverged from full Dijkstra at {}: {:?} vs {:?}",
                self.self_addr,
                self.table,
                reference
            );
        }
        changed
    }

    /// The LSAs the graph holds, by address: what the debug build's
    /// reference computation reads.
    #[cfg(debug_assertions)]
    fn lsas(&self) -> BTreeMap<Addr, Lsa> {
        let addr = |v: u32| self.addr_of.get(v as usize).copied();
        let held = self.addr_of.iter().zip(&self.adv).zip(&self.has_lsa).filter(|(_, &h)| h);
        held.map(|((&a, list), _)| {
            let neighbors = list.iter().filter_map(|&(v, c)| Some((addr(v)?, c))).collect();
            (a, Lsa { neighbors })
        })
        .collect()
    }

    /// Give every interned node its slot in the index-aligned columns.
    fn grow(&mut self) {
        let n = self.addr_of.len();
        self.adv.resize_with(n, Vec::new);
        self.has_lsa.resize(n, false);
        self.dist.resize(n, UNSEEN);
        self.hops.resize_with(n, Vec::new);
    }

    /// From-scratch path: run full Dijkstra over the graph, swap the
    /// table wholesale.
    #[expect(
        clippy::indexing_slicing,
        reason = "dense-index SPF state: every index comes from intern(), and grow() sizes adv/dist/hops to every interned node before use"
    )]
    fn full_rebuild(&mut self) -> bool {
        self.stats.spf_full += 1;
        let src = intern(&mut self.index, &mut self.addr_of, self.self_addr);
        self.grow();
        self.dist.fill(UNSEEN);
        for h in &mut self.hops {
            h.clear();
        }
        self.dist[src as usize] = 0;
        let mut heap = BinaryHeap::from([Reverse((0, src))]);
        let mut order = Vec::with_capacity(self.addr_of.len());
        while let Some(Reverse((d, u))) = heap.pop() {
            if d != self.dist[u as usize] {
                continue;
            }
            if u != src {
                order.push(u);
            }
            for &(v, c) in &self.adv[u as usize] {
                let nd = d.saturating_add(c as u64);
                if nd < self.dist[v as usize] && cost_to(&self.adv[v as usize], u).is_some() {
                    self.dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        for &v in &order {
            set_hops(&self.adv, &self.dist, &mut self.hops, src, v);
        }
        let new = self.table_from_state(src);
        let changed = new != self.table;
        self.table = new;
        changed
    }

    fn table_from_state(&self, src: u32) -> ForwardingTable {
        let mut next_hops: Vec<(Addr, Vec<Addr>)> = (0..)
            .zip(self.addr_of.iter().zip(&self.dist).zip(&self.hops))
            .filter(|&(vi, ((_, &d), h))| vi != src && d != UNSEEN && !h.is_empty())
            .map(|(_, ((&a, _), h))| (a, self.addrs_of(h)))
            .collect();
        next_hops.sort_unstable_by_key(|&(a, _)| a);
        ForwardingTable::from_next_hops(next_hops)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "maps interned u32 ids (produced by intern) back through addr_of; every interned id is < addr_of.len() by construction"
    )]
    fn addrs_of(&self, hops: &[u32]) -> Vec<Addr> {
        let mut v: Vec<Addr> = hops.iter().map(|&h| self.addr_of[h as usize]).collect();
        v.sort_unstable();
        v
    }

    /// Delta path: classify `pending` into seeds, repair the affected
    /// region, patch the table.
    #[expect(
        clippy::indexing_slicing,
        reason = "dense-index SPF repair over interned slots; debug builds assert byte-identical output against from-scratch compute_routes every recomputation, so an out-of-bounds invariant break cannot ship silently"
    )]
    fn incremental(&mut self, pending: BTreeMap<Addr, Adj>) -> bool {
        // Each changed origin's list from before the batch, for
        // classification and the old-DAG closure; `old_of` finds it by
        // node.
        let olds: Vec<(u32, Adj)> =
            pending.into_iter().map(|(o, old)| (self.index[&o], old)).collect();
        let mut old_of = vec![u32::MAX; self.addr_of.len()];
        for (k, &(oi, _)) in (0..).zip(&olds) {
            old_of[oi as usize] = k;
        }
        let src = self.index[&self.self_addr];
        let old_adv = |x: u32| match old_of[x as usize] {
            u32::MAX => &self.adv[x as usize],
            k => &olds[k as usize].1,
        };

        // Classify every changed *confirmed* directed edge.
        let mut plain: Vec<u32> = Vec::new();
        let mut closure: Vec<u32> = Vec::new();
        let mut any_change = false;
        let dist = &self.dist;
        let mut classify = |u: u32, v: u32, oc: Option<u32>, nc: Option<u32>| {
            if oc == nc {
                return;
            }
            any_change = true;
            // Root-adjacent edges need no special case: dist[src] = 0,
            // so a changed src→v edge seeds v like any other, and an
            // edge into src can never be tight or improving (costs ≥ 1
            // mean du + c ≥ 1 > dist[src] = 0), so src never seeds.
            let du = dist[u as usize];
            if du != UNSEEN {
                if let Some(oc) = oc {
                    if du.saturating_add(oc as u64) == dist[v as usize] {
                        closure.push(v); // lost/changed a tight edge
                    }
                }
                if let Some(nc) = nc {
                    let nd = du.saturating_add(nc as u64);
                    match nd.cmp(&dist[v as usize]) {
                        std::cmp::Ordering::Less => plain.push(v), // strict improvement
                        std::cmp::Ordering::Equal => closure.push(v), // new equal-cost path
                        std::cmp::Ordering::Greater => {}
                    }
                }
            }
        };
        for (a, old_a) in &olds {
            let a = *a;
            for (n, oa, na) in merged(old_a, &self.adv[a as usize]) {
                let on = cost_to(old_adv(n), a);
                let nn = cost_to(&self.adv[n as usize], a);
                // Direction a→n: a's advertised cost, confirmed by n.
                classify(a, n, oa.filter(|_| on.is_some()), na.filter(|_| nn.is_some()));
                // Direction n→a: n's advertised cost, confirmed by a.
                classify(n, a, on.filter(|_| oa.is_some()), nn.filter(|_| na.is_some()));
            }
        }
        if !any_change {
            return false; // version churn with no confirmed-edge change
        }

        // Dirty region: plain seeds plus the old-DAG descendant closure
        // of the closure seeds (nodes whose old shortest paths crossed a
        // changed edge).
        let mut region = Region::new(self.addr_of.len());
        for &x in plain.iter().chain(&closure) {
            region.admit(x, &self.dist, &self.hops);
        }
        let mut stack = closure;
        while let Some(u) = stack.pop() {
            let du = self.dist[u as usize];
            if du == UNSEEN {
                continue;
            }
            for &(w, c) in old_adv(u) {
                let tight = du.saturating_add(c as u64) == self.dist[w as usize]
                    && cost_to(old_adv(w), u).is_some();
                if tight && region.admit(w, &self.dist, &self.hops) {
                    stack.push(w);
                }
            }
        }
        drop(olds);
        if region.contains(src) {
            return self.full_rebuild();
        }

        // Repair to a fixpoint, expanding for equal-cost hop propagation.
        let moved = loop {
            if 2 * region.len() >= self.addr_of.len().max(2) {
                return self.full_rebuild(); // pathological: region ≥ half
            }
            repair_region(&self.adv, src, &mut region, &mut self.dist, &mut self.hops);
            // Expansion: a repaired node whose distance or hop set moved
            // can change the hop sets of equal-cost successors outside
            // the region (strict improvements were admitted during the
            // run; equality cases need the region to grow). Grown nodes'
            // own tight descendants join by the same rule, iterated to a
            // fixpoint.
            let moved = region.moved(&self.dist, &self.hops);
            let mut stack: Vec<u32> = Vec::new();
            for &(v, od) in &moved {
                let dv = self.dist[v as usize];
                for &(w, c) in &self.adv[v as usize] {
                    if region.contains(w) || cost_to(&self.adv[w as usize], v).is_none() {
                        continue;
                    }
                    let dw = self.dist[w as usize];
                    let newly_tight = dv != UNSEEN && dv.saturating_add(c as u64) == dw;
                    let was_tight = od != UNSEEN && od.saturating_add(c as u64) == dw;
                    if (newly_tight || was_tight) && region.admit(w, &self.dist, &self.hops) {
                        stack.push(w);
                    }
                }
            }
            if stack.is_empty() {
                break moved;
            }
            while let Some(u) = stack.pop() {
                let du = self.dist[u as usize];
                for &(w, c) in &self.adv[u as usize] {
                    let tight = du != UNSEEN
                        && du.saturating_add(c as u64) == self.dist[w as usize]
                        && cost_to(&self.adv[w as usize], u).is_some();
                    if tight && region.admit(w, &self.dist, &self.hops) {
                        stack.push(w);
                    }
                }
            }
        };
        self.stats.spf_incremental += 1;

        // Patch only what moved.
        let mut changes: Vec<(Addr, Option<Vec<Addr>>)> = moved
            .iter()
            .filter(|&&(v, _)| v != src)
            .map(|&(v, _)| {
                let h = &self.hops[v as usize];
                let reachable = self.dist[v as usize] != UNSEEN && !h.is_empty();
                (self.addr_of[v as usize], reachable.then(|| self.addrs_of(h)))
            })
            .collect();
        changes.sort_unstable_by_key(|&(a, _)| a);
        let patched = self.table.patch(&changes);
        self.stats.ft_delta += patched as u64;
        patched > 0
    }
}

/// Dense index of `a`, appending it to `addr_of` if new (the
/// index-aligned columns catch up in [`RouteEngine::grow`]).
fn intern(index: &mut IntMap<Addr, u32>, addr_of: &mut Vec<Addr>, a: Addr) -> u32 {
    let next = addr_of.len() as u32;
    *index.entry(a).or_insert_with(|| {
        addr_of.push(a);
        next
    })
}

/// Intern origin `o` and the neighbors of its LSA: `o`'s index and its
/// advertisements in canonical form. A neighbor listed twice keeps its
/// lowest cost — the one the reference Dijkstra relaxes.
fn adjacency(
    index: &mut IntMap<Addr, u32>,
    addr_of: &mut Vec<Addr>,
    o: Addr,
    lsa: &Lsa,
) -> (u32, Adj) {
    let mut list: Adj =
        lsa.neighbors.iter().map(|&(v, c)| (intern(index, addr_of, v), c)).collect();
    list.sort_unstable();
    list.dedup_by_key(|&mut (v, _)| v);
    (intern(index, addr_of, o), list)
}

/// The cost `list` advertises toward `v`, if it lists `v`.
fn cost_to(list: &[(u32, u32)], v: u32) -> Option<u32> {
    let i = list.binary_search_by_key(&v, |&(n, _)| n).ok()?;
    list.get(i).map(|&(_, c)| c)
}

/// Every peer of two advertisement lists, in neighbor order, with its
/// cost in `old` and in `new`.
fn merged<'a>(
    old: &'a [(u32, u32)],
    new: &'a [(u32, u32)],
) -> impl Iterator<Item = (u32, Option<u32>, Option<u32>)> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (old.get(i), new.get(j)) {
            (Some(&(x, c)), Some(&(y, d))) if x == y => (x, Some(c), Some(d)),
            (Some(&(x, c)), n) if n.is_none_or(|&(y, _)| x < y) => (x, Some(c), None),
            (_, Some(&(y, d))) => (y, None, Some(d)),
            _ => return None,
        };
        i += usize::from(next.1.is_some());
        j += usize::from(next.2.is_some());
        Some(next)
    })
}

/// Rewrite `v`'s canonical first-hop set in place: the union of
/// contributions from every tight predecessor, sorted and deduped.
/// Predecessors settle first (costs ≥ 1), so their sets are already
/// final.
#[expect(
    clippy::indexing_slicing,
    reason = "reads dist/hops/adv at interned ids only; slots exist for every interned id by construction"
)]
fn set_hops(adv: &[Adj], dist: &[u64], hops: &mut [Vec<u32>], src: u32, v: u32) {
    let dv = dist[v as usize];
    let mut hs = std::mem::take(&mut hops[v as usize]);
    hs.clear();
    for &(u, _) in &adv[v as usize] {
        let Some(c) = cost_to(&adv[u as usize], v) else { continue };
        let du = dist[u as usize];
        if du == UNSEEN || du.saturating_add(c as u64) != dv {
            continue;
        }
        if u == src {
            hs.push(v);
        } else {
            hs.extend_from_slice(&hops[u as usize]);
        }
    }
    hs.sort_unstable();
    hs.dedup();
    hops[v as usize] = hs;
}

/// The dirty region of one repair, and what its nodes held before it:
/// dense membership marks, the members in admission order with their
/// distance before the repair, and their hop sets back to back in one
/// buffer.
struct Region {
    inside: Vec<bool>,
    members: Vec<(u32, u64, Range<usize>)>,
    old_hops: Vec<u32>,
}

impl Region {
    fn new(nodes: usize) -> Self {
        Region { inside: vec![false; nodes], members: Vec::new(), old_hops: Vec::new() }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, x: u32) -> bool {
        self.inside.get(x as usize).is_some_and(|&m| m)
    }

    fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.members.iter().map(|&(x, _, _)| x)
    }

    /// Admit `x`, saving its current distance and hop set. False if it
    /// was already inside.
    fn admit(&mut self, x: u32, dist: &[u64], hops: &[Vec<u32>]) -> bool {
        let x_ = x as usize;
        let (Some(m), Some(&d), Some(h)) = (self.inside.get_mut(x_), dist.get(x_), hops.get(x_))
        else {
            return false;
        };
        if *m {
            return false;
        }
        *m = true;
        let at = self.old_hops.len();
        self.old_hops.extend_from_slice(h);
        self.members.push((x, d, at..self.old_hops.len()));
        true
    }

    /// The members whose distance or hop set differs from what they
    /// held before the repair, each with its old distance.
    fn moved(&self, dist: &[u64], hops: &[Vec<u32>]) -> Vec<(u32, u64)> {
        self.members
            .iter()
            .filter(|(x, d, r)| {
                let x = *x as usize;
                dist.get(x) != Some(d)
                    || hops.get(x).map(Vec::as_slice) != self.old_hops.get(r.clone())
            })
            .map(|&(x, d, _)| (x, d))
            .collect()
    }
}

/// Reset the dirty region and re-run Dijkstra over it, seeded from
/// boundary in-edges. Strict improvements escaping the region admit the
/// improved node on the fly.
#[expect(
    clippy::indexing_slicing,
    reason = "dense-index Dijkstra repair over interned slots, same invariant as incremental; pinned by the crate's proptests"
)]
fn repair_region(
    adv: &[Adj],
    src: u32,
    region: &mut Region,
    dist: &mut [u64],
    hops: &mut [Vec<u32>],
) {
    for d in region.nodes() {
        dist[d as usize] = UNSEEN;
        hops[d as usize].clear();
    }
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for d in region.nodes() {
        for &(u, _) in &adv[d as usize] {
            let du = dist[u as usize];
            if du == UNSEEN || region.contains(u) {
                continue;
            }
            let Some(c) = cost_to(&adv[u as usize], d) else { continue };
            let nd = du.saturating_add(c as u64);
            if nd < dist[d as usize] {
                dist[d as usize] = nd;
                heap.push(Reverse((nd, d)));
            }
        }
    }
    let mut order: Vec<u32> = Vec::new();
    while let Some(Reverse((nd, v))) = heap.pop() {
        if nd != dist[v as usize] {
            continue;
        }
        order.push(v);
        for &(w, c) in &adv[v as usize] {
            let nw = nd.saturating_add(c as u64);
            if nw < dist[w as usize] && cost_to(&adv[w as usize], v).is_some() {
                // A strict improvement leaving the region: admit the
                // node so its entry (and its successors') repairs too.
                region.admit(w, dist, hops);
                dist[w as usize] = nw;
                heap.push(Reverse((nw, w)));
            }
        }
    }
    for &v in &order {
        set_hops(adv, dist, hops, src, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsa(pairs: &[(Addr, u32)]) -> Lsa {
        Lsa { neighbors: pairs.to_vec() }
    }

    /// Symmetric cost-1 LSA set for an undirected edge list.
    fn feed_graph(e: &mut RouteEngine, edges: &[(Addr, Addr)]) {
        let mut neigh: BTreeMap<Addr, Vec<(Addr, u32)>> = BTreeMap::new();
        for &(a, b) in edges {
            neigh.entry(a).or_default().push((b, 1));
            neigh.entry(b).or_default().push((a, 1));
        }
        for (a, ns) in neigh {
            e.on_lsa(a, Some(Lsa { neighbors: ns }));
        }
    }

    #[test]
    fn bootstrap_is_a_full_run_then_leaf_joins_are_incremental() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 3)]);
        assert!(e.pending_full(), "first computation is full");
        assert!(e.recompute());
        assert_eq!(e.stats.spf_full, 1);
        assert_eq!(e.table().route(3), Some(&[2][..]));

        // A leaf joins at 3: two remote LSA deltas, repaired incrementally.
        e.on_lsa(4, Some(lsa(&[(3, 1)])));
        e.on_lsa(3, Some(lsa(&[(2, 1), (4, 1)])));
        assert!(!e.pending_full(), "remote deltas classify incrementally");
        assert!(e.recompute());
        assert_eq!((e.stats.spf_full, e.stats.spf_incremental), (1, 1));
        assert_eq!(e.stats.ft_delta, 1, "only the new leaf's entry moved");
        assert_eq!(e.table().route(4), Some(&[2][..]));
        assert_eq!(e.table().len(), 3);
    }

    #[test]
    fn own_lsa_change_repairs_incrementally() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2)]);
        e.recompute();
        // A new local adjacency (1-3) is a root-adjacent edge add — the
        // delta classification handles it without the full fallback.
        e.on_lsa(1, Some(lsa(&[(2, 1), (3, 1)])));
        assert!(!e.pending_full(), "own-LSA changes classify incrementally");
        e.on_lsa(3, Some(lsa(&[(1, 1)])));
        e.recompute();
        assert_eq!((e.stats.spf_full, e.stats.spf_incremental), (1, 1));
        assert_eq!(e.table().route(3), Some(&[3][..]));
    }

    #[test]
    fn local_adjacency_flap_takes_the_delta_remove_path() {
        // 1-2-3 plus a direct 1-3: flapping the local 1-3 edge down and
        // back up must re-route 3 via 2 and back, all incrementally
        // (the debug build additionally asserts equality with the
        // from-scratch Dijkstra on every recompute).
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 3), (1, 3)]);
        e.recompute();
        assert_eq!(e.stats.spf_full, 1);
        assert_eq!(e.table().route(3), Some(&[3][..]));

        // Down: withdraw 1-3 from both LSAs (what neighbor expiry does).
        e.on_lsa(1, Some(lsa(&[(2, 1)])));
        e.on_lsa(3, Some(lsa(&[(2, 1)])));
        assert!(!e.pending_full(), "withdrawal is delta-classified");
        assert!(e.recompute());
        assert_eq!(e.table().route(3), Some(&[2][..]), "re-routed via 2");

        // Up: re-advertise the adjacency on both sides.
        e.on_lsa(1, Some(lsa(&[(2, 1), (3, 1)])));
        e.on_lsa(3, Some(lsa(&[(2, 1), (1, 1)])));
        assert!(e.recompute());
        assert_eq!(e.table().route(3), Some(&[3][..]), "direct hop restored");
        assert_eq!(e.stats.spf_full, 1, "no full recompute after bootstrap");
        assert_eq!(e.stats.spf_incremental, 2);
    }

    #[test]
    fn remote_edge_removal_repairs_the_affected_subtree() {
        // 1-2-3-4 and 1-5: cutting 3-4 only touches 4.
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 3), (3, 4), (1, 5)]);
        e.recompute();
        assert_eq!(e.table().len(), 4);
        e.on_lsa(3, Some(lsa(&[(2, 1)])));
        e.on_lsa(4, Some(lsa(&[])));
        assert!(e.recompute());
        assert_eq!(e.stats.spf_incremental, 1);
        assert_eq!(e.table().route(4), None);
        assert_eq!(e.table().route(3), Some(&[2][..]));
        assert_eq!(e.table().len(), 3);
    }

    #[test]
    fn one_sided_withdrawal_kills_the_edge() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 3)]);
        e.recompute();
        // 3 stops advertising 2; 2 still advertises 3 — unusable.
        e.on_lsa(3, Some(lsa(&[])));
        e.recompute();
        assert_eq!(e.table().route(3), None);
    }

    #[test]
    fn deletion_tombstone_removes_the_node() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 3)]);
        e.recompute();
        assert_eq!(e.lsa_count(), 3);
        e.on_lsa(3, None);
        assert!(e.recompute());
        assert_eq!(e.lsa_count(), 2);
        assert_eq!(e.table().route(3), None, "a deleted LSA must not linger");
    }

    #[test]
    fn ecmp_gain_propagates_past_the_seed() {
        // 1-2-4-6 and 1-3-5(-6 later): adding 5-6 gives 6 a second
        // equal-cost first hop, which must propagate even though 6's
        // distance is unchanged.
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2), (2, 4), (4, 6), (1, 3), (3, 5)]);
        e.recompute();
        assert_eq!(e.table().route(6), Some(&[2][..]));
        e.on_lsa(5, Some(lsa(&[(3, 1), (6, 1)])));
        e.on_lsa(6, Some(lsa(&[(4, 1), (5, 1)])));
        e.recompute();
        assert_eq!(e.table().route(6), Some(&[2, 3][..]));
    }

    #[test]
    fn value_identical_rewrite_is_absorbed() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2)]);
        e.recompute();
        assert!(!e.on_lsa(2, Some(lsa(&[(1, 1)]))), "same value: no work queued");
        assert!(!e.dirty());
        assert!(!e.recompute());
    }

    #[test]
    fn unconfirmed_edge_add_is_a_noop() {
        let mut e = RouteEngine::new(1);
        feed_graph(&mut e, &[(1, 2)]);
        e.recompute();
        let (f0, i0) = (e.stats.spf_full, e.stats.spf_incremental);
        // 2 advertises a link to 9, but 9 has no LSA: nothing routes.
        e.on_lsa(2, Some(lsa(&[(1, 1), (9, 1)])));
        assert!(!e.recompute());
        assert_eq!((e.stats.spf_full, e.stats.spf_incremental), (f0, i0), "classified no-op");
        assert_eq!(e.table().route(9), None);
    }

    #[test]
    fn set_self_reroots_the_engine() {
        let mut e = RouteEngine::new(0);
        feed_graph(&mut e, &[(1, 2), (2, 3)]);
        e.recompute();
        assert!(e.table().is_empty(), "no address, no routes");
        e.set_self(3);
        assert!(e.recompute());
        assert_eq!(e.table().route(1), Some(&[2][..]));
    }
}
