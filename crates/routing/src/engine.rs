//! The incremental routing engine: a long-lived graph mirror plus
//! dynamic SPF.
//!
//! [`RouteEngine`] owns three things per IPC process:
//!
//! 1. **A graph mirror** — the decoded `/lsa/*` set, updated object by
//!    object from RIB change notifications ([`RouteEngine::on_lsa`]), so
//!    a recomputation never re-parses LSA values it parsed earlier.
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
//! In debug builds every recomputation asserts the result is identical
//! to [`compute_routes`] over the same mirror; the crate's proptests pin
//! the same equivalence over random mutation sequences. Costs are
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
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

const UNSEEN: u64 = u64::MAX;

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
    /// Decoded `/lsa/*` mirror — the authoritative graph input.
    mirror: BTreeMap<Addr, Lsa>,
    /// Dense interning of every address ever seen (append-only).
    index: IntMap<Addr, u32>,
    addr_of: Vec<Addr>,
    /// Advertised neighbor → cost per node. The confirmed directed edge
    /// `u→v` exists iff `adv[u]` contains `v` *and* `adv[v]` contains
    /// `u` (cost taken from the direction of travel).
    adv: Vec<IntMap<u32, u32>>,
    /// Shortest distance from `self_addr` per node (`UNSEEN` = none).
    dist: Vec<u64>,
    /// Canonical (sorted, deduped) equal-cost first-hop sets, as indices.
    hops: Vec<Vec<u32>>,
    table: ForwardingTable,
    /// Dense dirty-region scratch mask (always all-false between
    /// recomputations — repairs reset exactly the bits they set, so the
    /// hot loops test membership in O(1) without hashing or tree walks).
    mask: Vec<bool>,
    /// Origins whose LSA changed since the last recomputation.
    pending: BTreeSet<Addr>,
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
            mirror: BTreeMap::new(),
            index: IntMap::default(),
            addr_of: Vec::new(),
            adv: Vec::new(),
            dist: Vec::new(),
            hops: Vec::new(),
            table: ForwardingTable::default(),
            mask: Vec::new(),
            pending: BTreeSet::new(),
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

    /// The decoded LSA mirror.
    pub fn mirror(&self) -> &BTreeMap<Addr, Lsa> {
        &self.mirror
    }

    /// Number of LSAs currently mirrored.
    pub fn lsa_count(&self) -> usize {
        self.mirror.len()
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
    /// (tombstone), `Some` upserts it. Returns whether the mirror
    /// actually moved (value-identical re-writes are absorbed here).
    pub fn on_lsa(&mut self, origin: Addr, lsa: Option<Lsa>) -> bool {
        let changed = match &lsa {
            Some(l) => self.mirror.get(&origin) != Some(l),
            None => self.mirror.contains_key(&origin),
        };
        if !changed {
            return false;
        }
        match lsa {
            Some(l) => {
                self.mirror.insert(origin, l);
            }
            None => {
                self.mirror.remove(&origin);
            }
        }
        self.pending.insert(origin);
        true
    }

    fn intern(&mut self, a: Addr) -> u32 {
        let RouteEngine { index, addr_of, adv, dist, hops, .. } = self;
        intern_into(index, addr_of, adv, dist, hops, a)
    }

    /// Process queued deltas into a fresh table. Returns whether the
    /// table changed. No-op (and `false`) when nothing is queued.
    pub fn recompute(&mut self) -> bool {
        if !self.dirty() {
            return false;
        }
        let pending = std::mem::take(&mut self.pending);
        let full = std::mem::take(&mut self.pending_full) || !self.computed;
        let changed = if full { self.full_rebuild() } else { self.incremental(&pending) };
        self.computed = true;
        #[cfg(debug_assertions)]
        {
            let reference = crate::compute_routes(self.self_addr, &self.mirror);
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

    /// From-scratch path: rebuild adjacency from the mirror, run full
    /// Dijkstra, swap the table wholesale.
    #[expect(
        clippy::indexing_slicing,
        reason = "dense-index SPF state: intern() allocates every slot before use, and adv/dist/hops are resized in lockstep by intern_into"
    )]
    fn full_rebuild(&mut self) -> bool {
        self.stats.spf_full += 1;
        self.intern(self.self_addr);
        {
            // Field-split borrow: iterate the mirror while interning —
            // no per-LSA clone on a path the spf_full counter shows runs
            // thousands of times per big assembly.
            let RouteEngine { mirror, index, addr_of, adv, dist, hops, .. } = self;
            for (&o, lsa) in mirror.iter() {
                let mut m = IntMap::default();
                for &(v, c) in &lsa.neighbors {
                    let vi = intern_into(index, addr_of, adv, dist, hops, v);
                    m.insert(vi, c);
                }
                let oi = intern_into(index, addr_of, adv, dist, hops, o) as usize;
                adv[oi] = m;
            }
        }
        // Nodes whose LSA is gone keep their interned slot with no
        // advertisements (no confirmed edges ⇒ unreachable).
        for (i, a) in self.addr_of.iter().enumerate() {
            if !self.mirror.contains_key(a) {
                self.adv[i].clear();
            }
        }
        let src = self.index[&self.self_addr];
        for d in &mut self.dist {
            *d = UNSEEN;
        }
        for h in &mut self.hops {
            h.clear();
        }
        self.dist[src as usize] = 0;
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, src)));
        let mut order = Vec::with_capacity(self.addr_of.len());
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d != self.dist[u as usize] {
                continue;
            }
            if u != src {
                order.push(u);
            }
            for (&v, &c) in &self.adv[u as usize] {
                if !self.adv[v as usize].contains_key(&u) {
                    continue;
                }
                let nd = d.saturating_add(c as u64);
                if nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        for &v in &order {
            self.hops[v as usize] = hop_set(&self.adv, &self.dist, &self.hops, src, v);
        }
        let new = self.table_from_state(src);
        let changed = new != self.table;
        self.table = new;
        changed
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "iterates 0..addr_of.len() over the interned slot arrays, which are kept same-length by construction"
    )]
    fn table_from_state(&self, src: u32) -> ForwardingTable {
        let mut t = ForwardingTable::default();
        let mut changes: BTreeMap<Addr, Option<Vec<Addr>>> = BTreeMap::new();
        for (vi, h) in self.hops.iter().enumerate() {
            if vi as u32 == src || self.dist[vi] == UNSEEN || h.is_empty() {
                continue;
            }
            changes.insert(self.addr_of[vi], Some(self.addrs_of(h)));
        }
        let changes: Vec<_> = changes.into_iter().collect();
        t.patch(&changes);
        t
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
    fn incremental(&mut self, pending: &BTreeSet<Addr>) -> bool {
        // Apply the new advertisements, keeping each changed origin's
        // old map for classification and old-DAG closure.
        let mut old_maps: BTreeMap<u32, IntMap<u32, u32>> = BTreeMap::new();
        {
            let RouteEngine { mirror, index, addr_of, adv, dist, hops, .. } = self;
            for &o in pending {
                let mut new_map = IntMap::default();
                if let Some(l) = mirror.get(&o) {
                    for &(v, c) in &l.neighbors {
                        let vi = intern_into(index, addr_of, adv, dist, hops, v);
                        new_map.insert(vi, c);
                    }
                }
                let oi = intern_into(index, addr_of, adv, dist, hops, o) as usize;
                let old = std::mem::replace(&mut adv[oi], new_map);
                old_maps.insert(oi as u32, old);
            }
        }
        let src = self.index[&self.self_addr];
        let old_adv = |x: u32| old_maps.get(&x).unwrap_or(&self.adv[x as usize]);

        // Classify every changed *confirmed* directed edge.
        let mut plain: BTreeSet<u32> = BTreeSet::new();
        let mut closure: BTreeSet<u32> = BTreeSet::new();
        let mut any_change = false;
        let mut classify = |u: u32, v: u32, oc: Option<u32>, nc: Option<u32>, dist: &[u64]| {
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
                        closure.insert(v); // lost/changed a tight edge
                    }
                }
                if let Some(nc) = nc {
                    let nd = du.saturating_add(nc as u64);
                    match nd.cmp(&dist[v as usize]) {
                        std::cmp::Ordering::Less => {
                            plain.insert(v); // strict improvement
                        }
                        std::cmp::Ordering::Equal => {
                            closure.insert(v); // new equal-cost path
                        }
                        std::cmp::Ordering::Greater => {}
                    }
                }
            }
        };
        for (&ai, old_a) in &old_maps {
            let new_a = &self.adv[ai as usize];
            let mut peers: BTreeSet<u32> = old_a.keys().copied().collect();
            peers.extend(new_a.keys().copied());
            for &n in &peers {
                // Direction a→n: a's advertised cost, confirmed by n.
                let oc = old_a.get(&n).copied().filter(|_| old_adv(n).contains_key(&ai));
                let nc = new_a.get(&n).copied().filter(|_| self.adv[n as usize].contains_key(&ai));
                classify(ai, n, oc, nc, &self.dist);
                // Direction n→a: n's advertised cost, confirmed by a.
                let oc = old_adv(n).get(&ai).copied().filter(|_| old_a.contains_key(&n));
                let nc = self.adv[n as usize].get(&ai).copied().filter(|_| new_a.contains_key(&n));
                classify(n, ai, oc, nc, &self.dist);
            }
        }
        if !any_change {
            return false; // version churn with no confirmed-edge change
        }

        // Dirty region: plain seeds plus the old-DAG descendant closure
        // of the closure seeds (nodes whose old shortest paths crossed a
        // changed edge). The region lives in a dense mask + list — the
        // membership tests below are the hot loops of every repair.
        self.mask.resize(self.addr_of.len(), false);
        let mut mask = std::mem::take(&mut self.mask);
        let mut dirty: Vec<u32> = Vec::new();
        let add = |x: u32, mask: &mut Vec<bool>, dirty: &mut Vec<u32>| {
            if !mask[x as usize] {
                mask[x as usize] = true;
                dirty.push(x);
            }
        };
        for &p in &plain {
            add(p, &mut mask, &mut dirty);
        }
        let mut stack: Vec<u32> = closure.iter().copied().collect();
        for &c in &closure {
            add(c, &mut mask, &mut dirty);
        }
        while let Some(u) = stack.pop() {
            let du = self.dist[u as usize];
            for (&w, &c) in old_adv(u) {
                let tight = old_adv(w).contains_key(&u)
                    && du != UNSEEN
                    && du.saturating_add(c as u64) == self.dist[w as usize];
                if tight && !mask[w as usize] {
                    mask[w as usize] = true;
                    dirty.push(w);
                    stack.push(w);
                }
            }
        }
        drop(old_maps);
        // Hand the scratch back all-false whichever way we leave.
        let reset_mask = |mut mask: Vec<bool>, dirty: &[u32], slot: &mut Vec<bool>| {
            for &d in dirty {
                mask[d as usize] = false;
            }
            *slot = mask;
        };
        if mask[src as usize] {
            reset_mask(mask, &dirty, &mut self.mask);
            return self.full_rebuild();
        }

        // Repair to a fixpoint, expanding for equal-cost hop propagation.
        let mut saved: BTreeMap<u32, (u64, Vec<u32>)> = BTreeMap::new();
        for &d in &dirty {
            saved.insert(d, (self.dist[d as usize], self.hops[d as usize].clone()));
        }
        loop {
            if 2 * dirty.len() >= self.addr_of.len().max(2) {
                reset_mask(mask, &dirty, &mut self.mask);
                return self.full_rebuild(); // pathological: region ≥ half
            }
            repair_region(
                &self.adv,
                src,
                &mut dirty,
                &mut mask,
                &mut saved,
                &mut self.dist,
                &mut self.hops,
            );
            // Expansion: a repaired node whose distance or hop set moved
            // can change the hop sets of equal-cost successors outside
            // the region (strict improvements were admitted during the
            // run; equality cases need the region to grow). Grown nodes'
            // own tight descendants join by the same rule, iterated to a
            // fixpoint.
            let mut grew = false;
            let mut stack: Vec<u32> = Vec::new();
            for (&v, (od, oh)) in &saved {
                let dv = self.dist[v as usize];
                let moved = dv != *od || self.hops[v as usize] != *oh;
                if !moved {
                    continue;
                }
                for (&w, &c) in &self.adv[v as usize] {
                    if mask[w as usize] || !self.adv[w as usize].contains_key(&v) {
                        continue;
                    }
                    let dw = self.dist[w as usize];
                    let newly_tight = dv != UNSEEN && dv.saturating_add(c as u64) == dw;
                    let was_tight = *od != UNSEEN && od.saturating_add(c as u64) == dw;
                    if newly_tight || was_tight {
                        mask[w as usize] = true;
                        dirty.push(w);
                        stack.push(w);
                        grew = true;
                    }
                }
            }
            while let Some(u) = stack.pop() {
                let du = self.dist[u as usize];
                for (&w, &c) in &self.adv[u as usize] {
                    let tight = self.adv[w as usize].contains_key(&u)
                        && !mask[w as usize]
                        && du != UNSEEN
                        && du.saturating_add(c as u64) == self.dist[w as usize];
                    if tight {
                        mask[w as usize] = true;
                        dirty.push(w);
                        stack.push(w);
                    }
                }
            }
            if !grew {
                break;
            }
            for &w in &dirty {
                saved.entry(w).or_insert((self.dist[w as usize], self.hops[w as usize].clone()));
            }
        }
        reset_mask(mask, &dirty, &mut self.mask);
        self.stats.spf_incremental += 1;

        // Patch only what moved.
        let mut changes: BTreeMap<Addr, Option<Vec<Addr>>> = BTreeMap::new();
        for &v in saved.keys() {
            if v == src {
                continue;
            }
            let reachable = self.dist[v as usize] != UNSEEN && !self.hops[v as usize].is_empty();
            changes.insert(
                self.addr_of[v as usize],
                reachable.then(|| self.addrs_of(&self.hops[v as usize])),
            );
        }
        let changes: Vec<_> = changes.into_iter().collect();
        let patched = self.table.patch(&changes);
        self.stats.ft_delta += patched as u64;
        patched > 0
    }
}

/// Intern `a` into the engine's dense index, growing every
/// index-aligned column (borrow-split form so callers can iterate one
/// field while interning into the others).
fn intern_into(
    index: &mut IntMap<Addr, u32>,
    addr_of: &mut Vec<Addr>,
    adv: &mut Vec<IntMap<u32, u32>>,
    dist: &mut Vec<u64>,
    hops: &mut Vec<Vec<u32>>,
    a: Addr,
) -> u32 {
    let next = addr_of.len() as u32;
    let i = *index.entry(a).or_insert(next);
    if i == next {
        addr_of.push(a);
        adv.push(IntMap::default());
        dist.push(UNSEEN);
        hops.push(Vec::new());
    }
    i
}

/// Canonical first-hop set of `v`: the union of contributions from
/// every tight predecessor, sorted and deduped. Predecessors settle
/// first (costs ≥ 1), so their sets are already final.
#[expect(
    clippy::indexing_slicing,
    reason = "reads dist/hops/adv at interned ids only; slots exist for every interned id by construction"
)]
fn hop_set(
    adv: &[IntMap<u32, u32>],
    dist: &[u64],
    hops: &[Vec<u32>],
    src: u32,
    v: u32,
) -> Vec<u32> {
    let dv = dist[v as usize];
    let mut hs: Vec<u32> = Vec::new();
    for &u in adv[v as usize].keys() {
        let Some(&c) = adv[u as usize].get(&v) else { continue };
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
    hs
}

/// Reset the dirty region and re-run Dijkstra over it, seeded from
/// boundary in-edges. Strict improvements escaping the region admit the
/// improved node (into `dirty`, `mask`, and `saved`) on the fly.
#[expect(
    clippy::indexing_slicing,
    reason = "dense-index Dijkstra repair over interned slots, same invariant as incremental; pinned by the crate's proptests"
)]
fn repair_region(
    adv: &[IntMap<u32, u32>],
    src: u32,
    dirty: &mut Vec<u32>,
    mask: &mut [bool],
    saved: &mut BTreeMap<u32, (u64, Vec<u32>)>,
    dist: &mut [u64],
    hops: &mut [Vec<u32>],
) {
    for &d in dirty.iter() {
        dist[d as usize] = UNSEEN;
        hops[d as usize].clear();
    }
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    for &d in dirty.iter() {
        for &u in adv[d as usize].keys() {
            if mask[u as usize] {
                continue;
            }
            let Some(&c) = adv[u as usize].get(&d) else { continue };
            let du = dist[u as usize];
            if du == UNSEEN {
                continue;
            }
            let nd = du.saturating_add(c as u64);
            if nd < dist[d as usize] {
                dist[d as usize] = nd;
                heap.push(std::cmp::Reverse((nd, d)));
            }
        }
    }
    let mut order: Vec<u32> = Vec::new();
    while let Some(std::cmp::Reverse((nd, v))) = heap.pop() {
        if nd != dist[v as usize] {
            continue;
        }
        order.push(v);
        for (&w, &c) in &adv[v as usize] {
            if !adv[w as usize].contains_key(&v) {
                continue;
            }
            let nw = nd.saturating_add(c as u64);
            if nw < dist[w as usize] {
                if !mask[w as usize] {
                    // A strict improvement leaving the region: admit the
                    // node so its entry (and its successors') repairs too.
                    saved.entry(w).or_insert((dist[w as usize], hops[w as usize].clone()));
                    mask[w as usize] = true;
                    dirty.push(w);
                }
                dist[w as usize] = nw;
                heap.push(std::cmp::Reverse((nw, w)));
            }
        }
    }
    for &v in &order {
        hops[v as usize] = hop_set(adv, dist, hops, src, v);
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
