//! The tentpole invariant of the routing engine: after any sequence of
//! LSA mutations (edge add / edge remove / cost change / one-sided
//! withdrawal / whole-LSA deletion), the incrementally repaired
//! forwarding table is **byte-identical** to a from-scratch
//! [`compute_routes`] over the test's own model of the LSA set — built
//! apart from anything the engine holds — equal-cost next-hop sets
//! included.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rina_routing::{compute_routes, Addr, Lsa, RouteEngine};
use std::collections::{BTreeMap, BTreeSet};

/// Advertisement model: origin → (neighbor → cost). A row's presence is
/// "this member has a (possibly empty) LSA"; absence is a deleted LSA.
type Model = BTreeMap<Addr, BTreeMap<Addr, u32>>;

fn lsa_of(row: &BTreeMap<Addr, u32>) -> Lsa {
    Lsa { neighbors: row.iter().map(|(&a, &c)| (a, c)).collect() }
}

/// The model's LSA set, as the reference computation reads it.
fn lsas(model: &Model) -> BTreeMap<Addr, Lsa> {
    model.iter().map(|(&a, row)| (a, lsa_of(row))).collect()
}

/// The counters a recomputation moves.
fn counters(e: &RouteEngine) -> (u64, u64, u64) {
    (e.stats.spf_full, e.stats.spf_incremental, e.stats.ft_delta)
}

/// Push `origin`'s current model row (or deletion) into the engine.
fn sync(e: &mut RouteEngine, model: &Model, origin: Addr) {
    e.on_lsa(origin, model.get(&origin).map(lsa_of));
}

/// One random mutation; returns the origins whose LSAs changed.
fn mutate(model: &mut Model, rng: &mut rand::rngs::SmallRng, n: Addr) -> Vec<Addr> {
    let a = rng.gen_range(1..=n);
    let b = {
        let mut b = rng.gen_range(1..=n);
        while b == a {
            b = rng.gen_range(1..=n);
        }
        b
    };
    match rng.gen_range(0..10u32) {
        // Symmetric edge add (fresh costs each side — they may differ).
        0..=3 => {
            model.entry(a).or_default().insert(b, rng.gen_range(1..=4u32));
            model.entry(b).or_default().insert(a, rng.gen_range(1..=4u32));
            vec![a, b]
        }
        // Symmetric edge remove.
        4..=5 => {
            model.entry(a).or_default().remove(&b);
            model.entry(b).or_default().remove(&a);
            vec![a, b]
        }
        // One-sided withdrawal: a stops advertising b (stale peer LSA).
        6 => {
            model.entry(a).or_default().remove(&b);
            vec![a]
        }
        // Cost change on one advertised direction.
        7..=8 => {
            let row = model.entry(a).or_default();
            if row.contains_key(&b) {
                row.insert(b, rng.gen_range(1..=4u32));
            }
            vec![a]
        }
        // Whole-LSA deletion (the member's object was tombstoned).
        _ => {
            model.remove(&a);
            vec![a]
        }
    }
}

proptest! {
    /// ≥64 random mutation sequences (the default case count), each a
    /// few dozen steps with randomly sized delta batches between
    /// recomputations. After every recomputation the engine's table must
    /// equal the from-scratch reference. (Debug builds additionally
    /// self-assert inside the engine on every recompute.)
    #[test]
    fn incremental_spf_equals_full_dijkstra(seed in proptest::prelude::any::<u64>()) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n: Addr = rng.gen_range(4..=12u64);
        let src: Addr = rng.gen_range(1..=n);
        let mut model = Model::new();
        let mut engine = RouteEngine::new(src);
        // Seed a connected-ish start so the first full run is non-trivial.
        for a in 1..=n {
            let b = if a == n { 1 } else { a + 1 };
            model.entry(a).or_default().insert(b, 1);
            model.entry(b).or_default().insert(a, 1);
        }
        for a in 1..=n {
            sync(&mut engine, &model, a);
        }
        engine.recompute();
        prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));

        for _ in 0..30 {
            // A batch of 1–3 mutations lands before one recomputation
            // (floods arrive in bursts; the debounce coalesces them).
            for _ in 0..rng.gen_range(1..=3u32) {
                for origin in mutate(&mut model, &mut rng, n) {
                    sync(&mut engine, &model, origin);
                }
            }
            engine.recompute();
            prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));
            // Re-feeding an unchanged LSA (or a deletion of one not
            // held) is absorbed: nothing queued, nothing recomputed.
            let before = counters(&engine);
            prop_assert!(!engine.on_lsa(src, model.get(&src).map(lsa_of)));
            let other = rng.gen_range(1..=n);
            prop_assert!(!engine.on_lsa(other, model.get(&other).map(lsa_of)));
            prop_assert!(!engine.recompute());
            prop_assert_eq!(counters(&engine), before);
        }
        // The engine holds as many LSAs as the model (deletions propagate).
        prop_assert_eq!(engine.lsa_count(), model.len());
    }

    /// Churn shape: arbitrary interleavings of link flaps (symmetric
    /// down **and later up** on the same edge, including edges at the
    /// source) and member leaves (both-sided withdrawal plus the
    /// member's own LSA tombstone). After every recomputation the
    /// incrementally maintained table must be byte-identical to the
    /// from-scratch reference, and at the end a *fresh* engine fed only
    /// the final LSA set must agree — repair history cannot leak into
    /// the result.
    #[test]
    fn flap_and_leave_sequences_stay_identical_to_scratch(seed in proptest::prelude::any::<u64>()) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let n: Addr = rng.gen_range(5..=12u64);
        let src: Addr = rng.gen_range(1..=n);
        let mut model = Model::new();
        let mut engine = RouteEngine::new(src);
        // Ring base so the graph usually stays connected under flaps.
        for a in 1..=n {
            let b = if a == n { 1 } else { a + 1 };
            model.entry(a).or_default().insert(b, 1);
            model.entry(b).or_default().insert(a, 1);
        }
        // A few chords for ECMP and alternate paths.
        for _ in 0..n / 2 {
            let a = rng.gen_range(1..=n);
            let b = rng.gen_range(1..=n);
            if a != b {
                model.entry(a).or_default().insert(b, 1);
                model.entry(b).or_default().insert(a, 1);
            }
        }
        for a in 1..=n {
            sync(&mut engine, &model, a);
        }
        engine.recompute();
        prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));

        // Links currently flapped down: (a, b) → saved symmetric costs.
        let mut down: Vec<(Addr, Addr, u32, u32)> = Vec::new();
        for _ in 0..24 {
            match rng.gen_range(0..4u32) {
                // Flap an existing edge down (maybe one at the source).
                0..=1 => {
                    let a = rng.gen_range(1..=n);
                    if let Some(&b) = model.get(&a).and_then(|r| r.keys().next()) {
                        let ca = model.entry(a).or_default().remove(&b).unwrap_or(1);
                        let cb = model.entry(b).or_default().remove(&a).unwrap_or(1);
                        down.push((a, b, ca, cb));
                        sync(&mut engine, &model, a);
                        sync(&mut engine, &model, b);
                    }
                }
                // Bring a flapped link back with its original costs.
                2 => {
                    if !down.is_empty() {
                        let (a, b, ca, cb) = down.swap_remove(rng.gen_range(0..down.len()));
                        model.entry(a).or_default().insert(b, ca);
                        model.entry(b).or_default().insert(a, cb);
                        sync(&mut engine, &model, a);
                        sync(&mut engine, &model, b);
                    }
                }
                // A member (never the source) leaves: neighbors withdraw
                // it and its LSA is tombstoned — the GC flood shape.
                _ => {
                    let m = rng.gen_range(1..=n);
                    if m != src {
                        let peers: Vec<Addr> =
                            model.get(&m).map(|r| r.keys().copied().collect()).unwrap_or_default();
                        for p in peers {
                            model.entry(p).or_default().remove(&m);
                            sync(&mut engine, &model, p);
                        }
                        model.remove(&m);
                        sync(&mut engine, &model, m);
                    }
                }
            }
            engine.recompute();
            prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));
        }
        // History independence: a fresh engine over the final state.
        let mut fresh = RouteEngine::new(src);
        for a in 1..=n {
            sync(&mut fresh, &model, a);
        }
        fresh.recompute();
        prop_assert_eq!(engine.table(), fresh.table());
    }
}

/// Barabási–Albert growth on members `1..=n` (m = 2, degree-weighted
/// attachment), deterministic in `seed`: the edges in join order, each
/// member from 4 on bringing two.
fn ba_edges(n: Addr, seed: u64) -> Vec<(Addr, Addr)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = vec![(1, 2), (1, 3), (2, 3)];
    let mut ends: Vec<Addr> = vec![1, 2, 1, 3, 2, 3];
    for v in 4..=n {
        let a = ends[rng.gen_range(0..ends.len())];
        let mut b = a;
        while b == a {
            b = ends[rng.gen_range(0..ends.len())];
        }
        for t in [a, b] {
            edges.push((t, v));
            ends.extend([t, v]);
        }
    }
    edges
}

/// Set (`Some`) or drop (`None`) the cost `a` advertises toward `b`,
/// queuing `a`.
fn set_dir(model: &mut Model, touched: &mut BTreeSet<Addr>, a: Addr, b: Addr, c: Option<u32>) {
    let row = model.entry(a).or_default();
    match c {
        Some(c) => row.insert(b, c),
        None => row.remove(&b),
    };
    touched.insert(a);
}

/// Add or drop the edge `a`–`b` on both sides.
fn set_edge(model: &mut Model, touched: &mut BTreeSet<Addr>, a: Addr, b: Addr, c: Option<u32>) {
    set_dir(model, touched, a, b, c);
    set_dir(model, touched, b, a, c);
}

/// Push every touched origin into the engine and recompute.
fn flush(e: &mut RouteEngine, model: &Model, touched: &mut BTreeSet<Addr>) -> bool {
    for o in std::mem::take(touched) {
        sync(e, model, o);
    }
    e.recompute()
}

/// One engine driven through a fixed script: a 200-member BA DIF grows
/// in waves of about 20–40 LSA changes per recomputation, then links flap
/// (one at the source, three at once), a member leaves, a cost moves,
/// and `set_self` re-roots the engine. Every recomputation must equal
/// the from-scratch reference, and what `recompute` returned and the
/// engine's three counters are pinned: a rewrite of the engine's inside
/// must keep the algorithm, not just the answer.
#[test]
fn a_fixed_engine_script_keeps_its_counters() {
    let edges = ba_edges(200, 7);
    let mut model = Model::new();
    let mut touched = BTreeSet::new();
    let mut e = RouteEngine::new(1);
    let mut src = 1;
    let mut returned = String::new();
    let mut step = |e: &mut RouteEngine, model: &Model, touched: &mut BTreeSet<Addr>, src| {
        returned.push(if flush(e, model, touched) { '1' } else { '0' });
        assert_eq!(e.table(), &compute_routes(src, &lsas(model)), "step {}", returned.len());
    };
    // Growth in waves of 10–16 joiners (two edges each).
    let mut joined = 0;
    for wave in [24usize, 28, 32, 20].into_iter().cycle() {
        let end = (joined + wave).min(edges.len());
        for &(a, b) in &edges[joined..end] {
            set_edge(&mut model, &mut touched, a, b, Some(1));
        }
        joined = end;
        step(&mut e, &model, &mut touched, src);
        if joined == edges.len() {
            break;
        }
    }
    // Single flaps, down then up: a remote edge, an edge at the source,
    // an edge at a late leaf.
    for &(a, b) in [edges[150], edges[0], edges[edges.len() - 1]].iter() {
        set_edge(&mut model, &mut touched, a, b, None);
        step(&mut e, &model, &mut touched, src);
        set_edge(&mut model, &mut touched, a, b, Some(1));
        step(&mut e, &model, &mut touched, src);
    }
    // Three links down in one batch, then back.
    let three = [edges[40], edges[41], edges[200]];
    for c in [None, Some(1)] {
        for &(a, b) in &three {
            set_edge(&mut model, &mut touched, a, b, c);
        }
        step(&mut e, &model, &mut touched, src);
    }
    // Member 150 leaves: its peers withdraw it and its LSA goes.
    let peers: Vec<Addr> = model[&150].keys().copied().collect();
    for p in peers {
        set_edge(&mut model, &mut touched, 150, p, None);
    }
    model.remove(&150);
    step(&mut e, &model, &mut touched, src);
    // One direction of a hub edge costs 3.
    let (a, b) = edges[1];
    set_dir(&mut model, &mut touched, a, b, Some(3));
    step(&mut e, &model, &mut touched, src);
    // A link to an address with no LSA is unconfirmed: nothing routes.
    for c in [Some(1), None] {
        set_dir(&mut model, &mut touched, 5, 999, c);
        step(&mut e, &model, &mut touched, src);
    }
    // Re-root at member 100, then flap one of its own links.
    src = 100;
    e.set_self(src);
    step(&mut e, &model, &mut touched, src);
    let b = *model[&100].keys().next().expect("100 has a peer");
    for c in [None, Some(1)] {
        set_edge(&mut model, &mut touched, 100, b, c);
        step(&mut e, &model, &mut touched, src);
    }
    let s = e.stats;
    assert_eq!(
        (returned.as_str(), s.spf_full, s.spf_incremental, s.ft_delta),
        ("1111111111111111111111111100111", 5, 24, 351)
    );
}

/// An LSA listing a neighbor twice: the engine keeps the cheaper cost,
/// as the reference Dijkstra does, so they agree (at 1, member 3 is
/// reached via 2 at distance 2, not directly at 3).
#[test]
fn a_repeated_neighbor_routes_at_its_lowest_cost() {
    let mut e = RouteEngine::new(1);
    let lsas = BTreeMap::from([
        (1, Lsa { neighbors: vec![(2, 1), (3, 3), (2, 5)] }),
        (2, Lsa { neighbors: vec![(1, 1), (3, 1)] }),
        (3, Lsa { neighbors: vec![(1, 1), (2, 1)] }),
    ]);
    for (&a, l) in &lsas {
        e.on_lsa(a, Some(l.clone()));
    }
    e.recompute();
    assert_eq!(e.table(), &compute_routes(1, &lsas));
    assert_eq!(e.table().route(3), Some(&[2][..]));
}

mod at_scale {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The shape the engine runs at in a DIF: 50–300 members and a
        /// batch of 10–40 changed origins per recomputation, mixing
        /// joins, link flaps, member leaves, one-sided withdrawals and
        /// cost changes. Every recomputation equals the from-scratch
        /// reference, and at the end so does a fresh engine fed only
        /// the final LSA set.
        #[test]
        fn wave_sized_batches_on_large_graphs_stay_identical_to_scratch(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n: Addr = rng.gen_range(50..=300u64);
            let edges = ba_edges(n, seed);
            // Two thirds of the members are there at the start; the rest,
            // and anyone who leaves, may join later.
            let start = n * 2 / 3;
            let src: Addr = rng.gen_range(1..=start);
            let mut model = Model::new();
            let mut touched = BTreeSet::new();
            for &(a, b) in edges.iter().filter(|&&(_, b)| b <= start) {
                set_edge(&mut model, &mut touched, a, b, Some(1));
            }
            let mut engine = RouteEngine::new(src);
            flush(&mut engine, &model, &mut touched);
            prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));

            let mut down: Vec<(Addr, Addr)> = Vec::new();
            for _ in 0..10 {
                let want = rng.gen_range(10..=40usize);
                for _ in 0..400 {
                    if touched.len() >= want {
                        break;
                    }
                    let present: Vec<Addr> = model.keys().copied().collect();
                    let a = present[rng.gen_range(0..present.len())];
                    let peer = |m: &Model, rng: &mut SmallRng| {
                        let row = &m[&a];
                        let i = rng.gen_range(0..row.len().max(1));
                        row.keys().nth(i).copied()
                    };
                    match rng.gen_range(0..10u32) {
                        // An absent member joins at one to three present ones.
                        0..=2 => {
                            let v = rng.gen_range(1..=n);
                            if model.contains_key(&v) {
                                continue;
                            }
                            for _ in 0..rng.gen_range(1..=3u32) {
                                let t = present[rng.gen_range(0..present.len())];
                                set_dir(&mut model, &mut touched, v, t, Some(1));
                                let c = rng.gen_range(1..=3u32);
                                set_dir(&mut model, &mut touched, t, v, Some(c));
                            }
                        }
                        // A link flaps down, or a downed one comes back.
                        3..=4 => {
                            if let Some(b) = peer(&model, &mut rng) {
                                set_edge(&mut model, &mut touched, a, b, None);
                                down.push((a, b));
                            }
                        }
                        5 => {
                            if down.is_empty() {
                                continue;
                            }
                            let (a, b) = down.swap_remove(rng.gen_range(0..down.len()));
                            if model.contains_key(&a) && model.contains_key(&b) {
                                set_edge(&mut model, &mut touched, a, b, Some(1));
                            }
                        }
                        // A member other than the source leaves.
                        6 => {
                            if a == src {
                                continue;
                            }
                            let peers: Vec<Addr> = model[&a].keys().copied().collect();
                            for p in peers {
                                set_edge(&mut model, &mut touched, a, p, None);
                            }
                            model.remove(&a);
                            touched.insert(a);
                        }
                        // One-sided withdrawal.
                        7 => {
                            if let Some(b) = peer(&model, &mut rng) {
                                set_dir(&mut model, &mut touched, a, b, None);
                            }
                        }
                        // Cost change on one advertised direction.
                        _ => {
                            if let Some(b) = peer(&model, &mut rng) {
                                let c = rng.gen_range(1..=4u32);
                                set_dir(&mut model, &mut touched, a, b, Some(c));
                            }
                        }
                    }
                }
                flush(&mut engine, &model, &mut touched);
                prop_assert_eq!(engine.table(), &compute_routes(src, &lsas(&model)));
            }
            prop_assert_eq!(engine.lsa_count(), model.len());
            let mut fresh = RouteEngine::new(src);
            for &a in model.keys() {
                sync(&mut fresh, &model, a);
            }
            fresh.recompute();
            prop_assert_eq!(engine.table(), fresh.table());
        }
    }
}

/// ECMP pin: delta repair must preserve — and correctly extend —
/// equal-cost next-hop *sets*, not just distances.
#[test]
fn delta_repair_preserves_ecmp_next_hop_sets() {
    // Diamond 1-{2,3}-4, then a tail 4-5.
    let mut e = RouteEngine::new(1);
    let mut model = Model::new();
    for (a, b) in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)] {
        model.entry(a).or_default().insert(b, 1);
        model.entry(b).or_default().insert(a, 1);
    }
    for &a in model.keys().collect::<Vec<_>>() {
        sync(&mut e, &model, a);
    }
    e.recompute();
    assert_eq!(e.table().route(4), Some(&[2, 3][..]), "both diamond arms");
    assert_eq!(e.table().route(5), Some(&[2, 3][..]), "tail inherits the set");

    // An unrelated leaf joins at 5: repair must not disturb the sets.
    model.entry(5).or_default().insert(6, 1);
    model.entry(6).or_default().insert(5, 1);
    sync(&mut e, &model, 5);
    sync(&mut e, &model, 6);
    e.recompute();
    assert!(e.stats.spf_incremental >= 1, "leaf join repaired incrementally");
    assert_eq!(e.table().route(4), Some(&[2, 3][..]));
    assert_eq!(e.table().route(6), Some(&[2, 3][..]));

    // Cutting one arm (2-4) shrinks every downstream set — same
    // distance for 4 is impossible now, so paths re-route via 3 only.
    model.entry(2).or_default().remove(&4);
    model.entry(4).or_default().remove(&2);
    sync(&mut e, &model, 2);
    sync(&mut e, &model, 4);
    e.recompute();
    assert_eq!(e.table().route(4), Some(&[3][..]));
    assert_eq!(e.table().route(6), Some(&[3][..]));
    assert_eq!(e.table(), &compute_routes(1, &lsas(&model)));
}
