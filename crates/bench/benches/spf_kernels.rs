//! Microbenchmarks for the routing engine at the shapes a DIF hands it:
//! a full SPF (bootstrap, or re-rooting after enrollment), one remote
//! link flapping, and a wave of joiners, on Barabási–Albert graphs of
//! 200 and 1000 members.
//!
//! As in `wire_kernels`, no two consecutive elements of a row see the
//! same input: `spf_full` re-roots at a different member each time,
//! `spf_flap` walks distinct remote links, `spf_wave` distinct waves.
//! A flap element is the link going down and coming back (two repairs);
//! a wave element is its nine joiners (≈ 27 changed LSAs) leaving and
//! joining again (two repairs). Each row then prints how many of its
//! recomputations took the incremental path.
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rina::routing::{EngineStats, Lsa, RouteEngine};
use std::collections::{BTreeMap, BTreeSet};

/// Distinct inputs each row rotates through, one pass per sample.
const ROT: usize = 16;
/// Joiners per wave: with two edges each, about 27 changed origins.
const WAVE: usize = 9;

type Adjacency = BTreeMap<u64, Vec<(u64, u32)>>;
/// LSA changes that land before one recomputation (`None`: tombstone).
type Batch = Vec<(u64, Option<Lsa>)>;

/// Every member's advertisements on an `n`-member BA graph (m = 2),
/// addresses from 1.
fn ba(n: usize) -> (Vec<(u64, u64)>, Adjacency) {
    let edges: Vec<(u64, u64)> = rina_sim::topology::barabasi_albert(n, 2, 7)
        .into_iter()
        .map(|(a, b)| (a as u64 + 1, b as u64 + 1))
        .collect();
    let mut adj = Adjacency::new();
    for &(a, b) in &edges {
        adj.entry(a).or_default().push((b, 1));
        adj.entry(b).or_default().push((a, 1));
    }
    (edges, adj)
}

/// An engine at member 1 that has computed over `adj`.
fn loaded(adj: &Adjacency) -> RouteEngine {
    let mut e = RouteEngine::new(1);
    for (&a, ns) in adj {
        e.on_lsa(a, Some(Lsa { neighbors: ns.clone() }));
    }
    e.recompute();
    e
}

/// `adj`'s LSA for `a` without the neighbors in `gone`.
fn without(adj: &Adjacency, a: u64, gone: &[u64]) -> Option<Lsa> {
    let ns = adj[&a].iter().copied().filter(|(v, _)| !gone.contains(v)).collect();
    Some(Lsa { neighbors: ns })
}

/// One batch of LSA changes, then a recomputation.
fn apply(e: &mut RouteEngine, batch: &Batch) {
    for (a, l) in batch {
        e.on_lsa(*a, l.clone());
    }
    black_box(e.recompute());
}

/// Every element's batch there and back.
fn there_and_back(e: &mut RouteEngine, elements: &[[Batch; 2]]) {
    for [there, back] in elements {
        apply(e, there);
        apply(e, back);
    }
}

/// How a row's recomputations split between the two paths.
fn paths(row: &str, before: EngineStats, after: EngineStats) {
    let inc = after.spf_incremental - before.spf_incremental;
    println!("  {row}: {inc} incremental / {} full", after.spf_full - before.spf_full);
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("spf_kernels");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Elements(ROT as u64));
    for n in [200usize, 1000] {
        let (edges, adj) = ba(n);
        let mut e = loaded(&adj);
        let roots: Vec<u64> = (0..ROT).map(|i| 1 + (i * n / ROT) as u64).collect();
        g.bench_function(format!("spf_full/{n}"), |b| {
            b.iter(|| {
                for &r in &roots {
                    e.set_self(r);
                    black_box(e.recompute());
                }
            });
        });
        e.set_self(1);
        e.recompute();

        let remote: Vec<&(u64, u64)> = edges.iter().filter(|&&(a, b)| a != 1 && b != 1).collect();
        let flaps: Vec<[Batch; 2]> = remote
            .iter()
            .step_by(remote.len() / ROT)
            .take(ROT)
            .map(|&&(a, b)| {
                let down = vec![(a, without(&adj, a, &[b])), (b, without(&adj, b, &[a]))];
                let up = vec![(a, without(&adj, a, &[])), (b, without(&adj, b, &[]))];
                [down, up]
            })
            .collect();
        let before = e.stats;
        g.bench_function(format!("spf_flap/{n}"), |b| b.iter(|| there_and_back(&mut e, &flaps)));
        paths(&format!("spf_flap/{n}"), before, e.stats);

        let mut origins = 0;
        let waves: Vec<[Batch; 2]> = (0..ROT)
            .map(|k| {
                let joiners: Vec<u64> = (0..WAVE).map(|j| (n - k - ROT * j) as u64).collect();
                let touched: BTreeSet<u64> = joiners
                    .iter()
                    .flat_map(|j| adj[j].iter().map(|&(v, _)| v).chain([*j]))
                    .collect();
                origins += touched.len();
                let gone = |&a: &u64| {
                    (a, if joiners.contains(&a) { None } else { without(&adj, a, &joiners) })
                };
                let out = touched.iter().map(gone).collect();
                let back = touched.iter().map(|&a| (a, without(&adj, a, &[]))).collect();
                [out, back]
            })
            .collect();
        println!("  spf_wave/{n}: {} changed origins per batch", origins / ROT);
        let before = e.stats;
        g.bench_function(format!("spf_wave/{n}"), |b| b.iter(|| there_and_back(&mut e, &waves)));
        paths(&format!("spf_wave/{n}"), before, e.stats);
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
