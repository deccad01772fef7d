//! Microbenchmarks for the RIB's per-object work, the path assembly and
//! churn repair run once per flooded object at every member: applying a
//! first-seen, a newer and a stale version, and answering one delta
//! request.
//!
//! The rows work over 200 RIBs of 1,000 objects each, a member's RIB in
//! a 250-member DIF, four subtrees of 250 names. Objects arrive in a
//! shuffled order and each one visits every RIB in turn before the next
//! arrives, as a flood reaches every member: no two consecutive
//! applies touch the same map, so the map walk pays the cache misses it
//! pays in a simulated DIF. One warm RIB fed in name order would time the
//! allocator and hide the walk.
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rina_rib::{EncodedObject, ObjVer, Rib, RibObject};

/// RIBs each row rotates through.
const RIBS: usize = 200;
/// Objects per RIB.
const OBJECTS: usize = 1000;
/// Measured samples per row; the newer row pre-encodes one version per
/// sample.
const SAMPLES: usize = 10;
/// Names per delta request: about what one 1 KiB summary chunk holds.
const CHUNK: usize = 48;

/// The `i`-th object's name, spread over four subtrees.
fn name(i: usize) -> String {
    match i % 4 {
        0 => format!("/members/net.m{i}"),
        1 => format!("/blocks/{i}"),
        2 => format!("/lsa/{i}"),
        _ => format!("/dir/app{i}"),
    }
}

/// Every object at `version`, encoded, in a shuffled arrival order
/// (617 is prime to 1,000, so the stride visits every index once).
fn arrivals(version: u64) -> Vec<EncodedObject> {
    (0..OBJECTS)
        .map(|k| (k * 617 + 123) % OBJECTS)
        .map(|i| {
            EncodedObject::of(&RibObject {
                name: name(i),
                class: "obj".into(),
                value: vec![i as u8; 24].into(),
                version,
                origin: 2 + i as u64 % 7,
                deleted: false,
            })
        })
        .collect()
}

/// Apply every arrival to every RIB, one RIB after another per object.
fn flood(ribs: &mut [Rib], objects: &[EncodedObject]) {
    for o in objects {
        let o = o.view();
        for rib in ribs.iter_mut() {
            black_box(rib.apply_ref(&o));
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("rib_kernels");
    g.sample_size(SAMPLES);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.throughput(Throughput::Elements((RIBS * OBJECTS) as u64));

    let first = arrivals(1);
    // The filled RIBs are the closure's result, dropped outside the
    // timed span.
    g.bench_function(format!("apply_first_seen/{RIBS}x{OBJECTS}"), |b| {
        b.iter(|| {
            let mut ribs: Vec<Rib> = (0..RIBS as u64).map(Rib::new).collect();
            flood(&mut ribs, &first);
            ribs
        });
    });

    let mut ribs: Vec<Rib> = (0..RIBS as u64).map(Rib::new).collect();
    flood(&mut ribs, &first);
    g.bench_function(format!("apply_stale/{RIBS}x{OBJECTS}"), |b| {
        b.iter(|| flood(&mut ribs, &first));
    });

    // One version per call: the warm-up pass and every sample.
    let newer: Vec<Vec<EncodedObject>> = (2..SAMPLES as u64 + 3).map(arrivals).collect();
    let mut next = newer.iter();
    g.bench_function(format!("apply_newer/{RIBS}x{OBJECTS}"), |b| {
        b.iter(|| flood(&mut ribs, next.next().expect("one version per sample")));
    });

    // A peer's summary of the first chunk of `/lsa`, every sixth name a
    // version behind; every RIB holds the same versions and answers it
    // in turn.
    let held = ribs[0].summary("/lsa");
    let upto = held.get(CHUNK).map_or("", |v| v.name);
    let entries: Vec<ObjVer<'_>> = held[..CHUNK]
        .iter()
        .enumerate()
        .map(|(k, v)| ObjVer { version: v.version - u64::from(k % 6 == 0), ..*v })
        .collect();
    g.throughput(Throughput::Elements(RIBS as u64));
    g.bench_function(format!("delta_answer/{RIBS}x{CHUNK}"), |b| {
        b.iter(|| {
            for rib in &ribs {
                black_box(rib.delta_for("/lsa", "", upto, &entries));
            }
        });
    });
    let (sent, behind) = ribs[0].delta_for("/lsa", "", upto, &entries);
    println!("  delta_answer: {} of {CHUNK} names answered, peer ahead: {behind}", sent.len());
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
