//! Property tests for replication scopes (offline `proptest` shim: 64
//! deterministic cases per property).
//!
//! A subtree marked local (owner-held) must vanish from every
//! replication surface — snapshot, digest table, summaries, deltas, the
//! dissemination outbox — while tombstones still flood (they are the
//! cache-invalidation channel) and the replicated subtrees stay
//! byte-identical to an unscoped peer's view. Whatever divergent local
//! `/dir` content two members hold, their anti-entropy conversation
//! must neither mention it nor be perturbed by it.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use rina_rib::{EncodedObject, Rib};

/// One generated mutation against a RIB.
#[derive(Clone, Debug)]
struct Op {
    subtree: u8,
    slot: u8,
    value: Vec<u8>,
    delete: bool,
}

const SUBTREES: [&str; 3] = ["/dir", "/lsa", "/blocks"];

fn name_of(op: &Op) -> String {
    format!("{}/obj{}", SUBTREES[op.subtree as usize % 3], op.slot % 5)
}

fn apply(rib: &mut Rib, op: &Op) {
    let name = name_of(op);
    if op.delete {
        rib.delete_local(&name);
    } else {
        rib.write_local(&name, "t", Bytes::from(op.value.clone()));
    }
}

/// Custom strategy (the offline proptest shim has no `prop_map`):
/// draws one [`Op`] directly from the case RNG.
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn sample(&self, rng: &mut SmallRng) -> Op {
        let len = rng.gen_range(0usize..16);
        Op {
            subtree: rng.gen(),
            slot: rng.gen(),
            value: (0..len).map(|_| rng.gen()).collect(),
            delete: rng.gen(),
        }
    }
}

fn op_strategy() -> OpStrategy {
    OpStrategy
}

fn drain_outbox(rib: &mut Rib) -> Vec<EncodedObject> {
    std::iter::from_fn(|| rib.poll_dissemination()).collect()
}

/// Run digest-table anti-entropy between two ribs to quiescence, the
/// way peers do over hellos: compare tables, exchange summaries, pull
/// deltas, repeat. Returns the number of rounds taken.
fn sync(a: &mut Rib, b: &mut Rib) -> usize {
    for round in 0..32 {
        let (ta, tb) = (a.digest_table(), b.digest_table());
        let mismatch = ta.mismatched(&tb);
        if mismatch.is_empty() {
            return round;
        }
        for s in mismatch {
            let objs = a.delta_for(&s, "", "", &b.summary(&s));
            for o in objs {
                b.apply_ref(&o.view());
            }
            let objs = b.delta_for(&s, "", "", &a.summary(&s));
            for o in objs {
                a.apply_ref(&o.view());
            }
        }
    }
    panic!("anti-entropy failed to converge in 32 rounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mutation sequence hits a scoped RIB, live `/dir` state
    /// never reaches any replication surface: not the snapshot, not the
    /// digest table, not summaries, not deltas against an empty peer,
    /// not the dissemination outbox. Deletions still go out — they are
    /// the invalidation channel.
    #[test]
    fn local_subtree_never_reaches_a_replication_surface(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut rib = Rib::new(7);
        rib.set_local_subtree("/dir");
        for op in &ops {
            apply(&mut rib, op);
        }
        prop_assert!(rib.snapshot().iter().all(|o| !o.view().name.starts_with("/dir/")));
        prop_assert!(rib.digest_table().entries().iter().all(|e| e.0 != "/dir"));
        prop_assert!(rib.summary("/dir").is_empty());
        let objs = rib.delta_for("/dir", "", "", &[]);
        prop_assert!(objs.is_empty(), "owner-held state served by anti-entropy");
        let out = drain_outbox(&mut rib);
        prop_assert!(
            out.iter().map(EncodedObject::view).all(|o| !o.name.starts_with("/dir/") || o.deleted),
            "a live /dir object left through the outbox"
        );
        // The RIB itself still holds the owner's live entries.
        let live_dir_ops =
            ops.iter().any(|o| SUBTREES[o.subtree as usize % 3] == "/dir");
        if live_dir_ops {
            // At least the names touched exist (live or tombstoned) locally.
            prop_assert!(rib.iter_all().count() >= rib.snapshot().len());
        }
    }

    /// Two scoped members with arbitrarily divergent local `/dir`
    /// content but identical replicated history are indistinguishable
    /// on the wire: equal digest tables, no mismatched subtree, empty
    /// deltas in both directions — byte-identical on every
    /// fully-replicated subtree.
    #[test]
    fn divergent_local_dir_is_invisible_to_anti_entropy(
        shared in proptest::collection::vec(op_strategy(), 0..24),
        dir_a in proptest::collection::vec(op_strategy(), 0..12),
        dir_b in proptest::collection::vec(op_strategy(), 0..12),
    ) {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        a.set_local_subtree("/dir");
        b.set_local_subtree("/dir");
        // Identical replicated history lands as remote state on both.
        let mut scribe = Rib::new(9);
        for op in shared.iter().filter(|o| SUBTREES[o.subtree as usize % 3] != "/dir") {
            apply(&mut scribe, op);
        }
        for o in scribe.iter_all() {
            a.apply_ref(&o);
            b.apply_ref(&o);
        }
        // Divergent owner-held /dir content on each side.
        for op in dir_a.iter().filter(|o| SUBTREES[o.subtree as usize % 3] == "/dir") {
            apply(&mut a, op);
        }
        for op in dir_b.iter().filter(|o| SUBTREES[o.subtree as usize % 3] == "/dir") {
            apply(&mut b, op);
        }
        let (ta, tb) = (a.digest_table(), b.digest_table());
        prop_assert_eq!(ta.mismatched(&tb), Vec::<String>::new());
        prop_assert_eq!(ta.total_digest(), tb.total_digest());
        for s in ["/lsa", "/blocks"] {
            let objs = a.delta_for(s, "", "", &b.summary(s));
            prop_assert!(objs.is_empty(), "spurious delta on {s}");
        }
    }

    /// Anti-entropy between two scoped members converges on the
    /// replicated subtrees and never leaks a live `/dir` entry across:
    /// after sync, replicated snapshots are byte-identical while each
    /// member still holds exactly its own directory.
    #[test]
    fn sync_converges_replicated_state_without_leaking_dir(
        ops_a in proptest::collection::vec(op_strategy(), 1..24),
        ops_b in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        a.set_local_subtree("/dir");
        b.set_local_subtree("/dir");
        for op in &ops_a {
            apply(&mut a, op);
        }
        for op in &ops_b {
            apply(&mut b, op);
        }
        let dir = |r: &Rib| -> Vec<Vec<u8>> {
            r.iter_all().filter(|o| o.name.starts_with("/dir/")).map(|o| o.wire().to_vec()).collect()
        };
        let (dir_a, dir_b) = (dir(&a), dir(&b));
        sync(&mut a, &mut b);
        prop_assert_eq!(a.snapshot(), b.snapshot(), "replicated views diverge after sync");
        prop_assert_eq!(dir_a, dir(&a), "sync perturbed a's owner-held directory");
        prop_assert_eq!(dir_b, dir(&b), "sync perturbed b's owner-held directory");
    }

    /// Marking a subtree local tears its watchers down: after the scope
    /// change, no watch event for that subtree is ever delivered again,
    /// while watchers on other prefixes keep working.
    #[test]
    fn scope_change_tears_down_watchers(
        pre in proptest::collection::vec(op_strategy(), 0..12),
        post in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let mut rib = Rib::new(3);
        rib.watch_prefix("/dir/");
        rib.watch_prefix("/lsa/");
        for op in &pre {
            apply(&mut rib, op);
        }
        while rib.poll_watch().is_some() {}
        rib.set_local_subtree("/dir");
        for op in &post {
            apply(&mut rib, op);
        }
        let mut lsa_seen = 0usize;
        while let Some(o) = rib.poll_watch() {
            let o = o.view();
            prop_assert!(!o.name.starts_with("/dir/"), "torn-down watcher fired: {}", o.name);
            lsa_seen += 1;
        }
        let lsa_written = post
            .iter()
            .filter(|o| !o.delete && SUBTREES[o.subtree as usize % 3] == "/lsa")
            .count();
        prop_assert!(
            lsa_seen >= lsa_written.min(1),
            "the surviving /lsa watcher went silent"
        );
    }
}
