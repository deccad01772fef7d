//! # rina-rib — the Resource Information Base and RIEP
//!
//! Every IPC process keeps a Resource Information Base: the shared state
//! that the paper's *IPC Management* task maintains via the Resource
//! Information Exchange Protocol (RIEP) — "application names, addresses,
//! and performance capabilities, used by various DIF coordination tasks,
//! such as routing, connection management, etc." (§3.1).
//!
//! The RIB here is a path-named object store with per-object versions and
//! single-writer semantics (each object is owned by the member that
//! originates it — e.g. `/lsa/<addr>` by the member at `<addr>`). RIEP is
//! realized as version-guarded flooding: an update is applied if strictly
//! newer and then re-disseminated, so updates reach every member of the DIF
//! exactly once per version regardless of topology. Deletions are
//! tombstones so they win over stale resurrections.
//!
//! Because dissemination is unreliable, every RIB also maintains an
//! incremental **per-subtree digest table** ([`DigestTable`]): one
//! `(object_count, digest)` pair per first path component (`/members`,
//! `/lsa`, …), where the digest XOR-aggregates collision-resistant
//! per-object fingerprints. Two members compare tables (carried in
//! hellos and enrollment requests) to localize divergence to subtrees,
//! then exchange **deltas**: a version [`Rib::summary`] of the diverged
//! subtree one way, the missing/newer objects ([`Rib::delta_for`]) the
//! other. The repair cost of any divergence therefore tracks the
//! divergence, not the RIB — the basis of digest-driven anti-entropy
//! and of O(missing) re-enrollment sync (DESIGN.md §6).
//!
//! Each object is stored as the bytes it travels in, an
//! [`EncodedObject`], with its version coordinates beside it. An object
//! arriving from a peer is decided on the borrowed view the receive path
//! already holds ([`Rib::apply_ref`]): a stale version costs nothing, a
//! newer one is copied once into a buffer of its own. Everything that
//! hands objects out — the watch queue, the dissemination outbox,
//! enrollment snapshots, delta answers — hands out that stored encoding,
//! so no object is ever re-encoded on its way back onto the wire. Reads
//! ([`Rib::get`], [`Rib::iter_prefix`]) are [`RibObjectRef`] views of it.
//!
//! The crate is sans-IO: [`Rib`] produces [`RibEvent`]s for the local IPC
//! process (routing recomputation, directory changes) and dissemination
//! items for the management task to forward; the `rina` crate moves them.
//! Hot paths that react to freshness directly can apply without event
//! bookkeeping via [`Rib::apply_remote_silent`] or [`Rib::apply_ref`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

use bytes::Bytes;
use rina_wire::codec::{Reader, Writer};
use rina_wire::WireError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

/// One replicated object. Ordering of versions: `(version, origin)`
/// lexicographic, so concurrent writes by different members resolve
/// deterministically (higher origin wins ties — origins are DIF-internal
/// addresses, so this is arbitrary but consistent everywhere).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RibObject {
    /// Path-style instance name, e.g. `/dir/video-server`.
    pub name: String,
    /// Object class, e.g. `"dir"`, `"lsa"`.
    pub class: String,
    /// Encoded value (empty for tombstones).
    pub value: Bytes,
    /// Monotonic per-name version.
    pub version: u64,
    /// DIF-internal address of the writing member.
    pub origin: u64,
    /// True if this version deletes the object.
    pub deleted: bool,
}

impl RibObject {
    /// Encode for carriage inside a CDAP value.
    pub fn encode(&self) -> Bytes {
        let mut w =
            Writer::with_capacity(16 + self.name.len() + self.class.len() + self.value.len());
        w.string(&self.name)
            .string(&self.class)
            .bytes(&self.value)
            .varint(self.version)
            .varint(self.origin)
            .boolean(self.deleted);
        w.finish()
    }

    /// Decode from a CDAP value.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let name = r.string()?.to_string();
        let class = r.string()?.to_string();
        let value = Bytes::copy_from_slice(r.bytes()?);
        let version = r.varint()?;
        let origin = r.varint()?;
        let deleted = r.boolean()?;
        r.expect_end()?;
        Ok(RibObject { name, class, value, version, origin, deleted })
    }
}

/// A borrowed view of one object in its wire encoding: name, class and
/// value are slices of the buffer it was decoded from — an arriving
/// batch, or the RIB's own stored copy. Reads of the RIB return these,
/// and the receive path applies them ([`Rib::apply_ref`]) without
/// materialising anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RibObjectRef<'a> {
    /// Path-style instance name.
    pub name: &'a str,
    /// Object class.
    pub class: &'a str,
    /// Encoded value (empty for tombstones).
    pub value: &'a [u8],
    /// Monotonic per-name version.
    pub version: u64,
    /// DIF-internal address of the writing member.
    pub origin: u64,
    /// True if this version deletes the object.
    pub deleted: bool,
    /// The whole encoding the fields were read from.
    wire: &'a [u8],
}

impl<'a> RibObjectRef<'a> {
    /// Decode what [`RibObject::encode`] writes, copying nothing. Agrees
    /// with [`RibObject::decode`] on every input (pinned by proptest).
    pub fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let name = r.string()?;
        let class = r.string()?;
        let value = r.bytes()?;
        let version = r.varint()?;
        let origin = r.varint()?;
        let deleted = r.boolean()?;
        r.expect_end()?;
        Ok(RibObjectRef { name, class, value, version, origin, deleted, wire: buf })
    }

    /// The encoding this view was decoded from, byte for byte.
    pub fn wire(&self) -> &'a [u8] {
        self.wire
    }
}

/// One object in wire form, known to decode — the unit that travels and
/// the unit the RIB stores: sliced out of an arriving batch, viewed
/// through [`RibObjectRef`], kept in the RIB as a copy of its own, and
/// written into the next batch as those very bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedObject(Bytes);

impl EncodedObject {
    /// Encode an owned object.
    pub fn of(obj: &RibObject) -> Self {
        EncodedObject(obj.encode())
    }

    /// Accept `wire` if it decodes as one object.
    pub fn parse(wire: Bytes) -> Result<Self, WireError> {
        RibObjectRef::decode(&wire)?;
        Ok(EncodedObject(wire))
    }

    /// The encoding `obj` was read from, copied into a buffer of its own
    /// — never a slice of the arriving batch, so a stored 20-byte object
    /// keeps no batch buffer alive.
    fn copy_of(obj: &RibObjectRef<'_>) -> Self {
        EncodedObject(Bytes::copy_from_slice(obj.wire))
    }

    /// The object, borrowed from the encoding.
    pub fn view(&self) -> RibObjectRef<'_> {
        RibObjectRef::decode(&self.0).expect("checked at construction")
    }

    /// The encoding itself.
    pub fn wire(&self) -> &Bytes {
        &self.0
    }
}

/// A change the local IPC process should react to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RibEvent {
    /// An object appeared or changed value.
    Upserted(RibObject),
    /// An object was deleted (tombstoned).
    Deleted(RibObject),
}

impl RibEvent {
    /// The object the event concerns.
    pub fn object(&self) -> &RibObject {
        match self {
            RibEvent::Upserted(o) | RibEvent::Deleted(o) => o,
        }
    }

    fn of(obj: RibObject) -> Self {
        if obj.deleted {
            RibEvent::Deleted(obj)
        } else {
            RibEvent::Upserted(obj)
        }
    }
}

/// The name-space subtree an object belongs to: the first path component
/// of its name (`/lsa/7` → `/lsa`, `/dir/echo` → `/dir`). Names without a
/// second separator are their own subtree. Digest tables, delta requests,
/// and flood suppression all work at this granularity.
pub fn subtree_of(name: &str) -> &str {
    if let Some(rest) = name.strip_prefix('/') {
        if let Some(i) = rest.find('/') {
            return &name[..i + 1];
        }
    }
    name
}

/// One object's version coordinates, without its value — the unit of a
/// delta-request summary. Two members exchange these (cheap) to discover
/// which full objects (expensive) actually need to move. The name is
/// borrowed: from the RIB when summarising, from the arriving request
/// when answering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjVer<'a> {
    /// Full object name.
    pub name: &'a str,
    /// Version counter.
    pub version: u64,
    /// Writing member's address (the version tie-breaker).
    pub origin: u64,
}

impl<'a> ObjVer<'a> {
    /// Encode into an in-progress wire value.
    pub fn encode_into(&self, w: &mut Writer) {
        w.string(self.name).varint(self.version).varint(self.origin);
    }

    /// Decode from an in-progress wire value.
    pub fn decode_from(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let name = r.string()?;
        let version = r.varint()?;
        let origin = r.varint()?;
        Ok(ObjVer { name, version, origin })
    }
}

/// A version summary in wire form — a count, then that many [`ObjVer`]
/// triples — known to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedSummary(Bytes);

impl EncodedSummary {
    /// Encode `entries`.
    pub fn of(entries: &[ObjVer<'_>]) -> Self {
        let mut w =
            Writer::with_capacity(4 + entries.iter().map(|v| v.name.len() + 12).sum::<usize>());
        w.varint(entries.len() as u64);
        for v in entries {
            v.encode_into(&mut w);
        }
        EncodedSummary(w.finish())
    }

    /// Accept `wire` if it decodes as a summary.
    pub fn parse(wire: Bytes) -> Result<Self, WireError> {
        Self::walk(&wire, |_| {})?;
        Ok(EncodedSummary(wire))
    }

    /// The entries, names borrowed from the encoding.
    pub fn entries(&self) -> Vec<ObjVer<'_>> {
        // The count was checked against the bytes at construction.
        let n = Reader::new(&self.0).varint().unwrap_or(0);
        let mut out = Vec::with_capacity(n as usize);
        Self::walk(&self.0, |v| out.push(v)).expect("checked at construction");
        out
    }

    /// The encoding itself.
    pub fn wire(&self) -> &Bytes {
        &self.0
    }

    fn walk<'a>(buf: &'a [u8], mut each: impl FnMut(ObjVer<'a>)) -> Result<(), WireError> {
        let mut r = Reader::new(buf);
        for _ in 0..r.varint()? {
            each(ObjVer::decode_from(&mut r)?);
        }
        r.expect_end()
    }
}

/// Per-subtree `(object_count, digest)` summary of a RIB — the Merkle-ish
/// table hellos and enrollment requests carry. Comparing two tables
/// localizes a mismatch to the subtrees that actually diverged, so
/// anti-entropy exchanges per-subtree deltas instead of whole RIBs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestTable {
    /// `(subtree, object_count, digest)`, sorted by subtree name.
    entries: Vec<(String, u64, u64)>,
}

impl DigestTable {
    /// Build from `(subtree, count, digest)` triples (sorted internally).
    pub fn from_entries(mut entries: Vec<(String, u64, u64)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        DigestTable { entries }
    }

    /// The sorted `(subtree, count, digest)` triples.
    pub fn entries(&self) -> &[(String, u64, u64)] {
        &self.entries
    }

    /// This table's `(count, digest)` for one subtree.
    pub fn get(&self, subtree: &str) -> Option<(u64, u64)> {
        self.entries
            .binary_search_by(|e| e.0.as_str().cmp(subtree))
            .ok()
            .map(|i| (self.entries[i].1, self.entries[i].2))
    }

    /// Total stored objects (tombstones included) across subtrees.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Whole-RIB digest: XOR over the subtree digests.
    pub fn total_digest(&self) -> u64 {
        self.entries.iter().fold(0, |d, e| d ^ e.2)
    }

    /// Subtrees whose `(count, digest)` differ between the two tables —
    /// the union, so a subtree present on only one side counts.
    pub fn mismatched(&self, other: &DigestTable) -> Vec<String> {
        diff_tables(self.triples(), other.triples())
    }

    fn triples(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.entries.iter().map(|e| (e.0.as_str(), e.1, e.2))
    }

    /// Encode into an in-progress wire value.
    pub fn encode_into(&self, w: &mut Writer) {
        w.varint(self.entries.len() as u64);
        for (s, c, d) in &self.entries {
            w.string(s).varint(*c).varint(*d);
        }
    }

    /// Decode from an in-progress wire value.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.varint()? as usize;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let s = r.string()?.to_string();
            let c = r.varint()?;
            let d = r.varint()?;
            entries.push((s, c, d));
        }
        Ok(DigestTable::from_entries(entries))
    }
}

/// Merge two `(subtree, count, digest)` sequences, each sorted by
/// subtree, into the names whose entries differ or exist on one side
/// only. Allocates only for names it returns.
fn diff_tables<'a>(
    ours: impl Iterator<Item = (&'a str, u64, u64)>,
    theirs: impl Iterator<Item = (&'a str, u64, u64)>,
) -> Vec<String> {
    let (mut a, mut b) = (ours.peekable(), theirs.peekable());
    let mut out = Vec::new();
    loop {
        let side = match (a.peek(), b.peek()) {
            (None, None) => return out,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.0.cmp(y.0),
        };
        // Step past the smaller subtree (both on a tie); whatever was
        // stepped over without an equal partner is a mismatch.
        let x = if side != Ordering::Greater { a.next() } else { None };
        let y = if side != Ordering::Less { b.next() } else { None };
        if x != y {
            out.extend(x.or(y).map(|e| e.0.to_string()));
        }
    }
}

/// Order-independent fingerprint of one object version, XOR-aggregated
/// into [`Rib::digest`]. Any version change changes it (versions are
/// monotonic per name), so two RIBs with equal `(object_count, digest)`
/// hold the same object versions with overwhelming probability — the
/// basis of hello-driven anti-entropy.
fn fingerprint(name: &str, version: u64, origin: u64, deleted: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Nonlinear mixing (splitmix64 finalizer) entangles version and
    // origin with the name hash. A plain XOR of `version × constant`
    // would make the digest *difference* of a version bump independent
    // of the name — two objects each one version stale then cancel in
    // the XOR aggregate, and anti-entropy would declare two diverged
    // RIBs in sync (seen in practice on lossy 22-member lines).
    h = mix(h ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = mix(h ^ origin.rotate_left(32));
    if deleted {
        h = !h;
    }
    h
}

/// splitmix64's avalanche finalizer: every input bit affects every
/// output bit, making XOR-aggregated fingerprints collision-resistant
/// under correlated version bumps.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stored object: the encoding it travels in, and beside it the
/// coordinates the version guard and the digests read without decoding
/// it.
#[derive(Debug)]
struct Stored {
    enc: EncodedObject,
    version: u64,
    origin: u64,
    deleted: bool,
    /// [`fingerprint`] of this version.
    fingerprint: u64,
}

/// The Resource Information Base of one IPC process.
#[derive(Debug, Default)]
pub struct Rib {
    /// The member's own DIF-internal address (0 until enrolled).
    origin: u64,
    objects: BTreeMap<String, Stored>,
    events: VecDeque<RibEvent>,
    /// Objects (new versions) to disseminate to neighbors.
    outbox: VecDeque<EncodedObject>,
    /// XOR of [`fingerprint`] over every stored object (tombstones
    /// included), maintained incrementally.
    digest: u64,
    /// Per-subtree `(count, digest)`, maintained incrementally alongside
    /// the whole-RIB digest (keys are [`subtree_of`] results).
    subtrees: BTreeMap<String, (u64, u64)>,
    /// Name prefixes with a change subscription (see [`Rib::watch_prefix`]).
    watch_prefixes: Vec<String>,
    /// Stored objects matching a watched prefix, in application order.
    watch_q: VecDeque<EncodedObject>,
    /// Subtrees with **local replication scope** (sorted): their objects
    /// are owner-held instead of DIF-wide. A local subtree is excluded
    /// from the digest table, the enrollment snapshot, and delta
    /// serving, and its live writes are not queued for dissemination —
    /// only its tombstones flood, so remote caches still hear deletions.
    local_subtrees: Vec<String>,
    /// Bumped by everything that can change [`Rib::digest_table`] (see
    /// [`Rib::generation`]).
    generation: u64,
}

impl Rib {
    /// An empty RIB for a member that will write with address `origin`.
    pub fn new(origin: u64) -> Self {
        Rib { origin, ..Default::default() }
    }

    /// Update the origin address (set when enrollment assigns one).
    pub fn set_origin(&mut self, origin: u64) {
        self.origin = origin;
    }

    /// This member's origin address.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Give `subtree` (a [`subtree_of`] result, e.g. `"/dir"`) **local
    /// replication scope**: its objects stay owner-held instead of
    /// replicating DIF-wide. From this call on the subtree disappears
    /// from [`Rib::digest_table`] (so hellos stop advertising it),
    /// [`Rib::snapshot`] (so enrollment stops copying it), and
    /// [`Rib::delta_for`]/[`Rib::summary`] (so anti-entropy never pulls
    /// it), and live writes under it skip the dissemination outbox.
    /// Tombstones still disseminate — deletion floods are how remote
    /// lookup caches hear invalidations. Watchers registered for a
    /// prefix inside the subtree are torn down: a watcher must not fire
    /// on entries that are no longer part of the replicated RIB.
    pub fn set_local_subtree(&mut self, subtree: &str) {
        self.generation += 1;
        if let Err(i) = self.local_subtrees.binary_search_by(|s| s.as_str().cmp(subtree)) {
            self.local_subtrees.insert(i, subtree.to_string());
        }
        self.watch_prefixes.retain(|p| subtree_of(p) != subtree);
        self.watch_q.retain(|o| subtree_of(o.view().name) != subtree);
    }

    /// A counter that moves whenever [`Rib::digest_table`] may have: on
    /// every stored version and every replication-scope change. Equal
    /// generations mean an equal table, so whatever was derived from the
    /// table (an encoded hello) can be kept until the generation moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether `subtree` has local replication scope.
    pub fn is_local_subtree(&self, subtree: &str) -> bool {
        self.local_subtrees.binary_search_by(|s| s.as_str().cmp(subtree)).is_ok()
    }

    /// The subtrees with local replication scope, sorted.
    pub fn local_subtrees(&self) -> &[String] {
        &self.local_subtrees
    }

    /// Write (create or update) an object authored locally. The new version
    /// supersedes any existing one and is queued for dissemination.
    pub fn write_local(&mut self, name: &str, class: &str, value: Bytes) {
        let version = self.objects.get(name).map_or(1, |o| o.version + 1);
        self.store_local(RibObject {
            name: name.to_string(),
            class: class.to_string(),
            value,
            version,
            origin: self.origin,
            deleted: false,
        });
    }

    /// Subscribe to object-level changes under `prefix`: every stored
    /// version (local write, remote apply, tombstone — *any* path into
    /// the RIB) whose name starts with `prefix` is queued for
    /// [`Rib::poll_watch`]. This is the delta hook consumers like the
    /// routing engine use to mirror a subtree incrementally instead of
    /// re-decoding it: because it sits on the single store choke point,
    /// deletions propagate exactly like upserts, whichever protocol path
    /// delivered them.
    pub fn watch_prefix(&mut self, prefix: &str) {
        if !self.watch_prefixes.iter().any(|p| p == prefix) {
            self.watch_prefixes.push(prefix.to_string());
        }
    }

    /// Drain the next watched change (in application order), as stored.
    pub fn poll_watch(&mut self) -> Option<EncodedObject> {
        self.watch_q.pop_front()
    }

    /// Tear down the subscription registered by [`Rib::watch_prefix`]
    /// for exactly `prefix`, dropping any of its queued-but-undrained
    /// changes. No-op if the prefix was never watched (or was already
    /// torn down by [`Rib::set_local_subtree`]).
    pub fn unwatch_prefix(&mut self, prefix: &str) {
        if !self.watch_prefixes.iter().any(|p| p == prefix) {
            return;
        }
        self.watch_prefixes.retain(|p| p != prefix);
        // Keep queued changes still covered by another live watcher.
        let live = &self.watch_prefixes;
        self.watch_q.retain(|o| Self::watched(live, o.view().name));
    }

    /// Store the version `(version, origin, deleted)` of `name` if it is
    /// newer than the one held, keeping the incremental digests
    /// (whole-RIB and per-subtree) in sync — the single store choke
    /// point. The version guard and the store share one map walk, and
    /// `enc` is asked for the encoding only once the version has won.
    /// Returns whether it was stored.
    fn put(
        &mut self,
        name: &str,
        version: u64,
        origin: u64,
        deleted: bool,
        enc: impl FnOnce() -> EncodedObject,
    ) -> bool {
        let slot = self.objects.get_mut(name);
        if slot.as_ref().is_some_and(|cur| (version, origin) <= (cur.version, cur.origin)) {
            // Nothing is computed for a version that loses: most do.
            return false;
        }
        let fingerprint = fingerprint(name, version, origin, deleted);
        let new = Stored { enc: enc(), version, origin, deleted, fingerprint };
        if Self::watched(&self.watch_prefixes, name) {
            self.watch_q.push_back(new.enc.clone());
        }
        let old = match slot {
            Some(cur) => Some(std::mem::replace(cur, new).fingerprint),
            None => {
                self.objects.insert(name.to_string(), new);
                None
            }
        };
        self.account(subtree_of(name), old, fingerprint);
        true
    }

    /// Store a version authored here, queue its event, and queue it for
    /// dissemination unless it is a live write under a local subtree.
    fn store_local(&mut self, obj: RibObject) {
        let enc = EncodedObject::of(&obj);
        if obj.deleted || !self.is_local_subtree(subtree_of(&obj.name)) {
            self.outbox.push_back(enc.clone());
        }
        // A local version is one above whatever is held: it always wins.
        self.put(&obj.name, obj.version, obj.origin, obj.deleted, || enc);
        self.events.push_back(RibEvent::of(obj));
    }

    fn watched(prefixes: &[String], name: &str) -> bool {
        prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }

    /// Fold one stored version of an object in `subtree` into the
    /// incremental digests: fingerprint `new` replaces `old` (`None` =
    /// the name was not stored before).
    fn account(&mut self, subtree: &str, old: Option<u64>, new: u64) {
        self.generation += 1;
        // get_mut-then-insert instead of the entry API: the common case
        // (subtree exists) must not allocate an owned key per store —
        // this runs once per applied object, millions of times in a big
        // assembly.
        if self.subtrees.get_mut(subtree).is_none() {
            self.subtrees.insert(subtree.to_string(), (0, 0));
        }
        let entry = self.subtrees.get_mut(subtree).expect("just ensured");
        match old {
            Some(f) => {
                self.digest ^= f;
                entry.1 ^= f;
            }
            None => entry.0 += 1,
        }
        self.digest ^= new;
        entry.1 ^= new;
    }

    /// Every stored object (tombstones included) whose name starts with
    /// `prefix`, in name order, starting at `start` if that sorts after
    /// `prefix`.
    fn range_of<'a>(
        &'a self,
        prefix: &'a str,
        start: &str,
    ) -> impl Iterator<Item = (&'a String, &'a Stored)> + 'a {
        self.objects
            .range::<str, _>((Bound::Included(prefix.max(start)), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// All stored objects (tombstones included) in `subtree`, name order.
    fn subtree_objects<'a>(
        &'a self,
        subtree: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a Stored)> + 'a {
        self.range_of(subtree, subtree).filter(move |(k, _)| subtree_of(k) == subtree)
    }

    /// [`Rib::write_local`], but a no-op when the object already holds
    /// exactly `value` (live, same class). Keeps idempotent re-writes —
    /// enrollment re-grants, repeated registrations — from bumping
    /// versions, which would re-flood an unchanged object DIF-wide.
    /// Returns whether a write happened.
    pub fn write_local_if_changed(&mut self, name: &str, class: &str, value: Bytes) -> bool {
        match self.get(name) {
            Some(o) if o.class == class && o.value == &value[..] => false,
            _ => {
                self.write_local(name, class, value);
                true
            }
        }
    }

    /// Tombstone an object authored locally. No-op if absent or already
    /// deleted.
    pub fn delete_local(&mut self, name: &str) {
        let Some(cur) = self.objects.get(name).filter(|o| !o.deleted) else {
            return;
        };
        self.store_local(RibObject {
            name: name.to_string(),
            class: cur.enc.view().class.to_string(),
            value: Bytes::new(),
            version: cur.version + 1,
            origin: self.origin,
            deleted: true,
        });
    }

    /// Apply an object received from a peer. Returns `true` if it was newer
    /// than local state (caller should then re-flood it to other
    /// neighbors); `false` if stale or identical.
    pub fn apply_remote(&mut self, obj: RibObject) -> bool {
        let fresh = self.apply_owned(&obj);
        if fresh {
            self.events.push_back(RibEvent::of(obj));
        }
        fresh
    }

    /// [`Rib::apply_remote`] without queueing a [`RibEvent`] — for
    /// callers that react to the returned freshness directly and would
    /// only drain-and-discard the event.
    pub fn apply_remote_silent(&mut self, obj: RibObject) -> bool {
        self.apply_owned(&obj)
    }

    fn apply_owned(&mut self, obj: &RibObject) -> bool {
        self.put(&obj.name, obj.version, obj.origin, obj.deleted, || EncodedObject::of(obj))
    }

    /// [`Rib::apply_remote_silent`] for an object still in its arriving
    /// frame, decided on the view the receive path already holds. A
    /// stale or duplicate object allocates nothing; a newer one is
    /// stored as a copy of the encoding it arrived in — one copy, in a
    /// buffer of its own, however the object changed.
    pub fn apply_ref(&mut self, obj: &RibObjectRef<'_>) -> bool {
        self.put(obj.name, obj.version, obj.origin, obj.deleted, || EncodedObject::copy_of(obj))
    }

    /// Current value of a live (non-deleted) object.
    pub fn get(&self, name: &str) -> Option<RibObjectRef<'_>> {
        self.objects.get(name).filter(|o| !o.deleted).map(|o| o.enc.view())
    }

    /// All live objects whose names start with `prefix`, in name order.
    pub fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = RibObjectRef<'a>> + 'a {
        self.range_of(prefix, prefix).filter(|(_, o)| !o.deleted).map(|(_, o)| o.enc.view())
    }

    /// Names of every live object whose last write came from `origin` —
    /// what a departed member left behind (its LSA, its directory
    /// registrations). Garbage collection tombstones each name via
    /// [`Rib::delete_local`], so the deletions flood and the digests
    /// converge like any other write.
    pub fn live_of_origin(&self, origin: u64) -> Vec<String> {
        self.objects
            .iter()
            .filter(|(_, o)| !o.deleted && o.origin == origin)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Every stored object (tombstones included) whose last write came
    /// from `origin`, as stored, in name order — what periodic
    /// re-advertisement hands on (3 own objects, not a 3000-object RIB).
    pub fn written_by(&self, origin: u64) -> impl Iterator<Item = &EncodedObject> + '_ {
        self.objects.values().filter(move |o| o.origin == origin).map(|o| &o.enc)
    }

    /// Every object including tombstones, as stored, in name order — the
    /// enrollment sync set a new member receives (§5.2). Local-scope
    /// subtrees are excluded: their objects are owner-held, so a joiner
    /// never receives them.
    pub fn snapshot(&self) -> Vec<EncodedObject> {
        self.objects
            .iter()
            .filter(|(k, _)| !self.is_local_subtree(subtree_of(k)))
            .map(|(_, o)| o.enc.clone())
            .collect()
    }

    /// Every stored object, tombstones included, in name order.
    pub fn iter_all(&self) -> impl Iterator<Item = RibObjectRef<'_>> + '_ {
        self.objects.values().map(|o| o.enc.view())
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.values().filter(|o| !o.deleted).count()
    }

    /// Number of stored objects, tombstones included (pairs with
    /// [`Rib::digest`] for anti-entropy comparisons).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Order-independent fingerprint of the stored object versions. Two
    /// RIBs with equal `(object_count, digest)` are in sync; a mismatch
    /// means someone missed an update.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Per-subtree digest table (see [`DigestTable`]): comparing two
    /// tables localizes divergence to the subtrees that actually differ.
    /// Local-scope subtrees are omitted — hellos must not advertise
    /// owner-held state, or every peer would try to pull it.
    pub fn digest_table(&self) -> DigestTable {
        DigestTable::from_entries(
            self.subtrees
                .iter()
                .filter(|(s, _)| !self.is_local_subtree(s))
                .map(|(s, &(c, d))| (s.clone(), c, d))
                .collect(),
        )
    }

    /// What `self.digest_table().mismatched(peer)` returns, read off the
    /// incremental per-subtree digests: no table is built, and nothing
    /// is allocated unless some subtree actually differs.
    pub fn mismatched(&self, peer: &DigestTable) -> Vec<String> {
        let ours = self
            .subtrees
            .iter()
            .filter(|(s, _)| !self.is_local_subtree(s))
            .map(|(s, &(c, d))| (s.as_str(), c, d));
        diff_tables(ours, peer.triples())
    }

    /// This RIB's `(count, digest)` for one subtree, if any object of it
    /// is stored.
    pub fn subtree_digest(&self, subtree: &str) -> Option<(u64, u64)> {
        self.subtrees.get(subtree).copied()
    }

    /// Version summary of every stored object (tombstones included) in
    /// `subtree`, in name order — what a delta request carries instead of
    /// the objects themselves. Empty for local-scope subtrees: they are
    /// never offered for anti-entropy.
    pub fn summary<'a>(&'a self, subtree: &'a str) -> Vec<ObjVer<'a>> {
        if self.is_local_subtree(subtree) {
            return Vec::new();
        }
        self.subtree_objects(subtree)
            .map(|(k, o)| ObjVer { name: k, version: o.version, origin: o.origin })
            .collect()
    }

    /// Answer a delta request: given a peer's version `summary` of
    /// `subtree` restricted to names in `[from, upto)` (empty bound =
    /// unbounded), return the objects *we* hold in that range which the
    /// peer lacks or holds older, as stored, plus `true` if the summary
    /// proves the peer holds versions newer than ours (so the caller
    /// should issue its own request for this subtree). A name the
    /// summary lists twice is compared at its last entry.
    pub fn delta_for<'a>(
        &'a self,
        subtree: &'a str,
        from: &str,
        upto: &str,
        summary: &[ObjVer<'_>],
    ) -> (Vec<&'a EncodedObject>, bool) {
        if self.is_local_subtree(subtree) {
            // Owner-held state is never served by anti-entropy, and a
            // peer's summary of it proves nothing we should pull.
            return (Vec::new(), false);
        }
        let in_range =
            |name: &str| (from.is_empty() || name >= from) && (upto.is_empty() || name < upto);
        // A peer's summary comes from its own name-ordered RIB, so it is
        // merged with ours as it stands; any other list is merged from a
        // sorted copy, whose stable sort keeps a twice-listed name's
        // entries in the order they were listed.
        let sorted;
        let theirs = if summary.windows(2).all(|w| w[0].name < w[1].name) {
            summary
        } else {
            let mut copy = summary.to_vec();
            copy.sort_by(|a, b| a.name.cmp(b.name));
            sorted = copy;
            &sorted
        };
        let mut theirs = theirs.iter().filter(|v| in_range(v.name)).peekable();
        // Whether an entry the walk pairs with none of our objects proves
        // the peer ahead. One in this subtree names an object we lack
        // (the walk meets every one we hold in range); any other name
        // is looked up.
        let lacked = |v: &ObjVer<'_>| {
            subtree_of(v.name) == subtree
                || self
                    .objects
                    .get(v.name)
                    .is_none_or(|o| (v.version, v.origin) > (o.version, o.origin))
        };
        let mut send = Vec::with_capacity(self.subtree_digest(subtree).map_or(0, |e| e.0 as usize));
        let mut behind = false;
        let ours = self
            .range_of(subtree, from)
            .take_while(|(k, _)| upto.is_empty() || k.as_str() < upto)
            .filter(|(k, _)| subtree_of(k) == subtree);
        for (name, o) in ours {
            let mut peer = None;
            while let Some(v) = theirs.next_if(|v| v.name <= name.as_str()) {
                if v.name == name {
                    behind |= (v.version, v.origin) > (o.version, o.origin);
                    peer = Some((v.version, v.origin));
                } else {
                    behind |= lacked(v);
                }
            }
            if peer.is_none_or(|p| p < (o.version, o.origin)) {
                send.push(&o.enc);
            }
        }
        for v in theirs {
            behind |= lacked(v);
        }
        (send, behind)
    }

    /// True when no live objects exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain pending local events.
    pub fn poll_event(&mut self) -> Option<RibEvent> {
        self.events.pop_front()
    }

    /// Drain objects queued for dissemination to neighbors, as stored.
    pub fn poll_dissemination(&mut self) -> Option<EncodedObject> {
        self.outbox.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain_events(r: &mut Rib) -> Vec<RibEvent> {
        std::iter::from_fn(|| r.poll_event()).collect()
    }

    /// The next object queued for dissemination, decoded.
    fn pop_out(r: &mut Rib) -> RibObject {
        owned(&r.poll_dissemination().expect("an object was queued"))
    }

    fn owned(enc: &EncodedObject) -> RibObject {
        fields(enc.view())
    }

    /// A view's fields, copied — what the borrowed decoder read.
    fn fields(v: RibObjectRef<'_>) -> RibObject {
        RibObject {
            name: v.name.to_string(),
            class: v.class.to_string(),
            value: Bytes::copy_from_slice(v.value),
            version: v.version,
            origin: v.origin,
            deleted: v.deleted,
        }
    }

    #[test]
    fn local_write_and_get() {
        let mut rib = Rib::new(5);
        rib.write_local("/dir/app-a", "dir", Bytes::from_static(b"\x2a"));
        let o = rib.get("/dir/app-a").unwrap();
        assert_eq!(o.version, 1);
        assert_eq!(o.origin, 5);
        assert_eq!(o.value, b"\x2a");
        let evs = drain_events(&mut rib);
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], RibEvent::Upserted(_)));
        assert!(rib.poll_dissemination().is_some());
        assert!(rib.poll_dissemination().is_none());
    }

    #[test]
    fn rewrite_bumps_version() {
        let mut rib = Rib::new(1);
        rib.write_local("/x", "c", Bytes::from_static(b"1"));
        rib.write_local("/x", "c", Bytes::from_static(b"2"));
        assert_eq!(rib.get("/x").unwrap().version, 2);
        assert_eq!(rib.get("/x").unwrap().value, b"2");
    }

    #[test]
    fn write_if_changed_skips_identical_values() {
        let mut rib = Rib::new(1);
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"1")));
        assert!(!rib.write_local_if_changed("/x", "c", Bytes::from_static(b"1")));
        assert_eq!(rib.get("/x").unwrap().version, 1, "no version churn");
        assert!(rib.poll_dissemination().is_some());
        assert!(rib.poll_dissemination().is_none(), "no re-flood queued");
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"2")));
        // A tombstoned object counts as changed: it must resurrect.
        rib.delete_local("/x");
        assert!(rib.write_local_if_changed("/x", "c", Bytes::from_static(b"2")));
        assert_eq!(rib.get("/x").unwrap().value, b"2");
    }

    #[test]
    fn remote_newer_applies_and_floods_stale_does_not() {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v1"));
        let o1 = pop_out(&mut a);
        assert!(b.apply_remote(o1.clone()));
        assert!(!b.apply_remote(o1.clone()), "duplicate is stale");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v2"));
        let o2 = pop_out(&mut a);
        assert!(b.apply_remote(o2));
        assert!(!b.apply_remote(o1), "old version rejected");
        assert_eq!(b.get("/lsa/1").unwrap().value, b"v2");
    }

    #[test]
    fn delete_tombstones_and_wins() {
        let mut a = Rib::new(1);
        a.write_local("/dir/app", "dir", Bytes::from_static(b"7"));
        let create = pop_out(&mut a);
        a.delete_local("/dir/app");
        let tomb = pop_out(&mut a);
        assert!(a.get("/dir/app").is_none());
        assert_eq!(a.len(), 0);

        // A peer that sees the delete after the create ends deleted…
        let mut b = Rib::new(2);
        assert!(b.apply_remote(create.clone()));
        assert!(b.apply_remote(tomb.clone()));
        assert!(b.get("/dir/app").is_none());
        // …and a peer that sees them reordered also ends deleted.
        let mut c = Rib::new(3);
        assert!(c.apply_remote(tomb));
        assert!(!c.apply_remote(create));
        assert!(c.get("/dir/app").is_none());
    }

    #[test]
    fn delete_absent_is_noop() {
        let mut a = Rib::new(1);
        a.delete_local("/nope");
        assert!(drain_events(&mut a).is_empty());
        assert!(a.poll_dissemination().is_none());
    }

    #[test]
    fn live_of_origin_filters_tombstones_and_other_members() {
        let mut a = Rib::new(7);
        a.write_local("/lsa/7", "lsa", Bytes::from_static(b"me"));
        a.write_local("/dir/app7", "dir", Bytes::from_static(b"7"));
        a.write_local("/blocks/7", "block", Bytes::from_static(b"b"));
        a.delete_local("/dir/app7");
        // Another member's object arrives via dissemination.
        let mut b = Rib::new(9);
        b.write_local("/lsa/9", "lsa", Bytes::from_static(b"peer"));
        let obj = pop_out(&mut b);
        assert!(a.apply_remote(obj));

        let mut live = a.live_of_origin(7);
        live.sort();
        assert_eq!(live, vec!["/blocks/7".to_string(), "/lsa/7".to_string()]);
        assert_eq!(a.live_of_origin(9), vec!["/lsa/9".to_string()]);
        assert!(a.live_of_origin(3).is_empty());
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two members write the same name at the same version.
        let mut a = Rib::new(1);
        let mut b = Rib::new(9);
        a.write_local("/contested", "c", Bytes::from_static(b"low"));
        b.write_local("/contested", "c", Bytes::from_static(b"high"));
        let oa = pop_out(&mut a);
        let ob = pop_out(&mut b);
        // Cross-apply in both orders: both converge on origin 9's value.
        let mut x = Rib::new(50);
        assert!(x.apply_remote(oa.clone()));
        assert!(x.apply_remote(ob.clone()));
        let mut y = Rib::new(51);
        assert!(y.apply_remote(ob));
        assert!(!y.apply_remote(oa));
        assert_eq!(x.get("/contested").unwrap().value, y.get("/contested").unwrap().value);
        assert_eq!(x.get("/contested").unwrap().value, b"high");
    }

    #[test]
    fn prefix_iteration_ordered_and_filtered() {
        let mut rib = Rib::new(1);
        rib.write_local("/dir/b", "dir", Bytes::new());
        rib.write_local("/dir/a", "dir", Bytes::new());
        rib.write_local("/lsa/1", "lsa", Bytes::new());
        rib.write_local("/dir/c", "dir", Bytes::new());
        rib.delete_local("/dir/b");
        let names: Vec<_> = rib.iter_prefix("/dir/").map(|o| o.name).collect();
        assert_eq!(names, vec!["/dir/a", "/dir/c"]);
    }

    #[test]
    fn snapshot_includes_tombstones() {
        let mut rib = Rib::new(1);
        rib.write_local("/a", "c", Bytes::new());
        rib.delete_local("/a");
        rib.write_local("/b", "c", Bytes::new());
        let snap = rib.snapshot();
        assert_eq!(snap.len(), 2);
        // A fresh member applying the snapshot converges.
        let mut n = Rib::new(7);
        for o in snap {
            n.apply_ref(&o.view());
        }
        assert!(n.get("/a").is_none());
        assert!(n.get("/b").is_some());
    }

    #[test]
    fn digest_tracks_state_not_history() {
        // Two RIBs reaching the same object versions by different routes
        // end with the same digest; divergent state differs.
        let mut a = Rib::new(1);
        a.write_local("/x", "c", Bytes::from_static(b"1"));
        a.write_local("/y", "c", Bytes::from_static(b"2"));
        let (ox, oy) = (pop_out(&mut a), pop_out(&mut a));
        let mut b = Rib::new(2);
        assert_ne!((a.object_count(), a.digest()), (b.object_count(), b.digest()));
        b.apply_remote(oy); // reversed arrival order
        b.apply_remote(ox);
        assert_eq!((a.object_count(), a.digest()), (b.object_count(), b.digest()));
        // A new version moves the digest; syncing restores it.
        a.write_local("/x", "c", Bytes::from_static(b"3"));
        let o = pop_out(&mut a);
        assert_ne!(a.digest(), b.digest());
        b.apply_remote(o);
        assert_eq!(a.digest(), b.digest());
        // Tombstones count too.
        a.delete_local("/y");
        assert_ne!(a.digest(), b.digest());
        b.apply_remote(pop_out(&mut a));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.object_count(), 2, "tombstone still stored");
    }

    #[test]
    fn object_encode_roundtrip() {
        let o = RibObject {
            name: "/dir/x".into(),
            class: "dir".into(),
            value: Bytes::from_static(b"\x01\x02"),
            version: 42,
            origin: 7,
            deleted: true,
        };
        assert_eq!(RibObject::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn flooding_converges_on_a_line_of_members() {
        // a - b - c: a's write reaches c through b's re-flood decision.
        let mut ribs = vec![Rib::new(1), Rib::new(2), Rib::new(3)];
        ribs[0].write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        // Simulate flooding: each dissemination is offered to neighbors,
        // re-offered while apply_remote returns true.
        let mut pending: Vec<(usize, RibObject)> = vec![];
        let mut out = || ribs[0].poll_dissemination().map(|o| owned(&o));
        while let Some(o) = out() {
            pending.push((0, o));
        }
        while let Some((from, obj)) = pending.pop() {
            let neighbors: &[usize] = match from {
                0 => &[1],
                1 => &[0, 2],
                _ => &[1],
            };
            for &n in neighbors {
                if ribs[n].apply_remote(obj.clone()) {
                    pending.push((n, obj.clone()));
                }
            }
        }
        for rib in &ribs {
            assert_eq!(rib.get("/lsa/1").unwrap().value, b"x");
        }
    }

    #[test]
    fn subtree_of_splits_on_second_separator() {
        assert_eq!(subtree_of("/lsa/17"), "/lsa");
        assert_eq!(subtree_of("/dir/echo.h1"), "/dir");
        assert_eq!(subtree_of("/members/net.a/b"), "/members");
        assert_eq!(subtree_of("/flat"), "/flat");
        assert_eq!(subtree_of("bare"), "bare");
        assert_eq!(subtree_of(""), "");
    }

    #[test]
    fn digest_table_localizes_divergence_to_subtrees() {
        let mut a = Rib::new(1);
        a.write_local("/dir/x", "dir", Bytes::from_static(b"1"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"2"));
        let mut b = Rib::new(2);
        while let Some(o) = a.poll_dissemination() {
            b.apply_ref(&o.view());
        }
        assert_eq!(a.digest_table(), b.digest_table());
        assert!(a.digest_table().mismatched(&b.digest_table()).is_empty());
        // A /lsa-only change must not implicate /dir.
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"3"));
        let mm = a.digest_table().mismatched(&b.digest_table());
        assert_eq!(mm, vec!["/lsa".to_string()]);
        // The totals still match the whole-RIB digest machinery.
        assert_eq!(a.digest_table().total_digest(), a.digest());
        assert_eq!(a.digest_table().total_count(), a.object_count() as u64);
        // A subtree present on only one side is a mismatch too.
        b.write_local("/blocks/9", "block", Bytes::new());
        let mm = a.digest_table().mismatched(&b.digest_table());
        assert_eq!(mm, vec!["/blocks".to_string(), "/lsa".to_string()]);
    }

    #[test]
    fn delta_for_sends_exactly_what_the_peer_lacks() {
        let mut a = Rib::new(1);
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/lsa/2", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/lsa/3", "lsa", Bytes::from_static(b"v1"));
        a.write_local("/dir/x", "dir", Bytes::new());
        let mut b = Rib::new(2);
        // b holds /lsa/2 at the same version and /lsa/3 newer.
        b.apply_ref(&a.get("/lsa/2").unwrap());
        let mut newer = fields(a.get("/lsa/3").unwrap());
        newer.version += 1;
        newer.origin = 2;
        b.apply_remote(newer);
        let (send, behind) = a.delta_for("/lsa", "", "", &b.summary("/lsa"));
        let names: Vec<_> = send.iter().map(|o| o.view().name).collect();
        assert_eq!(names, vec!["/lsa/1"], "equal version skipped, newer-at-peer skipped");
        assert!(behind, "the summary proves the peer has a newer /lsa/3");
        // Range bounds restrict the exchange.
        let (send, behind) = a.delta_for("/lsa", "/lsa/2", "", &b.summary("/lsa"));
        assert!(send.is_empty() && behind);
        let (send, behind) = a.delta_for("/lsa", "", "/lsa/2", &b.summary("/lsa"));
        assert_eq!(send.len(), 1);
        assert!(!behind, "peer's newer /lsa/3 is outside [., /lsa/2)");
        // An empty summary (fresh joiner) pulls the whole subtree.
        let (send, behind) = a.delta_for("/lsa", "", "", &[]);
        assert_eq!(send.len(), 3);
        assert!(!behind);
    }

    /// A summary no honest peer sends — out of name order, one name
    /// listed twice — is answered by the same rule as a map built from
    /// it: a name is compared at its last entry, and any entry newer
    /// than ours proves the peer ahead.
    #[test]
    fn delta_for_reads_a_disordered_summary_at_each_names_last_entry() {
        let mut a = Rib::new(1);
        for n in ["/lsa/1", "/lsa/2", "/lsa/3"] {
            a.write_local(n, "lsa", Bytes::from_static(b"v"));
            a.write_local(n, "lsa", Bytes::from_static(b"w"));
        }
        let at = |name, version| ObjVer { name, version, origin: 1 };
        let names = |send: Vec<&EncodedObject>| -> Vec<String> {
            send.iter().map(|o| o.view().name.to_string()).collect()
        };
        // /lsa/2 listed current, then behind: the later entry wins.
        let summary = [at("/lsa/3", 2), at("/lsa/2", 2), at("/lsa/1", 2), at("/lsa/2", 1)];
        let (send, behind) = a.delta_for("/lsa", "", "", &summary);
        assert_eq!(names(send), vec!["/lsa/2"]);
        assert!(!behind);
        // Listed behind, then current: nothing to send.
        let summary = [at("/lsa/2", 1), at("/lsa/3", 2), at("/lsa/1", 2), at("/lsa/2", 2)];
        let (send, behind) = a.delta_for("/lsa", "", "", &summary);
        assert!(send.is_empty() && !behind);
        // An entry ahead of ours counts wherever it sits, and so does
        // a name we lack, inside the subtree or out of it.
        let summary = [at("/lsa/2", 3), at("/lsa/1", 2), at("/lsa/3", 2), at("/lsa/2", 2)];
        assert_eq!(a.delta_for("/lsa", "", "", &summary), (vec![], true));
        let summary = [at("/lsa/9", 1), at("/lsa/1", 2), at("/lsa/3", 2), at("/lsa/2", 2)];
        assert_eq!(a.delta_for("/lsa", "", "", &summary), (vec![], true));
        let summary = [at("/lsa/3", 2), at("/dir/x", 1), at("/lsa/1", 2), at("/lsa/2", 2)];
        assert_eq!(a.delta_for("/lsa", "", "", &summary), (vec![], true));
    }

    /// The watch hook fires on every path into the store — local
    /// writes, remote applies (silent or not), and deletions — and only
    /// for matching prefixes.
    #[test]
    fn watch_prefix_sees_every_store_path() {
        let mut a = Rib::new(1);
        a.watch_prefix("/lsa/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/dir/app", "dir", Bytes::from_static(b"7"));
        let remote = RibObject {
            name: "/lsa/9".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"y"),
            version: 3,
            origin: 9,
            deleted: false,
        };
        assert!(a.apply_remote_silent(remote.clone()));
        assert!(!a.apply_remote_silent(remote), "stale apply must not re-notify");
        a.delete_local("/lsa/1");
        let seen: Vec<(String, bool)> = std::iter::from_fn(|| a.poll_watch())
            .map(|o| (owned(&o).name, o.view().deleted))
            .collect();
        assert_eq!(
            seen,
            vec![
                ("/lsa/1".to_string(), false),
                ("/lsa/9".to_string(), false),
                ("/lsa/1".to_string(), true),
            ],
            "application order, deletions included, /dir ignored"
        );
    }

    /// A local-scope subtree leaves the replication surface: no digest
    /// advertisement, no snapshot copy, no delta serving, no
    /// dissemination of live writes — but tombstones still flood.
    #[test]
    fn local_subtree_leaves_the_replication_surface() {
        let mut a = Rib::new(1);
        a.set_local_subtree("/dir");
        assert!(a.is_local_subtree("/dir"));
        assert!(!a.is_local_subtree("/lsa"));
        a.write_local("/dir/echo", "dir", Bytes::from_static(b"\x01"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        // Only the /lsa write disseminates.
        let out: Vec<EncodedObject> = std::iter::from_fn(|| a.poll_dissemination()).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].view().name, "/lsa/1");
        // The owner still reads its own entry; events still fire.
        assert!(a.get("/dir/echo").is_some());
        assert_eq!(drain_events(&mut a).len(), 2);
        // Digest table, snapshot, summary, delta all exclude /dir.
        let table = a.digest_table();
        let subs: Vec<&str> = table.entries().iter().map(|e| e.0.as_str()).collect();
        assert_eq!(subs, vec!["/lsa"]);
        assert!(a.snapshot().iter().all(|o| !o.view().name.starts_with("/dir")));
        assert!(a.summary("/dir").is_empty());
        assert_eq!(a.delta_for("/dir", "", "", &[]), (vec![], false));
        // Tombstones still flood — remote caches must hear deletions.
        a.delete_local("/dir/echo");
        let tomb = pop_out(&mut a);
        assert!(tomb.deleted && tomb.name == "/dir/echo");
        assert!(a.poll_dissemination().is_none());
    }

    /// Two RIBs that agree on every replicated subtree compare in sync
    /// even when their owner-held /dir contents differ completely.
    #[test]
    fn scoped_ribs_compare_in_sync_despite_divergent_dir() {
        let mut a = Rib::new(1);
        let mut b = Rib::new(2);
        for r in [&mut a, &mut b] {
            r.set_local_subtree("/dir");
        }
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/dir/app-a", "dir", Bytes::from_static(b"\x01"));
        b.write_local("/dir/app-b", "dir", Bytes::from_static(b"\x02"));
        while let Some(o) = a.poll_dissemination() {
            b.apply_ref(&o.view());
        }
        assert!(a.digest_table().mismatched(&b.digest_table()).is_empty());
    }

    /// Satellite fix: a watcher registered for a prefix that later
    /// becomes non-replicated is torn down — it must not fire on
    /// entries that are now owner-held/cache-only.
    #[test]
    fn watcher_torn_down_when_prefix_becomes_local_scope() {
        let mut a = Rib::new(1);
        a.watch_prefix("/dir/");
        a.watch_prefix("/lsa/");
        a.write_local("/dir/early", "dir", Bytes::from_static(b"\x01"));
        // The queued /dir change and the watcher itself both go.
        a.set_local_subtree("/dir");
        a.write_local("/dir/late", "dir", Bytes::from_static(b"\x02"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        let seen: Vec<String> =
            std::iter::from_fn(|| a.poll_watch()).map(|o| owned(&o).name).collect();
        assert_eq!(seen, vec!["/lsa/1".to_string()], "no /dir change fires, queued or new");
        // Re-registering after the scope change is also inert for /dir.
        a.watch_prefix("/lsa/");
        a.unwatch_prefix("/lsa/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"y"));
        assert!(a.poll_watch().is_none(), "unwatch stops deliveries");
    }

    /// `unwatch_prefix` drops only the torn-down watcher's queued
    /// changes — entries still covered by another watcher survive.
    #[test]
    fn unwatch_keeps_changes_of_other_watchers() {
        let mut a = Rib::new(1);
        a.watch_prefix("/lsa/");
        a.watch_prefix("/blocks/");
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        a.write_local("/blocks/1", "block", Bytes::from_static(b"b"));
        a.unwatch_prefix("/lsa/");
        let seen: Vec<String> =
            std::iter::from_fn(|| a.poll_watch()).map(|o| owned(&o).name).collect();
        assert_eq!(seen, vec!["/blocks/1".to_string()]);
    }

    /// Regression: with a linear fingerprint, the digest *difference* of
    /// a version bump was name-independent, so two objects each one
    /// version stale canceled in the XOR aggregate and two diverged RIBs
    /// compared equal — anti-entropy then never repaired them.
    #[test]
    fn correlated_version_skew_does_not_cancel_in_the_digest() {
        let mut a = Rib::new(1);
        a.write_local("/lsa/13", "lsa", Bytes::from_static(b"1"));
        a.write_local("/lsa/14", "lsa", Bytes::from_static(b"1"));
        let mut b = Rib::new(2);
        while let Some(o) = a.poll_dissemination() {
            b.apply_ref(&o.view());
        }
        // a advances both objects by exactly one version; b hears neither.
        a.write_local("/lsa/13", "lsa", Bytes::from_static(b"22"));
        a.write_local("/lsa/14", "lsa", Bytes::from_static(b"22"));
        assert_ne!(a.digest(), b.digest(), "equal-count divergence must be visible");
        assert_eq!(a.digest_table().mismatched(&b.digest_table()), vec!["/lsa".to_string()]);
    }

    #[test]
    fn digest_table_roundtrips_on_the_wire() {
        let mut a = Rib::new(1);
        a.write_local("/dir/x", "dir", Bytes::from_static(b"1"));
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"2"));
        a.delete_local("/dir/x");
        let t = a.digest_table();
        let mut w = Writer::new();
        t.encode_into(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(DigestTable::decode_from(&mut r).unwrap(), t);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn generation_moves_with_the_digest_table_and_only_then() {
        let mut a = Rib::new(1);
        let g0 = a.generation();
        a.write_local("/lsa/1", "lsa", Bytes::from_static(b"x"));
        let g1 = a.generation();
        assert!(g1 > g0, "a stored version moves it");
        let o = fields(a.get("/lsa/1").unwrap());
        assert!(!a.apply_remote_silent(o.clone()));
        assert!(!a.apply_ref(&EncodedObject::of(&o).view()));
        assert!(!a.write_local_if_changed("/lsa/1", "lsa", Bytes::from_static(b"x")));
        a.set_origin(9);
        assert_eq!(a.generation(), g1, "nothing stored, nothing moved");
        let table = a.digest_table();
        a.set_local_subtree("/lsa");
        assert!(a.generation() > g1, "a scope change moves it");
        assert_ne!(a.digest_table(), table);
    }

    #[test]
    fn apply_ref_updates_a_known_name_in_place() {
        let mut a = Rib::new(1);
        a.watch_prefix("/lsa/");
        let v1 = RibObject {
            name: "/lsa/9".into(),
            class: "lsa".into(),
            value: Bytes::from_static(b"one"),
            version: 1,
            origin: 9,
            deleted: false,
        };
        assert!(a.apply_ref(&EncodedObject::of(&v1).view()), "first-seen name is stored");
        let tomb = RibObject { value: Bytes::new(), version: 2, deleted: true, ..v1.clone() };
        assert!(a.apply_ref(&EncodedObject::of(&tomb).view()));
        assert!(!a.apply_ref(&EncodedObject::of(&v1).view()), "the older version is stale");
        assert!(a.get("/lsa/9").is_none());
        assert_eq!(a.iter_all().next(), Some(EncodedObject::of(&tomb).view()));
        // The same two versions through the owned path: same digests,
        // same watch stream.
        let mut b = Rib::new(1);
        b.watch_prefix("/lsa/");
        assert!(b.apply_remote_silent(v1));
        assert!(b.apply_remote_silent(tomb));
        assert_eq!(a.digest_table(), b.digest_table());
        assert_eq!(a.digest(), b.digest());
        let seen = |r: &mut Rib| std::iter::from_fn(|| r.poll_watch()).collect::<Vec<_>>();
        assert_eq!(seen(&mut a), seen(&mut b));
    }

    #[test]
    fn summary_roundtrips_in_wire_form() {
        let mut a = Rib::new(1);
        a.write_local("/dir/x", "dir", Bytes::from_static(b"1"));
        a.write_local("/dir/y", "dir", Bytes::from_static(b"2"));
        a.delete_local("/dir/x");
        let summary = a.summary("/dir");
        let enc = EncodedSummary::of(&summary);
        assert_eq!(EncodedSummary::parse(enc.wire().clone()).unwrap().entries(), summary);
        assert!(EncodedSummary::of(&[]).entries().is_empty());
        let mut cut = enc.wire().to_vec();
        cut.pop();
        assert!(EncodedSummary::parse(cut.into()).is_err());
        let mut long = enc.wire().to_vec();
        long.push(0);
        assert_eq!(EncodedSummary::parse(long.into()).err(), Some(WireError::TrailingBytes));
    }

    /// Run digest-driven delta sync between `a` (authoritative) and `b`
    /// until their tables agree, counting objects moved. Mirrors the
    /// ipcp exchange: per mismatched subtree, `b` summarizes, `a`
    /// answers with missing/newer objects.
    fn delta_sync(a: &mut Rib, b: &mut Rib) -> usize {
        let mut moved = 0;
        for _ in 0..64 {
            let mm = a.digest_table().mismatched(&b.digest_table());
            if mm.is_empty() {
                return moved;
            }
            for st in mm {
                let (objs, _) = a.delta_for(&st, "", "", &b.summary(&st));
                for o in objs {
                    moved += 1;
                    b.apply_ref(&o.view());
                }
            }
        }
        panic!("delta sync did not converge");
    }

    proptest! {
        #[test]
        fn prop_object_roundtrip(
            name in "[a-z/]{0,24}",
            class in "[a-z]{0,8}",
            value in proptest::collection::vec(any::<u8>(), 0..64),
            version in any::<u64>(),
            origin in any::<u64>(),
            deleted in any::<bool>(),
        ) {
            let o = RibObject { name, class, value: Bytes::from(value), version, origin, deleted };
            prop_assert_eq!(RibObject::decode(&o.encode()).unwrap(), o);
        }

        /// The borrowed decoder is the owned decoder minus the copies:
        /// same verdict and same fields on arbitrary bytes, on every
        /// truncation of a real encoding, and with trailing garbage.
        #[test]
        fn prop_ref_decode_agrees_with_owned_decode(
            junk in proptest::collection::vec(any::<u8>(), 0..48),
            name in "[a-z/]{0,24}",
            class in "[a-z]{0,8}",
            value in proptest::collection::vec(any::<u8>(), 0..64),
            version in any::<u64>(),
            origin in any::<u64>(),
            deleted in any::<bool>(),
            cut in 0usize..128,
        ) {
            let agree = |buf: &[u8]| RibObjectRef::decode(buf).map(fields) == RibObject::decode(buf);
            prop_assert!(agree(&junk));
            let o = RibObject { name, class, value: Bytes::from(value), version, origin, deleted };
            let enc = o.encode();
            prop_assert_eq!(RibObjectRef::decode(&enc).map(fields), Ok(o));
            prop_assert!(agree(&enc[..cut.min(enc.len())]));
            let mut tail = enc.to_vec();
            tail.extend_from_slice(&junk);
            prop_assert!(agree(&tail));
            prop_assert_eq!(EncodedObject::parse(tail.clone().into()).is_ok(), junk.is_empty());
        }

        /// One object, one accepted encoding: whatever bytes
        /// `EncodedObject::parse` accepts are exactly what
        /// `RibObject::encode` writes for their decode — so the stored
        /// bytes a member serves are the bytes an honest encoder would
        /// have written, however the peer that sent them padded its
        /// varints or booleans.
        #[test]
        fn prop_accepted_encodings_are_canonical(
            name in "[a-z/]{0,8}",
            value in proptest::collection::vec(any::<u8>(), 0..6),
            version in any::<u64>(),
            pads in proptest::collection::vec(0u8..4, 6..7),
            flag in any::<u8>(),
        ) {
            // A varint with `pad` extra groups: each pad moves the
            // terminator one group on, leaving a zero last group behind.
            let varint = |out: &mut Vec<u8>, v: u64, pad: u8| {
                let mut w = Writer::new();
                w.varint(v);
                let mut bytes = w.finish().to_vec();
                for _ in 0..pad {
                    if let Some(last) = bytes.last_mut() {
                        *last |= 0x80;
                    }
                    bytes.push(0);
                }
                out.extend_from_slice(&bytes);
            };
            let mut buf = Vec::new();
            for (field, pad) in [(name.as_bytes(), pads[0]), (b"c".as_slice(), pads[1]), (&value[..], pads[2])] {
                varint(&mut buf, field.len() as u64, pad);
                buf.extend_from_slice(field);
            }
            varint(&mut buf, version, pads[3]);
            varint(&mut buf, 7, pads[4]);
            // Half the cases write any byte as the deleted flag.
            let flag = if pads[5] < 2 { flag } else { flag & 1 };
            buf.push(flag);
            let canonical = pads[..5].iter().all(|&p| p == 0) && flag < 2;
            match EncodedObject::parse(Bytes::from(buf.clone())) {
                Ok(enc) => {
                    prop_assert!(canonical, "a padded encoding was accepted");
                    prop_assert_eq!(&owned(&enc).encode()[..], &buf[..]);
                }
                Err(_) => prop_assert!(!canonical, "a canonical encoding was refused"),
            }
        }

        /// The RIB against a plain model: a `BTreeMap` of owned objects
        /// and the queues it should be holding. A random run of local
        /// writes, conditional writes and deletes, applies of arriving
        /// encodings (stale, duplicate, newer, tombstone, changed
        /// class), scope changes and watch teardowns leaves the RIB
        /// agreeing with the model after every step — snapshot, digest
        /// table, generation, reads — and its watch queue and outbox
        /// decode to exactly what the model expects.
        #[test]
        fn prop_rib_matches_a_model(seed in any::<u64>()) {
            use rand::Rng;
            use rand::SeedableRng;
            use std::collections::VecDeque;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            const ME: u64 = 1;
            let mut rib = Rib::new(ME);
            let mut model: BTreeMap<String, RibObject> = BTreeMap::new();
            let (mut local, mut watching) = (Vec::<String>::new(), Vec::<String>::new());
            let (mut watch_q, mut outbox) = (VecDeque::new(), VecDeque::new());
            let mut generation = 0u64;
            for p in ["/lsa/", "/dir/", "/members/"] {
                if rng.gen_range(0..3u32) > 0 {
                    rib.watch_prefix(p);
                    watching.push(p.to_string());
                }
            }
            let classes = ["lsa", "dir", "member"];
            for _ in 0..80 {
                let name = format!(
                    "{}{}",
                    ["/lsa/", "/dir/", "/members/"][rng.gen_range(0..3usize)],
                    rng.gen_range(0..5u32)
                );
                let class = classes[rng.gen_range(0..3usize)];
                let value = Bytes::from(vec![rng.gen_range(0..4u8); rng.gen_range(0..3usize)]);
                let cur = model.get(&name).cloned();
                let live = cur.clone().filter(|o| !o.deleted);
                // The version the model stores, if any, and whether it
                // goes out through the outbox.
                let mut stored: Option<(RibObject, bool)> = None;
                match rng.gen_range(0..10u32) {
                    0 | 1 => {
                        rib.write_local(&name, class, value.clone());
                        let version = cur.map_or(1, |o| o.version + 1);
                        let o = RibObject {
                            name: name.clone(), class: class.into(), value, version, origin: ME,
                            deleted: false,
                        };
                        stored = Some((o, true));
                    }
                    2 => {
                        let wrote = rib.write_local_if_changed(&name, class, value.clone());
                        let same = live.is_some_and(|o| o.class == class && o.value == value);
                        prop_assert_eq!(wrote, !same);
                        if wrote {
                            let version = cur.map_or(1, |o| o.version + 1);
                            let o = RibObject {
                                name: name.clone(), class: class.into(), value, version,
                                origin: ME, deleted: false,
                            };
                            stored = Some((o, true));
                        }
                    }
                    3 => {
                        rib.delete_local(&name);
                        if let Some(o) = live {
                            let tomb = RibObject {
                                value: Bytes::new(), version: o.version + 1, origin: ME,
                                deleted: true, ..o
                            };
                            stored = Some((tomb, true));
                        }
                    }
                    4..=7 => {
                        let base = cur.unwrap_or(RibObject {
                            name: name.clone(), class: class.into(), value: value.clone(),
                            version: 1, origin: rng.gen_range(1..4u64), deleted: false,
                        });
                        let arriving = match rng.gen_range(0..5u32) {
                            // Stale: an older version, or the same one
                            // from a lower origin.
                            0 => RibObject {
                                version: rng.gen_range(0..=base.version),
                                origin: rng.gen_range(0..base.origin.max(1)),
                                ..base.clone()
                            },
                            // Duplicate: what is held, byte for byte.
                            1 => base.clone(),
                            // Newer: next version, any origin, new value.
                            2 => RibObject {
                                version: base.version + 1, origin: rng.gen_range(1..4u64),
                                value, deleted: false, ..base.clone()
                            },
                            // Tombstone.
                            3 => RibObject {
                                version: base.version + 1, value: Bytes::new(), deleted: true,
                                ..base.clone()
                            },
                            // Changed class: same version, higher origin.
                            _ => RibObject {
                                class: classes.iter().find(|c| **c != base.class)
                                    .map_or(String::new(), |c| c.to_string()),
                                origin: base.origin + 1, deleted: false, ..base.clone()
                            },
                        };
                        let newer = model.get(&name).is_none_or(|o| {
                            (arriving.version, arriving.origin) > (o.version, o.origin)
                        });
                        let enc = EncodedObject::of(&arriving);
                        let applied = if rng.gen_range(0..4u32) == 0 {
                            rib.apply_remote_silent(arriving.clone())
                        } else {
                            rib.apply_ref(&enc.view())
                        };
                        prop_assert_eq!(applied, newer);
                        if newer {
                            stored = Some((arriving, false));
                        }
                    }
                    8 => {
                        let subtree = subtree_of(&name).to_string();
                        rib.set_local_subtree(&subtree);
                        generation += 1;
                        if !local.contains(&subtree) {
                            local.push(subtree.clone());
                        }
                        watching.retain(|p| subtree_of(p) != subtree);
                        watch_q.retain(|o: &RibObject| subtree_of(&o.name) != subtree);
                    }
                    _ => {
                        let prefix = ["/lsa/", "/dir/", "/members/"][rng.gen_range(0..3usize)];
                        rib.unwatch_prefix(prefix);
                        watching.retain(|p| p != prefix);
                        watch_q.retain(|o: &RibObject| {
                            watching.iter().any(|p| o.name.starts_with(p.as_str()))
                        });
                    }
                }
                if let Some((o, local_write)) = stored {
                    generation += 1;
                    if watching.iter().any(|p| o.name.starts_with(p.as_str())) {
                        watch_q.push_back(o.clone());
                    }
                    if local_write && (o.deleted || !local.contains(&subtree_of(&o.name).to_string())) {
                        outbox.push_back(o.clone());
                    }
                    model.insert(o.name.clone(), o);
                }

                let replicated = |n: &str| !local.iter().any(|s| s == subtree_of(n));
                let snapshot: Vec<EncodedObject> =
                    model.values().filter(|o| replicated(&o.name)).map(EncodedObject::of).collect();
                prop_assert_eq!(rib.snapshot(), snapshot);
                let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
                for o in model.values().filter(|o| replicated(&o.name)) {
                    let e = table.entry(subtree_of(&o.name).to_string()).or_default();
                    e.0 += 1;
                    e.1 ^= fingerprint(&o.name, o.version, o.origin, o.deleted);
                }
                let table = DigestTable::from_entries(
                    table.into_iter().map(|(s, (c, d))| (s, c, d)).collect(),
                );
                prop_assert_eq!(rib.digest_table(), table);
                prop_assert_eq!(rib.generation(), generation);
                prop_assert_eq!(rib.object_count(), model.len());
                let live_model = |prefix: &str| -> Vec<RibObject> {
                    model
                        .values()
                        .filter(|o| !o.deleted && o.name.starts_with(prefix))
                        .cloned()
                        .collect()
                };
                for prefix in ["/", "/lsa/", "/dir/", "/members/", "/nope/"] {
                    let ours: Vec<RibObject> = rib.iter_prefix(prefix).map(fields).collect();
                    prop_assert_eq!(ours, live_model(prefix));
                }
                prop_assert_eq!(rib.len(), live_model("").len());
                let got = rib.get(&name).map(fields);
                prop_assert_eq!(got, model.get(&name).filter(|o| !o.deleted).cloned());
                if rng.gen_range(0..6u32) == 0 {
                    let watched: Vec<RibObject> =
                        std::iter::from_fn(|| rib.poll_watch()).map(|o| owned(&o)).collect();
                    prop_assert_eq!(watched, watch_q.drain(..).collect::<Vec<_>>());
                    let out: Vec<RibObject> =
                        std::iter::from_fn(|| rib.poll_dissemination()).map(|o| owned(&o)).collect();
                    prop_assert_eq!(out, outbox.drain(..).collect::<Vec<_>>());
                }
            }
        }

        /// `Rib::mismatched` is `digest_table().mismatched()` without the
        /// table, whatever the two RIBs hold and whichever subtrees are
        /// owner-held on our side.
        #[test]
        fn prop_mismatched_matches_the_built_table(seed in any::<u64>()) {
            use rand::Rng;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let subtrees = ["/blocks/", "/dir/", "/lsa/", "/members/", "/x/"];
            let (mut a, mut b) = (Rib::new(1), Rib::new(2));
            if rng.gen_range(0..2u32) == 0 {
                a.set_local_subtree("/dir");
            }
            for _ in 0..rng.gen_range(0..24u32) {
                let name = format!(
                    "{}{}",
                    subtrees[rng.gen_range(0..subtrees.len())],
                    rng.gen_range(0..4u32)
                );
                let both = rng.gen_range(0..3u32) > 0;
                a.write_local(&name, "c", Bytes::new());
                if both {
                    b.apply_ref(&a.iter_all().find(|o| o.name == name).unwrap());
                } else if rng.gen_range(0..2u32) == 0 {
                    b.write_local(&format!("/only-b/{name}"), "c", Bytes::new());
                }
            }
            let peer = b.digest_table();
            prop_assert_eq!(a.mismatched(&peer), a.digest_table().mismatched(&peer));
            prop_assert_eq!(b.mismatched(&a.digest_table()), peer.mismatched(&a.digest_table()));
        }

        #[test]
        fn prop_convergence_any_order(seed in any::<u64>()) {
            // Generate updates from 3 writers, apply to a reader in a
            // seed-shuffled order; final state must equal the max-version
            // object per name.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut updates = vec![];
            for origin in 1u64..=3 {
                let mut w = Rib::new(origin);
                for v in 0..4 {
                    w.write_local("/obj", "c", Bytes::from(vec![origin as u8, v]));
                    while let Some(o) = w.poll_dissemination() { updates.push(o); }
                }
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            updates.shuffle(&mut rng);
            let mut r = Rib::new(9);
            for o in &updates { r.apply_ref(&o.view()); }
            let winner = updates.iter().map(|o| o.view()).max_by_key(|o| (o.version, o.origin));
            prop_assert_eq!(r.get("/obj").unwrap().value, winner.unwrap().value);
        }

        /// The tentpole invariant: syncing a diverged replica via
        /// digest-table + per-subtree deltas reaches a RIB byte-identical
        /// to one synced by a full snapshot resync — and moves only the
        /// objects that actually differed.
        #[test]
        fn prop_delta_sync_equals_full_resync(seed in any::<u64>()) {
            use rand::Rng;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let subtrees = ["/dir/", "/lsa/", "/members/", "/blocks/"];
            // An authoritative RIB with random writes and deletes.
            let mut a = Rib::new(1);
            for _ in 0..40 {
                let name = format!(
                    "{}o{}",
                    subtrees[rng.gen_range(0..subtrees.len())],
                    rng.gen_range(0..12u32)
                );
                if rng.gen_range(0..5u32) == 0 {
                    a.delete_local(&name);
                } else {
                    a.write_local(&name, "c", Bytes::from(vec![rng.gen_range(0..=255u8) as u8]));
                }
            }
            let updates: Vec<EncodedObject> =
                std::iter::from_fn(|| a.poll_dissemination()).collect();
            // A replica that saw a random subset of the updates.
            let mut behind = Rib::new(2);
            let mut missed = 0usize;
            for o in &updates {
                if rng.gen_range(0..3u32) > 0 {
                    behind.apply_ref(&o.view());
                } else {
                    missed += 1;
                }
            }
            let mut full = Rib::new(3);
            for o in behind.snapshot() {
                full.apply_ref(&o.view());
            }
            // Arm one: full snapshot resync (the pre-digest behavior).
            for o in a.snapshot() {
                full.apply_ref(&o.view());
            }
            // Arm two: digest-driven per-subtree delta sync.
            let moved = delta_sync(&mut a, &mut behind);
            prop_assert_eq!(behind.snapshot(), full.snapshot(), "delta ≠ full resync");
            prop_assert_eq!(
                (behind.object_count(), behind.digest()),
                (a.object_count(), a.digest())
            );
            // O(missing), not O(RIB): only stale/absent versions moved.
            prop_assert!(moved <= missed, "moved {} > missed {}", moved, missed);
        }
    }
}
