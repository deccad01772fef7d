//! IPC Management — RIEP dissemination over the RIB: batch-preserving
//! flooding over the DIF's spanning tree, with digest-driven
//! anti-entropy. A flood leaves by this member's tree ports (its up port
//! toward the DIF's root and its children's ports); hellos carry
//! per-subtree digest tables, whose mismatches trigger targeted delta
//! pulls of whatever a flood missed; and a member whose own objects get
//! clobbered re-asserts them (DESIGN.md §6).

use super::enroll::{encode_member, member_name, MEMBER_CLASS};
use super::{encode_addr, Ipcp};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::routing::{Lsa, LSA_CLASS};
use bytes::Bytes;
use rina_rib::{EncodedObject, EncodedSummary, ObjVer, RibObjectRef};
use rina_sim::Dur;
use std::collections::BTreeMap;

/// Flood aggregation window: queued flood objects sit up to this long so
/// everything passing a member inside one window leaves as a few
/// MTU-sized batch PDUs per port instead of one PDU per object. Adds at
/// most this much per-hop dissemination latency.
const FLOOD_BATCH: Dur = Dur::from_millis(5);

/// Byte budget per [`MgmtBody::RibDeltaRequest`] /
/// [`MgmtBody::RibDeltaResponse`] chunk — comfortably under the smallest
/// (N-1) MTU once the PDU and CDAP envelopes are added, so sync traffic
/// is never silently undeliverable.
const DELTA_CHUNK_BYTES: usize = 1024;

/// The RIB names a member is authoritative for whatever else it wrote —
/// its member record and its LSA — fixed by its name and address, so
/// built once when the address is assigned rather than per object
/// compared against them.
#[derive(Default)]
struct OwnNames {
    member: String,
    lsa: String,
}

/// The dissemination task's state (see module docs).
#[derive(Default)]
pub(super) struct Dissemination {
    /// Per-port flood queue (port → objects in wire form), flushed as
    /// MTU-sized batches when the node's aggregation timer fires:
    /// independent floods passing through within [`FLOOD_BATCH`]
    /// coalesce into a few PDUs per port instead of one PDU per object.
    /// Each object is encoded at most once — a re-flooded one not at
    /// all, it is queued as the bytes that arrived — and shared across
    /// ports. (BTreeMap for deterministic flush order — same seed, same
    /// event sequence.)
    flood_q: BTreeMap<usize, Vec<EncodedObject>>,
    /// See [`OwnNames`] (empty until an address is assigned).
    own: OwnNames,
}

impl Dissemination {
    /// The member named `name` took up `addr`: fix the names of the
    /// objects it is authoritative for.
    pub(super) fn set_own_names(&mut self, name: &AppName, addr: Addr) {
        self.own = OwnNames { member: member_name(name), lsa: Lsa::object_name(addr) };
    }

    /// Queue `enc` for the next flood batch out port `n1`.
    pub(super) fn enqueue(&mut self, n1: usize, enc: EncodedObject) {
        self.flood_q.entry(n1).or_default().push(enc);
    }

    /// How long queued flood objects should still wait for company, if
    /// any are queued.
    pub(super) fn flush_wanted(&self) -> Option<Dur> {
        (!self.flood_q.is_empty()).then_some(FLOOD_BATCH)
    }
}

impl Ipcp {
    /// Anti-entropy pull: for each of `subtrees`, send the peer on `n1`
    /// our version summary in MTU-sized name-range chunks; the peer
    /// answers with exactly the objects we lack, so the cost tracks the
    /// divergence, not the RIB. The one caller is the hello handler, at
    /// every hello whose digest table differs from ours: a lost pull or
    /// answer is retried at the next hello, and what the peer lacks of
    /// ours it pulls at its own next hello from us.
    #[expect(
        clippy::indexing_slicing,
        reason = "chunking cursor over a locally built summary Vec: start/end are clamped to summary.len() by the loop conditions, never wire-derived"
    )]
    pub(super) fn request_deltas(&mut self, n1: usize, subtrees: &[String]) {
        // The summaries borrow their names from the RIB; sending wants
        // `&mut self`, so every chunk is encoded first.
        let mut requests = Vec::new();
        for st in subtrees {
            let summary = self.rib.summary(st);
            // Chunk on the summary's encoded size; boundaries are object
            // names so the responder can detect absences per range.
            let mut start = 0usize;
            loop {
                let mut bytes = 0usize;
                let mut end = start;
                while end < summary.len() && bytes < DELTA_CHUNK_BYTES {
                    bytes += summary[end].name.len() + 12;
                    end += 1;
                }
                let name_at = |i: usize| summary.get(i).map_or("", |v| v.name).to_string();
                requests.push(MgmtBody::RibDeltaRequest {
                    subtree: st.clone(),
                    from: if start == 0 { String::new() } else { name_at(start) },
                    upto: name_at(end),
                    summary: EncodedSummary::of(&summary[start..end]),
                });
                if end >= summary.len() {
                    break;
                }
                start = end;
            }
        }
        for body in requests {
            self.stats.delta_requests += 1;
            self.send_mgmt_on(n1, body, 0, 0);
        }
    }

    /// Send the peer on `n1` what it lacks of `subtree` in `[from, upto)`,
    /// given its `summary` of that range, as MTU-sized
    /// [`MgmtBody::RibDeltaResponse`] batches. An empty summary of the
    /// whole subtree is answered with all of it: that is the enrollment
    /// sync stream (version-guarded, so idempotent under retries).
    pub(super) fn serve_delta(
        &mut self,
        n1: usize,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &[ObjVer<'_>],
    ) {
        let encs = self.rib.delta_for(subtree, from, upto, summary);
        self.send_encoded_batches(n1, subtree, &encs);
    }

    /// The peer on `from_n1` asked for what it lacks of `subtree` in
    /// `[from, upto)`, given its `summary` of that range: answer with
    /// exactly those objects. Serving is all it does; what the summary
    /// shows the peer holding newer, we pull at our next hello from it.
    pub(super) fn handle_delta_request(
        &mut self,
        from_n1: usize,
        subtree: &str,
        from: &str,
        upto: &str,
        summary: &EncodedSummary,
    ) {
        if self.manages() {
            self.serve_delta(from_n1, subtree, from, upto, &summary.entries());
        }
    }

    /// Apply one received object; when it is news, re-flood it to the
    /// other neighbors. LSA changes reach the routing engine through the
    /// RIB watch hook and repair on the node's debounce timer (a flood
    /// of remote LSAs collapses into one classified SPF repair).
    ///
    /// A process that is not yet a member applies and forwards nothing:
    /// what reaches it is its sponsor's sync set, streamed ahead of the
    /// enrollment response to initialize its RIB.
    pub(super) fn apply_and_reflood(&mut self, enc: &EncodedObject, from_n1: usize) {
        let obj = enc.view();
        if !self.manages() {
            self.rib.apply_ref(&obj);
            return;
        }
        if self.scoped_dir() && obj.name.starts_with("/dir/") {
            // Owner-held scope: only the entry's owner stores it. The
            // owner takes the normal path below — apply + reassert heal
            // a wrongful tombstone of a live registration, with the
            // correction staying local (lookups re-resolve it). Every
            // other member stores nothing: a live entry goes no further,
            // and a tombstone, the cache-invalidation channel, is
            // remembered against stale answers, drops the cache entry it
            // kills and floods on like any object — once, since only a
            // newer one is news.
            let own = self.enrolled
                && !self.departed
                && obj.name.strip_prefix("/dir/").is_some_and(|app| self.directory.owns(app));
            if !own {
                if obj.deleted && self.directory.on_tombstone(&obj, self.clock, &mut self.stats) {
                    self.flood_rib(Some(from_n1), || enc.clone());
                }
                return;
            }
        }
        if self.rib.apply_ref(&obj) {
            if self.scoped_dir() && obj.deleted {
                // A departing member's /lsa tombstone rides the
                // fully-replicated machinery: use it to drop every
                // cached directory answer pointing at the dead owner.
                if let Some(a) = Lsa::addr_of_name(obj.name) {
                    self.directory.invalidate_owner(a, &mut self.stats);
                }
            }
            self.enroll.on_news_from(obj.origin);
            if self.reassert_own(&obj) {
                // The stale update was superseded, not re-flooded: the
                // correction from `drain_rib` floods in its place.
                return;
            }
            // What arrived is what goes on: no re-encoding.
            self.flood_rib(Some(from_n1), || enc.clone());
        }
    }

    /// If `obj` (just applied) clobbers an object this member is
    /// authoritative for — its member record, its LSA, or a
    /// live directory registration of its own — rewrite the truth and
    /// flood the correction ([`rina_rib::Rib::write_local`] bumps above
    /// whatever version is stored, tombstones included, so one round
    /// suffices). This is the self-healing half of failure GC: a sponsor
    /// that wrongly purges a member it could not see (partition, long
    /// flap) costs the DIF one reassert round of that member's objects,
    /// nothing more. Returns whether a correction was issued.
    ///
    /// `obj.origin == self.addr` is NOT exempted: an applied remote
    /// object bearing our own origin cannot be an echo of our own write
    /// (same `(version, origin)` is never newer), so it is a previous
    /// incarnation's record — typically the departure tombstone of a
    /// member that left and rejoined under its old address, racing the
    /// rejoin floods. Without the correction the rejoiner's LSA stays
    /// tombstoned DIF-wide (nothing re-marks it dirty: the neighbor set
    /// matches what it believes it advertises) and the member is
    /// silently unroutable until its next adjacency change.
    fn reassert_own(&mut self, obj: &RibObjectRef<'_>) -> bool {
        if !self.manages() || self.departed {
            return false;
        }
        let own = &self.dissemination.own;
        let truth: Option<(&str, Bytes)> = if obj.name == own.member {
            Some((MEMBER_CLASS, encode_member(self.addr, self.hi)))
        } else if obj.name == own.lsa {
            let lsa = Lsa { neighbors: self.routes.advertised.iter().map(|&a| (a, 1)).collect() };
            Some((LSA_CLASS, lsa.encode()))
        } else if let Some(app) = obj.name.strip_prefix("/dir/") {
            self.directory.owns(app).then(|| ("dir", encode_addr(self.addr)))
        } else {
            None
        };
        let Some((class, value)) = truth else { return false };
        let wrong = match self.rib.get(obj.name) {
            None => true, // tombstoned (a live different value is also wrong)
            Some(o) => o.value != &value[..],
        };
        if !wrong {
            return false;
        }
        self.stats.reasserts += 1;
        self.rib.write_local(obj.name, class, value);
        self.drain_rib();
        true
    }

    /// Queue one RIB object for flooding out this member's live tree ports
    /// ([`super::neighbors::Neighbors::on_tree`]), except `except`
    /// (the port it arrived on, for re-floods). Every other live port is
    /// skipped (counted in [`super::IpcpStats::flood_suppressed`]); what
    /// a skipped peer lacks it pulls at its next hello.
    ///
    /// Queued objects are flushed as MTU-sized batches (one or a few
    /// PDUs per port) when the node's aggregation timer fires, so a
    /// burst applied in one window — a streamed enrollment sync, a whole
    /// wave's LSAs — re-floods as a burst, not one PDU per object.
    ///
    /// `encoded` is asked for the object in wire form the first time a
    /// port actually needs it (an object no port takes is never encoded;
    /// a re-flooded one hands back the bytes it arrived as).
    fn flood_rib(&mut self, except: Option<usize>, encoded: impl Fn() -> EncodedObject) {
        let up = self.up_port();
        let mut enc: Option<EncodedObject> = None;
        let live =
            self.transfer.n1.iter().enumerate().filter(|&(i, p)| p.live() && Some(i) != except);
        for (i, _) in live {
            if self.neighbors.on_tree(i, up) {
                let enc = enc.get_or_insert_with(&encoded).clone();
                self.dissemination.enqueue(i, enc);
            } else {
                self.stats.flood_suppressed += 1;
            }
        }
    }

    /// Flush the per-port flood queues as batched PDUs. Duplicate
    /// versions queued twice within one window (two neighbors' floods of
    /// one update) are left in — the receiver's version guard makes them
    /// no-ops.
    pub(super) fn flush_floods(&mut self) {
        for (port, encs) in std::mem::take(&mut self.dissemination.flood_q) {
            self.send_encoded_batches(port, "", &encs);
        }
    }

    /// Send objects in wire form as one or more under-MTU
    /// [`MgmtBody::RibDeltaResponse`] PDUs on `n1`.
    #[expect(
        clippy::indexing_slicing,
        reason = "batch slicing cursor over a locally encoded Vec; start/end clamped to encs.len() by the loop conditions"
    )]
    fn send_encoded_batches(&mut self, n1: usize, subtree: &str, encs: &[EncodedObject]) {
        let mut start = 0;
        while start < encs.len() {
            let mut bytes = 0usize;
            let mut end = start;
            while end < encs.len()
                && (end == start || bytes + encs[end].wire().len() <= DELTA_CHUNK_BYTES)
            {
                bytes += encs[end].wire().len();
                end += 1;
            }
            self.stats.rib_tx += (end - start) as u64;
            self.send_payload_on(n1, MgmtBody::encode_delta_batch(subtree, &encs[start..end]));
            start = end;
        }
    }

    /// Feed the engine the RIB's LSA deltas, and disseminate queued
    /// updates to all live neighbors. Bootstrap/re-root states (the only
    /// full-path classifications left) recompute immediately; remote
    /// deltas keep waiting for the node's debounce timer and ride along
    /// in whichever recomputation runs first. Local LSA writes also
    /// recompute immediately, in [`Ipcp::write_lsa_now`].
    pub(super) fn drain_rib(&mut self) {
        self.routes.sync(&mut self.rib);
        if self.routes.engine.pending_full() {
            self.routes.engine.recompute();
        }
        let mut updates = Vec::new();
        while let Some(o) = self.rib.poll_dissemination() {
            updates.push(o);
        }
        for obj in &updates {
            self.flood_rib(None, || obj.clone());
        }
    }
}
