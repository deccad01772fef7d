//! IPC Management — enrollment (§5.2): joining through a sponsor, and
//! sponsoring — the admission window, address and block assignment, and
//! the failure watch over the members this process sponsored. Leaving
//! (gracefully, or purged by the sponsor) is the same subject run
//! backwards and lives here too.

use super::{decode_addr, encode_addr, Ipcp, IpcpOut, IpcpTimer};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::routing::Lsa;
use bytes::Bytes;
use rina_rib::{DigestTable, EncodedObject, Rib};
use rina_sim::{Dur, Time};
use std::collections::{BTreeMap, BTreeSet};

/// CDAP result code a sponsor returns when its admission window is full:
/// not a refusal — the joiner should back off and retry.
pub const R_ENROLL_BUSY: i32 = -6;

/// RIB object name prefix for delegated address blocks.
pub const BLOCK_PREFIX: &str = "/blocks/";
/// RIB object class for delegated address blocks.
pub const BLOCK_CLASS: &str = "block";

/// How many joiners one member sponsors concurrently (§5.2 at scale):
/// each admission reserves a window slot until the joiner's first hello
/// confirms it is up (or the slot times out); requests beyond the window
/// are told to back off and retry.
const ADMISSION_WINDOW: usize = 8;

/// How long one admission-window slot stays reserved before the sponsor
/// gives up waiting for the admitted joiner's first hello.
const ADMIT_SLOT_TTL: Dur = Dur::from_millis(1500);

/// How long a joiner waits for an answer before repeating its enrollment
/// request; a busy sponsor's backoff hint overrides it once.
const ENROLL_RETRY_PERIOD: Dur = Dur::from_millis(300);

/// Backoff hint sent with [`R_ENROLL_BUSY`] responses. Shorter than
/// [`ENROLL_RETRY_PERIOD`]: once a joiner has reached a live sponsor,
/// admission rounds — not timeouts — should pace the wave.
const ADMIT_RETRY_MS: u32 = 100;

/// Largest RIB snapshot inlined into one [`MgmtBody::EnrollResponse`].
/// Bigger RIBs would overflow the (N-1) MTU in a single PDU — the very
/// wall that capped facilities near 100 members — so past this size the
/// sponsor sends an *empty* snapshot and streams the sync set as
/// MTU-sized [`MgmtBody::RibDeltaResponse`] batches right behind the
/// response, restricted to the subtrees the joiner's digest table does
/// not already cover (version-guarded and therefore idempotent).
const SNAPSHOT_INLINE_MAX: usize = 64;

/// An address with the block `[lo, hi]` delegated along with it.
type Grant = (Addr, (Addr, Addr));

/// The enrollment task's state (see module docs).
#[derive(Default)]
pub(super) struct Enroll {
    /// Invoke ids of our enrollment requests still awaiting a response.
    pub(super) pending: BTreeSet<u32>,
    /// The (N-1) port we enroll (or enrolled) through.
    via: Option<usize>,
    /// What our requests present and propose — credential, address,
    /// block — as [`Ipcp::start_enroll`] or the planned enrollment path
    /// ([`Ipcp::plan_adjacency`]) gave it: every retry repeats it.
    pub(super) request: Option<(String, Addr, (Addr, Addr))>,
    /// Joiners admitted but not yet confirmed up (first hello pending):
    /// joiner name → (admitted at, grant). Size is capped by
    /// [`ADMISSION_WINDOW`].
    admitting: BTreeMap<AppName, (Time, Grant)>,
    /// Members this process sponsored and saw come up (first enrolled
    /// hello): joiner name → granted address. The sponsor owns these
    /// members' failure garbage collection.
    sponsored: BTreeMap<AppName, Addr>,
    /// Sponsored members whose adjacency expired, on failure watch:
    /// name → (address, when the watch was armed). If nothing proves
    /// the member alive within [`crate::dif::DifConfig::member_gc_grace_ms`],
    /// its RIB objects are purged (one-shot).
    gc_watch: BTreeMap<AppName, (Addr, Time)>,
    /// Backoff hint from the last busy sponsor response; the next
    /// enrollment-retry timer consumes it.
    retry_hint: Option<Dur>,
}

impl Enroll {
    /// An enrolled hello from `name` at `addr` was heard: the joiner is
    /// up, so its admission-window slot (if any) frees and from here on
    /// this sponsor owns its failure GC; and any hello from a watched
    /// member proves it alive.
    pub(super) fn on_enrolled_hello(&mut self, name: &AppName, addr: Addr) {
        if let Some((_, (granted, _))) = self.admitting.remove(name) {
            if granted == addr {
                self.sponsored.insert(name.clone(), granted);
            }
        }
        self.gc_watch.remove(name);
    }

    /// A genuinely new object version from `origin` proves that member
    /// alive: cancel its pending failure GC.
    pub(super) fn on_news_from(&mut self, origin: Addr) {
        if origin != 0 && !self.gc_watch.is_empty() {
            self.gc_watch.retain(|_, &mut (a, _)| a != origin);
        }
    }

    /// The adjacencies to `lost` just expired: those we sponsored go on
    /// failure watch (anything proving them alive cancels it).
    pub(super) fn watch(&mut self, lost: Vec<AppName>, now: Time) {
        for n in lost {
            if let Some(&a) = self.sponsored.get(&n) {
                self.gc_watch.entry(n).or_insert((a, now));
            }
        }
    }

    /// Take the watched members silent for longer than `grace` off the
    /// books, for purging. One-shot: they are untracked first, so a
    /// member that was in fact alive is corrected by its own reassert
    /// instead of being purged again on the next expiry.
    pub(super) fn take_failed(&mut self, now: Time, grace: Dur) -> Vec<(AppName, Addr)> {
        let due: Vec<(AppName, Addr)> = self
            .gc_watch
            .iter()
            .filter(|&(_, &(_, t))| now.since(t) > grace)
            .map(|(n, &(a, _))| (n.clone(), a))
            .collect();
        for (n, _) in &due {
            self.gc_watch.remove(n);
            self.sponsored.remove(n);
        }
        due
    }
}

impl Ipcp {
    /// Make this the DIF's first member, self-assigned `addr`.
    pub fn bootstrap(&mut self, addr: Addr) {
        assert!(!self.enrolled, "already a member");
        assert!(addr != 0, "address 0 is reserved");
        self.become_member(addr, (addr, addr));
        self.rib.write_local(&member_name(&self.name), "member", encode_addr(addr));
        self.drain_rib();
    }

    /// Take up `addr` and `block` as a member of the DIF.
    fn become_member(&mut self, addr: Addr, block: (Addr, Addr)) {
        self.addr = addr;
        self.block = block;
        self.rib.set_origin(addr);
        self.routes.engine.set_self(addr);
        self.enrolled = true;
        self.dissemination.set_own_names(&self.name, addr);
    }

    /// Give this (bootstrapped) member the address block it sponsors
    /// from. The enrollment planner hands the bootstrap the whole DIF
    /// range; sub-blocks are delegated recursively at enrollment.
    pub fn set_block(&mut self, block: (Addr, Addr)) {
        assert!(self.enrolled, "only members hold blocks");
        assert!(block.0 <= self.addr && self.addr <= block.1, "own address outside block");
        self.block = block;
        self.rib.write_local(&block_name(self.addr), BLOCK_CLASS, encode_block(block));
        self.drain_rib();
    }

    /// Begin enrollment through the member reachable over (N-1) port `n1`,
    /// presenting `credential` and proposing `proposed_addr` (0 = let the
    /// sponsor choose) plus the address block the joiner's own subtree
    /// will occupy ((0, 0) = none), and arm the retry timer
    /// (`ENROLL_RETRY_PERIOD` from `now`).
    pub fn start_enroll(
        &mut self,
        n1: usize,
        credential: &str,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
        now: Time,
    ) {
        self.enroll.request = Some((credential.to_string(), proposed_addr, proposed_block));
        self.enroll_through(n1, now);
    }

    /// Begin enrollment through (N-1) port `n1` with the stored request,
    /// and arm the retry timer.
    pub(super) fn enroll_through(&mut self, n1: usize, now: Time) {
        assert!(!self.enrolled, "already enrolled");
        self.enroll.via = Some(n1);
        self.send_hello(n1);
        self.retry_enroll();
        let at = now + ENROLL_RETRY_PERIOD;
        self.out.push(IpcpOut::Arm { at, timer: IpcpTimer::EnrollRetry });
    }

    /// The retry timer fired: while still not a member, ask again, and
    /// arm the next retry at a busy sponsor's hint if one came, else
    /// [`ENROLL_RETRY_PERIOD`] out.
    pub(super) fn enroll_retry_timer(&mut self, now: Time) {
        if self.enrolled {
            return;
        }
        self.retry_enroll();
        let d = self.enroll.retry_hint.take().unwrap_or(ENROLL_RETRY_PERIOD);
        self.out.push(IpcpOut::Arm { at: now + d, timer: IpcpTimer::EnrollRetry });
    }

    /// Send an enrollment request if still not a member: the first one,
    /// and one per retry.
    fn retry_enroll(&mut self) {
        let Some(n1) = self.enroll.via.filter(|_| !self.enrolled) else { return };
        let Some((credential, proposed_addr, proposed_block)) = self.enroll.request.clone() else {
            return;
        };
        let invoke = self.next_invoke();
        self.enroll.pending.insert(invoke);
        let body = MgmtBody::EnrollRequest {
            name: self.name.clone(),
            credential,
            proposed_addr,
            proposed_block,
            // A retry advertises whatever the lost round already
            // synced, so the sponsor re-streams only the rest.
            digests: self.rib.digest_table(),
        };
        self.send_mgmt_on(n1, body, invoke, 0);
    }

    /// Enrollment requests still awaiting a response — must be 0 once
    /// enrolled (retried requests are garbage-collected on success).
    pub fn pending_enrolls(&self) -> usize {
        self.enroll.pending.len()
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_enroll_request(
        &mut self,
        from_n1: usize,
        name: AppName,
        credential: String,
        proposed_addr: Addr,
        proposed_block: (Addr, Addr),
        joiner_digests: DigestTable,
        invoke_id: u32,
        now: Time,
    ) {
        let refuse = |retry_after_ms: u32| MgmtBody::EnrollResponse {
            addr: 0,
            block: (0, 0),
            retry_after_ms,
            snapshot: vec![],
        };
        if !self.manages() {
            self.send_mgmt_on(from_n1, refuse(0), invoke_id, -1);
            return;
        }
        if !self.cfg.auth.verify(&credential) {
            self.send_mgmt_on(from_n1, refuse(0), invoke_id, -2);
            return;
        }
        // Free slots of joiners we have stopped waiting for.
        self.enroll.admitting.retain(|_, &mut (t, _)| now.since(t) <= ADMIT_SLOT_TTL);
        // A retry from a joiner already holding a slot (its response was
        // lost): re-grant the same address and block, idempotently.
        let (new_addr, new_block) = match self.enroll.admitting.get(&name) {
            Some(&(_, grant)) => grant,
            None => {
                if self.enroll.admitting.len() >= ADMISSION_WINDOW {
                    self.stats.enrollments_deferred += 1;
                    self.send_mgmt_on(from_n1, refuse(ADMIT_RETRY_MS), invoke_id, R_ENROLL_BUSY);
                    return;
                }
                assign_enrollee(
                    &self.rib,
                    (self.addr, self.block),
                    &name,
                    proposed_addr,
                    proposed_block,
                )
            }
        };
        self.enroll.admitting.insert(name.clone(), (now, (new_addr, new_block)));
        // An enrollment request is proof of life: a re-enrolling member
        // must not be purged by its own pending failure watch.
        self.enroll.gc_watch.remove(&name);
        self.stats.enrollments_sponsored += 1;
        // Value-guarded: a re-granting retry must not bump versions and
        // re-flood two unchanged objects to the whole DIF.
        self.rib.write_local_if_changed(&member_name(&name), "member", encode_addr(new_addr));
        self.rib.write_local_if_changed(
            &block_name(new_addr),
            BLOCK_CLASS,
            encode_block(new_block),
        );
        // Sync set captured *after* recording the new member so the
        // joiner sees itself. Small RIBs ride inline in the response;
        // big ones would overflow the (N-1) MTU, so they stream as
        // batched subtree deltas behind an empty-snapshot response —
        // and only for the subtrees the joiner's advertised digest
        // table does not already cover: a retrying or re-enrolling
        // joiner costs O(missing), not O(RIB). (The snapshot clone
        // itself is taken only on the inline path — cloning a growing
        // RIB per sponsored joiner just to count it was an O(members ×
        // RIB) tax on assembly.)
        let stream = self.rib.object_count() > SNAPSHOT_INLINE_MAX;
        if let Some(p) = self.transfer.n1.get_mut(from_n1) {
            p.peer_name = Some(name);
            p.peer_addr = new_addr;
        }
        if let Some(peer) = self.neighbors.peers.get_mut(from_n1) {
            // Sponsoring over this port makes it a spanning-tree edge.
            peer.tree = true;
        }
        self.transfer.rebuild_peer_index();
        let body = MgmtBody::EnrollResponse {
            addr: new_addr,
            block: new_block,
            retry_after_ms: 0,
            snapshot: if stream {
                vec![]
            } else {
                self.rib.snapshot().iter().map(EncodedObject::of).collect()
            },
        };
        self.send_mgmt_on(from_n1, body, invoke_id, 0);
        if stream {
            let missing = self.rib.mismatched(&joiner_digests);
            self.stream_subtrees(from_n1, &missing);
        }
        self.drain_rib();
        self.refresh_lsa();
    }

    pub(super) fn handle_enroll_response(
        &mut self,
        addr: Addr,
        block: (Addr, Addr),
        retry_after_ms: u32,
        snapshot: Vec<EncodedObject>,
        result: i32,
    ) {
        if self.enrolled {
            return; // duplicate response to a retried request
        }
        if result == R_ENROLL_BUSY {
            // The sponsor's admission window is full: pace the retry to
            // its hint instead of the default timeout.
            self.enroll.retry_hint = Some(Dur::from_millis(retry_after_ms.max(1) as u64));
            return;
        }
        if result != 0 || addr == 0 {
            return; // keep retrying (or give up via node policy)
        }
        self.become_member(addr, if block == (0, 0) { (addr, addr) } else { block });
        // The port we enrolled through is our spanning-tree edge.
        if let Some(peer) = self.enroll.via.and_then(|n1| self.neighbors.peers.get_mut(n1)) {
            peer.tree = true;
        }
        // Requests retried before this response landed are now moot.
        self.enroll.pending.clear();
        for o in &snapshot {
            self.rib.apply_ref(&o.view());
        }
        self.routes.sync(&mut self.rib);
        self.routes.engine.recompute();
        // Announce ourselves on every port and advertise our adjacency.
        for i in 0..self.transfer.n1.len() {
            if self.transfer.n1.get(i).is_some_and(|p| p.up) {
                self.send_hello(i);
            }
        }
        self.refresh_lsa();
        // What the applications registered while this process was outside
        // the DIF enters its directory now, in registration order.
        for app in self.directory.registered.clone() {
            self.dir_register(&app);
        }
    }

    /// Gracefully leave the DIF: tombstone every object this member is
    /// responsible for — its member record, delegated block, LSA, and
    /// everything it originated (directory registrations included) — so
    /// the deletions flood and anti-entropy exactly like any other RIB
    /// update, and stop originating new state. The caller must keep the
    /// process attached for at least one hello period afterwards so the
    /// queued tombstones actually leave the node (leave vs fail is
    /// precisely "the tombstones got out" vs "the sponsor's failure GC
    /// has to reconstruct them").
    pub fn announce_leave(&mut self, now: Time) {
        if !self.manages() || self.departed {
            return;
        }
        self.clock = self.clock.max(now);
        self.departed = true;
        for n in departure_names(&self.rib, &self.name, self.addr) {
            self.rib.delete_local(&n);
        }
        self.drain_rib();
    }

    /// Purge the sponsored members whose failure watch ran out (called on
    /// the hello cadence).
    pub(super) fn purge_failed(&mut self, now: Time) {
        let grace = Dur::from_millis(self.cfg.member_gc_grace_ms);
        if grace == Dur::ZERO || self.departed || self.enroll.gc_watch.is_empty() {
            return;
        }
        for (name, addr) in self.enroll.take_failed(now, grace) {
            self.purge_member(&name, addr);
        }
    }

    /// Garbage-collect a failed sponsored member: tombstone its member
    /// record, block, LSA, and every other live object it originated
    /// (directory entries, re-asserted records). The tombstones ride
    /// the ordinary dissemination machinery — flood now, digest-driven
    /// anti-entropy later — so departed state cannot linger anywhere.
    fn purge_member(&mut self, name: &AppName, addr: Addr) {
        for n in departure_names(&self.rib, name, addr) {
            self.rib.delete_local(&n);
        }
        if self.scoped_dir() {
            // The sponsor tombstones the block locally, so the wire
            // hook in `apply_and_reflood` never sees it: drop our own
            // cached answers pointing at the purged member here.
            self.directory.invalidate_owner(addr, &mut self.stats);
        }
        self.stats.members_purged += 1;
        self.drain_rib();
    }
}

/// The RIB objects that depart with member (`name`, `addr`): its
/// member record, delegated block, LSA, and everything else it
/// originated — EXCEPT the member and block records it wrote *as a
/// sponsor* for other members. Those records carry the sponsor's
/// origin (admission authored them) but describe still-live members;
/// tombstoning them would force every described member through a
/// reassert round for state that was never the departing member's
/// to retract.
fn departure_names(rib: &Rib, name: &AppName, addr: Addr) -> Vec<String> {
    let member_rec = member_name(name);
    let mut names: Vec<String> = rib
        .live_of_origin(addr)
        .into_iter()
        .filter(|n| {
            if let Some(owner) = n.strip_prefix(BLOCK_PREFIX) {
                return owner.parse::<u64>().map(|a| a == addr).unwrap_or(true);
            }
            if n.starts_with("/members/") {
                return *n == member_rec;
            }
            true
        })
        .collect();
    names.push(member_rec);
    names.push(block_name(addr));
    names.push(Lsa::object_name(addr));
    names.sort_unstable();
    names.dedup();
    names
}

/// Choose the address and block for enrollee `name`, as the sponsor at
/// `me` (own address and delegated block), honouring its proposal when
/// it conflicts with nothing `rib` knows. Sibling blocks must stay
/// disjoint: a proposal that *partially* overlaps a known block (neither
/// contains the other) is refused. A refused or absent proposal no
/// longer dooms the joiner to a fragmenting singleton: a re-enrolling
/// member gets its previous grant back (identity reuse — its stale
/// records become its records again instead of colliding with them), and
/// otherwise the sponsor *carves* a fresh sub-range out of its own
/// delegated block, so unplanned joiners stay aggregatable with the
/// sponsor's subtree. Only when the block is exhausted does the legacy
/// fallback — a singleton past everything delegated — fire.
fn assign_enrollee(
    rib: &Rib,
    me: Grant,
    name: &AppName,
    proposed_addr: Addr,
    proposed_block: (Addr, Addr),
) -> Grant {
    let proposed_block =
        if proposed_block == (0, 0) { (proposed_addr, proposed_addr) } else { proposed_block };
    let (my_addr, (_, my_hi)) = me;
    let mut max_addr = my_addr.max(my_hi);
    let mut taken = proposed_addr == 0
        || proposed_addr == my_addr
        || proposed_addr < proposed_block.0
        || proposed_addr > proposed_block.1;
    let own_member_name = member_name(name);
    for o in rib.iter_prefix("/members/") {
        if let Some(a) = decode_addr(&o.value) {
            max_addr = max_addr.max(a);
            if a == proposed_addr && o.name != own_member_name {
                taken = true;
            }
        }
    }
    for o in rib.iter_prefix(BLOCK_PREFIX) {
        let Some(b) = decode_block(&o.value) else { continue };
        max_addr = max_addr.max(b.1);
        let disjoint = proposed_block.1 < b.0 || b.1 < proposed_block.0;
        // Nesting is only legitimate *inward*: a proposal may sit
        // inside an ancestor's block (enrollment runs top-down, so
        // every known containing block is an ancestor's). A proposal
        // that swallows an already-delegated block would let two
        // sponsors hand out the same addresses.
        let inside = proposed_block.0 >= b.0 && proposed_block.1 <= b.1;
        if !disjoint && !inside {
            taken = true;
        }
        // A block equal to ours belongs to us; a proposal claiming it
        // wholesale is only fine when it is the joiner's own retry.
        if b == proposed_block && o.name != block_name(proposed_addr) {
            taken = true;
        }
    }
    if !taken {
        return (proposed_addr, proposed_block);
    }
    // Identity reuse: a member that failed (or lost its state) and
    // re-enrolls under the same name is re-granted its recorded
    // address and block.
    if let Some(a) = rib.get(&own_member_name).and_then(|o| decode_addr(&o.value)) {
        if a != 0 && a != my_addr {
            let b = rib
                .get(&block_name(a))
                .and_then(|o| decode_block(&o.value))
                .filter(|&(lo, hi)| lo <= a && a <= hi)
                .unwrap_or((a, a));
            return (a, b);
        }
    }
    if let Some(grant) = carve_block(rib, me) {
        return grant;
    }
    let a = max_addr + 1;
    (a, (a, a))
}

/// Carve an unused sub-range out of the delegated block of the member
/// at `me` for a joiner that proposed nothing usable: the joiner gets
/// the first address of the largest free gap, plus the first half
/// of that gap as its own block to sponsor from. Repeated carving
/// halves geometrically, so one sponsor absorbs O(log block-size)
/// generations of unplanned joiners before ever falling back to a
/// singleton — this is what keeps `aggregated_len` bounded under
/// churn. Returns `None` when the block is a singleton or fully
/// delegated.
fn carve_block(rib: &Rib, me: Grant) -> Option<Grant> {
    let (addr, (lo, hi)) = me;
    if lo >= hi {
        return None;
    }
    // Everything already spoken for inside our block: our own
    // address, delegated sub-blocks, and member addresses in range.
    // Blocks *containing* ours are ancestors' (enrollment delegates
    // top-down) — carving may only subdivide what was delegated to
    // us, so they are skipped, as is our own block record.
    let mut occ: Vec<(Addr, Addr)> = vec![(addr, addr)];
    for o in rib.iter_prefix(BLOCK_PREFIX) {
        let Some(b) = decode_block(&o.value) else { continue };
        if b.0 <= lo && hi <= b.1 {
            continue;
        }
        if b.1 >= lo && b.0 <= hi {
            occ.push((b.0.max(lo), b.1.min(hi)));
        }
    }
    for o in rib.iter_prefix("/members/") {
        if let Some(a) = decode_addr(&o.value) {
            if lo <= a && a <= hi {
                occ.push((a, a));
            }
        }
    }
    occ.sort_unstable();
    let mut merged: Vec<(Addr, Addr)> = Vec::new();
    for r in occ {
        match merged.last_mut() {
            Some(m) if r.0 <= m.1.saturating_add(1) => m.1 = m.1.max(r.1),
            _ => merged.push(r),
        }
    }
    // Largest free gap between the merged occupied ranges.
    let mut gaps: Vec<(Addr, Addr)> = Vec::new();
    let mut cursor = lo;
    for m in &merged {
        if m.0 > cursor {
            gaps.push((cursor, m.0 - 1));
        }
        cursor = cursor.max(m.1.saturating_add(1));
    }
    if cursor <= hi {
        gaps.push((cursor, hi));
    }
    let mut best: Option<(Addr, Addr)> = None;
    for (g0, g1) in gaps {
        if best.is_none_or(|(b0, b1)| g1 - g0 > b1 - b0) {
            best = Some((g0, g1));
        }
    }
    let (g0, g1) = best?;
    Some((g0, (g0, g0 + (g1 - g0) / 2)))
}

/// RIB object name of the member record of the process named `name`.
pub(super) fn member_name(name: &AppName) -> String {
    format!("/members/{}", name.key())
}

/// RIB object name for the delegated block rooted at `addr`.
pub fn block_name(addr: Addr) -> String {
    format!("{BLOCK_PREFIX}{addr}")
}

/// Encode a delegated `[lo, hi]` block as a RIB object value.
pub fn encode_block(b: (Addr, Addr)) -> Bytes {
    let mut w = rina_wire::codec::Writer::new();
    w.varint(b.0).varint(b.1);
    w.finish()
}

/// Decode a delegated block from a RIB object value.
pub fn decode_block(b: &[u8]) -> Option<(Addr, Addr)> {
    let mut r = rina_wire::codec::Reader::new(b);
    let lo = r.varint().ok()?;
    let hi = r.varint().ok()?;
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Carving needs a RIB and the sponsor's own grant, nothing else: each
    /// joiner gets the first address and first half of the largest gap
    /// left in the sponsor's block.
    #[test]
    fn carve_block_halves_the_largest_free_gap() {
        let mut rib = Rib::new(1);
        let me = (1, (1, 64));
        let delegate = |rib: &mut Rib| {
            let (addr, block) = carve_block(rib, me)?;
            rib.write_local(&block_name(addr), BLOCK_CLASS, encode_block(block));
            Some((addr, block))
        };
        assert_eq!(delegate(&mut rib), Some((2, (2, 33))));
        assert_eq!(delegate(&mut rib), Some((34, (34, 49))));
        assert_eq!(delegate(&mut rib), Some((50, (50, 57))));
        // A member address inside the block is spoken for too.
        rib.write_local("/members/net.x", "member", encode_addr(58));
        assert_eq!(delegate(&mut rib), Some((59, (59, 61))));
        // An ancestor's block containing ours is not ours to subdivide
        // around; a singleton block has nothing to carve.
        rib.write_local(&block_name(900), BLOCK_CLASS, encode_block((1, 1000)));
        assert_eq!(delegate(&mut rib), Some((62, (62, 63))));
        assert_eq!(carve_block(&rib, (5, (5, 5))), None);
    }

    /// The sponsor's books on the bare task struct: an admitted joiner's
    /// enrolled hello makes it sponsored; losing it arms the failure
    /// watch; only silence past the grace hands it over for purging.
    #[test]
    fn failure_watch_is_cancelled_by_any_sign_of_life() {
        let (x, y) = (AppName::new("net.x"), AppName::new("net.y"));
        let mut e = Enroll::default();
        for (name, addr) in [(&x, 2), (&y, 3)] {
            e.admitting.insert(name.clone(), (Time::ZERO, (addr, (addr, addr))));
            e.on_enrolled_hello(name, addr);
        }
        assert!(e.admitting.is_empty() && e.sponsored.len() == 2);
        let grace = Dur::from_secs(2);
        e.watch(vec![x.clone(), y.clone(), AppName::new("net.stranger")], Time::from_secs(1));
        assert_eq!(e.gc_watch.len(), 2, "only sponsored members are watched");
        assert!(e.take_failed(Time::from_secs(3), grace).is_empty(), "not past the grace yet");
        e.on_news_from(3); // net.y wrote something new: alive
        assert_eq!(e.take_failed(Time::from_secs(4), grace), vec![(x.clone(), 2)]);
        assert!(e.gc_watch.is_empty() && !e.sponsored.contains_key(&x), "one-shot");
        assert!(e.sponsored.contains_key(&y));
    }
}
