//! IPC Management — enrollment (§5.2): joining through a sponsor, and
//! sponsoring — address and block assignment, and the failure watch
//! over the members this process sponsored. Leaving (gracefully, or
//! purged by the sponsor) is the same subject run backwards and lives
//! here too.

use super::{Ipcp, IpcpOut, IpcpTimer};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::routing::Lsa;
use bytes::Bytes;
use rina_rib::{DigestTable, Rib};
use rina_sim::{Dur, Time};
use std::collections::{BTreeMap, BTreeSet};

/// RIB object name prefix of the member records.
pub(crate) const MEMBER_PREFIX: &str = "/members/";

/// How long a sponsor keeps an admitted joiner's grant while it waits
/// for the joiner's first hello: a retried request inside it gets the
/// same grant back.
const ADMIT_SLOT_TTL: Dur = Dur::from_millis(1500);

/// How long a joiner waits for an answer before repeating its enrollment
/// request.
const ENROLL_RETRY_PERIOD: Dur = Dur::from_millis(300);

/// An address with the top of the block delegated along with it: the
/// grant of block `[addr, hi]`.
type Grant = (Addr, Addr);

/// The enrollment task's state (see module docs).
#[derive(Default)]
pub(super) struct Enroll {
    /// Invoke ids of our enrollment requests still awaiting a response.
    pub(super) pending: BTreeSet<u32>,
    /// The (N-1) port we enroll (or enrolled) through.
    via: Option<usize>,
    /// What our requests present and propose — credential, address,
    /// top of block — as [`Ipcp::start_enroll`] or the planned enrollment
    /// path ([`Ipcp::plan_adjacency`]) gave it: every retry repeats it.
    pub(super) request: Option<(String, Addr, Addr)>,
    /// Joiners admitted but not yet confirmed up (first hello pending):
    /// joiner name → (admitted at, grant). An entry lives at most
    /// [`ADMIT_SLOT_TTL`] past its last request.
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
}

impl Enroll {
    /// An enrolled hello from `name` at `addr` was heard: the joiner is
    /// up, so its admission record (if any) goes and from here on
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
        self.become_member(addr, addr);
        self.rib.write_local(&member_name(&self.name), MEMBER_CLASS, encode_member(addr, addr));
        self.drain_rib();
    }

    /// Take up `addr` and the block `[addr, hi]` as a member of the DIF.
    fn become_member(&mut self, addr: Addr, hi: Addr) {
        self.addr = addr;
        self.hi = hi;
        self.rib.set_origin(addr);
        self.routes.engine.set_self(addr);
        self.enrolled = true;
        self.dissemination.set_own_names(&self.name, addr);
    }

    /// Give this (bootstrapped) member the address block `[addr, hi]` it
    /// sponsors from. The enrollment planner hands the bootstrap the
    /// whole DIF range; sub-blocks are delegated recursively at
    /// enrollment.
    pub fn set_block(&mut self, hi: Addr) {
        assert!(self.enrolled, "only members hold blocks");
        assert!(self.addr <= hi, "own address outside block");
        self.hi = hi;
        self.rib.write_local(&member_name(&self.name), MEMBER_CLASS, encode_member(self.addr, hi));
        self.drain_rib();
    }

    /// Begin enrollment through the member reachable over (N-1) port `n1`,
    /// presenting `credential` and proposing `proposed_addr` (0 = let the
    /// sponsor choose) as the base of the block `[proposed_addr,
    /// proposed_hi]` the joiner's own subtree will occupy, and arm the
    /// retry timer (`ENROLL_RETRY_PERIOD` from `now`).
    pub fn start_enroll(
        &mut self,
        n1: usize,
        credential: &str,
        proposed_addr: Addr,
        proposed_hi: Addr,
        now: Time,
    ) {
        self.enroll.request = Some((credential.to_string(), proposed_addr, proposed_hi));
        self.enroll_through(n1, now);
    }

    /// Begin enrollment through (N-1) port `n1` with the stored request,
    /// and arm the retry timer unless a retry chain already runs: one
    /// arms on the first call, and each firing re-arms it until this
    /// process is a member, retrying through whichever port it then
    /// enrolls through.
    pub(super) fn enroll_through(&mut self, n1: usize, now: Time) {
        assert!(!self.enrolled, "already enrolled");
        let chained = self.enroll.via.replace(n1).is_some();
        self.send_hello(n1);
        self.retry_enroll();
        if !chained {
            let at = now + ENROLL_RETRY_PERIOD;
            self.out.push(IpcpOut::Arm { at, timer: IpcpTimer::EnrollRetry });
        }
    }

    /// The retry timer fired: while still not a member, ask again, and
    /// arm the next retry [`ENROLL_RETRY_PERIOD`] out.
    pub(super) fn enroll_retry_timer(&mut self, now: Time) {
        if self.enrolled {
            return;
        }
        self.retry_enroll();
        let at = now + ENROLL_RETRY_PERIOD;
        self.out.push(IpcpOut::Arm { at, timer: IpcpTimer::EnrollRetry });
    }

    /// Send an enrollment request if still not a member: the first one,
    /// and one per retry.
    fn retry_enroll(&mut self) {
        let Some(n1) = self.enroll.via.filter(|_| !self.enrolled) else { return };
        let Some((credential, proposed_addr, proposed_hi)) = self.enroll.request.clone() else {
            return;
        };
        let invoke = self.next_invoke();
        self.enroll.pending.insert(invoke);
        let body = MgmtBody::EnrollRequest {
            name: self.name.clone(),
            credential,
            proposed_addr,
            proposed_hi,
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
        proposed_hi: Addr,
        joiner_digests: DigestTable,
        invoke_id: u32,
        now: Time,
    ) {
        let refuse = MgmtBody::EnrollResponse { addr: 0, hi: 0 };
        if !self.manages() {
            self.send_mgmt_on(from_n1, refuse, invoke_id, -1);
            return;
        }
        if !self.cfg.auth.verify(&credential) {
            self.send_mgmt_on(from_n1, refuse, invoke_id, -2);
            return;
        }
        // Forget the joiners we have stopped waiting for.
        self.enroll.admitting.retain(|_, &mut (t, _)| now.since(t) <= ADMIT_SLOT_TTL);
        // A retry from a joiner already admitted (its response was lost):
        // re-grant the same address and block, idempotently.
        let (new_addr, new_hi) = match self.enroll.admitting.get(&name) {
            Some(&(_, grant)) => grant,
            None => assign_enrollee(
                &self.rib,
                (self.addr, self.hi),
                &name,
                (proposed_addr, proposed_hi),
            ),
        };
        self.enroll.admitting.insert(name.clone(), (now, (new_addr, new_hi)));
        // An enrollment request is proof of life: a re-enrolling member
        // must not be purged by its own pending failure watch.
        self.enroll.gc_watch.remove(&name);
        self.stats.enrollments_sponsored += 1;
        // Value-guarded: a re-granting retry must not bump the version
        // and re-flood an unchanged record to the whole DIF.
        let record = encode_member(new_addr, new_hi);
        self.rib.write_local_if_changed(&member_name(&name), MEMBER_CLASS, record);
        if let Some(p) = self.transfer.n1.get_mut(from_n1) {
            p.peer_name = Some(name);
            p.peer_addr = new_addr;
        }
        if let Some(peer) = self.neighbors.peers.get_mut(from_n1) {
            // Sponsoring over this port makes it a spanning-tree edge.
            peer.tree = true;
        }
        self.transfer.rebuild_peer_index();
        // Initialize the joiner's RIB, then grant: the sync set — taken
        // *after* recording the new member, so the joiner sees itself —
        // streams as MTU-sized batches ahead of the response on the same
        // port, so the joiner has learned the DIF before it writes as a
        // member. Only the subtrees its advertised digest table does not
        // already cover go: a retrying or re-enrolling joiner costs
        // O(missing), not O(RIB).
        for subtree in self.rib.mismatched(&joiner_digests) {
            self.serve_delta(from_n1, &subtree, "", "", &[]);
        }
        let body = MgmtBody::EnrollResponse { addr: new_addr, hi: new_hi };
        self.send_mgmt_on(from_n1, body, invoke_id, 0);
        self.drain_rib();
        self.refresh_lsa();
    }

    pub(super) fn handle_enroll_response(&mut self, addr: Addr, hi: Addr, result: i32) {
        if self.enrolled {
            return; // duplicate response to a retried request
        }
        if result != 0 || addr == 0 || hi < addr {
            return; // keep retrying (or give up via node policy)
        }
        self.become_member(addr, hi);
        // The port we enrolled through is our spanning-tree edge.
        if let Some(peer) = self.enroll.via.and_then(|n1| self.neighbors.peers.get_mut(n1)) {
            peer.tree = true;
        }
        // Requests retried before this response landed are now moot.
        self.enroll.pending.clear();
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
    /// responsible for — its member record, LSA, and
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
        if self.departed || self.enroll.gc_watch.is_empty() {
            return;
        }
        for (name, addr) in self.enroll.take_failed(now, grace) {
            self.purge_member(&name, addr);
        }
    }

    /// Garbage-collect a failed sponsored member: tombstone its member
    /// record, LSA, and every other live object it originated
    /// (directory entries, re-asserted records). The tombstones ride
    /// the ordinary dissemination machinery — flood now, digest-driven
    /// anti-entropy later — so departed state cannot linger anywhere.
    fn purge_member(&mut self, name: &AppName, addr: Addr) {
        for n in departure_names(&self.rib, name, addr) {
            self.rib.delete_local(&n);
        }
        if self.scoped_dir() {
            // The sponsor tombstones the LSA locally, so the wire
            // hook in `apply_and_reflood` never sees it: drop our own
            // cached answers pointing at the purged member here.
            self.directory.invalidate_owner(addr, &mut self.stats);
        }
        self.stats.members_purged += 1;
        self.drain_rib();
    }
}

/// The RIB objects that depart with member (`name`, `addr`): its
/// member record, LSA, and everything else it originated — EXCEPT the
/// member records it wrote *as a sponsor* for other members. Those
/// records carry the sponsor's origin (admission authored them) but
/// describe still-live members; tombstoning them would force every
/// described member through a reassert round for state that was never
/// the departing member's to retract.
fn departure_names(rib: &Rib, name: &AppName, addr: Addr) -> Vec<String> {
    let member_rec = member_name(name);
    let mut names: Vec<String> = rib
        .live_of_origin(addr)
        .into_iter()
        .filter(|n| !n.starts_with(MEMBER_PREFIX) || *n == member_rec)
        .collect();
    names.push(member_rec);
    names.push(Lsa::object_name(addr));
    names.sort_unstable();
    names.dedup();
    names
}

/// Choose the address and block for enrollee `name`, as the sponsor
/// granted `me`, honouring its `proposed` grant when it conflicts with
/// nothing `rib` knows. Sibling blocks must stay disjoint: a proposal
/// that *partially* overlaps a recorded block (neither contains the
/// other) is refused, and so is a block whose top lies below its base.
/// A refused or absent proposal no longer dooms the joiner to a
/// fragmenting singleton: a re-enrolling member gets its previous grant
/// back (identity reuse — its stale record becomes its record again
/// instead of colliding with it), and otherwise the sponsor *carves* a
/// fresh sub-range out of its own delegated block, so unplanned joiners
/// stay aggregatable with the sponsor's subtree. Only when the block is
/// exhausted does the legacy fallback — a singleton past everything
/// delegated — fire.
fn assign_enrollee(rib: &Rib, me: Grant, name: &AppName, proposed: Grant) -> Grant {
    let (my_addr, my_hi) = me;
    let (p_addr, p_hi) = proposed;
    let mut max_addr = my_hi;
    let mut taken = p_addr == 0 || p_addr == my_addr || p_hi < p_addr;
    let own_member_name = member_name(name);
    let mut own = None;
    for o in rib.iter_prefix(MEMBER_PREFIX) {
        let Some((a, hi)) = decode_member(o.value) else { continue };
        max_addr = max_addr.max(hi);
        let mine = o.name == own_member_name;
        if mine {
            own = Some((a, hi));
        }
        // Nesting is only legitimate *inward*: a proposal may sit
        // inside an ancestor's block (enrollment runs top-down, so
        // every known containing block is an ancestor's). A proposal
        // that swallows an already-delegated block would let two
        // sponsors hand out the same addresses.
        let disjoint = p_hi < a || hi < p_addr;
        let inside = a <= p_addr && p_hi <= hi;
        if (!disjoint && !inside) || (a == p_addr && !mine) {
            taken = true;
        }
    }
    if !taken {
        return proposed;
    }
    // Identity reuse: a member that failed (or lost its state) and
    // re-enrolls under the same name is re-granted its recorded block.
    if let Some(grant) = own.filter(|&(a, _)| a != 0 && a != my_addr) {
        return grant;
    }
    if let Some(grant) = carve_block(rib, me) {
        return grant;
    }
    let a = max_addr + 1;
    (a, a)
}

/// Carve an unused sub-range out of the delegated block of the member
/// granted `me` for a joiner that proposed nothing usable: the joiner
/// gets the first address of the largest free gap, plus the first half
/// of that gap as its own block to sponsor from. Repeated carving
/// halves geometrically, so one sponsor absorbs O(log block-size)
/// generations of unplanned joiners before ever falling back to a
/// singleton — this is what keeps `aggregated_len` bounded under
/// churn. Returns `None` when the block is a singleton or fully
/// delegated.
fn carve_block(rib: &Rib, me: Grant) -> Option<Grant> {
    let (lo, hi) = me;
    if lo >= hi {
        return None;
    }
    // Everything already spoken for inside our block: our own address
    // and the blocks of the members in range. Blocks *containing* ours
    // are ancestors' (enrollment delegates top-down) — carving may only
    // subdivide what was delegated to us, so they are skipped, as is
    // our own record.
    let mut occ: Vec<(Addr, Addr)> = vec![(lo, lo)];
    for o in rib.iter_prefix(MEMBER_PREFIX) {
        let Some((a, b)) = decode_member(o.value) else { continue };
        if a <= lo && hi <= b {
            continue;
        }
        if b >= lo && a <= hi {
            occ.push((a.max(lo), b.min(hi)));
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
    Some((g0, g0 + (g1 - g0) / 2))
}

/// RIB object class of the member records.
pub(super) const MEMBER_CLASS: &str = "member";

/// RIB object name of the member record of the process named `name`.
pub(crate) fn member_name(name: &AppName) -> String {
    format!("{MEMBER_PREFIX}{}", name.key())
}

/// Encode a member record: the member's address, then the top of its
/// block `[addr, hi]`. A reader that wants only the address reads the
/// first varint.
pub(crate) fn encode_member(addr: Addr, hi: Addr) -> Bytes {
    let mut w = rina_wire::codec::Writer::new();
    w.varint(addr).varint(hi);
    w.finish()
}

/// Decode a member record into `(addr, hi)`; `None` unless it holds
/// both and `hi` is not below `addr`.
pub fn decode_member(b: &[u8]) -> Option<(Addr, Addr)> {
    let mut r = rina_wire::codec::Reader::new(b);
    let addr = r.varint().ok()?;
    let hi = r.varint().ok()?;
    (addr <= hi).then_some((addr, hi))
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
        let record = |rib: &mut Rib, name: &str, (addr, hi): Grant| {
            rib.write_local(
                &format!("{MEMBER_PREFIX}{name}"),
                MEMBER_CLASS,
                encode_member(addr, hi),
            );
        };
        let me = (1, 64);
        record(&mut rib, "net.s", me);
        let delegate = |rib: &mut Rib| {
            let grant = carve_block(rib, me)?;
            record(rib, &format!("net.j{}", grant.0), grant);
            Some(grant)
        };
        assert_eq!(delegate(&mut rib), Some((2, 33)));
        assert_eq!(delegate(&mut rib), Some((34, 49)));
        assert_eq!(delegate(&mut rib), Some((50, 57)));
        // A singleton member inside the block is spoken for too.
        record(&mut rib, "net.x", (58, 58));
        assert_eq!(delegate(&mut rib), Some((59, 61)));
        // An ancestor's block containing ours is not ours to subdivide
        // around; a singleton block has nothing to carve.
        record(&mut rib, "net.up", (1, 1000));
        assert_eq!(delegate(&mut rib), Some((62, 63)));
        assert_eq!(carve_block(&rib, (5, 5)), None);
    }

    /// The sponsor's books on the bare task struct: an admitted joiner's
    /// enrolled hello makes it sponsored; losing it arms the failure
    /// watch; only silence past the grace hands it over for purging.
    #[test]
    fn failure_watch_is_cancelled_by_any_sign_of_life() {
        let (x, y) = (AppName::new("net.x"), AppName::new("net.y"));
        let mut e = Enroll::default();
        for (name, addr) in [(&x, 2), (&y, 3)] {
            e.admitting.insert(name.clone(), (Time::ZERO, (addr, addr)));
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
