//! IPC Management — the application directory: which member an
//! application name lives at. Registrations are `/dir/*` RIB objects;
//! under the scoped-`/dir` policy only their owner stores them, and
//! everyone else resolves on demand over the DIF's spanning tree into an
//! LRU cache that the owners' tombstones, flooded over the same tree,
//! invalidate.

use super::{decode_addr, encode_addr, Ipcp, IpcpStats};
use crate::msg::MgmtBody;
use crate::naming::{Addr, AppName};
use crate::qos::QosSpec;
use crate::routing::Lsa;
use rina_rib::RibObjectRef;
use rina_sim::{Dur, Time};
use std::collections::BTreeMap;

/// Capacity of the directory resolution cache (scoped `/dir` only):
/// least-recently used entries are evicted beyond this many.
const DIR_CACHE_CAP: usize = 128;

/// One flow allocation parked behind an on-demand directory lookup
/// (scoped `/dir` only). It leaves through the owner's answer, which
/// resumes it, or through its allocation's deadline, which ends it.
pub(super) struct DirWaiter {
    port: u64,
    src_app: AppName,
    dst_app: AppName,
    spec: QosSpec,
    deadline: Time,
    /// This allocation sent the lookup's request.
    asked: bool,
}

/// A cached directory resolution (scoped `/dir` only): where the owner
/// said the application lives, at which entry version (so in-flight
/// answers lose to newer tombstones), last used when (deterministic LRU
/// via a monotonic use stamp, not wall time).
#[derive(Clone, Copy, Debug)]
pub(super) struct DirCached {
    addr: Addr,
    version: u64,
    used: u64,
}

/// The directory task's state (see module docs).
#[derive(Default)]
pub(super) struct Directory {
    /// Applications registered here, in the order they registered,
    /// whether or not this process is a member yet (drives directory
    /// reasserts when a wrong purge tombstones one of our `/dir/*`
    /// entries).
    pub(super) registered: Vec<AppName>,
    /// On-demand resolution cache (scoped `/dir` only): name → owner
    /// answer, LRU-bounded by [`DIR_CACHE_CAP`].
    pub(super) cache: BTreeMap<String, DirCached>,
    /// Monotonic use stamp backing the cache's deterministic LRU.
    use_stamp: u64,
    /// Newest `/dir` tombstone seen per name `(version, origin,
    /// recorded-at)`: the invalidation memory that keeps stale in-flight
    /// lookup answers from resurrecting a deleted entry. Entries expire
    /// after the member-GC grace — a re-registered owner restarts its
    /// version clock, so tombstone memory held forever would refuse the
    /// reborn entry; past the grace the staleness window it guards has
    /// long closed.
    tombstones: BTreeMap<String, (u64, Addr, Time)>,
    /// The allocations waiting on each on-demand lookup in flight, by
    /// RIB name.
    pub(super) pending: BTreeMap<String, Vec<DirWaiter>>,
}

impl Directory {
    /// Whether the application with directory key `app` is registered
    /// here.
    pub(super) fn owns(&self, app: &str) -> bool {
        self.registered.iter().any(|r| r.matches_key(app))
    }

    /// The cached answer for `name`, counted as a hit or a miss (the
    /// determinism property tests pin both counters across thread
    /// counts).
    fn cached(&mut self, name: &str, stats: &mut IpcpStats) -> Option<Addr> {
        let Some(c) = self.cache.get_mut(name) else {
            stats.dir_cache_misses += 1;
            return None;
        };
        self.use_stamp += 1;
        c.used = self.use_stamp;
        stats.dir_cache_hits += 1;
        Some(c.addr)
    }

    /// Cache the owner's answer `name` → `addr` at `version`, evicting
    /// the least recently used entry beyond capacity, and return what
    /// the cache now resolves `name` to (a newer answer already cached
    /// wins).
    fn cache_answer(&mut self, name: &str, addr: Addr, version: u64) -> Addr {
        if !self.cache.contains_key(name) && self.cache.len() >= DIR_CACHE_CAP {
            // Deterministic LRU: the use stamp is monotonic and
            // unique, so the victim is unambiguous.
            if let Some(evict) =
                self.cache.iter().min_by_key(|(_, c)| c.used).map(|(n, _)| n.clone())
            {
                self.cache.remove(&evict);
            }
        }
        self.use_stamp += 1;
        let used = self.use_stamp;
        let e = self.cache.entry(name.to_string()).or_insert(DirCached { addr, version, used });
        if (version, addr) >= (e.version, e.addr) {
            *e = DirCached { addr, version, used };
        } else {
            e.used = used;
        }
        e.addr
    }

    /// Whether the allocation for `port` waits on a lookup.
    pub(super) fn waits(&self, port: u64) -> bool {
        self.pending.values().any(|ws| ws.iter().any(|w| w.port == port))
    }

    /// Forget the allocation parked for `port`: its answer resumes
    /// nothing, and a lookup no allocation waits on any more is dropped.
    pub(super) fn drop_waiter(&mut self, port: u64) {
        for ws in self.pending.values_mut() {
            ws.retain(|w| w.port != port);
        }
        self.pending.retain(|_, ws| !ws.is_empty());
    }

    /// Drop every cached entry pointing at `addr` — the owner departed
    /// (graceful leave or sponsor purge), announced by its DIF-wide
    /// `/lsa` tombstone.
    pub(super) fn invalidate_owner(&mut self, addr: Addr, stats: &mut IpcpStats) {
        let before = self.cache.len();
        self.cache.retain(|_, c| c.addr != addr);
        stats.dir_invalidations += (before - self.cache.len()) as u64;
    }

    /// Record the tombstone `obj` of a foreign `/dir` entry, seen at
    /// `now`, and drop the cache entry it kills. Returns whether it was
    /// news (newer than the tombstone remembered for the name).
    pub(super) fn on_tombstone(
        &mut self,
        obj: &RibObjectRef<'_>,
        now: Time,
        stats: &mut IpcpStats,
    ) -> bool {
        let newer = self
            .tombstones
            .get(obj.name)
            .is_none_or(|&(v, o, _)| (obj.version, obj.origin) > (v, o));
        if !newer {
            return false;
        }
        self.tombstones.insert(obj.name.to_string(), (obj.version, obj.origin, now));
        if let Some(c) = self.cache.get(obj.name) {
            if (c.version, c.addr) <= (obj.version, obj.origin) {
                self.cache.remove(obj.name);
                stats.dir_invalidations += 1;
            }
        }
        true
    }

    /// Expire tombstone memory older than `grace`: a re-registered owner
    /// restarts its version clock, and /dir is off the anti-entropy
    /// surface, so memory held forever would refuse the reborn entry's
    /// answers. The in-flight answers the memory guards against are
    /// milliseconds old, never grace-old.
    pub(super) fn expire_tombstones(&mut self, now: Time, grace: Dur) {
        self.tombstones.retain(|_, &mut (_, _, t)| now.since(t) <= grace);
    }
}

/// RIB object name of the directory entry of `app`.
fn dir_name(app: &AppName) -> String {
    format!("/dir/{}", app.key())
}

impl Ipcp {
    /// Whether this process runs the owner-held `/dir` replication scope.
    pub(super) fn scoped_dir(&self) -> bool {
        self.cfg.scoped_dir
    }

    /// Register a local application in this DIF's directory. The name is
    /// recorded at once and written to `/dir` while this process is a
    /// member: now, or when it enrolls — and again when the fresh process
    /// a crash-restart puts in its slot enrolls.
    pub fn dir_register(&mut self, app: &AppName) {
        if !self.directory.registered.contains(app) {
            self.directory.registered.push(app.clone());
        }
        if self.enrolled {
            self.rib.write_local(&dir_name(app), "dir", encode_addr(self.addr));
            self.drain_rib();
        }
    }

    /// Remove a local application from this DIF's directory.
    pub fn dir_unregister(&mut self, app: &AppName) {
        self.directory.registered.retain(|r| r != app);
        self.rib.delete_local(&dir_name(app));
        self.drain_rib();
    }

    /// Where (which member address) an application is registered, if known.
    pub fn dir_lookup(&self, app: &AppName) -> Option<Addr> {
        if self.is_shim {
            // Degenerate directory: whatever the name, the peer across a
            // live medium might have it.
            return self.transfer.n1.iter().find(|p| p.live()).map(|p| p.peer_addr);
        }
        self.rib.get(&dir_name(app)).and_then(|o| decode_addr(o.value))
    }

    /// Resolve `app` from local knowledge under the scoped-`/dir`
    /// policy: own registrations first (the only entries a scoped RIB
    /// holds), then the lookup cache.
    pub(super) fn resolve_dir_local(&mut self, app: &AppName) -> Option<Addr> {
        let name = dir_name(app);
        match self.rib.get(&name) {
            Some(o) => decode_addr(o.value),
            None => self.directory.cached(&name, &mut self.stats),
        }
    }

    /// Park a flow allocation behind an on-demand directory lookup:
    /// ask the spanning tree once for the owner's entry and continue the
    /// allocation when the answer arrives. Concurrent allocations to the
    /// same name share one outstanding request while the allocation that
    /// sent it waits. Nothing resends it: a request that is lost, or
    /// reaches no owner, ends with that allocation's deadline, and the
    /// next allocation to the name asks again — without that, allocations
    /// retried inside each other's deadlines would keep a lost request
    /// pending for ever.
    pub(super) fn start_dir_lookup(
        &mut self,
        port: u64,
        src_app: AppName,
        dst_app: AppName,
        spec: QosSpec,
        deadline: Time,
    ) {
        let name = dir_name(&dst_app);
        let ws = self.directory.pending.entry(name.clone()).or_default();
        let asked = !ws.iter().any(|w| w.asked);
        ws.push(DirWaiter { port, src_app, dst_app, spec, deadline, asked });
        if asked {
            self.stats.dir_lookups_sent += 1;
            // The widest hop budget the PDU's `ttl` carries: a tree path
            // spans up to twice the root's depth, more than a relayed
            // PDU's `DEFAULT_TTL`.
            self.send_lookup(&name, self.addr, None, u8::MAX);
        }
    }

    /// Send the lookup of `name` that `origin` started out every tree
    /// port but `except`, with `ttl` tree edges left to cross: the tree
    /// reaches every member and has no cycle, so propagation needs no
    /// duplicate-suppression state, and the budget ends a lookup caught
    /// in a route transient's loop (DESIGN.md §11).
    fn send_lookup(&mut self, name: &str, origin: Addr, except: Option<usize>, ttl: u8) {
        let ports: Vec<usize> = self.tree_ports().filter(|&i| Some(i) != except).collect();
        for i in ports {
            let body = MgmtBody::DirLookupRequest { name: name.to_string(), origin };
            let frame = self.mgmt_pdu(0, ttl, body.encode(0, 0)).encode();
            self.tx_mgmt(i, frame);
        }
    }

    /// A directory lookup reached us on `from_n1` with `ttl` tree edges
    /// left: answer if we hold the live entry as its authoritative owner,
    /// else forward it out the other tree ports while its budget lasts
    /// (one spent is a `ttl_drops`). One that arrived on a port we do not
    /// count as a tree port is dropped, so a lookup crosses only edges
    /// both ends count (DESIGN.md §11). An owner without a live entry
    /// stays silent: no negative answer is ever sent.
    pub(super) fn handle_dir_lookup_request(
        &mut self,
        name: String,
        origin: Addr,
        from_n1: usize,
        ttl: u8,
    ) {
        let on_tree = self.neighbors.on_tree(from_n1, self.up_port());
        if !on_tree || !self.manages() || origin == 0 || origin == self.addr {
            return;
        }
        let own = self
            .rib
            .get(&name)
            .filter(|o| o.origin == self.addr)
            .map(|o| (decode_addr(o.value), o.version));
        if let Some((maybe_addr, version)) = own {
            let Some(addr) = maybe_addr else { return };
            let body = MgmtBody::DirLookupResponse { name, addr, version };
            self.stats.dir_lookups_answered += 1;
            self.send_mgmt_addr(origin, body, 0, 0);
            return;
        }
        match ttl.checked_sub(1).filter(|&left| left > 0) {
            Some(left) => self.send_lookup(&name, origin, Some(from_n1), left),
            None => self.stats.ttl_drops += 1,
        }
    }

    /// An authoritative lookup answer arrived: guard it against every
    /// tombstone we know (a stale in-flight answer must never
    /// resurrect a deleted entry or a departed owner), cache it, and
    /// resume the allocations waiting on the name.
    pub(super) fn handle_dir_lookup_response(&mut self, name: String, addr: Addr, version: u64) {
        if !self.scoped_dir() || addr == 0 || addr == self.addr {
            return;
        }
        if let Some(&(tv, to, _)) = self.directory.tombstones.get(&name) {
            if (version, addr) <= (tv, to) {
                return; // the answer lost the race with a newer deletion
            }
        }
        if self.rib.get(&Lsa::object_name(addr)).is_none() {
            // The owner's LSA is already tombstoned DIF-wide (or it
            // never had one, and no route): the answer raced its
            // departure. Serving or caching it would point flows at a
            // dead member past the GC grace.
            return;
        }
        let resolved = self.directory.cache_answer(&name, addr, version);
        if let Some(ws) = self.directory.pending.remove(&name) {
            for w in ws {
                self.alloc_flow_resolved(
                    w.port, w.src_app, w.dst_app, w.spec, resolved, w.deadline,
                );
            }
        }
    }

    /// Read-only view of the on-demand directory cache, for tests and
    /// measurement: `(object name, owner address, entry version)` per
    /// cached answer.
    pub fn dir_cache_entries(&self) -> Vec<(String, Addr, u64)> {
        self.directory.cache.iter().map(|(n, c)| (n.clone(), c.addr, c.version)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache on the bare task struct — no `Ipcp`, no RIB, no
    /// simulator: at capacity, the answer unused for longest goes.
    #[test]
    fn cache_evicts_the_least_recently_used_answer_at_capacity() {
        let (mut d, mut stats) = (Directory::default(), IpcpStats::default());
        for k in 0..DIR_CACHE_CAP {
            assert_eq!(d.cache_answer(&format!("/dir/app{k}"), 7, 1), 7);
        }
        // Using the oldest answer makes the second-oldest the victim.
        assert_eq!(d.cached("/dir/app0", &mut stats), Some(7));
        assert_eq!(d.cached("/dir/nope", &mut stats), None);
        assert_eq!((stats.dir_cache_hits, stats.dir_cache_misses), (1, 1));
        d.cache_answer("/dir/one-more", 8, 1);
        assert_eq!(d.cache.len(), DIR_CACHE_CAP);
        assert!(d.cache.contains_key("/dir/app0") && d.cache.contains_key("/dir/one-more"));
        assert!(!d.cache.contains_key("/dir/app1"), "LRU victim evicted");
        // Re-answering a cached name evicts nothing, and an older answer
        // does not displace the newer one already held.
        assert_eq!(d.cache_answer("/dir/app0", 9, 0), 7);
        assert_eq!(d.cache.len(), DIR_CACHE_CAP);
        assert!(d.cache.contains_key("/dir/app2"));
        // The owner at 7 departs: every answer pointing at it goes.
        d.invalidate_owner(7, &mut stats);
        assert_eq!(d.cache.len(), 1);
        assert_eq!(stats.dir_invalidations, DIR_CACHE_CAP as u64 - 1);
    }
}
