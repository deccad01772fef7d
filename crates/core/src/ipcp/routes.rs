//! IPC Management — routing: the link-state advertisement this member
//! originates (its live neighbor set, debounced) and the route engine
//! that holds everyone's as one graph, fed by the RIB's `/lsa/*` watch
//! hook. The
//! engine's forwarding table is the one thing the Data Transfer task is
//! handed from here.

use super::Ipcp;
use crate::naming::Addr;
use crate::routing::{EngineStats, ForwardingTable, Lsa, RouteEngine, LSA_CLASS};
use rina_rib::Rib;
use rina_sim::{Dur, Time};

/// Debounce for *originating* LSA versions ([`Ipcp::refresh_lsa`]): the
/// window the leading-edge test measures and the node's flush timer
/// waits out.
pub(super) const LSA_DEBOUNCE: Dur = Dur::from_millis(100);

/// Debounce for route recomputation: it only coalesces one flood burst
/// into one SPF repair, however big the facility. The cases that need
/// the full-recomputation fallback (bootstrap, re-rooting at enrollment)
/// recompute at once instead of waiting for it.
const RECOMPUTE_DEBOUNCE: Dur = Dur::from_millis(20);

/// The routing task's state (see module docs).
pub(super) struct Routes {
    /// The routing engine: the LSA graph fed by the RIB's `/lsa/*` watch
    /// hook, incremental SPF, delta-patched forwarding table. Remote
    /// deltas accumulate here until the node's debounce timer runs
    /// [`super::Deferred::Routes`]; local LSA writes recompute
    /// immediately (failure rerouting stays fast).
    pub(super) engine: RouteEngine,
    /// Neighbor set currently advertised in our LSA.
    pub(super) advertised: Vec<Addr>,
    /// A neighbor-set change occurred inside the LSA debounce window;
    /// the node's flush timer will batch it into one new version.
    pub(super) lsa_dirty: bool,
    /// When the LSA was last (re)written — the debounce leading edge.
    lsa_last_write: Time,
}

impl Routes {
    pub(super) fn new() -> Self {
        Routes {
            engine: RouteEngine::new(0),
            advertised: Vec::new(),
            lsa_dirty: false,
            lsa_last_write: Time::ZERO,
        }
    }

    /// Drain `rib`'s `/lsa/*` watch queue into the routing engine —
    /// the single funnel through which the engine's graph learns
    /// of LSA changes, whatever path stored them (local write, flood,
    /// delta response, enrollment sync stream, tombstone).
    pub(super) fn sync(&mut self, rib: &mut Rib) {
        while let Some(enc) = rib.poll_watch() {
            let o = enc.view();
            if o.class != LSA_CLASS {
                continue;
            }
            let Some(addr) = Lsa::addr_of_name(o.name) else { continue };
            if o.deleted {
                self.engine.on_lsa(addr, None);
            } else if let Ok(lsa) = Lsa::decode(o.value) {
                self.engine.on_lsa(addr, Some(lsa));
            }
            // An undecodable live value keeps the last good advertisement:
            // withdrawing routes over a corrupt (or future-format) update
            // would turn one bad PDU into an outage.
        }
    }

    /// How long to let LSA deltas accumulate before recomputing, if any
    /// are queued: a burst of flooded LSAs costs one SPF repair, not one
    /// per update.
    pub(super) fn recompute_wanted(&self) -> Option<Dur> {
        self.engine.dirty().then_some(RECOMPUTE_DEBOUNCE)
    }
}

impl Ipcp {
    /// Current forwarding table (step one: destination → next hops).
    pub fn fwd(&self) -> &ForwardingTable {
        self.routes.engine.table()
    }

    /// SPF counters (full vs incremental invocations, patched entries).
    pub fn route_stats(&self) -> EngineStats {
        self.routes.engine.stats
    }

    /// Write a new version of our LSA if the live neighbor set changed,
    /// with a leading-edge debounce. The first change after a quiet
    /// period writes (and floods) immediately, so failure rerouting and
    /// mobility stay fast; further changes inside [`LSA_DEBOUNCE`] mark
    /// the LSA dirty and are batched into one version when the node's
    /// flush timer fires. A hub admitting a wave of joiners then emits a
    /// handful of LSA versions instead of one per attachment — each saved
    /// version is one less object flooded DIF-wide.
    pub(super) fn refresh_lsa(&mut self) {
        if !self.manages() {
            return;
        }
        let last = self.routes.lsa_last_write;
        if last != Time::ZERO && self.clock.since(last) < LSA_DEBOUNCE {
            self.routes.lsa_dirty = true;
            return;
        }
        self.write_lsa_now();
    }

    /// Unconditionally recompute the neighbor set and, if it differs
    /// from what we advertise, write and disseminate a new LSA version —
    /// then repair the local forwarding table immediately: our own
    /// adjacency changes are delta-classified like any other edge, so
    /// the repair is cheap, and failure rerouting must not wait out the
    /// node's debounce window.
    pub(super) fn write_lsa_now(&mut self) {
        if !self.manages() || self.departed {
            // A departed member must not resurrect its tombstoned LSA.
            return;
        }
        self.routes.lsa_dirty = false;
        let mut neigh: Vec<Addr> =
            self.transfer.n1.iter().filter(|p| p.live()).map(|p| p.peer_addr).collect();
        neigh.sort_unstable();
        neigh.dedup();
        if neigh == self.routes.advertised {
            return;
        }
        self.routes.lsa_last_write = self.clock;
        self.routes.advertised = neigh.clone();
        let lsa = Lsa { neighbors: neigh.into_iter().map(|a| (a, 1)).collect() };
        self.rib.write_local(&Lsa::object_name(self.addr), LSA_CLASS, lsa.encode());
        self.drain_rib();
        self.routes.engine.recompute();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recompute debounce on the bare task struct: nothing queued, no
    /// timer; anything queued, one short window, whatever the repair
    /// will cost.
    #[test]
    fn recompute_debounce_tracks_what_the_repair_will_cost() {
        let lsa = |to: Addr| Some(Lsa { neighbors: vec![(to, 1)] });
        let mut r = Routes::new();
        assert_eq!(r.recompute_wanted(), None);
        // Re-rooting (enrollment assigns the address): the full fallback.
        r.engine.set_self(1);
        for a in 1..=700 {
            r.engine.on_lsa(a, lsa(a + 1));
        }
        assert!(r.engine.pending_full());
        assert_eq!(r.recompute_wanted(), Some(Dur::from_millis(20)));
        r.engine.recompute();
        assert_eq!(r.recompute_wanted(), None);
        // One more member attaches: an incremental repair.
        r.engine.on_lsa(701, lsa(700));
        assert!(!r.engine.pending_full());
        assert_eq!(r.recompute_wanted(), Some(Dur::from_millis(20)));
    }
}
