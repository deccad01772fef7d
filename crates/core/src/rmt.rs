//! The relaying-and-multiplexing task's transmit queues.
//!
//! "a multiplexing task to efficiently use (schedule) the underlying IPC
//! facility (communication medium) that is shared among several
//! connections" (§3.1). Each (N-1) port that drains into a rate-limited
//! medium gets an [`RmtQueue`]: a bounded buffer of **per-QoS-cube lanes**
//! with a scheduling policy across them. The owning node paces departures
//! at the medium's rate, so the policy actually bites at the bottleneck
//! instead of inside an uncontrolled FIFO.
//!
//! Three disciplines ([`SchedPolicy`]):
//!
//! * `Fifo` — global arrival order, the current-Internet baseline.
//! * `Priority` — strict priority across lanes; an urgent lane preempts
//!   everything below it (and can starve it — that is the point of the
//!   E9/E13 comparison).
//! * `Wrr` — deficit-weighted round-robin across lanes: every lane with a
//!   nonzero weight is served within a bounded number of rotations, so
//!   bulk cannot be starved while interactive still gets a weighted share.
//!
//! `Priority` and `Wrr` also apply the policy at **admission**: a full
//! queue pushes out strictly-lower-priority queued frames (youngest
//! first) to accept a higher-priority arrival, so a bulk flood cannot
//! starve the management cube of queue *space* (which would collapse
//! flow allocation under exactly the congestion QoS exists for). `Fifo`
//! stays pure DropTail — the no-QoS baseline.
//!
//! Every lane keeps deterministic counters — enqueues, drops, evictions,
//! bytes, backlog peak, queueing latency in integer virtual nanoseconds —
//! so the bench sweep can gate them **exactly** (any drift is a behaviour
//! change, not noise).

// R1 (DESIGN.md §9): this is a per-PDU protocol path, so a panic site
// is a clippy error; each proven-safe exception is an `#[expect]` with
// its reason on the function that needs it.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use crate::dif::SchedPolicy;
use bytes::Bytes;
use std::collections::VecDeque;

/// Number of scheduling lanes (QoS cube ids 0..=7; higher ids clamp).
pub const LANES: usize = 8;

/// The scheduling class of one frame: which cube it belongs to and the
/// relay priority that cube granted. Carried alongside frames through the
/// transmit effects, so a bottleneck (N-1) queue can classify traffic by
/// the *originating* cube even when the frame crossed a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxClass {
    /// QoS cube id (selects the lane; clamped to `LANES - 1`).
    pub qos_id: u8,
    /// Relay scheduling priority (higher = served first under `Priority`).
    pub priority: u8,
}

impl TxClass {
    /// A class.
    pub fn new(qos_id: u8, priority: u8) -> Self {
        TxClass { qos_id, priority }
    }

    /// The management class: cube 0 at top priority.
    pub fn mgmt() -> Self {
        TxClass { qos_id: 0, priority: 7 }
    }
}

/// Static per-lane scheduling configuration, derived from the DIF's cube
/// set ([`RmtQueue::for_cubes`]).
#[derive(Clone, Copy, Debug)]
pub struct LaneCfg {
    /// Strict priority of this lane (`Priority` policy).
    pub priority: u8,
    /// Round-robin weight of this lane (`Wrr` policy); 0 acts as 1.
    pub weight: u32,
}

impl Default for LaneCfg {
    fn default() -> Self {
        LaneCfg { priority: 0, weight: 1 }
    }
}

/// Deterministic counters of one lane. All integers, all pure functions
/// of the simulation — the sweep gates them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Frames accepted into the lane.
    pub enq: u64,
    /// Frames dequeued (transmitted).
    pub deq: u64,
    /// Frames tail-dropped because the queue was at capacity.
    pub drops: u64,
    /// Frames evicted after acceptance by a higher-priority arrival
    /// (push-out; `Priority`/`Wrr` only — FIFO is pure DropTail).
    pub evict: u64,
    /// Payload bytes accepted.
    pub enq_bytes: u64,
    /// Payload bytes dequeued.
    pub deq_bytes: u64,
    /// Payload bytes tail-dropped.
    pub drop_bytes: u64,
    /// Payload bytes evicted by push-out.
    pub evict_bytes: u64,
    /// Widest backlog this lane ever held, bytes.
    pub backlog_peak_bytes: u64,
    /// Total queueing delay of dequeued frames, virtual nanoseconds.
    pub lat_ns_sum: u64,
}

impl LaneStats {
    /// Accumulate another lane's counters into this one (peak = max).
    pub fn merge(&mut self, o: &LaneStats) {
        self.enq += o.enq;
        self.deq += o.deq;
        self.drops += o.drops;
        self.evict += o.evict;
        self.enq_bytes += o.enq_bytes;
        self.deq_bytes += o.deq_bytes;
        self.drop_bytes += o.drop_bytes;
        self.evict_bytes += o.evict_bytes;
        self.backlog_peak_bytes = self.backlog_peak_bytes.max(o.backlog_peak_bytes);
        self.lat_ns_sum += o.lat_ns_sum;
    }
}

/// One queued frame with the metadata scheduling needs.
#[derive(Debug)]
struct Entry {
    /// Global arrival sequence (FIFO order and priority tie-breaks).
    seq: u64,
    /// Carried priority (may exceed the lane's static priority when an
    /// upper DIF's class rides a lower bottleneck).
    priority: u8,
    /// Virtual time of enqueue, nanoseconds.
    enq_ns: u64,
    frame: Bytes,
}

/// DRR quantum granted per weight unit per rotation, bytes. Roughly half
/// an MTU: a weight-1 lane sends at least one full frame every couple of
/// rotations, a weight-4 lane about two frames per rotation.
const WRR_QUANTUM: u64 = 512;

/// A bounded, scheduled transmit queue for one (N-1) port.
#[derive(Debug)]
pub struct RmtQueue {
    policy: SchedPolicy,
    lanes: [VecDeque<Entry>; LANES],
    cfg: [LaneCfg; LANES],
    stats: [LaneStats; LANES],
    /// Per-lane backlog, bytes.
    lane_bytes: [u64; LANES],
    bytes: usize,
    cap_bytes: usize,
    next_seq: u64,
    /// Bitmask of non-empty lanes, maintained at every enqueue/dequeue/
    /// evict. Lets [`RmtQueue::pop`] skip the 8-lane head scan in the two
    /// overwhelmingly common states — empty, and exactly one busy lane —
    /// where every scan's answer is forced.
    occupied: u8,
    /// `Wrr` round-robin cursor.
    rr: usize,
    /// `Wrr` per-lane deficit, bytes.
    deficit: [u64; LANES],
}

impl RmtQueue {
    /// A queue with the given policy, byte capacity and lane table.
    pub fn new(policy: SchedPolicy, cap_bytes: usize, cfg: [LaneCfg; LANES]) -> Self {
        RmtQueue {
            policy,
            lanes: Default::default(),
            cfg,
            stats: [LaneStats::default(); LANES],
            lane_bytes: [0; LANES],
            bytes: 0,
            cap_bytes,
            next_seq: 0,
            occupied: 0,
            rr: 0,
            deficit: [0; LANES],
        }
    }

    /// A queue whose lane table mirrors a DIF's cube set: each cube's id
    /// selects a lane configured with that cube's priority and weight;
    /// ids without a cube keep the default (priority 0, weight 1).
    pub fn for_cubes(policy: SchedPolicy, cap_bytes: usize, cubes: &[crate::qos::QosCube]) -> Self {
        let mut cfg = [LaneCfg::default(); LANES];
        for c in cubes {
            if let Some(slot) = cfg.get_mut((c.id as usize).min(LANES - 1)) {
                *slot = LaneCfg { priority: c.priority, weight: c.weight.max(1) };
            }
        }
        Self::new(policy, cap_bytes, cfg)
    }

    /// Enqueue a frame of `class` at virtual time `now_ns`. Returns false
    /// (and counts a tail-drop against the class's lane) when the frame
    /// would overflow the queue's byte capacity.
    ///
    /// Under `Priority` and `Wrr`, a full queue first **pushes out**
    /// strictly-lower-priority queued frames (youngest first) to admit
    /// the arrival: priority must protect *admission*, not just dequeue
    /// order, or a bulk flood starves the management cube of queue space
    /// and flow allocation collapses exactly when QoS matters most.
    /// Push-out victims count against *their* lane's eviction counters.
    /// `Fifo` stays pure DropTail — it is the no-QoS baseline.
    #[expect(
        clippy::indexing_slicing,
        reason = "queues is a fixed 8-slot array and the priority index is `priority.min(7)`; cannot exceed bounds"
    )]
    pub fn push(&mut self, class: TxClass, frame: Bytes, now_ns: u64) -> bool {
        let l = (class.qos_id as usize).min(LANES - 1);
        let len = frame.len();
        if self.bytes + len > self.cap_bytes && self.policy != SchedPolicy::Fifo {
            let arr_prio = class.priority.max(self.cfg[l].priority);
            while self.bytes + len > self.cap_bytes && self.evict_one_below(arr_prio) {}
        }
        if self.bytes + len > self.cap_bytes {
            self.stats[l].drops += 1;
            self.stats[l].drop_bytes += len as u64;
            return false;
        }
        self.bytes += len;
        self.lane_bytes[l] += len as u64;
        self.stats[l].enq += 1;
        self.stats[l].enq_bytes += len as u64;
        self.stats[l].backlog_peak_bytes = self.stats[l].backlog_peak_bytes.max(self.lane_bytes[l]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[l].push_back(Entry { seq, priority: class.priority, enq_ns: now_ns, frame });
        self.occupied |= 1 << l;
        true
    }

    /// Evict the single best push-out victim: among every lane's
    /// youngest (back) entry, the one with the lowest effective priority
    /// (carried priority floored by the lane's static priority), newest
    /// first on ties. Only entries **strictly below** `arr_prio` qualify
    /// — equal-priority traffic is never evicted, so a class cannot
    /// push out its own kind. Returns whether a frame was evicted.
    #[expect(
        clippy::indexing_slicing,
        reason = "lane index comes from enumerate() over the fixed 8-slot lanes array and stats/lane_bytes/deficit are sized LANES in lockstep; cannot exceed bounds"
    )]
    fn evict_one_below(&mut self, arr_prio: u8) -> bool {
        let victim = self
            .lanes
            .iter()
            .zip(self.cfg.iter())
            .enumerate()
            .filter_map(|(l, (lane, cfg))| {
                lane.back().map(|e| (e.priority.max(cfg.priority), e.seq, l))
            })
            .filter(|&(p, _, _)| p < arr_prio)
            .min_by_key(|&(p, seq, _)| (p, u64::MAX - seq));
        let Some((_, _, l)) = victim else { return false };
        let Some(e) = self.lanes[l].pop_back() else { return false };
        let len = e.frame.len();
        self.bytes -= len;
        self.lane_bytes[l] -= len as u64;
        self.stats[l].evict += 1;
        self.stats[l].evict_bytes += len as u64;
        if self.lanes[l].is_empty() {
            self.occupied &= !(1 << l);
            if self.policy == SchedPolicy::Wrr {
                self.deficit[l] = 0;
            }
        }
        true
    }

    /// Dequeue the next frame per the scheduling policy, recording its
    /// queueing delay against its lane.
    #[expect(
        clippy::indexing_slicing,
        reason = "queues[0] on the fixed 8-slot array under Fifo policy; always in bounds"
    )]
    pub fn pop(&mut self, now_ns: u64) -> Option<Bytes> {
        if self.occupied == 0 {
            // All policies answer None on an empty queue without touching
            // scheduler state, so skipping the pick entirely is exact.
            return None;
        }
        let l = if self.occupied.count_ones() == 1 && self.policy != SchedPolicy::Wrr {
            // One busy lane: `Fifo` and `Priority` pick over a single
            // candidate, so the scan's answer is forced. `Wrr` must still
            // run its pick — the cursor walk accrues per-round credit.
            self.occupied.trailing_zeros() as usize
        } else {
            match self.policy {
                SchedPolicy::Fifo => self.pick_fifo()?,
                SchedPolicy::Priority => self.pick_priority()?,
                SchedPolicy::Wrr => self.pick_wrr()?,
            }
        };
        let e = self.lanes[l].pop_front()?;
        let len = e.frame.len() as u64;
        self.bytes -= e.frame.len();
        self.lane_bytes[l] -= len;
        self.stats[l].deq += 1;
        self.stats[l].deq_bytes += len;
        self.stats[l].lat_ns_sum += now_ns.saturating_sub(e.enq_ns);
        if self.lanes[l].is_empty() {
            self.occupied &= !(1 << l);
        }
        if self.policy == SchedPolicy::Wrr {
            self.deficit[l] = self.deficit[l].saturating_sub(len);
            if self.lanes[l].is_empty() {
                // An emptied lane forfeits its residual credit (classic
                // DRR): idle lanes must not bank bandwidth.
                self.deficit[l] = 0;
            }
        }
        Some(e.frame)
    }

    /// Global arrival order: the lane holding the oldest head.
    fn pick_fifo(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| lane.front().map(|e| (e.seq, l)))
            .min()
            .map(|(_, l)| l)
    }

    /// Strict priority: the head with the highest carried priority (the
    /// lane's static priority is the floor); ties go to the oldest.
    fn pick_priority(&self) -> Option<usize> {
        self.lanes
            .iter()
            .zip(self.cfg.iter())
            .enumerate()
            .filter_map(|(l, (lane, cfg))| {
                lane.front().map(|e| (e.priority.max(cfg.priority), u64::MAX - e.seq, l))
            })
            .max()
            .map(|(_, _, l)| l)
    }

    /// Deficit round-robin: each rotation grants every non-empty lane
    /// `weight × WRR_QUANTUM` bytes of credit; a lane transmits while its
    /// credit covers its head frame. No non-empty lane waits more than
    /// `ceil(frame / quantum)` rotations — weighted sharing without
    /// starvation.
    fn pick_wrr(&mut self) -> Option<usize> {
        if self.bytes == 0 {
            return None;
        }
        loop {
            let l = self.rr;
            match self.lanes.get(l).and_then(|q| q.front()) {
                None => {
                    if let Some(d) = self.deficit.get_mut(l) {
                        *d = 0;
                    }
                }
                Some(head) => {
                    let need = head.frame.len() as u64;
                    if self.deficit.get(l).copied().unwrap_or(0) >= need {
                        return Some(l);
                    }
                }
            }
            // The cursor's lane cannot transmit: move on, granting the
            // next lane its per-round quantum as the cursor ARRIVES (not
            // on every pop while parked — that would let one backlogged
            // lane bank credit forever and starve the rest).
            self.rr = (self.rr + 1) % LANES;
            let n = self.rr;
            if self.lanes.get(n).is_some_and(|q| !q.is_empty()) {
                let w = self.cfg.get(n).map(|c| c.weight.max(1)).unwrap_or(1) as u64;
                if let Some(d) = self.deficit.get_mut(n) {
                    *d += w * WRR_QUANTUM;
                }
            }
        }
    }

    /// Bytes currently queued across all lanes.
    pub fn backlog_bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes currently queued in one lane.
    pub fn lane_backlog_bytes(&self, lane: usize) -> u64 {
        self.lane_bytes.get(lane.min(LANES - 1)).copied().unwrap_or(0)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// The per-lane counters.
    pub fn lane_stats(&self) -> &[LaneStats; LANES] {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8, len: usize) -> Bytes {
        Bytes::from(vec![tag; len])
    }

    fn q(policy: SchedPolicy, cap: usize) -> RmtQueue {
        // Lane table shaped like the standard cube set.
        let mut cfg = [LaneCfg::default(); LANES];
        cfg[0] = LaneCfg { priority: 7, weight: 4 };
        cfg[1] = LaneCfg { priority: 2, weight: 2 };
        cfg[2] = LaneCfg { priority: 5, weight: 4 };
        cfg[3] = LaneCfg { priority: 1, weight: 1 };
        RmtQueue::new(policy, cap, cfg)
    }

    fn class(qos: u8, prio: u8) -> TxClass {
        TxClass::new(qos, prio)
    }

    #[test]
    fn fifo_preserves_arrival_order_across_lanes() {
        let mut x = q(SchedPolicy::Fifo, 1000);
        assert!(x.push(class(2, 5), frame(1, 10), 0));
        assert!(x.push(class(3, 1), frame(2, 10), 0));
        assert!(x.push(class(1, 2), frame(3, 10), 0));
        assert_eq!(x.pop(0).unwrap()[0], 1);
        assert_eq!(x.pop(0).unwrap()[0], 2);
        assert_eq!(x.pop(0).unwrap()[0], 3);
        assert!(x.pop(0).is_none());
    }

    #[test]
    fn priority_serves_urgent_first() {
        let mut x = q(SchedPolicy::Priority, 1000);
        x.push(class(3, 1), frame(1, 10), 0);
        x.push(class(2, 5), frame(5, 10), 0);
        x.push(class(1, 2), frame(3, 10), 0);
        x.push(class(2, 5), frame(6, 10), 0);
        assert_eq!(x.pop(0).unwrap()[0], 5);
        assert_eq!(x.pop(0).unwrap()[0], 6, "same priority keeps FIFO order");
        assert_eq!(x.pop(0).unwrap()[0], 3);
        assert_eq!(x.pop(0).unwrap()[0], 1);
    }

    #[test]
    fn bounded_and_counts_drops_per_lane() {
        // FIFO = pure DropTail: the cap refuses the overflowing arrival
        // whatever its class, and the drop lands on the arriving lane.
        let mut x = q(SchedPolicy::Fifo, 25);
        assert!(x.push(class(3, 1), frame(1, 10), 0));
        assert!(x.push(class(3, 1), frame(2, 10), 0));
        assert!(!x.push(class(2, 5), frame(3, 10), 0), "26 bytes would overflow");
        let s = x.lane_stats();
        assert_eq!(s[2].drops, 1);
        assert_eq!(s[2].drop_bytes, 10);
        assert_eq!(s[3].enq, 2);
        assert_eq!(x.backlog_bytes(), 20);
        x.pop(0);
        assert!(x.push(class(2, 5), frame(3, 10), 0));
    }

    #[test]
    fn priority_pushes_out_bulk_for_urgent_arrival() {
        let mut x = q(SchedPolicy::Priority, 25);
        assert!(x.push(class(3, 1), frame(1, 10), 0));
        assert!(x.push(class(3, 1), frame(2, 10), 0));
        // Mgmt (priority 7) arrives at a full queue: the youngest bulk
        // frame is evicted to make room.
        assert!(x.push(class(0, 7), frame(9, 10), 0), "urgent arrival admitted by push-out");
        let s = x.lane_stats();
        assert_eq!(s[3].evict, 1, "youngest bulk frame evicted");
        assert_eq!(s[3].evict_bytes, 10);
        assert_eq!(s[3].drops, 0, "eviction is not a tail-drop");
        assert_eq!(x.pop(0).unwrap()[0], 9);
        assert_eq!(x.pop(0).unwrap()[0], 1, "oldest bulk survived");
        assert!(x.pop(0).is_none());
    }

    #[test]
    fn pushout_never_evicts_equal_or_higher_priority() {
        let mut x = q(SchedPolicy::Priority, 25);
        assert!(x.push(class(2, 5), frame(1, 10), 0));
        assert!(x.push(class(2, 5), frame(2, 10), 0));
        // Same effective priority: no eviction, the arrival tail-drops.
        assert!(!x.push(class(2, 5), frame(3, 10), 0));
        let s = x.lane_stats();
        assert_eq!(s[2].drops, 1);
        assert_eq!(s[2].evict, 0, "a class cannot push out its own kind");
        // Lower-priority arrival against higher-priority backlog: same.
        assert!(!x.push(class(3, 1), frame(4, 10), 0));
        assert_eq!(x.lane_stats()[2].evict, 0);
        assert_eq!(x.backlog_bytes(), 20);
    }

    #[test]
    fn fifo_stays_pure_droptail() {
        let mut x = q(SchedPolicy::Fifo, 25);
        assert!(x.push(class(3, 1), frame(1, 10), 0));
        assert!(x.push(class(3, 1), frame(2, 10), 0));
        assert!(!x.push(class(0, 7), frame(9, 10), 0), "no push-out under FIFO");
        let s = x.lane_stats();
        assert_eq!(s[0].drops, 1);
        assert_eq!(s[3].evict, 0);
    }

    #[test]
    fn qos_id_clamped() {
        let mut x = q(SchedPolicy::Priority, 100);
        x.push(class(200, 3), frame(9, 5), 0);
        assert_eq!(x.pop(0).unwrap()[0], 9);
        assert_eq!(x.lane_stats()[LANES - 1].enq, 1);
    }

    #[test]
    fn empty_accounting() {
        let mut x = q(SchedPolicy::Fifo, 10);
        assert!(x.is_empty());
        x.push(class(0, 7), frame(1, 5), 0);
        assert!(!x.is_empty());
        x.pop(0);
        assert!(x.is_empty());
    }

    #[test]
    fn latency_counted_in_virtual_ns() {
        let mut x = q(SchedPolicy::Fifo, 1000);
        x.push(class(2, 5), frame(1, 10), 1_000);
        x.push(class(2, 5), frame(2, 10), 2_000);
        assert!(x.pop(5_000).is_some());
        assert!(x.pop(6_000).is_some());
        let s = x.lane_stats()[2];
        assert_eq!(s.lat_ns_sum, 4_000 + 4_000);
    }

    #[test]
    fn backlog_peak_tracks_widest_point() {
        let mut x = q(SchedPolicy::Fifo, 1000);
        x.push(class(3, 1), frame(1, 30), 0);
        x.push(class(3, 1), frame(2, 30), 0);
        x.pop(0);
        x.push(class(3, 1), frame(3, 10), 0);
        assert_eq!(x.lane_stats()[3].backlog_peak_bytes, 60);
    }

    #[test]
    fn wrr_shares_by_weight_without_starving() {
        let mut x = q(SchedPolicy::Wrr, 100_000);
        // Saturate two lanes: interactive (weight 4) and datagram (weight 1).
        for _ in 0..50 {
            x.push(class(2, 5), frame(2, 500), 0);
            x.push(class(3, 1), frame(3, 500), 0);
        }
        let mut first_20 = Vec::new();
        for _ in 0..20 {
            first_20.push(x.pop(0).unwrap()[0]);
        }
        let inter = first_20.iter().filter(|&&t| t == 2).count();
        let bulk = first_20.iter().filter(|&&t| t == 3).count();
        assert!(bulk >= 2, "weight-1 lane not starved: {first_20:?}");
        assert!(inter > bulk, "weight-4 lane gets the larger share: {first_20:?}");
    }

    #[test]
    fn wrr_byte_conservation() {
        let mut x = q(SchedPolicy::Wrr, 2_000);
        for i in 0..10 {
            x.push(class(i % 4, 1), frame(i, 300), 0);
        }
        while x.pop(0).is_some() {}
        let s = x.lane_stats();
        for (l, ls) in s.iter().enumerate() {
            assert_eq!(ls.enq_bytes, ls.deq_bytes + ls.evict_bytes + x.lane_backlog_bytes(l));
        }
    }
}
