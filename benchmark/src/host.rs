//! Host-side clocks and gauges of this one single-threaded process.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// A reading of the process's host clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
    user_ticks: u64,
    sys_ticks: u64,
    minor_faults: u64,
}

/// Host cost between two [`Stamp`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Elapsed host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// User CPU seconds (scheduler ticks: 10 ms grain).
    pub user_s: f64,
    /// System CPU seconds (scheduler ticks: 10 ms grain).
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Fields 10 (minflt), 14 (utime) and 15 (stime) of `/proc/self/stat`.
fn proc_stat() -> (u64, u64, u64) {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let rest = s.rsplit_once(") ").map_or("", |(_, r)| r);
    let f: Vec<u64> = rest.split(' ').map(|x| x.parse().unwrap_or(0)).collect();
    let at = |i: usize| f.get(i - 3).copied().unwrap_or(0);
    (at(10), at(14), at(15))
}

impl Stamp {
    /// Read the clocks now.
    pub fn now() -> Stamp {
        let (minor_faults, user_ticks, sys_ticks) = proc_stat();
        // On-CPU nanoseconds of this thread; the tick counters are the
        // fallback where schedstats are compiled out.
        let cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split(' ').next().and_then(|x| x.parse::<u64>().ok()))
            .filter(|&ns| ns > 0)
            .unwrap_or((user_ticks + sys_ticks) * TICK_NS);
        Stamp { wall: Instant::now(), cpu_ns, user_ticks, sys_ticks, minor_faults }
    }

    /// Cost from `self` to now.
    pub fn elapsed(&self) -> Cost {
        let n = Stamp::now();
        Cost {
            wall_s: n.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: (n.cpu_ns - self.cpu_ns) as f64 / 1e9,
            user_s: ((n.user_ticks - self.user_ticks) * TICK_NS) as f64 / 1e9,
            sys_s: ((n.sys_ticks - self.sys_ticks) * TICK_NS) as f64 / 1e9,
            minor_faults: n.minor_faults - self.minor_faults,
        }
    }
}

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux this runs on.
const TICK_NS: u64 = 10_000_000;

/// Peak resident set of the process so far, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A typical slice of [`SpeedProbe`] on the box this was written on, ns:
/// the speed at which host times are reported.
pub const PROBE_NOMINAL_NS: f64 = 100_000.0;

/// A speed probe of the box, independent of the program under test: a
/// small event loop of its own (binary heap, hash map, buffer copies —
/// the instruction mix of a discrete-event simulator) doing a fixed
/// amount of work per slice. It never allocates after construction, so
/// the state of the allocator the program shares with it cannot move it.
///
/// This shared box runs the same code 20–30 % faster or slower from one
/// half-minute to the next, and no within-run statistic removes a drift
/// that slow. Slices interleaved with a rep see the same drift, so
/// `median slice ÷ nominal` is the rep's speed factor and host times
/// divided by it are steady where the raw ones are not.
pub struct SpeedProbe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    slot_of: HashMap<u32, usize>,
    slots: Vec<[u8; 96]>,
    x: u64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        let ids = 0..Self::EVENTS as u32;
        SpeedProbe {
            heap: ids.clone().map(|i| Reverse((u64::from(i) * 37 % 1_000, i))).collect(),
            slot_of: ids.map(|i| (i, i as usize)).collect(),
            slots: vec![[0u8; 96]; Self::EVENTS],
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl SpeedProbe {
    /// Events in flight, and operations per pass.
    const EVENTS: usize = 1_000;

    fn pass(&mut self) {
        for _ in 0..Self::EVENTS {
            let Some(Reverse((time, id))) = self.heap.pop() else { return };
            let Some(slot) = self.slot_of.remove(&id) else { return };
            self.x = (self.x ^ time).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
            // "Forward the frame": copy it to another slot, patching a byte.
            let from = self.slots[slot];
            let to = &mut self.slots[(slot * 7 + 1) % Self::EVENTS];
            to[..64].copy_from_slice(&from[32..]);
            to[(self.x % 96) as usize] ^= self.x as u8;
            // Rename about half the events, so the map keeps moving.
            let renamed = id ^ (self.x as u32 & 0x3ff);
            let id = if self.slot_of.contains_key(&renamed) { id } else { renamed };
            self.slot_of.insert(id, slot);
            self.heap.push(Reverse((time + 1 + self.x % 997, id)));
        }
    }

    /// One slice: a pass to pull the probe's own data back into cache
    /// (whatever the program under test evicted), then a timed pass.
    /// Returns the timed pass's nanoseconds.
    pub fn slice(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        std::hint::black_box(self.x);
        t.elapsed().as_nanos() as f64
    }
}
