//! # rina-sim — deterministic discrete-event network substrate
//!
//! This crate is the "physical world" for the `netipc` reproduction of
//! *"Networking is IPC": A Guiding Principle to a Better Internet* (Day,
//! Matta, Mattar — BUCS-TR-2008-019). The paper proposes an architecture
//! but reports no testbed; we substitute a deterministic simulator so that
//! every experiment in EXPERIMENTS.md is exactly reproducible.
//!
//! The model is intentionally minimal and physical:
//!
//! * **Nodes** run user-supplied [`Agent`] state machines (hosts, routers,
//!   or whole protocol stacks).
//! * **Links** are point-to-point with bandwidth (serialization delay),
//!   propagation delay, a bounded FIFO transmit queue (tail drop), and a
//!   pluggable stochastic loss process — including the Gilbert–Elliott
//!   bursty model for the wireless segments of the paper's Figure 3.
//!   A link brought down or back up mid-run is an event at both ends
//!   ([`Agent::medium`]).
//! * **Time** is virtual, in nanoseconds ([`Time`], [`Dur`]).
//! * **Determinism**: one seeded RNG, total event ordering.
//!
//! ```
//! use rina_sim::{Agent, Ctx, Event, IfaceId, LinkCfg, Sim, Time};
//! use bytes::Bytes;
//!
//! struct Hello;
//! impl Agent for Hello {
//!     fn handle(&mut self, _now: Time, ev: Event, ctx: &mut Ctx<'_>) {
//!         // Only the first node greets; the other just listens.
//!         if matches!(ev, Event::Start) && ctx.node_id().0 == 0 {
//!             ctx.send(IfaceId(0), Bytes::from_static(b"hi")).unwrap();
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(0);
//! let a = sim.add_node(Hello);
//! let b = sim.add_node(Hello);
//! let (link, _, _) = sim.connect(a, b, LinkCfg::wired());
//! sim.run_until_idle(1_000);
//! assert_eq!(sim.link_stats(link).delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod link;
pub mod metrics;
pub mod time;
pub mod topology;

pub use engine::{Agent, Ctx, Event, EventCounts, IfaceId, NodeId, SendError, Sim};
pub use link::{LinkCfg, LinkId, LinkStats, LossModel};
pub use metrics::Histogram;
pub use time::{Dur, Time};
