//! # rina — "Networking is IPC", the architecture itself
//!
//! This crate implements the recursive distributed-IPC architecture of
//! Day, Matta & Mattar, *"Networking is IPC": A Guiding Principle to a
//! Better Internet* (BUCS-TR-2008-019, 2008): a single kind of layer — the
//! **Distributed IPC Facility (DIF)** — repeating over different scopes,
//! each instance running the same mechanisms under scope-appropriate
//! policies.
//!
//! ## The pieces
//!
//! * [`naming`] — location-independent application names; DIF-internal
//!   addresses that applications never see.
//! * [`app`] — the application-facing IPC interface: [`AppProcess`]
//!   callbacks and the typed flow handle [`app::FlowH`].
//! * [`qos`] — what applications ask for ([`QosSpec`]) and what DIFs offer
//!   ([`QosCube`]).
//! * [`dif`] — the per-DIF policy bundle: membership auth, QoS cubes,
//!   scheduling, hello cadence.
//! * [`ipcp`] — the IPC process: data transfer (relay + multiplex),
//!   transfer control (EFCP), and management (enrollment §5.2, flow
//!   allocation §5.3, RIEP over the RIB).
//! * [`routing`] (the `rina-routing` crate) — link-state routing per DIF:
//!   the incremental [`routing::RouteEngine`] (LSA graph, dynamic
//!   SPF, delta-patched tables) and the **two-step forwarding** of
//!   Figure 4 (next-hop address, then live (N-1) path).
//! * [`node`] — the IPC manager of one machine; hosts applications and the
//!   DIF stack.
//! * [`net`] — declarative construction of whole internetworks through
//!   **typed handles** ([`net::NodeH`], [`net::LinkH`], [`net::DifH`],
//!   [`net::AppH`]) — cross-wiring them is a compile error.
//! * [`scenario`] — topology generators ([`scenario::Topology`]) and
//!   workload placers ([`scenario::Workload`]) that stamp out whole
//!   internetworks and their traffic in a few lines.
//! * [`apps`] — ready-made application processes for experiments.
//! * [`invariants`] — one definition of a healthy DIF (unique addresses,
//!   nested blocks, no departed state, every member reaching every other
//!   on the tables) that tests and experiments check a member set against.
//!
//! ## Quickstart
//!
//! ```
//! use rina::prelude::*;
//!
//! // Two hosts on one wire, one DIF spanning them (Figure 1).
//! let mut b = NetBuilder::new(7);
//! let h1 = b.node("h1");
//! let h2 = b.node("h2");
//! let wire = b.link(h1, h2, LinkCfg::wired());
//! let net_dif = b.dif(DifConfig::new("net"));
//! b.join(net_dif, h1);
//! b.join(net_dif, h2);
//! b.adjacency_over_link(net_dif, h1, h2, wire);
//!
//! // An echo server, found purely by name.
//! b.app(h2, AppName::new("echo"), net_dif, EchoApp::default());
//! let ping = b.app(
//!     h1,
//!     AppName::new("ping"),
//!     net_dif,
//!     PingApp::new(AppName::new("echo"), QosSpec::reliable(), 3, 64),
//! );
//!
//! let mut net = b.build();
//! net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(200));
//! net.run_for(Dur::from_secs(2));
//! // `ping` is an AppH<PingApp>: the downcast is statically typed.
//! assert!(net.app(ping).done());
//! ```
//!
//! The same scenario through the generators:
//!
//! ```
//! use rina::prelude::*;
//! use rina::scenario::{Topology, Workload};
//!
//! let mut b = NetBuilder::new(7);
//! let fab = Topology::line(2).materialize(&mut b);
//! let cs = Workload::client_server(&mut b, fab.dif, &fab.all(), fab.node(1), 3, 64);
//! let mut net = b.build();
//! net.run_until_assembled(Dur::from_secs(10), Dur::from_millis(200));
//! net.run_for(Dur::from_secs(2));
//! assert!(net.app(cs.clients[0]).done());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod dif;
pub mod fxhash;
pub mod invariants;
pub mod ipcp;
pub mod msg;
pub mod naming;
pub mod net;
pub mod node;
pub mod qos;
pub mod rmt;
pub use rina_routing as routing;
pub mod scenario;

pub use app::{AppProcess, FlowH, FlowOrigin, IpcApi, IpcError};
pub use dif::{AuthPolicy, DifConfig, SchedPolicy};
pub use naming::{Addr, AppName, DifName};
pub use net::{AppH, DifH, EnrollSchedule, IpcpH, LinkH, Net, NetBuilder, NodeH, Via};
pub use node::Node;
pub use qos::{CubeSet, QosCube, QosSpec};
pub use rmt::{LaneStats, RmtQueue, TxClass, LANES};

/// Convenient glob-import for examples and experiments.
pub mod prelude {
    pub use crate::app::{AppProcess, FlowH, FlowOrigin, IpcApi, IpcError};
    pub use crate::apps::{ChurnDriver, ChurnSinkApp, EchoApp, PingApp, SinkApp, SourceApp};
    pub use crate::dif::{AuthPolicy, DifConfig, SchedPolicy};
    pub use crate::naming::{AppName, DifName};
    pub use crate::net::{AppH, DifH, EnrollSchedule, IpcpH, LinkH, Net, NetBuilder, NodeH, Via};
    pub use crate::node::Node;
    pub use crate::qos::{CubeSet, QosCube, QosSpec};
    pub use crate::rmt::{LaneStats, TxClass};
    pub use crate::scenario::{
        Churn, ChurnAction, ChurnPlan, ChurnRunner, Fabric, FlowChurn, FlowChurnCfg, Layered,
        LayeredFabric, Topology, Workload,
    };
    pub use bytes::Bytes;
    pub use rina_sim::{Dur, LinkCfg, LossModel, Time};
}
