//! The application-facing IPC interface.
//!
//! This is the paper's whole point of contact between applications and the
//! network (§3.1): an application *names* the destination application and
//! states desired properties; it gets back an opaque, typed [`FlowH`].
//! "Applications never see addresses" — nothing in [`IpcApi`] exposes one,
//! and nothing exposes a raw integer either: the flow handle is a distinct
//! type, like the builder's `NodeH`/`LinkH`/`AppH`, so a flow handle cannot
//! be confused with a timer key, an address, or a counter, and a stale or
//! foreign handle is a typed [`IpcError`], never silent misdelivery.
//!
//! Applications are event-driven state machines implementing
//! [`AppProcess`]; the [`crate::node::Node`] invokes their callbacks and
//! hands them an [`IpcApi`] for issuing requests.

use crate::naming::AppName;
use crate::qos::QosSpec;
use bytes::Bytes;
use rina_sim::{Dur, Time};
use std::any::Any;

/// An opaque, node-local handle to one flow.
///
/// Returned by [`IpcApi::allocate_flow`] the moment the request is made
/// (completion arrives later via [`AppProcess::on_flow_allocated`] or
/// [`AppProcess::on_flow_failed`], carrying the same handle), and by every
/// flow-bearing callback. There is no handle/port duality: the value an
/// application allocates with is the value it writes on, receives on, and
/// deallocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowH(pub(crate) u64);

impl std::fmt::Display for FlowH {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow:{}", self.0)
    }
}

/// Where a newly active flow came from, as seen by the application.
///
/// An inbound flow is a distinct variant instead of being
/// indistinguishable from "outbound request number zero".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOrigin {
    /// This application requested the flow; the payload is the handle
    /// [`IpcApi::allocate_flow`] returned.
    Requested(FlowH),
    /// A remote peer allocated the flow *to* this application.
    Inbound,
}

impl FlowOrigin {
    /// The allocation handle, if this application requested the flow.
    pub fn handle(&self) -> Option<FlowH> {
        match *self {
            FlowOrigin::Requested(h) => Some(h),
            FlowOrigin::Inbound => None,
        }
    }

    /// Whether the peer initiated the flow.
    pub fn is_inbound(&self) -> bool {
        matches!(self, FlowOrigin::Inbound)
    }
}

/// Callbacks of an application process. All are optional except [`AppProcess::on_sdu`]
/// implementors typically react to flows and data.
///
/// Applications must be [`Send`] (like every [`rina_sim::Agent`]): a
/// node owns its apps outright, so whole simulations can be sharded
/// across OS threads by the sweep harness. [`Any`] lets the node hand one
/// back as its concrete type ([`crate::node::Node::app`]).
pub trait AppProcess: Any + Send {
    /// The node started (simulation time zero for statically built nets).
    fn on_start(&mut self, api: &mut IpcApi<'_, '_, '_>) {
        let _ = api;
    }

    /// A remote application asks for a flow to this one. Return `false` to
    /// refuse (the requester sees an allocation failure, §5.3's access
    /// control step).
    fn on_flow_requested(&mut self, from: &AppName) -> bool {
        let _ = from;
        true
    }

    /// A flow is ready. `origin` says whether this application requested
    /// it (and with which [`IpcApi::allocate_flow`] handle) or the peer
    /// allocated it inbound; `flow` is the handle every later operation
    /// and callback uses (for requested flows it equals the origin's).
    fn on_flow_allocated(
        &mut self,
        origin: FlowOrigin,
        flow: FlowH,
        peer: &AppName,
        api: &mut IpcApi<'_, '_, '_>,
    ) {
        let _ = (origin, flow, peer, api);
    }

    /// A flow allocation failed or an active flow died.
    fn on_flow_failed(&mut self, origin: FlowOrigin, reason: &str, api: &mut IpcApi<'_, '_, '_>) {
        let _ = (origin, reason, api);
    }

    /// An SDU arrived on a flow.
    fn on_sdu(&mut self, flow: FlowH, sdu: Bytes, api: &mut IpcApi<'_, '_, '_>) {
        let _ = (flow, sdu, api);
    }

    /// The peer deallocated a flow.
    fn on_flow_closed(&mut self, flow: FlowH, api: &mut IpcApi<'_, '_, '_>) {
        let _ = (flow, api);
    }

    /// A timer armed with [`IpcApi::timer_in`] fired.
    fn on_timer(&mut self, key: u64, api: &mut IpcApi<'_, '_, '_>) {
        let _ = (key, api);
    }
}

/// Why an [`IpcApi`] request was rejected synchronously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpcError {
    /// The flow does not exist or is not owned by this application.
    BadFlow,
    /// The flow is not (or no longer) active.
    NotActive,
    /// The SDU exceeds the DIF's maximum SDU size or the flow pushed back.
    Rejected,
}

impl std::fmt::Display for IpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IpcError::BadFlow => "bad flow handle",
            IpcError::NotActive => "flow not active",
            IpcError::Rejected => "sdu rejected",
        };
        f.write_str(s)
    }
}
impl std::error::Error for IpcError {}

/// The distributed-IPC-facility interface handed to application callbacks.
///
/// Lifetimes: borrows the node core and the simulator context for the
/// duration of one callback.
pub struct IpcApi<'n, 'c, 'w> {
    pub(crate) node: &'n mut crate::node::Node,
    pub(crate) ctx: &'c mut rina_sim::Ctx<'w>,
    pub(crate) app: usize,
}

impl IpcApi<'_, '_, '_> {
    /// Request a flow to the application named `dst` with the desired
    /// properties. Returns the flow's handle; completion arrives later via
    /// [`AppProcess::on_flow_allocated`] or [`AppProcess::on_flow_failed`].
    pub fn allocate_flow(&mut self, dst: &AppName, spec: QosSpec) -> FlowH {
        self.node.api_allocate(self.app, dst.clone(), spec, self.ctx)
    }

    /// Send an SDU on an allocated flow.
    pub fn write(&mut self, flow: FlowH, sdu: Bytes) -> Result<(), IpcError> {
        self.node.api_write(self.app, flow, sdu, self.ctx)
    }

    /// Release a flow.
    pub fn deallocate(&mut self, flow: FlowH) {
        self.node.api_deallocate(self.app, flow, self.ctx);
    }

    /// Arm an application timer that fires [`AppProcess::on_timer`] with
    /// `key` after `d`.
    pub fn timer_in(&mut self, d: Dur, key: u64) {
        self.node.api_timer(self.app, d, key, self.ctx);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }
}
