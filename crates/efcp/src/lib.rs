//! # rina-efcp — the Error and Flow Control Protocol
//!
//! EFCP is the per-flow data-transfer mechanism of every DIF in the
//! `netipc` reproduction of *"Networking is IPC"* (Day, Matta, Mattar
//! 2008). One implementation, many behaviours: a [`ConnParams`] policy set
//! turns the same state machine into a reliable ordered byte-stream, an
//! unreliable datagram flow, or a short-feedback-loop segment protocol for
//! the lossy inner DIFs of the paper's Figure 3. `ConnParams` carries only
//! what DIFs set differently; what every connection shares is a constant
//! ([`MAX_PDU_PAYLOAD`], [`RTX_MAX_TIMEOUT`], [`MAX_RTX`], [`ACK_DELAY`]).
//!
//! The crate is sans-IO (no sockets, no clock): a [`Connection`] consumes
//! SDUs, PDUs and timeout notifications, and is polled for outgoing PDUs
//! and delivered SDUs. The `rina` crate instantiates one `Connection` per
//! allocated flow and wires it to the relaying/multiplexing task.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod cong;
mod conn;
mod params;

pub use conn::{
    ConnId, ConnStats, Connection, SendSduError, ACK_DELAY, MAX_PDU_PAYLOAD, MAX_RTX,
    RTX_MAX_TIMEOUT,
};
pub use params::{CongestionCtrl, ConnParams};
