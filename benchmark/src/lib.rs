//! The repo benchmark: four workloads, end-to-end and per-layer metrics,
//! all measured from outside the stack — by reading the public stats the
//! layers already export and by timing calls into their public functions.
//! See `README.md` beside this package; `src/main.rs` is the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod counters;
pub mod host;
pub mod json;
pub mod kernels;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
