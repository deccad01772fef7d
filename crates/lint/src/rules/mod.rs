//! The rule families. Each module exposes `check_*` functions that take
//! pre-lexed (and test-stripped) token streams and return
//! [`Finding`](crate::Finding)s with stable keys.

pub mod config;
pub mod determinism;
pub mod wire;
