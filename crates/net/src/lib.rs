//! `ntt-net` — the wire-protocol serving tier.
//!
//! The paper's deployment story is a shared pretrained model many
//! operators query cheaply; in-process that is `ntt-serve`'s
//! [`Batcher`](ntt_serve::Batcher), and this crate is the wire in
//! front of it:
//!
//! * [`frame`] — the `NTTWIRE1` length-prefixed binary protocol as
//!   pure encode/decode over byte slices (proptestable, no I/O), with
//!   a stable [`ErrorCode`] table mapping every
//!   [`ServeError`](ntt_serve::ServeError) variant to a protocol code.
//! * [`NetServer`] — TCP + unix-socket serving with bounded
//!   thread-per-connection dispatch, multi-model routing through the
//!   [`ModelRegistry`](ntt_serve::ModelRegistry), and lazily created
//!   per-(model, head) batcher pools.
//! * [`NetClient`] — a blocking lockstep client returning layered
//!   typed errors.
//!
//! Chaos sites `net.conn.drop` (seeded mid-request connection kills,
//! keyed by request id) and `net.read.stall` (slow-peer reads) thread
//! the fault plane through the transport; `net.*` counters, gauges,
//! and the `net.request_ns` span feed `ntt-obs`.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{NetClient, NetError};
pub use frame::{ErrorCode, Frame, FrameError, Request, Response, WireError};
pub use server::{NetConfig, NetServer};
