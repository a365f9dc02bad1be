//! `colord` — a long-running coloring service over real sockets.
//!
//! The simulator (`radio-sim`) answers "what does the MW-2005 protocol
//! do on a fixed graph with a fixed wake schedule"; this crate answers
//! "what does it take to *operate* that protocol as a network service":
//! nodes join and leave while the algorithm runs, the membership is a
//! mutating unit disk graph ([`radio_graph::DynamicUdg`]), and clients
//! observe the coloring through a request/response wire protocol
//! instead of a returned outcome struct.
//!
//! The layering is deliberate:
//!
//! * [`service`] — the deterministic core, a facade over the spatial
//!   sharding: one [`ColoringNode`] FSM per joined node (the *same*
//!   FSM type the simulator runs — no forked protocol logic), stepped
//!   on the simulator's own slot kernel ([`radio_sim::SlotKernel`])
//!   with its per-node RNG streams, plus the incrementally patched
//!   TDMA view. No sockets, no clocks; fully unit-testable.
//! * `router` (internal) — session→shard placement (Lemma 1 strips over the
//!   join x-coordinate) and each node's index in its shard's kernel,
//!   the mutating unit disk graph with its cached adjacency, and the
//!   online κ₂ estimator feeding `AlgorithmParams`.
//! * `shard` (internal) — the per-strip slot engine: each shard is a
//!   slot kernel over its strip's FSMs, stepped in barrier-separated
//!   phases, with boundary frames exchanged through per-pair mailboxes
//!   (the shape of a sharded sim engine shard). Single- and k-shard
//!   runs of the same session schedule settle to bit-identical
//!   colorings.
//! * [`wire`] — the framed request/response vocabulary
//!   ([`radio_transport::WireMessage`] codecs) plus a small blocking
//!   client.
//! * [`server`] — glue: a TCP accept loop, one handler thread per
//!   connection (locking only the router plus its target shard), and a
//!   ticker thread that advances the slot clock while any node is
//!   still undecided.
//!
//! [`ColoringNode`]: urn_coloring::ColoringNode

mod router;
pub mod server;
pub mod service;
mod shard;
pub mod wire;

pub use server::{run_server, ServerConfig};
pub use service::{Service, ServiceConfig, ServiceError, ServiceStats, Snapshot};
pub use wire::{Client, Request, Response};
