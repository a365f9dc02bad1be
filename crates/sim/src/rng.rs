//! Deterministic randomness — owned by [`radio_transport::rng`].
//!
//! Per-node RNG streams live below the simulator, so a `colord` session
//! derives its private stream exactly like a simulated node does. This
//! module re-exports them under their historical `radio_sim::rng`
//! paths.

pub use radio_transport::rng::{
    geometric_failures, has_duplicate_ids, node_rng, random_ids, splitmix64,
};
