//! The protocol interface — owned by [`radio_transport::protocol`].
//!
//! [`RadioProtocol`], [`Behavior`] and the error vocabulary live below
//! the simulator, so the `colord` service shares them without depending
//! on the engines. This module re-exports everything under its
//! historical `radio_sim::protocol` paths; see the transport crate for
//! the intra-slot ordering contract.

pub use radio_transport::protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
