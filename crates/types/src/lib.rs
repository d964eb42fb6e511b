//! Common vocabulary types for the `ccsim` cache-coherence simulator.
//!
//! This crate defines the identifiers (nodes, addresses, memory blocks),
//! machine configuration (cache geometry and the latency model of Table 1 /
//! Figure 2 of the paper), the coherence message taxonomy used for traffic
//! accounting, and a small deterministic RNG used by workload generators.
//!
//! Reproduction target: Nilsson & Dahlgren, *"Reducing Ownership Overhead for
//! Load-Store Sequences in Cache-Coherent Multiprocessors"*, IPPS 2000.

pub mod config;
pub mod ids;
pub mod json;
pub mod msg;
pub mod rng;
pub mod topology;

pub use config::{
    AdConfig, CacheConfig, Consistency, FaultConfig, LatencyConfig, LsConfig, MachineConfig,
    ProtocolConfig, ProtocolKind, RuleMutation, TransportMutation, MAX_NODES,
};
pub use ids::{Addr, BlockAddr, NodeId, WORD_BYTES};
pub use msg::{MsgClass, MsgKind};
pub use rng::SimRng;
pub use topology::Topology;
