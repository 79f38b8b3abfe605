//! Host-speed benchmark of the DUAL streaming engine.
//!
//! The binary (`src/main.rs`) drives `dual_stream::StreamEngine` and
//! `dual_topology::Topology` from outside, through their public calls,
//! on three named workloads. This library holds the parts that are
//! tested on their own: the ingest→assign latency book, the span
//! recorder, the layer-by-layer replay, and the statistics helpers.

#![forbid(unsafe_code)]

pub mod latency;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;
