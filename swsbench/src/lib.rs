//! `swsbench`: the end-to-end benchmark of `swsd serve`.
//!
//! Each run spawns the real daemon, drives one seeded workload over JSONL
//! connections, checks every output, and prints its metrics. See
//! `BENCHMARK.md` next to this crate for the workloads, metrics, bounds and
//! the layer map.
#![forbid(unsafe_code)]

pub mod client;
pub mod compare;
pub mod gate;
pub mod host;
pub mod json;
pub mod ladder;
pub mod run;
pub mod spec;
pub mod stats;
pub mod workload;
