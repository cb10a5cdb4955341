//! The repository benchmark: three workloads (`lookup`, `weather`,
//! `fleet-ingest`) against the real serving stack on a self-hosted
//! server, every answer byte-verified, reporting the end-to-end metrics
//! of `BENCHMARK.json` (or, traced, a per-layer ledger timed from
//! outside the program).
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 28 --trace 0
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod phase;
pub mod probe;
pub mod run;
pub mod system;
pub mod workload;
