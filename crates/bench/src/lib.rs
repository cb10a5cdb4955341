//! # hft-bench
//!
//! Benchmarks and load generators for the workspace:
//!
//! * [`harness`] — the one load harness: flag parser, corpus and
//!   history setup, self-hosting, the pipelined load loop, the verifier,
//!   the tally and the JSON record writer. Its module doc explains how
//!   to add a scenario.
//! * `src/bin/{loadgen,fleetload,ingestload,raceload,httpload}.rs` —
//!   the load generators, each a scenario on the harness: its request
//!   mix, its server topology (one corpus, a shard-router fleet, a
//!   live-ingesting store, the HTTP explorer) and its own report fields.
//!   Every answer is byte-verified; a record is written only under
//!   `--out`.
//! * `benches/paper.rs` — one Criterion benchmark per table and figure
//!   of the paper (E1–E10 in `DESIGN.md`), timing the full analysis
//!   pipeline behind each artifact on the pre-generated corpus;
//! * `benches/substrates.rs` — micro-benchmarks and ablations for the
//!   substrate design choices (Vincenty vs haversine, potential-pruned
//!   path enumeration vs naive DFS, codec throughput, Dijkstra);
//! * `src/bin/repro.rs` — the reproduction binary: regenerates every
//!   table/figure, prints paper-vs-measured deltas, and writes the
//!   artifacts consumed by `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod harness;

/// The ecosystem seed used for all published numbers.
pub const REPRO_SEED: u64 = 2020;
