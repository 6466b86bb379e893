//! Benchmark and reproduction harness for the Cycloid paper.
//!
//! The `repro` binary (`cargo run --release -p bench --bin repro -- all`)
//! regenerates every table and figure of the evaluation and `bench-diff`
//! gates its exports against committed baselines; this library crate
//! owns those exports: the `BENCH_*.json` writer ([`export`]), the JSON
//! it is written in ([`json`]), and the reading, comparison and summary
//! helpers ([`metrics_io`], [`diff`], [`render`]). Wall clock is not
//! measured here: that is the repo benchmark's job (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod export;
pub mod json;
pub mod metrics_io;
pub mod render;
