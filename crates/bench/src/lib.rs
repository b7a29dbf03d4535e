//! Benchmark harness for the TBNet reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation:
//!
//! | target | paper artefact |
//! |---|---|
//! | `cargo run -p tbnet-bench --bin table1 --release` | Table 1 (accuracy & direct-use attack) |
//! | `cargo run -p tbnet-bench --bin table2 --release` | Table 2 (`M_T`-only ablation) |
//! | `cargo run -p tbnet-bench --bin table3 --release` | Table 3 (inference latency) |
//! | `cargo run -p tbnet-bench --bin fig2 --release`   | Fig. 2 (fine-tuning attack) |
//! | `cargo run -p tbnet-bench --bin fig3 --release`   | Fig. 3 (TEE memory usage) |
//! | `cargo run -p tbnet-bench --bin fig4 --release`   | Fig. 4 (BN weight distribution) |
//! | `cargo run -p tbnet-bench --bin all --release`    | everything, sharing trained artifacts |
//!
//! The `backend`, `train`, `infer`, `serve` and `zoo` binaries time the
//! kernels, training phases, inference paths, serving runtime and model zoo,
//! each writing a `BENCH_*.json` report that CI gates.
//!
//! Set `TBNET_SCALE=quick` for a fast smoke run or `TBNET_SCALE=full`
//! (default) for the full experiment scale ([`experiments::Scale::full`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod reports;
pub mod table;
