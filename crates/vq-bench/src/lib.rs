//! # vq-bench
//!
//! The measurement harness: everything needed to regenerate the paper's
//! evaluation section.
//!
//! * [`calib`] — the calibration constants, each tied to the paper
//!   sentence it derives from, plus the experiment-scale facts (dataset
//!   sizes, query counts, worker grids).
//! * [`fig3`] — the index-build scaling model (Figure 3).
//! * [`paradox`] — the scaling-paradox sweep: workers × threads on the
//!   live cluster and the oversubscription-penalized virtual node
//!   (`repro paradox`, `results/paradox.json`).
//! * [`table1`] — the feature-comparison matrix (Table 1).
//! * [`report`] — plain-text table rendering and JSON result emission.
//! * [`repro`] *(binary)* — `cargo run -p vq-bench --bin repro -- all`
//!   prints every table and figure with the paper's numbers alongside.
//! * `benches/` — criterion micro-benchmarks of the *real* engine
//!   (distance kernels, HNSW build/search, cluster insert/query,
//!   ablations).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod calib;
pub mod fig3;
pub mod paradox;
pub mod report;
pub mod table1;

pub use calib::Calibration;
pub use fig3::IndexBuildModel;
