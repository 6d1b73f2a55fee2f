//! # xgft-bench — the experiment binary and Criterion benches
//!
//! The experiment surface is the unified `xgft` binary (the
//! `xgft-scenario` crate's CLI: `xgft run <spec>`, `xgft list`,
//! `xgft fig2_wrf --quick`, …). The historical per-figure binary names
//! live on as registry aliases (`xgft fig1_topologies`,
//! `xgft sec7_equivalence`, …).
//!
//! This library re-exports the shared flag parser for backwards
//! compatibility; new code should depend on `xgft-scenario` directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The shared experiment flag parser (now hosted by `xgft-scenario`).
pub mod cli {
    pub use xgft_scenario::args::*;
}

pub use xgft_scenario::args::{scale_bytes, workload_pattern, ExperimentArgs};
