//! # ultravc-parfor
//!
//! An OpenMP-flavoured parallel runtime built on std scoped threads:
//! the workspace's replacement for the `#pragma omp parallel for
//! schedule(dynamic)` the paper adds to LoFreq (§II.B).
//!
//! The surface is deliberately OpenMP-shaped rather than rayon-shaped:
//!
//! * an explicit **thread count** (the paper benchmarks 64- and 128-thread
//!   machines and studies scaling, so implicit global pools are wrong here);
//! * an explicit **[`Schedule`]** — `Static` or `Dynamic { chunk }` —
//!   because schedule choice *is* the experiment in the paper's Figure 2
//!   (dynamic scheduling vs. the script's static partitioning, and the
//!   end-of-run load imbalance);
//! * a **[`TeamReport`]** from every region: per-thread busy time and item
//!   counts, so the tracer can reconstruct the barrier imbalance exactly the
//!   way HPC-Toolkit's timeline view showed it.
//!
//! Workers return their results tagged with item indices; [`parallel_for`]
//! reassembles them in input order, so parallel calling produces
//! byte-identical output to sequential calling — the determinism check the
//! paper applies to its own OpenMP port ("the number of variants called was
//! identical").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schedule;
pub mod team;

pub use schedule::Schedule;
pub use team::{
    parallel_for, parallel_for_supervised, parallel_reduce, ItemOutcome, TeamReport, WorkerCtx,
};
