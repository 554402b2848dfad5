//! # ultravc-pileup
//!
//! The pileup engine: turns a position-sorted alignment store into a stream
//! of per-column base/quality stacks — the unit of work of the entire
//! LoFreq algorithm ("operates by iterating through each pileup column
//! checking for SNVs", §II.B of the paper).
//!
//! Design constraints inherited from the paper:
//!
//! * **Depth cap.** LoFreq limits columns to 1 000 000 reads by default
//!   (Table I's footnote: the 25 GB file's true depth was ~5 M but LoFreq
//!   capped it); [`PileupParams::max_depth`] reproduces that.
//! * **Streaming.** Ultra-deep columns are huge (a 1 000 000× column is
//!   megabytes of qualities), so the engine holds only the ring of columns
//!   still receiving bases from overlapping reads — never the whole file.
//! * **Region queries.** Each parallel worker pileups its own partition via
//!   an independent [`ultravc_bamlite::BalReader`], matching the paper's
//!   one-reader-per-thread OpenMP design; [`partition`] provides the
//!   contiguous split (the original partition script's) and chunked
//!   split (dynamic scheduling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod engine;
pub mod partition;

pub use column::{PileupColumn, PileupEntry, QualityBins};
pub use engine::{pileup_region, pileup_region_windowed, PileupIter, PileupParams};
pub use partition::{chunk_ranges, split_ranges};
