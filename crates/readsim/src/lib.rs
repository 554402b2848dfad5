//! # ultravc-readsim
//!
//! Sequencing-read simulator: the workspace's stand-in for the ultra-deep
//! SARS-CoV-2 datasets of Butler et al. (2021) that the paper evaluates on
//! (1 MB–25 GB BAM files at 1 000×–1 000 000× average depth).
//!
//! Those read sets cannot be redistributed here, and a faithful reproduction
//! of the caller does not need them: everything the compute kernels and the
//! approximation shortcut respond to is (a) the depth profile, (b) the
//! per-base quality distribution, and (c) the density and frequency of true
//! variants versus sequencing errors. The simulator controls all three:
//!
//! * [`quality::QualityModel`] — position-dependent Illumina-like quality
//!   curves (plateau + 3′ decay, binned NovaSeq variant, noisy long-read
//!   variant);
//! * [`error::ErrorModel`] — quality-*consistent* base errors: a base with
//!   Phred score `Q` is wrong with probability exactly `10^(−Q/10)`, which
//!   is the literal assumption LoFreq's null model makes;
//! * [`dataset::DatasetSpec`] — whole-dataset recipes, including
//!   [`dataset::paper_tiers`], the five depth tiers of the paper's Table I,
//!   and [`dataset::shared_truth_sets`] for the cross-dataset variant
//!   sharing structure of its Figure 3.
//!
//! Reads stream straight into a [`ultravc_bamlite::BalWriter`], so the
//! 100 000×+ tiers never hold an uncompressed read set in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod quality;
pub mod simulator;

pub use dataset::{paper_tiers, shared_truth_sets, Dataset, DatasetSpec};
pub use quality::{QualityModel, QualityPreset};
pub use simulator::{Simulator, SimulatorConfig};
