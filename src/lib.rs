//! # ultravc — ultra-deep low-frequency variant calling, accelerated
//!
//! Facade crate re-exporting the whole `ultravc` workspace: a from-scratch
//! Rust reproduction of *"Accelerating SARS-CoV-2 low frequency variant
//! calling on ultra deep sequencing datasets"* (Kille et al., 2021).
//!
//! Start with [`core`] for the variant caller (the paper's contribution) and
//! [`readsim`] to generate the ultra-deep synthetic datasets the evaluation
//! runs on. See the repository `README.md` for a guided tour.
//!
//! ```
//! use ultravc::prelude::*;
//!
//! // Simulate a tiny ultra-deep dataset and call variants with the
//! // approximation-accelerated caller.
//! let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::tiny(), 7);
//! let dataset = DatasetSpec::new("demo", 400, 42).simulate(&reference);
//! let config = CallerConfig::default();
//! let calls = call_variants(&reference, &dataset.alignments, &config).unwrap();
//! // Spiked truth variants at ≥ 1% frequency are recovered.
//! assert!(!calls.records.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use ultravc_bamlite as bamlite;
pub use ultravc_core as core;
pub use ultravc_genome as genome;
pub use ultravc_parfor as parfor;
pub use ultravc_pileup as pileup;
pub use ultravc_readsim as readsim;
pub use ultravc_serve as serve;
pub use ultravc_simd as simd;
pub use ultravc_stats as stats;
pub use ultravc_trace as trace;
pub use ultravc_vcf as vcf;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ultravc_core::analysis::{grade, UpsetTable};
    pub use ultravc_core::caller::{call_variants, CallSet, CallStats};
    pub use ultravc_core::config::{Bonferroni, CallerConfig, PvalueEngine, ShortcutParams};
    pub use ultravc_core::driver::{CallDriver, CallOutcome, ParallelMode, CHUNK_COLUMNS};
    pub use ultravc_core::session::CallSession;
    pub use ultravc_core::supervisor::{
        CancelToken, Interrupt, RegionError, RegionFailure, RunBudget,
    };
    pub use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
    pub use ultravc_parfor::Schedule;
    pub use ultravc_readsim::dataset::{paper_tiers, shared_truth_sets, Dataset, DatasetSpec};
    pub use ultravc_serve::{SampleSpec, ServeConfig, Server};
    pub use ultravc_stats::{PoissonBinomial, Rng};
    pub use ultravc_vcf::{write_vcf, FilterParams, VcfRecord, VcfWriter};
}
