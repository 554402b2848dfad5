//! # ultravc-stats
//!
//! Numerics substrate for the `ultravc` workspace: the statistical machinery
//! behind LoFreq-style low-frequency variant calling, implemented from
//! scratch (no GSL, no external math crates).
//!
//! The centerpiece is the [`poisson_binomial`] module: the distribution of a
//! sum of independent, non-identically distributed Bernoulli trials, which
//! models the number of sequencing errors in a pileup column when each read
//! carries its own error probability derived from its Phred quality score.
//! Kille et al. (2021) accelerate LoFreq by *approximating* the right tail of
//! this distribution with a Poisson tail ([`approx::poisson_tail`]) and only
//! falling back to the exact `O(d·K)` dynamic program when the approximation
//! cannot safely exclude significance; the caller here excludes it with a
//! certified lower bound instead.
//!
//! Module map:
//!
//! * [`specfun`] — log-gamma, regularized incomplete gamma and incomplete
//!   beta; the foundation for every closed-form CDF here.
//! * [`poisson`], [`binomial`] — classic distributions built on [`specfun`],
//!   including the Fisher exact test used for strand-bias filtering.
//! * [`poisson_binomial`] — exact kernels: the grouped-trial (binned)
//!   early-exit DP the caller runs, and the per-trial ones it is checked
//!   against — the tail-pruned `O(d·K)` DP with LoFreq's early exit and the
//!   full `O(d²)` pmf.
//! * [`approx`] — the Poisson (Hodges–Le Cam) tail approximation with Le
//!   Cam's total-variation distance, and the certified bounds behind the
//!   caller's two screens: the *lower* bound
//!   [`approx::poisson_tail_lower_bound`] (with the tilted one,
//!   [`poisson_binomial::Tilt::tail_lower_bound`]) on the reject side, and
//!   the Chernoff *upper* bound [`approx::ln_tail_upper_bound`] on the
//!   accept side.
//! * [`rng`] — deterministic SplitMix64/Xoshiro256++ PRNG with the samplers
//!   the simulator needs (uniform, normal, Poisson, categorical).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod binomial;
pub mod poisson;
pub mod poisson_binomial;
pub mod rng;
pub mod specfun;

pub use approx::{le_cam_bound, ln_tail_upper_bound, poisson_tail};
pub use poisson_binomial::{BinnedTailScratch, PoissonBinomial, TailBudget, TailOutcome, Tilt};
pub use rng::Rng;

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// An argument was outside the mathematical domain of the function.
    Domain {
        /// Name of the offending routine.
        what: &'static str,
        /// Human-readable description of the violation.
        msg: String,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the offending routine.
        what: &'static str,
        /// Iterations attempted before giving up.
        iters: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Domain { what, msg } => write!(f, "domain error in {what}: {msg}"),
            StatsError::NoConvergence { what, iters } => {
                write!(f, "{what} failed to converge after {iters} iterations")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
