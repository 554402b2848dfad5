//! The Poisson-binomial distribution: the sum of independent Bernoulli
//! trials with *heterogeneous* success probabilities.
//!
//! This is the exact null model of LoFreq: in a pileup column of depth `d`,
//! read `i` miscalls its base with probability `p_i` (from its Phred score),
//! and the total error count `X = Σ Bern(p_i)` is Poisson-binomial. A
//! variant is called when the observed non-reference count `K` has
//! `Pr[X ≥ K]` below the significance level.
//!
//! Three exact per-trial kernels are provided:
//!
//! * [`PoissonBinomial::pmf`] — the classic full `O(d²)` dynamic program
//!   (the recurrence displayed in §II.A of the paper).
//! * [`PoissonBinomial::tail_pruned`] — `O(d·K)` DP that only tracks states
//!   `< K` plus an absorbing tail; this is what computing `Pr[X ≥ K]`
//!   actually requires, and the kernel the workspace's naive-oracle test
//!   calls with.
//! * [`PoissonBinomial::tail_early_exit`] — the pruned DP with LoFreq's
//!   early-termination: the running tail is monotonically non-decreasing in
//!   the number of processed reads, so once it crosses the significance
//!   threshold the column can be abandoned ("works especially well on
//!   shallow columns", §IV).
//!
//! The caller itself runs none of them: it runs the grouped-trial kernels
//! below, which the per-trial ones referee.
//!
//! # Grouped-trial (binned) kernels
//!
//! Sequencing qualities are a `u8`, so an ultra-deep column's `d` trial
//! probabilities take at most ~100 *distinct* values. The grouped kernels —
//! [`PoissonBinomial::tail_pruned_binned`],
//! [`PoissonBinomial::tail_early_exit_binned`] and the binned moments —
//! consume `(probability, multiplicity)` pairs and fold each bin of `m`
//! identical trials in **one truncated `Binomial(m, p)` convolution**
//! against the pruned state vector:
//!
//! `f'[t] = Σ_{i=0..min(t,m)} b_i · f[t−i]`,  `b_i = C(m,i) pⁱ q^{m−i}`,
//!
//! with the mass escaping past `K` routed into the absorbing tail through
//! binomial suffix sums. One bin costs `O(K·min(m, K))` instead of `m`
//! scalar DP steps, so a whole column costs `O(K·Σ min(mᵦ, K))` instead of
//! `O(d·K)`. That is a multiple-order-of-magnitude reduction at LoFreq's
//! 1 000 000× depth cap, where ~40 distinct qualities hold thousands of
//! reads each and `K` is in the tens — and no reduction at all when every
//! bin is thinner than `K` (`Σ min(mᵦ, K) = d`), as on a 3 000× long-read
//! column tested at `K` in the hundreds. The working set shrinks from the
//! `d` probabilities to `O(#bins + K)` floats. The binned early exit
//! preserves the per-trial kernel's contract: its running tail after each
//! folded bin is a certified lower bound on the final `Pr[X ≥ K]`, so a
//! bail is still a proof that the column cannot be significant.
//!
//! # The tilt window
//!
//! Most of those `K·Σ min(mᵦ, K)` multiply-adds cannot move the tail. The
//! kernel solves the exponential tilt `θ` that centres the error count at
//! `K` (`Σ mᵦ·p′ᵦ = K`, `p′ = p·e^θ / (q + p·e^θ)`), and convolves only the
//! states and binomial terms that the tilted measure puts mass on: before
//! each bin's fold it trims both ends of the binomial terms, after it both
//! ends of the state vector, each trim removing at most `1e−20` of tilted
//! mass. Every path with `X ≥ K` has probability at most `C` times its
//! tilted probability, where `C = Π(qᵦ + pᵦe^θ)^{mᵦ}·e^{−θK}` is the per-bin
//! Chernoff bound, so with `D` the tilted mass removed and `L` the windowed
//! tail, `L ≤ Pr[X ≥ K] ≤ L + C·D`. `L` is accepted when `C·D ≤ 1e−15·L`;
//! otherwise the column re-runs over the full range. A fold then costs
//! `O(w_f·w_b)` for a state window `w_f` and a term window `w_b` of a few
//! tilted standard deviations each — ~5× fewer multiply-adds on 3 000×
//! long-read columns at `K` of 250–600. The DP's arithmetic stays
//! untilted: the tilt only picks the windows. Below `SMALL_K_THRESHOLD`,
//! or where `θ ≤ 0` (`K` at or below the mean) or `θ` is infinite, nothing
//! is trimmed and the window is just the support of the state vector — the
//! full-range fold bit for bit, since every product it skips is an exact
//! zero.
//!
//! # SIMD dispatch
//!
//! The binned kernels' inner loops — the truncated-binomial convolution
//! and the pmf-term setup — run through a [`ultravc_simd::Kernels`] table
//! selected once per process by runtime CPU detection (AVX2+FMA on
//! x86_64, NEON on aarch64, scalar elsewhere or under
//! `ULTRAVC_FORCE_SCALAR=1`). Every backend is **bitwise identical** (see
//! the `ultravc_simd` crate docs), so dispatch can change only the wall
//! clock — never a tail value, a bail decision, or a variant call. The
//! `*_with` variants ([`PoissonBinomial::tail_pruned_binned_with`],
//! [`PoissonBinomial::tail_early_exit_binned_with`]) accept an explicit
//! table for benchmarks and the backend-agreement tests.

use crate::{Result, StatsError};
use std::ops::Range;
use ultravc_simd::{AlignedF64, Kernels};

/// A Poisson-binomial distribution defined by per-trial success
/// probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBinomial {
    probs: Vec<f64>,
}

/// Early-exit policy for [`PoissonBinomial::tail_early_exit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailBudget {
    /// Abandon the computation once the running lower bound on
    /// `Pr[X ≥ K]` exceeds this value (the caller's significance level —
    /// a p-value already known to be above it can never produce a call).
    pub bail_above: f64,
}

/// Outcome of an early-exit tail computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TailOutcome {
    /// The DP ran to completion; the exact tail probability.
    Exact(f64),
    /// The DP stopped early: the tail is provably at least `lower_bound`
    /// (> the budget's `bail_above`), after processing `trials_used` of the
    /// trials.
    Bailed {
        /// Proven lower bound on the tail at the moment of the bail.
        lower_bound: f64,
        /// Number of Bernoulli trials folded in before bailing.
        trials_used: usize,
    },
}

impl TailOutcome {
    /// The exact value if the DP completed.
    pub fn exact(self) -> Option<f64> {
        match self {
            TailOutcome::Exact(p) => Some(p),
            TailOutcome::Bailed { .. } => None,
        }
    }

    /// A usable lower bound in either case.
    pub fn lower_bound(self) -> f64 {
        match self {
            TailOutcome::Exact(p) => p,
            TailOutcome::Bailed { lower_bound, .. } => lower_bound,
        }
    }
}

impl PoissonBinomial {
    /// Construct from per-trial success probabilities, each in `[0, 1]`.
    pub fn new(probs: impl Into<Vec<f64>>) -> Result<Self> {
        let probs = probs.into();
        for (i, &p) in probs.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) {
                return Err(StatsError::Domain {
                    what: "PoissonBinomial::new",
                    msg: format!("probability {i} out of [0,1]: {p}"),
                });
            }
        }
        Ok(PoissonBinomial { probs })
    }

    /// Construct from probabilities already known to lie in `[0, 1]` —
    /// e.g. values read out of the Phred lookup table, which maps every
    /// `u8` score to `10^(−q/10) ∈ (0, 1]` by construction.
    ///
    /// Skips the per-element range validation branch of [`Self::new`]
    /// (verified only under `debug_assertions`), which matters when a
    /// driver builds one distribution per pileup column.
    pub fn from_phred_probs(probs: impl Into<Vec<f64>>) -> Self {
        let probs = probs.into();
        debug_assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "from_phred_probs caller promised probabilities in [0,1]"
        );
        PoissonBinomial { probs }
    }

    /// Expand `(probability, multiplicity)` bins into a per-trial
    /// distribution. Reference/test bridge between the binned and
    /// per-trial kernels; probabilities are trusted as in
    /// [`Self::from_phred_probs`].
    pub fn from_bins(bins: &[(f64, u32)]) -> Self {
        let d: usize = bins.iter().map(|&(_, m)| m as usize).sum();
        let mut probs = Vec::with_capacity(d);
        for &(p, m) in bins {
            probs.extend(std::iter::repeat_n(p, m as usize));
        }
        Self::from_phred_probs(probs)
    }

    /// Number of trials `d`.
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no trials (`X ≡ 0`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The per-trial probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Mean `μ = Σ p_i` — also the rate of the paper's Poisson
    /// approximation.
    pub fn mean(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Variance `σ² = Σ p_i (1 − p_i)`.
    pub fn variance(&self) -> f64 {
        self.probs.iter().map(|p| p * (1.0 - p)).sum()
    }

    /// Full probability mass function by the `O(d²)` dynamic program
    ///
    /// `P_n(X = k) = P_{n−1}(X = k)(1 − p_n) + P_{n−1}(X = k − 1) p_n`
    ///
    /// exactly as displayed in the paper. Returns `d + 1` masses.
    pub fn pmf(&self) -> Vec<f64> {
        let d = self.probs.len();
        let mut f = Vec::with_capacity(d + 1);
        f.push(1.0f64);
        for (n, &p) in self.probs.iter().enumerate() {
            let q = 1.0 - p;
            f.push(0.0);
            // Descend so f[j-1] still holds the previous iteration's value.
            for j in (1..=n + 1).rev() {
                f[j] = f[j] * q + f[j - 1] * p;
            }
            f[0] *= q;
        }
        f
    }

    /// Exact right tail `Pr[X ≥ k]` with the `O(d·k)` pruned DP.
    ///
    /// Tracks only the masses of states `0..k` plus a single absorbing
    /// "≥ k" accumulator: once a trajectory reaches `k` errors it can never
    /// return, so the accumulator needs no per-state resolution.
    pub fn tail_pruned(&self, k: usize) -> f64 {
        match self.tail_early_exit(
            k,
            TailBudget {
                bail_above: f64::INFINITY,
            },
        ) {
            TailOutcome::Exact(p) => p,
            TailOutcome::Bailed { .. } => unreachable!("infinite budget never bails"),
        }
    }

    /// Pruned tail DP with early exit (LoFreq's production kernel).
    ///
    /// The running accumulator `tail_n = Pr[first n trials yield ≥ k
    /// successes]` is monotone non-decreasing in `n`, so it is a certified
    /// lower bound on the final tail at every step. When it exceeds
    /// `budget.bail_above` the final p-value provably cannot be significant
    /// and the DP aborts — the dominant savings on columns whose mismatch
    /// count is unremarkable, which is almost all of them.
    pub fn tail_early_exit(&self, k: usize, budget: TailBudget) -> TailOutcome {
        if k == 0 {
            return TailOutcome::Exact(1.0);
        }
        if k > self.probs.len() {
            return TailOutcome::Exact(0.0);
        }
        // f[j] = Pr[j successes among trials seen so far], j < k.
        let mut f = vec![0.0f64; k];
        f[0] = 1.0;
        let mut tail = 0.0f64;
        let mut top = 0usize; // highest index with nonzero mass, ≤ k−1
        for (n, &p) in self.probs.iter().enumerate() {
            let q = 1.0 - p;
            // Mass escaping into the absorbing ≥k state.
            tail += f[k - 1] * p;
            if k >= 2 {
                // Shift interior states; indices above min(top+1, k−1) are
                // still zero and need no work.
                let hi = top.min(k - 2);
                for j in (1..=hi + 1).rev() {
                    f[j] = f[j] * q + f[j - 1] * p;
                }
            }
            f[0] *= q;
            if top + 1 < k {
                top += 1;
            }
            if tail > budget.bail_above {
                return TailOutcome::Bailed {
                    lower_bound: tail,
                    trials_used: n + 1,
                };
            }
        }
        TailOutcome::Exact(tail.clamp(0.0, 1.0))
    }

    // ----- grouped-trial (binned) kernels -------------------------------

    /// Mean `μ = Σ mᵢ·pᵢ` over `(probability, multiplicity)` bins —
    /// `O(#bins)` instead of `O(d)`.
    pub fn mean_binned(bins: &[(f64, u32)]) -> f64 {
        bins.iter().map(|&(p, m)| m as f64 * p).sum()
    }

    /// Variance `σ² = Σ mᵢ·pᵢ(1−pᵢ)` over bins.
    pub fn variance_binned(bins: &[(f64, u32)]) -> f64 {
        bins.iter().map(|&(p, m)| m as f64 * p * (1.0 - p)).sum()
    }

    /// Exact right tail `Pr[X ≥ k]` from quality bins, using the
    /// runtime-dispatched SIMD kernels: `O(K·Σ min(mᵦ, K))` over the full
    /// range, and `O(Σ w_f·w_b)` over the tilt windows (see the module
    /// docs) where a tilt applies. Tiny truncation cuts
    /// (`k < SMALL_K_THRESHOLD`) route to the scalar table via
    /// [`Kernels::for_k`] — the vector kernels have nothing to amortize
    /// there — which is bitwise-neutral since all backends agree exactly.
    ///
    /// Matches [`Self::tail_pruned`] on the expanded trials to floating
    /// point accuracy (the proptest suite pins ≤ 1e−12 relative error).
    pub fn tail_pruned_binned(bins: &[(f64, u32)], k: usize) -> f64 {
        Self::tail_pruned_binned_with(ultravc_simd::kernels().for_k(k), bins, k)
    }

    /// [`Self::tail_pruned_binned`] with an explicit kernel backend —
    /// benchmarks and the backend-agreement tests pin paths with this.
    pub fn tail_pruned_binned_with(kernels: &Kernels, bins: &[(f64, u32)], k: usize) -> f64 {
        let mut scratch = BinnedTailScratch::default();
        match Self::tail_early_exit_binned_with(
            kernels,
            bins,
            k,
            TailBudget {
                bail_above: f64::INFINITY,
            },
            &mut scratch,
        ) {
            TailOutcome::Exact(p) => p,
            TailOutcome::Bailed { .. } => unreachable!("infinite budget never bails"),
        }
    }

    /// Binned pruned-tail DP with early exit — the production kernel of
    /// the binned calling path.
    ///
    /// Folds one bin of `m` identical trials at a time (highest error
    /// probability first, so the absorbing tail — and therefore the bail —
    /// grows as fast as possible; the completed value is independent of
    /// fold order) over the tilt window of the module docs. After every bin
    /// the running tail is a certified lower bound on the final
    /// `Pr[X ≥ k]`, exactly as in the per-trial [`Self::tail_early_exit`]
    /// — trimming only removes non-negative terms — and when it crosses
    /// `budget.bail_above` the column provably cannot be significant and
    /// the kernel bails, reporting the trials folded so far at bin
    /// granularity.
    ///
    /// `scratch` carries the DP state vectors; reusing one scratch across
    /// columns makes the kernel allocation-free in steady state.
    pub fn tail_early_exit_binned(
        bins: &[(f64, u32)],
        k: usize,
        budget: TailBudget,
        scratch: &mut BinnedTailScratch,
    ) -> TailOutcome {
        // Small-K routing (see `tail_pruned_binned`): production columns
        // with tiny truncation cuts run the scalar table.
        Self::tail_early_exit_binned_with(
            ultravc_simd::kernels().for_k(k),
            bins,
            k,
            budget,
            scratch,
        )
    }

    /// [`Self::tail_early_exit_binned`] with an explicit kernel backend.
    ///
    /// All backends are bitwise identical, so the outcome — including the
    /// bail bin and its certified `trials_used` — cannot depend on which
    /// table the caller passes; benchmarks use this to time the scalar
    /// fallback against the dispatched path on the same host.
    pub fn tail_early_exit_binned_with(
        kernels: &Kernels,
        bins: &[(f64, u32)],
        k: usize,
        budget: TailBudget,
        scratch: &mut BinnedTailScratch,
    ) -> TailOutcome {
        tail_windowed(kernels, bins, k, budget, scratch, TRIM_EPS).0
    }
}

/// Tilted mass one trim may remove from one end of the binomial terms or
/// of the state vector.
const TRIM_EPS: f64 = 1e-20;

/// A windowed tail `L` is accepted when its certified gap `C·D` is at most
/// this fraction of `L` — three orders of magnitude inside the kernel's
/// 1e−12 agreement contract.
const CERTIFIED_GAP: f64 = 1e-15;

/// Newton steps allowed for the tilt; any `θ > 0` gives a valid bound, so
/// an unconverged one costs window width, never correctness.
const TILT_MAX_STEPS: usize = 60;

/// The exponential tilt that centres the column's error count at `K`.
///
/// Under the tilted measure a trial succeeds with
/// `p′ = p·e^θ / (q + p·e^θ)`, and `θ` solves `Σ mᵦ·p′ᵦ = K`. A DP path
/// `ω` has `P(ω) = P′(ω)·Π(qᵦ + pᵦe^θ)^{mᵦ}·e^{−θX(ω)}`, so every path with
/// `X ≥ K` has `P(ω) ≤ C·P′(ω)` with
/// `C = Π(qᵦ + pᵦe^θ)^{mᵦ}·e^{−θK}` (the per-bin Chernoff bound, itself
/// `≥ Pr[X ≥ K]`). Dropping any set of DP paths of tilted mass `δ`
/// therefore lowers the tail by at most `C·δ` — for every `θ > 0`, which is
/// why the Newton solve needs no convergence proof. A dropped set also
/// cannot lower the tail by more than its own (untilted) probability, so a
/// trim charges `min(δ, P/C)` to the tilted budget: near `K`, where states
/// are about to escape, `P/C` is the smaller of the two.
#[derive(Debug, Clone, Copy)]
struct Tilt {
    theta: f64,
    /// `e^θ − 1`, for the per-trial normalizer `ln(q + p·e^θ)`.
    expm1_theta: f64,
    /// `ln C`.
    ln_c: f64,
    /// Tilted mass each trim may remove.
    eps: f64,
}

impl Tilt {
    /// The tilt at `k`, or `None` where the window is the full range:
    /// `k < SMALL_K_THRESHOLD` (nothing to save), `k` at or below the mean
    /// (`θ ≤ 0`), `k` at or above the number of random trials (`θ = ∞`),
    /// or a solve whose bound `C` is not below 1.
    fn solve(bins: &[(f64, u32)], k: usize, eps: f64) -> Option<Tilt> {
        if k < ultravc_simd::SMALL_K_THRESHOLD {
            return None;
        }
        let live = || bins.iter().filter(|&&(p, m)| m > 0 && p > 0.0);
        let kf = k as f64;
        let lambda: f64 = live().map(|&(p, m)| m as f64 * p).sum();
        let trials: f64 = live().map(|&(_, m)| m as f64).sum();
        if !(kf > lambda && kf < trials) {
            return None;
        }
        // g(θ) = Σ m·p′(θ) − K increases in θ, and p′ ≤ p·e^θ makes
        // g(ln(K/λ)) ≤ 0: start there and keep Newton inside the bracket.
        let excess = |theta: f64| {
            let e = theta.exp();
            live().fold((-kf, 0.0), |(g, dg), &(p, m)| {
                let tilted = p * e / (1.0 + p * (e - 1.0));
                let m = m as f64;
                (g + m * tilted, dg + m * tilted * (1.0 - tilted))
            })
        };
        let (mut lo, mut hi) = ((kf / lambda).ln(), f64::INFINITY);
        let mut theta = lo;
        for _ in 0..TILT_MAX_STEPS {
            let (g, dg) = excess(theta);
            if g.abs() <= 1e-9 * kf {
                break;
            }
            if g < 0.0 {
                lo = theta;
            } else {
                hi = theta;
            }
            let newton = theta - g / dg;
            theta = if newton > lo && newton < hi {
                newton
            } else if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                lo + 1.0
            };
        }
        let expm1_theta = theta.exp_m1();
        let ln_c = live()
            .map(|&(p, m)| m as f64 * (p * expm1_theta).ln_1p())
            .sum::<f64>()
            - theta * kf;
        (theta > 0.0 && expm1_theta.is_finite() && ln_c <= 0.0).then_some(Tilt {
            theta,
            expm1_theta,
            ln_c,
            eps,
        })
    }

    /// `ln(q + p·e^θ)`: the log-normalizer of one tilted trial.
    fn ln_norm(&self, p: f64) -> f64 {
        (p * self.expm1_theta).ln_1p()
    }

    /// The tilted-budget charge for dropping untilted mass `x` whose tilted
    /// mass is `x·e^{ln_tilt}`: `min(x·e^{ln_tilt}, x/C)`. An exact zero
    /// costs nothing even where the factor overflows.
    fn charge(&self, x: f64, ln_tilt: f64) -> f64 {
        if x == 0.0 {
            0.0
        } else {
            x * ln_tilt.min(-self.ln_c).exp()
        }
    }

    /// Whether `p ≤ tail + C·dropped` is within [`CERTIFIED_GAP`] of
    /// `tail`.
    fn certifies(&self, tail: f64, dropped: f64) -> bool {
        dropped == 0.0 || (tail > 0.0 && self.ln_c + dropped.ln() <= tail.ln() + CERTIFIED_GAP.ln())
    }

    /// Trim `mass(i)` for `i` in `range` from both ends while each end's
    /// removed total stays within `eps`; returns the kept range and the
    /// mass removed.
    fn trim(&self, range: Range<usize>, mass: impl Fn(usize) -> f64) -> (Range<usize>, f64) {
        let (mut lo, mut hi) = (range.start, range.end);
        let (mut low, mut high) = (0.0, 0.0);
        while lo < hi {
            match low + mass(lo) {
                x if x <= self.eps => (low, lo) = (x, lo + 1),
                _ => break,
            }
        }
        while lo < hi {
            match high + mass(hi - 1) {
                x if x <= self.eps => (high, hi) = (x, hi - 1),
                _ => break,
            }
        }
        (lo..hi, low + high)
    }
}

/// One column's fold in progress: the absorbing tail, the window `lo..hi`
/// outside which the state vector is zero, the part of the double buffer
/// that may still be nonzero, and — under a tilt — the log-normalizer of
/// the trials folded so far and the tilted mass trimmed.
struct Fold<'t> {
    tail: f64,
    lo: usize,
    hi: usize,
    stale: Range<usize>,
    tilt: Option<&'t Tilt>,
    ln_norm: f64,
    dropped: f64,
    widest: usize,
}

/// What a windowed run did besides its outcome (read by the unit tests).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WindowReport {
    /// Widest state window any fold kept.
    widest: usize,
    /// Whether the certificate failed and the column re-ran over the full
    /// range.
    fell_back: bool,
}

/// The binned kernel: fold under the tilt at `k` (when there is one),
/// trimming `eps` of tilted mass per end per trim, and re-run over the full
/// range when the certificate does not hold the windowed tail to
/// [`CERTIFIED_GAP`].
fn tail_windowed(
    kernels: &Kernels,
    bins: &[(f64, u32)],
    k: usize,
    budget: TailBudget,
    scratch: &mut BinnedTailScratch,
    eps: f64,
) -> (TailOutcome, WindowReport) {
    if k == 0 {
        return (TailOutcome::Exact(1.0), WindowReport::default());
    }
    let total: u64 = bins.iter().map(|&(_, m)| m as u64).sum();
    if (k as u64) > total {
        return (TailOutcome::Exact(0.0), WindowReport::default());
    }
    let tilt = Tilt::solve(bins, k, eps);
    let (outcome, fold) = fold_column(kernels, bins, k, budget, scratch, tilt.as_ref());
    let report = WindowReport {
        widest: fold.widest,
        fell_back: false,
    };
    match (outcome, tilt) {
        (TailOutcome::Exact(tail), Some(tilt)) if !tilt.certifies(tail, fold.dropped) => {
            scratch.window_fallbacks += 1;
            let (outcome, _) = fold_column(kernels, bins, k, budget, scratch, None);
            (
                outcome,
                WindowReport {
                    fell_back: true,
                    ..report
                },
            )
        }
        _ => (outcome, report),
    }
}

/// Fold every bin, highest probability first, trimming under `tilt`; the
/// running tail is a lower bound on `Pr[X ≥ k]` after every bin, trimmed
/// or not, so the bail stays sound.
fn fold_column<'t>(
    kernels: &Kernels,
    bins: &[(f64, u32)],
    k: usize,
    budget: TailBudget,
    scratch: &mut BinnedTailScratch,
    tilt: Option<&'t Tilt>,
) -> (TailOutcome, Fold<'t>) {
    scratch.reset(k);
    let mut fold = Fold {
        tail: 0.0,
        lo: 0,
        hi: 1,
        stale: 0..0,
        tilt,
        ln_norm: 0.0,
        dropped: 0.0,
        widest: 1,
    };
    let mut trials_used = 0usize;
    // Highest probability first (bins arrive sorted ascending).
    for &(p, m) in bins.iter().rev() {
        if m == 0 || p <= 0.0 {
            continue;
        }
        fold_bin(&mut fold, p, m as u64, k, kernels, scratch);
        trials_used += m as usize;
        if fold.tail > budget.bail_above {
            let outcome = TailOutcome::Bailed {
                lower_bound: fold.tail,
                trials_used,
            };
            return (outcome, fold);
        }
    }
    let outcome = TailOutcome::Exact(fold.tail.clamp(0.0, 1.0));
    (outcome, fold)
}

/// Reusable state for [`PoissonBinomial::tail_early_exit_binned`]: the
/// pruned DP vector, its double buffer, the per-bin binomial pmf terms,
/// the binomial suffix tails and the vector kernels' compensator array.
/// All buffers grow to the high-water `K` of the columns a worker sees
/// and are then reused allocation-free.
///
/// The buffers are [`AlignedF64`] (32-byte-aligned storage), so a
/// full-range fold's 4-lane blocks start on a vector-register boundary; a
/// window slice starts wherever its window does.
#[derive(Debug, Clone, Default)]
pub struct BinnedTailScratch {
    /// `f[j] = Pr[j successes among folded trials]`, `j < k`; zero outside
    /// the fold's window.
    f: AlignedF64,
    /// Double buffer for the convolution output; zero outside the fold's
    /// `stale` range.
    g: AlignedF64,
    /// Binomial pmf terms `b_0..b_cut` of the bin being folded.
    b: AlignedF64,
    /// Binomial suffix tails `s[r] = Pr[Bin(m, p) ≥ r]`, `1 ≤ r ≤ k`.
    s: AlignedF64,
    /// Per-output rounding-error compensators for the vector convolution
    /// (the scalar backend keeps its compensator in a register instead).
    comp: AlignedF64,
    /// Columns whose windowed tail the certificate did not accept, so the
    /// kernel re-ran them over the full range (see [`Self::window_fallbacks`]).
    window_fallbacks: u64,
}

impl BinnedTailScratch {
    /// Fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> BinnedTailScratch {
        BinnedTailScratch::default()
    }

    /// How many columns run through this scratch fell back from the tilt
    /// window to a full-range fold because the certificate did not hold
    /// the windowed tail to its gap. The outcome is exact either way; a
    /// fallback only costs the full-range work the window exists to save.
    pub fn window_fallbacks(&self) -> u64 {
        self.window_fallbacks
    }

    fn reset(&mut self, k: usize) {
        self.f.clear();
        self.f.resize(k, 0.0);
        self.f[0] = 1.0;
        self.g.clear();
        self.g.resize(k, 0.0);
        self.s.clear();
        self.s.resize(k + 1, 0.0);
        self.comp.clear();
        self.comp.resize(k, 0.0);
    }
}

/// `exp` underflows past this; chunk sizes are chosen so `m·ln q` stays
/// above it and `b_0 = q^m` never leaves the normal f64 range.
const LN_UNDERFLOW: f64 = -700.0;

/// Fold one bin of `m` trials with success probability `p` into the pruned
/// state (`scratch.f` over `fold.lo..fold.hi`, absorbing `fold.tail`).
///
/// When `q^m` would underflow (very low quality × very high multiplicity,
/// e.g. a million Phred-3 reads) the bin is folded as several sub-chunks
/// whose `q^chunk` stays in the normal range. This keeps every pmf term on
/// the relatively-accurate ratio-recurrence path — a log-space fallback
/// (`exp(m·ln q + ln C(m,i) + i·ln(p/q))`) cancels thousands-sized logs
/// and was measured to cost five decimal digits against a double-double
/// referee.
fn fold_bin(
    fold: &mut Fold<'_>,
    p: f64,
    m: u64,
    k: usize,
    kr: &Kernels,
    scratch: &mut BinnedTailScratch,
) {
    if p >= 1.0 {
        // Deterministic: the bin shifts every state up by m; states at or
        // above k − m escape.
        if let Some(tilt) = fold.tilt {
            fold.ln_norm += m as f64 * tilt.theta;
        }
        let (lo, hi) = (fold.lo, fold.hi);
        if lo >= hi {
            return;
        }
        let m = m.min(k as u64) as usize;
        let escape_from = k.saturating_sub(m).clamp(lo, hi);
        let out = if escape_from > lo {
            lo + m..escape_from + m
        } else {
            hi..hi
        };
        fold.tail += scratch.f[escape_from..hi].iter().sum::<f64>();
        clear_outside(&mut scratch.g, fold.stale.clone(), &out);
        scratch.g[out.clone()].copy_from_slice(&scratch.f[lo..escape_from]);
        std::mem::swap(&mut scratch.f, &mut scratch.g);
        (fold.lo, fold.hi, fold.stale) = (out.start, out.end, lo..hi);
        return;
    }

    let ln_q = (-p).ln_1p();
    let max_chunk = if m as f64 * ln_q > LN_UNDERFLOW {
        m
    } else {
        ((LN_UNDERFLOW / ln_q) as u64).max(1)
    };
    let mut remaining = m;
    while remaining > 0 {
        let chunk = remaining.min(max_chunk);
        fold_chunk(fold, p, chunk, k, kr, scratch);
        remaining -= chunk;
    }
}

/// Fold `m` identical trials via one truncated `Binomial(m, p)`
/// convolution. Requires `0 < p < 1` and `q^m` representable.
///
/// The pmf-term setup and the interior convolution go through the
/// dispatched kernel table `kr`; the `O(K)` suffix-tail and escape
/// reductions stay scalar (they are shared by all backends, which keeps
/// every path bitwise identical).
///
/// The convolution runs on window slices: the state window `lo..hi`
/// (zero-padded to the output length) against the binomial terms that can
/// land on an interior state. Every term it leaves out is an exact zero
/// product, which adds nothing to a compensated sum, so without a tilt
/// the result is bit for bit the full-range `O(K·min(m, K))` fold. Under a
/// tilt both ends of the binomial terms are trimmed before the fold and
/// both ends of the state window after it.
fn fold_chunk(
    fold: &mut Fold<'_>,
    p: f64,
    m: u64,
    k: usize,
    kr: &Kernels,
    scratch: &mut BinnedTailScratch,
) {
    let q = 1.0 - p;
    let ln_q = (-p).ln_1p();
    let cut = (m.min(k as u64)) as usize;
    let ratio = p / q;

    // Binomial pmf terms b_i = C(m,i) p^i q^(m-i), i = 0..=cut, by the
    // two-pass ratio recurrence (relatively accurate: a product of exact
    // ratios off an `exp` whose argument is bounded by LN_UNDERFLOW).
    let b = &mut scratch.b;
    b.clear();
    b.resize(cut + 1, 0.0);
    (kr.binomial_pmf)(b.as_mut_slice(), m, ratio, (m as f64 * ln_q).exp());

    // Suffix tails s[r] = Pr[Bin(m,p) ≥ r] for r = 1..=min(k, m), by the
    // compensated downward recurrence s[r] = s[r+1] + b_r seeded with
    // S_{cut+1}. The compensation (here and below) keeps the binned
    // kernel's own rounding well under the per-trial reference's, so the
    // two stay within the 1e−12 agreement contract even at extreme K.
    let s_above = if (cut as u64) == m {
        0.0
    } else {
        binomial_tail_above_k(b.as_slice(), p, m, k)
    };
    let s = &mut scratch.s;
    let mut running = KahanSum::from(s_above);
    for r in (1..=cut).rev() {
        running.add(b[r]);
        s[r] = running.value();
    }
    for slot in s.iter_mut().take(k + 1).skip(cut + 1) {
        *slot = 0.0;
    }

    let (lo, hi) = (fold.lo, fold.hi);
    let ln_norm_trial = fold.tilt.map_or(0.0, |tilt| tilt.ln_norm(p));
    fold.ln_norm += m as f64 * ln_norm_trial;
    if lo >= hi {
        return;
    }

    // Escape: mass jumping from interior state j past k−1 in one bin.
    // Uses the *pre-fold* f, so it must precede the convolution.
    let f = &scratch.f;
    let mut escaped = KahanSum::default();
    for (j, &fj) in (lo..hi).zip(&f[lo..hi]) {
        let r = k - j;
        if fj > 0.0 && (r as u64) <= m {
            escaped.add(fj * s[r]);
        }
    }
    fold.tail += escaped.value();

    // Binomial terms that can land on an interior state; under a tilt,
    // less the tilted mass each end may give up (a term's tilted mass is
    // b_i·e^{θi}/(q + p·e^θ)^m).
    let mut terms = 0..cut.min(k - 1 - lo) + 1;
    if let Some(tilt) = fold.tilt {
        let b = scratch.b.as_slice();
        let ln_norm_chunk = m as f64 * ln_norm_trial;
        let (kept, dropped) = tilt.trim(terms, |i| {
            tilt.charge(b[i], tilt.theta * i as f64 - ln_norm_chunk)
        });
        fold.dropped += dropped;
        terms = kept;
    }

    // Interior convolution f'[t] = Σ b_i f[t−i] into the double buffer,
    // with compensated accumulation (Neumaier in the scalar backend,
    // two-sum + compensator array in the vector backends — identical
    // values either way).
    let out_lo = lo + terms.start;
    let out_len = if terms.is_empty() {
        0
    } else {
        (hi - lo + terms.len() - 1).min(k - out_lo)
    };
    let out = out_lo..out_lo + out_len;
    clear_outside(&mut scratch.g, fold.stale.clone(), &out);
    if out_len > 0 {
        (kr.conv_fold_compensated)(
            &scratch.b[terms],
            &scratch.f[lo..lo + out_len],
            &mut scratch.g[out.clone()],
            &mut scratch.comp[..out_len],
        );
    }
    std::mem::swap(&mut scratch.f, &mut scratch.g);
    (fold.lo, fold.hi, fold.stale) = (out.start, out.end, lo..hi);

    if let Some(tilt) = fold.tilt {
        let f = scratch.f.as_slice();
        let ln_norm = fold.ln_norm;
        let (kept, dropped) = tilt.trim(fold.lo..fold.hi, |j| {
            tilt.charge(f[j], tilt.theta * j as f64 - ln_norm)
        });
        scratch.f[fold.lo..kept.start].fill(0.0);
        scratch.f[kept.end..fold.hi].fill(0.0);
        fold.dropped += dropped;
        (fold.lo, fold.hi) = (kept.start, kept.end);
    }
    fold.widest = fold.widest.max(fold.hi - fold.lo);
}

/// Zero `buf[stale]` outside `keep`: the double buffer still holds the
/// window before last, and the next fold overwrites only `keep`.
fn clear_outside(buf: &mut [f64], stale: Range<usize>, keep: &Range<usize>) {
    buf[stale.start..stale.end.min(keep.start).max(stale.start)].fill(0.0);
    buf[keep.end.clamp(stale.start, stale.end)..stale.end].fill(0.0);
}

/// Neumaier-compensated accumulator: error-free for sums whose condition
/// number is moderate, at ~4 flops per add.
#[derive(Debug, Clone, Copy, Default)]
struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    fn from(x: f64) -> KahanSum {
        KahanSum { sum: x, comp: 0.0 }
    }

    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    #[inline]
    fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// `Pr[Bin(m, p) ≥ k+1]` given the pmf terms `b[0..=k]` (requires
/// `m > k`). Chooses between the complement of a compensated prefix sum
/// (left of the mode, where the tail is large and the prefix small) and
/// direct upward summation with geometric cutoff (right of the mode, where
/// terms decay and the complement would cancel catastrophically) — both
/// sides preserve *relative* accuracy, which the certified-bail semantics
/// and the ≤1e−12 kernel-agreement contract need.
fn binomial_tail_above_k(b: &[f64], p: f64, m: u64, k: usize) -> f64 {
    let mode = ((m + 1) as f64 * p).floor();
    if ((k + 1) as f64) <= mode {
        // Compensated prefix keeps the complement's error at a few ulps
        // even for k in the thousands.
        let mut sum = KahanSum::default();
        for &bi in &b[..=k] {
            sum.add(bi);
        }
        (1.0 - sum.value()).max(0.0)
    } else {
        let mut term = b[k];
        if term <= 0.0 {
            return 0.0;
        }
        let ratio = p / (1.0 - p);
        let mut sum = 0.0f64;
        let mut i = k as u64 + 1;
        while i <= m {
            term *= ratio * (m - i + 1) as f64 / i as f64;
            sum += term;
            // Strictly decreasing past the mode: once a term stops moving
            // the sum at f64 resolution the remainder is negligible.
            if term <= sum * 1e-18 {
                break;
            }
            i += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn random_probs(n: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.f64() * scale).collect()
    }

    #[test]
    fn empty_distribution_is_point_mass_at_zero() {
        let pb = PoissonBinomial::new(Vec::new()).unwrap();
        assert_eq!(pb.pmf(), vec![1.0]);
        assert_eq!(pb.tail_pruned(0), 1.0);
        assert_eq!(pb.tail_pruned(1), 0.0);
    }

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(PoissonBinomial::new(vec![0.5, 1.5]).is_err());
        assert!(PoissonBinomial::new(vec![-0.1]).is_err());
        assert!(PoissonBinomial::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn identical_probs_reduce_to_binomial() {
        let n = 20;
        let p = 0.3;
        let pb = PoissonBinomial::new(vec![p; n]).unwrap();
        let pmf = pb.pmf();
        let bin = crate::binomial::Binomial::new(n as u64, p).unwrap();
        for k in 0..=n {
            assert!(
                close(pmf[k], bin.pmf(k as u64), 1e-12),
                "k={k}: {} vs {}",
                pmf[k],
                bin.pmf(k as u64)
            );
        }
    }

    #[test]
    fn pmf_normalizes_and_matches_moments() {
        let probs = random_probs(300, 7, 0.2);
        let pb = PoissonBinomial::new(probs).unwrap();
        let pmf = pb.pmf();
        let total: f64 = pmf.iter().sum();
        assert!(close(total, 1.0, 1e-10), "total {total}");
        let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!(close(mean, pb.mean(), 1e-8), "{mean} vs {}", pb.mean());
        let var: f64 = pmf
            .iter()
            .enumerate()
            .map(|(k, p)| (k as f64 - mean).powi(2) * p)
            .sum();
        assert!(
            close(var, pb.variance(), 1e-7),
            "{var} vs {}",
            pb.variance()
        );
    }

    #[test]
    fn pruned_tail_matches_full_tail() {
        let probs = random_probs(200, 13, 0.15);
        let pb = PoissonBinomial::new(probs).unwrap();
        let pmf = pb.pmf();
        for k in [0usize, 1, 2, 5, 10, 20, 40, 100, 200, 201] {
            let full: f64 = pmf.iter().skip(k).sum();
            let pruned = pb.tail_pruned(k);
            assert!(
                close(full, pruned, 1e-10),
                "k={k}: full {full} vs pruned {pruned}"
            );
        }
    }

    #[test]
    fn early_exit_bails_with_valid_lower_bound() {
        // High error probabilities, low threshold: the tail crosses fast.
        let pb = PoissonBinomial::new(vec![0.5; 1000]).unwrap();
        let out = pb.tail_early_exit(10, TailBudget { bail_above: 0.05 });
        match out {
            TailOutcome::Bailed {
                lower_bound,
                trials_used,
            } => {
                assert!(lower_bound > 0.05);
                assert!(trials_used < 1000, "should bail well before the end");
                let exact = pb.tail_pruned(10);
                assert!(exact >= lower_bound, "bound must be conservative");
            }
            TailOutcome::Exact(_) => panic!("expected a bail"),
        }
    }

    #[test]
    fn early_exit_exact_when_tail_small() {
        let pb = PoissonBinomial::new(vec![0.001; 500]).unwrap();
        let out = pb.tail_early_exit(20, TailBudget { bail_above: 0.05 });
        match out {
            TailOutcome::Exact(p) => {
                assert!(close(p, pb.tail_pruned(20), 1e-12));
                assert!(p < 1e-10, "20 errors at λ=0.5 is absurdly unlikely: {p}");
            }
            TailOutcome::Bailed { .. } => panic!("tail never crosses 0.05"),
        }
    }

    #[test]
    fn tail_monotone_decreasing_in_k() {
        let pb = PoissonBinomial::new(random_probs(80, 5, 0.4)).unwrap();
        let mut prev = 1.0;
        for k in 0..=81 {
            let t = pb.tail_pruned(k);
            assert!(t <= prev + 1e-12, "k={k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn deep_column_mixed_qualities() {
        // A realistic ultra-deep column: 50 000 reads at Phred 20–40.
        let mut rng = Rng::new(99);
        let probs: Vec<f64> = (0..50_000)
            .map(|_| 10f64.powf(-(rng.range_u64(20, 40) as f64) / 10.0))
            .collect();
        let pb = PoissonBinomial::new(probs).unwrap();
        let lambda = pb.mean();
        // Around the mean the tail is moderate; far above it is tiny.
        let k_mean = lambda.round() as usize;
        let t = pb.tail_pruned(k_mean);
        assert!(t > 0.3 && t < 0.7, "tail at mean: {t}");
        let t_far = pb.tail_pruned(k_mean + 10 * (pb.variance().sqrt() as usize + 1));
        assert!(t_far < 1e-6, "far tail: {t_far}");
    }

    fn random_bins(n_bins: usize, max_mult: u32, seed: u64, scale: f64) -> Vec<(f64, u32)> {
        let mut rng = Rng::new(seed);
        let mut bins: Vec<(f64, u32)> = (0..n_bins)
            .map(|_| {
                (
                    rng.f64() * scale,
                    1 + (rng.next_u64() % max_mult as u64) as u32,
                )
            })
            .collect();
        bins.sort_by(|a, b| a.0.total_cmp(&b.0));
        bins
    }

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
    }

    #[test]
    fn binned_tail_matches_per_trial_small() {
        for seed in 0..8u64 {
            let bins = random_bins(6, 40, seed + 1, 0.3);
            let pb = PoissonBinomial::from_bins(&bins);
            for k in [1usize, 2, 5, 10, 25, pb.len() / 2, pb.len(), pb.len() + 1] {
                let per_trial = pb.tail_pruned(k);
                let binned = PoissonBinomial::tail_pruned_binned(&bins, k);
                assert!(
                    rel_close(per_trial, binned, 1e-12),
                    "seed {seed} k={k}: per-trial {per_trial} vs binned {binned}"
                );
            }
        }
    }

    #[test]
    fn binned_tail_matches_per_trial_deep_low_error() {
        // The production regime: Phred 20–40 probabilities, multiplicities
        // in the thousands, K near and far above the mean.
        let bins: Vec<(f64, u32)> = [
            (40u8, 2_000u32),
            (35, 5_000),
            (30, 9_000),
            (25, 3_000),
            (20, 1_000),
        ]
        .iter()
        .map(|&(q, m)| (10f64.powf(-(q as f64) / 10.0), m))
        .rev()
        .collect();
        let pb = PoissonBinomial::from_bins(&bins);
        let lambda = pb.mean();
        for k in [
            1usize,
            lambda as usize,
            lambda as usize + 10,
            lambda as usize + 60,
        ] {
            let per_trial = pb.tail_pruned(k);
            let binned = PoissonBinomial::tail_pruned_binned(&bins, k);
            assert!(
                rel_close(per_trial, binned, 1e-12),
                "k={k}: per-trial {per_trial} vs binned {binned}"
            );
        }
    }

    #[test]
    fn binned_handles_huge_bins_where_qm_underflows() {
        // q^m underflows (0.794^6000): the log-space branch must engage and
        // the tail at small k is ~1.
        let bins = vec![(0.205_671_765_275_718_6, 6_000u32)]; // Phred 1
        let t = PoissonBinomial::tail_pruned_binned(&bins, 10);
        assert!(t > 1.0 - 1e-12, "tail {t}");
        // And a K far above the mean of a huge low-p bin stays accurate.
        // The referee here is the incomplete-beta binomial tail, not the
        // per-trial DP: at d = 1 000 000 the sequential DP itself drifts
        // ~1e-11 (the binned kernel, folding one convolution, does not).
        let bins2 = vec![(1e-4, 1_000_000u32)]; // λ = 100
        let bin = crate::binomial::Binomial::new(1_000_000, 1e-4).unwrap();
        for k in [50usize, 100, 140, 200] {
            let reference = bin.sf(k as u64);
            let binned = PoissonBinomial::tail_pruned_binned(&bins2, k);
            assert!(
                rel_close(reference, binned, 1e-9),
                "k={k}: beta_inc {reference} vs binned {binned}"
            );
        }
    }

    #[test]
    fn binned_deterministic_bins() {
        // p = 1 bins shift the state deterministically.
        let bins = vec![(0.5, 3u32), (1.0, 2)];
        let pb = PoissonBinomial::from_bins(&bins);
        for k in 0..=6 {
            let per_trial = pb.tail_pruned(k);
            let binned = PoissonBinomial::tail_pruned_binned(&bins, k);
            assert!(
                rel_close(per_trial, binned, 1e-12) || (per_trial - binned).abs() < 1e-15,
                "k={k}: {per_trial} vs {binned}"
            );
        }
        assert_eq!(PoissonBinomial::tail_pruned_binned(&[(1.0, 5)], 5), 1.0);
        assert_eq!(PoissonBinomial::tail_pruned_binned(&[(1.0, 5)], 6), 0.0);
    }

    #[test]
    fn binned_early_exit_is_sound() {
        let bins = random_bins(8, 500, 99, 0.4);
        let mut scratch = BinnedTailScratch::new();
        for k in [1usize, 5, 20] {
            let exact = PoissonBinomial::tail_pruned_binned(&bins, k);
            for bail in [0.001f64, 0.05, 0.9] {
                match PoissonBinomial::tail_early_exit_binned(
                    &bins,
                    k,
                    TailBudget { bail_above: bail },
                    &mut scratch,
                ) {
                    TailOutcome::Exact(p) => {
                        assert!(rel_close(p, exact, 1e-12));
                        assert!(p <= bail + 1e-12, "completed ⇒ tail ≤ bail");
                    }
                    TailOutcome::Bailed {
                        lower_bound,
                        trials_used,
                    } => {
                        assert!(lower_bound > bail);
                        assert!(
                            exact + 1e-12 >= lower_bound,
                            "k={k} bail={bail}: bound {lower_bound} not ≤ exact {exact}"
                        );
                        let total: usize = bins.iter().map(|&(_, m)| m as usize).sum();
                        assert!(trials_used <= total);
                    }
                }
            }
        }
    }

    #[test]
    fn binned_moments_match_per_trial() {
        let bins = random_bins(10, 200, 7, 0.9);
        let pb = PoissonBinomial::from_bins(&bins);
        assert!(rel_close(
            pb.mean(),
            PoissonBinomial::mean_binned(&bins),
            1e-12
        ));
        assert!(rel_close(
            pb.variance(),
            PoissonBinomial::variance_binned(&bins),
            1e-12
        ));
        assert_eq!(PoissonBinomial::mean_binned(&[]), 0.0);
    }

    #[test]
    fn binned_edge_cases() {
        // k = 0 and k > total.
        let mut scratch = BinnedTailScratch::new();
        let budget = TailBudget { bail_above: 0.5 };
        assert_eq!(
            PoissonBinomial::tail_early_exit_binned(&[(0.3, 4)], 0, budget, &mut scratch),
            TailOutcome::Exact(1.0)
        );
        assert_eq!(
            PoissonBinomial::tail_early_exit_binned(&[(0.3, 4)], 5, budget, &mut scratch),
            TailOutcome::Exact(0.0)
        );
        // Empty and zero-probability bins contribute nothing.
        assert_eq!(PoissonBinomial::tail_pruned_binned(&[], 1), 0.0);
        assert_eq!(
            PoissonBinomial::tail_pruned_binned(&[(0.0, 100), (0.5, 0)], 1),
            0.0
        );
        // Scratch reuse across ks of different size.
        let bins = random_bins(4, 30, 5, 0.2);
        let a = PoissonBinomial::tail_pruned_binned(&bins, 7);
        let _ = PoissonBinomial::tail_early_exit_binned(
            &bins,
            2,
            TailBudget {
                bail_above: f64::INFINITY,
            },
            &mut scratch,
        );
        let again = PoissonBinomial::tail_early_exit_binned(
            &bins,
            7,
            TailBudget {
                bail_above: f64::INFINITY,
            },
            &mut scratch,
        );
        assert_eq!(again.exact(), Some(a));
    }

    /// A `depth`× column with a LongRead-like quality spectrum: Phred
    /// ~ N(13, 3.6) over Q2–Q25, every multiplicity far below the mid-K
    /// cuts the caller tests there.
    fn long_read_bins(depth: u32) -> Vec<(f64, u32)> {
        let weight = |q: u32| (-0.5 * ((q as f64 - 13.0) / 3.6).powi(2)).exp();
        let norm: f64 = (2..=25).map(weight).sum();
        (2..=25u32)
            .rev()
            .map(|q| {
                let m = (depth as f64 * weight(q) / norm).round() as u32;
                (10f64.powf(-(q as f64) / 10.0), m.max(1))
            })
            .collect()
    }

    fn windowed(bins: &[(f64, u32)], k: usize, eps: f64) -> (f64, WindowReport) {
        let (outcome, report) = tail_windowed(
            ultravc_simd::kernels(),
            bins,
            k,
            TailBudget {
                bail_above: f64::INFINITY,
            },
            &mut BinnedTailScratch::new(),
            eps,
        );
        (outcome.exact().expect("infinite budget"), report)
    }

    #[test]
    fn tilt_window_narrows_a_long_read_column() {
        let bins = long_read_bins(3_000);
        let k = 600;
        assert!(bins.iter().all(|&(_, m)| (m as usize) < k));
        let (tail, report) = windowed(&bins, k, TRIM_EPS);
        assert!(!report.fell_back, "the certificate holds: {report:?}");
        assert!(
            report.widest < k / 2,
            "kept state window {} not narrower than K/2",
            report.widest
        );
        let per_trial = PoissonBinomial::from_bins(&bins).tail_pruned(k);
        assert!(
            rel_close(per_trial, tail, 1e-12),
            "{per_trial:e} vs {tail:e}"
        );
    }

    #[test]
    fn a_failed_certificate_reruns_the_full_range() {
        let bins = long_read_bins(3_000);
        for k in [250usize, 600] {
            // ε = 0 trims only exact zeros: the full-range arithmetic.
            let (full, exact_report) = windowed(&bins, k, 0.0);
            assert!(!exact_report.fell_back);
            let (tail, report) = windowed(&bins, k, 1e-3);
            assert!(
                report.fell_back,
                "k={k}: ε = 1e-3 must fail the certificate"
            );
            assert_eq!(tail.to_bits(), full.to_bits(), "k={k}");
        }
    }

    #[test]
    fn degenerate_tilts_match_per_trial() {
        let deep_q40 = vec![(1e-4, 2_000u32)];
        let shallow = long_read_bins(80);
        let depth = PoissonBinomial::from_bins(&shallow).len();
        let check = |what: &str, bins: &[(f64, u32)], ks: &[usize]| {
            let pb = PoissonBinomial::from_bins(bins);
            for &k in ks {
                let per_trial = pb.tail_pruned(k);
                let (tail, report) = windowed(bins, k, TRIM_EPS);
                assert!(!report.fell_back, "{what} k={k}");
                assert!(
                    rel_close(per_trial, tail, 1e-12),
                    "{what} k={k}: per-trial {per_trial:e} vs windowed {tail:e}"
                );
            }
        };
        // K = depth has θ = ∞ (no tilt); K = depth − 1 a huge finite θ.
        check("long read", &shallow, &[depth - 1, depth, depth + 1]);
        check("all Q40", &deep_q40, &[16, 17, 40, 1_999, 2_000]);
        // p = 1 bins shift the window; K at or below them has θ ≤ 0.
        let certain = [(0.01, 300), (0.2, 40), (1.0, 20)];
        check("p = 1", &certain, &[10, 20, 21, 40, 60, 100]);
        // q^m underflows: the bin folds in chunks, each normalized.
        let chunked = [(0.05, 200), (0.206, 7_000)];
        check("chunked", &chunked, &[1_500, 1_700, 2_000]);
        // θ = ∞ and θ ≤ 0 solve to no tilt at all.
        assert!(Tilt::solve(&deep_q40, 2_000, TRIM_EPS).is_none());
        assert!(Tilt::solve(&deep_q40, 1, TRIM_EPS).is_none());
        assert!(Tilt::solve(&[(0.01, 300), (1.0, 20)], 22, TRIM_EPS).is_none());
        assert!(Tilt::solve(&deep_q40, 1_999, TRIM_EPS).is_some());
    }

    #[test]
    fn from_phred_probs_and_from_bins_agree_with_new() {
        let probs = vec![0.1, 0.01, 0.01, 0.3];
        let a = PoissonBinomial::new(probs.clone()).unwrap();
        let b = PoissonBinomial::from_phred_probs(probs);
        assert_eq!(a, b);
        let c = PoissonBinomial::from_bins(&[(0.01, 2), (0.1, 1), (0.3, 1)]);
        assert_eq!(c.len(), 4);
        assert!((c.mean() - a.mean()).abs() < 1e-15);
    }

    #[test]
    fn moments_closed_forms() {
        let pb = PoissonBinomial::new(vec![0.1, 0.5, 0.9]).unwrap();
        assert!(close(pb.mean(), 1.5, 1e-15));
        assert!(close(pb.variance(), 0.09 + 0.25 + 0.09, 1e-15));
        // Degenerate all-certain trials: zero variance, a sure tail.
        let sure = PoissonBinomial::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(sure.variance(), 0.0);
        assert_eq!(sure.tail_pruned(2), 1.0);
        assert_eq!(sure.tail_pruned(3), 0.0);
    }
}
