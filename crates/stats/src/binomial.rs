//! The binomial distribution and Fisher's exact test.
//!
//! LoFreq's post-call filtering tests strand bias by asking whether the
//! variant-supporting reads are distributed across forward/reverse strands
//! consistently with the reference-supporting reads — a 2×2 contingency
//! problem answered by Fisher's exact test on the hypergeometric
//! distribution. Both live here.

use crate::specfun::{beta_inc, ln_choose};
use crate::{Result, StatsError};

/// Binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Construct with `n` trials and success probability `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::Domain {
                what: "Binomial::new",
                msg: format!("p must lie in [0,1], got {p}"),
            });
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `np`.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `np(1−p)`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Log probability mass `ln Pr[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }

    /// Probability mass `Pr[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Cumulative distribution `Pr[X ≤ k] = I_{1−p}(n−k, k+1)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0;
        }
        beta_inc((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
            .expect("arguments validated at construction")
    }

    /// Survival function `Pr[X ≥ k]` (inclusive right tail, matching the
    /// LoFreq convention used throughout the workspace).
    pub fn sf(&self, k: u64) -> f64 {
        if k == 0 {
            return 1.0;
        }
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return 0.0;
        }
        if self.p == 1.0 {
            return 1.0;
        }
        beta_inc(k as f64, (self.n - k + 1) as f64, self.p)
            .expect("arguments validated at construction")
    }
}

/// Result of a Fisher exact test on a 2×2 table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherExact {
    /// Two-sided p-value (sum of all tables with pmf ≤ observed pmf).
    pub two_sided: f64,
    /// Left tail `Pr[X ≤ a]` under the hypergeometric null.
    pub less: f64,
    /// Right tail `Pr[X ≥ a]` under the hypergeometric null.
    pub greater: f64,
}

/// Fisher's exact test on the table `[[a, b], [c, d]]`.
///
/// For strand bias: `a` = variant reads on forward strand, `b` = variant on
/// reverse, `c` = reference on forward, `d` = reference on reverse.
///
/// The hypergeometric pmf is stepped by its ratio
/// `w(x+1)/w(x) = (c₁ − x)(r₁ − x) / ((x + 1)(n − c₁ − r₁ + x + 1))`
/// outwards from the mode, where `w = 1`, so each term costs one division
/// and no `ln Γ`; every term is then `≤ 1`, and those past the `f64` range
/// underflow to zero (and end the walk). The tails are the weights over
/// their sum. Nothing is allocated.
pub fn fisher_exact(a: u64, b: u64, c: u64, d: u64) -> FisherExact {
    let row1 = a + b;
    let col1 = a + c;
    let n = a + b + c + d;
    if n == 0 {
        return FisherExact {
            two_sided: 1.0,
            less: 1.0,
            greater: 1.0,
        };
    }
    // Support of the hypergeometric: max(0, row1+col1−n) ≤ x ≤ min(row1, col1).
    let lo = row1.saturating_add(col1).saturating_sub(n);
    let hi = row1.min(col1);
    let mode = ((row1 as u128 + 1) * (col1 as u128 + 1) / (n as u128 + 2)) as u64;
    let mode = mode.clamp(lo, hi);
    // w(x ± 1) from w(x); `n + x + 1 ≥ row1 + col1 + 1` on the support.
    let up = |x: u64, w: f64| {
        w * ((col1 - x) as f64 * (row1 - x) as f64)
            / ((x + 1) as f64 * (n + x + 1 - col1 - row1) as f64)
    };
    let down = |x: u64, w: f64| {
        w * (x as f64 * (n + x - col1 - row1) as f64)
            / ((col1 - x + 1) as f64 * (row1 - x + 1) as f64)
    };
    // The observed weight, stepped exactly as the sums below step it.
    let mut observed = 1.0;
    let mut x = mode;
    while x > a {
        observed = down(x, observed);
        x -= 1;
    }
    while x < a {
        observed = up(x, observed);
        x += 1;
    }
    // Tolerance guards against ties broken by roundoff, mirroring R's
    // fisher.test behaviour (relative slack 1e−7).
    let cutoff = observed * 1e-7f64.exp();
    let (mut less, mut greater, mut two, mut total) = (0.0, 0.0, 0.0, 0.0);
    let mut add = |x: u64, w: f64| {
        total += w;
        if x <= a {
            less += w;
        }
        if x >= a {
            greater += w;
        }
        if w <= cutoff {
            two += w;
        }
    };
    let (mut x, mut w) = (mode, 1.0);
    add(x, w);
    while x > lo && w > 0.0 {
        w = down(x, w);
        x -= 1;
        add(x, w);
    }
    let (mut x, mut w) = (mode, 1.0);
    while x < hi && w > 0.0 {
        w = up(x, w);
        x += 1;
        add(x, w);
    }
    FisherExact {
        two_sided: (two / total).min(1.0),
        less: (less / total).min(1.0),
        greater: (greater / total).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-30)
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = Binomial::new(25, 0.3).unwrap();
        let total: f64 = (0..=25).map(|k| d.pmf(k)).sum();
        assert!(close(total, 1.0, 1e-12), "{total}");
    }

    #[test]
    fn cdf_matches_partial_sums() {
        let d = Binomial::new(30, 0.42).unwrap();
        let mut acc = 0.0;
        for k in 0..=30 {
            acc += d.pmf(k);
            assert!(close(d.cdf(k), acc, 1e-9), "k={k}");
        }
    }

    #[test]
    fn sf_is_inclusive() {
        let d = Binomial::new(20, 0.1).unwrap();
        for k in 0..=21u64 {
            let direct: f64 = (k..=20).map(|j| d.pmf(j)).sum();
            assert!(
                close(d.sf(k), direct, 1e-9),
                "k={k}: {} vs {direct}",
                d.sf(k)
            );
        }
    }

    #[test]
    fn degenerate_p_values() {
        let zero = Binomial::new(10, 0.0).unwrap();
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.sf(1), 0.0);
        assert_eq!(zero.cdf(0), 1.0);
        let one = Binomial::new(10, 1.0).unwrap();
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.sf(10), 1.0);
        assert_eq!(one.cdf(9), 0.0);
    }

    #[test]
    fn invalid_p_rejected() {
        assert!(Binomial::new(5, -0.1).is_err());
        assert!(Binomial::new(5, 1.1).is_err());
    }

    #[test]
    fn fisher_balanced_table_not_significant() {
        let r = fisher_exact(5, 5, 50, 50);
        assert!(r.two_sided > 0.99, "{:?}", r);
    }

    #[test]
    fn fisher_skewed_table_significant() {
        // All 10 variant reads on one strand while reference is balanced.
        let r = fisher_exact(10, 0, 50, 50);
        assert!(r.two_sided < 0.01, "{:?}", r);
        assert!(r.greater < 0.01);
    }

    #[test]
    fn fisher_reference_value() {
        // Classic tea-tasting table [[3,1],[1,3]]: two-sided p ≈ 0.4857.
        let r = fisher_exact(3, 1, 1, 3);
        assert!(close(r.two_sided, 0.485_714_285_714_285_7, 1e-9), "{:?}", r);
        // One-sided (greater) = 0.242857...
        assert!(close(r.greater, 0.242_857_142_857_142_85, 1e-9), "{:?}", r);
    }

    #[test]
    fn fisher_tails_cover_distribution() {
        // less + greater = 1 + Pr[X = a].
        let (a, b, c, d) = (4u64, 6, 9, 3);
        let r = fisher_exact(a, b, c, d);
        let row1 = a + b;
        let col1 = a + c;
        let n = a + b + c + d;
        let pa = (ln_choose(col1, a) + ln_choose(n - col1, row1 - a) - ln_choose(n, row1)).exp();
        assert!(close(r.less + r.greater, 1.0 + pa, 1e-9));
    }

    /// The per-term form: every term's pmf from three `ln C`. The referee
    /// for the stepped pmf.
    fn fisher_per_term(a: u64, b: u64, c: u64, d: u64) -> FisherExact {
        let (row1, col1, n) = (a + b, a + c, a + b + c + d);
        let lo = (row1 + col1).saturating_sub(n);
        let ln_pmf =
            |x: u64| ln_choose(col1, x) + ln_choose(n - col1, row1 - x) - ln_choose(n, row1);
        let cutoff = ln_pmf(a) + 1e-7;
        let (mut less, mut greater, mut two) = (0.0, 0.0, 0.0);
        for x in lo..=row1.min(col1) {
            let (lp, p) = (ln_pmf(x), ln_pmf(x).exp());
            less += if x <= a { p } else { 0.0 };
            greater += if x >= a { p } else { 0.0 };
            two += if lp <= cutoff { p } else { 0.0 };
        }
        FisherExact {
            two_sided: two.min(1.0),
            less: less.min(1.0),
            greater: greater.min(1.0),
        }
    }

    #[test]
    fn fisher_matches_the_per_term_form() {
        // Strand tables shaped like the caller's: DP4 at depths 10–100,000,
        // variant fractions from one read to half the column, balanced and
        // one-sided strands.
        let mut rng = crate::rng::Rng::new(42);
        let mut worst: f64 = 0.0;
        for depth in [10u64, 300, 3_000, 30_000, 100_000] {
            for _ in 0..40 {
                let alt = 1 + rng.range_u64(0, depth / 2);
                let reference = depth - alt;
                let alt_fwd = rng.range_u64(0, alt);
                let ref_fwd = rng.range_u64(reference / 3, 2 * reference / 3);
                let table = (alt_fwd, alt - alt_fwd, ref_fwd, reference - ref_fwd);
                let got = fisher_exact(table.0, table.1, table.2, table.3);
                let want = fisher_per_term(table.0, table.1, table.2, table.3);
                for (g, w) in [
                    (got.two_sided, want.two_sided),
                    (got.less, want.less),
                    (got.greater, want.greater),
                ] {
                    // Tails the per-term form underflows are tiny in both.
                    if w > 1e-290 {
                        worst = worst.max((g - w).abs() / w);
                    } else {
                        assert!(g < 1e-280, "{table:?}: {g:e} vs {w:e}");
                    }
                }
            }
        }
        assert!(worst < 1e-9, "worst relative error {worst:e}");
    }

    #[test]
    fn fisher_symmetric_tables_keep_their_ties() {
        // Mirror-image tables have equal pmf terms on both sides; the 1e−7
        // slack must count both, as the per-term form does.
        for (a, b, c, d) in [(3, 1, 1, 3), (10, 0, 0, 10), (7, 3, 3, 7), (0, 5, 5, 0)] {
            let got = fisher_exact(a, b, c, d).two_sided;
            let want = fisher_per_term(a, b, c, d).two_sided;
            assert!(
                close(got, want, 1e-12),
                "{:?}: {got} vs {want}",
                (a, b, c, d)
            );
        }
        assert_eq!(fisher_exact(5, 5, 50, 50).two_sided, 1.0);
    }

    #[test]
    fn fisher_empty_and_degenerate_tables() {
        assert_eq!(fisher_exact(0, 0, 0, 0).two_sided, 1.0);
        let r = fisher_exact(0, 10, 0, 10);
        assert!(r.two_sided > 0.999);
    }
}
