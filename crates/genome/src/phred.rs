//! Phred quality scores and their probability semantics.
//!
//! A Phred score `Q` asserts the base-call error probability
//! `p = 10^(−Q/10)`. The entire LoFreq model is built on taking that
//! assertion literally: each read contributes a Bernoulli error trial with
//! its own `p_i`, which is why the null distribution is Poisson-binomial
//! rather than plain binomial.

use serde::{Deserialize, Serialize};

/// The standard FASTQ ASCII offset (Sanger / Illumina 1.8+).
pub const PHRED_ASCII_OFFSET: u8 = 33;

/// Highest score the workspace emits; Illumina instruments cap around Q41,
/// and `(126 − 33) = 93` is the representable ceiling.
pub const MAX_PHRED: u8 = 93;

/// A Phred-scaled base quality score.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Phred(pub u8);

impl Phred {
    /// Construct, clamping to the representable range.
    #[inline]
    pub fn new(q: u8) -> Phred {
        Phred(q.min(MAX_PHRED))
    }

    /// The asserted error probability `10^(−Q/10)`.
    #[inline]
    pub fn error_prob(self) -> f64 {
        phred_to_prob(self.0)
    }

    /// FASTQ ASCII character for this score.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        self.0 + PHRED_ASCII_OFFSET
    }

    /// Parse a FASTQ ASCII quality character.
    #[inline]
    pub fn from_ascii(c: u8) -> Option<Phred> {
        if (PHRED_ASCII_OFFSET..=PHRED_ASCII_OFFSET + MAX_PHRED).contains(&c) {
            Some(Phred(c - PHRED_ASCII_OFFSET))
        } else {
            None
        }
    }
}

impl std::fmt::Display for Phred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// The compile-time `10^(−q/10)` lookup table backing [`phred_to_prob`]
/// and [`phred_prob_table`].
static PHRED_TABLE: [f64; MAX_PHRED as usize + 1] = build_phred_table();

/// `Q → p`: the error probability asserted by a Phred score.
///
/// Table lookup: this sits on the caller's hottest path (the `O(d)` screen
/// evaluates it once per read per column — hundreds of millions of times on
/// an ultra-deep sample), and a `powf` here would cost as much as the DP
/// work the screen exists to avoid. LoFreq keeps the same table.
#[inline]
pub fn phred_to_prob(q: u8) -> f64 {
    PHRED_TABLE[(q as usize).min(MAX_PHRED as usize)]
}

/// The whole `Q → p` table, indexed by Phred score.
///
/// Quality-binned consumers (the pileup column histogram, the grouped-trial
/// DP kernels) iterate this table once per column instead of calling
/// [`phred_to_prob`] once per read — the representation change that makes
/// per-column cost scale with the number of *distinct* qualities rather
/// than depth.
#[inline]
pub fn phred_prob_table() -> &'static [f64; MAX_PHRED as usize + 1] {
    &PHRED_TABLE
}

/// Compile-time construction of the `10^(−q/10)` table.
const fn build_phred_table() -> [f64; MAX_PHRED as usize + 1] {
    // `powf` is not const; build from the five exact decade values and the
    // ten within-decade multipliers 10^(−j/10), j = 0..9, precomputed to
    // full f64 precision.
    const STEP: [f64; 10] = [
        1.0,
        0.794_328_234_724_281_5,
        0.630_957_344_480_193_2,
        0.501_187_233_627_272_2,
        0.398_107_170_553_497_25,
        0.316_227_766_016_837_94,
        0.251_188_643_150_958,
        0.199_526_231_496_887_96,
        0.158_489_319_246_111_35,
        0.125_892_541_179_416_73,
    ];
    let mut table = [0.0f64; MAX_PHRED as usize + 1];
    let mut q = 0usize;
    while q <= MAX_PHRED as usize {
        let decade = q / 10;
        let within = q % 10;
        // 10^(−decade) exactly, by repeated division.
        let mut scale = 1.0f64;
        let mut i = 0;
        while i < decade {
            scale /= 10.0;
            i += 1;
        }
        table[q] = scale * STEP[within];
        q += 1;
    }
    table
}

/// `p → Q`: the Phred score for an error probability, rounded to the
/// nearest integer and clamped to `[0, MAX_PHRED]`. `p ≤ 0` saturates at the
/// maximum score.
#[inline]
pub fn prob_to_phred(p: f64) -> u8 {
    if p <= 0.0 {
        return MAX_PHRED;
    }
    if p >= 1.0 {
        return 0;
    }
    let q = -10.0 * p.log10();
    q.round().clamp(0.0, MAX_PHRED as f64) as u8
}

/// The largest QUAL [`phred_scale_pvalue`] reports
/// (< `−10·log₁₀(f64::MIN_POSITIVE)`, so underflowed p-values still render
/// as a large finite quality).
pub const QUAL_CAP: f64 = 3_000.0;

/// The p-value at which QUAL saturates: every `p ≤ QUAL_SATURATION_P`
/// is reported as exactly [`QUAL_CAP`], so below it the p-value's digits
/// no longer reach the VCF. The caller's certified upper bound
/// (`ultravc_core::pvalue`) takes its stopping point from this constant.
pub const QUAL_SATURATION_P: f64 = 1e-300;

/// Phred-scale a p-value for VCF QUAL columns: `−10·log₁₀(p)`, capped at
/// [`QUAL_CAP`] (reached at [`QUAL_SATURATION_P`]). Never `-0.0`: `p = 1`
/// scales to `+0.0`, which prints as `0`.
#[inline]
pub fn phred_scale_pvalue(p: f64) -> f64 {
    if p <= QUAL_SATURATION_P {
        return QUAL_CAP;
    }
    // `−10·log₁₀ 1` is `-0.0`, which `clamp` keeps; adding `+0.0` drops
    // the sign.
    (-10.0 * p.log10()).clamp(0.0, QUAL_CAP) + 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_values() {
        assert!((phred_to_prob(10) - 0.1).abs() < 1e-15);
        assert!((phred_to_prob(20) - 0.01).abs() < 1e-15);
        assert!((phred_to_prob(30) - 0.001).abs() < 1e-15);
        assert_eq!(phred_to_prob(0), 1.0);
    }

    #[test]
    fn prob_phred_roundtrip() {
        for q in 0..=MAX_PHRED {
            assert_eq!(prob_to_phred(phred_to_prob(q)), q, "Q{q}");
        }
    }

    #[test]
    fn prob_to_phred_saturation() {
        assert_eq!(prob_to_phred(0.0), MAX_PHRED);
        assert_eq!(prob_to_phred(-0.5), MAX_PHRED);
        assert_eq!(prob_to_phred(1.0), 0);
        assert_eq!(prob_to_phred(2.0), 0);
    }

    #[test]
    fn ascii_roundtrip() {
        for q in 0..=MAX_PHRED {
            let p = Phred::new(q);
            assert_eq!(Phred::from_ascii(p.to_ascii()), Some(p));
        }
        assert_eq!(Phred::from_ascii(b' '), None); // 32 < offset
        assert_eq!(Phred::from_ascii(127), None);
    }

    #[test]
    fn new_clamps() {
        assert_eq!(Phred::new(200).0, MAX_PHRED);
        assert_eq!(Phred::new(40).0, 40);
    }

    #[test]
    fn qual_char_examples() {
        // 'I' = Q40, '!' = Q0 — the classic FASTQ landmarks.
        assert_eq!(Phred::new(40).to_ascii(), b'I');
        assert_eq!(Phred::new(0).to_ascii(), b'!');
    }

    #[test]
    fn pvalue_scaling() {
        assert!((phred_scale_pvalue(0.01) - 20.0).abs() < 1e-12);
        assert!((phred_scale_pvalue(0.05) - 13.0103).abs() < 1e-3);
        assert_eq!(phred_scale_pvalue(1.0), 0.0);
        assert_eq!(phred_scale_pvalue(2.0), 0.0);
    }

    #[test]
    fn a_certain_pvalue_scales_to_positive_zero() {
        // `0.0 == -0.0`, so the sign needs its own check: a `-0.0` prints
        // as `-0` in the VCF's `{:.0}` fields.
        for p in [1.0, 2.0, 1.0 - f64::EPSILON / 4.0] {
            let q = phred_scale_pvalue(p);
            assert!(q == 0.0 && q.is_sign_positive(), "p = {p}: {q:?}");
        }
        assert_eq!(format!("{:.0}", phred_scale_pvalue(1.0)), "0");
    }

    #[test]
    fn cap_and_saturation_point_are_one_definition() {
        // The two exports must describe the same point of the same curve:
        // if either drifts, the certified upper bound in `core` would stop
        // short of (or past) the p-value at which QUAL stops changing.
        assert_eq!(QUAL_CAP, -10.0 * QUAL_SATURATION_P.log10());
        assert_eq!(phred_scale_pvalue(QUAL_SATURATION_P), QUAL_CAP);
        assert_eq!(phred_scale_pvalue(0.0), QUAL_CAP);
        assert_eq!(phred_scale_pvalue(-1.0), QUAL_CAP);
        assert_eq!(phred_scale_pvalue(f64::MIN_POSITIVE / 4.0), QUAL_CAP);
        // Just above the saturation point QUAL is still informative.
        assert!(phred_scale_pvalue(1e-299) < QUAL_CAP);
        assert!(QUAL_CAP < -10.0 * f64::MIN_POSITIVE.log10());
    }

    #[test]
    fn error_prob_method_agrees() {
        assert_eq!(Phred::new(20).error_prob(), phred_to_prob(20));
    }

    #[test]
    fn table_view_matches_scalar_lookup() {
        let table = phred_prob_table();
        assert_eq!(table.len(), MAX_PHRED as usize + 1);
        for q in 0..=MAX_PHRED {
            assert_eq!(table[q as usize], phred_to_prob(q), "Q{q}");
        }
    }

    #[test]
    fn table_matches_powf_to_ulp() {
        for q in 0..=MAX_PHRED {
            let table = phred_to_prob(q);
            let direct = 10f64.powf(-(q as f64) / 10.0);
            let rel = ((table - direct) / direct).abs();
            assert!(rel < 1e-14, "Q{q}: table {table} vs powf {direct}");
        }
    }
}
