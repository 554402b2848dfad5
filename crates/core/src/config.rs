//! Caller configuration.

use serde::{Deserialize, Serialize};
use ultravc_pileup::PileupParams;

/// Multiple-testing correction for the per-column significance threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bonferroni {
    /// Correct by the number of columns in the called region × 3 possible
    /// alternate alleles — LoFreq's "dynamic" default.
    Auto,
    /// A fixed factor.
    Fixed(f64),
    /// No correction (each column tested at raw `ε`).
    None,
}

impl Bonferroni {
    /// The factor for a region of `n_columns`.
    pub fn factor(&self, n_columns: usize) -> f64 {
        match self {
            Bonferroni::Auto => (n_columns as f64 * 3.0).max(1.0),
            Bonferroni::Fixed(f) => f.max(1.0),
            Bonferroni::None => 1.0,
        }
    }
}

/// Full caller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallerConfig {
    /// Significance level `ε` (paper default 0.05).
    pub sig_level: f64,
    /// Multiple-testing correction.
    pub bonferroni: Bonferroni,
    /// The certified screens on both sides and the exact DP's bail at the
    /// corrected threshold ([`crate::pvalue`] states the skip contract);
    /// `false` reproduces *original* LoFreq.
    pub shortcut: bool,
    /// Pileup filters and depth cap.
    #[serde(skip, default)]
    pub pileup: PileupParams,
}

impl Default for CallerConfig {
    fn default() -> Self {
        CallerConfig {
            sig_level: 0.05,
            bonferroni: Bonferroni::Auto,
            shortcut: true,
            pileup: PileupParams::default(),
        }
    }
}

impl CallerConfig {
    /// Original LoFreq: no approximation shortcut, early exit on.
    pub fn original() -> CallerConfig {
        CallerConfig {
            shortcut: false,
            ..CallerConfig::default()
        }
    }

    /// The improved caller (the paper's contribution) — same as `default`.
    pub fn improved() -> CallerConfig {
        CallerConfig::default()
    }

    /// The per-column significance threshold for a region of `n_columns`:
    /// `ε / B`.
    pub fn column_threshold(&self, n_columns: usize) -> f64 {
        self.sig_level / self.bonferroni.factor(n_columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonferroni_factors() {
        assert_eq!(Bonferroni::Auto.factor(1_000), 3_000.0);
        assert_eq!(Bonferroni::Auto.factor(0), 1.0);
        assert_eq!(Bonferroni::Fixed(42.0).factor(9), 42.0);
        assert_eq!(Bonferroni::Fixed(0.5).factor(9), 1.0, "clamped to ≥ 1");
        assert_eq!(Bonferroni::None.factor(1_000_000), 1.0);
    }

    #[test]
    fn presets_differ_only_in_shortcut() {
        let orig = CallerConfig::original();
        let imp = CallerConfig::improved();
        assert!(!orig.shortcut);
        assert!(imp.shortcut);
        assert_eq!(
            CallerConfig {
                shortcut: true,
                ..orig
            },
            imp
        );
    }

    #[test]
    fn column_threshold_math() {
        let cfg = CallerConfig {
            bonferroni: Bonferroni::Fixed(100.0),
            ..CallerConfig::default()
        };
        assert!((cfg.column_threshold(123) - 0.0005).abs() < 1e-12);
        let raw = CallerConfig {
            bonferroni: Bonferroni::None,
            ..CallerConfig::default()
        };
        assert_eq!(raw.column_threshold(123), 0.05);
    }

    #[test]
    fn shortcut_defaults_match_paper() {
        let cfg = CallerConfig::default();
        assert!(cfg.shortcut, "the improved caller is the default");
        assert_eq!((cfg.sig_level, cfg.bonferroni), (0.05, Bonferroni::Auto));
        // LoFreq's dynamic correction: ε over three alleles per column.
        assert_eq!(cfg.column_threshold(30_000), 0.05 / 90_000.0);
    }
}
