//! Caller configuration.

use serde::{Deserialize, Serialize};
use ultravc_pileup::PileupParams;

/// Which exact tail kernel computes `Pr[X ≥ K]` when a column falls
/// through the screen; the non-default engines are reference kernels for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PvalueEngine {
    /// Pruned DP with LoFreq's early exit (production default). Runs the
    /// grouped-trial binned kernel — `O(#bins·K²)` per column instead of
    /// `O(d·K)` — over the pileup quality histogram.
    PrunedDp,
    /// Full `O(d²)` DP (the recurrence as printed in the paper; reference).
    FullDp,
    /// DFT of the characteristic function (Hong 2013).
    DftCf,
}

/// The approximation shortcut's tuning (§II.A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShortcutParams {
    /// Safety margin above the significance level: skip the exact
    /// computation only when `p̂ ≥ ε + delta`. Paper default 0.01, chosen
    /// "intentionally conservative".
    pub delta: f64,
    /// Minimum column depth for the shortcut. Below this the Poisson error
    /// bound is weak and the pruned DP fits in cache anyway; paper uses
    /// 100.
    pub min_depth: usize,
}

impl Default for ShortcutParams {
    fn default() -> Self {
        ShortcutParams {
            delta: 0.01,
            min_depth: 100,
        }
    }
}

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
    /// The approximation shortcut; `None` reproduces *original* LoFreq.
    /// `Some` also arms the certified upper bound on the accept side (it
    /// has no tuning of its own: see `ColumnTest::test`).
    pub shortcut: Option<ShortcutParams>,
    /// Exact-kernel choice.
    pub engine: PvalueEngine,
    /// Pileup filters and depth cap.
    #[serde(skip, default)]
    pub pileup: PileupParams,
    /// Use the exact DP's early-exit optimization (LoFreq has it; turning
    /// it off isolates the shortcut's contribution in ablations).
    pub early_exit: bool,
}

impl Default for CallerConfig {
    fn default() -> Self {
        CallerConfig {
            sig_level: 0.05,
            bonferroni: Bonferroni::Auto,
            shortcut: Some(ShortcutParams::default()),
            engine: PvalueEngine::PrunedDp,
            pileup: PileupParams::default(),
            early_exit: true,
        }
    }
}

impl CallerConfig {
    /// Original LoFreq: no approximation shortcut, early exit on.
    pub fn original() -> CallerConfig {
        CallerConfig {
            shortcut: None,
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
        assert!(orig.shortcut.is_none());
        assert!(imp.shortcut.is_some());
        assert_eq!(orig.sig_level, imp.sig_level);
        assert_eq!(orig.engine, imp.engine);
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
        let s = ShortcutParams::default();
        assert_eq!(s.delta, 0.01);
        assert_eq!(s.min_depth, 100);
        assert_eq!(CallerConfig::default().sig_level, 0.05);
    }
}
