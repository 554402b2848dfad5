//! Property-based tests for the numerics substrate.
//!
//! These pin down the invariants the variant caller leans on: exact kernels
//! agree with each other, tails are monotone, approximations respect the
//! Le Cam guarantee, and the early-exit DP never lies.

use proptest::prelude::*;
use ultravc_stats::poisson::Poisson;
use ultravc_stats::poisson_binomial::{PoissonBinomial, TailBudget, TailOutcome};
use ultravc_stats::specfun::{beta_inc, gamma_p, gamma_q};
use ultravc_stats::{le_cam_bound, poisson_tail};

/// Strategy: a vector of plausible per-read error probabilities. Phred 10–50
/// corresponds to p ∈ [1e−5, 0.1]; include some larger values to stress the
/// kernels outside the comfortable regime.
fn prob_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..=0.5f64, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pmf_is_a_distribution(probs in prob_vec(120)) {
        let pb = PoissonBinomial::new(probs).unwrap();
        let pmf = pb.pmf();
        let total: f64 = pmf.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        for (k, &m) in pmf.iter().enumerate() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&m), "pmf[{k}] = {m}");
        }
    }

    #[test]
    fn pruned_tail_matches_the_pmf_suffix_sum(probs in prob_vec(80), k_frac in 0.0..1.2f64) {
        let d = probs.len();
        let k = ((d as f64) * k_frac) as usize;
        let pb = PoissonBinomial::new(probs).unwrap();
        let suffix: f64 = pb.pmf().iter().skip(k).sum();
        let pruned = pb.tail_pruned(k);
        prop_assert!((suffix - pruned).abs() < 1e-9, "pmf suffix {suffix} vs pruned {pruned}");
    }

    #[test]
    fn tail_is_monotone_in_k(probs in prob_vec(60)) {
        let pb = PoissonBinomial::new(probs.clone()).unwrap();
        let mut prev = 1.0f64;
        for k in 0..=probs.len() + 1 {
            let t = pb.tail_pruned(k);
            prop_assert!(t <= prev + 1e-12, "k={k}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn adding_a_trial_never_decreases_the_tail(probs in prob_vec(50), extra in 0.0..=0.5f64, k in 1usize..20) {
        // Monotonicity in n is exactly what justifies the early-exit DP.
        let base = PoissonBinomial::new(probs.clone()).unwrap();
        let mut bigger = probs;
        bigger.push(extra);
        let grown = PoissonBinomial::new(bigger).unwrap();
        prop_assert!(grown.tail_pruned(k) + 1e-12 >= base.tail_pruned(k));
    }

    #[test]
    fn early_exit_is_sound(probs in prob_vec(100), k in 1usize..30, bail in 0.001..0.5f64) {
        let pb = PoissonBinomial::new(probs).unwrap();
        let exact = pb.tail_pruned(k);
        match pb.tail_early_exit(k, TailBudget { bail_above: bail }) {
            TailOutcome::Exact(p) => {
                prop_assert!((p - exact).abs() < 1e-12);
                prop_assert!(p <= bail + 1e-12, "completed DP implies tail ≤ bail");
            }
            TailOutcome::Bailed { lower_bound, trials_used } => {
                prop_assert!(lower_bound > bail);
                prop_assert!(exact + 1e-12 >= lower_bound, "bound not conservative");
                prop_assert!(trials_used <= pb.len());
            }
        }
    }

    #[test]
    fn poisson_approx_respects_le_cam(probs in prop::collection::vec(0.0..=0.1f64, 1..200), k in 0usize..40) {
        let pb = PoissonBinomial::new(probs.clone()).unwrap();
        let exact = pb.tail_pruned(k);
        let approx = poisson_tail(&probs, k);
        let bound = le_cam_bound(&probs);
        prop_assert!(
            (exact - approx).abs() <= bound + 1e-9,
            "|{exact} − {approx}| > {bound}"
        );
    }

    #[test]
    fn gamma_complementarity(a in 0.1..500.0f64, x in 0.0..800.0f64) {
        let p = gamma_p(a, x).unwrap();
        let q = gamma_q(a, x).unwrap();
        prop_assert!((p + q - 1.0).abs() < 1e-9, "P {p} + Q {q} ≠ 1");
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn beta_inc_bounds_and_symmetry(a in 0.1..50.0f64, b in 0.1..50.0f64, x in 0.0..=1.0f64) {
        let v = beta_inc(a, b, x).unwrap();
        prop_assert!((0.0..=1.0).contains(&v));
        let mirror = 1.0 - beta_inc(b, a, 1.0 - x).unwrap();
        prop_assert!((v - mirror).abs() < 1e-8, "{v} vs {mirror}");
    }

    #[test]
    fn poisson_sf_cdf_partition(lambda in 0.0..2000.0f64, k in 1u64..3000) {
        let d = Poisson::new(lambda).unwrap();
        let total = d.sf(k) + d.cdf(k - 1);
        prop_assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn binomial_special_case_of_poisson_binomial(n in 1usize..40, p in 0.0..=1.0f64, k_frac in 0.0..1.0f64) {
        let k = ((n as f64) * k_frac) as usize;
        let pb = PoissonBinomial::new(vec![p; n]).unwrap();
        let bin = ultravc_stats::binomial::Binomial::new(n as u64, p).unwrap();
        prop_assert!((pb.tail_pruned(k) - bin.sf(k as u64)).abs() < 1e-9);
    }
}
