//! Runtime backend selection: one `cpuid` probe per process, cached in a
//! [`OnceLock`]; every later call is an atomic load.
//!
//! See the crate docs for the dispatch diagram and the recipe for adding
//! a backend.

use crate::kernels as imp;
use std::sync::OnceLock;

/// Signature of the compensated convolution entry: `(b, f, g, comp)`.
pub type ConvFoldCompensatedFn = fn(&[f64], &[f64], &mut [f64], &mut [f64]);

/// A backend's kernel table. Entries are plain function pointers so the
/// per-call overhead is one indirect call — negligible against loop
/// bodies that process whole columns or DP vectors.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Backend name, surfaced in run stats and bench output
    /// (`"scalar"`, `"avx2"`, `"neon"`).
    pub name: &'static str,
    /// Truncated-binomial convolution `g[t] = Σ_{i≤min(t,cut)} b[i]·f[t−i]`
    /// with compensated (Neumaier-bound) accumulation; arguments
    /// `(b, f, g, comp)` where `comp` is scratch of at least `g.len()`
    /// elements. Requires `f.len() ≥ g.len()`.
    pub conv_fold_compensated: ConvFoldCompensatedFn,
    /// Binomial pmf prefix `b[i] = C(m,i)pⁱq^{m−i}` from `b0 = q^m` and
    /// `ratio = p/q` (two-pass ratio recurrence).
    pub binomial_pmf: fn(b: &mut [f64], m: u64, ratio: f64, b0: f64),
    /// Widening sum of a `u32` histogram slice.
    pub sum_u32: fn(counts: &[u32]) -> u64,
    /// Element-wise `dst[i] += src[i]` (histogram group aggregation; the
    /// caller guarantees no overflow).
    pub accumulate_u32: fn(dst: &mut [u32], src: &[u32]),
}

/// The scalar reference backend: the binned DP's loops exactly as they
/// shipped pre-SIMD. Always available; pinned by `ULTRAVC_FORCE_SCALAR`.
static SCALAR: Kernels = Kernels {
    name: "scalar",
    conv_fold_compensated: imp::conv_fold_compensated_scalar,
    binomial_pmf: binomial_pmf_baseline,
    sum_u32: sum_u32_baseline,
    accumulate_u32: accumulate_u32_baseline,
};

// Baseline-ISA monomorphizations of the shared generic kernels (the
// `fn`-pointer table needs concrete, non-`inline(always)` symbols).
fn binomial_pmf_baseline(b: &mut [f64], m: u64, ratio: f64, b0: f64) {
    imp::binomial_pmf_two_pass(b, m, ratio, b0);
}
fn sum_u32_baseline(counts: &[u32]) -> u64 {
    imp::sum_u32_impl(counts)
}
fn accumulate_u32_baseline(dst: &mut [u32], src: &[u32]) {
    imp::accumulate_u32_impl(dst, src);
}

/// AVX2+FMA backend: the generic lane kernels monomorphized inside
/// `#[target_feature(enable = "avx2,fma")]` functions, so LLVM lowers
/// [`crate::F64Lanes<4>`] blocks to 256-bit `ymm` operations.
#[cfg(all(feature = "arch", target_arch = "x86_64"))]
#[allow(unsafe_code)] // `#[target_feature]` wrappers; safety contract above
mod avx2 {
    use crate::kernels as imp;

    // SAFETY CONTRACT (applies to every wrapper below): the `AVX2` table
    // is only ever handed out by `detect()`/`available()` after
    // `is_x86_feature_detected!` confirmed avx2+fma on this CPU, so the
    // `unsafe` target-feature call inside each wrapper is reached only
    // when the features exist. The debug assertion re-checks this.
    macro_rules! avx2_wrapper {
        ($wrapper:ident, $inner:ident, $impl:path,
         fn($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $inner($($arg: $ty),*) $(-> $ret)? {
                $impl($($arg),*)
            }
            pub(super) fn $wrapper($($arg: $ty),*) $(-> $ret)? {
                debug_assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "avx2 kernel table used on a CPU without avx2"
                );
                // SAFETY: see the module-level contract above.
                unsafe { $inner($($arg),*) }
            }
        };
    }

    avx2_wrapper!(
        conv_fold_compensated,
        conv_fold_compensated_tf,
        imp::conv_fold_compensated_lanes,
        fn(b: &[f64], f: &[f64], g: &mut [f64], comp: &mut [f64])
    );
    avx2_wrapper!(
        binomial_pmf,
        binomial_pmf_tf,
        imp::binomial_pmf_two_pass,
        fn(b: &mut [f64], m: u64, ratio: f64, b0: f64)
    );
    avx2_wrapper!(
        sum_u32,
        sum_u32_tf,
        imp::sum_u32_impl,
        fn(counts: &[u32]) -> u64
    );
    avx2_wrapper!(
        accumulate_u32,
        accumulate_u32_tf,
        imp::accumulate_u32_impl,
        fn(dst: &mut [u32], src: &[u32])
    );

    pub(super) static AVX2: super::Kernels = super::Kernels {
        name: "avx2",
        conv_fold_compensated,
        binomial_pmf,
        sum_u32,
        accumulate_u32,
    };
}

/// NEON backend: aarch64 guarantees NEON in its baseline ISA, so the lane
/// kernels need no `target_feature` gate — the compiler already emits
/// NEON for them. The separate table exists so the axpy-restructured
/// loops (rather than the branchy scalar reference) run by default, and
/// so stats report the vector path honestly.
#[cfg(all(feature = "arch", target_arch = "aarch64"))]
mod neon {
    use crate::kernels as imp;

    fn conv_fold_compensated(b: &[f64], f: &[f64], g: &mut [f64], comp: &mut [f64]) {
        imp::conv_fold_compensated_lanes(b, f, g, comp);
    }

    pub(super) static NEON: super::Kernels = super::Kernels {
        name: "neon",
        conv_fold_compensated,
        binomial_pmf: super::binomial_pmf_baseline,
        sum_u32: super::sum_u32_baseline,
        accumulate_u32: super::accumulate_u32_baseline,
    };
}

/// The scalar reference backend (always present). Benchmarks and the
/// agreement tests use this as the comparison baseline regardless of
/// what [`kernels`] dispatched.
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// Problem-size threshold for [`Kernels::for_k`]: convolutions whose
/// truncation cut `K` is below this run the scalar kernels. A K-truncated
/// `conv_fold_compensated` touches at most `K+1` lanes of `b` per output
/// element, so for tiny K the vector kernels spend their time in remainder
/// handling and the wider loads buy nothing — the scalar loop is at parity
/// or ahead, and keeps the icache footprint smaller.
pub const SMALL_K_THRESHOLD: usize = 16;

impl Kernels {
    /// Route a K-truncated convolution: tables stay as dispatched for
    /// `k >= SMALL_K_THRESHOLD`, tiny problems fall back to the scalar
    /// reference. Bitwise-neutral by construction — both tables compute
    /// the identical truncated sum — so callers may apply it per-column
    /// without perturbing results.
    pub fn for_k(&self, k: usize) -> &Kernels {
        if k < SMALL_K_THRESHOLD {
            scalar()
        } else {
            self
        }
    }
}

/// Every backend usable on this host, scalar first. The proptest suite
/// runs the whole list pairwise so an undetectable backend is skipped
/// (not silently assumed) on machines that lack it.
pub fn available() -> Vec<&'static Kernels> {
    #[allow(unused_mut)]
    let mut list = vec![&SCALAR];
    #[cfg(all(feature = "arch", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        list.push(&avx2::AVX2);
    }
    #[cfg(all(feature = "arch", target_arch = "aarch64"))]
    list.push(&neon::NEON);
    list
}

/// True when the environment pins the scalar backend.
fn force_scalar_env() -> bool {
    parse_force_scalar(std::env::var("ULTRAVC_FORCE_SCALAR").ok().as_deref())
}

/// `ULTRAVC_FORCE_SCALAR` accepts the usual truthy spellings; anything
/// else (including unset and `0`) means "dispatch normally".
fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(
        value.map(str::trim),
        Some("1") | Some("true") | Some("TRUE") | Some("yes") | Some("on")
    )
}

/// Backend selection given the override flag — the pure core of
/// [`kernels`], separated so tests can exercise both branches without
/// mutating the process environment.
fn select(force_scalar: bool) -> &'static Kernels {
    if force_scalar {
        return &SCALAR;
    }
    available().last().expect("scalar backend always present")
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The process-wide active kernel table.
///
/// First call probes the CPU (honoring `ULTRAVC_FORCE_SCALAR`) and caches
/// the winner; subsequent calls are an atomic load. The choice is
/// intentionally immutable for the process lifetime — a run must not mix
/// backends between columns (they agree bitwise, but perf accounting and
/// the reported kernel name should be single-valued).
pub fn kernels() -> &'static Kernels {
    ACTIVE.get_or_init(|| select(force_scalar_env()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_listed_first() {
        let list = available();
        assert_eq!(list[0].name, "scalar");
        assert!(!list.is_empty());
    }

    #[test]
    fn force_scalar_parsing() {
        for truthy in ["1", "true", "TRUE", "yes", "on", " 1 "] {
            assert!(parse_force_scalar(Some(truthy)), "{truthy:?}");
        }
        for falsy in [
            None,
            Some("0"),
            Some(""),
            Some("false"),
            Some("2"),
            Some("off"),
        ] {
            assert!(!parse_force_scalar(falsy), "{falsy:?}");
        }
    }

    #[test]
    fn select_honors_override() {
        assert_eq!(select(true).name, "scalar");
        let free = select(false);
        assert!(available().iter().any(|k| k.name == free.name));
    }

    #[test]
    fn dispatch_is_cached_and_consistent() {
        let a = kernels();
        let b = kernels();
        assert!(std::ptr::eq(a, b), "OnceLock must cache the table");
        assert!(!a.name.is_empty());
    }

    #[test]
    fn for_k_routes_small_problems_to_scalar() {
        for k in available() {
            // Below the threshold: always the scalar table.
            for small in [0, 1, SMALL_K_THRESHOLD - 1] {
                assert!(
                    std::ptr::eq(k.for_k(small), scalar()),
                    "{} k={small}",
                    k.name
                );
            }
            // At and above: the dispatched table, untouched.
            for big in [SMALL_K_THRESHOLD, SMALL_K_THRESHOLD + 1, 1 << 20] {
                assert!(std::ptr::eq(k.for_k(big), k), "{} k={big}", k.name);
            }
        }
        // The scalar table routes to itself everywhere.
        assert!(std::ptr::eq(scalar().for_k(3), scalar()));
        assert!(std::ptr::eq(scalar().for_k(300), scalar()));
    }

    #[cfg(all(feature = "arch", target_arch = "x86_64"))]
    #[test]
    fn avx2_listed_iff_detected() {
        let has = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        let listed = available().iter().any(|k| k.name == "avx2");
        assert_eq!(has, listed);
    }
}
