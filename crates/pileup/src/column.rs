//! Pileup columns: the per-position stack of observed bases and qualities.
//!
//! # Representation: a quality histogram keyed by the file's dictionary
//!
//! A column stores **counts indexed by (base, strand, quality bin)** instead
//! of one packed entry per read. The bins are the file's [`QualityDict`] —
//! its distinct Phred scores, sorted descending, exactly as the BAL payload
//! stores each base's quality — so a column is `8 × n_bins` `u32` counters,
//! `counts[group * n_bins + bin]` with group = base code | strand << 2, and
//! the engine stacks a base by the bin index it decoded, with no lookup.
//! A learned dictionary has at most 40 bins (≤ 1.25 KB per column, however
//! deep); a file whose spectrum spilled, and a column built by hand with
//! [`PileupColumn::new`], use the identity dictionary of [`QUAL_SLOTS`]
//! bins, one per representable score. `QUAL_SLOTS` is therefore the most
//! bins any column has, never its usual size. A 1 000 000× ultra-deep
//! column is a few hundred counters instead of a 2 MB entry vector.
//!
//! That changes the complexity class of every per-column quantity:
//!
//! * `depth`, `base_counts`, `strand_counts`, `mismatch_count`, `top_alt`
//!   are sums over `8 × n_bins` counters — `O(1)` in depth;
//! * `λ = Σ p_i`, the input of the paper's `O(d)` Poisson screen, is read
//!   from the [`QualityBins`] view as `Σ count(q) · p(q)` — `O(n_bins)`,
//!   i.e. **independent of depth**;
//! * the exact Poisson-binomial kernels consume the same view —
//!   `(error probability, multiplicity)` pairs — and fold each bin of `m`
//!   identical Bernoulli trials in `O(K·min(m, K))` instead of `m` scalar
//!   DP steps (see `ultravc_stats::poisson_binomial`), for a total
//!   per-column cost of `O(K · Σ min(m, K))` instead of `O(d · K)` (equal
//!   when every bin is thinner than `K`; the kernel's tilt window cuts
//!   both factors to a few tilted standard deviations).
//!
//! The reductions over the histogram (`base_counts`, the bin aggregation)
//! run through the `ultravc_simd` runtime-dispatched kernel table, with
//! bitwise-identical results on the scalar fallback
//! (`ULTRAVC_FORCE_SCALAR=1`).
//!
//! Columns compare by content, not by dictionary: two columns are equal
//! when they hold the same count for every (base, strand, Phred score),
//! whichever dictionaries index them.
//!
//! The paper's Table I attributes its wins to shrinking the hot loop's
//! working set; the histogram is that insight applied to the column
//! representation itself. The trade-off is that per-read arrival order is
//! not representable: [`PileupColumn::iter`] yields entries grouped by
//! (strand, base, quality). No caller depends on arrival order — the
//! Poisson-binomial is exchangeable in its trials.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use ultravc_bamlite::QualityDict;
use ultravc_genome::alphabet::Base;
use ultravc_genome::phred::{phred_prob_table, phred_to_prob, Phred, MAX_PHRED};

/// Number of representable Phred scores (`0..=MAX_PHRED`) — the bin count
/// of the identity dictionary, and so the most bins a column can have.
pub const QUAL_SLOTS: usize = MAX_PHRED as usize + 1;

/// Number of (base, strand) groups: 4 bases × 2 strands.
const GROUPS: usize = 8;

/// One observed base in a column (unpacked view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PileupEntry {
    /// The observed base.
    pub base: Base,
    /// Its Phred quality.
    pub qual: Phred,
    /// Whether the carrying read aligned to the reverse strand.
    pub reverse: bool,
}

impl PileupEntry {
    /// Histogram group index: base code in bits `0..2`, strand in bit `2`.
    #[inline]
    fn group(self) -> usize {
        (self.base.code() | ((self.reverse as u8) << 2)) as usize
    }
}

/// The identity dictionary hand-built columns share.
fn identity_dict() -> &'static Arc<QualityDict> {
    static IDENTITY: OnceLock<Arc<QualityDict>> = OnceLock::new();
    IDENTITY.get_or_init(|| Arc::new(QualityDict::identity()))
}

/// A complete pileup column: a (base, strand, quality bin) count histogram.
#[derive(Clone, Serialize, Deserialize)]
pub struct PileupColumn {
    /// 0-based reference position.
    pub pos: u32,
    /// `counts[group * dict.len() + bin]`, group = base code | strand << 2.
    counts: Box<[u32]>,
    /// The bins `counts` is keyed by.
    dict: Arc<QualityDict>,
    depth: u32,
    truncated: bool,
}

impl PileupColumn {
    /// Empty column at a position, keyed by the identity dictionary so any
    /// Phred score can be pushed.
    pub fn new(pos: u32) -> PileupColumn {
        PileupColumn::with_dict(pos, identity_dict())
    }

    /// Empty column at a position keyed by `dict` — what the engine stacks
    /// a file's bin indices into.
    pub(crate) fn with_dict(pos: u32, dict: &Arc<QualityDict>) -> PileupColumn {
        PileupColumn {
            pos,
            counts: vec![0; GROUPS * dict.len()].into_boxed_slice(),
            dict: Arc::clone(dict),
            depth: 0,
            truncated: false,
        }
    }

    /// Reset to an empty column at a new position, keeping the histogram
    /// allocation. This is what makes the pileup engine's column freelist
    /// allocation-free in steady state.
    pub fn reset(&mut self, pos: u32) {
        self.pos = pos;
        self.counts.fill(0);
        self.depth = 0;
        self.truncated = false;
    }

    /// [`Self::reset`] for stacking under `dict`. A buffer keyed by another
    /// dictionary (a column recycled across files) is re-shaped, so its
    /// counters are never read against the wrong bins.
    pub(crate) fn reset_for(&mut self, pos: u32, dict: &Arc<QualityDict>) {
        if Arc::ptr_eq(&self.dict, dict) {
            self.reset(pos);
        } else {
            *self = PileupColumn::with_dict(pos, dict);
        }
    }

    /// Append an entry, enforcing the depth cap. Returns whether the entry
    /// was kept.
    #[inline]
    pub fn push_capped(&mut self, e: PileupEntry, max_depth: usize) -> bool {
        if self.depth as usize >= max_depth {
            self.truncated = true;
            return false;
        }
        self.push(e);
        true
    }

    /// Append without a cap (tests, small columns). A score the column's
    /// dictionary lacks re-keys the column onto the identity dictionary.
    pub fn push(&mut self, e: PileupEntry) {
        let qual = Phred(e.qual.0.min(MAX_PHRED));
        let bin = match self.bin_of(qual) {
            Some(bin) => bin,
            None => {
                self.widen_to_identity();
                self.bin_of(qual)
                    .expect("the identity dictionary has every score")
            }
        };
        self.stack(e.group() * self.n_bins() + bin);
    }

    /// Stack one base at counter `slot` = `group * n_bins + bin`, uncapped —
    /// the engine's inner loop, once it has shown the cap cannot bind.
    #[inline(always)]
    pub(crate) fn stack(&mut self, slot: usize) {
        self.counts[slot] += 1;
        self.depth += 1;
    }

    /// [`Self::stack`], enforcing the depth cap.
    #[inline(always)]
    pub(crate) fn stack_capped(&mut self, slot: usize, max_depth: usize) {
        if self.depth as usize >= max_depth {
            self.truncated = true;
        } else {
            self.stack(slot);
        }
    }

    /// Number of quality bins the counters are keyed by.
    #[inline]
    pub(crate) fn n_bins(&self) -> usize {
        self.dict.len()
    }

    /// The bin of `qual` in this column's dictionary, if it has one.
    fn bin_of(&self, qual: Phred) -> Option<usize> {
        let bin = self.dict.bin_of(qual) as usize;
        (self.dict.quals().get(bin) == Some(&qual)).then_some(bin)
    }

    /// Re-key the counters onto the identity dictionary.
    fn widen_to_identity(&mut self) {
        let mut wide = PileupColumn::new(self.pos);
        for (group, qual, n) in self.runs() {
            let bin = wide
                .bin_of(qual)
                .expect("the identity dictionary has every score");
            wide.counts[group * QUAL_SLOTS + bin] = n;
        }
        wide.depth = self.depth;
        wide.truncated = self.truncated;
        *self = wide;
    }

    /// One (base, strand) group's counters, in bin order.
    #[inline]
    fn row(&self, group: usize) -> &[u32] {
        let n = self.n_bins();
        &self.counts[group * n..(group + 1) * n]
    }

    /// The non-zero counters as `(group, score, count)`: ascending group,
    /// then ascending quality (bins are stored descending).
    fn runs(&self) -> impl Iterator<Item = (usize, Phred, u32)> + '_ {
        (0..GROUPS).flat_map(move |group| {
            self.row(group)
                .iter()
                .zip(self.dict.quals())
                .rev()
                .filter(|(&n, _)| n > 0)
                .map(move |(&n, &qual)| (group, qual, n))
        })
    }

    /// Number of bases stacked on this column (after capping).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Whether the column is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Whether the depth cap discarded reads.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Iterate the stacked entries. Entries are yielded grouped by
    /// (strand, base, quality) — ascending group index, then ascending
    /// quality, each repeated by its multiplicity. Per-read arrival order
    /// is not representable in the histogram (and nothing statistical
    /// depends on it: the trials are exchangeable).
    pub fn iter(&self) -> impl Iterator<Item = PileupEntry> + '_ {
        self.runs().flat_map(|(group, qual, n)| {
            let entry = PileupEntry {
                base: Base::from_code(group as u8 & 0b11),
                qual,
                reverse: group >= 4,
            };
            std::iter::repeat_n(entry, n as usize)
        })
    }

    /// Per-base counts `[A, C, G, T]`. A sum over the histogram — `O(1)`
    /// in depth — through the dispatched SIMD reduction.
    pub fn base_counts(&self) -> [u32; 4] {
        let kr = ultravc_simd::kernels();
        let mut c = [0u32; 4];
        for group in 0..GROUPS {
            // Group totals sum to the (u32) depth, so the u64→u32
            // narrowing cannot truncate.
            c[group & 0b11] += (kr.sum_u32)(self.row(group)) as u32;
        }
        c
    }

    /// Forward/reverse counts of one base — the strand-bias contingency
    /// inputs.
    pub fn strand_counts(&self, base: Base) -> (u32, u32) {
        let kr = ultravc_simd::kernels();
        let fwd_group = base.code() as usize;
        let sum = |group: usize| (kr.sum_u32)(self.row(group)) as u32;
        (sum(fwd_group), sum(fwd_group + 4))
    }

    /// Count of bases differing from the reference base — the `K` of the
    /// paper's tail test.
    pub fn mismatch_count(&self, ref_base: Base) -> u32 {
        let counts = self.base_counts();
        self.depth - counts[ref_base.code() as usize]
    }

    /// The most frequent non-reference base, if any mismatch exists.
    pub fn top_alt(&self, ref_base: Base) -> Option<(Base, u32)> {
        let counts = self.base_counts();
        Base::ALL
            .iter()
            .filter(|b| **b != ref_base)
            .map(|b| (*b, counts[b.code() as usize]))
            .filter(|(_, n)| *n > 0)
            .max_by_key(|(_, n)| *n)
    }

    /// Per-read error probabilities implied by the qualities, expanded from
    /// the histogram in [`Self::iter`] order — the `{p_i}` of the
    /// Poisson-binomial.
    ///
    /// This materializes `O(depth)` memory; the calling hot path uses
    /// [`Self::fill_quality_bins`] instead and never expands. Retained for
    /// tests, ablations, and the per-trial reference kernels.
    pub fn error_probs(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.depth as usize);
        for (_, qual, n) in self.runs() {
            out.extend(std::iter::repeat_n(phred_to_prob(qual.0), n as usize));
        }
        out
    }

    /// Number of distinct quality values present — the bin count of the
    /// grouped-trial DP's outer loop.
    pub fn distinct_quals(&self) -> usize {
        (0..self.n_bins())
            .filter(|&bin| (0..GROUPS).any(|group| self.row(group)[bin] > 0))
            .count()
    }

    /// Fill `out` with this column's quality bins (see [`QualityBins`]),
    /// reusing its allocation. The calling path's replacement for
    /// [`Self::error_probs`]: no per-column heap allocation once the
    /// buffer has warmed up.
    pub fn fill_quality_bins(&self, out: &mut QualityBins) {
        out.clear();
        let table = phred_prob_table();
        let kr = ultravc_simd::kernels();
        // Aggregate the 8 (base, strand) group rows into one per-bin
        // histogram — an element-wise vector add per row. No overflow:
        // the grand total is the column depth, itself a u32.
        let mut per_bin = [0u32; QUAL_SLOTS];
        let per_bin = &mut per_bin[..self.n_bins()];
        for group in 0..GROUPS {
            (kr.accumulate_u32)(per_bin, self.row(group));
        }
        // Bins run in descending quality = ascending error probability.
        for (&n, qual) in per_bin.iter().zip(self.dict.quals()) {
            if n > 0 {
                out.bins.push((table[qual.0 as usize], n));
                out.depth += n as u64;
            }
        }
    }

    /// Allocating convenience wrapper over [`Self::fill_quality_bins`].
    pub fn quality_bins(&self) -> QualityBins {
        let mut out = QualityBins::default();
        self.fill_quality_bins(&mut out);
        out
    }
}

/// Equal position, depth, truncation and count per (base, strand, Phred
/// score) — independent of the dictionaries keying the two columns.
impl PartialEq for PileupColumn {
    fn eq(&self, other: &PileupColumn) -> bool {
        self.pos == other.pos
            && self.depth == other.depth
            && self.truncated == other.truncated
            && self.runs().eq(other.runs())
    }
}

impl std::fmt::Debug for PileupColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, c, g, t] = self.base_counts();
        f.debug_struct("PileupColumn")
            .field("pos", &self.pos)
            .field("depth", &self.depth)
            .field("acgt", &[a, c, g, t])
            .field("distinct_quals", &self.distinct_quals())
            .field("truncated", &self.truncated)
            .finish()
    }
}

/// A column's error-probability spectrum: `(probability, multiplicity)`
/// pairs sorted by ascending probability, aggregated over bases and
/// strands.
///
/// This is the interchange type between the pileup layer and the
/// grouped-trial Poisson-binomial kernels: a 1M-deep column with ~40
/// distinct qualities is 40 pairs, so the exact-DP working set is a few
/// hundred bytes regardless of depth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityBins {
    bins: Vec<(f64, u32)>,
    depth: u64,
}

impl QualityBins {
    /// Remove all bins, keeping the allocation.
    pub fn clear(&mut self) {
        self.bins.clear();
        self.depth = 0;
    }

    /// The `(error probability, multiplicity)` pairs, probability
    /// ascending — the shape the stats kernels consume.
    #[inline]
    pub fn as_slice(&self) -> &[(f64, u32)] {
        &self.bins
    }

    /// Number of bins (distinct qualities).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether there are no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total trial count `Σ multiplicity` (= column depth).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// `λ = Σ pᵢ·mᵢ` over the bins.
    pub fn lambda(&self) -> f64 {
        self.bins.iter().map(|&(p, m)| p * m as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(base: Base, q: u8, reverse: bool) -> PileupEntry {
        PileupEntry {
            base,
            qual: Phred::new(q),
            reverse,
        }
    }

    /// A dictionary over exactly `scores`.
    fn dict_of(scores: &[u8]) -> Arc<QualityDict> {
        let mut counts = [0u64; QUAL_SLOTS];
        for &q in scores {
            counts[q as usize] += 1;
        }
        Arc::new(QualityDict::from_histogram(&counts))
    }

    #[test]
    fn histogram_roundtrips_entries() {
        let mut col = PileupColumn::new(3);
        let entries = [
            e(Base::A, 20, false),
            e(Base::A, 20, false),
            e(Base::G, 41, true),
            e(Base::T, 0, false),
            e(Base::C, 93, true),
        ];
        for entry in entries {
            col.push(entry);
        }
        let mut got: Vec<_> = col.iter().collect();
        let mut want = entries.to_vec();
        let key = |x: &PileupEntry| (x.reverse, x.base.code(), x.qual.0);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    #[test]
    fn counts_and_mismatches() {
        let mut col = PileupColumn::new(7);
        for _ in 0..10 {
            col.push(e(Base::A, 30, false));
        }
        for _ in 0..3 {
            col.push(e(Base::G, 25, true));
        }
        col.push(e(Base::T, 20, false));
        assert_eq!(col.depth(), 14);
        assert_eq!(col.base_counts(), [10, 0, 3, 1]);
        assert_eq!(col.mismatch_count(Base::A), 4);
        assert_eq!(col.mismatch_count(Base::G), 11);
        assert_eq!(col.top_alt(Base::A), Some((Base::G, 3)));
        assert_eq!(col.top_alt(Base::G).map(|(b, _)| b), Some(Base::A));
    }

    #[test]
    fn top_alt_none_when_pure() {
        let mut col = PileupColumn::new(0);
        col.push(e(Base::C, 30, false));
        assert_eq!(col.top_alt(Base::C), None);
    }

    #[test]
    fn strand_counts() {
        let mut col = PileupColumn::new(0);
        col.push(e(Base::G, 30, false));
        col.push(e(Base::G, 30, true));
        col.push(e(Base::G, 30, true));
        col.push(e(Base::A, 30, false));
        assert_eq!(col.strand_counts(Base::G), (1, 2));
        assert_eq!(col.strand_counts(Base::A), (1, 0));
        assert_eq!(col.strand_counts(Base::T), (0, 0));
    }

    #[test]
    fn depth_cap_truncates() {
        let mut col = PileupColumn::new(0);
        for i in 0..5 {
            let kept = col.push_capped(e(Base::A, 30, false), 3);
            assert_eq!(kept, i < 3);
        }
        assert_eq!(col.depth(), 3);
        assert!(col.truncated());
        let mut uncapped = PileupColumn::new(0);
        uncapped.push_capped(e(Base::A, 30, false), 10);
        assert!(!uncapped.truncated());
    }

    #[test]
    fn lambda_matches_error_probs_sum() {
        let mut col = PileupColumn::new(0);
        for q in [10u8, 20, 30, 40] {
            col.push(e(Base::A, q, false));
        }
        let direct: f64 = col.error_probs().iter().sum();
        let lambda = col.quality_bins().lambda();
        assert!((lambda - direct).abs() < 1e-15);
        assert!((lambda - 0.111_1).abs() < 1e-3);
    }

    #[test]
    fn quality_bins_sorted_and_complete() {
        let mut col = PileupColumn::new(0);
        // Mixed bases/strands sharing qualities: bins aggregate across both.
        for _ in 0..100 {
            col.push(e(Base::A, 30, false));
        }
        for _ in 0..50 {
            col.push(e(Base::G, 30, true));
        }
        for _ in 0..7 {
            col.push(e(Base::C, 20, false));
        }
        col.push(e(Base::T, 41, true));
        let bins = col.quality_bins();
        assert_eq!(bins.len(), 3, "three distinct qualities");
        assert_eq!(bins.depth(), 158);
        assert_eq!(col.distinct_quals(), 3);
        let slice = bins.as_slice();
        // Ascending probability: Q41 < Q30 < Q20.
        assert!(slice.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(slice[0].1, 1); // Q41
        assert_eq!(slice[1].1, 150); // Q30 across A-fwd and G-rev
        assert_eq!(slice[2].1, 7); // Q20
    }

    #[test]
    fn fill_reuses_allocation() {
        let mut col = PileupColumn::new(0);
        col.push(e(Base::A, 30, false));
        let mut bins = QualityBins::default();
        col.fill_quality_bins(&mut bins);
        let cap = bins.bins.capacity();
        col.fill_quality_bins(&mut bins);
        assert_eq!(bins.bins.capacity(), cap);
        assert_eq!(bins.len(), 1);
        bins.clear();
        assert!(bins.is_empty());
        assert_eq!(bins.depth(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut col = PileupColumn::new(5);
        for _ in 0..4 {
            col.push_capped(e(Base::G, 25, true), 2);
        }
        assert!(col.truncated());
        col.reset(9);
        assert_eq!(col.pos, 9);
        assert_eq!(col.depth(), 0);
        assert!(col.is_empty());
        assert!(!col.truncated());
        assert_eq!(col.base_counts(), [0, 0, 0, 0]);
        assert_eq!(col, PileupColumn::new(9));
    }

    #[test]
    fn iter_groups_by_strand_base_quality() {
        let mut col = PileupColumn::new(0);
        col.push(e(Base::C, 20, true));
        col.push(e(Base::A, 10, false));
        col.push(e(Base::A, 30, false));
        let got: Vec<_> = col.iter().collect();
        // Forward strand first (group order), then quality ascending.
        assert_eq!(got[0], e(Base::A, 10, false));
        assert_eq!(got[1], e(Base::A, 30, false));
        assert_eq!(got[2], e(Base::C, 20, true));
    }

    #[test]
    fn qualities_above_max_clamp() {
        let mut col = PileupColumn::new(0);
        col.push(PileupEntry {
            base: Base::A,
            qual: Phred(200), // bypasses Phred::new clamping
            reverse: false,
        });
        assert_eq!(col.depth(), 1);
        let bins = col.quality_bins();
        assert_eq!(bins.as_slice()[0].0, phred_to_prob(MAX_PHRED));
    }

    #[test]
    fn pushing_a_score_the_dictionary_lacks_widens_the_column() {
        let dict = dict_of(&[30, 20]);
        let mut col = PileupColumn::with_dict(4, &dict);
        col.stack(Base::G.code() as usize * dict.len());
        col.push(e(Base::A, 37, true));
        col.push(e(Base::A, 20, false));
        let mut want = PileupColumn::new(4);
        for entry in [
            e(Base::G, 30, false),
            e(Base::A, 37, true),
            e(Base::A, 20, false),
        ] {
            want.push(entry);
        }
        assert_eq!(col, want);
        assert_eq!(col.n_bins(), QUAL_SLOTS, "re-keyed onto the identity");
        assert_eq!(col.quality_bins(), want.quality_bins());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dictionary_column_equals_identity_column(
            scores in prop::collection::vec(0u8..=MAX_PHRED, 1..12),
            bases in prop::collection::vec((0u8..4, any::<bool>(), any::<u8>()), 0..200),
            cap in prop::sample::select(vec![1usize, 5, 1_000_000]),
        ) {
            // The same entries stacked by bin into a dictionary-keyed
            // column and pushed by score into an identity column.
            let dict = dict_of(&scores);
            let mut keyed = PileupColumn::with_dict(9, &dict);
            let mut identity = PileupColumn::new(9);
            for &(code, reverse, pick) in &bases {
                let bin = pick as usize % dict.len();
                let group = (code | (reverse as u8) << 2) as usize;
                keyed.stack_capped(group * dict.len() + bin, cap);
                identity.push_capped(
                    PileupEntry {
                        base: Base::from_code(code),
                        qual: dict.phred(bin as u8),
                        reverse,
                    },
                    cap,
                );
            }
            prop_assert_eq!(&keyed, &identity);
            prop_assert_eq!(keyed.depth(), identity.depth());
            prop_assert_eq!(keyed.truncated(), identity.truncated());
            prop_assert_eq!(keyed.base_counts(), identity.base_counts());
            for base in Base::ALL {
                prop_assert_eq!(keyed.strand_counts(base), identity.strand_counts(base));
            }
            prop_assert_eq!(keyed.iter().collect::<Vec<_>>(), identity.iter().collect::<Vec<_>>());
            // Bitwise: the exact (p, m) sequence and per-read probabilities.
            let bits = |v: &[(f64, u32)]| v.iter().map(|&(p, m)| (p.to_bits(), m)).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(keyed.quality_bins().as_slice()),
                bits(identity.quality_bins().as_slice())
            );
            let probs = |c: &PileupColumn| c.error_probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(probs(&keyed), probs(&identity));
            prop_assert_eq!(keyed.distinct_quals(), identity.distinct_quals());
        }
    }
}
