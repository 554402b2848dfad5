//! CIGAR strings: the alignment shape of a read against the reference.
//!
//! The pileup engine walks CIGARs to place each read base on its reference
//! column. The simulator only emits `M`-runs (SNV-scale evaluation does not
//! need indel realignment), but the walker handles the full core op set so
//! that real-world-shaped inputs behave correctly.

use serde::{Deserialize, Serialize};

/// One CIGAR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CigarOp {
    /// Alignment match or mismatch (`M`): consumes query and reference.
    Match(u32),
    /// Insertion to the reference (`I`): consumes query only.
    Ins(u32),
    /// Deletion from the reference (`D`): consumes reference only.
    Del(u32),
    /// Soft clip (`S`): query bases present but unaligned.
    SoftClip(u32),
}

impl CigarOp {
    /// Run length of the operation.
    pub fn len(self) -> u32 {
        match self {
            CigarOp::Match(n) | CigarOp::Ins(n) | CigarOp::Del(n) | CigarOp::SoftClip(n) => n,
        }
    }

    /// Whether the op has zero length (invalid in a normalized CIGAR).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Bases of the query (read) consumed.
    #[inline]
    pub fn query_len(self) -> u32 {
        match self {
            CigarOp::Match(n) | CigarOp::Ins(n) | CigarOp::SoftClip(n) => n,
            CigarOp::Del(_) => 0,
        }
    }

    /// Bases of the reference consumed.
    #[inline]
    pub fn ref_len(self) -> u32 {
        match self {
            CigarOp::Match(n) | CigarOp::Del(n) => n,
            CigarOp::Ins(_) | CigarOp::SoftClip(_) => 0,
        }
    }

    /// SAM operation character.
    pub fn symbol(self) -> char {
        match self {
            CigarOp::Match(_) => 'M',
            CigarOp::Ins(_) => 'I',
            CigarOp::Del(_) => 'D',
            CigarOp::SoftClip(_) => 'S',
        }
    }

    /// Numeric code used by the BAL encoding (2 bits).
    pub fn code(self) -> u8 {
        match self {
            CigarOp::Match(_) => 0,
            CigarOp::Ins(_) => 1,
            CigarOp::Del(_) => 2,
            CigarOp::SoftClip(_) => 3,
        }
    }

    /// Rebuild from a BAL code and length.
    #[inline]
    pub fn from_code(code: u8, len: u32) -> Option<CigarOp> {
        match code {
            0 => Some(CigarOp::Match(len)),
            1 => Some(CigarOp::Ins(len)),
            2 => Some(CigarOp::Del(len)),
            3 => Some(CigarOp::SoftClip(len)),
            _ => None,
        }
    }
}

/// A full CIGAR: a sequence of operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Cigar(pub Vec<CigarOp>);

impl Cigar {
    /// A CIGAR consisting of one `M` run — the simulator's common case.
    pub fn full_match(len: u32) -> Cigar {
        Cigar(vec![CigarOp::Match(len)])
    }

    /// Operations in order.
    pub fn ops(&self) -> &[CigarOp] {
        &self.0
    }

    /// Total query bases consumed.
    pub fn query_len(&self) -> u32 {
        self.0.iter().map(|op| op.query_len()).sum()
    }

    /// Total reference bases consumed (the read's reference span).
    pub fn ref_len(&self) -> u32 {
        self.0.iter().map(|op| op.ref_len()).sum()
    }

    /// Parse from SAM text form (e.g. `"100M"`, `"5S90M5S"`, `"50M2D48M"`).
    pub fn parse(s: &str) -> Option<Cigar> {
        if s.is_empty() || s == "*" {
            return Some(Cigar::default());
        }
        let mut ops = Vec::new();
        let mut num = 0u32;
        let mut saw_digit = false;
        for c in s.chars() {
            if let Some(d) = c.to_digit(10) {
                num = num.checked_mul(10)?.checked_add(d)?;
                saw_digit = true;
            } else {
                if !saw_digit || num == 0 {
                    return None;
                }
                let op = match c {
                    'M' | '=' | 'X' => CigarOp::Match(num),
                    'I' => CigarOp::Ins(num),
                    'D' | 'N' => CigarOp::Del(num),
                    'S' => CigarOp::SoftClip(num),
                    _ => return None,
                };
                ops.push(op);
                num = 0;
                saw_digit = false;
            }
        }
        if saw_digit {
            return None; // trailing number without an op
        }
        Some(Cigar(ops))
    }

    /// Walk the alignment, yielding `(ref_pos, query_index)` for every
    /// aligned (M) base, given the record's leftmost reference position.
    pub fn aligned_pairs(&self, ref_start: u32) -> AlignedPairs<'_> {
        AlignedPairs {
            ops: &self.0,
            op_idx: 0,
            within: 0,
            ref_pos: ref_start,
            query_idx: 0,
        }
    }
}

impl std::fmt::Display for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return write!(f, "*");
        }
        for op in &self.0 {
            write!(f, "{}{}", op.len(), op.symbol())?;
        }
        Ok(())
    }
}

/// Iterator over `(ref_pos, query_index)` pairs of aligned bases.
pub struct AlignedPairs<'a> {
    ops: &'a [CigarOp],
    op_idx: usize,
    within: u32,
    ref_pos: u32,
    query_idx: u32,
}

impl Iterator for AlignedPairs<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            let op = *self.ops.get(self.op_idx)?;
            if self.within >= op.len() {
                self.op_idx += 1;
                self.within = 0;
                continue;
            }
            match op {
                CigarOp::Match(_) => {
                    let pair = (self.ref_pos, self.query_idx);
                    self.ref_pos += 1;
                    self.query_idx += 1;
                    self.within += 1;
                    return Some(pair);
                }
                CigarOp::Ins(n) | CigarOp::SoftClip(n) => {
                    self.query_idx += n;
                    self.op_idx += 1;
                    self.within = 0;
                }
                CigarOp::Del(n) => {
                    self.ref_pos += n;
                    self.op_idx += 1;
                    self.within = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["100M", "5S90M5S", "50M2D48M", "10M3I10M", "*"] {
            let c = Cigar::parse(s).unwrap();
            let shown = c.to_string();
            assert_eq!(Cigar::parse(&shown).unwrap(), c, "{s}");
        }
        assert_eq!(Cigar::parse("100M").unwrap().to_string(), "100M");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cigar::parse("M").is_none());
        assert!(Cigar::parse("10").is_none());
        assert!(Cigar::parse("10Q").is_none());
        assert!(Cigar::parse("0M").is_none());
        assert!(Cigar::parse("1OM").is_none());
    }

    #[test]
    fn query_and_ref_lengths() {
        let c = Cigar::parse("5S90M2D3I2M").unwrap();
        assert_eq!(c.query_len(), 5 + 90 + 3 + 2);
        assert_eq!(c.ref_len(), 90 + 2 + 2);
        assert_eq!(Cigar::full_match(150).query_len(), 150);
        assert_eq!(Cigar::full_match(150).ref_len(), 150);
    }

    #[test]
    fn aligned_pairs_full_match() {
        let c = Cigar::full_match(4);
        let pairs: Vec<_> = c.aligned_pairs(100).collect();
        assert_eq!(pairs, vec![(100, 0), (101, 1), (102, 2), (103, 3)]);
    }

    #[test]
    fn aligned_pairs_with_softclip_and_indels() {
        // 2S3M1D2M1I1M: query = SSMMM MM I M (9 bases), ref span = 3+1+2+1.
        let c = Cigar::parse("2S3M1D2M1I1M").unwrap();
        let pairs: Vec<_> = c.aligned_pairs(10).collect();
        assert_eq!(
            pairs,
            vec![
                (10, 2),
                (11, 3),
                (12, 4),
                // 1D skips ref 13
                (14, 5),
                (15, 6),
                // 1I skips query 7
                (16, 8),
            ]
        );
        assert_eq!(c.query_len(), 9);
    }

    #[test]
    fn codes_roundtrip() {
        for op in [
            CigarOp::Match(7),
            CigarOp::Ins(1),
            CigarOp::Del(2),
            CigarOp::SoftClip(9),
        ] {
            assert_eq!(CigarOp::from_code(op.code(), op.len()), Some(op));
        }
        assert_eq!(CigarOp::from_code(4, 1), None);
    }

    #[test]
    fn empty_cigar_is_star() {
        let c = Cigar::default();
        assert_eq!(c.to_string(), "*");
        assert_eq!(c.query_len(), 0);
        assert_eq!(c.aligned_pairs(5).count(), 0);
    }
}
