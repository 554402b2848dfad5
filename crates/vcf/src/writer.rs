//! VCF v4.2 text output and a matching parser for the subset this
//! workspace emits.

use crate::record::{FilterStatus, Info, VcfRecord};
use std::io::{self, BufRead, Write};
use ultravc_genome::alphabet::Base;

/// Streaming VCF writer.
pub struct VcfWriter<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> VcfWriter<W> {
    /// Wrap a sink.
    pub fn new(out: W) -> VcfWriter<W> {
        VcfWriter {
            out,
            wrote_header: false,
        }
    }

    /// Emit the meta-information header.
    pub fn write_header(&mut self, reference_name: &str, source: &str) -> io::Result<()> {
        writeln!(self.out, "##fileformat=VCFv4.2")?;
        writeln!(self.out, "##source={source}")?;
        writeln!(self.out, "##reference={reference_name}")?;
        writeln!(
            self.out,
            "##INFO=<ID=DP,Number=1,Type=Integer,Description=\"Raw Depth\">"
        )?;
        writeln!(
            self.out,
            "##INFO=<ID=AF,Number=1,Type=Float,Description=\"Allele Frequency\">"
        )?;
        writeln!(
            self.out,
            "##INFO=<ID=SB,Number=1,Type=Integer,Description=\"Phred-scaled strand bias at this position\">"
        )?;
        writeln!(
            self.out,
            "##INFO=<ID=DP4,Number=4,Type=Integer,Description=\"Counts for ref-forward bases, ref-reverse, alt-forward and alt-reverse bases\">"
        )?;
        writeln!(
            self.out,
            "##FILTER=<ID=min_dp,Description=\"Minimum Coverage\">"
        )?;
        writeln!(
            self.out,
            "##FILTER=<ID=sb_holm,Description=\"Strand-Bias Multiple Testing Correction: holm corr. pvalue\">"
        )?;
        writeln!(
            self.out,
            "##FILTER=<ID=min_snvqual,Description=\"Minimum SNV Quality (Phred)\">"
        )?;
        writeln!(self.out, "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO")?;
        self.wrote_header = true;
        Ok(())
    }

    /// Emit one record.
    pub fn write_record(&mut self, rec: &VcfRecord) -> io::Result<()> {
        debug_assert!(self.wrote_header, "write_header first");
        let filter = match &rec.filter {
            FilterStatus::Unfiltered => ".".to_string(),
            FilterStatus::Pass => "PASS".to_string(),
            FilterStatus::Fail(names) => names.join(";"),
        };
        let (rf, rr, af_, ar) = rec.info.dp4;
        writeln!(
            self.out,
            "{}\t{}\t.\t{}\t{}\t{:.0}\t{}\tDP={};AF={:.6};SB={:.0};DP4={},{},{},{}",
            rec.chrom,
            rec.pos + 1,
            rec.ref_base,
            rec.alt_base,
            rec.qual,
            filter,
            rec.info.dp,
            rec.info.af,
            rec.info.sb,
            rf,
            rr,
            af_,
            ar
        )
    }

    /// Write header and all records.
    pub fn write_all(
        &mut self,
        reference_name: &str,
        source: &str,
        records: &[VcfRecord],
    ) -> io::Result<()> {
        self.write_header(reference_name, source)?;
        for rec in records {
            self.write_record(rec)?;
        }
        Ok(())
    }

    /// Recover the sink.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Serialize records to a VCF string.
pub fn write_vcf(reference_name: &str, source: &str, records: &[VcfRecord]) -> String {
    let mut w = VcfWriter::new(Vec::new());
    w.write_all(reference_name, source, records)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(w.into_inner()).expect("VCF output is UTF-8")
}

/// Parse the subset of VCF this workspace writes. Unknown INFO keys are
/// ignored; records missing required keys are errors.
pub fn parse_vcf<R: BufRead>(input: R) -> Result<Vec<VcfRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 8 {
            return Err(format!("line {}: expected 8 columns", lineno + 1));
        }
        let pos: usize = fields[1]
            .parse::<usize>()
            .map_err(|e| format!("line {}: bad POS: {e}", lineno + 1))?
            .checked_sub(1)
            .ok_or_else(|| format!("line {}: POS must be ≥ 1", lineno + 1))?;
        let ref_base = parse_base(fields[3], lineno)?;
        let alt_base = parse_base(fields[4], lineno)?;
        let qual: f64 = fields[5]
            .parse()
            .map_err(|e| format!("line {}: bad QUAL: {e}", lineno + 1))?;
        let filter = match fields[6] {
            "." => FilterStatus::Unfiltered,
            "PASS" => FilterStatus::Pass,
            other => FilterStatus::Fail(other.split(';').map(str::to_string).collect()),
        };
        let mut dp = None;
        let mut af = None;
        let mut sb = None;
        let mut dp4 = None;
        for kv in fields[7].split(';') {
            let (k, v) = match kv.split_once('=') {
                Some(p) => p,
                None => continue,
            };
            match k {
                "DP" => dp = v.parse::<u32>().ok(),
                "AF" => af = v.parse::<f64>().ok(),
                "SB" => sb = v.parse::<f64>().ok(),
                "DP4" => {
                    let parts: Vec<u32> = v.split(',').filter_map(|x| x.parse().ok()).collect();
                    if parts.len() == 4 {
                        dp4 = Some((parts[0], parts[1], parts[2], parts[3]));
                    }
                }
                _ => {}
            }
        }
        let info = Info {
            dp: dp.ok_or_else(|| format!("line {}: missing DP", lineno + 1))?,
            af: af.ok_or_else(|| format!("line {}: missing AF", lineno + 1))?,
            sb: sb.unwrap_or(0.0),
            dp4: dp4.unwrap_or((0, 0, 0, 0)),
        };
        out.push(VcfRecord {
            chrom: fields[0].to_string(),
            pos,
            ref_base,
            alt_base,
            qual,
            filter,
            info,
        });
    }
    Ok(out)
}

fn parse_base(s: &str, lineno: usize) -> Result<Base, String> {
    if s.len() != 1 {
        return Err(format!(
            "line {}: multi-base alleles unsupported",
            lineno + 1
        ));
    }
    Base::from_ascii(s.as_bytes()[0]).ok_or_else(|| format!("line {}: bad base {s}", lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn rec(pos: usize) -> VcfRecord {
        VcfRecord {
            chrom: "synthetic-sc2-7".to_string(),
            pos,
            ref_base: Base::C,
            alt_base: Base::T,
            qual: 87.0,
            filter: FilterStatus::Pass,
            info: Info {
                dp: 12_345,
                af: 0.012_345,
                sb: 3.0,
                dp4: (6_000, 6_100, 120, 125),
            },
        }
    }

    #[test]
    fn header_and_record_shape() {
        let text = write_vcf("ref", "ultravc-0.1", &[rec(99)]);
        assert!(text.starts_with("##fileformat=VCFv4.2\n"));
        assert!(text.contains("##source=ultravc-0.1\n"));
        assert!(text.contains("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n"));
        let data_line = text.lines().last().unwrap();
        assert_eq!(
            data_line,
            "synthetic-sc2-7\t100\t.\tC\tT\t87\tPASS\tDP=12345;AF=0.012345;SB=3;DP4=6000,6100,120,125"
        );
    }

    #[test]
    fn balanced_strands_print_sb_zero() {
        // Fisher's test on mirror-image strands is p = 1, which Phred-scales
        // to zero: the field must read `SB=0`, never `SB=-0`.
        use ultravc_genome::phred::phred_scale_pvalue;
        let p = ultravc_stats::binomial::fisher_exact(60, 60, 6_000, 6_000).two_sided;
        assert_eq!(p, 1.0);
        let mut r = rec(99);
        r.info.sb = phred_scale_pvalue(p);
        let text = write_vcf("ref", "ultravc-0.1", &[r]);
        let data_line = text.lines().last().unwrap();
        assert!(data_line.ends_with("\tDP=12345;AF=0.012345;SB=0;DP4=6000,6100,120,125"));
    }

    #[test]
    fn roundtrip() {
        let records = vec![rec(0), rec(500), {
            let mut r = rec(1000);
            r.filter = FilterStatus::Fail(vec!["min_dp".into(), "sb_holm".into()]);
            r
        }];
        let text = write_vcf("ref", "test", &records);
        let parsed = parse_vcf(Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].pos, 0);
        assert_eq!(parsed[1].pos, 500);
        assert_eq!(parsed[0].info.dp, 12_345);
        assert!((parsed[0].info.af - 0.012_345).abs() < 1e-9);
        assert_eq!(parsed[0].info.dp4, (6_000, 6_100, 120, 125));
        assert_eq!(
            parsed[2].filter,
            FilterStatus::Fail(vec!["min_dp".into(), "sb_holm".into()])
        );
    }

    #[test]
    fn unfiltered_renders_dot() {
        let mut r = rec(1);
        r.filter = FilterStatus::Unfiltered;
        let text = write_vcf("ref", "test", &[r]);
        let line = text.lines().last().unwrap();
        assert!(line.contains("\t.\tDP="), "{line}");
        let parsed = parse_vcf(Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(parsed[0].filter, FilterStatus::Unfiltered);
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_vcf(Cursor::new(&b"chr\t0\t.\tA\tG\t10\tPASS\tDP=1;AF=0.1"[..])).is_err());
        assert!(parse_vcf(Cursor::new(&b"chr\tx\t.\tA\tG\t10\tPASS\tDP=1;AF=0.1"[..])).is_err());
        assert!(parse_vcf(Cursor::new(&b"chr\t1\t.\tAC\tG\t10\tPASS\tDP=1;AF=0.1"[..])).is_err());
        assert!(parse_vcf(Cursor::new(&b"chr\t1\t.\tA\tG\t10\tPASS\tAF=0.1"[..])).is_err());
        assert!(parse_vcf(Cursor::new(&b"too\tfew\tcolumns"[..])).is_err());
    }

    #[test]
    fn parser_skips_headers_and_blank_lines() {
        let text = "##fileformat=VCFv4.2\n\n#CHROM\tPOS\n";
        assert!(parse_vcf(Cursor::new(text.as_bytes())).unwrap().is_empty());
    }
}
