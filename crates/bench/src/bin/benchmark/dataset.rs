//! A workload's input files: generated from the seed by a child process
//! (so the simulator's memory never counts towards the measuring child's
//! peak RSS), then read back by the measuring child the way the CLI reads
//! them.

use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use ultravc_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_genome::variant::{Snv, TruthSet, TruthVariant};
use ultravc_readsim::dataset::DatasetSpec;

use crate::rng::Rng;
use crate::table::Workload;

/// Where one run's files live.
pub struct Inputs {
    pub bal: PathBuf,
    pub fasta: PathBuf,
    pub truth: PathBuf,
    /// Where call reps write their VCF.
    pub vcf_out: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            bal: dir.join("sample.bal"),
            fasta: dir.join("ref.fa"),
            truth: dir.join("truth.tsv"),
            vcf_out: dir.join("calls.vcf"),
        }
    }
}

/// The variants to plant: a designed panel, not a random draw, so that every
/// seed gives an input of the same cost. The exact test's time grows with
/// the square of a column's mismatch count, so one random 5 % variant more
/// or less moved `deep_100k`'s wall by a third between seeds. The panel has
/// `n_variants` allele frequencies spaced geometrically over the workload's
/// range, one variant per equal slot of the interior (a read length in from
/// each end, where coverage is full), frequencies dealt to slots with a
/// fixed stride so heavy columns spread over the genome. The seed picks the
/// position inside each slot and the ALT base.
fn planted_panel(w: &Workload, reference: &ReferenceGenome, seed: u64) -> TruthSet {
    const STRIDE: usize = 7; // coprime to every workload's variant count
    let mut rng = Rng::new(seed ^ 0x7472_7574_6870_616e);
    let n = w.n_variants;
    let slot = (w.genome_len - 2 * w.read_len) / n;
    let mut truth = TruthSet::new();
    for i in 0..n {
        let rank = (i * STRIDE % n) as f64 / (n - 1) as f64;
        let frequency = w.af.0 * (w.af.1 / w.af.0).powf(rank);
        let pos = w.read_len + i * slot + rng.below(slot as u64) as usize;
        let ref_base = reference.base(pos);
        let alt_base = ref_base.alternatives()[rng.below(3) as usize];
        truth.insert(TruthVariant {
            snv: Snv::new(pos, ref_base, alt_base),
            frequency,
        });
    }
    truth
}

/// Simulate the workload's reads for `seed` and write `.bal`, `.fa` and the
/// planted truth (`pos<TAB>alt`, 0-based).
pub fn generate(w: &Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(w.genome_len), seed);
    let dataset = DatasetSpec::new(w.name, w.depth, seed)
        .with_read_len(w.read_len)
        .with_quality(w.quality)
        .with_truth(planted_panel(w, &reference, seed))
        .simulate(&reference);
    dataset
        .alignments
        .write_to(&inputs.bal)
        .map_err(|e| format!("write {}: {e}", inputs.bal.display()))?;

    let io = |e: std::io::Error| format!("write inputs: {e}");
    let mut fa = BufWriter::new(fs::File::create(&inputs.fasta).map_err(io)?);
    let record = FastaRecord {
        name: reference.name.clone(),
        seq: reference.seq.clone(),
    };
    write_fasta(&mut fa, &[record], 70).map_err(io)?;
    fa.flush().map_err(io)?;

    let mut truth = BufWriter::new(fs::File::create(&inputs.truth).map_err(io)?);
    for v in dataset.truth.iter() {
        writeln!(
            truth,
            "{}\t{}",
            v.snv.pos,
            v.snv.alt_base.to_ascii() as char
        )
        .map_err(io)?;
    }
    truth.flush().map_err(io)?;
    // Set-up ends with the inputs on disk, not in the page cache: left to
    // the kernel, writing back up to 130 MB of dirty pages competes with the
    // call reps it was meant to precede.
    for path in [&inputs.bal, &inputs.fasta, &inputs.truth] {
        fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(io)?;
    }
    Ok(())
}

/// Load the reference as `ultravc call` does: first FASTA record.
pub fn load_reference(path: &Path) -> Result<ReferenceGenome, String> {
    let file = fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let first = read_fasta(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: empty FASTA", path.display()))?;
    Ok(ReferenceGenome::from_seq(first.name, first.seq))
}

/// The planted variants as sorted `(pos, alt)` pairs.
pub fn load_truth(path: &Path) -> Result<Vec<(usize, u8)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let parsed = line
            .split_once('\t')
            .and_then(|(pos, alt)| Some((pos.parse().ok()?, *alt.as_bytes().first()?)));
        out.push(parsed.ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?);
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::WORKLOADS;

    #[test]
    fn panel_has_the_same_frequencies_for_every_seed() {
        for w in &WORKLOADS {
            let panel = |seed| {
                let reference =
                    ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(w.genome_len), seed);
                planted_panel(w, &reference, seed)
            };
            let (a, b) = (panel(3), panel(4));
            assert_eq!(a.len(), w.n_variants, "{}: one variant per slot", w.name);
            assert_ne!(a.positions(), b.positions(), "{}: seed moves them", w.name);
            assert_eq!(panel(3), a, "{}: same seed, same panel", w.name);
            let sorted = |t: &TruthSet| {
                let mut f: Vec<f64> = t.iter().map(|v| v.frequency).collect();
                f.sort_by(f64::total_cmp);
                f
            };
            let freqs = sorted(&a);
            assert_eq!(freqs, sorted(&b), "{}: same frequencies", w.name);
            assert!((freqs[0] - w.af.0).abs() < 1e-12);
            assert!((freqs[w.n_variants - 1] - w.af.1).abs() < 1e-12);
            let interior = w.read_len..w.genome_len - w.read_len;
            assert!(a.positions().iter().all(|p| interior.contains(p)));
        }
    }
}
