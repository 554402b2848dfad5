//! Ingest-path throughput: arena batch decode from memory and from
//! disk, and the supervisor's overhead on it. (End-to-end BAL→VCF
//! numbers live in the repo benchmark, `crates/bench/src/bin/benchmark`.)
//!
//! Two measurements:
//!
//! 1. **Decode throughput** on a depth-100k read stack (100k × 150 bp
//!    reads over a ~300-column window, Phred 20–40 plateau mix — the
//!    same spectrum shape as `bench_binned`'s columns): records/s and
//!    bases/s for `BalReader::decode_batch` over the in-memory file and
//!    over `BalFile::open` (positioned reads), warm and cold, with stored
//!    bytes/base and per-stream raw→stored ratios recorded alongside.
//! 2. **Supervisor overhead** on the same decode.
//!
//! Prints the tables and emits `BENCH_ingest.json` (working directory;
//! override with `ULTRAVC_BENCH_OUT`); CI uploads the JSON as a workflow
//! artifact next to `BENCH_binned.json`.
//!
//! Acceptance gates this binary enforces:
//!
//! * disk-backed batch decode (one shared `BalFile::open`, a positioned
//!   read per block) within 1.5× of the in-memory batch wall time — i.e.
//!   reading payloads on demand must not give back the arena decode win;
//!   the cold row (fresh `open` per pass) is reported alongside, ungated;
//! * disk-decoded arenas bitwise equal to in-memory arenas;
//! * supervised batch decode (an armed, untripped `RunBudget` attached,
//!   so every payload read goes through the retry/interrupt wrapper)
//!   within 3% of the unsupervised wall time
//!   (`ULTRAVC_SUPERVISOR_CEIL`, default 1.03) — robustness must ride
//!   along for free on the fault-free path.

use std::sync::Arc;
use std::time::Instant;
use ultravc_bamlite::{BalFile, BalWriter, Flags, Record, RecordBatch, WriterStats};
use ultravc_bench::{env_f64, env_usize, fmt_depth, rule};
use ultravc_core::RunBudget;
use ultravc_genome::phred::Phred;
use ultravc_genome::sequence::Seq;
use ultravc_stats::rng::Rng;

/// Median-of-`reps` wall time of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A file whose central columns reach `depth`: `depth` reads of
/// `read_len` bases starting uniformly in `[0, read_len]`, with the
/// plateau-shaped Phred 20–40 quality strings real Illumina data has
/// (runs of 8–48 bases at one score — the shape the RLE codec is built
/// around).
fn depth_stack(depth: usize, read_len: usize, seed: u64) -> (BalFile, WriterStats) {
    let mut rng = Rng::new(seed);
    let mut rows: Vec<(u32, u64)> = (0..depth as u64)
        .map(|id| (rng.range_u64(0, read_len as u64 + 1) as u32, id))
        .collect();
    rows.sort();
    let bases: Vec<u8> = (0..read_len).map(|i| b"ACGT"[(i + 1) % 4]).collect();
    let seq = Seq::from_ascii(&bases).unwrap();
    let mut w = BalWriter::new();
    for (pos, id) in rows {
        let mut quals: Vec<Phred> = Vec::with_capacity(read_len);
        while quals.len() < read_len {
            let run = (rng.range_u64(8, 48) as usize).min(read_len - quals.len());
            let q = Phred::new(rng.range_u64(20, 40) as u8);
            quals.extend(std::iter::repeat_n(q, run));
        }
        let flags = if id % 2 == 0 {
            Flags::none()
        } else {
            Flags::REVERSE
        };
        let rec = Record::full_match(id, pos, 60, flags, seq.clone(), quals).unwrap();
        w.push(rec).unwrap();
    }
    w.finish_with_stats()
}

struct DecodeRow {
    path: &'static str,
    seconds: f64,
    records_per_s: f64,
    bases_per_s: f64,
}

impl DecodeRow {
    fn new(path: &'static str, seconds: f64, n_records: u64, n_bases: u64) -> DecodeRow {
        DecodeRow {
            path,
            seconds,
            records_per_s: n_records as f64 / seconds,
            bases_per_s: n_bases as f64 / seconds,
        }
    }
}

fn main() {
    let reps = env_usize("ULTRAVC_BENCH_REPS", 5);
    let depth = env_usize("ULTRAVC_INGEST_DEPTH", 100_000);
    let read_len = env_usize("ULTRAVC_INGEST_READ_LEN", 150);
    let out_path =
        std::env::var("ULTRAVC_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".to_string());

    println!(
        "ingest decode throughput at depth {} ({depth} × {read_len} bp reads; median of {reps} runs)\n",
        fmt_depth(depth as f64),
    );
    let (file, writer_stats) = depth_stack(depth, read_len, 0x1A6E57);
    let n_records = file.n_records();
    let n_bases = n_records * read_len as u64;
    println!(
        "file: {} records, {} blocks, {} distinct qualities, v{}",
        n_records,
        file.n_blocks(),
        file.quality_dict().len(),
        file.version()
    );

    // Disk-backed correctness before disk speed: the arenas decoded
    // from disk must be bitwise identical to the in-memory decode.
    let disk_path =
        std::env::temp_dir().join(format!("ultravc-bench-ingest-{}.bal", std::process::id()));
    file.write_to(&disk_path).expect("write bench BAL file");
    let disk = BalFile::open(&disk_path).unwrap();
    {
        let mut mem_reader = file.reader();
        let mut disk_reader = disk.reader();
        let (mut a, mut b) = (RecordBatch::new(), RecordBatch::new());
        for i in 0..file.n_blocks() {
            mem_reader.decode_batch(i, &mut a).unwrap();
            disk_reader.decode_batch(i, &mut b).unwrap();
            assert_eq!(a, b, "block {i}: disk arena diverged from memory");
        }
    }

    let decode_all = |f: &BalFile| {
        let mut reader = f.reader();
        let mut batch = RecordBatch::new();
        for i in 0..f.n_blocks() {
            reader.decode_batch(i, &mut batch).unwrap();
            std::hint::black_box(&batch);
        }
    };
    let batch_s = time_median(reps, || decode_all(&file));
    // Two disk measurements:
    // * cold — a fresh `open` per pass, so the index parse is inside the
    //   timing (what a one-shot run pays);
    // * warm — one shared open, decode per pass (steady state once the
    //   page cache holds the working set; this is the gated row).
    let disk_cold_s = time_median(reps, || decode_all(&BalFile::open(&disk_path).unwrap()));
    let disk_s = time_median(reps, || decode_all(&disk));
    let rows = [
        DecodeRow::new("batch", batch_s, n_records, n_bases),
        DecodeRow::new("batch-stream", disk_s, n_records, n_bases),
        DecodeRow::new("batch-stream-cold", disk_cold_s, n_records, n_bases),
    ];
    let header = format!(
        "{:>17} {:>12} {:>16} {:>16}",
        "path", "decode", "records/s", "bases/s"
    );
    println!("\n{header}");
    rule(header.len());
    for r in &rows {
        println!(
            "{:>17} {:>11.1}ms {:>16.3e} {:>16.3e}",
            r.path,
            r.seconds * 1e3,
            r.records_per_s,
            r.bases_per_s
        );
    }
    const DISK_CEIL: f64 = 1.5;
    let disk_slowdown = disk_s / batch_s;
    let disk_cold_slowdown = disk_cold_s / batch_s;
    println!(
        "\ndisk-backed batch decode vs in-memory: {disk_slowdown:.2}× \
         (cold {disk_cold_slowdown:.2}×) — acceptance ceiling: {DISK_CEIL}×"
    );
    assert!(
        disk_slowdown <= DISK_CEIL,
        "disk-backed batch decode must stay within {DISK_CEIL}× of in-memory at depth {depth} \
         (got {disk_slowdown:.2}×)"
    );

    // --- Stored size -------------------------------------------------
    let file_bytes = file.as_bytes().expect("in-memory").len();
    let bytes_per_base = file_bytes as f64 / n_bases as f64;
    println!("\nstored size: {file_bytes} B ({bytes_per_base:.3} B/base)");
    for (name, s) in WriterStats::STREAM_NAMES.iter().zip(&writer_stats.streams) {
        println!(
            "  {name:>5} stream: {:>9} B raw → {:>9} B stored ({:.3}×)",
            s.raw,
            s.compressed,
            s.compressed as f64 / (s.raw as f64).max(1.0)
        );
    }

    // --- Supervisor overhead -----------------------------------------
    // The same in-memory batch decode with an armed (but never tripped)
    // run budget attached: every payload read now passes through the
    // retry/interrupt wrapper — one closure call, one atomic check and a
    // retry-counter read per block. Gated as a ratio over the plain
    // decode so the robustness layer cannot silently tax the fault-free
    // hot path.
    let supervised_file = file
        .clone()
        .with_budget(Arc::new(RunBudget::unbounded().arm()));
    // Measurement discipline for a 3% ceiling: back-to-back *pairs*
    // (plain then supervised, so time-varying host noise — frequency
    // drift, CPU steal — lands inside a pair and cancels in its ratio)
    // and the *median* of the per-pair ratios (so a pair that caught
    // interference on one side is an outlier, not the verdict). The
    // run-start `batch_s` sample is deliberately not reused — it was
    // measured under different machine state.
    let once = |f: &BalFile| {
        let t = Instant::now();
        decode_all(f);
        t.elapsed().as_secs_f64()
    };
    let (mut plain_adjacent_s, mut supervised_s) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = (0..(3 * reps).max(15))
        .map(|_| {
            let p = once(&file);
            let s = once(&supervised_file);
            plain_adjacent_s = plain_adjacent_s.min(p);
            supervised_s = supervised_s.min(s);
            s / p
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let supervisor_overhead = ratios[ratios.len() / 2];
    let supervisor_ceil = env_f64("ULTRAVC_SUPERVISOR_CEIL", 1.03);
    println!(
        "supervised batch decode (armed unbounded budget): {:.1}ms vs {:.1}ms plain, \
         median paired ratio {supervisor_overhead:.3}× (acceptance ceiling: {supervisor_ceil}×)",
        supervised_s * 1e3,
        plain_adjacent_s * 1e3,
    );
    assert!(
        supervisor_overhead <= supervisor_ceil,
        "supervision must cost ≤{supervisor_ceil}× on the fault-free decode path at depth \
         {depth} (got {supervisor_overhead:.3}×)"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"ingest_decode\",\n  \"depth\": {depth},\n  \"read_len\": {read_len},\n  \"records\": {n_records},\n  \"rows\": [\n{}\n  ],\n  \"disk\": {{\n    \"stream_slowdown\": {disk_slowdown:.3},\n    \"stream_cold_slowdown\": {disk_cold_slowdown:.3},\n    \"ceiling\": {DISK_CEIL},\n    \"identical_arenas\": true\n  }},\n  \"supervisor\": {{\n    \"overhead\": {supervisor_overhead:.4},\n    \"ceiling\": {supervisor_ceil}\n  }},\n  \"format\": {{\n    \"bytes_per_base\": {bytes_per_base:.4},\n    \"streams\": [\n{}\n    ]\n  }}\n}}\n",
        rows.iter()
            .map(|r| format!(
                "    {{\"path\": \"{}\", \"decode_ms\": {:.3}, \"records_per_s\": {:.1}, \"bases_per_s\": {:.1}}}",
                r.path,
                r.seconds * 1e3,
                r.records_per_s,
                r.bases_per_s
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        WriterStats::STREAM_NAMES
            .iter()
            .zip(&writer_stats.streams)
            .map(|(name, s)| format!(
                "      {{\"name\": \"{name}\", \"raw\": {}, \"compressed\": {}, \"ratio\": {:.4}}}",
                s.raw,
                s.compressed,
                s.compressed as f64 / (s.raw as f64).max(1.0)
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    std::fs::remove_file(&disk_path).ok();
    println!("wrote {out_path}");
}
