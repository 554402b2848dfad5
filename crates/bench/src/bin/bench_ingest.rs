//! Ingest-path throughput: arena batch decode across the byte-source
//! tiers, the supervisor's overhead on it, and the stream-tier prefetch
//! overlap. (End-to-end BAL→VCF numbers live in the repo benchmark,
//! `crates/bench/src/bin/benchmark`.)
//!
//! Three measurements:
//!
//! 1. **Decode throughput** on a depth-100k read stack (100k × 150 bp
//!    reads over a ~300-column window, Phred 20–40 plateau mix — the
//!    same spectrum shape as `bench_binned`'s columns): records/s and
//!    bases/s for `BalReader::decode_batch` over the in-memory file and
//!    over the mmap and streaming tiers, warm and cold, with stored
//!    bytes/base and per-stream raw→stored ratios recorded alongside.
//! 2. **Supervisor overhead** on the same decode.
//! 3. **Cold-open prefetch e2e** on the streaming tier.
//!
//! Prints the tables and emits `BENCH_ingest.json` (working directory;
//! override with `ULTRAVC_BENCH_OUT`); CI uploads the JSON as a workflow
//! artifact next to `BENCH_binned.json`.
//!
//! Acceptance gates this binary enforces:
//!
//! * disk-backed batch decode (fresh `BalFile::open` per pass, mmap
//!   tier) within 1.5× of the in-memory batch wall time — i.e. paging
//!   payloads in on demand must not give back the arena decode win
//!   (override with `ULTRAVC_DISK_FLOOR`); the streaming tier is
//!   reported alongside, ungated;
//! * disk-decoded arenas bitwise equal to in-memory arenas, every tier;
//! * supervised batch decode (an armed, untripped `RunBudget` attached,
//!   so every payload read goes through the retry/interrupt wrapper)
//!   within 3% of the unsupervised wall time
//!   (`ULTRAVC_SUPERVISOR_CEIL`, default 1.03) — robustness must ride
//!   along for free on the fault-free path;
//! * stream-tier cold e2e (fresh `open` per run, one worker) with
//!   prefetch on ≥ 1.3× over prefetch off on a decode-bound noisy-qual
//!   workload (`ULTRAVC_PREFETCH_FLOOR`; enforced only on multi-core
//!   hosts — a single core cannot overlap — and skipped entirely when no
//!   writable disk is available), with calls bitwise identical and
//!   per-run block decode counts unchanged (decode-once preserved).

use std::sync::Arc;
use std::time::Instant;
use ultravc_bamlite::{BalFile, BalWriter, Flags, Record, RecordBatch, SourceTier, WriterStats};
use ultravc_bench::{env_f64, env_usize, fmt_depth, rule};
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, PrefetchMode};
use ultravc_core::RunBudget;
use ultravc_genome::phred::Phred;
use ultravc_genome::reference::ReferenceGenome;
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

/// A decode-bound ultra-deep stack for the prefetch e2e, plus its
/// matching reference: every base's quality is drawn independently from
/// Phred 20–40 (RLE runs of ~1 — the expensive end of real noisy
/// Illumina tails, where block decode genuinely dominates), and every
/// read matches the reference exactly (clean columns, so the caller's
/// work is the cheap screen and ingest is the bottleneck prefetch
/// exists to hide).
fn noisy_match_stack(
    n_reads: usize,
    read_len: usize,
    genome_len: usize,
    seed: u64,
) -> (BalFile, ReferenceGenome) {
    assert!(genome_len > read_len);
    let mut rng = Rng::new(seed);
    let pattern = |p: usize| b"ACGT"[p % 4];
    let genome: Vec<u8> = (0..genome_len).map(pattern).collect();
    let reference = ReferenceGenome::from_seq("prefetch-e2e", Seq::from_ascii(&genome).unwrap());
    let span = (genome_len - read_len) as u64;
    let mut rows: Vec<(u32, u64)> = (0..n_reads as u64)
        .map(|id| (rng.range_u64(0, span + 1) as u32, id))
        .collect();
    rows.sort();
    let mut w = BalWriter::new();
    for (pos, id) in rows {
        let bases: Vec<u8> = (0..read_len).map(|i| pattern(pos as usize + i)).collect();
        let quals: Vec<Phred> = (0..read_len)
            .map(|_| Phred::new(rng.range_u64(20, 40) as u8))
            .collect();
        let flags = if id % 2 == 0 {
            Flags::none()
        } else {
            Flags::REVERSE
        };
        let rec = Record::full_match(id, pos, 60, flags, Seq::from_ascii(&bases).unwrap(), quals)
            .unwrap();
        w.push(rec).unwrap();
    }
    (w.finish(), reference)
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

    // Disk-backed correctness before disk speed: every tier's arenas
    // must be bitwise identical to the in-memory decode.
    let disk_path =
        std::env::temp_dir().join(format!("ultravc-bench-ingest-{}.bal", std::process::id()));
    file.write_to(&disk_path).expect("write bench BAL file");
    for tier in [SourceTier::Mmap, SourceTier::Stream] {
        let disk = BalFile::open_with(&disk_path, tier).unwrap();
        let mut mem_reader = file.reader();
        let mut disk_reader = disk.reader();
        let (mut a, mut b) = (RecordBatch::new(), RecordBatch::new());
        for i in 0..file.n_blocks() {
            mem_reader.decode_batch(i, &mut a).unwrap();
            disk_reader.decode_batch(i, &mut b).unwrap();
            assert_eq!(a, b, "{tier:?} block {i}: disk arena diverged from memory");
        }
    }

    let batch_s = time_median(reps, || {
        let mut reader = file.reader();
        let mut batch = RecordBatch::new();
        for i in 0..file.n_blocks() {
            reader.decode_batch(i, &mut batch).unwrap();
            std::hint::black_box(&batch);
        }
    });
    // Two disk measurements per tier:
    // * cold — a fresh `open` per pass, so index parse and payload
    //   fault-in/read are inside the timing (what a one-shot run pays);
    // * warm — one shared open, decode per pass (steady state once the
    //   page cache holds the working set; this is the gated row).
    let disk_cold = |tier: SourceTier| {
        time_median(reps, || {
            let disk = BalFile::open_with(&disk_path, tier).unwrap();
            let mut reader = disk.reader();
            let mut batch = RecordBatch::new();
            for i in 0..disk.n_blocks() {
                reader.decode_batch(i, &mut batch).unwrap();
                std::hint::black_box(&batch);
            }
        })
    };
    let disk_warm = |tier: SourceTier| {
        let disk = BalFile::open_with(&disk_path, tier).unwrap();
        time_median(reps, || {
            let mut reader = disk.reader();
            let mut batch = RecordBatch::new();
            for i in 0..disk.n_blocks() {
                reader.decode_batch(i, &mut batch).unwrap();
                std::hint::black_box(&batch);
            }
        })
    };
    let mmap_cold_s = disk_cold(SourceTier::Mmap);
    let mmap_s = disk_warm(SourceTier::Mmap);
    let stream_cold_s = disk_cold(SourceTier::Stream);
    let stream_s = disk_warm(SourceTier::Stream);
    let rows = [
        DecodeRow::new("batch", batch_s, n_records, n_bases),
        DecodeRow::new("batch-mmap", mmap_s, n_records, n_bases),
        DecodeRow::new("batch-mmap-cold", mmap_cold_s, n_records, n_bases),
        DecodeRow::new("batch-stream", stream_s, n_records, n_bases),
        DecodeRow::new("batch-stream-cold", stream_cold_s, n_records, n_bases),
    ];
    let header = format!(
        "{:>8} {:>12} {:>16} {:>16}",
        "path", "decode", "records/s", "bases/s"
    );
    println!("\n{header}");
    rule(header.len());
    for r in &rows {
        println!(
            "{:>8} {:>11.1}ms {:>16.3e} {:>16.3e}",
            r.path,
            r.seconds * 1e3,
            r.records_per_s,
            r.bases_per_s
        );
    }
    let disk_floor = env_f64("ULTRAVC_DISK_FLOOR", 1.5);
    let mmap_slowdown = mmap_s / batch_s;
    let stream_slowdown = stream_s / batch_s;
    println!(
        "\ndisk-backed batch decode vs in-memory: mmap {mmap_slowdown:.2}× \
         (cold {:.2}×), stream {stream_slowdown:.2}× (cold {:.2}×) \
         — mmap acceptance ceiling: {disk_floor}×",
        mmap_cold_s / batch_s,
        stream_cold_s / batch_s,
    );
    assert!(
        mmap_slowdown <= disk_floor,
        "mmap-backed batch decode must stay within {disk_floor}× of in-memory at depth {depth} \
         (got {mmap_slowdown:.2}×)"
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
    let decode_all = |f: &BalFile| {
        let mut reader = f.reader();
        let mut batch = RecordBatch::new();
        for i in 0..f.n_blocks() {
            reader.decode_batch(i, &mut batch).unwrap();
            std::hint::black_box(&batch);
        }
    };
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

    // --- Cold-open prefetch e2e (stream tier) ------------------------
    // The scheduled-I/O gate: a fresh `open` through the streaming tier
    // per run ("cold": index parse + every payload `pread` inside the
    // timing), one worker thread, prefetch off vs on. With prefetch on,
    // the bounded read-ahead thread fetches and decodes upcoming blocks
    // into the shared cache while the worker piles up and tests columns —
    // the overlap is the measurement, so the workload is the decode-bound
    // shape prefetch exists for: per-base noisy qualities (RLE runs of
    // ~1, the expensive end of real Illumina tails) over reads matching
    // the reference exactly (clean columns, cheap calling, ingest
    // dominant). Calls must be bitwise identical and per-run block decode
    // counts unchanged (decode-once preserved); wall time is gated at
    // ≥ ULTRAVC_PREFETCH_FLOOR (default 1.3×). Skips (with a message)
    // when no writable disk is available.
    let prefetch_threads = env_usize("ULTRAVC_PREFETCH_THREADS", 1);
    let prefetch_reads = env_usize("ULTRAVC_PREFETCH_READS", 20_000);
    let (noisy_file, noisy_ref) = noisy_match_stack(prefetch_reads, read_len, 400, 0xFEE1);
    let prefetch_disk =
        std::env::temp_dir().join(format!("ultravc-bench-prefetch-{}.bal", std::process::id()));
    let prefetch_json = match noisy_file.write_to(&prefetch_disk) {
        Err(e) => {
            println!("\nprefetch e2e: SKIPPED (no writable disk: {e})");
            "  \"prefetch\": {\"skipped\": true}".to_string()
        }
        Ok(()) => {
            let run_cold = |prefetch: PrefetchMode| {
                let disk = BalFile::open_with(&prefetch_disk, SourceTier::Stream).unwrap();
                let mut driver = CallDriver::openmp(prefetch_threads);
                driver.config = CallerConfig::improved();
                driver.prefetch = prefetch;
                driver.run(&noisy_ref, &disk).unwrap()
            };
            // Read-ahead depth = the whole schedule: the measurement is
            // pure fetch/decode-vs-consume overlap, with no pacing stalls
            // (the residency the bound exists to cap is the entire file
            // here, a few MB).
            let full_ahead = PrefetchMode::Ahead(noisy_file.n_blocks().max(1));
            // Correctness before speed: identical calls and decisions,
            // unchanged decode totals, decode-once preserved.
            let off_out = run_cold(PrefetchMode::Off);
            let on_out = run_cold(full_ahead);
            assert_eq!(
                off_out.records, on_out.records,
                "prefetch must not change calls"
            );
            assert_eq!(
                off_out.stats, on_out.stats,
                "prefetch must not change decisions"
            );
            assert_eq!(
                off_out.decode.blocks, on_out.decode.blocks,
                "prefetch must not change per-run block decode counts"
            );
            assert_eq!(
                on_out.decode.blocks,
                noisy_file.n_blocks() as u64,
                "decode-once must hold with the read-ahead running"
            );
            let off_s = time_median(reps, || {
                std::hint::black_box(run_cold(PrefetchMode::Off).records.len());
            });
            let on_s = time_median(reps, || {
                std::hint::black_box(run_cold(full_ahead).records.len());
            });
            let prefetch_speedup = off_s / on_s;
            let prefetch_floor = env_f64("ULTRAVC_PREFETCH_FLOOR", 1.3);
            // Overlap needs a second hardware thread to run the
            // read-ahead on; on a single-core host the measurement is
            // pure contention, so — like the SIMD gate on hosts without
            // a vector backend — the floor is reported but not enforced.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let gated = cores >= 2;
            println!(
                "\nstream-tier cold e2e ({prefetch_threads} worker thread(s), {prefetch_reads} \
                 noisy-qual reads, {} blocks, decode share {:.0}%): prefetch off {:.1}ms, \
                 on {:.1}ms → {prefetch_speedup:.2}× (acceptance floor: {prefetch_floor}×{})",
                noisy_file.n_blocks(),
                100.0 * off_out.decode.decode_time.as_secs_f64() / off_out.wall.as_secs_f64(),
                off_s * 1e3,
                on_s * 1e3,
                if gated {
                    ""
                } else {
                    ", NOT enforced: single-core host cannot overlap"
                },
            );
            assert!(
                !gated || prefetch_speedup >= prefetch_floor,
                "stream-tier cold e2e with prefetch on must be ≥{prefetch_floor}× over off \
                 (got {prefetch_speedup:.2}× on {cores} cores)"
            );
            format!(
                "  \"prefetch\": {{\n    \"stream_cold_off_s\": {off_s:.6},\n    \
                 \"stream_cold_on_s\": {on_s:.6},\n    \"speedup\": {prefetch_speedup:.3},\n    \
                 \"threads\": {prefetch_threads},\n    \"reads\": {prefetch_reads},\n    \
                 \"cores\": {cores},\n    \"floor\": {prefetch_floor},\n    \"gated\": {gated},\n    \
                 \"identical_calls\": true,\n    \"decode_blocks_unchanged\": true\n  }}"
            )
        }
    };
    std::fs::remove_file(&prefetch_disk).ok();

    let json = format!(
        "{{\n  \"benchmark\": \"ingest_decode\",\n  \"depth\": {depth},\n  \"read_len\": {read_len},\n  \"records\": {n_records},\n  \"rows\": [\n{}\n  ],\n  \"disk\": {{\n    \"mmap_slowdown\": {mmap_slowdown:.3},\n    \"mmap_cold_slowdown\": {:.3},\n    \"stream_slowdown\": {stream_slowdown:.3},\n    \"stream_cold_slowdown\": {:.3},\n    \"identical_arenas\": true\n  }},\n  \"supervisor\": {{\n    \"overhead\": {supervisor_overhead:.4},\n    \"ceiling\": {supervisor_ceil}\n  }},\n  \"format\": {{\n    \"bytes_per_base\": {bytes_per_base:.4},\n    \"streams\": [\n{}\n    ]\n  }},\n{}\n}}\n",
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
        mmap_cold_s / batch_s,
        stream_cold_s / batch_s,
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
        prefetch_json,
    );
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    std::fs::remove_file(&disk_path).ok();
    println!("wrote {out_path}");
}
