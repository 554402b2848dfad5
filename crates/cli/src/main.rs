//! `ultravc` — command-line interface to the workspace.
//!
//! Subcommands:
//!
//! * `simulate` — generate a synthetic reference + ultra-deep read set.
//! * `call`     — call low-frequency SNVs from a BAL file (sequential or
//!   OpenMP-style parallel).
//! * `filter`   — apply the dynamic filter to a VCF.
//! * `upset`    — SNV-sharing analysis across several VCFs (Figure 3).
//! * `trace`    — parallel call with a per-thread timeline (Figure 2).
//! * `serve`    — long-lived region-call server (session reuse, result
//!   cache, per-request deadlines).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fs;
use std::io::BufReader;
use std::process::ExitCode;

use std::time::Duration;

use ultravc_bamlite::{BalError, BalFile, FaultPlan};
use ultravc_core::analysis::UpsetTable;
use ultravc_core::config::CallerConfig;
use ultravc_core::driver::{CallDriver, ParallelMode, CHUNK_COLUMNS};
use ultravc_core::RunBudget;
use ultravc_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use ultravc_genome::reference::{GenomeParams, ReferenceGenome};
use ultravc_parfor::Schedule;
use ultravc_readsim::dataset::DatasetSpec;
use ultravc_vcf::{parse_vcf, write_vcf, DynamicFilter, FilterParams};

const USAGE: &str = "\
ultravc — ultra-deep low-frequency variant calling (Kille et al. 2021 reproduction)

USAGE:
  ultravc simulate --out BASE [--genome-len N] [--depth D] [--seed S] [--variants N]
  ultravc call     --input FILE.bal --ref FILE.fa [--out FILE.vcf] [--threads N]
                   [--mode seq|openmp] [--max-depth N] [--no-shortcut]
                   [--no-filter] [--deadline-ms N] [--max-retries N]
                   [--region CHROM[:START-END]] [--min-af F]
  ultravc filter   --vcf FILE [--out FILE]
  ultravc upset    FILE.vcf FILE.vcf [FILE.vcf ...]
  ultravc trace    --input FILE.bal --ref FILE.fa [--threads N]
                   [--deadline-ms N] [--max-retries N]
  ultravc serve    (--input FILE.bal --ref FILE.fa [--sample NAME]
                    | --config SAMPLES.toml)
                   [--addr HOST:PORT] [--workers N] [--threads-per-call N]
                   [--max-inflight N] [--cache N] [--timeout-ms N]
                   [--cost-budget N] [--cache-cost-budget N]
                   [--breaker-threshold N] [--breaker-cooldown-ms N]
                   [--no-filter]

`simulate` writes BASE.bal (alignments), BASE.fa (reference) and
BASE.truth.tsv (planted variants).

`--input` keeps the BAL file open and reads each block's compressed
payload by one positioned read when a worker first needs it, so an
ultra-deep file is never held whole in memory. `--bal` is accepted as
an alias for `--input`. A flag a subcommand does not list is an error.

Runs are supervised: transient I/O errors are retried with capped
exponential backoff (--max-retries, default 4), and --deadline-ms
bounds the run's wall clock (it must be positive — a zero deadline
would expire before the run starts) — an expired deadline drains the
workers and reports the completed regions instead of hanging. In
every mode a failed or panicked chunk is contained as a partial result
(its region itemized on stderr; `--mode seq` runs the whole span as one
chunk) rather than aborting the whole run. `call` still writes the
completed regions' VCF, then exits non-zero whenever the result is
partial or the run was interrupted.

`call --region CHROM:START-END` (1-based inclusive, samtools style)
calls only that column span; the output is exactly the corresponding
slice of a whole-genome run. `--min-af F` drops records below an
allele-frequency floor after filtering. `serve` holds the BAL file
and session open and answers the same calls over HTTP — see the
ultravc-serve crate docs for the request grammar. `serve --config`
serves many samples from one process ([[sample]] tables with
name/bal/fasta keys); overload knobs (--cost-budget, the breaker
flags) tune load shedding and per-sample quarantine — 0 means auto.";

// The flags each subcommand's synopsis above lists, plus the `--bal`
// alias and the hidden `--fault`. Anything else is a usage error.
const SIMULATE_FLAGS: &[&str] = &["out", "genome-len", "depth", "seed", "variants"];
const CALL_FLAGS: &[&str] = &[
    "input",
    "bal",
    "ref",
    "out",
    "threads",
    "mode",
    "max-depth",
    "no-shortcut",
    "no-filter",
    "deadline-ms",
    "max-retries",
    "region",
    "min-af",
    "fault",
];
const FILTER_FLAGS: &[&str] = &["vcf", "out"];
const TRACE_FLAGS: &[&str] = &[
    "input",
    "bal",
    "ref",
    "threads",
    "deadline-ms",
    "max-retries",
    "fault",
];
const SERVE_FLAGS: &[&str] = &[
    "input",
    "bal",
    "ref",
    "sample",
    "config",
    "addr",
    "workers",
    "threads-per-call",
    "max-inflight",
    "cache",
    "timeout-ms",
    "cost-budget",
    "cache-cost-budget",
    "breaker-threshold",
    "breaker-cooldown-ms",
    "no-filter",
    "fault",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(rest),
        "call" => cmd_call(rest),
        "filter" => cmd_filter(rest),
        "upset" => cmd_upset(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `--key value` pairs plus positional arguments. A key outside
/// `known` is the usage error: a typo, or a flag this build no longer
/// has, must not silently run with a default in its place.
fn parse_flags(
    args: &[String],
    known: &[&str],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if !known.contains(&key) {
                return Err(format!("unknown flag `--{key}`\n\n{USAGE}"));
            }
            // Boolean flags take no value.
            if matches!(key, "no-shortcut" | "no-filter") {
                flags.insert(key.to_string(), "true".to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.insert(key.to_string(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, SIMULATE_FLAGS)?;
    let out = flags
        .get("out")
        .ok_or("simulate requires --out BASE")?
        .clone();
    let genome_len: usize = get_parsed(&flags, "genome-len", 2_000)?;
    let depth: f64 = get_parsed(&flags, "depth", 5_000.0)?;
    let seed: u64 = get_parsed(&flags, "seed", 42)?;
    let n_variants: usize = get_parsed(&flags, "variants", 12)?;

    let reference = ReferenceGenome::sars_cov_2_like(GenomeParams::with_length(genome_len), seed);
    let ds = DatasetSpec::new("cli", depth, seed)
        .with_variants(n_variants, 0.005, 0.05)
        .simulate(&reference);

    ds.alignments
        .write_to(format!("{out}.bal"))
        .map_err(|e| e.to_string())?;
    let mut fa = Vec::new();
    write_fasta(
        &mut fa,
        &[FastaRecord {
            name: reference.name.clone(),
            seq: reference.seq.clone(),
        }],
        70,
    )
    .map_err(|e| e.to_string())?;
    fs::write(format!("{out}.fa"), fa).map_err(|e| e.to_string())?;
    let mut tsv = String::from("pos\tref\talt\tfrequency\n");
    for v in &ds.truth {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{:.6}\n",
            v.snv.pos + 1,
            v.snv.ref_base,
            v.snv.alt_base,
            v.frequency
        ));
    }
    fs::write(format!("{out}.truth.tsv"), tsv).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}.bal (v{}, {} reads), {out}.fa ({} bp), {out}.truth.tsv ({} variants)",
        ds.alignments.version(),
        ds.alignments.n_records(),
        reference.len(),
        ds.truth.len()
    );
    Ok(())
}

fn load_reference(path: &str) -> Result<ReferenceGenome, String> {
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let records = read_fasta(BufReader::new(file)).map_err(|e| e.to_string())?;
    let first = records
        .into_iter()
        .next()
        .ok_or_else(|| format!("{path}: empty FASTA"))?;
    Ok(ReferenceGenome::from_seq(first.name, first.seq))
}

/// The BAL input path: `--input` (preferred) or its `--bal` alias.
fn input_path<'a>(flags: &'a HashMap<String, String>, cmd: &str) -> Result<&'a String, String> {
    flags
        .get("input")
        .or_else(|| flags.get("bal"))
        .ok_or_else(|| format!("{cmd} requires --input FILE.bal"))
}

/// Open the BAL file for on-demand positioned reads.
fn load_bal(path: &str, flags: &HashMap<String, String>) -> Result<BalFile, String> {
    let bal = BalFile::open(path).map_err(|e| format!("{path}: {e}"))?;
    // Hidden fault-injection hook for robustness testing: `--fault SPEC`
    // wraps the opened source in a deterministic fault source (same
    // grammar as ULTRAVC_FAULT; the explicit flag replaces any
    // env-derived plan).
    match flags.get("fault") {
        None => Ok(bal),
        Some(spec) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?;
            Ok(bal.with_faults(plan))
        }
    }
}

fn build_driver(flags: &HashMap<String, String>) -> Result<CallDriver, String> {
    let threads: usize = get_parsed(flags, "threads", 1)?;
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("seq") {
        "seq" => ParallelMode::Sequential,
        // Unclamped: the driver refuses zero threads as invalid input.
        "openmp" => ParallelMode::OpenMp {
            n_threads: threads,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: CHUNK_COLUMNS,
        },
        other => return Err(format!("--mode must be seq|openmp, got {other}")),
    };
    let mut config = if flags.contains_key("no-shortcut") {
        CallerConfig::original()
    } else {
        CallerConfig::improved()
    };
    config.pileup.max_depth = get_parsed(flags, "max-depth", 1_000_000usize)?;
    let filter = if flags.contains_key("no-filter") {
        None
    } else {
        Some(FilterParams::default())
    };
    Ok(CallDriver {
        config,
        filter,
        mode,
        trace: false,
        budget: run_budget(flags)?,
    })
}

/// The run's supervision policy from `--deadline-ms` / `--max-retries`
/// (defaults: no deadline, [`RunBudget::unbounded`]'s retry parameters).
fn run_budget(flags: &HashMap<String, String>) -> Result<RunBudget, String> {
    let mut budget = RunBudget::unbounded();
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms: cannot parse {ms:?}"))?;
        budget.deadline = Some(Duration::from_millis(ms));
    }
    budget.max_retries = get_parsed(flags, "max-retries", budget.max_retries)?;
    budget
        .validate()
        .map_err(|msg| format!("--deadline-ms: {msg}"))?;
    Ok(budget)
}

/// Resolve `--region` to a column span over `reference` (the whole
/// genome when the flag is absent). Shares the server's grammar so
/// `ultravc call --region` and `GET /call?region=` address identically.
fn call_span(
    flags: &HashMap<String, String>,
    reference: &ReferenceGenome,
) -> Result<std::ops::Range<u32>, String> {
    let len = reference.len() as u32;
    let Some(raw) = flags.get("region") else {
        return Ok(0..len);
    };
    let region = ultravc_serve::parse_region(raw).map_err(|e| format!("--region: {e}"))?;
    if region.chrom != reference.name {
        return Err(format!(
            "--region: unknown chromosome {:?} (reference is {:?})",
            region.chrom, reference.name
        ));
    }
    let span = region.span.unwrap_or(0..len);
    if span.end > len {
        return Err(format!(
            "--region: [{}, {}) out of bounds for {:?} of length {len}",
            span.start, span.end, reference.name
        ));
    }
    Ok(span)
}

/// Parse `--min-af` (an allele-frequency floor in `[0, 1]`).
fn min_af(flags: &HashMap<String, String>) -> Result<Option<f64>, String> {
    let Some(raw) = flags.get("min-af") else {
        return Ok(None);
    };
    let f: f64 = raw
        .parse()
        .map_err(|_| format!("--min-af: cannot parse {raw:?}"))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("--min-af: {f} outside [0, 1]"));
    }
    Ok(Some(f))
}

fn cmd_call(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, CALL_FLAGS)?;
    let bal = load_bal(input_path(&flags, "call")?, &flags)?;
    let reference = load_reference(flags.get("ref").ok_or("call requires --ref FILE.fa")?)?;
    let driver = build_driver(&flags)?;
    let span = call_span(&flags, &reference)?;
    let min_af = min_af(&flags)?;
    let mut outcome = driver
        .run_region(&reference, &bal, span)
        .map_err(|e| match &e {
            // A run that cannot start (zero threads, zero depth cap) is a
            // usage error, not a data failure.
            BalError::Io(io) if io.kind() == std::io::ErrorKind::InvalidInput => {
                format!("{e}\n\n{USAGE}")
            }
            _ => e.to_string(),
        })?;
    ultravc_serve::apply_min_af(&mut outcome.records, min_af);
    // Supervision report: anything short of a clean, complete run goes to
    // stderr so the VCF on stdout stays machine-readable.
    if let Some(why) = outcome.interrupt {
        eprintln!("run interrupted: {why} (completed regions reported)");
    }
    if !outcome.partial.is_empty() {
        eprintln!(
            "partial result: {} region(s) produced no calls",
            outcome.partial.len()
        );
        for region in &outcome.partial {
            eprintln!("  {region}");
        }
    }
    if outcome.io_retries > 0 {
        eprintln!(
            "transient I/O: {} read(s) retried successfully",
            outcome.io_retries
        );
    }
    let vcf = write_vcf(&reference.name, "ultravc-0.1", &outcome.records);
    match flags.get("out") {
        Some(path) => {
            fs::write(path, vcf).map_err(|e| e.to_string())?;
            println!(
                "{} records → {path} ({} columns, {:.1}% screened, {} of {} calls certified, \
                 {} window fallbacks, mean depth {:.0}, {:.1} quality bins/tested column, \
                 {} blocks decoded in {:?}, source {}, kernel {}, {:?})",
                outcome.records.len(),
                outcome.stats.columns,
                outcome.stats.skip_fraction() * 100.0,
                outcome.stats.certified_calls,
                outcome.stats.calls,
                outcome.stats.window_fallbacks,
                outcome.stats.mean_depth(),
                outcome.stats.mean_distinct_quals(),
                outcome.decode.blocks,
                outcome.decode.decode_time,
                outcome.source_tier,
                outcome.kernel,
                outcome.wall
            );
        }
        None => print!("{vcf}"),
    }
    // The VCF above holds the completed regions only; a caller checking
    // nothing but the exit status must not mistake it for the whole answer.
    if !outcome.partial.is_empty() || outcome.interrupt.is_some() {
        return Err(format!(
            "incomplete result: {} region(s) produced no calls",
            outcome.partial.len()
        ));
    }
    Ok(())
}

fn cmd_filter(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, FILTER_FLAGS)?;
    let path = flags.get("vcf").ok_or("filter requires --vcf FILE")?;
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = parse_vcf(BufReader::new(file))?;
    let report = DynamicFilter::new(FilterParams::default()).apply(&mut records);
    let vcf = write_vcf("unknown", "ultravc-filter", &records);
    match flags.get("out") {
        Some(out) => fs::write(out, vcf).map_err(|e| e.to_string())?,
        None => print!("{vcf}"),
    }
    eprintln!(
        "filtered: {} in, {} pass (QUAL threshold {:.2}; {} low-cov, {} strand-bias, {} low-qual)",
        report.examined,
        report.passed,
        report.qual_threshold,
        report.failed_coverage,
        report.failed_strand_bias,
        report.failed_quality
    );
    Ok(())
}

fn cmd_upset(args: &[String]) -> Result<(), String> {
    let (_, paths) = parse_flags(args, &[])?;
    if paths.len() < 2 {
        return Err("upset needs at least two VCF files".to_string());
    }
    let mut names = Vec::new();
    let mut sets = Vec::new();
    for path in &paths {
        let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let records = parse_vcf(BufReader::new(file))?;
        names.push(path.clone());
        sets.push(records);
    }
    let table = UpsetTable::from_call_sets(names, &sets);
    print!("{}", table.render_text());
    println!(
        "shared by all {}: {}",
        table.n_sets(),
        table.shared_by_all()
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, TRACE_FLAGS)?;
    let bal = load_bal(input_path(&flags, "trace")?, &flags)?;
    let reference = load_reference(flags.get("ref").ok_or("trace requires --ref FILE.fa")?)?;
    let threads: usize = get_parsed(&flags, "threads", 4)?;
    let driver = CallDriver {
        config: CallerConfig::improved(),
        filter: None,
        mode: ParallelMode::OpenMp {
            n_threads: threads.max(2),
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk_columns: CHUNK_COLUMNS,
        },
        trace: true,
        budget: run_budget(&flags)?,
    };
    let outcome = driver.run(&reference, &bal).map_err(|e| e.to_string())?;
    let timeline = outcome.timeline.expect("trace enabled");
    print!("{}", timeline.render_ascii(100));
    let team = outcome.team.expect("every run reports its team");
    println!(
        "calls: {}   wall: {:?}   source: {}   kernel: {}   \
         imbalance: {:.2}   straggler: T{:02}   decode: {} blocks in {:?}",
        outcome.records.len(),
        outcome.wall,
        bal.source().tier_name(),
        outcome.kernel,
        team.imbalance(),
        team.straggler(),
        outcome.decode.blocks,
        outcome.decode.decode_time
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, SERVE_FLAGS)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7777".to_string());
    let mut config = ultravc_serve::ServeConfig::new(addr);
    // Two mutually exclusive sample sources: a multi-sample config
    // file, or the classic single-sample --input/--ref pair.
    let banner_detail = if let Some(path) = flags.get("config") {
        if flags.contains_key("input") || flags.contains_key("bal") || flags.contains_key("ref") {
            return Err("serve: --config and --input/--ref are mutually exclusive".to_string());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let base = std::path::Path::new(path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .to_path_buf();
        config.samples =
            ultravc_serve::parse_samples(&text, &base).map_err(|e| format!("{path}: {e}"))?;
        let names: Vec<&str> = config.samples.iter().map(|s| s.name.as_str()).collect();
        format!("{} sample(s): {}", names.len(), names.join(", "))
    } else {
        let input = input_path(&flags, "serve")?.clone();
        let fasta = flags
            .get("ref")
            .ok_or("serve requires --ref FILE.fa (or --config SAMPLES.toml)")?
            .clone();
        let sample = flags
            .get("sample")
            .cloned()
            .unwrap_or_else(|| "default".to_string());
        let fault = match flags.get("fault") {
            None => None,
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?),
        };
        config.samples.push(ultravc_serve::SampleSpec {
            name: sample.clone(),
            bal: input.clone().into(),
            fasta: fasta.into(),
            fault,
        });
        format!("{sample} ({input})")
    };
    config.workers = get_parsed(&flags, "workers", config.workers)?;
    config.threads_per_call = get_parsed(&flags, "threads-per-call", config.threads_per_call)?;
    config.max_inflight = get_parsed(&flags, "max-inflight", config.max_inflight)?;
    config.cache_capacity = get_parsed(&flags, "cache", config.cache_capacity)?;
    if let Some(ms) = flags.get("timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--timeout-ms: cannot parse {ms:?}"))?;
        if ms == 0 {
            return Err(
                "--timeout-ms must be positive: a zero deadline expires before the run starts"
                    .to_string(),
            );
        }
        config.default_timeout = Some(Duration::from_millis(ms));
    }
    config.filter = !flags.contains_key("no-filter");
    config.cost_budget = get_parsed(&flags, "cost-budget", config.cost_budget)?;
    config.cache_cost_budget = get_parsed(&flags, "cache-cost-budget", config.cache_cost_budget)?;
    config.breaker.threshold = get_parsed(&flags, "breaker-threshold", config.breaker.threshold)?;
    if let Some(ms) = flags.get("breaker-cooldown-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--breaker-cooldown-ms: cannot parse {ms:?}"))?;
        config.breaker.cooldown = Duration::from_millis(ms);
    }
    let server = ultravc_serve::Server::bind(config).map_err(|e| e.to_string())?;
    // Scripted clients (CI's serve-smoke) wait for this exact line.
    println!("serving {banner_detail} on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = server.join();
    println!(
        "served {} request(s): {} complete, {} partial, {} rejected, \
         {} shed, {} quarantined, {} breaker trip(s), {} recovery(ies), \
         {} client-error, {} not-found, {} server-error, \
         {} disconnect-cancelled, {} session rebuild(s); \
         cache {} hit(s) / {} miss(es) / {} invalidated",
        report.requests,
        report.ok,
        report.partial,
        report.rejected,
        report.shed,
        report.quarantined,
        report.breaker_trips,
        report.recoveries,
        report.client_errors,
        report.not_found,
        report.server_errors,
        report.disconnect_cancels,
        report.session_rebuilds,
        report.cache.hits,
        report.cache.misses,
        report.cache.invalidated,
    );
    Ok(())
}
