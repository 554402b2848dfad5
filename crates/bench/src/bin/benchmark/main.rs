//! The repo's benchmark: BAL→VCF wall time on one and two threads, peak
//! memory, accuracy against simulator truth and `/call` latency on four
//! seeded workloads, with a traced run that attributes the time to layers.
//! `README.md` beside this file has the tables; `--list` prints them.
//!
//! One invocation is a parent that generates the inputs in child processes
//! (timed as `setup_s`), measures in one fresh child (so `peak_rss_mb`
//! covers the calling path alone) and prints the result.

mod batch;
mod dataset;
mod json;
mod report;
mod rng;
mod serve;
mod span;
mod stat;
mod table;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dataset::Inputs;
use json::Reported;
use report::{Measured, Report};
use table::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
          [--sets N] [--quick] [--trace-out FILE] [--list]

  --workload NAME   run one of deep_100k, wide_1k, noisy_3k, serve_mix (default: all)
  --seed N          seed of the generated inputs and request stream (default 1)
  --seconds S       length of the timed phases of one run (default 12)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both)
  --sets N          run the end-to-end set N times, alternating workload order, and
                    fail if two medians of a metric differ by more than its bound
  --quick           smoke mode: 2 s runs, one set-up, bounds not checked
  --trace-out FILE  write the traced run's spans as Chrome-trace JSON
  --list            print the workload and metric table and exit";

/// How one run measures.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Times the inputs are generated and the server bound; `setup_s` is
    /// the median.
    pub setup_reps: usize,
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    sets: usize,
    quick: bool,
    list: bool,
    trace_out: Option<PathBuf>,
    /// `gen` or `measure`: this process is a child of the benchmark, told
    /// where its files are and how often to set the server up.
    child: Option<String>,
    dir: Option<PathBuf>,
    setup_reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        sets: 1,
        quick: false,
        list: false,
        trace_out: None,
        child: None,
        dir: None,
        setup_reps: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    table::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|_| "--sets: not a number")?;
                if args.sets == 0 {
                    return Err("--sets must be at least 1".to_string());
                }
            }
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--child" => args.child = Some(value()?),
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--setup-reps" => {
                args.setup_reps = value()?.parse().map_err(|_| "--setup-reps: not a number")?
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        table::print_list();
        return ExitCode::SUCCESS;
    }
    let outcome = match args.child.as_deref() {
        Some(kind) => child_main(kind, &args),
        None => parent_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- children

fn child_main(kind: &str, args: &Args) -> Result<bool, String> {
    let w = args.workload.ok_or("child needs --workload")?;
    let dir = args.dir.as_deref().ok_or("child needs --dir")?;
    let inputs = Inputs::in_dir(dir);
    match kind {
        "gen" => dataset::generate(w, args.seed, &inputs).map(|()| true),
        "measure" => {
            let plan = Plan {
                seed: args.seed,
                seconds: args.seconds.ok_or("child needs --seconds")?,
                traced: args.trace.ok_or("child needs --trace")?,
                setup_reps: args.setup_reps,
            };
            let report = measure(w, &inputs, &plan, args.trace_out.as_deref())?;
            print!("{}", report.render());
            Ok(true)
        }
        other => Err(format!("unknown child kind {other:?}")),
    }
}

/// Everything one run measures, in the measuring child: call reps, truth,
/// serve loop, then the traced layers.
fn measure(
    w: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    trace_out: Option<&Path>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let truth = dataset::load_truth(&inputs.truth)?;
    let reference = dataset::load_reference(&inputs.fasta)?;
    let version = ultravc_bamlite::BalFile::open(&inputs.bal)
        .map_err(|e| e.to_string())?
        .version();
    report.note("bal_version", version);

    let batch_budget = Duration::from_secs_f64(plan.seconds * w.batch_share);
    let serve_budget = Duration::from_secs_f64(plan.seconds * (1.0 - w.batch_share));
    let run = batch::run_reps(inputs, batch_budget, &mut report)?;
    batch::score_truth(&run.outcome.records, &truth, &mut report);
    let served = serve::run(w, inputs, &reference, plan, serve_budget, &mut report)?;
    report.median("serve_setup_s", &served.setup_s);

    if plan.traced {
        let mut spans = batch::trace_layers(inputs, &run, &mut report)?;
        if let Some(path) = trace_out {
            let base = spans.len() as u32;
            spans.extend(served.spans.into_iter().map(|mut s| {
                s.id += base;
                s
            }));
            std::fs::write(path, span::chrome_trace(&spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    report.metric("serve.peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

/// `VmHWM` of this process: the most resident memory it has held so far.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

// ------------------------------------------------------------------ parent

/// One finished run: what the result line says.
struct RunResult {
    correct: bool,
    /// The reported metrics by name.
    values: BTreeMap<&'static str, f64>,
}

fn parent_main(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let traces: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 2.0 } else { RUN_SECONDS as f64 });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {cores} core(s), {}", rustc_version());

    let mut all_correct = true;
    let mut sets: Vec<BTreeMap<(&str, &str), f64>> = Vec::new();
    for set in 0..args.sets {
        let mut order = workloads.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut medians = BTreeMap::new();
        for w in order {
            for &traced in traces {
                // Later sets repeat the end-to-end runs only.
                if traced && set > 0 {
                    continue;
                }
                let plan = Plan {
                    seed: args.seed,
                    seconds,
                    traced,
                    setup_reps: if args.quick { 1 } else { 3 },
                };
                let result = run_one(w, &plan, args.trace_out.as_deref())?;
                all_correct &= result.correct;
                if !traced {
                    for (name, value) in result.values {
                        medians.insert((w.name, name), value);
                    }
                }
            }
        }
        sets.push(medians);
    }
    let repeatable = sets.len() < 2 || args.quick || repeat_check(&sets);
    Ok(all_correct && repeatable)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string())
}

/// Scratch space beside the executable: inside the build directory, so
/// inside the checkout and already ignored by git.
fn data_dir(w: &Workload, plan: &Plan) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("benchmark-data")
        .join(format!(
            "{}-{}-{}-{}",
            w.name,
            plan.seed,
            u8::from(plan.traced),
            std::process::id()
        ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn child_command(kind: &str, w: &Workload, plan: &Plan, dir: &Path) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", w.name])
        .arg("--dir")
        .arg(dir)
        .args(["--seed", &plan.seed.to_string()])
        .stdin(Stdio::null());
    Ok(cmd)
}

/// One run of one workload: generate (timed), measure in a fresh child,
/// print the metrics and the result line, remove the files.
fn run_one(
    w: &'static Workload,
    plan: &Plan,
    trace_out: Option<&Path>,
) -> Result<RunResult, String> {
    let dir = data_dir(w, plan)?;
    let result = run_in(w, plan, trace_out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    w: &'static Workload,
    plan: &Plan,
    trace_out: Option<&Path>,
    dir: &Path,
) -> Result<RunResult, String> {
    println!(
        "\n== {} · seed {} · {} s · {} ==",
        w.name,
        plan.seed,
        plan.seconds,
        if plan.traced {
            "traced, per-layer"
        } else {
            "tracing off, end-to-end"
        }
    );
    let mut gen_s = Vec::new();
    for _ in 0..plan.setup_reps {
        let t = Instant::now();
        let status = child_command("gen", w, plan, dir)?
            .status()
            .map_err(|e| format!("spawn generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generation failed ({status})"));
        }
        gen_s.push(t.elapsed().as_secs_f64());
    }

    let mut cmd = child_command("measure", w, plan, dir)?;
    cmd.args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if plan.traced { "1" } else { "0" }])
        .args(["--setup-reps", &plan.setup_reps.to_string()])
        .stdout(Stdio::piped());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn measuring child: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring child failed ({})", out.status));
    }
    let mut report = Report::parse(&String::from_utf8_lossy(&out.stdout))?;

    // Set-up a user waits for: inputs on disk, then a server answering.
    let serve_setup = report
        .get("serve_setup_s")
        .ok_or("measuring child reported no serve_setup_s")?;
    report.metric("setup_s", stat::median(&gen_s) + serve_setup.value);

    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("  [{}]", notes.join(" · "));
    let table: &[table::Metric] = if plan.traced { &PER_LAYER } else { &END_TO_END };
    let mut values = BTreeMap::new();
    let mut reported = Vec::new();
    for m in table {
        let Measured { value, spread } = report
            .get(m.name)
            .ok_or_else(|| format!("measuring child reported no {}", m.name))?;
        match spread {
            Some(s) => println!(
                "  {:<30} {:>14.4} {:<8} p25 {:.4}  p75 {:.4}  n {}",
                m.name, value, m.unit, s.p25, s.p75, s.n
            ),
            None => println!("  {:<30} {:>14.4} {:<8}", m.name, value, m.unit),
        }
        values.insert(m.name, value);
        reported.push(Reported {
            name: m.name,
            value,
            unit: m.unit,
        });
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    let correct = report.failed == 0 && reported.iter().all(|r| r.value.is_finite());
    println!(
        "  ops_attempted {}  ops_failed {}",
        report.attempted, report.failed
    );
    println!(
        "{}",
        json::result_line(correct, report.attempted.max(1), report.failed, &reported)
    );
    Ok(RunResult { correct, values })
}

/// `--sets`: every end-to-end median of the first two sets must agree
/// within its metric's bound. Prints the observed spread beside each bound.
fn repeat_check(sets: &[BTreeMap<(&str, &str), f64>]) -> bool {
    println!("\n== repeat check: set 1 vs set 2 ==");
    let mut ok = true;
    for ((workload, metric), a) in &sets[0] {
        let Some(b) = sets[1].get(&(*workload, *metric)) else {
            continue;
        };
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0);
        let spread = (a - b).abs() / a.abs();
        let within = spread <= bound;
        ok &= within;
        println!(
            "  {workload:<10} {metric:<20} {a:>12.4} {b:>12.4}  spread {:>6.2}%  bound {:>5.1}%  {}",
            spread * 100.0,
            bound * 100.0,
            if within { "ok" } else { "OUTSIDE" }
        );
    }
    ok
}
