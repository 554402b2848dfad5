//! `ultravc call`'s exit status: zero only for a complete result.
//!
//! A run that loses regions to a dead device or an expired deadline still
//! writes the completed regions' VCF and itemizes the rest on stderr, but
//! a caller that checks nothing except the exit status must see failure —
//! in both `--mode` values, since both contain failures per chunk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ultravc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ultravc"))
        .args(args)
        .output()
        .expect("spawn ultravc")
}

/// Simulate a small file; returns `(bal, fasta)` paths.
fn fixture(tag: &str) -> (String, String) {
    let base: PathBuf =
        std::env::temp_dir().join(format!("ultravc-exit-{}-{tag}", std::process::id()));
    let base = base.to_str().expect("utf-8 temp dir").to_string();
    let out = ultravc(&[
        "simulate",
        "--out",
        &base,
        "--genome-len",
        "600",
        "--depth",
        "300",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "simulate: {out:?}");
    (format!("{base}.bal"), format!("{base}.fa"))
}

fn cleanup(bal: &str, fa: &str) {
    for path in [
        bal.to_string(),
        fa.to_string(),
        bal.replace(".bal", ".truth.tsv"),
    ] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn call_exits_zero_only_when_the_result_is_complete() {
    let (bal, fa) = fixture("call");
    for mode in ["seq", "openmp"] {
        let call = |extra: &[&str]| {
            let mut args = vec!["call", "--input", &bal, "--ref", &fa, "--mode", mode];
            args.extend_from_slice(extra);
            ultravc(&args)
        };
        let clean = call(&[]);
        assert!(clean.status.success(), "{mode}: {clean:?}");
        assert!(String::from_utf8_lossy(&clean.stdout).starts_with("##fileformat=VCF"));

        for fault in [
            &["--fault", "fail_after=0"][..],
            &["--deadline-ms", "1", "--fault", "latency_us=20000"][..],
        ] {
            let out = call(fault);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{mode} {fault:?}: {stderr}");
            assert!(
                stderr.contains("partial result")
                    && stderr
                        .lines()
                        .any(|l| l.starts_with("  [") && l.contains("): ")),
                "{mode} {fault:?}: the lost regions are itemized: {stderr}"
            );
            // The report is still a VCF of whatever completed.
            assert!(String::from_utf8_lossy(&out.stdout).starts_with("##fileformat=VCF"));
        }
    }
    cleanup(&bal, &fa);
}

#[test]
fn script_mode_is_rejected_with_the_usage_error() {
    let (bal, fa) = fixture("script");
    // A retired mode, two retired flags, a typo, and a run that could not
    // call anything — no threads, or a depth cap that stacks no base: each
    // is an error that says what was not understood, never a run with a
    // default instead.
    for (extra, complaint) in [
        (
            &["--mode", "script"][..],
            "--mode must be seq|openmp, got script",
        ),
        (&["--source", "mmap"], "unknown flag `--source`"),
        (&["--prefetch", "on"], "unknown flag `--prefetch`"),
        (&["--thraeds", "4"], "unknown flag `--thraeds`"),
        (
            &["--mode", "openmp", "--threads", "0"],
            "thread count and chunk width must be positive",
        ),
        (&["--max-depth", "0"], "depth cap must be positive"),
    ] {
        let mut args = vec!["call", "--input", &bal, "--ref", &fa];
        args.extend_from_slice(extra);
        let out = ultravc(&args);
        assert!(!out.status.success(), "{extra:?}");
        assert!(out.stdout.is_empty(), "{extra:?}: nothing was called");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{extra:?}: {stderr}");
    }
    // The same check guards every subcommand that takes flags.
    let out = ultravc(&["trace", "--input", &bal, "--ref", &fa, "--prefetch", "on"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success()
            && stderr.contains("unknown flag `--prefetch`")
            && stderr.contains("USAGE:"),
        "{stderr}"
    );
    cleanup(&bal, &fa);
}
