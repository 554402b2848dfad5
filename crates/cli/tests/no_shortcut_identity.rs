//! `ultravc call --no-shortcut` is the unaccelerated reference: on a deep
//! fixture, where the default run settles its variant columns by the
//! certified upper bound instead of the exact DP, the two must still print
//! the same bytes.

use std::process::{Command, Output};

fn ultravc(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_ultravc"))
        .args(args)
        .output()
        .expect("spawn ultravc");
    assert!(out.status.success(), "{args:?}: {out:?}");
    out
}

#[test]
fn no_shortcut_prints_the_same_bytes_on_a_deep_fixture() {
    let base = std::env::temp_dir().join(format!("ultravc-deep-{}", std::process::id()));
    let base = base.to_str().expect("utf-8 temp dir");
    let (bal, fa, vcf) = (
        format!("{base}.bal"),
        format!("{base}.fa"),
        format!("{base}.vcf"),
    );
    ultravc(&[
        "simulate",
        "--out",
        base,
        "--genome-len",
        "120",
        "--depth",
        "60000",
        "--seed",
        "9",
        "--variants",
        "5",
    ]);
    let call = |extra: &[&str]| {
        let mut args = vec!["call", "--input", &bal, "--ref", &fa];
        args.extend_from_slice(extra);
        ultravc(&args).stdout
    };
    let default = call(&[]);
    assert!(default.starts_with(b"##fileformat=VCF"));
    assert!(
        default.iter().filter(|&&b| b == b'\n').count() > 8,
        "the fixture must produce calls"
    );
    assert_eq!(default, call(&["--no-shortcut"]));
    assert_eq!(default, call(&["--mode", "openmp", "--threads", "2"]));

    // Not vacuous: the default run's summary says the certificate fired,
    // the reference run's says it did not.
    let summary = |extra: &[&str]| {
        let mut args = vec!["--out", vcf.as_str()];
        args.extend_from_slice(extra);
        String::from_utf8(call(&args)).expect("utf-8 summary")
    };
    let fired = summary(&[]);
    assert!(
        fired.contains("calls certified") && !fired.contains(", 0 of "),
        "{fired}"
    );
    let reference = summary(&["--no-shortcut"]);
    assert!(reference.contains(", 0 of "), "{reference}");

    for path in [
        bal.clone(),
        fa.clone(),
        vcf.clone(),
        format!("{base}.truth.tsv"),
    ] {
        std::fs::remove_file(path).ok();
    }
}
