//! `xlint` — the workspace knob auditor.
//!
//! Every tunable this repo exposes is a contract with three parties: the
//! code that reads it, the README that documents it, and the CI matrix
//! that exercises it. This binary cross-checks those parties and fails
//! (exit 1) on any drift:
//!
//! * an `ULTRAVC_*` environment variable referenced in code but absent
//!   from the README knob tables (undocumented knob);
//! * an `ULTRAVC_*` variable referenced only under `crates/bench/`: a
//!   harness's sizes are constants, and the repo benchmark reads no
//!   variable, so a bench-only knob is one nothing in CI or the tests
//!   sets;
//! * an `ULTRAVC_*` variable in the README but no longer read anywhere
//!   (stale documentation);
//! * an `ULTRAVC_*` variable set by a CI workflow but no longer read
//!   anywhere (stale CI matrix dimension);
//! * a `--flag` key the CLI parses but the README never mentions
//!   (undocumented flag).
//!
//! No dependencies, no config: the scan is purely lexical, so it works
//! on the offline CI runners and stays O(repo size). Run it from
//! anywhere in the workspace: `cargo run -p ultravc-xtask --bin xlint`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the paper harnesses and the repo benchmark live.
const BENCH_DIR: &str = "crates/bench/";

fn main() -> ExitCode {
    let root = repo_root();
    let mut errors = Vec::new();

    // ---- ULTRAVC_* environment variables --------------------------------
    let code_vars = env_vars_in_tree(&root, &["crates", "src", "tests"]);
    let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let readme_vars: BTreeSet<String> = env_vars_in_text(&readme).into_iter().collect();
    let ci_vars = env_vars_in_tree(&root, &[".github"]);

    for (var, files) in &code_vars {
        if files.iter().all(|f| f.starts_with(BENCH_DIR)) {
            errors.push(format!(
                "env var `{var}` is read only under {BENCH_DIR} ({}): bench sizes are constants, not knobs",
                files.iter().next().expect("non-empty provenance")
            ));
        }
        if !readme_vars.contains(var) {
            errors.push(format!(
                "env var `{var}` is read in code ({}) but missing from the README knob tables",
                files.iter().next().expect("non-empty provenance")
            ));
        }
    }
    for var in &readme_vars {
        if !code_vars.contains_key(var) {
            errors.push(format!(
                "env var `{var}` is documented in README.md but no code reads it (stale doc)"
            ));
        }
    }
    for (var, files) in &ci_vars {
        if !code_vars.contains_key(var) {
            errors.push(format!(
                "env var `{var}` is set by CI ({}) but no code reads it (stale matrix knob)",
                files.iter().next().expect("non-empty provenance")
            ));
        }
    }

    // ---- CLI --flag knobs ----------------------------------------------
    let code_flags = cli_flags_in_tree(&root.join("crates/cli/src"));
    let readme_flags = flags_in_text(&readme);
    for (flag, file) in &code_flags {
        if !readme_flags.contains(flag) {
            errors.push(format!(
                "CLI flag `--{flag}` is parsed in {file} but never mentioned in README.md"
            ));
        }
    }

    if errors.is_empty() {
        println!(
            "xlint ok: {} env vars ({} documented, {} in CI), {} CLI flags — no drift",
            code_vars.len(),
            readme_vars.len(),
            ci_vars.len(),
            code_flags.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("xlint: {e}");
        }
        eprintln!("xlint: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Every `ULTRAVC_*` token in `.rs`/`.yml`/`.yaml` files under the given
/// top-level directories, mapped to the files referencing it.
fn env_vars_in_tree(root: &Path, dirs: &[&str]) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in dirs {
        for file in files_under(&root.join(dir), &["rs", "yml", "yaml"]) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            for var in env_vars_in_text(&text) {
                out.entry(var).or_default().insert(rel.clone());
            }
        }
    }
    out
}

/// Lexical scan for `ULTRAVC_` followed by at least one `[A-Z0-9_]`.
fn env_vars_in_text(text: &str) -> Vec<String> {
    const PREFIX: &str = "ULTRAVC_";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(PREFIX) {
        let tail = &rest[i + PREFIX.len()..];
        let name_len = tail
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        if name_len > 0 {
            out.push(format!("{PREFIX}{}", &tail[..name_len]));
        }
        rest = &rest[i + PREFIX.len()..];
    }
    out
}

/// Flag keys the CLI actually parses: string literals behind the flag-map
/// lookups (`.get("k")` / `.contains_key("k")`), the first literal of
/// each `get_parsed(...)` call, and the boolean-flag `matches!(key, ...)`
/// alternatives. Purely lexical, tied to the CLI's parsing idioms — a new
/// lookup style should be added here when introduced.
fn cli_flags_in_tree(cli_src: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for file in files_under(cli_src, &["rs"]) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let name = file.display().to_string();
        for line in text.lines() {
            for marker in [".get(\"", ".contains_key(\""] {
                for key in literals_after_marker(line, marker) {
                    out.entry(key).or_insert_with(|| name.clone());
                }
            }
            if line.contains("get_parsed") {
                if let Some(key) = first_literal(line) {
                    out.entry(key).or_insert_with(|| name.clone());
                }
            }
            if line.contains("matches!(key") {
                for key in all_literals(line) {
                    out.entry(key).or_insert_with(|| name.clone());
                }
            }
        }
    }
    // Keep only plausible flag keys (lowercase kebab), dropping literals
    // like format strings that slip through the lexical net.
    out.retain(|k, _| {
        !k.is_empty()
            && k.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            && k.bytes().next().is_some_and(|b| b.is_ascii_lowercase())
    });
    out
}

/// Every string directly following `marker` up to the closing quote.
fn literals_after_marker(line: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(marker) {
        let tail = &rest[i + marker.len()..];
        if let Some(end) = tail.find('"') {
            out.push(tail[..end].to_string());
        }
        rest = &rest[i + marker.len()..];
    }
    out
}

/// The first `"…"` literal on the line, if any.
fn first_literal(line: &str) -> Option<String> {
    let start = line.find('"')? + 1;
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Every `"…"` literal on the line.
fn all_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        out.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    out
}

/// Every `--flag` mention in the text (README), without the dashes.
fn flags_in_text(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = text;
    while let Some(i) = rest.find("--") {
        let tail = &rest[i + 2..];
        let len = tail
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'-')
            .count();
        if len > 0 && tail.as_bytes()[0].is_ascii_lowercase() {
            out.insert(tail[..len].to_string());
        }
        rest = &rest[i + 2..];
    }
    out
}

/// Recursively list files with one of the given extensions, skipping
/// build output.
fn files_under(dir: &Path, exts: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            out.extend(files_under(&path, exts));
        } else if path
            .extension()
            .is_some_and(|e| exts.iter().any(|x| e == *x))
        {
            out.push(path);
        }
    }
    out
}
