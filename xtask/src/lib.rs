//! `xtask` — workspace automation for the MPTCP reproduction.
//!
//! Three subcommands: `cargo xtask lint`, the determinism & invariant
//! lint pass described in DESIGN.md §3.2d; `cargo xtask bench-check`, the
//! `BENCH_sim.json` performance-regression gate; and `cargo xtask
//! perf-table`, which regenerates the README performance table from the
//! same records. The library half exists so the fixture self-tests
//! (`xtask/tests/`) can drive the exact code the CLI runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod perf_table;
pub mod report;

pub use bench::{compare, is_throughput_field, parse_bench, BenchRecord, Comparison};
pub use lints::{
    collect_allows, collect_symbols, lint_group, lint_group_with, Allow, FileInput, Finding,
    PubItem, Rule, Scope, Symbols,
};
pub use report::{findings_from_json, findings_to_json, github_annotations};

use std::io;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is simulation library code (full rule set: the
/// type-level `unordered-iter` ban and the `f32` ban apply).
pub const SIM_CRATES: &[&str] = &["core", "netsim", "proto", "topology", "workload"];

/// Directories never linted: external stand-ins, build output, and the
/// linter's own crate dir (its `src/` is added as an explicit group by
/// `lint_workspace`; its fixture corpus is deliberately violating).
const EXCLUDED_TOP_LEVEL: &[&str] = &["vendored", "target", "xtask"];

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_group(
    root: &Path,
    dirs: &[(PathBuf, Scope)],
) -> io::Result<Vec<FileInput>> {
    let mut files = Vec::new();
    for (dir, scope) in dirs {
        let mut paths = Vec::new();
        walk_rs_files(dir, &mut paths)?;
        for p in paths {
            let source = std::fs::read_to_string(&p)?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            files.push(FileInput { path: rel, source, scope: *scope });
        }
    }
    Ok(files)
}

/// Lint the whole workspace rooted at `root`. Grouping is per crate so
/// the `digest-surface` rule can find `DetDigest` impls anywhere in the
/// owning crate; `src/`, `tests/`, `benches/` and `examples/` of the
/// umbrella crate form one group, and `xtask/src` itself a final one (the
/// linter eats its own cooking — its fixture corpus under `xtask/tests`
/// stays excluded because it is deliberately violating). The symbol
/// table is collected over *all* groups first, so `exhaustive-match`
/// sees an enum's `lint:exhaustive` marker from any crate.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut groups: Vec<Vec<FileInput>> = Vec::new();
    for crate_dir in crate_dirs {
        let name = crate_dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if EXCLUDED_TOP_LEVEL.contains(&name.as_str()) {
            continue;
        }
        let src_scope =
            if SIM_CRATES.contains(&name.as_str()) { Scope::Sim } else { Scope::General };
        let dirs = vec![
            (crate_dir.join("src"), src_scope),
            (crate_dir.join("tests"), Scope::General),
            (crate_dir.join("benches"), Scope::General),
        ];
        groups.push(load_group(root, &dirs)?);
    }

    // Umbrella crate: integration tests and examples.
    groups.push(load_group(
        root,
        &[
            (root.join("src"), Scope::General),
            (root.join("tests"), Scope::General),
            (root.join("examples"), Scope::General),
        ],
    )?);

    // The linter's own sources (not its fixture corpus).
    groups.push(load_group(root, &[(root.join("xtask").join("src"), Scope::General)])?);

    let all_files: Vec<FileInput> = groups.iter().flatten().cloned().collect();
    let symbols = lints::collect_symbols(&all_files);

    let mut findings = Vec::new();
    for files in &groups {
        findings.extend(lint_group_with(files, &symbols));
    }
    findings.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(findings)
}

/// What [`audit_allows`] returns: each annotation with its file, and the
/// findings for malformed ones.
type AllowAudit = (Vec<(PathBuf, Allow)>, Vec<Finding>);

/// Every well-formed `lint:allow` annotation in the workspace (for the
/// annotation-audit test), plus findings for the malformed ones.
pub fn audit_allows(root: &Path) -> io::Result<AllowAudit> {
    let mut dirs: Vec<(PathBuf, Scope)> = vec![
        (root.join("src"), Scope::General),
        (root.join("tests"), Scope::General),
        (root.join("examples"), Scope::General),
        (root.join("xtask").join("src"), Scope::General),
    ];
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let p = entry?.path();
        if p.is_dir() {
            dirs.push((p, Scope::General));
        }
    }
    let files = load_group(root, &dirs)?;
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for f in &files {
        let (a, b) = collect_allows(&f.path, &f.source);
        allows.extend(a.into_iter().map(|a| (f.path.clone(), a)));
        bad.extend(b);
    }
    Ok((allows, bad))
}

/// A mechanical rewrite for a finding's offending line, when one exists:
/// `(before, after)` of the trimmed source line. Used by `--fix` to print
/// suggestion diffs (the linter never edits files).
pub fn mechanical_fix(finding: &Finding) -> Option<(String, String)> {
    let line = finding.snippet.clone();
    let rewritten = match finding.rule {
        Rule::UnorderedIter => {
            line.replace("HashMap", "BTreeMap").replace("HashSet", "BTreeSet")
        }
        Rule::WallClock if line.contains("Instant::now") => line
            .replace("std::time::Instant::now()", "mptcp_netsim::perf::wall_clock()")
            .replace("Instant::now()", "mptcp_netsim::perf::wall_clock()"),
        Rule::FloatOrd if line.contains(".partial_cmp(") => {
            let mut s = line.replace(".partial_cmp(", ".total_cmp(");
            // total_cmp returns Ordering directly.
            for unwrapper in [").unwrap()", ").expect(\"total order\")"] {
                if let Some(stripped) = s.strip_suffix(unwrapper) {
                    s = format!("{stripped})");
                    break;
                }
            }
            s = s.replace(").unwrap())", "))");
            s
        }
        Rule::FloatOrd if line.contains("f32") => line.replace("f32", "f64"),
        // Guard-heavy dispatch: only the cases above have mechanical
        // rewrites; every other rule needs a judgment call.
        // lint:allow(exhaustive-match, reason = "fall-through is the point: rules without a mechanical rewrite return None, and a new rule correctly defaults to no-fix")
        _ => return None,
    };
    if rewritten == line {
        None
    } else {
        Some((line, rewritten))
    }
}
