//! The determinism policy's self-tests (DESIGN.md §3.2d).
//!
//! The fixture corpus goes through `clippy-driver` under the workspace's
//! real configuration: `CLIPPY_CONF_DIR` points at the root `clippy.toml`,
//! the lint levels come from `[workspace.lints]` in the root `Cargo.toml`,
//! and a fixture that models a linted file is compiled under that file's
//! own `#![…(clippy::…)]` header, read from it at test time. Every bad
//! fixture must fail with its lints and only those; every good one must
//! be clean, and also clean compiled as a test harness, where clippy.toml's
//! `allow-*-in-tests` options apply.
//!
//! The two rules clippy cannot express are checked line by line on the
//! tree: D3's `.partial_cmp(` call sites and D4's digest surface.

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::find_workspace_root;

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fixture(name: &str) -> String {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name))
}

/// The inner attributes of `source` that set clippy lint levels, each
/// `#![` … `]` taken whole (they may span lines).
fn clippy_header(source: &str) -> String {
    let mut out = String::new();
    let mut rest = source;
    while let Some(start) = rest.find("#![") {
        let attr = &rest[start..];
        let mut depth = 0usize;
        let end = attr
            .char_indices()
            .find_map(|(i, c)| {
                match c {
                    '[' => depth += 1,
                    ']' => depth -= 1,
                    _ => {}
                }
                (c == ']' && depth == 0).then_some(i + 1)
            })
            .expect("unterminated inner attribute");
        if attr[..end].contains("clippy::") {
            out.push_str(&attr[..end]);
            out.push('\n');
        }
        rest = &attr[end..];
    }
    assert!(!out.is_empty(), "no clippy lint header found");
    out
}

/// `[workspace.lints]` of the root manifest as `rustc` flags.
fn workspace_lint_flags() -> Vec<String> {
    let manifest = read(&root().join("Cargo.toml"));
    let mut flags = Vec::new();
    let mut tool = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            tool = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
            continue;
        }
        let Some(tool) = tool else { continue };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, level) = line.split_once('=').expect("`lint = \"level\"`");
        let flag = match level.trim().trim_matches('"') {
            "allow" => "-A",
            "warn" => "-W",
            "deny" => "-D",
            "forbid" => "-F",
            other => panic!("unsupported lint level `{other}` for {name}"),
        };
        flags.push(flag.to_string());
        flags.push(format!("{tool}{}", name.trim()));
    }
    assert!(flags.len() >= 6, "[workspace.lints] not found: {flags:?}");
    flags
}

/// Run clippy on `fixture`, prefixed by the lint header of `model` (a
/// path from the workspace root). Returns whether it compiled cleanly, the
/// code of every diagnostic, and clippy's JSON output.
fn clippy(fixture_name: &str, model: Option<&str>, as_test: bool) -> (bool, Vec<String>, String) {
    let mut source = String::new();
    if let Some(model) = model {
        source.push_str(&clippy_header(&read(&root().join(model))));
    }
    source.push_str(&fixture(fixture_name));
    let stem = |p: &str| Path::new(p).file_stem().and_then(|s| s.to_str()).unwrap_or("x").to_string();
    let crate_name =
        format!("{}_{}{}", stem(fixture_name), model.map_or("bare".into(), stem), if as_test { "_test" } else { "" });
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_fixtures");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join(format!("{crate_name}.rs"));
    std::fs::write(&file, source).expect("write fixture");

    let mut cmd = Command::new("clippy-driver");
    cmd.env("CLIPPY_CONF_DIR", root())
        .args(["--edition", "2021", "--emit=metadata", "--error-format=json"])
        .args(if as_test { &["--test"][..] } else { &["--crate-type", "lib"] })
        .arg("--out-dir")
        .arg(&dir)
        .args(workspace_lint_flags())
        .args(["-D", "warnings"])
        .arg(&file);
    let out = cmd.output().expect("run clippy-driver (rustup component `clippy`)");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let codes = stderr
        .lines()
        .filter_map(|l| {
            let at = l.find(r#""code":{"code":""#)? + r#""code":{"code":""#.len();
            l[at..].split('"').next().map(str::to_string)
        })
        .collect();
    (out.status.success(), codes, stderr)
}

const HOT_PATH: &[&str] = &["crates/netsim/src/tcp.rs", "crates/netsim/src/scoreboard.rs"];
const SHARD_STATE: &[&str] = &[
    "crates/netsim/src/sim.rs",
    "crates/netsim/src/conn.rs",
    "crates/netsim/src/link.rs",
    "crates/netsim/src/arena.rs",
];
const PANICS: &[&str] = &["clippy::unwrap_used", "clippy::expect_used", "clippy::panic", "clippy::unreachable"];
const CASTS: &[&str] =
    &["clippy::cast_possible_truncation", "clippy::cast_possible_wrap", "clippy::cast_sign_loss"];

#[test]
fn every_bad_fixture_fails_with_its_lints() {
    let mut cases: Vec<(&str, Option<&str>, Vec<&str>)> = vec![
        ("unordered_iter_bad.rs", None, vec!["clippy::disallowed_types"]),
        ("wall_clock_bad.rs", None, vec!["clippy::disallowed_methods", "clippy::disallowed_types"]),
        ("float_ord_bad.rs", Some("crates/core/src/lib.rs"), vec!["clippy::float_cmp", "clippy::disallowed_types"]),
        ("shard_safety_bad.rs", None, vec!["clippy::disallowed_types", "clippy::disallowed_macros"]),
        ("exhaustive_match_bad.rs", None, vec!["clippy::wildcard_enum_match_arm"]),
    ];
    // The file-scoped rules, under the header of each file that carries
    // one: indexing is denied on the per-ACK path only.
    for &model in HOT_PATH {
        cases.push(("panic_free_bad.rs", Some(model), [PANICS, &["clippy::indexing_slicing"]].concat()));
    }
    for &model in HOT_PATH.iter().chain(SHARD_STATE) {
        cases.push(("cast_audit_bad.rs", Some(model), CASTS.to_vec()));
    }
    for &model in SHARD_STATE {
        cases.push(("panic_free_bad.rs", Some(model), PANICS.to_vec()));
    }
    for (name, model, lints) in cases {
        let (clean, codes, stderr) = clippy(name, model, false);
        assert!(!clean, "{name} under {model:?} must fail:\n{stderr}");
        for lint in &lints {
            assert!(codes.iter().any(|c| c == lint), "{name} under {model:?}: no `{lint}` in {codes:?}\n{stderr}");
        }
        assert!(
            codes.iter().all(|c| lints.contains(&c.as_str())),
            "{name} under {model:?}: only {lints:?} expected, got {codes:?}\n{stderr}"
        );
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for (name, model) in [
        ("unordered_iter_good.rs", None),
        ("wall_clock_good.rs", None),
        ("float_ord_good.rs", Some("crates/core/src/lib.rs")),
        ("shard_safety_good.rs", None),
        ("exhaustive_match_good.rs", None),
        ("panic_free_good.rs", Some("crates/netsim/src/tcp.rs")),
        ("cast_audit_good.rs", Some("crates/netsim/src/sim.rs")),
    ] {
        for as_test in [false, true] {
            let (clean, codes, stderr) = clippy(name, model, as_test);
            assert!(clean && codes.is_empty(), "{name} (test harness: {as_test}) must be clean: {codes:?}\n{stderr}");
        }
    }
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// D3's residual: the lines of `source` that call `.partial_cmp(`, whose
/// `Option` panics or drifts on NaN (use `f64::total_cmp`). A clippy
/// `disallowed-methods` entry on `PartialOrd::partial_cmp` would also fire
/// on every `#[derive(PartialOrd)]` and integer compare.
fn partial_cmp_calls(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.split("//").next().is_some_and(|code| code.contains(".partial_cmp(")))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Types exempt from D4, with the reason each cannot drift.
const DIGEST_EXEMPT: &[(&str, &str)] = &[(
    "PureAdapter",
    "holds only the wrapped pure rule, which is stateless by the MultipathCc contract; digest_state hashes the rule name and CcDriver tags the arm",
)];

/// D4's residual: every `pub struct`/`pub enum` declared in a file of
/// `sources` (one crate's) that carries the `// lint:digest-surface`
/// marker must have a `DetDigest` impl somewhere in the crate, so its
/// state feeds the chaos_smoke digest. Returns the names that lack one.
fn missing_digests(sources: &[String]) -> Vec<String> {
    let ident = |s: &str| s.split(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap_or("").to_string();
    let impls: Vec<String> = sources
        .iter()
        .flat_map(|s| s.lines())
        .filter_map(|l| {
            let (_, rest) = l.split_once("impl_det_digest!(").or_else(|| l.split_once("DetDigest for "))?;
            Some(ident(rest.trim_start()))
        })
        .collect();
    sources
        .iter()
        .filter(|s| s.lines().any(|l| l.trim_start().starts_with("// lint:digest-surface")))
        .flat_map(|s| s.lines())
        .filter_map(|l| {
            let l = l.trim_start();
            l.strip_prefix("pub struct ").or_else(|| l.strip_prefix("pub enum ")).map(ident)
        })
        .filter(|name| !impls.contains(name) && !DIGEST_EXEMPT.iter().any(|(n, _)| n == name))
        .collect()
}

#[test]
fn residual_rules_hold_on_the_tree_and_bite_on_the_fixtures() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "xtask/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    for path in &files {
        let calls = partial_cmp_calls(&read(path));
        assert!(calls.is_empty(), "{}:{calls:?}: `.partial_cmp(` call, use `f64::total_cmp`", path.display());
    }
    assert_eq!(partial_cmp_calls(&fixture("float_ord_bad.rs")), [6]);
    assert!(partial_cmp_calls(&fixture("float_ord_good.rs")).is_empty());

    let crate_dirs = std::fs::read_dir(root.join("crates")).expect("crates/").map(|e| e.expect("entry").path());
    let mut marked = 0;
    for dir in crate_dirs {
        let mut srcs = Vec::new();
        rust_files(&dir.join("src"), &mut srcs);
        let sources: Vec<String> = srcs.iter().map(|p| read(p)).collect();
        marked += sources.iter().filter(|s| s.contains("\n// lint:digest-surface")).count();
        assert!(missing_digests(&sources).is_empty(), "{}: {:?} lack DetDigest", dir.display(), missing_digests(&sources));
    }
    assert!(marked >= 7, "digest-surface markers gone: {marked}");
    assert_eq!(missing_digests(&[fixture("digest_surface_bad.rs")]), ["ReinjectStats"]);
    assert!(missing_digests(&[fixture("digest_surface_good.rs")]).is_empty());
    // The marker on the real netsim stats file is live: without their
    // impls, both stats structs are reported.
    let gutted: String = read(&root.join("crates/netsim/src/stats.rs"))
        .lines()
        .filter(|l| !l.contains("impl_det_digest!"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(missing_digests(&[gutted]), ["SubflowStats", "ConnectionStats"]);
}
