//! The determinism & invariant lint rules.
//!
//! Four domain rules the stock compiler and clippy cannot express (see
//! DESIGN.md §3.2d for the policy they enforce):
//!
//! * **`unordered-iter`** (D1) — no `HashMap`/`HashSet` in simulation
//!   crates' library code. Hash containers iterate in per-process
//!   `RandomState` order; one `.iter()` into an ordered sink and the run
//!   is no longer a function of the seed. Conservatively type-level: the
//!   *type* is banned, which bans every iteration of it.
//! * **`wall-clock`** (D2) — no `Instant::now`, `SystemTime`,
//!   `thread_rng`, `RandomState` or `DefaultHasher` anywhere: the only
//!   audited entropy site is `mptcp_netsim::perf::wall_clock()`.
//! * **`float-ord`** (D3) — no `.partial_cmp(…)` call sites (use
//!   `total_cmp`), no `==`/`!=` against float literals (annotate exact
//!   zero-guards), no `f32` in simulation crates (event ordering and
//!   window arithmetic are `f64`/`SimTime`).
//! * **`digest-surface`** (D4) — every `pub struct` in a file marked
//!   `// lint:digest-surface` must have a `DetDigest` impl (normally via
//!   `impl_det_digest!`) somewhere in its crate, so new sim state cannot
//!   escape the `chaos_smoke` bit-identity digest.
//! * **`hot-path`** (D5) — no `BTreeSet`/`BTreeMap` in a file marked
//!   `// lint:hot-path`. Those files are the per-ACK/per-packet hot path
//!   whose ordered-tree bookkeeping was replaced by rotating bitmap
//!   scoreboards; a tree creeping back in reintroduces per-operation
//!   allocation and O(log w) pointer-chasing silently.
//! * **`shard-safety`** (D6) — no `Rc`, `RefCell` or `thread_local!` in a
//!   file marked `// lint:shard-state`. Those files hold the per-shard
//!   simulation state that the sharded engine moves onto worker threads;
//!   non-`Send` shared-ownership cells or thread-pinned statics would
//!   either break the `std::thread::scope` build or smuggle
//!   thread-identity into the deterministic history. Shard state stays
//!   `Send` by construction.
//! * **`panic-free`** (D7) — no `.unwrap()`/`.expect(…)` and no
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!` in files marked
//!   `lint:hot-path` or `lint:shard-state`, and no slice-indexing
//!   (`expr[…]`) in `lint:hot-path` files: one out-of-window index on the
//!   per-ACK path tears down the whole simulation and every shard behind
//!   it. `assert!`/`debug_assert!` stay legal — they *are* the invariant
//!   documentation. `#[cfg(test)]` items are exempt.
//! * **`exhaustive-match`** (D8) — no `_` or binding wildcard arms in
//!   `match`es over enums marked `// lint:exhaustive` (`AlgorithmKind`,
//!   `FaultAction`, `CcDriver`, [`Rule`] itself): adding BBR or a new
//!   fault action must be a compile error at every dispatch site, not a
//!   silently absorbed case. `#[cfg(test)]` items and `tests/`
//!   integration files are exempt.
//! * **`cast-audit`** (D9) — in `lint:hot-path`/`lint:shard-state` files,
//!   no `as` casts to narrower integer types (`u8`/`u16`/`u32`/`i8`/
//!   `i16`/`i32` — sim state is `u64`/`usize`-word) and no float-sourced
//!   `as`-to-integer casts (silent saturation): route through the checked,
//!   invariant-documented helpers in `crates/netsim/src/cast.rs`.
//!   `#[cfg(test)]` items are exempt.
//! * **`hot-alloc`** (D10) — no `Box::new(…)`, `vec![…]`, `.to_vec()` or
//!   `.clone()` in `lint:hot-path` files: the per-ACK path is kept
//!   allocation-free by the arena/pool machinery (`flow_churn` asserts
//!   the `hot_allocs` counter stays flat), and any of these re-introduces
//!   a silent per-packet allocator round-trip. Creation-time and
//!   counted-growth sites carry explicit allows. `#[cfg(test)]` items are
//!   exempt.
//!
//! D7–D10 are *structural* rules: they run on the recursive-descent parse
//! tree ([`crate::parse`]) rather than the raw token stream, which is what
//! lets them see `#[cfg(test)]` boundaries, `match` arms and cast sources.
//!
//! The escape hatch is a machine-checked annotation:
//!
//! ```text
//! // lint:allow(<rule>, reason = "<non-empty explanation>")
//! ```
//!
//! placed on the offending line or alone on the line directly above it.
//! Malformed or unknown-rule annotations are themselves findings
//! (`bad-annotation`), as are annotations that suppress nothing
//! (`unused-allow`) — allows cannot rot silently.

use crate::lexer::{lex, Tok, TokKind};
use crate::parse::{self, ExprEvent, Item, ItemKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A lint rule identity.
// lint:exhaustive
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// D1: hash containers in sim library code.
    UnorderedIter,
    /// D2: wall-clock / entropy sources.
    WallClock,
    /// D3: partial float comparisons feeding ordering.
    FloatOrd,
    /// D4: pub sim-state types missing the determinism-digest impl.
    DigestSurface,
    /// D5: ordered-tree containers in `lint:hot-path` files.
    HotPath,
    /// D6: non-`Send` cells / thread-pinned statics in `lint:shard-state`
    /// files.
    ShardSafety,
    /// D7: panicking operations in `lint:hot-path`/`lint:shard-state`
    /// files.
    PanicFree,
    /// D8: wildcard arms in `match`es over `lint:exhaustive` enums.
    ExhaustiveMatch,
    /// D9: narrowing / float-sourced `as` casts in marked files.
    CastAudit,
    /// D10: allocating calls (`Box::new`, `vec!`, `.to_vec()`,
    /// `.clone()`) in `lint:hot-path` files.
    HotAlloc,
    /// A `lint:` annotation that is malformed, names an unknown rule, or
    /// has an empty reason.
    BadAnnotation,
    /// A well-formed allow that suppressed no finding.
    UnusedAllow,
}

impl Rule {
    /// Kebab-case name used in diagnostics and annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::WallClock => "wall-clock",
            Rule::FloatOrd => "float-ord",
            Rule::DigestSurface => "digest-surface",
            Rule::HotPath => "hot-path",
            Rule::ShardSafety => "shard-safety",
            Rule::PanicFree => "panic-free",
            Rule::ExhaustiveMatch => "exhaustive-match",
            Rule::CastAudit => "cast-audit",
            Rule::HotAlloc => "hot-alloc",
            Rule::BadAnnotation => "bad-annotation",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Every rule, domain and meta, in policy order (D1–D10 then the two
    /// meta rules). The `--rules` self-test walks this so the policy dump
    /// cannot silently drop one.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::UnorderedIter,
            Rule::WallClock,
            Rule::FloatOrd,
            Rule::DigestSurface,
            Rule::HotPath,
            Rule::ShardSafety,
            Rule::PanicFree,
            Rule::ExhaustiveMatch,
            Rule::CastAudit,
            Rule::HotAlloc,
            Rule::BadAnnotation,
            Rule::UnusedAllow,
        ]
    }

    /// The rules an annotation may allow (the meta rules cannot be
    /// annotated away).
    pub fn allowable() -> &'static [Rule] {
        &[
            Rule::UnorderedIter,
            Rule::WallClock,
            Rule::FloatOrd,
            Rule::DigestSurface,
            Rule::HotPath,
            Rule::ShardSafety,
            Rule::PanicFree,
            Rule::ExhaustiveMatch,
            Rule::CastAudit,
            Rule::HotAlloc,
        ]
    }

    /// Parse an allowable rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::allowable().iter().copied().find(|r| r.name() == name)
    }

    /// Parse any rule name, meta rules included (used by the JSON
    /// findings parser, which round-trips reports that may carry
    /// `bad-annotation`/`unused-allow` entries).
    pub fn from_any_name(name: &str) -> Option<Rule> {
        Rule::all().iter().copied().find(|r| r.name() == name)
    }
}

/// The comma-separated allowable-rule list quoted in diagnostics, built
/// from [`Rule::allowable`] so the text cannot drift from the enum.
fn known_rules_list() -> String {
    Rule::allowable().iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
}

/// Whether a file is simulation *library* code (D1 and the `f32` ban
/// apply) or supporting code (tests, benches, the umbrella crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `crates/{core,netsim,proto,topology,workload}/src` — full rule set.
    Sim,
    /// Everything else under lint: D2/D3/D4 but not the type-level D1 ban.
    General,
}

/// One file handed to the linter.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Path used in findings (workspace-relative by convention).
    pub path: PathBuf,
    /// Full source text.
    pub source: String,
    /// Rule scope.
    pub scope: Scope,
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it (or annotate it).
    pub suggestion: String,
}

/// A parsed `lint:allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line of the comment itself.
    pub line: u32,
    /// Line whose findings it suppresses.
    pub target_line: u32,
    /// The allowed rule.
    pub rule: Rule,
    /// The stated reason (non-empty by construction).
    pub reason: String,
}

/// Parse every `lint:allow(...)` annotation in `source`. Returns the
/// well-formed allows and a finding for each malformed one.
pub fn collect_allows(path: &Path, source: &str) -> (Vec<Allow>, Vec<Finding>) {
    let toks = lex(source);
    collect_allows_from_tokens(path, source, &toks)
}

/// A `lint:` directive must *lead* its comment (after the comment sigils),
/// so prose that merely mentions the grammar — e.g. module docs quoting
/// `// lint:allow(…)` — is not parsed as a directive.
pub(crate) fn comment_directive(text: &str) -> Option<&str> {
    let body = text.trim_start_matches(['/', '!', '*']).trim_start();
    body.starts_with("lint:").then_some(body)
}

fn collect_allows_from_tokens(path: &Path, source: &str, toks: &[Tok]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if !t.is_comment() || !comment_directive(&t.text).is_some_and(|d| d.starts_with("lint:allow")) {
            continue;
        }
        let target_line = allow_target_line(toks, idx);
        match parse_allow(&t.text) {
            Ok((rule, reason)) => {
                allows.push(Allow { line: t.line, target_line, rule, reason });
            }
            Err(why) => bad.push(Finding {
                rule: Rule::BadAnnotation,
                path: path.to_path_buf(),
                line: t.line,
                message: format!("malformed lint annotation: {why}"),
                snippet: snippet_at(source, t.line),
                suggestion: format!(
                    "write `// lint:allow(<rule>, reason = \"<non-empty>\")` where <rule> is one of: {}",
                    known_rules_list()
                ),
            }),
        }
    }
    (allows, bad)
}

/// The line an allow-comment at token `idx` governs: its own line if code
/// precedes it there (trailing comment), otherwise the line of the next
/// code token (comment-on-its-own-line form).
fn allow_target_line(toks: &[Tok], idx: usize) -> u32 {
    let line = toks[idx].line;
    let trailing = toks[..idx].iter().rev().take_while(|t| t.line == line).any(|t| !t.is_comment());
    if trailing {
        return line;
    }
    toks[idx + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map(|t| t.line)
        .unwrap_or(line)
}

/// Parse `lint:allow(<rule>, reason = "<text>")` out of a comment.
fn parse_allow(comment: &str) -> Result<(Rule, String), String> {
    let rest = comment.split("lint:allow").nth(1).ok_or("missing `lint:allow`")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(').ok_or("expected `(` after `lint:allow`")?;
    let (rule_name, rest) = rest.split_once(',').ok_or("expected `,` after the rule name")?;
    let rule_name = rule_name.trim();
    let rule = Rule::from_name(rule_name)
        .ok_or_else(|| format!("unknown rule `{rule_name}` (known: {})", known_rules_list()))?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("reason").ok_or("expected `reason = \"…\"`")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('=').ok_or("expected `=` after `reason`")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"').ok_or("reason must be a quoted string")?;
    let (reason, _) = rest.split_once('"').ok_or("unterminated reason string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    Ok((rule, reason.trim().to_string()))
}

fn snippet_at(source: &str, line: u32) -> String {
    source.lines().nth(line as usize - 1).unwrap_or("").trim().to_string()
}

/// One `pub` item in the workspace symbol table.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// `"struct"`, `"enum"`, `"fn"` or `"trait"`.
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// Declaring file (workspace-relative).
    pub path: PathBuf,
    /// 1-based line of the item keyword.
    pub line: u32,
}

/// The per-workspace symbol table the structural rules consult: every
/// `pub` item's identity, plus the variant lists of `lint:exhaustive`
/// enums (keyed by name — the workspace keeps those names unique, which
/// the symbol collector enforces conservatively by merging duplicates).
#[derive(Debug, Default)]
pub struct Symbols {
    /// `lint:exhaustive` enum name → declared variant names.
    exhaustive_enums: BTreeMap<String, Vec<String>>,
    /// Every `pub` item seen while parsing.
    pub pub_items: Vec<PubItem>,
}

impl Symbols {
    /// Variants of a `lint:exhaustive` enum, if `name` is one.
    pub fn exhaustive_enum(&self, name: &str) -> Option<&[String]> {
        self.exhaustive_enums.get(name).map(Vec::as_slice)
    }

    /// Names of every `lint:exhaustive` enum (for self-tests).
    pub fn exhaustive_enum_names(&self) -> Vec<&str> {
        self.exhaustive_enums.keys().map(String::as_str).collect()
    }
}

/// Build the symbol table for a set of files (normally the whole
/// workspace: D8 must see an enum's `lint:exhaustive` marker even when
/// the `match` lives in a different crate).
pub fn collect_symbols(files: &[FileInput]) -> Symbols {
    let mut syms = Symbols::default();
    for f in files {
        let tree = parse::parse(&lex(&f.source));
        collect_symbols_from_items(&tree.items, f, &mut syms);
    }
    syms
}

fn collect_symbols_from_items(items: &[Item], f: &FileInput, syms: &mut Symbols) {
    for item in items {
        let (kind, name) = match &item.kind {
            ItemKind::Enum(e) => {
                if e.exhaustive {
                    syms.exhaustive_enums
                        .entry(e.name.clone())
                        .or_default()
                        .extend(e.variants.iter().cloned());
                }
                ("enum", e.name.clone())
            }
            ItemKind::Struct { name } => ("struct", name.clone()),
            ItemKind::Fn(fd) => ("fn", fd.name.clone()),
            ItemKind::Trait { name, items } => {
                collect_symbols_from_items(items, f, syms);
                ("trait", name.clone())
            }
            ItemKind::Impl { items, .. } | ItemKind::Mod { items, .. } => {
                collect_symbols_from_items(items, f, syms);
                continue;
            }
        };
        if item.is_pub && !name.is_empty() {
            syms.pub_items.push(PubItem {
                kind,
                name,
                path: f.path.clone(),
                line: item.line,
            });
        }
    }
}

/// Scan one file's code tokens for D1–D3 findings, its parse tree for
/// D7–D9 findings, and both for D4 facts.
struct FileScan {
    findings: Vec<Finding>,
    /// `pub struct`/`pub enum` names declared here: `(name, line, kind)`.
    pub_types: Vec<(String, u32, &'static str)>,
    /// File carries the `lint:digest-surface` marker.
    digest_surface: bool,
    /// Type names with `DetDigest` impl evidence in this file.
    digest_impls: Vec<String>,
}

fn scan_file(f: &FileInput, syms: &Symbols) -> (FileScan, Vec<Allow>, Vec<Finding>) {
    let toks = lex(&f.source);
    let (allows, bad) = collect_allows_from_tokens(&f.path, &f.source, &toks);
    let digest_surface = toks.iter().any(|t| {
        t.is_comment()
            && comment_directive(&t.text).is_some_and(|d| d.starts_with("lint:digest-surface"))
    });
    let hot_path = toks.iter().any(|t| {
        t.is_comment()
            && comment_directive(&t.text).is_some_and(|d| d.starts_with("lint:hot-path"))
    });
    let shard_state = toks.iter().any(|t| {
        t.is_comment()
            && comment_directive(&t.text).is_some_and(|d| d.starts_with("lint:shard-state"))
    });
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();

    let mut findings = Vec::new();
    let mut digest_impls = Vec::new();

    let push = |findings: &mut Vec<Finding>, rule: Rule, line: u32, message: String, suggestion: String| {
        findings.push(Finding {
            rule,
            path: f.path.clone(),
            line,
            message,
            snippet: snippet_at(&f.source, line),
            suggestion,
        });
    };

    for (i, t) in code.iter().enumerate() {
        let next = code.get(i + 1);
        let next2 = code.get(i + 2);

        if t.kind == TokKind::Ident {
            // ---- D1: hash containers (sim library code only) ----
            if f.scope == Scope::Sim
                && matches!(t.text.as_str(), "HashMap" | "HashSet" | "hash_map" | "hash_set")
            {
                push(
                    &mut findings,
                    Rule::UnorderedIter,
                    t.line,
                    format!(
                        "`{}` in simulation library code: iteration order depends on the per-process hasher seed",
                        t.text
                    ),
                    format!(
                        "use `BTree{}`/`Vec` (deterministic order), or annotate: // lint:allow(unordered-iter, reason = \"…\")",
                        if t.text.contains("Set") || t.text.contains("set") { "Set" } else { "Map" }
                    ),
                );
            }

            // ---- D5: ordered trees in declared hot-path files ----
            if hot_path && matches!(t.text.as_str(), "BTreeSet" | "BTreeMap") {
                push(
                    &mut findings,
                    Rule::HotPath,
                    t.line,
                    format!(
                        "`{}` in a `lint:hot-path` file: ordered-tree bookkeeping pays an allocation plus O(log w) pointer-chasing per operation on the per-ACK path",
                        t.text
                    ),
                    "use the rotating-bitmap scoreboards (crates/netsim/src/scoreboard.rs) or a windowed array, or annotate: // lint:allow(hot-path, reason = \"…\")".into(),
                );
            }

            // ---- D6: non-Send state in declared shard-state files ----
            if shard_state {
                let banned = match t.text.as_str() {
                    "Rc" => Some("`Rc` is shared ownership without `Send`"),
                    "RefCell" => Some("`RefCell` is interior mutability without `Sync`"),
                    "thread_local" if next.is_some_and(|n| n.text == "!") => {
                        Some("`thread_local!` pins state to a worker thread")
                    }
                    _ => None,
                };
                if let Some(what) = banned {
                    push(
                        &mut findings,
                        Rule::ShardSafety,
                        t.line,
                        format!(
                            "{what}: shard state in a `lint:shard-state` file moves across worker threads and must stay `Send` by construction"
                        ),
                        "own the state directly (plain fields, `Vec`, `Box`), hand shared read-only tables over as `Arc`, or annotate: // lint:allow(shard-safety, reason = \"…\")".into(),
                    );
                }
            }

            // ---- D2: wall-clock / entropy sources ----
            let wall = match t.text.as_str() {
                "Instant"
                    if next.is_some_and(|n| n.text == "::")
                        && next2.is_some_and(|n| n.text == "now") =>
                {
                    Some("`Instant::now()` reads the host clock")
                }
                "SystemTime" => Some("`SystemTime` reads the host clock"),
                "thread_rng" => Some("`thread_rng` is OS-seeded entropy"),
                "RandomState" => Some("`RandomState` is a per-process-seeded hasher"),
                "DefaultHasher" => Some("`DefaultHasher::new()` hides a seeded `RandomState`"),
                _ => None,
            };
            if let Some(what) = wall {
                push(
                    &mut findings,
                    Rule::WallClock,
                    t.line,
                    format!("{what}: simulation logic must advance only on `SimTime`"),
                    "route perf measurements through `mptcp_netsim::perf::wall_clock()` (the one audited site), seed RNGs from the sim seed, or annotate: // lint:allow(wall-clock, reason = \"…\")".into(),
                );
            }

            // ---- D3: f32 in sim library code ----
            if f.scope == Scope::Sim && t.text == "f32" {
                push(
                    &mut findings,
                    Rule::FloatOrd,
                    t.line,
                    "`f32` in simulation library code: window arithmetic and orderings are `f64`/`SimTime`".into(),
                    "use `f64` (or `SimTime` for times), or annotate: // lint:allow(float-ord, reason = \"…\")".into(),
                );
            }

            // ---- D4 facts: DetDigest impl evidence ----
            if t.text == "impl_det_digest"
                && next.is_some_and(|n| n.text == "!")
                && next2.is_some_and(|n| n.text == "(")
            {
                if let Some(name) = code.get(i + 3).filter(|n| n.kind == TokKind::Ident) {
                    digest_impls.push(name.text.clone());
                }
            }
            if t.text == "DetDigest" && next.is_some_and(|n| n.text == "for") {
                if let Some(name) = code.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                    digest_impls.push(name.text.clone());
                }
            }
        }

        // ---- D3: `.partial_cmp(` call sites ----
        if t.kind == TokKind::Punct
            && t.text == "."
            && next.is_some_and(|n| n.kind == TokKind::Ident && n.text == "partial_cmp")
        {
            push(
                &mut findings,
                Rule::FloatOrd,
                next.unwrap().line,
                "`.partial_cmp(…)` call site: partial float orderings panic or drift on NaN".into(),
                "use `f64::total_cmp` (IEEE 754 total order), or annotate: // lint:allow(float-ord, reason = \"…\")".into(),
            );
        }

        // ---- D3: `==` / `!=` against a float literal ----
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let prev_float = i > 0 && code[i - 1].kind == TokKind::Float;
            let next_float = next.is_some_and(|n| n.kind == TokKind::Float);
            if prev_float || next_float {
                push(
                    &mut findings,
                    Rule::FloatOrd,
                    t.line,
                    format!("float `{}` comparison against a literal: exact float equality is a determinism hazard near computed values", t.text),
                    "compare with an explicit tolerance or restructure; for exact zero-guards annotate: // lint:allow(float-ord, reason = \"…\")".into(),
                );
            }
        }
    }

    // ---- Structural rules (D7–D9) + D4 type facts, on the parse tree ----
    let tree = parse::parse(&toks);
    let mut pub_types = Vec::new();
    let cx = TreeCx {
        f,
        hot_path,
        shard_state,
        // Integration-test trees (`tests/` dirs) are test code for D8 just
        // like `#[cfg(test)]` modules are.
        is_test_path: f.path.components().any(|c| c.as_os_str() == "tests"),
        syms,
    };
    walk_tree(&tree.items, false, &cx, &mut pub_types, &mut findings);

    (FileScan { findings, pub_types, digest_surface, digest_impls }, allows, bad)
}

/// Per-file context threaded through the parse-tree walk.
struct TreeCx<'a> {
    f: &'a FileInput,
    hot_path: bool,
    shard_state: bool,
    is_test_path: bool,
    syms: &'a Symbols,
}

fn walk_tree(
    items: &[Item],
    in_test: bool,
    cx: &TreeCx,
    pub_types: &mut Vec<(String, u32, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    for item in items {
        let test = in_test || item.cfg_test;
        match &item.kind {
            ItemKind::Struct { name } => {
                if item.is_pub {
                    pub_types.push((name.clone(), item.line, "struct"));
                }
            }
            ItemKind::Enum(e) => {
                if item.is_pub {
                    pub_types.push((e.name.clone(), item.line, "enum"));
                }
            }
            ItemKind::Fn(fd) => {
                if !test {
                    scan_fn_events(fd, cx, findings);
                }
            }
            ItemKind::Impl { items, .. }
            | ItemKind::Mod { items, .. }
            | ItemKind::Trait { items, .. } => {
                walk_tree(items, test, cx, pub_types, findings);
            }
        }
    }
}

/// Cast targets D9 treats as narrowing: sim state is `u64`/`usize`-word,
/// so an `as` to any of these silently truncates.
const NARROW_INT_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Integer cast targets for the float-source arm of D9.
const INT_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// D7/D8/D9 over one (non-test) fn body's expression events.
fn scan_fn_events(fd: &parse::FnDef, cx: &TreeCx, findings: &mut Vec<Finding>) {
    let marked = cx.hot_path || cx.shard_state;
    let marker = if cx.hot_path { "lint:hot-path" } else { "lint:shard-state" };
    let mut push = |rule: Rule, line: u32, message: String, suggestion: String| {
        findings.push(Finding {
            rule,
            path: cx.f.path.clone(),
            line,
            message,
            snippet: snippet_at(&cx.f.source, line),
            suggestion,
        });
    };
    for ev in &fd.events {
        match ev {
            ExprEvent::MethodCall { name, line }
                if cx.hot_path && matches!(name.as_str(), "to_vec" | "clone") =>
            {
                push(
                    Rule::HotAlloc,
                    *line,
                    format!(
                        "`.{name}(…)` in a `lint:hot-path` file: a hidden allocation (or deep copy) on the per-ACK path defeats the arena/pool recycling that keeps `hot_allocs` flat"
                    ),
                    "reuse pooled storage (`reset_for_reuse`, the ring pool) or copy into a caller-provided buffer; for creation-time or counted-growth sites annotate: // lint:allow(hot-alloc, reason = \"…\")".into(),
                );
            }
            ExprEvent::MacroCall { name, line } if cx.hot_path && name == "vec" => {
                push(
                    Rule::HotAlloc,
                    *line,
                    "`vec![…]` in a `lint:hot-path` file: a fresh heap vector on the per-ACK path defeats the arena/pool recycling that keeps `hot_allocs` flat".into(),
                    "draw from the ring pool / reuse a scratch buffer; for creation-time or counted-growth sites annotate: // lint:allow(hot-alloc, reason = \"…\")".into(),
                );
            }
            ExprEvent::PathCall { head, name, line }
                if cx.hot_path && head == "Box" && name == "new" =>
            {
                push(
                    Rule::HotAlloc,
                    *line,
                    "`Box::new(…)` in a `lint:hot-path` file: a per-event box defeats the arena/pool recycling that keeps `hot_allocs` flat".into(),
                    "store the value inline (the arena columns are plain fields) or pool it; for creation-time sites annotate: // lint:allow(hot-alloc, reason = \"…\")".into(),
                );
            }
            ExprEvent::MethodCall { name, line }
                if marked && matches!(name.as_str(), "unwrap" | "expect") =>
            {
                push(
                    Rule::PanicFree,
                    *line,
                    format!(
                        "`.{name}(…)` in a `{marker}` file: a panic on the per-ACK/shard path tears down the whole simulation (and every shard behind it)"
                    ),
                    "rewrite with `if let` / `let … else` / `unwrap_or*` and document the invariant, or annotate: // lint:allow(panic-free, reason = \"…\")".into(),
                );
            }
            ExprEvent::MacroCall { name, line }
                if marked
                    && matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented") =>
            {
                push(
                    Rule::PanicFree,
                    *line,
                    format!(
                        "`{name}!` in a `{marker}` file: an explicit panic on the per-ACK/shard path tears down the whole simulation"
                    ),
                    "return a fallback under `debug_assert!` (asserts are the sanctioned invariant documentation), or annotate: // lint:allow(panic-free, reason = \"…\")".into(),
                );
            }
            ExprEvent::Index { line } if cx.hot_path => {
                push(
                    Rule::PanicFree,
                    *line,
                    "slice/array indexing in a `lint:hot-path` file: one out-of-window index panics on the per-ACK path".into(),
                    "use `.get(…)`/`.get_mut(…)` with an explicit fallback, or a single annotated accessor documenting the bound invariant: // lint:allow(panic-free, reason = \"…\")".into(),
                );
            }
            ExprEvent::Cast { target, float_source, line } if marked => {
                if NARROW_INT_TARGETS.contains(&target.as_str()) {
                    push(
                        Rule::CastAudit,
                        *line,
                        format!(
                            "narrowing `as {target}` cast in a `{marker}` file: sim state is u64/usize-word, and `as` truncates silently"
                        ),
                        "route through a bound-checked helper (crates/netsim/src/cast.rs) or `try_into` with a handled error, or annotate: // lint:allow(cast-audit, reason = \"…\")".into(),
                    );
                } else if *float_source && INT_TARGETS.contains(&target.as_str()) {
                    push(
                        Rule::CastAudit,
                        *line,
                        format!(
                            "float-to-integer `as {target}` cast in a `{marker}` file: `as` saturates silently on overflow and maps NaN to 0"
                        ),
                        "route through crates/netsim/src/cast.rs (`f64_to_u64` asserts the source is finite and non-negative), or annotate: // lint:allow(cast-audit, reason = \"…\")".into(),
                    );
                }
            }
            ExprEvent::Match(m) if !cx.is_test_path => {
                let subject = m
                    .arms
                    .iter()
                    .flat_map(|a| a.heads.iter())
                    .find_map(|(h, _)| cx.syms.exhaustive_enum(h).map(|v| (h.clone(), v)));
                let Some((enum_name, variants)) = subject else { continue };
                for arm in &m.arms {
                    let Some(w) = &arm.wildcard else { continue };
                    let covered: Vec<&str> = m
                        .arms
                        .iter()
                        .flat_map(|a| a.heads.iter())
                        .filter(|(h, _)| h == &enum_name)
                        .filter_map(|(_, v)| v.as_deref())
                        .collect();
                    let missing: Vec<&str> = variants
                        .iter()
                        .map(String::as_str)
                        .filter(|v| !covered.contains(v))
                        .collect();
                    let absorbing = if missing.is_empty() {
                        String::new()
                    } else {
                        format!(" (currently absorbing: {})", missing.join(", "))
                    };
                    push(
                        Rule::ExhaustiveMatch,
                        arm.line,
                        format!(
                            "wildcard arm `{w}` in a `match` over `lint:exhaustive` enum `{enum_name}`: a newly added variant would be absorbed silently instead of failing to compile{absorbing}"
                        ),
                        "spell the remaining variants out (an or-pattern arm keeps it compact), or annotate: // lint:allow(exhaustive-match, reason = \"…\")".into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Lint a group of files that form one crate, resolving symbols (the
/// `lint:exhaustive` enum table) from the group itself. The workspace
/// driver uses [`lint_group_with`] so D8 sees cross-crate enums.
pub fn lint_group(files: &[FileInput]) -> Vec<Finding> {
    let syms = collect_symbols(files);
    lint_group_with(files, &syms)
}

/// Lint a group of files that form one crate (D4 impl evidence is
/// resolved crate-wide) against a prebuilt symbol table. Returns all
/// findings, sorted by path then line.
pub fn lint_group_with(files: &[FileInput], syms: &Symbols) -> Vec<Finding> {
    let mut per_file: Vec<(FileScan, Vec<Allow>, Vec<Finding>)> =
        files.iter().map(|f| scan_file(f, syms)).collect();

    // D4: resolve digest-surface types against crate-wide impl evidence.
    let impls: Vec<String> =
        per_file.iter().flat_map(|(s, _, _)| s.digest_impls.iter().cloned()).collect();
    for (idx, f) in files.iter().enumerate() {
        let (scan, _, _) = &per_file[idx];
        if !scan.digest_surface {
            continue;
        }
        let missing: Vec<(String, u32, &'static str)> = scan
            .pub_types
            .iter()
            .filter(|(name, _, _)| !impls.iter().any(|i| i == name))
            .cloned()
            .collect();
        for (name, line, kind) in missing {
            let snippet = snippet_at(&f.source, line);
            let suggestion = if kind == "enum" {
                format!(
                    "add a manual `impl DetDigest for {name}` that tags the arm and hashes its payload (see `CcDriver`), or annotate the enum: // lint:allow(digest-surface, reason = \"…\")"
                )
            } else {
                format!(
                    "add `impl_det_digest!({name} {{ <every field> }});` (use the `skip {{ … }}` block for wall-clock-only fields), or annotate the struct: // lint:allow(digest-surface, reason = \"…\")"
                )
            };
            per_file[idx].0.findings.push(Finding {
                rule: Rule::DigestSurface,
                path: f.path.clone(),
                line,
                message: format!(
                    "`pub {kind} {name}` in a `lint:digest-surface` file has no `DetDigest` impl: its state escapes the chaos_smoke determinism digest"
                ),
                snippet,
                suggestion,
            });
        }
    }

    // Suppression: an allow kills same-rule findings on its target line.
    let mut out = Vec::new();
    for (idx, (scan, allows, bad)) in per_file.iter_mut().enumerate() {
        let f = &files[idx];
        let mut used = vec![false; allows.len()];
        for finding in scan.findings.drain(..) {
            let suppressed = allows.iter().enumerate().find(|(_, a)| {
                a.rule == finding.rule && a.target_line == finding.line
            });
            match suppressed {
                Some((i, _)) => used[i] = true,
                None => out.push(finding),
            }
        }
        for (i, a) in allows.iter().enumerate() {
            if !used[i] {
                out.push(Finding {
                    rule: Rule::UnusedAllow,
                    path: f.path.clone(),
                    line: a.line,
                    message: format!(
                        "`lint:allow({}, …)` suppresses nothing on line {}: stale annotations must be removed",
                        a.rule.name(),
                        a.target_line
                    ),
                    snippet: snippet_at(&f.source, a.line),
                    suggestion: "delete the annotation (or move it onto the offending line)".into(),
                });
            }
        }
        out.append(bad);
    }
    out.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str, scope: Scope) -> FileInput {
        FileInput { path: PathBuf::from("test.rs"), source: src.to_string(), scope }
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hashmap_flagged_in_sim_scope_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let sim = lint_group(&[file(src, Scope::Sim)]);
        assert!(sim.iter().all(|f| f.rule == Rule::UnorderedIter));
        assert_eq!(sim.len(), 3, "{sim:?}");
        let gen = lint_group(&[file(src, Scope::General)]);
        assert!(gen.is_empty(), "{gen:?}");
    }

    #[test]
    fn allow_suppresses_and_is_marked_used() {
        let src = "// lint:allow(unordered-iter, reason = \"order-insensitive count\")\nlet m = std::collections::HashMap::new();\n";
        assert!(lint_group(&[file(src, Scope::Sim)]).is_empty());
        // Trailing form.
        let src = "let m = std::collections::HashMap::new(); // lint:allow(unordered-iter, reason = \"count\")\n";
        assert!(lint_group(&[file(src, Scope::Sim)]).is_empty());
    }

    #[test]
    fn unused_allow_and_bad_annotation_are_findings() {
        let src = "// lint:allow(unordered-iter, reason = \"nothing here\")\nlet x = 1;\n";
        assert_eq!(rules(&lint_group(&[file(src, Scope::Sim)])), vec![Rule::UnusedAllow]);
        let src = "// lint:allow(no-such-rule, reason = \"x\")\nlet x = 1;\n";
        assert_eq!(rules(&lint_group(&[file(src, Scope::Sim)])), vec![Rule::BadAnnotation]);
        let src = "// lint:allow(wall-clock, reason = \"\")\nlet t = std::time::Instant::now();\n";
        let f = lint_group(&[file(src, Scope::Sim)]);
        // Empty reason: the annotation is bad AND the site is unprotected.
        assert!(rules(&f).contains(&Rule::BadAnnotation), "{f:?}");
        assert!(rules(&f).contains(&Rule::WallClock), "{f:?}");
    }

    #[test]
    fn wall_clock_sources_flagged_everywhere() {
        for src in [
            "let t = Instant::now();",
            "let t = std::time::SystemTime::now();",
            "let mut r = rand::thread_rng();",
            "let s = RandomState::new();",
            "let h = DefaultHasher::new();",
        ] {
            let f = lint_group(&[file(src, Scope::General)]);
            assert_eq!(rules(&f), vec![Rule::WallClock], "{src}");
        }
        // `Instant` alone (e.g. storing one handed in) is fine.
        assert!(lint_group(&[file("fn f(t: Instant) {}", Scope::General)]).is_empty());
    }

    #[test]
    fn float_ord_variants() {
        let f = lint_group(&[file("xs.sort_by(|a, b| a.partial_cmp(b).unwrap());", Scope::General)]);
        assert_eq!(rules(&f), vec![Rule::FloatOrd]);
        let f = lint_group(&[file("if x == 0.0 { }", Scope::General)]);
        assert_eq!(rules(&f), vec![Rule::FloatOrd]);
        let f = lint_group(&[file("if 1e-9 != y { }", Scope::General)]);
        assert_eq!(rules(&f), vec![Rule::FloatOrd]);
        // fn definitions of partial_cmp (PartialOrd impls) are not calls.
        assert!(lint_group(&[file("fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }", Scope::General)]).is_empty());
        // Integer equality is fine.
        assert!(lint_group(&[file("if x == 0 { }", Scope::General)]).is_empty());
        // f32 only in sim scope.
        assert_eq!(rules(&lint_group(&[file("let x: f32 = 0.5;", Scope::Sim)])), vec![Rule::FloatOrd]);
        assert!(lint_group(&[file("let x: f32 = 0.5;", Scope::General)]).is_empty());
    }

    #[test]
    fn hot_path_bans_trees_in_marked_files_only() {
        let marked = "// lint:hot-path\nuse std::collections::BTreeSet;\nfn f(m: &BTreeMap<u64, u64>) {}\n";
        let f = lint_group(&[file(marked, Scope::General)]);
        assert_eq!(rules(&f), vec![Rule::HotPath, Rule::HotPath], "{f:?}");
        // Unmarked files carry no obligation (scope-independent rule).
        let free = "use std::collections::BTreeSet;\n";
        assert!(lint_group(&[file(free, Scope::Sim)]).is_empty());
        // A tree mentioned only in comments/docs of a marked file is fine.
        let comment_only = "// lint:hot-path\n// A BTreeSet would pay O(log w) here.\nlet x = 1;\n";
        assert!(lint_group(&[file(comment_only, Scope::General)]).is_empty());
        // The escape hatch works like every other rule's.
        let allowed = "// lint:hot-path\n// lint:allow(hot-path, reason = \"cold config map, touched once at setup\")\nuse std::collections::BTreeMap;\n";
        assert!(lint_group(&[file(allowed, Scope::General)]).is_empty());
    }

    #[test]
    fn shard_safety_bans_non_send_state_in_marked_files_only() {
        let marked = "// lint:shard-state\nuse std::rc::Rc;\nstruct S { cell: RefCell<u64> }\nthread_local! { static T: u64 = 0; }\n";
        let f = lint_group(&[file(marked, Scope::Sim)]);
        assert_eq!(
            rules(&f),
            vec![Rule::ShardSafety, Rule::ShardSafety, Rule::ShardSafety],
            "{f:?}"
        );
        // Unmarked files carry no obligation (scope-independent rule).
        assert!(lint_group(&[file("use std::rc::Rc;\n", Scope::Sim)]).is_empty());
        // `thread_local` as a plain ident (no `!`) is not the macro.
        let ident_only = "// lint:shard-state\nfn f(thread_local: u64) -> u64 { thread_local }\n";
        assert!(lint_group(&[file(ident_only, Scope::Sim)]).is_empty());
        // Mentions in comments/docs of a marked file are fine.
        let comment_only = "// lint:shard-state\n// An Rc or RefCell here would break Send.\nlet x = 1;\n";
        assert!(lint_group(&[file(comment_only, Scope::General)]).is_empty());
        // The escape hatch works like every other rule's.
        let allowed = "// lint:shard-state\n// lint:allow(shard-safety, reason = \"build-time only, never crosses a thread\")\nuse std::rc::Rc;\n";
        assert!(lint_group(&[file(allowed, Scope::General)]).is_empty());
    }

    #[test]
    fn digest_surface_requires_impl_crate_wide() {
        let surface = "// lint:digest-surface\npub struct Stats { pub a: u64 }\n";
        let f = lint_group(&[file(surface, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::DigestSurface]);
        // Impl in a *different* file of the same group satisfies it.
        let impl_file = FileInput {
            path: PathBuf::from("other.rs"),
            source: "impl_det_digest!(Stats { a });\n".into(),
            scope: Scope::Sim,
        };
        assert!(lint_group(&[file(surface, Scope::Sim), impl_file]).is_empty());
        // A manual `impl DetDigest for` also counts.
        let manual = FileInput {
            path: PathBuf::from("manual.rs"),
            source: "impl DetDigest for Stats { fn det_digest(&self, h: &mut DigestWriter) {} }\n".into(),
            scope: Scope::Sim,
        };
        assert!(lint_group(&[file(surface, Scope::Sim), manual]).is_empty());
        // Unmarked files carry no obligation.
        assert!(lint_group(&[file("pub struct Free { pub a: u64 }\n", Scope::Sim)]).is_empty());
    }

    #[test]
    fn digest_surface_covers_pub_enums() {
        let surface = "// lint:digest-surface\npub enum Mode { A, B(u64) }\n";
        let f = lint_group(&[file(surface, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::DigestSurface], "{f:?}");
        assert!(f[0].message.contains("pub enum Mode"), "{f:?}");
        assert!(f[0].suggestion.contains("impl DetDigest for Mode"), "{f:?}");
        // A manual impl anywhere in the group satisfies it.
        let manual = FileInput {
            path: PathBuf::from("manual.rs"),
            source: "impl DetDigest for Mode { fn det_digest(&self, h: &mut DigestWriter) {} }\n"
                .into(),
            scope: Scope::Sim,
        };
        assert!(lint_group(&[file(surface, Scope::Sim), manual]).is_empty());
        // Non-pub enums carry no obligation.
        let private = "// lint:digest-surface\nenum Hidden { A }\n";
        assert!(lint_group(&[file(private, Scope::Sim)]).is_empty());
    }

    #[test]
    fn panic_free_fires_in_marked_non_test_code_only() {
        let marked = "// lint:hot-path\nfn f(x: Option<u64>, xs: &[u64]) -> u64 {\n    let a = x.unwrap();\n    let b = xs[0];\n    panic!(\"{}\", a + b);\n}\n";
        let f = lint_group(&[file(marked, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::PanicFree; 3], "{f:?}");
        // In shard-state files unwrap/expect/panics are banned but
        // indexing is legal (slab accesses are the storage idiom there).
        let shard = marked.replace("lint:hot-path", "lint:shard-state");
        let f = lint_group(&[file(&shard, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::PanicFree; 2], "{f:?}");
        // Unmarked files carry no obligation.
        let free = marked.replace("// lint:hot-path\n", "");
        assert!(lint_group(&[file(&free, Scope::Sim)]).is_empty());
        // #[cfg(test)] items in a marked file are exempt.
        let test_only = "// lint:hot-path\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u64>) -> u64 { x.unwrap() }\n}\n";
        assert!(lint_group(&[file(test_only, Scope::Sim)]).is_empty());
        // assert!/debug_assert! are the sanctioned invariant form.
        let asserts = "// lint:hot-path\nfn f(n: u64) { assert!(n > 0); debug_assert!(n < 10); }\n";
        assert!(lint_group(&[file(asserts, Scope::Sim)]).is_empty());
        // The escape hatch works like every other rule's.
        let allowed = "// lint:hot-path\nfn f(x: Option<u64>) -> u64 {\n    x.unwrap() // lint:allow(panic-free, reason = \"caller checked is_some\")\n}\n";
        assert!(lint_group(&[file(allowed, Scope::Sim)]).is_empty());
    }

    #[test]
    fn exhaustive_match_requires_the_marker_and_spares_tests() {
        let src = "// lint:exhaustive\npub enum Kind { A, B, C }\nfn f(k: Kind) -> u32 {\n    match k {\n        Kind::A => 0,\n        _ => 1,\n    }\n}\n";
        let f = lint_group(&[file(src, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::ExhaustiveMatch], "{f:?}");
        assert!(f[0].message.contains("absorbing: B, C"), "{f:?}");
        // Binding wildcards (with or without a guard) are just as wide.
        let bind = src.replace("_ => 1,", "other if other as u32 > 0 => 1,\n        other => 2,");
        let f = lint_group(&[file(&bind, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::ExhaustiveMatch; 2], "{f:?}");
        // Unmarked enums carry no obligation.
        let free = src.replace("// lint:exhaustive\n", "");
        assert!(lint_group(&[file(&free, Scope::Sim)]).is_empty());
        // Exhaustive spellings are clean.
        let full = src.replace("_ => 1,", "Kind::B | Kind::C => 1,");
        assert!(lint_group(&[file(&full, Scope::Sim)]).is_empty());
        // The marker is resolved cross-file through the symbol table.
        let enum_file = file("// lint:exhaustive\npub enum Kind { A, B }\n", Scope::Sim);
        let match_file = FileInput {
            path: PathBuf::from("user.rs"),
            source: "fn g(k: Kind) -> u32 { match k { Kind::A => 0, _ => 1 } }\n".into(),
            scope: Scope::Sim,
        };
        let f = lint_group(&[enum_file.clone(), match_file.clone()]);
        assert_eq!(rules(&f), vec![Rule::ExhaustiveMatch], "{f:?}");
        // …and `tests/` integration files are exempt.
        let test_file = FileInput {
            path: PathBuf::from("tests/user.rs"),
            source: match_file.source.clone(),
            scope: Scope::General,
        };
        assert!(lint_group(&[enum_file, test_file]).is_empty());
    }

    #[test]
    fn cast_audit_flags_narrowing_and_float_sources_in_marked_files() {
        let marked = "// lint:shard-state\nfn f(n: usize, w: f64) -> u64 {\n    let a = n as u32;\n    let b = (w * 4.0) as u64;\n    let c = n as u64;\n    a as u64 + b + c\n}\n";
        let f = lint_group(&[file(marked, Scope::Sim)]);
        // `n as u32` narrows; `(w * 4.0) as u64` is float-sourced;
        // `n as u64` and `a as u64` widen and stay legal.
        assert_eq!(rules(&f), vec![Rule::CastAudit; 2], "{f:?}");
        assert!(f[0].message.contains("narrowing"), "{f:?}");
        assert!(f[1].message.contains("float-to-integer"), "{f:?}");
        // Unmarked files carry no obligation.
        let free = marked.replace("// lint:shard-state\n", "");
        assert!(lint_group(&[file(&free, Scope::Sim)]).is_empty());
        // The escape hatch works like every other rule's.
        let allowed = "// lint:shard-state\nfn f(n: usize) -> u32 {\n    // lint:allow(cast-audit, reason = \"n is a subflow index, bounded by MAX_SUBFLOWS = 64\")\n    n as u32\n}\n";
        assert!(lint_group(&[file(allowed, Scope::Sim)]).is_empty());
    }

    #[test]
    fn hot_alloc_flags_allocating_calls_in_hot_path_files_only() {
        let marked = "// lint:hot-path\nfn f(xs: &[u64]) -> Vec<u64> {\n    let a = Box::new(1u64);\n    let b = vec![0u64; 4];\n    let c = xs.to_vec();\n    let d = c.clone();\n    drop((a, b));\n    d\n}\n";
        let f = lint_group(&[file(marked, Scope::Sim)]);
        assert_eq!(rules(&f), vec![Rule::HotAlloc; 4], "{f:?}");
        // Unmarked files (and shard-state-only files) carry no obligation:
        // shard state legitimately clones at setup/snapshot time.
        let free = marked.replace("// lint:hot-path\n", "");
        assert!(lint_group(&[file(&free, Scope::Sim)]).is_empty());
        let shard = marked.replace("lint:hot-path", "lint:shard-state");
        assert!(lint_group(&[file(&shard, Scope::Sim)]).iter().all(|f| f.rule != Rule::HotAlloc));
        // #[cfg(test)] items in a marked file are exempt.
        let test_only = "// lint:hot-path\n#[cfg(test)]\nmod tests {\n    fn g() -> Vec<u64> { vec![1, 2].to_vec() }\n}\n";
        assert!(lint_group(&[file(test_only, Scope::Sim)]).is_empty());
        // Mentions in comments/docs are fine.
        let comment_only = "// lint:hot-path\n// A vec! or .clone() here would allocate per ACK.\nlet x = 1;\n";
        assert!(lint_group(&[file(comment_only, Scope::General)]).is_empty());
        // The escape hatch works like every other rule's.
        let allowed = "// lint:hot-path\nfn f() -> Vec<u64> {\n    // lint:allow(hot-alloc, reason = \"creation-time ring storage, never per-ACK\")\n    vec![0u64; 256]\n}\n";
        assert!(lint_group(&[file(allowed, Scope::Sim)]).is_empty());
    }

    #[test]
    fn symbol_table_records_pub_items_and_exhaustive_enums() {
        let a = file(
            "// lint:exhaustive\npub enum Kind { A, B }\npub struct S;\npub fn run() {}\n",
            Scope::Sim,
        );
        let syms = collect_symbols(&[a]);
        assert_eq!(syms.exhaustive_enum_names(), vec!["Kind"]);
        assert_eq!(syms.exhaustive_enum("Kind").unwrap(), &["A", "B"]);
        assert!(syms.exhaustive_enum("S").is_none());
        let names: Vec<(&str, &str)> =
            syms.pub_items.iter().map(|p| (p.kind, p.name.as_str())).collect();
        assert_eq!(names, vec![("enum", "Kind"), ("struct", "S"), ("fn", "run")]);
    }
}
