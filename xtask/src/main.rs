//! `cargo xtask` — workspace automation CLI.
//!
//! ```text
//! cargo xtask bench-check BASELINE.json # BENCH_sim.json perf-regression gate
//! cargo xtask perf-table                # regenerate the README perf table
//! ```
//!
//! Exit status: 0 when clean, 1 on a regression (`--strict`) or a stale
//! table (`--check`), 2 on usage or I/O errors. The determinism lints are
//! `cargo clippy --workspace --all-targets -- -D warnings` (DESIGN.md
//! §3.2d).

use xtask::{compare, find_workspace_root, parse_bench};

const USAGE: &str = "usage: cargo xtask bench-check BASELINE [CURRENT] [--threshold-pct N] [--strict]
       cargo xtask perf-table [--check]

subcommands:
  bench-check   compare the throughput (events/ops per second, per-core) and
                memory (peak RSS) fields of a freshly regenerated
                BENCH_sim.json against a baseline copy
    BASELINE    the committed baseline (e.g. a copy made before re-running
                the benches)
    CURRENT     the fresh file; defaults to BENCH_sim.json at the
                workspace root
    --threshold-pct N
                regression tolerance in percent (default 20)
    --strict    exit 1 on any regression beyond the threshold. Without it
                the comparison is a smoke check: regressions print but the
                exit code stays 0 (wall-clock numbers from shared CI
                machines are noise)
  perf-table    re-render the README's generated performance table (between
                the `<!-- perf-table:begin -->` / `<!-- perf-table:end -->`
                markers) from the scale_sweep and flow_churn records in
                BENCH_sim.json, so the committed table always matches the
                committed baseline
    --check     render without writing; exit 1 if README.md is stale
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("bench-check") => bench_check(&args[1..]),
        Some("perf-table") => perf_table(&args[1..]),
        Some("-h" | "--help") => {
            print!("{USAGE}");
            0
        }
        None => {
            print!("{USAGE}");
            2
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            2
        }
    }
}

/// `cargo xtask bench-check BASELINE [CURRENT] [--threshold-pct N] [--strict]`
/// — see the module docs of `xtask::bench` for the policy.
fn bench_check(args: &[String]) -> i32 {
    let mut strict = false;
    let mut threshold = 0.20;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--strict" => strict = true,
            "--threshold-pct" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--threshold-pct needs a number\n{USAGE}");
                    return 2;
                };
                threshold = v / 100.0;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            path => paths.push(path),
        }
    }
    let Some(&baseline_path) = paths.first() else {
        eprintln!("bench-check needs a baseline file\n{USAGE}");
        return 2;
    };
    let current_path = match paths.get(1) {
        Some(&p) => std::path::PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().unwrap_or_default();
            let root = find_workspace_root(&cwd)
                .or_else(|| find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))));
            match root {
                Some(r) => r.join("BENCH_sim.json"),
                None => {
                    eprintln!("xtask: no workspace root found for the default CURRENT file");
                    return 2;
                }
            }
        }
    };
    if paths.len() > 2 {
        eprintln!("bench-check takes at most two files\n{USAGE}");
        return 2;
    }

    let read = |p: &std::path::Path| match std::fs::read_to_string(p) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("xtask: {}: {e}", p.display());
            None
        }
    };
    let (Some(base_text), Some(cur_text)) =
        (read(std::path::Path::new(baseline_path)), read(&current_path))
    else {
        return 2;
    };
    let (base, cur) = match (parse_bench(&base_text), parse_bench(&cur_text)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask: bench-check parse error: {e}");
            return 2;
        }
    };

    let outcome = compare(&base, &cur);
    let comparisons = outcome.comparisons;
    if comparisons.is_empty() && outcome.skipped.is_empty() {
        eprintln!(
            "xtask bench-check: no overlapping throughput/memory fields between {} and {} — nothing was checked",
            baseline_path,
            current_path.display()
        );
        return 2;
    }
    for note in &outcome.skipped {
        println!("  note: {note}");
    }
    let mut regressed = 0;
    for c in &comparisons {
        let r = c.regression();
        let verdict = if r > threshold {
            regressed += 1;
            "REGRESSED"
        } else if r < 0.0 {
            if c.lower_is_better { "smaller" } else { "faster" }
        } else {
            "ok"
        };
        // The printed delta is the raw value change; `regression()` folds
        // in the direction (memory fields regress on growth).
        println!(
            "  {:<42} {:<26} {:>12.0} -> {:>12.0}  {:+6.1}%  {}",
            c.source,
            c.field,
            c.baseline,
            c.current,
            (c.current / c.baseline - 1.0) * 100.0,
            verdict
        );
    }
    println!(
        "xtask bench-check: {} field(s) compared, {} beyond the {:.0}% threshold{}",
        comparisons.len(),
        regressed,
        threshold * 100.0,
        if strict { " (strict)" } else { " (smoke — informational)" }
    );
    if regressed > 0 && strict {
        return 1;
    }
    0
}

/// `cargo xtask perf-table [--check]` — regenerate (or verify) the
/// README's generated performance table from `BENCH_sim.json`.
fn perf_table(args: &[String]) -> i32 {
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return 2;
            }
        }
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(root) = find_workspace_root(&cwd)
        .or_else(|| find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))))
    else {
        eprintln!("xtask: no workspace root found above {}", cwd.display());
        return 2;
    };
    let bench_path = root.join("BENCH_sim.json");
    let readme_path = root.join("README.md");
    let read = |p: &std::path::Path| match std::fs::read_to_string(p) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("xtask: {}: {e}", p.display());
            None
        }
    };
    let (Some(bench_text), Some(readme)) = (read(&bench_path), read(&readme_path)) else {
        return 2;
    };
    let records = match parse_bench(&bench_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: perf-table parse error: {e}");
            return 2;
        }
    };
    let Some(table) = xtask::perf_table::render(&records) else {
        eprintln!(
            "xtask: {} has no scale_sweep/ or flow_churn/ records — run those benches first",
            bench_path.display()
        );
        return 2;
    };
    let updated = match xtask::perf_table::splice(&readme, &table) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("xtask: perf-table: {e}");
            return 2;
        }
    };
    if updated == readme {
        println!("xtask perf-table: README.md is up to date");
        return 0;
    }
    if check {
        eprintln!("xtask perf-table: README.md is stale — run `cargo xtask perf-table`");
        return 1;
    }
    if let Err(e) = std::fs::write(&readme_path, &updated) {
        eprintln!("xtask: {}: {e}", readme_path.display());
        return 2;
    }
    println!("xtask perf-table: rewrote the generated table in README.md");
    0
}
