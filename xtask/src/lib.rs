//! `xtask` — workspace automation for the MPTCP reproduction.
//!
//! Two subcommands: `cargo xtask bench-check`, the `BENCH_sim.json`
//! performance-regression gate; and `cargo xtask perf-table`, which
//! regenerates the README performance table from the same records. The
//! library half exists so the tests can drive the exact code the CLI
//! runs. The determinism lints are clippy's (DESIGN.md §3.2d).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod bench;
pub mod perf_table;

pub use bench::{compare, is_throughput_field, parse_bench, BenchRecord, Comparison};

use std::path::{Path, PathBuf};

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
