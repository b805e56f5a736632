//! `cargo xtask bench-check` — the performance-regression gate.
//!
//! `BENCH_sim.json` (workspace root) holds one JSON object per line, each
//! with a `"source"` identity and measured fields (see
//! `crates/bench/src/report.rs`, which writes it). This module compares a
//! freshly regenerated file against a committed baseline copy and reports
//! every gated field that regressed by more than the threshold (default
//! 20%): *throughput* fields — named `events_per_sec` or ending in
//! `_per_sec`/`_per_core` (higher is better; the per-core rates keep "add
//! more threads" from masking a serial regression) — and *memory* fields —
//! `peak_rss_bytes` and anything ending in `_rss_bytes` (lower is
//! better).
//!
//! Sources present in only one file are skipped, not failed: a quick CI
//! run regenerates only a subset of benches, and a brand-new bench has no
//! baseline yet. The comparison itself always runs and always prints; the
//! *verdict* has two modes, because wall-clock numbers from a loaded CI
//! box are noise:
//!
//! * default (smoke): regressions are listed but the exit code stays 0 —
//!   CI proves the gate is wired without flaking on machine noise;
//! * strict (`--strict`): any regression beyond
//!   the threshold fails — run on the machine that recorded the baseline.
//!
//! Like the report writer, parsing is textual (no JSON parser in the
//! offline workspace): one object per line, `"key":value` pairs.

/// One parsed benchmark record: its source identity and numeric fields.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The `"source"` merge key (e.g. `sim_micro/mptcp4`).
    pub source: String,
    /// Every numeric field, in file order.
    pub fields: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Look up a numeric field by name.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Parse every record line of a `BENCH_sim.json` body. Lines that are not
/// record objects (the array brackets, blanks) are skipped; a record line
/// that fails to parse is reported by source in the error.
pub fn parse_bench(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"source\":\"") {
            continue;
        }
        let rest = &line["{\"source\":\"".len()..];
        let end = rest.find('"').ok_or_else(|| format!("unterminated source in: {line}"))?;
        let source = rest[..end].to_string();
        let mut fields = Vec::new();
        let mut body = &rest[end + 1..];
        while let Some(q) = body.find(",\"") {
            body = &body[q + 2..];
            let Some(kq) = body.find('"') else { break };
            let key = body[..kq].to_string();
            let Some(colon) = body[kq..].strip_prefix("\":") else {
                return Err(format!("{source}: malformed field after `{key}`"));
            };
            let vend = colon.find([',', '}']).unwrap_or(colon.len());
            // Booleans become 0/1 so flags like `"quick"` are visible to
            // consumers (perf-table's caveat); neither matches the gated
            // `*_per_sec` / `*_rss_bytes` field names, so bench-check
            // never compares them.
            match colon[..vend].trim() {
                "true" => fields.push((key, 1.0)),
                "false" => fields.push((key, 0.0)),
                v => {
                    if let Ok(v) = v.parse::<f64>() {
                        fields.push((key, v));
                    }
                }
            }
            body = colon;
        }
        out.push(BenchRecord { source, fields });
    }
    Ok(out)
}

/// Whether a field is a throughput metric (higher is better) that the
/// regression gate compares. Per-core rates (`*_per_core`) count too, so
/// "add more threads" can't mask a serial regression behind a flat
/// aggregate number.
pub fn is_throughput_field(key: &str) -> bool {
    key == "events_per_sec" || key.ends_with("_per_sec") || key.ends_with("_per_core")
}

/// Whether a field is a memory high-water mark (**lower** is better) that
/// the regression gate compares — `peak_rss_bytes` and friends.
pub fn is_memory_field(key: &str) -> bool {
    key == "peak_rss_bytes" || key.ends_with("_rss_bytes")
}

/// One baseline-vs-current comparison of a gated (throughput or memory)
/// field.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Record source.
    pub source: String,
    /// Field name.
    pub field: String,
    /// Baseline value (events/ops per second, or bytes).
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Direction: true for memory fields (growth is a regression), false
    /// for throughput fields (shrinkage is a regression).
    pub lower_is_better: bool,
}

impl Comparison {
    /// Fractional regression: 0.25 means 25% worse than baseline — slower
    /// for throughput fields, more memory for memory fields. Negative when
    /// the current run improved.
    pub fn regression(&self) -> f64 {
        if self.lower_is_better {
            self.current / self.baseline - 1.0
        } else {
            1.0 - self.current / self.baseline
        }
    }
}

/// The result of [`compare`]: the gated field comparisons plus notes for
/// fields that were deliberately *not* compared (currently: per-core
/// rates across records with different `host_cores`).
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Baseline-vs-current comparisons, in baseline file order.
    pub comparisons: Vec<Comparison>,
    /// One human-readable line per skipped field.
    pub skipped: Vec<String>,
}

/// Compare every throughput and memory field of every source present in
/// **both** files. Returns all comparisons (for the report) in baseline
/// file order. A non-positive baseline value is skipped (e.g. the 0 RSS
/// recorded off Linux — there is nothing to regress against), and so is a
/// non-positive current memory value, with a note: it means the RSS went
/// unmeasured, not that it shrank to nothing.
///
/// `*_per_core` fields are only meaningful between runs on machines with
/// the same logical-core count: dividing an aggregate rate by `jobs` on a
/// box that cannot actually run `jobs` threads concurrently inflates the
/// per-core number. When both records carry a `host_cores` field and the
/// counts differ, per-core comparisons are skipped and noted instead of
/// reported as (anti-)regressions. Records without `host_cores` (older
/// baselines) are compared as before.
pub fn compare(baseline: &[BenchRecord], current: &[BenchRecord]) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.source == b.source) else {
            continue;
        };
        let cores = (b.get("host_cores"), c.get("host_cores"));
        let cores_differ = matches!(cores, (Some(bc), Some(cc)) if bc.total_cmp(&cc).is_ne());
        for (key, bval) in &b.fields {
            let memory = is_memory_field(key);
            if (!is_throughput_field(key) && !memory) || *bval <= 0.0 {
                continue;
            }
            if cores_differ && key.ends_with("_per_core") {
                out.skipped.push(format!(
                    "{} {}: skipped — baseline ran on {:.0} core(s), current on {:.0}",
                    b.source,
                    key,
                    cores.0.unwrap_or(0.0),
                    cores.1.unwrap_or(0.0),
                ));
                continue;
            }
            let Some(cval) = c.get(key) else { continue };
            if memory && cval <= 0.0 {
                out.skipped.push(format!(
                    "{} {}: skipped — current run recorded {cval:.0} (RSS not measured)",
                    b.source, key,
                ));
                continue;
            }
            out.comparisons.push(Comparison {
                source: b.source.clone(),
                field: key.clone(),
                baseline: *bval,
                current: cval,
                lower_is_better: memory,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
{"source":"sim_micro/mptcp4","events":14150,"wheel_events_per_sec":6750000.5,"heap_events_per_sec":7250000,"speedup":0.93,"quick":false},
{"source":"sim_micro/probe_guard","probe_overhead":0.044,"disabled_events_per_sec":7690000,"identical_history":true},
{"source":"scale_sweep/fattree_k8","hosts":128,"events_per_sec":5100000,"peak_rss_bytes":8388608}
]"#;

    #[test]
    fn parses_records_and_numeric_fields_only() {
        let recs = parse_bench(SAMPLE).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].source, "sim_micro/mptcp4");
        assert_eq!(recs[0].get("events"), Some(14150.0));
        assert_eq!(recs[0].get("wheel_events_per_sec"), Some(6750000.5));
        // Booleans parse as 0/1 flags (perf-table reads `quick`); their
        // names never match the gated field patterns, so bench-check
        // ignores them.
        assert_eq!(recs[0].get("quick"), Some(0.0));
        assert_eq!(recs[1].get("identical_history"), Some(1.0));
        assert_eq!(recs[2].get("events_per_sec"), Some(5100000.0));
    }

    #[test]
    fn throughput_fields_are_the_per_sec_and_per_core_ones() {
        assert!(is_throughput_field("events_per_sec"));
        assert!(is_throughput_field("wheel_events_per_sec"));
        assert!(is_throughput_field("bitmap_ops_per_sec"));
        assert!(is_throughput_field("events_per_sec_per_core"));
        assert!(!is_throughput_field("probe_overhead"));
        assert!(!is_throughput_field("peak_rss_bytes"));
        assert!(!is_throughput_field("events"));
    }

    #[test]
    fn memory_fields_are_the_rss_ones_and_regress_on_growth() {
        assert!(is_memory_field("peak_rss_bytes"));
        assert!(!is_memory_field("events_per_sec"));
        assert!(!is_memory_field("peak_pending"));
        let grown = Comparison {
            source: "s".into(),
            field: "peak_rss_bytes".into(),
            baseline: 100.0,
            current: 130.0,
            lower_is_better: true,
        };
        assert!((grown.regression() - 0.30).abs() < 1e-12, "30% more memory regresses");
        let shrunk = Comparison { current: 80.0, ..grown };
        assert!(shrunk.regression() < 0.0, "less memory is an improvement");
    }

    #[test]
    fn compare_gates_rss_in_the_right_direction() {
        let base = parse_bench(SAMPLE).unwrap();
        let fresh = parse_bench(
            r#"{"source":"scale_sweep/fattree_k8","events_per_sec":5100000,"peak_rss_bytes":16777216}"#,
        )
        .unwrap();
        let cmp = compare(&base, &fresh).comparisons;
        let rss = cmp.iter().find(|c| c.field == "peak_rss_bytes").expect("rss compared");
        assert!(rss.lower_is_better);
        assert!(rss.regression() > 0.20, "doubled RSS must regress: {rss:?}");
        let eps = cmp.iter().find(|c| c.field == "events_per_sec").unwrap();
        assert!(!eps.lower_is_better);
        assert!(eps.regression().abs() < 1e-12);
    }

    #[test]
    fn compare_matches_sources_and_flags_regressions() {
        let base = parse_bench(SAMPLE).unwrap();
        let fresh = parse_bench(
            r#"{"source":"sim_micro/mptcp4","wheel_events_per_sec":5000000,"heap_events_per_sec":7300000}
{"source":"scale_sweep/fattree_k8","events_per_sec":5200000}
{"source":"new_bench/only_current","events_per_sec":1}"#,
        )
        .unwrap();
        let cmp = compare(&base, &fresh).comparisons;
        // probe_guard is baseline-only, only_current is fresh-only: skipped.
        let sources: Vec<&str> = cmp.iter().map(|c| c.source.as_str()).collect();
        assert!(!sources.contains(&"sim_micro/probe_guard"));
        assert!(!sources.contains(&"new_bench/only_current"));
        let wheel = cmp
            .iter()
            .find(|c| c.field == "wheel_events_per_sec")
            .expect("wheel field compared");
        assert!(wheel.regression() > 0.20, "{:?}", wheel);
        let k8 = cmp.iter().find(|c| c.field == "events_per_sec").unwrap();
        assert!(k8.regression() < 0.0, "faster run is a negative regression");
    }

    #[test]
    fn the_real_checked_in_file_parses_and_self_compares_clean() {
        let root = crate::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let text = std::fs::read_to_string(root.join("BENCH_sim.json")).expect("BENCH_sim.json");
        let recs = parse_bench(&text).expect("checked-in file parses");
        assert!(!recs.is_empty());
        assert!(
            recs.iter().any(|r| r.fields.iter().any(|(k, _)| is_throughput_field(k))),
            "no throughput fields — the gate would compare nothing"
        );
        // A file compared against itself has zero regression everywhere.
        let cmp = compare(&recs, &recs);
        assert!(!cmp.comparisons.is_empty());
        assert!(cmp.skipped.is_empty(), "self-comparison never differs in core count");
        assert!(cmp.comparisons.iter().all(|c| c.regression().abs() < 1e-12));
    }

    #[test]
    fn per_core_fields_skip_with_note_when_core_counts_differ() {
        let base = parse_bench(
            r#"{"source":"scale_sweep/k32","events_per_sec":2000000,"events_per_sec_per_core":250000,"host_cores":8}"#,
        )
        .unwrap();
        let fresh = parse_bench(
            r#"{"source":"scale_sweep/k32","events_per_sec":2000000,"events_per_sec_per_core":125000,"host_cores":1}"#,
        )
        .unwrap();
        let out = compare(&base, &fresh);
        // The aggregate rate is still gated; the per-core one is noted, not
        // reported as a 50% regression caused by the machine change.
        assert!(out.comparisons.iter().any(|c| c.field == "events_per_sec"));
        assert!(!out.comparisons.iter().any(|c| c.field == "events_per_sec_per_core"));
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].contains("events_per_sec_per_core"), "{:?}", out.skipped);
        assert!(out.skipped[0].contains("8 core(s)"), "{:?}", out.skipped);
    }

    #[test]
    fn unmeasured_current_rss_is_skipped_with_note_not_an_improvement() {
        let base = parse_bench(SAMPLE).unwrap();
        let fresh = parse_bench(
            r#"{"source":"scale_sweep/fattree_k8","events_per_sec":5100000,"peak_rss_bytes":0}"#,
        )
        .unwrap();
        let out = compare(&base, &fresh);
        assert!(!out.comparisons.iter().any(|c| c.field == "peak_rss_bytes"), "{out:?}");
        assert!(out.comparisons.iter().any(|c| c.field == "events_per_sec"));
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].contains("peak_rss_bytes"), "{:?}", out.skipped);
    }

    #[test]
    fn per_core_fields_compare_when_core_counts_match_or_are_absent() {
        let with_cores =
            r#"{"source":"s","events_per_sec_per_core":250000,"host_cores":8}"#;
        let base = parse_bench(with_cores).unwrap();
        let same = compare(&base, &base);
        assert_eq!(same.comparisons.len(), 1);
        assert!(same.skipped.is_empty());
        // Older baselines without host_cores keep their per-core gate.
        let legacy = parse_bench(r#"{"source":"s","events_per_sec_per_core":250000}"#).unwrap();
        let out = compare(&legacy, &base);
        assert_eq!(out.comparisons.len(), 1);
        assert!(out.skipped.is_empty());
    }
}
