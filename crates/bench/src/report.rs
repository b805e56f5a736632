//! Machine-readable benchmark output (`BENCH_sim.json`).
//!
//! Performance claims in this repo are backed by numbers checked into
//! `BENCH_sim.json` at the workspace root. Each record is one JSON object
//! on its own line inside a JSON array; records carry a `"source"` key
//! (e.g. `"sim_micro/two_tcps"`) and re-running a bench replaces its own
//! records while leaving the others in place, so the file accumulates the
//! latest result from every source.
//!
//! JSON is emitted by hand (the workspace builds offline, with no serde);
//! the format is deliberately one-object-per-line so the merge can work
//! textually without a JSON parser.

use std::fmt::Write as _;
use std::path::PathBuf;

use mptcp_netsim::{ProbeLog, TraceWriter};

/// A JSON value in a [`Record`].
#[derive(Debug, Clone)]
pub enum Json {
    /// A float, serialized with enough precision to round-trip.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One benchmark record: a `source` identity plus measured fields.
#[derive(Debug, Clone)]
pub struct Record {
    source: String,
    fields: Vec<(String, Json)>,
}

impl Record {
    /// Start a record for `source` (the merge key).
    pub fn new(source: impl Into<String>) -> Self {
        Record { source: source.into(), fields: Vec::new() }
    }

    /// Add a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Serialize as a single JSON object line.
    pub fn to_json_line(&self) -> String {
        let mut out = format!("{{\"source\":\"{}\"", escape(&self.source));
        for (k, v) in &self.fields {
            let _ = match v {
                Json::Num(x) if x.is_finite() => write!(out, ",\"{}\":{}", escape(k), x),
                Json::Num(_) => write!(out, ",\"{}\":null", escape(k)),
                Json::Int(x) => write!(out, ",\"{}\":{}", escape(k), x),
                Json::Str(s) => write!(out, ",\"{}\":\"{}\"", escape(k), escape(s)),
                Json::Bool(b) => write!(out, ",\"{}\":{}", escape(k), b),
            };
        }
        out.push('}');
        out
    }
}

/// The number of logical cores on the machine running the bench, as seen
/// by the standard library (1 when the query fails). Benches stamp this
/// into their records as `host_cores` so `cargo xtask bench-check` can
/// tell a genuine per-core regression from a baseline that was simply
/// recorded on a machine with a different core count — per-core
/// comparisons are skipped (with a note) when the counts differ.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1)
}

/// The process's peak resident set size in bytes (`VmHWM`), or `None` off
/// Linux or if the field is missing — a record then carries 0 and a table
/// a dash, rather than failing the bench.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Where `BENCH_sim.json` lives: the workspace root.
pub fn bench_sim_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json"))
}

fn source_of_line(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("{\"source\":\"")?;
    Some(&rest[..rest.find('"')?])
}

/// Merge `records` into `BENCH_sim.json`: existing records whose source
/// starts with `source_prefix` are dropped, the new ones appended.
///
/// Uses a prefix so one bench target can own a family of sources (e.g.
/// `sim_micro/` covers `sim_micro/two_tcps` and `sim_micro/mptcp4`).
pub fn merge_bench_sim(source_prefix: &str, records: &[Record]) {
    let path = bench_sim_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| {
            source_of_line(l).is_some_and(|s| !s.starts_with(source_prefix))
        })
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    lines.extend(records.iter().map(Record::to_json_line));
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  wrote {} record(s) to {}", records.len(), path.display());
    }
}

/// Where exported probe traces live: `target/traces/` at the workspace
/// root (regenerated artifacts, not checked in).
pub fn trace_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/traces"))
}

/// Export a probe log as JSONL to `target/traces/<name>.jsonl` and return
/// the path. The format is one object per line with a `"kind"` field of
/// `"subflow"`, `"link"` or `"transition"` — see
/// [`TraceWriter`] and the plotting recipe in `EXPERIMENTS.md`.
pub fn export_trace(name: &str, log: &ProbeLog) -> std::io::Result<PathBuf> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let file = std::fs::File::create(&path)?;
    let mut out = TraceWriter::new(std::io::BufWriter::new(file)).write_log(log)?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_to_one_json_object_line() {
        let r = Record::new("sim_micro/x")
            .field("events_per_sec", 1.5e6)
            .field("events", 1234u64)
            .field("backend", "wheel")
            .field("quick", false);
        let line = r.to_json_line();
        let want = concat!(
            "{\"source\":\"sim_micro/x\",\"events_per_sec\":1500000,",
            "\"events\":1234,\"backend\":\"wheel\",\"quick\":false}",
        );
        assert_eq!(line, want);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let r = Record::new("a\"b\\c\nd");
        let line = r.to_json_line();
        assert!(line.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn source_extraction() {
        let r = Record::new("tab_fattree/wheel").field("x", 1u64);
        assert_eq!(source_of_line(&r.to_json_line()), Some("tab_fattree/wheel"));
        assert_eq!(source_of_line("not json"), None);
    }

    #[test]
    fn host_cores_is_positive_and_stable() {
        let a = host_cores();
        assert!(a >= 1);
        assert_eq!(a, host_cores());
    }

    #[test]
    fn nan_serializes_as_null() {
        let r = Record::new("s").field("bad", f64::NAN);
        assert!(r.to_json_line().contains("\"bad\":null"));
    }
}
