//! # mptcp-bench — the experiment harness
//!
//! Shared measurement and reporting utilities for the per-figure/per-table
//! bench targets (see `benches/`). Each bench target prints the same rows
//! or series the paper reports, side by side with the paper's numbers, and
//! `EXPERIMENTS.md` records a captured run.
//!
//! Durations: every experiment honors the `MPTCP_QUICK` environment
//! variable — when set, simulated durations shrink (useful for smoke
//! tests); the recorded results in `EXPERIMENTS.md` come from full runs.
//! `MPTCP_QUICK=<n>` picks the scale factor (default 8), and sweeps fan
//! out over threads via [`runner::run_parallel`] (`MPTCP_JOBS` pins the
//! worker count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod datacenter;
pub mod oracle;
pub mod plot;
pub mod report;
pub mod runner;

use mptcp_netsim::{ConnId, SimTime, Simulator};

/// Whether quick mode is requested (shorter simulated durations).
pub fn quick_mode() -> bool {
    std::env::var_os("MPTCP_QUICK").is_some()
}

/// The quick-mode scale factor: `None` when `MPTCP_QUICK` is unset,
/// `Some(n)` when set to a number `n ≥ 1`, `Some(8)` when set to anything
/// else (`MPTCP_QUICK=1` gives full durations while still marking the run
/// as quick).
pub fn quick_factor() -> Option<u64> {
    let v = std::env::var_os("MPTCP_QUICK")?;
    Some(v.to_str().and_then(|s| s.trim().parse::<u64>().ok()).map_or(8, |n| n.max(1)))
}

/// Scale a duration down by the [`quick_factor`] in quick mode.
pub fn scaled(full: SimTime) -> SimTime {
    match quick_factor() {
        Some(f) => SimTime(full.as_nanos() / f),
        None => full,
    }
}

/// Run `sim` through a warm-up period, then a measurement window, and
/// return each connection's goodput **in bits/s** over the window only.
///
/// Link statistics are reset at the start of the window so
/// [`Simulator::link_stats`] afterwards also reflects the window.
pub fn measure_goodput_bps(
    sim: &mut Simulator,
    conns: &[ConnId],
    warmup: SimTime,
    window: SimTime,
) -> Vec<f64> {
    sim.run_until(sim.now() + warmup);
    sim.reset_link_stats();
    let before: Vec<u64> =
        conns.iter().map(|&c| sim.connection_stats(c).delivered_pkts()).collect();
    sim.run_until(sim.now() + window);
    let secs = window.as_secs_f64();
    conns
        .iter()
        .zip(before)
        .map(|(&c, b)| {
            let st = sim.connection_stats(c);
            (st.delivered_pkts() - b) as f64 * st.packet_size as f64 * 8.0 / secs
        })
        .collect()
}

/// Same as [`measure_goodput_bps`] but in packets/s.
pub fn measure_goodput_pps(
    sim: &mut Simulator,
    conns: &[ConnId],
    warmup: SimTime,
    window: SimTime,
) -> Vec<f64> {
    let bps = measure_goodput_bps(sim, conns, warmup, window);
    conns
        .iter()
        .zip(bps)
        .map(|(&c, b)| b / (sim.connection_stats(c).packet_size as f64 * 8.0))
        .collect()
}

/// A minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Print with aligned columns.
    pub fn print(&self) {
        let mut width: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> =
                cells.iter().enumerate().map(|(i, c)| format!("{:>w$}", c, w = width[i])).collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        let total: usize = width.iter().sum::<usize>() + 2 * width.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Print a banner for an experiment.
pub fn banner(id: &str, what: &str) {
    println!();
    println!("=== {id} — {what} ===");
    println!();
}

/// Format bits/s as Mb/s with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Format a plain float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a plain float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_cc::AlgorithmKind;
    use mptcp_netsim::{ConnectionSpec, LinkSpec};

    #[test]
    fn measured_window_excludes_warmup() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        let bps =
            measure_goodput_bps(&mut sim, &[c], SimTime::from_secs(5), SimTime::from_secs(10));
        assert!(bps[0] > 9e6, "steady-state goodput after warmup: {}", bps[0]);
    }

    #[test]
    fn pps_and_bps_agree() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkSpec::pkts_per_sec(500.0, SimTime::from_millis(50), 25));
        let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]));
        let pps =
            measure_goodput_pps(&mut sim, &[c], SimTime::from_secs(5), SimTime::from_secs(10));
        assert!((400.0..=505.0).contains(&pps[0]), "≈500 pkt/s, got {}", pps[0]);
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        Table::new(&["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn quick_factor_parses_the_env_var() {
        // One test covers all MPTCP_QUICK shapes so the env mutation never
        // races another test in this binary.
        std::env::remove_var("MPTCP_QUICK");
        assert_eq!(quick_factor(), None);
        assert_eq!(scaled(SimTime::from_secs(8)), SimTime::from_secs(8));
        std::env::set_var("MPTCP_QUICK", "1");
        assert_eq!(quick_factor(), Some(1));
        assert_eq!(scaled(SimTime::from_secs(8)), SimTime::from_secs(8));
        std::env::set_var("MPTCP_QUICK", "16");
        assert_eq!(quick_factor(), Some(16));
        assert_eq!(scaled(SimTime::from_secs(8)), SimTime::from_millis(500));
        std::env::set_var("MPTCP_QUICK", "yes");
        assert_eq!(quick_factor(), Some(8), "non-numeric keeps the default");
        std::env::set_var("MPTCP_QUICK", "0");
        assert_eq!(quick_factor(), Some(1), "factor is clamped to >= 1");
        std::env::remove_var("MPTCP_QUICK");
    }
}
