//! `mptcp-perfbench` — the repository's performance benchmark.
//!
//! One invocation runs one workload in its own process and prints every
//! metric by name with its unit; `--workload all` runs the five as child
//! processes. `--trace 1` is a separate pass that records a span around
//! every call the benchmark makes into a layer and reports the per-layer
//! metrics. See `README.md` beside this crate for the definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod probes;
pub mod protoload;
pub mod report;
pub mod simload;
pub mod stats;
pub mod trace;
pub mod world;

use json::{obj, Json};
use protoload::{ProtoBulk, ProtoCalls};
use simload::{ArenaCounts, Churn, FatTreeBulk, WanLossy};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::Tracer;
use world::{Engine, Window};

/// One repetition of a workload: its timed window and what came out.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the timed window on the wall clock.
    pub wall_s: f64,
    /// Host seconds the calling thread ran on a CPU in the window: the
    /// bounded timing of a single-threaded repetition (see `clock`).
    pub cpu_s: f64,
    /// Payload packets delivered exactly once in the window.
    pub pkts: u64,
    /// Simulated payload Mb/s per source over the window.
    pub goodput_mbps: f64,
    /// Operations attempted (flows, subflows or transfers).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Counts that are a function of the seed alone (events, packets,
    /// digest): every repetition, traced or not, must produce the same.
    pub repeatable: Vec<u64>,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// The window's counters (simulator workloads).
    pub window: Option<Window>,
    /// Arena counters (churn workload).
    pub arena: Option<ArenaCounts>,
    /// Per-call times and counts (protocol workload).
    pub proto: Option<ProtoCalls>,
}

/// What the computed shares need to know about a workload's traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    /// Subflows per flow, when flows spend the window in congestion
    /// avoidance; `None` when the controller hardly runs.
    pub cc_paths: Option<usize>,
    /// Whether subflow windows hold hundreds of packets rather than tens.
    pub wide_windows: bool,
}

/// A workload: set-up from the seed, then one timed run.
pub trait Workload {
    /// What set-up produces and the run consumes.
    type Ready;
    /// Engine and thread count the workload runs on.
    fn engine(&self) -> Engine;
    /// Build everything from empty to ready-to-run. The caller times it.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Ready;
    /// Warm up if the workload has a warm-up, then run and measure the
    /// timed window and check its outputs.
    fn run(&self, ready: Self::Ready, tr: &mut Tracer) -> Rep;
    /// Traffic shape, for the computed shares.
    fn traffic(&self) -> Traffic {
        Traffic::default()
    }
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    FattreeK8,
    FattreeK16Sharded,
    ChurnK16Sharded,
    WanLossy4,
    ProtoBulk,
}

impl Suite {
    const ALL: [Suite; 5] = [
        Suite::FattreeK8,
        Suite::FattreeK16Sharded,
        Suite::ChurnK16Sharded,
        Suite::WanLossy4,
        Suite::ProtoBulk,
    ];

    fn name(self) -> &'static str {
        match self {
            Suite::FattreeK8 => "fattree_k8",
            Suite::FattreeK16Sharded => "fattree_k16_sharded",
            Suite::ChurnK16Sharded => "churn_k16_sharded",
            Suite::WanLossy4 => "wan_lossy4",
            Suite::ProtoBulk => "proto_bulk",
        }
    }

    /// Why the workload is in the suite (also in `BENCHMARK.json`).
    fn why(self) -> &'static str {
        match self {
            Suite::FattreeK8 => "paper's FatTree k=8 cell on one thread: event, link, tcp, scoreboard and 8-way LIA all busy, ~3.8k pending events, window spans several 268 ms wheel periods",
            Suite::FattreeK16Sharded => "1024 hosts in 8 shards, timed on one thread: 31k pending events, 52 MiB, dense epochs, mailbox cost; the two-thread run is a leg of the traced pass",
            Suite::ChurnK16Sharded => "80k short flows on the sharded world, one thread: add_connection and arena recycling, slow-start-only flows, 140k mostly idle epochs",
            Suite::WanLossy4 => "one 4-path connection, 2400 simulated seconds at 0.1% loss: near-empty queue, SACK scoreboard, recovery and RTO timers; link and shard idle",
            Suite::ProtoBulk => "512 MB through the protocol endpoint over two lossy wires: no simulator layer runs, so a sim-side change must leave it flat",
        }
    }

    fn parse(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Repetitions of an untraced run when `--seconds` leaves room for
    /// them: the batch of work is the same on every commit. At the default
    /// 30 s every workload reaches its count on the reference host.
    fn max_reps(self) -> usize {
        match self {
            Suite::FattreeK8 | Suite::WanLossy4 | Suite::ProtoBulk => 5,
            // A repetition is 3 s, a tenth of it set-up.
            Suite::ChurnK16Sharded => 7,
            // One repetition is 23 s, 9 s of it warm-up.
            Suite::FattreeK16Sharded => 1,
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    /// A workload name or `all`.
    workload: String,
    seed: u64,
    /// Measuring budget of an untraced run, seconds.
    seconds: u64,
    trace: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: mptcp-perfbench --workload <fattree_k8|fattree_k16_sharded|churn_k16_sharded|wan_lossy4|proto_bulk|all> \
[--seed N] [--seconds S] [--trace 0|1] [--check-repeat]";

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 11,
            seconds: 30,
            trace: false,
            check_repeat: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--check-repeat" => o.check_repeat = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if o.workload != "all" && Suite::parse(&o.workload).is_none() {
            return Err(format!("unknown workload {:?}", o.workload));
        }
        if !(1..=60).contains(&o.seconds) {
            return Err("--seconds must be between 1 and 60".into());
        }
        Ok(o)
    }
}

/// Set-up is sampled in slices, one before the first repetition and one
/// after each, so that the samples spread over the whole run as the
/// repetitions do: the host's speed changes within milliseconds, and 4000
/// samples of a microsecond set-up taken at one moment read that moment
/// (1.4 µs, or 2.1 µs when the other hardware thread was busy). A slice
/// samples until this much host time has gone into it, the last sample
/// included (so a set-up longer than that is not sampled again), or the cap
/// is reached; a run samples at least `MIN_SETUPS` times.
const SETUP_SLICE_S: f64 = 0.15;
const SETUP_SLICE_CAP: usize = 800;
const MIN_SETUPS: usize = 5;

/// Time one set-up whose world is dropped unused.
fn sample_setup<W: Workload>(w: &W, seed: u64, setups: &mut Vec<f64>) {
    let t0 = mptcp_netsim::wall_clock();
    let ready = w.setup(seed, &mut Tracer::off());
    setups.push(t0.elapsed().as_secs_f64());
    drop(ready);
}

fn setup_slice<W: Workload>(w: &W, seed: u64, setups: &mut Vec<f64>) {
    let mut spent = setups.last().copied().unwrap_or(0.0);
    for _ in 0..SETUP_SLICE_CAP {
        if spent >= SETUP_SLICE_S {
            break;
        }
        sample_setup(w, seed, setups);
        spent += setups.last().copied().unwrap_or(0.0);
    }
}

/// The untraced pass: whole repetitions (at least one, at most `max_reps`)
/// while the next one still fits the budget, with a slice of set-up
/// samples around each.
fn measure<W: Workload>(
    w: &W,
    seed: u64,
    budget: Duration,
    max_reps: usize,
) -> (Vec<Rep>, Vec<f64>) {
    let mut off = Tracer::off();
    let (mut reps, mut setups) = (Vec::new(), Vec::new());
    let started = mptcp_netsim::wall_clock();
    setup_slice(w, seed, &mut setups);
    loop {
        let t0 = mptcp_netsim::wall_clock();
        let ready = w.setup(seed, &mut off);
        setups.push(t0.elapsed().as_secs_f64());
        reps.push(w.run(ready, &mut off));
        let rep = t0.elapsed();
        setup_slice(w, seed, &mut setups);
        if reps.len() == max_reps || started.elapsed() + rep > budget {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        sample_setup(w, seed, &mut setups);
    }
    (reps, setups)
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such field).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The fields every record carries, whatever it measured.
fn stamp(suite: Suite, jobs: usize, o: &Options, reps: usize) -> Vec<(String, Json)> {
    let cores = mptcp_bench::report::host_cores();
    [
        ("workload", suite.name().into()),
        ("why", suite.why().into()),
        ("trace", o.trace.into()),
        ("seed", o.seed.into()),
        ("seconds", o.seconds.into()),
        ("jobs", (jobs as u64).into()),
        ("host_cores", cores.into()),
        // Two worker threads on one core time the scheduler, not the
        // engine: the two-thread legs of such a traced record mean nothing.
        ("oversubscribed", (jobs as u64 > cores).into()),
        ("rustc", first_line_of("rustc", &["--version"]).into()),
        ("git", first_line_of("git", &["rev-parse", "HEAD"]).into()),
        ("reps", (reps as u64).into()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Every repetition must have produced the same history.
fn repeat_errors(reps: &[&Rep]) -> Vec<String> {
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    if reps.iter().any(|r| r.repeatable != reps[0].repeatable) {
        let all: Vec<_> = reps.iter().map(|r| &r.repeatable).collect();
        errors.push(format!("event, packet or digest counts differ between repetitions: {all:?}"));
    }
    errors.sort();
    errors.dedup();
    errors
}

fn finish(mut record: Vec<(String, Json)>, reps: &[&Rep], metrics: Vec<(String, Json)>) -> Json {
    let errors = repeat_errors(reps);
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    record.extend([
        ("correct".to_string(), (errors.is_empty() && failed == 0).into()),
        ("attempted".to_string(), attempted.into()),
        ("failed".to_string(), failed.into()),
        ("errors".to_string(), Json::Arr(errors.into_iter().map(Json::from).collect())),
        // Event, packet and digest counts, as text: a digest needs all 64 bits.
        ("history".to_string(), Json::Arr(reps[0].repeatable.iter().map(|c| c.to_string().into()).collect())),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    Json::Obj(record)
}

/// The untraced record of one workload: the six end-to-end metrics.
fn end_to_end<W: Workload>(w: &W, suite: Suite, o: &Options) -> Json {
    let (reps, setups) = measure(w, o.seed, Duration::from_secs(o.seconds), suite.max_reps());
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.pkts as f64 / r.cpu_s).collect();
    let walls: Vec<Json> = reps.iter().map(|r| r.wall_s.into()).collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    // In the order of `report::END_TO_END`; a metric read once is a sample
    // of one.
    let samples: [&[f64]; 6] = [
        &cpus,
        &rates,
        &setups,
        &[peak_rss_mb()],
        &[failed as f64 / attempted as f64],
        &[reps[0].goodput_mbps],
    ];
    let metrics = report::END_TO_END
        .iter()
        .zip(samples)
        .map(|(m, v)| (m.name.to_string(), report::timing(m.unit, v)));
    let reps: Vec<&Rep> = reps.iter().collect();
    let mut record = stamp(suite, w.engine().jobs(), o, reps.len());
    // Beside `cpu_s`, what the wall clock read: the gap is time the host
    // gave to someone else.
    record.push(("wall_s".to_string(), Json::Arr(walls)));
    finish(record, &reps, metrics.collect())
}

/// What a workload's comparison legs add to the traced record.
#[derive(Default)]
struct Legs {
    values: Vec<(&'static str, f64)>,
    errors: Vec<String>,
    /// Most threads any leg ran on (0 without legs).
    threads: usize,
}

/// Where trace files go, relative to the directory the benchmark is run
/// from (the root of the checkout).
const OUTPUT_DIR: &str = "target/perfbench";

/// The traced record of one workload: an untraced reference repetition,
/// the traced repetition, the workload's comparison legs, then the probes.
/// `legs` receives the untraced reference to compare against.
fn per_layer<W: Workload>(
    w: &W,
    suite: Suite,
    o: &Options,
    legs: impl FnOnce(&Rep, &mut Tracer) -> Legs,
) -> Json {
    let mut tr = Tracer::on();
    let mut off = Tracer::off();
    let open = tr.begin("reference.untraced");
    let reference = w.run(w.setup(o.seed, &mut off), &mut off);
    tr.end(open);
    let open = tr.begin("setup");
    let ready = w.setup(o.seed, &mut tr);
    tr.end(open);
    let open = tr.begin("run");
    let mut traced = w.run(ready, &mut tr);
    tr.end(open);

    let open = tr.begin("legs");
    let Legs { mut values, errors, threads } = legs(&reference, &mut tr);
    traced.errors.extend(errors);
    tr.end(open);
    let open = tr.begin("probes");
    let probes = probes::run_all(&mut tr);
    tr.end(open);
    values.extend(layers::of_run(w.engine(), w.traffic(), &traced, &reference, &tr, &probes));
    values.extend(probes);

    let metrics = report::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name.to_string(), report::value(unit, v))
        })
        .collect();
    let path = PathBuf::from(OUTPUT_DIR).join(format!("trace-{}.json", suite.name()));
    let written = std::fs::create_dir_all(OUTPUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json(suite.name()).to_line() + "\n"));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => traced.errors.push(format!("could not write {}: {e}", path.display())),
    }
    let mut record = stamp(suite, w.engine().jobs().max(threads), o, 1);
    record.push((
        "note".to_string(),
        "*.share values are computed from probe unit costs and run counts, not measured in place; \
         a metric the workload does not exercise reads 0"
            .into(),
    ));
    finish(record, &[&reference, &traced], metrics)
}

/// One more untraced repetition of `w`, inside a span.
fn leg<W: Workload>(w: &W, seed: u64, name: &'static str, tr: &mut Tracer) -> Rep {
    let mut off = Tracer::off();
    tr.span(name, || w.run(w.setup(seed, &mut off), &mut off))
}

/// The two-thread twin of a sharded workload: how much faster two threads
/// made the window, and the check that they did not change the history.
fn jobs2_leg<W: Workload>(
    two: &W,
    seed: u64,
    reference: &Rep,
    metric: &'static str,
    tr: &mut Tracer,
) -> Legs {
    let rep = leg(two, seed, "leg.jobs2", tr);
    let mut errors = rep.errors;
    if rep.repeatable != reference.repeatable {
        errors.push(format!(
            "jobs=1 and jobs=2 histories differ: {:?} vs {:?}",
            reference.repeatable, rep.repeatable
        ));
    }
    // Wall time on both sides: the workers' CPU time is not the caller's.
    Legs { values: vec![(metric, reference.wall_s / rep.wall_s)], errors, threads: 2 }
}

/// Run one workload in this process and return its record.
fn run_one(suite: Suite, o: &Options) -> Json {
    fn pass<W: Workload>(
        w: &W,
        suite: Suite,
        o: &Options,
        legs: impl FnOnce(&Rep, &mut Tracer) -> Legs,
    ) -> Json {
        if o.trace {
            per_layer(w, suite, o, legs)
        } else {
            end_to_end(w, suite, o)
        }
    }
    let no_legs = |_: &Rep, _: &mut Tracer| Legs::default();
    let sharded = |jobs| Engine::Sharded { shards: 8, jobs };
    match suite {
        Suite::FattreeK8 => pass(&FatTreeBulk::K8, suite, o, |reference, tr| {
            // The same window on the sharded engine with one thread: what
            // epochs and mailboxes cost when nothing runs in parallel.
            let one = leg(&FatTreeBulk::K8.on(sharded(1)), o.seed, "leg.sharded_jobs1", tr);
            let overhead = one.cpu_s / reference.cpu_s;
            Legs { values: vec![("shard.serial_overhead_k8", overhead)], errors: one.errors, threads: 1 }
        }),
        Suite::FattreeK16Sharded => pass(&FatTreeBulk::K16_SHARDED, suite, o, |reference, tr| {
            let two = FatTreeBulk::K16_SHARDED.on(sharded(2));
            jobs2_leg(&two, o.seed, reference, "shard.par_speedup_k16", tr)
        }),
        Suite::ChurnK16Sharded => pass(&Churn::K16_SHARDED, suite, o, |reference, tr| {
            let two = Churn::K16_SHARDED.on(sharded(2));
            jobs2_leg(&two, o.seed, reference, "shard.par_speedup_churn", tr)
        }),
        Suite::WanLossy4 => pass(&WanLossy::FOUR_PATHS, suite, o, no_legs),
        Suite::ProtoBulk => pass(&ProtoBulk::TWO_WIRES, suite, o, no_legs),
    }
}

/// A one-line human summary of a record, for standard error.
fn summary(record: &Json) -> String {
    let name = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    let mut line = format!("{name}:");
    for (metric, m) in record.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
        let (v, unit) = (
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
        );
        match (m.get("q1").and_then(Json::as_f64), m.get("q3").and_then(Json::as_f64)) {
            (Some(q1), Some(q3)) => {
                let n = m.get("n").and_then(Json::as_f64).unwrap_or(0.0);
                line += &format!("\n  {metric} = {v:.6} {unit}  [q1 {q1:.6}, q3 {q3:.6}, n {n}]");
            }
            _ => line += &format!("\n  {metric} = {v:.6} {unit}"),
        }
    }
    for e in record.get("errors").and_then(Json::as_arr).unwrap_or_default() {
        line += &format!("\n  FAILED CHECK: {}", e.as_str().unwrap_or("?"));
    }
    line
}

fn is_correct(record: &Json) -> bool {
    record.get("correct") == Some(&Json::Bool(true))
}

/// Run one workload as a child process, so its peak RSS is its own, and
/// return its record (the second-to-last line it prints).
fn run_child(suite: Suite, o: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", suite.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", suite.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let record = text.lines().rev().nth(1).ok_or(format!("{} printed no record", suite.name()))?;
    Json::parse(record).map_err(|e| format!("{}: unreadable record: {e}", suite.name()))
}

/// Run the five workloads one after another; `Err` if any could not run.
fn run_suite(o: &Options) -> Result<Vec<Json>, String> {
    Suite::ALL.into_iter().map(|s| run_child(s, o)).collect()
}

/// Run the suite twice on this build and hold every end-to-end metric of
/// every workload to its bound. Returns whether the two runs agree.
fn check_repeat(o: &Options) -> Result<bool, String> {
    let (first, second) = (run_suite(o)?, run_suite(o)?);
    let mut agree = true;
    for (a, b) in first.iter().zip(&second) {
        let name = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        agree &= is_correct(a) && is_correct(b);
        if a.get("history") != b.get("history") {
            println!("{name}: event, packet or digest counts differ between the runs  BREACH");
            agree = false;
        }
        for d in report::compare(a, b) {
            println!(
                "{name} {}: {} vs {} differ by {:.2}% (bound {:.0}%){}",
                d.metric,
                d.first,
                d.second,
                d.relative * 100.0,
                d.bound * 100.0,
                if d.breach { "  BREACH" } else { "" }
            );
            agree &= !d.breach;
        }
    }
    Ok(agree)
}

/// Put glibc's allocator in one regime for the whole run. Freeing one
/// large block raises its dynamic mmap and trim thresholds, so the many
/// worlds a run builds and drops reuse heap memory. Left alone, the heap
/// top is trimmed and faulted back in on every set-up or on none,
/// depending on whether some vector of the world crosses 128 KiB, which
/// depends on the seed: `setup_s` of `fattree_k8` read 0.46 ms or 0.68 ms.
fn steady_allocator() {
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
}

/// The command line: parse `args`, run, print, and say how it went.
pub fn run(args: &[String]) -> ExitCode {
    steady_allocator();
    let o = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if o.check_repeat {
        check_repeat(&o)
    } else if let Some(suite) = Suite::parse(&o.workload) {
        let record = run_one(suite, &o);
        eprintln!("{}", summary(&record));
        println!("{}", record.to_line());
        println!("{}", report::result_line(&record).to_line());
        Ok(is_correct(&record))
    } else {
        run_suite(&o).map(|records| {
            println!("{}", obj([("records", Json::Arr(records.clone()))]).to_line());
            records.iter().all(is_correct)
        })
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
