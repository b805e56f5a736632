//! Each workload at 1/16 of its horizon passes its own checks, and the
//! command line and `BENCHMARK.json` agree with the code.

use super::*;
use report::{END_TO_END, PER_LAYER};

fn one_rep<W: Workload>(w: &W) -> Rep {
    let mut off = Tracer::off();
    w.run(w.setup(11, &mut off), &mut off)
}

#[test]
fn fattree_k8_at_a_sixteenth_passes_its_checks() {
    let rep = one_rep(&FatTreeBulk::K8.scaled(16));
    assert_eq!(rep.errors, Vec::<String>::new());
    assert_eq!((rep.attempted, rep.failed), (128, 0));
    assert!(rep.pkts > 0);
    let slow = one_rep(&FatTreeBulk { min_host_mbps: 85.0, ..FatTreeBulk::K8.scaled(16) });
    assert!(slow.errors.iter().any(|e| e.contains("goodput")), "a ramp is not the steady state");
}

#[test]
fn fattree_k16_sharded_at_a_sixteenth_passes_its_checks_on_either_thread_count() {
    let w = FatTreeBulk::K16_SHARDED.scaled(16);
    let (one, two) = (one_rep(&w), one_rep(&w.on(Engine::Sharded { shards: 8, jobs: 2 })));
    assert_eq!(one.errors, Vec::<String>::new());
    assert_eq!((one.attempted, one.failed), (1024, 0));
    assert_eq!(two.repeatable, one.repeatable, "jobs must not change the history");
}

#[test]
fn churn_at_a_sixteenth_finishes_every_flow_and_recycles() {
    let rep = one_rep(&Churn::K16_SHARDED.scaled(16));
    assert_eq!(rep.errors, Vec::<String>::new());
    assert_eq!((rep.attempted, rep.failed), (5000, 0));
    let arena = rep.arena.expect("churn reports arena counters");
    assert!(arena.hot_reuses > 0 && arena.peak_hot_slots > 0);
}

#[test]
fn wan_lossy4_at_a_sixteenth_passes_its_checks() {
    let rep = one_rep(&WanLossy::FOUR_PATHS.scaled(16));
    assert_eq!(rep.errors, Vec::<String>::new());
    assert_eq!((rep.attempted, rep.failed), (4, 0));
    assert!(rep.window.expect("sim window").tcp.retransmits > 0);
}

#[test]
fn proto_bulk_at_a_sixteenth_is_byte_exact_and_one_flipped_byte_fails_it() {
    let w = ProtoBulk::TWO_WIRES.scaled(16);
    let rep = one_rep(&w);
    assert_eq!(rep.errors, Vec::<String>::new());
    assert_eq!((rep.attempted, rep.failed), (1, 0));
    let bad = one_rep(&ProtoBulk { corrupt_at: Some(w.bytes / 2), ..w });
    assert_eq!(bad.failed, 1);
    assert!(bad.errors.iter().any(|e| e.contains("pattern")), "{:?}", bad.errors);
    // The wires and endpoints saw the same transfer either way.
    assert_eq!(bad.repeatable, rep.repeatable);
}

#[test]
fn a_traced_run_slices_the_window_and_keeps_the_history() {
    let w = WanLossy::FOUR_PATHS.scaled(64);
    let plain = one_rep(&w);
    let mut tr = Tracer::on();
    let traced = w.run(w.setup(11, &mut tr), &mut tr);
    assert_eq!(traced.repeatable, plain.repeatable);
    let slices = traced.window.as_ref().map_or(0, |w| w.slice_ms.len());
    assert_eq!(slices, 40);
    let named = |n: &str| tr.spans().iter().filter(|s| s.name == n).count();
    assert_eq!(named("sim.run_until.slice"), 40);
    assert_eq!((named("topology.build"), named("sim.collect_stats"), named("sim.det_digest")), (1, 1, 1));
    let layers = layers::of_run(w.engine(), w.traffic(), &traced, &plain, &tr, &Vec::new());
    for (name, _) in &layers {
        assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name} is not a declared metric");
    }
}

#[test]
fn measure_repeats_until_the_budget_and_samples_set_up() {
    let (reps, setups) = measure(&WanLossy::FOUR_PATHS.scaled(2400), 11, Duration::from_millis(50), 64);
    assert!((2..=64).contains(&reps.len()), "a 1 s horizon fits a 50 ms budget many times");
    let capped = measure(&WanLossy::FOUR_PATHS.scaled(2400), 11, Duration::from_secs(5), 2);
    assert_eq!(capped.0.len(), 2, "the repetition cap ends the run before the budget does");
    assert!(setups.len() >= MIN_SETUPS.max(reps.len()));
    assert!(repeat_errors(&reps.iter().collect::<Vec<_>>()).is_empty());
    let mut odd = reps[0].clone();
    odd.repeatable[0] += 1;
    assert!(!repeat_errors(&[&reps[0], &odd]).is_empty());
}

#[test]
fn options_accept_the_driver_command_line_and_reject_the_rest() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let o = Options::parse(&args("--workload wan_lossy4 --seed 7 --seconds 20 --trace 1")).unwrap();
    assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("wan_lossy4", 7, 20, true));
    assert_eq!(Options::parse(&args("--workload all")).map(|o| (o.seed, o.trace)), Ok((11, false)));
    for bad in ["", "--workload nope", "--workload all --trace 2", "--workload all --seconds 0", "--seed"] {
        assert!(Options::parse(&args(bad)).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn records_are_stamped() {
    let o = Options::parse(&["--workload".into(), "fattree_k16_sharded".into()]).unwrap();
    let record = Json::Obj(stamp(Suite::FattreeK16Sharded, FatTreeBulk::K16_SHARDED.engine().jobs(), &o, 3));
    for key in ["workload", "why", "seed", "jobs", "host_cores", "oversubscribed", "rustc", "git", "reps"] {
        assert!(record.get(key).is_some(), "record lacks {key}");
    }
    assert_eq!(record.get("jobs").and_then(Json::as_f64), Some(1.0));
}

/// `BENCHMARK.json` is written by hand; this keeps it equal to the tables
/// the benchmark prints from.
#[test]
fn benchmark_json_agrees_with_the_code() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let rows = |key: &str| file.get(key).and_then(Json::as_arr).unwrap_or_default().to_vec();
    let text_of = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap_or("?").to_string();

    let workloads: Vec<_> = rows("workloads").iter().map(|r| (text_of(r, "name"), text_of(r, "why"))).collect();
    let want: Vec<_> = Suite::ALL.iter().map(|s| (s.name().to_string(), s.why().to_string())).collect();
    assert_eq!(workloads, want);
    assert!(want.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let e2e: Vec<_> = rows("end_to_end")
        .iter()
        .map(|r| (text_of(r, "name"), text_of(r, "unit"), text_of(r, "better"), r.get("bound").and_then(Json::as_f64)))
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .filter(|m| m.name != "fail_share")
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.word().to_string(), Some(m.bound)))
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<_> = rows("per_layer")
        .iter()
        .map(|r| (text_of(r, "name"), text_of(r, "unit"), text_of(r, "better")))
        .collect();
    let want: Vec<_> =
        PER_LAYER.iter().map(|m| (m.0.to_string(), m.1.to_string(), m.2.word().to_string())).collect();
    assert_eq!(layers, want);
    assert_eq!(file.get("paths").map(Json::to_line), Some("[\"crates/perfbench\"]".to_string()));
    let default_seconds = Options::parse(&["--workload".into(), "all".into()]).map(|o| o.seconds as f64);
    assert_eq!(file.get("run_seconds").and_then(Json::as_f64), default_seconds.ok());
}
