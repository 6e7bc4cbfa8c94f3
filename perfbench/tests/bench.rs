//! Checks of the benchmark itself: its metric catalogue matches
//! `BENCHMARK.json`, the traced ledger adds up to the traced wall time,
//! deterministic counts repeat, and generated inputs derive from the seed.

use std::process::Command;

use numadag_perfbench::serve::{round_counts, round_plan, Class, CONNECTIONS, ROUND};
use numadag_perfbench::sweep::{reference_json, traced, Mode, BASELINE_JSON, BASELINE_SEED};
use numadag_perfbench::{Args, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

/// How far the layers' sum may stray from the traced wall time.
const LEDGER_TOLERANCE_PCT: f64 = 3.0;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON")
}

fn names_and_units(value: &Value, key: &str) -> Vec<(String, String)> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its result line as JSON.
fn run_bench(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_numadag-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line = stdout.lines().last().expect("a result line");
    let value: Value = serde_json::from_str(line).expect("the result line is JSON");
    assert_eq!(
        value.get("correct").and_then(Value::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(
        value.get("failed").and_then(Value::as_u64),
        Some(0),
        "{line}"
    );
    value
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(names_and_units(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn result_line_lists_every_catalogue_metric() {
    let mut out = Outcome::default();
    out.record(true);
    for (name, _) in END_TO_END {
        out.set(name, 1.5);
    }
    out.set("graph.partition_windows", 24.0);
    let e2e: Value = serde_json::from_str(&out.to_json_line(false)).unwrap();
    assert_eq!(e2e.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(
        e2e.get("metrics").and_then(Value::as_object).unwrap().len(),
        END_TO_END.len()
    );
    let layers: Value = serde_json::from_str(&out.to_json_line(true)).unwrap();
    assert_eq!(
        layers
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap()
            .len(),
        PER_LAYER.len()
    );
    assert_eq!(metric(&layers, "graph.partition_windows"), 24.0);
    assert_eq!(metric(&layers, "proc.spawn_ms"), 0.0);
}

#[test]
fn arguments_parse_and_reject_unknown_workloads() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let args = Args::parse(&argv(
        "--workload proc_full --seed 15819134 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (args.seed, args.seconds, args.trace),
        (BASELINE_SEED, 3.0, true)
    );
    assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(Args::parse(&argv("--workload serve_mixed --trace 2")).is_err());
}

#[test]
fn baseline_seed_reproduces_the_committed_full_baseline() {
    assert_eq!(reference_json(BASELINE_SEED).unwrap(), BASELINE_JSON);
}

#[test]
fn in_process_ledger_sums_to_traced_wall_time() {
    let ledgers: Vec<_> = (0..5)
        .map(|_| traced(Mode::InProcess, BASELINE_SEED).unwrap())
        .collect();
    let mut pct: Vec<f64> = ledgers
        .iter()
        .map(|l| 100.0 * l.unattributed_ms() / l.wall_ms)
        .collect();
    pct.sort_by(|a, b| a.total_cmp(b));
    assert!(
        pct[2].abs() < LEDGER_TOLERANCE_PCT,
        "unattributed {pct:?} %"
    );
    for ledger in &ledgers {
        assert_eq!(ledger.json, BASELINE_JSON);
        assert!(
            ledger.layers.iter().all(|(_, ms)| *ms >= 0.0),
            "{:?}",
            ledger.layers
        );
        assert_eq!(ledger.counts.spec_builds, 8);
        assert_eq!(ledger.counts.partition_windows, 24);
    }
}

#[test]
fn proc_ledger_sums_up_and_explains_the_gap_to_in_process() {
    let proc = run_bench("proc_full", BASELINE_SEED, true);
    let local = run_bench("figure1_full", BASELINE_SEED, true);
    for result in [&proc, &local] {
        let pct = metric(result, "ledger.unattributed_pct");
        assert!(pct.abs() < LEDGER_TOLERANCE_PCT, "unattributed {pct} %");
    }
    let gap = metric(&proc, "ledger.wall_ms") - metric(&local, "ledger.wall_ms");
    let wire: f64 = ["proc.spawn_ms", "proc.wire_ms", "proc.shutdown_ms"]
        .iter()
        .map(|m| metric(&proc, m))
        .sum();
    assert!(
        gap > 0.0 && wire > 0.5 * gap,
        "proc layers {wire} ms of a {gap} ms gap"
    );
    assert_eq!(metric(&proc, "proc.spec_transfers"), 16.0);
    assert_eq!(metric(&proc, "proc.redispatches"), 0.0);
    assert_eq!(metric(&local, "graph.partition_windows"), 24.0);
}

#[test]
fn deterministic_counts_repeat_across_runs() {
    for workload in ["figure1_full", "serve_mixed"] {
        let first = run_bench(workload, 7, true);
        let second = run_bench(workload, 7, true);
        for name in [
            "kernels.spec_builds",
            "graph.partition_windows",
            "proc.spec_transfers",
            "serve.requests_hot",
            "serve.requests_reshape",
            "serve.requests_novel",
        ] {
            assert_eq!(
                metric(&first, name),
                metric(&second, name),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn serve_mix_derives_from_the_seed() {
    assert_eq!(round_counts(7), round_counts(7));
    let plan = |seed| {
        round_plan(seed, 0)
            .iter()
            .map(|p| (p.class, p.apps))
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(7), plan(7));
    assert_ne!(plan(7), plan(8));
    let [hot, reshape, novel] = round_counts(7);
    assert_eq!(hot + reshape + novel, CONNECTIONS * ROUND);
    assert!(
        hot > reshape && reshape > novel && novel > 0,
        "{hot}/{reshape}/{novel}"
    );
    assert!(round_plan(7, 1)
        .iter()
        .all(|p| (p.class == Class::Reshape) == (p.apps != 0xFF)));
}
