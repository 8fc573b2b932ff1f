//! What must stay true of the benchmark itself: scripts are a function of
//! the seed alone, the two topologies share one script, every workload is
//! long enough for its p99, quick runs pass their own checks, and
//! `BENCHMARK.json` says what the code does.

use vdx_benchmark::json::{self, Value};
use vdx_benchmark::product::DataProfile;
use vdx_benchmark::report::{END_TO_END, PER_LAYER, RUN_SECONDS};
use vdx_benchmark::run::{build_script, set_up, whole_catalog, TempDir};
use vdx_benchmark::script::{spec, Script, WORKLOADS};

/// The quick-size script of `workload` for `seed`, from a fresh catalog.
fn script_of(workload: &str, seed: u64) -> Script {
    let spec = spec(workload, true).unwrap();
    let tmp = TempDir::new().unwrap();
    let mut profile = DataProfile::default();
    let serving = set_up(&spec, seed, &tmp.path().join("stack"), Some(&mut profile)).unwrap();
    let whole = whole_catalog(&spec, seed, &serving, &tmp.path().join("whole")).unwrap();
    let script = build_script(&spec, seed, &profile, &whole);
    serving.stop().unwrap();
    script
}

#[test]
fn scripts_and_digests_are_a_function_of_the_seed() {
    for workload in WORKLOADS {
        let first = script_of(workload, 42);
        let again = script_of(workload, 42);
        assert_eq!(
            first.lines, again.lines,
            "{workload}: same seed, same script"
        );
        assert_eq!(first.reply_digest(), again.reply_digest(), "{workload}");
        let other = script_of(workload, 7);
        assert_ne!(
            first.lines, other.lines,
            "{workload}: another seed, another script"
        );
        assert_ne!(first.reply_digest(), other.reply_digest(), "{workload}");
    }
}

#[test]
fn both_topologies_replay_one_script() {
    let single = script_of("explore_warm", 42);
    let sharded = script_of("cluster_scatter", 42);
    assert_eq!(single.lines, sharded.lines);
    assert_eq!(single.reply_digest(), sharded.reply_digest());
}

#[test]
fn every_workload_has_a_thousand_requests() {
    for workload in WORKLOADS {
        for quick in [false, true] {
            let spec = spec(workload, quick).unwrap();
            assert!(spec.script_ops >= 1_000, "{workload} quick={quick}");
            assert!(
                spec.trace_ops <= spec.script_ops,
                "{workload} quick={quick}"
            );
        }
        assert_eq!(script_of(workload, 42).lines.len(), 1_000, "{workload}");
    }
    assert!(spec("no_such_workload", false).is_none());
}

/// Run the benchmark binary and parse the last line of its output.
fn run_binary(args: &[&str]) -> (bool, Value) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vdx-benchmark"))
        .args(args)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default();
    (
        output.status.success(),
        json::parse(last).unwrap_or(Value::Null),
    )
}

#[test]
fn quick_runs_are_correct_on_two_seeds() {
    for seed in ["42", "7"] {
        for workload in WORKLOADS {
            let (success, result) = run_binary(&[
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "0.3",
                "--trace",
                "0",
                "--quick",
            ]);
            assert!(success, "{workload} seed {seed}: {result}");
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(10.0));
            let metrics = result.get("metrics").unwrap().fields();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let defined: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, defined, "{workload}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(value > Some(0.0), "{workload} {name} is never 0");
            }
        }
    }
}

#[test]
fn quick_traced_run_reports_every_layer_metric() {
    let (success, result) =
        run_binary(&["--workload", "cluster_scatter", "--trace", "1", "--quick"]);
    assert!(success, "{result}");
    let metrics = result.get("metrics").unwrap().fields();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let defined: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, defined);
    // Counts repeat exactly; times under a parallel test run do not, so
    // nothing is asserted of them here.
    let forwards = result
        .get("metrics")
        .unwrap()
        .get("server.cluster.forwards_per_op");
    let forwards = forwards
        .unwrap()
        .get("value")
        .and_then(Value::as_f64)
        .unwrap();
    assert!(forwards > 1.0 && forwards < 3.0, "{forwards}");
}

#[test]
fn a_missing_workload_or_bad_option_prints_no_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let (success, result) = run_binary(args);
        assert!(!success, "{args:?}");
        assert_eq!(result, Value::Null, "{args:?}");
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
    assert_eq!(
        doc.get("paths").unwrap().as_arr(),
        [Value::str("benchmark")]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );

    let workloads = doc.get("workloads").unwrap().as_arr();
    let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    assert!(workloads.iter().all(|w| text(w, "why").len() <= 200));

    let end_to_end = doc.get("end_to_end").unwrap().as_arr();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, metric) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(listed, "name"), metric.name);
        assert_eq!(text(listed, "unit"), metric.unit);
        let better = if metric.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(text(listed, "better"), better, "{}", metric.name);
        assert_eq!(
            listed.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
        assert!(metric.bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").unwrap().as_arr();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(listed, "name"), name);
        assert_eq!(text(listed, "unit"), unit);
        assert!(["lower", "higher"].contains(&text(listed, "better").as_str()));
    }
}
