//! Harness self-tests at the `--smoke` scale: the real binary, driven
//! the way `run.sh` drives it.

use benchmark::json::Json;
use benchmark::spec::{self, Metric};
use benchmark::workloads::Workload;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

fn record(dir: &Path, file: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Every name of `table`, in order, finite and tagged with its unit.
fn assert_metrics(rec: &Json, table: &[Metric], file: &str) {
    let Some(Json::Obj(got)) = rec.get("metrics") else { panic!("{file}: no metrics") };
    let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{file}: metric names");
    for (m, (_, v)) in table.iter().zip(got) {
        let value = v.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{file}: {} = {value:?}", m.name);
        assert_eq!(v.get("unit"), Some(&Json::str(m.unit)), "{file}: unit of {}", m.name);
    }
}

#[test]
fn checked_in_benchmark_json_is_the_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    // Not `assert_eq!`: the two documents are pages long.
    assert!(
        Json::parse(&text).expect("BENCHMARK.json parses") == spec::benchmark_json(),
        "BENCHMARK.json is stale: regenerate with `bash benchmark/run.sh spec > BENCHMARK.json`"
    );
}

#[test]
fn smoke_suite_reports_every_metric_and_compares_clean() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&dir);
    let suite = Command::new(EXE)
        .args(["suite", "--smoke", "--traced", "--runs", "2", "--seconds", "0.2", "--seed", "7"])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("suite starts");
    let stdout = String::from_utf8_lossy(&suite.stdout);
    assert!(suite.status.success(), "suite failed:\n{stdout}");
    // The last line of every run is the driver's result object.
    let results: Vec<Json> =
        stdout.lines().filter(|l| l.starts_with('{')).map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(results.len(), 3 * Workload::ALL.len());
    for r in &results {
        let keys: Vec<&str> = match r {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
    }

    for w in Workload::ALL {
        for seed in [7, 8] {
            let file = format!("{}.s{seed}.json", w.name());
            let rec = record(&dir, &file);
            assert_metrics(&rec, spec::END_TO_END, &file);
            for (name, v) in rec.get("metrics").map_or(&[][..], |m| match m {
                Json::Obj(m) => m.as_slice(),
                _ => &[],
            }) {
                let value = v.get("value").and_then(Json::as_f64).unwrap();
                assert!(value > 0.0, "{file}: end-to-end {name} must never read 0");
            }
        }
        let file = format!("trace-{}.s7.json", w.name());
        let rec = record(&dir, &file);
        assert_metrics(&rec, spec::PER_LAYER, &file);
        let spans = rec.get("spans").map_or(&[][..], Json::items);
        for name in ["rep", "build", "assemble", "run", "collect", "window"] {
            assert!(
                spans.iter().any(|s| s.get("name") == Some(&Json::str(name))),
                "{file}: no {name} span"
            );
        }
    }

    let cmp =
        Command::new(EXE).arg("compare").arg(&dir).arg(&dir).output().expect("compare starts");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "a set compared with itself is never worse:\n{table}");
    let exact = table.lines().filter(|l| l.ends_with("counters and virtual time equal")).count();
    assert_eq!(exact, Workload::ALL.len(), "{table}");
    let rows: Vec<&str> =
        table.lines().filter(|l| spec::END_TO_END.iter().any(|m| l.contains(m.name))).collect();
    assert_eq!(rows.len(), Workload::ALL.len() * spec::END_TO_END.len());
    for row in rows {
        // Host noise at smoke scale may leave a row unresolved; identical
        // medians can never read better or worse.
        let verdict = row.split_whitespace().last().unwrap();
        assert!(["unchanged", "unresolved"].contains(&verdict), "{row}");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result_line() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"], &["compare", "only-one"]] {
        let out = Command::new(EXE).args(args).output().expect("starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
