//! The benchmark's own contract, checked on smoke runs of the real
//! executable: every workload prints exactly the declared metrics, a
//! corrupted expected value fails the run, and runs that would not be
//! measurements are refused.

use ntt_e2e::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use ntt_e2e::stats::{parse_result_line, Decl, ResultLine};
use std::path::Path;
use std::process::{Command, Output};
use std::sync::Mutex;

/// One run at a time: runs of one workload share a span file, and two
/// paper-shape workloads at once would only slow each other down.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn e2e(args: &[&str], env: &[(&str, &str)]) -> Output {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2e"));
    cmd.args(args).env_remove("NTT_CHAOS").env_remove("NTT_OBS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the executable runs")
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    e2e(&args, &[])
}

fn result_of(out: &Output) -> ResultLine {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; standard error was:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    parse_result_line(line).unwrap_or_else(|| panic!("not a result line: {line}"))
}

/// Names a section of `BENCHMARK.json` declares, in order.
fn names_in_benchmark_json(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
    let from = text.find(&format!("\"{section}\": [")).expect("section");
    let body = &text[from..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn assert_prints(out: &Output, declared: &[Decl], section: &str, what: &str) {
    assert!(
        out.status.success(),
        "{what}: exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let (correct, attempted, failed, metrics) = result_of(out);
    assert!(correct && failed == 0 && attempted >= 1, "{what}");
    let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(names, names_in_benchmark_json(section), "{what}");
    for ((name, value, unit), d) in metrics.iter().zip(declared) {
        assert_eq!((name.as_str(), unit.as_str()), (d.name, d.unit), "{what}");
        assert!(value.is_finite(), "{what}: {name} is {value}");
    }
}

/// `(request, is a replayed request's root, duration, self time)` of
/// every span in a span file, which holds one span a line.
fn spans_of(path: &Path) -> Vec<(u64, bool, u64, u64)> {
    let field = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or_else(|_| panic!("{key} in {line}"))
    };
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"id\""))
        .map(|l| {
            (
                field(l, "\"request\": "),
                l.contains("\"parent\": null") && l.contains("\"wire.request\""),
                field(l, "\"end_ns\": ") - field(l, "\"start_ns\": "),
                field(l, "\"self_ns\": "),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let span_dir = Path::new(env!("CARGO_BIN_EXE_e2e"))
        .parent()
        .expect("the executable has a directory")
        .join("bench-e2e");
    for (workload, _) in WORKLOADS {
        let out = smoke(workload, "0", &[]);
        assert_prints(
            &out,
            END_TO_END,
            "end_to_end",
            &format!("{workload} --trace 0"),
        );
        let out = smoke(workload, "1", &[]);
        assert_prints(
            &out,
            PER_LAYER,
            "per_layer",
            &format!("{workload} --trace 1"),
        );

        // The span file: the self times of a replayed request's tree
        // add up to its root.
        let spans = spans_of(&span_dir.join(format!("trace_{workload}.json")));
        let roots: Vec<_> = spans.iter().filter(|s| s.1).collect();
        assert!(roots.len() >= 16, "{workload}: {} roots", roots.len());
        for root in roots {
            let tree: u64 = spans.iter().filter(|s| s.0 == root.0).map(|s| s.3).sum();
            assert_eq!(tree, root.2, "{workload}: request {}", root.0);
        }
        // No checkpoint outlives its run.
        let left: Vec<_> = std::fs::read_dir(&span_dir)
            .expect("span directory")
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|n| n.to_string_lossy().ends_with(".ckpt"))
            .collect();
        assert!(left.is_empty(), "{workload} left {left:?}");
    }
}

#[test]
fn counts_repeat_exactly_under_the_same_seed() {
    let exact = [
        "net.frame_bytes",
        "core.ckpt_bytes",
        "core.final_loss_bits",
        "tensor.param_stage_bytes",
        "tensor.gemm_calls_per_window",
        "tensor.attn_fused_calls_per_window",
        "data.train_windows",
        "sim.events_per_pkt",
    ];
    let counts = |out: &Output| -> Vec<(String, f64)> {
        result_of(out)
            .3
            .into_iter()
            .filter(|m| exact.contains(&m.0.as_str()))
            .map(|m| (m.0, m.1))
            .collect()
    };
    let first = counts(&smoke("wire_tiny", "1", &[]));
    assert_eq!(first.len(), exact.len());
    assert_eq!(first, counts(&smoke("wire_tiny", "1", &[])));
}

#[test]
fn one_corrupted_expected_value_fails_the_run() {
    for workload in ["wire_tiny", "batch_paper", "train_paper"] {
        let out = smoke(workload, "0", &["--flip-expected-bit"]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let (correct, attempted, failed, _) = result_of(&out);
        assert!(!correct && failed >= 1 && failed < attempted, "{workload}");
    }
}

#[test]
fn runs_that_are_not_measurements_are_refused() {
    let refused = |out: Output, why: &str| {
        assert_eq!(out.status.code(), Some(2), "{why}");
        assert!(
            out.stdout.is_empty(),
            "{why}: a refused run prints no result"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains(why));
    };
    let args = [
        "--workload",
        "wire_tiny",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let with_smoke = [&args[..], &["--smoke"]].concat();
    refused(e2e(&with_smoke, &[("NTT_CHAOS", "seed=1")]), "NTT_CHAOS");
    if cfg!(debug_assertions) {
        refused(e2e(&args, &[]), "--release");
    }
    let traced = [&args[..6], &["--trace", "1", "--smoke"]].concat();
    refused(e2e(&traced, &[("NTT_OBS", "off")]), "NTT_OBS");
    refused(e2e(&["--workload", "live_stream"], &[]), "no workload");
    refused(e2e(&args[..6], &[]), "--trace is missing");
}
