//! Cross-process tests of the `bench-gate` binary: the committed-record
//! layout must pass, and every way the layout can rot — a deleted
//! record, a deleted baseline, a corrupt baseline — must fail loudly
//! (the PR 4 record was once missing for two releases because a missing
//! baseline only printed a skip notice).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A synthetic bench document whose ratios pass every gate check.
fn passing_doc(target: &str, benches: &[(&str, &str, f64)]) -> String {
    let rows: Vec<String> = benches
        .iter()
        .map(|(group, name, median)| {
            format!("    {{\"group\": \"{group}\", \"name\": \"{name}\", \"median_ns\": {median}}}")
        })
        .collect();
    format!(
        "{{\n  \"target\": \"{target}\",\n  \"manifest\": {{\"run_id\": \"bench-{target}\", \
         \"git\": \"test\", \"created_unix_ms\": 0, \"fast\": false}},\n  \"benchmarks\": [\n{}\n  \
         ],\n  \"fig5_full_wall_clock\": {{\"pre_change_s\": 100.0, \"post_change_s\": 90.0}}\n}}\n",
        rows.join(",\n")
    )
}

fn pr3_doc() -> String {
    passing_doc(
        "BENCH_pr3",
        &[
            ("encode_512_9x61", "kernel", 100.0),
            ("encode_512_9x61", "scalar", 300.0),
            ("predicate_512_9x61", "kernel", 100.0),
            ("predicate_512_9x61", "scalar", 300.0),
            ("repartition_512_9x61", "kernel", 100.0),
            ("repartition_512_9x61", "scalar", 100.0),
            ("fig5_page_512_9x61", "kernel", 100.0),
            ("fig5_page_512_9x61", "scalar", 100.0),
        ],
    )
}

fn pr4_doc() -> String {
    passing_doc(
        "BENCH_pr4",
        &[
            ("predicate_incremental_512_9x61", "incremental", 100.0),
            ("predicate_incremental_512_9x61", "recompute", 200.0),
            ("safer_predicate_incremental_512", "incremental", 100.0),
            ("safer_predicate_incremental_512", "recompute", 200.0),
            ("page_eval_512_9x61", "incremental", 100.0),
            ("page_eval_512_9x61", "recompute", 200.0),
            ("scaling_512_9x61", "threadsN", 100.0),
            ("scaling_512_9x61", "threads1", 100.0),
        ],
    )
}

fn pr5_doc() -> String {
    passing_doc(
        "BENCH_pr5",
        &[
            ("tracing_overhead_512_9x61", "disabled", 100.0),
            ("tracing_overhead_512_9x61", "enabled", 105.0),
            ("tracing_overhead_512_9x61", "off", 100.0),
        ],
    )
}

fn pr7_doc() -> String {
    // The per-unit overhead must be at least 50x quicker than the unit
    // it rides on (the 2% fraction bound).
    passing_doc(
        "BENCH_pr7",
        &[
            ("series_overhead_512_9x61", "unit", 10000.0),
            ("series_overhead_512_9x61", "per_unit_overhead", 100.0),
        ],
    )
}

fn pr10_doc() -> String {
    // The per-barrier estimate work must be at least 50x quicker than
    // the unit it rides on (the 2% fraction bound).
    passing_doc(
        "BENCH_pr10",
        &[
            ("estimate_overhead_512_9x61", "unit", 10000.0),
            ("estimate_overhead_512_9x61", "per_unit_overhead", 100.0),
        ],
    )
}

/// Writes the full committed layout — every record with its baseline —
/// into a fresh temp dir and returns it.
fn committed_layout(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aegis-bench-gate-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (name, doc) in [
        ("BENCH_pr3", pr3_doc()),
        ("BENCH_pr4", pr4_doc()),
        ("BENCH_pr5", pr5_doc()),
        ("BENCH_pr7", pr7_doc()),
        ("BENCH_pr10", pr10_doc()),
    ] {
        std::fs::write(dir.join(format!("{name}.json")), &doc).expect("write record");
        std::fs::write(dir.join(format!("{name}.baseline.json")), &doc).expect("write baseline");
    }
    dir
}

fn gate(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-gate"))
        .args(args)
        .output()
        .expect("run bench-gate")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn complete_layout_passes() {
    let dir = committed_layout("complete");
    let output = gate(&[&dir.join("BENCH_pr3.json")]);
    assert!(
        output.status.success(),
        "expected pass, stderr: {}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_record_fails() {
    let dir = committed_layout("missing-record");
    std::fs::remove_file(dir.join("BENCH_pr4.json")).expect("remove record");
    let output = gate(&[&dir.join("BENCH_pr3.json")]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    assert!(
        stderr_of(&output).contains("BENCH_pr4.json"),
        "stderr must name the missing record: {}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_fails_by_default() {
    let dir = committed_layout("missing-baseline");
    std::fs::remove_file(dir.join("BENCH_pr4.baseline.json")).expect("remove baseline");
    let output = gate(&[&dir.join("BENCH_pr3.json")]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("BENCH_pr4.baseline.json") && stderr.contains("missing"),
        "stderr must name the missing baseline: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_fails_with_directory_argument() {
    let dir = committed_layout("missing-baseline-dir");
    std::fs::remove_file(dir.join("BENCH_pr5.baseline.json")).expect("remove baseline");
    let output = gate(&[&dir.join("BENCH_pr3.json"), &dir]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    assert!(
        stderr_of(&output).contains("BENCH_pr5.baseline.json"),
        "stderr must name the missing baseline: {}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_baseline_fails() {
    let dir = committed_layout("malformed-baseline");
    std::fs::write(dir.join("BENCH_pr4.baseline.json"), "not json").expect("corrupt baseline");
    let output = gate(&[&dir.join("BENCH_pr3.json")]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("BENCH_pr4.baseline.json") && stderr.contains("unreadable or malformed"),
        "stderr must flag the corrupt baseline: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_baseline_file_downgrades_missing_siblings_to_a_skip() {
    let dir = committed_layout("scratch-file");
    std::fs::remove_file(dir.join("BENCH_pr4.baseline.json")).expect("remove baseline");
    std::fs::remove_file(dir.join("BENCH_pr5.baseline.json")).expect("remove baseline");
    std::fs::remove_file(dir.join("BENCH_pr7.baseline.json")).expect("remove baseline");
    let output = gate(&[
        &dir.join("BENCH_pr3.json"),
        &dir.join("BENCH_pr3.baseline.json"),
    ]);
    assert!(
        output.status.success(),
        "explicit file baseline must keep the scratch flow working, stderr: {}",
        stderr_of(&output)
    );
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        stdout.contains("skipping regression check"),
        "the skip must stay visible: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
