//! End-to-end tests of the `experiments` binary: argument handling, report
//! output and CSV emission, exactly as a user would drive it.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = experiments().output().expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("Usage:"), "{stderr}");
    assert!(stderr.contains("table1"));
}

#[test]
fn unknown_command_is_rejected() {
    let output = experiments().arg("fig99").output().expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command 'fig99'"), "{stderr}");
    assert!(stderr.contains("Usage:"), "{stderr}");
}

#[test]
fn bad_option_value_is_rejected() {
    let output = experiments()
        .args(["table1", "--pages", "many"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "usage errors must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    // The offending token is echoed, not just the parse error.
    assert!(stderr.contains("--pages: invalid value 'many'"), "{stderr}");
    assert!(stderr.contains("Usage:"), "{stderr}");
}

#[test]
fn bad_samples_value_is_rejected_with_the_offending_token() {
    let output = experiments()
        .args(["fig5", "--samples", "-3"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--samples: invalid value '-3'"), "{stderr}");
}

#[test]
fn zero_counts_are_rejected_before_anything_runs() {
    let out = std::env::temp_dir().join(format!("aegis-cli-zero-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    for (command, flag) in [
        ("failcdf", "--trials"),
        ("fig10", "--trials"),
        ("fig5", "--pages"),
        ("fig5", "--samples"),
    ] {
        let output = experiments()
            .args([command, flag, "0", "--quiet", "--out"])
            .arg(&out)
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{command} {flag} 0");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{flag}: invalid value '0': must be at least 1")),
            "{command} {flag} 0: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{command} {flag} 0 printed a report"
        );
        assert!(!out.exists(), "{command} {flag} 0 wrote output");
    }
}

#[test]
fn unknown_option_is_rejected() {
    let output = experiments()
        .args(["fig5", "--verbose"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown option '--verbose'"));
}

#[test]
fn quiet_suppresses_status_output_but_not_reports() {
    let dir = std::env::temp_dir().join("aegis-cli-quiet");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["table1", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0));
    assert!(
        output.stderr.is_empty(),
        "--quiet must silence stderr, got: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("ECP"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn table1_prints_the_paper_rows_and_writes_csv() {
    let dir = std::env::temp_dir().join("aegis-cli-test-table1");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["table1", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Spot-check the printed table against the paper.
    assert!(stdout.contains("ECP"));
    assert!(stdout.contains("101")); // ECP10
    assert!(stdout.contains("552")); // SAFER512
    let csv = std::fs::read_to_string(dir.join("table1.csv")).expect("csv written");
    assert!(csv.starts_with("hard_ftc,"));
    assert_eq!(csv.lines().count(), 11); // header + 10 FTC rows
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fig5_scaled_run_is_deterministic_across_invocations() {
    let dir_a = std::env::temp_dir().join("aegis-cli-fig5-a");
    let dir_b = std::env::temp_dir().join("aegis-cli-fig5-b");
    for dir in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
        let output = experiments()
            .args(["fig5", "--pages", "2", "--seed", "9", "--out"])
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let a = std::fs::read_to_string(dir_a.join("fig5.csv")).unwrap();
    let b = std::fs::read_to_string(dir_b.join("fig5.csv")).unwrap();
    assert_eq!(a, b, "same seed must give identical CSV");
    assert!(a.contains("Aegis 9x61"));
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn telemetry_run_emits_stream_manifest_and_report() {
    let dir = std::env::temp_dir().join("aegis-cli-telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args([
            "fig5",
            "--pages",
            "2",
            "--seed",
            "9",
            "--telemetry",
            "--run-id",
            "cli-smoke",
            "--quiet",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let tel = dir.join("telemetry");
    let stream = std::fs::read_to_string(tel.join("cli-smoke.jsonl")).expect("jsonl written");
    let events = sim_telemetry::Event::parse_stream(&stream).expect("stream parses");
    assert!(matches!(
        &events[0],
        sim_telemetry::Event::RunStart { run_id } if run_id == "cli-smoke"
    ));
    let manifest_text =
        std::fs::read_to_string(tel.join("cli-smoke.manifest.json")).expect("manifest written");
    let manifest = sim_telemetry::RunManifest::parse(&manifest_text).expect("manifest parses");
    assert_eq!(manifest.run_id, "cli-smoke");
    assert_eq!(manifest.options.get("seed").map(String::as_str), Some("9"));
    assert!(manifest
        .phases
        .iter()
        .any(|(n, _)| n == "fig567.montecarlo"));

    let report = experiments()
        .args(["telemetry-report", "cli-smoke", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("verify_reads"), "{stdout}");
    assert!(stdout.contains("fig567.montecarlo"), "{stdout}");
    assert!(stdout.contains("Aegis 9x61"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn telemetry_report_for_a_missing_run_fails_cleanly() {
    let dir = std::env::temp_dir().join("aegis-cli-telemetry-missing");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["telemetry-report", "no-such-run", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "I/O failures must exit 1");
    assert!(String::from_utf8_lossy(&output.stderr).contains("telemetry-report"));

    let noid = experiments()
        .arg("telemetry-report")
        .output()
        .expect("binary runs");
    assert_eq!(
        noid.status.code(),
        Some(2),
        "missing RUN_ID is a usage error"
    );
}

#[test]
fn telemetry_streams_are_byte_identical_across_processes() {
    let dir_a = std::env::temp_dir().join("aegis-cli-telemetry-a");
    let dir_b = std::env::temp_dir().join("aegis-cli-telemetry-b");
    for dir in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
        let output = experiments()
            .args([
                "fig5", "--pages", "2", "--seed", "9", "--run-id", "rep", "--quiet", "--out",
            ])
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    // Volatile pool counters depend on work-stealing order; everything
    // else must replay byte for byte.
    let a = std::fs::read_to_string(dir_a.join("telemetry/rep.jsonl")).unwrap();
    let b = std::fs::read_to_string(dir_b.join("telemetry/rep.jsonl")).unwrap();
    assert_eq!(
        sim_telemetry::strip_volatile(&a),
        sim_telemetry::strip_volatile(&b),
        "same seed must serialize an identical event stream"
    );
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn scalar_mode_telemetry_is_byte_identical_to_kernel_mode() {
    let dir_kernel = std::env::temp_dir().join("aegis-cli-scalar-kernel");
    let dir_scalar = std::env::temp_dir().join("aegis-cli-scalar-scalar");
    for (dir, extra) in [(&dir_kernel, None), (&dir_scalar, Some("--scalar"))] {
        let _ = std::fs::remove_dir_all(dir);
        let mut cmd = experiments();
        cmd.args([
            "fig5", "--pages", "2", "--seed", "9", "--run-id", "mode", "--quiet",
        ]);
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let output = cmd.arg("--out").arg(dir).output().expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let kernel = std::fs::read_to_string(dir_kernel.join("telemetry/mode.jsonl")).unwrap();
    let scalar = std::fs::read_to_string(dir_scalar.join("telemetry/mode.jsonl")).unwrap();
    assert_eq!(
        sim_telemetry::strip_volatile(&kernel),
        sim_telemetry::strip_volatile(&scalar),
        "--scalar must replay the kernel path's event stream byte for byte"
    );
    let kernel_csv = std::fs::read(dir_kernel.join("fig5.csv")).unwrap();
    let scalar_csv = std::fs::read(dir_scalar.join("fig5.csv")).unwrap();
    assert_eq!(
        kernel_csv, scalar_csv,
        "fig5.csv must not depend on the mode"
    );
    let _ = std::fs::remove_dir_all(dir_kernel);
    let _ = std::fs::remove_dir_all(dir_scalar);
}

/// The engine has no SIMD backend, so neither the run manifest nor the
/// status heartbeat may name one: no telemetry field describes a code
/// path that never runs.
#[test]
fn manifest_and_heartbeat_name_no_simd_backend() {
    let dir = std::env::temp_dir().join("aegis-cli-no-backend");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args([
            "fig5",
            "--pages",
            "2",
            "--seed",
            "9",
            "--telemetry",
            "--status",
            "--run-id",
            "nobackend",
            "--quiet",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let tel = dir.join("telemetry");
    let manifest = std::fs::read_to_string(tel.join("nobackend.manifest.json")).unwrap();
    let status = std::fs::read_to_string(tel.join("nobackend.status.json")).unwrap();
    let record = sim_telemetry::StatusRecord::parse(&status).expect("heartbeat parses");
    assert_eq!(
        record.state,
        sim_telemetry::RunState::Done,
        "final heartbeat"
    );
    for (name, text) in [("manifest", &manifest), ("heartbeat", &status)] {
        assert!(!text.contains("simd_backend"), "{name}: {text}");
        assert!(!text.contains("eval_lanes"), "{name}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_report_skips_malformed_lines_and_exits_2() {
    let dir = std::env::temp_dir().join("aegis-cli-telemetry-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["table1", "--run-id", "corrupt", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Corrupt one line mid-file; the report must still render the rest.
    let stream_path = dir.join("telemetry/corrupt.jsonl");
    let text = std::fs::read_to_string(&stream_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let bad = lines.len() / 2;
    lines[bad] = "{\"seq\": 1, \"event\": \"coun".to_owned();
    std::fs::write(&stream_path, lines.join("\n") + "\n").unwrap();

    let report = experiments()
        .args(["telemetry-report", "corrupt", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        report.status.code(),
        Some(2),
        "a damaged stream must exit 2: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(
        stderr.contains(&format!(
            "skipped 1 malformed stream line(s) (first at line {})",
            bad + 1
        )),
        "{stderr}"
    );
    // The surviving lines still produce a report on stdout.
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("run 'corrupt'"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn traced_run_supports_telemetry_analyze_end_to_end() {
    let dir = std::env::temp_dir().join("aegis-cli-analyze");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args([
            "fig5", "--pages", "2", "--seed", "9", "--trace", "--run-id", "prof", "--out",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("trace written to"), "{stderr}");

    let tel = dir.join("telemetry");
    let trace_text = std::fs::read_to_string(tel.join("prof.trace.jsonl")).expect("sidecar");
    let log = sim_telemetry::TraceLog::parse(&trace_text).expect("sidecar parses");
    assert!(log.spans.iter().any(|s| s.name == "run"));
    assert!(log.spans.iter().any(|s| s.name == "page"));
    assert_eq!(log.total_dropped(), 0);

    let analyzed = experiments()
        .args(["telemetry-analyze", "prof", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        analyzed.status.success(),
        "{}",
        String::from_utf8_lossy(&analyzed.stderr)
    );
    let stdout = String::from_utf8_lossy(&analyzed.stdout);
    assert!(stdout.contains("Span tree:"), "{stdout}");
    assert!(stdout.contains("coverage:"), "{stdout}");
    assert!(stdout.contains("Hot spans"), "{stdout}");
    assert!(stdout.contains("Worker utilization:"), "{stdout}");
    assert!(stdout.contains("mc.Aegis 9x61"), "{stdout}");

    // Self-time coverage of the root span: at least 95% of the root's
    // wall time is attributed somewhere in the tree.
    let summary = std::fs::read_to_string(tel.join("prof.analysis.json")).expect("summary");
    let value = sim_telemetry::Json::parse(&summary).expect("summary parses");
    assert_eq!(value.str_field("run_id"), Some("prof"));
    let coverage = value
        .get("coverage")
        .and_then(sim_telemetry::Json::as_f64)
        .expect("coverage present");
    assert!(coverage >= 0.95, "coverage {coverage} below floor");
    assert_eq!(value.u64_field("dropped"), Some(0));

    // Chrome trace: {"traceEvents": [...]} of ph=X complete events.
    let chrome = std::fs::read_to_string(tel.join("prof.chrome.json")).expect("chrome trace");
    let value = sim_telemetry::Json::parse(&chrome).expect("chrome json parses");
    let events = value
        .get("traceEvents")
        .and_then(sim_telemetry::Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), log.spans.len());
    for event in events {
        assert_eq!(event.str_field("ph"), Some("X"));
        assert!(event.u64_field("ts").is_some());
        assert!(event.u64_field("dur").is_some());
    }

    // Collapsed stacks: every line is `path;seg value`.
    let collapsed = std::fs::read_to_string(tel.join("prof.collapsed.txt")).expect("collapsed");
    assert!(!collapsed.is_empty());
    for line in collapsed.lines() {
        let (path, value) = line.rsplit_once(' ').expect("path value");
        assert!(!path.is_empty(), "{line}");
        assert!(value.parse::<u64>().is_ok(), "{line}");
    }
    assert!(collapsed.lines().any(|l| l.starts_with("run;")));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_block_forensics_is_byte_identical_across_runs() {
    let run = || {
        let output = experiments()
            .args(["fig5", "--seed", "9", "--trace-block", "1,12"])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };
    let a = run();
    assert_eq!(a, run(), "forensics replay must be deterministic");
    let text = String::from_utf8_lossy(&a);
    assert!(text.contains("policy:    Aegis 9x61"), "{text}");
    assert!(text.contains("policy:    ECP6"), "{text}");
    assert!(
        text.contains("target:    page 1 block 12 (seed 9)"),
        "{text}"
    );
    assert!(text.contains("verdict:"), "{text}");
    assert!(text.contains("stuck-at-"), "{text}");
}

#[test]
fn trace_block_rejects_malformed_and_out_of_range_targets() {
    let bad_shape = experiments()
        .args(["fig5", "--trace-block", "7"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_shape.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_shape.stderr).contains("expected PAGE,BLOCK"));

    let out_of_range = experiments()
        .args(["fig5", "--pages", "2", "--trace-block", "2,0"])
        .output()
        .expect("binary runs");
    assert_eq!(out_of_range.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out_of_range.stderr).contains("out of range"));

    let bad_block = experiments()
        .args(["fig5", "--trace-block", "0,64"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_block.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_block.stderr).contains("out of range"));
}

#[test]
fn wearlevel_extension_runs_standalone() {
    let dir = std::env::temp_dir().join("aegis-cli-wearlevel");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["wearlevel", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("security-refresh"));
    assert!(dir.join("wearlevel.csv").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(unix)]
#[test]
fn sigint_checkpoints_and_resume_replays_the_uninterrupted_run() {
    let dir_ref = std::env::temp_dir().join("aegis-cli-ckpt-ref");
    let dir_int = std::env::temp_dir().join("aegis-cli-ckpt-int");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);

    // Uninterrupted reference with the same run id.
    let reference = experiments()
        .args([
            "fig5", "--pages", "4", "--seed", "9", "--run-id", "ck", "--quiet", "--out",
        ])
        .arg(&dir_ref)
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Interrupted leg: SIGINT as soon as the first snapshot lands; the
    // run must stop at the next chunk barrier with exit code 130.
    let mut child = experiments()
        .args([
            "fig5",
            "--pages",
            "4",
            "--seed",
            "9",
            "--run-id",
            "ck",
            "--checkpoint-every",
            "1",
            "--quiet",
            "--out",
        ])
        .arg(&dir_int)
        .spawn()
        .expect("binary starts");
    let ckpt_path = dir_int.join("telemetry/ck.ckpt.json");
    for _ in 0..600 {
        if ckpt_path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(ckpt_path.exists(), "first snapshot never appeared");
    let kill = std::process::Command::new("kill")
        .arg("-INT")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("child exits");
    assert_eq!(
        status.code(),
        Some(130),
        "an interrupted checkpointed run must exit 130"
    );
    assert!(ckpt_path.exists(), "interruption must leave the snapshot");

    // Resume to completion; output must replay the uninterrupted run.
    let resumed = experiments()
        .args(["fig5", "--resume", "ck", "--quiet", "--out"])
        .arg(&dir_int)
        .output()
        .expect("binary runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(!ckpt_path.exists(), "completion must remove the snapshot");
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed report must match"
    );
    for csv in ["fig5.csv", "fig6.csv", "fig7.csv"] {
        assert_eq!(
            std::fs::read(dir_ref.join(csv)).unwrap(),
            std::fs::read(dir_int.join(csv)).unwrap(),
            "{csv} must match the uninterrupted run"
        );
    }
    let a = std::fs::read_to_string(dir_ref.join("telemetry/ck.jsonl")).unwrap();
    let b = std::fs::read_to_string(dir_int.join("telemetry/ck.jsonl")).unwrap();
    assert_eq!(
        sim_telemetry::strip_volatile(&a),
        sim_telemetry::strip_volatile(&b),
        "resumed stream must be byte-identical after stripping volatile lines"
    );
    let _ = std::fs::remove_dir_all(dir_ref);
    let _ = std::fs::remove_dir_all(dir_int);
}

#[test]
fn resume_without_a_checkpoint_fails_cleanly() {
    let dir = std::env::temp_dir().join("aegis-cli-resume-missing");
    let _ = std::fs::remove_dir_all(&dir);
    let output = experiments()
        .args(["fig5", "--resume", "nope", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "missing snapshot is an I/O failure"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no checkpoint at"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resume_refuses_conflicting_options_and_malformed_snapshots() {
    let dir = std::env::temp_dir().join("aegis-cli-resume-conflict");
    let _ = std::fs::remove_dir_all(&dir);
    let tel = dir.join("telemetry");
    std::fs::create_dir_all(&tel).expect("mkdir");
    // A minimal valid snapshot recorded at seed 9.
    std::fs::write(
        tel.join("conflict.ckpt.json"),
        r#"{
  "version": 1,
  "every": 1,
  "fingerprint": {
    "command": "fig5", "seed": "9", "pages": "4", "trials": "4000",
    "page_bytes": "4096", "criterion": "per-event-split:1",
    "predicate_mode": "kernel"
  },
  "counters": {  },
  "volatile": {  },
  "histograms": [  ],
  "units": [  ]
}"#,
    )
    .expect("write snapshot");

    let conflicting = experiments()
        .args(["fig5", "--resume", "conflict", "--seed", "10", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        conflicting.status.code(),
        Some(2),
        "conflicts are usage errors"
    );
    let stderr = String::from_utf8_lossy(&conflicting.stderr);
    assert!(stderr.contains("seed"), "{stderr}");

    let wrong_command = experiments()
        .args(["fig6", "--resume", "conflict", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(wrong_command.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&wrong_command.stderr).contains("belongs to command 'fig5'"),);

    std::fs::write(tel.join("broken.ckpt.json"), "not json").expect("corrupt snapshot");
    let malformed = experiments()
        .args(["fig5", "--resume", "broken", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        malformed.status.code(),
        Some(2),
        "malformed snapshots are usage errors"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoint_flags_only_apply_to_the_checkpointable_figures() {
    let output = experiments()
        .args(["table1", "--checkpoint-every", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("only apply to fig5, fig6, fig7 and fig8")
    );
    let zero = experiments()
        .args(["fig5", "--checkpoint-every", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(zero.status.code(), Some(2), "a zero cadence is rejected");
}

#[test]
fn sharded_campaign_merges_byte_identically_in_any_order() {
    let dir_ref = std::env::temp_dir().join("aegis-cli-shard-ref");
    let dir_sh = std::env::temp_dir().join("aegis-cli-shard-sh");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_sh);

    let reference = experiments()
        .args([
            "fig5",
            "--pages",
            "4",
            "--seed",
            "9",
            "--telemetry",
            "--quiet",
            "--out",
        ])
        .arg(&dir_ref)
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    for shard_id in ["0", "1"] {
        let shard = experiments()
            .args([
                "shard",
                "fig5",
                "--pages",
                "4",
                "--seed",
                "9",
                "--shards",
                "2",
                "--shard-id",
                shard_id,
                "--quiet",
                "--out",
            ])
            .arg(&dir_sh)
            .output()
            .expect("binary runs");
        assert!(
            shard.status.success(),
            "{}",
            String::from_utf8_lossy(&shard.stderr)
        );
        assert!(dir_sh
            .join(format!("telemetry/fig5-s9-shard{shard_id}of2.shard.json"))
            .exists());
    }

    // Merge twice with the shard ids in both orders: the outputs must be
    // identical to each other and to the unsharded run.
    let mut merged_stdout = Vec::new();
    for order in [
        ["fig5-s9-shard0of2", "fig5-s9-shard1of2"],
        ["fig5-s9-shard1of2", "fig5-s9-shard0of2"],
    ] {
        let merge = experiments()
            .args(["merge", order[0], order[1], "--quiet", "--out"])
            .arg(&dir_sh)
            .output()
            .expect("binary runs");
        assert!(
            merge.status.success(),
            "{}",
            String::from_utf8_lossy(&merge.stderr)
        );
        merged_stdout.push(merge.stdout);
    }
    assert_eq!(
        merged_stdout[0], merged_stdout[1],
        "merge must not depend on input order"
    );
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&merged_stdout[0]),
        "merged report must match the unsharded run"
    );
    for csv in ["fig5.csv", "fig6.csv", "fig7.csv"] {
        assert_eq!(
            std::fs::read(dir_ref.join(csv)).unwrap(),
            std::fs::read(dir_sh.join(csv)).unwrap(),
            "{csv} must match the unsharded run"
        );
    }
    let a = std::fs::read_to_string(dir_ref.join("telemetry/fig5-s9.jsonl")).unwrap();
    let b = std::fs::read_to_string(dir_sh.join("telemetry/fig5-s9.jsonl")).unwrap();
    assert_eq!(
        sim_telemetry::strip_volatile(&a),
        sim_telemetry::strip_volatile(&b),
        "merged stream must be byte-identical after stripping volatile lines"
    );
    let _ = std::fs::remove_dir_all(dir_ref);
    let _ = std::fs::remove_dir_all(dir_sh);
}

#[test]
fn merge_refuses_mismatched_or_missing_shards() {
    let dir = std::env::temp_dir().join("aegis-cli-merge-mismatch");
    let _ = std::fs::remove_dir_all(&dir);

    // Two shards recorded under different seeds cannot merge.
    for (shard_id, seed) in [("0", "9"), ("1", "10")] {
        let run_id = format!("mix-{shard_id}");
        let shard = experiments()
            .args([
                "shard",
                "fig5",
                "--pages",
                "2",
                "--seed",
                seed,
                "--shards",
                "2",
                "--shard-id",
                shard_id,
                "--run-id",
                &run_id,
                "--quiet",
                "--out",
            ])
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert!(
            shard.status.success(),
            "{}",
            String::from_utf8_lossy(&shard.stderr)
        );
    }
    let mismatched = experiments()
        .args(["merge", "mix-0", "mix-1", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        mismatched.status.code(),
        Some(2),
        "config mismatch is a usage error"
    );
    assert!(
        String::from_utf8_lossy(&mismatched.stderr).contains("seed"),
        "{}",
        String::from_utf8_lossy(&mismatched.stderr)
    );

    let missing = experiments()
        .args(["merge", "mix-0", "no-such-shard", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        missing.status.code(),
        Some(1),
        "unreadable shards are I/O failures"
    );

    let incomplete = experiments()
        .args(["merge", "mix-0", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        incomplete.status.code(),
        Some(2),
        "a shard set that does not cover 0..K must be refused"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shard_rejects_bad_usage() {
    let no_figure = experiments()
        .args(["shard", "--shards", "2", "--shard-id", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(no_figure.status.code(), Some(2));

    let bad_figure = experiments()
        .args(["shard", "fig9", "--shards", "2", "--shard-id", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_figure.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_figure.stderr)
        .contains("cannot be sharded (only fig5, fig6, fig7 and fig8 can)"));

    let out_of_range = experiments()
        .args(["shard", "fig5", "--shards", "2", "--shard-id", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out_of_range.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out_of_range.stderr).contains("out of range"));

    let stray_flags = experiments()
        .args(["fig5", "--shards", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(stray_flags.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&stray_flags.stderr).contains("only apply to the shard command")
    );
}

#[test]
fn fig8_run_is_deterministic_and_reports_the_sweep() {
    let dir_a = std::env::temp_dir().join("aegis-cli-fig8-a");
    let dir_b = std::env::temp_dir().join("aegis-cli-fig8-b");
    let mut stdouts = Vec::new();
    for dir in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
        let output = experiments()
            .args(["fig8", "--pages", "2", "--seed", "9", "--quiet", "--out"])
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdouts.push(output.stdout);
    }
    assert_eq!(stdouts[0], stdouts[1], "same seed must replay the report");
    let text = String::from_utf8_lossy(&stdouts[0]);
    assert!(text.contains("Mask6"), "{text}");
    assert!(text.contains("PLC4+2"), "{text}");
    assert!(text.contains("ECP6"), "{text}");
    let a = std::fs::read_to_string(dir_a.join("fig8.csv")).unwrap();
    let b = std::fs::read_to_string(dir_b.join("fig8.csv")).unwrap();
    assert_eq!(a, b, "same seed must give identical CSV");
    // The sweep axis: every partially-stuck fraction appears in the CSV.
    for percent in ["0", "25", "50"] {
        assert!(
            a.lines()
                .skip(1)
                .any(|l| l.starts_with(&format!("{percent},"))),
            "fraction {percent} missing from fig8.csv"
        );
    }
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[cfg(unix)]
#[test]
fn fig8_sigint_checkpoints_and_resume_replays_the_uninterrupted_run() {
    let dir_ref = std::env::temp_dir().join("aegis-cli-fig8-ckpt-ref");
    let dir_int = std::env::temp_dir().join("aegis-cli-fig8-ckpt-int");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);

    let reference = experiments()
        .args([
            "fig8", "--pages", "4", "--seed", "9", "--run-id", "ck8", "--quiet", "--out",
        ])
        .arg(&dir_ref)
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Interrupted leg: SIGINT after the first snapshot; exit code 130.
    let mut child = experiments()
        .args([
            "fig8",
            "--pages",
            "4",
            "--seed",
            "9",
            "--run-id",
            "ck8",
            "--checkpoint-every",
            "1",
            "--quiet",
            "--out",
        ])
        .arg(&dir_int)
        .spawn()
        .expect("binary starts");
    let ckpt_path = dir_int.join("telemetry/ck8.ckpt.json");
    for _ in 0..600 {
        if ckpt_path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(ckpt_path.exists(), "first snapshot never appeared");
    let kill = std::process::Command::new("kill")
        .arg("-INT")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("child exits");
    assert_eq!(
        status.code(),
        Some(130),
        "an interrupted checkpointed fig8 run must exit 130"
    );
    assert!(ckpt_path.exists(), "interruption must leave the snapshot");

    let resumed = experiments()
        .args(["fig8", "--resume", "ck8", "--quiet", "--out"])
        .arg(&dir_int)
        .output()
        .expect("binary runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(!ckpt_path.exists(), "completion must remove the snapshot");
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed report must match"
    );
    assert_eq!(
        std::fs::read(dir_ref.join("fig8.csv")).unwrap(),
        std::fs::read(dir_int.join("fig8.csv")).unwrap(),
        "fig8.csv must match the uninterrupted run"
    );
    let a = std::fs::read_to_string(dir_ref.join("telemetry/ck8.jsonl")).unwrap();
    let b = std::fs::read_to_string(dir_int.join("telemetry/ck8.jsonl")).unwrap();
    assert_eq!(
        sim_telemetry::strip_volatile(&a),
        sim_telemetry::strip_volatile(&b),
        "resumed stream must be byte-identical after stripping volatile lines"
    );
    let _ = std::fs::remove_dir_all(dir_ref);
    let _ = std::fs::remove_dir_all(dir_int);
}

#[test]
fn fig8_sharded_campaign_merges_byte_identically() {
    let dir_ref = std::env::temp_dir().join("aegis-cli-fig8-shard-ref");
    let dir_sh = std::env::temp_dir().join("aegis-cli-fig8-shard-sh");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_sh);

    let reference = experiments()
        .args(["fig8", "--pages", "4", "--seed", "9", "--quiet", "--out"])
        .arg(&dir_ref)
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    for shard_id in ["0", "1"] {
        let shard = experiments()
            .args([
                "shard",
                "fig8",
                "--pages",
                "4",
                "--seed",
                "9",
                "--shards",
                "2",
                "--shard-id",
                shard_id,
                "--quiet",
                "--out",
            ])
            .arg(&dir_sh)
            .output()
            .expect("binary runs");
        assert!(
            shard.status.success(),
            "{}",
            String::from_utf8_lossy(&shard.stderr)
        );
        assert!(dir_sh
            .join(format!("telemetry/fig8-s9-shard{shard_id}of2.shard.json"))
            .exists());
    }

    let merge = experiments()
        .args([
            "merge",
            "fig8-s9-shard0of2",
            "fig8-s9-shard1of2",
            "--quiet",
            "--out",
        ])
        .arg(&dir_sh)
        .output()
        .expect("binary runs");
    assert!(
        merge.status.success(),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&merge.stdout),
        "merged fig8 report must match the unsharded run"
    );
    assert_eq!(
        std::fs::read(dir_ref.join("fig8.csv")).unwrap(),
        std::fs::read(dir_sh.join("fig8.csv")).unwrap(),
        "fig8.csv must match the unsharded run"
    );
    let _ = std::fs::remove_dir_all(dir_ref);
    let _ = std::fs::remove_dir_all(dir_sh);
}

#[test]
fn series_status_monitor_and_diff_cover_the_observability_loop() {
    let dir = std::env::temp_dir().join("aegis-cli-observability");
    let _ = std::fs::remove_dir_all(&dir);
    for (run_id, seed) in [("obsA", "9"), ("obsB", "9"), ("obsC", "10")] {
        let output = experiments()
            .args([
                "fig5", "--pages", "2", "--seed", seed, "--series", "--status", "--run-id", run_id,
                "--quiet", "--out",
            ])
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let tel = dir.join("telemetry");
        assert!(tel.join(format!("{run_id}.series.jsonl")).exists());
        assert!(tel.join(format!("{run_id}.status.json")).exists());
    }

    // `monitor --once --json` over the finished campaign: all_done.
    let monitored = experiments()
        .args(["monitor", "--once", "--json", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        monitored.status.success(),
        "{}",
        String::from_utf8_lossy(&monitored.stderr)
    );
    let stdout = String::from_utf8_lossy(&monitored.stdout);
    let value = sim_telemetry::Json::parse(&stdout).expect("monitor json parses");
    assert_eq!(
        value.get("all_done").and_then(sim_telemetry::Json::as_bool),
        Some(true)
    );
    let runs = value
        .get("runs")
        .and_then(sim_telemetry::Json::as_arr)
        .unwrap();
    assert_eq!(runs.len(), 3, "{stdout}");

    // The plain-text snapshot renders a row per run plus the rollup.
    let table = experiments()
        .args(["monitor", "--once", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(table.status.success());
    let text = String::from_utf8_lossy(&table.stdout);
    assert!(text.contains("obsA"), "{text}");
    assert!(text.contains("3 run(s):"), "{text}");
    assert!(text.contains("3 done"), "{text}");

    // Same seed: clean, exit 0.
    let clean = experiments()
        .args(["telemetry-diff", "obsA", "obsB", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).contains("Verdict: clean"));

    // Different seed: drift, exit 1, and the report names what moved.
    let drifted = experiments()
        .args(["telemetry-diff", "obsA", "obsC", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(drifted.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&drifted.stdout).contains("Verdict: DRIFT"));
    assert!(String::from_utf8_lossy(&drifted.stderr).contains("drifted"));

    // A corrupted stream is a usage error naming the offending line.
    let stream_path = dir.join("telemetry/obsB.jsonl");
    let text = std::fs::read_to_string(&stream_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines[1] = "{\"seq\": 1, \"event\": \"coun".to_owned();
    std::fs::write(&stream_path, lines.join("\n") + "\n").unwrap();
    let malformed = experiments()
        .args(["telemetry-diff", "obsA", "obsB", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(malformed.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&malformed.stderr).contains("malformed line 2"),
        "{}",
        String::from_utf8_lossy(&malformed.stderr)
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn monitor_and_diff_reject_bad_usage() {
    let missing_dir = experiments()
        .args(["monitor", "--once", "/nonexistent-aegis-monitor-dir"])
        .output()
        .expect("binary runs");
    assert_eq!(
        missing_dir.status.code(),
        Some(1),
        "an unreadable directory is an I/O failure"
    );
    assert!(String::from_utf8_lossy(&missing_dir.stderr).contains("monitor:"));

    let one_arg = experiments()
        .args(["telemetry-diff", "solo"])
        .output()
        .expect("binary runs");
    assert_eq!(one_arg.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&one_arg.stderr).contains("exactly two RUN_ID"),
        "{}",
        String::from_utf8_lossy(&one_arg.stderr)
    );

    let bad_threshold = experiments()
        .args(["telemetry-diff", "a", "b", "--threshold", "-0.5"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_threshold.status.code(), Some(2));

    let missing_runs = experiments()
        .args(["telemetry-diff", "ghostA", "ghostB", "--out"])
        .arg(std::env::temp_dir().join("aegis-cli-diff-ghost"))
        .output()
        .expect("binary runs");
    assert_eq!(
        missing_runs.status.code(),
        Some(1),
        "missing streams are I/O failures"
    );
}

/// Satellite 2 (PR 10): a heartbeat with zero progress has no rate to
/// extrapolate from — the monitor must render `--` placeholders, never
/// `inf`/`NaN`, in both the table and the `--json` output.
#[test]
fn monitor_renders_dashes_for_zero_progress_heartbeats() {
    let dir = std::env::temp_dir().join("aegis-cli-monitor-zero");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("telemetry")).unwrap();
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis();
    // A crafted status file: running, pages_done=0, no ETA, no busy
    // fraction, no backend — everything the ETA math could divide by.
    std::fs::write(
        dir.join("telemetry/crafted.status.json"),
        format!(
            "{{\n  \"run_id\": \"crafted\",\n  \"state\": \"running\",\n  \
             \"phase\": \"mc.Aegis 9x61\",\n  \"pages_done\": 0,\n  \
             \"pages_total\": 100,\n  \"elapsed_ms\": 5000,\n  \"eta_ms\": null,\n  \
             \"busy\": null,\n  \"shard_id\": null,\n  \"shards\": null,\n  \
             \"simd_backend\": null,\n  \"eval_lanes\": null,\n  \
             \"target_rse\": null,\n  \"estimates\": [],\n  \"heartbeats\": 1,\n  \
             \"updated_unix_ms\": {now_ms}\n}}\n"
        ),
    )
    .unwrap();

    let table = experiments()
        .args(["monitor", "--once", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(table.status.success());
    let text = String::from_utf8_lossy(&table.stdout);
    assert!(text.contains("crafted"), "{text}");
    assert!(
        text.contains("--"),
        "zero-rate fields must render --: {text}"
    );
    assert!(!text.contains("inf"), "{text}");
    assert!(!text.contains("NaN"), "{text}");

    let json = experiments()
        .args(["monitor", "--once", "--json", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(
        !stdout.contains("inf") && !stdout.contains("NaN"),
        "{stdout}"
    );
    let value = sim_telemetry::Json::parse(&stdout).expect("monitor json parses");
    let run = value
        .get("runs")
        .and_then(sim_telemetry::Json::as_arr)
        .unwrap()[0]
        .clone();
    assert_eq!(
        run.get("eta_ms"),
        Some(&sim_telemetry::Json::Null),
        "{stdout}"
    );
    assert_eq!(
        run.get("busy"),
        Some(&sim_telemetry::Json::Null),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// PR 10: the default diff verdict is CI-aware — structural differences
/// between two seeds are tolerated while the final estimates' confidence
/// intervals overlap, and the legacy `--threshold` heuristic still flags
/// the same pair. Exit codes 0/1/2 are preserved in both modes.
#[test]
fn telemetry_diff_interval_mode_tolerates_what_threshold_mode_flags() {
    let dir = std::env::temp_dir().join("aegis-cli-diff-interval");
    let _ = std::fs::remove_dir_all(&dir);
    for (run_id, seed) in [("ia", "21"), ("ib", "22")] {
        let output = experiments()
            .args([
                "fig5", "--pages", "4", "--seed", seed, "--series", "--run-id", run_id, "--quiet",
                "--out",
            ])
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }

    // Interval mode (default): seeds 21 and 22 shift counters but every
    // final estimate's 95% CI overlaps at this sample size — clean.
    let interval = experiments()
        .args(["telemetry-diff", "ia", "ib", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        interval.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&interval.stdout)
    );
    let stdout = String::from_utf8_lossy(&interval.stdout);
    assert!(
        stdout.contains("overlapping confidence intervals"),
        "{stdout}"
    );

    // The legacy exact heuristic still sees the structural drift.
    let threshold = experiments()
        .args(["telemetry-diff", "ia", "ib", "--threshold", "0.0", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        threshold.status.code(),
        Some(1),
        "--threshold 0.0 must flag cross-seed structural drift"
    );
    assert!(String::from_utf8_lossy(&threshold.stdout).contains("Verdict: DRIFT"));
    let _ = std::fs::remove_dir_all(dir);
}

/// PR 10 early stopping, end to end: a loose `--target-rse` stops every
/// unit well short of its page budget, the stopped stream is
/// byte-identical across thread counts, and `shard` refuses the flag.
#[test]
fn target_rse_stops_early_and_replays_across_thread_counts() {
    let dir_1 = std::env::temp_dir().join("aegis-cli-target-rse-1");
    let dir_2 = std::env::temp_dir().join("aegis-cli-target-rse-2");
    for (dir, threads) in [(&dir_1, "1"), (&dir_2, "2")] {
        let _ = std::fs::remove_dir_all(dir);
        let output = experiments()
            .args([
                "fig5",
                "--pages",
                "8",
                "--seed",
                "9",
                "--series",
                "--status",
                "--target-rse",
                "0.5",
                "--threads",
                threads,
                "--run-id",
                "es",
                "--quiet",
                "--out",
            ])
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }

    // The status heartbeat shows how far the stopped run actually got.
    let status = std::fs::read_to_string(dir_1.join("telemetry/es.status.json")).unwrap();
    let record = sim_telemetry::StatusRecord::parse(&status).expect("status parses");
    assert!(
        record.pages_done < record.pages_total,
        "a loose target must stop early ({} of {} pages)",
        record.pages_done,
        record.pages_total
    );
    assert_eq!(record.target_rse, Some(0.5), "{status}");

    // Same stop decisions, same bytes, at any thread count.
    for file in ["es.jsonl", "es.series.jsonl"] {
        let one = std::fs::read_to_string(dir_1.join("telemetry").join(file)).unwrap();
        let two = std::fs::read_to_string(dir_2.join("telemetry").join(file)).unwrap();
        assert_eq!(
            sim_telemetry::strip_volatile(&one),
            sim_telemetry::strip_volatile(&two),
            "{file} must be byte-identical across thread counts under --target-rse"
        );
    }

    // Shards must cover their full stripe: early stopping is refused.
    let shard = experiments()
        .args([
            "shard",
            "fig5",
            "--shards",
            "2",
            "--shard-id",
            "0",
            "--target-rse",
            "0.5",
            "--quiet",
            "--out",
        ])
        .arg(&dir_1)
        .output()
        .expect("binary runs");
    assert_eq!(shard.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&shard.stderr).contains("does not apply to shard runs"),
        "{}",
        String::from_utf8_lossy(&shard.stderr)
    );
    let _ = std::fs::remove_dir_all(dir_1);
    let _ = std::fs::remove_dir_all(dir_2);
}
