//! Smoke tests for the `suit-cli` binary: strict argument handling
//! (unknown subcommands and flags must print usage and exit nonzero, not
//! panic or get silently ignored), the `profile` → `validate-trace`
//! round trip, and the `trace record` → `info` → `seek` pipeline.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suit-cli"))
        .args(args)
        .output()
        .expect("spawn suit-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand 'frobnicate'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = cli(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: suit-cli"));
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    let out = cli(&["simulate", "--workload", "557.xz", "--bogus"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--bogus'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");
}

#[test]
fn unexpected_positional_fails() {
    let out = cli(&["simulate", "stray", "--workload", "557.xz"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unexpected argument 'stray'"));
}

#[test]
fn list_succeeds() {
    let out = cli(&["list"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("557.xz"));
}

#[test]
fn bad_flag_values_fail_cleanly() {
    for args in [
        ["simulate", "--workload", "no-such-workload"].as_slice(),
        ["simulate", "--workload", "557.xz", "--cpu", "z"].as_slice(),
        ["simulate", "--workload", "557.xz", "--insts", "many"].as_slice(),
        ["validate-trace", "/no/such/file.json"].as_slice(),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(stderr(&out).contains("error:"), "{args:?}");
    }
}

#[test]
fn out_of_range_cores_are_usage_errors_not_aborts() {
    // A billion cores would reach the engine's per-core allocation and
    // abort (SIGABRT, status 134) under a memory limit.
    for base in [
        ["simulate", "--workload", "557.xz", "--insts", "1000"].as_slice(),
        ["profile", "557.xz", "--insts", "1000"].as_slice(),
    ] {
        for bad in ["1000000000", "257", "0", "many"] {
            let args = [base, &["--cores", bad]].concat();
            let out = cli(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = stderr(&out);
            assert!(
                err.contains("--cores must be an integer in 1..=256"),
                "{err}"
            );
            assert!(err.contains("usage: suit-cli"), "{err}");
        }
    }
}

#[test]
fn bad_threads_values_print_usage_and_fail() {
    for bad in ["0", "-1", "many", ""] {
        let out = cli(&["simulate", "--workload", "557.xz", "--threads", bad]);
        assert!(!out.status.success(), "--threads {bad:?} should fail");
        let err = stderr(&out);
        assert!(
            err.contains("--threads must be a positive integer"),
            "--threads {bad:?}: {err}"
        );
        assert!(err.contains("usage: suit-cli"), "--threads {bad:?}: {err}");
    }
}

#[test]
fn simulate_fans_out_a_workload_list_deterministically() {
    let args = |threads: &'static str| {
        [
            "simulate",
            "--workload",
            "557.xz,Nginx,502.gcc",
            "--insts",
            "50000000",
            "--threads",
            threads,
        ]
    };
    let parallel = cli(&args("2"));
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    let log = stdout(&parallel);
    // Output is in list order, one block per workload, at any width.
    let xz = log.find("557.xz on").expect("xz block");
    let nginx = log.find("Nginx on").expect("nginx block");
    let gcc = log.find("502.gcc on").expect("gcc block");
    assert!(xz < nginx && nginx < gcc, "{log}");
    let sequential = cli(&args("1"));
    assert_eq!(stdout(&sequential), log, "output diverged across widths");
}

#[test]
fn mix_all_runs_every_mix() {
    let out = cli(&["mix", "all", "--insts", "50000000", "--threads", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    for name in ["office", "webserver", "hpc", "media"] {
        assert!(
            log.contains(&format!("mix '{name}'")),
            "missing {name}: {log}"
        );
    }
}

#[test]
fn scenario_rejects_bad_kinds_and_flags() {
    let out = cli(&["scenario"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("expected sram or scrooge"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["scenario", "warp"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scenario 'warp'"));

    let out = cli(&["scenario", "sram", "--bogus"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--bogus'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["scenario", "sram", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--threads must be a positive integer"));
}

#[test]
fn scenario_runs_both_kinds_deterministically() {
    // --json output must be byte-identical across worker counts; the
    // human rendering must carry the audit verdicts.
    let json = |threads: &'static str, kind: &'static str| {
        let out = cli(&["scenario", kind, "--json", "--threads", threads]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    for kind in ["sram", "scrooge"] {
        let one = json("1", kind);
        assert_eq!(one, json("2", kind), "{kind} diverged across threads");
        assert!(one.contains(&format!("\"scenario\":\"{kind}\"")), "{one}");
    }
    let out = cli(&["scenario", "sram"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    assert!(log.contains("audit matrix"), "{log}");
    assert!(log.contains("INSECURE"), "{log}");
    assert!(log.contains("secure"), "{log}");
}

#[test]
fn scenario_config_file_overrides_and_bad_configs_fail() {
    let path = std::env::temp_dir().join(format!("suit-cli-scenario-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    std::fs::write(
        path,
        r#"{"scenario": "sram", "cache_banks": 2, "rob_banks": 1}"#,
    )
    .expect("write config");
    let out = cli(&["scenario", "sram", "--config", path, "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    // 3 banks -> 3 bank rows in the JSON report.
    assert_eq!(stdout(&out).matches("\"margin_mv\"").count(), 3);

    // A config naming the other scenario must be refused, as must junk.
    let out = cli(&["scenario", "scrooge", "--config", path]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
    std::fs::write(path, "not json").expect("write config");
    let out = cli(&["scenario", "sram", "--config", path]);
    std::fs::remove_file(path).ok();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
}

#[test]
fn serve_flag_validation_prints_usage_and_fails() {
    // Bad values must fail *before* any socket is bound: validation is
    // fast, loud, and routed through the same usage path as --threads.
    for (args, needle) in [
        (
            ["serve", "--addr", "not-an-address"].as_slice(),
            "--addr must be HOST:PORT",
        ),
        (
            ["serve", "--queue-depth", "0"].as_slice(),
            "--queue-depth must be a positive integer",
        ),
        (
            ["serve", "--queue-depth", "lots"].as_slice(),
            "--queue-depth must be a positive integer",
        ),
        (
            ["serve", "--threads", "0"].as_slice(),
            "--threads must be a positive integer",
        ),
        (
            ["serve", "--port", "80"].as_slice(),
            "unknown flag '--port'",
        ),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: suit-cli"), "{args:?}: {err}");
    }
}

#[test]
fn client_flag_validation_fails_cleanly() {
    for args in [
        ["client"].as_slice(),
        ["client", "v1/healthz"].as_slice(),
        ["client", "/v1/healthz", "--addr", "nope"].as_slice(),
        ["client", "/v1/healthz", "--method", "PUT"].as_slice(),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(stderr(&out).contains("error:"), "{args:?}");
    }
}

#[test]
fn profile_validates_threads_like_every_other_subcommand() {
    let out = cli(&["profile", "Nginx", "--insts", "50000000", "--threads", "0"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--threads must be a positive integer"),
        "{err}"
    );
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["profile", "Nginx", "--insts", "50000000", "--threads", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn validate_trace_reads_stdin_with_dash() {
    use std::io::Write;
    let path = std::env::temp_dir().join(format!("suit-cli-stdin-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "profile",
        "Nginx",
        "--insts",
        "50000000",
        "--trace-out",
        path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let trace = std::fs::read(path).expect("trace file");
    std::fs::remove_file(path).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_suit-cli"))
        .args(["validate-trace", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn suit-cli");
    child.stdin.take().expect("stdin").write_all(&trace).ok();
    let out = child.wait_with_output().expect("wait suit-cli");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("valid Perfetto trace"),
        "{}",
        stdout(&out)
    );

    // Without the trace on stdin nothing changes for files: a missing
    // path still fails strictly.
    let out = cli(&["validate-trace"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing <file|->"));
}

#[test]
fn profile_trace_round_trips_through_validate_trace() {
    let path = std::env::temp_dir().join(format!("suit-cli-smoke-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");

    let out = cli(&[
        "profile",
        "Nginx",
        "--insts",
        "50000000",
        "--trace-out",
        path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    assert!(log.contains("telemetry summary"), "{log}");
    assert!(log.contains("do_traps"), "{log}");

    let out = cli(&["validate-trace", path]);
    let report = stdout(&out);
    std::fs::remove_file(path).ok();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(report.contains("valid Perfetto trace"), "{report}");
    for required in ["curve_switch", "do_trap", "stall"] {
        assert!(report.contains(required), "missing {required}: {report}");
    }
}

/// A per-test file path in the temp directory.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("suit-cli-{}-{name}", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_owned()
}

#[test]
fn trace_record_info_and_seek_agree_and_recording_is_deterministic() {
    let (a, b) = (temp_path("a.suittrc"), temp_path("b.suittrc"));
    let record = |out: &str| {
        cli(&[
            "trace",
            "record",
            "--workload",
            "502.gcc",
            "--out",
            out,
            "--bursts",
            "10000",
            "--seed",
            "7",
            "--chunk-bursts",
            "128",
        ])
    };
    let out = record(&a);
    assert!(out.status.success(), "{}", stderr(&out));
    // 502.gcc's generator ends at the profile's virtual length, before
    // 10000 bursts: the report must count what was written.
    let log = stdout(&out);
    let written: u64 = log
        .strip_prefix("packed ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no burst count in: {log}"));
    assert!(written > 0 && written < 10_000, "{log}");

    let out = cli(&["trace", "info", &a]);
    assert!(out.status.success(), "{}", stderr(&out));
    let info = stdout(&out);
    for line in [
        "SUITTRC2 container, workload 502.gcc".to_owned(),
        format!("  bursts: {written}\n"),
        "  faultable instructions: ".into(),
        "  instructions covered: ".into(),
        "  mean gap: ".into(),
        "  largest burst gap: ".into(),
    ] {
        assert!(info.contains(&line), "missing {line:?} in:\n{info}");
    }

    let out = cli(&["trace", "seek", &a, "--vtime", "1000000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("burst starting at"),
        "{}",
        stdout(&out)
    );

    let out = record(&b);
    assert!(out.status.success(), "{}", stderr(&out));
    let (bytes_a, bytes_b) = (std::fs::read(&a), std::fs::read(&b));
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert!(
        bytes_a.expect("first recording") == bytes_b.expect("second recording"),
        "the same seed recorded different bytes"
    );
}

#[test]
fn removed_trace_forms_are_usage_errors() {
    for args in [
        ["trace", "pack", "in.suittrc", "out.suittrc"].as_slice(),
        ["trace", "unpack", "in.suittrc", "out.suittrc"].as_slice(),
        [
            "trace",
            "record",
            "--workload",
            "502.gcc",
            "--out",
            "never-written.suittrc",
            "--format",
            "v1",
        ]
        .as_slice(),
        ["trace", "bogus"].as_slice(),
        ["trace"].as_slice(),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: suit-cli"), "{args:?}");
    }
}

/// A container whose one chunk holds the bursts (gap, events, within)
/// `(10, 1, 0), (u64::MAX - 5, 3, 10), (10, 1, 0)`. The middle burst's
/// span overflows u64, so `pack` refuses it; it is assembled here field
/// by field from the `SUITTRC2` layout.
fn overflowing_container() -> Vec<u8> {
    use suit::store::{crc::crc32, lz};
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let aesenc = suit::isa::Opcode::Aesenc.index() as u8;
    let mut raw = Vec::new();
    for (gap, events, within) in [(10, 1, 0), (u64::MAX - 5, 3, 10), (10, 1, 0)] {
        varint(&mut raw, gap);
        varint(&mut raw, events);
        varint(&mut raw, within);
        raw.push(aesenc);
    }
    let mut out = b"SUITTRC2".to_vec();
    varint(&mut out, 4);
    out.extend_from_slice(b"hand");
    out.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    varint(&mut out, 1_000); // virtual length
    varint(&mut out, 64); // bursts per full chunk
    let chunk_offset = out.len() as u64;
    let packed = lz::compress(&raw);
    out.extend_from_slice(&packed);
    let index_offset = out.len() as u64;
    let mut index = Vec::new();
    index.extend_from_slice(&chunk_offset.to_le_bytes());
    index.extend_from_slice(&(packed.len() as u32).to_le_bytes());
    index.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    index.extend_from_slice(&3u32.to_le_bytes());
    index.extend_from_slice(&crc32(&raw).to_le_bytes());
    index.extend_from_slice(&0u64.to_le_bytes()); // first_vtime
    out.extend_from_slice(&index);
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(b"2CRTTIUS");
    out
}

#[test]
fn overflowing_container_is_a_corrupt_error_not_a_panic() {
    let bytes = overflowing_container();
    // Structurally sound: the index opens, so the refusal below comes
    // from the burst decode itself.
    assert!(suit::store::open_bytes(&bytes).is_ok());
    let path = temp_path("overflow.suittrc");
    std::fs::write(&path, &bytes).expect("write container");
    let runs = [
        cli(&["trace", "info", &path]),
        cli(&["trace", "seek", &path, "--vtime", "100"]),
    ];
    std::fs::remove_file(&path).ok();
    for out in runs {
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains("corrupt container"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}
