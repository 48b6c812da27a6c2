//! End-to-end tests of the `motsim` binary.

use std::process::Command;

fn motsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_motsim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_shows_suite() {
    let out = motsim(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("g208"));
    assert!(text.contains("s208.1"));
}

#[test]
fn stats_on_suite_circuit() {
    let out = motsim(&["stats", "g27"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flip-flops  3"));
    assert!(text.contains("faults"));
}

#[test]
fn sim3_reports_coverage() {
    let out = motsim(&["sim3", "s27", "--len", "50"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage"));
}

#[test]
fn strategies_ranks_engines() {
    let out = motsim(&["strategies", "g27", "--len", "30"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SOT"));
    assert!(text.contains("rMOT"));
    assert!(text.contains("MOT"));
}

#[test]
fn tgen_emits_parsable_vectors() {
    let out = motsim(&["tgen", "s27", "--max-len", "20"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        assert_eq!(line.len(), 4, "s27 has 4 inputs: `{line}`");
        assert!(line.chars().all(|c| c == '0' || c == '1'));
    }
}

#[test]
fn vcd_emits_header() {
    let out = motsim(&["vcd", "s27", "--len", "5"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("$date"));
    assert!(text.contains("$enddefinitions $end"));
}

#[test]
fn bench_file_path_accepted() {
    let dir = std::env::temp_dir().join("motsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.bench");
    std::fs::write(&path, "INPUT(A)\nOUTPUT(Y)\nQ = DFF(Y)\nY = NAND(A, Q)\n").unwrap();
    let out = motsim(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("circuit tiny"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = motsim(&["frobnicate", "s27"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"));
}

#[test]
fn unknown_circuit_fails() {
    let out = motsim(&["stats", "does-not-exist"]);
    assert!(!out.status.success());
}

/// Writes `content` to a fresh temp file and runs `trace-check` on it,
/// returning (success, stderr).
fn trace_check(name: &str, content: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join("motsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    let out = motsim(&["trace-check", path.to_str().unwrap()]);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn trace_check_rejects_truncated_line() {
    // Line 1 is valid; line 2 is cut mid-object.
    let (ok, err) = trace_check(
        "truncated.jsonl",
        "{\"ev\":\"run_start\",\"engine\":\"sim3\",\"faults\":1,\"frames\":2}\n\
         {\"ev\":\"tv_frame\",\"fra\n",
    );
    assert!(!ok);
    assert!(err.contains(":2:"), "must name line 2: {err}");
}

#[test]
fn trace_check_rejects_frame_regression() {
    // Frames must be monotone within a unit bracket: 5 then 2 regresses.
    let (ok, err) = trace_check(
        "regress.jsonl",
        "{\"ev\":\"unit_start\",\"unit\":0,\"faults\":3}\n\
         {\"ev\":\"tv_frame\",\"frame\":5,\"detected\":0}\n\
         {\"ev\":\"tv_frame\",\"frame\":2,\"detected\":0}\n",
    );
    assert!(!ok);
    assert!(err.contains(":3:"), "must name line 3: {err}");
    assert!(err.contains("regresses"), "must explain the failure: {err}");
}

#[test]
fn trace_check_rejects_unknown_event_type() {
    let (ok, err) = trace_check("unknown.jsonl", "{\"ev\":\"hyperdrive\",\"frame\":1}\n");
    assert!(!ok);
    assert!(err.contains(":1:"), "must name line 1: {err}");
    assert!(err.contains("unknown tag"), "must name the bad tag: {err}");
}

#[test]
fn fuzz_passes_and_is_deterministic() {
    let run = || motsim(&["fuzz", "--seed", "7", "--cases", "2", "--max-dffs", "4"]);
    let a = run();
    assert!(a.status.success(), "fuzz run failed");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(
        text.contains("0 counterexample(s)"),
        "fuzz found counterexamples:\n{text}"
    );
    let b = run();
    assert_eq!(a.stdout, b.stdout, "fuzz output must be deterministic");
}

#[test]
fn fuzz_rejects_bad_options() {
    assert_rejected(
        &["fuzz", "--max-dffs", "40"],
        "--max-dffs must be in 1..=16",
    );
    assert_rejected(&["fuzz", "--cases", "0"], "--cases must be at least 1");
}

/// Asserts that `args` exits with status 2 before printing anything, with
/// `msg` on stderr.
fn assert_rejected(args: &[&str], msg: &str) {
    let out = motsim(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} must fail before printing");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(msg), "{args:?}: {err}");
}

#[test]
fn zero_node_limit_is_rejected_before_any_run() {
    for args in [
        &["strategies", "g27", "--limit", "0"][..],
        &["strategies", "g208", "--len", "20", "--limit", "0"],
        &["testeval", "s27", "--limit", "0"],
        &["tables", "table4", "--limit", "0"],
    ] {
        assert_rejected(args, "--limit must be at least 1");
    }
}

#[test]
fn zero_jobs_is_rejected_before_any_run() {
    for args in [
        &["sim3", "g27", "--jobs", "0"][..],
        &["strategies", "g27", "--jobs", "0"],
        &["xred", "g27", "--jobs", "0"],
        &["tables", "table1", "--quick", "--jobs", "0"],
    ] {
        assert_rejected(args, "--jobs must be at least 1");
    }
}

#[test]
fn arguments_a_command_does_not_read_are_rejected() {
    let trace = std::env::temp_dir().join("motsim_cli_test_tables_trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let trace_arg = trace.to_str().unwrap();
    for (args, msg) in [
        (
            &["tables", "table2", "--trace", trace_arg][..],
            "`tables` does not take `--trace`",
        ),
        (
            &["stats", "g27", "--len", "5"],
            "`stats` does not take `--len`",
        ),
        (
            &["xred", "g27", "--bdd-stats"],
            "`xred` does not take `--bdd-stats`",
        ),
        (&["list", "--seed", "3"], "`list` does not take `--seed`"),
        (&["fuzz", "--len", "3"], "`fuzz` does not take `--len`"),
        (
            &["tgen", "s27", "--compact"],
            "`tgen` does not take `--compact`",
        ),
        (
            &["trace-check", "a.jsonl", "extra"],
            "`trace-check` does not take `extra`",
        ),
        (&["list", "g27"], "`list` does not take `g27`"),
        (&["sim3", "g27", "g208"], "`sim3` does not take `g208`"),
        (&["diagnose", "s27"], "unknown command `diagnose`"),
        (&["scoap", "s27"], "unknown command `scoap`"),
        (&["synch", "g208"], "unknown command `synch`"),
        (
            &["sim3", "g27", "--trace-summary"],
            "`sim3` does not take `--trace-summary`",
        ),
    ] {
        assert_rejected(args, msg);
    }
    assert!(!trace.exists(), "a rejected --trace must create no file");
}

#[test]
fn seed_takes_hex_on_every_command() {
    let report = |seed: &str| {
        let out = motsim(&["sim3", "g27", "--len", "20", "--seed", seed]);
        assert!(out.status.success(), "--seed {seed}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        // Drop the elapsed time, which differs from run to run.
        text.lines()
            .map(|l| l.split(" in ").next().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(report("0xDAC95"), report("896149"));
    assert_rejected(&["sim3", "g27", "--seed", "0xZZ"], "--seed needs a number");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_motsim"))
        .args(["faults", "g5378"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(!line.is_empty(), "faults prints a first line");
    // The reader is dropped here: the binary's next writes hit a closed pipe.
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn quick_shortens_only_an_absent_len() {
    let vectors = |args: &[&str]| {
        let out = motsim(args);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        text.split(' ').next().unwrap().to_owned()
    };
    assert_eq!(vectors(&["sim3", "g27", "--quick"]), "50");
    assert_eq!(vectors(&["sim3", "g27", "--quick", "--len", "200"]), "200");
}

#[test]
fn tables_figs_shows_sot_failing_and_mot_detecting() {
    let out = motsim(&["tables", "figs"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let figs: Vec<&str> = text.split("\nFig. ").skip(1).collect();
    assert_eq!(figs.len(), 3, "three figures:\n{text}");
    let verdict = |fig: &str, strategy: &str| {
        let tag = format!("{strategy}: ");
        let line = fig
            .lines()
            .find(|l| l.trim_start().starts_with(&tag))
            .unwrap_or_else(|| panic!("no {strategy} line in:\n{fig}"));
        line.contains(": DETECTED")
    };
    for fig in [figs[0], figs[2]] {
        assert!(!verdict(fig, "SOT"), "SOT must miss:\n{fig}");
        assert!(verdict(fig, "MOT"), "MOT must detect:\n{fig}");
    }
    assert!(!verdict(figs[1], "SOT"), "Fig. 2 SOT must miss");
    assert!(verdict(figs[1], "rMOT"), "Fig. 2 rMOT must detect");
}

#[test]
fn tables_table4_prints_its_five_rows() {
    let out = motsim(&["tables", "table4", "--len", "20"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table IV: symbolic test evaluation (30,000-node limit)"));
    for name in ["g208", "g420", "g510", "g953", "g838"] {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row in:\n{text}"));
        assert_eq!(row.split_whitespace().nth(2), Some("20"), "|T| of {row}");
    }
}

#[test]
fn tables_needs_a_known_table() {
    for args in [&["tables", "nope"][..], &["tables"]] {
        let out = motsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: motsim"), "{args:?}: {err}");
        assert!(err.contains("tables"), "{args:?}: {err}");
    }
}
