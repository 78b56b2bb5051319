//! True end-to-end tests of the `rpr` binary: argument handling, exit
//! codes, stdout/stderr wiring, and the text↔binary format bridge.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rpr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpr")).args(args).output().expect("binary runs")
}

fn workload(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../workloads");
    p.push(name);
    p.to_string_lossy().into_owned()
}

#[test]
fn classify_succeeds_with_report() {
    let out = rpr(&["classify", &workload("running_example.rpr")]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Theorem 3.1"));
    assert!(stdout.contains("PTIME"));
}

#[test]
fn check_reports_witnesses_and_exit_zero() {
    let out = rpr(&["check", &workload("running_example.rpr"), "J1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("NOT globally optimal"));
    assert!(stdout.contains("improvement: remove"));
}

#[test]
fn usage_errors_exit_one() {
    let out = rpr(&[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"));

    let out = rpr(&["frobnicate", &workload("running_example.rpr")]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn command_errors_exit_two() {
    let out = rpr(&["classify", "/nonexistent/file.rpr"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"));

    let out = rpr(&["check", &workload("running_example.rpr"), "NoSuchRepair"]);
    assert_eq!(out.status.code(), Some(2));

    let out = rpr(&["cqa", &workload("running_example.rpr"), "garbage query"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn export_then_reload_binary() {
    let dir = std::env::temp_dir();
    let out_path = dir.join("rpr_binary_test.rprb");
    let out_str = out_path.to_string_lossy().into_owned();
    let out = rpr(&["export", &workload("running_example.rpr"), &out_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Every command accepts the binary form.
    let out = rpr(&["check", &out_str, "J2"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("globally-optimal repair"));

    let out = rpr(&["repairs", &out_str, "--semantics", "global"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().starts_with("3 global repair(s)"));

    std::fs::remove_file(out_path).ok();
}

/// The `.rprb` length prefixes are `u16`: a longer symbol is refused
/// with exit 2 and no file, never written with a truncated prefix.
#[test]
fn binary_export_refuses_over_long_symbols() {
    let dir = std::env::temp_dir();
    let src = dir.join("rpr_long_symbol.rpr");
    let ops = dir.join("rpr_long_symbol.ops");
    let long = "s".repeat(70_000);
    std::fs::write(&src, format!("relation R/1\nfact R({long})\n")).unwrap();
    std::fs::write(&ops, "insert R(b)\n").unwrap();
    let src = src.to_string_lossy().into_owned();
    for (case, out_name) in [("export", "rpr_long_export.rprb"), ("delta", "rpr_long_delta.rprb")] {
        let out_path = dir.join(out_name);
        std::fs::remove_file(&out_path).ok();
        let out_str = out_path.to_string_lossy().into_owned();
        let out = if case == "export" {
            rpr(&["export", &src, &out_str])
        } else {
            rpr(&["delta", &src, &ops.to_string_lossy(), "--out", &out_str])
        };
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(String::from_utf8(out.stderr).unwrap().contains("u16"), "{case}");
        assert!(!out_path.exists(), "{case} must not write a file");
    }
    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&ops).ok();
}

#[test]
fn derive_and_lint_and_discover_run() {
    let out = rpr(&["derive", &workload("hard_s4.rpr"), "R4: 1 -> 3"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("transitivity"));

    let out = rpr(&["lint", &workload("hard_s4.rpr")]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("coNP-complete"));

    let out = rpr(&["discover", &workload("source_trust.rpr"), "--max-lhs", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("minimal FD(s)"));
}

#[test]
fn budget_flag_is_parsed_and_enforced() {
    let out = rpr(&["repairs", &workload("running_example.rpr"), "--max-work", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("budget"));

    let out = rpr(&["repairs", &workload("running_example.rpr"), "--max-work", "nope"]);
    assert_eq!(out.status.code(), Some(2));

    // The removed step-budget flag is a usage error naming its
    // replacement, never silently ignored like an unknown flag.
    let out = rpr(&["repairs", &workload("running_example.rpr"), "--budget", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr).unwrap().contains("--max-work"));
}

/// `check`, `repairs` and `certify` have one implementation each: a run
/// with no budget flag is exactly a `--max-work 4194304` run, in stdout
/// and exit code, on every committed workload.
#[test]
fn unflagged_runs_equal_the_default_max_work_run() {
    let mut names: Vec<String> = std::fs::read_dir(workload(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rpr"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "{names:?}");
    for name in &names {
        let path = workload(name);
        for cmd in ["check", "repairs", "certify"] {
            let plain = rpr(&[cmd, &path]);
            let flagged = rpr(&[cmd, &path, "--max-work", "4194304"]);
            assert_eq!(plain.stdout, flagged.stdout, "{cmd} {name}: stdout");
            assert_eq!(plain.status.code(), flagged.status.code(), "{cmd} {name}: exit code");
            let trips =
                name == "hard_blowup.rpr" || (name == "many_components.rpr" && cmd == "repairs");
            assert_eq!(plain.status.code(), Some(if trips { 2 } else { 0 }), "{cmd} {name}");
        }
    }
}

#[test]
fn engine_budget_flags_and_exit_codes() {
    // fail mode (default): a tripped budget is a command error (exit 2).
    let out = rpr(&["repairs", &workload("hard_blowup.rpr"), "--max-work", "10000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("budget exceeded"));

    // partial mode: exit 4, the partial repair list on stdout, and a
    // machine-readable budget-report JSON line on stderr.
    let out = rpr(&[
        "repairs",
        &workload("hard_blowup.rpr"),
        "--max-work",
        "10000",
        "--on-exceed",
        "partial",
    ]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8(out.stdout).unwrap().contains("(partial)"));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"reason\":\"work-exhausted\""), "{stderr}");
    assert!(stderr.contains("\"max_work\":10000"), "{stderr}");

    // A wall-clock deadline trips the same way.
    let out = rpr(&[
        "repairs",
        &workload("hard_blowup.rpr"),
        "--timeout-ms",
        "30",
        "--on-exceed",
        "partial",
    ]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8(out.stderr).unwrap().contains("deadline-expired"));

    // Confirming a true repair on the hard side (no witness to find)
    // trips the deadline the same way under check.
    let out = rpr(&[
        "check",
        &workload("hard_blowup.rpr"),
        "J",
        "--timeout-ms",
        "30",
        "--on-exceed",
        "partial",
    ]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8(out.stdout).unwrap().contains("undecided"));

    // Cooperative cancellation always reports the partial and exits 5.
    let out = rpr(&["repairs", &workload("hard_blowup.rpr"), "--cancel-after-ms", "20"]);
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8(out.stderr).unwrap().contains("cancelled"));

    // Bad flag values are command errors.
    let out = rpr(&["repairs", &workload("hard_blowup.rpr"), "--max-work", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let out = rpr(&["repairs", &workload("hard_blowup.rpr"), "--on-exceed", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bounded_runs_that_finish_exit_zero() {
    // Generous budgets leave the answers (and exit codes) unchanged.
    let out = rpr(&[
        "repairs",
        &workload("running_example.rpr"),
        "--semantics",
        "global",
        "--max-work",
        "1000000",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().starts_with("3 global repair(s)"));

    let out = rpr(&["check", &workload("running_example.rpr"), "J2", "--timeout-ms", "60000"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("globally-optimal repair"));

    let out = rpr(&[
        "cqa",
        &workload("running_example.rpr"),
        "q(?loc) <- BookLoc(b1, ?g, ?l), LibLoc(?l, ?loc)",
        "--semantics",
        "global",
        "--max-work",
        "1000000",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("certain"));
}

#[test]
fn stats_and_text_export_roundtrip() {
    let out = rpr(&["stats", &workload("running_example.rpr")]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("conflicting pairs"), "{stdout}");

    // Binary → text → binary keeps every command working.
    let dir = std::env::temp_dir();
    let bin_path = dir.join("rpr_roundtrip.rprb");
    let txt_path = dir.join("rpr_roundtrip.rpr");
    let bin_str = bin_path.to_string_lossy().into_owned();
    let txt_str = txt_path.to_string_lossy().into_owned();
    assert!(rpr(&["export", &workload("running_example.rpr"), &bin_str]).status.success());
    assert!(rpr(&["export", &bin_str, &txt_str]).status.success());
    let out = rpr(&["check", &txt_str, "J2"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("globally-optimal repair"));
    std::fs::remove_file(bin_path).ok();
    std::fs::remove_file(txt_path).ok();
}

#[test]
fn classify_explain_adds_certificates() {
    let out = rpr(&["classify", &workload("running_example.rpr"), "--explain"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("equivalence certificate"), "{stdout}");
    assert!(stdout.contains("incomparable"), "{stdout}");
}
