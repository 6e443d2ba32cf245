//! CLI contract tests for the `repro` binary (ISSUE 6 satellite).
//!
//! Locks the exit-code behavior scripts depend on: every unknown
//! subcommand, unknown option, malformed value, or empty invocation must
//! exit non-zero and print the usage text to stderr — never exit 0 with
//! nothing done.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = repro(&["tabel3"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown command `tabel3`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn unknown_option_exits_nonzero_with_usage() {
    let out = repro(&["all", "--froce"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown option `--froce`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn no_arguments_exits_nonzero_with_usage() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("usage: repro"));
}

#[test]
fn malformed_option_values_exit_nonzero() {
    for args in [
        ["all", "--jobs", "zero"].as_slice(),
        ["all", "--jobs", "0"].as_slice(),
        ["all", "--artifacts-dir"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains("usage: repro"), "{args:?}");
    }
}

#[test]
fn kernel_sweep_flags_reject_bad_input_nonzero() {
    // `--sweep-cells` is not a `repro` option: it takes the global
    // unknown-option exit, and the usage text does not list it.
    let out = repro(&["kernel", "--sweep-cells", "4"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown option `--sweep-cells`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");

    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!stderr(&out).contains("--sweep-cells"));
}

#[test]
fn help_exits_zero_with_usage() {
    for args in [["--help"].as_slice(), ["serve", "--help"].as_slice()] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stderr(&out).contains("usage: repro"), "{args:?}");
    }
}

#[test]
fn service_subcommands_reject_bad_input_nonzero() {
    // A malformed cell spec is a structured submit error, exit 1.
    let out = repro(&["submit", "--smoke", "Fortress:BFA:lpddr4_small:none"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown defense `Fortress`"));

    // `submit` with no specs has nothing to do — that is an error too.
    let out = repro(&["submit", "--smoke"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no cell specs"));

    // `serve` takes no bare arguments.
    let out = repro(&["serve", "--smoke", "stray"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unexpected arguments"));

    // Unknown service option.
    let out = repro(&["serve", "--sockte", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown option `--sockte`"));
}
