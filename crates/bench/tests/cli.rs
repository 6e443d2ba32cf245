//! CLI contract tests for the `repro` binary.
//!
//! Locks the exit-code behavior scripts depend on: every unknown
//! subcommand, unknown option, malformed value, or empty invocation must
//! exit non-zero and print the usage text to stderr — never exit 0 with
//! nothing done. `repro report --check` must pass the committed tree and
//! refuse, naming the file, every report it cannot verify.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use dnn_defender::Json;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// A scratch copy of the committed `artifacts/`, removed on drop.
struct ArtifactsCopy(PathBuf);

impl ArtifactsCopy {
    fn new(tag: &str) -> ArtifactsCopy {
        fn copy(from: &Path, to: &Path) {
            std::fs::create_dir_all(to).expect("scratch dir");
            for entry in std::fs::read_dir(from).expect("artifacts dir") {
                let entry = entry.expect("dir entry");
                let target = to.join(entry.file_name());
                if entry.file_type().expect("file type").is_dir() {
                    copy(&entry.path(), &target);
                } else {
                    std::fs::copy(entry.path(), target).expect("copy artifact");
                }
            }
        }
        let root = std::env::temp_dir().join(format!("dd-repro-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        copy(&committed, &root.join("artifacts"));
        ArtifactsCopy(root)
    }

    fn dir(&self) -> PathBuf {
        self.0.join("artifacts")
    }

    /// Rewrite one file of the copy; the edit must change it.
    fn edit(&self, file: &str, edit: impl FnOnce(&str) -> String) {
        let path = self.dir().join(file);
        let text = std::fs::read_to_string(&path).expect("artifact exists");
        let edited = edit(&text);
        assert_ne!(edited, text, "the edit of {file} changed nothing");
        std::fs::write(path, edited).expect("write edited artifact");
    }

    /// `repro report --check` against the copy.
    fn check(&self) -> Output {
        let dir = self.dir();
        repro(&[
            "report",
            "--check",
            "--artifacts-dir",
            dir.to_str().expect("utf-8 path"),
        ])
    }
}

impl Drop for ArtifactsCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn report_check_passes_on_the_committed_tree() {
    let copy = ArtifactsCopy::new("committed");
    let out = copy.check();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("EXPERIMENTS.md is up to date (13 generated sections"),
        "{}",
        stdout(&out)
    );
    assert_eq!(stderr(&out), "");
}

#[test]
fn report_check_from_the_crate_dir_finds_the_docs_and_artifacts() {
    // No EXPERIMENTS.md and no artifacts/ here: the docs come from the
    // manifest fallback, and the default artifacts dir follows them.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["report", "--check"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("EXPERIMENTS.md is up to date"));
}

#[test]
fn report_check_refuses_a_missing_report() {
    let copy = ArtifactsCopy::new("missing");
    std::fs::remove_file(copy.dir().join("CHAOS_report.json")).expect("remove report");
    let out = copy.check();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("cannot verify `chaos`:") && err.contains("CHAOS_report.json missing"),
        "{err}"
    );
    assert!(
        err.contains("run `repro chaos` and commit artifacts/"),
        "{err}"
    );
}

#[test]
fn report_check_refuses_a_stale_config_hash() {
    let copy = ArtifactsCopy::new("hash");
    copy.edit("table2.json", |text| {
        let key = "\"config_hash\": \"0x";
        let at = text.find(key).expect("config hash") + key.len();
        format!("{}0000000000000001{}", &text[..at], &text[at + 16..])
    });
    let out = copy.check();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("`table2` artifact is stale: config 0x0000000000000001, current config"),
        "{err}"
    );
    assert!(err.contains("1 artifact(s) are stale"), "{err}");
}

#[test]
fn report_check_judges_an_artifact_by_the_file_it_sits_in() {
    // table3's artifact copied over table2.json is table2's artifact with
    // another experiment's config hash, whatever its own fields say.
    let copy = ArtifactsCopy::new("swapped");
    std::fs::copy(
        copy.dir().join("table3.json"),
        copy.dir().join("table2.json"),
    )
    .expect("copy artifact");
    let out = copy.check();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("`table2` artifact is stale: config ")
            && err.contains("run `repro table2` and commit artifacts/"),
        "{err}"
    );
    assert!(err.contains("1 artifact(s) are stale"), "{err}");
}

#[test]
fn report_check_refuses_a_trace_from_another_server_protocol() {
    let copy = ArtifactsCopy::new("protocol");
    let current = format!("\"protocol\": {}", dd_server::SERVER_PROTOCOL_VERSION);
    copy.edit("TRACE_summary.json", |text| {
        text.replacen(&current, "\"protocol\": 2", 1)
    });
    let out = copy.check();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("TRACE_summary.json is stale: server protocol 2, current protocol"),
        "{err}"
    );
    assert!(
        err.contains("run `repro trace` and commit artifacts/"),
        "{err}"
    );
}

#[test]
fn report_check_refuses_a_foreign_schema_version() {
    for (file, section) in [("fig9.json", "fig9"), ("CORPUS_report.json", "corpus")] {
        let copy = ArtifactsCopy::new(section);
        copy.edit(file, |text| {
            text.replacen("\"schema_version\": 1,", "\"schema_version\": 99,", 1)
        });
        let out = copy.check();
        assert_eq!(out.status.code(), Some(1), "{file}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("cannot verify `{section}`:"))
                && err.contains(&format!("{file} missing or unreadable")),
            "{err}"
        );
        assert!(
            err.contains(&format!(
                "repro: ignoring {}",
                copy.dir().join(file).display()
            )) && err.contains("schema v99 (expected v1)"),
            "{err}"
        );
    }
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

    // Each command refuses the other's flags and names their command.
    for (args, refused) in [
        (
            [
                "serve",
                "--out",
                "x",
                "--check-batch",
                "--client",
                "c",
                "--retries",
                "3",
            ]
            .as_slice(),
            "repro serve: --out is a `repro submit` option",
        ),
        (
            [
                "submit",
                "--read-timeout-ms",
                "5",
                "Baseline (undefended):BFA:lpddr4_small:none",
            ]
            .as_slice(),
            "repro submit: --read-timeout-ms is a `repro serve` option",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(refused), "{args:?}: {}", stderr(&out));
    }

    // One endpoint at a time, for the server and the client alike.
    for args in [
        ["serve", "--socket", "/tmp/x", "--tcp", "127.0.0.1:0"].as_slice(),
        [
            "submit",
            "--socket",
            "/tmp/x",
            "--tcp",
            "127.0.0.1:0",
            "Baseline (undefended):BFA:lpddr4_small:none",
        ]
        .as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            stderr(&out).contains("--socket and --tcp are mutually exclusive"),
            "{args:?}"
        );
    }
}

#[test]
fn serve_answers_stdio_lines_until_shutdown() {
    // A directory that does not exist: no cell cache, default calibration.
    let artifacts = std::env::temp_dir().join(format!("dd-repro-cli-stdio-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--smoke",
            "--artifacts-dir",
            artifacts.to_str().expect("utf-8 path"),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    // A blank line gets no answer, a non-JSON one a structured error, and
    // nothing answers the line after `shutdown`.
    let lines = "{\"op\":\"hello\"}\n\nnot json\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"hello\"}\n";
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(lines.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("repro exits");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let ops: Vec<String> = stdout(&out)
        .lines()
        .map(|line| {
            let response = Json::parse(line).expect("one JSON response per line");
            response.field_str("op").expect("op").to_string()
        })
        .collect();
    assert_eq!(ops, ["hello", "?", "stats", "shutdown"], "{}", stdout(&out));
}
