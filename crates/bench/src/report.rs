//! The artifact format and the docs renderer of the `repro` pipeline.
//!
//! Every experiment run writes one [`Artifact`] — a versioned,
//! machine-readable record of what was configured (content hash, seed,
//! quick/full mode) and what was measured (the tables, plus an optional
//! experiment-specific raw payload such as the full
//! [`dd_baselines::MatrixReport`]) — to `artifacts/<experiment>.json`
//! and a flat `artifacts/<experiment>.csv`. `repro report` then renders
//! those artifacts into markdown and splices them into the generated
//! sections of EXPERIMENTS.md between `<!-- repro:begin <experiment> -->`
//! / `<!-- repro:end <experiment> -->` markers, so the documented numbers
//! are always exactly what the code produced.
//!
//! The schema is documented in `docs/artifacts.md`; bump
//! [`ARTIFACT_SCHEMA_VERSION`] on any incompatible change (old artifacts
//! are then recomputed rather than misread).
//!
//! The artifacts and the trace, chaos, corpus and kernel reports are all
//! [`Report`]s: one contract for how a committed report is written,
//! version-checked, re-read, judged and spliced.

use std::fmt::Write as _;
use std::path::Path;

use dd_baselines::MatrixRunSummary;
use dnn_defender::{Json, JsonError};

use crate::experiments::ExperimentId;

/// Version stamp written into every artifact.
pub const ARTIFACT_SCHEMA_VERSION: u64 = 1;

/// A committed report: one versioned JSON document under the artifacts
/// directory that `repro` writes, re-reads with its schema checked,
/// judges, and splices into EXPERIMENTS.md when it has a section.
///
/// Every document opens with `schema_version` and `experiment`; the
/// implementor writes and reads the fields after them.
pub trait Report: Sized {
    /// The schema version this build writes; a document stamped with
    /// another one does not parse.
    const SCHEMA_VERSION: u64;
    /// What a schema mismatch calls the document; also the file stem of
    /// a report that has one fixed file.
    const SCHEMA_NAME: &'static str;

    /// The `experiment` field: the report's `repro` command and its
    /// EXPERIMENTS.md section label.
    fn name(&self) -> &str;

    /// Append every field after the header to `doc`, in file order.
    fn fields(&self, doc: Json) -> Json;

    /// Decode a document whose schema version checked out.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on a missing or mistyped field.
    fn from_json(json: &Json) -> Result<Self, JsonError>;

    /// The file under the artifacts directory that holds the report
    /// called `name`.
    fn file_name(_name: &str) -> String {
        format!("{}.json", Self::SCHEMA_NAME)
    }

    /// The EXPERIMENTS.md section body, for a report that has one.
    fn section(&self) -> Option<String> {
        None
    }

    /// Why the report `name`, read from `path`, is stale against the
    /// current code: `repro report --check` refuses it. `name` is the
    /// file's, not the document's own `experiment` field, so a report
    /// copied over another one's file is judged as the file it sits in.
    fn stale(&self, _name: &str, _path: &Path) -> Option<String> {
        None
    }

    /// What `repro` prints once the report is written to `path`: each
    /// line with the failures it reveals. The command prints the
    /// failures after their line and exits 1 there.
    fn summary(&self, _path: &Path) -> Vec<(String, Vec<String>)> {
        Vec::new()
    }

    /// Serialize to the on-disk JSON tree.
    fn to_json(&self) -> Json {
        self.fields(
            Json::obj()
                .with("schema_version", Json::uint(Self::SCHEMA_VERSION))
                .with("experiment", Json::str(self.name())),
        )
    }

    /// Parse the on-disk JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, a missing or mistyped
    /// field, or another schema version.
    fn parse(text: &str) -> Result<Self, JsonError> {
        let json = Json::parse(text)?;
        let version = json.field_u64("schema_version")?;
        if version != Self::SCHEMA_VERSION {
            return Err(JsonError {
                message: format!(
                    "unsupported {} schema v{version} (expected v{})",
                    Self::SCHEMA_NAME,
                    Self::SCHEMA_VERSION
                ),
            });
        }
        json.field_str("experiment")?;
        Self::from_json(&json)
    }
}

/// One asserted property of a campaign (chaos, corpus) and whether it
/// held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// What was asserted.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
}

impl Invariant {
    /// The `{"name", "pass"}` entry of a report's invariant list.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::str(&self.name))
            .with("pass", Json::Bool(self.pass))
    }

    /// Decode an entry written by [`Invariant::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on a missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Invariant, JsonError> {
        Ok(Invariant {
            name: json.field_str("name")?.to_string(),
            pass: json.field_bool("pass")?,
        })
    }
}

/// One named table of an artifact: string cells, already formatted the
/// way the figure/table should display them (percentages, day counts, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableArtifact {
    /// Table title.
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells; every row has `headers.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl TableArtifact {
    /// Build from headers and rows.
    pub fn new(name: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        TableArtifact {
            name: name.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::str(&self.name))
            .with(
                "headers",
                Json::Arr(self.headers.iter().map(Json::str).collect()),
            )
            .with(
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                        .collect(),
                ),
            )
    }

    fn from_json(value: &Json) -> Result<TableArtifact, JsonError> {
        Ok(TableArtifact {
            name: value.field_str("name")?.to_string(),
            headers: string_array(value.field_arr("headers")?, "`headers`")?,
            rows: value
                .field_arr("rows")?
                .iter()
                .map(|row| {
                    string_array(
                        row.as_arr().ok_or(JsonError {
                            message: "`rows` entry is not an array".into(),
                        })?,
                        "`rows`",
                    )
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Decode an array of strings (table headers, rows, notes).
fn string_array(items: &[Json], what: &str) -> Result<Vec<String>, JsonError> {
    items
        .iter()
        .map(|s| {
            s.as_str().map(str::to_string).ok_or(JsonError {
                message: format!("{what} entry is not a string"),
            })
        })
        .collect()
}

/// A versioned, machine-readable record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Experiment id (`"table3"`, `"fig8a"`, …) — also the file stem.
    pub experiment: String,
    /// Human title of the figure/table.
    pub title: String,
    /// Content hash of everything that determines the results (see
    /// `dnn_defender::stablehash`). Reruns with an unchanged hash can
    /// reuse the artifact wholesale.
    pub config_hash: u64,
    /// Base seed of the experiment (0 when purely analytical).
    pub seed: u64,
    /// Whether quick (smoke) mode produced these numbers.
    pub quick: bool,
    /// Wall-clock time of the producing run, in milliseconds.
    pub wall_millis: u64,
    /// Scenario-matrix cell cache tally (`cells == 0` for experiments
    /// that don't run a matrix).
    pub cache: MatrixRunSummary,
    /// The rendered tables, in display order.
    pub tables: Vec<TableArtifact>,
    /// Free-form shape-check notes printed after the tables.
    pub notes: Vec<String>,
    /// Experiment-specific structured payload (e.g. the full
    /// `MatrixReport`), when one exists.
    pub raw: Option<Json>,
}

impl Report for Artifact {
    const SCHEMA_VERSION: u64 = ARTIFACT_SCHEMA_VERSION;
    const SCHEMA_NAME: &'static str = "artifact";

    fn name(&self) -> &str {
        &self.experiment
    }

    fn fields(&self, doc: Json) -> Json {
        let json = doc
            .with("title", Json::str(&self.title))
            .with("config_hash", Json::hex(self.config_hash))
            .with("seed", Json::hex(self.seed))
            .with("quick", Json::Bool(self.quick))
            .with("wall_millis", Json::uint(self.wall_millis))
            .with(
                "cache",
                Json::obj()
                    .with("cells", Json::uint(self.cache.cells as u64))
                    .with("hits", Json::uint(self.cache.cache_hits as u64)),
            )
            .with(
                "tables",
                Json::Arr(self.tables.iter().map(TableArtifact::to_json).collect()),
            )
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            );
        match &self.raw {
            Some(raw) => json.with("raw", raw.clone()),
            None => json,
        }
    }

    fn from_json(value: &Json) -> Result<Artifact, JsonError> {
        let cache = value.field("cache")?;
        Ok(Artifact {
            experiment: value.field_str("experiment")?.to_string(),
            title: value.field_str("title")?.to_string(),
            config_hash: value.field_hex_u64("config_hash")?,
            seed: value.field_hex_u64("seed")?,
            quick: value.field_bool("quick")?,
            wall_millis: value.field_u64("wall_millis")?,
            cache: MatrixRunSummary {
                cells: cache.field_u64("cells")? as usize,
                cache_hits: cache.field_u64("hits")? as usize,
            },
            tables: value
                .field_arr("tables")?
                .iter()
                .map(TableArtifact::from_json)
                .collect::<Result<_, _>>()?,
            notes: string_array(value.field_arr("notes")?, "`notes`")?,
            raw: value.get("raw").cloned(),
        })
    }

    fn file_name(name: &str) -> String {
        format!("{name}.json")
    }

    fn section(&self) -> Option<String> {
        Some(self.render_markdown())
    }

    /// An artifact whose config hash the current code no longer produces
    /// would not be reused by a rerun: its numbers may be out of date
    /// even when its rendered section still matches.
    fn stale(&self, name: &str, _path: &Path) -> Option<String> {
        let current = ExperimentId::parse(name)?.config_hash(self.quick);
        (self.config_hash != current).then(|| {
            format!(
                "`{name}` artifact is stale: config {:#018x}, current config {current:#018x}",
                self.config_hash,
            )
        })
    }
}

impl Artifact {
    /// The flat CSV rendering: one block per table (`# <name>` line,
    /// header row, data rows), blank-line separated.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = writeln!(out, "# {}", table.name);
            let _ = writeln!(out, "{}", csv_row(&table.headers));
            for row in &table.rows {
                let _ = writeln!(out, "{}", csv_row(row));
            }
        }
        out
    }

    /// Render the generated-docs section body (the content that lives
    /// between this experiment's markers in EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            let _ = writeln!(out, "**{}**\n", table.name);
            let _ = writeln!(out, "|{}|", md_row(&table.headers));
            let _ = writeln!(
                out,
                "|{}|",
                table
                    .headers
                    .iter()
                    .map(|_| " --- ")
                    .collect::<Vec<_>>()
                    .join("|")
            );
            for row in &table.rows {
                let _ = writeln!(out, "|{}|", md_row(row));
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}\n");
        }
        let mode = if self.quick {
            "quick (smoke) mode"
        } else {
            "full mode"
        };
        let mut footer = format!(
            "<sub>`{}` artifact v{} · config `{:#018x}` · seed {} · {} · {}",
            self.experiment,
            ARTIFACT_SCHEMA_VERSION,
            self.config_hash,
            self.seed,
            mode,
            render_duration(self.wall_millis),
        );
        if self.cache.cells > 0 {
            let _ = write!(
                footer,
                " · cache {}/{} cells",
                self.cache.cache_hits, self.cache.cells
            );
        }
        footer.push_str("</sub>");
        let _ = writeln!(out, "{footer}");
        out
    }
}

/// Human duration from milliseconds (stable: derived only from the
/// artifact, so re-rendering cannot drift).
pub fn render_duration(millis: u64) -> String {
    if millis < 100 {
        format!("{millis} ms")
    } else {
        format!("{:.1} s", millis as f64 / 1000.0)
    }
}

fn csv_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| csv_escape(c))
        .collect::<Vec<_>>()
        .join(",")
}

/// Quote a CSV field when it contains a delimiter, quote, or newline.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn md_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!(" {} ", c.replace('|', "\\|")))
        .collect::<Vec<_>>()
        .join("|")
}

/// Replace the content between an experiment's
/// `<!-- repro:begin <experiment> -->` / `<!-- repro:end <experiment> -->`
/// markers with `body` (markers stay; `body` is bracketed by exactly one
/// newline on each side). The document must contain the begin marker
/// before the end marker, exactly once each.
///
/// # Errors
///
/// Returns a `splice error: …` message when either marker is missing,
/// duplicated, or out of order.
pub fn splice_section(doc: &str, experiment: &str, body: &str) -> Result<String, String> {
    let begin = format!("<!-- repro:begin {experiment} -->");
    let end = format!("<!-- repro:end {experiment} -->");
    let find_once = |needle: &str| match doc.match_indices(needle).collect::<Vec<_>>()[..] {
        [(at, _)] => Ok(at),
        [] => Err(format!("splice error: missing `{needle}`")),
        _ => Err(format!("splice error: duplicated `{needle}`")),
    };
    let (begin_at, end_at) = (find_once(&begin)?, find_once(&end)?);
    if end_at < begin_at {
        return Err(format!("splice error: `{end}` precedes `{begin}`"));
    }
    Ok(format!(
        "{}\n{}\n{}",
        &doc[..begin_at + begin.len()],
        body.trim_end_matches('\n'),
        &doc[end_at..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            experiment: "table3".into(),
            title: "Table 3".into(),
            config_hash: 0xabcd_ef01_2345_6789,
            seed: 333,
            quick: true,
            wall_millis: 2345,
            cache: MatrixRunSummary {
                cells: 9,
                cache_hits: 4,
            },
            tables: vec![TableArtifact::new(
                "Table 3: defense comparison",
                &["Defense", "Clean acc"],
                vec![
                    vec!["Baseline (undefended)".into(), "91.41%".into()],
                    vec!["DNN-Defender".into(), "91.41%".into()],
                ],
            )],
            notes: vec!["Shape check: baseline collapses.".into()],
            raw: Some(Json::obj().with("cells", Json::Arr(vec![]))),
        }
    }

    #[test]
    fn artifact_json_round_trips() {
        let artifact = sample();
        let text = artifact.to_json().render_pretty();
        assert_eq!(Artifact::parse(&text).expect("parse"), artifact);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        let csv = sample().to_csv();
        assert!(csv.starts_with("# Table 3: defense comparison\n"));
        assert!(csv.contains("Defense,Clean acc\n"));
    }

    #[test]
    fn splice_replaces_only_the_marked_region() {
        let doc = "intro\n<!-- repro:begin t -->\nstale\n<!-- repro:end t -->\noutro\n";
        let out = splice_section(doc, "t", "fresh\n").expect("splice");
        assert_eq!(
            out,
            "intro\n<!-- repro:begin t -->\nfresh\n<!-- repro:end t -->\noutro\n"
        );
        // Idempotent: splicing the same body is a fixed point.
        assert_eq!(splice_section(&out, "t", "fresh\n").unwrap(), out);
        assert!(splice_section(doc, "missing", "x").is_err());
        let reversed = "<!-- repro:end t -->\n<!-- repro:begin t -->";
        assert!(splice_section(reversed, "t", "x").is_err());
    }
}
