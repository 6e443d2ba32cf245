//! The `repro corpus` campaign: the fleet-scale diurnal corpus sweep.
//!
//! Drives one compressed fleet day — the six-phase
//! [`DiurnalProfile::fleet_day`] (overnight scans, a morning load ramp,
//! a multi-tenant midday peak with tenant churn, an afternoon hot-key
//! shift, an evening drain) — through the workload engine for **every
//! defense in the roster**, with the serving model's rows secured, and
//! records what each mechanism did under a day of benign traffic into
//! `artifacts/CORPUS_report.json`:
//!
//! * the per-defense sweep rows (benign ops, false defensive operations,
//!   online-tap activity, benign-row disturbance, device commands);
//! * the trace-plane numbers for the same corpus sample — the delta
//!   container's size against what the retired fixed-record v1 format
//!   would take, their ratio, and the chunk count;
//! * the asserted invariants, chief among them that **streaming replay
//!   is bit-identical to materialized replay for every defense**: the
//!   same v2 container drives each mechanism twice, once through
//!   `TraceReplay` (fully decoded) and once through `StreamingReplay`
//!   (one chunk in memory), and `DefenseStats` + `MemStats` must match
//!   exactly.
//!
//! Everything is seeded and simulated, so the report is deterministic:
//! the same numbers on every machine, which is what lets the rendered
//! section live in EXPERIMENTS.md under `repro report --check`. Like
//! the chaos campaign, invariant failures are *recorded* (and fail the
//! `repro corpus` exit code) rather than panicking mid-campaign.

use std::collections::HashSet;
use std::io::Cursor;
use std::path::Path;

use dd_baselines::DefenseKind;
use dd_dram::{DramConfig, MemStats, MemoryController};
use dd_workload::{
    decode, encode, run_workload, BenignTraffic, DiurnalProfile, DriverConfig, StreamingReplay,
    StreamingTraceReader, WorkloadOp, HEADER_BYTES, TRACE_CHUNK_OPS,
};
use dnn_defender::defense::DefenseStats;
use dnn_defender::{Json, JsonError, WeightMap};

use crate::experiments::{serving_model, workload_bits};
use crate::report::{Invariant, Report};

/// Schema version of `CORPUS_report.json`.
pub const CORPUS_REPORT_SCHEMA_VERSION: u64 = 1;

/// The corpus seed: pins the diurnal profile, every stream permutation,
/// and each defense's internal randomness (mixed with its label).
pub const CORPUS_SEED: u64 = 0x0dac_2024;

/// Secured bits for the corpus runs (matches the workload experiment's
/// full sizing).
const CORPUS_SECURED_BITS: usize = 96;

/// Bytes per record in the retired fixed-record trace format v1, the
/// baseline the report sizes the delta container against.
const V1_RECORD_BYTES: usize = 9;

/// One phase of the swept day, as run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase label (e.g. `"midday-peak"`).
    pub name: String,
    /// Benign ops per driver window in this phase.
    pub ops_per_window: u64,
    /// Driver windows actually run (after smoke scaling).
    pub windows: u64,
}

/// One defense's day: the diurnal sweep totals plus the streaming
/// bit-identity verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefenseRow {
    /// Defense label ([`DefenseKind::label`]).
    pub defense: String,
    /// Benign ops executed across the day.
    pub benign_ops: u64,
    /// Defensive operations fired under benign-only traffic — false
    /// positives by construction, summed across phases.
    pub false_defense_ops: u64,
    /// Distinct benign rows whose disturbance reached half the RowHammer
    /// threshold, summed across phases.
    pub disturbed_rows: u64,
    /// Peak disturbance on any non-attacked benign row, across the day.
    pub peak_benign_disturbance: u64,
    /// Total DRAM commands the device saw across the day.
    pub commands: u64,
    /// Whether streaming replay reproduced the materialized replay's
    /// `DefenseStats`/`MemStats` bit-for-bit for this defense.
    pub streaming_identical: bool,
}

/// The corpus sample's trace-plane numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Records in the sample.
    pub records: u64,
    /// The size in bytes of the retired fixed-record format v1: the
    /// header plus 9 bytes per record.
    pub v1_bytes: u64,
    /// v2 (chunked, delta) encoded size in bytes.
    pub v2_bytes: u64,
    /// Chunks in the v2 container.
    pub chunks: u64,
}

/// The `CORPUS_report.json` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusReport {
    /// Whether the campaign ran at smoke sizing.
    pub smoke: bool,
    /// The campaign seed.
    pub seed: u64,
    /// The diurnal profile label.
    pub profile: String,
    /// The phases, in diurnal order, as run.
    pub phases: Vec<PhaseSummary>,
    /// One row per defense, in roster order.
    pub defenses: Vec<DefenseRow>,
    /// The corpus sample's trace numbers.
    pub trace: TraceStats,
    /// The asserted invariants, in assertion order.
    pub invariants: Vec<Invariant>,
}

impl CorpusReport {
    /// True when every asserted invariant held.
    pub fn all_pass(&self) -> bool {
        self.failed_invariants().is_empty()
    }

    /// Names of the invariants that failed.
    pub fn failed_invariants(&self) -> Vec<String> {
        self.invariants
            .iter()
            .filter(|i| !i.pass)
            .map(|i| i.name.clone())
            .collect()
    }

    /// The EXPERIMENTS.md section. Every rendered number is a
    /// deterministic simulated quantity (no wall times), so the splice
    /// is machine-independent.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let windows: u64 = self.phases.iter().map(|p| p.windows).sum();
        out.push_str(&format!(
            "Fleet-scale corpus sweep (`repro corpus`), seed `{:#x}`: the `{}` diurnal \
             profile — {} phases, {} refresh windows per defense — drives every defense \
             in the roster through one compressed fleet day of benign traffic (load \
             ramp, tenant churn, hot-key shift), with the serving model's rows secured. \
             The same corpus sample then replays through the v2 streaming path, and \
             each defense's `DefenseStats`/`MemStats` must be bit-identical to the \
             materialized replay.\n\n",
            self.seed,
            self.profile,
            self.phases.len(),
            windows,
        ));
        out.push_str("| Defense | Benign ops | False defense ops | Disturbed rows | Peak disturbance | Commands | Streaming replay |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for d in &self.defenses {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                d.defense,
                d.benign_ops,
                d.false_defense_ops,
                d.disturbed_rows,
                d.peak_benign_disturbance,
                d.commands,
                if d.streaming_identical {
                    "bit-identical"
                } else {
                    "DIVERGED"
                },
            ));
        }
        out.push_str(&format!(
            "\nCorpus sample: {} records; v1 {} bytes \u{2192} v2 {} bytes ({:.0}% of v1, \
             delta chunks) across {} seekable chunks of \u{2264} 512 ops.\n",
            self.trace.records,
            self.trace.v1_bytes,
            self.trace.v2_bytes,
            self.trace.v2_per_v1_pct(),
            self.trace.chunks,
        ));
        out.push_str(&format!(
            "Campaign verdict: {}.\n",
            if self.all_pass() {
                "every invariant held across the defense roster".to_string()
            } else {
                format!(
                    "INVARIANT FAILURES ({}) — see CORPUS_report.json",
                    self.failed_invariants().join(", ")
                )
            },
        ));
        out
    }
}

impl Report for CorpusReport {
    const SCHEMA_VERSION: u64 = CORPUS_REPORT_SCHEMA_VERSION;
    const SCHEMA_NAME: &'static str = "CORPUS_report";

    fn name(&self) -> &str {
        "corpus"
    }

    fn fields(&self, doc: Json) -> Json {
        doc.with("smoke", Json::Bool(self.smoke))
            .with("seed", Json::uint(self.seed))
            .with("profile", Json::str(&self.profile))
            .with(
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .with("name", Json::str(&p.name))
                                .with("ops_per_window", Json::uint(p.ops_per_window))
                                .with("windows", Json::uint(p.windows))
                        })
                        .collect(),
                ),
            )
            .with(
                "defenses",
                Json::Arr(
                    self.defenses
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .with("defense", Json::str(&d.defense))
                                .with("benign_ops", Json::uint(d.benign_ops))
                                .with("false_defense_ops", Json::uint(d.false_defense_ops))
                                .with("disturbed_rows", Json::uint(d.disturbed_rows))
                                .with(
                                    "peak_benign_disturbance",
                                    Json::uint(d.peak_benign_disturbance),
                                )
                                .with("commands", Json::uint(d.commands))
                                .with("streaming_identical", Json::Bool(d.streaming_identical))
                        })
                        .collect(),
                ),
            )
            .with(
                "trace",
                Json::obj()
                    .with("records", Json::uint(self.trace.records))
                    .with("v1_bytes", Json::uint(self.trace.v1_bytes))
                    .with("v2_bytes", Json::uint(self.trace.v2_bytes))
                    .with("chunks", Json::uint(self.trace.chunks)),
            )
            .with(
                "invariants",
                Json::Arr(self.invariants.iter().map(Invariant::to_json).collect()),
            )
    }

    fn from_json(json: &Json) -> Result<CorpusReport, JsonError> {
        let phases = json
            .field_arr("phases")?
            .iter()
            .map(|p| {
                Ok(PhaseSummary {
                    name: p.field_str("name")?.to_string(),
                    ops_per_window: p.field_u64("ops_per_window")?,
                    windows: p.field_u64("windows")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let defenses = json
            .field_arr("defenses")?
            .iter()
            .map(|d| {
                Ok(DefenseRow {
                    defense: d.field_str("defense")?.to_string(),
                    benign_ops: d.field_u64("benign_ops")?,
                    false_defense_ops: d.field_u64("false_defense_ops")?,
                    disturbed_rows: d.field_u64("disturbed_rows")?,
                    peak_benign_disturbance: d.field_u64("peak_benign_disturbance")?,
                    commands: d.field_u64("commands")?,
                    streaming_identical: d.field_bool("streaming_identical")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let trace = json.field("trace")?;
        Ok(CorpusReport {
            smoke: json.field_bool("smoke")?,
            seed: json.field_u64("seed")?,
            profile: json.field_str("profile")?.to_string(),
            phases,
            defenses,
            trace: TraceStats {
                records: trace.field_u64("records")?,
                v1_bytes: trace.field_u64("v1_bytes")?,
                v2_bytes: trace.field_u64("v2_bytes")?,
                chunks: trace.field_u64("chunks")?,
            },
            invariants: json
                .field_arr("invariants")?
                .iter()
                .map(Invariant::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    fn section(&self) -> Option<String> {
        Some(self.render_markdown())
    }

    fn summary(&self, path: &Path) -> Vec<(String, Vec<String>)> {
        let mut failures: Vec<String> = self
            .failed_invariants()
            .into_iter()
            .map(|name| format!("corpus invariant FAILED: {name}"))
            .collect();
        if !failures.is_empty() {
            failures.push(format!("corpus campaign FAILED — see {}", path.display()));
        }
        vec![
            (
                format!(
                    "[corpus] {} phases x {} defenses, {} invariants; sample {} records, \
                     v2/v1 {:.0}% -> {}",
                    self.phases.len(),
                    self.defenses.len(),
                    self.invariants.len(),
                    self.trace.records,
                    self.trace.v2_per_v1_pct(),
                    path.display(),
                ),
                failures,
            ),
            (
                "[corpus] every invariant held; streaming replay bit-identical across the roster"
                    .to_string(),
                Vec::new(),
            ),
        ]
    }
}

impl TraceStats {
    /// The v2 container's size as a percentage of the v1 encoding's (0
    /// for an empty sample).
    fn v2_per_v1_pct(&self) -> f64 {
        if self.v1_bytes == 0 {
            0.0
        } else {
            100.0 * self.v2_bytes as f64 / self.v1_bytes as f64
        }
    }
}

/// The per-defense seed: the campaign seed FNV-mixed with the defense
/// label, so mechanisms draw independent streams but reproduce exactly.
fn defense_seed(kind: DefenseKind) -> u64 {
    let mut seed = CORPUS_SEED ^ 0x00d3_f227;
    for b in kind.label().bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    seed
}

/// One replay run for the bit-identity check: fresh device, fresh
/// defense, secured model rows — same construction both times, only the
/// traffic source differs.
fn replay_run(
    kind: DefenseKind,
    traffic: &mut BenignTraffic,
    windows: u64,
) -> Result<(u64, u64, u64, MemStats, DefenseStats), dd_dram::DramError> {
    let config = DramConfig::lpddr4_small();
    let mut mem = MemoryController::try_new(config.clone())?;
    let model = serving_model(CORPUS_SEED);
    let mut map = WeightMap::layout(&model, &config);
    let mut defense = kind.build(defense_seed(kind), &config);
    let bits = workload_bits(&model, CORPUS_SECURED_BITS);
    defense.secure_bits(&bits, Some(&map));
    let report = run_workload(
        &mut mem,
        &mut *defense,
        Some(&mut map),
        traffic,
        &bits,
        &DriverConfig {
            benign_windows: windows,
            attack_windows: 0,
            record: false,
        },
    )?;
    Ok((
        report.benign_ops,
        report.benign_bytes,
        report.commands,
        mem.stats(),
        defense.stats(),
    ))
}

/// Run the corpus campaign. `smoke` shrinks every phase to one window
/// and the replay sample to a few chunks; full sizing runs the whole
/// profile day.
///
/// # Errors
///
/// Returns a [`dd_dram::DramError`] only when the simulation harness
/// itself fails (device construction, driver plumbing) — invariant
/// violations are recorded in the report, not raised.
pub fn run_corpus_campaign(smoke: bool) -> Result<CorpusReport, dd_dram::DramError> {
    let config = DramConfig::lpddr4_small();
    let profile = DiurnalProfile::fleet_day(CORPUS_SEED);
    let mut invariants: Vec<Invariant> = Vec::new();
    let mut check = |name: &str, pass: bool| {
        if !pass {
            eprintln!("[corpus] invariant FAILED: {name}");
        }
        invariants.push(Invariant {
            name: name.to_string(),
            pass,
        });
    };

    // --- trace plane: the corpus sample, v1 vs v2 ---------------------
    let per_phase = if smoke { 256 } else { 1024 };
    let sample: Vec<WorkloadOp> = profile.sample_ops(&config, per_phase);
    let v1_bytes = (HEADER_BYTES + V1_RECORD_BYTES * sample.len()) as u64;
    let v2_bytes = encode(&sample);
    let chunks = match StreamingTraceReader::open(Cursor::new(&v2_bytes[..])) {
        Ok(reader) => {
            check(
                "v2 index agrees with the sample size",
                reader.total_records() == sample.len() as u64,
            );
            reader.chunk_count() as u64
        }
        Err(e) => {
            eprintln!("[corpus] v2 container failed to open: {e}");
            check("v2 index agrees with the sample size", false);
            0
        }
    };
    check(
        "v2 container round-trips the corpus sample",
        decode(&v2_bytes).as_deref() == Ok(&sample[..]),
    );
    check(
        "delta chunks compress below the v1 encoding",
        (v2_bytes.len() as u64) < v1_bytes,
    );
    check(
        "chunks sized to the batch boundary",
        chunks == sample.len().div_ceil(TRACE_CHUNK_OPS) as u64,
    );
    let trace = TraceStats {
        records: sample.len() as u64,
        v1_bytes,
        v2_bytes: v2_bytes.len() as u64,
        chunks,
    };

    // --- the diurnal sweep: one fleet day per defense -----------------
    let phase_windows = |spec_windows: u64| if smoke { 1 } else { spec_windows };
    let phases: Vec<PhaseSummary> = profile
        .phases
        .iter()
        .map(|p| PhaseSummary {
            name: p.name.to_string(),
            ops_per_window: p.ops_per_window,
            windows: phase_windows(p.windows),
        })
        .collect();

    let replay_windows = if smoke { 2 } else { 4 };
    let replay_ops_per_window = 512;
    let mut defenses = Vec::new();
    for kind in DefenseKind::TABLE3 {
        // The day: one device and one defense instance carried across
        // every phase, so defense state (swap tables, counters) sees the
        // full diurnal arc.
        let mut mem = MemoryController::try_new(config.clone())?;
        let model = serving_model(CORPUS_SEED);
        let mut map = WeightMap::layout(&model, &config);
        let mut defense = kind.build(defense_seed(kind), &config);
        let bits = workload_bits(&model, CORPUS_SECURED_BITS);
        defense.secure_bits(&bits, Some(&map));

        let mut row = DefenseRow {
            defense: kind.label().to_string(),
            benign_ops: 0,
            false_defense_ops: 0,
            disturbed_rows: 0,
            peak_benign_disturbance: 0,
            commands: 0,
            streaming_identical: false,
        };
        for (i, spec) in profile.phases.iter().enumerate() {
            let mut traffic = profile.traffic(i, &config);
            let report = run_workload(
                &mut mem,
                &mut *defense,
                Some(&mut map),
                &mut traffic,
                &bits,
                &DriverConfig {
                    benign_windows: phase_windows(spec.windows),
                    attack_windows: 0,
                    record: false,
                },
            )?;
            row.benign_ops += report.benign_ops;
            row.false_defense_ops += report.false_defense_ops;
            row.disturbed_rows += report.disturbed_rows;
            row.peak_benign_disturbance = row
                .peak_benign_disturbance
                .max(report.peak_benign_disturbance);
            row.commands += report.commands;
        }

        // The bit-identity twin runs: the same v2 container, once
        // materialized, once streamed, through this defense.
        let materialized = replay_run(
            kind,
            &mut BenignTraffic::from_trace(
                decode(&v2_bytes).expect("validated above"),
                replay_ops_per_window,
                32,
                &config,
            ),
            replay_windows,
        )?;
        let streaming = replay_run(
            kind,
            &mut BenignTraffic::from_streaming(
                StreamingReplay::open(Cursor::new(v2_bytes.clone()), &config)
                    .expect("validated above"),
                replay_ops_per_window,
                32,
                &config,
            ),
            replay_windows,
        )?;
        row.streaming_identical = materialized == streaming;
        defenses.push(row);
    }
    check(
        "streaming replay bit-identical to materialized replay across the roster",
        defenses.iter().all(|d| d.streaming_identical),
    );
    check(
        "diurnal sweep completed for every defense",
        defenses.len() == DefenseKind::TABLE3.len(),
    );
    check(
        "every defense executed the full day's benign ops",
        defenses
            .iter()
            .map(|d| d.benign_ops)
            .collect::<HashSet<_>>()
            .len()
            == 1,
    );

    Ok(CorpusReport {
        smoke,
        seed: CORPUS_SEED,
        profile: profile.label.clone(),
        phases,
        defenses,
        trace,
        invariants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CorpusReport {
        CorpusReport {
            smoke: true,
            seed: CORPUS_SEED,
            profile: "fleet-day-0xdac2024".to_string(),
            phases: vec![PhaseSummary {
                name: "night-scan".to_string(),
                ops_per_window: 96,
                windows: 1,
            }],
            defenses: vec![DefenseRow {
                defense: "DNN-Defender".to_string(),
                benign_ops: 96,
                false_defense_ops: 0,
                disturbed_rows: 0,
                peak_benign_disturbance: 3,
                commands: 500,
                streaming_identical: true,
            }],
            trace: TraceStats {
                records: 1536,
                v1_bytes: 13840,
                v2_bytes: 6200,
                chunks: 3,
            },
            invariants: vec![Invariant {
                name: "v2 container round-trips the corpus sample".to_string(),
                pass: true,
            }],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let text = report.to_json().render_pretty();
        assert_eq!(CorpusReport::parse(&text).expect("parse"), report);
    }

    #[test]
    fn verdict_tracks_invariants() {
        let mut report = sample_report();
        assert!(report.all_pass());
        report.invariants.push(Invariant {
            name: "broken".to_string(),
            pass: false,
        });
        assert!(!report.all_pass());
        assert_eq!(report.failed_invariants(), vec!["broken".to_string()]);
        assert!(report.render_markdown().contains("INVARIANT FAILURES"));
    }

    #[test]
    fn markdown_renders_the_roster_table() {
        let md = sample_report().render_markdown();
        assert!(md.contains("| DNN-Defender |"));
        assert!(md.contains("bit-identical"));
        assert!(md.contains("seekable chunks"));
    }
}
