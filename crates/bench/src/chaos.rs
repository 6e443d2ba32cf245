//! The `repro chaos` campaign: scripted, seeded fault injection against
//! the matrix-as-a-service stack, with the resilience invariants the
//! hardening work promises asserted after every phase.
//!
//! The campaign arms one `dd-chaos` plan per phase — each phase turns on
//! the faults for exactly one layer, so a failed invariant points at the
//! layer that regressed — and records what fired into
//! `artifacts/CHAOS_report.json`:
//!
//! 1. **job-panic** — every executor attempt panics; the job must come
//!    back as a structured `job_failed` wire error with the admission
//!    charge refunded, and the server must keep serving.
//! 2. **job-stall** — every job stalls and every kernel chunk issue
//!    stalls; cells must still complete with bytes identical to the
//!    batch path (stalls lose time, never state).
//! 3. **cache-corruption** — every cell-cache entry is corrupted at
//!    load; entries must evict individually with accounting, and a
//!    disarmed reload of the same file must be clean.
//! 4. **client-transient** — submit attempts fail at the client; retry
//!    must be bounded (structured failure at the cap) and absorb partial
//!    fault rates.
//! 5. **connection-faults** — response frames are dropped and corrupted
//!    on a live Unix socket; the retrying client must converge, budget
//!    conservation must hold on the wire ledger (no double charge), and
//!    fault activity must be visible in the `stats` reply.
//! 6. **concurrent-stress** — several clients over Unix *and* TCP under
//!    interleaving-independent faults; only interleaving-independent
//!    invariants are asserted (per-client conservation, byte-identity,
//!    survival), because connection ids — and therefore which probes
//!    fire — depend on accept order in this phase.
//!
//! Every fault decision is a pure function of `(seed, site, key)` (see
//! `dd-chaos`), so phases 1–5 are exactly reproducible: same fires, same
//! outcomes, every run. The campaign *records* invariant failures
//! instead of panicking, so one regression produces a readable report
//! rather than a dead pipeline; `repro chaos` exits non-zero when any
//! invariant failed. The markdown spliced into EXPERIMENTS.md renders
//! only run-stable fields (rule sets, invariant outcomes, site
//! coverage), never the stress phase's interleaving-dependent counts.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Duration;

use dd_baselines::{DefenseKind, ScenarioMatrix, VictimSpec};
use dd_chaos::{ChaosPlan, ChaosReport};
use dd_server::{CellSpec, ServerConfig, SweepServer};
use dnn_defender::{CostModel, Json, JsonError};

use crate::cache::{load_cell_cache, save_cell_cache};
use crate::report::{Invariant, Report};
use crate::serve::{
    batch_report, request_inline, response_cells, BoundListener, Endpoint, RetryPolicy,
    ServiceClient, REFERENCE_DEVICE_ROWS,
};

/// Schema version of `CHAOS_report.json`.
pub const CHAOS_REPORT_SCHEMA_VERSION: u64 = 1;

/// The campaign seed. Every fault decision is pure in
/// `(seed, site, key)`, so this constant pins the whole campaign.
pub const CHAOS_CAMPAIGN_SEED: u64 = 0xdd0c_4a05;

/// Every injection site the production code threads through. The
/// campaign asserts all of them fired at least once.
pub const CHAOS_SITES: [&str; 7] = [
    "executor.job_panic",
    "executor.job_stall",
    "kernel.chunk_stall",
    "server.conn_drop",
    "server.frame_corrupt",
    "cache.corrupt_entry",
    "client.submit_transient",
];

/// One campaign phase: which faults were armed, what fired, and which
/// invariants held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase name (stable identifier, e.g. `"job-panic"`).
    pub name: String,
    /// One-line description of the fault scenario.
    pub detail: String,
    /// Sites the phase's plan had rules for (run-stable).
    pub injected: Vec<String>,
    /// Per-site check/fire counts observed while the phase was armed
    /// (run-stable for phases 1–5; interleaving-dependent for the
    /// stress phase).
    pub sites: BTreeMap<String, (u64, u64)>,
    /// The asserted invariants, in assertion order.
    pub invariants: Vec<Invariant>,
}

impl PhaseReport {
    /// An empty phase. It accumulates as it runs: invariant checks
    /// (failures are recorded and printed, never panicked) plus the chaos
    /// accounting of the phase's armed sessions.
    fn new(name: &str, detail: &str, injected: &[&str]) -> PhaseReport {
        PhaseReport {
            name: name.to_string(),
            detail: detail.to_string(),
            injected: injected.iter().map(|s| s.to_string()).collect(),
            sites: BTreeMap::new(),
            invariants: Vec::new(),
        }
    }

    fn check(&mut self, name: &str, pass: bool) {
        if !pass {
            eprintln!("repro chaos: [{}] invariant FAILED: {name}", self.name);
        }
        self.invariants.push(Invariant {
            name: name.to_string(),
            pass,
        });
    }

    fn absorb(&mut self, chaos: &ChaosReport) {
        for (site, stats) in &chaos.sites {
            let entry = self.sites.entry(site.clone()).or_insert((0, 0));
            entry.0 += stats.checks;
            entry.1 += stats.fires;
        }
    }

    fn to_json(&self) -> Json {
        let sites = self
            .sites
            .iter()
            .map(|(site, &(checks, fires))| {
                (
                    site.clone(),
                    Json::obj()
                        .with("checks", Json::uint(checks))
                        .with("fires", Json::uint(fires)),
                )
            })
            .collect();
        Json::obj()
            .with("name", Json::str(&self.name))
            .with("detail", Json::str(&self.detail))
            .with(
                "injected",
                Json::Arr(self.injected.iter().map(Json::str).collect()),
            )
            .with("sites", Json::Obj(sites))
            .with(
                "invariants",
                Json::Arr(self.invariants.iter().map(Invariant::to_json).collect()),
            )
    }

    fn from_json(value: &Json) -> Result<PhaseReport, JsonError> {
        let mut sites = BTreeMap::new();
        if let Some(Json::Obj(fields)) = value.get("sites") {
            for (site, stats) in fields {
                sites.insert(
                    site.clone(),
                    (stats.field_u64("checks")?, stats.field_u64("fires")?),
                );
            }
        }
        let injected = value
            .field_arr("injected")?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        Ok(PhaseReport {
            name: value.field_str("name")?.to_string(),
            detail: value.field_str("detail")?.to_string(),
            injected,
            sites,
            invariants: value
                .field_arr("invariants")?
                .iter()
                .map(Invariant::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The `CHAOS_report.json` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCampaignReport {
    /// Whether the campaign ran at smoke sizing.
    pub smoke: bool,
    /// The campaign seed.
    pub seed: u64,
    /// The phases, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Sites that fired at least once across the campaign (sorted).
    pub sites_covered: Vec<String>,
}

impl ChaosCampaignReport {
    /// True when every asserted invariant held and every site fired.
    pub fn all_pass(&self) -> bool {
        self.failed_invariants().is_empty() && self.sites_missing().is_empty()
    }

    /// The invariants that failed, as `(phase, invariant)` labels.
    pub fn failed_invariants(&self) -> Vec<(String, String)> {
        self.phases
            .iter()
            .flat_map(|p| {
                p.invariants
                    .iter()
                    .filter(|i| !i.pass)
                    .map(move |i| (p.name.clone(), i.name.clone()))
            })
            .collect()
    }

    /// Known sites that never fired.
    pub fn sites_missing(&self) -> Vec<&'static str> {
        CHAOS_SITES
            .iter()
            .copied()
            .filter(|site| !self.sites_covered.iter().any(|s| s == site))
            .collect()
    }

    /// The EXPERIMENTS.md section: run-stable fields only — the rule
    /// sets, the invariant outcomes, and the site coverage. Fire counts
    /// are deliberately omitted (the stress phase's depend on accept
    /// interleaving).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Scripted fault-injection campaign (`repro chaos`), seed `{:#x}`: every \
             phase arms one seeded `dd-chaos` plan, injects faults at the named sites, \
             and asserts the resilience invariants of that layer. Decisions are pure in \
             `(seed, site, key)`, so phases 1\u{2013}5 reproduce exactly; the concurrent \
             stress phase asserts only interleaving-independent invariants.\n\n",
            self.seed,
        ));
        out.push_str("| Phase | Faults injected | Invariants |\n");
        out.push_str("|---|---|---|\n");
        for phase in &self.phases {
            let invariants: Vec<String> = phase
                .invariants
                .iter()
                .map(|i| format!("{} ({})", i.name, if i.pass { "ok" } else { "FAILED" }))
                .collect();
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                phase.name,
                phase.injected.join(", "),
                invariants.join("; "),
            ));
        }
        let missing = self.sites_missing();
        out.push_str(&format!(
            "\nSite coverage: {}/{} injection sites fired ({}).\n",
            CHAOS_SITES.len() - missing.len(),
            CHAOS_SITES.len(),
            if missing.is_empty() {
                "all sites covered".to_string()
            } else {
                format!("missing: {}", missing.join(", "))
            },
        ));
        out.push_str(&format!(
            "Campaign verdict: {}.\n",
            if self.all_pass() {
                "every invariant held, zero server deaths"
            } else {
                "INVARIANT FAILURES — see CHAOS_report.json"
            },
        ));
        out
    }
}

impl Report for ChaosCampaignReport {
    const SCHEMA_VERSION: u64 = CHAOS_REPORT_SCHEMA_VERSION;
    const SCHEMA_NAME: &'static str = "CHAOS_report";

    fn name(&self) -> &str {
        "chaos"
    }

    fn fields(&self, doc: Json) -> Json {
        doc.with("smoke", Json::Bool(self.smoke))
            .with("seed", Json::uint(self.seed))
            .with(
                "phases",
                Json::Arr(self.phases.iter().map(PhaseReport::to_json).collect()),
            )
            .with(
                "sites_covered",
                Json::Arr(self.sites_covered.iter().map(Json::str).collect()),
            )
    }

    fn from_json(json: &Json) -> Result<ChaosCampaignReport, JsonError> {
        Ok(ChaosCampaignReport {
            smoke: json.field_bool("smoke")?,
            seed: json.field_u64("seed")?,
            phases: json
                .field_arr("phases")?
                .iter()
                .map(PhaseReport::from_json)
                .collect::<Result<_, JsonError>>()?,
            sites_covered: json
                .field_arr("sites_covered")?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
        })
    }

    fn section(&self) -> Option<String> {
        Some(self.render_markdown())
    }

    fn summary(&self, path: &Path) -> Vec<(String, Vec<String>)> {
        let invariants: usize = self.phases.iter().map(|p| p.invariants.len()).sum();
        let mut failures: Vec<String> = self
            .failed_invariants()
            .into_iter()
            .map(|(phase, invariant)| format!("chaos invariant FAILED [{phase}] {invariant}"))
            .chain(
                self.sites_missing()
                    .into_iter()
                    .map(|site| format!("chaos site never fired: {site}")),
            )
            .collect();
        if !failures.is_empty() {
            failures.push(format!("chaos campaign FAILED — see {}", path.display()));
        }
        vec![
            (
                format!(
                    "[chaos] {} phases, {invariants} invariants, {}/{} sites fired -> {}",
                    self.phases.len(),
                    self.sites_covered.len(),
                    CHAOS_SITES.len(),
                    path.display(),
                ),
                failures,
            ),
            (
                "[chaos] every invariant held; zero server deaths".to_string(),
                Vec::new(),
            ),
        ]
    }
}

/// Always-fire rate.
const ALWAYS: u32 = 1_000_000;

/// Specs used across the campaign. Distinct `t_rh` overrides make
/// distinct content-addressed cells, so phases never cache-alias.
const SPEC_A: &str = "Baseline (undefended):BFA:lpddr4_small:none";
const SPEC_B: &str = "Baseline (undefended):BFA:lpddr4_small@4801:none";
const SPEC_C: &str = "Baseline (undefended):BFA:lpddr4_small@4802:none";
const SPEC_D: &str = "DNN-Defender:BFA:lpddr4_small:none";
/// A cell with background load: its simulation runs the workload
/// driver, whose batched replay consults the `kernel.chunk_stall`
/// probe on every chunk issue (load-free cells never reach it).
const SPEC_LOADED: &str = "Baseline (undefended):BFA:lpddr4_small:light";

fn campaign_server() -> SweepServer {
    let config = ServerConfig {
        quick: true,
        workers: 2,
        // Generous: regime classification stays out of Storm, so no
        // phase sheds for load reasons and "all done" is deterministic.
        capacity_micros: 600_000_000,
        default_grant_micros: 100_000_000,
    };
    // Fixed calibration (not the artifact dir's): campaign pricing must
    // not depend on whatever BENCH_kernel.json is lying around.
    SweepServer::new(config, CostModel::new(200_000_000, REFERENCE_DEVICE_ROWS))
}

fn parse_specs(specs: &[&str]) -> Result<Vec<CellSpec>, String> {
    specs.iter().map(|s| CellSpec::parse_compact(s)).collect()
}

/// `granted + refunded == charged_gross + remaining` — the conservation
/// law, read off a wire ledger object.
pub fn ledger_balanced(ledger: &Json) -> bool {
    let field = |name| ledger.field_u64(name);
    match (
        field("granted_micros"),
        field("refunded_micros"),
        field("charged_gross_micros"),
        field("remaining_micros"),
    ) {
        (Ok(granted), Ok(refunded), Ok(gross), Ok(remaining)) => {
            granted + refunded == gross + remaining
        }
        _ => false,
    }
}

fn all_done(response: &Json) -> bool {
    response
        .field_arr("results")
        .map(|results| {
            !results.is_empty() && results.iter().all(|r| r.field_str("status") == Ok("done"))
        })
        .unwrap_or(false)
}

/// Response cells rendered as canonical `MatrixReport` bytes, for
/// byte-identity checks against [`batch_report`].
fn served_bytes(response: &Json) -> Option<String> {
    let cells = response_cells(response).ok()?;
    Some(
        dd_baselines::MatrixReport { cells }
            .to_json()
            .render_pretty(),
    )
}

/// Phase 1: every execution attempt panics. The injected panic must be
/// contained by the per-job `catch_unwind`, surfaced as a structured
/// `job_failed` error with the charge refunded, and the server must
/// answer the next request normally.
fn phase_job_panic() -> PhaseReport {
    let mut phase = PhaseReport::new(
        "job-panic",
        "every executor attempt panics; jobs fail structurally with refunds",
        &["executor.job_panic"],
    );
    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED).with_rule("executor.job_panic", ALWAYS),
    );
    let mut server = campaign_server();
    let specs = parse_specs(&[SPEC_A]).expect("campaign specs parse");
    let request = SweepServer::submit_request("panic-client", true, &specs);
    let response = request_inline(&mut server, &request).ok();
    let hello = Json::parse(&server.handle_line("{\"op\":\"hello\"}")).ok();
    let chaos = session.finish();
    phase.absorb(&chaos);

    let result = response
        .as_ref()
        .and_then(|r| r.field_arr("results").ok())
        .and_then(|r| r.first());
    phase.check(
        "panicked job answers a structured job_failed error",
        result.map(|r| {
            r.field_str("status") == Ok("error") && r.field_str("kind") == Ok("job_failed")
        }) == Some(true),
    );
    let ledger = response.as_ref().and_then(|r| r.field("ledger").ok());
    phase.check(
        "failed job is fully refunded (charged 0)",
        ledger.map(|l| l.field_u64("charged_micros") == Ok(0)) == Some(true)
            && ledger
                .map(|l| l.field_u64("refunded_micros").unwrap_or(0) > 0)
                .unwrap_or(false),
    );
    phase.check(
        "budget conservation holds after the failure",
        ledger.map(ledger_balanced).unwrap_or(false),
    );
    phase.check(
        "every retry attempt drew the injected panic",
        chaos.fires_at("executor.job_panic") >= dd_server::MAX_JOB_ATTEMPTS as u64,
    );
    phase.check(
        "server survives injected worker panics",
        hello.map(|h| h.field_bool("ok") == Ok(true)) == Some(true),
    );
    phase
}

/// Phase 2: every job stalls and every kernel chunk issue stalls. Time
/// is lost, state must not be: the served cells must be byte-identical
/// to a disarmed batch run of the same specs.
fn phase_job_stall(smoke: bool) -> PhaseReport {
    let mut phase = PhaseReport::new(
        "job-stall",
        "every job and kernel chunk issue stalls; cells stay byte-identical",
        &["executor.job_stall", "kernel.chunk_stall"],
    );
    let stall_specs: &[&str] = if smoke {
        &[SPEC_LOADED]
    } else {
        &[SPEC_LOADED, SPEC_B]
    };
    let specs = parse_specs(stall_specs).expect("campaign specs parse");
    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED)
            .with_rule("executor.job_stall", ALWAYS)
            .with_rule("kernel.chunk_stall", ALWAYS),
    );
    let mut server = campaign_server();
    let request = SweepServer::submit_request("stall-client", true, &specs);
    let response = request_inline(&mut server, &request).ok();
    let chaos = session.finish();
    phase.absorb(&chaos);

    phase.check(
        "stalled jobs complete",
        response.as_ref().map(all_done).unwrap_or(false),
    );
    phase.check(
        "budget conservation holds under stalls",
        response
            .as_ref()
            .and_then(|r| r.field("ledger").ok())
            .map(ledger_balanced)
            .unwrap_or(false),
    );
    phase.check(
        "job stalls fired on every job",
        chaos.fires_at("executor.job_stall") >= specs.len() as u64,
    );
    phase.check(
        "kernel chunk stalls fired",
        chaos.fires_at("kernel.chunk_stall") >= 1,
    );
    // Disarmed batch twin (fast, no stalls): the bytes must agree.
    let batch = batch_report(&specs, true)
        .map(|report| report.to_json().render_pretty())
        .ok();
    phase.check(
        "cells byte-identical to the batch path under stall faults",
        response.as_ref().and_then(served_bytes).is_some()
            && response.as_ref().and_then(served_bytes) == batch,
    );
    phase
}

/// Phase 3: every cell-cache entry is corrupted at load. Entries must
/// evict individually with accounting — never a crash — and a disarmed
/// reload of the identical file must be clean.
fn phase_cache_corruption() -> PhaseReport {
    let mut phase = PhaseReport::new(
        "cache-corruption",
        "every cache entry is corrupted at load; eviction is accounted, reload is clean",
        &["cache.corrupt_entry"],
    );
    let dir = std::env::temp_dir().join(format!("dd-chaos-campaign-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("cells.json");

    let matrix = ScenarioMatrix::new(VictimSpec::tiny_mlp(7))
        .budget(2)
        .defense_kind(DefenseKind::Undefended)
        .threads(1);
    let (saved, key) = match matrix.run() {
        Ok(report) => {
            let key = matrix.cell_keys()[0].1;
            let cells = HashMap::from([(key, report.cells[0].clone())]);
            (save_cell_cache(&path, &cells).is_ok(), Some(key))
        }
        Err(_) => (false, None),
    };
    phase.check("seed cache written atomically", saved && key.is_some());

    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED).with_rule("cache.corrupt_entry", ALWAYS),
    );
    let corrupted = load_cell_cache(&path);
    let chaos = session.finish();
    phase.absorb(&chaos);

    phase.check(
        "corrupt entries evict individually with accounting",
        corrupted.cells.is_empty() && corrupted.corrupt_evicted == 1 && !corrupted.evicted_all,
    );
    phase.check(
        "corruption fired through the real decode path",
        chaos.fires_at("cache.corrupt_entry") == 1,
    );
    let clean = load_cell_cache(&path);
    phase.check(
        "disarmed reload of the same file is clean",
        clean.cells.len() == 1 && clean.corrupt_evicted == 0,
    );
    let _ = std::fs::remove_dir_all(&dir);
    phase
}

/// Phase 4: transient failures at the client's submit path. Retry must
/// be bounded (a structured failure once attempts are exhausted) and
/// must absorb partial fault rates transparently.
fn phase_client_transient() -> PhaseReport {
    let mut phase = PhaseReport::new(
        "client-transient",
        "client submit attempts fail transiently; bounded retry absorbs or fails structurally",
        &["client.submit_transient"],
    );
    let policy = RetryPolicy {
        attempts: 3,
        base_delay_ms: 1,
        seed: CHAOS_CAMPAIGN_SEED,
    };

    // Sub-run 1: every attempt fails — the retry budget must bound the
    // loop and fail with a structured message, never hang.
    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED).with_rule("client.submit_transient", ALWAYS),
    );
    let mut client = ServiceClient::local(campaign_server(), policy);
    let exhausted = client.request("{\"op\":\"hello\"}");
    let chaos = session.finish();
    phase.absorb(&chaos);
    phase.check(
        "retry is bounded: exhausted attempts fail structurally",
        matches!(&exhausted, Err(e) if e.contains("after 3 attempt")),
    );
    phase.check(
        "every attempt drew the injected fault",
        chaos.fires_at("client.submit_transient") == 3,
    );

    // Sub-run 2: a 40% fault rate — the seeded backoff must converge on
    // every request (verified deterministic for the campaign seed).
    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED).with_rule("client.submit_transient", 400_000),
    );
    let policy = RetryPolicy {
        attempts: 6,
        ..policy
    };
    let mut client = ServiceClient::local(campaign_server(), policy);
    let specs = parse_specs(&[SPEC_C]).expect("campaign specs parse");
    let hello = client.request("{\"op\":\"hello\"}");
    let submit = client.request_json(&SweepServer::submit_request(
        "transient-client",
        true,
        &specs,
    ));
    let chaos = session.finish();
    phase.absorb(&chaos);
    phase.check(
        "partial fault rates are absorbed by retry",
        hello.is_ok() && submit.as_ref().map(all_done).unwrap_or(false),
    );
    phase.check(
        "transient faults actually fired during the absorbed run",
        chaos.fires_at("client.submit_transient") >= 1,
    );
    phase.check(
        "budget conservation holds at the absorbing client",
        submit
            .as_ref()
            .ok()
            .and_then(|r| r.field("ledger").ok())
            .map(ledger_balanced)
            .unwrap_or(false),
    );
    phase
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dd-chaos-{tag}-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id(),
    ))
}

type ServerHandle = std::thread::JoinHandle<Result<(), String>>;

fn spawn_campaign_server(endpoint: &Endpoint) -> Result<(ServerHandle, Endpoint), String> {
    let bound = BoundListener::bind(endpoint)?;
    let remote = bound.endpoint();
    let handle =
        std::thread::spawn(move || bound.serve(campaign_server(), Some(Duration::from_secs(30))));
    Ok((handle, remote))
}

/// Phase 5: the wire under fire. Response frames are dropped and
/// corrupted on a live Unix socket; the retrying client must converge
/// on every request, the wire ledger must conserve budget (dropped
/// responses to charged work must not double-charge on retry), and the
/// armed fault plane must be visible in the `stats` reply.
fn phase_connection_faults() -> PhaseReport {
    let mut phase = PhaseReport::new(
        "connection-faults",
        "server drops and corrupts response frames; the retrying client converges",
        &["server.conn_drop", "server.frame_corrupt"],
    );
    let socket = temp_socket("conn");
    let spawned = spawn_campaign_server(&Endpoint::Unix(socket.clone()));
    let Ok((server, remote)) = spawned else {
        phase.check("unix campaign server binds", false);
        return phase;
    };
    phase.check("unix campaign server binds", true);

    let session = dd_chaos::arm(
        ChaosPlan::inert(CHAOS_CAMPAIGN_SEED)
            .with_rule("server.conn_drop", 250_000)
            .with_rule("server.frame_corrupt", 500_000),
    );
    let mut client = ServiceClient::remote(
        remote,
        RetryPolicy {
            attempts: 8,
            base_delay_ms: 2,
            seed: CHAOS_CAMPAIGN_SEED,
        },
    );
    let grant = Json::obj()
        .with("op", Json::str("budget"))
        .with("client", Json::str("wire-client"))
        .with("grant_micros", Json::uint(50_000_000))
        .with("txn", Json::str("chaos-wire-grant"));
    let granted = client.request_json(&grant);
    let specs = parse_specs(&[SPEC_A, SPEC_D]).expect("campaign specs parse");
    let submit = client.request_json(&SweepServer::submit_request("wire-client", true, &specs));
    let stats = client.request("{\"op\":\"stats\"}");
    let chaos = session.finish();
    phase.absorb(&chaos);

    phase.check(
        "grant with txn token converges under dropped frames",
        granted.map(|g| g.field_bool("ok") == Ok(true)) == Ok(true),
    );
    phase.check(
        "submits converge under dropped and corrupted frames",
        submit.as_ref().map(all_done).unwrap_or(false),
    );
    phase.check(
        "budget conservation holds on the wire ledger (no double charge)",
        submit
            .as_ref()
            .ok()
            .and_then(|r| r.field("ledger").ok())
            .map(ledger_balanced)
            .unwrap_or(false),
    );
    phase.check(
        "fault activity is visible in the stats reply",
        stats
            .as_ref()
            .ok()
            .and_then(|s| s.field("chaos").ok())
            .map(|c| c.field_u64("seed") == Ok(CHAOS_CAMPAIGN_SEED))
            .unwrap_or(false),
    );
    phase.check(
        "connection faults actually fired",
        chaos.fires_at("server.conn_drop") >= 1 && chaos.fires_at("server.frame_corrupt") >= 1,
    );

    // Disarmed shutdown: the drain path itself is exercised (fault-free)
    // and the server thread must exit cleanly — zero process deaths.
    let bye = client.request("{\"op\":\"shutdown\"}");
    let joined = server.join();
    phase.check(
        "server shuts down cleanly after the fault window",
        bye.is_ok() && matches!(joined, Ok(Ok(()))),
    );
    phase.check("socket file removed on shutdown", !socket.exists());
    phase
}

/// Phase 6: concurrent stress over both transports. Several clients
/// submit in parallel while interleaving-independent faults (connection
/// drops, client transients, job stalls) are armed. Only
/// interleaving-independent invariants are asserted: per-client budget
/// conservation read from the wire, byte-identity of every served cell,
/// and server survival.
fn phase_concurrent_stress(smoke: bool) -> PhaseReport {
    let mut phase = PhaseReport::new(
        "concurrent-stress",
        "parallel clients over unix+tcp under drops, transients, and stalls",
        &[
            "server.conn_drop",
            "client.submit_transient",
            "executor.job_stall",
        ],
    );
    let clients_per_transport = if smoke { 2 } else { 3 };
    let spec_sets: Vec<Vec<&str>> = if smoke {
        vec![vec![SPEC_A], vec![SPEC_B]]
    } else {
        vec![vec![SPEC_A, SPEC_B], vec![SPEC_C], vec![SPEC_D, SPEC_A]]
    };
    // Disarmed batch twins, one per spec set (computed once, compared
    // against every transport's serving of the same set).
    let batch_bytes: Vec<Option<String>> = spec_sets
        .iter()
        .map(|set| {
            let specs = parse_specs(set).ok()?;
            batch_report(&specs, true)
                .ok()
                .map(|report| report.to_json().render_pretty())
        })
        .collect();
    phase.check(
        "batch twins computed for every stress spec set",
        batch_bytes.iter().all(Option::is_some),
    );

    for transport in ["unix", "tcp"] {
        let endpoint = match transport {
            "unix" => Endpoint::Unix(temp_socket("stress")),
            _ => Endpoint::Tcp("127.0.0.1:0".to_string()),
        };
        let spawned = spawn_campaign_server(&endpoint);
        let Ok((server, remote)) = spawned else {
            phase.check(&format!("{transport} stress server binds"), false);
            continue;
        };

        let session = dd_chaos::arm(
            ChaosPlan::inert(CHAOS_CAMPAIGN_SEED)
                .with_rule("server.conn_drop", 150_000)
                .with_rule("client.submit_transient", 150_000)
                .with_rule("executor.job_stall", 300_000),
        );
        let outcomes: Vec<(String, Result<Json, String>, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients_per_transport)
                .map(|i| {
                    let remote = remote.clone();
                    let set = i % spec_sets.len();
                    let specs = parse_specs(&spec_sets[set]).expect("campaign specs parse");
                    let name = format!("stress-{transport}-{i}");
                    scope.spawn(move || {
                        let mut client = ServiceClient::remote(
                            remote,
                            RetryPolicy {
                                attempts: 10,
                                base_delay_ms: 2,
                                seed: CHAOS_CAMPAIGN_SEED ^ i as u64,
                            },
                        );
                        let grant = Json::obj()
                            .with("op", Json::str("budget"))
                            .with("client", Json::str(name.clone()))
                            .with("grant_micros", Json::uint(100_000_000))
                            .with("txn", Json::str(format!("chaos-stress-{name}")));
                        let submit = client.request_json(&grant).and_then(|_| {
                            client.request_json(&SweepServer::submit_request(&name, true, &specs))
                        });
                        (name, submit, set)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stress client thread"))
                .collect()
        });
        let chaos = session.finish();
        phase.absorb(&chaos);

        phase.check(
            &format!("{transport}: every stressed client converges to all-done"),
            outcomes
                .iter()
                .all(|(_, r, _)| r.as_ref().map(all_done).unwrap_or(false)),
        );
        phase.check(
            &format!("{transport}: every served cell byte-identical to the batch path"),
            outcomes.iter().all(|(_, r, set)| {
                r.as_ref().ok().and_then(served_bytes).is_some()
                    && r.as_ref().ok().and_then(served_bytes) == batch_bytes[*set]
            }),
        );

        // Per-client conservation, read from the wire after the fault
        // window (a clean client so the read itself cannot flake).
        let mut reader = ServiceClient::remote(remote, RetryPolicy::default());
        let stats = reader.request("{\"op\":\"stats\"}");
        let balanced = stats
            .as_ref()
            .ok()
            .and_then(|s| s.field("clients").ok())
            .map(|clients| match clients {
                Json::Obj(entries) => {
                    !entries.is_empty() && entries.iter().all(|(_, l)| ledger_balanced(l))
                }
                _ => false,
            })
            .unwrap_or(false);
        phase.check(
            &format!("{transport}: per-client budget conservation holds on the wire"),
            balanced,
        );
        let bye = reader.request("{\"op\":\"shutdown\"}");
        let joined = server.join();
        phase.check(
            &format!("{transport}: server survives the stress window and drains"),
            bye.is_ok() && matches!(joined, Ok(Ok(()))),
        );
    }
    phase
}

/// Suppress the default panic-hook backtrace spam for *injected* panics
/// (they are expected and caught); real panics still print. Installed
/// once per process.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Run the full campaign. Invariant failures are recorded in the report
/// (and printed as they happen), not panicked; callers gate on
/// [`ChaosCampaignReport::all_pass`].
///
/// # Errors
///
/// Returns an error only for harness-level failures (a campaign spec
/// that does not parse, a poisoned client thread) — never for a failed
/// resilience invariant.
pub fn run_chaos_campaign(smoke: bool) -> Result<ChaosCampaignReport, String> {
    quiet_injected_panics();
    let phases = vec![
        phase_job_panic(),
        phase_job_stall(smoke),
        phase_cache_corruption(),
        phase_client_transient(),
        phase_connection_faults(),
        phase_concurrent_stress(smoke),
    ];
    let mut covered: Vec<String> = phases
        .iter()
        .flat_map(|p| {
            p.sites
                .iter()
                .filter(|(_, &(_, fires))| fires > 0)
                .map(|(site, _)| site.clone())
        })
        .collect();
    covered.sort();
    covered.dedup();
    Ok(ChaosCampaignReport {
        smoke,
        seed: CHAOS_CAMPAIGN_SEED,
        phases,
        sites_covered: covered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ChaosCampaignReport {
        ChaosCampaignReport {
            smoke: true,
            seed: CHAOS_CAMPAIGN_SEED,
            phases: vec![PhaseReport {
                name: "job-panic".into(),
                detail: "every attempt panics".into(),
                injected: vec!["executor.job_panic".into()],
                sites: BTreeMap::from([("executor.job_panic".into(), (3, 3))]),
                invariants: vec![Invariant {
                    name: "refunded".into(),
                    pass: true,
                }],
            }],
            sites_covered: CHAOS_SITES.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn chaos_report_json_round_trips() {
        let report = sample_report();
        let text = report.to_json().render_pretty();
        let back = ChaosCampaignReport::parse(&text).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(back.to_json().render_pretty(), text);
    }

    #[test]
    fn verdict_reflects_invariants_and_coverage() {
        let good = sample_report();
        assert!(good.all_pass());
        assert!(good.sites_missing().is_empty());

        let mut failed = sample_report();
        failed.phases[0].invariants[0].pass = false;
        assert!(!failed.all_pass());
        assert_eq!(failed.failed_invariants().len(), 1);
        assert!(failed.render_markdown().contains("FAILED"));

        let mut uncovered = sample_report();
        uncovered.sites_covered.retain(|s| s != "server.conn_drop");
        assert!(!uncovered.all_pass());
        assert_eq!(uncovered.sites_missing(), vec!["server.conn_drop"]);
    }

    #[test]
    fn markdown_renders_stable_fields_only() {
        let report = sample_report();
        let md = report.render_markdown();
        assert!(md.contains("| job-panic |"));
        assert!(md.contains("executor.job_panic"));
        assert!(md.contains("all sites covered"));
        // Fire counts are interleaving-dependent in the stress phase and
        // must never appear in the spliced section.
        assert!(!md.contains("(3, 3)"));
    }
}
