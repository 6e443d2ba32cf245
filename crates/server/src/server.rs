//! The resident sweep server: protocol handling, admission control,
//! budget accounting, regime switching, and cache invalidation.
//!
//! One [`SweepServer`] owns the content-addressed cell cache, the
//! per-client [`ClientLedger`]s, and the lifetime [`ServerStats`]. Each
//! request is one line of JSON; [`SweepServer::handle_line`] always
//! answers with one line — malformed input, unknown ops, overdrafts, and
//! overload all come back as structured responses, never as a hang or a
//! dropped connection.
//!
//! ## Submit pipeline
//!
//! 1. every cell spec is parsed, keyed ([`SweepBase::cell_key`]) and
//!    priced ([`CostModel::price_micros`] over
//!    [`SweepBase::estimated_commands`] × device rows);
//! 2. cache hits are answered immediately and charged nothing — warm
//!    clients pay only for the delta;
//! 3. misses charge their *estimate* against the client's
//!    [`dnn_defender::BudgetAccount`] at admission (so `charged ≤ granted` holds by
//!    construction; actual wall time is a metric, not a charge) or get a
//!    `rejected`/`budget_exhausted` response;
//! 4. the admitted backlog — *plus the estimated work still in flight on
//!    the executor from concurrent requests* — is classified into a
//!    [`Regime`]; a storm sheds the lowest-priority pending cells (newest
//!    first among ties, always keeping at least one so the server makes
//!    progress), refunding each and answering `shed`/`storm_overload`;
//! 5. survivors run on the work-stealing executor and land in the cache.
//!
//! ## Concurrency and failure semantics
//!
//! The pipeline is split into three phases so a connection loop can drop
//! the server lock while cells simulate: [`SweepServer::begin_line`]
//! (parse + admit, under the lock), [`SweepServer::execute_prepared`]
//! (pure compute, **no** `&self`), and [`SweepServer::complete_submit`]
//! (resolve + respond, under the lock again). [`SweepServer::handle_line`]
//! runs all three inline for single-threaded callers. Admission charges
//! the *live* ledger, so `charged ≤ granted` holds across interleaved
//! requests, and the estimated pending work is tracked in an in-flight
//! gauge that later admissions classify against (cross-request backlog
//! carry-over).
//!
//! Execution is panic-isolated: a worker panic (real or `dd-chaos`
//! injected) retries up to [`MAX_JOB_ATTEMPTS`] times and then comes back
//! as a structured `job_failed` error with the admission charge refunded —
//! never process death. A submit admitted before a `shutdown` op can be
//! drained normally or aborted with [`SweepServer::abort_submit`], which
//! refunds every pending cell (`shed`/`shutting_down`).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dd_baselines::{dram_label, CellReport, RunMemo, Scenario};
use dnn_defender::{CostModel, Json, Regime};

use crate::executor::{run_work_stealing_grouped_isolated, JobOutcome, JobRun};
use crate::metrics::{ClientLedger, ServerStats};
use crate::spec::{CellSpec, DeviceSpec, SweepBase};
use crate::SERVER_PROTOCOL_VERSION;

/// Total execution attempts per job before it is terminally `job_failed`
/// (1 initial + 2 panic retries).
pub const MAX_JOB_ATTEMPTS: u32 = 3;

/// Tunables of a [`SweepServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Quick (smoke) mode: smaller attempt budgets, same protocol.
    pub quick: bool,
    /// Executor worker threads per submit.
    pub workers: usize,
    /// Planning capacity in estimated microseconds: the backlog level the
    /// regime classification calls "full". Backlog ≤ capacity is Calm,
    /// ≤ 2× is PreStorm, beyond that is Storm (which sheds back down to
    /// capacity).
    pub capacity_micros: u64,
    /// Budget granted to a client on first contact (the `budget` op can
    /// grant more, or create a client with an exact grant).
    pub default_grant_micros: u64,
}

impl ServerConfig {
    /// Sensible defaults: one worker per core, a 60-simulated-seconds
    /// planning capacity, and a 10-simulated-seconds default grant.
    pub fn standard(quick: bool) -> Self {
        ServerConfig {
            quick,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            capacity_micros: 60_000_000,
            default_grant_micros: 10_000_000,
        }
    }
}

/// The resident sweep engine (see the module docs for the pipeline).
pub struct SweepServer {
    config: ServerConfig,
    cost: CostModel,
    base: SweepBase,
    cache: HashMap<u64, CellReport>,
    clients: BTreeMap<String, ClientLedger>,
    stats: ServerStats,
    last_regime: Option<Regime>,
    shutdown: bool,
    /// Estimated microseconds admitted but not yet completed (submits
    /// between `begin_line` and `complete_submit`/`abort_submit`). Later
    /// admissions classify their regime against `offered + inflight`.
    inflight_micros: u64,
    /// Trained victims and attacker searches, shared by every cell this
    /// server computes (each cell is a one-cell matrix).
    memo: Arc<RunMemo>,
}

/// Per-cell admission state inside one submit request.
enum Slot {
    Done {
        spec_label: String,
        key: u64,
        cache_hit: bool,
        priority: i64,
        estimate_micros: u64,
        queue_micros: u64,
        wall_micros: u64,
        worker: usize,
        stolen: bool,
        cell: Box<CellReport>,
    },
    Rejected {
        spec_label: String,
        key: u64,
        estimate_micros: u64,
        remaining_micros: u64,
    },
    Shed {
        spec_label: String,
        key: u64,
        estimate_micros: u64,
        priority: i64,
        reason: &'static str,
    },
    Error {
        message: String,
        /// Structured failure class: `bad_spec` (unparseable cell),
        /// `job_failed` (execution failed or panicked out of retries),
        /// `duplicate_incomplete`, or `internal`.
        kind: &'static str,
    },
    Pending {
        spec: CellSpec,
        spec_label: String,
        key: u64,
        estimate_micros: u64,
    },
    Duplicate {
        spec_label: String,
        key: u64,
    },
}

fn error_response(op: &str, message: impl Into<String>) -> Json {
    Json::obj()
        .with("ok", Json::Bool(false))
        .with("op", Json::str(op))
        .with("protocol", Json::uint(SERVER_PROTOCOL_VERSION))
        .with("error", Json::str(message.into()))
}

fn ok_response(op: &str) -> Json {
    Json::obj()
        .with("ok", Json::Bool(true))
        .with("op", Json::str(op))
        .with("protocol", Json::uint(SERVER_PROTOCOL_VERSION))
}

/// One admitted-but-not-yet-run cell, carried from admission to execution.
struct ExecJob {
    slot: usize,
    spec: CellSpec,
    spec_label: String,
    key: u64,
}

/// A submit request that passed admission (passes 1–2) and is ready to
/// execute. Produced by [`SweepServer::begin_line`] under the server lock;
/// the caller runs [`SweepServer::execute_prepared`] *without* the lock and
/// finishes with [`SweepServer::complete_submit`] (or
/// [`SweepServer::abort_submit`] on shutdown).
pub struct PreparedSubmit {
    client: String,
    request_seq: u64,
    regime: Regime,
    backlog_micros: u64,
    carryover_micros: u64,
    pending_micros: u64,
    slots: Vec<Slot>,
    jobs: Vec<ExecJob>,
    affinity: Vec<u64>,
    workers: usize,
    base: SweepBase,
    memo: Arc<RunMemo>,
}

/// A prepared submit whose jobs have run; feed to
/// [`SweepServer::complete_submit`].
pub struct ExecutedSubmit {
    prepared: PreparedSubmit,
    runs: Vec<JobRun<JobOutcome<Result<CellReport, String>>>>,
}

/// What [`SweepServer::begin_line`] produced for one request line.
pub enum LineOutcome {
    /// The request was fully handled (any non-submit op, or a submit that
    /// failed before admission); here is the response line.
    Response(String),
    /// A submit passed admission: execute it (without the server lock) and
    /// complete it.
    Submit(Box<PreparedSubmit>),
}

impl SweepServer {
    /// A fresh server with an empty cache and an empty run memo.
    pub fn new(config: ServerConfig, cost: CostModel) -> Self {
        SweepServer {
            base: SweepBase::standard(config.quick),
            config,
            cost,
            cache: HashMap::new(),
            clients: BTreeMap::new(),
            stats: ServerStats::default(),
            last_regime: None,
            shutdown: false,
            inflight_micros: 0,
            memo: Arc::default(),
        }
    }

    /// Warm-start the cache (e.g. from `artifacts/cache/cells.json`).
    pub fn with_cache(mut self, cache: HashMap<u64, CellReport>) -> Self {
        self.cache = cache;
        self
    }

    /// The content-addressed cell cache (key → report).
    pub fn cache(&self) -> &HashMap<u64, CellReport> {
        &self.cache
    }

    /// Consume the server, returning the cache (so a harness can merge
    /// server-computed cells back into the shared batch cache).
    pub fn into_cache(self) -> HashMap<u64, CellReport> {
        self.cache
    }

    /// Whether a `shutdown` op has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Estimated microseconds admitted but not yet completed (non-zero
    /// only between `begin_line` and `complete_submit`/`abort_submit` on
    /// concurrent connections).
    pub fn inflight_micros(&self) -> u64 {
        self.inflight_micros
    }

    /// The server's sweep base (fixed victim/attack/budget constants).
    pub fn sweep_base(&self) -> SweepBase {
        self.base
    }

    /// Price one spec exactly as admission will.
    pub fn price_micros(&self, spec: &CellSpec) -> u64 {
        self.cost
            .price_micros(self.base.estimated_commands(spec), spec.device.rows())
    }

    /// Handle one request line, returning exactly one response line
    /// (without trailing newline). Never panics on malformed input. Runs
    /// the full admit → execute → complete pipeline inline; concurrent
    /// connection loops use [`SweepServer::begin_line`] instead so
    /// execution happens outside the server lock.
    pub fn handle_line(&mut self, line: &str) -> String {
        let response = match Json::parse(line) {
            Ok(request) => self.handle(&request),
            Err(e) => error_response("?", format!("bad request line: {e}")),
        };
        response.render_compact()
    }

    /// Handle one parsed request, inline.
    pub fn handle(&mut self, request: &Json) -> Json {
        match self.begin_request(request) {
            Err(response) => response,
            Ok(prepared) => {
                let executed = Self::execute_prepared(prepared);
                self.complete(executed)
            }
        }
    }

    /// Phase 1 of the concurrent pipeline: parse the line and, for submit
    /// requests, run admission (under whatever lock guards `&mut self`).
    /// Non-submit ops are answered immediately.
    pub fn begin_line(&mut self, line: &str) -> LineOutcome {
        match Json::parse(line) {
            Ok(request) => match self.begin_request(&request) {
                Err(response) => LineOutcome::Response(response.render_compact()),
                Ok(prepared) => LineOutcome::Submit(Box::new(prepared)),
            },
            Err(e) => LineOutcome::Response(
                error_response("?", format!("bad request line: {e}")).render_compact(),
            ),
        }
    }

    fn begin_request(&mut self, request: &Json) -> Result<PreparedSubmit, Json> {
        self.stats.requests += 1;
        let op = match request.field_str("op") {
            Ok(op) => op.to_string(),
            Err(e) => return Err(error_response("?", e.message)),
        };
        Err(match op.as_str() {
            "hello" => self.op_hello(),
            "budget" => self.op_budget(request),
            "submit" => return self.admit_submit(request),
            "invalidate" => self.op_invalidate(request),
            "stats" => self.op_stats(),
            "shutdown" => {
                self.shutdown = true;
                ok_response("shutdown")
            }
            other => error_response(&op, format!("unknown op `{other}`")),
        })
    }

    /// Phase 3 of the concurrent pipeline: fold executed jobs back into
    /// the server state and build the response (under the lock again).
    pub fn complete_submit(&mut self, executed: ExecutedSubmit) -> Json {
        self.complete(executed)
    }

    /// Abort a prepared submit whose jobs never ran (e.g. a `shutdown`
    /// landed between admission and execution): every pending cell is
    /// refunded and answered `shed`/`shutting_down`; already-resolved
    /// slots (cache hits, rejections) are reported normally.
    pub fn abort_submit(&mut self, prepared: PreparedSubmit) -> Json {
        let mut prepared = prepared;
        for job in std::mem::take(&mut prepared.jobs) {
            let ExecJob {
                slot,
                spec,
                spec_label,
                key,
            } = job;
            let estimate = match &prepared.slots[slot] {
                Slot::Pending {
                    estimate_micros, ..
                } => *estimate_micros,
                _ => 0,
            };
            prepared.slots[slot] = Slot::Shed {
                spec_label,
                key,
                estimate_micros: estimate,
                priority: spec.priority,
                reason: "shutting_down",
            };
        }
        self.complete(ExecutedSubmit {
            prepared,
            runs: Vec::new(),
        })
    }

    fn op_hello(&self) -> Json {
        ok_response("hello")
            .with("quick", Json::Bool(self.config.quick))
            .with("workers", Json::uint(self.config.workers as u64))
            .with("capacity_micros", Json::uint(self.config.capacity_micros))
            .with(
                "default_grant_micros",
                Json::uint(self.config.default_grant_micros),
            )
            .with("commands_per_sec", Json::uint(self.cost.commands_per_sec()))
            .with("reference_rows", Json::uint(self.cost.reference_rows()))
            .with("cache_cells", Json::uint(self.cache.len() as u64))
    }

    fn op_budget(&mut self, request: &Json) -> Json {
        let client = match request.field_str("client") {
            Ok(c) => c.to_string(),
            Err(e) => return error_response("budget", e.message),
        };
        let grant = match request.field_u64("grant_micros") {
            Ok(g) => g,
            Err(e) => return error_response("budget", e.message),
        };
        // Idempotency: a grant carrying a `txn` token the ledger already
        // applied is acknowledged without granting again, so clients can
        // resend a grant whose response was lost to a dropped connection.
        let txn = request.get("txn").and_then(Json::as_str).map(String::from);
        if let Some(txn) = &txn {
            if let Some(ledger) = self.clients.get(&client) {
                if ledger.last_grant_txn.as_deref() == Some(txn) {
                    return ok_response("budget")
                        .with("client", Json::str(client))
                        .with("duplicate_txn", Json::Bool(true))
                        .with("ledger", ledger.to_json());
                }
            }
        }
        let ledger = self
            .clients
            .entry(client.clone())
            .and_modify(|l| l.account.grant(grant))
            .or_insert_with(|| ClientLedger::with_grant(grant));
        ledger.last_grant_txn = txn;
        ok_response("budget")
            .with("client", Json::str(client))
            .with("ledger", ledger.to_json())
    }

    fn op_stats(&self) -> Json {
        let clients = self
            .clients
            .iter()
            .map(|(name, ledger)| (name.clone(), ledger.to_json()))
            .collect();
        let mut response = ok_response("stats")
            .with("quick", Json::Bool(self.config.quick))
            .with("workers", Json::uint(self.config.workers as u64))
            .with("capacity_micros", Json::uint(self.config.capacity_micros))
            .with("inflight_micros", Json::uint(self.inflight_micros))
            .with("cache_cells", Json::uint(self.cache.len() as u64))
            .with("stats", self.stats.to_json())
            .with("clients", Json::Obj(clients));
        // Surface fault-plane activity when a dd-chaos campaign is armed,
        // so injected faults are observable over the wire.
        if let Some(report) = dd_chaos::snapshot() {
            let sites = report
                .sites
                .iter()
                .map(|(site, s)| {
                    (
                        site.clone(),
                        Json::obj()
                            .with("checks", Json::uint(s.checks))
                            .with("fires", Json::uint(s.fires)),
                    )
                })
                .collect();
            response = response.with(
                "chaos",
                Json::obj()
                    .with("seed", Json::uint(report.seed))
                    .with("sites", Json::Obj(sites)),
            );
        }
        response
    }

    fn op_invalidate(&mut self, request: &Json) -> Json {
        if request.get("all").and_then(Json::as_bool) == Some(true) {
            let evicted = self.cache.len() as u64;
            self.cache.clear();
            self.stats.invalidated += evicted;
            return ok_response("invalidate")
                .with("evicted", Json::uint(evicted))
                .with("cache_cells", Json::uint(0));
        }
        let axis = match request.field_str("axis") {
            Ok(a) => a.to_string(),
            Err(e) => return error_response("invalidate", e.message),
        };
        let value = match request.field_str("value") {
            Ok(v) => v.to_string(),
            Err(e) => return error_response("invalidate", e.message),
        };
        // `device` takes a DeviceSpec label and is translated to the
        // scenario's dram label; the other axes match scenario fields
        // directly, so a single changed axis evicts exactly its slice.
        let matches: Box<dyn Fn(&Scenario) -> bool> = match axis.as_str() {
            "defense" => Box::new(move |s: &Scenario| s.defense == value),
            "attacker" => Box::new(move |s: &Scenario| s.attacker == value),
            "workload" => Box::new(move |s: &Scenario| s.workload == value),
            "device" => {
                let Some(device) = DeviceSpec::parse(&value) else {
                    return error_response("invalidate", format!("unknown device `{value}`"));
                };
                let label = dram_label(&device.config());
                Box::new(move |s: &Scenario| s.dram == label)
            }
            other => {
                return error_response(
                    "invalidate",
                    format!("unknown axis `{other}` (defense|attacker|device|workload)"),
                )
            }
        };
        let before = self.cache.len();
        self.cache.retain(|_, cell| !matches(&cell.scenario));
        let evicted = (before - self.cache.len()) as u64;
        self.stats.invalidated += evicted;
        ok_response("invalidate")
            .with("axis", Json::str(axis))
            .with("evicted", Json::uint(evicted))
            .with("cache_cells", Json::uint(self.cache.len() as u64))
    }

    /// Passes 1–2 of the submit pipeline: parse, key, price, charge the
    /// live ledger, classify the regime against offered + in-flight load,
    /// shed under storm. Runs under the server lock; returns the prepared
    /// submit for lock-free execution (or the finished response on
    /// pre-admission errors).
    fn admit_submit(&mut self, request: &Json) -> Result<PreparedSubmit, Json> {
        if self.shutdown {
            return Err(error_response("submit", "server is shutting down")
                .with("kind", Json::str("shutting_down")));
        }
        let client = request
            .get("client")
            .and_then(Json::as_str)
            .unwrap_or("anon")
            .to_string();
        if let Some(quick) = request.get("quick").and_then(Json::as_bool) {
            if quick != self.config.quick {
                return Err(error_response(
                    "submit",
                    format!(
                        "quick-mode mismatch: client submitted quick={quick}, server runs quick={}",
                        self.config.quick
                    ),
                ));
            }
        }
        let cells = match request.field_arr("cells") {
            Ok(cells) => cells,
            Err(e) => return Err(error_response("submit", e.message)),
        };

        let default_grant = self.config.default_grant_micros;
        let ledger = self
            .clients
            .entry(client.clone())
            .or_insert_with(|| ClientLedger::with_grant(default_grant));
        ledger.submitted += cells.len() as u64;
        self.stats.jobs += cells.len() as u64;

        // Pass 1 — parse, key, price, admit. `base` and `cost` are copied
        // out so the live-ledger borrow of `self.clients` can coexist with
        // cache reads and stats updates (disjoint fields).
        let base = self.base;
        let cost = self.cost;
        let pass_span = dd_obs::span_with("server.parse", || format!("client={client}"));
        let mut slots: Vec<Slot> = Vec::with_capacity(cells.len());
        let mut pending_keys: HashMap<u64, usize> = HashMap::new();
        for cell in cells {
            let spec = match CellSpec::from_json(cell) {
                Ok(spec) => spec,
                Err(e) => {
                    slots.push(Slot::Error {
                        message: e.message,
                        kind: "bad_spec",
                    });
                    continue;
                }
            };
            let (_, key) = base.cell_key(&spec);
            let estimate_micros =
                cost.price_micros(base.estimated_commands(&spec), spec.device.rows());
            self.stats.hist_estimate_micros.record(estimate_micros);
            let spec_label = spec.label();
            if let Some(hit) = self.cache.get(&key) {
                slots.push(Slot::Done {
                    spec_label,
                    key,
                    cache_hit: true,
                    priority: spec.priority,
                    estimate_micros,
                    queue_micros: 0,
                    wall_micros: 0,
                    worker: 0,
                    stolen: false,
                    cell: Box::new(hit.clone()),
                });
                continue;
            }
            if pending_keys.contains_key(&key) {
                slots.push(Slot::Duplicate { spec_label, key });
                continue;
            }
            match ledger.account.try_charge(estimate_micros) {
                Ok(()) => {
                    pending_keys.insert(key, slots.len());
                    slots.push(Slot::Pending {
                        spec,
                        spec_label,
                        key,
                        estimate_micros,
                    });
                }
                Err(e) => slots.push(Slot::Rejected {
                    spec_label,
                    key,
                    estimate_micros,
                    remaining_micros: e.remaining_micros,
                }),
            }
        }

        // Pass 2 — classify the offered backlog *plus* the estimated work
        // still in flight from concurrently admitted submits, shed under
        // storm.
        drop(pass_span);
        let pass_span = dd_obs::span("server.shed");
        let capacity = self.config.capacity_micros;
        let carryover_micros = self.inflight_micros;
        let mut backlog: u64 = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Pending {
                    estimate_micros, ..
                } => Some(*estimate_micros),
                _ => None,
            })
            .sum();
        let regime = Regime::classify(backlog.saturating_add(carryover_micros), capacity);
        if self.last_regime != Some(regime) {
            let offered = backlog;
            dd_obs::event("server.regime", || {
                format!(
                    "regime={} backlog_micros={offered} carryover_micros={carryover_micros}",
                    regime.label()
                )
            });
            self.last_regime = Some(regime);
        }
        if regime == Regime::Storm {
            loop {
                let pending: Vec<(usize, i64, u64)> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        Slot::Pending {
                            spec,
                            estimate_micros,
                            ..
                        } => Some((i, spec.priority, *estimate_micros)),
                        _ => None,
                    })
                    .collect();
                if backlog.saturating_add(carryover_micros) <= capacity || pending.len() <= 1 {
                    break;
                }
                // Lowest priority first; newest submission among ties.
                let Some(&(victim, _, estimate)) = pending
                    .iter()
                    .min_by_key(|&&(i, priority, _)| (priority, std::cmp::Reverse(i)))
                else {
                    break;
                };
                let Slot::Pending {
                    spec,
                    spec_label,
                    key,
                    ..
                } = std::mem::replace(
                    &mut slots[victim],
                    Slot::Error {
                        message: String::new(),
                        kind: "internal",
                    },
                )
                else {
                    // Defensive: never tear down the request path over an
                    // internal bookkeeping slip.
                    slots[victim] = Slot::Error {
                        message: "internal: shed victim was not pending".to_string(),
                        kind: "internal",
                    };
                    break;
                };
                ledger.account.refund(estimate);
                backlog -= estimate;
                pending_keys.remove(&key);
                dd_obs::event("server.shed_cell", || {
                    format!(
                        "client={client} spec={spec_label} priority={} estimate_micros={estimate}",
                        spec.priority
                    )
                });
                slots[victim] = Slot::Shed {
                    spec_label,
                    key,
                    estimate_micros: estimate,
                    priority: spec.priority,
                    reason: "storm_overload",
                };
            }
        }
        match regime {
            Regime::Calm => self.stats.calm_requests += 1,
            Regime::PreStorm => self.stats.pre_storm_requests += 1,
            Regime::Storm => self.stats.storm_requests += 1,
        }

        // Hand off to execution: collect surviving pending cells with
        // their geometry-affinity keys, and account their estimates as
        // in-flight until `complete`/`abort` settles them.
        drop(pass_span);
        let jobs: Vec<ExecJob> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Pending {
                    spec,
                    spec_label,
                    key,
                    ..
                } => Some(ExecJob {
                    slot: i,
                    spec: spec.clone(),
                    spec_label: spec_label.clone(),
                    key: *key,
                }),
                _ => None,
            })
            .collect();
        let mut geometries: Vec<String> = Vec::new();
        let affinity: Vec<u64> = jobs
            .iter()
            .map(|job| {
                let label = job.spec.device.label();
                let key = match geometries.iter().position(|g| *g == label) {
                    Some(i) => i,
                    None => {
                        geometries.push(label);
                        geometries.len() - 1
                    }
                };
                key as u64
            })
            .collect();
        let pending_micros: u64 = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Pending {
                    estimate_micros, ..
                } => Some(*estimate_micros),
                _ => None,
            })
            .sum();
        self.inflight_micros = self.inflight_micros.saturating_add(pending_micros);
        Ok(PreparedSubmit {
            client,
            request_seq: self.stats.requests,
            regime,
            backlog_micros: backlog,
            carryover_micros,
            pending_micros,
            slots,
            jobs,
            affinity,
            workers: self.config.workers,
            base,
            memo: Arc::clone(&self.memo),
        })
    }

    /// Pass 3 — execute the surviving pending cells on the work-stealing
    /// executor, co-scheduling same-geometry jobs onto one worker (warm
    /// device tables, and the seam the cross-cell sweep kernel batches
    /// across). Every cell runs as a one-cell matrix against the server's
    /// [`RunMemo`], so the victim is trained and each distinct search runs
    /// once per server, not once per cell. Takes no `&self`: callers run
    /// this outside the server lock. Jobs are panic-isolated with bounded
    /// retry (a panic mid-computation leaves its memo entry empty for the
    /// retry); `dd-chaos` injects worker panics (`executor.job_panic`) and
    /// stalls (`executor.job_stall`) here, keyed on (cell key, request
    /// sequence, attempt) so campaigns are deterministic under work
    /// stealing.
    pub fn execute_prepared(prepared: PreparedSubmit) -> ExecutedSubmit {
        let span = dd_obs::span_with("server.execute", || format!("client={}", prepared.client));
        let base = prepared.base;
        let seq = prepared.request_seq;
        let jobs = &prepared.jobs;
        let memo = &*prepared.memo;
        let runs = run_work_stealing_grouped_isolated(
            &prepared.affinity,
            prepared.workers,
            MAX_JOB_ATTEMPTS,
            |j, attempt| {
                let job = &jobs[j];
                let fault_key = job.key ^ (seq << 8) ^ u64::from(attempt);
                if dd_chaos::fires("executor.job_stall", fault_key) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                if dd_chaos::fires("executor.job_panic", fault_key) {
                    panic!(
                        "chaos: injected worker panic (spec={}, attempt={attempt})",
                        job.spec_label
                    );
                }
                base.matrix_for(&job.spec)
                    .run_with_memo(&HashMap::new(), None, memo)
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|(report, _)| {
                        report
                            .cells
                            .into_iter()
                            .next()
                            .ok_or_else(|| "matrix produced no cell".to_string())
                    })
            },
        );
        drop(span);
        ExecutedSubmit { prepared, runs }
    }

    /// Passes 4–5 — fold executed jobs into the cache and ledgers, resolve
    /// duplicates, tally, respond. Runs under the server lock.
    fn complete(&mut self, executed: ExecutedSubmit) -> Json {
        let ExecutedSubmit { prepared, runs } = executed;
        let PreparedSubmit {
            client,
            regime,
            backlog_micros,
            carryover_micros,
            pending_micros,
            mut slots,
            jobs,
            ..
        } = prepared;
        self.inflight_micros = self.inflight_micros.saturating_sub(pending_micros);

        let default_grant = self.config.default_grant_micros;
        self.stats.executor.absorb(&runs);
        for run in &runs {
            self.stats.hist_queue_micros.record(run.queue_micros);
            self.stats.hist_wall_micros.record(run.wall_micros);
        }
        // Fold runs into slots. The ledger borrow is a live entry into
        // `self.clients`; cache and stats are disjoint fields.
        let ledger = self
            .clients
            .entry(client.clone())
            .or_insert_with(|| ClientLedger::with_grant(default_grant));
        for run in runs {
            let Some(job) = jobs.get(run.index) else {
                continue;
            };
            let slot_index = job.slot;
            let Slot::Pending {
                spec,
                spec_label,
                key,
                estimate_micros,
            } = std::mem::replace(
                &mut slots[slot_index],
                Slot::Error {
                    message: String::new(),
                    kind: "internal",
                },
            )
            else {
                slots[slot_index] = Slot::Error {
                    message: "internal: executed job did not map to a pending slot".to_string(),
                    kind: "internal",
                };
                continue;
            };
            if run.attempts > 1 {
                self.stats.job_retries += u64::from(run.attempts - 1);
            }
            match run.output {
                JobOutcome::Ok(Ok(cell)) => {
                    self.cache.insert(key, cell.clone());
                    slots[slot_index] = Slot::Done {
                        spec_label,
                        key,
                        cache_hit: false,
                        priority: spec.priority,
                        estimate_micros,
                        queue_micros: run.queue_micros,
                        wall_micros: run.wall_micros,
                        worker: run.worker,
                        stolen: run.stolen,
                        cell: Box::new(cell),
                    };
                }
                JobOutcome::Ok(Err(message)) => {
                    ledger.account.refund(estimate_micros);
                    self.stats.record_refund(regime, estimate_micros);
                    slots[slot_index] = Slot::Error {
                        message: format!("cell `{spec_label}` failed: {message}"),
                        kind: "job_failed",
                    };
                }
                JobOutcome::Panicked { message } => {
                    ledger.account.refund(estimate_micros);
                    self.stats.record_refund(regime, estimate_micros);
                    self.stats.job_failed += 1;
                    dd_obs::event("server.job_failed", || {
                        format!(
                            "client={client} spec={spec_label} attempts={}",
                            run.attempts
                        )
                    });
                    slots[slot_index] = Slot::Error {
                        message: format!(
                            "cell `{spec_label}` execution panicked after {} attempts: {message}",
                            run.attempts
                        ),
                        kind: "job_failed",
                    };
                }
            }
        }

        // Pass 4 — resolve duplicates from the (now updated) cache.
        let pass_span = dd_obs::span("server.resolve");
        for slot in &mut slots {
            if let Slot::Duplicate { spec_label, key } = slot {
                *slot = match self.cache.get(key) {
                    Some(cell) => Slot::Done {
                        spec_label: std::mem::take(spec_label),
                        key: *key,
                        cache_hit: true,
                        priority: 0,
                        estimate_micros: 0,
                        queue_micros: 0,
                        wall_micros: 0,
                        worker: 0,
                        stolen: false,
                        cell: Box::new(cell.clone()),
                    },
                    None => Slot::Error {
                        message: format!(
                            "cell `{spec_label}` duplicates an earlier cell that did not complete"
                        ),
                        kind: "duplicate_incomplete",
                    },
                };
            }
        }

        // Pass 5 — tally and respond.
        drop(pass_span);
        let _pass_span = dd_obs::span("server.respond");
        let mut results = Vec::with_capacity(slots.len());
        for slot in &slots {
            results.push(match slot {
                Slot::Done {
                    spec_label,
                    key,
                    cache_hit,
                    priority,
                    estimate_micros,
                    queue_micros,
                    wall_micros,
                    worker,
                    stolen,
                    cell,
                } => {
                    if *cache_hit {
                        ledger.cache_hits += 1;
                        self.stats.cache_hits += 1;
                    } else {
                        ledger.computed += 1;
                        ledger.actual_micros += wall_micros;
                        ledger.queue_micros += queue_micros;
                        self.stats.computed += 1;
                    }
                    Json::obj()
                        .with("status", Json::str("done"))
                        .with("spec", Json::str(spec_label.clone()))
                        .with("key", Json::hex(*key))
                        .with("cache_hit", Json::Bool(*cache_hit))
                        .with("priority", Json::num(*priority as f64))
                        .with("estimate_micros", Json::uint(*estimate_micros))
                        .with("queue_micros", Json::uint(*queue_micros))
                        .with("wall_micros", Json::uint(*wall_micros))
                        .with("worker", Json::uint(*worker as u64))
                        .with("stolen", Json::Bool(*stolen))
                        .with("cell", cell.to_json())
                }
                Slot::Rejected {
                    spec_label,
                    key,
                    estimate_micros,
                    remaining_micros,
                } => {
                    ledger.rejected_budget += 1;
                    self.stats.rejected_budget += 1;
                    Json::obj()
                        .with("status", Json::str("rejected"))
                        .with("reason", Json::str("budget_exhausted"))
                        .with("spec", Json::str(spec_label.clone()))
                        .with("key", Json::hex(*key))
                        .with("estimate_micros", Json::uint(*estimate_micros))
                        .with("remaining_micros", Json::uint(*remaining_micros))
                }
                Slot::Shed {
                    spec_label,
                    key,
                    estimate_micros,
                    priority,
                    reason,
                } => {
                    ledger.shed += 1;
                    if *reason == "storm_overload" {
                        // The storm shed loop already refunded the charge.
                        self.stats.record_shed(regime, *estimate_micros);
                    } else {
                        // Shutdown-abort sheds refund here; they are not a
                        // regime outcome, so `shed_by_regime` (a storm-only
                        // breakdown by construction) is left alone.
                        ledger.account.refund(*estimate_micros);
                        self.stats.shed += 1;
                        self.stats.record_refund(regime, *estimate_micros);
                    }
                    Json::obj()
                        .with("status", Json::str("shed"))
                        .with("reason", Json::str(*reason))
                        .with("spec", Json::str(spec_label.clone()))
                        .with("key", Json::hex(*key))
                        .with("estimate_micros", Json::uint(*estimate_micros))
                        .with("priority", Json::num(*priority as f64))
                }
                Slot::Error { message, kind } => {
                    ledger.errors += 1;
                    self.stats.errors += 1;
                    Json::obj()
                        .with("status", Json::str("error"))
                        .with("kind", Json::str(*kind))
                        .with("reason", Json::str(message.clone()))
                }
                Slot::Pending { .. } | Slot::Duplicate { .. } => {
                    // Defensive: a slot that somehow survived unresolved is
                    // reported, not a process abort.
                    ledger.errors += 1;
                    self.stats.errors += 1;
                    Json::obj()
                        .with("status", Json::str("error"))
                        .with("kind", Json::str("internal"))
                        .with("reason", Json::str("internal: slot left unresolved"))
                }
            });
        }

        ok_response("submit")
            .with("client", Json::str(client.clone()))
            .with("regime", Json::str(regime.label()))
            .with("backlog_micros", Json::uint(backlog_micros))
            .with("carryover_micros", Json::uint(carryover_micros))
            .with("capacity_micros", Json::uint(self.config.capacity_micros))
            .with("results", Json::Arr(results))
            .with("ledger", ledger.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(capacity_micros: u64) -> SweepServer {
        let config = ServerConfig {
            quick: true,
            workers: 2,
            capacity_micros,
            default_grant_micros: 10_000_000,
        };
        SweepServer::new(config, CostModel::new(200_000_000, 16 * 8 * 128))
    }

    fn submit_line(client: &str, specs: &[&str]) -> String {
        let cells: Vec<Json> = specs
            .iter()
            .map(|s| CellSpec::parse_compact(s).expect("spec").to_json())
            .collect();
        Json::obj()
            .with("op", Json::str("submit"))
            .with("client", Json::str(client))
            .with("cells", Json::Arr(cells))
            .render_compact()
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let mut server = test_server(1_000_000);
        for line in ["", "{", "{\"nop\":1}", "{\"op\":\"warp\"}", "[1,2]"] {
            let response = Json::parse(&server.handle_line(line)).expect("response parses");
            assert!(!response.field_bool("ok").expect("ok field"), "{line}");
            assert!(!response.field_str("error").expect("error field").is_empty());
        }
        assert!(!server.is_shutdown());
    }

    #[test]
    fn hello_and_shutdown() {
        let mut server = test_server(1_000_000);
        let hello = Json::parse(&server.handle_line("{\"op\":\"hello\"}")).expect("hello");
        assert_eq!(hello.field_bool("ok"), Ok(true));
        assert_eq!(hello.field_u64("protocol"), Ok(SERVER_PROTOCOL_VERSION));
        assert_eq!(hello.field_bool("quick"), Ok(true));
        let bye = Json::parse(&server.handle_line("{\"op\":\"shutdown\"}")).expect("bye");
        assert_eq!(bye.field_bool("ok"), Ok(true));
        assert!(server.is_shutdown());
    }

    #[test]
    fn budget_exhausted_client_gets_structured_rejection_not_a_hang() {
        let mut server = test_server(1_000_000);
        // Zero-grant client: every admission must bounce with a priced
        // rejection before any simulation work happens.
        let grant = Json::parse(
            &server.handle_line("{\"op\":\"budget\",\"client\":\"broke\",\"grant_micros\":0}"),
        )
        .expect("grant");
        assert_eq!(grant.field_bool("ok"), Ok(true));
        let line = submit_line("broke", &["Baseline (undefended):BFA:lpddr4_small:none"]);
        let response = Json::parse(&server.handle_line(&line)).expect("submit");
        assert_eq!(response.field_bool("ok"), Ok(true));
        let results = response.field_arr("results").expect("results");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].field_str("status"), Ok("rejected"));
        assert_eq!(results[0].field_str("reason"), Ok("budget_exhausted"));
        assert!(results[0].field_u64("estimate_micros").expect("estimate") > 0);
        let ledger = response.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("charged_micros"), Ok(0));
        assert_eq!(ledger.field_u64("rejected_budget"), Ok(1));
    }

    #[test]
    fn storm_sheds_lowest_priority_newest_first_but_keeps_one() {
        // Capacity below a single cell's price: the offered 3-cell batch
        // storms; two get shed (lowest priority, newest first), one
        // survives so the server still makes progress. Budget accounting
        // must refund the shed estimates. We use an unknown-free but
        // cheap-to-*price* batch and a zero-capacity server — no cell
        // actually executes because the surviving cell is the only
        // compute, so keep it tiny.
        let mut server = test_server(0);
        let line = submit_line(
            "storm",
            &[
                "Baseline (undefended):BFA:lpddr4_small:none:5",
                "Baseline (undefended):BFA:lpddr4_small@4801:none:0",
                "Baseline (undefended):BFA:lpddr4_small@4802:none:0",
            ],
        );
        let response = Json::parse(&server.handle_line(&line)).expect("submit");
        assert_eq!(response.field_str("regime"), Ok("storm"));
        let results = response.field_arr("results").expect("results");
        assert_eq!(results[0].field_str("status"), Ok("done"));
        assert_eq!(results[1].field_str("status"), Ok("shed"));
        assert_eq!(results[1].field_str("reason"), Ok("storm_overload"));
        assert_eq!(results[2].field_str("status"), Ok("shed"));
        let ledger = response.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("shed"), Ok(2));
        // Only the surviving cell's estimate stays charged.
        let estimate = results[0].field_u64("estimate_micros").expect("estimate");
        assert_eq!(ledger.field_u64("charged_micros"), Ok(estimate));
    }

    #[test]
    fn invalidate_rejects_unknown_axes_and_devices() {
        let mut server = test_server(1_000_000);
        let bad_axis = Json::parse(
            &server.handle_line("{\"op\":\"invalidate\",\"axis\":\"moon\",\"value\":\"x\"}"),
        )
        .expect("response");
        assert_eq!(bad_axis.field_bool("ok"), Ok(false));
        let bad_device = Json::parse(
            &server.handle_line("{\"op\":\"invalidate\",\"axis\":\"device\",\"value\":\"hbm3\"}"),
        )
        .expect("response");
        assert_eq!(bad_device.field_bool("ok"), Ok(false));
        let all = Json::parse(&server.handle_line("{\"op\":\"invalidate\",\"all\":true}"))
            .expect("response");
        assert_eq!(all.field_bool("ok"), Ok(true));
        assert_eq!(all.field_u64("evicted"), Ok(0));
    }

    fn ledger_balances(ledger: &Json) -> bool {
        let granted = ledger.field_u64("granted_micros").expect("granted");
        let refunded = ledger.field_u64("refunded_micros").expect("refunded");
        let gross = ledger.field_u64("charged_gross_micros").expect("gross");
        let remaining = ledger.field_u64("remaining_micros").expect("remaining");
        granted + refunded == gross + remaining
    }

    #[test]
    fn warm_inflight_backlog_flips_calm_to_pre_storm() {
        // Size the capacity to one cell's estimate: a lone submit is Calm,
        // but the same submit while an earlier one is still in flight
        // classifies against offered + carryover and goes PreStorm. The
        // three specs are distinct (to dodge the cell cache) but priced
        // within a hair of each other, so cap = max estimate keeps every
        // solo submit Calm while any pair lands in (cap, 2*cap].
        let spec_texts = [
            "Baseline (undefended):BFA:lpddr4_small:none",
            "Baseline (undefended):BFA:lpddr4_small@4801:none",
            "Baseline (undefended):BFA:lpddr4_small@4802:none",
        ];
        let pricer = test_server(1);
        let estimates: Vec<u64> = spec_texts
            .iter()
            .map(|t| pricer.price_micros(&CellSpec::parse_compact(t).expect("spec")))
            .collect();
        let capacity = estimates.iter().copied().max().expect("max");
        assert!(estimates.iter().all(|&e| e > 0));
        assert!(estimates[0] + estimates[1] > capacity);
        let config = ServerConfig {
            quick: true,
            workers: 2,
            capacity_micros: capacity,
            default_grant_micros: 10_000_000,
        };
        let mut server = SweepServer::new(config, CostModel::new(200_000_000, 16 * 8 * 128));

        let line_a = submit_line("alice", &[spec_texts[0]]);
        let line_b = submit_line("bob", &[spec_texts[1]]);

        // Admit A but do not execute yet: its estimate is now in flight.
        let LineOutcome::Submit(prepared_a) = server.begin_line(&line_a) else {
            panic!("submit A should pass admission");
        };
        assert_eq!(server.inflight_micros(), estimates[0]);

        // B admits while A is in flight: offered + carryover lands in
        // (capacity, 2*capacity] → PreStorm, nothing shed.
        let response_b = Json::parse(&server.handle_line(&line_b)).expect("B");
        assert_eq!(response_b.field_str("regime"), Ok("pre-storm"));
        assert_eq!(response_b.field_u64("carryover_micros"), Ok(estimates[0]));
        let results_b = response_b.field_arr("results").expect("results");
        assert_eq!(results_b[0].field_str("status"), Ok("done"));

        // Drain A; the gauge returns to zero and A itself was Calm.
        let executed = SweepServer::execute_prepared(*prepared_a);
        let response_a = server.complete_submit(executed);
        assert_eq!(response_a.field_str("regime"), Ok("calm"));
        assert_eq!(response_a.field_u64("carryover_micros"), Ok(0));
        assert_eq!(server.inflight_micros(), 0);

        // Without the warm backlog the same submit is Calm again (cache
        // forces a fresh spec).
        let line_c = submit_line("carol", &[spec_texts[2]]);
        let response_c = Json::parse(&server.handle_line(&line_c)).expect("C");
        assert_eq!(response_c.field_str("regime"), Ok("calm"));
    }

    #[test]
    fn shutdown_aborts_prepared_submit_with_refunds_and_refuses_new_work() {
        let mut server = test_server(1_000_000);
        let line = submit_line("drain", &["Baseline (undefended):BFA:lpddr4_small:none"]);
        let LineOutcome::Submit(prepared) = server.begin_line(&line) else {
            panic!("submit should pass admission");
        };
        assert!(server.inflight_micros() > 0);
        // Shutdown lands while the submit is admitted but unexecuted.
        let bye = Json::parse(&server.handle_line("{\"op\":\"shutdown\"}")).expect("bye");
        assert_eq!(bye.field_bool("ok"), Ok(true));
        let response = server.abort_submit(*prepared);
        let results = response.field_arr("results").expect("results");
        assert_eq!(results[0].field_str("status"), Ok("shed"));
        assert_eq!(results[0].field_str("reason"), Ok("shutting_down"));
        let ledger = response.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("charged_micros"), Ok(0));
        assert!(ledger.field_u64("refunded_micros").expect("refunded") > 0);
        assert!(ledger_balances(ledger));
        assert_eq!(server.inflight_micros(), 0);

        // New submits are refused with a structured shutting_down error.
        let refused = Json::parse(&server.handle_line(&line)).expect("refused");
        assert_eq!(refused.field_bool("ok"), Ok(false));
        assert_eq!(refused.field_str("kind"), Ok("shutting_down"));
    }

    #[test]
    fn budget_grant_with_same_txn_is_applied_once() {
        let mut server = test_server(1_000_000);
        let grant =
            "{\"op\":\"budget\",\"client\":\"idem\",\"grant_micros\":500,\"txn\":\"idem-g1\"}";
        let first = Json::parse(&server.handle_line(grant)).expect("first");
        assert_eq!(first.field_bool("ok"), Ok(true));
        let ledger = first.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("granted_micros"), Ok(500));
        // Retry (response lost): same txn must not grant again.
        let second = Json::parse(&server.handle_line(grant)).expect("second");
        assert_eq!(second.field_bool("duplicate_txn"), Ok(true));
        let ledger = second.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("granted_micros"), Ok(500));
        // A new txn grants normally.
        let third = Json::parse(&server.handle_line(
            "{\"op\":\"budget\",\"client\":\"idem\",\"grant_micros\":250,\"txn\":\"idem-g2\"}",
        ))
        .expect("third");
        let ledger = third.field("ledger").expect("ledger");
        assert_eq!(ledger.field_u64("granted_micros"), Ok(750));
    }

    #[test]
    fn quick_mode_mismatch_is_a_structured_error() {
        let mut server = test_server(1_000_000);
        let response = Json::parse(
            &server
                .handle_line("{\"op\":\"submit\",\"client\":\"x\",\"quick\":false,\"cells\":[]}"),
        )
        .expect("response");
        assert_eq!(response.field_bool("ok"), Ok(false));
        assert!(response
            .field_str("error")
            .expect("error")
            .contains("quick-mode mismatch"));
    }
}
