//! The `repro serve` / `repro submit` front ends over [`dd_server`].
//!
//! `serve` runs a resident [`SweepServer`] speaking the line-delimited
//! JSON protocol on stdin/stdout (default), a Unix socket, or a TCP
//! listener, warm-started from the artifact directory's cell cache and
//! calibrated from its `BENCH_kernel.json`. `submit` is the matching
//! client: it prices and runs a list of cell specs through a server
//! (over either socket transport, or an in-process server when none is
//! given), optionally writing the returned cells as a canonical
//! `MatrixReport` document and cross-checking them byte-for-byte against
//! a fresh batch run of the same specs.
//!
//! Resilience posture (see `docs/resilience.md`):
//!
//! * stdio and every accepted socket run one connection loop, reading
//!   through [`FrameReader`] (sockets under a per-connection read
//!   deadline) — oversized frames get a structured error and the
//!   stream resyncs, garbage bytes fail JSON parsing as a structured
//!   error, a deadline or mid-frame disconnect closes only that
//!   connection;
//! * submit requests run admit → execute → complete: the server lock is
//!   held for admission and completion only, never while cells simulate;
//! * the client retries transient transport failures (connect/write
//!   errors, dropped or corrupted response frames) with seeded
//!   exponential backoff, reconnecting each time — safe because submits
//!   are idempotent through content-addressed admission and budget
//!   grants carry a `txn` token;
//! * the `server.conn_drop` / `server.frame_corrupt` /
//!   `client.submit_transient` dd-chaos sites inject exactly those
//!   failures deterministically when a chaos plan is armed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dd_baselines::{CellReport, MatrixReport};
use dd_server::{
    CellSpec, Frame, FrameReader, LineOutcome, ServerConfig, SweepBase, SweepServer,
    MAX_FRAME_BYTES,
};
use dnn_defender::budget::DEFAULT_COMMANDS_PER_SEC;
use dnn_defender::{CostModel, Json};

use crate::cache::load_cell_cache;
use crate::kernel::KernelBench;
use crate::report::Report;

/// Row count of the device the kernel benchmark calibrates on
/// (`DramConfig::lpddr4_small`): 16 banks × 8 subarrays × 128 rows.
pub const REFERENCE_DEVICE_ROWS: u64 = 16 * 8 * 128;

/// Default per-connection read deadline: generous enough for a human at
/// a terminal, bounded enough that a wedged peer cannot pin a connection
/// thread forever.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 120_000;

/// Client-side read deadline while waiting for a response line.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Build the admission cost model: calibrated from the artifact
/// directory's `BENCH_kernel.json` batched-kernel throughput when present
/// and sane, else the conservative [`DEFAULT_COMMANDS_PER_SEC`].
pub fn calibrated_cost_model(artifacts_dir: &Path) -> CostModel {
    let commands_per_sec = std::fs::read_to_string(artifacts_dir.join("BENCH_kernel.json"))
        .ok()
        .and_then(|text| KernelBench::parse(&text).ok())
        .map(|bench| bench.batch.commands_per_sec)
        .filter(|cps| cps.is_finite() && *cps >= 1.0)
        .map(|cps| cps as u64)
        .unwrap_or(DEFAULT_COMMANDS_PER_SEC);
    CostModel::new(commands_per_sec, REFERENCE_DEVICE_ROWS)
}

/// Options of `repro serve` and `repro submit`; each command reads the
/// fields it needs.
pub struct ServiceOptions {
    /// Artifact directory (cell-cache warm start, kernel calibration).
    pub artifacts_dir: PathBuf,
    /// Where `serve` listens and `submit` connects. On
    /// [`Endpoint::Stdio`], `submit` runs an in-process server.
    pub endpoint: Endpoint,
    /// Per-connection read deadline override, in milliseconds
    /// (default [`DEFAULT_READ_TIMEOUT_MS`]; 0 disables).
    pub read_timeout_ms: Option<u64>,
    /// Executor worker threads (default: one per core).
    pub jobs: Option<usize>,
    /// Regime planning capacity override, in estimated microseconds.
    pub capacity_micros: Option<u64>,
    /// Estimated microseconds: `serve`'s default per-client grant, or
    /// what `submit` grants its client before submitting.
    pub grant_micros: Option<u64>,
    /// Quick (smoke) mode; a client's must match its server's.
    pub quick: bool,
    /// Client name for budget accounting.
    pub client: String,
    /// Retry attempts per request (default 5).
    pub retries: Option<u32>,
    /// Seed of the retry backoff jitter.
    pub retry_seed: Option<u64>,
    /// Write the returned cells as a canonical `MatrixReport` document.
    pub out: Option<PathBuf>,
    /// Re-run the same specs through the batch path and require
    /// byte-identical cells.
    pub check_batch: bool,
    /// Suppress per-cell lines.
    pub quiet: bool,
    /// Cell specs (`defense:attacker:device:load[:priority]`).
    pub specs: Vec<String>,
}

impl ServiceOptions {
    fn read_timeout(&self) -> Option<Duration> {
        match self.read_timeout_ms.unwrap_or(DEFAULT_READ_TIMEOUT_MS) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    fn policy(&self) -> RetryPolicy {
        let defaults = RetryPolicy::default();
        RetryPolicy {
            attempts: self.retries.unwrap_or(defaults.attempts).max(1),
            seed: self.retry_seed.unwrap_or(defaults.seed),
            ..defaults
        }
    }
}

/// Where a server listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Line-delimited JSON on stdin/stdout (server only).
    Stdio,
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Stdio => write!(f, "stdio"),
            Endpoint::Unix(path) => write!(f, "unix {}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp {addr}"),
        }
    }
}

impl Endpoint {
    fn connect(&self) -> std::io::Result<ClientConn> {
        match self {
            Endpoint::Stdio => Err(std::io::Error::other("stdio is not a socket")),
            Endpoint::Unix(path) => ClientConn::new(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => ClientConn::new(TcpStream::connect(addr.as_str())?),
        }
    }
}

/// The common surface of the two socket stream types.
trait Stream: Read + Write + Send + Sized + 'static {
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    fn set_read_deadline(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn close_both(&self) -> std::io::Result<()>;
}

impl Stream for UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_deadline(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn close_both(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl Stream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_deadline(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn close_both(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound (but not yet serving) listener. Binding and serving are
/// separate so harnesses can bind an ephemeral TCP port, read the
/// address, and only then hand the listener to a server thread.
pub struct BoundListener {
    listener: Listener,
    endpoint: Endpoint,
}

impl BoundListener {
    /// Bind the endpoint ([`Endpoint::Stdio`] is not bindable).
    pub fn bind(endpoint: &Endpoint) -> Result<Self, String> {
        let (listener, endpoint) = match endpoint {
            Endpoint::Stdio => return Err("stdio endpoint cannot be bound".to_string()),
            Endpoint::Unix(path) => {
                // A stale socket file from a previous run would make bind
                // fail.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
                (Listener::Unix(listener), endpoint.clone())
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())
                    .map_err(|e| format!("cannot bind tcp {addr}: {e}"))?;
                let bound = listener
                    .local_addr()
                    .map_err(|e| format!("local_addr: {e}"))?;
                (Listener::Tcp(listener), Endpoint::Tcp(bound.to_string()))
            }
        };
        Ok(BoundListener { listener, endpoint })
    }

    /// The address a client connects to (port 0 resolved to the bound
    /// port).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Serve connections until a `shutdown` op. Connections multiplex:
    /// each one gets its own thread; requests admit and complete at the
    /// server mutex but execute outside it, so a long submit does not
    /// block other clients' requests — and an idle or slow client never
    /// blocks accept. On shutdown, in-flight requests drain and every
    /// open connection is closed.
    pub fn serve(self, server: SweepServer, read_timeout: Option<Duration>) -> Result<(), String> {
        let wake = || drop(self.endpoint.connect());
        let result = match self.listener {
            Listener::Unix(listener) => drive(server, listener.incoming(), wake, read_timeout),
            Listener::Tcp(listener) => drive(server, listener.incoming(), wake, read_timeout),
        };
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

fn lock(server: &Mutex<SweepServer>) -> MutexGuard<'_, SweepServer> {
    // Worker panics are caught per job in the executor, so a poisoned
    // lock means a panic in bookkeeping code; the state is still the
    // best copy there is, and dying here would turn one bad request
    // into a dead service.
    server.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared accept loop of both socket transports.
fn drive<S, I, W>(
    server: SweepServer,
    incoming: I,
    wake: W,
    read_timeout: Option<Duration>,
) -> Result<(), String>
where
    S: Stream,
    I: Iterator<Item = std::io::Result<S>>,
    W: Fn() + Sync,
{
    let server = Mutex::new(server);
    let shutdown = AtomicBool::new(false);
    // Stream clones of every live connection, so shutdown can unblock
    // readers parked inside their deadline instead of waiting it out.
    let open: Mutex<HashMap<u64, S>> = Mutex::new(HashMap::new());
    let mut next_conn = 0u64;
    std::thread::scope(|scope| -> Result<(), String> {
        for stream in incoming {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = stream.map_err(|e| format!("accept: {e}"))?;
            next_conn += 1;
            let conn_id = next_conn;
            if let Ok(clone) = stream.try_clone_stream() {
                if let Ok(mut open) = open.lock() {
                    open.insert(conn_id, clone);
                }
            }
            let server = &server;
            let shutdown = &shutdown;
            let open = &open;
            let wake = &wake;
            scope.spawn(move || {
                let served = || -> Result<(), String> {
                    stream
                        .set_read_deadline(read_timeout)
                        .map_err(|e| format!("set read deadline: {e}"))?;
                    let writer = stream
                        .try_clone_stream()
                        .map_err(|e| format!("clone: {e}"))?;
                    serve_connection(server, BufReader::new(stream), writer, conn_id)
                };
                if let Err(e) = served() {
                    // A broken client must not take the server down.
                    eprintln!("repro serve: connection {conn_id}: {e}");
                }
                if let Ok(mut open) = open.lock() {
                    open.remove(&conn_id);
                }
                if lock(server).is_shutdown() {
                    shutdown.store(true, Ordering::Release);
                    // Drain: close every other open connection (readers
                    // parked in their deadline wake with EOF) and nudge
                    // the acceptor so it observes the flag and exits.
                    if let Ok(open) = open.lock() {
                        for stream in open.values() {
                            let _ = stream.close_both();
                        }
                    }
                    wake();
                }
            });
        }
        Ok(())
    })
}

/// One connection, an accepted socket or stdio (connection 0): framed
/// reads, three-phase request handling, chaos-injected drops/corruption
/// on the write side.
fn serve_connection(
    server: &Mutex<SweepServer>,
    reader: impl BufRead,
    mut writer: impl Write,
    conn_id: u64,
) -> Result<(), String> {
    let mut frames = FrameReader::new(reader, MAX_FRAME_BYTES);
    let mut line_idx = 0u64;
    loop {
        let frame = match frames.next_frame() {
            Ok(frame) => frame,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Read deadline elapsed: a polite close, not an error.
                eprintln!("repro serve: connection {conn_id}: read deadline elapsed, closing");
                return Ok(());
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let line = match frame {
            Frame::Eof => return Ok(()),
            Frame::Line {
                terminated: false, ..
            } => {
                // Mid-frame disconnect: the partial request was never
                // admitted; drop it with the connection.
                return Ok(());
            }
            Frame::Oversized { drained } => {
                let response = oversized_response(drained);
                write_response(&mut writer, response.as_bytes())?;
                continue;
            }
            Frame::Line { text, .. } => text,
        };
        if line.trim().is_empty() {
            continue;
        }
        // One deterministic fault key per (connection, request line).
        let fault_key = (conn_id << 20) | (line_idx & 0xF_FFFF);
        line_idx += 1;
        let (response, done) = handle_framed(server, &line);
        if dd_chaos::fires("server.conn_drop", fault_key) {
            // The request was fully handled (charged, executed, cached);
            // dropping before the response forces the client's retry
            // path to prove idempotency: resubmits hit the cell cache,
            // grants carry txn tokens.
            return Ok(());
        }
        let mut bytes = response.into_bytes();
        if dd_chaos::fires("server.frame_corrupt", fault_key) {
            corrupt_frame(
                &mut bytes,
                dd_chaos::payload("server.frame_corrupt", fault_key),
            );
        }
        write_response(&mut writer, &bytes)?;
        if done {
            return Ok(());
        }
    }
}

/// Admit under the lock, execute outside it, complete under the lock.
fn handle_framed(server: &Mutex<SweepServer>, line: &str) -> (String, bool) {
    let prepared = {
        let mut guard = lock(server);
        match guard.begin_line(line) {
            LineOutcome::Response(response) => return (response, guard.is_shutdown()),
            LineOutcome::Submit(prepared) => prepared,
        }
    };
    let executed = SweepServer::execute_prepared(*prepared);
    let mut guard = lock(server);
    let response = guard.complete_submit(executed).render_compact();
    (response, guard.is_shutdown())
}

fn write_response<W: Write>(writer: &mut W, bytes: &[u8]) -> Result<(), String> {
    writer
        .write_all(bytes)
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write: {e}"))
}

fn oversized_response(drained: usize) -> String {
    Json::obj()
        .with("ok", Json::Bool(false))
        .with("op", Json::str("?"))
        .with("protocol", Json::uint(dd_server::SERVER_PROTOCOL_VERSION))
        .with(
            "error",
            Json::str(format!(
                "request frame exceeds {MAX_FRAME_BYTES} bytes ({drained} discarded)"
            )),
        )
        .with("kind", Json::str("oversized_frame"))
        .render_compact()
}

/// Shape a response frame into garbage, steered by the chaos payload:
/// an invalid-UTF-8 byte, a truncation, or a mid-token replacement. The
/// trailing newline is written separately, so the stream stays framed.
fn corrupt_frame(bytes: &mut Vec<u8>, payload: u64) {
    match payload % 3 {
        0 if !bytes.is_empty() => {
            let index = (payload as usize / 3) % bytes.len();
            bytes[index] = 0xFF;
        }
        1 => bytes.truncate(bytes.len() / 2),
        _ => *bytes = b"{\"ok\":tr".to_vec(),
    }
}

/// The server `opts` describe. `repro serve` passes `--grant-micros` as
/// the default per-client grant; `repro submit` grants it explicitly.
fn build_server(opts: &ServiceOptions, default_grant_micros: Option<u64>) -> SweepServer {
    let mut config = ServerConfig::standard(opts.quick);
    config.workers = opts.jobs.unwrap_or(config.workers);
    config.capacity_micros = opts.capacity_micros.unwrap_or(config.capacity_micros);
    config.default_grant_micros = default_grant_micros.unwrap_or(config.default_grant_micros);
    let cost = calibrated_cost_model(&opts.artifacts_dir);
    let cache = load_cell_cache(&opts.artifacts_dir.join("cache").join("cells.json")).cells;
    eprintln!(
        "repro serve: protocol v{}, {} worker(s), {} cached cell(s), {} cmd/s, quick={}",
        dd_server::SERVER_PROTOCOL_VERSION,
        config.workers,
        cache.len(),
        cost.commands_per_sec(),
        opts.quick,
    );
    SweepServer::new(config, cost).with_cache(cache)
}

/// Run the resident server until a `shutdown` op (or EOF on stdio).
pub fn run_serve(opts: &ServiceOptions) -> Result<(), String> {
    let server = build_server(opts, opts.grant_micros);
    if opts.endpoint == Endpoint::Stdio {
        let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
        return serve_connection(&Mutex::new(server), stdin, stdout, 0);
    }
    let bound = BoundListener::bind(&opts.endpoint)?;
    eprintln!("repro serve: listening on {}", bound.endpoint());
    bound.serve(server, opts.read_timeout())
}

/// Seeded retry policy for transient transport failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub attempts: u32,
    /// Base backoff before the first retry; doubles per retry.
    pub base_delay_ms: u64,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay_ms: 10,
            seed: 0x5eed_ba5e,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based): exponential with
    /// deterministic jitter, capped at 500 ms.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        let base = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.saturating_sub(1).min(16))
            .min(500);
        let jitter = splitmix64(self.seed ^ u64::from(retry)) % (base / 2 + 1);
        base + jitter
    }
}

/// One client connection to a socket server.
struct ClientConn {
    frames: FrameReader<BufReader<Box<dyn Read + Send>>>,
    writer: Box<dyn Write + Send>,
}

impl ClientConn {
    fn new<S: Stream>(stream: S) -> std::io::Result<Self> {
        stream.set_read_deadline(Some(CLIENT_READ_TIMEOUT))?;
        let writer = Box::new(stream.try_clone_stream()?);
        let reader: Box<dyn Read + Send> = Box::new(stream);
        Ok(ClientConn {
            frames: FrameReader::new(BufReader::new(reader), MAX_FRAME_BYTES),
            writer,
        })
    }

    /// Send one request line and read its response line, or describe
    /// the transient failure.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        write_response(&mut self.writer, line.as_bytes())?;
        match self.frames.next_frame().map_err(|e| format!("read: {e}"))? {
            Frame::Line {
                text,
                terminated: true,
            } => Ok(text),
            Frame::Line {
                terminated: false, ..
            } => Err("connection dropped mid-response".to_string()),
            Frame::Oversized { drained } => Err(format!("oversized response ({drained} bytes)")),
            Frame::Eof => Err("server closed the connection before responding".to_string()),
        }
    }
}

/// A protocol client that survives transient transport failures: any
/// connect/write error, dropped connection, or unparsable response
/// frame triggers a reconnect and a bounded, seeded-backoff retry of
/// the same request line. Safe because the protocol is idempotent at
/// the retry grain: resubmitted cells hit the content-addressed cache
/// (charged once), budget grants carry a `txn` token, and every other
/// op is read-only or naturally idempotent.
pub struct ServiceClient {
    endpoint: Endpoint,
    local: Option<Box<SweepServer>>,
    conn: Option<ClientConn>,
    policy: RetryPolicy,
    requests: u64,
}

impl ServiceClient {
    /// Connect lazily to a socket server.
    pub fn remote(endpoint: Endpoint, policy: RetryPolicy) -> Self {
        ServiceClient {
            endpoint,
            local: None,
            conn: None,
            policy,
            requests: 0,
        }
    }

    /// Drive an in-process server (no sockets), as `repro submit` does
    /// on [`Endpoint::Stdio`].
    pub fn local(server: SweepServer, policy: RetryPolicy) -> Self {
        ServiceClient {
            endpoint: Endpoint::Stdio,
            local: Some(Box::new(server)),
            conn: None,
            policy,
            requests: 0,
        }
    }

    /// Recover the in-process server (e.g. to merge its cache).
    pub fn into_local_server(self) -> Option<SweepServer> {
        self.local.map(|server| *server)
    }

    /// Send one request line and return the parsed response, retrying
    /// transient transport failures per the policy.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        let request_idx = self.requests;
        self.requests += 1;
        let attempts = self.policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(self.policy.delay_ms(attempt)));
            }
            match self.try_once(line, request_idx, attempt) {
                Ok(response) => return Ok(response),
                Err(transient) => {
                    // The stream state is unknown after a transport
                    // fault; reconnect on the next attempt.
                    self.conn = None;
                    last = transient;
                }
            }
        }
        Err(format!(
            "request failed after {attempts} attempt(s): {last}"
        ))
    }

    /// Convenience: send a JSON request object.
    pub fn request_json(&mut self, request: &Json) -> Result<Json, String> {
        self.request(&request.render_compact())
    }

    fn try_once(&mut self, line: &str, request_idx: u64, attempt: u32) -> Result<Json, String> {
        let fault_key = (request_idx << 8) | u64::from(attempt);
        if dd_chaos::fires("client.submit_transient", fault_key) {
            return Err("injected transient submit failure".to_string());
        }
        let response = match self.local.as_mut() {
            // In-process: no transport to fail.
            Some(server) => server.handle_line(line),
            None => {
                let conn = match self.conn.take() {
                    Some(conn) => conn,
                    None => self
                        .endpoint
                        .connect()
                        .map_err(|e| format!("connect: {e}"))?,
                };
                self.conn.insert(conn).roundtrip(line)?
            }
        };
        // A corrupted frame fails to parse — that is a transport fault
        // (retry), not a server answer.
        parse_response(&response)
    }
}

/// Submit cell specs, print the per-cell outcomes, and enforce
/// `--out` / `--check-batch`. Any non-`done` cell is an error.
pub fn run_submit(opts: &ServiceOptions) -> Result<(), String> {
    if opts.specs.is_empty() {
        return Err("no cell specs given (defense:attacker:device:load[:priority])".to_string());
    }
    let specs: Vec<CellSpec> = opts
        .specs
        .iter()
        .map(|text| CellSpec::parse_compact(text))
        .collect::<Result<_, _>>()?;

    let mut client = match &opts.endpoint {
        Endpoint::Stdio => ServiceClient::local(build_server(opts, None), opts.policy()),
        endpoint => ServiceClient::remote(endpoint.clone(), opts.policy()),
    };

    if let Some(grant) = opts.grant_micros {
        // The txn token makes a retried grant (response lost to a
        // transport fault) apply exactly once.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let txn = format!("{}-{}-{:x}", opts.client, std::process::id(), nanos);
        let budget = Json::obj()
            .with("op", Json::str("budget"))
            .with("client", Json::str(opts.client.clone()))
            .with("grant_micros", Json::uint(grant))
            .with("txn", Json::str(txn));
        expect_ok(client.request_json(&budget)?)?;
    }

    let request = SweepServer::submit_request(&opts.client, opts.quick, &specs);
    let response = expect_ok(client.request_json(&request)?)?;

    let regime = response.field_str("regime").unwrap_or("?").to_string();
    let results = response
        .field_arr("results")
        .map_err(|e| e.message.clone())?;
    let mut cells: Vec<CellReport> = Vec::new();
    let mut failures = 0usize;
    for (spec, result) in specs.iter().zip(results) {
        let status = result.field_str("status").unwrap_or("?").to_string();
        if !opts.quiet {
            let detail = match status.as_str() {
                "done" => format!(
                    "cache_hit={} estimate={}us wall={}us",
                    result.field_bool("cache_hit").unwrap_or(false),
                    result.field_u64("estimate_micros").unwrap_or(0),
                    result.field_u64("wall_micros").unwrap_or(0),
                ),
                "rejected" | "shed" => format!(
                    "reason={} estimate={}us",
                    result.field_str("reason").unwrap_or("?"),
                    result.field_u64("estimate_micros").unwrap_or(0),
                ),
                _ => result.field_str("reason").unwrap_or("?").to_string(),
            };
            println!("repro submit: [{status}] {} ({detail})", spec.label());
        }
        if status == "done" {
            let cell = result
                .field("cell")
                .and_then(CellReport::from_json)
                .map_err(|e| format!("bad cell in response: {}", e.message))?;
            cells.push(cell);
        } else {
            failures += 1;
        }
    }
    if !opts.quiet {
        println!(
            "repro submit: {} done / {} other, regime {regime}",
            cells.len(),
            failures
        );
    }

    let report = MatrixReport { cells };
    if let Some(out) = &opts.out {
        if let Some(parent) = out.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir: {e}"))?;
        }
        std::fs::write(out, report.to_json().render_pretty())
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        if !opts.quiet {
            println!("repro submit: wrote {}", out.display());
        }
    }

    if opts.check_batch {
        if failures > 0 {
            return Err("cannot --check-batch: not every cell completed".to_string());
        }
        let batch = batch_report(&specs, opts.quick)?;
        let server_bytes = report.to_json().render_pretty();
        let batch_bytes = batch.to_json().render_pretty();
        if server_bytes != batch_bytes {
            return Err(
                "server and batch paths disagree: returned cells are not byte-identical"
                    .to_string(),
            );
        }
        println!(
            "repro submit: server cells byte-identical to the batch path ({} cells, {} bytes)",
            specs.len(),
            server_bytes.len()
        );
    }

    if failures > 0 {
        return Err(format!("{failures} cell(s) did not complete"));
    }
    Ok(())
}

/// The batch path for the same specs: a fresh [`ScenarioMatrix`] run per
/// cell (no server, no cache) under the shared [`SweepBase`] constants.
///
/// [`ScenarioMatrix`]: dd_baselines::ScenarioMatrix
pub fn batch_report(specs: &[CellSpec], quick: bool) -> Result<MatrixReport, String> {
    let base = SweepBase::standard(quick);
    let mut cells = Vec::with_capacity(specs.len());
    for spec in specs {
        let report = base
            .matrix_for(spec)
            .run()
            .map_err(|e| format!("batch run of `{}` failed: {e:?}", spec.label()))?;
        cells.extend(report.cells);
    }
    Ok(MatrixReport { cells })
}

fn parse_response(line: &str) -> Result<Json, String> {
    Json::parse(line).map_err(|e| format!("bad response line: {}", e.message))
}

/// The response, or the error it answers with.
fn expect_ok(response: Json) -> Result<Json, String> {
    if response.field_bool("ok") == Ok(true) {
        return Ok(response);
    }
    Err(response
        .field_str("error")
        .map(str::to_string)
        .unwrap_or_else(|_| "server error".to_string()))
}

/// One request to an in-process server: its parsed response, or the
/// error the server answers with.
pub fn request_inline(server: &mut SweepServer, request: &Json) -> Result<Json, String> {
    parse_response(&server.handle_line(&request.render_compact())).and_then(expect_ok)
}

/// Decode the `done` cells of a submit response in request order,
/// erroring on any other status.
pub fn response_cells(response: &Json) -> Result<Vec<CellReport>, String> {
    let results = response
        .field_arr("results")
        .map_err(|e| e.message.clone())?;
    results
        .iter()
        .map(|result| {
            let status = result.field_str("status").unwrap_or("?");
            if status != "done" {
                return Err(format!("cell not done: status {status}"));
            }
            result
                .field("cell")
                .and_then(CellReport::from_json)
                .map_err(|e| e.message.clone())
        })
        .collect()
}
