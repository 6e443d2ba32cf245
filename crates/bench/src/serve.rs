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
//! * connections read through [`FrameReader`] under a per-connection
//!   read deadline — oversized frames get a structured error and the
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
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// Options of `repro serve`.
pub struct ServeOptions {
    /// Artifact directory (cell-cache warm start + kernel calibration).
    pub artifacts_dir: PathBuf,
    /// Listen on this Unix socket instead of stdin/stdout.
    pub socket: Option<PathBuf>,
    /// Listen on this TCP address (e.g. `127.0.0.1:7979`) instead of
    /// stdin/stdout. Mutually exclusive with `socket`.
    pub tcp: Option<String>,
    /// Per-connection read deadline override, in milliseconds
    /// (default [`DEFAULT_READ_TIMEOUT_MS`]; 0 disables).
    pub read_timeout_ms: Option<u64>,
    /// Executor worker threads (default: one per core).
    pub jobs: Option<usize>,
    /// Regime planning capacity override, in estimated microseconds.
    pub capacity_micros: Option<u64>,
    /// Default per-client grant override, in estimated microseconds.
    pub grant_micros: Option<u64>,
    /// Quick (smoke) mode.
    pub quick: bool,
}

impl ServeOptions {
    fn read_timeout(&self) -> Option<Duration> {
        match self.read_timeout_ms.unwrap_or(DEFAULT_READ_TIMEOUT_MS) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }
}

/// Where a server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Line-delimited JSON on stdin/stdout (server only).
    Stdio,
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
}

fn serve_endpoint(opts: &ServeOptions) -> Result<Endpoint, String> {
    match (&opts.socket, &opts.tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".to_string()),
        (Some(path), None) => Ok(Endpoint::Unix(path.clone())),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.clone())),
        (None, None) => Ok(Endpoint::Stdio),
    }
}

/// The common surface of the two socket stream types.
trait Stream: Read + Write + Send + Sized {
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

enum ListenerKind {
    Unix {
        listener: UnixListener,
        path: PathBuf,
    },
    Tcp {
        listener: TcpListener,
    },
}

/// A bound (but not yet serving) listener. Binding and serving are
/// separate so harnesses can bind an ephemeral TCP port, read the
/// address, and only then hand the listener to a server thread.
pub struct BoundListener {
    kind: ListenerKind,
}

impl BoundListener {
    /// Bind the endpoint ([`Endpoint::Stdio`] is not bindable).
    pub fn bind(endpoint: &Endpoint) -> Result<Self, String> {
        match endpoint {
            Endpoint::Stdio => Err("stdio endpoint cannot be bound".to_string()),
            Endpoint::Unix(path) => {
                // A stale socket file from a previous run would make bind
                // fail.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
                Ok(BoundListener {
                    kind: ListenerKind::Unix {
                        listener,
                        path: path.clone(),
                    },
                })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())
                    .map_err(|e| format!("cannot bind tcp {addr}: {e}"))?;
                Ok(BoundListener {
                    kind: ListenerKind::Tcp { listener },
                })
            }
        }
    }

    /// Human-readable bound address.
    pub fn describe(&self) -> String {
        match &self.kind {
            ListenerKind::Unix { path, .. } => format!("unix {}", path.display()),
            ListenerKind::Tcp { listener } => match listener.local_addr() {
                Ok(addr) => format!("tcp {addr}"),
                Err(_) => "tcp ?".to_string(),
            },
        }
    }

    /// The actual TCP address (resolves port 0 to the bound port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.kind {
            ListenerKind::Tcp { listener } => listener.local_addr().ok(),
            ListenerKind::Unix { .. } => None,
        }
    }

    /// Serve connections until a `shutdown` op. Connections multiplex:
    /// each one gets its own thread; requests admit and complete at the
    /// server mutex but execute outside it, so a long submit does not
    /// block other clients' requests — and an idle or slow client never
    /// blocks accept. On shutdown, in-flight requests drain and every
    /// open connection is closed.
    pub fn serve(self, server: SweepServer, read_timeout: Option<Duration>) -> Result<(), String> {
        match self.kind {
            ListenerKind::Unix { listener, path } => {
                let wake_path = path.clone();
                let wake = move || {
                    let _ = UnixStream::connect(&wake_path);
                };
                let result = drive(server, listener.incoming(), wake, read_timeout);
                let _ = std::fs::remove_file(&path);
                result
            }
            ListenerKind::Tcp { listener } => {
                let addr = listener
                    .local_addr()
                    .map_err(|e| format!("local_addr: {e}"))?;
                let wake = move || {
                    let _ = TcpStream::connect(addr);
                };
                drive(server, listener.incoming(), wake, read_timeout)
            }
        }
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
                if let Err(e) = serve_connection(server, stream, conn_id, read_timeout) {
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

/// One connection: framed reads under the deadline, three-phase request
/// handling, chaos-injected drops/corruption on the write side.
fn serve_connection<S: Stream>(
    server: &Mutex<SweepServer>,
    stream: S,
    conn_id: u64,
    read_timeout: Option<Duration>,
) -> Result<(), String> {
    stream
        .set_read_deadline(read_timeout)
        .map_err(|e| format!("set read deadline: {e}"))?;
    let mut writer = stream
        .try_clone_stream()
        .map_err(|e| format!("clone: {e}"))?;
    let mut frames = FrameReader::new(BufReader::new(stream), MAX_FRAME_BYTES);
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

fn build_server(opts: &ServeOptions) -> SweepServer {
    let mut config = ServerConfig::standard(opts.quick);
    if let Some(jobs) = opts.jobs {
        config.workers = jobs;
    }
    if let Some(capacity) = opts.capacity_micros {
        config.capacity_micros = capacity;
    }
    if let Some(grant) = opts.grant_micros {
        config.default_grant_micros = grant;
    }
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
pub fn run_serve(opts: &ServeOptions) -> Result<(), String> {
    let server = build_server(opts);
    match serve_endpoint(opts)? {
        Endpoint::Stdio => serve_stdio(server),
        endpoint => {
            let bound = BoundListener::bind(&endpoint)?;
            eprintln!("repro serve: listening on {}", bound.describe());
            bound.serve(server, opts.read_timeout())
        }
    }
}

fn serve_stdio(mut server: SweepServer) -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut frames = FrameReader::new(stdin.lock(), MAX_FRAME_BYTES);
    loop {
        let response = match frames.next_frame().map_err(|e| format!("stdin: {e}"))? {
            Frame::Eof => return Ok(()),
            Frame::Line {
                terminated: false, ..
            } => return Ok(()),
            Frame::Oversized { drained } => oversized_response(drained),
            Frame::Line { text, .. } => {
                if text.trim().is_empty() {
                    continue;
                }
                server.handle_line(&text)
            }
        };
        let mut out = stdout.lock();
        writeln!(out, "{response}").map_err(|e| format!("stdout: {e}"))?;
        out.flush().map_err(|e| format!("stdout: {e}"))?;
        if server.is_shutdown() {
            return Ok(());
        }
    }
}

/// Where `repro submit` (or a harness client) connects.
#[derive(Debug, Clone)]
pub enum Remote {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
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

struct SocketConn<S: Stream> {
    frames: FrameReader<BufReader<S>>,
    writer: S,
}

impl<S: Stream> SocketConn<S> {
    fn new(stream: S) -> std::io::Result<Self> {
        stream.set_read_deadline(Some(CLIENT_READ_TIMEOUT))?;
        let writer = stream.try_clone_stream()?;
        Ok(SocketConn {
            frames: FrameReader::new(BufReader::new(stream), MAX_FRAME_BYTES),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// One response line, or a transient-failure description.
    fn recv(&mut self) -> std::io::Result<Result<String, String>> {
        Ok(match self.frames.next_frame()? {
            Frame::Line {
                text,
                terminated: true,
            } => Ok(text),
            Frame::Line {
                terminated: false, ..
            } => Err("connection dropped mid-response".to_string()),
            Frame::Oversized { drained } => Err(format!("oversized response ({drained} bytes)")),
            Frame::Eof => Err("server closed the connection before responding".to_string()),
        })
    }
}

enum ClientConn {
    Unix(SocketConn<UnixStream>),
    Tcp(SocketConn<TcpStream>),
}

impl ClientConn {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        match self {
            ClientConn::Unix(conn) => conn.send(line),
            ClientConn::Tcp(conn) => conn.send(line),
        }
    }
    fn recv(&mut self) -> std::io::Result<Result<String, String>> {
        match self {
            ClientConn::Unix(conn) => conn.recv(),
            ClientConn::Tcp(conn) => conn.recv(),
        }
    }
}

impl Remote {
    fn connect(&self) -> std::io::Result<ClientConn> {
        match self {
            Remote::Unix(path) => Ok(ClientConn::Unix(SocketConn::new(UnixStream::connect(
                path,
            )?)?)),
            Remote::Tcp(addr) => Ok(ClientConn::Tcp(SocketConn::new(TcpStream::connect(
                addr.as_str(),
            )?)?)),
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
    remote: Option<Remote>,
    local: Option<Box<SweepServer>>,
    conn: Option<ClientConn>,
    policy: RetryPolicy,
    requests: u64,
}

impl ServiceClient {
    /// Connect lazily to a socket server.
    pub fn remote(remote: Remote, policy: RetryPolicy) -> Self {
        ServiceClient {
            remote: Some(remote),
            local: None,
            conn: None,
            policy,
            requests: 0,
        }
    }

    /// Drive an in-process server (no sockets).
    pub fn local(server: SweepServer, policy: RetryPolicy) -> Self {
        ServiceClient {
            remote: None,
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
        if let Some(server) = self.local.as_mut() {
            // In-process: no transport to fail.
            return Json::parse(&server.handle_line(line))
                .map_err(|e| format!("bad response line: {}", e.message));
        }
        let remote = self.remote.as_ref().ok_or("client has no endpoint")?;
        if self.conn.is_none() {
            self.conn = Some(remote.connect().map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().ok_or("client has no connection")?;
        conn.send(line).map_err(|e| format!("write: {e}"))?;
        let response = conn.recv().map_err(|e| format!("read: {e}"))??;
        // A corrupted frame fails to parse — that is a transport fault
        // (retry), not a server answer.
        Json::parse(&response).map_err(|e| format!("bad response line: {}", e.message))
    }
}

/// Options of `repro submit`.
pub struct SubmitOptions {
    /// Artifact directory (for the in-process server and batch check).
    pub artifacts_dir: PathBuf,
    /// Connect to a `repro serve --socket` server.
    pub socket: Option<PathBuf>,
    /// Connect to a `repro serve --tcp` server. Mutually exclusive with
    /// `socket`; in-process when neither is given.
    pub tcp: Option<String>,
    /// Client name for budget accounting.
    pub client: String,
    /// Grant this many estimated microseconds before submitting.
    pub grant_micros: Option<u64>,
    /// Retry attempts per request (default 5).
    pub retries: Option<u32>,
    /// Seed of the retry backoff jitter.
    pub retry_seed: Option<u64>,
    /// Write the returned cells as a canonical `MatrixReport` document.
    pub out: Option<PathBuf>,
    /// Re-run the same specs through the batch path and require
    /// byte-identical cells.
    pub check_batch: bool,
    /// Quick (smoke) mode — must match the server's.
    pub quick: bool,
    /// Suppress per-cell lines.
    pub quiet: bool,
    /// Cell specs (`defense:attacker:device:load[:priority]`).
    pub specs: Vec<String>,
}

impl SubmitOptions {
    fn policy(&self) -> RetryPolicy {
        let mut policy = RetryPolicy::default();
        if let Some(attempts) = self.retries {
            policy.attempts = attempts.max(1);
        }
        if let Some(seed) = self.retry_seed {
            policy.seed = seed;
        }
        policy
    }
}

/// Submit cell specs, print the per-cell outcomes, and enforce
/// `--out` / `--check-batch`. Any non-`done` cell is an error.
pub fn run_submit(opts: &SubmitOptions) -> Result<(), String> {
    if opts.specs.is_empty() {
        return Err("no cell specs given (defense:attacker:device:load[:priority])".to_string());
    }
    let specs: Vec<CellSpec> = opts
        .specs
        .iter()
        .map(|text| CellSpec::parse_compact(text))
        .collect::<Result<_, _>>()?;

    let policy = opts.policy();
    let mut client = match (&opts.socket, &opts.tcp) {
        (Some(_), Some(_)) => {
            return Err("--socket and --tcp are mutually exclusive".to_string());
        }
        (Some(path), None) => ServiceClient::remote(Remote::Unix(path.clone()), policy),
        (None, Some(addr)) => ServiceClient::remote(Remote::Tcp(addr.clone()), policy),
        (None, None) => ServiceClient::local(
            build_server(&ServeOptions {
                artifacts_dir: opts.artifacts_dir.clone(),
                socket: None,
                tcp: None,
                read_timeout_ms: None,
                jobs: None,
                capacity_micros: None,
                grant_micros: None,
                quick: opts.quick,
            }),
            policy,
        ),
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
        let response = client.request_json(&budget)?;
        expect_ok(&response)?;
    }

    let request = SweepServer::submit_request(&opts.client, opts.quick, &specs);
    let response = client.request_json(&request)?;
    expect_ok(&response)?;

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

fn expect_ok(response: &Json) -> Result<(), String> {
    if response.field_bool("ok") == Ok(true) {
        return Ok(());
    }
    Err(response
        .field_str("error")
        .map(str::to_string)
        .unwrap_or_else(|_| "server error".to_string()))
}

/// Shared in-process round trip used by tests and the `server`
/// experiment: submit `specs` for `client` against `server`, returning
/// the parsed response.
pub fn submit_specs(
    server: &mut SweepServer,
    client: &str,
    specs: &[CellSpec],
    quick: bool,
) -> Result<Json, String> {
    let request = SweepServer::submit_request(client, quick, specs);
    let response = parse_response(&server.handle_line(&request.render_compact()))?;
    expect_ok(&response)?;
    Ok(response)
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
