//! End-to-end checks of the matrix-as-a-service path (ISSUE 6).
//!
//! The server's promise is that serving a cell is *transparent*: the
//! bytes a client gets back are exactly the bytes the batch harness
//! would have produced for the same spec. That only holds while the
//! server's [`SweepBase`] constants track the bench crate's
//! `workload_matrix` — these tests lock both directions.

use std::collections::{HashMap, HashSet};

use dd_baselines::{BackgroundLoad, DefenseKind, MatrixReport};
use dd_bench::cache::{parse_cell_cache, render_cell_cache};
use dd_bench::experiments::{workload_matrix, ExperimentId, RunContext};
use dd_bench::report::{Artifact, Report};
use dd_bench::serve::{
    request_inline, response_cells, BoundListener, Endpoint, RetryPolicy, ServiceClient,
};
use dd_server::{CellSpec, DeviceSpec, ServerConfig, SweepBase, SweepServer};
use dnn_defender::{CostModel, Json};
use std::io::{Read, Write};

fn quick_server() -> SweepServer {
    let config = ServerConfig {
        quick: true,
        workers: 2,
        capacity_micros: 60_000_000,
        default_grant_micros: 10_000_000,
    };
    SweepServer::new(config, CostModel::new(200_000_000, 16 * 8 * 128))
}

fn spec(defense: DefenseKind, load: BackgroundLoad) -> CellSpec {
    CellSpec {
        defense,
        attacker: dd_baselines::AttackerKind::Bfa,
        device: DeviceSpec::parse("lpddr4_small").expect("device"),
        load,
        priority: 0,
    }
}

/// The server's sweep base and the bench workload matrix must produce the
/// same content-addressed keys for the specs they share — this is what
/// makes server-computed cells reusable by `repro workload` and vice
/// versa. If this test fails, one side's constants drifted.
#[test]
fn sweep_base_keys_match_workload_matrix() {
    for quick in [true, false] {
        let base = SweepBase::standard(quick);
        let batch_keys: HashSet<u64> = workload_matrix(quick)
            .cell_keys()
            .into_iter()
            .map(|(_, key)| key)
            .collect();
        let mut shared = 0;
        for defense in [DefenseKind::Undefended, DefenseKind::DnnDefender] {
            for load in BackgroundLoad::ALL {
                let key = base.cell_key(&spec(defense, load)).1;
                assert!(
                    batch_keys.contains(&key),
                    "server key for {defense:?}×{load:?} not in the workload matrix"
                );
                shared += 1;
            }
        }
        assert_eq!(
            shared,
            batch_keys.len(),
            "the matrices cover the same cells"
        );
    }
}

/// Cells served over the protocol are byte-identical to a batch run of
/// the same specs (the tentpole acceptance criterion).
#[test]
fn served_cells_are_byte_identical_to_batch() {
    let specs = [
        spec(DefenseKind::Undefended, BackgroundLoad::None),
        spec(DefenseKind::DnnDefender, BackgroundLoad::Light),
    ];

    let mut server = quick_server();
    let request = SweepServer::submit_request("e2e", true, &specs);
    let response = request_inline(&mut server, &request).expect("submit");
    let served = MatrixReport {
        cells: response_cells(&response).expect("all cells done"),
    };

    let base = SweepBase::standard(true);
    let mut batch_cells = Vec::new();
    for s in &specs {
        let report = base.matrix_for(s).run().expect("batch run");
        batch_cells.extend(report.cells);
    }
    let batch = MatrixReport { cells: batch_cells };

    assert_eq!(
        served.to_json().render_pretty(),
        batch.to_json().render_pretty(),
        "server and batch paths must produce identical bytes"
    );

    // And a warm resubmit serves the same bytes from cache.
    let warm = request_inline(&mut server, &request).expect("warm submit");
    for result in warm.field_arr("results").expect("results") {
        assert_eq!(result.field_bool("cache_hit"), Ok(true));
    }
    let warm_cells = MatrixReport {
        cells: response_cells(&warm).expect("warm cells"),
    };
    assert_eq!(
        warm_cells.to_json().render_pretty(),
        batch.to_json().render_pretty()
    );
}

/// A client whose budget cannot cover a cell gets a structured rejection
/// — never a hang, never unpriced work (the satellite acceptance
/// criterion, exercised through the public protocol surface).
#[test]
fn exhausted_budget_is_a_structured_rejection() {
    let mut server = quick_server();
    let grant = Json::obj()
        .with("op", Json::str("budget"))
        .with("client", Json::str("pauper"))
        .with("grant_micros", Json::uint(1));
    let response = Json::parse(&server.handle_line(&grant.render_compact())).expect("grant");
    assert_eq!(response.field_bool("ok"), Ok(true));

    let cells = [spec(DefenseKind::Undefended, BackgroundLoad::None)];
    let request = SweepServer::submit_request("pauper", true, &cells);
    let response = request_inline(&mut server, &request).expect("submit answers");
    let results = response.field_arr("results").expect("results");
    assert_eq!(results[0].field_str("status"), Ok("rejected"));
    assert_eq!(results[0].field_str("reason"), Ok("budget_exhausted"));
    assert!(results[0].field_u64("estimate_micros").expect("priced") > 1);
}

/// Spawn a quick server on the given transport, returning the join
/// handle and the client-side address. Binding happens before the
/// thread starts, so connects never race the listener.
fn spawn_server(
    transport: &str,
) -> (
    std::thread::JoinHandle<Result<(), String>>,
    Endpoint,
    Option<std::path::PathBuf>,
) {
    use std::time::Duration;
    let (endpoint, socket_path) = match transport {
        "unix" => {
            let socket = std::env::temp_dir().join(format!(
                "dd-serve-e2e-{}-{:?}.sock",
                std::process::id(),
                std::thread::current().id(),
            ));
            (Endpoint::Unix(socket.clone()), Some(socket))
        }
        _ => (Endpoint::Tcp("127.0.0.1:0".to_string()), None),
    };
    let bound = BoundListener::bind(&endpoint).expect("bind");
    let remote = bound.endpoint();
    let handle =
        std::thread::spawn(move || bound.serve(quick_server(), Some(Duration::from_secs(30))));
    (handle, remote, socket_path)
}

fn raw_connect(remote: &Endpoint) -> (Box<dyn std::io::Write>, Box<dyn std::io::Read>) {
    match remote {
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
            (
                Box::new(stream.try_clone().expect("clone")),
                Box::new(stream),
            )
        }
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr.as_str()).expect("connect");
            (
                Box::new(stream.try_clone().expect("clone")),
                Box::new(stream),
            )
        }
        Endpoint::Stdio => unreachable!("servers under test listen on sockets"),
    }
}

/// Both socket front ends multiplex connections: an idle client holding
/// a connection open must not block another client's accept + request
/// (the one-connection-at-a-time limit called out in ROADMAP), and
/// shutdown drains the idle connection instead of waiting out its
/// deadline.
#[test]
fn serves_second_client_while_first_holds_connection_open() {
    for transport in ["unix", "tcp"] {
        let (server, remote, socket_path) = spawn_server(transport);

        // Client A connects and says nothing — under the old
        // single-threaded accept loop this parks the server forever.
        let (idle_writer, mut idle_reader) = raw_connect(&remote);

        // Client B must still get served, promptly.
        let mut client = ServiceClient::remote(remote, RetryPolicy::default());
        let hello = client.request("{\"op\":\"hello\"}").expect("hello");
        assert_eq!(hello.field_bool("ok"), Ok(true), "{transport}");
        let bye = client.request("{\"op\":\"shutdown\"}").expect("shutdown");
        assert_eq!(bye.field_bool("ok"), Ok(true), "{transport}");

        // Shutdown closes the idle connection (EOF), so the server
        // thread joins without waiting out A's read deadline.
        let mut scratch = [0u8; 8];
        let n = idle_reader.read(&mut scratch).expect("idle read");
        assert_eq!(n, 0, "{transport}: idle connection drained on shutdown");
        drop(idle_writer);
        server
            .join()
            .expect("server thread exits")
            .expect("serve loop exits cleanly");
        if let Some(socket) = socket_path {
            assert!(!socket.exists(), "socket file cleaned up on shutdown");
        }
    }
}

/// A client that disconnects mid-frame (no trailing newline) must not
/// wedge or kill the server: the partial request is dropped with the
/// connection and the next client is served normally — on both
/// transports.
#[test]
fn mid_frame_disconnect_leaves_server_serving() {
    for transport in ["unix", "tcp"] {
        let (server, remote, _socket) = spawn_server(transport);

        {
            let (mut writer, reader) = raw_connect(&remote);
            writer
                .write_all(b"{\"op\":\"subm")
                .expect("partial frame written");
            writer.flush().expect("flush");
            drop(writer);
            drop(reader);
        }

        let mut client = ServiceClient::remote(remote, RetryPolicy::default());
        let hello = client.request("{\"op\":\"hello\"}").expect("hello");
        assert_eq!(hello.field_bool("ok"), Ok(true), "{transport}");
        client.request("{\"op\":\"shutdown\"}").expect("shutdown");
        server
            .join()
            .expect("server thread exits")
            .expect("serve loop exits cleanly");
    }
}

/// The `server` experiment's artifact round-trips through the schema and
/// its session cells land in the shared cell cache under keys the cache
/// file format preserves.
#[test]
fn server_artifact_schema_round_trips() {
    let mut cells = HashMap::new();
    let mut ctx = RunContext {
        quick: true,
        jobs: Some(2),
        cells: &mut cells,
        verbose: false,
    };
    let artifact = ExperimentId::Server
        .run(&mut ctx)
        .expect("scripted session");
    assert_eq!(artifact.experiment, "server");
    assert_eq!(artifact.cache.cells, 22);
    assert_eq!(artifact.cache.cache_hits, 10);

    let text = artifact.to_json().render_pretty();
    let back = Artifact::parse(&text).expect("round trip");
    assert_eq!(back, artifact);
    assert_eq!(back.to_json().render_pretty(), text);

    // Session cells flow into the shared cache and survive the on-disk
    // format (alice's four, bob's computed one, carol's survivor...).
    assert!(cells.len() >= 6, "session cells merged into the run cache");
    let rendered = render_cell_cache(&cells);
    let reloaded = parse_cell_cache(&Json::parse(&rendered).expect("cache parses"));
    assert_eq!(reloaded.cells.len(), cells.len());
}
