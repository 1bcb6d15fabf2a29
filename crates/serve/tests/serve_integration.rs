//! End-to-end tests for the serving layer over real TCP: a daemon is
//! started on an ephemeral port for each test and driven through the
//! same [`Client`] the `flexvecc client` subcommand uses.

use std::time::Duration;

use flexvec_serve::server::AcceptMode;
use flexvec_serve::{start, Client, Json, ServerConfig};

/// A small conditional-update kernel; distinct `n` gives a distinct
/// AST and therefore a distinct compile-cache key.
fn kernel_source(n: u64) -> String {
    format!(
        "kernel k{n};\n\
         var i = 0;\n\
         var best = 9223372036854775807;\n\
         array a[64] = seed {seed};\n\
         live_out best;\n\
         for (i = 0; i < 64; i++) {{\n\
           if (a[i] + {n} < best) {{\n\
             best = a[i] + {n};\n\
           }}\n\
         }}\n",
        seed = n + 1,
    )
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        metrics_addr: None,
        workers: 4,
        queue_capacity: 64,
        cache_capacity: 0,
        default_deadline_ms: None,
        cache_dir: None,
        cluster: Vec::new(),
        advertise: None,
        accept_mode: AcceptMode::Auto,
        ..ServerConfig::default()
    }
}

fn compile_request(source: String) -> Json {
    Json::obj([
        ("op", Json::from("compile")),
        ("source", Json::from(source)),
    ])
}

fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

#[test]
fn malformed_input_gets_structured_errors_and_keeps_the_connection() {
    let handle = start(test_config()).expect("start daemon");
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Every malformed line must produce a structured error response on
    // the same connection — never a panic, never a dropped socket.
    let cases: &[(&str, &str)] = &[
        ("{not json", "parse_error"),
        ("[1,2,3]", "bad_request"),
        ("\"just a string\"", "bad_request"),
        ("{}", "bad_request"),
        (r#"{"op":"launch_missiles"}"#, "bad_request"),
        (r#"{"op":"compile"}"#, "bad_request"),
        (
            r#"{"op":"compile","source":"kernel k;","hash":"0000000000000000"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"run","source":"kernel k;","spec":"warp"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"run","source":"kernel k;","engine":"jet"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"run","source":"kernel k;","engine":"tree"}"#,
            "bad_request",
        ),
        (r#"{"op":"run","hash":"zzzz"}"#, "bad_request"),
        (r#"{"op":"run","hash":"00ff"}"#, "unknown_hash"),
        (
            r#"{"op":"bench","source":"kernel k;","invocations":0}"#,
            "bad_request",
        ),
        (
            r#"{"op":"compile","source":"kernel k; for ("}"#,
            "source_error",
        ),
    ];
    for (line, expected_kind) in cases {
        let raw = client.request_raw(line).expect("connection stays up");
        let response = match flexvec_serve::json::parse(&raw) {
            Ok(v) => v,
            Err(e) => panic!("unparseable response {raw:?}: {e}"),
        };
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected failure envelope for {line:?}, got {response}"
        );
        assert_eq!(
            error_kind(&response),
            Some(*expected_kind),
            "wrong error kind for {line:?}: {response}"
        );
    }

    // The connection is still good for a well-formed request.
    let response = client
        .request(&compile_request(kernel_source(7)))
        .expect("valid request after garbage");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert!(response.get("hash").and_then(Json::as_str).is_some());
    drop(client);
    handle.shutdown();
}

/// A unique per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("flexvec-serve-it-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn warm_restart_serves_first_repeat_request_from_disk() {
    let dir = scratch_dir("warm");
    let cache_dir = Some(dir.to_string_lossy().into_owned());

    // First daemon lifetime: compile one kernel, which writes a
    // snapshot under --cache-dir, then shut down.
    let handle = start(ServerConfig {
        cache_dir: cache_dir.clone(),
        ..test_config()
    })
    .expect("start daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let response = client
        .request(&compile_request(kernel_source(77)))
        .expect("compile");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let hash = response
        .get("hash")
        .and_then(Json::as_str)
        .expect("hash in response")
        .to_owned();
    assert_eq!(handle.engine().cache().compiles(), 1);
    drop(client);
    handle.shutdown();

    // Second lifetime, same cache dir, different port: the very first
    // request — by hash alone, which the fresh registry has never
    // seen — must be served from the disk snapshot without compiling.
    let handle = start(ServerConfig {
        cache_dir,
        ..test_config()
    })
    .expect("restart daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("hash", Json::from(hash)),
        ]))
        .expect("hash-only run after restart");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "restart run failed: {response}"
    );
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "first repeat request after restart must be a cache hit: {response}"
    );
    assert_eq!(
        handle.engine().cache().compiles(),
        0,
        "warm restart must not recompile"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_forwards_misses_and_degrades_when_owner_dies() {
    // Reserve three distinct loopback ports, then release them for the
    // daemons to bind (tiny reuse race — fine for a test).
    let reserved: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    let members: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    drop(reserved);

    let mut handles: Vec<_> = members
        .iter()
        .map(|addr| {
            start(ServerConfig {
                addr: addr.clone(),
                cluster: members.clone(),
                advertise: Some(addr.clone()),
                ..test_config()
            })
            .expect("start cluster node")
        })
        .collect();

    // Compile a kernel via node 0 and learn which node owns its hash on
    // the ring (node 0 either served it locally or forwarded it).
    let mut client0 = Client::connect(&members[0]).expect("connect node 0");
    let response = client0
        .request(&compile_request(kernel_source(500)))
        .expect("compile via node 0");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "cluster compile failed: {response}"
    );
    let hash_hex = response
        .get("hash")
        .and_then(Json::as_str)
        .expect("hash in response");
    let hash = u64::from_str_radix(hash_hex, 16).expect("hex hash");
    let owner = handles[0]
        .cluster()
        .expect("cluster mode")
        .owner_of(hash)
        .to_owned();
    let owner_idx = members
        .iter()
        .position(|m| *m == owner)
        .expect("owner in ring");
    // Pick a non-owner that is also not node 0: node 0 already routed
    // this kernel once, and a second forward would trip the hot-key
    // adoption heuristic, which is not what this test is about.
    let other_idx = (1..members.len())
        .find(|&i| i != owner_idx)
        .expect("non-owner");

    // A non-owner node must forward the request to the owner and relay
    // the owner's answer.
    let mut client = Client::connect(&members[other_idx]).expect("connect non-owner");
    let response = client
        .request(&compile_request(kernel_source(500)))
        .expect("compile via non-owner");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "forwarded compile failed: {response}"
    );
    let forwards = handles[other_idx]
        .cluster()
        .expect("cluster mode")
        .counters
        .forwards
        .get();
    assert!(
        forwards >= 1,
        "non-owner never forwarded (forwards={forwards})"
    );

    // Kill the owner: the same request through the surviving node must
    // degrade to a local compile instead of failing.
    handles.remove(owner_idx).shutdown();
    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(500))),
        ]))
        .expect("run with dead owner");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request must survive a dead owner: {response}"
    );
    let survivor_idx = if other_idx > owner_idx {
        other_idx - 1
    } else {
        other_idx
    };
    assert!(
        handles[survivor_idx]
            .cluster()
            .expect("cluster mode")
            .counters
            .forward_failures
            .get()
            >= 1,
        "dead-owner forward was never recorded as a failure"
    );

    drop(client0);
    drop(client);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn concurrent_identical_compiles_insert_exactly_once() {
    let handle = start(test_config()).expect("start daemon");
    let addr = handle.addr.to_string();
    let source = kernel_source(42);

    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            let source = source.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let response = client
                    .request(&compile_request(source))
                    .expect("compile request");
                assert_eq!(
                    response.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "compile failed: {response}"
                );
            });
        }
    });

    // However the eight requests interleaved across the worker pool,
    // the kernel was compiled and inserted exactly once; everyone else
    // was served from the cache. A follower that parked on the
    // in-flight compile counts as coalesced *and*, once woken, as a
    // hit, so only the hit count is exact.
    let cache = handle.engine().cache();
    assert_eq!(cache.compiles(), 1, "identical kernels must compile once");
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1, "only the first request may miss");
    assert_eq!(
        stats.hits,
        (CLIENTS as u64) - 1,
        "every follower must end on a hit: {stats:?}"
    );
    assert!(
        stats.coalesced < CLIENTS as u64,
        "at most every follower parks: {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn deadline_expiry_mid_run_returns_deadline_error() {
    let handle = start(test_config()).expect("start daemon");
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Enough invocations that the run cannot finish inside 1ms; the
    // cancel token is checked at chunk boundaries, so the request must
    // come back with a `deadline` error rather than running to
    // completion or wedging the worker.
    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(3))),
            ("invocations", Json::from(100_000u64)),
            ("deadline_ms", Json::from(1u64)),
        ]))
        .expect("request");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&response), Some("deadline"), "got {response}");
    assert!(handle.metrics().deadline_expired.get() >= 1);

    // The worker that hit the deadline is healthy again.
    let response = client
        .request(&compile_request(kernel_source(4)))
        .expect("request after deadline");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_error() {
    // One worker and a one-slot queue: a slow request occupies the
    // worker, one more waits in the queue, and everything past that
    // must be shed with a structured `overloaded` error.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    };
    let handle = start(config).expect("start daemon");
    let addr = handle.addr.to_string();

    let slow = |n: u64| {
        Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(n))),
            ("invocations", Json::from(50_000u64)),
            ("deadline_ms", Json::from(2_000u64)),
        ])
    };

    let shed = std::thread::scope(|scope| {
        // Occupy the single worker with one slow request (its deadline
        // bounds how long it holds the worker).
        let occupier = {
            let addr = addr.clone();
            let request = slow(0);
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let _ = client.request(&request);
            })
        };
        std::thread::sleep(Duration::from_millis(300));

        // Ten concurrent requests against a busy worker and a one-slot
        // queue: at most one can be admitted; the rest must be shed
        // immediately with a structured `overloaded` error, not left
        // hanging.
        let floods: Vec<_> = (10..20u64)
            .map(|n| {
                let addr = addr.clone();
                let request = slow(n);
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let response = client.request(&request).expect("request");
                    error_kind(&response) == Some("overloaded")
                })
            })
            .collect();
        let shed = floods
            .into_iter()
            .map(|h| h.join().expect("flood thread"))
            .filter(|&was_shed| was_shed)
            .count() as u64;
        occupier.join().expect("occupier thread");
        shed
    });
    assert!(shed > 0, "no request was shed under a full queue");
    assert!(handle.metrics().requests_shed.get() >= shed);
    handle.shutdown();
}

#[test]
fn bounded_cache_evicts_under_parallel_submission_without_errors() {
    // Capacity 16 over a 16-way sharded cache = one entry per shard:
    // heavy parallel traffic over 64 distinct kernels must evict, and
    // every response must still be correct.
    let config = ServerConfig {
        cache_capacity: 16,
        ..test_config()
    };
    let handle = start(config).expect("start daemon");
    let addr = handle.addr.to_string();

    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 24;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..PER_CLIENT {
                    // Overlapping id ranges across clients: some
                    // re-request kernels another client already evicted.
                    let n = (c * 11 + i) % 64;
                    let response = client
                        .request(&compile_request(kernel_source(n)))
                        .expect("compile request");
                    assert_eq!(
                        response.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "compile under eviction pressure failed: {response}"
                    );
                }
            });
        }
    });

    let stats = handle.engine().cache().stats();
    assert!(stats.evictions > 0, "expected evictions: {stats:?}");
    assert!(
        stats.entries <= 16,
        "resident entries exceed capacity: {stats:?}"
    );
    // Every request was answered: hits + misses covers the traffic
    // (coalesced followers are counted separately).
    assert!(stats.hits + stats.misses + stats.coalesced >= CLIENTS * PER_CLIENT);
    handle.shutdown();
}

#[test]
fn run_round_trip_reports_verified_results() {
    let handle = start(test_config()).expect("start daemon");
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(9))),
            ("invocations", Json::from(2u64)),
        ]))
        .expect("run request");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "run failed: {response}"
    );
    // A successful run means the vector result was verified against
    // the scalar baseline; the live-outs come back on the wire.
    assert!(
        response
            .get("live_outs")
            .and_then(|l| l.get("best"))
            .is_some(),
        "run response must carry live-outs: {response}"
    );

    // A second identical run hits the compile cache.
    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(9))),
        ]))
        .expect("second run");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        response.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    drop(client);
    handle.shutdown();
}

/// Drives one daemon through the oversized-line contract: the reply is
/// a structured `line_too_long` error and the connection then closes.
fn assert_line_too_long_contract(mode: AcceptMode) {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut config = test_config();
    config.accept_mode = mode;
    let handle = start(config).expect("start daemon");
    let mut stream = std::net::TcpStream::connect(handle.addr).expect("connect");

    // One byte past the limit, no newline in sight. Written in chunks
    // and then the writer goes quiet, so the reply cannot be lost to a
    // reset racing further writes.
    let limit = 16 * 1024 * 1024;
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < limit + 1 {
        let n = chunk.len().min(limit + 1 - sent);
        stream.write_all(&chunk[..n]).expect("write oversized line");
        sent += n;
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    let response = flexvec_serve::json::parse(&line).expect("structured reply");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(false),
        "{mode:?}: {response}"
    );
    assert_eq!(
        error_kind(&response),
        Some("line_too_long"),
        "{mode:?}: {response}"
    );

    // After the reply the daemon closes: the framing is lost, so the
    // connection cannot be reused.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("read to close");
    assert_eq!(n, 0, "{mode:?}: expected EOF after line_too_long reply");
    handle.shutdown();
}

#[test]
fn oversized_line_gets_structured_reply_then_close_reactor() {
    assert_line_too_long_contract(AcceptMode::Auto);
}

#[test]
fn oversized_line_gets_structured_reply_then_close_threads() {
    assert_line_too_long_contract(AcceptMode::Threads);
}

#[test]
fn per_request_vector_length_round_trips() {
    let handle = start(test_config()).expect("start daemon");
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // First run at the default width, then at vl=32: the second
    // request reuses the same width-independent compile cache entry
    // and reports the width it actually ran at.
    let default_run = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(21))),
        ]))
        .expect("default-width run");
    assert_eq!(default_run.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(default_run.get("vl").and_then(Json::as_u64), Some(16));

    let wide_run = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(21))),
            ("vl", Json::from(32u64)),
        ]))
        .expect("vl=32 run");
    assert_eq!(
        wide_run.get("ok").and_then(Json::as_bool),
        Some(true),
        "{wide_run}"
    );
    assert_eq!(wide_run.get("vl").and_then(Json::as_u64), Some(32));
    assert_eq!(
        wide_run.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "one compile serves both widths"
    );
    assert_eq!(
        default_run
            .get("live_outs")
            .and_then(|l| l.get("best"))
            .and_then(Json::as_i64),
        wide_run
            .get("live_outs")
            .and_then(|l| l.get("best"))
            .and_then(Json::as_i64),
        "widths agree on the result"
    );

    // An unsupported width is refused cleanly with the request intact.
    let bad = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(21))),
            ("vl", Json::from(24u64)),
        ]))
        .expect("bad-width reply");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&bad), Some("bad_request"));
    drop(client);
    handle.shutdown();
}
