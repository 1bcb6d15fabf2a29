//! End-to-end replication tests over real TCP rings.
//!
//! Two legs: a **warm join** (a node joining a warmed ring serves its
//! working set from peer snapshots, zero recompiles) and the
//! **validation-before-trust** guarantee (a bit-flipped snapshot shipped
//! by a peer is rejected by the checksum gate and recompiled locally,
//! and the recompiled kernel's execution is bit-identical — µop trace,
//! statistics, live-outs, memory — to a from-scratch local compile).

use std::time::{Duration, Instant};

use flexvec::SpecRequest;
use flexvec_front::{parse_str, CompileCache, CompiledKernel, ParsedKernel};
use flexvec_mem::AddressSpace;
use flexvec_serve::{start, Client, Json, ServerConfig};
use flexvec_vm::{run_vector_precompiled_with_scratch, Bindings, Uop, VecSink, VectorStats};

/// Same conditional-update kernel family as the other serve suites.
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

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flexvec-repl-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Reserves a concrete port so cluster member lists can be written
/// before the daemons start. (Bind-then-drop; the tiny reuse window is
/// the standard trade for static membership in tests.)
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("local addr").to_string()
}

fn node_config(addr: &str, members: &[String], dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        workers: 4,
        queue_capacity: 64,
        cache_capacity: 0,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        cluster: members.to_vec(),
        advertise: Some(addr.to_owned()),
        gossip_interval_ms: 50,
        ..ServerConfig::default()
    }
}

fn run_request(source: String) -> Json {
    Json::obj([("op", Json::from("run")), ("source", Json::from(source))])
}

fn await_synced(handle: &flexvec_serve::ServerHandle) {
    let repl = handle.replication().expect("replication enabled");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !repl.synced() {
        assert!(
            Instant::now() < deadline,
            "anti-entropy sync never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One traced vector execution of a compiled kernel: the comparable
/// observables for the bit-identical assertion.
fn traced_run(
    parsed: &ParsedKernel,
    kernel: &CompiledKernel,
) -> (Vec<Uop>, VectorStats, Vec<i64>, Vec<Vec<i64>>) {
    let plan = kernel.plan.as_ref().expect("kernel vectorizes");
    let mut mem = AddressSpace::new();
    let ids: Vec<_> = parsed
        .materialize_arrays()
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("a{i}"), data))
        .collect();
    let mut sink = VecSink::default();
    let (result, stats) = run_vector_precompiled_with_scratch(
        &parsed.program,
        &plan.vectorized.vprog,
        &plan.compiled,
        &mut plan.compiled.scratch(),
        &mut mem,
        Bindings::new(ids.clone()),
        &mut sink,
    )
    .expect("vector run");
    let live_outs = parsed
        .program
        .live_out
        .iter()
        .map(|v| result.var(*v))
        .collect();
    let memory = ids.iter().map(|id| mem.snapshot_array(*id)).collect();
    (sink.uops, stats, live_outs, memory)
}

/// A node joining a warmed ring serves the whole working set without a
/// single local compile: its owned slice arrives via anti-entropy sync,
/// the rest via lazy pulls on first touch.
#[test]
fn joining_node_serves_warm_with_zero_recompiles() {
    const KERNELS: u64 = 6;
    let addr_a = free_addr();
    let addr_b = free_addr();
    let members = vec![addr_a.clone(), addr_b.clone()];
    let dir_a = scratch_dir("warm-a");
    let dir_b = scratch_dir("warm-b");

    // Warm node A with the working set (B is not up yet; A's gossip to
    // it just trips a breaker, which must not hurt anything).
    let node_a = start(node_config(&addr_a, &members, &dir_a)).expect("start node A");
    let mut client_a = Client::connect(&addr_a).expect("connect A");
    for n in 0..KERNELS {
        let response = client_a
            .request(&run_request(kernel_source(n)))
            .expect("warm A");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "warming A with kernel {n} failed: {response}"
        );
    }

    // Join node B: anti-entropy sync pulls its owned slice before it
    // is marked synced; everything else lazy-pulls on first touch.
    let node_b = start(node_config(&addr_b, &members, &dir_b)).expect("start node B");
    await_synced(&node_b);

    let mut client_b = Client::connect(&addr_b).expect("connect B");
    for n in 0..KERNELS {
        let response = client_b
            .request(&run_request(kernel_source(n)))
            .expect("warm-join request");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "kernel {n} on the joined node failed: {response}"
        );
        let cache = response.get("cache").and_then(Json::as_str).unwrap_or("?");
        assert!(
            cache == "hit" || cache == "pulled" || cache == "restored",
            "kernel {n} was not served warm (cache={cache}): {response}"
        );
    }

    assert_eq!(
        node_b.engine().cache().compiles(),
        0,
        "the joining node must not compile anything"
    );
    let store_b = node_b.engine().snapshots().expect("store B");
    let pulled = store_b
        .counters
        .pulled
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        pulled, KERNELS,
        "every kernel must arrive via exactly one validated pull"
    );

    drop(client_a);
    drop(client_b);
    node_b.shutdown();
    node_a.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A bit-flipped snapshot shipped by a peer is rejected by the checksum
/// gate (never executed, never persisted), the kernel recompiles
/// locally, and the recompiled kernel is bit-identical in execution to
/// a from-scratch compile.
#[test]
fn tampered_pulled_snapshot_is_rejected_and_recompiled_bit_identically() {
    const N: u64 = 77;
    let addr_a = free_addr();
    let addr_b = free_addr();
    let members = vec![addr_a.clone(), addr_b.clone()];
    let dir_a = scratch_dir("tamper-a");
    let dir_b = scratch_dir("tamper-b");

    // Warm A, then flip one payload bit in its on-disk snapshot
    // *without* resealing the checksum — exactly what ships to B.
    let node_a = start(node_config(&addr_a, &members, &dir_a)).expect("start node A");
    let mut client_a = Client::connect(&addr_a).expect("connect A");
    let response = client_a
        .request(&run_request(kernel_source(N)))
        .expect("warm A");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let hash = response
        .get("hash")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();
    let path = dir_a.join(format!("{hash}.ff.fvc"));
    let mut bytes = std::fs::read(&path).expect("read A's snapshot");
    let mid = bytes.len() - 16; // payload region, ahead of the checksum
    bytes[mid] ^= 0x20;
    std::fs::write(&path, bytes).expect("tamper A's snapshot");

    let node_b = start(node_config(&addr_b, &members, &dir_b)).expect("start node B");
    await_synced(&node_b);

    // B sees A's manifest claim, pulls the tampered bytes, rejects
    // them at the checksum gate, and compiles from source instead.
    let mut client_b = Client::connect(&addr_b).expect("connect B");
    let response = client_b
        .request(&run_request(kernel_source(N)))
        .expect("request on B");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "B must recover by compiling locally: {response}"
    );
    assert_eq!(
        response.get("cache").and_then(Json::as_str),
        Some("compiled"),
        "the tampered pull must not be served: {response}"
    );
    assert_eq!(node_b.engine().cache().compiles(), 1);

    let store_b = node_b.engine().snapshots().expect("store B");
    assert!(
        store_b
            .counters
            .reject_count(flexvec_serve::RejectReason::Checksum)
            >= 1,
        "the checksum gate must be the one rejecting a bit flip"
    );
    let repl_b = node_b.replication().expect("replication on B");
    assert!(
        repl_b.counters.pull_failures.get() >= 1,
        "the failed pull must be counted"
    );

    // Bit-identical recovery: B's recompiled kernel must execute
    // exactly like a from-scratch local compile — µop trace,
    // statistics, live-outs, and final memory all equal.
    let parsed = parse_str("<test>", &kernel_source(N)).expect("kernel parses");
    let (recompiled, hit) = node_b
        .engine()
        .cache()
        .get_or_compile(&parsed.program, SpecRequest::Auto);
    assert!(hit, "B's recompiled kernel is resident");
    let fresh_cache = CompileCache::new();
    let (fresh, _) = fresh_cache.get_or_compile(&parsed.program, SpecRequest::Auto);

    let (uops_a, stats_a, live_a, mem_a) = traced_run(&parsed, &recompiled);
    let (uops_b, stats_b, live_b, mem_b) = traced_run(&parsed, &fresh);
    assert_eq!(live_a, live_b, "live-outs diverged after recompile");
    assert_eq!(mem_a, mem_b, "final memory diverged after recompile");
    assert_eq!(stats_a, stats_b, "engine statistics diverged");
    assert_eq!(
        uops_a, uops_b,
        "µop traces diverged: the recompiled kernel is not the local compile"
    );

    drop(client_a);
    drop(client_b);
    node_b.shutdown();
    node_a.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The snapshot store's byte bound holds under replication: a bounded
/// store sweeps oldest-generation snapshots on write and counts the
/// evictions, so a pull storm cannot fill the disk.
#[test]
fn bounded_store_sweeps_oldest_snapshots_on_write() {
    let dir = scratch_dir("bound");
    let addr = free_addr();
    let config = ServerConfig {
        cache_dir_max_bytes: Some(2500), // a snapshot of this family is ~1.2 KiB: two fit
        advertise: None,
        ..node_config(&addr, &[], &dir)
    };
    let handle = start(config).expect("start daemon");
    let mut client = Client::connect(&addr).expect("connect");
    for n in 0..6 {
        let response = client
            .request(&Json::obj([
                ("op", Json::from("compile")),
                ("source", Json::from(kernel_source(n))),
            ]))
            .expect("compile");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "compile {n} failed: {response}"
        );
    }
    let store = handle.engine().snapshots().expect("store");
    let evicted = store
        .counters
        .evicted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(evicted >= 1, "the byte bound never evicted anything");
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("read dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".fvc"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum();
    assert!(
        on_disk <= 2500,
        "store exceeded its byte bound: {on_disk} bytes on disk"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
