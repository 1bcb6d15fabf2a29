//! `serve_load` — load generator for the flexvec-serve daemon.
//!
//! Starts an in-process daemon on an ephemeral port, drives it over
//! real TCP from a pool of client threads, and reports p50/p95/p99
//! latency plus sustained req/s for three traffic shapes:
//!
//! * **repeat** — the same small kernel set over and over: every
//!   request after the warmup is a compile-cache hit;
//! * **one-shot** — every request is a distinct kernel: every request
//!   pays the full analyze→vectorize→bytecode-compile pipeline;
//! * **run** — end-to-end execute requests (scalar baseline + vector
//!   + verification) for execution-latency percentiles;
//! * **width sweep** — the run traffic repeated at every supported
//!   vector length (`"vl": 8/16/32/64` on the wire), reporting a
//!   per-width throughput table off one shared compile-cache set.
//!
//! The headline number is the repeat/one-shot throughput ratio: the
//! service exists so that repeat-kernel traffic skips compilation, and
//! this driver fails (exit 1) if that ratio drops below 5× — both
//! shapes travel the same wire and queue, so the ratio isolates the
//! cache.
//!
//! A fourth phase demonstrates the execution rule end to end: one
//! straight-line-heavy kernel is submitted with the engine omitted
//! (`auto`), so its first request verifies on the bytecode and the
//! requests after it run native code. The final steady request's
//! `chunks_per_sec` (measured by the daemon around its own exec loop,
//! so the wire cancels out) is compared against a forced
//! `"engine":"compiled"` bench of the same kernel, and on x86-64 hosts
//! the run fails unless native code beats the bytecode by a measurable
//! margin.
//!
//! Four further regression-failing scenarios cover the scale-out and
//! adaptive layers:
//!
//! * `--scenario warm-restart` — compiles a kernel set against a
//!   `--cache-dir`, restarts the daemon, and requires the *first*
//!   repeat-kernel request after the restart to be a disk-warm cache
//!   hit (no recompilation); reports restart-to-first-response time.
//! * `--scenario cluster` — drives skewed hot-key traffic at a 3-node
//!   consistent-hash ring and fails unless aggregate throughput beats
//!   the single-node baseline by ≥ 2.5× with bounded p99, and the
//!   reactor holds `--idle-conns` (default 5000) idle connections
//!   without spawning per-connection threads.
//! * `--scenario autotune` — a mixed trace over three kernel families
//!   with conflicting best specs (RTM-only, fault-tail, store-heavy)
//!   against every fixed `(spec, tile)` in a sweep grid and against an
//!   autotuned daemon; fails unless the autotuner beats *every* fixed
//!   configuration on aggregate req/s, and unless explicit `--spec` /
//!   `--engine` pins demonstrably bypass it.
//! * `--scenario replica-warmup` — warms a 3-node ring, joins a fourth
//!   node, and fails unless the joiner serves its owned working set
//!   with zero recompiles (snapshots arrive via anti-entropy sync and
//!   lazy peer pulls) and reaches steady-state p50 ≥ 3× faster than a
//!   cold join that compiles the same set on first touch.
//!
//! ```text
//! serve_load [--scenario warm-restart|cluster|autotune|replica-warmup]
//!            [--clients N] [--requests N] [--kernels K] [--workers N]
//!            [--idle-conns N] [--warmup N] [--json]
//! ```

use std::time::{Duration, Instant};

use flexvec_bench::flags::{json_f64, CommonFlags, ExtraFlag};
use flexvec_serve::{start, Client, Json, ServerConfig};

/// Minimum repeat/one-shot throughput ratio the run must demonstrate.
const MIN_SPEEDUP: f64 = 5.0;

/// Minimum native-over-bytecode throughput ratio the verified hot
/// kernel must demonstrate on hosts with the x86-64 back end. The
/// in-process bar (vm_throughput) is 1.5×; over the daemon we only
/// require a measurable margin, leaving headroom for scheduler noise.
const MIN_TIER_SPEEDUP: f64 = 1.05;

/// How many conditional-update patterns each generated kernel carries.
/// Sized so the analyze→vectorize→bytecode-compile pipeline (what the
/// cache amortizes) dominates one TCP round-trip, as it does for
/// production-sized kernels.
const PATTERNS: u64 = 12;

fn kernel_source(n: u64) -> String {
    kernel_source_shaped(n, PATTERNS, 64)
}

/// Distinct constants give distinct ASTs (and so distinct cache keys);
/// the shape is the paper's conditional-update minimum, repeated over
/// `patterns` independent arrays with an `iters`-iteration loop —
/// `patterns` scales the compile cost, `iters` the execution cost.
fn kernel_source_shaped(n: u64, patterns: u64, iters: u64) -> String {
    let mut src = format!("kernel k{n};\nvar i = 0;\n");
    for p in 0..patterns {
        src.push_str(&format!("var b{p} = 9223372036854775807;\n"));
    }
    for p in 0..patterns {
        src.push_str(&format!("array a{p}[{iters}] = seed {};\n", n + p + 1));
    }
    for p in 0..patterns {
        src.push_str(&format!("live_out b{p};\n"));
    }
    src.push_str(&format!("for (i = 0; i < {iters}; i++) {{\n"));
    for p in 0..patterns {
        src.push_str(&format!(
            "  if (a{p}[i] + {n} < b{p}) {{\n    b{p} = a{p}[i] + {n};\n  }}\n"
        ));
    }
    src.push_str("}\n");
    src
}

/// The hot kernel for the verify→native phase: a long unguarded
/// arithmetic chain, the shape the native tier compiles (almost)
/// entirely to inline machine code. Same family as the `straightline`
/// kernel in the `vm_throughput` bench, expressed in `.fv`.
const HOT_KERNEL: &str = "\
kernel hotline;
var i = 0;
var acc = 0;
var t = 0;
array data[512] = seed 7;
array out[512] = seed 1;
live_out acc;
for (i = 0; i < 2048; i++) {
  t = data[i & 511] * 3 + i - 7;
  t = (t + t * 5) & 65535;
  t = t + t * 2 - i;
  t = t & 65535;
  if (t > acc) {
    acc = t;
  }
  out[i & 511] = t;
}
";

/// What the verify→native phase observed.
struct TierReport {
    /// `(engine, verified)` of the auto requests, in order (expected
    /// `compiled` and verified first, then `native` on x86-64 hosts).
    walk: Vec<(String, bool)>,
    /// Daemon-measured chunks/s of the final (steady) auto request.
    hot_cps: f64,
    /// Daemon-measured chunks/s of the forced-bytecode baseline.
    bytecode_cps: f64,
    /// Whether the daemon's host has the native back end.
    native_supported: bool,
}

impl TierReport {
    fn ratio(&self) -> f64 {
        self.hot_cps / self.bytecode_cps.max(1e-9)
    }

    fn labels(&self) -> Vec<&str> {
        self.walk
            .iter()
            .map(|(engine, _)| engine.as_str())
            .collect()
    }

    /// Whether the walk followed the rule: verified on the bytecode
    /// first, then unverified runs on the steady executor.
    fn followed_the_rule(&self) -> bool {
        let steady = if self.native_supported {
            "native"
        } else {
            "compiled"
        };
        self.walk
            .first()
            .is_some_and(|(e, v)| e == "compiled" && *v)
            && self.walk[1..].iter().all(|(e, v)| e == steady && !*v)
    }
}

/// Walks one kernel through the verify→native rule and measures the
/// steady native run against a forced-bytecode baseline.
fn drive_tiers(addr: &str) -> TierReport {
    let mut client = Client::connect(addr).expect("connect tier client");
    let mut bench = |engine: Option<&str>, invocations: u64| -> Json {
        let mut fields = vec![
            ("op", Json::from("bench")),
            ("source", Json::from(HOT_KERNEL)),
            ("invocations", Json::from(invocations)),
        ];
        if let Some(engine) = engine {
            fields.push(("engine", Json::from(engine)));
        }
        let response = client
            .request(&Json::obj(fields))
            .expect("tier bench request");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "tier bench failed: {response}"
        );
        response
    };

    // The first auto request verifies the variant on the bytecode; the
    // two after it run native code (on hosts that have it).
    let step = |r: &Json| {
        (
            r.get("engine")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            r.get("verified").and_then(Json::as_bool).unwrap_or(false),
        )
    };
    let first = bench(None, 2);
    let second = bench(None, 14);
    let hot = bench(None, 48);
    let hot_cps = hot
        .get("chunks_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let walk = vec![step(&first), step(&second), step(&hot)];

    // Forced-bytecode baseline for the same kernel, same wire, same
    // daemon.
    let baseline = bench(Some("compiled"), 48);
    let bytecode_cps = baseline
        .get("chunks_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);

    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    TierReport {
        walk,
        hot_cps,
        bytecode_cps,
        native_supported: stats
            .get("native_supported")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    }
}

struct Phase {
    latencies: Vec<Duration>,
    wall: Duration,
    failures: u64,
}

impl Phase {
    fn req_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.latencies.len() as f64 / secs
        } else {
            0.0
        }
    }

    fn percentile(&self, p: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }
}

/// Fires `total` requests at the daemon from `clients` threads; the
/// request body for global index `i` comes from `make`.
fn drive(addr: &str, clients: usize, total: u64, make: impl Fn(u64) -> Json + Sync) -> Phase {
    drive_multi(std::slice::from_ref(&addr.to_owned()), clients, total, make)
}

/// [`drive`] against a set of daemons: client `c` connects to
/// `addrs[c % addrs.len()]`, so traffic spreads evenly over a cluster.
fn drive_multi(
    addrs: &[String],
    clients: usize,
    total: u64,
    make: impl Fn(u64) -> Json + Sync,
) -> Phase {
    let per_client = total.div_ceil(clients as u64);
    let started = Instant::now();
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let make = &make;
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let addr = &addrs[(c as usize) % addrs.len()];
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect load client");
                    let mut latencies = Vec::new();
                    let mut failures = 0u64;
                    let lo = c * per_client;
                    let hi = (lo + per_client).min(total);
                    for i in lo..hi {
                        let request = make(i);
                        let t0 = Instant::now();
                        let response = client.request(&request).expect("request");
                        latencies.push(t0.elapsed());
                        if response.get("ok").and_then(Json::as_bool) != Some(true) {
                            failures += 1;
                        }
                    }
                    (latencies, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies = Vec::new();
    let mut failures = 0;
    for (l, f) in results {
        latencies.extend(l);
        failures += f;
    }
    Phase {
        latencies,
        wall,
        failures,
    }
}

fn compile_request(source: String) -> Json {
    Json::obj([
        ("op", Json::from("compile")),
        ("source", Json::from(source)),
    ])
}

fn main() {
    let flags = CommonFlags::parse(
        "serve_load",
        "serve_load: drive a flexvec-serve daemon and measure latency/throughput",
        &[
            ExtraFlag {
                name: "clients",
                help: "concurrent client connections (default 4)",
            },
            ExtraFlag {
                name: "requests",
                help: "requests per measured phase (default 1000)",
            },
            ExtraFlag {
                name: "kernels",
                help: "distinct kernels in the repeat set (default 8)",
            },
            ExtraFlag {
                name: "workers",
                help: "daemon worker pool size (default 4)",
            },
            ExtraFlag {
                name: "run-requests",
                help: "execute requests for the run-latency phase (default 60)",
            },
            ExtraFlag {
                name: "scenario",
                help: "alternate scenario: warm-restart | cluster | autotune | \
                       replica-warmup (default: main load run)",
            },
            ExtraFlag {
                name: "idle-conns",
                help: "idle connections the cluster scenario parks on one node (default 5000)",
            },
            ExtraFlag {
                name: "warmup",
                help: "autotune scenario: warmup requests per kernel family (default 20)",
            },
        ],
    );
    match flags.str_flag("scenario", "").as_str() {
        "" => {}
        "warm-restart" => std::process::exit(scenario_warm_restart(&flags)),
        "cluster" => std::process::exit(scenario_cluster(&flags)),
        "autotune" => std::process::exit(scenario_autotune(&flags)),
        "replica-warmup" => std::process::exit(scenario_replica_warmup(&flags)),
        other => {
            eprintln!(
                "serve_load: unknown scenario `{other}` \
                 (expected warm-restart, cluster, autotune, or replica-warmup)"
            );
            std::process::exit(2);
        }
    }
    let clients = flags.u64_flag("clients", 4).max(1) as usize;
    let requests = flags.u64_flag("requests", 1000).max(1);
    let kernels = flags.u64_flag("kernels", 8).max(1);
    let workers = flags.u64_flag("workers", 4).max(1) as usize;
    let run_requests = flags.u64_flag("run-requests", 60).max(1);

    let config = ServerConfig {
        workers,
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..base_config()
    };
    let handle = start(config).expect("start daemon");
    let addr = handle.addr.to_string();

    // Warmup: register + compile the repeat set once, collecting the
    // content hashes the daemon assigns.
    let mut warm_client = Client::connect(&addr).expect("connect warmup client");
    let hashes: Vec<String> = (0..kernels)
        .map(|i| {
            let response = warm_client
                .request(&compile_request(kernel_source(i)))
                .expect("warmup request");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "warmup compile failed: {response}"
            );
            response
                .get("hash")
                .and_then(Json::as_str)
                .expect("warmup response carries hash")
                .to_owned()
        })
        .collect();
    drop(warm_client);

    // Repeat-kernel traffic: requests reference the registered hash —
    // no source on the wire, no parse, pure cache hits.
    let hashes_ref = &hashes;
    let repeat = drive(&addr, clients, requests, |i| {
        Json::obj([
            ("op", Json::from("compile")),
            (
                "hash",
                Json::from(hashes_ref[(i % kernels) as usize].as_str()),
            ),
        ])
    });

    // One-shot traffic: every request is a new kernel (ids offset past
    // the repeat set), so every request compiles.
    let oneshot = drive(&addr, clients, requests, |i| {
        compile_request(kernel_source(1_000_000 + i))
    });

    // Execute traffic, for end-to-end run latency percentiles.
    let run = drive(&addr, clients, run_requests, |i| {
        Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(i % kernels))),
        ])
    });

    // Width sweep: the same repeat-set run traffic at every supported
    // vector length, each request carrying an explicit `vl`. The
    // compile cache is width-independent, so every width after the
    // first rides the same cached plans; what changes is chunk count
    // per invocation (narrower vl → more chunks → more dispatch).
    let widths: Vec<(usize, Phase)> = flexvec_isa::SUPPORTED_VLENS
        .iter()
        .map(|&vl| {
            let phase = drive(&addr, clients, run_requests, |i| {
                Json::obj([
                    ("op", Json::from("run")),
                    ("source", Json::from(kernel_source(i % kernels))),
                    ("vl", Json::from(vl as u64)),
                ])
            });
            (vl, phase)
        })
        .collect();

    // Verify→native: one hot kernel verifies on the bytecode, then runs
    // native code, and races that against a forced-bytecode baseline.
    let tiers = drive_tiers(&addr);

    let metrics_text = handle
        .metrics_addr
        .map(|a| flexvec_serve::fetch_metrics(&a.to_string()).expect("scrape /metrics"));
    let stats = handle.engine().cache().stats();
    let speedup = repeat.req_per_sec() / oneshot.req_per_sec().max(1e-9);
    let width_failures: u64 = widths.iter().map(|(_, p)| p.failures).sum();
    let failures = repeat.failures + oneshot.failures + run.failures + width_failures;
    handle.shutdown();

    if flags.json {
        let width_rps = widths
            .iter()
            .map(|(vl, p)| format!("\"{vl}\": {}", json_f64(p.req_per_sec())))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\n  \"clients\": {clients},\n  \"requests\": {requests},\n  \"kernels\": {kernels},\n  \
             \"repeat_rps\": {},\n  \"oneshot_rps\": {},\n  \"speedup\": {},\n  \
             \"repeat_p50_us\": {},\n  \"repeat_p95_us\": {},\n  \"repeat_p99_us\": {},\n  \
             \"run_p50_us\": {},\n  \"run_p95_us\": {},\n  \"run_p99_us\": {},\n  \
             \"width_rps\": {{{width_rps}}},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"tier_walk\": [{}],\n  \"tier_bytecode_cps\": {},\n  \"tier_hot_cps\": {},\n  \
             \"tier_ratio\": {},\n  \
             \"native_supported\": {},\n  \"failures\": {failures}\n}}",
            json_f64(repeat.req_per_sec()),
            json_f64(oneshot.req_per_sec()),
            json_f64(speedup),
            repeat.percentile(0.50).as_micros(),
            repeat.percentile(0.95).as_micros(),
            repeat.percentile(0.99).as_micros(),
            run.percentile(0.50).as_micros(),
            run.percentile(0.95).as_micros(),
            run.percentile(0.99).as_micros(),
            stats.hits,
            stats.misses,
            tiers
                .labels()
                .iter()
                .map(|l| format!("\"{l}\""))
                .collect::<Vec<_>>()
                .join(", "),
            json_f64(tiers.bytecode_cps),
            json_f64(tiers.hot_cps),
            json_f64(tiers.ratio()),
            tiers.native_supported,
        );
    } else {
        println!(
            "serve_load: {clients} clients x {requests} requests, {kernels}-kernel repeat set, {workers} workers"
        );
        println!(
            "  repeat (cache-hit):  {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            repeat.req_per_sec(),
            repeat.percentile(0.50),
            repeat.percentile(0.95),
            repeat.percentile(0.99),
        );
        println!(
            "  one-shot (compile):  {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            oneshot.req_per_sec(),
            oneshot.percentile(0.50),
            oneshot.percentile(0.95),
            oneshot.percentile(0.99),
        );
        println!(
            "  run (exec+verify):   {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            run.req_per_sec(),
            run.percentile(0.50),
            run.percentile(0.95),
            run.percentile(0.99),
        );
        for (vl, phase) in &widths {
            println!(
                "  run at vl {vl:>2}:        {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
                phase.req_per_sec(),
                phase.percentile(0.50),
                phase.percentile(0.95),
                phase.percentile(0.99),
            );
        }
        println!(
            "  cache: {} hits / {} misses; repeat-vs-one-shot speedup: {speedup:.1}x",
            stats.hits, stats.misses
        );
        println!(
            "  tiers (hot kernel):  {}   bytecode {:.3e} -> hot {:.3e} chunks/s ({:.2}x)",
            tiers.labels().join(" -> "),
            tiers.bytecode_cps,
            tiers.hot_cps,
            tiers.ratio(),
        );
        if let Some(text) = &metrics_text {
            let hits = text
                .lines()
                .find(|l| l.starts_with("flexvec_cache_hits_total"))
                .unwrap_or("flexvec_cache_hits_total <missing>");
            let native = text
                .lines()
                .find(|l| l.starts_with("flexvec_tier_native_total"))
                .unwrap_or("flexvec_tier_native_total <missing>");
            println!("  /metrics scrape ok ({hits}; {native})");
        }
    }

    if failures > 0 {
        eprintln!("serve_load: {failures} request(s) failed");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "serve_load: repeat-kernel speedup {speedup:.1}x is below the required {MIN_SPEEDUP:.0}x"
        );
        std::process::exit(1);
    }
    if !tiers.followed_the_rule() {
        eprintln!(
            "serve_load: hot kernel did not verify on the bytecode and then run \
             its steady executor (walk: {:?})",
            tiers.walk
        );
        std::process::exit(1);
    }
    if tiers.native_supported && tiers.ratio() < MIN_TIER_SPEEDUP {
        eprintln!(
            "serve_load: native tier {:.2}x over bytecode is below the required \
             {MIN_TIER_SPEEDUP:.2}x",
            tiers.ratio()
        );
        std::process::exit(1);
    }
}

/// The shared single-node daemon shape: ephemeral port, no metrics
/// listener, unbounded in-memory cache, standalone.
fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        metrics_addr: None,
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 0,
        default_deadline_ms: None,
        cache_dir: None,
        cache_dir_max_bytes: None,
        cluster: Vec::new(),
        advertise: None,
        gossip_interval_ms: 1000,
        gossip_gc_rounds: 10,
        accept_mode: flexvec_serve::AcceptMode::Auto,
    }
}

/// A scratch directory under the system temp dir, unique per process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-load-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Minimum cluster-over-single-node aggregate throughput the skewed
/// hot-key scenario must demonstrate.
const MIN_CLUSTER_SPEEDUP: f64 = 2.5;

/// `--scenario warm-restart`: the first repeat-kernel request after a
/// restart with `--cache-dir` must be a disk-warm cache hit, with no
/// recompilation. Reports restart-to-first-response time. Exit 1 on
/// regression.
fn scenario_warm_restart(flags: &CommonFlags) -> i32 {
    let kernels = flags.u64_flag("kernels", 8).max(1);
    let dir = scratch_dir("warm");
    let cache_dir = Some(dir.to_string_lossy().into_owned());

    // First lifetime: compile the kernel set, snapshotting each.
    let handle = start(ServerConfig {
        cache_dir: cache_dir.clone(),
        ..base_config()
    })
    .expect("start daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect");
    let hashes: Vec<String> = (0..kernels)
        .map(|n| {
            let response = client
                .request(&compile_request(kernel_source(n)))
                .expect("seed compile");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "seed compile failed: {response}"
            );
            response
                .get("hash")
                .and_then(Json::as_str)
                .expect("hash")
                .to_owned()
        })
        .collect();
    drop(client);
    handle.shutdown();

    // Restart against the same cache dir and time the path from
    // "process decides to start" to "first repeat request answered".
    let t0 = Instant::now();
    let handle = start(ServerConfig {
        cache_dir,
        ..base_config()
    })
    .expect("restart daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("reconnect");
    let first = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("hash", Json::from(hashes[0].as_str())),
        ]))
        .expect("first request after restart");
    let restart_to_first = t0.elapsed();

    let mut failed = false;
    if first.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("serve_load warm-restart: first request failed: {first}");
        failed = true;
    }
    if first.get("cache_hit").and_then(Json::as_bool) != Some(true) {
        eprintln!(
            "serve_load warm-restart: REGRESSION — first repeat-kernel request \
             after restart was not a cache hit: {first}"
        );
        failed = true;
    }
    // The rest of the set must also come back disk-warm.
    for hash in &hashes[1..] {
        let response = client
            .request(&Json::obj([
                ("op", Json::from("run")),
                ("hash", Json::from(hash.as_str())),
            ]))
            .expect("repeat request");
        if response.get("cache_hit").and_then(Json::as_bool) != Some(true) {
            eprintln!("serve_load warm-restart: kernel {hash} missed after restart: {response}");
            failed = true;
        }
    }
    let compiles = handle.engine().cache().compiles();
    if compiles != 0 {
        eprintln!(
            "serve_load warm-restart: REGRESSION — {compiles} recompilation(s) \
             for kernels that have valid snapshots"
        );
        failed = true;
    }

    if flags.json {
        println!(
            "{{\"scenario\": \"warm-restart\", \"kernels\": {kernels}, \
             \"restart_to_first_response_us\": {}, \"recompiles\": {compiles}, \
             \"ok\": {}}}",
            restart_to_first.as_micros(),
            !failed
        );
    } else {
        println!(
            "serve_load warm-restart: {kernels} kernels disk-warm after restart; \
             restart-to-first-response {restart_to_first:.2?}, {compiles} recompiles"
        );
    }
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    i32::from(failed)
}

/// The skewed request mix for the cluster scenario: 80% of requests
/// hit one hot kernel, the rest spread over a small cold set — the
/// worst case for naive ownership routing, where every non-owner
/// would bottleneck on the hot key's one owner.
fn skewed_request(i: u64) -> Json {
    let n = if i % 10 < 8 { 0 } else { 1 + (i % 8) };
    Json::obj([
        ("op", Json::from("run")),
        ("source", Json::from(kernel_source(n))),
        ("invocations", Json::from(60u64)),
    ])
}

/// Threads currently in this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// `--scenario cluster`: 3-node ring vs single node under skewed
/// hot-key traffic, plus the idle-connection capacity check. Exit 1 on
/// regression.
fn scenario_cluster(flags: &CommonFlags) -> i32 {
    let clients = flags.u64_flag("clients", 12).max(3) as usize;
    let requests = flags.u64_flag("requests", 1500).max(clients as u64);
    let workers = flags.u64_flag("workers", 2).max(1) as usize;
    let idle_conns = flags.u64_flag("idle-conns", 5000);

    // Single-node baseline: same traffic, same total client count.
    let single = start(ServerConfig {
        workers,
        ..base_config()
    })
    .expect("start single node");
    let baseline = drive(&single.addr.to_string(), clients, requests, skewed_request);
    single.shutdown();

    // Three-node ring. Ports are reserved then released for the
    // daemons to rebind (tiny reuse race — acceptable here).
    let reserved: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    let members: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    drop(reserved);
    let handles: Vec<_> = members
        .iter()
        .map(|addr| {
            start(ServerConfig {
                addr: addr.clone(),
                workers,
                cluster: members.clone(),
                advertise: Some(addr.clone()),
                ..base_config()
            })
            .expect("start cluster node")
        })
        .collect();

    let cluster = drive_multi(&members, clients, requests, skewed_request);

    // Park idle connections on node 0: the reactor must hold them all
    // without growing the process thread count. Only meaningful where
    // the reactor exists; other hosts run thread-per-connection.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    let (idle_held, idle_ok) = {
        let mut idle_ok = true;
        let threads_before = process_threads();
        let idle: Vec<std::net::TcpStream> = (0..idle_conns)
            .filter_map(|_| std::net::TcpStream::connect(&members[0]).ok())
            .collect();
        let idle_held = idle.len() as u64;
        if idle_held < idle_conns {
            eprintln!(
                "serve_load cluster: REGRESSION — only {idle_held}/{idle_conns} \
                 idle connections accepted"
            );
            idle_ok = false;
        }
        // The reactor accepts asynchronously; give it a moment, then
        // prove a live request still flows past the parked herd.
        let mut probe = Client::connect(&members[0]).expect("probe connect");
        let response = probe
            .request(&Json::obj([("op", Json::from("stats"))]))
            .expect("stats with idle herd");
        let open = response
            .get("open_connections")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if open < idle_held {
            eprintln!(
                "serve_load cluster: node 0 reports {open} open connections, \
                 expected at least the {idle_held} parked ones"
            );
            idle_ok = false;
        }
        if let (Some(before), Some(after)) = (threads_before, process_threads()) {
            // Thread-per-connection would add ~one thread per parked
            // socket; the reactor must add none.
            if after > before + 8 {
                eprintln!(
                    "serve_load cluster: REGRESSION — thread count grew {before} -> {after} \
                     while parking {idle_held} idle connections"
                );
                idle_ok = false;
            }
        }
        drop(idle);
        (idle_held, idle_ok)
    };
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    let (idle_held, idle_ok) = {
        let _ = idle_conns;
        eprintln!("serve_load cluster: no reactor on this target; idle-connection check skipped");
        (0u64, true)
    };

    let forwards: u64 = handles
        .iter()
        .filter_map(|h| h.cluster())
        .map(|c| c.counters.forwards.get())
        .sum();
    let adoptions: u64 = handles
        .iter()
        .filter_map(|h| h.cluster())
        .map(|c| c.counters.adoptions.get())
        .sum();
    for handle in handles {
        handle.shutdown();
    }

    let speedup = cluster.req_per_sec() / baseline.req_per_sec().max(1e-9);
    let p99_bound = (baseline.percentile(0.99) * 10).max(Duration::from_millis(250));
    let p99 = cluster.percentile(0.99);
    let mut failed = !idle_ok;
    if cluster.failures + baseline.failures > 0 {
        eprintln!(
            "serve_load cluster: {} request(s) failed",
            cluster.failures + baseline.failures
        );
        failed = true;
    }
    // Aggregate scaling needs actual parallel hardware: three nodes on
    // a starved container share one core and cannot beat one node.
    // The assertion stays regression-failing wherever the cluster's
    // worker pools can genuinely run side by side.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= workers * 3 {
        if speedup < MIN_CLUSTER_SPEEDUP {
            eprintln!(
                "serve_load cluster: REGRESSION — 3-node aggregate is only {speedup:.2}x \
                 the single node (required {MIN_CLUSTER_SPEEDUP:.1}x)"
            );
            failed = true;
        }
        if p99 > p99_bound {
            eprintln!(
                "serve_load cluster: REGRESSION — p99 {p99:.2?} exceeds the bound {p99_bound:.2?}"
            );
            failed = true;
        }
    } else {
        eprintln!(
            "serve_load cluster: {cores} core(s) cannot host 3x{workers} workers; \
             measured {speedup:.2}x / p99 {p99:.2?} are informational, scaling not asserted"
        );
    }

    if flags.json {
        println!(
            "{{\"scenario\": \"cluster\", \"clients\": {clients}, \"requests\": {requests}, \
             \"single_rps\": {}, \"cluster_rps\": {}, \"speedup\": {}, \
             \"cluster_p99_us\": {}, \"forwards\": {forwards}, \"adoptions\": {adoptions}, \
             \"idle_conns_held\": {idle_held}, \"ok\": {}}}",
            json_f64(baseline.req_per_sec()),
            json_f64(cluster.req_per_sec()),
            json_f64(speedup),
            p99.as_micros(),
            !failed
        );
    } else {
        println!(
            "serve_load cluster: single {:.0} req/s -> 3-node {:.0} req/s ({speedup:.2}x); \
             p99 {p99:.2?} (bound {p99_bound:.2?})",
            baseline.req_per_sec(),
            cluster.req_per_sec(),
        );
        println!(
            "  ring: {forwards} forward(s), {adoptions} hot-key adoption(s); \
             {idle_held} idle connection(s) parked on node 0"
        );
    }
    i32::from(failed)
}

/// Minimum cold-join-over-warm-join time-to-steady-state ratio the
/// replica-warmup scenario must demonstrate: a node joining a warmed
/// ring (owned slice pre-pulled by anti-entropy sync) must reach
/// steady-state p50 at least this much faster than a cold node that
/// compiles the same working set on first touch.
const MIN_WARMUP_SPEEDUP: f64 = 3.0;

/// Serves `sources` round-robin at `addr` until one full sweep comes
/// back entirely warm (every response a cache hit — memory, disk
/// restore, or peer pull), then runs one more sweep for the
/// steady-state p50. Returns `(time from first request to the end of
/// the first all-warm sweep, steady-state p50, sweeps to steady)`.
/// The engine is pinned to `compiled` so a one-off JIT build on a
/// kernel's second run doesn't mask the compile-vs-pull difference the
/// scenario exists to measure.
fn time_to_steady(addr: &str, sources: &[String]) -> (Duration, Duration, u64) {
    let mut client = Client::connect(addr).expect("connect joiner");
    let t0 = Instant::now();
    let mut sweeps = 0u64;
    loop {
        sweeps += 1;
        assert!(sweeps <= 16, "node never reached a fully-warm sweep");
        let mut all_warm = true;
        for source in sources {
            let response = client
                .request(&Json::obj([
                    ("op", Json::from("run")),
                    ("source", Json::from(source.as_str())),
                    ("engine", Json::from("compiled")),
                ]))
                .expect("sweep request");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "sweep request failed: {response}"
            );
            all_warm &= response.get("cache_hit").and_then(Json::as_bool) == Some(true);
        }
        if all_warm {
            break;
        }
    }
    let steady = t0.elapsed();
    let mut latencies: Vec<Duration> = sources
        .iter()
        .map(|source| {
            let t = Instant::now();
            client
                .request(&Json::obj([
                    ("op", Json::from("run")),
                    ("source", Json::from(source.as_str())),
                    ("engine", Json::from("compiled")),
                ]))
                .expect("steady sweep");
            t.elapsed()
        })
        .collect();
    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    (steady, p50, sweeps)
}

/// `--scenario replica-warmup`: a node joining a warmed 3-node ring
/// must serve its owned working set with zero recompiles (anti-entropy
/// sync plus lazy pulls) and reach steady-state p50 at least
/// [`MIN_WARMUP_SPEEDUP`]× faster than the cold baseline — the same
/// daemon shape with no ring and no snapshots to pull, i.e. exactly
/// what a joining replica was before replication: every owned kernel
/// compiles on first touch. Both joins are timed from serving start
/// (a replica is not in the rotation until it reports ready; the warm
/// node's anti-entropy sync runs before that and is reported
/// separately). Exit 1 on regression.
fn scenario_replica_warmup(flags: &CommonFlags) -> i32 {
    let kernels = flags.u64_flag("kernels", 32).max(8);
    let workers = flags.u64_flag("workers", 2).max(1) as usize;

    // Reserve the full 4-member ring up front: three warm nodes plus
    // the joiner, which stays down while the ring warms (forwards to
    // it degrade to local compilation via the circuit breaker, so
    // every kernel lands compiled and snapshotted on a live node).
    let reserved: Vec<std::net::TcpListener> = (0..4)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    let members: Vec<String> = reserved
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    drop(reserved);
    let joiner = members[3].clone();
    let dirs: Vec<std::path::PathBuf> = (0..4)
        .map(|i| scratch_dir(&format!("replica-{i}")))
        .collect();
    let node_config = |i: usize| ServerConfig {
        addr: members[i].clone(),
        workers,
        cache_dir: Some(dirs[i].to_string_lossy().into_owned()),
        cluster: members.clone(),
        advertise: Some(members[i].clone()),
        gossip_interval_ms: 50,
        ..base_config()
    };

    // Cold baseline first (fully independent: standalone, no cache).
    // Pick the joiner's owned slice off the ring the servers will
    // build; generate extra kernels if the hash slice came up short.
    let ring = flexvec_serve::Cluster::new(members.clone(), joiner.clone()).expect("build ring");
    let mut owned_sources = Vec::new();
    let mut warm_set = Vec::new();
    let mut n = 0;
    while n < kernels || owned_sources.len() < 8 {
        assert!(n < kernels + 512, "ring never granted the joiner 8 keys");
        // Compile-heavy, execution-light kernels (big AST, 8-iteration
        // loops): the join cost is dominated by what replication
        // actually removes — compilation — not by running the kernels.
        let source = kernel_source_shaped(n, 48, 8);
        let parsed = flexvec_front::parse_str("<warmup>", &source).expect("kernel parses");
        if ring.owner_of(flexvec::program_hash(&parsed.program)) == joiner {
            owned_sources.push(source.clone());
        }
        warm_set.push(source);
        n += 1;
    }
    // Two independent cold trials, best taken: the numbers feed a
    // ratio gate, and a single scheduler stall during one short sweep
    // must not decide it. The same damping is applied to the warm
    // side below.
    let mut cold_steady = Duration::MAX;
    let mut cold_p50 = Duration::MAX;
    let mut cold_sweeps = 0;
    let mut cold_compiles = 0;
    for _ in 0..2 {
        let cold = start(ServerConfig {
            cache_dir: None,
            ..base_config()
        })
        .expect("start cold baseline");
        let (steady, p50, sweeps) = time_to_steady(&cold.addr.to_string(), &owned_sources);
        if steady < cold_steady {
            (cold_steady, cold_p50, cold_sweeps) = (steady, p50, sweeps);
        }
        cold_compiles = cold.engine().cache().compiles();
        cold.shutdown();
    }

    // Warm the 3-node ring with the whole working set.
    let warm_nodes: Vec<_> = (0..3)
        .map(|i| start(node_config(i)).expect("start warm node"))
        .collect();
    let mut clients: Vec<Client> = members[..3]
        .iter()
        .map(|addr| Client::connect(addr).expect("connect warm node"))
        .collect();
    for (i, source) in warm_set.iter().enumerate() {
        let response = clients[i % 3]
            .request(&compile_request(source.clone()))
            .expect("warm ring");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "warming the ring failed: {response}"
        );
    }
    let warm_node_compiles_before: u64 = warm_nodes
        .iter()
        .map(|h| h.engine().cache().compiles())
        .sum();

    // Join the fourth node and wait for anti-entropy sync: the node is
    // not "in the rotation" until its owned slice is disk-and-memory
    // warm, which is the protocol's whole point.
    let join_started = Instant::now();
    let warm = start(node_config(3)).expect("start joiner");
    let repl = warm.replication().expect("replication on the joiner");
    let sync_deadline = Instant::now() + Duration::from_secs(30);
    while !repl.synced() {
        assert!(
            Instant::now() < sync_deadline,
            "anti-entropy sync never finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let sync_time = join_started.elapsed();
    // First measurement carries the semantic check (one sweep to
    // steady); for a synced node every sweep is an all-hit sweep, so
    // two re-measurements damp scheduler stalls the same way the cold
    // trials do.
    let (mut warm_steady, mut warm_p50, warm_sweeps) = time_to_steady(&joiner, &owned_sources);
    for _ in 0..2 {
        let (steady, p50, _) = time_to_steady(&joiner, &owned_sources);
        if steady < warm_steady {
            (warm_steady, warm_p50) = (steady, p50);
        }
    }

    let warm_compiles = warm.engine().cache().compiles();
    let store = warm.engine().snapshots().expect("joiner store");
    let pulled = store
        .counters
        .pulled
        .load(std::sync::atomic::Ordering::Relaxed);
    let warm_node_compiles_after: u64 = warm_nodes
        .iter()
        .map(|h| h.engine().cache().compiles())
        .sum();

    let ratio = cold_steady.as_secs_f64() / warm_steady.as_secs_f64().max(1e-9);
    let mut failed = false;
    if warm_compiles != 0 {
        eprintln!(
            "serve_load replica-warmup: REGRESSION — the joining node compiled \
             {warm_compiles} kernel(s) that warm peers hold snapshots for"
        );
        failed = true;
    }
    if pulled < owned_sources.len() as u64 {
        eprintln!(
            "serve_load replica-warmup: REGRESSION — only {pulled} snapshot pull(s) \
             for {} owned kernels",
            owned_sources.len()
        );
        failed = true;
    }
    if warm_node_compiles_after != warm_node_compiles_before {
        eprintln!(
            "serve_load replica-warmup: REGRESSION — warm nodes recompiled during the \
             join ({warm_node_compiles_before} -> {warm_node_compiles_after}); \
             pulls must be served from their snapshot stores"
        );
        failed = true;
    }
    if ratio < MIN_WARMUP_SPEEDUP {
        eprintln!(
            "serve_load replica-warmup: REGRESSION — warm join reached steady state only \
             {ratio:.2}x faster than cold ({warm_steady:.2?} vs {cold_steady:.2?}, \
             required {MIN_WARMUP_SPEEDUP:.1}x)"
        );
        failed = true;
    }

    if flags.json {
        println!(
            "{{\"scenario\": \"replica-warmup\", \"kernels\": {}, \"owned\": {}, \
             \"cold_steady_us\": {}, \"warm_steady_us\": {}, \"warmup_speedup\": {}, \
             \"sync_us\": {}, \"cold_p50_us\": {}, \"warm_p50_us\": {}, \
             \"cold_sweeps\": {cold_sweeps}, \"warm_sweeps\": {warm_sweeps}, \
             \"cold_compiles\": {cold_compiles}, \"joiner_compiles\": {warm_compiles}, \
             \"snapshot_pulls\": {pulled}, \"ok\": {}}}",
            warm_set.len(),
            owned_sources.len(),
            cold_steady.as_micros(),
            warm_steady.as_micros(),
            json_f64(ratio),
            sync_time.as_micros(),
            cold_p50.as_micros(),
            warm_p50.as_micros(),
            !failed
        );
    } else {
        println!(
            "serve_load replica-warmup: cold join steady in {cold_steady:.2?} \
             ({cold_compiles} compiles), warm join steady in {warm_steady:.2?} \
             ({ratio:.2}x faster; sync {sync_time:.2?}, {pulled} pulls, \
             {warm_compiles} compiles) over {} owned kernels",
            owned_sources.len()
        );
        println!(
            "  steady p50: cold {cold_p50:.2?}, warm {warm_p50:.2?}; \
             warm-node compiles unchanged: {}",
            warm_node_compiles_after == warm_node_compiles_before
        );
    }

    drop(clients);
    warm.shutdown();
    for handle in warm_nodes {
        handle.shutdown();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
    i32::from(failed)
}

/// Minimum autotuned-over-best-fixed aggregate throughput ratio the
/// autotune scenario must demonstrate against *every* fixed
/// `(spec, tile)` configuration in [`AUTOTUNE_GRID`].
const MIN_AUTOTUNE_SPEEDUP: f64 = 1.1;

/// The fixed configurations the autotuned daemon has to beat. `"ff"`
/// pins first-faulting (the compiler's `Auto`); the rest pin RTM at a
/// fixed tile. No single entry is best for all three kernel families
/// below, which is the point: a per-kernel adaptive choice wins where
/// any uniform static choice loses somewhere.
const AUTOTUNE_GRID: [&str; 5] = ["ff", "rtm:16", "rtm:64", "rtm:256", "rtm:1024"];

/// Family A — RTM-only: a store between a speculative load and its
/// conditional update sits inside the VPL, so FF cannot vectorize this
/// shape (fallback would replay committed stores) and a pinned `ff`
/// daemon runs it scalar forever. RTM buffers the stores
/// transactionally and commits clean at any tile.
const FAMILY_RTM_WIN: &str = "\
// Conditional-update scan with a store inside the speculative region.
kernel rtm_win;

var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[4096] = seed 7;
array aux[4096] = seed 9;
array out[4096];
live_out best;

for (i = 0; i < 4096; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 4095];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";

/// Family B — fault tail: an early-exit scan whose exit chunk also
/// runs past the array, so the speculative tail load faults on every
/// invocation. FF masks the fault and falls back for one chunk; a
/// fixed RTM tile aborts the whole enclosing transaction and reruns it
/// scalar — the larger the tile, the larger the rerun.
const FAMILY_FAULT_TAIL: &str = "\
// Early-exit scan with a faulting speculative tail.
kernel fault_tail;

var i = 0;
var t = 0;
var s = 0;
var found = -1;
array a[2030] = seed 11;
live_out s;

for (i = 0; i < 2100; i++) {
  t = a[i];
  s = s + t;
  if (i > 2020) {
    found = i;
    break;
  }
}
";

/// Family C — store-heavy: a non-speculative scatter over a bin range
/// wide enough that intra-chunk conflicts are rare. `Auto` needs no
/// speculation at all and vectorizes clean; a pinned RTM daemon routes
/// every scatter through the transaction write-set journal (and every
/// gather through its read hook) and pays for it on each element.
const FAMILY_STORE_HEAVY: &str = "\
// Low-conflict histogram: every iteration scatters into a wide bin range.
kernel store_heavy;

var i = 0;
array idx[4096] = seed 7;
array bins[1024];

for (i = 0; i < 4096; i++) {
  bins[idx[i] % 1024] = bins[idx[i] % 1024] + 1;
}
";

/// The interleaving of the mixed trace, as indices into the family
/// set `[rtm_win, fault_tail, store_heavy]`.
const AUTOTUNE_TRACE: [usize; 4] = [0, 1, 2, 2];

/// One measured pass of the mixed-family trace against a fresh daemon.
struct AutotuneRun {
    rps: f64,
    failures: u64,
    /// `stats` response after the measured phase.
    stats: Json,
    /// `spec` field echoed on the last warmup response per family.
    specs: Vec<String>,
}

/// Starts a fresh daemon, registers the three families, warms each one
/// round-robin from a single connection (so per-kernel run counts — and
/// with them autotune decision points — advance deterministically),
/// then measures the interleaved trace. `spec` pins every request to a
/// fixed configuration; `None` leaves the daemon free to autotune.
fn autotune_pass(spec: Option<&str>, requests: u64, warmup: u64, invocations: u64) -> AutotuneRun {
    let families = [FAMILY_RTM_WIN, FAMILY_FAULT_TAIL, FAMILY_STORE_HEAVY];
    let handle = start(base_config()).expect("start autotune daemon");
    let addr = handle.addr.to_string();

    let mut client = Client::connect(&addr).expect("connect autotune client");
    let hashes: Vec<String> = families
        .iter()
        .map(|src| {
            let response = client
                .request(&compile_request((*src).to_owned()))
                .expect("register family");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "family registration failed: {response}"
            );
            response
                .get("hash")
                .and_then(Json::as_str)
                .expect("hash in compile response")
                .to_owned()
        })
        .collect();

    // Store-heavy traffic is weighted double: scatter-into-bins is the
    // common shape in real mixes, and it is exactly where a uniform RTM
    // pin bleeds per-element write-set overhead on every request.
    let family_at = |i: u64| AUTOTUNE_TRACE[(i % AUTOTUNE_TRACE.len() as u64) as usize];
    let trace = |i: u64| {
        let mut fields = vec![
            ("op", Json::from("run")),
            ("hash", Json::from(hashes[family_at(i)].as_str())),
            ("invocations", Json::from(invocations)),
        ];
        if let Some(spec) = spec {
            fields.push(("spec", Json::from(spec)));
        }
        Json::obj(fields)
    };

    let mut specs = vec![String::new(); families.len()];
    for i in 0..warmup * AUTOTUNE_TRACE.len() as u64 {
        let response = client.request(&trace(i)).expect("warmup run");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "warmup run failed: {response}"
        );
        if let Some(s) = response.get("spec").and_then(Json::as_str) {
            specs[family_at(i)] = s.to_owned();
        }
    }

    // Measured phase: three single-connection passes over the
    // interleaved trace, reduced to per-family median latencies and
    // the best median across passes. On a shared (often single-core)
    // host the noise is one-sided — a request can only be slowed down
    // by unrelated load, never sped up — so min-of-medians is the
    // faithful estimate of each daemon's sustained service time, and
    // a single connection keeps request index `j` = trace slot `j`.
    let mut best = [f64::INFINITY; 3];
    let mut failures = 0;
    for _ in 0..3 {
        let phase = drive(&addr, 1, requests, trace);
        failures += phase.failures;
        let mut by_family: [Vec<Duration>; 3] = Default::default();
        for (j, lat) in phase.latencies.iter().enumerate() {
            by_family[family_at(j as u64)].push(*lat);
        }
        for (f, lats) in by_family.iter_mut().enumerate() {
            if !lats.is_empty() {
                lats.sort();
                best[f] = best[f].min(lats[lats.len() / 2].as_secs_f64());
            }
        }
    }
    // Aggregate req/s over one weighted trace cycle.
    let cycle: f64 = AUTOTUNE_TRACE.iter().map(|&f| best[f]).sum();
    let rps = AUTOTUNE_TRACE.len() as f64 / cycle.max(1e-9);
    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    drop(client);
    handle.shutdown();
    AutotuneRun {
        rps,
        failures,
        stats,
        specs,
    }
}

/// `--scenario autotune`: the sweep grid of fixed `(spec, tile)`
/// daemons vs one autotuned daemon on the same mixed trace. Exit 1
/// unless the autotuner beats every fixed configuration by
/// [`MIN_AUTOTUNE_SPEEDUP`] and explicit `--spec`/`--engine` pins
/// demonstrably bypass it.
fn scenario_autotune(flags: &CommonFlags) -> i32 {
    let requests = flags.u64_flag("requests", 240).max(30);
    let warmup = flags.u64_flag("warmup", 20).max(10);
    let invocations = 3;
    let mut failed = false;

    // The sweep: one fresh daemon per fixed configuration, every
    // request pinned. A pinned daemon must never respecialize — that
    // is the `--spec` bypass contract, asserted here on live traffic.
    let mut fixed: Vec<(&str, AutotuneRun)> = Vec::new();
    for config in AUTOTUNE_GRID {
        let run = autotune_pass(Some(config), requests, warmup, invocations);
        let respec = run
            .stats
            .get("autotune_respecialize_total")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        if respec != 0 {
            eprintln!(
                "serve_load autotune: REGRESSION — pinned `{config}` daemon \
                 respecialized {respec} kernel(s); explicit --spec must bypass the autotuner"
            );
            failed = true;
        }
        let want = if config == "ff" { "auto" } else { config };
        for (family, got) in run.specs.iter().enumerate() {
            if got != want {
                eprintln!(
                    "serve_load autotune: REGRESSION — pinned `{config}` daemon answered \
                     family {family} with spec `{got}` (expected `{want}`)"
                );
                failed = true;
            }
        }
        if run.failures > 0 {
            eprintln!(
                "serve_load autotune: {} request(s) failed under pinned `{config}`",
                run.failures
            );
            failed = true;
        }
        fixed.push((config, run));
    }

    // The autotuned daemon: same trace, no spec on the wire. The
    // warmup must carry every family past the tuner's decision points.
    let tuned = autotune_pass(None, requests, warmup, invocations);
    if tuned.failures > 0 {
        eprintln!(
            "serve_load autotune: {} request(s) failed on the autotuned daemon",
            tuned.failures
        );
        failed = true;
    }
    let respec = tuned
        .stats
        .get("autotune_respecialize_total")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if respec == 0 {
        eprintln!(
            "serve_load autotune: REGRESSION — the autotuned daemon never respecialized \
             (expected at least the RTM unlock for the rtm_win family)"
        );
        failed = true;
    }
    if !tuned.specs[0].starts_with("rtm") {
        eprintln!(
            "serve_load autotune: REGRESSION — rtm_win family still served as \
             `{}` after {warmup} warmup runs (expected an rtm:TILE variant)",
            tuned.specs[0]
        );
        failed = true;
    }

    // Ratios against every fixed configuration.
    let mut min_ratio = f64::INFINITY;
    for (config, run) in &fixed {
        let ratio = tuned.rps / run.rps.max(1e-9);
        min_ratio = min_ratio.min(ratio);
        let verdict = if ratio >= MIN_AUTOTUNE_SPEEDUP {
            "ok"
        } else {
            failed = true;
            "REGRESSION"
        };
        println!(
            "serve_load autotune: fixed {config:<8} {:>7.1} req/s -> autotuned {:>7.1} req/s \
             ({ratio:.2}x, {verdict})",
            run.rps, tuned.rps
        );
    }
    if min_ratio < MIN_AUTOTUNE_SPEEDUP {
        eprintln!(
            "serve_load autotune: REGRESSION — worst ratio {min_ratio:.2}x is below the \
             required {MIN_AUTOTUNE_SPEEDUP:.2}x over every fixed configuration"
        );
    }

    // `--engine` bypass: once this kernel has verified, the daemon runs
    // it on native code; an explicit `compiled` pin must still run the
    // bytecode.
    let handle = start(base_config()).expect("start engine-pin daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect engine pin");
    let mut run = |engine: Option<&str>| {
        let mut fields = vec![
            ("op", Json::from("run")),
            ("source", Json::from(FAMILY_STORE_HEAVY)),
        ];
        if let Some(engine) = engine {
            fields.push(("engine", Json::from(engine)));
        }
        let response = client
            .request(&Json::obj(fields))
            .expect("engine-pinned run");
        response
            .get("engine")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned()
    };
    run(None);
    let engine = run(Some("compiled"));
    if engine != "compiled" {
        eprintln!(
            "serve_load autotune: REGRESSION — explicit engine pin answered `{engine}` \
             (expected `compiled`)"
        );
        failed = true;
    }
    drop(client);
    handle.shutdown();

    if flags.json {
        let mut grid = String::new();
        for (config, run) in &fixed {
            if !grid.is_empty() {
                grid.push_str(", ");
            }
            grid.push_str(&format!("\"{config}\": {}", json_f64(run.rps)));
        }
        println!(
            "{{\"scenario\": \"autotune\", \"requests\": {requests}, \
             \"warmup\": {warmup}, \"fixed_rps\": {{{grid}}}, \"autotuned_rps\": {}, \
             \"min_ratio\": {}, \"respecializations\": {respec}, \"ok\": {}}}",
            json_f64(tuned.rps),
            json_f64(min_ratio),
            !failed
        );
    } else {
        println!(
            "serve_load autotune: {respec} respecialization(s); worst margin {min_ratio:.2}x \
             over the {} fixed config(s)",
            fixed.len()
        );
    }
    i32::from(failed)
}
