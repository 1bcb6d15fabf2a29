//! The traced run's per-layer replay.
//!
//! The same generated inputs the timed phase sent are replayed through
//! each layer's public functions, one span around each call:
//!
//! | span | call |
//! |---|---|
//! | `front.parse` | `flexvec_front::parse_str` |
//! | `serve.decode` / `serve.encode` | `Request::parse` / reply `Json::to_string` |
//! | `core.analyze` / `core.vectorize` | `flexvec::analyze` / `flexvec::vectorize_with` |
//! | `vm.bytecode` / `vm.jit` | `CompiledVProg::compile` / `enable_native` |
//! | `vm.scalar` | `run_scalar` into a `CountingSink` |
//! | `vm.vector.{tree,bytecode,native}` | the vector runners into a `CountingSink` |
//! | `sim.ooo` | a recorded `VecSink` trace fed to `OooSim` |
//! | `serve.handle` | `ServeEngine::handle` on an in-process engine |
//!
//! Spans are kept in memory and written out when the run ends. Spans
//! inside the program are a separate change; these sit at the layer
//! boundaries the program already exposes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use flexvec::{analyze, vectorize_with, SpecRequest, VectorizedKind};
use flexvec_front::parse_str;
use flexvec_ir::Program;
use flexvec_mem::{AddressSpace, PageCacheStats};
use flexvec_serve::{ok_response, Request, ServeEngine};
use flexvec_sim::OooSim;
use flexvec_vm::{
    run_scalar, run_vector_precompiled_with_scratch, run_vector_with_engine, CompiledVProg,
    CountingSink, Engine, ExecError, RunResult, TraceSink, VecSink, VectorStats,
};

use crate::check::{check_reply, live_outs, memory};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// The operation (stream position) the span belongs to.
    op: u64,
    /// The enclosing span's name (`None` at the top).
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Starts recording; span times are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an interval measured elsewhere (a client round trip).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span and returns its result and duration in µs.
    fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        self.record(name, op, Some(parent), t0, t1);
        (r, (t1 - t0).as_secs_f64() * 1e6)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation and write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One operation to replay through the layers.
pub struct ReplayOp<'a> {
    /// Stream position.
    pub op: u64,
    /// The loop program.
    pub program: &'a Program,
    /// Its input arrays.
    pub arrays: &'a [Vec<i64>],
    /// Invocations per operation.
    pub invocations: u64,
    /// The request line, for daemon workloads.
    pub line: Option<&'a str>,
}

/// Per-op samples of every layer metric, plus the aggregate counters.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    kinds: BTreeMap<&'static str, u64>,
    page_cache: PageCacheStats,
    sim_uops: u64,
    sim_us: f64,
    /// Replay failures (layer disagreement with the scalar oracle).
    pub failures: Vec<String>,
    /// Operations replayed.
    pub ops: u64,
    /// Operations with at least one failure.
    pub failed_ops: u64,
}

impl Layers {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Median per op of a sampled metric and its sample count.
    pub fn median(&self, metric: &str) -> (f64, usize) {
        self.samples
            .get(metric)
            .map_or((0.0, 0), |v| (crate::host::median(v), v.len()))
    }

    /// Share of replayed kernels the vectorizer produced as `kind`
    /// (`flexvec`, `traditional`, or `refused`).
    pub fn kind_share(&self, kind: &str) -> f64 {
        let total: u64 = self.kinds.values().sum();
        self.kinds.get(kind).copied().unwrap_or(0) as f64 / total.max(1) as f64
    }

    /// Page-cache hit ratio over every bytecode vector run replayed.
    pub fn page_cache_hit_ratio(&self) -> f64 {
        self.page_cache.hits as f64 / self.page_cache.accesses().max(1) as f64
    }

    /// µops per second the out-of-order model consumed.
    pub fn sim_uops_per_s(&self) -> f64 {
        if self.sim_us > 0.0 {
            self.sim_uops as f64 / (self.sim_us / 1e6)
        } else {
            0.0
        }
    }
}

type VectorRun = Result<(RunResult, VectorStats), ExecError>;

/// Runs `invocations` vector executions on one memory image, summing
/// the statistics.
fn repeat_vector(
    invocations: u64,
    mem: &mut AddressSpace,
    mut run: impl FnMut(&mut AddressSpace) -> VectorRun,
) -> VectorRun {
    let mut total = VectorStats::default();
    let mut last = None;
    for _ in 0..invocations.max(1) {
        let (r, s) = run(mem)?;
        total.chunks += s.chunks;
        total.vpl_iterations += s.vpl_iterations;
        total.ff_fallbacks += s.ff_fallbacks;
        total.rtm_aborts += s.rtm_aborts;
        last = Some(r);
    }
    Ok((last.expect("at least one invocation"), total))
}

/// Replays `op` through every layer, recording spans into `tracer`
/// and samples into `layers`. `engine` is the in-process serving
/// engine, for daemon workloads.
pub fn replay(
    tracer: &mut Tracer,
    layers: &mut Layers,
    op: &ReplayOp<'_>,
    engine: Option<&ServeEngine>,
) {
    const TOP: &str = "replay.op";
    let t_op = Instant::now();
    let failures_before = layers.failures.len();
    let id = op.op;
    let program = op.program;
    let inv = op.invocations.max(1);
    layers.ops += 1;
    let fail = |layers: &mut Layers, what: String| {
        layers
            .failures
            .push(format!("op {id} ({}): {what}", program.name));
    };

    let mut request = None;
    if let Some(line) = op.line {
        let (req, us) = tracer.time("serve.decode", id, TOP, || Request::parse(line));
        layers.push("serve.decode_us", us);
        match req {
            Ok(req) => request = Some(req),
            Err((_, e)) => fail(layers, format!("request does not decode: {}", e.message)),
        }
    }
    if let Some(source) = request.as_ref().and_then(|r| r.source.as_deref()) {
        let (parsed, us) = tracer.time("front.parse", id, TOP, || parse_str("<request>", source));
        layers.push("front.parse_us", us);
        layers.push("front.source_kb", source.len() as f64 / 1024.0);
        match parsed {
            Ok(k) if &k.program == program => {}
            Ok(_) => fail(
                layers,
                "parsed source differs from the generated program".to_owned(),
            ),
            Err(d) => fail(layers, format!("source does not parse: {}", d.summary())),
        }
    }

    let (analysis, us) = tracer.time("core.analyze", id, TOP, || analyze(program));
    layers.push("core.analyze_us", us);
    let (vectorized, us) = tracer.time("core.vectorize", id, TOP, || {
        vectorize_with(program, &analysis, SpecRequest::Auto)
    });
    layers.push("core.vectorize_us", us);
    let kind = match &vectorized {
        Ok(v) if v.kind == VectorizedKind::FlexVec => "flexvec",
        Ok(_) => "traditional",
        Err(_) => "refused",
    };
    *layers.kinds.entry(kind).or_insert(0) += 1;

    let (mut mem, bind) = memory(program, op.arrays);
    let (scalar, us) = tracer.time("vm.scalar", id, TOP, || {
        let mut sink = CountingSink::default();
        let mut last = None;
        for _ in 0..inv {
            last = Some(run_scalar(program, &mut mem, bind.clone(), &mut sink));
        }
        last.expect("at least one invocation")
    });
    layers.push("vm.scalar_us", us);
    let expected = match scalar {
        Ok(run) => live_outs(program, &run),
        Err(e) => {
            fail(layers, format!("scalar run failed: {e}"));
            layers.failed_ops += 1;
            return;
        }
    };

    if let Ok(v) = &vectorized {
        let vprog = &v.vprog;
        let (compiled, us) = tracer.time("vm.bytecode", id, TOP, || CompiledVProg::compile(vprog));
        layers.push("vm.bytecode_us", us);
        let mut native = compiled.clone();
        let ((), us) = tracer.time("vm.jit", id, TOP, || {
            native.enable_native();
        });
        layers.push("vm.jit_us", us);

        let check = |layers: &mut Layers, engine: &str, run: &VectorRun| match run {
            Ok((r, _)) if live_outs(program, r) == expected => {}
            Ok((r, _)) => fail(
                layers,
                format!(
                    "{engine} live-outs {:?} vs scalar {expected:?}",
                    live_outs(program, r)
                ),
            ),
            Err(e) => fail(layers, format!("{engine} run failed: {e}")),
        };

        let (mut mem, bind) = memory(program, op.arrays);
        let (run, us) = tracer.time("vm.vector.tree", id, TOP, || {
            let mut sink = CountingSink::default();
            repeat_vector(inv, &mut mem, |m| {
                run_vector_with_engine(
                    program,
                    vprog,
                    m,
                    bind.clone(),
                    &mut sink,
                    Engine::TreeWalking,
                )
            })
        });
        layers.push("vm.vector_us.tree", us);
        check(layers, "tree", &run);

        for (metric, span, plan, counted) in [
            (
                "vm.vector_us.bytecode",
                "vm.vector.bytecode",
                &compiled,
                true,
            ),
            ("vm.vector_us.native", "vm.vector.native", &native, false),
        ] {
            let (mut mem, bind) = memory(program, op.arrays);
            mem.reset_cache_stats();
            let mut scratch = plan.scratch();
            let mut sink = CountingSink::default();
            let (run, us) = tracer.time(span, id, TOP, || {
                repeat_vector(inv, &mut mem, |m| {
                    run_vector_precompiled_with_scratch(
                        program,
                        vprog,
                        plan,
                        &mut scratch,
                        m,
                        bind.clone(),
                        &mut sink,
                    )
                })
            });
            layers.push(metric, us);
            check(layers, span, &run);
            if let (Ok((_, stats)), true) = (&run, counted) {
                let pc = mem.cache_stats();
                layers.page_cache.hits += pc.hits;
                layers.page_cache.misses += pc.misses;
                layers.push("vm.uops", sink.len() as f64);
                layers.push("vm.chunks", stats.chunks as f64);
                layers.push("vm.vpl_iterations", stats.vpl_iterations as f64);
                layers.push("vm.ff_fallbacks", stats.ff_fallbacks as f64);
                layers.push("vm.rtm_aborts", stats.rtm_aborts as f64);
            }
        }

        // The timing model, fed a recorded trace of the bytecode run.
        let (mut mem, bind) = memory(program, op.arrays);
        let mut scratch = compiled.scratch();
        let mut trace = VecSink::default();
        let recorded = repeat_vector(inv, &mut mem, |m| {
            run_vector_precompiled_with_scratch(
                program,
                vprog,
                &compiled,
                &mut scratch,
                m,
                bind.clone(),
                &mut trace,
            )
        });
        if recorded.is_ok() {
            let (cycles, us) = tracer.time("sim.ooo", id, TOP, || {
                let mut sim = OooSim::table1();
                for uop in &trace.uops {
                    sim.observe(uop);
                }
                sim.result().cycles
            });
            std::hint::black_box(cycles);
            layers.push("sim.ooo_us", us);
            layers.sim_uops += trace.uops.len() as u64;
            layers.sim_us += us;
        }
    }

    if let (Some(engine), Some(req)) = (engine, &request) {
        let (out, us) = tracer.time("serve.handle", id, TOP, || engine.handle(req, None));
        layers.push("serve.handle_us", us);
        match out {
            Ok(out) => {
                let (reply, us) = tracer.time("serve.encode", id, TOP, || {
                    ok_response(req.id, out.fields).to_string()
                });
                layers.push("serve.encode_us", us);
                if let Err(e) = check_reply(&reply, &expected) {
                    fail(layers, format!("in-process handle: {e}"));
                }
            }
            Err(e) => fail(layers, format!("in-process handle failed: {}", e.message)),
        }
    }
    if layers.failures.len() > failures_before {
        layers.failed_ops += 1;
    }
    tracer.record(TOP, id, None, t_op, Instant::now());
}
