//! The content-addressed compile cache.
//!
//! [`CompileCache`] memoizes the whole middle of the pipeline — analyze
//! → vectorize → bytecode-compile — keyed by the stable AST hash
//! ([`flexvec::program_hash`]) mixed with the speculation request. Two
//! `.fv` files that parse to the same `Program` share one entry, the
//! text itself never matters, and a second submission of a corpus in
//! the same process performs zero vectorizations (asserted by
//! `tests/fv_cache.rs`).
//!
//! Storage is [`flexvec::ShardedCache`], so concurrent batch drivers
//! compile each distinct kernel exactly once and share the immutable
//! [`CompiledVProg`] behind an `Arc` (per-run mutable state lives in
//! `ExecScratch`, allocated per thread).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexvec::{
    analyze, program_hash, vectorize_with, CacheStats, LoopAnalysis, ShardedCache, SpecRequest,
    StableHasher, VectorizeError, Vectorized, Verdict,
};
use flexvec_ir::Program;
use flexvec_vm::{CompiledVProg, NativeVariants};

/// A fully lowered, executable plan for one kernel.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The vectorizer's output (vector program + analysis + kind).
    pub vectorized: Vectorized,
    /// The flat bytecode form the compiled engine executes.
    pub compiled: CompiledVProg,
    /// Native code for `compiled`, built lazily per vector length and
    /// evicted with the entry. Machine code is never persisted.
    native: NativeVariants,
}

impl CompiledPlan {
    /// A plan whose native code is not built yet.
    pub fn new(vectorized: Vectorized, compiled: CompiledVProg) -> Self {
        CompiledPlan {
            vectorized,
            compiled,
            native: NativeVariants::default(),
        }
    }

    /// The bytecode with native code attached at the ambient vector
    /// length, JIT-compiled on the first call at that width; `None`
    /// where the host has no JIT back end or the JIT declines this
    /// program (run [`CompiledPlan::compiled`] instead).
    pub fn native(&self) -> Option<&CompiledVProg> {
        self.native.get_or_build(&self.compiled)
    }
}

/// One cache entry: everything the pipeline derives from a `Program`
/// under a given [`SpecRequest`]. Rejections are cached too — a kernel
/// the vectorizer refuses is refused once, not per submission.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The stable AST hash ([`flexvec::program_hash`]) of the source
    /// program (spec-independent).
    pub program_hash: u64,
    /// The analysis (always available, even for rejected kernels).
    pub analysis: LoopAnalysis,
    /// The vectorized plan, or why there is none.
    pub plan: Result<CompiledPlan, VectorizeError>,
}

impl CompiledKernel {
    /// One-line human-readable verdict, e.g. `flexvec (early-exit,
    /// cond-update)` or `not vectorizable: <reason>`.
    pub fn verdict_summary(&self) -> String {
        verdict_summary(&self.analysis.verdict)
    }
}

/// Renders a [`Verdict`] as the short form the drivers print.
pub fn verdict_summary(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Traditional { reductions } => {
            if reductions.is_empty() {
                "traditional".to_owned()
            } else {
                format!("traditional ({} reduction(s))", reductions.len())
            }
        }
        Verdict::FlexVec(plan) => {
            let mut tags = Vec::new();
            if !plan.early_exits.is_empty() {
                tags.push("early-exit");
            }
            if !plan.updated_vars.is_empty() {
                tags.push("cond-update");
            }
            if !plan.conflict_checks.is_empty() {
                tags.push("mem-conflict");
            }
            if plan.needs_speculation() {
                tags.push("speculative-load");
            }
            if tags.is_empty() {
                "flexvec".to_owned()
            } else {
                format!("flexvec ({})", tags.join(", "))
            }
        }
        Verdict::NotVectorizable { reason } => format!("not vectorizable: {reason}"),
    }
}

/// How a [`CompileCache::get_or_compile_restored`] submission was
/// satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory cache.
    Hit,
    /// Miss satisfied by the restore hook (e.g. a disk snapshot) — no
    /// pipeline run.
    Restored,
    /// Miss satisfied by running the full compile pipeline.
    Compiled,
}

impl CacheOutcome {
    /// Whether the request avoided a pipeline run (in-memory hit or
    /// snapshot restore) — what the serving layer reports as
    /// `cache_hit`.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheOutcome::Compiled)
    }
}

/// The pipeline memo map. Cheap to share by reference across the
/// threads of a batch driver; create one per process (or per
/// `flexvecc` invocation) and submit every kernel through it.
///
/// Batch drivers use the unbounded [`CompileCache::new`]; a resident
/// server caps residency with [`CompileCache::with_capacity`]
/// (segmented-LRU eviction, see [`ShardedCache::with_capacity`]) so the
/// cache cannot grow without bound across days of traffic, and submits
/// through [`CompileCache::get_or_compile_coalesced`] so one slow
/// compilation never stalls unrelated kernels.
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: ShardedCache<CompiledKernel>,
    compiles: AtomicU64,
}

impl CompileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to roughly `capacity` entries
    /// with segmented-LRU eviction (exact bound documented on
    /// [`ShardedCache::with_capacity`]). Evicted kernels recompile on
    /// their next submission — correctness is unaffected, only the
    /// hit rate.
    pub fn with_capacity(capacity: usize) -> Self {
        CompileCache {
            entries: ShardedCache::with_capacity(capacity),
            compiles: AtomicU64::new(0),
        }
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.entries.capacity()
    }

    /// The cache key for `program` under `spec`: the stable AST hash
    /// mixed with the speculation request (an RTM plan differs from a
    /// first-faulting plan, so they cache separately).
    pub fn key(program: &Program, spec: SpecRequest) -> u64 {
        Self::key_for_hash(program_hash(program), spec)
    }

    /// [`CompileCache::key`] when only the stable AST hash is at hand
    /// (e.g. a request that names a kernel by hash).
    pub fn key_for_hash(program_hash: u64, spec: SpecRequest) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(program_hash);
        match spec {
            SpecRequest::Auto => h.tag(0x51),
            SpecRequest::Rtm { tile } => {
                h.tag(0x52);
                h.write_u64(tile as u64);
            }
        }
        h.finish()
    }

    /// Whether the cache currently holds `(program_hash, spec)`,
    /// without touching hit/miss counters or recency (a routing probe,
    /// not a lookup).
    pub fn contains_hash(&self, program_hash: u64, spec: SpecRequest) -> bool {
        self.entries
            .peek(Self::key_for_hash(program_hash, spec))
            .is_some()
    }

    /// Returns the pipeline output for `program`, compiling at most
    /// once per distinct (AST, spec) pair. The boolean is `true` on a
    /// cache hit.
    pub fn get_or_compile(
        &self,
        program: &Program,
        spec: SpecRequest,
    ) -> (Arc<CompiledKernel>, bool) {
        let key = Self::key(program, spec);
        self.entries
            .get_or_insert_with(key, || self.compile(program, spec))
    }

    /// [`CompileCache::get_or_compile`] with request coalescing: the
    /// pipeline runs with no shard lock held, concurrent submitters of
    /// the same (AST, spec) pair park until the one in-flight
    /// compilation finishes, and submitters of *different* kernels
    /// proceed unblocked even when their keys share a shard. The
    /// resident server's admission path.
    pub fn get_or_compile_coalesced(
        &self,
        program: &Program,
        spec: SpecRequest,
    ) -> (Arc<CompiledKernel>, bool) {
        let key = Self::key(program, spec);
        self.entries
            .get_or_insert_coalesced(key, || self.compile(program, spec))
    }

    /// [`CompileCache::get_or_compile_coalesced`] with a restore hook:
    /// on a miss, `restore` is consulted *before* the pipeline runs. A
    /// `Some(kernel)` return (e.g. a validated disk snapshot) is
    /// inserted without compiling — the compile counter stays put and
    /// the outcome is [`CacheOutcome::Restored`]; `None` falls through
    /// to the normal compile path. The snapshot store in `flexvec-serve`
    /// is the intended caller.
    pub fn get_or_compile_restored(
        &self,
        program: &Program,
        spec: SpecRequest,
        restore: impl FnOnce() -> Option<CompiledKernel>,
    ) -> (Arc<CompiledKernel>, CacheOutcome) {
        let key = Self::key(program, spec);
        // `get_or_insert_coalesced` only reports hit/miss; the Cell
        // records which miss path actually ran (at most one closure
        // invocation, so at most one `set`).
        let outcome = std::cell::Cell::new(CacheOutcome::Compiled);
        // `Cell` because the coalesced closure is `Fn`: the restore hook
        // is consumed on first invocation; a pathological re-run (the
        // first computer panicked) falls back to a plain compile.
        let restore = std::cell::Cell::new(Some(restore));
        let (kernel, hit) =
            self.entries
                .get_or_insert_coalesced(key, || match restore.take().and_then(|r| r()) {
                    Some(kernel) => {
                        outcome.set(CacheOutcome::Restored);
                        kernel
                    }
                    None => self.compile(program, spec),
                });
        let outcome = if hit {
            CacheOutcome::Hit
        } else {
            outcome.get()
        };
        (kernel, outcome)
    }

    /// Runs the full analyze→vectorize→bytecode-compile pipeline (the
    /// cache-miss path).
    fn compile(&self, program: &Program, spec: SpecRequest) -> CompiledKernel {
        let analysis = analyze(program);
        self.compile_with(program, &analysis, spec)
    }

    /// The lowering half of the pipeline against an already-computed
    /// analysis (the dependence analysis is spec-independent, so a
    /// respecialization reuses it).
    fn compile_with(
        &self,
        program: &Program,
        analysis: &LoopAnalysis,
        spec: SpecRequest,
    ) -> CompiledKernel {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let plan = vectorize_with(program, analysis, spec).map(|vectorized| {
            let compiled = CompiledVProg::compile(&vectorized.vprog);
            CompiledPlan::new(vectorized, compiled)
        });
        CompiledKernel {
            program_hash: program_hash(program),
            analysis: analysis.clone(),
            plan,
        }
    }

    /// Builds (or returns) the plan variant for `program` under a *new*
    /// speculation request, reusing the dependence analysis of an
    /// already-compiled sibling variant instead of re-analyzing — the
    /// serving autotuner's re-lowering path. The boolean is `true` when
    /// the variant was already cached.
    pub fn get_or_respecialize(
        &self,
        program: &Program,
        analysis: &LoopAnalysis,
        spec: SpecRequest,
    ) -> (Arc<CompiledKernel>, bool) {
        let key = Self::key(program, spec);
        self.entries
            .get_or_insert_coalesced(key, || self.compile_with(program, analysis, spec))
    }

    /// Pins the `(program_hash, spec)` variant: exempt from LRU
    /// eviction until unpinned (see [`ShardedCache::pin`]). The serving
    /// layer pins each kernel's *active* variant so traffic bursts
    /// cannot flush the plan the autotuner selected, while stale
    /// variants age out normally. Returns whether the variant was
    /// resident.
    pub fn pin(&self, program_hash: u64, spec: SpecRequest) -> bool {
        self.entries.pin(Self::key_for_hash(program_hash, spec))
    }

    /// Reverses [`CompileCache::pin`] for the `(program_hash, spec)`
    /// variant, making it ordinarily evictable again.
    pub fn unpin(&self, program_hash: u64, spec: SpecRequest) -> bool {
        self.entries.unpin(Self::key_for_hash(program_hash, spec))
    }

    /// How many times the full analyze→vectorize→compile pipeline
    /// actually ran (cumulative; not reset by
    /// [`CompileCache::reset_counters`]). A batch that re-submits a
    /// cached corpus must leave this unchanged.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Hit/miss/entry snapshot of the underlying map.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Resets hit/miss counters (entries and the compile count are
    /// preserved) so one submission wave can be measured in isolation.
    pub fn reset_counters(&self) {
        self.entries.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec::VectorizedKind;
    use flexvec_ir::build::*;
    use flexvec_ir::ProgramBuilder;

    fn cond_min() -> Program {
        let mut b = ProgramBuilder::new("cond-min");
        let i = b.var("i", 0);
        let best = b.var("best", i64::MAX);
        let a = b.array("a");
        b.live_out(best);
        b.build_loop(
            i,
            c(0),
            c(64),
            vec![if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(best, ld(a, var(i)))],
            )],
        )
        .unwrap()
    }

    #[test]
    fn second_submission_hits_without_recompiling() {
        let cache = CompileCache::new();
        let p = cond_min();
        let (k1, hit1) = cache.get_or_compile(&p, SpecRequest::Auto);
        assert!(!hit1);
        assert_eq!(cache.compiles(), 1);
        let plan = k1.plan.as_ref().expect("vectorizes");
        assert_eq!(plan.vectorized.kind, VectorizedKind::FlexVec);

        let (k2, hit2) = cache.get_or_compile(&p.clone(), SpecRequest::Auto);
        assert!(hit2);
        assert_eq!(cache.compiles(), 1, "no second pipeline run");
        assert!(Arc::ptr_eq(&k1, &k2), "same shared entry");
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spec_request_splits_the_key() {
        let p = cond_min();
        let auto = CompileCache::key(&p, SpecRequest::Auto);
        let rtm = CompileCache::key(&p, SpecRequest::Rtm { tile: 256 });
        let rtm2 = CompileCache::key(&p, SpecRequest::Rtm { tile: 512 });
        assert_ne!(auto, rtm);
        assert_ne!(rtm, rtm2);
    }

    #[test]
    fn coalesced_submission_compiles_once() {
        let cache = CompileCache::new();
        let p = cond_min();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (k, _) = cache.get_or_compile_coalesced(&p, SpecRequest::Auto);
                    assert!(k.plan.is_ok());
                });
            }
        });
        assert_eq!(cache.compiles(), 1, "one pipeline run for 8 submitters");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn bounded_cache_evicts_and_recompiles() {
        // Capacity 16 → 1 entry per shard: distinct kernels churn each
        // other out, and resubmitting an evicted kernel recompiles
        // (correctness preserved, compile count grows).
        let cache = CompileCache::with_capacity(16);
        assert_eq!(cache.capacity(), Some(16));
        let programs: Vec<Program> = (0..64)
            .map(|n| {
                let mut b = ProgramBuilder::new(&format!("k{n}"));
                let i = b.var("i", 0);
                let s = b.var("s", 0);
                let a = b.array("a");
                b.live_out(s);
                b.build_loop(
                    i,
                    c(0),
                    c(64),
                    vec![assign(s, add(var(s), add(ld(a, var(i)), c(n))))],
                )
                .unwrap()
            })
            .collect();
        let cache_ref = &cache;
        std::thread::scope(|scope| {
            for chunk in programs.chunks(16) {
                scope.spawn(move || {
                    for p in chunk {
                        let (k, _) = cache_ref.get_or_compile_coalesced(p, SpecRequest::Auto);
                        assert!(k.plan.is_ok(), "{}", p.name);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 16, "bounded: {stats:?}");
        assert!(stats.evictions >= 64 - 16, "churned: {stats:?}");
        // Evicted kernels still compile correctly on resubmission.
        let before = cache.compiles();
        let (k, _) = cache.get_or_compile_coalesced(&programs[0], SpecRequest::Auto);
        assert!(k.plan.is_ok());
        assert!(cache.compiles() >= before);
    }

    #[test]
    fn restore_hook_is_tried_before_compiling() {
        let cache = CompileCache::new();
        let p = cond_min();

        // A restore hook that declines: the pipeline must run.
        let (_, outcome) = cache.get_or_compile_restored(&p, SpecRequest::Auto, || None);
        assert_eq!(outcome, CacheOutcome::Compiled);
        assert_eq!(cache.compiles(), 1);

        // Same key again: in-memory hit, hook never consulted.
        let (_, outcome) = cache.get_or_compile_restored(&p, SpecRequest::Auto, || {
            panic!("hook must not run on a hit")
        });
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(outcome.is_hit());

        // A different spec with a willing hook: restored, no compile.
        let donor = CompileCache::new();
        let (k, _) = donor.get_or_compile(&p, SpecRequest::Rtm { tile: 16 });
        let (restored, outcome) =
            cache.get_or_compile_restored(&p, SpecRequest::Rtm { tile: 16 }, move || {
                Some(CompiledKernel {
                    program_hash: k.program_hash,
                    analysis: k.analysis.clone(),
                    plan: match &k.plan {
                        Ok(plan) => Ok(CompiledPlan::new(
                            plan.vectorized.clone(),
                            plan.compiled.clone(),
                        )),
                        Err(e) => Err(e.clone()),
                    },
                })
            });
        assert_eq!(outcome, CacheOutcome::Restored);
        assert!(outcome.is_hit());
        assert_eq!(cache.compiles(), 1, "restore skipped the pipeline");
        assert_eq!(restored.program_hash, program_hash(&p));
    }

    #[test]
    fn respecialize_reuses_analysis_and_pins_protect_variants() {
        let cache = CompileCache::with_capacity(16); // 1 entry per shard
        let p = cond_min();
        let (auto, _) = cache.get_or_compile(&p, SpecRequest::Auto);
        assert_eq!(cache.compiles(), 1);

        // Respecialize to an RTM variant off the cached analysis: one
        // more lowering, and the variant caches under its own key.
        let spec = SpecRequest::Rtm { tile: 128 };
        let (rtm, hit) = cache.get_or_respecialize(&p, &auto.analysis, spec);
        assert!(!hit);
        assert_eq!(cache.compiles(), 2);
        assert!(rtm.plan.is_ok());
        assert_eq!(rtm.program_hash, auto.program_hash);
        let (rtm2, hit2) = cache.get_or_respecialize(&p, &auto.analysis, spec);
        assert!(hit2, "variant is cached");
        assert!(Arc::ptr_eq(&rtm, &rtm2));

        // Pin the RTM variant, then churn its shard with distinct
        // kernels: the pinned variant survives where an unpinned one
        // would age out.
        assert!(cache.pin(rtm.program_hash, spec));
        assert!(
            !cache.pin(rtm.program_hash, SpecRequest::Rtm { tile: 64 }),
            "absent variants report non-resident"
        );
        for n in 0..64 {
            let mut b = ProgramBuilder::new(&format!("churn{n}"));
            let i = b.var("i", 0);
            let s = b.var("s", 0);
            let a = b.array("a");
            b.live_out(s);
            let churn = b
                .build_loop(
                    i,
                    c(0),
                    c(64),
                    vec![assign(s, add(var(s), add(ld(a, var(i)), c(n))))],
                )
                .unwrap();
            cache.get_or_compile(&churn, SpecRequest::Auto);
        }
        assert!(
            cache.contains_hash(rtm.program_hash, spec),
            "pinned active variant survives eviction pressure"
        );
        assert!(cache.unpin(rtm.program_hash, spec));
        assert_eq!(cache.stats().pinned, 0);
    }

    #[test]
    fn rejections_are_cached_with_analysis_intact() {
        // A loop-carried scalar recurrence used non-reductively: the
        // vectorizer refuses it, but the verdict is still reportable.
        let mut b = ProgramBuilder::new("carried");
        let i = b.var("i", 0);
        let s = b.var("s", 0);
        let t = b.var("t", 0);
        let a = b.array("a");
        b.live_out(t);
        let p = b
            .build_loop(
                i,
                c(0),
                c(64),
                vec![
                    assign(s, add(var(s), ld(a, var(i)))),
                    assign(t, mul(var(s), c(2))),
                ],
            )
            .unwrap();
        let cache = CompileCache::new();
        let (k, _) = cache.get_or_compile(&p, SpecRequest::Auto);
        assert!(k.plan.is_err());
        assert!(k.verdict_summary().starts_with("not vectorizable"));
        let (_, hit) = cache.get_or_compile(&p, SpecRequest::Auto);
        assert!(hit, "rejection is cached too");
        assert_eq!(cache.compiles(), 1);
    }
}
