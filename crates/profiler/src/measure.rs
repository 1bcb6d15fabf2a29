//! The paper's measurement procedure (Section 5), written once: run the
//! loop scalar as the baseline, run the FlexVec vector code, time both
//! on the Table 1 out-of-order model, and check that the two agree.
//!
//! A [`Harness`] fixes what is measured (program, input arrays,
//! simulator configuration, invocation count, optional cancellation).
//! [`Harness::scalar`] and [`Harness::vector`] each bind the arrays
//! into a fresh [`AddressSpace`] and run every invocation on one
//! [`OooSim`]; [`verify`] compares the two final states. Callers keep
//! only their own decisions: which executor runs the vector code,
//! whether a run needs the baseline at all, and how a failure is
//! reported.

use std::time::{Duration, Instant};

use flexvec::VProg;
use flexvec_ir::{ArraySym, Program};
use flexvec_mem::{AddressSpace, PageCacheStats};
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    run_all_or_nothing_with_engine, run_scalar_cancellable, run_vector_precompiled_cancellable,
    run_vector_with_engine, Bindings, CancelToken, CompiledVProg, Engine, ExecError, RunResult,
    TraceSink, VectorStats,
};

use crate::ThroughputReport;

/// What one measurement runs: a program over its input arrays, `N`
/// invocations on the out-of-order model.
pub struct Harness<'a> {
    program: &'a Program,
    arrays: &'a [Vec<i64>],
    config: &'a SimConfig,
    invocations: u64,
    cancel: Option<&'a CancelToken>,
}

/// The vector executor a [`Harness::vector`] run goes through.
#[derive(Clone, Copy)]
pub enum Executor<'a> {
    /// The tree-walking reference interpreter.
    Tree,
    /// Flattened bytecode, running native code where the program has
    /// it attached ([`CompiledVProg::has_native`]).
    Compiled(&'a CompiledVProg),
    /// All-or-nothing speculation (the PACT'13 baseline of the paper's
    /// Section 2) on the given engine.
    AllOrNothing(Engine),
}

impl Executor<'_> {
    /// The executor that actually runs, as a [`ThroughputReport`]
    /// label.
    fn label(self) -> &'static str {
        match self {
            Executor::Tree | Executor::AllOrNothing(Engine::TreeWalking) => "tree-walking",
            Executor::Compiled(code) if code.has_native() => "native",
            Executor::AllOrNothing(Engine::Native) => "native",
            Executor::Compiled(_) | Executor::AllOrNothing(Engine::Compiled) => "compiled",
        }
    }
}

/// The timed scalar baseline: its measurements and final state.
pub struct ScalarRun {
    /// Wall-clock time of all invocations.
    pub wall: Duration,
    /// Simulated cycles over all invocations.
    pub cycles: u64,
    /// µops over all invocations.
    pub uops: u64,
    /// Final state of the last invocation.
    pub result: RunResult,
    /// The memory image after the last invocation.
    pub mem: AddressSpace,
    /// Where the input arrays live in `mem`.
    pub bindings: Bindings,
}

impl ScalarRun {
    /// The baseline's throughput, labelled `scalar`: what a caller
    /// reports when no vector code exists.
    pub fn throughput(&self) -> ThroughputReport {
        ThroughputReport::new("scalar", self.wall, 0, self.uops, PageCacheStats::default())
    }
}

/// The timed vector run: its measurements and final state.
pub struct VectorRun {
    /// Simulated cycles over all invocations.
    pub cycles: u64,
    /// Dynamic statistics of the last invocation.
    pub stats: VectorStats,
    /// Dynamic statistics summed over all invocations
    /// (`max_partitions` is the maximum, `broke` the last).
    pub total: VectorStats,
    /// Engine throughput over all invocations, labelled with the
    /// executor that ran.
    pub throughput: ThroughputReport,
    /// Final state of the last invocation.
    pub result: RunResult,
    /// The memory image after the last invocation.
    pub mem: AddressSpace,
    /// Where the input arrays live in `mem`.
    pub bindings: Bindings,
}

/// The first way a vector run disagrees with its scalar baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// A live-out variable ended with different values.
    LiveOut {
        /// The variable's name.
        name: String,
        /// Its scalar value.
        scalar: i64,
        /// Its vector value.
        vector: i64,
    },
    /// An array ended with different contents.
    Array {
        /// The array's name.
        name: String,
    },
}

impl core::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Mismatch::LiveOut {
                name,
                scalar,
                vector,
            } => write!(f, "live-out {name} is {scalar} scalar vs {vector} vector"),
            Mismatch::Array { name } => write!(f, "array {name} differs"),
        }
    }
}

impl<'a> Harness<'a> {
    /// A measurement of `invocations` runs (at least one) of `program`
    /// over `arrays` on a fresh `config` model.
    pub fn new(
        program: &'a Program,
        arrays: &'a [Vec<i64>],
        config: &'a SimConfig,
        invocations: u64,
    ) -> Self {
        Harness {
            program,
            arrays,
            config,
            invocations: invocations.max(1),
            cancel: None,
        }
    }

    /// Polls `cancel` in the scalar run and in [`Executor::Compiled`]
    /// vector runs (the tree and all-or-nothing executors run to
    /// completion).
    pub fn with_cancel(mut self, cancel: Option<&'a CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Binds the input arrays into a fresh address space.
    fn bind(&self) -> (AddressSpace, Bindings) {
        let mut mem = AddressSpace::new();
        let ids = self
            .arrays
            .iter()
            .enumerate()
            .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", self.program.name), data))
            .collect();
        (mem, Bindings::new(ids))
    }

    /// Runs the scalar baseline.
    ///
    /// # Errors
    ///
    /// The first invocation's fault, or [`ExecError::Cancelled`].
    pub fn scalar(&self) -> Result<ScalarRun, ExecError> {
        let (mut mem, bindings) = self.bind();
        let mut sim = OooSim::new(self.config.clone());
        let start = Instant::now();
        let mut result = None;
        for _ in 0..self.invocations {
            result = Some(run_scalar_cancellable(
                self.program,
                &mut mem,
                bindings.clone(),
                &mut sim,
                self.cancel,
            )?);
        }
        Ok(ScalarRun {
            wall: start.elapsed(),
            cycles: sim.result().cycles,
            uops: sim.len(),
            result: result.expect("at least one invocation"),
            mem,
            bindings,
        })
    }

    /// Runs `vprog` (the vectorization of the harness's program)
    /// through `executor`.
    ///
    /// # Errors
    ///
    /// The first invocation's fault, or [`ExecError::Cancelled`].
    pub fn vector(&self, vprog: &VProg, executor: Executor<'_>) -> Result<VectorRun, ExecError> {
        let (mut mem, bindings) = self.bind();
        let mut sim = OooSim::new(self.config.clone());
        let mut scratch = match executor {
            Executor::Compiled(code) => Some(code.scratch()),
            Executor::Tree | Executor::AllOrNothing(_) => None,
        };
        let mut throughput = ThroughputReport::new(
            executor.label(),
            Duration::ZERO,
            0,
            0,
            PageCacheStats::default(),
        );
        let mut total = VectorStats::default();
        let mut last = None;
        mem.reset_cache_stats();
        let start = Instant::now();
        for _ in 0..self.invocations {
            let bind = bindings.clone();
            let (r, s) = match executor {
                Executor::Compiled(code) => run_vector_precompiled_cancellable(
                    self.program,
                    vprog,
                    code,
                    scratch.as_mut().expect("compiled runs make scratch"),
                    &mut mem,
                    bind,
                    &mut sim,
                    self.cancel,
                )?,
                Executor::Tree => run_vector_with_engine(
                    self.program,
                    vprog,
                    &mut mem,
                    bind,
                    &mut sim,
                    Engine::TreeWalking,
                )?,
                Executor::AllOrNothing(engine) => run_all_or_nothing_with_engine(
                    self.program,
                    vprog,
                    &mut mem,
                    bind,
                    &mut sim,
                    engine,
                )?,
            };
            throughput.add_stats(&s);
            total.chunks += s.chunks;
            total.vpl_iterations += s.vpl_iterations;
            total.max_partitions = total.max_partitions.max(s.max_partitions);
            total.ff_fallbacks += s.ff_fallbacks;
            total.rtm_commits += s.rtm_commits;
            total.rtm_aborts += s.rtm_aborts;
            total.broke = s.broke;
            last = Some((r, s));
        }
        throughput.wall = start.elapsed();
        throughput.page_cache = mem.cache_stats();
        throughput.uops = sim.len();
        let (result, stats) = last.expect("at least one invocation");
        Ok(VectorRun {
            cycles: sim.result().cycles,
            stats,
            total,
            throughput,
            result,
            mem,
            bindings,
        })
    }
}

/// The final `(name, value)` of each of `program`'s live-outs, in
/// declaration order.
pub fn live_outs(program: &Program, result: &RunResult) -> Vec<(String, i64)> {
    program
        .live_out
        .iter()
        .map(|v| (program.var_name(*v).to_owned(), result.var(*v)))
        .collect()
}

/// Checks that a vector run left every live-out and every array
/// element exactly as the scalar baseline did.
///
/// # Errors
///
/// The first live-out, then the first array, that differs.
pub fn verify(program: &Program, scalar: &ScalarRun, vector: &VectorRun) -> Result<(), Mismatch> {
    for v in &program.live_out {
        let (s, x) = (scalar.result.var(*v), vector.result.var(*v));
        if s != x {
            return Err(Mismatch::LiveOut {
                name: program.var_name(*v).to_owned(),
                scalar: s,
                vector: x,
            });
        }
    }
    for i in 0..scalar.bindings.len() as u32 {
        let a = scalar.mem.snapshot_array(scalar.bindings.array(i));
        let b = vector.mem.snapshot_array(vector.bindings.array(i));
        if a != b {
            return Err(Mismatch::Array {
                name: program.array_name(ArraySym(i)).to_owned(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
