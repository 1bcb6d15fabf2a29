//! The vector-program executor.
//!
//! Runs a [`VProg`] against an [`AddressSpace`], one chunk of
//! [`vlen()`](flexvec_isa::vlen) scalar iterations per pass over the
//! program body (the ambient runtime vector length, default 16; the
//! chunk width is sampled once at run entry and held for the whole
//! run):
//!
//! * sets the reserved registers ([`VProg::IV`] = `base + iota`,
//!   [`VProg::K_LOOP`] = the chunk's active lanes);
//! * executes [`VNode::Vpl`] as a do/while over mask state (with a
//!   divergence bound as a safety net — FlexVec's `k_todo` update
//!   guarantees progress);
//! * on a [`VNode::FaultCheck`] mismatch (a first-faulting load was
//!   clipped) restores the chunk-entry scalar state and re-runs the whole
//!   chunk through the scalar interpreter — the paper's "falls back to a
//!   scalar version of the loop";
//! * under [`SpecMode::Rtm`], strip-mines the loop into tiles, wraps each
//!   tile in a rollback-only [`Transaction`], and on any fault aborts and
//!   re-runs the tile in scalar mode (Figure 3 / Section 3.3.2).

use flexvec::{SpecMode, VNode, VOp, VProg};
use flexvec_ir::{BinOp, Program};
use flexvec_isa::{
    kftm_exc, kftm_inc, vcmp, vgather_ff, vlen, vpconflictm, vpslctlast, CmpOp, LaneMemory, Mask,
    MemFault, Vector,
};
use flexvec_mem::{AddressSpace, Transaction};

use crate::compiled::{CompiledVProg, ExecScratch};
use crate::scalar::{Bindings, ExecError, RunResult, ScalarMachine, StepOutcome};
use crate::trace::{Tok, TraceSink, Uop, UopClass};

/// Which executor runs the chunk bodies.
///
/// Both engines produce bit-identical results, statistics and µop
/// traces; the tree walker is the semantic reference, the compiled
/// engine is the fast path (see `compiled`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Interpret the `VNode` tree directly (reference oracle).
    TreeWalking,
    /// Flatten the program once with [`CompiledVProg::compile`] and run
    /// the linear bytecode (default).
    #[default]
    Compiled,
    /// The bytecode tier plus JIT-compiled x86-64 machine code for the
    /// straight-line segments ([`CompiledVProg::enable_native`]). On
    /// targets without a JIT back end (see
    /// [`native_supported`](crate::native_supported)) this runs
    /// identically to [`Engine::Compiled`] — a graceful fallback, not
    /// an error.
    Native,
}

/// Dynamic statistics of a vector execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VectorStats {
    /// Vector chunks started.
    pub chunks: u64,
    /// Total VPL iterations (partitions) executed.
    pub vpl_iterations: u64,
    /// Largest partition count observed in one chunk.
    pub max_partitions: u64,
    /// Chunks that fell back to scalar execution after a clipped
    /// first-faulting load.
    pub ff_fallbacks: u64,
    /// RTM transactions committed.
    pub rtm_commits: u64,
    /// RTM transactions aborted (fault or capacity).
    pub rtm_aborts: u64,
    /// Whether the loop exited early.
    pub broke: bool,
}

/// How a chunk ended abnormally.
pub(crate) enum ChunkAbort {
    /// A first-faulting instruction was clipped (or its non-speculative
    /// lane faulted): fall back to scalar for the chunk.
    Clipped,
    /// An unguarded access faulted (aborts the transaction under RTM; a
    /// real error otherwise).
    Fault(MemFault),
    /// VPL did not converge.
    Divergence,
}

impl From<MemFault> for ChunkAbort {
    fn from(f: MemFault) -> Self {
        ChunkAbort::Fault(f)
    }
}

pub(crate) struct VecExec {
    pub(crate) array_bases: Vec<u64>,
    /// All-or-nothing mode: a VPL that needs more than one partition (or
    /// any early exit) aborts the chunk to the scalar fallback — the
    /// PACT'13-style speculative vectorization baseline.
    pub(crate) aon: bool,
    pub(crate) vregs: Vec<Vector>,
    pub(crate) kregs: Vec<Mask>,
    pub(crate) vars: Vec<i64>,
    pub(crate) exit_mask: Mask,
    /// Whether any store retired at least one lane in the current chunk.
    /// Gates the scalar fallback on VPL stall: a chunk whose stores have
    /// already landed in real memory cannot be re-executed.
    pub(crate) chunk_stores: bool,
    pub(crate) stats: VectorStats,
    /// Undo log for scalar-variable writes (`ExtractVar`) since the last
    /// [`VecExec::checkpoint_vars`]: `(var, previous value)` pairs. The
    /// chunk/tile drivers roll this back instead of snapshotting the whole
    /// variable file per chunk.
    journal: Vec<(u32, i64)>,
    /// Prebuilt chunk-prologue µops (IV materialization + loop control),
    /// emitted by reference each chunk.
    chunk_uops: [Uop; 4],
}

impl VecExec {
    fn new(program: &Program, vprog: &VProg, bindings: &Bindings, space: &AddressSpace) -> Self {
        let array_bases = (0..bindings.len())
            .map(|i| space.base(bindings.array(i as u32)))
            .collect();
        // IV materialization (broadcast + iota add) and the chunk's loop
        // control (bump, compare, back-edge branch).
        let chunk_uops = [
            Uop::reg(
                UopClass::Broadcast,
                vec![Tok::S(u32::MAX - 1)],
                Some(Tok::V(0)),
            ),
            Uop::reg(UopClass::VecAlu, vec![Tok::V(0)], Some(Tok::V(0))),
            Uop::reg(
                UopClass::ScalarAlu,
                vec![Tok::S(u32::MAX - 1)],
                Some(Tok::S(u32::MAX - 1)),
            ),
            Uop {
                class: UopClass::Branch {
                    id: u64::MAX,
                    taken: true,
                },
                srcs: vec![Tok::S(u32::MAX - 1)],
                dst: None,
                addrs: Vec::new(),
            },
        ];
        VecExec {
            array_bases,
            aon: false,
            vregs: vec![Vector::ZERO; vprog.num_vregs as usize],
            kregs: vec![Mask::EMPTY; vprog.num_kregs as usize],
            vars: program.vars.iter().map(|v| v.init).collect(),
            exit_mask: Mask::EMPTY,
            chunk_stores: false,
            stats: VectorStats::default(),
            journal: Vec::new(),
            chunk_uops,
        }
    }

    fn v(&self, r: flexvec::VReg) -> Vector {
        self.vregs[r.0 as usize]
    }

    fn k(&self, r: flexvec::KReg) -> Mask {
        self.kregs[r.0 as usize]
    }

    /// Writes a scalar variable, journaling the old value so the driver
    /// can roll the chunk/tile back without a full snapshot.
    #[inline]
    pub(crate) fn set_var(&mut self, var: u32, value: i64) {
        let slot = &mut self.vars[var as usize];
        self.journal.push((var, *slot));
        *slot = value;
    }

    /// Marks the current variable state as the rollback point.
    fn checkpoint_vars(&mut self) {
        self.journal.clear();
    }

    /// Restores the variable state saved by the last
    /// [`VecExec::checkpoint_vars`] (undo entries replay in reverse).
    fn rollback_vars(&mut self) {
        while let Some((var, old)) = self.journal.pop() {
            self.vars[var as usize] = old;
        }
    }

    /// Byte addresses for a lane-indexed access to `array`.
    fn addrs(&self, array: u32, idx: Vector) -> Vector {
        let base = self.array_bases[array as usize] as i64;
        idx.map(|i| base.wrapping_add(i.wrapping_mul(8)))
    }

    fn run_nodes<M: LaneMemory>(
        &mut self,
        nodes: &[VNode],
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        for node in nodes {
            match node {
                VNode::Op(op) => self.exec_op(op, mem, sink)?,
                VNode::Vpl { body, repeat_if } => {
                    let mut iters = 0u64;
                    // Previous partition's remaining-work mask; a nonempty
                    // `todo` can never equal `EMPTY`, so `EMPTY` doubles
                    // as the no-previous sentinel.
                    let mut prev_todo = Mask::EMPTY;
                    loop {
                        self.run_nodes(body, mem, sink)?;
                        iters += 1;
                        self.stats.vpl_iterations += 1;
                        let todo = self.k(*repeat_if);
                        if !todo.any() {
                            break;
                        }
                        if self.aon {
                            // All-or-nothing: a detected dependency rolls
                            // the whole chunk back to scalar code.
                            return Err(ChunkAbort::Clipped);
                        }
                        // A partition that retired no lanes (e.g. a stop
                        // bit in lane 0 leaving `kftm` EXC with an empty
                        // safe prefix) would spin forever; the iteration
                        // bound stays as a backstop.
                        if todo == prev_todo || iters > vlen() as u64 {
                            return Err(ChunkAbort::Divergence);
                        }
                        prev_todo = todo;
                    }
                    self.stats.max_partitions = self.stats.max_partitions.max(iters);
                    // The VPL's trailing mask test is a branch per
                    // iteration.
                    for n in 0..iters {
                        let _ = n;
                        sink.emit(Uop {
                            class: UopClass::Branch {
                                id: u64::MAX - 1,
                                taken: true,
                            },
                            srcs: vec![Tok::K(repeat_if.0)],
                            dst: None,
                            addrs: Vec::new(),
                        });
                    }
                }
                VNode::FaultCheck { got, want } => {
                    sink.emit(Uop::reg(
                        UopClass::MaskOp,
                        vec![Tok::K(got.0), Tok::K(want.0)],
                        None,
                    ));
                    if self.k(*got) != self.k(*want) {
                        return Err(ChunkAbort::Clipped);
                    }
                }
                VNode::BreakIf { mask } => {
                    if self.aon && self.k(*mask).any() {
                        return Err(ChunkAbort::Clipped);
                    }
                    sink.emit(Uop {
                        class: UopClass::Branch {
                            id: u64::MAX - 2,
                            taken: self.k(*mask).any(),
                        },
                        srcs: vec![Tok::K(mask.0)],
                        dst: None,
                        addrs: Vec::new(),
                    });
                    self.exit_mask |= self.k(*mask);
                }
            }
        }
        Ok(())
    }

    fn exec_op<M: LaneMemory>(
        &mut self,
        op: &VOp,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        match op {
            VOp::Iota { dst } => {
                self.vregs[dst.0 as usize] = Vector::iota();
                sink.emit(Uop::reg(UopClass::Broadcast, vec![], Some(Tok::V(dst.0))));
            }
            VOp::SplatConst { dst, value } => {
                self.vregs[dst.0 as usize] = Vector::splat(*value);
                sink.emit(Uop::reg(UopClass::Broadcast, vec![], Some(Tok::V(dst.0))));
            }
            VOp::SplatVar { dst, var } => {
                self.vregs[dst.0 as usize] = Vector::splat(self.vars[var.0 as usize]);
                sink.emit(Uop::reg(
                    UopClass::Broadcast,
                    vec![Tok::S(var.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::ExtractVar { var, src, lane } => {
                self.set_var(var.0, self.v(*src).lane(*lane));
                sink.emit(Uop::reg(
                    UopClass::VecShuffle,
                    vec![Tok::V(src.0)],
                    Some(Tok::S(var.0)),
                ));
            }
            VOp::Bin { op, dst, a, b } => {
                self.vregs[dst.0 as usize] = apply_bin(*op, self.v(*a), self.v(*b));
                sink.emit(Uop::reg(
                    bin_class(*op),
                    vec![Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::BinImm { op, dst, a, imm } => {
                self.vregs[dst.0 as usize] = apply_bin(*op, self.v(*a), Vector::splat(*imm));
                sink.emit(Uop::reg(
                    bin_class(*op),
                    vec![Tok::V(a.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::Cmp {
                pred,
                dst,
                mask,
                a,
                b,
            } => {
                let op = cmp_op(*pred);
                self.kregs[dst.0 as usize] = vcmp(self.k(*mask), op, self.v(*a), self.v(*b));
                sink.emit(Uop::reg(
                    UopClass::VecAlu,
                    vec![Tok::K(mask.0), Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::Blend { dst, mask, on, off } => {
                self.vregs[dst.0 as usize] =
                    Vector::blend(self.k(*mask), self.v(*on), self.v(*off));
                sink.emit(Uop::reg(
                    UopClass::VecShuffle,
                    vec![Tok::K(mask.0), Tok::V(on.0), Tok::V(off.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::SelectLast { dst, mask, src } => {
                self.vregs[dst.0 as usize] = vpslctlast(self.k(*mask), self.v(*src));
                sink.emit(Uop::reg(
                    UopClass::SelectLast,
                    vec![Tok::K(mask.0), Tok::V(src.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::Conflict { dst, enabled, a, b } => {
                self.kregs[dst.0 as usize] = vpconflictm(self.k(*enabled), self.v(*a), self.v(*b));
                sink.emit(Uop::reg(
                    UopClass::Conflict,
                    vec![Tok::K(enabled.0), Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::Kftm {
                dst,
                enabled,
                stop,
                inclusive,
            } => {
                let f = if *inclusive { kftm_inc } else { kftm_exc };
                self.kregs[dst.0 as usize] = f(self.k(*enabled), self.k(*stop));
                sink.emit(Uop::reg(
                    UopClass::Kftm,
                    vec![Tok::K(enabled.0), Tok::K(stop.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::KMove { dst, src } => {
                self.kregs[dst.0 as usize] = self.k(*src);
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(src.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::KConst { dst, bits } => {
                self.kregs[dst.0 as usize] = Mask::from_bits(*bits);
                sink.emit(Uop::reg(UopClass::MaskOp, vec![], Some(Tok::K(dst.0))));
            }
            VOp::KAnd { dst, a, b } => {
                self.kregs[dst.0 as usize] = self.k(*a) & self.k(*b);
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(a.0), Tok::K(b.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::KAndNot { dst, a, b } => {
                self.kregs[dst.0 as usize] = self.k(*a).and_not(self.k(*b));
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(a.0), Tok::K(b.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::KOr { dst, a, b } => {
                self.kregs[dst.0 as usize] = self.k(*a) | self.k(*b);
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(a.0), Tok::K(b.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::KClearFrom { dst, src, stop } => {
                let cleared = match (self.k(*stop) & self.k(*src)).first_set() {
                    Some(lane) => self.k(*src) & Mask::prefix_before(lane),
                    None => self.k(*src),
                };
                self.kregs[dst.0 as usize] = cleared;
                // Emulation sequence: ~2 mask µops.
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(src.0), Tok::K(stop.0)],
                    Some(Tok::K(dst.0)),
                ));
                sink.emit(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(dst.0)],
                    Some(Tok::K(dst.0)),
                ));
            }
            VOp::Reduce { op, dst, mask, src } => {
                let identity = reduce_identity(*op);
                let value = self
                    .v(*src)
                    .reduce(self.k(*mask), identity, |a, b| op.eval(a, b));
                self.vregs[dst.0 as usize] = Vector::splat(value);
                sink.emit(Uop::reg(
                    UopClass::Reduce,
                    vec![Tok::K(mask.0), Tok::V(src.0)],
                    Some(Tok::V(dst.0)),
                ));
            }
            VOp::MemRead {
                dst,
                mask,
                array,
                idx,
                unit,
                first_faulting,
                out_mask,
            } => {
                let k = self.k(*mask);
                let addrs = self.addrs(array.0, self.v(*idx));
                let touched: Vec<u64> = k.iter_set().map(|l| addrs.lane(l) as u64).collect();
                let class = match (unit, first_faulting) {
                    (true, false) => UopClass::VecLoad,
                    (false, false) => UopClass::Gather,
                    (true, true) => UopClass::VecLoadFF,
                    (false, true) => UopClass::GatherFF,
                };
                let mut srcs = vec![Tok::K(mask.0), Tok::V(idx.0)];
                if *first_faulting {
                    let om = out_mask.expect("FF read has an output mask");
                    match vgather_ff(mem, k, self.v(*dst), addrs) {
                        Ok(res) => {
                            self.vregs[dst.0 as usize] = res.value;
                            self.kregs[om.0 as usize] = res.mask;
                        }
                        Err(_) => {
                            // A fault on the non-speculative lane: handle
                            // it like a clip — the scalar fallback decides
                            // whether the access really happens.
                            sink.emit(Uop::mem(class, srcs, Some(Tok::V(dst.0)), touched));
                            return Err(ChunkAbort::Clipped);
                        }
                    }
                    srcs.push(Tok::V(dst.0));
                    sink.emit(Uop::mem(class, srcs, Some(Tok::V(dst.0)), touched));
                } else {
                    let mut out = self.v(*dst);
                    for lane in k.iter_set() {
                        out[lane] = mem.load_lane(addrs.lane(lane) as u64)?;
                    }
                    self.vregs[dst.0 as usize] = out;
                    sink.emit(Uop::mem(class, srcs, Some(Tok::V(dst.0)), touched));
                }
            }
            VOp::MemWrite {
                mask,
                array,
                idx,
                src,
                unit,
            } => {
                let k = self.k(*mask);
                let addrs = self.addrs(array.0, self.v(*idx));
                let values = self.v(*src);
                let touched: Vec<u64> = k.iter_set().map(|l| addrs.lane(l) as u64).collect();
                let class = if *unit {
                    UopClass::VecStore
                } else {
                    UopClass::Scatter
                };
                sink.emit(Uop::mem(
                    class,
                    vec![Tok::K(mask.0), Tok::V(idx.0), Tok::V(src.0)],
                    None,
                    touched,
                ));
                if k.any() {
                    self.chunk_stores = true;
                }
                for lane in k.iter_set() {
                    mem.store_lane(addrs.lane(lane) as u64, values.lane(lane))?;
                }
            }
        }
        Ok(())
    }

    /// Sets up the reserved chunk registers.
    fn begin_chunk(&mut self, base: i64, lanes: usize, sink: &mut dyn TraceSink) {
        self.vregs[VProg::IV.0 as usize] = Vector::from_fn(|i| base.wrapping_add(i as i64));
        self.kregs[VProg::K_LOOP.0 as usize] = Mask::first_n(lanes);
        self.exit_mask = Mask::EMPTY;
        self.chunk_stores = false;
        self.stats.chunks += 1;
        for uop in &self.chunk_uops {
            sink.observe(uop);
        }
    }
}

pub(crate) fn apply_bin(op: BinOp, a: Vector, b: Vector) -> Vector {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => a.div(b),
        BinOp::Rem => a.rem(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Shl => a.shl(b),
        BinOp::Shr => a.shr(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

pub(crate) fn bin_class(op: BinOp) -> UopClass {
    match op {
        BinOp::Mul => UopClass::VecMul,
        BinOp::Div | BinOp::Rem => UopClass::VecDiv,
        _ => UopClass::VecAlu,
    }
}

pub(crate) fn cmp_op(pred: flexvec_ir::CmpKind) -> CmpOp {
    match pred {
        flexvec_ir::CmpKind::Eq => CmpOp::Eq,
        flexvec_ir::CmpKind::Ne => CmpOp::Ne,
        flexvec_ir::CmpKind::Lt => CmpOp::Lt,
        flexvec_ir::CmpKind::Le => CmpOp::Le,
        flexvec_ir::CmpKind::Gt => CmpOp::Gt,
        flexvec_ir::CmpKind::Ge => CmpOp::Ge,
    }
}

pub(crate) fn reduce_identity(op: BinOp) -> i64 {
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => 0,
        BinOp::Mul => 1,
        BinOp::And => -1,
        BinOp::Min => i64::MAX,
        BinOp::Max => i64::MIN,
        _ => 0,
    }
}

/// The chunk-body executor a driver runs: either the `VNode` tree walker
/// or the flat bytecode engine.
enum EngineBody<'a> {
    Tree(&'a VProg),
    Compiled(&'a CompiledVProg, &'a mut ExecScratch),
}

impl EngineBody<'_> {
    fn run_chunk<M: LaneMemory>(
        &mut self,
        exec: &mut VecExec,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        match self {
            EngineBody::Tree(vprog) => exec.run_nodes(&vprog.body, mem, sink),
            EngineBody::Compiled(compiled, st) => compiled.run_chunk(st, exec, mem, sink),
        }
    }
}

/// Runs a vectorized loop to completion with the default (compiled)
/// engine.
///
/// # Errors
///
/// Propagates unguarded faults, VPL divergence (a code-generation bug —
/// never expected), and internal inconsistencies.
pub fn run_vector(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
) -> Result<(RunResult, VectorStats), ExecError> {
    run_vector_with_engine(program, vprog, mem, bindings, sink, Engine::default())
}

/// Runs a vectorized loop with an explicit [`Engine`].
///
/// # Errors
///
/// As [`run_vector`].
pub fn run_vector_with_engine(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    engine: Engine,
) -> Result<(RunResult, VectorStats), ExecError> {
    with_engine_body(vprog, engine, |body| {
        run_with_body(program, vprog, mem, bindings, sink, body, None)
    })
}

/// Runs `f` on the [`EngineBody`] for `engine`: the tree itself, or
/// `vprog` compiled for this one call (with native code attached for
/// [`Engine::Native`] where the JIT accepts it) and a fresh scratch.
fn with_engine_body<R>(vprog: &VProg, engine: Engine, f: impl FnOnce(&mut EngineBody) -> R) -> R {
    match engine {
        Engine::TreeWalking => f(&mut EngineBody::Tree(vprog)),
        Engine::Compiled | Engine::Native => {
            let mut compiled = CompiledVProg::compile(vprog);
            if engine == Engine::Native {
                // Falls back to pure bytecode when unsupported.
                compiled.enable_native();
            }
            let mut scratch = compiled.scratch();
            f(&mut EngineBody::Compiled(&compiled, &mut scratch))
        }
    }
}

/// Runs a vectorized loop through an already-compiled program, so callers
/// that execute the same `VProg` many times (the bench driver, the
/// simulator sweeps, the front end's compile cache) pay the flattening
/// cost once. The compiled program is read-only and can be shared across
/// threads; the caller provides the per-run [`ExecScratch`]
/// ([`CompiledVProg::scratch`]), so a hot loop over invocations that
/// reuses one allocates nothing per run.
///
/// # Errors
///
/// As [`run_vector`].
pub fn run_vector_precompiled_with_scratch(
    program: &Program,
    vprog: &VProg,
    compiled: &CompiledVProg,
    scratch: &mut ExecScratch,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
) -> Result<(RunResult, VectorStats), ExecError> {
    run_vector_precompiled_cancellable(program, vprog, compiled, scratch, mem, bindings, sink, None)
}

/// [`run_vector_precompiled_with_scratch`] with a cooperative
/// [`CancelToken`](crate::CancelToken), polled at every chunk (and RTM
/// tile) boundary — the serving layer's per-request deadline hook.
///
/// # Errors
///
/// As [`run_vector`], plus [`ExecError::Cancelled`] when the token
/// fires mid-run. A cancelled run makes no guarantee about partial
/// memory effects — callers must discard the address space.
#[allow(clippy::too_many_arguments)]
pub fn run_vector_precompiled_cancellable(
    program: &Program,
    vprog: &VProg,
    compiled: &CompiledVProg,
    scratch: &mut ExecScratch,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    cancel: Option<&crate::CancelToken>,
) -> Result<(RunResult, VectorStats), ExecError> {
    run_with_body(
        program,
        vprog,
        mem,
        bindings,
        sink,
        &mut EngineBody::Compiled(compiled, scratch),
        cancel,
    )
}

fn run_with_body(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    body: &mut EngineBody,
    cancel: Option<&crate::CancelToken>,
) -> Result<(RunResult, VectorStats), ExecError> {
    match vprog.spec_mode {
        SpecMode::Rtm { tile } => run_rtm(program, vprog, mem, bindings, tile, sink, body, cancel),
        SpecMode::None | SpecMode::FirstFaulting => {
            run_ff(program, vprog, mem, bindings, sink, false, body, cancel)
        }
    }
}

/// Runs a vectorized loop in *all-or-nothing* speculation mode under an
/// explicit [`Engine`]: the chunk executes vector code only when no
/// relaxed dependency fires; any detected dependency (a second VPL
/// partition or an early exit) rolls the whole chunk back to scalar
/// execution. This models the PACT'13-style speculative vectorization the paper compares against in
/// Section 2 ("if the condition is true for even only one of the lanes,
/// execution falls back to scalar code").
///
/// Only loops whose VPL commits no stores are supported (the rollback
/// must not double-commit memory); this covers the conditional-update
/// pattern, which is exactly the domain of that prior technique.
///
/// # Errors
///
/// Fails with [`ExecError::Internal`] for loops with stores inside the
/// VPL; otherwise as [`run_vector`].
pub fn run_all_or_nothing_with_engine(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    engine: Engine,
) -> Result<(RunResult, VectorStats), ExecError> {
    fn vpl_has_store(nodes: &[VNode]) -> bool {
        nodes.iter().any(|n| match n {
            VNode::Vpl { body, .. } => {
                fn any_store(nodes: &[VNode]) -> bool {
                    nodes.iter().any(|n| match n {
                        VNode::Op(VOp::MemWrite { .. }) => true,
                        VNode::Vpl { body, .. } => any_store(body),
                        _ => false,
                    })
                }
                any_store(body)
            }
            _ => false,
        })
    }
    if vpl_has_store(&vprog.body) {
        return Err(ExecError::Internal(
            "all-or-nothing mode cannot roll back stores inside a VPL".to_owned(),
        ));
    }
    with_engine_body(vprog, engine, |body| {
        run_ff(program, vprog, mem, bindings, sink, true, body, None)
    })
}

fn loop_bounds(program: &Program, exec: &VecExec) -> (i64, i64) {
    let machine_vars = &exec.vars;
    let eval = |e: &flexvec_ir::Expr| -> i64 {
        fn go(e: &flexvec_ir::Expr, vars: &[i64]) -> i64 {
            match e {
                flexvec_ir::Expr::Const(v) => *v,
                flexvec_ir::Expr::Var(v) => vars[v.0 as usize],
                flexvec_ir::Expr::Bin { op, lhs, rhs } => op.eval(go(lhs, vars), go(rhs, vars)),
                flexvec_ir::Expr::Cmp { op, lhs, rhs } => {
                    op.eval(go(lhs, vars), go(rhs, vars)) as i64
                }
                flexvec_ir::Expr::Not(inner) => (go(inner, vars) == 0) as i64,
                flexvec_ir::Expr::Load { .. } => unreachable!("bounds do not load"),
            }
        }
        go(e, machine_vars)
    };
    (eval(&program.loop_.start), eval(&program.loop_.end))
}

/// Refuses to run a program at an ambient vector length wider than its
/// analysis-proven ceiling. A too-wide chunk could step over a carried
/// dependence the classifier relied on, so this must stay a clean error.
fn check_width(vprog: &VProg) -> Result<(), ExecError> {
    let vl = vlen();
    if vl > vprog.max_vl {
        return Err(ExecError::UnsupportedWidth {
            vl,
            max_vl: vprog.max_vl,
        });
    }
    Ok(())
}

/// First-faulting (or speculation-free) execution.
#[allow(clippy::too_many_arguments)]
fn run_ff(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    aon: bool,
    body: &mut EngineBody,
    cancel: Option<&crate::CancelToken>,
) -> Result<(RunResult, VectorStats), ExecError> {
    check_width(vprog)?;
    let vl = vlen();
    let mut exec = VecExec::new(program, vprog, &bindings, mem);
    exec.aon = aon;
    // One scalar machine for every fallback of this run; `reset_to`
    // restores the fresh-machine trace state (rename map, temp counter).
    let mut machine = ScalarMachine::new(program, bindings);
    let (start, end) = loop_bounds(program, &exec);
    let mut base = start;
    let mut broke = false;
    let mut final_i = end.max(start);
    let mut iterations = 0u64;

    'chunks: while base < end {
        if crate::cancel::cancelled(cancel) {
            return Err(ExecError::Cancelled);
        }
        let lanes = usize::try_from((end - base).min(vl as i64)).expect("bounded by vl");
        exec.checkpoint_vars();
        exec.begin_chunk(base, lanes, sink);
        let fall_back = match body.run_chunk(&mut exec, mem, sink) {
            Ok(()) => {
                if exec.exit_mask.any() {
                    let lane = exec.exit_mask.first_set().expect("nonempty");
                    broke = true;
                    final_i = base + lane as i64;
                    iterations += lane as u64 + 1;
                    break 'chunks;
                }
                iterations += lanes as u64;
                false
            }
            Err(ChunkAbort::Clipped) => true,
            Err(ChunkAbort::Fault(f)) => return Err(ExecError::Fault(f)),
            Err(ChunkAbort::Divergence) => {
                // A stalled VPL (a partition that retired no lanes)
                // falls back to scalar execution of the chunk so the
                // loop still makes forward progress — but only while
                // no store of this chunk has reached memory; re-running
                // a chunk whose stores already landed would apply them
                // twice.
                if exec.chunk_stores {
                    return Err(ExecError::VplDivergence);
                }
                true
            }
        };
        if fall_back {
            // Scalar fallback for the whole chunk, from the
            // chunk-entry state.
            exec.stats.ff_fallbacks += 1;
            exec.rollback_vars();
            machine.reset_to(&exec.vars);
            for lane in 0..lanes {
                let i = base + lane as i64;
                match machine.step(i, mem, sink).map_err(ExecError::Fault)? {
                    StepOutcome::Continue => iterations += 1,
                    StepOutcome::Break => {
                        broke = true;
                        final_i = i;
                        iterations += 1;
                        std::mem::swap(&mut exec.vars, &mut machine.vars);
                        break 'chunks;
                    }
                }
            }
            std::mem::swap(&mut exec.vars, &mut machine.vars);
        }
        base += vl as i64;
    }

    exec.vars[program.loop_.induction.0 as usize] = final_i;
    exec.stats.broke = broke;
    let stats = exec.stats;
    Ok((
        RunResult {
            vars: exec.vars,
            iterations,
            broke,
        },
        stats,
    ))
}

/// RTM execution: strip-mined tiles inside rollback-only transactions.
#[allow(clippy::too_many_arguments)]
fn run_rtm(
    program: &Program,
    vprog: &VProg,
    mem: &mut AddressSpace,
    bindings: Bindings,
    tile: u32,
    sink: &mut dyn TraceSink,
    body: &mut EngineBody,
    cancel: Option<&crate::CancelToken>,
) -> Result<(RunResult, VectorStats), ExecError> {
    check_width(vprog)?;
    let vl = vlen();
    let tile = tile.max(vl as u32) as i64;
    let mut exec = VecExec::new(program, vprog, &bindings, mem);
    let mut machine = ScalarMachine::new(program, bindings);
    let (start, end) = loop_bounds(program, &exec);
    let mut base = start;
    let mut broke = false;
    let mut final_i = end.max(start);
    let mut iterations = 0u64;

    'tiles: while base < end {
        if crate::cancel::cancelled(cancel) {
            return Err(ExecError::Cancelled);
        }
        let tile_end = (base + tile).min(end);
        exec.checkpoint_vars();
        let stats_snapshot = exec.stats;

        // Attempt the tile transactionally.
        let attempt = {
            let mut txn = Transaction::begin(mem);
            sink.emit(Uop::reg(UopClass::TxBegin, vec![], None));
            let mut chunk = base;
            let mut outcome = Ok(None);
            while chunk < tile_end {
                let lanes = usize::try_from((tile_end - chunk).min(vl as i64)).expect("bounded");
                exec.begin_chunk(chunk, lanes, sink);
                match body.run_chunk(&mut exec, &mut txn, sink) {
                    Ok(()) => {
                        if exec.exit_mask.any() {
                            let lane = exec.exit_mask.first_set().expect("nonempty");
                            outcome = Ok(Some((chunk + lane as i64, lanes, chunk)));
                            break;
                        }
                    }
                    Err(ChunkAbort::Clipped) => {
                        outcome = Err(ChunkAbort::Clipped);
                        break;
                    }
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
                chunk += vl as i64;
            }
            match outcome {
                Ok(exit) => {
                    txn.commit();
                    sink.emit(Uop::reg(UopClass::TxEnd, vec![], None));
                    Ok((exit, chunk))
                }
                Err(e) => {
                    txn.abort();
                    Err(e)
                }
            }
        };

        match attempt {
            Ok((None, _)) => {
                exec.stats.rtm_commits += 1;
                iterations += (tile_end - base) as u64;
            }
            Ok((Some((exit_i, _, exit_chunk)), _)) => {
                exec.stats.rtm_commits += 1;
                broke = true;
                final_i = exit_i;
                iterations += (exit_chunk - base) as u64 + (exit_i - exit_chunk) as u64 + 1;
                break 'tiles;
            }
            Err(_) => {
                // Abort (clip, fault, or a stalled VPL): the transaction
                // has already been rolled back, so even a divergent tile
                // with committed-in-txn stores re-runs safely — restore
                // and run the tile in scalar mode against real memory.
                exec.stats = stats_snapshot;
                exec.stats.rtm_aborts += 1;
                exec.rollback_vars();
                machine.reset_to(&exec.vars);
                let mut i = base;
                while i < tile_end {
                    match machine.step(i, mem, sink).map_err(ExecError::Fault)? {
                        StepOutcome::Continue => iterations += 1,
                        StepOutcome::Break => {
                            broke = true;
                            final_i = i;
                            iterations += 1;
                            std::mem::swap(&mut exec.vars, &mut machine.vars);
                            break 'tiles;
                        }
                    }
                    i += 1;
                }
                std::mem::swap(&mut exec.vars, &mut machine.vars);
            }
        }
        base = tile_end;
    }

    exec.vars[program.loop_.induction.0 as usize] = final_i;
    exec.stats.broke = broke;
    let stats = exec.stats;
    Ok((
        RunResult {
            vars: exec.vars,
            iterations,
            broke,
        },
        stats,
    ))
}
