//! # flexvec-vm
//!
//! The execution engine of the FlexVec reproduction:
//!
//! * [`run_scalar`] — the scalar reference interpreter (also the
//!   evaluation baseline: the paper's baseline compiler leaves FlexVec
//!   candidate loops scalar);
//! * [`run_vector`] — the [`VProg`](flexvec::VProg) executor with chunked
//!   vector iteration, Vector Partitioning Loop execution, first-faulting
//!   fallback to scalar code, and the strip-mined RTM transaction runtime;
//! * [`Uop`] traces ([`TraceSink`]) consumed by the `flexvec-sim` timing
//!   model.
//!
//! The central correctness property — checked extensively in this crate's
//! tests and the workspace integration tests — is that for every loop the
//! scalar and vector executions agree on final memory and live-out
//! scalars.

// `deny` rather than `forbid`: the crate is unsafe-free except for the
// `jit` module, which needs `unsafe` for the executable-page syscalls
// and for calling the machine code it emitted, and carries a scoped
// `allow` plus the safety argument in its docs.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod compiled;
#[allow(unsafe_code)]
mod jit;
mod scalar;
mod serial;
mod trace;
mod vector;

pub use cancel::{CancelToken, SCALAR_CANCEL_STRIDE};
pub use compiled::{CompiledVProg, ExecScratch, NativeVariants};
pub use jit::native_supported;
pub use scalar::{
    run_scalar, run_scalar_cancellable, Bindings, ExecError, RunResult, ScalarMachine, StepOutcome,
};
pub use serial::{
    deserialize_compiled, serialize_compiled, SerialError, SerialLimits, SERIAL_VERSION,
};
pub use trace::{CountingSink, Tok, TraceSink, Uop, UopClass, VecSink, TEMP_BASE};
pub use vector::{
    run_all_or_nothing_with_engine, run_vector, run_vector_precompiled_cancellable,
    run_vector_precompiled_with_scratch, run_vector_with_engine, Engine, VectorStats,
};
