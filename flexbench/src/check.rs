//! Output checks, run after the timed phase so they do not compete
//! with the system under test for the cores.
//!
//! The oracle is the scalar interpreter: `run_scalar` on the same loop
//! program and input arrays the request carried, invoked as many times
//! on one memory image as the daemon invokes it. A daemon reply is
//! correct when it is `ok` and its `live_outs` equal the oracle's
//! exactly.

use std::collections::BTreeMap;

use flexvec_ir::Program;
use flexvec_mem::AddressSpace;
use flexvec_serve::json;
use flexvec_vm::{run_scalar, Bindings, CountingSink, RunResult};

/// Live-out values by variable name.
pub type LiveOuts = BTreeMap<String, i64>;

/// A fresh memory image holding `arrays`, bound positionally to
/// `program`'s array symbols, as the daemon and `evaluate` build it.
pub fn memory(program: &Program, arrays: &[Vec<i64>]) -> (AddressSpace, Bindings) {
    let mut mem = AddressSpace::new();
    let ids = arrays
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", program.name), data))
        .collect();
    (mem, Bindings::new(ids))
}

/// `program`'s live-out values at the end of `run`.
pub fn live_outs(program: &Program, run: &RunResult) -> LiveOuts {
    program
        .live_out
        .iter()
        .map(|v| (program.var_name(*v).to_owned(), run.var(*v)))
        .collect()
}

/// The scalar interpreter's live-outs after `invocations` runs of
/// `program` over `arrays`.
///
/// # Errors
///
/// A scalar execution fault, rendered as text.
pub fn oracle(
    program: &Program,
    arrays: &[Vec<i64>],
    invocations: u64,
) -> Result<LiveOuts, String> {
    let (mut mem, bind) = memory(program, arrays);
    let mut sink = CountingSink::default();
    let mut last = None;
    for _ in 0..invocations.max(1) {
        last = Some(
            run_scalar(program, &mut mem, bind.clone(), &mut sink)
                .map_err(|e| format!("scalar oracle failed: {e}"))?,
        );
    }
    Ok(live_outs(program, &last.expect("at least one invocation")))
}

/// Checks one daemon reply line against the oracle's live-outs.
///
/// # Errors
///
/// What was wrong with the reply.
pub fn check_reply(reply: &str, expected: &LiveOuts) -> Result<(), String> {
    let value = json::parse(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    if value.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("not ok: {reply:.300}"));
    }
    let Some(json::Json::Obj(live)) = value.get("live_outs") else {
        return Err(format!("reply has no live_outs: {reply:.300}"));
    };
    let got: Option<LiveOuts> = live
        .iter()
        .map(|(k, v)| v.as_i64().map(|v| (k.clone(), v)))
        .collect();
    match got {
        Some(got) if &got == expected => Ok(()),
        Some(got) => Err(format!("live-outs {got:?}, oracle says {expected:?}")),
        None => Err(format!("non-integer live-out in {reply:.300}")),
    }
}

/// A field of a reply, for the set-up loop that watches the tier.
pub fn reply_field(reply: &str, key: &str) -> Option<String> {
    let value = json::parse(reply).ok()?;
    value.get(key).map(|v| match v.as_str() {
        Some(s) => s.to_owned(),
        None => v.to_string(),
    })
}

/// Failures counted against the attempts, with the first case kept
/// for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport, non-`ok`, or wrong output).
    pub failed: u64,
    /// The first failure, described.
    pub first: Option<String>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.first.is_none() {
                self.first = Some(format!("{}: {e}", what()));
            }
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}
