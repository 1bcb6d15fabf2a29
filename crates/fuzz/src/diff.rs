//! The differential check: one case, every execution path.
//!
//! The scalar interpreter is the oracle. Each speculation mode that the
//! vectorizer accepts runs under the tree-walking engine, the compiled
//! engine, and — on hosts with the x86-64 back end — the native JIT
//! tier, at **every supported vector length** (8, 16, 32, 64), and
//! every observable — live-out scalars, the induction exit value, the
//! break flag, the iteration count, and final memory — must equal the
//! oracle's. At each width the engines must additionally be
//! bit-identical to each other (statistics and full µop traces). A
//! width above the program's analysis-proven ceiling (`VProg::max_vl`)
//! must be a clean [`flexvec_vm::ExecError::UnsupportedWidth`] refusal
//! from every engine — silently executing past the ceiling, or failing
//! with any other error, is a divergence. When a compile cache is
//! supplied the case also round-trips through the `.fv` printer/parser
//! and the cached-vs-fresh compile path.

use std::sync::Arc;

use flexvec::{vectorize, SpecRequest, VProg};
use flexvec_front::{parse_str, to_fv_kernel, CompileCache};
use flexvec_isa::{with_vlen, SUPPORTED_VLENS};
use flexvec_mem::{AddressSpace, ArrayId};
use flexvec_vm::{
    deserialize_compiled, native_supported, run_scalar, run_vector_precompiled_with_scratch,
    run_vector_with_engine, serialize_compiled, Bindings, CountingSink, Engine, ExecError,
    RunResult, SerialLimits, Uop, VecSink, VectorStats,
};

use crate::explicit_inputs;
use crate::gen::FuzzCase;

/// Every speculation mode the checker exercises, with its display name.
pub const SPECS: [(&str, SpecRequest); 4] = [
    ("ff", SpecRequest::Auto),
    ("rtm:16", SpecRequest::Rtm { tile: 16 }),
    ("rtm:64", SpecRequest::Rtm { tile: 64 }),
    ("rtm:256", SpecRequest::Rtm { tile: 256 }),
];

/// What to check beyond the engine × spec matrix.
pub struct CheckConfig<'a> {
    /// When set, also run the front-end round-trip and the
    /// cached-vs-fresh compile path through this cache.
    pub front_end: Option<&'a CompileCache>,
    /// Mutation-testing hook: applied to each vectorized program before
    /// execution. Returns whether the mutation applied; specs where it
    /// does not apply are skipped. Divergences then demonstrate the
    /// harness catches that class of codegen bug.
    pub mutate: Option<&'a dyn Fn(&mut VProg) -> bool>,
}

/// A detected disagreement between two execution paths.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which path disagreed (e.g. `ff/compiled`, `front/reparse`).
    pub config: String,
    /// Expected-vs-actual description.
    pub detail: String,
}

/// Work accounting for a clean check.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckStats {
    /// Vector executions performed and compared against the oracle.
    pub vector_runs: u64,
    /// Spec modes the vectorizer (legitimately) rejected for this case.
    pub rejected_specs: u64,
    /// (spec, width) combinations above the program's width ceiling
    /// that every engine cleanly refused with `UnsupportedWidth`.
    pub rejected_widths: u64,
}

fn diverged<T>(config: &str, detail: String) -> Result<T, Divergence> {
    Err(Divergence {
        config: config.to_owned(),
        detail,
    })
}

fn bind(case: &FuzzCase, mem: &mut AddressSpace) -> Vec<ArrayId> {
    case.arrays
        .iter()
        .enumerate()
        .map(|(i, d)| mem.alloc_from(&format!("a{i}"), d))
        .collect()
}

struct Oracle {
    result: RunResult,
    memory: Vec<Vec<i64>>,
}

struct VectorRun {
    result: RunResult,
    stats: VectorStats,
    memory: Vec<Vec<i64>>,
    uops: Vec<Uop>,
}

fn run_oracle(case: &FuzzCase) -> Result<Oracle, Divergence> {
    let mut mem = AddressSpace::new();
    let ids = bind(case, &mut mem);
    let mut sink = CountingSink::default();
    match run_scalar(
        &case.program,
        &mut mem,
        Bindings::new(ids.clone()),
        &mut sink,
    ) {
        Ok(result) => Ok(Oracle {
            result,
            memory: ids.iter().map(|id| mem.snapshot_array(*id)).collect(),
        }),
        Err(e) => diverged("scalar", format!("scalar reference failed: {e:?}")),
    }
}

fn run_engine(case: &FuzzCase, vprog: &VProg, engine: Engine) -> Result<VectorRun, ExecError> {
    let mut mem = AddressSpace::new();
    let ids = bind(case, &mut mem);
    let mut sink = VecSink::default();
    let (result, stats) = run_vector_with_engine(
        &case.program,
        vprog,
        &mut mem,
        Bindings::new(ids.clone()),
        &mut sink,
        engine,
    )?;
    Ok(VectorRun {
        result,
        stats,
        memory: ids.iter().map(|id| mem.snapshot_array(*id)).collect(),
        uops: sink.uops,
    })
}

fn compare_to_oracle(
    case: &FuzzCase,
    config: &str,
    oracle: &Oracle,
    result: &RunResult,
    memory: &[Vec<i64>],
) -> Result<(), Divergence> {
    let p = &case.program;
    for v in &p.live_out {
        let (want, got) = (oracle.result.var(*v), result.var(*v));
        if want != got {
            return diverged(
                config,
                format!("live-out `{}`: expected {want}, got {got}", p.var_name(*v)),
            );
        }
    }
    let ind = p.loop_.induction;
    if oracle.result.var(ind) != result.var(ind) {
        return diverged(
            config,
            format!(
                "induction `{}` exit value: expected {}, got {}",
                p.var_name(ind),
                oracle.result.var(ind),
                result.var(ind)
            ),
        );
    }
    if oracle.result.broke != result.broke {
        return diverged(
            config,
            format!(
                "break flag: expected {}, got {}",
                oracle.result.broke, result.broke
            ),
        );
    }
    if oracle.result.iterations != result.iterations {
        return diverged(
            config,
            format!(
                "iteration count: expected {}, got {}",
                oracle.result.iterations, result.iterations
            ),
        );
    }
    for (a, (want, got)) in oracle.memory.iter().zip(memory).enumerate() {
        if let Some(idx) = (0..want.len()).find(|&i| want[i] != got[i]) {
            return diverged(
                config,
                format!(
                    "memory `{}`[{idx}]: expected {}, got {}",
                    p.arrays[a].name, want[idx], got[idx]
                ),
            );
        }
    }
    Ok(())
}

fn compare_engines(config: &str, tree: &VectorRun, other: &VectorRun) -> Result<(), Divergence> {
    if tree.stats != other.stats {
        return diverged(
            config,
            format!(
                "engine statistics differ: tree {:?}, other {:?}",
                tree.stats, other.stats
            ),
        );
    }
    if tree.uops != other.uops {
        let idx = tree
            .uops
            .iter()
            .zip(&other.uops)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| tree.uops.len().min(other.uops.len()));
        return diverged(
            config,
            format!(
                "µop traces differ at index {idx} (tree {} µops, other {} µops)",
                tree.uops.len(),
                other.uops.len()
            ),
        );
    }
    Ok(())
}

/// The engine matrix: the native tier joins on hosts that have it.
fn engine_matrix() -> Vec<(&'static str, Engine)> {
    let mut engines = vec![
        ("tree", Engine::TreeWalking),
        ("compiled", Engine::Compiled),
    ];
    if native_supported() {
        engines.push(("native", Engine::Native));
    }
    engines
}

fn check_front_end(
    case: &FuzzCase,
    cache: &CompileCache,
    oracle: &Oracle,
) -> Result<u64, Divergence> {
    // Print → reparse: the canonical text must reproduce the exact AST
    // and the exact input data.
    let inputs = explicit_inputs(case);
    let text = to_fv_kernel(&case.program, &inputs);
    let parsed = match parse_str("<fuzz>", &text) {
        Ok(parsed) => parsed,
        Err(d) => {
            return diverged(
                "front/reparse",
                format!("canonical text does not reparse: {}", d.render(&text)),
            )
        }
    };
    if parsed.program != case.program {
        return diverged(
            "front/reparse",
            "printed text reparsed to a different AST".to_owned(),
        );
    }
    if parsed.materialize_arrays() != case.arrays {
        return diverged(
            "front/reparse",
            "printed inputs materialized to different data".to_owned(),
        );
    }

    // Fresh vs cached compile: the second submission must be a shared
    // hit, and executing the cached plan must agree with the oracle.
    let (first, _) = cache.get_or_compile(&case.program, SpecRequest::Auto);
    let (second, hit) = cache.get_or_compile(&case.program, SpecRequest::Auto);
    if !hit || !Arc::ptr_eq(&first, &second) {
        return diverged(
            "front/cache",
            "second submission was not a shared cache hit".to_owned(),
        );
    }
    let Ok(plan) = &second.plan else {
        return Ok(0);
    };
    // The front-end paths run at the ambient width (e.g. `flexvecc
    // fuzz --vl 32`). Past this kernel's proven ceiling the cached
    // plan must refuse cleanly, exactly like the engine matrix.
    if flexvec_isa::vlen() > plan.vectorized.vprog.max_vl {
        let mut mem = AddressSpace::new();
        let ids = bind(case, &mut mem);
        let mut sink = VecSink::default();
        return match run_vector_precompiled_with_scratch(
            &case.program,
            &plan.vectorized.vprog,
            &plan.compiled,
            &mut plan.compiled.scratch(),
            &mut mem,
            Bindings::new(ids),
            &mut sink,
        ) {
            Err(ExecError::UnsupportedWidth { .. }) => Ok(0),
            Ok(_) => diverged(
                "front/cache",
                format!(
                    "cached plan executed at vl {} past the ceiling {} instead of refusing",
                    flexvec_isa::vlen(),
                    plan.vectorized.vprog.max_vl
                ),
            ),
            Err(e) => diverged(
                "front/cache",
                format!("expected a clean UnsupportedWidth refusal past the ceiling, got {e:?}"),
            ),
        };
    }
    let mut mem = AddressSpace::new();
    let ids = bind(case, &mut mem);
    let mut sink = VecSink::default();
    let cached = match run_vector_precompiled_with_scratch(
        &case.program,
        &plan.vectorized.vprog,
        &plan.compiled,
        &mut plan.compiled.scratch(),
        &mut mem,
        Bindings::new(ids.clone()),
        &mut sink,
    ) {
        Ok((result, stats)) => {
            let memory: Vec<Vec<i64>> = ids.iter().map(|id| mem.snapshot_array(*id)).collect();
            compare_to_oracle(case, "front/cache", oracle, &result, &memory)?;
            VectorRun {
                result,
                stats,
                memory,
                uops: sink.uops,
            }
        }
        Err(e) => {
            return diverged(
                "front/cache",
                format!("cached plan failed where the scalar reference succeeded: {e:?}"),
            )
        }
    };

    // Serialize → deserialize → execute: the persistent-cache wire
    // format must reproduce a `CompiledVProg` whose execution is
    // trace-identical to the in-memory original, not merely
    // result-equal — the daemon swaps restored snapshots in for fresh
    // compiles, so any drift here is silent behavior skew in prod.
    let bytes = serialize_compiled(&plan.compiled);
    let limits = SerialLimits {
        vregs: plan.vectorized.vprog.num_vregs as usize,
        kregs: plan.vectorized.vprog.num_kregs as usize,
        vars: case.program.vars.len(),
        arrays: case.program.arrays.len(),
    };
    let restored = match deserialize_compiled(&bytes, &limits) {
        Ok(restored) => restored,
        Err(e) => {
            return diverged(
                "front/serial",
                format!("own serialization failed to deserialize: {e:?}"),
            )
        }
    };
    let mut mem = AddressSpace::new();
    let ids = bind(case, &mut mem);
    let mut sink = VecSink::default();
    match run_vector_precompiled_with_scratch(
        &case.program,
        &plan.vectorized.vprog,
        &restored,
        &mut restored.scratch(),
        &mut mem,
        Bindings::new(ids.clone()),
        &mut sink,
    ) {
        Ok((result, stats)) => {
            let memory: Vec<Vec<i64>> = ids.iter().map(|id| mem.snapshot_array(*id)).collect();
            compare_to_oracle(case, "front/serial", oracle, &result, &memory)?;
            let run = VectorRun {
                result,
                stats,
                memory,
                uops: sink.uops,
            };
            compare_engines("front/cache-vs-serial", &cached, &run)?;
            Ok(2)
        }
        Err(e) => diverged(
            "front/serial",
            format!("round-tripped plan failed where the scalar reference succeeded: {e:?}"),
        ),
    }
}

/// Runs one vectorized program through the full engine matrix at one
/// ambient vector length (the caller has already set it) and
/// cross-checks every engine against the oracle and each other.
///
/// Above the program's width ceiling every engine must refuse with
/// `UnsupportedWidth` — execution or any other error is a divergence.
fn check_at_width(
    case: &FuzzCase,
    oracle: &Oracle,
    spec_name: &str,
    vl: usize,
    vprog: &VProg,
    stats: &mut CheckStats,
) -> Result<(), Divergence> {
    let engines = engine_matrix();

    if vl > vprog.max_vl {
        for (engine_name, engine) in &engines {
            let config = format!("{spec_name}/vl{vl}/{engine_name}");
            match run_engine(case, vprog, *engine) {
                Ok(_) => {
                    return diverged(
                        &config,
                        format!(
                            "executed at vl {vl} past the kernel's width ceiling {} \
                             instead of refusing",
                            vprog.max_vl
                        ),
                    )
                }
                Err(ExecError::UnsupportedWidth { .. }) => {}
                Err(e) => {
                    return diverged(
                        &config,
                        format!(
                            "expected a clean UnsupportedWidth refusal at vl {vl} \
                             (ceiling {}), got {e:?}",
                            vprog.max_vl
                        ),
                    )
                }
            }
        }
        stats.rejected_widths += 1;
        return Ok(());
    }

    let mut runs: Vec<VectorRun> = Vec::with_capacity(engines.len());
    for (engine_name, engine) in &engines {
        let config = format!("{spec_name}/vl{vl}/{engine_name}");
        match run_engine(case, vprog, *engine) {
            Ok(run) => {
                compare_to_oracle(case, &config, oracle, &run.result, &run.memory)?;
                stats.vector_runs += 1;
                runs.push(run);
            }
            Err(e) => {
                return diverged(
                    &config,
                    format!("vector execution failed where the scalar reference succeeded: {e:?}"),
                )
            }
        }
    }
    for (i, run) in runs.iter().enumerate().skip(1) {
        compare_engines(
            &format!("{spec_name}/vl{vl}/tree-vs-{}", engines[i].0),
            &runs[0],
            run,
        )?;
    }
    Ok(())
}

/// Runs one case through every execution path and cross-checks them.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; `Ok` means every path agreed.
pub fn check_case(case: &FuzzCase, cfg: &CheckConfig<'_>) -> Result<CheckStats, Divergence> {
    let mut stats = CheckStats::default();
    let oracle = run_oracle(case)?;

    for (spec_name, spec) in SPECS {
        let Ok(vectorized) = vectorize(&case.program, spec) else {
            stats.rejected_specs += 1;
            continue;
        };
        let mut vprog = vectorized.vprog;
        if let Some(mutate) = cfg.mutate {
            if !mutate(&mut vprog) {
                continue;
            }
        }

        // The compiled artifact is width-independent; only execution
        // binds a lane count, so each width re-runs the same `vprog`.
        for vl in SUPPORTED_VLENS {
            with_vlen(vl, || {
                check_at_width(case, &oracle, spec_name, vl, &vprog, &mut stats)
            })?;
        }
    }

    if cfg.mutate.is_none() {
        if let Some(cache) = cfg.front_end {
            stats.vector_runs += check_front_end(case, cache, &oracle)?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    const NO_FRONT_END: CheckConfig<'_> = CheckConfig {
        front_end: None,
        mutate: None,
    };

    /// Generated cases sweep all four widths; every clean case must
    /// log at least one vector run per supported width for each spec
    /// the vectorizer accepted at full width.
    #[test]
    fn clean_cases_sweep_every_supported_width() {
        let mut widths_run = 0u64;
        for index in 0..20 {
            let case = generate(7, index);
            let stats = check_case(&case, &NO_FRONT_END).unwrap_or_else(|d| {
                panic!("case {index} diverged under {}: {}", d.config, d.detail)
            });
            widths_run += stats.vector_runs;
        }
        // 20 cases × ≥1 accepted spec × ≥2 engines × 4 widths.
        assert!(
            widths_run >= 160,
            "width sweep did not run enough matrix cells: {widths_run}"
        );
    }

    /// A carried RAW distance of exactly 16 proves widths 8 and 16 but
    /// refuses 32 and 64: those must count as clean width rejections,
    /// not divergences.
    #[test]
    fn over_ceiling_widths_are_clean_refusals() {
        let parsed = parse_str(
            "<dist16>",
            "kernel dist16;\n\
             var i = 0;\n\
             var t = 0;\n\
             array a[128] = seed 3;\n\
             live_out t;\n\
             for (i = 16; i < 128; i++) {\n\
               t = a[i - 16] + 1;\n\
               a[i] = t;\n\
             }\n",
        )
        .expect("dist16 parses");
        let case = FuzzCase {
            arrays: parsed.materialize_arrays(),
            program: parsed.program,
        };
        let stats = check_case(&case, &NO_FRONT_END)
            .unwrap_or_else(|d| panic!("diverged under {}: {}", d.config, d.detail));
        // Every spec the vectorizer accepts carries the same max_vl of
        // 16, so vl ∈ {32, 64} must each be refused per accepted spec.
        assert!(
            stats.rejected_widths >= 2,
            "expected over-ceiling refusals, got {stats:?}"
        );
        assert!(stats.vector_runs > 0, "widths 8 and 16 must still run");
    }
}
