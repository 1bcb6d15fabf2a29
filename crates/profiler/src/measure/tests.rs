use super::*;
use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::ProgramBuilder;

/// A conditional minimum that also copies `a` into `out`: one
/// live-out and one written array to disagree on.
fn min_and_copy() -> Program {
    let mut b = ProgramBuilder::new("min_and_copy");
    let i = b.var("i", 0);
    let best = b.var("best", i64::MAX);
    let a = b.array("a");
    let out = b.array("out");
    b.live_out(best);
    b.build_loop(
        i,
        c(0),
        c(64),
        vec![
            if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(best, ld(a, var(i)))],
            ),
            store(out, var(i), ld(a, var(i))),
        ],
    )
    .unwrap()
}

fn runs(program: &Program) -> (ScalarRun, VectorRun) {
    let arrays = vec![(0..64).map(|i| (i * 37) % 101).collect(), vec![0; 64]];
    let config = SimConfig::table1();
    let harness = Harness::new(program, &arrays, &config, 2);
    let vprog = vectorize(program, SpecRequest::Auto).unwrap().vprog;
    let code = CompiledVProg::compile(&vprog);
    let scalar = harness.scalar().unwrap();
    let vector = harness.vector(&vprog, Executor::Compiled(&code)).unwrap();
    (scalar, vector)
}

#[test]
fn agreeing_runs_verify() {
    let p = min_and_copy();
    let (scalar, vector) = runs(&p);
    assert_eq!(verify(&p, &scalar, &vector), Ok(()));
    assert_eq!(live_outs(&p, &vector.result), vec![("best".to_owned(), 0)]);
    assert_eq!(vector.throughput.label, "compiled");
    assert!(vector.throughput.uops > 0 && vector.cycles > 0);
    assert_eq!(vector.total.chunks, 2 * vector.stats.chunks);
}

#[test]
fn a_live_out_difference_is_named() {
    let p = min_and_copy();
    let (scalar, mut vector) = runs(&p);
    let best = p.live_out[0];
    vector.result.vars[best.0 as usize] += 1;
    let err = verify(&p, &scalar, &vector).unwrap_err();
    assert_eq!(
        err,
        Mismatch::LiveOut {
            name: "best".to_owned(),
            scalar: 0,
            vector: 1,
        }
    );
    assert_eq!(err.to_string(), "live-out best is 0 scalar vs 1 vector");
}

#[test]
fn a_one_element_array_difference_is_named() {
    let p = min_and_copy();
    let (scalar, mut vector) = runs(&p);
    let out = vector.bindings.array(1);
    let last = vector.mem.read_elem(out, 63).unwrap();
    vector.mem.write_elem(out, 63, last + 1).unwrap();
    let err = verify(&p, &scalar, &vector).unwrap_err();
    assert_eq!(
        err,
        Mismatch::Array {
            name: "out".to_owned()
        }
    );
    assert_eq!(err.to_string(), "array out differs");
}
