//! Seeded inputs for the three workloads, and the generator's
//! determinism self-test.
//!
//! Everything a run sends or evaluates is a pure function of the
//! workload and `--seed`: the Table-2 request lines and their seeded
//! order for `serve-hot`, the `flexvec_fuzz::generate` pool and its
//! cycle for `serve-churn`, and the evaluation order for
//! `paper-suite`. The program under test receives only these generated
//! inputs.

use std::collections::HashSet;

use flexvec::program_hash;
use flexvec_front::{to_fv_kernel, ArrayInit, ArrayInput};
use flexvec_fuzz::{explicit_inputs, generate, Rng};
use flexvec_ir::Program;
use flexvec_serve::Json;

/// The daemon's default compile-cache capacity. The churn workload
/// fills it during set-up so every timed request evicts.
pub const CACHE_CAPACITY: usize = 1024;

/// Which traffic a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit read path: the 18 Table-2 kernels, repeated.
    ServeHot,
    /// Miss and write path: a new fuzz kernel on every request.
    ServeChurn,
    /// In-process `evaluate` over the Table-2 suite; no daemon.
    PaperSuite,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-churn" => Some(Workload::ServeChurn),
            "paper-suite" => Some(Workload::PaperSuite),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::PaperSuite => "paper-suite",
        }
    }
}

/// A Table-2 kernel as a daemon client sends it.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// The complete request line, without the trailing newline.
    pub line: String,
    /// `flexvec::program_hash` of the loop program.
    pub hash: u64,
}

/// A run request for `source`: arrays explicit in the source, `engine`
/// and `spec` omitted so the daemon's tier policy and autotuner act as
/// they do for users.
fn run_line(id: u64, source: String, invocations: u64) -> String {
    let mut pairs = vec![
        ("op", Json::from("run")),
        ("id", Json::from(id)),
        ("source", Json::from(source)),
    ];
    if invocations > 1 {
        pairs.push(("invocations", Json::from(invocations)));
    }
    Json::obj(pairs).to_string()
}

/// A Table-2 workload as the kernel a daemon client would send.
pub fn table2_kernel(id: u64, w: &flexvec_workloads::Workload) -> Kernel {
    let inputs: Vec<ArrayInput> = w
        .program
        .arrays
        .iter()
        .zip(&w.arrays)
        .map(|(decl, values)| ArrayInput {
            name: decl.name.clone(),
            init: ArrayInit::Explicit(values.clone()),
        })
        .collect();
    Kernel {
        line: run_line(id, to_fv_kernel(&w.program, &inputs), w.invocations),
        hash: program_hash(&w.program),
    }
}

/// The 18 Table-2 kernels as request lines, in Table-2 order.
pub fn table2_kernels() -> Vec<Kernel> {
    flexvec_workloads::all()
        .iter()
        .enumerate()
        .map(|(i, w)| table2_kernel(i as u64, w))
        .collect()
}

/// Distinct kernels in the churn pool: four times the cache capacity.
/// Set-up sends the first [`CACHE_CAPACITY`]; the timed stream then
/// cycles through the pool from there, so a kernel comes back only
/// after every other pool kernel was sent since, three cache fills
/// after the cache evicted it. Every timed request is a miss.
pub const CHURN_POOL: usize = 4 * CACHE_CAPACITY;

/// Which kernel each position of an endless stream sends.
#[derive(Clone, Copy, Debug)]
pub enum Order {
    /// Back-to-back decks, each a seeded shuffle of kernels `0..n`, so
    /// every kernel is drawn uniformly and the mix of any window of `n`
    /// consecutive draws is nearly exact.
    Decks { seed: u64, n: usize },
    /// Kernels `start, start + 1, ...` modulo `n`.
    Cycle { start: usize, n: usize },
}

impl Order {
    /// The kernel sent at stream position `i`.
    pub fn at(self, i: usize) -> usize {
        match self {
            Order::Decks { seed, n } => deck(seed, n, i / n)[i % n] as usize,
            Order::Cycle { start, n } => (start + i) % n,
        }
    }
}

/// Deck `number` of [`Order::Decks`]: a shuffle seeded by the seed and
/// the deck's number, so any position is found without the decks
/// before it.
fn deck(seed: u64, n: usize, number: usize) -> Vec<u32> {
    let mix = |x: u64| Rng::new(x).next_u64();
    let mut rng = Rng::new(mix(seed ^ 0x5EED_DEC4) ^ mix(number as u64));
    let mut deck: Vec<u32> = (0..n as u32).collect();
    for i in (1..deck.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        deck.swap(i, j);
    }
    deck
}

/// The fuzz case behind a churn kernel, regenerated from its index.
pub fn churn_case(seed: u64, index: u64) -> (Program, Vec<Vec<i64>>) {
    let case = generate(seed, index);
    (case.program, case.arrays)
}

/// The first `count` distinct kernels of `flexvec_fuzz::generate(seed,
/// _)`, with their generator indices, as request lines with the data
/// explicit in the source. Generator outputs whose loop program repeats
/// an earlier one are skipped (the cache is keyed by program, not by
/// data), so every kernel is a compile-cache miss when first sent.
/// The lines are rendered here, before set-up, so neither set-up nor
/// the timed phase pays for the generator.
pub fn churn_pool(seed: u64, count: usize) -> Vec<(u64, Kernel)> {
    let mut seen = HashSet::with_capacity(count);
    let mut pool = Vec::with_capacity(count);
    let mut index = 0;
    while pool.len() < count {
        let case = generate(seed, index);
        let hash = program_hash(&case.program);
        if seen.insert(hash) {
            let source = to_fv_kernel(&case.program, &explicit_inputs(&case));
            let line = run_line(index, source, 1);
            pool.push((index, Kernel { line, hash }));
        }
        index += 1;
    }
    pool
}

/// Checks that the generator is a function of its seed: the same seed
/// gives byte-identical request lines and identical kernel hashes, and
/// a different seed gives a different churn stream and order.
///
/// # Errors
///
/// Describes the first difference found.
pub fn self_test(seed: u64) -> Result<(), String> {
    const PROBE: usize = 64;
    let stream = |seed: u64| -> Vec<(String, u64)> {
        churn_pool(seed, PROBE)
            .into_iter()
            .map(|(_, k)| (k.line, k.hash))
            .collect()
    };
    let (a, b) = (stream(seed), stream(seed));
    if let Some(k) = (0..PROBE).find(|&k| a[k] != b[k]) {
        return Err(format!(
            "serve-churn seed {seed}: kernel {k} differs between two generations"
        ));
    }
    let other = stream(seed.wrapping_add(1));
    if a.iter().zip(&other).all(|(x, y)| x.0 == y.0) {
        return Err(format!(
            "serve-churn seeds {seed} and {} give the same stream",
            seed.wrapping_add(1)
        ));
    }

    let t1 = table2_kernels();
    let t2 = table2_kernels();
    if t1
        .iter()
        .zip(&t2)
        .any(|(x, y)| x.line != y.line || x.hash != y.hash)
    {
        return Err("Table-2 request lines differ between two generations".to_owned());
    }
    let order = |seed: u64| -> Vec<usize> {
        let decks = Order::Decks { seed, n: t1.len() };
        (0..4 * t1.len()).map(|i| decks.at(i)).collect()
    };
    if order(seed) != order(seed) {
        return Err(format!(
            "seed {seed}: the kernel order is not deterministic"
        ));
    }
    if order(seed) == order(seed.wrapping_add(1)) {
        return Err(format!(
            "seeds {seed} and {} give the same kernel order",
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for seed in [0, 1, 42] {
            self_test(seed).expect("deterministic generator");
        }
    }

    #[test]
    fn churn_pool_has_distinct_programs() {
        let pool = churn_pool(7, 300);
        let hashes: HashSet<u64> = pool
            .iter()
            .map(|(i, k)| {
                assert_eq!(program_hash(&churn_case(7, *i).0), k.hash);
                k.hash
            })
            .collect();
        assert_eq!(hashes.len(), pool.len());
    }

    #[test]
    fn decks_draw_every_kernel_once_per_deck() {
        let decks = Order::Decks { seed: 3, n: 18 };
        for d in 0..5 {
            let mut deck: Vec<usize> = (18 * d..18 * (d + 1)).map(|i| decks.at(i)).collect();
            deck.sort_unstable();
            assert_eq!(deck, (0..18).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn churn_cycle_revisits_a_kernel_only_after_the_whole_pool() {
        let cycle = Order::Cycle {
            start: CACHE_CAPACITY,
            n: CHURN_POOL,
        };
        assert_eq!(cycle.at(0), CACHE_CAPACITY);
        assert_eq!(cycle.at(CHURN_POOL - CACHE_CAPACITY), 0);
        assert_eq!(cycle.at(CHURN_POOL), CACHE_CAPACITY);
    }
}
