//! Acceptance tests for the function fan-out: `check_program` runs whole
//! per-function solves on [`FixConfig::threads`] workers.  Checking at any
//! width must be observationally identical to checking at width 1 — same
//! Safe/Unsafe verdicts and blamed obligations, in program order, across
//! the whole benchmark corpus, and bit-identical inferred `Solution`s for
//! every function whichever solver (and so whichever cache state) a worker
//! brings to it — while the merged statistics still account for every
//! query.

use flux::{verify_source, FixConfig, Mode, VerifyConfig};
use flux_fixpoint::{FixResult, FixpointSolver};
use flux_logic::SortCtx;

/// The fan-out widths every sweep covers: the calling thread alone, the
/// 2-core CI runner's width, and more workers than most benchmarks have
/// functions.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// The shipped configuration with a pinned fan-out width.
fn with_threads(threads: usize) -> VerifyConfig {
    let mut config = VerifyConfig::default();
    config.check.fixpoint.threads = threads;
    config
}

/// A hermetic fixpoint configuration (per-solver cache), for the
/// solution-level comparisons: isolation from the process-global cache
/// keeps a failure attributable to the schedule rather than to whatever
/// other tests already proved.
fn hermetic_fixpoint() -> FixConfig {
    FixConfig {
        global_cache: false,
        ..FixConfig::default()
    }
}

/// Per-function verdicts: every checked function of every benchmark
/// reports the same name, verdict and blamed spans, in source order, at
/// every width.
#[test]
fn corpus_verdicts_are_identical_across_thread_counts() {
    let verdicts = |source: &str, threads: usize| {
        let config = flux_check::CheckConfig {
            fixpoint: FixConfig {
                threads,
                ..FixConfig::default()
            },
        };
        let report = flux_check::check_source(source, &config)
            .unwrap_or_else(|e| panic!("frontend error {e:?}"));
        report
            .functions
            .iter()
            .map(|f| {
                let spans: Vec<_> = f.errors.iter().map(|d| d.span).collect();
                (f.name.clone(), f.is_safe(), f.is_unknown(), spans)
            })
            .collect::<Vec<_>>()
    };
    for b in flux::benchmarks() {
        let reference = verdicts(b.flux_src, 1);
        for threads in WIDTHS {
            assert_eq!(
                verdicts(b.flux_src, threads),
                reference,
                "{} at threads={threads}: per-function verdicts differ from width 1",
                b.name
            );
        }
    }
}

/// The inferred invariants themselves — not just the verdicts — must be
/// bit-identical for every function of every benchmark, whatever the
/// solver brings to the function: a fan-out worker reuses one solver
/// across the functions it claims, so depending on the schedule a
/// function meets a fresh solver or one whose cache already holds other
/// functions' verdicts.  Solving each benchmark's functions with one
/// solver in source order, with one solver in reverse order, and with a
/// fresh solver each must give the same result.
#[test]
fn corpus_solutions_are_identical_across_thread_counts() {
    for b in flux::benchmarks() {
        let program = flux_syntax::parse_program(b.flux_src)
            .unwrap_or_else(|e| panic!("{}: parse error {e:?}", b.name));
        let resolved = flux_ir::ResolvedProgram::resolve(&program)
            .unwrap_or_else(|e| panic!("{}: resolve error {e:?}", b.name));
        let systems: Vec<_> = resolved
            .iter()
            .filter(|func| !func.def.trusted)
            .map(|func| {
                let gen = flux_check::checker::Generator::new(&resolved)
                    .gen_function(&func.def.name)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}/{}: constraint generation error {e:?}",
                            b.name, func.def.name
                        )
                    });
                (func.def.name.clone(), gen)
            })
            .collect();
        let mut in_order = FixpointSolver::new(hermetic_fixpoint());
        let reference: Vec<FixResult> = systems
            .iter()
            .map(|(_, gen)| in_order.solve(&gen.constraint, &gen.kvars, &SortCtx::new()))
            .collect();
        let mut reversed = FixpointSolver::new(hermetic_fixpoint());
        for ((name, gen), expected) in systems.iter().zip(&reference).rev() {
            let result = reversed.solve(&gen.constraint, &gen.kvars, &SortCtx::new());
            assert_eq!(
                &result, expected,
                "{}/{name}: a solver warmed by later functions diverged",
                b.name
            );
        }
        for ((name, gen), expected) in systems.iter().zip(&reference) {
            let mut fresh = FixpointSolver::new(hermetic_fixpoint());
            let result = fresh.solve(&gen.constraint, &gen.kvars, &SortCtx::new());
            assert_eq!(
                &result, expected,
                "{}/{name}: a fresh solver diverged from the shared one",
                b.name
            );
        }
        // The width-1 run's safety verdicts must match what end-to-end
        // checking reports (sanity that the harness exercised the real
        // constraint systems).
        if reference
            .iter()
            .any(|r| matches!(r, FixResult::Unsafe { .. }))
        {
            let outcome = verify_source(b.flux_src, Mode::Flux, &with_threads(1)).unwrap();
            assert!(
                !outcome.safe,
                "{}: fixpoint says unsafe but the corpus verdict is safe",
                b.name
            );
        }
    }
}

/// Merged per-function statistics must account for the whole workload:
/// hits and misses account for every query, the hit classifications never
/// exceed the hits, and the reported width and time vector are in range —
/// at every width, across the whole corpus.
#[test]
fn parallel_stats_merge_is_lossless_on_the_corpus() {
    for threads in WIDTHS {
        let config = with_threads(threads);
        for b in flux::benchmarks() {
            let outcome = verify_source(b.flux_src, Mode::Flux, &config)
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            let s = &outcome.stats;
            assert_eq!(
                s.cache_hits + s.cache_misses,
                s.smt_queries,
                "{} at threads={threads}: hits + misses must account for every query",
                b.name
            );
            assert!(
                s.cross_fn_hits + s.xbench_hits <= s.cache_hits,
                "{} at threads={threads}: hit classifications exceed total hits",
                b.name
            );
            assert!(
                s.fn_threads >= 1 && s.fn_threads <= threads,
                "{} at threads={threads}: reported fan-out width {} out of range",
                b.name,
                s.fn_threads
            );
            assert_eq!(
                s.fn_times_ms.len(),
                outcome.functions,
                "{} at threads={threads}: the per-function wall-clock vector must \
                 have one slot per checked function",
                b.name
            );
        }
    }
}

/// Function fan-out equivalence at the report level: the whole corpus
/// must verify identically — verdicts *and* blamed obligations, in the
/// same order — when functions are checked concurrently, and the
/// per-function time vector keeps one slot per function regardless of
/// schedule.
#[test]
fn corpus_verdicts_are_identical_across_function_fanout_widths() {
    let sequential = with_threads(1);
    for b in flux::benchmarks() {
        let reference = verify_source(b.flux_src, Mode::Flux, &sequential)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        for threads in WIDTHS {
            let parallel = verify_source(b.flux_src, Mode::Flux, &with_threads(threads))
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            assert_eq!(
                parallel.errors, reference.errors,
                "{} at threads={threads}: blamed obligations differ or are reordered \
                 (the merge must follow program order, not completion order)",
                b.name
            );
            assert_eq!(
                parallel.stats.fn_times_ms.len(),
                reference.stats.fn_times_ms.len(),
                "{} at threads={threads}: one wall-clock slot per checked function, \
                 regardless of schedule",
                b.name
            );
        }
    }
}

/// The `contend` figure is one difference of the process-global contention
/// counters per program, taken around the whole function fan-out.  Summing
/// per-solve differences instead counted every collision between two
/// concurrent solves once per solve in flight, so the corpus total could
/// exceed the number of collisions that actually happened.
#[test]
fn contention_total_never_exceeds_the_global_counters() {
    let config = with_threads(2);
    let before = flux_fixpoint::shard_contentions();
    let mut total = 0;
    for b in flux::benchmarks() {
        let outcome = verify_source(b.flux_src, Mode::Flux, &config)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        total += outcome.stats.shard_contention as u64;
    }
    let delta = flux_fixpoint::shard_contentions() - before;
    assert!(
        total <= delta,
        "reported contention {total} exceeds the {delta} collisions the global counters saw"
    );
}
