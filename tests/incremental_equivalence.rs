//! Acceptance tests for the incremental query engine: session-based solving
//! plus the validity cache must reach exactly the fixpoint of the one-shot
//! reference solver (`flux_fixpoint::reference`) on every function of the
//! benchmark corpus, and the Table 1 workload must actually exercise the
//! cache.

use flux::{verify_source, FixConfig, Mode, VerifyConfig};
use flux_check::checker::Generator;
use flux_fixpoint::FixpointSolver;
use flux_logic::SortCtx;
use flux_smt::Solver;

/// Every corpus function's constraint system, solved by the engine and by
/// the one-shot reference: the solution and the blamed tags must be
/// identical.  The engine's process-global verdict cache is disabled, so
/// whatever other tests in this binary have already proved cannot stand in
/// for the engine's own work.
#[test]
fn incremental_and_one_shot_agree_on_the_whole_corpus() {
    let config = FixConfig {
        global_cache: false,
        ..FixConfig::default()
    };
    for b in flux::benchmarks() {
        let program = flux_syntax::parse_program(b.flux_src)
            .unwrap_or_else(|e| panic!("{}: parse error {e:?}", b.name));
        let resolved = flux_ir::ResolvedProgram::resolve(&program)
            .unwrap_or_else(|e| panic!("{}: resolve error {e:?}", b.name));
        for func in resolved.iter() {
            if func.def.trusted {
                continue;
            }
            let name = &func.def.name;
            let gen = Generator::new(&resolved)
                .gen_function(name)
                .unwrap_or_else(|e| panic!("{}/{name}: genexpr error {e:?}", b.name));
            let ctx = SortCtx::new();
            let mut engine = FixpointSolver::new(config.clone());
            let result = engine.solve(&gen.constraint, &gen.kvars, &ctx);
            let mut smt = Solver::new(config.smt);
            let expected = flux_fixpoint::reference(
                &gen.constraint,
                &gen.kvars,
                &ctx,
                &config.qualifiers,
                &mut smt,
            );
            assert_eq!(
                result, expected,
                "{}/{name}: the engine's fixpoint (solution or blame) diverged from the \
                 one-shot reference",
                b.name
            );
            let stats = engine.stats;
            assert_eq!(
                stats.cache_hits + stats.cache_misses,
                stats.smt_queries,
                "{}/{name}: hits + misses must account for every query",
                b.name
            );
        }
    }
}

#[test]
fn table1_workload_reports_cache_hits_and_sessions() {
    let config = VerifyConfig::default();
    let mut total_hits = 0;
    let mut total_sessions = 0;
    let mut total_queries = 0;
    for b in flux::benchmarks() {
        let outcome = verify_source(b.flux_src, Mode::Flux, &config).unwrap();
        total_hits += outcome.stats.cache_hits;
        total_sessions += outcome.stats.sessions;
        total_queries += outcome.stats.smt_queries;
    }
    assert!(
        total_queries > 0,
        "corpus issued no validity queries at all"
    );
    assert!(
        total_hits > 0,
        "expected a nonzero cache-hit count on the table1 workload \
         ({total_queries} queries, {total_sessions} sessions)"
    );
    assert!(
        total_sessions > 0,
        "expected the weakening loop to open solver sessions"
    );
}
