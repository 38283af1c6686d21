//! Acceptance tests for counter-model-guided weakening and the persistent
//! CDCL core: the engine must reach exactly the fixpoint of the one-shot
//! reference solver (`flux_fixpoint::reference`: no cache, no session, no
//! pruning) on every function of the benchmark corpus — same solution, same
//! blamed tags — while measurably pruning candidates, reusing SAT state, and
//! issuing fewer SMT queries than the reference.

use flux_check::checker::Generator;
use flux_fixpoint::{FixConfig, FixpointSolver};
use flux_logic::SortCtx;
use flux_smt::Solver;

#[test]
fn pruning_and_persistent_core_change_no_verdict_on_the_corpus() {
    // Hermetic caches: the test counts prunes and queries, which a warm
    // global cache (from other tests in this binary) would answer instead.
    let config = FixConfig {
        global_cache: false,
        ..FixConfig::default()
    };
    let mut total_prunes = 0;
    let mut total_sat_reuse = 0;
    let mut engine_queries = 0;
    let mut reference_queries = 0;
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
                "{}/{name}: the pruning/persistent-core engine diverged from the one-shot \
                 reference (solution or blame)",
                b.name
            );
            total_prunes += engine.stats.model_prunes;
            total_sat_reuse += engine.smt_stats().sat_reuse;
            engine_queries += engine.stats.smt_queries;
            reference_queries += smt.stats.queries;
        }
    }
    assert!(
        total_prunes > 0,
        "the corpus must exercise counter-model pruning"
    );
    assert!(
        total_sat_reuse > 0,
        "the corpus must exercise persistent-core reuse"
    );
    assert!(
        engine_queries < reference_queries,
        "pruning must reduce SMT queries corpus-wide: {engine_queries} vs {reference_queries}"
    );
}
