//! Property test of the fixpoint engine against the one-shot reference
//! solver, over randomly generated clause systems.
//!
//! The generator plants one to three independent κ-chains (disjoint κs,
//! disjoint binder names), each with a loop-shaped first κ and a concrete
//! exit obligation that holds on some seeds and fails on others.  The
//! engine and [`flux_fixpoint::reference`] must reach identical fixpoints
//! (solution, verdict, blame) on every generated system.
//!
//! The environment has no crates.io access, so instead of proptest this
//! uses the workspace's deterministic xorshift generator
//! ([`flux_smt::testing::Rng`]): every failure reproduces by seed.

use flux_fixpoint::{Constraint, FixConfig, FixpointSolver, Guard, KVarApp, KVarStore, KVid};
use flux_logic::{Expr, Name, Sort, SortCtx};
use flux_smt::testing::Rng;
use flux_smt::Solver;

/// One planted component: a chain of κs over fresh names, κ_{j+1} guarded
/// by κ_j, with a loop-shaped first κ and a concrete exit obligation.
fn gen_component(rng: &mut Rng, kvars: &mut KVarStore, uid: String) -> Constraint {
    let chain_len = 1 + rng.below(3) as usize;
    let chain: Vec<KVid> = (0..chain_len)
        .map(|_| kvars.fresh(vec![Sort::Int, Sort::Int]))
        .collect();
    let n = Name::intern(&format!("pp_n_{uid}"));
    let i = Name::intern(&format!("pp_i_{uid}"));
    let start = rng.int_in(0, 2);
    let lower = rng.int_in(0, 2);
    // An always-true or sometimes-false exit goal, so both Safe and Unsafe
    // systems are generated (the engines must agree on both).
    let exit_goal = if rng.flip() {
        Expr::ge(Expr::var(i), Expr::int(start.min(lower)))
    } else {
        Expr::eq(Expr::var(i), Expr::var(n) + Expr::int(rng.int_in(0, 1)))
    };
    let k0 = chain[0];
    let mut body = vec![
        // Entry: κ0(start, n), guarded so it is satisfiable.
        Constraint::implies(
            Guard::Pred(Expr::le(Expr::int(start), Expr::var(n))),
            Constraint::kvar(KVarApp::new(k0, vec![Expr::int(start), Expr::var(n)])),
        ),
        // Preservation: κ0(i, n) ∧ i < n ⟹ κ0(i+1, n).
        Constraint::implies(
            Guard::KVar(KVarApp::new(k0, vec![Expr::var(i), Expr::var(n)])),
            Constraint::implies(
                Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                Constraint::kvar(KVarApp::new(
                    k0,
                    vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
                )),
            ),
        ),
    ];
    // Chain links: κ_{j}(i, n) ⟹ κ_{j+1}(i, n), tying the chain into one
    // dependency component.
    for window in chain.windows(2) {
        body.push(Constraint::implies(
            Guard::KVar(KVarApp::new(window[0], vec![Expr::var(i), Expr::var(n)])),
            Constraint::kvar(KVarApp::new(window[1], vec![Expr::var(i), Expr::var(n)])),
        ));
    }
    // Concrete exit obligation on the last κ of the chain.
    let last = *chain.last().expect("chain is nonempty");
    body.push(Constraint::implies(
        Guard::KVar(KVarApp::new(last, vec![Expr::var(i), Expr::var(n)])),
        Constraint::implies(
            Guard::Pred(Expr::not(Expr::lt(Expr::var(i), Expr::var(n)))),
            Constraint::pred(exit_goal, kvars.len()),
        ),
    ));
    Constraint::forall(
        n,
        Sort::Int,
        Expr::ge(Expr::var(n), Expr::int(lower)),
        Constraint::forall(i, Sort::Int, Expr::tt(), Constraint::conj(body)),
    )
}

fn hermetic() -> FixConfig {
    FixConfig {
        global_cache: false,
        ..FixConfig::default()
    }
}

#[test]
fn engine_matches_reference_on_planted_systems() {
    let mut safe_seen = 0usize;
    let mut unsafe_seen = 0usize;
    for seed in 0..110u64 {
        let mut rng = Rng::new(0x9A87_110E_5EED ^ (seed.wrapping_mul(0x9E37_79B9)));
        let planted = 1 + rng.below(3) as usize;
        let mut kvars = KVarStore::new();
        let parts = (0..planted)
            .map(|comp| gen_component(&mut rng, &mut kvars, format!("{seed}_{comp}")))
            .collect();
        let constraint = Constraint::conj(parts);
        // The engine and the one-shot reference must reach identical
        // fixpoints (solution, verdict, blame) on every generated system.
        let config = hermetic();
        let mut engine = FixpointSolver::new(config.clone());
        let expected = engine.solve(&constraint, &kvars, &SortCtx::new());
        assert_eq!(
            expected,
            flux_fixpoint::reference(
                &constraint,
                &kvars,
                &SortCtx::new(),
                &config.qualifiers,
                &mut Solver::new(config.smt),
            ),
            "seed {seed}: the engine diverged from the one-shot reference"
        );
        if expected.is_safe() {
            safe_seen += 1;
        } else {
            unsafe_seen += 1;
        }
    }
    // The generator must exercise both verdicts, or the agreement property
    // is vacuous on one side.
    assert!(
        safe_seen > 10,
        "too few safe systems generated: {safe_seen}"
    );
    assert!(
        unsafe_seen > 10,
        "too few unsafe systems generated: {unsafe_seen}"
    );
}
