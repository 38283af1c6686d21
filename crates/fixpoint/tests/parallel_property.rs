//! Property tests for the κ-dependency partitioner and the parallel
//! weakening scheduler, over randomly generated clause systems with a
//! *known* component structure.
//!
//! The generator plants a configurable number of independent κ-chains
//! (disjoint κs, disjoint binder names), so the expected decomposition is
//! known by construction; the partitioner must recover exactly it, must
//! never co-schedule two clauses from different planted chains, and must
//! never split two clauses that share a κ.  On top of the structural
//! property, the parallel and sequential engines and the one-shot reference
//! solver must reach identical fixpoints on every generated system.
//!
//! The environment has no crates.io access, so instead of proptest this
//! uses the workspace's deterministic xorshift generator
//! ([`flux_smt::testing::Rng`]): every failure reproduces by seed.

use flux_fixpoint::{
    partition, Constraint, FixConfig, FixpointSolver, Guard, Head, KVarApp, KVarStore, KVid,
};
use flux_logic::{Expr, Name, Sort, SortCtx};
use flux_smt::testing::Rng;
use flux_smt::Solver;
use std::collections::BTreeSet;

/// One planted component: a chain of κs over fresh names, κ_{j+1} guarded
/// by κ_j, with a loop-shaped first κ and a concrete exit obligation.
/// Returns the generated sub-constraint and the chain's κs.
fn gen_component(rng: &mut Rng, kvars: &mut KVarStore, uid: String) -> (Constraint, Vec<KVid>) {
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
    let c = Constraint::forall(
        n,
        Sort::Int,
        Expr::ge(Expr::var(n), Expr::int(lower)),
        Constraint::forall(i, Sort::Int, Expr::tt(), Constraint::conj(body)),
    );
    (c, chain)
}

/// The κs mentioned by a flattened clause (head and guards).
fn clause_kvars(clause: &flux_fixpoint::Clause) -> BTreeSet<KVid> {
    let mut out = BTreeSet::new();
    if let Head::KVar(app) = &clause.head {
        out.insert(app.kvid);
    }
    for guard in &clause.guards {
        if let Guard::KVar(app) = guard {
            out.insert(app.kvid);
        }
    }
    out
}

fn hermetic(threads: usize) -> FixConfig {
    FixConfig {
        global_cache: false,
        threads,
        ..FixConfig::default()
    }
}

#[test]
fn partitioner_recovers_planted_components_and_fixpoints_agree() {
    let mut safe_seen = 0usize;
    let mut unsafe_seen = 0usize;
    for seed in 0..110u64 {
        let mut rng = Rng::new(0x9A87_110E_5EED ^ (seed.wrapping_mul(0x9E37_79B9)));
        let planted = 1 + rng.below(3) as usize;
        let mut kvars = KVarStore::new();
        let mut parts = Vec::new();
        let mut planted_chains: Vec<BTreeSet<KVid>> = Vec::new();
        for comp in 0..planted {
            let (c, chain) = gen_component(&mut rng, &mut kvars, format!("{seed}_{comp}"));
            parts.push(c);
            planted_chains.push(chain.into_iter().collect());
        }
        let constraint = Constraint::conj(parts);
        let clauses = constraint.flatten();
        let decomposition = partition(&clauses, &kvars);

        // The partitioner must recover exactly the planted structure: one
        // component per chain, κ-sets pairwise disjoint.
        assert_eq!(
            decomposition.components.len(),
            planted,
            "seed {seed}: expected {planted} components, got {}",
            decomposition.components.len()
        );
        for (a, set_a) in decomposition.kvar_sets.iter().enumerate() {
            for set_b in decomposition.kvar_sets.iter().skip(a + 1) {
                assert!(
                    set_a.is_disjoint(set_b),
                    "seed {seed}: two components share a κ"
                );
            }
            // Each recovered κ-set is exactly one planted chain.
            assert!(
                planted_chains.iter().any(|chain| chain == set_a),
                "seed {seed}: component κ-set {set_a:?} matches no planted chain"
            );
        }

        // No two dependent clauses may ever be scheduled apart: clauses
        // sharing a κ must sit in the same component, and every κ-head
        // clause must be scheduled exactly once.
        let mut component_of = vec![usize::MAX; clauses.len()];
        for (slot, member) in decomposition.components.iter().enumerate() {
            for &ci in member {
                assert_eq!(
                    component_of[ci],
                    usize::MAX,
                    "seed {seed}: clause {ci} scheduled twice"
                );
                component_of[ci] = slot;
            }
        }
        for (a, ca) in clauses.iter().enumerate() {
            if !matches!(ca.head, Head::KVar(_)) {
                assert_eq!(
                    component_of[a],
                    usize::MAX,
                    "seed {seed}: concrete clause {a} was scheduled for weakening"
                );
                continue;
            }
            assert_ne!(
                component_of[a],
                usize::MAX,
                "seed {seed}: κ-head clause {a} was never scheduled"
            );
            let kvars_a = clause_kvars(ca);
            for (b, cb) in clauses.iter().enumerate().skip(a + 1) {
                if !matches!(cb.head, Head::KVar(_)) {
                    continue;
                }
                if !kvars_a.is_disjoint(&clause_kvars(cb)) {
                    assert_eq!(
                        component_of[a], component_of[b],
                        "seed {seed}: dependent clauses {a} and {b} were co-scheduled apart"
                    );
                }
            }
        }

        // The parallel and sequential engines and the one-shot reference
        // must reach identical fixpoints (solution, verdict, blame) on every
        // generated system.
        let config = hermetic(1);
        let mut sequential = FixpointSolver::new(config.clone());
        let expected = sequential.solve(&constraint, &kvars, &SortCtx::new());
        assert_eq!(
            expected,
            flux_fixpoint::reference(
                &constraint,
                &kvars,
                &SortCtx::new(),
                &config.qualifiers,
                &mut Solver::new(config.smt),
            ),
            "seed {seed}: the sequential engine diverged from the one-shot reference"
        );
        for threads in [2, 4] {
            let mut parallel = FixpointSolver::new(hermetic(threads));
            let result = parallel.solve(&constraint, &kvars, &SortCtx::new());
            assert_eq!(
                result, expected,
                "seed {seed}: threads={threads} diverged from the sequential fixpoint"
            );
        }
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
