//! Deterministic fault-injection fuzz: seeded fault plans inject spurious
//! solver `Unknown`s, worker panics and lock-hold delays at the engine's
//! choke points while full fixpoint solves run on two worker threads.  Four
//! properties, checked across every seed:
//!
//! 1. **No panic escapes** — injected worker panics are contained by the
//!    scheduler; the solve returns a structured result.
//! 2. **No hang** — the whole fuzz loop runs under a watchdog.
//! 3. **No false verification** — a faulted run may report a system safe
//!    only when the fault-free run does too.
//! 4. **No false rejection** — a faulted run may report a system `Unsafe`
//!    only when the fault-free run does too.  One system component has a
//!    concrete head provable only through its κ, so a weakening worker
//!    that panics (losing the κ, which then reads as `true`) must degrade
//!    the solve to `Unknown` rather than blame the program.  A plan that
//!    panics every weakening worker pins this deterministically.
//!
//! The fault plan is process-global, so this file holds a single test; the
//! seed count is `FLUX_FAULT_SEEDS` (default 100).

use flux_fixpoint::{
    Constraint, FixConfig, FixResult, FixpointSolver, Guard, KVarApp, KVarStore, UnknownReason,
};
use flux_logic::{env_parse, Expr, Name, Sort, SortCtx};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};

/// Three independent κ components (so the parallel scheduler actually
/// spawns workers at `threads: 2`).  Two share an entry bound, and `safe`
/// selects whether their concrete heads are provable.  The third's concrete
/// head holds only through its κ: `y ≥ 5 ⟹ κ(y)` and `κ(z) ⟹ z > 0`.
fn system(salt: &str, safe: bool) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k1 = kvars.fresh(vec![Sort::Int]);
    let k2 = kvars.fresh(vec![Sort::Int]);
    let k3 = kvars.fresh(vec![Sort::Int]);
    let x = Name::intern(&format!("fi_{salt}_x"));
    let y = Name::intern(&format!("fi_{salt}_y"));
    let z = Name::intern(&format!("fi_{salt}_z"));
    let bound = if safe { 0 } else { 100 };
    let component = |k: flux_fixpoint::KVid, off: i128| {
        Constraint::conj(vec![
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x) + Expr::int(off)])),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k, vec![Expr::var(x) + Expr::int(off)])),
                Constraint::pred(
                    Expr::gt(Expr::var(x) + Expr::int(off), Expr::int(bound)),
                    off as usize,
                ),
            ),
        ])
    };
    let c = Constraint::conj(vec![
        Constraint::forall(
            x,
            Sort::Int,
            Expr::ge(Expr::var(x), Expr::int(5)),
            Constraint::conj(vec![component(k1, 0), component(k2, 1)]),
        ),
        Constraint::forall(
            y,
            Sort::Int,
            Expr::ge(Expr::var(y), Expr::int(5)),
            Constraint::kvar(KVarApp::new(k3, vec![Expr::var(y)])),
        ),
        Constraint::forall(
            z,
            Sort::Int,
            Expr::tt(),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k3, vec![Expr::var(z)])),
                Constraint::pred(Expr::gt(Expr::var(z), Expr::int(0)), 2),
            ),
        ),
    ]);
    (c, kvars)
}

fn solve(c: &Constraint, kvars: &KVarStore) -> FixResult {
    let mut solver = FixpointSolver::new(FixConfig {
        threads: 2,
        ..FixConfig::default()
    });
    solver.solve(c, kvars, &SortCtx::new())
}

#[test]
fn faulted_solves_never_panic_hang_or_falsely_verify() {
    with_watchdog("fault fuzz", 600, || {
        // Injected worker panics are expected by the hundreds; keep the
        // default hook's backtrace spam out of the log but forward every
        // *other* panic (a genuine assertion failure must stay visible).
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected worker fault"));
            if !injected {
                prev(info);
            }
        }));

        // Fault-free references pin the corpus's polarity: the `true`
        // variant verifies, the `false` variant does not, whatever the salt
        // (the salt only renames variables).
        let references = [system("ref_a", true), system("ref_b", false)];
        let expect_safe = [true, false];
        let reference_results: Vec<_> = references.iter().map(|(c, k)| solve(c, k)).collect();
        for (i, reference) in reference_results.iter().enumerate() {
            assert_eq!(
                reference.is_safe(),
                expect_safe[i],
                "fault-free reference {i} has the wrong polarity: {reference:?}"
            );
        }

        // Every weakening worker panics: every κ is lost, and the third
        // component's head fails without its κ.  Only the `worker` site
        // honours `Panic` (the solver sites honour only `Unknown`, the
        // cache site only `Delay`), so the outcome is deterministic.
        install_fault_plan(FaultPlan {
            seed: 1,
            panic_permille: 1000,
            ..FaultPlan::default()
        });
        for (i, safe) in [(0usize, true), (1usize, false)] {
            let (c, kvars) = system(&format!("all_panic_v{i}"), safe);
            let result = solve(&c, &kvars);
            assert!(
                matches!(&result, FixResult::Unknown { reasons, .. }
                    if reasons.iter().any(|r| matches!(r, UnknownReason::WorkerPanic { .. }))),
                "system {i}: a solve whose weakening workers all panicked must be \
                 Unknown with the panic as a reason: {result:?}"
            );
        }
        clear_fault_plan();

        let seeds = env_parse("FLUX_FAULT_SEEDS", 100u64);
        for seed in 1..=seeds {
            install_fault_plan(FaultPlan {
                seed,
                unknown_permille: 250,
                panic_permille: 120,
                delay_permille: 30,
                ..FaultPlan::default()
            });
            // Fresh per-seed vocabularies: every solve misses the global
            // verdict cache and drives the engine (and so the SAT/session/
            // worker fault sites) for real, instead of replaying cached
            // verdicts from the previous seed.
            for (i, safe) in [(0usize, true), (1usize, false)] {
                let (c, kvars) = system(&format!("s{seed}v{i}"), safe);
                // Any panic escaping `solve` fails the test right here —
                // containment is the property, not an accident.
                let result = solve(&c, &kvars);
                assert!(
                    !matches!(result, FixResult::Unsafe { .. })
                        || matches!(reference_results[i], FixResult::Unsafe { .. }),
                    "seed {seed}: faults fabricated a counterexample: {result:?}"
                );
                assert!(
                    !result.is_safe() || reference_results[i].is_safe(),
                    "seed {seed}: faults made an unsafe system verify: {result:?}"
                );
            }
            clear_fault_plan();
        }

        // Faulted runs must leave no residue: with the plan cleared, fresh
        // solves reproduce the fault-free references exactly (injected
        // `Unknown`s are never shared through the global verdict cache).
        for (i, (c, kvars)) in references.iter().enumerate() {
            assert_eq!(
                &solve(c, kvars),
                &reference_results[i],
                "system {i} diverged after the fault storm"
            );
        }
    });
}
