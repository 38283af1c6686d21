//! Deterministic fault-injection fuzz: seeded fault plans inject spurious
//! solver `Unknown`s, per-function worker panics and lock-hold delays at
//! the engine's choke points while `check_program` checks a small
//! multi-function program at fan-out widths 1 and 2.  Four properties,
//! checked per function across every seed:
//!
//! 1. **No panic escapes** — an injected panic in a function's solve is
//!    contained by `check_program`'s claim loop; the function reports a
//!    structured `Unknown` and the others complete.
//! 2. **No hang** — the whole fuzz loop runs under a watchdog.
//! 3. **No false verification** — a faulted run may report a function safe
//!    only when the fault-free run does too.
//! 4. **No false rejection** — a faulted run may blame a function only when
//!    the fault-free run does too.  `count_up`'s postcondition holds only
//!    through its inferred loop invariant, so a fault that cuts weakening
//!    short must degrade it to `Unknown` rather than blame the program.
//!    A plan that panics every function's solve pins containment
//!    deterministically.
//!
//! Solvers use hermetic per-solver caches, so every run drives the engine
//! (and so the SAT/session/worker fault sites) for real instead of
//! replaying verdicts an earlier seed left in the process-global cache.
//! The fault plan is process-global, so this file holds a single test; the
//! seed count is `FLUX_FAULT_SEEDS` (default 100).

use flux_check::{check_source, CheckConfig, Report};
use flux_fixpoint::{FixConfig, UnknownReason};
use flux_logic::env_parse;
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};

/// Three functions that verify and two that do not.
const SOURCE: &str = r#"
#[flux::sig(fn(usize[@n]) -> usize[n])]
fn count_up(n: usize) -> usize {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i
}

#[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
fn abs(x: i32) -> i32 {
    if x < 0 { -x } else { x }
}

#[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
fn sum(v: &RVec<i32>) -> i32 {
    let mut s = 0;
    let mut i = 0;
    while i < v.len() {
        s = s + v.get(i);
        i += 1;
    }
    s
}

#[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b + 1])]
fn add_wrong(a: i32, b: i32) -> i32 {
    a + b
}

#[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
fn sum_off_by_one(v: &RVec<i32>) -> i32 {
    let mut s = 0;
    let mut i = 0;
    while i <= v.len() {
        s = s + v.get(i);
        i += 1;
    }
    s
}
"#;

/// Verdicts of the fault-free program, in source order.
const EXPECT_SAFE: [(&str, bool); 5] = [
    ("count_up", true),
    ("abs", true),
    ("sum", true),
    ("add_wrong", false),
    ("sum_off_by_one", false),
];

fn check(width: usize) -> Report {
    let config = CheckConfig {
        fixpoint: FixConfig {
            threads: width,
            global_cache: false,
            ..FixConfig::default()
        },
    };
    check_source(SOURCE, &config).expect("the fuzz program resolves")
}

/// Per function: `(name, safe, blamed)`.
fn verdicts(report: &Report) -> Vec<(String, bool, bool)> {
    report
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.is_safe(), !f.errors.is_empty()))
        .collect()
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

        // The fault-free reference pins each function's polarity, at both
        // widths.
        let reference = verdicts(&check(1));
        let expected: Vec<_> = EXPECT_SAFE
            .iter()
            .map(|&(name, safe)| (name.to_string(), safe, !safe))
            .collect();
        assert_eq!(
            reference, expected,
            "fault-free reference has the wrong polarity"
        );
        assert_eq!(
            verdicts(&check(2)),
            reference,
            "fault-free width 2 diverged"
        );

        // Every function's solve panics.  Only the `worker` site honours
        // `Panic` (the solver sites honour only `Unknown`, the cache site
        // only `Delay`), so the outcome is deterministic.
        install_fault_plan(FaultPlan {
            seed: 1,
            panic_permille: 1000,
            ..FaultPlan::default()
        });
        for width in [1, 2] {
            let report = check(width);
            assert_eq!(report.functions.len(), EXPECT_SAFE.len());
            for f in &report.functions {
                assert!(
                    f.is_unknown()
                        && f.unknowns
                            .iter()
                            .any(|r| matches!(r, UnknownReason::WorkerPanic { .. })),
                    "width {width}: {} panicked in every solve and must be Unknown \
                     with the panic as a reason: {:?} / {:?}",
                    f.name,
                    f.errors,
                    f.unknowns
                );
            }
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
            for width in [1, 2] {
                // Any panic escaping `check_program` fails the test right
                // here — containment is the property, not an accident.
                let faulted = verdicts(&check(width));
                assert_eq!(faulted.len(), reference.len());
                for ((name, safe, blamed), (_, ref_safe, ref_blamed)) in
                    faulted.iter().zip(&reference)
                {
                    assert!(
                        !safe || *ref_safe,
                        "seed {seed}, width {width}: faults made {name} verify"
                    );
                    assert!(
                        !blamed || *ref_blamed,
                        "seed {seed}, width {width}: faults fabricated blame in {name}"
                    );
                }
            }
            clear_fault_plan();
        }

        // Faulted runs must leave no residue: with the plan cleared, fresh
        // runs reproduce the fault-free reference exactly.
        for width in [1, 2] {
            assert_eq!(
                verdicts(&check(width)),
                reference,
                "width {width} diverged after the fault storm"
            );
        }
    });
}
