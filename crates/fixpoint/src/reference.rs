//! The one-shot reference solver: the differential-test oracle of
//! [`FixpointSolver`](crate::FixpointSolver).
//!
//! A plain sequential Houdini loop over tree forms.  It seeds the candidates
//! exactly as the engine does, then drops every candidate of a κ-head clause
//! that one [`Solver::check_valid_imp`] call cannot prove from the clause's
//! hypotheses, until nothing changes; finally it checks the concrete heads.
//! There is no validity cache, no session and no counter-model pruning.
//! Houdini's fixpoint is the greatest inductive subset of the initial
//! candidates, whatever the visit order, so on decided queries the engine
//! must return exactly this [`FixResult`]: the same solution and the same
//! blamed tags.

use crate::constraint::{Constraint, Head, Tag};
use crate::kvar::KVarStore;
use crate::qualifier::Qualifier;
use crate::solve::{clause_query, initial_solution, FixResult, UnknownReason};
use flux_logic::SortCtx;
use flux_smt::{Solver, Validity};

/// Solves `constraint` with the one-shot reference loop, seeding from
/// `qualifiers` and discharging every query on `smt` (whose statistics then
/// count the queries).
pub fn reference(
    constraint: &Constraint,
    kvars: &KVarStore,
    ctx: &SortCtx,
    qualifiers: &[Qualifier],
    smt: &mut Solver,
) -> FixResult {
    let clauses = constraint.flatten();
    let mut solution = initial_solution(kvars, qualifiers);
    // A candidate dropped on `Unknown` may over-weaken the assignment, so a
    // later concrete failure can no longer be blamed on the program.
    let mut weakened_on_unknown = false;
    loop {
        let mut changed = false;
        for clause in &clauses {
            let Head::KVar(app) = &clause.head else {
                continue;
            };
            let (scope, hyps, goal) = clause_query(clause, kvars, ctx, &solution);
            // The whole assignment holds, so every candidate does.
            if smt.check_valid_imp(&scope, &hyps, &goal).is_valid() {
                continue;
            }
            let decl = kvars.get(app.kvid);
            let keep: Vec<bool> = solution
                .candidates(app.kvid)
                .iter()
                .map(|cand| {
                    match smt.check_valid_imp(&scope, &hyps, &app.instantiate(decl, cand)) {
                        Validity::Valid => true,
                        Validity::Invalid(_) => false,
                        Validity::Unknown => {
                            weakened_on_unknown = true;
                            false
                        }
                    }
                })
                .collect();
            if keep.contains(&false) {
                solution.retain_mask(app.kvid, &keep);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut failed: Vec<Tag> = Vec::new();
    let mut undecided_heads = false;
    for clause in &clauses {
        let Head::Pred(_, tag) = &clause.head else {
            continue;
        };
        let (scope, hyps, goal) = clause_query(clause, kvars, ctx, &solution);
        match smt.check_valid_imp(&scope, &hyps, &goal) {
            Validity::Valid => {}
            Validity::Invalid(_) => {
                if !failed.contains(tag) {
                    failed.push(*tag);
                }
            }
            Validity::Unknown => undecided_heads = true,
        }
    }
    let mut reasons = Vec::new();
    if undecided_heads {
        reasons.push(UnknownReason::Budget("concrete-head"));
    }
    if !failed.is_empty() {
        if !weakened_on_unknown {
            return FixResult::Unsafe { solution, failed };
        }
        reasons.push(UnknownReason::Budget("weakened-on-unknown"));
    }
    if reasons.is_empty() {
        FixResult::Safe(solution)
    } else {
        FixResult::Unknown { solution, reasons }
    }
}
