//! Test support: a brute-force evaluator for refinement formulas over small
//! finite domains.
//!
//! The evaluator is deliberately simple and independent of the solver
//! pipeline so that property-based tests can cross-check the SMT solver (and
//! downstream components such as the Horn-constraint solver) against an
//! obviously-correct reference semantics.

use flux_logic::{BinOp, Constant, Expr, Name, Sort, SortCtx, UnOp};
use std::collections::BTreeMap;

/// A ground value of the refinement logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Int(i128),
    /// A boolean.
    Bool(bool),
}

impl Value {
    fn as_int(self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(i),
            Value::Bool(_) => None,
        }
    }

    fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            Value::Int(_) => None,
        }
    }
}

/// An assignment of values to free variables.
pub type Env = BTreeMap<Name, Value>;

/// Evaluates `expr` under `env`.
///
/// Returns `None` when the expression mentions an unbound variable, applies
/// an uninterpreted function, divides by zero, or is otherwise outside the
/// fragment the evaluator covers.  Quantifiers are evaluated over
/// `quant_domain` (a small finite set of integers), which makes the
/// evaluator an *approximation* for quantified formulas — tests only use it
/// on quantifier-free formulas.
pub fn eval(expr: &Expr, env: &Env, quant_domain: &[i128]) -> Option<Value> {
    match expr {
        Expr::Var(name) => env.get(name).copied(),
        Expr::Const(Constant::Int(i)) => Some(Value::Int(*i)),
        Expr::Const(Constant::Bool(b)) => Some(Value::Bool(*b)),
        Expr::Const(Constant::Real(_)) => None,
        Expr::UnOp(UnOp::Not, e) => Some(Value::Bool(!eval(e, env, quant_domain)?.as_bool()?)),
        Expr::UnOp(UnOp::Neg, e) => Some(Value::Int(-eval(e, env, quant_domain)?.as_int()?)),
        Expr::BinOp(op, lhs, rhs) => {
            let l = eval(lhs, env, quant_domain)?;
            let r = eval(rhs, env, quant_domain)?;
            match op {
                BinOp::Add => Some(Value::Int(l.as_int()? + r.as_int()?)),
                BinOp::Sub => Some(Value::Int(l.as_int()? - r.as_int()?)),
                BinOp::Mul => Some(Value::Int(l.as_int()? * r.as_int()?)),
                BinOp::Div => {
                    let d = r.as_int()?;
                    if d == 0 {
                        None
                    } else {
                        Some(Value::Int(l.as_int()?.div_euclid(d)))
                    }
                }
                BinOp::Mod => {
                    let d = r.as_int()?;
                    if d == 0 {
                        None
                    } else {
                        Some(Value::Int(l.as_int()?.rem_euclid(d)))
                    }
                }
                BinOp::Lt => Some(Value::Bool(l.as_int()? < r.as_int()?)),
                BinOp::Le => Some(Value::Bool(l.as_int()? <= r.as_int()?)),
                BinOp::Gt => Some(Value::Bool(l.as_int()? > r.as_int()?)),
                BinOp::Ge => Some(Value::Bool(l.as_int()? >= r.as_int()?)),
                BinOp::Eq => Some(Value::Bool(l == r)),
                BinOp::Ne => Some(Value::Bool(l != r)),
                BinOp::And => Some(Value::Bool(l.as_bool()? && r.as_bool()?)),
                BinOp::Or => Some(Value::Bool(l.as_bool()? || r.as_bool()?)),
                BinOp::Imp => Some(Value::Bool(!l.as_bool()? || r.as_bool()?)),
                BinOp::Iff => Some(Value::Bool(l.as_bool()? == r.as_bool()?)),
            }
        }
        Expr::Ite(c, t, e) => {
            if eval(c, env, quant_domain)?.as_bool()? {
                eval(t, env, quant_domain)
            } else {
                eval(e, env, quant_domain)
            }
        }
        Expr::App(..) => None,
        Expr::Forall(binders, body) => eval_quant(binders, body, env, quant_domain, true),
        Expr::Exists(binders, body) => eval_quant(binders, body, env, quant_domain, false),
    }
}

fn eval_quant(
    binders: &[(Name, Sort)],
    body: &Expr,
    env: &Env,
    quant_domain: &[i128],
    universal: bool,
) -> Option<Value> {
    // Enumerate all assignments of domain values to the binders.
    fn go(
        binders: &[(Name, Sort)],
        idx: usize,
        env: &mut Env,
        body: &Expr,
        domain: &[i128],
        universal: bool,
    ) -> Option<bool> {
        if idx == binders.len() {
            return eval(body, env, domain)?.as_bool();
        }
        let (name, sort) = binders[idx];
        match sort {
            Sort::Int => {
                for &value in domain {
                    let prev = env.insert(name, Value::Int(value));
                    let result = go(binders, idx + 1, env, body, domain, universal)?;
                    match prev {
                        Some(p) => {
                            env.insert(name, p);
                        }
                        None => {
                            env.remove(&name);
                        }
                    }
                    if universal && !result {
                        return Some(false);
                    }
                    if !universal && result {
                        return Some(true);
                    }
                }
                Some(universal)
            }
            Sort::Bool => {
                for value in [false, true] {
                    let prev = env.insert(name, Value::Bool(value));
                    let result = go(binders, idx + 1, env, body, domain, universal)?;
                    match prev {
                        Some(p) => {
                            env.insert(name, p);
                        }
                        None => {
                            env.remove(&name);
                        }
                    }
                    if universal && !result {
                        return Some(false);
                    }
                    if !universal && result {
                        return Some(true);
                    }
                }
                Some(universal)
            }
            _ => None,
        }
    }
    let mut env = env.clone();
    go(binders, 0, &mut env, body, quant_domain, universal).map(Value::Bool)
}

/// Enumerates all environments assigning each variable in `ctx` a value from
/// `domain` (integers) or `{true, false}` (booleans).  Variables of other
/// sorts make the enumeration empty.
pub fn enumerate_envs(ctx: &SortCtx, domain: &[i128]) -> Vec<Env> {
    let mut envs = vec![Env::new()];
    for (name, sort) in ctx.iter() {
        let mut next = Vec::new();
        for env in &envs {
            match sort {
                Sort::Int => {
                    for &value in domain {
                        let mut e = env.clone();
                        e.insert(name, Value::Int(value));
                        next.push(e);
                    }
                }
                Sort::Bool => {
                    for value in [false, true] {
                        let mut e = env.clone();
                        e.insert(name, Value::Bool(value));
                        next.push(e);
                    }
                }
                _ => return Vec::new(),
            }
        }
        envs = next;
    }
    envs
}

/// Brute-force satisfiability over a finite integer domain.  Returns `None`
/// if the formula falls outside the evaluator's fragment.
pub fn brute_force_sat(ctx: &SortCtx, expr: &Expr, domain: &[i128]) -> Option<bool> {
    let envs = enumerate_envs(ctx, domain);
    if envs.is_empty() && !ctx.is_empty() {
        return None;
    }
    let mut any_undefined = false;
    for env in envs {
        match eval(expr, &env, domain) {
            Some(Value::Bool(true)) => return Some(true),
            Some(Value::Bool(false)) => {}
            _ => any_undefined = true,
        }
    }
    if any_undefined {
        None
    } else {
        Some(false)
    }
}

/// A tiny deterministic PRNG (xorshift64*) for randomised tests.
///
/// The build environment has no access to crates.io, so the randomised
/// differential tests in this workspace use this instead of proptest.  The
/// sequence depends only on the seed, which keeps every failure reproducible
/// by case index.
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a nonzero seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn int_in(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as u64) as i128
    }

    /// Uniform boolean.
    pub fn flip(&mut self) -> bool {
        self.below(2) == 1
    }
}

/// A kind of fault the deterministic fault-injection harness can produce at
/// an instrumented choke point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The instrumented solver gives up (its existing `Unknown` path).
    Unknown,
    /// The instrumented site panics (exercises panic isolation).
    Panic,
    /// The instrumented site sleeps briefly while holding whatever locks it
    /// holds (exercises lock contention and watchdogs).
    Delay,
}

/// A deterministic fault plan: a seed plus per-fault-kind probabilities in
/// permille (0–1000).  Installed process-globally by [`install_fault_plan`];
/// the instrumented sites draw from a shared [`Rng`], so a given seed
/// reproduces the same fault sequence for a deterministic workload.  The
/// bands are the same at every site: a site that draws a kind it cannot
/// honour ignores it, so e.g. `panic_permille: 1000` panics exactly the
/// sites that honour [`Fault::Panic`] and leaves the rest fault-free.
///
/// Instrumented sites as of PR 9: `sat`, `simplex`, `session`, `worker`
/// and `cnf-cache` inside the solving stack, plus `daemon` (worker
/// dispatch in `fluxd`) and `queue` (request admission in `fluxd`).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// RNG seed (shifted to nonzero internally).
    pub seed: u64,
    /// Probability (permille) that a solver choke point returns `Unknown`.
    pub unknown_permille: u16,
    /// Probability (permille) that a worker choke point panics.
    pub panic_permille: u16,
    /// Probability (permille) that a lock/cache choke point delays.
    pub delay_permille: u16,
    /// How long a [`Fault::Delay`] sleeps, in milliseconds (`0` is allowed
    /// and means "yield without sleeping").  Sites read the duration back
    /// through [`fault_delay`] when they draw a delay.
    pub delay_ms: u64,
}

impl Default for FaultPlan {
    /// A plan that never fires (all permilles zero) with the historical
    /// 1 ms delay, so tests can spell only the bands they care about.
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            unknown_permille: 0,
            panic_permille: 0,
            delay_permille: 0,
            delay_ms: 1,
        }
    }
}

struct FaultState {
    rng: Rng,
    plan: FaultPlan,
}

/// Fast-path flag: instrumented sites check this single atomic before
/// touching the mutex, so the harness costs one relaxed load when inactive.
static FAULTS_ACTIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn fault_state() -> &'static std::sync::Mutex<Option<FaultState>> {
    static STATE: std::sync::OnceLock<std::sync::Mutex<Option<FaultState>>> =
        std::sync::OnceLock::new();
    STATE.get_or_init(|| std::sync::Mutex::new(None))
}

/// Installs `plan` process-globally; every instrumented choke point starts
/// drawing faults from it.  Call [`clear_fault_plan`] when done — tests
/// should treat the plan like a lock (install, run, clear) and serialize
/// themselves around it.
pub fn install_fault_plan(plan: FaultPlan) {
    *flux_logic::lock_recover(fault_state()) = Some(FaultState {
        rng: Rng::new(plan.seed),
        plan,
    });
    FAULTS_ACTIVE.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Deactivates fault injection.
pub fn clear_fault_plan() {
    FAULTS_ACTIVE.store(false, std::sync::atomic::Ordering::SeqCst);
    *flux_logic::lock_recover(fault_state()) = None;
}

/// Draws a fault for the instrumented choke point `site`, or `None` (always
/// `None` when no plan is installed — the production fast path).  A
/// returned [`Fault::Panic`] is advisory: the site decides whether it can
/// honour it (only sites wrapped in panic isolation do).
pub fn inject_fault(site: &str) -> Option<Fault> {
    if !FAULTS_ACTIVE.load(std::sync::atomic::Ordering::Relaxed) {
        return None;
    }
    let mut guard = flux_logic::lock_recover(fault_state());
    let state = guard.as_mut()?;
    let draw = state.rng.below(1000) as u16;
    let plan = state.plan;
    // Partition [0, 1000) into disjoint bands per fault kind so one draw
    // decides the site's fate; sites ignore kinds they cannot honour.
    let _ = site;
    if draw < plan.unknown_permille {
        Some(Fault::Unknown)
    } else if draw < plan.unknown_permille + plan.panic_permille {
        Some(Fault::Panic)
    } else if draw < plan.unknown_permille + plan.panic_permille + plan.delay_permille {
        Some(Fault::Delay)
    } else {
        None
    }
}

/// The sleep duration a [`Fault::Delay`] asks for: the installed plan's
/// `delay_ms`, or the historical 1 ms when no plan is installed (a site
/// can only reach this between a positive [`inject_fault`] draw and the
/// plan being cleared by another thread).
pub fn fault_delay() -> std::time::Duration {
    let ms = flux_logic::lock_recover(fault_state())
        .as_ref()
        .map_or(1, |state| state.plan.delay_ms);
    std::time::Duration::from_millis(ms)
}

/// Runs `work` on a separate thread and panics if it does not finish within
/// `timeout_secs` (a hung worker leaks, but the test fails in bounded time
/// instead of hanging the suite).  Returns `work`'s result; a panic inside
/// `work` is propagated.
pub fn with_watchdog<T, F>(what: &str, timeout_secs: u64, work: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = work();
        tx.send(()).ok();
        out
    });
    match rx.recv_timeout(std::time::Duration::from_secs(timeout_secs)) {
        Ok(()) => handle
            .join()
            .unwrap_or_else(|_| panic!("{what}: watchdogged worker panicked after completing")),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // The worker died without reporting: propagate its panic.
            match handle.join() {
                Ok(_) => panic!("{what}: worker disconnected without finishing"),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "{what}: watchdog timeout — exceeded {timeout_secs}s, hang suspected \
                 (the site/request context in this message is the hang's address)"
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    fn env(pairs: &[(&str, Value)]) -> Env {
        pairs
            .iter()
            .map(|(n, val)| (Name::intern(n), *val))
            .collect()
    }

    #[test]
    fn evaluates_arithmetic_and_comparisons() {
        let e = Expr::lt(v("x") + Expr::int(1), Expr::int(5));
        let result = eval(&e, &env(&[("x", Value::Int(3))]), &[]);
        assert_eq!(result, Some(Value::Bool(true)));
        let result = eval(&e, &env(&[("x", Value::Int(4))]), &[]);
        assert_eq!(result, Some(Value::Bool(false)));
    }

    #[test]
    fn unbound_variable_is_none() {
        assert_eq!(eval(&v("missing"), &Env::new(), &[]), None);
    }

    #[test]
    fn division_by_zero_is_none() {
        let e = Expr::binop(BinOp::Div, Expr::int(1), Expr::int(0));
        assert_eq!(eval(&e, &Env::new(), &[]), None);
    }

    #[test]
    fn quantifier_over_small_domain() {
        let i = Name::intern("i");
        let all_nonneg = Expr::forall(vec![(i, Sort::Int)], Expr::ge(Expr::var(i), Expr::int(0)));
        assert_eq!(
            eval(&all_nonneg, &Env::new(), &[0, 1, 2]),
            Some(Value::Bool(true))
        );
        assert_eq!(
            eval(&all_nonneg, &Env::new(), &[-1, 0, 1]),
            Some(Value::Bool(false))
        );
    }

    #[test]
    fn existential_over_small_domain() {
        let i = Name::intern("i");
        let some_big = Expr::exists(vec![(i, Sort::Int)], Expr::gt(Expr::var(i), Expr::int(1)));
        assert_eq!(
            eval(&some_big, &Env::new(), &[0, 1]),
            Some(Value::Bool(false))
        );
        assert_eq!(
            eval(&some_big, &Env::new(), &[0, 2]),
            Some(Value::Bool(true))
        );
    }

    #[test]
    fn enumerate_envs_counts() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("x"), Sort::Int);
        ctx.push(Name::intern("b"), Sort::Bool);
        let envs = enumerate_envs(&ctx, &[0, 1, 2]);
        assert_eq!(envs.len(), 6);
    }

    #[test]
    fn brute_force_detects_unsat() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("x"), Sort::Int);
        let e = Expr::and(
            Expr::lt(v("x"), Expr::int(0)),
            Expr::gt(v("x"), Expr::int(0)),
        );
        assert_eq!(brute_force_sat(&ctx, &e, &[-2, -1, 0, 1, 2]), Some(false));
    }
}
