//! Capture-avoiding substitution of refinement expressions for variables.

use crate::{Expr, Name};
use std::collections::BTreeMap;

/// A simultaneous substitution mapping refinement variables to expressions.
///
/// Substitution is capture avoiding: substituting under a quantifier that
/// binds a variable appearing free in a replacement expression renames the
/// bound variable first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Name, Expr>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// A substitution of a single variable.
    pub fn single(name: Name, expr: Expr) -> Subst {
        let mut s = Subst::new();
        s.insert(name, expr);
        s
    }

    /// Adds (or replaces) the mapping `name ↦ expr`.
    pub fn insert(&mut self, name: Name, expr: Expr) {
        self.map.insert(name, expr);
    }

    /// Looks up the replacement for `name`, if any.
    pub fn get(&self, name: Name) -> Option<&Expr> {
        self.map.get(&name)
    }

    /// True if the substitution has no mappings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over the mappings.
    pub fn iter(&self) -> impl Iterator<Item = (Name, &Expr)> {
        self.map.iter().map(|(n, e)| (*n, e))
    }

    /// Applies the substitution to `expr`.
    pub fn apply(&self, expr: &Expr) -> Expr {
        if self.is_empty() {
            return expr.clone();
        }
        self.apply_rec(expr)
    }

    fn apply_rec(&self, expr: &Expr) -> Expr {
        match expr {
            Expr::Var(name) => match self.map.get(name) {
                Some(replacement) => replacement.clone(),
                None => expr.clone(),
            },
            Expr::Const(_) => expr.clone(),
            Expr::UnOp(op, e) => Expr::unop(*op, self.apply_rec(e)),
            Expr::BinOp(op, l, r) => Expr::binop(*op, self.apply_rec(l), self.apply_rec(r)),
            Expr::Ite(c, t, e) => {
                Expr::ite(self.apply_rec(c), self.apply_rec(t), self.apply_rec(e))
            }
            Expr::App(f, args) => Expr::App(*f, args.iter().map(|a| self.apply_rec(a)).collect()),
            Expr::Forall(binders, body) => {
                let (binders, body) = self.apply_under_binders(binders, body);
                Expr::Forall(binders, Box::new(body))
            }
            Expr::Exists(binders, body) => {
                let (binders, body) = self.apply_under_binders(binders, body);
                Expr::Exists(binders, Box::new(body))
            }
        }
    }

    fn apply_under_binders(
        &self,
        binders: &[(Name, crate::Sort)],
        body: &Expr,
    ) -> (Vec<(Name, crate::Sort)>, Expr) {
        // Restrict the substitution to variables that are not re-bound here.
        let mut inner = Subst::new();
        for (name, repl) in &self.map {
            if !binders.iter().any(|(b, _)| b == name) {
                inner.insert(*name, repl.clone());
            }
        }
        // Rename binders that would capture free variables of replacements.
        let mut clash: Vec<Name> = Vec::new();
        for (_, repl) in inner.map.iter() {
            for fv in repl.free_vars() {
                if binders.iter().any(|(b, _)| *b == fv) {
                    clash.push(fv);
                }
            }
        }
        let mut new_binders = binders.to_vec();
        let mut renaming = Subst::new();
        for (name, _) in new_binders.iter_mut() {
            if clash.contains(name) {
                let fresh = Name::fresh(name.as_str());
                renaming.insert(*name, Expr::Var(fresh));
                *name = fresh;
            }
        }
        let body = if renaming.is_empty() {
            body.clone()
        } else {
            renaming.apply(body)
        };
        (new_binders, inner.apply(&body))
    }
}

impl FromIterator<(Name, Expr)> for Subst {
    fn from_iter<T: IntoIterator<Item = (Name, Expr)>>(iter: T) -> Self {
        let mut s = Subst::new();
        for (n, e) in iter {
            s.insert(n, e);
        }
        s
    }
}

impl Expr {
    /// Substitutes `expr` for every free occurrence of `name` in `self`.
    pub fn subst(&self, name: Name, expr: Expr) -> Expr {
        Subst::single(name, expr).apply(self)
    }
}

/// Canonical α-renaming for cache keys.
///
/// The fixpoint engine keys its validity cache on hash-consed clause
/// expressions.  Binder names inside those expressions come from
/// [`Name::fresh`], whose process-global counter makes otherwise identical
/// verification runs produce different names — and therefore different
/// keys, so a warm cache never hits across runs.  An `AlphaRenamer` maps
/// context binders (via [`AlphaRenamer::bind`]) and quantifier binders
/// (during [`AlphaRenamer::normalize`]) to positional canonical names
/// (`%k0`, `%k1`, …), so α-equivalent queries share one key no matter
/// which run produced them.
///
/// The canonical names contain `%`, which the surface lexer rejects in
/// identifiers, so user programs can never mention them; [`Name::fresh`]
/// skips strings that are already interned, so it can never mint them
/// either.  The renaming is injective — each binding position gets a
/// distinct canonical name — so two queries normalize to the same key only
/// if they are genuinely α-equivalent.  Normalized expressions serve
/// *only* as cache keys: the solver always works on the originals.
#[derive(Clone, Debug, Default)]
pub struct AlphaRenamer {
    outer: std::collections::HashMap<Name, Name>,
    next: usize,
}

impl AlphaRenamer {
    /// A renamer with no context binders.
    pub fn new() -> AlphaRenamer {
        AlphaRenamer::default()
    }

    fn canonical(i: usize) -> Name {
        Name::intern(&format!("%k{i}"))
    }

    /// Binds a context variable, returning its canonical positional name.
    /// Binding a name again shadows the earlier binding, mirroring
    /// `SortCtx` lookup (free occurrences resolve innermost).
    pub fn bind(&mut self, name: Name) -> Name {
        let canon = AlphaRenamer::canonical(self.next);
        self.next += 1;
        self.outer.insert(name, canon);
        canon
    }

    /// α-normalizes `expr` under the bound context.  Free occurrences of
    /// bound names are canonicalized; quantifier binders are renamed
    /// positionally, with numbering continuing from the context but scoped
    /// to this call, so a given expression normalizes identically no
    /// matter how many others were normalized before it.  Names bound
    /// neither by the context nor by a quantifier pass through untouched,
    /// as do function symbols (they live in a separate namespace).
    ///
    /// [`crate::AlphaMemo`] computes the same normalization over the
    /// hash-consed DAG without rebuilding the tree.
    pub fn normalize(&self, expr: &Expr) -> Expr {
        self.normalize_from(expr, &mut self.next.clone())
    }

    /// [`AlphaRenamer::normalize`] with quantifier numbering starting at
    /// `*next` instead of the context size, advancing `*next` past every
    /// binder renamed: the DAG walk hands each quantified subterm here with
    /// the running counter, exactly as the tree walk would reach it.
    pub(crate) fn normalize_from(&self, expr: &Expr, next: &mut usize) -> Expr {
        let mut scope = ScopedRenamer {
            map: self.outer.clone(),
            next: *next,
        };
        let out = scope.go(expr);
        *next = scope.next;
        out
    }

    /// The canonical name of a free occurrence of `name` outside every
    /// quantifier (`name` itself when the context does not bind it).
    pub(crate) fn rename(&self, name: Name) -> Name {
        self.outer.get(&name).copied().unwrap_or(name)
    }

    /// The first canonical index a quantifier binder receives.
    pub(crate) fn first_quantifier_index(&self) -> usize {
        self.next
    }
}

/// The per-[`AlphaRenamer::normalize`]-call scope: the outer map extended
/// with quantifier binders encountered along the current path.
struct ScopedRenamer {
    map: std::collections::HashMap<Name, Name>,
    next: usize,
}

impl ScopedRenamer {
    fn go(&mut self, expr: &Expr) -> Expr {
        match expr {
            Expr::Var(name) => Expr::Var(self.map.get(name).copied().unwrap_or(*name)),
            Expr::Const(_) => expr.clone(),
            Expr::UnOp(op, e) => Expr::unop(*op, self.go(e)),
            Expr::BinOp(op, l, r) => {
                let l = self.go(l);
                let r = self.go(r);
                Expr::binop(*op, l, r)
            }
            Expr::Ite(c, t, e) => {
                let c = self.go(c);
                let t = self.go(t);
                let e = self.go(e);
                Expr::ite(c, t, e)
            }
            Expr::App(f, args) => Expr::App(*f, args.iter().map(|a| self.go(a)).collect()),
            Expr::Forall(binders, body) => {
                let (binders, body) = self.go_binders(binders, body);
                Expr::Forall(binders, Box::new(body))
            }
            Expr::Exists(binders, body) => {
                let (binders, body) = self.go_binders(binders, body);
                Expr::Exists(binders, Box::new(body))
            }
        }
    }

    fn go_binders(
        &mut self,
        binders: &[(Name, crate::Sort)],
        body: &Expr,
    ) -> (Vec<(Name, crate::Sort)>, Expr) {
        let mut renamed = Vec::with_capacity(binders.len());
        let mut saved = Vec::with_capacity(binders.len());
        for (name, sort) in binders {
            let canon = AlphaRenamer::canonical(self.next);
            self.next += 1;
            saved.push((*name, self.map.insert(*name, canon)));
            renamed.push((canon, *sort));
        }
        let body = self.go(body);
        // Restore shadowed bindings innermost-first so duplicate binder
        // names in one list unwind correctly.
        for (name, previous) in saved.into_iter().rev() {
            match previous {
                Some(previous) => self.map.insert(name, previous),
                None => self.map.remove(&name),
            };
        }
        (renamed, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sort;

    fn n(s: &str) -> Name {
        Name::intern(s)
    }

    fn v(s: &str) -> Expr {
        Expr::var(n(s))
    }

    #[test]
    fn substitutes_free_variable() {
        let e = Expr::ge(v("x"), Expr::int(0));
        let out = e.subst(n("x"), v("y") + Expr::int(1));
        assert_eq!(out, Expr::ge(v("y") + Expr::int(1), Expr::int(0)));
    }

    #[test]
    fn leaves_other_variables_alone() {
        let e = Expr::lt(v("x"), v("y"));
        let out = e.subst(n("z"), Expr::int(3));
        assert_eq!(out, e);
    }

    #[test]
    fn simultaneous_substitution_does_not_chain() {
        // [x ↦ y, y ↦ 0] applied to x + y must give y + 0, not 0 + 0.
        let s: Subst = [(n("x"), v("y")), (n("y"), Expr::int(0))]
            .into_iter()
            .collect();
        let out = s.apply(&(v("x") + v("y")));
        assert_eq!(out, v("y") + Expr::int(0));
    }

    #[test]
    fn bound_variables_are_not_substituted() {
        let e = Expr::forall(vec![(n("i"), Sort::Int)], Expr::ge(v("i"), v("lo")));
        let out = e.subst(n("i"), Expr::int(42));
        assert_eq!(out, e);
    }

    #[test]
    fn capture_is_avoided_by_renaming() {
        // (forall i. i <= n)[n ↦ i] must NOT become (forall i. i <= i).
        let e = Expr::forall(vec![(n("i"), Sort::Int)], Expr::le(v("i"), v("n")));
        let out = e.subst(n("n"), v("i"));
        match &out {
            Expr::Forall(binders, body) => {
                let bound = binders[0].0;
                assert_ne!(bound, n("i"), "binder must have been renamed");
                // body is bound <= i
                assert_eq!(**body, Expr::le(Expr::Var(bound), v("i")));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn substitution_inside_application() {
        let e = Expr::app(n("select"), vec![v("a"), v("i")]);
        let out = e.subst(n("i"), Expr::int(0));
        assert_eq!(out, Expr::app(n("select"), vec![v("a"), Expr::int(0)]));
    }

    #[test]
    fn substitution_inside_ite() {
        let e = Expr::ite(Expr::gt(v("x"), Expr::int(0)), v("x"), Expr::neg(v("x")));
        let out = e.subst(n("x"), Expr::int(5));
        assert_eq!(
            out,
            Expr::ite(
                Expr::gt(Expr::int(5), Expr::int(0)),
                Expr::int(5),
                Expr::unop(crate::UnOp::Neg, Expr::int(5))
            )
        );
    }

    #[test]
    fn empty_substitution_is_identity() {
        let e = Expr::and(Expr::ge(v("x"), Expr::int(0)), Expr::lt(v("x"), v("n")));
        assert_eq!(Subst::new().apply(&e), e);
    }

    #[test]
    fn subst_through_shadowing_binder_restricts() {
        // (forall x. x > y)[x ↦ 1] leaves the body alone because x is bound.
        let e = Expr::forall(vec![(n("x"), Sort::Int)], Expr::gt(v("x"), v("y")));
        let out = e.subst(n("x"), Expr::int(1));
        assert_eq!(out, e);
    }

    #[test]
    fn alpha_equivalent_contexts_normalize_identically() {
        // Two runs of the same program draw different fresh names for the
        // same binders; after positional renaming the expressions agree.
        let (a, b) = (Name::fresh("x"), Name::fresh("x"));
        assert_ne!(a, b);
        let normalize = |name: Name| {
            let mut renamer = AlphaRenamer::new();
            renamer.bind(name);
            renamer.normalize(&Expr::ge(Expr::Var(name), Expr::int(0)))
        };
        assert_eq!(normalize(a), normalize(b));
    }

    #[test]
    fn distinct_binders_stay_distinct() {
        // Injectivity: x > y must not collapse onto x > x.
        let mut renamer = AlphaRenamer::new();
        renamer.bind(n("x"));
        renamer.bind(n("y"));
        let xy = renamer.normalize(&Expr::gt(v("x"), v("y")));
        let xx = renamer.normalize(&Expr::gt(v("x"), v("x")));
        assert_ne!(xy, xx);
    }

    #[test]
    fn quantifier_binders_normalize_positionally() {
        let (a, b) = (Name::fresh("q"), Name::fresh("q"));
        let quantified =
            |q: Name| Expr::forall(vec![(q, Sort::Int)], Expr::ge(Expr::Var(q), v("free")));
        let renamer = AlphaRenamer::new();
        assert_eq!(
            renamer.normalize(&quantified(a)),
            renamer.normalize(&quantified(b))
        );
        // The free variable is untouched.
        match renamer.normalize(&quantified(a)) {
            Expr::Forall(_, body) => match *body {
                Expr::BinOp(_, _, r) => assert_eq!(*r, v("free")),
                other => panic!("expected binop body, got {other:?}"),
            },
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn normalization_is_call_scoped() {
        // Numbering restarts from the context size on every call: the same
        // expression normalizes identically regardless of what was
        // normalized before it.
        let mut renamer = AlphaRenamer::new();
        renamer.bind(n("c"));
        let e = Expr::exists(vec![(n("w"), Sort::Int)], Expr::gt(v("w"), v("c")));
        let first = renamer.normalize(&e);
        let _other =
            renamer.normalize(&Expr::forall(vec![(n("z"), Sort::Bool)], Expr::Var(n("z"))));
        assert_eq!(renamer.normalize(&e), first);
    }

    #[test]
    fn shadowing_resolves_innermost() {
        let mut renamer = AlphaRenamer::new();
        let outer = renamer.bind(n("x"));
        let inner = renamer.bind(n("x"));
        assert_ne!(outer, inner);
        // A free occurrence refers to the innermost binding, as SortCtx
        // lookup would resolve it.
        assert_eq!(renamer.normalize(&v("x")), Expr::Var(inner));
    }
}
