//! Programs whose verdict disagrees with their known answer on the commit
//! the benchmark was written against.  Each test asserts the *correct*
//! verdict, so it fails until the defect is fixed; they are ignored so the
//! generator tests stay meaningful.  Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
//! The `gen-mixed` halving family carries no planted variant because of
//! them (see `Family::can_plant`).

use flux_check::{check_program, CheckConfig};
use flux_ir::ResolvedProgram;

fn flux_safe(src: &str) -> bool {
    let program = flux_syntax::parse_program(src).expect("source parses");
    let resolved = ResolvedProgram::resolve(&program).expect("source resolves");
    check_program(&resolved, &CheckConfig::default()).is_safe()
}

fn baseline_safe(src: &str) -> bool {
    let program = flux_syntax::parse_program(src).expect("source parses");
    flux_wp::verify_program(&program, &flux_wp::WpConfig::default()).is_safe()
}

/// Table 1's `bsearch` with `hi` one past the end.  When every element is
/// below `target`, `lo` climbs to `n` while `hi == n + 1`, and `v.get(n)`
/// is out of bounds.  Flux rejects it without the `n >= 2` parameter and
/// verifies it with it.
#[test]
#[ignore = "known defect: Flux verifies an out-of-bounds read"]
fn flux_rejects_bsearch_with_hi_past_the_end() {
    let src = r#"
#[flux::sig(fn(v: &RVec<i32>[@n], usize{s: n >= 2}, i32) -> usize{r: r <= n})]
fn bsearch(v: &RVec<i32>, s: usize, target: i32) -> usize {
    let mut lo = 0;
    let mut hi = v.len() + 1;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let x = v.get(mid);
        if x < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}
"#;
    assert!(!flux_safe(src));
}

const HALVING_FLUX: &str = r#"
#[flux::sig(fn(v: &RVec<i32>[@n], usize{s: s + 1234 <= n}, i32) -> usize{r: r <= n})]
fn search(v: &RVec<i32>, s: usize, t: i32) -> usize {
    let mut lo = s + 1234;
    let mut hi = v.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if v.get(mid + 1) < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}
"#;

const HALVING_BASELINE: &str = r#"
#[requires(s + 1234 <= vlen(v))]
#[ensures(result <= vlen(v))]
fn search(v: RVec<i32>, s: usize, t: i32) -> usize {
    let mut lo = s + 1234;
    let mut hi = v.len();
    while lo < hi {
        invariant!(0 <= lo);
        invariant!(lo <= hi);
        invariant!(hi <= vlen(v));
        let mid = (lo + hi) / 2;
        if v.get(mid + 1) < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}
"#;

/// The `gen-mixed` halving template reading one past the probe: with
/// `lo == n - 1` and `hi == n`, `mid + 1 == n`.  Both verifiers verify it.
#[test]
#[ignore = "known defect: both verifiers verify an out-of-bounds read"]
fn both_verifiers_reject_halving_reading_past_the_probe() {
    assert!(!flux_safe(HALVING_FLUX), "Flux verified it");
    assert!(!baseline_safe(HALVING_BASELINE), "the baseline verified it");
}

/// The same template with `while lo <= hi`: at `lo == hi == n` the probe
/// reads `v.get(n)`.  Both verifiers verify it.
#[test]
#[ignore = "known defect: both verifiers verify an out-of-bounds read"]
fn both_verifiers_reject_halving_with_inclusive_guard() {
    let flux = HALVING_FLUX
        .replace("v.get(mid + 1)", "v.get(mid)")
        .replace("lo < hi", "lo <= hi");
    let baseline = HALVING_BASELINE
        .replace("v.get(mid + 1)", "v.get(mid)")
        .replace("lo < hi", "lo <= hi");
    assert!(!flux_safe(&flux), "Flux verified it");
    assert!(!baseline_safe(&baseline), "the baseline verified it");
}

/// A safe halving search that establishes `K <= n` by an early return.  The
/// baseline cannot prove `lo <= hi` on loop entry (Flux verifies it).
#[test]
#[ignore = "known defect: the baseline rejects a safe program"]
fn baseline_verifies_halving_after_early_return() {
    let src = r#"
#[ensures(result <= vlen(v))]
fn search(v: RVec<i32>, t: i32) -> usize {
    if v.len() < 1234 {
        return 0;
    }
    let mut lo = 1234;
    let mut hi = v.len();
    while lo < hi {
        invariant!(0 <= lo);
        invariant!(lo <= hi);
        invariant!(hi <= vlen(v));
        let mid = (lo + hi) / 2;
        if v.get(mid) < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}
"#;
    assert!(baseline_safe(src));
}
