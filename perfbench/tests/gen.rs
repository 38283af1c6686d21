//! Tests of the `gen-mixed` generator.

use flux_check::{check_program, CheckConfig};
use flux_ir::ResolvedProgram;
use perfbench::gen::{generate, render_fn, Family, Flavour, GenFn};
use std::collections::BTreeSet;

#[test]
fn same_seed_gives_byte_identical_programs() {
    assert_eq!(generate(7), generate(7));
    assert_ne!(generate(7), generate(8));
}

#[test]
fn every_program_plants_its_share_and_every_family_equally_often() {
    use perfbench::gen::{FNS_PER_PROGRAM, PLANTED_PER_PROGRAM, PROGRAMS};
    for seed in [1, 2, 3] {
        let programs = generate(seed);
        assert_eq!(programs.len(), PROGRAMS);
        let mut per_family = [0usize; 4];
        for p in &programs {
            assert_eq!(p.fns.len(), FNS_PER_PROGRAM);
            assert_eq!(
                p.fns.iter().filter(|f| f.planted).count(),
                PLANTED_PER_PROGRAM
            );
            for f in p.fns.iter().filter(|f| f.planted) {
                assert!(f.family.can_plant());
                per_family[Family::ALL.iter().position(|&g| g == f.family).unwrap()] += 1;
            }
        }
        let planted: Vec<usize> = per_family.into_iter().filter(|&n| n > 0).collect();
        let spread = planted.iter().max().unwrap() - planted.iter().min().unwrap();
        assert!(
            spread <= PLANTED_PER_PROGRAM / 2,
            "seed {seed}: {planted:?}"
        );
    }
}

fn constants(seed: u64) -> BTreeSet<u64> {
    generate(seed)
        .iter()
        .flat_map(|p| p.fns.iter().map(|f| f.constant))
        .collect()
}

#[test]
fn two_seeds_share_no_constants() {
    for (a, b) in [(1, 2), (1, 3), (2, 3), (0, 1), (5, 4100), (41, 42)] {
        let shared: Vec<u64> = constants(a).intersection(&constants(b)).copied().collect();
        assert!(shared.is_empty(), "seeds {a} and {b} share {shared:?}");
    }
    // ... and within a seed, every function has its own constant.
    let all: Vec<u64> = generate(3)
        .iter()
        .flat_map(|p| p.fns.iter().map(|f| f.constant))
        .collect();
    assert_eq!(all.len(), constants(3).len());
}

fn flux_safe(src: &str) -> bool {
    let program = flux_syntax::parse_program(src).expect("generated source parses");
    let resolved = ResolvedProgram::resolve(&program).expect("generated source resolves");
    let report = check_program(&resolved, &CheckConfig::default());
    assert_eq!(
        report.functions.iter().filter(|f| f.is_unknown()).count(),
        0
    );
    report.is_safe()
}

fn baseline_safe(src: &str) -> bool {
    let program = flux_syntax::parse_program(src).expect("generated source parses");
    let report = flux_wp::verify_program(&program, &flux_wp::WpConfig::default());
    assert!(report.functions.iter().all(|f| f.unknowns == 0));
    report.is_safe()
}

#[test]
fn every_family_gets_its_known_verdict_in_both_flavours() {
    let mut wrong = Vec::new();
    for family in Family::ALL {
        for planted in [false, true]
            .into_iter()
            .filter(|&p| !p || family.can_plant())
        {
            let f = GenFn {
                name: "probe".to_string(),
                family,
                constant: 1234,
                planted,
            };
            let flux = render_fn(&f, Flavour::Flux);
            if flux_safe(&flux) == planted {
                wrong.push(format!("flux {family:?} planted={planted}:\n{flux}"));
            }
            let baseline = render_fn(&f, Flavour::Baseline);
            if baseline_safe(&baseline) == planted {
                wrong.push(format!(
                    "baseline {family:?} planted={planted}:\n{baseline}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "wrong verdicts:\n{}", wrong.join("\n"));
}
