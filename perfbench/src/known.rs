//! Known answers for the Table 1 corpus.
//!
//! Written by hand from the paper's Table 1, where every program verifies
//! in both its Flux and its baseline flavour.  The table is independent of
//! the verifier's own expectation matrix (`flux_suite::expect_verifies`),
//! so a change to that matrix cannot silently change what the benchmark
//! accepts.  `gen-mixed` answers come from the generator's construction
//! (see `gen::GenFn::planted`).

/// `(program, Flux flavour verifies, baseline flavour verifies)`, in suite
/// order.
pub const CORPUS: [(&str, bool, bool); 8] = [
    ("bsearch", true, true),
    ("dotprod", true, true),
    ("fft", true, true),
    ("heapsort", true, true),
    ("simplex", true, true),
    ("kmeans", true, true),
    ("kmp", true, true),
    ("wave", true, true),
];

pub use flux::Mode;

/// Both verifiers, Flux first.
pub const MODES: [Mode; 2] = [Mode::Flux, Mode::Baseline];

/// The name of a mode on the command line and in the `fluxd` protocol.
pub fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Flux => "flux",
        Mode::Baseline => "baseline",
    }
}

/// Parses [`mode_name`].
pub fn parse_mode(s: &str) -> Option<Mode> {
    MODES.into_iter().find(|&m| mode_name(m) == s)
}

/// One corpus input: its name, source and known verdict in `mode`.
pub fn corpus(mode: Mode) -> Vec<(&'static str, &'static str, bool)> {
    CORPUS
        .iter()
        .map(|&(name, flux, baseline)| {
            let b =
                flux_suite::benchmark(name).expect("every known-answer row names a suite program");
            match mode {
                Mode::Flux => (name, b.flux_src, flux),
                Mode::Baseline => (name, b.baseline_src, baseline),
            }
        })
        .collect()
}
