//! The `gen-mixed` program generator.
//!
//! A generated program is a file of small, independent functions, each an
//! instance of one of four template families that follow the paper's
//! vector idioms.  Every instance carries its own seeded constant `K` in
//! its index arithmetic, so no two functions (and no two seeds) issue the
//! same queries.  A fixed share of the functions carries one planted
//! off-by-one; which ones is seeded.  The known verdict of every function
//! therefore follows from its construction, in both flavours: the Flux
//! flavour carries refined signatures only, the baseline flavour carries
//! contracts plus the loop invariants the program-logic verifier needs.

/// The template families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// An index loop over an `RVec`, reading at an offset.
    IndexLoop,
    /// An `init_zeros`-style loop that pushes onto a fresh vector.
    PushLoop,
    /// A loop over two vectors of the same length.
    TwoVecs,
    /// A halving (binary) search over a suffix of a vector (never planted;
    /// see [`Family::can_plant`]).
    Halving,
}

impl Family {
    /// Every family, in a fixed order.
    pub const ALL: [Family; 4] = [
        Family::IndexLoop,
        Family::PushLoop,
        Family::TwoVecs,
        Family::Halving,
    ];

    /// Whether the family has a planted variant.  The halving family has
    /// none: every off-by-one tried in it (`hi = len + 1`, `lo <= hi`,
    /// `get(mid + 1)`) is verified by at least one verifier although it can
    /// index out of bounds, so its known answer would be wrong by the
    /// verifiers' defect, not by construction.  `tests/known_defects.rs`
    /// keeps those programs.
    pub fn can_plant(self) -> bool {
        self != Family::Halving
    }

    fn stem(self) -> &'static str {
        match self {
            Family::IndexLoop => "sum",
            Family::PushLoop => "fill",
            Family::TwoVecs => "dot",
            Family::Halving => "search",
        }
    }
}

/// Which verifier a source flavour is written for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavour {
    /// Refined signatures, no invariants.
    Flux,
    /// Contracts plus `invariant!` annotations.
    Baseline,
}

/// One generated function and its known verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenFn {
    /// The function's name (unique within its seed).
    pub name: String,
    /// Its template family.
    pub family: Family,
    /// The function's seeded constant.
    pub constant: u64,
    /// True when the function carries a planted off-by-one, so both
    /// verifiers must reject it.
    pub planted: bool,
}

/// One generated program: its functions in both flavours.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenProgram {
    /// The functions, in source order.
    pub fns: Vec<GenFn>,
    /// Source for the Flux verifier.
    pub flux_src: String,
    /// Source for the baseline verifier.
    pub baseline_src: String,
}

impl GenProgram {
    /// The source of the given flavour.
    pub fn source(&self, flavour: Flavour) -> &str {
        match flavour {
            Flavour::Flux => &self.flux_src,
            Flavour::Baseline => &self.baseline_src,
        }
    }
}

/// Programs per `gen-mixed` pass.
pub const PROGRAMS: usize = 20;
/// Functions per generated program: four of each family.
pub const FNS_PER_PROGRAM: usize = 16;
/// Instances of each family in a program.
const PER_FAMILY: usize = FNS_PER_PROGRAM / Family::ALL.len();
/// Planted off-by-ones per generated program: half the instances of every
/// plantable family but one (see [`generate`]), a quarter of the program.
pub const PLANTED_PER_PROGRAM: usize = 4;

/// Constants of one seed lie in `[base, base + CONSTANTS_PER_SEED)`, with
/// `base` a distinct multiple for each seed modulo `SEED_SLOTS`; so two
/// seeds that differ modulo `SEED_SLOTS` share no constant.
pub const CONSTANTS_PER_SEED: u64 = 1024;
/// See [`CONSTANTS_PER_SEED`].
pub const SEED_SLOTS: u64 = 4096;

/// The first constant a seed may use.
pub fn constant_base(seed: u64) -> u64 {
    1000 + (seed % SEED_SLOTS) * CONSTANTS_PER_SEED
}

/// SplitMix64: a small, fixed, seedable generator, so a seed names the same
/// inputs on every host and toolchain.  The benchmark keeps its own rather
/// than `flux_smt::testing::Rng`, so a change to the code under test cannot
/// change the inputs it is measured on.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F1A5_0000_0000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generates the `gen-mixed` input set of `seed`: [`PROGRAMS`] programs of
/// [`FNS_PER_PROGRAM`] functions each, four of every family in seeded order,
/// [`PLANTED_PER_PROGRAM`] of them planted at seeded positions.  Every seed
/// plants each family equally often (up to one), so pass times are
/// comparable across seeds.
pub fn generate(seed: u64) -> Vec<GenProgram> {
    let mut rng = Rng::new(seed);
    let base = constant_base(seed);
    let mut next_constant = 0u64;
    let plantable: Vec<Family> = Family::ALL.into_iter().filter(|f| f.can_plant()).collect();
    let offset = rng.below(plantable.len());
    let mut programs = Vec::with_capacity(PROGRAMS);
    for p in 0..PROGRAMS {
        let mut families: Vec<Family> = Family::ALL
            .iter()
            .flat_map(|&f| std::iter::repeat_n(f, PER_FAMILY))
            .collect();
        rng.shuffle(&mut families);
        // Plant half the instances of every plantable family but one,
        // rotating the family left out, so every seed plants each family
        // equally often and seeds differ in positions, not in the work.
        let skipped = plantable[(p + offset) % plantable.len()];
        let mut planted = vec![false; FNS_PER_PROGRAM];
        for &family in plantable.iter().filter(|&&f| f != skipped) {
            let mut instances: Vec<usize> = (0..FNS_PER_PROGRAM)
                .filter(|&i| families[i] == family)
                .collect();
            rng.shuffle(&mut instances);
            for &i in &instances[..PER_FAMILY / 2] {
                planted[i] = true;
            }
        }
        let fns: Vec<GenFn> = families
            .into_iter()
            .zip(planted)
            .enumerate()
            .map(|(i, (family, planted))| {
                let constant = base + next_constant;
                next_constant += 1;
                GenFn {
                    name: format!("{}_{p}_{i}", family.stem()),
                    family,
                    constant,
                    planted,
                }
            })
            .collect();
        assert!(
            next_constant <= CONSTANTS_PER_SEED,
            "a seed's constants must stay inside its slot"
        );
        programs.push(GenProgram {
            flux_src: render_program(&fns, Flavour::Flux),
            baseline_src: render_program(&fns, Flavour::Baseline),
            fns,
        });
    }
    programs
}

fn render_program(fns: &[GenFn], flavour: Flavour) -> String {
    let mut out = String::new();
    for f in fns {
        out.push_str(&render_fn(f, flavour));
        out.push('\n');
    }
    out
}

/// Renders one function in one flavour.  Each family writes a safe body;
/// `planted` swaps in exactly one off-by-one, whose known verdict is
/// "rejected" under both verifiers.
pub fn render_fn(f: &GenFn, flavour: Flavour) -> String {
    let name = &f.name;
    let k = f.constant;
    let flux = flavour == Flavour::Flux;
    // `inv` lines are the baseline's loop invariants; Flux infers them.
    let inv = |lines: &[&str]| -> String {
        if flux {
            String::new()
        } else {
            lines
                .iter()
                .map(|l| format!("        invariant!({l});\n"))
                .collect()
        }
    };
    match f.family {
        Family::IndexLoop => {
            let guard = if f.planted { "<=" } else { "<" };
            let head = if flux {
                format!(
                    "#[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]\nfn {name}(v: &RVec<i32>) -> i32"
                )
            } else {
                format!("fn {name}(v: RVec<i32>) -> i32")
            };
            let inv = inv(&["0 <= i"]);
            format!(
                "{head} {{
    let mut s = 0;
    let mut i = 0;
    while i + {k} {guard} v.len() {{
{inv}        s = s + v.get(i + {k});
        i += 1;
    }}
    s
}}
"
            )
        }
        Family::PushLoop => {
            let guard = if f.planted { "<=" } else { "<" };
            let (head, decl) = if flux {
                (
                    "#[flux::sig(fn(usize[@n]) -> RVec<i32>[n])]",
                    "let mut vec: RVec<i32> = RVec::new();",
                )
            } else {
                (
                    "#[ensures(vlen(result) == n)]",
                    "let mut vec = RVec::new();",
                )
            };
            let inv = inv(&["i >= 0", "i <= n", "vlen(vec) == i"]);
            format!(
                "{head}
fn {name}(n: usize) -> RVec<i32> {{
    {decl}
    let mut i = 0;
    while i + {k} {guard} n + {k} {{
{inv}        vec.push(0);
        i += 1;
    }}
    vec
}}
"
            )
        }
        Family::TwoVecs => {
            let off = if f.planted { " + 1" } else { "" };
            let head = if flux {
                format!(
                    "#[flux::sig(fn(a: &RVec<i32>[@n], b: &RVec<i32>[n]) -> i32)]\n\
                     fn {name}(a: &RVec<i32>, b: &RVec<i32>) -> i32"
                )
            } else {
                format!(
                    "#[requires(vlen(a) == vlen(b))]\nfn {name}(a: RVec<i32>, b: RVec<i32>) -> i32"
                )
            };
            let inv = inv(&["0 <= i", "vlen(a) == vlen(b)"]);
            format!(
                "{head} {{
    let mut s = 0;
    let mut i = 0;
    while i + {k} < a.len() {{
{inv}        s = s + a.get(i + {k}) * b.get(i + {k}{off});
        i += 1;
    }}
    s
}}
"
            )
        }
        Family::Halving => {
            assert!(!f.planted, "the halving family has no planted variant");
            let head = if flux {
                format!(
                    "#[flux::sig(fn(v: &RVec<i32>[@n], usize{{s: s + {k} <= n}}, i32) -> usize{{r: r <= n}})]\n\
                     fn {name}(v: &RVec<i32>, s: usize, t: i32) -> usize"
                )
            } else {
                format!(
                    "#[requires(s + {k} <= vlen(v))]\n\
                     #[ensures(result <= vlen(v))]\n\
                     fn {name}(v: RVec<i32>, s: usize, t: i32) -> usize"
                )
            };
            let inv = inv(&["0 <= lo", "lo <= hi", "hi <= vlen(v)"]);
            format!(
                "{head} {{
    let mut lo = s + {k};
    let mut hi = v.len();
    while lo < hi {{
{inv}        let mid = (lo + hi) / 2;
        if v.get(mid) < t {{
            lo = mid + 1;
        }} else {{
            hi = mid;
        }}
    }}
    lo
}}
"
            )
        }
    }
}
