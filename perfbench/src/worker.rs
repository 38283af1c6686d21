//! The verifier process.  Every pass of every batch workload runs in a
//! fresh one, so process-global caches start empty, as they do for a batch
//! user.  The process prints `ready` as soon as it can take a
//! verification, runs one pass, and prints one JSON line with verdicts,
//! times, counters and spans.

use crate::gen::{self, Flavour};
use crate::known::{self, mode_name, parse_mode, Mode};
use crate::report::{num, Counters};
use crate::trace::Tracer;
use flux_bench::json::quote;
use flux_check::checker::Generator;
use flux_check::{check_program, CheckConfig};
use flux_fixpoint::{FixConfig, FixResult, FixStats, FixpointSolver};
use flux_ir::ResolvedProgram;
use flux_logic::SortCtx;
use std::io::Write;
use std::time::Instant;

/// What a pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The measured pass: the user-facing entry points at their defaults.
    Plain,
    /// The traced pass: every pipeline stage called on its own, with one
    /// solver per program and one thread, so counts repeat exactly.
    Staged,
    /// `check_program` at its default width, for the fan-out figures.
    Fanout,
}

impl Kind {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Staged => "staged",
            Kind::Fanout => "fanout",
        }
    }

    /// Parses [`Kind::name`].
    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Plain, Kind::Staged, Kind::Fanout]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// Which inputs a pass verifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// The eight Table 1 programs, in suite order.
    Corpus,
    /// The `gen-mixed` programs of a seed.
    Gen(u64),
}

/// One pass, as the parent asks for it on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// The inputs.
    pub input: Input,
    /// The verifier.
    pub mode: Mode,
    /// What the pass runs.
    pub kind: Kind,
    /// Whether spans are recorded.
    pub trace: bool,
}

impl Job {
    /// The worker's command-line arguments for this job.
    pub fn args(&self) -> Vec<String> {
        let input = match self.input {
            Input::Corpus => "corpus".to_string(),
            Input::Gen(seed) => format!("gen:{seed}"),
        };
        vec![
            "worker".into(),
            input,
            mode_name(self.mode).into(),
            self.kind.name().into(),
            if self.trace { "trace" } else { "notrace" }.into(),
        ]
    }

    /// Parses [`Job::args`] (without the leading `worker`).
    pub fn parse(args: &[String]) -> Option<Job> {
        let [input, mode, kind, trace] = args else {
            return None;
        };
        let input = match input.strip_prefix("gen:") {
            Some(seed) => Input::Gen(seed.parse().ok()?),
            None if input == "corpus" => Input::Corpus,
            None => return None,
        };
        Some(Job {
            input,
            mode: parse_mode(mode)?,
            kind: Kind::parse(kind)?,
            trace: match trace.as_str() {
                "trace" => true,
                "notrace" => false,
                _ => return None,
            },
        })
    }
}

/// A verdict as the benchmark compares it with a known answer, ordered
/// from best to worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Verified.
    Safe,
    /// Rejected.
    Unsafe,
    /// Inconclusive (a budget ran out or a worker panicked).
    Unknown,
    /// The front end failed.
    Error,
}

impl Verdict {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Unsafe => "unsafe",
            Verdict::Unknown => "unknown",
            Verdict::Error => "error",
        }
    }

    /// Parses [`Verdict::name`].
    pub fn parse(s: &str) -> Option<Verdict> {
        [
            Verdict::Safe,
            Verdict::Unsafe,
            Verdict::Unknown,
            Verdict::Error,
        ]
        .into_iter()
        .find(|v| v.name() == s)
    }
}

/// One input of a pass: a program and its source in the pass's flavour.
struct Program {
    name: String,
    source: String,
}

fn programs(job: &Job) -> Vec<Program> {
    match job.input {
        Input::Corpus => known::corpus(job.mode)
            .into_iter()
            .map(|(name, source, _)| Program {
                name: name.to_string(),
                source: source.to_string(),
            })
            .collect(),
        Input::Gen(seed) => {
            let flavour = match job.mode {
                Mode::Flux => Flavour::Flux,
                Mode::Baseline => Flavour::Baseline,
            };
            gen::generate(seed)
                .into_iter()
                .enumerate()
                .map(|(i, p)| Program {
                    name: format!("gen{i}"),
                    source: p.source(flavour).to_string(),
                })
                .collect()
        }
    }
}

/// The verdicts of one program: per function where the entry point reports
/// them, else one whole-program verdict under the name `*`.
type FnVerdicts = Vec<(String, Verdict)>;

/// Process-global counters read before and after a pass.
struct Globals {
    nodes: usize,
    memo_evictions: u64,
    cnf_evictions: u64,
    hcons_contentions: u64,
    validity_contentions: u64,
    cnf_contentions: u64,
}

impl Globals {
    fn read() -> Globals {
        Globals {
            nodes: flux_logic::interned_nodes(),
            memo_evictions: flux_logic::hcons_memo_evictions(),
            cnf_evictions: flux_smt::cnf_cache_evictions(),
            hcons_contentions: flux_logic::hcons_contentions(),
            validity_contentions: flux_fixpoint::validity_shard_contentions(),
            cnf_contentions: flux_smt::cnf_shard_contentions(),
        }
    }
}

/// Runs the worker: `args` are the arguments after `worker`.
/// `worker ready` only reports ready and exits: a set-up measurement.
pub fn main(args: &[String]) -> i32 {
    let job = Job::parse(args);
    if job.is_none() && args != ["ready"] {
        eprintln!("perfbench worker: bad job {args:?}");
        return 2;
    }
    let mut out = std::io::stdout();
    // Ready: the process is up and can take its first verification.
    if writeln!(out, "ready").and_then(|()| out.flush()).is_err() {
        return 1;
    }
    let Some(job) = job else { return 0 };
    let inputs = programs(&job);
    let mut tracer = Tracer::new(job.trace);
    let mut counters = Counters::default();
    let before = Globals::read();
    let start = Instant::now();
    let mut results = Vec::new();
    for (req, p) in inputs.iter().enumerate() {
        let req = req as u64 + 1;
        let t = Instant::now();
        tracer.begin("request", req);
        let verdicts = match (job.kind, job.mode) {
            (Kind::Plain, Mode::Flux) => plain_flux(job.input, &p.source),
            (Kind::Plain, Mode::Baseline) => plain_baseline(job.input, &p.source),
            (Kind::Staged, Mode::Flux) => staged_flux(&p.source, req, &mut tracer, &mut counters),
            (Kind::Staged, Mode::Baseline) => {
                staged_baseline(&p.source, req, &mut tracer, &mut counters)
            }
            (Kind::Fanout, _) => fanout(&p.source, req, &mut tracer, &mut counters),
        };
        tracer.end();
        let verdicts = match job.input {
            Input::Corpus => whole_program(verdicts),
            Input::Gen(_) => verdicts,
        };
        results.push((p.name.as_str(), t.elapsed().as_secs_f64() * 1e3, verdicts));
    }
    let pass_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = Globals::read();
    if job.kind != Kind::Plain {
        counters.add("logic.nodes_added", (after.nodes - before.nodes) as f64);
        counters.add(
            "logic.memo_evictions",
            (after.memo_evictions - before.memo_evictions) as f64,
        );
        counters.add(
            "smt.cnf_evictions",
            (after.cnf_evictions - before.cnf_evictions) as f64,
        );
        counters.add(
            "logic.contentions",
            (after.hcons_contentions - before.hcons_contentions) as f64,
        );
        counters.add(
            "fixpoint.validity_contentions",
            (after.validity_contentions - before.validity_contentions) as f64,
        );
        counters.add(
            "smt.cnf_contentions",
            (after.cnf_contentions - before.cnf_contentions) as f64,
        );
        counters.add(
            "fixpoint.validity_len",
            flux_fixpoint::global_cache().len() as f64,
        );
        counters.add("smt.cnf_len", flux_smt::cnf_cache_len() as f64);
    }
    let programs: Vec<String> = results
        .iter()
        .map(|(name, ms, verdicts)| {
            let fns: Vec<String> = verdicts
                .iter()
                .map(|(f, v)| format!("[{},\"{}\"]", quote(f), v.name()))
                .collect();
            format!(
                "{{\"name\":{},\"ms\":{},\"fns\":[{}]}}",
                quote(name),
                num(*ms),
                fns.join(",")
            )
        })
        .collect();
    let spans: Vec<String> = tracer
        .spans()
        .iter()
        .map(|s| {
            format!(
                "[{},{},{},{},{}]",
                quote(&s.name),
                s.req,
                s.parent.map_or(-1, |p| p as i64),
                num(s.start_us),
                num(s.end_us)
            )
        })
        .collect();
    let line = format!(
        "{{\"pass_ms\":{},\"rss_mb\":{},\"programs\":[{}],\"counters\":{},\"spans\":[{}]}}",
        num(pass_ms),
        num(peak_rss_mb(None).unwrap_or(0.0)),
        programs.join(","),
        counters.to_json(),
        spans.join(",")
    );
    match writeln!(out, "{line}").and_then(|()| out.flush()) {
        Ok(()) => 0,
        Err(_) => 1,
    }
}

/// Peak resident memory (`VmHWM`) of a process, in MB: this process for
/// `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Folds per-function verdicts into the one whole-program verdict the
/// corpus's known answers give: safe only if every function is.
fn whole_program(verdicts: FnVerdicts) -> FnVerdicts {
    let worst = verdicts
        .iter()
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(Verdict::Error);
    vec![("*".to_string(), worst)]
}

fn error_verdict() -> FnVerdicts {
    vec![("*".to_string(), Verdict::Error)]
}

/// The measured Flux pass: `flux::verify_source` for the corpus (what a
/// batch user calls); the same pipeline through `flux_check::check_source`
/// for generated programs, whose known answers are per function.
fn plain_flux(input: Input, source: &str) -> FnVerdicts {
    match input {
        Input::Corpus => {
            let config = flux::VerifyConfig::default();
            match flux::verify_source(source, flux::Mode::Flux, &config) {
                Ok(o) if o.stats.unknowns > 0 => vec![("*".to_string(), Verdict::Unknown)],
                Ok(o) if o.safe => vec![("*".to_string(), Verdict::Safe)],
                Ok(_) => vec![("*".to_string(), Verdict::Unsafe)],
                Err(_) => error_verdict(),
            }
        }
        Input::Gen(_) => match flux_check::check_source(source, &CheckConfig::default()) {
            Ok(report) => report
                .functions
                .iter()
                .map(|f| (f.name.clone(), fn_verdict(f.is_safe(), f.is_unknown())))
                .collect(),
            Err(_) => error_verdict(),
        },
    }
}

/// The measured baseline pass, shaped like [`plain_flux`].
fn plain_baseline(input: Input, source: &str) -> FnVerdicts {
    match flux_wp::verify_source(source, &flux_wp::WpConfig::default()) {
        Ok(report) => match input {
            Input::Corpus => {
                let unknown = report.functions.iter().any(|f| f.unknowns > 0);
                vec![("*".to_string(), fn_verdict(report.is_safe(), unknown))]
            }
            Input::Gen(_) => report
                .functions
                .iter()
                .map(|f| (f.name.clone(), fn_verdict(f.is_safe(), f.unknowns > 0)))
                .collect(),
        },
        Err(_) => error_verdict(),
    }
}

fn fn_verdict(safe: bool, unknown: bool) -> Verdict {
    if unknown {
        Verdict::Unknown
    } else if safe {
        Verdict::Safe
    } else {
        Verdict::Unsafe
    }
}

fn parse_and_resolve(
    source: &str,
    req: u64,
    tracer: &mut Tracer,
) -> Option<(flux_syntax::Program, ResolvedProgram)> {
    let program = tracer.span("syntax.parse_program", req, || {
        flux_syntax::parse_program(source)
    });
    let program = program.ok()?;
    let resolved = tracer.span("ir.ResolvedProgram::resolve", req, || {
        ResolvedProgram::resolve(&program)
    });
    Some((program, resolved.ok()?))
}

fn checked_fns(resolved: &ResolvedProgram) -> Vec<String> {
    resolved
        .iter()
        .filter(|f| !f.def.trusted)
        .map(|f| f.def.name.clone())
        .collect()
}

/// The traced Flux pass: each stage on its own, one solver per program as
/// `check_program`'s sequential loop uses, with one thread at both levels.
fn staged_flux(source: &str, req: u64, tracer: &mut Tracer, counters: &mut Counters) -> FnVerdicts {
    let Some((_, resolved)) = parse_and_resolve(source, req, tracer) else {
        return error_verdict();
    };
    let mut solver = FixpointSolver::new(FixConfig {
        threads: 1,
        ..FixConfig::default()
    });
    let mut fix = FixStats::default();
    let mut verdicts = Vec::new();
    for name in checked_fns(&resolved) {
        let generated = tracer.span("check.Generator::gen_function", req, || {
            Generator::new(&resolved).gen_function(&name)
        });
        let verdict = match generated {
            Err(_) => Verdict::Unsafe,
            Ok(gen) => {
                let result = tracer.span("fixpoint.FixpointSolver::solve", req, || {
                    solver.solve(&gen.constraint, &gen.kvars, &SortCtx::new())
                });
                fix.absorb(&solver.stats);
                match result {
                    FixResult::Safe(_) => Verdict::Safe,
                    FixResult::Unsafe { .. } => Verdict::Unsafe,
                    FixResult::Unknown { .. } => Verdict::Unknown,
                }
            }
        };
        verdicts.push((name, verdict));
    }
    let smt = solver.smt_stats();
    for (key, value) in [
        ("fixpoint.queries", fix.smt_queries),
        ("fixpoint.cache_hits", fix.cache_hits),
        ("fixpoint.iterations", fix.iterations),
        ("fixpoint.model_prunes", fix.model_prunes),
        ("fixpoint.sessions", fix.sessions),
        ("fixpoint.evictions", fix.evictions),
        ("check.clauses", fix.clauses),
        ("check.kvars", fix.kvars),
        ("smt.sat_rounds", smt.sat_rounds),
        ("smt.theory_checks", smt.theory_checks),
        ("smt.pivots", smt.pivots),
        ("smt.propagations", smt.propagations),
        ("smt.sat_reuse", smt.sat_reuse),
        ("smt.retractions", smt.conjunct_retractions),
    ] {
        counters.add(key, value as f64);
    }
    let rejected = verdicts
        .iter()
        .filter(|(_, v)| *v == Verdict::Unsafe)
        .count();
    counters.add("check.rejected_fns", rejected as f64);
    verdicts
}

/// The traced baseline pass: parse, then `flux_wp::verify_program`.
fn staged_baseline(
    source: &str,
    req: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> FnVerdicts {
    let program = tracer.span("syntax.parse_program", req, || {
        flux_syntax::parse_program(source)
    });
    let Ok(program) = program else {
        return error_verdict();
    };
    let report = tracer.span("wp.verify_program", req, || {
        flux_wp::verify_program(&program, &flux_wp::WpConfig::default())
    });
    for f in &report.functions {
        counters.add("wp.queries", f.queries as f64);
        counters.add("smt.quant_instances", f.quant_instances as f64);
    }
    report
        .functions
        .iter()
        .map(|f| (f.name.clone(), fn_verdict(f.is_safe(), f.unknowns > 0)))
        .collect()
}

/// `check_program` at its default width, for the function fan-out figures.
fn fanout(source: &str, req: u64, tracer: &mut Tracer, counters: &mut Counters) -> FnVerdicts {
    let Some((_, resolved)) = parse_and_resolve(source, req, tracer) else {
        return error_verdict();
    };
    let report = tracer.span("check.check_program", req, || {
        check_program(&resolved, &CheckConfig::default())
    });
    let wall_ms = report.wall_time.as_secs_f64() * 1e3;
    let sum_ms = report.total_time().as_secs_f64() * 1e3;
    counters.add("check.fn_wall_ms", wall_ms);
    counters.add("check.fn_sum_ms", sum_ms);
    counters.add("check.fn_capacity_ms", wall_ms * report.fn_threads as f64);
    report
        .functions
        .iter()
        .map(|f| (f.name.clone(), fn_verdict(f.is_safe(), f.is_unknown())))
        .collect()
}
