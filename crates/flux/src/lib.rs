//! The top-level Flux library: a single entry point over the whole pipeline
//! (parse → desugar → refinement checking → liquid inference), the
//! program-logic baseline it is evaluated against, and the Table 1 harness.
//!
//! # Quick start
//!
//! ```
//! use flux::{verify_source, Mode, VerifyConfig};
//!
//! let src = r#"
//!     #[flux::sig(fn(usize[@n]) -> usize[n])]
//!     fn count_up(n: usize) -> usize {
//!         let mut i = 0;
//!         while i < n {
//!             i += 1;
//!         }
//!         i
//!     }
//! "#;
//! let outcome = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
//! assert!(outcome.safe);
//! assert_eq!(outcome.annot_lines, 0); // liquid inference needs no loop invariants
//! ```

#![warn(missing_docs)]

use flux_syntax::SourceMetrics;
use std::time::Duration;

pub use flux_check::{CheckConfig, Report as FluxReport};
pub use flux_fixpoint::{FixConfig, FixStats};
pub use flux_smt::SmtStats;
pub use flux_suite::{benchmark, benchmarks, library, Benchmark};
pub use flux_wp::{WpConfig, WpReport};

/// Which verifier to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The Flux pipeline: refinement types plus liquid inference.
    Flux,
    /// The Prusti-style program-logic baseline: contracts plus user-written
    /// loop invariants discharged with quantifier instantiation.
    Baseline,
}

/// Configuration for [`verify_source`].
#[derive(Clone, Debug, Default)]
pub struct VerifyConfig {
    /// Configuration of the Flux checker.
    pub check: CheckConfig,
    /// Configuration of the baseline verifier.
    pub wp: WpConfig,
}

/// End-to-end statistics of the incremental query engine for one
/// verification run, aggregated over all functions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Validity queries requested by the verifier (including cache hits).
    pub smt_queries: usize,
    /// Queries answered from the fixpoint validity cache.
    pub cache_hits: usize,
    /// Cache hits served by an entry another function's solve created (the
    /// cache is shared across all functions of one verification run).
    pub cross_fn_hits: usize,
    /// Cache hits served by an entry a *different* solver instance created
    /// (cross-benchmark sharing through the process-global verdict cache).
    pub xbench_hits: usize,
    /// Queries that reached the SMT engine.
    pub cache_misses: usize,
    /// Candidates dropped by counter-model evaluation instead of a
    /// per-candidate SMT query (Flux weakening loop only).
    pub model_prunes: usize,
    /// Solver sessions opened.
    pub sessions: usize,
    /// Goal checks discharged on a session's persistent CDCL core (clause
    /// database and learned clauses retained from an earlier goal).
    pub sat_reuse: usize,
    /// SAT-core invocations inside the engine.
    pub sat_rounds: usize,
    /// Theory (LIA) checks inside the engine.
    pub theory_checks: usize,
    /// Simplex pivots across all theory checks.
    pub pivots: usize,
    /// Literals assigned by SAT unit propagation.
    pub propagations: usize,
    /// Watcher visits answered by the cached blocking literal alone,
    /// without touching the clause.
    pub blocked_visits: usize,
    /// Learned-clause-database reductions performed by the SAT cores.
    pub db_reductions: usize,
    /// Simplex column traversals driven by the occurrence lists.
    pub col_scans: usize,
    /// Hypothesis conjuncts retracted from live sessions instead of
    /// rebuilding the session when a depended-on κ weakened (Flux
    /// weakening loop only).
    pub conjunct_retractions: usize,
    /// Quantifier instances generated (baseline verifier only).
    pub quant_instances: usize,
    /// Width of the function fan-out in `check_program`
    /// ([`flux_fixpoint::FixConfig::threads`], clamped to the function
    /// count; Flux mode only — the baseline reports 1).
    pub fn_threads: usize,
    /// Per-function wall-clock check times in milliseconds, in source order
    /// (the `fn_parallel` column: where the wall-clock went under the
    /// function fan-out; Flux mode only, empty for the baseline).
    pub fn_times_ms: Vec<usize>,
    /// Times a thread found a process-global cache-shard lock (validity
    /// shards, CNF shards, hcons interner) held by another thread during
    /// the run — the mutex-convoying diagnostic for the sharded caches.
    /// One difference of the global counters around the whole check
    /// ([`flux_check::Report::shard_contention`]), so concurrent solves are
    /// not double-counted.  Near zero in sequential runs.
    pub shard_contention: usize,
    /// Obligations sort-/scope-checked by the audit lint (zero unless the
    /// audit tier is at least `lint`; see `FLUX_AUDIT`).
    pub lint_checks: usize,
    /// Theory certificates checked by the SMT engine — Farkas-validated
    /// infeasible cores, evaluated models, SAT invariant sweeps (zero
    /// unless the audit tier is `full`).
    pub certs_checked: usize,
    /// Clauses independently re-validated after fixpoint convergence (zero
    /// unless the audit tier is `full`; Flux mode only).
    pub revalidations: usize,
    /// Functions whose solve degraded to an inconclusive result because a
    /// deadline or step budget ran out or the solve panicked (zero under the
    /// default unlimited budgets; Flux mode only — the baseline reports
    /// budget stops through `budget_exhausted`).
    pub unknowns: usize,
    /// Cache entries evicted during the run (hash-consing memos, CNF memos
    /// and validity-cache entries combined; zero unless `FLUX_CACHE_CAP`
    /// bounds the caches; Flux mode only).
    pub evictions: usize,
    /// Times a solver component stopped early because its resource budget
    /// was exhausted (SAT decision/conflict caps, theory-round deadlines).
    pub budget_exhausted: usize,
}

/// The outcome of verifying one source file with one of the verifiers.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Which verifier produced this outcome.
    pub mode: Mode,
    /// True if every function verified.
    pub safe: bool,
    /// Human-readable error messages for failed obligations.
    pub errors: Vec<String>,
    /// Wall-clock verification time.
    pub time: Duration,
    /// Number of functions verified.
    pub functions: usize,
    /// Lines of code (excluding specs and annotations).
    pub loc: usize,
    /// Specification lines.
    pub spec_lines: usize,
    /// Loop-invariant annotation lines.
    pub annot_lines: usize,
    /// Query-engine statistics for the run.
    pub stats: QueryStats,
}

/// Errors produced before verification proper (parsing or signature
/// desugaring).
#[derive(Clone, Debug)]
pub struct FrontendError {
    /// Rendered diagnostics.
    pub messages: Vec<String>,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.messages.join("\n"))
    }
}

impl std::error::Error for FrontendError {}

/// Verifies `source` with the selected verifier.
pub fn verify_source(
    source: &str,
    mode: Mode,
    config: &VerifyConfig,
) -> Result<VerifyOutcome, FrontendError> {
    let metrics = SourceMetrics::of_source(source);
    match mode {
        Mode::Flux => {
            let report =
                flux_check::check_source(source, &config.check).map_err(|errs| FrontendError {
                    messages: errs.iter().map(|d| d.render(source)).collect(),
                })?;
            let fix = report.total_fixpoint_stats();
            let smt = report.total_smt_stats();
            Ok(VerifyOutcome {
                mode,
                safe: report.is_safe(),
                errors: report.errors().iter().map(|d| d.render(source)).collect(),
                // Wall-clock, not summed per-function work: with the
                // function-level fan-out this is what the caller waited,
                // so multi-core speedups show up in the time columns.
                time: report.wall_time,
                functions: report.functions.len(),
                loc: metrics.loc,
                spec_lines: metrics.spec_lines,
                annot_lines: metrics.annot_lines,
                stats: QueryStats {
                    smt_queries: fix.smt_queries,
                    cache_hits: fix.cache_hits,
                    cross_fn_hits: fix.cross_fn_hits,
                    xbench_hits: fix.xbench_hits,
                    cache_misses: fix.cache_misses,
                    model_prunes: fix.model_prunes,
                    sessions: fix.sessions,
                    sat_reuse: smt.sat_reuse,
                    sat_rounds: smt.sat_rounds,
                    theory_checks: smt.theory_checks,
                    pivots: smt.pivots,
                    propagations: smt.propagations,
                    blocked_visits: smt.blocked_visits,
                    db_reductions: smt.db_reductions,
                    col_scans: smt.col_scans,
                    conjunct_retractions: smt.conjunct_retractions,
                    quant_instances: smt.quant_instances,
                    fn_threads: report.fn_threads,
                    fn_times_ms: report
                        .fn_times()
                        .iter()
                        .map(|t| t.as_millis() as usize)
                        .collect(),
                    shard_contention: report.shard_contention,
                    lint_checks: fix.lint_checks,
                    certs_checked: smt.certs_checked,
                    revalidations: fix.revalidations,
                    unknowns: report.functions.iter().filter(|f| f.is_unknown()).count(),
                    evictions: fix.evictions,
                    budget_exhausted: smt.budget_exhausted,
                },
            })
        }
        Mode::Baseline => {
            let report = flux_wp::verify_source(source, &config.wp).map_err(|d| FrontendError {
                messages: vec![d.render(source)],
            })?;
            let smt = report.total_smt_stats();
            Ok(VerifyOutcome {
                mode,
                safe: report.is_safe(),
                errors: report
                    .functions
                    .iter()
                    .flat_map(|f| f.errors.iter().map(|d| d.render(source)))
                    .collect(),
                time: report.total_time(),
                functions: report.functions.len(),
                loc: metrics.loc,
                spec_lines: metrics.spec_lines,
                annot_lines: metrics.annot_lines,
                stats: QueryStats {
                    smt_queries: smt.queries,
                    cache_hits: 0,
                    cross_fn_hits: 0,
                    xbench_hits: 0,
                    cache_misses: smt.queries,
                    model_prunes: 0,
                    sessions: smt.sessions,
                    sat_reuse: smt.sat_reuse,
                    sat_rounds: smt.sat_rounds,
                    theory_checks: smt.theory_checks,
                    pivots: smt.pivots,
                    propagations: smt.propagations,
                    blocked_visits: smt.blocked_visits,
                    db_reductions: smt.db_reductions,
                    col_scans: smt.col_scans,
                    conjunct_retractions: smt.conjunct_retractions,
                    quant_instances: smt.quant_instances,
                    fn_threads: 1,
                    fn_times_ms: Vec::new(),
                    shard_contention: 0,
                    lint_checks: report.functions.iter().map(|f| f.lint_checks).sum(),
                    certs_checked: smt.certs_checked,
                    revalidations: 0,
                    unknowns: report.functions.iter().map(|f| f.unknowns).sum(),
                    evictions: 0,
                    budget_exhausted: smt.budget_exhausted,
                },
            })
        }
    }
}

/// Perf-gate tolerances carried inside `BENCH_table1.json`'s `gate` object:
/// the `table1` binary reads them from the *committed* snapshot when
/// comparing a fresh run against it, and [`render_table1_json`] writes them
/// back out — so tuning the gate is one edit to the committed file and the
/// tuned values survive every snapshot refresh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateTolerances {
    /// Allowed wall-clock growth factor (per benchmark and in total).
    pub time_factor: f64,
    /// Allowed query-count growth factor (per benchmark and in total).
    pub query_factor: f64,
    /// Per-benchmark wall-clock comparison floor, in seconds: rows cheaper
    /// than this are gated against the floor, not their (noise-dominated)
    /// figure.
    pub min_time_s: f64,
    /// Per-benchmark query-count comparison floor.
    pub min_queries: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            time_factor: 2.0,
            query_factor: 1.2,
            min_time_s: 0.05,
            min_queries: 50.0,
        }
    }
}

/// One row of Table 1: the same benchmark under both verifiers.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Whether this row is the trusted library interface.
    pub is_library: bool,
    /// Flux outcome.
    pub flux: VerifyOutcome,
    /// Baseline outcome.
    pub baseline: VerifyOutcome,
}

impl TableRow {
    /// Baseline time divided by Flux time (the "order of magnitude" claim of
    /// §5.2).
    pub fn speedup(&self) -> f64 {
        let f = self.flux.time.as_secs_f64().max(1e-9);
        self.baseline.time.as_secs_f64() / f
    }

    /// Annotation overhead of the baseline as a percentage of LOC.
    pub fn baseline_annot_percent(&self) -> usize {
        (self.baseline.annot_lines * 100 + self.baseline.loc / 2)
            .checked_div(self.baseline.loc)
            .unwrap_or(0)
    }
}

/// Runs one benchmark under both verifiers.
pub fn run_benchmark(benchmark: &Benchmark, config: &VerifyConfig) -> TableRow {
    let flux =
        verify_source(benchmark.flux_src, Mode::Flux, config).unwrap_or_else(|e| VerifyOutcome {
            mode: Mode::Flux,
            safe: false,
            errors: e.messages,
            time: Duration::ZERO,
            functions: 0,
            loc: 0,
            spec_lines: 0,
            annot_lines: 0,
            stats: QueryStats::default(),
        });
    let baseline =
        verify_source(benchmark.baseline_src, Mode::Baseline, config).unwrap_or_else(|e| {
            VerifyOutcome {
                mode: Mode::Baseline,
                safe: false,
                errors: e.messages,
                time: Duration::ZERO,
                functions: 0,
                loc: 0,
                spec_lines: 0,
                annot_lines: 0,
                stats: QueryStats::default(),
            }
        });
    TableRow {
        name: benchmark.name.to_owned(),
        is_library: benchmark.is_library,
        flux,
        baseline,
    }
}

/// The trusted library rows of Table 1 (metrics only, no verification).
/// Shared by [`run_table1`] and the daemon-routed mode of the `table1`
/// binary, which verifies the benchmark rows out of process but still
/// reports the library interfaces locally.
pub fn library_rows() -> Vec<TableRow> {
    let mut rows = Vec::new();
    for lib in library() {
        // Library interfaces are trusted: only their metrics are reported.
        let flux_metrics = lib.flux_metrics();
        let baseline_metrics = lib.baseline_metrics();
        rows.push(TableRow {
            name: lib.name.to_owned(),
            is_library: true,
            flux: VerifyOutcome {
                mode: Mode::Flux,
                safe: true,
                errors: vec![],
                time: Duration::ZERO,
                functions: 0,
                loc: flux_metrics.loc,
                spec_lines: flux_metrics.spec_lines,
                annot_lines: flux_metrics.annot_lines,
                stats: QueryStats::default(),
            },
            baseline: VerifyOutcome {
                mode: Mode::Baseline,
                safe: true,
                errors: vec![],
                time: Duration::ZERO,
                functions: 0,
                loc: baseline_metrics.loc,
                spec_lines: baseline_metrics.spec_lines,
                annot_lines: baseline_metrics.annot_lines,
                stats: QueryStats::default(),
            },
        });
    }
    rows
}

/// Runs the entire Table 1 evaluation (library rows + the eight benchmarks).
pub fn run_table1(config: &VerifyConfig) -> Vec<TableRow> {
    let mut rows = library_rows();
    for benchmark in benchmarks() {
        rows.push(run_benchmark(&benchmark, config));
    }
    rows
}

/// The `ok` cell of Table 1: `yes` for verified, `unk` for a run that was
/// cut short by a deadline or budget (inconclusive — never reported as
/// verified), `NO` for a genuine counterexample or frontend error.
fn ok_label(out: &VerifyOutcome) -> &'static str {
    if out.safe {
        "yes"
    } else if out.stats.unknowns > 0 && out.errors.is_empty() {
        "unk"
    } else {
        "NO"
    }
}

/// Renders rows in the layout of the paper's Table 1.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} | {:>5} {:>5} {:>9} {:>4} | {:>5} {:>5} {:>6} {:>6} {:>9} {:>4} | {:>8}\n",
        "benchmark",
        "LOC",
        "Spec",
        "Time(s)",
        "ok",
        "LOC",
        "Spec",
        "Annot",
        "%LOC",
        "Time(s)",
        "ok",
        "speedup"
    ));
    out.push_str(&format!(
        "{:<10} | {:^26} | {:^42} | \n",
        "", "Flux", "Baseline (program logic)"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    let mut totals = (0usize, 0usize, 0.0f64, 0usize, 0usize, 0usize, 0.0f64);
    for row in rows {
        out.push_str(&format!(
            "{:<10} | {:>5} {:>5} {:>9.3} {:>4} | {:>5} {:>5} {:>6} {:>5}% {:>9.3} {:>4} | {:>7.1}x\n",
            row.name,
            row.flux.loc,
            row.flux.spec_lines,
            row.flux.time.as_secs_f64(),
            ok_label(&row.flux),
            row.baseline.loc,
            row.baseline.spec_lines,
            row.baseline.annot_lines,
            row.baseline_annot_percent(),
            row.baseline.time.as_secs_f64(),
            ok_label(&row.baseline),
            row.speedup(),
        ));
        if !row.is_library {
            totals.0 += row.flux.loc;
            totals.1 += row.flux.spec_lines;
            totals.2 += row.flux.time.as_secs_f64();
            totals.3 += row.baseline.loc;
            totals.4 += row.baseline.spec_lines;
            totals.5 += row.baseline.annot_lines;
            totals.6 += row.baseline.time.as_secs_f64();
        }
    }
    out.push_str(&"-".repeat(100));
    out.push('\n');
    out.push_str(&format!(
        "{:<10} | {:>5} {:>5} {:>9.3} {:>4} | {:>5} {:>5} {:>6} {:>5}% {:>9.3} {:>4} | {:>7.1}x\n",
        "Total",
        totals.0,
        totals.1,
        totals.2,
        "",
        totals.3,
        totals.4,
        totals.5,
        (totals.5 * 100).checked_div(totals.3).unwrap_or(0),
        totals.6,
        "",
        if totals.2 > 0.0 {
            totals.6 / totals.2
        } else {
            0.0
        },
    ));
    out
}

/// Renders the incremental-engine statistics of a table run: validity
/// queries, cache hit rate and sessions per benchmark, plus totals.  Printed
/// by the `table1` binary after the main table so the engine's perf
/// trajectory is visible across PRs.
pub fn render_query_stats(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} | {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>7} | {:>8} {:>10}\n",
        "benchmark",
        "queries",
        "hits",
        "xfn-hits",
        "xbench",
        "misses",
        "hit%",
        "prunes",
        "sessions",
        "sat-re",
        "pivots",
        "props",
        "blocked",
        "db-red",
        "colscan",
        "retract",
        "fn-thr",
        "contend",
        "bl-qrys",
        "bl-quants"
    ));
    out.push_str(&"-".repeat(194));
    out.push('\n');
    let mut total = QueryStats::default();
    let mut total_baseline = QueryStats::default();
    for row in rows.iter().filter(|r| !r.is_library) {
        let s = &row.flux.stats;
        let hit_percent = (s.cache_hits * 100).checked_div(s.smt_queries).unwrap_or(0);
        out.push_str(&format!(
            "{:<10} | {:>8} {:>9} {:>8} {:>8} {:>8} {:>7}% {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>7} | {:>8} {:>10}\n",
            row.name,
            s.smt_queries,
            s.cache_hits,
            s.cross_fn_hits,
            s.xbench_hits,
            s.cache_misses,
            hit_percent,
            s.model_prunes,
            s.sessions,
            s.sat_reuse,
            s.pivots,
            s.propagations,
            s.blocked_visits,
            s.db_reductions,
            s.col_scans,
            s.conjunct_retractions,
            s.fn_threads,
            s.shard_contention,
            row.baseline.stats.smt_queries,
            row.baseline.stats.quant_instances,
        ));
        total.smt_queries += s.smt_queries;
        total.cache_hits += s.cache_hits;
        total.cross_fn_hits += s.cross_fn_hits;
        total.xbench_hits += s.xbench_hits;
        total.cache_misses += s.cache_misses;
        total.model_prunes += s.model_prunes;
        total.sessions += s.sessions;
        total.sat_reuse += s.sat_reuse;
        total.pivots += s.pivots;
        total.propagations += s.propagations;
        total.blocked_visits += s.blocked_visits;
        total.db_reductions += s.db_reductions;
        total.col_scans += s.col_scans;
        total.conjunct_retractions += s.conjunct_retractions;
        // The fan-out width is configuration, not work: aggregate it by
        // maximum.
        total.fn_threads = total.fn_threads.max(s.fn_threads);
        total.shard_contention += s.shard_contention;
        total.lint_checks += s.lint_checks + row.baseline.stats.lint_checks;
        total.certs_checked += s.certs_checked + row.baseline.stats.certs_checked;
        total.revalidations += s.revalidations;
        total.unknowns += s.unknowns;
        total.evictions += s.evictions;
        total.budget_exhausted += s.budget_exhausted + row.baseline.stats.budget_exhausted;
        total_baseline.smt_queries += row.baseline.stats.smt_queries;
        total_baseline.quant_instances += row.baseline.stats.quant_instances;
    }
    out.push_str(&"-".repeat(194));
    out.push('\n');
    let hit_percent = (total.cache_hits * 100)
        .checked_div(total.smt_queries)
        .unwrap_or(0);
    out.push_str(&format!(
        "{:<10} | {:>8} {:>9} {:>8} {:>8} {:>8} {:>7}% {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>7} | {:>8} {:>10}\n",
        "Total",
        total.smt_queries,
        total.cache_hits,
        total.cross_fn_hits,
        total.xbench_hits,
        total.cache_misses,
        hit_percent,
        total.model_prunes,
        total.sessions,
        total.sat_reuse,
        total.pivots,
        total.propagations,
        total.blocked_visits,
        total.db_reductions,
        total.col_scans,
        total.conjunct_retractions,
        total.fn_threads,
        total.shard_contention,
        total_baseline.smt_queries,
        total_baseline.quant_instances,
    ));
    out.push_str(&format!(
        "audit (both verifiers): lint_checks={} certs_checked={} revalidations={} \
         (all zero unless FLUX_AUDIT / --audit raises the tier)\n",
        total.lint_checks, total.certs_checked, total.revalidations,
    ));
    out.push_str(&format!(
        "robustness (both verifiers): unknowns={} evictions={} budget_exhausted={} \
         (all zero unless FLUX_DEADLINE_MS / FLUX_CACHE_CAP / --deadline-ms / --budget \
         constrain the run)\n",
        total.unknowns, total.evictions, total.budget_exhausted,
    ));
    let fn_time_total: usize = rows
        .iter()
        .filter(|r| !r.is_library)
        .flat_map(|r| r.flux.stats.fn_times_ms.iter())
        .sum();
    let fn_time_max: usize = rows
        .iter()
        .filter(|r| !r.is_library)
        .flat_map(|r| r.flux.stats.fn_times_ms.iter())
        .copied()
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "fn_parallel (flux): fn_threads={} shard_contention={} \
         fn_time_ms_total={} fn_time_ms_max={} \
         (per-function wall-clock vector in --json as fn_times_ms)\n",
        total.fn_threads, total.shard_contention, fn_time_total, fn_time_max,
    ));
    out
}

/// Renders a table run as machine-readable JSON (written by the `table1`
/// binary to `BENCH_table1.json` with `--json`): per-benchmark wall-clock
/// and the full [`QueryStats`] of both verifiers, so the perf trajectory —
/// queries issued, counter-model prunes, persistent-SAT reuse — can be
/// tracked across PRs by diffing one file.
///
/// The writer is hand-rolled because the workspace builds without external
/// crates; every emitted value is a number, boolean or benchmark name, so no
/// string escaping is needed.
pub fn render_table1_json(rows: &[TableRow], gate: &GateTolerances) -> String {
    fn outcome_json(out: &VerifyOutcome, indent: &str) -> String {
        let s = &out.stats;
        format!(
            "{{\n{indent}  \"safe\": {},\n{indent}  \"time_s\": {:.6},\n{indent}  \
             \"functions\": {},\n{indent}  \"smt_queries\": {},\n{indent}  \
             \"cache_hits\": {},\n{indent}  \"cross_fn_hits\": {},\n{indent}  \
             \"xbench_hits\": {},\n{indent}  \
             \"cache_misses\": {},\n{indent}  \"model_prunes\": {},\n{indent}  \
             \"sessions\": {},\n{indent}  \"sat_reuse\": {},\n{indent}  \
             \"sat_rounds\": {},\n{indent}  \"theory_checks\": {},\n{indent}  \
             \"pivots\": {},\n{indent}  \"propagations\": {},\n{indent}  \
             \"blocked_visits\": {},\n{indent}  \"db_reductions\": {},\n{indent}  \
             \"col_scans\": {},\n{indent}  \"conjunct_retractions\": {},\n{indent}  \
             \"quant_instances\": {},\n{indent}  \"lint_checks\": {},\n{indent}  \
             \"certs_checked\": {},\n{indent}  \"revalidations\": {},\n{indent}  \
             \"unknowns\": {},\n{indent}  \"evictions\": {},\n{indent}  \
             \"budget_exhausted\": {},\n{indent}  \
             \"fn_threads\": {},\n{indent}  \
             \"shard_contention\": {},\n{indent}  \
             \"fn_times_ms\": [{}]\n{indent}}}",
            out.safe,
            out.time.as_secs_f64(),
            out.functions,
            s.smt_queries,
            s.cache_hits,
            s.cross_fn_hits,
            s.xbench_hits,
            s.cache_misses,
            s.model_prunes,
            s.sessions,
            s.sat_reuse,
            s.sat_rounds,
            s.theory_checks,
            s.pivots,
            s.propagations,
            s.blocked_visits,
            s.db_reductions,
            s.col_scans,
            s.conjunct_retractions,
            s.quant_instances,
            s.lint_checks,
            s.certs_checked,
            s.revalidations,
            s.unknowns,
            s.evictions,
            s.budget_exhausted,
            s.fn_threads,
            s.shard_contention,
            s.fn_times_ms
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let mut first = true;
    let mut flux_total = 0.0f64;
    let mut baseline_total = 0.0f64;
    for row in rows.iter().filter(|r| !r.is_library) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"flux\": {},\n      \"baseline\": {}\n    }}",
            row.name,
            outcome_json(&row.flux, "      "),
            outcome_json(&row.baseline, "      "),
        ));
        flux_total += row.flux.time.as_secs_f64();
        baseline_total += row.baseline.time.as_secs_f64();
    }
    // The gate tolerances round-trip through the snapshot (see
    // [`GateTolerances`]): the values written here are whatever the caller
    // read from the previous committed file, so a hand-tuned gate survives
    // every refresh instead of reverting to defaults.
    out.push_str(&format!(
        "\n  ],\n  \"totals\": {{\n    \"flux_time_s\": {flux_total:.6},\n    \
         \"baseline_time_s\": {baseline_total:.6}\n  }},\n  \"gate\": {{\n    \
         \"time_factor\": {},\n    \"query_factor\": {},\n    \
         \"min_time_s\": {},\n    \"min_queries\": {}\n  }}\n}}\n",
        gate.time_factor, gate.query_factor, gate.min_time_s, gate.min_queries,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_example_is_safe_under_both_modes() {
        let src = r#"
            #[flux::sig(fn(i32{v: v > 0}) -> i32{v: v > 1})]
            fn bump(x: i32) -> i32 { x + 1 }
        "#;
        let flux = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
        assert!(flux.safe);
        let src_baseline = r#"
            #[requires(x > 0)]
            #[ensures(result > 1)]
            fn bump(x: i32) -> i32 { x + 1 }
        "#;
        let baseline =
            verify_source(src_baseline, Mode::Baseline, &VerifyConfig::default()).unwrap();
        assert!(baseline.safe);
    }

    #[test]
    fn frontend_errors_are_reported() {
        let err = verify_source("fn broken( {", Mode::Flux, &VerifyConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn unsafe_programs_are_flagged_in_both_modes() {
        let src = r#"
            #[flux::sig(fn(v: &RVec<i32>[@n], usize) -> i32)]
            fn read(v: &RVec<i32>, i: usize) -> i32 { v.get(i) }
        "#;
        let flux = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
        assert!(!flux.safe);
        let src_baseline = r#"
            fn read(v: RVec<i32>, i: usize) -> i32 { v.get(i) }
        "#;
        let baseline =
            verify_source(src_baseline, Mode::Baseline, &VerifyConfig::default()).unwrap();
        assert!(!baseline.safe);
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        // Use a single small benchmark to keep the test fast.
        let b = benchmark("dotprod").unwrap();
        let row = run_benchmark(&b, &VerifyConfig::default());
        let rendered = render_table1(std::slice::from_ref(&row));
        assert!(rendered.contains("dotprod"));
        assert!(rendered.contains("Flux"));
    }

    #[test]
    fn dotprod_benchmark_verifies_under_both_verifiers() {
        let b = benchmark("dotprod").unwrap();
        let row = run_benchmark(&b, &VerifyConfig::default());
        assert!(row.flux.safe, "flux flavour failed: {:?}", row.flux.errors);
        assert!(
            row.baseline.safe,
            "baseline flavour failed: {:?}",
            row.baseline.errors
        );
        assert_eq!(row.flux.annot_lines, 0);
        assert!(row.baseline.annot_lines > 0);
    }
}
