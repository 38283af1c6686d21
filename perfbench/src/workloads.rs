//! The workloads, driven from the benchmark's parent process.
//!
//! * `corpus-cold` — the Table 1 corpus, each pass in a fresh verifier
//!   process: what a batch user pays every time.
//! * `fluxd-warm` — the corpus through one warm `fluxd`, two requests in
//!   flight: what an editor or `table1 --daemon` pays.
//! * `gen-mixed` — generated programs of many small functions with planted
//!   bugs, each pass in a fresh process: the function fan-out, the front
//!   end and the rejection path.
//!
//! Every run checks every verdict against its known answer.

use crate::gen::{self, Rng};
use crate::known::{self, mode_name, Mode, MODES};
use crate::report::{median, num, p50, p90, Counters, Metric};
use crate::trace::{self, Span, Tracer};
use crate::worker::{Input, Job, Kind, Verdict};
use flux_bench::daemon_client::DaemonClient;
use flux_bench::json::{parse, quote, Value};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["corpus-cold", "fluxd-warm", "gen-mixed"];

/// The end-to-end metrics of a measured run, with their units, in the
/// order they are printed.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("flux_pass_s", "s"),
    ("baseline_pass_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, with their units.  A metric that
/// does not apply to a workload reads 0 (see the README's map).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("syntax.parse_ms", "ms"),
    ("ir.resolve_ms", "ms"),
    ("check.congen_ms", "ms"),
    ("check.clauses", "count"),
    ("check.kvars", "count"),
    ("check.rejected_fns", "count"),
    ("check.fn_wall_ms", "ms"),
    ("check.fn_sum_ms", "ms"),
    ("check.parallel_eff", "ratio"),
    ("fixpoint.solve_ms", "ms"),
    ("fixpoint.queries", "count"),
    ("fixpoint.iterations", "count"),
    ("fixpoint.model_prunes", "count"),
    ("fixpoint.sessions", "count"),
    ("fixpoint.hit_ratio", "ratio"),
    ("fixpoint.evictions", "count"),
    ("fixpoint.validity_len", "count"),
    ("fixpoint.validity_contentions", "count"),
    ("smt.sat_rounds", "count"),
    ("smt.theory_checks", "count"),
    ("smt.pivots", "count"),
    ("smt.propagations", "count"),
    ("smt.sat_reuse", "count"),
    ("smt.retractions", "count"),
    ("smt.quant_instances", "count"),
    ("smt.cnf_len", "count"),
    ("smt.cnf_evictions", "count"),
    ("smt.cnf_contentions", "count"),
    ("logic.nodes_added", "count"),
    ("logic.memo_evictions", "count"),
    ("logic.contentions", "count"),
    ("wp.verify_ms", "ms"),
    ("wp.queries", "count"),
    ("daemon.service_ms", "ms"),
    ("daemon.wait_ms", "ms"),
    ("daemon.busy", "count"),
    ("daemon.respawns", "count"),
    ("trace.overhead", "ms"),
];

/// A request's layer self times must cover its wall time up to this share
/// plus [`GLUE_FLOOR_MS`]; the rest is the benchmark's own glue between
/// layer calls.
pub const GLUE_SHARE: f64 = 0.05;
/// See [`GLUE_SHARE`]; also the slack allowed for `fluxd`'s
/// whole-millisecond `time_ms`.
pub const GLUE_FLOOR_MS: f64 = 2.0;

/// Launches of a verifier process made only to measure `setup_s`, before
/// a run's measured loop; the median is steadier than one launch.
const SETUP_LAUNCHES: usize = 16;

/// Baseline passes per Flux pass.  A baseline pass costs a tenth of a Flux
/// pass or less, so repeating it gives each run enough baseline samples
/// for a steady median at little cost.
const BASELINE_PASSES_PER_ROUND: usize = 3;

/// The options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `fluxd` binary.
    pub fluxd: PathBuf,
    /// Where result and trace files go.
    pub out: PathBuf,
    /// Host and build provenance, as a JSON object.
    pub provenance: String,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Verdicts checked.
    pub attempted: usize,
    /// Verdicts that were wrong, unknown, an error or `busy`.
    pub failed: usize,
    /// One line per failed verdict or failed check.
    pub defects: Vec<String>,
    /// Informational lines for the report.
    pub notes: Vec<String>,
    /// Spans of the traced run, grouped by process.
    pub spans: Vec<(String, Vec<Span>)>,
}

impl Outcome {
    fn check(&mut self, what: &str, got: Verdict, want_safe: bool) {
        self.attempted += 1;
        let want = if want_safe {
            Verdict::Safe
        } else {
            Verdict::Unsafe
        };
        if got != want {
            self.failed += 1;
            self.defects.push(format!(
                "{what}: got {}, known answer {}",
                got.name(),
                want.name()
            ));
        }
    }

    fn defect(&mut self, message: String) {
        self.defects.push(message);
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "corpus-cold" => batch(opts, Input::Corpus),
        "gen-mixed" => batch(opts, Input::Gen(opts.seed)),
        "fluxd-warm" => fluxd(opts, in_flight()),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Requests kept in flight to `fluxd`: two callers, as many as there are
/// cores up to two.
fn in_flight() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// One program of a finished pass.
struct ProgramResult {
    name: String,
    ms: f64,
    verdicts: Vec<(String, Verdict)>,
}

/// One finished worker process.
struct WorkerRun {
    setup_s: f64,
    total_s: f64,
    rss_mb: f64,
    pass_ms: f64,
    programs: Vec<ProgramResult>,
    counters: Counters,
    spans: Vec<Span>,
}

/// The passes of one round: a Flux pass, then the baseline passes.
fn round_modes() -> impl Iterator<Item = Mode> {
    std::iter::once(Mode::Flux).chain(std::iter::repeat_n(
        Mode::Baseline,
        BASELINE_PASSES_PER_ROUND,
    ))
}

/// Launches a verifier process with `args`, waits for it, and returns the
/// time from launch to its `ready` line, the time to its last line, and
/// that line.
fn spawn_worker(args: &[String]) -> Result<(f64, f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let ready = out.read_line(&mut line).is_ok() && line.trim() == "ready";
    let setup_s = start.elapsed().as_secs_f64();
    line.clear();
    let read = out.read_line(&mut line);
    let total_s = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("worker wait: {e}"))?;
    if !ready || read.is_err() || !status.success() {
        return Err(format!("worker {args:?} failed ({status})"));
    }
    Ok((setup_s, total_s, line))
}

/// Launches a verifier process that only reports ready; returns the time
/// from launch to ready.
fn launch_worker() -> Result<f64, String> {
    Ok(spawn_worker(&["worker".to_string(), "ready".to_string()])?.0)
}

fn run_worker(job: Job) -> Result<WorkerRun, String> {
    let (setup_s, total_s, line) = spawn_worker(&job.args())?;
    let value = parse(line.trim()).map_err(|e| format!("worker output: {e}"))?;
    let list = |v: &Value, key: &str| v.get(key).and_then(Value::as_array).unwrap_or(&[]).to_vec();
    let programs = list(&value, "programs")
        .iter()
        .map(|p| ProgramResult {
            name: p
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            ms: p.get("ms").and_then(Value::as_f64).unwrap_or(0.0),
            verdicts: list(p, "fns")
                .iter()
                .filter_map(|f| {
                    let pair = f.as_array()?;
                    let name = pair.first()?.as_str()?.to_string();
                    Some((name, Verdict::parse(pair.get(1)?.as_str()?)?))
                })
                .collect(),
        })
        .collect();
    let spans = list(&value, "spans")
        .iter()
        .filter_map(|s| {
            let s = s.as_array()?;
            let parent = s.get(2)?.as_f64()?;
            Some(Span {
                name: s.first()?.as_str()?.to_string(),
                req: s.get(1)?.as_f64()? as u64,
                parent: (parent >= 0.0).then_some(parent as usize),
                start_us: s.get(3)?.as_f64()?,
                end_us: s.get(4)?.as_f64()?,
                lane: 1,
            })
        })
        .collect();
    Ok(WorkerRun {
        setup_s,
        total_s,
        rss_mb: value.get("rss_mb").and_then(Value::as_f64).unwrap_or(0.0),
        pass_ms: value.get("pass_ms").and_then(Value::as_f64).unwrap_or(0.0),
        programs,
        counters: Counters::from_json(value.get("counters").unwrap_or(&Value::Null)),
        spans,
    })
}

/// Known answers of a batch input: per program, the expected verdict of
/// each function (`*` for a whole-program verdict).
fn known_answers(input: Input, mode: Mode) -> BTreeMap<String, BTreeMap<String, bool>> {
    match input {
        Input::Corpus => known::corpus(mode)
            .into_iter()
            .map(|(name, _, safe)| (name.to_string(), BTreeMap::from([("*".to_string(), safe)])))
            .collect(),
        Input::Gen(seed) => gen::generate(seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let fns = p.fns.iter().map(|f| (f.name.clone(), !f.planted)).collect();
                (format!("gen{i}"), fns)
            })
            .collect(),
    }
}

/// Checks a worker's verdicts against the known answers; returns them in a
/// comparable form.
fn check_worker(
    out: &mut Outcome,
    run: &WorkerRun,
    known: &BTreeMap<String, BTreeMap<String, bool>>,
    mode: Mode,
) -> Vec<(String, String, Verdict)> {
    let mut seen = Vec::new();
    for (program, want) in known {
        let got = run.programs.iter().find(|p| &p.name == program);
        for (function, safe) in want {
            let verdict = got
                .and_then(|p| p.verdicts.iter().find(|(f, _)| f == function))
                .map_or(Verdict::Error, |(_, v)| *v);
            let what = format!("{}/{program}/{function}", mode_name(mode));
            out.check(&what, verdict, *safe);
            seen.push((program.clone(), function.clone(), verdict));
        }
    }
    seen
}

/// `corpus-cold` and `gen-mixed`: rounds of a Flux pass and the baseline
/// passes, each in a fresh process, until the run's time is up.
fn batch(opts: &Opts, input: Input) -> Result<Outcome, String> {
    if opts.trace {
        return batch_traced(opts, input);
    }
    let mut out = Outcome::default();
    let known = MODES.map(|m| known_answers(input, m));
    let (mut setup, mut flux_pass, mut baseline_pass, mut latency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss: f64 = 0.0;
    let mut requests = 0usize;
    for _ in 0..SETUP_LAUNCHES {
        setup.push(launch_worker()?);
    }
    let start = Instant::now();
    while flux_pass.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        for mode in round_modes() {
            let run = run_worker(Job {
                input,
                mode,
                kind: Kind::Plain,
                trace: false,
            })?;
            check_worker(&mut out, &run, &known[mode as usize], mode);
            setup.push(run.setup_s);
            rss = rss.max(run.rss_mb);
            requests += run.programs.len();
            match mode {
                Mode::Flux => {
                    flux_pass.push(run.total_s);
                    // A request is one generated program, but on the corpus
                    // it is the whole pass: percentiles over the fixed
                    // 8-program mix would fall on the gap between two
                    // programs and jump between them.
                    match input {
                        Input::Corpus => latency.push(run.total_s * 1e3),
                        Input::Gen(_) => latency.extend(run.programs.iter().map(|p| p.ms)),
                    }
                }
                Mode::Baseline => baseline_pass.push(run.total_s),
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    out.metrics = end_to_end(
        &setup,
        &flux_pass,
        &baseline_pass,
        &latency,
        requests as f64 / elapsed,
        requests,
        rss,
    );
    Ok(out)
}

/// The end-to-end metrics, in [`END_TO_END`] order.
fn end_to_end(
    setup: &[f64],
    flux_pass: &[f64],
    baseline_pass: &[f64],
    latency_ms: &[f64],
    throughput: f64,
    requests: usize,
    rss_mb: f64,
) -> Vec<Metric> {
    let [setup_s, flux_pass_s, baseline_pass_s, p50_ms, p90_ms, throughput_rps, peak_rss_mb] =
        END_TO_END.map(|(name, _)| name);
    vec![
        Metric::of(setup_s, setup, median, "s"),
        Metric::of(flux_pass_s, flux_pass, median, "s"),
        Metric::of(baseline_pass_s, baseline_pass, median, "s"),
        Metric::of(p50_ms, latency_ms, p50, "ms"),
        Metric::of(p90_ms, latency_ms, p90, "ms"),
        Metric::new(throughput_rps, throughput, "1/s", requests),
        Metric::new(peak_rss_mb, rss_mb, "MB", 1),
    ]
}

/// The traced run of a batch workload: staged passes with spans on and
/// off (verdicts must agree; the time difference is `trace.overhead`), and
/// one `check_program` pass at default width.  Each in a fresh process.
fn batch_traced(opts: &Opts, input: Input) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layer = Counters::default();
    let mut overhead_ms = 0.0;
    for mode in MODES {
        let known = known_answers(input, mode);
        let mut passes = Vec::new();
        for trace in [true, false] {
            let run = run_worker(Job {
                input,
                mode,
                kind: Kind::Staged,
                trace,
            })?;
            let verdicts = check_worker(&mut out, &run, &known, mode);
            passes.push((run, verdicts));
        }
        let (untraced, untraced_verdicts) = passes.pop().expect("two passes");
        let (traced, traced_verdicts) = passes.pop().expect("two passes");
        if traced_verdicts != untraced_verdicts {
            out.defect(format!(
                "{}: traced and untraced verdicts differ",
                mode_name(mode)
            ));
        }
        overhead_ms += traced.pass_ms - untraced.pass_ms;
        check_glue(&mut out, &traced.spans, mode_name(mode));
        let spans = &traced.spans;
        layer.add(
            "syntax.parse_ms",
            trace::total_ms(spans, "syntax.parse_program"),
        );
        match mode {
            Mode::Flux => {
                let c = &traced.counters;
                layer.absorb(c);
                layer.add(
                    "ir.resolve_ms",
                    trace::total_ms(spans, "ir.ResolvedProgram::resolve"),
                );
                layer.add(
                    "check.congen_ms",
                    trace::total_ms(spans, "check.Generator::gen_function"),
                );
                layer.add(
                    "fixpoint.solve_ms",
                    trace::total_ms(spans, "fixpoint.FixpointSolver::solve"),
                );
                // Contention belongs to the fan-out pass below.
                for key in [
                    "logic.contentions",
                    "fixpoint.validity_contentions",
                    "smt.cnf_contentions",
                ] {
                    layer.0.remove(key);
                }
            }
            Mode::Baseline => {
                layer.add("wp.verify_ms", trace::total_ms(spans, "wp.verify_program"));
                layer.add("wp.queries", traced.counters.get("wp.queries"));
                layer.add(
                    "smt.quant_instances",
                    traced.counters.get("smt.quant_instances"),
                );
            }
        }
        out.spans.push((
            format!("{} staged {}", opts.workload, mode_name(mode)),
            traced.spans,
        ));
    }
    let fan = run_worker(Job {
        input,
        mode: Mode::Flux,
        kind: Kind::Fanout,
        trace: true,
    })?;
    check_worker(
        &mut out,
        &fan,
        &known_answers(input, Mode::Flux),
        Mode::Flux,
    );
    check_glue(&mut out, &fan.spans, "fan-out");
    for key in [
        "check.fn_wall_ms",
        "check.fn_sum_ms",
        "logic.contentions",
        "fixpoint.validity_contentions",
        "smt.cnf_contentions",
    ] {
        layer.add(key, fan.counters.get(key));
    }
    let capacity = fan.counters.get("check.fn_capacity_ms");
    layer.add(
        "check.parallel_eff",
        if capacity > 0.0 {
            fan.counters.get("check.fn_sum_ms") / capacity
        } else {
            0.0
        },
    );
    out.spans
        .push((format!("{} check_program", opts.workload), fan.spans));
    let queries = layer.get("fixpoint.queries");
    layer.add(
        "fixpoint.hit_ratio",
        if queries > 0.0 {
            layer.get("fixpoint.cache_hits") / queries
        } else {
            0.0
        },
    );
    if input == Input::Corpus {
        // The daemon layer: the corpus through a warm `fluxd`.  Only its
        // own figures are taken; the cache figures above stay the cold
        // in-process ones.
        let (daemon, _) = daemon_layers(opts, in_flight(), &mut out)?;
        for key in [
            "daemon.service_ms",
            "daemon.wait_ms",
            "daemon.busy",
            "daemon.respawns",
        ] {
            layer.add(key, daemon.get(key));
        }
    }
    layer.add("trace.overhead", overhead_ms);
    out.metrics = per_layer(&layer, known_answers(input, Mode::Flux).len());
    Ok(out)
}

/// Checks that each request's layer spans cover its wall time, and notes
/// the request with the largest uncovered share.
fn check_glue(out: &mut Outcome, spans: &[Span], what: &str) {
    let mut worst: (f64, f64) = (0.0, 0.0);
    for (req, wall_ms, glue_ms) in trace::unattributed_ms(spans) {
        if glue_ms > GLUE_SHARE * wall_ms + GLUE_FLOOR_MS {
            out.defect(format!(
                "{what} request {req}: layer spans cover {:.3} of {wall_ms:.3} ms",
                wall_ms - glue_ms
            ));
        }
        if glue_ms / wall_ms.max(1e-9) > worst.0 / worst.1.max(1e-9) {
            worst = (glue_ms, wall_ms);
        }
    }
    out.notes.push(format!(
        "{what}: at worst {:.3} of a request's {:.3} ms lies outside its layer spans \
         (bound {GLUE_SHARE} of wall + {GLUE_FLOOR_MS} ms)",
        worst.0, worst.1
    ));
}

fn per_layer(layer: &Counters, n: usize) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, layer.get(name), unit, n))
        .collect()
}

/// The daemon's pid: the child of this process running `fluxd`.
fn fluxd_pid() -> Option<u32> {
    let me = std::process::id();
    std::fs::read_dir("/proc")
        .ok()?
        .flatten()
        .find_map(|entry| {
            let pid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            // `pid (comm) state ppid ...`; comm may hold spaces, so split after
            // the last parenthesis.
            let (head, rest) = stat.rsplit_once(')')?;
            let ppid: u32 = rest.split_whitespace().nth(1)?.parse().ok()?;
            (ppid == me && head.ends_with("(fluxd")).then_some(pid)
        })
}

/// One request in flight.
struct InFlight {
    program: usize,
    mode: Mode,
    sent: Instant,
    sent_us: f64,
    lane: u64,
}

/// One answered request.
struct Answer {
    program: usize,
    mode: Mode,
    verdict: Verdict,
    latency_ms: f64,
    service_ms: f64,
    stats: Counters,
}

/// The id space of verification requests, above the ids the client uses
/// for `status` and `shutdown`.
const REQUEST_IDS: u64 = 1 << 32;

/// Sends `order` (indices into the corpus) in `mode` through the daemon,
/// keeping `width` requests in flight; returns the answers and the wall
/// time.
fn closed_loop(
    client: &mut DaemonClient,
    sources: &[Vec<(&str, &str, bool)>; 2],
    order: &[(usize, Mode)],
    width: usize,
    next_id: &mut u64,
    tracer: &mut Tracer,
) -> Result<(Vec<Answer>, f64), String> {
    let start = Instant::now();
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut free_lanes: Vec<u64> = (1..=width as u64).rev().collect();
    let mut answers = Vec::new();
    let mut queue = order.iter();
    loop {
        while pending.len() < width {
            let Some(&(program, mode)) = queue.next() else {
                break;
            };
            let (_, source, _) = sources[mode as usize][program];
            let id = *next_id;
            *next_id += 1;
            let payload = format!(
                "{{\"id\":{id},\"method\":\"verify\",\"source\":{},\"mode\":\"{}\"}}",
                quote(source),
                mode_name(mode)
            );
            let lane = free_lanes.pop().expect("a lane per request in flight");
            let (sent, sent_us) = (Instant::now(), tracer.now_us());
            client
                .send(&payload)
                .map_err(|e| format!("send to fluxd: {e}"))?;
            pending.insert(
                id,
                InFlight {
                    program,
                    mode,
                    sent,
                    sent_us,
                    lane,
                },
            );
        }
        if pending.is_empty() {
            break;
        }
        let response = client.read_response().map_err(|e| format!("fluxd: {e}"))?;
        let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
        let flight = pending
            .remove(&id)
            .ok_or_else(|| format!("fluxd answered unknown request id {id}"))?;
        let latency_ms = flight.sent.elapsed().as_secs_f64() * 1e3;
        let received_us = tracer.now_us();
        free_lanes.push(flight.lane);
        let service_ms = response
            .get("time_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let verdict = match response.get("result").and_then(Value::as_str) {
            Some("verified") => Verdict::Safe,
            Some("rejected") => Verdict::Unsafe,
            Some("unknown") => Verdict::Unknown,
            _ => Verdict::Error,
        };
        let root = tracer.record(Span {
            name: format!("daemon.request {}", mode_name(flight.mode)),
            req: id,
            parent: None,
            start_us: flight.sent_us,
            end_us: received_us,
            lane: flight.lane,
        });
        // `time_ms` is the daemon's own measure of the verification; it
        // reports no start, so the service span is placed to end at the
        // receipt and the rest of the request is the wait around it
        // (framing, queueing, scheduling).
        let wait_us = (received_us - flight.sent_us - service_ms * 1e3).max(0.0);
        for (name, start_us, end_us) in [
            ("daemon.wait", flight.sent_us, flight.sent_us + wait_us),
            ("daemon.service", flight.sent_us + wait_us, received_us),
        ] {
            tracer.record(Span {
                name: name.to_string(),
                req: id,
                parent: Some(root),
                start_us,
                end_us,
                lane: flight.lane,
            });
        }
        answers.push(Answer {
            program: flight.program,
            mode: flight.mode,
            verdict,
            latency_ms,
            service_ms,
            stats: Counters::from_json(response.get("stats").unwrap_or(&Value::Null)),
        });
    }
    Ok((answers, start.elapsed().as_secs_f64()))
}

/// One round: a Flux pass, then the baseline passes, over the corpus, each
/// in a seeded order.
fn round(rng: &mut Rng) -> Vec<(Mode, Vec<(usize, Mode)>)> {
    round_modes()
        .map(|mode| {
            let mut order: Vec<(usize, Mode)> =
                (0..known::CORPUS.len()).map(|i| (i, mode)).collect();
            rng.shuffle(&mut order);
            (mode, order)
        })
        .collect()
}

/// Launches `fluxd` and waits until it answers `status`: the set-up time.
fn launch_fluxd(opts: &Opts) -> Result<(DaemonClient, f64), String> {
    let start = Instant::now();
    let mut client = DaemonClient::spawn_at(&opts.fluxd, &[])
        .map_err(|e| format!("cannot start {}: {e}", opts.fluxd.display()))?;
    client.status().map_err(|e| format!("fluxd status: {e}"))?;
    Ok((client, start.elapsed().as_secs_f64()))
}

fn status_counter(status: &Value, key: &str) -> f64 {
    status
        .get(key)
        .or_else(|| status.get("caches").and_then(|c| c.get(key)))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The corpus in both modes, indexed by [`Mode`] then suite position.
type Sources = [Vec<(&'static str, &'static str, bool)>; 2];

fn corpus_sources() -> Sources {
    [known::corpus(Mode::Flux), known::corpus(Mode::Baseline)]
}

fn check_answers(out: &mut Outcome, sources: &Sources, answers: &[Answer]) {
    for a in answers {
        let (name, _, safe) = sources[a.mode as usize][a.program];
        out.check(
            &format!("fluxd/{}/{name}", mode_name(a.mode)),
            a.verdict,
            safe,
        );
    }
}

/// A daemon after its untimed warm-up round.
struct WarmDaemon {
    client: DaemonClient,
    setup_s: f64,
    next_id: u64,
}

fn warm_daemon(
    opts: &Opts,
    sources: &Sources,
    rng: &mut Rng,
    width: usize,
    out: &mut Outcome,
) -> Result<WarmDaemon, String> {
    let (mut client, setup_s) = launch_fluxd(opts)?;
    let mut next_id = REQUEST_IDS;
    let mut off = Tracer::new(false);
    for (_, pass) in round(rng) {
        let (answers, _) = closed_loop(&mut client, sources, &pass, width, &mut next_id, &mut off)?;
        check_answers(out, sources, &answers);
    }
    Ok(WarmDaemon {
        client,
        setup_s,
        next_id,
    })
}

/// `fluxd-warm`: one daemon with its default configuration; an untimed
/// warm-up round, then rounds until the run's time is up.
fn fluxd(opts: &Opts, width: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if opts.trace {
        let (layer, n) = daemon_layers(opts, width, &mut out)?;
        out.metrics = per_layer(&layer, n);
        return Ok(out);
    }
    let sources = corpus_sources();
    let mut rng = Rng::new(opts.seed);
    let mut setup = Vec::new();
    for _ in 0..SETUP_LAUNCHES {
        let (client, s) = launch_fluxd(opts)?;
        setup.push(s);
        client
            .shutdown()
            .map_err(|e| format!("fluxd shutdown: {e}"))?;
    }
    let mut daemon = warm_daemon(opts, &sources, &mut rng, width, &mut out)?;
    setup.push(daemon.setup_s);
    let mut off = Tracer::new(false);
    let (mut flux_pass, mut baseline_pass, mut latency) = (Vec::new(), Vec::new(), Vec::new());
    let mut requests = 0;
    let start = Instant::now();
    while flux_pass.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        for (mode, pass) in round(&mut rng) {
            let (answers, wall) = closed_loop(
                &mut daemon.client,
                &sources,
                &pass,
                width,
                &mut daemon.next_id,
                &mut off,
            )?;
            check_answers(&mut out, &sources, &answers);
            requests += answers.len();
            match mode {
                Mode::Flux => {
                    flux_pass.push(wall);
                    latency.extend(answers.iter().map(|a| a.latency_ms));
                }
                Mode::Baseline => baseline_pass.push(wall),
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = fluxd_pid().and_then(|pid| crate::worker::peak_rss_mb(Some(pid)));
    daemon
        .client
        .shutdown()
        .map_err(|e| format!("fluxd shutdown: {e}"))?;
    let rss = rss.ok_or("cannot read fluxd's peak resident memory")?;
    out.metrics = end_to_end(
        &setup,
        &flux_pass,
        &baseline_pass,
        &latency,
        requests as f64 / elapsed,
        requests,
        rss,
    );
    Ok(out)
}

/// The daemon's per-layer figures: after the warm-up, one untraced and one
/// traced round, with `status` read around the traced one.  Returns the
/// counters and the number of traced requests.
fn daemon_layers(
    opts: &Opts,
    width: usize,
    out: &mut Outcome,
) -> Result<(Counters, usize), String> {
    let sources = corpus_sources();
    let mut rng = Rng::new(opts.seed);
    let mut daemon = warm_daemon(opts, &sources, &mut rng, width, out)?;
    let client = &mut daemon.client;
    let order: Vec<(usize, Mode)> = round(&mut rng)
        .into_iter()
        .flat_map(|(_, pass)| pass)
        .collect();
    let mut off = Tracer::new(false);
    let (untraced, untraced_s) = closed_loop(
        client,
        &sources,
        &order,
        width,
        &mut daemon.next_id,
        &mut off,
    )?;
    check_answers(out, &sources, &untraced);
    let before = client.status().map_err(|e| format!("fluxd status: {e}"))?;
    let mut on = Tracer::new(true);
    let (traced, traced_s) = closed_loop(
        client,
        &sources,
        &order,
        width,
        &mut daemon.next_id,
        &mut on,
    )?;
    check_answers(out, &sources, &traced);
    let after = client.status().map_err(|e| format!("fluxd status: {e}"))?;
    daemon
        .client
        .shutdown()
        .map_err(|e| format!("fluxd shutdown: {e}"))?;

    let key = |a: &Answer| (a.program, a.mode as usize, a.verdict);
    let mut v1: Vec<_> = untraced.iter().map(key).collect();
    let mut v2: Vec<_> = traced.iter().map(key).collect();
    v1.sort();
    v2.sort();
    if v1 != v2 {
        out.defect("fluxd: traced and untraced verdicts differ".to_string());
    }
    for a in &traced {
        if a.service_ms > a.latency_ms + GLUE_FLOOR_MS {
            out.defect(format!(
                "fluxd: service time {} ms exceeds the {:.3} ms the client waited",
                a.service_ms, a.latency_ms
            ));
        }
    }
    let mut layer = Counters::default();
    for a in &traced {
        layer.add("daemon.service_ms", a.service_ms);
        layer.add("daemon.wait_ms", a.latency_ms - a.service_ms);
        match a.mode {
            Mode::Flux => {
                layer.add("fixpoint.queries", a.stats.get("smt_queries"));
                layer.add("fixpoint.cache_hits", a.stats.get("cache_hits"));
                layer.add("fixpoint.sessions", a.stats.get("sessions"));
            }
            Mode::Baseline => layer.add("wp.queries", a.stats.get("smt_queries")),
        }
    }
    let queries = layer.get("fixpoint.queries");
    layer.add(
        "fixpoint.hit_ratio",
        if queries > 0.0 {
            layer.get("fixpoint.cache_hits") / queries
        } else {
            0.0
        },
    );
    let delta = |k: &str| status_counter(&after, k) - status_counter(&before, k);
    layer.add("daemon.busy", delta("busy"));
    layer.add("daemon.respawns", delta("worker_respawns"));
    layer.add("fixpoint.evictions", delta("validity_evictions"));
    layer.add("smt.cnf_evictions", delta("cnf_evictions"));
    layer.add("logic.memo_evictions", delta("hcons_memo_evictions"));
    layer.add("logic.nodes_added", delta("hcons_nodes"));
    layer.add(
        "fixpoint.validity_len",
        status_counter(&after, "validity_len"),
    );
    layer.add("smt.cnf_len", status_counter(&after, "cnf_len"));
    layer.add("trace.overhead", (traced_s - untraced_s) * 1e3);
    out.spans
        .push(("fluxd requests".to_string(), on.spans().to_vec()));
    Ok((layer, traced.len()))
}

/// Writes the run's result file (metrics with sample counts, verdict
/// tally, defects, provenance) and, for a traced run, its Chrome trace.
pub fn write_files(opts: &Opts, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let samples: Vec<String> = m.samples.iter().map(|x| num(*x)).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"samples\": [{}]}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit),
                m.n,
                samples.join(", ")
            )
        })
        .collect();
    let defects: Vec<String> = outcome.defects.iter().map(|d| quote(d)).collect();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n \"provenance\": {},\n \
         \"attempted\": {}, \"failed\": {}, \"defects\": [{}],\n \"metrics\": {{{}}}}}\n",
        quote(&opts.workload),
        opts.seed,
        num(opts.seconds),
        opts.trace,
        opts.provenance,
        outcome.attempted,
        outcome.failed,
        defects.join(", "),
        metrics.join(",\n  ")
    );
    let path = opts.out.join(format!("{stem}.json"));
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;
    if opts.trace {
        let path = opts.out.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace::chrome_trace(&outcome.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
