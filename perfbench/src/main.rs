//! `perfbench`: runs one workload of the repository benchmark and prints
//! its metrics, ending with a one-line JSON result.  `run.py` builds it and
//! passes the arguments through; see `README.md`.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --fluxd <path> --out <dir> --provenance <json>
//! perfbench worker <job>        (internal: one pass in a fresh process)
//! ```

use perfbench::report::print_result;
use perfbench::workloads::{self, Opts};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => perfbench::worker::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => {
            eprintln!("usage: perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --fluxd <path> --out <dir> --provenance <json>");
            2
        }
    };
    std::process::exit(code);
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        fluxd: PathBuf::new(),
        out: PathBuf::new(),
        provenance: "{}".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--fluxd" => opts.fluxd = PathBuf::from(value),
            "--out" => opts.out = PathBuf::from(value),
            "--provenance" => opts.provenance = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() || !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--workload and a positive --seconds are required".to_string());
    }
    Ok(opts)
}

fn run(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("provenance {}", opts.provenance);
    let outcome = match workloads::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for defect in &outcome.defects {
        println!("DEFECT {defect}");
    }
    if let Err(e) = workloads::write_files(&opts, &outcome) {
        eprintln!("perfbench: {e}");
        return 1;
    }
    let correct = outcome.defects.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    print_result(&outcome.metrics, outcome.attempted, outcome.failed, correct);
    if correct {
        0
    } else {
        1
    }
}
