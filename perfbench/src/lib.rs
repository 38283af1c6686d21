//! The repository benchmark: workloads, known answers, the `gen-mixed`
//! generator and the span recorder behind the traced run.  The `perfbench`
//! binary drives them; see `README.md` for the metrics and workloads.

pub mod gen;
pub mod known;
pub mod report;
pub mod trace;
pub mod worker;
pub mod workloads;
