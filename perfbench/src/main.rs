//! Layer-by-layer benchmark of SpecHD: four closed-loop workloads over the
//! public library API and a real `spechd-server` process.
//!
//! ```text
//! spechd-perfbench --workload <batch|stream_job|incremental|search>
//!     --seed N --seconds S --trace <0|1> --server-bin PATH --work-dir DIR
//!     --spans-dir DIR [--perturb]
//! ```
//!
//! Every run generates its inputs from `--seed`, sets the program up
//! several times (the median is `setup_s`), passes the workload's
//! correctness gate, and only then measures for `--seconds`. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics derived from spans
//! recorded around every layer call (see `trace.rs`). `--perturb` corrupts
//! one output before the gate compares it, to show the gate fails; it
//! never prints a result. See `perfbench/README.md`.

mod batch;
mod common;
mod incremental;
mod search;
mod stream_job;
mod trace;

use common::{Args, Report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", common::USAGE);
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "stream_job" => stream_job::run(&args),
        "incremental" => incremental::run(&args),
        "search" => search::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perfbench] {}: FAILED: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
