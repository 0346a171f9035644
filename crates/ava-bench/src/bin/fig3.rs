//! Regenerates Figure 3 of the paper: for each of the six RiVEC-style
//! applications and each evaluated configuration (NATIVE X1..X8,
//! RG-LMUL1..8, AVA X1..X8), the vector-memory-instruction breakdown, the
//! instruction mix, the execution time/speedup and the energy breakdown.
//!
//! This binary is a thin shim over the spec-driven experiment driver: the
//! flags below translate into an in-memory [`ExperimentSpec`]
//! (`experiments/fig3_extrapolation.json` is the committed manifest form of
//! the same experiment) and [`ava_bench::driver`] runs it — one code path,
//! byte-identical output either way.
//!
//! Usage:
//!
//! ```text
//! fig3 [--app <name>] [--chart mem|mix|perf|energy|all]
//!      [--mix pipelined|solver] [--iters <n>] [--threads <n>]
//!      [--store <dir>] [--resume] [--json <path>]
//! ```
//!
//! `--mix pipelined` appends the three-stage dataflow pipeline
//! (axpy → somier → axpy with chained golden references) to the workload
//! set, so the figure additionally covers a mix whose phases exchange data
//! through the memory hierarchy. `--mix solver` appends the iterative
//! somier-relaxation mix instead: the relaxation body unrolled `--iters`
//! times (default 4; the flag is only accepted together with
//! `--mix solver`) with ping-pong carry links, validated against the
//! n-step scalar reference and reported with one `iter`-labelled breakdown
//! per iteration.
//!
//! `--store <dir>` attaches the content-addressed result store: points
//! already computed by any previous run (of this or another binary) are
//! served from disk, fresh points are checkpointed as workers finish, and
//! `--resume` asserts the directory already holds such a checkpoint.
//!
//! With `--json`, the instrumented sweep report (per-point counters,
//! wall-clock timing, compile-cache and result-store statistics and the
//! derived per-point energy breakdown from the McPAT-style model) is
//! additionally written to `<path>` for CI and downstream plotting.

use std::process::ExitCode;

use ava_bench::cli::{usage_error, BenchArgs};
use ava_bench::driver;
use ava_bench::spec::ExperimentSpec;

const USAGE: &str = "fig3 [--app <name>] [--chart mem|mix|perf|energy|all] \
                     [--mix pipelined|solver] [--iters <n>] [--threads <n>] \
                     [--store <dir>] [--resume] [--json <path>]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => usage_error(USAGE, &e),
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = BenchArgs::parse()?;
    let app_filter = args.take_value("--app")?;
    let chart = args.take_value("--chart")?.unwrap_or_else(|| "all".into());
    let mix = args
        .take_value("--mix")?
        .unwrap_or_else(|| "independent".into());
    let iters = match args.take_value("--iters")? {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err(format!("--iters needs a positive integer, got {v}")),
        },
        None => None,
    };
    args.finish()?;

    let spec = ExperimentSpec::fig3(app_filter, &chart, &mix, iters)?;
    driver::run(&spec, &args)
}
