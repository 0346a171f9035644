//! Ablation study over the microarchitectural parameters DESIGN.md calls
//! out: issue-queue depth, reorder-buffer size and the per-memory-operation
//! overhead of the vector memory unit. Run on the configuration that
//! stresses the swap mechanism hardest (AVA X8, Blackscholes) and on the
//! swap-free baseline (NATIVE X1, Axpy) so both regimes are visible.
//!
//! A thin shim over the spec-driven experiment driver
//! (`experiments/ablation_microarch.json` is the committed manifest form).
//! Each study is one sweep: a single workload against a declarative list of
//! system variants, executed in parallel by the sweep engine, whose workers
//! claim the variants most-expensive first through one shared cursor.
//! Results are bit-identical at any thread count. With `--store <dir>` a
//! rerun is served entirely from the result store.
//!
//! Usage: `cargo run --release -p ava-bench --bin ablation [-- --threads <n>]
//! [--store <dir>] [--resume] [--json <path>]`

use std::process::ExitCode;

use ava_bench::cli::{usage_error, BenchArgs};
use ava_bench::driver;
use ava_bench::spec::ExperimentSpec;

const USAGE: &str = "ablation [--threads <n>] [--store <dir>] [--resume] [--json <path>]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => usage_error(USAGE, &e),
    }
}

fn run() -> Result<ExitCode, String> {
    let args = BenchArgs::parse()?;
    args.finish()?;

    driver::run(&ExperimentSpec::ablation(), &args)
}
