//! Sensitivity study over the scenario axes the paper's fixed grid cannot
//! express: the Table I MVL extrapolation (MVL up to 512, P-VRF held at the
//! X8 physical-register floor) crossed with an L2-capacity axis — and,
//! optionally, the remaining hierarchy axes (L1 capacity, DRAM bandwidth,
//! VMU bus width, VVR rename-pool size) — run over single kernels and a
//! multi-kernel composite mix (plain, or a dataflow pipeline with
//! `--mix pipelined`).
//!
//! This binary is a thin shim over the spec-driven experiment driver: the
//! flags below translate into an in-memory [`ExperimentSpec`] (the
//! `experiments/sensitivity_*.json` manifests are the committed forms of
//! the same study) and [`ava_bench::driver`] runs it — one code path,
//! byte-identical output either way.
//!
//! Usage:
//!
//! ```text
//! sensitivity [--mvl 128,256,512] [--l2-kib 256,1024,4096]
//!             [--l1-kib 16,32,64] [--dram-bw 6,12,24] [--vmu-bus 32,64,128]
//!             [--vvr 32,64,128] [--chart tables|energy|all]
//!             [--mix independent|pipelined|solver] [--iters <n>]
//!             [--app <name>] [--threads <n>] [--store <dir>] [--resume]
//!             [--json <path>]
//! ```
//!
//! `--vvr` drives the AVA rename-pool axis: every grid point is re-run with
//! the given virtual-vector-register counts (at least the 32 architectural
//! registers), so the study covers how much of AVA's benefit survives a
//! smaller rename pool. `--chart energy` replaces the cycles tables with
//! the total-energy matrix (one row per MVL, one column per L2 capacity,
//! priced by the McPAT-style model); `--chart all` prints both.
//!
//! `--mix solver` adds the iterative somier-relaxation mix
//! (`Composite::iterated`, named "iterated"): the relaxation body unrolled
//! `--iters` times (default 4; the flag is only accepted together with
//! `--mix solver`) with position/velocity carry links ping-ponging between
//! two arrays, validated against the `n`-step scalar reference. The
//! iteration count is a first-class scenario axis: every solver-mix report
//! carries `"axes":{"iters":n}`, so rerunning with different `--iters`
//! values sweeps that axis like any other.
//!
//! `--store <dir>` attaches the content-addressed result store, which is
//! what makes the large crossed grids practical: a killed run resumes where
//! it stopped (`--resume` asserts a checkpoint exists), a rerun with one
//! more axis value simulates only the new points.
//!
//! With `--json`, the instrumented sweep report — axis metadata, the derived
//! per-point energy breakdown and the per-phase (and, for the solver mix,
//! per-iteration) composite breakdowns included — is written to `<path>`.

use std::process::ExitCode;

use ava_bench::cli::{usage_error, BenchArgs};
use ava_bench::driver;
use ava_bench::spec::{AxesSpec, ExperimentSpec};
use ava_isa::{MAX_MVL_ELEMS, MIN_MVL_ELEMS};

const USAGE: &str = "sensitivity [--mvl 128,256,512] [--l2-kib 256,1024,4096] \
                     [--l1-kib 16,32,64] [--dram-bw 6,12,24] [--vmu-bus 32,64,128] \
                     [--vvr 32,64,128] [--chart tables|energy|all] \
                     [--mix independent|pipelined|solver] [--iters <n>] [--app <name>] \
                     [--threads <n>] [--store <dir>] [--resume] [--json <path>]";

fn parse_list(arg: &str, what: &str) -> Result<Vec<usize>, String> {
    arg.split(',')
        .map(|v| {
            v.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid {what} value: {v}"))
        })
        .collect()
}

fn parse_list_u64(arg: &str, what: &str) -> Result<Vec<u64>, String> {
    parse_list(arg, what).map(|v| v.into_iter().map(|x| x as u64).collect())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => usage_error(USAGE, &e),
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = BenchArgs::parse()?;

    let mut axes = AxesSpec::default();
    if let Some(v) = args.take_value("--mvl")? {
        axes.mvl = parse_list(&v, "--mvl")?;
    }
    if let Some(v) = args.take_value("--l2-kib")? {
        axes.l2_kib = parse_list(&v, "--l2-kib")?;
    }
    if let Some(v) = args.take_value("--l1-kib")? {
        axes.extra.l1_kib = parse_list(&v, "--l1-kib")?;
    }
    if let Some(v) = args.take_value("--dram-bw")? {
        axes.extra.dram_bw = parse_list_u64(&v, "--dram-bw")?;
    }
    if let Some(v) = args.take_value("--vmu-bus")? {
        axes.extra.vmu_bus = parse_list_u64(&v, "--vmu-bus")?;
    }
    if let Some(v) = args.take_value("--vvr")? {
        axes.extra.vvrs = parse_list(&v, "--vvr")?;
    }
    let chart = args
        .take_value("--chart")?
        .unwrap_or_else(|| "tables".into());
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
    let app_filter = args.take_value("--app")?;
    args.finish()?;

    // Keep the legacy flag diagnostics verbatim; the spec layer re-checks
    // the same constraints with its manifest-flavoured wording.
    if axes.mvl.is_empty() || axes.l2_kib.is_empty() {
        return Err("--mvl and --l2-kib need at least one value each".to_string());
    }
    if let Some(bad) = axes
        .mvl
        .iter()
        .find(|&&m| m % MIN_MVL_ELEMS != 0 || !(MIN_MVL_ELEMS..=MAX_MVL_ELEMS).contains(&m))
    {
        return Err(format!(
            "--mvl values must be multiples of {MIN_MVL_ELEMS} in \
             {MIN_MVL_ELEMS}..={MAX_MVL_ELEMS}, got {bad}"
        ));
    }
    if axes.l2_kib.contains(&0) || axes.extra.l1_kib.contains(&0) {
        return Err("cache capacities must be non-zero".to_string());
    }
    if axes.extra.dram_bw.contains(&0) || axes.extra.vmu_bus.contains(&0) {
        return Err("--dram-bw and --vmu-bus values must be non-zero".to_string());
    }
    if let Some(&bad) = axes.extra.vvrs.iter().find(|&&v| v < 32) {
        return Err(format!(
            "--vvr values must be at least the 32 architectural registers, got {bad}"
        ));
    }

    let spec = ExperimentSpec::sensitivity(axes, &mix, iters, app_filter, &chart)?;
    driver::run(&spec, &args)
}
