//! The untraced path: a committed manifest driven through
//! `ava_bench::driver::execute` exactly as the `experiments` binary drives
//! it, plus a replica of the driver's pre-sweep calls that times set-up.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ava_bench::cli::BenchArgs;
use ava_bench::driver;
use ava_bench::spec::{ArtefactKind, ExperimentSpec, MixRegistry};
use ava_bench::{evaluated_systems, sensitivity_grid_with};
use ava_sim::{Json, ScenarioConfig, Sweep};

/// Worker threads of every timed sweep (the benchmark host has two cores).
pub const THREADS: usize = 2;

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The SplitMix64 generator: the seed's only consumer is the workload
/// order, so a tiny self-contained generator is enough.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The order seed of pass `pass` of a run seeded with `seed`: every pass
/// sees its own permutation of the workload list.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    SplitMix64::new(seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Fisher–Yates shuffle of `items` driven by `seed`.
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Reads and parses a manifest, then permutes its workload list by
/// `order_seed` (`None` keeps the manifest's order).
pub fn load_spec(manifest: &Path, order_seed: Option<u64>) -> Result<ExperimentSpec, String> {
    let label = manifest.display().to_string();
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read manifest {label}: {e}"))?;
    let mut spec = ExperimentSpec::parse(&label, &text)?;
    if spec.app.is_some() || spec.workloads.iter().any(|w| w.name == "solver") {
        return Err(format!(
            "{label}: app filters and solver mixes are not replayed by the benchmark"
        ));
    }
    if let Some(seed) = order_seed {
        permute(&mut spec.workloads, seed);
    }
    Ok(spec)
}

/// The result store a sweep runs against.
#[derive(Clone, Copy)]
pub struct StoreUse<'a> {
    pub dir: &'a Path,
    /// Pass `--resume`: the store already holds the grid.
    pub resume: bool,
}

/// The shared execution options of one invocation, parsed through the
/// binaries' own argument path (which opens the store).
pub fn bench_args(spec: &ExperimentSpec, store: Option<StoreUse>) -> Result<BenchArgs, String> {
    let mut argv = vec!["--threads".to_string(), THREADS.to_string()];
    if let Some(store) = store {
        argv.push("--store".to_string());
        argv.push(store.dir.display().to_string());
        if store.resume {
            argv.push("--resume".to_string());
        }
    }
    let mut args = BenchArgs::from_args(argv)?;
    args.apply_execution(&spec.execution)?;
    Ok(args)
}

/// The sweep grid the driver builds for `spec`: its workloads crossed with
/// the artefact's scenario list, resolved.
pub fn grid(spec: &ExperimentSpec) -> Result<Sweep, String> {
    let workloads = spec
        .workloads
        .iter()
        .map(MixRegistry::build)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Sweep::grid(workloads, scenarios(spec)?))
}

fn scenarios(spec: &ExperimentSpec) -> Result<Vec<ScenarioConfig>, String> {
    match spec.artefact {
        ArtefactKind::Fig3 => Ok(evaluated_systems()),
        ArtefactKind::Sensitivity => Ok(sensitivity_grid_with(
            &spec.axes.mvl,
            &spec.axes.l2_kib,
            &spec.axes.extra,
        )),
        other => Err(format!(
            "artefact {} is not a benchmark workload",
            other.as_str()
        )),
    }
}

/// One timed replica of the driver's pre-sweep work, call by call.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Reading the manifest and `ExperimentSpec::parse`.
    pub parse_ns: u64,
    /// `BenchArgs` parsing, which opens the result store.
    pub store_open_ns: u64,
    /// Building the workload list (`MixRegistry::build`).
    pub workloads_ns: u64,
    /// Building the scenario list and resolving it (`Sweep::grid`).
    pub resolve_ns: u64,
}

impl Setup {
    /// Time from entering the program to the first point being ready.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.store_open_ns + self.workloads_ns + self.resolve_ns
    }
}

/// Times the calls the driver makes before its first point starts.
pub fn time_setup(
    manifest: &Path,
    order_seed: u64,
    store: Option<StoreUse>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let spec = load_spec(manifest, Some(order_seed))?;
    let t1 = Instant::now();
    let args = bench_args(&spec, store)?;
    let t2 = Instant::now();
    let workloads = spec
        .workloads
        .iter()
        .map(MixRegistry::build)
        .collect::<Result<Vec<_>, _>>()?;
    let t3 = Instant::now();
    let sweep = Sweep::grid(workloads, scenarios(&spec)?);
    let t4 = Instant::now();
    black_box((&sweep, &args));
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Ok(Setup {
        parse_ns: ns(t0, t1),
        store_open_ns: ns(t1, t2),
        workloads_ns: ns(t2, t3),
        resolve_ns: ns(t3, t4),
    })
}

/// One executed point as the driver reported it.
#[derive(Debug, Clone)]
pub struct DriverPoint {
    /// `workload|config|axes`: the point's identity.
    pub key: String,
    pub wall_ns: u64,
    pub validated: bool,
    /// The point's `RunReport::to_json()` text.
    pub report: String,
}

/// One timed invocation of the driver.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Manifest read to artefacts returned.
    pub wall_ns: u64,
    /// `driver::execute` alone.
    pub execute_ns: u64,
    /// The sweep's own wall time.
    pub sweep_wall_ns: u64,
    /// Sum of the points' wall times.
    pub busy_ns: u64,
    pub threads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    /// In grid order.
    pub points: Vec<DriverPoint>,
}

/// Runs the manifest once through `driver::execute`, the way the
/// `experiments` binary does, with the workload list permuted by
/// `order_seed`.
pub fn invoke(manifest: &Path, order_seed: u64, store: Option<StoreUse>) -> Result<Pass, String> {
    let start = Instant::now();
    let spec = load_spec(manifest, Some(order_seed))?;
    let args = bench_args(&spec, store)?;
    let execute_start = Instant::now();
    let run = driver::execute(&spec, &args)?;
    let end = Instant::now();
    black_box(&run.stdout);
    let sweep = run
        .document
        .get("sweep")
        .ok_or("driver document has no sweep")?;
    pass_from_sweep(
        sweep,
        (end - start).as_nanos() as u64,
        (end - execute_start).as_nanos() as u64,
    )
}

fn pass_from_sweep(sweep: &Json, wall_ns: u64, execute_ns: u64) -> Result<Pass, String> {
    let points = sweep
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("sweep document has no points")?
        .iter()
        .map(|p| {
            let report = p.get("report").ok_or("point without report")?;
            Ok(DriverPoint {
                key: report_key(report)?,
                wall_ns: u64_at(p, &["wall_ns"])?,
                validated: report.get("validated").and_then(Json::as_bool) == Some(true),
                report: report.to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Pass {
        wall_ns,
        execute_ns,
        sweep_wall_ns: u64_at(sweep, &["wall_ns"])?,
        busy_ns: u64_at(sweep, &["busy_ns"])?,
        threads: u64_at(sweep, &["threads"])?,
        cache_hits: u64_at(sweep, &["cache", "hits"])?,
        cache_misses: u64_at(sweep, &["cache", "misses"])?,
        store_hits: u64_at(sweep, &["store", "hits"])?,
        points,
    })
}

fn u64_at(json: &Json, path: &[&str]) -> Result<u64, String> {
    path.iter()
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("sweep document lacks {}", path.join(".")))
}

/// The identity of a point from its report document.
pub fn report_key(report: &Json) -> Result<String, String> {
    let text = |k: &str| {
        report
            .get(k)
            .map(ToString::to_string)
            .ok_or_else(|| format!("report lacks {k}"))
    };
    Ok(format!(
        "{}|{}|{}",
        text("workload")?,
        text("config")?,
        text("axes")?
    ))
}

/// Per-point reports by identity, to compare passes with each other.
pub type Reports = HashMap<String, String>;

/// The reports of a pass, by identity.
pub fn reports_of(pass: &Pass) -> Reports {
    pass.points
        .iter()
        .map(|p| (p.key.clone(), p.report.clone()))
        .collect()
}

/// Checks every point of `pass`: it must validate and, when `reference`
/// is given, carry byte for byte the reference's report. Returns one
/// diagnostic per failed point.
pub fn check_pass(pass: &Pass, reference: Option<&Reports>, what: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for p in &pass.points {
        if !p.validated {
            failures.push(format!("{}: not validated", p.key));
        } else if let Some(reference) = reference {
            match reference.get(&p.key) {
                None => failures.push(format!("{}: missing from {what}", p.key)),
                Some(r) if *r != p.report => {
                    failures.push(format!("{}: report differs from {what}", p.key));
                }
                Some(_) => {}
            }
        }
    }
    if let Some(reference) = reference {
        if reference.len() != pass.points.len() {
            failures.push(format!(
                "{} points, but {what} has {}",
                pass.points.len(),
                reference.len()
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let base: Vec<u32> = (0..6).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        permute(&mut a, 7);
        permute(&mut b, 7);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a permutation keeps every item");
        let orders: std::collections::HashSet<Vec<u32>> = (0..32)
            .map(|s| {
                let mut v = base.clone();
                permute(&mut v, pass_seed(s, 0));
                v
            })
            .collect();
        assert!(orders.len() > 16, "seeds spread over the orders");
    }
}
