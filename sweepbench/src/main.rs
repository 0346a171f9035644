//! `sweepbench`: the end-to-end and per-layer benchmark of the experiment
//! sweep pipeline. From the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path sweepbench/Cargo.toml -- \
//!     --workload <hierarchy_cold|hierarchy_warm> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Both workloads run the committed `experiments/sensitivity_hierarchy.json`
//! grid. Untraced (`--trace 0`), a run drives the manifest through `ava_bench::driver::execute` at two workers, pass after pass for
//! `--seconds`, and reports the end-to-end metrics. Traced (`--trace 1`),
//! every pass is followed by a replay of the whole grid through the layers'
//! public functions ([`replay`]) and the run reports the per-layer metrics.
//! Either way every point must validate, every pass must reproduce the first
//! pass's reports under its own workload order, every replayed report must
//! equal the driver's byte for byte, and every warm report the cold one.
//! The last line of stdout is the result as one JSON object; the exit code
//! is 1 when a check failed and 2 when the run could not be made.

mod pipeline;
mod replay;
mod stats;

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ava_bench::sweep_energy_json;
use ava_sim::json::object;
use ava_sim::{Json, PointStats, ResultStore, SweepReport};

use pipeline::{
    check_pass, grid, invoke, load_spec, pass_seed, report_key, reports_of, time_setup, Pass,
    Reports, Setup, StoreUse, THREADS,
};
use replay::{Layer, Replay};
use stats::{calibrate_ms, median, self_time, tail};

/// The end-to-end metrics (`--trace 0`), with units. `failed_frac` is
/// printed in the summary but kept out of the result object: it is zero on
/// every passing run, and the result's `attempted`/`failed` carry it.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("point_ms_p50", "ms"),
    ("point_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 32] = [
    ("spec.parse_ms", "ms"),
    ("configs.resolve_ms", "ms"),
    ("workloads.plan_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("workloads.builds", "count"),
    ("workloads.build_reuse_ratio", "ratio"),
    ("workloads.validate_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("compiler.compiles", "count"),
    ("sweep.progcache_hit_ratio", "ratio"),
    ("memory.new_ms", "ms"),
    ("memory.warm_ms", "ms"),
    ("memory.l2_miss_ratio", "ratio"),
    ("memory.dram_mib", "MiB"),
    ("vpu.new_ms", "ms"),
    ("vpu.simulate_ms", "ms"),
    ("vpu.sim_instrs", "count"),
    ("vpu.sim_cycles", "count"),
    ("vpu.swap_ops", "count"),
    ("vpu.ns_per_sim_instr", "ns/instr"),
    ("store.key_ms", "ms"),
    ("store.lookup_ms", "ms"),
    ("store.insert_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("energy.breakdown_ms", "ms"),
    ("driver.render_ms", "ms"),
    ("sweep.busy_ms", "ms"),
    ("sweep.idle_ms", "ms"),
    ("sweep.utilization", "ratio"),
    ("point.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.calib_ms", "ms"),
];

/// Set-up replicas per batch. A batch runs before every pass and after the
/// last, so the batches span the whole run.
const SETUP_REPS: usize = 8;

/// Seconds both cores spin before anything is timed.
const WARM_UP_SECONDS: f64 = 2.0;

/// Calibration loops timed before and after the run.
const CALIB_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Each pass against a fresh store.
    HierarchyCold,
    /// `--resume` against a store an untimed cold pass filled.
    HierarchyWarm,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::HierarchyCold, Workload::HierarchyWarm];

    fn name(self) -> &'static str {
        match self {
            Workload::HierarchyCold => "hierarchy_cold",
            Workload::HierarchyWarm => "hierarchy_warm",
        }
    }
}

/// The manifest both workloads run.
fn manifest() -> PathBuf {
    pipeline::repo_root()
        .join("experiments")
        .join("sensitivity_hierarchy.json")
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--fill") {
        return match fill_child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sweepbench --fill: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_options(&argv).and_then(|o| run(&o)) {
        Ok(result) => {
            println!("{}", result.json);
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Where runs keep their result stores.
fn runs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".runs")
}

/// The run's private directory for result stores, removed when the run
/// ends (also on error).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Result<Self, String> {
        let dir = runs_dir().join(format!("{}-{label}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Fills a store with one cold pass of the hierarchy grid and prints each
/// point's report, one per line. It runs as a child process so the warm
/// workload's peak memory is its own.
fn fill_child(argv: &[String]) -> Result<(), String> {
    let [dir, seed_flag, seed] = argv else {
        return Err("usage: --fill <store-dir> --seed <n>".to_string());
    };
    if seed_flag != "--seed" {
        return Err("usage: --fill <store-dir> --seed <n>".to_string());
    }
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let pass = invoke(
        &manifest(),
        seed,
        Some(StoreUse {
            dir: Path::new(dir),
            resume: false,
        }),
    )?;
    let mut out = String::new();
    for p in &pass.points {
        out.push_str(&p.report);
        out.push('\n');
    }
    print!("{out}");
    Ok(())
}

/// The filled store of the warm workload, and the cold reports it holds.
/// The first warm run of a build of the benchmark fills it with one
/// untimed cold pass in a child process; later runs of the same build
/// reuse it, since warm passes only read it. A rebuilt benchmark (another
/// executable size or time) fills a new one and removes the old.
fn warm_store(seed: u64) -> Result<(PathBuf, Reports), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let meta = fs::metadata(&exe).map_err(|e| format!("cannot stat the benchmark: {e}"))?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .ok_or("the benchmark executable has no modification time")?;
    let name = format!("warm-{}-{}", meta.len(), built.as_nanos());
    let runs = runs_dir();
    let dir = runs.join(&name);
    if !dir.is_dir() {
        if let Ok(entries) = fs::read_dir(&runs) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with("warm-") {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        let tmp = runs.join(format!("{name}.fill-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let reports = fill(&exe, &tmp.join("store"), seed)?;
        fs::write(tmp.join(COLD_REPORTS), reports)
            .map_err(|e| format!("cannot save the cold reports: {e}"))?;
        if fs::rename(&tmp, &dir).is_err() {
            // Another run filled it first.
            let _ = fs::remove_dir_all(&tmp);
        }
    }
    let text = fs::read_to_string(dir.join(COLD_REPORTS))
        .map_err(|e| format!("cannot read the cold reports: {e}"))?;
    let reports = text
        .lines()
        .map(|line| Ok((report_key(&ava_sim::json::parse(line)?)?, line.to_string())))
        .collect::<Result<Reports, String>>()?;
    Ok((dir.join("store"), reports))
}

/// The warm store's cold reports, one `RunReport::to_json()` per line.
const COLD_REPORTS: &str = "cold-reports.txt";

/// Runs [`fill_child`] and returns the reports it prints.
fn fill(exe: &Path, dir: &Path, seed: u64) -> Result<String, String> {
    let output = Command::new(exe)
        .arg("--fill")
        .arg(dir)
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the fill pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("the fill pass failed: {}", output.status));
    }
    String::from_utf8(output.stdout).map_err(|_| "fill output is not UTF-8".to_string())
}

/// The checks' tally: points attempted, and one diagnostic per failed point.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, points: usize, failures: Vec<String>) {
        self.attempted += points as u64;
        self.failures.extend(failures);
    }
}

struct RunResult {
    json: Json,
    failed: usize,
}

fn run(opts: &Options) -> Result<RunResult, String> {
    let scratch = Scratch::new(opts.workload.name())?;
    let manifest = manifest();
    stats::warm_up(THREADS, WARM_UP_SECONDS);
    let mut calib: Vec<f64> = (0..CALIB_REPS).map(|_| calibrate_ms()).collect();
    let calib_before = median(&calib);

    let (warm_dir, mut reference) = match opts.workload {
        Workload::HierarchyWarm => {
            let (dir, reports) = warm_store(pass_seed(opts.seed, u64::MAX))?;
            (dir, Some(reports))
        }
        Workload::HierarchyCold => (scratch.path("warm"), None),
    };
    let reference_name = match opts.workload {
        Workload::HierarchyWarm => "the cold pass",
        Workload::HierarchyCold => "the first pass",
    };

    let mut checks = Checks::default();
    // Only the timings of checked passes are kept, so the reports of
    // earlier passes do not add to the run's peak memory.
    let mut passes: Vec<Timing> = Vec::new();
    let mut setups: Vec<Vec<Setup>> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    loop {
        let k = passes.len();
        let order_seed = pass_seed(opts.seed, k as u64);
        setups.push(setup_batch(
            opts.workload,
            &manifest,
            &scratch,
            &warm_dir,
            order_seed,
            k,
        )?);

        let cold_dir = scratch.path(&format!("cold-{k}"));
        let store = store_for(opts.workload, &cold_dir, &warm_dir);
        let pass = invoke(&manifest, order_seed, Some(store))?;
        let mut failures = check_pass(&pass, reference.as_ref(), reference_name);
        if store.resume && pass.store_hits != pass.points.len() as u64 {
            failures.push(format!(
                "warm pass {k}: the store served {} of {} points",
                pass.store_hits,
                pass.points.len()
            ));
        }
        checks.record(pass.points.len(), failures);
        if reference.is_none() {
            reference = Some(reports_of(&pass));
        }

        if opts.trace {
            let replay_dir = scratch.path(&format!("replay-{k}"));
            // A warm replay must be served entirely from the store.
            let store = store_for(opts.workload, &replay_dir, &warm_dir);
            layers.push(trace_pass(
                &manifest,
                &pass,
                Some(store.dir),
                store.resume,
                &mut checks,
            )?);
            let _ = fs::remove_dir_all(&replay_dir);
        }
        let _ = fs::remove_dir_all(&cold_dir);
        passes.push(Timing {
            wall_ns: pass.wall_ns,
            point_ns: pass.points.iter().map(|p| p.wall_ns).collect(),
        });

        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes.len() as f64 > opts.seconds {
            break;
        }
    }
    setups.push(setup_batch(
        opts.workload,
        &manifest,
        &scratch,
        &warm_dir,
        pass_seed(opts.seed, passes.len() as u64),
        passes.len(),
    )?);
    let calib_after: Vec<f64> = (0..CALIB_REPS).map(|_| calibrate_ms()).collect();
    let calib_after_ms = median(&calib_after);
    calib.extend(calib_after);

    let failed = checks.failures.len();
    for f in checks.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let failed_frac = failed as f64 / checks.attempted as f64;
    println!(
        "sweepbench {} seed {}: {} pass(es), {} points checked, {} failed (failed_frac {failed_frac}), tracing {}",
        opts.workload.name(),
        opts.seed,
        passes.len(),
        checks.attempted,
        failed,
        if opts.trace { "on" } else { "off" },
    );
    println!("host.calib_ms before {calib_before:.3} after {calib_after_ms:.3}");

    let metrics = if opts.trace {
        per_layer(&layers, &setups, &calib)
    } else {
        end_to_end(&passes, &setups)?
    };
    for (name, unit, value) in &metrics {
        if !stats::valid_name(name) || !stats::valid_unit(unit) || !value.is_finite() {
            return Err(format!("metric {name} = {value} {unit} cannot be reported"));
        }
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let json = object()
        .field("correct", failed == 0)
        .field("attempted", checks.attempted)
        .field("failed", failed)
        .field(
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_string(),
                            object().field("value", value).field("unit", unit).finish(),
                        )
                    })
                    .collect(),
            ),
        )
        .finish();
    Ok(RunResult { json, failed })
}

/// The per-layer metrics of a traced run: the median over its passes of
/// each pass's layer metrics, plus the set-up and calibration medians.
fn per_layer(
    layers: &[BTreeMap<&'static str, f64>],
    setups: &[Vec<Setup>],
    calib: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "spec.parse_ms" => setup_ms(setups, |s| s.parse_ns),
                "configs.resolve_ms" => setup_ms(setups, |s| s.resolve_ns),
                "host.calib_ms" => median(calib),
                _ => median(&layers.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            (name, unit, value)
        })
        .collect()
}

/// The store a pass or a set-up replica of `workload` runs against: the
/// fresh directory `fresh` on the cold workload, the filled store `warm` on
/// the warm one.
fn store_for<'a>(workload: Workload, fresh: &'a Path, warm: &'a Path) -> StoreUse<'a> {
    match workload {
        Workload::HierarchyCold => StoreUse {
            dir: fresh,
            resume: false,
        },
        Workload::HierarchyWarm => StoreUse {
            dir: warm,
            resume: true,
        },
    }
}

/// The median over set-up batches of each batch's mean of `f`, in
/// milliseconds. The set-up cost flips between a fast and a slow mode
/// (about 37 and 57 ms on the hierarchy grid) within a fraction of a
/// second. A batch's mean averages over the flips, where the median of
/// single replicas jumps from one mode to the other.
fn setup_ms(batches: &[Vec<Setup>], f: impl Fn(&Setup) -> u64) -> f64 {
    let means: Vec<f64> = batches
        .iter()
        .map(|b| b.iter().map(|s| f(s) as f64).sum::<f64>() / b.len() as f64 / 1e6)
        .collect();
    median(&means)
}

/// [`SETUP_REPS`] timed set-up replicas against the pass's kind of store.
fn setup_batch(
    workload: Workload,
    manifest: &Path,
    scratch: &Scratch,
    warm_dir: &Path,
    order_seed: u64,
    batch: usize,
) -> Result<Vec<Setup>, String> {
    (0..SETUP_REPS)
        .map(|rep| {
            let dir = scratch.path(&format!("setup-{batch}-{rep}"));
            let setup = time_setup(
                manifest,
                order_seed,
                Some(store_for(workload, &dir, warm_dir)),
            );
            let _ = fs::remove_dir_all(&dir);
            setup
        })
        .collect()
}

/// The timings of one untraced pass.
struct Timing {
    wall_ns: u64,
    point_ns: Vec<u64>,
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(
    passes: &[Timing],
    setups: &[Vec<Setup>],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let ms = |p: &Timing| {
        p.point_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>()
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let points: Vec<f64> = passes.iter().flat_map(ms).collect();
    let tails = passes
        .iter()
        .map(|p| tail(&ms(p)))
        .collect::<Option<Vec<_>>>()
        .ok_or("too few points per pass for a tail percentile")?;
    println!(
        "point_ms_tail: p{:.2} of {} points per pass ({} beyond it), median of {} passes",
        tails[0].percentile,
        tails[0].samples,
        stats::TAIL_BEYOND,
        tails.len()
    );
    let values = [
        median(&walls),
        stats::hd_quantile(&points, 0.5),
        median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        setup_ms(setups, Setup::total_ns) / 1e3,
        peak_rss_mib()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect())
}

/// Peak resident memory of this process so far.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Replays the grid of `manifest` (in the manifest's own workload order)
/// after the driver's `pass`, checks every replayed report against the
/// driver's, and returns the pass's per-layer metrics.
fn trace_pass(
    manifest: &Path,
    pass: &Pass,
    store_dir: Option<&Path>,
    expect_hits: bool,
    checks: &mut Checks,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let spec = load_spec(manifest, None)?;
    let sweep = grid(&spec)?;
    let store = store_dir.map(ResultStore::open).transpose()?;
    let replay = replay::replay(&sweep, store.as_ref(), THREADS);

    let driver = reports_of(pass);
    let mut failures = Vec::new();
    for p in &replay.points {
        let json = p.report.to_json();
        let key = report_key(&json)?;
        if !p.report.validated {
            failures.push(format!("{key}: replay not validated"));
        } else if driver.get(&key) != Some(&json.to_string()) {
            failures.push(format!("{key}: replayed report differs from the driver's"));
        }
    }
    let hits = replay.points.iter().filter(|p| p.from_store).count();
    if expect_hits && hits != replay.points.len() {
        failures.push(format!(
            "the warm store served {hits} of {} replayed points",
            replay.points.len()
        ));
    }
    if replay.points.len() != pass.points.len() {
        failures.push(format!(
            "replay has {} points, the driver {}",
            replay.points.len(),
            pass.points.len()
        ));
    }
    checks.record(replay.points.len(), failures);

    let energy_start = Instant::now();
    std::hint::black_box(sweep_energy_json(
        &sweep_report(&replay, &sweep),
        sweep.resolved_systems(),
    ));
    let energy_ms = energy_start.elapsed().as_secs_f64() * 1e3;
    Ok(layer_metrics(&replay, pass, energy_ms))
}

/// The replay's reports as a sweep report, for the driver's energy call.
fn sweep_report(replay: &Replay, sweep: &ava_sim::Sweep) -> SweepReport {
    let systems = sweep.resolved_systems().len();
    let workloads = sweep.workloads();
    SweepReport {
        reports: replay.points.iter().map(|p| p.report.clone()).collect(),
        points: replay
            .points
            .iter()
            .map(|p| PointStats {
                workload: p.report.workload.clone(),
                config: p.report.config.clone(),
                cost_estimate: 0,
                elements: workloads[p.index / systems].elements() as u64,
                wall_ns: p.end_ns - p.start_ns,
                worker: 0,
                from_store: p.from_store,
            })
            .collect(),
        cache_hits: replay.compile_requests - replay.compiles,
        cache_misses: replay.compiles,
        cache_disk_hits: 0,
        cache_disk_misses: 0,
        compiles: replay.compiles,
        store_hits: 0,
        store_misses: 0,
        threads: THREADS,
        steals: 0,
        shard: None,
        wall_ns: replay.wall_ns,
    }
}

/// The per-layer metrics of one traced pass (set-up and calibration
/// metrics are added by the caller).
fn layer_metrics(replay: &Replay, pass: &Pass, energy_ms: f64) -> BTreeMap<&'static str, f64> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = BTreeMap::new();

    let mut layer_ns: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    let mut lookups = 0u64;
    let mut point_ns = 0u64;
    let mut unattributed_ns = 0u64;
    for p in &replay.points {
        for s in &p.spans {
            *layer_ns.get_mut(&s.layer).expect("every layer listed") += s.end_ns - s.start_ns;
            lookups += u64::from(s.layer == Layer::StoreLookup);
        }
        point_ns += p.end_ns - p.start_ns;
        let children: Vec<(u64, u64)> = p.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        unattributed_ns += self_time((p.start_ns, p.end_ns), &children);
    }
    for (layer, ns) in &layer_ns {
        m.insert(layer.metric(), ms(*ns));
    }

    let n = replay.points.len() as f64;
    let builds: HashSet<u64> = replay.points.iter().map(|p| p.build_id).collect();
    m.insert("workloads.builds", n);
    m.insert("workloads.build_reuse_ratio", ratio(builds.len() as f64, n));
    m.insert("compiler.compiles", replay.compiles as f64);
    m.insert(
        "sweep.progcache_hit_ratio",
        ratio(
            pass.cache_hits as f64,
            (pass.cache_hits + pass.cache_misses) as f64,
        ),
    );

    let (mut l2_misses, mut l2_accesses, mut dram_bytes) = (0u64, 0u64, 0u64);
    let (mut instrs, mut cycles, mut swaps) = (0u64, 0u64, 0u64);
    for p in &replay.points {
        let r = &p.report;
        l2_misses += r.mem.l2.misses();
        l2_accesses += r.mem.l2.accesses();
        dram_bytes += r.mem.dram_bytes;
        if !p.from_store {
            instrs += r.vpu.issued_instrs();
            cycles += r.vpu_cycles;
            swaps += r.vpu.swap_ops();
        }
    }
    m.insert(
        "memory.l2_miss_ratio",
        ratio(l2_misses as f64, l2_accesses as f64),
    );
    m.insert("memory.dram_mib", dram_bytes as f64 / f64::from(1 << 20));
    m.insert("vpu.sim_instrs", instrs as f64);
    m.insert("vpu.sim_cycles", cycles as f64);
    m.insert("vpu.swap_ops", swaps as f64);
    m.insert(
        "vpu.ns_per_sim_instr",
        ratio(layer_ns[&Layer::Simulate] as f64, instrs as f64),
    );

    let hits = replay.points.iter().filter(|p| p.from_store).count();
    m.insert("store.hit_ratio", ratio(hits as f64, lookups as f64));
    m.insert("energy.breakdown_ms", energy_ms);
    m.insert(
        "driver.render_ms",
        ms(pass.execute_ns.saturating_sub(pass.sweep_wall_ns)),
    );
    let capacity = pass.sweep_wall_ns as f64 * pass.threads as f64;
    m.insert("sweep.busy_ms", ms(pass.busy_ns));
    m.insert(
        "sweep.idle_ms",
        (capacity - pass.busy_ns as f64).max(0.0) / 1e6,
    );
    m.insert("sweep.utilization", ratio(pass.busy_ns as f64, capacity));
    m.insert("point.unattributed_ms", ms(unattributed_ns));
    // The tracing overhead is what the spans themselves cost. The replay's
    // point time minus the driver's busy time would also hold the host's
    // speed drift between the two, which is several times larger.
    let spans: usize = replay.points.iter().map(|p| p.spans.len() + 1).sum();
    m.insert(
        "trace.overhead_frac",
        ratio(spans as f64 * replay::span_cost_ns(), point_ns as f64),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_manifest(scratch: &Scratch, name: &str, text: &str) -> PathBuf {
        let path = scratch.path(name);
        fs::write(&path, text).expect("manifest written");
        path
    }

    const SMALL_FIG3: &str = r#"{"artefact": "fig3", "workloads": [
        {"name": "axpy", "n": 256}, {"name": "blackscholes", "n": 64},
        {"name": "lavamd2", "n": 8, "m": 2}]}"#;

    const SMALL_HIERARCHY: &str = r#"{"artefact": "sensitivity",
        "workloads": [{"name": "axpy", "n": 512}, {"name": "somier", "n": 256},
                      {"name": "blackscholes", "n": 128}],
        "axes": {"mvl": [128, 256], "l2_kib": [256, 1024], "dram_bw": [6, 24]}}"#;

    #[test]
    fn replay_equals_driver_on_scaled_down_grids() {
        let scratch = Scratch::new("test-replay").expect("scratch");
        let fig3 = write_manifest(&scratch, "fig3.json", SMALL_FIG3);
        let pass = invoke(&fig3, 1, None).expect("fig3 pass");
        assert_eq!(pass.points.len(), 3 * 14);
        let mut checks = Checks::default();
        checks.record(pass.points.len(), check_pass(&pass, None, "nothing"));
        let layers = trace_pass(&fig3, &pass, None, false, &mut checks).expect("fig3 replay");
        assert_eq!(checks.failures, Vec::<String>::new());
        assert!(layers["compiler.compiles"] >= 1.0);
        assert_eq!(layers["store.hit_ratio"], 0.0);

        // A cold pass into a fresh store, a replay into another fresh store,
        // then a warm pass and a warm replay against the first store.
        let hierarchy = write_manifest(&scratch, "hierarchy.json", SMALL_HIERARCHY);
        let cold_dir = scratch.path("cold");
        let cold = invoke(
            &hierarchy,
            2,
            Some(StoreUse {
                dir: &cold_dir,
                resume: false,
            }),
        )
        .expect("cold pass");
        assert_eq!(cold.points.len(), 3 * 8);
        assert_eq!(cold.store_hits, 0);
        let replay_dir = scratch.path("replay");
        trace_pass(&hierarchy, &cold, Some(&replay_dir), false, &mut checks).expect("cold replay");
        let warm = invoke(
            &hierarchy,
            3,
            Some(StoreUse {
                dir: &cold_dir,
                resume: true,
            }),
        )
        .expect("warm pass");
        assert_eq!(warm.store_hits, warm.points.len() as u64);
        let reference = reports_of(&cold);
        checks.record(
            warm.points.len(),
            check_pass(&warm, Some(&reference), "cold"),
        );
        let layers =
            trace_pass(&hierarchy, &warm, Some(&cold_dir), true, &mut checks).expect("warm replay");
        assert_eq!(checks.failures, Vec::<String>::new());
        assert_eq!(layers["store.hit_ratio"], 1.0);
        assert_eq!(layers["vpu.sim_instrs"], 0.0, "hits simulate nothing");

        // The gate catches a report that changed, in the passes and in the
        // replay alike.
        let mut tampered = warm.clone();
        tampered.points[5].report = tampered.points[5]
            .report
            .replace("\"cycles\":", "\"cycles\":1");
        assert_eq!(check_pass(&tampered, Some(&reference), "cold").len(), 1);
        let mut checks = Checks::default();
        trace_pass(&hierarchy, &tampered, Some(&cold_dir), true, &mut checks)
            .expect("tampered replay");
        assert_eq!(checks.failures.len(), 1, "{:?}", checks.failures);
    }

    #[test]
    fn workload_order_does_not_change_any_report() {
        let scratch = Scratch::new("test-seed").expect("scratch");
        let fig3 = write_manifest(&scratch, "fig3.json", SMALL_FIG3);
        let spec = |seed| {
            load_spec(&fig3, Some(seed))
                .expect("manifest")
                .workloads
                .iter()
                .map(|w| w.name.clone())
                .collect::<Vec<_>>()
        };
        let (a, b) = (
            pass_seed(1, 0),
            (1..)
                .map(|k| pass_seed(1, k))
                .find(|&s| spec(s) != spec(pass_seed(1, 0)))
                .expect("two orders"),
        );
        let first = invoke(&fig3, a, None).expect("first order");
        let second = invoke(&fig3, b, None).expect("second order");
        assert_ne!(
            first.points[0].key, second.points[0].key,
            "the grid order moved"
        );
        assert_eq!(
            check_pass(&second, Some(&reports_of(&first)), "the first order"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn declared_metrics_match_the_emitted_ones() {
        let text = fs::read_to_string(pipeline::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = ava_sim::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let emitted = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for layer in Layer::ALL {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == layer.metric()));
        }
    }
}
