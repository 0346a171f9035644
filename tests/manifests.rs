//! The declarative experiment manifests, exercised end to end: the
//! committed `experiments/` files parse and round-trip, schema errors are
//! byte-offset diagnostics (never panics), the committed figure manifests
//! render every chart their output kind selects, `--scale-down` and `--app`
//! compose, and a store-attached manifest run resumes from its checkpoints.

use std::path::PathBuf;

use ava::sim::json::Json;
use ava_bench::cli::BenchArgs;
use ava_bench::driver;
use ava_bench::spec::{ArtefactKind, ExperimentSpec};

fn plain_args() -> BenchArgs {
    BenchArgs::from_args(vec!["--threads".into(), "1".into()]).unwrap()
}

/// The deterministic per-point payloads of a driver document: the nested
/// simulation reports, without the scheduling metadata (`wall_ns`,
/// `worker`, `cost_estimate`) that naturally moves run to run. This is the
/// same convention the CI store and reproducibility gates compare under.
fn point_reports(doc: &Json) -> Vec<String> {
    doc.get("sweep")
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
        .expect("document carries sweep points")
        .iter()
        .map(|p| p.get("report").expect("point carries a report").to_string())
        .collect()
}

fn store_hits(doc: &Json) -> (u64, u64) {
    let store = doc
        .get("sweep")
        .and_then(|s| s.get("store"))
        .expect("document carries store statistics");
    (
        store.get("hits").and_then(Json::as_u64).unwrap(),
        store.get("misses").and_then(Json::as_u64).unwrap(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ava-manifest-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every committed manifest in `experiments/` parses, carries a name, and
/// survives a to_json → parse round trip unchanged.
#[test]
fn committed_manifests_parse_and_round_trip() {
    let mut seen = 0usize;
    for entry in std::fs::read_dir("experiments").expect("experiments/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        seen += 1;
        let label = path.display().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ExperimentSpec::parse(&label, &text)
            .unwrap_or_else(|e| panic!("{label} must parse: {e}"));
        assert!(
            spec.name.is_some(),
            "{label}: committed manifests are named"
        );
        let reparsed = ExperimentSpec::parse(&label, &spec.to_json().to_string()).unwrap();
        assert_eq!(spec, reparsed, "{label}: round trip changed the spec");
    }
    assert!(
        seen >= 7,
        "expected the committed manifest set, found {seen}"
    );
}

/// Unknown fields, workload names and axes are rejected with a diagnostic
/// naming the token and its byte offset in the document — never a panic.
#[test]
fn schema_errors_name_the_token_and_its_byte_offset() {
    for (text, token) in [
        (r#"{"artefact": "fig3", "frobnicate": 1}"#, "frobnicate"),
        (r#"{"artefact": "fig3", "workloads": ["vecsum"]}"#, "vecsum"),
        (
            r#"{"artefact": "sensitivity", "axes": {"l3_kib": [512]}}"#,
            "l3_kib",
        ),
        (
            r#"{"artefact": "sensitivity", "output": {"kind": "sparkline"}}"#,
            "sparkline",
        ),
        (
            r#"{"artefact": "fig3", "execution": {"workers": 2}}"#,
            "workers",
        ),
    ] {
        let err = ExperimentSpec::parse("t", text).unwrap_err();
        let offset = text.find(&format!("\"{token}\"")).unwrap();
        assert!(
            err.contains(token) && err.contains(&format!("byte {offset}")),
            "{text} -> {err}"
        );
    }
    // Malformed JSON surfaces the parser's own byte-offset diagnostic.
    let err = ExperimentSpec::parse("t", r#"{"artefact": "fig3","#).unwrap_err();
    assert!(err.contains("byte"), "{err}");
}

fn execute_committed(manifest: &str, app: &str, scale_down: bool) -> driver::ExperimentRun {
    let text = std::fs::read_to_string(manifest).unwrap();
    let mut spec = ExperimentSpec::parse(manifest, &text).unwrap();
    // The order the `experiments` binary applies its flags in.
    spec.app = Some(app.to_string());
    if scale_down {
        spec.scale_down();
    }
    driver::execute(&spec, &plain_args()).unwrap_or_else(|e| panic!("{manifest} --app {app}: {e}"))
}

/// The committed fig3 manifest renders all four Figure 3 charts (its
/// output kind is "all") and prices every point in the energy block.
#[test]
fn fig3_manifest_renders_all_four_charts_for_axpy() {
    // The full six-workload figure is CI territory; the axpy column pins
    // the whole path at test speed.
    let run = execute_committed("experiments/fig3_extrapolation.json", "axpy", false);
    for chart in [
        "Figure 3 (axpy) — vector memory instructions",
        "Figure 3 (axpy) — % of vector instructions",
        "Figure 3 (axpy) — execution time and speedup vs NATIVE X1",
        "Figure 3 (axpy) — energy (µJ)",
    ] {
        assert!(
            run.stdout.contains(chart),
            "missing {chart:?}:\n{}",
            run.stdout
        );
    }
    let points = point_reports(&run.document).len();
    assert_eq!(points, 14, "axpy over the fourteen evaluated systems");
    let energy = run.document.get("energy").and_then(Json::as_arr).unwrap();
    assert_eq!(energy.len(), points);
}

/// A sensitivity manifest of kind "all" renders both cycles tables and the
/// µJ energy matrix, and its JSON carries the driven axes.
#[test]
fn sensitivity_kind_all_renders_the_tables_and_the_energy_matrix() {
    let text = r#"{
        "artefact": "sensitivity",
        "app": "axpy",
        "axes": {"mvl": [128, 256], "l2_kib": [512]},
        "output": {"kind": "all"}
    }"#;
    let spec = ExperimentSpec::parse("inline", text).unwrap();
    let run = driver::execute(&spec, &plain_args()).unwrap();
    for table in [
        "Sensitivity (axpy) — Table I extrapolation at L2=512 KiB",
        "Sensitivity (axpy) — cycles by MVL and L2 capacity",
        "Sensitivity (axpy) — total energy (µJ) by MVL and L2 capacity",
    ] {
        assert!(
            run.stdout.contains(table),
            "missing {table:?}:\n{}",
            run.stdout
        );
    }
    assert_eq!(point_reports(&run.document).len(), 2);
    assert_eq!(
        run.document.get("axes").unwrap().to_string(),
        r#"{"mvl":[128,256],"l2_kib":[512]}"#
    );
}

/// `--scale-down` keeps the first workload the `app` filter selects, so a
/// filtered smoke of any manifest runs the workload it names — not the
/// manifest's first entry, which the filter would then reject.
#[test]
fn scale_down_keeps_the_workload_the_app_filter_selects() {
    for (manifest, app) in [
        ("experiments/solver_mix.json", "iterated"),
        ("experiments/sensitivity_vvr.json", "somier"),
        ("experiments/fig3_extrapolation.json", "somier"),
    ] {
        let run = execute_committed(manifest, app, true);
        let doc = &run.document;
        let points = doc
            .get("sweep")
            .and_then(|s| s.get("points"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!points.is_empty(), "{manifest}");
        for p in points {
            assert_eq!(
                p.get("workload").and_then(Json::as_str),
                Some(app),
                "{manifest}"
            );
        }
    }
}

/// An `app` filter that matches nothing names the workloads the manifest
/// does build — including the solver mix under its built name.
#[test]
fn unmatched_app_filter_lists_the_experiments_workloads() {
    let text = std::fs::read_to_string("experiments/solver_mix.json").unwrap();
    let mut spec = ExperimentSpec::parse("experiments/solver_mix.json", &text).unwrap();
    spec.app = Some("nope".to_string());
    let Err(err) = driver::execute(&spec, &plain_args()) else {
        panic!("an unmatched filter must fail");
    };
    assert!(err.contains("\"nope\""), "{err}");
    assert!(
        err.contains("axpy, blackscholes, somier, composite, iterated"),
        "{err}"
    );
    assert!(!err.contains("--mix"), "{err}");
}

/// A manifest whose `execution` block attaches a store checkpoints its
/// points; rerunning the same manifest with `resume` is served entirely
/// from disk with bit-identical reports.
#[test]
fn store_attached_manifest_run_resumes_from_its_checkpoints() {
    let dir = temp_dir("resume");
    let manifest = format!(
        r#"{{
            "artefact": "fig3",
            "workloads": [{{"name": "axpy", "n": 512}}],
            "output": {{"kind": "perf"}},
            "execution": {{"store": {:?}}}
        }}"#,
        dir.to_str().unwrap()
    );
    let spec = ExperimentSpec::parse("inline", &manifest).unwrap();

    let mut cold_args = plain_args();
    cold_args.apply_execution(&spec.execution).unwrap();
    let cold = driver::execute(&spec, &cold_args).unwrap();
    let n = point_reports(&cold.document).len() as u64;
    assert_eq!(store_hits(&cold.document), (0, n));

    // The warm rerun flips `resume` on — as a manifest field, the way a
    // relaunched job would ship it.
    let mut resumed = spec.clone();
    resumed.execution.resume = true;
    let mut warm_args = plain_args();
    warm_args.apply_execution(&resumed.execution).unwrap();
    assert!(warm_args.resume);
    let warm = driver::execute(&resumed, &warm_args).unwrap();
    assert_eq!(
        store_hits(&warm.document),
        (n, 0),
        "warm run simulates nothing"
    );
    assert_eq!(point_reports(&cold.document), point_reports(&warm.document));
    assert_eq!(cold.stdout, warm.stdout);

    // Resuming against a store directory that does not exist is the
    // "nothing to resume" diagnostic, raised at merge time.
    let missing = temp_dir("missing");
    let mut bad = spec.clone();
    bad.execution.store = Some(missing.to_str().unwrap().to_string());
    bad.execution.resume = true;
    let err = plain_args().apply_execution(&bad.execution).unwrap_err();
    assert!(err.contains("nothing to resume"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `scale_down` shrinks every dimension the driver honours: one workload,
/// truncated axes, and (for fig3) the two-system evaluated list.
#[test]
fn scale_down_runs_the_reduced_grids() {
    let text = std::fs::read_to_string("experiments/fig3_extrapolation.json").unwrap();
    let mut spec = ExperimentSpec::parse("experiments/fig3_extrapolation.json", &text).unwrap();
    spec.scale_down();
    assert_eq!(spec.workloads.len(), 1);
    let run = driver::execute(&spec, &plain_args()).unwrap();
    assert_eq!(
        point_reports(&run.document).len(),
        2,
        "reduced fig3 is one workload over two systems"
    );

    let mut ablation = ExperimentSpec::parse("t", r#"{"artefact": "ablation"}"#).unwrap();
    ablation.scale_down();
    assert_eq!(ablation.artefact, ArtefactKind::Ablation);
    let run = driver::execute(&ablation, &plain_args()).unwrap();
    assert!(run.stdout.contains("swap-free baseline"));
    assert!(run.stdout.contains("swap-heavy AVA"));
}
