//! The JSON report pipeline's guarantee: what the std-only emitter writes is
//! real JSON. The recursive-descent parser that used to live in this file
//! was promoted into the library as `ava::sim::json::parse` (so the `lint`
//! binary can self-verify its `--json` output); these tests now drive the
//! emitter's documents back through that parser and compare the
//! round-tripped values against the Rust originals, including the full
//! `SweepReport` that the `--json` flag of every binary persists for CI.

use std::sync::Arc;

use ava::sim::json::{object, parse, Json};
use ava::sim::{run_workload, ScenarioConfig, Sweep};
use ava::workloads::{composite, Axpy, Blackscholes, Composite, SharedWorkload, Somier};

/// Panicking accessors over the library [`Json`] — the `Option`-returning
/// library methods make every assertion line noisy, and a missing key
/// should name itself when a schema regression trips the oracle.
trait Expect {
    fn at(&self, key: &str) -> &Json;
    fn text(&self) -> &str;
    fn uint(&self) -> u64;
    fn items(&self) -> &[Json];
}

impl Expect for Json {
    fn at(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("missing key {key} in {self}"))
    }

    fn text(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected string, got {self}"))
    }

    fn uint(&self) -> u64 {
        self.as_u64()
            .unwrap_or_else(|| panic!("expected integer, got {self}"))
    }

    fn items(&self) -> &[Json] {
        self.as_arr()
            .unwrap_or_else(|| panic!("expected array, got {self}"))
    }
}

#[test]
fn escaping_round_trips_hostile_strings() {
    let hostile = [
        "plain",
        "with \"quotes\" inside",
        "back\\slash and \\\" both",
        "newline\nand\ttab\rand\u{0008}\u{000C}",
        "low controls \u{0000}\u{0001}\u{001f} end",
        "unicode µ→☃ stays literal",
        "",
    ];
    for s in hostile {
        let emitted = Json::from(s).to_string();
        assert_eq!(
            parse(&emitted),
            Ok(Json::Str(s.to_string())),
            "round-trip failed for {s:?} (emitted {emitted})"
        );
    }
}

#[test]
fn numbers_round_trip_including_2_53_plus_one() {
    let n = (1_u64 << 53) + 1;
    assert_eq!(parse(&Json::from(n).to_string()), Ok(Json::U64(n)));
    assert_eq!(parse(&Json::from(-5_i64).to_string()), Ok(Json::I64(-5)));
    assert_eq!(parse(&Json::from(0.25).to_string()), Ok(Json::F64(0.25)));
    assert_eq!(parse(&Json::from(f64::NAN).to_string()), Ok(Json::Null));
}

#[test]
fn nested_builders_round_trip() {
    let doc = object()
        .field("s", "a\"b")
        .field("n", 7_u64)
        .field("none", Json::Null)
        .field("list", Json::from_iter([1_u64, 2, 3]))
        .field("inner", object().field("ok", true).finish())
        .finish();
    let v = parse(&doc.to_string()).unwrap();
    assert_eq!(v.at("s").text(), "a\"b");
    assert_eq!(v.at("n").uint(), 7);
    assert!(v.at("none").is_null());
    assert_eq!(
        v.at("list"),
        &Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)])
    );
    assert_eq!(v.at("inner").at("ok").as_bool(), Some(true));
    // Objects preserve key order on both sides, so the round trip is exact.
    assert_eq!(v, doc);
}

#[test]
fn full_sweep_report_round_trips_against_the_parser() {
    let workloads: Vec<SharedWorkload> =
        vec![Arc::new(Axpy::new(256)), Arc::new(Blackscholes::new(64))];
    let systems = vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(8)];
    let sweep = Sweep::grid(workloads, systems);
    let report = sweep.runner().threads(2).run();

    let parsed = parse(&report.to_json().to_string()).unwrap();

    assert_eq!(parsed.at("schema").text(), "ava-sweep-report/v2");
    assert_eq!(parsed.at("threads").uint(), 2);
    assert_eq!(parsed.at("wall_ns").uint(), report.wall_ns);
    assert_eq!(parsed.at("busy_ns").uint(), report.busy_ns());
    assert_eq!(parsed.at("cache").at("hits").uint(), report.cache_hits);
    assert_eq!(parsed.at("cache").at("misses").uint(), report.cache_misses);

    let points = parsed.at("points").items();
    assert_eq!(points.len(), report.reports.len());
    for ((point, stats), run) in points.iter().zip(&report.points).zip(&report.reports) {
        assert_eq!(point.at("workload").text(), stats.workload);
        assert_eq!(point.at("config").text(), stats.config);
        assert_eq!(point.at("cost_estimate").uint(), stats.cost_estimate);
        assert_eq!(point.at("wall_ns").uint(), stats.wall_ns);
        assert_eq!(point.at("worker").uint(), stats.worker as u64);

        // The embedded RunReport: every headline counter survives exactly.
        let r = point.at("report");
        assert_eq!(r.at("config").text(), run.config);
        assert_eq!(r.at("workload").text(), run.workload);
        assert_eq!(r.at("cycles").uint(), run.cycles);
        assert_eq!(r.at("vpu_cycles").uint(), run.vpu_cycles);
        assert_eq!(r.at("validated"), &Json::Bool(run.validated));
        assert!(r.at("validation_error").is_null());
        assert_eq!(r.at("vpu").at("vloads").uint(), run.vpu.vloads);
        assert_eq!(r.at("vpu").at("swap_loads").uint(), run.vpu.swap_loads);
        assert_eq!(
            r.at("vpu").at("memory_instrs").uint(),
            run.vpu.memory_instrs()
        );
        assert_eq!(
            r.at("mem").at("l2").at("read_misses").uint(),
            run.mem.l2.read_misses
        );
        assert_eq!(r.at("mem").at("dram_bytes").uint(), run.mem.dram_bytes);
        assert_eq!(
            r.at("scalar").at("instructions").uint(),
            run.scalar.instructions
        );
    }
}

#[test]
fn per_phase_breakdowns_round_trip_through_the_json_pipeline() {
    let pipe = Composite::pipelined(
        vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))],
        vec![composite::links(&[("y", "v")])],
    );
    let run = run_workload(&pipe, &ScenarioConfig::ava_x(2));
    assert!(run.validated, "{:?}", run.validation_error);
    let parsed = parse(&run.to_json().to_string()).unwrap();

    let phases = parsed.at("phases").items();
    assert_eq!(phases.len(), 2);
    assert_eq!(phases[0].at("name").text(), "0:axpy");
    assert_eq!(phases[1].at("name").text(), "1:somier");
    // The emitted per-phase counters partition the run totals exactly.
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("vpu_cycles").uint())
            .sum::<u64>(),
        run.vpu_cycles
    );
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("vpu").at("vloads").uint())
            .sum::<u64>(),
        run.vpu.vloads
    );
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("mem").at("vmu_bytes").uint())
            .sum::<u64>(),
        run.mem.vmu_bytes
    );
    // Single-kernel reports stay lean: no phases key at all.
    let single = run_workload(&Axpy::new(128), &ScenarioConfig::native_x(1));
    assert!(!single.to_json().to_string().contains("\"phases\""));
}

#[test]
fn per_iteration_breakdowns_round_trip_with_iter_and_phase_labels() {
    let solver = Composite::iterated(
        Arc::new(Somier::relaxation(256)),
        4,
        composite::links(&[("xout", "x"), ("vout", "v")]),
    );
    let run = run_workload(&solver, &ScenarioConfig::ava_x(2));
    assert!(run.validated, "{:?}", run.validation_error);
    let parsed = parse(&run.to_json().to_string()).unwrap();

    let phases = parsed.at("phases").items();
    assert_eq!(phases.len(), 4);
    for (k, phase) in phases.iter().enumerate() {
        // Iteration grouping: the unrolled iteration index plus the bare
        // body label, alongside the display name.
        assert_eq!(phase.at("name").text(), format!("it{k}:somier"));
        assert_eq!(phase.at("iter").uint(), k as u64);
        assert_eq!(phase.at("phase").text(), "somier");
    }
    // The per-iteration counters partition the run totals exactly.
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("vpu_cycles").uint())
            .sum::<u64>(),
        run.vpu_cycles
    );
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("vpu").at("vloads").uint())
            .sum::<u64>(),
        run.vpu.vloads
    );
    assert_eq!(
        phases
            .iter()
            .map(|p| p.at("mem").at("vmu_bytes").uint())
            .sum::<u64>(),
        run.mem.vmu_bytes
    );
    // Pipeline stages stay unlabelled: no iter key outside iterated mixes.
    let pipe = Composite::pipelined(
        vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))],
        vec![composite::links(&[("y", "v")])],
    );
    let piped = run_workload(&pipe, &ScenarioConfig::ava_x(2));
    assert!(!piped.to_json().to_string().contains("\"iter\""));
}

#[test]
fn scenario_axis_metadata_round_trips_through_the_json_pipeline() {
    let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
    let scenarios = ScenarioConfig::axis_l2_kib(&ScenarioConfig::axis_mvl(&[128, 256]), &[512]);
    let report = Sweep::grid(workloads, scenarios).runner().threads(1).run();
    let parsed = parse(&report.to_json().to_string()).unwrap();

    // The sweep-level axis summary lists every axis in play.
    assert_eq!(parsed.at("axes"), &Json::from_iter(["mvl", "l2_kib"]));
    // Each embedded report carries its own axis values.
    let points = parsed.at("points").items();
    assert_eq!(points.len(), 2);
    let first = points[0].at("report");
    assert_eq!(first.at("config").text(), "AVA MVL=128 l2=512KiB");
    assert_eq!(first.at("axes").at("mvl").uint(), 128);
    assert_eq!(first.at("axes").at("l2_kib").uint(), 512);
    let second = points[1].at("report");
    assert_eq!(second.at("axes").at("mvl").uint(), 256);
}
