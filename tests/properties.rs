//! Property-based tests over the whole stack: randomly generated vector
//! kernels must produce identical results no matter which register-file
//! organisation executes them, the register allocator must always respect
//! its budget, the cache hierarchy must never change functional values, and
//! every reader of outside bytes (the JSON parser, manifests, reports, store
//! entries) answers mutated input with a diagnostic or a miss, never a panic.
//!
//! The container has no access to crates.io, so instead of proptest these
//! tests drive a deterministic SplitMix64 case generator: every run explores
//! the same cases, and a failing case is reproducible from its index alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use ava::compiler::{compile, CompileOptions, KernelBuilder, VirtReg};
use ava::isa::Lmul;
use ava::memory::MemoryHierarchy;
use ava::sim::json;
use ava::sim::{run_workload, ResultStore, RunReport, ScenarioConfig, StoreKey};
use ava::vpu::Vpu;
use ava::workloads::data::DataGen;
use ava::workloads::Axpy;
use ava_bench::spec::ExperimentSpec;

const CASES: u64 = 24;

/// The deterministic stream for one case index (the workloads' SplitMix64
/// generator, seeded so every case explores a distinct sequence).
fn case_rng(case: u64) -> DataGen {
    DataGen::from_seed(0xDEAD_BEEF_CAFE_F00D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value in `[lo, hi]`.
fn in_range(rng: &mut DataGen, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// A tiny random straight-line kernel description: a sequence of operation
/// selectors over a pool of live values.
#[derive(Debug, Clone)]
struct RandomKernel {
    ops: Vec<u8>,
    vl: usize,
}

fn random_kernel(case: u64) -> RandomKernel {
    let mut rng = case_rng(case);
    let len = in_range(&mut rng, 4, 59) as usize;
    let ops = (0..len).map(|_| in_range(&mut rng, 0, 5) as u8).collect();
    let vl = in_range(&mut rng, 1, 16) as usize;
    RandomKernel { ops, vl }
}

/// Materialises the random kernel: allocates an input array, builds the IR
/// with the kernel builder, and returns (kernel, output addresses).
fn build_kernel(
    mem: &mut MemoryHierarchy,
    spec: &RandomKernel,
) -> (ava::compiler::IrKernel, Vec<u64>) {
    let n = 64usize;
    let input = mem.allocate((n * 8) as u64);
    for i in 0..n {
        mem.write_f64(input + 8 * i as u64, (i as f64) * 0.25 - 3.0);
    }
    let out_base = mem.allocate((spec.ops.len() * spec.vl * 8) as u64);

    let mut b = KernelBuilder::new("random");
    b.set_vl(spec.vl);
    let mut live: Vec<VirtReg> = Vec::new();
    live.push(b.vload(input));
    live.push(b.vload(input + 128));
    let mut outputs = Vec::new();
    for (i, op) in spec.ops.iter().enumerate() {
        let a = live[i % live.len()];
        let c = live[(i * 7 + 3) % live.len()];
        let v = match op {
            0 => b.vfadd(a, c),
            1 => b.vfmul(a, c),
            2 => b.vfsub(a, c),
            3 => b.vfmadd(a, c, a),
            4 => b.vfmax(a, c),
            _ => b.vload(input + (8 * ((i * 16) % (n - spec.vl))) as u64),
        };
        live.push(v);
        if live.len() > 24 {
            live.remove(0);
        }
        if i % 3 == 0 {
            let addr = out_base + (8 * i * spec.vl) as u64;
            b.vstore(v, addr);
            outputs.push(addr);
        }
    }
    // Always store the final value so every kernel has observable output.
    let last = *live.last().expect("at least one live value");
    let addr = out_base + (8 * spec.ops.len() * spec.vl) as u64;
    b.vstore(last, addr);
    outputs.push(addr);
    (b.finish(), outputs)
}

/// Runs the kernel on a configuration and returns the values at the output
/// addresses.
fn run_on(spec: &RandomKernel, scenario: &ScenarioConfig, lmul: Lmul) -> Vec<f64> {
    let sys = scenario.resolve();
    let mut mem = MemoryHierarchy::default();
    let (kernel, outputs) = build_kernel(&mut mem, spec);
    let spill_base = mem.allocate(64 * 1024);
    let compiled = compile(
        &kernel,
        &CompileOptions::new(lmul, spill_base, (sys.mvl() * 8) as u64),
    );
    let mut vpu = Vpu::new(sys.vpu.clone(), &mut mem);
    let _ = vpu.run(&compiled.program, &mut mem);
    outputs
        .iter()
        .flat_map(|&addr| (0..spec.vl).map(move |i| addr + 8 * i as u64))
        .map(|a| mem.read_f64(a))
        .collect()
}

/// The same program produces bit-identical results on the conventional
/// long-vector design, on AVA with its tiny 8-register P-VRF (heavy swap
/// traffic), and on the register-grouped baseline (heavy spill traffic).
#[test]
fn results_are_identical_across_organisations() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let reference = run_on(&spec, &ScenarioConfig::native_x(8), Lmul::M1);
        let ava = run_on(&spec, &ScenarioConfig::ava_x(8), Lmul::M1);
        let rg = run_on(&spec, &ScenarioConfig::rg_lmul(Lmul::M8), Lmul::M8);
        assert_eq!(
            reference, ava,
            "case {case}: AVA X8 diverged from NATIVE X8"
        );
        assert_eq!(
            reference, rg,
            "case {case}: RG-LMUL8 diverged from NATIVE X8"
        );
    }
}

/// The register allocator never exceeds the architectural budget and
/// never loses a value, for any grouping factor.
#[test]
fn register_allocation_respects_every_budget() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        for lmul in Lmul::all() {
            let compiled = compile(&kernel, &CompileOptions::new(lmul, 0x100_0000, 1024));
            assert!(
                compiled.registers_used <= lmul.architectural_registers(),
                "case {case}"
            );
            for reg in compiled.program.used_registers() {
                assert_eq!(
                    reg.index() % lmul.factor(),
                    0,
                    "case {case}: register {reg} is not a group base"
                );
            }
            assert!(compiled.spill_loads >= compiled.spill_stores, "case {case}");
        }
    }
}

/// Cache warm-up and timing queries never alter functional memory.
#[test]
fn timing_accesses_never_corrupt_functional_state() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = in_range(&mut rng, 1, 63) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let stride = in_range(&mut rng, 1, 63);

        let mut mem = MemoryHierarchy::default();
        let base = mem.allocate((values.len() * 8) as u64);
        for (i, v) in values.iter().enumerate() {
            mem.write_f64(base + 8 * i as u64, *v);
        }
        // Timing-side activity.
        let allocated = mem.memory().allocated_range();
        mem.warm_caches_ranges(&[allocated]);
        let _ = mem.vector_access(base, (values.len() * 8) as u64, false);
        let addrs: Vec<u64> = (0..values.len() as u64)
            .map(|i| base + i * 8 * stride % 4096)
            .collect();
        let _ = mem.vector_access_elements(&addrs, true);
        let _ = mem.scalar_access(base, true);
        mem.flush_caches();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                mem.read_f64(base + 8 * i as u64),
                *v,
                "case {case}, value {i}"
            );
        }
    }
}

/// The VPU never deadlocks and always reports monotonically consistent
/// statistics for arbitrary kernels on the smallest register file.
#[test]
fn tiny_register_files_never_deadlock() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let sys = ScenarioConfig::ava_x(8);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        let spill_base = mem.allocate(64 * 1024);
        let compiled = compile(&kernel, &CompileOptions::new(Lmul::M1, spill_base, 1024));
        let mut vpu = Vpu::new(sys.vpu_config(), &mut mem);
        let result = vpu.run(&compiled.program, &mut mem);
        assert!(result.cycles > 0, "case {case}");
        // Everything the program contains (minus vsetvl) must have been
        // issued, plus whatever swap traffic the hardware added.
        let program_issue = compiled.program.len() as u64 - result.stats.config_instrs;
        assert!(result.stats.issued_instrs() >= program_issue, "case {case}");
        assert_eq!(
            result.stats.issued_instrs() - result.stats.swap_ops(),
            program_issue,
            "case {case}"
        );
    }
}

/// Table I and its extrapolation: at a fixed P-VRF capacity the physical
/// register count is monotonically non-increasing in the MVL, and the
/// resolved AVA MVL axis never drops below the X8 register floor.
#[test]
fn preg_count_is_monotonic_and_the_mvl_axis_holds_the_floor() {
    use ava::sim::{ScenarioConfig, AVA_EXTRAPOLATION_PREG_FLOOR};
    use ava::vpu::preg_count_for_mvl;

    for pvrf in [8 * 1024usize, 16 * 1024, 64 * 1024] {
        let mut prev = usize::MAX;
        for mvl in (16..=512).step_by(16) {
            let pregs = preg_count_for_mvl(pvrf, mvl);
            assert!(
                pregs <= prev,
                "pvrf={pvrf}: preg count rose from {prev} to {pregs} at MVL={mvl}"
            );
            prev = pregs;
        }
    }
    // The resolved extrapolation axis: Table I exact up to 128, the X8
    // floor (with a minimally grown P-VRF) beyond it.
    for scenario in ScenarioConfig::axis_mvl(&[16, 64, 128, 192, 256, 384, 512]) {
        let vpu = scenario.vpu_config();
        assert!(
            vpu.physical_regs() >= AVA_EXTRAPOLATION_PREG_FLOOR,
            "{}: only {} physical registers",
            scenario.label(),
            vpu.physical_regs()
        );
        assert_eq!(
            vpu.physical_regs(),
            preg_count_for_mvl(vpu.pvrf_bytes, vpu.mvl),
            "{}: the Table I sizing function must stay the single source",
            scenario.label()
        );
        if vpu.mvl <= 128 {
            assert_eq!(vpu.pvrf_bytes, 8 * 1024, "{}", scenario.label());
        }
    }
}

/// Number literals a mutation swaps in: past `u64`, past `f64`, and
/// underflowing to zero.
const HUGE_NUMBERS: [&str; 5] = [
    "18446744073709551616",
    "-99999999999999999999999999999999",
    "1e999999",
    "-1e-999999",
    "123456789012345678901234567890.5e308",
];

/// One deterministic mutation of `seed`: a truncation, a few bit flips, a
/// run of nested brackets deeper than [`json::MAX_DEPTH`] allows (or not),
/// or a number literal replaced by a huge one. Returns the bytes and a
/// description for failure messages.
fn mutate(rng: &mut DataGen, seed: &[u8]) -> (Vec<u8>, String) {
    let mut bytes = seed.to_vec();
    let at = in_range(rng, 0, bytes.len() as u64) as usize;
    match in_range(rng, 0, 3) {
        0 => {
            bytes.truncate(at);
            (bytes, format!("truncated at byte {at}"))
        }
        1 => {
            let flips = in_range(rng, 1, 8);
            for _ in 0..flips {
                let i = in_range(rng, 0, bytes.len() as u64 - 1) as usize;
                bytes[i] ^= 1 << in_range(rng, 0, 7);
            }
            (bytes, format!("{flips} bit flips"))
        }
        2 => {
            let depth = in_range(rng, 1, 64 * json::MAX_DEPTH as u64) as usize;
            let open = [&b"["[..], &b"{\"k\":"[..]][in_range(rng, 0, 1) as usize];
            bytes.splice(at..at, open.repeat(depth));
            (
                bytes,
                format!("{depth} nested {:?} at byte {at}", open[0] as char),
            )
        }
        _ => {
            let huge = HUGE_NUMBERS[in_range(rng, 0, HUGE_NUMBERS.len() as u64 - 1) as usize];
            let digit = bytes[at..]
                .iter()
                .position(u8::is_ascii_digit)
                .map_or(bytes.len(), |i| at + i);
            let end = bytes[digit..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(bytes.len(), |i| digit + i);
            bytes.splice(digit..end, huge.bytes());
            (bytes, format!("{huge} at byte {digit}"))
        }
    }
}

/// Runs `f`, failing the test with `context` if it panics.
fn never_panics<T>(context: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{context}: panicked"))
}

/// Every outside-bytes reader, fed mutations of every committed manifest, a
/// report document and a store entry: each mutation is a parse, a named
/// diagnostic or a store miss, never a panic.
#[test]
fn mutated_documents_are_diagnostics_or_misses_never_panics() {
    let scenario = ScenarioConfig::ava_x(2).with_iters(3);
    let report = run_workload(&Axpy::new(256), &scenario);
    let dir = std::env::temp_dir().join(format!("ava-fuzz-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let key = StoreKey::new("axpy", 256, &scenario.resolve(), 0xfeed_face);
    store.insert(&key, &report, 1).unwrap();
    let entry = dir.join(key.file_name());

    let mut seeds: Vec<(String, Vec<u8>)> = Vec::new();
    let manifests = Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    for path in std::fs::read_dir(manifests).unwrap() {
        let path = path.unwrap().path();
        seeds.push((path.display().to_string(), std::fs::read(&path).unwrap()));
    }
    assert!(seeds.len() >= 8, "every committed manifest is a seed");
    seeds.push(("report".into(), report.to_json().to_string().into_bytes()));
    seeds.push(("store entry".into(), std::fs::read(&entry).unwrap()));

    for (name, seed) in &seeds {
        for case in 0..4 * CASES {
            let mut rng = case_rng(case);
            let (bytes, mutation) = mutate(&mut rng, seed);
            let context = format!("{name}, case {case} ({mutation})");
            let text = String::from_utf8_lossy(&bytes);
            match never_panics(&context, || json::parse(&text)) {
                Ok(doc) => never_panics(&context, || {
                    let _ = RunReport::from_json(&doc);
                    let _ = doc.get("report").map(RunReport::from_json);
                }),
                Err(e) => assert!(e.contains("byte"), "{context}: undiagnosed error {e:?}"),
            }
            if let Err(e) = never_panics(&context, || ExperimentSpec::parse(name, &text)) {
                assert!(!e.is_empty(), "{context}: empty diagnostic");
            }
            std::fs::write(&entry, &bytes).unwrap();
            let served = never_panics(&context, || store.lookup(&key));
            if bytes == *seed && name == "store entry" {
                assert!(served.is_some(), "{context}: an intact entry must hit");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
