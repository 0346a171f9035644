//! The traced run: every grid point replayed through the layers' public
//! functions in the order `ava_sim::run::run_workload_stored` calls them,
//! with a span around each call. Spans are kept in memory per point (the
//! point index is the spans' shared identifier, the point span their
//! parent) and aggregated when the replay ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ava_compiler::{compile, CompileOptions, CompiledKernel, IrKernel};
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;
use ava_scalar::ScalarCore;
use ava_sim::{PhaseBreakdown, ResultStore, RunReport, StoreKey, Sweep, SystemConfig};
use ava_vpu::{Vpu, VpuRunResult, VpuStats};
use ava_workloads::{validate, ArenaPlanner, BufferBindings, Fingerprint, Workload};

/// A layer boundary the replay records a span at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    MemoryNew,
    Plan,
    Build,
    Compile,
    StoreKey,
    StoreLookup,
    VpuNew,
    MemoryWarm,
    Simulate,
    Validate,
    StoreInsert,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::MemoryNew,
        Layer::Plan,
        Layer::Build,
        Layer::Compile,
        Layer::StoreKey,
        Layer::StoreLookup,
        Layer::VpuNew,
        Layer::MemoryWarm,
        Layer::Simulate,
        Layer::Validate,
        Layer::StoreInsert,
    ];

    /// The per-layer metric the layer's summed spans are reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::MemoryNew => "memory.new_ms",
            Layer::Plan => "workloads.plan_ms",
            Layer::Build => "workloads.build_ms",
            Layer::Compile => "compiler.compile_ms",
            Layer::StoreKey => "store.key_ms",
            Layer::StoreLookup => "store.lookup_ms",
            Layer::VpuNew => "vpu.new_ms",
            Layer::MemoryWarm => "memory.warm_ms",
            Layer::Simulate => "vpu.simulate_ms",
            Layer::Validate => "workloads.validate_ms",
            Layer::StoreInsert => "store.insert_ms",
        }
    }
}

/// One recorded call into a layer, in nanoseconds since the replay began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One replayed point.
pub struct ReplayedPoint {
    /// Grid index (workload-major, as `Sweep::grid` orders points).
    pub index: usize,
    pub report: RunReport,
    /// The point span.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The layer spans inside the point span.
    pub spans: Vec<Span>,
    pub from_store: bool,
    /// Identity of the build's output (plan and setup fingerprints).
    pub build_id: u64,
}

/// An executed replay.
pub struct Replay {
    /// In grid order.
    pub points: Vec<ReplayedPoint>,
    /// Compile requests, and the compilations they caused.
    pub compile_requests: u64,
    pub compiles: u64,
    pub wall_ns: u64,
}

/// Workload index, MVL, LMUL factor, spill base and spill slot size: what
/// the sweep's program cache keys a compilation on.
type CompileKey = (usize, usize, usize, u64, u64);

/// Compiled kernels shared by the replay's points, keyed like the sweep's
/// program cache. Each key compiles exactly once, so the compile count is
/// exact at any worker count.
#[derive(Default)]
struct CompileCache {
    entries: Mutex<HashMap<CompileKey, Arc<OnceLock<Arc<CompiledKernel>>>>>,
    requests: AtomicU64,
    compiles: AtomicU64,
}

impl CompileCache {
    fn get(
        &self,
        key: CompileKey,
        kernel: &IrKernel,
        opts: &CompileOptions,
    ) -> Arc<CompiledKernel> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::clone(
            self.entries
                .lock()
                .expect("compile cache poisoned")
                .entry(key)
                .or_default(),
        );
        Arc::clone(slot.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            Arc::new(compile(kernel, opts))
        }))
    }
}

/// Records spans against one epoch.
struct Tracer {
    epoch: Instant,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<T>(&self, layer: Layer, spans: &mut Vec<Span>, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        spans.push(Span {
            layer,
            start_ns,
            end_ns: self.now(),
        });
        out
    }
}

/// Nanoseconds one recorded span costs: two clock reads and a push,
/// timed over an empty call.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 100_000;
    let tracer = Tracer {
        epoch: Instant::now(),
    };
    let mut spans = Vec::with_capacity(SPANS);
    let start = Instant::now();
    for i in 0..SPANS {
        tracer.span(Layer::Plan, &mut spans, || std::hint::black_box(i));
    }
    std::hint::black_box(&spans);
    start.elapsed().as_nanos() as f64 / SPANS as f64
}

/// Replays every point of `sweep` on `workers` threads, against `store`
/// when given (as the driver's sweep ran).
pub fn replay(sweep: &Sweep, store: Option<&ResultStore>, workers: usize) -> Replay {
    let systems = sweep.resolved_systems();
    let n = sweep.workloads().len() * systems.len();
    let tracer = Tracer {
        epoch: Instant::now(),
    };
    let cache = CompileCache::default();
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<ReplayedPoint>> = (0..n).map(|_| OnceLock::new()).collect();
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        let w = index / systems.len();
        let point = replay_point(
            &tracer,
            sweep.workloads()[w].as_ref(),
            w,
            &systems[index % systems.len()],
            &cache,
            store,
            index,
        );
        if slots[index].set(point).is_err() {
            unreachable!("each point is replayed once");
        }
    };
    thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(work);
        }
    });
    let wall_ns = tracer.now();
    Replay {
        points: slots
            .into_iter()
            .map(|s| s.into_inner().expect("every point replayed"))
            .collect(),
        compile_requests: cache.requests.load(Ordering::Relaxed),
        compiles: cache.compiles.load(Ordering::Relaxed),
        wall_ns,
    }
}

/// `run_workload_stored` for one point, call by call, with spans.
fn replay_point(
    tr: &Tracer,
    workload: &dyn Workload,
    workload_index: usize,
    system: &SystemConfig,
    cache: &CompileCache,
    store: Option<&ResultStore>,
    index: usize,
) -> ReplayedPoint {
    let mut spans = Vec::with_capacity(Layer::ALL.len());
    let start = Instant::now();
    let start_ns = tr.now();
    let mut mem = tr.span(Layer::MemoryNew, &mut spans, || {
        MemoryHierarchy::new(system.memory)
    });
    let ctx = VectorContext::with_mvl(system.mvl());
    let plan = tr.span(Layer::Plan, &mut spans, || {
        ArenaPlanner::new().plan(&mut mem, &workload.data_layout())
    });
    let setup = tr.span(Layer::Build, &mut spans, || {
        workload.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none())
    });
    let spill_slot_bytes = (system.mvl() * 8) as u64;
    let (compiled, spill_base, arena_end) = tr.span(Layer::Compile, &mut spans, || {
        let spill_base = mem.allocate(64 * spill_slot_bytes);
        let (_, arena_end) = mem.memory().allocated_range();
        let opts = CompileOptions::new(system.compiler_lmul, spill_base, spill_slot_bytes);
        let key = (
            workload_index,
            system.mvl(),
            system.compiler_lmul.factor(),
            spill_base,
            spill_slot_bytes,
        );
        (cache.get(key, &setup.kernel, &opts), spill_base, arena_end)
    });
    let key = store.map(|_| {
        tr.span(Layer::StoreKey, &mut spans, || {
            let mut h = Fingerprint::new();
            h.write_str(workload.name());
            h.write_u64(workload.elements() as u64);
            plan.fingerprint(&mut h);
            setup.fingerprint(&mut h);
            h.write_u64(spill_base);
            h.write_u64(spill_slot_bytes);
            h.write_str(&format!("{:?}", compiled.program));
            h.write_u64(compiled.spill_stores as u64);
            h.write_u64(compiled.spill_loads as u64);
            h.write_u64(compiled.max_pressure as u64);
            StoreKey::new(
                workload.name(),
                workload.elements() as u64,
                system,
                h.finish(),
            )
        })
    });
    let build_id = || {
        let mut h = Fingerprint::new();
        h.write_str(workload.name());
        h.write_u64(workload.elements() as u64);
        plan.fingerprint(&mut h);
        setup.fingerprint(&mut h);
        h.finish()
    };
    if let (Some(store), Some(key)) = (store, &key) {
        if let Some(report) = tr.span(Layer::StoreLookup, &mut spans, || store.lookup(key)) {
            let end_ns = tr.now();
            return ReplayedPoint {
                index,
                report,
                start_ns,
                end_ns,
                spans,
                from_store: true,
                build_id: build_id(),
            };
        }
    }

    let mut vpu = tr.span(Layer::VpuNew, &mut spans, || {
        Vpu::new(system.vpu.clone(), &mut mem)
    });
    let (_, mvrf_end) = mem.memory().allocated_range();
    tr.span(Layer::MemoryWarm, &mut spans, || {
        let mut warm = setup.warm_ranges.clone();
        warm.push((arena_end, mvrf_end));
        mem.warm_caches_ranges(&warm);
    });
    let (result, phases) = tr.span(Layer::Simulate, &mut spans, || {
        if setup.phase_marks.len() <= 1 {
            return (vpu.run(&compiled.program, &mut mem), Vec::new());
        }
        let mut phases = Vec::new();
        let mut cycles = 0;
        let mut stats = VpuStats::default();
        let mut program_start = 0;
        let mut config_name = String::new();
        let mut mem_before = mem.stats();
        for (i, mark) in setup.phase_marks.iter().enumerate() {
            let program_end = if i + 1 == setup.phase_marks.len() {
                compiled.program.len()
            } else {
                compiled.program_split(mark.ir_end)
            };
            let seg = vpu.run_range(&compiled.program, program_start..program_end, &mut mem);
            let mem_now = mem.stats();
            phases.push(PhaseBreakdown {
                name: mark.name.clone(),
                iter: mark.iter,
                vpu_cycles: seg.cycles,
                vpu: seg.stats,
                mem: mem_now.delta_since(&mem_before),
            });
            mem_before = mem_now;
            cycles += seg.cycles;
            stats.merge(&seg.stats);
            config_name = seg.config_name;
            program_start = program_end;
        }
        (
            VpuRunResult {
                config_name,
                cycles,
                stats,
            },
            phases,
        )
    });
    let scalar_core = ScalarCore::new(system.scalar);
    let scalar = scalar_core.loop_cost(setup.strips, compiled.program.len() as u64);
    let cycles = scalar_core.combine(result.cycles, &scalar);
    let validation = tr.span(Layer::Validate, &mut spans, || {
        validate(&mem, &setup.checks)
    });
    let report = RunReport {
        config: system.label().to_string(),
        axes: system.axes.clone(),
        workload: workload.name().to_string(),
        vpu_cycles: result.cycles,
        cycles,
        vpu: result.stats,
        mem: mem.stats(),
        phases,
        compiler_spill_stores: compiled.spill_stores,
        compiler_spill_loads: compiled.spill_loads,
        register_pressure: compiled.max_pressure,
        scalar,
        validated: validation.is_ok(),
        validation_error: validation.err(),
    };
    if let (Some(store), Some(key)) = (store, &key) {
        tr.span(Layer::StoreInsert, &mut spans, || {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Err(e) = store.insert(key, &report, wall_ns.max(1)) {
                eprintln!("warning: result store write failed: {e}");
            }
        });
    }
    let end_ns = tr.now();
    ReplayedPoint {
        index,
        report,
        start_ns,
        end_ns,
        spans,
        from_store: false,
        build_id: build_id(),
    }
}
