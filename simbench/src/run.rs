//! One benchmark run: measurement cycles, the correctness gate, and (in
//! the traced run) spans, layer probes and the restore ≡ continuous
//! check. End-to-end times are scaled to reference seconds (see
//! `calib`); per-layer times are host time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dcmaint_des::SimTime;
use dcmaint_scenarios::{run_engine_sweep, Engine, ScenarioConfig};

use crate::calib::{time_parallel, Kernel, REFERENCE_KERNEL_S};
use crate::gate::{row_digest, Gate, Outputs, REFERENCE};
use crate::trace::{secs_since, Clock, Tracer};
use crate::workload::{Kind, Size, Workload, DEFAULT_SEED};
use crate::{median, median_f, percentile, probes, Metric, EVENT_SPANS};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the log.
    pub log: Vec<String>,
    /// `reference.txt` lines for the digests this run checked.
    pub record: Vec<String>,
}

/// One finished engine run.
#[derive(Debug)]
struct Cell {
    setup_s: f64,
    run_s: f64,
    days: f64,
    outputs: Outputs,
    dispatches: u64,
    drains_deferred: u64,
    twin_committed: u64,
}

/// Span name of an event kind: its [`EVENT_SPANS`] entry, or
/// `ev.other`.
fn ev_span(kind: &str) -> &'static str {
    EVENT_SPANS
        .iter()
        .copied()
        .find(|s| s.strip_prefix("ev.") == Some(kind))
        .unwrap_or("ev.other")
}

/// Step `eng` until its queue drains, optionally spanning each call;
/// returns (events, dispatches).
fn drive(
    eng: &mut Engine,
    mut tracer: Option<&mut Tracer>,
    dispatch_ns: &mut Vec<u64>,
) -> (u64, u64) {
    let (mut events, mut dispatches) = (0, 0);
    loop {
        let start = tracer.as_deref().map(|t| t.clock().now());
        let Some((_, kind)) = eng.step_event() else {
            break;
        };
        events += 1;
        let is_dispatch = kind == "dispatch";
        dispatches += u64::from(is_dispatch);
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start) {
            let ns = t.record(ev_span(kind), start);
            if is_dispatch {
                dispatch_ns.push(ns);
            }
        }
    }
    (events, dispatches)
}

/// Build, run and report one cell.
fn run_cell(
    cfg: &ScenarioConfig,
    clock: &Clock,
    mut tracer: Option<&mut Tracer>,
    dispatch_ns: &mut Vec<u64>,
) -> Cell {
    let days = cfg.duration.as_days_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("cell");
        t.enter("setup");
    }
    let t0 = clock.now();
    let mut eng = Engine::new(cfg.clone());
    let setup_s = secs_since(t0);
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    let t1 = clock.now();
    let (events, dispatches) = drive(&mut eng, tracer.as_deref_mut(), dispatch_ns);
    let mut report = eng.finish_report();
    let run_s = secs_since(t1);
    if let Some(t) = tracer {
        t.exit();
    }
    Cell {
        setup_s,
        run_s,
        days,
        outputs: Outputs::from_report(&mut report, events),
        dispatches,
        drains_deferred: report.drains_deferred,
        twin_committed: report.twin.as_ref().map_or(0, |t| t.committed),
    }
}

/// Everything one cycle of cells produced.
#[derive(Debug, Default)]
struct Cycle {
    /// Simulated days over host seconds of the run phase.
    host_rate: f64,
    cells: Vec<Cell>,
    /// Host seconds of each calibration-kernel pass in the cycle.
    kernel_s: Vec<f64>,
    /// A sweep cycle's rendered result table.
    table: Option<String>,
}

impl Cycle {
    /// How much slower the host ran than the reference host during the
    /// cycle.
    fn slowdown(&self) -> f64 {
        median_f(&self.kernel_s) / REFERENCE_KERNEL_S
    }

    /// Simulated days per reference second.
    fn rate(&self) -> f64 {
        self.host_rate * self.slowdown()
    }

    /// `Engine::new` times of the cycle's cells, in reference seconds.
    fn setup_s(&self) -> impl Iterator<Item = f64> + '_ {
        let slowdown = self.slowdown();
        self.cells.iter().map(move |c| c.setup_s / slowdown)
    }

    /// Host seconds the cycle's cells took, set-up included, one after
    /// the other.
    fn serial_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s + c.run_s).sum()
    }
}

/// Run every cell of one cycle serially, gating each, with a
/// calibration-kernel pass before each cell.
fn serial_cycle(
    cells: &[(String, ScenarioConfig)],
    kernel: &mut Kernel,
    clock: &Clock,
    gate: &mut Gate,
    mut tracer: Option<&mut Tracer>,
    dispatch_ns: &mut Vec<u64>,
) -> Cycle {
    let mut cycle = Cycle::default();
    let (mut days, mut run_s) = (0.0, 0.0);
    for (key, cfg) in cells {
        cycle.kernel_s.push(kernel.time());
        let depth = tracer.as_deref().map_or(0, Tracer::depth);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_cell(cfg, clock, tracer.as_deref_mut(), dispatch_ns)
        }));
        match r {
            Ok(cell) => {
                gate.check(key, cell.outputs.digest(), 1);
                days += cell.days;
                run_s += cell.run_s;
                cycle.cells.push(cell);
            }
            Err(_) => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.unwind_to(depth);
                }
                gate.attempt_failed(1, format!("{key}: engine run panicked"));
            }
        }
    }
    cycle.host_rate = days / run_s.max(f64::MIN_POSITIVE);
    cycle
}

/// Calibration passes before and after each pool call: one pass on
/// several threads is easily hit by a single preemption, so take the
/// median of several.
const POOL_KERNEL_PASSES: usize = 5;

/// One `run_engine_sweep` call on one worker per kernel, gated per level
/// row, calibrated on as many threads before and after; returns the
/// cycle and the pool's host seconds.
fn pool_cycle(
    w: &Workload,
    a: &Args,
    kernels: &mut [Kernel],
    clock: &Clock,
    gate: &mut Gate,
) -> (Cycle, f64) {
    let p = w.sweep_params(a.seed, a.size, kernels.len());
    let cells = w.cells_per_cycle(a.size);
    let mut kernel_s: Vec<f64> = (0..POOL_KERNEL_PASSES)
        .map(|_| time_parallel(kernels))
        .collect();
    let t = clock.now();
    let r = catch_unwind(|| run_engine_sweep(&p));
    let wall = secs_since(t);
    kernel_s.extend((0..POOL_KERNEL_PASSES).map(|_| time_parallel(kernels)));
    let table = r.as_ref().ok().map(|out| out.table.render());
    match r {
        Ok(out) => {
            for row in out.table.rows() {
                let label = row[0].as_str();
                let panicked = out.failures.iter().filter(|f| f.label == label).count();
                if panicked > 0 {
                    gate.attempt_failed(
                        p.seeds,
                        format!("{label}: {panicked} sweep cell(s) panicked"),
                    );
                } else {
                    gate.check(label, row_digest(row), p.seeds);
                }
            }
        }
        Err(_) => gate.attempt_failed(cells, "the sweep pool panicked".to_string()),
    }
    let cycle = Cycle {
        host_rate: cells as f64 * w.days(a.size) / wall.max(f64::MIN_POSITIVE),
        cells: Vec::new(),
        kernel_s,
        table,
    };
    (cycle, wall)
}

/// The cells of one serial cycle, keyed for the gate.
fn cycle_cells(w: &Workload, a: &Args) -> Vec<(String, ScenarioConfig)> {
    match w.kind {
        Kind::Sweep => w.sweep_cells(a.seed, a.size),
        Kind::E1 => w
            .cell_seeds(a.seed, a.size)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("cell{i}"), w.config(s, a.size)))
            .collect(),
    }
}

/// One calibration kernel per worker: for `Sweep` one per core, at most
/// four (the pool's width); otherwise one.
fn kernels(w: &Workload) -> Vec<Kernel> {
    let jobs = match w.kind {
        Kind::Sweep => std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4),
        Kind::E1 => 1,
    };
    (0..jobs).map(|_| Kernel::new()).collect()
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Keep starting cycles while half of a typical cycle still fits in the
/// budget; always run at least `min` cycles.
fn more_cycles(started: std::time::Instant, seconds: f64, done: &[f64], min: usize) -> bool {
    if done.len() < min {
        return true;
    }
    let typical = median_f(done);
    secs_since(started) + typical / 2.0 < seconds
}

/// Run the benchmark once.
pub fn run(a: &Args) -> Outcome {
    let w = a.workload;
    let reference = (a.seed == DEFAULT_SEED && a.size == Size::Full).then_some(REFERENCE);
    let mut gate = Gate::new(w.name, a.seed, reference);
    let mut log = Vec::new();
    let metrics = if a.trace {
        traced(a, &mut gate, &mut log)
    } else {
        untraced(a, &mut gate, &mut log)
    };
    log.push(format!(
        "fail_ratio {} ({} failed of {} attempted)",
        gate.fail_ratio(),
        gate.failed,
        gate.attempted
    ));
    log.extend(gate.failures.iter().map(|f| format!("FAILED {f}")));
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        record: gate.record_lines(w.name, a.seed),
        log,
    }
}

/// The simulated outputs of one cycle, by name: correctness outputs,
/// checked through the digests, not metrics.
fn simulated_line(cells: &[Cell]) -> String {
    let ppb: Vec<u64> = cells.iter().map(|c| c.outputs.availability_ppb).collect();
    let windows: Vec<u64> = cells.iter().map(|c| c.outputs.window_p50_us).collect();
    let tickets: u64 = cells.iter().map(|c| c.outputs.tickets_total).sum();
    let incidents: u64 = cells.iter().map(|c| c.outputs.incidents).sum();
    format!(
        "simulated availability_ppb {} service_window_p50_s {} tickets_per_incident {} (median over {} cells; tickets over incidents)",
        median(&ppb),
        median(&windows) / 1e6,
        tickets as f64 / incidents.max(1) as f64,
        cells.len()
    )
}

fn untraced(a: &Args, gate: &mut Gate, log: &mut Vec<String>) -> Vec<Metric> {
    let w = a.workload;
    let clock = Clock::new();
    let started = clock.now();
    let cells = cycle_cells(w, a);
    let mut kernels = kernels(w);
    let (mut rates, mut host_rates, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Cell>> = None;
    let mut table: Option<String> = None;
    if w.kind == Kind::Sweep {
        // The pool builds its engines out of sight: time the same
        // constructions here, each after a calibration pass.
        let (mut kernel_s, mut host_s) = (Vec::new(), Vec::new());
        for (_, cfg) in &cells {
            kernel_s.push(kernels[0].time());
            let t = clock.now();
            drop(Engine::new(cfg.clone()));
            host_s.push(secs_since(t));
        }
        let slowdown = median_f(&kernel_s) / REFERENCE_KERNEL_S;
        setup_s.extend(host_s.iter().map(|s| s / slowdown));
    }
    while more_cycles(started, a.seconds, &walls, 1) {
        let t = clock.now();
        let c = if w.kind == Kind::Sweep {
            pool_cycle(w, a, &mut kernels, &clock, gate).0
        } else {
            serial_cycle(&cells, &mut kernels[0], &clock, gate, None, &mut Vec::new())
        };
        rates.push(c.rate());
        host_rates.push(c.host_rate);
        kernel_ms.push(median_f(&c.kernel_s) * 1e3);
        setup_s.extend(c.setup_s());
        table = table.or(c.table);
        if !c.cells.is_empty() {
            first.get_or_insert(c.cells);
        }
        walls.push(secs_since(t));
    }
    log.push(format!(
        "{} seed {}: {} cycles of {} cells x {} simulated days",
        w.name,
        a.seed,
        rates.len(),
        w.cells_per_cycle(a.size),
        w.days(a.size)
    ));
    log.push(format!(
        "sim_days_per_s per cycle (reference seconds) {rates:?}"
    ));
    log.push(format!(
        "host_sim_days_per_s per cycle (host seconds) {host_rates:?}"
    ));
    log.push(format!(
        "calibration kernel ms per cycle (median; {} ms on the reference host) {kernel_ms:?}",
        REFERENCE_KERNEL_S * 1e3
    ));
    if let Some(cells) = &first {
        log.push(simulated_line(cells));
    }
    if let Some(table) = table {
        log.extend(table.lines().map(|l| format!("simulated {l}")));
    }
    vec![
        Metric::new("sim_days_per_s", median_f(&rates), "1/s"),
        Metric::new("setup_s", median_f(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// Median ms of three spans named `name` around `f`, after one warm-up
/// call.
fn time3(name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut()) -> f64 {
    f();
    let ns: Vec<u64> = (0..3)
        .map(|_| {
            tracer.enter(name);
            f();
            tracer.exit()
        })
        .collect();
    median(&ns) / 1e6
}

/// Midpoint checkpoint probes and the restore ≡ continuous check on
/// `cfg`, gated under `key` (the cell's own key, so both finishes must
/// also match that cell's earlier digest and its reference).
fn ckpt_check(
    key: &str,
    cfg: &ScenarioConfig,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Vec<Metric> {
    let mid = SimTime::ZERO + cfg.duration / 2;
    let mut eng = Engine::new(cfg.clone());
    let mut before = 0u64;
    while eng.now() < mid && eng.step_event().is_some() {
        before += 1;
    }
    let mut snap = eng.snapshot();
    let snapshot_ms = time3("probe.ckpt_snapshot", tracer, &mut || snap = eng.snapshot());
    let mut restored = None;
    let restore_ms = time3("probe.ckpt_restore", tracer, &mut || {
        restored = Some(Engine::restore(cfg.clone(), &snap));
    });
    let fork_ms = time3("probe.ckpt_fork", tracer, &mut || {
        drop(std::hint::black_box(eng.fork()))
    });
    let finish = |mut e: Engine| {
        let (after, _) = drive(&mut e, None, &mut Vec::new());
        Outputs::from_report(&mut e.finish_report(), before + after).digest()
    };
    let r = catch_unwind(AssertUnwindSafe(|| {
        let restored = restored
            .take()
            .expect("restore ran")
            .expect("snapshot restores");
        (finish(eng), finish(restored))
    }));
    match r {
        Ok((continuous, resumed)) => {
            gate.check(key, continuous, 1);
            gate.check(key, resumed, 1);
        }
        Err(_) => gate.attempt_failed(2, format!("{key}: restore check panicked")),
    }
    vec![
        Metric::new("ckpt.bytes", snap.payload.len() as f64, "B"),
        Metric::new("ckpt.snapshot_ms", snapshot_ms, "ms"),
        Metric::new("ckpt.restore_ms", restore_ms, "ms"),
        Metric::new("ckpt.fork_ms", fork_ms, "ms"),
    ]
}

/// Twin probe: two twin-guided simulated days on `cfg`'s fabric and seed
/// (a span `probe.twin`), gated under the key `twin`.
fn twin_probe(
    cfg: &ScenarioConfig,
    clock: &Clock,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Vec<Metric> {
    let twin_cfg = Workload::twin_config(cfg);
    // The probe's step spans go to a tracer of its own: only their
    // durations are needed here.
    let mut steps = Tracer::new();
    let mut dispatch_ns = Vec::new();
    tracer.enter("probe.twin");
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_cell(&twin_cfg, clock, Some(&mut steps), &mut dispatch_ns)
    }));
    tracer.exit();
    let (decisions, forks, committed) = match r {
        Ok(cell) => {
            gate.check("twin", cell.outputs.digest(), 1);
            (
                cell.outputs.twin_decisions,
                cell.outputs.twin_forks,
                cell.twin_committed,
            )
        }
        Err(_) => {
            gate.attempt_failed(1, "twin: engine run panicked".to_string());
            (0, 0, 0)
        }
    };
    // A decision runs inside the dispatch `step_event` it plans for and
    // costs tens of milliseconds against well under one for a plain
    // dispatch, so the longest dispatch spans are the decisions.
    let mut longest: Vec<f64> = dispatch_ns.iter().map(|&n| n as f64 / 1e6).collect();
    longest.sort_by(|x, y| y.total_cmp(x));
    longest.truncate(decisions as usize);
    vec![
        Metric::new("twin.decisions", decisions as f64, "count"),
        Metric::new("twin.forks", forks as f64, "count"),
        Metric::new(
            "twin.commit_ratio",
            committed as f64 / decisions.max(1) as f64,
            "ratio",
        ),
        Metric::new("twin.decision_p50_ms", percentile(&longest, 50.0), "ms"),
        Metric::new("twin.decision_p95_ms", percentile(&longest, 95.0), "ms"),
    ]
}

fn traced(a: &Args, gate: &mut Gate, log: &mut Vec<String>) -> Vec<Metric> {
    let w = a.workload;
    let clock = Clock::new();
    let started = clock.now();
    let cells = cycle_cells(w, a);
    let mut tracer = Tracer::new();
    let mut dispatch_ns = Vec::new();
    let mut kernels = kernels(w);
    let (mut plain, mut spanned, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    // Host seconds of each untraced cycle's cells run one after the other.
    let mut serial_s = Vec::new();
    let mut first: Option<Vec<Cell>> = None;
    // Alternate untraced and traced cycles so host drift hits both.
    while more_cycles(started, a.seconds, &walls, 2) || spanned.len() < plain.len() {
        let t = clock.now();
        if plain.len() <= spanned.len() {
            let c = serial_cycle(&cells, &mut kernels[0], &clock, gate, None, &mut Vec::new());
            plain.push(c.rate());
            serial_s.push(c.serial_s());
        } else {
            tracer.enter("run");
            let c = serial_cycle(
                &cells,
                &mut kernels[0],
                &clock,
                gate,
                Some(&mut tracer),
                &mut dispatch_ns,
            );
            tracer.exit();
            spanned.push(c.rate());
            first.get_or_insert(c.cells);
        }
        walls.push(secs_since(t));
    }
    let traced_cycles = spanned.len() as f64;
    let first = first.unwrap_or_default();

    tracer.enter("run");
    let (key, cfg) = &cells[0];
    let mut metrics = ckpt_check(key, cfg, &mut tracer, gate);
    metrics.extend(probes::run(cfg, &mut tracer));
    metrics.extend(twin_probe(cfg, &clock, &mut tracer, gate));
    let (jobs, efficiency) = if w.kind == Kind::Sweep {
        let jobs = kernels.len();
        tracer.enter("pool");
        let (_, wall) = pool_cycle(w, a, &mut kernels, &clock, gate);
        tracer.exit();
        (jobs, median_f(&serial_s) / (jobs as f64 * wall))
    } else {
        (0, 0.0)
    };
    tracer.exit();

    let cell_ns = tracer.get("run/cell").map_or(0, |r| r.total_ns).max(1) as f64;
    for span in EVENT_SPANS {
        let row = tracer.get(&format!("run/cell/{span}"));
        let (count, self_ns) = row.map_or((0, 0), |r| (r.count, r.self_ns));
        metrics.push(Metric::new(
            format!("{span}.count"),
            count as f64 / traced_cycles,
            "count",
        ));
        metrics.push(Metric::new(
            format!("{span}.self_ms"),
            self_ns as f64 / 1e6 / traced_cycles,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("{span}.share_pct"),
            self_ns as f64 / cell_ns * 100.0,
            "%",
        ));
    }
    let dispatch_us: Vec<f64> = dispatch_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let sum = |f: fn(&Cell) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let days: f64 = first.iter().map(|c| c.days).sum();
    let overhead =
        (median_f(&plain) - median_f(&spanned)) / median_f(&plain).max(f64::MIN_POSITIVE) * 100.0;
    metrics.extend([
        Metric::new("ev.dispatch.p50_us", percentile(&dispatch_us, 50.0), "us"),
        Metric::new("ev.dispatch.p95_us", percentile(&dispatch_us, 95.0), "us"),
        Metric::new(
            "engine.events_per_sim_day",
            sum(|c| c.outputs.events) / days.max(f64::MIN_POSITIVE),
            "count",
        ),
        Metric::new(
            "drain.defer_ratio",
            sum(|c| c.drains_deferred) / sum(|c| c.dispatches).max(1.0),
            "ratio",
        ),
        Metric::new(
            "faults.cascade_incidents",
            sum(|c| c.outputs.cascade_incidents),
            "count",
        ),
        Metric::new(
            "tickets.per_incident",
            sum(|c| c.outputs.tickets_total) / sum(|c| c.outputs.incidents).max(1.0),
            "ratio",
        ),
        Metric::new(
            "sweep.cells",
            if w.kind == Kind::Sweep {
                cells.len() as f64
            } else {
                0.0
            },
            "count",
        ),
        Metric::new("sweep.jobs", jobs as f64, "count"),
        Metric::new("sweep.parallel_efficiency", efficiency, "ratio"),
        Metric::new("bench.trace_overhead_pct", overhead, "%"),
    ]);

    log.push(format!(
        "{} seed {}: {} untraced + {} traced cycles of {} cells; sim_days_per_s untraced {:?} traced {:?}; {} dispatch spans",
        w.name,
        a.seed,
        plain.len(),
        spanned.len(),
        cells.len(),
        plain,
        spanned,
        dispatch_ns.len()
    ));
    log.push(simulated_line(&first));
    log.push(
        "span                                      count     total_ms      self_ms".to_string(),
    );
    for r in tracer.rows() {
        log.push(format!(
            "{:40} {:>6} {:>12.3} {:>12.3}",
            r.path,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        ));
    }
    let order = crate::per_layer_names();
    metrics.sort_by_key(|m| order.iter().position(|n| *n == m.name));
    metrics
}
