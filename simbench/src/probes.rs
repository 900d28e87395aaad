//! Layer probes for the traced run: direct calls into the `dcnet`,
//! `core`, `telemetry` and `des` APIs on the workload's own fabric, each
//! warmed up before it is timed and each timed call a span under the
//! innermost open span.

use dcmaint_dcnet::routing::pair_connectivity;
use dcmaint_dcnet::{LinkId, NetState, NodeId, Topology};
use dcmaint_des::{Scheduler, SimDuration, SimRng, SimTime};
use dcmaint_scenarios::ScenarioConfig;
use dcmaint_telemetry::{Detector, TelemetryPlane};
use maintctl::drain::{plan, DrainConfig};
use std::hint::black_box;

use crate::trace::Tracer;
use crate::{median, Metric};

/// Drain targets sampled per probe.
const DRAIN_TARGETS: usize = 32;
/// Scheduler depth held while timing schedule + pop.
const SCHED_DEPTH: usize = 1024;
/// Schedule + pop pairs timed.
const SCHED_OPS: u64 = 200_000;

/// Time `f` once as a span named `name`; returns the span's ns.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    tracer.enter(name);
    let out = black_box(f());
    (out, tracer.exit())
}

/// The service pairs `Engine::new` samples for `cfg`, drawn from the
/// same `service-pairs` stream.
fn service_pairs(cfg: &ScenarioConfig, topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut stream = SimRng::root(cfg.seed).stream("service-pairs", 0);
    let servers = topo.servers();
    let mut pairs = Vec::new();
    if servers.len() >= 2 {
        for _ in 0..cfg.service_pair_samples {
            let a = servers[stream.index(servers.len())];
            let b = servers[stream.index(servers.len())];
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Run every probe on `cfg`'s fabric.
pub fn run(cfg: &ScenarioConfig, tracer: &mut Tracer) -> Vec<Metric> {
    let build = || cfg.topology.build(cfg.diversity, &SimRng::root(cfg.seed));
    let topo = build();
    let links = topo.link_count();
    // Big fabrics take most of a second per build; time fewer of them.
    let builds = if links > 1000 { 3 } else { 15 };
    let build_ns: Vec<u64> = (0..builds)
        .map(|_| timed(tracer, "probe.topology_build", build).1)
        .collect();
    let neighbors: usize = (0..links)
        .map(|i| topo.disturb_neighbors(LinkId::from_index(i)).len())
        .sum();

    let state = NetState::new(&topo);
    let pairs = service_pairs(cfg, &topo);
    for _ in 0..3 {
        black_box(pair_connectivity(&topo, &state, &pairs));
    }
    let conn_ns: Vec<u64> = (0..40)
        .map(|_| {
            timed(tracer, "probe.pair_connectivity", || {
                pair_connectivity(&topo, &state, &pairs)
            })
            .1
        })
        .collect();

    let mut pick = SimRng::root(cfg.seed).stream("simbench-probe", 0);
    let targets: Vec<LinkId> = (0..DRAIN_TARGETS)
        .map(|_| LinkId::from_index(pick.index(links)))
        .collect();
    let dcfg = DrainConfig::default();
    let mut drain = |name: &'static str, clumsy: bool| -> Vec<u64> {
        let call = |t: LinkId| {
            plan(
                &dcfg,
                &topo,
                &state,
                t,
                clumsy,
                SimDuration::from_hours(1),
                &pairs,
            )
        };
        for &t in targets.iter().take(4) {
            black_box(call(t));
        }
        targets
            .iter()
            .map(|&t| timed(tracer, name, || call(t)).1)
            .collect()
    };
    let robot_ns = drain("probe.drain_plan_robot", false);
    let human_ns = drain("probe.drain_plan_human", true);

    let mut plane = TelemetryPlane::with_config(&topo, cfg.poll_period, Detector::default());
    let mut now = SimTime::ZERO;
    let mut sample = |tracer: Option<&mut Tracer>| {
        now += cfg.poll_period;
        match tracer {
            Some(t) => {
                timed(t, "probe.telemetry_sample", || {
                    plane.sample(&topo, &state, now)
                })
                .1
            }
            None => {
                black_box(plane.sample(&topo, &state, now));
                0
            }
        }
    };
    for _ in 0..5 {
        sample(None);
    }
    let sample_ns: Vec<u64> = (0..50).map(|_| sample(Some(&mut *tracer))).collect();
    let sample_ns = median(&sample_ns);

    let sched_ns = schedule_pop(cfg.seed, tracer);

    vec![
        Metric::new("dcnet.topology_build_s", median(&build_ns) / 1e9, "s"),
        Metric::new("dcnet.links", links as f64, "count"),
        Metric::new(
            "dcnet.disturb_neighbors_mean",
            neighbors as f64 / links.max(1) as f64,
            "count",
        ),
        Metric::new("routing.pair_connectivity_us", median(&conn_ns) / 1e3, "us"),
        Metric::new("drain.plan_robot_us", median(&robot_ns) / 1e3, "us"),
        Metric::new("drain.plan_human_us", median(&human_ns) / 1e3, "us"),
        Metric::new("telemetry.sample_us", sample_ns / 1e3, "us"),
        Metric::new(
            "telemetry.sample_ns_per_link",
            sample_ns / links.max(1) as f64,
            "ns",
        ),
        Metric::new("sched.schedule_pop_ns", sched_ns, "ns"),
    ]
}

/// ns per schedule + pop pair on a scheduler held at [`SCHED_DEPTH`]
/// pending events.
fn schedule_pop(seed: u64, tracer: &mut Tracer) -> f64 {
    let mut draw = SimRng::root(seed).stream("simbench-sched", 0);
    let delays: Vec<SimDuration> = (0..SCHED_DEPTH)
        .map(|_| SimDuration::from_secs_f64(draw.uniform_range(1.0, 3600.0)))
        .collect();
    let mut sched: Scheduler<u64> = Scheduler::new();
    for (i, &d) in delays.iter().enumerate() {
        sched.schedule(SimTime::ZERO + d, i as u64);
    }
    let mut churn = |ops: u64| {
        for i in 0..ops {
            let fired = sched.pop().expect("the scheduler is held at a fixed depth");
            let d = delays[(i as usize + fired.payload as usize) % SCHED_DEPTH];
            sched.schedule(fired.at + d, black_box(fired.payload));
        }
    };
    churn(SCHED_OPS / 10);
    let ((), ns) = timed(tracer, "probe.schedule_pop", || churn(SCHED_OPS));
    ns as f64 / SCHED_OPS as f64
}
