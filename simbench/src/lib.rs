//! # dcmaint-simbench — the simulator benchmark
//!
//! Runs the simulator through its public API on two named workloads
//! (see `README.md` beside this crate for why each was chosen and which
//! per-layer number should move which end-to-end number). An untraced
//! run reports end-to-end metrics in host time scaled to a reference
//! host speed (see `calib`); a traced run reports
//! per-layer metrics from spans the benchmark records around its own
//! calls into each layer. Every run checks the simulated outputs.

#![forbid(unsafe_code)]

pub mod calib;
pub mod gate;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: &[&str] = &["sim_days_per_s", "setup_s", "peak_rss_mb"];

/// Spans of the event kinds reported by name: `ev.<kind>`, with
/// `<kind>` as `Engine::step_event` returns it.
pub const EVENT_SPANS: &[&str] = &[
    "ev.dispatch",
    "ev.poll",
    "ev.predictive-label",
    "ev.predictive-scan",
    "ev.fault",
    "ev.flap",
    "ev.burst-end",
    "ev.repair-start",
    "ev.repair-done",
    "ev.verify-done",
];

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order: the
/// three metrics per [`EVENT_SPANS`] entry, then these.
pub const PER_LAYER_TAIL: &[&str] = &[
    "ev.dispatch.p50_us",
    "ev.dispatch.p95_us",
    "engine.events_per_sim_day",
    "drain.plan_robot_us",
    "drain.plan_human_us",
    "routing.pair_connectivity_us",
    "drain.defer_ratio",
    "telemetry.sample_us",
    "telemetry.sample_ns_per_link",
    "dcnet.topology_build_s",
    "dcnet.links",
    "dcnet.disturb_neighbors_mean",
    "faults.cascade_incidents",
    "tickets.per_incident",
    "sched.schedule_pop_ns",
    "ckpt.bytes",
    "ckpt.snapshot_ms",
    "ckpt.restore_ms",
    "ckpt.fork_ms",
    "twin.decisions",
    "twin.forks",
    "twin.commit_ratio",
    "twin.decision_p50_ms",
    "twin.decision_p95_ms",
    "sweep.cells",
    "sweep.jobs",
    "sweep.parallel_efficiency",
    "bench.trace_overhead_pct",
];

/// Every per-layer metric name, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for span in EVENT_SPANS {
        for stat in ["count", "self_ms", "share_pct"] {
            names.push(format!("{span}.{stat}"));
        }
    }
    names.extend(PER_LAYER_TAIL.iter().map(|s| s.to_string()));
    names
}

/// Median of integer samples (0 for none).
pub fn median(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median_f(&f)
}

/// Median of float samples (0 for none).
pub fn median_f(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `v` (0 for none).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median_f(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(percentile(&[0.0, 10.0], 95.0), 9.5);
    }
}
