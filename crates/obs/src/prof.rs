//! The engine self-profiler: per-subsystem span accounting for the
//! maintenance plane's *own* hot paths.
//!
//! A plane that manages itself must first observe itself (the MAPE-K
//! premise). This module is the observation layer for the simulator's
//! machinery rather than for simulated incidents: where does a simulated
//! year of wall time actually go — the scheduler, telemetry polls, fault
//! injection, the controller, robot dispatch, ticket bookkeeping, or
//! checkpoint encode/decode?
//!
//! The design splits every measurement into two strictly separated
//! halves, following the rest of the crate:
//!
//! * **Deterministic counts** — per-event-kind and per-subsystem event
//!   tallies, scheduler queue statistics, checkpoint payload sizes.
//!   These live in the [`ObsRegistry`](crate::ObsRegistry) under
//!   `prof/…` keys, so they merge across sweep workers, persist through
//!   checkpoints, and are byte-identical across same-seed runs.
//! * **Timing-only spans** — wall-clock nanoseconds per subsystem,
//!   accumulated by a [`WallProfile`] owned here. Inherently
//!   nondeterministic; surfaced only via side files (`BENCH_engine.json`)
//!   and stderr, never on any seeded output path.
//!
//! When disabled a `Prof` is fully inert: [`Prof::start`] returns `None`
//! without reading the clock, [`Prof::record`] returns before touching
//! anything, and no allocation ever happens — so profiling-off runs are
//! byte-identical to a build without the profiler.

use std::time::Instant;

use crate::wall::WallProfile;

/// Key prefix for every deterministic profiler counter in the registry.
/// Keeps the profiler's namespace disjoint from the simulation counters
/// (`ticket/…`, `op/…`, …) that experiment assertions pin.
pub const PROF_PREFIX: &str = "prof/";

/// The span taxonomy: every engine event and hot-path hook is attributed
/// to exactly one of these subsystems (DESIGN §3.13).
pub const SUBSYSTEMS: &[&str] = &[
    "sched",      // des::sched schedule/pop/cancel + queue bookkeeping
    "faults",     // fault arrivals, self-heals, flaps, cascades
    "dcnet",      // link recompute + telemetry polling
    "controller", // dispatch decisions, proactive/predictive scans
    "robotics",   // robot op lifecycle: start/done/stall/abort/recover
    "tickets",    // ticket open/verify/close bookkeeping
    "recovery",   // watchdog + degradation ladder
    "ckpt",       // snapshot encode/decode
    "twin",       // digital-twin planning: fork fan-out + branch scoring
    "autonomic",  // MAPE-K loop: monitor windows, posterior updates, knob moves
];

/// Scoped wall timing per subsystem. A thin wrapper over
/// [`WallProfile`] — the `Instant` values it handles are produced inside
/// `obs::wall`, the single module sanctioned to read the clock — plus
/// the enabled flag the engine's deterministic-count hooks key off.
#[derive(Debug, Clone, Default)]
pub struct Prof {
    enabled: bool,
    wall: WallProfile,
}

impl Prof {
    /// A profiler that records.
    pub fn enabled() -> Self {
        Prof {
            enabled: true,
            wall: WallProfile::enabled(),
        }
    }

    /// A profiler that ignores everything (the default).
    pub fn disabled() -> Self {
        Prof::default()
    }

    /// Whether this profiler records. Deterministic-count hooks check
    /// this before touching the registry so a disabled profiler leaves
    /// zero `prof/…` entries.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span: reads the clock iff profiling is on. Pass the
    /// result to [`Prof::record`] after the measured section.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.wall.start()
    }

    /// Close a span under `subsystem`. No-op when `started` is `None`.
    #[inline]
    pub fn record(&mut self, subsystem: &'static str, started: Option<Instant>) {
        self.wall.record(subsystem, started);
    }

    /// Accumulated `(subsystem, total ns, spans)` entries, sorted by
    /// subsystem name. Empty when disabled.
    pub fn entries(&self) -> Vec<(&'static str, u64, u64)> {
        self.wall.entries_sorted()
    }

    /// Total spans recorded.
    pub fn total_count(&self) -> u64 {
        self.wall.total_count()
    }

    /// Render as a JSON object string (same shape as `BENCH_obs.json`).
    pub fn to_json(&self) -> String {
        self.wall.to_json()
    }
}

/// Wall share per entry in percent of the summed total. Shares are
/// computed over the entry set itself, so they sum to ~100% by
/// construction (modulo float rounding); an empty or all-zero set
/// yields all-zero shares.
pub fn shares(entries: &[(&'static str, u64, u64)]) -> Vec<(&'static str, f64)> {
    let total: u64 = entries.iter().fold(0u64, |acc, e| acc.saturating_add(e.1));
    entries
        .iter()
        .map(|&(name, ns, _)| {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total as f64
            };
            (name, pct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prof_is_inert() {
        let mut p = Prof::disabled();
        assert!(!p.is_enabled());
        let t = p.start();
        assert!(t.is_none(), "disabled profiler must not read the clock");
        p.record("sched", t);
        assert_eq!(p.total_count(), 0);
        assert!(p.entries().is_empty());
        assert_eq!(p.to_json(), "{}");
    }

    #[test]
    fn enabled_prof_accumulates_per_subsystem() {
        let mut p = Prof::enabled();
        assert!(p.is_enabled());
        p.record("tickets", p.start());
        p.record("sched", p.start());
        p.record("tickets", p.start());
        assert_eq!(p.total_count(), 3);
        let e = p.entries();
        assert_eq!(e.len(), 2);
        // Sorted by name regardless of first-touch order.
        assert_eq!(e[0].0, "sched");
        assert_eq!(e[1].0, "tickets");
        assert_eq!(e[1].2, 2);
    }

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let entries = [("a", 300u64, 3u64), ("b", 100, 1), ("c", 600, 2)];
        let s = shares(&entries);
        let total: f64 = s.iter().map(|&(_, pct)| pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
        assert!((s[0].1 - 30.0).abs() < 1e-9);
        assert!((s[2].1 - 60.0).abs() < 1e-9);
        // Degenerate sets stay well-defined.
        assert!(shares(&[]).is_empty());
        assert_eq!(shares(&[("z", 0, 0)])[0].1, 0.0);
    }

    #[test]
    fn taxonomy_is_sorted_unique_and_prefixed_keys_are_disjoint() {
        let mut sorted = SUBSYSTEMS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SUBSYSTEMS.len(), "duplicate subsystem");
        for s in SUBSYSTEMS {
            assert!(!s.starts_with(PROF_PREFIX));
            assert!(!s.is_empty());
        }
    }
}
