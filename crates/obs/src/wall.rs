//! Wall-clock profiling of the engine hot loop.
//!
//! Real-time measurements are inherently nondeterministic, so this
//! module is quarantined from everything else in the crate: the engine
//! records per-event-kind wall time here and the CLI dumps it to
//! `BENCH_obs.json` — it is never mixed into seeded (simulated-time)
//! output.

use std::time::Instant;

/// Accumulated wall-clock time per event kind. Disabled by default;
/// a disabled profile records nothing and [`WallProfile::start`]
/// returns `None` without reading the clock.
#[derive(Debug, Clone, Default)]
pub struct WallProfile {
    enabled: bool,
    /// `(event kind, total nanoseconds, count)`.
    entries: Vec<(&'static str, u64, u64)>,
}

impl WallProfile {
    /// A profile that records.
    pub fn enabled() -> Self {
        WallProfile {
            enabled: true,
            entries: Vec::new(),
        }
    }

    /// A profile that ignores everything.
    pub fn disabled() -> Self {
        WallProfile::default()
    }

    /// Whether this profile records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Read the clock iff profiling is on. Pass the result to
    /// [`WallProfile::record`] after the measured section.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accumulate the elapsed time since `started` under `kind`.
    /// No-op when `started` is `None` (profiling off).
    #[inline]
    pub fn record(&mut self, kind: &'static str, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record_since(kind, t0);
        }
    }

    /// The enabled half of [`WallProfile::record`], kept out of line so
    /// the disabled path inlines to one test.
    #[inline(never)]
    fn record_since(&mut self, kind: &'static str, t0: Instant) {
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        for e in &mut self.entries {
            if e.0 == kind {
                e.1 = e.1.saturating_add(ns);
                e.2 += 1;
                return;
            }
        }
        self.entries.push((kind, ns, 1));
    }

    /// Total events recorded.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.2).sum()
    }

    /// Total accumulated nanoseconds across every kind.
    pub fn total_ns(&self) -> u64 {
        self.entries
            .iter()
            .fold(0u64, |acc, e| acc.saturating_add(e.1))
    }

    /// The accumulated `(kind, total nanoseconds, count)` entries,
    /// sorted by kind name (first-touch order is a timing artifact and
    /// must not leak into any rendered output).
    pub fn entries_sorted(&self) -> Vec<(&'static str, u64, u64)> {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.0);
        entries
    }

    /// Render as a JSON object string, kinds sorted by name:
    /// `{"kind":{"ns":...,"count":...},...}`.
    pub fn to_json(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.0);
        let body: Vec<String> = entries
            .iter()
            .map(|(k, ns, n)| format!("\"{k}\":{{\"ns\":{ns},\"count\":{n}}}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_is_inert() {
        let mut p = WallProfile::disabled();
        let t = p.start();
        assert!(t.is_none());
        p.record("tick", t);
        assert_eq!(p.total_count(), 0);
        assert_eq!(p.to_json(), "{}");
    }

    #[test]
    fn records_and_sorts_by_kind() {
        let mut p = WallProfile::enabled();
        let t = p.start();
        assert!(t.is_some());
        p.record("zeta", t);
        p.record("alpha", p.start());
        p.record("zeta", p.start());
        assert_eq!(p.total_count(), 3);
        let json = p.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta);
        assert!(json.contains("\"count\":2"));
    }
}
