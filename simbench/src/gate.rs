//! The correctness gate behind `attempted`, `failed` and `fail_ratio`.
//!
//! Every engine run (every sweep cell) is one attempted operation. Its
//! simulated outputs are folded into a digest; the run fails if it
//! panicked, if its digest differs from the one the same key produced
//! earlier in this process, or — for the default seed — if it differs
//! from the digest recorded in `reference.txt`. A failure is always
//! counted, never skipped.

use std::collections::BTreeMap;

use dcmaint_scenarios::RunReport;

/// Digests recorded for [`crate::workload::DEFAULT_SEED`] at full size:
/// one `workload seed key digest` line per checked key.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The simulated outputs one run is judged by. A change that only makes
/// the simulator faster leaves every field byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    /// Link availability in parts per billion.
    pub availability_ppb: u64,
    /// Tickets fixed.
    pub tickets_fixed: u64,
    /// Spurious tickets.
    pub tickets_spurious: u64,
    /// Tickets opened, any trigger.
    pub tickets_total: u64,
    /// Organic plus cascade incidents.
    pub incidents: u64,
    /// Incidents caused by maintenance contact.
    pub cascade_incidents: u64,
    /// Events dispatched by `Engine::step_event`.
    pub events: u64,
    /// Median service window, simulated microseconds.
    pub window_p50_us: u64,
    /// Twin decision points.
    pub twin_decisions: u64,
    /// Twin branch engines forked.
    pub twin_forks: u64,
}

impl Outputs {
    /// Extract the outputs of a finished run that dispatched `events`.
    pub fn from_report(report: &mut RunReport, events: u64) -> Outputs {
        let (twin_decisions, twin_forks) = report
            .twin
            .as_ref()
            .map_or((0, 0), |t| (t.decisions, t.forks));
        Outputs {
            availability_ppb: (report.availability.availability * 1e9).round() as u64,
            tickets_fixed: report.tickets_fixed,
            tickets_spurious: report.tickets_spurious,
            tickets_total: report.tickets_total(),
            incidents: report.incidents,
            cascade_incidents: report.cascade_incidents,
            events,
            window_p50_us: report.median_service_window().as_micros(),
            twin_decisions,
            twin_forks,
        }
    }

    /// FNV-1a digest of the canonical text form.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of one rendered sweep-table row.
pub fn row_digest(cells: &[String]) -> u64 {
    fnv1a(cells.join("|").as_bytes())
}

/// Counts attempted and failed operations for one workload and seed.
#[derive(Debug)]
pub struct Gate {
    reference: Option<BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (panic or digest mismatch).
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate for `workload` at `seed`; `reference` is the recorded
    /// text, or `None` where no reference applies (other seeds, tiny
    /// size).
    pub fn new(workload: &str, seed: u64, reference: Option<&str>) -> Gate {
        let reference = reference.map(|text| {
            text.lines()
                .filter_map(|line| {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    match f.as_slice() {
                        [w, s, key, hex] if *w == workload && s.parse() == Ok(seed) => {
                            Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
                        }
                        _ => None,
                    }
                })
                .collect()
        });
        Gate {
            reference,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check the digest of `ops` operations under `key`. Returns whether
    /// they passed.
    pub fn check(&mut self, key: &str, digest: u64, ops: u64) -> bool {
        self.attempted += ops;
        let earlier = *self.seen.entry(key.to_string()).or_insert(digest);
        let why = if earlier != digest {
            Some(format!(
                "{key}: digest {digest:016x} differs from earlier same-seed run {earlier:016x}"
            ))
        } else {
            match self.reference.as_ref().map(|r| r.get(key)) {
                Some(None) => Some(format!("{key}: no reference digest recorded")),
                Some(Some(&want)) if want != digest => Some(format!(
                    "{key}: digest {digest:016x} differs from reference {want:016x}"
                )),
                _ => None,
            }
        };
        match why {
            Some(why) => {
                self.fail(ops, why);
                false
            }
            None => true,
        }
    }

    /// Count `ops` attempted operations that failed without a digest
    /// (a panic).
    pub fn attempt_failed(&mut self, ops: u64, why: String) {
        self.attempted += ops;
        self.fail(ops, why);
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `workload seed key digest` lines for every key checked, in key
    /// order: the text `reference.txt` holds for the default seed.
    pub fn record_lines(&self, workload: &str, seed: u64) -> Vec<String> {
        self.seen
            .iter()
            .map(|(key, d)| format!("{workload} {seed} {key} {d:016x}"))
            .collect()
    }
}
