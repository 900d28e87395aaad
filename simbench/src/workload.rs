//! The workloads: which fabric, policy and simulated span each cell
//! runs, and how many cells one measurement cycle holds.
//!
//! A cycle is a fixed set of independent engine runs ("cells") whose
//! seeds derive from the benchmark's `--seed`. Host cost per simulated
//! day differs a lot from one fault history to the next (a cascade storm
//! on one seed can cost ten times a quiet one), so every cycle averages
//! over many cells; repeating the same cycle then separates host noise
//! (cycle to cycle) from input variation (seed to seed).

use dcmaint_des::SimDuration;
use dcmaint_scenarios::{EngineSweepParams, ScenarioConfig, TopologySpec};
use dcmaint_sweep::derive_seed;
use dcmaint_twin::{TwinConfig, TwinPolicy};
use maintctl::AutomationLevel;

/// The seed whose simulated outputs are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// E1 cell: 192-link leaf-spine, L3 robots, ladder policy.
    E1,
    /// `run_engine_sweep` over L0–L4 on the E1 fabric.
    Sweep,
}

/// Full size for measurement; tiny for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's own inputs.
    Full,
    /// Small fabrics and short spans: seconds in a debug build.
    Tiny,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Why it is in the benchmark (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Cells per cycle at full size (for `Sweep`: seeds per level).
    cells: u64,
    /// Simulated hours per cell at full size.
    hours: u64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "e1-l3",
        kind: Kind::E1,
        why: "the paper's E1 cell; dispatch drain planning and the every-link telemetry poll dominate host time",
        cells: 40,
        hours: 30 * 24,
    },
    Workload {
        name: "sweep-levels",
        kind: Kind::Sweep,
        why: "run_engine_sweep over L0-L4 on a thread pool; the only user of human drains and the sweep pool",
        cells: 8,
        hours: 30 * 24,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Simulated hours per cell.
    pub fn hours(&self, size: Size) -> u64 {
        match size {
            Size::Full => self.hours,
            Size::Tiny => 48,
        }
    }

    /// Simulated days per cell.
    pub fn days(&self, size: Size) -> f64 {
        self.hours(size) as f64 / 24.0
    }

    /// Seeds of one cycle's cells (not used by `Sweep`, whose pool
    /// derives its own).
    pub fn cell_seeds(&self, seed: u64, size: Size) -> Vec<u64> {
        let n = match size {
            Size::Full => self.cells,
            Size::Tiny => 2,
        };
        (0..n).map(|i| derive_seed(seed, self.name, i)).collect()
    }

    /// Configuration of one cell.
    pub fn config(&self, cell_seed: u64, size: Size) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(cell_seed, AutomationLevel::L3);
        cfg.duration = SimDuration::from_hours(self.hours(size));
        if size == Size::Tiny {
            shrink(&mut cfg);
        }
        cfg
    }

    /// The twin probe's configuration: cell `cfg`'s fabric and seed at
    /// L3 under twin-guided planning, for two simulated days.
    pub fn twin_config(cfg: &ScenarioConfig) -> ScenarioConfig {
        let mut twin = ScenarioConfig::at_level(cfg.seed, AutomationLevel::L3);
        twin.topology = cfg.topology.clone();
        twin.poll_period = cfg.poll_period;
        twin.faults = cfg.faults.clone();
        twin.duration = SimDuration::from_days(2);
        twin.twin = TwinPolicy::TwinGuided(TwinConfig::default());
        twin
    }

    /// Pool parameters of one `Sweep` cycle.
    pub fn sweep_params(&self, seed: u64, size: Size, jobs: usize) -> EngineSweepParams {
        let mut p = EngineSweepParams::new(seed);
        p.seeds = match size {
            Size::Full => self.cells,
            Size::Tiny => 1,
        };
        p.days = self.hours(size) / 24;
        p.jobs = jobs;
        p.levels = AutomationLevel::ALL.to_vec();
        p.small_fabric = size == Size::Tiny;
        p
    }

    /// The `Sweep` cells one by one, as `(label, config)`: the same
    /// configurations `run_engine_sweep` builds for `sweep_params`, so
    /// the traced run can time them serially.
    pub fn sweep_cells(&self, seed: u64, size: Size) -> Vec<(String, ScenarioConfig)> {
        let p = self.sweep_params(seed, size, 1);
        let mut out = Vec::new();
        for &level in &p.levels {
            for k in 0..p.seeds {
                let mut cfg = ScenarioConfig::at_level(derive_seed(seed, level.label(), k), level);
                cfg.duration = SimDuration::from_days(p.days);
                if p.small_fabric {
                    shrink(&mut cfg);
                }
                out.push((format!("{}.{k}", level.label()), cfg));
            }
        }
        out
    }

    /// Cells in one cycle.
    pub fn cells_per_cycle(&self, size: Size) -> u64 {
        match self.kind {
            Kind::Sweep => self.sweep_params(0, size, 1).seeds * AutomationLevel::ALL.len() as u64,
            Kind::E1 => self.cell_seeds(0, size).len() as u64,
        }
    }
}

/// The small CI fabric `run_engine_sweep` uses for `small_fabric`.
fn shrink(cfg: &mut ScenarioConfig) {
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 6,
        servers_per_leaf: 2,
    };
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.faults.mtbi_per_link = SimDuration::from_days(12);
}
