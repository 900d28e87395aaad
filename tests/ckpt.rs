//! Checkpoint/restore properties over the public API: the subsystem's
//! core contract — **restore ≡ continuous** — must hold for arbitrary
//! seeds, cut points, and automation levels, not just the examples the
//! unit tests picked. This is the property CI's `ckpt` job gates on.

use proptest::prelude::*;
use selfmaint::ckpt::Snapshot;
use selfmaint::prelude::*;
use selfmaint::scenarios::Engine;

fn small(seed: u64, level: AutomationLevel, obs: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 4,
        servers_per_leaf: 2,
    };
    cfg.duration = SimDuration::from_days(10);
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.faults.mtbi_per_link = SimDuration::from_days(12);
    if obs {
        cfg.obs = ObsConfig::enabled();
    }
    cfg
}

fn small_autonomic(seed: u64, level: AutomationLevel, obs: bool) -> ScenarioConfig {
    let mut cfg = small(seed, level, obs);
    // A fast loop so several MAPE-K ticks (and likely a knob move) land
    // on both sides of any cut point — the adaptation state and the
    // monitor's cursor baselines must survive the snapshot.
    cfg.autonomic = Some(selfmaint::autonomic::AutonomicConfig {
        tick_period: SimDuration::from_hours(2),
        fleet_cap_start: 1,
        ..selfmaint::autonomic::AutonomicConfig::default()
    });
    cfg
}

/// Levels that exercise the three interesting regimes: humans only,
/// autonomous robots, and the full proactive/predictive loop.
const LEVELS: [AutomationLevel; 3] = [
    AutomationLevel::L1,
    AutomationLevel::L3,
    AutomationLevel::L4,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut a run anywhere, snapshot, restore into a fresh engine, and
    /// finish: the restored engine's state hash matches at the cut, the
    /// final state hash matches the uninterrupted run, and so does the
    /// whole report — with the observability plane on, down to every
    /// journal line.
    #[test]
    fn restore_equals_continuous(
        seed in 0u64..10_000,
        cut_days in 1u64..10,
        level_i in 0usize..LEVELS.len(),
        obs_bit in 0u8..2,
    ) {
        let obs = obs_bit == 1;
        let cfg = small(seed, LEVELS[level_i], obs);
        let end = SimTime::ZERO + cfg.duration;

        let mut cont = Engine::new(cfg.clone());
        cont.run_until(end);

        let mut head = Engine::new(cfg.clone());
        head.run_until(SimTime::ZERO + SimDuration::from_days(cut_days));
        let snap = head.snapshot();
        let mut tail = Engine::restore(cfg, &snap).expect("restore");
        prop_assert_eq!(tail.state_hash(), head.state_hash(), "restore is lossless");
        tail.run_until(end);

        prop_assert_eq!(cont.state_hash(), tail.state_hash(), "final states match");
        let mut a = cont.finish_report();
        let mut b = tail.finish_report();
        prop_assert_eq!(a.summary_json(), b.summary_json());
        if obs {
            let ja = &a.obs.as_ref().expect("obs on").journal;
            let jb = &b.obs.as_ref().expect("obs on").journal;
            prop_assert_eq!(ja, jb, "journals must be byte-identical");
        }
    }

    /// The same contract with the MAPE-K loop running: posteriors, EWMA
    /// drift state, tuned knobs, guardrail bookkeeping, the monitor's
    /// cursor baselines, and the loop's RNG position all ride the
    /// snapshot, so a restored run keeps adapting exactly as the
    /// uninterrupted one — down to the adaptation counters in the
    /// summary JSON (and every journal line when obs is on).
    #[test]
    fn restore_equals_continuous_with_autonomic(
        seed in 0u64..10_000,
        cut_days in 1u64..10,
        level_i in 0usize..LEVELS.len(),
        obs_bit in 0u8..2,
    ) {
        let obs = obs_bit == 1;
        let cfg = small_autonomic(seed, LEVELS[level_i], obs);
        let end = SimTime::ZERO + cfg.duration;

        let mut cont = Engine::new(cfg.clone());
        cont.run_until(end);

        let mut head = Engine::new(cfg.clone());
        head.run_until(SimTime::ZERO + SimDuration::from_days(cut_days));
        let snap = head.snapshot();
        let mut tail = Engine::restore(cfg, &snap).expect("restore");
        prop_assert_eq!(tail.state_hash(), head.state_hash(), "restore is lossless");
        tail.run_until(end);

        prop_assert_eq!(cont.state_hash(), tail.state_hash(), "final states match");
        let mut a = cont.finish_report();
        let mut b = tail.finish_report();
        prop_assert_eq!(
            a.autonomic.clone().expect("loop on"),
            b.autonomic.clone().expect("loop on"),
            "adaptation state diverged across the restore"
        );
        prop_assert_eq!(a.summary_json(), b.summary_json());
        if obs {
            let ja = &a.obs.as_ref().expect("obs on").journal;
            let jb = &b.obs.as_ref().expect("obs on").journal;
            prop_assert_eq!(ja, jb, "journals must be byte-identical");
        }
    }

    /// Any single-byte corruption of a snapshot file is detected: the
    /// trailing integrity hash (or the decode it guards) rejects it.
    #[test]
    fn corrupted_snapshots_are_rejected(
        seed in 0u64..10_000,
        flip in 0usize..1_000_000,
    ) {
        let mut eng = Engine::new(small(seed, AutomationLevel::L3, false));
        eng.run_until(SimTime::ZERO + SimDuration::from_days(2));
        let mut bytes = eng.snapshot().to_bytes();
        let i = flip % bytes.len();
        bytes[i] ^= 0x5a;
        prop_assert!(
            Snapshot::from_bytes(&bytes).is_err(),
            "flipping byte {} went undetected",
            i
        );
    }
}

/// Checkpoints of restored engines are as good as first-generation
/// ones: chain restore → advance → snapshot across every 2-day
/// boundary, finish from the last link, and the report still matches
/// the uninterrupted run — journal included.
#[test]
fn chained_restores_equal_continuous() {
    let cfg = small(11, AutomationLevel::L3, true);
    let end = SimTime::ZERO + cfg.duration;
    let mut reference = Engine::new(cfg.clone()).execute();

    let mut snap = Engine::new(cfg.clone()).snapshot();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SimDuration::from_days(2)).min(end);
        let mut eng = Engine::restore(cfg.clone(), &snap).expect("restore mid-chain");
        eng.run_until(t);
        snap = eng.snapshot();
    }
    let mut eng = Engine::restore(cfg, &snap).expect("restore final link");
    while eng.step_event().is_some() {}
    let mut resumed = eng.finish_report();

    assert_eq!(reference.summary_json(), resumed.summary_json());
    assert_eq!(
        reference.obs.as_ref().expect("obs on").journal,
        resumed.obs.as_ref().expect("obs on").journal
    );
}

/// Checkpoint bytes are pinned: the E1 cell (L3, seed 42) snapshotted at
/// simulated days 3 and 15 must hash to the digests recorded before the
/// telemetry poll started skipping quiet links. Host-time optimizations
/// may not leak into the format — lazily accounted samples included.
#[test]
fn e1_checkpoint_bytes_are_golden() {
    const GOLDEN: [(u64, usize, u64); 2] = [
        (3, 237_270, 0xf04b_560e_e0f2_a529),
        (15, 269_519, 0x6c73_f3ef_cebd_7775),
    ];
    let mut eng = Engine::new(ScenarioConfig::at_level(42, AutomationLevel::L3));
    for (day, len, digest) in GOLDEN {
        eng.run_until(SimTime::ZERO + SimDuration::from_days(day));
        let bytes = eng.snapshot().to_bytes();
        assert_eq!(bytes.len(), len, "snapshot length at day {day}");
        assert_eq!(
            selfmaint::ckpt::fnv1a64(&bytes),
            digest,
            "snapshot digest at day {day}"
        );
    }
}
