//! Differential test of the sparse telemetry poll: `TelemetryPlane`
//! parks links that a poll cannot make alert (disarmed detectors until
//! they re-arm, armed ones steady at their current loss), catches them
//! up later, and must stay indistinguishable from a dense reference that
//! samples and evaluates every link at every poll, built only from the
//! public `LinkCounters::record_sample` and `Detector::evaluate`. Loss
//! changes reach the plane the way the engine reports them: every
//! `NetState::set_health` that changes a loss calls
//! `TelemetryPlane::on_loss_change`. Alerts must be equal at every poll,
//! feature vectors read the way the predictive scan reads them
//! (`TelemetryPlane::features`, which leaves parked links parked) equal
//! to `extract` on the reference's counters, and checkpoint bytes equal
//! after every step.

use dcmaint_ckpt::{Dec, Enc};
use dcmaint_dcnet::gen::leaf_spine;
use dcmaint_dcnet::{DiversityProfile, LinkHealth, LinkId, NetState, Topology};
use dcmaint_des::{SimDuration, SimRng, SimTime, Stream};
use dcmaint_telemetry::{extract, Alert, Detector, LinkCounters, TelemetryPlane};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const POLL: SimDuration = SimDuration::from_secs(15);

/// Every link sampled and evaluated at every poll.
struct Dense {
    counters: Vec<LinkCounters>,
    detectors: Vec<Detector>,
}

impl Dense {
    fn new(n: usize, detector: &Detector) -> Self {
        Dense {
            counters: (0..n)
                .map(|_| LinkCounters::new(SimDuration::from_mins(30)))
                .collect(),
            detectors: vec![detector.clone(); n],
        }
    }

    fn sample(&mut self, state: &NetState, now: SimTime) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (i, (c, d)) in self
            .counters
            .iter_mut()
            .zip(&mut self.detectors)
            .enumerate()
        {
            let l = LinkId::from_index(i);
            let loss = state.link(l).loss_rate;
            c.record_sample(now, loss);
            alerts.extend(d.evaluate(l, c, loss, now));
        }
        alerts
    }

    /// The byte layout of `TelemetryPlane::save`.
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(POLL.as_micros());
        enc.usize(self.counters.len());
        for c in &self.counters {
            c.save(&mut enc);
        }
        for d in &self.detectors {
            d.save(&mut enc);
        }
        enc.into_bytes()
    }
}

fn plane_bytes(plane: &TelemetryPlane) -> Vec<u8> {
    let mut enc = Enc::new();
    plane.save(&mut enc);
    enc.into_bytes()
}

fn alert_key(a: &Alert) -> (LinkId, &'static str, SimTime, u64) {
    (a.link, a.kind.label(), a.at, a.severity.to_bits())
}

/// A fabric of 12 links, or of 96 links so the bitsets span words.
fn fabric(big: bool) -> Topology {
    let rng = SimRng::root(5);
    if big {
        leaf_spine(4, 8, 8, 1, DiversityProfile::standardized(), &rng)
    } else {
        leaf_spine(2, 2, 2, 1, DiversityProfile::standardized(), &rng)
    }
}

fn detector(variant: usize) -> Detector {
    let mut d = Detector::default();
    match variant {
        0 => {}
        1 => d.gray_loss = 0.0,
        2 => d.flap_threshold = 0,
        // Met by the subnormal a decayed loss EWMA sticks at.
        3 => d.gray_loss = f64::from_bits(1),
        4 => d.rearm_after = SimDuration::from_secs(40),
        // Outlasts the flap-edge window, so edges can expire while the
        // detector is still disarmed.
        _ => d.rearm_after = SimDuration::from_hours(2),
    }
    d
}

/// Health and loss for a random `set_health`: mostly zero loss, the rest
/// gray, sub-threshold, errored or hard down. The precursor loss `4e-4`
/// is errored yet below the default gray threshold, so links steady at
/// it catch up errored samples.
fn random_health(draw: &mut Stream) -> (LinkHealth, f64) {
    match draw.index(7) {
        0 => (LinkHealth::Down, 1.0),
        1 => (LinkHealth::Degraded, 0.01),
        2 => (LinkHealth::Flapping, 5e-5),
        3 => (LinkHealth::Degraded, 0.0008),
        4 => (LinkHealth::Flapping, 4e-4),
        _ => (LinkHealth::Up, 0.0),
    }
}

/// The plane under test and the dense reference, fed the same inputs.
struct Pair {
    topo: Topology,
    state: NetState,
    plane: TelemetryPlane,
    dense: Dense,
}

impl Pair {
    fn new(topo: Topology, template: &Detector) -> Self {
        let n = topo.link_count();
        Pair {
            state: NetState::new(&topo),
            plane: TelemetryPlane::with_config(&topo, POLL, template.clone()),
            dense: Dense::new(n, template),
            topo,
        }
    }

    /// A write to `NetState`, its loss change reported as the engine's
    /// `recompute_link` reports it.
    fn set_health(&mut self, l: LinkId, health: LinkHealth, loss: f64) {
        if self.state.set_health(l, health, loss) {
            self.plane.on_loss_change(l);
        }
    }

    /// Flap edges at `at`, recorded on both sides.
    fn transition(&mut self, l: LinkId, at: SimTime) {
        self.plane.on_transition(l, at);
        self.dense.counters[l.index()].record_transition(at);
    }

    /// One poll on both sides; returns the number of alerts.
    fn poll(&mut self, now: SimTime, step: usize) -> Result<usize, TestCaseError> {
        let got: Vec<_> = self
            .plane
            .sample(&self.topo, &self.state, now)
            .iter()
            .map(alert_key)
            .collect();
        let want: Vec<_> = self
            .dense
            .sample(&self.state, now)
            .iter()
            .map(alert_key)
            .collect();
        prop_assert_eq!(&got, &want, "alerts differ at step {}", step);
        Ok(got.len())
    }

    fn read(&mut self, l: LinkId, now: SimTime) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.plane.counters_ref(l).errored_fraction().to_bits(),
            self.dense.counters[l.index()].errored_fraction().to_bits()
        );
        let sparse = self.plane.counters(l);
        let reference = &mut self.dense.counters[l.index()];
        prop_assert_eq!(
            sparse.errored_fraction().to_bits(),
            reference.errored_fraction().to_bits()
        );
        prop_assert_eq!(
            sparse.recent_transitions(now),
            reference.recent_transitions(now)
        );
        prop_assert_eq!(
            sparse.loss_ewma().to_bits(),
            reference.loss_ewma().to_bits()
        );
        prop_assert_eq!(
            sparse.since_maintenance(now),
            reference.since_maintenance(now)
        );
        Ok(())
    }

    /// A predictive scan: every link's feature vector, bit for bit.
    fn scan(&mut self, now: SimTime, step: usize) -> Result<(), TestCaseError> {
        for l in self.topo.link_ids() {
            let got = self.plane.features(&self.topo, l, now).map(f64::to_bits);
            let want =
                extract(&self.topo, l, &mut self.dense.counters[l.index()], now).map(f64::to_bits);
            prop_assert_eq!(got, want, "features of {:?} differ at step {}", l, step);
        }
        Ok(())
    }

    fn same_bytes(&self, step: usize) -> Result<(), TestCaseError> {
        prop_assert!(
            plane_bytes(&self.plane) == self.dense.save(),
            "checkpoint bytes differ after step {}",
            step
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences; with `tail`, every loss but one is then
    /// cleared and the fabric polled long enough for decayed EWMAs to
    /// reach the subnormal they stick at. The one link left at the
    /// precursor loss reaches that loss's fixed point and is skipped
    /// while its samples count as errored, then is serviced halfway.
    #[test]
    fn sparse_plane_matches_dense_reference(
        seed in 0u64..1_000_000,
        big in 0u8..2,
        variant in 0usize..6,
        steps in 50usize..400,
        tail in 0u8..2,
    ) {
        let topo = fabric(big == 1);
        let n = topo.link_count();
        let mut p = Pair::new(topo, &detector(variant));
        let mut draw = SimRng::root(seed).stream("sparse-plane", 0);
        // Faults touch a few links over and over, so episodes overlap:
        // two links mostly see loss, two mostly see flap edges (so some
        // flap with zero loss and, once their edges expire, would be
        // steady but for their still-disarmed detector).
        let hot: Vec<LinkId> = (0..4).map(|_| LinkId::from_index(draw.index(n))).collect();
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            now += SimDuration::from_secs(draw.index(120) as u64);
            let op = draw.index(16);
            let l = if draw.chance(0.7) {
                let flappy = usize::from(matches!(op, 3 | 7 | 9)) * 2;
                hot[flappy + draw.index(2)]
            } else {
                LinkId::from_index(draw.index(n))
            };
            match op {
                0 | 1 => {
                    let (health, loss) = random_health(&mut draw);
                    p.set_health(l, health, loss);
                }
                2 => p.set_health(l, LinkHealth::Up, 0.0),
                3 => {
                    // A burst of flap edges, often enough for a flap alert.
                    for _ in 0..1 + draw.index(6) {
                        now += SimDuration::from_secs(1);
                        p.transition(l, now);
                    }
                }
                4 => {
                    p.plane.on_incident(l);
                    p.dense.counters[l.index()].record_incident();
                }
                5 => {
                    p.plane.on_maintenance(l, now);
                    p.dense.counters[l.index()].record_maintenance(now);
                    p.dense.detectors[l.index()].rearm();
                }
                6 => {
                    // A poll lost to a telemetry dropout: neither side samples.
                }
                7 => p.read(l, now)?,
                9 => {
                    // A write through the `&mut` handed out by `counters()`.
                    p.plane.counters(l).record_transition(now);
                    p.dense.counters[l.index()].record_transition(now);
                }
                8 => {
                    let bytes = plane_bytes(&p.plane);
                    p.plane = TelemetryPlane::load(&mut Dec::new(&bytes)).expect("load");
                }
                10 => p.scan(now, step)?,
                _ => {
                    p.poll(now, step)?;
                }
            }
            p.same_bytes(step)?;
        }
        if tail == 1 {
            for l in p.topo.link_ids().collect::<Vec<_>>() {
                p.set_health(l, LinkHealth::Up, 0.0);
            }
            p.set_health(hot[0], LinkHealth::Flapping, 4e-4);
            for step in steps..steps + 2_200 {
                now += POLL;
                p.poll(now, step)?;
                if step % 100 == 0 {
                    p.read(hot[step % hot.len()], now)?;
                }
                if step % 40 == 0 {
                    p.scan(now, step)?;
                }
                if step == steps + 1_000 {
                    // Servicing the precursor link resets its EWMA off
                    // the fixed point it was skipped at.
                    p.plane.on_maintenance(hot[0], now);
                    p.dense.counters[hot[0].index()].record_maintenance(now);
                    p.dense.detectors[hot[0].index()].rearm();
                }
                p.same_bytes(step)?;
            }
        }
    }
}

/// An armed link parks holding fewer flap edges than the threshold; the
/// edges expire while it is parked, and it then goes hard down. The
/// hard-down evaluation reads no edges, so only the catch-up's trim at
/// the latest poll drops the expired ones before the bytes are compared.
#[test]
fn armed_link_parked_with_edges_goes_down_after_they_expire() {
    let mut p = Pair::new(fabric(false), &Detector::default());
    let l = LinkId::from_index(3);
    let mut now = SimTime::ZERO;
    for _ in 0..3 {
        now += SimDuration::from_secs(1);
        p.transition(l, now);
    }
    // 40 minutes of polls: the edges outlive the 30-minute window by ten.
    for step in 0..160 {
        now += POLL;
        p.poll(now, step).unwrap();
    }
    p.set_health(l, LinkHealth::Down, 1.0);
    now += POLL;
    p.poll(now, 160).unwrap();
    p.same_bytes(160).unwrap();
    let mut caught_up = p.plane.counters_ref(l).into_owned();
    assert_eq!(caught_up.recent_transitions(now), 0);
    p.read(l, now).unwrap();
    p.same_bytes(161).unwrap();
}

/// A link parks disarmed after a hard-down alert; its loss changes twice
/// before its detector re-arms, then it stays gray past the re-arm time
/// and must re-escalate on the very poll a dense plane would.
#[test]
fn parked_disarmed_link_whose_loss_changes_before_it_wakes() {
    let mut p = Pair::new(fabric(true), &Detector::default());
    let l = LinkId::from_index(70);
    let mut now = SimTime::ZERO;
    p.set_health(l, LinkHealth::Down, 1.0);
    let mut alerts = 0;
    for step in 0..200 {
        now += POLL;
        match step {
            20 => p.set_health(l, LinkHealth::Degraded, 0.01),
            60 => p.set_health(l, LinkHealth::Flapping, 4e-4),
            61 => p.set_health(l, LinkHealth::Degraded, 0.02),
            _ => {}
        }
        alerts += p.poll(now, step).unwrap();
        if step % 50 == 0 {
            p.scan(now, step).unwrap();
        }
        p.same_bytes(step).unwrap();
    }
    assert_eq!(alerts, 2, "down at once, gray again when it re-arms");
}
