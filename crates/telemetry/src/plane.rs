//! The telemetry plane: one counters + detector pair per link.
//!
//! Scenarios drive it with two calls: [`TelemetryPlane::on_transition`]
//! whenever the fault model changes a link's health, and
//! [`TelemetryPlane::sample`] on the periodic polling tick (switches
//! export counters every few seconds; we poll at a configurable period).
//! `sample` returns the alerts that fired this tick; the control plane
//! turns them into maintenance requests.
//!
//! Most links are *quiet* most of the time: zero loss, a loss EWMA that
//! a zero-loss sample leaves unchanged (`+0.0`, or the subnormal a
//! decayed EWMA sticks at) and below the gray threshold, no retained flap
//! edge, and an armed detector. Polling a quiet link only counts the
//! sample and stamps its time, so `sample` visits just the links that
//! can change — those marked active here plus those [`NetState`] reports
//! lossy — and each skipped link's two fields are brought up to date in
//! closed form before anything reads or changes them.

use std::borrow::Cow;

use dcmaint_dcnet::{LinkId, NetState, Topology};
use dcmaint_des::{SimDuration, SimTime};

use crate::counters::LinkCounters;
use crate::detect::{Alert, Detector};

/// Fleet-wide telemetry state.
#[derive(Debug)]
pub struct TelemetryPlane {
    counters: Vec<LinkCounters>,
    detectors: Vec<Detector>,
    /// Links a poll visits even at zero loss (bit `i % 64` of word
    /// `i / 64`). A link whose bit is clear and whose loss is zero is
    /// quiet.
    active: Vec<u64>,
    /// Per link, the number of polls its `samples` / `last_sample`
    /// account for; it lags `polls` while the link is skipped.
    synced: Vec<u64>,
    /// Polls taken so far.
    polls: u64,
    /// Time of the latest poll.
    last_poll: SimTime,
    /// Polling period (drives EWMA timescale interpretation).
    pub poll_period: SimDuration,
}

impl TelemetryPlane {
    /// New plane for `topo` with default detectors and a 15 s poll.
    pub fn new(topo: &Topology) -> Self {
        Self::with_config(topo, SimDuration::from_secs(15), Detector::default())
    }

    /// New plane with explicit poll period and detector template.
    pub fn with_config(topo: &Topology, poll_period: SimDuration, detector: Detector) -> Self {
        let n = topo.link_count();
        Self::from_parts(
            (0..n)
                .map(|_| LinkCounters::new(SimDuration::from_mins(30)))
                .collect(),
            vec![detector; n],
            poll_period,
        )
    }

    /// A plane over the given per-link state, every link active.
    fn from_parts(
        counters: Vec<LinkCounters>,
        detectors: Vec<Detector>,
        poll_period: SimDuration,
    ) -> Self {
        let n = counters.len();
        let mut plane = TelemetryPlane {
            counters,
            detectors,
            active: vec![0; n.div_ceil(64)],
            synced: vec![0; n],
            polls: 0,
            last_poll: SimTime::ZERO,
            poll_period,
        };
        for i in 0..n {
            plane.mark_active(i);
        }
        plane
    }

    /// Bring a skipped link's sample count and time up to date.
    fn catch_up(&mut self, i: usize) {
        let lag = self.polls - self.synced[i];
        if lag > 0 {
            self.counters[i].record_quiet_samples(lag, self.last_poll);
            self.synced[i] = self.polls;
        }
    }

    /// Link `i`'s counters as a full poll of every link would have left
    /// them.
    fn caught_up(&self, i: usize) -> Cow<'_, LinkCounters> {
        let lag = self.polls - self.synced[i];
        if lag == 0 {
            return Cow::Borrowed(&self.counters[i]);
        }
        let mut c = self.counters[i].clone();
        c.record_quiet_samples(lag, self.last_poll);
        Cow::Owned(c)
    }

    fn mark_active(&mut self, i: usize) {
        self.active[i / 64] |= 1 << (i % 64);
    }

    /// Counters for one link. Handing out `&mut` marks the link active,
    /// so the next poll visits it whatever the caller changed.
    pub fn counters(&mut self, l: LinkId) -> &mut LinkCounters {
        self.catch_up(l.index());
        self.mark_active(l.index());
        &mut self.counters[l.index()]
    }

    /// Immutable counters access (up to date, like [`Self::counters`]).
    pub fn counters_ref(&self, l: LinkId) -> Cow<'_, LinkCounters> {
        self.caught_up(l.index())
    }

    /// Notify of a health transition on a link (flap edge, down, up).
    pub fn on_transition(&mut self, l: LinkId, now: SimTime) {
        self.catch_up(l.index());
        self.counters[l.index()].record_transition(now);
        self.mark_active(l.index());
    }

    /// Notify that an incident was opened (feature bookkeeping).
    pub fn on_incident(&mut self, l: LinkId) {
        self.counters[l.index()].record_incident();
    }

    /// Notify that maintenance completed and verified on a link.
    pub fn on_maintenance(&mut self, l: LinkId, now: SimTime) {
        self.catch_up(l.index());
        self.counters[l.index()].record_maintenance(now);
        self.detectors[l.index()].rearm();
    }

    /// Append the whole plane's state to a checkpoint. Skipped links are
    /// written caught up, so the bytes are those of a plane that polled
    /// every link.
    pub fn save(&self, enc: &mut dcmaint_ckpt::Enc) {
        enc.u64(self.poll_period.as_micros());
        enc.usize(self.counters.len());
        for i in 0..self.counters.len() {
            self.caught_up(i).save(enc);
        }
        for d in &self.detectors {
            d.save(enc);
        }
    }

    /// Inverse of [`TelemetryPlane::save`]. Every link starts active.
    pub fn load(dec: &mut dcmaint_ckpt::Dec) -> Result<Self, dcmaint_ckpt::CkptError> {
        let poll_period = SimDuration::from_micros(dec.u64()?);
        let n = dec.usize()?;
        let mut counters = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            counters.push(LinkCounters::load(dec)?);
        }
        let mut detectors = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            detectors.push(Detector::load(dec)?);
        }
        Ok(Self::from_parts(counters, detectors, poll_period))
    }

    /// Poll every link once: record loss samples from the live state and
    /// evaluate detectors. Returns alerts raised this tick, in link order.
    ///
    /// Only active or lossy links are visited; a quiet link's sample is
    /// accounted for when it is next caught up. A visited link that ends
    /// the poll quiet leaves the active set.
    pub fn sample(&mut self, topo: &Topology, state: &NetState, now: SimTime) -> Vec<Alert> {
        debug_assert_eq!(topo.link_count(), self.counters.len());
        let mut alerts = Vec::new();
        for (w, &lossy_word) in state.lossy_words().iter().enumerate() {
            let mut bits = self.active[w] | lossy_word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.catch_up(i);
                self.synced[i] = self.polls + 1;
                let l = LinkId::from_index(i);
                let loss = state.link(l).loss_rate;
                let (c, d) = (&mut self.counters[i], &mut self.detectors[i]);
                c.record_sample(now, loss);
                if let Some(a) = d.evaluate(l, c, loss, now) {
                    alerts.push(a);
                }
                let bit = 1u64 << (i % 64);
                if loss.to_bits() == 0 && c.is_quiet() && d.is_quiet(c.loss_ewma()) {
                    self.active[w] &= !bit;
                } else {
                    self.active[w] |= bit;
                }
            }
        }
        self.polls += 1;
        self.last_poll = now;
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::AlertKind;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::{DiversityProfile, LinkHealth};
    use dcmaint_des::SimRng;

    fn setup() -> (Topology, NetState, TelemetryPlane) {
        let t = leaf_spine(
            2,
            2,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        let p = TelemetryPlane::new(&t);
        (t, s, p)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn healthy_fabric_is_silent() {
        let (t, s, mut p) = setup();
        for i in 0..20 {
            assert!(p.sample(&t, &s, at(i * 15)).is_empty());
        }
    }

    #[test]
    fn down_link_alerts_once() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        let a = p.sample(&t, &s, at(0));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, AlertKind::LinkDown);
        assert_eq!(a[0].link, LinkId(0));
        // Hysteresis: next tick silent.
        assert!(p.sample(&t, &s, at(15)).is_empty());
    }

    #[test]
    fn gray_loss_detected_after_a_few_samples() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(1), LinkHealth::Degraded, 0.01);
        let mut fired = false;
        for i in 0..10 {
            if !p.sample(&t, &s, at(i * 15)).is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn maintenance_rearms_and_clears() {
        let (t, mut s, mut p) = setup();
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(0)).len(), 1);
        // Repair completes; link healthy; detectors re-armed.
        s.set_health(LinkId(0), LinkHealth::Up, 0.0);
        p.on_maintenance(LinkId(0), at(300));
        // Fails again later — alert fires again immediately.
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(600)).len(), 1);
    }

    #[test]
    fn flap_transitions_surface_as_flap_alert() {
        let (t, mut s, mut p) = setup();
        // Simulate Gilbert-Elliott edges arriving via on_transition; loss
        // stays low in Good phase when sampled.
        s.set_health(LinkId(2), LinkHealth::Flapping, 0.0001);
        for i in 0..5 {
            p.on_transition(LinkId(2), at(i * 60));
        }
        let alerts = p.sample(&t, &s, at(301));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Flapping);
    }

    #[test]
    fn incident_bookkeeping_reaches_counters() {
        let (_t, _s, mut p) = setup();
        p.on_incident(LinkId(3));
        p.on_incident(LinkId(3));
        assert_eq!(p.counters(LinkId(3)).incidents_total(), 2);
    }
}
