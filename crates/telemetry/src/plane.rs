//! The telemetry plane: one counters + detector pair per link.
//!
//! Scenarios drive it with two calls: [`TelemetryPlane::on_transition`]
//! whenever the fault model changes a link's health, and
//! [`TelemetryPlane::sample`] on the periodic polling tick (switches
//! export counters every few seconds; we poll at a configurable period).
//! `sample` returns the alerts that fired this tick; the control plane
//! turns them into maintenance requests.
//!
//! Most links are *steady* most of the time, at some loss `L`: no
//! retained flap edge, an armed detector, a loss EWMA below the gray
//! threshold, `L` short of hard down, and either `L = +0.0` (the EWMA
//! can then only decay, staying below the threshold) or an EWMA that a
//! sample at `L` leaves bit-identical (a constant sub-gray loss such as a
//! flapping link's precursor loss). Polling a steady link cannot alert;
//! it only counts the sample (errored when `L` is), stamps its time and,
//! at zero loss, decays the EWMA. So `sample` fully visits just the links
//! marked active here; a skipped link is looked at only while its loss
//! is nonzero now or was nonzero when it was skipped, and then only to
//! compare the loss with `L`. Each skipped link's counters are brought
//! up to date — in closed form, or by replaying the decay until it
//! reaches its fixed point — before anything reads or changes them.

use std::borrow::Cow;

use dcmaint_dcnet::{LinkId, NetState, Topology};
use dcmaint_des::{SimDuration, SimTime};

use crate::counters::LinkCounters;
use crate::detect::{Alert, Detector};
use crate::features::{extract, FEATURE_DIM};

/// Fleet-wide telemetry state.
#[derive(Debug)]
pub struct TelemetryPlane {
    counters: Vec<LinkCounters>,
    detectors: Vec<Detector>,
    /// Links a poll visits in full (bit `i % 64` of word `i / 64`). A
    /// link whose bit is clear is steady at `steady_loss[i]`.
    active: Vec<u64>,
    /// Links last found steady at a nonzero loss, so a poll must check
    /// their loss even once it returns to zero. Read only for links
    /// outside `active`.
    held: Vec<u64>,
    /// Per link outside `active`, the loss it is steady at: every poll
    /// it lags sampled exactly this value.
    steady_loss: Vec<f64>,
    /// Per link, the number of polls its counters account for; it lags
    /// `polls` while the link is skipped.
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
            held: vec![0; n.div_ceil(64)],
            steady_loss: vec![0.0; n],
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

    /// Bring a skipped link's counters up to date.
    fn catch_up(&mut self, i: usize) {
        let lag = self.polls - self.synced[i];
        if lag > 0 {
            self.counters[i].record_steady_samples(lag, self.steady_loss[i], self.last_poll);
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
        c.record_steady_samples(lag, self.steady_loss[i], self.last_poll);
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

    /// The predictive feature vector of one link at `now`
    /// ([`extract`] on its counters, caught up). Unlike
    /// [`Self::counters`] it leaves a skipped link skipped: extraction
    /// only trims retained flap edges, and a steady link retains none.
    pub fn features(&mut self, topo: &Topology, l: LinkId, now: SimTime) -> [f64; FEATURE_DIM] {
        self.catch_up(l.index());
        extract(topo, l, &mut self.counters[l.index()], now)
    }

    /// Immutable counters access (up to date, like [`Self::counters`]).
    pub fn counters_ref(&self, l: LinkId) -> Cow<'_, LinkCounters> {
        self.caught_up(l.index())
    }

    /// Lifetime incident count of one link. Unlike
    /// [`Self::counters_ref`] it needs no catch-up: sampling never
    /// touches it.
    pub fn incidents_total(&self, l: LinkId) -> u64 {
        self.counters[l.index()].incidents_total()
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

    /// Notify that maintenance completed and verified on a link. The
    /// EWMA reset moves it off any fixed point at a nonzero loss, so the
    /// link becomes active.
    pub fn on_maintenance(&mut self, l: LinkId, now: SimTime) {
        self.catch_up(l.index());
        self.counters[l.index()].record_maintenance(now);
        self.detectors[l.index()].rearm();
        self.mark_active(l.index());
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
    /// Only active links, lossy links and links held at a nonzero loss
    /// are looked at, and a steady link whose loss is still the one it is
    /// steady at is skipped; its sample is accounted for when it is next
    /// caught up. A visited link that ends the poll steady leaves the
    /// active set.
    pub fn sample(&mut self, topo: &Topology, state: &NetState, now: SimTime) -> Vec<Alert> {
        debug_assert_eq!(topo.link_count(), self.counters.len());
        let mut alerts = Vec::new();
        for (w, &lossy_word) in state.lossy_words().iter().enumerate() {
            let mut bits = self.active[w] | self.held[w] | lossy_word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bit = 1u64 << (i % 64);
                let l = LinkId::from_index(i);
                let loss = state.link(l).loss_rate;
                if self.active[w] & bit == 0 && loss.to_bits() == self.steady_loss[i].to_bits() {
                    continue;
                }
                self.catch_up(i);
                self.synced[i] = self.polls + 1;
                let (c, d) = (&mut self.counters[i], &mut self.detectors[i]);
                c.record_sample(now, loss);
                if let Some(a) = d.evaluate(l, c, loss, now) {
                    alerts.push(a);
                }
                if is_steady(c, d, loss) {
                    self.active[w] &= !bit;
                    self.steady_loss[i] = loss;
                    if loss.to_bits() == 0 {
                        self.held[w] &= !bit;
                    } else {
                        self.held[w] |= bit;
                    }
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

/// Whether polling a link at `loss` again leaves its detector silent and
/// unchanged and its counters changed only as
/// [`LinkCounters::record_steady_samples`] replays: the detector is armed,
/// zero retained edges cannot meet its flap threshold, the EWMA is below
/// the gray threshold and `loss` short of hard down.
fn is_steady(c: &LinkCounters, d: &Detector, loss: f64) -> bool {
    d.is_armed()
        && d.flap_threshold > 0
        && c.loss_ewma() < d.gray_loss
        && loss < 0.999
        && c.is_steady_at(loss)
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
    fn feature_reads_leave_steady_links_skipped() {
        let (t, s, mut p) = setup();
        p.sample(&t, &s, at(15));
        assert!(p.active.iter().all(|&w| w == 0), "a healthy fabric settles");
        for l in t.link_ids() {
            p.features(&t, l, at(20));
        }
        assert!(p.active.iter().all(|&w| w == 0));
        p.counters(LinkId(1));
        assert_eq!(p.active[0], 1 << 1, "`&mut` access still activates");
    }

    #[test]
    fn incident_bookkeeping_reaches_counters() {
        let (_t, _s, mut p) = setup();
        p.on_incident(LinkId(3));
        p.on_incident(LinkId(3));
        assert_eq!(p.counters(LinkId(3)).incidents_total(), 2);
    }
}
