//! The telemetry plane: one counters + detector pair per link.
//!
//! Scenarios drive it with three calls: [`TelemetryPlane::on_transition`]
//! whenever the fault model changes a link's health,
//! [`TelemetryPlane::on_loss_change`] whenever a write to `NetState`
//! changes a link's loss rate, and [`TelemetryPlane::sample`] on the
//! periodic polling tick (switches export counters every few seconds;
//! we poll at a configurable period). `sample` returns the alerts that
//! fired this tick; the control plane turns them into maintenance
//! requests.
//!
//! Most links are *parked* most of the time, at some loss `L`, because
//! polling them at `L` cannot alert and changes nothing a later catch-up
//! cannot replay. A link parks in one of two ways:
//!
//! * *disarmed*: its detector fired and is holding off. Until
//!   [`Detector::rearms_at`], a poll only records the sample. The link
//!   sleeps until then in a min-heap of wake times.
//! * *armed and steady*: fewer retained flap edges than the flap
//!   threshold (with no new edge the count can only fall), a loss EWMA
//!   below the gray threshold, `L` short of hard down, and either
//!   `L = +0.0` (the EWMA can then only decay) or an EWMA that a sample
//!   at `L` leaves bit-identical (a constant sub-gray loss such as a
//!   flapping link's precursor loss).
//!
//! So `sample` visits in full only the links marked active here: those
//! that did not park, those whose loss changed since they parked, and
//! those whose wake time has come. A parked link's counters are brought
//! up to date before anything reads or changes them: the skipped samples
//! are replayed until the EWMA reaches its fixed point, and an armed
//! link's flap edges are trimmed at the latest poll, as each skipped
//! poll's detector would have trimmed them.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// link whose bit is clear is parked at `parked_loss[i]`.
    active: Vec<u64>,
    /// Per link outside `active`, the loss it is parked at: every poll
    /// it lags sampled exactly this value.
    parked_loss: Vec<f64>,
    /// Per link, the time of its entry in `wakes`, if it has a current
    /// one.
    wake_at: Vec<Option<SimTime>>,
    /// Disarmed links' re-arm times, soonest first. An entry whose time
    /// is no longer its link's `wake_at` is stale and dropped.
    wakes: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Per link, the number of polls its counters account for; it lags
    /// `polls` while the link is parked.
    synced: Vec<u64>,
    /// Polls taken so far.
    polls: u64,
    /// Full link visits taken so far.
    visits: u64,
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
            parked_loss: vec![0.0; n],
            wake_at: vec![None; n],
            wakes: BinaryHeap::new(),
            synced: vec![0; n],
            polls: 0,
            visits: 0,
            last_poll: SimTime::ZERO,
            poll_period,
        };
        for i in 0..n {
            plane.mark_active(i);
        }
        plane
    }

    /// Bring a parked link's counters up to date.
    fn catch_up(&mut self, i: usize) {
        let lag = self.polls - self.synced[i];
        if lag > 0 {
            let armed = self.detectors[i].is_armed();
            let c = &mut self.counters[i];
            replay(c, armed, lag, self.parked_loss[i], self.last_poll);
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
        let armed = self.detectors[i].is_armed();
        replay(&mut c, armed, lag, self.parked_loss[i], self.last_poll);
        Cow::Owned(c)
    }

    fn mark_active(&mut self, i: usize) {
        self.active[i / 64] |= 1 << (i % 64);
    }

    fn is_active(&self, i: usize) -> bool {
        self.active[i / 64] & (1 << (i % 64)) != 0
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
    /// [`Self::counters`] it leaves a parked link parked: extraction
    /// only trims retained flap edges, which leaves fewer of them, and
    /// a later trim at the latest poll is a no-op on edges already
    /// trimmed at a later time.
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

    /// Full link visits taken by [`Self::sample`] so far (not saved in
    /// checkpoints): a deterministic measure of the poll's work.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Notify of a health transition on a link (flap edge, down, up).
    pub fn on_transition(&mut self, l: LinkId, now: SimTime) {
        self.catch_up(l.index());
        self.counters[l.index()].record_transition(now);
        self.mark_active(l.index());
    }

    /// Notify that a link's loss rate in `NetState` changed, as
    /// `NetState::set_health` reports it. Every change must be reported
    /// before the next poll: a parked link is visited only if it is.
    pub fn on_loss_change(&mut self, l: LinkId) {
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

    /// Append the whole plane's state to a checkpoint. Parked links are
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
    /// Only active links are visited, after waking the parked links
    /// whose detectors re-arm by `now`; a parked link's sample is
    /// accounted for when it is next caught up. A visited link that can
    /// park leaves the active set.
    pub fn sample(&mut self, topo: &Topology, state: &NetState, now: SimTime) -> Vec<Alert> {
        debug_assert_eq!(topo.link_count(), self.counters.len());
        while let Some(&Reverse((at, i))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            if self.wake_at[i] == Some(at) {
                self.wake_at[i] = None;
                self.mark_active(i);
            }
        }
        debug_assert!(
            (0..self.counters.len()).all(|i| self.is_active(i)
                || state.link(LinkId::from_index(i)).loss_rate.to_bits()
                    == self.parked_loss[i].to_bits()),
            "a parked link's loss changed without on_loss_change"
        );
        let mut alerts = Vec::new();
        for w in 0..self.active.len() {
            let mut bits = self.active[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let l = LinkId::from_index(i);
                let loss = state.link(l).loss_rate;
                self.catch_up(i);
                self.synced[i] = self.polls + 1;
                self.visits += 1;
                let (c, d) = (&mut self.counters[i], &mut self.detectors[i]);
                c.record_sample(now, loss);
                if let Some(a) = d.evaluate(l, c, loss, now) {
                    alerts.push(a);
                }
                let wake = d.rearms_at();
                if wake.is_some() || is_steady(c, d, loss) {
                    self.active[w] &= !(1 << (i % 64));
                    self.parked_loss[i] = loss;
                }
                if let Some(at) = wake {
                    if self.wake_at[i] != wake {
                        self.wake_at[i] = wake;
                        self.wakes.push(Reverse((at, i)));
                    }
                }
            }
        }
        self.polls += 1;
        self.last_poll = now;
        alerts
    }
}

/// Apply to a parked link's counters the `lag` polls it skipped, the
/// latest at `last_poll`: the samples at its parked `loss` and, if its
/// detector is `armed`, the trim of its flap edges that each skipped
/// evaluation made. Trimming is monotone in time, so one trim at the
/// latest poll equals them all. A disarmed detector reads nothing, so
/// its edges stay untrimmed.
fn replay(c: &mut LinkCounters, armed: bool, lag: u64, loss: f64, last_poll: SimTime) {
    c.record_steady_samples(lag, loss, last_poll);
    if armed {
        c.recent_transitions(last_poll);
    }
}

/// Whether polling a link with an armed detector at `loss` again leaves
/// the detector silent and unchanged and its counters changed only as
/// [`replay`] replays them: fewer retained edges than the
/// flap threshold (a count no later trim can raise), the EWMA below the
/// gray threshold and staying there, and `loss` short of hard down.
fn is_steady(c: &LinkCounters, d: &Detector, loss: f64) -> bool {
    c.retained_transitions() < d.flap_threshold
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

    /// `NetState::set_health`, reporting a loss change to the plane.
    fn set(s: &mut NetState, p: &mut TelemetryPlane, l: LinkId, h: LinkHealth, loss: f64) {
        if s.set_health(l, h, loss) {
            p.on_loss_change(l);
        }
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
        set(&mut s, &mut p, LinkId(0), LinkHealth::Down, 1.0);
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
        set(&mut s, &mut p, LinkId(1), LinkHealth::Degraded, 0.01);
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
        set(&mut s, &mut p, LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(0)).len(), 1);
        // Repair completes; link healthy; detectors re-armed.
        set(&mut s, &mut p, LinkId(0), LinkHealth::Up, 0.0);
        p.on_maintenance(LinkId(0), at(300));
        // Fails again later — alert fires again immediately.
        set(&mut s, &mut p, LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(600)).len(), 1);
    }

    #[test]
    fn flap_transitions_surface_as_flap_alert() {
        let (t, mut s, mut p) = setup();
        // Simulate Gilbert-Elliott edges arriving via on_transition; loss
        // stays low in Good phase when sampled.
        set(&mut s, &mut p, LinkId(2), LinkHealth::Flapping, 0.0001);
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
    fn disarmed_link_sleeps_until_it_rearms() {
        let (t, mut s, mut p) = setup();
        set(&mut s, &mut p, LinkId(0), LinkHealth::Down, 1.0);
        assert_eq!(p.sample(&t, &s, at(0)).len(), 1);
        assert!(p.active.iter().all(|&w| w == 0), "every link parks");
        let visits = p.visits();
        for k in 1..60 {
            assert!(p.sample(&t, &s, at(k * 15)).is_empty());
        }
        assert_eq!(p.visits(), visits, "nothing visited during the hold-off");
        // A loss change wakes it early; it parks again on the same wake.
        set(&mut s, &mut p, LinkId(0), LinkHealth::Degraded, 0.5);
        assert!(p.sample(&t, &s, at(60 * 15)).is_empty());
        assert_eq!(p.visits(), visits + 1);
        assert_eq!(p.wakes.len(), 1, "an unchanged wake is not queued twice");
        for k in 61..120 {
            assert!(p.sample(&t, &s, at(k * 15)).is_empty());
        }
        assert_eq!(p.visits(), visits + 1);
        let a = p.sample(&t, &s, at(30 * 60));
        assert_eq!(a.len(), 1, "re-escalates the moment it re-arms");
        assert_eq!(a[0].kind, AlertKind::GrayLoss);
        assert_eq!(p.visits(), visits + 2);
    }

    #[test]
    fn incident_bookkeeping_reaches_counters() {
        let (_t, _s, mut p) = setup();
        p.on_incident(LinkId(3));
        p.on_incident(LinkId(3));
        assert_eq!(p.counters(LinkId(3)).incidents_total(), 2);
    }
}
