//! Per-link telemetry counters.
//!
//! "Today's services are already good at detecting hardware failures"
//! (§2) — because switches export counters. [`LinkCounters`] is the
//! per-link slice of that export: periodic loss-rate samples (derived
//! from CRC/FEC counters in real fleets), link up/down transition
//! timestamps, and EWMA smoothing. Detectors read these; the predictive
//! scorer reads the longer-horizon aggregates.

use std::collections::VecDeque;

use dcmaint_des::{SimDuration, SimTime};

/// `c * x`, bit for bit as the hardware multiply rounds it, but without
/// handing the FPU a subnormal when `c` is in [0.5, 1): a zero-loss decay
/// drives the EWMA down to the least subnormal and holds it there, and a
/// multiply with a subnormal operand or result takes a microcode assist
/// (tens of nanoseconds) on common x86 cores. Below 2^-1021 — exponent
/// field 0 or 1, where `|x| = m · 2^-1074` with `m` its low 63 bits and
/// `c * x` may be subnormal — the product is formed in integers and
/// rounded to nearest, ties to even, in units of 2^-1074. The rounded
/// count is then the result's bit pattern; a round-up to 2^53 is exactly
/// 2^-1021.
fn mul_exact(c: f64, x: f64) -> f64 {
    const SIGN: u64 = 1 << 63;
    const FRAC: u64 = (1 << 52) - 1;
    let xb = x.to_bits();
    if xb & !SIGN >= 2 << 52 || !(0.5..1.0).contains(&c) {
        return c * x;
    }
    // c = mc · 2^-53, so c · x = m · mc · 2^-1127: shift out 53 bits.
    let mc = (c.to_bits() & FRAC) | (1 << 52);
    let p = u128::from(xb & !SIGN) * u128::from(mc);
    let (q, rem) = ((p >> 53) as u64, p as u64 & ((1 << 53) - 1));
    let half = 1 << 52;
    let q = q + u64::from(rem > half || (rem == half && q & 1 == 1));
    f64::from_bits((xb & SIGN) | q)
}

/// Rolling telemetry for one link.
#[derive(Debug, Clone)]
pub struct LinkCounters {
    /// EWMA of sampled loss rate.
    loss_ewma: f64,
    /// EWMA smoothing factor per sample.
    alpha: f64,
    /// Recent up/down-ish transitions (flap edges), timestamped.
    transitions: VecDeque<SimTime>,
    /// How long transition history is retained.
    transition_window: SimDuration,
    /// Cumulative transition count (never trimmed).
    transitions_total: u64,
    /// Seconds observed with loss above the errored threshold.
    errored_samples: u64,
    /// Total samples observed.
    samples: u64,
    /// Last sample time.
    last_sample: SimTime,
    /// Lifetime incident count (maintained by the pipeline, used as a
    /// predictive feature).
    incidents_total: u64,
    /// Time of last completed maintenance on this link.
    last_maintenance: Option<SimTime>,
}

impl LinkCounters {
    /// Loss rate above which a sample counts as an errored interval.
    pub const ERRORED_THRESHOLD: f64 = 1e-4;

    /// Fresh counters with the given flap-history window.
    pub fn new(transition_window: SimDuration) -> Self {
        LinkCounters {
            loss_ewma: 0.0,
            alpha: 0.3,
            transitions: VecDeque::new(),
            transition_window,
            transitions_total: 0,
            errored_samples: 0,
            samples: 0,
            last_sample: SimTime::ZERO,
            incidents_total: 0,
            last_maintenance: None,
        }
    }

    /// Record one periodic loss-rate sample.
    pub fn record_sample(&mut self, t: SimTime, loss: f64) {
        let loss = loss.clamp(0.0, 1.0);
        self.loss_ewma = self.alpha * loss + self.decayed();
        self.samples += 1;
        if loss > Self::ERRORED_THRESHOLD {
            self.errored_samples += 1;
        }
        self.last_sample = t;
    }

    /// Whether more samples at `loss` leave the loss EWMA where it is or
    /// below it: either `loss` is `+0.0` (the EWMA can then only decay)
    /// or the EWMA is a fixed point of the update at `loss`, bit for bit.
    pub(crate) fn is_steady_at(&self, loss: f64) -> bool {
        let next = self.alpha * loss.clamp(0.0, 1.0) + self.decayed();
        loss.to_bits() == 0 || next.to_bits() == self.loss_ewma.to_bits()
    }

    /// Flap edges retained now, read as they are, without trimming.
    pub(crate) fn retained_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Account for `n` samples at `loss`, the last taken at `t`: exactly
    /// what `n` calls of [`LinkCounters::record_sample`] would do. The
    /// EWMA update is replayed one sample at a time until it reaches its
    /// fixed point, which the remaining samples would leave unchanged,
    /// or until all `n` are replayed.
    pub(crate) fn record_steady_samples(&mut self, n: u64, loss: f64, t: SimTime) {
        let loss = loss.clamp(0.0, 1.0);
        self.samples += n;
        if loss > Self::ERRORED_THRESHOLD {
            self.errored_samples += n;
        }
        for _ in 0..n {
            let next = self.alpha * loss + self.decayed();
            if next.to_bits() == self.loss_ewma.to_bits() {
                break;
            }
            self.loss_ewma = next;
        }
        self.last_sample = t;
    }

    /// The EWMA's carried-over share, `(1 - alpha) * loss_ewma`.
    fn decayed(&self) -> f64 {
        mul_exact(1.0 - self.alpha, self.loss_ewma)
    }

    /// Record a link state transition (up↔down edge or flap phase edge).
    pub fn record_transition(&mut self, t: SimTime) {
        self.transitions.push_back(t);
        self.transitions_total += 1;
        self.trim(t);
    }

    /// Record that an incident was opened against this link.
    pub fn record_incident(&mut self) {
        self.incidents_total += 1;
    }

    /// Record completed maintenance. Short-horizon signals reset — the
    /// hardware state they described was just serviced — so
    /// [`LinkCounters::errored_fraction`] reads "errored fraction since
    /// last maintenance", the discriminative input of the predictive
    /// scorer.
    pub fn record_maintenance(&mut self, t: SimTime) {
        self.last_maintenance = Some(t);
        self.loss_ewma = 0.0;
        self.transitions.clear();
        self.errored_samples = 0;
        self.samples = 0;
    }

    fn trim(&mut self, now: SimTime) {
        while let Some(&front) = self.transitions.front() {
            if now.since(front) > self.transition_window {
                self.transitions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Smoothed loss rate.
    pub fn loss_ewma(&self) -> f64 {
        self.loss_ewma
    }

    /// Transitions within the retention window ending at `now`.
    pub fn recent_transitions(&mut self, now: SimTime) -> usize {
        self.trim(now);
        self.transitions.len()
    }

    /// Lifetime transition count.
    pub fn transitions_total(&self) -> u64 {
        self.transitions_total
    }

    /// Lifetime incident count.
    pub fn incidents_total(&self) -> u64 {
        self.incidents_total
    }

    /// Fraction of samples that were errored.
    pub fn errored_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.errored_samples as f64 / self.samples as f64
        }
    }

    /// Append this link's counter state to a checkpoint.
    pub fn save(&self, enc: &mut dcmaint_ckpt::Enc) {
        enc.f64(self.loss_ewma);
        enc.f64(self.alpha);
        enc.usize(self.transitions.len());
        for &t in &self.transitions {
            enc.u64(t.as_micros());
        }
        enc.u64(self.transition_window.as_micros());
        enc.u64(self.transitions_total);
        enc.u64(self.errored_samples);
        enc.u64(self.samples);
        enc.u64(self.last_sample.as_micros());
        enc.u64(self.incidents_total);
        match self.last_maintenance {
            Some(t) => {
                enc.bool(true);
                enc.u64(t.as_micros());
            }
            None => enc.bool(false),
        }
    }

    /// Inverse of [`LinkCounters::save`].
    pub fn load(dec: &mut dcmaint_ckpt::Dec) -> Result<Self, dcmaint_ckpt::CkptError> {
        let loss_ewma = dec.f64()?;
        let alpha = dec.f64()?;
        let n = dec.usize()?;
        let mut transitions = VecDeque::with_capacity(n.min(4096));
        for _ in 0..n {
            transitions.push_back(SimTime::from_micros(dec.u64()?));
        }
        let transition_window = SimDuration::from_micros(dec.u64()?);
        let transitions_total = dec.u64()?;
        let errored_samples = dec.u64()?;
        let samples = dec.u64()?;
        let last_sample = SimTime::from_micros(dec.u64()?);
        let incidents_total = dec.u64()?;
        let last_maintenance = if dec.bool()? {
            Some(SimTime::from_micros(dec.u64()?))
        } else {
            None
        };
        Ok(LinkCounters {
            loss_ewma,
            alpha,
            transitions,
            transition_window,
            transitions_total,
            errored_samples,
            samples,
            last_sample,
            incidents_total,
            last_maintenance,
        })
    }

    /// Time since last maintenance, or since time zero if never.
    pub fn since_maintenance(&self, now: SimTime) -> SimDuration {
        match self.last_maintenance {
            Some(t) => now.since(t),
            None => now.since(SimTime::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn ewma_converges_to_input() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        for i in 0..50 {
            c.record_sample(t(i), 0.02);
        }
        assert!((c.loss_ewma() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn ewma_decays_after_recovery() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        for i in 0..10 {
            c.record_sample(t(i), 0.05);
        }
        let peak = c.loss_ewma();
        for i in 10..40 {
            c.record_sample(t(i), 0.0);
        }
        assert!(c.loss_ewma() < peak / 10.0);
    }

    #[test]
    fn transition_window_trims() {
        let mut c = LinkCounters::new(SimDuration::from_secs(100));
        c.record_transition(t(0));
        c.record_transition(t(50));
        c.record_transition(t(120));
        assert_eq!(c.recent_transitions(t(120)), 2); // t=0 expired
        assert_eq!(c.transitions_total(), 3);
        assert_eq!(c.recent_transitions(t(500)), 0);
        assert_eq!(c.transitions_total(), 3);
    }

    #[test]
    fn errored_fraction_counts_threshold() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 0.0);
        c.record_sample(t(1), 1e-5); // below threshold
        c.record_sample(t(2), 0.01);
        c.record_sample(t(3), 0.02);
        assert!((c.errored_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn maintenance_resets_short_horizon() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 0.1);
        c.record_transition(t(1));
        c.record_incident();
        c.record_maintenance(t(10));
        assert_eq!(c.loss_ewma(), 0.0);
        assert_eq!(c.recent_transitions(t(10)), 0);
        assert_eq!(c.errored_fraction(), 0.0, "errored counters reset too");
        // Lifetime aggregates survive.
        assert_eq!(c.incidents_total(), 1);
        assert_eq!(c.transitions_total(), 1);
        assert_eq!(c.since_maintenance(t(70)), SimDuration::from_secs(60));
    }

    #[test]
    fn since_maintenance_defaults_to_age() {
        let c = LinkCounters::new(SimDuration::from_hours(1));
        assert_eq!(c.since_maintenance(t(500)), SimDuration::from_secs(500));
    }

    /// A factor in [0.5, 1) with a random mantissa.
    fn random_factor(draw: &mut dcmaint_des::Stream) -> f64 {
        f64::from_bits((1022 << 52) | (draw.next_u64() >> 12))
    }

    #[test]
    fn mul_exact_matches_hardware_below_2_pow_minus_1021() {
        let mut draw = dcmaint_des::SimRng::root(11).stream("mul-exact", 0);
        // The EWMA's own factor, a tie on every odd mantissa (0.5), ties
        // on a quarter of them (0.75), the largest factor, random ones.
        let mut factors = vec![1.0 - 0.3, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0];
        factors.extend((0..12).map(|_| random_factor(&mut draw)));
        for &c in &factors {
            // Every exponent below 2^-1021: the leading bit of m at
            // position k (k = 52 is exponent field 1), with random bits
            // below it, both signs; plus both zeros and the extremes.
            let mut xs = vec![0.0, -0.0, f64::from_bits(1), f64::from_bits((1 << 53) - 1)];
            for k in 0..53 {
                for _ in 0..400 {
                    let low = if k == 0 {
                        0
                    } else {
                        draw.next_u64() >> (64 - k)
                    };
                    let m = (1u64 << k) | low;
                    xs.push(f64::from_bits(m));
                    xs.push(-f64::from_bits(m));
                }
            }
            for x in xs {
                assert!(x.abs() < f64::MIN_POSITIVE * 2.0);
                assert_eq!(
                    mul_exact(c, x).to_bits(),
                    (c * x).to_bits(),
                    "c = {c:e}, x = {x:e}"
                );
            }
        }
    }

    #[test]
    fn mul_exact_decay_paths_match_hardware() {
        let mut draw = dcmaint_des::SimRng::root(12).stream("decay-path", 0);
        for path in 0..200 {
            // The EWMA's factor, or a random one fast enough to reach its
            // fixed point (a few ulps of 2^-1074) within the step cap.
            let c = if path % 2 == 0 {
                1.0 - 0.3
            } else {
                draw.uniform_range(0.5, 0.9)
            };
            // Random starts from a full loss down to just above 2^-1021.
            let e = 1 + draw.index(1023) as u64;
            let mut x = f64::from_bits((e << 52) | (draw.next_u64() >> 12));
            let mut hw = x;
            let mut settled = false;
            for _ in 0..20_000 {
                let next = 0.3 * 0.0 + mul_exact(c, x);
                let next_hw = 0.3 * 0.0 + c * hw;
                assert_eq!(next.to_bits(), next_hw.to_bits(), "c = {c:e} from {x:e}");
                if next.to_bits() == x.to_bits() {
                    settled = true;
                    break;
                }
                (x, hw) = (next, next_hw);
            }
            assert!(
                settled && x.to_bits() <= 5,
                "path {path} reaches its fixed point"
            );
        }
        // And through the counters: a loss episode, then a clean decay.
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        let mut hw = 0.0f64;
        for i in 0..3_000u64 {
            let loss = if i < 40 { 0.02 } else { 0.0 };
            c.record_sample(t(i * 15), loss);
            hw = 0.3 * loss + (1.0 - 0.3) * hw;
            assert_eq!(c.loss_ewma().to_bits(), hw.to_bits(), "sample {i}");
        }
        assert_eq!(c.loss_ewma().to_bits(), 1, "decays to the least subnormal");
    }

    #[test]
    fn steady_samples_equal_single_samples_at_any_loss() {
        // From below and above each loss's fixed point, from zero, and
        // from the subnormal a decayed EWMA sticks at; lags shorter and
        // longer than the replay needs to settle.
        let starts = [0.0, f64::from_bits(1), 1e-6, 0.0004, 0.02, 1.0];
        let losses = [0.0, -0.0, 5e-5, 4e-4, 0.0008, 0.01, 1.0, 1.5];
        for &start in &starts {
            for &loss in &losses {
                for n in [1, 2, 7, 40, 300, 3_000] {
                    let mut lead = LinkCounters::new(SimDuration::from_hours(1));
                    lead.loss_ewma = start;
                    let mut bulk = lead.clone();
                    for i in 1..=n {
                        lead.record_sample(t(i * 15), loss);
                    }
                    bulk.record_steady_samples(n, loss, t(n * 15));
                    assert_eq!(
                        bulk.loss_ewma().to_bits(),
                        lead.loss_ewma().to_bits(),
                        "from {start:e} at {loss:e}, n = {n}"
                    );
                    assert_eq!(bulk.samples, lead.samples);
                    assert_eq!(bulk.errored_samples, lead.errored_samples);
                    assert_eq!(bulk.last_sample, lead.last_sample);
                }
            }
        }
    }

    #[test]
    fn sample_clamps_loss() {
        let mut c = LinkCounters::new(SimDuration::from_hours(1));
        c.record_sample(t(0), 42.0);
        assert!(c.loss_ewma() <= 1.0);
    }
}
