//! Dynamic per-link runtime state.
//!
//! [`Topology`] records what was cabled;
//! [`NetState`] records how it is behaving *now*: link health (the failure
//! model writes this), administrative state (the maintenance control plane
//! writes this), and the current packet-loss rate that the telemetry and
//! flow models read.
//!
//! Health and admin state are deliberately independent axes: a link can be
//! `Flapping` while `InService` (the bad case the paper opens with) or
//! perfectly `Up` while `Maintenance` (a proactive campaign touching a
//! healthy link — §4's predictive-maintenance scenario).

use crate::ids::LinkId;
use crate::topology::Topology;

/// Physical-layer health of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkHealth {
    /// Nominal: negligible loss.
    Up,
    /// Gray failure: elevated steady loss (dirty end-face, weak laser).
    Degraded,
    /// Oscillating between good and bad periods (§1's "flapping link").
    Flapping,
    /// Hard down (fail-stop).
    Down,
}

impl LinkHealth {
    /// Whether the link can carry any traffic at all.
    pub fn carries_traffic(self) -> bool {
        !matches!(self, LinkHealth::Down)
    }

    /// Stable lowercase label for journals and reports.
    pub fn label(self) -> &'static str {
        match self {
            LinkHealth::Up => "up",
            LinkHealth::Degraded => "degraded",
            LinkHealth::Flapping => "flapping",
            LinkHealth::Down => "down",
        }
    }
}

/// Administrative state, owned by the maintenance control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdminState {
    /// Normal forwarding.
    InService,
    /// Being emptied of traffic ahead of maintenance (pre-contact
    /// announcement received; routing steers new flows away).
    Draining,
    /// Empty and safe to touch.
    Drained,
    /// Physically under maintenance (robot or human hands on it).
    Maintenance,
}

/// Runtime state of one link.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Physical health.
    pub health: LinkHealth,
    /// Administrative state.
    pub admin: AdminState,
    /// Current packet-loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            health: LinkHealth::Up,
            admin: AdminState::InService,
            loss_rate: 0.0,
        }
    }
}

impl LinkState {
    /// Whether routing may place traffic on this link: physically able to
    /// carry it and administratively in service or still draining (drained
    /// and in-maintenance links are excluded even if healthy).
    pub fn routable(&self) -> bool {
        self.health.carries_traffic()
            && matches!(self.admin, AdminState::InService | AdminState::Draining)
    }

    /// Whether the link counts as *available* for availability accounting:
    /// up or merely degraded. Flapping links count as unavailable half the
    /// time via their duty cycle, handled by the fault model marking
    /// health transitions; here flapping counts available (it carries
    /// *some* traffic) — tail latency is where flaps hurt.
    pub fn is_available(&self) -> bool {
        self.health.carries_traffic()
    }
}

/// Runtime state for every link in a topology.
#[derive(Debug, Clone)]
pub struct NetState {
    links: Vec<LinkState>,
}

impl NetState {
    /// All-healthy state for `topo`.
    pub fn new(topo: &Topology) -> Self {
        NetState {
            links: vec![LinkState::default(); topo.link_count()],
        }
    }

    /// State of one link.
    pub fn link(&self, l: LinkId) -> &LinkState {
        &self.links[l.index()]
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when tracking no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Set link health and its implied loss rate (clamped to `[0, 1]`).
    /// Returns whether the stored loss rate changed, bit for bit (so
    /// `-0.0` against `+0.0` is a change): the telemetry plane must hear
    /// of every such change before its next poll.
    pub fn set_health(&mut self, l: LinkId, health: LinkHealth, loss_rate: f64) -> bool {
        let s = &mut self.links[l.index()];
        let before = s.loss_rate.to_bits();
        s.health = health;
        s.loss_rate = loss_rate.clamp(0.0, 1.0);
        s.loss_rate.to_bits() != before
    }

    /// Set admin state.
    pub fn set_admin(&mut self, l: LinkId, admin: AdminState) {
        self.links[l.index()].admin = admin;
    }

    /// Count links in each health state: `(up, degraded, flapping, down)`.
    pub fn health_census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in &self.links {
            match s.health {
                LinkHealth::Up => c.0 += 1,
                LinkHealth::Degraded => c.1 += 1,
                LinkHealth::Flapping => c.2 += 1,
                LinkHealth::Down => c.3 += 1,
            }
        }
        c
    }

    /// Ids of links currently not routable.
    pub fn unroutable(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.routable())
            .map(|(i, _)| LinkId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::DiversityProfile;
    use crate::gen::leaf_spine;
    use dcmaint_des::SimRng;

    fn topo() -> Topology {
        leaf_spine(
            2,
            2,
            1,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        )
    }

    #[test]
    fn starts_all_up() {
        let t = topo();
        let s = NetState::new(&t);
        let (up, deg, flap, down) = s.health_census();
        assert_eq!(up, t.link_count());
        assert_eq!(deg + flap + down, 0);
        assert!(s.unroutable().is_empty());
    }

    #[test]
    fn down_is_not_routable() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(0), LinkHealth::Down, 1.0);
        assert!(!s.link(LinkId(0)).routable());
        assert_eq!(s.unroutable(), vec![LinkId(0)]);
    }

    #[test]
    fn flapping_routes_but_lossy() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(1), LinkHealth::Flapping, 0.02);
        assert!(s.link(LinkId(1)).routable());
        assert!(s.link(LinkId(1)).is_available());
        assert!((s.link(LinkId(1)).loss_rate - 0.02).abs() < 1e-12);
    }

    #[test]
    fn drained_healthy_link_not_routable() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_admin(LinkId(2), AdminState::Drained);
        assert!(!s.link(LinkId(2)).routable());
        // …but it is still *available* hardware-wise.
        assert!(s.link(LinkId(2)).is_available());
    }

    #[test]
    fn draining_still_routable() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_admin(LinkId(2), AdminState::Draining);
        assert!(s.link(LinkId(2)).routable());
    }

    #[test]
    fn set_health_reports_loss_changes() {
        let t = topo();
        let mut s = NetState::new(&t);
        assert!(!s.set_health(LinkId(3), LinkHealth::Up, 0.0), "already 0");
        assert!(s.set_health(LinkId(3), LinkHealth::Degraded, 0.01));
        assert!(
            !s.set_health(LinkId(3), LinkHealth::Flapping, 0.01),
            "same loss under a new health"
        );
        assert!(s.set_health(LinkId(3), LinkHealth::Down, 1.5));
        assert!(
            !s.set_health(LinkId(3), LinkHealth::Down, 1.0),
            "1.5 clamped to 1.0"
        );
        assert!(s.set_health(LinkId(3), LinkHealth::Up, 0.0));
        // Negative zero differs from +0.0 in its bits, so it is a change.
        assert!(s.set_health(LinkId(3), LinkHealth::Up, -0.0));
        assert!(s.set_health(LinkId(3), LinkHealth::Up, 0.0));
    }

    #[test]
    fn loss_rate_clamped() {
        let t = topo();
        let mut s = NetState::new(&t);
        s.set_health(LinkId(0), LinkHealth::Degraded, 7.0);
        assert_eq!(s.link(LinkId(0)).loss_rate, 1.0);
        s.set_health(LinkId(0), LinkHealth::Up, -2.0);
        assert_eq!(s.link(LinkId(0)).loss_rate, 0.0);
    }
}
