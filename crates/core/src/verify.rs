//! Window-of-vulnerability verification — what-if checking before
//! maintenance.
//!
//! §2: right-provisioning is enabled by "greater control over the window
//! of vulnerability during hardware failures". §4 connects
//! self-maintenance to the network-verification tradition (Batfish,
//! CrystalNet): *check the configuration change before you make it*. A
//! drain is a configuration change; this module is the checker the
//! controller runs on the drained what-if state:
//!
//! * **connectivity** — do all sampled service pairs stay connected
//!   (this much the drain planner already enforces)?
//! * **single-fault tolerance** — during the window, would any *one*
//!   additional link failure disconnect a sampled pair? Those links are
//!   the window's exposed set; their count × expected window length is
//!   the quantified vulnerability the paper wants minimized.
//! * **capacity headroom** — worst pairwise ECMP-path-count reduction,
//!   a cheap proxy for throughput degradation during the window.

use dcmaint_dcnet::routing::{ecmp_path_count, Components, CutQuery};
use dcmaint_dcnet::{AdminState, LinkId, NetState, NodeId, Topology};
use dcmaint_des::SimDuration;

/// Verdict of a window-of-vulnerability assessment.
#[derive(Debug, Clone)]
pub struct WindowRisk {
    /// Sampled pairs that lose connectivity under the drain itself
    /// (should be 0 for a plan the drain planner approved).
    pub disconnected_pairs: usize,
    /// Links whose additional (single) failure during the window would
    /// disconnect at least one sampled pair.
    pub exposed_links: Vec<LinkId>,
    /// Worst ratio of ECMP path count (drained / baseline) across the
    /// sampled pairs, in `(0, 1]`.
    pub worst_path_ratio: f64,
    /// Expected exposure: `exposed_links.len()` scaled by the window
    /// length (link-seconds of single-fault vulnerability).
    pub exposure_link_seconds: f64,
}

impl WindowRisk {
    /// A window with no exposed links and full path diversity.
    pub fn is_clean(&self) -> bool {
        self.disconnected_pairs == 0 && self.exposed_links.is_empty()
    }
}

/// Assess the vulnerability window created by draining `drained` for
/// `window` while the fabric is in `state`.
///
/// Cost: one copy of `state` and one component labelling for the drain
/// itself, two path-count BFS runs per sampled pair for the
/// path-diversity ratio, and one [`CutQuery`] per link for the
/// single-fault check, which searches only near that link.
pub fn assess_window(
    topo: &Topology,
    state: &NetState,
    drained: &[LinkId],
    window: SimDuration,
    service_pairs: &[(NodeId, NodeId)],
) -> WindowRisk {
    // Build the what-if state (the path-count DP below runs on it).
    let mut whatif = state.clone();
    for &l in drained {
        whatif.set_admin(l, AdminState::Drained);
    }
    let mut comps = Components::new();
    comps.label(topo, &whatif);
    let disconnected_pairs = service_pairs.len() - comps.connected_pairs(service_pairs);

    // Path-diversity ratio.
    let mut worst_ratio: f64 = 1.0;
    for &(a, b) in service_pairs {
        let before = ecmp_path_count(topo, state, a, b);
        if before == 0 {
            continue;
        }
        let after = ecmp_path_count(topo, &whatif, a, b);
        worst_ratio = worst_ratio.min(after as f64 / before as f64);
    }

    // Single-fault exposure: a link is exposed when failing it on top of
    // the drain disconnects a pair the drain left connected. A link that
    // is not routable in the what-if state carries no traffic and is
    // never exposed.
    let mut cut = CutQuery::new();
    let exposed: Vec<LinkId> = topo
        .link_ids()
        .filter(|&l| cut.loses_pair(topo, &whatif, &[], l, service_pairs))
        .collect();
    WindowRisk {
        disconnected_pairs,
        exposure_link_seconds: exposed.len() as f64 * window.as_secs_f64(),
        exposed_links: exposed,
        worst_path_ratio: worst_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::leaf_spine;
    use dcmaint_dcnet::{DiversityProfile, LinkHealth};
    use dcmaint_des::SimRng;

    fn setup() -> (Topology, NetState, Vec<(NodeId, NodeId)>) {
        let t = leaf_spine(
            2,
            3,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(3),
        );
        let s = NetState::new(&t);
        let servers = t.servers();
        let mut pairs = Vec::new();
        for i in 0..servers.len() {
            for j in (i + 1)..servers.len() {
                pairs.push((servers[i], servers[j]));
            }
        }
        (t, s, pairs)
    }

    fn uplinks_of_leaf(t: &Topology, leaf_name: &str) -> Vec<LinkId> {
        let leaf = t.node_ids().find(|&n| t.node(n).name == leaf_name).unwrap();
        t.links_of(leaf)
            .into_iter()
            .filter(|&l| {
                let (a, b) = t.endpoints(l);
                t.node(a).is_switch() && t.node(b).is_switch()
            })
            .collect()
    }

    #[test]
    fn healthy_fabric_empty_drain_is_clean() {
        let (t, s, pairs) = setup();
        let r = assess_window(&t, &s, &[], SimDuration::from_mins(5), &pairs);
        assert_eq!(r.disconnected_pairs, 0);
        // Server access links are always single-fault exposures (one NIC
        // per server); the *fabric* links are not.
        for &l in &r.exposed_links {
            let (a, b) = t.endpoints(l);
            assert!(
                !t.node(a).is_switch() || !t.node(b).is_switch(),
                "no switch-switch link should be exposed on the healthy fabric"
            );
        }
        assert_eq!(r.worst_path_ratio, 1.0);
    }

    #[test]
    fn draining_one_uplink_exposes_its_partner() {
        let (t, s, pairs) = setup();
        let ups = uplinks_of_leaf(&t, "leaf-0");
        assert_eq!(ups.len(), 2, "two spines");
        let window = SimDuration::from_mins(10);
        let r = assess_window(&t, &s, &ups[..1], window, &pairs);
        assert_eq!(r.disconnected_pairs, 0, "drain itself is safe");
        // The remaining uplink is now a single point of failure.
        assert!(
            r.exposed_links.contains(&ups[1]),
            "partner uplink must be exposed"
        );
        assert!(r.worst_path_ratio <= 0.5 + 1e-9, "path diversity halved");
        assert!(!r.is_clean());
        assert!(
            (r.exposure_link_seconds - r.exposed_links.len() as f64 * window.as_secs_f64()).abs()
                < 1e-9
        );
    }

    #[test]
    fn degraded_fabric_raises_exposure() {
        let (t, mut s, pairs) = setup();
        // Kill spine-0 entirely: every leaf now rides spine-1 alone.
        let spine0 = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        for l in t.links_of(spine0) {
            s.set_health(l, LinkHealth::Down, 1.0);
        }
        let r = assess_window(&t, &s, &[], SimDuration::from_mins(5), &pairs);
        // All surviving uplinks are exposed.
        let surviving: Vec<LinkId> = uplinks_of_leaf(&t, "leaf-0")
            .into_iter()
            .filter(|&l| s.link(l).routable())
            .collect();
        for l in surviving {
            assert!(r.exposed_links.contains(&l));
        }
    }

    #[test]
    fn drain_that_disconnects_is_reported() {
        let (t, s, pairs) = setup();
        // Drain both uplinks of leaf-0: its servers disconnect.
        let ups = uplinks_of_leaf(&t, "leaf-0");
        let r = assess_window(&t, &s, &ups, SimDuration::from_mins(5), &pairs);
        assert!(r.disconnected_pairs > 0);
        assert!(!r.is_clean());
    }

    #[test]
    fn exposure_scales_with_window_length() {
        let (t, s, pairs) = setup();
        let ups = uplinks_of_leaf(&t, "leaf-0");
        let short = assess_window(&t, &s, &ups[..1], SimDuration::from_mins(5), &pairs);
        let long = assess_window(&t, &s, &ups[..1], SimDuration::from_hours(8), &pairs);
        assert_eq!(short.exposed_links, long.exposed_links);
        assert!(long.exposure_link_seconds > 50.0 * short.exposure_link_seconds);
    }
}
