//! Deterministic work gate for the drain check: one `CutQuery` per link
//! of the healthy E1 fabric must stay local.

use dcmaint_dcnet::gen::leaf_spine;
use dcmaint_dcnet::routing::CutQuery;
use dcmaint_dcnet::{DiversityProfile, NetState, NodeId};
use dcmaint_des::SimRng;

/// Node expansions for one `loses_pair` per link, nothing drained, over
/// the 40 service pairs the scenario engine samples at seed 42.
const E1_EXPANSIONS: u64 = 1_054;

#[test]
fn drain_check_on_e1_stays_local() {
    // The E1 fabric and service pairs exactly as the scenario engine
    // builds them for seed 42.
    let rng = SimRng::root(42);
    let topo = leaf_spine(4, 16, 8, 1, DiversityProfile::cloud_typical(), &rng);
    let state = NetState::new(&topo);
    let servers = topo.servers();
    let mut draw = rng.stream("service-pairs", 0);
    let pairs: Vec<(NodeId, NodeId)> = (0..40)
        .map(|_| {
            (
                servers[draw.index(servers.len())],
                servers[draw.index(servers.len())],
            )
        })
        .filter(|&(a, b)| a != b)
        .collect();
    assert_eq!((topo.node_count(), topo.link_count()), (148, 192));

    let mut cut = CutQuery::new();
    let cuts = topo
        .link_ids()
        .filter(|&l| cut.loses_pair(&topo, &state, &[], l, &pairs))
        .count();
    // Only access links of servers in a sampled pair are cuts.
    let in_pairs = servers
        .iter()
        .filter(|&&s| pairs.iter().any(|&(a, b)| a == s || b == s))
        .count();
    assert_eq!(cuts, in_pairs);
    // One whole-fabric labelling per trial link would expand every node
    // once per link.
    let labelling = (topo.link_count() * topo.node_count()) as u64;
    assert!(cut.expansions < labelling, "{} expansions", cut.expansions);
    assert_eq!(cut.expansions, E1_EXPANSIONS);
}
