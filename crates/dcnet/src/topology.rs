//! The network graph: nodes, ports, links, and their physical embedding.
//!
//! [`Topology`] is the *static* description of a deployed network — what
//! was cabled where. Dynamic state (link health, drain status) lives in
//! [`NetState`](crate::state::NetState) so that a single topology can be
//! shared by many simulation runs.
//!
//! The struct is built through [`TopologyBuilder`], which handles the
//! bookkeeping every generator needs: rack/U placement, faceplate slot
//! assignment, cable-medium selection by routed length, transceiver
//! instantiation with sampled design families, tray occupancy, and
//! disturbance-neighbor precomputation.

use dcmaint_des::{SimRng, Stream};

use crate::components::{
    Cable, CableMedium, DesignFamily, DiversityProfile, FormFactor, SwitchSpec, Transceiver,
};
use crate::ids::{LinkId, NodeId, PortId, RackId};
use crate::layout::{CableRoute, Face, HallLayout, PortLoc, RackLoc};

/// Network tier of a switch (placement and routing both use this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Top-of-rack / edge / leaf.
    Tor,
    /// Aggregation (fat-tree pods).
    Agg,
    /// Core / spine.
    Core,
}

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// A switch at some tier.
    Switch {
        /// Hardware description.
        spec: SwitchSpec,
        /// Network tier.
        tier: Tier,
    },
    /// A server (NIC endpoint).
    Server,
}

/// A node: switch or server, placed in a rack.
#[derive(Debug, Clone)]
pub struct Node {
    /// Switch or server.
    pub kind: NodeKind,
    /// Rack holding the node.
    pub rack: RackId,
    /// Bottom rack-unit of the node.
    pub u: u8,
    /// Human-readable name (`tor-r3`, `spine-2`, `srv-r3-5`, …).
    pub name: String,
}

impl Node {
    /// True if the node is a switch.
    pub fn is_switch(&self) -> bool {
        matches!(self.kind, NodeKind::Switch { .. })
    }

    /// The switch tier, if a switch.
    pub fn tier(&self) -> Option<Tier> {
        match self.kind {
            NodeKind::Switch { tier, .. } => Some(tier),
            NodeKind::Server => None,
        }
    }
}

/// A physical port: location plus (optionally) the pluggable transceiver
/// seated in it. Integrated cables (DAC/AEC/AOC) still present a pluggable
/// module end at the port — it just cannot be separated from its cable.
#[derive(Debug, Clone)]
pub struct Port {
    /// Owning node.
    pub node: NodeId,
    /// Physical location.
    pub loc: PortLoc,
    /// Seated transceiver (None only for never-cabled ports).
    pub xcvr: Option<Transceiver>,
}

/// A bidirectional link: two ports joined by a cable.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint port.
    pub a: PortId,
    /// Other endpoint port.
    pub b: PortId,
    /// The cable.
    pub cable: Cable,
    /// Physical tray route.
    pub route: CableRoute,
    /// Nominal capacity in Gbps.
    pub gbps: u32,
}

/// The static network description. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Hall geometry.
    pub layout: HallLayout,
    /// Component diversity profile of the fleet.
    pub diversity: DiversityProfile,
    nodes: Vec<Node>,
    ports: Vec<Port>,
    links: Vec<Link>,
    node_ports: Vec<Vec<PortId>>,
    port_link: Vec<Option<LinkId>>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    tray_occupancy: Vec<Vec<LinkId>>,
    disturb_neighbors: Vec<Vec<LinkId>>,
    name: String,
}

impl Topology {
    /// Topology name (e.g. `fat-tree-k8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// A port by id.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// A link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len()).map(LinkId::from_index)
    }

    /// Iterator over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Node ids of all servers.
    pub fn servers(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| !self.nodes[n.index()].is_switch())
            .collect()
    }

    /// Node ids of all switches.
    pub fn switches(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.nodes[n.index()].is_switch())
            .collect()
    }

    /// Ports belonging to a node.
    pub fn node_ports(&self, n: NodeId) -> &[PortId] {
        &self.node_ports[n.index()]
    }

    /// The link seated in a port, if cabled.
    pub fn port_link(&self, p: PortId) -> Option<LinkId> {
        self.port_link[p.index()]
    }

    /// Node endpoints of a link.
    pub fn endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        let link = &self.links[l.index()];
        (
            self.ports[link.a.index()].node,
            self.ports[link.b.index()].node,
        )
    }

    /// Neighbor nodes of `n` with the connecting link.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.index()]
    }

    /// All links of a node.
    pub fn links_of(&self, n: NodeId) -> Vec<LinkId> {
        self.adjacency[n.index()].iter().map(|&(_, l)| l).collect()
    }

    /// Links occupying a tray segment.
    pub fn tray_links(&self, seg: crate::ids::TraySegmentId) -> &[LinkId] {
        &self.tray_occupancy[seg.index()]
    }

    /// Disturbance neighbors of a link: links sharing a tray segment or
    /// panel-adjacent at either endpoint. These are the links physically
    /// perturbed when this link's cable is touched (§1 cascading failures).
    pub fn disturb_neighbors(&self, l: LinkId) -> &[LinkId] {
        &self.disturb_neighbors[l.index()]
    }

    /// Given a link and one of its endpoint nodes, the port on that node.
    pub fn port_on(&self, l: LinkId, n: NodeId) -> Option<PortId> {
        let link = &self.links[l.index()];
        if self.ports[link.a.index()].node == n {
            Some(link.a)
        } else if self.ports[link.b.index()].node == n {
            Some(link.b)
        } else {
            None
        }
    }

    /// Mean cable length in meters (wiring-complexity input for topomaint).
    pub fn mean_cable_length_m(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        self.links.iter().map(|l| l.cable.length_m).sum::<f64>() / self.links.len() as f64
    }

    /// Fraction of links whose cable leaves its rack.
    pub fn cross_rack_fraction(&self) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        let cross = self
            .links
            .iter()
            .filter(|l| !l.route.segments.is_empty())
            .count();
        cross as f64 / self.links.len() as f64
    }
}

/// Incremental topology constructor used by all generators.
pub struct TopologyBuilder {
    layout: HallLayout,
    diversity: DiversityProfile,
    nodes: Vec<Node>,
    ports: Vec<Port>,
    links: Vec<Link>,
    node_ports: Vec<Vec<PortId>>,
    port_link: Vec<Option<LinkId>>,
    next_free_u: Vec<u8>,
    rng: Stream,
    name: String,
}

impl TopologyBuilder {
    /// Start building in the given hall with the given component diversity.
    /// `rng` seeds design-family sampling (deterministic per root seed).
    pub fn new(name: &str, layout: HallLayout, diversity: DiversityProfile, rng: &SimRng) -> Self {
        let racks = layout.rack_count();
        TopologyBuilder {
            layout,
            diversity,
            nodes: Vec::new(),
            ports: Vec::new(),
            links: Vec::new(),
            node_ports: Vec::new(),
            port_link: Vec::new(),
            next_free_u: vec![1; racks],
            rng: rng.stream("topology-builder", 0),
            name: name.to_string(),
        }
    }

    /// Hall geometry in use.
    pub fn layout(&self) -> &HallLayout {
        &self.layout
    }

    /// Place a switch at the top of the given rack (ToRs) or the next free
    /// U from the bottom (spines in network racks). Returns its node id.
    pub fn add_switch(
        &mut self,
        name: &str,
        spec: SwitchSpec,
        tier: Tier,
        rack: RackLoc,
    ) -> NodeId {
        let rack_id = self.layout.rack_id(rack);
        let u = match tier {
            // ToRs go at the top of the rack (standard practice).
            Tier::Tor => self.layout.rack_height_u - spec.height_u + 1,
            _ => self.alloc_u(rack_id, spec.height_u),
        };
        self.push_node(Node {
            kind: NodeKind::Switch { spec, tier },
            rack: rack_id,
            u,
            name: name.to_string(),
        })
    }

    /// Place a server in the next free U of the given rack.
    pub fn add_server(&mut self, name: &str, rack: RackLoc) -> NodeId {
        let rack_id = self.layout.rack_id(rack);
        let u = self.alloc_u(rack_id, 2); // 2U servers
        self.push_node(Node {
            kind: NodeKind::Server,
            rack: rack_id,
            u,
            name: name.to_string(),
        })
    }

    fn alloc_u(&mut self, rack: RackId, height: u8) -> u8 {
        let u = self.next_free_u[rack.index()];
        // Wrap rather than overflow if a generator overfills a rack; the
        // simulation doesn't model physical collision, only geometry.
        let next = u.saturating_add(height);
        self.next_free_u[rack.index()] = if next >= self.layout.rack_height_u {
            1
        } else {
            next
        };
        u
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        self.node_ports.push(Vec::new());
        id
    }

    fn alloc_port(&mut self, node: NodeId) -> PortId {
        let slot = self.node_ports[node.index()].len() as u16;
        let n = &self.nodes[node.index()];
        let loc = PortLoc {
            rack: n.rack,
            u: n.u,
            face: Face::Rear,
            slot,
        };
        let id = PortId::from_index(self.ports.len());
        self.ports.push(Port {
            node,
            loc,
            xcvr: None,
        });
        self.port_link.push(None);
        self.node_ports[node.index()].push(id);
        id
    }

    /// Cable two nodes together with the given form factor. Medium is
    /// chosen from the routed length per §3.1; separable media get
    /// independently sampled transceiver design families at both ends.
    pub fn connect(&mut self, a: NodeId, b: NodeId, form: FormFactor) -> LinkId {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        let ra = self.layout.rack_loc(self.nodes[a.index()].rack);
        let rb = self.layout.rack_loc(self.nodes[b.index()].rack);
        let route = self.layout.route(ra, rb);
        let medium = CableMedium::for_length(route.length_m, form);
        let fam_a = DesignFamily::sample(&mut self.rng, self.diversity.vendor_count);
        let fam_b = if medium.is_separable() {
            DesignFamily::sample(&mut self.rng, self.diversity.vendor_count)
        } else {
            fam_a // integrated cable: both ends from the same product
        };
        self.ports[pa.index()].xcvr = Some(Transceiver::new(form, fam_a));
        self.ports[pb.index()].xcvr = Some(Transceiver::new(form, fam_b));
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link {
            a: pa,
            b: pb,
            cable: Cable {
                medium,
                length_m: route.length_m,
            },
            route,
            gbps: form.gbps(),
        });
        self.port_link[pa.index()] = Some(id);
        self.port_link[pb.index()] = Some(id);
        id
    }

    /// Finish: compute adjacency, tray occupancy, and disturbance
    /// neighbors.
    pub fn build(self) -> Topology {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (i, link) in self.links.iter().enumerate() {
            let id = LinkId::from_index(i);
            let na = self.ports[link.a.index()].node;
            let nb = self.ports[link.b.index()].node;
            adjacency[na.index()].push((nb, id));
            adjacency[nb.index()].push((na, id));
        }
        let mut tray_occupancy = vec![Vec::new(); self.layout.tray_segment_count()];
        for (i, link) in self.links.iter().enumerate() {
            for seg in &link.route.segments {
                tray_occupancy[seg.index()].push(LinkId::from_index(i));
            }
        }
        // Disturbance neighbors: tray-sharing plus panel adjacency.
        let mut disturb: Vec<std::collections::BTreeSet<LinkId>> =
            vec![Default::default(); self.links.len()];
        for occ in &tray_occupancy {
            for (i, &la) in occ.iter().enumerate() {
                for &lb in &occ[i + 1..] {
                    disturb[la.index()].insert(lb);
                    disturb[lb.index()].insert(la);
                }
            }
        }
        // Panel adjacency: group cabled ports by (rack, u, face); slots
        // within +/-2 are neighbors.
        use std::collections::BTreeMap;
        let mut panels: BTreeMap<(RackId, u8, u8), Vec<(u16, LinkId)>> = BTreeMap::new();
        for (pi, port) in self.ports.iter().enumerate() {
            if let Some(l) = self.port_link[pi] {
                let face = match port.loc.face {
                    Face::Front => 0u8,
                    Face::Rear => 1,
                };
                panels
                    .entry((port.loc.rack, port.loc.u, face))
                    .or_default()
                    .push((port.loc.slot, l));
            }
        }
        for group in panels.values_mut() {
            group.sort_unstable_by_key(|&(slot, _)| slot);
            for (i, &(slot_i, li)) in group.iter().enumerate() {
                for &(slot_j, lj) in &group[i + 1..] {
                    if slot_j - slot_i > 2 {
                        break;
                    }
                    if li != lj {
                        disturb[li.index()].insert(lj);
                        disturb[lj.index()].insert(li);
                    }
                }
            }
        }
        Topology {
            layout: self.layout,
            diversity: self.diversity,
            nodes: self.nodes,
            ports: self.ports,
            links: self.links,
            node_ports: self.node_ports,
            port_link: self.port_link,
            adjacency,
            tray_occupancy,
            disturb_neighbors: disturb
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rack_pair() -> Topology {
        let rng = SimRng::root(1);
        let mut b = TopologyBuilder::new(
            "pair",
            HallLayout::new(1, 2),
            DiversityProfile::cloud_typical(),
            &rng,
        );
        let s0 = b.add_switch(
            "tor-0",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 0 },
        );
        let s1 = b.add_switch(
            "tor-1",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 1 },
        );
        let srv = b.add_server("srv-0", RackLoc { row: 0, col: 0 });
        b.connect(s0, s1, FormFactor::QsfpDd);
        b.connect(s0, srv, FormFactor::Qsfp28);
        b.build()
    }

    #[test]
    fn builder_wires_adjacency() {
        let t = two_rack_pair();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId(1)).len(), 1);
        let (a, b) = t.endpoints(LinkId(0));
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn intra_rack_link_is_dac() {
        let t = two_rack_pair();
        // Link 1: tor-0 to srv-0, same rack → short → DAC.
        assert_eq!(t.link(LinkId(1)).cable.medium, CableMedium::Dac);
        assert!(t.link(LinkId(1)).route.segments.is_empty());
    }

    #[test]
    fn cross_rack_link_has_route_and_xcvrs() {
        let t = two_rack_pair();
        let l = t.link(LinkId(0));
        assert!(l.cable.length_m > 3.0);
        let pa = t.port(l.a);
        assert!(pa.xcvr.is_some());
        assert_eq!(pa.xcvr.as_ref().unwrap().form, FormFactor::QsfpDd);
    }

    #[test]
    fn port_on_returns_correct_side() {
        let t = two_rack_pair();
        let l = LinkId(0);
        let p = t.port_on(l, NodeId(1)).unwrap();
        assert_eq!(t.port(p).node, NodeId(1));
        assert!(t.port_on(l, NodeId(2)).is_none());
    }

    #[test]
    fn tor_placed_at_rack_top() {
        let t = two_rack_pair();
        let tor = t.node(NodeId(0));
        assert_eq!(tor.u, 42); // 42U rack, 1U switch at top
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = two_rack_pair();
        let b = two_rack_pair();
        let fa = a.port(a.link(LinkId(0)).a).xcvr.as_ref().unwrap().family;
        let fb = b.port(b.link(LinkId(0)).a).xcvr.as_ref().unwrap().family;
        assert_eq!(fa.vendor, fb.vendor);
        assert_eq!(fa.tab_style, fb.tab_style);
    }

    #[test]
    fn panel_neighbors_marked_disturbing() {
        // Build a ToR with several server links: their ports sit at
        // adjacent slots on the same faceplate, so they must disturb each
        // other.
        let rng = SimRng::root(2);
        let mut b = TopologyBuilder::new(
            "fan",
            HallLayout::new(1, 1),
            DiversityProfile::standardized(),
            &rng,
        );
        let tor = b.add_switch(
            "tor",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 0 },
        );
        let mut links = Vec::new();
        for i in 0..4 {
            let s = b.add_server(&format!("srv-{i}"), RackLoc { row: 0, col: 0 });
            links.push(b.connect(tor, s, FormFactor::Qsfp28));
        }
        let t = b.build();
        // Link 0's ToR port is slot 0; slots 1 and 2 are within radius 2.
        let n = t.disturb_neighbors(links[0]);
        assert!(n.contains(&links[1]));
        assert!(n.contains(&links[2]));
        assert!(!n.contains(&links[0]));
    }

    #[test]
    fn tray_sharing_marked_disturbing() {
        let rng = SimRng::root(3);
        let mut b = TopologyBuilder::new(
            "row",
            HallLayout::new(1, 3),
            DiversityProfile::standardized(),
            &rng,
        );
        let s0 = b.add_switch(
            "a",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 0 },
        );
        let s2 = b.add_switch(
            "c",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 2 },
        );
        let s1 = b.add_switch(
            "b",
            SwitchSpec::tor32(),
            Tier::Tor,
            RackLoc { row: 0, col: 1 },
        );
        let l02 = b.connect(s0, s2, FormFactor::QsfpDd);
        let l01 = b.connect(s0, s1, FormFactor::QsfpDd);
        let t = b.build();
        // Both cables traverse the col0-col1 tray segment.
        assert!(t.disturb_neighbors(l02).contains(&l01));
        assert!(t.disturb_neighbors(l01).contains(&l02));
    }

    #[test]
    fn stats_helpers() {
        let t = two_rack_pair();
        assert!(t.mean_cable_length_m() > 0.0);
        assert!((t.cross_rack_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(t.servers().len(), 1);
        assert_eq!(t.switches().len(), 2);
    }
}
