//! Routing over the live network: BFS shortest paths with ECMP tie-breaks.
//!
//! The experiments need four routing questions answered, all against the
//! *current* [`NetState`] (down/drained links excluded):
//!
//! 1. Is this server pair connected at all? → availability accounting;
//!    one [`Components`] labelling answers it for every pair at once.
//! 2. Would draining one more link disconnect a service pair? → the drain
//!    checks; a [`CutQuery`] answers it by searching only near that link.
//! 3. Which links does a flow between two nodes traverse? → flow model.
//! 4. How much path diversity survives? → drain-impact estimates used by
//!    the control plane before approving maintenance.
//!
//! Path selection is deterministic: among equal-cost next hops, a
//! flow-keyed hash picks one, so identical runs route identically and a
//! single flow never oscillates between paths (which would smear the loss
//! model across the fabric).

use std::collections::VecDeque;

use crate::ids::{LinkId, NodeId};
use crate::state::NetState;
use crate::topology::Topology;

/// BFS distances from `src` over routable links. `u32::MAX` = unreachable.
pub fn distances_from(topo: &Topology, state: &NetState, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.node_count()];
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(n) = q.pop_front() {
        let d = dist[n.index()];
        for &(m, l) in topo.neighbors(n) {
            if state.link(l).routable() && dist[m.index()] == u32::MAX {
                dist[m.index()] = d + 1;
                q.push_back(m);
            }
        }
    }
    dist
}

/// Whether `a` and `b` are connected over routable links.
pub fn connected(topo: &Topology, state: &NetState, a: NodeId, b: NodeId) -> bool {
    distances_from(topo, state, a)[b.index()] != u32::MAX
}

/// Deterministic ECMP path from `src` to `dst` as a list of links, or
/// `None` if disconnected. Among equal-cost next hops the choice is keyed
/// by `flow_key`, so distinct flows spread across the ECMP fan-out while
/// each flow is stable.
pub fn ecmp_path(
    topo: &Topology,
    state: &NetState,
    src: NodeId,
    dst: NodeId,
    flow_key: u64,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    // Distances *to* dst so we can walk downhill from src.
    let dist = distances_from(topo, state, dst);
    if dist[src.index()] == u32::MAX {
        return None;
    }
    let mut path = Vec::with_capacity(dist[src.index()] as usize);
    let mut here = src;
    let mut hop = 0u64;
    while here != dst {
        let d_here = dist[here.index()];
        let mut candidates: Vec<(NodeId, LinkId)> = topo
            .neighbors(here)
            .iter()
            .copied()
            .filter(|&(m, l)| state.link(l).routable() && dist[m.index()] + 1 == d_here)
            .collect();
        debug_assert!(!candidates.is_empty(), "downhill neighbor must exist");
        if candidates.is_empty() {
            return None; // state changed mid-walk; treat as disconnected
        }
        // Stable ECMP choice: hash(flow_key, hop) over the sorted fan-out.
        candidates.sort_unstable_by_key(|&(_, l)| l);
        let h = splitmix(flow_key ^ hop.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pick = (h % candidates.len() as u64) as usize;
        let (next, link) = candidates[pick];
        path.push(link);
        here = next;
        hop += 1;
    }
    Some(path)
}

/// Number of distinct equal-cost shortest paths from `src` to `dst`
/// (counted by DP over the BFS DAG, capped at `u64::MAX`). Path diversity
/// is what the control plane checks before draining a link.
pub fn ecmp_path_count(topo: &Topology, state: &NetState, src: NodeId, dst: NodeId) -> u64 {
    if src == dst {
        return 1;
    }
    let dist = distances_from(topo, state, src);
    if dist[dst.index()] == u32::MAX {
        return 0;
    }
    // Process nodes in increasing BFS distance.
    let mut order: Vec<NodeId> = topo
        .node_ids()
        .filter(|n| dist[n.index()] != u32::MAX)
        .collect();
    order.sort_unstable_by_key(|n| dist[n.index()]);
    let mut count = vec![0u64; topo.node_count()];
    count[src.index()] = 1;
    for n in order {
        let c = count[n.index()];
        if c == 0 {
            continue;
        }
        let d = dist[n.index()];
        for &(m, l) in topo.neighbors(n) {
            if state.link(l).routable() && dist[m.index()] == d + 1 {
                count[m.index()] = count[m.index()].saturating_add(c);
            }
        }
    }
    count[dst.index()]
}

/// Connected-component labels of every node over routable links.
///
/// One labelling answers "is this pair connected?" for every pair at
/// once, so checking `p` service pairs costs one O(nodes + links) flood
/// fill instead of `p` BFS runs. The buffers are reused across calls.
#[derive(Debug, Clone, Default)]
pub struct Components {
    label: Vec<u32>,
    stack: Vec<NodeId>,
}

impl Components {
    /// Empty buffers; the first [`Components::label`] sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label every node's component over the links routable in `state`.
    pub fn label(&mut self, topo: &Topology, state: &NetState) {
        const UNSEEN: u32 = u32::MAX;
        self.label.clear();
        self.label.resize(topo.node_count(), UNSEEN);
        let mut next = 0u32;
        for root in topo.node_ids() {
            if self.label[root.index()] != UNSEEN {
                continue;
            }
            self.label[root.index()] = next;
            self.stack.push(root);
            while let Some(n) = self.stack.pop() {
                for &(m, l) in topo.neighbors(n) {
                    if self.label[m.index()] == UNSEEN && state.link(l).routable() {
                        self.label[m.index()] = next;
                        self.stack.push(m);
                    }
                }
            }
            next += 1;
        }
    }

    /// Whether `a` and `b` were connected in the last labelling.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.label[a.index()] == self.label[b.index()]
    }

    /// How many of `pairs` were connected in the last labelling.
    pub fn connected_pairs(&self, pairs: &[(NodeId, NodeId)]) -> usize {
        pairs.iter().filter(|&&(a, b)| self.connected(a, b)).count()
    }
}

/// "Would draining link `e`, on top of the links `drained`, disconnect a
/// pair?", answered by searching only near `e`.
///
/// Draining links can only split pairs, never join them, so the set of
/// connected pairs shrinks exactly when its count does: comparing
/// connected-pair counts before and after a trial drain asks the same
/// question as "is some pair still connected with `drained` out split by
/// `e`?". That is a local question. Search from both endpoints of `e` at
/// once over the links still routable (not `e`, not in `drained`),
/// expanding the smaller frontier first. If the searches meet, `e` is on
/// a cycle and no pair loses its connection. If one side runs out first,
/// its nodes are a whole component `S` of the drained graph, and a pair is
/// lost exactly when one endpoint is in `S` and the other reaches the far
/// side; that is checked by a search from the partner endpoint.
///
/// Nodes are marked with per-query stamps, so no query clears a
/// node-sized array. Partner searches share one stamp: a failed search
/// has stamped its partner's whole component, which holds no far-side
/// node, so a later partner found stamped is answered at once.
#[derive(Debug, Clone, Default)]
pub struct CutQuery {
    mark: Vec<u32>,
    stamp: u32,
    near: Vec<NodeId>,
    far: Vec<NodeId>,
    /// Node expansions across every query so far: a deterministic work
    /// counter for tests.
    pub expansions: u64,
}

impl CutQuery {
    /// Empty buffers; the first query sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether draining `e` on top of `drained` (and the links unroutable
    /// in `state`) disconnects a pair of `pairs` that is connected
    /// without it. Draining a link that is unroutable or already in
    /// `drained` changes nothing, so it returns `false`.
    pub fn loses_pair(
        &mut self,
        topo: &Topology,
        state: &NetState,
        drained: &[LinkId],
        e: LinkId,
        pairs: &[(NodeId, NodeId)],
    ) -> bool {
        let (u, v) = topo.endpoints(e);
        if !state.link(e).routable() || drained.contains(&e) {
            return false;
        }
        let open = |l: LinkId| l != e && state.link(l).routable() && !drained.contains(&l);
        let base = self.next_stamps(topo.node_count());
        let (side_u, side_v, failed) = (base, base + 1, base + 2);
        self.mark[u.index()] = side_u;
        self.mark[v.index()] = side_v;
        self.near.clear();
        self.far.clear();
        self.near.push(u);
        self.far.push(v);
        // `near` is always the side being expanded; swap to keep it the
        // smaller frontier.
        let (mut mine, mut theirs) = (side_u, side_v);
        loop {
            if self.far.len() < self.near.len() {
                std::mem::swap(&mut self.near, &mut self.far);
                std::mem::swap(&mut mine, &mut theirs);
            }
            let Some(n) = self.near.pop() else { break };
            self.expansions += 1;
            for &(m, l) in topo.neighbors(n) {
                if !open(l) {
                    continue;
                }
                let seen = self.mark[m.index()];
                if seen == theirs {
                    return false;
                }
                if seen != mine {
                    self.mark[m.index()] = mine;
                    self.near.push(m);
                }
            }
        }
        // `near` ran out: its side, stamped `mine`, is a whole component.
        let (enclosed, far_side) = (mine, theirs);
        for &(a, b) in pairs {
            let partner = match (
                self.mark[a.index()] == enclosed,
                self.mark[b.index()] == enclosed,
            ) {
                (true, false) => b,
                (false, true) => a,
                _ => continue,
            };
            if self.reaches(topo, &open, partner, far_side, failed) {
                return true;
            }
        }
        false
    }

    /// Whether `from` reaches a node stamped `target`. Every node the
    /// search visits is stamped `failed`, which is true of its whole
    /// component whenever the search does fail.
    fn reaches(
        &mut self,
        topo: &Topology,
        open: &impl Fn(LinkId) -> bool,
        from: NodeId,
        target: u32,
        failed: u32,
    ) -> bool {
        match self.mark[from.index()] {
            m if m == target => return true,
            m if m == failed => return false,
            _ => {}
        }
        self.mark[from.index()] = failed;
        self.far.clear();
        self.far.push(from);
        while let Some(n) = self.far.pop() {
            self.expansions += 1;
            for &(m, l) in topo.neighbors(n) {
                if !open(l) {
                    continue;
                }
                let seen = self.mark[m.index()];
                if seen == target {
                    return true;
                }
                if seen != failed {
                    self.mark[m.index()] = failed;
                    self.far.push(m);
                }
            }
        }
        false
    }

    /// Three fresh stamps `base..base + 3`, all above every stamp in
    /// `mark`. The marks are cleared only when the node count changes or
    /// the counter nears wrap-around.
    fn next_stamps(&mut self, nodes: usize) -> u32 {
        if self.mark.len() != nodes || self.stamp > u32::MAX - 6 {
            self.mark.clear();
            self.mark.resize(nodes, 0);
            self.stamp = 0;
        }
        self.stamp += 3;
        self.stamp
    }
}

/// Fraction of the given node pairs that are connected. The fleet-level
/// service-availability proxy used by several experiments.
pub fn pair_connectivity(topo: &Topology, state: &NetState, pairs: &[(NodeId, NodeId)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let mut comps = Components::new();
    comps.label(topo, state);
    comps.connected_pairs(pairs) as f64 / pairs.len() as f64
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::DiversityProfile;
    use crate::gen::{fat_tree, leaf_spine};
    use crate::state::{AdminState, LinkHealth};
    use dcmaint_des::SimRng;

    fn ls() -> (Topology, NetState) {
        let t = leaf_spine(
            2,
            3,
            2,
            1,
            DiversityProfile::standardized(),
            &SimRng::root(1),
        );
        let s = NetState::new(&t);
        (t, s)
    }

    #[test]
    fn all_pairs_connected_when_healthy() {
        let (t, s) = ls();
        let servers = t.servers();
        for &a in &servers {
            for &b in &servers {
                assert!(connected(&t, &s, a, b));
            }
        }
    }

    #[test]
    fn path_has_expected_length() {
        let (t, s) = ls();
        let servers = t.servers();
        // Different leaves: server → leaf → spine → leaf → server = 4 hops.
        let (a, b) = (servers[0], servers[2]);
        let p = ecmp_path(&t, &s, a, b, 7).unwrap();
        assert_eq!(p.len(), 4);
        // Same leaf: server → leaf → server = 2 hops.
        let p2 = ecmp_path(&t, &s, servers[0], servers[1], 7).unwrap();
        assert_eq!(p2.len(), 2);
    }

    #[test]
    fn path_is_stable_per_flow_key() {
        let (t, s) = ls();
        let servers = t.servers();
        let p1 = ecmp_path(&t, &s, servers[0], servers[4], 99).unwrap();
        let p2 = ecmp_path(&t, &s, servers[0], servers[4], 99).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_flow_keys_spread_over_ecmp() {
        let (t, s) = ls();
        let servers = t.servers();
        let paths: std::collections::HashSet<Vec<LinkId>> = (0..32)
            .map(|k| ecmp_path(&t, &s, servers[0], servers[4], k).unwrap())
            .collect();
        // 2 spines → at least 2 distinct paths should appear over 32 keys.
        assert!(paths.len() >= 2, "only {} distinct paths", paths.len());
    }

    #[test]
    fn down_link_reroutes_or_disconnects() {
        let (t, mut s) = ls();
        let servers = t.servers();
        // Kill the server's access link: the pair must disconnect.
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Down, 1.0);
        assert!(!connected(&t, &s, servers[0], servers[2]));
        // Other pairs unaffected.
        assert!(connected(&t, &s, servers[2], servers[4]));
    }

    #[test]
    fn spine_failure_survivable_in_leaf_spine() {
        let (t, mut s) = ls();
        // Take down every link of spine 0; leaf-spine with 2 spines
        // remains connected through spine 1.
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        for l in t.links_of(spine) {
            s.set_health(l, LinkHealth::Down, 1.0);
        }
        let servers = t.servers();
        assert!(connected(&t, &s, servers[0], servers[4]));
    }

    #[test]
    fn ecmp_count_matches_fabric() {
        let (t, s) = ls();
        let servers = t.servers();
        // Cross-leaf: exactly one path per spine.
        assert_eq!(ecmp_path_count(&t, &s, servers[0], servers[2]), 2);
        // Same node.
        assert_eq!(ecmp_path_count(&t, &s, servers[0], servers[0]), 1);
    }

    #[test]
    fn ecmp_count_fat_tree() {
        let t = fat_tree(4, DiversityProfile::standardized(), &SimRng::root(2));
        let s = NetState::new(&t);
        let servers = t.servers();
        // Cross-pod in k=4 fat-tree: 4 core paths.
        let cross: Vec<_> = servers
            .iter()
            .filter(|&&n| t.node(n).name.starts_with("srv-0-0"))
            .chain(
                servers
                    .iter()
                    .filter(|&&n| t.node(n).name.starts_with("srv-1-0")),
            )
            .copied()
            .collect();
        let count = ecmp_path_count(&t, &s, cross[0], *cross.last().unwrap());
        assert_eq!(count, 4);
    }

    #[test]
    fn drained_links_excluded_from_routing() {
        let (t, mut s) = ls();
        let servers = t.servers();
        let access = t.links_of(servers[0])[0];
        s.set_admin(access, AdminState::Drained);
        assert!(!connected(&t, &s, servers[0], servers[2]));
    }

    #[test]
    fn pair_connectivity_fraction() {
        let (t, mut s) = ls();
        let servers = t.servers();
        let pairs: Vec<_> = (0..servers.len() - 1)
            .map(|i| (servers[i], servers[i + 1]))
            .collect();
        assert_eq!(pair_connectivity(&t, &s, &pairs), 1.0);
        let access = t.links_of(servers[0])[0];
        s.set_health(access, LinkHealth::Down, 1.0);
        let frac = pair_connectivity(&t, &s, &pairs);
        assert!(frac < 1.0 && frac > 0.5);
    }

    /// A leaf-spine with one server's access link down and every link of
    /// spine-0 drained on top, plus every server pair.
    fn damaged() -> (Topology, NetState, Vec<LinkId>, Vec<(NodeId, NodeId)>) {
        let (t, mut s) = ls();
        let servers = t.servers();
        s.set_health(t.links_of(servers[1])[0], LinkHealth::Down, 1.0);
        let spine = t.node_ids().find(|&n| t.node(n).name == "spine-0").unwrap();
        let drained = t.links_of(spine);
        let pairs = servers
            .iter()
            .flat_map(|&a| servers.iter().map(move |&b| (a, b)))
            .collect();
        (t, s, drained, pairs)
    }

    #[test]
    fn labels_match_per_pair_bfs() {
        let (t, s, drained, _) = damaged();
        let mut whatif = s.clone();
        for &l in &drained {
            whatif.set_admin(l, AdminState::Drained);
        }
        let servers = t.servers();
        let mut comps = Components::new();
        comps.label(&t, &whatif);
        for &a in &servers {
            for &b in &servers {
                assert_eq!(comps.connected(a, b), connected(&t, &whatif, a, b));
            }
        }
    }

    #[test]
    fn cut_query_ignores_partners_in_a_third_component() {
        let (t, mut s) = ls();
        let servers = t.servers();
        // servers[1] sits alone; cutting servers[0] off splits it from
        // everyone but servers[1].
        s.set_health(t.links_of(servers[1])[0], LinkHealth::Down, 1.0);
        let e = t.links_of(servers[0])[0];
        let mut q = CutQuery::new();
        let isolated = (servers[0], servers[1]);
        assert!(!q.loses_pair(&t, &s, &[], e, &[isolated]));
        assert!(!q.loses_pair(
            &t,
            &s,
            &[],
            e,
            &[isolated, isolated, (servers[1], servers[0])]
        ));
        assert!(q.loses_pair(&t, &s, &[], e, &[isolated, (servers[2], servers[0])]));
        // Already drained, or down: draining it again changes nothing.
        assert!(!q.loses_pair(&t, &s, &[e], e, &[(servers[0], servers[2])]));
        assert!(!q.loses_pair(&t, &s, &[], t.links_of(servers[1])[0], &[isolated]));
    }

    #[test]
    fn cut_query_survives_stamp_wraparound() {
        let (t, s, drained, pairs) = damaged();
        let mut q = CutQuery::new();
        q.loses_pair(&t, &s, &drained, t.link_ids().next().unwrap(), &pairs);
        let searched = t
            .link_ids()
            .filter(|&e| s.link(e).routable() && !drained.contains(&e));
        for e in searched {
            let want = CutQuery::new().loses_pair(&t, &s, &drained, e, &pairs);
            // Marks left by the cycle before a wrap never read as this
            // cycle's stamps, whatever they were.
            for stale in 0..12 {
                q.mark.fill(stale);
                q.stamp = u32::MAX - 5;
                assert_eq!(q.loses_pair(&t, &s, &drained, e, &pairs), want, "{e:?}");
                assert_eq!(q.stamp, 3, "the stamps restart after wrapping");
            }
        }
    }

    #[test]
    fn empty_pairs_is_full_connectivity() {
        let (t, s) = ls();
        assert_eq!(pair_connectivity(&t, &s, &[]), 1.0);
    }
}
