//! Topology construction and static shortest-path routing.

use crate::link::{Link, LinkConfig};
use crate::node::{Node, NodeKind};
use crate::packet::{LinkId, NodeId};
use std::collections::VecDeque;

/// Incremental builder for hosts, switches, and links; computes BFS
/// next-hop tables when finished.
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an end host.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node::new(id, NodeKind::Host, name));
        id
    }

    /// Add a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node::new(id, NodeKind::Switch, name));
        id
    }

    /// Add a unidirectional link `a -> b`.
    pub fn link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        assert_ne!(a, b, "self-links are not allowed");
        let id = self.links.len();
        self.links.push(Link::new(a, b, cfg));
        id
    }

    /// Add a symmetric pair of links with identical parameters.
    /// Returns `(a->b, b->a)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.link(a, b, cfg), self.link(b, a, cfg))
    }

    /// Number of nodes added so far.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Add a chain of `n` switches connected consecutively with
    /// symmetric `cfg` links (the "parking lot" backbone). Returns the
    /// switch ids in chain order.
    pub fn chain(&mut self, n: usize, cfg: LinkConfig) -> Vec<NodeId> {
        assert!(n >= 2, "a chain needs at least two switches");
        let sw: Vec<NodeId> = (0..n)
            .map(|i| self.add_switch(format!("chain{i}")))
            .collect();
        for w in sw.windows(2) {
            self.connect(w[0], w[1], cfg);
        }
        sw
    }

    /// Add a two-tier leaf-spine fabric: every leaf switch connects to
    /// every spine switch with symmetric `cfg` links. Returns
    /// `(leaves, spines)`.
    ///
    /// Per-leaf link insertion order is *rotated* (leaf `j` connects to
    /// spines `j % s, (j+1) % s, ...`), so BFS tie-breaking — which
    /// prefers the first-inserted link — deterministically spreads
    /// traffic toward different leaves across different spines instead
    /// of collapsing everything onto spine 0.
    pub fn leaf_spine(
        &mut self,
        leaves: usize,
        spines: usize,
        cfg: LinkConfig,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        assert!(leaves >= 2, "a leaf-spine fabric needs at least two leaves");
        assert!(spines >= 1, "a leaf-spine fabric needs at least one spine");
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|i| self.add_switch(format!("leaf{i}")))
            .collect();
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|i| self.add_switch(format!("spine{i}")))
            .collect();
        for (j, &leaf) in leaf_ids.iter().enumerate() {
            for k in 0..spines {
                let spine = spine_ids[(j + k) % spines];
                self.connect(leaf, spine, cfg);
            }
        }
        (leaf_ids, spine_ids)
    }

    /// Compute next-hop tables (BFS shortest hop count, deterministic
    /// tie-break by link insertion order) and return the parts.
    pub fn build(mut self) -> (Vec<Node>, Vec<Link>) {
        let n = self.nodes.len();
        // adjacency_in[v] = links arriving at v (for reverse BFS).
        let mut adjacency_in: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for (lid, l) in self.links.iter().enumerate() {
            adjacency_in[l.to].push(lid);
        }
        // For each destination, BFS backwards assigning next hops.
        let mut tables: Vec<Vec<Option<LinkId>>> = vec![vec![None; n]; n];
        for dst in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::from([dst]);
            while let Some(v) = q.pop_front() {
                for &lid in &adjacency_in[v] {
                    let u = self.links[lid].from;
                    if dist[u] == usize::MAX {
                        dist[u] = dist[v] + 1;
                        tables[u][dst] = Some(lid);
                        q.push_back(u);
                    }
                }
            }
        }
        for (node, table) in self.nodes.iter_mut().zip(tables) {
            node.set_routes(table);
        }
        (self.nodes, self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LinkConfig {
        LinkConfig::lan()
    }

    #[test]
    fn line_topology_routes_through_middle() {
        // h0 - sw - h1
        let mut t = TopologyBuilder::new();
        let h0 = t.add_host("h0");
        let sw = t.add_switch("sw");
        let h1 = t.add_host("h1");
        let (l0, _) = t.connect(h0, sw, cfg());
        let (l2, _) = t.connect(sw, h1, cfg());
        let (nodes, links) = t.build();
        assert_eq!(nodes[h0].route(h1), l0);
        assert_eq!(nodes[sw].route(h1), l2);
        assert_eq!(links[nodes[h1].route(h0)].to, sw);
    }

    #[test]
    fn shortest_path_wins_over_longer() {
        // Square with a diagonal: 0-1, 1-3, 0-2, 2-3 and direct 0-3.
        let mut t = TopologyBuilder::new();
        let n0 = t.add_switch("0");
        let n1 = t.add_switch("1");
        let n2 = t.add_switch("2");
        let n3 = t.add_switch("3");
        t.connect(n0, n1, cfg());
        t.connect(n1, n3, cfg());
        t.connect(n2, n3, cfg());
        t.connect(n0, n2, cfg());
        let (direct, _) = t.connect(n0, n3, cfg());
        let (nodes, _) = t.build();
        assert_eq!(nodes[n0].route(n3), direct, "one hop beats two");
    }

    #[test]
    fn unreachable_pairs_have_no_route() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        let c = t.add_host("c");
        t.connect(a, b, cfg());
        let (nodes, _) = t.build();
        assert!(nodes[a].has_route(b));
        assert!(!nodes[a].has_route(c));
        assert!(!nodes[c].has_route(a));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_links() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        t.link(a, a, cfg());
    }

    #[test]
    fn chain_routes_hop_by_hop() {
        let mut t = TopologyBuilder::new();
        let sw = t.chain(5, cfg());
        let h = t.add_host("h");
        t.connect(sw[4], h, cfg());
        let src = t.add_host("src");
        t.connect(src, sw[0], cfg());
        let (nodes, links) = t.build();
        // src -> sw0 -> sw1 -> ... -> sw4 -> h: walk the route table.
        let mut at = src;
        let mut hops = 0;
        while at != h {
            at = links[nodes[at].route(h)].to;
            hops += 1;
            assert!(hops < 10, "routing loop");
        }
        assert_eq!(hops, 6, "src->sw0, 4 chain hops, sw4->h = 6 links");
    }

    #[test]
    fn leaf_spine_spreads_destinations_across_spines() {
        let mut t = TopologyBuilder::new();
        let (leaves, spines) = t.leaf_spine(4, 2, cfg());
        // One host per leaf so routes terminate at hosts.
        let hosts: Vec<_> = (0..4)
            .map(|i| {
                let h = t.add_host(format!("h{i}"));
                t.connect(leaves[i], h, cfg());
                h
            })
            .collect();
        let (nodes, links) = t.build();
        // From leaf 0, traffic toward different remote leaves must not
        // all share one spine.
        let via: Vec<NodeId> = (1..4)
            .map(|j| links[nodes[leaves[0]].route(hosts[j])].to)
            .collect();
        assert!(
            via.iter().any(|v| *v != via[0]),
            "all destinations collapsed onto one spine: {via:?}"
        );
        for v in &via {
            assert!(spines.contains(v), "next hop {v} is not a spine");
        }
    }

    #[test]
    fn routes_are_deterministic_under_ties() {
        // Two equal-length paths 0->1->3 and 0->2->3: the first-inserted
        // link must win, every time.
        let build = || {
            let mut t = TopologyBuilder::new();
            let n0 = t.add_switch("0");
            let n1 = t.add_switch("1");
            let n2 = t.add_switch("2");
            let n3 = t.add_switch("3");
            t.connect(n0, n1, cfg());
            t.connect(n0, n2, cfg());
            t.connect(n1, n3, cfg());
            t.connect(n2, n3, cfg());
            let (nodes, _) = t.build();
            nodes[n0].route(n3)
        };
        assert_eq!(build(), build());
    }
}
