//! Checkers written apart from the solvers under test. Each works on
//! plain vertex lists, so a fault in the library's bitsets, arenas or
//! `validate` cannot hide a fault in its answers.

use softhw_core::TreeDecomposition;
use softhw_hypergraph::{BitSet, Hypergraph};

/// A hypergraph as sorted vertex lists, one per edge.
pub struct Edges {
    pub num_vertices: usize,
    pub edges: Vec<Vec<usize>>,
}

impl Edges {
    pub fn of(h: &Hypergraph) -> Edges {
        Edges {
            num_vertices: h.num_vertices(),
            edges: h.edges().iter().map(members).collect(),
        }
    }
}

/// A decomposition as `(parent, sorted bag)` per node.
pub struct Decomp {
    pub nodes: Vec<(Option<usize>, Vec<usize>)>,
}

impl Decomp {
    pub fn of(td: &TreeDecomposition) -> Decomp {
        Decomp {
            nodes: (0..td.num_nodes())
                .map(|u| (td.parent(u), members(td.bag(u))))
                .collect(),
        }
    }
}

fn members(s: &BitSet) -> Vec<usize> {
    let mut v: Vec<usize> = s.iter().collect();
    v.sort_unstable();
    v
}

/// Checks that `d` is a tree decomposition of `h`: the parent links form
/// one tree, every edge lies inside some bag, and the nodes holding any
/// one vertex form a connected subtree.
pub fn tree_decomposition(h: &Edges, d: &Decomp) -> Result<(), String> {
    let n = d.nodes.len();
    if n == 0 {
        return Err("decomposition has no nodes".into());
    }
    let roots = d.nodes.iter().filter(|(p, _)| p.is_none()).count();
    if roots != 1 {
        return Err(format!("{roots} roots"));
    }
    // Every node reaches the root within n steps: no cycles, one tree.
    for start in 0..n {
        let mut u = start;
        let mut steps = 0;
        while let Some(p) = d.nodes[u].0 {
            if p >= n {
                return Err(format!("node {u} has parent {p} out of range"));
            }
            u = p;
            steps += 1;
            if steps > n {
                return Err(format!("node {start} lies on a parent cycle"));
            }
        }
    }
    for bag in d.nodes.iter().map(|(_, b)| b) {
        if let Some(&v) = bag.iter().find(|&&v| v >= h.num_vertices) {
            return Err(format!("bag holds vertex {v} outside the hypergraph"));
        }
    }
    for (e, edge) in h.edges.iter().enumerate() {
        if !d.nodes.iter().any(|(_, bag)| is_subset(edge, bag)) {
            return Err(format!("edge {e} lies in no bag"));
        }
    }
    // Connectedness: among the nodes holding v, exactly one has a parent
    // that does not hold v.
    for v in 0..h.num_vertices {
        let tops = d
            .nodes
            .iter()
            .filter(|(p, bag)| {
                bag.binary_search(&v).is_ok()
                    && p.is_none_or(|p| d.nodes[p].1.binary_search(&v).is_err())
            })
            .count();
        if tops > 1 {
            return Err(format!(
                "vertex {v} appears in {tops} disconnected subtrees"
            ));
        }
    }
    Ok(())
}

fn is_subset(a: &[usize], b: &[usize]) -> bool {
    a.iter().all(|v| b.binary_search(v).is_ok())
}

/// A set of at most `k` edges whose union holds `bag`, by exhaustive
/// search: the smallest uncovered vertex must be covered by one of its
/// own edges, so branching on those edges misses no cover.
pub fn edge_cover(h: &Edges, bag: &[usize], k: usize) -> Option<Vec<usize>> {
    fn go(h: &Edges, left: &[usize], k: usize, chosen: &mut Vec<usize>) -> bool {
        let Some(&v) = left.first() else {
            return true;
        };
        if k == 0 {
            return false;
        }
        for (e, edge) in h.edges.iter().enumerate() {
            if edge.binary_search(&v).is_ok() {
                let rest: Vec<usize> = left
                    .iter()
                    .copied()
                    .filter(|u| edge.binary_search(u).is_err())
                    .collect();
                chosen.push(e);
                if go(h, &rest, k - 1, chosen) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    let mut chosen = Vec::new();
    go(h, bag, k, &mut chosen).then_some(chosen)
}

/// A *connected* set of at most `k` edges whose union holds `bag` (the
/// ConCov condition), by trying every such edge set.
pub fn connected_cover(h: &Edges, bag: &[usize], k: usize) -> Option<Vec<usize>> {
    fn connected(h: &Edges, set: &[usize]) -> bool {
        let mut reached = vec![false; set.len()];
        let mut stack = vec![0];
        reached[0] = true;
        while let Some(i) = stack.pop() {
            for j in 0..set.len() {
                let meets = h.edges[set[i]]
                    .iter()
                    .any(|v| h.edges[set[j]].binary_search(v).is_ok());
                if !reached[j] && meets {
                    reached[j] = true;
                    stack.push(j);
                }
            }
        }
        reached.iter().all(|&r| r)
    }
    fn go(h: &Edges, bag: &[usize], k: usize, from: usize, set: &mut Vec<usize>) -> bool {
        let covers = bag
            .iter()
            .all(|v| set.iter().any(|&e| h.edges[e].binary_search(v).is_ok()));
        if !set.is_empty() && covers && connected(h, set) {
            return true;
        }
        if set.len() == k {
            return false;
        }
        for e in from..h.edges.len() {
            set.push(e);
            if go(h, bag, k, e + 1, set) {
                return true;
            }
            set.pop();
        }
        false
    }
    let mut set = Vec::new();
    go(h, bag, k, 0, &mut set).then_some(set)
}

/// Checks a ConCov witness for width `k`: a tree decomposition every bag
/// of which has a connected cover by at most `k` edges.
pub fn concov_witness(h: &Edges, d: &Decomp, k: usize) -> Result<(), String> {
    tree_decomposition(h, d)?;
    for (u, (_, bag)) in d.nodes.iter().enumerate() {
        if connected_cover(h, bag, k).is_none() {
            return Err(format!(
                "bag of node {u} has no connected cover by {k} edges"
            ));
        }
    }
    Ok(())
}

/// Checks a witness for `width ≤ k`: a tree decomposition every bag of
/// which is covered by at most `k` edges.
pub fn witness(h: &Edges, d: &Decomp, k: usize) -> Result<(), String> {
    tree_decomposition(h, d)?;
    for (u, (_, bag)) in d.nodes.iter().enumerate() {
        if edge_cover(h, bag, k).is_none() {
            return Err(format!("bag of node {u} has no cover by {k} edges"));
        }
    }
    Ok(())
}

/// The `n × n` grid graph (2-edges) has treewidth `n`, and a bag covered
/// by `k` 2-edges holds at most `2k` vertices, so its generalized
/// hypertree width — a lower bound on `shw` — is at least
/// `⌈(n + 1) / 2⌉`. Returns whether that bound proves `shw > k`.
pub fn grid_rules_out(n: usize, k: usize) -> bool {
    (n + 1).div_ceil(2) > k
}

/// Checks a `shw ≤ k` answer on the `n × n` grid against the treewidth
/// bound: an acceptance the bound forbids is wrong.
pub fn grid_decision(n: usize, k: usize, accepted: bool) -> Result<(), String> {
    if accepted && grid_rules_out(n, k) {
        return Err(format!(
            "accepted shw <= {k} on the {n}x{n} grid, whose ghw is at least {}",
            (n + 1).div_ceil(2)
        ));
    }
    Ok(())
}

/// The widths the paper states for its named hypergraphs: `H2` has
/// `shw = 2` and `hw = 3` (Example 1), `H3` has `shw = 3` (Appendix A.2),
/// and every cycle of length at least 4 has width 2.
pub fn known_width(name: &str, class: &str) -> Option<usize> {
    match (name, class) {
        ("h2", "shw") => Some(2),
        ("h2", "hw") => Some(3),
        ("h3", "shw") => Some(3),
        (c, "shw" | "hw") if c.starts_with("cycle") => Some(2),
        _ => None,
    }
}

/// Checks a decision `shw ≤ k` (or an exact width) against
/// [`known_width`] when the paper states one.
pub fn known_decision(name: &str, k: usize, accepted: bool) -> Result<(), String> {
    match known_width(name, "shw") {
        Some(w) if (w <= k) != accepted => Err(format!(
            "{name}: shw is {w}, but shw <= {k} was {}",
            if accepted { "accepted" } else { "rejected" }
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    fn path_decomp() -> (Edges, Decomp) {
        // The 4-cycle 0-1-2-3-0 with bags {0,1,2} - {0,2,3}.
        let h = Edges {
            num_vertices: 4,
            edges: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
        };
        let d = Decomp {
            nodes: vec![(None, vec![0, 1, 2]), (Some(0), vec![0, 2, 3])],
        };
        (h, d)
    }

    #[test]
    fn accepts_a_valid_witness() {
        let (h, d) = path_decomp();
        assert_eq!(witness(&h, &d, 2), Ok(()));
    }

    #[test]
    fn rejects_an_uncovered_edge() {
        let (h, mut d) = path_decomp();
        d.nodes[1].1 = vec![0, 2];
        assert!(tree_decomposition(&h, &d).unwrap_err().contains("edge"));
    }

    #[test]
    fn rejects_a_disconnected_vertex() {
        let (h, mut d) = path_decomp();
        // Vertex 1 in the root and in a grandchild, not in the child.
        d.nodes.push((Some(1), vec![1, 3]));
        assert!(tree_decomposition(&h, &d)
            .unwrap_err()
            .contains("disconnected"));
    }

    #[test]
    fn rejects_a_broken_tree() {
        let (h, mut d) = path_decomp();
        d.nodes[0].0 = Some(1);
        assert!(tree_decomposition(&h, &d).is_err());
        let (h, mut d) = path_decomp();
        d.nodes[1].0 = None;
        assert!(tree_decomposition(&h, &d).unwrap_err().contains("roots"));
    }

    #[test]
    fn rejects_a_bag_too_wide_for_k() {
        let (h, d) = path_decomp();
        // {0,1,2} needs two 2-edges.
        assert!(witness(&h, &d, 1).unwrap_err().contains("cover"));
        let (h, mut d) = path_decomp();
        d.nodes[0].1 = vec![0, 1, 2, 3];
        assert_eq!(witness(&h, &d, 2), Ok(()));
        assert!(edge_cover(&h, &[0, 1, 2, 3], 1).is_none());
    }

    #[test]
    fn connected_cover_needs_touching_edges() {
        // A path 0-1-2 and a far edge 3-4: {0, 3} is covered by two
        // edges, but not by two that meet.
        let h = Edges {
            num_vertices: 5,
            edges: vec![vec![0, 1], vec![1, 2], vec![3, 4]],
        };
        assert!(edge_cover(&h, &[0, 3], 2).is_some());
        assert!(connected_cover(&h, &[0, 3], 2).is_none());
        assert!(connected_cover(&h, &[0, 2], 2).is_some());
        let d = Decomp {
            nodes: vec![(None, vec![0, 1, 2]), (Some(0), vec![3, 4])],
        };
        assert_eq!(concov_witness(&h, &d, 2), Ok(()));
        // {0, 1, 2, 3} is covered by all three edges, which do not meet.
        let d = Decomp {
            nodes: vec![(None, vec![0, 1, 2, 3]), (Some(0), vec![3, 4])],
        };
        assert_eq!(witness(&h, &d, 3), Ok(()));
        assert!(concov_witness(&h, &d, 3).is_err());
    }

    #[test]
    fn checks_a_library_witness() {
        let g = named::cycle(6);
        let (w, td) = softhw_core::shw::shw(&g);
        assert_eq!(w, 2);
        assert_eq!(witness(&Edges::of(&g), &Decomp::of(&td), 2), Ok(()));
        assert!(witness(&Edges::of(&g), &Decomp::of(&td), 1).is_err());
    }

    #[test]
    fn grid_bound_rejects_wrong_acceptances() {
        assert!(grid_rules_out(4, 2));
        assert!(!grid_rules_out(3, 2));
        assert!(grid_decision(6, 2, true).is_err());
        assert_eq!(grid_decision(6, 2, false), Ok(()));
        assert_eq!(grid_decision(3, 2, true), Ok(()));
    }

    #[test]
    fn known_widths_reject_wrong_answers() {
        assert_eq!(known_decision("h3", 3, true), Ok(()));
        assert!(known_decision("h3", 2, true).is_err());
        assert!(known_decision("h2", 2, false).is_err());
        assert!(known_decision("cycle8", 1, true).is_err());
        assert_eq!(known_width("h2", "hw"), Some(3));
        assert_eq!(known_decision("random", 2, true), Ok(()));
    }
}
