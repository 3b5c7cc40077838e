//! The benchmark's own arbiter of traversal results: a plain queue BFS and
//! a Graph500-style tree checker, written apart from `bfs_core::serial` and
//! `bfs_core::validate` so that a fault shared by the program and its own
//! oracle cannot pass unseen.
//!
//! Graphs here are symmetric (every generator the benchmark uses emits
//! both directions of each edge), so an edge `(p, v)` is looked up in
//! `v`'s list, which stays short even when `p` is a hub.

use bfs_graph::{CsrGraph, VertexId};

/// Depth of a vertex the traversal did not reach (the engine's sentinel).
pub const UNREACHED: u32 = u32::MAX;
/// Parent of a vertex the traversal did not reach.
pub const NO_PARENT: VertexId = VertexId::MAX;

/// The true answer for one root.
pub struct Reference {
    pub depths: Vec<u32>,
    /// |V′|: vertices reached, the root included.
    pub visited: u64,
    /// |E′|: sum of the degrees of the reached vertices.
    pub edges: u64,
    /// Largest depth reached (the number of BFS levels below the root).
    pub max_depth: u32,
}

/// Serial queue BFS from `root`.
pub fn reference_bfs(g: &CsrGraph, root: VertexId) -> Reference {
    let mut depths = vec![UNREACHED; g.num_vertices()];
    let mut queue: Vec<VertexId> = Vec::with_capacity(g.num_vertices());
    depths[root as usize] = 0;
    queue.push(root);
    let mut head = 0;
    let mut edges = 0u64;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let next = depths[u as usize] + 1;
        let adj = g.neighbors(u);
        edges += adj.len() as u64;
        for &v in adj {
            if depths[v as usize] == UNREACHED {
                depths[v as usize] = next;
                queue.push(v);
            }
        }
    }
    let max_depth = queue.last().map_or(0, |&v| depths[v as usize]);
    Reference {
        depths,
        visited: queue.len() as u64,
        edges,
        max_depth,
    }
}

/// Whether `(u, v)` is an edge of the symmetric graph `g`.
pub fn has_edge(g: &CsrGraph, u: VertexId, v: VertexId) -> bool {
    g.neighbors(v).contains(&u)
}

/// Checks one engine answer against the reference for its root: the
/// counts, every depth, and the Graph500 tree rules for every parent.
pub fn check_answer(
    g: &CsrGraph,
    root: VertexId,
    reference: &Reference,
    depths: &[u32],
    parents: &[VertexId],
    visited: u64,
    edges: u64,
) -> Result<(), String> {
    if visited != reference.visited {
        return Err(format!(
            "root {root}: |V'| {visited}, reference {}",
            reference.visited
        ));
    }
    if edges != reference.edges {
        return Err(format!(
            "root {root}: |E'| {edges}, reference {}",
            reference.edges
        ));
    }
    if depths.len() != reference.depths.len() {
        return Err(format!(
            "root {root}: {} depths for {} vertices",
            depths.len(),
            reference.depths.len()
        ));
    }
    if let Some(v) = (0..depths.len()).find(|&v| depths[v] != reference.depths[v]) {
        return Err(format!(
            "root {root}: vertex {v} at depth {}, reference {}",
            depths[v], reference.depths[v]
        ));
    }
    check_tree(g, root, depths, parents)
}

/// Graph500 tree rules: the root is its own parent at depth 0; every other
/// reached vertex hangs off a reached neighbor exactly one level up; an
/// unreached vertex has no parent.
pub fn check_tree(
    g: &CsrGraph,
    root: VertexId,
    depths: &[u32],
    parents: &[VertexId],
) -> Result<(), String> {
    let n = g.num_vertices();
    if depths.len() != n || parents.len() != n {
        return Err(format!(
            "root {root}: {} depths and {} parents for {n} vertices",
            depths.len(),
            parents.len()
        ));
    }
    if depths[root as usize] != 0 || parents[root as usize] != root {
        return Err(format!(
            "root {root}: root has depth {} and parent {}",
            depths[root as usize], parents[root as usize]
        ));
    }
    for v in 0..n {
        let (d, p) = (depths[v], parents[v]);
        if d == UNREACHED {
            if p != NO_PARENT {
                return Err(format!("root {root}: unreached vertex {v} has parent {p}"));
            }
            continue;
        }
        if v == root as usize {
            continue;
        }
        if p as usize >= n || depths[p as usize] == UNREACHED || depths[p as usize] + 1 != d {
            return Err(format!(
                "root {root}: vertex {v} at depth {d} has parent {p} at the wrong level"
            ));
        }
        if !has_edge(g, p, v as VertexId) {
            return Err(format!(
                "root {root}: parent {p} of vertex {v} is not a neighbor"
            ));
        }
    }
    Ok(())
}

/// Shows, on a hand-built graph, that the reference BFS finds the known
/// depths and that the checker rejects a depth off by one, a parent that
/// is not an edge, and a wrong |E′|. Run at the start of every benchmark
/// run, so a broken checker cannot report a clean result.
pub fn self_test() -> Result<(), String> {
    // 0 - 1 - 2 - 3, 0 - 4 - 2, 4 - 6, and an isolated vertex 5.
    let adj: [&[VertexId]; 7] = [&[1, 4], &[0, 2], &[1, 3, 4], &[2], &[0, 2, 6], &[], &[4]];
    let mut offsets = vec![0u64];
    let mut neighbors = Vec::new();
    for list in adj {
        neighbors.extend_from_slice(list);
        offsets.push(neighbors.len() as u64);
    }
    let g = CsrGraph::from_parts(offsets, neighbors);
    let r = reference_bfs(&g, 0);
    if r.depths != [0, 1, 2, 3, 1, UNREACHED, 2]
        || r.visited != 6
        || r.edges != 12
        || r.max_depth != 3
    {
        return Err(format!(
            "reference BFS: depths {:?}, |V'| {}, |E'| {}",
            r.depths, r.visited, r.edges
        ));
    }
    let parents = [0, 0, 1, 2, 0, NO_PARENT, 4];
    let good = check_answer(&g, 0, &r, &r.depths, &parents, 6, 12);
    if let Err(e) = good {
        return Err(format!("checker rejects a valid answer: {e}"));
    }
    let mut deeper = r.depths.clone();
    deeper[3] += 1;
    let mut not_an_edge = parents;
    not_an_edge[3] = 6; // 6 is one level above 3 but not its neighbor
    let mut shifted = r.depths.clone();
    shifted[3] -= 1;
    let wrong: [(&str, Result<(), String>); 4] = [
        (
            "a depth off by one",
            check_answer(&g, 0, &r, &deeper, &parents, 6, 12),
        ),
        (
            "a parent that is not an edge",
            check_answer(&g, 0, &r, &r.depths, &not_an_edge, 6, 12),
        ),
        (
            "a wrong |E'|",
            check_answer(&g, 0, &r, &r.depths, &parents, 6, 11),
        ),
        (
            "a tree one level short",
            check_tree(&g, 0, &shifted, &parents),
        ),
    ];
    for (what, verdict) in wrong {
        if verdict.is_ok() {
            return Err(format!("checker accepts {what}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_rejects_wrong_answers() {
        super::self_test().unwrap();
    }
}
