//! `PriorityRelation`'s cycle search and path search as they were
//! before they stopped allocating per fact, kept as the oracle for the
//! witnesses the relation reports. Both read the `worse` rows: `worse[f]`
//! lists the facts `g` with `f ≻ g`, in edge order.

use rpr_data::FactId;

/// A cycle, if any: a depth-first search from every fact in id order,
/// with a fresh stack per start.
pub fn find_cycle(worse: &[Vec<FactId>]) -> Option<Vec<FactId>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = worse.len();
    let mut color = vec![WHITE; n];
    let mut parent: Vec<Option<FactId>> = vec![None; n];
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        let mut stack: Vec<(FactId, usize)> = vec![(FactId(start as u32), 0)];
        color[start] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < worse[node.index()].len() {
                let succ = worse[node.index()][*next];
                *next += 1;
                match color[succ.index()] {
                    WHITE => {
                        color[succ.index()] = GRAY;
                        parent[succ.index()] = Some(node);
                        stack.push((succ, 0));
                    }
                    GRAY => {
                        let mut cycle = vec![node];
                        let mut cur = node;
                        while cur != succ {
                            cur = parent[cur.index()].expect("gray chain");
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[node.index()] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

/// A directed path `from ≻ … ≻ to`, if one exists, with a parent
/// vector over the whole universe.
pub fn path_between(worse: &[Vec<FactId>], from: FactId, to: FactId) -> Option<Vec<FactId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<FactId>> = vec![None; worse.len()];
    let mut stack = vec![from];
    parent[from.index()] = Some(from);
    while let Some(node) = stack.pop() {
        for &succ in &worse[node.index()] {
            if parent[succ.index()].is_none() {
                parent[succ.index()] = Some(node);
                if succ == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = parent[cur.index()].expect("reached chain");
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                stack.push(succ);
            }
        }
    }
    None
}
