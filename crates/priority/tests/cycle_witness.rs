//! The cycle and path witnesses of `PriorityRelation` against the
//! searches they replaced (`reference/`): on random graphs with and
//! without cycles, `PriorityRelation::new` rejects exactly the cyclic
//! edge lists with the old cycle, and `insert_edge` refuses exactly the
//! cycle-closing edges with the old path.

mod reference;

use proptest::prelude::*;
use rpr_data::FactId;
use rpr_priority::{PriorityError, PriorityRelation};

/// The `worse` rows of `edges` over `n` facts, duplicates dropped, as
/// `PriorityRelation::new` lays them out.
fn rows(n: usize, edges: &[(FactId, FactId)]) -> Vec<Vec<FactId>> {
    let mut worse = vec![Vec::new(); n];
    for &(f, g) in edges {
        if !worse[f.index()].contains(&g) {
            worse[f.index()].push(g);
        }
    }
    worse
}

fn relation_rows(p: &PriorityRelation) -> Vec<Vec<FactId>> {
    (0..p.len() as u32).map(|f| p.worse_than(FactId(f)).to_vec()).collect()
}

/// `n` facts and up to `m` random edges; with `down`, only edges from a
/// lower to a higher id, which can never close a cycle.
fn edges(n: usize, raw: &[(usize, usize)], down: bool) -> Vec<(FactId, FactId)> {
    raw.iter()
        .map(|&(a, b)| (a % n, b % n))
        .filter(|&(a, b)| !down || a < b)
        .map(|(a, b)| (FactId(a as u32), FactId(b as u32)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn new_reports_the_old_cycle(
        n in 1usize..40,
        raw in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
        down in any::<bool>(),
    ) {
        let edges = edges(n, &raw, down);
        let want = reference::find_cycle(&rows(n, &edges));
        match PriorityRelation::new(n, edges.iter().copied()) {
            Ok(_) => prop_assert_eq!(want, None),
            Err(PriorityError::Cyclic { cycle }) => prop_assert_eq!(want, Some(cycle)),
            Err(other) => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_edge_reports_the_old_path(
        n in 1usize..40,
        raw in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let mut p = PriorityRelation::empty(n);
        for (f, g) in edges(n, &raw, false) {
            let worse = relation_rows(&p);
            let want = if p.prefers(f, g) { None } else { reference::path_between(&worse, g, f) };
            match p.insert_edge(f, g) {
                Ok(()) => prop_assert_eq!(want, None),
                Err(PriorityError::Cyclic { cycle }) => {
                    prop_assert_eq!(want, Some(cycle));
                    prop_assert_eq!(relation_rows(&p), worse);
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
    }
}
