//! Query homomorphisms, containment and minimization.
//!
//! The classification programme the paper's concluding remarks sketch
//! (preferred consistent query answering) is, in the classical CQA
//! literature, driven by *syntactic* properties of the query — and the
//! canonical toolbox is the Chandra–Merlin machinery implemented here:
//!
//! * [`find_homomorphism`] — a variable mapping from one query to
//!   another that preserves atoms and head variables;
//! * [`is_contained_in`] — `q1 ⊑ q2` iff `q2` maps homomorphically
//!   into `q1` (Chandra–Merlin);
//! * [`minimize`] — the core of a query: a minimal equivalent
//!   subquery, unique up to renaming.

use crate::query::{Atom, ConjunctiveQuery, Term};
use rpr_data::{FxHashMap, Value};

/// A homomorphism: a total map from the variables of the source query
/// to terms (variables or constants) of the target query.
pub type Homomorphism = FxHashMap<u32, Term>;

fn atom_matches(h: &mut Homomorphism, src: &Atom, dst: &Atom) -> Option<Vec<u32>> {
    if src.rel != dst.rel || src.terms.len() != dst.terms.len() {
        return None;
    }
    let mut bound = Vec::new();
    for (s, d) in src.terms.iter().zip(&dst.terms) {
        match s {
            Term::Const(c) => {
                if !matches!(d, Term::Const(c2) if c2 == c) {
                    for v in bound.drain(..) {
                        h.remove(&v);
                    }
                    return None;
                }
            }
            Term::Var(v) => match h.get(v) {
                Some(existing) if existing != d => {
                    for v in bound.drain(..) {
                        h.remove(&v);
                    }
                    return None;
                }
                Some(_) => {}
                None => {
                    h.insert(*v, d.clone());
                    bound.push(*v);
                }
            },
        }
    }
    Some(bound)
}

fn search(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    idx: usize,
    h: &mut Homomorphism,
) -> bool {
    if idx == from.atoms.len() {
        // Head variables must map to the corresponding head variables.
        return from
            .head
            .iter()
            .zip(&to.head)
            .all(|(src, dst)| h.get(src) == Some(&Term::Var(*dst)));
    }
    for dst_atom in &to.atoms {
        if let Some(bound) = atom_matches(h, &from.atoms[idx], dst_atom) {
            if search(from, to, idx + 1, h) {
                return true;
            }
            for v in bound {
                h.remove(&v);
            }
        }
    }
    false
}

/// Finds a homomorphism from `from` into `to` (atom-preserving,
/// head-preserving), if any.
///
/// Requires the two queries to have equally long heads.
pub fn find_homomorphism(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Homomorphism> {
    if from.head.len() != to.head.len() {
        return None;
    }
    let mut h = Homomorphism::default();
    // Pre-seed the head mapping so the search prunes early.
    for (src, dst) in from.head.iter().zip(&to.head) {
        match h.get(src) {
            Some(existing) if existing != &Term::Var(*dst) => return None,
            _ => {
                h.insert(*src, Term::Var(*dst));
            }
        }
    }
    if search(from, to, 0, &mut h) {
        Some(h)
    } else {
        None
    }
}

/// Chandra–Merlin containment: `q1 ⊑ q2` (every answer of `q1` is an
/// answer of `q2`, over all instances) iff `q2` maps into `q1`.
pub fn is_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    find_homomorphism(q2, q1).is_some()
}

/// Query equivalence.
pub fn are_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_contained_in(q1, q2) && is_contained_in(q2, q1)
}

/// Computes the core: repeatedly drops an atom if the shrunken query
/// still maps into… (i.e. stays equivalent). The result is a minimal
/// equivalent subquery.
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.clone();
    loop {
        let mut shrunk = false;
        for i in 0..current.atoms.len() {
            let mut candidate = current.clone();
            candidate.atoms.remove(i);
            // Dropping an atom can only weaken the query (candidate ⊒
            // current is automatic); equivalence needs candidate ⊑
            // current as well.
            if is_contained_in(&candidate, &current) {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Convenience for building constant terms in tests.
pub fn constant(s: &str) -> Term {
    Term::Const(Value::sym(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::atom;
    use rpr_data::{Instance, Signature};

    fn instance() -> Instance {
        let sig = Signature::new([("E", 2)]).unwrap();
        Instance::new(sig)
    }

    /// q(x) ← E(x,y), E(y,z)  vs  q(x) ← E(x,y): the 2-path maps into
    /// the 1-edge query? No — but the 1-edge query maps into the
    /// 2-path, so path ⊑ edge.
    #[test]
    fn containment_of_paths() {
        let i = instance();
        let path2 = ConjunctiveQuery {
            head: vec![0],
            atoms: vec![atom(&i, "E", &["?0", "?1"]), atom(&i, "E", &["?1", "?2"])],
        };
        let edge = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "E", &["?0", "?1"])] };
        assert!(is_contained_in(&path2, &edge));
        assert!(!is_contained_in(&edge, &path2));
        assert!(!are_equivalent(&path2, &edge));
    }

    /// The classic core example: q() ← E(x,y), E(y,x), E(z,z) minimizes
    /// to q() ← E(z,z) (the self-loop absorbs the 2-cycle).
    #[test]
    fn minimization_collapses_redundant_atoms() {
        let i = instance();
        let q = ConjunctiveQuery::boolean(vec![
            atom(&i, "E", &["?0", "?1"]),
            atom(&i, "E", &["?1", "?0"]),
            atom(&i, "E", &["?2", "?2"]),
        ]);
        let m = minimize(&q);
        assert_eq!(m.atoms.len(), 1);
        assert!(are_equivalent(&q, &m));
    }

    #[test]
    fn minimization_keeps_irredundant_queries() {
        let i = instance();
        // A 2-path with both endpoints in the head cannot shrink.
        let q = ConjunctiveQuery {
            head: vec![0, 2],
            atoms: vec![atom(&i, "E", &["?0", "?1"]), atom(&i, "E", &["?1", "?2"])],
        };
        let m = minimize(&q);
        assert_eq!(m.atoms.len(), 2);
    }

    #[test]
    fn head_variables_are_respected() {
        let i = instance();
        // q1(x) ← E(x,x); q2(y) ← E(y,y): isomorphic.
        let q1 = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "E", &["?0", "?0"])] };
        let q2 = ConjunctiveQuery { head: vec![1], atoms: vec![atom(&i, "E", &["?1", "?1"])] };
        assert!(are_equivalent(&q1, &q2));
        // But q3(x) ← E(x,y) is different from q4(y) ← E(x,y).
        let q3 = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "E", &["?0", "?1"])] };
        let q4 = ConjunctiveQuery { head: vec![1], atoms: vec![atom(&i, "E", &["?0", "?1"])] };
        assert!(!are_equivalent(&q3, &q4));
    }

    #[test]
    fn constants_must_match_exactly() {
        let i = instance();
        let qa = ConjunctiveQuery::boolean(vec![atom(&i, "E", &["a", "?0"])]);
        let qb = ConjunctiveQuery::boolean(vec![atom(&i, "E", &["b", "?0"])]);
        let qv = ConjunctiveQuery::boolean(vec![atom(&i, "E", &["?1", "?0"])]);
        assert!(!is_contained_in(&qa, &qb));
        // Variables map onto constants: qa ⊑ qv.
        assert!(is_contained_in(&qa, &qv));
        assert!(!is_contained_in(&qv, &qa));
    }

    #[test]
    fn containment_respects_evaluation() {
        // Semantic sanity: if q1 ⊑ q2 then q1's answers are a subset of
        // q2's on a concrete instance.
        let sig = Signature::new([("E", 2)]).unwrap();
        let mut data = Instance::new(sig);
        for (a, b) in [("1", "2"), ("2", "3"), ("3", "3")] {
            data.insert_named("E", [Value::sym(a), Value::sym(b)]).unwrap();
        }
        let path2 = ConjunctiveQuery {
            head: vec![0],
            atoms: vec![atom(&data, "E", &["?0", "?1"]), atom(&data, "E", &["?1", "?2"])],
        };
        let edge = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&data, "E", &["?0", "?1"])] };
        assert!(is_contained_in(&path2, &edge));
        let a1 = path2.eval(&data);
        let a2 = edge.eval(&data);
        assert!(a1.is_subset(&a2));
    }
}
