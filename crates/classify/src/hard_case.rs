//! The §5.2 case branching for hard relations.
//!
//! When `Δ|R` is equivalent to neither a single FD nor two keys, the
//! hardness proof reduces from one of the six concrete schemas of
//! Example 3.4, chosen by this case analysis:
//!
//! * **Case 1**: `Δ` is equivalent to a set of `k ≥ 3` keys.
//! * Otherwise, fix a minimal determiner `A` that is not a key and a
//!   minimal non-redundant determiner `B ≠ A`, and with
//!   `A⁺ = ⟦R.A^Δ⟧`, `Â = A⁺ \ A`, `B⁺ = ⟦R.B^Δ⟧`, `B̂ = B⁺ \ B`:
//!   - **Case 2**: `A⁺ = B⁺`;
//!   - **Case 3**: `B⁺ ⊄ A⁺`, `A ∩ B̂ ≠ ∅`, `Â ∩ B ≠ ∅`;
//!   - **Case 4**: `B⁺ ⊄ A⁺`, `A ∩ B̂ ≠ ∅`, `Â ∩ B = ∅`;
//!   - **Case 5**: `B⁺ ⊄ A⁺`, `A ∩ B̂ = ∅`, `B̂ ⊆ Â`;
//!   - **Case 6**: `B⁺ ⊄ A⁺`, `A ∩ B̂ = ∅`, `B̂ ⊄ Â`;
//!   - **Case 7**: `A⁺ ⊄ B⁺` (the remaining possibility; symmetric).
//!
//! The tractable/hard *decision* is polynomial (§6); identifying the
//! hard case is diagnostic machinery and may enumerate attribute
//! subsets (exponential in the arity, which is fine for the arities the
//! reductions target).

use crate::relation_class::HardCase;
use rpr_data::AttrSet;
use rpr_engine::{Budget, Outcome, Stop};
use rpr_fd::{
    as_key_set, closure, hard_case_witnesses, is_nonredundant_determiner, minimal_determiners,
    relevant_attrs, Fd,
};

/// Determines which §5.2 case a hard relation falls into.
///
/// Precondition: `fds` is equivalent to neither a single FD nor two
/// keys (i.e. the relation is on the hard side of Theorem 3.1). If the
/// precondition is violated the function may return `None`.
pub fn diagnose_hard_case(fds: &[Fd], arity: usize) -> Option<HardCase> {
    // Case 1: equivalent to a set of keys (which then must have ≥ 3
    // members, since ≤ 2 would be on the tractable side).
    if let Some(keys) = as_key_set(fds, arity) {
        if keys.len() >= 3 {
            return Some(HardCase::ThreeOrMoreKeys(keys));
        }
        // 1 or 2 keys ⇒ tractable; precondition violated.
        return None;
    }

    let (a, b) = hard_case_witnesses(fds, arity)?;
    let a_plus = closure(a, fds);
    let b_plus = closure(b, fds);
    let a_hat = a_plus.difference(a);
    let b_hat = b_plus.difference(b);

    if a_plus == b_plus {
        return Some(HardCase::Case2 { a, b });
    }
    if !b_plus.is_subset(a_plus) {
        let a_meets_bhat = !a.is_disjoint(b_hat);
        let ahat_meets_b = !a_hat.is_disjoint(b);
        return Some(match (a_meets_bhat, ahat_meets_b) {
            (true, true) => HardCase::Case3 { a, b },
            (true, false) => HardCase::Case4 { a, b },
            (false, _) => {
                if b_hat.is_subset(a_hat) {
                    HardCase::Case5 { a, b }
                } else {
                    HardCase::Case6 { a, b }
                }
            }
        });
    }
    // B⁺ ⊊ A⁺, hence A⁺ ⊄ B⁺: Case 7.
    Some(HardCase::Case7 { a, b })
}

/// [`diagnose_hard_case`] under a caller-supplied [`Budget`].
///
/// The case *decision* is polynomial, but the `B` witness search may
/// enumerate attribute subsets; on wide schemas that enumeration is the
/// one place the diagnosis can blow up. This variant charges one work
/// unit per candidate subset examined and observes the budget's
/// deadline and cancellation token, degrading to
/// [`Outcome::Exceeded`]/[`Outcome::Cancelled`] instead of running up
/// to the fixed closure cap (`rpr_fd::determiners::WITNESS_BUDGET`) that
/// [`diagnose_hard_case`] stops at. Under an unlimited budget the
/// result is identical to [`diagnose_hard_case`].
pub fn diagnose_hard_case_bounded(
    fds: &[Fd],
    arity: usize,
    budget: &Budget,
) -> Outcome<Option<HardCase>> {
    if let Some(keys) = as_key_set(fds, arity) {
        if keys.len() >= 3 {
            return Outcome::Done(Some(HardCase::ThreeOrMoreKeys(keys)));
        }
        return Outcome::Done(None);
    }
    let (a, b) = match hard_case_witnesses_bounded(fds, arity, budget) {
        Ok(Some(pair)) => pair,
        Ok(None) => return Outcome::Done(None),
        Err(stop) => return Outcome::from_stop(stop, None),
    };
    let a_plus = closure(a, fds);
    let b_plus = closure(b, fds);
    let a_hat = a_plus.difference(a);
    let b_hat = b_plus.difference(b);

    Outcome::Done(Some(if a_plus == b_plus {
        HardCase::Case2 { a, b }
    } else if !b_plus.is_subset(a_plus) {
        match (!a.is_disjoint(b_hat), !a_hat.is_disjoint(b)) {
            (true, true) => HardCase::Case3 { a, b },
            (true, false) => HardCase::Case4 { a, b },
            (false, _) => {
                if b_hat.is_subset(a_hat) {
                    HardCase::Case5 { a, b }
                } else {
                    HardCase::Case6 { a, b }
                }
            }
        }
    } else {
        HardCase::Case7 { a, b }
    }))
}

/// The §5.2 witness search under an engine budget: a minimal non-key
/// determiner `A`, then the size-ordered scan for the non-redundant
/// `B ≠ A`, charging one unit per candidate subset. The scan order is
/// exactly [`rpr_fd::hard_case_witnesses`]' (combinations of the sorted
/// relevant attributes, smallest size first, lexicographic within a
/// size), so both paths return the same witness pair.
fn hard_case_witnesses_bounded(
    fds: &[Fd],
    arity: usize,
    budget: &Budget,
) -> Result<Option<(AttrSet, AttrSet)>, Stop> {
    let full = AttrSet::full(arity);
    let Some(a) = minimal_determiners(fds, arity).into_iter().find(|&a| closure(a, fds) != full)
    else {
        return Ok(None);
    };
    let universe: Vec<usize> = relevant_attrs(fds).iter().collect();
    for size in 0..=universe.len() {
        let mut chosen = vec![0usize; size];
        if let Some(b) =
            combos_find(&universe, size, 0, &mut chosen, 0, &mut |combo| -> Result<_, Stop> {
                budget.step()?;
                let b = AttrSet::from_attrs(combo.iter().copied());
                Ok((b != a && is_nonredundant_determiner(b, fds)).then_some(b))
            })?
        {
            return Ok(Some((a, b)));
        }
    }
    Ok(None)
}

/// Lexicographic k-combinations of `pool`, stopping at the first
/// combination `f` accepts (or the first budget stop `f` raises).
fn combos_find(
    pool: &[usize],
    size: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    depth: usize,
    f: &mut impl FnMut(&[usize]) -> Result<Option<AttrSet>, Stop>,
) -> Result<Option<AttrSet>, Stop> {
    if depth == size {
        return f(&chosen[..size]);
    }
    for i in start..pool.len() {
        chosen[depth] = pool[i];
        if let Some(found) = combos_find(pool, size, i + 1, chosen, depth + 1, f)? {
            return Ok(Some(found));
        }
    }
    Ok(None)
}

/// Convenience wrapper exposing the `(A, B, A⁺, Â, B⁺, B̂)` tuple for
/// diagnostics and the experiment harness.
pub fn case_witness_detail(
    fds: &[Fd],
    arity: usize,
) -> Option<(AttrSet, AttrSet, AttrSet, AttrSet, AttrSet, AttrSet)> {
    let (a, b) = hard_case_witnesses(fds, arity)?;
    let a_plus = closure(a, fds);
    let b_plus = closure(b, fds);
    Some((a, b, a_plus, a_plus.difference(a), b_plus, b_plus.difference(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::RelId;

    const R: RelId = RelId(0);

    fn fd(lhs: &[usize], rhs: &[usize]) -> Fd {
        Fd::from_attrs(R, lhs.iter().copied(), rhs.iter().copied())
    }

    /// Each Si of Example 3.4 must land in Case i — that is how the
    /// paper chose them ("In Cases 2–6 we show reductions … from the
    /// schemas Si for i = 2, …, 6").
    #[test]
    fn the_six_schemas_land_in_their_cases() {
        // S1 = {{1,2}→3, {1,3}→2, {2,3}→1}.
        let s1 = [fd(&[1, 2], &[3]), fd(&[1, 3], &[2]), fd(&[2, 3], &[1])];
        assert_eq!(diagnose_hard_case(&s1, 3).unwrap().number(), 1);

        // S2 = {1→2, 2→1} over ternary: A={1}, B={2}, A⁺=B⁺={1,2}.
        let s2 = [fd(&[1], &[2]), fd(&[2], &[1])];
        assert_eq!(diagnose_hard_case(&s2, 3).unwrap().number(), 2);

        // S3 = {{1,2}→3, 3→2}: A={3} (minimal determiner, closure {2,3},
        // not a key), B={1,2}? B must be non-redundant minimal ≠ A.
        let s3 = [fd(&[1, 2], &[3]), fd(&[3], &[2])];
        assert_eq!(diagnose_hard_case(&s3, 3).unwrap().number(), 3);

        // S4 = {1→2, 2→3}: A={2} (closure {2,3}, not key), B={1} (key).
        // B⁺={1,2,3} ⊄ A⁺={2,3}; A∩B̂ = {2}∩{2,3} ≠ ∅; Â∩B = {3}∩{1} = ∅.
        let s4 = [fd(&[1], &[2]), fd(&[2], &[3])];
        assert_eq!(diagnose_hard_case(&s4, 3).unwrap().number(), 4);

        // S5 = {1→3, 2→3}: A={1}, B={2}; A⁺={1,3}, B⁺={2,3};
        // B⁺ ⊄ A⁺; A∩B̂ = {1}∩{3} = ∅; B̂={3} ⊆ Â={3}.
        let s5 = [fd(&[1], &[3]), fd(&[2], &[3])];
        assert_eq!(diagnose_hard_case(&s5, 3).unwrap().number(), 5);

        // S6 = {∅→1, 2→3}: A=∅, B={2}; A⁺={1}, B⁺={2,3};
        // B⁺ ⊄ A⁺; A∩B̂ = ∅ (A empty); B̂={3} ⊄ Â={1}.
        let s6 = [fd(&[], &[1]), fd(&[2], &[3])];
        assert_eq!(diagnose_hard_case(&s6, 3).unwrap().number(), 6);
    }

    #[test]
    fn case7_is_reachable() {
        // Build Δ with A⁺ ⊋ B⁺: need the minimal non-key determiner A
        // to reach strictly more than B. Take Δ = {1→{2,3}, 2→3} over
        // arity 4: minimal determiners {1},{2}; {1} not a key
        // (closure {1,2,3} ≠ {1,2,3,4}) → A={1}, A⁺={1,2,3}.
        // Non-redundant determiners ≠ A minimal: {2} (gain {3} not from ∅).
        // B={2}, B⁺={2,3} ⊊ A⁺ → Case 7.
        let fds = [fd(&[1], &[2, 3]), fd(&[2], &[3])];
        let hc = diagnose_hard_case(&fds, 4).unwrap();
        assert_eq!(hc.number(), 7);
    }

    #[test]
    fn tractable_inputs_return_none() {
        // Single fd.
        assert!(diagnose_hard_case(&[fd(&[1], &[2])], 3).is_none());
        // Two keys.
        let two = [fd(&[1], &[2]), fd(&[2], &[1])];
        assert!(diagnose_hard_case(&two, 2).is_none());
        // Empty.
        assert!(diagnose_hard_case(&[], 3).is_none());
    }

    #[test]
    fn bounded_diagnosis_matches_unbounded_on_every_case() {
        let cases: Vec<(Vec<Fd>, usize)> = vec![
            (vec![fd(&[1, 2], &[3]), fd(&[1, 3], &[2]), fd(&[2, 3], &[1])], 3),
            (vec![fd(&[1], &[2]), fd(&[2], &[1])], 3),
            (vec![fd(&[1, 2], &[3]), fd(&[3], &[2])], 3),
            (vec![fd(&[1], &[2]), fd(&[2], &[3])], 3),
            (vec![fd(&[1], &[3]), fd(&[2], &[3])], 3),
            (vec![fd(&[], &[1]), fd(&[2], &[3])], 3),
            (vec![fd(&[1], &[2, 3]), fd(&[2], &[3])], 4),
            (vec![fd(&[1], &[2])], 3),
            (vec![], 3),
        ];
        for (fds, arity) in cases {
            let unbounded = diagnose_hard_case(&fds, arity);
            let bounded = diagnose_hard_case_bounded(&fds, arity, &Budget::unlimited())
                .expect_done("unlimited budget");
            assert_eq!(bounded, unbounded, "divergence on {fds:?}");
        }
    }

    #[test]
    fn bounded_diagnosis_degrades_on_tight_budgets() {
        // S4 needs the B subset scan; one work unit is not enough.
        let s4 = [fd(&[1], &[2]), fd(&[2], &[3])];
        let tight = Budget::unlimited().with_max_work(1);
        assert!(matches!(diagnose_hard_case_bounded(&s4, 3, &tight), Outcome::Exceeded { .. }));
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        assert!(matches!(
            diagnose_hard_case_bounded(&s4, 3, &cancelled),
            Outcome::Cancelled { .. }
        ));
        // Case 1 decides without the subset scan: immune to the budget.
        let s1 = [fd(&[1, 2], &[3]), fd(&[1, 3], &[2]), fd(&[2, 3], &[1])];
        assert!(diagnose_hard_case_bounded(&s1, 3, &tight).is_done());
    }

    #[test]
    fn witness_detail_consistency() {
        let s4 = [fd(&[1], &[2]), fd(&[2], &[3])];
        let (a, b, a_plus, a_hat, b_plus, b_hat) = case_witness_detail(&s4, 3).unwrap();
        assert_eq!(a_plus, closure(a, &s4));
        assert_eq!(b_plus, closure(b, &s4));
        assert_eq!(a_hat, a_plus.difference(a));
        assert_eq!(b_hat, b_plus.difference(b));
    }
}
