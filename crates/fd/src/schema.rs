//! Schemas (§2.2): a signature together with a set of FDs.

use crate::closure::closure;
use crate::cover::{merge_by_lhs, minimal_cover};
use crate::fd::Fd;
use crate::grouping::FdGrouping;
use rpr_data::{AttrSet, DataError, FactContent, Instance, RelId, SigRef};
use std::fmt;

/// A schema `S = (R, Δ)`.
#[derive(Clone)]
pub struct Schema {
    sig: SigRef,
    fds: Vec<Fd>,
    by_rel: Vec<Vec<Fd>>,
}

impl Schema {
    /// Builds a schema, validating that every FD fits its relation.
    ///
    /// # Errors
    /// Fails if an FD mentions attributes outside its relation's arity.
    pub fn new<I: IntoIterator<Item = Fd>>(sig: SigRef, fds: I) -> Result<Self, DataError> {
        let mut by_rel: Vec<Vec<Fd>> = vec![Vec::new(); sig.len()];
        let mut all = Vec::new();
        for fd in fds {
            let arity = sig.arity(fd.rel);
            if !fd.fits_arity(arity) {
                return Err(DataError::BadArity {
                    name: sig.symbol(fd.rel).name().to_owned(),
                    arity,
                });
            }
            by_rel[fd.rel.index()].push(fd);
            all.push(fd);
        }
        Ok(Schema { sig, fds: all, by_rel })
    }

    /// Convenience constructor from `(rel_name, lhs, rhs)` triples.
    ///
    /// # Errors
    /// Fails on unknown relation names or out-of-arity attributes.
    pub fn from_named<'a, I>(sig: SigRef, fds: I) -> Result<Self, DataError>
    where
        I: IntoIterator<Item = (&'a str, &'a [usize], &'a [usize])>,
    {
        let mut resolved = Vec::new();
        for (name, lhs, rhs) in fds {
            let rel = sig.require(name)?;
            resolved.push(Fd::from_attrs(rel, lhs.iter().copied(), rhs.iter().copied()));
        }
        Schema::new(sig, resolved)
    }

    /// The signature.
    pub fn signature(&self) -> &SigRef {
        &self.sig
    }

    /// All FDs.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// The restriction `Δ|R` (§2.2).
    pub fn fds_for(&self, rel: RelId) -> &[Fd] {
        &self.by_rel[rel.index()]
    }

    /// The closure `⟦R.A^Δ⟧`.
    pub fn closure(&self, rel: RelId, attrs: AttrSet) -> AttrSet {
        closure(attrs, self.fds_for(rel))
    }

    /// A minimal cover of `Δ`, computed per relation, with equal
    /// left-hand sides merged for readability.
    pub fn minimal_cover(&self) -> Vec<Fd> {
        let mut out = Vec::new();
        for rel in self.sig.rel_ids() {
            out.extend(merge_by_lhs(&minimal_cover(self.fds_for(rel))));
        }
        out
    }

    /// Do the two facts form a `δ`-conflict for the specific FD `δ`
    /// (§2.2: agree on `A`, disagree somewhere in `B`)?
    pub fn is_delta_conflict<'f, 'g>(
        &self,
        delta: Fd,
        f: impl FactContent<'f>,
        g: impl FactContent<'g>,
    ) -> bool {
        let agree = |attrs: AttrSet| attrs.iter().all(|a| f.get(a) == g.get(a));
        f.rel() == delta.rel && g.rel() == delta.rel && agree(delta.lhs) && !agree(delta.rhs)
    }

    /// Are the two facts conflicting (a `δ`-conflict for some `δ ∈ Δ`)?
    ///
    /// For FD constraints this coincides with `{f, g}` being an
    /// inconsistent pair, and is therefore invariant under replacing `Δ`
    /// by an equivalent FD set.
    pub fn conflicting<'f, 'g>(&self, f: impl FactContent<'f>, g: impl FactContent<'g>) -> bool {
        f.rel() == g.rel() && self.fds_for(f.rel()).iter().any(|&d| self.is_delta_conflict(d, f, g))
    }

    /// Does the instance satisfy `Δ` (§2.2)? It does iff no lhs group
    /// of any FD's grouping holds two rhs blocks.
    pub fn is_consistent(&self, instance: &Instance) -> bool {
        self.sig.rel_ids().all(|rel| {
            FdGrouping::for_relation(self, instance, rel)
                .all(|g| (0..g.group_count()).all(|k| g.group(k).len() < 2))
        })
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema[{}; ", self.sig)?;
        for (i, fd) in self.fds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", fd.display(&self.sig))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Fact, Signature, Value};

    fn running_schema() -> Schema {
        // Example 2.2: BookLoc:1→2, LibLoc:1→2, LibLoc:2→1.
        let sig = Signature::new([("BookLoc", 3), ("LibLoc", 2)]).unwrap();
        Schema::from_named(
            sig,
            [
                ("BookLoc", &[1][..], &[2][..]),
                ("LibLoc", &[1][..], &[2][..]),
                ("LibLoc", &[2][..], &[1][..]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn restriction_per_relation() {
        let s = running_schema();
        let b = s.signature().rel_id("BookLoc").unwrap();
        let l = s.signature().rel_id("LibLoc").unwrap();
        assert_eq!(s.fds_for(b).len(), 1);
        assert_eq!(s.fds_for(l).len(), 2);
    }

    #[test]
    fn fd_outside_arity_rejected() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let r = sig.rel_id("R").unwrap();
        assert!(Schema::new(sig, [Fd::from_attrs(r, [1], [3])]).is_err());
    }

    #[test]
    fn delta_conflicts_of_the_running_example() {
        // Example 2.2: {g1f1, f1d3} is a δ1-conflict; {d1a, g2a} a δ3-conflict.
        let s = running_schema();
        let sig = s.signature();
        let g1f1 = Fact::parse_new(sig, "BookLoc", ["b1".into(), "fiction".into(), "lib1".into()])
            .unwrap();
        let f1d3 =
            Fact::parse_new(sig, "BookLoc", ["b1".into(), "drama".into(), "lib3".into()]).unwrap();
        let d1a = Fact::parse_new(sig, "LibLoc", ["lib1".into(), "almaden".into()]).unwrap();
        let g2a = Fact::parse_new(sig, "LibLoc", ["lib2".into(), "almaden".into()]).unwrap();
        assert!(s.conflicting(&g1f1, &f1d3));
        assert!(s.conflicting(&d1a, &g2a));
        assert!(!s.conflicting(&g1f1, &d1a)); // different relations
        let delta1 = s.fds_for(sig.rel_id("BookLoc").unwrap())[0];
        assert!(s.is_delta_conflict(delta1, &g1f1, &f1d3));
        assert!(!s.is_delta_conflict(delta1, &g1f1, &g1f1));
    }

    #[test]
    fn consistency_check() {
        let s = running_schema();
        let mut i = Instance::new(s.signature().clone());
        i.insert_named("LibLoc", [Value::sym("lib1"), Value::sym("almaden")]).unwrap();
        i.insert_named("LibLoc", [Value::sym("lib2"), Value::sym("bascom")]).unwrap();
        assert!(s.is_consistent(&i));
        i.insert_named("LibLoc", [Value::sym("lib1"), Value::sym("edenvale")]).unwrap();
        assert!(!s.is_consistent(&i));
    }

    #[test]
    fn minimal_cover_merges() {
        let s = running_schema();
        let cover = s.minimal_cover();
        assert_eq!(cover.len(), 3);
    }
}
