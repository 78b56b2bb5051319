//! Verdict certificates: machine-checkable witnesses for every answer.
//!
//! A [`Certificate`] packages, next to a verdict, exactly the evidence
//! an *independent* checker needs to re-validate it without trusting
//! any production code path:
//!
//! * [`CheckOutcome::Inconsistent`] carries the conflicting pair — the
//!   auditor re-evaluates the violated FD on the two tuples;
//! * [`CheckOutcome::Improvable`] carries an [`ImprovementWitness`]:
//!   the improved set `to` plus, for every lost fact, a gained fact
//!   that beats it (the §2.3 definition of a global improvement is
//!   checkable fact-by-fact);
//! * [`CheckOutcome::Optimal`] carries a maximality cover (a blocker
//!   in `J` for every fact outside `J`) and, for every Lemma 4.2 group
//!   of every single-FD relation, a [`BlockEvidence`] proving no block
//!   swap `J[f ↔ g]` improves `J`. When the whole schema is on the
//!   single-FD side of Theorem 3.1 (and priorities are
//!   conflict-restricted), Lemma 4.2 makes this a *complete* proof of
//!   global optimality ([`OptimalScope::Complete`]); otherwise the
//!   certificate still proves `J` is a repair but the optimality claim
//!   rests on the classification ([`OptimalScope::RepairOnly`]) —
//!   coNP-hardness rules out small witnesses there.
//!
//! Every certificate also embeds a [`ClassificationCert`]: the
//! Theorem 3.1 / 7.1 case per relation, including the §5.2 hard-case
//! gadget pair `(A, B)`, which the auditor re-derives from the FD list
//! with its own closure fixpoint.
//!
//! Serialization lives in `rpr-format::certificate_json`; the
//! independent validator is the dependency-free `rpr-audit` crate.

use crate::global_1fd::{beaten_by, FdBlocks};
use crate::improvement::CheckOutcome;
use crate::session::{CheckSession, Plan};
use rpr_classify::{CcpClass, RelationClass};
use rpr_data::{FactId, FactSet, RelId};
use rpr_fd::Fd;
use rpr_priority::PriorityMode;

/// The dichotomy classification restated as evidence: which case each
/// relation (or the whole schema, for ccp) falls under.
#[derive(Clone, Debug)]
pub enum ClassificationCert {
    /// Conflict-restricted priorities: the Theorem 3.1 class per
    /// relation, in signature order.
    Classical(Vec<(RelId, RelationClass)>),
    /// Cross-conflict priorities: the Theorem 7.1 class of the schema.
    Ccp(CcpClass),
}

/// Witness that a candidate is *not* globally optimal: the improved
/// set, plus one beating fact per lost fact (§2.3).
#[derive(Clone, Debug)]
pub struct ImprovementWitness {
    /// The candidate `J` the verdict is about (sorted fact ids).
    pub from: Vec<FactId>,
    /// The improving set `J'` (sorted fact ids). The auditor re-checks
    /// consistency of `J'` with its own naive FD evaluation.
    pub to: Vec<FactId>,
    /// For every lost fact `f' ∈ J \ J'`, a gained fact `g ∈ J' \ J`
    /// with `g ≻ f'` — the edge is looked up in the embedded priority.
    pub justification: Vec<(FactId, FactId)>,
}

/// Per-group evidence that no Lemma 4.2 block swap improves `J`, for
/// one relation on the single-FD side of Theorem 3.1.
#[derive(Clone, Debug)]
pub struct BlockEvidence {
    /// The relation the group belongs to.
    pub rel: RelId,
    /// The single FD `A → B` the relation's `Δ|R` is equivalent to.
    pub fd: Fd,
    /// The group's minimal fact id — the auditor recomputes the group
    /// (facts agreeing on `A`) and its blocks (agreeing on `B`) from
    /// the embedded fact table.
    pub group: FactId,
    /// `J ∩ group`, which consistency of `J` confines to one block.
    pub consistency: Vec<FactId>,
    /// For every *other* block of the group (identified by its minimal
    /// member), a fact `u ∈ J ∩ group` that no member of that block
    /// beats — so the swap `J[u ↔ block]` is not an improvement.
    pub maximality: Vec<(FactId, FactId)>,
}

/// How much of the `Optimal` verdict the evidence covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimalScope {
    /// Consistency, maximality, *and* optimality are fully witnessed:
    /// every relation is single-FD under conflict-restricted
    /// priorities, so Lemma 4.2's swap space is exhaustive.
    Complete,
    /// Consistency and maximality are fully witnessed ("`J` is a
    /// repair"); optimality is attested by the classification because
    /// the coNP-hard (or two-keys / ccp) side admits no small witness.
    RepairOnly,
}

/// The evidence attached to one verdict.
#[derive(Clone, Debug)]
pub enum CertVerdict {
    /// The candidate violates an FD: `f` and `g` conflict.
    Inconsistent {
        /// First fact of the conflicting pair.
        f: FactId,
        /// Second fact of the conflicting pair.
        g: FactId,
    },
    /// The candidate admits a global improvement.
    Improvable(ImprovementWitness),
    /// The candidate is a globally-optimal repair (to the stated
    /// scope).
    Optimal {
        /// What the evidence proves; see [`OptimalScope`].
        scope: OptimalScope,
        /// For every fact outside `J`, a conflicting fact inside `J` —
        /// together with consistency this proves `J` is a repair.
        maximality: Vec<(FactId, FactId)>,
        /// Per-group no-improving-swap evidence for single-FD
        /// relations.
        blocks: Vec<BlockEvidence>,
    },
}

/// The check-specific half of a certificate.
#[derive(Clone, Debug)]
pub struct CheckCert {
    /// The candidate set the verdict is about (sorted fact ids).
    pub candidate: Vec<FactId>,
    /// The verdict plus its evidence.
    pub verdict: CertVerdict,
}

/// A self-contained, machine-checkable certificate. The serialized
/// form embeds the schema, fact table, and priority edges too, so the
/// auditor needs no other inputs.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The priority mode the session dispatched under.
    pub mode: PriorityMode,
    /// The dichotomy classification evidence.
    pub classification: ClassificationCert,
    /// Verdict evidence; `None` for a classification-only certificate.
    pub check: Option<CheckCert>,
}

impl CheckSession<'_> {
    /// Builds the classification half of a certificate from the cached
    /// plan.
    fn classification_cert(&self) -> ClassificationCert {
        match self.artifacts().plan() {
            Plan::Classical(class) => ClassificationCert::Classical(class.per_relation().to_vec()),
            Plan::Ccp(class) => ClassificationCert::Ccp(class.clone()),
        }
    }

    /// A certificate carrying only the dichotomy classification (the
    /// `/classify` analogue of a verdict certificate).
    pub fn certify_classification(&self) -> Certificate {
        Certificate { mode: self.mode(), classification: self.classification_cert(), check: None }
    }

    /// Packages `outcome` — a verdict this session produced for the
    /// candidate `j` — with the evidence an independent auditor
    /// re-validates.
    ///
    /// # Panics
    /// Panics if `outcome` is not a verdict this session would produce
    /// for `j` (e.g. an `Optimal` for an improvable candidate): the
    /// evidence search relies on the verdict being correct, and
    /// refusing to certify beats certifying a lie.
    pub fn certify(&self, j: &FactSet, outcome: &CheckOutcome) -> Certificate {
        let verdict = match outcome {
            CheckOutcome::Inconsistent(f, g) => CertVerdict::Inconsistent { f: *f, g: *g },
            CheckOutcome::Improvable(imp) => {
                let j2 = imp.apply(j);
                let lost = j.difference(&j2);
                let gained = j2.difference(j);
                let priority = self.priority();
                let justification = lost
                    .iter()
                    .map(|f_prime| {
                        let g = gained
                            .iter()
                            .find(|&g| priority.prefers(g, f_prime))
                            .expect("global improvements beat every lost fact");
                        (f_prime, g)
                    })
                    .collect();
                CertVerdict::Improvable(ImprovementWitness {
                    from: j.iter().collect(),
                    to: j2.iter().collect(),
                    justification,
                })
            }
            CheckOutcome::Optimal => self.optimal_evidence(j),
        };
        Certificate {
            mode: self.mode(),
            classification: self.classification_cert(),
            check: Some(CheckCert { candidate: j.iter().collect(), verdict }),
        }
    }

    fn optimal_evidence(&self, j: &FactSet) -> CertVerdict {
        let art = self.artifacts();
        // Maximality cover: J is maximal, so every outside fact has a
        // conflict partner inside J.
        let maximality: Vec<(FactId, FactId)> = self
            .instance()
            .fact_ids()
            .filter(|f| !j.contains(*f))
            .map(|f| {
                let blocker = art
                    .csr_graph()
                    .first_conflict_in(f, j)
                    .expect("optimal candidates are maximal");
                (f, blocker)
            })
            .collect();

        let mut blocks = Vec::new();
        let mut all_single_fd = true;
        match art.plan() {
            Plan::Classical(class) => {
                for (rel, rc) in class.per_relation() {
                    let RelationClass::SingleFd(_) = rc else {
                        all_single_fd = false;
                        continue;
                    };
                    let fb = art.rel_blocks()[rel.index()]
                        .as_ref()
                        .expect("blocks cached for every single-FD relation");
                    blocks.extend(self.group_evidence(*rel, fb, j));
                }
            }
            Plan::Ccp(_) => all_single_fd = false,
        }
        let scope = if all_single_fd && self.mode() == PriorityMode::ConflictRestricted {
            OptimalScope::Complete
        } else {
            OptimalScope::RepairOnly
        };
        CertVerdict::Optimal { scope, maximality, blocks }
    }

    /// Evidence for every multi-block group of one single-FD relation:
    /// the selected block of `J` and, per alternative block, a selected
    /// fact the alternative cannot beat.
    fn group_evidence(&self, rel: RelId, fb: &FdBlocks, j: &FactSet) -> Vec<BlockEvidence> {
        let priority = self.priority();
        let mut out = Vec::new();
        for g in 0..fb.group_count() {
            let blocks = fb.group(g);
            if blocks.len() < 2 {
                continue; // single-block groups admit no swap
            }
            // J is a repair, so every group has J-members and they all
            // sit in one block.
            let Some(bf) = blocks.clone().find(|&b| fb.block(b).iter().any(|id| j.contains(*id)))
            else {
                continue;
            };
            let selected: Vec<FactId> =
                fb.block(bf).iter().copied().filter(|id| j.contains(*id)).collect();
            let maximality = blocks
                .clone()
                .filter(|&b| b != bf)
                .map(|b| {
                    let block = fb.block(b);
                    let unbeaten = selected
                        .iter()
                        .copied()
                        .find(|&u| !beaten_by(priority, block, u))
                        .expect("optimal verdicts admit no improving block swap");
                    (block[0], unbeaten)
                })
                .collect();
            let group = blocks.map(|b| fb.block(b)[0]).min().expect("groups are nonempty");
            out.push(BlockEvidence { rel, fd: fb.fd(), group, consistency: selected, maximality });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::Schema;
    use rpr_priority::{PrioritizedInstance, PriorityRelation};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn bookloc() -> (Schema, Instance, PriorityRelation) {
        let sig = Signature::new([("BookLoc", 3)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("BookLoc", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in [
            ("b1", "fiction", "lib1"),
            ("b1", "fiction", "lib2"),
            ("b1", "drama", "lib3"),
            ("b2", "poetry", "lib1"),
            ("b3", "horror", "lib2"),
        ] {
            i.insert_named("BookLoc", [v(a), v(b), v(c)]).unwrap();
        }
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(2)), (FactId(1), FactId(2))])
            .unwrap();
        (schema, i, p)
    }

    #[test]
    fn optimal_certificates_carry_full_evidence() {
        let (schema, i, p) = bookloc();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi);
        let j = i.set_of([0, 1, 3, 4].map(FactId));
        let outcome = session.check(&j);
        assert!(outcome.is_optimal());
        let cert = session.certify(&j, &outcome);
        let check = cert.check.as_ref().unwrap();
        assert_eq!(check.candidate, vec![FactId(0), FactId(1), FactId(3), FactId(4)]);
        let CertVerdict::Optimal { scope, maximality, blocks } = &check.verdict else {
            panic!("expected optimal verdict");
        };
        assert_eq!(*scope, OptimalScope::Complete);
        // The only excluded fact (f1d3 = id 2) is blocked.
        assert_eq!(maximality.as_slice(), &[(FactId(2), FactId(0))]);
        // One multi-block group: b1 with blocks {0,1} and {2}.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].consistency, vec![FactId(0), FactId(1)]);
        assert_eq!(blocks[0].maximality, vec![(FactId(2), FactId(0))]);
    }

    #[test]
    fn improvable_certificates_justify_every_lost_fact() {
        let (schema, i, p) = bookloc();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi);
        let j = i.set_of([2, 3, 4].map(FactId));
        let outcome = session.check(&j);
        let cert = session.certify(&j, &outcome);
        let CertVerdict::Improvable(w) = &cert.check.unwrap().verdict else {
            panic!("expected improvable");
        };
        assert_eq!(w.from, vec![FactId(2), FactId(3), FactId(4)]);
        // Every lost fact is justified by a gained, preferred fact.
        let lost: Vec<FactId> = w.from.iter().copied().filter(|f| !w.to.contains(f)).collect();
        assert_eq!(lost.len(), w.justification.len());
        for (f_prime, g) in &w.justification {
            assert!(lost.contains(f_prime));
            assert!(w.to.contains(g) && !w.from.contains(g));
            assert!(pi.priority().prefers(*g, *f_prime));
        }
    }

    #[test]
    fn inconsistent_certificates_name_the_pair() {
        let (schema, i, p) = bookloc();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
        let session = CheckSession::new(&schema, &pi);
        let j = i.set_of([0, 2].map(FactId));
        let outcome = session.check(&j);
        let cert = session.certify(&j, &outcome);
        match cert.check.unwrap().verdict {
            CertVerdict::Inconsistent { f, g } => assert_eq!((f, g), (FactId(0), FactId(2))),
            other => panic!("expected inconsistent, got {other:?}"),
        }
    }
}
