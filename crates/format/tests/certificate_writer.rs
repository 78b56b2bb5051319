//! The certificate writer against the allocating writer it replaced
//! (`oracle`, kept as it was): the same bytes for every certificate of
//! small workspaces built from awkward values — `i64::MIN`/`MAX`,
//! negatives, the empty symbol, quotes, backslashes, control
//! characters, multibyte text and nested pairs, under an awkward
//! relation name — in both priority modes, for the classification and
//! for every verdict the checker reaches.

use proptest::prelude::*;
use rpr_core::{Budget, CheckSession, Outcome};
use rpr_data::{Fact, FactId, Signature, Tuple, Value};
use rpr_fd::{Fd, Schema};
use rpr_format::{render_certificate, Workspace};
use rpr_priority::{PriorityMode, PriorityRelation};
use std::collections::HashSet;

mod oracle {
    use rpr_classify::{CcpClass, HardCase, RelationClass};
    use rpr_core::certificate::{
        BlockEvidence, CertVerdict, Certificate, ClassificationCert, OptimalScope,
    };
    use rpr_data::{AttrSet, FactId, Instance, Value};
    use rpr_fd::Schema;
    use rpr_priority::{PriorityMode, PriorityRelation};

    const CERT_V: u64 = 1;

    /// Appends the tagged injective encoding of one tuple value.
    ///
    /// `i<decimal>` (ints), `s<len>:<bytes>` (symbols, length-prefixed so
    /// arbitrary content cannot collide), `p(<enc>,<enc>)` (pairs).
    fn encode_value(v: &Value, out: &mut String) {
        match v {
            Value::Int(i) => {
                out.push('i');
                out.push_str(&i.to_string());
            }
            Value::Sym(s) => {
                out.push('s');
                out.push_str(&s.len().to_string());
                out.push(':');
                out.push_str(s);
            }
            Value::Pair(p) => {
                out.push_str("p(");
                encode_value(&p.0, out);
                out.push(',');
                encode_value(&p.1, out);
                out.push(')');
            }
        }
    }

    fn push_json_str(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn push_attrs(attrs: AttrSet, out: &mut String) {
        out.push('[');
        for (i, a) in attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push(']');
    }

    fn push_ids(ids: &[FactId], out: &mut String) {
        out.push('[');
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.0.to_string());
        }
        out.push(']');
    }

    fn push_pairs(pairs: &[(FactId, FactId)], out: &mut String) {
        out.push('[');
        for (i, (a, b)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&a.0.to_string());
            out.push(',');
            out.push_str(&b.0.to_string());
            out.push(']');
        }
        out.push(']');
    }

    fn push_relation_class(class: &RelationClass, out: &mut String) {
        match class {
            RelationClass::SingleFd(fd) => {
                out.push_str("{\"kind\":\"single_fd\",\"lhs\":");
                push_attrs(fd.lhs, out);
                out.push_str(",\"rhs\":");
                push_attrs(fd.rhs, out);
                out.push('}');
            }
            RelationClass::TwoKeys(k1, k2) => {
                out.push_str("{\"kind\":\"two_keys\",\"k1\":");
                push_attrs(*k1, out);
                out.push_str(",\"k2\":");
                push_attrs(*k2, out);
                out.push('}');
            }
            RelationClass::Hard(case) => {
                out.push_str("{\"kind\":\"hard\",\"case\":");
                out.push_str(&case.number().to_string());
                match case {
                    HardCase::ThreeOrMoreKeys(keys) => {
                        out.push_str(",\"keys\":[");
                        for (i, k) in keys.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            push_attrs(*k, out);
                        }
                        out.push(']');
                    }
                    HardCase::Case2 { a, b }
                    | HardCase::Case3 { a, b }
                    | HardCase::Case4 { a, b }
                    | HardCase::Case5 { a, b }
                    | HardCase::Case6 { a, b }
                    | HardCase::Case7 { a, b } => {
                        out.push_str(",\"a\":");
                        push_attrs(*a, out);
                        out.push_str(",\"b\":");
                        push_attrs(*b, out);
                    }
                    HardCase::Unresolved => {}
                }
                out.push('}');
            }
        }
    }

    fn push_classification(classification: &ClassificationCert, out: &mut String) {
        match classification {
            ClassificationCert::Classical(per_rel) => {
                out.push_str("{\"scope\":\"classical\",\"relations\":[");
                for (i, (rel, class)) in per_rel.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    out.push_str(&rel.0.to_string());
                    out.push(',');
                    push_relation_class(class, out);
                    out.push(']');
                }
                out.push_str("]}");
            }
            ClassificationCert::Ccp(CcpClass::PrimaryKeyAssignment(keys)) => {
                out.push_str("{\"scope\":\"ccp\",\"kind\":\"primary_key\",\"keys\":[");
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_attrs(*k, out);
                }
                out.push_str("]}");
            }
            ClassificationCert::Ccp(CcpClass::ConstantAttributeAssignment(consts)) => {
                out.push_str("{\"scope\":\"ccp\",\"kind\":\"constant_attribute\",\"consts\":[");
                for (i, c) in consts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_attrs(*c, out);
                }
                out.push_str("]}");
            }
            ClassificationCert::Ccp(CcpClass::Hard { not_primary_key, not_constant_attribute }) => {
                out.push_str("{\"scope\":\"ccp\",\"kind\":\"hard\",\"not_primary_key\":");
                out.push_str(&not_primary_key.0.to_string());
                out.push_str(",\"not_constant_attribute\":");
                out.push_str(&not_constant_attribute.0.to_string());
                out.push('}');
            }
        }
    }

    fn push_block(block: &BlockEvidence, out: &mut String) {
        out.push_str("{\"rel\":");
        out.push_str(&block.rel.0.to_string());
        out.push_str(",\"lhs\":");
        push_attrs(block.fd.lhs, out);
        out.push_str(",\"rhs\":");
        push_attrs(block.fd.rhs, out);
        out.push_str(",\"group\":");
        out.push_str(&block.group.0.to_string());
        out.push_str(",\"consistency\":");
        push_ids(&block.consistency, out);
        out.push_str(",\"maximality\":");
        push_pairs(&block.maximality, out);
        out.push('}');
    }

    fn push_verdict(verdict: &CertVerdict, out: &mut String) {
        match verdict {
            CertVerdict::Inconsistent { f, g } => {
                out.push_str("{\"kind\":\"inconsistent\",\"f\":");
                out.push_str(&f.0.to_string());
                out.push_str(",\"g\":");
                out.push_str(&g.0.to_string());
                out.push('}');
            }
            CertVerdict::Improvable(w) => {
                out.push_str("{\"kind\":\"improvable\",\"from\":");
                push_ids(&w.from, out);
                out.push_str(",\"to\":");
                push_ids(&w.to, out);
                out.push_str(",\"justification\":");
                push_pairs(&w.justification, out);
                out.push('}');
            }
            CertVerdict::Optimal { scope, maximality, blocks } => {
                out.push_str("{\"kind\":\"optimal\",\"scope\":\"");
                out.push_str(match scope {
                    OptimalScope::Complete => "complete",
                    OptimalScope::RepairOnly => "repair_only",
                });
                out.push_str("\",\"maximality\":");
                push_pairs(maximality, out);
                out.push_str(",\"blocks\":[");
                for (i, b) in blocks.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_block(b, out);
                }
                out.push_str("]}");
            }
        }
    }

    /// Renders a certificate in the canonical `cert_v` 1 encoding: one
    /// line, fixed field order, self-contained (schema + facts + priority
    /// embedded).
    pub fn render_certificate(
        schema: &Schema,
        instance: &Instance,
        priority: &PriorityRelation,
        cert: &Certificate,
    ) -> String {
        let sig = schema.signature();
        let mut out = String::with_capacity(256 + instance.len() * 32);
        out.push_str("{\"cert_v\":");
        out.push_str(&CERT_V.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(if cert.check.is_some() { "check" } else { "classification" });
        out.push_str("\",\"mode\":\"");
        out.push_str(match cert.mode {
            PriorityMode::ConflictRestricted => "conflict",
            PriorityMode::CrossConflict => "ccp",
        });
        out.push_str("\",\"schema\":{\"relations\":[");
        for (i, rel) in sig.rel_ids().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            push_json_str(sig.symbol(rel).name(), &mut out);
            out.push(',');
            out.push_str(&sig.arity(rel).to_string());
            out.push(']');
        }
        out.push_str("],\"fds\":[");
        for (i, fd) in schema.fds().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&fd.rel.0.to_string());
            out.push(',');
            push_attrs(fd.lhs, &mut out);
            out.push(',');
            push_attrs(fd.rhs, &mut out);
            out.push(']');
        }
        out.push_str("]},\"facts\":[");
        for (i, (_, fact)) in instance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&fact.rel().0.to_string());
            out.push_str(",[");
            for (k, v) in fact.values().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let mut enc = String::new();
                encode_value(v, &mut enc);
                push_json_str(&enc, &mut out);
            }
            out.push_str("]]");
        }
        out.push_str("],\"priority\":");
        push_pairs(priority.edges(), &mut out);
        out.push_str(",\"classification\":");
        push_classification(&cert.classification, &mut out);
        if let Some(check) = &cert.check {
            out.push_str(",\"candidate\":");
            push_ids(&check.candidate, &mut out);
            out.push_str(",\"verdict\":");
            push_verdict(&check.verdict, &mut out);
        }
        out.push('}');
        out
    }
}

/// A value from a pool of awkward ones; codes past the pool nest pairs.
fn awkward(code: u32) -> Value {
    const INTS: [i64; 6] = [i64::MIN, i64::MAX, -1, 0, 7, -1_000_000_007];
    const SYMS: [&str; 8] =
        ["", "\"", "\\", "\u{1}x\u{1f}", "a\"b\\c\nd", "é✓𝄞", "s3:a,b", "p(i1,i2)"];
    let code = code as usize;
    match code {
        c if c < INTS.len() => Value::int(INTS[c]),
        c if c < INTS.len() + SYMS.len() => Value::sym(SYMS[c - INTS.len()]),
        c => Value::pair(awkward((c % 7) as u32), awkward((c / 7 % 16) as u32)),
    }
}

/// FDs as `(lhs, rhs)` attribute lists.
type Fds = &'static [(&'static [usize], &'static [usize])];

/// The schema shapes: single FD, two keys, a hard (S4) relation, and a
/// primary key read under cross-conflict priorities.
const SHAPES: [(usize, Fds, PriorityMode); 4] = [
    (2, &[(&[1], &[2])], PriorityMode::ConflictRestricted),
    (2, &[(&[1], &[2]), (&[2], &[1])], PriorityMode::ConflictRestricted),
    (3, &[(&[1], &[2]), (&[2], &[3])], PriorityMode::ConflictRestricted),
    (2, &[(&[1], &[2])], PriorityMode::CrossConflict),
];

fn workspace(shape: usize, facts: &[Vec<u32>], edges: &[(usize, usize)]) -> Workspace {
    let (arity, fds, mode) = SHAPES[shape];
    let sig = Signature::new([("R\"é\\\u{7}", arity)]).unwrap();
    let rel = rpr_data::RelId(0);
    let schema = Schema::new(
        sig.clone(),
        fds.iter().map(|(l, r)| Fd::from_attrs(rel, l.to_vec(), r.to_vec())),
    )
    .unwrap();
    let mut instance = rpr_data::Instance::new(sig.clone());
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    for codes in facts {
        let tuple: Vec<Value> = codes.iter().take(arity).map(|&c| awkward(c)).collect();
        if !tuples.contains(&tuple) {
            instance.insert(Fact::new(&sig, rel, Tuple::new(tuple.clone())).unwrap());
            tuples.push(tuple);
        }
    }
    // Edges from lower to higher ids are acyclic; classical priorities
    // keep only those between conflicting facts.
    let conflict = |f: usize, g: usize| {
        fds.iter().any(|(lhs, rhs)| {
            lhs.iter().all(|&a| tuples[f][a - 1] == tuples[g][a - 1])
                && rhs.iter().any(|&a| tuples[f][a - 1] != tuples[g][a - 1])
        })
    };
    let n = tuples.len();
    let kept: HashSet<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| (a % n, b % n))
        .filter(|&(f, g)| f < g && (mode == PriorityMode::CrossConflict || conflict(f, g)))
        .collect();
    let ids = kept.into_iter().map(|(f, g)| (FactId(f as u32), FactId(g as u32)));
    let priority = PriorityRelation::new(n, ids).unwrap();
    Workspace { schema, instance, priority, mode, repairs: Vec::new() }
}

/// Every certificate of `ws`, rendered by both writers.
fn both_writers(ws: &Workspace, picks: &[u8]) -> Vec<(String, String)> {
    let pi = ws.prioritized().unwrap();
    let session = CheckSession::new(&ws.schema, &pi);
    let render = |cert: &rpr_core::Certificate| {
        let new = render_certificate(&ws.schema, &ws.instance, &ws.priority, cert);
        (new, oracle::render_certificate(&ws.schema, &ws.instance, &ws.priority, cert))
    };
    let mut out = vec![render(&session.certify_classification())];
    // A greedy repair in priority order (optimal), the full set
    // (inconsistent when anything conflicts), the empty set
    // (improvable), and subsets picked by the bit masks in `picks`.
    let cg = rpr_fd::CsrConflictGraph::new(&ws.schema, &ws.instance);
    let greedy = rpr_core::construct_globally_optimal_repair(&cg, &ws.priority);
    let mut sets = vec![greedy, ws.instance.full_set(), ws.instance.empty_set()];
    for &mask in picks {
        let mut set = ws.instance.empty_set();
        ws.instance
            .fact_ids()
            .filter(|id| mask >> (id.0 % 8) & 1 == 1)
            .for_each(|id| set.insert(id));
        sets.push(set);
    }
    for set in sets {
        if let Outcome::Done(outcome) =
            session.check_bounded(&set, &Budget::unlimited().with_max_work(200_000))
        {
            out.push(render(&session.certify(&set, &outcome)));
        }
    }
    out
}

#[test]
fn the_writer_matches_the_oracle_on_every_shape_and_verdict() {
    let mut verdicts = HashSet::new();
    let facts: Vec<Vec<u32>> =
        (0..8).map(|i| vec![i % 3, (i * 5) % 17, (i * 11) % 23 + 14]).collect();
    for shape in 0..SHAPES.len() {
        let edges: Vec<(usize, usize)> =
            (0..8).flat_map(|f| (f + 1..8).map(move |g| (f, g))).collect();
        let ws = workspace(shape, &facts, &edges);
        for (new, old) in both_writers(&ws, &[0b0101_0101, 0b1010_1010, 0b0000_1111, 0b1100_0011]) {
            assert_eq!(new, old);
            let doc = rpr_format::parse_certificate(&new).unwrap();
            let verdict = doc.get("verdict").and_then(|v| v.get("kind")).and_then(|k| k.as_str());
            verdicts.insert((shape, verdict.unwrap_or("classification").to_string()));
        }
    }
    for shape in 0..SHAPES.len() {
        for kind in ["classification", "optimal", "improvable", "inconsistent"] {
            assert!(
                verdicts.contains(&(shape, kind.to_string())),
                "shape {shape} never produced a {kind} certificate: {verdicts:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_writer_matches_the_oracle_on_awkward_values(
        shape in 0usize..4,
        facts in proptest::collection::vec(proptest::collection::vec(0u32..200, 3), 1..8),
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..10),
        picks in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let ws = workspace(shape, &facts, &edges);
        for (new, old) in both_writers(&ws, &picks) {
            prop_assert_eq!(new, old);
        }
    }
}
