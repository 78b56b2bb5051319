//! The workspace parser and delta-op tokenizer as they were before the
//! byte-level tokenizer replaced them, kept as the oracle the
//! production parser must agree with: the same workspace on success,
//! the same `(line, message)` on failure. Pass 2 here splits lines with
//! `str::lines`, trims with `str::trim`, tries `str::parse::<i64>` on
//! every token and defers every `prefer`/`repair` reference until all
//! `fact` lines are in.

use rpr_core::DeltaOp;
use rpr_data::{Atom, AttrSet, DataError, Fact, FactId, Instance, RelId, Signature, Tuple, Value};
use rpr_fd::{Fd, Schema};
use rpr_format::{FormatError, Workspace};
use rpr_priority::{PriorityMode, PriorityRelation};

fn error(line: usize, message: impl Into<String>) -> FormatError {
    FormatError { line, message: message.into() }
}

/// Parses `NAME(v1, …, vn)` into a fact.
pub fn parse_fact(sig: &Signature, text: &str, line: usize) -> Result<Fact, FormatError> {
    let mut values: Vec<Value> = Vec::new();
    let rel = parse_fact_into(sig, text, line, &mut values)?;
    Ok(Fact::new(sig, rel, Tuple::new(values)).expect("parse_fact_into checked the arity"))
}

fn parse_fact_into<'t, V: From<Atom<'t>>>(
    sig: &Signature,
    text: &'t str,
    line: usize,
    values: &mut Vec<V>,
) -> Result<RelId, FormatError> {
    let text = text.trim();
    let open = text
        .find('(')
        .ok_or_else(|| error(line, format!("expected Relation(...), got `{text}`")))?;
    if !text.ends_with(')') {
        return Err(error(line, "missing `)`"));
    }
    let rel = sig.require(text[..open].trim()).map_err(|e| error(line, e.to_string()))?;
    let body = &text[open + 1..text.len() - 1];
    let start = values.len();
    values.extend(body.split(',').map(|t| V::from(Atom::from_token(t.trim()))));
    let (expected, got) = (sig.arity(rel), values.len() - start);
    if got != expected {
        let relation = sig.symbol(rel).name().to_owned();
        let e = DataError::ArityMismatch { relation, expected, got };
        return Err(error(line, e.to_string()));
    }
    Ok(rel)
}

type FactRef = (RelId, usize);

fn parse_attr_list(text: &str, line: usize) -> Result<AttrSet, FormatError> {
    let text = text.trim();
    if text.is_empty() || text == "∅" || text == "-" {
        return Ok(AttrSet::EMPTY);
    }
    let mut out = AttrSet::EMPTY;
    for tok in text.split_whitespace() {
        for piece in tok.split(',') {
            if piece.is_empty() {
                continue;
            }
            let n: usize =
                piece.parse().map_err(|_| error(line, format!("bad attribute index `{piece}`")))?;
            if n == 0 || n > 64 {
                return Err(error(line, format!("attribute {n} out of range")));
            }
            out = out.insert(n);
        }
    }
    Ok(out)
}

/// Parses a workspace file.
pub fn parse_workspace<'t>(text: &'t str) -> Result<Workspace, FormatError> {
    let mut rels: Vec<(String, usize)> = Vec::new();
    let mut fact_lines = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let l = raw.trim();
        if l.starts_with("fact ") {
            fact_lines += 1;
        } else if let Some(rest) = l.strip_prefix("relation ") {
            let (name, arity) = rest
                .rsplit_once('/')
                .ok_or_else(|| error(line, "expected `relation NAME/ARITY`"))?;
            let arity: usize =
                arity.trim().parse().map_err(|_| error(line, format!("bad arity `{arity}`")))?;
            rels.push((name.trim().to_owned(), arity));
        }
    }
    if rels.is_empty() {
        return Err(error(0, "no `relation` declarations"));
    }
    let sig = Signature::new(rels.iter().map(|(n, a)| (n.as_str(), *a)))
        .map_err(|e| error(0, e.to_string()))?;

    let mut fds: Vec<Fd> = Vec::new();
    let mut instance = Instance::with_capacity(sig.clone(), fact_lines);
    let mut values: Vec<Value> = Vec::new();
    let mut arena: Vec<Atom<'t>> = Vec::new();
    let mut reference = |text: &'t str, line: usize| -> Result<FactRef, FormatError> {
        let start = arena.len();
        Ok((parse_fact_into(&sig, text, line, &mut arena)?, start))
    };
    let mut prefer_lines: Vec<(usize, FactRef, FactRef)> = Vec::new();
    let mut mode = PriorityMode::ConflictRestricted;
    let mut repairs: Vec<(String, Vec<FactRef>)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') || l.starts_with("relation ") {
            continue;
        }
        if let Some(rest) = l.strip_prefix("fd ") {
            let (rel_name, spec) = rest
                .split_once(':')
                .ok_or_else(|| error(line, "expected `fd NAME: lhs -> rhs`"))?;
            let rel = sig.require(rel_name.trim()).map_err(|e| error(line, e.to_string()))?;
            let (lhs, rhs) =
                spec.split_once("->").ok_or_else(|| error(line, "expected `lhs -> rhs`"))?;
            let fd = Fd::new(rel, parse_attr_list(lhs, line)?, parse_attr_list(rhs, line)?);
            if !fd.fits_arity(sig.arity(rel)) {
                return Err(error(line, "FD mentions attributes beyond the arity"));
            }
            fds.push(fd);
        } else if let Some(rest) = l.strip_prefix("fact ") {
            let rel = parse_fact_into(&sig, rest, line, &mut values)?;
            let tuple = Tuple::new(values.drain(..));
            instance
                .insert(Fact::new(&sig, rel, tuple).expect("parse_fact_into checked the arity"));
        } else if let Some(rest) = l.strip_prefix("prefer ") {
            let (a, b) =
                rest.split_once('>').ok_or_else(|| error(line, "expected `prefer FACT > FACT`"))?;
            prefer_lines.push((line, reference(a, line)?, reference(b, line)?));
        } else if let Some(rest) = l.strip_prefix("mode ") {
            mode = match rest.trim() {
                "ccp" | "cross-conflict" => PriorityMode::CrossConflict,
                "conflict" | "conflict-restricted" => PriorityMode::ConflictRestricted,
                other => return Err(error(line, format!("unknown mode `{other}`"))),
            };
        } else if let Some(rest) = l.strip_prefix("repair ") {
            let (name, body) = rest
                .split_once(':')
                .ok_or_else(|| error(line, "expected `repair NAME: FACT; …`"))?;
            let mut facts = Vec::new();
            for part in body.split(';') {
                let part = part.trim();
                if !part.is_empty() {
                    facts.push(reference(part, line)?);
                }
            }
            repairs.push((name.trim().to_owned(), facts));
        } else {
            return Err(error(line, format!("unrecognized directive `{l}`")));
        }
    }

    let schema = Schema::new(sig, fds).map_err(|e| error(0, e.to_string()))?;

    let resolve = |(rel, start): FactRef| {
        let arity = instance.signature().arity(rel);
        instance.id_of_atoms(rel, &arena[start..start + arity])
    };
    let mut edges: Vec<(FactId, FactId)> = Vec::new();
    for (line, a, b) in prefer_lines {
        let ai =
            resolve(a).ok_or_else(|| error(line, "preferred fact not declared with `fact`"))?;
        let bi =
            resolve(b).ok_or_else(|| error(line, "dominated fact not declared with `fact`"))?;
        edges.push((ai, bi));
    }
    let priority = PriorityRelation::new(instance.len(), edges)
        .map_err(|e| error(0, format!("priority rejected: {e}")))?;

    let mut repair_sets = Vec::new();
    for (name, facts) in repairs {
        let mut set = instance.empty_set();
        for &f in &facts {
            let id = resolve(f).ok_or_else(|| {
                error(0, format!("repair `{name}` uses a fact not declared with `fact`"))
            })?;
            set.insert(id);
        }
        repair_sets.push((name, set));
    }

    Ok(Workspace { schema, instance, priority, mode, repairs: repair_sets })
}

/// Parses one delta op.
pub fn parse_delta_op(sig: &Signature, text: &str, line: usize) -> Result<DeltaOp, FormatError> {
    let l = text.trim();
    if let Some(rest) = l.strip_prefix("insert ") {
        return Ok(DeltaOp::InsertFact(parse_fact(sig, rest, line)?));
    }
    if let Some(rest) = l.strip_prefix("delete ") {
        return Ok(DeltaOp::DeleteFact(parse_fact(sig, rest, line)?));
    }
    let (prefer, rest) = if let Some(rest) = l.strip_prefix("prefer ") {
        (true, rest)
    } else if let Some(rest) = l.strip_prefix("unprefer ") {
        (false, rest)
    } else {
        return Err(error(
            line,
            format!("expected `insert`/`delete`/`prefer`/`unprefer`, got `{l}`"),
        ));
    };
    let (a, b) = rest.split_once('>').ok_or_else(|| {
        error(
            line,
            format!("expected `{} FACT > FACT`", if prefer { "prefer" } else { "unprefer" }),
        )
    })?;
    Ok(DeltaOp::SetPriority {
        better: parse_fact(sig, a, line)?,
        worse: parse_fact(sig, b, line)?,
        prefer,
    })
}

/// Parses a line-oriented ops script (blank lines and `#` comments
/// ignored).
pub fn parse_delta_script(sig: &Signature, text: &str) -> Result<Vec<DeltaOp>, FormatError> {
    let mut ops = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        ops.push(parse_delta_op(sig, l, idx + 1)?);
    }
    Ok(ops)
}
