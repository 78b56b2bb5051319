//! The `.rpr` workspace file format.
//!
//! A single text file declares a schema, an instance, a priority and
//! optional named candidate repairs:
//!
//! ```text
//! # The paper's running example (fragment).
//! relation BookLoc/3
//! relation LibLoc/2
//!
//! fd BookLoc: 1 -> 2
//! fd LibLoc: 1 -> 2
//! fd LibLoc: 2 -> 1
//!
//! fact BookLoc(b1, fiction, lib1)
//! fact LibLoc(lib1, almaden)
//! fact LibLoc(lib1, edenvale)
//!
//! prefer LibLoc(lib1, edenvale) > LibLoc(lib1, almaden)
//!
//! # mode ccp            # uncomment for cross-conflict priorities
//!
//! repair J: BookLoc(b1, fiction, lib1); LibLoc(lib1, edenvale)
//! ```
//!
//! Grammar, line-oriented (blank lines and `#` comments ignored):
//!
//! * `relation NAME/ARITY`
//! * `fd NAME: a1 a2 -> b1 b2` (attribute indices, 1-based; an empty
//!   left side is written `∅` or `-`)
//! * `fact NAME(v1, …, vn)` (integers parse as ints, everything else
//!   as symbols)
//! * `prefer FACT > FACT` (both facts must be declared)
//! * `mode ccp` / `mode conflict` (default `conflict`)
//! * `repair NAME: FACT; FACT; …`

use rpr_data::{
    Atom, AttrSet, DataError, Fact, FactId, FactSet, Instance, RelId, Signature, Tuple, Value,
};
use rpr_fd::{Fd, Schema};
use rpr_priority::{PrioritizedInstance, PriorityMode, PriorityRelation};
use std::fmt;

/// A parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// The declared schema.
    pub schema: Schema,
    /// The declared instance `I`.
    pub instance: Instance,
    /// The declared priority `≻`.
    pub priority: PriorityRelation,
    /// The priority mode.
    pub mode: PriorityMode,
    /// Named candidate repairs, in declaration order.
    pub repairs: Vec<(String, FactSet)>,
}

impl Workspace {
    /// Wraps the workspace as a validated prioritizing instance.
    ///
    /// # Errors
    /// Propagates conflict-restriction violations in classical mode.
    pub fn prioritized(&self) -> Result<PrioritizedInstance, FormatError> {
        validate(&self.schema, self.mode, self.instance.clone(), self.priority.clone())
    }

    /// [`prioritized`](Self::prioritized) by move: the instance and the
    /// priority go into the result uncopied, and the schema comes back
    /// beside it. Named repairs are dropped; take them out first.
    ///
    /// # Errors
    /// Propagates conflict-restriction violations in classical mode.
    pub fn into_prioritized(self) -> Result<(Schema, PrioritizedInstance), FormatError> {
        let pi = validate(&self.schema, self.mode, self.instance, self.priority)?;
        Ok((self.schema, pi))
    }

    /// Looks a named repair up.
    pub fn repair(&self, name: &str) -> Option<&FactSet> {
        self.repairs.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

fn validate(
    schema: &Schema,
    mode: PriorityMode,
    instance: Instance,
    priority: PriorityRelation,
) -> Result<PrioritizedInstance, FormatError> {
    match mode {
        PriorityMode::ConflictRestricted => {
            PrioritizedInstance::conflict_restricted(schema, instance, priority)
                .map_err(|e| FormatError::new(0, format!("priority not conflict-restricted: {e}")))
        }
        PriorityMode::CrossConflict => Ok(PrioritizedInstance::cross_conflict(instance, priority)),
    }
}

/// A parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line (0 for whole-file problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl FormatError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        FormatError { line, message: message.into() }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FormatError {}

/// Is `b` a character `str::trim` strips that fits in one byte? These
/// are the ASCII members of Unicode `White_Space`, which include
/// U+000B (`u8::is_ascii_whitespace` leaves it out).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// `str::trim`, ASCII first: strips ASCII whitespace by bytes, and
/// calls `str::trim` only when what is left starts or ends with a
/// non-ASCII byte (a multibyte character, perhaps U+00A0 or U+2003).
pub(crate) fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let (mut start, mut end) = (0, b.len());
    while start < end && is_ascii_space(b[start]) {
        start += 1;
    }
    while end > start && is_ascii_space(b[end - 1]) {
        end -= 1;
    }
    let t = &s[start..end];
    if start < end && (!b[start].is_ascii() || !b[end - 1].is_ascii()) {
        t.trim()
    } else {
        t
    }
}

/// The atom a trimmed token names, by [`Atom::from_token`]'s rule.
/// `str::parse::<i64>` accepts only tokens that start with a digit or
/// a sign, so any other token is a symbol without a parse attempt.
fn atom(token: &str) -> Atom<'_> {
    match token.as_bytes().first() {
        Some(b'0'..=b'9' | b'+' | b'-') => Atom::from_token(token),
        _ => Atom::Sym(token),
    }
}

/// A `prefer` or `repair` reference to a fact: its id when the fact was
/// already in the instance as the reference was read, otherwise its
/// relation and where its atoms start in the reader's arena. Forward
/// references resolve once every `fact` line is in.
#[derive(Clone, Copy)]
enum FactRef {
    Known(FactId),
    Forward(RelId, usize),
}

/// Tokenizes `NAME(v1, …, vn)` texts against a signature. One reader
/// serves a whole workspace, so its buffers are reused from line to
/// line and the atoms borrow the workspace text.
struct FactReader<'s, 't> {
    sig: &'s Signature,
    /// The relation name last looked up and its id: consecutive lines
    /// mostly name the same relation.
    last: Option<(&'t str, RelId)>,
    /// The atoms of the text read last.
    atoms: Vec<Atom<'t>>,
    /// The atoms of the forward references, one after another.
    arena: Vec<Atom<'t>>,
}

impl<'s, 't> FactReader<'s, 't> {
    fn new(sig: &'s Signature) -> Self {
        FactReader { sig, last: None, atoms: Vec::new(), arena: Vec::new() }
    }

    /// Reads `NAME(v1, …, vn)` into [`atoms`](Self::atoms) and returns
    /// its relation, checking the arity. `(` is the first one in the
    /// text, `)` its last byte, and the values split at every `,` of
    /// one scan of the bytes between.
    fn read(&mut self, text: &'t str, line: usize) -> Result<RelId, FormatError> {
        let text = trim(text);
        let bytes = text.as_bytes();
        let open = bytes.iter().position(|&b| b == b'(').ok_or_else(|| {
            FormatError::new(line, format!("expected Relation(...), got `{text}`"))
        })?;
        if bytes.last() != Some(&b')') {
            return Err(FormatError::new(line, "missing `)`"));
        }
        let name = trim(&text[..open]);
        let rel = match self.last {
            Some((last, rel)) if last == name => rel,
            _ => {
                let rel =
                    self.sig.require(name).map_err(|e| FormatError::new(line, e.to_string()))?;
                self.last = Some((name, rel));
                rel
            }
        };
        self.atoms.clear();
        let close = bytes.len() - 1;
        let mut start = open + 1;
        for at in open + 1..close {
            if bytes[at] == b',' {
                self.atoms.push(atom(trim(&text[start..at])));
                start = at + 1;
            }
        }
        self.atoms.push(atom(trim(&text[start..close])));
        let (expected, got) = (self.sig.arity(rel), self.atoms.len());
        if got != expected {
            let relation = self.sig.symbol(rel).name().to_owned();
            let e = DataError::ArityMismatch { relation, expected, got };
            return Err(FormatError::new(line, e.to_string()));
        }
        Ok(rel)
    }

    /// Reads a fact into `instance`: [`read`](Self::read), then each
    /// atom interned straight into its value dictionary, so a value
    /// already there is not built again.
    fn insert(
        &mut self,
        instance: &mut Instance,
        text: &'t str,
        line: usize,
    ) -> Result<FactId, FormatError> {
        let rel = self.read(text, line)?;
        Ok(instance.insert_atoms(rel, &self.atoms))
    }

    /// Reads a reference, resolving it at once when `instance` already
    /// holds its fact; otherwise its atoms wait in the arena. A token
    /// missing from the value dictionary names no fact yet, so its
    /// reference is a forward one.
    fn reference(
        &mut self,
        instance: &Instance,
        text: &'t str,
        line: usize,
    ) -> Result<FactRef, FormatError> {
        let rel = self.read(text, line)?;
        if let Some(id) = instance.id_of_atoms(rel, &self.atoms) {
            return Ok(FactRef::Known(id));
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(&self.atoms);
        Ok(FactRef::Forward(rel, start))
    }
}

/// Parses `NAME(v1, …, vn)` into a fact.
pub(crate) fn parse_fact(sig: &Signature, text: &str, line: usize) -> Result<Fact, FormatError> {
    let mut reader = FactReader::new(sig);
    let rel = reader.read(text, line)?;
    let tuple = Tuple::new(reader.atoms.iter().map(|&a| Value::from(a)));
    Ok(Fact::new(sig, rel, tuple).expect("read checked the arity"))
}

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
            let n: usize = piece
                .parse()
                .map_err(|_| FormatError::new(line, format!("bad attribute index `{piece}`")))?;
            if n == 0 || n > 64 {
                return Err(FormatError::new(line, format!("attribute {n} out of range")));
            }
            out = out.insert(n);
        }
    }
    Ok(out)
}

/// Parses a workspace file.
///
/// Lines split at `\n` and are trimmed as by `str::trim` (a `\r` before
/// the `\n` goes with the rest of the whitespace).
///
/// # Errors
/// [`FormatError`] with a line number on the first problem.
pub fn parse_workspace(text: &str) -> Result<Workspace, FormatError> {
    // Pass 1: relations, and a count of `fact` lines to size the
    // instance by.
    let mut rels: Vec<(String, usize)> = Vec::new();
    let mut fact_lines = 0;
    for (idx, raw) in text.split('\n').enumerate() {
        let line = idx + 1;
        let l = trim(raw);
        if l.starts_with("fact ") {
            fact_lines += 1;
        } else if let Some(rest) = l.strip_prefix("relation ") {
            let (name, arity) = rest
                .rsplit_once('/')
                .ok_or_else(|| FormatError::new(line, "expected `relation NAME/ARITY`"))?;
            let arity: usize = arity
                .trim()
                .parse()
                .map_err(|_| FormatError::new(line, format!("bad arity `{arity}`")))?;
            rels.push((name.trim().to_owned(), arity));
        }
    }
    if rels.is_empty() {
        return Err(FormatError::new(0, "no `relation` declarations"));
    }
    let sig = Signature::new(rels.iter().map(|(n, a)| (n.as_str(), *a)))
        .map_err(|e| FormatError::new(0, e.to_string()))?;

    // Pass 2: everything else. A reference to a fact already read
    // resolves as it is read; only forward references wait.
    let mut fds: Vec<Fd> = Vec::new();
    let mut instance = Instance::with_capacity(sig.clone(), fact_lines);
    let mut reader = FactReader::new(&sig);
    let mut prefer_lines: Vec<(usize, FactRef, FactRef)> = Vec::new();
    let mut mode = PriorityMode::ConflictRestricted;
    let mut repairs: Vec<(String, Vec<FactRef>)> = Vec::new();

    for (idx, raw) in text.split('\n').enumerate() {
        let line = idx + 1;
        let l = trim(raw);
        if let Some(rest) = l.strip_prefix("fact ") {
            reader.insert(&mut instance, rest, line)?;
        } else if let Some(rest) = l.strip_prefix("prefer ") {
            let (a, b) = rest
                .split_once('>')
                .ok_or_else(|| FormatError::new(line, "expected `prefer FACT > FACT`"))?;
            let a = reader.reference(&instance, a, line)?;
            prefer_lines.push((line, a, reader.reference(&instance, b, line)?));
        } else if l.is_empty() || l.starts_with('#') || l.starts_with("relation ") {
            continue;
        } else if let Some(rest) = l.strip_prefix("fd ") {
            let (rel_name, spec) = rest
                .split_once(':')
                .ok_or_else(|| FormatError::new(line, "expected `fd NAME: lhs -> rhs`"))?;
            let rel =
                sig.require(rel_name.trim()).map_err(|e| FormatError::new(line, e.to_string()))?;
            let (lhs, rhs) = spec
                .split_once("->")
                .ok_or_else(|| FormatError::new(line, "expected `lhs -> rhs`"))?;
            let fd = Fd::new(rel, parse_attr_list(lhs, line)?, parse_attr_list(rhs, line)?);
            if !fd.fits_arity(sig.arity(rel)) {
                return Err(FormatError::new(line, "FD mentions attributes beyond the arity"));
            }
            fds.push(fd);
        } else if let Some(rest) = l.strip_prefix("mode ") {
            mode = match rest.trim() {
                "ccp" | "cross-conflict" => PriorityMode::CrossConflict,
                "conflict" | "conflict-restricted" => PriorityMode::ConflictRestricted,
                other => return Err(FormatError::new(line, format!("unknown mode `{other}`"))),
            };
        } else if let Some(rest) = l.strip_prefix("repair ") {
            let (name, body) = rest
                .split_once(':')
                .ok_or_else(|| FormatError::new(line, "expected `repair NAME: FACT; …`"))?;
            let mut facts = Vec::new();
            for part in body.split(';') {
                let part = trim(part);
                if !part.is_empty() {
                    facts.push(reader.reference(&instance, part, line)?);
                }
            }
            repairs.push((name.trim().to_owned(), facts));
        } else {
            return Err(FormatError::new(line, format!("unrecognized directive `{l}`")));
        }
    }
    let arena = reader.arena;

    let schema = Schema::new(sig, fds).map_err(|e| FormatError::new(0, e.to_string()))?;

    let resolve = |r: FactRef| match r {
        FactRef::Known(id) => Some(id),
        FactRef::Forward(rel, start) => {
            let arity = instance.signature().arity(rel);
            instance.id_of_atoms(rel, &arena[start..start + arity])
        }
    };
    let mut edges: Vec<(FactId, FactId)> = Vec::with_capacity(prefer_lines.len());
    for (line, a, b) in prefer_lines {
        let ai = resolve(a)
            .ok_or_else(|| FormatError::new(line, "preferred fact not declared with `fact`"))?;
        let bi = resolve(b)
            .ok_or_else(|| FormatError::new(line, "dominated fact not declared with `fact`"))?;
        edges.push((ai, bi));
    }
    let priority = PriorityRelation::new(instance.len(), edges)
        .map_err(|e| FormatError::new(0, format!("priority rejected: {e}")))?;

    let mut repair_sets = Vec::new();
    for (name, facts) in repairs {
        let mut set = instance.empty_set();
        for &f in &facts {
            let id = resolve(f).ok_or_else(|| {
                FormatError::new(0, format!("repair `{name}` uses a fact not declared with `fact`"))
            })?;
            set.insert(id);
        }
        repair_sets.push((name, set));
    }

    Ok(Workspace { schema, instance, priority, mode, repairs: repair_sets })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sample
relation R/2
relation S/2

fd R: 1 -> 2
fd S: - -> 1

fact R(a, 1)
fact R(a, 2)
fact S(x, 0)

prefer R(a, 2) > R(a, 1)

repair best: R(a, 2); S(x, 0)
";

    #[test]
    fn parses_the_sample() {
        let ws = parse_workspace(SAMPLE).unwrap();
        assert_eq!(ws.instance.len(), 3);
        assert_eq!(ws.schema.fds().len(), 2);
        assert_eq!(ws.priority.edge_count(), 1);
        assert_eq!(ws.mode, PriorityMode::ConflictRestricted);
        let j = ws.repair("best").unwrap();
        assert_eq!(j.len(), 2);
        assert!(ws.prioritized().is_ok());
        // The empty-lhs FD parsed as constant-attribute.
        assert!(ws.schema.fds()[1].is_constant_attribute());
    }

    #[test]
    fn mode_ccp_allows_cross_edges() {
        let text = "\
relation R/2
fd R: 1 -> 2
fact R(a, 1)
fact R(b, 2)
mode ccp
prefer R(a, 1) > R(b, 2)
";
        let ws = parse_workspace(text).unwrap();
        assert_eq!(ws.mode, PriorityMode::CrossConflict);
        assert!(ws.prioritized().is_ok());
        // The same file in classical mode fails validation.
        let classical = text.replace("mode ccp\n", "");
        let ws = parse_workspace(&classical).unwrap();
        assert!(ws.prioritized().is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "relation R/2\nfd R 1 -> 2\n";
        let err = parse_workspace(bad).unwrap_err();
        assert_eq!(err.line, 2);

        let bad = "relation R/2\nfact R(a)\n";
        let err = parse_workspace(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("arity"));

        let bad = "relation R/2\nprefer R(a,1) > R(a,2)\n";
        let err = parse_workspace(bad).unwrap_err();
        assert!(err.message.contains("not declared"));

        let bad = "relation R/2\nbanana\n";
        assert!(parse_workspace(bad).unwrap_err().message.contains("unrecognized"));

        assert!(parse_workspace("fact R(a,b)\n").unwrap_err().message.contains("relation"));
    }

    /// The first `(line, message)` of malformed workspaces, pinned:
    /// reference parse errors surface at their line during the scan,
    /// before any later line; undeclared references surface after it,
    /// in line order (`prefer` with its line, `repair` with line 0).
    /// Each case reads `lines joined by | => line => message`.
    const FIRST_ERRORS: &str = "\
relation R/2|fd R: 1 -> 2|prefer R(a) > R(a, 2)|fact R(b) => 3 => fact over R has 1 values but the relation has arity 2
relation R/2|fd R: 1 -> 2|fact R(a, 1)|prefer R(a, 1) > R(a, 2, 3)|fact R(a) => 4 => fact over R has 3 values but the relation has arity 2
relation R/2|prefer R(a, 1 > R(a, 2) => 2 => missing `)`
relation R/2|prefer R(a, 1) R(a, 2) => 2 => expected `prefer FACT > FACT`
relation R/2|prefer a, 1 > R(a, 2) => 2 => expected Relation(...), got `a, 1`
relation R/2|fact R(a, 1)|prefer T(a, 1) > R(a, 1) => 3 => unknown relation symbol T
relation R/2|fact R(a, 1)|prefer R(a, 1) > T(a, 1) => 3 => unknown relation symbol T
relation R/2|fd R: 1 -> 2|fact R(a, 1)|fact R(a, 2)|prefer R(a, 3) > R(a, 1)|prefer R(a, 1) > R(a, 4) => 5 => preferred fact not declared with `fact`
relation R/2|fd R: 1 -> 2|fact R(a, 1)|prefer R(a, 1) > R(a, 4)|prefer R(a, 5) > R(a, 1) => 4 => dominated fact not declared with `fact`
relation R/2|fact R(a, 1)|prefer R(a, 8) > R(a, 9) => 3 => preferred fact not declared with `fact`
relation R/2|fd R: 1 -> 2|fact R(a, 1)|fact R(a, 2)|prefer R(a, 9) > R(a, 1)|repair J: R(a, 1); R(a) => 6 => fact over R has 1 values but the relation has arity 2
relation R/2|fact R(a, 1)|repair J: R(a, 1); R(a, 1, 2) => 3 => fact over R has 3 values but the relation has arity 2
relation R/2|fact R(a, 1)|repair J: R(a, 1); R() => 3 => fact over R has 1 values but the relation has arity 2
relation R/2|fact R(a, 1)|repair J: R(a, 1); T(a, 1) => 3 => unknown relation symbol T
relation R/2|fact R(a, 1)|repair J R(a, 1) => 3 => expected `repair NAME: FACT; …`
relation R/2|fact R(a, 1)|repair J: R(a, 1); R(a, 2)|repair K: R(a, 3) => 0 => repair `J` uses a fact not declared with `fact`
relation R/2|fact R(a, 1)|repair J: R(a, 1)|repair K: R(b, 1); R(a, 1) => 0 => repair `K` uses a fact not declared with `fact`
relation R/2|fd R: 1 -> 2|fact R(a, 1)|fact R(a, 2)|prefer R(a, 1) > R(a, 2)|prefer R(a, 2) > R(a, 1)|repair J: R(a, 7) => 0 => priority rejected: priority relation has a cycle through 2 facts
relation R/2|fd R: 1 -> 2|fact R(a, 1)|prefer R(a, 1) > R(a, 2)|repair J: R(a, 7) => 4 => dominated fact not declared with `fact`
relation R/2|fd R: 1 -> 2|prefer R(a, 2) > R(a, 1)|fact R(a, 1)|fact R(a, 2)|repair J: R(a, 2)|fact R(a, 3)|bogus => 8 => unrecognized directive `bogus`
relation R/2|fd T: 1 -> 2|prefer R(a, 2) > R(a, 1) => 2 => unknown relation symbol T
relation R/2|fd R: 1 -> 3|prefer R(a, 2) > R(a, 1) => 2 => FD mentions attributes beyond the arity
relation R/2|fact R(a, 1)|fact R(a, 1)|fd R: 1 -> 2|prefer R(a,1) > R( a , 1 ) => 0 => priority rejected: priority relation has a cycle through 1 facts
";

    #[test]
    fn first_error_line_and_message_are_pinned() {
        for case in FIRST_ERRORS.lines() {
            let [text, line, message] = case.split(" => ").collect::<Vec<_>>()[..] else {
                panic!("malformed case {case}")
            };
            let err = parse_workspace(&text.replace('|', "\n")).unwrap_err();
            let got = (err.line.to_string(), err.message);
            assert_eq!((got.0.as_str(), got.1.as_str()), (line, message), "{text}");
        }
        // References may precede the facts they name.
        let later = "relation R/2\nfd R: 1 -> 2\nprefer R(a, 2) > R(a, 1)\nrepair J: R(a, 2)\n\
                     fact R(a, 1)\nfact R(a, 2)\n";
        let ws = parse_workspace(later).unwrap();
        assert_eq!(ws.priority.edges(), &[(FactId(1), FactId(0))]);
        assert_eq!(ws.repair("J").unwrap().iter().collect::<Vec<_>>(), vec![FactId(1)]);
    }

    /// One token rule classifies values in `fact` lines, references,
    /// delta ops and the `rpr-data` instance format: an `i64` when
    /// `str::parse` accepts the token, a symbol otherwise.
    #[test]
    fn token_rule_is_pinned() {
        let cases = [
            ("+5", Atom::Int(5)),
            ("-0", Atom::Int(0)),
            ("007", Atom::Int(7)),
            ("9223372036854775807", Atom::Int(i64::MAX)),
            ("-9223372036854775808", Atom::Int(i64::MIN)),
            ("9223372036854775808", Atom::Sym("9223372036854775808")),
            ("1_000", Atom::Sym("1_000")),
            ("x1", Atom::Sym("x1")),
        ];
        let sig = Signature::new([("R", 1)]).unwrap();
        for (token, atom) in cases {
            assert_eq!(Atom::from_token(token), atom, "{token}");
            let fact = parse_fact(&sig, &format!("R({token})"), 1).unwrap();
            assert_eq!(fact.get(1), &Value::from(atom), "{token}");
        }
        // A fact written `R(+5)` is the fact a reference `R(5)` names.
        let text = "relation R/1\nfact R(+5)\nfact R(007)\nfact R(1_000)\n\
                    repair J: R(5); R(7); R(1_000)\n";
        let ws = parse_workspace(text).unwrap();
        assert_eq!(ws.repair("J").unwrap().len(), 3);
        // `1000` is an int and `1_000` a symbol: not the same fact.
        assert!(parse_workspace(&text.replace("; R(1_000)", "; R(1000)")).is_err());
    }

    #[test]
    fn cyclic_priorities_are_rejected() {
        let text = "\
relation R/2
fd R: 1 -> 2
fact R(a, 1)
fact R(a, 2)
prefer R(a, 1) > R(a, 2)
prefer R(a, 2) > R(a, 1)
";
        let err = parse_workspace(text).unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn multi_attribute_fd_sides() {
        let text = "\
relation T/4
fd T: 1 -> 2 3 4
fd T: 2, 3 -> 1
fact T(a, b, c, d)
";
        let ws = parse_workspace(text).unwrap();
        assert_eq!(ws.schema.fds()[0].rhs, AttrSet::from_attrs([2, 3, 4]));
        assert_eq!(ws.schema.fds()[1].lhs, AttrSet::from_attrs([2, 3]));
    }
}

/// Renders a workspace back to the `.rpr` text format (the inverse of
/// [`parse_workspace`] up to whitespace and ordering). Used by
/// `rpr export file.rprb out.rpr` to turn binary workspaces back into
/// human-editable form.
pub fn render_workspace(ws: &Workspace) -> String {
    use std::fmt::Write as _;
    let sig = ws.schema.signature();
    let mut out = String::new();
    for (_, sym) in sig.iter() {
        let _ = writeln!(out, "relation {}/{}", sym.name(), sym.arity());
    }
    out.push('\n');
    let attrs = |a: AttrSet| -> String {
        if a.is_empty() {
            "-".to_owned()
        } else {
            a.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
        }
    };
    for fd in ws.schema.fds() {
        let _ = writeln!(
            out,
            "fd {}: {} -> {}",
            sig.symbol(fd.rel).name(),
            attrs(fd.lhs),
            attrs(fd.rhs)
        );
    }
    if ws.mode == PriorityMode::CrossConflict {
        let _ = writeln!(out, "\nmode ccp");
    }
    out.push('\n');
    for (_, fact) in ws.instance.iter() {
        let _ = writeln!(out, "fact {}", fact.display(sig));
    }
    out.push('\n');
    for &(a, b) in ws.priority.edges() {
        let _ = writeln!(
            out,
            "prefer {} > {}",
            ws.instance.fact(a).display(sig),
            ws.instance.fact(b).display(sig)
        );
    }
    for (name, set) in &ws.repairs {
        let members: Vec<String> =
            set.iter().map(|id| ws.instance.fact(id).display(sig).to_string()).collect();
        let _ = writeln!(out, "repair {name}: {}", members.join("; "));
    }
    out
}

#[cfg(test)]
mod render_tests {
    use super::*;

    const SAMPLE: &str = "\
relation R/2
relation S/3
fd R: 1 -> 2
fd S: - -> 3
mode ccp
fact R(a, 1)
fact R(a, 2)
fact S(x, y, 0)
prefer R(a, 2) > S(x, y, 0)
repair best: R(a, 2); S(x, y, 0)
";

    #[test]
    fn render_parse_roundtrip() {
        let ws = parse_workspace(SAMPLE).unwrap();
        let text = render_workspace(&ws);
        let back = parse_workspace(&text).unwrap();
        assert_eq!(back.instance.len(), ws.instance.len());
        for (_, f) in ws.instance.iter() {
            assert!(back.instance.contains(f));
        }
        assert_eq!(back.schema.fds(), ws.schema.fds());
        assert_eq!(back.priority.edges(), ws.priority.edges());
        assert_eq!(back.mode, ws.mode);
        assert_eq!(back.repairs.len(), ws.repairs.len());
        assert_eq!(back.repairs[0].1.len(), 2);
    }

    #[test]
    fn rendered_text_uses_the_documented_directives() {
        let ws = parse_workspace(SAMPLE).unwrap();
        let text = render_workspace(&ws);
        assert!(text.contains("relation R/2"));
        assert!(text.contains("fd S: - -> 3"));
        assert!(text.contains("mode ccp"));
        assert!(text.contains("prefer R(a,2) > S(x,y,0)"));
        assert!(text.contains("repair best:"));
    }
}
