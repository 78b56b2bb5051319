//! # rpr-audit — the independent certificate auditor
//!
//! Re-validates `cert_v` 1 verdict certificates (see
//! `rpr-format::certificate_json` and DESIGN.md §"Certificates &
//! audit") **without trusting any production code**: this crate has
//! zero dependencies, imports nothing from `rpr-core`/`rpr-fd`/
//! `rpr-data`, and re-implements the little theory it needs — attribute
//! closures as a fixpoint over `u64` bitmasks, and naive FD evaluation
//! over the flat fact list embedded in the certificate.
//!
//! The certificate is self-contained, so [`audit`] takes only the
//! serialized text and answers "does this evidence actually prove the
//! claimed verdict?":
//!
//! * `inconsistent` — the named pair must violate an embedded FD;
//! * `improvable` — the improved set must be consistent, differ from
//!   the candidate, and beat every lost fact via an embedded priority
//!   edge (§2.3's definition of a global improvement, checked
//!   fact-by-fact);
//! * `optimal` — the candidate must be consistent, the maximality
//!   cover must block every outside fact, and for every multi-block
//!   Lemma 4.2 group of every single-FD relation the block evidence
//!   must name an unbeaten selected fact per alternative block (no
//!   improving swap). Scope `complete` additionally requires the whole
//!   schema on the single-FD side, where Lemma 4.2 makes the swap
//!   space exhaustive.
//!
//! Classification claims are re-derived, not believed: single-FD and
//! two-keys equivalences are checked in both directions with the
//! auditor's own closure fixpoint, and a `hard` claim is accepted only
//! after *both* tractability tests independently fail here too, plus
//! the §5.2 case conditions on the carried gadget pair `(A, B)`.
//!
//! The document is parsed into one flat node list whose strings borrow
//! the text (only an escaped one is copied); the extracted certificate
//! borrows it in turn. Candidate membership and the covers are `bool`
//! vectors over fact ids, the priority edges a sorted list, and the
//! Lemma 4.2 grouping a sort by projection, so auditing costs
//! `O(certificate size)` up to sorting — far below re-running the
//! checkers, and entirely reviewable in one sitting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit failed: {}", self.message)
    }
}

impl std::error::Error for AuditError {}

/// How deeply JSON containers, and pairs in a value encoding, may
/// nest. Genuine certificates nest a handful of levels; the bound keeps
/// the recursive parsers off the end of the stack on hostile input.
const MAX_DEPTH: usize = 64;

fn err<T>(message: impl Into<String>) -> Result<T, AuditError> {
    Err(AuditError { message: message.into() })
}

/// What a successfully audited certificate established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// `"check"` or `"classification"`.
    pub kind: String,
    /// The validated verdict (`"inconsistent"`, `"improvable"`,
    /// `"optimal"`), if the certificate carries one.
    pub verdict: Option<String>,
    /// Number of facts in the embedded instance.
    pub facts: usize,
    /// Number of relations in the embedded schema.
    pub relations: usize,
}

// ---------------------------------------------------------------------
// Minimal JSON (objects, arrays, strings, i64 integers)
// ---------------------------------------------------------------------

/// One node of a parsed document, in document order: a container is
/// followed by its members (an object's as key, value pairs) and knows
/// their count and the index just past them. Strings without escapes
/// borrow the text.
enum Node<'a> {
    Int(i64),
    Str(Cow<'a, str>),
    Arr { len: usize, end: usize },
    Obj { len: usize, end: usize },
}

/// A value of a parsed document.
#[derive(Clone, Copy)]
struct Jv<'d> {
    nodes: &'d [Node<'d>],
    at: usize,
}

/// The members of a container: the next one and how many are left.
struct Items<'d>(Jv<'d>, usize);

impl<'d> Iterator for Items<'d> {
    type Item = Jv<'d>;

    fn next(&mut self) -> Option<Jv<'d>> {
        self.1 = self.1.checked_sub(1)?;
        let item = self.0;
        self.0.at = match item.nodes[item.at] {
            Node::Arr { end, .. } | Node::Obj { end, .. } => end,
            _ => item.at + 1,
        };
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.1, Some(self.1))
    }
}

impl ExactSizeIterator for Items<'_> {}

impl<'d> Jv<'d> {
    fn get(self, key: &str) -> Option<Jv<'d>> {
        let Node::Obj { len, .. } = self.nodes[self.at] else { return None };
        let mut fields = Items(Jv { at: self.at + 1, ..self }, 2 * len);
        std::iter::from_fn(|| Some((fields.next()?, fields.next()?)))
            .find(|(k, _)| k.as_str() == Ok(key))
            .map(|(_, v)| v)
    }

    fn field(self, key: &str) -> Result<Jv<'d>, AuditError> {
        self.get(key).ok_or(AuditError { message: format!("missing field {key:?}") })
    }

    fn as_arr(self) -> Result<Items<'d>, AuditError> {
        match self.nodes[self.at] {
            Node::Arr { len, .. } => Ok(Items(Jv { at: self.at + 1, ..self }, len)),
            _ => err("expected an array"),
        }
    }

    /// The items of an array, if it holds exactly `N`.
    fn tuple<const N: usize>(self) -> Result<Option<[Jv<'d>; N]>, AuditError> {
        let mut items = self.as_arr()?;
        Ok((items.len() == N).then(|| [(); N].map(|()| items.next().expect("N items"))))
    }

    fn as_str(self) -> Result<&'d str, AuditError> {
        match &self.nodes[self.at] {
            Node::Str(s) => Ok(s),
            _ => err("expected a string"),
        }
    }

    fn as_usize(self) -> Result<usize, AuditError> {
        match self.nodes[self.at] {
            Node::Int(i) if i >= 0 => Ok(i as usize),
            _ => err("expected a non-negative integer"),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    nodes: Vec<Node<'a>>,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn fail<T>(&self, message: &str) -> Result<T, AuditError> {
        err(format!("json byte {}: {message}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<(), AuditError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => self.string().map(|s| self.nodes.push(Node::Str(s))),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected byte"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// An object (`close` is `}`) or an array (`]`).
    fn container(&mut self, close: u8) -> Result<(), AuditError> {
        if self.depth == MAX_DEPTH {
            return self.fail("containers nest too deeply");
        }
        self.depth += 1;
        self.pos += 1; // '{' or '['
        let object = close == b'}';
        let at = self.nodes.len();
        self.nodes.push(Node::Arr { len: 0, end: 0 }); // filled in below
        let (mut len, mut keys) = (0, Vec::new());
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
        } else {
            loop {
                if object {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.fail("expected a field name");
                    }
                    let key = self.string()?;
                    if keys.iter().any(|&k| matches!(&self.nodes[k], Node::Str(s) if *s == key)) {
                        return self.fail("duplicate field");
                    }
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return self.fail("expected ':'");
                    }
                    self.pos += 1;
                    keys.push(self.nodes.len());
                    self.nodes.push(Node::Str(key));
                }
                self.value()?;
                len += 1;
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(&b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ if object => return self.fail("expected ',' or '}'"),
                    _ => return self.fail("expected ',' or ']'"),
                }
            }
        }
        let end = self.nodes.len();
        self.nodes[at] = if object { Node::Obj { len, end } } else { Node::Arr { len, end } };
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, str>, AuditError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // The run up to the next quote, escape or control byte: it
            // stops before an ASCII byte, so the slice is whole UTF-8.
            let start = self.pos;
            let rest = &self.bytes[start..];
            let stop = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos += stop.unwrap_or(rest.len());
            let run = &self.text[start..self.pos];
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    // Escapes always add to `out`: an empty one means none.
                    let s = if out.is_empty() { Cow::Borrowed(run) } else { (out + run).into() };
                    return Ok(s);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let mut cp = 0u32;
                            for _ in 0..4 {
                                self.pos += 1;
                                let digit = self.bytes.get(self.pos).map(|&b| b as char);
                                let Some(d) = digit.and_then(|c| c.to_digit(16)) else {
                                    return self.fail("bad \\u escape");
                                };
                                cp = cp * 16 + d;
                            }
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.fail("unsupported \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.fail("raw control character"),
            }
        }
    }

    fn number(&mut self) -> Result<(), AuditError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return self.fail("certificates contain integers only");
        }
        let i = self.text[start..self.pos].parse::<i64>().or_else(|_| self.fail("bad integer"))?;
        self.nodes.push(Node::Int(i));
        Ok(())
    }
}

/// The nodes of the document `text`; the root is the first.
fn parse_json(text: &str) -> Result<Vec<Node<'_>>, AuditError> {
    let nodes = Vec::with_capacity(text.len() / 8);
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, nodes, depth: 0 };
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing bytes");
    }
    Ok(p.nodes)
}

// ---------------------------------------------------------------------
// The certificate model
// ---------------------------------------------------------------------

/// An FD as the auditor sees it: 1-based attributes in `u64` bitmasks.
#[derive(Clone, Copy)]
struct AFd {
    rel: usize,
    lhs: u64,
    rhs: u64,
}

/// The extracted certificate (classification and verdict read in place).
struct Cert<'d> {
    mode: Mode,
    arities: Vec<usize>,
    fds: Vec<AFd>,
    /// `facts[id] = (rel, start of its values in vals)`.
    facts: Vec<(usize, usize)>,
    /// Every fact's value encodings, fact after fact.
    vals: Vec<&'d str>,
    /// The priority edges, sorted, without duplicates.
    edges: Vec<(usize, usize)>,
    classification: Jv<'d>,
    scope_classical: bool,
    check: Option<(Vec<usize>, Jv<'d>)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Conflict,
    Ccp,
}

/// The attribute closure of `start` under `fds` (ignoring relations —
/// callers pass per-relation FD slices).
fn closure(start: u64, fds: &[AFd]) -> u64 {
    let mut acc = start;
    loop {
        let before = acc;
        for fd in fds {
            if fd.lhs & !acc == 0 {
                acc |= fd.rhs;
            }
        }
        if acc == before {
            return acc;
        }
    }
}

/// Does `fds` imply `lhs → rhs`?
fn implies(fds: &[AFd], lhs: u64, rhs: u64) -> bool {
    closure(lhs, fds) & rhs == rhs
}

/// Does the single FD `lhs → rhs` imply every FD of `fds`?
fn implies_all(lhs: u64, rhs: u64, fds: &[AFd]) -> bool {
    fds.iter().all(|fd| implies(&[AFd { rel: 0, lhs, rhs }], fd.lhs, fd.rhs))
}

fn mask_of(arr: Jv<'_>, arity: usize) -> Result<u64, AuditError> {
    let mut mask = 0u64;
    for a in arr.as_arr()? {
        let a = a.as_usize()?;
        if a == 0 || a > arity || a > 63 {
            return err(format!("attribute {a} out of range (arity {arity})"));
        }
        let bit = 1u64 << a;
        if mask & bit != 0 {
            return err(format!("duplicate attribute {a}"));
        }
        mask |= bit;
    }
    Ok(mask)
}

fn full_mask(arity: usize) -> u64 {
    (1..=arity).fold(0, |mask, a| mask | 1u64 << a)
}

/// Validates the tagged injective value encoding: `i<decimal>`,
/// `s<len>:<bytes>`, `p(<enc>,<enc>)`, with pairs nested at most
/// [`MAX_DEPTH`] deep.
fn check_encoding(s: &str) -> bool {
    fn one(b: &[u8], pos: usize, depth: usize) -> Option<usize> {
        match b.get(pos)? {
            b'i' => {
                let mut p = pos + 1;
                if b.get(p) == Some(&b'-') {
                    p += 1;
                }
                let digits = p;
                while matches!(b.get(p), Some(b'0'..=b'9')) {
                    p += 1;
                }
                (p > digits).then_some(p)
            }
            b's' => {
                let mut p = pos + 1;
                let digits = p;
                let mut len = 0usize;
                while let Some(d @ b'0'..=b'9') = b.get(p) {
                    len = len.checked_mul(10)?.checked_add((d - b'0') as usize)?;
                    p += 1;
                }
                if p == digits || b.get(p) != Some(&b':') {
                    return None;
                }
                p = p.checked_add(1)?.checked_add(len)?;
                (p <= b.len()).then_some(p)
            }
            b'p' if depth < MAX_DEPTH => {
                let then = |p: usize, c: u8| (b.get(p) == Some(&c)).then_some(p + 1);
                let p = one(b, then(pos + 1, b'(')?, depth + 1)?;
                let p = one(b, then(p, b',')?, depth + 1)?;
                then(p, b')')
            }
            _ => None,
        }
    }
    let b = s.as_bytes();
    one(b, 0, 0) == Some(b.len())
}

impl Cert<'_> {
    fn fds_for(&self, rel: usize) -> Vec<AFd> {
        self.fds.iter().copied().filter(|fd| fd.rel == rel).collect()
    }

    /// Fact `id`'s values on the attributes of `mask`, in order.
    fn key(&self, id: usize, mask: u64) -> impl Iterator<Item = &str> + '_ {
        let (rel, start) = self.facts[id];
        let vals = &self.vals[start..start + self.arities[rel]];
        let mut rest = mask;
        std::iter::from_fn(move || {
            let a = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (a < 64).then(|| vals[a - 1])
        })
    }

    fn agree(&self, f: usize, g: usize, mask: u64) -> bool {
        self.key(f, mask).eq(self.key(g, mask))
    }

    fn has_edge(&self, f: usize, g: usize) -> bool {
        self.edges.binary_search(&(f, g)).is_ok()
    }

    /// Do facts `f` and `g` conflict (same relation, some FD with equal
    /// left-hand projections and unequal right-hand projections)?
    fn conflict(&self, f: usize, g: usize) -> bool {
        let rel = self.facts[f].0;
        rel == self.facts[g].0
            && self
                .fds
                .iter()
                .any(|fd| fd.rel == rel && self.agree(f, g, fd.lhs) && !self.agree(f, g, fd.rhs))
    }

    /// Naive consistency of a fact set (ascending ids): group per FD by
    /// the left-hand projection and demand agreement on the right-hand
    /// side. Names the first fact, in `set` order, that disagrees with
    /// its group's first.
    fn consistent(&self, set: &[usize]) -> Option<(usize, usize)> {
        self.fds.iter().find_map(|fd| {
            let mut members: Vec<usize> =
                set.iter().copied().filter(|&id| self.facts[id].0 == fd.rel).collect();
            // Stable, so every group keeps `set` order.
            members.sort_by(|&a, &b| self.key(a, fd.lhs).cmp(self.key(b, fd.lhs)));
            let groups = members.chunk_by(|&a, &b| self.agree(a, b, fd.lhs));
            groups
                .filter_map(|g| {
                    g.iter().find(|&&id| !self.agree(g[0], id, fd.rhs)).map(|&id| (g[0], id))
                })
                .min_by_key(|&(_, id)| id)
        })
    }
}

fn strictly_increasing_ids(arr: Jv<'_>, n: usize, what: &str) -> Result<Vec<usize>, AuditError> {
    let mut out = Vec::new();
    for item in arr.as_arr()? {
        let id = item.as_usize()?;
        if id >= n {
            return err(format!("{what}: fact id {id} out of range"));
        }
        if out.last().is_some_and(|&last| id <= last) {
            return err(format!("{what}: ids must be strictly increasing"));
        }
        out.push(id);
    }
    Ok(out)
}

fn id_pairs(arr: Jv<'_>, n_facts: usize, what: &str) -> Result<Vec<(usize, usize)>, AuditError> {
    let mut out = Vec::new();
    for item in arr.as_arr()? {
        let Some([a, b]) = item.tuple()? else {
            return err(format!("{what}: expected [id,id] pairs"));
        };
        let (a, b) = (a.as_usize()?, b.as_usize()?);
        if a >= n_facts || b >= n_facts {
            return err(format!("{what}: fact id out of range"));
        }
        out.push((a, b));
    }
    Ok(out)
}

/// `true` at every id of `ids`, over `n` facts.
fn member_flags(ids: &[usize], n: usize) -> Vec<bool> {
    let mut flags = vec![false; n];
    ids.iter().for_each(|&id| flags[id] = true);
    flags
}

// ---------------------------------------------------------------------
// Structural extraction
// ---------------------------------------------------------------------

fn extract(doc: Jv<'_>) -> Result<Cert<'_>, AuditError> {
    if doc.field("cert_v")?.as_usize()? != 1 {
        return err("unsupported cert_v");
    }
    let kind = doc.field("kind")?.as_str()?;
    let mode = match doc.field("mode")?.as_str()? {
        "conflict" => Mode::Conflict,
        "ccp" => Mode::Ccp,
        other => return err(format!("unknown mode {other:?}")),
    };

    let schema = doc.field("schema")?;
    let mut arities = Vec::new();
    let mut seen_names: HashSet<&str> = HashSet::new();
    for rel in schema.field("relations")?.as_arr()? {
        let Some([name, arity]) = rel.tuple()? else {
            return err("relation entries are [name, arity]");
        };
        let name = name.as_str()?;
        if !seen_names.insert(name) {
            return err(format!("duplicate relation name {name:?}"));
        }
        let arity = arity.as_usize()?;
        if arity == 0 || arity > 63 {
            return err(format!("arity {arity} out of the auditable range 1..=63"));
        }
        arities.push(arity);
    }

    let mut fds = Vec::new();
    for fd in schema.field("fds")?.as_arr()? {
        let Some([rel, lhs, rhs]) = fd.tuple()? else {
            return err("fd entries are [rel, lhs, rhs]");
        };
        let rel = rel.as_usize()?;
        if rel >= arities.len() {
            return err(format!("fd relation {rel} out of range"));
        }
        let arity = arities[rel];
        fds.push(AFd { rel, lhs: mask_of(lhs, arity)?, rhs: mask_of(rhs, arity)? });
    }

    let all_facts = doc.field("facts")?.as_arr()?;
    let mut facts = Vec::with_capacity(all_facts.len());
    // A fact holds at most `max arity` values, each one node.
    let max_arity = arities.iter().max().copied().unwrap_or(0);
    let mut vals = Vec::with_capacity(doc.nodes.len().min(all_facts.len() * max_arity));
    for fact in all_facts {
        let Some([rel, tuple]) = fact.tuple()? else {
            return err("fact entries are [rel, [values]]");
        };
        let rel = rel.as_usize()?;
        if rel >= arities.len() {
            return err(format!("fact relation {rel} out of range"));
        }
        let tuple = tuple.as_arr()?;
        if tuple.len() != arities[rel] {
            return err("fact arity mismatch");
        }
        facts.push((rel, vals.len()));
        for v in tuple {
            let v = v.as_str()?;
            if !check_encoding(v) {
                return err(format!("malformed value encoding {v:?}"));
            }
            vals.push(v);
        }
    }

    let mut edges = id_pairs(doc.field("priority")?, facts.len(), "priority")?;
    if edges.iter().any(|&(f, g)| f == g) {
        return err("priority self-loop");
    }
    edges.sort_unstable();
    edges.dedup();
    // §2.3 demands acyclicity; a cyclic priority certifies nothing.
    let mut indeg = vec![0usize; facts.len()];
    edges.iter().for_each(|&(_, g)| indeg[g] += 1);
    let mut queue: Vec<usize> = (0..facts.len()).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(f) = queue.pop() {
        seen += 1;
        let succ = &edges[edges.partition_point(|&(e, _)| e < f)..];
        for &(_, g) in succ.iter().take_while(|&&(e, _)| e == f) {
            indeg[g] -= 1;
            if indeg[g] == 0 {
                queue.push(g);
            }
        }
    }
    if seen != facts.len() {
        return err("priority relation is cyclic");
    }

    let classification = doc.field("classification")?;
    let scope_classical = match classification.field("scope")?.as_str()? {
        "classical" => true,
        "ccp" => false,
        other => return err(format!("unknown classification scope {other:?}")),
    };
    // The dispatch plan is determined by the mode; a certificate mixing
    // them is lying about which theorem it ran under.
    if scope_classical != (mode == Mode::Conflict) {
        return err("classification scope does not match the priority mode");
    }

    let check = match kind {
        "check" => {
            let candidate =
                strictly_increasing_ids(doc.field("candidate")?, facts.len(), "candidate")?;
            Some((candidate, doc.field("verdict")?))
        }
        "classification" => {
            if doc.get("candidate").is_some() || doc.get("verdict").is_some() {
                return err("classification certificates carry no candidate or verdict");
            }
            None
        }
        other => return err(format!("unknown certificate kind {other:?}")),
    };

    Ok(Cert { mode, arities, fds, facts, vals, edges, classification, scope_classical, check })
}

// ---------------------------------------------------------------------
// Classification validation
// ---------------------------------------------------------------------

/// Is `fds` equivalent to the single FD `lhs → rhs`?
fn equivalent_to_single(fds: &[AFd], lhs: u64, rhs: u64) -> bool {
    implies(fds, lhs, rhs) && implies_all(lhs, rhs, fds)
}

/// The distinct left-hand sides occurring in `fds` (Lemma 6.2 limits
/// single-FD / two-keys equivalence witnesses to these).
fn lhs_candidates(fds: &[AFd]) -> Vec<u64> {
    let mut seen = Vec::new();
    for fd in fds {
        if !seen.contains(&fd.lhs) {
            seen.push(fd.lhs);
        }
    }
    seen
}

/// Re-runs the single-FD tractability test (Theorem 3.1 condition 1).
fn some_single_fd(fds: &[AFd]) -> bool {
    if fds.iter().all(|fd| fd.rhs & !fd.lhs == 0) {
        return true; // all-trivial Δ ≡ a trivial FD
    }
    lhs_candidates(fds).into_iter().any(|a| equivalent_to_single(fds, a, closure(a, fds)))
}

/// Re-runs the two-incomparable-keys tractability test (condition 2).
fn some_two_keys(fds: &[AFd], arity: usize) -> bool {
    let full = full_mask(arity);
    let candidates = lhs_candidates(fds);
    for (i, &a1) in candidates.iter().enumerate() {
        if closure(a1, fds) != full {
            continue;
        }
        for &a2 in candidates.iter().skip(i + 1) {
            if a1 & !a2 == 0 || a2 & !a1 == 0 {
                continue; // comparable
            }
            if closure(a2, fds) != full {
                continue;
            }
            let keys = [AFd { rel: 0, lhs: a1, rhs: full }, AFd { rel: 0, lhs: a2, rhs: full }];
            if fds.iter().all(|fd| implies(&keys, fd.lhs, fd.rhs)) {
                return true;
            }
        }
    }
    false
}

/// Re-runs the ccp single-key test (Theorem 7.1, primary keys).
fn some_single_key(fds: &[AFd], arity: usize) -> bool {
    if fds.iter().all(|fd| fd.rhs & !fd.lhs == 0) {
        return true; // trivial Δ ≡ the trivial key ⟦R⟧ → ⟦R⟧
    }
    let full = full_mask(arity);
    lhs_candidates(fds)
        .into_iter()
        .any(|a| closure(a, fds) == full && equivalent_to_single(fds, a, closure(a, fds)))
}

/// Re-runs the ccp constant-attribute test (`Δ ≡ ∅ → B`).
fn constant_attribute_b(fds: &[AFd]) -> Option<u64> {
    let b = closure(0, fds);
    implies_all(0, b, fds).then_some(b)
}

fn check_hard_case(case: Jv<'_>, fds: &[AFd], arity: usize) -> Result<(), AuditError> {
    // The load-bearing claim: both tractability tests fail.
    if some_single_fd(fds) {
        return err("hard claim refuted: Δ|R is equivalent to a single FD");
    }
    if some_two_keys(fds, arity) {
        return err("hard claim refuted: Δ|R is equivalent to two incomparable keys");
    }
    // The §5.2 case conditions on the carried gadget.
    let number = case.field("case")?.as_usize()?;
    match number {
        0 => Ok(()), // undiagnosed: hardness stands on the failed tests
        1 => {
            let keys = case.field("keys")?.as_arr()?;
            if keys.len() < 3 {
                return err("case 1 needs at least 3 keys");
            }
            let full = full_mask(arity);
            let mut masks = Vec::new();
            for k in keys {
                let k = mask_of(k, arity)?;
                if closure(k, fds) != full {
                    return err("case 1: listed attribute set is not a key");
                }
                masks.push(k);
            }
            for (i, &k1) in masks.iter().enumerate() {
                for &k2 in &masks[i + 1..] {
                    if k1 & !k2 == 0 || k2 & !k1 == 0 {
                        return err("case 1: keys must be pairwise incomparable");
                    }
                }
            }
            Ok(())
        }
        2..=7 => {
            let a = mask_of(case.field("a")?, arity)?;
            let b = mask_of(case.field("b")?, arity)?;
            if a == b {
                return err("gadget pair must be distinct");
            }
            let a_plus = closure(a, fds);
            let b_plus = closure(b, fds);
            let a_hat = a_plus & !a;
            let b_hat = b_plus & !b;
            let ok = match number {
                2 => a_plus == b_plus,
                3 => b_plus & !a_plus != 0 && a & b_hat != 0 && a_hat & b != 0,
                4 => b_plus & !a_plus != 0 && a & b_hat != 0 && a_hat & b == 0,
                5 => b_plus & !a_plus != 0 && a & b_hat == 0 && b_hat & !a_hat == 0,
                6 => b_plus & !a_plus != 0 && a & b_hat == 0 && b_hat & !a_hat != 0,
                7 => a_plus & !b_plus != 0,
                _ => unreachable!(),
            };
            if ok {
                Ok(())
            } else {
                err(format!("case {number} closure conditions do not hold for (A, B)"))
            }
        }
        other => err(format!("unknown hard case {other}")),
    }
}

/// Validates the classification and returns, for classical scope, the
/// single FD per relation on the single-FD side (`None` entries are
/// two-keys or hard).
fn check_classification(cert: &Cert<'_>) -> Result<Vec<Option<(u64, u64)>>, AuditError> {
    let n = cert.arities.len();
    let mut single: Vec<Option<(u64, u64)>> = vec![None; n];
    if cert.scope_classical {
        let rels = cert.classification.field("relations")?.as_arr()?;
        if rels.len() != n {
            return err("classification must cover every relation");
        }
        for (expect_rel, entry) in rels.enumerate() {
            let order = "classification relations must appear once each, in order";
            let Some([rel, class]) = entry.tuple()? else { return err(order) };
            if rel.as_usize()? != expect_rel {
                return err(order);
            }
            let arity = cert.arities[expect_rel];
            let fds = cert.fds_for(expect_rel);
            match class.field("kind")?.as_str()? {
                "single_fd" => {
                    let lhs = mask_of(class.field("lhs")?, arity)?;
                    let rhs = mask_of(class.field("rhs")?, arity)?;
                    if !equivalent_to_single(&fds, lhs, rhs) {
                        return err(format!(
                            "relation {expect_rel}: Δ|R is not equivalent to the claimed FD"
                        ));
                    }
                    single[expect_rel] = Some((lhs, rhs));
                }
                "two_keys" => {
                    let k1 = mask_of(class.field("k1")?, arity)?;
                    let k2 = mask_of(class.field("k2")?, arity)?;
                    let full = full_mask(arity);
                    if closure(k1, &fds) != full || closure(k2, &fds) != full {
                        return err(format!("relation {expect_rel}: claimed key is not a key"));
                    }
                    if k1 & !k2 == 0 || k2 & !k1 == 0 {
                        return err(format!("relation {expect_rel}: keys are comparable"));
                    }
                    let keys =
                        [AFd { rel: 0, lhs: k1, rhs: full }, AFd { rel: 0, lhs: k2, rhs: full }];
                    if !fds.iter().all(|fd| implies(&keys, fd.lhs, fd.rhs)) {
                        return err(format!(
                            "relation {expect_rel}: Δ|R is not implied by the claimed keys"
                        ));
                    }
                }
                "hard" => check_hard_case(class, &fds, arity).map_err(|e| AuditError {
                    message: format!("relation {expect_rel}: {}", e.message),
                })?,
                other => return err(format!("unknown relation class {other:?}")),
            }
        }
    } else {
        match cert.classification.field("kind")?.as_str()? {
            "primary_key" => {
                let keys = cert.classification.field("keys")?.as_arr()?;
                if keys.len() != n {
                    return err("primary-key assignment must cover every relation");
                }
                for (rel, key) in keys.enumerate() {
                    let arity = cert.arities[rel];
                    let key = mask_of(key, arity)?;
                    let fds = cert.fds_for(rel);
                    let full = full_mask(arity);
                    if closure(key, &fds) != full {
                        return err(format!("relation {rel}: claimed primary key is not a key"));
                    }
                    if !implies_all(key, full, &fds) {
                        return err(format!("relation {rel}: Δ|R is not implied by the key"));
                    }
                }
            }
            "constant_attribute" => {
                let consts = cert.classification.field("consts")?.as_arr()?;
                if consts.len() != n {
                    return err("constant-attribute assignment must cover every relation");
                }
                for (rel, b) in consts.enumerate() {
                    let arity = cert.arities[rel];
                    let b = mask_of(b, arity)?;
                    let fds = cert.fds_for(rel);
                    if closure(0, &fds) & b != b {
                        return err(format!("relation {rel}: Δ|R does not imply ∅ → B"));
                    }
                    if !implies_all(0, b, &fds) {
                        return err(format!("relation {rel}: Δ|R is not implied by ∅ → B"));
                    }
                }
            }
            "hard" => {
                let r1 = cert.classification.field("not_primary_key")?.as_usize()?;
                let r2 = cert.classification.field("not_constant_attribute")?.as_usize()?;
                if r1 >= n || r2 >= n {
                    return err("ccp hard witness relation out of range");
                }
                if some_single_key(&cert.fds_for(r1), cert.arities[r1]) {
                    return err("ccp hard claim refuted: witness relation has a primary key");
                }
                if constant_attribute_b(&cert.fds_for(r2)).is_some() {
                    return err(
                        "ccp hard claim refuted: witness relation is a constant-attribute one",
                    );
                }
            }
            other => return err(format!("unknown ccp class {other:?}")),
        }
    }
    Ok(single)
}

// ---------------------------------------------------------------------
// Verdict validation
// ---------------------------------------------------------------------

fn check_verdict(
    cert: &Cert<'_>,
    single_fd: &[Option<(u64, u64)>],
    candidate: &[usize],
    verdict: Jv<'_>,
) -> Result<String, AuditError> {
    let n = cert.facts.len();
    let in_j = member_flags(candidate, n);
    let kind = verdict.field("kind")?.as_str()?;
    match kind {
        "inconsistent" => {
            let f = verdict.field("f")?.as_usize()?;
            let g = verdict.field("g")?.as_usize()?;
            if f >= n || g >= n {
                return err("inconsistency witness out of range");
            }
            if !in_j[f] || !in_j[g] {
                return err("inconsistency witness must lie inside the candidate");
            }
            if f == g || !cert.conflict(f, g) {
                return err("claimed inconsistent pair does not violate any FD");
            }
        }
        "improvable" => {
            let from = strictly_increasing_ids(verdict.field("from")?, n, "from")?;
            if from != candidate {
                return err("improvement witness 'from' differs from the candidate");
            }
            let to = strictly_increasing_ids(verdict.field("to")?, n, "to")?;
            if to == from {
                return err("improvement witness does not change the candidate");
            }
            if let Some((f, g)) = cert.consistent(&to) {
                return err(format!("improved set is inconsistent (facts {f} and {g})"));
            }
            let in_to = member_flags(&to, n);
            let mut covered = vec![false; n];
            for (f_prime, g) in id_pairs(verdict.field("justification")?, n, "justification")? {
                if !in_j[f_prime] || in_to[f_prime] {
                    return err("justification names a fact that is not lost");
                }
                if !in_to[g] || in_j[g] {
                    return err("justification names a beating fact that is not gained");
                }
                if !cert.has_edge(g, f_prime) {
                    return err("justification edge is not in the priority relation");
                }
                covered[f_prime] = true;
            }
            if let Some(f) = from.iter().find(|&&f| !in_to[f] && !covered[f]) {
                return err(format!("lost fact {f} is beaten by no gained fact"));
            }
        }
        "optimal" => check_optimal(cert, single_fd, candidate, &in_j, verdict)?,
        other => return err(format!("unknown verdict kind {other:?}")),
    }
    Ok(kind.to_string())
}

fn check_optimal(
    cert: &Cert<'_>,
    single_fd: &[Option<(u64, u64)>],
    candidate: &[usize],
    in_j: &[bool],
    verdict: Jv<'_>,
) -> Result<(), AuditError> {
    let n = cert.facts.len();
    // Consistency of J, recomputed from scratch.
    if let Some((f, g)) = cert.consistent(candidate) {
        return err(format!("candidate is inconsistent (facts {f} and {g})"));
    }

    // Maximality cover: every outside fact must be blocked from J.
    let mut blocked = vec![false; n];
    for (excluded, blocker) in id_pairs(verdict.field("maximality")?, n, "maximality")? {
        if in_j[excluded] {
            return err("maximality cover lists a candidate member");
        }
        if !in_j[blocker] {
            return err("maximality blocker is outside the candidate");
        }
        if !cert.conflict(excluded, blocker) {
            return err("maximality blocker does not conflict with the excluded fact");
        }
        blocked[excluded] = true;
    }
    if let Some(f) = (0..n).find(|&f| !in_j[f] && !blocked[f]) {
        return err(format!("fact {f} is outside the candidate but not blocked (J not maximal)"));
    }

    // Block evidence: for each single-FD relation, recompute the
    // Lemma 4.2 groups and demand no-improving-swap evidence per
    // multi-block group.
    let mut by_key: HashMap<(usize, usize), Jv<'_>> = HashMap::new();
    for b in verdict.field("blocks")?.as_arr()? {
        let rel = b.field("rel")?.as_usize()?;
        let group = b.field("group")?.as_usize()?;
        if by_key.insert((rel, group), b).is_some() {
            return err("duplicate block evidence");
        }
    }
    let scope = verdict.field("scope")?.as_str()?;
    let all_single = cert.scope_classical && single_fd.iter().all(|s| s.is_some());
    match scope {
        "complete" if !all_single => {
            return err("scope 'complete' claimed but the schema is not all single-FD classical");
        }
        // Complete evidence is available; refusing to provide it would
        // weaken the certificate silently.
        "repair_only" if all_single => {
            return err("all-single-FD classical schemas must certify scope 'complete'");
        }
        "complete" | "repair_only" => {}
        other => return err(format!("unknown optimal scope {other:?}")),
    }

    let mut used = 0usize;
    for (rel, fd) in single_fd.iter().enumerate() {
        let Some((lhs, rhs)) = *fd else { continue };
        // Sorted by lhs- then rhs-projection, each group is a run of
        // this relation's facts and each block a sub-run.
        let mut ids: Vec<usize> = (0..n).filter(|&id| cert.facts[id].0 == rel).collect();
        ids.sort_unstable_by(|&a, &b| {
            let by = |mask| cert.key(a, mask).cmp(cert.key(b, mask));
            by(lhs).then_with(|| by(rhs)).then(a.cmp(&b))
        });
        let mut groups: Vec<(usize, &[usize])> = ids
            .chunk_by(|&a, &b| cert.agree(a, b, lhs))
            .map(|group| (group.iter().copied().min().expect("groups are nonempty"), group))
            .collect();
        groups.sort_unstable_by_key(|&(group_min, _)| group_min);
        for (group_min, group) in groups {
            let blocks_of_group: Vec<&[usize]> =
                group.chunk_by(|&a, &b| cert.agree(a, b, rhs)).collect();
            if blocks_of_group.len() < 2 {
                continue; // no swap possible
            }
            let Some(ev) = by_key.get(&(rel, group_min)) else {
                return err(format!(
                    "relation {rel}: no block evidence for the group of fact {group_min}"
                ));
            };
            used += 1;
            if mask_of(ev.field("lhs")?, cert.arities[rel])? != lhs
                || mask_of(ev.field("rhs")?, cert.arities[rel])? != rhs
            {
                return err("block evidence FD differs from the classification");
            }
            let consistency = strictly_increasing_ids(ev.field("consistency")?, n, "consistency")?;
            let mut selected: Vec<usize> = group.iter().copied().filter(|&id| in_j[id]).collect();
            selected.sort_unstable();
            if selected.is_empty() || consistency != selected {
                return err("block evidence 'consistency' is not J ∩ group");
            }
            // A group member's block (by bisection); `None` outside it.
            let block_of = |id: usize| {
                (cert.facts[id].0 == rel && cert.agree(id, group[0], lhs)).then(|| {
                    blocks_of_group.partition_point(|b| cert.key(b[0], rhs).lt(cert.key(id, rhs)))
                })
            };
            // The block holding J's facts (consistency of J puts them
            // all in one).
            let selected_block = block_of(selected[0]);
            let mut covered = vec![false; blocks_of_group.len()];
            for (member, unbeaten) in id_pairs(ev.field("maximality")?, n, "block maximality")? {
                let Some(block) = block_of(member) else {
                    return err("block maximality entry names a fact outside the group");
                };
                if Some(block) == selected_block {
                    return err("block maximality entry names the selected block");
                }
                if selected.binary_search(&unbeaten).is_err() {
                    return err("unbeaten witness is not a selected fact");
                }
                if blocks_of_group[block].iter().any(|&g| cert.has_edge(g, unbeaten)) {
                    return err("claimed unbeaten fact is beaten by the alternative block");
                }
                covered[block] = true;
            }
            if covered.iter().filter(|&&c| c).count() != blocks_of_group.len() - 1 {
                return err("block evidence does not cover every alternative block");
            }
        }
    }
    if used != by_key.len() {
        return err("block evidence names groups that do not need any");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Audits one serialized certificate: parses it, re-derives the
/// classification, and re-validates the verdict evidence. `Ok` means
/// every claim in the certificate is justified by the embedded data;
/// `Err` pinpoints the first lie.
///
/// # Errors
/// [`AuditError`] naming the first structural or semantic problem.
pub fn audit(text: &str) -> Result<AuditReport, AuditError> {
    let nodes = parse_json(text)?;
    let cert = extract(Jv { nodes: &nodes, at: 0 })?;
    if cert.mode == Mode::Conflict {
        // §2.3: a classical priority relation only relates conflicting
        // facts; an edge elsewhere would let witnesses "beat" facts
        // they never competed with.
        if let Some(&(f, g)) = cert.edges.iter().find(|&&(f, g)| !cert.conflict(f, g)) {
            return err(format!("priority edge ({f}, {g}) joins non-conflicting facts"));
        }
    }
    let single_fd = check_classification(&cert)?;
    let check = cert.check.as_ref();
    let verdict =
        check.map(|(candidate, v)| check_verdict(&cert, &single_fd, candidate, *v)).transpose()?;
    Ok(AuditReport {
        kind: if check.is_some() { "check" } else { "classification" }.to_string(),
        verdict,
        facts: cert.facts.len(),
        relations: cert.arities.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_keep_multibyte_text_and_escapes() {
        let nodes = parse_json(r#"{"é":["s4:café","a\"ü\\ß\u00e9"]}"#).unwrap();
        let doc = Jv { nodes: &nodes, at: 0 };
        let strs: Vec<_> = doc.field("é").unwrap().as_arr().unwrap().collect();
        assert_eq!(strs[0].as_str().unwrap(), "s4:café");
        assert_eq!(strs[1].as_str().unwrap(), "a\"ü\\ßé");
        assert!(matches!(nodes[3], Node::Str(Cow::Borrowed(_))), "escape-free strings borrow");
        assert!(matches!(nodes[4], Node::Str(Cow::Owned(_))), "escaped strings are decoded");
        assert!(parse_json("\"ab\u{1}\"").is_err(), "raw control characters stay rejected");
    }

    /// A hand-written certificate for the BookLoc running example
    /// (single FD 1→2, J = {0,1,3,4}, f1d3 excluded and blocked).
    const OPTIMAL: &str = concat!(
        r#"{"cert_v":1,"kind":"check","mode":"conflict","#,
        r#""schema":{"relations":[["BookLoc",3]],"fds":[[0,[1],[2]]]},"#,
        r#""facts":[[0,["s2:b1","s7:fiction","s4:lib1"]],[0,["s2:b1","s7:fiction","s4:lib2"]],"#,
        r#"[0,["s2:b1","s5:drama","s4:lib3"]],[0,["s2:b2","s6:poetry","s4:lib1"]],"#,
        r#"[0,["s2:b3","s6:horror","s4:lib2"]]],"#,
        r#""priority":[[0,2],[1,2]],"#,
        r#""classification":{"scope":"classical","relations":[[0,{"kind":"single_fd","lhs":[1],"rhs":[1,2]}]]},"#,
        r#""candidate":[0,1,3,4],"#,
        r#""verdict":{"kind":"optimal","scope":"complete","maximality":[[2,0]],"#,
        r#""blocks":[{"rel":0,"lhs":[1],"rhs":[1,2],"group":0,"consistency":[0,1],"maximality":[[2,0]]}]}}"#,
    );

    #[test]
    fn accepts_a_genuine_optimal_certificate() {
        let report = audit(OPTIMAL).unwrap();
        assert_eq!(report.kind, "check");
        assert_eq!(report.verdict.as_deref(), Some("optimal"));
        assert_eq!(report.facts, 5);
    }

    #[test]
    fn rejects_witness_tampering() {
        // Point the maximality blocker at the excluded fact itself.
        let bad = OPTIMAL.replace(r#""maximality":[[2,0]],"#, r#""maximality":[[2,2]],"#);
        assert!(audit(&bad).is_err());
        // Claim a block's facts without evidence for the alternative.
        let bad = OPTIMAL.replace(r#""maximality":[[2,0]]}]}}"#, r#""maximality":[]}]}}"#);
        assert!(audit(&bad).is_err());
        // Drop the candidate member 0: the evidence no longer matches.
        let bad = OPTIMAL.replace(r#""candidate":[0,1,3,4]"#, r#""candidate":[1,3,4]"#);
        assert!(audit(&bad).is_err());
        // Swap the verdict kind with the fields kept.
        let bad = OPTIMAL.replace(r#""kind":"optimal""#, r#""kind":"improvable""#);
        assert!(audit(&bad).is_err());
    }

    #[test]
    fn rejects_false_classifications() {
        // Claim two keys for a single-FD relation.
        let bad = OPTIMAL.replace(
            r#"{"kind":"single_fd","lhs":[1],"rhs":[1,2]}"#,
            r#"{"kind":"two_keys","k1":[1],"k2":[2]}"#,
        );
        assert!(audit(&bad).is_err());
        // Claim hardness for a tractable relation.
        let bad = OPTIMAL.replace(
            r#"{"kind":"single_fd","lhs":[1],"rhs":[1,2]}"#,
            r#"{"kind":"hard","case":0}"#,
        );
        assert!(audit(&bad).is_err());
    }

    #[test]
    fn rejects_structural_garbage() {
        for text in [
            "",
            "{}",
            r#"{"cert_v":2}"#,
            &OPTIMAL.replace(r#""priority":[[0,2],[1,2]]"#, r#""priority":[[0,2],[2,0]]"#),
            &OPTIMAL.replace("s7:fiction", "s9:fiction"),
        ] {
            assert!(audit(text).is_err());
        }
    }

    #[test]
    fn names_the_least_edge_between_non_conflicting_facts() {
        // Facts 0/3 and 3/4 do not conflict; the list names (3, 4) first.
        let bad = OPTIMAL
            .replace(r#""priority":[[0,2],[1,2]]"#, r#""priority":[[3,4],[0,3],[0,2],[1,2]]"#);
        let e = audit(&bad).unwrap_err();
        assert_eq!(e.message, "priority edge (0, 3) joins non-conflicting facts");
    }

    /// A block-maximality entry naming a fact of another, lower-arity
    /// relation. The auditor once projected it onto the group's FD
    /// before checking its relation, and indexed out of bounds.
    #[test]
    fn block_entries_from_another_relation_are_rejected_not_indexed() {
        let text = concat!(
            r#"{"cert_v":1,"kind":"check","mode":"conflict","#,
            r#""schema":{"relations":[["A",1],["B",2]],"fds":[[1,[1],[2]]]},"#,
            r#""facts":[[0,["s1:a"]],[1,["s1:k","s1:x"]],[1,["s1:k","s1:y"]]],"#,
            r#""priority":[[1,2]],"classification":{"scope":"classical","relations":"#,
            r#"[[0,{"kind":"single_fd","lhs":[1],"rhs":[1]}],"#,
            r#"[1,{"kind":"single_fd","lhs":[1],"rhs":[1,2]}]]},"#,
            r#""candidate":[0,1],"verdict":{"kind":"optimal","scope":"complete","#,
            r#""maximality":[[2,1]],"blocks":[{"rel":1,"lhs":[1],"rhs":[1,2],"group":1,"#,
            r#""consistency":[1],"maximality":[[0,1]]}]}}"#,
        );
        let e = audit(text).unwrap_err();
        assert_eq!(e.message, "block maximality entry names a fact outside the group");
        let good = text.replace(r#""maximality":[[0,1]]}"#, r#""maximality":[[2,1]]}"#);
        assert_eq!(audit(&good).unwrap().verdict.as_deref(), Some("optimal"));
    }

    #[test]
    fn value_encoding_validation() {
        assert!(check_encoding("i12"));
        assert!(check_encoding("i-3"));
        assert!(check_encoding("s0:"));
        assert!(check_encoding("s3:a,b"));
        assert!(check_encoding("p(i1,s1:x)"));
        assert!(check_encoding("p(p(i1,i2),s2:ab)"));
        for bad in ["", "x", "i", "s3:ab", "s2:abc", "p(i1)", "p(i1,i2", "12"] {
            assert!(!check_encoding(bad), "accepted {bad:?}");
        }
    }

    /// `depth` pairs nested in their first component around `i0`.
    fn nested_pairs(depth: usize) -> String {
        format!("{}i0{}", "p(".repeat(depth), ",i0)".repeat(depth))
    }

    #[test]
    fn pairs_nest_up_to_the_bound() {
        assert!(check_encoding(&nested_pairs(MAX_DEPTH)));
        assert!(!check_encoding(&nested_pairs(MAX_DEPTH + 1)));
        // Far past the bound: rejected, not a stack overflow.
        assert!(!check_encoding(&"p(".repeat(200_000)));
        assert!(!check_encoding(&nested_pairs(200_000)));
    }

    /// A line of 200 000 `[` once overflowed the stack in the recursive
    /// JSON parser and aborted `rpr audit`; it is now a plain error.
    #[test]
    fn deeply_nested_json_is_rejected_not_overflowed() {
        for open in ["[", "{\"a\":"] {
            let e = audit(&open.repeat(200_000)).unwrap_err();
            assert!(e.message.ends_with("containers nest too deeply"), "{}", e.message);
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse_json(&at_bound).map(|nodes| nodes.len()).ok(), Some(MAX_DEPTH));
        let past = format!("[{at_bound}]");
        assert_eq!(
            parse_json(&past).err().map(|e| e.message),
            Some(format!("json byte {MAX_DEPTH}: containers nest too deeply"))
        );
    }
}
