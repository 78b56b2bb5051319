//! The tree auditor as it stood before the borrowing rewrite, kept as
//! the reference the shipped auditor must agree with (see
//! `mutation.rs`): it parses the whole certificate into a tree of owned
//! strings, copies every value, and groups facts in `std` hash maps
//! keyed by projected string tuples.
//!
//! It differs from the old code in three places, each marked
//! "Deviation" below:
//!
//! 1. A conflict-mode certificate with several priority edges between
//!    non-conflicting facts named whichever one a `HashSet` yielded
//!    first, so the message varied from run to run; it now names the
//!    least edge.
//! 2. Lemma 4.2 groups were visited in `HashMap` order, so a
//!    certificate with several bad groups named one at random; they are
//!    now visited in order of their least fact id.
//! 3. A block-maximality entry naming a fact of another, lower-arity
//!    relation was projected before its relation was checked and
//!    indexed out of bounds (a panic); the relation is now checked
//!    first, and the entry is rejected as "outside the group".

#![allow(dead_code)]

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

#[derive(Debug, Clone, PartialEq, Eq)]
enum Jv {
    Int(i64),
    Str(String),
    Arr(Vec<Jv>),
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    fn get(&self, key: &str) -> Option<&Jv> {
        match self {
            Jv::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field<'a>(&'a self, key: &str) -> Result<&'a Jv, AuditError> {
        self.get(key).ok_or(AuditError { message: format!("missing field {key:?}") })
    }

    fn as_arr(&self) -> Result<&[Jv], AuditError> {
        match self {
            Jv::Arr(items) => Ok(items),
            _ => err("expected an array"),
        }
    }

    fn as_str(&self) -> Result<&str, AuditError> {
        match self {
            Jv::Str(s) => Ok(s),
            _ => err("expected a string"),
        }
    }

    fn as_usize(&self) -> Result<usize, AuditError> {
        match self {
            Jv::Int(i) if *i >= 0 => Ok(*i as usize),
            _ => err("expected a non-negative integer"),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, message: &str) -> Result<T, AuditError> {
        err(format!("json byte {}: {message}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Jv, AuditError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Jv::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected byte"),
            None => self.fail("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Jv, AuditError> {
        self.pos += 1; // '{'
        let mut fields: Vec<(String, Jv)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Jv::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return self.fail("expected a field name");
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return self.fail("duplicate field");
            }
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return self.fail("expected ':'");
            }
            self.pos += 1;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Jv::Obj(fields));
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Jv, AuditError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Jv::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Jv::Arr(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, AuditError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let mut cp = 0u32;
                            for _ in 0..4 {
                                self.pos += 1;
                                let d = match self.bytes.get(self.pos) {
                                    Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                                    Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                                    Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                                    _ => return self.fail("bad \\u escape"),
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
                Some(&b) if b < 0x20 => return self.fail("raw control character"),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one go. The input is a `&str` and the run
                    // stops before an ASCII byte, so the slice is whole
                    // UTF-8.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Jv, AuditError> {
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
        match std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<i64>().ok())
        {
            Some(i) => Ok(Jv::Int(i)),
            None => self.fail("bad integer"),
        }
    }
}

fn parse_json(text: &str) -> Result<Jv, AuditError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing bytes");
    }
    Ok(v)
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

struct Cert {
    mode: Mode,
    arities: Vec<usize>,
    fds: Vec<AFd>,
    /// `facts[id] = (rel, encoded values)`.
    facts: Vec<(usize, Vec<String>)>,
    edges: HashSet<(usize, usize)>,
    classification: Jv,
    scope_classical: bool,
    check: Option<(Vec<usize>, Jv)>,
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

fn mask_of(arr: &Jv, arity: usize) -> Result<u64, AuditError> {
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
    let mut mask = 0u64;
    for a in 1..=arity {
        mask |= 1u64 << a;
    }
    mask
}

/// Validates the tagged injective value encoding: `i<decimal>`,
/// `s<len>:<bytes>`, `p(<enc>,<enc>)`.
fn check_encoding(s: &str) -> bool {
    fn one(b: &[u8], pos: usize) -> Option<usize> {
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
            b'p' => {
                let p = pos + 1;
                if b.get(p) != Some(&b'(') {
                    return None;
                }
                let p = one(b, p + 1)?;
                if b.get(p) != Some(&b',') {
                    return None;
                }
                let p = one(b, p + 1)?;
                if b.get(p) != Some(&b')') {
                    return None;
                }
                Some(p + 1)
            }
            _ => None,
        }
    }
    let b = s.as_bytes();
    one(b, 0) == Some(b.len())
}

impl Cert {
    fn fds_for(&self, rel: usize) -> Vec<AFd> {
        self.fds.iter().copied().filter(|fd| fd.rel == rel).collect()
    }

    /// Do facts `f` and `g` conflict (same relation, some FD with equal
    /// left-hand projections and unequal right-hand projections)?
    fn conflict(&self, f: usize, g: usize) -> bool {
        let (rel_f, vals_f) = &self.facts[f];
        let (rel_g, vals_g) = &self.facts[g];
        if rel_f != rel_g {
            return false;
        }
        self.fds.iter().any(|fd| {
            fd.rel == *rel_f && agree(vals_f, vals_g, fd.lhs) && !agree(vals_f, vals_g, fd.rhs)
        })
    }

    /// Naive consistency of a fact set: group per FD by the left-hand
    /// projection and demand agreement on the right-hand side.
    fn consistent(&self, set: &[usize]) -> Option<(usize, usize)> {
        for fd in &self.fds {
            let mut groups: HashMap<Vec<&str>, usize> = HashMap::new();
            for &id in set {
                let (rel, vals) = &self.facts[id];
                if *rel != fd.rel {
                    continue;
                }
                let key = project(vals, fd.lhs);
                match groups.get(&key) {
                    None => {
                        groups.insert(key, id);
                    }
                    Some(&first) => {
                        if !agree(vals, &self.facts[first].1, fd.rhs) {
                            return Some((first, id));
                        }
                    }
                }
            }
        }
        None
    }
}

fn project(vals: &[String], mask: u64) -> Vec<&str> {
    (1..=63).filter(|a| mask & (1u64 << a) != 0).map(|a| vals[a - 1].as_str()).collect()
}

fn agree(a: &[String], b: &[String], mask: u64) -> bool {
    (1..=63).filter(|x| mask & (1u64 << x) != 0).all(|x| a[x - 1] == b[x - 1])
}

fn strictly_increasing_ids(arr: &Jv, n_facts: usize, what: &str) -> Result<Vec<usize>, AuditError> {
    let mut out = Vec::new();
    for item in arr.as_arr()? {
        let id = item.as_usize()?;
        if id >= n_facts {
            return err(format!("{what}: fact id {id} out of range"));
        }
        if let Some(&last) = out.last() {
            if id <= last {
                return err(format!("{what}: ids must be strictly increasing"));
            }
        }
        out.push(id);
    }
    Ok(out)
}

fn id_pairs(arr: &Jv, n_facts: usize, what: &str) -> Result<Vec<(usize, usize)>, AuditError> {
    let mut out = Vec::new();
    for item in arr.as_arr()? {
        let pair = item.as_arr()?;
        if pair.len() != 2 {
            return err(format!("{what}: expected [id,id] pairs"));
        }
        let a = pair[0].as_usize()?;
        let b = pair[1].as_usize()?;
        if a >= n_facts || b >= n_facts {
            return err(format!("{what}: fact id out of range"));
        }
        out.push((a, b));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Structural extraction
// ---------------------------------------------------------------------

fn extract(doc: &Jv) -> Result<Cert, AuditError> {
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
        let rel = rel.as_arr()?;
        if rel.len() != 2 {
            return err("relation entries are [name, arity]");
        }
        let name = rel[0].as_str()?;
        if !seen_names.insert(name) {
            return err(format!("duplicate relation name {name:?}"));
        }
        let arity = rel[1].as_usize()?;
        if arity == 0 || arity > 63 {
            return err(format!("arity {arity} out of the auditable range 1..=63"));
        }
        arities.push(arity);
    }

    let mut fds = Vec::new();
    for fd in schema.field("fds")?.as_arr()? {
        let fd = fd.as_arr()?;
        if fd.len() != 3 {
            return err("fd entries are [rel, lhs, rhs]");
        }
        let rel = fd[0].as_usize()?;
        if rel >= arities.len() {
            return err(format!("fd relation {rel} out of range"));
        }
        let arity = arities[rel];
        fds.push(AFd { rel, lhs: mask_of(&fd[1], arity)?, rhs: mask_of(&fd[2], arity)? });
    }

    let mut facts = Vec::new();
    for fact in doc.field("facts")?.as_arr()? {
        let fact = fact.as_arr()?;
        if fact.len() != 2 {
            return err("fact entries are [rel, [values]]");
        }
        let rel = fact[0].as_usize()?;
        if rel >= arities.len() {
            return err(format!("fact relation {rel} out of range"));
        }
        let vals = fact[1].as_arr()?;
        if vals.len() != arities[rel] {
            return err("fact arity mismatch");
        }
        let mut tuple = Vec::with_capacity(vals.len());
        for v in vals {
            let v = v.as_str()?;
            if !check_encoding(v) {
                return err(format!("malformed value encoding {v:?}"));
            }
            tuple.push(v.to_string());
        }
        facts.push((rel, tuple));
    }

    let mut edges = HashSet::new();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); facts.len()];
    for (f, g) in id_pairs(doc.field("priority")?, facts.len(), "priority")? {
        if f == g {
            return err("priority self-loop");
        }
        if edges.insert((f, g)) {
            succ[f].push(g);
        }
    }
    // §2.3 demands acyclicity; a cyclic priority certifies nothing.
    let mut indeg = vec![0usize; facts.len()];
    for &(_, g) in &edges {
        indeg[g] += 1;
    }
    let mut queue: Vec<usize> = (0..facts.len()).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(f) = queue.pop() {
        seen += 1;
        for &g in &succ[f] {
            indeg[g] -= 1;
            if indeg[g] == 0 {
                queue.push(g);
            }
        }
    }
    if seen != facts.len() {
        return err("priority relation is cyclic");
    }

    let classification = doc.field("classification")?.clone();
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
            Some((candidate, doc.field("verdict")?.clone()))
        }
        "classification" => {
            if doc.get("candidate").is_some() || doc.get("verdict").is_some() {
                return err("classification certificates carry no candidate or verdict");
            }
            None
        }
        other => return err(format!("unknown certificate kind {other:?}")),
    };

    Ok(Cert { mode, arities, fds, facts, edges, classification, scope_classical, check })
}

// ---------------------------------------------------------------------
// Classification validation
// ---------------------------------------------------------------------

/// Is `fds` equivalent to the single FD `lhs → rhs`?
fn equivalent_to_single(fds: &[AFd], lhs: u64, rhs: u64) -> bool {
    let phi = AFd { rel: 0, lhs, rhs };
    implies(fds, lhs, rhs) && fds.iter().all(|fd| implies(&[phi], fd.lhs, fd.rhs))
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
    let phi = AFd { rel: 0, lhs: 0, rhs: b };
    fds.iter().all(|fd| implies(&[phi], fd.lhs, fd.rhs)).then_some(b)
}

fn check_hard_case(case: &Jv, fds: &[AFd], arity: usize) -> Result<(), AuditError> {
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
fn check_classification(cert: &Cert) -> Result<Vec<Option<(u64, u64)>>, AuditError> {
    let n = cert.arities.len();
    let mut single: Vec<Option<(u64, u64)>> = vec![None; n];
    if cert.scope_classical {
        let rels = cert.classification.field("relations")?.as_arr()?;
        if rels.len() != n {
            return err("classification must cover every relation");
        }
        for (expect_rel, entry) in rels.iter().enumerate() {
            let entry = entry.as_arr()?;
            if entry.len() != 2 || entry[0].as_usize()? != expect_rel {
                return err("classification relations must appear once each, in order");
            }
            let class = &entry[1];
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
                for (rel, key) in keys.iter().enumerate() {
                    let arity = cert.arities[rel];
                    let key = mask_of(key, arity)?;
                    let fds = cert.fds_for(rel);
                    let full = full_mask(arity);
                    if closure(key, &fds) != full {
                        return err(format!("relation {rel}: claimed primary key is not a key"));
                    }
                    let phi = AFd { rel: 0, lhs: key, rhs: full };
                    if !fds.iter().all(|fd| implies(&[phi], fd.lhs, fd.rhs)) {
                        return err(format!("relation {rel}: Δ|R is not implied by the key"));
                    }
                }
            }
            "constant_attribute" => {
                let consts = cert.classification.field("consts")?.as_arr()?;
                if consts.len() != n {
                    return err("constant-attribute assignment must cover every relation");
                }
                for (rel, b) in consts.iter().enumerate() {
                    let arity = cert.arities[rel];
                    let b = mask_of(b, arity)?;
                    let fds = cert.fds_for(rel);
                    if closure(0, &fds) & b != b {
                        return err(format!("relation {rel}: Δ|R does not imply ∅ → B"));
                    }
                    let phi = AFd { rel: 0, lhs: 0, rhs: b };
                    if !fds.iter().all(|fd| implies(&[phi], fd.lhs, fd.rhs)) {
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
    cert: &Cert,
    single_fd: &[Option<(u64, u64)>],
    candidate: &[usize],
    verdict: &Jv,
) -> Result<String, AuditError> {
    let in_j: HashSet<usize> = candidate.iter().copied().collect();
    let kind = verdict.field("kind")?.as_str()?;
    match kind {
        "inconsistent" => {
            let f = verdict.field("f")?.as_usize()?;
            let g = verdict.field("g")?.as_usize()?;
            if f >= cert.facts.len() || g >= cert.facts.len() {
                return err("inconsistency witness out of range");
            }
            if !in_j.contains(&f) || !in_j.contains(&g) {
                return err("inconsistency witness must lie inside the candidate");
            }
            if f == g || !cert.conflict(f, g) {
                return err("claimed inconsistent pair does not violate any FD");
            }
        }
        "improvable" => {
            let from = strictly_increasing_ids(verdict.field("from")?, cert.facts.len(), "from")?;
            if from != candidate {
                return err("improvement witness 'from' differs from the candidate");
            }
            let to = strictly_increasing_ids(verdict.field("to")?, cert.facts.len(), "to")?;
            if to == from {
                return err("improvement witness does not change the candidate");
            }
            if let Some((f, g)) = cert.consistent(&to) {
                return err(format!("improved set is inconsistent (facts {f} and {g})"));
            }
            let to_set: HashSet<usize> = to.iter().copied().collect();
            let lost: Vec<usize> = from.iter().copied().filter(|f| !to_set.contains(f)).collect();
            let justification =
                id_pairs(verdict.field("justification")?, cert.facts.len(), "justification")?;
            let mut covered: HashSet<usize> = HashSet::new();
            for (f_prime, g) in justification {
                if !in_j.contains(&f_prime) || to_set.contains(&f_prime) {
                    return err("justification names a fact that is not lost");
                }
                if !to_set.contains(&g) || in_j.contains(&g) {
                    return err("justification names a beating fact that is not gained");
                }
                if !cert.edges.contains(&(g, f_prime)) {
                    return err("justification edge is not in the priority relation");
                }
                covered.insert(f_prime);
            }
            if let Some(f) = lost.iter().find(|f| !covered.contains(f)) {
                return err(format!("lost fact {f} is beaten by no gained fact"));
            }
        }
        "optimal" => {
            check_optimal(cert, single_fd, candidate, &in_j, verdict)?;
        }
        other => return err(format!("unknown verdict kind {other:?}")),
    }
    Ok(kind.to_string())
}

fn check_optimal(
    cert: &Cert,
    single_fd: &[Option<(u64, u64)>],
    candidate: &[usize],
    in_j: &HashSet<usize>,
    verdict: &Jv,
) -> Result<(), AuditError> {
    // Consistency of J, recomputed from scratch.
    if let Some((f, g)) = cert.consistent(candidate) {
        return err(format!("candidate is inconsistent (facts {f} and {g})"));
    }

    // Maximality cover: every outside fact must be blocked from J.
    let maximality = id_pairs(verdict.field("maximality")?, cert.facts.len(), "maximality")?;
    let mut blocked: HashSet<usize> = HashSet::new();
    for (excluded, blocker) in maximality {
        if in_j.contains(&excluded) {
            return err("maximality cover lists a candidate member");
        }
        if !in_j.contains(&blocker) {
            return err("maximality blocker is outside the candidate");
        }
        if !cert.conflict(excluded, blocker) {
            return err("maximality blocker does not conflict with the excluded fact");
        }
        blocked.insert(excluded);
    }
    if let Some(f) = (0..cert.facts.len()).find(|f| !in_j.contains(f) && !blocked.contains(f)) {
        return err(format!("fact {f} is outside the candidate but not blocked (J not maximal)"));
    }

    // Block evidence: for each single-FD relation, recompute the
    // Lemma 4.2 groups and demand no-improving-swap evidence per
    // multi-block group.
    let blocks = verdict.field("blocks")?.as_arr()?;
    let mut by_key: HashMap<(usize, usize), &Jv> = HashMap::new();
    for b in blocks {
        let rel = b.field("rel")?.as_usize()?;
        let group = b.field("group")?.as_usize()?;
        if by_key.insert((rel, group), b).is_some() {
            return err("duplicate block evidence");
        }
    }
    let scope = verdict.field("scope")?.as_str()?;
    let all_single = cert.scope_classical && single_fd.iter().all(|s| s.is_some());
    match scope {
        "complete" => {
            if !all_single {
                return err(
                    "scope 'complete' claimed but the schema is not all single-FD classical",
                );
            }
        }
        "repair_only" => {
            if all_single {
                // Complete evidence is available; refusing to provide
                // it would weaken the certificate silently.
                return err("all-single-FD classical schemas must certify scope 'complete'");
            }
        }
        other => return err(format!("unknown optimal scope {other:?}")),
    }

    let mut used = 0usize;
    for (rel, fd) in single_fd.iter().enumerate() {
        let Some((lhs, rhs)) = fd else { continue };
        // Group this relation's facts by lhs-projection, block by
        // rhs-projection.
        let mut groups: HashMap<Vec<&str>, HashMap<Vec<&str>, Vec<usize>>> = HashMap::new();
        for (id, (fact_rel, vals)) in cert.facts.iter().enumerate() {
            if *fact_rel != rel {
                continue;
            }
            groups
                .entry(project(vals, *lhs))
                .or_default()
                .entry(project(vals, *rhs))
                .or_default()
                .push(id);
        }
        // Deviation 2: groups in order of their least fact id.
        let mut groups: Vec<_> = groups.into_values().collect();
        groups.sort_by_key(|blocks| blocks.values().flatten().min().copied());
        for blocks_of_group in groups {
            if blocks_of_group.len() < 2 {
                continue; // no swap possible
            }
            let group_min =
                blocks_of_group.values().flatten().copied().min().expect("groups are nonempty");
            let Some(ev) = by_key.get(&(rel, group_min)) else {
                return err(format!(
                    "relation {rel}: no block evidence for the group of fact {group_min}"
                ));
            };
            used += 1;
            if mask_of(ev.field("lhs")?, cert.arities[rel])? != *lhs
                || mask_of(ev.field("rhs")?, cert.arities[rel])? != *rhs
            {
                return err("block evidence FD differs from the classification");
            }
            let consistency =
                strictly_increasing_ids(ev.field("consistency")?, cert.facts.len(), "consistency")?;
            let mut selected: Vec<usize> = blocks_of_group
                .values()
                .flatten()
                .copied()
                .filter(|id| in_j.contains(id))
                .collect();
            selected.sort_unstable();
            if selected.is_empty() || consistency != selected {
                return err("block evidence 'consistency' is not J ∩ group");
            }
            // The block holding J's facts (consistency of J puts them
            // all in one).
            let selected_key = project(&cert.facts[selected[0]].1, *rhs);
            let pairs = id_pairs(ev.field("maximality")?, cert.facts.len(), "block maximality")?;
            let mut covered: HashSet<&Vec<usize>> = HashSet::new();
            for (member, unbeaten) in pairs {
                let (member_rel, member_vals) = &cert.facts[member];
                // Deviation 3: project only a fact of this relation.
                let member_block = (*member_rel == rel)
                    .then(|| blocks_of_group.get(&project(member_vals, *rhs)))
                    .flatten();
                let Some(block) = member_block.filter(|b| b.contains(&member)) else {
                    return err("block maximality entry names a fact outside the group");
                };
                if project(member_vals, *rhs) == selected_key {
                    return err("block maximality entry names the selected block");
                }
                if !selected.contains(&unbeaten) {
                    return err("unbeaten witness is not a selected fact");
                }
                if block.iter().any(|&g| cert.edges.contains(&(g, unbeaten))) {
                    return err("claimed unbeaten fact is beaten by the alternative block");
                }
                covered.insert(block);
            }
            let alternatives =
                blocks_of_group.iter().filter(|(key, _)| **key != selected_key).count();
            if covered.len() != alternatives {
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
    let doc = parse_json(text)?;
    let cert = extract(&doc)?;
    if cert.mode == Mode::Conflict {
        // §2.3: a classical priority relation only relates conflicting
        // facts; an edge elsewhere would let witnesses "beat" facts
        // they never competed with.
        // Deviation 1: the least offending edge.
        let mut edges: Vec<(usize, usize)> = cert.edges.iter().copied().collect();
        edges.sort_unstable();
        if let Some((f, g)) = edges.into_iter().find(|&(f, g)| !cert.conflict(f, g)) {
            return err(format!("priority edge ({f}, {g}) joins non-conflicting facts"));
        }
    }
    let single_fd = check_classification(&cert)?;
    let verdict = match &cert.check {
        Some((candidate, verdict)) => Some(check_verdict(&cert, &single_fd, candidate, verdict)?),
        None => None,
    };
    Ok(AuditReport {
        kind: if cert.check.is_some() { "check" } else { "classification" }.to_string(),
        verdict,
        facts: cert.facts.len(),
        relations: cert.arities.len(),
    })
}
