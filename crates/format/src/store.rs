//! A compact binary encoding for workspaces (`.rprb`).
//!
//! The `.rpr` text format is for humans; for larger instances `rpr
//! export` writes this length-prefixed binary form, which every command
//! also accepts (detected by magic). The format is versioned and fully
//! validated on decode — a corrupted or truncated file yields a
//! [`StoreError`], never a panic or a silently wrong workspace.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RPRB", version u8 (=1), mode u8 (0 classical, 1 ccp)
//! relations: u32 count, then per relation: name (u16 len + UTF-8), arity u8
//! fds:       u32 count, then per FD: rel u32, lhs u64, rhs u64
//! facts:     u32 count, then per fact: rel u32, then per attribute a Value
//! priority:  u32 edge count, then (u32, u32) pairs
//! repairs:   u16 count, then per repair: name, u32 member count, u32 ids
//!
//! Value: tag u8 — 0 int (i64), 1 symbol (u16 len + UTF-8), 2 pair
//!        (two Values, recursively)
//! ```

use crate::format::Workspace;
use rpr_data::{AttrSet, FactId, Instance, Signature, Value};
use rpr_fd::{Fd, Schema};
use rpr_priority::{PriorityMode, PriorityRelation};
use std::fmt;

const MAGIC: &[u8; 4] = b"RPRB";
const VERSION: u8 = 1;

/// Errors decoding a binary workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The magic bytes are wrong (not a `.rprb` file).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A semantic validation failed after structural decoding.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a .rprb file (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported .rprb version {v}"),
            StoreError::Truncated => write!(f, "truncated .rprb data"),
            StoreError::BadUtf8 => write!(f, "invalid UTF-8 in .rprb data"),
            StoreError::Invalid(m) => write!(f, "invalid .rprb contents: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Does the buffer start with the binary magic?
pub fn is_binary(data: &[u8]) -> bool {
    data.len() >= 4 && &data[..4] == MAGIC
}

/// Writes a `u16` prefix, refusing an `n` that would not read back.
fn put_u16(buf: &mut Vec<u8>, n: usize, what: &str) -> Result<(), StoreError> {
    let n = u16::try_from(n)
        .map_err(|_| StoreError::Invalid(format!("{what} {n} exceeds the u16 prefix")))?;
    buf.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str, what: &str) -> Result<(), StoreError> {
    put_u16(buf, s.len(), what)?;
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(buf: &mut Vec<u8>, v: &Value) -> Result<(), StoreError> {
    match v {
        Value::Int(n) => {
            buf.push(0);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        Value::Sym(s) => {
            buf.push(1);
            put_str(buf, s, "symbol length")?;
        }
        Value::Pair(p) => {
            buf.push(2);
            put_value(buf, &p.0)?;
            put_value(buf, &p.1)?;
        }
    }
    Ok(())
}

/// Encodes a workspace to bytes.
///
/// # Errors
/// [`StoreError::Invalid`] when a name or symbol is longer than 65 535
/// bytes or there are more than 65 535 named repairs (`u16` prefixes).
pub fn encode(ws: &Workspace) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::with_capacity(1024 + ws.instance.len() * 32);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.push(match ws.mode {
        PriorityMode::ConflictRestricted => 0,
        PriorityMode::CrossConflict => 1,
    });
    let sig = ws.schema.signature();
    buf.extend_from_slice(&(sig.len() as u32).to_le_bytes());
    for (_, sym) in sig.iter() {
        put_str(&mut buf, sym.name(), "relation name length")?;
        buf.push(sym.arity() as u8);
    }
    buf.extend_from_slice(&(ws.schema.fds().len() as u32).to_le_bytes());
    for fd in ws.schema.fds() {
        buf.extend_from_slice(&fd.rel.0.to_le_bytes());
        buf.extend_from_slice(&fd.lhs.bits().to_le_bytes());
        buf.extend_from_slice(&fd.rhs.bits().to_le_bytes());
    }
    buf.extend_from_slice(&(ws.instance.len() as u32).to_le_bytes());
    for (_, fact) in ws.instance.iter() {
        buf.extend_from_slice(&fact.rel().0.to_le_bytes());
        for v in fact.values() {
            put_value(&mut buf, v)?;
        }
    }
    let edges = ws.priority.edges();
    buf.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for &(a, b) in edges {
        buf.extend_from_slice(&a.0.to_le_bytes());
        buf.extend_from_slice(&b.0.to_le_bytes());
    }
    put_u16(&mut buf, ws.repairs.len(), "repair count")?;
    for (name, set) in &ws.repairs {
        put_str(&mut buf, name, "repair name length")?;
        buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for id in set.iter() {
            buf.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    Ok(buf)
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `N` bytes, or [`StoreError::Truncated`].
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(StoreError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let len = usize::from(self.u16()?);
        let (bytes, rest) = self.buf.split_at_checked(len).ok_or(StoreError::Truncated)?;
        self.buf = rest;
        Ok(std::str::from_utf8(bytes).map_err(|_| StoreError::BadUtf8)?.to_owned())
    }

    fn value(&mut self, depth: usize) -> Result<Value, StoreError> {
        if depth > 32 {
            return Err(StoreError::Invalid("value nesting too deep".into()));
        }
        match self.u8()? {
            0 => Ok(Value::Int(i64::from_le_bytes(self.array()?))),
            1 => Ok(Value::sym(self.string()?)),
            2 => {
                let a = self.value(depth + 1)?;
                let b = self.value(depth + 1)?;
                Ok(Value::pair(a, b))
            }
            t => Err(StoreError::Invalid(format!("unknown value tag {t}"))),
        }
    }
}

/// Decodes a workspace from bytes.
///
/// # Errors
/// [`StoreError`] on any structural or semantic problem.
pub fn decode(data: &[u8]) -> Result<Workspace, StoreError> {
    let mut r = Reader { buf: data };
    if r.array()? != *MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let mode = match r.u8()? {
        0 => PriorityMode::ConflictRestricted,
        1 => PriorityMode::CrossConflict,
        m => return Err(StoreError::Invalid(format!("unknown mode {m}"))),
    };

    let nrels = r.u32()? as usize;
    if nrels > 1 << 16 {
        return Err(StoreError::Invalid("implausible relation count".into()));
    }
    let mut rels: Vec<(String, usize)> = Vec::with_capacity(nrels);
    for _ in 0..nrels {
        let name = r.string()?;
        let arity = r.u8()? as usize;
        rels.push((name, arity));
    }
    let sig = Signature::new(rels.iter().map(|(n, a)| (n.as_str(), *a)))
        .map_err(|e| StoreError::Invalid(e.to_string()))?;

    let nfds = r.u32()? as usize;
    if nfds > 1 << 20 {
        return Err(StoreError::Invalid("implausible FD count".into()));
    }
    let mut fds = Vec::with_capacity(nfds);
    for _ in 0..nfds {
        let rel = rpr_data::RelId(r.u32()?);
        if rel.index() >= sig.len() {
            return Err(StoreError::Invalid("FD over unknown relation".into()));
        }
        let lhs = AttrSet::from_bits(u64::from_le_bytes(r.array()?));
        let rhs = AttrSet::from_bits(u64::from_le_bytes(r.array()?));
        fds.push(Fd::new(rel, lhs, rhs));
    }
    let schema = Schema::new(sig.clone(), fds).map_err(|e| StoreError::Invalid(e.to_string()))?;

    let nfacts = r.u32()? as usize;
    if nfacts > 1 << 26 {
        return Err(StoreError::Invalid("implausible fact count".into()));
    }
    let mut instance = Instance::new(sig.clone());
    let mut values = Vec::new();
    for _ in 0..nfacts {
        let rel = rpr_data::RelId(r.u32()?);
        if rel.index() >= sig.len() {
            return Err(StoreError::Invalid("fact over unknown relation".into()));
        }
        values.clear();
        for _ in 0..sig.arity(rel) {
            values.push(r.value(0)?);
        }
        instance.insert_values(rel, &values);
    }

    let nedges = r.u32()? as usize;
    if nedges > 1 << 26 {
        return Err(StoreError::Invalid("implausible edge count".into()));
    }
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let a = FactId(r.u32()?);
        let b = FactId(r.u32()?);
        edges.push((a, b));
    }
    let priority = PriorityRelation::new(instance.len(), edges)
        .map_err(|e| StoreError::Invalid(e.to_string()))?;

    let nrepairs = r.u16()? as usize;
    let mut repairs = Vec::with_capacity(nrepairs);
    for _ in 0..nrepairs {
        let name = r.string()?;
        let count = r.u32()? as usize;
        if count > instance.len() {
            return Err(StoreError::Invalid("repair larger than the instance".into()));
        }
        let mut set = instance.empty_set();
        for _ in 0..count {
            let id = FactId(r.u32()?);
            if id.index() >= instance.len() {
                return Err(StoreError::Invalid("repair references unknown fact".into()));
            }
            set.insert(id);
        }
        repairs.push((name, set));
    }

    Ok(Workspace { schema, instance, priority, mode, repairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_workspace;
    use rpr_data::Fact;

    const SAMPLE: &str = "\
relation R/2
relation S/3
fd R: 1 -> 2
fd S: - -> 3
fact R(a, 1)
fact R(a, 2)
fact S(x, y, 0)
prefer R(a, 2) > R(a, 1)
repair best: R(a, 2); S(x, y, 0)
";

    fn sample() -> Workspace {
        parse_workspace(SAMPLE).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ws = sample();
        let bytes = encode(&ws).unwrap();
        assert!(is_binary(&bytes));
        let back = decode(&bytes).unwrap();
        assert_eq!(back.instance.len(), ws.instance.len());
        for (_, f) in ws.instance.iter() {
            assert!(back.instance.contains(f));
        }
        assert_eq!(back.schema.fds(), ws.schema.fds());
        assert_eq!(back.priority.edges(), ws.priority.edges());
        assert_eq!(back.mode, ws.mode);
        assert_eq!(back.repairs.len(), 1);
        assert_eq!(back.repairs[0].0, "best");
        assert_eq!(back.repairs[0].1.len(), 2);
    }

    #[test]
    fn pair_values_roundtrip() {
        // Build a workspace containing Π-style pair values directly.
        let mut ws = sample();
        let sig = ws.instance.signature().clone();
        let fact = Fact::parse_new(
            &sig,
            "R",
            [
                Value::pair(Value::Int(1), Value::sym("x")),
                Value::triple(1.into(), 2.into(), 3.into()),
            ],
        )
        .unwrap();
        ws.instance.insert(fact.clone());
        // Re-size the priority/repairs to the grown instance.
        ws.priority = PriorityRelation::empty(ws.instance.len());
        ws.repairs.clear();
        let back = decode(&encode(&ws).unwrap()).unwrap();
        assert!(back.instance.contains(&fact));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let bytes = encode(&sample()).unwrap();
        for cut in 0..bytes.len() {
            let res = decode(&bytes[..cut]);
            assert!(res.is_err(), "prefix of length {cut} must fail cleanly");
        }
    }

    #[test]
    fn corrupted_headers_are_rejected() {
        let bytes = encode(&sample()).unwrap();
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(decode(&bad).unwrap_err(), StoreError::BadMagic);
        let mut bad = bytes.to_vec();
        bad[4] = 99; // version
        assert_eq!(decode(&bad).unwrap_err(), StoreError::BadVersion(99));
        let mut bad = bytes.to_vec();
        bad[5] = 7; // mode
        assert!(matches!(decode(&bad).unwrap_err(), StoreError::Invalid(_)));
    }

    #[test]
    fn bit_flips_never_panic() {
        // Fuzz-lite: flip each byte in turn; decoding must return
        // (any) Result, never panic, and successful decodes must be
        // internally consistent.
        let bytes = encode(&sample()).unwrap();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 0xFF;
            if let Ok(ws) = decode(&mutated) {
                assert_eq!(ws.priority.len(), ws.instance.len());
            }
        }
    }

    #[test]
    fn longest_symbol_round_trips() {
        let long = "s".repeat(usize::from(u16::MAX));
        let ws = parse_workspace(&format!("relation R/1\nfact R({long})\n")).unwrap();
        let back = decode(&encode(&ws).unwrap()).unwrap();
        let fact = back.instance.iter().next().unwrap().1;
        assert_eq!(fact.get(1), &Value::sym(long));
    }

    #[test]
    fn over_long_strings_are_refused_not_truncated() {
        let long = "s".repeat(usize::from(u16::MAX) + 1);
        for text in [
            format!("relation R/1\nfact R({long})\n"),
            format!("relation {long}/1\nfact {long}(a)\n"),
            format!("relation R/1\nfact R(a)\nrepair {long}: R(a)\n"),
        ] {
            let ws = parse_workspace(&text).unwrap();
            assert!(matches!(encode(&ws), Err(StoreError::Invalid(_))));
        }
    }

    #[test]
    fn text_detection() {
        assert!(!is_binary(SAMPLE.as_bytes()));
        assert!(!is_binary(b"RP"));
    }
}
