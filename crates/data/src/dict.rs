//! The per-instance value dictionary.
//!
//! An instance stores each distinct constant once and its facts as rows
//! of [`ValueId`]s. Equal values get one id, so two facts of one
//! instance agree on an attribute exactly when their ids there are
//! equal, and every pass that only tests constants for equality (the
//! fact index, identity checks) runs on ids. Order still comes from
//! [`Value`]'s `Ord`, read through the dictionary.
//!
//! Each entry keeps a live-use count, the number of stored facts'
//! attribute positions holding it: an entry whose last use goes is
//! freed and its id reused.

use crate::hash::FxHasher;
use crate::table::IdTable;
use crate::value::{Atom, Value};
use std::hash::Hasher;
use std::mem::size_of;

/// Dense identifier of a value within one instance's dictionary.
/// Ids of two instances are unrelated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The dense index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The dictionary: one slot per id, a content-hash index over the live
/// slots, and a running count of the bytes the values own.
#[derive(Clone, Default)]
pub(crate) struct ValueDict {
    /// The value of each id; a freed slot holds `Int(0)`.
    values: Vec<Value>,
    /// The content hash of each live id.
    hashes: Vec<u64>,
    /// The live-use count of each id; 0 for a freed one.
    uses: Vec<u32>,
    /// Freed ids, reused last-freed first.
    free: Vec<u32>,
    index: IdTable,
    /// Heap bytes owned by the live values (symbol text, pairs).
    pub(crate) payload: usize,
}

impl ValueDict {
    /// The value of `id`.
    #[inline]
    pub(crate) fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Every slot's value, freed ones included, indexed by id.
    #[inline]
    pub(crate) fn slots(&self) -> &[Value] {
        &self.values
    }

    /// The live-use count of `id`.
    pub(crate) fn uses(&self, id: ValueId) -> u32 {
        self.uses[id.index()]
    }

    /// Number of live values.
    pub(crate) fn len(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// The id of `v`, if live.
    pub(crate) fn get(&self, v: &Value) -> Option<ValueId> {
        self.index.get(value_hash(v), |id| &self.values[id as usize] == v).map(ValueId)
    }

    /// The id of the value `atom` names, if live.
    pub(crate) fn get_atom(&self, atom: Atom<'_>) -> Option<ValueId> {
        self.index.get(atom_hash(atom), |id| atom == self.values[id as usize]).map(ValueId)
    }

    /// The id of `v`, adding it if absent, with one more use.
    pub(crate) fn intern(&mut self, v: &Value) -> ValueId {
        let hash = value_hash(v);
        match self.index.get(hash, |id| &self.values[id as usize] == v) {
            Some(id) => self.use_again(id),
            None => self.add(v.clone(), hash),
        }
    }

    /// The id of the value `atom` names, adding it if absent, with one
    /// more use.
    pub(crate) fn intern_atom(&mut self, atom: Atom<'_>) -> ValueId {
        let hash = atom_hash(atom);
        match self.index.get(hash, |id| atom == self.values[id as usize]) {
            Some(id) => self.use_again(id),
            None => self.add(Value::from(atom), hash),
        }
    }

    fn use_again(&mut self, id: u32) -> ValueId {
        self.uses[id as usize] += 1;
        ValueId(id)
    }

    fn add(&mut self, value: Value, hash: u64) -> ValueId {
        self.payload += payload_bytes(&value);
        let id = match self.free.pop() {
            Some(id) => {
                let i = id as usize;
                (self.values[i], self.hashes[i], self.uses[i]) = (value, hash, 1);
                id
            }
            None => {
                let id = u32::try_from(self.values.len()).expect("value ids outgrow u32");
                self.values.push(value);
                self.hashes.push(hash);
                self.uses.push(1);
                id
            }
        };
        let (count, hashes) = (self.len(), &self.hashes);
        self.index.insert_new(count, hash, id, |other| hashes[other as usize]);
        ValueId(id)
    }

    /// Drops one use of `id`, freeing it with its last.
    pub(crate) fn release(&mut self, id: ValueId) {
        let i = id.index();
        self.uses[i] -= 1;
        if self.uses[i] == 0 {
            let hashes = &self.hashes;
            self.index.unindex(id.0, |other| hashes[other as usize]);
            let value = std::mem::replace(&mut self.values[i], Value::Int(0));
            self.payload -= payload_bytes(&value);
            self.free.push(id.0);
        }
    }

    /// Heap bytes of the dictionary: its slots, its index, and what the
    /// live values own. O(1).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.values.capacity() * size_of::<Value>()
            + self.hashes.capacity() * size_of::<u64>()
            + (self.uses.capacity() + self.free.capacity()) * size_of::<u32>()
            + self.index.heap_bytes()
            + self.payload
    }
}

/// The heap bytes a value owns: a symbol's shared text with its two
/// reference counts, a pair's shared node with what its halves own.
pub(crate) fn payload_bytes(v: &Value) -> usize {
    const COUNTS: usize = 2 * size_of::<usize>();
    match v {
        Value::Int(_) => 0,
        Value::Sym(s) => COUNTS + s.len(),
        Value::Pair(p) => {
            COUNTS + 2 * size_of::<Value>() + payload_bytes(&p.0) + payload_bytes(&p.1)
        }
    }
}

/// The dictionary's hash of a value: through its [`Atom`] form, so a
/// value and the token naming it hash alike.
pub(crate) fn value_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    hash_value(&mut h, v);
    h.finish()
}

fn hash_value(h: &mut FxHasher, v: &Value) {
    match v {
        Value::Int(n) => hash_atom(h, Atom::Int(*n)),
        Value::Sym(s) => hash_atom(h, Atom::Sym(s)),
        Value::Pair(p) => {
            h.write_u8(2);
            hash_value(h, &p.0);
            hash_value(h, &p.1);
        }
    }
}

fn atom_hash(atom: Atom<'_>) -> u64 {
    let mut h = FxHasher::default();
    hash_atom(&mut h, atom);
    h.finish()
}

/// One value token's hash: its variant, then its integer or its bytes.
fn hash_atom(h: &mut FxHasher, atom: Atom<'_>) {
    match atom {
        Atom::Int(n) => {
            h.write_u8(0);
            h.write_u64(n as u64);
        }
        Atom::Sym(s) => {
            h.write_u8(1);
            h.write(s.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_one_id_and_freed_ids_are_reused() {
        let mut d = ValueDict::default();
        let a = d.intern(&Value::sym("a"));
        assert_eq!(d.intern_atom(Atom::Sym("a")), a);
        assert_eq!(d.uses(a), 2);
        let seven = d.intern_atom(Atom::Int(7));
        assert_ne!(seven, a);
        assert_eq!(d.get(&Value::Int(7)), Some(seven));
        assert_eq!(d.get_atom(Atom::Sym("7")), None);
        d.release(a);
        assert_eq!(d.get(&Value::sym("a")), Some(a));
        d.release(a);
        assert_eq!((d.get(&Value::sym("a")), d.len()), (None, 1));
        assert_eq!(d.intern(&Value::sym("b")), a, "the freed id is reused");
    }

    #[test]
    fn the_payload_counts_live_symbol_text_once() {
        let mut d = ValueDict::default();
        let empty = d.heap_bytes();
        let long = "x".repeat(1000);
        let id = d.intern(&Value::sym(&long));
        d.intern_atom(Atom::Sym(&long));
        assert_eq!(d.payload, 2 * size_of::<usize>() + 1000);
        assert!(d.heap_bytes() >= empty + 1000);
        d.release(id);
        d.release(id);
        assert_eq!(d.payload, 0);
    }
}
