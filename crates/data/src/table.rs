//! The open-addressing id table behind both of an instance's indexes:
//! its fact index and its value dictionary.

use crate::instance::{Compaction, FactId};

/// Marks a free slot of an [`IdTable`].
pub(crate) const FREE: u32 = u32::MAX;

/// An open-addressing table of dense ids with linear probing. It
/// stores no keys: the owner hashes and compares an id's content
/// through closures. Kept at most half full; a power of two long once
/// non-empty.
#[derive(Clone, Default)]
pub(crate) struct IdTable {
    pub(crate) slots: Vec<u32>,
}

impl IdTable {
    /// A table that indexes `n` ids without growing: the smallest
    /// power of two at least twice as long, as `n` inserts into an
    /// empty table would leave it.
    pub(crate) fn with_capacity(n: usize) -> Self {
        if n == 0 {
            return IdTable::default();
        }
        IdTable { slots: vec![FREE; (n * 2).next_power_of_two().max(8)] }
    }

    /// The slot a hash probes first: its top bits, since FxHash mixes
    /// the high bits of its final multiply best.
    pub(crate) fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// The id hashing to `hash` that `is_it` accepts, if present.
    pub(crate) fn get(&self, hash: u64, is_it: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.home(hash);
        loop {
            let id = self.slots[slot];
            if id == FREE {
                return None;
            }
            if is_it(id) {
                return Some(id);
            }
            slot = self.next(slot);
        }
    }

    /// Indexes `id`, not yet indexed, hashing to `hash`, as the
    /// `count`-th entry. Doubles the table first when `count` would
    /// pass half of it, re-placing the indexed ids by `hash_of`.
    pub(crate) fn insert_new(
        &mut self,
        count: usize,
        hash: u64,
        id: u32,
        hash_of: impl Fn(u32) -> u64,
    ) {
        if count * 2 > self.slots.len() {
            let grown = vec![FREE; (self.slots.len() * 2).max(8)];
            let old = std::mem::replace(&mut self.slots, grown);
            for other in old.into_iter().filter(|&other| other != FREE) {
                self.place(hash_of(other), other);
            }
        }
        self.place(hash, id);
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mut slot = self.home(hash);
        while self.slots[slot] != FREE {
            slot = self.next(slot);
        }
        self.slots[slot] = id;
    }

    /// Unindexes `id` by backward-shift deletion; a no-op when `id` is
    /// not indexed. No other id changes.
    pub(crate) fn unindex(&mut self, id: u32, hash_of: impl Fn(u32) -> u64) {
        if self.slots.is_empty() {
            return;
        }
        let mut hole = self.home(hash_of(id));
        loop {
            match self.slots[hole] {
                FREE => return,
                other if other == id => break,
                _ => hole = self.next(hole),
            }
        }
        // Pull each later member of the probe run back into the hole
        // unless that would move it before its home slot.
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = self.next(slot);
            let other = self.slots[slot];
            if other == FREE {
                break;
            }
            let home = self.home(hash_of(other));
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.slots[hole] = other;
                hole = slot;
            }
        }
        self.slots[hole] = FREE;
    }

    /// Renumbers every indexed id through `c`, whose removed ids are
    /// already unindexed. Slots depend on hashes only, so no id changes
    /// slot.
    pub(crate) fn renumber(&mut self, c: &Compaction) {
        let first = c.first() as u32;
        for slot in &mut self.slots {
            if *slot != FREE && *slot >= first {
                *slot = c.new_id(FactId(*slot)).expect("removed ids are unindexed").0;
            }
        }
    }

    /// Heap bytes of the slots.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}
