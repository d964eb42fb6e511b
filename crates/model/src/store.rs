//! The explorer's visited set: every state's canonical encoding, packed at
//! a fixed stride into one byte arena, indexed by an open-addressing table
//! of state ids.
//!
//! Ids are dense and assigned in insertion order, so id `i` lives at
//! `arena[i * stride..][..stride]` and the explorer needs no other record
//! of a state. The table stores only ids; its hash picks where the search
//! for an encoding starts and nothing else, so neither ids nor anything
//! derived from them depend on it.

use std::hash::Hasher;

use ccsim_util::FxHasher;

/// Table slot holding no id.
const EMPTY: u32 = u32::MAX;

/// Table size of a fresh store (a power of two).
const INITIAL_SLOTS: usize = 1 << 10;

pub(crate) struct StateStore {
    /// Bytes per encoding.
    stride: usize,
    /// Encodings in id order.
    arena: Vec<u8>,
    /// Open-addressing table of ids, linear probing, kept at most half
    /// full. Its length is a power of two.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the table index is the hash's top bits,
    /// where a multiplicative hash mixes best.
    shift: u32,
}

impl StateStore {
    pub(crate) fn new(stride: usize) -> Self {
        assert!(stride > 0, "encodings are never empty");
        StateStore {
            stride,
            arena: Vec::new(),
            table: vec![EMPTY; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
        }
    }

    /// States stored.
    pub(crate) fn len(&self) -> usize {
        self.arena.len() / self.stride
    }

    /// The encoding of state `id`.
    pub(crate) fn get(&self, id: usize) -> &[u8] {
        &self.arena[id * self.stride..][..self.stride]
    }

    /// Store `enc` unless an equal encoding is already stored. Returns the
    /// new state's id, or `None` for a state seen before.
    pub(crate) fn insert(&mut self, enc: &[u8]) -> Option<usize> {
        assert_eq!(enc.len(), self.stride, "encoding of another shape");
        let mut slot = self.home(enc);
        let mask = self.table.len() - 1;
        loop {
            match self.table[slot] {
                EMPTY => break,
                id if self.get(id as usize) == enc => return None,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.len();
        assert!(id < EMPTY as usize, "state ids exhausted");
        self.table[slot] = id as u32;
        self.arena.extend_from_slice(enc);
        if 2 * self.len() > self.table.len() {
            self.grow();
        }
        Some(id)
    }

    fn home(&self, enc: &[u8]) -> usize {
        let mut h = FxHasher::default();
        h.write(enc);
        (h.finish() >> self.shift) as usize
    }

    /// Double the table and re-place every id.
    fn grow(&mut self) {
        let slots = 2 * self.table.len();
        self.table.clear();
        self.table.resize(slots, EMPTY);
        self.shift -= 1;
        let mask = slots - 1;
        for id in 0..self.len() {
            let mut slot = self.home(self.get(id));
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32;
        }
    }

    /// Every stored encoding, in id order.
    pub(crate) fn iter(&self) -> std::slice::ChunksExact<'_, u8> {
        self.arena.chunks_exact(self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order_and_duplicates_are_found() {
        let mut s = StateStore::new(3);
        // Enough distinct keys to grow the table several times.
        let keys: Vec<[u8; 3]> = (0..5000u32).map(|i| [i as u8, (i >> 8) as u8, 7]).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.insert(k), Some(i));
            assert_eq!(s.insert(k), None);
        }
        assert_eq!(s.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.get(i), k);
            assert_eq!(s.insert(k), None, "key {i} lost in a regrowth");
        }
        assert!(s.iter().eq(keys.iter().map(|k| &k[..])));
        assert!(2 * s.len() <= s.table.len(), "load stays at most one half");
    }
}
