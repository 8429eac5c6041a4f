//! Flat arena clause storage.
//!
//! All clauses — original and learnt — live in one flat arena (`Vec<Lit>`,
//! where the header words reuse the `Lit` newtype as a raw `u32` cell). Each
//! clause is a contiguous block:
//!
//! ```text
//! offset + 0 : len               number of literals
//! offset + 1 : flags | lbd << 2  bit 0 = learnt, bit 1 = deleted
//! offset + 2 : activity (hi)     upper 32 bits of the f64 activity
//! offset + 3 : activity (lo)     lower 32 bits of the f64 activity
//! offset + 4 : lit[0] … lit[len-1]
//! ```
//!
//! A [`ClauseRef`] is the arena offset of the header, so dereferencing a
//! clause is one add and no pointer chase — propagation touches a single
//! contiguous allocation instead of a `Vec<Vec<Lit>>`. Deletion is lazy
//! (the `deleted` flag plus a `wasted` word counter); when enough of the
//! arena is dead, [`ClauseDb::compact`] rewrites the arena in place and
//! returns an old-offset → new-offset table so the solver can rewrite its
//! watch lists and reason references.

use crate::lit::Lit;

/// Number of header words preceding the literals of every clause.
const HEADER: u32 = 4;
const LEARNT_BIT: u32 = 0b01;
const DELETED_BIT: u32 = 0b10;
const LBD_SHIFT: u32 = 2;

/// A reference to a clause stored in the solver's clause database: the arena
/// offset of the clause header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// The arena offset of the clause header inside the database.
    #[inline(always)]
    pub fn offset(self) -> usize {
        self.0 as usize
    }
}

/// A read-only view of one clause in the database, borrowed from the arena.
#[derive(Clone, Copy, Debug)]
pub struct Clause<'a> {
    lits: &'a [Lit],
    learnt: bool,
}

impl<'a> Clause<'a> {
    /// The literals of this clause.
    #[inline]
    pub fn literals(&self) -> &'a [Lit] {
        self.lits
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` if the clause has no literals (the empty clause, i.e. ⊥).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// `true` if this clause was learnt during conflict analysis.
    #[inline]
    pub fn is_learnt(&self) -> bool {
        self.learnt
    }
}

/// The clause database: one flat arena of header-prefixed literal blocks,
/// addressed by [`ClauseRef`] offsets.
#[derive(Default, Debug)]
pub(crate) struct ClauseDb {
    /// The flat storage. Header words are stored as raw `u32`s wrapped in
    /// `Lit` so the literal region can be handed out as a plain `&[Lit]`
    /// slice without any unsafe casting.
    arena: Vec<Lit>,
    /// Header offsets of every clause ever added (deleted ones included
    /// until the next compaction), in insertion order.
    refs: Vec<u32>,
    /// Number of non-deleted learnt clauses.
    pub(crate) num_learnt: usize,
    /// Arena words occupied by deleted clauses; triggers compaction.
    pub(crate) wasted: usize,
}

impl ClauseDb {
    pub(crate) fn add(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let offset = self.arena.len() as u32;
        self.arena.push(Lit(lits.len() as u32));
        self.arena.push(Lit(if learnt { LEARNT_BIT } else { 0 }));
        let bits = 0f64.to_bits();
        self.arena.push(Lit((bits >> 32) as u32));
        self.arena.push(Lit(bits as u32));
        self.arena.extend_from_slice(lits);
        self.refs.push(offset);
        if learnt {
            self.num_learnt += 1;
        }
        ClauseRef(offset)
    }

    /// Number of clauses (original + learnt, including lazily deleted ones).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.refs.len()
    }

    /// Total arena words in use (live + wasted), the denominator of the
    /// compaction trigger.
    #[inline]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Iterates the header offsets of all clauses in insertion order
    /// (deleted clauses included; filter with [`ClauseDb::is_deleted`]).
    #[inline]
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.refs.iter().map(|&offset| ClauseRef(offset))
    }

    /// Number of literals in the clause.
    #[inline(always)]
    pub(crate) fn len_of(&self, cref: ClauseRef) -> usize {
        self.arena[cref.offset()].0 as usize
    }

    #[inline(always)]
    fn flags(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.offset() + 1].0
    }

    #[inline(always)]
    pub(crate) fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & LEARNT_BIT != 0
    }

    #[inline(always)]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & DELETED_BIT != 0
    }

    #[inline(always)]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.flags(cref) >> LBD_SHIFT
    }

    #[inline(always)]
    pub(crate) fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let word = &mut self.arena[cref.offset() + 1];
        *word = Lit((word.0 & (LEARNT_BIT | DELETED_BIT)) | (lbd << LBD_SHIFT));
    }

    #[inline(always)]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f64 {
        let hi = self.arena[cref.offset() + 2].0 as u64;
        let lo = self.arena[cref.offset() + 3].0 as u64;
        f64::from_bits(hi << 32 | lo)
    }

    #[inline(always)]
    pub(crate) fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let bits = activity.to_bits();
        self.arena[cref.offset() + 2] = Lit((bits >> 32) as u32);
        self.arena[cref.offset() + 3] = Lit(bits as u32);
    }

    /// The literals of the clause as a contiguous slice.
    #[inline(always)]
    pub(crate) fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.offset() + HEADER as usize;
        &self.arena[start..start + self.arena[cref.offset()].0 as usize]
    }

    /// The `k`-th literal of the clause.
    #[inline(always)]
    pub(crate) fn lit_at(&self, cref: ClauseRef, k: usize) -> Lit {
        self.arena[cref.offset() + HEADER as usize + k]
    }

    /// Swaps two literal positions of the clause in place (watch moves).
    #[inline(always)]
    pub(crate) fn swap_lits(&mut self, cref: ClauseRef, i: usize, j: usize) {
        let base = cref.offset() + HEADER as usize;
        self.arena.swap(base + i, base + j);
    }

    /// A public read-only view of the clause.
    #[inline]
    pub(crate) fn view(&self, cref: ClauseRef) -> Clause<'_> {
        Clause {
            lits: self.lits(cref),
            learnt: self.is_learnt(cref),
        }
    }

    /// Marks the clause deleted (lazy: watchers and the arena block are
    /// reclaimed later). Idempotent.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        if self.is_deleted(cref) {
            return;
        }
        if self.is_learnt(cref) {
            self.num_learnt -= 1;
        }
        let word = &mut self.arena[cref.offset() + 1];
        *word = Lit(word.0 | DELETED_BIT);
        self.wasted += HEADER as usize + self.len_of(cref);
    }

    /// Rewrites the arena in place, dropping deleted clauses. Returns
    /// `(old_offset, new_offset)` pairs for every surviving clause, sorted by
    /// old offset, so the solver can rewrite watch lists and reason
    /// references (see [`remap`]).
    pub(crate) fn compact(&mut self) -> Vec<(u32, u32)> {
        let mut remap = Vec::with_capacity(self.refs.len());
        let mut new_arena: Vec<Lit> = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut new_refs: Vec<u32> = Vec::with_capacity(self.refs.len());
        for &offset in &self.refs {
            let cref = ClauseRef(offset);
            if self.is_deleted(cref) {
                continue;
            }
            let new_offset = new_arena.len() as u32;
            let len = self.len_of(cref);
            let start = cref.offset();
            new_arena.extend_from_slice(&self.arena[start..start + HEADER as usize + len]);
            new_refs.push(new_offset);
            remap.push((offset, new_offset));
        }
        self.arena = new_arena;
        self.refs = new_refs;
        self.wasted = 0;
        remap
    }
}

/// Looks up a surviving clause's new offset in a [`ClauseDb::compact`] table
/// (`None` when the clause was deleted by the compaction).
#[inline]
pub(crate) fn remap(table: &[(u32, u32)], cref: ClauseRef) -> Option<ClauseRef> {
    table
        .binary_search_by_key(&cref.0, |&(old, _)| old)
        .ok()
        .map(|i| ClauseRef(table[i].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::{Lit, Var};

    fn lit(i: usize) -> Lit {
        Lit::positive(Var::from_index(i))
    }

    #[test]
    fn adding_and_fetching_clauses() {
        let mut db = ClauseDb::default();
        let c0 = db.add(&[lit(0), lit(1)], false);
        let c1 = db.add(&[lit(2)], true);
        assert_eq!(db.len(), 2);
        assert_eq!(db.len_of(c0), 2);
        assert_eq!(db.lits(c0), &[lit(0), lit(1)]);
        assert!(db.is_learnt(c1));
        assert!(!db.is_learnt(c0));
        assert_eq!(db.num_learnt, 1);
        assert!(!db.view(c0).is_empty());
        assert_eq!(db.view(c1).literals(), &[lit(2)]);
    }

    #[test]
    fn headers_hold_lbd_and_activity_without_clobbering_flags() {
        let mut db = ClauseDb::default();
        let c = db.add(&[lit(0), lit(1), lit(2)], true);
        db.set_lbd(c, 17);
        db.set_activity(c, 3.5);
        assert_eq!(db.lbd(c), 17);
        assert_eq!(db.activity(c), 3.5);
        assert!(db.is_learnt(c));
        assert!(!db.is_deleted(c));
        db.set_lbd(c, 2);
        assert_eq!(db.lbd(c), 2);
        assert!(db.is_learnt(c), "LBD updates must preserve the flag bits");
        assert_eq!(db.activity(c), 3.5);
    }

    #[test]
    fn deleting_learnt_clauses_updates_counters() {
        let mut db = ClauseDb::default();
        let c = db.add(&[lit(0), lit(1), lit(2)], true);
        assert_eq!(db.num_learnt, 1);
        db.delete(c);
        assert_eq!(db.num_learnt, 0);
        assert_eq!(db.wasted, 4 + 3, "header plus literal words are wasted");
        // Deleting twice is idempotent.
        db.delete(c);
        assert_eq!(db.num_learnt, 0);
        assert_eq!(db.wasted, 4 + 3);
    }

    #[test]
    fn compaction_drops_deleted_clauses_and_remaps_survivors() {
        let mut db = ClauseDb::default();
        let c0 = db.add(&[lit(0), lit(1)], false);
        let c1 = db.add(&[lit(2), lit(3), lit(4)], true);
        let c2 = db.add(&[lit(5), lit(6)], false);
        db.set_activity(c1, 2.25);
        db.delete(c0);
        let table = db.compact();
        assert_eq!(db.len(), 2);
        assert_eq!(db.wasted, 0);
        assert_eq!(remap(&table, c0), None, "deleted clauses have no new home");
        let n1 = remap(&table, c1).expect("survivor");
        let n2 = remap(&table, c2).expect("survivor");
        assert_eq!(db.lits(n1), &[lit(2), lit(3), lit(4)]);
        assert_eq!(db.lits(n2), &[lit(5), lit(6)]);
        assert!(db.is_learnt(n1));
        assert_eq!(db.activity(n1), 2.25);
        assert_eq!(n1.offset(), 0, "survivors are packed from the start");
    }
}
