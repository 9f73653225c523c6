//! Tuple-space indexes over a branch node's match guards.
//!
//! Installed table rules compile into predicate forks whose guards are
//! conjunctions of `field == c` / `(field & mask) == c` (exact, lpm,
//! multi-key exact and ternary rules). Once every key field has a known
//! value, deciding which of a wide fork's arms hold is a hash lookup, not a
//! walk over every guard. A [`MatchIndex`] covers the *leading* successors
//! whose guards have that shape: one hash map per `(field, mask)`
//! signature, from masked key tuple to every successor with that key.
//!
//! Two lookups serve two callers:
//!
//! * [`MatchIndex::first_match`] — the first guard that holds, in successor
//!   order (the switch target's first-match-wins table semantics);
//! * [`MatchIndex::matches`] — every guard that holds (the symbolic walker,
//!   which decides each arm's guard on its own, under constant keys).
//!
//! When the successor right after the indexed ones has, as its guard, the
//! conjunction of their guards' negations (the compiler's miss arm), the
//! index records it as [`MatchIndex::miss_direct`]: that guard holds exactly
//! when no indexed guard does.

use crate::exp::{AExp, AOp, BExp, BOp, CmpOp};
use crate::fields::{FieldId, FieldTable};
use meissa_num::Bv;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Most key cells one indexed guard may have, and most distinct fields one
/// index may read (a lookup assembles its key tuple and its field values
/// in stack buffers of this size).
const MAX_KEY_CELLS: usize = 16;

/// No further successor with the same key (end of a `next` chain).
const END: u32 = u32::MAX;

/// Tuple-space index over one branch node's leading successors.
#[derive(Clone, Debug)]
pub struct MatchIndex {
    /// Every field the indexed guards read, in first-read order (a lookup
    /// resolves each once, into a stack buffer of [`MAX_KEY_CELLS`]).
    fields: Vec<FieldId>,
    /// One group per `(field, mask)` signature, ordered by the smallest
    /// successor index it holds.
    groups: Vec<MaskGroup>,
    /// `next[i]`: the next successor after `i` with the same key in the
    /// same group, or [`END`] — so a key's successors form an ascending
    /// chain starting at the group's map entry.
    next: Vec<u32>,
    /// Number of leading successors the groups cover.
    indexed: usize,
    /// The successor right after the indexed ones is the miss arm: its
    /// guard is the conjunction of the indexed guards' negations.
    miss_direct: bool,
}

/// The indexed guards sharing one `(field, mask)` signature.
#[derive(Clone, Debug)]
struct MaskGroup {
    /// `(field slot, mask)` per key cell, in guard order; the slot
    /// indexes [`MatchIndex`]'s `fields`.
    cells: Vec<(usize, u128)>,
    /// Masked key tuple → the smallest and the largest successor index
    /// with that key (the head and the tail of its `next` chain).
    by_key: HashMap<Box<[u128]>, (u32, u32)>,
    /// Smallest successor index in `by_key`.
    first: u32,
}

impl MatchIndex {
    /// Indexes the leading guards of a branch node with `n` successors,
    /// where `guard(i)` is successor `i`'s guard (`None` for an
    /// unconditional continuation, which ends the indexed run). `None`
    /// when fewer than two leading guards are match conjunctions (a scan
    /// is as cheap there).
    pub fn build<'g>(
        fields: &FieldTable,
        n: usize,
        guard: impl Fn(usize) -> Option<&'g BExp>,
    ) -> Option<MatchIndex> {
        if n < 2 {
            return None;
        }
        let mut key_fields: Vec<FieldId> = Vec::new();
        let mut groups: Vec<MaskGroup> = Vec::new();
        let mut group_of: HashMap<Vec<(usize, u128)>, usize> = HashMap::new();
        let mut next = Vec::new();
        let mut cells = Vec::new();
        for i in 0..n {
            let Some(g) = guard(i) else {
                break;
            };
            cells.clear();
            let Some(satisfiable) = match_cells(fields, g, &mut cells) else {
                break;
            };
            let read = key_fields.len();
            for &(f, _, _) in &cells {
                if !key_fields.contains(&f) {
                    key_fields.push(f);
                }
            }
            if cells.len() > MAX_KEY_CELLS || key_fields.len() > MAX_KEY_CELLS {
                key_fields.truncate(read);
                break;
            }
            next.push(END);
            if !satisfiable {
                continue; // never holds: no key reaches it
            }
            let slot = |f: FieldId| {
                key_fields
                    .iter()
                    .position(|&k| k == f)
                    .expect("cell fields are listed")
            };
            let sig: Vec<(usize, u128)> = cells.iter().map(|&(f, m, _)| (slot(f), m)).collect();
            let gi = *group_of.entry(sig).or_insert_with_key(|sig| {
                groups.push(MaskGroup {
                    cells: sig.clone(),
                    by_key: HashMap::new(),
                    first: i as u32,
                });
                groups.len() - 1
            });
            let key: Box<[u128]> = cells.iter().map(|&(_, _, v)| v).collect();
            // Successors arrive in ascending order: the first one heads
            // the key's chain, and each later one links onto its tail.
            match groups[gi].by_key.entry(key) {
                Entry::Occupied(mut e) => {
                    let tail = &mut e.get_mut().1;
                    next[*tail as usize] = i as u32;
                    *tail = i as u32;
                }
                Entry::Vacant(e) => {
                    e.insert((i as u32, i as u32));
                }
            }
        }
        let indexed = next.len();
        if indexed < 2 {
            return None;
        }
        groups.sort_by_key(|g| g.first);
        let miss_direct = indexed < n
            && guard(indexed).is_some_and(|m| {
                let mut none = BExp::True;
                for i in 0..indexed {
                    let g = guard(i).expect("indexed successors are guarded");
                    none = BExp::and(none, BExp::not(g.clone()));
                }
                *m == none
            });
        Some(MatchIndex {
            fields: key_fields,
            groups,
            next,
            indexed,
            miss_direct,
        })
    }

    /// Number of leading successors the index covers.
    pub fn indexed(&self) -> usize {
        self.indexed
    }

    /// Whether successor [`MatchIndex::indexed`] is the miss arm, whose
    /// guard holds exactly when no indexed guard does.
    pub fn miss_direct(&self) -> bool {
        self.miss_direct
    }

    /// The first indexed successor whose guard holds, with `value(f)` the
    /// value of key field `f`.
    pub fn first_match(&self, mut value: impl FnMut(FieldId) -> u128) -> Option<usize> {
        let mut vals = [0u128; MAX_KEY_CELLS];
        for (v, &f) in vals.iter_mut().zip(&self.fields) {
            *v = value(f);
        }
        let mut best = u32::MAX;
        let mut key = [0u128; MAX_KEY_CELLS];
        for g in &self.groups {
            if g.first >= best {
                break; // every later group starts later still
            }
            if let Some(&(i, _)) = g.by_key.get(g.key(&vals, &mut key)) {
                best = best.min(i);
            }
        }
        (best != u32::MAX).then_some(best as usize)
    }

    /// Appends every indexed successor whose guard holds to `out`, in
    /// ascending order, with `value(f)` the value of key field `f`. `None`,
    /// with `out` untouched, when `value` has no value for some field an
    /// indexed guard reads: the index then cannot decide the guards.
    pub fn matches(
        &self,
        mut value: impl FnMut(FieldId) -> Option<u128>,
        out: &mut Vec<usize>,
    ) -> Option<()> {
        let mut vals = [0u128; MAX_KEY_CELLS];
        for (v, &f) in vals.iter_mut().zip(&self.fields) {
            *v = value(f)?;
        }
        let start = out.len();
        let mut key = [0u128; MAX_KEY_CELLS];
        for g in &self.groups {
            let mut i = g
                .by_key
                .get(g.key(&vals, &mut key))
                .map_or(END, |&(i, _)| i);
            while i != END {
                out.push(i as usize);
                i = self.next[i as usize];
            }
        }
        out[start..].sort_unstable();
        Some(())
    }
}

impl MaskGroup {
    /// This group's masked key tuple, assembled in `buf` from the index's
    /// field values `vals`.
    fn key<'b>(&self, vals: &[u128], buf: &'b mut [u128; MAX_KEY_CELLS]) -> &'b [u128] {
        for (slot, &(f, mask)) in buf.iter_mut().zip(&self.cells) {
            *slot = vals[f] & mask;
        }
        &buf[..self.cells.len()]
    }
}

/// Flattens `guard` into `(field, mask, value)` cells, each meaning
/// `field & mask == value` (the mask is all ones for plain equality).
/// `None` when some conjunct has another shape (a literal `false` too: it
/// is the miss arm of a table with an all-wildcard rule); `Some(false)`
/// when a cell's value has bits outside its mask, so the guard never holds.
fn match_cells(
    fields: &FieldTable,
    guard: &BExp,
    out: &mut Vec<(FieldId, u128, u128)>,
) -> Option<bool> {
    match guard {
        BExp::True => Some(true),
        BExp::Bin(BOp::And, a, b) => {
            let x = match_cells(fields, a, out)?;
            let y = match_cells(fields, b, out)?;
            Some(x && y)
        }
        BExp::Cmp(CmpOp::Eq, lhs, AExp::Const(c)) => {
            let (f, mask) = match lhs {
                AExp::Field(f) => (*f, Bv::ones(fields.width(*f))),
                AExp::Bin(AOp::And, x, m) => match (&**x, &**m) {
                    (AExp::Field(f), AExp::Const(m)) => (*f, *m),
                    _ => return None,
                },
                _ => return None,
            };
            let width = fields.width(f);
            if mask.width() != width || c.width() != width {
                return None;
            }
            out.push((f, mask.val(), c.val()));
            Some(c.val() & !mask.val() == 0)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(f: FieldId, w: u16, v: u128) -> BExp {
        BExp::eq(AExp::Field(f), AExp::Const(Bv::new(w, v)))
    }

    fn masked(f: FieldId, w: u16, m: u128, v: u128) -> BExp {
        BExp::eq(
            AExp::bin(AOp::And, AExp::Field(f), AExp::Const(Bv::new(w, m))),
            AExp::Const(Bv::new(w, v)),
        )
    }

    fn miss(guards: &[BExp]) -> BExp {
        guards
            .iter()
            .fold(BExp::True, |acc, g| BExp::and(acc, BExp::not(g.clone())))
    }

    #[test]
    fn duplicate_keys_chain_every_successor() {
        let mut fields = FieldTable::new();
        let a = fields.intern("a", 8);
        let mut guards = vec![eq(a, 8, 7), eq(a, 8, 7), eq(a, 8, 8), eq(a, 8, 7)];
        guards.push(miss(&guards));
        let ix = MatchIndex::build(&fields, guards.len(), |i| guards.get(i)).unwrap();
        assert_eq!((ix.indexed(), ix.miss_direct()), (4, true));
        let mut out = Vec::new();
        ix.matches(|_| Some(7), &mut out).unwrap();
        assert_eq!(out, [0, 1, 3]);
        assert_eq!(ix.first_match(|_| 7), Some(0));
        assert_eq!(ix.first_match(|_| 8), Some(2));
        assert_eq!(ix.first_match(|_| 9), None);
        out.clear();
        ix.matches(|_| Some(9), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn groups_merge_in_successor_order_and_unknown_keys_decline() {
        let mut fields = FieldTable::new();
        let a = fields.intern("a", 8);
        let b = fields.intern("b", 8);
        let guards = [
            masked(a, 8, 0xf0, 0x10),
            BExp::and(eq(a, 8, 0x11), eq(b, 8, 2)),
            masked(a, 8, 0xf0, 0x01), // value outside its mask: never holds
            eq(a, 8, 0x12),
            BExp::True, // all-wildcard rule
            eq(b, 8, 1),
        ];
        let ix = MatchIndex::build(&fields, guards.len(), |i| guards.get(i)).unwrap();
        assert_eq!((ix.indexed(), ix.miss_direct()), (6, false));
        let val = |x: u128, y: u128| move |f: FieldId| if f == a { x } else { y };
        let mut out = Vec::new();
        ix.matches(|f| Some(val(0x11, 2)(f)), &mut out).unwrap();
        assert_eq!(out, [0, 1, 4]);
        assert_eq!(ix.first_match(val(0x11, 2)), Some(0));
        assert_eq!(ix.first_match(val(0x21, 1)), Some(4));
        out.clear();
        assert!(ix.matches(|f| (f == a).then_some(0x11), &mut out).is_none());
    }

    #[test]
    fn indexing_stops_at_the_first_other_shape() {
        let mut fields = FieldTable::new();
        let a = fields.intern("a", 8);
        let lt = BExp::Cmp(CmpOp::Lt, AExp::Field(a), AExp::Const(Bv::new(8, 4)));
        let guards = [eq(a, 8, 1), eq(a, 8, 2), lt.clone(), eq(a, 8, 3)];
        let ix = MatchIndex::build(&fields, guards.len(), |i| guards.get(i)).unwrap();
        assert_eq!((ix.indexed(), ix.miss_direct()), (2, false));
        let one = [eq(a, 8, 1), lt];
        assert!(MatchIndex::build(&fields, 2, |i| one.get(i)).is_none());
    }
}
