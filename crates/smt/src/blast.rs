//! Tseitin bit-blasting of bitvector terms into CNF.
//!
//! Every bitvector term becomes a vector of SAT literals (LSB first), every
//! boolean term a single literal. Gate clauses are *definitions* of fresh
//! variables, so they are added unguarded at level 0 and remain valid across
//! incremental frames; only the top-level asserted literals are guarded by
//! the solver's activation literals. The blaster caches the encoding of every
//! term, so shared subterms — ubiquitous in symbolic execution, where one
//! packet field appears in hundreds of path constraints — are encoded once.

use crate::sat::{Lit, SatSolver};
use crate::term::{BvBinOp, CmpOp, TermId, TermNode, TermPool, VarId};
use meissa_num::Bv;
use std::collections::HashMap;

/// The bit-blaster: caches per-term encodings and variable bit vectors.
pub struct Blaster {
    /// SAT literal that is constrained to be true.
    true_lit: Lit,
    /// Cache: bitvector term → its bits (LSB first).
    bits: HashMap<TermId, Vec<Lit>>,
    /// Cache: boolean term → its literal.
    bools: HashMap<TermId, Lit>,
    /// Bits allocated for each solver variable (for model extraction).
    var_bits: HashMap<VarId, Vec<Lit>>,
}

impl Blaster {
    /// Creates a blaster, allocating the constant-true literal in `sat`.
    pub fn new(sat: &mut SatSolver) -> Self {
        let t = Lit::new(sat.new_var(), true);
        sat.add_clause(&[t]);
        Blaster {
            true_lit: t,
            bits: HashMap::new(),
            bools: HashMap::new(),
            var_bits: HashMap::new(),
        }
    }

    /// The literal fixed to true.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The literal fixed to false.
    pub fn false_lit(&self) -> Lit {
        self.true_lit.neg()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        if l == self.true_lit {
            Some(true)
        } else if l == self.false_lit() {
            Some(false)
        } else {
            None
        }
    }

    /// The bits allocated for a solver variable, if it was ever blasted.
    pub fn var_bits(&self, v: VarId) -> Option<&[Lit]> {
        self.var_bits.get(&v).map(|b| b.as_slice())
    }

    /// Every solver variable that has been blasted, in no particular order.
    /// These are the only variables a SAT model constrains.
    pub fn blasted_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.var_bits.keys().copied()
    }

    /// Reads a variable's value out of the SAT model (after a Sat answer).
    /// Unblasted variables are unconstrained; returns `None` for them.
    pub fn read_var(&self, sat: &SatSolver, v: VarId, width: u16) -> Option<Bv> {
        let bits = self.var_bits.get(&v)?;
        let mut val = 0u128;
        for (i, l) in bits.iter().enumerate() {
            let bit = sat.value(l.var()) == l.positive();
            if bit {
                val |= 1u128 << i;
            }
        }
        Some(Bv::new(width, val))
    }

    // ----- gates ---------------------------------------------------------

    /// `c ⇔ a ∧ b`
    fn and_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == b.neg() {
            return self.false_lit();
        }
        let c = Lit::new(sat.new_var(), true);
        sat.add_clause(&[c.neg(), a]);
        sat.add_clause(&[c.neg(), b]);
        sat.add_clause(&[c, a.neg(), b.neg()]);
        c
    }

    /// `c ⇔ a ∨ b`
    fn or_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        let na = a.neg();
        let nb = b.neg();
        self.and_gate(sat, na, nb).neg()
    }

    /// `c ⇔ a ⊕ b`
    fn xor_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return b.neg(),
            (_, Some(true)) => return a.neg(),
            _ => {}
        }
        if a == b {
            return self.false_lit();
        }
        if a == b.neg() {
            return self.true_lit;
        }
        let c = Lit::new(sat.new_var(), true);
        sat.add_clause(&[c.neg(), a, b]);
        sat.add_clause(&[c.neg(), a.neg(), b.neg()]);
        sat.add_clause(&[c, a.neg(), b]);
        sat.add_clause(&[c, a, b.neg()]);
        c
    }

    /// `c ⇔ majority(a, b, d)` — the carry function of a full adder.
    fn maj_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, d: Lit) -> Lit {
        // Fold constants through the simpler gates.
        if let Some(v) = self.is_const(a) {
            return if v {
                self.or_gate(sat, b, d)
            } else {
                self.and_gate(sat, b, d)
            };
        }
        if let Some(v) = self.is_const(b) {
            return if v {
                self.or_gate(sat, a, d)
            } else {
                self.and_gate(sat, a, d)
            };
        }
        if let Some(v) = self.is_const(d) {
            return if v {
                self.or_gate(sat, a, b)
            } else {
                self.and_gate(sat, a, b)
            };
        }
        let c = Lit::new(sat.new_var(), true);
        sat.add_clause(&[c.neg(), a, b]);
        sat.add_clause(&[c.neg(), a, d]);
        sat.add_clause(&[c.neg(), b, d]);
        sat.add_clause(&[c, a.neg(), b.neg()]);
        sat.add_clause(&[c, a.neg(), d.neg()]);
        sat.add_clause(&[c, b.neg(), d.neg()]);
        c
    }

    /// `c ⇔ if s { a } else { b }`
    fn mux_gate(&mut self, sat: &mut SatSolver, s: Lit, a: Lit, b: Lit) -> Lit {
        if let Some(v) = self.is_const(s) {
            return if v { a } else { b };
        }
        if a == b {
            return a;
        }
        // c = (s ∧ a) ∨ (¬s ∧ b)
        let sa = self.and_gate(sat, s, a);
        let nsb = self.and_gate(sat, s.neg(), b);
        self.or_gate(sat, sa, nsb)
    }

    /// `c ⇔ ∧ lits`
    fn and_many_gate(&mut self, sat: &mut SatSolver, lits: &[Lit]) -> Lit {
        let mut pending = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.is_const(l) {
                Some(false) => return self.false_lit(),
                Some(true) => continue,
                None => pending.push(l),
            }
        }
        match pending.len() {
            0 => self.true_lit,
            1 => pending[0],
            _ => {
                let c = Lit::new(sat.new_var(), true);
                let mut big = Vec::with_capacity(pending.len() + 1);
                big.push(c);
                for &l in &pending {
                    sat.add_clause(&[c.neg(), l]);
                    big.push(l.neg());
                }
                sat.add_clause(&big);
                c
            }
        }
    }

    // ----- bitvector encodings -------------------------------------------

    /// Encodes a bitvector term into literals (LSB first).
    pub fn bv_bits(&mut self, pool: &TermPool, sat: &mut SatSolver, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bits.get(&t) {
            return bits.clone();
        }
        let bits = match pool.node(t).clone() {
            TermNode::BvConst(v) => (0..v.width()).map(|i| self.const_lit(v.bit(i))).collect(),
            TermNode::BvVar(vid) => {
                if let Some(b) = self.var_bits.get(&vid) {
                    b.clone()
                } else {
                    let w = pool.var_width(vid);
                    let b: Vec<Lit> = (0..w).map(|_| Lit::new(sat.new_var(), true)).collect();
                    self.var_bits.insert(vid, b.clone());
                    b
                }
            }
            TermNode::BvBin(op, a, b) => {
                let xa = self.bv_bits(pool, sat, a);
                let xb = self.bv_bits(pool, sat, b);
                match op {
                    BvBinOp::And => xa
                        .iter()
                        .zip(&xb)
                        .map(|(&p, &q)| self.and_gate(sat, p, q))
                        .collect(),
                    BvBinOp::Or => xa
                        .iter()
                        .zip(&xb)
                        .map(|(&p, &q)| self.or_gate(sat, p, q))
                        .collect(),
                    BvBinOp::Xor => xa
                        .iter()
                        .zip(&xb)
                        .map(|(&p, &q)| self.xor_gate(sat, p, q))
                        .collect(),
                    BvBinOp::Add => self.adder(sat, &xa, &xb, self.false_lit()),
                    BvBinOp::Sub => {
                        // a - b = a + ~b + 1
                        let nb: Vec<Lit> = xb.iter().map(|l| l.neg()).collect();
                        self.adder(sat, &xa, &nb, self.true_lit)
                    }
                }
            }
            TermNode::BvNot(a) => self
                .bv_bits(pool, sat, a)
                .iter()
                .map(|l| l.neg())
                .collect(),
            TermNode::BvShl(a, n) => {
                let xa = self.bv_bits(pool, sat, a);
                let w = xa.len();
                let mut out = vec![self.false_lit(); w];
                for i in (n as usize)..w {
                    out[i] = xa[i - n as usize];
                }
                out
            }
            TermNode::BvShr(a, n) => {
                let xa = self.bv_bits(pool, sat, a);
                let w = xa.len();
                let mut out = vec![self.false_lit(); w];
                for i in 0..w.saturating_sub(n as usize) {
                    out[i] = xa[i + n as usize];
                }
                out
            }
            TermNode::BvExtract(a, lo, len) => {
                let xa = self.bv_bits(pool, sat, a);
                xa[lo as usize..(lo + len) as usize].to_vec()
            }
            TermNode::BvConcat(hi, lo) => {
                let xlo = self.bv_bits(pool, sat, lo);
                let xhi = self.bv_bits(pool, sat, hi);
                let mut out = xlo;
                out.extend(xhi);
                out
            }
            TermNode::BvIte(c, a, b) => {
                let lc = self.bool_lit(pool, sat, c);
                let xa = self.bv_bits(pool, sat, a);
                let xb = self.bv_bits(pool, sat, b);
                xa.iter()
                    .zip(&xb)
                    .map(|(&p, &q)| self.mux_gate(sat, lc, p, q))
                    .collect()
            }
            n => panic!("bv_bits on non-bitvector node {n:?}"),
        };
        self.bits.insert(t, bits.clone());
        bits
    }

    fn adder(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit], cin: Lit) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.xor_gate(sat, a[i], b[i]);
            let sum = self.xor_gate(sat, axb, carry);
            out.push(sum);
            if i + 1 < a.len() {
                carry = self.maj_gate(sat, a[i], b[i], carry);
            }
        }
        out
    }

    /// Encodes a boolean term into a single literal.
    ///
    /// The literal is cached per term: repeat calls return the same `Lit`
    /// and add no variables or clauses. `Solver::check_under` depends on
    /// this — a branch arm's literal is blasted once, then reused as a
    /// solve assumption however many times the arm is probed, and sibling
    /// arms share every sub-cone they have in common.
    pub fn bool_lit(&mut self, pool: &TermPool, sat: &mut SatSolver, t: TermId) -> Lit {
        if let Some(&l) = self.bools.get(&t) {
            return l;
        }
        let l = match pool.node(t).clone() {
            TermNode::BoolConst(b) => self.const_lit(b),
            TermNode::BoolAnd(a, b) => {
                let la = self.bool_lit(pool, sat, a);
                let lb = self.bool_lit(pool, sat, b);
                self.and_gate(sat, la, lb)
            }
            TermNode::BoolOr(a, b) => {
                let la = self.bool_lit(pool, sat, a);
                let lb = self.bool_lit(pool, sat, b);
                self.or_gate(sat, la, lb)
            }
            TermNode::BoolNot(a) => self.bool_lit(pool, sat, a).neg(),
            TermNode::Cmp(op, a, b) => {
                let xa = self.bv_bits(pool, sat, a);
                let xb = self.bv_bits(pool, sat, b);
                match op {
                    CmpOp::Eq => {
                        let xnors: Vec<Lit> = xa
                            .iter()
                            .zip(&xb)
                            .map(|(&p, &q)| self.xor_gate(sat, p, q).neg())
                            .collect();
                        self.and_many_gate(sat, &xnors)
                    }
                    CmpOp::Ult => {
                        // LSB→MSB ripple: lt' = (¬a ∧ b) ∨ ((a ⇔ b) ∧ lt)
                        let mut lt = self.false_lit();
                        for i in 0..xa.len() {
                            let nab = self.and_gate(sat, xa[i].neg(), xb[i]);
                            let eq = self.xor_gate(sat, xa[i], xb[i]).neg();
                            let keep = self.and_gate(sat, eq, lt);
                            lt = self.or_gate(sat, nab, keep);
                        }
                        lt
                    }
                }
            }
            n => panic!("bool_lit on non-boolean node {n:?}"),
        };
        self.bools.insert(t, l);
        l
    }

    /// Number of distinct vars the SAT instance uses for a rough size metric.
    pub fn cache_size(&self) -> usize {
        self.bits.len() + self.bools.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    /// Asserts `t` (a boolean term) and solves; returns the model reader.
    fn solve_term(pool: &mut TermPool, t: TermId) -> Option<(SatSolver, Blaster)> {
        let mut sat = SatSolver::new();
        let mut bl = Blaster::new(&mut sat);
        let l = bl.bool_lit(pool, &mut sat, t);
        sat.add_clause(&[l]);
        match sat.solve(&[]) {
            SatResult::Sat => Some((sat, bl)),
            SatResult::Unsat => None,
        }
    }

    fn val(pool: &TermPool, sat: &SatSolver, bl: &Blaster, name: &str, w: u16) -> Bv {
        let v = pool.find_var(name).unwrap();
        bl.read_var(sat, v, w).unwrap_or(Bv::zero(w))
    }

    #[test]
    fn bool_lit_is_cached_and_stable() {
        // Assumption-batching contract: re-blasting a term is free and
        // returns the identical literal, so `check_under` can assume it
        // on every probe without growing the SAT instance.
        let mut p = TermPool::new();
        let mut sat = SatSolver::new();
        let mut bl = Blaster::new(&mut sat);
        let x = p.var("x", 8);
        let k = p.bv_const(Bv::new(8, 42));
        let t = p.eq(x, k);
        let first = bl.bool_lit(&p, &mut sat, t);
        let (vars, clauses, cache) = (sat.num_vars(), sat.num_clauses(), bl.cache_size());
        for _ in 0..3 {
            assert_eq!(bl.bool_lit(&p, &mut sat, t), first);
        }
        assert_eq!(sat.num_vars(), vars);
        assert_eq!(sat.num_clauses(), clauses);
        assert_eq!(bl.cache_size(), cache);
        // A sibling arm over the same variable reuses x's bit cone: new
        // gate clauses, but no second copy of the variable's bits.
        let k2 = p.bv_const(Bv::new(8, 7));
        let t2 = p.eq(x, k2);
        let second = bl.bool_lit(&p, &mut sat, t2);
        assert_ne!(second, first);
        let xv = p.find_var("x").unwrap();
        assert_eq!(bl.var_bits(xv).unwrap().len(), 8);
    }

    #[test]
    fn equality_forces_value() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let k = p.bv_const(Bv::new(16, 0xbeef));
        let t = p.eq(x, k);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 16), Bv::new(16, 0xbeef));
    }

    #[test]
    fn addition_wraps_in_models() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let one = p.bv_const(Bv::new(8, 1));
        let sum = p.add(x, one);
        let zero = p.bv_const(Bv::zero(8));
        let t = p.eq(sum, zero);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 8), Bv::new(8, 255));
    }

    #[test]
    fn subtraction_encoding() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let diff = p.sub(x, y);
        let k = p.bv_const(Bv::new(8, 7));
        let e1 = p.eq(diff, k);
        let k2 = p.bv_const(Bv::new(8, 3));
        let e2 = p.eq(y, k2);
        let t = p.and(e1, e2);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 8), Bv::new(8, 10));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let a = p.bv_const(Bv::new(8, 80));
        let b = p.bv_const(Bv::new(8, 443));
        let e1 = p.eq(x, a);
        let e2 = p.eq(x, b);
        let t = p.and(e1, e2);
        assert!(solve_term(&mut p, t).is_none());
    }

    #[test]
    fn ult_semantics() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let lo = p.bv_const(Bv::new(8, 250));
        let t = p.ugt(x, lo);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert!(val(&p, &sat, &bl, "x", 8).val() > 250);
    }

    #[test]
    fn ult_edge_unsat() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let max = p.bv_const(Bv::new(8, 255));
        let t = p.ugt(x, max);
        assert!(solve_term(&mut p, t).is_none(), "nothing exceeds 255 at width 8");
    }

    #[test]
    fn bitwise_masking() {
        // x & 0xF0 == 0x50 has solutions; check the model honors the mask.
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let mask = p.bv_const(Bv::new(8, 0xf0));
        let masked = p.bv_and(x, mask);
        let k = p.bv_const(Bv::new(8, 0x50));
        let t = p.eq(masked, k);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 8).val() & 0xf0, 0x50);
    }

    #[test]
    fn ite_encoding() {
        let mut p = TermPool::new();
        let c = p.var("c", 8);
        let zero = p.bv_const(Bv::zero(8));
        let cond = p.ne(c, zero);
        let a = p.bv_const(Bv::new(8, 11));
        let b = p.bv_const(Bv::new(8, 22));
        let sel = p.ite(cond, a, b);
        let k = p.bv_const(Bv::new(8, 11));
        let e = p.eq(sel, k);
        let (sat, bl) = solve_term(&mut p, e).expect("sat");
        assert_ne!(val(&p, &sat, &bl, "c", 8).val(), 0);
    }

    #[test]
    fn concat_extract_roundtrip() {
        let mut p = TermPool::new();
        let hi = p.var("hi", 8);
        let lo = p.var("lo", 8);
        let cat = p.concat(hi, lo);
        let k = p.bv_const(Bv::new(16, 0xab_cd));
        let t = p.eq(cat, k);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "hi", 8), Bv::new(8, 0xab));
        assert_eq!(val(&p, &sat, &bl, "lo", 8), Bv::new(8, 0xcd));
    }

    #[test]
    fn shifts() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let sh = p.shl(x, 4);
        let k = p.bv_const(Bv::new(8, 0xa0));
        let t = p.eq(sh, k);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 8).val() & 0x0f, 0x0a);
    }

    #[test]
    fn wide_128bit_equality() {
        let mut p = TermPool::new();
        let x = p.var("x", 128);
        let k = p.bv_const(Bv::new(128, u128::MAX - 12345));
        let t = p.eq(x, k);
        let (sat, bl) = solve_term(&mut p, t).expect("sat");
        assert_eq!(val(&p, &sat, &bl, "x", 128), Bv::new(128, u128::MAX - 12345));
    }
}
