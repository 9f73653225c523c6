//! Concrete evaluation — the big-step semantics of paper Fig. 4.
//!
//! A concrete state `s` maps field ids to bitvector values. Action
//! statements update the state; a predicate whose condition evaluates to
//! false has *no* evaluation rule, which this implementation reports as
//! [`EvalError::PredicateFailed`]. A path is **valid** (Definition 2)
//! exactly when some initial state evaluates it to completion, and the test
//! driver uses this evaluator as the reference semantics a hardware target
//! must agree with.

use crate::cfg::{Cfg, NodeId};
use crate::exp::{AExp, AOp, BExp, BOp, CmpOp, Stmt};
use crate::fields::{FieldId, FieldTable};
use meissa_num::Bv;

/// A concrete execution state: `s ∈ field_id → int` (Fig. 4).
///
/// Fields absent from the map read as zero — the "uninitialized metadata is
/// zero" convention of P4 targets. Field ids are dense (interned indices),
/// so the map is a flat vector: `get`/`set` are array indexing, and `clone`
/// is a memcpy — this sits on the interpreter's per-packet hot path.
///
/// Equality distinguishes an explicitly-set zero from an absent field
/// (matching the original map semantics); trailing unset slots are ignored.
#[derive(Clone, Default, Debug)]
pub struct ConcreteState {
    values: Vec<Option<Bv>>,
    count: usize,
}

impl PartialEq for ConcreteState {
    fn eq(&self, other: &Self) -> bool {
        if self.count != other.count {
            return false;
        }
        let shared = self.values.len().min(other.values.len());
        self.values[..shared] == other.values[..shared]
            && self.values[shared..].iter().all(Option::is_none)
            && other.values[shared..].iter().all(Option::is_none)
    }
}

impl Eq for ConcreteState {}

/// Why a concrete evaluation step got stuck.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A predicate node's condition evaluated to false at the given node —
    /// there is no evaluation rule for a false `assume` (Fig. 4).
    PredicateFailed(NodeId),
}

impl ConcreteState {
    /// The empty (all-zeros) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a state from (field, value) pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (FieldId, Bv)>) -> Self {
        // One exact allocation: a test plan holds every planned input at
        // once, so growing slot by slot would leave spare capacity behind.
        let pairs: Vec<(FieldId, Bv)> = pairs.into_iter().collect();
        let len = pairs
            .iter()
            .map(|(f, _)| f.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut s = ConcreteState {
            values: vec![None; len],
            count: 0,
        };
        for (f, v) in pairs {
            s.set_unchecked(f, v);
        }
        s
    }

    /// Reads a field (zero when unset).
    pub fn get(&self, fields: &FieldTable, f: FieldId) -> Bv {
        match self.values.get(f.0 as usize) {
            Some(Some(v)) => *v,
            _ => Bv::zero(fields.width(f)),
        }
    }

    /// Writes a field.
    ///
    /// # Panics
    /// Panics on a width mismatch with the field declaration.
    pub fn set(&mut self, fields: &FieldTable, f: FieldId, v: Bv) {
        assert_eq!(
            fields.width(f),
            v.width(),
            "state write width mismatch for {}",
            fields.name(f)
        );
        self.set_unchecked(f, v);
    }

    fn set_unchecked(&mut self, f: FieldId, v: Bv) {
        let i = f.0 as usize;
        if i >= self.values.len() {
            self.values.resize(i + 1, None);
        }
        if self.values[i].replace(v).is_none() {
            self.count += 1;
        }
    }

    /// Iterates over explicitly-set fields, in ascending field-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, Bv)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (FieldId(i as u32), v)))
    }

    /// Number of explicitly-set fields.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no field is explicitly set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Evaluates an arithmetic expression in this state.
    pub fn eval_aexp(&self, fields: &FieldTable, e: &AExp) -> Bv {
        match e {
            AExp::Field(f) => self.get(fields, *f),
            AExp::Const(v) => *v,
            AExp::Bin(op, a, b) => {
                let x = self.eval_aexp(fields, a);
                let y = self.eval_aexp(fields, b);
                match op {
                    AOp::Add => x.add(&y),
                    AOp::Sub => x.sub(&y),
                    AOp::And => x.and(&y),
                    AOp::Or => x.or(&y),
                    AOp::Xor => x.xor(&y),
                }
            }
            AExp::Not(a) => self.eval_aexp(fields, a).not(),
            AExp::Shl(a, n) => self.eval_aexp(fields, a).shl(*n as u32),
            AExp::Shr(a, n) => self.eval_aexp(fields, a).shr(*n as u32),
            AExp::Hash(alg, w, args) => {
                let keys: Vec<Bv> = args.iter().map(|a| self.eval_aexp(fields, a)).collect();
                alg.compute(*w, &keys)
            }
        }
    }

    /// Evaluates a boolean expression in this state.
    pub fn eval_bexp(&self, fields: &FieldTable, e: &BExp) -> bool {
        match e {
            BExp::True => true,
            BExp::False => false,
            BExp::Cmp(op, a, b) => {
                let x = self.eval_aexp(fields, a);
                let y = self.eval_aexp(fields, b);
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x.ult(&y),
                    CmpOp::Gt => x.ugt(&y),
                    CmpOp::Le => !x.ugt(&y),
                    CmpOp::Ge => !x.ult(&y),
                }
            }
            BExp::Bin(op, a, b) => {
                let x = self.eval_bexp(fields, a);
                match op {
                    BOp::And => x && self.eval_bexp(fields, b),
                    BOp::Or => x || self.eval_bexp(fields, b),
                }
            }
            BExp::Not(a) => !self.eval_bexp(fields, a),
        }
    }
}

/// Evaluates one statement (Fig. 4's Action and Predicate rules).
pub fn eval_stmt(
    fields: &FieldTable,
    state: &mut ConcreteState,
    node: NodeId,
    stmt: &Stmt,
) -> Result<(), EvalError> {
    match stmt {
        Stmt::Assign(f, e) => {
            let v = state.eval_aexp(fields, e);
            state.set(fields, *f, v);
            Ok(())
        }
        Stmt::Assume(b) => {
            if state.eval_bexp(fields, b) {
                Ok(())
            } else {
                Err(EvalError::PredicateFailed(node))
            }
        }
    }
}

/// Evaluates a path (Fig. 4's Sequential-evaluation rule): `⟨π; s⟩ → s'`.
///
/// On success returns the final state. On a failed predicate returns the
/// node at which evaluation got stuck, which the test driver reports as the
/// divergence point.
pub fn eval_path(
    cfg: &Cfg,
    path: &[NodeId],
    initial: &ConcreteState,
) -> Result<ConcreteState, EvalError> {
    let mut s = initial.clone();
    for &n in path {
        eval_stmt(&cfg.fields, &mut s, n, cfg.stmt(n))?;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::CfgBuilder;

    /// Builds the Fig. 5 example graphs and checks their validity verdicts.
    fn mini_cfg() -> (Cfg, FieldId, FieldId) {
        let mut b = CfgBuilder::new();
        let dst = b.fields_mut().intern("dstIP", 32);
        let port = b.fields_mut().intern("srcPort", 16);
        b.nop();
        let g = b.finish();
        (g, dst, port)
    }

    #[test]
    fn fig5a_valid_path() {
        // dstIP == 127.1.*.* then egressPort ← 5: reachable.
        let mut b = CfgBuilder::new();
        let dst = b.fields_mut().intern("dstIP", 32);
        let eport = b.fields_mut().intern("egressPort", 9);
        let masked = AExp::bin(
            AOp::And,
            AExp::Field(dst),
            AExp::Const(Bv::new(32, 0xffff_0000)),
        );
        b.stmt(Stmt::Assume(BExp::eq(
            masked,
            AExp::Const(Bv::new(32, 0x7f01_0000)),
        )));
        b.stmt(Stmt::Assign(eport, AExp::Const(Bv::new(9, 5))));
        let g = b.finish();
        let path: Vec<NodeId> = g.topo_order();

        let good = ConcreteState::from_pairs([(dst, Bv::new(32, 0x7f01_0203))]);
        let out = eval_path(&g, &path, &good).expect("valid path");
        assert_eq!(out.get(&g.fields, eport), Bv::new(9, 5));

        let bad = ConcreteState::from_pairs([(dst, Bv::new(32, 0x0a00_0001))]);
        assert!(matches!(
            eval_path(&g, &path, &bad),
            Err(EvalError::PredicateFailed(_))
        ));
    }

    #[test]
    fn fig5b_invalid_after_assignment() {
        // dstIP ← 192.168.0.1 then dstIP == 10.1.1.1: no initial state works.
        let mut b = CfgBuilder::new();
        let dst = b.fields_mut().intern("dstIP", 32);
        b.stmt(Stmt::Assign(dst, AExp::Const(Bv::new(32, 0xc0a8_0001))));
        b.stmt(Stmt::Assume(BExp::eq(
            AExp::Field(dst),
            AExp::Const(Bv::new(32, 0x0a01_0101)),
        )));
        let g = b.finish();
        let path = g.topo_order();
        // Try the only value that could plausibly satisfy the predicate.
        let s = ConcreteState::from_pairs([(dst, Bv::new(32, 0x0a01_0101))]);
        assert!(eval_path(&g, &path, &s).is_err(), "assignment overwrites");
    }

    #[test]
    fn fig5c_contradictory_predicates() {
        let mut b = CfgBuilder::new();
        let port = b.fields_mut().intern("srcPort", 16);
        b.stmt(Stmt::Assume(BExp::eq(
            AExp::Field(port),
            AExp::Const(Bv::new(16, 80)),
        )));
        b.stmt(Stmt::Assume(BExp::eq(
            AExp::Field(port),
            AExp::Const(Bv::new(16, 443)),
        )));
        let g = b.finish();
        let path = g.topo_order();
        for v in [80u128, 443, 0] {
            let s = ConcreteState::from_pairs([(port, Bv::new(16, v))]);
            assert!(eval_path(&g, &path, &s).is_err());
        }
    }

    #[test]
    fn unset_fields_read_zero() {
        let (g, dst, _) = mini_cfg();
        let s = ConcreteState::new();
        assert_eq!(s.get(&g.fields, dst), Bv::zero(32));
    }

    #[test]
    fn aexp_evaluation_covers_operators() {
        let (g, dst, port) = mini_cfg();
        let s = ConcreteState::from_pairs([
            (dst, Bv::new(32, 0x0000_00f0)),
            (port, Bv::new(16, 7)),
        ]);
        let f = AExp::Field(dst);
        let k = AExp::Const(Bv::new(32, 0x0f));
        let cases = [
            (AExp::bin(AOp::Add, f.clone(), k.clone()), 0xff),
            (AExp::bin(AOp::Sub, f.clone(), k.clone()), 0xe1),
            (AExp::bin(AOp::And, f.clone(), k.clone()), 0x00),
            (AExp::bin(AOp::Or, f.clone(), k.clone()), 0xff),
            (AExp::bin(AOp::Xor, f.clone(), k.clone()), 0xff),
            (AExp::Shl(Box::new(f.clone()), 4), 0xf00),
            (AExp::Shr(Box::new(f.clone()), 4), 0x0f),
        ];
        for (e, expect) in cases {
            assert_eq!(s.eval_aexp(&g.fields, &e).val(), expect, "{e:?}");
        }
        assert_eq!(
            s.eval_aexp(&g.fields, &AExp::Not(Box::new(AExp::Const(Bv::new(8, 0x0f))))),
            Bv::new(8, 0xf0)
        );
    }

    #[test]
    fn bexp_evaluation_covers_operators() {
        let (g, dst, _) = mini_cfg();
        let s = ConcreteState::from_pairs([(dst, Bv::new(32, 100))]);
        let f = AExp::Field(dst);
        let k = |v: u128| AExp::Const(Bv::new(32, v));
        let cases = [
            (BExp::Cmp(CmpOp::Eq, f.clone(), k(100)), true),
            (BExp::Cmp(CmpOp::Ne, f.clone(), k(100)), false),
            (BExp::Cmp(CmpOp::Lt, f.clone(), k(101)), true),
            (BExp::Cmp(CmpOp::Gt, f.clone(), k(99)), true),
            (BExp::Cmp(CmpOp::Le, f.clone(), k(100)), true),
            (BExp::Cmp(CmpOp::Ge, f.clone(), k(101)), false),
        ];
        for (e, expect) in cases {
            assert_eq!(s.eval_bexp(&g.fields, &e), expect, "{e:?}");
        }
        let t = BExp::Cmp(CmpOp::Eq, f.clone(), k(100));
        let fls = BExp::Cmp(CmpOp::Eq, f.clone(), k(0));
        assert!(s.eval_bexp(&g.fields, &BExp::and(t.clone(), BExp::not(fls.clone()))));
        assert!(s.eval_bexp(&g.fields, &BExp::or(fls.clone(), t.clone())));
        assert!(!s.eval_bexp(&g.fields, &BExp::and(t, fls)));
    }

    #[test]
    fn hash_evaluates_concretely() {
        use crate::hash::HashAlg;
        let (g, dst, _) = mini_cfg();
        let s = ConcreteState::from_pairs([(dst, Bv::new(32, 0x01020304))]);
        let h = AExp::Hash(HashAlg::Crc16, 16, vec![AExp::Field(dst)]);
        let v1 = s.eval_aexp(&g.fields, &h);
        let expect = HashAlg::Crc16.compute(16, &[Bv::new(32, 0x01020304)]);
        assert_eq!(v1, expect);
    }

    #[test]
    fn sequential_assignment_uses_updated_state() {
        // The paper's §3.3 example: srcPort ← 10000; dstPort ← srcPort + 1
        // evaluated *sequentially* gives 10001 — the very non-atomicity that
        // summary encoding must work around with @vars.
        let mut b = CfgBuilder::new();
        let sp = b.fields_mut().intern("srcPort", 16);
        let dp = b.fields_mut().intern("dstPort", 16);
        b.stmt(Stmt::Assign(sp, AExp::Const(Bv::new(16, 10000))));
        b.stmt(Stmt::Assign(
            dp,
            AExp::bin(AOp::Add, AExp::Field(sp), AExp::Const(Bv::new(16, 1))),
        ));
        let g = b.finish();
        let path = g.topo_order();
        let init = ConcreteState::from_pairs([(sp, Bv::new(16, 555))]);
        let out = eval_path(&g, &path, &init).unwrap();
        assert_eq!(out.get(&g.fields, dp), Bv::new(16, 10001));
    }
}
