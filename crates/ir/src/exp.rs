//! Expression and statement syntax — the grammar of paper Fig. 3.
//!
//! `aexp` is bitvector arithmetic over header fields (`+ - & | ^` plus
//! constant shifts, which production P4 programs use for tunnel header
//! math), `bexp` is boolean structure over comparisons, and `stmt` is
//! either an action (`field ← aexp`) or a predicate (`assume bexp`).
//!
//! The one extension beyond Fig. 3 is [`AExp::Hash`]: §4 of the paper makes
//! hashing a special case (SMT solvers handle it poorly), and the symbolic
//! executor needs to *see* hash applications to apply the paper's
//! concrete-fold / arbitrary-value-plus-post-filter treatment. The concrete
//! evaluator computes hashes exactly.

use crate::fields::{FieldId, FieldTable};
use crate::hash::HashAlg;
use meissa_num::Bv;
use meissa_testkit::json::{tagged, Json, ToJson};

/// Arithmetic (bitvector) operators — `aop` in Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AOp {
    /// Wrapping addition, `+`.
    Add,
    /// Wrapping subtraction, `-`.
    Sub,
    /// Bitwise AND, `&`.
    And,
    /// Bitwise OR, `|`.
    Or,
    /// Bitwise XOR, `^`.
    Xor,
}

/// Boolean connectives — `bop` in Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BOp {
    /// Conjunction, `&&`.
    And,
    /// Disjunction, `||`.
    Or,
}

/// Comparison operators — `cop` in Fig. 3 (`<=` and `>=` appear in range
/// table matches).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// unsigned `<`
    Lt,
    /// unsigned `>`
    Gt,
    /// unsigned `<=`
    Le,
    /// unsigned `>=`
    Ge,
}

/// Arithmetic expressions — `aexp` in Fig. 3.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AExp {
    /// A header field variable.
    Field(FieldId),
    /// A concrete value.
    Const(Bv),
    /// A binary arithmetic operation.
    Bin(AOp, Box<AExp>, Box<AExp>),
    /// Bitwise NOT.
    Not(Box<AExp>),
    /// Logical shift left by a constant.
    Shl(Box<AExp>, u16),
    /// Logical shift right by a constant.
    Shr(Box<AExp>, u16),
    /// A hash of the argument expressions, producing `width` bits (§4).
    Hash(HashAlg, u16, Vec<AExp>),
}

impl AExp {
    /// Convenience constructor for a binary operation.
    pub fn bin(op: AOp, a: AExp, b: AExp) -> AExp {
        AExp::Bin(op, Box::new(a), Box::new(b))
    }

    /// The width of the expression in bits.
    pub fn width(&self, fields: &FieldTable) -> u16 {
        match self {
            AExp::Field(f) => fields.width(*f),
            AExp::Const(v) => v.width(),
            AExp::Bin(_, a, _) => a.width(fields),
            AExp::Not(a) | AExp::Shl(a, _) | AExp::Shr(a, _) => a.width(fields),
            AExp::Hash(_, w, _) => *w,
        }
    }

    /// Collects every field referenced by the expression into `out`.
    pub fn fields_into(&self, out: &mut Vec<FieldId>) {
        match self {
            AExp::Field(f) => out.push(*f),
            AExp::Const(_) => {}
            AExp::Bin(_, a, b) => {
                a.fields_into(out);
                b.fields_into(out);
            }
            AExp::Not(a) | AExp::Shl(a, _) | AExp::Shr(a, _) => a.fields_into(out),
            AExp::Hash(_, _, args) => {
                for a in args {
                    a.fields_into(out);
                }
            }
        }
    }

    /// True if the expression contains a hash application.
    pub fn contains_hash(&self) -> bool {
        match self {
            AExp::Hash(..) => true,
            AExp::Field(_) | AExp::Const(_) => false,
            AExp::Bin(_, a, b) => a.contains_hash() || b.contains_hash(),
            AExp::Not(a) | AExp::Shl(a, _) | AExp::Shr(a, _) => a.contains_hash(),
        }
    }

    /// Pretty-prints with field names resolved.
    pub fn display(&self, fields: &FieldTable) -> String {
        match self {
            AExp::Field(f) => fields.name(*f).to_string(),
            AExp::Const(v) => v.to_string(),
            AExp::Bin(op, a, b) => {
                let sym = match op {
                    AOp::Add => "+",
                    AOp::Sub => "-",
                    AOp::And => "&",
                    AOp::Or => "|",
                    AOp::Xor => "^",
                };
                format!("({} {} {})", a.display(fields), sym, b.display(fields))
            }
            AExp::Not(a) => format!("~{}", a.display(fields)),
            AExp::Shl(a, n) => format!("({} << {})", a.display(fields), n),
            AExp::Shr(a, n) => format!("({} >> {})", a.display(fields), n),
            AExp::Hash(alg, w, args) => {
                let inner: Vec<String> = args.iter().map(|a| a.display(fields)).collect();
                format!("{alg:?}<{w}>({})", inner.join(", "))
            }
        }
    }
}

/// Boolean expressions — `bexp` in Fig. 3.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BExp {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A comparison of two arithmetic expressions.
    Cmp(CmpOp, AExp, AExp),
    /// A binary boolean composition.
    Bin(BOp, Box<BExp>, Box<BExp>),
    /// Negation, `~` in Fig. 3.
    Not(Box<BExp>),
}

impl BExp {
    /// Convenience constructor for conjunction.
    pub fn and(a: BExp, b: BExp) -> BExp {
        match (&a, &b) {
            (BExp::True, _) => b,
            (_, BExp::True) => a,
            (BExp::False, _) | (_, BExp::False) => BExp::False,
            _ => BExp::Bin(BOp::And, Box::new(a), Box::new(b)),
        }
    }

    /// Convenience constructor for disjunction.
    pub fn or(a: BExp, b: BExp) -> BExp {
        match (&a, &b) {
            (BExp::False, _) => b,
            (_, BExp::False) => a,
            (BExp::True, _) | (_, BExp::True) => BExp::True,
            _ => BExp::Bin(BOp::Or, Box::new(a), Box::new(b)),
        }
    }

    /// Convenience constructor for negation.
    #[allow(clippy::should_implement_trait)] // domain op, not std::ops::Not
    pub fn not(a: BExp) -> BExp {
        match a {
            BExp::True => BExp::False,
            BExp::False => BExp::True,
            BExp::Not(inner) => *inner,
            _ => BExp::Not(Box::new(a)),
        }
    }

    /// Equality comparison helper.
    pub fn eq(a: AExp, b: AExp) -> BExp {
        BExp::Cmp(CmpOp::Eq, a, b)
    }

    /// Collects every field referenced by the expression into `out`.
    pub fn fields_into(&self, out: &mut Vec<FieldId>) {
        match self {
            BExp::True | BExp::False => {}
            BExp::Cmp(_, a, b) => {
                a.fields_into(out);
                b.fields_into(out);
            }
            BExp::Bin(_, a, b) => {
                a.fields_into(out);
                b.fields_into(out);
            }
            BExp::Not(a) => a.fields_into(out),
        }
    }

    /// True if the expression contains a hash application.
    pub fn contains_hash(&self) -> bool {
        match self {
            BExp::True | BExp::False => false,
            BExp::Cmp(_, a, b) => a.contains_hash() || b.contains_hash(),
            BExp::Bin(_, a, b) => a.contains_hash() || b.contains_hash(),
            BExp::Not(a) => a.contains_hash(),
        }
    }

    /// Pretty-prints with field names resolved.
    pub fn display(&self, fields: &FieldTable) -> String {
        match self {
            BExp::True => "true".to_string(),
            BExp::False => "false".to_string(),
            BExp::Cmp(op, a, b) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Gt => ">",
                    CmpOp::Le => "<=",
                    CmpOp::Ge => ">=",
                };
                format!("({} {} {})", a.display(fields), sym, b.display(fields))
            }
            BExp::Bin(op, a, b) => {
                let sym = match op {
                    BOp::And => "&&",
                    BOp::Or => "||",
                };
                format!("({} {} {})", a.display(fields), sym, b.display(fields))
            }
            BExp::Not(a) => format!("!{}", a.display(fields)),
        }
    }
}

/// Statements — `stmt` in Fig. 3.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// An action: `field ← aexp`.
    Assign(FieldId, AExp),
    /// A predicate: `assume bexp`.
    Assume(BExp),
}

impl Stmt {
    /// True for a no-op statement (`assume true`), used as region markers.
    pub fn is_nop(&self) -> bool {
        matches!(self, Stmt::Assume(BExp::True))
    }

    /// Pretty-prints with field names resolved.
    pub fn display(&self, fields: &FieldTable) -> String {
        match self {
            Stmt::Assign(f, e) => format!("{} ← {}", fields.name(*f), e.display(fields)),
            Stmt::Assume(b) => format!("assume {}", b.display(fields)),
        }
    }
}

impl ToJson for AOp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                AOp::Add => "Add",
                AOp::Sub => "Sub",
                AOp::And => "And",
                AOp::Or => "Or",
                AOp::Xor => "Xor",
            }
            .into(),
        )
    }
}

impl ToJson for BOp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                BOp::And => "And",
                BOp::Or => "Or",
            }
            .into(),
        )
    }
}

impl ToJson for CmpOp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                CmpOp::Eq => "Eq",
                CmpOp::Ne => "Ne",
                CmpOp::Lt => "Lt",
                CmpOp::Gt => "Gt",
                CmpOp::Le => "Le",
                CmpOp::Ge => "Ge",
            }
            .into(),
        )
    }
}

impl ToJson for AExp {
    fn to_json(&self) -> Json {
        match self {
            AExp::Field(f) => tagged("Field", f.to_json()),
            AExp::Const(v) => tagged("Const", v.to_json()),
            AExp::Bin(op, a, b) => {
                tagged("Bin", Json::Arr(vec![op.to_json(), a.to_json(), b.to_json()]))
            }
            AExp::Not(a) => tagged("Not", a.to_json()),
            AExp::Shl(a, n) => tagged("Shl", Json::Arr(vec![a.to_json(), n.to_json()])),
            AExp::Shr(a, n) => tagged("Shr", Json::Arr(vec![a.to_json(), n.to_json()])),
            AExp::Hash(alg, w, args) => tagged(
                "Hash",
                Json::Arr(vec![alg.to_json(), w.to_json(), args.to_json()]),
            ),
        }
    }
}

impl ToJson for BExp {
    fn to_json(&self) -> Json {
        match self {
            BExp::True => Json::Str("True".into()),
            BExp::False => Json::Str("False".into()),
            BExp::Cmp(op, a, b) => {
                tagged("Cmp", Json::Arr(vec![op.to_json(), a.to_json(), b.to_json()]))
            }
            BExp::Bin(op, a, b) => {
                tagged("Bin", Json::Arr(vec![op.to_json(), a.to_json(), b.to_json()]))
            }
            BExp::Not(a) => tagged("Not", a.to_json()),
        }
    }
}

impl ToJson for Stmt {
    fn to_json(&self) -> Json {
        match self {
            Stmt::Assign(f, e) => tagged("Assign", Json::Arr(vec![f.to_json(), e.to_json()])),
            Stmt::Assume(b) => tagged("Assume", b.to_json()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (FieldTable, FieldId, FieldId) {
        let mut t = FieldTable::new();
        let a = t.intern("hdr.ipv4.src_addr", 32);
        let b = t.intern("hdr.ipv4.dst_addr", 32);
        (t, a, b)
    }

    #[test]
    fn width_propagates() {
        let (t, a, _) = table();
        let e = AExp::bin(AOp::Add, AExp::Field(a), AExp::Const(Bv::new(32, 1)));
        assert_eq!(e.width(&t), 32);
        assert_eq!(AExp::Hash(HashAlg::Crc16, 16, vec![AExp::Field(a)]).width(&t), 16);
    }

    #[test]
    fn field_collection() {
        let (_, a, b) = table();
        let e = BExp::eq(
            AExp::bin(AOp::Xor, AExp::Field(a), AExp::Field(b)),
            AExp::Const(Bv::zero(32)),
        );
        let mut out = Vec::new();
        e.fields_into(&mut out);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn bexp_smart_constructors() {
        let (_, a, _) = table();
        let cmp = BExp::eq(AExp::Field(a), AExp::Const(Bv::zero(32)));
        assert_eq!(BExp::and(BExp::True, cmp.clone()), cmp);
        assert_eq!(BExp::and(cmp.clone(), BExp::False), BExp::False);
        assert_eq!(BExp::or(BExp::False, cmp.clone()), cmp);
        assert_eq!(BExp::or(cmp.clone(), BExp::True), BExp::True);
        assert_eq!(BExp::not(BExp::not(cmp.clone())), cmp);
    }

    #[test]
    fn hash_detection() {
        let (_, a, b) = table();
        let plain = AExp::bin(AOp::Add, AExp::Field(a), AExp::Field(b));
        assert!(!plain.contains_hash());
        let hashed = AExp::bin(
            AOp::And,
            AExp::Hash(HashAlg::Crc32, 32, vec![AExp::Field(a)]),
            AExp::Field(b),
        );
        assert!(hashed.contains_hash());
        assert!(BExp::eq(hashed, AExp::Field(b)).contains_hash());
    }

    #[test]
    fn display_resolves_names() {
        let (t, a, _) = table();
        let s = Stmt::Assign(a, AExp::Const(Bv::new(32, 0xc0a80001)));
        let d = s.display(&t);
        assert!(d.contains("hdr.ipv4.src_addr"), "{d}");
        assert!(d.contains('←'), "{d}");
    }

    #[test]
    fn nop_detection() {
        let (_, a, _) = table();
        assert!(Stmt::Assume(BExp::True).is_nop());
        assert!(!Stmt::Assume(BExp::False).is_nop());
        assert!(!Stmt::Assign(a, AExp::Const(Bv::zero(32))).is_nop());
    }
}
