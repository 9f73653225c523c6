//! Symbolic state: the value stack `V` and IR→solver-term translation.
//!
//! §3.2 defines `V ∈ field_id → aexp` mapping each header field to its
//! current symbolic value, with `⟦V⟧a` substituting current values into an
//! expression. Here `V` maps fields to solver [`TermId`]s; reading a field
//! that was never assigned yields its *input variable* — the symbolic value
//! of that field at the start of the execution scope.
//!
//! One translation context serves two scopes:
//!
//! * whole-program execution (`scope = None`): input variables are named by
//!   the field itself (`hdr.ipv4.dst_addr`), representing the arriving
//!   packet;
//! * per-pipeline execution during code summary (`scope = Some("ppl")`):
//!   input variables are named `field@ppl`, representing field values at
//!   *pipeline entry*, so that collected constraints and effects can be
//!   re-encoded as CFG statements relative to the pipeline boundary.
//!
//! Hashing follows §4: a hash whose keys all fold to constants is computed
//! concretely; otherwise the result is a fresh unconstrained variable and
//! the `(algorithm, keys, output)` triple is recorded so the template
//! instantiator can post-filter generated packets.
//!
//! Hash stand-ins are named by **content** — a digest of the algorithm,
//! width, and a pool-independent canonical rendering of the key terms —
//! rather than by discovery order. Two consequences: the same hash
//! application reached along two paths shares one stand-in (sound, since a
//! hash is a function of its keys), and a parallel worker that discovers a
//! hash site in its own term pool mints exactly the name the sequential
//! engine would, which is what keeps parallel output byte-identical.

use meissa_ir::{AExp, AOp, BExp, BOp, CmpOp, FieldId, FieldTable, HashAlg};
use meissa_smt::{TermId, TermPool, VarId};
use std::collections::HashMap;

/// A deferred hash computation recorded during symbolic execution (§4).
#[derive(Clone, Debug)]
pub struct HashDef {
    /// The algorithm.
    pub alg: HashAlg,
    /// Output width in bits.
    pub width: u16,
    /// Key terms (symbolic at record time).
    pub keys: Vec<TermId>,
    /// The fresh variable standing in for the hash result.
    pub out: TermId,
}

/// Translation context shared across one symbolic execution.
pub struct SymCtx {
    /// Scope suffix for input variable names (`None` = program inputs).
    scope: Option<String>,
    /// Input variable term for each field, created on first read.
    input_vars: HashMap<FieldId, TermId>,
    /// Reverse map from solver variables back to fields (used by code
    /// summary to re-encode terms as CFG expressions).
    var_to_field: HashMap<VarId, FieldId>,
    /// Hash stand-in variables: out term → definition.
    hash_defs: HashMap<TermId, HashDef>,
}

/// The value stack `V` with an undo log for DFS backtracking.
#[derive(Default)]
pub struct ValueStack {
    values: HashMap<FieldId, TermId>,
    undo: Vec<(FieldId, Option<TermId>)>,
}

impl ValueStack {
    /// An empty stack (every field reads as its input variable).
    pub fn new() -> Self {
        Self::default()
    }

    /// The assigned value of a field, if any.
    pub fn get(&self, f: FieldId) -> Option<TermId> {
        self.values.get(&f).copied()
    }

    /// Assigns a field, recording the previous binding for undo.
    pub fn set(&mut self, f: FieldId, t: TermId) {
        let prev = self.values.insert(f, t);
        self.undo.push((f, prev));
    }

    /// A checkpoint for later [`ValueStack::restore`].
    pub fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Rolls back to a checkpoint (the `V.restore()` of Algorithm 1).
    pub fn restore(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let (f, prev) = self.undo.pop().unwrap();
            match prev {
                Some(t) => {
                    self.values.insert(f, t);
                }
                None => {
                    self.values.remove(&f);
                }
            }
        }
    }

    /// The assigned fields as they stood at checkpoint `mark`, sorted by
    /// field — the current bindings with the undo log above `mark` replayed
    /// onto a copy, leaving the stack itself untouched.
    pub fn snapshot_at(&self, mark: usize) -> Vec<(FieldId, TermId)> {
        let mut values = self.values.clone();
        for &(f, prev) in self.undo[mark..].iter().rev() {
            match prev {
                Some(t) => values.insert(f, t),
                None => values.remove(&f),
            };
        }
        let mut out: Vec<(FieldId, TermId)> = values.into_iter().collect();
        out.sort_by_key(|&(f, _)| f);
        out
    }

    /// Iterates over currently-assigned fields.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, TermId)> + '_ {
        self.values.iter().map(|(&f, &t)| (f, t))
    }

    /// Number of assigned fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no field has been assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl SymCtx {
    /// Creates a context. `scope` distinguishes per-pipeline executions.
    pub fn new(scope: Option<&str>) -> Self {
        SymCtx {
            scope: scope.map(str::to_string),
            input_vars: HashMap::new(),
            var_to_field: HashMap::new(),
            hash_defs: HashMap::new(),
        }
    }

    /// The scope suffix for input variable names (`None` = program inputs).
    /// Parallel workers create their own contexts with the same scope so
    /// variables unify by name when terms translate back.
    pub fn scope(&self) -> Option<&str> {
        self.scope.as_deref()
    }

    /// The input variable term for a field (created on first use).
    pub fn input_var(
        &mut self,
        pool: &mut TermPool,
        fields: &FieldTable,
        f: FieldId,
    ) -> TermId {
        if let Some(&t) = self.input_vars.get(&f) {
            return t;
        }
        let name = match &self.scope {
            None => fields.name(f).to_string(),
            Some(s) => format!("{}@{s}", fields.name(f)),
        };
        let t = pool.var(&name, fields.width(f));
        if let meissa_smt::TermNode::BvVar(v) = *pool.node(t) {
            self.var_to_field.insert(v, f);
        }
        self.input_vars.insert(f, t);
        t
    }

    /// The field behind a solver variable, if it is one of ours.
    pub fn field_of_var(&self, v: VarId) -> Option<FieldId> {
        self.var_to_field.get(&v).copied()
    }

    /// The current symbolic value of a field: `V[f]`, defaulting to the
    /// input variable.
    pub fn read(
        &mut self,
        pool: &mut TermPool,
        fields: &FieldTable,
        v: &ValueStack,
        f: FieldId,
    ) -> TermId {
        match v.get(f) {
            Some(t) => t,
            None => self.input_var(pool, fields, f),
        }
    }

    /// Recorded hash definitions (for template obligations).
    pub fn hash_defs(&self) -> impl Iterator<Item = &HashDef> {
        self.hash_defs.values()
    }

    /// Looks up the hash definition behind a stand-in term.
    pub fn hash_def_of(&self, t: TermId) -> Option<&HashDef> {
        self.hash_defs.get(&t)
    }

    /// Registers an externally-discovered hash definition (a parallel
    /// worker's obligation, translated into this context's pool). Keyed by
    /// the stand-in term, so re-registering the same application is a no-op.
    pub fn add_hash_def(&mut self, def: HashDef) {
        self.hash_defs.insert(def.out, def);
    }

    /// Content-keyed stand-in name: algorithm, width, and an FNV-1a digest
    /// of the keys' pool-independent canonical renderings.
    fn hash_name(
        &self,
        pool: &TermPool,
        alg: HashAlg,
        width: u16,
        keys: &[TermId],
    ) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let eat = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&mut h, format!("{alg:?}/{width}").as_bytes());
        for &k in keys {
            eat(&mut h, b"/");
            eat(&mut h, pool.canonical_key(k).as_bytes());
        }
        match &self.scope {
            None => format!("$hash_{alg:?}_{width}_{h:016x}"),
            Some(s) => format!("$hash_{alg:?}_{width}_{h:016x}@{s}"),
        }
    }

    /// Adopts every variable of `pool` that names one of our fields into
    /// the reverse `var → field` map (and the input-var table), declaring
    /// it in the pool if needed so the [`TermId`] is available.
    ///
    /// A parallel worker reads fields the main thread never touched; after
    /// its terms are imported, the main context must recognize those input
    /// variables — code summary's term re-encoding relies on
    /// [`SymCtx::field_of_var`] covering them.
    pub fn register_pool_vars(&mut self, pool: &mut TermPool, fields: &FieldTable) {
        let scope_suffix = self.scope.as_ref().map(|s| format!("@{s}"));
        let vars: Vec<_> = pool.all_vars().collect();
        for v in vars {
            let name = pool.var_name(v).to_string();
            let base = match &scope_suffix {
                None => name.as_str(),
                Some(suf) => match name.strip_suffix(suf.as_str()) {
                    Some(b) => b,
                    None => continue,
                },
            };
            let Some(f) = fields.get(base) else { continue };
            if fields.width(f) != pool.var_width(v) {
                continue;
            }
            let t = pool.var(&name, fields.width(f));
            self.var_to_field.entry(v).or_insert(f);
            self.input_vars.entry(f).or_insert(t);
        }
    }

    /// Translates an arithmetic expression under `V` — the `⟦V⟧a`
    /// substitution of Fig. 6.
    pub fn aexp(
        &mut self,
        pool: &mut TermPool,
        fields: &FieldTable,
        v: &ValueStack,
        e: &AExp,
    ) -> TermId {
        match e {
            AExp::Field(f) => self.read(pool, fields, v, *f),
            AExp::Const(c) => pool.bv_const(*c),
            AExp::Bin(op, a, b) => {
                let ta = self.aexp(pool, fields, v, a);
                let tb = self.aexp(pool, fields, v, b);
                match op {
                    AOp::Add => pool.add(ta, tb),
                    AOp::Sub => pool.sub(ta, tb),
                    AOp::And => pool.bv_and(ta, tb),
                    AOp::Or => pool.bv_or(ta, tb),
                    AOp::Xor => pool.bv_xor(ta, tb),
                }
            }
            AExp::Not(a) => {
                let ta = self.aexp(pool, fields, v, a);
                pool.bv_not(ta)
            }
            AExp::Shl(a, n) => {
                let ta = self.aexp(pool, fields, v, a);
                pool.shl(ta, *n)
            }
            AExp::Shr(a, n) => {
                let ta = self.aexp(pool, fields, v, a);
                pool.shr(ta, *n)
            }
            AExp::Hash(alg, w, args) => {
                let keys: Vec<TermId> = args
                    .iter()
                    .map(|a| self.aexp(pool, fields, v, a))
                    .collect();
                // §4: fold when every key is a known constant.
                let consts: Option<Vec<meissa_num::Bv>> =
                    keys.iter().map(|&k| pool.as_const(k)).collect();
                if let Some(cs) = consts {
                    return pool.bv_const(alg.compute(*w, &cs));
                }
                // Otherwise: unconstrained stand-in + recorded obligation
                // for post-filtering. The stand-in is named by content, so
                // the same application (same algorithm, width, keys) yields
                // the same variable on every path, in every worker pool.
                let name = self.hash_name(pool, *alg, *w, &keys);
                let out = pool.var(&name, *w);
                self.hash_defs.insert(
                    out,
                    HashDef {
                        alg: *alg,
                        width: *w,
                        keys,
                        out,
                    },
                );
                out
            }
        }
    }

    /// Decides a boolean expression under `V` without touching the pool,
    /// when it folds to a constant: `Cmp`/`And`/`Or`/`Not` over constants,
    /// fields bound to constants, and `AExp::Bin` of those (ternary and
    /// lpm `(f & m) == v` keys). The arithmetic is the pool's own constant
    /// folding, so `Some(b)` implies [`SymCtx::bexp`] would return
    /// `BoolConst(b)`. Anything else — a hash, an unbound field, a
    /// symbolic binding, a width mismatch — answers `None`. No input
    /// variable or hash stand-in is ever created, so a caller that takes
    /// `Some` and skips `bexp` skips no side effect.
    pub fn eval_const(pool: &TermPool, v: &ValueStack, e: &BExp) -> Option<bool> {
        fn aexp(pool: &TermPool, v: &ValueStack, e: &AExp) -> Option<meissa_num::Bv> {
            match e {
                AExp::Field(f) => pool.as_const(v.get(*f)?),
                AExp::Const(c) => Some(*c),
                AExp::Bin(op, a, b) => {
                    let (x, y) = (aexp(pool, v, a)?, aexp(pool, v, b)?);
                    if x.width() != y.width() {
                        return None;
                    }
                    Some(match op {
                        AOp::Add => x.add(&y),
                        AOp::Sub => x.sub(&y),
                        AOp::And => x.and(&y),
                        AOp::Or => x.or(&y),
                        AOp::Xor => x.xor(&y),
                    })
                }
                _ => None,
            }
        }
        match e {
            BExp::True => Some(true),
            BExp::False => Some(false),
            BExp::Cmp(op, a, b) => {
                let (x, y) = (aexp(pool, v, a)?, aexp(pool, v, b)?);
                if x.width() != y.width() {
                    return None;
                }
                Some(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x.ult(&y),
                    CmpOp::Gt => y.ult(&x),
                    CmpOp::Le => !y.ult(&x),
                    CmpOp::Ge => !x.ult(&y),
                })
            }
            BExp::Bin(op, a, b) => {
                let (x, y) = (Self::eval_const(pool, v, a)?, Self::eval_const(pool, v, b)?);
                Some(match op {
                    BOp::And => x && y,
                    BOp::Or => x || y,
                })
            }
            BExp::Not(a) => Some(!Self::eval_const(pool, v, a)?),
        }
    }

    /// Translates a boolean expression under `V`.
    pub fn bexp(
        &mut self,
        pool: &mut TermPool,
        fields: &FieldTable,
        v: &ValueStack,
        e: &BExp,
    ) -> TermId {
        match e {
            BExp::True => pool.bool_true(),
            BExp::False => pool.bool_false(),
            BExp::Cmp(op, a, b) => {
                let ta = self.aexp(pool, fields, v, a);
                let tb = self.aexp(pool, fields, v, b);
                match op {
                    CmpOp::Eq => pool.eq(ta, tb),
                    CmpOp::Ne => pool.ne(ta, tb),
                    CmpOp::Lt => pool.ult(ta, tb),
                    CmpOp::Gt => pool.ugt(ta, tb),
                    CmpOp::Le => pool.ule(ta, tb),
                    CmpOp::Ge => pool.uge(ta, tb),
                }
            }
            BExp::Bin(op, a, b) => {
                let ta = self.bexp(pool, fields, v, a);
                let tb = self.bexp(pool, fields, v, b);
                match op {
                    BOp::And => pool.and(ta, tb),
                    BOp::Or => pool.or(ta, tb),
                }
            }
            BExp::Not(a) => {
                let ta = self.bexp(pool, fields, v, a);
                pool.not(ta)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_num::Bv;

    fn setup() -> (TermPool, FieldTable, SymCtx, ValueStack) {
        let mut fields = FieldTable::new();
        fields.intern("hdr.ip.src", 32);
        fields.intern("hdr.ip.dst", 32);
        fields.intern("meta.port", 9);
        (
            TermPool::new(),
            fields,
            SymCtx::new(None),
            ValueStack::new(),
        )
    }

    #[test]
    fn unassigned_field_reads_input_var() {
        let (mut pool, fields, mut ctx, v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let t = ctx.read(&mut pool, &fields, &v, f);
        assert_eq!(pool.display(t), "hdr.ip.src");
        // Idempotent.
        assert_eq!(ctx.read(&mut pool, &fields, &v, f), t);
    }

    #[test]
    fn assignment_shadows_input() {
        let (mut pool, fields, mut ctx, mut v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let c = pool.bv_const(Bv::new(32, 7));
        v.set(f, c);
        assert_eq!(ctx.read(&mut pool, &fields, &v, f), c);
    }

    #[test]
    fn undo_log_restores() {
        let (mut pool, fields, mut ctx, mut v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let g = fields.get("hdr.ip.dst").unwrap();
        let c1 = pool.bv_const(Bv::new(32, 1));
        let c2 = pool.bv_const(Bv::new(32, 2));
        v.set(f, c1);
        let mark = v.mark();
        v.set(f, c2);
        v.set(g, c2);
        assert_eq!(v.get(f), Some(c2));
        assert_eq!(v.get(g), Some(c2));
        v.restore(mark);
        assert_eq!(v.get(f), Some(c1));
        assert_eq!(v.get(g), None);
        let t = ctx.read(&mut pool, &fields, &v, g);
        assert_eq!(pool.display(t), "hdr.ip.dst");
    }

    #[test]
    fn aexp_substitutes_values() {
        // Fig. 6's substitution: after src ← 5, `src + 1` is `6`.
        let (mut pool, fields, mut ctx, mut v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let five = pool.bv_const(Bv::new(32, 5));
        v.set(f, five);
        let e = AExp::bin(
            AOp::Add,
            AExp::Field(f),
            AExp::Const(Bv::new(32, 1)),
        );
        let t = ctx.aexp(&mut pool, &fields, &v, &e);
        assert_eq!(pool.as_const(t), Some(Bv::new(32, 6)));
    }

    #[test]
    fn bexp_comparisons_fold() {
        let (mut pool, fields, mut ctx, mut v) = setup();
        let f = fields.get("meta.port").unwrap();
        let c = pool.bv_const(Bv::new(9, 5));
        v.set(f, c);
        let checks = [
            (CmpOp::Eq, 5u128, true),
            (CmpOp::Ne, 5, false),
            (CmpOp::Lt, 6, true),
            (CmpOp::Gt, 4, true),
            (CmpOp::Le, 5, true),
            (CmpOp::Ge, 6, false),
        ];
        for (op, k, expect) in checks {
            let e = BExp::Cmp(op, AExp::Field(f), AExp::Const(Bv::new(9, k)));
            let t = ctx.bexp(&mut pool, &fields, &v, &e);
            assert_eq!(pool.as_bool_const(t), Some(expect), "{op:?} {k}");
        }
    }

    /// A random `width`-bit expression over `fs` (two fields per width),
    /// mixing constants, fields, arithmetic, and the shapes `eval_const`
    /// must refuse (hashes, shifts, bitwise not).
    fn gen_aexp(
        g: &mut meissa_testkit::prop::G,
        fs: &[(FieldId, u16)],
        w: u16,
        depth: u32,
    ) -> AExp {
        let pick = if depth == 0 { g.index(2) } else { g.index(6) };
        match pick {
            0 => AExp::Const(Bv::new(w, g.bits(w) & 3)),
            1 => {
                let of_width: Vec<FieldId> = fs
                    .iter()
                    .filter(|&&(_, fw)| fw == w)
                    .map(|&(f, _)| f)
                    .collect();
                AExp::Field(of_width[g.index(of_width.len())])
            }
            2 | 3 => {
                let op = [AOp::Add, AOp::Sub, AOp::And, AOp::Or, AOp::Xor][g.index(5)];
                AExp::bin(
                    op,
                    gen_aexp(g, fs, w, depth - 1),
                    gen_aexp(g, fs, w, depth - 1),
                )
            }
            4 => AExp::Not(Box::new(gen_aexp(g, fs, w, depth - 1))),
            _ => AExp::Hash(HashAlg::Crc16, w, vec![gen_aexp(g, fs, w, depth - 1)]),
        }
    }

    fn gen_bexp(g: &mut meissa_testkit::prop::G, fs: &[(FieldId, u16)], depth: u32) -> BExp {
        let pick = if depth == 0 { g.index(3) } else { g.index(6) };
        match pick {
            0 => [BExp::True, BExp::False][g.index(2)].clone(),
            1 | 2 => {
                let w = [8, 16][g.index(2)];
                let op = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Gt,
                    CmpOp::Le,
                    CmpOp::Ge,
                ][g.index(6)];
                let d = depth.min(2);
                BExp::Cmp(op, gen_aexp(g, fs, w, d), gen_aexp(g, fs, w, d))
            }
            3 | 4 => {
                let op = [BOp::And, BOp::Or][g.index(2)];
                BExp::Bin(
                    op,
                    Box::new(gen_bexp(g, fs, depth - 1)),
                    Box::new(gen_bexp(g, fs, depth - 1)),
                )
            }
            _ => BExp::Not(Box::new(gen_bexp(g, fs, depth - 1))),
        }
    }

    #[test]
    fn eval_const_agrees_with_bexp_without_touching_the_pool() {
        use meissa_testkit::{prop, prop_assert_eq};
        let decided = std::cell::Cell::new(0u32);
        prop::check(512, |g| {
            let mut fields = FieldTable::new();
            let fs: Vec<(FieldId, u16)> = (0..4u16)
                .map(|i| {
                    let w = if i % 2 == 0 { 8 } else { 16 };
                    (fields.intern(&format!("f{i}"), w), w)
                })
                .collect();
            let mut pool = TermPool::new();
            let mut ctx = SymCtx::new(None);
            let mut v = ValueStack::new();
            for &(f, w) in &fs {
                match g.index(4) {
                    0 => {} // unbound: `bexp` reads it as an input variable
                    1 => {
                        // Symbolic binding.
                        let x = pool.var(&format!("sym{}", f.0), w);
                        let one = pool.bv_const(Bv::new(w, 1));
                        let t = pool.add(x, one);
                        v.set(f, t);
                    }
                    _ => {
                        let c = pool.bv_const(Bv::new(w, g.bits(w) & 3));
                        v.set(f, c);
                    }
                }
            }
            let e = gen_bexp(g, &fs, 3);
            let before = pool.len();
            let folded = SymCtx::eval_const(&pool, &v, &e);
            prop_assert_eq!(pool.len(), before, "eval_const grew the pool");
            let t = ctx.bexp(&mut pool, &fields, &v, &e);
            if let Some(b) = folded {
                decided.set(decided.get() + 1);
                prop_assert_eq!(
                    pool.as_bool_const(t),
                    Some(b),
                    "eval_const said {b} but bexp built {} for {e:?}",
                    pool.display(t)
                );
            }
            Ok(())
        });
        // The property is vacuous unless the fast path fires often.
        assert!(decided.get() >= 100, "only {} decided cases", decided.get());
    }

    #[test]
    fn scoped_input_vars_are_distinct() {
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.src", 32);
        let mut pool = TermPool::new();
        let mut prog_ctx = SymCtx::new(None);
        let mut ppl_ctx = SymCtx::new(Some("ppl1"));
        let v = ValueStack::new();
        let t1 = prog_ctx.read(&mut pool, &fields, &v, f);
        let t2 = ppl_ctx.read(&mut pool, &fields, &v, f);
        assert_ne!(t1, t2);
        assert_eq!(pool.display(t2), "hdr.ip.src@ppl1");
    }

    #[test]
    fn var_to_field_roundtrip() {
        let (mut pool, fields, mut ctx, v) = setup();
        let f = fields.get("hdr.ip.dst").unwrap();
        let t = ctx.read(&mut pool, &fields, &v, f);
        if let meissa_smt::TermNode::BvVar(vid) = *pool.node(t) {
            assert_eq!(ctx.field_of_var(vid), Some(f));
        } else {
            panic!("expected a variable term");
        }
    }

    #[test]
    fn hash_with_constant_keys_folds() {
        let (mut pool, fields, mut ctx, mut v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let c = pool.bv_const(Bv::new(32, 0xdeadbeef));
        v.set(f, c);
        let e = AExp::Hash(HashAlg::Crc16, 16, vec![AExp::Field(f)]);
        let t = ctx.aexp(&mut pool, &fields, &v, &e);
        let expect = HashAlg::Crc16.compute(16, &[Bv::new(32, 0xdeadbeef)]);
        assert_eq!(pool.as_const(t), Some(expect));
        assert_eq!(ctx.hash_defs().count(), 0, "no obligation when folded");
    }

    #[test]
    fn hash_with_symbolic_keys_records_obligation() {
        let (mut pool, fields, mut ctx, v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let e = AExp::Hash(HashAlg::Crc32, 32, vec![AExp::Field(f)]);
        let t = ctx.aexp(&mut pool, &fields, &v, &e);
        assert!(pool.as_const(t).is_none());
        let defs: Vec<&HashDef> = ctx.hash_defs().collect();
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].out, t);
        assert_eq!(defs[0].alg, HashAlg::Crc32);
        assert!(ctx.hash_def_of(t).is_some());
    }

    #[test]
    fn hash_names_are_content_keyed_across_pools() {
        // Two pools with skewed numbering; same application must mint the
        // same stand-in name, so worker-discovered hashes line up with the
        // sequential engine's after import.
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.src", 32);
        let e = AExp::Hash(HashAlg::Crc32, 32, vec![AExp::Field(f)]);

        let mut p1 = TermPool::new();
        let mut c1 = SymCtx::new(None);
        let t1 = c1.aexp(&mut p1, &fields, &ValueStack::new(), &e);

        let mut p2 = TermPool::new();
        p2.var("skew", 4); // different ids in this pool
        let mut c2 = SymCtx::new(None);
        let t2 = c2.aexp(&mut p2, &fields, &ValueStack::new(), &e);

        assert_eq!(p1.display(t1), p2.display(t2));
        assert!(p1.display(t1).starts_with("$hash_Crc32_32_"));
    }

    #[test]
    fn same_hash_application_shares_one_standin() {
        let (mut pool, fields, mut ctx, v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let e = AExp::Hash(HashAlg::Crc16, 16, vec![AExp::Field(f)]);
        let t1 = ctx.aexp(&mut pool, &fields, &v, &e);
        let t2 = ctx.aexp(&mut pool, &fields, &v, &e);
        assert_eq!(t1, t2);
        assert_eq!(ctx.hash_defs().count(), 1);
        // A different application gets a different stand-in.
        let g = fields.get("hdr.ip.dst").unwrap();
        let e2 = AExp::Hash(HashAlg::Crc16, 16, vec![AExp::Field(g)]);
        let t3 = ctx.aexp(&mut pool, &fields, &v, &e2);
        assert_ne!(t1, t3);
        assert_eq!(ctx.hash_defs().count(), 2);
    }

    #[test]
    fn add_hash_def_registers_external_obligation() {
        let (mut pool, fields, mut ctx, _v) = setup();
        let f = fields.get("hdr.ip.src").unwrap();
        let key = ctx.input_var(&mut pool, &fields, f);
        let out = pool.var("$hash_Crc16_16_feedbeef", 16);
        ctx.add_hash_def(HashDef {
            alg: HashAlg::Crc16,
            width: 16,
            keys: vec![key],
            out,
        });
        assert!(ctx.hash_def_of(out).is_some());
        assert_eq!(ctx.hash_defs().count(), 1);
    }

    #[test]
    fn register_pool_vars_adopts_worker_inputs() {
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.src", 32);
        let g = fields.intern("meta.port", 9);
        // Worker pool read both fields; main ctx never touched them.
        let mut pool = TermPool::new();
        let mut worker_ctx = SymCtx::new(None);
        let v = ValueStack::new();
        worker_ctx.read(&mut pool, &fields, &v, f);
        worker_ctx.read(&mut pool, &fields, &v, g);
        pool.var("$hash_Crc16_16_0000000000000000", 16); // not a field

        let mut main_ctx = SymCtx::new(None);
        main_ctx.register_pool_vars(&mut pool, &fields);
        let vf = pool.find_var("hdr.ip.src").unwrap();
        let vg = pool.find_var("meta.port").unwrap();
        assert_eq!(main_ctx.field_of_var(vf), Some(f));
        assert_eq!(main_ctx.field_of_var(vg), Some(g));
        // Reading now returns the same input var the worker used.
        let t = main_ctx.read(&mut pool, &fields, &v, f);
        assert_eq!(pool.display(t), "hdr.ip.src");
    }

    #[test]
    fn register_pool_vars_respects_scope() {
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.src", 32);
        let mut pool = TermPool::new();
        let mut scoped = SymCtx::new(Some("ppl1"));
        let v = ValueStack::new();
        scoped.read(&mut pool, &fields, &v, f); // mints hdr.ip.src@ppl1
        let mut plain = SymCtx::new(None);
        plain.read(&mut pool, &fields, &v, f); // mints hdr.ip.src

        let mut adopt_scoped = SymCtx::new(Some("ppl1"));
        adopt_scoped.register_pool_vars(&mut pool, &fields);
        let scoped_var = pool.find_var("hdr.ip.src@ppl1").unwrap();
        let plain_var = pool.find_var("hdr.ip.src").unwrap();
        assert_eq!(adopt_scoped.field_of_var(scoped_var), Some(f));
        assert_eq!(adopt_scoped.field_of_var(plain_var), None);

        let mut adopt_plain = SymCtx::new(None);
        adopt_plain.register_pool_vars(&mut pool, &fields);
        assert_eq!(adopt_plain.field_of_var(plain_var), Some(f));
        assert_eq!(adopt_plain.field_of_var(scoped_var), None);
    }
}
