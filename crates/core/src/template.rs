//! Test case templates (§3.2) and their instantiation.
//!
//! A template captures one valid path: the conjunction of guard constraints
//! that steers a packet down the path, the final symbolic state, and any
//! hash obligations (§4). Instantiation asks the solver for a model of the
//! constraints, turning the template into a concrete input state; the §4
//! hash post-step then pins the model's key values, computes the real hash,
//! and re-solves so that generated packets have *correct* hash fields (or
//! rejects the packet when that is impossible).

use crate::symstate::HashDef;
use meissa_ir::{ConcreteState, FieldId, FieldTable, NodeId};
use meissa_smt::term::EvalValue;
use meissa_smt::{CheckResult, Solver, TermId, TermPool};

/// A deferred hash check attached to a template (§4).
#[derive(Clone, Debug)]
pub struct HashObligation {
    /// The algorithm.
    pub alg: meissa_ir::HashAlg,
    /// Output width.
    pub width: u16,
    /// Key terms over input variables.
    pub keys: Vec<TermId>,
    /// The stand-in variable for the hash output.
    pub out: TermId,
}

impl From<&HashDef> for HashObligation {
    fn from(d: &HashDef) -> Self {
        HashObligation {
            alg: d.alg,
            width: d.width,
            keys: d.keys.clone(),
            out: d.out,
        }
    }
}

/// A test case template for one valid path (§3.2).
#[derive(Clone, Debug)]
pub struct TestTemplate {
    /// Sequential template id.
    pub id: usize,
    /// The CFG nodes of the covered path, in order.
    pub path: Vec<NodeId>,
    /// Guard constraints over input variables; their conjunction is the
    /// path condition `C`.
    pub constraints: Vec<TermId>,
    /// Final symbolic state: (field, value term) pairs for assigned fields.
    pub final_values: Vec<(FieldId, TermId)>,
    /// Hash obligations to enforce at instantiation time.
    pub hash_obligations: Vec<HashObligation>,
}

impl TestTemplate {
    /// A solver holding this template's constraints in one open frame, not
    /// yet checked. Every instantiation starts from this state, so callers
    /// that instantiate one template several times build it once and hand
    /// clones to [`TestTemplate::instantiate_on`]: a clone taken before any
    /// `check` is the very state a fresh solver reaches by asserting the
    /// same constraints, so each clone finds the same model that fresh
    /// solver would, while bit-blasting the constraints only once.
    pub fn base_solver(&self, pool: &mut TermPool) -> Solver {
        let mut solver = Solver::new();
        solver.push();
        for &c in &self.constraints {
            solver.assert_term(pool, c);
        }
        solver
    }

    /// Instantiates the template into a concrete input state.
    ///
    /// Returns `None` when the constraints are unsatisfiable (which
    /// Algorithm 1 prevents for freshly-generated templates, but callers may
    /// add intent `given` clauses that rule a path out) or when the hash
    /// post-filter rejects every candidate (§4).
    pub fn instantiate(
        &self,
        pool: &mut TermPool,
        fields: &FieldTable,
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        let base = self.base_solver(pool);
        self.instantiate_on(base, pool, fields, extra)
    }

    /// [`TestTemplate::instantiate`] on a solver already holding the
    /// template's constraints: `solver` is this template's
    /// [`TestTemplate::base_solver`] over the same `pool`, or a clone of it.
    /// The `extra` constraints join the constraints' frame. From an
    /// unchecked base it returns exactly what `instantiate` would.
    pub fn instantiate_on(
        &self,
        mut solver: Solver,
        pool: &mut TermPool,
        fields: &FieldTable,
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        for &c in extra {
            solver.assert_term(pool, c);
        }
        if solver.check(pool) != CheckResult::Sat {
            return None;
        }

        if !self.hash_obligations.is_empty() {
            // §4 hash repair: pin every hash key to its model value, compute
            // the true hash, and require the stand-in to equal it. One
            // round suffices because pinned keys make each hash concrete.
            // Asserting does not touch the model, so every key reads the
            // first check's values.
            solver.push();
            for ob in &self.hash_obligations {
                let mut key_vals = Vec::with_capacity(ob.keys.len());
                for &k in &ob.keys {
                    let v = match pool.eval(k, &|var| Some(solver.value(pool, var)))? {
                        EvalValue::Bv(v) => v,
                        EvalValue::Bool(_) => return None,
                    };
                    let kc = pool.bv_const(v);
                    let pin = pool.eq(k, kc);
                    solver.assert_term(pool, pin);
                    key_vals.push(v);
                }
                let h = ob.alg.compute(ob.width, &key_vals);
                let hc = pool.bv_const(h);
                let want = pool.eq(ob.out, hc);
                solver.assert_term(pool, want);
            }
            if solver.check(pool) != CheckResult::Sat {
                // The path constrained the hash output incompatibly with the
                // pinned keys: reject, as §4 prescribes.
                return None;
            }
        }

        // Read only the input fields' values: a field with no variable in
        // the pool never reached any constraint and stays absent.
        let pairs = fields
            .iter()
            .filter(|&f| !fields.is_auxiliary(f)) // summary scratch, not packet input
            .filter_map(|f| Some((f, solver.value(pool, pool.find_var(fields.name(f))?))));
        Some(ConcreteState::from_pairs(pairs))
    }

    /// Generates up to `n` *distinct* concrete inputs for this template —
    /// "One or more input-output test cases can be generated based on the
    /// template for a path" (§2.1). Each round adds disequalities against
    /// the previous models' non-auxiliary input fields, so successive
    /// packets differ in at least one field while still driving the same
    /// path.
    pub fn instantiate_distinct(
        &self,
        pool: &mut TermPool,
        fields: &FieldTable,
        n: usize,
    ) -> Vec<ConcreteState> {
        let base = self.base_solver(pool);
        self.instantiate_distinct_on(&base, pool, fields, n)
    }

    /// [`TestTemplate::instantiate_distinct`] with every round on a clone
    /// of `base`, this template's [`TestTemplate::base_solver`] over the
    /// same `pool`.
    pub fn instantiate_distinct_on(
        &self,
        base: &Solver,
        pool: &mut TermPool,
        fields: &FieldTable,
        n: usize,
    ) -> Vec<ConcreteState> {
        let mut out: Vec<ConcreteState> = Vec::new();
        let mut extra: Vec<TermId> = Vec::new();
        // The template's own non-auxiliary input fields, which later rounds
        // must not repeat; only needed once a second round is due.
        let mut used: Option<Vec<FieldId>> = None;
        while out.len() < n {
            let Some(state) = self.instantiate_on(base.clone(), pool, fields, &extra) else {
                break; // the remaining input space is exhausted
            };
            out.push(state);
            if out.len() == n {
                break; // no later round to exclude this packet from
            }
            let used = used.get_or_insert_with(|| {
                let mut used = Vec::new();
                for &c in &self.constraints {
                    collect_fields_of(pool, fields, c, &mut used);
                }
                used.sort();
                used.dedup();
                used.retain(|&f| !fields.is_auxiliary(f));
                used
            });
            if used.is_empty() {
                break; // fully-constrained path: only one packet exists
            }
            // Exclude this exact assignment from later rounds.
            let state = out.last().expect("pushed above");
            let differs: Vec<TermId> = used
                .iter()
                .map(|&f| {
                    let var = pool.var(fields.name(f), fields.width(f));
                    let val = pool.bv_const(state.get(fields, f));
                    pool.ne(var, val)
                })
                .collect();
            let any_diff = pool.or_many(&differs);
            extra.push(any_diff);
        }
        out
    }
}

/// Collects the fields whose input variables appear in a term.
fn collect_fields_of(pool: &TermPool, fields: &FieldTable, t: TermId, out: &mut Vec<FieldId>) {
    use meissa_smt::TermNode::*;
    match *pool.node(t) {
        BvVar(_) => {
            if let Some(f) = fields.get(pool.var_name(match *pool.node(t) {
                BvVar(v) => v,
                _ => unreachable!(),
            })) {
                out.push(f);
            }
        }
        BvConst(_) | BoolConst(_) => {}
        BvBin(_, a, b) | BvConcat(a, b) | Cmp(_, a, b) | BoolAnd(a, b) | BoolOr(a, b) => {
            collect_fields_of(pool, fields, a, out);
            collect_fields_of(pool, fields, b, out);
        }
        BvNot(a) | BvShl(a, _) | BvShr(a, _) | BvExtract(a, _, _) | BoolNot(a) => {
            collect_fields_of(pool, fields, a, out)
        }
        BvIte(c, a, b) => {
            collect_fields_of(pool, fields, c, out);
            collect_fields_of(pool, fields, a, out);
            collect_fields_of(pool, fields, b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_ir::HashAlg;
    use meissa_num::Bv;

    #[test]
    fn instantiate_simple_constraint() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let k = pool.bv_const(Bv::new(32, 0x0a000001));
        let c = pool.eq(x, k);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        assert_eq!(state.get(&fields, f), Bv::new(32, 0x0a000001));
    }

    #[test]
    fn unsat_template_returns_none() {
        let mut pool = TermPool::new();
        let fields = FieldTable::new();
        let x = pool.var("x", 8);
        let k1 = pool.bv_const(Bv::new(8, 1));
        let k2 = pool.bv_const(Bv::new(8, 2));
        let c1 = pool.eq(x, k1);
        let c2 = pool.eq(x, k2);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c1, c2],
            final_values: vec![],
            hash_obligations: vec![],
        };
        assert!(t.instantiate(&mut pool, &fields, &[]).is_none());
    }

    #[test]
    fn extra_constraints_narrow_the_model() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("meta.port", 9);
        let x = pool.var("meta.port", 9);
        let lo = pool.bv_const(Bv::new(9, 100));
        let c = pool.ugt(x, lo);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let hi = pool.bv_const(Bv::new(9, 102));
        let extra = pool.ult(x, hi);
        let state = t.instantiate(&mut pool, &fields, &[extra]).expect("sat");
        assert_eq!(state.get(&fields, f), Bv::new(9, 101));
    }

    #[test]
    fn hash_obligation_fixes_output() {
        // dst is free; $hash0 must equal crc16(dst) in the final packet.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let fdst = fields.intern("hdr.ip.dst", 32);
        let fh = fields.intern("meta.h", 16);
        let _ = fh;
        let dst = pool.var("hdr.ip.dst", 32);
        let hout = pool.var("meta.h", 16);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![],
            final_values: vec![],
            hash_obligations: vec![HashObligation {
                alg: HashAlg::Crc16,
                width: 16,
                keys: vec![dst],
                out: hout,
            }],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        let dst_v = state.get(&fields, fdst);
        let h_v = state.get(&fields, fh);
        assert_eq!(h_v, HashAlg::Crc16.compute(16, &[dst_v]));
    }

    #[test]
    fn contradictory_hash_constraint_rejected() {
        // Path demands $hash == 0xffff while keys are pinned to a value
        // whose hash differs: the §4 filter must reject.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("hdr.ip.dst", 32);
        fields.intern("meta.h", 16);
        let dst = pool.var("hdr.ip.dst", 32);
        let hout = pool.var("meta.h", 16);
        let key = pool.bv_const(Bv::new(32, 42));
        let pin_key = pool.eq(dst, key);
        let real = HashAlg::Crc16.compute(16, &[Bv::new(32, 42)]);
        let wrong = pool.bv_const(Bv::new(16, real.val() ^ 1));
        let pin_out = pool.eq(hout, wrong);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![pin_key, pin_out],
            final_values: vec![],
            hash_obligations: vec![HashObligation {
                alg: HashAlg::Crc16,
                width: 16,
                keys: vec![dst],
                out: hout,
            }],
        };
        assert!(t.instantiate(&mut pool, &fields, &[]).is_none());
    }

    #[test]
    fn instantiate_distinct_produces_different_packets_on_one_path() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let mask = pool.bv_const(Bv::new(32, 0xff00_0000));
        let masked = pool.bv_and(x, mask);
        let net = pool.bv_const(Bv::new(32, 0x0a00_0000));
        let c = pool.eq(masked, net); // dst ∈ 10/8: many packets, one path
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let states = t.instantiate_distinct(&mut pool, &fields, 5);
        assert_eq!(states.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for s in &states {
            let v = s.get(&fields, f);
            assert_eq!(v.val() >> 24, 0x0a, "all in 10/8");
            assert!(seen.insert(v), "distinct packets");
        }
    }

    #[test]
    fn instantiate_distinct_stops_when_space_is_exhausted() {
        // A 1-bit field constrained nontrivially admits ≤2 packets.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("meta.flag", 1);
        let x = pool.var("meta.flag", 1);
        let one = pool.bv_const(Bv::new(1, 1));
        let c = pool.eq(x, one);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let states = t.instantiate_distinct(&mut pool, &fields, 10);
        assert_eq!(states.len(), 1, "only flag=1 satisfies the path");
    }

    #[test]
    fn auxiliary_fields_are_excluded_from_inputs() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let aux = fields.intern("@ppl1.hdr.ip.dst", 32);
        let real = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let a = pool.var("@ppl1.hdr.ip.dst", 32);
        let k = pool.bv_const(Bv::new(32, 9));
        let c1 = pool.eq(x, k);
        let c2 = pool.eq(a, k);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c1, c2],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        assert_eq!(state.get(&fields, real), Bv::new(32, 9));
        // Aux fields read as zero because they were never added as input.
        assert_eq!(state.get(&fields, aux), Bv::zero(32));
    }
}
