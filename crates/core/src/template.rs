//! Test case templates (§3.2) and their instantiation.
//!
//! A template captures one valid path: the conjunction of guard constraints
//! that steers a packet down the path, the final symbolic state, and any
//! hash obligations (§4). Instantiation asks the solver for a model of the
//! constraints, turning the template into a concrete input state; the §4
//! hash post-step then pins the model's key values, computes the real hash,
//! and re-solves so that generated packets have *correct* hash fields (or
//! rejects the packet when that is impossible). The post-step runs only
//! when a constraint or a hash key mentions a hash output: otherwise every
//! pin already holds and no re-solve can fail.
//!
//! Instantiation works on a caller's solver: [`TestTemplate::assert_on`]
//! opens a frame with the template's constraints and returns their
//! variables, and each instantiation runs in a frame of its own above it,
//! so one solver can serve many instantiations and many templates in turn.

use crate::symstate::HashDef;
use meissa_ir::{ConcreteState, FieldId, FieldTable, NodeId};
use meissa_smt::term::EvalValue;
use meissa_smt::{CheckResult, Solver, TermId, TermPool, VarId};
use std::collections::BinaryHeap;

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
    /// Opens a frame on `solver` holding this template's constraints and
    /// returns the variables they mention, which the `_on` instantiation
    /// methods take so that every instantiation reads them without walking
    /// the constraints again. Those methods solve on top of the frame; the
    /// caller pops it once it is done with the template.
    pub fn assert_on(&self, solver: &mut Solver, pool: &mut TermPool) -> Vec<VarId> {
        solver.push();
        for &c in &self.constraints {
            solver.assert_term(pool, c);
        }
        vars_of(pool, &self.constraints)
    }

    /// Instantiates the template into a concrete input state on a fresh
    /// solver.
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
        let mut solver = Solver::new();
        let vars = self.assert_on(&mut solver, pool);
        self.instantiate_on(&mut solver, pool, fields, &vars, extra)
    }

    /// [`TestTemplate::instantiate`] on a solver whose open frames hold this
    /// template's constraints and nothing that contradicts them; `vars` is
    /// what [`TestTemplate::assert_on`] returned. The `extra` constraints
    /// and the hash repair each get a frame of their own, popped before
    /// returning, so `solver` is left at the depth it was found at and can
    /// go on to the next instantiation or template.
    pub fn instantiate_on(
        &self,
        solver: &mut Solver,
        pool: &mut TermPool,
        fields: &FieldTable,
        vars: &[VarId],
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        solver.push();
        let out = self.solve_and_read(solver, pool, fields, vars, extra);
        solver.pop();
        out
    }

    /// The body of [`TestTemplate::instantiate_on`], inside its frame.
    fn solve_and_read(
        &self,
        solver: &mut Solver,
        pool: &mut TermPool,
        fields: &FieldTable,
        vars: &[VarId],
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        for &c in extra {
            solver.assert_term(pool, c);
        }
        if solver.check(pool) != CheckResult::Sat {
            return None;
        }
        // The variables this instantiation reads: the constraints', the
        // extras' and, when the hashes are repaired, the hash keys'. A
        // long-lived solver also holds values for variables of earlier
        // templates; reading only these makes every other field zero, as on
        // a fresh solver.
        let mut read = vars.to_vec();
        read.extend(vars_of(pool, extra));
        if !self.hash_outputs_constrained(pool, &read) {
            return Some(read_out(solver, pool, fields, read));
        }
        // §4 hash repair, in a frame of its own: pin every hash key to its
        // model value, compute the true hash, and require the stand-in to
        // equal it. One round suffices because pinned keys make each hash
        // concrete. Asserting does not touch the model, so every key reads
        // the first check's values.
        solver.push();
        let repaired = self.repair_hashes(solver, pool, &mut read);
        let out = repaired.map(|()| read_out(solver, pool, fields, read));
        solver.pop();
        out
    }

    /// Whether some hash stand-in occurs in `vars` (the variables asserted
    /// so far) or in a hash key. Only then can the §4 repair fail or move
    /// the model: otherwise the model already satisfies every key pin, and
    /// each stand-in, which nothing else mentions, can take its true hash.
    fn hash_outputs_constrained(&self, pool: &TermPool, vars: &[VarId]) -> bool {
        if self.hash_obligations.is_empty() {
            return false;
        }
        let outs: Vec<TermId> = self.hash_obligations.iter().map(|ob| ob.out).collect();
        let outs = vars_of(pool, &outs);
        let keys: Vec<TermId> = self
            .hash_obligations
            .iter()
            .flat_map(|ob| ob.keys.iter().copied())
            .collect();
        let keys = vars_of(pool, &keys);
        outs.iter().any(|v| vars.contains(v) || keys.contains(v))
    }

    /// Asserts the hash repair pins of the current model and checks them.
    /// `None` when a key does not evaluate or the path constrains a hash
    /// output incompatibly with its pinned keys: reject, as §4 prescribes.
    fn repair_hashes(
        &self,
        solver: &mut Solver,
        pool: &mut TermPool,
        read: &mut Vec<VarId>,
    ) -> Option<()> {
        for ob in &self.hash_obligations {
            read.extend(vars_of(pool, &ob.keys));
            read.extend(vars_of(pool, &[ob.out]));
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
        (solver.check(pool) == CheckResult::Sat).then_some(())
    }

    /// Generates up to `n` *distinct* concrete inputs for this template —
    /// "One or more input-output test cases can be generated based on the
    /// template for a path" (§2.1) — on a fresh solver. Each round adds
    /// disequalities against the previous models' non-auxiliary input
    /// fields, so successive packets differ in at least one field while
    /// still driving the same path.
    pub fn instantiate_distinct(
        &self,
        pool: &mut TermPool,
        fields: &FieldTable,
        n: usize,
    ) -> Vec<ConcreteState> {
        let mut solver = Solver::new();
        let vars = self.assert_on(&mut solver, pool);
        self.instantiate_distinct_on(&mut solver, pool, fields, &vars, n)
    }

    /// [`TestTemplate::instantiate_distinct`] on a solver prepared as for
    /// [`TestTemplate::instantiate_on`], with the same `vars`; every round
    /// runs in its own frame, and `solver` is left at the depth it was
    /// found at.
    pub fn instantiate_distinct_on(
        &self,
        solver: &mut Solver,
        pool: &mut TermPool,
        fields: &FieldTable,
        vars: &[VarId],
        n: usize,
    ) -> Vec<ConcreteState> {
        let mut out: Vec<ConcreteState> = Vec::new();
        let mut extra: Vec<TermId> = Vec::new();
        // The template's own non-auxiliary input fields, which later rounds
        // must not repeat; only needed once a second round is due.
        let mut used: Option<Vec<FieldId>> = None;
        while out.len() < n {
            let Some(state) = self.instantiate_on(solver, pool, fields, vars, &extra) else {
                break; // the remaining input space is exhausted
            };
            out.push(state);
            if out.len() == n {
                break; // no later round to exclude this packet from
            }
            let used = used.get_or_insert_with(|| {
                let mut used: Vec<FieldId> = vars
                    .iter()
                    .filter_map(|&v| fields.get(pool.var_name(v)))
                    .filter(|&f| !fields.is_auxiliary(f))
                    .collect();
                used.sort();
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

/// The input state holding the model's values of the non-auxiliary fields
/// among `vars`.
fn read_out(
    solver: &Solver,
    pool: &TermPool,
    fields: &FieldTable,
    mut vars: Vec<VarId>,
) -> ConcreteState {
    vars.sort_unstable();
    vars.dedup();
    let pairs = vars.into_iter().filter_map(|v| {
        let f = fields.get(pool.var_name(v))?;
        // Auxiliary fields are summary scratch, not packet input.
        (!fields.is_auxiliary(f)).then(|| (f, solver.value(pool, v)))
    });
    ConcreteState::from_pairs(pairs)
}

/// The variables in the terms `roots`, each once.
fn vars_of(pool: &TermPool, roots: &[TermId]) -> Vec<VarId> {
    use meissa_smt::TermNode::*;
    // A term's operands are interned before it, so they have smaller ids:
    // visiting the largest id first pops every copy of a term back to back.
    let mut heap: BinaryHeap<TermId> = roots.iter().copied().collect();
    let mut last = None;
    let mut vars = Vec::new();
    while let Some(t) = heap.pop() {
        if last.replace(t) == Some(t) {
            continue;
        }
        match *pool.node(t) {
            BvVar(v) => vars.push(v),
            BvConst(_) | BoolConst(_) => {}
            BvBin(_, a, b) | BvConcat(a, b) | Cmp(_, a, b) | BoolAnd(a, b) | BoolOr(a, b) => {
                heap.extend([a, b])
            }
            BvNot(a) | BvShl(a, _) | BvShr(a, _) | BvExtract(a, _, _) | BoolNot(a) => heap.push(a),
            BvIte(c, a, b) => heap.extend([c, a, b]),
        }
    }
    vars
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
