//! The walker's solver-free arm verdicts against the path solver.
//!
//! `Walker::decide_arms` decides some arms without a solver call, from
//! what `PathVars` knows of the live path constraints:
//!
//! * **pinned**: a live `x == k` pins `x` to `k`. A guard `field == c` on a
//!   field that reads a variable pinned to another constant
//!   (`PathVars::refutes`), or a translated guard with a conjunct false
//!   under the pins (`PathVars::decide`), is refuted; a guard whose
//!   conjuncts are all true under the pins is accepted while the path is
//!   known satisfiable.
//! * **independent**: while the path is known satisfiable, a translated
//!   guard `x == c` with no live constraint mentioning `x` is accepted
//!   (`PathVars::is_free_eq`).
//!
//! The property walks random paths through random rule sets (`randrules`
//! over the gw-1..4 sources and the open-source corpus). Each path starts
//! from a random prefix of satisfiable constraints on random fields, some
//! of them pins to constants the program's guards compare with, and at
//! every step each solver-free verdict on an arm must agree with
//! `check_under` on a solver holding exactly the path's constraints:
//! every refuted arm Unsat, every accepted arm Sat. The walk then takes a
//! random arm that solver found feasible, pinning what its guard pins.

use meissa_core::exec::{flatten_conjuncts, PathVars};
use meissa_core::symstate::{SymCtx, ValueStack};
use meissa_ir::{AExp, BExp, BOp, Cfg, CmpOp, FieldId, NodeId, Stmt};
use meissa_lang::{compile, parse_program};
use meissa_num::Bv;
use meissa_smt::{CheckResult, Solver, TermId, TermPool};
use meissa_suite::gw::gw_source;
use meissa_suite::randrules::generate_rules;
use meissa_suite::{acl, mtag, router, switch_lite};
use meissa_testkit::prop::{self, G};
use std::cell::Cell;

/// Random rule sets over every gw source and the open-source programs.
fn corpus(g: &mut G) -> Vec<(String, Cfg)> {
    let per_table = [2usize, 6, 12][g.index(3)];
    let mut out = Vec::new();
    for level in 1..=4u8 {
        let ast = parse_program(&gw_source(level)).unwrap();
        let seed = g.u64();
        let rules = generate_rules(&ast, per_table, seed);
        let cfg = compile(&ast, &rules).unwrap().cfg;
        out.push((format!("gw-{level} ({per_table}/table, seed {seed})"), cfg));
    }
    for make in [router, mtag, acl, switch_lite] {
        let seed = g.u64();
        let w = make(per_table, seed);
        let name = format!("{} ({per_table}/table, seed {seed})", w.name);
        out.push((name, w.program.cfg));
    }
    out
}

/// Every `field == constant` comparison in `cfg`'s guards, top-level or
/// under a conjunction: the constants a random prefix pins fields to, so
/// that later guards on those fields are decided by the pins.
fn guard_constants(cfg: &Cfg) -> Vec<(FieldId, Bv)> {
    fn collect(b: &BExp, out: &mut Vec<(FieldId, Bv)>) {
        match b {
            BExp::Cmp(CmpOp::Eq, AExp::Field(f), AExp::Const(k))
            | BExp::Cmp(CmpOp::Eq, AExp::Const(k), AExp::Field(f)) => out.push((*f, *k)),
            BExp::Bin(BOp::And, l, r) => {
                collect(l, out);
                collect(r, out);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for n in 0..cfg.num_nodes() {
        if let Stmt::Assume(b) = cfg.stmt(NodeId(n as u32)) {
            collect(b, &mut out);
        }
    }
    out
}

/// One path's solver, translation state and variable counts, kept in step:
/// every constraint asserted into `solver` is pushed onto `vars`, one
/// conjunct at a time as the walker pushes it.
struct Path {
    pool: TermPool,
    solver: Solver,
    ctx: SymCtx,
    v: ValueStack,
    vars: PathVars,
}

impl Path {
    fn new() -> Self {
        let mut solver = Solver::new();
        solver.push();
        Path {
            pool: TermPool::new(),
            solver,
            ctx: SymCtx::new(None),
            v: ValueStack::new(),
            vars: PathVars::new(),
        }
    }

    fn sat(&mut self, t: TermId) -> bool {
        self.solver.check_under(&mut self.pool, &[t])[0] == CheckResult::Sat
    }

    fn assert(&mut self, t: TermId) {
        self.solver.assert_term(&mut self.pool, t);
        let mut conjuncts = Vec::new();
        flatten_conjuncts(&self.pool, t, &mut conjuncts);
        for c in conjuncts {
            self.vars.push(&self.pool, c);
        }
    }

    /// A random comparison of field `f`'s current value with a constant.
    fn random_constraint(&mut self, g: &mut G, cfg: &Cfg, f: FieldId) -> TermId {
        let w = cfg.fields.width(f);
        let c = Bv::new(w, g.bits(w));
        self.compare(cfg, f, c, g.index(3))
    }

    /// Field `f`'s current value against constant `k`: `==`, `!=` or `<`
    /// for `op` 0, 1 or 2.
    fn compare(&mut self, cfg: &Cfg, f: FieldId, k: Bv, op: usize) -> TermId {
        let x = self
            .ctx
            .aexp(&mut self.pool, &cfg.fields, &self.v, &AExp::Field(f));
        let c = self.pool.bv_const(k);
        match op {
            0 => self.pool.eq(x, c),
            1 => self.pool.ne(x, c),
            _ => self.pool.ult(x, c),
        }
    }
}

/// Solver-free verdicts a walk compared with the solver.
#[derive(Default, Clone, Copy)]
struct Compared {
    independent: u64,
    refuted: u64,
    accepted: u64,
}

/// Walks one random path of `cfg`, comparing every solver-free verdict
/// with the solver.
fn walk(g: &mut G, name: &str, cfg: &Cfg, pins: &[(FieldId, Bv)]) -> Result<Compared, String> {
    let mut p = Path::new();
    let fields: Vec<FieldId> = cfg.fields.iter().collect();
    for _ in 0..g.index(6) {
        let t = if !pins.is_empty() && g.bool() {
            let (f, k) = pins[g.index(pins.len())];
            p.compare(cfg, f, k, 0)
        } else {
            let f = fields[g.index(fields.len())];
            p.random_constraint(g, cfg, f)
        };
        if p.pool.as_bool_const(t).is_none() && p.sat(t) {
            p.assert(t);
        }
    }
    let mut compared = Compared::default();
    let fail = |node: u32, i: usize, what: &str, shown: String| {
        Err(format!("{name}: node {node} arm {i}: {what}\n  guard {shown}"))
    };
    let mut node = cfg.entry();
    loop {
        if let Stmt::Assign(f, e) = cfg.stmt(node) {
            let t = p.ctx.aexp(&mut p.pool, &cfg.fields, &p.v, e);
            p.v.set(*f, t);
        }
        let succ = cfg.succ(node);
        if succ.is_empty() {
            return Ok(compared);
        }
        // Every feasible child, with its guard when it adds a constraint.
        let mut feasible: Vec<(usize, Option<TermId>)> = Vec::new();
        for (i, &s) in succ.iter().enumerate() {
            let Stmt::Assume(b) = cfg.stmt(s) else {
                feasible.push((i, None));
                continue;
            };
            // The walker asks before translating the guard.
            let refuted = p.vars.refutes(&mut p.pool, &mut p.ctx, &cfg.fields, &p.v, b);
            let t = p.ctx.bexp(&mut p.pool, &cfg.fields, &p.v, b);
            match p.pool.as_bool_const(t) {
                Some(true) if refuted => {
                    return fail(node.0, i, "pin refutes a true guard", format!("{b:?}"));
                }
                Some(true) => feasible.push((i, None)),
                Some(false) => {}
                None => {
                    let mut conjuncts = Vec::new();
                    flatten_conjuncts(&p.pool, t, &mut conjuncts);
                    let pinned = p.vars.decide(&p.pool, &conjuncts);
                    let free = p.vars.is_free_eq(&p.pool, t);
                    let sat = p.sat(t);
                    let shown = || p.pool.display(t);
                    if refuted || pinned == Some(false) {
                        compared.refuted += 1;
                        if sat {
                            return fail(node.0, i, "pin refutes, solver says Sat", shown());
                        }
                    }
                    // Every prefix constraint and every arm taken was
                    // checked Sat, so the path is known satisfiable.
                    if pinned == Some(true) {
                        compared.accepted += 1;
                        if !sat {
                            return fail(node.0, i, "pins accept, solver says Unsat", shown());
                        }
                    }
                    if free {
                        compared.independent += 1;
                        if !sat {
                            let what = "shortcut says Sat, solver says Unsat";
                            return fail(node.0, i, what, shown());
                        }
                    }
                    if sat {
                        feasible.push((i, Some(t)));
                    }
                }
            }
        }
        let Some(&(i, guard)) = feasible.get(g.index(feasible.len().max(1))) else {
            return Ok(compared);
        };
        if let Some(t) = guard {
            p.assert(t);
        }
        node = succ[i];
    }
}

#[test]
fn free_eq_verdicts_match_check_under() {
    let compared = Cell::new(Compared::default());
    prop::check(4, |g| {
        for (name, cfg) in corpus(g) {
            let pins = guard_constants(&cfg);
            for _ in 0..12 {
                let n = walk(g, &name, &cfg, &pins)?;
                let mut sum = compared.get();
                sum.independent += n.independent;
                sum.refuted += n.refuted;
                sum.accepted += n.accepted;
                compared.set(sum);
            }
        }
        Ok(())
    });
    // The property is vacuous unless each verdict fires often.
    let c = compared.get();
    eprintln!(
        "solver-free verdicts: {} independent, {} refuted, {} accepted",
        c.independent, c.refuted, c.accepted
    );
    assert!(
        c.independent >= 500,
        "only {} arms had an independence verdict",
        c.independent
    );
    assert!(c.refuted >= 150, "only {} arms were refuted by a pin", c.refuted);
    assert!(c.accepted >= 40, "only {} arms were accepted by the pins", c.accepted);
}
