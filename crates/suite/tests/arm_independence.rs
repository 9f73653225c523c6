//! The walker's independence shortcut against the path solver.
//!
//! While the constraints on its path are known satisfiable,
//! `Walker::decide_arms` decides an arm Sat without a solver call when its
//! translated guard is `x == c` and no live constraint mentions `x`
//! (`PathVars::is_free_eq`). The property walks random paths through
//! random rule sets (`randrules` over the gw-1..4 sources and the
//! open-source corpus). Each path starts from a random prefix of
//! satisfiable constraints on random fields, and at every step the
//! shortcut's verdict on each arm must equal `check_under` on a solver
//! holding exactly the path's constraints. The walk then takes a random
//! arm that solver found feasible.

use meissa_core::exec::PathVars;
use meissa_core::symstate::{SymCtx, ValueStack};
use meissa_ir::{AExp, Cfg, FieldId, Stmt};
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

/// One path's solver, translation state and variable counts, kept in step:
/// every constraint asserted into `solver` is pushed onto `vars`.
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
        self.vars.push(&self.pool, t);
    }

    /// A random comparison of field `f`'s current value with a constant.
    fn random_constraint(&mut self, g: &mut G, cfg: &Cfg, f: FieldId) -> TermId {
        let x = self
            .ctx
            .aexp(&mut self.pool, &cfg.fields, &self.v, &AExp::Field(f));
        let w = cfg.fields.width(f);
        let c = self.pool.bv_const(Bv::new(w, g.bits(w)));
        match g.index(3) {
            0 => self.pool.eq(x, c),
            1 => self.pool.ne(x, c),
            _ => self.pool.ult(x, c),
        }
    }
}

/// Walks one random path of `cfg`, comparing the shortcut with the solver
/// on every arm it offers a verdict for. Returns how many it did.
fn walk(g: &mut G, name: &str, cfg: &Cfg) -> Result<u64, String> {
    let mut p = Path::new();
    let fields: Vec<FieldId> = cfg.fields.iter().collect();
    for _ in 0..g.index(4) {
        let f = fields[g.index(fields.len())];
        let t = p.random_constraint(g, cfg, f);
        if p.pool.as_bool_const(t).is_none() && p.sat(t) {
            p.assert(t);
        }
    }
    let mut compared = 0;
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
            let t = p.ctx.bexp(&mut p.pool, &cfg.fields, &p.v, b);
            match p.pool.as_bool_const(t) {
                Some(true) => feasible.push((i, None)),
                Some(false) => {}
                None => {
                    let free = p.vars.is_free_eq(&p.pool, t);
                    let sat = p.sat(t);
                    if free {
                        compared += 1;
                        if !sat {
                            return Err(format!(
                                "{name}: node {} arm {i}: shortcut says Sat, \
                                 solver says Unsat\n  guard {}",
                                node.0,
                                p.pool.display(t)
                            ));
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
    let compared = Cell::new(0u64);
    prop::check(4, |g| {
        for (name, cfg) in corpus(g) {
            for _ in 0..12 {
                let n = walk(g, &name, &cfg)?;
                compared.set(compared.get() + n);
            }
        }
        Ok(())
    });
    // The property is vacuous unless the shortcut fires often.
    let compared = compared.get();
    assert!(
        compared >= 500,
        "only {compared} arms had a shortcut verdict"
    );
}
