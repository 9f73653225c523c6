//! Property tests for the SMT solver: on randomly generated bitvector
//! formulas, (i) every `Sat` answer's model actually satisfies the formula
//! under concrete evaluation, (ii) for tiny variable domains the
//! solver's verdict agrees with brute-force enumeration, and (iii) single
//! value reads answer exactly like whole models, and a long-lived solver
//! answers exactly like fresh ones.

use meissa_num::Bv;
use meissa_smt::term::EvalValue;
use meissa_smt::{CheckResult, Solver, TermId, TermPool, VarId};
use meissa_testkit::prop::{self, G};
use meissa_testkit::{prop_assert, prop_assert_eq};

/// A recipe for one random term over two 4-bit variables.
#[derive(Debug, Clone)]
enum Node {
    VarX,
    VarY,
    Const(u8),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Xor(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

#[derive(Debug, Clone)]
enum Formula {
    Eq(Node, Node),
    Ult(Node, Node),
    FAnd(Box<Formula>, Box<Formula>),
    FOr(Box<Formula>, Box<Formula>),
    FNot(Box<Formula>),
}

/// A random term over two 4-bit variables; `depth` bounds recursion, and
/// leaves come first in the choice order so shrinking collapses subtrees.
fn arb_node(g: &mut G, depth: u32) -> Node {
    let choices = if depth == 0 { 3 } else { 9 };
    match g.index(choices) {
        0 => Node::VarX,
        1 => Node::VarY,
        2 => Node::Const(g.range(0..16u8)),
        3 => Node::Add(
            Box::new(arb_node(g, depth - 1)),
            Box::new(arb_node(g, depth - 1)),
        ),
        4 => Node::Sub(
            Box::new(arb_node(g, depth - 1)),
            Box::new(arb_node(g, depth - 1)),
        ),
        5 => Node::And(
            Box::new(arb_node(g, depth - 1)),
            Box::new(arb_node(g, depth - 1)),
        ),
        6 => Node::Or(
            Box::new(arb_node(g, depth - 1)),
            Box::new(arb_node(g, depth - 1)),
        ),
        7 => Node::Xor(
            Box::new(arb_node(g, depth - 1)),
            Box::new(arb_node(g, depth - 1)),
        ),
        _ => Node::Not(Box::new(arb_node(g, depth - 1))),
    }
}

fn arb_formula(g: &mut G, depth: u32) -> Formula {
    let choices = if depth == 0 { 2 } else { 5 };
    match g.index(choices) {
        0 => Formula::Eq(arb_node(g, 3), arb_node(g, 3)),
        1 => Formula::Ult(arb_node(g, 3), arb_node(g, 3)),
        2 => Formula::FAnd(
            Box::new(arb_formula(g, depth - 1)),
            Box::new(arb_formula(g, depth - 1)),
        ),
        3 => Formula::FOr(
            Box::new(arb_formula(g, depth - 1)),
            Box::new(arb_formula(g, depth - 1)),
        ),
        _ => Formula::FNot(Box::new(arb_formula(g, depth - 1))),
    }
}

fn build_node(pool: &mut TermPool, n: &Node) -> TermId {
    match n {
        Node::VarX => pool.var("x", 4),
        Node::VarY => pool.var("y", 4),
        Node::Const(c) => pool.bv_const(Bv::new(4, *c as u128)),
        Node::Add(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.add(a, b)
        }
        Node::Sub(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.sub(a, b)
        }
        Node::And(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.bv_and(a, b)
        }
        Node::Or(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.bv_or(a, b)
        }
        Node::Xor(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.bv_xor(a, b)
        }
        Node::Not(a) => {
            let a = build_node(pool, a);
            pool.bv_not(a)
        }
    }
}

fn build_formula(pool: &mut TermPool, f: &Formula) -> TermId {
    match f {
        Formula::Eq(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.eq(a, b)
        }
        Formula::Ult(a, b) => {
            let (a, b) = (build_node(pool, a), build_node(pool, b));
            pool.ult(a, b)
        }
        Formula::FAnd(a, b) => {
            let (a, b) = (build_formula(pool, a), build_formula(pool, b));
            pool.and(a, b)
        }
        Formula::FOr(a, b) => {
            let (a, b) = (build_formula(pool, a), build_formula(pool, b));
            pool.or(a, b)
        }
        Formula::FNot(a) => {
            let a = build_formula(pool, a);
            pool.not(a)
        }
    }
}

fn eval_under(pool: &TermPool, t: TermId, x: u128, y: u128) -> bool {
    let env = |v: VarId| match pool.var_name(v) {
        "x" => Some(Bv::new(4, x)),
        "y" => Some(Bv::new(4, y)),
        _ => None,
    };
    match pool.eval(t, &env) {
        Some(EvalValue::Bool(b)) => b,
        other => panic!("expected boolean evaluation, got {other:?}"),
    }
}

/// On Sat, the extracted model satisfies the formula; on Unsat, no
/// (x, y) ∈ 16×16 satisfies it.
#[test]
fn solver_agrees_with_brute_force() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let f = arb_formula(g, 2);
        let mut pool = TermPool::new();
        // Force both variables to exist so models always carry them.
        pool.var("x", 4);
        pool.var("y", 4);
        let t = build_formula(&mut pool, &f);

        let mut solver = Solver::new();
        solver.push();
        solver.assert_term(&mut pool, t);
        let verdict = solver.check(&mut pool);

        let brute = (0u128..16)
            .flat_map(|x| (0u128..16).map(move |y| (x, y)))
            .find(|&(x, y)| eval_under(&pool, t, x, y));

        match verdict {
            CheckResult::Sat => {
                let m = solver.model(&pool);
                let x = m.value_of("x").unwrap().val();
                let y = m.value_of("y").unwrap().val();
                prop_assert!(
                    eval_under(&pool, t, x, y),
                    "model (x={x}, y={y}) must satisfy the formula"
                );
                prop_assert!(brute.is_some(), "brute force agrees Sat");
            }
            CheckResult::Unsat => {
                prop_assert!(brute.is_none(), "brute force agrees Unsat");
            }
        }
        Ok(())
    });
}

/// Batched assumption probing is observationally identical to individual
/// probing: for a prefix formula and a set of sibling arms,
/// `check_under(arms)` returns exactly the verdicts that a fresh solver
/// produces by probing each arm with its own `push/assert/check/pop`
/// cycle — and the batch leaves the assertion stack's own verdict intact.
/// Inputs are random small formulas plus one deterministic wide batch:
/// 600 `z == c_i` arms over a 16-bit field under `z < 0x4000`, the shape of
/// a wide exact-match table probed at one branch point.
#[test]
fn check_under_matches_individual_probes() {
    let mut pool = TermPool::new();
    let z = pool.var("z", 16);
    let bound = pool.bv_const(Bv::new(16, 0x4000));
    let prefix = pool.ult(z, bound);
    let arms: Vec<TermId> = (0..600u128)
        .map(|i| {
            let c = pool.bv_const(Bv::new(16, (i * 109) & 0xffff));
            pool.eq(z, c)
        })
        .collect();
    let verdicts = batch_matches_individual(&mut pool, prefix, &arms).unwrap();
    assert!(verdicts.contains(&CheckResult::Sat) && verdicts.contains(&CheckResult::Unsat));

    prop::check(prop::DEFAULT_CASES, |g| {
        let prefix = arb_formula(g, 2);
        let n_arms = g.range(1..5usize);
        let arms: Vec<Formula> = (0..n_arms).map(|_| arb_formula(g, 2)).collect();

        let mut pool = TermPool::new();
        pool.var("x", 4);
        pool.var("y", 4);
        let t_prefix = build_formula(&mut pool, &prefix);
        let t_arms: Vec<TermId> = arms.iter().map(|a| build_formula(&mut pool, a)).collect();
        batch_matches_individual(&mut pool, t_prefix, &t_arms).map(|_| ())
    });
}

/// Probes `arms` under `prefix` both ways and checks that verdicts and
/// `checks` counters agree; returns the verdicts.
fn batch_matches_individual(
    pool: &mut TermPool,
    prefix: TermId,
    arms: &[TermId],
) -> Result<Vec<CheckResult>, String> {
    // Batched: one solver, one check_under over all sibling arms.
    let mut batched = Solver::new();
    batched.push();
    batched.assert_term(pool, prefix);
    let before = batched.check(pool);
    let got = batched.check_under(pool, arms);
    let after = batched.check(pool);
    prop_assert_eq!(before, after, "check_under must not disturb the stack");

    // Individual: a fresh solver probing each arm in its own frame.
    let mut single = Solver::new();
    single.push();
    single.assert_term(pool, prefix);
    let mut want = Vec::with_capacity(arms.len());
    for &arm in arms {
        single.push();
        single.assert_term(pool, arm);
        want.push(single.check(pool));
        single.pop();
    }

    prop_assert_eq!(&got, &want, "batched verdicts must match individual probes");
    // Counter parity: each batched arm costs exactly one `checks`, like
    // an individual probe (Fig. 11b comparability).
    prop_assert_eq!(
        batched.stats.checks,
        single.stats.checks + 2,
        "one check per arm plus the two stack checks"
    );
    Ok(got)
}

/// Push/pop leaves earlier frames intact: asserting a random formula in
/// a nested frame and popping restores the outer verdict.
#[test]
fn push_pop_isolation() {
    prop::check(prop::DEFAULT_CASES, |gen| {
        let f = arb_formula(gen, 2);
        let g = arb_formula(gen, 2);
        let mut pool = TermPool::new();
        pool.var("x", 4);
        pool.var("y", 4);
        let tf = build_formula(&mut pool, &f);
        let tg = build_formula(&mut pool, &g);

        let mut solver = Solver::new();
        solver.push();
        solver.assert_term(&mut pool, tf);
        let before = solver.check(&mut pool);
        solver.push();
        solver.assert_term(&mut pool, tg);
        let _ = solver.check(&mut pool);
        solver.pop();
        let after = solver.check(&mut pool);
        prop_assert_eq!(before, after, "outer frame verdict must be stable");
        Ok(())
    });
}

/// One solver interaction in a random session.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push,
    Pop,
    Assert(TermId),
    Check,
    CheckUnder(TermId, TermId),
}

/// A random interaction sequence of `len` steps over the boolean formulas
/// `terms`, starting at frame depth `depth`, and the depth it ends at.
/// Asserts only into an open frame and never pops the outermost one.
fn arb_ops(g: &mut G, terms: &[TermId], mut depth: usize, len: usize) -> (Vec<Op>, usize) {
    let mut ops = Vec::with_capacity(len);
    let term = |g: &mut G| terms[g.index(terms.len())];
    for _ in 0..len {
        let op = match g.index(5) {
            0 => Op::Push,
            1 if depth > 1 => Op::Pop,
            2 if depth > 0 => Op::Assert(term(g)),
            3 => Op::CheckUnder(term(g), term(g)),
            _ => Op::Check,
        };
        match op {
            Op::Push => depth += 1,
            Op::Pop => depth -= 1,
            _ => {}
        }
        ops.push(op);
    }
    (ops, depth)
}

/// What one interaction answered, plus every pool variable's value
/// afterwards (read one at a time with `Solver::value`).
type Outcome = (Vec<CheckResult>, Vec<Bv>);

/// Applies `ops`, checking after each one that `value` agrees with `model`
/// for every pool variable, and returns the outcome of each step.
fn apply(solver: &mut Solver, pool: &mut TermPool, ops: &[Op]) -> Result<Vec<Outcome>, String> {
    let mut out = Vec::with_capacity(ops.len());
    for &op in ops {
        let verdicts = match op {
            Op::Push => {
                solver.push();
                Vec::new()
            }
            Op::Pop => {
                solver.pop();
                Vec::new()
            }
            Op::Assert(t) => {
                solver.assert_term(pool, t);
                Vec::new()
            }
            Op::Check => vec![solver.check(pool)],
            Op::CheckUnder(a, b) => solver.check_under(pool, &[a, b]),
        };
        let model = solver.model(pool);
        let mut values = Vec::new();
        for v in pool.all_vars() {
            let value = solver.value(pool, v);
            prop_assert_eq!(
                Some(value),
                model.value_of(pool.var_name(v)),
                "value() must agree with model() after {:?}",
                op
            );
            values.push(value);
        }
        out.push((verdicts, values));
    }
    Ok(out)
}

/// A pool with the two formula variables plus `w`, a variable no formula
/// mentions (never blasted, so it must read as zero), and `n` random
/// formulas over it.
fn arb_pool(g: &mut G, n: usize) -> (TermPool, Vec<TermId>) {
    let mut pool = TermPool::new();
    pool.var("x", 4);
    pool.var("y", 4);
    pool.var("w", 12);
    let terms = (0..n)
        .map(|_| {
            let f = arb_formula(g, 2);
            build_formula(&mut pool, &f)
        })
        .collect();
    (pool, terms)
}

/// After any interleaving of assertions, checks and batched probes,
/// `Solver::value` reads exactly what `Solver::model` reports for every
/// pool variable, and a never-blasted variable reads as zero.
#[test]
fn value_reads_agree_with_the_model() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let (mut pool, terms) = arb_pool(g, 4);
        let w = pool.find_var("w").unwrap();
        let mut solver = Solver::new();
        solver.push();
        let (ops, _) = arb_ops(g, &terms, 1, 12);
        apply(&mut solver, &mut pool, &ops)?;
        prop_assert_eq!(
            solver.value(&pool, w),
            Bv::zero(12),
            "unblasted var reads zero"
        );
        Ok(())
    });
}

/// Verdicts of a fresh solver holding the live assertions `frames`: one
/// for the stack itself, or one per arm (each in its own frame).
fn fresh_verdicts(
    pool: &mut TermPool,
    frames: &[Vec<TermId>],
    arms: &[TermId],
) -> Vec<CheckResult> {
    let fresh = |pool: &mut TermPool, arm: Option<TermId>| {
        let mut s = Solver::new();
        s.push();
        for &t in frames.iter().flatten().chain(&arm) {
            s.assert_term(pool, t);
        }
        s.check(pool)
    };
    if arms.is_empty() {
        vec![fresh(pool, None)]
    } else {
        arms.iter().map(|&a| fresh(pool, Some(a))).collect()
    }
}

/// One long-lived solver answers a random interleaving of push, assert,
/// check, check_under and pop exactly like a fresh solver given the same
/// live assertions. Successive checks over an unchanged stack share their
/// assumption prefix, so this exercises the SAT engine's trail reuse
/// between calls, and its reset whenever a push, assert or pop adds a
/// clause in between.
#[test]
fn warm_solver_answers_like_fresh_solvers() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let (mut pool, terms) = arb_pool(g, 5);
        let (ops, _) = arb_ops(g, &terms, 1, 24);
        let mut solver = Solver::new();
        solver.push();
        let mut frames: Vec<Vec<TermId>> = vec![Vec::new()];
        for (i, &op) in ops.iter().enumerate() {
            let (got, arms) = match op {
                Op::Push => {
                    solver.push();
                    frames.push(Vec::new());
                    continue;
                }
                Op::Pop => {
                    solver.pop();
                    frames.pop();
                    continue;
                }
                Op::Assert(t) => {
                    solver.assert_term(&mut pool, t);
                    frames.last_mut().unwrap().push(t);
                    continue;
                }
                Op::Check => (vec![solver.check(&mut pool)], vec![]),
                Op::CheckUnder(a, b) => (solver.check_under(&mut pool, &[a, b]), vec![a, b]),
            };
            let want = fresh_verdicts(&mut pool, &frames, &arms);
            prop_assert_eq!(
                got,
                want,
                "step {i} ({:?}) diverges from a fresh solver",
                op
            );
        }
        Ok(())
    });
}
