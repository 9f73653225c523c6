//! Case-planning determinism: `plan_cases` must produce the same plan —
//! every case's template, `wire_id` and concrete input, every skip and its
//! reason — for every planner worker count and every packets-per-template
//! setting, and that plan must equal the one the plain sequential path
//! builds with a fresh solver per instantiation. gw-3 (8 EIPs) carries
//! multi-pipeline templates with hash obligations; gw-1 (64 EIPs) has
//! wide single-pipeline tables. Both programs declare intents, so the
//! intent instantiations are compared too.

use meissa_core::symstate::{SymCtx, ValueStack};
use meissa_core::{Meissa, RunOutput, TestTemplate};
use meissa_driver::{plan_cases, CaseSpec};
use meissa_ir::{ConcreteState, FieldId, FieldTable};
use meissa_lang::CompiledProgram;
use meissa_smt::{TermId, TermNode, TermPool};
use meissa_suite::gw::{gw, GwScale};

/// The fields whose input variables appear in `t`.
fn fields_of(pool: &TermPool, fields: &FieldTable, t: TermId, out: &mut Vec<FieldId>) {
    match *pool.node(t) {
        TermNode::BvVar(v) => out.extend(fields.get(pool.var_name(v))),
        TermNode::BvConst(_) | TermNode::BoolConst(_) => {}
        TermNode::BvBin(_, a, b)
        | TermNode::BvConcat(a, b)
        | TermNode::Cmp(_, a, b)
        | TermNode::BoolAnd(a, b)
        | TermNode::BoolOr(a, b) => {
            fields_of(pool, fields, a, out);
            fields_of(pool, fields, b, out);
        }
        TermNode::BvNot(a)
        | TermNode::BvShl(a, _)
        | TermNode::BvShr(a, _)
        | TermNode::BvExtract(a, _, _)
        | TermNode::BoolNot(a) => fields_of(pool, fields, a, out),
        TermNode::BvIte(c, a, b) => {
            fields_of(pool, fields, c, out);
            fields_of(pool, fields, a, out);
            fields_of(pool, fields, b, out);
        }
    }
}

/// Up to `n` distinct inputs for `t`, each round on a fresh solver
/// (`TestTemplate::instantiate`) that excludes every earlier round's
/// assignment of the template's non-auxiliary input fields.
fn distinct_fresh(
    t: &TestTemplate,
    pool: &mut TermPool,
    fields: &FieldTable,
    n: usize,
) -> Vec<ConcreteState> {
    let mut used = Vec::new();
    for &c in &t.constraints {
        fields_of(pool, fields, c, &mut used);
    }
    used.sort();
    used.dedup();
    used.retain(|&f| !fields.is_auxiliary(f));
    let mut out: Vec<ConcreteState> = Vec::new();
    let mut extra = Vec::new();
    while out.len() < n {
        let Some(state) = t.instantiate(pool, fields, &extra) else {
            break;
        };
        let differs: Vec<TermId> = used
            .iter()
            .map(|&f| {
                let var = pool.var(fields.name(f), fields.width(f));
                let val = pool.bv_const(state.get(fields, f));
                pool.ne(var, val)
            })
            .collect();
        out.push(state);
        if differs.is_empty() {
            break;
        }
        extra.push(pool.or_many(&differs));
    }
    out
}

/// The sequential reference plan: templates in order, fresh solvers
/// throughout, `wire_id`s assigned as cases appear.
fn reference_plan(program: &CompiledProgram, run: &RunOutput, n: usize) -> Vec<CaseSpec> {
    let mut pool = run.pool.clone();
    let fields = &run.cfg.fields;
    let mut ctx = SymCtx::new(None);
    let v0 = ValueStack::new();
    let givens: Vec<TermId> = program
        .intents
        .iter()
        .map(|i| ctx.bexp(&mut pool, fields, &v0, &i.given))
        .collect();
    let mut cases = Vec::new();
    let mut next_id = 1;
    let mut push = |cases: &mut Vec<CaseSpec>, template_id, input| {
        cases.push(CaseSpec::Case {
            template_id,
            wire_id: next_id,
            input,
        });
        next_id += 1;
    };
    for t in &run.templates {
        let inputs = distinct_fresh(t, &mut pool, fields, n);
        if inputs.is_empty() {
            cases.push(CaseSpec::Skip {
                template_id: t.id,
                reason: "template unsatisfiable at instantiation (hash filter)".into(),
            });
        }
        for input in inputs {
            push(&mut cases, t.id, input);
        }
        for &g in &givens {
            if let Some(input) = t.instantiate(&mut pool, fields, &[g]) {
                push(&mut cases, t.id, input);
            }
        }
    }
    cases
}

/// Every case rendered in full: template, `wire_id`, each input field (or
/// skip reason). Compared as strings so a mismatch names the first case.
fn render(plan: &[CaseSpec]) -> Vec<String> {
    plan.iter().map(|c| format!("{c:?}")).collect()
}

fn assert_same(name: &str, what: &str, want: &[String], got: &[String]) {
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        panic!(
            "{name}: {what} diverges at case {i} of {}/{}:\n want {:?}\n  got {:?}",
            want.len(),
            got.len(),
            want.get(i),
            got.get(i)
        );
    }
}

fn check_program(name: &str, level: u8, eips: usize) {
    let w = gw(level, GwScale { eips });
    let run = Meissa::new().run(&w.program);
    assert!(
        run.templates.iter().any(|t| !t.hash_obligations.is_empty()),
        "{name}: no template carries a hash obligation"
    );
    for packets in [1usize, 3] {
        let reference = reference_plan(&w.program, &run, packets);
        if packets == 1 {
            // One entry per template, so any surplus is intent cases.
            assert!(
                reference.len() > run.templates.len(),
                "{name}: the plan holds no intent case"
            );
        }
        let want = render(&reference);
        for threads in [1usize, 2, 4] {
            let mut forked = RunOutput {
                pool: run.pool.clone(),
                cfg: run.cfg.clone(),
                templates: run.templates.clone(),
                stats: run.stats.clone(),
                threads,
            };
            let got = render(&plan_cases(&w.program, &mut forked, packets));
            assert_same(
                name,
                &format!("plan at {threads} workers, {packets} packets/template"),
                &want,
                &got,
            );
        }
    }
}

#[test]
fn gw3_plan_is_identical_for_every_worker_count() {
    check_program("gw-3", 3, 8);
}

#[test]
fn gw1_plan_is_identical_for_every_worker_count() {
    check_program("gw-1", 1, 64);
}
