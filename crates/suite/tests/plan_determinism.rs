//! Case planning: `plan_cases` must produce the same plan — every case's
//! template, `wire_id` and concrete input, every skip and its reason — for
//! every planner worker count and every packets-per-template setting, and
//! every planned case must be valid. The validity oracle checks each case
//! against the template it came from, independently of any solver:
//!
//! * the input satisfies the template's constraints under `pool.eval`,
//!   with every hash stand-in set to the true hash of its evaluated keys;
//! * the input takes `ir::eval_path` down the template's path;
//! * an intent case satisfies its intent's `given`;
//! * the distinct rounds of a template differ in at least one of the
//!   fields its constraints use;
//! * the input sets no field outside its template's constraints, its
//!   intent's `given` and its hash keys, so nothing leaks in from the
//!   templates planned before it on the same solver;
//! * the plan skips exactly the templates fresh planning skips, with the
//!   same reason, and holds as many distinct and intent cases per template
//!   as fresh planning does.
//!
//! gw-3 (8 EIPs) carries multi-pipeline templates with hash obligations;
//! gw-1 (64 EIPs) has wide single-pipeline tables; gw-3 with `randrules`
//! rule sets draws its rules from the property seed (`MEISSA_PROP_SEED`).
//! Every program declares intents, so intent instantiations are checked
//! too.

use meissa_core::symstate::{SymCtx, ValueStack};
use meissa_core::{Meissa, RunOutput, TestTemplate};
use meissa_driver::{plan_cases, CaseSpec};
use meissa_ir::{ConcreteState, FieldId, FieldTable};
use meissa_lang::{compile, parse_program, CompiledProgram};
use meissa_num::Bv;
use meissa_smt::term::EvalValue;
use meissa_smt::{TermId, TermNode, TermPool, VarId};
use meissa_suite::gw::{gw, gw_source, GwScale};
use meissa_suite::randrules::generate_rules;
use meissa_testkit::prop;

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

/// The non-auxiliary fields of the terms `ts`, sorted and deduplicated.
fn used_fields(pool: &TermPool, fields: &FieldTable, ts: &[TermId]) -> Vec<FieldId> {
    let mut used = Vec::new();
    for &t in ts {
        fields_of(pool, fields, t, &mut used);
    }
    used.sort();
    used.dedup();
    used.retain(|&f| !fields.is_auxiliary(f));
    used
}

/// Does `input` satisfy every constraint of `t`? Field variables read the
/// input; each hash stand-in reads the true hash of its keys.
fn satisfies(
    t: &TestTemplate,
    pool: &TermPool,
    fields: &FieldTable,
    input: &ConcreteState,
) -> bool {
    let field_env = |v: VarId| -> Option<Bv> {
        let f = fields.get(pool.var_name(v))?;
        Some(input.get(fields, f))
    };
    let hashes: Vec<(TermId, Bv)> = t
        .hash_obligations
        .iter()
        .map(|ob| {
            let keys: Vec<Bv> = ob
                .keys
                .iter()
                .map(|&k| match pool.eval(k, &field_env) {
                    Some(EvalValue::Bv(v)) => v,
                    other => panic!("hash key {} evaluates to {other:?}", pool.display(k)),
                })
                .collect();
            (ob.out, ob.alg.compute(ob.width, &keys))
        })
        .collect();
    let env = |v: VarId| {
        let stand_in = hashes
            .iter()
            .find(|&&(out, _)| matches!(*pool.node(out), TermNode::BvVar(o) if o == v));
        stand_in.map(|&(_, h)| h).or_else(|| field_env(v))
    };
    t.constraints
        .iter()
        .all(|&c| pool.eval(c, &env) == Some(EvalValue::Bool(true)))
}

/// What fresh planning (a new solver per instantiation) makes of one
/// template: how many distinct inputs, and which intents it admits.
struct Fresh {
    distinct: usize,
    intents: Vec<usize>,
}

fn fresh_plan(
    t: &TestTemplate,
    pool: &mut TermPool,
    fields: &FieldTable,
    givens: &[TermId],
    n: usize,
) -> Fresh {
    Fresh {
        distinct: t.instantiate_distinct(pool, fields, n).len(),
        intents: (0..givens.len())
            .filter(|&i| t.instantiate(pool, fields, &[givens[i]]).is_some())
            .collect(),
    }
}

/// Checks `plan` (planned at `n` packets per template) against the
/// validity oracle. Returns the first violation.
fn check_valid(
    program: &CompiledProgram,
    run: &RunOutput,
    plan: &[CaseSpec],
    n: usize,
) -> Result<(), String> {
    let mut pool = run.pool.clone();
    let fields = &run.cfg.fields;
    let mut ctx = SymCtx::new(None);
    let v0 = ValueStack::new();
    let givens: Vec<TermId> = program
        .intents
        .iter()
        .map(|i| ctx.bexp(&mut pool, fields, &v0, &i.given))
        .collect();
    let mut rest = plan;
    for t in &run.templates {
        let here = rest.iter().take_while(|c| c.template_id() == t.id).count();
        let (entries, tail) = rest.split_at(here);
        rest = tail;
        let fresh = fresh_plan(t, &mut pool, fields, &givens, n);
        let at = |what: &str| format!("template {}: {what}", t.id);

        // Skips: exactly where fresh planning skips, for the same reason.
        let (skips, cases): (Vec<&CaseSpec>, Vec<&CaseSpec>) = entries
            .iter()
            .partition(|c| matches!(c, CaseSpec::Skip { .. }));
        let want_skip = usize::from(fresh.distinct == 0);
        if skips.len() != want_skip {
            return Err(at(&format!(
                "{} skips, fresh planning has {want_skip}",
                skips.len()
            )));
        }
        for s in &skips {
            if let CaseSpec::Skip { reason, .. } = s {
                if reason != "template unsatisfiable at instantiation (hash filter)" {
                    return Err(at(&format!("unexpected skip reason {reason:?}")));
                }
            }
        }
        if cases.len() != fresh.distinct + fresh.intents.len() {
            return Err(at(&format!(
                "{} cases, fresh planning has {} distinct + {} intent",
                cases.len(),
                fresh.distinct,
                fresh.intents.len()
            )));
        }

        let used = used_fields(&pool, fields, &t.constraints);
        let keys: Vec<TermId> = t
            .hash_obligations
            .iter()
            .flat_map(|ob| ob.keys.iter().copied())
            .collect();
        let key_fields = used_fields(&pool, fields, &keys);
        let inputs: Vec<&ConcreteState> = cases
            .iter()
            .map(|c| match c {
                CaseSpec::Case { input, .. } => input,
                CaseSpec::Skip { .. } => unreachable!("partitioned above"),
            })
            .collect();
        let (distinct, intents) = inputs.split_at(fresh.distinct);
        let given_of = |k: usize| Some(fresh.intents[k]);
        let labelled = distinct
            .iter()
            .map(|&i| (i, None))
            .chain(intents.iter().enumerate().map(|(k, &i)| (i, given_of(k))));
        for (k, (input, intent)) in labelled.enumerate() {
            let case = |what: &str| at(&format!("case {k}: {what}; input {input:?}"));
            if !satisfies(t, &pool, fields, input) {
                return Err(case("violates the template's constraints"));
            }
            if let Err(e) = meissa_ir::eval_path(&run.cfg, &t.path, input) {
                return Err(case(&format!("does not take the template's path ({e:?})")));
            }
            let mut allowed = used.clone();
            allowed.extend(&key_fields);
            if let Some(i) = intent {
                let intent = &program.intents[i];
                if !input.eval_bexp(fields, &intent.given) {
                    return Err(case(&format!(
                        "violates the given of intent {}",
                        intent.name
                    )));
                }
                allowed.extend(used_fields(&pool, fields, &[givens[i]]));
            }
            if let Some((f, _)) = input.iter().find(|(f, _)| !allowed.contains(f)) {
                return Err(case(&format!("sets unrelated field {}", fields.name(f))));
            }
        }
        for (a, x) in distinct.iter().enumerate() {
            for (b, y) in distinct.iter().enumerate().skip(a + 1) {
                if used.iter().all(|&f| x.get(fields, f) == y.get(fields, f)) {
                    return Err(at(&format!(
                        "distinct rounds {a} and {b} agree on every used field"
                    )));
                }
            }
        }
    }
    if !rest.is_empty() {
        return Err(format!("{} cases name no template in order", rest.len()));
    }
    Ok(())
}

/// Every case rendered in full: template, `wire_id`, each input field (or
/// skip reason). Compared as strings so a mismatch names the first case.
fn render(plan: &[CaseSpec]) -> Vec<String> {
    plan.iter().map(|c| format!("{c:?}")).collect()
}

fn same(want: &[String], got: &[String]) -> Result<(), String> {
    match (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        Some(i) => Err(format!(
            "diverges at case {i} of {}/{}:\n want {:?}\n  got {:?}",
            want.len(),
            got.len(),
            want.get(i),
            got.get(i)
        )),
        None => Ok(()),
    }
}

/// Plans `program` at every worker count in `workers` and every packets
/// setting in `{1, 3}`: the plans must be identical across worker counts
/// and pass the validity oracle.
fn check_program(program: &CompiledProgram, workers: &[usize]) -> Result<(), String> {
    let run = Meissa::new().run(program);
    for packets in [1usize, 3] {
        let mut want: Option<Vec<String>> = None;
        for &threads in workers {
            let mut forked = RunOutput {
                pool: run.pool.clone(),
                cfg: run.cfg.clone(),
                templates: run.templates.clone(),
                stats: run.stats.clone(),
                threads,
            };
            let plan = plan_cases(program, &mut forked, packets);
            let got = render(&plan);
            let within = |e: String| format!("{threads} workers, {packets} packets/template: {e}");
            match &want {
                Some(want) => same(want, &got).map_err(within)?,
                None => {
                    check_valid(program, &run, &plan, packets).map_err(within)?;
                    if packets == 1 && plan.len() <= run.templates.len() {
                        return Err("the plan holds no intent case".into());
                    }
                    want = Some(got);
                }
            }
        }
    }
    Ok(())
}

fn check_gw(name: &str, level: u8, eips: usize) {
    let w = gw(level, GwScale { eips });
    let run = Meissa::new().run(&w.program);
    assert!(
        run.templates.iter().any(|t| !t.hash_obligations.is_empty()),
        "{name}: no template carries a hash obligation"
    );
    if let Err(e) = check_program(&w.program, &[1, 2, 4]) {
        panic!("{name}: {e}");
    }
}

#[test]
fn gw3_plan_is_identical_for_every_worker_count() {
    check_gw("gw-3", 3, 8);
}

#[test]
fn gw1_plan_is_identical_for_every_worker_count() {
    check_gw("gw-1", 1, 64);
}

/// gw-3 under random rule sets: a seed and a table size drawn per case.
#[test]
fn random_gw3_rule_sets_plan_valid_cases() {
    let src = gw_source(3);
    let ast = parse_program(&src).expect("gw-3 parses");
    prop::check(3, |g| {
        let seed = g.u64();
        let per_table = g.range(1..=6usize);
        let rules = generate_rules(&ast, per_table, seed);
        let program = compile(&ast, &rules).map_err(|e| format!("compile: {e}"))?;
        check_program(&program, &[1, 2])
            .map_err(|e| format!("gw-3, {per_table} random rules per table (seed {seed}): {e}"))
    });
}
