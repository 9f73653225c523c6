//! The symbolic walker's match index against per-arm constant folding.
//!
//! When a table's key fields are bound to constants, `Walker::decide_arms`
//! decides the table's leading arms through `ArmIndex` (one hash lookup
//! per mask group) instead of one `SymCtx::eval_const` per guard. The
//! property draws value stacks of random constants, about half of them
//! copied from an installed rule's key, for every branch node of gw-1..4
//! and of random rule sets over exact, lpm, ternary and range tables with
//! overlapping and all-wildcard rules added, and requires every decided
//! arm's verdict to equal `eval_const` on its guard. With one key field
//! unbound or symbolic, the index must decline. A second test pins the
//! gw-1/1024 counters, which the index must leave exactly where the
//! per-arm fold put them.

use meissa_core::exec::ArmIndex;
use meissa_core::symstate::{SymCtx, ValueStack};
use meissa_core::{Meissa, MeissaConfig};
use meissa_ir::{AExp, AOp, BExp, BOp, Cfg, CmpOp, FieldId, NodeId, Stmt};
use meissa_lang::{compile, parse_program, CompiledProgram, KeyMatch, Rule};
use meissa_num::Bv;
use meissa_smt::TermPool;
use meissa_suite::gw::{gw, GwScale};
use meissa_suite::open_source_corpus;
use meissa_suite::randrules::generate_rules;
use meissa_testkit::prop::{self, G};
use std::cell::Cell;

/// One table per match kind; `ex` and `te` get duplicate, overlapping and
/// all-wildcard rules on top of the random ones.
const KINDS: &str = r#"
header pkt { a: 8; b: 8; c: 16; d: 32; }
metadata meta { egress_port: 9; drop: 1; o1: 8; o2: 8; o3: 8; o4: 8; }
parser p { state start { extract(pkt); accept; } }
action set1(v: 8) { meta.o1 = v; }
action set2(v: 8) { meta.o2 = v; meta.egress_port = 2; }
action set3(v: 8) { meta.o3 = v; }
action set4(v: 8) { meta.o4 = v; }
action drop_() { meta.drop = 1; }
table ex {
  key = { hdr.pkt.a: exact; hdr.pkt.b: exact; }
  actions = { set1; }
  default_action = set1(99);
}
table lp {
  key = { hdr.pkt.d: lpm; }
  actions = { set2; drop_; }
  default_action = drop_();
}
table te {
  key = { hdr.pkt.c: ternary; hdr.pkt.a: ternary; }
  actions = { set3; }
}
table rg {
  key = { hdr.pkt.c: range; }
  actions = { set4; }
}
control ig { apply(ex); apply(lp); apply(te); apply(rg); }
pipeline ingress0 { parser = p; control = ig; }
deparser { emit(pkt); }
"#;

/// `KINDS` with `per_table` random rules from `seed`, plus rules that
/// overlap the random ones: a duplicate exact key, a ternary rule that
/// covers the first one, and an all-wildcard ternary rule.
fn kinds(per_table: usize, seed: u64) -> CompiledProgram {
    let ast = parse_program(KINDS).unwrap();
    let mut rules = generate_rules(&ast, per_table, seed);
    let rule = |keys: Vec<KeyMatch>, action: &str| Rule {
        keys,
        action: action.into(),
        args: vec![7],
    };
    rules.push(
        "ex",
        rule(vec![KeyMatch::Exact(1), KeyMatch::Exact(1)], "set1"),
    );
    rules.push(
        "ex",
        rule(vec![KeyMatch::Exact(1), KeyMatch::Exact(1)], "set1"),
    );
    rules.push("lp", rule(vec![KeyMatch::Prefix(0, 0)], "set2"));
    rules.push(
        "te",
        rule(vec![KeyMatch::Ternary(0, 0xff00), KeyMatch::Any], "set3"),
    );
    rules.push("te", rule(vec![KeyMatch::Any, KeyMatch::Any], "set3"));
    rules.push(
        "te",
        rule(vec![KeyMatch::Exact(2), KeyMatch::Exact(2)], "set3"),
    );
    compile(&ast, &rules).unwrap()
}

/// Every program the property covers, with its name.
fn corpus(g: &mut G) -> Vec<(String, CompiledProgram)> {
    let mut out = Vec::new();
    for level in 1..=4u8 {
        for eips in [4, 32] {
            out.push((
                format!("gw-{level}/{eips}"),
                gw(level, GwScale { eips }).program,
            ));
        }
    }
    for w in open_source_corpus() {
        out.push((w.name, w.program));
    }
    for per_table in [2, 6, 16] {
        let seed = g.u64();
        out.push((
            format!("kinds/{per_table} (rules seed {seed})"),
            kinds(per_table, seed),
        ));
    }
    out
}

/// Key cells `(field, mask, value)` read off a guard's equality and range
/// comparisons (range bounds become exact values, to probe the edges).
fn guard_cells(cfg: &Cfg, b: &BExp, out: &mut Vec<(FieldId, u128, u128)>) {
    let ones = |f: FieldId| Bv::ones(cfg.fields.width(f)).val();
    match b {
        BExp::Bin(BOp::And, x, y) => {
            guard_cells(cfg, x, out);
            guard_cells(cfg, y, out);
        }
        BExp::Not(x) => guard_cells(cfg, x, out),
        BExp::Cmp(CmpOp::Eq | CmpOp::Ge | CmpOp::Le, AExp::Field(f), AExp::Const(c)) => {
            out.push((*f, ones(*f), c.val()))
        }
        BExp::Cmp(CmpOp::Eq, AExp::Bin(AOp::And, x, m), AExp::Const(c)) => {
            if let (AExp::Field(f), AExp::Const(m)) = (&**x, &**m) {
                out.push((*f, m.val(), c.val()));
            }
        }
        _ => {}
    }
}

fn guard(cfg: &Cfg, s: NodeId) -> Option<&BExp> {
    match cfg.stmt(s) {
        Stmt::Assume(b) => Some(b),
        Stmt::Assign(..) => None,
    }
}

/// A branch node with the fields its guards read and the key cells of
/// each guard that has any.
struct Branch {
    node: NodeId,
    fields: Vec<FieldId>,
    arm_cells: Vec<Vec<(FieldId, u128, u128)>>,
}

fn branches(cfg: &Cfg) -> Vec<Branch> {
    (0..cfg.num_nodes())
        .map(|n| NodeId(n as u32))
        .filter(|&n| cfg.succ(n).len() >= 2)
        .map(|node| {
            let mut fields = Vec::new();
            let mut arm_cells = Vec::new();
            for &s in cfg.succ(node) {
                if let Some(b) = guard(cfg, s) {
                    b.fields_into(&mut fields);
                    let mut cells = Vec::new();
                    guard_cells(cfg, b, &mut cells);
                    if !cells.is_empty() {
                        arm_cells.push(cells);
                    }
                }
            }
            fields.sort();
            fields.dedup();
            Branch {
                node,
                fields,
                arm_cells,
            }
        })
        .collect()
}

/// Constant values for `fields`: random, then, about half of the time,
/// one guard's key cells written over them (bits outside a cell's mask
/// stay random, so lpm and ternary hits keep random low bits).
fn draw(g: &mut G, cfg: &Cfg, b: &Branch) -> Vec<(FieldId, u128)> {
    let mut vals: Vec<(FieldId, u128)> = b
        .fields
        .iter()
        .map(|&f| (f, g.bits(cfg.fields.width(f))))
        .collect();
    if !b.arm_cells.is_empty() && g.bool() {
        for &(f, mask, v) in &b.arm_cells[g.index(b.arm_cells.len())] {
            let slot = vals.iter_mut().find(|(k, _)| *k == f).unwrap();
            slot.1 = (slot.1 & !mask) | (v & mask);
        }
    }
    vals
}

fn stack(pool: &mut TermPool, cfg: &Cfg, vals: &[(FieldId, u128)]) -> ValueStack {
    let mut v = ValueStack::new();
    for &(f, x) in vals {
        let c = pool.bv_const(Bv::new(cfg.fields.width(f), x));
        v.set(f, c);
    }
    v
}

#[test]
fn indexed_verdicts_match_eval_const() {
    let bump = |c: &Cell<u64>| c.set(c.get() + 1);
    let (decided, held, failed) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));
    prop::check(4, |g| {
        for (name, program) in corpus(g) {
            let cfg = &program.cfg;
            let index = ArmIndex::new(cfg);
            let mut pool = TermPool::new();
            for b in branches(cfg) {
                let succ = cfg.succ(b.node);
                for _ in 0..6 {
                    let vals = draw(g, cfg, &b);
                    let v = stack(&mut pool, cfg, &vals);
                    let Some(ix) = index.decide(&pool, &v, b.node) else {
                        continue;
                    };
                    bump(&decided);
                    let mut checks = 0;
                    let mut key_fields = Vec::new();
                    for (i, &s) in succ[..ix.covered].iter().enumerate() {
                        let guard = guard(cfg, s).expect("decided arms are guarded");
                        guard.fields_into(&mut key_fields);
                        if cfg.stmt(s).is_nop() {
                            continue;
                        }
                        checks += 1;
                        let holds = ix.holding.contains(&i);
                        let folded = SymCtx::eval_const(&pool, &v, guard);
                        if folded != Some(holds) {
                            return Err(format!(
                                "{name}: node {} arm {i}: index says {holds}, \
                                 eval_const {folded:?} under {vals:?}\n  guard {}",
                                b.node.0,
                                guard.display(&cfg.fields)
                            ));
                        }
                        bump(if holds { &held } else { &failed });
                    }
                    if checks != ix.checks {
                        return Err(format!(
                            "{name}: node {}: {} checks counted, {checks} arms decided",
                            b.node.0, ix.checks
                        ));
                    }
                    // Without a constant for one key field, the index
                    // cannot decide the arms and must decline.
                    key_fields.sort();
                    key_fields.dedup();
                    if key_fields.is_empty() {
                        continue;
                    }
                    let f = key_fields[g.index(key_fields.len())];
                    let rest: Vec<(FieldId, u128)> =
                        vals.iter().copied().filter(|&(k, _)| k != f).collect();
                    let mut v = stack(&mut pool, cfg, &rest);
                    if index.decide(&pool, &v, b.node).is_some() {
                        return Err(format!(
                            "{name}: node {}: decided with {} unbound",
                            b.node.0,
                            cfg.fields.name(f)
                        ));
                    }
                    let w = cfg.fields.width(f);
                    let x = pool.var(&format!("sym_{}", f.0), w);
                    let one = pool.bv_const(Bv::new(w, 1));
                    let t = pool.add(x, one);
                    v.set(f, t);
                    if index.decide(&pool, &v, b.node).is_some() {
                        return Err(format!(
                            "{name}: node {}: decided with {} symbolic",
                            b.node.0,
                            cfg.fields.name(f)
                        ));
                    }
                }
            }
        }
        Ok(())
    });
    // The property is vacuous unless both verdicts occur often.
    let (decided, held, failed) = (decided.get(), held.get(), failed.get());
    assert!(decided >= 1_000, "only {decided} decided visits");
    assert!(
        held >= 500 && failed >= 500,
        "{held} holding and {failed} failing arms"
    );
}

/// gw-1 with 1,024 EIPs: `vni_underlay` and `nh_rewrite` match on the
/// `meta.vni` constant `eip_lookup` wrote, 2,048 table visits a run that the
/// index decides. Exact values at one and two threads: every arm still
/// counts one folded check, and every false one a prune. Of the 2,054
/// arms left to batches, 2,050 are `x == c` on a variable free on the
/// path and are decided Sat without the solver; the SAT engine sees the
/// other 4 at most. No arm reads a pinned variable: the index settles
/// every table keyed on a field a rule bound to a constant.
#[test]
fn gw1_wide_counters_are_pinned() {
    let program = gw(1, GwScale { eips: 1024 }).program;
    for threads in [1usize, 2] {
        let out = Meissa {
            config: MeissaConfig {
                threads,
                ..MeissaConfig::default()
            },
        }
        .run(&program);
        let s = &out.stats;
        assert_eq!(s.smt_checks, 2_105_360, "smt_checks at {threads} threads");
        assert_eq!(s.pruned, 2_099_205, "pruned at {threads} threads");
        assert_eq!(
            s.paths_explored, 2_051,
            "paths_explored at {threads} threads"
        );
        assert_eq!(
            s.solver.sat_engine_calls, 3,
            "sat_engine_calls at {threads} threads"
        );
        assert_eq!(
            s.arms_independent, 2_050,
            "arms_independent at {threads} threads"
        );
        assert_eq!(
            s.batched_probes, 2_054,
            "batched_probes at {threads} threads"
        );
        assert_eq!(s.arms_pinned, 0, "arms_pinned at {threads} threads");
    }
}
