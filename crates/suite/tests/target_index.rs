//! The switch target's match index against the in-order guard scan.
//!
//! `SwitchTarget` looks tables up through a tuple-space hash index; the
//! scan (`SwitchTarget::scan_oracle`) is the definition it must agree with.
//! The property draws random concrete states, biased towards rule keys so
//! that both hits and misses occur, and requires byte-identical outputs
//! from both on the gw-1..gw-4 corpus at several EIP scales, the
//! open-source corpus, every program and fault of the 16-bug matrix, and
//! hand-written tables that probe first-match-wins corner cases. A second
//! test checks that no table with two or more non-range rules silently
//! falls back to the scan, which would cost the whole gain without failing
//! anything else.

use meissa_dataplane::{Fault, SwitchTarget, TargetOutput};
use meissa_ir::{AExp, AOp, BExp, BOp, Cfg, CmpOp, ConcreteState, FieldId, NodeId, RuleArm, Stmt};
use meissa_lang::ast::MatchKind;
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_num::Bv;
use meissa_suite::gw::{gw, GwScale};
use meissa_suite::{bugs, open_source_corpus};
use meissa_testkit::prop::{self, G};
use std::collections::{BTreeMap, HashMap};

/// Tables that exercise every lookup corner: ternary with several masks,
/// lpm rules listed shorter-prefix-first (rule order decides, not prefix
/// length), two-key exact with duplicate keys, duplicate single keys, an
/// all-wildcard rule (the miss arm's guard folds to `false`), a zero-rule
/// table, a range table, which keeps the scan, and a range table whose
/// leading exact-valued rules are indexed while the rest are scanned.
const CORNERS: &str = r#"
header pkt { a: 8; b: 8; c: 16; d: 32; }
metadata meta { egress_port: 9; drop: 1; o1: 8; o2: 8; o3: 8; o4: 8; o5: 8; o6: 8; o7: 8; o8: 8; }
parser p { state start { extract(pkt); accept; } }
action set1(v: 8) { meta.o1 = v; }
action set2(v: 8) { meta.o2 = v; meta.egress_port = 2; }
action set3(v: 8) { meta.o3 = v; }
action set4(v: 8) { meta.o4 = v; hdr.pkt.b = v; }
action set5(v: 8) { meta.o5 = v; }
action set6(v: 8) { meta.o6 = v; }
action set7(v: 8) { meta.o7 = v; }
action set8(v: 8) { meta.o8 = v; }
action drop_() { meta.drop = 1; }
table tern {
  key = { hdr.pkt.a: ternary; }
  actions = { set1; }
}
table lpm_t {
  key = { hdr.pkt.d: lpm; }
  actions = { set2; drop_; }
  default_action = drop_();
}
table two_key {
  key = { hdr.pkt.a: exact; hdr.pkt.b: exact; }
  actions = { set3; }
  default_action = set3(99);
}
table dup {
  key = { hdr.pkt.c: exact; }
  actions = { set4; }
}
table wild {
  key = { hdr.pkt.b: ternary; hdr.pkt.a: ternary; }
  actions = { set5; }
  default_action = set5(99);
}
table empty_t {
  key = { hdr.pkt.a: exact; }
  actions = { set6; }
  default_action = set6(9);
}
table rng {
  key = { hdr.pkt.c: range; }
  actions = { set7; }
}
table rng_mix {
  key = { hdr.pkt.c: range; }
  actions = { set8; }
  default_action = set8(99);
}
control ig {
  apply(tern);
  apply(two_key);
  apply(dup);
  apply(wild);
  apply(empty_t);
  apply(rng);
  apply(rng_mix);
  if (meta.o1 != 3) { apply(lpm_t); }
}
pipeline ingress0 { parser = p; control = ig; }
deparser { emit(pkt); }
"#;

const CORNER_RULES: &str = r#"
rules tern {
  0x10 &&& 0xf0 => set1(1);
  0x01 &&& 0x0f => set1(2);
  0x11 &&& 0xff => set1(3);
  0x00 &&& 0x0c => set1(4);
  0x20 &&& 0xf0 => set1(5);
  0x21 &&& 0xff => set1(6);
}
rules lpm_t {
  10.0.0.0/8 => set2(1);
  10.1.0.0/16 => set2(2);
  10.1.2.0/24 => set2(3);
  10.1.2.3/32 => set2(4);
  192.168.0.0/16 => set2(5);
  192.168.7.0/24 => set2(6);
}
rules two_key {
  1, 2 => set3(1);
  1, 3 => set3(2);
  1, 2 => set3(3);
  4, 5 => set3(4);
  4, 5 => set3(5);
}
rules dup {
  7 => set4(1);
  7 => set4(2);
  8 => set4(3);
  7 => set4(4);
}
rules wild {
  0x05 &&& 0xff, _ => set5(1);
  _, 0x10 &&& 0xf0 => set5(2);
  _, _ => set5(3);
  0x06 &&& 0xff, _ => set5(4);
}
rules rng {
  10..20 => set7(1);
  15..30 => set7(2);
  25..25 => set7(3);
}
rules rng_mix {
  5 => set8(1);
  6 => set8(2);
  10..20 => set8(3);
  7 => set8(4);
}
"#;

fn corners() -> CompiledProgram {
    compile(
        &parse_program(CORNERS).unwrap(),
        &parse_rules(CORNER_RULES).unwrap(),
    )
    .unwrap()
}

/// Every program the tests cover, with its name.
fn corpus() -> Vec<(String, CompiledProgram)> {
    let mut out = vec![("corners".to_string(), corners())];
    for level in 1..=4u8 {
        for eips in [4, 32] {
            out.push((
                format!("gw-{level}/{eips}"),
                gw(level, GwScale { eips }).program,
            ));
        }
    }
    out.push(("gw-1/1024".into(), gw(1, GwScale { eips: 1024 }).program));
    for w in open_source_corpus() {
        out.push((w.name, w.program));
    }
    out
}

/// Key cells `(field, mask, value)` of one guard.
type Cells = Vec<(FieldId, u128, u128)>;

/// One target pair under test, with the key cells of every guard in its
/// program grouped by branch node (packets are drawn to hit them).
struct Subject {
    label: String,
    indexed: SwitchTarget,
    scan: SwitchTarget,
    branches: Vec<Vec<Cells>>,
}

impl Subject {
    fn new(label: String, program: &CompiledProgram, fault: Fault) -> Subject {
        let cfg = &program.cfg;
        let branches = (0..cfg.num_nodes())
            .map(|n| {
                cfg.succ(NodeId(n as u32))
                    .iter()
                    .filter_map(|&s| {
                        let mut cells = Vec::new();
                        guard_cells(cfg, &guard(cfg, s)?, &mut cells);
                        (!cells.is_empty()).then_some(cells)
                    })
                    .collect::<Vec<Cells>>()
            })
            .filter(|arms| !arms.is_empty())
            .collect();
        Subject {
            label,
            indexed: SwitchTarget::with_fault(program, fault.clone()).with_tally(),
            scan: SwitchTarget::scan_oracle(program, fault),
            branches,
        }
    }

    /// A random state: most fields random, then, at about half of the
    /// branch nodes, the key cells of one random successor's guard written
    /// over it (masked bits stay random, so an lpm or ternary hit keeps
    /// random low bits). The other half keep their random values, which
    /// mostly miss.
    fn draw(&self, g: &mut G) -> ConcreteState {
        let fields = &self.indexed.program().cfg.fields;
        let mut values: BTreeMap<FieldId, u128> = BTreeMap::new();
        for f in fields.iter() {
            if g.index(4) != 0 {
                values.insert(f, g.bits(fields.width(f)));
            }
        }
        for arms in &self.branches {
            if !g.bool() {
                continue;
            }
            for &(f, mask, v) in &arms[g.index(arms.len())] {
                let cur = values.get(&f).copied().unwrap_or(0);
                values.insert(f, (cur & !mask) | v);
            }
        }
        ConcreteState::from_pairs(
            values
                .into_iter()
                .map(|(f, v)| (f, Bv::new(fields.width(f), v))),
        )
    }
}

/// The guard the scan evaluates before entering `s`.
fn guard(cfg: &Cfg, s: NodeId) -> Option<BExp> {
    match (cfg.raw_guard(s), cfg.stmt(s)) {
        (Some(raw), _) => Some(raw.clone()),
        (None, Stmt::Assume(b)) => Some(b.clone()),
        (None, _) => None,
    }
}

/// Collects `(field, mask, value)` cells from a guard's equality and range
/// comparisons (range bounds become exact values, to probe the edges).
fn guard_cells(cfg: &Cfg, b: &BExp, out: &mut Vec<(FieldId, u128, u128)>) {
    let ones = |f: FieldId| Bv::ones(cfg.fields.width(f)).val();
    match b {
        BExp::Bin(BOp::And, x, y) => {
            guard_cells(cfg, x, out);
            guard_cells(cfg, y, out);
        }
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

fn same(a: &TargetOutput, b: &TargetOutput) -> bool {
    a.packet == b.packet && a.egress_port == b.egress_port && a.final_state == b.final_state
}

#[test]
fn indexed_lookup_matches_the_scan() {
    let mut subjects: Vec<Subject> = corpus()
        .into_iter()
        .map(|(name, p)| Subject::new(name, &p, Fault::None))
        .collect();
    for case in bugs::all() {
        subjects.push(Subject::new(
            format!("bug {} ({}, {})", case.index, case.name, case.fault.name()),
            &case.workload.program,
            case.fault,
        ));
    }
    prop::check(24, |g| {
        for s in &subjects {
            for _ in 0..4 {
                let state = s.draw(g);
                let a = s.indexed.run_state(&state, 1);
                let b = s.scan.run_state(&state, 1);
                if !same(&a, &b) {
                    return Err(format!(
                        "{}: indexed and scan targets disagree on {state:?}:\n  \
                         indexed {a:?}\n  scan    {b:?}",
                        s.label
                    ));
                }
            }
        }
        Ok(())
    });
    // The draws must reach both sides of the lookup: rule hits and misses.
    for s in &subjects {
        let snap = s.indexed.tally().expect("tally enabled").snapshot();
        let hits = |miss: bool| {
            snap.iter()
                .filter(|(_, arm, n)| (*arm == RuleArm::Miss) == miss && *n > 0)
                .count()
        };
        if snap.iter().any(|(_, arm, _)| *arm != RuleArm::Miss) {
            assert!(hits(false) > 0 && hits(true) > 0, "{}: {snap:?}", s.label);
        }
    }
}

/// Checks that every table application with ≥ 2 rules and no range key is
/// served by the index, covering every rule arm with the miss arm taken
/// without evaluation. Returns the names of the tables it checked.
fn assert_tables_indexed(label: &str, program: &CompiledProgram) -> Vec<String> {
    let cfg = &program.cfg;
    let served: HashMap<NodeId, (usize, bool)> = SwitchTarget::new(program)
        .indexed_branches()
        .into_iter()
        .map(|(n, indexed, miss_direct)| (n, (indexed, miss_direct)))
        .collect();
    let has_range: HashMap<&str, bool> = program
        .source
        .tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.keys.iter().any(|(_, k)| *k == MatchKind::Range),
            )
        })
        .collect();
    let mut checked = Vec::new();
    for n in 0..cfg.num_nodes() {
        let node = NodeId(n as u32);
        let mut table = None;
        let mut rules = 0;
        for &s in cfg.succ(node) {
            for site in cfg.rule_sites(s) {
                if matches!(site.arm, RuleArm::Rule(_)) {
                    rules += 1;
                    table = Some(site.table.as_str());
                }
            }
        }
        let Some(table) = table else { continue };
        if rules < 2 || has_range[table] {
            continue;
        }
        assert_eq!(
            served.get(&node),
            Some(&(rules, true)),
            "{label}: table `{table}` ({rules} rules) at node {n} is not fully served by the index"
        );
        checked.push(table.to_string());
    }
    checked
}

#[test]
fn no_table_falls_back_to_the_scan() {
    for (name, program) in corpus() {
        let checked = assert_tables_indexed(&name, &program);
        if name.starts_with("gw-") {
            assert!(
                checked.iter().any(|t| t.starts_with("eip_lookup")),
                "{name}: the EIP table was not checked ({checked:?})"
            );
        }
    }
    for case in bugs::all() {
        assert_tables_indexed(case.name, &case.workload.program);
    }

    // The corner tables by name: every non-range table with rules is
    // indexed, the range table and the zero-rule table are scanned.
    let program = corners();
    let mut checked = assert_tables_indexed("corners", &program);
    checked.sort();
    assert_eq!(checked, ["dup", "lpm_t", "tern", "two_key", "wild"]);
    let served: HashMap<NodeId, (usize, bool)> = SwitchTarget::new(&program)
        .indexed_branches()
        .into_iter()
        .map(|(n, indexed, miss_direct)| (n, (indexed, miss_direct)))
        .collect();
    let cfg = &program.cfg;
    let lookup = |table: &str| -> Vec<Option<(usize, bool)>> {
        let heads: Vec<Option<(usize, bool)>> = (0..cfg.num_nodes())
            .map(|n| NodeId(n as u32))
            .filter(|&n| {
                cfg.succ(n)
                    .iter()
                    .any(|&s| cfg.rule_sites(s).iter().any(|site| site.table == table))
            })
            .map(|n| served.get(&n).copied())
            .collect();
        assert!(!heads.is_empty(), "table `{table}` not found");
        heads
    };
    assert_eq!(lookup("rng"), [None], "the range table keeps the scan");
    assert_eq!(
        lookup("empty_t"),
        [None],
        "a zero-rule table has nothing to index"
    );
    assert_eq!(
        lookup("rng_mix"),
        [Some((2, false))],
        "the two leading exact-valued rules are indexed; the range rule after \
         them is no miss arm, so a lookup miss scans on"
    );

    // Inverted priority keeps the scan everywhere.
    assert!(SwitchTarget::with_fault(&program, Fault::PriorityInverted)
        .indexed_branches()
        .is_empty());
}
