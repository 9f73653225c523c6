//! Static lints over a parsed program and its rule set.
//!
//! These are the checks the paper's deployment section motivates operators
//! to want *before* burning switch time: unused declarations, shadowed
//! (dead) rules, tables applied without any installed rule, and intents
//! that reference headers no parser can ever make valid. None of them are
//! errors — production programs legitimately stage unused objects — so
//! they surface as warnings.

use crate::ast::{CtrlStmt, MatchKind, Program};
use crate::rules::{KeyMatch, RuleSet};
use std::collections::HashSet;
use std::fmt;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lint {
    /// An action never referenced by any table or `call`.
    UnusedAction(String),
    /// A table never applied by any control.
    UnusedTable(String),
    /// A control not bound to any pipeline.
    UnusedControl(String),
    /// A parser not bound to any pipeline.
    UnusedParser(String),
    /// A table applied somewhere but with zero installed rules (only its
    /// default action can ever run).
    EmptyTable(String),
    /// Rule `index` (0-based) of `table` can never match: a
    /// higher-priority rule fully shadows it.
    ShadowedRule {
        /// Table name.
        table: String,
        /// 0-based index of the dead rule.
        index: usize,
        /// 0-based index of the shadowing rule.
        shadowed_by: usize,
    },
    /// A header declared but never extracted or `setValid`-ed: its
    /// validity bit can never be 1.
    NeverValidHeader(String),
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::UnusedAction(n) => write!(f, "action `{n}` is never used"),
            Lint::UnusedTable(n) => write!(f, "table `{n}` is never applied"),
            Lint::UnusedControl(n) => write!(f, "control `{n}` is not bound to a pipeline"),
            Lint::UnusedParser(n) => write!(f, "parser `{n}` is not bound to a pipeline"),
            Lint::EmptyTable(n) => {
                write!(f, "table `{n}` has no installed rules; only its default can run")
            }
            Lint::ShadowedRule {
                table,
                index,
                shadowed_by,
            } => write!(
                f,
                "rule #{index} of table `{table}` is dead: fully shadowed by rule #{shadowed_by}"
            ),
            Lint::NeverValidHeader(n) => {
                write!(f, "header `{n}` is never extracted or setValid-ed")
            }
        }
    }
}

/// Runs every lint over a program and its installed rules.
pub fn lint(prog: &Program, rules: &RuleSet) -> Vec<Lint> {
    let mut out = Vec::new();
    unused_items(prog, &mut out);
    table_rules(prog, rules, &mut out);
    never_valid_headers(prog, &mut out);
    out
}

fn collect_applied_tables(stmts: &[CtrlStmt], tables: &mut HashSet<String>, calls: &mut HashSet<String>) {
    for s in stmts {
        match s {
            CtrlStmt::Apply(t) => {
                tables.insert(t.clone());
            }
            CtrlStmt::Call(a, _) => {
                calls.insert(a.clone());
            }
            CtrlStmt::If(_, then, els) => {
                collect_applied_tables(then, tables, calls);
                collect_applied_tables(els, tables, calls);
            }
        }
    }
}

fn unused_items(prog: &Program, out: &mut Vec<Lint>) {
    let bound_controls: HashSet<&str> =
        prog.pipelines.iter().map(|p| p.control.as_str()).collect();
    let bound_parsers: HashSet<&str> = prog
        .pipelines
        .iter()
        .filter_map(|p| p.parser.as_deref())
        .collect();

    let mut applied = HashSet::new();
    let mut called = HashSet::new();
    for c in &prog.controls {
        if bound_controls.contains(c.name.as_str()) {
            collect_applied_tables(&c.body, &mut applied, &mut called);
        }
    }

    let mut used_actions: HashSet<String> = called;
    for t in &prog.tables {
        if applied.contains(&t.name) {
            used_actions.extend(t.actions.iter().cloned());
            if let Some((d, _)) = &t.default_action {
                used_actions.insert(d.clone());
            }
        }
    }

    for a in &prog.actions {
        if !used_actions.contains(&a.name) {
            out.push(Lint::UnusedAction(a.name.clone()));
        }
    }
    for t in &prog.tables {
        if !applied.contains(&t.name) {
            out.push(Lint::UnusedTable(t.name.clone()));
        }
    }
    for c in &prog.controls {
        if !bound_controls.contains(c.name.as_str()) {
            out.push(Lint::UnusedControl(c.name.clone()));
        }
    }
    for p in &prog.parsers {
        if !bound_parsers.contains(p.name.as_str()) {
            out.push(Lint::UnusedParser(p.name.clone()));
        }
    }
}

/// Does key cell `a` accept every value `b` accepts? (Conservative: only
/// definite containment returns true.)
fn key_covers(kind: MatchKind, a: &KeyMatch, b: &KeyMatch, width: u16) -> bool {
    use KeyMatch::*;
    let full = |len: u16| -> u128 {
        let ones = if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        if len == 0 {
            0
        } else {
            (ones << (width - len)) & ones
        }
    };
    let norm = |k: &KeyMatch| -> KeyMatch {
        match *k {
            Prefix(v, l) => Ternary(v & full(l), full(l)),
            other => other,
        }
    };
    let _ = kind;
    match (norm(a), norm(b)) {
        (Any, _) => true,
        (_, Any) => false,
        (Exact(x), Exact(y)) => x == y,
        (Ternary(v, m), Exact(y)) => (y & m) == (v & m),
        (Ternary(v1, m1), Ternary(v2, m2)) => {
            // a covers b iff a's mask is a subset of b's mask and they agree
            // on a's masked bits.
            (m1 & m2) == m1 && (v1 & m1) == (v2 & m1)
        }
        (Range(lo, hi), Exact(y)) => lo <= y && y <= hi,
        (Range(l1, h1), Range(l2, h2)) => l1 <= l2 && h2 <= h1,
        _ => false,
    }
}

fn table_rules(prog: &Program, rules: &RuleSet, out: &mut Vec<Lint>) {
    let mut applied = HashSet::new();
    let mut called = HashSet::new();
    let bound: HashSet<&str> = prog.pipelines.iter().map(|p| p.control.as_str()).collect();
    for c in &prog.controls {
        if bound.contains(c.name.as_str()) {
            collect_applied_tables(&c.body, &mut applied, &mut called);
        }
    }
    for t in &prog.tables {
        if !applied.contains(&t.name) {
            continue;
        }
        let rs = rules.rules_for(&t.name);
        if rs.is_empty() {
            out.push(Lint::EmptyTable(t.name.clone()));
            continue;
        }
        let widths: Vec<u16> = t
            .keys
            .iter()
            .map(|(field, _)| field_width(prog, field))
            .collect();
        for i in 1..rs.len() {
            for j in 0..i {
                let covered = rs[i]
                    .keys
                    .iter()
                    .zip(rs[j].keys.iter())
                    .zip(t.keys.iter().zip(&widths))
                    .all(|((ki, kj), ((_, kind), &w))| key_covers(*kind, kj, ki, w));
                if covered && rs[i].keys.len() == rs[j].keys.len() {
                    out.push(Lint::ShadowedRule {
                        table: t.name.clone(),
                        index: i,
                        shadowed_by: j,
                    });
                    break;
                }
            }
        }
    }
}

fn field_width(prog: &Program, field: &str) -> u16 {
    let parts: Vec<&str> = field.split('.').collect();
    match parts.as_slice() {
        ["hdr", h, f] => prog
            .headers
            .iter()
            .find(|d| &d.name == h)
            .and_then(|d| d.fields.iter().find(|(n, _)| n == f))
            .map(|(_, w)| *w)
            .unwrap_or(8),
        [b, f] => prog
            .metadatas
            .iter()
            .find(|d| &d.name == b)
            .and_then(|d| d.fields.iter().find(|(n, _)| n == f))
            .map(|(_, w)| *w)
            .unwrap_or(8),
        _ => 8,
    }
}

fn never_valid_headers(prog: &Program, out: &mut Vec<Lint>) {
    let mut can_be_valid: HashSet<&str> = HashSet::new();
    for p in &prog.parsers {
        for s in &p.states {
            for e in &s.extracts {
                can_be_valid.insert(e.as_str());
            }
        }
    }
    for a in &prog.actions {
        for st in &a.body {
            if let crate::ast::ActionStmt::SetValid(h) = st {
                can_be_valid.insert(h.as_str());
            }
        }
    }
    for h in &prog.headers {
        if !can_be_valid.contains(h.name.as_str()) {
            out.push(Lint::NeverValidHeader(h.name.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, parse_rules};

    const BASE: &str = r#"
        header pkt { t: 16; }
        header ghost { x: 8; }
        metadata meta { out: 8; drop: 1; }
        parser p { state start { extract(pkt); accept; } }
        parser orphan_parser { state start { accept; } }
        action used(v: 8) { meta.out = v; }
        action orphan_action() { meta.out = 9; }
        action fallback() { }
        table t1 {
          key = { hdr.pkt.t: exact; }
          actions = { used; fallback; }
          default_action = fallback();
        }
        table orphan_table {
          key = { hdr.pkt.t: exact; }
          actions = { used; }
        }
        control c { apply(t1); }
        control orphan_control { apply(orphan_table); }
        pipeline main { parser = p; control = c; }
        deparser { emit(pkt); }
    "#;

    #[test]
    fn finds_unused_declarations() {
        let prog = parse_program(BASE).unwrap();
        let rules = parse_rules("rules t1 { 1 => used(1); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(lints.contains(&Lint::UnusedAction("orphan_action".into())), "{lints:?}");
        assert!(lints.contains(&Lint::UnusedTable("orphan_table".into())));
        assert!(lints.contains(&Lint::UnusedControl("orphan_control".into())));
        assert!(lints.contains(&Lint::UnusedParser("orphan_parser".into())));
        assert!(lints.contains(&Lint::NeverValidHeader("ghost".into())));
    }

    #[test]
    fn empty_applied_table_is_flagged() {
        let prog = parse_program(BASE).unwrap();
        let lints = lint(&prog, &parse_rules("").unwrap());
        assert!(lints.contains(&Lint::EmptyTable("t1".into())), "{lints:?}");
    }

    #[test]
    fn shadowed_exact_rule_is_dead() {
        let prog = parse_program(BASE).unwrap();
        let rules = parse_rules("rules t1 { 5 => used(1); 5 => used(2); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(
            lints.contains(&Lint::ShadowedRule {
                table: "t1".into(),
                index: 1,
                shadowed_by: 0
            }),
            "{lints:?}"
        );
    }

    #[test]
    fn ternary_wildcard_shadows_everything_after_it() {
        let src = r#"
            header pkt { t: 16; }
            metadata meta { out: 8; }
            parser p { state start { extract(pkt); accept; } }
            action a(v: 8) { meta.out = v; }
            table acl {
              key = { hdr.pkt.t: ternary; }
              actions = { a; }
            }
            control c { apply(acl); }
            pipeline main { parser = p; control = c; }
        "#;
        let prog = parse_program(src).unwrap();
        let rules = parse_rules("rules acl { _ => a(1); 0x0800 &&& 0xffff => a(2); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(
            lints.iter().any(|l| matches!(l, Lint::ShadowedRule { index: 1, .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn lpm_shadowing_via_prefix_containment() {
        let src = r#"
            header pkt { d: 32; }
            metadata meta { out: 8; }
            parser p { state start { extract(pkt); accept; } }
            action a(v: 8) { meta.out = v; }
            table route {
              key = { hdr.pkt.d: lpm; }
              actions = { a; }
            }
            control c { apply(route); }
            pipeline main { parser = p; control = c; }
        "#;
        let prog = parse_program(src).unwrap();
        // /8 first shadows the /16 inside it (rule files are priority
        // order in this dialect, so the broad rule wins first).
        let rules = parse_rules("rules route { 10.0.0.0/8 => a(1); 10.1.0.0/16 => a(2); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(
            lints.iter().any(|l| matches!(l, Lint::ShadowedRule { index: 1, .. })),
            "{lints:?}"
        );
        // The other order is fine: specific first, broad later.
        let rules = parse_rules("rules route { 10.1.0.0/16 => a(2); 10.0.0.0/8 => a(1); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(!lints.iter().any(|l| matches!(l, Lint::ShadowedRule { .. })));
    }

    #[test]
    fn disjoint_rules_are_not_flagged() {
        let prog = parse_program(BASE).unwrap();
        let rules = parse_rules("rules t1 { 1 => used(1); 2 => used(2); }").unwrap();
        let lints = lint(&prog, &rules);
        assert!(!lints.iter().any(|l| matches!(l, Lint::ShadowedRule { .. })));
    }

    #[test]
    fn display_is_informative() {
        let l = Lint::ShadowedRule {
            table: "acl".into(),
            index: 3,
            shadowed_by: 0,
        };
        let text = l.to_string();
        assert!(text.contains("acl") && text.contains("#3"), "{text}");
    }
}
